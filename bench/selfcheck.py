"""Quick self-check of the benchmark (about 10 s).

    python3 bench/selfcheck.py

Confirms that the known-answer tables agree with one another, runs one
cheap job per workload under tracing, checks that the spans account for
the job time, and checks that the benchmark refuses to run, without
printing a result, in a directory that holds only the benchmark.
"""

import os
import shutil
import subprocess
import sys

import answers as A
import run
from spans import Tracer
from workloads import compositions

CHEAP_JOBS = {"models": "enumerate hoop 4", "prove": "prove sl-pr1.gl",
              "cli": "cli enumerate"}


def check_tables():
    hoop = A.ISO_COUNTS["hoop"]
    for n, want in A.LINEAR_CLASSES.items():
        assert want == 2 ** (n - 2) == sum(1 for _ in compositions(n)), n
    for n, count in A.ISO_COUNTS["hoop_linear"].items():
        assert count == (2 ** (n - 2) if n >= 2 else 1), n
        assert count <= hoop[n], n
    assert A.ISO_COUNTS["semilattice"] == A.ISO_COUNTS["semilattice_ge"]
    for n, count in A.ISO_COUNTS["pocrim"].items():
        assert count >= A.POCRIM_HOOP_PART[n], n
    assert A.ISO_COUNTS["pocrim"][4] - hoop[4] == 2
    assert A.LABELLED_HOOPS_4 == 108 and hoop[4] == 5
    assert A.CORPUS_CHECKS == 672
    assert "in %d hoops" % sum(hoop[n] for n in (1, 2, 3, 4)) \
        in A.CLI_CHECK_MODELS_4
    names = set(A.CHAINS_OK) | set(A.DERIVE_LINK_LEMMAS) | set(A.NO_CHAIN)
    assert len(names) == len(A.CHAINS_OK) + len(A.DERIVE_LINK_LEMMAS) \
        + len(A.NO_CHAIN) == A.CORPUS_SIZE
    # cross-engine: every goal the searcher refutes is a prover canary,
    # never a goal the prover is expected to prove
    for files, sizes in A.COUNTERMODELS.items():
        found = [sizes[n] for n in sorted(sizes)]
        assert found == sorted(found) and found[-1], files
        assert files in A.CANARIES and files not in A.PROVER_GOALS, files
        assert files[-1] not in {g[-1] for g in A.PROVER_GOALS}, files


def check_cheap_jobs():
    for workload, job_id in CHEAP_JOBS.items():
        tracer = Tracer(True)
        jobs = dict(run.setup(workload, tracer))
        [res] = run.run_pass([(job_id, jobs[job_id])], [0], tracer).results
        assert res.error is None and res.decided, (job_id, res.error)
        seconds = res.raw_s
        total = sum(tracer.self_seconds().values())
        assert abs(total - tracer.job_seconds()) < 1e-6, job_id
        [root] = [e - s for _, s, e, parent, job in tracer.spans
                  if parent is None and job == job_id]
        assert 0 <= seconds - root < 0.01, (job_id, seconds, root)
        print("selfcheck: %-8s %-20s %.3f s" % (workload, job_id, seconds))


def check_bare_directory():
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    res = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "models", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=bare, capture_output=True,
                         text=True, timeout=180)
    shutil.rmtree(bare)
    assert res.returncode != 0 and not res.stdout.strip(), res.stdout
    print("selfcheck: bare directory refused (exit %d)" % res.returncode)


if __name__ == "__main__":
    check_tables()
    check_cheap_jobs()
    check_bare_directory()
    print("selfcheck: ok")
