"""hooplab benchmark: one workload, one closed loop, one caller.

    python3 bench/run.py --workload {models,prove,cli} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout and imports hooplab from its
src/ directory.  Each pass runs the workload's fixed job list once, in an
order shuffled by --seed; the number of passes is --seconds divided by the
workload's nominal pass time on a 2-core machine.  Every answer is checked
against bench/answers.py.  Prints every metric by name with its unit, then
one JSON line with correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Results and
spans go to bench/out/.
"""

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter, namedtuple

import workloads
from spans import ROOT_LAYER, Tracer, clock

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

# Seconds one pass takes on a 2-core machine at the commit that defined the
# benchmark; fixes the pass count, so both sides of a comparison do the
# same work.
PASS_SECONDS = {"models": 24.0, "prove": 22.0, "cli": 3.0}
# Reported times are reference seconds: wall seconds scaled by how much
# slower than CAL_REF_S the calibration loop ran just before and after.
# The CPU speed of a shared 2-core virtual machine drifts by +-20% within
# seconds, which raw wall times would carry straight into every metric.
CAL_REF_S = 0.003
# Short jobs are timed as the median of back-to-back runs.
MIN_TIMED_S = 0.25
MAX_RUNS = 15
# Long jobs pause for a calibration at marks this far apart.
LAP_S = 0.25
PROBES = 5   # fresh interpreters timed for setup_s and cli.startup_s

LAYERS = ("syntax", "search", "model", "hoops", "saturate", "chains", "cli",
          ROOT_LAYER)
CLI_COMMANDS = ("parse", "construct", "check", "enumerate", "prove",
                "verify", "mine", "lemmas")
END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
              "job_tail_s": "s", "decided_ratio": "ratio",
              "peak_rss_mb": "MB"}


def import_hooplab():
    """hooplab from this checkout's src/, or exit without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hooplab", "__init__.py")):
        sys.exit("bench: no hooplab source under %s" % src)
    if src not in sys.path:
        sys.path.insert(0, src)
    import hooplab
    if not os.path.abspath(hooplab.__file__).startswith(src + os.sep):
        sys.exit("bench: imported hooplab from %s" % hooplab.__file__)
    return hooplab


def setup(workload, tracer):
    return workloads.build(workload, import_hooplab(), tracer, ROOT)


def loop():
    """A fixed piece of interpreter work: dict and tuple operations."""
    d = {}
    for i in range(15000):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0) + 1
    return d


def calibrate(loops=3):
    """Seconds the calibration loop takes now (median of loops runs)."""
    times = []
    for _ in range(loops):
        t0 = clock()
        loop()
        times.append(clock() - t0)
    return statistics.median(times)


class Stopwatch:
    """One run of a job in reference seconds.  At a mark at least LAP_S
    after the last calibration the clock pauses for a calibration, so a
    long job is scaled stretch by stretch, each stretch by CAL_REF_S over
    the mean of the calibrations at its two ends."""

    def __init__(self, cal):
        self.cal = cal           # calibration at the start of the stretch
        self.raw = self.ref = 0.0
        self.t0 = clock()

    def stop(self):
        """End the current stretch; returns its wall seconds."""
        seconds = clock() - self.t0
        self.raw += seconds
        return seconds

    def resume(self, seconds, cal):
        """Scale the stretch just stopped by its end calibration cal."""
        self.ref += seconds * CAL_REF_S / ((self.cal + cal) / 2)
        self.cal = cal
        self.t0 = clock()

    def mark(self):
        if clock() - self.t0 >= LAP_S:
            self.resume(self.stop(), calibrate(1))


Pass = namedtuple("Pass", "ref_s first_s cals results")
Result = namedtuple("Result", "job raw_s ref_s first_s decided error")


def run_job(fn, job_id, tracer, cal):
    """One run of a job: (stopwatch, last stretch seconds, decided, error).
    The caller closes the last stretch with a calibration."""
    decided, error = False, None
    watch = Stopwatch(cal)
    # calibrating inside a traced run would show up in its spans
    tracer.on_mark = None if tracer.enabled else watch.mark
    try:
        with tracer.job(job_id):
            decided = fn(tracer)
    except workloads.Wrong as e:
        error = str(e)
    except Exception:
        error = traceback.format_exc()
    return watch, watch.stop(), bool(decided), error


def run_pass(jobs, order, tracer):
    """Run every job once, calibrating between runs.

    In an untraced pass a job shorter than MIN_TIMED_S runs again, back to
    back, until that much time is measured, and its time is the median of
    those runs in reference seconds.  A traced pass runs each job once, so
    its spans and counters cover exactly one run."""
    results = []
    cals = []
    for i in order:
        job_id, fn = jobs[i]
        gc.collect()   # start every job from the same heap state
        cals.append(calibrate())
        raw, ref = [], []
        done = False
        while not done:
            watch, last, decided, error = run_job(fn, job_id, tracer,
                                                  cals[-1])
            done = (error is not None or tracer.enabled
                    or len(raw) + 1 == MAX_RUNS
                    or sum(raw) + watch.raw >= MIN_TIMED_S)
            # a single loop between the runs of a short job keeps it cheap
            cals.append(calibrate(3 if done else 1))
            watch.resume(last, cals[-1])
            raw.append(watch.raw)
            ref.append(watch.ref)
        if error is not None:
            print("WRONG %s: %s" % (job_id, error), file=sys.stderr)
        results.append(Result(job_id, statistics.median(raw),
                              statistics.median(ref), ref[0], decided, error))
    return Pass(sum(r.ref_s for r in results),
                sum(r.first_s for r in results), cals, results)


def child_seconds(cmd, count):
    """Median reference time of count runs of a fresh interpreter."""
    times = []
    for _ in range(count):
        before = calibrate()
        t0 = clock()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       env=dict(os.environ,
                                PYTHONPATH=os.path.join(ROOT, "src")),
                       timeout=120)
        seconds = clock() - t0
        times.append(seconds * CAL_REF_S / ((before + calibrate()) / 2))
    return statistics.median(times)


def tail(samples):
    """(value, percentile): the highest whole percentile with at least ten
    samples beyond it."""
    n = len(samples)
    pct = max(1, math.floor(100 * (n - 10) / n)) if n > 10 else 50
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[pct - 1], pct


def end_to_end(workload, setup_s, passes, results):
    times = [r.ref_s for r in results]
    value, pct = tail(times)
    who = (resource.RUSAGE_CHILDREN if workload == "cli"
           else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": statistics.median(len(p.results) / p.ref_s
                                        for p in passes),
        "job_p50_s": statistics.median(times),
        "job_tail_s": value,
        "decided_ratio": sum(r.decided for r in results) / len(results),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    cals = [c for p in passes for c in p.cals]
    notes = {"job_tail_s": "p%d of %d jobs" % (pct, len(times)),
             "jobs_per_s": "median of %d passes of %d jobs"
                           % (len(passes), len(passes[0].results)),
             "speed_ratio": "calibration loop %.3f ms here, %.3f ms reference"
                            % (1e3 * statistics.median(cals), 1e3 * CAL_REF_S),
             "raw_pass_s": "%.3f s of wall-clock job time per pass (median)"
                           % statistics.median(sum(r.raw_s for r in p.results)
                                               for p in passes)}
    return metrics, notes


def per_layer(tracer, traced, untraced, startup_s):
    """Layer metrics of the traced passes, in reference seconds."""
    scale = CAL_REF_S / statistics.median(c for p in traced for c in p.cals)
    span_s = Counter({k: v * scale
                      for k, v in tracer.span_seconds().items()})
    calls = Counter(name for name, *_ in tracer.spans)
    c = tracer.counts
    given, prove_s = c["saturate.given"], span_s["saturate.prove"]
    to_proof = c["saturate.given_to_proof"]
    # first runs only: a traced pass runs each job once
    traced_s = statistics.median(p.first_s for p in traced)
    untraced_s = statistics.median(p.first_s for p in untraced)
    m = {
        "syntax.parse_source.calls": (calls["syntax.parse_source"], "count"),
        "syntax.parse_source.s": (span_s["syntax.parse_source"], "s"),
        "search.enumerate_models.calls": (c["search.enumerate_models.calls"],
                                          "count"),
        "search.enumerate_models.s": (span_s["search.enumerate_models"], "s"),
        "search.models": (c["search.models"], "count"),
        "search.first_model_s": (c["search.first_model_s"] * scale, "s"),
    }
    for name in ("model.canonical_form", "model.satisfies", "saturate.prove",
                 "chains.verify_chain_report"):
        m[name + ".calls"] = (calls[name], "count")
        m[name + ".s"] = (span_s[name], "s")
    for name in ("hoops.construct", "hoops.derived_tables",
                 "hoops.decompose_linear", "saturate.render_proof",
                 "saturate.parse_proof", "saturate.verify_proof",
                 "chains.lemma_corpus"):
        m[name + ".s"] = (span_s[name], "s")
    m.update({
        "saturate.given": (given, "count"),
        "saturate.given_per_s": (given / prove_s if prove_s else 0.0, "1/s"),
        "saturate.given_to_proof": (to_proof, "count"),
        "saturate.proof_steps": (c["saturate.proof_steps"], "count"),
        "saturate.proof_yield": (c["saturate.proof_steps"] / to_proof
                                 if to_proof else 0.0, "ratio"),
        "chains.links": (c["chains.links"], "count"),
        "cli.startup_s": (startup_s, "s"),
    })
    for cmd in CLI_COMMANDS:
        m["cli.%s.s" % cmd] = (span_s["cli." + cmd], "s")
    self_s = tracer.self_seconds()
    for layer in LAYERS:
        m["self.%s.s" % layer] = (self_s[layer] * scale, "s")
    m["trace.traced_pass_s"] = (traced_s, "s")
    m["trace.untraced_pass_s"] = (untraced_s, "s")
    m["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(PASS_SECONDS),
                    required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=42)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="do the workload's set-up and exit (timed by "
                         "the parent run as setup_s)")
    args = ap.parse_args(argv)

    if args.setup_only:
        setup(args.workload, Tracer(False))
        return 0
    import_hooplab()   # fail before any timing in an incomplete checkout
    os.makedirs(OUT, exist_ok=True)
    setup_s = child_seconds([sys.executable, os.path.abspath(__file__),
                             "--workload", args.workload, "--setup-only"],
                            PROBES)
    tracer = Tracer(bool(args.trace))
    with tracer.job("setup"):
        jobs = setup(args.workload, tracer)
    rng = random.Random(args.seed)
    n_passes = max(1, int(args.seconds // PASS_SECONDS[args.workload]))
    # a traced run alternates untraced and traced passes in the same time
    kinds = ([False, True] * n_passes)[:max(2, n_passes)] if args.trace \
        else [False] * n_passes
    untraced, traced = [], []
    for traced_pass in kinds:
        order = list(range(len(jobs)))
        rng.shuffle(order)
        if traced_pass:
            traced.append(run_pass(jobs, order, tracer))
        else:
            untraced.append(run_pass(jobs, order, Tracer(False)))
    passes = untraced + traced
    results = [r for p in passes for r in p.results]
    failed = sum(r.error is not None for r in results)

    e2e, notes = end_to_end(args.workload, setup_s, untraced,
                            [r for p in untraced for r in p.results])
    report = {name: (value, END_TO_END[name]) for name, value in e2e.items()}
    report["error_ratio"] = (failed / len(results), "ratio")
    if args.trace:
        startup_s = (child_seconds([sys.executable, "-c", "import hooplab"],
                                   PROBES)
                     if args.workload == "cli" else 0.0)
        layer = per_layer(tracer, traced, untraced, startup_s)
        report.update(layer)
        tracer.write(os.path.join(OUT, "%s-spans.json" % args.workload))
    for name, (value, unit) in report.items():
        print("%-32s %14.6g %-6s %s" % (name, value, unit,
                                        notes.get(name, "")))
    for name in ("speed_ratio", "raw_pass_s"):
        print("# %s: %s" % (name, notes[name]))

    keys = layer if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": report[k][0], "unit": report[k][1]}
                    for k in keys},
    }
    with open(os.path.join(OUT, "%s-trace%d.json" % (args.workload,
                                                    args.trace)), "w") as fh:
        json.dump({"args": vars(args), "report": report, "notes": notes,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashes seed the layout of every dict and set; fix them so
        # that runs differ only in what they measure
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
