"""The benchmark under bench/ against the library: its known-answer tables
agree with one another, and one cheap job per workload reaches its
verdict, so a library change that breaks the benchmark fails here."""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "bench")


@pytest.fixture(scope="module")
def selfcheck():
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module("selfcheck")
    finally:
        sys.path.remove(BENCH)


def test_bench_tables_agree(selfcheck):
    selfcheck.check_tables()


@pytest.mark.parametrize("workload", ["models", "prove", "cli"])
def test_bench_cheap_job_reaches_its_verdict(selfcheck, workload):
    job_id = selfcheck.CHEAP_JOBS[workload]
    jobs = dict(selfcheck.run.setup(workload, selfcheck.Tracer(False)))
    assert jobs[job_id](selfcheck.Tracer(False)) is True
