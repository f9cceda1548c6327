"""The benchmark in perfbench/ wraps the package's functions by name and
expects a fixed number of self-checks. A renamed op or a dropped check
would only show up there as an aborted run, so check the contract here."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from restorect import checks
from restorect import distill_harness as dh

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_trace():
    return _load("bench_trace")


def test_every_wrapped_name_resolves(bench_trace):
    names = list(bench_trace.STAGE_FUNCS.values()) + [(m, d) for m, d, _ in bench_trace.SPEC]
    for module_name, dotted in names:
        module = importlib.import_module(f"restorect.{module_name}")
        owner, attr = bench_trace._resolve(module, dotted)
        assert callable(getattr(owner, attr))


def test_check_count_matches_the_benchmark_reference():
    with open(PERFBENCH / "reference.json", encoding="utf-8") as fh:
        expected = json.load(fh)["selfcheck"]["total"]
    assert len(checks.CHECKS) == expected


def test_checked_output_layout_matches_the_program():
    bench_verify = _load("bench_verify")
    assert bench_verify.PHASE1_HEADER == dh.PHASE1_COLUMNS
    assert bench_verify.PHASE2_HEADER == dh.PHASE2_COLUMNS
    assert bench_verify.SAMPLER_HEADER == dh.SAMPLER_COLUMNS
    assert list(bench_verify.CHECKPOINTS) == [f"ckpt_vel_{key}" for key in dh.STREAMS] \
        + ["ckpt_student"]
