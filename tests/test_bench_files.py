"""Every committed BENCH_*.json has the layout `tools/bench_ab.py` writes,
and its summary follows from the runs it records."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_ab = _load_tool()


def test_verdict_needs_a_difference_beyond_the_base_iqr_and_nine_of_ten_wins():
    base = [10.0, 11.0, 12.0, 13.0] * 2 + [10.0, 13.0]
    faster = bench_ab.compare(base, [6.0, 7.0] * 5, "lower", 0.2)
    assert (faster["verdict"], faster["head_wins"]) == ("faster", 10)
    assert (faster["ratio"], faster["worse_beyond_bound"]) == (6.5 / 11.5, False)
    # the same medians, but the head wins only 8 of 10 pairs
    eight = bench_ab.compare(base, [6.0, 7.0] * 4 + [14.0, 14.0], "lower", 0.2)
    assert (eight["verdict"], eight["head_wins"]) == ("unresolved", 8)
    noisy = bench_ab.compare([10.0, 20.0] * 5, [14.0, 15.0] * 5, "lower", 0.2)
    assert noisy["verdict"] == "unresolved"


def test_a_regression_is_judged_by_the_bound_not_the_verdict():
    base = [100.0, 100.1] * 5
    small = bench_ab.compare(base, [100.3, 100.4] * 5, "lower", 0.2)
    assert (small["verdict"], small["head_wins"], small["worse_beyond_bound"]) == ("slower", 0,
                                                                                  False)
    large = bench_ab.compare(base, [125.0, 126.0] * 5, "lower", 0.2)
    assert (large["verdict"], large["worse_beyond_bound"]) == ("slower", True)
    # a metric where higher is better: a fall beyond the bound is the regression
    higher = bench_ab.compare(base, [70.0, 71.0] * 5, "higher", 0.2)
    assert (higher["verdict"], higher["worse_beyond_bound"]) == ("slower", True)


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_schema(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{data['label']}.json"
    assert re.fullmatch("[0-9a-f]{40}", data["base_sha"])
    assert re.fullmatch("[0-9a-f]{40}", data["head_sha"])
    assert data["command"] == " ".join(bench_ab.RUN)
    assert {"python", "numpy", "blas", "cpu_model", "nproc"} <= set(data["env"])
    assert sorted(data["workloads"]) == sorted(w["name"] for w in bench["workloads"])
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    for workload in data["workloads"].values():
        n = len(workload["seeds"])
        assert n == data["pairs"] == bench_ab.PAIRS
        assert sorted(workload["first"]) == ["base"] * (n // 2) + ["head"] * (n // 2)
        assert set(workload["failed"]) == set(workload["attempted"]) == {"base", "head"}
        assert set(workload["metrics"]) == set(end_to_end)
        for name, m in workload["metrics"].items():
            assert len(m["base"]) == len(m["head"]) == m["pairs"] == n
            assert m["bound"] == end_to_end[name]["bound"]
            assert m["better"] == end_to_end[name]["better"]
            assert m == bench_ab.compare(m["base"], m["head"], m["better"], m["bound"])
