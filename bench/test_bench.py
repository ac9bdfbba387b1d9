"""Checks of the benchmark itself.  Run explicitly — tier-1's
``testpaths`` does not collect this directory, because these tests boot
real servers and take a few minutes:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE_SECONDS = run.run_seconds() / 20.0


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke() -> dict:
    """One smoke pass over every workload, untraced and traced."""
    return run.run_all(run.DEFAULT_SEED, SMOKE_SECONDS)


def test_benchmark_json_registers_the_catalogue(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in benchmark_json["end_to_end"]] == list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark_json["per_layer"]] == list(spec.PER_LAYER)
    assert benchmark_json["paths"] == ["bench"]
    assert all(m["bound"] <= 0.25 for m in benchmark_json["end_to_end"])


def test_smoke_emits_every_registered_metric(smoke, benchmark_json):
    for name, entry in smoke["workloads"].items():
        assert entry["failed"] == 0, (name, entry["samples"])
        assert entry["ledger_failed"] == 0, name
        for metric in benchmark_json["end_to_end"]:
            value = entry["end_to_end"][metric["name"]]
            assert math.isfinite(value) and value != 0, (name, metric["name"])
        for metric in benchmark_json["per_layer"]:
            assert math.isfinite(entry["per_layer"][metric["name"]]), \
                (name, metric["name"])
        assert set(entry["per_layer"]) == {m[0] for m in spec.PER_LAYER}
        expected_detail = {m[0] for m in spec.DETAIL if name in m[4]}
        assert expected_detail <= set(entry["end_to_end"]), name


def test_cache_is_used_hot_and_bypassed_cold(smoke):
    layers = {name: entry["per_layer"]
              for name, entry in smoke["workloads"].items()}
    assert layers["serve_cold"]["serve.cache.hit_share"] == 0.0
    # 0.99 at full scale; a smoke run has 1/20 of the hits over the
    # same 32 warm-up misses.
    assert layers["serve_hot"]["serve.cache.hit_share"] > 0.9


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_sequence_is_a_function_of_the_seed(name):
    build = WORKLOADS[name].build
    assert build(11, 12.0).digest() == build(11, 12.0).digest()
    assert build(11, 12.0).digest() != build(12, 12.0).digest()


def test_exact_counts_repeat(smoke):
    """Counts the program makes repeat exactly for equal seeds: node
    accesses are only taken from answers computed with one reader
    active."""
    for name in WORKLOADS:
        again = run.run_one(name, run.DEFAULT_SEED, SMOKE_SECONDS, trace=False)
        assert again["metrics"]["node_accesses_per_nwc"] == \
            smoke["workloads"][name]["end_to_end"]["node_accesses_per_nwc"], \
            name
    for name in ("serve_hot", "serve_cold"):
        again = run.run_one(name, run.DEFAULT_SEED, SMOKE_SECONDS, trace=True)
        first = smoke["workloads"][name]["per_layer"]
        for metric in ("serve.cache.hit_share", "sub.reevals_per_update"):
            assert again["metrics"][metric] == first[metric], (name, metric)


def test_compare_flags_a_regression(tmp_path, smoke, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(smoke))
    worse = json.loads(json.dumps(smoke))
    worse["workloads"]["serve_cold"]["end_to_end"]["nwc_p50_ms"] *= 2.0
    b.write_text(json.dumps(worse))
    assert run.compare(str(a), str(a)) == 0
    assert run.compare(str(a), str(b)) == 1
    assert "OUT OF BOUNDS" in capsys.readouterr().out
