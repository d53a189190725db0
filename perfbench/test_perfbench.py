"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The traced-count test runs pairs-n4 twice under the tracer and takes a few
minutes on the pure-Python backend.
"""

from __future__ import annotations

import json
import shutil
import sys

import pytest

import common
import run as bench
from common import (OUT, SRC, WORKLOADS, check_queries, check_report,
                    make_queries, query_count)
from tracer import layer_metrics, read_trace

sys.path.insert(0, str(SRC))


@pytest.fixture
def workdir(tmp_path_factory):
    path = OUT / f"test-{tmp_path_factory.getbasetemp().name}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_generator_is_deterministic():
    assert make_queries(7) == make_queries(7)
    assert make_queries(7)["inputs"] != make_queries(8)["inputs"]


def test_generator_covers_both_answers():
    expect = make_queries(3)["expect"]
    for flag in ("T0", "T1"):
        assert {s[flag] for s in expect["spaces"]} == {True, False}
    for i in range(3):
        assert {m[i] for m in expect["maps"]} == {True, False}


def test_session_answers_check_and_tampering_counts():
    from child import run_session

    generated = make_queries(11)
    inputs = json.loads(json.dumps(generated["inputs"]))
    results = run_session(inputs)
    assert len(results["latency_s"]) == query_count(inputs)
    assert check_queries(generated["expect"], results) == 0

    tampered = json.loads(json.dumps(results))
    tampered["spaces"][0]["T0"] = not tampered["spaces"][0]["T0"]
    tampered["spaces"][5]["classes"][1][1][0] ^= True
    tampered["maps"][2][0] = not tampered["maps"][2][0]
    tampered["errors"].append("RuntimeError()")
    assert check_queries(generated["expect"], tampered) == 4


@pytest.mark.parametrize("name", ["catalogue", "pairs-n4", "homeo-n5"])
def test_reference_outputs_pass_and_tampered_ones_fail(name):
    workload = WORKLOADS[name]
    data = (common.REF / workload.ref).read_bytes()
    assert check_report(workload, data) == []
    assert check_report(workload, data.replace(b"0", b"1", 1)) != []


def test_tampered_reference_counts_a_real_run_as_failed(workdir, monkeypatch):
    ref = workdir / "ref"
    ref.mkdir()
    good = (common.REF / "catalogue.json").read_bytes()
    (ref / "catalogue.json").write_bytes(good.replace(b'"failures":2554', b'"failures":2555'))
    monkeypatch.setattr(common, "REF", ref)
    run = bench.Run(workdir)
    bench.run_cli_once(run, WORKLOADS["catalogue"])
    assert (run.attempted, run.failed) == (1, 1)


def test_child_environment_is_hermetic(monkeypatch):
    monkeypatch.setenv("TOPOLAB_JOBS", "2")
    monkeypatch.setenv("TOPOLAB_BACKEND", "compiled")
    env = common.child_env()
    assert "TOPOLAB_JOBS" not in env and "TOPOLAB_BACKEND" not in env
    assert env["PYTHONPATH"] == str(SRC)
    for workload in WORKLOADS.values():
        if workload.argv[:1] == ("verify",):
            assert "--jobs" in workload.argv


PINNED = {
    "pairs-n4": {"kernels.map_masks.calls": 21840, "verifier.pair_cache.misses": 21840,
                 "verifier.pair_cache.hits": 65520},
    "catalogue": {"kernels.map_masks.calls": 1225,
                  "kernels.composition_failures.calls": 33390},
    "homeo-n5": {"enumeration.relabel.calls": 833040},
}


def _traced_counts(workload, workdir):
    run = bench.Run(workdir)
    spans = workdir / "spans.jsonl"
    bench.run_cli_once(run, workload, spans)
    assert run.failed == 0, run.problems
    _, span_list, counts, cache = read_trace(spans)
    metrics = layer_metrics(span_list, counts, cache)
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_traced_counts_repeat_exactly(name, workdir):
    first = _traced_counts(WORKLOADS[name], workdir)
    second = _traced_counts(WORKLOADS[name], workdir)
    assert first == second
    for key, value in PINNED[name].items():
        assert first[key] == value, key
