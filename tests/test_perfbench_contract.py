"""What the benchmark in ``perfbench/`` reads from topolab stays readable.

The benchmark's set-up prints ``topolab.BACKEND``; its tracer replaces the
functions it names by module attribute, reads the pair-mask cache's
``cache_info()``, and writes a trace that ends in a counter line.  A rename
or a change to how modules load would break every traced run without
failing anything else in this suite.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import topolab

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_backend_is_printed_by_the_set_up():
    assert topolab.BACKEND == "pure"


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _ in tracer.SPANNED + tracer.DRAINED + tracer.COUNTED])
def test_every_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_pair_cache_figures_are_readable():
    assert set(tracer.Tracer("contract").pair_cache()) == {"hits", "misses"}


def _traced_cli(spans, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--trace", str(spans), "cli", *args],
        capture_output=True, text=True, timeout=120, env=env)


def test_traced_cli_run_writes_its_counter_line(tmp_path):
    spans = tmp_path / "spans.jsonl"
    out = _traced_cli(spans, "enumerate", "-n", "3", "--upto-homeo")
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.splitlines()) == 9     # A001930: classes on 3 points
    _, recorded, _, pair_cache = tracer.read_trace(spans)
    assert {s["name"] for s in recorded} >= {
        "cli.main", "enumeration.enumerate_topologies_up_to_homeo"}
    assert set(pair_cache) == {"hits", "misses"}


def test_traced_verify_runs_the_wrapped_verifier(tmp_path):
    # the CLI imports the verifier only when ``verify`` runs; the module it
    # gets must be the one whose names the tracer replaced: the witness of
    # T3_2_ab is re-checked through the wrapped evaluate_instance
    spans = tmp_path / "spans.jsonl"
    out = _traced_cli(spans, "verify", "--max-points", "2", "--claim", "T3_2_ab",
                      "--jobs", "1")
    assert out.returncode == 0, out.stderr
    _, recorded, _, _ = tracer.read_trace(spans)
    assert {s["name"] for s in recorded} >= {"cli.main", "verifier.evaluate_instance"}
