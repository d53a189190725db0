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


def test_traced_cli_run_writes_its_counter_line(tmp_path):
    spans = tmp_path / "spans.jsonl"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--trace", str(spans),
         "cli", "enumerate", "-n", "3", "--upto-homeo"],
        capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.splitlines()) == 9     # A001930: classes on 3 points
    _, recorded, _, pair_cache = tracer.read_trace(spans)
    assert {s["name"] for s in recorded} >= {
        "cli.main", "enumeration.enumerate_topologies_up_to_homeo"}
    assert set(pair_cache) == {"hits", "misses"}
