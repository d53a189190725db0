import importlib.util
import itertools
import random
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import topolab as T
from topolab import _kernels, verifier
from topolab._kernels import pure

SPEEDUPS_C = Path(_kernels.__file__).with_name("_speedups.c")


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The tracked ``_speedups.c``, compiled into a temp dir and loaded.

    The shared object never goes under ``src/``: the package would then
    pick the compiled backend on import."""
    cc = (shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0])
          or shutil.which("cc"))
    include = sysconfig.get_paths()["include"]
    if cc is None or not Path(include, "Python.h").exists():
        pytest.skip("no C compiler or Python headers to build the compiled backend")
    out = tmp_path_factory.mktemp("speedups") / (
        "_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    build = subprocess.run(
        [cc, "-O2", "-shared", "-fPIC", "-I", include,
         str(SPEEDUPS_C), "-o", str(out)],
        capture_output=True, text=True, timeout=600)
    assert build.returncode == 0, build.stderr
    spec = importlib.util.spec_from_file_location("_speedups", out)
    module = importlib.util.module_from_spec(spec)
    name = "topolab._kernels._speedups"
    package_copy = sys.modules.get(name)
    spec.loader.exec_module(module)
    # Cython also registers the module under its dotted name; undo that so
    # the package still imports its own backend, if it has one
    if package_copy is None:
        sys.modules.pop(name, None)
    else:
        sys.modules[name] = package_copy
    return module


@pytest.fixture
def installed():
    """The compiled backend as the package itself would import it."""
    return pytest.importorskip(
        "topolab._kernels._speedups",
        reason="compiled backend not built into the package")


def opens_of(fm, n):
    return tuple(a for a in range(1 << n) if fm >> a & 1)


def all_spaces(max_n):
    return [(n, opens_of(fm, n))
            for n in range(max_n + 1) for fm in pure.enumerate_masks(n)]


def test_enumerate_masks_agree(compiled):
    for n in range(6):
        assert pure.enumerate_masks(n) == compiled.enumerate_masks(n)


def test_space_pack_and_class_masks_agree(compiled):
    for n, opens in all_spaces(4):
        assert pure.space_pack(n, opens) == compiled.space_pack(n, opens)
        assert pure.class_masks(n, opens) == compiled.class_masks(n, opens)


def test_map_masks_agree(compiled):
    def side(n, opens):
        cm = pure.class_masks(n, opens)
        return cm[0], cm[1], cm[13], cm[14]

    spaces = all_spaces(3)
    for (nx, ox), (ny, oy) in itertools.product(spaces, repeat=2):
        got_p = pure.map_masks(nx, *side(nx, ox), ny, *side(ny, oy))
        got_c = compiled.map_masks(nx, *side(nx, ox), ny, *side(ny, oy))
        assert got_p == got_c, (nx, ox, ny, oy)


def test_composition_failures_agree(compiled):
    rng = random.Random(20240817)
    for _ in range(250):
        nx, ny, nz = (rng.randint(0, 3) for _ in range(3))
        nf = 0 if (nx and not ny) else ny ** nx
        ng = 0 if (ny and not nz) else nz ** ny
        f_idx = sorted(rng.sample(range(nf), k=rng.randint(0, nf))) if nf else []
        g_idx = sorted(rng.sample(range(ng), k=rng.randint(0, ng))) if ng else []
        if f_idx and g_idx and nx and not nz:
            continue
        ncomp = nz ** nx
        target = rng.getrandbits(ncomp) if ncomp else 0
        limit = rng.choice([-1, 0, 1, 4])
        assert (pure.composition_failures(nx, ny, nz, f_idx, g_idx, target, limit)
                == compiled.composition_failures(nx, ny, nz, f_idx, g_idx,
                                                 target, limit))


def _function_lines(pyx_lines):
    """Every function header and body line of the ``.pyx``, less blank
    lines, ``cdef`` declarations and docstrings."""
    out, in_function, in_doc = [], False, False
    for line in pyx_lines:
        stripped = line.strip()
        if line and not line[0].isspace():
            in_function = line.startswith(("def ", "cdef ")) and "(" in line
            if in_function:
                out.append(line)
            continue
        if not in_function or not stripped:
            continue
        if stripped.startswith('"""') or in_doc:
            closes = stripped.endswith('"""') and (in_doc or len(stripped) > 3)
            in_doc = not closes
            continue
        if not stripped.startswith("cdef "):
            out.append(line)
    return out


def test_generated_c_matches_pyx():
    # Cython echoes the source lines it compiled as " * line" comments: a
    # .pyx edited without regenerating the .c fails here
    echoed = set()
    for line in SPEEDUPS_C.read_text().splitlines():
        if line.startswith(" * "):
            echoed.add(re.sub(r"\s*# <{14}$", "", line[3:]).rstrip())
    pyx = SPEEDUPS_C.with_name("_speedups.pyx").read_text().splitlines()
    checked = _function_lines(pyx)
    missing = [line for line in checked if line.rstrip() not in echoed]
    assert len(checked) > 300 and not missing, missing


def test_tuple_orders_exported_once():
    assert _kernels.CLASS_ORDER is pure.CLASS_ORDER
    assert _kernels.MAP_PROP_ORDER is pure.MAP_PROP_ORDER
    assert len(pure.CLASS_ORDER) == 15
    assert len(pure.MAP_PROP_ORDER) == 11


KERNELS = ("space_pack", "class_masks", "map_masks", "enumerate_masks",
           "composition_failures")


def _use_backend(monkeypatch, module):
    """Route the package's kernel calls to ``module`` for one test.  The
    composition memo is cleared first, so that the sweep rebuilds it with
    the chosen kernels."""
    for name in KERNELS:
        monkeypatch.setattr(_kernels, name, getattr(module, name))
    verifier._middle_memo.cache_clear()


@pytest.mark.usefixtures("installed")
def test_backend_selection_env():
    out = subprocess.run(
        [sys.executable, "-c", "import topolab; print(topolab.BACKEND)"],
        capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "compiled", out.stderr


def test_pure_backend_runs_the_full_pipeline(monkeypatch):
    # spot-check one refutation end to end on the pure kernels
    _use_backend(monkeypatch, pure)
    r = T.verify("T3_2_ab", verifier.Scope(max_points=2))
    assert (r.outcome, r.failures, r.witnesses[0].spaces[0].opens) == \
        ("refuted", 2, (0, 1, 3))


def test_parallel_sweep_identical_across_backends(compiled, monkeypatch):
    # forked workers inherit the patched kernels, so --jobs 2 runs them too
    scope = verifier.Scope(max_points=2)
    _use_backend(monkeypatch, pure)
    expect = [r.to_record() for r in T.verify_all(scope)]
    _use_backend(monkeypatch, compiled)
    for jobs in (1, 2):
        assert [r.to_record() for r in T.verify_all(scope, jobs=jobs)] == expect, jobs
