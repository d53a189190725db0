import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import topolab as T
from topolab.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------------ generate

def test_generate_exact_bytes(capsys):
    code, out, err = run_cli("generate", "sierpinski", capsys=capsys)
    assert code == 0 and err == ""
    assert out == '{"n":2,"opens":[[],[0],[0,1]]}\n'


def test_generate_with_params_and_output_file(tmp_path, capsys):
    target = tmp_path / "k.json"
    code, out, _ = run_cli("generate", "khalimsky_interval", "4",
                           "-o", str(target), capsys=capsys)
    assert code == 0
    assert json.loads(target.read_text()) == \
        {"n": 4, "opens": [[], [1], [3], [0, 1], [1, 3],
                           [0, 1, 3], [1, 2, 3], [0, 1, 2, 3]]}


def test_generate_unwritable_output(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run_cli("generate", "sierpinski", "-o", str(target),
                             capsys=capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write") and "Traceback" not in err


def test_generate_unknown_name(capsys):
    code, out, err = run_cli("generate", "moebius", capsys=capsys)
    assert code == 1 and "moebius" in err


def test_generate_bad_arity(capsys):
    code, _, err = run_cli("generate", "discrete", capsys=capsys)
    assert code == 1
    code, _, err = run_cli("generate", "discrete", "2", "3", capsys=capsys)
    assert code == 1


# ------------------------------------------------------------------ classify

def test_classify(tmp_path, capsys):
    sp = tmp_path / "s.json"
    sp.write_text(T.sierpinski().to_json())
    code, out, _ = run_cli("classify", "-s", str(sp), "-A", "0", capsys=capsys)
    assert code == 0
    rec = json.loads(out)
    assert tuple(rec) == T.CLASS_IDS
    assert rec["open"] and not rec["alpha_m_closed"]


def test_classify_empty_subset(tmp_path, capsys):
    sp = tmp_path / "s.json"
    sp.write_text(T.sierpinski().to_json())
    code, out, _ = run_cli("classify", "-s", str(sp), "-A", "", capsys=capsys)
    assert code == 0
    assert all(json.loads(out)[k] for k in ("clopen", "alpha_m_closed"))


def test_classify_bad_subset(tmp_path, capsys):
    sp = tmp_path / "s.json"
    sp.write_text(T.sierpinski().to_json())
    for bad in ("2", "x", "0,,1", "-1"):
        code, _, err = run_cli("classify", "-s", str(sp), "-A", bad, capsys=capsys)
        assert code == 1, bad
        assert err


def test_classify_missing_file(capsys):
    code, _, err = run_cli("classify", "-s", "/nonexistent.json", "-A", "0",
                           capsys=capsys)
    assert code == 1 and err


def test_hostile_input_files(tmp_path, capsys):
    # binary, over-nested and over-long input is an input error, never a
    # traceback
    binary = tmp_path / "binary.json"
    binary.write_bytes(bytes(range(256)))
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000)
    digits = tmp_path / "digits.json"
    digits.write_text("1" * 5000)
    for path in (binary, nested, digits):
        for argv in (("axioms", "-s", str(path)), ("check-map", "-m", str(path))):
            code, out, err = run_cli(*argv, capsys=capsys)
            assert code == 1 and not out, argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
    # an endless file is read up to a bound, not until memory runs out
    if os.path.exists("/dev/zero"):
        done = subprocess.run([sys.executable, "-m", "topolab", "axioms", "-s", "/dev/zero"],
                              capture_output=True, env=_child_env(), timeout=60)
        assert done.returncode == 1 and not done.stdout
        err = done.stderr.decode()
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_classify_invalid_topology(tmp_path, capsys):
    sp = tmp_path / "bad.json"
    sp.write_text('{"n":2,"opens":[[],[0],[1]]}')
    code, _, err = run_cli("classify", "-s", str(sp), "-A", "0", capsys=capsys)
    assert code == 1 and "full set" in err


# ------------------------------------------------------------------ axioms

def test_axioms_report(tmp_path, capsys):
    sp = tmp_path / "s.json"
    sp.write_text(T.sierpinski().to_json())
    code, out, _ = run_cli("axioms", "-s", str(sp), capsys=capsys)
    assert code == 0
    rec = json.loads(out)
    assert (rec["T0"], rec["T1"], rec["T_half"], rec["T_alpha_m"],
            rec["singleton_dichotomy"]) == (True, False, True, True, False)
    assert rec["witnesses"]["singleton_dichotomy"] == [0]


# ------------------------------------------------------------------ check-map

def test_check_map(tmp_path, capsys):
    mp = tmp_path / "m.json"
    mp.write_text(T.SpaceMap(T.discrete(1), T.indiscrete(2), (0,)).to_json())
    code, out, _ = run_cli("check-map", "-m", str(mp), capsys=capsys)
    assert code == 0
    rec = json.loads(out)
    assert tuple(rec) == T.MAP_PROPERTY_IDS
    assert rec["alpha_m_closed_map"] and not rec["closed_map"]


def test_check_map_mismatched_assignment(tmp_path, capsys):
    mp = tmp_path / "m.json"
    mp.write_text('{"domain":{"n":1,"opens":[[],[0]]},'
                  '"codomain":{"n":2,"opens":[[],[0,1]]},"assignment":[2]}')
    code, _, err = run_cli("check-map", "-m", str(mp), capsys=capsys)
    assert code == 1 and err


# ------------------------------------------------------------------ enumerate

def test_enumerate_stream(capsys):
    code, out, _ = run_cli("enumerate", "-n", "2", capsys=capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines == ['{"n":2,"opens":[[],[0],[1],[0,1]]}',
                     '{"n":2,"opens":[[],[0],[0,1]]}',
                     '{"n":2,"opens":[[],[1],[0,1]]}',
                     '{"n":2,"opens":[[],[0,1]]}']
    for line in lines:
        T.space_from_json(line)


def test_enumerate_upto_homeo(capsys):
    code, out, _ = run_cli("enumerate", "-n", "3", "--upto-homeo", capsys=capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 9


def test_enumerate_too_large(capsys):
    code, _, err = run_cli("enumerate", "-n", "6", capsys=capsys)
    assert code == 2 and "capped" in err


# ------------------------------------------------------------------ verify

def test_verify_single_claim(tmp_path, capsys):
    out_json = tmp_path / "r.json"
    code, out, _ = run_cli("verify", "--claim", "T3_2_ab", "--max-points", "2",
                           "--json", str(out_json), capsys=capsys)
    assert code == 0
    assert "refuted" in out and "T3_2_ab" in out
    payload = json.loads(out_json.read_text())
    assert payload["reports"][0]["outcome"] == "refuted"
    assert payload["reports"][0]["witnesses"][0]["spaces"][0] == \
        {"n": 2, "opens": [[], [0], [0, 1]]}


def test_verify_unwritable_json(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "r.json"
    code, _, err = run_cli("verify", "--claim", "T3_2_ab", "--max-points", "2",
                           "--json", str(target), capsys=capsys)
    assert code == 1
    assert err.startswith("error: cannot write") and "Traceback" not in err


def test_verify_scoreboard_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1, out1, _ = run_cli("verify", "--max-points", "2", "--json", str(a),
                             capsys=capsys)
    code2, out2, _ = run_cli("verify", "--max-points", "2", "--json", str(b),
                             capsys=capsys)
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    # human tables agree except wall-clock columns
    strip = lambda s: [l.rsplit(None, 1)[0] for l in s.splitlines() if l]
    assert strip(out1) == strip(out2)
    payload = json.loads(a.read_text())
    assert len(payload["reports"]) == 17
    assert [r["claim"] for r in payload["reports"]] == list(T.CLAIM_IDS)


def test_verify_parallel_matches_serial(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("verify", "--claim", "T3_9b", "--max-points", "3",
            "--json", str(a), capsys=capsys)
    run_cli("verify", "--claim", "T3_9b", "--max-points", "3", "--jobs", "2",
            "--json", str(b), capsys=capsys)
    assert a.read_bytes() == b.read_bytes()


# the benchmark's reference outputs, which every change must reproduce
# byte for byte; read here, never written
REFERENCE_RUNS = {
    "catalogue-j1": (("verify", "--jobs", "1"), "catalogue.json"),
    "catalogue-j2": (("verify", "--jobs", "2"), "catalogue.json"),
    "pairs-n4": (("verify", "--jobs", "1", "--max-points", "4", "--claim", "P3_3",
                  "--claim", "T3_4b", "--claim", "T3_9b", "--claim", "T3_10"),
                 "pairs-n4.json"),
    "homeo-n5": (("enumerate", "-n", "5", "--upto-homeo"), "homeo-n5.txt"),
    # reports too large to keep as files are pinned by their sha256 digest
    "all-witnesses-j1": (("verify", "--jobs", "1", "--max-points", "3", "--all-witnesses"),
                         "sha256:1008fce944debeb13acf2be9f93036447bbe05c6d9bda856d77058fe5f5c875a"),
    "all-witnesses-j2": (("verify", "--jobs", "2", "--max-points", "3", "--all-witnesses"),
                         "sha256:1008fce944debeb13acf2be9f93036447bbe05c6d9bda856d77058fe5f5c875a"),
    "witness-limit-j2": (("verify", "--jobs", "2", "--max-points", "2", "--witness-limit", "1"),
                         "sha256:2db71a2800c9371d3814d62429c4b3bf5bf8370e12c08d4ebfa365fe1f7c03a6"),
    # the labeled streams, as the sort by opens tuples printed them
    **{f"labeled-n{k}": (("enumerate", "-n", str(k)), "sha256:" + digest) for k, digest in (
        (0, "24ca00ef79b4c5d1d6cda5708744ad7b4f5cd214d9dac0a8af6dfe9bc53515b8"),
        (1, "8b01405c9d5736f0944eb799dbd58e8e3647419d2e56754e6759d0b6762d22e3"),
        (2, "381c6e1ecd2fe3bbdf12e92f3074808c1d96481b0d74bad3f29cbd37e34557d2"),
        (3, "129524ae67d6d1a6b2b0ad1191575ee9c8e6927a5a7ce66a1e1a20ca5c718518"),
        (4, "87807d7cfb73bf9af6064f9ca5c37f71708f22cdc3b1eec93153ae03df183b03"),
        (5, "14ad6364d1b36e59f41c15e38159cfe1ff247c1fdd758111455d1b61ae5d237d"))},
}


@pytest.mark.parametrize("run", REFERENCE_RUNS)
def test_outputs_match_the_reference_files(run, tmp_path, capsys):
    # a verify run is compared by its --json report, anything else by stdout
    argv, ref = REFERENCE_RUNS[run]
    if argv[0] == "verify":
        report = tmp_path / "report.json"
        code, _, err = run_cli(*argv, "--json", str(report), capsys=capsys)
        got = report.read_bytes()
    else:
        code, out, err = run_cli(*argv, capsys=capsys)
        got = out.encode()
    assert (code, err) == (0, "")
    if ref.startswith("sha256:"):
        assert "sha256:" + hashlib.sha256(got).hexdigest() == ref
    else:
        assert got == (ROOT / "perfbench" / "ref" / ref).read_bytes()


def test_verify_witness_limit_flags(tmp_path, capsys):
    out_json = tmp_path / "r.json"
    run_cli("verify", "--claim", "T3_2_ab", "--max-points", "3",
            "--witness-limit", "2", "--json", str(out_json), capsys=capsys)
    assert len(json.loads(out_json.read_text())["reports"][0]["witnesses"]) == 2
    run_cli("verify", "--claim", "T3_2_ab", "--max-points", "3",
            "--all-witnesses", "--json", str(out_json), capsys=capsys)
    rep = json.loads(out_json.read_text())["reports"][0]
    assert len(rep["witnesses"]) == rep["failures"] == 11


def test_verify_note_line(capsys):
    code, out, _ = run_cli("verify", "--claim", "T3_2_ab", "--max-points", "2",
                           capsys=capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("note:")
    assert "not a proof" in out


def test_verify_jobs_from_environment(monkeypatch, capsys):
    # --jobs is the one worker-count setting: the environment is not read
    monkeypatch.setenv("TOPOLAB_JOBS", "abc")
    argv = ("verify", "--claim", "T3_2_ab", "--max-points", "1")
    code, _, _ = run_cli(*argv, capsys=capsys)
    assert code == 0
    code, _, _ = run_cli(*argv, "--jobs", "1", capsys=capsys)
    assert code == 0
    for jobs in ("0", "-2"):
        code, _, err = run_cli(*argv, "--jobs", jobs, capsys=capsys)
        assert code == 1 and "jobs" in err, jobs


def test_verify_scope_too_large(capsys):
    code, _, err = run_cli("verify", "--max-points", "6", capsys=capsys)
    assert code == 2


def test_verify_unknown_claim(capsys):
    code, _, err = run_cli("verify", "--claim", "X", capsys=capsys)
    assert code == 1 and "invalid choice" in err


def test_verify_has_no_map_cap(capsys):
    # every sweep covers every map; there is no flag to cut it short
    code, out, err = run_cli("verify", "--map-cap", "2", capsys=capsys)
    assert code == 1 and out == ""
    assert err.startswith("usage:") and "--map-cap" in err and "Traceback" not in err


def test_unknown_subcommand(capsys):
    code, _, err = run_cli("frobnicate", capsys=capsys)
    assert code == 1 and err


def test_no_args_shows_usage(capsys):
    code, _, err = run_cli(capsys=capsys)
    assert code == 1 and "usage" in err.lower()


# ------------------------------------------------------------------ entry point

# What a console-script wrapper does (PyPA entry-points specification): load
# the declared object, call it with no arguments, exit with its return value.
# argv[1] is the declared "module:attr"; the rest is the script's argv.
_CONSOLE_SCRIPT = """\
import sys
from importlib.metadata import EntryPoint
spec, sys.argv = sys.argv[1], ["topolab"] + sys.argv[2:]
sys.exit(EntryPoint("topolab", spec, "console_scripts").load()())
"""


def _child_env() -> dict:
    # the child imports topolab from this checkout's src, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def test_console_script_and_module_entry():
    out = subprocess.run([sys.executable, "-m", "topolab", "generate",
                          "sierpinski"], capture_output=True, text=True,
                         timeout=60, env=_child_env())
    assert out.returncode == 0
    assert out.stdout == '{"n":2,"opens":[[],[0],[0,1]]}\n'

    # A checkout run from PYTHONPATH has no installed script, so the
    # declaration in pyproject.toml is run the way the installed wrapper
    # would run it; an installed script, where there is one, runs as well.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["topolab"]
    commands = [[sys.executable, "-c", _CONSOLE_SCRIPT, spec]]
    if shutil.which("topolab"):
        commands.append(["topolab"])
    for command in commands:
        out = subprocess.run(command + ["enumerate", "-n", "1"],
                             capture_output=True, text=True, timeout=60,
                             env=_child_env())
        assert out.returncode == 0
        assert out.stdout == '{"n":1,"opens":[[],[0]]}\n'


def test_import_loads_no_process_pool():
    # a serial run never starts a pool, so importing the library or the CLI
    # leaves the pool's modules unloaded
    code = ("import sys, topolab, topolab.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env=_child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


_ENUMERATION_CHAIN = ["topolab", "topolab._kernels", "topolab.enumeration",
                      "topolab.errors", "topolab.space"]
_LIBRARY = ["topolab", "topolab.axioms", "topolab.classes", "topolab.errors",
            "topolab.maps", "topolab.space"]
_EVERY_MODULE = sorted({*_ENUMERATION_CHAIN, *_LIBRARY, "topolab.cli",
                        "topolab.verifier"})


@pytest.mark.parametrize("code, loaded", [
    ("import topolab", ["topolab"]),
    ("import topolab; topolab.spaces_up_to(4); topolab.BACKEND", _ENUMERATION_CHAIN),
    ("from topolab import axioms, classes, maps, space", _LIBRARY),
    ("import topolab.cli; topolab.cli.main(['enumerate', '-n', '3', '--upto-homeo'])",
     sorted([*_ENUMERATION_CHAIN, "topolab.cli"])),
    ("import topolab.cli; topolab.cli.main(['generate', 'sierpinski', '-o', SPACE]);"
     " topolab.cli.main(['axioms', '-s', SPACE])",
     sorted({*_ENUMERATION_CHAIN, "topolab.axioms", "topolab.cli"})),
    ("import topolab.cli; topolab.cli.main(['verify', '--max-points', '1', '--jobs', '1'])",
     _EVERY_MODULE),
], ids=["package", "enumeration", "library", "cli-enumerate", "cli-axioms", "cli-verify"])
def test_entry_points_load_only_what_they_use(code, loaded, tmp_path):
    # exports load on first use, so each entry point loads exactly its own
    # layers; the CLI loads a subcommand's layers when it runs, so only the
    # verify subcommand loads the verifier.  No module builds its classes
    # with dataclasses, which would load inspect too.  ``-S`` keeps site's
    # preloads from hiding an import.
    check = (f"SPACE = {str(tmp_path / 'space.json')!r}\n{code}\nimport sys\n"
             "print([m for m in sorted(sys.modules) if m.split('.')[0] == 'topolab'],"
             " [m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", check], capture_output=True,
                         text=True, timeout=60, env=_child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == f"{loaded} []"


def test_claim_ids_are_the_verifiers():
    # the parser lists the claim ids without loading the verifier
    from topolab import cli, verifier
    assert cli._CLAIM_IDS == verifier.CLAIM_IDS


def test_verify_help_and_claim_choices_load_no_verifier():
    # ``--help`` lists every claim id, and a bad ``--claim`` is refused by
    # argparse, before any verifier code is loaded
    check = ("import sys, topolab.cli\n"
             "code = topolab.cli.main(sys.argv[1:])\n"
             "print(code, 'topolab.verifier' in sys.modules)")
    run = [sys.executable, "-S", "-c", check, "verify"]
    out = subprocess.run(run + ["--help"], capture_output=True, text=True,
                         timeout=60, env=_child_env())
    assert out.returncode == 0, out.stderr
    listed = " ".join(out.stdout.split()).replace(", ", ",")
    from topolab import verifier
    assert ",".join(verifier.CLAIM_IDS) in listed
    assert out.stdout.splitlines()[-1] == "0 False"
    out = subprocess.run(run + ["--claim", "BOGUS"], capture_output=True, text=True,
                         timeout=60, env=_child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "1 False"
    assert "invalid choice: 'BOGUS'" in out.stderr


def test_closed_stdout_exits_quietly():
    # a reader that stops early, like `topolab enumerate -n 5 | head -1`
    child = subprocess.Popen([sys.executable, "-m", "topolab", "enumerate", "-n", "5"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=_child_env())
    try:
        assert child.stdout.readline().startswith(b'{"n":5,')
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 1
    finally:
        child.kill()
        child.wait()
    assert "Traceback" not in err and not err.strip(), err


def test_round_trip_generate_classify(tmp_path, capsys):
    # every generated record feeds back into the other subcommands
    sp = tmp_path / "x.json"
    for name, params in (("sierpinski", ()), ("discrete", ("3",)),
                         ("khalimsky_interval", ("5",)),
                         ("particular_point", ("3", "1"))):
        code, out, _ = run_cli("generate", name, *params, "-o", str(sp),
                               capsys=capsys)
        assert code == 0
        code, out, _ = run_cli("axioms", "-s", str(sp), capsys=capsys)
        assert code == 0
        json.loads(out)
