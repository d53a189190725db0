"""Command-line interface.

Exit codes: 0 success (refuted claims are still successful runs), 1 invalid
input, 2 scope too large, 3 internal invariant breach (a witness failed
re-validation).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# only the layers of ``generate`` and ``enumerate`` load with the CLI; the
# other subcommands import theirs when they run
from .enumeration import enumerate_topologies, enumerate_topologies_up_to_homeo
from .errors import (BadParams, InternalCheckError, NotATopology, ScopeTooLarge,
                     TopolabError)
from .space import generate, space_from_json, subset_of_points

# input files are read up to this size; the largest valid input, a map of
# discrete(16) onto itself, is about 2.8 MB of compact JSON
MAX_INPUT_BYTES = 64 << 20

# verifier.CLAIM_IDS, spelled out so that building the parser loads no
# verifier; tests/test_cli.py pins the two equal
_CLAIM_IDS = ("T3_2_ab", "T3_2_ba", "P3_3", "T3_4a", "T3_4b", "T3_5_fwd",
              "T3_5_bwd", "P3_6", "T3_8a", "T3_8b", "T3_9a", "T3_9b", "T3_10",
              "P3_11", "P3_12_ab", "P3_12_bc", "P3_12_ca")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for ScopeTooLarge here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topolab",
                     description="finite topological space laboratory")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="emit a named space as JSON")
    p.add_argument("name", help="generator name, e.g. discrete or sierpinski")
    p.add_argument("params", nargs="*", type=int, help="integer parameters")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")

    p = sub.add_parser("classify", help="class flags for one subset")
    p.add_argument("-s", "--space", required=True, help="path to a space JSON file")
    p.add_argument("-A", "--subset", required=True,
                   help='comma-separated 0-based points; "" is the empty set')

    p = sub.add_parser("axioms", help="separation axiom report for a space")
    p.add_argument("-s", "--space", required=True, help="path to a space JSON file")

    p = sub.add_parser("check-map", help="property flags for a map")
    p.add_argument("-m", "--map", required=True, help="path to a map JSON file")

    p = sub.add_parser("enumerate", help="stream all topologies on n points")
    p.add_argument("-n", "--points", required=True, type=int)
    p.add_argument("--upto-homeo", action="store_true",
                   help="one representative per homeomorphism class")

    p = sub.add_parser("verify", help="sweep theorem claims over a bounded scope")
    p.add_argument("--claim", action="append", choices=_CLAIM_IDS,
                   metavar="CLAIM", help="claim id (repeatable; default: all); "
                   "one of " + ", ".join(_CLAIM_IDS))
    p.add_argument("--max-points", type=int, default=None,
                   help="scope bound for every selected claim (default: 4 for "
                   "space-quantified claims, 3 for map-quantified ones)")
    p.add_argument("--witness-limit", type=int, default=5,
                   help="witnesses kept per claim (default 5)")
    p.add_argument("--all-witnesses", action="store_true",
                   help="keep every failing instance as a witness")
    p.add_argument("--json", dest="json_path", metavar="FILE",
                   help="also write structured reports to FILE")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per CPU (default 1)")

    return parser


def _parse_subset(text: str, n: int) -> int:
    text = text.strip()
    if not text:
        return 0
    try:
        points = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise BadParams(f"subset {text!r} is not a comma-separated point list") from None
    return subset_of_points(points, n)


def _read(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_INPUT_BYTES + 1)
        if len(data) > MAX_INPUT_BYTES:
            raise BadParams(f"cannot read {path}: larger than {MAX_INPUT_BYTES} bytes")
        return data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise BadParams(f"cannot read {path}: {exc}") from None


def _emit(text: str, path=None) -> None:
    if not path:
        print(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise BadParams(f"cannot write {path}: {exc}") from None


def _cmd_generate(args) -> int:
    space = generate(args.name, *args.params)
    _emit(space.to_json(), args.output)
    return 0


def _cmd_classify(args) -> int:
    from .classes import classify_subset

    space = space_from_json(_read(args.space))
    subset = _parse_subset(args.subset, space.n)
    report = classify_subset(space, subset)
    print(json.dumps(report.to_record(), separators=(",", ":")))
    return 0


def _cmd_axioms(args) -> int:
    from .axioms import axiom_report

    space = space_from_json(_read(args.space))
    print(json.dumps(axiom_report(space).to_record(), separators=(",", ":")))
    return 0


def _cmd_check_map(args) -> int:
    from .maps import classify_map, map_from_json

    f = map_from_json(_read(args.map))
    print(json.dumps(classify_map(f).to_record(), separators=(",", ":")))
    return 0


def _cmd_enumerate(args) -> int:
    stream = (enumerate_topologies_up_to_homeo(args.points) if args.upto_homeo
              else enumerate_topologies(args.points))
    for space in stream:
        print(space.to_json())
    return 0


def _cmd_verify(args) -> int:
    # every verifier name is read off the module when called, so a wrapper
    # put on it beforehand (perfbench's tracer) is what runs
    from . import verifier

    witness_limit = None if args.all_witnesses else args.witness_limit
    claims = tuple(dict.fromkeys(args.claim)) if args.claim else _CLAIM_IDS
    scopes = {}
    for claim_id in claims:
        bound = (args.max_points if args.max_points is not None
                 else verifier.default_scope(claim_id).max_points)
        scopes[claim_id] = verifier.Scope(bound, witness_limit=witness_limit)
    by_claim = verifier._verify_claims(scopes, args.jobs)
    reports = [by_claim[c] for c in claims]
    print(f"note: {verifier.SCOPE_NOTE}")
    header = (f"{'CLAIM':<10} {'OUTCOME':<15} {'N<=':>3} {'INSTANCES':>12} "
              f"{'FAILURES':>10} {'WITNESSES':>9} {'TIME':>9}")
    print(header)
    for r in reports:
        print(f"{r.claim:<10} {r.outcome:<15} {r.scope.max_points:>3} "
              f"{r.instances:>12} {r.failures:>10} {len(r.witnesses):>9} "
              f"{r.wall_time:>8.3f}s")
    for r in reports:
        if r.outcome == "refuted":
            shown = r.witnesses[:3]
            print(f"{r.claim}: first witness"
                  + ("es" if len(shown) > 1 else "")
                  + f" ({len(r.witnesses)} kept):")
            for w in shown:
                print("  " + json.dumps(w.to_record(), separators=(",", ":")))
    if args.json_path:
        _emit(verifier.reports_to_json(reports), args.json_path)
    for r in reports:
        if r.witnesses and not verifier.validate_witness(r):
            raise InternalCheckError(
                f"claim {r.claim}: a witness failed round-trip re-validation")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    handlers = {
        "generate": _cmd_generate,
        "classify": _cmd_classify,
        "axioms": _cmd_axioms,
        "check-map": _cmd_check_map,
        "enumerate": _cmd_enumerate,
        "verify": _cmd_verify,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush
        # at interpreter exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ScopeTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (NotATopology, BadParams, TopolabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
