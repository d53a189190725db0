"""Child process of the benchmark: the query session, and traced CLI runs.

    python perfbench/child.py [--trace SPANS] queries INPUTS RESULTS
    python perfbench/child.py --trace SPANS cli ARG...

``queries`` reads the generated inputs, runs every query against the
library and writes answers and per-query latencies to RESULTS.  ``cli``
runs ``topolab.cli.main(ARG...)`` in this process.  With ``--trace`` the
layer wrappers are installed first and the spans are written to SPANS when
the work ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import uuid

from common import opens_digest
from tracer import Tracer


def run_session(inputs: dict) -> dict:
    """Answer every query.  Entry points are looked up as module attributes
    on each call, so a traced run sees the wrapped functions."""
    from topolab import axioms, classes, maps, space

    clock = time.perf_counter
    latency, errors = [], []
    built, out_maps = [], []

    def timed(fn, *args):
        start = clock()
        try:
            return fn(*args)
        except Exception as exc:    # a failed query is counted, not fatal
            errors.append(repr(exc))
            return None
        finally:
            latency.append(clock() - start)

    started = clock()
    answered = []
    for item in inputs["spaces"]:
        sp = timed(space.space_from_json, item["json"])
        built.append(sp)
        if sp is None:
            answered.append(None)
            continue
        report = timed(axioms.axiom_report, sp)
        flags = []
        for a in item["subsets"]:
            r = timed(classes.classify_subset, sp, a)
            if r is not None:
                flags.append([a, [r.open, r.closed, r.clopen]])
        answered.append((sp, report, flags))
    for i, j, assignment in inputs["maps"]:
        if built[i] is None or built[j] is None:
            out_maps.append(None)
            continue
        f = maps.SpaceMap(built[i], built[j], tuple(assignment))
        m = timed(maps.classify_map, f)
        out_maps.append(None if m is None else [m.continuous, m.surjective, m.bijective])
    loop_s = clock() - started
    out_spaces = [None if a is None else {
        "n": a[0].n, "digest": opens_digest(a[0].opens),
        "T0": None if a[1] is None else a[1].T0,
        "T1": None if a[1] is None else a[1].T1,
        "classes": a[2],
    } for a in answered]
    return {"latency_s": latency, "loop_s": loop_s, "errors": errors,
            "spaces": out_spaces, "maps": out_maps}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--trace", metavar="SPANS")
    sub = parser.add_subparsers(dest="mode", required=True)
    q = sub.add_parser("queries")
    q.add_argument("inputs")
    q.add_argument("results")
    c = sub.add_parser("cli")
    c.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer(uuid.uuid4().hex)
        tracer.install()
    try:
        if args.mode == "queries":
            with open(args.inputs, encoding="utf-8") as fh:
                inputs = json.load(fh)
            results = run_session(inputs)
            with open(args.results, "w", encoding="utf-8") as fh:
                json.dump(results, fh)
            code = 0
        else:
            import topolab.cli
            code = topolab.cli.main(args.args)
    finally:
        if tracer is not None:
            tracer.write(args.trace)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
