"""topolab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is the checkout's ``src``
imported through PYTHONPATH, so the backend is whatever that import picks
(the pure-Python one unless the extension was built in place).

With ``--trace 0`` the run repeats the workload's fixed unit of work in
fresh processes while one more unit, as fast as the fastest so far, would
still end within ``--seconds`` (at least once), and sets up ``SETUP_REPS``
times spread over the same time.  Each set-up and unit is timed from outside
its process.  Set-up time is the median over the set-ups.  The other timings
are means over the run's units: a shared host can slow a process by a third
or more for a minute at a time, and a mean over the whole run follows that
drift least.

With ``--trace 1`` it runs the unit once untraced and once with the layer
wrappers of ``tracer.py`` installed, and prints the per-layer metrics.
Every output is checked; the last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from common import (A000798, A001930, BENCH, OUT, SRC, WORKLOADS, check_counts,
                    check_queries, check_report, child_env, machine_record,
                    make_queries, query_count, report_instances)
from tracer import layer_metrics, layer_unit, read_trace

PY = sys.executable
CHILD = str(BENCH / "child.py")
SETUP_REPS = 11
RUN_BUDGET_S = 170.0    # every child is killed past this, well inside 180 s

# fresh interpreter to ready: import topolab, enumerate the workload's scope,
# print the backend and the labeled counts per point count
SETUP_CODE = """\
import sys, topolab
k = int(sys.argv[1])
counts = [0] * (k + 1)
for s in topolab.spaces_up_to(k) if k >= 0 else ():
    counts[s.n] += 1
print(topolab.BACKEND, *counts)
"""

HOMEO_COUNTS_CODE = """\
from topolab import enumerate_topologies_up_to_homeo as reps
print(*(len(list(reps(n))) for n in range(5)))
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s",
                    "op_p50_ms": "ms", "op_p99_ms": "ms", "peak_rss_mb": "MB"}


class Run:
    """Children, operation tally and problems of one benchmark run."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.backend = "unknown"

    def spawn(self, argv):
        """Run one child to completion; (wall_s, peak_rss_mb, exit code, stdout)."""
        out_path = self.workdir / "stdout"
        timeout = max(self.deadline - time.monotonic(), 0.0)
        with open(out_path, "wb") as out, open(self.workdir / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=SRC.parent, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:   # interrupted: end the child before leaving
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_bytes()

    def record(self, what, problems, ops=1, failed=None):
        self.attempted += ops
        if failed is None:
            failed = ops if problems else 0
        self.failed += failed
        self.problems.extend(f"{what}: {p}" for p in problems)


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _exit_problems(code, what="child"):
    return [] if code == 0 else [f"{what} exited with code {code}"]


# ------------------------------------------------------------------ set-up

def setup_once(run, workload):
    """One checked set-up; its wall time, or None if it failed."""
    wall, _, code, out = run.spawn([PY, "-c", SETUP_CODE, str(workload.scope)])
    fields = out.decode().split()
    problems = _exit_problems(code, "set-up")
    if not problems:
        run.backend = fields[0]
        problems = check_counts([int(c) for c in fields[1:]])
    run.record("set-up", problems)
    return None if problems else wall


def repeat(run, workload, seconds, unit):
    """Run ``unit()``, which returns ``(wall_s, result or None)``, while one
    more unit as fast as the fastest so far would end within ``seconds``, at
    least once, and set up ``SETUP_REPS`` times spread evenly over that time.

    Set-ups spread over the run meet the same drift of a shared host as the
    units, so their median follows it as the units' mean does.  Time spent
    setting up does not count toward ``seconds``.  Returns the median set-up
    time (None if no set-up passed) and the walls and results of the units
    that passed.
    """
    setups, walls, results = [], [], []
    tried, setup_time = 0, 0.0
    start = time.monotonic()

    def set_up():
        nonlocal tried, setup_time
        began = time.monotonic()
        wall = setup_once(run, workload)
        setup_time += time.monotonic() - began
        tried += 1
        if wall is not None:
            setups.append(wall)

    while True:
        elapsed = time.monotonic() - start - setup_time
        while tried < min(1 + (SETUP_REPS - 1) * elapsed / seconds, SETUP_REPS):
            set_up()
        wall, result = unit()
        if result is not None:
            walls.append(wall)
            results.append(result)
        if time.monotonic() + min(walls, default=0.0) >= start + setup_time + seconds:
            break
    while tried < SETUP_REPS:
        set_up()
    return (statistics.median(setups) if setups else None), walls, results


# --------------------------------------------------------------- CLI units

def cli_argv(workload, report_path, traced_spans=None):
    args = list(workload.argv)
    if workload.report == "json":
        args += ["--json", str(report_path)]
    if traced_spans is None:
        return [PY, "-m", "topolab", *args]
    return [PY, CHILD, "--trace", str(traced_spans), "cli", *args]


def run_cli_once(run, workload, traced_spans=None):
    """One checked invocation; (wall_s, rss_mb, work units), units 0 on failure."""
    report_path = run.workdir / "report.json"
    report_path.unlink(missing_ok=True)
    wall, rss, code, out = run.spawn(cli_argv(workload, report_path, traced_spans))
    problems = _exit_problems(code)
    units = 0
    if not problems:
        if workload.report == "json":
            data = report_path.read_bytes() if report_path.exists() else b""
        else:
            data = out
        problems = check_report(workload, data)
        if not problems:
            units = report_instances(data) if workload.report == "json" else A000798[5]
    run.record(workload.name, problems)
    return wall, rss, units


def measure_cli(run, workload, seconds):
    def unit():
        wall, rss, units = run_cli_once(run, workload)
        return wall, ((rss, units) if units else None)

    setup_s, walls, results = repeat(run, workload, seconds, unit)
    if workload.name == "homeo-n5":
        _, _, code, out = run.spawn([PY, "-c", HOMEO_COUNTS_CODE])
        problems = _exit_problems(code)
        if not problems:
            problems = check_counts((), [int(c) for c in out.split()] + [A001930[5]])
        run.record("homeomorphism class counts", problems)
    if setup_s is None or not walls:
        return None
    print("unit wall_s:", *(f"{w:.4f}" for w in walls))
    # one invocation is one operation, so its percentiles are its wall time
    wall = statistics.fmean(walls)
    return {"setup_s": setup_s, "wall_s": wall,
            "work_per_s": sum(units for _, units in results) / sum(walls),
            "op_p50_ms": 1e3 * wall, "op_p99_ms": 1e3 * wall,
            "peak_rss_mb": statistics.median(rss for rss, _ in results)}


# ---------------------------------------------------------- query session

def prepare_queries(run, seed):
    generated = make_queries(seed)
    inputs_path = run.workdir / "inputs.json"
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(generated["inputs"], fh)
    return inputs_path, generated


def run_queries_once(run, inputs_path, generated, traced_spans=None):
    """One checked session in a fresh process; (wall_s, rss_mb, results)."""
    results_path = run.workdir / "results.json"
    results_path.unlink(missing_ok=True)
    trace = [] if traced_spans is None else ["--trace", str(traced_spans)]
    wall, rss, code, _ = run.spawn(
        [PY, CHILD, *trace, "queries", str(inputs_path), str(results_path)])
    attempted = query_count(generated["inputs"])
    problems = _exit_problems(code, "query session")
    if problems or not results_path.exists():
        run.record("queries", problems or ["no results written"], ops=attempted)
        return wall, rss, None
    with open(results_path, encoding="utf-8") as fh:
        results = json.load(fh)
    wrong = check_queries(generated["expect"], results)
    run.record("queries", [f"{wrong} wrong or failed answers"] if wrong else [],
               ops=attempted, failed=wrong)
    return wall, rss, results


def measure_queries(run, workload, seed, seconds):
    """Percentiles are taken within each session; the run reports their
    means over its sessions."""
    inputs_path, generated = prepare_queries(run, seed)

    def unit():
        wall, rss, results = run_queries_once(run, inputs_path, generated)
        if results is None:
            return wall, None
        pct = statistics.quantiles(results["latency_s"], n=100)
        return wall, (rss, results["loop_s"], 1e3 * pct[49], 1e3 * pct[98])

    setup_s, walls, results = repeat(run, workload, seconds, unit)
    if setup_s is None or not walls:
        return None
    queries = query_count(generated["inputs"])
    print(f"query sessions: {len(walls)} of {queries} queries each")
    print("unit wall_s:", *(f"{w:.4f}" for w in walls))
    rss, loops, p50, p99 = zip(*results)
    mean = statistics.fmean
    return {"setup_s": setup_s, "wall_s": mean(walls),
            "work_per_s": queries * len(loops) / sum(loops),
            "op_p50_ms": mean(p50), "op_p99_ms": mean(p99),
            "peak_rss_mb": statistics.median(rss)}


# ------------------------------------------------------------------ traced

def measure_traced(run, workload, seed):
    """Untraced then traced unit; per-layer metrics plus tracing overhead."""
    spans = OUT / f"trace-{workload.name}.jsonl"
    spans.unlink(missing_ok=True)
    if workload.name == "queries":
        inputs_path, generated = prepare_queries(run, seed)
        untraced, *_ = run_queries_once(run, inputs_path, generated)
        traced, *_ = run_queries_once(run, inputs_path, generated, spans)
    else:
        untraced, *_ = run_cli_once(run, workload)
        traced, *_ = run_cli_once(run, workload, spans)
    if not spans.exists():
        return None
    run_id, span_list, counts, pair_cache = read_trace(spans)
    print(f"trace {run_id}: {len(span_list)} spans in {spans.relative_to(SRC.parent)}")
    metrics = layer_metrics(span_list, counts, pair_cache)
    if workload.name == "catalogue":
        # the serial sweep starts no process pool; the same sweep with
        # --jobs 2, traced in its parent process, counts the pools it starts
        pool_spans = OUT / "trace-catalogue-j2.jsonl"
        pool_spans.unlink(missing_ok=True)
        run_cli_once(run, WORKLOADS["catalogue-j2"], pool_spans)
        if not pool_spans.exists():
            return None
        metrics["verifier.pool.starts"] = read_trace(pool_spans)[2].get(
            "verifier.pool.starts", 0)
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    return metrics


# -------------------------------------------------------------------- main

def measure(run, workload, args):
    """Metrics of this run, or None when nothing could be measured."""
    if args.trace:
        setup_once(run, workload)    # backend and counts only
        return measure_traced(run, workload, args.seed)
    if workload.name == "queries":
        return measure_queries(run, workload, args.seed, args.seconds)
    return measure_cli(run, workload, args.seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "topolab" / "__init__.py").is_file():
        print(f"error: no topolab package under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)   # clean up children and workdir
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workdir)
    try:
        metrics = measure(run, workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run.problems:
        print(f"FAILED {problem}")
    if metrics is None:
        print("error: nothing was measured", file=sys.stderr)
        return 1
    print(f"failed_ratio {run.failed / run.attempted:.6f} "
          f"({run.failed} failed of {run.attempted} operations)")
    result = {name: {"value": value, "unit": END_TO_END_UNITS.get(name) or layer_unit(name)}
              for name, value in metrics.items()}
    for name, m in result.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                      "machine": machine_record(run.backend)}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
