"""Outside-in tracing of topolab's public layer boundaries.

Each traced function is replaced at the name its caller looks it up under
(``topolab._kernels.map_masks`` for the verifier's ``_kernels.map_masks``,
``topolab.verifier.spaces_up_to`` because the verifier imports that name
directly, and so on).  Nothing inside ``src/`` changes, and the wrappers
exist only in a process that calls :meth:`Tracer.install`.

Spans are kept in memory as ``(span_id, name, parent_id, start, end)`` and
written as JSON lines when the traced workload ends.  Functions called too
often for a span each (``relabel``) are only counted.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name): one span per call
SPANNED = (
    ("topolab._kernels", "map_masks", "kernels.map_masks"),
    ("topolab._kernels", "composition_failures", "kernels.composition_failures"),
    ("topolab._kernels", "class_masks", "kernels.class_masks"),
    ("topolab._kernels", "space_pack", "kernels.space_pack"),
    ("topolab._kernels", "enumerate_masks", "kernels.enumerate_masks"),
    ("topolab.verifier", "spaces_up_to", "enumeration.spaces_up_to"),
    ("topolab.enumeration", "canonical_form", "enumeration.canonical_form"),
    ("topolab.verifier", "verify", "verifier.verify"),
    ("topolab.verifier", "evaluate_instance", "verifier.evaluate_instance"),
    ("topolab.verifier", "validate_witness", "verifier.validate_witness"),
    ("topolab.space", "space_from_json", "space.space_from_json"),
    ("topolab.classes", "classify_subset", "classes.classify_subset"),
    ("topolab.classes", "family", "classes.family"),
    ("topolab.classes", "family_set", "classes.family_set"),
    ("topolab.axioms", "axiom_report", "axioms.axiom_report"),
    ("topolab.maps", "classify_map", "maps.classify_map"),
    ("topolab.cli", "main", "cli.main"),
)

# generator functions: the span covers draining the generator, so the CLI's
# printing loop is not charged to enumeration
DRAINED = (
    ("topolab.cli", "enumerate_topologies_up_to_homeo",
     "enumeration.enumerate_topologies_up_to_homeo"),
)

# (module, attribute, counter name): counted, no span
COUNTED = (
    ("topolab.enumeration", "relabel", "enumeration.relabel.calls"),
    ("topolab.verifier", "ProcessPoolExecutor", "verifier.pool.starts"),
)

SPAN_NAMES = tuple(name for _, _, name in SPANNED + DRAINED)
COUNTER_NAMES = tuple(name for _, _, name in COUNTED)


class Tracer:
    """Span recorder for one traced run in one process (single-threaded)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._stack = [0]

    def _replace(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        setattr(module, attr, make(getattr(module, attr)))

    def _spanned(self, name, drain=False):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def make(original):
            def wrapper(*args, **kwargs):
                sid = next(ids)
                parent = stack[-1]
                stack.append(sid)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                    if drain:
                        result = iter(list(result))
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((sid, name, parent, start, end))
            return wrapper
        return make

    def _counted(self, name):
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def install(self):
        for module, attr, name in SPANNED:
            self._replace(module, attr, self._spanned(name))
        for module, attr, name in DRAINED:
            self._replace(module, attr, self._spanned(name, drain=True))
        for module, attr, name in COUNTED:
            self._replace(module, attr, self._counted(name))

    def pair_cache(self):
        """Hits and misses of the verifier's pair-table cache so far."""
        from topolab import verifier
        info = verifier._pair_masks.cache_info()
        return {"hits": info.hits, "misses": info.misses}

    def write(self, path):
        """Header line, then one line per span, then the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id}) + "\n")
            for sid, name, parent, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "pair_cache": self.pair_cache()}) + "\n")


def read_trace(path):
    """Spans, counters and pair-cache figures of a written trace."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        for line in fh:
            rec = json.loads(line)
            if "counts" in rec:
                return header["run_id"], spans, rec["counts"], rec["pair_cache"]
            spans.append(rec)
    raise ValueError(f"{path}: trace has no counter line")


def layer_metrics(spans, counts, pair_cache):
    """Per-layer calls and self time; self time excludes child spans."""
    child_time = defaultdict(float)
    for s in spans:
        child_time[s["parent"]] += s["end"] - s["start"]
    calls = Counter()
    self_s = defaultdict(float)
    for s in spans:
        calls[s["name"]] += 1
        self_s[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in COUNTER_NAMES:
        out[name] = counts.get(name, 0)
    hits, misses = pair_cache["hits"], pair_cache["misses"]
    out["verifier.pair_cache.hits"] = hits
    out["verifier.pair_cache.misses"] = misses
    out["verifier.pair_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["trace.spans"] = len(spans)
    return out


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"
