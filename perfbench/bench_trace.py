"""Spans around the calls into each diagalg module, installed from outside.

`Tracer.install` wraps every public function of every diagalg module, and
the arithmetic methods of the exact-arithmetic classes, and re-binds each
wrapper in every module that imported the function by name (for example
`criteria.partitions_of` and `gram.compose_diagrams`).  Generator functions
are left alone: their time counts in the caller.

Spans are kept in memory.  Self time is computed as each span closes: its
duration minus the durations of its child spans, which nest exactly because
the program is single-threaded.  Per span name the tracer keeps calls, total
seconds and self seconds; the first SPAN_CAP spans are also kept whole
(id, parent id, name, start, end) and written out with the totals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from collections import Counter

MODULES = ("partitions", "branching", "exactalg", "brauer", "cellular", "weights", "gram", "criteria", "verify", "cli")
ARITH_CLASSES = ("LaurentPoly", "RationalFunction", "PrimeFieldElement")
ARITH_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__",
    "__truediv__", "__rtruediv__", "exact_div", "evaluate", "shift", "normalize",
)
MATRIX_FUNCTIONS = ("gram.rank_mod_p", "gram.bareiss_rank", "gram.bareiss_det")
SPAN_CAP = 20_000


def _traceable(obj, module) -> bool:
    if isinstance(obj, functools._lru_cache_wrapper):
        return obj.__module__ == module.__name__
    return (
        inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not inspect.isgeneratorfunction(obj)
    )


class Tracer:
    """Collects spans for one process."""

    def __init__(self):
        self.stack: list[list] = []  # [span id, seconds covered by children]
        self.totals: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.items: Counter = Counter()  # items built on cache misses, and verify checks run
        self.caches: dict[str, object] = {}
        self.max_dim = 0
        self.entries = 0
        self._ids = itertools.count(1)
        self._screen_prime = None

    def _wrap(self, name: str, fn):
        stack, totals, spans = self.stack, self.totals, self.spans
        perf = time.perf_counter
        cached = hasattr(fn, "cache_info")
        matrix = name in MATRIX_FUNCTIONS
        suite = name.startswith("verify.suite_")

        def wrapper(*args, **kwargs):
            span = name
            if matrix:
                span = self._matrix_span(name, args, kwargs)
            if cached:
                misses = fn.cache_info().misses
            parent = stack[-1] if stack else None
            frame = [next(self._ids), 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                rec = totals.get(span)
                if rec is None:
                    rec = totals[span] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], parent[0] if parent else None, span, start, end))
                else:
                    self.dropped += 1
            if cached and fn.cache_info().misses != misses:
                self.items[name] += len(result)
            if suite:
                self.items["verify.checks"] += len(result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _matrix_span(self, name, args, kwargs) -> str:
        """Splits rank_mod_p into the characteristic-0 screen and genuine
        mod-p ranks, and records the matrix sizes."""
        dim = len(args[0]) if args else len(kwargs["matrix"])
        self.max_dim = max(self.max_dim, dim)
        if name != "gram.rank_mod_p":
            return name
        self.entries += dim * dim
        p = args[1] if len(args) > 1 else kwargs["p"]
        return "gram.screen_rank" if p == self._screen_prime else "gram.modp_rank"

    def install(self) -> None:
        """Wraps the diagalg modules in this process; call before running them."""
        modules = {short: importlib.import_module(f"diagalg.{short}") for short in MODULES}
        self._screen_prime = modules["gram"]._SCREEN_PRIME
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and _traceable(obj, mod):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                    if hasattr(obj, "cache_info"):
                        self.caches[f"{short}.{attr}"] = obj
        self.caches["criteria._box_tables"] = modules["criteria"]._box_tables
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for cls_name in ARITH_CLASSES:
            cls = getattr(modules["exactalg"], cls_name)
            for attr in ARITH_METHODS:
                if attr in vars(cls):
                    setattr(cls, attr, self._wrap(f"exactalg.{cls_name}.{attr}", vars(cls)[attr]))

    def dump(self, path: str, import_s: float) -> None:
        """Writes the spans and counts of this process to `path`."""
        data = {
            "import_s": import_s,
            "totals": self.totals,
            "items": self.items,
            "caches": {name: list(fn.cache_info()[:2]) for name, fn in self.caches.items()},
            "max_dim": self.max_dim,
            "entries": self.entries,
            "spans": self.spans,
            "dropped": self.dropped,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def merge(dumps: list[dict]) -> dict:
    """Sums the dumps of the processes of one round."""
    out = {
        "import_s": sum(d["import_s"] for d in dumps),
        "totals": {},
        "items": Counter(),
        "caches": {},
        "max_dim": max((d["max_dim"] for d in dumps), default=0),
        "entries": sum(d["entries"] for d in dumps),
        "spans": [d["spans"] for d in dumps],
        "dropped": sum(d["dropped"] for d in dumps),
    }
    for d in dumps:
        for name, rec in d["totals"].items():
            acc = out["totals"].setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += rec[k]
        out["items"].update(d["items"])
        for name, (hits, misses) in d["caches"].items():
            acc = out["caches"].setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
    return out


def _sum(totals, names, column):
    return sum(rec[column] for name, rec in totals.items() if name in names)


def _module_self(totals, module):
    return sum(rec[2] for name, rec in totals.items() if name.split(".", 1)[0] == module)


CALLS, TOTAL, SELF = 0, 1, 2
DECIDE = ("criteria.decide_brauer", "criteria.decide_qbrauer", "criteria.decide_bmw")
SEARCH = ("criteria.m_bruteforce", "criteria.mprime_bruteforce")
SYMBOLIC = ("weights.brauer_weight", "weights.qbrauer_weight_at_power", "weights.bmw_weight_at_power")
BAREISS = ("gram.bareiss_rank", "gram.bareiss_det")
SUITES = ("counting", "trace", "cellular", "oracle-equivalence", "specialization")


def layer_metrics(merged: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced round, as name -> (value, unit).

    Times are seconds summed over the round's processes.  `*_self_s`, and
    the module totals `exactalg.self_s`, `cellular.s` and `branching.s`,
    are self times; the other times are inclusive.
    """
    t = merged["totals"]
    poly_ops = sum(rec[CALLS] for name, rec in t.items() if name.startswith("exactalg.LaurentPoly."))
    screens = _sum(t, ("gram.screen_rank",), CALLS)
    modp = _sum(t, ("gram.modp_rank",), CALLS)
    m = {
        "cli.import_s": (merged["import_s"], "s"),
        "cli.parse_render_s": (_module_self(t, "cli"), "s"),
        "criteria.decide_calls": (_sum(t, DECIDE, CALLS), "count"),
        "criteria.decide_self_s": (_sum(t, DECIDE, SELF), "s"),
        "criteria.search_calls": (_sum(t, SEARCH, CALLS), "count"),
        "criteria.search_s": (_sum(t, SEARCH, TOTAL), "s"),
        "criteria.box_tables_built": (merged["caches"].get("criteria._box_tables", [0, 0])[1], "count"),
        "partitions.levels_enumerated": (merged["caches"].get("partitions.partitions_of", [0, 0])[1], "count"),
        "partitions.enumerated": (merged["items"].get("partitions.partitions_of", 0), "count"),
        "partitions.enum_s": (_sum(t, ("partitions.partitions_of",), TOTAL), "s"),
        "weights.evaluate_calls": (_sum(t, ("weights.evaluate_weight",), CALLS), "count"),
        "weights.evaluate_s": (_sum(t, ("weights.evaluate_weight",), TOTAL), "s"),
        "weights.symbolic_s": (_sum(t, SYMBOLIC, TOTAL), "s"),
        "exactalg.poly_ops": (poly_ops, "count"),
        "exactalg.self_s": (_module_self(t, "exactalg"), "s"),
        "brauer.diagrams": (merged["items"].get("brauer.all_diagrams", 0), "count"),
        "brauer.compose_calls": (_sum(t, ("brauer.compose_diagrams",), CALLS), "count"),
        "brauer.compose_s": (_sum(t, ("brauer.compose_diagrams",), TOTAL), "s"),
        "brauer.multiply_calls": (_sum(t, ("brauer.multiply",), CALLS), "count"),
        "brauer.multiply_s": (_sum(t, ("brauer.multiply",), TOTAL), "s"),
        "gram.exponents_s": (_sum(t, ("gram.gram_exponents",), TOTAL), "s"),
        "gram.rank_calls": (screens + modp, "count"),
        "gram.screen_calls": (screens, "count"),
        "gram.screen_rank_s": (_sum(t, ("gram.screen_rank",), TOTAL), "s"),
        "gram.modp_rank_s": (_sum(t, ("gram.modp_rank",), TOTAL), "s"),
        "gram.bareiss_calls": (_sum(t, BAREISS, CALLS), "count"),
        "gram.bareiss_s": (_sum(t, BAREISS, TOTAL), "s"),
        "gram.max_dim": (merged["max_dim"], "count"),
        "gram.entries": (merged["entries"], "count"),
        "cellular.s": (_module_self(t, "cellular"), "s"),
        "branching.s": (_module_self(t, "branching"), "s"),
        "verify.checks": (merged["items"].get("verify.checks", 0), "count"),
    }
    for suite in SUITES:
        name = f"verify.suite_{suite.replace('-', '_')}"
        m[f"verify.{suite}_s"] = (_sum(t, (name,), TOTAL), "s")
    return m
