"""Span tracing of divisorlab's layers from outside the package.

Each public function is replaced, for the duration of a traced pass, at every
name its callers look it up by (formula imports prefix_sums_at and
main_term_coefficients by name, perron imports dirichlet_quotient_f64 by name,
cli imports compare and conjecture_scan by name).  Spans are kept in memory;
per-layer metrics, including self times, are derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    calls: int = 1   # 0 for a generator's later resumptions
    count: int = 0   # work units: integers sieved, nodes, terms
    key: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(name: str):
    return lambda a: a[name]


#: span name -> (lookup sites as "module.attr", work count, distinct-call key)
TARGETS = {
    "sieve.prefix_sum": (["sieve.prefix_sum"], _arg("x"), None),
    "sieve.prefix_sums_at": (["sieve.prefix_sums_at", "formula.prefix_sums_at"],
                             lambda a: max(int(x) for x in a["xs"]), None),
    "sieve.build_sieve": (["sieve.build_sieve"], _arg("limit"), None),
    "zeta.mp": (["zeta.zeta_with_derivatives"], None,
                lambda a: (repr(a["s"]), a["kmax"], a["precision"])),
    "zeta.stieltjes": (["zeta.stieltjes"], None, None),
    "zeta.f64": (["zeta.dirichlet_quotient_f64", "perron.dirichlet_quotient_f64"],
                 lambda a: int(np.size(a["s"])), None),
    "series.main_term_coefficients": (["series.main_term_coefficients",
                                       "formula.main_term_coefficients"], None, None),
    "series.residue_main_term": (["series.residue_main_term"], None, None),
    "zeros.coefficient_for": (["zeros.coefficient_for"], None, None),
    "zeros.persist_cache": (["zeros.persist_cache"], None, None),
    "zeros.load_cache": (["zeros.load_cache"], None, None),
    "zeros.import_zeros": (["zeros.import_zeros"], None, None),
    "formula.zero_sum_terms": (["formula.zero_sum_terms"], lambda a: len(a["terms"]),
                               None),
    "formula.compare": (["formula.compare", "cli.compare"], None, None),
    "formula.conjecture_scan": (["formula.conjecture_scan", "cli.conjecture_scan"],
                                None, None),
    "perron.perron_truncated": (["perron.perron_truncated"], None, None),
    "perron.truncation_decay": (["perron.truncation_decay"], None, None),
    "perron.rectangle_consistency": (["perron.rectangle_consistency"], None, None),
    "perron.residue_by_circle": (["perron.residue_by_circle"], _arg("nodes"), None),
    "cli.main": (["cli.main"], None, None),
}


class Tracer:
    """Records spans while installed() has the wrappers swapped in."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.mp_calls = 0  # zeta.call_count() growth while installed

    def _open(self, name: str, calls: int, count: int, key) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, calls,
                               count, key))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, count, key):
        sig = inspect.signature(fn)
        tracer = self

        def describe(args, kwargs):
            if count is None and key is None:
                return 0, None
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            return (count(a) if count else 0), (key(a) if key else None)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                n, k = describe(args, kwargs)
                it = fn(*args, **kwargs)
                first = True
                while True:
                    span = tracer._open(name, int(first), n if first else 0, k)
                    first = False
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n, k = describe(args, kwargs)
            span = tracer._open(name, 1, n, k)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Trace every target while the block runs; restore them afterwards."""
        from divisorlab import zeta

        saved = []
        calls0 = zeta.call_count()
        try:
            for name, (sites, count, key) in TARGETS.items():
                first = _resolve(sites[0])
                wrapper = self._wrap(name, first, count, key)
                for site in sites:
                    module, attr = _site(site)
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._stack.clear()
            self.mp_calls += zeta.call_count() - calls0


def _site(site: str):
    module, attr = site.split(".")
    return importlib.import_module(f"divisorlab.{module}"), attr


def _resolve(site: str):
    module, attr = _site(site)
    return getattr(module, attr)


def layer_metrics(spans: list[Span], mp_calls: int) -> dict[str, float]:
    """Per-layer counts and times for the spans of one traced unit."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.seconds

    def named(prefix: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name.startswith(prefix)]

    def outer(prefix: str) -> list[int]:
        """Spans of the layer whose parent is outside the layer."""
        return [i for i in named(prefix) if spans[i].parent is None
                or not spans[spans[i].parent].name.startswith(prefix)]

    def busy(prefix: str) -> float:
        return sum(spans[i].seconds for i in outer(prefix))

    def calls(prefix: str) -> int:
        return sum(spans[i].calls for i in outer(prefix))

    def work(prefix: str, everywhere: bool = False) -> int:
        idx = named(prefix) if everywhere else outer(prefix)
        return sum(spans[i].count for i in idx)

    def self_time(*names: str) -> float:
        return sum(spans[i].seconds - child_time[i]
                   for i, s in enumerate(spans) if s.name in names)

    def per(total: float, n: int, scale: float) -> float:
        return total * scale / n if n else 0.0

    mp_spans = named("zeta.mp")
    keys = {spans[i].key for i in mp_spans}
    m = {
        "sieve.calls": calls("sieve."),
        "sieve.n": work("sieve."),
        "sieve.s": busy("sieve."),
        "zeta.mp.calls": mp_calls,
        "zeta.mp.s": busy("zeta.mp"),
        "zeta.mp.distinct_ratio": len(keys) / len(mp_spans) if mp_spans else 0.0,
        "zeta.stieltjes.calls": calls("zeta.stieltjes"),
        "zeta.stieltjes.s": busy("zeta.stieltjes"),
        "zeta.f64.nodes": work("zeta.f64"),
        "zeta.f64.s": busy("zeta.f64"),
        "series.main_term.calls": len(named("series.main_term_coefficients")),
        "series.main_term.s": busy("series."),
        "zeros.coeff.count": calls("zeros.coefficient_for"),
        "zeros.coeff.s": busy("zeros.coefficient_for"),
        "zeros.cache_write.s": busy("zeros.persist_cache"),
        "zeros.cache_load.s": busy("zeros.load_cache"),
        "zeros.import.s": busy("zeros.import_zeros"),
        "formula.zero_sum.terms": work("formula.zero_sum_terms"),
        "formula.zero_sum.s": busy("formula.zero_sum_terms"),
        "formula.compare.self_s": self_time("formula.compare"),
        "perron.line.self_s": self_time("perron.perron_truncated",
                                        "perron.truncation_decay",
                                        "perron.rectangle_consistency"),
        "perron.circle.s": busy("perron.residue_by_circle"),
        "perron.circle.nodes": work("perron.residue_by_circle", everywhere=True),
        "cli.self_s": self_time("cli.main"),
    }
    m["sieve.ns_per_n"] = per(m["sieve.s"], m["sieve.n"], 1e9)
    m["zeta.mp.ms_per_call"] = per(m["zeta.mp.s"], m["zeta.mp.calls"], 1e3)
    m["zeta.f64.ns_per_node"] = per(m["zeta.f64.s"], m["zeta.f64.nodes"], 1e9)
    m["zeros.coeff.ms_per_zero"] = per(m["zeros.coeff.s"], m["zeros.coeff.count"], 1e3)
    m["formula.zero_sum.ns_per_term"] = per(m["formula.zero_sum.s"],
                                            m["formula.zero_sum.terms"], 1e9)
    return m


#: Per-layer metrics that count work; they must repeat exactly for one seed.
EXACT_COUNTS = ("sieve.calls", "sieve.n", "zeta.mp.calls", "zeta.stieltjes.calls",
                "zeta.f64.nodes", "series.main_term.calls", "zeros.coeff.count",
                "formula.zero_sum.terms", "perron.circle.nodes")
