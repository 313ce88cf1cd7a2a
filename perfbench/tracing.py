"""Spans around calls into fibreconj's layers, recorded from the benchmark's side.

Tracer.install replaces the package's public functions by wrappers in
every fibreconj module namespace, so calls between modules, and calls
inside a module to its own public functions, pass through them.  Each
wrapper records a span in memory: name, start, end, parent span and the
id of the query it serves.  Calls into words.py are spanned only from
the other modules, so words calling words stays inside one span.  A
generator's resumptions each get a span, since that is where its code
runs.  Counts named by the per-layer metrics are taken in the same
wrappers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) -> span name
SPANNED = {
    ("fibreconj.cli", "parse_presentation_file"): "cli.parse",
    ("fibreconj.oracle", "auto_strategy"): "oracle.strategy",
    ("fibreconj.oracle", "wp_decide"): "oracle.wp_decide",
    ("fibreconj.oracle", "check_c16"): "oracle.check_c16",
    ("fibreconj.oracle", "power_decide"): "oracle.power_decide",
    ("fibreconj.oracle", "q_equal"): "oracle.q_equal",
    ("fibreconj.abelian", "power_solutions"): "abelian.power_solutions",
    ("fibreconj.area", "area_bounded"): "area.area_bounded",
    ("fibreconj.area", "dehn_function"): "area.dehn_function",
    ("fibreconj.subdirect", "p_conjugacy"): "subdirect.p_conjugacy",
    ("fibreconj.perturb", "power_avoid"): "perturb.power_avoid",
}
# (module, class, method) -> span name
SPANNED_METHODS = {
    ("fibreconj.abelian", "AbelianModel", "coords"): "abelian.coords",
    ("fibreconj.abelian", "AbelianModel", "residues"): "abelian.residues",
}
WORDS = "fibreconj.words"
QUERY = "query"

# span record fields
NAME, START, END, PARENT, QID = range(5)


def _dehn_steps(cert) -> int:
    """Rewrite steps in a ("dehn", steps, terminal) certificate; 0 for other kinds."""
    return len(cert[1]) if cert[0] == "dehn" else 0


class Tracer:
    """In-memory span recorder; install() wraps the package, uninstall() restores it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers ---------------------------------------------------------

    def _enter(self, name: str) -> None:
        if name == "oracle.wp_decide" and self.active["oracle.power_decide"]:
            self.counts["oracle.power_wp_calls"] += 1
        elif name == "oracle.q_equal" and self.active["perturb.power_avoid"]:
            self.counts["perturb.q_equal_calls"] += 1

    def _leave(self, name: str, result) -> None:
        if name == "oracle.wp_decide":
            self.counts["oracle.dehn_steps"] += _dehn_steps(result.certificate)
        elif name == "area.area_bounded":
            self.counts["area.states"] += result.states
        elif name == "subdirect.p_conjugacy":
            self.counts["subdirect.power_queries"] += len(result.trace.queries)

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.query]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.active[name] += 1
        self._enter(name)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self.stack.pop()
        self.active[rec[NAME]] -= 1

    def span(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            self._leave(name, result)
            return result

        return wrapper

    def _generator_span(self, name: str, fn):
        def resume(it):
            while True:
                rec = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return resume(fn(*args, **kwargs))

        return wrapper

    def run_query(self, qid: int, fn):
        """Run one query under a root span whose id all its spans share."""
        self.query = qid
        return self.span(QUERY, fn)()

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for (mod, attr), name in SPANNED.items():
            fn = getattr(sys.modules[mod], attr)
            wrappers[id(fn)] = (fn, self.span(name, fn))
        for attr, fn in vars(sys.modules[WORDS]).items():
            if inspect.isfunction(fn) and fn.__module__ == WORDS and not attr.startswith("_"):
                wrappers[id(fn)] = (fn, self.span(f"words.{attr}", fn))
        for modname, module in list(sys.modules.items()):
            if modname == WORDS or (modname != "fibreconj" and not modname.startswith("fibreconj.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])
        for (mod, cls, meth), name in SPANNED_METHODS.items():
            klass = getattr(sys.modules[mod], cls)
            self._patch(klass, meth, self.span(name, vars(klass)[meth]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- summaries --------------------------------------------------------

    def summarize(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Calls, inclusive and self seconds per span name over spans[first:last].

        Self time is a span's duration minus its child spans' durations.
        """
        spans = self.spans
        child = defaultdict(float)
        for sid in range(first, last):
            rec = spans[sid]
            if rec[PARENT] >= first:
                child[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for sid in range(first, last):
            rec = spans[sid]
            dur = rec[END] - rec[START]
            entry = out[rec[NAME]]
            entry["calls"] += 1
            entry["incl_s"] += dur
            entry["self_s"] += dur - child[sid]
        return dict(out)

    def write(self, path: str, first: int, last: int) -> None:
        """Write spans[first:last] as JSON lines, times relative to the first span's start."""
        if last <= first:
            open(path, "w").close()
            return
        t0 = self.spans[first][START]
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(first, last):
                rec = self.spans[sid]
                fh.write(json.dumps({
                    "id": sid,
                    "name": rec[NAME],
                    "start": rec[START] - t0,
                    "end": rec[END] - t0,
                    "parent": rec[PARENT],
                    "query": rec[QID],
                }) + "\n")
