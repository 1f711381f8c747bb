"""Span recorder for the traced benchmark run.

Only the traced worker imports this module.  It wraps toroshrink's
public functions where they are looked up: a module that did
``from .magnus import expand`` holds its own reference, so the wrapper
replaces the function in every toroshrink module namespace that holds
it, and methods are replaced on their classes.  Each call records a span
(name, start, end, parent) in memory; the parent comes from a context
variable, so nested calls nest their spans.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import sys
import time

_PARENT = contextvars.ContextVar("perfbench_parent_span", default=-1)


class Recorder:
    """Spans in parallel lists (index = span id) plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def add(self, name: str, start: int, end: int, parent: int = -1) -> int:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block, parent of the spans recorded inside it."""
        sid = self.add(name, time.perf_counter_ns(), 0, _PARENT.get())
        token = _PARENT.set(sid)
        try:
            yield
        finally:
            self.ends[sid] = time.perf_counter_ns()
            _PARENT.reset(token)

    def wrap(self, name: str, fn, counter=None):
        """A wrapper recording one span per call; ``counter`` is an optional
        (counter name, result -> int) pair added up over calls."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        counts = self.counts
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(_PARENT.get())
            ends.append(0)
            starts.append(now())
            token = _PARENT.set(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = now()
                _PARENT.reset(token)
            if counter is not None:
                counts[counter[0]] = counts.get(counter[0], 0) + counter[1](result)
            return result

        return wrapper

    def patch_function(self, module, attr: str, name: str, counter=None) -> bool:
        """Replace ``module.attr`` in every loaded toroshrink namespace."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = self.wrap(name, original, counter)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or (mod_name != package and not mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
        return True

    def patch_method(self, cls, attr: str, name: str) -> bool:
        original = cls.__dict__.get(attr)
        if original is None:
            return False
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original))
        return True

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def self_times(self, first: int = 0, stop: int | None = None) -> dict[str, list[int]]:
        """name -> [calls, self time in ns] over the spans with ids in
        [first, stop), which must hold whole subtrees.

        Self time is a span's duration minus the part of its interval that
        its child spans cover.
        """
        ids = range(first, len(self.names) if stop is None else stop)
        children: dict[int, list[int]] = {}
        for sid in ids:
            children.setdefault(self.parents[sid], []).append(sid)
        out: dict[str, list[int]] = {}
        for sid in ids:
            start, end = self.starts[sid], self.ends[sid]
            covered = 0
            reach = start
            for child in sorted(children.get(sid, ()), key=self.starts.__getitem__):
                lo, hi = max(self.starts[child], reach), min(self.ends[child], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            entry = out.setdefault(self.names[sid], [0, 0])
            entry[0] += 1
            entry[1] += end - start - covered
        return out

    def write(self, path: str) -> None:
        """One span per line: id, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name in enumerate(self.names):
                fh.write(f"{sid}\t{self.parents[sid]}\t{name}\t{self.starts[sid]}\t{self.ends[sid]}\n")


# (module, function, span name, counter) for the layers of the package
FUNCTIONS = (
    ("magnus", "expand", "magnus.expand", ("magnus.expand.terms_out", lambda s: len(s.terms))),
    ("magnus", "lcs_depth", "magnus.lcs_depth", None),
    ("milnor", "mubar", "milnor.mubar", None),
    ("milnor", "mu", "milnor.mu", None),
    ("milnor", "delta", "milnor.delta", None),
    ("milnor", "longitude_word", "milnor.longitude_word", ("milnor.longitude.letters", len)),
    ("milnor", "reduce_longitude", "milnor.reduce_longitude", None),
    ("linkio", "parse_pd", "linkio.parse_pd", None),
    ("linkio", "wirtinger", "linkio.wirtinger", None),
    ("sequences", "parse_sequence_config", "sequences.parse_sequence_config", None),
    ("shrink", "decide", "shrink.decide", None),
    ("shrink", "orbit_decide", "shrink.orbit_decide", None),
    ("shrink", "periodic_product", "shrink.periodic_product", None),
    ("shrink", "sher_armentrout", "shrink.sher_armentrout", None),
    ("shrink", "bounded_widths", "shrink.bounded_widths", None),
    ("shrink", "convergent_tau_series", "shrink.convergent_tau_series", None),
    ("shrink", "divergent_weighted_tau_series", "shrink.divergent_weighted_tau_series", None),
    ("shrink", "verify_certificate", "shrink.verify_certificate", None),
    ("drf", "nm_drf", "drf.nm_drf", None),
    ("drf", "compose", "drf.compose", None),
    ("report", "run_checks", "report.run_checks", None),
)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def clear_caches(package) -> None:
    """Empty every ``functools`` cache in the package's modules."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.split(".")[0] == package.__name__:
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def install(package) -> tuple[Recorder, list[str]]:
    """Wrap the package's layers; returns the recorder and the names of
    targets that no longer exist (reported, not fatal)."""
    import importlib

    rec = Recorder()
    missing = []
    for mod_name, attr, name, counter in FUNCTIONS:
        module = importlib.import_module(f"{package.__name__}.{mod_name}")
        if not rec.patch_function(module, attr, name, counter):
            missing.append(f"{mod_name}.{attr}")
    if not rec.patch_method(package.freegroup.Word, "__mul__", "freegroup.Word.mul"):
        missing.append("freegroup.Word.__mul__")
    for cls in _subclasses(package.sequences.LinkSequence):
        rec.patch_method(cls, "link", "sequences.link")
    return rec, missing
