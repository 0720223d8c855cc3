"""Outside-in layer tracing: wraps the package's public functions from here.

Every public function of every normanform module is replaced by a wrapper
in each module namespace that binds it, so calls between modules go through
the wrapper too. Hot leaf functions are only counted; the rest are spans,
timed with their self time (span time minus the time of child spans).
Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Leaves called up to millions of times per round: counted, never timed, so
# their cost stays in the self time of the span that called them.
COUNTED = {
    "parith.is_prime", "parith.ensure_prime", "parith.binom_valuation",
    "parith.p_adic_valuation", "parith.p_parts", "parith.p_power_at_least",
    "parith.mod_interval", "delta.dn_valuation",
    "perm.compose", "perm.conjugate", "perm.identity", "perm.rev",
    "perm.transposition", "perm.embed",
    "perm.Permutation.init", "perm.Permutation.inverse",
}
# name -> (class path, attribute); __init__ spans are named after the class.
METHODS = {
    "perm.Permutation.init": ("perm.Permutation", "__init__"),
    "perm.Permutation.inverse": ("perm.Permutation", "inverse"),
    "groupengine.PermGroup": ("groupengine.PermGroup", "__init__"),
    "groupengine.PermGroup.contains": ("groupengine.PermGroup", "contains"),
}
HITS = {"jordan.pi_fast_path"}


class Tracer:
    """Call counts, total and self time per name, and the span records of one run."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self._stack: list[list] = []  # [span id, child time]
        self.op = None

    def reset(self) -> None:
        """Forget everything recorded so far (the warm-up operation)."""
        for table in (self.calls, self.hits, self.total_s, self.self_s, self.spans):
            table.clear()

    def counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def spanned(self, name, fn):
        count_hits = name in HITS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                elapsed = end - start
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
                self.spans[span_id] = (span_id, parent, self.op, name, start, end)
            if count_hits and result is not None:
                self.hits[name] += 1
            return result
        return wrapper

    def wrap(self, name, fn):
        return (self.counted if name in COUNTED else self.spanned)(name, fn)

    def install(self, package: str = "normanform") -> None:
        """Wrap every public function of the package wherever a module binds it,
        and the methods in METHODS on their classes."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        wrappers = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    short = module.__name__.rpartition(".")[2]
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        for name, (cls_path, attr) in METHODS.items():
            mod_name, cls_name = cls_path.split(".")
            cls = getattr(sys.modules[f"{package}.{mod_name}"], cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    def metric(self, name: str) -> float:
        """A per-layer metric by its name: <layer>.calls, .hits, .self_s or .total_s."""
        layer, _, kind = name.rpartition(".")
        table = {"calls": self.calls, "hits": self.hits,
                 "self_s": self.self_s, "total_s": self.total_s}[kind]
        return table[layer]

    def summary(self) -> dict:
        names = sorted(set(self.calls) | set(self.total_s))
        return {name: {"calls": self.calls[name], "hits": self.hits.get(name),
                       "total_s": self.total_s.get(name), "self_s": self.self_s.get(name)}
                for name in names}
