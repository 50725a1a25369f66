"""Per-layer tracing from outside the library.

The tracer wraps every public function of the layer modules and patches
the wrapper into every ``mimlab`` module namespace that binds the
function, because ``harness`` and ``obdd`` import names directly.  A
wrapped call opens a span (name, start, end, parent); a span's self time
is its duration minus the duration of its child spans.  Generator
functions open no span: the items they yield are counted and credited to
the span that was open when iteration began.  The hottest helpers are
count-only.

Spans stay in memory while the benchmark runs and are written out at the
end.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from array import array
from dataclasses import dataclass, field

# Called from half a million to several million times per corpus-verify
# pass: only counted, their time stays with the caller's span.
COUNT_ONLY = frozenset({
    "graph.vertices_of",
    "graph.mask_of",
    "graph.neighborhood_mask",
    "graph.is_independent_mask",
    "obdd.cnf_satisfied",
})


@dataclass
class FnStats:
    name: str
    calls: int = 0
    errors: int = 0
    self_s: float = 0.0
    index: int = -1  # position in Phase.names
    items: int = 0  # generators: items yielded
    counts: dict[str, int] = field(default_factory=dict)  # from results / children

    def add(self, stat: str, amount: int) -> None:
        self.counts[stat] = self.counts.get(stat, 0) + amount


# Counts read from a traced function's result.
RESULT_COUNTS = {
    "obdd.build_obdd": ("level_states", lambda z: sum(z.level_live_counts)),
    "traces.trace_masks": ("traces_returned", len),
    "traces.shrink_to_enabler": ("steps", lambda r: len(r.steps)),
}


class _Span:
    __slots__ = ("sid", "parent", "stats", "start", "child")

    def __init__(self, sid, parent, stats, start):
        self.sid = sid
        self.parent = parent
        self.stats = stats
        self.start = start
        self.child = 0.0


class Phase:
    """Stats and spans of one traced stretch of the benchmark (a set-up or
    a pass), under a root span named ``bench`` for the benchmark's own code."""

    def __init__(self, label: str):
        self.label = label
        self.stats: dict[str, FnStats] = {}
        self.bench = FnStats("bench")
        self.wall_s = 0.0
        # Spans as columns: a corpus-verify pass records about 600,000.
        self.names: list[str] = []
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")

    def record(self, sid: int, parent: int, name_idx: int, start: float,
               end: float) -> None:
        self.span_id.append(sid)
        self.span_parent.append(parent)
        self.span_name.append(name_idx)
        self.span_start.append(start)
        self.span_end.append(end)

    def spans(self):
        """(id, parent id, name, start, end) of every span, in end order."""
        for i in range(len(self.span_id)):
            yield (self.span_id[i], self.span_parent[i],
                   self.names[self.span_name[i]], self.span_start[i],
                   self.span_end[i])

    def fn(self, name: str) -> FnStats:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = FnStats(name)
            st.index = len(self.names)
            self.names.append(name)
        return st

    def deterministic_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly for the same inputs."""
        out = {}
        for name, st in sorted(self.stats.items()):
            out[f"{name}.calls"] = st.calls
            out[f"{name}.errors"] = st.errors
            if st.items:
                out[f"{name}.items"] = st.items
            for stat, n in sorted(st.counts.items()):
                out[f"{name}.{stat}"] = n
        return out

    def attributed_s(self) -> float:
        return self.bench.self_s + sum(st.self_s for st in self.stats.values())


class Tracer:
    def __init__(self, layers: dict):
        self.layers = layers  # name -> module
        self._ids = itertools.count(1)  # span ids, unique across phases
        self._patched: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def _public_functions(self):
        """(``<module>.<function>``, function) for every public function
        defined in a layer module."""
        for layer, mod in self.layers.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    yield f"{layer}.{attr}", obj

    def function_names(self) -> list[str]:
        return [name for name, _ in self._public_functions()]

    def install(self, phase: "Phase", stack: list) -> None:
        """Patch wrappers that record into ``phase`` under ``stack``."""
        wrappers = {id(fn): (fn, self._wrap(name, fn, phase, stack))
                    for name, fn in self._public_functions()}
        namespaces = [m for key, m in sys.modules.items()
                      if key == "mimlab" or key.startswith("mimlab.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, name: str, fn, phase: "Phase", stack: list):
        st = phase.fn(name)
        if name in COUNT_ONLY and not inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)
            return counted

        if inspect.isgeneratorfunction(fn):
            credit = f"yielded.{name.split('.', 1)[1]}"

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                st.calls += 1
                owner = stack[-1].stats
                n = 0
                try:
                    for item in fn(*args, **kwargs):
                        n += 1
                        yield item
                except Exception:
                    st.errors += 1
                    raise
                finally:
                    st.items += n
                    owner.add(credit, n)
            return generator

        result_count = RESULT_COUNTS.get(name)
        next_id = self._ids.__next__
        record = phase.record
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            st.calls += 1
            parent = stack[-1]
            span = _Span(next_id(), parent.sid, st, clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - span.start
                st.self_s += dur - span.child
                parent.child += dur
                record(span.sid, span.parent, st.index, span.start, end)
            if result_count is not None:
                st.add(result_count[0], result_count[1](result))
            return result
        return spanned

    # -- phases -----------------------------------------------------------

    def run(self, label: str, body):
        """Run ``body()`` traced, under a root span; return (Phase, result)."""
        phase = Phase(label)
        root = _Span(next(self._ids), 0, phase.bench, time.perf_counter())
        self.install(phase, [root])
        try:
            result = body()
        finally:
            end = time.perf_counter()
            self.uninstall()
            phase.wall_s = end - root.start
            phase.bench.self_s = phase.wall_s - root.child
            phase.bench.calls = 1
            phase.names.append("bench")
            phase.record(root.sid, 0, len(phase.names) - 1, root.start, end)
        return phase, result
