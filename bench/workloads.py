"""The three benchmark workloads: set-up, fixed operation lists and checks.

Every library call goes through a module attribute looked up at call time
(``M["width"].exact_width``), so the tracer's patched functions are the
ones that run in a traced pass.

A workload class builds its inputs from the seed in its constructor (and
warms what a user pays for once per process); ``run_pass`` performs one
pass over the fixed operation list and returns a :class:`PassResult`.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

LAYERS = ("graph", "width", "traces", "obdd", "corpus", "generators", "harness")

# Checks of harness.verify in corpus-verify.  grid-width-range and
# separation stay out: each pass of them is dominated by one or two huge
# exact solves whose engine already runs in lowwidth-families.
VERIFY_CHECKS = (
    "subfunction-traces",
    "trace-bound",
    "shrink",
    "obdd-sandwich",
    "horizontal-traces",
    "grid-prefix-traces",
    "corona",
    "vc",
)

# Cut-down verify parameters for --smoke.
SMOKE_VERIFY_PARAMS = {
    "corpus_max_n": 4,
    "pair_max_n": 5,
    "random_ns": (6,),
    "random_count": 3,
    "horizontal_cases": ((3, 2, 1),),
    "mixed_picks": 2,
    "grid_trace_cases": ((2, 1),),
    "corona_ks": (3,),
    "vc_skew_qs": (1, 2),
    "vc_matching_ks": (1, 2),
}


class CheckFailed(Exception):
    """An output check of the benchmark did not hold."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_ordering_width(key: str):
    def check(out):
        value, per_prefix = out
        expect(value == max(per_prefix), "width is not the max prefix width")
        return {key: value}
    return check


@dataclass
class PassResult:
    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    observed: dict[str, Any] = field(default_factory=dict)


@dataclass
class Op:
    """One instance-level call.  ``call`` is timed; ``check`` is not, and
    returns the exact values the call produced, keyed for the reference."""

    key: str
    call: Callable[[], Any]
    check: Callable[[Any], dict[str, Any]]


def import_library(src: Path) -> dict[str, Any]:
    """Import mimlab from ``src`` and return its layer modules by name.

    Modules are fetched with import_module: ``mimlab.traces`` as an
    attribute is the re-exported function ``traces``, not the module.
    """
    if not (src / "mimlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no mimlab package under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"mimlab.{name}") for name in LAYERS}
    origin = Path(mods["graph"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"mimlab was imported from {origin}, not {src}")
    return mods


class Reference:
    """Exact values recorded at the default seed.

    ``any_seed`` holds values that do not depend on the seed and are
    compared on every seed; ``this_seed`` holds the values of the run's
    seed, or is None when that seed has no record.  A key that is in
    neither section of an applicable record counts as a mismatch.
    """

    def __init__(self, any_seed: dict, this_seed: dict | None):
        self.any_seed = any_seed
        self.this_seed = this_seed

    def mismatches(self, values: dict) -> list[str]:
        bad = []
        for key, value in values.items():
            if key in self.any_seed:
                if self.any_seed[key] != value:
                    bad.append(key)
            elif self.this_seed is not None and self.this_seed.get(key) != value:
                bad.append(key)
        return bad


def run_ops(ops: list[Op], reference: Reference, log) -> PassResult:
    """Closed loop: one operation at a time, each checked after its call."""
    res = PassResult()
    for op in ops:
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed operation, e.g. BudgetExceededError
            res.latencies_ms.append((time.perf_counter() - t0) * 1000.0)
            res.failed += 1
            log(f"{op.key}: raised {type(exc).__name__}: {exc}")
            continue
        res.latencies_ms.append((time.perf_counter() - t0) * 1000.0)
        try:
            values = op.check(out)
        except Exception as exc:  # CheckFailed, or a missing earlier result
            res.failed += 1
            log(f"{op.key}: check failed: {type(exc).__name__}: {exc}")
            continue
        bad = reference.mismatches(values)
        if bad:
            res.failed += 1
            log(f"{op.key}: differs from reference at {', '.join(bad)}")
        res.observed.update(values)
    return res


# ---------------------------------------------------------------------------
# lowwidth-families
# ---------------------------------------------------------------------------


def coordinate_major(meta) -> list[int]:
    """Main vertices coordinate by coordinate (layers in order), then the
    auxiliary vertices layer by layer."""
    order = [
        meta.main_vertex(layer, c)
        for c in range(1, meta.coords + 1)
        for layer in range(1, meta.p + 1)
    ]
    order += [
        meta.aux_vertex(layer, gap)
        for layer in range(1, meta.p + 1)
        for gap in range(1, meta.coords)
    ]
    return order


LOWWIDTH_EXACT_GRIDS = ((3, 3, 1), (3, 1, 3), (5, 2, 1), (2, 2, 2))
LOWWIDTH_THREADS = (3, 4)
LOWWIDTH_ORDER_GRIDS = ((3, 2, 2), (2, 3, 2), (3, 4, 1), (5, 3, 1))
SMOKE_EXACT_GRIDS = ((2, 2, 1), (3, 1, 2))
SMOKE_THREADS = (3,)
SMOKE_ORDER_GRIDS = ((3, 2, 1),)


class LowwidthFamilies:
    """Structured graphs of small width, where pruning has most to win."""

    name = "lowwidth-families"
    reports_tail = False

    def __init__(self, mods, seed: int, smoke: bool):
        self.m = mods
        self.seed = seed
        gen = mods["generators"]
        exact_grids = SMOKE_EXACT_GRIDS if smoke else LOWWIDTH_EXACT_GRIDS
        threads = SMOKE_THREADS if smoke else LOWWIDTH_THREADS
        order_grids = SMOKE_ORDER_GRIDS if smoke else LOWWIDTH_ORDER_GRIDS
        self.exact = [
            (f"skew_grid{pqr}", gen.skew_grid(*pqr)[0]) for pqr in exact_grids
        ]
        self.threads = [(f"clique_thread({r})", gen.clique_thread(r))
                        for r in threads]
        self.ordered = []
        for pqr in order_grids:
            g, meta = gen.skew_grid(*pqr)
            self.ordered.append((f"skew_grid{pqr}", g, {
                "layer": meta.layer_major_ordering(),
                "coord": coordinate_major(meta),
            }))
        self.ops = self._ops()

    def _exact_op(self, name, g, variant) -> Op:
        width = self.m["width"]

        def check(rep):
            expect(rep.value == width.width_of_ordering(g, rep.witness, variant)[0],
                   "witness width differs from the reported width")
            return {f"exact_width/{variant.value}/{name}": rep.value}

        return Op(f"exact_width/{variant.value}/{name}",
                  lambda: width.exact_width(g, variant), check)

    def _ops(self) -> list[Op]:
        width, obdd, traces = self.m["width"], self.m["obdd"], self.m["traces"]
        variants = list(width.WidthVariant)
        lu = width.WidthVariant.LU
        ops = []
        for name, g in self.exact:
            ops += [self._exact_op(name, g, v) for v in variants]
        ops += [self._exact_op(name, g, lu) for name, g in self.threads]
        for name, g, orders in self.ordered:
            for oname, order in orders.items():
                tag = f"{name}/{oname}"
                for v in variants:
                    key = f"width_of_ordering/{v.value}/{tag}"
                    ops.append(Op(
                        key,
                        lambda g=g, o=order, v=v: width.width_of_ordering(g, o, v),
                        check_ordering_width(key),
                    ))

                def build(g=g, o=order):
                    z = obdd.build_obdd(g, o)
                    return z, obdd.count_accepting(z)

                def check_build(out, g=g, tag=tag):
                    z, count = out
                    expect(count == obdd.count_satisfying(g, limit=g.n),
                           "count_accepting differs from count_satisfying")
                    return {f"obdd/{tag}": [z.size_quasi, z.size_total, count]}

                ops.append(Op(f"build_obdd+count_accepting/{tag}", build,
                              check_build))

                def prefix_traces(g=g, o=order):
                    counts, wmask = [], 0
                    for v in o:
                        wmask |= 1 << v
                        counts.append(len(traces.trace_masks(g, wmask)))
                    return counts

                def check_traces(counts, tag=tag):
                    expect(counts[-1] == 1, "full prefix leaves one trace")
                    return {f"prefix_traces/{tag}": counts}

                ops.append(Op(f"trace_masks/{tag}", prefix_traces, check_traces))
        for name, g, _ in self.ordered:
            def check_heur(out, g=g, name=name):
                value, order = out
                expect(value == width.width_of_ordering(g, order, lu)[0],
                       "heuristic order width differs from its value")
                return {f"heuristic_width_upper/lu/{name}/seed{self.seed}": value}

            ops.append(Op(
                f"heuristic_width_upper/lu/{name}",
                lambda g=g: width.heuristic_width_upper(g, lu, seed=self.seed),
                check_heur,
            ))
        return ops

    def run_pass(self, reference: Reference, log) -> PassResult:
        return run_ops(self.ops, reference, log)


# ---------------------------------------------------------------------------
# dense-random
# ---------------------------------------------------------------------------

DENSE_NS = (14, 14, 15, 15)
SMOKE_DENSE_NS = (8, 9)
DENSE_P = 0.4


class DenseRandom:
    """Dense random graphs: no structure to prune, full 2^n tables."""

    name = "dense-random"
    reports_tail = False

    def __init__(self, mods, seed: int, smoke: bool):
        self.m = mods
        ns = SMOKE_DENSE_NS if smoke else DENSE_NS
        gen = mods["generators"]
        self.graphs = [
            (f"n{n}-s{len(ns) * seed + i}",
             gen.random_connected_graph(n, len(ns) * seed + i, p=DENSE_P))
            for i, n in enumerate(ns)
        ]

    def _graph_ops(self, name, g) -> list[Op]:
        width, obdd = self.m["width"], self.m["obdd"]
        lu = width.WidthVariant.LU
        got = {}

        def check_width(rep):
            expect(rep.value == width.width_of_ordering(g, rep.witness, lu)[0],
                   "witness width differs from the reported width")
            got["lu"] = rep.value
            return {f"exact_width/lu/{name}": rep.value}

        def check_min(rep):
            got["min"] = rep
            return {f"min_obdd_size_exact/{name}": [rep.size_quasi, rep.size_total]}

        # One operation rebuilds both minimal OBDDs and counts: on its own
        # each call takes well under a millisecond.
        def rebuild():
            rep = got["min"]
            zq = obdd.build_obdd(g, rep.order_quasi)
            zt = obdd.build_obdd(g, rep.order_total)
            return (zq, zt, obdd.count_accepting(zq), obdd.count_accepting(zt),
                    obdd.count_satisfying(g))

        def check_rebuild(out):
            zq, zt, count_q, count_t, count = out
            rep = got["min"]
            expect(zq.size_quasi == rep.size_quasi,
                   "OBDD along order_quasi misses the minimal quasi size")
            expect(zt.size_total == rep.size_total,
                   "OBDD along order_total misses the minimal reduced size")
            expect(2 ** got["lu"] <= zq.size_quasi, "2^lu exceeds the quasi size")
            expect(count_q == count == count_t,
                   "count_accepting differs from count_satisfying")
            return {f"count_satisfying/{name}": count}

        return [
            Op(f"exact_width/lu/{name}", lambda: width.exact_width(g, lu),
               check_width),
            Op(f"min_obdd_size_exact/{name}",
               lambda: obdd.min_obdd_size_exact(g, method="dp"), check_min),
            Op(f"build_obdd+count_accepting/{name}", rebuild, check_rebuild),
        ]

    def run_pass(self, reference: Reference, log) -> PassResult:
        # Ops of one graph share results, so they are rebuilt every pass.
        ops = [op for name, g in self.graphs for op in self._graph_ops(name, g)]
        return run_ops(ops, reference, log)


# ---------------------------------------------------------------------------
# corpus-verify
# ---------------------------------------------------------------------------


class CorpusVerify:
    """harness.verify over the exhaustive corpora: thousands of calls on
    graphs with n <= 8, then a JSON export."""

    name = "corpus-verify"
    reports_tail = True  # 2,927 rows per pass

    def __init__(self, mods, seed: int, smoke: bool, out_dir: Path):
        self.m = mods
        self.smoke = smoke
        mode = "smoke-" if smoke else ""
        self.export_path = out_dir / f"verify-{mode}seed{seed}.json"
        params = SMOKE_VERIFY_PARAMS if smoke else {}
        self.spec = mods["harness"].ExperimentSpec(
            checks=VERIFY_CHECKS, seed=seed, threads=1, params=params)
        # Warm-up: the isomorphism-free corpus enumeration is cached by the
        # library and paid once per process, so it belongs to set-up.
        corpus = mods["corpus"]
        max_n = max(params.get("corpus_max_n", 6), params.get("pair_max_n", 7))
        for n in range(1, max_n + 1):
            corpus.all_graphs(n)
            corpus.connected_graphs(n)

    def run_pass(self, reference: Reference, log) -> PassResult:
        harness = self.m["harness"]
        res = PassResult()
        try:
            rows = harness.verify(self.spec)
        except Exception as exc:
            res.attempted, res.failed = 1, 1
            log(f"verify raised {type(exc).__name__}: {exc}")
            return res
        for row in rows:
            res.attempted += 1
            res.latencies_ms.append(row.wall_ms)
            if row.passed is not True or row.skipped:
                res.failed += 1
                log(f"{row.check}/{row.instance}: passed={row.passed} "
                    f"skipped={row.skipped} {row.detail}")
        counts: dict[str, int] = {}
        for row in rows:
            counts[row.check] = counts.get(row.check, 0) + 1
        # The export is one more attempted operation, checked by its digest.
        res.attempted += 1
        try:
            harness.export(rows, "json", self.export_path)
        except OSError as exc:
            res.failed += 1
            log(f"export raised {type(exc).__name__}: {exc}")
            return res
        digest = hashlib.sha256(self.export_path.read_bytes()).hexdigest()
        mode = "smoke/" if self.smoke else ""
        res.observed = {f"{mode}rows_per_check": counts,
                        f"{mode}export_sha256": digest}
        bad = reference.mismatches(res.observed)
        if bad:
            res.failed += 1
            log(f"corpus-verify differs from reference at {', '.join(bad)}")
        return res


def make_workload(name: str, mods, seed: int, smoke: bool, out_dir: Path):
    if name == LowwidthFamilies.name:
        return LowwidthFamilies(mods, seed, smoke)
    if name == DenseRandom.name:
        return DenseRandom(mods, seed, smoke)
    if name == CorpusVerify.name:
        return CorpusVerify(mods, seed, smoke, out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (LowwidthFamilies.name, DenseRandom.name, CorpusVerify.name)
