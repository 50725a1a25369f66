import hashlib
import importlib
import itertools
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mimlab.errors import BudgetExceededError
from mimlab.generators import random_connected_graph
from mimlab.graph import (
    _budget_scope,
    max_induced_cut_matching,
    neighborhood_mask,
    vertices_of,
)
from mimlab.harness import (
    CHECK_NAMES,
    ExperimentSpec,
    ReportRow,
    _chunks,
    _trace_bound_fails,
    any_failures,
    any_skipped,
    connected_corpus,
    export,
    full_corpus,
    grid_prefix_trace_floor,
    rows_to_dicts,
    run_corona,
    run_grid_width_range,
    run_horizontal_traces,
    run_obdd_sandwich,
    run_rest_cuts,
    run_separation,
    run_shrink,
    run_subfunction_traces,
    run_trace_bound,
    run_vc,
    sandwich_instances,
    verify,
)
from mimlab.obdd import subfunction_count
from mimlab.traces import (
    _enum_nodes,
    _mask_tables,
    _rest_cuts,
    _trace_bound_report,
    independent_set_masks,
    trace_count_bound_check,
    trace_masks,
)

from conftest import N9_GRAPHS, independent_rest_cuts


class TestSpec:
    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(checks=("nonsense",))

    def test_no_checks_rejected(self):
        with pytest.raises(ValueError, match="no check requested"):
            ExperimentSpec(checks=())

    def test_unknown_param_rejected(self):
        # a typo for corona_ks must not run the corona defaults
        with pytest.raises(ValueError, match="'corona_k'"):
            verify(ExperimentSpec(checks=("corona",),
                                  params={"corona_k": (3,)}))

    def test_threads_param_rejected(self):
        # no suite reads a "threads" parameter, so the generic check
        # refuses it
        with pytest.raises(ValueError,
                           match="unknown verify parameter 'threads'"):
            ExperimentSpec(checks=("vc",), params={"threads": 4})

    def test_threads_other_than_one_rejected(self):
        # verify runs serially; the field only takes the value 1
        assert ExperimentSpec(checks=("vc",), threads=1).threads == 1
        with pytest.raises(ValueError, match="threads=4"):
            ExperimentSpec(checks=("vc",), threads=4)

    @pytest.mark.parametrize("key", ["corpus_max_n", "pair_max_n"])
    def test_corpus_over_the_cap_rejected(self, key):
        assert ExperimentSpec(checks=("vc",), params={key: 8}).params == \
            {key: 8}
        with pytest.raises(ValueError, match=f"{key}=9: .*capped at n=8"):
            ExperimentSpec(checks=("vc",), params={key: 9})

    def test_param_of_unrequested_suite_accepted(self):
        spec = ExperimentSpec(checks=("corona",),
                              params={"corpus_max_n": 4, "corona_ks": (3,)})
        assert [r.check for r in verify(spec)] == ["corona"]

    def test_verify_calls_the_module_attribute(self, monkeypatch):
        # verify resolves each suite when it runs, so a wrapper put on the
        # module attribute (as the benchmark's tracer does) is called.
        import mimlab.harness as harness

        calls = []
        real = harness.run_vc

        def wrapped(**kwargs):
            calls.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(harness, "run_vc", wrapped)
        rows = verify(ExperimentSpec(checks=("vc",), seed=3,
                                     params={"vc_skew_qs": (2,),
                                             "vc_matching_ks": (2,)}))
        assert calls == [{"seed": 3, "skew_qs": (2,), "matching_ks": (2,)}]
        assert rows and all(r.check == "vc" for r in rows)

    def test_verify_small(self):
        spec = ExperimentSpec(
            checks=("corona", "vc"),
            params={"corona_ks": (3,), "vc_skew_qs": (2,),
                    "vc_matching_ks": (2,)},
        )
        rows = verify(spec)
        assert rows
        assert not any_failures(rows)
        assert rows == sorted(rows, key=lambda r: (r.check, r.instance))


class TestDeterminism:
    def test_identical_spec_identical_csv(self, tmp_path):
        spec = ExperimentSpec(
            checks=("horizontal-traces", "corona"),
            seed=0,
            params={"corona_ks": (3, 4)},
        )
        paths = []
        for i in range(2):
            rows = verify(spec)
            p = tmp_path / f"out{i}.csv"
            export(rows, "csv", p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_every_check_stamps_the_run_seed(self, tmp_path):
        # Seed 3, not ReportRow's default 0, so a row that missed the
        # run's seed would show; any change to a row changes the digest.
        spec = ExperimentSpec(checks=CHECK_NAMES, seed=3, params={
            "corpus_max_n": 4, "pair_max_n": 5, "random_ns": (6,),
            "random_count": 3, "horizontal_cases": ((3, 2, 1),),
            "mixed_picks": 2, "grid_trace_cases": ((2, 1),),
            "grid_width_cases": ((2, 1),), "separation_rs": (3,),
            "corona_ks": (3,), "vc_skew_qs": (1, 2), "vc_matching_ks": (1, 2),
        })
        rows = verify(spec)
        assert {r.check for r in rows} == set(CHECK_NAMES)
        assert all(r.seed == 3 for r in rows)
        p = tmp_path / "rows.json"
        export(rows, "json", p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == \
            "790e25eb3fe2ada65e94e6dea1aa33f8eb48822b164e09e0bb58cd0e89133196"


class TestExport:
    def test_empty_rows_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        export([], "csv", p)
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("check,instance,")

    def test_one_row_two_lines(self, tmp_path):
        p = tmp_path / "one.csv"
        export([ReportRow(check="vc", instance="x", n=1, m=0)], "csv", p)
        assert len(p.read_text().strip().splitlines()) == 2

    def test_json_round_trip(self, tmp_path):
        rows = run_corona(ks=(3,))
        p = tmp_path / "rows.json"
        export(rows, "json", p)
        data = json.loads(p.read_text())
        p2 = tmp_path / "rows2.json"
        with open(p2, "w") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
        assert json.loads(p2.read_text()) == data

    @pytest.mark.parametrize("timing", [False, True])
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_json_bytes_are_indented_json_dump(self, tmp_path, timing, count):
        # the third row has a non-ASCII character and a quote in its name
        rows = (run_corona(ks=(3, 4)) + [ReportRow(
            check="vc", instance="x\u00e9\"", n=1, m=0, wall_ms=0.1)])[:count]
        p = tmp_path / "rows.json"
        export(rows, "json", p, include_timing=timing)
        with open(tmp_path / "want.json", "w", encoding="utf-8") as fh:
            json.dump(rows_to_dicts(rows, timing), fh, indent=2)
            fh.write("\n")
        assert p.read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            export([], "xml", tmp_path / "x")

    def test_timing_column_optional(self, tmp_path):
        p = tmp_path / "t.csv"
        export([ReportRow(check="vc", instance="x", n=1, m=0)], "csv", p,
               include_timing=True)
        assert "wall_ms" in p.read_text().splitlines()[0]


def _cuts_with_pairs(g):
    """(umask, comp, r, subsets, traces, family) per cut of g: the cut,
    the cut's pairs (S, trace) and its family from `_rest_cuts` over g
    alone."""
    cuts = list(independent_rest_cuts(g))
    tables = _chunk_cuts(g.n, [g.adj])
    for k, (umask, comp, r) in enumerate(cuts):
        at = tables.cut == k
        yield (umask, comp, r, tables.sets[at].tolist(),
               tables.trace[at].tolist(),
               set(np.flatnonzero(tables.family[k]).tolist()))


def _chunk_cuts(n, adjs):
    """`_rest_cuts` of a chunk of graphs on n vertices."""
    return _rest_cuts(n, adjs, _mask_tables(n, adjs))


def _per_graph(cuts):
    """Per graph of a `_rest_cuts` result: its first cut's number, its
    rest sides and its r values."""
    ends = np.cumsum(cuts.lens).tolist()
    return [(lo, cuts.comp[lo:hi].tolist(), cuts.r[lo:hi].tolist())
            for lo, hi in zip([0] + ends[:-1], ends)]


class TestCutContext:
    # The per-graph cut context and the pair arrays of the trace-bound and
    # shrink suites against per-cut computations, on every cut of n <= 5.
    def test_matches_per_cut_computation(self):
        for _, g in full_corpus(5):
            full = g.full_mask()
            cuts = list(independent_rest_cuts(g))
            assert [c[0] for c in cuts] == [
                full ^ comp for comp in independent_set_masks(g, full)
            ]
            for umask, comp, r, subsets, trace, family in \
                    _cuts_with_pairs(g):
                assert comp == full ^ umask
                assert subsets == list(independent_set_masks(g, umask))
                u = vertices_of(umask)
                assert r == max_induced_cut_matching(g, u)[0]
                for s, t in zip(subsets, trace):
                    assert t == neighborhood_mask(g, s) & comp
                assert family == trace_masks(g, umask)

    def test_builder_matches_the_oracles(self):
        # Every graph of n <= 7 and seeded connected graphs of n = 8, each
        # size's graphs in one call and one at a time: the rest sides in
        # `independent_set_masks` order, r by the matching search, and the
        # enumeration's nodes (`_enum_nodes`).
        by_n: dict[int, list] = {}
        for _, g in full_corpus(7):
            by_n.setdefault(g.n, []).append(g)
        by_n[8] = [random_connected_graph(8, seed) for seed in range(12)]
        cuts = 0
        for n, graphs in by_n.items():
            adjs = [g.adj for g in graphs]
            got = _per_graph(_chunk_cuts(n, adjs))
            nodes = _enum_nodes(n, _mask_tables(n, adjs)).tolist()
            for g, (_, comps, rs), ticks in zip(graphs, got, nodes,
                                                strict=True):
                assert _per_graph(_chunk_cuts(n, [g.adj])) == \
                    [(0, comps, rs)]
                assert _enum_nodes(n, _mask_tables(n, [g.adj])).tolist() \
                    == [ticks]
                full = g.full_mask()
                assert comps == list(independent_set_masks(g, full))
                assert rs == [max_induced_cut_matching(
                    g, vertices_of(full ^ comp))[0] for comp in comps]
                cuts += len(comps)
        assert cuts == 29018 + 381

    def test_builder_matches_the_oracles_at_n9(self):
        # Past the corpus: seeded n = 9 graphs in one call, the rest sides
        # against the enumeration and r against the matching search.
        got = _per_graph(_chunk_cuts(9, [g.adj for g in N9_GRAPHS]))
        for g, (_, comps, rs) in zip(N9_GRAPHS, got, strict=True):
            full = g.full_mask()
            assert comps == list(independent_set_masks(g, full))
            assert rs == [max_induced_cut_matching(
                g, vertices_of(full ^ comp))[0] for comp in comps]

    def test_ticks_are_the_enumeration_nodes(self):
        # The closed-form count is the budget `independent_set_masks` needs
        # over the whole graph: that budget passes and one less raises.
        for g in [g for _, g in full_corpus(6)] + N9_GRAPHS:
            full = g.full_mask()
            nodes = int(_enum_nodes(g.n, _mask_tables(g.n, [g.adj]))[0])
            want = list(independent_set_masks(g, full))
            assert list(independent_set_masks(g, full, budget=nodes)) == want
            with pytest.raises(BudgetExceededError, match=f"of {nodes - 1} "):
                list(independent_set_masks(g, full, budget=nodes - 1))
            with _budget_scope(nodes):
                assert [c[1] for c in independent_rest_cuts(g)] == want
            with _budget_scope(nodes - 1), \
                    pytest.raises(BudgetExceededError,
                                  match="^independent set enumeration: "):
                independent_rest_cuts(g)

    def test_trace_bound_report_matches_public_check(self):
        for _, g in full_corpus(5):
            for umask, comp, r, subsets, trace, _ in _cuts_with_pairs(g):
                small = {t for s, t in zip(subsets, trace)
                         if s.bit_count() <= r}
                rep = _trace_bound_report(g.n, umask.bit_count(),
                                          trace_masks(g, umask), r, small)
                assert rep == trace_count_bound_check(g, vertices_of(umask))



def _digest(rows):
    return hashlib.sha256(json.dumps(rows_to_dicts(rows)).encode()).hexdigest()


class TestRestCutPass:
    # trace-bound and shrink run in one pass per cut (run_rest_cuts); their
    # rows must be those of the two separate suites it replaced.

    def test_rows_pinned(self):
        # Digests recorded from the two separate suites, before the merge.
        assert _digest(run_trace_bound(6)) == \
            "c64d370d100fddd2db180ae08942936d1358e779861f22d3cf458f2b894c04e5"
        assert _digest(run_shrink(6)) == \
            "94e74cb588cbf0cbfb6064b1af992d29ff9dc089c280911db15b4af2d581459e"

    @pytest.mark.parametrize("whole_sizes", [False, True])
    def test_rows_pinned_at_any_chunk_bound(self, monkeypatch, whole_sizes):
        import mimlab.harness as harness

        # One graph per chunk, then each size's whole corpus as one chunk
        # (n <= 6 has at most 156 graphs of a size, 2^20 >> 6 allows 16,384).
        sizes = list(Counter(g.n for _, g in full_corpus(6)).values())
        monkeypatch.setattr(harness, "_CHUNK_ROWS",
                            1 << 20 if whole_sizes else 1)
        chunks = []
        real = harness._rest_cuts

        def counted(n, adjs, nbr):
            chunks.append(len(adjs))
            return real(n, adjs, nbr)

        monkeypatch.setattr(harness, "_rest_cuts", counted)
        self.test_rows_pinned()
        per_pass = sizes if whole_sizes else [1] * sum(sizes)
        assert chunks == per_pass * 2

    def test_joint_verify_equals_suites_alone(self):
        rows = verify(ExperimentSpec(checks=("trace-bound", "shrink"),
                                     params={"pair_max_n": 6}))
        alone = run_shrink(6) + run_trace_bound(6)
        assert rows_to_dicts(rows) == rows_to_dicts(alone)
        assert rows_to_dicts(run_rest_cuts(5)) == \
            rows_to_dicts(run_trace_bound(5) + run_shrink(5))

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="'vc'"):
            run_rest_cuts(3, checks=("shrink", "vc"))

    def test_one_walk_per_chunk(self, monkeypatch):
        import mimlab.harness as harness

        # `mimlab.traces` the attribute is the public function `traces`
        traces = importlib.import_module("mimlab.traces")

        # Each chunk of graphs gets one `_rest_cuts` call and one walk over
        # exactly its graphs, and no cut or prefix set a `trace_masks` call.
        def boom(*args, **kwargs):
            raise AssertionError("a per-cut trace family was built")

        chunks, walks = [], []
        real_cuts, real_walk = harness._rest_cuts, traces._prefix_traces

        def listing(n, adjs, nbr):
            chunks.append(list(adjs))
            return real_cuts(n, adjs, nbr)

        def walking(n, adjs):
            walks.append(list(adjs))
            return real_walk(n, adjs)

        monkeypatch.setattr(harness, "trace_masks", boom)
        monkeypatch.setattr(harness, "_rest_cuts", listing)
        monkeypatch.setattr(traces, "_prefix_traces", walking)
        verify(ExperimentSpec(checks=("trace-bound", "shrink"),
                              params={"pair_max_n": 5}))
        assert walks == chunks
        assert [adj for chunk in walks for adj in chunk] == \
            [g.adj for _, g in full_corpus(5)]

    @pytest.mark.parametrize("check,others", [
        ("trace-bound", ("_shrink_block",)),
        ("shrink", ("_trace_bound_fails", "_trace_bound_report")),
    ])
    def test_single_check_skips_the_other_kernel(self, monkeypatch, check,
                                                 others):
        import mimlab.harness as harness

        def boom(*args, **kwargs):
            raise AssertionError("the other check's kernel ran")

        for name in others:
            monkeypatch.setattr(harness, name, boom)
        rows = verify(ExperimentSpec(checks=(check,),
                                     params={"pair_max_n": 5}))
        assert rows and all(r.check == check and r.passed for r in rows)

    def test_verify_calls_the_shared_suite_once(self, monkeypatch):
        import mimlab.harness as harness

        calls = []
        real = harness.run_rest_cuts

        def wrapped(**kwargs):
            calls.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(harness, "run_rest_cuts", wrapped)
        # a check named twice runs once
        rows = verify(ExperimentSpec(
            checks=("shrink", "vc", "trace-bound", "shrink", "vc"), seed=2,
            params={"pair_max_n": 3, "vc_skew_qs": (1,),
                    "vc_matching_ks": (1,)}))
        assert calls == [{"seed": 2, "max_n": 3,
                          "checks": ("shrink", "trace-bound")}]
        assert len({(r.check, r.instance) for r in rows}) == len(rows)

    def test_bound_verdicts_match_the_report(self):
        # The array verdict against `_trace_bound_report` at every side
        # size k and matching size r up to n = 8, with trace counts on
        # both sides of each bound and the small-set traces equal to the
        # family or not.
        for n in range(1, 9):
            cases = []
            for k in range(n + 1):
                for r in range(k + 1):
                    rep = _trace_bound_report(n, k, set(), r, set())
                    for t in {rep.binomial_bound, rep.binomial_bound + 1,
                              rep.power_bound, rep.power_bound + 1}:
                        if t <= 1 << n:
                            cases += [(k, r, t, False), (k, r, t, True)]
            side, r, count, differs = map(np.array, zip(*cases))
            fails = _trace_bound_fails(n, side, r, count, differs)
            family = [set(range(t)) for _, _, t, _ in cases]
            assert fails.tolist() == [
                not _trace_bound_report(n, k, fam, q,
                                        fam - {0} if d else fam).all_ok
                for (k, q, _, d), fam in zip(cases, family)]

    def test_trace_bound_failure_leaves_shrink_running(self, monkeypatch):
        import mimlab.harness as harness

        # The first and the fifth of the 13 cuts of all5-0014 fail,
        # wherever its chunk puts them, and the row names the first, whose
        # report claims a broken power bound.
        corpus = full_corpus(5)
        g = corpus[-20][1]
        cuts = list(independent_rest_cuts(g))
        umask = cuts[0][0]
        real_cuts, real = harness._rest_cuts, harness._trace_bound_fails
        chosen = []  # the chosen cuts in the latest chunk, if g is in it

        def listing(n, adjs, nbr):
            tables = real_cuts(n, adjs, nbr)
            chosen[:] = [lo + comps.index(cuts[k][1]) for adj, (lo, comps, _)
                         in zip(adjs, _per_graph(tables))
                         if adj == g.adj for k in (4, 0)]
            return tables

        def failing(*args):
            fails = real(*args)
            fails[chosen] = True
            return fails

        def report(*args):
            return replace(_trace_bound_report(*args), within_power=False)

        clean_shrink = run_shrink(5)
        monkeypatch.setattr(harness, "_rest_cuts", listing)
        monkeypatch.setattr(harness, "_trace_bound_fails", failing)
        monkeypatch.setattr(harness, "_trace_bound_report", report)
        alone = run_trace_bound(5)
        joint = run_rest_cuts(5)
        bad = [r for r in alone if not r.passed]
        assert [r.instance for r in bad] == ["all5-0014"]
        assert bad[0].detail.startswith(f"violated at mask {umask}: ")
        assert "within_power=False" in bad[0].detail
        assert rows_to_dicts(joint) == rows_to_dicts(alone + clean_shrink)
        # shrink went on through the 12 cuts after the failing one
        row = {r.instance: r for r in joint if r.check == "shrink"}
        assert row["all5-0014"].passed
        assert row["all5-0014"].detail.startswith("independent sets checked=")

    def test_shrink_failure_leaves_trace_bound_running(self, monkeypatch):
        import mimlab.harness as harness

        # The third of the 13 cuts of all5-0014 fails at its first set.
        name, g = full_corpus(5)[-20]
        umask, comp = list(independent_rest_cuts(g))[2][:2]
        real_cuts, real = harness._rest_cuts, harness._shrink_block
        chosen = []  # the chosen cut in the latest chunk, if g is in it

        def listing(n, adjs, nbr):
            tables = real_cuts(n, adjs, nbr)
            chosen[:] = [lo + comps.index(comp) for adj, (lo, comps, _)
                         in zip(adjs, _per_graph(tables)) if adj == g.adj]
            return tables

        def lying(tables):
            # no set of the chosen cut enables, as far as the suite reads
            out, enables = real(tables)
            for cut in chosen:
                enables[tables.cut == cut] = False
            return out, enables

        clean_bound = run_trace_bound(5)
        monkeypatch.setattr(harness, "_rest_cuts", listing)
        monkeypatch.setattr(harness, "_shrink_block", lying)
        alone = run_shrink(5)
        joint = run_rest_cuts(5)
        bad = [r for r in alone if not r.passed]
        assert [(r.instance, r.detail) for r in bad] == \
            [(name, f"failed at cut {umask} set 0")]
        assert rows_to_dicts(joint) == rows_to_dicts(clean_bound + alone)
        # trace-bound went on through all 13 cuts
        row = {r.instance: r for r in joint if r.check == "trace-bound"}
        assert row[name].passed and row[name].detail == "cuts checked=13"

    def test_missed_trace_fails_shrink(self, monkeypatch):
        import mimlab.harness as harness

        # The tenth cut of all5-0014 gets a family with one trace that no
        # independent set leaves: every set still shrinks correctly, so
        # only the comparison of the enabling sets with the family fails.
        name, g = full_corpus(5)[-20]
        umask, comp, r = list(independent_rest_cuts(g))[9]
        real = harness._rest_cuts
        extra = next(t for t in range(comp + 1)
                     if not t & ~comp and t not in trace_masks(g, umask))

        def padded(n, adjs, nbr):
            tables = real(n, adjs, nbr)
            for adj, (lo, comps, _) in zip(adjs, _per_graph(tables)):
                if adj is g.adj:
                    tables.family[lo + comps.index(comp), extra] = True
            return tables

        clean = {row.instance: row for row in run_shrink(5)}
        monkeypatch.setattr(harness, "_rest_cuts", padded)
        alone = run_shrink(5)
        bad = [row for row in alone if not row.passed]
        assert [(row.instance, row.detail) for row in bad] == [
            (name, f"enabling sets of size <= {r} miss a trace at cut {umask}")
        ]
        assert (umask, extra, r) == (19, 8, 1)
        assert clean[name].detail == "independent sets checked=99"
        rest = [row for row in alone if row.passed]
        assert rows_to_dicts(rest) == \
            rows_to_dicts([clean[row.instance] for row in rest])
        # with trace-bound failing at the same cut the graph's pass stops
        joint = run_rest_cuts(5)
        row = {(x.check, x.instance): x for x in joint}
        assert row["trace-bound", name].detail.startswith(
            f"violated at mask {umask}: ")
        assert row["shrink", name].detail == bad[0].detail


class TestChunks:
    @pytest.mark.parametrize("rows", [1, 1 << 11, 1 << 20])
    def test_chunks_keep_order_and_never_mix_sizes(self, monkeypatch, rows):
        import mimlab.harness as harness

        # Each run of one size is cut every max(1, rows >> n) graphs, and a
        # size that comes back later (n = 1 and 2 after n = 7) starts anew.
        monkeypatch.setattr(harness, "_CHUNK_ROWS", rows)
        graphs = [g for _, g in full_corpus(7)]
        graphs += graphs[:3]
        chunks = list(_chunks(graphs))
        assert [id(g) for _, chunk in chunks for g in chunk] == \
            [id(g) for g in graphs]
        for n, chunk in chunks:
            assert chunk and all(g.n == n for g in chunk)
            assert len(chunk) <= max(1, rows >> n)
        # only a size's last chunk is short
        for (n, chunk), (m, _) in itertools.pairwise(chunks):
            assert n != m or len(chunk) == max(1, rows >> n)
        assert [n for n, _ in itertools.groupby(n for n, _ in chunks)] == \
            [1, 2, 3, 4, 5, 6, 7, 1, 2]


class TestSubfunctionTraces:
    def test_walk_chunks_cover_the_corpus(self, monkeypatch):
        import mimlab.harness as harness

        # One walk per chunk (`_chunks`), in corpus order, and no
        # `trace_masks` call per prefix set.
        def boom(*args, **kwargs):
            raise AssertionError("a per-prefix trace family was built")

        walks = []
        real = harness._prefix_traces

        def walking(n, adjs):
            walks.append((n, list(adjs)))
            return real(n, adjs)

        monkeypatch.setattr(harness, "trace_masks", boom)
        monkeypatch.setattr(harness, "_prefix_traces", walking)
        rows = run_subfunction_traces(6)
        assert rows and not any_failures(rows)
        assert [adj for _, adjs in walks for adj in adjs] == \
            [g.adj for _, g in connected_corpus(6)]
        assert all(len(adj) == n for n, adjs in walks for adj in adjs)
        # conn2 .. conn6 have 1, 2, 6, 21 and 112 graphs; conn6 goes in
        # chunks of 2^11 >> 6 = 32
        assert harness._CHUNK_ROWS == 1 << 11
        assert [len(adjs) for _, adjs in walks] == \
            [1, 2, 6, 21, 32, 32, 32, 16]

    def test_mismatch_names_the_lowest_mask(self, monkeypatch):
        import mimlab.harness as harness

        # One trace too many at two prefix sets of one graph: its row names
        # the lower one, and every other row, the graph's obdd-sandwich row
        # included, stays as it was.
        name, g = connected_corpus(5)[-7]
        spec = ExperimentSpec(
            checks=("subfunction-traces", "obdd-sandwich"),
            params={"corpus_max_n": 5, "random_count": 0})
        clean = rows_to_dicts(verify(spec))
        real = harness._prefix_traces

        def spare(w):  # a trace that no independent subset of w leaves
            return next(t for t in range(1 << g.n) if t not in trace_masks(g, w))

        def injecting(*masks):
            def walk(n, adjs):
                keys = real(n, adjs)
                add = [i << 2 * n | w << n | spare(w)
                       for i, adj in enumerate(adjs) if adj is g.adj
                       for w in masks]
                return np.concatenate((keys, np.array(add, dtype=keys.dtype)))
            return walk

        for masks, low in (((22,), 22), ((22, 5), 5)):
            monkeypatch.setattr(harness, "_prefix_traces", injecting(*masks))
            rows = rows_to_dicts(verify(spec))
            t = len(trace_masks(g, low))
            assert t == subfunction_count(g, vertices_of(low))
            bad = [d for d in rows if d["passed"] is False]
            assert [(d["check"], d["instance"], d["detail"]) for d in bad] == [
                ("subfunction-traces", name,
                 f"mismatch at mask {low}: traces={t + 1} residuals={t}")]
            assert [d for d in rows if d not in bad] == \
                [d for d in clean if d["check"] != "subfunction-traces"
                 or d["instance"] != name]


@pytest.mark.slow
def test_rows_pinned_at_n8():
    # The n = 8 rows of trace-bound, shrink and subfunction-traces, as
    # digests recorded before the corpus passes shared one chunker, and of
    # obdd-sandwich, recorded while it still ran one graph at a time.
    # About 40 s, so only `pytest -m slow` runs it.
    want = json.loads((Path(__file__).parent / "digests_n8.json").read_text())
    rows = run_rest_cuts(8)
    got = {check: _digest([r for r in rows if r.check == check])
           for check in ("trace-bound", "shrink")}
    got["subfunction-traces"] = _digest(run_subfunction_traces(8))
    got["obdd-sandwich"] = _digest(
        run_obdd_sandwich(corpus_max_n=8, random_count=0))
    assert got == want


class TestSuitesSmall:
    def test_subfunction_traces(self):
        rows = run_subfunction_traces(4)
        assert rows and not any_failures(rows)

    def test_obdd_sandwich(self):
        rows = run_obdd_sandwich(corpus_max_n=4, random_ns=(), random_count=0)
        assert rows and not any_failures(rows)

    def test_horizontal(self):
        rows = run_horizontal_traces(cases=((3, 2, 1),), mixed_picks=3)
        assert not any_failures(rows)

    def test_grid_width_small(self):
        rows = run_grid_width_range(cases=((2, 1),))
        assert not any_failures(rows)
        assert rows[0].lu is not None

    def test_separation_reports_exact_values(self):
        rows = run_separation(rs=(3,))
        assert not any_failures(rows)
        assert rows[0].lu == 1
        assert rows[0].lmimw == 2

    def test_vc(self):
        rows = run_vc(skew_qs=(2,), matching_ks=(3,))
        assert not any_failures(rows)


class TestGridPrefixTraceFloor:
    def test_q2_r1_all_orderings(self):
        row = grid_prefix_trace_floor(2, 1)
        assert row.passed
        assert row.trace_count >= 2
        assert "all orderings" in row.detail

    def test_q3_r1_adversarial(self):
        row = grid_prefix_trace_floor(3, 1)
        assert row.passed
        assert row.trace_count >= 4

    def test_q1_rejected(self):
        with pytest.raises(ValueError):
            grid_prefix_trace_floor(1, 1)


class TestBudgetDiscipline:
    def test_skipped_rows_never_pass(self, monkeypatch):
        import mimlab.harness as harness

        def boom(*_args):
            raise BudgetExceededError("forced", 1)

        # Every instance here has n <= 8, so its verdicts come from
        # `_bounds_report`, fed by the chunk kernels.
        monkeypatch.setattr(harness, "_bounds_report", boom)
        rows = harness.run_obdd_sandwich(
            corpus_max_n=2, random_ns=(), random_count=0
        )
        assert rows
        for row in rows:
            assert row.skipped
            assert row.passed is None
            assert not row.exact
        assert any_skipped(rows)
        assert not any_failures(rows)

    @pytest.mark.parametrize("budget", [None, 1, 20, 200, 1000])
    def test_sandwich_chunks_skip_what_the_engines_refuse(
        self, monkeypatch, budget
    ):
        import mimlab.harness as harness

        # The chunk kernels tick what `exact_width` and the min-size DP
        # count, so a budget skips the same graphs with the same details
        # as the per-graph engines, which every graph takes when no chunk
        # fits the kernels (at 20 and 200 both kinds of skip occur).  The
        # n = 9 and 10 graphs are single DP blocks in the chunks.
        kwargs = dict(corpus_max_n=5, random_ns=(7, 8, 9, 10),
                      random_count=4)
        with _budget_scope(budget):
            chunked = rows_to_dicts(run_obdd_sandwich(**kwargs))
            monkeypatch.setattr(harness, "_DP_BLOCK_BITS", 0)
            engines = rows_to_dicts(run_obdd_sandwich(**kwargs))
        assert chunked == engines
        assert any(d["skipped"] for d in chunked) == (budget is not None)

    def test_every_suite_skips_an_exhausted_instance(self, monkeypatch):
        import mimlab.harness as harness
        from mimlab.cli import main

        corpus = full_corpus(4)
        name, target = corpus[-1]
        ticks = itertools.count(1)
        real = harness._tick_walk

        def exhausted(entries):
            # one tick per graph of each pass, in corpus order: the target
            # is the last graph
            if next(ticks) % len(corpus) == 0:
                raise BudgetExceededError("forced", 1)
            real(entries)

        spec = ExperimentSpec(checks=("trace-bound", "shrink", "vc"),
                              params={"pair_max_n": 4, "vc_skew_qs": (1,),
                                      "vc_matching_ks": (1,)})
        clean = rows_to_dicts(verify(spec))
        monkeypatch.setattr(harness, "_tick_walk", exhausted)
        rows = verify(spec)
        skipped = [r for r in rows if r.skipped]
        assert [(r.check, r.instance) for r in skipped] == \
            [("shrink", name), ("trace-bound", name)]
        for row in skipped:
            assert row.passed is None and not row.exact
            assert (row.n, row.m) == (target.n, target.m)
            assert row.detail == "forced: work budget of 1 exceeded"
        assert [d for d in rows_to_dicts(rows) if d["instance"] != name] == \
            [d for d in clean if d["instance"] != name]
        assert main(["verify", "--checks", "trace-bound,shrink",
                     "--pair-n", "4", "--strict"]) == 3


    @pytest.mark.parametrize("at", [1, 9, -2])
    def test_cut_enumeration_budget_skips_one_graph_of_a_chunk(
        self, monkeypatch, at
    ):
        import mimlab.harness as harness

        # Each graph ticks its enumeration once, in corpus order, before
        # any of its chunk's cuts is built; a graph whose enumeration
        # exceeds its budget, first, inside or last in a chunk, never
        # reaches `_rest_cuts`, gets skipped rows, and every other row
        # stays.
        corpus = full_corpus(4)
        name, target = corpus[at]
        calls = itertools.count()
        real, real_cuts = harness._tick_cuts, harness._rest_cuts
        built = []  # the adjacency masks of every graph given tables

        def exhausted(nodes):
            if next(calls) == at % len(corpus):
                raise BudgetExceededError("forced", 1)
            real(nodes)

        def listing(n, adjs, nbr):
            built.extend(adjs)
            return real_cuts(n, adjs, nbr)

        clean = rows_to_dicts(run_rest_cuts(4))
        monkeypatch.setattr(harness, "_tick_cuts", exhausted)
        monkeypatch.setattr(harness, "_rest_cuts", listing)
        rows = rows_to_dicts(run_rest_cuts(4))
        assert [(d["check"], d["instance"]) for d in rows if d["skipped"]] \
            == [("trace-bound", name), ("shrink", name)]
        assert [d for d in rows if d["instance"] != name] == \
            [d for d in clean if d["instance"] != name]
        assert [id(adj) for adj in built] == \
            [id(g.adj) for _, g in corpus if g is not target]

    def test_scoped_budget_skips_what_the_enumeration_refuses(self):
        # Under a budget scope a graph is skipped by the first budget it
        # exceeds: its cut enumeration, as `independent_set_masks` over
        # the whole graph counts it, then its walk's entries.
        budget = 20
        want = {}
        for name, g in full_corpus(4):
            try:
                list(independent_set_masks(g, g.full_mask(), budget=budget))
            except BudgetExceededError as exc:
                want[name] = str(exc)
                continue
            if sum(len(trace_masks(g, w)) for w in range(1 << g.n)) > budget:
                want[name] = (f"trace family transition: work budget of "
                              f"{budget} exceeded")
        with _budget_scope(budget):
            rows = run_rest_cuts(4)
        assert {r.instance: r.detail for r in rows if r.skipped} == want
        assert len(want) < len(full_corpus(4))
        assert {d.split(":")[0] for d in want.values()} == \
            {"independent set enumeration", "trace family transition"}

    @pytest.mark.parametrize("suite, corpus", [
        (run_subfunction_traces, connected_corpus),
        (run_rest_cuts, full_corpus),
    ])
    def test_walk_budget_skips_exactly_the_graphs_over_it(
        self, monkeypatch, suite, corpus
    ):
        import mimlab.harness as harness

        # Each graph ticks its walk's entries, sum_W |T(W)|, once: the
        # largest total passes as the budget, and one less skips exactly
        # the graphs that reach it.
        entries = {name: sum(len(trace_masks(g, w)) for w in range(1 << g.n))
                   for name, g in corpus(4)}
        top = max(entries.values())
        over = {name for name, e in entries.items() if e == top}
        monkeypatch.setattr(harness, "DEFAULT_ENUM_BUDGET", top)
        clean = suite(4)
        assert not any_skipped(clean)
        monkeypatch.setattr(harness, "DEFAULT_ENUM_BUDGET", top - 1)
        rows = suite(4)
        skipped = [r for r in rows if r.skipped]
        assert {r.instance for r in skipped} == over
        assert len(skipped) == len(over) * len({r.check for r in rows})
        assert {r.detail for r in skipped} == \
            {f"trace family transition: work budget of {top - 1} exceeded"}
        assert [d for d in rows_to_dicts(rows) if d["instance"] not in over] \
            == [d for d in rows_to_dicts(clean) if d["instance"] not in over]


class TestInstances:
    def test_sandwich_instances_well_formed(self):
        items = sandwich_instances(4, (5,), 3, seed=1)
        names = [name for name, _ in items]
        assert len(names) == len(set(names))
        assert any(name.startswith("fixture-") for name in names)
        for _, g in items:
            assert not g.isolated_vertices()


class TestCorpusNames:
    @pytest.mark.parametrize("build", [full_corpus, connected_corpus])
    def test_names_sort_as_text_in_index_order(self, build):
        # n = 8 has over 10,000 classes; n <= 7 keeps 4-digit indices
        names = [name for name, _ in build(8)]
        assert names == sorted(names)
        assert len(set(names)) == len(names)
        assert names[-1] in ("all8-12345", "conn8-11116")
        for name in names:
            stem, index = name.split("-")
            assert len(index) == (5 if stem.endswith("8") else 4)
