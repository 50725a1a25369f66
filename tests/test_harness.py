import hashlib
import json
from dataclasses import replace

import pytest

from mimlab.errors import BudgetExceededError
from mimlab.graph import (
    max_induced_cut_matching,
    neighborhood_mask,
    vertices_of,
)
from mimlab.harness import (
    CHECK_NAMES,
    ExperimentSpec,
    ReportRow,
    _independent_rest_cuts,
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
from mimlab.traces import (
    _cut_pairs,
    _trace_bound_report,
    independent_set_masks,
    trace_count_bound_check,
    trace_masks,
)


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

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            export([], "xml", tmp_path / "x")

    def test_timing_column_optional(self, tmp_path):
        p = tmp_path / "t.csv"
        export([ReportRow(check="vc", instance="x", n=1, m=0)], "csv", p,
               include_timing=True)
        assert "wall_ms" in p.read_text().splitlines()[0]


def _cuts_with_pairs(g):
    """(umask, comp, r, subsets, traces) per cut of g: the cut context and
    the cut's pairs (S, trace) from `_cut_pairs` over g alone."""
    cuts = list(_independent_rest_cuts(g))
    pairs = _cut_pairs(g.n, [g.adj], [[c[1] for c in cuts]])
    for k, (umask, comp, r) in enumerate(cuts):
        at = pairs.cut == k
        yield (umask, comp, r, pairs.sets[at].tolist(),
               pairs.trace[at].tolist())


class TestCutContext:
    # The per-graph cut context and the pair arrays of the trace-bound and
    # shrink suites against per-cut computations, on every cut of n <= 5.
    def test_matches_per_cut_computation(self):
        for _, g in full_corpus(5):
            full = g.full_mask()
            cuts = list(_independent_rest_cuts(g))
            assert [c[0] for c in cuts] == [
                full ^ comp for comp in independent_set_masks(g, full)
            ]
            for umask, comp, r, subsets, trace in _cuts_with_pairs(g):
                assert comp == full ^ umask
                assert subsets == list(independent_set_masks(g, umask))
                u = vertices_of(umask)
                assert r == max_induced_cut_matching(g, u)[0]
                for s, t in zip(subsets, trace):
                    assert t == neighborhood_mask(g, s) & comp

    def test_trace_bound_report_matches_public_check(self):
        for _, g in full_corpus(5):
            for umask, comp, r, subsets, trace in _cuts_with_pairs(g):
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

        # One graph per chunk, then each size's whole corpus as one chunk.
        graphs: dict[int, list[int]] = {}  # n -> cut count of each graph
        for _, g in full_corpus(6):
            cuts = len(list(_independent_rest_cuts(g)))
            graphs.setdefault(g.n, []).append(cuts)
        cap = max(sum(k * k for k in ks) for ks in graphs.values())
        monkeypatch.setattr(harness, "_CHUNK_CELLS", cap if whole_sizes else 1)
        chunks = []
        real = harness._cut_pairs

        def counted(n, adjs, inds):
            chunks.append(len(adjs))
            return real(n, adjs, inds)

        monkeypatch.setattr(harness, "_cut_pairs", counted)
        self.test_rows_pinned()
        sizes = [len(ks) for ks in graphs.values()]
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

    def test_one_family_per_cut(self, monkeypatch):
        import mimlab.harness as harness

        calls = []
        real = harness.trace_masks

        def counted(g, umask, **kwargs):
            calls.append(umask)
            return real(g, umask, **kwargs)

        monkeypatch.setattr(harness, "trace_masks", counted)
        verify(ExperimentSpec(checks=("trace-bound", "shrink"),
                              params={"pair_max_n": 5}))
        cuts = [c[0] for _, g in full_corpus(5)
                for c in _independent_rest_cuts(g)]
        assert calls == cuts

    @pytest.mark.parametrize("check,others", [
        ("trace-bound", ("_shrink_block",)),
        ("shrink", ("_trace_bound_report",)),
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

    def test_trace_bound_failure_leaves_shrink_running(self, monkeypatch):
        import mimlab.harness as harness

        # The first of the 13 cuts of all5-0014 fails.  The check reaches
        # its cuts in the same order whether it runs alone or with shrink,
        # and every earlier graph passes, so that cut is report number k.
        corpus = full_corpus(5)
        k = 1 + sum(len(list(_independent_rest_cuts(h)))
                    for _, h in corpus[:-20])

        def failing_at(k):
            seen = [0]

            def report(*args):
                rep = _trace_bound_report(*args)
                seen[0] += 1
                return replace(rep, within_power=False) if seen[0] == k \
                    else rep
            return report

        clean_shrink = run_shrink(5)
        monkeypatch.setattr(harness, "_trace_bound_report", failing_at(k))
        alone = run_trace_bound(5)
        monkeypatch.setattr(harness, "_trace_bound_report", failing_at(k))
        joint = run_rest_cuts(5)
        umask = next(_independent_rest_cuts(corpus[-20][1]))[0]
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
        umask, comp = list(_independent_rest_cuts(g))[2][:2]
        real_pairs, real = harness._cut_pairs, harness._shrink_block
        chosen = []  # the chosen cut in the latest chunk, if g is in it

        def listing(n, adjs, inds):
            chosen[:] = [sum(map(len, inds[:i])) + ind.index(comp)
                         for i, (adj, ind) in enumerate(zip(adjs, inds))
                         if adj == g.adj]
            return real_pairs(n, adjs, inds)

        def lying(pairs):
            # no set of the chosen cut enables, as far as the suite reads
            out, enables = real(pairs)
            for cut in chosen:
                enables[pairs.cut == cut] = False
            return out, enables

        clean_bound = run_trace_bound(5)
        monkeypatch.setattr(harness, "_cut_pairs", listing)
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
        umask, comp, r = list(_independent_rest_cuts(g))[9]
        real = harness.trace_masks
        extra = next(t for t in range(comp + 1)
                     if not t & ~comp and t not in real(g, umask))

        def padded(h, mask, **kwargs):
            fam = real(h, mask, **kwargs)
            return fam | {extra} if h is g and mask == umask else fam

        clean = {row.instance: row for row in run_shrink(5)}
        monkeypatch.setattr(harness, "trace_masks", padded)
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

        def boom(_g):
            raise BudgetExceededError("forced", 1)

        monkeypatch.setattr(harness, "obdd_bounds_report", boom)
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

    def test_every_suite_skips_an_exhausted_instance(self, monkeypatch):
        import mimlab.harness as harness
        from mimlab.cli import main

        name, target = full_corpus(4)[-1]
        real = harness.trace_masks

        def exhausted(g, umask, **kwargs):
            if g.adj == target.adj:
                raise BudgetExceededError("forced", 1)
            return real(g, umask, **kwargs)

        spec = ExperimentSpec(checks=("trace-bound", "shrink", "vc"),
                              params={"pair_max_n": 4, "vc_skew_qs": (1,),
                                      "vc_matching_ks": (1,)})
        clean = rows_to_dicts(verify(spec))
        monkeypatch.setattr(harness, "trace_masks", exhausted)
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
