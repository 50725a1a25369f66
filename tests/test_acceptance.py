"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 10a asserts that the exact `lu` width of the threaded
cliques is 1 at r = 3 and r = 4.  The value is proven, not read off the
engine: in the row-major ordering every prefix vertex that still has a
neighbour outside the prefix lies in the last full row or in the partial
row.  Two such vertices in one row are adjacent.  A last-full-row vertex
in column j can only be matched to the vertex in column j of the partial
row's clique, which is adjacent to every partial-row vertex of the prefix.
So no cut carries an induced matching of size 2, and the ordering has
width 1; any edge forces width at least 1.  The test checks that ordering
with the brute-force oracle in `tests/oracles.py`, which shares no code
with `exact_width`.
"""

import time

import pytest

from mimlab.generators import (
    clique_corona,
    clique_thread,
    fixtures,
    perfect_matching_graph,
    skew,
)
from mimlab.graph import mask_of, max_induced_cut_matching
from mimlab.harness import (
    any_failures,
    grid_prefix_trace_floor,
    run_grid_width_range,
    run_horizontal_traces,
    run_shrink,
    run_subfunction_traces,
    run_trace_bound,
    sandwich_instances,
)
from mimlab.obdd import obdd_bounds_report, subfunction_count
from mimlab.traces import trace_masks, traces, vc_dimension
from mimlab.width import WidthVariant, exact_width, prefix_width
from oracles import naive_width_of_ordering

C4 = fixtures()["c4"]
TWO_ROWS = fixtures()["tworows"]


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance {criterion}] {status}{suffix}")


@pytest.fixture(scope="module")
def sandwich_reports():
    instances = sandwich_instances(
        corpus_max_n=6, random_ns=(7, 8), random_count=60, seed=0
    )
    return [(name, g, obdd_bounds_report(g)) for name, g in instances]


def test_criterion_01_worked_example_traces():
    t0 = time.perf_counter()
    ts = traces(C4, [0, 1])
    expected = {frozenset(), frozenset({2}), frozenset({3})}
    count = subfunction_count(C4, [0, 1])
    elapsed = time.perf_counter() - t0
    ok = ts.members == frozenset(expected) and count == 3 and elapsed < 1.0
    report("01", ok, f"traces={len(ts)} residuals={count} {elapsed:.3f}s")
    assert ts.members == frozenset(expected)
    assert count == 3
    assert elapsed < 1.0


def test_criterion_02_worked_example_widths():
    t0 = time.perf_counter()
    lu = exact_width(TWO_ROWS, WidthVariant.LU).value
    top = range(4)
    lu_top = prefix_width(TWO_ROWS, top, WidthVariant.LU)
    lmim_top = prefix_width(TWO_ROWS, top, WidthVariant.LMIM)
    elapsed = time.perf_counter() - t0
    ok = lu == 1 and lu_top == 1 and lmim_top == 2 and elapsed < 1.0
    report("02", ok, f"lu={lu} lu_top={lu_top} lmim_top={lmim_top} "
                     f"{elapsed:.3f}s")
    assert lu == 1
    assert lu_top == 1
    assert lmim_top == 2
    assert elapsed < 1.0


def test_criterion_03_residuals_equal_traces():
    t0 = time.perf_counter()
    rows = run_subfunction_traces(6)
    elapsed = time.perf_counter() - t0
    ok = bool(rows) and not any_failures(rows) and elapsed < 600
    report("03", ok, f"{len(rows)} graphs in {elapsed:.1f}s")
    assert rows
    assert not any_failures(rows)
    assert elapsed < 600


def test_criterion_04_trace_count_bounds():
    t0 = time.perf_counter()
    rows = run_trace_bound(7)
    elapsed = time.perf_counter() - t0
    ok = bool(rows) and not any_failures(rows) and elapsed < 600
    report("04", ok, f"{len(rows)} graphs in {elapsed:.1f}s")
    assert rows
    assert not any_failures(rows)
    assert elapsed < 600


def test_criterion_05_shrink_postconditions():
    t0 = time.perf_counter()
    rows = run_shrink(7)
    elapsed = time.perf_counter() - t0
    ok = bool(rows) and not any_failures(rows)
    report("05", ok, f"{len(rows)} graphs in {elapsed:.1f}s")
    assert rows
    assert not any_failures(rows)


def test_criterion_06_size_lower_bound(sandwich_reports):
    bad = [name for name, _, rep in sandwich_reports if not rep.lower_ok]
    report("06", not bad,
           f"{len(sandwich_reports)} instances; violations={bad[:3]}")
    assert not bad


def test_criterion_07_prefix_trace_power_bounds(sandwich_reports):
    bad = [
        name for name, _, rep in sandwich_reports
        if not rep.upper_mechanism_ok
    ]
    report("07", not bad,
           f"{len(sandwich_reports)} instances; violations={bad[:3]}")
    assert not bad


def test_criterion_08_horizontal_trace_floor():
    rows = run_horizontal_traces(
        cases=((3, 2, 2), (3, 3, 1)), mixed_picks=10, seed=0
    )
    ok = bool(rows) and not any_failures(rows)
    report("08", ok, "; ".join(f"{r.instance}:{r.detail}" for r in rows))
    assert rows
    assert not any_failures(rows)


def test_criterion_09_grid_width_range():
    t0 = time.perf_counter()
    rows = run_grid_width_range(cases=((2, 1), (2, 2), (3, 1)))
    elapsed = time.perf_counter() - t0
    ok = bool(rows) and not any_failures(rows)
    report("09", ok, "; ".join(
        f"{r.instance}: lu={r.lu} ({r.detail})" for r in rows
    ) + f" [{elapsed:.0f}s]")
    assert len(rows) == 3
    assert not any_failures(rows)
    exact_rows = [r for r in rows if r.lu is not None]
    assert len(exact_rows) == 3  # every case, (2,2) at n = 28 included


def test_criterion_10a_separation_constant_width_value():
    # The exact upper-subgraph width of the threaded cliques is the same
    # constant, 1, at r in {3, 4}.  Upper bound: the row-major ordering
    # (vertex (i, j) is i * r + j) has width 1, checked by the brute-force
    # oracle.  Lower bound: the graph has an edge, and at the prefix that
    # holds exactly one of its ends that edge alone is an induced matching.
    graphs = {r: clique_thread(r) for r in (3, 4)}
    values = {
        r: exact_width(g, WidthVariant.LU).value for r, g in graphs.items()
    }
    ok = all(v == 1 for v in values.values())
    report("10a", ok, f"required lu==1, measured {values}")
    for g in graphs.values():
        assert g.m > 0
        assert naive_width_of_ordering(g, range(g.n), "lu") == 1
    assert values[3] == 1
    assert values[4] == 1


def test_criterion_10b_separation_cut_width_growth():
    values = {
        r: exact_width(clique_thread(r), WidthVariant.LMIM).value
        for r in (3, 4)
    }
    ok = all(values[r] >= (r - 1) / 2 for r in values)
    report("10b", ok, f"lmimw={values}, floors={{3: 1.0, 4: 1.5}}")
    for r, v in values.items():
        assert v >= (r - 1) / 2


def test_criterion_10c_corona_trace_blowup():
    results = {}
    for k in (3, 4, 5):
        g = clique_corona(k)
        t = len(trace_masks(g, mask_of(range(k), g.n)))
        r, _ = max_induced_cut_matching(g, range(k))
        results[k] = (t, r)
    ok = all(results[k] == (2**k, 1) for k in results)
    report("10c", ok, f"{results}")
    for k, (t, r) in results.items():
        assert t == 2**k
        assert r == 1


def test_criterion_11_obdd_semantics(sandwich_reports):
    bad = [
        name for name, _, rep in sandwich_reports
        if not (rep.equivalence_ok and rep.counting_ok)
    ]
    report("11", not bad,
           f"{len(sandwich_reports)} instances; violations={bad[:3]}")
    assert not bad


def test_criterion_12_vc_dimension_cross_check():
    results = {}
    for q in (1, 2, 3, 4):
        g = skew(q)
        ts = traces(g, range(q))
        r, _ = max_induced_cut_matching(g, range(q))
        results[f"skew-{q}"] = (vc_dimension(ts), r)
    for k in (1, 2, 3, 4, 5):
        g = perfect_matching_graph(k)
        ts = traces(g, range(k))
        r, _ = max_induced_cut_matching(g, range(k))
        results[f"pmatch-{k}"] = (vc_dimension(ts), r)
    ok = all(vc == r for vc, r in results.values())
    report("12", ok, f"{results}")
    for name, (vc, r) in results.items():
        assert vc == r, name


def test_supplementary_grid_prefix_trace_floor():
    # not an acceptance criterion, but the floor behind the grid lower
    # bound is exercised at the documented parameters
    rows = [grid_prefix_trace_floor(2, 1), grid_prefix_trace_floor(3, 1)]
    ok = all(r.passed for r in rows)
    report("extra-grid-traces", ok,
           "; ".join(f"{r.instance}:{r.trace_count} {r.bound}" for r in rows))
    assert ok


def test_supplementary_separation_property_holds():
    # the separation that `mimlab verify --checks separation` checks: the
    # upper-subgraph width of the threaded cliques is the proven constant
    # 1 while the cut-graph width grows with r
    for r in (3, 4):
        g = clique_thread(r)
        lu = exact_width(g, WidthVariant.LU).value
        lmimw = exact_width(g, WidthVariant.LMIM).value
        assert lu == 1
        assert lmimw >= (r - 1) / 2
    report("extra-separation", True, "lu == 1 and lmimw >= (r-1)/2 verified")
