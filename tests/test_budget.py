"""The one budget rule of the exact engines (`graph._Work`): None means
the engine's default, and anything but an integer >= 1 is a ValueError."""

import pytest

from mimlab.errors import BudgetExceededError
from mimlab.generators import fixtures, perfect_matching_graph
from mimlab.graph import DEFAULT_MATCHING_BUDGET, max_induced_cut_matching
from mimlab.obdd import min_obdd_size_exact
from mimlab.traces import (
    DEFAULT_ENUM_BUDGET,
    enum_independent_sets,
    independent_set_masks,
    trace_count_bound_check,
    trace_masks,
    traces,
    vc_dimension,
)
from mimlab.width import (
    DEFAULT_EXACT_BUDGET,
    DEFAULT_HEURISTIC_BUDGET,
    exact_width,
    heuristic_width_upper,
    prefix_width,
)

C4 = fixtures()["c4"]
# Three disjoint edges u_i - v_i; the side {u_1, u_2, u_3} leaves an
# independent rest, as `trace_count_bound_check` needs.
PM3 = perfect_matching_graph(3)
SIDE = range(3)
# Stands in for an unbounded default: far above any work done here.
UNBOUNDED = 1 << 62

# Each budgeted public function, called with a budget, and its documented
# default (generators drained, since their check runs on the first next()).
BY_ENGINE = {
    "max_induced_cut_matching": (
        lambda b: max_induced_cut_matching(PM3, SIDE, budget=b),
        DEFAULT_MATCHING_BUDGET),
    "prefix_width": (
        lambda b: prefix_width(PM3, SIDE, "lu", budget=b), UNBOUNDED),
    "exact_width": (
        lambda b: exact_width(C4, "lu", budget=b), DEFAULT_EXACT_BUDGET),
    "heuristic_width_upper": (
        lambda b: heuristic_width_upper(C4, "lu", budget=b),
        DEFAULT_HEURISTIC_BUDGET),
    "independent_set_masks": (
        lambda b: list(independent_set_masks(PM3, PM3.full_mask(), budget=b)),
        DEFAULT_ENUM_BUDGET),
    "enum_independent_sets": (
        lambda b: list(enum_independent_sets(PM3, SIDE, budget=b)),
        DEFAULT_ENUM_BUDGET),
    "trace_masks": (
        lambda b: trace_masks(PM3, 0b111, budget=b), DEFAULT_ENUM_BUDGET),
    "traces": (lambda b: traces(PM3, SIDE, budget=b), DEFAULT_ENUM_BUDGET),
    "vc_dimension": (
        lambda b: vc_dimension(traces(PM3, SIDE), budget=b),
        DEFAULT_ENUM_BUDGET),
    "trace_count_bound_check": (
        lambda b: trace_count_bound_check(PM3, SIDE, budget=b),
        DEFAULT_ENUM_BUDGET),
    "min_obdd_size_exact": (
        lambda b: min_obdd_size_exact(C4, budget=b), UNBOUNDED),
    "min_obdd_size_exact/enum": (
        lambda b: min_obdd_size_exact(C4, method="enum", budget=b),
        UNBOUNDED),
}


class TestBudgetRule:
    @pytest.mark.parametrize("budget", [0, -1, 2.5])
    @pytest.mark.parametrize("name", list(BY_ENGINE))
    def test_invalid_budget_rejected(self, name, budget):
        run, _ = BY_ENGINE[name]
        with pytest.raises(ValueError, match="budget must be at least 1"):
            run(budget)

    @pytest.mark.parametrize("name", list(BY_ENGINE))
    def test_none_is_the_default(self, name):
        run, default = BY_ENGINE[name]
        assert run(None) == run(default)


class TestMatchingBudgetThresholds:
    # Across the three crossing edges of PM3, all pairwise compatible, the
    # size search asks for 1, 2, 3 and 4 edges in 1 + 1 + 2 + 1 = 5 nodes.

    def test_prefix_width(self):
        assert prefix_width(PM3, SIDE, "lu", budget=5) == 3
        with pytest.raises(BudgetExceededError) as exc:
            prefix_width(PM3, SIDE, "lu", budget=4)
        assert str(exc.value) == \
            "prefix width search: work budget of 4 exceeded"

    def test_max_induced_cut_matching(self):
        # The witness walk adds one node for each of the first two edges
        # it keeps (the third needs no search): 5 + 2 = 7.
        size, witness = max_induced_cut_matching(PM3, SIDE, budget=7)
        assert (size, witness) == (3, [(0, 3), (1, 4), (2, 5)])
        with pytest.raises(BudgetExceededError) as exc:
            max_induced_cut_matching(PM3, SIDE, budget=6)
        assert str(exc.value) == \
            "induced matching search: work budget of 6 exceeded"
