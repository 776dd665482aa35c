import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specpairs import (
    Graph,
    InvalidPlanError,
    SwitchingPlan,
    cospectral,
    cycle_graph,
    path_graph,
    switch,
    validate_plan,
)
from tests.conftest import random_graph


# -- plan construction ---------------------------------------------------------


def test_plan_normalizes_members():
    plan = SwitchingPlan(6, [[3, 1], (5,)])
    assert plan.classes == ((1, 3), (5,))
    assert plan.free == (0, 2, 4)


def test_plan_construction_errors():
    with pytest.raises(ValueError, match="empty"):
        SwitchingPlan(4, [[]])
    with pytest.raises(ValueError, match="out of range"):
        SwitchingPlan(4, [[0, 4]])
    with pytest.raises(ValueError, match="two classes"):
        SwitchingPlan(4, [[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="nonnegative"):
        SwitchingPlan(-3, [])


def test_plan_json_round_trip():
    plan = SwitchingPlan(5, [[0, 2], [1]])
    again = SwitchingPlan.from_json(plan.to_json())
    assert again.n == plan.n and again.classes == plan.classes
    parsed = json.loads(plan.to_json())
    assert parsed == {"n": 5, "classes": [[0, 2], [1]]}


def test_plan_from_json_errors():
    with pytest.raises(ValueError, match="JSON"):
        SwitchingPlan.from_json("{nope")
    with pytest.raises(ValueError, match="classes"):
        SwitchingPlan.from_json('{"n": 3}')
    with pytest.raises(ValueError):
        SwitchingPlan.from_json('[1, 2]')


@pytest.mark.parametrize(
    "text, match",
    [
        ('{"n": 12, "classes": 3}', "classes must be"),
        ('{"n": 12, "classes": [3]}', "class 0 must be"),
        ('{"n": null, "classes": []}', "n must be an integer"),
        ('{"n": 12.9, "classes": []}', "n must be an integer"),
        ('{"n": 12, "classes": [[0, 1.5]]}', "member must be an integer"),
        ('{"n": true, "classes": []}', "n must be an integer"),
        ('{"n": 12, "classes": [[false, 1]]}', "member must be an integer"),
        ('{"n": -2, "classes": []}', "n must be nonnegative"),
    ],
)
def test_plan_from_json_refuses_what_is_not_an_integer_plan(text, match):
    # a TypeError would escape the CLI's usage-error handling, and int()
    # would truncate 12.9 and 1.5 and read true as 1
    with pytest.raises(ValueError, match=match):
        SwitchingPlan.from_json(text)


# -- validation ------------------------------------------------------------------


def test_validate_rejects_order_mismatch():
    with pytest.raises(ValueError, match="n=3"):
        validate_plan(cycle_graph(4), SwitchingPlan(3, [[0]]))


def test_validation_collects_both_condition_kinds():
    # on the 5-path, class {0,1,2} breaks the equal-count condition inside
    # the class (vertex 1 sees two members, the others one) and leaves
    # vertex 3 adjacent to a third of the class
    g = path_graph(5)
    report = validate_plan(g, SwitchingPlan(5, [[0, 1, 2]]))
    assert not report.valid and not bool(report)
    kinds = {v.condition for v in report.violations}
    assert kinds == {"class-regularity", "free-vertex-count"}
    regs = [v for v in report.violations if v.condition == "class-regularity"]
    assert any(v.subject[0] == 1 for v in regs)
    frees = [v for v in report.violations if v.condition == "free-vertex-count"]
    assert [v.subject for v in frees] == [(3, 0)]
    assert "free vertex 3" in frees[0].detail


def test_admissible_plan_on_cycle():
    g = cycle_graph(5)
    plan = SwitchingPlan(5, [[0, 1]])
    report = validate_plan(g, plan)
    assert report.valid and bool(report) and report.violations == ()
    h = switch(g, plan)
    # each outside neighbor swaps which end of the class it sees
    assert h.has_edge(0, 2) and h.has_edge(1, 4)
    assert not h.has_edge(1, 2) and not h.has_edge(0, 4)
    assert cospectral(g, h)
    assert switch(h, plan) == g


def test_empty_class_list_is_identity():
    g = random_graph(np.random.default_rng(0), 8, 0.4)
    plan = SwitchingPlan(8, [])
    assert validate_plan(g, plan).valid
    assert switch(g, plan) == g


def test_inadmissible_plan_raises_with_report():
    g = path_graph(5)
    plan = SwitchingPlan(5, [[0, 1, 2]])
    with pytest.raises(InvalidPlanError) as exc:
        switch(g, plan)
    assert exc.value.report.violations
    assert "switching conditions" in str(exc.value)


def test_error_message_truncates_long_reports():
    # class = star center + 2 leaves: the center sees 2 class members but
    # the leaves see 1 (condition i), and every outside leaf sees exactly
    # 1 of 3 (condition ii) -- seven violations, so the message truncates
    g = Graph.from_edges(8, [(0, i) for i in range(1, 8)])
    plan = SwitchingPlan(8, [[0, 1, 2]])
    with pytest.raises(InvalidPlanError, match="and 4 more"):
        switch(g, plan)
    report = validate_plan(g, plan)
    assert len(report.violations) == 7


def test_family_plan_round_trips(vertex3, edge6, variant4):
    for fi in (vertex3, edge6, variant4):
        assert fi.gamma_prime == switch(fi.gamma, fi.plan)
        assert switch(fi.gamma_prime, fi.plan) == fi.gamma
        assert fi.gamma != fi.gamma_prime
        assert cospectral(fi.gamma, fi.gamma_prime)
        assert cospectral(fi.gamma, fi.gamma_prime, matrix="laplacian")


def test_switching_an_irregular_graph_can_change_the_laplacian_spectrum():
    edges = [(0, 2), (0, 4), (1, 3), (1, 4), (1, 7), (1, 8), (2, 4), (2, 5),
             (2, 8), (3, 4), (3, 5), (3, 7), (4, 6), (4, 7), (5, 7)]
    g = Graph.from_edges(9, edges)
    h = switch(g, SwitchingPlan(9, [range(4)]))
    assert cospectral(g, h)
    assert not cospectral(g, h, matrix="laplacian")


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=16),
)
def test_single_vertex_classes_are_always_admissible_and_inert(seed, n):
    # every free vertex sees a 1-element class fully or not at all, and a
    # singleton has no counts to balance, so nothing is complemented
    g = random_graph(np.random.default_rng(seed), n, 0.5)
    plan = SwitchingPlan(n, [[0], [n - 1]])
    assert validate_plan(g, plan).valid
    assert switch(g, plan) == g
