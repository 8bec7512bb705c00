"""Difference-logic engine tests: assertions, conflicts, tightest bounds, solutions."""

import random

import pytest

from htsolve import Conflict, DiffGraph, Sat, negate_diff

from oracles import brute_force_dl
from randprog import random_dl_instance

X, Y, Z = "x", "y", "z"


# basic assertions ------------------------------------------------------------


def test_single_constraint_is_sat():
    g = DiffGraph()
    assert g.assert_diff(X, Y, 3, "c1") == Sat()


def test_two_constraint_conflict_lists_both_ids():
    g = DiffGraph()
    assert g.assert_diff(X, Y, 3, "c1") == Sat()
    out = g.assert_diff(Y, X, -4, "c2")
    assert out == Conflict(("c1", "c2"))


def test_three_constraint_cycle_in_assertion_order():
    g = DiffGraph()
    assert g.assert_diff(X, Y, 1, "c1") == Sat()
    assert g.assert_diff(Y, Z, 1, "c2") == Sat()
    out = g.assert_diff(Z, X, -3, "c3")
    assert out == Conflict(("c1", "c2", "c3"))


def test_tight_but_consistent_chain():
    g = DiffGraph()
    assert g.assert_diff(X, Y, 1, "c1") == Sat()
    assert g.assert_diff(Y, Z, 1, "c2") == Sat()
    assert g.assert_diff(Z, X, -2, "c3") == Sat()
    sol = g.solution().as_dict()
    assert sol[X] - sol[Y] <= 1 and sol[Y] - sol[Z] <= 1 and sol[Z] - sol[X] <= -2


def test_self_difference():
    g = DiffGraph()
    assert g.assert_diff(X, X, 0, "c1") == Sat()
    out = g.assert_diff(X, X, -1, "c2")
    assert out == Conflict(("c2",))


def test_parallel_edges_are_kept():
    """Of parallel bounds, a pair keeps the tightest one and its id, the
    first on a tie, in either order; a later conflict cycle names that id."""
    cases = (
        ([(5, "loose"), (3, "tight")], "tight"),
        ([(3, "tight"), (5, "loose")], "tight"),
        ([(3, "first"), (3, "second")], "first"),
    )
    for bounds, kept in cases:
        g = DiffGraph()
        for k, cid in bounds:
            assert g.assert_diff(X, Y, k, cid) == Sat()
        assert g.edge_multiset() == (("y", "x", 3, kept),)
        sol = g.solution().as_dict()
        assert sol[X] - sol[Y] <= 3
        assert g.assert_diff(Y, X, -4, "back") == Conflict((kept, "back"))


# solutions ---------------------------------------------------------------------


def test_solution_is_pointwise_greatest_nonpositive():
    g = DiffGraph()
    g.assert_diff(X, Y, -1, "c1")
    assert g.solution().as_dict() == {X: -1, Y: 0}
    assert str(g.solution()) == "x=-1 y=0"


def test_solution_satisfies_every_constraint():
    rng = random.Random(31)
    for _ in range(300):
        g = DiffGraph()
        kept = []
        for n, (x, y, k) in enumerate(random_dl_instance(rng)):
            if g.assert_diff(x, y, k, f"c{n}") == Sat():
                kept.append((x, y, k))
        sol = g.solution().as_dict()
        assert all(v <= 0 for v in sol.values())
        for x, y, k in kept:
            assert sol[x] - sol[y] <= k


# negation ------------------------------------------------------------------------


def test_negate_diff_golden():
    assert negate_diff(X, Y, 3) == (Y, X, -4)
    assert negate_diff(Y, X, -4) == (X, Y, 3)


def test_negate_diff_partitions_the_plane():
    for k in range(-4, 5):
        nx, ny, nk = negate_diff(X, Y, k)
        assert (nx, ny) == (Y, X)
        for vx in range(-6, 7):
            for vy in range(-6, 7):
                original = vx - vy <= k
                negated = vy - vx <= nk
                assert original != negated


# rejected bounds and ids -----------------------------------------------------------


def test_graph_stays_usable_after_conflict():
    g = DiffGraph()
    assert g.assert_diff(X, Y, 0, "c1") == Sat()
    assert g.assert_diff(Y, X, 0, "c2") == Sat()
    before = g.edge_multiset()
    assert g.assert_diff(X, Y, -1, "c3") == Conflict(("c2", "c3"))
    # the rejected bound added nothing
    assert g.edge_multiset() == before
    assert g.assert_diff(X, Z, 2, "c4") == Sat()
    assert g.assert_diff(Z, Y, -1, "c5") == Sat()
    sol = g.solution().as_dict()
    for x, y, k in ((X, Y, 0), (Y, X, 0), (X, Z, 2), (Z, Y, -1)):
        assert sol[x] - sol[y] <= k


def test_duplicate_constraint_id_rejected_per_level():
    """An id may be used once per graph, also after a rejected bound."""
    g = DiffGraph()
    g.assert_diff(X, Y, 1, "c1")
    with pytest.raises(ValueError, match="duplicate constraint id"):
        g.assert_diff(Y, Z, 1, "c1")
    assert g.assert_diff(Y, X, -2, "c2") == Conflict(("c1", "c2"))
    with pytest.raises(ValueError, match="duplicate constraint id"):
        g.assert_diff(Y, Z, 1, "c2")
    assert g.assert_diff(Y, Z, 1, "c3") == Sat()


# differential against the windowed brute-force oracle ------------------------------


def _assert_batch(constraints):
    """Assert a batch into a fresh graph; (graph, verdict, cycle_or_None)."""
    g = DiffGraph()
    for n, (x, y, k) in enumerate(constraints):
        out = g.assert_diff(x, y, k, n)
        if isinstance(out, Conflict):
            return g, False, out.cycle
    return g, True, None


def test_verdicts_match_brute_force():
    rng = random.Random(33)
    for _ in range(400):
        constraints = random_dl_instance(rng)
        g, sat, cycle = _assert_batch(constraints)
        oracle = brute_force_dl(constraints)
        if sat:
            assert oracle is not None, f"engine sat, oracle unsat: {constraints}"
            sol = g.solution().as_dict()
            for x, y, k in constraints:
                assert sol[x] - sol[y] <= k
        else:
            assert oracle is None, f"engine conflict, oracle sat: {constraints}"


def test_reported_cycles_are_negative_closed_walks():
    rng = random.Random(34)
    found = 0
    while found < 150:
        constraints = random_dl_instance(rng)
        g, sat, cycle = _assert_batch(constraints)
        if sat:
            continue
        found += 1
        rows = [constraints[cid] for cid in cycle]
        assert sum(k for _, _, k in rows) < 0
        # each constraint x - y <= k is an edge y -> x; a closed walk balances degrees
        degree = {}
        for x, y, _ in rows:
            degree[y] = degree.get(y, 0) + 1
            degree[x] = degree.get(x, 0) - 1
        assert all(d == 0 for d in degree.values()), (cycle, rows)
