import math
import random
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilplab import ilp as ilp_module
from ilplab import lp as lp_module
from ilplab.errors import BudgetExceededError, UnboundedSearchError
from ilplab.exactla import Matrix, vec
from ilplab.ilp import enumerate_integral_optima, implied_box
from ilplab.instances import expected_sensitivity_pair, gen_proximity, gen_sensitivity
from ilplab.lp import StandardLp, is_feasible_point
from ilplab.measures import fuzz_cook
from ilplab.petersen import build_matching_system

from oracles import brute_force_optima, dict_rows, fraction_presolve, random_feasible_ilp


def expected_block_optima(delta, d):
    """The 1 + 6 optimal solutions of the block system, built from scratch.

    Taking no matching forces the whole first identity block to one; taking
    matching m forces the complement of its edge set.  Either way the tail
    alternates through the block recurrence.
    """
    ms = build_matching_system()
    sols = []
    for y in [None] + list(range(6)):
        head = [0] * 6
        covered = [0] * 15
        if y is not None:
            head[y] = 1
            covered = [int(ms.incidence.rows[e][y]) for e in range(15)]
        x = head + [1 - a for a in covered]
        prev = [1 - a for a in covered]
        for block in range(2, d + 1):
            nxt = [delta ** (block - 1) - delta * w for w in prev]
            x.extend(nxt)
            prev = nxt
        sols.append(tuple(x))
    return tuple(sorted(sols))


class TestStaircaseFamily:
    def test_unique_solution_examples(self):
        inst = gen_sensitivity(2, 4)
        assert enumerate_integral_optima(inst.lp).solutions == ((1, 0, 4, 0),)
        alt = StandardLp(inst.lp.a, inst.alt_rhs, inst.lp.c)
        assert enumerate_integral_optima(alt).solutions == ((0, 2, 0, 8),)

    def test_forward_substitution_optimum(self):
        assert enumerate_integral_optima(gen_sensitivity(3, 2).lp).solutions == ((1, 0),)

    @pytest.mark.parametrize("delta", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_singletons_for_both_rhs(self, delta, d):
        inst = gen_sensitivity(delta, d)
        x, x2 = expected_sensitivity_pair(delta, d)
        got = enumerate_integral_optima(inst.lp)
        assert got.exhaustive and len(got) == 1
        assert got.solutions[0] == tuple(int(v) for v in x)
        got2 = enumerate_integral_optima(StandardLp(inst.lp.a, inst.alt_rhs, inst.lp.c))
        assert len(got2) == 1
        assert got2.solutions[0] == tuple(int(v) for v in x2)


class TestBlockFamily:
    def test_seven_optima(self):
        inst = gen_proximity(2, 3)
        got = enumerate_integral_optima(inst.lp)
        assert got.objective == 0 and got.exhaustive
        assert got.solutions == expected_block_optima(2, 3)
        assert len(got) == 7

    def test_lex_smallest(self):
        inst = gen_proximity(2, 3)
        assert enumerate_integral_optima(inst.lp).solutions[0] == expected_block_optima(2, 3)[0]

    def test_d1_has_seven_optima(self):
        got = enumerate_integral_optima(gen_proximity(2, 1).lp)
        assert len(got) == 7

    def test_forced_chains_do_not_recurse(self):
        # 111 columns, but once the six matching columns are fixed presolve
        # forces the rest: the search recurses once per free variable on a
        # path, not once per column, so a deep staircase cannot exhaust the stack
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            got = enumerate_integral_optima(gen_proximity(2, 7).lp)
        finally:
            sys.setrecursionlimit(limit)
        assert got.solutions == expected_block_optima(2, 7)


_ENTRIES = st.sampled_from([0, 0, 1, 2, 3, -1, -2, F(1, 2), F(-2, 3), F(3, 2)])


@st.composite
def boxed_rational_systems(draw):
    """A small system with negative and rational entries, rational b and c, and a box.

    b is either A x for a drawn x in the box, so the system has an integral
    point there, or drawn freely (often with no integral point, or no point
    at all).  Rational rows and a rational b give rows whose integer scale
    s_i*q_i is neither 1 nor the same across rows.
    """
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    a = Matrix.from_rows([draw(st.lists(_ENTRIES, min_size=n, max_size=n)) for _ in range(d)])
    box = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if draw(st.booleans()):
        b = a.mul_vec(vec([draw(st.integers(0, u)) for u in box]))
    else:
        b = vec(draw(st.lists(st.sampled_from([0, 1, -1, 2, F(1, 2), F(-3, 2), F(5, 3)]), min_size=d, max_size=d)))
    c = vec(draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, F(1, 2), F(-2, 3)]), min_size=n, max_size=n)))
    return StandardLp(a, b, c), box


class TestGeneralBehaviour:
    def test_fractional_only_system_is_integrally_infeasible(self):
        lp = StandardLp(Matrix.from_rows([[2]]), vec([1]), vec([0]))
        got = enumerate_integral_optima(lp)
        assert got.solutions == () and got.objective is None

    def test_every_solution_is_feasible_and_integral(self):
        rng = random.Random(31)
        for _ in range(30):
            lp, _ = random_feasible_ilp(rng)
            got = enumerate_integral_optima(lp)
            for sol in got.solutions:
                assert is_feasible_point(lp, sol)

    def test_matches_box_brute_force(self):
        rng = random.Random(77)
        for _ in range(50):
            lp, _ = random_feasible_ilp(rng, max_dim=3, max_cols=4, max_entry=3)
            box = [min(u, 6) for u in implied_box(lp)]
            got = enumerate_integral_optima(lp, box=box)
            assert not got.exhaustive  # caller-supplied box
            expected_sols, expected_obj = brute_force_optima(lp, box)
            assert got.solutions == expected_sols
            assert got.objective == expected_obj

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_matches_box_brute_force_property(self, seed):
        # a non-zero objective makes every node solve its objective bound on
        # the same residual system that coord_range then bounds
        lp, _ = random_feasible_ilp(random.Random(seed), max_dim=3, max_cols=4, max_entry=3)
        box = [min(u, 5) for u in implied_box(lp)]
        got = enumerate_integral_optima(lp, box=box)
        assert (got.solutions, got.objective) == brute_force_optima(lp, box)

    @settings(max_examples=300, deadline=None)
    @given(boxed_rational_systems())
    def test_rational_systems_match_box_brute_force(self, case):
        lp, box = case
        got = enumerate_integral_optima(lp, box=box)
        assert (got.solutions, got.objective) == brute_force_optima(lp, box)

    @settings(max_examples=200, deadline=None)
    @given(boxed_rational_systems())
    def test_implied_box_matches_dense_floors(self, case):
        # the integer floor division against floor(min b_i / a_ij) on the dense rationals
        lp, _ = case
        rows = lp.a.rows
        expected = None
        if all(x >= 0 for r in rows for x in r) and all(v >= 0 for v in lp.b):
            expected = []
            for j in range(lp.n):
                bounds = [lp.b[i] / r[j] for i, r in enumerate(rows) if r[j] > 0]
                if bounds:
                    expected.append(math.floor(min(bounds)))
                elif lp.c[j] > 0:
                    expected.append(0)
                else:
                    expected = None
                    break
        assert implied_box(lp) == expected

    def test_unbounded_relaxation_prunes_nothing(self):
        # min x0 - x2 with x0 + x1 - x2 = 1: after x0 = 1 gives -1 at (1, 2, 2),
        # the node x0 = 0 has an unbounded relaxation and still holds (0, 2, 1)
        lp = StandardLp(Matrix.from_rows([[1, 1, -1]]), vec([1]), vec([1, 0, -1]))
        got = enumerate_integral_optima(lp, box=[1, 2, 2])
        assert got.solutions == ((0, 2, 1), (1, 2, 2)) and got.objective == -1

    def test_unbounded_search_detected(self):
        # second column is identically zero: no finite bound is derivable
        lp = StandardLp(Matrix.from_rows([[1, 0]]), vec([1]), vec([0, 0]))
        with pytest.raises(UnboundedSearchError):
            enumerate_integral_optima(lp)
        got = enumerate_integral_optima(lp, box=[1, 2])
        assert got.solutions == ((1, 0), (1, 1), (1, 2))

    def test_node_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_integral_optima(gen_proximity(2, 3).lp, node_budget=10)

    def test_implied_box_values(self):
        lp = gen_sensitivity(2, 2).lp
        assert implied_box(lp) == [1, 2]

    def test_nonzero_objective_keeps_all_ties(self):
        # min x1+x2 subject to x1+x2 = 2: three optimal integral points
        lp = StandardLp(Matrix.from_rows([[1, 1]]), vec([2]), vec([1, 1]))
        got = enumerate_integral_optima(lp)
        assert got.solutions == ((0, 2), (1, 1), (2, 0))
        assert got.objective == 2


def rational_rows(live):
    """Presolve's live rows as (column, rational) lists in their order, and their right-hand sides."""
    return [[(j, F(x, s)) for j, x in row.items()] for row, _, s in live], [F(t, s) for _, t, s in live]


class ChildSteps:
    """Compares every preparation the enumerations read while it is installed with a cold one.

    A child step (``lp._child``) prepares the node x_k = v of a free x_k
    from its parent's preparation; a forced variable's child reads its
    parent's preparation, so one preparation can serve a chain of nodes.
    Each preparation the search makes is traced back to its system and
    prefix: the root's is ``lp._prepare_system``'s, and a child's prefix is
    its parent's node's, then the chain's forced values, then v.  At every
    child step and every node's ``lp.residual_range`` call, the node's
    residual is presolved cold (``lp._presolve``), and by the Fraction
    reference (``oracles.fraction_presolve``) on the restricted system, and
    the preparation's tableau is compared with a fresh ``lp._phase1`` on
    its own rows.  ``steps`` counts the child steps and ``chained`` the
    nodes that read a preparation made above them.
    """

    def __init__(self, monkeypatch):
        self.steps = self.chained = 0
        self.origin = {}  # id(preparation) -> (preparation, a, b, prefix)
        root, child, node_range = ilp_module._prepare_system, ilp_module._child, ilp_module.residual_range

        def spy_root(a, b):
            prep = root(a, b)
            if prep is not None:
                self.origin[id(prep)] = (prep, a, b, ())
            return prep

        def spy_child(parent, k, v):
            assert k not in parent.fixed
            a, b, prefix = self.at(parent, k)
            got = child(parent, k, v)
            self.check(a, b, prefix + (v,), got)
            self.steps += 1
            if got is not None:
                self.origin[id(got)] = (got, a, b, prefix + (v,))
            return got

        def spy_range(prep, k, cost, cutoff):
            a, b, prefix = self.at(prep, k)
            self.check(a, b, prefix, replace(prep, fixed={j: x for j, x in prep.fixed.items() if j >= k}))
            self.chained += len(self.origin[id(prep)][3]) < k
            return node_range(prep, k, cost, cutoff)

        monkeypatch.setattr(ilp_module, "_prepare_system", spy_root)
        monkeypatch.setattr(ilp_module, "_child", spy_child)
        monkeypatch.setattr(ilp_module, "residual_range", spy_range)

    def at(self, prep, k):
        """(a, b, prefix) of the node at depth k that reads ``prep``: its own node's prefix, then forced values."""
        _, a, b, prefix = self.origin[id(prep)]
        chain = [prep.fixed[j] for j in range(len(prefix), k)]  # KeyError: a free variable was passed over
        assert all(q == 1 for _, q in chain)
        return a, b, prefix + tuple(p for p, _ in chain)

    def check(self, a, b, prefix, got):
        k = len(prefix)
        pattern = a.sparse_rows
        rhs, mults = lp_module._int_rhs(pattern, b)
        for i, ((_, pairs), q) in enumerate(zip(pattern, mults)):
            for j, num in pairs:
                if j < k:
                    rhs[i] -= q * num * prefix[j]
        cold_feasible, cold_fixed, cold_live = lp_module._presolve(pattern, k, rhs, mults)
        cold = lp_module._phase1_after(a.ncols, cold_feasible, cold_fixed, cold_live)
        assert (got is None) == (cold is None)
        ref_rows = [{j: x for j, x in row.items() if j >= k} for row in dict_rows(a)]
        ref_rhs = [F(t, s * q) for t, (s, _), q in zip(rhs, pattern, mults)]
        ref_feasible, ref_fixed = fraction_presolve(ref_rows, ref_rhs)
        assert cold_feasible == ref_feasible
        if got is None:
            return
        assert cold_feasible
        fixed, live = got.fixed, got.live
        assert all(q > 0 and math.gcd(p, q) == 1 for p, q in fixed.values())
        assert fixed == cold_fixed  # as dicts: the forcing order may differ
        assert {j: F(p, q) for j, (p, q) in fixed.items()} == ref_fixed
        assert all(s > 0 for _, _, s in live)
        assert rational_rows(live) == rational_rows(cold_live)
        assert rational_rows(live) == ([list(row.items()) for row in ref_rows], ref_rhs)
        fresh = lp_module._phase1(live, a.ncols) if live else (None, (), ())
        assert (got.tableau, got.dens, got.basis) == fresh
        assert fresh == (cold.tableau, cold.dens, cold.basis)


class TestChildPresolve:
    """A child node's presolve, started from its parent's, is the cold presolve of its residual."""

    @settings(max_examples=300, deadline=None)
    @given(boxed_rational_systems())
    def test_rational_systems(self, case):
        lp, box = case
        with pytest.MonkeyPatch.context() as mp:
            ChildSteps(mp)
            got = enumerate_integral_optima(lp, box=box)
        assert (got.solutions, got.objective) == brute_force_optima(lp, box)

    @pytest.mark.parametrize(
        "run",
        [lambda: enumerate_integral_optima(gen_proximity(2, 5).lp), lambda: fuzz_cook(7, 100)],
        ids=["proximity-2-5", "fuzz-seed7-100"],
    )
    def test_every_node(self, run, monkeypatch):
        steps = ChildSteps(monkeypatch)
        run()
        assert steps.steps and steps.chained  # both kinds of node occur
