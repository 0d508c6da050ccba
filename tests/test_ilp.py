import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilplab.errors import BudgetExceededError, UnboundedSearchError
from ilplab.exactla import Matrix, vec
from ilplab.ilp import enumerate_integral_optima, ilp_solve, implied_box
from ilplab.instances import expected_sensitivity_pair, gen_proximity, gen_sensitivity
from ilplab.lp import StandardLp, is_feasible_point
from ilplab.petersen import build_matching_system

from oracles import brute_force_optima, random_feasible_ilp


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

    def test_ilp_solve_forward_substitution(self):
        assert ilp_solve(gen_sensitivity(3, 2).lp) == (1, 0)

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
        assert ilp_solve(inst.lp) == expected_block_optima(2, 3)[0]

    def test_d1_has_seven_optima(self):
        got = enumerate_integral_optima(gen_proximity(2, 1).lp)
        assert len(got) == 7


class TestGeneralBehaviour:
    def test_fractional_only_system_is_integrally_infeasible(self):
        lp = StandardLp(Matrix.from_rows([[2]]), vec([1]), vec([0]))
        got = enumerate_integral_optima(lp)
        assert got.solutions == () and got.objective is None
        assert ilp_solve(lp) is None

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
