import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilplab import ilp as ilp_module
from ilplab import lp as lp_module
from ilplab.errors import BudgetExceededError, UnboundedSearchError
from ilplab.exactla import Matrix, dot, vec
from ilplab.ilp import enumerate_integral_optima
from ilplab.instances import expected_sensitivity_pair, gen_proximity, gen_sensitivity
from ilplab.lp import StandardLp, is_feasible_point
from ilplab.measures import fuzz_cook
from ilplab.petersen import build_matching_system

from oracles import (
    brute_force_optima,
    dict_rows,
    fraction_presolve,
    fuzz_by_search,
    oracle_box,
    random_feasible_ilp,
    residual_system,
    rref,
    shallow_stack,
)


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
        assert enumerate_integral_optima(inst.lp) == ((1, 0, 4, 0),)
        alt = StandardLp(inst.lp.a, inst.alt_rhs, inst.lp.c)
        assert enumerate_integral_optima(alt) == ((0, 2, 0, 8),)

    def test_forward_substitution_optimum(self):
        assert enumerate_integral_optima(gen_sensitivity(3, 2).lp) == ((1, 0),)

    @pytest.mark.parametrize("delta", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_singletons_for_both_rhs(self, delta, d):
        inst = gen_sensitivity(delta, d)
        x, x2 = expected_sensitivity_pair(delta, d)
        got = enumerate_integral_optima(inst.lp)
        assert len(got) == 1
        assert got[0] == tuple(int(v) for v in x)
        got2 = enumerate_integral_optima(StandardLp(inst.lp.a, inst.alt_rhs, inst.lp.c))
        assert len(got2) == 1
        assert got2[0] == tuple(int(v) for v in x2)


class TestBlockFamily:
    def test_seven_optima(self):
        inst = gen_proximity(2, 3)
        got = enumerate_integral_optima(inst.lp)
        assert all(dot(inst.lp.c, vec(x)) == 0 for x in got)
        assert got == expected_block_optima(2, 3)
        assert len(got) == 7

    def test_lex_smallest(self):
        inst = gen_proximity(2, 3)
        assert enumerate_integral_optima(inst.lp)[0] == expected_block_optima(2, 3)[0]

    def test_d1_has_seven_optima(self):
        got = enumerate_integral_optima(gen_proximity(2, 1).lp)
        assert len(got) == 7

    def test_forced_chains_do_not_recurse(self):
        # 111 columns, but once the six matching columns are fixed presolve
        # forces the rest: a deep staircase cannot exhaust the stack
        with shallow_stack():
            got = enumerate_integral_optima(gen_proximity(2, 7).lp)
        assert got == expected_block_optima(2, 7)


_ENTRIES = st.sampled_from([0, 0, 1, 2, 3, -1, -2, 5])


@st.composite
def bounded_integral_systems(draw):
    """A small integral system with negative entries, negative costs, and an all-ones last row.

    The last row, x_0 + .. + x_{n-1} = U, bounds every variable by U.  The
    other rows' b is either A x for a drawn x with sum U, so the system has
    an integral point, or drawn freely (often with no integral point, or no
    point at all).  Entries 2, 3, -2 and 5 make nodes force non-integral
    values (a row 2 x_j = 1 forces 1/2) into rows that keep other columns,
    so those rows carry scales above 1, different across rows.
    """
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rows = [draw(st.lists(_ENTRIES, min_size=n, max_size=n)) for _ in range(d)]
    u = draw(st.integers(0, 4))
    if draw(st.booleans()):
        x = []
        for _ in range(n - 1):
            x.append(draw(st.integers(0, u - sum(x))))
        x.append(u - sum(x))
        b = list(Matrix(rows).mul_vec(vec(x)))
    else:
        b = draw(st.lists(st.sampled_from([0, 1, -1, 2, 3, -3, 5]), min_size=d, max_size=d))
    c = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, -2, 3]), min_size=n, max_size=n))
    return StandardLp(Matrix(rows + [[1] * n]), b + [u], c)


class TestGeneralBehaviour:
    def test_fractional_only_system_is_integrally_infeasible(self):
        lp = StandardLp(Matrix([[2]]), vec([1]), vec([0]))
        assert enumerate_integral_optima(lp) == ()

    def test_every_solution_is_feasible_and_integral(self):
        rng = random.Random(31)
        for _ in range(30):
            lp, _ = random_feasible_ilp(rng)
            got = enumerate_integral_optima(lp)
            for sol in got:
                assert is_feasible_point(lp, sol)

    def test_matches_box_brute_force(self):
        rng = random.Random(77)
        for _ in range(50):
            lp, _ = random_feasible_ilp(rng, max_dim=3, max_cols=4, max_entry=3)
            assert enumerate_integral_optima(lp) == brute_force_optima(lp, oracle_box(lp))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_matches_box_brute_force_property(self, seed):
        # a non-zero objective makes every node solve its objective bound on
        # the same residual system that coord_range then bounds
        lp, _ = random_feasible_ilp(random.Random(seed), max_dim=3, max_cols=4, max_entry=3)
        assert enumerate_integral_optima(lp) == brute_force_optima(lp, oracle_box(lp))

    @settings(max_examples=300, deadline=None)
    @given(bounded_integral_systems())
    def test_integral_systems_match_box_brute_force(self, lp):
        assert enumerate_integral_optima(lp) == brute_force_optima(lp, oracle_box(lp))

    def test_negative_entries_match_box_brute_force(self):
        # bounded by its second row alone
        lp = StandardLp(Matrix([[1, -1, 1, 0], [1, 1, 1, 1]]), vec([1, 4]), vec([1, -1, 0, 2]))
        got = enumerate_integral_optima(lp)
        assert got == ((0, 1, 2, 1),) and dot(lp.c, vec(got[0])) == 1
        assert got == brute_force_optima(lp, oracle_box(lp))

    def test_unbounded_relaxation_raises(self):
        # min x0 - x2 with x0 + x1 - x2 = 1: x0 = x2 + 1 - x1 has no finite top
        lp = StandardLp(Matrix([[1, 1, -1]]), vec([1]), vec([1, 0, -1]))
        with pytest.raises(UnboundedSearchError, match="x_0 "):
            enumerate_integral_optima(lp)

    def test_unbounded_search_detected(self):
        # the second column is in no row: only a positive cost would keep it at 0
        for cost in (0, -1):
            lp = StandardLp(Matrix([[1, 0]]), vec([1]), vec([0, cost]))
            with pytest.raises(UnboundedSearchError, match="x_1 "):
                enumerate_integral_optima(lp)

    def test_wide_systems_do_not_recurse(self):
        # x_0 + .. + x_119 = 1: every free node on the last optimum's path has
        # a free node above it, 120 deep.  The rule gives this system to the
        # DP, so the search is called directly.
        n = 120
        lp = StandardLp(Matrix([[1] * n]), vec([1]), vec([0] * n))
        with shallow_stack():
            got = ilp_module._search(lp, 10_000_000)
        assert got == tuple(sorted(tuple(int(j == i) for j in range(n)) for i in range(n)))

    def test_node_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_integral_optima(gen_proximity(2, 3).lp, node_budget=10)

    def test_nonzero_objective_keeps_all_ties(self):
        # min x1+x2 subject to x1+x2 = 2: three optimal integral points
        lp = StandardLp(Matrix([[1, 1]]), vec([2]), vec([1, 1]))
        got = enumerate_integral_optima(lp)
        assert got == ((0, 2), (1, 1), (2, 0))
        assert {dot(lp.c, vec(x)) for x in got} == {2}


class Routes:
    """Counts the enumerations each engine answers while it is installed."""

    def __init__(self, monkeypatch):
        self.dp = self.search = 0
        dp, search = ilp_module._dp_optima, ilp_module._search

        def spy_dp(*args):
            self.dp += 1
            return dp(*args)

        def spy_search(*args):
            self.search += 1
            return search(*args)

        monkeypatch.setattr(ilp_module, "_dp_optima", spy_dp)
        monkeypatch.setattr(ilp_module, "_search", spy_search)


class TestEngineRule:
    """The instance picks the engine: the DP for small non-negative integral systems, the search for the rest."""

    @pytest.mark.parametrize("generate, delta, d", [(gen_proximity, 2, 7), (gen_sensitivity, 3, 10)])
    def test_staircases_go_to_the_search(self, generate, delta, d, monkeypatch):
        # the product over b passes the limit within a few rows, before the
        # rule reads the matrix's pattern (a cached property, kept on first use)
        lp = generate(delta, d).lp
        lp = StandardLp(Matrix(lp.a.rows), lp.b, lp.c)
        assert ilp_module._dp_plan(lp, ilp_module._DP_WORK_LIMIT) is None
        assert "sparse_rows" not in vars(lp.a)
        routes = Routes(monkeypatch)
        enumerate_integral_optima(lp)
        assert (routes.dp, routes.search) == (0, 1)

    def test_fuzz_goes_mostly_to_the_dp(self, monkeypatch):
        routes = Routes(monkeypatch)
        fuzz_cook(7, 100)
        assert routes.dp > routes.search > 0

    def test_work_bound_meets_the_node_budget(self, monkeypatch):
        # b = (4, 3): 5 * 4 = 20 states; x_0, x_1, x_2 take at most 4, 2 and
        # 3 copies, so 5 + 3 + 4 = 12 arcs per state: W = 240
        lp = StandardLp(Matrix([[1, 2, 0], [0, 1, 1]]), vec([4, 3]), vec([1, 0, 1]))
        routes = Routes(monkeypatch)
        at = enumerate_integral_optima(lp, node_budget=240)
        assert (routes.dp, routes.search) == (1, 0)
        below = enumerate_integral_optima(lp, node_budget=239)
        assert (routes.dp, routes.search) == (1, 1)
        assert at == below == brute_force_optima(lp, oracle_box(lp))

    def test_work_bound_meets_the_limit(self, monkeypatch):
        # x_0 = 63: 64 states, 64 arcs each, W = 4096; a column of 64 adds
        # one arc per state, W = 4160
        assert ilp_module._DP_WORK_LIMIT == 4096
        routes = Routes(monkeypatch)
        assert enumerate_integral_optima(StandardLp(Matrix([[1]]), vec([63]), vec([1]))) == ((63,),)
        assert (routes.dp, routes.search) == (1, 0)
        lp = StandardLp(Matrix([[1, 64]]), vec([63]), vec([1, 1]))
        assert enumerate_integral_optima(lp) == ((63, 0),)
        assert (routes.dp, routes.search) == (1, 1)

    @pytest.mark.parametrize(
        "rows, b, c",
        [
            ([[1, -1]], [1], [0, 0]),
            ([[1, 1]], [-1], [0, 0]),
            ([[1, 0]], [1], [0, 0]),
            ([[1, 0]], [1], [0, -1]),
        ],
        ids=["negative-entry", "negative-b", "zero-column-free", "zero-column-negative"],
    )
    def test_refused_systems(self, rows, b, c):
        lp = StandardLp(Matrix(rows), vec(b), vec(c))
        assert ilp_module._dp_plan(lp, ilp_module._DP_WORK_LIMIT) is None

    def test_zero_column_at_no_cost_stays_unbounded(self, monkeypatch):
        routes = Routes(monkeypatch)
        with pytest.raises(UnboundedSearchError, match="x_1 "):
            enumerate_integral_optima(StandardLp(Matrix([[1, 0]]), vec([1]), vec([0, 0])))
        assert (routes.dp, routes.search) == (0, 1)

    def test_dp_output_counts_against_the_node_budget(self, monkeypatch):
        # x_0 + .. + x_9 = 3 at no cost: W = 4 * 10 * 4 = 160, but 220
        # optima, and the search visits the 10 nodes above the first one and
        # one leaf per optimum, so it needs a budget of at least 230
        lp = StandardLp(Matrix([[1] * 10]), vec([3]), vec([0] * 10))
        routes = Routes(monkeypatch)
        assert len(enumerate_integral_optima(lp, node_budget=230)) == 220
        with pytest.raises(BudgetExceededError):
            enumerate_integral_optima(lp, node_budget=229)
        assert (routes.dp, routes.search) == (2, 0)
        with pytest.raises(BudgetExceededError):
            ilp_module._search(lp, 229)

    @pytest.mark.parametrize("n", [120, 1000])
    def test_dp_wide_systems_do_not_recurse(self, n, monkeypatch):
        # x_0 + .. + x_{n-1} = 1: W = 2 * 2n <= 4096, and the backtrack from
        # b is n columns deep
        lp = StandardLp(Matrix([[1] * n]), vec([1]), vec([0] * n))
        routes = Routes(monkeypatch)
        with shallow_stack():
            got = enumerate_integral_optima(lp)
        assert routes.dp == 1
        assert got == tuple(sorted(tuple(int(j == i) for j in range(n)) for i in range(n)))


_COSTS = st.sampled_from([0, 1, -1, 2, -2, 3])


@st.composite
def dp_systems(draw):
    """A non-negative integral system with 1-3 rows and entries 0-3.

    b is A x for a drawn x >= 0, or drawn freely and often unreachable.  A
    column in no row gets a positive cost; any other column any cost,
    negative ones included.
    """
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rows = [draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)) for _ in range(d)]
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        b = list(Matrix(rows).mul_vec(vec(x)))
    else:
        b = draw(st.lists(st.integers(0, 6), min_size=d, max_size=d))
    costs = [_COSTS if any(row[j] for row in rows) else st.sampled_from([1, 2, 3]) for j in range(n)]
    return StandardLp(Matrix(rows), vec(b), vec([draw(cost) for cost in costs]))


class TestDpMatchesSearch:
    @settings(max_examples=200, deadline=None)
    @given(dp_systems())
    def test_dp_search_and_brute_force_agree(self, lp):
        plan = ilp_module._dp_plan(lp, 10**9)
        assert plan is not None
        got = ilp_module._dp_optima(*plan, 10_000_000)
        assert got == ilp_module._search(lp, 10_000_000) == brute_force_optima(lp, oracle_box(lp))


def rational_rows(live):
    """Presolve's live rows as (column, rational) lists in their order, and their right-hand sides."""
    return [[(j, F(x, s)) for j, x in row.items()] for row, _, s in live], [F(t, s) for _, t, s in live]


def minimum(prep, cost):
    """``lp._minimum`` of ``cost`` over ``prep`` as one rational, None when unbounded."""
    best = lp_module._minimum(prep, cost)
    return None if best is None else F(best[0], best[1])


class ChildSteps:
    """Compares every preparation the enumerations read while it is installed with a cold one.

    Every node below the root asks ``lp._child`` for the preparation of
    x_k = v from its parent's.  For a free x_k that is a child step, a new
    preparation; for a forced x_k it is the parent's own, so one
    preparation can serve a chain of nodes.  Each preparation the search
    makes is traced back to its system and prefix: the root's is
    ``lp._prepare_system``'s, and a child step's prefix is its parent's
    node's, then the chain's forced values, then v.  At every child step
    and every node's ``lp.residual_range`` call, the node's residual system
    (``oracles.residual_system``) is prepared cold by
    ``lp._prepare_system`` and presolved by the Fraction reference
    (``oracles.fraction_presolve``).  Presolve must match both exactly.  A
    child's tableau starts from its parent's, so it need not be the cold
    one: it must be a feasible basis of the node's own rows, and give every
    minimum the cold preparation gives.  ``steps`` counts the child steps
    and ``chained`` the nodes handed their parent's preparation.
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
            a, b, prefix = self.at(parent, k)
            got = child(parent, k, v)
            if got is parent:
                assert parent.fixed[k] == (v, 1)
                self.chained += 1
                return got
            assert k not in parent.fixed
            # a child's ``fixed`` holds x_k = v and no column of the chain below k
            assert got is None or (got.fixed[k] == (v, 1) and min(got.fixed) == k)
            self.check(a, b, prefix + (v,), got)
            self.steps += 1
            if got is not None:
                self.origin[id(got)] = (got, a, b, prefix + (v,))
            return got

        def spy_range(prep, k, cost, cutoff):
            a, b, prefix = self.at(prep, k)
            self.check(a, b, prefix, prep, cost)
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

    def check(self, a, b, prefix, got, cost=None):
        """``got`` prepares the residual of ``prefix``: its presolve is the cold one, its tableau a feasible basis.

        ``cost``, the node's objective when given, must have the cold minimum too.
        """
        rest_a, rest_b = residual_system(a, b, prefix)
        cold = lp_module._prepare_system(rest_a, rest_b)
        assert (got is None) == (cold is None)
        ref_rows, ref_rhs = dict_rows(rest_a), list(rest_b)
        ref_feasible, ref_fixed = fraction_presolve(ref_rows, ref_rhs)
        if got is None:
            return
        assert ref_feasible
        # a preparation's ``fixed`` can also hold columns of the prefix: a
        # chain's, and a child's x_k = v
        fixed, live = {j: x for j, x in got.fixed.items() if j >= len(prefix)}, got.live
        assert all(q > 0 and math.gcd(p, q) == 1 for p, q in fixed.values())
        assert fixed == cold.fixed  # as dicts: the forcing order may differ
        assert {j: F(p, q) for j, (p, q) in fixed.items()} == ref_fixed
        assert all(s > 0 for _, _, s in live)
        assert rational_rows(live) == rational_rows(cold.live)
        assert rational_rows(live) == ([list(row.items()) for row in ref_rows], ref_rhs)
        fresh = lp_module._phase1(*lp_module._cold_start(live), a.ncols) if live else (None, (), ())
        assert fresh == (cold.tableau, cold.dens, cold.basis)
        if got.tableau is None:
            assert not live
        else:
            self.check_basis(got, a.ncols)
        free = [j for j in range(len(prefix), a.ncols) if j not in fixed]
        for objective in [{j: sign} for j in free for sign in (1, -1)] + ([cost] if cost else []):
            assert minimum(got, objective) == minimum(cold, objective)

    @staticmethod
    def check_basis(got, n):
        """The tableau is a feasible basis of ``got``'s live rows [A | b], exactly."""
        rows, dens, basis = got.tableau, got.dens, got.basis
        assert len(rows) == len(dens) == len(basis)
        for row, den, bi in zip(rows, dens, basis):
            assert den > 0 and math.gcd(den, *row.values()) == 1 and 0 not in row.values()
            assert 0 <= bi < n and row.get(bi) == den
            assert row.get(lp_module._RHS, 0) >= 0
        assert all(sum(bi in row for row in rows) == 1 for bi in basis)
        tableau = [{j: F(x, den) for j, x in row.items()} for row, den in zip(rows, dens)]
        live = [{**{j: F(x, s) for j, x in row.items()}, lp_module._RHS: F(t, s)} for row, t, s in got.live]
        assert rref(tableau) == rref(live)


class TestChildPresolve:
    """A child node's presolve, started from its parent's, is the cold presolve of its residual."""

    @settings(max_examples=300, deadline=None)
    @given(bounded_integral_systems())
    def test_integral_systems(self, lp):
        with pytest.MonkeyPatch.context() as mp:
            ChildSteps(mp)
            got = enumerate_integral_optima(lp)
        assert got == brute_force_optima(lp, oracle_box(lp))

    @pytest.mark.parametrize(
        "run",
        [lambda: enumerate_integral_optima(gen_proximity(2, 5).lp), lambda: fuzz_by_search(7, 100)],
        ids=["proximity-2-5", "fuzz-seed7-100"],
    )
    def test_every_node(self, run, monkeypatch):
        steps = ChildSteps(monkeypatch)
        run()
        assert steps.steps and steps.chained  # both kinds of node occur
