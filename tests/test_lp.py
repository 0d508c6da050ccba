import random
from fractions import Fraction as F
from math import ceil, floor, gcd

import pytest
from hypothesis import assume, example, find, given, settings
from hypothesis import strategies as st

from ilplab import ilp as ilp_module
from ilplab import lp as lp_module
from ilplab.exactla import Matrix, dot, vec
from ilplab.instances import FAMILIES, FAMILY_PROXIMITY, expected_sensitivity_pair, gen_proximity, gen_sensitivity
from ilplab.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, StandardLp, coord_range, is_feasible_point, lp_solve
from ilplab.measures import measure_proximity_lb

from oracles import (
    dict_rows,
    fraction_prepare,
    fraction_presolve,
    fraction_simplex,
    fuzz_by_search,
    lp_basic_solution_optimum,
    random_feasible_ilp,
    residual_system,
)


def staircase(delta, d):
    return gen_sensitivity(delta, d).lp


def restricted(lp, prefix):
    """The system left once the leading coordinates are fixed to ``prefix``."""
    k = len(prefix)
    rhs = tuple(bi - dot(row[:k], vec(prefix)) for bi, row in zip(lp.b, lp.a.rows))
    return StandardLp(Matrix(tuple(row[k:] for row in lp.a.rows)), rhs, lp.c[k:])


def prepare_cold(a, b):
    """``lp._prepare_system`` with nothing remembered, so whatever ran before, it takes the cold route."""
    lp_module._last_prepared = None
    return lp_module._prepare_system(a, b)


def answer(res):
    """What an LP result says: its status, solution and objective."""
    return res.status, res.solution, res.objective


class TestLpSolve:
    def test_staircase_2_2(self):
        res = lp_solve(staircase(2, 2))
        assert res.status == OPTIMAL
        assert res.solution == vec([1, 0])
        assert res.objective == 0

    def test_sign_infeasible(self):
        res = lp_solve(StandardLp(Matrix([[1]]), vec([-1]), vec([0])))
        assert res.status == INFEASIBLE

    def test_unbounded(self):
        lp = StandardLp(Matrix([[1, -1]]), vec([1]), vec([0, -1]))
        assert lp_solve(lp).status == UNBOUNDED

    def test_certificate_is_optimal_for_block_system(self):
        inst = gen_proximity(2, 3)
        z = FAMILIES[FAMILY_PROXIMITY].certificate(2, 3)
        assert is_feasible_point(inst.lp, z)
        res = lp_solve(inst.lp)
        assert res.status == OPTIMAL and res.objective == 0

    def test_solution_feasible_and_deterministic(self):
        lp = staircase(3, 6)
        first = lp_solve(lp)
        second = lp_solve(lp)
        assert answer(first) == answer(second)
        assert is_feasible_point(lp, first.solution)

    def test_matches_forward_substitution_on_square_systems(self):
        for delta in (1, 2, 3):
            for d in (2, 4):
                x, x2 = expected_sensitivity_pair(delta, d)
                inst = gen_sensitivity(delta, d)
                assert lp_solve(inst.lp).solution == x
                alt = StandardLp(inst.lp.a, inst.alt_rhs, inst.lp.c)
                assert lp_solve(alt).solution == x2

    def test_weak_duality_sanity(self):
        lp = staircase(2, 4)
        lo = lp_solve(lp)
        hi = lp_solve(StandardLp(lp.a, lp.b, tuple(-x for x in lp.c)))
        assert lo.status == hi.status == OPTIMAL
        assert lo.objective <= -hi.objective  # min c <= max c

    def test_matches_basic_solution_enumeration(self):
        rng = random.Random(42)
        compared = 0
        while compared < 60:
            lp, _ = random_feasible_ilp(rng)
            res = lp_solve(lp)
            assert res.status == OPTIMAL  # feasible and bounded by construction
            assert is_feasible_point(lp, res.solution)
            assert dot(lp.c, res.solution) == res.objective
            oracle = lp_basic_solution_optimum(lp)
            if oracle is None:
                continue  # rank-deficient sample; the oracle cannot price it
            assert res.objective == oracle
            compared += 1

    def test_infeasible_agreement_with_oracle(self):
        rng = random.Random(9)
        seen_infeasible = 0
        for _ in range(200):
            d, n = rng.randint(1, 3), rng.randint(1, 4)
            grid = [[rng.randint(0, 3) for _ in range(n)] for _ in range(d)]
            a = Matrix(grid)
            b = vec([rng.randint(0, 6) for _ in range(d)])
            lp = StandardLp(a, b, vec([0] * n))
            res = lp_solve(lp)
            oracle = lp_basic_solution_optimum(lp)
            if res.status == INFEASIBLE:
                seen_infeasible += 1
                assert oracle is None
            elif oracle is not None:
                assert res.status == OPTIMAL
        assert seen_infeasible > 0


@st.composite
def lp_variants(draw):
    """A random feasible LP, a second objective and a second feasible b."""
    lp, _ = random_feasible_ilp(random.Random(draw(st.integers(0, 2**32))), max_dim=3, max_cols=5)
    c2 = vec(draw(st.lists(st.integers(-2, 2), min_size=lp.n, max_size=lp.n)))
    x2 = vec(draw(st.lists(st.integers(0, 2), min_size=lp.n, max_size=lp.n)))
    return lp, c2, lp.a.mul_vec(x2)


class TestSharedPreparation:
    @settings(max_examples=80, deadline=None)
    @given(lp_variants())
    def test_reused_preparation_matches_cold_solves(self, case):
        lp, c2, b2 = case
        # consecutive solves on one matrix object: the second and the fourth
        # reuse the preparation of the solve before them
        systems = [(lp.b, lp.c), (lp.b, c2), (b2, lp.c), (b2, c2)]
        warm = [lp_solve(StandardLp(lp.a, b, c)) for b, c in systems]
        for (b, c), got in zip(systems, warm):
            cold_lp = StandardLp(Matrix(lp.a.rows), b, c)  # a fresh matrix object
            assert answer(got) == answer(lp_solve(cold_lp))
            assert got.status == OPTIMAL  # non-negative columns bound the region
            oracle = lp_basic_solution_optimum(cold_lp)
            if oracle is not None:
                assert got.objective == oracle


_ENTRIES = st.sampled_from([0, 0, 0, 1, 1, 2, 3, -1, -2, 5])
_VALUES = st.sampled_from([0, 0, 1, 2, 3])


@st.composite
def integral_systems(draw):
    """A small integral LP with zero and negative entries, and negative rhs.

    Some rows repeat another (the dominance deletion), or are a sum or a
    negative multiple of others, which keeps them past presolve as redundant
    rows that leave an artificial basic after phase 1.  Some rows hold one
    column that another row also holds, so presolve forces a value, often a
    non-integral one (2 x_j = 1 forces 1/2), into a row that keeps other
    columns.  b is either A x for a drawn x >= 0, so the system is feasible,
    or drawn freely.  Entries 2, 3, -2 and 5 keep LP optima fractional.
    """
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    grid = [draw(st.lists(_ENTRIES, min_size=n, max_size=n)) for _ in range(d)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["copy", "sum", "negative", "single"]))
        i, k = draw(st.integers(0, len(grid) - 1)), draw(st.integers(0, len(grid) - 1))
        if kind == "single":
            j = draw(st.integers(0, n - 1))
            grid[i][j] = grid[i][j] or draw(st.sampled_from([1, -1, 3]))
            coef = draw(st.sampled_from([2, 3, -2, 5]))
            grid.append([coef if col == j else 0 for col in range(n)])
        elif kind == "copy":
            grid.append(list(grid[i]))
        elif kind == "sum":
            grid.append([x + y for x, y in zip(grid[i], grid[k])])
        else:
            grid.append([-2 * x for x in grid[i]])
    a = Matrix(grid)
    if draw(st.booleans()):
        b = a.mul_vec(draw(st.lists(_VALUES, min_size=n, max_size=n)))
    else:
        b = draw(st.lists(st.sampled_from([0, 1, -1, 2, 3, -3]), min_size=a.nrows, max_size=a.nrows))
    c = draw(st.lists(st.sampled_from([0, 1, -1, 2, -2]), min_size=n, max_size=n))
    return StandardLp(a, b, c)


def assert_primitive(rows, dens):
    for row, den in zip(rows, dens):
        assert den > 0 and gcd(den, *row.values()) == 1
        assert 0 not in row.values()  # a cancelled entry is deleted, never stored


class TestIntegerCore:
    """The integer-row core against the Fraction reference route in ``oracles``."""

    def test_systems_reach_fractional_values(self):
        # the integral strategy still reaches what rational data used to
        # give: presolve forcing a non-integral value, and a fractional optimum
        def forced_fraction(lp):
            prep = lp_module._prepare_system(Matrix(lp.a.rows), lp.b)
            return prep is not None and any(q > 1 for _, q in prep.fixed.values())

        def fractional_optimum(lp):
            res = lp_solve(lp)
            return res.status == OPTIMAL and any(x.denominator > 1 for x in res.solution)

        config = settings(derandomize=True, database=None, max_examples=2_000)
        for condition in (forced_fraction, fractional_optimum):
            lp = find(integral_systems(), condition, settings=config)
            assert condition(lp) and all(type(x) is int for x in (*lp.b, *lp.c, *lp.a.rows[0]))

    @settings(max_examples=400, deadline=None)
    @given(integral_systems(), st.integers(0, 2))
    def test_presolve_matches_reference(self, lp, v):
        # the whole system, and the residual of x_0 = v with column 0 zeroed
        for prefix in [(), (v,)] if lp.n > 1 else [()]:
            a, b = residual_system(lp.a, lp.b, prefix)
            prep = prepare_cold(a, b)
            ref_rows, ref_rhs = dict_rows(a), list(b)
            ref_feasible, ref_fixed = fraction_presolve(ref_rows, ref_rhs)
            if prep is None:
                assert fraction_prepare(a, b) is None
                continue
            assert ref_feasible
            assert all(q > 0 and gcd(p, q) == 1 for p, q in prep.fixed.values())
            assert [(j, F(p, q)) for j, (p, q) in prep.fixed.items()] == list(ref_fixed.items())
            assert all(s > 0 for _, _, s in prep.live)
            # rows as (column, value) lists, so their column order is pinned too
            assert [[(j, F(x, s)) for j, x in row.items()] for row, _, s in prep.live] == [
                list(row.items()) for row in ref_rows
            ]
            assert [F(t, s) for _, t, s in prep.live] == ref_rhs

    @settings(max_examples=400, deadline=None)
    @given(integral_systems())
    def test_solve_matches_reference(self, lp):
        def checked_pivot(rows, dens, basis, pr, pc):
            pivot(rows, dens, basis, pr, pc)
            assert_primitive(rows, dens)  # the cost row, last, included
            assert all(rows[i][k] == dens[i] for i, k in enumerate(basis))

        def checked_iterate(rows, dens, basis, n_enter):
            assert_primitive(rows, dens)
            return iterate(rows, dens, basis, n_enter)

        pivot, iterate = lp_module._pivot, lp_module._iterate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp_module, "_pivot", checked_pivot)
            mp.setattr(lp_module, "_iterate", checked_iterate)
            prep = prepare_cold(lp.a, lp.b)
            got = lp_solve(lp)
        ref = fraction_prepare(lp.a, lp.b)
        if ref is None:
            assert prep is None
        else:
            fixed, free, tableau, basis = ref
            assert all(q > 0 and gcd(p, q) == 1 for p, q in prep.fixed.values())
            assert tuple((j, F(p, q)) for j, (p, q) in prep.fixed.items()) == fixed
            # the basis holds A's columns; the reference's indexes into free
            assert tuple(j for j in range(lp.n) if j not in prep.fixed) == free
            assert tuple(free.index(j) for j in prep.basis) == basis
            if tableau is None:
                assert prep.tableau is None
            else:
                assert_primitive(prep.tableau, prep.dens)
                assert all(row[k] == den for row, den, k in zip(prep.tableau, prep.dens, prep.basis))
                # densified over the free columns, right-hand side last
                keys = free + (lp_module._RHS,)
                assert all(row.keys() <= set(keys) for row in prep.tableau)
                rationals = tuple(
                    tuple(F(row.get(j, 0), den) for j in keys) for row, den in zip(prep.tableau, prep.dens)
                )
                assert rationals == tableau
        assert answer(got) == answer(fraction_simplex(lp))
        if got.status == OPTIMAL:
            oracle = lp_basic_solution_optimum(lp)
            if oracle is not None:  # None: rank-deficient, the oracle cannot price it
                assert got.objective == oracle

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_staircase_scale_matches_reference(self, d):
        # a large sparse core: at d = 7 phase 1 runs on all 105 rows, 193 pivots
        lp = gen_proximity(2, d).lp
        mixed = vec([(3 * j) % 7 - 3 for j in range(lp.n)])
        for c in (lp.c, mixed):
            system = StandardLp(lp.a, lp.b, c)
            assert answer(lp_solve(system)) == answer(fraction_simplex(system))

    @pytest.mark.parametrize(
        "run, pivots",
        [
            (lambda: measure_proximity_lb(gen_proximity(2, 7)), 224),
            (lambda: fuzz_by_search(7, 100), 1760),
        ],
        ids=["measure-prox-2-7", "fuzz-seed7-100"],
    )
    def test_pivot_work_is_pinned(self, run, pivots):
        # Cold solves make exactly the dense Fraction tableau's pivots (see
        # test_solve_matches_reference); a child's phase 1 starts from its
        # parent's basis, so its pivots are the warm start's.  The fuzz run
        # sends every enumeration to the search, which the DP would
        # otherwise take from most of its systems.
        calls = []
        pivot = lp_module._pivot

        def counted(*args):
            calls.append(1)
            pivot(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp_module, "_pivot", counted)
            run()
        assert len(calls) == pivots

    def test_node_presolve_is_incremental(self):
        # Only the relaxation's lp_solve presolves cold, and the enumeration
        # root reuses that preparation.  Every one of the 756 inner nodes is
        # bound-tested, but only the 12 children of a free variable reduce
        # from their parent's preparation; a forced variable's child is
        # handed its parent's, where every node once presolved cold.  A
        # child's dominance pass tests only the row pairs its substitutions
        # touched, and its phase 1 starts from its parent's basis.
        calls = {"reduce": 0, "range": 0, "pivot": 0, "dominates": 0}
        reduce, node_range, pivot = lp_module._reduce, ilp_module.residual_range, lp_module._pivot
        dominates = lp_module._dominates

        def counted(name, function):
            def call(*args):
                calls[name] += 1
                return function(*args)

            return call

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp_module, "_reduce", counted("reduce", reduce))
            mp.setattr(ilp_module, "residual_range", counted("range", node_range))
            mp.setattr(lp_module, "_pivot", counted("pivot", pivot))
            mp.setattr(lp_module, "_dominates", counted("dominates", dominates))
            measure_proximity_lb(gen_proximity(2, 7))
        assert calls == {"reduce": 13, "range": 756, "pivot": 224, "dominates": 13_510}


@st.composite
def residual_cases(draw):
    """An integral system, a prefix x_0..x_{k-1}, int costs and a cutoff or None."""
    lp = draw(integral_systems())
    k = draw(st.integers(0, lp.n - 1))
    prefix = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    cost = draw(st.lists(st.integers(-2, 2), min_size=lp.n, max_size=lp.n))
    return lp, prefix, cost, draw(st.none() | st.integers(-3, 3))


def cold_preparation(a, b, prefix):
    """The cold preparation of what is left of a x = b once x_0..x_{k-1} are fixed to ``prefix``."""
    return prepare_cold(*residual_system(a, b, prefix))


class TestChildReduce:
    """A child's ``_reduce`` tests only the row pairs its substitutions touched, and loses nothing by it."""

    # x_0 = 0 leaves the second row x_1 + x_2 = 1, which the first
    # dominates with a zero gap: the child's own substitution touches it
    _V_TOUCHES = StandardLp(Matrix([[0, 1, 1, 1], [1, 1, 1, 0]]), vec([1, 1]), vec([0] * 4))
    # x_0 = 1 turns the last row into x_4 + x_5 = 0, and forcing x_4 = 0
    # leaves the second row x_1 + x_2 = 1, which the first now dominates
    # with a zero gap: a row a zero is substituted into is touched too
    _ZERO_TOUCHES = StandardLp(
        Matrix([[0, 1, 1, 1, 0, 0], [0, 1, 1, 0, 1, 0], [1, 0, 0, 0, 1, 1]]), vec([1, 1, 1]), vec([0] * 6)
    )

    @settings(max_examples=400, deadline=None)
    @given(residual_cases(), st.integers(0, 3))
    @example((_V_TOUCHES, [], [0] * 4, None), 0)
    @example((_ZERO_TOUCHES, [], [0] * 6, None), 1)
    def test_matches_full_pass(self, case, v):
        lp, prefix, _, _ = case
        k = len(prefix)
        parent = cold_preparation(lp.a, lp.b, prefix)
        if parent is None or k in parent.fixed:
            return
        reduce, runs = lp_module._reduce, []

        def rows(live):
            return [(list(row.items()), t, s) for row, t, s in live]

        def compared(live, fixed, values, fresh):
            # the full pass, every row fresh, on copies of the parent's rows
            # with x_k = v substituted by hand; the unit row x_k = v, which
            # then reads 0 = 0, comes last and is left out
            parent_rows = live[: len(live) - len(fresh)]
            full_live, full_fixed = [[dict(row), t, s] for row, t, s in parent_rows], {**fixed, k: (v, 1)}
            for entry in full_live:
                entry[1] -= entry[0].pop(k, 0) * v
            want = reduce(full_live, full_fixed, {}, full_live)
            runs.append((dict(values), rows(fresh)))
            got = reduce(live, fixed, values, fresh)
            assert got == want
            assert list(fixed.items()) == list(full_fixed.items())
            assert rows(live) == rows(full_live)
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp_module, "_reduce", compared)
            lp_module._child(parent, k, v)
        # the child grows its parent by the unit row x_k = v, and nothing else
        assert runs == [({}, [([(k, 1)], v, 1)])]


@st.composite
def extended_cases(draw):
    """An integral system of two or more rows, and m: its first m rows are the head the rest extend."""
    lp = draw(integral_systems().filter(lambda lp: lp.d >= 2))
    return lp, draw(st.integers(1, lp.d - 1))


def rational_live(prep):
    """A preparation's live rows as rationals, in order, each row's columns in order too."""
    return [([(j, F(x, s)) for j, x in row.items()], F(t, s)) for row, t, s in prep.live]


@st.composite
def substituted_cases(draw):
    """An integral system and m: the rows past the first m hold only columns the head's cold presolve fixed.

    Each appended row draws entries on some of those columns (none when the
    head fixed none, an all-zero row) and is scaled so that it reads an
    integer at the head's fixed values, often fractional ones.  Its
    right-hand side is that integer, except that one row is off by a drawn
    non-zero amount when the case is drawn inconsistent.
    """
    head = draw(integral_systems())
    prep = prepare_cold(head.a, head.b)
    assume(prep is not None)
    fixed = sorted(prep.fixed)
    rows, rhs = [], []
    for _ in range(draw(st.integers(1, 2))):
        row = [0] * head.n
        for j in draw(st.lists(st.sampled_from(fixed), min_size=1, unique=True)) if fixed else ():
            row[j] = draw(_ENTRIES.filter(bool))
        value = sum((x * F(*prep.fixed[j]) for j, x in enumerate(row) if x), F(0))
        rows.append([x * value.denominator for x in row])
        rhs.append(value.numerator)
    if draw(st.booleans()):
        rhs[draw(st.integers(0, len(rhs) - 1))] += draw(st.sampled_from([1, -1, 2, -3]))
    return StandardLp(Matrix([*head.a.rows, *rows]), (*head.b, *rhs), head.c), head.d


def grow_and_compare(lp, m):
    """Prepare lp's first m rows cold, then lp from them, and check that against lp's cold preparation.

    Returns the head's preparation, the grown one and the number of
    ``_reduce`` runs the growth made.
    """
    head = Matrix(lp.a.rows[:m])
    grow, reduce, heads, presolved = lp_module._grow, lp_module._reduce, [], []

    def counted_grow(head, *args, **kwargs):
        heads.append(head)
        return grow(head, *args, **kwargs)

    def counted_reduce(*args):
        presolved.append(None)
        return reduce(*args)

    head_prep = prepare_cold(head, lp.b[:m])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp_module, "_grow", counted_grow)
        mp.setattr(lp_module, "_reduce", counted_reduce)
        got = lp_module._prepare_system(lp.a, lp.b)
        # one growth, of the head's own preparation; none when the head is infeasible
        assert len(heads) == (head_prep is not None) and all(grown is head_prep for grown in heads)
        grown_solve = lp_solve(lp)  # the same system: served by the grown preparation
    want = prepare_cold(Matrix(lp.a.rows), lp.b)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.fixed == want.fixed  # as dicts: the forcing order may differ
        assert rational_live(got) == rational_live(want)
        assert (got.tableau, got.dens, got.basis) == (want.tableau, want.dens, want.basis)
    lp_module._last_prepared = None
    assert answer(grown_solve) == answer(lp_solve(StandardLp(Matrix(lp.a.rows), lp.b, lp.c)))
    return head_prep, got, len(presolved)


class TestExtendedPreparation:
    """A system that appends rows to the remembered one is prepared from it, and exactly as cold."""

    # the appended row minus the head's row is x_3 >= 0 with a zero gap: it
    # forces x_3 = 0 and is then the head's row again, so it is deleted.  It
    # holds no column the head fixed, so only its fresh mark gets it tested.
    _DOMINATES_OLD = StandardLp(Matrix([[1, 1, 1, 0], [1, 1, 1, 1]]), vec([1, 1]), vec([0, 0, 0, -1]))
    # the head x_0 + x_1 = -1 is infeasible, and so is every extension of it
    _INFEASIBLE_HEAD = StandardLp(Matrix([[1, 1], [1, 0]]), vec([-1, 0]), vec([0, 1]))
    # the head fixes x_0 = 1/2 by 2 x_0 = 1 and keeps x_1 + x_2 = 1 live;
    # 4 x_0 = 2 holds there only when its sum 4 * 1 over 2 is compared with 2 * 2
    _HALF = StandardLp(Matrix([[2, 0, 0], [0, 1, 1], [4, 0, 0]]), vec([1, 1, 2]), vec([0, 1, 0]))
    # an all-zero appended row reads 0 = t: it holds for t = 0 only
    _ZERO_ROW = StandardLp(Matrix([[1, 1], [0, 0]]), vec([1, 0]), vec([0, 1]))
    _ZERO_ROW_OFF = StandardLp(Matrix([[1, 1], [0, 0]]), vec([1, 3]), vec([0, 1]))

    @settings(max_examples=400, deadline=None)
    @given(extended_cases())
    @example((_DOMINATES_OLD, 1))
    @example((_INFEASIBLE_HEAD, 1))
    def test_matches_cold_preparation(self, case):
        grow_and_compare(*case)

    @settings(max_examples=120, deadline=None)
    @given(substituted_cases())
    @example((_HALF, 2))
    @example((_ZERO_ROW, 1))
    @example((_ZERO_ROW_OFF, 1))
    def test_rows_of_fixed_columns_are_substituted(self, case):
        # each appended row is evaluated at the head's fixed values: the
        # head's own preparation when all hold, None when one fails, and no
        # presolve, so no phase 1, runs
        head, got, presolved = grow_and_compare(*case)
        assert presolved == 0
        assert got is None or got is head


class TestDenseRows:
    """Preparing a system reads the matrix's dense rows and leaves its pattern unbuilt."""

    @pytest.mark.parametrize(
        "lp", [gen_proximity(2, 3).lp, staircase(3, 4), staircase(2, 2)], ids=["prox-2-3", "sens-3-4", "sens-2-2"]
    )
    def test_preparation_builds_no_pattern(self, lp):
        a = Matrix(lp.a.rows)
        assert prepare_cold(a, lp.b) is not None
        assert "sparse_rows" not in vars(a)
        # a system that appends a row grows the remembered preparation, from
        # the appended row's dense entries
        grown = Matrix((*a.rows, a.rows[-1]))
        assert lp_module._prepare_system(grown, (*lp.b, lp.b[-1])) is not None
        assert "sparse_rows" not in vars(grown)


class TestLazySolution:
    """An optimal ``lp_solve`` result builds its Fraction solution when it is first read."""

    @settings(max_examples=60, deadline=None)
    @given(integral_systems())
    def test_read_twice_is_the_oracle(self, lp):
        got, want = lp_solve(lp), fraction_simplex(lp)
        first = got.solution
        assert got.solution == first == want.solution
        assert answer(got) == answer(want)

    def test_fractional_solution(self):
        # 2 x_0 = 1 forces 1/2; under the cost x_2, x_1 is basic at 3/2 in 2 x_0 + 4 x_1 + x_2 = 7
        lp = StandardLp(Matrix([[2, 0, 0], [2, 4, 1]]), vec([1, 7]), vec([0, 0, 1]))
        got = lp_solve(lp)
        assert answer(got) == (OPTIMAL, (F(1, 2), F(3, 2), F(0)), F(0))
        assert got.solution == (F(1, 2), F(3, 2), 0)
        assert repr(answer(got)) == repr((OPTIMAL, got.solution, F(0)))


class TestResidualRange:
    """``residual_range`` on an integer residual against the Fraction route on the restricted system."""

    @settings(max_examples=400, deadline=None)
    @given(residual_cases())
    def test_matches_reference(self, case):
        lp, prefix, cost, cutoff = case
        k = len(prefix)
        prep = cold_preparation(lp.a, lp.b, prefix)
        node_cost = {j: w for j, w in enumerate(cost) if w and j >= k}
        got = None if prep is None else lp_module.residual_range(prep, k, node_cost, cutoff)

        rest = restricted(lp, prefix)
        unit = [0] * (rest.n - 1)

        def solve(c):
            return fraction_simplex(StandardLp(rest.a, rest.b, vec(c)))

        low = solve([1] + unit)
        if low.status == INFEASIBLE:
            assert got is None
            return
        if cutoff is not None:
            bound = solve(cost[k:])
            if bound.status == OPTIMAL and bound.objective > cutoff:
                assert got is None
                return
        high = solve([-1] + unit)
        hi = None if high.status == UNBOUNDED else floor(-high.objective)
        assert got == (ceil(low.objective), hi)

    def test_unbounded_minimum_prunes_nothing(self):
        # x_1 - x_2 = 1 under cost -x_2 has no minimum; the node stays
        lp = StandardLp(Matrix([[1, 1, -1]]), vec([1]), vec([0, 0, 0]))
        prep = cold_preparation(lp.a, lp.b, (0,))
        assert lp_module.residual_range(prep, 1, {2: -1}, -5) == (1, None)


class TestIsFeasiblePoint:
    def test_examples(self):
        inst = gen_sensitivity(2, 4)
        assert is_feasible_point(inst.lp, (1, 0, 4, 0))
        assert not is_feasible_point(inst.lp, (0, 0, 0, 0))
        alt = StandardLp(inst.lp.a, inst.alt_rhs, inst.lp.c)
        assert is_feasible_point(alt, (0, 2, 0, 8))

    def test_negative_entry_rejected(self):
        lp = StandardLp(Matrix([[1, 1]]), vec([0]), vec([0, 0]))
        assert not is_feasible_point(lp, (1, -1))

    def test_dimension_error(self):
        with pytest.raises(ValueError):
            is_feasible_point(staircase(2, 2), (1,))


def e0(n):
    """The objective x_0 over n variables."""
    return (1,) + (0,) * (n - 1)


class TestCoordRange:
    def test_single_constraint(self):
        lp = StandardLp(Matrix([[1, 1]]), vec([1]), vec([0, 0]))
        assert coord_range(lp.a, lp.b, e0(2)) == (0, 1)
        rest = restricted(lp, (1,))
        assert coord_range(rest.a, rest.b, e0(1)) == (0, 0)

    def test_forced_first_coordinate(self):
        lp = staircase(2, 2)
        assert coord_range(lp.a, lp.b, e0(lp.n)) == (1, 1)

    def test_infeasible_prefix_is_empty_not_error(self):
        lp = StandardLp(Matrix([[1, 1]]), vec([1]), vec([0, 0]))
        rest = restricted(lp, (2,))
        assert coord_range(rest.a, rest.b, e0(rest.n)) is None
        # x_0 = -1 leaves a feasible rest (x_1 = 2), but is itself outside x >= 0
        prefix = (F(-1),)
        assert not is_feasible_point(lp, prefix + (2,))
        rest = restricted(lp, prefix)
        assert coord_range(rest.a, rest.b, e0(rest.n)) is not None

    def test_unbounded_direction(self):
        assert coord_range(Matrix([[1, -1]]), (0,), (1, 0)) == (0, None)
        assert coord_range(Matrix([[1, -1]]), (0,), (-1, 0)) == (None, 0)

    def test_matches_lp_solve_extremes(self):
        rng = random.Random(23)
        for _ in range(40):
            lp, _ = random_feasible_ilp(rng)
            span = coord_range(lp.a, lp.b, e0(lp.n))
            assert span is not None
            lo = lp_solve(StandardLp(lp.a, lp.b, vec([1] + [0] * (lp.n - 1))))
            hi = lp_solve(StandardLp(lp.a, lp.b, vec([-1] + [0] * (lp.n - 1))))
            assert span == (lo.objective, -hi.objective)
