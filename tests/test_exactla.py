import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ilplab.exactla
from ilplab.errors import BudgetExceededError
from ilplab.exactla import (
    Matrix,
    det,
    dot,
    hadamard_bound,
    isqrt_ceil,
    max_subdet_all,
    rat,
    subdet_enumeration_count,
    vec,
)
from ilplab.instances import gen_sensitivity

from oracles import cofactor_det, max_subdet_oracle, submatrix


def identity(n):
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


small_int = st.integers(min_value=-4, max_value=4)


def square(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def sparse_matrices(draw):
    """Small integer matrices, many zeros, some zero rows and columns.

    Entries are small ints, or integral Fractions, which the matrix reads as
    their ints.
    """
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=5))
    nonzero = small_int.map(F)
    if draw(st.booleans()):
        nonzero = st.integers(min_value=-12, max_value=12)
    entry = st.one_of(st.just(0), nonzero)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=nrows - 1)))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=ncols - 1)))
    return Matrix(
        [
            [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
            for i, r in enumerate(rows)
        ]
    )


@st.composite
def tie_heavy_matrices(draw):
    """Small matrices with many equal subdeterminants, so the witness rests on the tie rule.

    Entries come from {-1, 0, 1} or from small ints.  Columns and rows repeat
    earlier ones, columns possibly negated, and some rows are multiplied by
    2, 3 or 4.
    """
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=6))
    entry = st.sampled_from((-1, 0, 1)) if draw(st.booleans()) else st.integers(min_value=-3, max_value=3)
    cols: list[list[int]] = []
    for _ in range(ncols):
        if cols and draw(st.booleans()):
            sign = draw(st.sampled_from((1, -1)))
            cols.append([sign * x for x in draw(st.sampled_from(cols))])
        else:
            cols.append(draw(st.lists(entry, min_size=nrows, max_size=nrows)))
    rows = [[col[i] for col in cols] for i in range(nrows)]
    for i in range(1, nrows):
        if draw(st.booleans()):
            rows[i] = list(rows[draw(st.integers(min_value=0, max_value=i - 1))])
    factors = draw(st.lists(st.sampled_from((1, 1, 2, 3, 4)), min_size=nrows, max_size=nrows))
    return Matrix([[x * f for x in row] for row, f in zip(rows, factors)])


@st.composite
def forest_matrices(draw):
    """Small matrices whose bipartite row/column support graph is a forest.

    Each column draws a set of rows to join, and an edge that would close a
    cycle is dropped, so rows and columns may stay zero.  Some draws are a
    1 x n star or an n x 1 column.  Entries are +-1 or +-delta for a drawn
    delta, or come from +-1, +-2, 3, 4 and 5, so equal products often arise
    at several matching sizes, as 2 * 2 = 4 does.
    """
    shape = draw(st.sampled_from(("any", "any", "any", "any", "row", "column")))
    nrows = 1 if shape == "row" else draw(st.integers(min_value=1, max_value=5))
    ncols = 1 if shape == "column" else draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        delta = draw(st.integers(min_value=2, max_value=4))
        entry = st.sampled_from((1, -1, delta, -delta))
    else:
        entry = st.sampled_from((1, -1, 1, -1, 2, -2, 3, 4, 5))
    root = list(range(nrows + ncols))

    def find(u):
        while root[u] != u:
            u = root[u]
        return u

    rows = [[0] * ncols for _ in range(nrows)]
    for j in range(ncols):
        for i in sorted(draw(st.sets(st.integers(0, nrows - 1)))):
            u, v = find(i), find(nrows + j)
            if u != v:
                root[u] = v
                rows[i][j] = draw(entry)
    return Matrix(rows)


#: supports with a cycle; all but the first two have nnz <= nrows + ncols - 1,
#: so only union-find can tell them from a forest
CYCLE_MATRICES = {
    "2x2-block": [[1, 1], [1, 1]],
    "6-cycle": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
    "2x2-block-padded": [[1, 1, 0], [1, -1, 0], [0, 0, 0]],
    "6-cycle-padded": [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 0, 0]],
    "4-cycle-and-leaf": [[2, 1, 0], [1, 2, 0], [0, 3, 0]],
    # the cycle closes at column 1, which row 0's edge to column 2 has
    # already joined below column 2
    "4-cycle-closed-below-a-root": [[1, 1, 1], [1, -1, 0], [0, 0, 0]],
}


class TestDet:
    def test_identity(self):
        assert det(identity(3)) == 1

    def test_unit_bidiagonal_is_one(self):
        inst = gen_sensitivity(3, 4)
        assert det(inst.lp.a) == 1

    def test_2x2(self):
        m = Matrix([[2, 1], [1, 2]])
        assert det(m) == cofactor_det([[F(2), F(1)], [F(1), F(2)]]) == 3

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det(Matrix([[1, 2, 3], [4, 5, 6]]))

    def test_rational_entries(self):
        # an integral Fraction is read as its int; any other rational is refused
        m = Matrix(((F(4, 2), F(1)), (F(-3), 5)))
        assert all(type(x) is int for r in m.rows for x in r)
        assert det(m) == cofactor_det([[2, 1], [-3, 5]]) == 13
        with pytest.raises(ValueError, match="'matrix' holds 1/2, not an integer"):
            Matrix(((F(1, 2), 1), (0, 1)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(square))
    def test_matches_cofactor_expansion(self, rows):
        m = Matrix(rows)
        assert det(m) == cofactor_det([[F(x) for x in r] for r in rows])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=4).flatmap(square), st.randoms(use_true_random=False))
    def test_abs_invariant_under_permutation(self, rows, rnd):
        m = Matrix(rows)
        perm_r = list(range(len(rows)))
        perm_c = list(range(len(rows)))
        rnd.shuffle(perm_r)
        rnd.shuffle(perm_c)
        shuffled = Matrix([[rows[i][j] for j in perm_c] for i in perm_r])
        assert abs(det(m)) == abs(det(shuffled))

    def test_triangular_det_is_diagonal_product(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-3, 3) if j <= i else 0 for j in range(n)] for i in range(n)]
            m = Matrix(rows)
            expected = F(1)
            for i in range(n):
                expected *= rows[i][i]
            assert det(m) == expected


class TestMaxSubdet:
    def test_identity(self):
        res = max_subdet_all(identity(4))
        assert res.value == 1

    def test_staircase_matrix(self):
        # the (d-1)x(d-1) triangular block on rows 2..d, columns 1..d-1
        res = max_subdet_all(gen_sensitivity(2, 4).lp.a)
        assert res.value == 8
        assert res.row_indices == (1, 2, 3) and res.col_indices == (0, 1, 2)

    def test_small_witness(self):
        res = max_subdet_all(Matrix([[1, 0], [5, 1]]))
        # enumeration oracle: four 1x1 dets {1,0,5,1} and one 2x2 det {1}
        assert res.value == 5
        assert subdet_enumeration_count(2, 2) == 5

    @pytest.mark.parametrize("delta", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_staircase_family_value(self, delta, d):
        res = max_subdet_all(gen_sensitivity(delta, d).lp.a)
        assert res.value == delta ** (d - 1)

    def test_dominates_sampled_submatrices(self):
        rng = random.Random(5)
        rows = [[rng.randint(0, 3) for _ in range(5)] for _ in range(4)]
        m = Matrix(rows)
        res = max_subdet_all(m)
        for _ in range(50):
            k = rng.randint(1, 4)
            ri = sorted(rng.sample(range(4), k))
            ci = sorted(rng.sample(range(5), k))
            assert abs(det(submatrix(m, ri, ci))) <= res.value

    def test_bounded_by_column_norms_of_maximizer(self):
        rng = random.Random(17)
        for _ in range(10):
            rows = [[rng.randint(-2, 3) for _ in range(4)] for _ in range(4)]
            m = Matrix(rows)
            res = max_subdet_all(m)
            sub = submatrix(m, res.row_indices, res.col_indices)
            assert res.value**2 <= column_norms_squared(sub)

    @settings(max_examples=200, deadline=None)
    @given(sparse_matrices())
    @example(Matrix([[0] * 4 for _ in range(3)]))
    @example(Matrix([[10, 0], [0, 10], [0, 0]]))
    def test_matches_cofactor_oracle(self, m):
        res = max_subdet_all(m)
        assert (res.value, res.row_indices, res.col_indices, subdet_enumeration_count(m.nrows, m.ncols)) == max_subdet_oracle(m)

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_matrices())
    # the lex-first maximizer (0, 1) has equal norms and a Hadamard-tight
    # det 8, and is reached after (0, 2), whose column 2 has the larger norm
    @example(Matrix([[2, 2, 4, 0], [2, -2, 0, 2]]))
    # column 2 is the maximizer but sits after column 1's small norm
    @example(Matrix([[2, 1, 5]]))
    def test_tie_heavy_matches_oracle(self, m):
        res = max_subdet_all(m)
        assert (res.value, res.row_indices, res.col_indices, subdet_enumeration_count(m.nrows, m.ncols)) == max_subdet_oracle(m)

    @pytest.mark.parametrize("factor", [1, 2])
    def test_search_evaluates_few_determinants(self, monkeypatch, factor):
        # At (3,10) the scan evaluated 18,288 determinants, one per submatrix
        # without a zero row or column, and the cut leaves 1,471.  Doubling
        # every row doubles a k x k det k times, so the cut is not fooled by
        # the larger entries.  The staircase's support is a path, so
        # ``max_subdet_all`` takes the forest route; the general search is
        # run directly.
        calls = count_determinants(monkeypatch)
        a = scaled_staircase(factor)
        res = ilplab.exactla._search(a, range(1, 11))
        assert (res.value, res.row_indices, res.col_indices) == ((3 * factor) ** 9, tuple(range(1, 10)), tuple(range(9)))
        assert calls[0] < 2_000

    @pytest.mark.parametrize("factor", [1, 2])
    def test_forest_route_evaluates_few_determinants(self, monkeypatch, factor):
        # the matching DP gives the value and the size 9; the witness scan
        # then reaches it at its first fitting row set
        calls = count_determinants(monkeypatch)
        res = max_subdet_all(scaled_staircase(factor))
        assert (res.value, res.row_indices, res.col_indices) == ((3 * factor) ** 9, tuple(range(1, 10)), tuple(range(9)))
        assert calls[0] <= 10

    def test_sensitivity_family_at_3_10(self):
        res = max_subdet_all(gen_sensitivity(3, 10).lp.a)
        assert res.value == 19683 == 3**9
        assert res.row_indices == tuple(range(1, 10))
        assert res.col_indices == tuple(range(0, 9))

    def test_budget_refusal(self):
        big = Matrix([[1] * 10 for _ in range(10)])
        assert subdet_enumeration_count(10, 10) > 100
        with pytest.raises(BudgetExceededError):
            max_subdet_all(big, budget=100)


def count_determinants(monkeypatch):
    """A one-element list counting the determinants ``exactla`` evaluates from now on."""
    calls = [0]
    bareiss = ilplab.exactla._bareiss_int

    def counting(a):
        calls[0] += 1
        return bareiss(a)

    monkeypatch.setattr(ilplab.exactla, "_bareiss_int", counting)
    return calls


def scaled_staircase(factor):
    """The sensitivity (3,10) matrix with every entry multiplied by ``factor``."""
    a = gen_sensitivity(3, 10).lp.a
    return Matrix(tuple(tuple(x * factor for x in row) for row in a.rows))


def spy_routes(monkeypatch):
    """Record what ``_forest_matching`` returns and the sizes each ``_search`` call scans."""
    seen = {"forest": [], "sizes": []}
    forest, search = ilplab.exactla._forest_matching, ilplab.exactla._search

    def forest_spy(m):
        seen["forest"].append(forest(m))
        return seen["forest"][-1]

    def search_spy(m, sizes, *args):
        seen["sizes"].append(tuple(sizes))
        return search(m, sizes, *args)

    monkeypatch.setattr(ilplab.exactla, "_forest_matching", forest_spy)
    monkeypatch.setattr(ilplab.exactla, "_search", search_spy)
    return seen


class TestForestRoute:
    """On forest support the value comes from a matching DP, and the witness from one size's row sets."""

    @settings(max_examples=400, deadline=None)
    @given(forest_matrices())
    # equal products 2 at sizes 1 and 2: the witness is the 1 x 1 minor
    @example(Matrix([[2, 1], [0, 1]]))
    # every entry +-1: the best matching is empty, and the first 1 x 1 minor wins
    @example(Matrix([[0, -1, 1], [0, 0, 0], [1, 0, 0]]))
    # products 8 at sizes 2 and 3, where the DP meets the size-3 matching first
    @example(Matrix([[0, 0, 0], [0, 2, 0], [2, 0, 0], [4, 0, 2], [2, 2, 0]]))
    # two row sets reach 4 at size 1; the first is kept
    @example(Matrix([[0, 0], [4, 0], [0, -4]]))
    @example(Matrix([[0, 0, 0]]))
    def test_matches_oracle(self, m):
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = spy_routes(monkeypatch)
            res = max_subdet_all(m)
        assert (res.value, res.row_indices, res.col_indices, subdet_enumeration_count(m.nrows, m.ncols)) == max_subdet_oracle(m)
        assert seen["forest"] == [(res.value, len(res.row_indices)) if res.value else (0, 0)]
        assert seen["sizes"] in ([], [(len(res.row_indices),)])

    @pytest.mark.parametrize("rows", list(CYCLE_MATRICES.values()), ids=list(CYCLE_MATRICES))
    def test_cycles_take_the_general_search(self, monkeypatch, rows):
        m = Matrix(rows)
        seen = spy_routes(monkeypatch)
        res = max_subdet_all(m)
        assert seen == {"forest": [None], "sizes": [tuple(range(1, min(m.nrows, m.ncols) + 1))]}
        assert (res.value, res.row_indices, res.col_indices, subdet_enumeration_count(m.nrows, m.ncols)) == max_subdet_oracle(m)

    def test_refused_before_the_route(self, monkeypatch):
        seen = spy_routes(monkeypatch)
        with pytest.raises(BudgetExceededError):
            max_subdet_all(gen_sensitivity(2, 14).lp.a)
        assert seen == {"forest": [], "sizes": []}


def assert_pattern_matches_dense_rows(m):
    """Each pattern row is exactly its dense row's non-zeros, in column order."""
    assert len(m.sparse_rows) == m.nrows
    for pairs, row in zip(m.sparse_rows, m.rows):
        assert all(type(x) is int and x for _, x in pairs)
        assert [j for j, _ in pairs] == sorted({j for j, _ in pairs})
        assert dict(pairs) == {j: x for j, x in enumerate(row) if x}


def stacked_parts(m, data):
    """``m`` cut into consecutive row blocks at drawn places, restacked from the blocks' row tuples."""
    cuts = sorted(data.draw(st.lists(st.integers(0, m.nrows), max_size=3)))
    bounds = [0, *cuts, m.nrows]
    parts = [Matrix(m.rows[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    return Matrix(tuple(r for part in parts for r in part.rows))


class TestSparseRows:
    def test_pattern_lists_the_non_zero_entries(self):
        m = Matrix([[1, 0, -2], [F(3), 0, -4], [0, 0, 0]])
        assert m.sparse_rows == (((0, 1), (2, -2)), ((0, 3), (2, -4)), ())

    @settings(max_examples=40, deadline=None)
    @given(sparse_matrices())
    def test_pattern_matches_its_dense_rows(self, m):
        assert_pattern_matches_dense_rows(m)

    def test_rows_are_tuples(self):
        m = Matrix([[F(1), F(0)], [F(0), F(1)]])
        assert type(m.rows) is tuple and all(type(r) is tuple for r in m.rows)
        assert all(type(x) is int for r in m.rows for x in r)
        assert m == identity(2)


@st.composite
def integer_squares(draw):
    """Small square matrices with zero, negative and larger entries."""
    n = draw(st.integers(min_value=1, max_value=4))
    entry = st.one_of(st.just(0), st.integers(min_value=-12, max_value=12))
    return Matrix(tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n)))


class TestPatternRoute:
    """``det``, ``max_subdet_all`` and ``max_abs`` read the pattern; the oracles read the dense rows."""

    @settings(max_examples=100, deadline=None)
    @given(integer_squares(), st.data())
    def test_det_matches_cofactor_oracle(self, m, data):
        expected = cofactor_det([list(r) for r in m.rows])
        assert det(m) == expected
        assert det(stacked_parts(m, data)) == expected

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices(), st.data())
    def test_stacked_max_subdet_matches_oracle(self, m, data):
        res = max_subdet_all(stacked_parts(m, data))
        assert (res.value, res.row_indices, res.col_indices, subdet_enumeration_count(m.nrows, m.ncols)) == max_subdet_oracle(m)

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices(), st.data())
    def test_max_abs_is_the_dense_maximum(self, m, data):
        expected = max(abs(x) for r in m.rows for x in r)
        assert m.max_abs() == expected
        assert stacked_parts(m, data).max_abs() == expected


class TestMulVec:
    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(), st.data())
    def test_matches_dense_dot(self, m, data):
        v = vec(data.draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=m.ncols, max_size=m.ncols)))
        for child in (m, stacked_parts(m, data)):
            got = child.mul_vec(v)
            assert got == tuple(dot(row, v) for row in child.rows)
            assert all(type(x) is F for x in got)

    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(), st.data())
    def test_int_vector_gives_ints(self, m, data):
        v = data.draw(st.lists(st.integers(-3, 3), min_size=m.ncols, max_size=m.ncols))
        got = m.mul_vec(v)
        assert got == tuple(dot(row, vec(v)) for row in m.rows)
        assert all(type(x) is int for x in got)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            identity(2).mul_vec(vec([1]))


def column_norms_squared(m):
    """The product of ``m``'s squared column norms: Hadamard's bound on det(m)**2, exactly."""
    return math.prod(sum((x * x for x in m.col(j)), F(0)) for j in range(m.ncols))


class TestHadamard:
    def test_closed_form_even(self):
        m = gen_sensitivity(2, 2).lp.a
        assert hadamard_bound(m) == 8
        assert hadamard_bound(gen_sensitivity(3, 2).lp.a) == 18

    def test_closed_form_odd_is_upper_bound(self):
        # odd exponent uses ceil(sqrt(r)), so the value must dominate r**(r/2)
        m = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        closed = hadamard_bound(m)
        assert closed == 3 * 2  # 1**3 * 3**1 * ceil(sqrt(3))
        assert closed**2 >= 3**3

    def test_closed_form_reads_the_row_count(self):
        # a 2x3 matrix: r = 2 rows, delta = 3, so 3**2 * 2
        assert hadamard_bound(Matrix([[3, 0, 1], [0, -1, 2]])) == 18

    def test_empty_matrix_refused(self):
        with pytest.raises(ValueError):
            hadamard_bound(Matrix(()))

    def test_dominates_det(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            m = Matrix(rows)
            assert det(m) ** 2 <= column_norms_squared(m)
            assert abs(det(m)) <= hadamard_bound(m)

    def test_sqrt_helpers(self):
        assert isqrt_ceil(9) == 3 and isqrt_ceil(10) == 4


class TestSerialization:
    def test_rational_strings(self):
        assert str(rat("3/4")) == "3/4"
        assert str(rat(5)) == "5"
        assert rat("-7/2") == F(-7, 2)

    def test_matrix_round_trip(self):
        m = Matrix([[-2, 3], [0, 7]])
        assert Matrix([[rat(x) for x in row] for row in m.to_json()]) == m
        assert m.to_json() == [["-2", "3"], ["0", "7"]]

    def test_vector_helpers(self):
        v = vec(["1/3", 2])
        assert v == (F(1, 3), F(2))
