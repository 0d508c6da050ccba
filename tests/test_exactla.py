import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ilplab.errors import BudgetExceededError
from ilplab.exactla import (
    Matrix,
    det,
    dot,
    hadamard_bound,
    isqrt_ceil,
    max_subdet_all,
    rat,
    sqrt_upper,
    subdet_enumeration_count,
    vec,
)
from ilplab.instances import gen_sensitivity

from oracles import cofactor_det, max_subdet_oracle, submatrix

small_int = st.integers(min_value=-4, max_value=4)


def square(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def sparse_matrices(draw):
    """Small integer or rational matrices, many zeros, some zero rows and columns."""
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=5))
    nonzero = small_int.map(F)
    if draw(st.booleans()):
        nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    entry = st.one_of(st.just(F(0)), nonzero)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=nrows - 1)))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=ncols - 1)))
    return Matrix.from_rows(
        [
            [F(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
            for i, r in enumerate(rows)
        ]
    )


class TestDet:
    def test_identity(self):
        assert det(Matrix.identity(3)) == 1

    def test_unit_bidiagonal_is_one(self):
        inst = gen_sensitivity(3, 4)
        assert det(inst.lp.a) == 1

    def test_2x2(self):
        m = Matrix.from_rows([[2, 1], [1, 2]])
        assert det(m) == cofactor_det([[F(2), F(1)], [F(1), F(2)]]) == 3

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_rational_entries(self):
        rows = [[F(1, 2), F(1, 3)], [F(2, 5), F(3, 7)]]
        assert det(Matrix(tuple(tuple(r) for r in rows))) == cofactor_det(rows)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=4).flatmap(square))
    def test_matches_cofactor_expansion(self, rows):
        m = Matrix.from_rows(rows)
        assert det(m) == cofactor_det([[F(x) for x in r] for r in rows])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=4).flatmap(square), st.randoms(use_true_random=False))
    def test_abs_invariant_under_permutation(self, rows, rnd):
        m = Matrix.from_rows(rows)
        perm_r = list(range(len(rows)))
        perm_c = list(range(len(rows)))
        rnd.shuffle(perm_r)
        rnd.shuffle(perm_c)
        shuffled = Matrix.from_rows([[rows[i][j] for j in perm_c] for i in perm_r])
        assert abs(det(m)) == abs(det(shuffled))

    def test_triangular_det_is_diagonal_product(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-3, 3) if j <= i else 0 for j in range(n)] for i in range(n)]
            m = Matrix.from_rows(rows)
            expected = F(1)
            for i in range(n):
                expected *= rows[i][i]
            assert det(m) == expected


class TestMaxSubdet:
    def test_identity(self):
        res = max_subdet_all(Matrix.identity(4))
        assert res.value == 1

    def test_staircase_matrix(self):
        # the (d-1)x(d-1) triangular block on rows 2..d, columns 1..d-1
        res = max_subdet_all(gen_sensitivity(2, 4).lp.a)
        assert res.value == 8
        assert res.row_indices == (1, 2, 3) and res.col_indices == (0, 1, 2)

    def test_small_witness(self):
        res = max_subdet_all(Matrix.from_rows([[1, 0], [5, 1]]))
        # enumeration oracle: four 1x1 dets {1,0,5,1} and one 2x2 det {1}
        assert res.value == 5
        assert res.submatrices_scanned == 5

    @pytest.mark.parametrize("delta", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_staircase_family_value(self, delta, d):
        res = max_subdet_all(gen_sensitivity(delta, d).lp.a)
        assert res.value == delta ** (d - 1)

    def test_dominates_sampled_submatrices(self):
        rng = random.Random(5)
        rows = [[rng.randint(0, 3) for _ in range(5)] for _ in range(4)]
        m = Matrix.from_rows(rows)
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
            m = Matrix.from_rows(rows)
            res = max_subdet_all(m)
            sub = submatrix(m, res.row_indices, res.col_indices)
            assert res.value <= hadamard_bound(sub, sub.nrows).column_norm

    @settings(max_examples=200, deadline=None)
    @given(sparse_matrices())
    @example(Matrix.from_rows([[0] * 4 for _ in range(3)]))
    @example(Matrix.from_rows([[F(1, 10), 0], [0, F(1, 10)], [0, 0]]))
    def test_matches_cofactor_oracle(self, m):
        res = max_subdet_all(m)
        assert (res.value, res.row_indices, res.col_indices, res.submatrices_scanned) == max_subdet_oracle(m)

    def test_sensitivity_family_at_3_10(self):
        res = max_subdet_all(gen_sensitivity(3, 10).lp.a)
        assert res.value == 19683 == 3**9
        assert res.row_indices == tuple(range(1, 10))
        assert res.col_indices == tuple(range(0, 9))
        assert res.submatrices_scanned == subdet_enumeration_count(10, 10)

    def test_budget_refusal_and_force(self):
        big = Matrix.from_rows([[1] * 10 for _ in range(10)])
        assert subdet_enumeration_count(10, 10) > 100
        with pytest.raises(BudgetExceededError):
            max_subdet_all(big, budget=100)
        with pytest.warns(UserWarning):
            res = max_subdet_all(big, budget=100, force=True)
        assert res.value == 1


def assert_pattern_matches_dense_rows(m):
    """Each pattern row over its scale is exactly its dense row's non-zeros."""
    assert len(m.sparse_rows) == m.nrows
    for (s, pairs), row in zip(m.sparse_rows, m.rows):
        assert s > 0
        assert all(num for _, num in pairs)
        assert [j for j, _ in pairs] == sorted({j for j, _ in pairs})
        assert {j: F(num, s) for j, num in pairs} == {j: x for j, x in enumerate(row) if x}


def stacked_parts(m, data):
    """``m`` cut into consecutive row blocks at drawn places, and their vstack."""
    cuts = sorted(data.draw(st.lists(st.integers(0, m.nrows), max_size=3)))
    bounds = [0, *cuts, m.nrows]
    return Matrix.vstack([Matrix(m.rows[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if hi > lo])


class TestSparseRows:
    def test_fresh_scale_clears_the_row_denominators(self):
        m = Matrix.from_rows([[1, 0, -2], [F(1, 2), 0, F(-2, 3)], [0, 0, 0]])
        assert m.sparse_rows == ((1, ((0, 1), (2, -2))), (6, ((0, 3), (2, -4))), (1, ()))

    @settings(max_examples=40, deadline=None)
    @given(sparse_matrices(), st.data())
    def test_vstack_pattern_matches_its_dense_rows(self, m, data):
        stacked = stacked_parts(m, data)
        assert stacked == m
        assert stacked.sparse_rows == Matrix(m.rows).sparse_rows
        assert_pattern_matches_dense_rows(stacked)

    def test_rows_are_tuples(self):
        m = Matrix([[F(1), F(0)], [F(0), F(1)]])
        assert type(m.rows) is tuple and all(type(r) is tuple for r in m.rows)
        assert m == Matrix.identity(2)


class TestMulVec:
    @settings(max_examples=60, deadline=None)
    @given(sparse_matrices(), st.data())
    def test_matches_dense_dot(self, m, data):
        v = vec(data.draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=m.ncols, max_size=m.ncols)))
        for child in (m, stacked_parts(m, data)):
            got = child.mul_vec(v)
            assert got == tuple(dot(row, v) for row in child.rows)
            assert all(type(x) is F for x in got)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Matrix.identity(2).mul_vec(vec([1]))


class TestHadamard:
    def test_identity_column_norms(self):
        hb = hadamard_bound(Matrix.identity(2), 2)
        assert hb.column_norm == 1

    def test_closed_form_even(self):
        m = gen_sensitivity(2, 2).lp.a
        assert hadamard_bound(m, 2).closed_form == 8
        assert hadamard_bound(gen_sensitivity(3, 2).lp.a, 2).closed_form == 18

    def test_closed_form_odd_is_upper_bound(self):
        # odd exponent uses ceil(sqrt(d)), so the value must dominate d**(d/2)
        m = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        closed = hadamard_bound(m, 3).closed_form
        assert closed == 3 * 2  # 1**3 * 3**1 * ceil(sqrt(3))
        assert closed**2 >= 3**3

    def test_dominates_det(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            m = Matrix.from_rows(rows)
            hb = hadamard_bound(m, n)
            assert abs(det(m)) <= hb.column_norm
            assert abs(det(m)) <= hb.closed_form

    def test_sqrt_helpers(self):
        assert isqrt_ceil(9) == 3 and isqrt_ceil(10) == 4
        assert sqrt_upper(F(9, 4)) == F(3, 2)
        q = F(2, 3)
        up = sqrt_upper(q)
        assert up * up >= q


class TestSerialization:
    def test_rational_strings(self):
        assert str(rat("3/4")) == "3/4"
        assert str(rat(5)) == "5"
        assert rat("-7/2") == F(-7, 2)

    def test_matrix_round_trip(self):
        m = Matrix.from_rows([[F(1, 2), 3], [0, F(-5, 7)]])
        assert Matrix.from_rows(m.to_json()) == m
        assert m.to_json() == [["1/2", "3"], ["0", "-5/7"]]

    def test_vector_helpers(self):
        v = vec(["1/3", 2])
        assert v == (F(1, 3), F(2))
