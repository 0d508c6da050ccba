"""Exact rational vectors, matrices, determinants, and determinant bounds.

Vectors and matrices hold ``fractions.Fraction`` entries: arithmetic is
exact, values are always in lowest terms, and there is no rounding anywhere.
Vectors are plain tuples of Fractions; matrices are a thin immutable wrapper
around a tuple of row tuples.

Most work reads a matrix as integers instead.  Clearing each row's
denominators gives an integer row and one positive scale per row, and the
rational row is the integer row divided by its scale.  A ``Matrix`` keeps one
such pattern, its non-zero (column, numerator) pairs per row with the row's
scale, computed once; the LP layer presolves and starts phase 1 from it, the
enumeration reads its residuals and columns from it, and ``mul_vec`` reads
only its non-zeros.  A matrix stacked from others (``vstack``) joins their
patterns instead of scanning its entries again.

Determinants work on the dense integer grid of the same row scaling, so
fraction-free (Bareiss) elimination stays in the integers, and a determinant
of the original is the integer determinant divided by the product of the
chosen rows' scales.  The subdeterminant scan builds that grid once per
matrix, not once per submatrix, and skips every submatrix with a zero row or
a zero column, whose determinant is 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import BudgetExceededError

Vec = tuple[Fraction, ...]

#: One row of a matrix's integer pattern: a positive int scale s and the
#: (column, numerator) pairs of the row's non-zero entries in column order;
#: the entry in a listed column is numerator / s, every other entry is 0.
PatternRow = tuple[int, tuple[tuple[int, int], ...]]

#: Serialized rationals look like "3/4", or just "3" for integers.
#: ``str(Fraction)`` already produces exactly this form.


def rat(x: int | str | Fraction) -> Fraction:
    """Coerce ints, 'p/q' strings, or Fractions to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) or isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def vec(entries: Iterable[int | str | Fraction]) -> Vec:
    return tuple(rat(x) for x in entries)


def vec_str(v: Sequence[Fraction]) -> list[str]:
    return [str(x) for x in v]


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dot of length {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


@dataclass(frozen=True)
class Matrix:
    """Dense rectangular matrix of exact rationals.

    ``rows`` is a tuple of row tuples (other sequences are converted), so a
    matrix never changes after it is built and work derived from it can be
    kept for as long as the matrix lives.  ``sparse_rows`` is such work: the
    matrix's one integer pattern, per row a positive scale and the
    (column, numerator) pairs of the non-zero entries, computed on first use
    and then kept.  On a matrix built from its entries the scale is the lcm
    of the row's denominators, so it is 1 on every integral row.  ``vstack``
    joins the patterns of the blocks it stacks, so rows reused across many
    stacks are scanned once.
    """

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if type(self.rows) is not tuple or any(type(r) is not tuple for r in self.rows):
            object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("matrix rows have inconsistent lengths")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int | str | Fraction]]) -> "Matrix":
        return cls(tuple(vec(r) for r in rows))

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int | str | Fraction]]) -> "Matrix":
        cols = [vec(c) for c in cols]
        if not cols:
            raise ValueError("need at least one column")
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise ValueError("columns have inconsistent lengths")
        return cls(tuple(tuple(c[i] for c in cols) for i in range(n)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def row(self, i: int) -> Vec:
        return self.rows[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list[Vec]:
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        return Matrix(tuple(self.col(j) for j in range(self.ncols)))

    # cached_property keeps its value in the instance dict, where ``vstack``
    # seeds it with the pattern it joined
    @cached_property
    def sparse_rows(self) -> tuple[PatternRow, ...]:
        """Per row, its scale and the (column, numerator) pairs of its non-zero entries."""
        grid, scales = _scaled_rows(self.rows)
        return tuple(
            (s, tuple((j, v) for j, v in enumerate(row) if v)) for row, s in zip(grid, scales)
        )

    @classmethod
    def vstack(cls, parts: Sequence["Matrix"]) -> "Matrix":
        """The rows of ``parts`` one after another, with the parts' patterns joined."""
        stacked = cls(tuple(r for part in parts for r in part.rows))
        stacked.__dict__["sparse_rows"] = tuple(r for part in parts for r in part.sparse_rows)
        return stacked

    def mul_vec(self, v: Sequence[Fraction]) -> Vec:
        """The product with ``v``, summing only the pattern's non-zero terms."""
        if len(v) != self.ncols:
            raise ValueError(f"matrix has {self.ncols} columns, vector has {len(v)}")
        out = []
        for s, pairs in self.sparse_rows:
            total = sum((num * v[j] for j, num in pairs), Fraction(0))
            out.append(total if s == 1 else total / s)
        return tuple(out)

    def max_abs(self) -> Fraction:
        """Largest absolute entry (infinity norm of the coefficient grid)."""
        return max((abs(x) for r in self.rows for x in r), default=Fraction(0))

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in r] for r in self.rows]


def _bareiss_int(a: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination.

    All intermediate divisions are exact, so values never leave the
    integers and never blow up the way naive rational elimination does.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ri, rk = a[i], a[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - aik * rk[j]) // prev
            ri[k] = 0
        prev = pivot
    return sign * a[-1][-1]


def _scaled_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Clear each row's denominators: the integer grid and one scale per row.

    Row ``i`` of the grid is row ``i`` of the input times ``scales[i]``, the
    least common multiple of that row's denominators.
    """
    grid: list[list[int]] = []
    scales: list[int] = []
    for row in rows:
        mult = math.lcm(*(x.denominator for x in row))
        grid.append([x.numerator * (mult // x.denominator) for x in row])
        scales.append(mult)
    return grid, scales


def det(m: Matrix) -> Fraction:
    """Exact determinant of a square matrix (fraction-free elimination).

    The rows are scaled to an integer grid, whose determinant is divided by
    the product of the row scales.
    """
    if not m.is_square:
        raise ValueError(f"determinant needs a square matrix, got {m.nrows}x{m.ncols}")
    if m.nrows == 0:
        return Fraction(1)
    grid, scales = _scaled_rows(m.rows)
    return Fraction(_bareiss_int(grid), math.prod(scales))


@dataclass(frozen=True)
class SubdetResult:
    """Maximum |det| over all square submatrices, with a maximizing witness."""

    value: Fraction
    row_indices: tuple[int, ...]
    col_indices: tuple[int, ...]
    submatrices_scanned: int


def subdet_enumeration_count(nrows: int, ncols: int) -> int:
    """Number of square submatrices of every size k >= 1."""
    return sum(math.comb(nrows, k) * math.comb(ncols, k) for k in range(1, min(nrows, ncols) + 1))


def max_subdet_all(m: Matrix, budget: int = 10_000_000, force: bool = False) -> SubdetResult:
    """Max |det| over every square submatrix of every size k >= 1.

    The enumeration count is checked up front against ``budget``; oversize
    inputs are refused unless ``force`` is set (then a cost warning is
    emitted and the enumeration runs anyway).  The witness is the first
    maximizer in (size ascending, rows lex, cols lex) order; an all-zero
    matrix has value 0 with witness ((0,), (0,)).  ``submatrices_scanned``
    is the full enumeration count.

    The matrix is scaled once to an integer grid with one scale per row.  For
    each row set only the columns whose support meets those rows are offered,
    and a column set that leaves one of the rows all zero is skipped.  Both
    kinds of submatrix have determinant 0, so skipping them changes neither
    the maximum nor, when it is non-zero, its first maximizer.  Every other
    submatrix gets an exact integer determinant, divided by the product of
    its row scales.
    """
    if m.nrows == 0 or m.ncols == 0:
        raise ValueError("max_subdet_all needs a non-empty matrix")
    total = subdet_enumeration_count(m.nrows, m.ncols)
    if total > budget:
        if not force:
            raise BudgetExceededError(
                f"subdeterminant enumeration needs {total} determinants, budget is {budget}"
            )
        warnings.warn(
            f"subdeterminant enumeration over budget ({total} > {budget}); forced anyway",
            stacklevel=2,
        )
    grid, scales = _scaled_rows(m.rows)
    # support[j] has bit i set when grid[i][j] != 0
    support = [sum(1 << i for i, row in enumerate(grid) if row[j]) for j in range(m.ncols)]
    # the best value so far is best_num / best_den; comparisons cross-multiply
    best_num, best_den = 0, 1
    best_rows: tuple[int, ...] = (0,)
    best_cols: tuple[int, ...] = (0,)
    for k in range(1, min(m.nrows, m.ncols) + 1):
        for ri in combinations(range(m.nrows), k):
            mask = sum(1 << i for i in ri)
            cols = [j for j in range(m.ncols) if support[j] & mask]
            rows = [grid[i] for i in ri]
            scale = math.prod(scales[i] for i in ri)
            for ci in combinations(cols, k):
                covered = 0
                for j in ci:
                    covered |= support[j]
                if covered & mask != mask:
                    continue
                num = abs(_bareiss_int([[row[j] for j in ci] for row in rows]))
                if num * best_den > best_num * scale:
                    best_num, best_den = num, scale
                    best_rows, best_cols = ri, ci
    return SubdetResult(Fraction(best_num, best_den), best_rows, best_cols, total)


def isqrt_ceil(n: int) -> int:
    """Smallest integer s with s*s >= n."""
    if n < 0:
        raise ValueError("isqrt_ceil of a negative number")
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def sqrt_upper(q: Fraction) -> Fraction:
    """An exact rational upper bound on sqrt(q); exact when q is a perfect square."""
    if q < 0:
        raise ValueError("sqrt_upper of a negative number")
    # sqrt(p/q) = sqrt(p*q)/q
    return Fraction(isqrt_ceil(q.numerator * q.denominator), q.denominator)


@dataclass(frozen=True)
class HadamardBound:
    """Hadamard-style determinant bounds.

    ``column_norm`` is the product of column Euclidean norms (square input
    only; None otherwise), rounded up to an exact rational.  ``closed_form``
    is delta**d * d**(d/2) with delta the largest absolute entry; for odd d
    the square root of d is rounded up to the next integer, so the value is
    always a valid upper bound.
    """

    column_norm: Fraction | None
    closed_form: Fraction


def hadamard_bound(m: Matrix, d: int) -> HadamardBound:
    if d < 1:
        raise ValueError("hadamard_bound needs d >= 1")
    column_norm = None
    if m.is_square and m.nrows > 0:
        prod_sq = Fraction(1)
        for j in range(m.ncols):
            prod_sq *= sum((x * x for x in m.col(j)), Fraction(0))
        column_norm = sqrt_upper(prod_sq)
    delta = m.max_abs()
    closed = delta**d
    if d % 2 == 0:
        closed *= Fraction(d) ** (d // 2)
    else:
        closed *= Fraction(d) ** ((d - 1) // 2) * isqrt_ceil(d)
    return HadamardBound(column_norm, closed)
