"""Exact rational vectors, matrices, determinants, and determinant bounds.

Vectors and matrices hold ``fractions.Fraction`` entries: arithmetic is
exact, values are always in lowest terms, and there is no rounding anywhere.
Vectors are plain tuples of Fractions; matrices are a thin immutable wrapper
around a tuple of row tuples.

Most work reads a matrix as integers instead.  Clearing each row's
denominators gives an integer row and one positive scale per row, and the
rational row is the integer row divided by its scale.  A ``Matrix`` keeps one
such pattern, its non-zero (column, numerator) pairs per row with the row's
scale, computed once by ``Matrix.sparse_rows``, the only place in this module
where an entry's numerator and denominator are read.  The LP layer presolves
and starts phase 1 from it, the enumeration reads its residuals and columns
from it, ``mul_vec`` reads only its non-zeros, and ``max_abs`` is the largest
|numerator| / scale over its rows.

Determinants work on the dense integer grid laid out from the same pattern,
so fraction-free (Bareiss) elimination stays in the integers, and a
determinant of the original is the integer determinant divided by the product
of the chosen rows' scales.  The subdeterminant search builds that grid and
its column-support bitmasks once per matrix.  For each row set it offers only
the columns whose support meets those rows, and picks them in decreasing
order of their squared norm over the row set.  By Hadamard's inequality a
square submatrix's squared integer determinant is at most the product of its
columns' squared norms, so a branch whose best such product, over the row
scales squared, is below the best value squared so far holds no maximizer and
is cut.  The search stays in the integers; the one Fraction is its result.
The one closed-form determinant bound kept here is Hadamard's
delta**r * r**(r/2), from ``max_abs`` and the row count alone.
"""

from __future__ import annotations

import math
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
    of the row's denominators, so it is 1 on every integral row.
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

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list[Vec]:
        return [self.col(j) for j in range(self.ncols)]

    @cached_property
    def sparse_rows(self) -> tuple[PatternRow, ...]:
        """Per row, its scale and the (column, numerator) pairs of its non-zero entries."""
        pattern = []
        for row in self.rows:
            s = math.lcm(*(x.denominator for x in row))
            pairs = tuple((j, x.numerator * (s // x.denominator)) for j, x in enumerate(row) if x)
            pattern.append((s, pairs))
        return tuple(pattern)

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
        """Largest absolute entry: the largest |numerator| / scale over the pattern's rows."""
        num, den = 0, 1
        for s, pairs in self.sparse_rows:
            top = max((abs(v) for _, v in pairs), default=0)
            if top * den > num * s:
                num, den = top, s
        return Fraction(num, den)

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


def _int_grid(m: Matrix) -> list[list[int]]:
    """The dense integer rows of ``m``'s pattern: row i is row i of ``m`` times its scale."""
    grid = []
    for _, pairs in m.sparse_rows:
        row = [0] * m.ncols
        for j, v in pairs:
            row[j] = v
        grid.append(row)
    return grid


def det(m: Matrix) -> Fraction:
    """Exact determinant of a square matrix (fraction-free elimination).

    The rows are scaled to an integer grid, whose determinant is divided by
    the product of the row scales.
    """
    if not m.is_square:
        raise ValueError(f"determinant needs a square matrix, got {m.nrows}x{m.ncols}")
    if m.nrows == 0:
        return Fraction(1)
    return Fraction(_bareiss_int(_int_grid(m)), math.prod(s for s, _ in m.sparse_rows))


@dataclass(frozen=True)
class SubdetResult:
    """Maximum |det| over all square submatrices, with a maximizing witness."""

    value: Fraction
    row_indices: tuple[int, ...]
    col_indices: tuple[int, ...]


def subdet_enumeration_count(nrows: int, ncols: int) -> int:
    """Number of square submatrices of every size k >= 1."""
    return sum(math.comb(nrows, k) * math.comb(ncols, k) for k in range(1, min(nrows, ncols) + 1))


def _best_columns(
    rows: list[list[int]],
    cols: list[int],
    norms: list[int],
    support: list[int],
    mask: int,
    scale: int,
    best_num: int,
    best_den: int,
) -> tuple[int, int, tuple[int, ...] | None]:
    """The largest |det| / ``scale`` of a square submatrix on ``rows``, if it beats the incumbent.

    ``cols`` are the offered columns in decreasing order of ``norms``, their
    squared norms over ``rows``; ``support`` holds the column bitmasks and
    ``mask`` the rows' bits.  The incumbent ``best_num / best_den`` comes from
    earlier row sets.  Returns the best numerator and denominator, and the
    columns of a new best in lex order, or None when nothing here beats the
    incumbent; of equal values found here, the lex-first column set is kept.

    The search picks positions p_0 < p_1 < ... in ``cols`` depth first.  With
    t columns still to pick at position p, the chosen norms times
    norms[p:p+t] bound det**2 of every completion (Hadamard), and no later
    position reaches more because ``norms`` does not increase; so once that
    product is below (best * scale)**2 the search leaves the level.
    """
    k = len(rows)
    n = len(cols)
    found: tuple[int, ...] | None = None
    # the cut compares weight * den2 against cut_num = (best_num * scale)**2
    den2, cut_num = best_den * best_den, best_num * best_num * scale * scale
    picks = [0] * k
    # weights[depth] and reach[depth] are the product of the first ``depth``
    # picked norms and the union of their supports
    weights = [1] * k
    reach = [0] * k
    depth, p = 0, 0
    while True:
        weight = weights[depth]
        t = k - depth  # columns still to pick, this one included
        if t > 1:
            if p + t <= n and weight * math.prod(norms[p : p + t]) * den2 >= cut_num:
                picks[depth] = p
                weights[depth + 1] = weight * norms[p]
                reach[depth + 1] = reach[depth] | support[cols[p]]
                depth += 1
                p += 1
                continue
        else:
            prefix = [cols[q] for q in picks[:depth]]
            while p < n and weight * norms[p] * den2 >= cut_num:
                j = cols[p]
                p += 1
                # a column set that leaves one of the rows all zero has det 0
                if (reach[depth] | support[j]) & mask != mask:
                    continue
                ci = tuple(sorted([*prefix, j]))
                num = abs(_bareiss_int([[row[c] for c in ci] for row in rows]))
                lhs, rhs = num * best_den, best_num * scale
                if lhs > rhs or (lhs == rhs and found is not None and ci < found):
                    best_num, best_den, found = num, scale, ci
                    den2, cut_num = scale * scale, num * num * scale * scale
        if depth == 0:
            return best_num, best_den, found
        depth -= 1
        p = picks[depth] + 1


def max_subdet_all(m: Matrix, budget: int = 10_000_000) -> SubdetResult:
    """Max |det| over every square submatrix of every size k >= 1.

    The enumeration count is checked up front against ``budget``; oversize
    inputs are refused with ``BudgetExceededError``.  The search below
    evaluates far fewer determinants than that count, but the refusal reads
    the count, so whether an input is refused does not depend on the search.
    The witness is the first maximizer in (size ascending, rows lex, cols
    lex) order; an all-zero matrix has value 0 with witness ((0,), (0,)).

    The matrix is scaled once to an integer grid with one scale per row, so
    a k x k submatrix on rows R has determinant D / scale(R), D the integer
    determinant of its grid block and scale(R) the product of R's scales.
    Sizes and row sets are visited in order.  For a row set only the columns
    whose support meets it are offered, each with its squared norm w_j over
    R, sorted by (-w_j, j), and ``_best_columns`` picks k of them depth
    first.  Hadamard's inequality on the grid block gives D**2 <= the product
    of its w_j, so a branch whose largest reachable product is below
    best**2 * scale(R)**2 holds no submatrix above the best so far and is
    cut.  The cut is strict: a branch that could only tie the best is still
    searched, so within a row set the lex-first of equal maximizers wins, and
    an earlier row set's maximizer is kept over a later tie.  A column set
    that leaves one of the rows all zero is skipped, as is every column whose
    support misses the rows: those determinants are 0.
    """
    if m.nrows == 0 or m.ncols == 0:
        raise ValueError("max_subdet_all needs a non-empty matrix")
    total = subdet_enumeration_count(m.nrows, m.ncols)
    if total > budget:
        raise BudgetExceededError(
            f"subdeterminant enumeration needs {total} determinants, budget is {budget}"
        )
    ncols = m.ncols
    grid = _int_grid(m)
    squares = [[x * x for x in row] for row in grid]
    scales = [s for s, _ in m.sparse_rows]
    # support[j] has bit i set when grid[i][j] != 0
    support = [0] * ncols
    for i, (_, pairs) in enumerate(m.sparse_rows):
        for j, _ in pairs:
            support[j] |= 1 << i
    # the best value so far is best_num / best_den; comparisons cross-multiply
    best_num, best_den = 0, 1
    best_rows: tuple[int, ...] = (0,)
    best_cols: tuple[int, ...] = (0,)
    for k in range(1, min(m.nrows, ncols) + 1):
        for ri in combinations(range(m.nrows), k):
            mask = sum(1 << i for i in ri)
            # a column's squared norm over the rows is 0 exactly when its support misses them;
            # sorting by norm, largest first, keeps equal norms in column order
            norms = list(map(sum, zip(*[squares[i] for i in ri])))
            cols = sorted([j for j in range(ncols) if norms[j]], key=norms.__getitem__, reverse=True)
            scale = math.prod(scales[i] for i in ri)
            best_num, best_den, found = _best_columns(
                [grid[i] for i in ri], cols, [norms[j] for j in cols], support, mask, scale, best_num, best_den
            )
            if found is not None:
                best_rows, best_cols = ri, found
    return SubdetResult(Fraction(best_num, best_den), best_rows, best_cols)


def isqrt_ceil(n: int) -> int:
    """Smallest integer s with s*s >= n."""
    if n < 0:
        raise ValueError("isqrt_ceil of a negative number")
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def hadamard_bound(m: Matrix) -> Fraction:
    """The closed form delta**r * r**(r/2), with r = ``m.nrows`` and delta = ``m.max_abs()``.

    For odd r the square root of r is rounded up to the next integer, so the
    value is an exact rational never below delta**r * r**(r/2).  On an
    integral matrix it bounds every square submatrix's |det|: a k x k
    submatrix, k <= r, has columns of Euclidean norm at most delta*sqrt(k), so
    by Hadamard's inequality its |det| is at most delta**k * k**(k/2), which
    is at most the closed form once delta >= 1.
    """
    r = m.nrows
    if r < 1:
        raise ValueError("hadamard_bound needs a matrix with at least one row")
    closed = m.max_abs() ** r
    if r % 2 == 0:
        return closed * r ** (r // 2)
    return closed * r ** ((r - 1) // 2) * isqrt_ceil(r)
