"""Exact vectors, integer matrices, determinants, and determinant bounds.

The data of an ILP is integral: a ``Matrix`` holds int rows, and an
``lp.StandardLp`` holds int b and c.  ``_ints`` converts them when they are
built, and reads an integral rational as its int; any other value is a
``ValueError`` that names the field.  Values computed from the data stay
exact rationals: vectors are plain tuples of ``fractions.Fraction`` (points,
LP solutions, sizes), values are always in lowest terms, and there is no
rounding anywhere.

A ``Matrix`` keeps its non-zero (column, entry) pairs per row, computed
once by ``Matrix.sparse_rows``.  The enumeration's right-hand-side DP reads
its columns from them, and ``mul_vec``, which checks the search's leaves,
reads only these non-zeros.  The LP layer does not read them: it presolves
from the dense rows, only the appended ones when it grows a remembered
system, so a matrix that only LPs read, as a hull walk's depth matrices
are, never builds its pattern.  Every row starts at scale 1: a row's
scale arises only in the LP layer's presolve, where a forced value p/q
with q > 1 multiplies the rows it is substituted into by q.

Determinants use fraction-free (Bareiss) elimination on the int rows, so
they stay in the integers.  The subdeterminant search builds the column
support bitmasks once per matrix.  For each row set it offers only the
columns whose support meets those rows, and picks them in decreasing order
of their squared norm over the row set.  By Hadamard's inequality a square
submatrix's squared determinant is at most the product of its columns'
squared norms, so a branch whose best such product is below the best value
squared so far holds no maximizer and is cut.

When the bipartite row/column support graph is a forest, the maximum
comes from a matching instead: each square submatrix's support has at most
one perfect matching, so its det is 0 or +- the product of the matched
entries, and a tree DP over (product, -size) pairs finds the largest
product V and the least size reaching it.  The search then scans only that
size's row sets from an incumbent of V - 1, and stops at the first that
reaches V, which gives the same first maximizer in (size, rows lex, cols
lex) order as the full search.  A support with a cycle takes the full
search.  The one closed-form
determinant bound kept here is Hadamard's delta**r * r**(r/2), from
``max_abs`` and the row count alone.
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

#: One row of a matrix's pattern: the (column, entry) pairs of the row's
#: non-zero entries in column order; every other entry is 0.
PatternRow = tuple[tuple[int, int], ...]

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


def _int(x, field: str) -> int:
    """``x`` as an int when it is an int or an integral Fraction; else a ValueError naming ``field``."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x == (n := int(x)):
        return n
    raise ValueError(f"{field!r} holds {x}, not an integer: the ILP data A, b, b' and c are integral")


def _ints(entries: Iterable, field: str) -> tuple[int, ...]:
    """``entries`` as a tuple of ints, read by ``_int``; a tuple of ints is returned as it is."""
    entries = tuple(entries)
    for x in entries:
        if type(x) is not int:
            return tuple(_int(y, field) for y in entries)
    return entries


@dataclass(frozen=True)
class Matrix:
    """Dense rectangular integer matrix.

    ``rows`` is a tuple of int row tuples (any iterable of rows is
    converted, and an integral Fraction becomes its int), so a matrix never
    changes after it is built and work derived from it can be kept for as
    long as the matrix lives.  ``sparse_rows`` is such work: per row the
    (column, entry) pairs of its non-zero entries, computed on first use and
    then kept.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(_ints(r, "matrix") for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("matrix rows have inconsistent lengths")

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int | Fraction]]) -> "Matrix":
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

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list[tuple[int, ...]]:
        return [self.col(j) for j in range(self.ncols)]

    @cached_property
    def sparse_rows(self) -> tuple[PatternRow, ...]:
        """Per row, the (column, entry) pairs of its non-zero entries.

        The LP layer never reads them (see the module docstring), so only
        the DP, the subdeterminant search, ``max_abs`` and ``mul_vec`` build
        them.
        """
        return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.rows)

    def mul_vec(self, v: Sequence[int | Fraction]) -> tuple[int | Fraction, ...]:
        """The product with ``v``, summing only the pattern's non-zero terms.

        An int ``v`` gives ints; any other gives Fractions, zero rows included.
        """
        if len(v) != self.ncols:
            raise ValueError(f"matrix has {self.ncols} columns, vector has {len(v)}")
        zero = 0 if all(type(x) is int for x in v) else Fraction(0)
        return tuple(sum((x * v[j] for j, x in pairs), zero) for pairs in self.sparse_rows)

    def max_abs(self) -> int:
        """Largest absolute entry."""
        return max((abs(x) for pairs in self.sparse_rows for _, x in pairs), default=0)

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


def det(m: Matrix) -> int:
    """Exact determinant of a square matrix (fraction-free elimination)."""
    if not m.is_square:
        raise ValueError(f"determinant needs a square matrix, got {m.nrows}x{m.ncols}")
    if m.nrows == 0:
        return 1
    return _bareiss_int([list(r) for r in m.rows])


@dataclass(frozen=True)
class SubdetResult:
    """Maximum |det| over all square submatrices, with a maximizing witness."""

    value: int
    row_indices: tuple[int, ...]
    col_indices: tuple[int, ...]


def subdet_enumeration_count(nrows: int, ncols: int) -> int:
    """Number of square submatrices of every size k >= 1."""
    return sum(math.comb(nrows, k) * math.comb(ncols, k) for k in range(1, min(nrows, ncols) + 1))


def _best_columns(
    rows: list[tuple[int, ...]],
    cols: list[int],
    norms: list[int],
    support: list[int],
    mask: int,
    best: int,
) -> tuple[int, tuple[int, ...] | None]:
    """The largest |det| of a square submatrix on ``rows``, if it beats the incumbent ``best``.

    ``cols`` are the offered columns in decreasing order of ``norms``, their
    squared norms over ``rows``; ``support`` holds the column bitmasks and
    ``mask`` the rows' bits.  The incumbent comes from earlier row sets.
    Returns the best value, and the columns of a new best in lex order, or
    None when nothing here beats the incumbent; of equal values found here,
    the lex-first column set is kept.

    The search picks positions p_0 < p_1 < ... in ``cols`` depth first.  With
    t columns still to pick at position p, the chosen norms times
    norms[p:p+t] bound det**2 of every completion (Hadamard), and no later
    position reaches more because ``norms`` does not increase; so once that
    product is below best**2 the search leaves the level.
    """
    k = len(rows)
    n = len(cols)
    found: tuple[int, ...] | None = None
    cut = best * best
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
            if p + t <= n and weight * math.prod(norms[p : p + t]) >= cut:
                picks[depth] = p
                weights[depth + 1] = weight * norms[p]
                reach[depth + 1] = reach[depth] | support[cols[p]]
                depth += 1
                p += 1
                continue
        else:
            prefix = [cols[q] for q in picks[:depth]]
            while p < n and weight * norms[p] >= cut:
                j = cols[p]
                p += 1
                # a column set that leaves one of the rows all zero has det 0
                if (reach[depth] | support[j]) & mask != mask:
                    continue
                ci = tuple(sorted([*prefix, j]))
                value = abs(_bareiss_int([[row[c] for c in ci] for row in rows]))
                if value > best or (value == best and found is not None and ci < found):
                    best, found, cut = value, ci, value * value
        if depth == 0:
            return best, found
        depth -= 1
        p = picks[depth] + 1


def _search(m: Matrix, sizes: Iterable[int], best: int = 0, target: int | None = None) -> SubdetResult:
    """The first square submatrix of ``m`` whose |det| is the largest above ``best``.

    Sizes in ``sizes`` and row sets R are visited in order.  For a row set
    only the columns whose support meets it are offered, each with its
    squared norm w_j over R, sorted by (-w_j, j), and ``_best_columns``
    picks k of them depth first.  Hadamard's inequality gives det**2 <= the
    product of the picked w_j, so a branch whose largest reachable product
    is below best**2 holds no submatrix above the best so far and is cut.
    The cut is strict: a branch that could only tie the best is still
    searched, so within a row set the lex-first of equal maximizers wins,
    and an earlier row set's maximizer is kept over a later tie.  A column
    set that leaves one of the rows all zero is skipped, as is every column
    whose support misses the rows: those determinants are 0.

    The search returns at the first row set that reaches ``target``, a
    value no submatrix exceeds.  When nothing beats ``best`` the witness is
    ((0,), (0,)).
    """
    ncols = m.ncols
    squares = [[x * x for x in row] for row in m.rows]
    # support[j] has bit i set when row i has a non-zero entry in column j
    support = [0] * ncols
    for i, pairs in enumerate(m.sparse_rows):
        for j, _ in pairs:
            support[j] |= 1 << i
    best_rows: tuple[int, ...] = (0,)
    best_cols: tuple[int, ...] = (0,)
    for k in sizes:
        for ri in combinations(range(m.nrows), k):
            mask = sum(1 << i for i in ri)
            # a column's squared norm over the rows is 0 exactly when its support misses them;
            # sorting by norm, largest first, keeps equal norms in column order
            norms = list(map(sum, zip(*[squares[i] for i in ri])))
            cols = sorted([j for j in range(ncols) if norms[j]], key=norms.__getitem__, reverse=True)
            best, found = _best_columns([m.rows[i] for i in ri], cols, [norms[j] for j in cols], support, mask, best)
            if found is not None:
                if best == target:
                    return SubdetResult(best, ri, found)
                best_rows, best_cols = ri, found
    return SubdetResult(best, best_rows, best_cols)


def _forest_matching(m: Matrix) -> tuple[int, int] | None:
    """The largest product of |entries| over a matching of ``m``'s support, and the least size reaching it.

    The support is the bipartite graph with a node per row and per column
    and an edge per non-zero entry.  Returns None when it has a cycle: at
    once when nnz > nrows + ncols - 1, which no forest has, and otherwise
    when union-find meets an edge whose ends are already joined.  On a
    forest it returns (1, 1) when the best matching is empty (every
    non-zero entry is +-1), and (0, 0) when no entry is non-zero.

    A tree DP finds the best matching.  A matching's key is (product,
    -size), so a larger product wins and, of equal products, the smaller
    matching.  Joining the matchings of two disjoint subtrees multiplies
    the products and adds the sizes, which keeps the order, as every
    product is at least 1.  Each tree is listed in preorder from an explicit
    stack and folded up in reverse preorder.  For a node u, ``free[u]`` is
    the best matching of u's folded subtrees that leaves u unmatched, and
    ``matched[u]`` the best that matches u to one of its folded children.
    Folding a child c with edge weight w gives
    matched[u] = max(matched[u] + best(c), free[u] + free[c] + (w, -1)) and
    free[u] = free[u] + best(c), with + the join.
    """
    nrows = m.nrows
    nodes = nrows + m.ncols
    if sum(map(len, m.sparse_rows)) > nodes - 1:
        return None
    # node i is row i, node nrows + j is column j; head[u] leads towards u's set's root
    head = list(range(nodes))
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(nodes)]
    for i, pairs in enumerate(m.sparse_rows):
        for j, x in pairs:
            u, v = i, nrows + j
            while head[u] != u:
                head[u] = u = head[head[u]]
            while head[v] != v:
                head[v] = v = head[head[v]]
            if u == v:
                return None
            head[u] = v
            adjacent[i].append((nrows + j, abs(x)))
            adjacent[nrows + j].append((i, abs(x)))
    # matchings as (product, -size); (0, 0) stands for "none yet" and loses every comparison
    free = [(1, 0)] * nodes
    matched = [(0, 0)] * nodes
    parent = [(-1, 0)] * nodes  # (parent node, edge weight) in the tree's preorder
    seen = [False] * nodes
    product, size = 1, 0
    for start in range(nodes):
        if seen[start]:
            continue
        seen[start] = True
        order, stack = [], [start]
        while stack:
            u = stack.pop()
            order.append(u)
            for v, w in adjacent[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = (u, w)
                    stack.append(v)
        for u in reversed(order[1:]):
            best = max(free[u], matched[u])
            p, w = parent[u]
            take = (free[p][0] * free[u][0] * w, free[p][1] + free[u][1] - 1)
            matched[p] = max((matched[p][0] * best[0], matched[p][1] + best[1]), take)
            free[p] = (free[p][0] * best[0], free[p][1] + best[1])
        best = max(free[start], matched[start])
        product, size = product * best[0], size - best[1]
    if size == 0:
        return (1, 1) if any(m.sparse_rows) else (0, 0)
    return product, size


def max_subdet_all(m: Matrix, budget: int = 10_000_000) -> SubdetResult:
    """Max |det| over every square submatrix of every size k >= 1.

    The enumeration count is checked up front against ``budget``; oversize
    inputs are refused with ``BudgetExceededError``.  The routes below
    evaluate far fewer determinants than that count, but the refusal reads
    the count, so whether an input is refused does not depend on the route.
    The witness is the first maximizer in (size ascending, rows lex, cols
    lex) order; an all-zero matrix has value 0 with witness ((0,), (0,)).

    When the row/column support graph has a cycle, ``_search`` visits every
    size from an incumbent of 0.  When it is a forest, the value comes from
    a matching instead.  A forest has at most one perfect matching, so a
    square submatrix's support has at most one, and its det is 0 or +- the
    product of the matched entries.  Every matching M of the support is the
    perfect matching of its own submatrix, rows(M) x cols(M), whose det is
    then non-zero.  So the maximum |det| is V, the largest product of
    |entries| over the non-empty matchings, and the maximizers have sizes
    exactly the sizes of the matchings reaching V.  The entries are
    non-zero ints, so every |entry| is at least 1 and every comparison is
    exact.  ``_forest_matching`` gives V and the least such size k, and
    ``_search`` runs over the size-k row sets alone, from an incumbent of
    V - 1, and stops at the first row set that reaches V: that row set and
    its lex-first columns reaching V are the first maximizer.
    """
    if m.nrows == 0 or m.ncols == 0:
        raise ValueError("max_subdet_all needs a non-empty matrix")
    total = subdet_enumeration_count(m.nrows, m.ncols)
    if total > budget:
        raise BudgetExceededError(
            f"subdeterminant enumeration needs {total} determinants, budget is {budget}"
        )
    forest = _forest_matching(m)
    if forest is None:
        return _search(m, range(1, min(m.nrows, m.ncols) + 1))
    value, size = forest
    if value == 0:
        return SubdetResult(0, (0,), (0,))
    return _search(m, (size,), value - 1, value)


def isqrt_ceil(n: int) -> int:
    """Smallest integer s with s*s >= n."""
    if n < 0:
        raise ValueError("isqrt_ceil of a negative number")
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def hadamard_bound(m: Matrix) -> int:
    """The closed form delta**r * r**(r/2), with r = ``m.nrows`` and delta = ``m.max_abs()``.

    For odd r the square root of r is rounded up to the next integer, so the
    value is an int never below delta**r * r**(r/2).  It bounds every square
    submatrix's |det|: a k x k submatrix, k <= r, has columns of Euclidean
    norm at most delta*sqrt(k), so by Hadamard's inequality its |det| is at
    most delta**k * k**(k/2), which is at most the closed form once
    delta >= 1 (an integer matrix with delta = 0 has only zero minors).
    """
    r = m.nrows
    if r < 1:
        raise ValueError("hadamard_bound needs a matrix with at least one row")
    closed = m.max_abs() ** r
    if r % 2 == 0:
        return closed * r ** (r // 2)
    return closed * r ** ((r - 1) // 2) * isqrt_ceil(r)
