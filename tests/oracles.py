"""Independent oracles used by the tests.

Everything here is deliberately naive and re-derives results along a
different route than the library: Laplace cofactor expansion instead of
fraction-free elimination, full box enumeration instead of LP-pruned
search, basic-solution enumeration instead of the simplex, and
Caratheodory-style simplex-subset search instead of a feasibility LP.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from ilplab.exactla import Matrix
from ilplab.lp import StandardLp


def cofactor_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(head) * cofactor_det(minor)
    return total


def max_subdet_oracle(m: Matrix) -> tuple[Fraction, tuple[int, ...], tuple[int, ...], int]:
    """Max |det| over every square submatrix by cofactor expansion, no pruning.

    Returns the value, the first maximizer's rows and columns in (size, rows
    lex, cols lex) order, and the number of submatrices evaluated.
    """
    best, best_rows, best_cols, scanned = Fraction(-1), (), (), 0
    for k in range(1, min(m.nrows, m.ncols) + 1):
        for ri in combinations(range(m.nrows), k):
            for ci in combinations(range(m.ncols), k):
                scanned += 1
                value = abs(cofactor_det([[m.rows[i][j] for j in ci] for i in ri]))
                if value > best:
                    best, best_rows, best_cols = value, ri, ci
    return best, best_rows, best_cols, scanned


def brute_force_optima(lp: StandardLp, box: list[int]) -> tuple[tuple[tuple[int, ...], ...], Fraction | None]:
    """All optimal integral solutions by scanning the whole box."""
    best = None
    sols: list[tuple[int, ...]] = []
    for point in product(*(range(u + 1) for u in box)):
        xv = tuple(Fraction(v) for v in point)
        if lp.a.mul_vec(xv) != tuple(lp.b):
            continue
        obj = sum((c * x for c, x in zip(lp.c, xv)), Fraction(0))
        if best is None or obj < best:
            best = obj
            sols = [point]
        elif obj == best:
            sols.append(point)
    return tuple(sorted(sols)), best


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination with partial pivot search; None when singular."""
    n = len(rows)
    m = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def caratheodory_membership(columns: list[tuple[int, ...]], point: tuple) -> bool:
    """p in conv(columns) iff some <= dim+1 columns hold it with affine weights >= 0."""
    dim = len(columns[0])
    pt = [Fraction(x) for x in point]
    for size in range(1, min(len(columns), dim + 1) + 1):
        for subset in combinations(range(len(columns)), size):
            # Solve sum w_j col_j = p, sum w_j = 1 in the least-squares-free
            # way: pick the subset's affine system and check exact solvability.
            rows = [[Fraction(columns[j][i]) for j in subset] for i in range(dim)]
            rows.append([Fraction(1)] * size)
            rhs = pt + [Fraction(1)]
            sol = _solve_overdetermined(rows, rhs)
            if sol is not None and all(w >= 0 for w in sol):
                return True
    return False


def _solve_overdetermined(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Exact solution of a (possibly overdetermined) consistent system, else None."""
    n_vars = len(rows[0])
    m = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for col in range(n_vars):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][col]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(m)):
        if m[i][n_vars] != 0:
            return None  # inconsistent
    if r < n_vars:
        # Underdetermined: set free variables to zero; the pivot rows then
        # give one exact solution iff the free columns are zero there too.
        sol = [Fraction(0)] * n_vars
        for i, col in enumerate(pivots):
            extra = sum(
                (m[i][j] for j in range(n_vars) if j != col and j not in pivots and m[i][j]),
                Fraction(0),
            )
            if extra != 0:
                return None
            sol[col] = m[i][n_vars]
        return sol
    return [m[i][n_vars] for i in range(n_vars)]


def lp_basic_solution_optimum(lp: StandardLp) -> Fraction | None:
    """Min objective over all basic feasible solutions; None when infeasible.

    Valid ground truth for full-row-rank systems with a bounded feasible
    region (every LP here is bounded because x >= 0 and boxes exist).
    """
    d, n = lp.d, lp.n
    best = None
    for subset in combinations(range(n), d):
        rows = [[lp.a.rows[i][j] for j in subset] for i in range(d)]
        sol = _solve_square(rows, list(lp.b))
        if sol is None or any(v < 0 for v in sol):
            continue
        obj = sum((lp.c[j] * v for j, v in zip(subset, sol)), Fraction(0))
        if best is None or obj < best:
            best = obj
    return best


def hull_box_oracle(columns) -> tuple[tuple[int, ...], ...]:
    """Integer hull points by scanning the bounding box with the membership LP."""
    from ilplab.hull import hull_membership

    dim = len(columns[0])
    ranges = [
        range(int(min(c[i] for c in columns)), int(max(c[i] for c in columns)) + 1)
        for i in range(dim)
    ]
    return tuple(sorted(p for p in product(*ranges) if hull_membership(columns, p)[0]))


def random_feasible_ilp(rng: random.Random, max_dim=3, max_cols=4, max_entry=3):
    """Random non-negative full-column system, feasible by construction."""
    while True:
        d = rng.randint(1, max_dim)
        n = rng.randint(1, max_cols)
        grid = [[rng.randint(0, max_entry) for _ in range(n)] for _ in range(d)]
        if any(all(grid[i][j] == 0 for i in range(d)) for j in range(n)):
            continue
        x_star = [rng.randint(0, 2) for _ in range(n)]
        a = Matrix.from_rows(grid)
        b = a.mul_vec(tuple(Fraction(v) for v in x_star))
        c = tuple(Fraction(rng.randint(-1, 2)) for _ in range(n))
        return StandardLp(a, b, c), x_star
