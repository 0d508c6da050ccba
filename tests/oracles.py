"""Independent oracles used by the tests.

Everything here is deliberately naive and re-derives results along a
different route than the library: Laplace cofactor expansion instead of
fraction-free elimination, full box enumeration instead of LP-pruned
search, basic-solution enumeration instead of the simplex,
Caratheodory-style simplex-subset search instead of a feasibility LP, and
partial sums as tuples instead of the DP's mixed-radix codes.

The LP layer also keeps its Fraction reference route here:
``fraction_presolve`` is the presolve that scans every row on each
substitution and builds each row difference in full, and
``fraction_simplex`` is the cold two-phase Bland simplex on Fraction rows
(``fraction_prepare`` is its presolve and phase 1).  The library's integer
core, presolve on int rows over one scale per row and the simplex on int
rows over one denominator per row, must reproduce them bit for bit: the
same presolve result, the same tableaus as rationals, the same pivots and
bases.  The reference route reads a matrix's dense ``rows`` (``dict_rows``),
never its pattern, so a pattern bug cannot hide on both sides.  The
library's A, b and c are ints; every oracle reads them as Fractions.

Two helpers close the file: ``shallow_stack`` lowers the recursion limit
around a block, and ``fuzz_by_search`` runs ``fuzz_cook`` with every
enumeration on the LP search, for the tests that cover the search on
systems the right-hand-side DP would otherwise take.
"""

from __future__ import annotations

import math
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

import pytest

from ilplab import ilp, measures
from ilplab.exactla import Matrix
from ilplab.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, StandardLp

_ZERO = Fraction(0)
_ONE = Fraction(1)


def submatrix(m: Matrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> Matrix:
    """The entries of ``m`` in the given rows and columns, in the given order."""
    return Matrix(tuple(tuple(m.rows[i][j] for j in col_idx) for i in row_idx))


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


def oracle_box(lp: StandardLp) -> list[int]:
    """Per-variable bounds floor(min b_i / a_ij) over the rows with no negative entry, on the dense Fractions.

    Such a row bounds each of its variables, as a_ij x_j <= a_i.x = b_i for
    x >= 0.  A column in no row at a positive cost gets 0: no optimum uses
    it.  A column that no such row bounds is a ``ValueError``.
    """
    rows = [(r, bi) for r, bi in zip(lp.a.rows, lp.b) if all(x >= 0 for x in r)]
    box = []
    for j in range(lp.n):
        bounds = [Fraction(bi, r[j]) for r, bi in rows if r[j] > 0]
        if bounds:
            box.append(math.floor(min(bounds)))
        elif lp.c[j] > 0 and not any(r[j] for r in lp.a.rows):
            box.append(0)
        else:
            raise ValueError(f"no row bounds x_{j}")
    return box


def brute_force_optima(lp: StandardLp, box: list[int]) -> tuple[tuple[int, ...], ...]:
    """All optimal integral solutions by scanning the whole box, sorted; empty when none exists."""
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
    return tuple(sorted(sols))


def dp_arc_count(lp: StandardLp) -> int:
    """The (state, k) arcs the right-hand-side DP's forward pass takes, counted on partial sums as tuples.

    Layer j is the set of partial sums s <= b of the columns before j; each
    takes column j k = 0..kmax(s) times, where kmax(s) is the least
    floor((b_i - s_i) / a_ij) over the rows with a_ij > 0, and 0 for a
    column in no row.  Costs play no part: every arc of a reachable sum is
    taken, kept or not.
    """
    cols = [[(i, r[j]) for i, r in enumerate(lp.a.rows) if r[j]] for j in range(lp.n)]
    layer = {tuple(0 for _ in lp.b)}
    arcs = 0
    for col in cols:
        after = set()
        for s in layer:
            top = min(((lp.b[i] - s[i]) // a for i, a in col), default=0)
            arcs += top + 1
            for k in range(top + 1):
                t = list(s)
                for i, a in col:
                    t[i] += k * a
                after.add(tuple(t))
        layer = after
    return arcs


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
        rows = [[Fraction(lp.a.rows[i][j]) for j in subset] for i in range(d)]
        sol = _solve_square(rows, [Fraction(bi) for bi in lp.b])
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
        a = Matrix(grid)
        b = a.mul_vec(tuple(Fraction(v) for v in x_star))
        c = tuple(Fraction(rng.randint(-1, 2)) for _ in range(n))
        return StandardLp(a, b, c), x_star


# ---------------------------------------------------------------------------
# the Fraction reference route of the LP layer


def dict_rows(m: Matrix) -> list[dict[int, Fraction]]:
    """Each dense row of ``m`` as a {column: Fraction entry} dict of its non-zero entries."""
    return [{j: Fraction(x) for j, x in enumerate(row) if x} for row in m.rows]


def residual_system(a: Matrix, b: Sequence[int], prefix: Sequence[int]) -> tuple[Matrix, tuple[int, ...]]:
    """What is left of a x = b once x_0..x_{k-1} are fixed to ``prefix``: a with those columns zeroed, and b - a.prefix.

    Columns keep their indices, so a preparation of it names columns as an
    enumeration node's does.  Every call builds a new matrix object, so
    ``lp._prepare_system`` cannot hand back a remembered preparation as it
    is; it can grow one that the new system extends by rows.
    """
    k = len(prefix)
    rows = tuple(tuple(0 if j < k else x for j, x in enumerate(row)) for row in a.rows)
    rhs = tuple(bi - sum(row[j] * prefix[j] for j in range(k)) for row, bi in zip(a.rows, b))
    return Matrix(rows), rhs


def rref(rows: Sequence[dict[int, Fraction]]) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
    """The reduced row echelon form of ``rows``, by Gauss-Jordan elimination on Fractions.

    Each row maps column keys to entries; columns are eliminated in
    ascending key order and zero rows are dropped.  The form is unique, so
    two lists of rows span the same rational row space iff their forms are
    equal.  Each row comes back as its (key, entry) pairs in key order.
    """
    work = [{j: Fraction(x) for j, x in row.items() if x} for row in rows]
    work = [row for row in work if row]
    done: list[dict[int, Fraction]] = []
    for col in sorted({j for row in work for j in row}):
        pivot = next((row for row in work if col in row), None)
        if pivot is None:
            continue
        work.remove(pivot)
        lead = pivot[col]
        pivot = {j: x / lead for j, x in pivot.items()}
        for row in work + done:
            f = row.get(col)
            if f is None:
                continue
            for j, x in pivot.items():
                y = row.get(j, _ZERO) - f * x
                if y:
                    row[j] = y
                else:
                    row.pop(j, None)
        work = [row for row in work if row]
        done.append(pivot)
    return tuple(sorted(tuple(sorted(row.items())) for row in done))


def fraction_presolve(rows: list[dict[int, Fraction]], rhs: list[Fraction]):
    """Apply the exact reductions to fixpoint.

    Mutates ``rows``/``rhs``.  Returns (feasible, fixed) where fixed maps
    column index -> forced value; on infeasibility returns (False, fixed).
    """
    fixed: dict[int, Fraction] = {}

    def substitute(j: int, value: Fraction) -> bool:
        if value < 0:
            return False
        fixed[j] = value
        for i, row in enumerate(rows):
            coef = row.pop(j, None)
            if coef is not None and value != 0:
                rhs[i] -= coef * value
        return True

    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(rows):
            row = rows[i]
            if not row:
                if rhs[i] != 0:
                    return False, fixed
                del rows[i], rhs[i]
                changed = True
                continue
            if len(row) == 1:
                ((j, coef),) = row.items()
                if not substitute(j, rhs[i] / coef):
                    return False, fixed
                del rows[i], rhs[i]
                changed = True
                continue
            if rhs[i] == 0:
                signs = {coef > 0 for coef in row.values()}
                if len(signs) == 1:
                    for j in list(row):
                        if not substitute(j, _ZERO):
                            return False, fixed
                    del rows[i], rhs[i]
                    changed = True
                    continue
            i += 1
        if changed:
            continue
        # Row-difference dominance: if row_i - row_k is entrywise >= 0 then
        # (row_i - row_k).x = rhs_i - rhs_k with x >= 0 forces conclusions.
        for i in range(len(rows)):
            for k in range(len(rows)):
                if i == k:
                    continue
                ri, rk = rows[i], rows[k]
                diff = dict(ri)
                for j, coef in rk.items():
                    diff[j] = diff.get(j, _ZERO) - coef
                if any(dv < 0 for dv in diff.values()):
                    continue
                gap = rhs[i] - rhs[k]
                if gap < 0:
                    return False, fixed
                if gap == 0:
                    positive = [j for j, dv in diff.items() if dv > 0]
                    if positive:
                        for j in positive:
                            if not substitute(j, _ZERO):
                                return False, fixed
                        changed = True
                    elif all(dv == 0 for dv in diff.values()):
                        del rows[k], rhs[k]
                        changed = True
                if changed:
                    break
            if changed:
                break
    return True, fixed


def _fraction_pivot(tableau: list[list[Fraction]], cost: list[Fraction], basis: list[int], pr: int, pc: int):
    prow = tableau[pr]
    piv = prow[pc]
    if piv != 1:
        inv = _ONE / piv
        tableau[pr] = prow = [x * inv if x else x for x in prow]
    for i, row in enumerate(tableau):
        if i == pr:
            continue
        f = row[pc]
        if f:
            tableau[i] = [a - f * b if b else a for a, b in zip(row, prow)]
    f = cost[pc]
    if f:
        cost[:] = [a - f * b if b else a for a, b in zip(cost, prow)]
    basis[pr] = pc


def _fraction_iterate(tableau: list[list[Fraction]], cost: list[Fraction], basis: list[int], n_enter: int) -> str:
    """Run simplex pivots until optimal or unbounded (Bland's rule)."""
    while True:
        pc = -1
        for j in range(n_enter):
            if cost[j] < 0:
                pc = j
                break
        if pc < 0:
            return OPTIMAL
        pr = -1
        best: Fraction | None = None
        best_var = -1
        for i, row in enumerate(tableau):
            a = row[pc]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < best_var):
                    best, pr, best_var = ratio, i, basis[i]
        if pr < 0:
            return UNBOUNDED
        _fraction_pivot(tableau, cost, basis, pr, pc)


def _fraction_phase1(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]] | None:
    """Phase 1 on a dense system: a feasible basis, or None when infeasible.

    Returns the tableau over the real columns (right-hand side last), with
    redundant rows dropped, and its basis.  Nothing here depends on c.
    """
    r, m = len(rows), len(rows[0])
    rows = [list(row) for row in rows]
    rhs = list(rhs)
    for i in range(r):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # Artificial variables m..m+r-1, objective = their sum.
    tableau = [rows[i] + [_ONE if k == i else _ZERO for k in range(r)] + [rhs[i]] for i in range(r)]
    basis = list(range(m, m + r))
    cost = [_ZERO] * (m + r + 1)
    for i in range(r):
        row = tableau[i]
        for j in range(m):
            if row[j]:
                cost[j] -= row[j]
        cost[-1] -= row[-1]
    status = _fraction_iterate(tableau, cost, basis, m)
    if status != OPTIMAL:
        raise AssertionError("phase-1 objective is bounded below by zero")
    if -cost[-1] > 0:
        return None

    # Pivot leftover artificials out; an all-zero row is redundant.
    drop: list[int] = []
    for i in range(r):
        if basis[i] >= m:
            row = tableau[i]
            for j in range(m):
                if row[j]:
                    _fraction_pivot(tableau, cost, basis, i, j)
                    break
            else:
                drop.append(i)
    keep = [i for i in range(r) if i not in drop]
    return (
        tuple(tuple(tableau[i][:m]) + (tableau[i][-1],) for i in keep),
        tuple(basis[i] for i in keep),
    )


def _fraction_phase2(
    tableau: Sequence[Sequence[Fraction]], basis: Sequence[int], c: list[Fraction]
) -> tuple[str, list[Fraction] | None, list[int] | None]:
    """Phase 2 from a phase-1 tableau; returns (status, x, basis).

    The given rows are tuples and ``_pivot`` replaces rows instead of writing
    into them, so copying the outer list leaves the given tableau untouched.
    """
    m = len(c)
    tableau = list(tableau)
    basis = list(basis)
    cost = list(c) + [_ZERO]
    for i, row in enumerate(tableau):
        cb = c[basis[i]]
        if cb:
            for j in range(m):
                if row[j]:
                    cost[j] -= cb * row[j]
            cost[-1] -= cb * row[-1]
    status = _fraction_iterate(tableau, cost, basis, m)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [_ZERO] * m
    for i, bi in enumerate(basis):
        x[bi] = tableau[i][-1]
    return OPTIMAL, x, basis


def fraction_prepare(a: Matrix, b) -> tuple | None:
    """Presolve and phase 1 of {x >= 0 : a x = b} over Fractions, with no memo.

    Returns (fixed items, free columns, phase-1 tableau, basis), the tableau
    None when presolve settled every row; None when the system is infeasible.
    """
    rows = dict_rows(a)
    rhs = [Fraction(bi) for bi in b]
    feasible, fixedvals = fraction_presolve(rows, rhs)
    if not feasible:
        return None
    free = tuple(sorted(set(range(a.ncols)) - fixedvals.keys()))
    fixed = tuple(fixedvals.items())
    if not rows:
        return fixed, free, None, ()
    colmap = {j: k for k, j in enumerate(free)}
    dense = [[_ZERO] * len(free) for _ in rows]
    for i, row in enumerate(rows):
        for j, coef in row.items():
            dense[i][colmap[j]] = coef
    phase1 = _fraction_phase1(dense, rhs)
    if phase1 is None:
        return None
    return (fixed, free, *phase1)


def fraction_simplex(lp: StandardLp) -> LpResult:
    """Cold presolve, phase 1 and phase 2 of ``lp`` over Fractions, with no memo."""
    prep = fraction_prepare(lp.a, lp.b)
    if prep is None:
        return LpResult(INFEASIBLE)
    fixed, free, tableau, basis = prep
    x = [_ZERO] * lp.n
    for j, v in fixed:
        x[j] = v
    if tableau is not None:
        status, core_x, _ = _fraction_phase2(tableau, basis, [lp.c[j] for j in free])
        if status != OPTIMAL:
            return LpResult(status)
        for k, j in enumerate(free):
            x[j] = core_x[k]
    elif free:
        # No constraints left: minimize over the non-negative orthant.
        if any(lp.c[j] < 0 for j in free):
            return LpResult(UNBOUNDED)
    objective = sum((cj * xj for cj, xj in zip(lp.c, x)), _ZERO)
    return LpResult(OPTIMAL, tuple(x), objective)


# ---------------------------------------------------------------------------
# helpers


@contextmanager
def shallow_stack(frames=50):
    """A recursion limit ``frames`` above the caller's depth, for the block's duration."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def fuzz_by_search(seed: int, trials: int) -> measures.FuzzReport:
    """``measures.fuzz_cook`` with each of its enumerations run by the LP search, none by the DP."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "enumerate_integral_optima", ilp._search)
        return measures.fuzz_cook(seed, trials)
