"""Exact rational linear programming in equality form min{c.x : Ax = b, x >= 0}.

The solver is a two-phase tableau simplex over Fractions with Bland's
smallest-index rule for both the entering and the leaving variable, which
makes it terminating and bit-for-bit deterministic.  A presolve pass runs
first and repeatedly applies three exact reductions:

  * a row with no remaining variables must have zero right-hand side;
  * a row with one remaining variable forces that variable's value;
  * a row (or an entrywise difference of two rows) with non-negative
    coefficients and zero right-hand side forces all its variables to 0.

On the staircase systems this package mostly deals with, presolve pins
almost every variable, so the simplex core usually sees a small residue.

A solve has two parts.  Preparing (A, b) covers everything that does not
depend on c: the sparse rows (kept by the ``Matrix``), presolve, the dense
core over the variables presolve left free, and phase 1, which ends in a
feasible basis of that core or proves the system infeasible.  Phase 2 then
prices c against a copy of the prepared tableau and pivots to optimality.

The last preparation is remembered, keyed on the identity of the matrix
object and the value of b.  That is exact: a ``Matrix`` holds only tuples,
so the same object always has the same entries; the memo holds the matrix,
so its identity cannot pass to another one; and phase 2 never writes into
the prepared tableau.  A reused preparation is the one a cold solve would
compute, so results are bit-for-bit those of a cold solve.  The hit comes
from callers that solve one system under several objectives:
``coord_range``'s min and max, and the enumeration's objective bound at a
node followed by that node's ``coord_range``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactla import Matrix, Vec, vec

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class StandardLp:
    """min c.x subject to a x = b, x >= 0."""

    a: Matrix
    b: Vec
    c: Vec

    def __post_init__(self):
        if self.a.ncols < 1:
            raise ValueError("need at least one variable")
        if len(self.b) != self.a.nrows:
            raise ValueError(f"b has length {len(self.b)}, matrix has {self.a.nrows} rows")
        if len(self.c) != self.a.ncols:
            raise ValueError(f"c has length {len(self.c)}, matrix has {self.a.ncols} columns")

    @property
    def n(self) -> int:
        return self.a.ncols

    @property
    def d(self) -> int:
        return self.a.nrows


@dataclass(frozen=True)
class LpResult:
    status: str
    solution: Vec | None = None
    objective: Fraction | None = None
    basis: frozenset[int] | None = None


@dataclass(frozen=True)
class CoordRange:
    """Exact range of one coordinate over an LP feasible region.

    ``empty`` marks an infeasible prefix.  ``hi`` is None when the
    coordinate is unbounded above.
    """

    empty: bool
    lo: Fraction | None = None
    hi: Fraction | None = None


# ---------------------------------------------------------------------------
# presolve


def _presolve(rows: list[dict[int, Fraction]], rhs: list[Fraction]):
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


# ---------------------------------------------------------------------------
# simplex: phase 1 needs only (A, b), phase 2 adds c


def _pivot(tableau: list[list[Fraction]], cost: list[Fraction], basis: list[int], pr: int, pc: int):
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


def _iterate(tableau: list[list[Fraction]], cost: list[Fraction], basis: list[int], n_enter: int) -> str:
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
        _pivot(tableau, cost, basis, pr, pc)


def _phase1(
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
    status = _iterate(tableau, cost, basis, m)
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
                    _pivot(tableau, cost, basis, i, j)
                    break
            else:
                drop.append(i)
    keep = [i for i in range(r) if i not in drop]
    return (
        tuple(tuple(tableau[i][:m]) + (tableau[i][-1],) for i in keep),
        tuple(basis[i] for i in keep),
    )


def _phase2(
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
    status = _iterate(tableau, cost, basis, m)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [_ZERO] * m
    for i, bi in enumerate(basis):
        x[bi] = tableau[i][-1]
    return OPTIMAL, x, basis


# ---------------------------------------------------------------------------
# preparation of (A, b)


@dataclass(frozen=True)
class _Prepared:
    """The objective-independent part of a solve of a feasible (A, b).

    ``tableau`` is the phase-1 tableau over the ``free`` columns, or None when
    presolve settled every row; ``basis`` indexes into ``free``.
    """

    fixed: tuple[tuple[int, Fraction], ...]
    free: tuple[int, ...]
    tableau: tuple[tuple[Fraction, ...], ...] | None
    basis: tuple[int, ...]


def _prepare_cold(a: Matrix, b: Vec) -> _Prepared | None:
    """Presolve and phase 1 of {x >= 0 : a x = b}; None when it is infeasible."""
    rows = [dict(r) for r in a.sparse_rows]
    rhs = list(b)
    feasible, fixedvals = _presolve(rows, rhs)
    if not feasible:
        return None
    free = tuple(sorted(set(range(a.ncols)) - fixedvals.keys()))
    fixed = tuple(fixedvals.items())
    if not rows:
        return _Prepared(fixed, free, None, ())
    colmap = {j: k for k, j in enumerate(free)}
    dense = [[_ZERO] * len(free) for _ in rows]
    for i, row in enumerate(rows):
        for j, coef in row.items():
            dense[i][colmap[j]] = coef
    phase1 = _phase1(dense, rhs)
    if phase1 is None:
        return None
    return _Prepared(fixed, free, *phase1)


#: (a, b, preparation) of the last system prepared.  ``a`` is held, so its
#: identity cannot pass to another matrix while it is remembered.  Every
#: caller in the process shares it, which changes no result: an entry is
#: only ever reused for the system it was computed from.
_last_prepared: tuple[Matrix, Vec, _Prepared | None] | None = None


def _prepare(a: Matrix, b: Vec) -> _Prepared | None:
    """``_prepare_cold(a, b)``, reusing the last result for the same matrix and b."""
    global _last_prepared
    b = tuple(b)
    last = _last_prepared  # one read, so a concurrent update cannot split the entry
    if last is not None and last[0] is a and last[1] == b:
        return last[2]
    prep = _prepare_cold(a, b)
    _last_prepared = (a, b, prep)
    return prep


# ---------------------------------------------------------------------------
# public API


def lp_solve(lp: StandardLp) -> LpResult:
    """Exact optimal basic solution, or an infeasible/unbounded certificate status."""
    prep = _prepare(lp.a, lp.b)
    if prep is None:
        return LpResult(INFEASIBLE)
    x = [_ZERO] * lp.n
    for j, v in prep.fixed:
        x[j] = v

    core_basis: list[int] = []
    if prep.tableau is not None:
        status, core_x, basis = _phase2(prep.tableau, prep.basis, [lp.c[j] for j in prep.free])
        if status != OPTIMAL:
            return LpResult(status)
        for k, j in enumerate(prep.free):
            x[j] = core_x[k]
        core_basis = [prep.free[k] for k in basis]
    elif prep.free:
        # No constraints left: minimize over the non-negative orthant.
        if any(lp.c[j] < 0 for j in prep.free):
            return LpResult(UNBOUNDED)

    # c is mostly zero (coord_range's has one non-zero entry): skip zero terms
    objective = sum((cj * x[j] for j, cj in enumerate(lp.c) if cj), _ZERO)
    basis_set = frozenset(core_basis) | {j for j, v in prep.fixed if v != 0}
    return LpResult(OPTIMAL, tuple(x), objective, basis_set)


def is_feasible_point(lp: StandardLp, x: Sequence[Fraction | int | str]) -> bool:
    """True iff A.x = b exactly and x >= 0 entrywise."""
    xv = vec(x)
    if len(xv) != lp.n:
        raise ValueError(f"point has length {len(xv)}, LP has {lp.n} variables")
    if any(v < 0 for v in xv):
        return False
    return lp.a.mul_vec(xv) == tuple(lp.b)


def _restricted(lp: StandardLp, fixed: Sequence[Fraction]) -> tuple[Matrix, Vec] | None:
    """Substitute fixed leading coordinates; None if a fixed value is negative."""
    if any(v < 0 for v in fixed):
        return None
    rhs = list(lp.b)
    for j, v in enumerate(fixed):
        if v:
            for i in range(lp.d):
                coef = lp.a.rows[i][j]
                if coef:
                    rhs[i] -= coef * v
    return lp.a.tail(len(fixed)), tuple(rhs)


def coord_range(lp: StandardLp, fixed: Sequence[Fraction | int | str] = ()) -> CoordRange:
    """Exact [min, max] of the next free coordinate, given fixed leading ones.

    Returns an empty range when the fixed prefix is infeasible; ``hi`` is
    None when the coordinate is unbounded above.  Both solves see the same
    matrix object and right-hand side, so the second reuses the first's
    preparation.
    """
    fixedv = vec(fixed)
    if len(fixedv) >= lp.n:
        raise ValueError("no free coordinate left to bound")
    restricted = _restricted(lp, fixedv)
    if restricted is None:
        return CoordRange(empty=True)
    rest, rhs = restricted
    zeros = (_ZERO,) * (rest.ncols - 1)
    res_lo = lp_solve(StandardLp(rest, rhs, (_ONE,) + zeros))
    if res_lo.status == INFEASIBLE:
        return CoordRange(empty=True)
    if res_lo.status != OPTIMAL:
        raise AssertionError("objective x_k >= 0 cannot be unbounded below")
    res_hi = lp_solve(StandardLp(rest, rhs, (-_ONE,) + zeros))
    hi = None if res_hi.status == UNBOUNDED else -res_hi.objective
    return CoordRange(False, res_lo.objective, hi)
