"""Exact rational linear programming in equality form min{c.x : Ax = b, x >= 0}.

The solver is a two-phase tableau simplex with Bland's smallest-index rule
for both the entering and the leaving variable, which makes it terminating
and bit-for-bit deterministic.  It pivots fraction-free (Bareiss 1968,
Edmonds 1967): each tableau row, the cost row included, is a list of Python
ints over one positive int denominator, kept primitive by dividing out the
gcd after every update.  Each such row stands for exactly the rational row
of a tableau kept in Fractions, and Bland's rule reads only what that
tableau would give it: the sign of a cost entry is the sign of its
numerator, and the ratio rhs/entry of a row is the ratio of its numerators,
since the row's denominator cancels; two ratios are compared by
cross-multiplication.  So every pivot, basis, solution and objective is the
one the Fraction tableau reaches.  Fractions appear only where c is scaled
to an integer row, where b enters presolve, and at the values returned.

A presolve pass runs first and repeatedly applies three exact reductions:

  * a row with no remaining variables must have zero right-hand side;
  * a row with one remaining variable forces that variable's value;
  * a row (or an entrywise difference of two rows) with non-negative
    coefficients and zero right-hand side forces all its variables to 0.

On the staircase systems this package mostly deals with, presolve pins
almost every variable, so the simplex core usually sees a small residue.
Presolve is integer-native too.  Each live row is an int row, an int
right-hand side and one positive int scale, standing for the rational row
and right-hand side both divided by the scale; the rows start from the
matrix's integer pattern.  The reductions read exactly the rationals a
Fraction presolve would: a scale is positive, so entry signs are numerator
signs; entries and right-hand sides of two rows are compared by
cross-multiplying with the other row's scale; and a forced value is a
reduced int pair p/q, substituted as ``t - coef*p`` once the row's entries,
right-hand side and scale are multiplied by q.  So presolve forces the same
values in the same order and leaves the same rows.  Phase 1 divides each
left-over row by the gcd of its scale and entries, which gives back the
unique primitive integer row of those rationals, the row the simplex
starts from.

A solve has two parts.  Preparing (A, b) covers everything that does not
depend on c: presolve from the matrix's integer pattern, the dense core over
the variables presolve left free, and phase 1, which ends in a feasible
basis of that core or proves the system infeasible.  Phase 2 then
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
from math import gcd, lcm
from typing import Sequence

from .exactla import Matrix, PatternRow, Vec, vec

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

    ``empty`` marks an infeasible system.  ``hi`` is None when the
    coordinate is unbounded above.
    """

    empty: bool
    lo: Fraction | None = None
    hi: Fraction | None = None


# ---------------------------------------------------------------------------
# presolve


def _dominates(ri: dict[int, int], si: int, rk: dict[int, int], sk: int) -> bool:
    """True iff ri/si - rk/sk is entrywise >= 0, read without building the difference.

    Both scales are positive, so entry j of the difference has the sign of
    ri[j]*sk - rk[j]*si.
    """
    get = ri.get
    for j, coef in rk.items():
        if get(j, 0) * sk < coef * si:
            return False
    for j, coef in ri.items():
        if coef < 0 and j not in rk:
            return False
    return True


def _presolve(pattern: Sequence[PatternRow], b: Vec):
    """Apply the exact reductions to {x >= 0 : A x = b} to fixpoint.

    ``pattern`` is A's integer pattern (``Matrix.sparse_rows``).  Returns
    (feasible, fixed, live): fixed maps column index -> forced value as a
    reduced int pair (p, q) with q > 0, in the order the values were
    forced, and live holds the rows left over, in their order, as
    ``[row, t, s]`` entries: an int row dict, an int right-hand side and a
    positive int scale, standing for row/s . x = t/s.  On infeasibility
    returns (False, fixed, live) as far as it got.

    Row i starts as the pattern's numerators over its scale s with
    b_i = p/q as right-hand side, all over s*q.  A holder index maps each
    column to the entries whose row holds it.  Forcing a column visits only
    those entries and then drops the column from the index, since no row
    holds it any more; rows never gain columns, so the index needs no other
    upkeep.  A row deleted while it still holds columns (a duplicate) is
    emptied, so the index entries that still name it do nothing.
    """
    live: list[list] = []
    for (s, pairs), bi in zip(pattern, b):
        p, q = bi.numerator, bi.denominator
        if q == 1:
            live.append([dict(pairs), p * s, s])
        else:
            live.append([{j: v * q for j, v in pairs}, p * s, s * q])
    holders: dict[int, list[list]] = {}
    for entry in live:
        for j in entry[0]:
            holders.setdefault(j, []).append(entry)
    fixed: dict[int, tuple[int, int]] = {}

    def substitute(j: int, p: int, q: int) -> bool:
        """Force x_j = p/q (q > 0) in every row that holds column j."""
        if p < 0:
            return False
        fixed[j] = (p, q)
        for entry in holders.pop(j, ()):
            row = entry[0]
            coef = row.pop(j, None)
            if coef is None or not p:
                continue
            if q != 1:
                # t/s - coef*p/(q*s) is (t*q - coef*p)/(s*q): the row over s*q
                for col in row:
                    row[col] *= q
                entry[1] *= q
                entry[2] *= q
            entry[1] -= coef * p
        return True

    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(live):
            row, t, _ = live[i]
            if not row:
                if t != 0:
                    return False, fixed, live
                del live[i]
                changed = True
                continue
            if len(row) == 1:
                # the scale cancels: the value is t / coef
                ((j, coef),) = row.items()
                g = gcd(t, coef)
                p, q = t // g, coef // g
                if q < 0:
                    p, q = -p, -q
                if not substitute(j, p, q):
                    return False, fixed, live
                del live[i]
                changed = True
                continue
            if t == 0:
                signs = {coef > 0 for coef in row.values()}
                if len(signs) == 1:
                    for j in list(row):
                        if not substitute(j, 0, 1):
                            return False, fixed, live
                    del live[i]
                    changed = True
                    continue
            i += 1
        if changed:
            continue
        # Row-difference dominance: if row_i - row_k is entrywise >= 0 then
        # (row_i - row_k).x = rhs_i - rhs_k with x >= 0 forces conclusions.
        # The difference is kept over si*sk.
        for i, (ri, ti, si) in enumerate(live):
            for k, (rk, tk, sk) in enumerate(live):
                if i == k or not _dominates(ri, si, rk, sk):
                    continue
                diff = {j: v * sk for j, v in ri.items()}
                for j, coef in rk.items():
                    diff[j] = diff.get(j, 0) - coef * si
                gap = ti * sk - tk * si
                if gap < 0:
                    return False, fixed, live
                if gap == 0:
                    positive = [j for j, dv in diff.items() if dv > 0]
                    if positive:
                        for j in positive:
                            if not substitute(j, 0, 1):
                                return False, fixed, live
                        changed = True
                    elif all(dv == 0 for dv in diff.values()):
                        live.pop(k)[0].clear()
                        changed = True
                if changed:
                    break
            if changed:
                break
    return True, fixed, live


# ---------------------------------------------------------------------------
# simplex on integer rows: phase 1 needs only (A, b), phase 2 adds c
#
# A tableau is ``rows``, ``dens`` and ``basis``: row i stands for the rational
# row rows[i][j] / dens[i] (right-hand side last), with gcd(dens[i], *rows[i])
# == 1, dens[i] > 0 and rows[i][basis[i]] == dens[i].  The last row is the
# cost row and has no basis entry.


def _primitive(row: list[int], den: int) -> tuple[list[int], int]:
    """The same rational row with gcd(den, *row) == 1."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [x // g for x in row], den // g


def _pivot(rows: list[list[int]], dens: list[int], basis: list[int], pr: int, pc: int):
    # The pivot row over its pivot entry q needs no gcd step: a row's entry
    # in its own basic column equals its denominator, so gcd(*prow) divides
    # that denominator and, the row being primitive, is 1.
    prow = rows[pr]
    q = prow[pc]
    if q < 0:
        prow = [-x for x in prow]
        q = -q
        rows[pr] = prow
    dens[pr] = q
    for i, row in enumerate(rows):
        f = row[pc]
        if not f or i == pr:
            continue
        new = [a * q - f * b for a, b in zip(row, prow)]
        rows[i], dens[i] = _primitive(new, dens[i] * q)
    basis[pr] = pc


def _iterate(rows: list[list[int]], dens: list[int], basis: list[int], n_enter: int) -> str:
    """Run simplex pivots until optimal or unbounded (Bland's rule)."""
    while True:
        cost = rows[-1]
        pc = -1
        for j in range(n_enter):
            if cost[j] < 0:
                pc = j
                break
        if pc < 0:
            return OPTIMAL
        # least ratio row[-1] / row[pc] (the row's denominator cancels),
        # ties to the smaller basic index
        pr = -1
        best_t = best_a = best_var = 0
        for i, bi in enumerate(basis):
            row = rows[i]
            a = row[pc]
            if a > 0:
                t = row[-1]
                if pr >= 0:
                    lhs, rhs = t * best_a, best_t * a
                    if lhs > rhs or (lhs == rhs and bi > best_var):
                        continue
                pr, best_t, best_a, best_var = i, t, a, bi
        if pr < 0:
            return UNBOUNDED
        _pivot(rows, dens, basis, pr, pc)


def _phase1(
    rows: list[list[int]], rhs: list[int], scales: list[int]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]] | None:
    """Phase 1 on a dense system: a feasible basis, or None when infeasible.

    Row i is rows[i] . x = rhs[i], both over the positive scale scales[i].
    Returns the tableau over the real columns (right-hand side last) as
    integer rows and their denominators, with redundant rows dropped, and
    its basis.  Nothing here depends on c.
    """
    r, m = len(rows), len(rows[0])
    # Each row and its rhs as a primitive integer row over its denominator
    # (negated when the rhs is negative); artificial variables m..m+r-1.
    tableau: list[list[int]] = []
    dens: list[int] = []
    for i, (row, t, s) in enumerate(zip(rows, rhs, scales)):
        nums, den = _primitive(row + [t], s)
        if nums[-1] < 0:
            nums = [-x for x in nums]
        artificial = [0] * r
        artificial[i] = den
        tableau.append(nums[:-1] + artificial + nums[-1:])
        dens.append(den)
    basis = list(range(m, m + r))

    # Objective = sum of the artificials, priced out: minus the sum of rows.
    cost_den = lcm(*dens)
    cost = [0] * (m + r + 1)
    for row, den in zip(tableau, dens):
        f = cost_den // den
        for j in range(m):
            if row[j]:
                cost[j] -= f * row[j]
        cost[-1] -= f * row[-1]
    cost, cost_den = _primitive(cost, cost_den)
    tableau.append(cost)
    dens.append(cost_den)

    status = _iterate(tableau, dens, basis, m)
    if status != OPTIMAL:
        raise AssertionError("phase-1 objective is bounded below by zero")
    if tableau[-1][-1] < 0:
        return None

    # Pivot leftover artificials out; an all-zero row is redundant.
    drop: list[int] = []
    for i in range(r):
        if basis[i] >= m:
            row = tableau[i]
            for j in range(m):
                if row[j]:
                    _pivot(tableau, dens, basis, i, j)
                    break
            else:
                drop.append(i)
    keep = [i for i in range(r) if i not in drop]
    # without the artificial columns a row can share a factor with its den
    prepared = [_primitive(tableau[i][:m] + tableau[i][-1:], dens[i]) for i in keep]
    return (
        tuple(tuple(row) for row, _ in prepared),
        tuple(den for _, den in prepared),
        tuple(basis[i] for i in keep),
    )


def _phase2(
    tableau: Sequence[Sequence[int]], dens: Sequence[int], basis: Sequence[int], c: list[Fraction]
) -> tuple[str, list[Fraction] | None, list[int] | None]:
    """Phase 2 from a phase-1 tableau; returns (status, x, basis).

    The given rows are tuples and ``_pivot`` replaces rows instead of writing
    into them, so copying the outer lists leaves the given tableau untouched.
    """
    m = len(c)
    rows = list(tableau)
    dens = list(dens)
    basis = list(basis)
    # cost = c - sum_i c[basis[i]] * row_i, over c's scale times the lcm of
    # the denominators of the rows it takes
    c_den = lcm(*(x.denominator for x in c))
    cn = [x.numerator * (c_den // x.denominator) for x in c]
    rows_den = lcm(*(dens[i] for i, bi in enumerate(basis) if cn[bi]))
    cost = [x * rows_den for x in cn] + [0]
    for i, bi in enumerate(basis):
        if cn[bi]:
            f = cn[bi] * (rows_den // dens[i])
            cost = [a - f * b if b else a for a, b in zip(cost, rows[i])]
    cost, cost_den = _primitive(cost, c_den * rows_den)
    rows.append(cost)
    dens.append(cost_den)

    status = _iterate(rows, dens, basis, m)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [_ZERO] * m
    for i, bi in enumerate(basis):
        x[bi] = Fraction(rows[i][-1], dens[i])
    return OPTIMAL, x, basis


# ---------------------------------------------------------------------------
# preparation of (A, b)


@dataclass(frozen=True)
class _Prepared:
    """The objective-independent part of a solve of a feasible (A, b).

    ``tableau`` is the phase-1 tableau over the ``free`` columns as integer
    rows over ``dens``, or None when presolve settled every row; ``basis``
    indexes into ``free``.
    """

    fixed: tuple[tuple[int, Fraction], ...]
    free: tuple[int, ...]
    tableau: tuple[tuple[int, ...], ...] | None
    dens: tuple[int, ...]
    basis: tuple[int, ...]


def _prepare_cold(a: Matrix, b: Vec) -> _Prepared | None:
    """Presolve and phase 1 of {x >= 0 : a x = b}; None when it is infeasible."""
    feasible, fixedvals, live = _presolve(a.sparse_rows, b)
    if not feasible:
        return None
    free = tuple(sorted(set(range(a.ncols)) - fixedvals.keys()))
    fixed = tuple((j, Fraction(p, q) if p else _ZERO) for j, (p, q) in fixedvals.items())
    if not live:
        return _Prepared(fixed, free, None, (), ())
    colmap = {j: k for k, j in enumerate(free)}
    dense = [[0] * len(free) for _ in live]
    for i, (row, _, _) in enumerate(live):
        for j, coef in row.items():
            dense[i][colmap[j]] = coef
    phase1 = _phase1(dense, [t for _, t, _ in live], [s for _, _, s in live])
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
        status, core_x, basis = _phase2(prep.tableau, prep.dens, prep.basis, [lp.c[j] for j in prep.free])
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


def coord_range(lp: StandardLp) -> CoordRange:
    """Exact [min, max] of x_0 over {x >= 0 : A x = b}.

    Returns an empty range when the system is infeasible; ``hi`` is None
    when x_0 is unbounded above.  Both solves see the same matrix object
    and right-hand side, so the second reuses the first's preparation.
    A caller that fixes leading coordinates passes the system left over:
    ``a.tail(k)`` and b minus the fixed columns times their values.
    """
    zeros = (_ZERO,) * (lp.n - 1)
    res_lo = lp_solve(StandardLp(lp.a, lp.b, (_ONE,) + zeros))
    if res_lo.status == INFEASIBLE:
        return CoordRange(empty=True)
    if res_lo.status != OPTIMAL:
        raise AssertionError("objective x_0 >= 0 cannot be unbounded below")
    res_hi = lp_solve(StandardLp(lp.a, lp.b, (-_ONE,) + zeros))
    hi = None if res_hi.status == UNBOUNDED else -res_hi.objective
    return CoordRange(False, res_lo.objective, hi)
