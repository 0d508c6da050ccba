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
one the Fraction tableau reaches.  Fractions appear only where
``lp_solve`` scales c and b to ints and builds the values it returns.

A presolve pass runs first and repeatedly applies three exact reductions:

  * a row with no remaining variables must have zero right-hand side;
  * a row with one remaining variable forces that variable's value;
  * a row (or an entrywise difference of two rows) with non-negative
    coefficients and zero right-hand side forces all its variables to 0.

On the staircase systems this package mostly deals with, presolve pins
almost every variable, so the simplex core usually sees a small residue.
Presolve is integer-native too.  Each live row is an int row, an int
right-hand side and one positive int scale, standing for the rational row
and right-hand side both divided by the scale.  Row i starts from the
matrix's integer pattern, over its pattern scale s_i times a multiplier
q_i: for ``lp_solve``, b_i = p/q gives the right-hand side p*s_i over
s_i*q; for an enumeration node, q_i stays b_i's denominator and the
right-hand side is the int residual over the same scale, with the fixed
leading columns left out.  That scale need not be the least one.  The
reductions read exactly the rationals a Fraction presolve would: a scale is
positive, so entry signs are numerator signs; entries and right-hand sides of two rows are compared by
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
prices c, scaled to an int row, against a copy of the prepared tableau and
pivots to optimality; the optimum is the cost row's right-hand side,
negated, over its denominator.  ``lp_solve`` and the enumeration's node
solve ``residual_range`` share that one preparation routine.

``lp_solve`` remembers its last preparation, keyed on the identity of the
matrix object and the value of b.  That is exact: a ``Matrix`` holds only
tuples, so the same object always has the same entries; the memo holds the
matrix, so its identity cannot pass to another one; and phase 2 never
writes into the prepared tableau.  A reused preparation is the one a cold
solve would compute, so results are bit-for-bit those of a cold solve.  The
hit comes from ``coord_range``, whose min and max solve one system; the
second solve also reuses the fixed-value vector and the set of non-zero
fixed columns that the preparation keeps.

An enumeration node needs no memo.  ``residual_range`` prepares the node's
residual system once and reads the objective bound and both ends of the
node's variable off it, by one phase 2 each, all in ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


def _int_rhs(pattern: Sequence[PatternRow], b: Vec) -> tuple[list[int], list[int]]:
    """b as the int right-hand sides ``_presolve`` takes, and their multipliers.

    b_i = p/q becomes p*s over the scale s*q, where s is row i's pattern
    scale; the multipliers are the q.
    """
    return [bi.numerator * s for (s, _), bi in zip(pattern, b)], [bi.denominator for bi in b]


def _presolve(pattern: Sequence[PatternRow], k: int, rhs: Sequence[int], mults: Sequence[int]):
    """Apply the exact reductions to {x_k.. >= 0 : A[:, k:] x = r} to fixpoint.

    ``pattern`` is A's integer pattern (``Matrix.sparse_rows``), and row i
    keeps its columns j >= k, each as its numerator times mults[i], with
    rhs[i] as right-hand side, all over the scale s*mults[i]; that is, r_i
    is rhs[i] / (s*mults[i]).  Columns keep their indices in A.  Returns
    (feasible, fixed, live): fixed maps column index -> forced value as a
    reduced int pair (p, q) with q > 0, in the order the values were
    forced, and live holds the rows left over, in their order, as
    ``[row, t, s]`` entries: an int row dict, an int right-hand side and a
    positive int scale, standing for row/s . x = t/s.  On infeasibility
    returns (False, fixed, live) as far as it got.

    A holder index maps each column to the entries whose row holds it.
    Forcing a column visits only those entries and then drops the column
    from the index, since no row holds it any more; rows never gain
    columns, so the index needs no other upkeep.  A row deleted while it
    still holds columns (a duplicate) is emptied, so the index entries that
    still name it do nothing.
    """
    live: list[list] = []
    for (s, pairs), t, q in zip(pattern, rhs, mults):
        if q == 1:
            row = dict(pairs) if not k else {j: v for j, v in pairs if j >= k}
        else:
            row = {j: v * q for j, v in pairs if j >= k}
        live.append([row, t, s * q])
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
    tableau: Sequence[Sequence[int]], dens: Sequence[int], basis: Sequence[int], cost: Sequence[int]
) -> tuple[list[list[int]], list[int], list[int]] | None:
    """Phase 2 from a phase-1 tableau under the int costs ``cost``; None when unbounded.

    Returns the optimal tableau, cost row last, with its denominators and
    basis.  The cost row stands for cost - y.A, with -z as right-hand side,
    z the optimum of cost.x.  The given rows are tuples and ``_pivot``
    replaces rows instead of writing into them, so copying the outer lists
    leaves the given tableau untouched.
    """
    m = len(cost)
    rows = list(tableau)
    dens = list(dens)
    basis = list(basis)
    # cost - sum_i cost[basis[i]] * row_i, over the lcm of the denominators
    # of the rows it takes
    rows_den = lcm(*(dens[i] for i, bi in enumerate(basis) if cost[bi]))
    crow = [x * rows_den for x in cost] + [0]
    for i, bi in enumerate(basis):
        if cost[bi]:
            f = cost[bi] * (rows_den // dens[i])
            crow = [a - f * b if b else a for a, b in zip(crow, rows[i])]
    crow, cost_den = _primitive(crow, rows_den)
    rows.append(crow)
    dens.append(cost_den)
    if _iterate(rows, dens, basis, m) == UNBOUNDED:
        return None
    return rows, dens, basis


# ---------------------------------------------------------------------------
# preparation of a residual system


@dataclass(frozen=True)
class _Prepared:
    """The objective-independent part of a solve of a feasible residual system.

    ``fixed`` maps each column presolve forced to its value as a reduced int
    pair (p, q), in forcing order.  ``tableau`` is the phase-1 tableau over
    the ``free`` columns as integer rows over ``dens``, or None when presolve
    settled every row; ``basis`` indexes into ``free``.  ``x`` and
    ``fixed_support``, what every ``lp_solve`` answer starts from, are
    computed on first use and kept with the preparation.
    """

    n: int
    fixed: dict[int, tuple[int, int]]
    free: tuple[int, ...]
    tableau: tuple[tuple[int, ...], ...] | None
    dens: tuple[int, ...]
    basis: tuple[int, ...]

    @cached_property
    def x(self) -> Vec:
        """The fixed values at their columns, 0 everywhere else."""
        x = [_ZERO] * self.n
        for j, (p, q) in self.fixed.items():
            if p:
                x[j] = Fraction(p, q)
        return tuple(x)

    @cached_property
    def fixed_support(self) -> frozenset[int]:
        """The fixed columns with a non-zero value, which every basis holds."""
        return frozenset(j for j, (p, _) in self.fixed.items() if p)


def _prepare(a: Matrix, k: int, rhs: Sequence[int], mults: Sequence[int]) -> _Prepared | None:
    """Presolve and phase 1 of {x_k.. >= 0 : A[:, k:] x = r}; None when it is infeasible.

    The system and its arguments are ``_presolve``'s; columns keep their
    indices in A, and ``free`` lists the columns >= k presolve left.
    """
    feasible, fixed, live = _presolve(a.sparse_rows, k, rhs, mults)
    if not feasible:
        return None
    free = tuple(j for j in range(k, a.ncols) if j not in fixed)
    if not live:
        return _Prepared(a.ncols, fixed, free, None, (), ())
    colmap = {j: i for i, j in enumerate(free)}
    dense = [[0] * len(free) for _ in live]
    for i, (row, _, _) in enumerate(live):
        for j, coef in row.items():
            dense[i][colmap[j]] = coef
    phase1 = _phase1(dense, [t for _, t, _ in live], [s for _, _, s in live])
    if phase1 is None:
        return None
    return _Prepared(a.ncols, fixed, free, *phase1)


#: (a, b, preparation) of the last system ``lp_solve`` prepared.  ``a`` is
#: held, so its identity cannot pass to another matrix while it is
#: remembered.  Every caller in the process shares it, which changes no
#: result: an entry is only ever reused for the system it was computed from.
_last_prepared: tuple[Matrix, Vec, _Prepared | None] | None = None


def _prepare_system(a: Matrix, b: Vec) -> _Prepared | None:
    """The preparation of {x >= 0 : a x = b}, reusing the last one for the same matrix and b."""
    global _last_prepared
    b = tuple(b)
    last = _last_prepared  # one read, so a concurrent update cannot split the entry
    if last is not None and last[0] is a and last[1] == b:
        return last[2]
    prep = _prepare(a, 0, *_int_rhs(a.sparse_rows, b))
    _last_prepared = (a, b, prep)
    return prep


# ---------------------------------------------------------------------------
# public API


def lp_solve(lp: StandardLp) -> LpResult:
    """Exact optimal basic solution, or an infeasible/unbounded certificate status."""
    prep = _prepare_system(lp.a, lp.b)
    if prep is None:
        return LpResult(INFEASIBLE)
    x = list(prep.x)
    core_basis: list[int] = []
    if prep.tableau is not None:
        free = prep.free
        c = [lp.c[j] for j in free]
        c_den = lcm(*(cj.denominator for cj in c))
        done = _phase2(
            prep.tableau, prep.dens, prep.basis, [cj.numerator * (c_den // cj.denominator) for cj in c]
        )
        if done is None:
            return LpResult(UNBOUNDED)
        rows, dens, basis = done
        for i, k in enumerate(basis):
            x[free[k]] = Fraction(rows[i][-1], dens[i])
        core_basis = [free[k] for k in basis]
    elif prep.free:
        # No constraints left: minimize over the non-negative orthant.
        if any(lp.c[j] < 0 for j in prep.free):
            return LpResult(UNBOUNDED)

    # c is mostly zero (coord_range's has one non-zero entry): skip zero terms
    objective = sum((cj * x[j] for j, cj in enumerate(lp.c) if cj), _ZERO)
    return LpResult(OPTIMAL, tuple(x), objective, prep.fixed_support.union(core_basis))


def _minimum(prep: _Prepared, cost: Sequence[int]) -> tuple[int, int] | None:
    """min cost.x over a prepared system as num / den with den > 0; None when unbounded.

    ``cost`` is indexed by column of A; only the prepared system's columns
    are read.  The free columns' part is read off the optimal cost row,
    whose right-hand side is -z over the row's denominator.
    """
    num, den = 0, 1
    if prep.tableau is not None:
        core = [cost[j] for j in prep.free]
        if any(core):
            done = _phase2(prep.tableau, prep.dens, prep.basis, core)
            if done is None:
                return None
            num, den = -done[0][-1][-1], done[1][-1]
    elif any(cost[j] < 0 for j in prep.free):
        return None  # no rows left: the orthant is unbounded along that column
    for j, (p, q) in prep.fixed.items():
        w = cost[j]
        if w and p:
            num, den = num * q + w * p * den, den * q
    return num, den


def residual_range(
    a: Matrix,
    k: int,
    rhs: Sequence[int],
    mults: Sequence[int],
    cost: Sequence[int],
    cutoff: int | None,
) -> tuple[int, int | None] | None:
    """The integer range of x_k over a residual system, or None when it is pruned.

    The system is {x_k.. >= 0 : A[:, k:] x = r}, what is left of A x = b
    once x_0..x_{k-1} are fixed, given as ``_presolve`` takes it: r_i is
    rhs[i] / (s_i*mults[i]), with s_i row i's pattern scale.  Returns
    (ceil(min x_k), floor(max x_k)), the second None when x_k is unbounded
    above.  Returns None when the system is infeasible, or when ``cutoff``
    is given and the minimum of cost.x over the system (``cost`` is
    indexed by column of A) is larger than it; an unbounded minimum prunes
    nothing.

    All three answers come from one preparation, presolve and phase 1,
    each by a phase 2 on a copy of its tableau, and all are ints: no
    Fraction is built.
    """
    prep = _prepare(a, k, rhs, mults)
    if prep is None:
        return None
    if cutoff is not None:
        bound = _minimum(prep, cost)
        if bound is not None and bound[0] > cutoff * bound[1]:
            return None
    unit = [0] * a.ncols
    unit[k] = 1
    low = _minimum(prep, unit)
    if low is None:
        raise AssertionError("objective x_k >= 0 cannot be unbounded below")
    unit[k] = -1
    high = _minimum(prep, unit)  # max x_k is -min(-x_k)
    return -(-low[0] // low[1]), None if high is None else -high[0] // high[1]


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
