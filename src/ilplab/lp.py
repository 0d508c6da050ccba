"""Exact linear programming in equality form min{c.x : Ax = b, x >= 0}, A, b and c integral.

The solver is a two-phase tableau simplex with Bland's smallest-index rule
for both the entering and the leaving variable, which makes it terminating
and bit-for-bit deterministic.  It pivots fraction-free (Bareiss 1968,
Edmonds 1967) on sparse rows: each tableau row, the cost row included, maps
column indices, and one reserved key for the right-hand side, to non-zero
Python ints over one positive int denominator, kept primitive by dividing
out the gcd after every update.  A pivot updates only the rows with an
entry in the pivot column, each over its own and the pivot row's support.
Each row stands for exactly the rational row of a dense tableau kept in
Fractions, and Bland's rule reads only what that tableau would give it.
Columns keep their index in A and artificial columns are numbered above
every real one, so index order is the dense column order, and the entering
column is the smallest index with a negative cost entry; the sign of an
entry is the sign of its numerator; the ratio rhs/entry of a row is the
ratio of its numerators, since the row's denominator cancels, and two
ratios are compared by cross-multiplication.  So from the same start
every pivot, basis, solution and objective is the one the Fraction
tableau reaches.  A, b and c are ints (see ``exactla``), so Fractions
appear only where ``lp_solve`` builds the values it returns.

A presolve pass runs first and repeatedly applies three exact reductions:

  * a row with no remaining variables must have zero right-hand side;
  * a row with one remaining variable forces that variable's value;
  * a row (or an entrywise difference of two rows) with non-negative
    coefficients and zero right-hand side forces all its variables to 0.

On the staircase systems this package mostly deals with, presolve pins
almost every variable, so the simplex core usually sees a small residue.
Presolve is integer-native too.  Each live row is an int row, an int
right-hand side and one positive int scale, standing for the rational row
and right-hand side both divided by the scale.  Row i starts as the non-zero
entries of row i of A with b_i as right-hand side, at scale 1, and so does the
residual system of an enumeration node, with the int residual as
right-hand side and the fixed leading columns left out.  A scale above 1
arises only from a forced value: substituting p/q with q > 1 multiplies
the row by q (a row 2x = 1 forces 1/2).  That scale need not be the least
one.  The reductions read exactly the rationals a Fraction presolve would:
a scale is positive, so entry signs are numerator signs; entries and
right-hand sides of two rows are compared by cross-multiplying with the
other row's scale; and a forced value is a reduced int pair p/q,
substituted as ``t - coef*p`` once the row's entries, right-hand side and
scale are multiplied by q.  So presolve forces the same values in the same
order and leaves the same rows.  A cold phase 1 divides each left-over
row by the gcd of its scale and entries, which gives back the unique
primitive integer row of those rationals, the row the simplex starts from.

Every preparation is a growth: ``_grow`` returns the preparation of the
system a prepared ``head`` stands for with rows appended, each read from
its entries as a row dict at scale 1.  There are three kinds of head:

  * cold: ``_prepare_system`` grows the empty preparation, of no rows, by
    all of A's rows;
  * extension: ``_prepare_system`` grows the preparation it remembers by
    the rows a system appends to it (see the memo below);
  * child: an enumeration node's child x_k = v of a free x_k grows the
    node's preparation by the unit row x_k = v, as the child's residual is
    the node's with x_k = v substituted.  If the node forced x_k, the LP
    range of x_k is that one value, and the child's fixpoint is the node's
    but for x_k.  Its rows are the node's, so its phase 1 is too:
    ``_child`` returns the node's preparation, tableau included.

Presolve runs ``_reduce`` on copies of the head's live rows followed by
the new rows, with the head's fixed values that the new rows hold
substituted into them first; no live row of the head holds a fixed
column.  It reaches the closure a cold presolve of the whole system
reaches, as adding rows only adds deductions.  Each reduction stays valid
under further fixings: with a column fixed, a singleton or
zero-right-hand-side row of the head is still one or is already settled,
and a dominating pair with a zero gap keeps it, since the column either
has a zero difference entry or is forced to 0.  So every deduction of the
head is also made by the cold run, every deduction of the cold run is
also made from the head's fixpoint with the rows added, and the two loops
stop at the same closure: the same fixed values, the same live rows.
Rows are only deleted and the new rows come last on both routes, so the
survivors keep their relative order, and of rows equal as rationals the
first is the one kept.  Scales can differ, as a scale records the
fractional values substituted into its row, but the rows are the same
rationals.  Only the order of the fixed values can differ, and nothing
reads it: an optimal solution and the lookups in ``_minimum`` are
order-free.  A child's ``_reduce`` meets the node's rows first, which are
at their fixpoint and stay as they are, then the unit row, which
substitutes x_k = v; from there its loop is the one a cold presolve of
the child's residual runs.

``_reduce`` marks the new rows and every row it substitutes into, and its
row-difference pass tests only the pairs with a marked row: every other
pair was tested at the head's fixpoint without a result, and neither row
has changed since.  So the first pair that fires is the full pass's, and
the deductions, their order and the rows left are the full pass's too.
From the empty preparation every row is new, so every pair is tested.
When the new rows hold only columns the head fixed, as most of a hull
walk's do, the run is known in advance: each new row reads 0 = 0 once
substituted, or 0 = c with c != 0, and touches no live row, so ``_grow``
only evaluates the new rows at the fixed values and returns the head, or
None.

Phase 1 then runs on the rows left.  For ``_prepare_system`` it starts
cold, with no basic column, and reaches the Fraction tableau's basis, so
the tableau, the basis and the ``lp_solve`` solution of a grown
preparation are bit-for-bit a cold one's.  A child's starts from its
parent's tableau (Chvatal, Linear Programming, 1983): the child's fixed
values, x_k = v among them, are substituted into its rows, a row keeps
its basic column when that column is still free and the row's right-hand
side is >= 0, and only the other rows get an artificial variable.  The
substituted rows span the same rational row space as the child's live
rows, so phase 1 ends in a feasible basis of an equivalent system, though
in general not in the tableau a cold phase 1 of the live rows reaches.
Rows the substitution does not touch are the parent's own row objects,
shared, never copied.

An answer has two steps, each with one home.  Preparing (A, b) is
``_grow``: everything that does not depend on c, presolve and phase 1 on
the rows presolve left, which ends in a feasible basis of that core or
proves the system infeasible.  Reading a cost is ``_minimum``: it sums the
cost over the fixed columns and, when a free column has a cost, prices it
against a copy of the prepared tableau and runs phase 2 to optimality;
the free part's optimum is the cost row's right-hand side, negated, over
its denominator.  ``lp_solve`` reads c through a cold preparation once,
and its result builds the Fraction solution from that reading when the
solution is first read, so the solution is the cold tableau's; a caller
that reads only the objective, as ``coord_range`` does, builds no vector.
``residual_range`` reads an enumeration node's objective bound and both
ends of its variable, in ints: optimal values, which every feasible basis
of an equivalent system gives alike.

``_prepare_system`` remembers its last preparation, keyed on the identity
of the matrix object and the value of b.  That is exact: a ``Matrix`` holds
only tuples, so the same object always has the same entries; the memo
holds the matrix, so its identity cannot pass to another one; and phase 2
never writes into the prepared tableau.  A reused preparation is the one a
cold one would compute, so results are bit-for-bit those of a cold solve.
It serves the min and max solves of ``coord_range``, the LP relaxation
that ``measure_proximity_lb`` solves and the enumeration root after it,
and the same pair in ``fuzz_cook`` on the trials whose enumeration the
search serves; the right-hand-side DP (see ``ilp``) prepares nothing.
Below the root an enumeration node needs no memo: it has its parent's
preparation.  The memo also serves a system that extends the remembered
one by rows: the same column count, the remembered rows as its first m
rows, and the remembered b as the first m entries of b.  The row count is
tested first, so every other system is turned away in O(1).  The hull
walk's depths nest this way (see ``hull``).  If the remembered system is
infeasible, so is the extension; otherwise it grows the remembered
preparation by its rows past the m-th.  The rows grown by are read from
A's dense rows, the appended ones alone on an extension, so no route
builds the matrix's pattern (``Matrix.sparse_rows``).

The presolve reductions follow Andersen and Andersen (Math. Prog. 71,
1995).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .exactla import Matrix, Vec, _ints, vec

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


@dataclass(frozen=True)
class StandardLp:
    """min c.x subject to a x = b, x >= 0.

    b and c are tuples of ints, converted by ``exactla._ints`` when the LP
    is built.
    """

    a: Matrix
    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "b", _ints(self.b, "b"))
        object.__setattr__(self, "c", _ints(self.c, "c"))
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


class LpResult:
    """An LP's status and, when it is optimal, its objective and an optimal basic solution.

    ``LpResult(status, solution, objective)`` holds the values given.  An
    optimal answer of ``lp_solve`` holds its preparation and the optimal
    tableau it read the objective from instead, and builds the Fraction
    solution from them the first time ``solution`` is read, as most callers
    (``coord_range``) read only the objective.
    """

    __slots__ = ("status", "objective", "_solution", "_optimum")

    def __init__(self, status: str, solution: Vec | None = None, objective: Fraction | None = None):
        self.status = status
        self.objective = objective
        self._solution = solution
        self._optimum: tuple[_Prepared, Sequence[dict[int, int]], Sequence[int], Sequence[int]] | None = None

    @property
    def solution(self) -> Vec | None:
        """The fixed values and the basic values at their columns, 0 everywhere else."""
        if self._optimum is not None:
            prep, rows, dens, basis = self._optimum
            x = [_ZERO] * prep.n
            for j, (p, q) in prep.fixed.items():
                if p:
                    x[j] = Fraction(p, q)
            for row, den, j in zip(rows, dens, basis):
                x[j] = Fraction(row.get(_RHS, 0), den)
            self._solution, self._optimum = tuple(x), None
        return self._solution


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


def _reduce(
    live: list[list],
    fixed: dict[int, tuple[int, int]],
    values: dict[int, tuple[int, int]],
    fresh: Sequence[list],
) -> bool:
    """Apply the exact reductions to the rows ``live`` to fixpoint, in place; False when infeasible.

    ``live`` holds ``[row, t, s]`` entries: an int row dict, an int
    right-hand side and a positive int scale, standing for row/s . x = t/s.
    Each value forced is added to ``fixed`` as a reduced int pair (p, q)
    with q > 0.  Rows are deleted from ``live`` in place, so the survivors
    keep their relative order, and of rows equal as rationals the first one
    stays.  On infeasibility the rows and ``fixed`` are left as far as the
    loop got.

    A holder index, built from the rows given, maps each column to the
    entries whose row holds it.  Forcing a column visits only those entries
    and then drops the column from the index, since no row holds it any
    more; rows never gain columns, so the index needs no other upkeep.  A
    row deleted while it still holds columns (a duplicate) is emptied, so
    the index entries that still name it do nothing.

    The rows are a fixpoint of this loop, copied, followed by the rows
    ``fresh``, and ``values`` maps columns to reduced pairs (p, q) to
    substitute first: ``_grow`` passes the appended rows and the fixed
    values of the system it grows that they hold.  A cold presolve has no
    fixpoint rows, so every row is fresh.  Each value goes into ``fixed``
    like any forced one, and ``substitute`` marks every row it touches,
    then and in the loop, as the rows ``fresh`` are marked from the start.
    The row-difference pass tests only pairs with at least one marked row,
    which from a cold start is every pair.  The deductions, their order and
    the rows left are those of the full pass.
    """
    holders: dict[int, list[list]] = {}
    for entry in live:
        for j in entry[0]:
            holders.setdefault(j, []).append(entry)
    # the ids of the rows changed or added since the fixpoint the rows started from
    touched = {id(entry) for entry in fresh}

    def substitute(j: int, p: int, q: int) -> bool:
        """Force x_j = p/q (q > 0) in every row that holds column j."""
        if p < 0:
            return False
        fixed[j] = (p, q)
        for entry in holders.pop(j, ()):
            row = entry[0]
            coef = row.pop(j, None)
            if coef is None:
                continue
            touched.add(id(entry))
            if not p:
                continue
            if q != 1:
                # t/s - coef*p/(q*s) is (t*q - coef*p)/(s*q): the row over s*q
                for col in row:
                    row[col] *= q
                entry[1] *= q
                entry[2] *= q
            entry[1] -= coef * p
        return True

    for j, (p, q) in values.items():
        if not substitute(j, p, q):
            return False
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(live):
            row, t, _ = live[i]
            if not row:
                if t != 0:
                    return False
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
                    return False
                del live[i]
                changed = True
                continue
            if t == 0:
                signs = {coef > 0 for coef in row.values()}
                if len(signs) == 1:
                    for j in list(row):
                        if not substitute(j, 0, 1):
                            return False
                    del live[i]
                    changed = True
                    continue
            i += 1
        if changed:
            continue
        # Row-difference dominance: if row_i - row_k is entrywise >= 0 then
        # (row_i - row_k).x = rhs_i - rhs_k with x >= 0 forces conclusions.
        # The difference is kept over si*sk.  A pair of rows outside
        # ``touched`` was tested at the fixpoint the rows started from,
        # without a result, and neither row has changed since: it is skipped.
        marked = [(k, entry) for k, entry in enumerate(live) if id(entry) in touched]
        for i, entry in enumerate(live):
            ri, ti, si = entry
            for k, (rk, tk, sk) in enumerate(live) if id(entry) in touched else marked:
                if i == k or not _dominates(ri, si, rk, sk):
                    continue
                diff = {j: v * sk for j, v in ri.items()}
                for j, coef in rk.items():
                    diff[j] = diff.get(j, 0) - coef * si
                gap = ti * sk - tk * si
                if gap < 0:
                    return False
                if gap == 0:
                    positive = [j for j, dv in diff.items() if dv > 0]
                    if positive:
                        for j in positive:
                            if not substitute(j, 0, 1):
                                return False
                        changed = True
                    elif all(dv == 0 for dv in diff.values()):
                        live.pop(k)[0].clear()
                        changed = True
                if changed:
                    break
            if changed:
                break
    return True


# ---------------------------------------------------------------------------
# simplex on sparse integer rows: phase 1 needs only (A, b), phase 2 adds c
#
# A tableau is ``rows``, ``dens`` and ``basis``: row i maps columns, and _RHS
# its right-hand side, to non-zero ints, and stands for the rational row
# rows[i][j] / dens[i], absent keys being zero, with dens[i] > 0,
# gcd(dens[i], *rows[i].values()) == 1 and rows[i][basis[i]] == dens[i].
# The last row is the cost row and has no basis entry.

_RHS = -1


def _primitive(row: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """The same rational row with gcd(den, *row.values()) == 1."""
    g = gcd(den, *row.values())
    if g == 1:
        return row, den
    return {j: v // g for j, v in row.items()}, den // g


def _subtract(acc: dict[int, int], f: int, row: dict[int, int]):
    """acc -= f * row in place, deleting the entries that cancel."""
    get = acc.get
    for j, v in row.items():
        w = get(j, 0) - f * v
        if w:
            acc[j] = w
        else:
            del acc[j]


def _pivot(rows: list[dict[int, int]], dens: list[int], basis: list[int], pr: int, pc: int):
    # The pivot row over its pivot entry q needs no gcd step: a row's entry
    # in its own basic column equals its denominator, so gcd(*prow) divides
    # that denominator and, the row being primitive, is 1.  Rows are replaced,
    # never written into, because a prepared tableau is shared.
    prow = rows[pr]
    q = prow[pc]
    if q < 0:
        prow = rows[pr] = {j: -v for j, v in prow.items()}
        q = -q
    dens[pr] = q
    for i, row in enumerate(rows):
        f = row.get(pc)
        if f is None or i == pr:
            continue
        new = {j: v * q for j, v in row.items()}
        _subtract(new, f, prow)
        rows[i], dens[i] = _primitive(new, dens[i] * q)
    basis[pr] = pc


def _iterate(rows: list[dict[int, int]], dens: list[int], basis: list[int], n_enter: int) -> str:
    """Run simplex pivots until optimal or unbounded (Bland's rule), entering only columns < n_enter."""
    while True:
        pc = -1
        for j, v in rows[-1].items():
            if v < 0 and 0 <= j < n_enter and (pc < 0 or j < pc):
                pc = j
        if pc < 0:
            return OPTIMAL
        # least ratio row[_RHS] / row[pc] (the row's denominator cancels),
        # ties to the smaller basic index
        pr = -1
        best_t = best_a = best_var = 0
        for i, bi in enumerate(basis):
            row = rows[i]
            a = row.get(pc, 0)
            if a > 0:
                t = row.get(_RHS, 0)
                if pr >= 0:
                    lhs, rhs = t * best_a, best_t * a
                    if lhs > rhs or (lhs == rhs and bi > best_var):
                        continue
                pr, best_t, best_a, best_var = i, t, a, bi
        if pr < 0:
            return UNBOUNDED
        _pivot(rows, dens, basis, pr, pc)


def _phase1(
    rows: list[dict[int, int]], dens: list[int], basis: list[int | None], n: int
) -> tuple[tuple[dict[int, int], ...], tuple[int, ...], tuple[int, ...]] | None:
    """Phase 1 from a partial basis: a feasible basis, or None when infeasible.

    Row i stands for rows[i] / dens[i], primitive, over columns below ``n``
    with a non-negative right-hand side.  basis[i] is a column whose entry
    is dens[i] in row i and absent from every other row, or None: such a
    row gets the artificial column n + i, and phase 1 minimises their sum
    by Bland's rule.  Then the artificials still basic are pivoted out, or
    their rows dropped as redundant, and the artificial columns stripped.
    Returns the tableau over A's columns as integer rows and their
    denominators, and its basis.  The rows given are never written into,
    except the rows without a basic column, which must not be shared.
    Nothing here depends on c.  From ``_cold_start``, where no row has a
    basic column, this is the Fraction tableau's phase 1; from
    ``_warm_start`` it is a child's, from its parent's basis.
    """
    artificial = [i for i, bi in enumerate(basis) if bi is None]
    for i in artificial:
        rows[i][n + i] = dens[i]
        basis[i] = n + i

    # Objective = sum of the artificials, priced out: minus the sum of their
    # rows, in which every artificial column cancels.
    cost_den = lcm(*(dens[i] for i in artificial))
    cost = {n + i: cost_den for i in artificial}
    for i in artificial:
        _subtract(cost, cost_den // dens[i], rows[i])
    cost, cost_den = _primitive(cost, cost_den)
    rows.append(cost)
    dens.append(cost_den)

    if _iterate(rows, dens, basis, n) != OPTIMAL:
        raise AssertionError("phase-1 objective is bounded below by zero")
    if rows[-1].get(_RHS, 0) < 0:
        return None

    # Pivot leftover artificials out on their smallest real column; a row
    # with none is redundant.
    keep: list[int] = []
    for i in range(len(basis)):
        if basis[i] >= n:
            real = [j for j in rows[i] if 0 <= j < n]
            if not real:
                continue
            _pivot(rows, dens, basis, i, min(real))
        keep.append(i)
    # without the artificial columns a row can share a factor with its den
    prepared = [
        _primitive(rows[i] if max(rows[i]) < n else {j: v for j, v in rows[i].items() if j < n}, dens[i])
        for i in keep
    ]
    return (
        tuple(row for row, _ in prepared),
        tuple(den for _, den in prepared),
        tuple(basis[i] for i in keep),
    )


def _cold_start(live: Sequence[list]) -> tuple[list[dict[int, int]], list[int], list[int | None]]:
    """Phase 1's start on presolve's left-over rows: each row primitive, no basic column.

    ``live`` is ``_reduce``'s.  A row with a negative right-hand side is
    negated.
    """
    rows: list[dict[int, int]] = []
    dens: list[int] = []
    for row, t, s in live:
        nums = {j: -v for j, v in row.items()} if t < 0 else dict(row)
        if t:
            nums[_RHS] = abs(t)
        nums, den = _primitive(nums, s)
        rows.append(nums)
        dens.append(den)
    return rows, dens, [None] * len(rows)


def _phase2(prep: _Prepared, cost: dict[int, int]) -> tuple[list[dict], list[int], list[int]] | None:
    """Phase 2 from a prepared tableau under the int costs ``cost``; None when unbounded.

    ``cost`` maps free columns to their non-zero costs.  Returns the optimal
    tableau, cost row last, with its denominators and basis.  The cost row
    stands for cost - y.A, with -z as right-hand side, z the optimum of
    cost.x.  ``_pivot`` replaces rows instead of writing into them, so
    copying the outer lists leaves the prepared tableau untouched.
    """
    rows, dens, basis = list(prep.tableau), list(prep.dens), list(prep.basis)
    # cost - sum_i cost[basis[i]] * row_i, over the lcm of the denominators
    # of the rows it takes
    rows_den = lcm(*(dens[i] for i, bi in enumerate(basis) if bi in cost))
    crow = {j: v * rows_den for j, v in cost.items()}
    for i, bi in enumerate(basis):
        if bi in cost:
            _subtract(crow, cost[bi] * (rows_den // dens[i]), rows[i])
    crow, cost_den = _primitive(crow, rows_den)
    rows.append(crow)
    dens.append(cost_den)
    if _iterate(rows, dens, basis, prep.n) == UNBOUNDED:
        return None
    return rows, dens, basis


# ---------------------------------------------------------------------------
# preparation of a residual system


@dataclass(frozen=True)
class _Prepared:
    """The objective-independent part of a solve of a feasible residual system.

    ``fixed`` maps each column presolve forced to its value as a reduced int
    pair (p, q); a child's also holds its x_k = v as (v, 1).  They are
    listed in the order they were forced, which can differ between a grown
    preparation and a cold one of the same system, and nothing reads it.
    The columns of the system that it leaves out are free.  ``live`` holds
    the rows presolve left, as ``_reduce`` leaves them, for a growth to
    start from; they are never written into.  ``tableau`` is a feasible
    basis of those rows as sparse integer rows over ``dens``, or None when
    presolve settled every row; ``basis`` holds its basic columns, by their
    index in A.  The empty preparation, that of a system with no rows, has
    no fixed column, no live row and no tableau.  The tableau of a
    ``_prepare_system`` preparation is the one phase 1 reaches from no basic
    column; a child's starts from its parent's tableau, and can share row
    objects with it.  None of them is ever written into.
    """

    n: int
    fixed: dict[int, tuple[int, int]]
    live: list[list]
    tableau: tuple[dict[int, int], ...] | None
    dens: tuple[int, ...]
    basis: tuple[int, ...]


#: (a, b, preparation) of the last system ``_prepare_system`` prepared.  ``a``
#: is held, so its identity cannot pass to another matrix while it is
#: remembered.  Every caller in the process shares it, which changes no
#: result: an entry is only ever reused for the system it was computed from,
#: or grown into the cold preparation of a system that extends it by rows.
_last_prepared: tuple[Matrix, tuple[int, ...], _Prepared | None] | None = None


def _prepare_system(a: Matrix, b: tuple[int, ...]) -> _Prepared | None:
    """The preparation of {x >= 0 : a x = b}, b a tuple of ints, phase 1 started cold; None when infeasible.

    The last one is remembered and reused for the same matrix object and
    b.  A system that extends it grows it by the appended rows: same column
    count, the remembered rows first and the remembered b a prefix of b.
    The row count is tested first, so any other system is turned away at
    once, and grows the empty preparation by all of its rows.  The rows
    grown by are read from ``a.rows``, so the matrix's pattern is not built.
    """
    global _last_prepared
    last = _last_prepared  # one read, so a concurrent update cannot split the entry
    if last is not None and last[0] is a and last[1] == b:
        return last[2]
    head, m = _Prepared(a.ncols, {}, [], None, (), ()), 0
    if last is not None:
        head_a, head_b, head_prep = last
        k = len(head_b)
        if a.nrows > k and a.ncols == head_a.ncols and b[:k] == head_b and a.rows[:k] == head_a.rows:
            head, m = head_prep, k
    prep = None if head is None else _grow(head, [{j: x for j, x in enumerate(row) if x} for row in a.rows[m:]], b[m:])
    _last_prepared = (a, b, prep)
    return prep


def _grow(head: _Prepared, rows: list[dict[int, int]], rhs: Sequence[int], warm: bool = False) -> _Prepared | None:
    """The preparation of the system ``head`` prepares with the rows ``rows`` = ``rhs`` appended; None when infeasible.

    Each of ``rows`` is a new row's non-zero entries, a dict from column
    to int; the result takes the dicts over and writes into them.  When every
    column the new rows hold is fixed in ``head``, each row is evaluated at
    those values, a sum of int pairs p/q kept over one denominator and
    compared with its right-hand side by cross-multiplication: a row that
    fails makes the system infeasible, and if all hold ``head`` itself is
    the answer.  That is what the general route below computes.  There
    each new row has the head's values substituted, reads 0 = 0 and is
    deleted; it touched no live row of the head, so the row-difference pass
    has no marked row to test and the head's live rows are left as they
    are, and so is the tableau phase 1 reaches from them.

    Otherwise ``_reduce`` runs on copies of the head's live rows followed by
    the new rows, marked fresh, and first substitutes the head's fixed
    values that the new rows hold; no live row of the head holds a fixed
    column.  Phase 1 then runs on the rows left, cold (``_cold_start``), or
    from the head's tableau (``_warm_start``) when ``warm``.  ``head`` is
    not written into.
    """
    fixed = head.fixed
    if all(j in fixed for row in rows for j in row):
        for row, t in zip(rows, rhs):
            num, den = 0, 1
            for j, coef in row.items():
                p, q = fixed[j]
                if p:
                    num, den = num * q + coef * p * den, den * q
            if num != t * den:
                return None
        return head
    held = {j: fixed[j] for row in rows for j in row if j in fixed}
    fresh = [[row, t, 1] for row, t in zip(rows, rhs)]
    live = [[dict(row), t, s] for row, t, s in head.live] + fresh
    fixed = dict(fixed)
    if not _reduce(live, fixed, held, fresh):
        return None
    if not live:
        return _Prepared(head.n, fixed, live, None, (), ())
    begin = _warm_start(head, fixed) if warm else _cold_start(live)
    phase1 = None if begin is None else _phase1(*begin, head.n)
    return None if phase1 is None else _Prepared(head.n, fixed, live, *phase1)


def _child(parent: _Prepared, k: int, v: int) -> _Prepared | None:
    """The preparation of the child x_k = v of an enumeration node, from the node's; None when infeasible.

    ``parent`` prepares the node's residual system on columns >= k, and v
    is a value of x_k in its LP range.  When the node forced x_k, v is the
    forced value and the child's residual system is the node's own, so
    ``parent`` itself is returned: a chain of forced variables shares one
    preparation, whose ``fixed`` then still holds columns below k.  For a
    free x_k, ``_grow`` grows the node's preparation, its fixed columns
    restricted to those above k, by the unit row x_k = v, with a warm
    phase 1.  Its ``_reduce`` meets the node's rows first, which are at
    their fixpoint and stay as they are, then the unit row, which
    substitutes x_k = v; from there it reaches the fixed values and the
    live rows, as rationals in the same order, that a cold presolve reaches
    on the child's residual.  Only the order of ``fixed`` can differ, and
    it also holds x_k = v.  Phase 1 starts from the parent's tableau and
    ends in a feasible basis of the child's rows, not in general the cold
    one.  ``parent`` is not written into: siblings share it.
    """
    if k in parent.fixed:
        return parent
    fixed = {j: value for j, value in parent.fixed.items() if j > k}
    head = _Prepared(parent.n, fixed, parent.live, parent.tableau, parent.dens, parent.basis)
    return _grow(head, [{k: 1}], (v,), warm=True)


def _warm_start(
    parent: _Prepared, fixed: dict[int, tuple[int, int]]
) -> tuple[list[dict[int, int]], list[int], list[int | None]] | None:
    """Phase 1's start for a child: the parent's tableau with the child's ``fixed`` values substituted.

    ``fixed`` is the child's presolve result, x_k = v included; the columns
    in it that the parent had fixed are in no row of the parent's tableau.
    A row that holds none of the substituted columns is the parent's own
    row object, still with its basic column.  Every other row is a new one,
    made primitive.  It keeps its basic column when that is not substituted
    and its right-hand side is >= 0; else it has none, and a row with a
    negative right-hand side is negated.  A row left with no columns is
    dropped when it reads 0 = 0.  Returns None when one reads 0 = c with
    c != 0: the child is infeasible.
    """
    rows: list[dict[int, int]] = []
    dens: list[int] = []
    basis: list[int | None] = []
    for row, den, bi in zip(parent.tableau, parent.dens, parent.basis):
        hit = row.keys() & fixed.keys()
        if hit:
            row = dict(row)
            t = row.pop(_RHS, 0)
            for j in hit:
                coef = row.pop(j)
                p, q = fixed[j]
                if q != 1:
                    for col in row:
                        row[col] *= q
                    t *= q
                    den *= q
                t -= coef * p
            if not row:
                if t:
                    return None
                continue
            if t < 0 or bi in hit:
                bi = None
            if t < 0:
                row = {j: -w for j, w in row.items()}
                t = -t
            if t:
                row[_RHS] = t
            row, den = _primitive(row, den)
        rows.append(row)
        dens.append(den)
        basis.append(bi)
    return rows, dens, basis


def _minimum(prep: _Prepared, cost: dict[int, int]):
    """min cost.x over a prepared system, and a tableau attaining it; None when unbounded.

    ``cost`` maps columns of the prepared system to non-zero ints.  Returns
    (num, den, rows, dens, basis): the minimum as num / den with den > 0,
    and an optimal tableau of the free columns as ``_phase2`` returns it
    (the prepared one when no free column has a cost, empty when presolve
    settled every row).  The fixed columns' part is summed over the cost's
    entries; the free columns' part is read off the optimal cost row, whose
    right-hand side is -z over the row's denominator.
    """
    num, den = 0, 1
    core: dict[int, int] = {}
    fixed = prep.fixed
    for j, w in cost.items():
        value = fixed.get(j)
        if value is None:
            core[j] = w
        elif value[0]:
            p, q = value
            num, den = num * q + w * p * den, den * q
    if prep.tableau is None:
        if any(w < 0 for w in core.values()):
            return None  # no rows left: the orthant is unbounded along that column
        return num, den, (), (), ()
    if not core:
        return num, den, prep.tableau, prep.dens, prep.basis
    done = _phase2(prep, core)
    if done is None:
        return None
    rows, dens, basis = done
    z, z_den = -rows[-1].get(_RHS, 0), dens[-1]
    return num * z_den + z * den, den * z_den, rows, dens, basis


# ---------------------------------------------------------------------------
# public API


def lp_solve(lp: StandardLp) -> LpResult:
    """Exact optimal basic solution, or an infeasible/unbounded certificate status."""
    prep = _prepare_system(lp.a, lp.b)
    if prep is None:
        return LpResult(INFEASIBLE)
    # c is often mostly zero (a hull depth's is one row of a sparse matrix): price only its non-zeros
    best = _minimum(prep, {j: cj for j, cj in enumerate(lp.c) if cj})
    if best is None:
        return LpResult(UNBOUNDED)
    num, den, rows, dens, basis = best
    result = LpResult(OPTIMAL, None, Fraction(num, den))
    result._optimum = prep, rows, dens, basis
    return result


def residual_range(prep: _Prepared, k: int, cost: dict[int, int], cutoff: int | None) -> tuple[int, int | None] | None:
    """The integer range of x_k over a prepared residual system, or None when the node is pruned.

    ``prep`` prepares {x_k.. >= 0 : A[:, k:] x = r}, what is left of
    A x = b once x_0..x_{k-1} are fixed: ``_prepare_system``'s at the root,
    grown from the empty preparation by A's rows, and ``_child``'s below
    it, grown from the node above's by the unit row that fixes its
    variable (its ``fixed`` may hold columns below k).  Returns
    (ceil(min x_k), floor(max x_k)), the last None when x_k is unbounded
    above.  Returns None when ``cutoff`` is given and the minimum of cost.x
    over the system is larger than it; ``cost`` maps the system's columns
    to non-zero ints, and an unbounded minimum prunes nothing.  Every
    answer is one ``_minimum`` of the preparation, in ints: no Fraction is
    built.
    """
    if cutoff is not None:
        bound = _minimum(prep, cost)
        if bound is not None and bound[0] > cutoff * bound[1]:
            return None
    low = _minimum(prep, {k: 1})
    if low is None:
        raise AssertionError("objective x_k >= 0 cannot be unbounded below")
    high = _minimum(prep, {k: -1})  # max x_k is -min(-x_k)
    return -(-low[0] // low[1]), None if high is None else -high[0] // high[1]


def is_feasible_point(lp: StandardLp, x: Sequence[Fraction | int | str]) -> bool:
    """True iff A.x = b exactly and x >= 0 entrywise."""
    xv = vec(x)
    if len(xv) != lp.n:
        raise ValueError(f"point has length {len(xv)}, LP has {lp.n} variables")
    if any(v < 0 for v in xv):
        return False
    return lp.a.mul_vec(xv) == tuple(lp.b)


def coord_range(a: Matrix, b: Sequence[int], c: Sequence[int]) -> tuple[Fraction | None, Fraction | None] | None:
    """Exact (min, max) of c.x over {x >= 0 : a x = b}, b and c integral; None when the system is infeasible.

    An end is None when c.x is unbounded in its direction.  Both solves see
    the same matrix object and right-hand side, so the second reuses the
    first's preparation.
    """
    lp = StandardLp(a, b, c)
    low = lp_solve(lp)
    if low.status == INFEASIBLE:
        return None
    high = lp_solve(StandardLp(a, lp.b, tuple(-cj for cj in c)))
    return (
        None if low.status == UNBOUNDED else low.objective,
        None if high.status == UNBOUNDED else -high.objective,
    )
