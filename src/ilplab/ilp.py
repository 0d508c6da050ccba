"""Exhaustive, exact enumeration of all optimal integral solutions of small ILPs.

Depth-first search over the variables in index order.  At every node the
current variable is bounded by the exact LP range of the residual problem
(``lp.coord_range``), subtrees are pruned when the LP relaxation is
infeasible or provably worse than the incumbent objective, and every leaf is
checked exactly.  The search is complete: with a valid box it visits every
optimal integral point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceededError, UnboundedSearchError
from .exactla import dot, vec
from .lp import INFEASIBLE, OPTIMAL, CoordRange, StandardLp, coord_range, lp_solve

_ZERO = Fraction(0)


@dataclass(frozen=True)
class IntegralSolutionSet:
    """All optimal integral solutions, sorted lexicographically.

    ``objective`` is None iff no integral feasible point exists.
    ``exhaustive`` is True when the search box was derived from the system
    itself (so the set is provably complete); with a caller-supplied box the
    set is complete only within that box.
    """

    solutions: tuple[tuple[int, ...], ...]
    objective: Fraction | None
    exhaustive: bool

    def __len__(self) -> int:
        return len(self.solutions)


def implied_box(lp: StandardLp) -> list[int] | None:
    """Per-variable upper bounds b_i // a_ij, valid when A >= 0 and b >= 0.

    A variable whose column is identically zero gets bound 0 when its cost
    is positive (no optimum can use it); otherwise, or when some entry is
    negative, no finite bound is derivable and None is returned.
    """
    if any(x < 0 for row in lp.a.rows for x in row) or any(v < 0 for v in lp.b):
        return None
    box = []
    for j in range(lp.n):
        bounds = [lp.b[i] / lp.a.rows[i][j] for i in range(lp.d) if lp.a.rows[i][j] > 0]
        if bounds:
            box.append(math.floor(min(bounds)))
        elif lp.c[j] > 0:  # zero column: only usable at cost, so never in an optimum
            box.append(0)
        else:
            return None
    return box


def enumerate_integral_optima(
    lp: StandardLp,
    box: Sequence[int] | None = None,
    node_budget: int = 10_000_000,
) -> IntegralSolutionSet:
    """The complete set of optimal integral solutions within the box."""
    exhaustive = box is None
    if box is None:
        box = implied_box(lp)
        if box is None:
            raise UnboundedSearchError(
                "no finite search box is derivable; pass explicit per-variable bounds"
            )
    else:
        box = [int(u) for u in box]
        if len(box) != lp.n:
            raise ValueError(f"box has length {len(box)}, LP has {lp.n} variables")
        if any(u < 0 for u in box):
            raise ValueError("box bounds must be non-negative")

    cols = [lp.a.col(j) for j in range(lp.n)]
    n, d = lp.n, lp.d
    residual = list(lp.b)
    prefix: list[int] = []
    incumbent: Fraction | None = None
    sols: list[tuple[int, ...]] = []
    nodes = 0
    c_last_nonzero = max((j for j in range(n) if lp.c[j] != 0), default=-1)

    def node_range(k: int) -> CoordRange | None:
        """The LP range of x_k at the current node; None when the node is pruned.

        The bound solve and both ``coord_range`` solves see the same matrix
        object and right-hand side, so they share one presolve and phase 1.
        The residual matrix is dropped on return, before the search goes
        deeper, so the recursion holds no matrix per level.
        """
        rest = lp.a.tail(k)
        rhs = tuple(residual)
        # Objective-bound pruning: only subtrees strictly worse than the
        # incumbent may be cut, equal-valued ones can hold more optima.
        if incumbent is not None:
            bound = sum((lp.c[j] * prefix[j] for j in range(k) if prefix[j]), _ZERO)
            if k <= c_last_nonzero:
                res = lp_solve(StandardLp(rest, rhs, tuple(lp.c[k:])))
                if res.status == INFEASIBLE:
                    return None
                if res.status != OPTIMAL:
                    res = None  # unbounded relaxation gives no usable bound
                if res is not None:
                    bound += res.objective
            if bound > incumbent:
                return None
        cr = coord_range(StandardLp(rest, rhs, (_ZERO,) * (n - k)))
        return None if cr.empty else cr

    def visit():
        nonlocal nodes, incumbent
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"enumeration exceeded node budget {node_budget}")
        k = len(prefix)
        if k == n:
            if all(v == 0 for v in residual):
                obj = dot(lp.c, vec(prefix))
                if incumbent is None or obj < incumbent:
                    incumbent = obj
                    sols.clear()
                    sols.append(tuple(prefix))
                elif obj == incumbent:
                    sols.append(tuple(prefix))
            return
        cr = node_range(k)
        if cr is None:
            return
        lo = max(0, math.ceil(cr.lo))
        hi = box[k] if cr.hi is None else min(box[k], math.floor(cr.hi))
        col = cols[k]
        # High values first: on the staircase families this finds the cheap
        # incumbent immediately, which lets the bound prune everything else.
        for v in range(hi, lo - 1, -1):
            prefix.append(v)
            if v:
                for i in range(d):
                    if col[i]:
                        residual[i] -= col[i] * v
            visit()
            if v:
                for i in range(d):
                    if col[i]:
                        residual[i] += col[i] * v
            prefix.pop()

    visit()
    sols.sort()
    return IntegralSolutionSet(tuple(sols), incumbent, exhaustive)


def ilp_solve(
    lp: StandardLp,
    box: Sequence[int] | None = None,
    node_budget: int = 10_000_000,
) -> tuple[int, ...] | None:
    """One canonical (lexicographically smallest) optimal integral solution.

    Returns None when no integral feasible point exists.
    """
    result = enumerate_integral_optima(lp, box=box, node_budget=node_budget)
    return result.solutions[0] if result.solutions else None
