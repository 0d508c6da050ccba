"""Exhaustive, exact enumeration of all optimal integral solutions of small ILPs.

Depth-first search over the variables in index order.  At every node the
current variable is bounded by the exact LP range of the residual problem,
subtrees are pruned when the LP relaxation is infeasible or provably worse
than the incumbent objective, and every leaf is checked exactly.  The search
is complete: with a valid box it visits every optimal integral point.

The search runs on ints.  Row i of A x = b is read over the fixed scale
s_i*q_i, where s_i is the row's scale in the matrix's integer pattern and
q_i is b_i's denominator, so the residual b - A x of a prefix is one int
per row, updated from integer columns built once per enumeration.  The
objective is c times the lcm of c's denominators, an int at every point.
Each non-leaf node has one preparation of its residual system (presolve
and phase 1) and reads the objective bound and the range of the node's
variable off it in one call, ``lp.residual_range``, as ints.  The root's
preparation is ``lp._prepare_system``'s for the whole system, which is the
one a preceding ``lp_solve`` of the same system made.  Every other node is
a child x_k = v of the node above, prepared by ``lp._child`` from its
parent's: a child whose x_k the parent had forced is the parent's
preparation, and the others start presolve from the parent's fixed values
and rows and reach the same fixpoint as a cold one (see ``lp``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceededError, UnboundedSearchError
from .lp import StandardLp, _child, _int_rhs, _prepare_system, residual_range

# Not called here.  perfbench/test_perfbench.py checks that its tracer wraps
# every module's binding of ``lp_solve``, this one included.
from .lp import lp_solve  # noqa: F401


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


def _integer_system(lp: StandardLp) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """A x = b on the ints: the right-hand sides and the columns.

    Row i is read over the scale s_i*q_i: b_i is rhs[i] over it, and
    column j holds the pair (i, numerator*q_i) for each non-zero entry of
    A's integer pattern in row i.
    """
    pattern = lp.a.sparse_rows
    rhs, mults = _int_rhs(pattern, lp.b)
    cols: list[list[tuple[int, int]]] = [[] for _ in range(lp.n)]
    for i, ((_, pairs), q) in enumerate(zip(pattern, mults)):
        for j, num in pairs:
            cols[j].append((i, num * q))
    return rhs, cols


def implied_box(lp: StandardLp) -> list[int] | None:
    """Per-variable upper bounds b_i // a_ij, valid when A >= 0 and b >= 0.

    A variable whose column is identically zero gets bound 0 when its cost
    is positive (no optimum can use it); otherwise, or when some entry is
    negative, no finite bound is derivable and None is returned.  The
    bounds are read from the integer system: b_i / a_ij is rhs[i] over the
    column's int entry, both over the row's scale, so its floor is an int
    floor division.
    """
    rhs, cols = _integer_system(lp)
    if any(t < 0 for t in rhs) or any(w < 0 for col in cols for _, w in col):
        return None
    box = []
    for j, col in enumerate(cols):
        if col:
            box.append(min(rhs[i] // w for i, w in col))
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

    n = lp.n
    residual, cols = _integer_system(lp)
    c_den = math.lcm(*(cj.denominator for cj in lp.c))
    cost = [cj.numerator * (c_den // cj.denominator) for cj in lp.c]
    # the objective over each node's columns k.., as residual_range reads it
    node_costs = [{j: w for j, w in enumerate(cost) if w and j >= k} for k in range(n)]
    prefix: list[int] = []
    prefix_cost = 0
    incumbent: int | None = None
    sols: list[tuple[int, ...]] = []
    nodes = 0

    def visit(parent, v):
        """The node x_{k-1} = v below the node whose preparation is ``parent``; the root has none."""
        nonlocal nodes, incumbent, prefix_cost
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"enumeration exceeded node budget {node_budget}")
        k = len(prefix)
        if k == n:
            if not any(residual):
                if incumbent is None or prefix_cost < incumbent:
                    incumbent = prefix_cost
                    sols.clear()
                    sols.append(tuple(prefix))
                elif prefix_cost == incumbent:
                    sols.append(tuple(prefix))
            return
        prep = _prepare_system(lp.a, lp.b) if parent is None else _child(parent, k - 1, v)
        if prep is None:
            return
        # Objective-bound pruning: only subtrees strictly worse than the
        # incumbent may be cut, equal-valued ones can hold more optima.
        cutoff = None if incumbent is None else incumbent - prefix_cost
        node = residual_range(prep, k, node_costs[k], cutoff)
        if node is None:
            return
        lo, hi = node
        hi = box[k] if hi is None else min(box[k], hi)
        col, ck = cols[k], cost[k]
        # High values first: on the staircase families this finds the cheap
        # incumbent immediately, which lets the bound prune everything else.
        for v in range(hi, lo - 1, -1):
            prefix.append(v)
            if v:
                for i, w in col:
                    residual[i] -= w * v
                prefix_cost += ck * v
            visit(prep, v)
            if v:
                for i, w in col:
                    residual[i] += w * v
                prefix_cost -= ck * v
            prefix.pop()

    visit(None, 0)
    sols.sort()
    objective = None if incumbent is None else Fraction(incumbent, c_den)
    return IntegralSolutionSet(tuple(sols), objective, exhaustive)
