"""Exhaustive, exact enumeration of all optimal integral solutions of small ILPs.

Depth-first search over the variables in index order.  At every node the
current variable is bounded by the exact LP range of the residual problem,
and by nothing else: a range with no finite top raises
``UnboundedSearchError``, except for a column in no row at a positive cost,
which is 0 in every optimum.  Subtrees are pruned when the LP relaxation is
infeasible or provably worse than the incumbent objective, and every leaf
is checked exactly.  The search is complete whenever it returns: it has
visited every optimal integral point.

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
a child x_k = v of the node above, prepared by ``lp._child`` from the
parent's preparation; ``_child`` hands back the parent's own when the
parent had forced x_k.  Otherwise the child's dominance pass tests only
the row pairs its substitutions touched, and its phase 1 starts from the
parent's basis (see ``lp``), so its tableau is a feasible basis but not
in general the cold one; the node reads only optimal values off it,
which every feasible basis gives alike.  A node whose range holds one value
has one child, so a chain of such nodes is walked in a loop, each node of
it still counted and bound-tested.  The nodes with more than one value sit
on an explicit stack with the values they have left, so no path, however
long, is bounded by the interpreter's recursion limit.  The optima come
back as a sorted tuple; their objective is c.x of any of them.
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import BudgetExceededError, UnboundedSearchError
from .lp import StandardLp, _child, _int_rhs, _Prepared, _prepare_system, residual_range

# Not called here.  perfbench/test_perfbench.py checks that its tracer wraps
# every module's binding of ``lp_solve``, this one included.
from .lp import lp_solve  # noqa: F401


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


def enumerate_integral_optima(lp: StandardLp, node_budget: int = 10_000_000) -> tuple[tuple[int, ...], ...]:
    """The complete set of optimal integral solutions, sorted lexicographically; empty when none exists.

    Raises ``UnboundedSearchError`` at the first node whose variable has no
    finite LP maximum, unless its column is in no row and has positive cost.
    """
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

    def shift(sign: int) -> None:
        """Take the last fixed variable's value into the residual and the cost (sign 1), or back out (sign -1)."""
        nonlocal prefix_cost
        k, v = len(prefix) - 1, prefix[-1]
        if v:
            for i, w in cols[k]:
                residual[i] -= sign * w * v
            prefix_cost += sign * cost[k] * v

    # (k, preparation, values left high to low) of each node on the path with more than one value
    stack: list[tuple[int, _Prepared, Iterator[int]]] = []

    def walk(prep: _Prepared | None) -> None:
        """The node at depth len(prefix), then the chain of one-value nodes below it, in one loop.

        ``prep`` is the parent's preparation, or at the root the root's own
        (None when the system is infeasible); below the root each node takes
        a ``_child`` step from it.  A chain that ends in a node with more
        than one value puts it on the stack.
        """
        nonlocal nodes, incumbent
        while True:
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
            if k:
                prep = _child(prep, k - 1, prefix[-1])
            if prep is None:
                return
            # Objective-bound pruning: only subtrees strictly worse than the
            # incumbent may be cut, equal-valued ones can hold more optima.
            cutoff = None if incumbent is None else incumbent - prefix_cost
            node = residual_range(prep, k, node_costs[k], cutoff)
            if node is None:
                return
            lo, hi = node
            if hi is None:
                if cols[k] or cost[k] <= 0:
                    raise UnboundedSearchError(
                        f"x_{k} is unbounded above at a search node: the enumeration needs a bounded system"
                    )
                hi = lo  # in no row and at a positive cost: 0 in every optimum
            if lo == hi:  # one value: its node is walked on
                prefix.append(lo)
                shift(1)
                continue
            # High values first: on the staircase families this finds the cheap
            # incumbent immediately, which lets the bound prune everything else.
            stack.append((k, prep, iter(range(hi, lo - 1, -1))))
            return

    walk(_prepare_system(lp.a, lp.b))
    while stack:
        # the next value of the deepest free node, after backing out of the last one's subtree
        k, prep, values = stack[-1]
        while len(prefix) > k:
            shift(-1)
            prefix.pop()
        v = next(values, None)
        if v is None:
            stack.pop()
            continue
        prefix.append(v)
        shift(1)
        walk(prep)
    return tuple(sorted(sols))
