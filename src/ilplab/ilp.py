"""Exhaustive, exact enumeration of all optimal integral solutions of small ILPs.

Two exact engines answer ``enumerate_integral_optima``, and the instance,
not a flag, picks one.  Both return the same value: the sorted tuple of
every optimal integral point, empty when there is none; their objective
is c.x of any of them.

The right-hand-side DP (Papadimitriou, JACM 28, 1981) serves small
non-negative integral systems.  Its states are the partial sums s <= b,
each encoded as one mixed-radix int with radix b_i + 1.  A forward pass
over the columns in order keeps, per layer j, the least cost of each
partial sum that the columns before j reach; column j is taken k =
0..kmax(s) times, where kmax(s) = min over a_ij > 0 of (b_i - s_i) // a_ij,
and a column in no row only k = 0 times.  A backtrack from b then follows
only the arcs on which the least costs agree, on an explicit stack.  The
output can be far larger than the DP's work (an all-ones row at no cost),
so the backtrack counts the optima it finds and raises
``BudgetExceededError`` once they and the n nodes above the first one
exceed the node budget: the search visits at least that many nodes, so it
would have refused too.

The rule picks the DP when all of these hold, and the search otherwise:

  * every entry of A and of b is >= 0;
  * every column in no row has a positive cost, so it is 0 in every
    optimum (at a cost <= 0 the search raises ``UnboundedSearchError``);
  * W <= min(node_budget, ``_DP_WORK_LIMIT``), where
    W = prod_i (b_i + 1) * sum_j (kmax_j + 1) with kmax_j taken at s = 0.

W bounds the arcs the forward pass visits, so the DP never does more work
than the caller allows the search.  The product over b is tested first,
and the test stops as soon as it passes the limit, so a staircase is
refused within a few rows.  Where the engines cross depends on the
system; measured per enumeration on one host (CPython 3.11), the DP is 2
to 47 times faster than the search on fuzz's random 1-3-row systems at
every W up to 4,096, and still 7 times faster near 65,000.  On the
staircases, where presolve pins almost every variable, the search wins:
sensitivity (2,4) at W = 2,430 and 5,130 takes the DP 0.09 and 0.11 ms
against the search's 0.05 ms, and binpack-sens (2,4) at W = 10,530 and
23,760 takes it 10 and 17 ms against 1.3 and 1.6 ms.  A limit of 4,096
keeps those family cells on the search and gives the DP 1,583 of the
2,000 enumerations of ``fuzz --seed 7 --trials 1000``.

The search is a depth-first search over the variables in index order.
At every node the current variable is bounded by the exact LP range of
the residual problem, and by nothing else: a range with no finite top
raises ``UnboundedSearchError``, except for a column in no row at a
positive cost, which is 0 in every optimum.  Subtrees are pruned when the LP relaxation is
infeasible or provably worse than the incumbent objective, and every leaf
is checked exactly.  The search is complete whenever it returns: it has
visited every optimal integral point.

Both engines run on ints: A, b and c are integral (see ``exactla``), so
the objective is an int at every integral point, and the residual b - A x
of a prefix is one int per row, updated from the integer columns built
once per enumeration.  Every row starts at scale 1; a scale arises only
inside a preparation, from a non-integral value its presolve forced (see
``lp``).  Each non-leaf node has one preparation of its residual system
(presolve and phase 1) and reads the objective bound and the range of the
node's variable off it in one call, ``lp.residual_range``, as ints.  The root's
preparation is ``lp._prepare_system``'s for the whole system, which is the
one a preceding ``lp_solve`` of the same system made.  Every other node is
a child x_k = v of the node above, prepared by ``lp._child`` from the
parent's preparation, k and v alone; ``_child`` hands back the parent's
own when the parent had forced x_k.  Otherwise the child's presolve
substitutes x_k = v, its dominance pass tests only the row pairs its
substitutions touched, and its phase 1 starts from the parent's basis
(see ``lp``), so its tableau is a feasible basis but not in general the
cold one; the node reads only optimal values off it, which every
feasible basis gives alike.  A node whose range holds one value
has one child, so a chain of such nodes is walked in a loop, each node of
it still counted and bound-tested.  The nodes with more than one value sit
on an explicit stack with the values they have left, so no path, however
long, is bounded by the interpreter's recursion limit.
"""

from __future__ import annotations

from typing import Iterator

from .errors import BudgetExceededError, UnboundedSearchError
from .lp import StandardLp, _child, _Prepared, _prepare_system, residual_range

# Not called here.  perfbench/test_perfbench.py checks that its tracer wraps
# every module's binding of ``lp_solve``, this one included.
from .lp import lp_solve  # noqa: F401


def _integer_system(lp: StandardLp) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """A x = b as b in a new list, and the columns: column j holds the pair (i, a_ij) of each non-zero entry."""
    cols: list[list[tuple[int, int]]] = [[] for _ in range(lp.n)]
    for i, pairs in enumerate(lp.a.sparse_rows):
        for j, entry in pairs:
            cols[j].append((i, entry))
    return list(lp.b), cols


#: the largest work bound W at which the DP runs (see the module docstring)
_DP_WORK_LIMIT = 4096


def _dp_plan(lp: StandardLp, limit: int) -> tuple[list[int], list[int], list[list[tuple[int, int]]], list[int]] | None:
    """The DP's int system when the rule picks the DP for ``lp`` with W <= ``limit``, else None.

    The system is b, each row's place value in the mixed-radix state code,
    the columns as (row, entry) pairs of their non-zero entries, and c.
    """
    places: list[int] = []
    states = 1
    for bi in lp.b:
        if bi < 0:
            return None
        places.append(states)
        states *= bi + 1
        if states > limit:
            return None
    rhs, cols = _integer_system(lp)
    if any(entry < 0 for col in cols for _, entry in col):
        return None
    arcs = 0
    for col, w in zip(cols, lp.c):
        if col:
            arcs += min(rhs[i] // num for i, num in col) + 1
        elif w > 0:
            arcs += 1
        else:
            return None  # the search raises UnboundedSearchError on it
        if states * arcs > limit:
            return None
    return rhs, places, cols, list(lp.c)


def _dp_optima(
    rhs: list[int], places: list[int], cols: list[list[tuple[int, int]]], cost: list[int], node_budget: int
) -> tuple[tuple[int, ...], ...]:
    """Every optimum of the system ``_dp_plan`` returned, sorted lexicographically; empty when none exists."""
    n = len(cols)
    # per column: the code of one copy, and (place, radix, entry) of each row it is in
    steps = [sum(places[i] * num for i, num in col) for col in cols]
    digits = [[(places[i], rhs[i] + 1, num) for i, num in col] for col in cols]
    # layers[j]: the least cost of each partial sum of the columns before j
    layers = [{0: 0}]
    for step, rows, w in zip(steps, digits, cost):
        here: dict[int, int] = {}
        for s, f in layers[-1].items():
            top = min(((radix - 1 - s // place % radix) // num for place, radix, num in rows), default=0)
            for k in range(top + 1):
                t, g = s + k * step, f + k * w
                old = here.get(t)
                if old is None or g < old:
                    here[t] = g
        layers.append(here)
    goal = sum(p * bi for p, bi in zip(places, rhs))
    if goal not in layers[n]:
        return ()
    sols: list[tuple[int, ...]] = []
    # (j, partial sum of the columns before j, values of columns j.. as a linked list)
    stack: list[tuple[int, int, tuple | None]] = [(n, goal, None)]
    while stack:
        j, s, tail = stack.pop()
        if not j:
            x = []
            while tail is not None:
                k, tail = tail
                x.append(k)
            sols.append(tuple(x))
            if len(sols) + n > node_budget:
                raise BudgetExceededError(f"enumeration exceeded node budget {node_budget}")
            continue
        j -= 1
        f, below, step, w = layers[j + 1][s], layers[j], steps[j], cost[j]
        top = min((s // place % radix // num for place, radix, num in digits[j]), default=0)
        for k in range(top + 1):
            prev = below.get(s - k * step)
            if prev is not None and prev + k * w == f:
                stack.append((j, s - k * step, (k, tail)))
    return tuple(sorted(sols))


def enumerate_integral_optima(lp: StandardLp, node_budget: int = 10_000_000) -> tuple[tuple[int, ...], ...]:
    """The complete set of optimal integral solutions, sorted lexicographically; empty when none exists.

    The DP answers when the rule picks it, the search otherwise (see the
    module docstring).  Raises ``BudgetExceededError`` when the search
    visits more than ``node_budget`` nodes, and ``UnboundedSearchError``
    at the first search node whose variable has no finite LP maximum,
    unless its column is in no row and has positive cost.
    """
    plan = _dp_plan(lp, min(node_budget, _DP_WORK_LIMIT))
    if plan is None:
        return _search(lp, node_budget)
    return _dp_optima(*plan, node_budget)


def _search(lp: StandardLp, node_budget: int) -> tuple[tuple[int, ...], ...]:
    """``enumerate_integral_optima`` by the LP search, on any system."""
    n = lp.n
    residual, cols = _integer_system(lp)
    cost = lp.c
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
