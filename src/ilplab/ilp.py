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
  * P <= min(node_budget, ``_DP_WORK_LIMIT``), where
    P = sum_j min(prod_{i<j} (kmax_i + 1), prod_i (b_i + 1)) * (kmax_j + 1)
    and kmax_j = kmax(0), the most copies of column j that fit in b.

P bounds the (state, k) arcs the forward pass visits, so the DP never does
more work than the caller allows the search.  Layer j holds only the
partial sums that the columns before j reach, column i at most kmax_i
times each: at most prod_{i<j} (kmax_i + 1) of them, and at most
prod_i (b_i + 1), the states in the box b.  Each of them takes column j
k = 0..kmax(s) times, and kmax(s) <= kmax_j.  The rule sums P column by column from A's dense
rows, both products capped at the limit + 1, and stops as soon as P passes
the limit; only then does it build the columns' integer pattern.  So a
staircase is refused within a few columns (5 on sensitivity (3,10), 12 on
proximity (2,7)), before its pattern exists.

Where the engines cross depends on the system.  Measured per enumeration
on one host (CPython 3.11), on the 1,947 of the 2,000 enumerations of
``fuzz --seed 7 --trials 1000`` that the rule gives the DP, the DP takes
68 ms in all against the search's 544 ms, and its median lead is 2.6 to 6
times at every P up to 4,096; the search, whose root reuses a preparation
made before, is faster on 133 of them, most of them with P <= 128.  On the
staircases presolve pins almost every variable, so the search is cheap.
The rule gives the DP sensitivity (2,4) at P = 308 and 154 and (3,4) at
P = 2,330 and 1,165, where it takes 0.03 to 0.10 ms against the search's
0.02 to 0.03 ms.  It keeps binpack-sens (2,4) at P = 18,938 and 8,254 on
the search, where the DP would take 4.6 and 2.7 ms against 1.0 and 0.6 ms.

The search is a depth-first search over the variables in index order.
At every node the current variable is bounded by the exact LP range of
the residual problem, and by nothing else: a range with no finite top
raises ``UnboundedSearchError``, except for a column in no row at a
positive cost, which is 0 in every optimum.  Subtrees are pruned when the LP relaxation is
infeasible or provably worse than the incumbent objective, and every leaf
is checked exactly.  The search is complete whenever it returns: it has
visited every optimal integral point.

Both engines run on ints: A, b and c are integral (see ``exactla``), so
the objective is an int at every integral point, and every leaf's exact
check A x = b is a product of int vectors.  Every row starts at scale 1; a
scale arises only inside a preparation, from a non-integral value its
presolve forced (see ``lp``).  Each non-leaf node has one preparation of
its residual system (presolve and phase 1) and reads the objective bound
and the range of the node's variable off it in one call,
``lp.residual_range``, as ints.  The root's preparation is
``lp._prepare_system``'s for the whole system, which is the one a
preceding ``lp_solve`` of the same system made.  Every other node is a
child x_k = v of the node above, prepared by ``lp._child`` from the
parent's preparation, k and v alone; ``_child`` hands back the parent's
own when the parent had forced x_k.  Otherwise it grows the parent's
preparation by the unit row x_k = v: the child's presolve substitutes
x_k = v, its dominance pass tests only the row pairs its substitutions
touched, and its phase 1 starts from the parent's basis
(see ``lp``), so its tableau is a feasible basis but not in general the
cold one; the node reads only optimal values off it, which every
feasible basis gives alike.

The search is one loop over an explicit stack, so no path, however long,
is bounded by the interpreter's recursion limit.  Each node on the path
has one entry: its depth k, its preparation, the cost of x_0..x_{k-1}, and
the values of x_k it has left, high to low.  A node whose range holds one
value pushes an entry with that one value, so a forced node and a free
one take the same path.  The loop evaluates a node, then takes the next
value of the deepest entry that has one left; the prefix x_0..x_{k-1} is
cut back to that entry's depth before the value is appended.
"""

from __future__ import annotations

from typing import Iterator

from .errors import BudgetExceededError, UnboundedSearchError
from .lp import StandardLp, _child, _Prepared, _prepare_system, residual_range

# Not called here.  perfbench/test_perfbench.py checks that its tracer wraps
# every module's binding of ``lp_solve``, this one included.
from .lp import lp_solve  # noqa: F401


#: the largest work bound P at which the DP runs (see the module docstring)
_DP_WORK_LIMIT = 4096


def _dp_plan(
    lp: StandardLp, limit: int
) -> tuple[list[int], list[int], list[list[tuple[int, int]]], list[int], list[int]] | None:
    """The DP's int system when the rule picks the DP for ``lp`` with P <= ``limit``, else None.

    The system is b, each row's place value in the mixed-radix state code,
    the columns as (row, entry) pairs of their non-zero entries, c, and
    each column's kmax: the most copies of it that fit in b.
    """
    rows, b = lp.a.rows, lp.b
    if any(bi < 0 for bi in b):
        return None
    # both products are capped at limit + 1, which is all the test reads of them
    cap = limit + 1
    states = 1
    for bi in b:
        states = min(states * (bi + 1), cap)
    reach = 1  # the partial sums the columns before j reach, at most
    work = 0
    most: list[int] = []
    for j, w in enumerate(lp.c):
        kmax = None
        for row, bi in zip(rows, b):
            entry = row[j]
            if entry < 0:
                return None
            if entry and (kmax is None or bi // entry < kmax):
                kmax = bi // entry
        if kmax is None:
            if w <= 0:
                return None  # the search raises UnboundedSearchError on it
            kmax = 0
        work += min(reach, states) * (kmax + 1)
        if work > limit:
            return None
        reach = min(reach * (kmax + 1), cap)
        most.append(kmax)
    # column j holds the pair (i, a_ij) of each non-zero entry
    cols: list[list[tuple[int, int]]] = [[] for _ in range(lp.n)]
    for i, pairs in enumerate(lp.a.sparse_rows):
        for j, entry in pairs:
            cols[j].append((i, entry))
    places: list[int] = []
    place = 1
    for bi in b:
        places.append(place)
        place *= bi + 1
    return list(b), places, cols, list(lp.c), most


def _dp_optima(
    rhs: list[int],
    places: list[int],
    cols: list[list[tuple[int, int]]],
    cost: list[int],
    most: list[int],
    node_budget: int,
) -> tuple[tuple[int, ...], ...]:
    """Every optimum of the system ``_dp_plan`` returned, sorted lexicographically; empty when none exists."""
    n = len(cols)
    # per column: the code of one copy, and (place, radix, entry) of each row it is in
    steps = [sum(places[i] * num for i, num in col) for col in cols]
    digits = [[(places[i], rhs[i] + 1, num) for i, num in col] for col in cols]
    # layers[j]: the least cost of each partial sum of the columns before j
    layers = [{0: 0}]
    for step, rows, w, kmax in zip(steps, digits, cost, most):
        here: dict[int, int] = {}
        for s, f in layers[-1].items():
            # the copies that fit in b - s: at most kmax, fewer in a row s has filled
            top = kmax
            for place, radix, num in rows:
                left = (radix - 1 - s // place % radix) // num
                if left < top:
                    top = left
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
        top = most[j]
        for place, radix, num in digits[j]:
            left = s // place % radix // num
            if left < top:
                top = left
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
    cost = lp.c
    # the objective over each node's columns k.., as residual_range reads it
    node_costs = [{j: w for j, w in enumerate(cost) if w and j >= k} for k in range(n)]
    incumbent: int | None = None
    sols: list[tuple[int, ...]] = []
    nodes = 0
    # (k, preparation, cost of x_0..x_{k-1}, values of x_k left high to low) of each node on the path
    stack: list[tuple[int, _Prepared, int, Iterator[int]]] = []
    prefix: list[int] = []
    # the node at depth k: the root, prepared whole, and then each child of the node above
    k, prep, prefix_cost = 0, _prepare_system(lp.a, lp.b), 0
    while True:
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"enumeration exceeded node budget {node_budget}")
        if k == n:
            if lp.a.mul_vec(prefix) == lp.b:
                if incumbent is None or prefix_cost < incumbent:
                    incumbent = prefix_cost
                    sols.clear()
                if prefix_cost == incumbent:
                    sols.append(tuple(prefix))
        else:
            if k:
                prep = _child(prep, k - 1, prefix[-1])
            # Objective-bound pruning: only subtrees strictly worse than the
            # incumbent may be cut, equal-valued ones can hold more optima.
            cutoff = None if incumbent is None else incumbent - prefix_cost
            span = None if prep is None else residual_range(prep, k, node_costs[k], cutoff)
            if span is not None:
                lo, hi = span
                if hi is None:
                    if cost[k] <= 0 or any(row[k] for row in lp.a.rows):
                        raise UnboundedSearchError(
                            f"x_{k} is unbounded above at a search node: the enumeration needs a bounded system"
                        )
                    hi = lo  # in no row and at a positive cost: 0 in every optimum
                # High values first: on the staircase families this finds the cheap
                # incumbent immediately, which lets the bound prune everything else.
                stack.append((k, prep, prefix_cost, iter(range(hi, lo - 1, -1))))
        # the next node: the next value of the deepest node on the path that has one left
        while stack:
            k, prep, prefix_cost, values = stack[-1]
            v = next(values, None)
            if v is not None:
                break
            stack.pop()
        else:
            return tuple(sorted(sols))
        del prefix[k:]
        prefix.append(v)
        k, prefix_cost = k + 1, prefix_cost + cost[k] * v
