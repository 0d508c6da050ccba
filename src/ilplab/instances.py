"""The benchmark families, their generators and the bin-packing configuration systems.

``FAMILIES`` is the one place that says what each family is, one ``Family``
record per family.  Every ``IlpInstance`` the program holds that carries a
family label is that family's generated instance: the generators make it so,
and ``instance_from_doc``, where outside instances enter, refuses a document
that is not its family's generated instance.  So measures and checks read a
family's facts from ``FAMILIES.get(inst.family)`` without checking again.

The two staircase families are one shape, the d-block staircase over an
r x m base M (``_block_staircase``): row block 1 is [M | I], every later row
block j couples delta*I in column group j-1 with I in column group j, and
the right-hand side of block j is the constant vector delta**(j-1).

  * sensitivity family: the staircase over the empty 1 x 0 base, a d x d
    unit lower bidiagonal matrix with subdiagonal delta, plus an alternate
    right-hand side with the first entry zeroed;
  * proximity family: the staircase over the 15 x 6 Petersen matching
    incidence matrix, 15d x (6+15d).

Each staircase row forces its block's value from the block before it:
w_1 = b_e - (M.y)_e is what row e of block 1 leaves to its identity column,
and w_j = delta**(j-1) - delta*w_(j-1) (``_tail``).  Tails started at 0 and
at 1 differ by delta**(j-1) in block j, the gap both lower bounds come from.
The recurrence has one home and three readers: the sensitivity family's
expected optima are the tails from 1 and from 0, the proximity
certificate's tail is the tail from 0, and p and q (``p_q_constants``, read
by ``norm_floor`` and the proximity reference) are the sums of the tails
from 0 and from 1.

Both are also embedded into bin-packing configuration systems by one step,
``_embed``: each family column, re-read as an item multiplicity vector, must
fit into a unit bin, and a 0/1 objective makes those columns the only ones an
optimal solution can use.  b (and b') stay the staircase's own, read as the
item multiplicities.  The two generators differ only in their size rule.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .errors import BudgetExceededError, EmbeddingError
from .exactla import Matrix, Vec, _ints, rat, vec, vec_str
from .lp import StandardLp, is_feasible_point
from .petersen import build_matching_system

SCHEMA_VERSION = 1

FAMILY_SENSITIVITY = "sensitivity"
FAMILY_PROXIMITY = "proximity"
FAMILY_BINPACK_SENS = "binpack_sens"
FAMILY_BINPACK_PROX = "binpack_prox"
FAMILY_CUSTOM = "custom"

#: the measure the paper makes on a family, named as ``measure``'s argument
KIND_SENS = "sens"
KIND_PROX = "prox"


@dataclass(frozen=True)
class IlpInstance:
    """A generated (or user-supplied) equality-form ILP with its metadata.

    A bin-packing instance also carries its item ``sizes``, the step
    ``epsilon`` of its size rule, and ``c1_indices``, the zero-cost columns
    that hold the embedded family; other instances leave them None.

    An instance labelled with a family other than ``custom`` is that family's
    generated instance at its delta and d, field for field.  The generators
    and ``instance_from_doc`` keep this; an API caller who builds an instance
    by hand is responsible for its label.
    """

    lp: StandardLp
    family: str
    delta: int
    d: int
    alt_rhs: tuple[int, ...] | None = None
    notes: str = ""
    sizes: Vec | None = None
    epsilon: Fraction | None = None
    c1_indices: tuple[int, ...] | None = None


# ---------------------------------------------------------------------------
# staircase families


def _block_staircase(base: Sequence[Sequence[int]], delta: int, d: int) -> tuple[list[list[int]], list[int]]:
    """The rows and b of the d-block staircase over the r x m matrix ``base``.

    Its r*d rows and m + r*d columns hold d row blocks: block 1 is
    [base | I], block j > 1 puts delta*I under block j-1's identity columns
    and I in its own, and the right-hand side of block j is delta**(j-1) on
    each of its r rows.
    """
    r, m = len(base), len(base[0])
    rows = []
    for j in range(d):
        for k in range(r):
            row = [0] * (m + r * d)
            if j:
                row[m + r * (j - 1) + k] = delta
            else:
                row[:m] = base[k]
            row[m + r * j + k] = 1
            rows.append(row)
    return rows, [delta**j for j in range(d) for _ in range(r)]


def _tail(delta: int, d: int, first: int) -> list[int]:
    """The values a staircase row forces on blocks 1..d: w_1 = first, w_j = delta**(j-1) - delta*w_(j-1)."""
    w = [first]
    for j in range(1, d):
        w.append(delta**j - delta * w[-1])
    return w


def gen_sensitivity(delta: int, d: int) -> IlpInstance:
    """The staircase over the empty 1 x 0 base: unit lower bidiagonal, subdiagonal delta; b' zeroes b[0]."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if d < 2 or d % 2 != 0:
        raise ValueError("d must be even and >= 2")
    rows, b = _block_staircase(((),), delta, d)
    lp = StandardLp(Matrix(rows), b, (0,) * d)
    return IlpInstance(lp, FAMILY_SENSITIVITY, delta, d, alt_rhs=(0, *b[1:]))


def expected_sensitivity_pair(delta: int, d: int) -> tuple[Vec, Vec]:
    """The unique solutions for b and b': the tails from 1 and from 0."""
    inst = gen_sensitivity(delta, d)
    x, x_prime = tuple(_tail(delta, d, 1)), tuple(_tail(delta, d, 0))
    if not is_feasible_point(inst.lp, x):
        raise AssertionError("the tail from 1 is infeasible for b")
    if not is_feasible_point(StandardLp(inst.lp.a, inst.alt_rhs, inst.lp.c), x_prime):
        raise AssertionError("the tail from 0 is infeasible for b'")
    return x, x_prime


def gen_proximity(delta: int, d: int) -> IlpInstance:
    """The staircase over the Petersen matching incidence matrix.

    15d rows, 6+15d columns; every entry is 0, 1, or delta; the right-hand
    side of row block j is the constant vector delta**(j-1).
    """
    if delta < 2:
        raise ValueError("delta must be >= 2")
    if d < 1 or d % 2 != 1:
        raise ValueError("d must be odd and >= 1")
    rows, b = _block_staircase(build_matching_system().incidence.rows, delta, d)
    lp = StandardLp(Matrix(rows), b, (0,) * len(rows[0]))
    return IlpInstance(lp, FAMILY_PROXIMITY, delta, d)


def _half_matchings(delta: int, d: int) -> Vec:
    """Every matching column half a time, then the tail from 0 on each of the 15 rows of every block.

    The halves cover every edge exactly once, so block 1's identity
    columns are 0 and each later block takes the value the tail forces.
    """
    return (Fraction(1, 2),) * 6 + tuple(w for w in _tail(delta, d, 0) for _ in range(15))


def p_q_constants(delta: int, d: int) -> tuple[int, int]:
    """The sums of the tails from 0 and from 1, for odd d.

    The tail from 0 alternates 0, delta, 0, delta**3, ..., so p sums
    delta**(2i-1) for i = 1..(d-1)/2; the tail from 1 alternates 1, 0,
    delta**2, 0, ..., so q sums delta**(2i-2) for i = 1..(d+1)/2, and
    q = delta*p + 1.  The relation p = delta*(q - delta**(d-1)) is checked
    as a self-check.
    """
    if d % 2 != 1 or d < 1:
        raise ValueError("d must be odd and >= 1")
    p, q = sum(_tail(delta, d, 0)), sum(_tail(delta, d, 1))
    if p != delta * (q - delta ** (d - 1)):
        raise AssertionError("tail-sum identity failed")
    return p, q


# ---------------------------------------------------------------------------
# bin-packing embeddings


def _count_configurations(units: Sequence[int], capacity: int, limit: int) -> int:
    """How many k >= 0 have k.units <= capacity; a ``BudgetExceededError`` once those seen pass ``limit``.

    The configurations of the items seen so far are kept counted by load,
    one item at a time: each grows by every count of the next item that
    still fits.  Every count added is of configurations not counted before,
    so the running count refuses as soon as it passes ``limit``, and no more
    than ``limit`` loads are ever kept.
    """
    by_load = {0: 1}
    count = 1
    for u in units:
        grown: dict[int, int] = {}
        count = 0
        for low, n in by_load.items():
            for load in range(low, capacity + 1, u):
                grown[load] = grown.get(load, 0) + n
                count += n
                if count > limit:
                    raise BudgetExceededError(f"more than {limit} configurations")
        by_load = grown
    return count


def enumerate_configurations(sizes: Sequence[Fraction | int | str], limit: int = 1_000_000) -> list[tuple[int, ...]]:
    """Every k in Z^d_{>=0} with k.sizes <= 1, in lexicographic order.

    They are counted first, so more than ``limit`` of them are refused
    before any is listed.
    """
    s = vec(sizes)
    if any(x <= 0 or x > 1 for x in s):
        raise ValueError("sizes must lie in (0, 1]")
    # sizes and capacities in units of 1/q, q the sizes' common denominator, so each count is an int quotient
    q = math.lcm(*(x.denominator for x in s))
    units = [int(x * q) for x in s]
    _count_configurations(units, q, limit)
    out: list[tuple[int, ...]] = []
    # (i, capacity left for items i.., values of k_i left low to high) of each item on the path
    stack: list[tuple[int, int, Iterator[int]]] = []
    k: list[int] = []
    i, capacity = 0, q
    while True:
        if i == len(s):
            out.append(tuple(k))
        else:
            stack.append((i, capacity, iter(range(capacity // units[i] + 1))))
        # the next count of the deepest item that has one left
        while stack:
            i, capacity, values = stack[-1]
            v = next(values, None)
            if v is not None:
                break
            stack.pop()
        else:
            return out
        del k[i:]
        k.append(v)
        i, capacity = i + 1, capacity - v * units[i]


def _embed(
    staircase: IlpInstance,
    family: str,
    sizes: Vec,
    epsilon: Fraction,
    configurations: Sequence[tuple[int, ...]],
    notes: str,
) -> IlpInstance:
    """``staircase`` as a bin-packing configuration system over ``sizes``.

    The staircase columns, read as item multiplicities, come first at cost 0;
    each must fit into the bin.  Every other configuration listed follows at
    cost 1.  b and b' are the staircase's own.
    """
    cols = staircase.lp.a.cols()
    for j, col in enumerate(cols):
        load = sum((k * s for k, s in zip(col, sizes) if k), Fraction(0))
        if load > 1:
            raise EmbeddingError(f"column {j} overfills the bin: load {load} > 1")
    family_cols = set(cols)
    others = [k for k in configurations if k not in family_cols]
    c = (0,) * len(cols) + (1,) * len(others)
    lp = StandardLp(Matrix.from_cols(cols + others), staircase.lp.b, c)
    return replace(
        staircase, lp=lp, family=family, notes=notes, sizes=sizes, epsilon=epsilon, c1_indices=tuple(range(len(cols)))
    )


def gen_binpack_sensitivity(delta: int, d: int) -> IlpInstance:
    """Bin-packing system whose zero-cost columns are the sensitivity family.

    Sizes are 1/(2*delta) + i*epsilon with epsilon = 1/(4*(d-1+delta*d)).
    Each staircase column i becomes "one item of size i plus delta items of
    size i+1", and every configuration is listed (for delta = 1 two items
    already overfill the bin, so the embedding fails loudly).
    """
    staircase = gen_sensitivity(delta, d)
    sizes = tuple(_binpack_sens_size(delta, d, i) for i in range(1, d + 1))
    eps = sizes[1] - sizes[0]
    return _embed(staircase, FAMILY_BINPACK_SENS, sizes, eps, enumerate_configurations(sizes), "configurations=all")


def _binpack_sens_size(delta: int, d: int, i: int) -> Fraction:
    """Item i's size in the bin-packing sensitivity family: 1/(2*delta) + i/(4*(d-1+delta*d))."""
    return Fraction(1, 2 * delta) + Fraction(i, 4 * (d - 1 + delta * d))


def _least_configurations(delta: int, d: int) -> int:
    """A lower bound on the bin-packing sensitivity family's configurations, C(d+m, m).

    Any m = floor(1/s_d) items fit into the bin, s_d being the largest size,
    so every multiset of at most m of the d items is a configuration.
    """
    if delta < 1 or d < 1:  # no sizes: the generator's refusal is the loader's
        return 0
    m = math.floor(1 / _binpack_sens_size(delta, d, d))
    return math.comb(d + m, m)


def gen_binpack_proximity(delta: int, d: int) -> IlpInstance:
    """Bin-packing system whose zero-cost columns are the proximity family.

    One distinct size per row (15*d of them), base length 1/(30*delta).
    epsilon is the largest exact rational for which every family column
    still fits in a unit bin, capped at 57/(60*(D-2+delta*(D-1))) with D the
    number of distinct sizes.  The full configuration set is astronomically
    large and never materialized; only the family columns are listed, which
    is enough because every other configuration has objective cost 1.
    """
    if d < 3 or d % 2 != 1:
        raise ValueError("d must be odd and >= 3")
    staircase = gen_proximity(delta, d)
    n_sizes = staircase.lp.a.nrows
    base = Fraction(1, 30 * delta)
    # column k fits while sum_r k_r (base + r eps) <= 1, r = 1..n_sizes
    fit = min((1 - base * sum(col)) / sum(r * k for r, k in enumerate(col, 1)) for col in staircase.lp.a.cols())
    eps = min(fit, Fraction(57, 60 * (n_sizes - 2 + delta * (n_sizes - 1))))
    sizes = tuple(base + r * eps for r in range(1, n_sizes + 1))
    return _embed(staircase, FAMILY_BINPACK_PROX, sizes, eps, (), "configurations=distinguished only")


# ---------------------------------------------------------------------------
# the family registry


@dataclass(frozen=True)
class Family:
    """What one benchmark family is.

    ``kind`` is the measure the paper makes on the family; ``shape`` gives
    its matrix's (rows, columns) at d, columns None where they have no
    closed form, and ``least_columns`` then a lower bound on them at
    (delta, d), or None; ``reference`` gives the paper's lower bounds for it as
    (l1, linf).  ``certificate`` is the canonical optimal fractional point
    and ``expected_pair`` the unique optima for b and b', the tails from 1
    and from 0, or None.
    """

    name: str
    cli_name: str
    kind: str
    generate: Callable[[int, int], IlpInstance]
    shape: Callable[[int], tuple[int, int | None]]
    reference: Callable[[int, int], tuple[Fraction | None, Fraction | None]]
    certificate: Callable[[int, int], Vec] | None = None
    expected_pair: Callable[[int, int], tuple[Vec, Vec]] | None = None
    least_columns: Callable[[int, int], int] | None = None


def _block_shape(d: int) -> tuple[int, int]:
    return 15 * d, 6 + 15 * d


def _staircase_reference(delta: int, d: int) -> tuple[Fraction, Fraction]:
    return Fraction(sum(delta**j for j in range(d))), Fraction(delta ** (d - 1))


def _block_reference(delta: int, d: int) -> tuple[Fraction, None]:
    p, _ = p_q_constants(delta, d)
    return Fraction(13 * delta * p), None


# name, CLI name, kind, generator, shape, reference, certificate, expected pair, least columns
FAMILIES = {
    family.name: family
    for family in (
        Family(FAMILY_SENSITIVITY, "sensitivity", KIND_SENS, gen_sensitivity, lambda d: (d, d),
               _staircase_reference, None, expected_sensitivity_pair),
        Family(FAMILY_PROXIMITY, "proximity", KIND_PROX, gen_proximity, _block_shape, _block_reference,
               _half_matchings),
        # one column per configuration, a count with no closed form
        Family(FAMILY_BINPACK_SENS, "binpack-sens", KIND_SENS, gen_binpack_sensitivity,
               lambda d: (d, None), _staircase_reference, least_columns=_least_configurations),
        Family(FAMILY_BINPACK_PROX, "binpack-prox", KIND_PROX, gen_binpack_proximity, _block_shape,
               _block_reference, _half_matchings),
    )
}


# ---------------------------------------------------------------------------
# serialization


def instance_to_doc(inst: IlpInstance) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "family": inst.family,
        "delta": inst.delta,
        "d": inst.d,
        "matrix": inst.lp.a.to_json(),
        "b": vec_str(inst.lp.b),
        "b_prime": vec_str(inst.alt_rhs) if inst.alt_rhs is not None else None,
        "c": vec_str(inst.lp.c),
        "notes": inst.notes,
    }
    if inst.sizes is not None:
        doc["sizes"] = vec_str(inst.sizes)
    if inst.epsilon is not None:
        doc["epsilon"] = str(inst.epsilon)
    if inst.c1_indices is not None:
        doc["c1_indices"] = list(inst.c1_indices)
    return doc


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a list for {key!r}, got {type(value).__name__}")
    return value


def _int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer for {key!r}, got {value!r}")
    return value


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _rationals(value, key: str, memo: dict[int | str, int | Fraction]) -> tuple[int | Fraction, ...]:
    """A list of ints or 'p/q' strings, the document's form of a rational vector.

    A string is read only in the form ``str(Fraction)`` writes: ASCII
    digits, an optional sign and an optional denominator.  ``Fraction``
    itself also reads decimals, underscores, spaces, non-ASCII digits and
    exponents, and a ten-byte exponent can cost half a minute.  An entry
    written without a denominator is read as an int, one with a denominator
    as a Fraction.  ``memo`` maps each entry of the document parsed so far
    to its value, so an entry repeated anywhere in the document is parsed
    once.
    """
    for x in _list(value, key):
        well_formed = _RATIONAL.fullmatch(x) if isinstance(x, str) else isinstance(x, int) and not isinstance(x, bool)
        if not well_formed:
            raise ValueError(f"expected an integer or a 'p/q' string for {key!r}, got {x!r}")
    out = []
    for x in value:
        r = memo.get(x)
        if r is None:
            try:
                r = memo[x] = Fraction(x) if isinstance(x, str) and "/" in x else int(x)
            except ZeroDivisionError:
                raise ValueError(f"a zero denominator in {key!r}") from None
        out.append(r)
    return tuple(out)


def instance_from_doc(doc: dict) -> IlpInstance:
    """Parse an instance document; every schema violation is a ``ValueError``.

    The ILP data, the matrix, b, b_prime and c, must be integral: a
    non-integer entry is a ``ValueError`` naming its field, raised while the
    data is read, before any work on it.  ``sizes`` and ``epsilon`` are
    rationals.  A document labelled with a family must be that family's
    generated instance at its delta and d, field for field; a mismatch, or
    a delta or d the generator refuses, is a ``ValueError`` too.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"an instance document is a JSON object, not {type(doc).__name__}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    family = doc["family"]
    if family not in (*FAMILIES, FAMILY_CUSTOM):
        raise ValueError(f"unknown family {family!r}")
    notes = doc.get("notes", "")
    if not isinstance(notes, str):
        raise ValueError(f"expected a string for 'notes', got {notes!r}")
    memo: dict[int | str, int | Fraction] = {}
    a = Matrix(tuple(_rationals(row, "matrix", memo) for row in _list(doc["matrix"], "matrix")))
    lp = StandardLp(a, _rationals(doc["b"], "b", memo), _rationals(doc["c"], "c", memo))
    b_prime, sizes, epsilon, c1 = (doc.get(k) for k in ("b_prime", "sizes", "epsilon", "c1_indices"))
    if b_prime is not None:
        b_prime = _ints(_rationals(b_prime, "b_prime", memo), "b_prime")
        if len(b_prime) != a.nrows:
            raise ValueError(f"'b_prime' has length {len(b_prime)}, matrix has {a.nrows} rows")
    if c1 is not None:
        c1 = tuple(_int(j, "c1_indices") for j in _list(c1, "c1_indices"))
    inst = IlpInstance(
        lp,
        family,
        _int(doc["delta"], "delta"),
        _int(doc["d"], "d"),
        alt_rhs=b_prime,
        notes=notes,
        sizes=vec(_rationals(sizes, "sizes", memo)) if sizes is not None else None,
        epsilon=rat(_rationals([epsilon], "epsilon", memo)[0]) if epsilon is not None else None,
        c1_indices=c1,
    )
    if family != FAMILY_CUSTOM:
        mismatch = ValueError(f"the document is not the {family} family at delta={inst.delta}, d={inst.d}")
        rows, cols = FAMILIES[family].shape(inst.d)
        least = FAMILIES[family].least_columns
        # the shape first: a small document labelled with a large cell is refused without generating it
        if a.nrows != rows or cols not in (None, a.ncols) or (least and a.ncols < least(inst.delta, inst.d)):
            raise mismatch
        try:
            generated = FAMILIES[family].generate(inst.delta, inst.d)
        except (ValueError, EmbeddingError) as exc:
            raise ValueError(f"the {family} family has no instance at delta={inst.delta}, d={inst.d}: {exc}") from None
        if inst != generated:
            raise mismatch
    return inst


def doc_dumps(doc: dict) -> str:
    """Canonical JSON: sorted keys, stable separators."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
