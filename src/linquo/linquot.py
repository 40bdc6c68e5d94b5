"""Linear-quotients verification, order search and order transport.

The verification criterion: an ordering u_1 > ... > u_r of equal-degree
monomials has linear quotients iff for every position t and every earlier i
with deg(u_i : u_t) > 1 there is an earlier j whose colon u_j : u_t is a
single variable dividing u_i : u_t.  The verifier finds those variables
through shared divisors (u_j = m x_v and u_t = m x_w), by a dict walk over
the (position, support variable) pairs of a small order and by one sort of
their divisors in a large one.  It then tests each position with one OR of
position bitmasks cut to the end of its block of positions: O(r * n) big-int
operations, not O(r^2 * n) exponent comparisons.

The verifier and the search work on the exponent matrix
``PowerGenerators.exps`` directly (the verifier on its rows in the order's
sequence); the transports map exponent rows to generator indices with
``PowerGenerators.locate``, and orders are written as ``PowerGenerators.least``
factorizations.  ``Monomial`` appears only in witnesses, in the colon oracle
and in ``GeneratorOrdering.monomials()``.

Both transports start from one duplication rule, ``_duplicated_rows``: each
generator u, then its substitutes u y^k / x^k.  Duplication maps those rows
into the power of I(G^x); expansion maps them into the power of I(G^[x]),
where they are the generators that need no xy factor, and appends the rest.

The search applies the same criterion to one candidate at a time, on Python
int bitmasks over generator indices built once per search from the
verifier's divisor keys and ``above`` masks: per candidate c and per variable
v that is some degree-one colon against c, the generators whose colon is x_v
and those whose colon involves v.  Testing c after a prefix is then a few int
operations on those masks and the prefix's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import duplicate_vertex, expand_vertex, is_gapfree
from .monomials import Monomial
from .power_ideals import EdgeIdeal, PowerGenerators, power_generators, row_keys

# The node budget of ``find_lq_order`` when the caller names none.
DEFAULT_BUDGET = 10**6

# Orders of at least this many generators get their unit colons by one sort,
# smaller ones by the dict walk.  Timed per order, the walk is 55-70% faster
# at r <= 61, the two are within 20% of each other at r = 129 and 138, and
# the sort is 15-40% faster from r = 233 on.
_SORT_ROWS = 128

# Positions per block of the verifier's cover test.
_COVER_BLOCK = 1024


class NotGapfree(ValueError):
    """The expansion gate failed: the expanded graph would not be gapfree."""


class OrderingPreconditionError(ValueError):
    """A construction was handed an ordering that fails its precondition."""


@dataclass(frozen=True)
class GeneratorOrdering:
    """A total order on the generators of a power, as a permutation of indices."""

    base: PowerGenerators
    sequence: tuple[int, ...]
    provenance: str = "given"

    def __post_init__(self):
        r = self.base.count
        if sorted(self.sequence) != list(range(r)):
            raise ValueError(f"the order must list each of the {r} generators exactly once")

    def __len__(self) -> int:
        return len(self.sequence)

    def exps(self) -> np.ndarray:
        """The base's exponent matrix with its rows in this order."""
        return self.base.exps[list(self.sequence)]

    def monomials(self) -> list[Monomial]:
        return [Monomial(row) for row in self.exps().tolist()]

    def multisets(self) -> list[list[int]]:
        """The least factorization of each generator, in order."""
        return self.base.least[list(self.sequence)].tolist()


def ordering_from_multisets(
    pg: PowerGenerators, multisets: Iterable[Sequence[int]]
) -> GeneratorOrdering:
    """Resolve a sequence of edge multisets against the enumerated generators.

    Each multiset must be a valid size-q factorization, and the sequence must
    hit every generator exactly once.
    """
    keys: list[tuple[int, ...]] = []
    for ms in multisets:
        key = tuple(sorted(int(j) for j in ms))
        if len(key) != pg.q:
            raise ValueError(f"multiset {key} does not have q={pg.q} edges")
        if not all(0 <= j < pg.ideal.nedges for j in key):
            raise ValueError(f"{key} is not a factorization of any generator")
        keys.append(key)
    ms = np.array(keys, dtype=np.int64).reshape(len(keys), pg.q)
    seq = pg.locate(sum(pg.ideal.rows[ms[:, k]] for k in range(pg.q)))
    return GeneratorOrdering(pg, tuple(seq))


@dataclass(frozen=True)
class LqWitness:
    """First failing pair: position t fails against earlier position i."""

    t: int
    i: int
    colon: Monomial


@dataclass(frozen=True)
class LqReport:
    passed: bool
    witness: LqWitness | None
    per_index_variables: tuple[frozenset[int], ...]


def _bitmasks(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int with bit p set where row[p]."""
    if not rows.shape[1]:
        return [0] * len(rows)
    packed = np.ascontiguousarray(np.packbits(rows, axis=1, bitorder="little"))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
    return [int.from_bytes(b, "little") for b in keys]


def _divisor_keys(E: np.ndarray) -> Iterator[tuple[int, int, bytes]]:
    """(t, w, the ``row_keys`` of u_t / x_w) for each w in supp(u_t), in row order."""
    ts, ws = np.nonzero(E)
    divisors = E[ts] - np.eye(E.shape[1], dtype=np.int64)[ws]
    return zip(ts.tolist(), ws.tolist(), row_keys(divisors))


def _above(E: np.ndarray) -> tuple[list[int], int]:
    """``(above, width)``: above[v * width + k] holds the rows whose exponent of v exceeds k."""
    r, n = E.shape
    width = int(E.max(initial=0)) + 1
    return _bitmasks((E.T[:, None, :] > np.arange(width)[:, None]).reshape(n * width, r)), width


def _unit_colon_masks(E: np.ndarray) -> list[int]:
    """Per row t of E, the bitmask of the v with u_j : u_t = x_v for an
    earlier row j: the pairs (t, w), w in supp(u_t), whose divisor u_t / x_w
    is an earlier pair's u_j / x_v.  Below ``_SORT_ROWS`` rows the
    ``_divisor_keys`` are walked, with ``seen[m]`` the v of the earlier rows
    m x_v.  From there one stable sort puts each m's pairs together in row
    order; a group holds at most n pairs, one per w, so for each lag d < n a
    pair gains the w of the pair d places before it when both share m."""
    r, n = E.shape
    if r < _SORT_ROWS:
        masks = [0] * r
        seen: dict[bytes, int] = {}
        for t, w, m in _divisor_keys(E):
            got = seen.get(m, 0)
            masks[t] |= got
            seen[m] = got | 1 << w
        return masks
    # int32 indices and the narrowest exponent dtype keep the arrays small.
    ts, ws = (a.astype(np.int32) for a in np.nonzero(E))
    divisors = E.astype(np.min_scalar_type(E.max(initial=0)))[ts]
    divisors -= np.eye(n, dtype=divisors.dtype)[ws]
    order = np.lexsort(divisors.T)
    divisors = divisors[order]
    ts, ws = ts[order], ws[order]
    del order
    # gid[k]: the group of sorted pair k.
    gid = np.zeros(len(ts), dtype=np.intp)
    np.cumsum(np.any(divisors[1:] != divisors[:-1], axis=1), out=gid[1:])
    del divisors
    units = np.zeros((r, n), dtype=bool)
    for d in range(1, n):
        same = gid[d:] == gid[:-d]
        if not same.any():
            break
        units[ts[d:][same], ws[:-d][same]] = True
    return _bitmasks(units)


def verify_linear_quotients(o: GeneratorOrdering) -> LqReport:
    """Check the ordering against the pairwise colon criterion.

    The witness, when present, is the first failing pair (lowest t, then
    lowest i); verification still finishes collecting the per-position
    variable sets.  Positions with the same variable set share one frozenset.

    V_t, the set of variables that are degree-one colons at position t, comes
    from shared divisors: u_j : u_t = x_v exactly when u_j = m x_v and
    u_t = m x_w for a divisor m of degree 2q - 1; ``_unit_colon_masks`` finds
    them by a dict walk below ``_SORT_ROWS`` positions and by one sort of the
    divisors from there on.  Position t then passes iff every earlier row
    exceeds u_t in some variable of V_t, tested as one OR of position bitmasks
    per variable.  Positions are tested ``_COVER_BLOCK`` at a time with the
    masks cut to the block's end, so each OR reads only the words below the
    block; i is the lowest zero bit of t's cover, which is t when t passes.
    """
    E = o.exps()
    r, n = E.shape
    var_masks = _unit_colon_masks(E)
    above, width = _above(E)
    shared = {m: frozenset(v for v in range(n) if m >> v & 1) for m in set(var_masks)}
    witness: LqWitness | None = None
    for start in range(0, r, _COVER_BLOCK):
        stop = min(start + _COVER_BLOCK, r)
        # The masks hold r bits, so the last block needs no cut.
        cut = above if stop == r else [a & (1 << stop) - 1 for a in above]
        for t, row in enumerate(E[start:stop].tolist(), start):
            cover = 0
            for v in shared[var_masks[t]]:
                cover |= cut[v * width + row[v]]
            i = (cover ^ (cover + 1)).bit_length() - 1
            if i < t:
                witness = LqWitness(t, i, Monomial(np.maximum(E[i] - E[t], 0)))
                break
        if witness is not None:
            break
    return LqReport(witness is None, witness, tuple(shared[m] for m in var_masks))


def colon_min_gens(o: GeneratorOrdering, t: int) -> list[Monomial]:
    """Minimal monomial generators of (u_1, ..., u_t) : u_{t+1}.

    ``t`` is the 0-based position; the colon against an empty prefix is the
    zero ideal, returned as an empty list.  Output is sorted for determinism.
    """
    mons = o.monomials()
    if not 0 <= t < len(mons):
        raise ValueError(f"position {t} out of range")
    colons = {mons[j].colon(mons[t]) for j in range(t)}
    minimal = [
        c
        for c in colons
        if not any(d != c and d.divides(c) for d in colons)
    ]
    return sorted(minimal, key=lambda m: m.exps)


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "none" | "unknown"
    ordering: GeneratorOrdering | None
    nodes: int
    backtracks: int


def _search_tables(E: np.ndarray) -> list[tuple[tuple[int, int], ...]]:
    """Per row c of E, a pair ``(unit, touch)`` of bitmasks over the rows p for
    each v, ascending, with some u_p : u_c = x_v: ``unit`` holds those p and
    ``touch``, the ``above`` mask of v at u_c's exponent, the p with v in
    supp(u_p : u_c).  u_p : u_c = x_v iff u_p = m x_v and u_c = m x_w for some
    m, so one walk over the divisor keys records each unit colon both ways."""
    units = [[0] * E.shape[1] for _ in E]
    # divisor key -> the pairs (p, v) walked so far with u_p = m x_v
    groups: dict[bytes, list[tuple[int, int]]] = {}
    for t, w, m in _divisor_keys(E):
        group = groups.setdefault(m, [])
        for p, v in group:
            units[t][v] |= 1 << p
            units[p][w] |= 1 << t
        group.append((t, w))
    above, width = _above(E)
    return [
        tuple((unit, above[v * width + k]) for v, (unit, k) in enumerate(zip(us, row)) if unit)
        for us, row in zip(units, E.tolist())
    ]


def _extends(units: tuple[tuple[int, int], ...], mask: int) -> bool:
    """Whether the colon ideal of the prefix ``mask`` at the tables' generator
    is generated by variables: every prefix row lies in a touch mask whose unit
    meets the prefix (a row whose colon is x_v lies in both masks of v)."""
    covered = 0
    for unit, touch in units:
        if unit & mask:
            covered |= touch
    return not mask & ~covered


def find_lq_order(pg: PowerGenerators, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Backtracking search for a linear-quotients order.

    Prefixes are extended by any generator whose colon ideal against the
    prefix is variable-generated; candidates sharing the most support
    variables with the prefix are tried first, ties by index.  Exhausting the
    tree proves no order exists; hitting the node budget reports unknown.  No
    prefix is entered whose set was exhausted before under another order.

    The prefix, its support and each generator's support are int bitmasks.
    ``_search_tables`` builds every candidate's unit and touch masks once,
    from the verifier's divisor keys and ``above`` masks; each test of a
    candidate against a prefix is then a few int operations (``_extends``).
    The tree is walked with an explicit stack, so its depth is not bounded by
    Python's recursion limit.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    r = pg.count
    if r == 0:
        return SearchResult("found", GeneratorOrdering(pg, (), "search"), 0, 0)
    E = pg.exps
    supports = _bitmasks(E > 0)
    tables = _search_tables(E)
    # support -> range(r) sorted by shared support.  The key depends on the
    # support alone and sorted is stable, so ties stay in index order and
    # dropping the prefix from the list keeps the order of the rest.
    orders: dict[int, list[int]] = {}
    # Exhausted prefix sets: whether c extends a prefix depends on its set
    # alone, so a set dead under one order of its members is dead under all.
    # A dead set was entered, so it is reached only through a c that extends.
    dead: set[int] = set()

    def candidates(mask: int, support: int) -> Iterator[int]:
        order = orders.get(support)
        if order is None:
            order = orders[support] = sorted(
                range(r), key=lambda c: -(supports[c] & support).bit_count()
            )
        for c in order:
            if not mask >> c & 1:
                yield c

    # The current prefix is (prefix, mask, support) with its untried
    # candidates; ``stack`` holds the same for each shorter prefix.
    stack: list[tuple[int, int, Iterator[int]]] = []
    prefix: list[int] = []
    mask = support = 0
    untried = candidates(0, 0)
    nodes = 0
    backtracks = 0
    while True:
        for c in untried:
            if _extends(tables[c], mask) and mask | 1 << c not in dead:
                break
        else:
            if not stack:
                return SearchResult("none", None, nodes, backtracks)
            dead.add(mask)
            mask, support, untried = stack.pop()
            prefix.pop()
            backtracks += 1
            continue
        nodes += 1
        if nodes > budget:
            return SearchResult("unknown", None, nodes, backtracks)
        prefix.append(c)
        if len(prefix) == r:
            ordering = GeneratorOrdering(pg, tuple(prefix), "search")
            return SearchResult("found", ordering, nodes, backtracks)
        stack.append((mask, support, untried))
        mask |= 1 << c
        support |= supports[c]
        untried = candidates(mask, support)


def require_verified(o: GeneratorOrdering, what: str) -> None:
    """Raise OrderingPreconditionError, naming ``what``, unless ``o`` verifies."""
    report = verify_linear_quotients(o)
    if not report.passed:
        w = report.witness
        raise OrderingPreconditionError(
            f"{what} requires a verified linear-quotients order; "
            f"fails at position {w.t} against {w.i} with colon {w.colon!r}"
        )


def _duplicated_rows(o: GeneratorOrdering, x: int) -> list[tuple[int, ...]]:
    """The exponent rows of ``o`` with the new vertex y = n appended, each row
    u followed by its deg_x(u) substitutes u * y^k / x^k, k = 1..deg_x(u)."""
    rows = []
    for row in o.exps().tolist():
        row.append(0)
        rows.append(tuple(row))
        for _ in range(row[x]):
            row[x] -= 1
            row[-1] += 1
            rows.append(tuple(row))
    return rows


def duplication_order(o: GeneratorOrdering, x: int) -> GeneratorOrdering:
    """Extend an order on I(G)^s to one on I(G^x)^s: the rows of
    ``_duplicated_rows``, in the power recomputed from the duplicated graph,
    never transformed syntactically.  The caller verifies both orders.
    """
    pg = o.base
    g = pg.ideal.graph
    pg_x = power_generators(EdgeIdeal(duplicate_vertex(g, x)), pg.q)
    seq = tuple(pg_x.locate(_duplicated_rows(o, x)))
    return GeneratorOrdering(pg_x, seq, "duplication")


def expansion_order(
    o: GeneratorOrdering, x: int, b_order: Sequence[int] | None = None
) -> GeneratorOrdering:
    """Extend an order on I(G)^s to I(G^[x])^s; the caller verifies both.

    With y the new vertex and B = V - N_G[x], mu(u) is the least number of xy
    factors in a factorization of u.  The prefix is the rows of
    ``_duplicated_rows`` (the mu = 0 generators); the new generators follow,
    sorted by (mu, deg on {x,y}, |deg_x - deg_y|, then the B-part
    lexicographically along b_order, largest first).  Those four rules leave
    x/y-mirror ties, broken by larger deg_x then by full exponent-vector lex,
    largest first; the verifier certifies the result, not the proof.
    """
    pg = o.base
    g = pg.ideal.graph
    gexp = expand_vertex(g, x)
    if not is_gapfree(gexp):
        raise NotGapfree(
            f"expansion at vertex {x}: the expanded graph is not gapfree"
        )
    closed = g.nbrs[x] | 1 << x
    B = tuple(b for b in range(g.n) if not closed >> b & 1)
    b_order = B if b_order is None else tuple(int(b) for b in b_order)
    if sorted(b_order) != list(B):
        raise ValueError(f"b_order must be a permutation of B = {B}")
    pg_exp = power_generators(EdgeIdeal(gexp), pg.q)
    xy, y = len(gexp.edges) - 1, g.n  # xy is the last edge of the expansion
    mu = [min(f.count(xy) for f in facs) for facs in pg_exp.factorizations]
    seq = pg_exp.locate(_duplicated_rows(o, x))
    rows = pg_exp.exps.tolist()

    def key(i: int):
        m = rows[i]
        dx, dy = m[x], m[y]
        return (
            mu[i],
            dx + dy,
            abs(dx - dy),
            tuple(-m[b] for b in b_order),
            -dx,
            tuple(-e for e in m),
        )

    seq += sorted((i for i in range(pg_exp.count) if mu[i]), key=key)
    return GeneratorOrdering(pg_exp, tuple(seq), "expansion")
