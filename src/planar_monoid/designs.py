"""Admissible curve collections as combinatorial designs.

A product of twists over non-boundary-parallel convex curves can only be
equivalent to a single-outer-twist boundary product if every pair of
interior labels is enclosed by exactly one factor (the linking matrix
forces this).  The factor supports therefore form a linear space on
m = n-1 points: blocks of size 2..m-1 covering every pair exactly once.

This module enumerates such designs up to symmetry, decides replication
feasibility, builds the generalized daisy relation, and searches block
orderings whose product realizes the full twist.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections.abc import Iterable

from . import braid
from .braid import BraidWord, _Value, nf_mul, normal_form
from .surface import (
    BoundaryWord,
    ConvexCurve,
    Relation,
    SurfaceSpec,
    TwistWord,
    _json_int,
    _json_list,
    _json_object,
    _reject_boundary_parallel,
    swing_word,
)

__all__ = [
    "Design",
    "ReplicationVector",
    "SymmetryMode",
    "PairCoverageError",
    "SearchBudget",
    "SearchResult",
    "from_rhs",
    "replication",
    "exponents_from_design",
    "enumerate_designs",
    "feasible_replication",
    "daisy",
    "search_orderings",
]

ReplicationVector = tuple[int, ...]

# symmetry reduction modes for enumeration
SYMMETRY_MODES = ("labeled", "dihedral", "symmetric")
SymmetryMode = str


class PairCoverageError(ValueError):
    """A pair of labels is enclosed by zero or several factors."""

    def __init__(self, x: int, y: int, count: int):
        self.x, self.y, self.count = x, y, count
        super().__init__(f"pair ({x},{y}) covered {count} times, need exactly 1")


class Design(_Value):
    """Linear space on points 1..m, m >= 3: every pair in exactly one block."""

    __slots__ = ("points", "blocks")

    def __init__(self, points: int, blocks: Iterable[Iterable[int]]):
        m = _json_int(points, "m")
        if m < 3:
            raise ValueError(f"a design needs at least 3 points, got {m}")
        blocks = tuple(sorted(tuple(sorted(_json_int(x, "label") for x in b)) for b in blocks))
        cover: dict[tuple[int, int], int] = {}
        for b in blocks:
            if not 2 <= len(b) <= m - 1:
                raise ValueError(f"block {b} has size outside 2..{m - 1}")
            if b[0] < 1 or b[-1] > m:
                raise ValueError(f"block {b} is not a subset of 1..{m}")
            if len(set(b)) != len(b):
                raise ValueError(f"block {b} repeats a point")
            for x, y in itertools.combinations(b, 2):
                cover[(x, y)] = cover.get((x, y), 0) + 1
        for x in range(1, m + 1):
            for y in range(x + 1, m + 1):
                c = cover.get((x, y), 0)
                if c != 1:
                    raise PairCoverageError(x, y, c)
        self._set(m, blocks)

    def to_json_obj(self) -> dict:
        return {"m": self.points, "blocks": [list(b) for b in self.blocks]}

    @staticmethod
    def from_json_obj(obj: dict) -> "Design":
        """A design file's JSON object {"m": ..., "blocks": [...]}; a missing
        or other key or a non-object raises ValueError."""
        _json_object(obj, "design", ("m", "blocks"), ("m", "blocks"))
        blocks = _json_list(obj["blocks"], "blocks")
        return Design(obj["m"], tuple(tuple(_json_list(b, "block")) for b in blocks))


def from_rhs(word: TwistWord) -> Design:
    """Extract the design underlying an RHS twist word.

    Raises PairCoverageError when the supports cannot belong to any
    relation with a single outer twist, ValueError on boundary-parallel
    factors.
    """
    _reject_boundary_parallel(word)
    return Design(word.surface.n - 1, tuple(c.support for c in word.factors))


def replication(d: Design) -> ReplicationVector:
    """Number of blocks containing each point."""
    counts = [0] * d.points
    for b in d.blocks:
        for x in b:
            counts[x - 1] += 1
    return tuple(counts)


def exponents_from_design(d: Design) -> BoundaryWord:
    """The unique boundary product with matching interior multiplicities."""
    r = replication(d)
    return BoundaryWord(SurfaceSpec(d.points + 1), tuple(x - 1 for x in r), outer=1)


# ---------------------------------------------------------------------------
# exhaustive enumeration (exact cover over the pair columns)

@functools.cache
def _cover_all(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All labeled designs on m points, 3 <= m <= 7, as sorted block tuples.

    Pairs are numbered as bits and each candidate block carries the mask of
    the pairs it covers.  The search always branches on the lowest uncovered
    pair, over the blocks through it that are disjoint from the covered mask,
    so each design is reached exactly once.
    """
    if not 3 <= m <= 7:
        raise ValueError(f"enumeration supported for 3 <= m <= 7, got {m}")
    bit = {p: 1 << i for i, p in enumerate(itertools.combinations(range(1, m + 1), 2))}
    full = (1 << len(bit)) - 1
    # Every pair below the lowest uncovered one is covered, so a block
    # through it that also holds a lower pair clashes anyway: filing each
    # block under its own lowest pair lists only blocks that can fit.
    through: dict[int, list[tuple[int, tuple[int, ...]]]] = {b: [] for b in bit.values()}
    for size in range(2, m):
        for block in itertools.combinations(range(1, m + 1), size):
            mask = sum(bit[p] for p in itertools.combinations(block, 2))
            through[mask & -mask].append((mask, block))

    out: list[tuple[tuple[int, ...], ...]] = []
    partial: list[tuple[int, ...]] = []

    def _walk(covered: int) -> None:
        if covered == full:
            out.append(tuple(sorted(partial)))
            return
        low = ~covered & (covered + 1)
        for mask, block in through[low]:
            if not mask & covered:
                partial.append(block)
                _walk(covered | mask)
                partial.pop()

    _walk(0)
    return tuple(out)


def _generators(m: int, mode: SymmetryMode) -> list[tuple[int, ...]]:
    """Relabelings that generate the mode's group, each as the images of
    1..m: none for "labeled"; the turn i -> i+1 with the reflection
    i -> m+1-i for "dihedral"; the turn with the swap (1 2) for
    "symmetric"."""
    if mode not in SYMMETRY_MODES:
        raise ValueError(f"unknown symmetry mode {mode!r}, want one of {SYMMETRY_MODES}")
    if mode == "labeled":
        return []
    turn = (*range(2, m + 1), 1)
    if mode == "dihedral":
        return [turn, tuple(range(m, 0, -1))]
    return [turn, (2, 1, *range(3, m + 1))]


@functools.cache
def _classes(m: int, mode: SymmetryMode) -> tuple[Design, ...]:
    """The least member of each orbit of the labeled designs on m points
    under the mode's group, in sorted order.

    Each candidate block is named by its rank in the sorted list of all
    blocks, so a design is a sorted tuple of ranks that compares exactly
    like its block tuple.  Each orbit is closed under the generators, one
    relabeling being a lookup per block in the generator's rank table.
    """
    gens = _generators(m, mode)
    labeled = _cover_all(m)
    blocks = sorted(
        b for size in range(2, m) for b in itertools.combinations(range(1, m + 1), size)
    )
    rank = {b: r for r, b in enumerate(blocks)}
    tables = [[rank[tuple(sorted(g[x - 1] for x in b))] for b in blocks] for g in gens]
    seen: set[tuple[int, ...]] = set()
    least = []
    for sol in labeled:
        start = tuple(rank[b] for b in sol)  # sol is sorted, so its ranks are too
        if start in seen:
            continue
        orbit = {start}
        todo = [start]
        while todo:
            d = todo.pop()
            for table in tables:
                image = tuple(sorted([table[r] for r in d]))
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        seen |= orbit
        least.append(min(orbit))
    return tuple(Design(m, tuple(blocks[r] for r in d)) for d in sorted(least))


def enumerate_designs(m: int, mode: SymmetryMode = "dihedral") -> list[Design]:
    """All designs on m points, one canonical representative per orbit.

    Modes: "labeled" (no reduction), "dihedral" (the 2m isometries of the
    convex arrangement), "symmetric" (all m! relabelings).  The
    representative is the least member of its orbit.
    """
    return list(_classes(_json_int(m, "m"), mode))  # checked first: the cache takes 5.0 for 5


@functools.cache
def _multisets(m: int) -> frozenset[tuple[int, ...]]:
    """The sorted replication vectors of the designs on m points; relabeling
    keeps them, so the dihedral classes carry every one."""
    return frozenset(tuple(sorted(replication(d))) for d in _classes(m, "dihedral"))


def feasible_replication(m: int, r: ReplicationVector) -> bool:
    """True iff some design on m points has exactly this replication vector."""
    r = tuple(_json_int(x, "replication") for x in r)
    if len(r) != _json_int(m, "m"):
        raise ValueError(f"replication vector length {len(r)} != {m} points")
    if m < 3:
        return False
    return tuple(sorted(r)) in _multisets(m)


# ---------------------------------------------------------------------------
# the generalized daisy relation

def daisy(n: int, i: int) -> Relation:
    """The generalized daisy relation on the n-holed sphere, split at i.

    LHS: a_1..a_i = n-i-1, a_{i+1}..a_{n-1} = n-3, one outer twist.
    RHS (written order): one twist over {1..i}, then for each j > i the
    pair twists {j,j-1}, {j,j-2}, ..., {j,1}.  The n=4, i=2 instance is
    the lantern relation.
    """
    if _json_int(n, "n") < 4 or not 2 <= _json_int(i, "i") < n - 1:
        raise ValueError(f"need n >= 4 and 2 <= i < n-1, got n={n}, i={i}")
    surface = SurfaceSpec(n)
    lhs = BoundaryWord(surface, tuple([n - i - 1] * i + [n - 3] * (n - 1 - i)), outer=1)
    factors = [ConvexCurve.over(range(1, i + 1))]
    for j in range(i + 1, n):
        for l in range(j - 1, 0, -1):
            factors.append(ConvexCurve.over([l, j]))
    rhs = TwistWord(surface, tuple(factors))
    return Relation(label=f"daisy({n},{i})", lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# ordering search

class SearchBudget(_Value):
    """Limits for search_orderings' one depth-first search.

    exhaustive_cap: max block count searched with no limit, so that the
    count of realizing orderings is exact.
    tries: past the cap, the search checks two limits before each try and
    stops once it has made tries tries or counted tries orderings.  A try
    is one block tried against one product, settled by the search's mask
    test or by a kernel multiply.  A search that ends first is still
    "exhausted"; one that a limit stops reads "budget", and its count is a
    lower bound whose 0 proves nothing.
    Both are plain ints (not bools) and neither may be negative.  seed is
    accepted for callers that still pass it and is checked to be an int,
    but it is not stored: the search draws nothing at random, so budgets
    that search alike compare equal.
    """

    __slots__ = ("exhaustive_cap", "tries")

    def __init__(self, exhaustive_cap: int = 8, tries: int = 2000, seed: int = 0):
        for name, value in (("exhaustive_cap", exhaustive_cap), ("tries", tries), ("seed", seed)):
            _json_int(value, name)
        if exhaustive_cap < 0:
            raise ValueError(f"exhaustive_cap must be >= 0, got {exhaustive_cap}")
        if tries < 0:
            raise ValueError(f"tries must be >= 0, got {tries}")
        self._set(exhaustive_cap, tries)


class SearchResult(_Value):
    """How many orderings of a design's blocks realize the full twist.

    status "exhausted": orderings_found is exact, and 0 is a proof of
    non-realizability.  status "budget": the search stopped at a limit, and
    orderings_found is a lower bound: every ordering counted realizes, but
    0 proves nothing.  orderings is the sorted tuple of the counted ones if
    the search listed them, else None; completeness audits count without
    listing, so their entries hold None.
    """

    __slots__ = ("design", "orderings_found", "status", "orderings")

    def __init__(
        self, design: Design, orderings_found: int, status: str, orderings: tuple | None = None
    ):
        if orderings is not None and len(orderings) != orderings_found:
            raise ValueError(f"count {orderings_found} but {len(orderings)} orderings listed")
        self._set(design, orderings_found, status, orderings)

    def to_json_obj(self) -> dict:
        return {
            "design": self.design.to_json_obj(),
            "orderings_found": self.orderings_found,
            "status": self.status,
        }


@functools.lru_cache(maxsize=512)  # every block on up to 7 points is 213 forms
def _block_nf(table: braid._NonCrossing, block: tuple[int, ...]) -> tuple[int, ...]:
    """The ids of `table` in the dual normal form (`normal_form`) of the
    mirror (every letter's sign flipped) of the swing over block on table.m
    strands.

    The form is kept per key, so each is built once per table: callers pass
    the table as it stands at call time, so a fresh table builds the forms
    anew.  The search's bound and its mask test rest on the form being
    delta_S^|S|, of infimum 0 and |S| equal factors; a form that is not
    raises AssertionError and is not kept, so the premise is checked once
    for every block searched.
    """
    swing = swing_word(ConvexCurve.over(block), SurfaceSpec(table.m + 1))
    form = normal_form(BraidWord(table.m, tuple(-k for k in swing.letters)))
    if form[0] != 0 or len(form[1]) != len(block) or len(set(form[1])) != 1:
        raise AssertionError(f"mirrored swing over {block} is not a dual simple power: {form}")
    return form[1]


def search_orderings(
    d: Design, budget: SearchBudget = SearchBudget(), *, listed: bool = True
) -> SearchResult:
    """Count the block orderings whose twist product equals the full twist,
    and list them when `listed`.

    Orderings are reported in written order (last block applied first).
    One depth-first search serves every design.  Up to
    budget.exhaustive_cap blocks it runs to the end and the count is exact.
    Past the cap it checks two limits before each try, one block tried
    against one product, and stops once it has spent budget.tries tries or
    counted budget.tries orderings.  If it ends first the status is still
    "exhausted" and the count exact; if a limit stops it the status is
    "budget" and the count is a lower bound, whose 0 proves nothing.  With
    listed=False the same tries give the same count, and orderings is None;
    completeness_check keeps each such result as it stands as an audit
    entry.

    The search fixes the block applied first, the head, and counts from
    it.  This is sound because the full twist is central: if b.w is the
    full twist, so is w.b = b^-1 (b.w) b.  The realizing application orders
    are therefore closed under cyclic rotation, and since the blocks are
    distinct each of them has exactly one rotation that starts with the
    head, so the count is the number of blocks times the head's
    completions.  Any block would do; the head is the first largest one.
    Its mirror is delta_S^|S|, of supremum |S|, the largest of any block, so
    it leaves the least room under the sup bound below and products fail
    soonest.  The other blocks are tried in d.blocks order.  The memo maps
    each product to its number of completions and its live edges, the
    (block, next product) pairs with a completion; a product already in
    the memo adds its count with no multiply, and listing walks the live
    edges from the head, with no multiply.  The memo starts with delta^m
    and its one empty completion, so the last multiply of a realizing
    order is a memo hit like any other (only the product of every block
    has the atoms of delta^m; see the seed).  A search stopped by a limit
    stores each open product's partial entry as it unwinds, so the count
    and the listing cover the same orderings, each of which realizes.
    Every block's mirrored form is built once per table of simples
    (_block_nf) and shared by every search after.

    The search multiplies mirrors (every letter's sign flipped) in normal
    forms of the dual Garside structure of Birman-Ko-Lee (1998).  Mirroring
    is an automorphism, so a product of mirrors is the mirror of the
    product, and the mirror of the full twist is delta^m.  The search rests
    on one fact, which _block_nf checks for every block it builds: the
    mirror of a block's swing is delta_S^|S| for its support S, so every
    block is dual-positive.  A prefix of a realizing order times the
    positive product of the rest is delta^m, so the prefix left-divides
    delta^m: its dual supremum (infimum + canonical length) is at most m.
    A product is held as the kernel's left-weighted id tuple, deltas in
    front, whose length is its supremum, and is multiplied by a block in
    one call of the Garside kernel, nf_mul, with the limit m.  No
    tau conjugation is needed, since every block form has infimum 0, and
    the kernel returns None unfinished as soon as the product's supremum
    passes m; such a product has no completion and is dropped before it
    reaches the memo.  The head is not checked, but a positive factor
    never lowers the supremum, so every product through a failing one
    fails its own step.

    Most failed multiplies are settled before the kernel by one mask test,
    by this lemma.  Let acc have r factors, the last one a, and let a block
    over S, k = |S|, have the form delta_S^k, each factor delta_S.  The
    kernel deletes an appended factor only at its first slide step, and
    only when it is below da = a^-1.delta.  If delta_S is not below da, the
    last slot keeps a non-identity divisor rho of delta_S, and the next
    delta_S could be absorbed only if rho.delta_S were simple.  It is not:
    a simple's reflection length is its atom count, k - 1 + (that of rho)
    here, but rho.delta_S lies in Sym(S), where the length is at most
    k - 1.  The same holds at each later factor, so each of the k factors
    adds one and sup(acc.delta_S^k) = r + k.  delta_S is below da iff
    every pair joined by delta_S is joined by da, and masks[a] holds the
    pairs da joins.  So a block with r + k > m whose first factor joins a
    pair outside masks[a] passes delta^m, and is skipped as a failed
    multiply.  A skipped block still counts as a try, so every status,
    count and listing is the one the kernel alone gives.
    """
    m = d.points
    table = braid._dual_simples(m)
    head = max(d.blocks, key=len)
    k = len(d.blocks)
    if k <= budget.exhaustive_cap:
        tries = need = sys.maxsize  # no limit is ever reached
    else:
        tries = budget.tries
        need = -(-tries // k)  # head completions that make tries orderings
    spent = found = 0  # tries made; head completions counted
    stopped = False

    # memo: partial product -> (completions, live edges).  The product
    # alone fixes the blocks it used: every swing is pure and moves the
    # linking number of exactly its own pairs by the same unit, and each
    # pair lies in exactly one block, so the linking numbers of acc
    # (invariants of the braid) name the used blocks, hence remaining.
    # delta^m, the mirror of the full twist, has one empty completion.  Atoms
    # add up under multiplication of positive braids, a block's form
    # delta_S^|S| has |S|(|S| - 1) of them, and the blocks partition the
    # pairs, so only the product of every block has the m(m - 1) atoms of
    # delta^m: no earlier product hits its entry, and a last product kept
    # under supremum m (m simples of at most m - 1 atoms) is delta^m.
    memo: dict[tuple[int, ...], tuple[int, tuple]] = {(table.delta,) * m: (1, ())}
    dead = (0, ())  # the one entry of every product with no completion

    # The depth-first search keeps its own stack, so a design of any block
    # count stays within the interpreter's recursion limit.  A frame is the
    # product acc, the blocks remaining, the index i of the next one to
    # try, and the completions and live edges found so far; parents holds
    # the suspended frames and the block that led from each.  A remaining
    # block is (block, form, the pairs its first factor joins, m - |S|),
    # and a frame's r and room are acc's length and the pairs that the
    # complement of acc's last factor does not join, for the lemma's test.
    start = _block_nf(table, head)
    forms = [(b, _block_nf(table, b)) for b in d.blocks if b != head]
    remaining = tuple((b, form, table.starts[form[0]], m - len(form)) for b, form in forms)
    acc, i, total, live = start, 0, 0, []
    parents: list[tuple] = []
    while True:
        n = len(remaining)
        r = len(acc)
        room = ~table.masks[acc[-1]]
        while i < n and spent < tries and found < need:
            b, form, first, slack = remaining[i]
            i += 1
            spent += 1
            if r > slack and first & room:  # passes delta^m, by the lemma
                continue
            state = nf_mul(table, acc, form, m)
            if state is None:
                continue
            hit = memo.get(state)
            if hit is None:  # descend: suspend this frame, open the next
                parents.append((acc, remaining, i, total, live, b))
                acc, remaining = state, remaining[:i - 1] + remaining[i:]
                i = total = 0
                live = []
                break
            below = hit[0]
            found += below
            if not below:
                continue
            total += below
            live.append((b, state))
        else:
            # the frame is done, or a limit stopped it before its last block
            stopped = stopped or i < n
            memo[acc] = (total, tuple(live)) if live else dead
            if not parents:
                break
            below, state = total, acc
            acc, remaining, i, total, live, b = parents.pop()
            if below:
                total += below
                live.append((b, state))
    total *= k
    status = "budget" if stopped else "exhausted"
    if not listed:
        return SearchResult(d, total, status)
    orderings: list[tuple[tuple[int, ...], ...]] = []
    todo = [(start, (head,))]
    while todo:  # walk the live edges from the head
        acc, seq = todo.pop()
        if len(seq) == k:
            orderings.extend(tuple(reversed(seq[i:] + seq[:i])) for i in range(k))
        else:
            todo.extend((state, seq + (b,)) for b, state in memo[acc][1])
    return SearchResult(d, total, status, tuple(sorted(orderings)))
