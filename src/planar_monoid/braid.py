"""Exact braid group computation on m strands.

Words are sequences of signed Artin generator indices in *application order*:
``letters[0]`` acts first.  Equality is decided two independent ways:

* the left-greedy normal form of the dual (Birman-Ko-Lee) Garside
  structure (the canonical engine; normal forms are hashable and double as
  memoization keys).  Its simple elements are the non-crossing partitions,
  and its Garside element delta has delta^m = Delta^2, so the infimum of a
  normal form is a power of delta and the full twist is delta^-m.  One
  kernel, `_left_weighted`, appends simple factors one at a time to a
  left-weighted prefix.  Simple factors are interned as small ints with
  starting- and finishing-set bitmasks, and the kernel works on those ids
  only: each pair that is not left-weighted is replaced by its
  left-weighted pair of ids from one lazily filled table per strand count.
  `_dual_normal_form` and `_dual_mul` give normal forms as private
  (infimum, ids) tuples, which the ordering search multiplies, `_dual_mul`
  stopping with None at an optional supremum bound;
  `normal_form` and `nf_mul` wrap them as `NormalForm`s; and
* the Lawrence-Krammer representation over Z[q^{+-1}, t^{+-1}] (a faithful
  cross-check oracle with exact arithmetic).  `lk_equal` decides a = b as
  "the freely and cyclically reduced word a.b^-1 = u.v^-1 is the
  identity": u and v grow from the identity, each step on whichever side
  holds fewer terms, until they meet and are compared.  Each full twist
  or inverse that the free reduction finds spelled out is taken out of
  the word and u starts at its image instead, the central scalar
  q^-2m t^-2 to the power found; `_lk_check` verifies that image once
  per strand count, so the verdict stays exact.  A matrix is one
  sparse dict per column, its keys packed with strides sized to the word.
  A generator entry is a monomial shift times a coefficient tuple, and
  one cached builder, `_lk_letter`, packs each letter per t-stride.

Simple elements are stored internally as 0-indexed permutations, interned
per strand count; the public `Permutation` type is 1-indexed to match
boundary-component labels.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BraidWord",
    "Permutation",
    "NormalForm",
    "LinkingMatrix",
    "compose",
    "invert",
    "permutation",
    "linking_matrix",
    "normal_form",
    "nf_mul",
    "equals",
    "full_twist",
    "lk_equal",
]


def _json_int(value, what: str) -> int:
    """An integer from a file, a constructor or an argument; floats, strings
    and booleans raise."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


_setattr = object.__setattr__  # _Value._set stores each field past _Value.__setattr__


class _Value:
    """Immutable slotted value: equal only to its own class with equal
    fields, hashed by them, shown as Name(field=value, ...) and pickled
    through the constructor.  A subclass names its fields in __slots__,
    checks its arguments in __init__ and stores them with _set.  The methods
    are written once here: methods generated per class compile at every start.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    @property
    def __dict__(self) -> dict:
        """The fields by name, in a new dict; vars() reads it too."""
        return dict(zip(self.__slots__, self._fields()))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class BraidWord(_Value):
    """A word in the Artin generators sigma_1 .. sigma_{m-1}.

    Letter k (1 <= k < strands) is sigma_k, letter -k its inverse.
    letters[0] is applied first.
    """

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: Iterable[int] = ()):
        if _json_int(strands, "strand count") < 1:
            raise ValueError(f"strand count must be positive, got {strands}")
        letters = tuple(letters)
        for letter in letters:
            if type(letter) is not int or letter == 0 or abs(letter) >= strands:
                _json_int(letter, "letter")  # a non-int raises here
                raise ValueError(f"letter {letter} out of range for {strands} strands")
        self._set(strands, letters)

    def __len__(self) -> int:
        return len(self.letters)


class Permutation(_Value):
    """Bijection on {1..m}; images[i] is the image of i+1."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(_json_int(x, "image") for x in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection on 1..{len(images)}: {images}")
        self._set(images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))


class LinkingMatrix(_Value):
    """Pairwise strand linking numbers, stored exactly as doubled integers.

    doubled[x][y] is twice the linking number of the strands that *start*
    at positions x+1 and y+1 (i.e. the signed crossing count itself).
    """

    __slots__ = ("strands", "doubled")

    def __init__(self, strands: int, doubled: tuple[tuple[int, ...], ...]):
        self._set(strands, doubled)

    def entry(self, x: int, y: int) -> Fraction:
        """Linking number of strands x and y (1-indexed)."""
        from fractions import Fraction  # here, not at the top: nothing else needs it

        return Fraction(self.doubled[x - 1][y - 1], 2)


class NormalForm(_Value):
    """Dual (Birman-Ko-Lee) left normal form delta^infimum . F_1 ... F_r.

    The infimum is a power of delta, the Garside element with delta^m =
    Delta^2, so `full_twist(m)` is delta^-m.  Factors are dual simple
    elements (non-crossing partitions, see `_NonCrossing`), applied left to
    right, none equal to the identity or to delta, and every adjacent pair
    left-weighted.  A normal form holds its factors as ids interned in the
    strand count's table (`_dual_simples`); equality and hashing compare
    (strands, infimum, ids), so equal braids are equal normal forms.
    `factors` gives the simples as 0-indexed permutations.

    The constructor takes permutations, checks that they are canonical
    before interning any, and interns them.  The kernel builds its results
    from ids with `_from_ids`.  Ids mean something only inside one process,
    so a normal form pickles through its permutations.
    """

    __slots__ = ("strands", "infimum", "_ids")

    def __init__(self, strands: int, infimum: int, factors: Iterable[Sequence[int]]):
        if _json_int(strands, "strand count") < 1:
            raise ValueError(f"strand count must be positive, got {strands}")
        _json_int(infimum, "infimum")
        factors = tuple(tuple(f) for f in factors)
        table = _dual_simples(strands)
        ident, delta = table.perm[table.ident], table.perm[table.delta]
        for f in factors:
            if sorted(f) != list(ident):
                raise ValueError(f"factor {f} is not a permutation of 0..{strands - 1}")
            # p is a non-crossing simple iff it lies below delta in the
            # absolute order: cycles(p) + cycles(p^-1.delta) = m + 1
            if len({*_block_labels(f)}) + len({*_block_labels(_left_complement(f))}) != strands + 1:
                raise ValueError(f"factor {f} is not a non-crossing partition")
            if f == ident or f == delta:
                raise ValueError(f"factor {f} is the identity or delta")
        for a, b in zip(factors, factors[1:]):
            if _shared_pairs(_left_complement(a)) & _shared_pairs(b):
                raise ValueError(f"factors {a}, {b} are not left-weighted")
        self._set(strands, infimum, tuple(map(table.intern, factors)))

    def __repr__(self) -> str:
        return f"NormalForm(strands={self.strands}, infimum={self.infimum}, factors={self.factors})"

    def __reduce__(self):
        return NormalForm, (self.strands, self.infimum, self.factors)

    @property
    def factors(self) -> tuple[tuple[int, ...], ...]:
        """The factors as 0-indexed permutations."""
        return tuple(map(_dual_simples(self.strands).perm.__getitem__, self._ids))

    def canonical_length(self) -> int:
        return len(self._ids)

    def is_identity(self) -> bool:
        return self.infimum == 0 and not self._ids

    def to_word(self) -> BraidWord:
        """Re-expand to a braid word (delta power first, then the factors)."""
        m = self.strands
        table = _dual_simples(m)
        delta_letters = _dual_simple_letters(table.perm[table.delta])
        if self.infimum >= 0:
            letters = delta_letters * self.infimum
        else:
            letters = [-k for k in reversed(delta_letters)] * -self.infimum
        for f in self.factors:
            letters += _dual_simple_letters(f)
        return BraidWord(m, tuple(letters))


def _from_ids(strands: int, infimum: int, ids: tuple[int, ...]) -> NormalForm:
    """The normal form with these interned factor ids, taken as canonical."""
    nf = object.__new__(NormalForm)
    nf._set(strands, infimum, ids)
    return nf


# ---------------------------------------------------------------------------
# permutation helpers (0-indexed image tuples)

@functools.cache
def _ident(m: int) -> tuple[int, ...]:
    return tuple(range(m))


def _pinv(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


# ---------------------------------------------------------------------------
# the dual (Birman-Ko-Lee) Garside structure
#
# Generators a_ts = (s_{t-1}..s_{s+1}) s_s (s_{t-1}..s_{s+1})^-1 for s < t,
# Garside element delta = s_{m-1}..s_1 with delta^m = Delta^2.  The simple
# elements are the non-crossing partitions of the m points on a circle: a
# block s_1 < .. < s_k is a_{s_k s_{k-1}}..a_{s_2 s_1}, and left (or right)
# divisibility is refinement.  A simple is named by its permutation, which
# sends each point to the next larger point of its block and the largest
# back to the smallest; delta is i -> i+1 mod m.  Permutations here follow
# `permutation`: the word u.v has the permutation "u's, then v's".


def _block_perm(labels: Sequence) -> tuple[int, ...]:
    """The simple of the partition into points of equal label."""
    first: dict = {}
    last: dict = {}
    out = list(range(len(labels)))
    for i, label in enumerate(labels):
        if label in last:
            out[last[label]] = i
        else:
            first[label] = i
        last[label] = i
    for label, i in last.items():
        out[i] = first[label]
    return tuple(out)


def _block_labels(p: Sequence[int]) -> list[int]:
    """Each point labeled by the least point of its cycle of p."""
    labels = [-1] * len(p)
    for i in range(len(p)):
        if labels[i] < 0:
            j = i
            while labels[j] < 0:
                labels[j] = i
                j = p[j]
    return labels


def _shared_pairs(p: Sequence[int]) -> int:
    """Bitmask of the pairs i < j in one cycle of p, pair (i, j) at bit i*m + j."""
    m = len(p)
    labels = _block_labels(p)
    return sum(
        1 << (i * m + j) for i in range(m) for j in range(i + 1, m) if labels[i] == labels[j]
    )


def _left_complement(p: Sequence[int]) -> tuple[int, ...]:
    """The permutation of p^-1 . delta."""
    m = len(p)
    inv = _pinv(p)
    return tuple((inv[i] + 1) % m for i in range(m))


def _rotate(p: Sequence[int], c: int) -> tuple[int, ...]:
    """The permutation of tau^c(p), tau(x) = delta.x.delta^-1: the
    partition turned c points back round the circle."""
    m = len(p)
    return tuple((p[(i + c) % m] - c) % m for i in range(m))


def _dual_simple_letters(p: Sequence[int]) -> list[int]:
    """A positive word (applied left to right) for the dual simple p: each
    block s_1 < .. < s_k, 1-indexed, as a_{s_k s_{k-1}}..a_{s_2 s_1}."""
    blocks: dict[int, list[int]] = {}
    for i, label in enumerate(_block_labels(p)):
        blocks.setdefault(label, []).append(i + 1)
    out: list[int] = []
    for block in blocks.values():
        for t, s in zip(block[:0:-1], block[-2::-1]):
            mid = range(t - 1, s, -1)
            out += [*mid, s, *(-k for k in reversed(mid))]
    return out


class _NonCrossing:
    """The dual simple elements on m strands met so far, interned as ints.

    Ids are the kernel's only currency.  For each id x: `perm[x]` is its
    permutation, `starts[x]` the mask of the pairs that share a block of x,
    `finishes[x]` the complement of that mask for the left complement
    dx = x^-1.delta, so a pair (a, b) is left-weighted iff no pair shares a
    block of both da and b, that is, iff the meet da ^ b is the identity.
    `pairs` maps a pair that is not left-weighted, keyed a * size + b with
    size = Catalan(m) bounding every id, to the left-weighted pair
    (a.c, c^-1.b), c = da ^ b; `slide` fills a miss.  `taus` maps (x, c)
    to the id of tau^c(x) and `letters` (k, c) to the id of tau^c of
    letter k's factor, both filled on a miss.  Only the simples met are
    interned, so large m costs only what is used.
    """

    __slots__ = ("m", "size", "full", "ids", "perm", "starts", "finishes", "pairs", "taus", "ident", "delta", "letters")

    def __init__(self, m: int):
        delta = tuple((i + 1) % m for i in range(m))
        self.m = m
        self.size = math.comb(2 * m, m) // (m + 1)
        self.full = _shared_pairs(delta)
        self.ids: dict[tuple[int, ...], int] = {}
        self.perm: list[tuple[int, ...]] = []
        self.starts: list[int] = []
        self.finishes: list[int] = []
        self.pairs: dict[int, tuple[int, int]] = {}
        self.taus: dict[int, int] = {}
        self.letters: dict[int, int] = {}
        self.ident = self.intern(_ident(m))
        self.delta = self.intern(delta)

    def intern(self, p: tuple[int, ...]) -> int:
        x = self.ids.get(p)
        if x is None:
            x = self.ids[p] = len(self.perm)
            self.perm.append(p)
            self.starts.append(_shared_pairs(p))
            self.finishes.append(self.full & ~_shared_pairs(_left_complement(p)))
        return x

    def tau(self, x: int, c: int) -> int:
        """The id of tau^c(x), tau(x) = delta.x.delta^-1."""
        c %= self.m
        if not c:
            return x
        key = x * self.m + c
        y = self.taus.get(key)
        if y is None:
            y = self.taus[key] = self.intern(_rotate(self.perm[x], c))
        return y

    def letter(self, k: int, c: int) -> int:
        """The id of tau^c(sigma_k) for k > 0, and for k < 0 of
        tau^c(u), sigma_|k|^-1 = delta^-1.u with u = tau(d sigma_|k|)."""
        key = k * self.m + c % self.m
        x = self.letters.get(key)
        if x is None:
            i = abs(k) - 1
            p = list(_ident(self.m))
            p[i], p[i + 1] = i + 1, i
            if k < 0:
                p, c = _left_complement(p), c + 1
            x = self.letters[key] = self.tau(self.intern(tuple(p)), c)
        return x

    def slide(self, a: int, b: int) -> tuple[int, int]:
        """The left-weighted pair (a.c, c^-1.b) for (a, b), computed and
        stored.  c = da ^ b is the partition meet: its blocks are the
        non-empty intersections of a block of da and a block of b."""
        pa, pb = self.perm[a], self.perm[b]
        c = _block_perm(list(zip(_block_labels(_left_complement(pa)), _block_labels(pb))))
        c_inv = _pinv(c)
        v = self.pairs[a * self.size + b] = (
            self.intern(tuple(c[j] for j in pa)),
            self.intern(tuple(pb[j] for j in c_inv)),
        )
        return v


@functools.cache
def _dual_simples(m: int) -> _NonCrossing:
    return _NonCrossing(m)


def _left_weighted(
    table: _NonCrossing, prefix: Iterable[int], factors: Iterable[int], limit: int = sys.maxsize
) -> tuple[int, tuple[int, ...]] | None:
    """Append simple factors to a left-weighted, delta-free prefix, all as
    ids of one strand count's table.

    Each factor is slid left pair by pair until a pair is already
    left-weighted; a factor slid down to the identity is dropped.  A pair
    (a, b) is left-weighted iff starts[b] is contained in finishes[a];
    otherwise it is replaced by its left-weighted pair from the table, one
    lookup per pair.  Returns (power of delta stripped from the front,
    left-weighted id tuple), or None as soon as the factors so far number
    more than `limit`: their count is the supremum of a positive product,
    and sup(xy) >= sup(x) for positive y, so the full product would too.
    """
    starts, finishes, pairs, size = table.starts, table.finishes, table.pairs, table.size
    ident = table.ident
    fs = list(prefix)
    if len(fs) > limit:
        return None
    for b in factors:
        if b == ident:
            continue
        j = len(fs)
        fs.append(b)
        while j:
            a = fs[j - 1]
            if not starts[b] & ~finishes[a]:
                break
            v = pairs.get(a * size + b)
            if v is None:
                v = table.slide(a, b)
            a, b = v
            fs[j - 1] = a
            if b == ident:
                del fs[j]
            else:
                fs[j] = b
            j -= 1
            b = a
        if len(fs) > limit:
            return None
    delta = table.delta
    k = 0
    while k < len(fs) and fs[k] == delta:
        k += 1
    return k, tuple(fs[k:])


# ---------------------------------------------------------------------------
# public word algebra

def compose(a: BraidWord, b: BraidWord) -> BraidWord:
    """The braid 'apply b first, then a' (function composition order)."""
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} != {b.strands}")
    return BraidWord(a.strands, b.letters + a.letters)


def invert(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands, tuple(-k for k in reversed(w.letters)))


def permutation(w: BraidWord) -> Permutation:
    """Underlying strand permutation: start position -> end position."""
    occupant = list(range(w.strands))  # occupant[pos] = strand that started at pos
    for letter in w.letters:
        i = abs(letter) - 1
        occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
    images = [0] * w.strands
    for pos, strand in enumerate(occupant):
        images[strand] = pos + 1
    return Permutation(tuple(images))


def linking_matrix(w: BraidWord) -> LinkingMatrix:
    m = w.strands
    doubled = [[0] * m for _ in range(m)]
    occupant = list(range(m))
    for letter in w.letters:
        i = abs(letter) - 1
        x, y = occupant[i], occupant[i + 1]
        sign = 1 if letter > 0 else -1
        doubled[x][y] += sign
        doubled[y][x] += sign
        occupant[i], occupant[i + 1] = y, x
    return LinkingMatrix(m, tuple(tuple(row) for row in doubled))


def _dual_normal_form(w: BraidWord) -> tuple[int, tuple[int, ...]]:
    """The dual left normal form delta^infimum . F_1 ... F_r of w, as
    (infimum, ids of `_dual_simples(w.strands)`).

    Each sigma_k^-1 is delta^-1 . tau(d sigma_k); moving the delta^-1
    markers to the front conjugates each factor by tau once per marker
    right of it.
    """
    m = w.strands
    table = _dual_simples(m)
    negatives = sum(1 for k in w.letters if k < 0)
    c = negatives  # delta^-1 markers right of the letter
    factors = []
    for k in w.letters:
        if k < 0:
            c -= 1
        factors.append(table.letter(k, c))
    extra, ids = _left_weighted(table, (), factors)
    return extra - negatives, ids


def _dual_mul(
    m: int, a: tuple[int, tuple[int, ...]], b: tuple[int, tuple[int, ...]], sup: int | None = None
) -> tuple[int, tuple[int, ...]] | None:
    """Dual normal form of 'a then b' on m strands: delta^p A . delta^q B
    = delta^(p+q) tau^-q(A) B.  With `sup`, None as soon as the supremum
    passes it: the kernel stops once tau^-q(A) B has over sup - p - q factors."""
    table = _dual_simples(m)
    (inf_a, ids_a), (inf_b, ids_b) = a, b
    inf = inf_a + inf_b
    prefix = [table.tau(x, -inf_b) for x in ids_a] if inf_b % m else ids_a
    found = _left_weighted(table, prefix, ids_b, sys.maxsize if sup is None else sup - inf)
    if found is None:
        return None
    return inf + found[0], found[1]


def normal_form(w: BraidWord) -> NormalForm:
    """The dual left normal form of w."""
    return _from_ids(w.strands, *_dual_normal_form(w))


def nf_mul(a: NormalForm, b: NormalForm) -> NormalForm:
    """Normal form of the concatenation 'a then b'."""
    m = a.strands
    if m != b.strands:
        raise ValueError(f"strand counts differ: {m} != {b.strands}")
    return _from_ids(m, *_dual_mul(m, (a.infimum, a._ids), (b.infimum, b._ids)))


def equals(a: BraidWord, b: BraidWord) -> bool:
    """True iff a and b represent the same element of the braid group."""
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} != {b.strands}")
    return normal_form(a) == normal_form(b)


def full_twist(m: int) -> BraidWord:
    """The central full twist on m strands, signed so every pair links -1."""
    if _json_int(m, "strand count") < 1:
        raise ValueError("strand count must be positive")
    block = [-k for k in range(1, m)]
    return BraidWord(m, tuple(block * m))


# ---------------------------------------------------------------------------
# Lawrence-Krammer oracle
#
# Basis x_{s,t} for 1 <= s < t <= m, dimension m(m-1)/2.  Matrices act by
# columns; a word's matrix is the product of its generator matrices in word
# order, which is an (anti)isomorphic copy of the usual representation and
# equally faithful.
#
# Column layout: a column is one dict holding only its non-zero terms.  A
# generator entry is written in closed form (_lk_column) as a monomial shift
# times a coefficient tuple, and one cached builder (`_lk_letter`) packs it
# per layout, with strides sized to the word: each letter moves a q-degree
# by -2 .. +m and a t-degree by -1 .. +1, so a matrix of at most l letters
# has q in [-2l, m*l] and t in [-l, l].  The term c q^a t^b of row r sits
# under the key r * rowstride + a * tstride + b, with tstride = 2l + 1 and
# rowstride covering the whole q range (`_lk_layout`): the key is
# one-to-one, and adding a generator term's packed degrees to it never
# changes its row.  lk_equal takes l as the least power of two above its
# reduced length plus the letters of the full twists it stripped (the
# twist's scalar moves q and t no further than its letters would), so there
# is no length limit, few layouts are ever packed, and catalog words keep
# every key below 2^30, a single CPython digit.  A
# generator entry that several columns read (as (q-1)^2 on x_{i,i+1} under
# sigma_i) is built once per letter as a product in a slot past the
# columns, and each reader adds it at its own shift; by linearity the packed
# sums are those of the entries added one by one.


@functools.cache
def _lk_basis(m: int) -> tuple[tuple[tuple[int, int], ...], dict[tuple[int, int], int]]:
    pairs = tuple((s, t) for s in range(1, m + 1) for t in range(s + 1, m + 1))
    return pairs, {p: idx for idx, p in enumerate(pairs)}


# A closed-form entry (q_shift, t_shift, coeffs) is
# t^t_shift q^q_shift (c0 + c1 q + ...), with c0 != 0.
def _lk_column(s: int, t: int, i: int):
    """Column x_{s,t} of sigma_i as {row pair: entry}; None for a unit column."""
    if i < s - 1 or i > t:
        return None
    if i == s - 1:
        return {(s - 1, t): (0, 0, (1,)), (s, t): (0, 0, (1, -1))}
    if i == s and s == t - 1:
        return {(s, t): (2, 1, (1,))}  # t q^2
    if i == s:
        return {(s, s + 1): (1, 1, (-1, 1)), (s + 1, t): (1, 0, (1,))}
    if i < t - 1:
        return {(s, t): (0, 0, (1,)), (i, i + 1): (i - s, 1, (1, -2, 1))}
    if i == t - 1:
        return {(s, t - 1): (0, 0, (1,)), (t - 1, t): (t - s, 1, (-1, 1))}
    return {(s, t): (0, 0, (1, -1)), (s, t + 1): (1, 0, (1,))}  # i == t


# sigma_i^-1 is written in closed form like sigma_i; _lk_check verifies
# G.G^-1 = G^-1.G = I for every generator before a word on m strands is used.
def _lk_inverse_column(s: int, t: int, i: int):
    """Column x_{s,t} of sigma_i^-1 as {row pair: entry}; None for a unit column."""
    if s > i + 1 or t < i:
        return None
    if (s, t) == (i, i + 1):
        return {(i, i + 1): (-2, -1, (1,))}  # t^-1 q^-2
    if s == i + 1:
        return {(i, i + 1): (-2, 0, (1, -1)), (i, t): (-1, 0, (1,))}
    if s == i:
        return {
            (i, i + 1): (-2, 0, (-1, 2, -1)),  # -q^-2 (q-1)^2
            (i, t): (-1, 0, (-1, 1)),
            (i + 1, t): (0, 0, (1,)),
        }
    if t > i + 1:
        return {(s, t): (0, 0, (1,)), (i, i + 1): (i - s - 2, 0, (-1, 2, -1))}
    if t == i + 1:
        return {
            (s, i): (-1, 0, (1,)),
            (s, i + 1): (-1, 0, (-1, 1)),
            (i, i + 1): (i - s - 2, 0, (-1, 2, -1)),
        }
    return {(s, i + 1): (0, 0, (1,)), (i, i + 1): (i - s - 1, 0, (1, -1))}  # t == i


def _lk_layout(m: int, length: int) -> tuple[int, int]:
    """(tstride, rowstride) keeping keys one-to-one for matrices of at most
    `length` letters on m strands: t in [-length, length] and q in
    [-2 length, m length]."""
    tstride = 2 * length + 1
    return tstride, ((m + 2) * length + 1) * tstride


@functools.cache
def _lk_letter(m: int, letter: int, tstride: int):
    """The non-identity columns of the (possibly inverse) generator matrix,
    packed for this t-stride, as (number of shared products, steps), each
    step (col_j, row_k0, key_shift, ((row_k, ((key_shift, coeff), ...)), ...), in_place).

    Every such column has exactly one entry that is a monomial with
    coefficient 1; it is pulled out as row_k0 and its packed shift.  Each
    other entry q^a t^b P col_k is a shift a * tstride + b times a base
    polynomial P whose first term sits at degree 0.  A column whose monic
    entry is 1 on its own row is updated in place (`in_place`) when no
    other column reads that row.  An entry (k, P) that two or more columns
    read is a shared product p: an in-place step on the empty slot dim + p
    past the dim columns, listed before every column, and each reading
    column adds that slot with its own shift and coefficient 1.  An entry
    read once stays inline.  lk_equal and _lk_check ask only for
    power-of-two lengths, so few are kept."""
    column = _lk_column if letter > 0 else _lk_inverse_column
    pairs, index = _lk_basis(m)
    active = []
    rows: dict[int, int] = {}  # row -> how many columns read it
    reads: dict = {}  # (row, base) -> how many columns read it
    for j, (s, t) in enumerate(pairs):
        col = column(s, t, abs(letter))
        if col is None:
            continue
        entries = sorted((index[p], dq * tstride + dt, coeffs) for p, (dq, dt, coeffs) in col.items())
        # the unpacking raises unless exactly one entry is a monic monomial
        [(k0, shift)] = [(k, dk) for k, dk, coeffs in entries if coeffs == (1,)]
        rest = []
        for k, dk, coeffs in entries:
            rows[k] = rows.get(k, 0) + 1
            if k != k0:
                base = tuple((e * tstride, c) for e, c in enumerate(coeffs))
                rest.append((k, dk, base))
                reads[k, base] = reads.get((k, base), 0) + 1
        active.append((j, k0, shift, rest))
    dim = len(pairs)
    slot = {entry: dim + p for p, entry in enumerate(e for e, n in reads.items() if n > 1)}
    products = tuple((p, p, 0, (entry,), True) for entry, p in slot.items())
    return len(slot), products + tuple(
        (j, k0, shift, tuple(
            (slot[k, base], ((dk, 1),)) if (k, base) in slot else (k, tuple((dk + d, c) for d, c in base))
            for k, dk, base in rest
        ), k0 == j and shift == 0 and rows[j] == 1)
        for j, k0, shift, rest in active
    )


def _lk_apply(cols: list[dict], gen) -> None:
    """In-place right multiplication by a generator matrix packed by
    `_lk_letter`.  The letter's shared products go in fresh slots past the
    columns and are built first, before any column is touched; an in-place
    column is read by no other column, so no product reads one."""
    dim = len(cols)
    shared, gen = gen
    cols += [{} for _ in range(shared)]
    updates = []
    for j, k0, shift, rest, in_place in gen:
        if in_place:
            acc = cols[j]
        elif shift:
            acc = {key + shift: v for key, v in cols[k0].items()}
        else:
            acc = cols[k0].copy()
        get = acc.get
        for k, terms in rest:
            col = cols[k].items()
            for dk, c in terms:
                for key, v in col:
                    kk = key + dk
                    nv = get(kk, 0) + v * c
                    if nv:
                        acc[kk] = nv
                    else:
                        del acc[kk]
        if not in_place:
            updates.append((j, acc))
    del cols[dim:]
    for j, acc in updates:
        cols[j] = acc


def _lk_identity(m: int, tstride: int, rowstride: int, power: int = 0) -> list[dict]:
    """The identity in this layout times the full twist's image, the scalar
    q^-2m t^-2, to the power `power`: every key shifted by
    power * (-2m tstride - 2)."""
    shift = -power * (2 * m * tstride + 2)
    return [{j * rowstride + shift: 1} for j in range(m * (m - 1) // 2)]


@functools.cache
def _lk_check(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Safety check of the closed forms: sigma_i sigma_i^-1 and sigma_i^-1
    sigma_i are the identity under _lk_apply for every i, and the full twist
    is the scalar q^-2m t^-2.  Returns the letters of the full twist and of
    its inverse, the spellings lk_equal strips as that scalar."""
    tstride, rowstride = _lk_layout(m, 2)
    ident = _lk_identity(m, tstride, rowstride)
    for i in range(1, m):
        for pair in ((i, -i), (-i, i)):
            cols = _lk_identity(m, tstride, rowstride)
            for letter in pair:
                _lk_apply(cols, _lk_letter(m, letter, tstride))
            if cols != ident:
                raise AssertionError(f"LK inverse verification failed for m={m}, i={i}")
    # a scalar image under a faithful representation is central, so the
    # twist may be taken out of a word wherever it is spelled
    twist = full_twist(m).letters
    tstride, rowstride = _lk_layout(m, 1 << len(twist).bit_length())
    cols = _lk_identity(m, tstride, rowstride)
    for letter in twist:
        _lk_apply(cols, _lk_letter(m, letter, tstride))
    if cols != _lk_identity(m, tstride, rowstride, 1):
        raise AssertionError(f"LK full twist verification failed for m={m}: not q^-{2 * m} t^-2")
    return twist, tuple(-k for k in reversed(twist))


def lk_equal(a: BraidWord, b: BraidWord) -> bool:
    """True iff a and b are the same braid, decided by the Lawrence-Krammer
    matrices; the representation is faithful, so this agrees with equals().

    a = b exactly when w = a.b^-1 is the identity.  w is freely reduced in
    one stack pass, which also pops each `full_twist(m)` or its inverse the
    moment its letters top the stack and counts it in a power p: the full
    twist is central and its matrix is the scalar q^-2m t^-2 (`_lk_check`
    verifies it), so w = w'.twist^p.  w' is then
    cyclically reduced, since x.w'.x^-1 = 1 iff w' = 1.  The result is
    u.v^-1 = 1 iff u = v: u starts at the scalar to the power p and v at
    the identity, and each step gives the next letter from the front of w'
    to u, or the inverse of the next from its back to v, whichever side
    holds fewer terms, until the two meet; then u and v are compared.
    """
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} != {b.strands}")
    m = a.strands
    twist, untwist = _lk_check(m)
    size = len(twist)
    power = 0
    w: list[int] = []
    for k in a.letters + tuple(-k for k in reversed(b.letters)):
        if w and w[-1] == -k:
            w.pop()
            continue
        w.append(k)
        if k == twist[-1] and tuple(w[-size:]) == twist:
            del w[-size:]
            power += 1
        elif k == untwist[-1] and tuple(w[-size:]) == untwist:
            del w[-size:]
            power -= 1
    lo, hi = 0, len(w)
    while hi - lo > 1 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    # u and v are matrices of words of at most |p| twists and the reduced
    # letters: the layout of the least power of two above that length
    tstride, rowstride = _lk_layout(m, 1 << (hi - lo + abs(power) * size).bit_length())
    u, v = _lk_identity(m, tstride, rowstride, power), _lk_identity(m, tstride, rowstride)
    u_terms = v_terms = len(u)
    while lo < hi:
        if u_terms <= v_terms:
            _lk_apply(u, _lk_letter(m, w[lo], tstride))
            lo += 1
            u_terms = sum(map(len, u))
        else:
            hi -= 1
            _lk_apply(v, _lk_letter(m, -w[hi], tstride))
            v_terms = sum(map(len, v))
    return u == v
