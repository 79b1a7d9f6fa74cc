"""Exact braid group computation on m strands.

Words are sequences of signed Artin generator indices in *application order*:
``letters[0]`` acts first.  Equality is decided two independent ways:

* Garside left-greedy normal form over permutation braids (the canonical
  engine; normal forms are hashable and double as memoization keys).
  `normal_form` and `nf_mul` share one kernel, `_left_weighted`, that
  appends simple factors one at a time to a left-weighted prefix.  Simple
  factors are interned as small ints with starting- and finishing-set
  bitmasks, and the kernel works on those ids only: a `NormalForm` holds
  the ids of its factors, and each pair that is not left-weighted is
  replaced by its left-weighted pair of ids from one lazily filled table
  per strand count; and
* the Lawrence-Krammer representation over Z[q^{+-1}, t^{+-1}] (a faithful
  cross-check oracle with exact arithmetic).  `lk_equal` decides a = b as
  "the freely and cyclically reduced word a.b^-1 is the identity" by
  comparing the matrices of its two halves, kept as one sparse dict per
  column.

Permutations are stored internally as 0-indexed image tuples, interned
per strand count; the public `Permutation` type is 1-indexed to match
boundary-component labels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators sigma_1 .. sigma_{m-1}.

    Letter k (1 <= k < strands) is sigma_k, letter -k its inverse.
    letters[0] is applied first.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError(f"strand count must be positive, got {self.strands}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for letter in self.letters:
            if letter == 0 or abs(letter) >= self.strands:
                raise ValueError(
                    f"letter {letter} out of range for {self.strands} strands"
                )

    @staticmethod
    def identity(strands: int) -> "BraidWord":
        return BraidWord(strands)

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class Permutation:
    """Bijection on {1..m}; images[i] is the image of i+1."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a bijection on 1..{len(self.images)}: {self.images}")

    @staticmethod
    def identity(m: int) -> "Permutation":
        return Permutation(tuple(range(1, m + 1)))

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))


@dataclass(frozen=True)
class LinkingMatrix:
    """Pairwise strand linking numbers, stored exactly as doubled integers.

    doubled[x][y] is twice the linking number of the strands that *start*
    at positions x+1 and y+1 (i.e. the signed crossing count itself).
    """

    strands: int
    doubled: tuple[tuple[int, ...], ...]

    def entry(self, x: int, y: int) -> Fraction:
        """Linking number of strands x and y (1-indexed)."""
        return Fraction(self.doubled[x - 1][y - 1], 2)


class NormalForm:
    """Garside left normal form Delta^infimum . F_1 ... F_r.

    Factors are permutation braids, applied left to right, none equal to
    the identity or to Delta, and every adjacent pair left-weighted.  A
    normal form holds its factors as ids interned in the strand count's
    table (`_simples`); equality and hashing compare (strands, infimum,
    ids), so equal braids are equal normal forms.  `factors` gives the
    0-indexed image tuples.

    The constructor takes image tuples, checks that they are canonical and
    interns them.  The kernel builds its results from ids with
    `_from_ids`.  Ids mean something only inside one process, so a normal
    form pickles through its image tuples.
    """

    __slots__ = ("strands", "infimum", "_ids")

    def __init__(self, strands: int, infimum: int, factors: Iterable[Sequence[int]]):
        if strands < 1:
            raise ValueError(f"strand count must be positive, got {strands}")
        factors = tuple(tuple(f) for f in factors)
        ident, delta = _ident(strands), _delta(strands)
        for f in factors:
            if sorted(f) != list(ident):
                raise ValueError(f"factor {f} is not a permutation of 0..{strands - 1}")
            if f == ident or f == delta:
                raise ValueError(f"factor {f} is the identity or Delta")
        for a, b in zip(factors, factors[1:]):
            if _descents(b) & ~_descents(_pinv(a)):
                raise ValueError(f"factors {a}, {b} are not left-weighted")
        intern = _simples(strands).intern
        _set_strands(self, strands)
        _set_infimum(self, infimum)
        _set_ids(self, tuple(map(intern, factors)))

    def __setattr__(self, name, value):
        raise AttributeError(f"NormalForm is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not NormalForm:
            return NotImplemented
        return self._ids == other._ids and self.infimum == other.infimum and self.strands == other.strands

    def __hash__(self) -> int:
        return hash((self.strands, self.infimum, self._ids))

    def __repr__(self) -> str:
        return f"NormalForm(strands={self.strands}, infimum={self.infimum}, factors={self.factors})"

    def __reduce__(self):
        return NormalForm, (self.strands, self.infimum, self.factors)

    @property
    def factors(self) -> tuple[tuple[int, ...], ...]:
        """The factors as 0-indexed image tuples."""
        return tuple(map(_simples(self.strands).perm.__getitem__, self._ids))

    def canonical_length(self) -> int:
        return len(self._ids)

    def is_identity(self) -> bool:
        return self.infimum == 0 and not self._ids

    def to_word(self) -> BraidWord:
        """Re-expand to a braid word (Delta power first, then the factors)."""
        m = self.strands
        delta_letters = _simple_letters(_delta(m))
        letters: list[int] = []
        if self.infimum >= 0:
            letters.extend(delta_letters * self.infimum)
        else:
            inv = [-k for k in reversed(delta_letters)]
            letters.extend(inv * (-self.infimum))
        for f in self.factors:
            letters.extend(_simple_letters(f))
        return BraidWord(m, tuple(letters))


# The slot setters write past NormalForm.__setattr__; only the constructors use them.
_set_strands = NormalForm.strands.__set__
_set_infimum = NormalForm.infimum.__set__
_set_ids = NormalForm._ids.__set__


def _from_ids(strands: int, infimum: int, ids: tuple[int, ...]) -> NormalForm:
    """The normal form with these interned factor ids, taken as canonical."""
    nf = object.__new__(NormalForm)
    _set_strands(nf, strands)
    _set_infimum(nf, infimum)
    _set_ids(nf, ids)
    return nf


# ---------------------------------------------------------------------------
# permutation helpers (0-indexed image tuples)

@functools.cache
def _ident(m: int) -> tuple[int, ...]:
    return tuple(range(m))


@functools.cache
def _delta(m: int) -> tuple[int, ...]:
    return tuple(range(m - 1, -1, -1))


def _pinv(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _tau(p: Sequence[int]) -> tuple[int, ...]:
    """Conjugation by Delta: tau(p) = Delta p Delta."""
    m = len(p)
    return tuple(m - 1 - p[m - 1 - x] for x in range(m))


def _letter_factor(m: int, letter: int) -> tuple[int, ...]:
    """The permutation braid of sigma_k for letter k > 0, and for letter -k
    the u with sigma_k^-1 = Delta^-1 . u (Delta with the final crossing of
    values k-1, k undone)."""
    i = abs(letter) - 1
    p = list(_ident(m) if letter > 0 else _delta(m))
    pa, pb = p.index(i), p.index(i + 1)
    p[pa], p[pb] = i + 1, i
    return tuple(p)


def _descents(p: Sequence[int]) -> int:
    """Bitmask of {i : p[i] > p[i+1]}."""
    return sum(1 << i for i in range(len(p) - 1) if p[i] > p[i + 1])


class _Simples:
    """The permutation braids on m strands met so far, interned as ints.

    Ids are the kernel's only currency.  Image tuples come in through the
    `NormalForm` constructor and the letter factors and go out through
    `NormalForm.factors`; inside, only a table miss makes a new one.
    For each id: `perm` is its image tuple, `starts` its starting set S
    (the descents of p) and `finishes` its finishing set F (the descents of
    p^-1), both as bitmasks.  `letters` maps each letter k to the id of its
    factor (`_letter_factor`).  `pairs` maps a pair (a, b) that is not
    left-weighted, keyed a * size + b with size = m! bounding every id, to
    the ids (a', b') of the left-weighted pair with a'.b' = a.b; `slide`
    fills a miss.  `taus` maps an id to the id of its conjugate by Delta,
    both ways; `tau` fills a miss.  Only the factors of the pairs met are
    interned, so large m costs only what is used.
    """

    __slots__ = ("m", "size", "ids", "perm", "starts", "finishes", "pairs", "taus", "ident", "delta", "letters")

    def __init__(self, m: int):
        self.m = m
        self.size = math.factorial(m)
        self.ids: dict[tuple[int, ...], int] = {}
        self.perm: list[tuple[int, ...]] = []
        self.starts: list[int] = []
        self.finishes: list[int] = []
        self.pairs: dict[int, tuple[int, int]] = {}
        self.taus: dict[int, int] = {}
        self.ident = self.intern(_ident(m))
        self.delta = self.intern(_delta(m))
        self.letters = {k: self.intern(_letter_factor(m, k)) for i in range(1, m) for k in (i, -i)}

    def intern(self, p: tuple[int, ...]) -> int:
        x = self.ids.get(p)
        if x is None:
            x = self.ids[p] = len(self.perm)
            self.perm.append(p)
            self.starts.append(_descents(p))
            self.finishes.append(_descents(_pinv(p)))
        return x

    def tau(self, x: int) -> int:
        """The id of Delta.x.Delta, computed and stored both ways on a miss."""
        y = self.taus.get(x)
        if y is None:
            y = self.taus[x] = self.intern(_tau(self.perm[x]))
            self.taus[y] = x
        return y

    def slide(self, a: int, b: int) -> tuple[int, int]:
        """The left-weighted pair (a', b') for (a, b), computed and stored.

        While S(b) - F(a) is not empty, its lowest i crosses the boundary:
        a <- a.s_i swaps entries i and i+1 of a^-1, b <- s_i.b swaps
        entries i and i+1 of b, and only bits i-1 .. i+1 of F(a) and S(b)
        can change.
        """
        inv, q = list(_pinv(self.perm[a])), list(self.perm[b])
        fin, start = self.finishes[a], self.starts[b]
        top = self.m - 2
        mask = start & ~fin
        while mask:
            i = (mask & -mask).bit_length() - 1
            inv[i], inv[i + 1] = inv[i + 1], inv[i]
            q[i], q[i + 1] = q[i + 1], q[i]
            for k in range(max(i - 1, 0), min(i + 1, top) + 1):
                bit = 1 << k
                fin = fin | bit if inv[k] > inv[k + 1] else fin & ~bit
                start = start | bit if q[k] > q[k + 1] else start & ~bit
            mask = start & ~fin
        v = self.pairs[a * self.size + b] = (self.intern(_pinv(inv)), self.intern(tuple(q)))
        return v


@functools.cache
def _simples(m: int) -> _Simples:
    return _Simples(m)


def _left_weighted(m: int, prefix: Iterable[int], factors: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Append simple factors to a left-weighted, Delta-free prefix, all as
    ids of the strand count's table.

    Each factor is slid left pair by pair until a pair is already
    left-weighted; a factor slid down to the identity is dropped.  A pair
    (a, b) is left-weighted iff S(b) is contained in F(a); otherwise it is
    replaced by its left-weighted pair from the table, one lookup per pair.
    Returns (Delta power stripped from the front, left-weighted id tuple).
    """
    table = _simples(m)
    starts, finishes, pairs, size = table.starts, table.finishes, table.pairs, table.size
    ident = table.ident
    fs = list(prefix)
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
    delta = table.delta
    k = 0
    while k < len(fs) and fs[k] == delta:
        k += 1
    return k, tuple(fs[k:])


def _simple_letters(p: Sequence[int]) -> list[int]:
    """A positive word (applied left to right) for the permutation braid p."""
    cur = list(p)
    out: list[int] = []
    i = 0
    while i < len(cur) - 1:
        if cur[i] > cur[i + 1]:
            out.append(i + 1)
            cur[i], cur[i + 1] = cur[i + 1], cur[i]
            if i:
                i -= 1
        else:
            i += 1
    return out


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


def normal_form(w: BraidWord) -> NormalForm:
    # Each sigma_k^-1 is Delta^-1 . u; a Delta^-1 moved to the front
    # conjugates every factor it passes, which swaps sigma_k and sigma_{m-k}.
    m = w.strands
    letter = _simples(m).letters
    negatives = sum(1 for k in w.letters if k < 0)
    odd = negatives % 2  # parity of the Delta^-1 markers right of the letter
    factors = []
    for k in w.letters:
        if k < 0:
            odd ^= 1
        factors.append(letter[(m if k > 0 else -m) - k if odd else k])
    extra, ids = _left_weighted(m, (), factors)
    return _from_ids(m, extra - negatives, ids)


def nf_mul(a: NormalForm, b: NormalForm) -> NormalForm:
    """Normal form of the concatenation 'a then b'."""
    m = a.strands
    if m != b.strands:
        raise ValueError(f"strand counts differ: {m} != {b.strands}")
    prefix = map(_simples(m).tau, a._ids) if b.infimum % 2 else a._ids
    extra, ids = _left_weighted(m, prefix, b._ids)
    return _from_ids(m, a.infimum + b.infimum + extra, ids)


def equals(a: BraidWord, b: BraidWord) -> bool:
    """True iff a and b represent the same element of the braid group."""
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} != {b.strands}")
    return normal_form(a) == normal_form(b)


def full_twist(m: int) -> BraidWord:
    """The central full twist on m strands, signed so every pair links -1."""
    if m < 1:
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
# Column layout: a column is one dict holding only its non-zero terms.  The
# term c q^a t^b of row r sits under the key r * _ROWSTRIDE + _pack(a, b).
# The key is one-to-one while |b| < _TDEG_LIMIT and |a| < _QDEG_LIMIT, so
# adding a generator term's _pack key to it never changes its row.  Each
# letter moves a q-degree by -2 .. +m and a t-degree by -1 .. +1 (see
# _lk_column), so a matrix of l letters stays inside once l * m < _QDEG_LIMIT
# and l < _TDEG_LIMIT; lk_equal raises ValueError before it would leave.

_TDEG_LIMIT = 1 << 20
_QDEG_LIMIT = 1 << 20
_TSTRIDE = 2 * _TDEG_LIMIT
_ROWSTRIDE = 2 * _QDEG_LIMIT * _TSTRIDE


def _pack(qd: int, td: int) -> int:
    return qd * _TSTRIDE + td


def _poly(td: int, lo: int, *coeffs: int) -> tuple[tuple[int, int], ...]:
    """t^td (c0 q^lo + c1 q^(lo+1) + ...) as packed (key, coeff) terms."""
    return tuple((_pack(lo + e, td), c) for e, c in enumerate(coeffs) if c)


@functools.cache
def _lk_basis(m: int) -> tuple[tuple[tuple[int, int], ...], dict[tuple[int, int], int]]:
    pairs = tuple((s, t) for s in range(1, m + 1) for t in range(s + 1, m + 1))
    return pairs, {p: idx for idx, p in enumerate(pairs)}


def _lk_column(s: int, t: int, i: int):
    """Column x_{s,t} of sigma_i as {row pair: terms}; None for a unit column."""
    if i < s - 1 or i > t:
        return None
    if i == s - 1:
        return {(s - 1, t): _poly(0, 0, 1), (s, t): _poly(0, 0, 1, -1)}
    if i == s and s == t - 1:
        return {(s, t): _poly(1, 2, 1)}  # t q^2
    if i == s:
        return {(s, s + 1): _poly(1, 1, -1, 1), (s + 1, t): _poly(0, 1, 1)}
    if i < t - 1:
        return {(s, t): _poly(0, 0, 1), (i, i + 1): _poly(1, i - s, 1, -2, 1)}
    if i == t - 1:
        return {(s, t - 1): _poly(0, 0, 1), (t - 1, t): _poly(1, t - s, -1, 1)}
    return {(s, t): _poly(0, 0, 1, -1), (s, t + 1): _poly(0, 1, 1)}  # i == t


def _lk_inverse_column(s: int, t: int, i: int):
    """Column x_{s,t} of sigma_i^-1 as {row pair: terms}; None for a unit column."""
    if s > i + 1 or t < i:
        return None
    if (s, t) == (i, i + 1):
        return {(i, i + 1): _poly(-1, -2, 1)}  # t^-1 q^-2
    if s == i + 1:
        return {(i, i + 1): _poly(0, -2, 1, -1), (i, t): _poly(0, -1, 1)}
    if s == i:
        return {
            (i, i + 1): _poly(0, -2, -1, 2, -1),  # -q^-2 (q-1)^2
            (i, t): _poly(0, -1, -1, 1),
            (i + 1, t): _poly(0, 0, 1),
        }
    if t > i + 1:
        return {(s, t): _poly(0, 0, 1), (i, i + 1): _poly(0, i - s - 2, -1, 2, -1)}
    if t == i + 1:
        return {
            (s, i): _poly(0, -1, 1),
            (s, i + 1): _poly(0, -1, -1, 1),
            (i, i + 1): _poly(0, i - s - 2, -1, 2, -1),
        }
    return {(s, i + 1): _poly(0, 0, 1), (i, i + 1): _poly(0, i - s - 1, 1, -1)}  # t == i


# sigma_i^-1 is written in closed form like sigma_i; _lk_check verifies
# G.G^-1 = G^-1.G = I for every generator before a word on m strands is used.
@functools.cache
def _lk_active(m: int, letter: int) -> tuple[tuple[int, int, int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]], ...]:
    """Non-identity columns of the (possibly inverse) generator matrix,
    flattened for the hot loop: (col_j, row_k0, key_shift, ((row_k, terms), ...)).

    Every such column has exactly one entry that is a monomial with
    coefficient 1; it is pulled out as (row_k0, key_shift), and the rest
    keep their ((packed_key, coeff), ...) terms."""
    i = abs(letter)
    column = _lk_column if letter > 0 else _lk_inverse_column
    pairs, index = _lk_basis(m)
    active = []
    for j, (s, t) in enumerate(pairs):
        col = column(s, t, i)
        if col is None:
            continue
        entries = sorted((index[p], terms) for p, terms in col.items())
        # the unpacking raises unless exactly one entry is a monic monomial
        [(k0, shift)] = [(k, terms[0][0]) for k, terms in entries if len(terms) == 1 and terms[0][1] == 1]
        active.append((j, k0, shift, tuple((k, terms) for k, terms in entries if k != k0)))
    return tuple(active)


def _lk_apply(cols: list[dict], m: int, letter: int) -> None:
    """In-place right multiplication by the letter's generator matrix."""
    updates = []
    for j, k0, shift, rest in _lk_active(m, letter):
        acc = {key + shift: v for key, v in cols[k0].items()}
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
        updates.append((j, acc))
    for j, acc in updates:
        cols[j] = acc


def _lk_identity(m: int) -> list[dict]:
    return [{j * _ROWSTRIDE + _pack(0, 0): 1} for j in range(m * (m - 1) // 2)]


@functools.cache
def _lk_check(m: int) -> None:
    """Safety check of the closed forms: sigma_i sigma_i^-1 and sigma_i^-1
    sigma_i are the identity under _lk_apply for every i."""
    ident = _lk_identity(m)
    for i in range(1, m):
        for pair in ((i, -i), (-i, i)):
            cols = _lk_identity(m)
            for letter in pair:
                _lk_apply(cols, m, letter)
            if cols != ident:
                raise AssertionError(f"LK inverse verification failed for m={m}, i={i}")


def _lk_matrix(m: int, letters: Iterable[int]) -> list[dict]:
    """The word's matrix: one dict of packed terms per column."""
    _lk_check(m)
    cols = _lk_identity(m)
    for letter in letters:
        _lk_apply(cols, m, letter)
    return cols


def lk_equal(a: BraidWord, b: BraidWord) -> bool:
    """True iff a and b are the same braid, decided by the Lawrence-Krammer
    matrices; the representation is faithful, so this agrees with equals().

    a = b exactly when w = a.b^-1 is the identity.  w is freely reduced in
    one stack pass and then cyclically reduced, since x.w'.x^-1 = 1 iff
    w' = 1.  The result u.v^-1 is the identity iff u = v, so only the
    matrices of its two halves u and v are computed and compared.  Raises
    ValueError when a half is too long for the packed-key layout.
    """
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} != {b.strands}")
    m = a.strands
    w: list[int] = []
    for k in a.letters + tuple(-k for k in reversed(b.letters)):
        if w and w[-1] == -k:
            w.pop()
        else:
            w.append(k)
    lo, hi = 0, len(w)
    while hi - lo > 1 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    mid = (lo + hi) // 2
    if (hi - mid) * m >= _QDEG_LIMIT or hi - mid >= _TDEG_LIMIT:
        raise ValueError(
            f"a reduced word of {hi - lo} letters on {m} strands exceeds the "
            f"LK degree limits (q: {_QDEG_LIMIT}, t: {_TDEG_LIMIT})"
        )
    return _lk_matrix(m, w[lo:mid]) == _lk_matrix(m, [-k for k in reversed(w[mid:hi])])
