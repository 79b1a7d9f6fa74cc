"""Exact braid group computation on m strands.

Words are sequences of signed Artin generator indices in *application order*:
``letters[0]`` acts first.  Equality is decided two independent ways:

* the left-greedy normal form of the dual (Birman-Ko-Lee) Garside
  structure (the canonical engine).  Its simple elements are the
  non-crossing partitions, and its Garside element delta has delta^m =
  Delta^2, so the infimum of a normal form is a power of delta and the
  full twist is delta^-m.  Simple factors are interned as small ints, in
  one table per strand count, with starting- and finishing-set bitmasks.
  The layer is two functions over those ids.  The kernel, `nf_mul`,
  appends simple factors one at a time to a left-weighted prefix: each
  pair that is not left-weighted is replaced by its left-weighted pair of
  ids from the table's lazily filled pair map.  It keeps every delta at
  the front of the tuple it returns, and stops with None once the factors
  pass an optional limit.  `normal_form` feeds it a word's letters and
  strips the deltas into an (infimum, ids) tuple; within one process, two
  words on one strand count have equal tuples exactly when they are the
  same braid.  The ordering search holds its products as the kernel's
  tuples and calls it with a limit on the factor count, and a catalog
  verdict multiplies the same cached block forms in one call; and
* the Lawrence-Krammer representation at q = 1/2, with t formal (a
  cross-check oracle with exact arithmetic, faithful by Krammer's theorem
  for every real 0 < q < 1).  `lk_equal` decides a = b as
  "the freely and cyclically reduced word a.b^-1 = u.v^-1 is the
  identity": u and v grow from the identity, each step a letter pair on
  whichever side holds fewer terms, until they meet and are compared.
  Each full twist or inverse that the free reduction finds spelled out,
  in any cyclic rotation, is taken out of the word and u starts at its
  image instead, the central scalar 2^2m t^-2 to the power found;
  `_lk_check` verifies that image once per strand count, so the verdict
  stays exact.  A matrix is one sparse dict of ints per column, keyed by
  t-degree and row in one layout per strand count, with one power-of-two
  scale per column.  One cached builder, `_lk_table`, packs a letter or a
  letter pair, each entry a t-shift times n / 2^e, so a step applies a
  letter pair from its table.

Simple elements are stored as 0-indexed permutations, interned per strand
count.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Iterable, Sequence

__all__ = [
    "BraidWord",
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
    fields, hashed by them and shown as Name(field=value, ...).  A subclass
    names its fields in __slots__, checks its arguments in __init__ and
    stores them with _set.  The methods are written once here: methods
    generated per class compile at every start.
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
# back to the smallest; delta is i -> i+1 mod m.  A permutation here sends
# each strand's start position to its end position, so the word u.v has the
# permutation "u's, then v's".


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


class _NonCrossing:
    """The dual simple elements on m strands met so far, interned as ints.

    Ids are the kernel's only currency.  For each id x: `perm[x]` is its
    permutation, `starts[x]` the mask of the pairs that share a block of x,
    `masks[x]` the same mask for the left complement dx = x^-1.delta, so a
    pair (a, b) is left-weighted iff no pair shares a block of both da and
    b (starts[b] & masks[a] is 0), that is, iff the meet da ^ b is the
    identity.
    `pairs` maps a pair that is not left-weighted, keyed a * size + b with
    size = Catalan(m) bounding every id, to the left-weighted pair
    (a.c, c^-1.b), c = da ^ b; `slide` fills a miss.  `taus` maps (x, c)
    to the id of tau^c(x) and `letters` (k, c) to the id of tau^c of
    letter k's factor, both filled on a miss.  Only the simples met are
    interned, so large m costs only what is used.  `kernel` holds (starts,
    masks, pairs, size, ident), the objects `nf_mul` reads, in one tuple.
    """

    __slots__ = ("m", "size", "ids", "perm", "starts", "masks", "pairs", "taus", "ident", "delta", "letters", "kernel")

    def __init__(self, m: int):
        self.m = m
        self.size = math.comb(2 * m, m) // (m + 1)
        self.ids: dict[tuple[int, ...], int] = {}
        self.perm: list[tuple[int, ...]] = []
        self.starts: list[int] = []
        self.masks: list[int] = []
        self.pairs: dict[int, tuple[int, int]] = {}
        self.taus: dict[int, int] = {}
        self.letters: dict[int, int] = {}
        self.ident = self.intern(_ident(m))
        self.delta = self.intern(tuple((i + 1) % m for i in range(m)))
        self.kernel = (self.starts, self.masks, self.pairs, self.size, self.ident)

    def intern(self, p: tuple[int, ...]) -> int:
        x = self.ids.get(p)
        if x is None:
            x = self.ids[p] = len(self.perm)
            self.perm.append(p)
            self.starts.append(_shared_pairs(p))
            self.masks.append(_shared_pairs(_left_complement(p)))
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


def nf_mul(
    table: _NonCrossing, prefix: Iterable[int], factors: Iterable[int], limit: int = sys.maxsize
) -> tuple[int, ...] | None:
    """Append simple factors to a left-weighted prefix, all as ids of one
    strand count's table.

    Each factor is slid left pair by pair until a pair is already
    left-weighted; a factor slid down to the identity is dropped.  A pair
    (a, b) is left-weighted iff starts[b] & masks[a] is 0; otherwise it is
    replaced by its left-weighted pair from the table, one lookup per pair.
    A delta's mask is 0, so slides stop at it and every delta stays in
    front.  Returns the left-weighted id tuple, or None as soon as the
    factors so far number more than `limit`: their count is the supremum
    of a positive product, and sup(xy) >= sup(x) for positive y, so the
    full product would too.  The ordering search multiplies a product by
    a block form with the limit m: None exactly when it passes delta^m.
    """
    starts, masks, pairs, size, ident = table.kernel
    fs = list(prefix)
    if len(fs) > limit:
        return None
    for b in factors:
        if b == ident:
            continue
        j = len(fs)
        fs.append(b)
        start = starts[b]
        while j:
            a = fs[j - 1]
            if not start & masks[a]:
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
            start = starts[b]
        if len(fs) > limit:
            return None
    return tuple(fs)


def normal_form(w: BraidWord) -> tuple[int, tuple[int, ...]]:
    """The dual left normal form delta^infimum . F_1 ... F_r of w, as
    (infimum, ids of `_dual_simples(w.strands)`).

    Each sigma_k^-1 is delta^-1 . tau(d sigma_k); moving the delta^-1
    markers to the front conjugates each factor by tau once per marker
    right of it.  The kernel's leading deltas join the infimum.
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
    ids = nf_mul(table, (), factors)
    k = 0
    while k < len(ids) and ids[k] == table.delta:
        k += 1
    return k - negatives, ids[k:]


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
# Arithmetic: Krammer (Braid groups are linear, Ann. of Math. 155 (2002)
# 131-156) proves these matrices faithful over R[t^+-1] for every real
# 0 < q < 1, so q is fixed at 1/2 and t stays formal: an entry is a Laurent
# polynomial in t with dyadic coefficients, computed exactly.  A column is
# (ints, scale), one dict holding only its non-zero terms and one power of
# two: the term c t^d of row r is ints[d * K + r] / 2^scale, K the row
# count made odd (`_lk_basis`), so the key is one-to-one for every d and a
# t-shift never changes a row.  K is odd because small ints hash to
# themselves: with K even, one row's keys share their low bits in a dict's
# power-of-two table, and K = 28 ran sigma_1^300 sigma_7^-300 on 8 strands
# about 10 % slower than K = 29.  `_lk_table` packs each entry of a letter
# or a letter pair as t^d n / 2^e, so reading a column costs one int
# multiply per key; the new column's scale is the largest of its
# readings', and a column a step leaves alone is never rescaled.  The
# oracle shares nothing with the Garside engine, and catalog.verify
# reports on every relation whether the two agree (`oracle_agreement`).


@functools.cache
def _lk_basis(m: int) -> tuple[tuple[tuple[int, int], ...], dict[tuple[int, int], int], int]:
    """The basis pairs, each pair's row, and K, the key shift of one
    t-degree: the row count made odd."""
    pairs = tuple((s, t) for s in range(1, m + 1) for t in range(s + 1, m + 1))
    return pairs, {p: idx for idx, p in enumerate(pairs)}, len(pairs) | 1


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


def _dyadic(parts) -> tuple[int, int]:
    """The sum of the terms n / 2^e in `parts`, as (n, e) with n odd or 0."""
    e = max(pe for _, pe in parts)
    n = sum(pn << (e - pe) for pn, pe in parts)
    while n and not n & 1:
        n, e = n >> 1, e - 1
    return n, e


@functools.cache
def _lk_table(m: int, letters: tuple[int, ...]) -> tuple:
    """The matrix of one letter, or of two applied in turn, at q = 1/2: its
    columns that are not unit columns, as (col_j, ((row_k, shift, n, e),
    ...)), entry k of column j the sum of its terms t^d n / 2^e, one term
    per row and t-degree d, with shift = d * K and n odd.  One letter is
    packed from its closed-form columns, two as the product of their
    one-letter tables."""
    pairs, index, width = _lk_basis(m)
    cols = {}
    if len(letters) == 1:
        column = _lk_column if letters[0] > 0 else _lk_inverse_column
        for j, (s, t) in enumerate(pairs):
            col = column(s, t, abs(letters[0]))
            if col is not None:
                # q^dq (c0 + c1 q + ..) at q = 1/2 is the sum of c_d / 2^(dq + d)
                cols[j] = {
                    (index[p], dt * width): [(c, dq + d) for d, c in enumerate(coeffs)]
                    for p, (dq, dt, coeffs) in col.items()
                }
    else:
        a, b = (dict(_lk_table(m, (x,))) for x in letters)
        for j in sorted(a.keys() | b.keys()):
            terms = cols[j] = {}
            for k, d, n, e in b.get(j, ((j, 0, 1, 0),)):
                for row, d2, n2, e2 in a.get(k, ((k, 0, 1, 0),)):
                    terms.setdefault((row, d + d2), []).append((n * n2, e + e2))
    steps = []
    for j, terms in cols.items():
        entries = [(row, d, *_dyadic(parts)) for (row, d), parts in terms.items()]
        entries = tuple(entry for entry in entries if entry[2])
        if entries != ((j, 0, 1, 0),):
            steps.append((j, entries))
    return tuple(steps)


def _lk_apply(cols: list, gen) -> int:
    """Right multiplication of the matrix `cols` by a letter or a letter
    pair packed by `_lk_table`, in place in the list; returns the change
    in its term count.  lk_equal's steps apply a pair each, so the
    per-column work below is paid once per two letters.  A column it
    touches becomes the sum of its entries' readings of the old columns,
    at the largest of their scales: the reading of the column with the
    most terms is built as a new dict, a plain copy when that reading has
    weight one (t-shift 0 and factor 1), and the others are added in.  A
    column dict is never written once stored: every column a step touches
    gets a new dict and the others are left as they are, so a copy of the
    list, which shares the dicts, keeps the matrix copied."""
    updates = []
    grown = 0
    for j, entries in gen:
        scale = most = None
        for entry in entries:
            col, s = cols[entry[0]]
            if scale is None or s + entry[3] > scale:
                scale = s + entry[3]
            if most is None or len(col) > most:
                first, most = entry, len(col)
        k, d, n, e = first
        col, s = cols[k]
        c = n << (scale - s - e)
        acc = col.copy() if c == 1 and not d else {key + d: v * c for key, v in col.items()}
        get = acc.get
        for entry in entries:
            if entry is first:
                continue
            k, d, n, e = entry
            col, s = cols[k]
            c = n << (scale - s - e)
            for key, v in col.items():
                key += d
                nv = get(key, 0) + v * c
                if nv:
                    acc[key] = nv
                else:
                    del acc[key]
        grown += len(acc) - len(cols[j][0])
        updates.append((j, (acc, scale)))
    for j, col in updates:
        cols[j] = col
    return grown


def _lk_identity(m: int, power: int = 0) -> list:
    """The identity times the full twist's image, the scalar q^-2m t^-2 =
    2^2m t^-2, to the power `power`."""
    pairs, _, width = _lk_basis(m)
    return [({j - 2 * power * width: 1}, -2 * m * power) for j in range(len(pairs))]


def _lk_same(u: list, v: list) -> bool:
    """u = v, column by column: a pair at one scale is compared as it
    stands, otherwise the lower-scale side is shifted up to the other's.
    A column holds only non-zero terms, so equal scales mean equal dicts."""
    for (a, s), (b, r) in zip(u, v):
        if s < r:
            a = {key: x << (r - s) for key, x in a.items()}
        elif r < s:
            b = {key: x << (s - r) for key, x in b.items()}
        if a != b:
            return False
    return True


@functools.cache
def _lk_check(m: int) -> dict[int, tuple[tuple[int, ...], int]]:
    """Safety check of the closed forms at q = 1/2: for every i the packed
    products sigma_i sigma_i^-1 and sigma_i^-1 sigma_i have no column but
    unit columns, and the full twist, applied letter by letter, is the
    scalar 2^2m t^-2.  Returns every cyclic rotation of the full twist's
    spelling and of its inverse's, the words lk_equal strips as that
    scalar, by last letter, each with its sign +-1."""
    for i in range(1, m):
        if _lk_table(m, (i, -i)) or _lk_table(m, (-i, i)):
            raise AssertionError(f"LK inverse verification failed for m={m}, i={i}")
    # a scalar image under a faithful representation is central, so the
    # twist may be taken out of a word wherever it is spelled; a rotation
    # of its spelling is a conjugate of it, so the twist too
    twist = full_twist(m).letters
    cols = _lk_identity(m)
    for letter in twist:
        _lk_apply(cols, _lk_table(m, (letter,)))
    if not _lk_same(cols, _lk_identity(m, 1)):
        raise AssertionError(f"LK full twist verification failed for m={m}: not 2^{2 * m} t^-2")
    ends = {}
    for spelling, sign in ((twist, 1), (tuple(-k for k in reversed(twist)), -1)):
        for i in range(len(spelling)):
            rotation = spelling[i:] + spelling[:i]
            ends[rotation[-1]] = rotation, sign
    return ends


def lk_equal(a: BraidWord, b: BraidWord) -> bool:
    """True iff a and b are the same braid, decided by the Lawrence-Krammer
    matrices at q = 1/2 with t formal.  Krammer (Ann. of Math. 155 (2002)
    131-156) proves them faithful for every real 0 < q < 1, so this agrees
    with equals(); catalog.verify reports on every relation whether it
    does (oracle_agreement).  A matrix column is one dict of ints with its
    own power-of-two scale, so the arithmetic is exact.

    a = b exactly when w = a.b^-1 is the identity.  w is freely reduced in
    one stack pass, which also pops each cyclic rotation of `full_twist(m)`
    or of its inverse the moment its letters top the stack and counts it in
    a power p: the full twist is central and its matrix is the scalar
    2^2m t^-2 (`_lk_check` verifies it), so w = w'.twist^p.  w' is then
    cyclically reduced, since x.w'.x^-1 = 1 iff w' = 1.  The result is
    u.v^-1 = 1 iff u = v: u starts at the scalar to the power p and v at
    the identity, and each step applies a letter pair from `_lk_table`:
    the next two letters from the front of w' to u, or the inverses of the
    next two from its back to v, whichever side holds fewer terms, until
    the two meet, a lone last letter going by itself; then u and v are
    compared.
    """
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} != {b.strands}")
    m = a.strands
    ends = _lk_check(m)
    size = m * (m - 1)
    power = 0
    w: list[int] = []
    for k in a.letters + tuple(-k for k in reversed(b.letters)):
        if w and w[-1] == -k:
            w.pop()
            continue
        w.append(k)
        end = ends.get(k)
        if end and len(w) >= size and w[-size] == end[0][0] and tuple(w[-size:]) == end[0]:
            del w[-size:]
            power += end[1]
    lo, hi = 0, len(w)
    while hi - lo > 1 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    u, v = _lk_identity(m, power), _lk_identity(m)
    u_terms = v_terms = len(u)
    while lo < hi:
        if u_terms <= v_terms:
            step = tuple(w[lo:min(lo + 2, hi)])
            lo += len(step)
            u_terms += _lk_apply(u, _lk_table(m, step))
        else:
            step = tuple(-k for k in reversed(w[max(lo, hi - 2):hi]))
            hi -= len(step)
            v_terms += _lk_apply(v, _lk_table(m, step))
    return _lk_same(u, v)
