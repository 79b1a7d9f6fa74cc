"""Exact braid group computation on m strands.

Words are sequences of signed Artin generator indices in *application order*:
``letters[0]`` acts first.  Equality is decided two independent ways:

* Garside left-greedy normal form over permutation braids (the canonical
  engine; normal forms are hashable and double as memoization keys), and
* the Lawrence-Krammer representation over Z[q^{+-1}, t^{+-1}] (a faithful
  cross-check oracle with exact arithmetic).

Permutations are stored internally as 0-indexed image tuples; the public
`Permutation` type is 1-indexed to match boundary-component labels.
"""

from __future__ import annotations

import functools
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
    "lk_matrix",
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


@dataclass(frozen=True)
class NormalForm:
    """Garside left normal form Delta^infimum . F_1 ... F_r.

    Factors are permutation braids as 0-indexed image tuples, applied left
    to right, none equal to the identity or to Delta, and every adjacent
    pair left-weighted.
    """

    strands: int
    infimum: int
    factors: tuple[tuple[int, ...], ...]

    def canonical_length(self) -> int:
        return len(self.factors)

    def is_identity(self) -> bool:
        return self.infimum == 0 and not self.factors

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


@functools.cache
def _neg_letter_factor(m: int, i: int) -> tuple[int, ...]:
    """The permutation braid u with sigma_{i+1}^-1 = Delta^-1 . u
    (u is Delta with the final crossing of values i, i+1 undone)."""
    d = list(_delta(m))
    pa, pb = d.index(i), d.index(i + 1)
    d[pa], d[pb] = i + 1, i
    return tuple(d)


def _slide(a: Sequence[int], b: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Make the adjacent factor pair (a, b) left-weighted.

    Moves every generator that starts b but does not finish a across the
    boundary: a <- a.s_i, b <- s_i.b, until S(b) is contained in F(a).
    """
    m = len(a)
    al = list(a)
    ainv = list(_pinv(a))
    bl = list(b)
    moved = False
    while True:
        hit = -1
        for i in range(m - 1):
            # i in S(b): descent of b; i not in F(a): no descent of a^-1
            if bl[i] > bl[i + 1] and ainv[i] < ainv[i + 1]:
                hit = i
                break
        if hit < 0:
            break
        moved = True
        i = hit
        pa, pb = ainv[i], ainv[i + 1]
        al[pa], al[pb] = i + 1, i
        ainv[i], ainv[i + 1] = pb, pa
        bl[i], bl[i + 1] = bl[i + 1], bl[i]
    if not moved:
        return tuple(a), tuple(b)
    return tuple(al), tuple(bl)


def _normalize_factors(m: int, factors: Iterable[Sequence[int]]):
    """Left-greedy normalization; returns (extracted Delta power, factor tuple)."""
    ident = _ident(m)
    delta = _delta(m)
    fs = [tuple(f) for f in factors if tuple(f) != ident]
    i = 0
    while i < len(fs) - 1:
        a, b = fs[i], fs[i + 1]
        a2, b2 = _slide(a, b)
        if a2 == a:
            i += 1
            continue
        if b2 == ident:
            fs[i] = a2
            del fs[i + 1]
        else:
            fs[i], fs[i + 1] = a2, b2
        if i:
            i -= 1
    inf = 0
    while fs and fs[0] == delta:
        inf += 1
        fs.pop(0)
    return inf, tuple(fs)


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
    m = w.strands
    ident = _ident(m)
    factors: list[tuple[int, ...]] = []
    dpows: list[int] = []

    # Greedily pack runs of positive letters into permutation braids.
    cur = list(ident)
    curinv = list(ident)
    packed = False

    def flush():
        nonlocal cur, curinv, packed
        if packed:
            factors.append(tuple(cur))
            dpows.append(0)
            cur = list(ident)
            curinv = list(ident)
            packed = False

    for letter in w.letters:
        i = abs(letter) - 1
        if letter > 0:
            if curinv[i] > curinv[i + 1]:
                flush()
            pa, pb = curinv[i], curinv[i + 1]
            cur[pa], cur[pb] = i + 1, i
            curinv[i], curinv[i + 1] = pb, pa
            packed = True
        else:
            flush()
            factors.append(_neg_letter_factor(m, i))
            dpows.append(-1)
    flush()

    # Push the Delta^-1 markers to the front, conjugating what they pass.
    total = 0
    for idx in range(len(factors) - 1, -1, -1):
        if total % 2:
            factors[idx] = _tau(factors[idx])
        total += dpows[idx]

    extra, normalized = _normalize_factors(m, factors)
    return NormalForm(m, total + extra, normalized)


def nf_mul(a: NormalForm, b: NormalForm) -> NormalForm:
    """Normal form of the concatenation 'a then b'."""
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} != {b.strands}")
    afs = [_tau(f) for f in a.factors] if b.infimum % 2 else list(a.factors)
    extra, factors = _normalize_factors(a.strands, afs + list(b.factors))
    return NormalForm(a.strands, a.infimum + b.infimum + extra, factors)


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
# columns; lk_matrix multiplies generator matrices in word order, which is
# an (anti)isomorphic copy of the usual representation and equally faithful.
# Polynomials in the hot path are dicts keyed by packed (q,t) degrees.

_TSTRIDE = 1 << 21
_HALF = _TSTRIDE >> 1


def _pack(qd: int, td: int) -> int:
    return qd * _TSTRIDE + td


def _unpack(key: int) -> tuple[int, int]:
    qd = (key + _HALF) // _TSTRIDE
    return qd, key - qd * _TSTRIDE


@functools.cache
def _lk_basis(m: int) -> tuple[tuple[tuple[int, int], ...], dict[tuple[int, int], int]]:
    pairs = tuple((s, t) for s in range(1, m + 1) for t in range(s + 1, m + 1))
    return pairs, {p: idx for idx, p in enumerate(pairs)}


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, 0) + v
        if nv:
            out[k] = nv
        else:
            del out[k]
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    get = out.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            nv = get(k, 0) + va * vb
            if nv:
                out[k] = nv
            else:
                del out[k]
    return out


def _poly_scale(a: dict, key: int, coeff: int) -> dict:
    if coeff == 1 and key == 0:
        return dict(a)
    return {k + key: v * coeff for k, v in a.items()}


@functools.cache
def _lk_gen_matrix(m: int, i: int) -> tuple[dict[int, dict], ...]:
    """Column-sparse matrix of sigma_i: cols[j] maps row index -> packed poly."""
    pairs, index = _lk_basis(m)
    cols: list[dict[int, dict]] = []
    for (s, t) in pairs:
        j = index[(s, t)]
        col: dict[int, dict] = {}
        if i < s - 1 or i > t:
            col[j] = {_pack(0, 0): 1}
        elif i == s - 1:
            col[index[(s - 1, t)]] = {_pack(0, 0): 1}
            col[j] = {_pack(0, 0): 1, _pack(1, 0): -1}  # 1 - q
        elif i == s and s < t - 1:
            col[index[(s, s + 1)]] = {_pack(2, 1): 1, _pack(1, 1): -1}  # tq(q-1)
            col[index[(s + 1, t)]] = {_pack(1, 0): 1}  # q
        elif i == s and s == t - 1:
            col[j] = {_pack(2, 1): 1}  # tq^2
        elif s < i < t - 1:
            col[j] = {_pack(0, 0): 1}
            col[index[(i, i + 1)]] = {  # t q^{i-s} (q-1)^2
                _pack(i - s + 2, 1): 1,
                _pack(i - s + 1, 1): -2,
                _pack(i - s, 1): 1,
            }
        elif i == t - 1:
            col[index[(s, t - 1)]] = {_pack(0, 0): 1}
            col[index[(t - 1, t)]] = {  # t q^{t-s} (q-1)
                _pack(t - s + 1, 1): 1,
                _pack(t - s, 1): -1,
            }
        else:  # i == t
            col[j] = {_pack(0, 0): 1, _pack(1, 0): -1}  # 1 - q
            col[index[(s, t + 1)]] = {_pack(1, 0): 1}  # q
        cols.append(col)
    return tuple(cols)


def _sparse_mat_mul(a: Sequence[dict[int, dict]], b: Sequence[dict[int, dict]]):
    """Product of two column-sparse matrices: (a.b) col j = sum_k a_col_k * b[k][j]."""
    d = len(a)
    out: list[dict[int, dict]] = []
    for j in range(d):
        acc: dict[int, dict] = {}
        for k, coeff in b[j].items():
            for r, poly in a[k].items():
                contrib = _poly_mul(poly, coeff)
                if r in acc:
                    merged = _poly_add(acc[r], contrib)
                    if merged:
                        acc[r] = merged
                    else:
                        del acc[r]
                elif contrib:
                    acc[r] = contrib
        out.append(acc)
    return out


@functools.cache
def _lk_gen_inverse(m: int, i: int) -> tuple[dict[int, dict], ...]:
    """Inverse generator matrix, from the minimal cubic of sigma_i.

    The LK generator has eigenvalues {1, -q, tq^2}, so
    G^-1 = (G^2 - e1 G + e2 I) / e3 with the elementary symmetric e_k.
    Verified against G.G^-1 = I at build time.
    """
    g = _lk_gen_matrix(m, i)
    d = len(g)
    e1 = {_pack(0, 0): 1, _pack(1, 0): -1, _pack(2, 1): 1}
    e2 = {_pack(1, 0): -1, _pack(2, 1): 1, _pack(3, 1): -1}
    inv_e3 = (_pack(-3, -1), -1)  # 1 / (-t q^3)
    g2 = _sparse_mat_mul(g, g)
    cols: list[dict[int, dict]] = []
    for j in range(d):
        acc: dict[int, dict] = dict(g2[j])
        for r, poly in g[j].items():
            term = _poly_mul(poly, e1)
            cur = acc.get(r, {})
            merged = _poly_add(cur, {k: -v for k, v in term.items()})
            if merged:
                acc[r] = merged
            else:
                acc.pop(r, None)
        cur = acc.get(j, {})
        merged = _poly_add(cur, e2)
        if merged:
            acc[j] = merged
        else:
            acc.pop(j, None)
        key, coeff = inv_e3
        cols.append({r: _poly_scale(poly, key, coeff) for r, poly in acc.items()})
    inverse = tuple(cols)
    check = _sparse_mat_mul(g, inverse)
    for j in range(d):
        if check[j] != {j: {_pack(0, 0): 1}}:
            raise AssertionError(
                f"LK inverse verification failed for m={m}, i={i}"
            )
    return inverse


@functools.cache
def _lk_active(m: int, letter: int) -> tuple[tuple[int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]], ...]:
    """Non-identity columns of the (possibly inverse) generator matrix,
    flattened for the hot loop: (col_j, ((row_k, ((packed_key, coeff), ...)), ...))."""
    i = abs(letter)
    mat = _lk_gen_matrix(m, i) if letter > 0 else _lk_gen_inverse(m, i)
    active = []
    for j, col in enumerate(mat):
        if list(col.keys()) == [j] and col[j] == {_pack(0, 0): 1}:
            continue
        contribs = tuple(
            (k, tuple(poly.items())) for k, poly in sorted(col.items())
        )
        active.append((j, contribs))
    return tuple(active)


def _lk_apply(cols: list[list[dict]], m: int, letter: int) -> None:
    """In-place right multiplication by the letter's generator matrix."""
    d = len(cols)
    updates = []
    for j, contribs in _lk_active(m, letter):
        newcol = []
        for r in range(d):
            acc: dict[int, int] = {}
            get = acc.get
            for k, terms in contribs:
                poly = cols[k][r]
                if not poly:
                    continue
                for dk, c in terms:
                    for key, v in poly.items():
                        kk = key + dk
                        nv = get(kk, 0) + v * c
                        if nv:
                            acc[kk] = nv
                        else:
                            del acc[kk]
            newcol.append(acc)
        updates.append((j, newcol))
    for j, newcol in updates:
        cols[j] = newcol


def _lk_packed(w: BraidWord) -> list[list[dict]]:
    """Column-major matrix of packed polynomials for the word."""
    m = w.strands
    d = m * (m - 1) // 2
    cols: list[list[dict]] = [
        [({_pack(0, 0): 1} if r == j else {}) for r in range(d)] for j in range(d)
    ]
    for letter in w.letters:
        _lk_apply(cols, m, letter)
    return cols


def lk_matrix(w: BraidWord) -> list[list[dict[tuple[int, int], int]]]:
    """Lawrence-Krammer matrix of the word, rows x columns.

    Each entry maps (q degree, t degree) to its nonzero coefficient, so
    the zero polynomial is {} and equality is dict equality.
    """
    cols = _lk_packed(w)
    d = len(cols)
    return [
        [{_unpack(k): v for k, v in cols[j][r].items()} for j in range(d)]
        for r in range(d)
    ]


def lk_equal(a: BraidWord, b: BraidWord) -> bool:
    """True iff the LK matrices agree; faithful, so equivalent to equals()."""
    if a.strands != b.strands:
        raise ValueError(f"strand counts differ: {a.strands} != {b.strands}")
    return _lk_packed(a) == _lk_packed(b)
