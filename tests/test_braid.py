import functools
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from planar_monoid import braid
from planar_monoid.braid import (
    BraidWord,
    NormalForm,
    compose,
    equals,
    full_twist,
    invert,
    linking_matrix,
    lk_equal,
    nf_mul,
    normal_form,
    permutation,
)
from planar_monoid.catalog import builtin
from planar_monoid.surface import ConvexCurve, SurfaceSpec, TwistWord, swing_word, to_braid


@st.composite
def braid_words(draw, max_strands=6, max_len=24):
    s = draw(st.integers(2, max_strands))
    letters = draw(
        st.lists(
            st.integers(1, s - 1).flatmap(lambda g: st.sampled_from((g, -g))),
            max_size=max_len,
        )
    )
    return BraidWord(s, tuple(letters))


@st.composite
def braid_word_pairs(draw, max_strands=6, max_len=24):
    "Two words on the same strand count."
    a = draw(braid_words(max_strands, max_len))
    letters = draw(
        st.lists(
            st.integers(1, a.strands - 1).flatmap(lambda g: st.sampled_from((g, -g))),
            max_size=max_len,
        )
    )
    return a, BraidWord(a.strands, tuple(letters))


def test_letter_range_checked():
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(0, ())


def test_identity_normal_form():
    nf = normal_form(BraidWord(4))
    assert nf.is_identity()
    assert nf.canonical_length() == 0


def test_braid_relation():
    a = BraidWord(3, (1, 2, 1))
    b = BraidWord(3, (2, 1, 2))
    assert equals(a, b)
    assert normal_form(a) == normal_form(b)


def test_far_commutation():
    a = BraidWord(4, (1, 3))
    b = BraidWord(4, (3, 1))
    assert equals(a, b)


def test_distinct_generators_differ():
    assert not equals(BraidWord(3, (1,)), BraidWord(3, (2,)))
    assert not equals(BraidWord(3, (1,)), BraidWord(3, (-1,)))


def test_strand_mismatch_raises():
    with pytest.raises(ValueError):
        equals(BraidWord(3, (1,)), BraidWord(4, (1,)))


@given(braid_words())
def test_word_times_inverse_is_identity(w):
    assert normal_form(compose(w, invert(w))).is_identity()
    assert normal_form(compose(invert(w), w)).is_identity()


@given(braid_words())
def test_normal_form_reexpands_to_equal_word(w):
    nf = normal_form(w)
    assert equals(nf.to_word(), w)


@given(braid_words(max_len=16))
def test_full_twist_is_central(w):
    ft = full_twist(w.strands)
    assert equals(compose(ft, w), compose(w, ft))


@given(braid_word_pairs(max_len=16))
def test_nf_mul_matches_concatenation(pair):
    a, b = pair
    concat = BraidWord(a.strands, a.letters + b.letters)
    assert nf_mul(normal_form(a), normal_form(b)) == normal_form(concat)


def _sup(nf):
    return nf.infimum + nf.canonical_length()


@given(braid_word_pairs(max_strands=8, max_len=24))
@settings(deadline=None)
def test_inf_sup_bounds(pair):
    # the lemma search_orderings prunes by: inf is superadditive, sup is
    # subadditive, and inverting swaps them with a sign
    a, b = pair
    na, nb = normal_form(a), normal_form(b)
    prod = nf_mul(na, nb)
    assert prod.infimum >= na.infimum + nb.infimum
    assert _sup(prod) <= _sup(na) + _sup(nb)
    inv = normal_form(invert(a))
    assert inv.infimum == -_sup(na)
    assert _sup(inv) == -na.infimum


def _assert_left_weighted(nf):
    # Checked from the definition, independent of the library's slide code.
    m = nf.strands
    for f in nf.factors:
        assert f != tuple(range(m)) and f != tuple(range(m - 1, -1, -1))
    for a, b in zip(nf.factors, nf.factors[1:]):
        a_inv = [0] * m
        for x, y in enumerate(a):
            a_inv[y] = x
        for i in range(m - 1):
            if b[i] > b[i + 1]:
                assert a_inv[i] > a_inv[i + 1], (a, b, i)


@given(braid_word_pairs(max_strands=8, max_len=24))
@settings(deadline=None)
def test_normal_form_is_left_weighted(pair):
    a, b = pair
    na, nb = normal_form(a), normal_form(b)
    _assert_left_weighted(na)
    _assert_left_weighted(nb)
    _assert_left_weighted(nf_mul(na, nb))


@given(st.integers(2, 8).flatmap(lambda m: st.permutations(list(range(m)))))
@settings(deadline=None)
def test_interned_simple_factors_match_definitions(p):
    # the kernel's table, checked from the definitions: S(p) = descents of p,
    # F(p) = descents of p^-1
    from planar_monoid.braid import _simples

    p = tuple(p)
    m = len(p)
    table = _simples(m)

    def check(x):
        q = table.perm[x]
        q_inv = tuple(sorted(range(m), key=q.__getitem__))
        assert table.intern(q) == x
        assert table.starts[x] == sum(1 << i for i in range(m - 1) if q[i] > q[i + 1])
        assert table.finishes[x] == sum(1 << i for i in range(m - 1) if q_inv[i] > q_inv[i + 1])

    a = table.intern(p)
    assert table.perm[a] == p
    check(a)


def _inversions(p):
    return sum(1 for x in range(len(p)) for y in range(x + 1, len(p)) if p[x] > p[y])


@given(
    st.integers(2, 8).flatmap(
        lambda m: st.tuples(st.permutations(list(range(m))), st.permutations(list(range(m))))
    )
)
@settings(deadline=None)
def test_pair_table_entries_are_left_weighted_products(pair):
    # each entry (a, b) -> (a', b') of the kernel's pair table, checked from
    # the definitions and against the LK oracle
    a, b = (tuple(p) for p in pair)
    m = len(a)
    table = braid._simples(m)
    ia, ib = table.intern(a), table.intern(b)
    braid._left_weighted(table, (ia,), (ib,))
    packed = table.pairs.get(ia * table.size + ib)
    if table.starts[ib] & ~table.finishes[ia] == 0:
        assert packed is None  # only pairs that slide are stored
        return
    assert packed is not None
    a2, b2 = (table.perm[x] for x in packed)
    a2_inv = tuple(sorted(range(m), key=a2.__getitem__))
    for i in range(m - 1):
        if b2[i] > b2[i + 1]:  # S(b') is contained in F(a')
            assert a2_inv[i] > a2_inv[i + 1], (a2, b2, i)
    assert _inversions(a2) + _inversions(b2) == _inversions(a) + _inversions(b)
    letters = braid._simple_letters
    assert lk_equal(BraidWord(m, (*letters(a2), *letters(b2))), BraidWord(m, (*letters(a), *letters(b))))


# Reference Garside kernel: the s_i-by-s_i slide on image tuples, with no
# interning and no tables.


def _ref_starts(p):
    return {i for i in range(len(p) - 1) if p[i] > p[i + 1]}


def _ref_finishes(p):
    return _ref_starts(tuple(sorted(range(len(p)), key=p.__getitem__)))


def _ref_left_weighted(m, prefix, factors):
    ident, delta = tuple(range(m)), tuple(range(m - 1, -1, -1))
    fs = list(prefix)
    for b in factors:
        if b == ident:
            continue
        j = len(fs)
        fs.append(b)
        while j:
            a = fs[j - 1]
            if _ref_starts(b) <= _ref_finishes(a):
                break
            while not _ref_starts(b) <= _ref_finishes(a):
                i = min(_ref_starts(b) - _ref_finishes(a))
                a = tuple(i + 1 if v == i else i if v == i + 1 else v for v in a)  # a.s_i
                b = b[:i] + (b[i + 1], b[i]) + b[i + 2:]  # s_i.b
            fs[j - 1] = a
            if b == ident:
                del fs[j]
            else:
                fs[j] = b
            j -= 1
            b = a
    k = 0
    while k < len(fs) and fs[k] == delta:
        k += 1
    return k, tuple(fs[k:])


def _ref_letter_factor(m, letter):
    # sigma_k, or for letter -k the u with sigma_k^-1 = Delta^-1 . u
    i = abs(letter) - 1
    p = list(range(m)) if letter > 0 else list(range(m - 1, -1, -1))
    pa, pb = p.index(i), p.index(i + 1)
    p[pa], p[pb] = i + 1, i
    return tuple(p)


def _ref_tau(p):
    m = len(p)
    return tuple(m - 1 - p[m - 1 - x] for x in range(m))


def _ref_normal_form(w):
    # each Delta^-1 marker moved to the front swaps sigma_k and sigma_{m-k}
    m = w.strands
    negatives = sum(1 for k in w.letters if k < 0)
    odd = negatives % 2
    factors = []
    for k in w.letters:
        if k < 0:
            odd ^= 1
        factors.append(_ref_letter_factor(m, (m if k > 0 else -m) - k if odd else k))
    extra, fs = _ref_left_weighted(m, (), factors)
    return NormalForm(m, extra - negatives, fs)


def _ref_nf_mul(a, b):
    prefix = [_ref_tau(f) for f in a.factors] if b.infimum % 2 else a.factors
    extra, fs = _ref_left_weighted(a.strands, prefix, b.factors)
    return NormalForm(a.strands, a.infimum + b.infimum + extra, fs)


def test_pair_table_keys_are_exact_for_every_id(monkeypatch):
    # a fresh 7-strand table with every permutation interned, in reverse
    # order, so that ids run up to 7! - 1: pairs of any ids slide to the
    # reference kernel's pairs.  Past 7 strands ids that high are out of
    # reach, so there the packing's bound on the ids is checked directly.
    monkeypatch.setattr(braid, "_simples", functools.cache(braid._Simples))
    m = 7
    table = braid._simples(m)
    perms = list(itertools.permutations(range(m)))[::-1]
    for p in perms:
        table.intern(p)
    assert len(table.perm) == math.factorial(m)
    rng = random.Random(7)
    for _ in range(400):
        a, b = rng.choice(perms), rng.choice(perms)
        k, ids = braid._left_weighted(table, (table.intern(a),), (table.intern(b),))
        assert (k, tuple(map(table.perm.__getitem__, ids))) == _ref_left_weighted(m, (a,), (b,))
    for m in range(2, 25):
        assert braid._simples(m).size >= math.factorial(m)


@given(braid_word_pairs(max_strands=8, max_len=24))
@settings(deadline=None)
def test_garside_kernel_matches_reference_slide(pair):
    a, b = pair
    na, nb = normal_form(a), normal_form(b)
    ra, rb = _ref_normal_form(a), _ref_normal_form(b)
    assert na == ra
    assert nb == rb
    assert nf_mul(na, nb) == _ref_nf_mul(ra, rb)
    assert nf_mul(nb, na) == _ref_nf_mul(rb, ra)


def test_full_twist_normal_form():
    # the full twist is Delta^2; with the negative-letter convention the
    # normal form is the bare Delta power, no factors
    for m in range(2, 7):
        nf = normal_form(full_twist(m))
        assert nf.factors == ()
        assert nf.infimum == -2


def test_normal_form_constructor_rejects_non_canonical_factors(monkeypatch):
    # equality is equality of interned ids, so only canonical input may be
    # interned: bad factors and pairs are rejected before the table grows
    monkeypatch.setattr(braid, "_simples", functools.cache(braid._Simples))
    bad = [
        (3, ((0, 0, 0),)),  # not a permutation
        (3, ((0, 1, 2, 3),)),  # a permutation of the wrong size
        (3, ((0, 1, 2),)),  # the identity
        (3, ((2, 1, 0),)),  # Delta
        (4, ((1, 0, 3, 2), (0, 2, 1, 3))),  # s1.s3 then s2: S(b) = {1} is not in F(a) = {0, 2}
    ]
    for m, factors in bad:
        table = braid._simples(m)
        before = len(table.perm)
        with pytest.raises(ValueError):
            NormalForm(m, 0, factors)
        assert len(table.perm) == before
    with pytest.raises(ValueError):
        nf_mul(NormalForm(3, 0, ((0, 0, 0),)), normal_form(BraidWord(3, (1, 2))))
    assert NormalForm(3, 0, ()) == normal_form(BraidWord(3))
    assert NormalForm(4, 0, ((1, 0, 3, 2), (1, 0, 3, 2))) == normal_form(BraidWord(4, (1, 3, 1, 3)))


def test_normal_form_pickles_through_image_tuples(monkeypatch):
    # ids mean something only inside one table, so a normal form loaded in
    # another process (here: after a fresh table that interns in another
    # order) must be rebuilt from its image tuples
    w = BraidWord(5, (1, -2, 3, 3, -4, 1, 2, -3, 4, 4))
    nf = normal_form(w)
    ids, factors = nf._ids, nf.factors
    data = pickle.dumps(nf)
    monkeypatch.setattr(braid, "_simples", functools.cache(braid._Simples))
    for p in list(itertools.permutations(range(5)))[::-1]:
        braid._simples(5).intern(p)
    back = pickle.loads(data)
    assert back._ids != ids  # the ids moved, so a pickle of ids would be wrong
    assert back.factors == factors
    assert back.infimum == nf.infimum
    assert back == normal_form(w)


class _CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0

    def get(self, *args):
        self.lookups += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_warm_nf_mul_never_looks_up_image_tuples(monkeypatch):
    # work guard: once a product's pairs and Delta-conjugates are in the
    # table, multiplying again runs on ids alone
    m = 6
    rng = random.Random(6)
    forms = [
        normal_form(BraidWord(m, tuple(rng.choice((1, -1)) * rng.randrange(1, m) for _ in range(14))))
        for _ in range(8)
    ]
    pairs = [(a, b) for a in forms for b in forms]
    assert any(b.infimum % 2 for _, b in pairs)  # the Delta-conjugation path runs too
    expected = [nf_mul(a, b) for a, b in pairs]  # warm-up
    table = braid._simples(m)
    counting = _CountingDict(table.ids)
    monkeypatch.setattr(table, "ids", counting)
    assert [nf_mul(a, b) for a, b in pairs] == expected
    assert counting.lookups == 0


def test_delta_conjugation_map_is_tau(monkeypatch):
    monkeypatch.setattr(braid, "_simples", functools.cache(braid._Simples))
    for m in range(1, 6):
        table = braid._simples(m)
        for p in itertools.permutations(range(m)):
            x = table.intern(p)
            y = table.tau(x)
            assert table.perm[y] == braid._tau(p)
            assert table.tau(y) == x


# Reference dual (Birman-Ko-Lee) structure.  A simple element is named by
# its permutation in `permutation`'s convention, which sends each point to
# the next larger point of its block and the largest back to the smallest.
# Everything here is computed from the definitions: blocks as sets, the
# meet by search over all non-crossing partitions, and words through the
# band generators a_ts.


def _ref_blocks(p):
    seen, blocks = set(), []
    for i in range(len(p)):
        if i not in seen:
            block, j = set(), i
            while j not in block:
                block.add(j)
                j = p[j]
            seen |= block
            blocks.append(frozenset(block))
    return blocks


def _ref_shared(p):
    return {(i, j) for b in _ref_blocks(p) for i in b for j in b if i < j}


def _ref_block_perm(m, blocks):
    p = list(range(m))
    for b in blocks:
        b = sorted(b)
        for x, y in zip(b, b[1:] + b[:1]):
            p[x] = y
    return tuple(p)


def _ref_set_partitions(points):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for part in _ref_set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def _ref_non_crossing(m):
    """Every non-crossing partition of 0..m-1, as its permutation."""
    out = []
    for part in _ref_set_partitions(list(range(m))):
        label = {x: i for i, b in enumerate(part) for x in b}
        if not any(
            label[a] == label[c] != label[b] == label[d]
            for a, b, c, d in itertools.combinations(range(m), 4)
        ):
            out.append(_ref_block_perm(m, part))
    return out


def _ref_then(p, q):
    # the permutation of "p's braid, then q's"
    return tuple(q[x] for x in p)


def _ref_inv(p):
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _ref_delta(m):
    return tuple((i + 1) % m for i in range(m))


def _ref_left_complement(p):
    return _ref_then(_ref_inv(p), _ref_delta(len(p)))


def _band(t, s):
    # a_ts = (s_{t-1} .. s_{s+1}) s_s (s_{t-1} .. s_{s+1})^-1
    mid = list(range(t - 1, s, -1))
    return [*mid, s, *(-k for k in reversed(mid))]


def _dual_simple_letters(block):
    # delta_S = a_{s_k s_{k-1}} .. a_{s_2 s_1} for the block s_1 < .. < s_k (1-indexed)
    block = sorted(block)
    return [k for j in range(len(block) - 1, 0, -1) for k in _band(block[j], block[j - 1])]


def _ref_dual_word(m, form):
    """Re-expand a dual form (infimum, ids) to a braid word."""
    infimum, ids = form
    table = braid._dual_simples(m)
    delta = _dual_simple_letters(range(1, m + 1))
    letters = delta * infimum if infimum >= 0 else [-k for k in reversed(delta)] * -infimum
    for x in ids:
        for b in _ref_blocks(table.perm[x]):
            letters += _dual_simple_letters([i + 1 for i in b])
    return BraidWord(m, tuple(letters))


def _mirror(w):
    return BraidWord(w.strands, tuple(-k for k in w.letters))


@pytest.mark.parametrize("m", range(2, 8))
def test_every_swing_is_the_mirror_of_a_dual_simple_power(m):
    # the fact the ordering search stands on: mirrored, every swing is
    # dual-positive, delta_S^|S| for its support S, and the full twist is
    # delta^m, so every prefix of a realizing order left-divides delta^m
    table = braid._dual_simples(m)
    surface = SurfaceSpec(m + 1)
    for k in range(2, m):
        for support in itertools.combinations(range(1, m + 1), k):
            mirrored = _mirror(swing_word(ConvexCurve.over(support), surface))
            power = BraidWord(m, tuple(_dual_simple_letters(support) * k))
            assert equals(mirrored, power), support
            assert lk_equal(mirrored, power), support
            simple = table.intern(_ref_block_perm(m, [[x - 1 for x in support]]))
            assert braid._dual_normal_form(mirrored) == (0, (simple,) * k)
    assert braid._dual_normal_form(_mirror(full_twist(m))) == (m, ())
    assert braid._dual_normal_form(full_twist(m)) == (-m, ())


@given(braid_word_pairs(max_strands=8, max_len=24))
@settings(deadline=None)
def test_dual_mul_matches_concatenation(pair):
    a, b = pair
    m = a.strands
    fa, fb = braid._dual_normal_form(a), braid._dual_normal_form(b)
    assert braid._dual_mul(m, fa, fb) == braid._dual_normal_form(BraidWord(m, a.letters + b.letters))
    assert braid._dual_mul(m, fb, fa) == braid._dual_normal_form(BraidWord(m, b.letters + a.letters))


@given(braid_word_pairs(max_strands=8, max_len=24))
@settings(deadline=None)
def test_dual_forms_decide_equality(pair):
    a, b = pair
    m = a.strands
    dual = braid._dual_normal_form
    assert (dual(a) == dual(b)) == equals(a, b)
    # equal braids written differently: a.b.b^-1, and a past the central full twist
    assert dual(a) == dual(BraidWord(m, a.letters + b.letters + invert(b).letters))
    ft = full_twist(m)
    assert dual(compose(ft, a)) == dual(compose(a, ft))


@given(braid_words(max_strands=8, max_len=24))
@settings(deadline=None)
def test_dual_form_reexpands_to_equal_word(w):
    assert equals(_ref_dual_word(w.strands, braid._dual_normal_form(w)), w)


@given(braid_word_pairs(max_strands=8, max_len=24))
@settings(deadline=None)
def test_dual_form_is_left_weighted(pair):
    # no factor is the identity or delta, and each adjacent pair (a, b) is
    # left-weighted: no pair of points shares a block of both da and b
    a, b = pair
    m = a.strands
    table = braid._dual_simples(m)
    fa, fb = braid._dual_normal_form(a), braid._dual_normal_form(b)
    for _, ids in (fa, fb, braid._dual_mul(m, fa, fb)):
        perms = [table.perm[x] for x in ids]
        for p in perms:
            assert p not in (tuple(range(m)), _ref_delta(m))
        for p, q in zip(perms, perms[1:]):
            assert not _ref_shared(_ref_left_complement(p)) & _ref_shared(q)


def _ref_dual_pair(m, a, b, simples):
    """Left-weighted, delta-stripped form of the pair (a, b) of permutations:
    (a.c, c^-1.b) with c the meet of da and b, the non-crossing partition
    with the most pairs among those that refine both."""
    fs = [a]
    if b != tuple(range(m)):
        common = _ref_shared(_ref_left_complement(a)) & _ref_shared(b)
        c = max((p for p in simples if _ref_shared(p) <= common), key=lambda p: len(_ref_shared(p)))
        fs = [_ref_then(a, c), _ref_then(_ref_inv(c), b)]
        if fs[1] == tuple(range(m)):
            fs.pop()
    k = 0
    while k < len(fs) and fs[k] == _ref_delta(m):
        k += 1
    return k, tuple(fs[k:])


def test_dual_pair_table_keys_are_exact_for_every_id(monkeypatch):
    # a fresh 7-strand table with all Catalan(7) = 429 simples interned, in
    # reverse order, so that ids run up to 428: pairs of any ids slide to
    # the reference pairs, and the results are simples already interned
    monkeypatch.setattr(braid, "_dual_simples", functools.cache(braid._NonCrossing))
    m = 7
    table = braid._dual_simples(m)
    simples = _ref_non_crossing(m)[::-1]
    for p in simples:
        table.intern(p)
    assert len(table.perm) == table.size == 429
    rng = random.Random(7)
    for _ in range(400):
        a, b = rng.choice(simples), rng.choice(simples)
        k, ids = braid._left_weighted(table, (table.intern(a),), (table.intern(b),))
        assert (k, tuple(map(table.perm.__getitem__, ids))) == _ref_dual_pair(m, a, b, simples)
    assert len(table.perm) == 429
    for m in range(1, 9):
        assert braid._NonCrossing(m).size == len(_ref_non_crossing(m))


def test_full_twist_is_pure_and_links_minus_one():
    for m in range(2, 7):
        ft = full_twist(m)
        assert permutation(ft).is_identity()
        L = linking_matrix(ft)
        for x in range(1, m + 1):
            for y in range(x + 1, m + 1):
                assert L.entry(x, y) == -1


@given(braid_words(max_len=12))
def test_linking_is_conjugation_invariant_total(w):
    # total linking (exponent sum / 2 pattern): conjugating permutes entries
    g = BraidWord(w.strands, (1,) if w.strands > 1 else ())
    conj = compose(compose(g, w), invert(g))
    total = sum(
        linking_matrix(w).entry(x, y)
        for x in range(1, w.strands + 1)
        for y in range(x + 1, w.strands + 1)
    )
    total_c = sum(
        linking_matrix(conj).entry(x, y)
        for x in range(1, w.strands + 1)
        for y in range(x + 1, w.strands + 1)
    )
    assert total == total_c


@pytest.mark.parametrize(
    "m,letter",
    [(m, sign * i) for m in range(2, 9) for i in range(1, m) for sign in (1, -1)],
)
def test_lk_generator_relations(m, letter):
    # hypothesis words stop at 6 strands; this covers every generator and
    # its inverse up to the 8 strands the n=9 daisy family uses
    def w(*letters):
        return BraidWord(m, letters)

    i, sign = abs(letter), (1 if letter > 0 else -1)
    assert lk_equal(w(letter, -letter), w())
    assert lk_equal(w(-letter, letter), w())
    if i + 1 < m:
        nxt = sign * (i + 1)
        assert lk_equal(w(letter, nxt, letter), w(nxt, letter, nxt))
    for j in range(1, m):
        if abs(i - j) >= 2:
            for far in (j, -j):
                assert lk_equal(w(letter, far), w(far, letter))
    ft = full_twist(m).letters
    assert lk_equal(w(*ft, letter), w(letter, *ft))


@given(braid_word_pairs(max_len=20))
@settings(max_examples=60, deadline=None)
def test_lk_agrees_with_garside(pair):
    a, b = pair
    assert lk_equal(a, b) == equals(a, b)


@given(braid_words(max_len=16))
@settings(max_examples=60, deadline=None)
def test_lk_detects_trivial_insertions(w):
    padded = BraidWord(w.strands, w.letters + (1, -1))
    assert lk_equal(w, padded)


def _lk_reference(w):
    """LK matrix of w as {(row, col): {(q-degree, t-degree): coeff}},
    evaluated letter by letter from the identity with no reduction, straight
    from the closed-form generator columns (no packed keys, no flattening)."""
    pairs, index = braid._lk_basis(w.strands)
    mat = {(r, r): {(0, 0): 1} for r in range(len(pairs))}
    for letter in w.letters:
        column = braid._lk_column if letter > 0 else braid._lk_inverse_column
        gen_row = {}  # row k of the generator -> [(col j, [(dq, dt, coeff)])]
        for j, (s, t) in enumerate(pairs):
            col = column(s, t, abs(letter)) or {(s, t): ((0, 1),)}
            for p, terms in col.items():
                degs = []
                for key, c in terms:
                    dq, dt = divmod(key + braid._TDEG_LIMIT, braid._TSTRIDE)
                    degs.append((dq, dt - braid._TDEG_LIMIT, c))
                gen_row.setdefault(index[p], []).append((j, degs))
        new = {}
        for (r, k), poly in mat.items():
            for j, degs in gen_row.get(k, ()):
                entry = new.setdefault((r, j), {})
                for dq, dt, c in degs:
                    for (q, t), v in poly.items():
                        entry[q + dq, t + dt] = entry.get((q + dq, t + dt), 0) + v * c
        mat = {}
        for rc, poly in new.items():
            poly = {e: v for e, v in poly.items() if v}
            if poly:
                mat[rc] = poly
    return mat


def _lk_reference_equal(a, b):
    return _lk_reference(a) == _lk_reference(b)


def _lk_unpacked(cols):
    """braid._lk_matrix's column dicts in _lk_reference's shape."""
    half = braid._ROWSTRIDE // 2
    mat = {}
    for j, col in enumerate(cols):
        for key, v in col.items():
            r, rest = divmod(key + half, braid._ROWSTRIDE)
            q, t = divmod(rest - half + braid._TDEG_LIMIT, braid._TSTRIDE)
            mat.setdefault((r, j), {})[q, t - braid._TDEG_LIMIT] = v
    return mat


@given(braid_word_pairs(max_len=16))
@settings(max_examples=60, deadline=None)
def test_lk_equal_matches_unreduced_reference(pair):
    a, b = pair
    assert lk_equal(a, b) == _lk_reference_equal(a, b)
    # entry by entry, so a row stride too small to keep rows apart shows
    assert _lk_unpacked(braid._lk_matrix(a.strands, a.letters)) == _lk_reference(a)


def _catalog_cases():
    for n in (5, 6, 7):
        for r in builtin(n):
            f = r.rhs.factors
            yield pytest.param(r.lhs, r.rhs, True, id=r.label)
            rot = TwistWord(r.rhs.surface, f[1:] + f[:1])
            yield pytest.param(r.lhs, rot, True, id=f"{r.label}~rot1")
    k4 = builtin(5)[0]  # the six pair twists of the five-holed sphere
    lex = TwistWord(k4.rhs.surface, tuple(sorted(k4.rhs.factors, key=lambda c: c.support)))
    yield pytest.param(k4.lhs, lex, False, id="n5/1~lex")


@pytest.mark.parametrize(("lhs", "rhs", "holds"), list(_catalog_cases()))
def test_lk_equal_matches_reference_on_catalog(lhs, rhs, holds):
    # a rotation of a relation is again a relation (the boundary side is
    # central); the lexicographic K4 order is the README's falsified one
    bl, br = to_braid(lhs), to_braid(rhs)
    assert lk_equal(bl, br) == _lk_reference_equal(bl, br) == equals(bl, br) == holds


@st.composite
def relator_insertions(draw):
    """(w, w with a braid relator or a far commutator inserted somewhere)."""
    w = draw(braid_words(max_len=16).filter(lambda w: w.strands >= 3))
    s = w.strands
    i = draw(st.integers(1, s - 2))
    far = [j for j in range(1, s) if abs(i - j) >= 2]
    if far and draw(st.booleans()):
        j = draw(st.sampled_from(far))
        rel = [i, j, -i, -j]
    else:
        rel = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    if draw(st.booleans()):
        rel = [-k for k in reversed(rel)]
    pos = draw(st.integers(0, len(w.letters)))
    letters = list(w.letters)
    letters[pos:pos] = rel
    return w, BraidWord(s, tuple(letters))


@given(relator_insertions())
@settings(max_examples=60, deadline=None)
def test_lk_proves_inserted_relators(case):
    # free and cyclic reduction leave a cyclic shift of the relator, so the
    # LK arithmetic has to multiply it out to see the identity
    w, padded = case
    braid._lk_check(w.strands)  # its own letters are not the word's
    applied = []
    apply = braid._lk_apply

    def counting(cols, m, letter):
        applied.append(letter)
        apply(cols, m, letter)

    braid._lk_apply = counting
    try:
        assert lk_equal(w, padded)
    finally:
        braid._lk_apply = apply
    assert len(applied) >= 4
    assert lk_equal(w, padded) == _lk_reference_equal(w, padded)


def test_lk_generator_degrees_fit_key_layout():
    # the per-letter reach lk_equal's length limit rests on: every generator
    # term has q-degree -2..m and t-degree -1..1
    for m in range(2, 10):
        for letter in [sign * i for i in range(1, m) for sign in (1, -1)]:
            for _, _, shift, rest in braid._lk_active(m, letter):
                for key in [shift] + [key for _, terms in rest for key, _ in terms]:
                    dq, dt = divmod(key + braid._TDEG_LIMIT, braid._TSTRIDE)
                    assert -2 <= dq <= m and -1 <= dt - braid._TDEG_LIMIT <= 1


def test_lk_equal_rejects_words_past_the_key_layout(monkeypatch):
    def no_matrix_work(*args):
        raise AssertionError("matrix work started")

    monkeypatch.setattr(braid, "_lk_matrix", no_matrix_work)
    m = 8
    half = braid._QDEG_LIMIT // m  # a half of this many letters reaches the q limit
    long = BraidWord(m, (1, 3) * half)
    with pytest.raises(ValueError, match="degree limits"):
        lk_equal(long, BraidWord(m))
    with pytest.raises(ValueError, match="degree limits"):
        lk_equal(BraidWord(m), long)
    # the limit applies to the reduced word: long.long^-1 reduces to nothing
    monkeypatch.setattr(braid, "_lk_matrix", lambda m, letters: list(letters))
    assert lk_equal(long, long)
    # one letter fewer per half is inside the layout
    assert not lk_equal(BraidWord(m, (1, 3) * (half - 1)), BraidWord(m))


def test_nf_equality_is_exact_on_rewritings():
    # sigma1 sigma2 sigma1 sigma1^-1 = sigma1 sigma2
    a = BraidWord(3, (1, 2, 1, -1))
    b = BraidWord(3, (1, 2))
    assert normal_form(a) == normal_form(b)
    assert isinstance(normal_form(a), NormalForm)
