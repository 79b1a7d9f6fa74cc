import functools
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from planar_monoid import braid, surface
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


@pytest.mark.parametrize(
    "strands, letters, what",
    [(2.5, (), "strand count"), (True, (), "strand count"), (3, (1.0,), "letter"), (3, (True,), "letter")],
)
def test_braid_word_takes_ints_only(strands, letters, what):
    "Strands and letters are ints; nothing is left to fail in normal_form."
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        BraidWord(strands, letters)


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
    # the lemma search_orderings prunes by, on the public dual forms: inf is
    # superadditive, sup is subadditive, and inverting swaps them with a sign
    a, b = pair
    na, nb = normal_form(a), normal_form(b)
    prod = nf_mul(na, nb)
    assert prod.infimum >= na.infimum + nb.infimum
    assert _sup(prod) <= _sup(na) + _sup(nb)
    inv = normal_form(invert(a))
    assert inv.infimum == -_sup(na)
    assert _sup(inv) == -na.infimum


def test_full_twist_normal_form():
    # the full twist is Delta^2 = delta^m; with the negative-letter
    # convention the normal form is the bare delta power, no factors
    for m in range(2, 7):
        assert normal_form(full_twist(m)) == NormalForm(m, -m, ())


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


@functools.cache
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
    return tuple(out)


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


def _ref_simple_word(p):
    # the dual simple p through the band generators of its blocks
    return [k for b in _ref_blocks(p) for k in _dual_simple_letters([i + 1 for i in b])]


def _ref_dual_word(m, form):
    """Re-expand a dual form (infimum, ids) to a braid word."""
    infimum, ids = form
    table = braid._dual_simples(m)
    delta = _dual_simple_letters(range(1, m + 1))
    letters = delta * infimum if infimum >= 0 else [-k for k in reversed(delta)] * -infimum
    for x in ids:
        letters += _ref_simple_word(table.perm[x])
    return BraidWord(m, tuple(letters))


def _ref_atoms(p):
    # the number of atoms a_ts in any positive word for p: m - blocks
    return len(p) - len(_ref_blocks(p))


def _assert_left_weighted(m, perms):
    # from the definitions: no factor is the identity or delta, and each
    # adjacent pair (a, b) is left-weighted: no pair of points shares a
    # block of both da and b
    for p in perms:
        assert p not in (tuple(range(m)), _ref_delta(m))
    for p, q in zip(perms, perms[1:]):
        assert not _ref_shared(_ref_left_complement(p)) & _ref_shared(q), (p, q)


def _non_crossing(m):
    return st.sampled_from(_ref_non_crossing(m))


@given(st.integers(2, 8).flatmap(_non_crossing))
@settings(deadline=None)
def test_interned_simple_factors_match_definitions(p):
    # the kernel's table, checked from the definitions: starts = the pairs
    # that share a block of p, finishes = the pairs that share no block of dp
    m = len(p)
    table = braid._dual_simples(m)

    def bits(pairs):
        return sum(1 << (i * m + j) for i, j in pairs)

    every = {(i, j) for i in range(m) for j in range(i + 1, m)}
    x = table.intern(p)
    assert table.perm[x] == p
    assert table.intern(p) == x
    assert table.starts[x] == bits(_ref_shared(p))
    assert table.finishes[x] == bits(every - _ref_shared(_ref_left_complement(p)))


@given(st.integers(2, 8).flatmap(lambda m: st.tuples(_non_crossing(m), _non_crossing(m))))
@settings(deadline=None)
def test_pair_table_entries_are_left_weighted_products(pair):
    # each entry (a, b) -> (a', b') of the kernel's pair table, checked from
    # the definitions and against the LK oracle
    a, b = pair
    m = len(a)
    table = braid._dual_simples(m)
    ia, ib = table.intern(a), table.intern(b)
    braid._left_weighted(table, (ia,), (ib,))
    packed = table.pairs.get(ia * table.size + ib)
    if not _ref_shared(_ref_left_complement(a)) & _ref_shared(b):
        assert packed is None  # only pairs that slide are stored
        return
    assert packed is not None
    a2, b2 = (table.perm[x] for x in packed)
    assert not _ref_shared(_ref_left_complement(a2)) & _ref_shared(b2)
    assert _ref_atoms(a2) + _ref_atoms(b2) == _ref_atoms(a) + _ref_atoms(b)
    assert lk_equal(
        BraidWord(m, (*_ref_simple_word(a2), *_ref_simple_word(b2))),
        BraidWord(m, (*_ref_simple_word(a), *_ref_simple_word(b))),
    )


@given(braid_word_pairs(max_strands=8, max_len=24))
@settings(deadline=None)
def test_normal_form_is_left_weighted(pair):
    # the public forms, and the constructor takes each of them back
    a, b = pair
    m = a.strands
    na, nb = normal_form(a), normal_form(b)
    for nf in (na, nb, nf_mul(na, nb)):
        _assert_left_weighted(m, nf.factors)
        assert NormalForm(m, nf.infimum, nf.factors) == nf


def test_normal_form_constructor_rejects_non_canonical_factors(monkeypatch):
    # equality is equality of interned ids, so only canonical input may be
    # interned: bad factors and pairs are rejected before the table grows
    monkeypatch.setattr(braid, "_dual_simples", functools.cache(braid._NonCrossing))
    bad = [
        (3, ((0, 0, 0),)),  # not a permutation
        (3, ((0, 1, 2, 3),)),  # a permutation of the wrong size
        (3, ((0, 1, 2),)),  # the identity
        (3, ((1, 2, 0),)),  # delta
        (3, ((2, 0, 1),)),  # a block whose cycle runs downwards
        (4, ((2, 3, 0, 1),)),  # the crossing partition {0, 2}, {1, 3}
        (3, ((0, 2, 1), (1, 0, 2))),  # a_32 then a_21 is delta: not left-weighted
    ]
    for m, factors in bad:
        table = braid._dual_simples(m)
        before = len(table.perm)
        with pytest.raises(ValueError):
            NormalForm(m, 0, factors)
        assert len(table.perm) == before
    with pytest.raises(ValueError):
        nf_mul(NormalForm(3, 0, ((0, 0, 0),)), normal_form(BraidWord(3, (1, 2))))
    assert NormalForm(3, 0, ()) == normal_form(BraidWord(3))
    assert NormalForm(4, 0, ((1, 0, 3, 2), (1, 0, 3, 2))) == normal_form(BraidWord(4, (1, 3, 1, 3)))


@pytest.mark.parametrize("m", range(2, 8))
def test_normal_form_constructor_accepts_exactly_the_dual_simples(m, monkeypatch):
    # over all m! permutations, one factor is accepted iff it is one of the
    # Catalan(m) - 2 non-crossing simples other than the identity and delta,
    # and a rejected one interns nothing; a pair of those is accepted iff
    # it is left-weighted by the definition
    monkeypatch.setattr(braid, "_dual_simples", functools.cache(braid._NonCrossing))
    table = braid._dual_simples(m)
    simples = sorted(set(_ref_non_crossing(m)) - {tuple(range(m)), _ref_delta(m)})
    accepted = []
    for p in itertools.permutations(range(m)):
        before = len(table.perm)
        try:
            NormalForm(m, 0, (p,))
        except ValueError:
            assert len(table.perm) == before, p
        else:
            accepted.append(p)
    assert accepted == simples
    assert len(accepted) == math.comb(2 * m, m) // (m + 1) - 2
    if m > 6:
        return
    for a, b in itertools.product(simples, repeat=2):
        try:
            NormalForm(m, 0, (a, b))
        except ValueError:
            assert _ref_shared(_ref_left_complement(a)) & _ref_shared(b), (a, b)
        else:
            assert not _ref_shared(_ref_left_complement(a)) & _ref_shared(b), (a, b)


def test_normal_form_pickles_through_image_tuples(monkeypatch):
    # ids mean something only inside one table, so a normal form loaded in
    # another process (here: after a fresh table that interns in another
    # order) must be rebuilt from its permutations
    w = BraidWord(5, (1, -2, 3, 3, -4, 1, 2, -3, 4, 4))
    nf = normal_form(w)
    ids, factors = nf._ids, nf.factors
    data = pickle.dumps(nf)
    monkeypatch.setattr(braid, "_dual_simples", functools.cache(braid._NonCrossing))
    for p in _ref_non_crossing(5)[::-1]:
        braid._dual_simples(5).intern(p)
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
    # work guard: once a product's pairs and tau-conjugates are in the
    # table, multiplying again runs on ids alone
    m = 6
    rng = random.Random(6)
    forms = [
        normal_form(BraidWord(m, tuple(rng.choice((1, -1)) * rng.randrange(1, m) for _ in range(14))))
        for _ in range(8)
    ]
    pairs = [(a, b) for a in forms for b in forms]
    assert any(b.infimum % m for _, b in pairs)  # the tau-conjugation path runs too
    expected = [nf_mul(a, b) for a, b in pairs]  # warm-up
    table = braid._dual_simples(m)
    counting = _CountingDict(table.ids)
    monkeypatch.setattr(table, "ids", counting)
    assert [nf_mul(a, b) for a, b in pairs] == expected
    assert counting.lookups == 0


def test_delta_conjugation_map_is_tau(monkeypatch):
    # tau(x) = delta.x.delta^-1, on permutations from the definition for
    # every simple and every power, and as braids by the LK oracle
    monkeypatch.setattr(braid, "_dual_simples", functools.cache(braid._NonCrossing))
    for m in range(1, 7):
        table = braid._dual_simples(m)
        delta = _ref_delta(m)
        delta_word = _dual_simple_letters(range(1, m + 1))
        for p in _ref_non_crossing(m):
            x = table.intern(p)
            q = p
            for c in range(1, m + 1):
                q = _ref_then(_ref_then(delta, q), _ref_inv(delta))
                assert table.perm[table.tau(x, c)] == q
                assert table.tau(table.tau(x, c), -c) == x
            assert q == p  # tau^m is the identity
            if 2 <= m <= 5:
                conjugate = (*delta_word, *_ref_simple_word(p), *(-k for k in reversed(delta_word)))
                tau_x = _ref_simple_word(table.perm[table.tau(x, 1)])
                assert lk_equal(BraidWord(m, conjugate), BraidWord(m, tuple(tau_x)))


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


@st.composite
def dual_factors(draw, m):
    """A dual normal form on m strands: a random word's, or a mirrored
    swing over a random support under either gathering side (one side gives
    swings of negative infimum)."""
    if draw(st.booleans()):
        letters = draw(st.lists(st.integers(1, m - 1).flatmap(lambda g: st.sampled_from((g, -g))), max_size=24))
        return braid._dual_normal_form(BraidWord(m, tuple(letters)))
    support = draw(st.lists(st.integers(1, m), min_size=2, max_size=m - 1, unique=True))
    sign = draw(st.sampled_from((-1, 1)))
    saved = surface._GATHER_SIGN
    surface._GATHER_SIGN = sign
    try:
        word = swing_word(ConvexCurve.over(support), SurfaceSpec(m + 1))
    finally:
        surface._GATHER_SIGN = saved
    return braid._dual_normal_form(_mirror(word))


@given(st.data())
@settings(deadline=None)
def test_capped_dual_mul_stops_exactly_past_the_bound(data):
    # the capped multiply is None exactly when the product's supremum passes
    # the bound, and otherwise the uncapped product
    m = data.draw(st.integers(3, 8))
    a, b = data.draw(dual_factors(m)), data.draw(dual_factors(m))
    product = braid._dual_mul(m, a, b)
    sup = product[0] + len(product[1])
    bound = sup + data.draw(st.integers(-4, 2))
    assert braid._dual_mul(m, a, b, bound) == (None if sup > bound else product)


def test_mirrored_swings_take_negative_infima_on_one_gathering_side(monkeypatch):
    # the capped multiply's tests see negative infima through dual_factors
    monkeypatch.setattr(surface, "_GATHER_SIGN", 1)
    word = swing_word(ConvexCurve.over((1, 3, 5)), SurfaceSpec(6))
    assert braid._dual_normal_form(_mirror(word))[0] < 0


@given(braid_word_pairs(max_strands=8, max_len=24))
@settings(deadline=None)
def test_dual_forms_decide_equality(pair):
    a, b = pair
    m = a.strands
    dual = braid._dual_normal_form
    assert (dual(a) == dual(b)) == lk_equal(a, b)
    # equal braids written differently: a.b.b^-1, and a past the central full twist
    assert dual(a) == dual(BraidWord(m, a.letters + b.letters + invert(b).letters))
    ft = full_twist(m)
    assert dual(compose(ft, a)) == dual(compose(a, ft))


@given(braid_words(max_strands=8, max_len=24))
@settings(deadline=None)
def test_dual_form_reexpands_to_equal_word(w):
    word = _ref_dual_word(w.strands, braid._dual_normal_form(w))
    assert normal_form(w).to_word() == word
    assert lk_equal(word, w)


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
        _assert_left_weighted(m, [table.perm[x] for x in ids])


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


def _dual_divisors_of_delta_power(m, k):
    """The left divisors of delta^k in the dual monoid on m strands: every
    product of atoms a_ts whose dual supremum stays at most k, found
    breadth first from the identity with _dual_mul."""
    table = braid._dual_simples(m)
    atoms = []
    for s in range(m):
        for t in range(s + 1, m):
            p = list(range(m))
            p[s], p[t] = t, s  # the partition with the one block {s, t}
            atoms.append((0, (table.intern(tuple(p)),)))
    seen = {(0, ())}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for atom in atoms:
                y = braid._dual_mul(m, x, atom)
                if y[0] >= 0 and y[0] + len(y[1]) <= k and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def test_dual_divisor_counts_of_delta_powers():
    # the full twist is delta^m; these are its left divisors at m = 3 and
    # 4, more than the Fuss-Catalan numbers 22 and 285, which count the
    # factorizations of delta into m + 1 simples, not divisors of delta^m
    assert len(_dual_divisors_of_delta_power(3, 1)) == 5  # Catalan(3)
    assert len(_dual_divisors_of_delta_power(3, 2)) == 15
    assert len(_dual_divisors_of_delta_power(3, 3)) == 37
    assert len(_dual_divisors_of_delta_power(4, 4)) == 2853


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
            col = column(s, t, abs(letter)) or {(s, t): ((0, 0, 1),)}
            for p, terms in col.items():
                gen_row.setdefault(index[p], []).append((j, terms))
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


def _lk_matrix(w):
    """w's matrix as lk_equal builds a side: the identity in the layout
    sized to w's length, times each letter's packed generator."""
    m, length = w.strands, len(w.letters)
    tstride, rowstride = braid._lk_layout(m, length)
    cols = braid._lk_identity(m, rowstride)
    for letter in w.letters:
        braid._lk_apply(cols, braid._lk_letter(m, letter, tstride))
    return cols


def _lk_unpacked(cols, m, length):
    """Column dicts packed for words of at most `length` letters on m
    strands, in _lk_reference's shape."""
    tstride, rowstride = braid._lk_layout(m, length)
    low = 2 * length * tstride + length  # minus the least q * tstride + t
    mat = {}
    for j, col in enumerate(cols):
        for key, v in col.items():
            r, rest = divmod(key + low, rowstride)
            q, t = divmod(rest - low + length, tstride)
            mat.setdefault((r, j), {})[q, t - length] = v
    return mat


@given(braid_word_pairs(max_len=16))
@settings(max_examples=60, deadline=None)
def test_lk_equal_matches_unreduced_reference(pair):
    a, b = pair
    assert lk_equal(a, b) == _lk_reference_equal(a, b)
    # entry by entry, so a row stride too small to keep rows apart shows
    assert _lk_unpacked(_lk_matrix(a), a.strands, len(a.letters)) == _lk_reference(a)


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


@pytest.mark.parametrize(("lhs", "rhs", "holds"), list(_catalog_cases()))
def test_dual_forms_decide_the_catalog(lhs, rhs, holds):
    bl, br = to_braid(lhs), to_braid(rhs)
    dual = braid._dual_normal_form
    assert (dual(bl) == dual(br)) == lk_equal(bl, br) == holds


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

    def counting(cols, gen):
        applied.append(gen)
        apply(cols, gen)

    braid._lk_apply = counting
    try:
        assert lk_equal(w, padded)
    finally:
        braid._lk_apply = apply
    assert len(applied) >= 4
    assert lk_equal(w, padded) == _lk_reference_equal(w, padded)


def test_lk_generator_degrees_fit_key_layout():
    # the per-letter reach the per-call strides rest on: every generator
    # term has q-degree -2..m and t-degree -1..1
    for m in range(2, 10):
        for letter in [sign * i for i in range(1, m) for sign in (1, -1)]:
            for _, _, shift, rest, _ in braid._lk_active(m, letter):
                for dq, dt in [shift] + [(q, t) for _, terms in rest for q, t, _ in terms]:
                    assert -2 <= dq <= m and -1 <= dt <= 1


def test_lk_in_place_columns_are_read_by_no_other_column():
    for m in range(2, 10):
        for letter in [sign * i for i in range(1, m) for sign in (1, -1)]:
            active = braid._lk_active(m, letter)
            for j, k0, shift, rest, in_place in active:
                readers = [c for c in active if c[0] != j and j in (c[1], *(k for k, _ in c[3]))]
                assert in_place == (k0 == j and shift == (0, 0) and not readers)


def test_lk_layout_holds_words_at_the_degree_extremes():
    # powers of one letter reach the degrees at the layout's edges:
    # sigma_1^-l has q^-2l t^-l, sigma_i^l has t^l, and sigma_{m-1}^l has
    # q^(m + 2l - 2), the highest of all words of up to 4 letters on 3 to 5
    # strands; each matrix, packed in the layout sized to its own length,
    # matches the reference entry by entry
    for m in (3, 5, 8):
        for length in (1, 2, 5, 12):
            reached = set()
            for i in range(1, m):
                for sign in (1, -1):
                    w = BraidWord(m, (sign * i,) * length)
                    ref = _lk_reference(w)
                    assert _lk_unpacked(_lk_matrix(w), m, length) == ref
                    reached |= {e for poly in ref.values() for e in poly}
            qs, ts = {q for q, _ in reached}, {t for _, t in reached}
            assert min(qs) == -2 * length and max(qs) == m + 2 * (length - 1)
            assert min(ts) == -length and max(ts) == length
    # no length limit: a reduced word of 200 letters on 8 strands
    m, power = 8, 50
    w = (1,) * power + (-7,) * power
    assert lk_equal(BraidWord(m, w), BraidWord(m, w[::-1]))
    assert not lk_equal(BraidWord(m, w), BraidWord(m, w[::-1][:-1] + (2,)))


def test_lk_equal_sizes_its_layout_to_the_reduced_word(monkeypatch):
    # either side of the meet may take every letter of the reduced word,
    # so the layout must hold the whole reduced length
    asked = []
    layout = braid._lk_layout
    monkeypatch.setattr(braid, "_lk_layout", lambda m, length: asked.append(length) or layout(m, length))
    m = 5
    for length in (0, 1, 2, 5, 12, 16):
        w = (4,) * length
        for a, b in ((w, ()), ((), w), (w + (1,), (1,)), ((-2,) + w + (2,), ())):
            asked.clear()
            assert lk_equal(BraidWord(m, a), BraidWord(m, b)) == (length == 0)
            assert asked[-1] >= length


@given(braid_word_pairs(max_strands=8, max_len=14), st.booleans())
@settings(max_examples=60, deadline=None)
def test_lk_greedy_meet_matches_reference(pair, same):
    # true pairs too: b spelled as a's normal form, then padded by b's
    # letters and their inverses, so the meet joins two different spellings
    a, b = pair
    if same:
        b = BraidWord(a.strands, normal_form(a).to_word().letters + b.letters + invert(b).letters)
    assert lk_equal(a, b) == lk_equal(b, a) == _lk_reference_equal(a, b) == equals(a, b)
    if same:
        assert lk_equal(a, b)


def test_nf_equality_is_exact_on_rewritings():
    # sigma1 sigma2 sigma1 sigma1^-1 = sigma1 sigma2
    a = BraidWord(3, (1, 2, 1, -1))
    b = BraidWord(3, (1, 2))
    assert normal_form(a) == normal_form(b)
    assert isinstance(normal_form(a), NormalForm)
