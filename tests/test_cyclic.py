"""Cyclic category words, rewriting, point actions, and the comparison with
zero-radius arc systems."""
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcbar import cyclic
from arcbar.circle import circle_act, sample_ucc, wreath_act
from arcbar.cyclic import (CyclicWord, Gen, act_on_point, align_ucc,
                           circle_act_point, identity_word, is_aligned,
                           lambda_to_ucc, normalize_word, parse_word, point,
                           rewrite_once_everywhere, sample_point, sample_word,
                           tau_upsilon_intertwined, twist_point, ucc_to_lambda)
from arcbar.rational import InvariantViolation, MismatchError, Turn


def test_parse_and_str():
    w = parse_word("s0.t1", 2, 1)
    assert [g.token() for g in w.gens] == ["t1", "s0"]
    assert str(w) == "s0.t1"
    assert w.target == 2
    assert str(identity_word(2, 3)) == "id"
    with pytest.raises(InvariantViolation):
        parse_word("d0", 1, 0)  # no faces at degree zero
    with pytest.raises(InvariantViolation):
        parse_word("d3", 1, 2)  # index out of range
    with pytest.raises(InvariantViolation):
        parse_word("t5.s0", 2, 1)  # twist written at the wrong degree


def test_normal_form_displayed_relations():
    for m, q in [(1, 0), (1, 2), (2, 1), (3, 2), (2, 3)]:
        w = parse_word(".".join(["t%d" % q] * (m * (q + 1))), m, q)
        assert normalize_word(w) == identity_word(m, q)
        w = parse_word("d0.t%d" % q, m, q) if q >= 1 else None
        if w is not None:
            assert str(normalize_word(w)) == f"d{q}"
    w = parse_word("s0.t1", 2, 1)
    assert str(normalize_word(w)) == "t2.t2.s1"


def test_normal_form_shape_and_idempotence():
    rng = random.Random(0)
    for _ in range(400):
        m, q = rng.randint(1, 4), rng.randint(0, 5)
        w = sample_word(rng, m, q, rng.randint(0, 12))
        nf = normalize_word(w)
        assert normalize_word(nf) == nf
        kinds = [g.kind for g in nf.gens]
        # application order: faces, then degeneracies, then twists
        assert kinds == sorted(kinds, key=lambda k: {"d": 0, "s": 1, "t": 2}[k])
        ds = [g.index for g in nf.gens if g.kind == "d"]
        ss = [g.index for g in nf.gens if g.kind == "s"]
        ts = [g for g in nf.gens if g.kind == "t"]
        assert all(a > b for a, b in zip(ds, ds[1:]))
        assert all(a < b for a, b in zip(ss, ss[1:]))
        assert len(ts) < m * (nf.target + 1)


def _normalize_full_rescan(w):
    """The rewriting loop of normalize_word before it moved twists in one pass
    and resumed at the edit: one rewrite at a time, each found by scanning
    from index 0."""
    gens = list(w.gens)
    while cyclic._tau_step(gens):
        pass
    k = 0
    while gens and gens[-1].kind == "t":
        gens.pop()
        k += 1
    while cyclic._simplicial_step(gens):
        pass
    target = w.source
    for g in gens:
        target = g.target
    k %= w.m * (target + 1)
    gens.extend(Gen("t", 0, target) for _ in range(k))
    return CyclicWord(w.m, w.source, tuple(gens))


def test_normal_form_equals_full_rescan_oracle_on_seeded_words():
    rng = random.Random(6)
    for length in list(range(0, 33)) + [48, 64, 96, 128] * 3:
        m, q = rng.randint(1, 4), rng.randint(0, 5)
        w = sample_word(rng, m, q, length)
        assert normalize_word(w) == _normalize_full_rescan(w), str(w)


@st.composite
def cyclic_words(draw, max_len=40, max_degree=7):
    """A well-formed word: each generator is drawn at the degree the previous
    one leaves, faces only above degree 0, degeneracies up to max_degree;
    long runs of one kind (twists, s_0, d_0) are likely."""
    m = draw(st.integers(1, 4))
    source = draw(st.integers(0, 5))
    gens, q = [], source
    for _ in range(draw(st.integers(0, max_len))):
        kinds = ["t"] + (["s"] if q < max_degree else []) + (["d"] if q >= 1 else [])
        kind = draw(st.sampled_from(kinds))
        index = 0 if kind == "t" else draw(st.one_of(st.just(0), st.integers(0, q)))
        gens.append(Gen(kind, index, q))
        q = gens[-1].target
    return CyclicWord(m, source, tuple(gens))


@settings(max_examples=400, deadline=None)
@given(cyclic_words())
def test_normal_form_equals_full_rescan_oracle(w):
    nf = normalize_word(w)
    assert nf == _normalize_full_rescan(w)
    assert normalize_word(nf) == nf


def test_local_confluence_exhaustive_small():
    # every word of length <= 3 over every generator index, all one-step
    # rewrites rejoining at the same normal form
    def extensions(w):
        q = w.target
        opts = [Gen("t", 0, q)]
        opts += [Gen("s", i, q) for i in range(q + 1)]
        if q >= 1:
            opts += [Gen("d", i, q) for i in range(q + 1)]
        return [CyclicWord(w.m, w.source, w.gens + (g,)) for g in opts]

    for m in (1, 2, 4):
        for q0 in range(0, 6):
            words = [CyclicWord(m, q0, ())]
            for _ in range(3):
                words = [w2 for w in words for w2 in extensions(w)]
                for w in words:
                    nf = normalize_word(w)
                    for w2 in rewrite_once_everywhere(w):
                        assert normalize_word(w2) == nf


def test_confluence_sampled_long_words():
    rng = random.Random(1)
    for _ in range(300):
        m, q = rng.randint(1, 4), rng.randint(0, 5)
        w = sample_word(rng, m, q, rng.randint(4, 12))
        nf = normalize_word(w)
        for w2 in rewrite_once_everywhere(w):
            assert normalize_word(w2) == nf


def test_point_action_examples():
    p = point(1, F(1, 4), [1])
    assert twist_point(p) == point(1, F(1, 4) - 1, [1])
    p = point(2, F(1, 3), [F(1, 4), F(3, 4)])
    assert act_on_point(identity_word(2, 1), p) == p
    # tau_1^2 at m=1 is the identity
    p1 = point(1, F(2, 5), [F(1, 3), F(2, 3)])
    assert twist_point(twist_point(p1)) == p1
    with pytest.raises(MismatchError):
        act_on_point(parse_word("d0", 2, 1), point(2, 0, [1]))


def test_word_action_consistency():
    rng = random.Random(2)
    for _ in range(1000):
        m, q = rng.randint(1, 3), rng.randint(0, 4)
        w = sample_word(rng, m, q, rng.randint(0, 10))
        p = sample_point(rng, m, q)
        assert act_on_point(w, p) == act_on_point(normalize_word(w), p)


def test_faithfulness_on_generic_point():
    primes = [2, 3, 5, 7, 11]

    def canonical_words(m, q, max_ops):
        def d_seqs(deg, budget):
            yield (), deg
            if budget and deg >= 1:
                for i in range(deg + 1):
                    for rest, out in d_seqs(deg - 1, budget - 1):
                        yield (Gen("d", i, deg),) + rest, out

        def s_seqs(deg, budget):
            yield (), deg
            if budget:
                for i in range(deg + 1):
                    for rest, out in s_seqs(deg + 1, budget - 1):
                        yield (Gen("s", i, deg),) + rest, out

        for dseq, deg1 in d_seqs(q, max_ops):
            for sseq, deg2 in s_seqs(deg1, max_ops - len(dseq)):
                for k in range(m * (deg2 + 1)):
                    gens = dseq + sseq + tuple(Gen("t", 0, deg2)
                                               for _ in range(k))
                    w = CyclicWord(m, q, gens)
                    if normalize_word(w) == w:
                        yield w

    for m in (1, 2, 3):
        for q in range(0, 5):
            ts = primes[:q + 1]
            s = sum(ts)
            p = point(m, F(1, 97), [F(t, s) for t in ts])
            seen = {}
            for w in canonical_words(m, q, max_ops=2):
                out = act_on_point(w, p)
                key = (w.target, out.rbar.value, out.simplex)
                assert key not in seen, (str(w), str(seen[key]))
                seen[key] = w


def test_circle_act_point():
    p = point(2, F(1, 3), [F(1, 2), F(1, 2)])
    assert circle_act_point(Turn(F(0)), p) == p
    assert circle_act_point(F(1, 2), p).rbar.value == F(1, 3) + 1
    assert circle_act_point(F(1), p) == p  # full turn: rbar + m = rbar mod m


def test_lambda_to_ucc_examples():
    p = point(1, F(1, 4), [1])
    x = lambda_to_ucc(p)
    assert x.n == 1 and x.variant == "uCc"
    assert x.pairs[0][0].value == F(1, 4) and x.phi == (F(1),)
    assert ucc_to_lambda(x) == p
    p = point(2, F(1, 3), [F(1, 4), F(3, 4)])
    x = lambda_to_ucc(p)
    assert [z.value for z, _ in x.pairs] == [F(1, 6), F(1, 6) + F(1, 8)]
    assert x.phi == (F(1, 8), F(3, 8))


def test_lambda_roundtrip_and_equivariance():
    rng = random.Random(3)
    for _ in range(500):
        m, q = rng.randint(1, 3), rng.randint(0, 3)
        p = sample_point(rng, m, q)
        x = lambda_to_ucc(p)
        assert is_aligned(x)
        assert ucc_to_lambda(x) == p
        assert tau_upsilon_intertwined(p)
        theta = Turn(F(rng.randint(0, 15), 16))
        assert lambda_to_ucc(circle_act_point(theta, p)) == circle_act(theta, x)


def test_align_ucc():
    rng = random.Random(4)
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        x = sample_ucc(rng, m, n)
        aligned, g = align_ucc(x)
        assert is_aligned(aligned)
        assert wreath_act(g, x) == aligned
        assert g.perm.cycle_exponent() == 0
        p = ucc_to_lambda(aligned)
        assert lambda_to_ucc(p) == aligned


def test_orbit_level_surjectivity():
    # every zero-radius system is a wreath translate of an aligned image
    rng = random.Random(5)
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        x = sample_ucc(rng, m, n)
        aligned, g = align_ucc(x)
        back = wreath_act(g.inverse(), aligned)
        assert back == x
