"""Exact scalar, turn, and arc-interval tests."""
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcbar.rational import (ArcInterval, InvariantViolation, MismatchError,
                             Turn, _draw_rat, arcs_overlap, circular_distance,
                             draw_composition, mod_frac, rat, rat_str,
                             parse_rat, sample_rat)

rats = st.fractions(min_value=-50, max_value=50, max_denominator=16)


@given(rats, rats, rats)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if c != 0:
        assert (a / c) * c == a


def test_rat_strings():
    assert rat_str(F(2, 4)) == "1/2"
    assert rat_str(F(-3, 1)) == "-3"
    assert parse_rat("7/3") == F(7, 3)
    with pytest.raises(InvariantViolation):
        parse_rat("x")


@pytest.mark.parametrize("value, den, want", [
    (3, 1, F(3)), (3, 4, F(3, 4)), (-3, 6, F(-1, 2)),
    ("3", 1, F(3)), ("1/2", 3, F(1, 6)), ("-1/2", -3, F(1, 6)),
    (F(5, 2), 1, F(5, 2)), (F(1, 2), 3, F(1, 6)), (F(4, 3), 2, F(2, 3)),
])
def test_rat_divides_by_den_for_every_input_type(value, den, want):
    got = rat(value, den)
    assert type(got) is F and got == want


def test_rat_returns_a_fraction_unchanged():
    x = F(7, 3)
    assert rat(x) is x
    with pytest.raises(ZeroDivisionError):
        rat("1/2", 0)


@given(rats, st.sampled_from([F(1), F(1, 2), F(1, 3), F(3)]))
def test_turn_canonicalization(x, modulus):
    t = Turn(x, modulus)
    assert 0 <= t.value < modulus
    assert Turn(x + modulus, modulus) == t
    assert Turn(x - 5 * modulus, modulus) == t


def test_turn_arithmetic():
    a = Turn(F(3, 4))
    assert (a + F(1, 2)).value == F(1, 4)
    assert (a - Turn(F(1, 4))).value == F(1, 2)
    assert (-Turn(F(1, 3))).value == F(2, 3)
    with pytest.raises(MismatchError):
        a + Turn(F(0), F(1, 2))
    assert Turn(F(5, 6)).reduced(F(1, 3)).value == F(1, 6)
    with pytest.raises(MismatchError):
        Turn(F(1, 2)).reduced(F(2, 5))


def test_arc_interval_bounds():
    ArcInterval(Turn(F(0)), F(1, 2))
    with pytest.raises(InvariantViolation):
        ArcInterval(Turn(F(0)), F(2, 3))
    with pytest.raises(InvariantViolation):
        ArcInterval(Turn(F(0)), F(-1, 8))


def test_arcs_overlap_examples():
    def arc(c, h, modulus=F(1)):
        return ArcInterval(Turn(F(c), modulus), F(h))

    assert not arcs_overlap(arc(0, F(1, 8)), arc(F(1, 2), F(1, 8)), open_ends=True)
    a = arc(F(1, 3), 0)
    assert arcs_overlap(a, a, open_ends=False)
    assert not arcs_overlap(a, a, open_ends=True)
    assert not arcs_overlap(arc(0, F(1, 4)), arc(F(1, 2), F(1, 4)), open_ends=True)
    assert arcs_overlap(arc(0, F(1, 4)), arc(F(1, 2), F(1, 4)), open_ends=False)
    with pytest.raises(MismatchError):
        arcs_overlap(arc(0, F(1, 8)), arc(0, F(1, 8), modulus=F(1, 2)), True)


@settings(max_examples=200)
@given(rats, rats,
       st.fractions(min_value=0, max_value=F(1, 2), max_denominator=16),
       st.fractions(min_value=0, max_value=F(1, 2), max_denominator=16),
       rats, st.booleans())
def test_arcs_overlap_symmetric_rotation_invariant(c1, c2, h1, h2, rho, open_ends):
    a = ArcInterval(Turn(c1), h1)
    b = ArcInterval(Turn(c2), h2)
    assert arcs_overlap(a, b, open_ends) == arcs_overlap(b, a, open_ends)
    ra = ArcInterval(Turn(c1 + rho), h1)
    rb = ArcInterval(Turn(c2 + rho), h2)
    assert arcs_overlap(a, b, open_ends) == arcs_overlap(ra, rb, open_ends)


def test_circular_distance():
    assert circular_distance(F(1, 8), F(7, 8), F(1)) == F(1, 4)
    assert mod_frac(F(-1, 3), F(1)) == F(2, 3)


def test_sample_rat_contract():
    x = sample_rat(0, 8, 0, 1)
    assert 0 <= x <= 1 and x.denominator <= 8
    assert sample_rat(0, 8, 0, 1) == x
    assert sample_rat(1, 1, 0, 1) in (0, 1)
    values = {sample_rat(s, 8, 0, 1) for s in range(40)}
    assert len(values) > 5
    with pytest.raises(InvariantViolation):
        sample_rat(0, 8, F(1, 2), F(1, 2))
    with pytest.raises(InvariantViolation):
        sample_rat(0, 2, F(1, 3), F(5, 12))


@settings(max_examples=300)
@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=360),
       st.fractions(min_value=F(1, 720), max_value=50, max_denominator=720))
def test_mod_frac_matches_floor_reference(x, modulus):
    expected = x - math.floor(x / modulus) * modulus
    got = mod_frac(x, modulus)
    assert got == expected and 0 <= got < modulus
    assert type(got) is F
    assert mod_frac(int(x), modulus) == mod_frac(F(int(x)), modulus)


def test_mod_frac_rejects_nonpositive_modulus():
    for modulus in (F(0), F(-1, 2), -3):
        with pytest.raises(InvariantViolation):
            mod_frac(F(1, 3), modulus)


def _draw_rat_reference(rng, bound_den, lo, hi):
    """The candidate scan written with Fraction products, floor and ceil."""
    qs = [q for q in range(1, bound_den + 1)
          if math.floor(hi * q) >= math.ceil(lo * q)]
    if not qs:
        return None
    q = rng.choice(qs)
    return F(rng.randint(math.ceil(lo * q), math.floor(hi * q)), q)


@settings(max_examples=150)
@given(st.integers(0, 10**6), st.integers(1, 24),
       st.fractions(min_value=-5, max_value=5, max_denominator=30),
       st.fractions(min_value=F(1, 30), max_value=3, max_denominator=30))
def test_draw_rat_matches_fraction_reference(seed, bound_den, lo, width):
    hi = lo + width
    a, b = random.Random(seed), random.Random(seed)
    for _ in range(5):
        want = _draw_rat_reference(a, bound_den, lo, hi)
        if want is None:
            with pytest.raises(InvariantViolation):
                _draw_rat(b, bound_den, lo, hi)
            return
        assert _draw_rat(b, bound_den, lo, hi) == want
    assert a.random() == b.random()  # the same number of draws was made


def test_draw_composition_nonzero_terminates_with_the_same_draws():
    def recursive(rng, total, parts, den):
        cuts = sorted(_draw_rat(rng, den, F(0), F(1)) for _ in range(parts - 1))
        points = [F(0)] + cuts + [F(1)]
        out = [(points[i + 1] - points[i]) * total for i in range(parts)]
        return recursive(rng, total, parts, den) if 0 in out else tuple(out)

    for seed in range(20):
        a, b = random.Random(seed), random.Random(seed)
        assert draw_composition(a, F(1, 2), 3, 4, allow_zero=False) == \
            recursive(b, F(1, 2), 3, 4)
        assert a.random() == b.random()
    # only 1/2, 1/3, 2/3, 1/4, 3/4 are cuts at den 4: every one is needed,
    # which took more retries than the recursion limit allowed
    out = draw_composition(random.Random(0), 1, 6, 4, allow_zero=False)
    assert sorted(out) == [F(1, 12), F(1, 12), F(1, 6), F(1, 6), F(1, 4), F(1, 4)]


@pytest.mark.parametrize("total, parts, den", [(1, 7, 4), (1, 2, 1), (0, 1, 8),
                                               (F(1, 3), 12, 5)])
def test_draw_composition_impossible_request_raises(total, parts, den):
    with pytest.raises(InvariantViolation):
        draw_composition(random.Random(0), total, parts, den, allow_zero=False)
