"""Exact scalars, turns, the overlap scan and seeded draws."""
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcbar.rational import (InvariantViolation, Turn, _draw_num,
                             check_nonzero_composition, composition_nums,
                             first_overlap, mod_frac, rat, rat_str, parse_rat)

rats = st.fractions(min_value=-50, max_value=50, max_denominator=16)


def _draw_rat(rng, bound_den, lo, hi):
    """The seeded draw p/q as a Fraction."""
    return F(*_draw_num(rng, bound_den, lo, hi))


def draw_composition(rng, total, parts, den, allow_zero=True):
    """The seeded composition of `total`, as Fractions: the integer
    composition of 1 scaled by `total`."""
    if parts >= 1 and not allow_zero:
        check_nonzero_composition(F(total), parts, den)
    scale, nums = composition_nums(rng, parts, den, allow_zero)
    return tuple(F(k, scale) * total for k in nums)


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
    assert parse_rat(-3) == F(-3)
    # only strings and integers are exact inputs
    for bad in ("x", "1/0", 0.5, True, None, ["1"]):
        with pytest.raises(InvariantViolation):
            parse_rat(bad)


@pytest.mark.parametrize("value, want",
                         [(3, F(3)), ("-1/2", F(-1, 2)), (F(5, 2), F(5, 2))],
                         ids=["int", "str", "fraction"])
def test_rat_coerces_ints_and_strings(value, want):
    got = rat(value)
    assert type(got) is F and got == want


def test_rat_returns_a_fraction_unchanged():
    x = F(7, 3)
    assert rat(x) is x


@given(rats, st.sampled_from([F(1), F(1, 2), F(1, 3), F(3)]))
def test_turn_canonicalization(x, modulus):
    t = Turn(x, modulus)
    assert 0 <= t.value < modulus
    assert Turn(x + modulus, modulus) == t
    assert Turn(x - 5 * modulus, modulus) == t


def _circle_overlap(c1, h1, c2, h2):
    return first_overlap(sorted([(c1 % 1, h1, 1), (c2 % 1, h2, 2)]), F(1)) is not None


def test_arcs_overlap_examples():
    # a positive radius contributes its open arc, a zero radius its center
    assert not _circle_overlap(F(0), F(1, 8), F(1, 2), F(1, 8))
    assert not _circle_overlap(F(0), F(1, 4), F(1, 2), F(1, 4))
    assert _circle_overlap(F(0), F(1, 4), F(3, 8), F(1, 4))
    # coincident zero-radius points are not an overlap: the scan compares
    # distance with the radius sum strictly, and arc systems admit them
    assert not _circle_overlap(F(1, 3), 0, F(1, 3), 0)
    assert not _circle_overlap(F(1, 3), 0, F(1, 2), 0)
    # the wrap-around pair: 15/16 lies inside the open arc about 0
    assert _circle_overlap(F(0), F(1, 8), F(15, 16), 0)
    assert not _circle_overlap(F(0), F(1, 8), F(1, 8), 0)


@settings(max_examples=200)
@given(rats, rats,
       st.fractions(min_value=0, max_value=F(1, 2), max_denominator=16),
       st.fractions(min_value=0, max_value=F(1, 2), max_denominator=16),
       rats)
def test_arcs_overlap_symmetric_rotation_invariant(c1, c2, h1, h2, rho):
    got = _circle_overlap(c1, h1, c2, h2)
    assert _circle_overlap(c2, h2, c1, h1) == got
    assert _circle_overlap(c1 + rho, h1, c2 + rho, h2) == got


def _pairwise_overlaps(arcs, period):
    """The names of every overlapping pair by the definition: centers closer
    than the sum of the radii, on a circle by the shorter way round."""
    out = set()
    for i, (ci, ri, ni) in enumerate(arcs):
        for cj, rj, nj in arcs[i + 1:]:
            d = abs(ci - cj)
            if period is not None:
                d = min(d, period - d)
            if d < ri + rj:
                out.add(frozenset((ni, nj)))
    return out


@settings(max_examples=150)
@given(st.lists(st.tuples(st.fractions(min_value=0, max_value=F(15, 16),
                                       max_denominator=16),
                          st.fractions(min_value=0, max_value=F(1, 2),
                                       max_denominator=8)), max_size=5),
       st.sampled_from([None, F(1)]))
def test_first_overlap_matches_pairwise(raw, period):
    # the neighbour scan finds an overlap exactly when some pair overlaps,
    # and the pair it names is one of them
    arcs = sorted((c, r, k) for k, (c, r) in enumerate(raw))
    got = first_overlap(arcs, period)
    want = _pairwise_overlaps(arcs, period)
    assert (got is not None) == bool(want)
    assert got is None or frozenset(got) in want


def test_draw_rat_contract():
    def draw(seed, bound_den, lo, hi):
        return _draw_rat(random.Random(seed), bound_den, F(lo), F(hi))

    x = draw(0, 8, 0, 1)
    assert 0 <= x <= 1 and x.denominator <= 8
    assert draw(0, 8, 0, 1) == x
    assert draw(1, 1, 0, 1) in (0, 1)
    values = {draw(s, 8, 0, 1) for s in range(40)}
    assert len(values) > 5
    with pytest.raises(InvariantViolation):
        draw(0, 8, F(1, 2), F(1, 2))
    with pytest.raises(InvariantViolation):
        draw(0, 2, F(1, 3), F(5, 12))


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
