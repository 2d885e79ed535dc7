"""Exact rational scalars, turn-based circle arithmetic, and seeded sampling.

All angles are measured in turns (1 turn = a full revolution), so every
circle computation in the package is closed rational arithmetic; no floats,
no radians, no trigonometry.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

# The exact rational scalar.  `fractions.Fraction` already guarantees lowest
# terms, positive denominator, and arbitrary-precision integer arithmetic.
Rat = Fraction

RatLike = Union[Rat, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


class InvariantViolation(ValueError):
    """An algebraic invariant required by a constructor or operation failed."""


class MismatchError(ValueError):
    """Operands live over incompatible moduli, degrees, or groups."""


def rat(value: RatLike) -> Rat:
    """Coerce ints, 'p/q' strings, or Fractions to an exact rational; a
    Fraction is returned as it is."""
    return value if isinstance(value, Fraction) else Fraction(value)


def rat_str(x: Rat) -> str:
    """Serialize as 'p/q' in lowest terms, bare 'p' when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str | int) -> Rat:
    """Parse a 'p/q' string or an integer; a float or a boolean is no exact input."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise InvariantViolation(f"not a rational: {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvariantViolation(f"not a rational: {s!r}") from exc


def mod_frac(x: Rat, modulus: Rat) -> Rat:
    """Canonical representative of x modulo a positive rational, in [0, modulus).

    With x = a/b and modulus = c/d over the common denominator b*d, this is
    ((a*d) mod (b*c)) / (b*d): one integer remainder and one construction.
    """
    c, d = modulus.numerator, modulus.denominator
    if c <= 0:
        raise InvariantViolation("modulus must be positive")
    a, b = x.numerator, x.denominator
    return Fraction((a * d) % (b * c), b * d)


@dataclass(frozen=True)
class Turn:
    """An angle in turns, reduced to the canonical representative [0, modulus).

    modulus 1 models S^1; modulus 1/m models the quotient circle S^1/C_m;
    modulus m models R/mZ (the base-angle coordinate of the cyclic space model).
    """

    value: Rat
    modulus: Rat = ONE

    def __post_init__(self) -> None:
        modulus = rat(self.modulus)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "value", mod_frac(rat(self.value), modulus))


def first_overlap(arcs: Sequence[tuple[int | Rat, int | Rat, object]],
                  period: int | Rat | None = None) -> tuple[object, object] | None:
    """Names of the first pair of (center, radius, name) arcs, sorted by
    center, whose images overlap: centers closer than the sum of the radii.
    Centers, radii and the period are on any one exact scale, ints or
    Fractions; the interval and arc validators pass integer numerators over
    one common denominator.  Only neighbours are compared: if they are
    disjoint, the gaps telescope and every pair is.  With a `period` the
    centers lie in one period of a circle and the wrap-around pair
    (last, first + period) is one more."""
    for (c1, r1, n1), (c2, r2, n2) in zip(arcs, arcs[1:]):
        if c2 - c1 < r1 + r2:
            return n1, n2
    if period is not None and len(arcs) > 1:
        (c2, r2, n2), (c1, r1, n1) = arcs[0], arcs[-1]
        if c2 + period - c1 < r1 + r2:
            return n1, n2
    return None


def over_common_denominator(values: Sequence[int | Rat],
                            *dens: int) -> tuple[int, list[int]]:
    """The least common denominator D of `values` and of `dens`, and the
    integer numerator of each value over D.  D is positive, so the
    numerators order, add and compare as the values do."""
    fracs = [(x.numerator, x.denominator) for x in values]
    d = math.lcm(*dens, *[b for _, b in fracs])
    return d, [a * (d // b) for a, b in fracs]


@functools.lru_cache(maxsize=256)
def _lattice(bound_den: int, ln: int, ld: int, hn: int,
             hd: int) -> tuple[tuple[int, int, int], ...]:
    """(q, p_lo, p_hi) for every q <= bound_den with some p/q in
    [lo, hi] = [ln/ld, hn/hd]: p_lo = ceil(lo*q) and p_hi = floor(hi*q)."""
    if bound_den < 1:
        raise InvariantViolation("denominator bound must be >= 1")
    if ln * hd >= hn * ld:
        raise InvariantViolation("empty range")
    cells = tuple((q, -(-ln * q // ld), hn * q // hd) for q in range(1, bound_den + 1)
                  if hn * q // hd >= -(-ln * q // ld))
    if not cells:
        raise InvariantViolation(f"no rational with denominator <= {bound_den} in "
                                 f"[{Fraction(ln, ld)}, {Fraction(hn, hd)}]")
    return cells


def _draw_num(rng: random.Random, bound_den: int, lo: int | Rat,
              hi: int | Rat) -> tuple[int, int]:
    """A seeded p/q in [lo, hi] with q <= bound_den, as the integers (p, q):
    q uniform over the denominators that admit one, then p uniform."""
    q, p_lo, p_hi = rng.choice(_lattice(bound_den, lo.numerator, lo.denominator,
                                        hi.numerator, hi.denominator))
    return rng.randint(p_lo, p_hi), q


@functools.lru_cache(maxsize=64)
def lcm_upto(den: int) -> int:
    """lcm(1, ..., den): a denominator of every p/q with q <= den."""
    return math.lcm(*range(1, den + 1))


def composition_nums(rng: random.Random, parts: int, den: int,
                     allow_zero: bool = True) -> tuple[int, list[int]]:
    """Random composition of 1 into `parts` nonnegative parts, on integers:
    (L, nums) with L = lcm(1..den) and the parts nums[i] / L.

    Cut-point construction: the parts - 1 cuts are seeded p/q in [0, 1]
    with q <= den, and a cut p/q is the numerator p*(L/q) over L, so the
    cuts sort as the rationals do.  With allow_zero=False the cuts are drawn
    again until every part is nonzero; a request no cuts can meet raises
    InvariantViolation."""
    if parts < 1:
        raise InvariantViolation("need at least one part")
    if not allow_zero:
        check_nonzero_composition(1, parts, den)
    scale = lcm_upto(den)
    while True:
        cuts = sorted(p * (scale // q) for p, q in
                      (_draw_num(rng, den, 0, 1) for _ in range(parts - 1)))
        points = [0, *cuts, scale]
        out = [b - a for a, b in zip(points, points[1:])]
        if allow_zero or all(out):
            return scale, out


def check_nonzero_composition(total: Rat, parts: int, den: int) -> None:
    """Raise unless a composition of `total` (`composition_nums` draws one
    of 1) can have `parts` nonzero parts.

    The parts - 1 cuts must then be distinct rationals in (0, 1) with
    denominator <= den, of which there are sum(phi(q) for q = 2..den).
    """
    if total == 0:
        raise InvariantViolation("a zero total has no composition into nonzero parts")
    if parts <= den:  # 1/2, 1/3, ..., 1/den are den - 1 distinct cuts
        return
    interior = sum(1 for q in range(2, den + 1) for p in range(1, q)
                   if math.gcd(p, q) == 1)
    if parts - 1 > interior:
        raise InvariantViolation(
            f"no composition into {parts} nonzero parts with cuts of "
            f"denominator <= {den}: only {interior} interior cut points")

