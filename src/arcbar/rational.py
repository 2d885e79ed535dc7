"""Exact rational scalars, turn-based circle arithmetic, and seeded sampling.

All angles are measured in turns (1 turn = a full revolution), so every
circle computation in the package is closed rational arithmetic; no floats,
no radians, no trigonometry.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

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


def rat(value: RatLike, den: int = 1) -> Rat:
    """Coerce ints, 'p/q' strings, or Fractions to an exact rational and
    divide by `den`; a Fraction with den 1 is returned as it is."""
    x = value if isinstance(value, Fraction) else Fraction(value)
    return x if den == 1 else Fraction(x, den)


def rat_str(x: Rat) -> str:
    """Serialize as 'p/q' in lowest terms, bare 'p' when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Rat:
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

    def _check(self, other: "Turn") -> None:
        if self.modulus != other.modulus:
            raise MismatchError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}")

    def __add__(self, other: "Turn | Rat | int") -> "Turn":
        if isinstance(other, Turn):
            self._check(other)
            return Turn(self.value + other.value, self.modulus)
        return Turn(self.value + Fraction(other), self.modulus)

    def __sub__(self, other: "Turn | Rat | int") -> "Turn":
        if isinstance(other, Turn):
            self._check(other)
            return Turn(self.value - other.value, self.modulus)
        return Turn(self.value - Fraction(other), self.modulus)

    def __neg__(self) -> "Turn":
        return Turn(-self.value, self.modulus)

    def reduced(self, new_modulus: Rat) -> "Turn":
        """Image under the quotient by a finer modulus (e.g. S^1 -> S^1/C_m)."""
        new_modulus = Fraction(new_modulus)
        if mod_frac(self.modulus, new_modulus) != 0:
            raise MismatchError(
                f"{new_modulus} does not divide modulus {self.modulus}")
        return Turn(self.value, new_modulus)


def circular_distance(a: Rat, b: Rat, modulus: Rat) -> Rat:
    """Shorter arc length between two angles on a circle of the given modulus."""
    d = mod_frac(a - b, modulus)
    return min(d, modulus - d)


@dataclass(frozen=True)
class ArcInterval:
    """An arc {center +/- halfWidth} on the circle of the center's modulus."""

    center: Turn
    half_width: Rat

    def __post_init__(self) -> None:
        hw = Fraction(self.half_width)
        object.__setattr__(self, "half_width", hw)
        if hw < 0:
            raise InvariantViolation("halfWidth must be >= 0")
        if hw > self.center.modulus / 2:
            raise InvariantViolation("halfWidth exceeds half the circle")


def arcs_overlap(a: ArcInterval, b: ArcInterval, open_ends: bool) -> bool:
    """Whether two arcs intersect as subsets of the circle.

    open_ends=True treats each arc as an open interval (empty when degenerate);
    open_ends=False as a closed interval (a point when degenerate), so two
    degenerate closed arcs overlap exactly when their centers coincide.
    """
    if a.center.modulus != b.center.modulus:
        raise MismatchError("arcs live on circles of different modulus")
    d = circular_distance(a.center.value, b.center.value, a.center.modulus)
    if open_ends:
        return a.half_width > 0 and b.half_width > 0 and d < a.half_width + b.half_width
    return d <= a.half_width + b.half_width


def images_overlap(c1: Turn, h1: Rat, c2: Turn, h2: Rat) -> bool:
    """Intersection test for embedding images on the quotient circle.

    A positive radius contributes the open arc around its center; a zero
    radius contributes the single center point (a constant map still has a
    point as image).
    """
    if c1.modulus != c2.modulus:
        raise MismatchError("centers live on circles of different modulus")
    d = circular_distance(c1.value, c2.value, c1.modulus)
    if h1 == 0 and h2 == 0:
        return d == 0
    return d < h1 + h2


def _draw_rat(rng: random.Random, bound_den: int, lo: Rat, hi: Rat) -> Rat:
    lo, hi = Fraction(lo), Fraction(hi)
    if bound_den < 1:
        raise InvariantViolation("denominator bound must be >= 1")
    if lo >= hi:
        raise InvariantViolation("empty range")
    # floor(hi*q) and ceil(lo*q) by integer floor division
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    qs = [q for q in range(1, bound_den + 1) if hn * q // hd >= -(-ln * q // ld)]
    if not qs:
        raise InvariantViolation(
            f"no rational with denominator <= {bound_den} in [{lo}, {hi}]")
    q = rng.choice(qs)
    p = rng.randint(-(-ln * q // ld), hn * q // hd)
    return Fraction(p, q)


def sample_rat(seed: int, bound_den: int, lo: RatLike, hi: RatLike) -> Rat:
    """Deterministic pseudo-random rational in [lo, hi] with denominator <= bound."""
    return _draw_rat(random.Random(seed), bound_den, rat(lo), rat(hi))


def draw_composition(rng: random.Random, total: Rat, parts: int, den: int,
                     allow_zero: bool = True) -> tuple[Rat, ...]:
    """Random rational composition of `total` into `parts` nonnegative parts.

    Cut-point construction: denominators stay bounded by den * total.denominator.
    With allow_zero=False the cuts are drawn again until every part is
    nonzero; a request no cuts can meet raises InvariantViolation.
    """
    if parts < 1:
        raise InvariantViolation("need at least one part")
    total = Fraction(total)
    if not allow_zero:
        check_nonzero_composition(total, parts, den)
    while True:
        cuts = sorted(_draw_rat(rng, den, ZERO, ONE) for _ in range(parts - 1))
        points = [ZERO] + cuts + [ONE]
        out = [(points[i + 1] - points[i]) * total for i in range(parts)]
        if allow_zero or all(out):
            return tuple(out)


def check_nonzero_composition(total: Rat, parts: int, den: int) -> None:
    """Raise unless `draw_composition` can give `parts` nonzero parts.

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

