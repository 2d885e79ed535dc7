"""Framed arc configurations on the quotient circle and their composition
algebra: centers on the unit circle, radii in turns, and recorded gap angles
summing to the circumference of the quotient.

An :class:`ArcSystem` is a point of the compactification ``uEc``: radii may
vanish, coincident centers are admitted along runs of zero gaps, and the gap
angles are part of the data.  Its ``variant`` is derived: ``uCc`` when there
is an arc and every radius is zero, ``uEc`` otherwise.

An arc system lives on one integer lattice, as the interval operads do: one
positive denominator ``den``, the least multiple of ``2m`` over which every
coordinate is an integer, and the integer numerators over it.  So composing,
acting, comparing and validating build no Fraction; the (Turn, Fraction)
pairs and the gaps are views for the boundary.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .groups import CyclicElem, Perm, WreathElem, slot_act
from .operads import lattice, substitute
from .rational import (InvariantViolation, MismatchError, Turn, _draw_num,
                       composition_nums, first_overlap, over_common_denominator,
                       rat)

Pair = tuple[Turn, Fraction]
UPairs = Sequence[tuple[Fraction, Fraction]]


@dataclass(frozen=True, init=False, repr=False)
class ArcSystem:
    """n framed arcs on S^1/C_m with one gap angle per arc (all in turns),
    stored as integer numerators over `den`: the centers `zs` (mod den, one
    turn), the radii `rs` and the gaps `ps`.  The quantum 1/m is den/m.

    `ArcSystem(m, pairs, phi)` builds one from (Turn, Fraction) pairs and
    Fraction gaps; `on_lattice` from numerators.  `pairs`, `centers()`,
    `radii()` and `phi` are Fraction views, and the repr is that of the
    views."""

    m: int
    den: int
    zs: tuple[int, ...]
    rs: tuple[int, ...]
    ps: tuple[int, ...]

    def __init__(self, m: int, pairs: Sequence[Pair],
                 phi: Sequence[Fraction]) -> None:
        pairs, phi = tuple(pairs), tuple(map(rat, phi))
        if m < 1:
            raise InvariantViolation("m must be >= 1")
        if any(z.modulus != 1 for z, _ in pairs):
            raise InvariantViolation("centers must live on S^1 (modulus 1)")
        n = len(pairs)
        # the least common denominator with 2m is the least valid den, and
        # a Turn's value lies in [0, 1), so its numerator in [0, den)
        den, nums = over_common_denominator(
            [z.value for z, _ in pairs] + [r for _, r in pairs] + list(phi), 2 * m)
        _fill(self, m, den, nums[:n], nums[n:2 * n], nums[2 * n:])
        self.validate()

    @classmethod
    def on_lattice(cls, m: int, den: int, zs: Sequence[int], rs: Sequence[int],
                   ps: Sequence[int]) -> "ArcSystem":
        """The validated arc system of numerators over den, a positive
        multiple of 2m: reduced to the least such den, centers mod den."""
        g = math.gcd(den // (2 * m), *zs, *rs, *ps)
        if g > 1:
            den //= g
            zs, rs, ps = ([v // g for v in zs], [v // g for v in rs],
                          [v // g for v in ps])
        x = object.__new__(cls)
        _fill(x, m, den, [z % den for z in zs], rs, ps)
        x.validate()
        return x

    @property
    def n(self) -> int:
        return len(self.zs)

    def centers(self) -> tuple[Turn, ...]:
        return tuple(Turn(Fraction(z, self.den)) for z in self.zs)

    def radii(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(r, self.den) for r in self.rs)

    @property
    def pairs(self) -> tuple[Pair, ...]:
        return tuple(zip(self.centers(), self.radii()))

    @property
    def phi(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(p, self.den) for p in self.ps)

    @property
    def variant(self) -> str:
        """``uCc`` when there is an arc and every radius is zero, else ``uEc``."""
        return "uCc" if self.rs and not any(self.rs) else "uEc"

    def __repr__(self) -> str:
        return f"ArcSystem(m={self.m!r}, pairs={self.pairs!r}, phi={self.phi!r})"

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Every check runs on the numerators over den, a multiple of 2m,
        on which the quantum 1/m is den/m and its half den/2m; only an
        error text builds the Fractions it quotes."""
        m, one, zs, rs, ps = self.m, self.den, self.zs, self.rs, self.ps
        if m < 1:
            raise InvariantViolation("m must be >= 1")
        n = len(zs)
        if len(ps) != n:
            raise InvariantViolation("one gap per arc")
        if n == 0:
            return
        quantum, half = one // m, one // (2 * m)
        if min(rs) < 0 or max(rs) > half:
            r = next(r for r in rs if r < 0 or r > half)
            raise InvariantViolation(
                f"radius {Fraction(r, one)} outside [0, {Fraction(1, 2 * m)}]")
        # Coincident zero-radius images are admitted, so a pair of zero radii
        # can never fail; a system with no positive radius needs no check.
        if any(rs):
            pair = first_overlap(sorted((z % quantum, r, i)
                                        for i, (z, r) in enumerate(zip(zs, rs))),
                                 quantum)
            if pair:
                i, j = sorted(pair)
                raise InvariantViolation(
                    f"images of arcs {i} and {j} overlap with positive radius")
        if min(ps) < 0 or max(ps) > quantum:
            p = next(p for p in ps if p < 0 or p > quantum)
            raise InvariantViolation(
                f"gap {Fraction(p, one)} outside [0, {Fraction(1, m)}]")
        if sum(ps) != quantum:
            raise InvariantViolation(
                f"gap-sum invariant violated: sum(phi) = {Fraction(sum(ps), one)}"
                f" != {Fraction(1, m)}")
        for j, (z, z2, p) in enumerate(zip(zs, zs[1:] + zs[:1], ps)):
            # congruent mod 1/m  <=>  the numerators differ by a multiple of den/m
            if (z2 - z - p) % quantum:
                raise InvariantViolation(
                    f"center {j + 1} is not center {j} rotated by its gap (mod 1/m)")


def _fill(x: ArcSystem, m: int, den: int, zs, rs, ps) -> None:
    setattr_ = object.__setattr__
    setattr_(x, "m", m)
    setattr_(x, "den", den)
    setattr_(x, "zs", tuple(zs))
    setattr_(x, "rs", tuple(rs))
    setattr_(x, "ps", tuple(ps))


def check_variant(x: ArcSystem, label: str) -> None:
    """Raise unless a stated variant label is the one x's radii give."""
    if label != x.variant:
        raise InvariantViolation(
            f"variant {label!r} is not {x.variant!r}, the variant of these radii"
            " (uCc: at least one arc and every radius zero; otherwise uEc)")


def system(m: int, pairs: Sequence[tuple[Fraction, Fraction]],
           phi: Sequence[Fraction], variant: str) -> ArcSystem:
    """Build an ArcSystem from bare rationals (centers taken mod 1) and check
    the stated variant against it."""
    tp = tuple((Turn(Fraction(z)), Fraction(r)) for z, r in pairs)
    x = ArcSystem(m, tp, tuple(Fraction(p) for p in phi))
    check_variant(x, variant)
    return x


# ---------------------------------------------------------------------------
# composition with the compactified interval operad
# ---------------------------------------------------------------------------

def compose_uec(outer: ArcSystem, inners: Sequence[UPairs]) -> ArcSystem:
    """Substitute sorted interval tuples into the arcs of an outer system.

    inners[i] is a tuple of (center, scale) pairs from the non-symmetric
    compactified interval operad; block i lands inside arc i.  The output's
    gaps run from each composite center to the next: within a block that is
    the difference of the two centers, and from the last center of a block
    to the first of the next nonempty block it adds the outer gaps between
    their arcs, wrapping around after the last block.
    """
    m, n = outer.m, outer.n
    if len(inners) != n:
        raise MismatchError(
            f"arity mismatch: outer degree {n}, {len(inners)} inner blocks")
    blocks = [lattice((rat(v), rat(s)) for v, s in blk) for blk in inners]
    cden, nums = substitute((outer.den, tuple(zip(outer.zs, outer.rs))), blocks,
                            [1] * n)
    # Over E, the composite's centers and radii and every gap are integers:
    # a composite center is the outer center z_b plus its offset in arc b,
    # so the gap from block b to block b2 is the outer gaps between them,
    # plus z_b - z_b2, plus the offsets' difference.  The first three sum
    # to a multiple of the quantum, by the outer gap congruence.
    den = math.lcm(cden, 2 * m)
    k = den // cden
    cs = [c * k for c, _ in nums]
    zs, ps, quantum = outer.zs, outer.ps, outer.den // m
    before = [0]  # the outer gaps before each arc, on the outer lattice
    for p in ps:
        before.append(before[-1] + p)
    spans, at = [], 0  # (arc, first slot, last slot) of each nonempty block
    for b, (_, blk) in enumerate(blocks):
        if blk:
            spans.append((b, at, at + len(blk) - 1))
            at += len(blk)
    psi = []
    for i, (b, first, last) in enumerate(spans):
        psi.extend(cs[j + 1] - cs[j] for j in range(first, last))
        b2, first2, _ = spans[(i + 1) % len(spans)]
        acc = before[b2] - before[b] + (quantum if b2 <= b else 0)
        turns = (acc + zs[b] - zs[b2]) // quantum
        psi.append(turns * (den // m) + cs[first2] - cs[last])
    return ArcSystem.on_lattice(m, den, cs, [s * k for _, s in nums], psi)


# ---------------------------------------------------------------------------
# group actions
# ---------------------------------------------------------------------------

def cyclic_rotate(x: ArcSystem, alpha: Perm) -> ArcSystem:
    """Plain right rotation action (x . alpha)[i] = x[alpha(i)] for cyclic alpha."""
    if alpha.cycle_exponent() is None:
        raise InvariantViolation("only cyclic rotations preserve the ordering")
    if alpha.degree != x.n:
        raise MismatchError("degree mismatch")
    return ArcSystem.on_lattice(x.m, x.den, alpha.act(x.zs), alpha.act(x.rs),
                                alpha.act(x.ps))


def wreath_act(g: WreathElem, x: ArcSystem) -> ArcSystem:
    """Action of Z_n wr C_m: rotate indices, twist individual centers by C_m.

    The content of slot j moves to slot sigma(j), its center rotated by the
    j-th member (by exponent * den/m numerators); the distinguished
    generator of the cyclic subgroup of order m*n therefore carries the last
    arc to the front while rotating it by -1/m of a turn.
    """
    if g.degree != x.n:
        raise MismatchError("wreath degree mismatch")
    if g.perm.cycle_exponent() is None:
        raise InvariantViolation("permutation part must lie in Z_n")
    for c in g.members:
        if not isinstance(c, CyclicElem) or c.order != x.m:
            raise MismatchError("members must lie in C_m")
    step = x.den // x.m

    def rotate(arc: tuple[int, int, int], c: CyclicElem) -> tuple[int, int, int]:
        z, r, p = arc
        return z + c.exponent * step, r, p

    arcs = slot_act(g, tuple(zip(x.zs, x.rs, x.ps)), rotate)
    return ArcSystem.on_lattice(x.m, x.den, [a[0] for a in arcs],
                                [a[1] for a in arcs], [a[2] for a in arcs])


def circle_act(theta: Turn | Fraction, x: ArcSystem) -> ArcSystem:
    """Rotate every center by theta (diagonal circle action); gaps unchanged.
    The lattice is rescaled once when theta's denominator does not divide den."""
    t = theta.value if isinstance(theta, Turn) else rat(theta)
    den = math.lcm(x.den, t.denominator)
    k, shift = den // x.den, t.numerator * (den // t.denominator)
    return ArcSystem.on_lattice(x.m, den, [z * k + shift for z in x.zs],
                                [r * k for r in x.rs], [p * k for p in x.ps])


# ---------------------------------------------------------------------------
# the retraction endomorphism
# ---------------------------------------------------------------------------

def retract_step(x: ArcSystem) -> ArcSystem:
    """Time-1 endomorphism of the all-degenerate stratum: each center advances
    by half its gap and each gap is averaged with its successor.  n iterations
    make every gap positive.  An odd gap numerator doubles the lattice."""
    if any(x.rs):
        raise InvariantViolation("retraction is defined on zero-radius systems")
    k = 2 if any(p % 2 for p in x.ps) else 1
    zs, ps = [z * k for z in x.zs], [p * k for p in x.ps]
    return ArcSystem.on_lattice(
        x.m, x.den * k, [z + p // 2 for z, p in zip(zs, ps)], x.rs,
        [(p + p2) // 2 for p, p2 in zip(ps, ps[1:] + ps[:1])])


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_uec(rng: random.Random, m: int, n: int, den: int = 8,
               allow_zero_gaps: bool = True) -> ArcSystem:
    """Seeded random point of the compactified ordered configuration space.

    The gaps are a composition of 1/m with cuts over L = lcm(1..den), the
    first center and each radius's fraction of its cap a p/q with q <= den,
    and every coordinate is written over 2*m*L^2 before one reduction."""
    if n == 0:
        return ArcSystem(m, (), ())
    scale, cuts = composition_nums(rng, n, den, allow_zero_gaps)
    big = 2 * m * scale * scale
    gaps = [c * 2 * scale for c in cuts]  # c / (m*L) turns
    p, q = _draw_num(rng, den, 0, 1)
    zs = [p * (big // q)]
    for j in range(n - 1):
        shift = rng.randrange(m) * (big // m) if m > 1 else 0
        zs.append(zs[-1] + gaps[j] + shift)
    radii = []
    for j in range(n):
        # the cap is a multiple of L, and the quantum's half is L^2
        cap = min(gaps[j - 1], gaps[j]) // 2 if n > 1 else big // (2 * m)
        if cap == 0 or rng.randrange(5) < 2:
            radii.append(0)
        else:
            p, q = _draw_num(rng, den, 0, 1)
            radii.append(p * cap // q)
    return ArcSystem.on_lattice(m, big, zs, radii, gaps)


def sample_ucc(rng: random.Random, m: int, n: int, den: int = 8,
               allow_zero_gaps: bool = True) -> ArcSystem:
    x = sample_uec(rng, m, n, den, allow_zero_gaps=allow_zero_gaps)
    return ArcSystem.on_lattice(m, x.den, x.zs, (0,) * x.n, x.ps)
