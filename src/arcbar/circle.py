"""Framed arc configurations on the quotient circle and their composition
algebra: centers on the unit circle, radii in turns, and recorded gap angles
summing to the circumference of the quotient.

An :class:`ArcSystem` is a point of the compactification ``uEc``: radii may
vanish, coincident centers are admitted along runs of zero gaps, and the gap
angles are part of the data.  Its ``variant`` is derived: ``uCc`` when there
is an arc and every radius is zero, ``uEc`` otherwise.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .groups import CyclicElem, Perm, WreathElem, slot_act
from .operads import lattice, pair_view, substitute
from .rational import (InvariantViolation, MismatchError, Turn, _draw_rat,
                       draw_composition, first_overlap, over_common_denominator,
                       rat)

Pair = tuple[Turn, Fraction]
UPairs = Sequence[tuple[Fraction, Fraction]]


@dataclass(frozen=True)
class ArcSystem:
    """n framed arcs on S^1/C_m with one gap angle per arc (all in turns)."""

    m: int
    pairs: tuple[Pair, ...]
    phi: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(self.pairs))
        object.__setattr__(self, "phi", tuple(map(rat, self.phi)))
        self.validate()

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def quantum(self) -> Fraction:
        """Circumference of the quotient circle, 1/m turns."""
        return Fraction(1, self.m)

    def centers(self) -> tuple[Turn, ...]:
        return tuple(z for z, _ in self.pairs)

    def radii(self) -> tuple[Fraction, ...]:
        return tuple(r for _, r in self.pairs)

    @property
    def variant(self) -> str:
        """``uCc`` when there is an arc and every radius is zero, else ``uEc``."""
        return "uCc" if self.pairs and not any(r for _, r in self.pairs) else "uEc"

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        if self.m < 1:
            raise InvariantViolation("m must be >= 1")
        for z, _ in self.pairs:
            if z.modulus != 1:
                raise InvariantViolation("centers must live on S^1 (modulus 1)")
        if len(self.phi) != self.n:
            raise InvariantViolation("one gap per arc")
        if self.n == 0:
            return
        # every check runs on integer numerators over one denominator D, a
        # multiple of 2m, on which the quantum 1/m is D/m and its half D/2m;
        # the error texts quote the Fractions
        q = self.quantum
        zs = [z.value for z, _ in self.pairs]
        radii = [r for _, r in self.pairs]
        phi = self.phi
        one, nums = over_common_denominator(zs + radii + list(phi), 2 * self.m)
        n, quantum, half = self.n, one // self.m, one // (2 * self.m)
        szs, srs, sphi = nums[:n], nums[n:2 * n], nums[2 * n:]
        for r, sr in zip(radii, srs):
            if sr < 0 or sr > half:
                raise InvariantViolation(f"radius {r} outside [0, {q / 2}]")
        # Coincident zero-radius images are admitted, so a pair of zero radii
        # can never fail; a system with no positive radius needs no check.
        if any(srs):
            pair = first_overlap(sorted((z % quantum, r, i)
                                        for i, (z, r) in enumerate(zip(szs, srs))),
                                 quantum)
            if pair:
                i, j = sorted(pair)
                raise InvariantViolation(
                    f"images of arcs {i} and {j} overlap with positive radius")
        for p, sp in zip(phi, sphi):
            if sp < 0 or sp > quantum:
                raise InvariantViolation(f"gap {p} outside [0, {q}]")
        if sum(sphi) != quantum:
            raise InvariantViolation(
                f"gap-sum invariant violated: sum(phi) = {sum(phi)} != {q}")
        for j in range(n):
            # congruent mod 1/m  <=>  the numerators differ by a multiple of D/m
            if (szs[(j + 1) % n] - szs[j] - sphi[j]) % quantum:
                raise InvariantViolation(
                    f"center {j + 1} is not center {j} rotated by its gap (mod 1/m)")


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
    compactified interval operad; block i lands inside arc i.  Gap angles of
    the output are produced by the three-case bookkeeping (within a block,
    between blocks, wrap-around), with runs of empty blocks accumulating
    their gap contributions.
    """
    phi = outer.phi
    if len(inners) != outer.n:
        raise MismatchError(
            f"arity mismatch: outer degree {outer.n}, {len(inners)} inner blocks")
    inners = [tuple((rat(v), rat(s)) for v, s in blk) for blk in inners]
    sizes = [len(blk) for blk in inners]
    lat = substitute(lattice((z.value, r) for z, r in outer.pairs),
                     [lattice(blk) for blk in inners], [1] * outer.n)
    pairs = [(Turn(v), s) for v, s in pair_view(*lat)]

    def gap_to_next_block(b: int) -> tuple[Fraction, int]:
        """Sum of outer gaps from arc b to the next nonempty block (cyclically)."""
        acc = Fraction(0)
        idx = b
        while True:
            acc += phi[idx]
            idx = (idx + 1) % outer.n
            if sizes[idx] > 0:
                return acc, idx

    psi: list[Fraction] = []
    for b, blk in enumerate(inners):
        rb = outer.pairs[b][1]
        psi.extend(rb * (w2 - w1) for (w1, _), (w2, _) in zip(blk, blk[1:]))
        if blk:
            acc, b2 = gap_to_next_block(b)
            psi.append(acc - rb * blk[-1][0] + outer.pairs[b2][1] * inners[b2][0][0])

    return ArcSystem(outer.m, tuple(pairs), tuple(psi))


# ---------------------------------------------------------------------------
# group actions
# ---------------------------------------------------------------------------

def cyclic_rotate(x: ArcSystem, alpha: Perm) -> ArcSystem:
    """Plain right rotation action (x . alpha)[i] = x[alpha(i)] for cyclic alpha."""
    if alpha.cycle_exponent() is None:
        raise InvariantViolation("only cyclic rotations preserve the ordering")
    if alpha.degree != x.n:
        raise MismatchError("degree mismatch")
    return ArcSystem(x.m, alpha.act(x.pairs), alpha.act(x.phi))


def wreath_act(g: WreathElem, x: ArcSystem) -> ArcSystem:
    """Action of Z_n wr C_m: rotate indices, twist individual centers by C_m.

    The content of slot j moves to slot sigma(j), its center rotated by the
    j-th member; the distinguished generator of the cyclic subgroup of order
    m*n therefore carries the last arc to the front while rotating it by
    -1/m of a turn.
    """
    if g.degree != x.n:
        raise MismatchError("wreath degree mismatch")
    if g.perm.cycle_exponent() is None:
        raise InvariantViolation("permutation part must lie in Z_n")
    for c in g.members:
        if not isinstance(c, CyclicElem) or c.order != x.m:
            raise MismatchError("members must lie in C_m")

    def rotate(pair: Pair, c: CyclicElem) -> Pair:
        z, r = pair
        return (z + Fraction(c.exponent, x.m), r)

    return ArcSystem(x.m, slot_act(g, x.pairs, rotate),
                     slot_act(g, x.phi, lambda p, _c: p))


def circle_act(theta: Turn | Fraction, x: ArcSystem) -> ArcSystem:
    """Rotate every center by theta (diagonal circle action); gaps unchanged."""
    t = theta.value if isinstance(theta, Turn) else Fraction(theta)
    pairs = tuple((z + t, r) for z, r in x.pairs)
    return ArcSystem(x.m, pairs, x.phi)


# ---------------------------------------------------------------------------
# the retraction endomorphism
# ---------------------------------------------------------------------------

def retract_step(x: ArcSystem) -> ArcSystem:
    """Time-1 endomorphism of the all-degenerate stratum: each center advances
    by half its gap and each gap is averaged with its successor.  n iterations
    make every gap positive."""
    if any(r != 0 for _, r in x.pairs):
        raise InvariantViolation("retraction is defined on zero-radius systems")
    gaps = x.phi
    pairs = tuple((z + p / 2, r) for (z, r), p in zip(x.pairs, gaps))
    phi = tuple((gaps[j] + gaps[(j + 1) % x.n]) / 2 for j in range(x.n))
    return ArcSystem(x.m, pairs, phi)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_uec(rng: random.Random, m: int, n: int, den: int = 8,
               allow_zero_gaps: bool = True) -> ArcSystem:
    """Seeded random point of the compactified ordered configuration space."""
    if n == 0:
        return ArcSystem(m, (), ())
    q = Fraction(1, m)
    phi = draw_composition(rng, q, n, den, allow_zero=allow_zero_gaps)
    z0 = _draw_rat(rng, den, Fraction(0), Fraction(1))
    zs = [Turn(z0)]
    for j in range(n - 1):
        shift = Fraction(rng.randrange(m), m) if m > 1 else Fraction(0)
        zs.append(zs[-1] + phi[j] + shift)
    radii = []
    for j in range(n):
        cap = min(phi[j - 1], phi[j]) / 2 if n > 1 else q / 2
        if cap == 0 or rng.randrange(5) < 2:
            radii.append(Fraction(0))
        else:
            radii.append(_draw_rat(rng, den, Fraction(0), Fraction(1)) * cap)
    return ArcSystem(m, tuple(zip(zs, radii)), phi)


def sample_ucc(rng: random.Random, m: int, n: int, den: int = 8,
               allow_zero_gaps: bool = True) -> ArcSystem:
    x = sample_uec(rng, m, n, den, allow_zero_gaps=allow_zero_gaps)
    pairs = tuple((z, Fraction(0)) for z, _ in x.pairs)
    return ArcSystem(m, pairs, x.phi)
