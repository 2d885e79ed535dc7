"""Framed arc configurations on the quotient circle and their composition
algebra: centers on the unit circle, radii in turns, and recorded gap angles
summing to the circumference of the quotient.

Variants of :class:`ArcSystem`:

* ``E``   -- unordered disjoint arcs, positive radii, no gap data;
* ``uE``  -- as ``E`` but counterclockwise-ordered starting at index 0;
* ``uEprime`` -- ``uE`` with the gap angles filled in;
* ``uEc`` -- the compactification: radii may vanish, coincident centers are
  admitted along runs of zero gaps, gap angles are part of the data;
* ``uCc`` -- the ``uEc`` points with all radii zero.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .groups import CyclicElem, Perm, WreathElem, slot_act
from .rational import (InvariantViolation, MismatchError, Turn, _draw_rat,
                       check_nonzero_composition, draw_composition,
                       images_overlap, mod_frac, rat)

Pair = tuple[Turn, Fraction]
UPairs = Sequence[tuple[Fraction, Fraction]]

VARIANTS = ("E", "uE", "uEprime", "uEc", "uCc")


@dataclass(frozen=True)
class ArcSystem:
    """n framed arcs on S^1/C_m with optional gap angles (all in turns)."""

    m: int
    pairs: tuple[Pair, ...]
    phi: tuple[Fraction, ...] | None
    variant: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if self.phi is not None:
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
    def gaps(self) -> tuple[Fraction, ...]:
        """The gap angles, which every variant except ``E`` and ``uE`` carries."""
        if self.phi is None:
            raise MismatchError(f"variant {self.variant} carries no gap angles")
        return self.phi

    def sort_key(self):
        return (self.m, self.n, self.variant,
                tuple(z.value for z, _ in self.pairs),
                tuple(r for _, r in self.pairs),
                self.phi if self.phi is not None else ())

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        if self.m < 1:
            raise InvariantViolation("m must be >= 1")
        if self.variant not in VARIANTS:
            raise InvariantViolation(f"unknown variant {self.variant!r}")
        for z, _ in self.pairs:
            if z.modulus != 1:
                raise InvariantViolation("centers must live on S^1 (modulus 1)")
        if self.variant in ("E", "uE"):
            if self.phi is not None:
                raise InvariantViolation(f"variant {self.variant} carries no gaps")
        else:
            if self.phi is None:
                raise InvariantViolation(f"variant {self.variant} requires gaps")
            if len(self.phi) != self.n:
                raise InvariantViolation("one gap per arc")
        if self.n == 0:
            return
        q = self.quantum
        half = q / 2
        strict_r = self.variant in ("E", "uE", "uEprime")
        for _, r in self.pairs:
            if r < 0 or r > half or (strict_r and r == 0):
                bound = f"(0, {half}]" if strict_r else f"[0, {half}]"
                raise InvariantViolation(f"radius {r} outside {bound}")
        if self.variant == "uCc" and any(r != 0 for _, r in self.pairs):
            raise InvariantViolation("uCc requires all radii zero")
        self._check_images(q)
        if self.variant in ("uE", "uEprime"):
            gaps = self._consecutive_gaps(q)
            if any(g == 0 for g in gaps):
                raise InvariantViolation("coincident centers in a strict variant")
            if sum(gaps) != q:
                raise InvariantViolation(
                    "centers not in counterclockwise order starting at index 0")
        if self.phi is not None:
            self._check_gaps(self.phi, q)

    def _check_images(self, q: Fraction) -> None:
        # Coincident zero-radius images are admitted, so a pair of zero radii
        # can never fail; a system with no positive radius needs no check.
        rs = self.radii()
        if not any(rs):
            return
        cls = [z.reduced(q) for z, _ in self.pairs]
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (rs[i] or rs[j]) and images_overlap(cls[i], rs[i], cls[j], rs[j]):
                    raise InvariantViolation(
                        f"images of arcs {i} and {j} overlap with positive radius")

    def _consecutive_gaps(self, q: Fraction) -> list[Fraction]:
        if self.n == 1:
            return [q]
        zs = [z.value for z, _ in self.pairs]
        return [mod_frac(zs[(j + 1) % self.n] - zs[j], q) for j in range(self.n)]

    def _check_gaps(self, phi: tuple[Fraction, ...], q: Fraction) -> None:
        for p in phi:
            if p < 0 or p > q:
                raise InvariantViolation(f"gap {p} outside [0, {q}]")
        if sum(phi) != q:
            raise InvariantViolation(
                f"gap-sum invariant violated: sum(phi) = {sum(phi)} != {q}")
        zs = [z.value for z, _ in self.pairs]
        for j in range(self.n):
            lhs = zs[(j + 1) % self.n]
            rhs = zs[j] + phi[j]
            # congruent mod 1/m  <=>  m * (lhs - rhs) is an integer
            if ((lhs - rhs) * self.m).denominator != 1:
                raise InvariantViolation(
                    f"center {j + 1} is not center {j} rotated by its gap (mod 1/m)")


def system(m: int, pairs: Sequence[tuple[Fraction, Fraction]],
           phi: Sequence[Fraction] | None, variant: str) -> ArcSystem:
    """Build an ArcSystem from bare rationals (centers taken mod 1)."""
    tp = tuple((Turn(Fraction(z)), Fraction(r)) for z, r in pairs)
    return ArcSystem(m, tp, tuple(Fraction(p) for p in phi) if phi is not None else None,
                     variant)


# ---------------------------------------------------------------------------
# arc coordinates: uE <-> uE'
# ---------------------------------------------------------------------------

def arc_coords(x: ArcSystem) -> ArcSystem:
    """Fill in the counterclockwise gap angles of an ordered configuration."""
    if x.variant not in ("uE", "uEprime"):
        raise MismatchError("arc coordinates are defined on ordered configurations")
    if x.n == 0:
        return replace(x, phi=(), variant="uEprime")
    q = x.quantum
    zs = [z.value for z, _ in x.pairs]
    if x.n == 1:
        gaps = [q]
    else:
        gaps = [mod_frac(zs[(j + 1) % x.n] - zs[j], q) for j in range(x.n)]
    if any(g == 0 for g in gaps):
        raise InvariantViolation("degenerate input: coincident centers")
    if sum(gaps) != q:
        raise InvariantViolation("centers are not in counterclockwise order")
    return ArcSystem(x.m, x.pairs, tuple(gaps), "uEprime")


def drop_coords(x: ArcSystem) -> ArcSystem:
    """The projection that forgets the gap angles."""
    if x.variant != "uEprime":
        raise MismatchError("projection is defined on uEprime")
    return ArcSystem(x.m, x.pairs, None, "uE")


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
    if phi is None:
        raise MismatchError("outer system must carry gap angles")
    if len(inners) != outer.n:
        raise MismatchError(
            f"arity mismatch: outer degree {outer.n}, {len(inners)} inner blocks")
    inners = [tuple((Fraction(v), Fraction(s)) for v, s in blk) for blk in inners]
    m = outer.m
    sizes = [len(blk) for blk in inners]
    total = sum(sizes)
    if total == 0:
        return ArcSystem(m, (), (), "uEc")

    pairs: list[Pair] = []
    flat: list[tuple[int, int]] = []  # flat index -> (block, slot)
    for b, blk in enumerate(inners):
        zb, rb = outer.pairs[b]
        for k, (v, s) in enumerate(blk):
            pairs.append((zb + rb * v, rb * s))
            flat.append((b, k))

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
    for ell in range(total):
        b, k = flat[ell]
        rb = outer.pairs[b][1]
        if k < sizes[b] - 1:
            psi.append(rb * (inners[b][k + 1][0] - inners[b][k][0]))
        else:
            acc, b2 = gap_to_next_block(b)
            r2 = outer.pairs[b2][1]
            psi.append(acc - rb * inners[b][k][0] + r2 * inners[b2][0][0])

    variant = "uCc" if all(r == 0 for _, r in pairs) else "uEc"
    return ArcSystem(m, tuple(pairs), tuple(psi), variant)


# ---------------------------------------------------------------------------
# group actions
# ---------------------------------------------------------------------------

def cyclic_rotate(x: ArcSystem, alpha: Perm) -> ArcSystem:
    """Plain right rotation action (x . alpha)[i] = x[alpha(i)] for cyclic alpha."""
    if alpha.cycle_exponent() is None:
        raise InvariantViolation("only cyclic rotations preserve the ordering")
    if alpha.degree != x.n:
        raise MismatchError("degree mismatch")
    pairs = alpha.act(x.pairs)
    phi = alpha.act(x.phi) if x.phi is not None else None
    return ArcSystem(x.m, pairs, phi, x.variant)


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

    pairs = slot_act(g, x.pairs, rotate)
    phi = slot_act(g, x.phi, lambda p, _c: p) if x.phi is not None else None
    return ArcSystem(x.m, pairs, phi, x.variant)


def circle_act(theta: Turn | Fraction, x: ArcSystem) -> ArcSystem:
    """Rotate every center by theta (diagonal circle action); gaps unchanged."""
    t = theta.value if isinstance(theta, Turn) else Fraction(theta)
    pairs = tuple((z + t, r) for z, r in x.pairs)
    return ArcSystem(x.m, pairs, x.phi, x.variant)


# ---------------------------------------------------------------------------
# the retraction endomorphism
# ---------------------------------------------------------------------------

def retract_step(x: "ArcSystem | SystemWithPerm") -> "ArcSystem | SystemWithPerm":
    """Time-1 endomorphism of the all-degenerate stratum: each center advances
    by half its gap and each gap is averaged with its successor.  n iterations
    make every gap positive."""
    if isinstance(x, SystemWithPerm):
        return SystemWithPerm(retract_step(x.base), x.perm)
    if any(r != 0 for _, r in x.pairs):
        raise InvariantViolation("retraction is defined on zero-radius systems")
    if x.n == 0:
        return x
    gaps = x.gaps
    pairs = tuple((z + p / 2, r) for (z, r), p in zip(x.pairs, gaps))
    phi = tuple((gaps[j] + gaps[(j + 1) % x.n]) / 2 for j in range(x.n))
    return ArcSystem(x.m, pairs, phi, x.variant)


# ---------------------------------------------------------------------------
# ordered-with-permutation presentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemWithPerm:
    """A u-variant system with a permutation: the point (base . perm) of the
    symmetrized space, with the cyclic relabelling quotiented away by
    normalization."""

    base: ArcSystem
    perm: Perm

    def __post_init__(self) -> None:
        if self.base.n != self.perm.degree:
            raise MismatchError("permutation degree must match the arity")

    def sort_key(self):
        return (self.base.sort_key(), self.perm.images)

    def normalized(self) -> "SystemWithPerm":
        n = self.base.n
        if n == 0:
            return self
        candidates = []
        cyc = Perm.cycle(n)
        for k in range(n):
            alpha = cyc ** k
            cand = SystemWithPerm(cyclic_rotate(self.base, alpha),
                                  alpha.inverse().compose(self.perm))
            candidates.append(cand)
        return min(candidates, key=SystemWithPerm.sort_key)


def to_pair(x: ArcSystem) -> SystemWithPerm:
    """Split an unordered configuration into ordered base and permutation."""
    if x.variant != "E":
        raise MismatchError("pair presentation starts from an unordered system")
    if x.n == 0:
        return SystemWithPerm(ArcSystem(x.m, (), None, "uE"), Perm.identity(0))
    q = x.quantum
    cls = [z.reduced(q).value for z, _ in x.pairs]
    if len(set(cls)) != x.n:
        raise InvariantViolation("coincident centers admit no ordering")
    order = sorted(range(x.n), key=lambda i: cls[i])
    base = ArcSystem(x.m, tuple(x.pairs[i] for i in order), None, "uE")
    sigma = Perm(tuple(order)).inverse()
    return SystemWithPerm(base, sigma).normalized()


def from_pair(p: SystemWithPerm) -> ArcSystem:
    pairs = p.perm.act(p.base.pairs)
    return ArcSystem(p.base.m, pairs, None, "E")


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_uec(rng: random.Random, m: int, n: int, den: int = 8,
               allow_zero_gaps: bool = True, allow_zero_radii: bool = True,
               spread: bool = True) -> ArcSystem:
    """Seeded random point of the compactified ordered configuration space.

    With allow_zero_radii=False the whole point is drawn again until every
    radius is positive; raises InvariantViolation when that cannot happen.
    """
    if n == 0:
        return ArcSystem(m, (), (), "uEc")
    q = Fraction(1, m)
    if not allow_zero_radii and n > 1:
        # a positive radius needs both neighbouring gaps positive
        check_nonzero_composition(q, n, den)
    while True:
        phi = draw_composition(rng, q, n, den, allow_zero=allow_zero_gaps)
        z0 = _draw_rat(rng, den, Fraction(0), Fraction(1))
        zs = [Turn(z0)]
        for j in range(n - 1):
            shift = Fraction(rng.randrange(m), m) if (spread and m > 1) else Fraction(0)
            zs.append(zs[-1] + phi[j] + shift)
        radii = []
        for j in range(n):
            cap = min(phi[j - 1], phi[j]) / 2 if n > 1 else q / 2
            if cap == 0 or (allow_zero_radii and rng.randrange(5) < 2):
                radii.append(Fraction(0))
            else:
                radii.append(_draw_rat(rng, den, Fraction(0), Fraction(1)) * cap)
        if allow_zero_radii or all(radii):
            break
    pairs = tuple((z, r) for z, r in zip(zs, radii))
    variant = "uCc" if all(r == 0 for r in radii) else "uEc"
    return ArcSystem(m, pairs, phi, variant)


def sample_ucc(rng: random.Random, m: int, n: int, den: int = 8,
               allow_zero_gaps: bool = True) -> ArcSystem:
    x = sample_uec(rng, m, n, den, allow_zero_gaps=allow_zero_gaps)
    pairs = tuple((z, Fraction(0)) for z, _ in x.pairs)
    return ArcSystem(m, pairs, x.phi, "uCc")


def sample_ue(rng: random.Random, m: int, n: int, den: int = 8,
              with_coords: bool = False) -> ArcSystem:
    x = sample_uec(rng, m, n, den, allow_zero_gaps=False, allow_zero_radii=False,
                   spread=True)
    if with_coords:
        return ArcSystem(x.m, x.pairs, x.phi, "uEprime")
    return ArcSystem(x.m, x.pairs, None, "uE")


def sample_e(rng: random.Random, m: int, n: int, den: int = 8) -> ArcSystem:
    x = sample_ue(rng, m, n, den)
    sigma = Perm(tuple(rng.sample(range(n), n)))
    return ArcSystem(x.m, sigma.act(x.pairs), None, "E")
