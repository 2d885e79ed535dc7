"""Operads over exact rationals: the associative operad, little 1-disks,
framed little disks for a sign-acting group, the compactified operad, and the
semidirect-product presentation, together with a seeded law-checking harness.

One-dimensional disks throughout: a disk is the affine map t -> v + r*rho(h)*t
on [-1, 1], stored by its parameters.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .groups import CyclicElem, Perm, block_perm, block_sum
from .rational import (InvariantViolation, MismatchError, _draw_num, first_overlap,
                       over_common_denominator)
from .report import Report

Pair = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class SignedGroup:
    """A finite cyclic group H = C_order acting on R by signs: the generator
    acts by -1 when the order is even, and trivially when it is odd."""

    order: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise InvariantViolation("order must be >= 1")

    def sign(self, h: CyclicElem) -> int:
        if h.order != self.order:
            raise MismatchError("element from a different group")
        return -1 if self.order % 2 == 0 and h.exponent % 2 else 1

    def identity(self) -> CyclicElem:
        return CyclicElem.identity(self.order)


C2_SIGN = SignedGroup(2)


# ---------------------------------------------------------------------------
# element types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssocElem:
    """n-ary part of the associative operad: a permutation."""

    perm: Perm

    @property
    def arity(self) -> int:
        return self.perm.degree


@dataclass(frozen=True)
class DiskTuple:
    """Little 1-disk configuration: pairwise disjoint intervals in [-1, 1]."""

    pairs: tuple[Pair, ...]

    @property
    def arity(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class FramedTuple:
    """Framed little disks: intervals decorated by sign-acting group elements."""

    pairs: tuple[tuple[Fraction, Fraction, CyclicElem], ...]
    group: SignedGroup

    @property
    def arity(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SemidirectElem:
    """Element of the semidirect product (little disks x H^n, twisted compose)."""

    disk: DiskTuple
    members: tuple[CyclicElem, ...]
    group: SignedGroup

    @property
    def arity(self) -> int:
        return self.disk.arity


@dataclass(frozen=True)
class CompactElem:
    """Compactified operad element: a sorted, possibly degenerate interval
    tuple together with a permutation recording the original labelling."""

    u_pairs: tuple[Pair, ...]
    perm: Perm

    def __post_init__(self) -> None:
        if len(self.u_pairs) != self.perm.degree:
            raise MismatchError("u-part length and permutation degree differ")

    @property
    def arity(self) -> int:
        return len(self.u_pairs)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _scaled(pairs: Sequence[Pair]) -> tuple[int, list[tuple[int, int]]]:
    """One common denominator D of the pairs, and each pair's integer
    numerators over it: the interval checks run on these integers."""
    one, nums = over_common_denominator([c for pair in pairs for c in pair])
    return one, list(zip(nums[::2], nums[1::2]))


def validate_disk_tuple(d: DiskTuple) -> None:
    """Intervals with positive radii inside [-1, 1] whose open images are
    pairwise disjoint."""
    one, scaled = _scaled(d.pairs)
    for (v, r), (sv, sr) in zip(d.pairs, scaled):
        if not (0 < sr <= one):
            raise InvariantViolation(f"radius {r} outside (0, 1]")
        if abs(sv) + sr > one:
            raise InvariantViolation(f"image of [-1,1] under t -> {v}+{r}t leaves [-1,1]")
    pair = first_overlap(sorted((v, r, i) for i, (v, r) in enumerate(scaled)))
    if pair:
        i, j = sorted(pair)
        raise InvariantViolation(f"open images of disks {i} and {j} overlap")


def validate_compact(c: CompactElem) -> None:
    one, scaled = _scaled(c.u_pairs)
    for (v, r), (sv, sr) in zip(c.u_pairs, scaled):
        if not (0 <= sr <= one):
            raise InvariantViolation(f"radius {r} outside [0, 1]")
        if abs(sv) + sr > one:
            raise InvariantViolation(f"image of [-1,1] under t -> {v}+{r}t leaves [-1,1]")
    if any(a[0] > b[0] for a, b in zip(scaled, scaled[1:])):
        raise InvariantViolation("centers not sorted")
    pair = first_overlap([(v, r, j) for j, (v, r) in enumerate(scaled)])
    if pair:
        raise InvariantViolation(
            f"overlapping images at slots {pair[0]},{pair[1]} with positive radius")


def substitute(outer: Sequence[Pair], blocks: Sequence[Sequence[Pair]],
               signs: Sequence[int]) -> list[Pair]:
    """Composition of interval tuples: block i lands in outer interval
    (v, r), reflected by the sign e of that slot, as (v + e*r*w, r*s).
    With v = a/b and r = c/d, v + e*r*w = (a*d*y + e*c*b*x) / (b*d*y) for
    w = x/y, so each coordinate is one reduced Fraction of integers."""
    out = []
    for (v, r), e, block in zip(outer, signs, blocks):
        b, c, d = v.denominator, r.numerator, r.denominator
        ad, ecb, bd = v.numerator * d, e * c * b, b * d
        for w, s in block:
            y = w.denominator
            out.append((Fraction(ad * y + ecb * w.numerator, bd * y),
                        Fraction(c * s.numerator, d * s.denominator)))
    return out


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def _sample_cells(rng: random.Random, arity: int, den: int,
                  allow_zero: bool) -> list[Pair]:
    """Disjoint intervals, one per cell of an arity-fold split of [-1, 1].

    Cell i has center (2i+1-arity)/arity and half-width 1/arity.  A draw p/q
    in [-1, 1] moves the center by at most half the half-width, to
    v = ((2i+1-arity)*2q + p) / (2*arity*q); a draw p/q in [0, 1] gives the
    radius p / (4*arity*q), and 1 / (8*arity) stands in for a zero radius
    when none is allowed."""
    if arity == 0:
        return []
    out: list[Pair] = []
    for i in range(arity):
        p, q = _draw_num(rng, den, -1, 1)
        v = Fraction((2 * i + 1 - arity) * 2 * q + p, 2 * arity * q)
        if allow_zero and rng.randrange(3) == 0:
            r = Fraction(0)
        else:
            p, q = _draw_num(rng, den, 0, 1)
            r = Fraction(p, 4 * arity * q) if p or allow_zero else Fraction(1, 8 * arity)
        out.append((v, r))
    if allow_zero and arity >= 2 and rng.randrange(4) == 0:
        # coincident degenerate cluster, exercising the boundary strata
        i = rng.randrange(arity - 1)
        out[i] = (out[i][0], Fraction(0))
        out[i + 1] = (out[i][0], Fraction(0))
    return out


def _rand_perm(rng: random.Random, n: int) -> Perm:
    images = list(range(n))
    rng.shuffle(images)
    return Perm(tuple(images))


# Each instance class says whether the law checks sample arity-0 elements;
# the suites and the command line both read `allow_nullary` from it.

class AssocOperad:
    name = "assoc"
    allow_nullary = True

    def unit(self) -> AssocElem:
        return AssocElem(Perm.identity(1))

    def sample(self, rng: random.Random, arity: int) -> AssocElem:
        return AssocElem(_rand_perm(rng, arity))

    def validate(self, x: AssocElem) -> None:
        pass

    def act(self, x: AssocElem, sigma: Perm) -> AssocElem:
        return AssocElem(x.perm.compose(sigma))

    def compose(self, outer: AssocElem, inners: Sequence[AssocElem]) -> AssocElem:
        if len(inners) != outer.arity:
            raise MismatchError("arity mismatch")
        sizes = [b.arity for b in inners]
        perm = block_perm(outer.perm, sizes).compose(
            block_sum([b.perm for b in inners]))
        return AssocElem(perm)


class LittleDiskOperad:
    name = "dR"
    allow_nullary = False

    def unit(self) -> DiskTuple:
        return DiskTuple(((Fraction(0), Fraction(1)),))

    def sample(self, rng: random.Random, arity: int) -> DiskTuple:
        pairs = _sample_cells(rng, arity, den=8, allow_zero=False)
        full = _rand_perm(rng, arity).act(tuple(pairs))
        return DiskTuple(full)

    def validate(self, x: DiskTuple) -> None:
        validate_disk_tuple(x)

    def act(self, x: DiskTuple, sigma: Perm) -> DiskTuple:
        return DiskTuple(sigma.act(x.pairs))

    def compose(self, outer: DiskTuple, inners: Sequence[DiskTuple]) -> DiskTuple:
        if len(inners) != outer.arity:
            raise MismatchError("arity mismatch")
        out = DiskTuple(tuple(substitute(outer.pairs, [b.pairs for b in inners],
                                         [1] * outer.arity)))
        self.validate(out)
        return out


class FramedOperad:
    """The framed little 1-disk operad for a sign-acting cyclic group."""

    allow_nullary = False

    def __init__(self, group: SignedGroup):
        self.group = group
        self.name = f"framed-c{group.order}"

    def unit(self) -> FramedTuple:
        return FramedTuple(((Fraction(0), Fraction(1), self.group.identity()),),
                           self.group)

    def sample(self, rng: random.Random, arity: int) -> FramedTuple:
        pairs = _sample_cells(rng, arity, den=8, allow_zero=False)
        hs = [CyclicElem(self.group.order, rng.randrange(self.group.order))
              for _ in range(arity)]
        full = _rand_perm(rng, arity).act(
            tuple((v, r, h) for (v, r), h in zip(pairs, hs)))
        return FramedTuple(full, self.group)

    def validate(self, x: FramedTuple) -> None:
        validate_disk_tuple(DiskTuple(tuple((v, r) for v, r, _ in x.pairs)))
        if any(h.order != x.group.order for _, _, h in x.pairs):
            raise MismatchError("group member from a different group")

    def act(self, x: FramedTuple, sigma: Perm) -> FramedTuple:
        return FramedTuple(sigma.act(x.pairs), x.group)

    def compose(self, outer: FramedTuple, inners: Sequence[FramedTuple]) -> FramedTuple:
        if len(inners) != outer.arity:
            raise MismatchError("arity mismatch")
        intervals = substitute([(v, r) for v, r, _ in outer.pairs],
                               [[(w, s) for w, s, _ in b.pairs] for b in inners],
                               [self.group.sign(h) for _, _, h in outer.pairs])
        members = [h.compose(g) for (_, _, h), b in zip(outer.pairs, inners)
                   for _, _, g in b.pairs]
        out = FramedTuple(tuple((v, r, g) for (v, r), g in zip(intervals, members)),
                          self.group)
        self.validate(out)
        return out


class SemidirectOperad:
    """Little disks x H^n with composition twisted by the H-conjugation action."""

    allow_nullary = False

    def __init__(self, group: SignedGroup):
        self.group = group
        self.name = f"semidirect-c{group.order}"

    def unit(self) -> SemidirectElem:
        return SemidirectElem(LITTLE_DISKS.unit(), (self.group.identity(),),
                              self.group)

    def sample(self, rng: random.Random, arity: int) -> SemidirectElem:
        disk = LITTLE_DISKS.sample(rng, arity)
        hs = tuple(CyclicElem(self.group.order, rng.randrange(self.group.order))
                   for _ in range(arity))
        return SemidirectElem(disk, hs, self.group)

    def validate(self, x: SemidirectElem) -> None:
        validate_disk_tuple(x.disk)

    def act(self, x: SemidirectElem, sigma: Perm) -> SemidirectElem:
        return SemidirectElem(LITTLE_DISKS.act(x.disk, sigma),
                              sigma.act(x.members), x.group)

    def _conjugate(self, h: CyclicElem, d: DiskTuple) -> DiskTuple:
        sign = self.group.sign(h)
        return DiskTuple(tuple((sign * v, r) for v, r in d.pairs))

    def compose(self, outer: SemidirectElem,
                inners: Sequence[SemidirectElem]) -> SemidirectElem:
        if len(inners) != outer.arity:
            raise MismatchError("arity mismatch")
        disks = [self._conjugate(h, inner.disk)
                 for h, inner in zip(outer.members, inners)]
        disk = LITTLE_DISKS.compose(outer.disk, disks)
        members = tuple(h.compose(k) for h, b in zip(outer.members, inners)
                        for k in b.members)
        return SemidirectElem(disk, members, outer.group)


def sample_ucompact(rng: random.Random, arity: int, den: int = 8) -> tuple[Pair, ...]:
    """A sorted, possibly degenerate tuple: a point of the non-symmetric
    compactified operad."""
    return tuple(_sample_cells(rng, arity, den, allow_zero=True))


class CompactOperad:
    name = "dc"
    allow_nullary = True

    def unit(self) -> CompactElem:
        return CompactElem(((Fraction(0), Fraction(1)),), Perm.identity(1))

    def sample(self, rng: random.Random, arity: int) -> CompactElem:
        return CompactElem(sample_ucompact(rng, arity), _rand_perm(rng, arity))

    def validate(self, x: CompactElem) -> None:
        validate_compact(x)

    def act(self, x: CompactElem, sigma: Perm) -> CompactElem:
        return CompactElem(x.u_pairs, x.perm.compose(sigma))

    def compose(self, outer: CompactElem, inners: Sequence[CompactElem]) -> CompactElem:
        if len(inners) != outer.arity:
            raise MismatchError("arity mismatch")
        sizes = [b.arity for b in inners]
        inv = outer.perm.inverse()
        u = substitute(outer.u_pairs,
                       [inners[inv(p)].u_pairs for p in range(outer.arity)],
                       [1] * outer.arity)
        perm = block_perm(outer.perm, sizes).compose(
            block_sum([b.perm for b in inners]))
        out = CompactElem(tuple(u), perm)
        self.validate(out)
        return out


ASSOC = AssocOperad()
LITTLE_DISKS = LittleDiskOperad()
FRAMED_C2 = FramedOperad(C2_SIGN)
SEMIDIRECT_C2 = SemidirectOperad(C2_SIGN)
COMPACT = CompactOperad()

INSTANCES = {
    "assoc": ASSOC,
    "dR": LITTLE_DISKS,
    "framed-c2": FRAMED_C2,
    "semidirect-c2": SEMIDIRECT_C2,
    "dc": COMPACT,
}


# ---------------------------------------------------------------------------
# the structure maps between the instances
# ---------------------------------------------------------------------------

def assoc_to_compact(x: AssocElem) -> CompactElem:
    """sigma goes to the all-degenerate configuration ((0,0), ..., (0,0), sigma)."""
    zero = (Fraction(0), Fraction(0))
    return CompactElem(tuple(zero for _ in range(x.arity)), x.perm)


def little_to_compact(x: DiskTuple) -> CompactElem:
    """Split an unordered configuration into its sorted part and a permutation."""
    order = sorted(range(x.arity), key=lambda i: x.pairs[i])
    u = tuple(x.pairs[i] for i in order)
    # x = u . sigma with (u . sigma)[i] = u[sigma(i)]
    sigma = Perm(tuple(order)).inverse()
    return CompactElem(u, sigma)


def semidirect_iso(x: SemidirectElem) -> FramedTuple:
    """(lambda_i, h_i) -> (lambda_i o h_i, h_i): the n-ary comparison map."""
    pairs = tuple((v, r, h) for (v, r), h in zip(x.disk.pairs, x.members))
    return FramedTuple(pairs, x.group)


def semidirect_iso_inverse(x: FramedTuple) -> SemidirectElem:
    disk = DiskTuple(tuple((v, r) for v, r, _ in x.pairs))
    return SemidirectElem(disk, tuple(h for _, _, h in x.pairs), x.group)


# named structure maps: tag -> (function, source instance, target instance);
# each is required to commute with composition and the symmetric actions,
# which check_operad_map verifies
OPERAD_MAPS = {
    "assoc->dc": (assoc_to_compact, ASSOC, COMPACT),
    "dR->dc": (little_to_compact, LITTLE_DISKS, COMPACT),
    "semidirect->framed": (semidirect_iso, SEMIDIRECT_C2, FRAMED_C2),
}


# ---------------------------------------------------------------------------
# law harness
# ---------------------------------------------------------------------------

def split_blocks(flat: list, sizes: Sequence[int]) -> list[list]:
    out = []
    at = 0
    for s in sizes:
        out.append(flat[at:at + s])
        at += s
    return out


def check_operad_laws(instance, seed: int, trials: int,
                      max_arity: int = 3, allow_nullary: bool = True) -> Report:
    """Sampled associativity, unit, and equivariance checks; exact equality."""
    rng = random.Random(seed)
    rep = Report(instance.name, {"seed": seed, "trials": trials,
                                 "max_arity": max_arity,
                                 "allow_nullary": allow_nullary}, cases=trials)
    unit = instance.unit()
    lo = 0 if allow_nullary else 1
    for t in range(trials):
        n = rng.randint(1, max_arity)
        a = instance.sample(rng, n)
        bs = [instance.sample(rng, rng.randint(lo, max_arity)) for _ in range(n)]
        sizes = [b.arity for b in bs]
        j = sum(sizes)
        cs = [instance.sample(rng, rng.randint(lo, 2)) for _ in range(j)]

        with rep.guard("closure", f"trial {t}"):
            if instance.compose(unit, [a]) != a:
                rep.fail("unit-left", f"trial {t}")
            if instance.compose(a, [unit] * n) != a:
                rep.fail("unit-right", f"trial {t}")

            ab = instance.compose(a, bs)
            lhs = instance.compose(ab, cs)
            inner = [instance.compose(b, blk)
                     for b, blk in zip(bs, split_blocks(cs, sizes))]
            rhs = instance.compose(a, inner)
            if lhs != rhs:
                rep.fail("associativity", f"trial {t}")

            sigma = _rand_perm(rng, n)
            sigma_inv = sigma.inverse()
            lhs = instance.compose(instance.act(a, sigma), bs)
            permuted = [bs[sigma_inv(p)] for p in range(n)]
            rho = block_perm(sigma, sizes)
            rhs = instance.act(instance.compose(a, permuted), rho)
            if lhs != rhs:
                rep.fail("equivariance-outer", f"trial {t}")

            taus = [_rand_perm(rng, b.arity) for b in bs]
            lhs = instance.compose(a, [instance.act(b, tau)
                                       for b, tau in zip(bs, taus)])
            rhs = instance.act(instance.compose(a, bs), block_sum(taus))
            if lhs != rhs:
                rep.fail("equivariance-inner", f"trial {t}")
    return rep


def check_operad_map(fn: Callable, src, dst, seed: int, trials: int,
                     max_arity: int = 3, allow_nullary: bool = True) -> Report:
    """Whether fn commutes with composition and the symmetric action."""
    rng = random.Random(seed)
    rep = Report(f"map:{getattr(src, 'name', '?')}->{getattr(dst, 'name', '?')}",
                 {"seed": seed, "trials": trials, "max_arity": max_arity,
                  "allow_nullary": allow_nullary}, cases=trials)
    lo = 0 if allow_nullary else 1
    for t in range(trials):
        n = rng.randint(1, max_arity)
        a = src.sample(rng, n)
        bs = [src.sample(rng, rng.randint(lo, max_arity)) for _ in range(n)]
        with rep.guard("map-closure", f"trial {t}"):
            lhs = fn(src.compose(a, bs))
            rhs = dst.compose(fn(a), [fn(b) for b in bs])
            if lhs != rhs:
                rep.fail("map-compose", f"trial {t}")
            sigma = _rand_perm(rng, n)
            if fn(src.act(a, sigma)) != dst.act(fn(a), sigma):
                rep.fail("map-equivariance", f"trial {t}")
    return rep
