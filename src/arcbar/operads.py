"""Operads over exact rationals: the associative operad, little 1-disks,
framed little disks for a sign-acting group, the compactified operad, and the
semidirect-product presentation, together with a seeded law-checking harness.

One-dimensional disks throughout: a disk is the affine map t -> v + r*rho(h)*t
on [-1, 1], stored by its parameters.  An interval tuple is stored on one
integer lattice (below), so composing, comparing and validating elements
builds no Fraction; the Fraction pairs are a view for the boundary.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Sequence

from .groups import CyclicElem, Perm, block_perm, block_sum
from .rational import (InvariantViolation, MismatchError, _draw_num, first_overlap,
                       lcm_upto, over_common_denominator)
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
# the interval lattice
# ---------------------------------------------------------------------------

# An interval tuple is stored as one positive denominator D and the integer
# numerators (v, r) of each pair over D, reduced so that the gcd of D and
# every numerator is 1.  D is then the least common denominator of the
# coordinates, so two tuples are equal exactly when their lattices are.
Nums = tuple[tuple[int, int], ...]
Lattice = tuple[int, Nums]


def reduced(den: int, nums: Sequence[tuple[int, int]]) -> Lattice:
    """(den, nums) divided by the gcd of den and every numerator."""
    g = math.gcd(den, *chain.from_iterable(nums))
    if g == 1:
        return den, tuple(nums)
    return den // g, tuple([(v // g, r // g) for v, r in nums])


def lattice(pairs: Iterable[Pair]) -> Lattice:
    """The lattice of rational pairs: their least common denominator, which
    needs no reduction, and each pair's numerators over it."""
    den, nums = over_common_denominator([c for pair in pairs for c in pair])
    return den, tuple(zip(nums[::2], nums[1::2]))


def pair_view(den: int, nums: Nums) -> tuple[Pair, ...]:
    """The Fraction pairs of a lattice."""
    return tuple((Fraction(v, den), Fraction(r, den)) for v, r in nums)


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
    """Little 1-disk configuration: pairwise disjoint intervals in [-1, 1],
    stored as the lattice (den, nums); `pairs` is the Fraction view."""

    den: int
    nums: Nums

    @classmethod
    def from_pairs(cls, pairs: Iterable[Pair]) -> "DiskTuple":
        return cls(*lattice(pairs))

    @property
    def pairs(self) -> tuple[Pair, ...]:
        return pair_view(self.den, self.nums)

    @property
    def arity(self) -> int:
        return len(self.nums)


@dataclass(frozen=True)
class FramedTuple:
    """Framed little disks: intervals on the lattice (den, nums) decorated by
    sign-acting group elements; `pairs` is the (v, r, h) Fraction view."""

    den: int
    nums: Nums
    members: tuple[CyclicElem, ...]
    group: SignedGroup

    @classmethod
    def from_pairs(cls, triples: Sequence[tuple[Fraction, Fraction, CyclicElem]],
                   group: SignedGroup) -> "FramedTuple":
        return cls(*lattice((v, r) for v, r, _ in triples),
                   tuple(h for _, _, h in triples), group)

    @property
    def pairs(self) -> tuple[tuple[Fraction, Fraction, CyclicElem], ...]:
        return tuple((v, r, h) for (v, r), h in
                     zip(pair_view(self.den, self.nums), self.members))

    @property
    def arity(self) -> int:
        return len(self.nums)


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
    tuple on the lattice (den, nums), whose Fraction view is `u_pairs`,
    together with a permutation recording the original labelling."""

    den: int
    nums: Nums
    perm: Perm

    def __post_init__(self) -> None:
        if len(self.nums) != self.perm.degree:
            raise MismatchError("u-part length and permutation degree differ")

    @classmethod
    def from_pairs(cls, u_pairs: Iterable[Pair], perm: Perm) -> "CompactElem":
        return cls(*lattice(u_pairs), perm)

    @property
    def u_pairs(self) -> tuple[Pair, ...]:
        return pair_view(self.den, self.nums)

    @property
    def arity(self) -> int:
        return len(self.nums)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_disk_tuple(d: DiskTuple | FramedTuple) -> None:
    """Intervals with positive radii inside [-1, 1] whose open images are
    pairwise disjoint, checked on the numerators over d.den; the error
    texts quote the Fractions."""
    one = d.den
    for v, r in d.nums:
        if not (0 < r <= one):
            raise InvariantViolation(f"radius {Fraction(r, one)} outside (0, 1]")
        if abs(v) + r > one:
            raise InvariantViolation(f"image of [-1,1] under t -> {Fraction(v, one)}+"
                                     f"{Fraction(r, one)}t leaves [-1,1]")
    pair = first_overlap(sorted((v, r, i) for i, (v, r) in enumerate(d.nums)))
    if pair:
        i, j = sorted(pair)
        raise InvariantViolation(f"open images of disks {i} and {j} overlap")


def validate_compact(c: CompactElem) -> None:
    one, nums = c.den, c.nums
    for v, r in nums:
        if not (0 <= r <= one):
            raise InvariantViolation(f"radius {Fraction(r, one)} outside [0, 1]")
        if abs(v) + r > one:
            raise InvariantViolation(f"image of [-1,1] under t -> {Fraction(v, one)}+"
                                     f"{Fraction(r, one)}t leaves [-1,1]")
    if any(a[0] > b[0] for a, b in zip(nums, nums[1:])):
        raise InvariantViolation("centers not sorted")
    pair = first_overlap([(v, r, j) for j, (v, r) in enumerate(nums)])
    if pair:
        raise InvariantViolation(
            f"overlapping images at slots {pair[0]},{pair[1]} with positive radius")


def substitute(outer: Lattice, blocks: Sequence[Lattice],
               signs: Sequence[int]) -> Lattice:
    """Composition of interval tuples on the lattice: block i lands in outer
    interval (v, r), reflected by the sign e of that slot, as
    (v + e*r*w, r*s).  With the outer pair (a, c) over D1, a block pair
    (w, s) over D2 and L the lcm of the blocks' denominators, that is
    (a*L + e*c*w*L/D2, c*s*L/D2) over D1*L; one gcd reduces the composite."""
    den, nums = outer
    lcm = math.lcm(*[d for d, _ in blocks])
    out = []
    for (a, c), e, (d, block) in zip(nums, signs, blocks):
        k = c * (lcm // d)
        al, ek = a * lcm, e * k
        out.extend([(al + ek * w, k * s) for w, s in block])
    return reduced(den * lcm, out)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def _sample_cells(rng: random.Random, arity: int, den: int,
                  allow_zero: bool) -> Lattice:
    """Disjoint intervals, one per cell of an arity-fold split of [-1, 1].

    Cell i has center (2i+1-arity)/arity and half-width 1/arity.  A draw p/q
    in [-1, 1] moves the center by at most half the half-width, to
    v = ((2i+1-arity)*2q + p) / (2*arity*q); a draw p/q in [0, 1] gives the
    radius p / (4*arity*q), and 1 / (8*arity) stands in for a zero radius
    when none is allowed.  Every coordinate is written over
    8*arity*lcm(1..den), a multiple of each of these denominators, and one
    gcd reduces the lattice."""
    if arity == 0:
        return 1, ()
    m = lcm_upto(den)
    out: list[tuple[int, int]] = []
    for i in range(arity):
        p, q = _draw_num(rng, den, -1, 1)
        v = ((2 * i + 1 - arity) * 2 * q + p) * (4 * m // q)
        if allow_zero and rng.randrange(3) == 0:
            r = 0
        else:
            p, q = _draw_num(rng, den, 0, 1)
            r = p * (2 * m // q) if p or allow_zero else m
        out.append((v, r))
    if allow_zero and arity >= 2 and rng.randrange(4) == 0:
        # coincident degenerate cluster, exercising the boundary strata
        i = rng.randrange(arity - 1)
        out[i] = out[i + 1] = (out[i][0], 0)
    return reduced(8 * arity * m, out)


def _rand_perm(rng: random.Random, n: int) -> Perm:
    images = list(range(n))
    rng.shuffle(images)
    return Perm._of(tuple(images))


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
        return DiskTuple(1, ((0, 1),))

    def sample(self, rng: random.Random, arity: int) -> DiskTuple:
        den, nums = _sample_cells(rng, arity, den=8, allow_zero=False)
        return DiskTuple(den, _rand_perm(rng, arity).act(nums))

    def validate(self, x: DiskTuple) -> None:
        validate_disk_tuple(x)

    def act(self, x: DiskTuple, sigma: Perm) -> DiskTuple:
        return DiskTuple(x.den, sigma.act(x.nums))

    def compose(self, outer: DiskTuple, inners: Sequence[DiskTuple]) -> DiskTuple:
        if len(inners) != outer.arity:
            raise MismatchError("arity mismatch")
        out = DiskTuple(*substitute((outer.den, outer.nums),
                                    [(b.den, b.nums) for b in inners],
                                    [1] * outer.arity))
        self.validate(out)
        return out


class FramedOperad:
    """The framed little 1-disk operad for a sign-acting cyclic group."""

    allow_nullary = False

    def __init__(self, group: SignedGroup):
        self.group = group
        self.name = f"framed-c{group.order}"

    def unit(self) -> FramedTuple:
        return FramedTuple(1, ((0, 1),), (self.group.identity(),), self.group)

    def sample(self, rng: random.Random, arity: int) -> FramedTuple:
        den, nums = _sample_cells(rng, arity, den=8, allow_zero=False)
        hs = [CyclicElem(self.group.order, rng.randrange(self.group.order))
              for _ in range(arity)]
        sigma = _rand_perm(rng, arity)
        return FramedTuple(den, sigma.act(nums), sigma.act(hs), self.group)

    def validate(self, x: FramedTuple) -> None:
        validate_disk_tuple(x)
        if any(h.order != x.group.order for h in x.members):
            raise MismatchError("group member from a different group")

    def act(self, x: FramedTuple, sigma: Perm) -> FramedTuple:
        return FramedTuple(x.den, sigma.act(x.nums), sigma.act(x.members), x.group)

    def compose(self, outer: FramedTuple, inners: Sequence[FramedTuple]) -> FramedTuple:
        if len(inners) != outer.arity:
            raise MismatchError("arity mismatch")
        den, nums = substitute((outer.den, outer.nums),
                               [(b.den, b.nums) for b in inners],
                               [self.group.sign(h) for h in outer.members])
        members = tuple(h.compose(g) for h, b in zip(outer.members, inners)
                        for g in b.members)
        out = FramedTuple(den, nums, members, self.group)
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
        if self.group.sign(h) == 1:
            return d
        return DiskTuple(d.den, tuple((-v, r) for v, r in d.nums))

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
    return pair_view(*_sample_cells(rng, arity, den, allow_zero=True))


class CompactOperad:
    name = "dc"
    allow_nullary = True

    def unit(self) -> CompactElem:
        return CompactElem(1, ((0, 1),), Perm.identity(1))

    def sample(self, rng: random.Random, arity: int) -> CompactElem:
        return CompactElem(*_sample_cells(rng, arity, 8, allow_zero=True),
                           _rand_perm(rng, arity))

    def validate(self, x: CompactElem) -> None:
        validate_compact(x)

    def act(self, x: CompactElem, sigma: Perm) -> CompactElem:
        return CompactElem(x.den, x.nums, x.perm.compose(sigma))

    def compose(self, outer: CompactElem, inners: Sequence[CompactElem]) -> CompactElem:
        if len(inners) != outer.arity:
            raise MismatchError("arity mismatch")
        sizes = [b.arity for b in inners]
        inv = outer.perm.inverse()
        blocks = [inners[inv(p)] for p in range(outer.arity)]
        den, nums = substitute((outer.den, outer.nums),
                               [(b.den, b.nums) for b in blocks], [1] * outer.arity)
        perm = block_perm(outer.perm, sizes).compose(
            block_sum([b.perm for b in inners]))
        out = CompactElem(den, nums, perm)
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
    return CompactElem(1, ((0, 0),) * x.arity, x.perm)


def little_to_compact(x: DiskTuple) -> CompactElem:
    """Split an unordered configuration into its sorted part and a permutation;
    over one denominator the numerators sort as the pairs do."""
    order = sorted(range(x.arity), key=x.nums.__getitem__)
    u = tuple(x.nums[i] for i in order)
    # x = u . sigma with (u . sigma)[i] = u[sigma(i)]
    sigma = Perm(tuple(order)).inverse()
    return CompactElem(x.den, u, sigma)


def semidirect_iso(x: SemidirectElem) -> FramedTuple:
    """(lambda_i, h_i) -> (lambda_i o h_i, h_i): the n-ary comparison map."""
    return FramedTuple(x.disk.den, x.disk.nums, x.members, x.group)


def semidirect_iso_inverse(x: FramedTuple) -> SemidirectElem:
    return SemidirectElem(DiskTuple(x.den, x.nums), x.members, x.group)


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
            rhs = instance.act(ab, block_sum(taus))
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
