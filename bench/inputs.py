"""Seeded input generators shared by the workloads.  They use only the
standard library, so the program under test receives inputs it did not make."""
from __future__ import annotations

import random
from fractions import Fraction

import oracles as O


def _rat(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    """A rational in [lo, hi] with denominator at most den."""
    q = rng.randint(1, den)
    return Fraction(rng.randint(lo * q, hi * q), q)


def _composition(rng: random.Random, total: Fraction, parts: int, den: int) -> list[Fraction]:
    """`total` cut into `parts` nonnegative parts at multiples of total/den."""
    cuts = sorted(Fraction(rng.randint(0, den), den) for _ in range(parts - 1))
    pts = [Fraction(0)] + cuts + [Fraction(1)]
    return [(pts[i + 1] - pts[i]) * total for i in range(parts)]


def make_arc_system(rng: random.Random, m: int, n: int, zero_radii: bool) -> dict:
    """A valid uEc or uCc system as JSON: gaps on the 1/(8m) grid, each radius
    at most half of each neighbouring gap."""
    q = Fraction(1, m)
    phi = _composition(rng, q, n, 8)
    zs = [Fraction(rng.randint(0, 7), 8)]
    for j in range(n - 1):
        zs.append(zs[-1] + phi[j] + Fraction(rng.randrange(m), m))
    radii = []
    for j in range(n):
        cap = min(phi[j - 1], phi[j]) / 2 if n > 1 else q / 2
        if zero_radii or cap == 0 or rng.randrange(3) == 0:
            radii.append(Fraction(0))
        else:
            radii.append(cap * Fraction(rng.randint(1, 4), 4))
    variant = "uCc" if all(r == 0 for r in radii) else "uEc"
    return O.arc_json(m, zs, radii, phi, variant)


def interval_block(rng: random.Random, arity: int) -> list[tuple[Fraction, Fraction]]:
    """A sorted point of the compactified interval operad, one cell per slot."""
    out = []
    h = Fraction(1, max(arity, 1))
    for i in range(arity):
        center = -1 + (2 * i + 1) * h
        v = center + _rat(rng, -1, 1, 4) * h / 2
        r = Fraction(0) if rng.randrange(3) == 0 else h / 4 * Fraction(rng.randint(1, 4), 4)
        out.append((v, r))
    return out


def random_disks(rng: random.Random, arity: int) -> list[tuple[Fraction, Fraction]]:
    """Disjoint little 1-disks: the interval cells with every radius positive."""
    return [(v, r if r > 0 else Fraction(1, 8 * arity)) for v, r in interval_block(rng, arity)]


def make_word(rng: random.Random, source: int, length: int, max_degree: int = 6):
    """A composable word of `length` generators from degree `source`, as
    (kind, index, degree) triples in application order."""
    gens, q = [], source
    for _ in range(length):
        kinds = ["t", "s"] + (["d"] if q >= 1 else [])
        if q >= max_degree:
            kinds.remove("s")
        k = rng.choice(kinds)
        gens.append((k, 0 if k == "t" else rng.randint(0, q), q))
        q = q - 1 if k == "d" else q + 1 if k == "s" else q
    return gens


def make_point(rng: random.Random, m: int, q: int) -> tuple[Fraction, list[Fraction]]:
    """(base angle in [0, m), simplex coordinates) of a degree-q point."""
    return Fraction(rng.randrange(8 * m), 8), _composition(rng, Fraction(1), q + 1, 8)
