"""The m-cyclic category: operator words and their normal form, the
rational point model of its standard spaces, and the comparison with the
all-degenerate arc configurations.

Operator words are stored in application order (index 0 acts first).  Every
morphism of the m-cyclic category is one monotone map of the simplex
category followed by one twist power, so the normal form puts the twist
outermost and the simplicial part in the unique degeneracies-then-faces
factorization of that monotone map:

    tau^k o s_{b_1} ... s_{b_t} o d_{a_1} ... d_{a_v}
    with b_1 > ... > b_t,  a_1 < ... < a_v,  0 <= k < m * (target degree + 1),

where the a are the values the map misses and the b the positions it
repeats.
"""
from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .groups import CyclicElem, Perm, WreathElem, upsilon
from .rational import (InvariantViolation, MismatchError, Turn, _draw_num,
                       composition_nums, over_common_denominator, rat)
from .circle import ArcSystem, wreath_act


@dataclass(frozen=True)
class Gen:
    """A single generator tagged with the degree it is applied at."""

    kind: str  # 'd' (face), 's' (degeneracy), 't' (twist)
    index: int  # operator index for d/s; 0 for t
    degree: int

    def __post_init__(self) -> None:
        q = self.degree
        if self.kind == "d":
            if q < 1 or not (0 <= self.index <= q):
                raise InvariantViolation(f"face d_{self.index} invalid at degree {q}")
        elif self.kind == "s":
            if q < 0 or not (0 <= self.index <= q):
                raise InvariantViolation(
                    f"degeneracy s_{self.index} invalid at degree {q}")
        elif self.kind == "t":
            if q < 0:
                raise InvariantViolation("twist needs degree >= 0")
        else:
            raise InvariantViolation(f"unknown generator kind {self.kind!r}")

    @property
    def target(self) -> int:
        if self.kind == "d":
            return self.degree - 1
        if self.kind == "s":
            return self.degree + 1
        return self.degree

    def token(self) -> str:
        if self.kind == "t":
            return f"t{self.degree}"
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
class CyclicWord:
    """A composable sequence of generators, stored in application order."""

    m: int
    source: int
    gens: tuple[Gen, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise InvariantViolation("m must be >= 1")
        if self.source < 0:
            raise InvariantViolation("source degree must be >= 0")
        object.__setattr__(self, "gens", tuple(self.gens))
        q = self.source
        for g in self.gens:
            if g.degree != q:
                raise InvariantViolation(
                    f"ill-formed chain: {g.token()} applied at degree {q}")
            q = g.target
        object.__setattr__(self, "_target", q)

    @property
    def target(self) -> int:
        return self._target  # type: ignore[attr-defined]

    def __str__(self) -> str:
        if not self.gens:
            return "id"
        return ".".join(g.token() for g in reversed(self.gens))


def parse_word(text: str, m: int, source: int) -> CyclicWord:
    """Parse dotted tokens in mathematical order, e.g. 's0.t1' = s_0 after tau_1."""
    text = text.strip()
    tokens = [] if text in ("", "id") else list(reversed(text.split(".")))
    gens: list[Gen] = []
    q = source
    for tok in tokens:
        tok = tok.strip()
        kind, rest = tok[:1], tok[1:]
        try:
            index = int(rest) if rest else None
        except ValueError:
            raise InvariantViolation(f"unknown token {tok!r}") from None
        if kind == "t":
            if index is not None and index != q:
                raise InvariantViolation(
                    f"twist written at degree {rest} but applied at degree {q}")
            g = Gen("t", 0, q)
        elif kind in ("d", "s") and index is not None:
            g = Gen(kind, index, q)
        else:
            raise InvariantViolation(f"unknown token {tok!r}")
        gens.append(g)
        q = g.target
    return CyclicWord(m, source, tuple(gens))


def identity_word(m: int, q: int) -> CyclicWord:
    return CyclicWord(m, q, ())


# ---------------------------------------------------------------------------
# the normal form
# ---------------------------------------------------------------------------

def normalize_word(w: CyclicWord) -> CyclicWord:
    """The normal form, read off in one pass over the generators.

    The twists met so far travel as one exponent k, reduced mod m(q+1)
    because tau_q^{m(q+1)} = id.  Pushing tau_q^k past d_j or s_j steps the
    index down k times mod q+1; each step leaves one twist behind, except a
    step from index 0, which leaves none past a face (d_0 tau = d_q) and two
    past a degeneracy (s_0 tau = tau^2 s_q).  The shifted faces and
    degeneracies fold into the monotone map theta: [q] -> [source], kept
    sparse as the values it misses and the positions j with
    theta(j) = theta(j+1); the normal form is one face per missed value and
    one degeneracy per repeat."""
    m, q, k = w.m, w.source, 0
    missed: list[int] = []  # ascending
    reps: list[int] = []
    for g in w.gens:
        if g.kind == "t":
            k = (k + 1) % (m * (q + 1))
            continue
        n = q + 1
        # the steps s < k that start from index 0 are s = j, j + n, j + 2n, ...
        wraps = (k - 1 - g.index) // n + 1 if k > g.index else 0
        i = (g.index - k) % n
        if g.kind == "s":
            # theta o sigma_i repeats at i, and at p + 1 for each repeat p >= i
            reps = [p + (p >= i) for p in reps] + [i]
            k, q = k + wraps, q + 1
        else:
            # theta o delta_i drops position i: a repeat at i or i - 1 absorbs
            # it, or else the value theta(i) is no longer hit
            if i in reps:
                reps.remove(i)
            elif i - 1 in reps:
                reps.remove(i - 1)
            else:
                v = i - sum(p < i for p in reps)
                for x in missed:
                    v += x <= v
                bisect.insort(missed, v)
            reps = [p - (p > i) for p in reps]
            k, q = k - wraps, q - 1
        k %= m * (q + 1)
    gens: list[Gen] = []
    q = w.source
    for x in reversed(missed):
        gens.append(Gen("d", x, q))
        q -= 1
    for r in sorted(reps):
        gens.append(Gen("s", r, q))
        q += 1
    gens.extend(Gen("t", 0, q) for _ in range(k))
    out = CyclicWord(m, w.source, tuple(gens))
    if out.target != w.target:
        raise InvariantViolation(
            f"normalizing moved the target degree from {w.target} to {out.target}")
    return out


# ---------------------------------------------------------------------------
# the rational point model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False, repr=False)
class CyclicPoint:
    """A point (rbar, t_0..t_q) of the degree-q cyclic space: a base angle in
    R/mZ (turn units) and an exact barycentric simplex coordinate, stored as
    integer numerators over `den`, the least common denominator of both:
    `r` is rbar (mod m*den) and `ts` the simplex, which sums to den.

    `CyclicPoint(m, rbar, simplex)` builds one from a Turn mod m and
    Fractions; `on_lattice` from numerators.  `rbar` and `simplex` are
    views, and the repr is that of the views."""

    m: int
    den: int
    r: int
    ts: tuple[int, ...]

    def __init__(self, m: int, rbar: Turn, simplex: Sequence[Fraction]) -> None:
        simplex = tuple(map(rat, simplex))
        if rbar.modulus != m:
            raise InvariantViolation("base angle must be reduced mod m")
        den, nums = over_common_denominator([rbar.value, *simplex])
        _fill(self, m, den, nums[0], nums[1:])

    @classmethod
    def on_lattice(cls, m: int, den: int, r: int, ts: Sequence[int]) -> "CyclicPoint":
        """The checked point of numerators over den, reduced to the least
        common denominator, with r taken mod m*den."""
        g = math.gcd(den, r, *ts)
        if g > 1:
            den, r, ts = den // g, r // g, [t // g for t in ts]
        p = object.__new__(cls)
        _fill(p, m, den, r % (m * den), ts)
        return p

    @property
    def rbar(self) -> Turn:
        return Turn(Fraction(self.r, self.den), Fraction(self.m))

    @property
    def simplex(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(t, self.den) for t in self.ts)

    @property
    def q(self) -> int:
        return len(self.ts) - 1

    def __repr__(self) -> str:
        return (f"CyclicPoint(m={self.m!r}, rbar={self.rbar!r}, "
                f"simplex={self.simplex!r})")


def _fill(p: CyclicPoint, m: int, den: int, r: int, ts) -> None:
    """Set the fields, then check the simplex on its numerators."""
    ts = tuple(ts)
    if not ts:
        raise InvariantViolation("simplex needs at least one coordinate")
    if min(ts) < 0:
        raise InvariantViolation("barycentric coordinates must be >= 0")
    if sum(ts) != den:
        raise InvariantViolation("barycentric coordinates must sum to 1")
    setattr_ = object.__setattr__
    setattr_(p, "m", m)
    setattr_(p, "den", den)
    setattr_(p, "r", r)
    setattr_(p, "ts", ts)


def twist_point(p: CyclicPoint) -> CyclicPoint:
    t = p.ts
    return CyclicPoint.on_lattice(p.m, p.den, p.r - t[-1], (t[-1],) + t[:-1])


def face_point(i: int, p: CyclicPoint) -> CyclicPoint:
    q = p.q
    if q < 1 or not (0 <= i <= q):
        raise MismatchError(f"face d_{i} undefined at degree {q}")
    t = p.ts
    if i < q:
        return CyclicPoint.on_lattice(p.m, p.den, p.r,
                                      t[:i] + (t[i] + t[i + 1],) + t[i + 2:])
    return CyclicPoint.on_lattice(p.m, p.den, p.r - t[-1],
                                  (t[0] + t[-1],) + t[1:-1])


def degeneracy_point(i: int, p: CyclicPoint) -> CyclicPoint:
    q = p.q
    if not (0 <= i <= q):
        raise MismatchError(f"degeneracy s_{i} undefined at degree {q}")
    t = p.ts
    return CyclicPoint.on_lattice(p.m, p.den, p.r, t[:i + 1] + (0,) + t[i + 1:])


def act_on_point(w: str | CyclicWord, p: CyclicPoint) -> CyclicPoint:
    if isinstance(w, str):
        w = parse_word(w, p.m, p.q)
    if w.m != p.m:
        raise MismatchError("cyclic order mismatch")
    if w.source != p.q:
        raise MismatchError(f"degree mismatch: word at {w.source}, point at {p.q}")
    for g in w.gens:
        if g.kind == "t":
            p = twist_point(p)
        elif g.kind == "d":
            p = face_point(g.index, p)
        else:
            p = degeneracy_point(g.index, p)
    return p


def circle_act_point(theta: Turn | Fraction, p: CyclicPoint) -> CyclicPoint:
    """Rotation by theta turns shifts the base angle by m * theta."""
    t = theta.value if isinstance(theta, Turn) else rat(theta)
    den = math.lcm(p.den, t.denominator)
    k = den // p.den
    return CyclicPoint.on_lattice(
        p.m, den, p.r * k + p.m * t.numerator * (den // t.denominator),
        [x * k for x in p.ts])


# ---------------------------------------------------------------------------
# comparison with the degenerate arc configurations
# ---------------------------------------------------------------------------

def lambda_to_ucc(p: CyclicPoint) -> ArcSystem:
    """The comparison map onto arity-(q+1) zero-radius arc systems: centers at
    the partial sums of the simplex coordinates, gaps the coordinates scaled
    down by m.  Over m*den, a center is rbar plus a partial sum and a gap a
    coordinate; the arc lattice doubles that to a multiple of 2m."""
    zs = itertools.accumulate(p.ts[:-1], initial=p.r)
    return ArcSystem.on_lattice(p.m, 2 * p.m * p.den, [2 * z for z in zs],
                                (0,) * len(p.ts), [2 * t for t in p.ts])


def is_aligned(x: ArcSystem) -> bool:
    """Whether consecutive centers differ by exactly the recorded gap on S^1
    (not merely on the quotient circle)."""
    zs, den = x.zs, x.den
    return all((z + p) % den == z2 for z, p, z2 in zip(zs, x.ps, zs[1:]))


def align_ucc(x: ArcSystem) -> tuple[ArcSystem, WreathElem]:
    """The C_m^n correction g with x * g aligned (identity permutation part)."""
    if x.variant != "uCc":
        raise MismatchError("alignment is for zero-radius systems")
    quantum = x.den // x.m
    exps = [0]
    target = x.zs[0]
    for p, z in zip(x.ps, x.zs[1:]):
        target += p
        diff = target - z
        if diff % quantum:
            raise InvariantViolation("system violates the gap consistency invariant")
        exps.append(diff // quantum % x.m)
    g = WreathElem(Perm.identity(x.n),
                   tuple(CyclicElem(x.m, e) for e in exps))
    return wreath_act(g, x), g


def ucc_to_lambda(x: ArcSystem) -> CyclicPoint:
    """Inverse comparison map, defined on aligned zero-radius systems: over
    den/m, rbar is the first center and the simplex the gaps."""
    if x.variant != "uCc":
        raise MismatchError("inverse comparison needs a nonempty uCc system")
    if not is_aligned(x):
        raise InvariantViolation("system is not aligned; apply align_ucc first")
    return CyclicPoint.on_lattice(x.m, x.den // x.m, x.zs[0], x.ps)


def tau_upsilon_intertwined(p: CyclicPoint) -> bool:
    """The defining compatibility: the twist matches the distinguished wreath
    element through the comparison map."""
    lhs = lambda_to_ucc(twist_point(p))
    rhs = wreath_act(upsilon(p.m, p.q + 1), lambda_to_ucc(p))
    return lhs == rhs


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_point(rng: random.Random, m: int, q: int) -> CyclicPoint:
    p, d = _draw_num(rng, 8, 0, m)
    scale, ts = composition_nums(rng, q + 1, 8)
    den = math.lcm(d, scale)
    return CyclicPoint.on_lattice(m, den, p * (den // d),
                                  [t * (den // scale) for t in ts])


def sample_word(rng: random.Random, m: int, source: int,
                length: int) -> CyclicWord:
    gens: list[Gen] = []
    q = source
    for _ in range(length):
        kinds = ["t", "s"]
        if q >= 1:
            kinds.append("d")
        if q >= 8:
            kinds = [k for k in kinds if k != "s"]
        kind = rng.choice(kinds)
        if kind == "t":
            g = Gen("t", 0, q)
        elif kind == "d":
            g = Gen("d", rng.randint(0, q), q)
        else:
            g = Gen("s", rng.randint(0, q), q)
        gens.append(g)
        q = g.target
    return CyclicWord(m, source, tuple(gens))
