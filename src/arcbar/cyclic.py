"""The m-cyclic category: operator words, rewriting to normal form, the
rational point model of its standard spaces, and the comparison with the
all-degenerate arc configurations.

Operator words are stored in application order (index 0 acts first).  The
normal form puts the twist outermost and the simplicial part in the unique
degeneracies-then-faces factorization:

    tau^k o s_{b_1} ... s_{b_t} o d_{a_1} ... d_{a_v}
    with b_1 > ... > b_t,  a_1 < ... < a_v,  0 <= k < m * (target degree + 1).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .groups import CyclicElem, Perm, WreathElem, upsilon
from .rational import (ZERO, InvariantViolation, MismatchError, Turn, _draw_rat,
                       draw_composition, rat)
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

    def then(self, other: "CyclicWord") -> "CyclicWord":
        if other.m != self.m or other.source != self.target:
            raise MismatchError("words do not compose")
        return CyclicWord(self.m, self.source, self.gens + other.gens)

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
# rewriting
# ---------------------------------------------------------------------------

def _tau_step(gens: list[Gen]) -> bool:
    """One rewrite pushing a twist outward (later in application order)."""
    for i in range(len(gens) - 1):
        a, b = gens[i], gens[i + 1]
        if a.kind != "t" or b.kind == "t":
            continue
        q = a.degree
        if b.kind == "d":
            if b.index == 0:
                repl = [Gen("d", q, q)]
            else:
                repl = [Gen("d", b.index - 1, q), Gen("t", 0, q - 1)]
        else:
            if b.index == 0:
                repl = [Gen("s", q, q), Gen("t", 0, q + 1), Gen("t", 0, q + 1)]
            else:
                repl = [Gen("s", b.index - 1, q), Gen("t", 0, q + 1)]
        gens[i:i + 2] = repl
        return True
    return False


def _simplicial_rule(a: Gen, b: Gen) -> list[Gen] | None:
    """The rewrite of the pair `a` then `b` toward the degeneracies-outside
    canonical factorization, or None when the pair is already canonical."""
    q = a.degree
    if a.kind == "s" and b.kind == "d":
        j, k = a.index, b.index  # d_k s_j at degree q
        if k < j:
            return [Gen("d", k, q), Gen("s", j - 1, q - 1)]
        if k in (j, j + 1):
            return []
        return [Gen("d", k - 1, q), Gen("s", j, q - 1)]
    if a.kind == "d" and b.kind == "d":
        # math pair d_y o d_x with x applied first; canonical needs y < x
        x, y = a.index, b.index
        if y >= x:
            return [Gen("d", y + 1, q), Gen("d", x, q - 1)]
    if a.kind == "s" and b.kind == "s":
        # math pair s_y o s_x with x applied first; canonical needs y > x
        x, y = a.index, b.index
        if y <= x:
            return [Gen("s", y, q), Gen("s", x + 1, q + 1)]
    return None


def _simplicial_step(gens: list[Gen]) -> bool:
    """One rewrite toward the degeneracies-outside canonical factorization."""
    for i in range(len(gens) - 1):
        repl = _simplicial_rule(gens[i], gens[i + 1])
        if repl is not None:
            gens[i:i + 2] = repl
            return True
    return False


def _push_twists(w: CyclicWord) -> tuple[list[Gen], int]:
    """The word as (faces and degeneracies, k) with every twist moved
    outermost into tau^k at the target degree, in one pass.  The twists met
    so far travel as one exponent, reduced mod m(q+1) because
    tau_q^{m(q+1)} = id.  Pushing tau_q^k past d_j or s_j steps the index down
    k times mod q+1; each step leaves one twist behind, except a step from
    index 0, which leaves none past a face (d_0 tau = d_q) and two past a
    degeneracy (s_0 tau = tau^2 s_q)."""
    out: list[Gen] = []
    k, q = 0, w.source
    for g in w.gens:
        if g.kind == "t":
            k = (k + 1) % (w.m * (q + 1))
            continue
        n = q + 1
        # the steps s < k that start from index 0 are s = j, j + n, j + 2n, ...
        wraps = (k - 1 - g.index) // n + 1 if k > g.index else 0
        out.append(Gen(g.kind, (g.index - k) % n, q))
        if g.kind == "d":
            k, q = k - wraps, q - 1
        else:
            k, q = k + wraps, q + 1
        k %= w.m * (q + 1)
    return out, k


def normalize_word(w: CyclicWord) -> CyclicWord:
    """Rewrite to the canonical twist-outermost normal form.  The simplicial
    rewrites always apply at the leftmost pair they rewrite; after an edit at
    i the scan resumes at i - 1, because every pair left of it is unchanged
    and was already found canonical."""
    gens, k = _push_twists(w)
    i = 0
    while i < len(gens) - 1:
        repl = _simplicial_rule(gens[i], gens[i + 1])
        if repl is None:
            i += 1
        else:
            gens[i:i + 2] = repl
            i = max(i - 1, 0)
    target = gens[-1].target if gens else w.source
    gens.extend(Gen("t", 0, target) for _ in range(k))
    out = CyclicWord(w.m, w.source, tuple(gens))
    if out.target != w.target:
        raise InvariantViolation(
            f"rewriting moved the target degree from {w.target} to {out.target}")
    return out


def rewrite_once_everywhere(w: CyclicWord) -> list[CyclicWord]:
    """All words reachable by a single rewrite, for confluence testing."""
    out: list[CyclicWord] = []
    n = len(w.gens)
    for i in range(n - 1):
        candidates: list[list[Gen]] = []
        probe = list(w.gens[i:i + 2])
        if _tau_step(probe):
            candidates.append(probe)
        probe = list(w.gens[i:i + 2])
        if _simplicial_step(probe):
            candidates.append(probe)
        for repl in candidates:
            gens = w.gens[:i] + tuple(repl) + w.gens[i + 2:]
            out.append(CyclicWord(w.m, w.source, gens))
    # tau-power collapse anywhere a full period of twists is adjacent
    for i, g in enumerate(w.gens):
        if g.kind != "t":
            continue
        period = w.m * (g.degree + 1)
        run = 0
        while i + run < n and w.gens[i + run].kind == "t":
            run += 1
        if run >= period:
            gens = w.gens[:i] + w.gens[i + period:]
            out.append(CyclicWord(w.m, w.source, gens))
    return out


# ---------------------------------------------------------------------------
# the rational point model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicPoint:
    """A point (rbar, t_0..t_q) of the degree-q cyclic space: a base angle in
    R/mZ (turn units) and an exact barycentric simplex coordinate."""

    m: int
    rbar: Turn
    simplex: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "simplex", tuple(map(rat, self.simplex)))
        if self.rbar.modulus != self.m:
            raise InvariantViolation("base angle must be reduced mod m")
        if not self.simplex:
            raise InvariantViolation("simplex needs at least one coordinate")
        if any(t < 0 for t in self.simplex):
            raise InvariantViolation("barycentric coordinates must be >= 0")
        if sum(self.simplex) != 1:
            raise InvariantViolation("barycentric coordinates must sum to 1")

    @property
    def q(self) -> int:
        return len(self.simplex) - 1

    def sort_key(self):
        return (self.m, self.q, self.rbar.value, self.simplex)


def point(m: int, rbar, simplex) -> CyclicPoint:
    return CyclicPoint(m, Turn(Fraction(rbar), Fraction(m)),
                       tuple(Fraction(t) for t in simplex))


def twist_point(p: CyclicPoint) -> CyclicPoint:
    t = p.simplex
    return CyclicPoint(p.m, p.rbar - t[-1], (t[-1],) + t[:-1])


def face_point(i: int, p: CyclicPoint) -> CyclicPoint:
    q = p.q
    if q < 1 or not (0 <= i <= q):
        raise MismatchError(f"face d_{i} undefined at degree {q}")
    t = p.simplex
    if i < q:
        return CyclicPoint(p.m, p.rbar, t[:i] + (t[i] + t[i + 1],) + t[i + 2:])
    return CyclicPoint(p.m, p.rbar - t[-1], (t[0] + t[-1],) + t[1:-1])


def degeneracy_point(i: int, p: CyclicPoint) -> CyclicPoint:
    q = p.q
    if not (0 <= i <= q):
        raise MismatchError(f"degeneracy s_{i} undefined at degree {q}")
    t = p.simplex
    return CyclicPoint(p.m, p.rbar, t[:i + 1] + (Fraction(0),) + t[i + 1:])


def act_on_point(w: str | CyclicWord, p: CyclicPoint,
                 m: int | None = None) -> CyclicPoint:
    if isinstance(w, str):
        w = parse_word(w, m if m is not None else p.m, p.q)
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
    t = theta.value if isinstance(theta, Turn) else Fraction(theta)
    return CyclicPoint(p.m, p.rbar + p.m * t, p.simplex)


# ---------------------------------------------------------------------------
# comparison with the degenerate arc configurations
# ---------------------------------------------------------------------------

def lambda_to_ucc(p: CyclicPoint) -> ArcSystem:
    """The comparison map onto arity-(q+1) zero-radius arc systems: centers at
    the partial sums of the simplex coordinates, gaps the coordinates scaled
    down by m."""
    m = p.m
    acc = p.rbar.value
    zs: list[Turn] = []
    for t in p.simplex:
        zs.append(Turn(acc / m))
        acc += t
    phi = tuple(t / m for t in p.simplex)
    pairs = tuple((z, ZERO) for z in zs)
    return ArcSystem(m, pairs, phi, "uCc")


def is_aligned(x: ArcSystem) -> bool:
    """Whether consecutive centers differ by exactly the recorded gap on S^1
    (not merely on the quotient circle)."""
    phi = x.gaps
    for j in range(x.n - 1):
        if (x.pairs[j][0] + phi[j]) != x.pairs[j + 1][0]:
            return False
    return True


def align_ucc(x: ArcSystem) -> tuple[ArcSystem, WreathElem]:
    """The C_m^n correction g with x * g aligned (identity permutation part)."""
    if x.variant != "uCc":
        raise MismatchError("alignment is for zero-radius systems")
    phi = x.gaps
    exps = [0]
    target = x.pairs[0][0].value
    for j in range(1, x.n):
        target = target + phi[j - 1]
        diff = (target - x.pairs[j][0].value) * x.m
        if diff.denominator != 1:
            raise InvariantViolation("system violates the gap consistency invariant")
        exps.append(int(diff) % x.m)
    g = WreathElem(Perm.identity(x.n),
                   tuple(CyclicElem(x.m, e) for e in exps))
    return wreath_act(g, x), g


def ucc_to_lambda(x: ArcSystem) -> CyclicPoint:
    """Inverse comparison map, defined on aligned zero-radius systems."""
    if x.variant != "uCc" or x.n == 0:
        raise MismatchError("inverse comparison needs a nonempty uCc system")
    if not is_aligned(x):
        raise InvariantViolation("system is not aligned; apply align_ucc first")
    rbar = Turn(x.pairs[0][0].value * x.m, Fraction(x.m))
    simplex = tuple(p * x.m for p in x.gaps)
    return CyclicPoint(x.m, rbar, simplex)


def tau_upsilon_intertwined(p: CyclicPoint) -> bool:
    """The defining compatibility: the twist matches the distinguished wreath
    element through the comparison map."""
    lhs = lambda_to_ucc(twist_point(p))
    rhs = wreath_act(upsilon(p.m, p.q + 1), lambda_to_ucc(p))
    return lhs == rhs


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_point(rng: random.Random, m: int, q: int, den: int = 8,
                 allow_zero: bool = True) -> CyclicPoint:
    rbar = _draw_rat(rng, den, Fraction(0), Fraction(m))
    simplex = draw_composition(rng, Fraction(1), q + 1, den, allow_zero=allow_zero)
    return CyclicPoint(m, Turn(rbar, Fraction(m)), simplex)


def sample_word(rng: random.Random, m: int, source: int, length: int,
                max_degree: int = 8) -> CyclicWord:
    gens: list[Gen] = []
    q = source
    for _ in range(length):
        kinds = ["t", "s"]
        if q >= 1:
            kinds.append("d")
        if q >= max_degree:
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
