"""Desk-scale coefficients and bar constructions: finite pointed monoids with
a cyclic-group action, the relative cyclic bar construction and its operator
relations, the truncated free-monoid monad with its two-sided bar
construction, labeled orbits of degenerate arc systems, and the degreewise
comparison with the cyclic space model.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .circle import ArcSystem, compose_uec, sample_ucc
from .cyclic import CyclicPoint, align_ucc, lambda_to_ucc, ucc_to_lambda
from .groups import CyclicElem, act_labels
from .rational import InvariantViolation, MismatchError, Turn

# ---------------------------------------------------------------------------
# finite pointed C_m-monoids
# ---------------------------------------------------------------------------

def _sigma_powers(elements: Sequence[str], sigma_table: Sequence[str],
                  m: int) -> dict[str, tuple[str, ...]]:
    """The table x -> (x, sigma x, ..., sigma^(m-1) x) of a bijection sigma;
    raises unless sigma^m = id."""
    sigma = dict(zip(elements, sigma_table))
    table = {}
    for e in elements:
        powers = [e]
        for _ in range(m - 1):
            powers.append(sigma[powers[-1]])
        if sigma[powers[-1]] != e:
            raise InvariantViolation("sigma order does not divide m")
        table[e] = tuple(powers)
    return table


@dataclass(frozen=True)
class FinCmMonoid:
    """A finite pointed monoid with basepoint-absorbing multiplication and a
    monoid automorphism generating a C_m-action."""

    name: str
    elements: tuple[str, ...]
    base: str
    unit: str
    m: int
    mul_table: tuple[tuple[str, ...], ...]
    sigma_table: tuple[str, ...]

    def __post_init__(self) -> None:
        # _mul[a][b] = ab and _sig[a] = sigma a, which the bar operators read;
        # validate rejects ragged or short tables before it reads them
        object.__setattr__(self, "_mul", {
            a: dict(zip(self.elements, row))
            for a, row in zip(self.elements, self.mul_table)})
        object.__setattr__(self, "_sig",
                           dict(zip(self.elements, self.sigma_table)))
        self.validate()

    def multiply(self, a: str, b: str) -> str:
        return self._mul[a][b]  # type: ignore[attr-defined]

    def sigma(self, a: str) -> str:
        return self._sig[a]  # type: ignore[attr-defined]

    def sigma_pow(self, a: str, k: int) -> str:
        return self._powers[a][k % self.m]  # type: ignore[attr-defined]

    def product(self, xs: Sequence[str]) -> str:
        out = self.unit
        for x in xs:
            out = self.multiply(out, x)
        return out

    def nonbase(self) -> tuple[str, ...]:
        return tuple(e for e in self.elements if e != self.base)

    def validate(self) -> None:
        es = self.elements
        if len(set(es)) != len(es):
            raise InvariantViolation("duplicate element names")
        for required in (self.base, self.unit):
            if required not in es:
                raise InvariantViolation(f"{required!r} not among the elements")
        if len(self.mul_table) != len(es) or any(len(r) != len(es)
                                                 for r in self.mul_table):
            raise InvariantViolation("multiplication table must be square")
        for a in es:
            if self.multiply(a, self.base) != self.base or \
                    self.multiply(self.base, a) != self.base:
                raise InvariantViolation("basepoint must be absorbing")
            if self.multiply(a, self.unit) != a or self.multiply(self.unit, a) != a:
                raise InvariantViolation("unit law fails")
        for a in es:
            for b in es:
                for c in es:
                    if self.multiply(self.multiply(a, b), c) != \
                            self.multiply(a, self.multiply(b, c)):
                        raise InvariantViolation(f"associativity fails at {a},{b},{c}")
        if len(self.sigma_table) != len(es):
            raise InvariantViolation("sigma table must cover all elements")
        if sorted(self.sigma_table) != sorted(es):
            raise InvariantViolation("sigma must be a bijection")
        if self.sigma(self.unit) != self.unit or self.sigma(self.base) != self.base:
            raise InvariantViolation("sigma must fix unit and basepoint")
        for a in es:
            for b in es:
                if self.sigma(self.multiply(a, b)) != \
                        self.multiply(self.sigma(a), self.sigma(b)):
                    raise InvariantViolation("sigma is not a monoid map")
        object.__setattr__(self, "_powers",
                           _sigma_powers(es, self.sigma_table, self.m))


def pointed_cyclic_monoid(name: str, k: int, m: int, sigma_mult: int = 1) -> FinCmMonoid:
    """The pointed monoid {*} u C_k with sigma the power map x -> x^sigma_mult."""
    elements = ("*",) + tuple(f"g{i}" for i in range(k))
    names = list(elements)

    def mul(a: str, b: str) -> str:
        if a == "*" or b == "*":
            return "*"
        return f"g{(int(a[1:]) + int(b[1:])) % k}"

    def sig(a: str) -> str:
        if a == "*":
            return "*"
        return f"g{(int(a[1:]) * sigma_mult) % k}"

    mul_table = tuple(tuple(mul(a, b) for b in names) for a in names)
    sigma_table = tuple(sig(a) for a in names)
    return FinCmMonoid(name, elements, "*", "g0", m, mul_table, sigma_table)


def trivial_monoid(m: int) -> FinCmMonoid:
    return pointed_cyclic_monoid("trivial", 1, m)


def standard_monoids(m: int) -> list[FinCmMonoid]:
    """The test coefficients available at a given cyclic order."""
    out = [trivial_monoid(m), pointed_cyclic_monoid("c2", 2, m)]
    if m % 2 == 0:
        out.append(pointed_cyclic_monoid("c3-inv", 3, m, sigma_mult=-1))
    if m % 3 == 0:
        out.append(pointed_cyclic_monoid("c7-sq", 7, m, sigma_mult=2))
    return out


# ---------------------------------------------------------------------------
# the relative cyclic bar construction
# ---------------------------------------------------------------------------

Tuple_ = tuple[str, ...]


def collapse(R: FinCmMonoid, t: Tuple_) -> Tuple_:
    """Smash-power normalization: a basepoint entry collapses the tuple."""
    if R.base in t:
        return (R.base,) * len(t)
    return t


# The operators read the tables `R._mul` and `R._sig` and collapse inline.  A
# result holds the basepoint exactly when `t` does or a new product is the
# basepoint: the basepoint absorbs, and sigma is a bijection fixing it.

def cyclic_twist(R: FinCmMonoid, t: Tuple_) -> Tuple_:
    if R.base in t:
        return (R.base,) * len(t)
    return (R._sig[t[-1]],) + t[:-1]  # type: ignore[attr-defined]


def cyclic_face(R: FinCmMonoid, i: int, t: Tuple_) -> Tuple_:
    q = len(t) - 1
    if not (0 <= i <= q) or q < 1:
        raise MismatchError(f"face d_{i} undefined on a degree-{q} tuple")
    base = R.base
    if base in t:
        return (base,) * q
    if i < q:
        x = R._mul[t[i]][t[i + 1]]  # type: ignore[attr-defined]
        return (base,) * q if x == base else t[:i] + (x,) + t[i + 2:]
    # d_q = d_0 tau_q
    x = R._mul[R._sig[t[q]]][t[0]]  # type: ignore[attr-defined]
    return (base,) * q if x == base else (x,) + t[1:q]


def cyclic_degeneracy(R: FinCmMonoid, i: int, t: Tuple_) -> Tuple_:
    q = len(t) - 1
    if not (0 <= i <= q):
        raise MismatchError(f"degeneracy s_{i} undefined on a degree-{q} tuple")
    if R.base in t:
        return (R.base,) * (q + 2)
    return t[:i + 1] + (R.unit,) + t[i + 1:]


def _tuples_at(R: FinCmMonoid, q: int, cap: int, rng: random.Random,
               trials: int) -> Iterator[Tuple_]:
    count = len(R.elements) ** (q + 1)
    if count <= cap:
        yield from itertools.product(R.elements, repeat=q + 1)
    else:
        for _ in range(trials):
            yield tuple(rng.choice(R.elements) for _ in range(q + 1))


@dataclass
class RelationReport:
    name: str
    cases: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_cyclic_object(R: FinCmMonoid, q_max: int, cap: int = 100_000,
                         seed: int = 0, trials: int = 300) -> RelationReport:
    """Exhaustively (small coefficients) or by sampling, check every operator
    relation of the m-cyclic structure plus the simplicial identities."""
    rng = random.Random(seed)
    m = R.m
    failures: list[str] = []
    cases = 0

    def note(msg: str) -> None:
        if len(failures) < 25:
            failures.append(msg)

    # Each shared side is computed once per tuple: tw = tau t, D[i] = d_i t,
    # S[j] = s_j t and the collapsed t.  The relations run in a fixed order.
    for q in range(1, q_max + 1):
        for t in _tuples_at(R, q, cap, rng, trials):
            cases += 1
            tw = cyclic_twist(R, t)
            D = [cyclic_face(R, i, t) for i in range(q + 1)]
            S = [cyclic_degeneracy(R, j, t) for j in range(q + 1)]
            ct = collapse(R, t)
            # tau_q^{m(q+1)} = id
            cur = tw
            for _ in range(m * (q + 1) - 1):
                cur = cyclic_twist(R, cur)
            if cur != ct:
                note(f"tau period fails at q={q}, t={t}")
            # d_0 tau_q = d_q
            if cyclic_face(R, 0, tw) != D[q]:
                note(f"d_0 tau = d_q fails at q={q}, t={t}")
            # d_i tau_q = tau_{q-1} d_{i-1}
            for i in range(1, q + 1):
                if cyclic_face(R, i, tw) != cyclic_twist(R, D[i - 1]):
                    note(f"d_{i} tau fails at q={q}, t={t}")
            # s_0 tau_q = tau_{q+1}^2 s_q
            if cyclic_degeneracy(R, 0, tw) != cyclic_twist(
                    R, cyclic_twist(R, S[q])):
                note(f"s_0 tau fails at q={q}, t={t}")
            # s_i tau_q = tau_{q+1} s_{i-1}
            for i in range(1, q + 1):
                if cyclic_degeneracy(R, i, tw) != cyclic_twist(R, S[i - 1]):
                    note(f"s_{i} tau fails at q={q}, t={t}")
            # simplicial identities
            if q >= 2:
                for i in range(0, q + 1):
                    for j in range(i + 1, q + 1):
                        if cyclic_face(R, i, D[j]) != cyclic_face(R, j - 1, D[i]):
                            note(f"d_{i} d_{j} fails at q={q}, t={t}")
            for i in range(0, q + 1):
                for j in range(i, q + 1):
                    if cyclic_degeneracy(R, i, S[j]) != \
                            cyclic_degeneracy(R, j + 1, S[i]):
                        note(f"s_{i} s_{j} fails at q={q}, t={t}")
            for j in range(0, q + 1):
                for i in range(0, q + 2):
                    lhs = cyclic_face(R, i, S[j])
                    if i < j:
                        rhs = cyclic_degeneracy(R, j - 1, D[i])
                    elif i in (j, j + 1):
                        rhs = ct
                    else:
                        rhs = cyclic_degeneracy(R, j, D[i - 1])
                    if lhs != rhs:
                        note(f"d_{i} s_{j} fails at q={q}, t={t}")
    return RelationReport(f"cyclic-relations[{R.name}, m={m}]", cases, failures)


def twist_order(R: FinCmMonoid, q: int, probe: Tuple_ | None = None,
                cap: int = 10_000) -> int:
    """Order of the twist on degree-q tuples (maximum over probes)."""
    probes: Iterable[Tuple_]
    if probe is not None:
        probes = [probe]
    else:
        probes = itertools.islice(itertools.product(R.nonbase(), repeat=q + 1), 64)
    best = 1
    for t in probes:
        cur = cyclic_twist(R, t)
        k = 1
        while cur != t:
            cur = cyclic_twist(R, cur)
            k += 1
            if k > cap:
                raise InvariantViolation("twist order exceeds cap")
        best = math.lcm(best, k)
    return best


# ---------------------------------------------------------------------------
# the truncated free monoid monad
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointedCmSet:
    """A finite pointed set with a C_m-action (the letters of a free algebra)."""

    name: str
    elements: tuple[str, ...]
    base: str
    m: int
    sigma_table: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index",
                           {e: i for i, e in enumerate(self.elements)})
        if self.base not in self.elements:
            raise InvariantViolation("basepoint must be an element")
        if sorted(self.sigma_table) != sorted(self.elements):
            raise InvariantViolation("sigma must be a bijection")
        if self.sigma(self.base) != self.base:
            raise InvariantViolation("sigma must fix the basepoint")
        object.__setattr__(self, "_powers",
                           _sigma_powers(self.elements, self.sigma_table, self.m))

    def index(self, x: str) -> int:
        return self._index[x]  # type: ignore[attr-defined]

    def sigma(self, x: str) -> str:
        return self.sigma_table[self.index(x)]

    def sigma_pow(self, x: str, k: int) -> str:
        return self._powers[x][k % self.m]  # type: ignore[attr-defined]

    def nonbase(self) -> tuple[str, ...]:
        return tuple(e for e in self.elements if e != self.base)


def pointed_set(name: str, letters: Sequence[str], m: int,
                sigma: dict[str, str] | None = None) -> PointedCmSet:
    elements = ("*",) + tuple(letters)
    table = tuple((sigma or {}).get(e, e) for e in elements)
    return PointedCmSet(name, elements, "*", m, table)


@dataclass(frozen=True)
class FreeWord:
    """An element of the truncated free monoid on a pointed set: a word of
    non-base letters, the basepoint, or the truncation-overflow sentinel."""

    letters: tuple[str, ...]
    flag: str = "ok"  # "ok" | "base" | "overflow"

    def __post_init__(self) -> None:
        if self.flag not in ("ok", "base", "overflow"):
            raise InvariantViolation(f"unknown flag {self.flag!r}")
        if self.flag != "ok" and self.letters:
            raise InvariantViolation("sentinel words carry no letters")

    @property
    def length(self) -> int:
        return len(self.letters)


BASE_WORD = FreeWord((), "base")
OVERFLOW_WORD = FreeWord((), "overflow")
EMPTY_WORD = FreeWord(())


@dataclass(frozen=True)
class FreeMonoid:
    """The free associative algebra on a pointed C_m-set, truncated at a
    length bound with an explicit overflow sentinel."""

    letters: PointedCmSet
    bound: int

    def lift(self, x: str) -> FreeWord:
        if x == self.letters.base:
            return BASE_WORD
        return FreeWord((x,))

    def word(self, xs: Sequence[str]) -> FreeWord:
        if any(x == self.letters.base for x in xs):
            return BASE_WORD
        if len(xs) > self.bound:
            return OVERFLOW_WORD
        return FreeWord(tuple(xs))

    def multiply(self, a: FreeWord, b: FreeWord) -> FreeWord:
        if "base" in (a.flag, b.flag):
            return BASE_WORD
        if "overflow" in (a.flag, b.flag) or a.length + b.length > self.bound:
            return OVERFLOW_WORD
        return FreeWord(a.letters + b.letters)

    def flatten(self, words: Sequence[FreeWord]) -> FreeWord:
        out = EMPTY_WORD
        for w in words:
            out = self.multiply(out, w)
        return out

    def sigma(self, w: FreeWord) -> FreeWord:
        if w.flag != "ok":
            return w
        return FreeWord(tuple(self.letters.sigma(x) for x in w.letters))

    def sigma_pow(self, w: FreeWord, k: int) -> FreeWord:
        if w.flag != "ok":
            return w
        return FreeWord(tuple(self.letters.sigma_pow(x, k) for x in w.letters))

    def all_words(self, max_len: int | None = None) -> Iterator[FreeWord]:
        top = self.bound if max_len is None else min(max_len, self.bound)
        for n in range(top + 1):
            for xs in itertools.product(self.letters.nonbase(), repeat=n):
                yield FreeWord(xs)
        yield BASE_WORD


# ---------------------------------------------------------------------------
# the two-sided bar construction of the free monad over a monoid
# ---------------------------------------------------------------------------

BASE_ELEM = "!base"
OVERFLOW_ELEM = "!overflow"


@dataclass(frozen=True)
class BarComplex:
    """Nested-word model of the two-sided bar construction B(T, T, R): a
    level-q element is a (q+1)-fold nested word with coefficient leaves."""

    R: FinCmMonoid
    bound: int

    # nested elements are str leaves or tuples of nested elements

    def _contains_base(self, x) -> bool:
        if isinstance(x, str):
            return x == self.R.base
        return any(self._contains_base(c) for c in x)

    def normalize(self, x):
        if x is OVERFLOW_ELEM or x is BASE_ELEM:
            return x
        return BASE_ELEM if self._contains_base(x) else x

    def _map_level(self, x, level: int, fn):
        if x in (BASE_ELEM, OVERFLOW_ELEM):
            return x
        if level == 0:
            return fn(x)
        out = []
        for c in x:
            y = self._map_level(c, level - 1, fn)
            if y is OVERFLOW_ELEM:
                return OVERFLOW_ELEM
            out.append(y)
        return tuple(out)

    def _flatten_word(self, x):
        out: list = []
        for c in x:
            out.extend(c)
            if len(out) > self.bound:
                return OVERFLOW_ELEM
        return tuple(out)

    def _eval_word(self, x):
        return self.R.product(x)

    def face(self, q: int, i: int, x):
        if not (0 <= i <= q) or q < 1:
            raise MismatchError(f"face d_{i} undefined at bar level {q}")
        if i == 0:
            out = self._map_level(x, q, self._eval_word)
        else:
            out = self._map_level(x, q - i, self._flatten_word)
        return self.normalize(out)

    def degeneracy(self, q: int, i: int, x):
        if not (0 <= i <= q):
            raise MismatchError(f"degeneracy s_{i} undefined at bar level {q}")
        out = self._map_level(x, q + 1 - i, lambda sub: (sub,))
        return self.normalize(out)

    def augment(self, x):
        """Total evaluation into the coefficients."""
        if x is BASE_ELEM:
            return self.R.base
        if x is OVERFLOW_ELEM:
            return OVERFLOW_ELEM
        if isinstance(x, str):
            return x
        vals = [self.augment(c) for c in x]
        if OVERFLOW_ELEM in vals:
            return OVERFLOW_ELEM
        return self.R.product(vals)

    def sample(self, rng: random.Random, q: int, width: int = 2):
        def build(level: int):
            if level == 0:
                return rng.choice(self.R.nonbase())
            return tuple(build(level - 1) for _ in range(rng.randint(0, width)))
        return self.normalize(build(q + 1))


# ---------------------------------------------------------------------------
# labeled orbits and the compressed functor
# ---------------------------------------------------------------------------

def _label_act(member: CyclicElem, coeff: str, coeffs) -> str:
    return coeffs.sigma_pow(coeff, member.exponent)


@dataclass(frozen=True)
class LabeledOrbit:
    """Canonical representative of an (arc system, coefficient tuple) pair
    under the wreath group, the desk model of a point of the half-smash
    quotient.  `kind` distinguishes the unit summand and the collapsed base."""

    m: int
    n: int
    space: ArcSystem | None
    labels: tuple[str, ...] | None
    kind: str = "point"  # "point" | "unit" | "base"

    def sort_key(self):
        space = self.space.sort_key() if self.space is not None else ()
        return (self.kind, self.m, self.n, space, self.labels or ())


def _canon_slots(zs: Sequence, rest: tuple, labels: Sequence[str], quantum,
                 sig_pow) -> tuple:
    """Least (centers, *rest, labels) over the orbit of Z_n wr C_m.

    The C_m member of a slot moves only that slot's center, by multiples of
    `quantum`, and acts by sigma on its label.  Centers compare first, so
    for each rotation the least member reduces every center mod `quantum`;
    only the n rotations are left to compare.
    """
    cols = (tuple(z % quantum for z in zs), *rest,
            tuple(sig_pow(y, -(z // quantum)) for z, y in zip(zs, labels)))
    return min(tuple(c[k:] + c[:k] for c in cols) for k in range(len(zs)))


def labeled_orbit(coeffs, space: ArcSystem, labels: Sequence[str]) -> LabeledOrbit:
    """Canonicalize an (arc system, labels) pair; basepoint labels collapse."""
    labels = tuple(labels)
    m, n = space.m, space.n
    if len(labels) != n:
        raise MismatchError("one label per arc")
    base = coeffs.base
    if any(x == base for x in labels):
        return LabeledOrbit(m, n, None, None, "base")
    if n == 0:
        return LabeledOrbit(m, 0, None, None, "unit")
    phi = space.phi if space.phi is not None else ()
    zs, rs, phi_c, labels_c = _canon_slots(
        [z.value for z in space.centers()], (space.radii(), phi), labels,
        space.quantum, coeffs.sigma_pow)
    space_c = ArcSystem(m, tuple((Turn(z), r) for z, r in zip(zs, rs)),
                        phi_c if space.phi is not None else None, space.variant)
    return LabeledOrbit(m, n, space_c, labels_c, "point")


def compressed_cc(coeffs, n_max: int, per_degree: int = 20, seed: int = 0,
                  den: int = 4) -> dict[int, list[LabeledOrbit]]:
    """Sampled orbit representatives of the compressed functor by arity: the
    single unit orbit at arity 0, canonical (space, labels) classes above."""
    rng = random.Random(seed)
    out: dict[int, list[LabeledOrbit]] = {
        0: [LabeledOrbit(coeffs.m, 0, None, None, "unit")]}
    for n in range(1, n_max + 1):
        reps = set()
        for _ in range(per_degree):
            x = sample_ucc(rng, coeffs.m, n, den)
            labels = tuple(rng.choice(coeffs.elements) for _ in range(n))
            reps.add(labeled_orbit(coeffs, x, labels))
        out[n] = sorted(reps, key=LabeledOrbit.sort_key)
    return out


def split_orbit_element(space: ArcSystem, words: Sequence[FreeWord]
                        ) -> tuple[ArcSystem, tuple[str, ...]] | None:
    """The right free-algebra action on the compressed functor: each arc
    splits into coincident copies labelled by the letters of its word.
    Returns None when a basepoint word collapses the element."""
    if any(w.flag == "base" for w in words):
        return None
    inners = []
    letters: list[str] = []
    for w in words:
        if w.flag == "overflow":
            raise InvariantViolation("overflowing word in a splitting")
        inners.append(tuple((Fraction(0), Fraction(0)) for _ in w.letters))
        letters.extend(w.letters)
    return compose_uec(space, inners), tuple(letters)


# ---------------------------------------------------------------------------
# the comparison map on orbit classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaClass:
    """Canonical representative of a (cyclic point, labels) pair under the
    cyclic group of order m*n, the target of the comparison map."""

    m: int
    n: int
    point: CyclicPoint | None
    labels: tuple[str, ...] | None
    kind: str = "point"  # "point" | "unit" | "base"

    def sort_key(self):
        pt = self.point.sort_key() if self.point is not None else ()
        return (self.kind, self.m, self.n, pt, self.labels or ())


def _canon_twists(rbar, ts: tuple, labels: tuple[str, ...], one,
                  sig_pow) -> tuple:
    """Least (rbar, simplex, labels) over the orbit of C_{mn}: the twist on
    the point paired with the distinguished wreath element on the labels,
    with `one` units of rbar to a turn.

    The n-th power of the generator shifts rbar by -one and applies sigma^-1
    to every label, so for each of the n twist powers the least member has
    rbar in [0, one); only those n candidates are compared.
    """
    cands = []
    for _ in range(len(ts)):
        j = rbar // one
        cands.append((rbar - j * one, ts, tuple(sig_pow(y, -j) for y in labels)))
        rbar, ts = rbar - ts[-1], (ts[-1],) + ts[:-1]
        labels = (sig_pow(labels[-1], -1),) + labels[:-1]
    return min(cands)


def _lambda_canon(coeffs, p: CyclicPoint, labels: tuple[str, ...]) -> LambdaClass:
    rbar, simplex, labels_c = _canon_twists(p.rbar.value, p.simplex, labels, 1,
                                            coeffs.sigma_pow)
    return LambdaClass(p.m, p.q + 1, CyclicPoint(p.m, Turn(rbar, Fraction(p.m)),
                                                 simplex), labels_c, "point")


def map_c_to_l(coeffs, orbit: LabeledOrbit) -> LambdaClass:
    """Comparison map: align the space coordinate, read off base angle and
    simplex coordinates, canonicalize under the order-mn cyclic action."""
    if orbit.kind == "base":
        return LambdaClass(orbit.m, orbit.n, None, None, "base")
    if orbit.kind == "unit":
        return LambdaClass(orbit.m, 0, None, None, "unit")
    if orbit.space is None or orbit.labels is None:
        raise InvariantViolation("a point orbit needs a space and labels")
    aligned, g0 = align_ucc(orbit.space)
    labels = act_labels(g0, orbit.labels,
                        lambda c, y: _label_act(c, y, coeffs))
    p = ucc_to_lambda(aligned)
    return _lambda_canon(coeffs, p, labels)


def lambda_class_to_orbit(coeffs, cls: LambdaClass) -> LabeledOrbit:
    """The inverse on classes, through the forward point-level map."""
    if cls.kind == "base":
        return LabeledOrbit(cls.m, cls.n, None, None, "base")
    if cls.kind == "unit":
        return LabeledOrbit(cls.m, 0, None, None, "unit")
    if cls.point is None or cls.labels is None:
        raise InvariantViolation("a point class needs a point and labels")
    return labeled_orbit(coeffs, lambda_to_ucc(cls.point), cls.labels)


# ---------------------------------------------------------------------------
# lattice enumeration for exact class counts (integer fast path)
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _encode_space(x: ArcSystem, labels, coeffs, den: int):
    scale = x.m * den
    zs = []
    for z, _ in x.pairs:
        v = z.value * scale
        if v.denominator != 1:
            raise InvariantViolation("system is not on the lattice")
        zs.append(int(v) % scale)
    ps = []
    for p in x.gaps:
        v = p * scale
        if v.denominator != 1:
            raise InvariantViolation("system is not on the lattice")
        ps.append(int(v))
    return tuple(zs), tuple(ps), tuple(labels)


def _decode_space(m: int, den: int, enc) -> tuple[ArcSystem, tuple[str, ...]]:
    zs, ps, labels = enc
    scale = m * den
    pairs = tuple((Fraction(z, scale), Fraction(0)) for z in zs)
    phi = tuple(Fraction(p, scale) for p in ps)
    from .circle import system
    return system(m, pairs, phi, "uCc"), labels


def _decode_lambda(m: int, den: int, enc) -> tuple[CyclicPoint, tuple[str, ...]]:
    rbar, ts, labels = enc
    return CyclicPoint(m, Turn(Fraction(rbar, den), Fraction(m)),
                       tuple(Fraction(t, den) for t in ts)), labels


@dataclass
class ThmReport:
    m: int
    den: int
    per_degree: list[dict]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_thm_cycbar_free(X: PointedCmSet, n_max: int, m: int, den: int = 4,
                          verify_reps: int = 50) -> ThmReport:
    """Degreewise comparison for free coefficients: exact orbit-class counts on
    a common rational lattice, with the explicit map verified to be a bijection
    class by class (and re-verified through the exact-rational route on a
    sample of representatives)."""
    if X.m != m:
        raise MismatchError("letter set lives over a different cyclic order")
    letters = X.nonbase()
    failures: list[str] = []
    per_degree: list[dict] = []
    scale = m * den
    sig_pow = X.sigma_pow

    # encoded points: centers and gaps in 1/(m*den) turns on the space side,
    # rbar and simplex coordinates in 1/den units on the cyclic side
    def space_canon(enc):
        zs, ps, labels = enc
        return _canon_slots(zs, (ps,), labels, den, sig_pow)

    def lam_canon(enc):
        return _canon_twists(*enc, den, sig_pow)

    for n in range(1, n_max + 1):
        # every orbit meets the points with all centers (space side) or the
        # base angle (cyclic side) in [0, den), so only those are enumerated
        space_classes = set()
        lam_classes = set()
        for ps in _compositions(den, n):
            for z0 in range(den):
                zs = tuple(itertools.accumulate(
                    ps[:-1], lambda z, p: (z + p) % den, initial=z0))
                for labels in itertools.product(letters, repeat=n):
                    space_classes.add(space_canon((zs, ps, labels)))
                    lam_classes.add(lam_canon((z0, ps, labels)))
        entry = {"n": n, "left_classes": len(space_classes),
                 "right_classes": len(lam_classes)}
        per_degree.append(entry)
        if len(space_classes) != len(lam_classes):
            failures.append(
                f"n={n}: class counts differ "
                f"({len(space_classes)} vs {len(lam_classes)})")
            continue

        # encoded forward map: align, reindex, canonicalize in the target
        def forward(enc):
            zs, ps, labels = enc
            cs = [0] * n
            target = zs[0]
            for j in range(1, n):
                target = (target + ps[j - 1]) % scale
                diff = (target - zs[j]) % scale
                if diff % den:
                    raise InvariantViolation(
                        "encoded system violates the gap consistency invariant")
                cs[j] = diff // den
            labels2 = tuple(sig_pow(labels[i], cs[i]) for i in range(n))
            return lam_canon((zs[0], ps, labels2))

        images: dict = {}
        ok_bijection = True
        for cls in space_classes:
            img = forward(cls)
            if img in images:
                failures.append(f"n={n}: comparison map not injective")
                ok_bijection = False
                break
            images[img] = cls
        if ok_bijection and set(images) != lam_classes:
            failures.append(f"n={n}: comparison map not surjective")
            ok_bijection = False

        if ok_bijection:
            # inverse (through the forward parametrization) on every class
            for img, cls in images.items():
                p, labels = _decode_lambda(m, den, img)
                back = _encode_space(lambda_to_ucc(p), labels, X, den)
                if space_canon(back) != cls:
                    failures.append(f"n={n}: explicit inverse fails on a class")
                    break

        # dual-route verification through the exact-rational types
        for cls in itertools.islice(sorted(space_classes), verify_reps):
            space, labels = _decode_space(m, den, cls)
            orb = labeled_orbit(X, space, labels)
            lam = map_c_to_l(X, orb)
            rb = lam.point.rbar.value * den
            ts = [t * den for t in lam.point.simplex]
            if rb.denominator != 1 or any(t.denominator != 1 for t in ts):
                failures.append(f"n={n}: exact route leaves the lattice")
                break
            enc = (int(rb), tuple(int(t) for t in ts), lam.labels)
            if lam_canon(enc) != forward(cls):
                failures.append(f"n={n}: encoded and exact routes disagree")
                break
    return ThmReport(m, den, per_degree, failures)
