"""Desk-scale coefficients and bar constructions: finite pointed monoids with
a cyclic-group action, the relative cyclic bar construction and its operator
relations, the truncated free-monoid monad with its two-sided bar
construction, labeled orbits of degenerate arc systems, and the degreewise
comparison with the cyclic space model.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .circle import ArcSystem, compose_uec
from .cyclic import CyclicPoint, align_ucc, lambda_to_ucc, ucc_to_lambda
from .groups import act_labels
from .rational import ZERO, InvariantViolation, MismatchError
from .report import Report

# ---------------------------------------------------------------------------
# finite pointed C_m-sets and C_m-monoids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointedCmSet:
    """A finite pointed set with a C_m-action: the letters of a free algebra,
    and the underlying set of every coefficient monoid.

    The one place sigma is validated and tabulated: `_sig[x]` is sigma x and
    `_powers[x]` is (x, sigma x, ..., sigma^(m-1) x)."""

    name: str
    elements: tuple[str, ...]
    base: str
    m: int
    sigma_table: tuple[str, ...]
    _sig: dict[str, str] = field(init=False, repr=False, compare=False)
    _powers: dict[str, tuple[str, ...]] = field(init=False, repr=False,
                                                compare=False)

    def __post_init__(self) -> None:
        es = self.elements
        if self.m < 1:
            raise InvariantViolation("m must be >= 1")
        if len(set(es)) != len(es):
            raise InvariantViolation("duplicate element names")
        if self.base not in es:
            raise InvariantViolation(f"{self.base!r} not among the elements")
        if len(self.sigma_table) != len(es):
            raise InvariantViolation("sigma table must cover all elements")
        if sorted(self.sigma_table) != sorted(es):
            raise InvariantViolation("sigma must be a bijection")
        sig = dict(zip(es, self.sigma_table))
        if sig[self.base] != self.base:
            raise InvariantViolation("sigma must fix the basepoint")
        powers = {}
        for e in es:
            row = [e]
            for _ in range(self.m - 1):
                row.append(sig[row[-1]])
            if sig[row[-1]] != e:
                raise InvariantViolation("sigma order does not divide m")
            powers[e] = tuple(row)
        object.__setattr__(self, "_sig", sig)
        object.__setattr__(self, "_powers", powers)

    def sigma(self, x: str) -> str:
        return self._sig[x]

    def sigma_pow(self, x: str, k: int) -> str:
        return self._powers[x][k % self.m]

    def nonbase(self) -> tuple[str, ...]:
        return tuple(e for e in self.elements if e != self.base)


def pointed_set(name: str, letters: Sequence[str], m: int,
                sigma: dict[str, str] | None = None) -> PointedCmSet:
    """The pointed C_m-set {*} u letters; `sigma` maps letters to letters and
    fixes every letter it leaves out."""
    elements = ("*",) + tuple(letters)
    sigma = sigma or {}
    unknown = sorted(set(sigma) - set(elements))
    if unknown:
        raise InvariantViolation(f"sigma names unknown letter {unknown[0]!r}")
    return PointedCmSet(name, elements, "*", m,
                        tuple(sigma.get(e, e) for e in elements))


@dataclass(frozen=True, kw_only=True)
class FinCmMonoid(PointedCmSet):
    """A finite pointed C_m-set with a basepoint-absorbing multiplication and
    a unit, on which sigma acts by monoid automorphisms."""

    unit: str
    mul_table: tuple[tuple[str, ...], ...]
    _mul: dict[str, dict[str, str]] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        # sigma is checked first; validate rejects a ragged or short product
        # table before reading _mul[a][b] = ab, which the bar operators read
        super().__post_init__()
        object.__setattr__(self, "_mul", {
            a: dict(zip(self.elements, row))
            for a, row in zip(self.elements, self.mul_table)})
        self.validate()

    def multiply(self, a: str, b: str) -> str:
        return self._mul[a][b]

    def product(self, xs: Sequence[str]) -> str:
        out = self.unit
        for x in xs:
            out = self.multiply(out, x)
        return out

    def validate(self) -> None:
        es = self.elements
        if self.unit not in es:
            raise InvariantViolation(f"{self.unit!r} not among the elements")
        if len(self.mul_table) != len(es) or any(len(r) != len(es)
                                                 for r in self.mul_table):
            raise InvariantViolation("multiplication table must be square")
        known = set(es)
        for a in es:
            for b in es:
                x = self.multiply(a, b)
                if x not in known:
                    raise InvariantViolation(
                        f"product {a}*{b} = {x!r} not among the elements")
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
        if self.sigma(self.unit) != self.unit:
            raise InvariantViolation("sigma must fix unit and basepoint")
        for a in es:
            for b in es:
                if self.sigma(self.multiply(a, b)) != \
                        self.multiply(self.sigma(a), self.sigma(b)):
                    raise InvariantViolation("sigma is not a monoid map")


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
    return FinCmMonoid(name=name, elements=elements, base="*", m=m,
                       sigma_table=sigma_table, unit="g0", mul_table=mul_table)


def standard_monoids(m: int) -> list[FinCmMonoid]:
    """The test coefficients available at a given cyclic order."""
    out = [pointed_cyclic_monoid("trivial", 1, m),
           pointed_cyclic_monoid("c2", 2, m)]
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
    return (R._sig[t[-1]],) + t[:-1]


def cyclic_face(R: FinCmMonoid, i: int, t: Tuple_) -> Tuple_:
    q = len(t) - 1
    if not (0 <= i <= q) or q < 1:
        raise MismatchError(f"face d_{i} undefined on a degree-{q} tuple")
    base = R.base
    if base in t:
        return (base,) * q
    if i < q:
        x = R._mul[t[i]][t[i + 1]]
        return (base,) * q if x == base else t[:i] + (x,) + t[i + 2:]
    # d_q = d_0 tau_q
    x = R._mul[R._sig[t[q]]][t[0]]
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


def _relation_failures(R: FinCmMonoid, q: int, tw: Tuple_, D: list[Tuple_],
                       S: list[Tuple_], ct: Tuple_) -> Iterator[str]:
    """Every operator relation of the m-cyclic structure plus the simplicial
    identities on one degree-q tuple t, read only through its first-level
    image: tw = tau t, D[i] = d_i t, S[j] = s_j t and ct = collapse(t).
    Yields each failing law, in a fixed order."""
    # tau_q^{m(q+1)} = id
    cur = tw
    for _ in range(R.m * (q + 1) - 1):
        cur = cyclic_twist(R, cur)
    if cur != ct:
        yield "tau period"
    # d_0 tau_q = d_q
    if cyclic_face(R, 0, tw) != D[q]:
        yield "d_0 tau = d_q"
    # d_i tau_q = tau_{q-1} d_{i-1}
    for i in range(1, q + 1):
        if cyclic_face(R, i, tw) != cyclic_twist(R, D[i - 1]):
            yield f"d_{i} tau"
    # s_0 tau_q = tau_{q+1}^2 s_q
    if cyclic_degeneracy(R, 0, tw) != cyclic_twist(R, cyclic_twist(R, S[q])):
        yield "s_0 tau"
    # s_i tau_q = tau_{q+1} s_{i-1}
    for i in range(1, q + 1):
        if cyclic_degeneracy(R, i, tw) != cyclic_twist(R, S[i - 1]):
            yield f"s_{i} tau"
    # simplicial identities
    if q >= 2:
        for i in range(0, q + 1):
            for j in range(i + 1, q + 1):
                if cyclic_face(R, i, D[j]) != cyclic_face(R, j - 1, D[i]):
                    yield f"d_{i} d_{j}"
    for i in range(0, q + 1):
        for j in range(i, q + 1):
            if cyclic_degeneracy(R, i, S[j]) != cyclic_degeneracy(R, j + 1, S[i]):
                yield f"s_{i} s_{j}"
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
                yield f"d_{i} s_{j}"


def verify_cyclic_object(R: FinCmMonoid, q_max: int, cap: int = 100_000,
                         seed: int = 0, trials: int = 300) -> Report:
    """Exhaustively (small coefficients) or by sampling, check every operator
    relation of the m-cyclic structure plus the simplicial identities, and
    that a tuple holding the basepoint goes to the basepoint."""
    rng = random.Random(seed)
    base = R.base
    rep = Report(f"cyclic-relations[{R.name}, m={R.m}]",
                 {"q_max": q_max, "cap": cap, "seed": seed, "trials": trials})
    cases = 0

    # Each tuple's first-level image (tw, D, S, ct) is computed once, and the
    # relations read nothing else, so their failing laws are a function of
    # it.  In the smash power every tuple holding the basepoint is one point:
    # for those tuples (the ones collapse changes) the laws are found once
    # per image and degree and repeated with each tuple's own witness.  An
    # operator that raises ends its degree with a closure failure, so an
    # image left half-checked is never read again.
    for q in range(1, q_max + 1):
        base_t, base_d, base_s = ((base,) * n for n in (q + 1, q, q + 2))
        seen: dict[tuple, list[str]] = {}
        with rep.guard("closure", f"q={q}"):
            for t in _tuples_at(R, q, cap, rng, trials):
                cases += 1
                tw = cyclic_twist(R, t)
                D = [cyclic_face(R, i, t) for i in range(q + 1)]
                S = [cyclic_degeneracy(R, j, t) for j in range(q + 1)]
                ct = collapse(R, t)
                # tau, every d_i and every s_j take the basepoint to the basepoint
                if base in t and (tw != base_t or D.count(base_d) != q + 1 or
                                  S.count(base_s) != q + 1):
                    rep.fail("collapse", f"q={q}, t={t}")
                found: list[str] = []
                if ct != t:
                    key = (tw, tuple(D), tuple(S), ct)
                    if key in seen:
                        for law in seen[key]:
                            rep.fail(law, f"q={q}, t={t}")
                        continue
                    seen[key] = found
                for law in _relation_failures(R, q, tw, D, S, ct):
                    found.append(law)
                    rep.fail(law, f"q={q}, t={t}")
    rep.cases = cases
    return rep


_TWIST_ORDER_CAP = 10_000


def twist_order(R: FinCmMonoid, q: int, probe: Tuple_) -> int:
    """Order of the twist on the degree-q tuple `probe`."""
    if len(probe) != q + 1:
        raise MismatchError(f"a degree-{q} tuple has {q + 1} entries")
    cur = cyclic_twist(R, probe)
    k = 1
    while cur != probe:
        cur = cyclic_twist(R, cur)
        k += 1
        if k > _TWIST_ORDER_CAP:
            raise InvariantViolation("twist order exceeds cap")
    return k


# ---------------------------------------------------------------------------
# the truncated free monoid monad
# ---------------------------------------------------------------------------

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
        return self.sigma_pow(w, 1)

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

    def face(self, q: int, i: int, x):
        if not (0 <= i <= q) or q < 1:
            raise MismatchError(f"face d_{i} undefined at bar level {q}")
        if i == 0:
            out = self._map_level(x, q, self.R.product)
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


def _slot_plan(zs: Sequence[int], rest: tuple, quantum: int) -> tuple:
    """The labelling-free half of `_canon_slots`: the least rotation of
    (centers mod quantum, *rest), the rotations attaining it, and the slot
    exponents -(z // quantum), None when every center is in [0, quantum)."""
    if 0 <= min(zs) and max(zs) < quantum:
        cols, exps = (tuple(zs), *rest), None
    else:
        cols = (tuple([z % quantum for z in zs]), *rest)
        exps = [-(z // quantum) for z in zs]
    n = len(zs)
    twice = cols[0] * 2
    turned = [twice[k:k + n] for k in range(n)]
    least = min(turned)
    ks = [k for k in range(n) if turned[k] == least]
    if len(ks) > 1:  # rotations whose centers tie are told apart by *rest
        heads = [tuple([c[k:] + c[:k] for c in cols]) for k in ks]
        least = min(heads)
        ks = [k for k, h in zip(ks, heads) if h == least]
    k = ks[0]
    return tuple([c[k:] + c[:k] for c in cols]), ks, exps


def _slot_relabel(plan: tuple, labels: tuple, sig_pow) -> tuple:
    """Turn the labels by the plan's exponents; take the least tied rotation."""
    head, ks, exps = plan
    if exps is not None:
        labels = tuple(map(sig_pow, labels, exps))
    return (*head, min([labels[k:] + labels[:k] for k in ks]))


def _canon_slots(zs: Sequence[int], rest: tuple, labels: Sequence[str],
                 quantum: int, sig_pow) -> tuple:
    """Least (centers, *rest, labels) over the orbit of Z_n wr C_m, on
    integer centers with the quantum 1/m as `quantum`.

    A slot's C_m member moves its center by multiples of `quantum` and acts
    by sigma on its label.  Centers compare first, so each center reduces
    mod `quantum`, and only the n rotations are left to compare.
    """
    return _slot_relabel(_slot_plan(zs, rest, quantum), tuple(labels), sig_pow)


def labeled_orbit(coeffs: PointedCmSet, space: ArcSystem,
                  labels: Sequence[str]) -> LabeledOrbit:
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
    zs, rs, ps, labels_c = _canon_slots(space.zs, (space.rs, space.ps), labels,
                                        space.den // m, coeffs.sigma_pow)
    space_c = ArcSystem.on_lattice(m, space.den, zs, rs, ps)
    return LabeledOrbit(m, n, space_c, labels_c, "point")


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
        inners.append(((ZERO, ZERO),) * len(w.letters))
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


def _twist_plan(rbar: int, ts: tuple[int, ...], one: int) -> tuple:
    """The labelling-free half of `_canon_twists`: the least (rbar mod one,
    simplex) key, and for each twist power k attaining it, with rbar down
    j turns, the exponent -j - (i < k) of the label landing in slot i."""
    cands = []
    for k in range(len(ts)):
        j = rbar // one
        cands.append(((rbar - j * one, ts), k, j))
        rbar, ts = rbar - ts[-1], (ts[-1],) + ts[:-1]
    key = min(cands)[0]
    return key, [(k, [-j - (i < k) for i in range(len(ts))])
                 for c, k, j in cands if c == key]


def _twist_relabel(plan: tuple, labels: tuple, sig_pow) -> tuple:
    """Slot i takes the label of slot i - k, for the tied candidates only."""
    key, cands = plan
    return (*key, min([tuple(map(sig_pow, labels[-k:] + labels[:-k], exps))
                       for k, exps in cands]))


def _canon_twists(rbar: int, ts: tuple[int, ...], labels: tuple[str, ...],
                  one: int, sig_pow) -> tuple:
    """Least (rbar, simplex, labels) over the orbit of C_{mn}: the twist on
    the point paired with the distinguished wreath element on the labels,
    on integer numerators with `one` units of rbar to a turn.

    The n-th power of the generator shifts rbar by -one and applies sigma^-1
    to every label, so only the n twist powers with rbar in [0, one) are
    compared.  After k twists slot i holds the label from slot i - k, turned
    by sigma^-1 once if it wrapped (i < k).
    """
    return _twist_relabel(_twist_plan(rbar, ts, one), tuple(labels), sig_pow)


def _lambda_canon(coeffs: PointedCmSet, p: CyclicPoint,
                  labels: tuple[str, ...]) -> LambdaClass:
    rbar, ts, labels_c = _canon_twists(p.r, p.ts, labels, p.den, coeffs.sigma_pow)
    return LambdaClass(p.m, p.q + 1, CyclicPoint.on_lattice(p.m, p.den, rbar, ts),
                       labels_c, "point")


def map_c_to_l(coeffs: PointedCmSet, orbit: LabeledOrbit) -> LambdaClass:
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
                        lambda c, y: coeffs.sigma_pow(y, c.exponent))
    p = ucc_to_lambda(aligned)
    return _lambda_canon(coeffs, p, labels)


def lambda_class_to_orbit(coeffs: PointedCmSet, cls: LambdaClass) -> LabeledOrbit:
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


def check_thm_cycbar_free(X: PointedCmSet, n_max: int, m: int, den: int = 4,
                          verify_reps: int = 50) -> Report:
    """Degreewise comparison for free coefficients: exact orbit-class counts on
    a common rational lattice, checked against the Burnside closed form, with
    the explicit map and its inverse verified class by class on integer
    encodings (and both re-verified through the exact-rational route on a
    sample of representatives)."""
    if X.m != m:
        raise MismatchError("letter set lives over a different cyclic order")
    letters = X.nonbase()
    rep = Report(f"thm-cycbar[{X.name}]", {"n_max": n_max, "m": m, "den": den,
                                           "verify_reps": verify_reps})
    scale = m * den
    sig_pow = X.sigma_pow

    # encoded points: centers and gaps in 1/(m*den) turns on the space side,
    # rbar and simplex coordinates in 1/den units on the cyclic side; each
    # geometry is planned once and every labelling of it reuses the plan
    slot_plan = functools.cache(lambda zs, ps: _slot_plan(zs, (ps,), den))
    twist_plan = functools.cache(lambda rbar, ts: _twist_plan(rbar, ts, den))

    for n in range(1, n_max + 1):
        # every orbit meets the points with all centers (space side) or the
        # base angle (cyclic side) in [0, den), so only those are enumerated
        space_classes = set()
        lam_classes = set()
        for ps in _compositions(den, n):
            for z0 in range(den):
                zs = tuple(itertools.accumulate(
                    ps[:-1], lambda z, p: (z + p) % den, initial=z0))
                space_plan, lam_plan = slot_plan(zs, ps), twist_plan(z0, ps)
                for labels in itertools.product(letters, repeat=n):
                    space_classes.add(_slot_relabel(space_plan, labels, sig_pow))
                    lam_classes.add(_twist_relabel(lam_plan, labels, sig_pow))
        # C_{mn} acts freely on the lattice, so Burnside counts the classes
        closed = den * math.comb(den + n - 1, n - 1) * len(letters) ** n // n
        rep.per_degree.append({"n": n, "left_classes": len(space_classes),
                               "right_classes": len(lam_classes),
                               "closed_form_classes": closed})
        rep.cases += len(space_classes)
        if len(space_classes) != closed:
            rep.fail("class-counts-closed-form", f"n={n}", str(closed),
                     str(len(space_classes)))
        if len(space_classes) != len(lam_classes):
            rep.fail("class-counts", f"n={n}", str(len(space_classes)),
                     str(len(lam_classes)))
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
            labels2 = tuple(map(sig_pow, labels, cs))
            return _twist_relabel(twist_plan(zs[0], ps), labels2, sig_pow)

        images: dict = {}
        ok_bijection = True
        for cls in space_classes:
            img = forward(cls)
            if img in images:
                rep.fail("injective", f"n={n}")
                ok_bijection = False
                break
            images[img] = cls
        if ok_bijection and set(images) != lam_classes:
            rep.fail("surjective", f"n={n}")
            ok_bijection = False

        if ok_bijection:
            # explicit inverse on every class: centers at rbar plus the
            # prefix sums of the simplex, gaps the simplex
            for (rbar, ts, labels), cls in images.items():
                zs = tuple(itertools.accumulate(
                    ts[:-1], lambda z, t: (z + t) % scale, initial=rbar))
                if _slot_relabel(slot_plan(zs, ts), labels, sig_pow) != cls:
                    rep.fail("explicit-inverse", f"n={n}")
                    break

        # dual-route verification through the arc-system and point types:
        # a class's arc system over 2*scale, a multiple of 2m, and its image
        # point read back over den
        for cls in itertools.islice(sorted(space_classes), verify_reps):
            zs, ps, labels = cls
            space = ArcSystem.on_lattice(m, 2 * scale, [2 * z for z in zs],
                                         [0] * n, [2 * p for p in ps])
            orb = labeled_orbit(X, space, labels)
            lam = map_c_to_l(X, orb)
            pt = lam.point
            if den % pt.den:
                rep.fail("dual-route-lattice", f"n={n}")
                break
            k = den // pt.den
            plan = twist_plan(pt.r * k, tuple(t * k for t in pt.ts))
            if _twist_relabel(plan, lam.labels, sig_pow) != forward(cls):
                rep.fail("dual-route", f"n={n}")
                break
            if lambda_class_to_orbit(X, lam) != orb:
                rep.fail("dual-route-inverse", f"n={n}")
                break
    return rep
