"""Operad instances: worked composition examples, the seeded law harness, the
structure maps, and an independent full-tuple oracle for the compactified
composition."""
import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcbar.groups import CyclicElem, Perm
from arcbar.operads import (ASSOC, C2_SIGN, COMPACT, FRAMED_C2, LITTLE_DISKS,
                            SEMIDIRECT_C2, AssocElem, CompactElem, DiskTuple,
                            FramedTuple, LittleDiskOperad, SemidirectElem,
                            SemidirectOperad, assoc_to_compact,
                            check_operad_laws, check_operad_map, lattice,
                            little_to_compact, pair_view, semidirect_iso,
                            semidirect_iso_inverse, substitute,
                            validate_compact)
from arcbar.rational import InvariantViolation
from arcbar.report import MAX_LISTED


def test_little_disk_composition_example():
    outer = DiskTuple.from_pairs(((F(0), F(1, 2)),))
    inner = DiskTuple.from_pairs(((F(1, 2), F(1, 4)),))
    got = LITTLE_DISKS.compose(outer, [inner])
    assert got == DiskTuple.from_pairs(((F(1, 4), F(1, 8)),))


def test_framed_composition_example():
    minus = CyclicElem(2, 1)
    plus = CyclicElem(2, 0)
    outer = FramedTuple.from_pairs(((F(0), F(1, 2), minus),), C2_SIGN)
    inner = FramedTuple.from_pairs(((F(1, 2), F(1, 4), minus),), C2_SIGN)
    got = FRAMED_C2.compose(outer, [inner])
    assert got == FramedTuple.from_pairs(((F(-1, 4), F(1, 8), plus),), C2_SIGN)


def test_unit_laws_explicit():
    rng = random.Random(0)
    a = LITTLE_DISKS.sample(rng, 3)
    assert LITTLE_DISKS.compose(LITTLE_DISKS.unit(), [a]) == a
    assert LITTLE_DISKS.compose(a, [LITTLE_DISKS.unit()] * 3) == a


def test_compact_invariants():
    def compact(*pairs):
        return CompactElem.from_pairs(pairs, Perm.identity(len(pairs)))

    validate_compact(compact((F(0), F(0)), (F(0), F(0))))
    with pytest.raises(InvariantViolation):
        validate_compact(compact((F(1, 2), F(1, 4)), (F(0), F(1, 4))))
    with pytest.raises(InvariantViolation):
        validate_compact(compact((F(0), F(1, 4)), (F(1, 4), F(1, 4))))
    # degenerate point strictly inside an interval is rejected
    with pytest.raises(InvariantViolation):
        validate_compact(compact((F(0), F(1, 2)), (F(1, 4), F(0))))
    # touching at the boundary is fine
    validate_compact(compact((F(-1, 2), F(1, 4)), (F(0), F(1, 4))))


@pytest.mark.parametrize("inst,nullary", [
    (ASSOC, True), (LITTLE_DISKS, False), (FRAMED_C2, False),
    (COMPACT, True), (SEMIDIRECT_C2, False)])
def test_law_harness_passes(inst, nullary):
    rep = check_operad_laws(inst, seed=11, trials=200, allow_nullary=nullary)
    assert rep.ok, rep.failures[:5]


def test_assoc_to_compact_map():
    assert assoc_to_compact(AssocElem(Perm.identity(2))) == \
        CompactElem.from_pairs(((F(0), F(0)), (F(0), F(0))), Perm.identity(2))
    assert assoc_to_compact(AssocElem(Perm(()))).arity == 0
    rep = check_operad_map(assoc_to_compact, ASSOC, COMPACT, seed=3, trials=300,
                           max_arity=4)
    assert rep.ok, rep.failures[:5]


def test_little_to_compact_map():
    rep = check_operad_map(little_to_compact, LITTLE_DISKS, COMPACT, seed=5,
                           trials=300, allow_nullary=False)
    assert rep.ok, rep.failures[:5]


def test_semidirect_iso():
    rng = random.Random(9)
    rep = check_operad_map(semidirect_iso, SEMIDIRECT_C2, FRAMED_C2, seed=7,
                           trials=300, allow_nullary=False)
    assert rep.ok, rep.failures[:5]
    for _ in range(300):
        x = SEMIDIRECT_C2.sample(rng, rng.randint(1, 3))
        assert semidirect_iso_inverse(semidirect_iso(x)) == x
        y = FRAMED_C2.sample(rng, rng.randint(1, 3))
        assert semidirect_iso(semidirect_iso_inverse(y)) == y
    # trivial group parts embed the little disks unchanged
    d = LITTLE_DISKS.sample(rng, 3)
    x = SemidirectElem(d, (CyclicElem(2, 0),) * 3, C2_SIGN)
    assert semidirect_iso(x).pairs == tuple(
        (v, r, CyclicElem(2, 0)) for v, r in d.pairs)


def test_semidirect_iso_example():
    minus = CyclicElem(2, 1)
    x = SemidirectElem(DiskTuple.from_pairs(((F(0), F(1, 2)),)), (minus,), C2_SIGN)
    assert semidirect_iso(x) == FramedTuple.from_pairs(((F(0), F(1, 2), minus),), C2_SIGN)


def test_named_map_registry():
    from arcbar.operads import OPERAD_MAPS
    assert set(OPERAD_MAPS) == {"assoc->dc", "dR->dc", "semidirect->framed"}
    for tag, (fn, src, dst) in OPERAD_MAPS.items():
        rep = check_operad_map(fn, src, dst, seed=1, trials=120,
                               allow_nullary=src is ASSOC)
        assert rep.ok, (tag, rep.failures[:3])


class _UntwistedSemidirect(SemidirectOperad):
    """The semidirect operad with the conjugation twist dropped."""

    def _conjugate(self, h, d):
        return d


def test_corrupted_semidirect_caught_by_map_check():
    # dropping the conjugation twist leaves a lawful product operad, so the
    # defect surfaces in the comparison map, not in the bare law triple
    corrupted = _UntwistedSemidirect(C2_SIGN)
    rep = check_operad_map(semidirect_iso, corrupted, FRAMED_C2, seed=0,
                           trials=200, allow_nullary=False)
    assert not rep.ok
    assert any(v["law"] == "map-compose" for v in rep.failures)
    # every trial runs; the failure list stops at the cap, the verdict does not
    assert rep.cases == 200
    assert len(rep.failures) == MAX_LISTED


class _RefusingDisks(LittleDiskOperad):
    """Little disks whose composition refuses more than one inner element."""

    def compose(self, outer, inners):
        if len(inners) > 1:
            raise InvariantViolation("refused")
        return super().compose(outer, inners)


def test_law_harnesses_fold_a_raised_error_into_a_closure_failure():
    refusing = _RefusingDisks()
    rep = check_operad_laws(refusing, seed=0, trials=30, allow_nullary=False)
    closure = [f for f in rep.failures if f["law"] == "closure"]
    assert closure and rep.cases == 30
    assert all(re.fullmatch(r"trial \d+: refused", f["witness"]) for f in closure)
    rep = check_operad_map(little_to_compact, refusing, COMPACT, seed=0,
                           trials=30, allow_nullary=False)
    assert {f["law"] for f in rep.failures} == {"map-closure"}
    assert all(re.fullmatch(r"trial \d+: refused", f["witness"])
               for f in rep.failures)


# -- the integer substitution against the Fraction formula -------------------

_coords = st.fractions(min_value=-3, max_value=3, max_denominator=60)


@settings(max_examples=150)
@given(st.lists(st.tuples(_coords, _coords, st.sampled_from([1, -1]),
                          st.lists(st.tuples(_coords, _coords), max_size=3)),
                max_size=4))
def test_substitute_matches_the_fraction_formula(slots):
    outer = [(v, r) for v, r, _, _ in slots]
    signs = [e for _, _, e, _ in slots]
    blocks = [block for _, _, _, block in slots]
    got = pair_view(*substitute(lattice(outer), [lattice(b) for b in blocks], signs))
    want = [(v + e * r * w, r * s) for (v, r), e, block in zip(outer, signs, blocks)
            for w, s in block]
    assert list(got) == want
    assert all(type(c) is F for pair in got for c in pair)


# -- the lattice: reduced, and equal exactly when the Fraction views are -----

_small = st.fractions(min_value=-1, max_value=1, max_denominator=6)
_ELEMENTS = {
    "dR": (DiskTuple.from_pairs, lambda x: x.pairs),
    "framed-c2": (lambda ps: FramedTuple.from_pairs([(v, r, _PLUS) for v, r in ps],
                                                    C2_SIGN),
                  lambda x: tuple((v, r) for v, r, _ in x.pairs)),
    "dc": (lambda ps: CompactElem.from_pairs(ps, Perm.identity(len(ps))),
           lambda x: x.u_pairs),
}


@pytest.mark.parametrize("name", sorted(_ELEMENTS))
@settings(max_examples=120)
@given(st.lists(st.tuples(_small, _small, st.sampled_from([1, -1]),
                          st.lists(st.tuples(_small, _small), max_size=3)),
                max_size=3),
       st.integers(min_value=-1, max_value=8), st.tuples(_small, _small))
@example([(F(0), F(1, 2), 1, [(F(1, 2), F(1, 2))]), (F(1, 2), F(1, 4), -1, [])], 0,
         (F(1, 4), F(1, 4)))
def test_lattice_is_reduced_and_equal_exactly_when_views_are(name, slots, at, pair):
    make, view = _ELEMENTS[name]
    outer = [(v, r) for v, r, _, _ in slots]
    blocks = [block for _, _, _, block in slots]
    signs = [e for _, _, e, _ in slots]
    den, nums = substitute(lattice(outer), [lattice(b) for b in blocks], signs)
    composite = make(pair_view(den, nums))
    # a composite is already reduced, so it is the lattice of its own view
    assert (composite.den, composite.nums) == (den, nums)
    assert den > 0 and math.gcd(den, *itertools.chain(*nums)) == 1
    # the view with one pair replaced, or unchanged when `at` is no slot
    pairs = list(view(composite))
    if 0 <= at < len(pairs):
        pairs[at] = pair
    other = make(pairs)
    assert view(other) == tuple(pairs)
    assert (other == composite) == (view(other) == view(composite))
    assert other != composite or hash(other) == hash(composite)


@pytest.mark.parametrize("inst", [LITTLE_DISKS, FRAMED_C2, COMPACT, SEMIDIRECT_C2],
                         ids=lambda inst: inst.name)
def test_law_checks_build_no_fraction(monkeypatch, inst):
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    assert F(1, 3) and built == [(1, 3)]
    built.clear()
    rep = check_operad_laws(inst, seed=4, trials=100, allow_nullary=inst.allow_nullary)
    assert rep.ok and rep.cases == 100
    assert built == []


# -- independent oracle for the compactified composition ---------------------

def compact_compose_oracle(outer: CompactElem, inners):
    """Full-tuple model: expand (u, sigma) to the labelled tuple, compose
    little-disk style, and re-extract the sorted part and permutation by
    block bookkeeping rather than the block-permutation formula."""
    n = outer.arity
    full_outer = [outer.u_pairs[outer.perm(i)] for i in range(n)]
    tags_outer = [outer.perm(i) for i in range(n)]
    full = []
    for i in range(n):
        inner = inners[i]
        j = inner.arity
        for k in range(j):
            w, s = inner.u_pairs[inner.perm(k)]
            v, r = full_outer[i]
            full.append(((v + r * w, r * s), (tags_outer[i], inner.perm(k))))
    # target slot order: lexicographic by (outer u-slot, inner u-slot)
    order = sorted(range(len(full)), key=lambda l: full[l][1])
    u = tuple(full[order[k]][0] for k in range(len(full)))
    sigma = Perm(tuple(order)).inverse()
    return CompactElem.from_pairs(u, sigma)


def test_compact_composition_against_oracle():
    rng = random.Random(21)
    for _ in range(400):
        n = rng.randint(1, 3)
        outer = COMPACT.sample(rng, n)
        inners = [COMPACT.sample(rng, rng.randint(0, 3)) for _ in range(n)]
        got = COMPACT.compose(outer, inners)
        want = compact_compose_oracle(outer, inners)
        assert got == want


def test_assoc_composition_brute_force():
    # both sides of the operad-map square for sampled permutations, n <= 4
    rng = random.Random(22)
    for _ in range(300):
        n = rng.randint(1, 4)
        sigma = AssocElem(Perm(tuple(rng.sample(range(n), n))))
        taus = [AssocElem(Perm(tuple(rng.sample(range(j), j))))
                for j in (rng.randint(0, 3) for _ in range(n))]
        lhs = assoc_to_compact(ASSOC.compose(sigma, taus))
        rhs = COMPACT.compose(assoc_to_compact(sigma),
                              [assoc_to_compact(t) for t in taus])
        assert lhs == rhs
        want = compact_compose_oracle(assoc_to_compact(sigma),
                                      [assoc_to_compact(t) for t in taus])
        assert lhs == want


def test_disjointness_preserved_by_composition():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 3)
        outer = LITTLE_DISKS.sample(rng, n)
        inners = [LITTLE_DISKS.sample(rng, rng.randint(1, 3)) for _ in range(n)]
        LITTLE_DISKS.validate(LITTLE_DISKS.compose(outer, inners))
        f_outer = FRAMED_C2.sample(rng, n)
        f_inners = [FRAMED_C2.sample(rng, rng.randint(1, 3)) for _ in range(n)]
        FRAMED_C2.validate(FRAMED_C2.compose(f_outer, f_inners))


# -- a pairwise oracle for the interval validators ---------------------------

def _pairwise_accepts(pairs, degenerate):
    """The interval invariants written out with a test on every pair: radii
    in (0, 1], or [0, 1] when `degenerate`, every image inside [-1, 1],
    sorted centers when `degenerate`, and no two open images meeting; two
    degenerate points may coincide."""
    for v, r in pairs:
        if not (0 <= r <= 1) or (r == 0 and not degenerate) or abs(v) + r > 1:
            return False
    if degenerate and any(a[0] > b[0] for a, b in zip(pairs, pairs[1:])):
        return False
    return not any(abs(vi - vj) < ri + rj and (ri or rj)
                   for (vi, ri), (vj, rj) in itertools.combinations(pairs, 2))


_PLUS = CyclicElem(2, 0)
_VALIDATORS = {
    "dR": (lambda ps: LITTLE_DISKS.validate(DiskTuple.from_pairs(ps)), False),
    "framed-c2": (lambda ps: FRAMED_C2.validate(
        FramedTuple.from_pairs(tuple((v, r, _PLUS) for v, r in ps), C2_SIGN)), False),
    "dc": (lambda ps: COMPACT.validate(CompactElem.from_pairs(ps, Perm.identity(len(ps)))),
           True),
}
_CASES = {
    "touching": ((F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
    "coincident-points": ((F(0), F(0)), (F(0), F(0))),
    "point-on-boundary": ((F(-1, 2), F(1, 4)), (F(-1, 4), F(0))),
    "point-inside": ((F(-1, 2), F(1, 4)), (F(-1, 2), F(0))),
    "duplicate-disks": ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4))),
}
_LATTICE = [(F(v, 4), F(r, 4)) for v in range(-4, 5) for r in range(3)]
# denominators 3, 4, 5 and 15 mixed: the common denominator of a tuple is
# not the denominator of any one coordinate, and pairs touch across them
_MIXED = [(v, r) for v in (F(-3, 5), F(-1, 3), F(0), F(2, 15), F(7, 15), F(3, 4))
          for r in (F(0), F(1, 4), F(1, 3), F(2, 5))]


@pytest.mark.parametrize("name", sorted(_VALIDATORS))
def test_interval_validators_match_pairwise_oracle(name):
    validate, degenerate = _VALIDATORS[name]
    tuples = [p for lattice in (_LATTICE, _MIXED) for n in range(4)
              for p in itertools.product(lattice, repeat=n)]
    tuples += list(_CASES.values())
    for pairs in tuples:
        want = _pairwise_accepts(pairs, degenerate)
        try:
            validate(pairs)
            got, err = True, ""
        except InvariantViolation as exc:
            got, err = False, str(exc)
        assert got == want, (name, pairs, err)
        # an overlap error names two input slots whose images meet
        slots = re.search(r"(?:disks|slots) (\d+)(?: and |,)(\d+)", err)
        if slots:
            i, j = map(int, slots.groups())
            assert not _pairwise_accepts((pairs[i], pairs[j]), True), (pairs, err)
