"""Seeded draws and composites pinned by a digest: the samplers, the
compositions and the validators' error texts must not change under a
rewrite of their arithmetic.  A report digest cannot see this, because a
passing report's JSON does not depend on the draws."""
import hashlib
import json
import random
from dataclasses import fields, is_dataclass
from fractions import Fraction as F

from arcbar import cyclic
from arcbar.circle import ArcSystem, compose_uec, sample_ucc, sample_uec
from arcbar.operads import (INSTANCES, CompactElem, DiskTuple, FramedTuple,
                            _sample_cells, pair_view, sample_ucompact)
from arcbar.rational import InvariantViolation, Turn, rat_str
from test_rational import _draw_rat


# the lattice elements by the fields their Fraction views stand for
_VIEWS = {DiskTuple: lambda x: [x.pairs],
          FramedTuple: lambda x: [x.pairs, x.group],
          CompactElem: lambda x: [x.u_pairs, x.perm],
          ArcSystem: lambda x: [x.m, x.pairs, x.phi],
          cyclic.CyclicPoint: lambda p: [p.m, p.rbar, p.simplex]}


def _canon(x):
    """A JSON form that keeps the type of every scalar: a Fraction is a
    'p/q' string, an int a number, a dataclass its class name and fields,
    a lattice element its class name and the views of its fields."""
    if type(x) is F:
        return rat_str(x)
    if type(x) in (int, str):
        return x
    if type(x) in _VIEWS:
        return [type(x).__name__] + [_canon(y) for y in _VIEWS[type(x)](x)]
    if is_dataclass(x):
        return [type(x).__name__] + [_canon(getattr(x, f.name)) for f in fields(x)]
    if type(x) in (tuple, list):
        return [_canon(y) for y in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def _outcome(build):
    try:
        return _canon(build())
    except InvariantViolation as exc:
        return "error: " + str(exc)


def _interval_faults(pairs):
    """Each pair's center moved by its radius and by a quarter, its radius
    doubled, made negative or grown past 1: some of these tuples overlap,
    leave [-1, 1] or have a radius out of bounds."""
    out = []
    for i, (v, r) in enumerate(pairs):
        for moved in ((v + r, r), (v - F(1, 4), r), (v, 2 * r), (-v, r + F(1, 8)),
                      (v, -r - F(1, 8)), (v, r + 1)):
            out.append(pairs[:i] + (moved,) + pairs[i + 1:])
    return out


def _arc_faults(x: ArcSystem):
    """Each arc's center moved, its radius grown or made negative, and its
    gap shifted."""
    zs, rs, phi = [z.value for z in x.centers()], list(x.radii()), list(x.phi)
    out = []
    for i in range(x.n):
        for dz, dr, dp in ((F(1, 16), 0, 0), (0, F(1, 16), 0), (0, 0, F(1, 32)),
                           (F(1, 2 * x.m), 0, 0), (-F(1, 64), F(1, 64), 0),
                           (0, F(1, 2 * x.m), 0), (0, -F(1, 64), 0),
                           (0, 0, -F(1, 2))):
            z2, r2, p2 = list(zs), list(rs), list(phi)
            z2[i] += dz
            r2[i] += dr
            p2[i] += dp
            out.append((x.m, tuple(zip(z2, r2)), tuple(p2)))
    return out


def _draws():
    doc = {}
    for name in sorted(INSTANCES):
        inst = INSTANCES[name]
        rng = random.Random(f"draws:{name}")
        lo = 0 if inst.allow_nullary else 1
        rows = []
        for _ in range(40):
            a = inst.sample(rng, rng.randint(1, 3))
            bs = [inst.sample(rng, rng.randint(lo, 3)) for _ in range(a.arity)]
            rows.append([_canon(a), _canon(bs), _outcome(lambda: inst.compose(a, bs))])
            if name in ("dR", "dc"):
                pairs = a.pairs if name == "dR" else a.u_pairs
                make = DiskTuple.from_pairs if name == "dR" else (
                    lambda ps: CompactElem.from_pairs(ps, a.perm))
                rows.append([_outcome(lambda: inst.validate(make(ps)) or "ok")
                             for ps in _interval_faults(pairs)])
        doc[name] = [rows, rng.random()]

    rng = random.Random("draws:ucompact")
    doc["sample_ucompact"] = [[_canon(sample_ucompact(rng, n, den))
                               for n in range(5) for den in (1, 3, 8, 12)],
                              rng.random()]
    for sampler in (sample_uec, sample_ucc):
        rng = random.Random(f"draws:{sampler.__name__}")
        rows = []
        for _ in range(40):
            m, n = rng.randint(1, 3), rng.randint(0, 4)
            x = sampler(rng, m, n, allow_zero_gaps=rng.random() < 0.5)
            gs = [sample_ucompact(rng, rng.randint(0, 3)) for _ in range(n)]
            rows.append([_canon(x), _canon(gs), _outcome(lambda: compose_uec(x, gs))])
            rows.append([_outcome(lambda: ArcSystem(m, tuple((Turn(z), r) for z, r in ps),
                                                    phi))
                         for m, ps, phi in _arc_faults(x)])
        doc[sampler.__name__] = [rows, rng.random()]
    rng = random.Random("draws:sample_point")
    doc["sample_point"] = [[_canon(cyclic.sample_point(rng, m, q))
                            for m in (1, 2, 3) for q in range(4)], rng.random()]
    rng = random.Random("draws:_draw_rat")
    doc["_draw_rat"] = [[_canon(_draw_rat(rng, den, lo, hi))
                         for den in (1, 2, 5, 8, 13)
                         for lo, hi in ((F(0), F(1)), (F(-1), F(1)), (F(-2, 3), F(5, 7)),
                                        (F(0), F(3)))],
                        rng.random()]
    return doc


# sha256 of the sorted-key JSON of _draws(), recorded with the Fraction-chain
# samplers, composition and validators
_DRAWS_DIGEST = "524b5b246a9a62332a93883f30d79c3e80bb60c7c48ac564ec7167ae89ad0494"


def test_seeded_draws_and_composites_match_the_recorded_digest():
    blob = json.dumps(_draws(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == _DRAWS_DIGEST


def _sample_cells_reference(rng, arity, den, allow_zero):
    """The cell sampler written as a chain of Fraction operations."""
    if arity == 0:
        return []
    h = F(1, arity)
    out = []
    for i in range(arity):
        center = F(-1) + (2 * i + 1) * h
        v = center + _draw_rat(rng, den, F(-1), F(1)) * (h / 2)
        if allow_zero and rng.randrange(3) == 0:
            r = F(0)
        else:
            r = _draw_rat(rng, den, F(0), F(1)) * (h / 4)
            if not allow_zero and r == 0:
                r = h / 8
        out.append((v, r))
    if allow_zero and arity >= 2 and rng.randrange(4) == 0:
        i = rng.randrange(arity - 1)
        out[i] = (out[i][0], F(0))
        out[i + 1] = (out[i][0], F(0))
    return out


def test_sample_cells_matches_the_fraction_reference_and_rng_state():
    for seed in range(60):
        for arity in range(6):
            for den, allow_zero in ((1, False), (8, False), (8, True), (5, True)):
                a, b = random.Random(seed), random.Random(seed)
                got = pair_view(*_sample_cells(a, arity, den, allow_zero))
                want = _sample_cells_reference(b, arity, den, allow_zero)
                assert list(got) == want
                assert all(type(c) is F for pair in got for c in pair)
                assert a.getstate() == b.getstate()
