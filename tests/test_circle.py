"""Arc systems: validity, the compactified composition with its worked
example, group actions, and the retraction."""
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcbar.barcalc import labeled_orbit, pointed_set
from arcbar.circle import (ArcSystem, circle_act, compose_uec, cyclic_rotate,
                           retract_step, sample_ucc, sample_uec, system,
                           wreath_act)
from arcbar.cyclic import (CyclicPoint, circle_act_point, face_point,
                           lambda_to_ucc, sample_point, twist_point, ucc_to_lambda)
from arcbar.groups import (CyclicElem, Perm, WreathElem, block_cycle_perm,
                           upsilon, znwrcm_elements)
from arcbar.jsonio import arc_system_from_json, arc_system_to_json
from arcbar.operads import sample_ucompact
from arcbar.rational import InvariantViolation, MismatchError, Turn, rat_str
from test_groups import wreath_identity, wreath_mul


def _count_fractions(monkeypatch) -> list:
    """From here on, the arguments of every Fraction built."""
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    return built


def test_arc_operations_build_no_fraction(monkeypatch):
    rng = random.Random(7)
    xs = [sample_uec(rng, m, n) for m in (1, 2, 3) for n in (1, 3, 5)]
    ys = [sample_ucc(rng, m, n, allow_zero_gaps=True) for m in (1, 2, 3)
          for n in (1, 4)]
    blocks = [[sample_ucompact(rng, rng.randint(0, 3)) for _ in range(x.n)]
              for x in xs]
    gs = [rng.choice(list(znwrcm_elements(x.n, x.m))) for x in xs]
    thetas = [F(1, 3), F(5, 16), Turn(F(7, 12))]
    points = [sample_point(rng, m, q) for m in (1, 2, 3) for q in (0, 2)]
    X = {m: pointed_set("X", ["x", "y"], m, {"x": "y", "y": "x"} if m % 2 == 0
                        else {}) for m in (1, 2, 3)}
    labels = [tuple(rng.choice("xy") for _ in range(y.n)) for y in ys + xs]
    built = _count_fractions(monkeypatch)
    for x, blk, g in zip(xs, blocks, gs):
        compose_uec(x, blk)
        wreath_act(g, x)
        for theta in thetas:
            circle_act(theta, x)
    for y in ys:
        for _ in range(y.n):
            y = retract_step(y)
    for x, ls in zip(ys + xs, labels):
        assert labeled_orbit(X[x.m], x, ls).kind == "point"
    for p in points:
        assert ucc_to_lambda(lambda_to_ucc(p)) == p
    assert built == []


def test_repr_is_that_of_the_views():
    x = system(2, [(0, F(1, 8)), (F(1, 4), 0)], [F(1, 4), F(1, 4)], "uEc")
    assert repr(x) == (
        "ArcSystem(m=2, pairs=((Turn(value=Fraction(0, 1), modulus=Fraction(1, 1)),"
        " Fraction(1, 8)), (Turn(value=Fraction(1, 4), modulus=Fraction(1, 1)),"
        " Fraction(0, 1))), phi=(Fraction(1, 4), Fraction(1, 4)))")
    assert str(x) == repr(x)
    assert repr(system(1, [], [], "uEc")) == "ArcSystem(m=1, pairs=(), phi=())"
    p = CyclicPoint(2, Turn(F(3, 2), F(2)), (F(1, 3), F(2, 3)))
    assert repr(p) == (
        "CyclicPoint(m=2, rbar=Turn(value=Fraction(3, 2), modulus=Fraction(2, 1)),"
        " simplex=(Fraction(1, 3), Fraction(2, 3)))")


def _arc_view(x):
    return x.m, x.pairs, x.phi


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 4), st.integers(1, 12),
       st.sampled_from([F(0), F(1, 2), F(1, 3), F(5, 12), F(7, 8)]))
def test_arc_lattice_is_least_and_equal_exactly_when_views_are(seed, m, n, den, theta):
    rng = random.Random(seed)
    x = sample_uec(rng, m, n, den)
    g = rng.choice(list(znwrcm_elements(n, m)))
    for y in (x, sample_ucc(rng, m, n, den), circle_act(theta, x),
              circle_act(1 - theta, circle_act(theta, x)), wreath_act(g, x),
              compose_uec(x, [sample_ucompact(rng, rng.randint(0, 2), den)
                              for _ in range(n)])):
        # den is the least multiple of 2m over which every coordinate is an
        # integer, and the views build the same lattice back
        values = [z.value for z in y.centers()] + list(y.radii()) + list(y.phi)
        assert y.den == math.lcm(2 * y.m, *(v.denominator for v in values))
        assert all(0 <= z < y.den for z in y.zs)
        again = ArcSystem(y.m, y.pairs, y.phi)
        assert (again.den, again.zs, again.rs, again.ps) == (y.den, y.zs, y.rs, y.ps)
        assert (y == x) == (_arc_view(y) == _arc_view(x))
        assert y != x or hash(y) == hash(x)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(0, 4),
       st.sampled_from([F(0), F(1, 2), F(1, 3), F(3, 8)]))
def test_point_lattice_is_least_and_equal_exactly_when_views_are(seed, m, q, theta):
    rng = random.Random(seed)
    p = sample_point(rng, m, q)
    others = [p, twist_point(p), circle_act_point(theta, p),
              circle_act_point(1 - theta, circle_act_point(theta, p)),
              sample_point(rng, m, q)]
    if q:
        others.append(face_point(rng.randint(0, q), p))
    for y in others:
        values = [y.rbar.value, *y.simplex]
        assert y.den == math.lcm(*(v.denominator for v in values))
        assert 0 <= y.r < y.m * y.den and sum(y.ts) == y.den
        again = CyclicPoint(y.m, y.rbar, y.simplex)
        assert (again.den, again.r, again.ts) == (y.den, y.r, y.ts)
        same = (y.m, y.rbar, y.simplex) == (p.m, p.rbar, p.simplex)
        assert (y == p) == same
        assert y != p or hash(y) == hash(p)


def test_validation():
    system(2, [(0, F(1, 8)), (F(1, 4), F(1, 8))], [F(1, 4), F(1, 4)], "uEc")
    with pytest.raises(InvariantViolation):  # gap sum
        system(2, [(0, 0), (F(1, 4), 0)], [F(1, 4), F(1, 2)], "uEc")
    with pytest.raises(InvariantViolation):  # consistency mod 1/m
        system(2, [(0, 0), (F(1, 3), 0)], [F(1, 4), F(1, 4)], "uEc")
    with pytest.raises(InvariantViolation):  # overlapping positive radii
        system(1, [(0, F(1, 4)), (F(1, 8), F(1, 4))], [F(1, 8), F(7, 8)], "uEc")
    with pytest.raises(InvariantViolation):  # radius bound
        system(2, [(0, F(1, 3))], [F(1, 2)], "uEc")
    with pytest.raises(InvariantViolation):  # uCc needs zero radii
        system(1, [(0, F(1, 8))], [F(1)], "uCc")
    with pytest.raises(InvariantViolation):  # ... and zero radii make uCc
        system(1, [(0, 0), (F(1, 2), 0)], [F(1, 2), F(1, 2)], "uEc")
    with pytest.raises(InvariantViolation):  # ... and at least one arc
        system(1, [], [], "uCc")
    assert system(1, [], [], "uEc").variant == "uEc"
    # coincident degenerate points along a zero gap are admitted
    system(1, [(0, 0), (0, 0), (F(1, 2), 0)], [0, F(1, 2), F(1, 2)], "uCc")
    # a degenerate point at the boundary of an arc is admitted
    system(1, [(0, F(1, 8)), (F(1, 8), 0)], [F(1, 8), F(7, 8)], "uEc")
    with pytest.raises(InvariantViolation):  # strictly inside is not
        system(1, [(0, F(1, 8)), (F(1, 16), 0)], [F(1, 16), F(15, 16)], "uEc")
    # image overlap: an open arc per positive radius, a point per zero radius
    system(1, [(0, F(1, 8)), (F(1, 2), F(1, 8))], [F(1, 2), F(1, 2)], "uEc")
    # arcs touching on both sides
    system(1, [(0, F(1, 4)), (F(1, 2), F(1, 4))], [F(1, 2), F(1, 2)], "uEc")
    with pytest.raises(InvariantViolation):
        system(1, [(0, F(1, 4)), (F(3, 8), F(1, 4))], [F(3, 8), F(5, 8)], "uEc")
    system(1, [(F(1, 3), 0), (F(1, 3), 0)], [0, F(1)], "uCc")
    system(1, [(F(1, 3), 0), (F(1, 2), 0)], [F(1, 6), F(5, 6)], "uCc")
    # a point across the wrap-around, inside the arc at 0, on S^1 and on S^1/C_2
    with pytest.raises(InvariantViolation):
        system(1, [(0, F(1, 8)), (F(15, 16), 0)], [F(15, 16), F(1, 16)], "uEc")
    with pytest.raises(InvariantViolation):
        system(2, [(0, F(1, 8)), (F(15, 16), 0)], [F(7, 16), F(1, 16)], "uEc")
    with pytest.raises(InvariantViolation):  # centers on another circle
        ArcSystem(1, ((Turn(0), F(1, 8)), (Turn(0, F(1, 2)), F(1, 8))),
                  (F(1, 2), F(1, 2)))


def test_validation_builds_no_fraction(monkeypatch):
    x = system(2, [(0, F(1, 8)), (F(1, 4), F(1, 8))], [F(1, 4), F(1, 4)], "uEc")
    built = _count_fractions(monkeypatch)
    # every check runs: radii, images, the gap bounds and the gap congruence
    x.validate()
    assert built == []


def test_compose_worked_example():
    outer = system(1, [(0, F(1, 8)), (F(1, 2), F(1, 8))],
                   [F(1, 2), F(1, 2)], "uEc")
    got = compose_uec(outer, [((F(0), F(1, 2)),), ((F(1, 2), F(1, 4)),)])
    assert [z.value for z, _ in got.pairs] == [F(0), F(9, 16)]
    assert [r for _, r in got.pairs] == [F(1, 16), F(1, 32)]
    assert got.phi == (F(9, 16), F(7, 16))
    assert sum(got.phi) == 1


def test_compose_unit_and_degenerate():
    rng = random.Random(1)
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        x = sample_uec(rng, m, n)
        assert compose_uec(x, [((F(0), F(1)),)] * n) == x
        # scale-zero inners land in the all-degenerate stratum
        vs = [((F(1, 2), F(0)),) for _ in range(n)]
        y = compose_uec(x, vs)
        assert y.variant == "uCc"
        assert [z.value for z, _ in y.pairs] == \
            [(z.value + r / 2) % 1 for z, r in x.pairs]


def test_compose_empty_blocks_and_arity_zero():
    x = system(2, [(0, 0), (F(1, 8), 0), (F(1, 4), 0)],
               [F(1, 8), F(1, 8), F(1, 4)], "uCc")
    y = compose_uec(x, [(), ((F(0), F(0)),), ()])
    assert y.n == 1 and y.phi == (F(1, 2),)
    z = compose_uec(x, [(), (), ()])
    assert z.n == 0
    out = compose_uec(system(1, [(0, F(1, 4))], [F(1)], "uEc"),
                      [((F(-1, 2), F(1, 4)), (F(1, 2), F(1, 4)))])
    assert sum(out.phi) == 1
    with pytest.raises(MismatchError):
        compose_uec(x, [()])


def test_compose_module_associativity_and_cyclic_compat():
    rng = random.Random(2)
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        f = sample_uec(rng, m, n)
        gs = [sample_ucompact(rng, rng.randint(0, 2)) for _ in range(n)]
        fg = compose_uec(f, gs)
        hs = [sample_ucompact(rng, rng.randint(0, 2)) for _ in range(fg.n)]
        lhs = compose_uec(fg, hs)
        at, ghs = 0, []
        for g in gs:
            blk = hs[at:at + len(g)]
            at += len(g)
            flat = []
            for (v, r), h in zip(g, blk):
                flat.extend((v + r * w, r * s) for w, s in h)
            ghs.append(tuple(flat))
        assert lhs == compose_uec(f, ghs)
        # block cycling
        k = rng.randrange(n)
        alpha = Perm.cycle(n) ** k
        lhs = compose_uec(cyclic_rotate(f, alpha), gs)
        inv = alpha.inverse()
        rhs = compose_uec(f, [gs[inv(p)] for p in range(n)])
        rho = block_cycle_perm([len(g) for g in gs], alpha)
        if rho.degree:
            rhs = cyclic_rotate(rhs, rho)
        assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 4), st.integers(1, 12))
def test_compose_uec_centers_match_the_turn_formula(seed, m, n, den):
    # the integer substitution on the centers' values, against the Fraction
    # formula reduced by Turn
    rng = random.Random(seed)
    x = sample_uec(rng, m, n, den)
    gs = [sample_ucompact(rng, rng.randint(0, 3), den) for _ in range(n)]
    got = compose_uec(x, gs)
    want = tuple((Turn(z.value + r * w), r * s)
                 for (z, r), g in zip(x.pairs, gs) for w, s in g)
    assert got.pairs == want
    assert all(type(z) is Turn and type(z.value) is F and type(r) is F
               for z, r in got.pairs)


def compose_psi_cover_oracle(outer, inners):
    """Independent route to the output gaps: lift the outer centers to the
    line by accumulating gaps, place every child at its affine position on
    the cover, and read off consecutive differences (the wrap closes after
    one quotient circumference).  No case analysis."""
    lifts = [outer.pairs[0][0].value]
    for p in outer.phi[:-1]:
        lifts.append(lifts[-1] + p)
    positions = []
    for b, blk in enumerate(inners):
        rb = outer.pairs[b][1]
        positions.extend(lifts[b] + rb * v for v, _ in blk)
    if not positions:
        return ()
    wrap = positions[0] + F(1, outer.m)
    nxt = positions[1:] + [wrap]
    return tuple(b - a for a, b in zip(positions, nxt))


def test_compose_psi_against_cover_oracle():
    rng = random.Random(20)
    for _ in range(400):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        f = sample_uec(rng, m, n)
        gs = [sample_ucompact(rng, rng.randint(0, 3)) for _ in range(n)]
        got = compose_uec(f, gs)
        assert got.phi == compose_psi_cover_oracle(f, gs)


def test_wreath_act_examples():
    x = system(2, [(F(1, 3), 0)], [F(1, 2)], "uCc")
    g = WreathElem(Perm.identity(1), (CyclicElem(2, 1),))
    assert wreath_act(g, x).pairs[0][0].value == F(1, 3) + F(1, 2)
    rng = random.Random(3)
    for _ in range(100):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        y = sample_uec(rng, m, n)
        ident = wreath_identity(n, m)
        assert wreath_act(ident, y) == y
        u = upsilon(m, n)
        z = y
        for _ in range(m * n):
            z = wreath_act(u, z)
        assert z == y
        # left-action composition over the abelian base
        g = rng.choice(list(znwrcm_elements(n, m)))
        h = rng.choice(list(znwrcm_elements(n, m)))
        assert wreath_act(g, wreath_act(h, y)) == wreath_act(wreath_mul(g, h), y)
    with pytest.raises(InvariantViolation):
        wreath_act(WreathElem(Perm((1, 0, 2)),
                              (CyclicElem(1, 0),) * 3),
                   sample_uec(random.Random(0), 1, 3))


def test_upsilon_carries_last_to_front_with_twist():
    x = system(2, [(0, 0), (F(1, 8), 0), (F(1, 4), 0)],
               [F(1, 8), F(1, 8), F(1, 4)], "uCc")
    y = wreath_act(upsilon(2, 3), x)
    assert [z.value for z, _ in y.pairs] == \
        [(F(1, 4) - F(1, 2)) % 1, F(0), F(1, 8)]
    assert y.phi == (F(1, 4), F(1, 8), F(1, 8))


def test_circle_act():
    rng = random.Random(4)
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        x = sample_uec(rng, m, n)
        assert circle_act(Turn(F(0)), x) == x
        assert circle_act(F(1), x) == x
        g = rng.choice(list(znwrcm_elements(n, m)))
        theta = Turn(F(rng.randint(0, 15), 16))
        assert circle_act(theta, wreath_act(g, x)) == \
            wreath_act(g, circle_act(theta, x))


def test_retract_examples():
    x = system(1, [(0, 0), (0, 0)], [1, 0], "uCc")
    y = retract_step(x)
    assert y.phi == (F(1, 2), F(1, 2))
    assert [z.value for z, _ in y.pairs] == [F(1, 2), F(0)]
    # equal gaps: rotation only
    e = system(2, [(0, 0), (F(1, 4), 0)], [F(1, 4), F(1, 4)], "uCc")
    r = retract_step(e)
    assert r.phi == e.phi
    assert [z.value for z, _ in r.pairs] == [F(1, 8), F(3, 8)]
    with pytest.raises(InvariantViolation):
        retract_step(system(1, [(0, F(1, 8))], [F(1)], "uEc"))


def test_retract_reaches_positive_gaps():
    rng = random.Random(5)
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 6)
        x = sample_ucc(rng, m, n, allow_zero_gaps=True)
        y = x
        for _ in range(n):
            y = retract_step(y)
        assert all(p > 0 for p in y.phi)
        # the retraction is equivariant
        g = rng.choice(list(znwrcm_elements(n, m)))
        assert retract_step(wreath_act(g, x)) == wreath_act(g, retract_step(x))
        theta = Turn(F(rng.randint(0, 7), 8))
        assert retract_step(circle_act(theta, x)) == \
            circle_act(theta, retract_step(x))


# ---------------------------------------------------------------------------
# validation against a brute-force oracle on lattice systems
# ---------------------------------------------------------------------------

def _ref_mod(x, modulus):
    return x - math.floor(x / modulus) * modulus


def _oracle_accepts(m, pairs, phi, variant):
    """ArcSystem validation and the variant label written out with an image
    test on every pair and the gap congruence through a floor-based
    reduction."""
    n = len(pairs)
    zs = [_ref_mod(z, 1) for z, _ in pairs]
    rs = [r for _, r in pairs]
    if len(phi) != n:
        return False
    if variant != ("uCc" if n and all(r == 0 for r in rs) else "uEc"):
        return False
    if n == 0:
        return True
    q = F(1, m)
    if any(r < 0 or r > q / 2 for r in rs):
        return False
    cls = [_ref_mod(z, q) for z in zs]
    for i in range(n):
        for j in range(i + 1, n):
            d = _ref_mod(cls[i] - cls[j], q)
            d = min(d, q - d)
            both_zero = rs[i] == 0 and rs[j] == 0
            overlap = d == 0 if both_zero else d < rs[i] + rs[j]
            if overlap and not both_zero:
                return False
    if any(p < 0 or p > q for p in phi) or sum(phi) != q:
        return False
    for j in range(n):
        if _ref_mod(zs[(j + 1) % n] - (zs[j] + phi[j]), q) != 0:
            return False
    return True


@st.composite
def lattice_systems(draw, cells=8):
    """(m, pairs, phi, variant) on the lattice of half-cells of 1/(m*cells)
    turns: consistent gaps and C_m-shifted centers, radii that are zero, fit
    between the neighbours or are arbitrary (so they may overlap), then
    optionally a moved center, a moved gap, two swapped centers, an
    oversized radius, a gap too many or too few, or the wrong variant
    label."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, 4))
    h = F(1, 2 * m * cells)  # half a cell
    positive = draw(st.booleans())  # distinct interior cuts: no zero gap
    cuts = sorted(draw(st.lists(st.integers(positive, cells - positive),
                                min_size=max(n - 1, 0), max_size=max(n - 1, 0),
                                unique=positive)))
    gaps = [2 * (b - a) for a, b in zip([0] + cuts, cuts + [cells])][:n]
    z = draw(st.integers(0, 4 * m * cells - 1)) * h
    zs = []
    for g in gaps:
        zs.append(z)
        z += g * h + F(draw(st.integers(0, m - 1)), m)
    mode = draw(st.sampled_from(["zero", "fit", "any"]))
    radii = []
    for j in range(n):
        low, top = 0, cells
        if mode == "zero":
            top = 0
        elif mode == "fit":
            top = min(gaps[j - 1], gaps[j]) // 2 if n > 1 else cells
            low = min(1, top)
        radii.append(draw(st.integers(low, top)) * h)
    if n and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, n - 1))
        zs[k] += draw(st.sampled_from([h, 2 * h, F(1, m)]))
    if n > 1 and draw(st.integers(0, 3)) == 0:
        i, k = draw(st.permutations(range(n)))[:2]
        gaps[i] += 2
        gaps[k] -= 2
    if n > 2 and draw(st.integers(0, 3)) == 0:
        i, k = draw(st.permutations(range(n)))[:2]
        zs[i], zs[k] = zs[k], zs[i]
    if n and draw(st.integers(0, 9)) == 0:
        radii[draw(st.integers(0, n - 1))] = (cells + 1) * h
    phi = tuple(g * h for g in gaps)
    if draw(st.integers(0, 9)) == 0:
        phi = phi[:-1] if n and draw(st.booleans()) else phi + (h,)
    variant = "uCc" if n and not any(radii) else "uEc"
    if draw(st.integers(0, 3)) == 0:
        variant = {"uEc": "uCc", "uCc": "uEc"}[variant]
    return m, list(zip(zs, radii)), phi, variant


# An image across 0 mod 1/m that meets only its wrap-around neighbour: the
# strategy rarely draws one, and only the wrap-around pair of the scan sees it.
@example((1, [(F(0), F(1, 8)), (F(15, 16), F(0))], (F(15, 16), F(1, 16)), "uEc"))
@example((2, [(F(0), F(1, 8)), (F(15, 16), F(0))], (F(7, 16), F(1, 16)), "uEc"))
@example((1, [(F(31, 32), F(1, 16)), (F(1, 16), F(1, 16))], (F(3, 32), F(29, 32)),
          "uEc"))
@example((3, [(F(0), F(1, 8)), (F(5, 24), F(0))], (F(5, 24), F(1, 8)), "uEc"))
@settings(max_examples=500, deadline=None)
@given(lattice_systems())
def test_validation_matches_brute_force_oracle(args):
    m, pairs, phi, variant = args
    want = _oracle_accepts(m, pairs, phi, variant)
    try:
        system(m, pairs, phi, variant)
        got = True
    except InvariantViolation:
        got = False
    assert got == want
    # the JSON boundary agrees, and an accepted system round-trips exactly
    j = {"m": m, "variant": variant, "phi": [rat_str(p) for p in phi],
         "pairs": [{"zeta": rat_str(z % 1), "r": rat_str(r)} for z, r in pairs]}
    if want:
        assert arc_system_to_json(arc_system_from_json(j)) == j
    else:
        with pytest.raises(InvariantViolation):
            arc_system_from_json(j)
