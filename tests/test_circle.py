"""Arc systems: validity, gap coordinates, the compactified composition with
its worked example, group actions, the retraction, and the ordered-with-
permutation presentation."""
import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcbar.circle import (VARIANTS, ArcSystem, SystemWithPerm, arc_coords,
                           circle_act, compose_uec, cyclic_rotate, drop_coords,
                           from_pair, retract_step, sample_e, sample_ucc,
                           sample_ue, sample_uec, system, to_pair, wreath_act)
from arcbar.groups import (CyclicElem, Perm, WreathElem, block_cycle_perm,
                           upsilon, znwrcm_elements)
from arcbar.operads import sample_ucompact
from arcbar.rational import InvariantViolation, MismatchError, Turn


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
    with pytest.raises(InvariantViolation):  # strict variants need positive radii
        system(1, [(0, 0), (F(1, 2), 0)], None, "uE")
    # coincident degenerate points along a zero gap are admitted
    system(1, [(0, 0), (0, 0), (F(1, 2), 0)], [0, F(1, 2), F(1, 2)], "uEc")
    # a degenerate point at the boundary of an arc is admitted
    system(1, [(0, F(1, 8)), (F(1, 8), 0)], [F(1, 8), F(7, 8)], "uEc")
    with pytest.raises(InvariantViolation):  # strictly inside is not
        system(1, [(0, F(1, 8)), (F(1, 16), 0)], [F(1, 16), F(15, 16)], "uEc")


def test_validation_builds_the_quantum_once(monkeypatch):
    reads = []
    real = ArcSystem.quantum

    def counted(self):
        reads.append(self.m)
        return real.fget(self)

    monkeypatch.setattr(ArcSystem, "quantum", property(counted))
    # every check runs: radii, images, consecutive gaps and the gap congruence
    system(2, [(0, F(1, 8)), (F(1, 4), F(1, 8))], [F(1, 4), F(1, 4)], "uEprime")
    assert reads == [2]


def test_arc_coords_examples():
    x = system(1, [(0, F(1, 8)), (F(1, 2), F(1, 8))], None, "uE")
    assert arc_coords(x).phi == (F(1, 2), F(1, 2))
    y = system(3, [(F(1, 5), F(1, 12))], None, "uE")
    assert arc_coords(y).phi == (F(1, 3),)
    with pytest.raises(MismatchError):
        arc_coords(system(1, [(0, F(1, 8))], [F(1)], "uEc"))


def test_arc_coords_roundtrip():
    rng = random.Random(0)
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        x = sample_ue(rng, m, n)
        filled = arc_coords(x)
        assert drop_coords(filled) == x
        assert arc_coords(filled) == filled
    with pytest.raises(InvariantViolation):
        arc_coords(ArcSystem(1, ((Turn(F(0)), F(1, 16)),
                                 (Turn(F(0)), F(1, 16))), None, "uE"))


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
        ident = WreathElem.identity(n, CyclicElem.identity(m))
        assert wreath_act(ident, y) == y
        u = upsilon(m, n)
        z = y
        for _ in range(m * n):
            z = wreath_act(u, z)
        assert z == y
        # left-action composition over the abelian base
        g = rng.choice(list(znwrcm_elements(n, m)))
        h = rng.choice(list(znwrcm_elements(n, m)))
        assert wreath_act(g, wreath_act(h, y)) == wreath_act(g.compose(h), y)
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


def test_pair_presentation_roundtrip():
    rng = random.Random(6)
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        x = sample_e(rng, m, n)
        p = to_pair(x)
        assert from_pair(p) == x
        assert p.normalized() == p
        # the pair is invariant under re-extraction
        assert to_pair(from_pair(p)) == p
    with pytest.raises(InvariantViolation):
        to_pair(ArcSystem(1, ((Turn(F(0)), F(1, 16)),
                              (Turn(F(1, 16) * 32), F(1, 16))), None, "E"))


def test_pair_presentation_quotient():
    # rotated bases with adjusted permutations normalize identically
    rng = random.Random(7)
    for _ in range(100):
        m, n = rng.randint(1, 3), rng.randint(2, 4)
        x = sample_e(rng, m, n)
        p = to_pair(x)
        for k in range(n):
            alpha = Perm.cycle(n) ** k
            q = SystemWithPerm(cyclic_rotate(p.base, alpha),
                               alpha.inverse().compose(p.perm))
            assert q.normalized() == p


def test_retract_with_perm_passthrough():
    x = system(1, [(0, 0), (0, 0)], [1, 0], "uCc")
    sp = SystemWithPerm(x, Perm((1, 0)))
    out = retract_step(sp)
    assert isinstance(out, SystemWithPerm)
    assert out.perm == Perm((1, 0))
    assert out.base.phi == (F(1, 2), F(1, 2))


def test_sample_uec_positive_radii_loop_and_impossible_request():
    # 54 systems from about 600 compositions, digest recorded when the
    # rejection was a recursive call: the loop makes the same draws
    rng = random.Random(11)
    xs = [sample_uec(rng, m, n, 4, allow_zero_radii=False)
          for m in (1, 2, 3) for n in (1, 2, 3) for _ in range(6)]
    assert hashlib.sha256(repr([x.sort_key() for x in xs]).encode()).hexdigest() \
        == "94694dc7bac0faaa57f9ade2e0798cec4c41e8d872df528972208951364bdcc7"
    x = sample_uec(random.Random(3), 2, 6, 4, allow_zero_radii=False)
    assert x.n == 6 and all(r > 0 for r in x.radii())
    with pytest.raises(InvariantViolation):
        sample_uec(random.Random(3), 1, 7, 4, allow_zero_radii=False)
    # one arc needs no positive gap: its cap is half the quotient circle
    assert sample_uec(random.Random(3), 1, 1, 1, allow_zero_radii=False).radii()[0] > 0


# ---------------------------------------------------------------------------
# validation against a brute-force oracle on lattice systems
# ---------------------------------------------------------------------------

def _ref_mod(x, modulus):
    return x - math.floor(x / modulus) * modulus


def _oracle_accepts(m, pairs, phi, variant):
    """ArcSystem validation written out with an image test on every pair and
    the gap congruence through a floor-based reduction."""
    n = len(pairs)
    zs = [_ref_mod(z, 1) for z, _ in pairs]
    rs = [r for _, r in pairs]
    if variant in ("E", "uE"):
        if phi is not None:
            return False
    elif phi is None or len(phi) != n:
        return False
    if n == 0:
        return True
    q = F(1, m)
    strict = variant in ("E", "uE", "uEprime")
    if any(r < 0 or r > q / 2 or (strict and r == 0) for r in rs):
        return False
    if variant == "uCc" and any(r != 0 for r in rs):
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
    if variant in ("uE", "uEprime"):
        gaps = [q] if n == 1 else [_ref_mod(zs[(j + 1) % n] - zs[j], q)
                                   for j in range(n)]
        if any(g == 0 for g in gaps) or sum(gaps) != q:
            return False
    if phi is not None:
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
    oversized radius or gap data that does not match the variant."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, 4))
    variant = draw(st.sampled_from(VARIANTS))
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
    if (variant in ("E", "uE")) != (draw(st.integers(0, 9)) == 0):
        phi = None
    return m, list(zip(zs, radii)), phi, variant


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
