"""Coefficients and bar constructions: operator relations of the relative
cyclic bar construction, the truncated free monoid, the two-sided bar complex,
labeled orbits, and the degreewise comparison for free coefficients."""
import hashlib
import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcbar import barcalc
from arcbar.barcalc import (BASE_WORD, BarComplex, EMPTY_WORD, OVERFLOW_WORD,
                            FinCmMonoid, FreeMonoid, FreeWord, LabeledOrbit,
                            _canon_slots, _canon_twists, _lambda_canon,
                            check_thm_cycbar_free, compressed_cc,
                            cyclic_degeneracy, cyclic_face, cyclic_twist,
                            labeled_orbit, lambda_class_to_orbit,
                            map_c_to_l, pointed_cyclic_monoid, pointed_set,
                            split_orbit_element, standard_monoids,
                            twist_order, verify_cyclic_object)
from arcbar.circle import (circle_act, sample_ucc, sample_uec, system,
                           wreath_act)
from arcbar.cyclic import circle_act_point, sample_point, twist_point
from arcbar.groups import GroupAction, act_labels, upsilon, znwrcm_elements
from arcbar.rational import InvariantViolation, Turn


def test_monoid_construction_and_validation():
    R = pointed_cyclic_monoid("c3-inv", 3, 2, sigma_mult=-1)
    assert R.multiply("g1", "g2") == "g0"
    assert R.multiply("*", "g1") == "*"
    assert R.sigma("g1") == "g2" and R.sigma_pow("g1", 2) == "g1"
    with pytest.raises(InvariantViolation):
        pointed_cyclic_monoid("bad", 3, 3, sigma_mult=-1)  # order 2 map at m=3


def _iterate(f, x, k):
    for _ in range(k):
        x = f(x)
    return x


def test_sigma_pow_table_matches_iterated_sigma():
    letters = [pointed_set("s", ["a", "b", "c"], 6, {"a": "b", "b": "c", "c": "a"}),
               pointed_set("t", ["x", "y"], 4, {"x": "y", "y": "x"})]
    for X in [R for m in range(1, 7) for R in standard_monoids(m)] + letters:
        for x in X.elements:
            for k in range(-2 * X.m, 2 * X.m + 1):
                assert X.sigma_pow(x, k) == _iterate(X.sigma, x, k % X.m), (X.name, x, k)
    # the free monoid reads its letters' table, letter by letter
    for X in letters:
        T = FreeMonoid(X, 3)
        for w in itertools.chain(T.all_words(), [OVERFLOW_WORD]):
            for k in range(-2 * X.m, 2 * X.m + 1):
                assert T.sigma_pow(w, k) == _iterate(T.sigma, w, k % X.m), (X.name, w, k)
    with pytest.raises(InvariantViolation):
        pointed_set("bad", ["a", "b", "c"], 2, {"a": "b", "b": "c", "c": "a"})


def test_cyclic_face_examples():
    R = pointed_cyclic_monoid("c2", 2, 1)
    assert cyclic_face(R, 0, ("g1", "g1")) == ("g0",)
    assert cyclic_twist(R, ("g1", "g0")) == ("g0", "g1")
    # with trivial sigma the twist squares to the identity at q=1, m=1
    t = ("g1", "g0")
    assert cyclic_twist(R, cyclic_twist(R, t)) == t
    # d_q = d_0 tau_q
    assert cyclic_face(R, 1, ("g1", "g0")) == \
        cyclic_face(R, 0, cyclic_twist(R, ("g1", "g0")))


def test_twist_period_with_nontrivial_sigma():
    R = pointed_cyclic_monoid("c3-inv", 3, 2, sigma_mult=-1)
    t = ("g1", "g2")
    cur = t
    for _ in range(4):  # m(q+1) = 2*2
        cur = cyclic_twist(R, cur)
    assert cur == t
    cur = t
    for _ in range(2):
        cur = cyclic_twist(R, cur)
    assert cur == ("g2", "g1")  # sigma applied once to each slot


def test_basepoint_collapse():
    R = pointed_cyclic_monoid("c2", 2, 2)
    assert cyclic_twist(R, ("g1", "*")) == ("*", "*")
    assert cyclic_face(R, 0, ("*", "g1", "g0")) == ("*", "*")
    assert cyclic_degeneracy(R, 1, ("*", "g1")) == ("*", "*", "*")


# Reference operators built only on R.multiply, R.sigma and R.unit, with the
# basepoint collapse applied to each result.

def _ref_collapse(R, t):
    return (R.base,) * len(t) if R.base in t else t


def _ref_twist(R, t):
    return _ref_collapse(R, (R.sigma(t[-1]),) + t[:-1])


def _ref_face(R, i, t):
    if i < len(t) - 1:
        return _ref_collapse(R, t[:i] + (R.multiply(t[i], t[i + 1]),) + t[i + 2:])
    return _ref_face(R, 0, _ref_twist(R, t))


def _ref_degeneracy(R, i, t):
    return _ref_collapse(R, t[:i + 1] + (R.unit,) + t[i + 1:])


def _nilpotent_monoid(m):
    """{*, e, a, b} with every product of a and b the basepoint, sigma swapping
    a and b: products of non-base elements can collapse a tuple."""
    es = ("*", "e", "a", "b")
    table = tuple(tuple(y if x == "e" else x if y == "e" else "*" for y in es)
                  for x in es)
    return FinCmMonoid("nil", es, "*", "e", m, table, ("*", "e", "b", "a"))


@st.composite
def monoid_tuples(draw):
    """A coefficient monoid and a tuple of degree 0..5 over it, drawn either
    from all elements (the basepoint included) or from the others."""
    m = draw(st.integers(1, 4))
    R = draw(st.sampled_from(standard_monoids(m) +
                             ([_nilpotent_monoid(m)] if m % 2 == 0 else [])))
    pool = R.elements if draw(st.booleans()) else R.nonbase()
    t = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)))
    return R, t


@settings(max_examples=400, deadline=None)
@given(monoid_tuples())
def test_operators_match_multiply_sigma_reference(case):
    R, t = case
    q = len(t) - 1
    assert cyclic_twist(R, t) == _ref_twist(R, t)
    for i in range(q + 1):
        assert cyclic_degeneracy(R, i, t) == _ref_degeneracy(R, i, t), (R.name, i, t)
        if q >= 1:
            assert cyclic_face(R, i, t) == _ref_face(R, i, t), (R.name, i, t)


def test_nilpotent_monoid_collapses_and_passes():
    R = _nilpotent_monoid(2)
    assert cyclic_face(R, 0, ("a", "b", "e")) == ("*", "*")
    assert cyclic_face(R, 1, ("a", "e", "b")) == ("a", "b")
    assert cyclic_face(R, 2, ("a", "e", "b")) == ("*", "*")  # d_q: sigma(b) a
    assert verify_cyclic_object(R, 4).ok


def _mutated_reports():
    """(cases, failures) for the standard monoids at m <= 4, q <= 3, with a
    wrong operator patched into barcalc."""
    return [[r.cases, r.failures] for r in (
        verify_cyclic_object(R, 3, cap=4096, seed=5, trials=50)
        for m in (1, 2, 3, 4) for R in standard_monoids(m))]


def _bad_degeneracy(R, i, t):  # inserts the unit at i instead of i + 1
    return barcalc.collapse(R, t[:i] + (R.unit,) + t[i:])


def _bad_face(R, i, t):  # d_q forgets sigma
    if i == len(t) - 1:
        return cyclic_face(R, 0, (t[-1],) + t[:-1])
    return cyclic_face(R, i, t)


# sha256 of the JSON of _mutated_reports(), recorded with the operators
# evaluated separately for every relation side: pins the order and the text
# of the failures and the case counts
_MUTATED_DIGESTS = {
    "cyclic_degeneracy": "961c7ee5ebf0af5eb019458a53b02e770237ba6a68b82f31f95a872dcd2aa339",
    "cyclic_face": "4695d51e131cf5b70ce78e659812bee372eae4d12765776919cf43e92a0b85f8",
}


@pytest.mark.parametrize("name, bad", [("cyclic_degeneracy", _bad_degeneracy),
                                       ("cyclic_face", _bad_face)])
def test_verify_cyclic_object_digest_under_mutated_operator(monkeypatch, name, bad):
    monkeypatch.setattr(barcalc, name, bad)
    reports = _mutated_reports()
    assert sum(len(f) for _, f in reports) > 0
    blob = json.dumps(reports).encode()
    assert hashlib.sha256(blob).hexdigest() == _MUTATED_DIGESTS[name]


def test_verify_cyclic_object_standard_battery():
    for m in (1, 2, 3, 4):
        for R in standard_monoids(m):
            rep = verify_cyclic_object(R, 4, seed=0, trials=120)
            assert rep.ok, (R.name, m, rep.failures[:3])


def test_mutated_twist_detected_by_order():
    # dropping sigma from the twist leaves every displayed relation intact
    # (it is the cyclic structure of the trivial action); the defect is the
    # twist order collapsing to q+1 instead of m(q+1)
    R = pointed_cyclic_monoid("c3-inv", 3, 2, sigma_mult=-1)

    def mutated_twist(t):
        return (t[-1],) + t[:-1]

    q = 2
    probe = ("g1", "g0", "g0")
    cur, k = mutated_twist(probe), 1
    while cur != probe:
        cur, k = mutated_twist(cur), k + 1
    assert k == q + 1
    assert twist_order(R, q, probe) == R.m * (q + 1)
    # the mutated twist still satisfies d_0 tau = d_q for its own d_q
    t = ("g1", "g2", "g0")
    assert cyclic_face(R, 0, mutated_twist(t)) == \
        (R.multiply(t[-1], t[0]),) + t[1:-1]


def test_twist_order_exact():
    for m, k, mult in [(2, 3, -1), (3, 7, 2)]:
        R = pointed_cyclic_monoid("R", k, m, sigma_mult=mult)
        for q in range(0, 4):
            probe = ("g1",) + ("g0",) * q
            assert twist_order(R, q, probe) == m * (q + 1)


def test_free_monoid_monad_laws():
    X = pointed_set("xy", ["x", "y", "z"], 2, {"x": "y", "y": "x"})
    T = FreeMonoid(X, 4)
    assert T.lift("x") == FreeWord(("x",))
    assert T.lift("*") == BASE_WORD
    words = list(T.all_words())
    for w in words:
        assert T.multiply(EMPTY_WORD, w) == w == T.multiply(w, EMPTY_WORD)
        assert T.multiply(BASE_WORD, w) == BASE_WORD
    for a, b, c in itertools.islice(itertools.product(words, repeat=3), 4000):
        lhs = T.multiply(T.multiply(a, b), c)
        rhs = T.multiply(a, T.multiply(b, c))
        assert lhs == rhs  # overflow sentinels absorb consistently
    # flatten is iterated multiplication
    assert T.flatten([T.lift("x"), T.lift("y")]) == FreeWord(("x", "y"))
    assert T.flatten([FreeWord(("x",) * 3), FreeWord(("y",) * 3)]).flag == \
        "overflow"


def test_free_monoid_action_letterwise():
    for size in (1, 2, 3):
        letters = ["x", "y", "z"][:size]
        sigma = {"x": "y", "y": "x"} if size >= 2 else {}
        X = pointed_set("X", letters, 2, sigma)
        T = FreeMonoid(X, 4)
        for a, b in itertools.product(T.all_words(2), repeat=2):
            assert T.sigma(T.multiply(a, b)) == T.multiply(T.sigma(a), T.sigma(b))
            assert T.sigma_pow(a, 2) == a


def test_bar_complex_identities():
    rng = random.Random(0)
    R = pointed_cyclic_monoid("c2", 2, 1)
    bar = BarComplex(R, 6)
    for _ in range(250):
        q = rng.randint(1, 4)
        x = bar.sample(rng, q)
        if q >= 2:
            for i in range(q + 1):
                for j in range(i + 1, q + 1):
                    a = bar.face(q - 1, i, bar.face(q, j, x))
                    b = bar.face(q - 1, j - 1, bar.face(q, i, x))
                    if "!overflow" in (a, b):
                        continue
                    assert a == b
        for i in range(q + 1):
            for j in range(i, q + 1):
                assert bar.degeneracy(q + 1, i, bar.degeneracy(q, j, x)) == \
                    bar.degeneracy(q + 1, j + 1, bar.degeneracy(q, i, x))
        for j in range(q + 1):
            sj = bar.degeneracy(q, j, x)
            for i in range(q + 2):
                lhs = bar.face(q + 1, i, sj)
                if i in (j, j + 1):
                    assert lhs == bar.normalize(x)
                elif i < j:
                    rhs = bar.degeneracy(q - 1, j - 1, bar.face(q, i, x))
                    if "!overflow" not in (lhs, rhs):
                        assert lhs == rhs
                else:
                    rhs = bar.degeneracy(q - 1, j, bar.face(q, i - 1, x))
                    if "!overflow" not in (lhs, rhs):
                        assert lhs == rhs


def test_bar_augmentation_commutes_with_faces():
    rng = random.Random(1)
    R = pointed_cyclic_monoid("c3", 3, 1)
    bar = BarComplex(R, 6)
    for _ in range(300):
        q = rng.randint(1, 4)
        x = bar.sample(rng, q)
        total = bar.augment(x)
        for i in range(q + 1):
            out = bar.augment(bar.face(q, i, x))
            if "!overflow" in (out, total):
                continue
            assert out == total


def test_bar_level_zero_evaluates_words():
    R = pointed_cyclic_monoid("c3", 3, 1)
    bar = BarComplex(R, 6)
    assert bar.augment(("g1", "g2", "g1")) == "g1"
    # s_0 then d_0 is the identity on sampled simplices
    rng = random.Random(2)
    for _ in range(100):
        q = rng.randint(0, 3)
        x = bar.sample(rng, q)
        assert bar.face(q + 1, 0, bar.degeneracy(q, 0, x)) == bar.normalize(x)


def test_overflow_reported_distinctly():
    R = pointed_cyclic_monoid("c2", 2, 1)
    bar = BarComplex(R, 2)
    wide = (("g1", "g1"), ("g1", "g1"))  # flattens to length 4 > bound
    assert bar.face(1, 1, wide) == "!overflow"
    assert bar.face(1, 0, wide) == ("g0", "g0")  # evaluation still fine


def _diagonal_act(coeffs):
    """The diagonal action of Z_n wr C_m on (arc system, labels) pairs."""
    def act(g, pt):
        x, labels = pt
        return (wreath_act(g, x),
                act_labels(g, labels, lambda c, y: coeffs.sigma_pow(y, c.exponent)))
    return act


def _brute_orbit(coeffs, x, labels):
    """Least (space, labels) over the whole wreath group, by enumeration."""
    action = GroupAction(tuple(znwrcm_elements(x.n, x.m)), _diagonal_act(coeffs))
    return action.canon((x, tuple(labels)),
                        key=lambda pt: (pt[0].sort_key(), pt[1]))


def test_labeled_orbit_basics():
    R = pointed_cyclic_monoid("c2", 2, 2)
    x0 = system(2, [], [], "uEc")
    unit = labeled_orbit(R, x0, [])
    assert unit.kind == "unit"
    x = system(2, [(0, 0), (F(1, 4), 0)], [F(1, 4), F(1, 4)], "uCc")
    assert labeled_orbit(R, x, ["g1", "*"]).kind == "base"
    orb = labeled_orbit(R, x, ["g1", "g0"])
    assert orb.kind == "point"
    # orbit invariance under every group element
    act = _diagonal_act(R)
    for g in znwrcm_elements(2, 2):
        x2, l2 = act(g, (x, ("g1", "g0")))
        assert labeled_orbit(R, x2, l2) == orb


def test_labeled_orbit_translate_example():
    # the orbit of (x, (a, b)) equals the orbit of its distinguished translate
    R = pointed_cyclic_monoid("c2", 2, 2)
    x = system(2, [(0, 0), (F(1, 8), 0)], [F(1, 8), F(3, 8)], "uCc")
    u = next(g for g in znwrcm_elements(2, 2) if g.perm.images == (1, 0))
    x2, l2 = _diagonal_act(R)(u, (x, ("g1", "g0")))
    assert labeled_orbit(R, x, ["g1", "g0"]) == labeled_orbit(R, x2, l2)


def test_compressed_cc_degrees():
    R = pointed_cyclic_monoid("c2", 2, 2)
    table = compressed_cc(R, 2, per_degree=25, seed=0)
    assert [o.kind for o in table[0]] == ["unit"]
    assert all(o.kind in ("point", "base") for o in table[1] + table[2])
    assert all(o == labeled_orbit(R, o.space, o.labels)
               for o in table[2] if o.kind == "point")


def test_map_c_to_l_well_defined_and_invertible():
    rng = random.Random(3)
    for m, n in [(1, 1), (2, 2), (3, 2), (2, 3)]:
        X = pointed_set("X", ["x", "y"], m,
                        {"x": "y", "y": "x"} if m % 2 == 0 else {})
        group = tuple(znwrcm_elements(n, m))
        act = _diagonal_act(X)
        for _ in range(25):
            x = sample_ucc(rng, m, n)
            labels = tuple(rng.choice(("x", "y")) for _ in range(n))
            orb = labeled_orbit(X, x, labels)
            img = map_c_to_l(X, orb)
            # independence of the representative
            for g in itertools.islice(group, 0, None, max(1, len(group) // 6)):
                x2, l2 = act(g, (x, labels))
                assert map_c_to_l(X, labeled_orbit(X, x2, l2)) == img
            # the explicit inverse returns the same orbit
            assert lambda_class_to_orbit(X, img) == orb


def test_map_c_to_l_unit_and_base():
    X = pointed_set("X", ["x"], 2)
    unit = LabeledOrbit(2, 0, None, None, "unit")
    img = map_c_to_l(X, unit)
    assert img.kind == "unit" and img.point is None
    assert lambda_class_to_orbit(X, img).kind == "unit"
    base = LabeledOrbit(2, 3, None, None, "base")
    assert map_c_to_l(X, base).kind == "base"


def test_map_c_to_l_circle_equivariant():
    rng = random.Random(4)
    X = pointed_set("X", ["x", "y"], 2, {"x": "y", "y": "x"})
    for _ in range(50):
        n = rng.randint(1, 3)
        x = sample_ucc(rng, 2, n)
        labels = tuple(rng.choice(("x", "y")) for _ in range(n))
        theta = Turn(F(rng.randint(0, 15), 16))
        lhs = map_c_to_l(X, labeled_orbit(X, circle_act(theta, x), labels))
        ref = map_c_to_l(X, labeled_orbit(X, x, labels))
        rhs = _lambda_canon(X, circle_act_point(theta, ref.point), ref.labels)
        assert lhs == rhs


def test_thm_cycbar_free_counts():
    # the two-letter case of the degreewise comparison, m = 1 and 2
    X1 = pointed_set("X", ["x"], 1)
    out = check_thm_cycbar_free(X1, 2, 1, 4)
    assert out.ok, out.failures
    # n=2, m=1, one letter: four base angles times three gap splittings,
    # divided by the order-2 rotation
    X2 = pointed_set("X", ["x", "y"], 1)
    out = check_thm_cycbar_free(X2, 3, 1, 4)
    assert out.ok, out.failures
    swap = pointed_set("X", ["x", "y"], 2, {"x": "y", "y": "x"})
    out = check_thm_cycbar_free(swap, 3, 2, 4)
    assert out.ok, out.failures
    for entry in out.per_degree:
        assert entry["left_classes"] == entry["right_classes"]


def test_thm_cycbar_base_only():
    X = pointed_set("X", [], 2)
    out = check_thm_cycbar_free(X, 2, 2, 4)
    assert out.ok
    assert all(e["left_classes"] == 0 for e in out.per_degree)


def test_thm_cycbar_degree_one_counts():
    # n=1: no group identification beyond the cyclic twists; classes are
    # lattice base angles times letter orbits
    X = pointed_set("X", ["x"], 1)
    out = check_thm_cycbar_free(X, 1, 1, 4)
    assert out.per_degree[0]["left_classes"] == 4


def test_thm_cycbar_two_arc_lattice_count():
    # m=1, n=2, one letter, denominator 4: twenty lattice points on either
    # side (four base angles times the five splittings of the circumference),
    # and the order-2 identification acts freely: the twisted base angle
    # r - t_1 never returns to r with t_0 = t_1 forced to half each, so both
    # sides decompose into exactly ten classes
    X = pointed_set("X", ["x"], 1)
    out = check_thm_cycbar_free(X, 2, 1, 4)
    assert out.ok
    assert out.per_degree[1] == {"n": 2, "left_classes": 10,
                                 "right_classes": 10}


def _cycled_letters(letters: str, m: int):
    """Letters with sigma cycling the first min(m, len(letters)) of them: a
    C_m-action of order m for m <= len(letters)."""
    k = min(m, len(letters))
    return pointed_set("L", list(letters), m,
                       {letters[i]: letters[(i + 1) % k] for i in range(k)})


def test_labeled_orbit_equals_brute_force():
    # closed form against the minimum over all n * m^n wreath elements, on
    # zero-radius and positive-radius systems
    rng = random.Random(11)
    pairs = [(m, n) for m in range(1, 6) for n in range(1, 9) if n * m ** n <= 400]
    for m, n in pairs:
        X = _cycled_letters("abcde", m)
        for k in range(6):
            x = sample_ucc(rng, m, n) if k % 2 else sample_uec(rng, m, n)
            labels = tuple(rng.choice(X.nonbase()) for _ in range(n))
            orb = labeled_orbit(X, x, labels)
            assert (orb.space, orb.labels) == _brute_orbit(X, x, labels), (m, n, k)


def test_lambda_canon_equals_brute_force():
    # closed form against the minimum over all m * n powers of the twist
    # paired with the distinguished wreath element on the labels
    rng = random.Random(12)
    for m in range(1, 6):
        X = _cycled_letters("abcde", m)
        for n in range(1, 6):
            ups = upsilon(m, n)

            def act(k, pt):
                p, labels = pt
                for _ in range(k):
                    p = twist_point(p)
                    labels = act_labels(ups, labels,
                                        lambda c, y: X.sigma_pow(y, c.exponent))
                return p, labels

            action = GroupAction(tuple(range(m * n)), act)
            for _ in range(4):
                p = sample_point(rng, m, n - 1)
                labels = tuple(rng.choice(X.nonbase()) for _ in range(n))
                cls = _lambda_canon(X, p, labels)
                want = action.canon((p, labels),
                                    key=lambda pt: (pt[0].sort_key(), pt[1]))
                assert (cls.point, cls.labels) == want, (m, n)


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Ordered splittings of `total` into `parts` nonnegative integers."""
    return [tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
            for cuts in itertools.combinations_with_replacement(
                range(total + 1), parts - 1)]


def _full_space_lattice(n: int, m: int, den: int, letters):
    """Encoded zero-radius systems: centers on the 1/(m*den) grid of the
    circle, gaps on the 1/den grid of the quotient circumference."""
    scale = m * den
    for z0 in range(scale):
        for ps in _compositions(den, n):
            for shifts in itertools.product(range(m), repeat=n - 1):
                zs = [z0]
                for j in range(n - 1):
                    zs.append((zs[-1] + ps[j] + shifts[j] * den) % scale)
                for labels in itertools.product(letters, repeat=n):
                    yield tuple(zs), ps, labels


def _orbit_sweep(points, transforms) -> dict:
    """Each point mapped to the least member of its orbit, one orbit at a time."""
    canon: dict = {}
    for p in points:
        if p not in canon:
            orbit = set(transforms(p)) | {p}
            rep = min(orbit)
            canon.update(dict.fromkeys(orbit, rep))
    return canon


@pytest.mark.parametrize("m, n_max", [(1, 3), (2, 3), (3, 2)])
def test_encoded_canonical_forms_equal_orbit_sweep(m, n_max):
    den, scale = 4, 4 * m
    X = _cycled_letters("xyz", m)
    sig = X.sigma_pow
    for n in range(1, n_max + 1):
        group = [(k, cs) for k in range(n)
                 for cs in itertools.product(range(m), repeat=n)]

        def wreath(pt):
            # slot j moves to slot j + k with its center turned by c_j / m
            zs, ps, labels = pt
            for k, cs in group:
                src = [(i - k) % n for i in range(n)]
                yield (tuple((zs[j] + cs[j] * den) % scale for j in src),
                       tuple(ps[j] for j in src),
                       tuple(sig(labels[j], cs[j]) for j in src))

        points = list(_full_space_lattice(n, m, den, X.nonbase()))
        sweep = _orbit_sweep(points, lambda pt: list(wreath(pt)))
        for zs, ps, labels in points:
            assert _canon_slots(zs, (ps,), labels, den, sig) == sweep[zs, ps, labels]

        def twists(pt):
            # the twist on the point, the distinguished wreath element on labels
            out = []
            for _ in range(m * n):
                rbar, ts, labels = pt
                pt = ((rbar - ts[-1]) % scale, (ts[-1],) + ts[:-1],
                      (sig(labels[-1], -1),) + labels[:-1])
                out.append(pt)
            return out

        points = [(rbar, ts, labels) for rbar in range(scale)
                  for ts in _compositions(den, n)
                  for labels in itertools.product(X.nonbase(), repeat=n)]
        sweep = _orbit_sweep(points, twists)
        for rbar, ts, labels in points:
            assert _canon_twists(rbar, ts, labels, den, sig) == sweep[rbar, ts, labels]


def _burnside_classes(n: int, den: int, letters) -> int:
    """Orbits of the order-n rotation rho(r, t, l) = (r - t_n, rotated t,
    rotated l) on Z_den x Comp(den, n) x L^n, by Burnside's lemma."""
    fixed = 0
    for k in range(n):
        for r in range(den):
            for t in _compositions(den, n):
                for lab in itertools.product(letters, repeat=n):
                    r2, t2, l2 = r, t, lab
                    for _ in range(k):
                        r2 = (r2 - t2[-1]) % den
                        t2, l2 = t2[-1:] + t2[:-1], l2[-1:] + l2[:-1]
                    fixed += (r2, t2, l2) == (r, t, lab)
    assert fixed % n == 0
    return fixed // n


def test_thm_cycbar_counts_match_burnside():
    burnside = [_burnside_classes(n, 4, "xyz") for n in range(1, 5)]
    assert burnside == [12, 90, 540, 2835]
    for m in range(1, 4):
        X = _cycled_letters("xyz", m)
        out = check_thm_cycbar_free(X, 4, m, 4, verify_reps=5)
        assert out.ok, out.failures
        assert [e["left_classes"] for e in out.per_degree] == burnside
        assert [e["right_classes"] for e in out.per_degree] == burnside


def test_coequalizer_routes_agree():
    # splitting twice along nested words equals splitting once along the
    # flattened words, labels matching letter for letter
    rng = random.Random(5)
    X = pointed_set("X", ["x", "y"], 2, {"x": "y", "y": "x"})
    T = FreeMonoid(X, 8)
    from arcbar.circle import compose_uec
    for _ in range(200):
        m, k = 2, rng.randint(1, 3)
        x = sample_ucc(rng, m, k)
        nested = []
        for _ in range(k):
            inner = [FreeWord(tuple(rng.choice(("x", "y"))
                                    for _ in range(rng.randint(0, 2))))
                     for _ in range(rng.randint(0, 2))]
            nested.append(inner)
        # route A': split the space by the outer word lengths, then split the
        # resulting arcs again along the letter words
        sizes = [len(ws) for ws in nested]
        space1 = compose_uec(x, [((F(0), F(0)),) * s for s in sizes])
        flat_words = [w for ws in nested for w in ws]
        step2 = split_orbit_element(space1, flat_words)
        # route B': flatten the words first, then split once
        step_b = split_orbit_element(x, [T.flatten(ws) for ws in nested])
        assert step2 == step_b
