"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  All checks are exact rational equalities; run with `pytest -s` to see
the lines as they pass."""
import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from arcbar import barcalc, circle
from arcbar.barcalc import (BarComplex, FreeMonoid, check_thm_cycbar_free,
                            pointed_cyclic_monoid, pointed_set,
                            standard_monoids, twist_order,
                            verify_cyclic_object)
from arcbar.circle import (compose_uec, cyclic_rotate, retract_step,
                           sample_ucc, sample_uec, system)
from arcbar.cyclic import (act_on_point, circle_act_point, identity_word,
                           lambda_to_ucc, normalize_word, parse_word,
                           sample_point, sample_word, tau_upsilon_intertwined,
                           ucc_to_lambda)
from arcbar.groups import Perm, block_cycle_perm
from arcbar.operads import (ASSOC, COMPACT, FRAMED_C2, LITTLE_DISKS,
                            SEMIDIRECT_C2, assoc_to_compact, check_operad_laws,
                            check_operad_map, little_to_compact,
                            sample_ucompact, semidirect_iso,
                            semidirect_iso_inverse)
from arcbar.rational import Turn


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL — {desc}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS — {desc}")


def test_criterion_01_operad_law_suite():
    with criterion(1, "operad laws (assoc, little disks, framed, compactified) "
                      "on >= 10^3 samples each, under 30 s"):
        start = time.monotonic()
        for inst, nullary in [(ASSOC, True), (LITTLE_DISKS, False),
                              (FRAMED_C2, False), (COMPACT, True)]:
            rep = check_operad_laws(inst, seed=2024, trials=1000,
                                    allow_nullary=nullary)
            assert rep.ok, (inst.name, rep.failures[:3])
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"law suite took {elapsed:.1f}s"


def test_criterion_02_semidirect_isomorphism():
    with criterion(2, "semidirect product comparison: round trip and "
                      "composition intertwining on >= 10^3 samples"):
        rep = check_operad_map(semidirect_iso, SEMIDIRECT_C2, FRAMED_C2,
                               seed=7, trials=1000, allow_nullary=False)
        assert rep.ok, rep.failures[:3]
        rng = random.Random(8)
        for _ in range(1000):
            x = SEMIDIRECT_C2.sample(rng, rng.randint(1, 3))
            assert semidirect_iso_inverse(semidirect_iso(x)) == x


def test_criterion_03_operad_maps_to_compactified():
    with criterion(3, "the two structure maps into the compactified operad "
                      "commute with composition and symmetries on >= 10^3 samples"):
        rep = check_operad_map(assoc_to_compact, ASSOC, COMPACT, seed=9,
                               trials=1000, max_arity=4)
        assert rep.ok, rep.failures[:3]
        rep = check_operad_map(little_to_compact, LITTLE_DISKS, COMPACT,
                               seed=10, trials=1000, allow_nullary=False)
        assert rep.ok, rep.failures[:3]


def test_criterion_04_compactified_arc_composition():
    with criterion(4, "arc composition: worked example, exact gap sums, "
                      "associativity and block cycling on >= 500 triples"):
        outer = system(1, [(0, F(1, 8)), (F(1, 2), F(1, 8))],
                       [F(1, 2), F(1, 2)], "uEc")
        got = compose_uec(outer, [((F(0), F(1, 2)),), ((F(1, 2), F(1, 4)),)])
        assert [z.value for z, _ in got.pairs] == [F(0), F(9, 16)]
        assert [r for _, r in got.pairs] == [F(1, 16), F(1, 32)]
        assert got.phi == (F(9, 16), F(7, 16))

        rng = random.Random(11)
        triples = 0
        while triples < 500:
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            f = sample_uec(rng, m, n)
            gs = [sample_ucompact(rng, rng.randint(0, 2)) for _ in range(n)]
            fg = compose_uec(f, gs)
            if fg.n:
                assert sum(fg.phi) == F(1, m)
            hs = [sample_ucompact(rng, rng.randint(0, 2)) for _ in range(fg.n)]
            lhs = compose_uec(fg, hs)
            at, ghs = 0, []
            for g in gs:
                blk = hs[at:at + len(g)]
                at += len(g)
                ghs.append(tuple((v + r * w, r * s)
                                 for (v, r), h in zip(g, blk) for w, s in h))
            assert lhs == compose_uec(f, ghs)
            alpha = Perm.cycle(n) ** rng.randrange(n)
            inv = alpha.inverse()
            lhs = compose_uec(cyclic_rotate(f, alpha), gs)
            rhs = compose_uec(f, [gs[inv(p)] for p in range(n)])
            rho = block_cycle_perm([len(g) for g in gs], alpha)
            if rho.degree:
                rhs = cyclic_rotate(rhs, rho)
            assert lhs == rhs
            triples += 1


def test_criterion_05_retraction():
    with criterion(5, "retraction: n steps reach positive gaps on sampled "
                      "degenerate systems; the half-gap example is exact"):
        x = system(1, [(0, 0), (0, 0)], [1, 0], "uCc")
        assert retract_step(x).phi == (F(1, 2), F(1, 2))
        rng = random.Random(12)
        for _ in range(400):
            m, n = rng.randint(1, 3), rng.randint(1, 6)
            y = sample_ucc(rng, m, n, allow_zero_gaps=True)
            assert sum(1 for p in y.phi if p == 0) <= n
            for _ in range(n):
                y = retract_step(y)
            assert all(p > 0 for p in y.phi)


def test_criterion_06_cyclic_relations():
    with criterion(6, "relative cyclic bar relations for the test monoids at "
                      "q <= 6, m <= 4, exhaustive under the 10^5 cap; twist "
                      "order exactly m(q+1) under a faithful action"):
        names = set()
        for m in (1, 2, 3, 4):
            for R in standard_monoids(m):
                rep = verify_cyclic_object(R, 6, cap=100_000, seed=13,
                                           trials=300)
                assert rep.ok, (R.name, m, rep.failures[:3])
                names.add(R.name)
        assert {"trivial", "c2", "c3-inv"} <= names
        R = pointed_cyclic_monoid("c3-inv", 3, 2, sigma_mult=-1)
        for q in range(0, 7):
            probe = ("g1",) + ("g0",) * q
            assert twist_order(R, q, probe) == 2 * (q + 1)
        R7 = pointed_cyclic_monoid("c7-sq", 7, 3, sigma_mult=2)
        for q in range(0, 4):
            probe = ("g1",) + ("g0",) * q
            assert twist_order(R7, q, probe) == 3 * (q + 1)


def test_criterion_07_word_rewriting():
    with criterion(7, "rewriting sends the displayed words to their normal "
                      "forms; equal normal forms act equally on 10^3 pairs"):
        for m, q in [(1, 1), (2, 1), (2, 3), (3, 2), (3, 4)]:
            w = parse_word(".".join([f"t{q}"] * (m * (q + 1))), m, q)
            assert normalize_word(w) == identity_word(m, q)
            assert str(normalize_word(parse_word(f"d0.t{q}", m, q))) == f"d{q}"
            assert str(normalize_word(parse_word(f"s0.t{q}", m, q))) == \
                f"t{q + 1}.t{q + 1}.s{q}"
        rng = random.Random(14)
        for _ in range(1000):
            m, q = rng.randint(1, 3), rng.randint(0, 4)
            w = sample_word(rng, m, q, rng.randint(0, 10))
            p = sample_point(rng, m, q)
            assert act_on_point(w, p) == act_on_point(normalize_word(w), p)


def test_criterion_08_lambda_comparison():
    with criterion(8, "cyclic space vs degenerate arcs: exact round trip, "
                      "twist intertwining, circle equivariance on 10^3 "
                      "samples; orbit-class counts on the lattice"):
        rng = random.Random(15)
        for _ in range(1000):
            m, q = rng.randint(1, 3), rng.randint(0, 3)
            p = sample_point(rng, m, q)
            x = lambda_to_ucc(p)
            assert ucc_to_lambda(x) == p
            assert tau_upsilon_intertwined(p)
            theta = Turn(F(rng.randint(0, 15), 16))
            assert lambda_to_ucc(circle_act_point(theta, p)) == \
                circle.circle_act(theta, x)
        for m in (1, 2, 3):
            X = pointed_set("pt", ["x"], m)
            out = check_thm_cycbar_free(X, 4, m, den=4, verify_reps=10)
            assert out.ok, out.failures
            for e in out.per_degree:
                assert e["left_classes"] == e["right_classes"] > 0


def test_criterion_09_free_comparison_theorem():
    with criterion(9, "free coefficients: degreewise class counts agree and "
                      "the comparison is a verified bijection with explicit "
                      "inverse on every lattice class"):
        for m in (1, 2, 3):
            sigma = {"x": "y", "y": "x"} if m % 2 == 0 else {}
            X = pointed_set("letters", ["x", "y", "z"], m, sigma)
            out = check_thm_cycbar_free(X, 3, m, den=4, verify_reps=30)
            assert out.ok, out.failures
            for e in out.per_degree:
                assert e["left_classes"] == e["right_classes"] > 0


def test_criterion_10_bar_constructions():
    with criterion(10, "free-monoid monad laws and two-sided bar simplicial "
                       "identities up to level four; augmentation compatible"):
        X = pointed_set("X", ["x", "y"], 2, {"x": "y", "y": "x"})
        T = FreeMonoid(X, 4)
        words = list(T.all_words(2))
        for a, b, c in itertools.islice(itertools.product(words, repeat=3),
                                        5000):
            lhs = T.multiply(T.multiply(a, b), c)
            rhs = T.multiply(a, T.multiply(b, c))
            if "overflow" in (lhs.flag, rhs.flag):
                continue
            assert lhs == rhs
        for w in words:
            assert T.multiply(barcalc.EMPTY_WORD, w) == w
            assert T.multiply(w, barcalc.EMPTY_WORD) == w
            assert T.sigma(T.sigma(w)) == w

        rng = random.Random(16)
        R = pointed_cyclic_monoid("c2", 2, 1)
        bar = BarComplex(R, 6)
        for _ in range(300):
            q = rng.randint(1, 4)
            x = bar.sample(rng, q)
            if q >= 2:
                for i in range(q + 1):
                    for j in range(i + 1, q + 1):
                        a = bar.face(q - 1, i, bar.face(q, j, x))
                        b = bar.face(q - 1, j - 1, bar.face(q, i, x))
                        if "!overflow" not in (a, b):
                            assert a == b
            for j in range(q + 1):
                sj = bar.degeneracy(q, j, x)
                assert bar.face(q + 1, j, sj) == bar.normalize(x)
                assert bar.face(q + 1, j + 1, sj) == bar.normalize(x)
            total = bar.augment(x)
            for i in range(q + 1):
                out = bar.augment(bar.face(q, i, x))
                if "!overflow" not in (out, total):
                    assert out == total
