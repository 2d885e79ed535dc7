"""Permutations, wreath products, block permutations, orbit canonicalization."""
import random

import pytest

from arcbar.groups import (CyclicElem, Perm, WreathElem, act_labels,
                           block_cycle_perm, block_perm, block_sum, slot_act,
                           upsilon, znwrcm_elements)
from arcbar.rational import InvariantViolation


def orbit_canon(elements, act, point):
    """Least point of an orbit, by enumerating the group: the brute-force
    oracle that the closed-form canonicalizations are tested against."""
    return min(act(g, point) for g in elements)


def rand_perm(rng, n):
    xs = list(range(n))
    rng.shuffle(xs)
    return Perm(tuple(xs))


def rand_wreath(rng, n, m):
    return WreathElem(rand_perm(rng, n),
                      tuple(CyclicElem(m, rng.randrange(m)) for _ in range(n)))


def wreath_mul(g, h):
    """The wreath law of the README conventions over cyclic members:
    (s; h)(t; k) = (st; h_{t(i)} k_i)."""
    return WreathElem(g.perm.compose(h.perm),
                      tuple(g.members[h.perm(i)].compose(k)
                            for i, k in enumerate(h.members)))


def wreath_identity(n, m):
    return WreathElem(Perm.identity(n), (CyclicElem(m, 0),) * n)


def test_perm_basics():
    p = Perm((1, 2, 0))
    assert p.inverse().compose(p) == Perm.identity(3)
    assert p.compose(p.inverse()) == Perm.identity(3)
    assert p.act(("a", "b", "c")) == ("b", "c", "a")
    assert Perm.cycle(4).cycle_exponent() == 1
    assert (Perm.cycle(4) ** 3).cycle_exponent() == 3
    assert Perm((1, 0, 2)).cycle_exponent() is None
    with pytest.raises(InvariantViolation):
        Perm((0, 0, 1))
    assert Perm.from_one_based([2, 1, 3]).one_based() == [2, 1, 3]


def test_upsilon_order():
    # the distinguished element generates a cyclic subgroup of order m*n
    for n in range(1, 7):
        for m in range(1, 7):
            u, ident = upsilon(m, n), wreath_identity(n, m)
            g, order = u, 1
            while g != ident:
                g, order = wreath_mul(g, u), order + 1
            assert order == m * n
    assert wreath_mul(upsilon(1, 2), upsilon(1, 2)) == wreath_identity(2, 1)


def test_upsilon_power_structure():
    u = upsilon(3, 2)
    # u^n has trivial permutation and all members equal to the twist
    sq = wreath_mul(u, u)
    assert sq.perm == Perm.identity(2)
    assert all(c == CyclicElem(3, 2) for c in sq.members)


def test_label_and_slot_actions_match_wreath_law():
    rng = random.Random(2)
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        g, h = rand_wreath(rng, n, m), rand_wreath(rng, n, m)
        member_act = lambda c, y: (y[0], (y[1] + c.exponent) % m)
        labels = tuple((i, 0) for i in range(n))
        lhs = act_labels(g, act_labels(h, labels, member_act), member_act)
        rhs = act_labels(wreath_mul(g, h), labels, member_act)
        assert lhs == rhs
        # geometric slot action composes the same way over abelian members
        xs = tuple((i, 0) for i in range(n))
        rot = lambda x, c: (x[0], (x[1] + c.exponent) % m)
        assert slot_act(g, slot_act(h, xs, rot), rot) == \
            slot_act(wreath_mul(g, h), xs, rot)


def test_block_perm_examples():
    # swapping two blocks is a power of the full cycle
    for j1, j2 in [(2, 3), (1, 4), (3, 3)]:
        got = block_cycle_perm([j1, j2], Perm.cycle(2))
        j = j1 + j2
        assert got == Perm.cycle(j) ** j2
    # the full block cycle on sizes (j_1...j_n) is (1...j)^{j_n}
    for sizes in [(2, 1, 3), (1, 2, 2, 1), (3, 2)]:
        got = block_cycle_perm(sizes, Perm.cycle(len(sizes)))
        j = sum(sizes)
        assert got == Perm.cycle(j) ** sizes[-1]
    assert block_cycle_perm([2, 3], Perm.identity(2)) == Perm.identity(5)
    with pytest.raises(InvariantViolation):
        block_cycle_perm([1, 1, 1], Perm((1, 0, 2)))


def test_block_perm_singleton_blocks_reduce_to_alpha():
    rng = random.Random(3)
    for n in range(1, 5):
        for k in range(n):
            alpha = Perm.cycle(n) ** k
            assert block_cycle_perm([1] * n, alpha) == alpha
        sigma = rand_perm(rng, n)
        assert block_perm(sigma, [1] * n) == sigma


def test_block_perm_against_enumeration():
    # independent check: move labelled blocks around explicitly
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 4)
        sizes = [rng.randint(0, 3) for _ in range(n)]
        sigma = rand_perm(rng, n)
        rho = block_perm(sigma, sizes)
        items = []
        for i, s in enumerate(sizes):
            items.extend((i, k) for k in range(s))
        inv = sigma.inverse()
        target = []
        for p in range(n):
            target.extend((inv(p), k) for k in range(sizes[inv(p)]))
        # rho sends the item at flat slot l to flat slot rho(l)
        placed = [None] * len(items)
        for l, it in enumerate(items):
            placed[rho(l)] = it
        assert placed == target


def test_block_sum():
    assert block_sum([Perm((1, 0)), Perm((0, 2, 1))]) == Perm((1, 0, 2, 4, 3))


def test_block_perm_cocycle():
    # moving blocks by a composite equals moving twice with re-permuted sizes
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 4)
        sizes = [rng.randint(0, 3) for _ in range(n)]
        sigma, tau = rand_perm(rng, n), rand_perm(rng, n)
        tinv = tau.inverse()
        resized = [sizes[tinv(p)] for p in range(n)]
        assert block_perm(sigma.compose(tau), sizes) == \
            block_perm(sigma, resized).compose(block_perm(tau, sizes))


def test_orbit_canon():
    swap = WreathElem(Perm((1, 0)), (CyclicElem(1, 0), CyclicElem(1, 0)))
    ident = wreath_identity(2, 1)
    swap_act = lambda g, pt: slot_act(g, pt, lambda x, c: x)
    assert orbit_canon((ident, swap), swap_act, ("b", "a")) == ("a", "b")
    assert orbit_canon((ident, swap), swap_act, ("a", "b")) == ("a", "b")
    assert orbit_canon((ident,), lambda g, pt: pt, ("b", "a")) == ("b", "a")
    # idempotent and invariant under every group element
    rng = random.Random(5)
    for n, m in [(2, 2), (3, 2), (2, 3)]:
        elems = tuple(znwrcm_elements(n, m))
        act = lambda g, pt: slot_act(
            g, pt, lambda x, c: (x[0], (x[1] + c.exponent) % m))
        for _ in range(30):
            pt = tuple((rng.randrange(3), rng.randrange(m)) for _ in range(n))
            canon = orbit_canon(elems, act, pt)
            assert orbit_canon(elems, act, canon) == canon
            for g in elems:
                assert orbit_canon(elems, act, act(g, pt)) == canon


def test_znwrcm_enumeration_size():
    for n, m in [(1, 1), (2, 3), (3, 2), (4, 3)]:
        elems = list(znwrcm_elements(n, m))
        assert len(elems) == n * m ** n
        assert len(set(elems)) == len(elems)


def _is_bijection(p, n):
    return type(p.images) is tuple and sorted(p.images) == list(range(n))


def test_unchecked_builders_return_bijections():
    # the builders skip the bijection check, so every one must build a
    # bijection by construction
    from arcbar.operads import _rand_perm
    rng = random.Random(9)
    for n in range(6):
        perms = [Perm.identity(n), Perm.cycle(n)] + \
            [_rand_perm(rng, n) for _ in range(10)]
        for p in perms:
            assert _is_bijection(p, n)
            assert _is_bijection(p.inverse(), n)
            for q in perms:
                assert _is_bijection(p.compose(q), n)
            for k in (-2, 0, 3):
                assert _is_bijection(p ** k, n)
            sizes = [rng.randint(0, 3) for _ in range(n)]
            assert _is_bijection(block_perm(p, sizes), sum(sizes))
            blocks = [_rand_perm(rng, s) for s in sizes]
            assert _is_bijection(block_sum(blocks), sum(sizes))
    for images in ((0, 0), (1,), (0, 2), (2, 0, 0)):
        with pytest.raises(InvariantViolation):
            Perm(images)
        with pytest.raises(InvariantViolation):
            Perm.from_one_based([i + 1 for i in images])
