"""Finite permutation groups, cyclic groups, wreath products, and orbit tools.

Conventions (fixed here, verified by the law harness in the tests):

* permutations are 0-based internally; ``Perm.images[i]`` is the image of i;
  ``compose`` is function composition, ``(a.compose(b))(i) == a(b(i))``;
* the plain right action on tuples is ``(x . sigma)[i] = x[sigma(i)]``;
* the wreath product law is
  ``(sigma; h_1..h_n)(tau; k_1..k_n) = (sigma tau; h_{tau(1)} k_1, ..., h_{tau(n)} k_n)``;
* a wreath element acts on a decorated tuple by moving the content of slot j
  to slot sigma(j), acting by the j-th member on the way:
  on label tuples (left action)   ``(g . y)[sigma(j)] = h_j > y_j``,
  on geometric tuples (``slot_act``) ``out[sigma(j)] = x_j < h_j``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

from .rational import InvariantViolation, MismatchError

T = TypeVar("T")


@dataclass(frozen=True)
class Perm:
    """A permutation of {0, ..., n-1} given by its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise InvariantViolation(f"not a bijection: {self.images}")

    @staticmethod
    def _of(images: tuple[int, ...]) -> "Perm":
        """The permutation of a tuple that is a bijection by construction,
        built without the check."""
        p = object.__new__(Perm)
        object.__setattr__(p, "images", images)
        return p

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm._of(tuple(range(n)))

    @staticmethod
    def cycle(n: int) -> "Perm":
        """The n-cycle (0 1 ... n-1), mapping i to i+1 mod n."""
        return Perm._of(tuple((i + 1) % n for i in range(n)))

    @staticmethod
    def from_one_based(images: Sequence[int]) -> "Perm":
        return Perm(tuple(i - 1 for i in images))

    def one_based(self) -> list[int]:
        return [i + 1 for i in self.images]

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "Perm") -> "Perm":
        if self.degree != other.degree:
            raise MismatchError("degree mismatch")
        return Perm._of(tuple(self.images[other.images[i]] for i in range(self.degree)))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm._of(tuple(inv))

    def __pow__(self, k: int) -> "Perm":
        out = Perm.identity(self.degree)
        base = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            out = out.compose(base)
        return out

    def act(self, xs: Sequence[T]) -> tuple[T, ...]:
        """Plain right action on tuples: (x . sigma)[i] = x[sigma(i)]."""
        if len(xs) != self.degree:
            raise MismatchError("tuple length mismatch")
        return tuple(xs[self.images[i]] for i in range(self.degree))

    def cycle_exponent(self) -> int | None:
        """k with self == cycle(n)**k, or None if self is not such a power."""
        n = self.degree
        if n == 0:
            return 0
        k = self.images[0]
        if all(self.images[i] == (i + k) % n for i in range(n)):
            return k
        return None


def block_sum(perms: Sequence[Perm]) -> Perm:
    images: list[int] = []
    offset = 0
    for p in perms:
        images.extend(offset + j for j in p.images)
        offset += p.degree
    return Perm._of(tuple(images))


def block_perm(sigma: Perm, block_sizes: Sequence[int]) -> Perm:
    """The permutation of sum(block_sizes) letters moving block i onto block sigma(i).

    Domain blocks are sized block_sizes; codomain block p has size
    block_sizes[sigma^{-1}(p)].  Within each block the map is the identity.
    """
    n = sigma.degree
    if len(block_sizes) != n:
        raise MismatchError("one block size per permuted slot")
    inv = sigma.inverse()
    dom_off = [0] * n
    for i in range(1, n):
        dom_off[i] = dom_off[i - 1] + block_sizes[i - 1]
    cod_sizes = [block_sizes[inv(p)] for p in range(n)]
    cod_off = [0] * n
    for p in range(1, n):
        cod_off[p] = cod_off[p - 1] + cod_sizes[p - 1]
    images = [0] * sum(block_sizes)
    for i in range(n):
        for k in range(block_sizes[i]):
            images[dom_off[i] + k] = cod_off[sigma(i)] + k
    return Perm._of(tuple(images))


def block_cycle_perm(block_sizes: Sequence[int], alpha: Perm) -> Perm:
    """Block permutation of a cyclic alpha; errors when alpha is not a cycle power."""
    if alpha.cycle_exponent() is None:
        raise InvariantViolation(f"not a power of the standard cycle: {alpha.images}")
    return block_perm(alpha, block_sizes)


@dataclass(frozen=True)
class CyclicElem:
    """An element of the cyclic group C_order, stored as a canonical exponent."""

    order: int
    exponent: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise InvariantViolation("order must be >= 1")
        object.__setattr__(self, "exponent", self.exponent % self.order)

    @staticmethod
    def identity(order: int) -> "CyclicElem":
        return CyclicElem(order, 0)

    def compose(self, other: "CyclicElem") -> "CyclicElem":
        if self.order != other.order:
            raise MismatchError("cyclic group order mismatch")
        return CyclicElem(self.order, self.exponent + other.exponent)


def _member_compatible(a, b) -> bool:
    return isinstance(a, CyclicElem) and isinstance(b, CyclicElem) and \
        a.order == b.order


@dataclass(frozen=True)
class WreathElem:
    """An element (perm; members) of Sigma_n wr C_m, members in one C_m."""

    perm: Perm
    members: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) != self.perm.degree:
            raise MismatchError("one member per permuted slot")
        for a, b in zip(self.members, self.members[1:]):
            if not _member_compatible(a, b):
                raise MismatchError("members from different base groups")

    @property
    def degree(self) -> int:
        return self.perm.degree


def upsilon(m: int, n: int) -> WreathElem:
    """The distinguished element ((1...n); 1, ..., 1, c^{-1}) of Z_n wr C_m."""
    members = [CyclicElem.identity(m)] * (n - 1) + [CyclicElem(m, m - 1)]
    return WreathElem(Perm.cycle(n), tuple(members))


def znwrcm_elements(n: int, m: int) -> Iterator[WreathElem]:
    """All n * m^n elements of Z_n wr C_m."""
    cyc = Perm.cycle(n)
    rotations = [cyc ** k for k in range(max(n, 1))]
    for alpha in rotations:
        for cs in itertools.product(range(m), repeat=n):
            yield WreathElem(alpha, tuple(CyclicElem(m, c) for c in cs))


def slot_act(g: WreathElem, xs: Sequence[T],
             member_act: Callable[[T, object], T]) -> tuple[T, ...]:
    """Move slot j to slot sigma(j), acting by member j: out[i] = x[s^-1 i] < h[s^-1 i].

    This is the geometric action on tuple coordinates (arc systems and the
    like); over an abelian H it composes as act(g, act(h, x)) = act(gh, x).
    """
    inv = g.perm.inverse()
    return tuple(
        member_act(xs[inv(i)], g.members[inv(i)]) for i in range(g.degree))


def act_labels(g: WreathElem, labels: Sequence[T],
               member_act: Callable[[object, T], T]) -> tuple[T, ...]:
    """Left action on coefficient tuples: content y_j lands in slot sigma(j) as h_j > y_j."""
    inv = g.perm.inverse()
    return tuple(
        member_act(g.members[inv(i)], labels[inv(i)]) for i in range(g.degree))
