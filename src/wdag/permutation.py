"""Finite permutations in one-line image notation, 1-indexed."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _itertools_permutations
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n}; ``images[i-1]`` is the image of ``i``."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0:
            raise ValueError("permutation degree must be at least 1")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images!r}")

    @classmethod
    def _from_images(cls, images: tuple[int, ...]) -> "Permutation":
        """Trusted constructor for images that are a bijection by
        construction inside the library: no checks."""
        sigma = cls.__new__(cls)
        object.__setattr__(sigma, "images", images)
        return sigma

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.degree:
            raise ValueError(f"point {i} outside 1..{self.degree}")
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, img in enumerate(self.images):
            inv[img - 1] = i + 1
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """Functional composition self∘other: i ↦ self(other(i))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch in composition")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        if not (1 <= a <= n and 1 <= b <= n and a != b):
            raise ValueError(f"invalid transposition ({a} {b}) on 1..{n}")
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(tuple(images))

    @classmethod
    def from_cycles(cls, n: int, *cycles: Iterable[int]) -> "Permutation":
        """Build from disjoint cycles, e.g. ``from_cycles(3, (1, 2, 3))``."""
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            pts = list(cycle)
            if seen.intersection(pts) or len(set(pts)) != len(pts):
                raise ValueError("cycles are not disjoint")
            seen.update(pts)
            for src, dst in zip(pts, pts[1:] + pts[:1]):
                if not 1 <= src <= n:
                    raise ValueError(f"point {src} outside 1..{n}")
                images[src - 1] = dst
        return cls(tuple(images))


def reduce_top(sigma: Permutation) -> Permutation:
    """Collapse a permutation of {1..n+1} to one of {1..n}.

    Points keep their image unless it is n+1, which is rerouted to the
    image of n+1.  When sigma fixes n+1 this is plain restriction.
    """
    images = sigma.images
    n = len(images) - 1
    if n < 1:
        raise ValueError("need degree at least 2 to reduce")
    j = images.index(n + 1)
    if j == n:
        return Permutation._from_images(images[:n])
    return Permutation._from_images(images[:j] + images[n:] + images[j + 1 : n])


def all_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations of {1..n}, in lexicographic image order."""
    if n < 1:
        raise ValueError("permutation degree must be at least 1")
    yield from map(Permutation._from_images, _itertools_permutations(range(1, n + 1)))
