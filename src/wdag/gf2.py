"""Exact linear algebra over GF(2).

Vectors are fixed-dimension bit fields with 1-indexed coordinates;
matrices are square with bit-packed rows.  Everything here is an
immutable value and every function is pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .permutation import Permutation


@dataclass(frozen=True)
class GF2Vector:
    """Vector over GF(2) with coordinates 1..dim; coordinate k sits at bit k-1."""

    dim: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"vector dimension must be positive, got {self.dim}")
        if not 0 <= self.bits < (1 << self.dim):
            raise ValueError(f"bits 0x{self.bits:x} out of range for dimension {self.dim}")

    def bit(self, k: int) -> int:
        if not 1 <= k <= self.dim:
            raise ValueError(f"coordinate {k} outside 1..{self.dim}")
        return (self.bits >> (k - 1)) & 1

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def to_string(self) -> str:
        """The bits as ``bit_string`` writes them, coordinate 1 leftmost."""
        return bit_string(self.dim, self.bits)

    @classmethod
    def from_string(cls, text: str) -> "GF2Vector":
        if not isinstance(text, str) or not text or any(c not in "01" for c in text):
            raise ValueError(f"invalid bit string {text!r}")
        bits = 0
        for k, c in enumerate(text, start=1):
            if c == "1":
                bits |= 1 << (k - 1)
        return cls(len(text), bits)

    @classmethod
    def zero(cls, dim: int) -> "GF2Vector":
        return cls(dim, 0)

    @classmethod
    def all_ones(cls, dim: int) -> "GF2Vector":
        return cls(dim, (1 << dim) - 1)

    def __repr__(self) -> str:
        return f"GF2Vector({self.to_string()!r})"


def bit_string(dim: int, bits: int) -> str:
    """Bit string of packed bits with coordinate 1 leftmost, e.g. (1,0,1) -> "101"."""
    return format(bits, f"0{dim}b")[::-1]


def gf2_permute(sigma: Permutation, v: GF2Vector) -> GF2Vector:
    """Permute coordinates: the i-th coordinate of the result is v_{sigma(i)}.

    Under this convention permuting by sigma and then by tau equals a
    single permute by sigma∘tau (see Permutation.compose).
    """
    if sigma.degree != v.dim:
        raise ValueError(f"degree mismatch: permutation on 1..{sigma.degree}, vector dim {v.dim}")
    return GF2Vector(v.dim, permute_bits(sigma.images, v.bits))


def permute_bits(images: Sequence[int], bits: int) -> int:
    """gf2_permute on packed bits: bit i-1 of the result is bit images[i-1]-1."""
    out = 0
    for i, img in enumerate(images):
        out |= ((bits >> (img - 1)) & 1) << i
    return out


@dataclass(frozen=True)
class GF2Matrix:
    """Square 0/1 matrix; row i is the bit-packed int rows[i-1], bit j-1 = entry (i,j)."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("matrix size must be positive")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        for r in self.rows:
            if not 0 <= r < (1 << self.n):
                raise ValueError(f"row 0x{r:x} out of range for size {self.n}")

    @classmethod
    def _from_packed(cls, n: int, rows: tuple[int, ...]) -> "GF2Matrix":
        """Trusted constructor for n packed rows that are in range by
        construction inside the library: no checks."""
        matrix = cls.__new__(cls)
        object.__setattr__(matrix, "n", n)
        object.__setattr__(matrix, "rows", rows)
        return matrix

    def entry(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"entry ({i},{j}) outside 1..{self.n}")
        return (self.rows[i - 1] >> (j - 1)) & 1

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "GF2Matrix":
        packed = []
        for row in rows:
            bits = 0
            for j, c in enumerate(row):
                if c not in (0, 1):
                    raise ValueError(f"entry {c!r} is not a GF(2) scalar")
                if c:
                    bits |= 1 << j
            packed.append(bits)
        return cls(len(packed), tuple(packed))


def gf2_det(m: GF2Matrix) -> int:
    """Determinant over GF(2) by Gaussian elimination on bit-packed rows."""
    n = m.n
    rows = list(m.rows)
    for col in range(n):
        mask = 1 << col
        pivot = next((r for r in range(col, n) if rows[r] & mask), None)
        if pivot is None:
            return 0
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, n):
            if rows[r] & mask:
                rows[r] ^= rows[col]
    return 1


def all_principal_minors_one(m: GF2Matrix) -> bool:
    """True iff every nonempty principal minor of m equals 1.

    A matrix passes iff a_00 = 1, its trailing block passes (the minors
    without index 0) and its Schur complement A/a_00 passes (the minors
    with index 0, since det A[S] = a_00 det (A/a_00)[S - 0]).  Over GF(2)
    row i of A/a_00 is row i, plus row 0 when a_i0 = 1, without column 0.
    Each nonempty subset is the pivot of exactly one matrix on the stack.
    """
    rows = m.rows
    # 1x1 minors first: cheap rejection for almost all inputs.
    for i in range(m.n):
        if not (rows[i] >> i) & 1:
            return False
    stack = [rows]
    while stack:
        first, *rest = stack.pop()
        if not first & 1:
            return False
        if rest:
            stack.append([r >> 1 for r in rest])
            stack.append([(r ^ first if r & 1 else r) >> 1 for r in rest])
    return True
