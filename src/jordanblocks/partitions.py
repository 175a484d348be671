"""Exact partition arithmetic for Jordan block structures.

The Jordan type of a nilpotent linear map is the multiset of its Jordan
block sizes, i.e. an integer partition of the dimension of the space the
map acts on.  Unipotent maps are handled in the same currency by passing
to ``u - 1``.  This module also carries the group bookkeeping needed
elsewhere: which classical family acts, in which dimension and
characteristic, and which partitions arise from elements of the
corresponding Lie algebra.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping


class Family(Enum):
    """Classical matrix group family."""

    SL = "SL"
    SP = "Sp"
    SO = "SO"

    @classmethod
    def parse(cls, text: str) -> "Family":
        key = text.strip().lower()
        for fam in cls:
            if fam.value.lower() == key:
                return fam
        raise ValueError(f"unknown group family {text!r} (expected SL, Sp or SO)")


@functools.lru_cache
def is_prime(m: int) -> bool:
    """Trial-division primality test, memoized: a program uses few moduli."""
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


_PART_TERM = re.compile(r"([0-9]+)(?:\^([0-9]+))?\Z")


class JordanType:
    """Multiset of Jordan block sizes with positive multiplicities.

    Immutable.  Blocks are stored as ``(size, multiplicity)`` pairs with
    sizes ascending.  A size-0 block is the zero module, so size-0 entries
    contributed by arithmetic are dropped rather than stored; zero
    multiplicities are dropped likewise.  The empty type (dimension 0) is
    allowed.
    """

    __slots__ = ("_blocks", "_dim")

    def __init__(self, blocks: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = blocks.items() if isinstance(blocks, Mapping) else blocks
        merged: dict[int, int] = {}
        for size, mult in items:
            if size != int(size) or mult != int(mult):
                raise ValueError("block sizes and multiplicities must be integers")
            size, mult = int(size), int(mult)
            if size < 0 or mult < 0:
                raise ValueError("block sizes and multiplicities must be non-negative")
            if size == 0 or mult == 0:
                continue
            merged[size] = merged.get(size, 0) + mult
        object.__setattr__(self, "_blocks", tuple(sorted(merged.items())))
        object.__setattr__(self, "_dim", sum(s * m for s, m in self._blocks))

    def __setattr__(self, name, value):
        raise AttributeError("JordanType is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "JordanType":
        return cls((s, 1) for s in sizes)

    @classmethod
    def parse(cls, text: str) -> "JordanType":
        """Parse the textual form ``1^2,3`` (sizes with optional exponents).

        Any term order is accepted; the empty string parses to the empty
        type.  Sizes must be positive in the textual syntax.
        """
        text = text.strip()
        if not text:
            return cls()
        counts: dict[int, int] = {}
        for term in text.split(","):
            m = _PART_TERM.match(term.strip())
            if m is None:
                raise ValueError(f"bad partition term {term.strip()!r} (expected e.g. 3 or 1^2)")
            size = int(m.group(1))
            mult = int(m.group(2)) if m.group(2) else 1
            if size == 0 or mult == 0:
                raise ValueError(f"bad partition term {term.strip()!r}: sizes and exponents must be positive")
            counts[size] = counts.get(size, 0) + mult
        return cls(counts)

    # -- views ---------------------------------------------------------------

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Stored ``(size, multiplicity)`` pairs, sizes ascending."""
        return self._blocks

    @property
    def sizes(self) -> tuple[int, ...]:
        """Distinct block sizes, ascending."""
        return tuple(s for s, _ in self._blocks)

    @property
    def total_dim(self) -> int:
        return self._dim

    @property
    def block_count(self) -> int:
        """Number of blocks counted with multiplicity."""
        return sum(m for _, m in self._blocks)

    def expanded(self) -> tuple[int, ...]:
        """All block sizes with repetition, descending (partition form)."""
        out: list[int] = []
        for size, mult in reversed(self._blocks):
            out.extend([size] * mult)
        return tuple(out)

    # -- queries -------------------------------------------------------------

    def multiplicity(self, size: int) -> int:
        """Number of blocks of the given size (0 if absent)."""
        if size < 1:
            raise ValueError("block size must be >= 1")
        for s, m in self._blocks:
            if s == size:
                return m
            if s > size:
                break
        return 0

    def gcd_valuation(self, p: int) -> int:
        """p-adic valuation of the gcd of the distinct block sizes.

        Multiplicities are irrelevant: repeating a size does not change the
        gcd.  Undefined (an error) for the empty type.
        """
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not self._blocks:
            raise ValueError("gcd valuation is undefined for the empty Jordan type")
        g = math.gcd(*self.sizes)
        val = 0
        while g % p == 0:
            g //= p
            val += 1
        return val

    def contains(self, other: "JordanType") -> bool:
        """True if ``other`` is a sub-multiset of this type."""
        return all(self.multiplicity(s) >= m for s, m in other.pairs())

    # -- multiset algebra ------------------------------------------------------

    def __add__(self, other: "JordanType") -> "JordanType":
        if not isinstance(other, JordanType):
            return NotImplemented
        counts = dict(self._blocks)
        for s, m in other.pairs():
            counts[s] = counts.get(s, 0) + m
        return JordanType(counts)

    def __sub__(self, other: "JordanType") -> "JordanType":
        """Multiset difference; errors if ``other`` is not contained in self.

        The error is deliberate: a failed difference means a claimed direct
        sum decomposition does not hold, which callers must surface rather
        than patch over.
        """
        if not isinstance(other, JordanType):
            return NotImplemented
        counts = dict(self._blocks)
        for s, m in other.pairs():
            have = counts.get(s, 0)
            if have < m:
                raise ValueError(
                    f"not a sub-multiset: cannot remove {m} block(s) of size {s} "
                    f"from {self}"
                )
            counts[s] = have - m
        return JordanType(counts)

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, JordanType) and self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash(self._blocks)

    def __bool__(self) -> bool:
        return bool(self._blocks)

    def __str__(self) -> str:
        """Canonical text: sizes ascending, ``d^m`` with ``^1`` omitted."""
        return ",".join(f"{s}^{m}" if m > 1 else str(s) for s, m in self._blocks)

    def __repr__(self) -> str:
        return f"JordanType({dict(self._blocks)!r})"


@dataclass(frozen=True)
class GroupContext:
    """A classical group acting on its natural module over GF(p).

    Validates the standing hypotheses: p prime and at most
    ``gfp.MAX_MODULUS``, p odd for Sp and SO (good characteristic), and the
    dimension bounds n >= 2 (SL), n >= 4 even (Sp), n >= 5 (SO).
    """

    family: Family
    n: int
    p: int

    def __post_init__(self):
        from .gfp import check_modulus  # deferred: gfp imports this module

        check_modulus(self.p)
        if self.family in (Family.SP, Family.SO) and self.p == 2:
            raise ValueError(f"p = 2 is not a good characteristic for {self.family.value}")
        if self.family is Family.SL and self.n < 2:
            raise ValueError("SL needs natural dimension n >= 2")
        if self.family is Family.SP:
            if self.n < 4 or self.n % 2:
                raise ValueError("Sp needs even natural dimension n >= 4")
        if self.family is Family.SO and self.n < 5:
            raise ValueError("SO needs natural dimension n >= 5")


def is_admissible(jt: JordanType, ctx: GroupContext) -> bool:
    """Whether the partition is the Jordan type of some element of the
    Lie algebra of the group.

    SL imposes no condition.  For Sp every odd block size must occur with
    even multiplicity; for SO every even block size must.  (The skew-adjoint
    witness construction in :mod:`jordanblocks.operators` realises every
    partition this accepts.)
    """
    if jt.total_dim != ctx.n:
        raise ValueError(
            f"partition of {jt.total_dim} does not match natural dimension {ctx.n}"
        )
    if ctx.family is Family.SL:
        return True
    if ctx.family is Family.SP:
        return all(m % 2 == 0 for s, m in jt.pairs() if s % 2 == 1)
    return all(m % 2 == 0 for s, m in jt.pairs() if s % 2 == 0)
