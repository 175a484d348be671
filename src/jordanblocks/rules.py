"""Closed combinatorial rules for block sizes on derived modules.

The rules rewrite a known base type (on the full matrix space, or on the
exterior or symmetric square) into the type on the corresponding trace-zero
subspace, its quotient by the invariant line, or the irreducible factor for
Sp and SO.  They are pure partition arithmetic, no matrices.

Base types themselves come from the block decomposition of the tensor,
exterior and symmetric squares into pairwise pieces, each pairwise piece
being computed once per (sizes, p) by exact rank and memoized.  The cache
may be shared across threads: a race at worst recomputes an entry.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gfp import GFpMatrix, jordan_type_of_nilpotent
from .operators import (
    ModuleKind,
    ModuleSpec,
    Rewrite,
    lift_to_sym2,
    lift_to_wedge2,
    validate_query,
)
from .partitions import GroupContext, JordanType, is_prime


# -- pairwise cache ---------------------------------------------------------------


def _shift(d: int) -> np.ndarray:
    return np.eye(d, k=1, dtype=np.int64)


@lru_cache(maxsize=None)
def tensor_pair_type(a: int, b: int, p: int) -> JordanType:
    """Block sizes of ``x (x) 1 + 1 (x) y`` on the product of two single blocks."""
    if a < b:
        return tensor_pair_type(b, a, p)
    big = np.kron(_shift(a), np.eye(b, dtype=np.int64)) + np.kron(
        np.eye(a, dtype=np.int64), _shift(b)
    )
    return jordan_type_of_nilpotent(GFpMatrix(p, big))


@lru_cache(maxsize=None)
def wedge_block_type(d: int, p: int) -> JordanType:
    """Block sizes on the exterior square of a single size-d block."""
    if d < 2:
        return JordanType()
    return lift_to_wedge2(GFpMatrix(p, _shift(d))).jordan_type()


@lru_cache(maxsize=None)
def sym_block_type(d: int, p: int) -> JordanType:
    """Block sizes on the symmetric square of a single size-d block."""
    return lift_to_sym2(GFpMatrix(p, _shift(d))).jordan_type()


def _accumulate(acc: dict[int, int], jt: JordanType, copies: int) -> None:
    for size, mult in jt.pairs():
        acc[size] = acc.get(size, 0) + mult * copies


def tensor_square_type(jt: JordanType, p: int) -> JordanType:
    """Type on V (x) V (equivalently V (x) V*), summed over block pairs."""
    acc: dict[int, int] = {}
    for a, ma in jt.pairs():
        for b, mb in jt.pairs():
            _accumulate(acc, tensor_pair_type(a, b, p), ma * mb)
    return JordanType(acc)


def _square_type(jt: JordanType, p: int, block_type) -> JordanType:
    """Type on a square of V: ``block_type`` of every block plus one tensor
    pair for each unordered pair of distinct blocks."""
    acc: dict[int, int] = {}
    pairs = jt.pairs()
    for i, (a, ma) in enumerate(pairs):
        _accumulate(acc, block_type(a, p), ma)
        _accumulate(acc, tensor_pair_type(a, a, p), ma * (ma - 1) // 2)
        for b, mb in pairs[i + 1 :]:
            _accumulate(acc, tensor_pair_type(a, b, p), ma * mb)
    return JordanType(acc)


def wedge_square_type(jt: JordanType, p: int) -> JordanType:
    """Type on the exterior square."""
    return _square_type(jt, p, wedge_block_type)


def sym_square_type(jt: JordanType, p: int) -> JordanType:
    """Type on the symmetric square."""
    return _square_type(jt, p, sym_block_type)


# -- the rewriting rules -------------------------------------------------------------


def _shrink(jt: JordanType, size: int, count: int, why: str) -> JordanType:
    """``count`` blocks of ``size`` replaced by blocks of ``size - 1``; a block
    of size 1 shrinks to nothing, since JordanType drops size-0 blocks."""
    have = jt.multiplicity(size)
    if have < count:
        raise ValueError(
            f"inconsistent input type: {why} needs at least {count} block(s) "
            f"of size {size} in {jt}"
        )
    counts = dict(jt.pairs())
    counts[size] = have - count
    counts[size - 1] = counts.get(size - 1, 0) + count
    return JordanType(counts)


def sl_type_from_gl(gl_type: JordanType, p: int, valuation: int) -> JordanType:
    """Type on the trace-zero subspace from the type on the full matrix space.

    ``valuation`` is the p-adic valuation of the gcd of the block sizes on V.
    One block of size p^valuation is replaced by one of size p^valuation - 1
    (which vanishes when the valuation is 0).
    """
    if valuation < 0:
        raise ValueError("valuation must be >= 0")
    return _shrink(gl_type, p**valuation, 1, "trace-zero restriction")


def psl_type_from_gl(gl_type: JordanType, p: int, n: int, valuation: int) -> JordanType:
    """Type on (trace-zero mod scalars) from the type on the full matrix space.

    When p does not divide n, one size-1 block is removed; otherwise two
    blocks of size p^valuation are replaced by two of size p^valuation - 1.
    """
    return _middle_factor_type(gl_type, p, n, valuation)


def _middle_factor_type(base: JordanType, p: int, n: int, valuation: int) -> JordanType:
    if valuation < 0:
        raise ValueError("valuation must be >= 0")
    if n % p != 0:
        if valuation != 0:
            raise ValueError(
                "inconsistent input: positive valuation forces p to divide n"
            )
        return _shrink(base, 1, 1, "one trivial summand")
    return _shrink(base, p**valuation, 2, "trivial sub and quotient")


def irreducible_type_from_base(
    base_type: JordanType, p: int, n: int, valuation: int
) -> JordanType:
    """Type on the irreducible factor (highest weight w2 for Sp from the
    exterior-square type, 2w1 for SO from the symmetric-square type).

    Only valid in odd characteristic.
    """
    if p == 2:
        raise ValueError("bad characteristic: these rules require p > 2")
    return _middle_factor_type(base_type, p, n, valuation)


# -- full pipeline -------------------------------------------------------------------


_BASE_TYPES = {
    ModuleKind.NATURAL: lambda jt, p: jt,
    ModuleKind.GL: tensor_square_type,
    ModuleKind.WEDGE2: wedge_square_type,
    ModuleKind.SYM2: sym_square_type,
}


def closed_form_type(jt: JordanType, ctx: GroupContext, module: ModuleSpec) -> JordanType:
    """Jordan type on the requested module by pure partition rewriting.

    The module's entry in the module table names a base square, whose type
    comes from the memoized pairwise cache, and the closed rule that
    rewrites it.
    """
    validate_query(jt, ctx, module)
    p, n = ctx.p, ctx.n
    entry = module.entry
    base = _BASE_TYPES[entry.base](jt, p)
    if entry.rewrite is Rewrite.NONE:
        return base
    valuation = jt.gcd_valuation(p)
    if entry.rewrite is Rewrite.TRACE_ZERO:
        return sl_type_from_gl(base, p, valuation)
    out = _middle_factor_type(base, p, n, valuation)
    if entry.rewrite is Rewrite.MIDDLE_PLUS_TRIVIAL:
        out = out + JordanType({1: 1})
    return out


def unipotent_matches_nilpotent_on_psl(jt: JordanType, p: int, n: int) -> bool:
    """Whether a unipotent and a nilpotent element with these block sizes on V
    get the same block sizes on (trace-zero mod scalars).

    The criterion is p^(valuation+1) dividing n; it is the intended test
    exactly when p divides n (otherwise the two module types coincide with
    the trace-zero type for trivial reasons).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if jt.total_dim != n:
        raise ValueError(f"partition of {jt.total_dim} does not match n = {n}")
    return n % p ** (jt.gcd_valuation(p) + 1) == 0
