"""Explicit matrices for nilpotent and unipotent actions on derived modules.

Everything is built over GF(p) with fixed basis orders so matrices are
bit-identical run to run:

* natural module V: one basis vector per block position, blocks listed with
  sizes ascending, shift action ``e v_j = v_(j-1)`` inside each block;
* tensor square V (x) V*: basis ``v_i (x) v_j*`` with pairs (i, j) in
  row-major order;
* exterior square: ``v_i ^ v_j`` for i < j, lexicographic;
* symmetric square: monomials ``v_i v_j`` for i <= j, lexicographic;
* trace-zero subspace of V (x) V*: off-diagonal pairs row-major, then the
  consecutive diagonal differences ``v_i (x) v_i* - v_(i+1) (x) v_(i+1)*``.

The dual action carries the sign ``(e.f)(v) = -f(e v)``, so on V (x) V* a
nilpotent e acts as ``X -> EX - XE`` under the matrix-unit identification.
A unipotent u acts by conjugation ``X -> u X u^(-1)``; unipotent operators
are always returned as (action - identity), since only block sizes matter.
One function builds the action on a square of V; the exterior and symmetric
squares are gathers of rows and columns of the V (x) V action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .gfp import GFpMatrix, inverse, jordan_type_of_nilpotent
from .partitions import Family, GroupContext, JordanType, is_admissible


class ModuleKind(Enum):
    NATURAL = "v"
    GL = "gl"  # V (x) V*
    TENSOR = "gl"  # alias of GL
    WEDGE2 = "wedge2"
    SYM2 = "sym2"
    SL = "sl"
    PSL = "psl"
    SP_OMEGA2 = "l_omega2"  # irreducible Sp module of highest weight w2
    SO_2OMEGA1 = "l_2omega1"  # irreducible SO module of highest weight 2w1
    ADJOINT = "adjoint"


class Isogeny(Enum):
    SIMPLY_CONNECTED = "sc"
    ADJOINT_GROUP = "ad"
    INTERMEDIATE = "int"


class Rewrite(Enum):
    """How the rules engine turns the base square's type into the module's."""

    NONE = "none"
    TRACE_ZERO = "trace-zero"  # one block p^v becomes p^v - 1
    MIDDLE = "middle factor"  # drop the trivial sub and quotient
    MIDDLE_PLUS_TRIVIAL = "middle factor plus a trivial summand"


@dataclass(frozen=True)
class ModuleEntry:
    """Everything the engines need to know about one module.

    ``family`` is the only family the module is defined for (None: all).
    ``base`` and ``rewrite`` are the rules recipe: the type on the base
    square (V itself, V (x) V*, the exterior or the symmetric square),
    then a partition rewrite.  ``oracle`` builds the type from an
    ``_OracleSession`` by its own construction; it must never follow the
    rules recipe, or a wrong entry would go unnoticed by every sweep.
    ``p_power`` is the exponent k of a p^k that must divide n.
    """

    family: Family | None
    base: ModuleKind
    rewrite: Rewrite
    oracle: Callable[["_OracleSession"], JordanType]
    p_power: int = 0


# the one description of every module; to add one, add a row (and a
# ModuleKind or Isogeny member for its name)
MODULES = {
    "v": ModuleEntry(None, ModuleKind.NATURAL, Rewrite.NONE, lambda s: s.jt),
    "gl": ModuleEntry(None, ModuleKind.GL, Rewrite.NONE, lambda s: s.tensor_type()),
    "wedge2": ModuleEntry(None, ModuleKind.WEDGE2, Rewrite.NONE, lambda s: s.wedge_type()),
    "sym2": ModuleEntry(None, ModuleKind.SYM2, Rewrite.NONE, lambda s: s.sym_type()),
    "sl": ModuleEntry(None, ModuleKind.GL, Rewrite.TRACE_ZERO, lambda s: s.sl_type()),
    "psl": ModuleEntry(None, ModuleKind.GL, Rewrite.MIDDLE, lambda s: s.psl_type()),
    # the irreducible factors, split off psl by the other square
    "l_omega2": ModuleEntry(
        Family.SP, ModuleKind.WEDGE2, Rewrite.MIDDLE, lambda s: s.psl_without(s.sym_type())
    ),
    "l_2omega1": ModuleEntry(
        Family.SO, ModuleKind.SYM2, Rewrite.MIDDLE, lambda s: s.psl_without(s.wedge_type())
    ),
    # simply connected and adjoint isogeny types both carry the trace-zero
    # type (the adjoint one through duality)
    "adjoint-sc": ModuleEntry(Family.SL, ModuleKind.GL, Rewrite.TRACE_ZERO, lambda s: s.sl_type()),
    "adjoint-ad": ModuleEntry(Family.SL, ModuleKind.GL, Rewrite.TRACE_ZERO, lambda s: s.sl_type()),
    "adjoint-int": ModuleEntry(
        Family.SL,
        ModuleKind.GL,
        Rewrite.MIDDLE_PLUS_TRIVIAL,
        lambda s: s.psl_type() + JordanType({1: 1}),
        p_power=2,
    ),
}

_MODULE_ALIASES = {"natural": "v", "tensor": "gl", "vxv*": "gl", "vxv": "gl"}


@dataclass(frozen=True)
class ModuleSpec:
    """Symbolic name of a module the operators act on."""

    kind: ModuleKind
    isogeny: Isogeny | None = None

    def __post_init__(self):
        if (self.kind is ModuleKind.ADJOINT) != (self.isogeny is not None):
            raise ValueError("isogeny tag is required exactly for the adjoint module")

    def __str__(self) -> str:
        if self.kind is ModuleKind.ADJOINT:
            return f"adjoint-{self.isogeny.value}"
        return self.kind.value

    @property
    def entry(self) -> ModuleEntry:
        return MODULES[str(self)]

    @classmethod
    def parse(cls, text: str) -> "ModuleSpec":
        key = text.strip().lower()
        key = _MODULE_ALIASES.get(key, key)
        if key not in MODULES:
            raise ValueError(
                f"unknown module {text!r}; expected one of {sorted([*MODULES, *_MODULE_ALIASES])}"
            )
        kind, _, tag = key.partition("-")
        return cls(ModuleKind(kind), Isogeny(tag) if tag else None)


class DecompositionError(ValueError):
    """A claimed direct-sum decomposition failed; a real bug, never patched."""


@dataclass(frozen=True, eq=False)
class NilpotentOperator:
    """A square matrix with a module tag; it is nilpotent, which
    :meth:`jordan_type` checks."""

    matrix: GFpMatrix
    module: ModuleSpec

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("operator matrix must be square")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def p(self) -> int:
        return self.matrix.p

    def jordan_type(self) -> JordanType:
        return jordan_type_of_nilpotent(self.matrix)


# -- builders on the natural module -------------------------------------------


def block_layout(jt: JordanType) -> list[tuple[int, int]]:
    """(size, offset) per block, sizes ascending, offsets consecutive."""
    out = []
    offset = 0
    for size, mult in jt.pairs():
        for _ in range(mult):
            out.append((size, offset))
            offset += size
    return out


def _shift_array(jt: JordanType) -> np.ndarray:
    a = np.eye(jt.total_dim, k=1, dtype=np.int64)
    starts = np.array([off for _, off in block_layout(jt)[1:]], dtype=np.intp)
    a[starts - 1, starts] = 0  # no shift across a block boundary
    return a


def natural_nilpotent(jt: JordanType, p: int) -> NilpotentOperator:
    """Block-diagonal shift of the given Jordan type acting on V."""
    if not jt:
        raise ValueError("empty Jordan type has no natural operator")
    return NilpotentOperator(GFpMatrix(p, _shift_array(jt)), ModuleSpec(ModuleKind.NATURAL))


def natural_unipotent(jt: JordanType, p: int) -> GFpMatrix:
    """Unitriangular u = 1 + shift with the given Jordan type (of u - 1)."""
    if not jt:
        raise ValueError("empty Jordan type has no natural operator")
    n = jt.total_dim
    return GFpMatrix(p, np.eye(n, dtype=np.int64) + _shift_array(jt))


# -- lifts to derived modules ---------------------------------------------------


def _square_action(m_on_v: GFpMatrix, unipotent: bool, dual: bool) -> np.ndarray:
    """Action on V (x) V, or on V (x) V* with ``dual``, pairs (i, j) row-major:
    ``m (x) 1 + 1 (x) m`` for nilpotent m, ``u (x) u`` minus the identity for
    unipotent u (dual factor ``-m^T``, resp. ``u^(-T)``); products are reduced
    mod p, so a gather's sum of two entries stays exact in int64."""
    m = m_on_v.a
    if unipotent:
        second = inverse(m_on_v).a.T if dual else m
        return np.kron(m, second) % m_on_v.p - np.eye(m.size, dtype=np.int64)
    eye = np.eye(m_on_v.rows, dtype=np.int64)
    return np.kron(m, eye) + np.kron(eye, -m.T if dual else m)


def _quotient_square_action(m_on_v: GFpMatrix, unipotent: bool, sign: int) -> np.ndarray:
    """Action on the exterior (sign -1, pairs i < j) or symmetric (sign +1,
    pairs i <= j) square: the column of ``v_a v_b`` is column (a, b) of the
    V (x) V action, the coordinate of ``v_i v_j`` row (i, j) plus ``sign``
    times row (j, i), or row (i, i) alone.  Exact because the projection from
    V (x) V commutes with the action and sends the identity to the identity.
    """
    n = m_on_v.rows
    big = _square_action(m_on_v, unipotent, dual=False)
    rows, cols = np.triu_indices(n, 1 if sign < 0 else 0)
    pairs, swapped = rows * n + cols, cols * n + rows
    mat = big[np.ix_(pairs, pairs)]
    off = rows != cols
    mat[off] += sign * big[np.ix_(swapped[off], pairs)]
    return mat


def lift_to_tensor(m_on_v: GFpMatrix, *, unipotent: bool = False) -> NilpotentOperator:
    """Action on V (x) V*, basis pairs (i, j) row-major.

    Nilpotent input e acts as ``X -> EX - XE`` (dual action is the negative
    transpose).  Unipotent input u acts by conjugation; the returned matrix
    is (conjugation - identity).
    """
    if m_on_v.rows != m_on_v.cols:
        raise ValueError("operator on V must be square")
    big = _square_action(m_on_v, unipotent, dual=True)
    return NilpotentOperator(GFpMatrix(m_on_v.p, big), ModuleSpec(ModuleKind.GL))


def lift_to_wedge2(m_on_v: GFpMatrix, *, unipotent: bool = False) -> NilpotentOperator:
    """Action on the exterior square, basis ``v_i ^ v_j`` (i < j, lex order)."""
    if m_on_v.rows != m_on_v.cols:
        raise ValueError("operator on V must be square")
    if m_on_v.rows < 2:
        raise ValueError("exterior square needs dim V >= 2")
    mat = _quotient_square_action(m_on_v, unipotent, sign=-1)
    return NilpotentOperator(GFpMatrix(m_on_v.p, mat), ModuleSpec(ModuleKind.WEDGE2))


def lift_to_sym2(m_on_v: GFpMatrix, *, unipotent: bool = False) -> NilpotentOperator:
    """Action on the symmetric square, monomial basis ``v_i v_j`` (i <= j).

    The symmetric square is the degree-2 part of the polynomial algebra on
    the ``v_i`` (a quotient of V (x) V), which also gives the right object
    in characteristic 2.
    """
    if m_on_v.rows != m_on_v.cols:
        raise ValueError("operator on V must be square")
    mat = _quotient_square_action(m_on_v, unipotent, sign=1)
    return NilpotentOperator(GFpMatrix(m_on_v.p, mat), ModuleSpec(ModuleKind.SYM2))


# -- trace-zero subspace and its quotient ---------------------------------------


def trace_functional(n: int, p: int) -> GFpMatrix:
    """The row functional sending a tensor coordinate vector to its trace."""
    return GFpMatrix(p, np.eye(n, dtype=np.int64).reshape(1, n * n))


def gamma_vector(n: int, p: int) -> GFpMatrix:
    """Coordinates of the invariant vector: sum of all ``v_i (x) v_i*``."""
    return trace_functional(n, p).transpose()


def restrict_to_trace_kernel(op: NilpotentOperator) -> NilpotentOperator:
    """Restrict an operator on V (x) V* to the trace-zero subspace.

    In the basis of the module docstring the images are gathers of columns,
    and the coordinates of a trace-zero vector are its off-diagonal entries
    followed by the partial sums of its diagonal; the full sum is its trace.
    """
    if op.module.kind is not ModuleKind.GL:
        raise ValueError("input must act on V (x) V*")
    n = math.isqrt(op.dim)
    if n * n != op.dim:
        raise ValueError("operator dimension is not a perfect square")
    m = op.matrix.a
    diag = np.arange(n) * (n + 1)
    off = np.flatnonzero(np.arange(n * n) % (n + 1))  # diag: the multiples of n + 1
    images = np.hstack([m[:, off], m[:, diag[:-1]] - m[:, diag[1:]]])
    sums = np.cumsum(images[diag], axis=0) % op.p
    if sums[-1].any():
        raise ValueError("trace-zero subspace is not invariant: an image has nonzero trace")
    restricted = GFpMatrix(op.p, np.vstack([images[off], sums[:-1]]))
    return NilpotentOperator(restricted, ModuleSpec(ModuleKind.SL))


def quotient_by_invariant_line(op_on_kernel: NilpotentOperator) -> NilpotentOperator:
    """Induced operator on (trace-zero subspace) / (invariant line).

    Only meaningful when p divides n; otherwise the invariant vector has
    nonzero trace, the quotient is isomorphic to the trace-zero subspace
    itself, and calling this is an error.
    """
    if op_on_kernel.module.kind is not ModuleKind.SL:
        raise ValueError("input must act on the trace-zero subspace")
    dim = op_on_kernel.dim
    n = math.isqrt(dim + 1)
    if n * n != dim + 1:
        raise ValueError("operator dimension is not n^2 - 1")
    p = op_on_kernel.p
    if n % p != 0:
        raise ValueError(
            "quotient equals the trace-zero subspace when p does not divide n; "
            "use restrict_to_trace_kernel"
        )
    # coordinates of gamma, the sum of the diagonal units: the i-th diagonal
    # difference has coefficient i + 1, so the first one is a pivot of 1
    pivot = dim - (n - 1)
    coords = np.zeros(dim, dtype=np.int64)
    coords[pivot:] = np.arange(1, n) % p
    r = op_on_kernel.matrix.a
    if (r @ coords % p).any():
        raise ValueError("line is not annihilated by the operator")
    reduced = (r - np.outer(coords, r[pivot, :])) % p
    keep = [i for i in range(dim) if i != pivot]
    q = reduced[np.ix_(keep, keep)]
    return NilpotentOperator(GFpMatrix(p, q), ModuleSpec(ModuleKind.PSL))


# -- distinguished vectors -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DistinguishedVectors:
    """Explicit tensor-coordinate vectors tied to a divisibility level.

    ``gamma`` is the invariant vector (all-ones on the diagonal positions).
    ``delta`` sums, over every block, the positions whose image under the
    (p^beta - 1)-th power of the action telescopes to the block diagonal;
    ``delta_prime`` is the diagonal sub-sum supported on one chosen block,
    killed by the p^beta-th power.  All coefficients are 1.
    """

    beta: int
    gamma: GFpMatrix
    delta: GFpMatrix
    delta_prime: GFpMatrix


def distinguished_vectors(jt: JordanType, p: int, beta: int) -> DistinguishedVectors:
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if not jt:
        raise ValueError("empty Jordan type")
    step = p**beta
    if any(size % step for size in jt.sizes):
        raise ValueError(f"p^beta = {step} must divide every block size, got {jt}")
    n = jt.total_dim
    layout = block_layout(jt)
    gamma = gamma_vector(n, p)
    delta = np.zeros((n * n, 1), dtype=np.int64)
    for size, off in layout:
        for j in range(size // step):
            a = off + (j + 1) * step - 1  # v_((j+1) p^beta) within the block
            b = off + j * step  # v_(j p^beta + 1) within the block
            delta[a * n + b, 0] += 1
    delta_prime = np.zeros((n * n, 1), dtype=np.int64)
    size0, off0 = layout[0]
    for j in range(1, size0 // step + 1):
        g = off0 + j * step - 1
        delta_prime[g * n + g, 0] += 1
    return DistinguishedVectors(
        beta, gamma, GFpMatrix(p, delta), GFpMatrix(p, delta_prime)
    )


# -- admissibility witnesses -----------------------------------------------------


def _single_block_gram(d: int) -> np.ndarray:
    """Gram matrix making the size-d shift block skew-adjoint.

    Anti-diagonal with alternating signs: alternating for even d, symmetric
    for odd d.
    """
    g = np.zeros((d, d), dtype=np.int64)
    for i in range(1, d + 1):
        g[i - 1, d - i] = (-1) ** i
    return g


def admissible_witness(jt: JordanType, ctx: GroupContext) -> tuple[GFpMatrix, GFpMatrix]:
    """Nilpotent X of the given type together with a Gram matrix G with
    ``X^T G + G X = 0``; G is alternating for Sp and symmetric for SO.

    Blocks of the parity the form accommodates directly (even for Sp, odd
    for SO) get the alternating-sign anti-diagonal Gram; the remaining sizes
    come in pairs and are embedded as hyperbolic pairs (a block plus its
    dual, with the dual action the negative transpose).  Constructive proof
    that :func:`jordanblocks.partitions.is_admissible` is not too strict.
    """
    if ctx.family is Family.SL:
        raise ValueError("witness construction applies to Sp and SO only")
    if not is_admissible(jt, ctx):
        raise ValueError(f"partition {jt} is not admissible for {ctx.family.value}")
    single_parity = 0 if ctx.family is Family.SP else 1  # block size parity kept single
    x_blocks: list[np.ndarray] = []
    g_blocks: list[np.ndarray] = []
    for size, mult in jt.pairs():
        shift = np.eye(size, k=1, dtype=np.int64)
        if size % 2 == single_parity:
            for _ in range(mult):
                x_blocks.append(shift)
                g_blocks.append(_single_block_gram(size))
        else:
            # guaranteed even multiplicity; embed as hyperbolic pairs
            eye = np.eye(size, dtype=np.int64)
            zero = np.zeros((size, size), dtype=np.int64)
            sign = -1 if ctx.family is Family.SP else 1
            pair_x = np.block([[shift, zero], [zero, -shift.T]])
            pair_g = np.block([[zero, eye], [sign * eye, zero]])
            for _ in range(mult // 2):
                x_blocks.append(pair_x)
                g_blocks.append(pair_g)
    n = ctx.n
    x = np.zeros((n, n), dtype=np.int64)
    g = np.zeros((n, n), dtype=np.int64)
    off = 0
    for xb, gb in zip(x_blocks, g_blocks):
        d = xb.shape[0]
        x[off : off + d, off : off + d] = xb
        g[off : off + d, off : off + d] = gb
        off += d
    return GFpMatrix(ctx.p, x), GFpMatrix(ctx.p, g)


# -- the oracle ------------------------------------------------------------------


def validate_query(jt: JordanType, ctx: GroupContext, module: ModuleSpec) -> None:
    """Check a (partition, context, module) query; raises on any violation."""
    if not is_admissible(jt, ctx):
        raise ValueError(f"partition {jt} is not admissible for {ctx.family.value}")
    entry = module.entry
    if entry.family not in (None, ctx.family):
        raise ValueError(f"module {module} needs family {entry.family.value}")
    if ctx.n % ctx.p**entry.p_power:
        raise ValueError(f"module {module} needs p^{entry.p_power} dividing n")


class _OracleSession:
    """Lazy shared intermediates for one (partition, context, element) query."""

    def __init__(self, jt: JordanType, ctx: GroupContext, unipotent: bool):
        self.jt = jt
        self.ctx = ctx
        self.unipotent = unipotent
        self._cache: dict[str, object] = {}

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def matrix_on_v(self) -> GFpMatrix:
        if self.unipotent:
            return self._memo("v", lambda: natural_unipotent(self.jt, self.ctx.p))
        return self._memo("v", lambda: natural_nilpotent(self.jt, self.ctx.p).matrix)

    def tensor_op(self) -> NilpotentOperator:
        return self._memo(
            "tensor", lambda: lift_to_tensor(self.matrix_on_v(), unipotent=self.unipotent)
        )

    def tensor_type(self) -> JordanType:
        return self._memo("tensor_type", lambda: self.tensor_op().jordan_type())

    def sl_op(self) -> NilpotentOperator:
        return self._memo("sl", lambda: restrict_to_trace_kernel(self.tensor_op()))

    def sl_type(self) -> JordanType:
        return self._memo("sl_type", lambda: self.sl_op().jordan_type())

    def psl_type(self) -> JordanType:
        if self.ctx.n % self.ctx.p != 0:
            return self.sl_type()
        return self._memo(
            "psl_type", lambda: quotient_by_invariant_line(self.sl_op()).jordan_type()
        )

    def wedge_type(self) -> JordanType:
        return self._memo(
            "wedge_type",
            lambda: lift_to_wedge2(self.matrix_on_v(), unipotent=self.unipotent).jordan_type(),
        )

    def sym_type(self) -> JordanType:
        return self._memo(
            "sym_type",
            lambda: lift_to_sym2(self.matrix_on_v(), unipotent=self.unipotent).jordan_type(),
        )

    def psl_without(self, part: JordanType) -> JordanType:
        try:
            return self.psl_type() - part
        except ValueError as exc:
            raise DecompositionError(f"module decomposition violated: {exc}") from exc

    def type_for(self, module: ModuleSpec) -> JordanType:
        return module.entry.oracle(self)


def oracle_types(
    jt: JordanType,
    ctx: GroupContext,
    modules: list[ModuleSpec] | tuple[ModuleSpec, ...],
    *,
    unipotent: bool = False,
) -> dict[ModuleSpec, JordanType]:
    """Brute-force Jordan types on several modules, sharing intermediates."""
    for module in modules:
        validate_query(jt, ctx, module)
    session = _OracleSession(jt, ctx, unipotent)
    return {module: session.type_for(module) for module in modules}


def oracle_type(
    jt: JordanType, ctx: GroupContext, module: ModuleSpec, *, unipotent: bool = False
) -> JordanType:
    """Brute-force Jordan type on one module, by explicit exact matrices."""
    return oracle_types(jt, ctx, [module], unipotent=unipotent)[module]
