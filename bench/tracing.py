"""Per-layer spans and counts, recorded from outside the program.

``install`` replaces the public functions of ``gfp``, ``operators``,
``rules``, ``sweep``, ``cli`` and ``partitions`` with timing wrappers, in
every module namespace that binds them (so re-imports such as
``rules.jordan_type_of_nilpotent`` are traced too), plus the ``GFpMatrix``
methods.  Nothing under ``src/`` is edited; the returned function puts every
original back.

A span's self time is its duration minus the time of the traced spans it
encloses.  A layer's total time counts only its outermost spans, so nested
calls of one layer are not counted twice.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

import jordanblocks
from jordanblocks import cli, gfp, operators, partitions, rules, sweep

# layers reported with calls and self time
LAYERS = (
    "gfp.elim",
    "gfp.matmul",
    "gfp.is_nilpotent",
    "gfp.jordan_type",
    "operators.lift_tensor",
    "operators.lift_wedge2",
    "operators.lift_sym2",
    "operators.restrict_sl",
    "operators.quotient_psl",
    "rules.pair_fill",
    "rules.rewrite",
    "partitions.is_admissible",
)
COUNTS = (
    "gfp.elim.cells",
    "gfp.matmul.flops",
    "gfp.jordan_type.rank_steps",
    "rules.pair_cache.hits",
    "rules.pair_cache.misses",
    "sweep.cases.checked",
    "sweep.cases.skipped",
)
# metrics that must repeat exactly between two traced runs of the same input
EXACT = tuple(f"{layer}.calls" for layer in LAYERS) + COUNTS + (
    "operators.oracle.calls",
    "rules.pair_cache.lookups",
)

_PAIR = "rules.pair"


class Tracer:
    """Span aggregates for one traced unit of work, kept in memory."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.counts = Counter()
        self._stack: list[list] = []  # open spans: [key, start, child seconds]
        self._open = Counter()

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _enter(self, key: str) -> list:
        frame = [key, perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[key] += 1
        return frame

    def _exit(self, frame: list, layer: str | None) -> None:
        duration = perf_counter() - frame[1]
        self._stack.pop()
        self._open[frame[0]] -= 1
        if layer is None:
            return  # dissolved span: its time stays in the parent's self time
        self.calls[layer] += 1
        self.self_s[layer] += duration - frame[2]
        if not self._open[frame[0]]:
            self.total_s[layer] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def span(self, fn, layer: str, weigh=None):
        """Wrap ``fn`` in a span of ``layer``; ``weigh(tracer, *args)`` adds counts."""

        def traced(*args, **kwargs):
            if weigh is not None:
                weigh(self, *args)
            frame = self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, layer)

        return traced

    def cache_lookup(self, cached):
        """Wrap an ``lru_cache`` function: a lookup that misses is a
        ``rules.pair_fill`` span; a hit leaves no span."""

        def traced(*args):
            before = cached.cache_info().misses
            frame = self._enter(_PAIR)
            missed = False
            try:
                result = cached(*args)
                missed = cached.cache_info().misses > before
                return result
            finally:
                self.counts["rules.pair_cache.misses" if missed else "rules.pair_cache.hits"] += 1
                self._exit(frame, "rules.pair_fill" if missed else None)

        return traced

    def count_validation(self, fn):
        """Count the sweep's accepted (checked) and rejected (skipped) queries."""

        def traced(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except ValueError:
                self.counts["sweep.cases.skipped"] += 1
                raise
            self.counts["sweep.cases.checked"] += 1

        return traced

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for name in COUNTS:
            out[name] = self.counts[name]
        out["operators.oracle.calls"] = self.calls["operators.oracle"]
        out["operators.oracle.total_s"] = self.total_s["operators.oracle"]
        out["rules.pair_fill.total_s"] = self.total_s["rules.pair_fill"]
        lookups = self.counts["rules.pair_cache.hits"] + self.counts["rules.pair_cache.misses"]
        out["rules.pair_cache.lookups"] = lookups
        out["rules.pair_cache.hit_ratio"] = (
            self.counts["rules.pair_cache.hits"] / lookups if lookups else 0.0
        )
        out["sweep.lemmas.total_s"] = self.total_s["sweep.lemmas"]
        out["cli.format.self_s"] = self.self_s["cli.format"]
        return out


def _cells(tracer, m, *rest):
    tracer.counts["gfp.elim.cells"] += m.rows * m.cols


def _cells_inverse(tracer, m):
    tracer.counts["gfp.elim.cells"] += m.rows * 2 * m.cols


def _cells_solve(tracer, basis, rhs):
    tracer.counts["gfp.elim.cells"] += basis.rows * (basis.cols + rhs.cols)


def _cells_rank_step(tracer, m):
    _cells(tracer, m)
    if tracer.parent() == "gfp.jordan_type":
        tracer.counts["gfp.jordan_type.rank_steps"] += 1


def _flops(tracer, a, b):
    if isinstance(b, gfp.GFpMatrix):
        tracer.counts["gfp.matmul.flops"] += 2 * a.rows * a.cols * b.cols


_MODULES = (jordanblocks, gfp, operators, rules, sweep, cli, partitions)


def install(tracer: Tracer):
    """Route the traced functions through ``tracer``; returns the undo function."""
    functions = {
        gfp.nullspace: tracer.span(gfp.nullspace, "gfp.elim", _cells),
        gfp.solve_columns: tracer.span(gfp.solve_columns, "gfp.elim", _cells_solve),
        gfp.column_space_basis: tracer.span(
            gfp.column_space_basis, "gfp.elim", _cells_rank_step
        ),
        gfp.inverse: tracer.span(gfp.inverse, "gfp.elim", _cells_inverse),
        gfp.is_nilpotent: tracer.span(gfp.is_nilpotent, "gfp.is_nilpotent"),
        gfp.jordan_type_of_nilpotent: tracer.span(
            gfp.jordan_type_of_nilpotent, "gfp.jordan_type"
        ),
        operators.lift_to_tensor: tracer.span(operators.lift_to_tensor, "operators.lift_tensor"),
        operators.lift_to_wedge2: tracer.span(operators.lift_to_wedge2, "operators.lift_wedge2"),
        operators.lift_to_sym2: tracer.span(operators.lift_to_sym2, "operators.lift_sym2"),
        operators.restrict_to_trace_kernel: tracer.span(
            operators.restrict_to_trace_kernel, "operators.restrict_sl"
        ),
        operators.quotient_by_invariant_line: tracer.span(
            operators.quotient_by_invariant_line, "operators.quotient_psl"
        ),
        partitions.is_admissible: tracer.span(
            partitions.is_admissible, "partitions.is_admissible"
        ),
        rules.closed_form_type: tracer.span(rules.closed_form_type, "rules.rewrite"),
        rules.tensor_pair_type: tracer.cache_lookup(rules.tensor_pair_type),
        rules.wedge_block_type: tracer.cache_lookup(rules.wedge_block_type),
        rules.sym_block_type: tracer.cache_lookup(rules.sym_block_type),
        sweep.verify_lemma_identities: tracer.span(
            sweep.verify_lemma_identities, "sweep.lemmas"
        ),
        cli.main: tracer.span(cli.main, "cli.format"),
    }
    wrappers = {id(fn): wrapper for fn, wrapper in functions.items()}
    saved = []

    def patch(owner, name, wrapper):
        saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    for module in _MODULES:
        for name, value in list(vars(module).items()):
            if id(value) in wrappers:
                patch(module, name, wrappers[id(value)])
    matrix = gfp.GFpMatrix
    patch(matrix, "rank", tracer.span(matrix.rank, "gfp.elim", _cells))
    patch(matrix, "__matmul__", tracer.span(matrix.__matmul__, "gfp.matmul", _flops))
    patch(matrix, "__pow__", tracer.span(matrix.__pow__, "gfp.matmul"))
    session = operators._OracleSession
    patch(session, "type_for", tracer.span(session.type_for, "operators.oracle"))
    patch(sweep, "validate_query", tracer.count_validation(sweep.validate_query))

    def restore():
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)

    return restore


def traced_call(fn):
    """``fn()`` with every layer traced; returns ``(result, metrics)``."""
    tracer = Tracer()
    restore = install(tracer)
    try:
        result = fn()
    finally:
        restore()
    return result, tracer.metrics()
