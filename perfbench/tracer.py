"""Spans and counters recorded from outside the cutnitsche package.

The tracer replaces each measured public function with a wrapper in
every ``cutnitsche.*`` module that binds it, so calls made through
``from .mesh import build_mesh`` in harness and diagnostics, and through
function-local imports, are all seen.  Nothing under ``src/`` changes.

Two modes share the same wrappers:

* probe (``spans=False``): only the functions in ``OBSERVED`` are wrapped,
  to check every solve's backward error and to record problem sizes and
  geometry keys.  End-to-end metrics are measured in this mode.
* trace (``spans=True``): every function in ``LAYERS`` is wrapped and each
  call records a span (name, start, end, parent span, operation id).

Counts that the package only logs (degenerate chords, ambiguous
elements, floor acceptances, dense fallbacks) are taken from the log
records of the ``cutnitsche`` loggers.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import logging
import sys
import time
from collections import Counter

import numpy as np

# module -> public functions measured as that module's layer
LAYERS = {
    "mesh": ("build_mesh",),
    "cutcell": ("classify",),
    "space": ("build_spaces",),
    "assembly": ("build_system", "assemble_parts", "assemble_load",
                 "assemble_vnorm_gram"),
    "solver": ("solve",),
    "norms": ("error_report",),
    "levelset": ("reflect_many",),
    "diagnostics": ("build_extension", "interpolation_error_profile",
                    "coercivity_probe", "patch_area_ratio", "run_diagnostics"),
    "harness": ("run_solve", "run_convergence", "run_contrast_sweep"),
}

# functions whose arguments or results the benchmark inspects in every run
OBSERVED = {
    "cutcell": ("classify",),
    "space": ("build_spaces",),
    "assembly": ("build_system",),
    "solver": ("solve",),
}

# (logger message prefix, counter name): messages the package logs at WARNING
LOG_COUNTERS = (
    ("element %d: degenerate chord", "cutcell.degenerate_chords"),
    ("%d elements flagged as ambiguous", "cutcell.ambiguous_elements"),
    ("accepting stagnated solve", "solver.floor_accepts"),
    ("CG hit max iterations; falling back", "solver.dense_fallbacks"),
)


def geometry_key(level: int, ls) -> tuple:
    """What a classify call depends on: level and interface."""
    return (int(level), ls.name, ls.inclusion_side)


def backward_error(matrix, rhs: np.ndarray, x: np.ndarray) -> float:
    """Normwise backward error ||b - Ax|| / (||A|| ||x|| + ||b||), inf-norms."""
    r = rhs - matrix @ x
    a_norm = float(abs(matrix).sum(axis=1).max()) if matrix.shape[0] else 0.0
    den = a_norm * float(np.max(np.abs(x), initial=0.0)) + float(np.max(np.abs(rhs), initial=0.0))
    num = float(np.max(np.abs(r), initial=0.0))
    return num / den if den > 0.0 else num


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    op: str | None
    end: float = float("nan")
    error: str | None = None


@dataclasses.dataclass
class SolveRecord:
    op: str | None
    backward_error: float | None   # None when the call raised without an iterate
    iterations: int
    raised: str | None


class _LogCounter(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(level=logging.WARNING)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        msg = str(record.msg)
        for prefix, name in LOG_COUNTERS:
            if msg.startswith(prefix):
                amount = record.args[0] if name == "cutcell.ambiguous_elements" else 1
                self.counts[name] += int(amount)
                return


class Tracer:
    """Wraps the package's layer functions; use as a context manager."""

    def __init__(self, spans: bool = False, clock=time.perf_counter):
        self.record_spans = spans
        self.clock = clock
        self.spans: list[Span] = []
        self.solves: list[SolveRecord] = []
        self.keys: list[tuple] = []
        self.sizes = Counter()      # largest problem seen: elements, cut, free dofs, nnz
        self.counts = Counter()     # from log records
        self._stack: list[Span] = []
        self._op: str | None = None
        self._patched: list[tuple] = []
        self._handler = _LogCounter(self.counts)

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        import cutnitsche  # noqa: F401  (loads every submodule)

        table = LAYERS if self.record_spans else OBSERVED
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cutnitsche" or name.startswith("cutnitsche."))]
        for layer, names in table.items():
            home = sys.modules[f"cutnitsche.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", fname, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        logging.getLogger("cutnitsche").addHandler(self._handler)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        logging.getLogger("cutnitsche").removeHandler(self._handler)

    @contextlib.contextmanager
    def operation(self, op_id: str):
        """Tag every span and solve recorded inside with ``op_id``."""
        previous, self._op = self._op, op_id
        try:
            yield
        finally:
            self._op = previous

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, span_name: str, fname: str, fn):
        observe = getattr(self, f"_observe_{fname}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, exc)
                if observe is not None:
                    self._checked(observe, args, kwargs, None, exc)
                raise
            self._close(span, None)
            if observe is not None:
                self._checked(observe, args, kwargs, result, None)
            return result

        return wrapper

    def _open(self, name: str) -> Span | None:
        if not self.record_spans:
            return None
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), name=name, start=self.clock(),
                    parent=parent, op=self._op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span | None, exc: BaseException | None) -> None:
        if span is None:
            return
        span.end = self.clock()
        if exc is not None:
            span.error = type(exc).__name__
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _checked(self, observe, args, kwargs, result, exc) -> None:
        # the benchmark's own checks get a span so they are not billed to
        # the caller's self time
        span = self._open("perfbench.check")
        try:
            observe(args, kwargs, result, exc)
        finally:
            self._close(span, None)

    # -- observers ----------------------------------------------------------

    def _observe_classify(self, args, kwargs, topo, exc) -> None:
        mesh = args[0] if args else kwargs["mesh"]
        ls = args[1] if len(args) > 1 else kwargs["ls"]
        self.keys.append(geometry_key(mesh.level, ls))
        if topo is not None:
            self._size("elements", mesh.n_elems)
            self._size("cut_elements", topo.n_cut)
            self.counts["cutcell.cut_elements"] += int(topo.n_cut)

    def _observe_build_spaces(self, args, kwargs, layout, exc) -> None:
        if layout is not None:
            self._size("free_dofs", layout.n_free)
            self.counts["space.free_dofs"] += int(layout.n_free)

    def _observe_build_system(self, args, kwargs, system, exc) -> None:
        if system is not None:
            self._size("nnz", system.matrix.nnz)
            self.counts["assembly.nnz"] += int(system.matrix.nnz)

    def _observe_solve(self, args, kwargs, out, exc) -> None:
        system = args[0] if args else kwargs["system"]
        if exc is None:
            x, stats = out
        else:
            stats = getattr(exc, "stats", None)
            x = getattr(exc, "x", None)
        be = None if x is None else backward_error(system.matrix, system.rhs, x)
        self.solves.append(SolveRecord(
            op=self._op, backward_error=be,
            iterations=int(stats.iterations) if stats is not None else 0,
            raised=None if exc is None else type(exc).__name__))

    def _size(self, name: str, value: int) -> None:
        self.sizes[name] = max(self.sizes[name], int(value))

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time covered by its child spans."""
        child = Counter()
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return {s.id: (s.end - s.start) - child[s.id] for s in self.spans}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and counts of the recorded spans."""
        selfs = self.self_times()
        calls = Counter(s.name for s in self.spans)
        busy = Counter()
        for s in self.spans:
            busy[s.name] += selfs[s.id]
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            for fname in names:
                key = f"{layer}.{fname}"
                out[f"{key}.calls"] = calls[key]
                out[f"{key}.self_s"] = busy[key]
        for _, name in LOG_COUNTERS:
            out[name] = self.counts[name]
        for name in ("cutcell.cut_elements", "space.free_dofs", "assembly.nnz"):
            out[name] = self.counts[name]
        out["cutcell.distinct_ratio"] = (len(set(self.keys)) / len(self.keys)
                                         if self.keys else 1.0)
        out["solver.iterations"] = sum(s.iterations for s in self.solves)
        out["solver.raised"] = sum(s.raised is not None for s in self.solves)
        out["solver.backward_error_max"] = max(
            (s.backward_error for s in self.solves if s.backward_error is not None),
            default=0.0)
        out["solver.first_try_ratio"] = self._first_try_ratio()
        return out

    def _first_try_ratio(self) -> float:
        """Share of solve requests whose first solve call returned.

        A request is the parent span of one or more ``solver.solve`` spans
        (a dense fallback is a second call under the same parent).  1 when
        no solve ran.
        """
        first: dict[int | None, Span] = {}
        for s in self.spans:
            if s.name == "solver.solve" and s.parent not in first:
                first[s.parent] = s
        if not first:
            return 1.0
        return sum(s.error is None for s in first.values()) / len(first)
