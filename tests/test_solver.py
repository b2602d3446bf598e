"""Preconditioned CG on SPD systems and the backward error of its iterates."""
import gc
import signal
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutnitsche import solver
from cutnitsche.assembly import build_system
from cutnitsche.cutcell import classify
from cutnitsche.mesh import build_mesh
from cutnitsche.problems import example_circle
from cutnitsche.solver import (_TOL, BACKWARD_ERROR_TOL, MaxIterationsError, NotSPDError,
                               SolveStats, SolverError, StagnationError, _stats, solve)
from cutnitsche.space import build_spaces


class ArraySystem:
    """Minimal stand-in for SparseSystem in pure linear-algebra tests."""

    def __init__(self, a, b):
        self.matrix = sp.csr_matrix(a if sp.issparse(a) else np.asarray(a, dtype=float))
        self.rhs = np.asarray(b, dtype=float)

    @property
    def n(self):
        return self.rhs.shape[0]


def test_identity_converges_in_one_iteration():
    b = np.array([3.0, -1.0, 2.0, 0.5])
    x, stats = solve(ArraySystem(np.eye(4), b))
    np.testing.assert_array_equal(x, b)
    assert stats.iterations == 1
    assert stats.method == "cg_jacobi"


def test_diagonal_scaling():
    x, stats = solve(ArraySystem(np.diag([1.0, 1e8]), [1.0, 1.0]))
    np.testing.assert_allclose(x, [1.0, 1e-8], rtol=1e-12)
    assert stats.iterations <= 2  # Jacobi preconditioning absorbs the scaling


def test_zero_rhs():
    x, stats = solve(ArraySystem(np.eye(3), np.zeros(3)))
    assert np.all(x == 0.0)
    assert stats.iterations == 0


@pytest.mark.parametrize("a, b", [
    (np.eye(3), [1.0, np.nan, 2.0]),
    # finite and positive, but 1 / diag overflows to inf
    (np.diag([1e-320, 1.0, 2.0]), [1.0, 1.0, 1.0]),
])
@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
def test_non_finite_residual_raises_after_one_iteration(a, b):
    with pytest.raises(SolverError, match="at iteration 1:") as err:
        solve(ArraySystem(a, b), max_iter=1000)
    assert type(err.value) is SolverError


def _relative_residual(system, x):
    return np.linalg.norm(system.rhs - system.matrix @ x) / np.linalg.norm(system.rhs)


def _backward_error(system, x):
    """||b - Ax||inf / (||A||inf ||x||inf + ||b||inf), ||A||inf from the
    dense matrix.  The residual is at round-off, so it is formed with the
    sparse product the solver uses; another summation order would change it."""
    b = system.rhs
    r = b - system.matrix @ x
    a_norm = np.abs(system.matrix.toarray()).sum(axis=1).max()
    return np.abs(r).max() / (a_norm * np.abs(x).max() + np.abs(b).max())


def _extreme_contrast_system():
    # reversed inclusion at contrast 1e9 on the coarsest mesh
    ls, spec = example_circle(1e-4, 1e5, inclusion_side="plus")
    mesh = build_mesh(1)
    topo = classify(mesh, ls)
    return build_system(build_spaces(topo), spec)


def ref_cg(system, max_iter=None):
    """CG written with a temporary per vector operation, ``a @ p`` among
    them, as ``solve`` was before it updated buffers in place: (outcome,
    iterate, stats of the iterate)."""
    a, b = system.matrix, system.rhs
    bnorm = np.linalg.norm(b)
    inv_diag = 1.0 / a.diagonal()
    x = np.zeros(b.shape[0])
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    best_true, stalls = np.inf, 0
    for it in range(1, (max_iter or 20 * b.shape[0]) + 1):
        ap = a @ p
        alpha = rz / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        if np.linalg.norm(r) <= _TOL * bnorm:
            r = b - a @ x
            true_r = np.linalg.norm(r)
            if true_r <= _TOL * bnorm:
                return "converged", x, _stats(it, a, b, x, r, bnorm)
            stalls = stalls + 1 if true_r >= 0.5 * best_true else 0
            best_true = min(best_true, true_r)
            if stalls >= 2:
                return "stagnated", x, _stats(it, a, b, x, r, bnorm)
            z = inv_diag * r
            p = z.copy()
            rz = float(r @ z)
            continue
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return "max_iterations", x, _stats(it, a, b, x, b - a @ x, bnorm)


def _check_matches_reference(circle_layout):
    """The same iterate bytes and the same stats as the reference, for a
    converged solve, two stagnated ones (the second, circle plus at
    contrast 1e9 on level 3, accepted by its backward error) and one
    cut off at its iteration cap."""
    layout = circle_layout(2)
    _, spec = example_circle(1.0, 1e4)
    converged = build_system(layout, spec)
    x, stats = solve(converged)
    outcome, x_ref, stats_ref = ref_cg(converged)
    assert (outcome, stats) == ("converged", stats_ref)
    assert x.tobytes() == x_ref.tobytes()

    _, spec = example_circle(1.0, 1e9, inclusion_side="plus")
    floor = build_system(circle_layout(3, "plus"), spec)
    for stagnated in (_extreme_contrast_system(), floor):
        with pytest.raises(StagnationError) as err:
            solve(stagnated)
        outcome, x_ref, stats_ref = ref_cg(stagnated)
        assert (outcome, err.value.stats) == ("stagnated", stats_ref)
        assert err.value.x.tobytes() == x_ref.tobytes()
    assert err.value.stats.backward_error <= BACKWARD_ERROR_TOL

    with pytest.raises(MaxIterationsError) as err:
        solve(converged, max_iter=7)
    assert ref_cg(converged, max_iter=7)[::2] == ("max_iterations", err.value.stats)


def test_in_place_cg_matches_reference(circle_layout):
    _check_matches_reference(circle_layout)


@pytest.fixture
def split(monkeypatch):
    """Every solve runs on two threads, whatever its size and the CPUs
    the process may use; returns the set of threads that ran
    ``x += alpha p``."""
    monkeypatch.setattr(solver, "_SPLIT_NNZ", 0)
    monkeypatch.setattr(solver.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    ran_on = set()
    axpy = solver._axpy

    def recorded(*args):
        ran_on.add(threading.current_thread())
        axpy(*args)

    monkeypatch.setattr(solver, "_axpy", recorded)
    return ran_on


@pytest.mark.parametrize("case", ["small", "one_cpu"])
def test_inline_cg_starts_no_thread(case, circle_layout, monkeypatch):
    # a system below _SPLIT_NNZ, or any system on a process allowed one
    # CPU, is solved on the caller's thread alone
    if case == "one_cpu":
        monkeypatch.setattr(solver, "_SPLIT_NNZ", 0)
        monkeypatch.setattr(solver.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    system = build_system(circle_layout(2), example_circle(1.0, 1e4)[1])
    assert (system.matrix.nnz < solver._SPLIT_NNZ) == (case == "small")
    seen = []
    axpy = solver._axpy

    def recorded(*args):
        seen.append((threading.current_thread(), threading.active_count()))
        axpy(*args)

    monkeypatch.setattr(solver, "_axpy", recorded)
    threads = threading.active_count()
    x, stats = solve(system)
    outcome, x_ref, stats_ref = ref_cg(system)
    assert seen and set(seen) == {(threading.main_thread(), threads)}
    assert (outcome, stats) == ("converged", stats_ref)
    assert x.tobytes() == x_ref.tobytes()


def test_split_cg_matches_reference(circle_layout, split):
    _check_matches_reference(circle_layout)
    assert split and threading.main_thread() not in split


def test_split_cg_under_signals_matches_reference(circle_layout, split):
    # a 1 ms timer whose handler runs numpy work on the main thread, as
    # perfbench's sampler does, interrupts the caller's waits
    _, spec = example_circle(1.0, 1e9, inclusion_side="plus")
    floor = build_system(circle_layout(3, "plus"), spec)
    values = np.random.default_rng(0).random(500)
    calls = []

    def handler(signum, frame):
        calls.append(float(np.sort(values)[::7].sum()))

    previous = signal.signal(signal.SIGALRM, handler)
    try:
        signal.setitimer(signal.ITIMER_REAL, 1e-3, 1e-3)
        with pytest.raises(StagnationError) as err:
            solve(floor)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert calls
    outcome, x_ref, stats_ref = ref_cg(floor)
    assert (outcome, err.value.stats) == ("stagnated", stats_ref)
    assert err.value.x.tobytes() == x_ref.tobytes()


def test_concurrent_split_solves_match_reference(circle_layout, split):
    # three split solves at once, six threads on a host of fewer CPUs,
    # switching every microsecond: no job may see another's vectors or
    # a half-written p
    layout = circle_layout(2)
    _, spec = example_circle(1.0, 1e4)
    system = build_system(layout, spec)
    _, x_ref, stats_ref = ref_cg(system)
    results = []

    def run():
        results.append(solve(system))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run) for _ in range(3)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert len(results) == 3
    for x, stats in results:
        assert stats == stats_ref
        assert x.tobytes() == x_ref.tobytes()


def _laplacian_1d(n):
    return (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
            + np.diag(np.full(n - 1, -1.0), -1))


def _failing_axpy(*args):
    raise MemoryError("no room for the step")


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@pytest.mark.parametrize("case, expected", [
    ("converged", None),
    ("stagnated", StagnationError),
    ("max_iterations", MaxIterationsError),
    ("negative_curvature", NotSPDError),
    ("non_finite", SolverError),
    ("worker_raises", MemoryError),
])
def test_split_cg_ends_its_thread(case, expected, split, monkeypatch):
    # every way out of a split solve, a job that raises on the second
    # thread among them, leaves no thread behind and the caller unblocked
    system, max_iter = {
        "converged": (ArraySystem(_laplacian_1d(30), np.ones(30)), None),
        "stagnated": (_extreme_contrast_system(), None),
        "max_iterations": (ArraySystem(_laplacian_1d(50), np.ones(50)), 3),
        "negative_curvature": (ArraySystem([[1.0, 2.0], [2.0, 1.0]], [1.0, 0.0]), None),
        "non_finite": (ArraySystem(np.eye(3), [1.0, np.nan, 2.0]), None),
        "worker_raises": (ArraySystem(_laplacian_1d(30), np.ones(30)), None),
    }[case]
    if case == "worker_raises":
        monkeypatch.setattr(solver, "_axpy", _failing_axpy)
    threads = threading.active_count()
    if expected is None:
        solve(system, max_iter=max_iter)
    else:
        with pytest.raises(expected) as err:
            solve(system, max_iter=max_iter)
        assert type(err.value) is expected
    assert threading.active_count() == threads


# the length of the built systems here; a vector of the smallest system,
# the level-3 one of 2,127 unknowns, holds 17 KB, so no work vector kept
# past the solve fits in _HELD_SLACK
_HELD_N = 20_000
# the exception, its traceback, frames, message and stats: 0.7-1.4 KB
_HELD_SLACK = 4096


def _tridiagonal(n):
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")


def _held_error(system, max_iter):
    """The error ``solve`` raises, and the bytes tracemalloc counts above
    the level before the call while that error is held."""
    def run():
        try:
            solve(system, max_iter=max_iter)
        except SolverError as err:
            return err
        raise AssertionError("solve returned")

    run()  # the first call fills the caches the measured one would add to
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        err = run()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return err, held


def _arrays_held_by(tb, system):
    """The ndarrays reachable from the locals of the frames of ``tb``,
    through containers and object attributes; ``system``, which its
    caller holds anyway, is not searched."""
    stop = (type, types.ModuleType, types.FunctionType, types.CodeType, types.FrameType,
            types.TracebackType)
    seen, todo, arrays = {id(system)}, [], []
    while tb is not None:
        todo.extend(tb.tb_frame.f_locals.values())
        tb = tb.tb_next
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, stop):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            todo.append(obj.base)
        else:
            todo.extend(gc.get_referents(obj))
    return arrays


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case, expected", [
    ("stagnated", StagnationError),
    ("max_iterations", MaxIterationsError),
    ("negative_curvature", NotSPDError),
    ("non_finite", SolverError),
])
def test_held_error_keeps_no_work_vector(case, expected, threads, circle_layout, request):
    # while the caller holds the error, as the harness does while it
    # judges a stagnated iterate, CG's vectors are gone: only the iterate
    # a StagnationError carries is left of the solve
    ran_on = request.getfixturevalue("split") if threads == 2 else None
    n = _HELD_N
    nan_rhs = np.ones(n)
    nan_rhs[n // 3] = np.nan
    odd_rhs = np.zeros(n)
    odd_rhs[::2] = 1.0
    system, max_iter = {
        # the level-3 plus/1e9 system, whose iterate the harness accepts
        "stagnated": (build_system(circle_layout(3, "plus"),
                                   example_circle(1.0, 1e9, inclusion_side="plus")[1]), None),
        "max_iterations": (ArraySystem(_tridiagonal(n), np.ones(n)), 3),
        # n / 2 copies of a block with eigenvalues 3 and -1
        "negative_curvature": (ArraySystem(sp.kron(sp.eye(n // 2), [[1.0, 2.0], [2.0, 1.0]]),
                                           odd_rhs), None),
        "non_finite": (ArraySystem(_tridiagonal(n), nan_rhs), None),
    }[case]
    err, held = _held_error(system, max_iter)
    assert type(err) is expected
    assert ran_on is None or (ran_on and threading.main_thread() not in ran_on)
    x = getattr(err, "x", None)
    kept = [] if x is None else [x]
    assert held <= sum(v.nbytes for v in kept) + _HELD_SLACK
    long = [v for v in _arrays_held_by(err.__traceback__, system) if v.size == system.n]
    assert {id(v) for v in long} <= {id(v) for v in kept + [system.rhs]}


def test_cg_matches_direct_solve(circle_layout):
    layout = circle_layout(2)
    _, spec = example_circle(1.0, 1e4)
    system = build_system(layout, spec)
    x_cg, stats = solve(system)
    x_ref = spla.spsolve(system.matrix.tocsc(), system.rhs)
    assert np.abs(x_cg - x_ref).max() <= 1e-8
    assert stats.relative_residual <= 1e-12
    assert _relative_residual(system, x_cg) <= 1e-12


def test_not_spd_nonpositive_diagonal():
    with pytest.raises(NotSPDError, match="gamma"):
        solve(ArraySystem(np.diag([1.0, -1.0]), [1.0, 1.0]))


def test_not_spd_negative_curvature():
    # indefinite with positive diagonal: eigenvalues 3 and -1
    with pytest.raises(NotSPDError, match="curvature"):
        solve(ArraySystem([[1.0, 2.0], [2.0, 1.0]], [1.0, 0.0]))


def test_max_iterations_carries_stats():
    # 1d Laplacian needs ~n iterations; cap far below that
    n = 50
    with pytest.raises(MaxIterationsError) as err:
        solve(ArraySystem(_laplacian_1d(n), np.ones(n)), max_iter=3)
    assert err.value.stats.iterations == 3
    assert err.value.stats.relative_residual > 0.0


def test_stagnation_on_extreme_contrast():
    # reversed inclusion at contrast 1e9: the attainable true residual
    # floors orders of magnitude above tol, which must be reported
    # rather than burning the full iteration budget
    system = _extreme_contrast_system()
    with pytest.raises(StagnationError) as err:
        solve(system)
    stats = err.value.stats
    assert stats.relative_residual > 1e-12      # genuinely above tol
    assert stats.relative_residual < 1e-3       # but within the rounding floor
    assert err.value.x.shape == (system.n,)
    # the returned iterate is still the best available solution
    assert _relative_residual(system, err.value.x) == pytest.approx(
        stats.relative_residual, rel=1e-6)


def test_backward_error_of_converged_and_stagnated_iterates(circle_layout):
    layout = circle_layout(2)
    _, spec = example_circle(1.0, 1e4)
    converged = build_system(layout, spec)
    x, stats = solve(converged)
    assert stats.backward_error == pytest.approx(_backward_error(converged, x), rel=1e-6)
    assert 0.0 < stats.backward_error < 1e-14

    stagnated = _extreme_contrast_system()
    with pytest.raises(StagnationError) as err:
        solve(stagnated)
    stats = err.value.stats
    assert stats.backward_error == pytest.approx(
        _backward_error(stagnated, err.value.x), rel=1e-6)
    # scale-free: far below the ||b||-relative residual at this contrast
    assert stats.backward_error < 1e-6 * stats.relative_residual


def test_determinism(circle_layout):
    layout = circle_layout(1)
    _, spec = example_circle(1.0, 1e4)
    system = build_system(layout, spec)
    x1, s1 = solve(system)
    x2, s2 = solve(system)
    assert np.array_equal(x1, x2)
    assert s1 == s2


def test_stats_is_frozen():
    stats = SolveStats(3, 1e-13, "cg_jacobi", 1e-16)
    with pytest.raises(Exception):
        stats.iterations = 4
