"""Tests of the benchmark's tracer, checks and workload inputs.

    python3 -m pytest perfbench/tests
"""
import itertools
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

# entry points are called through their modules, so the wrappers are seen
from cutnitsche import diagnostics, harness, solver  # noqa: E402
from cutnitsche.harness import RunConfig  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, SolveRecord, Tracer, backward_error  # noqa: E402

SMALL_DIAGNOSTICS = dict(patch_levels=(1, 2), coercivity_levels=(1,),
                         interpolation_levels=(1, 2), extension_levels=(2,))


def _small_outputs():
    diag = diagnostics.run_diagnostics(RunConfig(example="1"), **SMALL_DIAGNOSTICS)
    table = harness.run_convergence(RunConfig(example="1", inclusion_side="plus"), levels=(1, 2, 3))
    field = harness.run_solve(RunConfig(example="2", level=2)).field.to_global()
    return diag, table.to_csv(), field


def _names(tracer):
    return [s.name for s in tracer.spans]


def test_span_closes_when_call_raises():
    system = harness.run_solve(RunConfig(example="1", level=2, rho_plus=1e9)).system
    with Tracer(spans=True) as tracer:
        with pytest.raises(solver.MaxIterationsError):
            harness.solve(system, max_iter=1)          # bound by name in harness
        with pytest.raises(ValueError):
            harness.run_solve(RunConfig(example="1"), level=0)  # build_mesh refuses level 0
    solve_span, outer, inner = [s for s in tracer.spans if s.name != "perfbench.check"]
    assert solve_span.name == "solver.solve" and solve_span.error == "MaxIterationsError"
    assert (outer.name, inner.name) == ("harness.run_solve", "mesh.build_mesh")
    assert inner.parent == outer.id and outer.error == inner.error == "ValueError"
    assert all(np.isfinite(s.end) and s.end >= s.start for s in tracer.spans)
    assert tracer.solves[0].raised == "MaxIterationsError"
    assert tracer.solves[0].backward_error is None   # no iterate to check
    assert not tracer._stack


def test_every_binding_is_wrapped_and_restored():
    originals = {}
    for layer, names in LAYERS.items():
        for name in names:
            originals[name] = getattr(sys.modules[f"cutnitsche.{layer}"], name)
    modules = [m for n, m in sys.modules.items() if n.startswith("cutnitsche")]

    def bindings():
        return [(m.__name__, attr) for m in modules for attr, v in vars(m).items()
                if any(v is fn for fn in originals.values())]

    before = bindings()
    assert ("cutnitsche.harness", "build_mesh") in before
    assert ("cutnitsche.diagnostics", "classify") in before
    with Tracer(spans=True) as tracer:
        assert bindings() == []
        diagnostics.run_diagnostics(RunConfig(example="1"), **SMALL_DIAGNOSTICS)
        harness.run_convergence(RunConfig(example="1"), levels=(1, 2))
    assert bindings() == before
    names = _names(tracer)
    # diagnostics binds build_mesh/classify/build_spaces by name (2 + 1 + 2 + 1
    # calls); harness binds them too (2 calls)
    for name in ("mesh.build_mesh", "cutcell.classify", "space.build_spaces"):
        assert names.count(name) == 8
    # _coercivity_block imports build_system and assemble_vnorm_gram locally
    parents = {s.id: s.name for s in tracer.spans}
    local = [parents.get(s.parent) for s in tracer.spans
             if s.name in ("assembly.build_system", "assembly.assemble_vnorm_gram")]
    assert local.count("diagnostics.run_diagnostics") == 2


def test_traced_outputs_are_bit_identical_and_self_times_nest():
    plain = _small_outputs()
    ticks = itertools.count()
    with Tracer(spans=True, clock=lambda: float(next(ticks))) as tracer:
        with tracer.operation("op"):
            traced = _small_outputs()
    assert plain[0] == traced[0] and plain[1] == traced[1]
    assert np.array_equal(plain[2], traced[2])

    by_id = {s.id: s for s in tracer.spans}
    selfs = tracer.self_times()
    assert all(v >= 0 for v in selfs.values())
    for s in tracer.spans:
        assert s.op == "op"
        if s.parent is not None:
            p = by_id[s.parent]
            assert p.start < s.start <= s.end < p.end
    roots = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    assert sum(selfs.values()) == roots


def test_log_records_give_counts():
    with Tracer() as tracer:
        flower = harness.run_solve(RunConfig(example="2", level=2))
        plus = [harness.run_solve(RunConfig(example="1", level=lv, inclusion_side="plus"))
                for lv in (1, 2, 3)]
    assert tracer.counts["cutcell.ambiguous_elements"] == flower.topo.ambiguous_elements.size > 0
    floors = sum(r.stats.method.endswith("+floor") for r in plus)
    assert tracer.counts["solver.floor_accepts"] == floors > 0
    # the accepted iterate of a stagnated solve is still checked
    stagnated = [s for s in tracer.solves if s.raised == "StagnationError"]
    assert len(stagnated) == floors
    assert all(s.backward_error < workloads.BACKWARD_ERROR_LIMIT for s in stagnated)
    assert tracer.counts["cutcell.cut_elements"] == flower.topo.n_cut + sum(r.topo.n_cut for r in plus)


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 12345])
def test_warmup_geometry_is_disjoint_from_every_workload(seed):
    with Tracer() as tracer:
        workloads.warm_up()
    warm = set(tracer.keys)
    assert warm
    for make in workloads.WORKLOADS.values():
        assert warm.isdisjoint(make(seed).geometry_keys)


def test_declared_geometry_matches_the_diagnostics_run():
    wl = workloads.diagnostics(0)
    with Tracer() as tracer:
        wl.operations[0].run()
    assert set(tracer.keys) == wl.geometry_keys
    assert len(tracer.keys) == 16


def test_radius_band():
    assert workloads.circle_radius(0) == 1.0 / 3.0
    radii = [workloads.circle_radius(s) for s in range(1, 200)]
    assert all(abs(r * 3.0 - 1.0) <= workloads.RADIUS_BAND for r in radii)
    assert workloads.circle_radius(5) == workloads.circle_radius(5)


def test_compare_csv():
    ref = "level,e0,residual\n3,1.234567e-02,1.0e-13\n4,2.000000e-15,2.0e-13\n"
    assert workloads.compare_csv(ref, ref) == []
    # round-off values need only stay at round-off
    assert workloads.compare_csv(ref, ref.replace("2.000000e-15", "7.1e-14")) == []
    # one unit in the last printed digit passes, two digits off does not
    assert workloads.compare_csv(ref, ref.replace("1.234567e-02", "1.234568e-02")) == []
    assert workloads.compare_csv(ref, ref.replace("1.234567e-02", "1.234587e-02"))
    assert workloads.compare_csv(ref, ref.replace("1.234567e-02", ""))
    assert workloads.compare_csv(ref, ref.replace("1.0e-13", "5.0"), ("residual",)) == []
    assert workloads.compare_csv(ref, ref + "5,1,1\n")


def test_checks_flag_inaccurate_solves_and_a_contrast_dependent_flux_error():
    wl = workloads.tables(1)      # seed != 0: no reference comparison
    sweep = next(op for op in wl.operations if op.kind == "contrast")
    table = sweep.reference("tables")
    good = SolveRecord(op=sweep.name, backward_error=1e-16, iterations=10, raised=None)
    no_iterate = SolveRecord(op=sweep.name, backward_error=None, iterations=0,
                             raised="MaxIterationsError")
    assert wl.check(sweep, table, [good, no_iterate]) == []
    bad = SolveRecord(op=sweep.name, backward_error=1e-9, iterations=10, raised=None)
    assert wl.check(sweep, table, [good, bad])
    rows = table.splitlines()
    cells = rows[-1].split(",")
    cells[3] = f"{float(cells[3]) * 1.5:.6e}"   # eflux of the highest contrast
    assert wl.check(sweep, "\n".join(rows[:-1] + [",".join(cells)]) + "\n", [good])


def test_backward_error():
    import scipy.sparse
    a = scipy.sparse.diags([4.0, 5.0, 6.0]).tocsr()
    x = np.array([1.0, -2.0, 0.5])
    b = a @ x
    assert backward_error(a, b, x) == 0.0
    assert backward_error(a, b, x + 1e-3) > 1e-5


def test_sampler_removes_its_own_time_and_restores_the_signal():
    import signal
    import time
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler(interval=0.05) as sampler:
        t0 = time.perf_counter()
        while len(sampler.samples) < 3 and time.perf_counter() - t0 < 30.0:
            sum(range(1000))
        elapsed = time.perf_counter() - t0
    assert len(sampler.samples) >= 3
    assert sum(sampler.samples) <= sampler.spent < elapsed
    assert 0.0 < sampler.speed() < 100.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    # the traced pass has no samples: rescaling leaves it as measured
    assert calibrate.Sampler().speed() == 1.0


def test_speed_is_nominal_over_reference_time():
    ticks = itertools.count()
    # every kernel run takes one tick
    assert calibrate.speed(runs=4, clock=lambda: float(next(ticks))) == calibrate.NOMINAL_S
