"""The run workspace and the in-place sfp kernels.

``run`` writes its iterates into a workspace it allocates once per run, and
the sfp operator and metric form their intermediates in place. These tests
pin what that must not change: the caller's arrays are never written, the
public steps and the operator return fresh arrays, concurrent runs on one
spec give the serial traces, and a wide sfp iteration stops faulting in
fresh pages. The vectors the package creates start on a 64-byte boundary,
and no result depends on where a vector starts.
"""

import os
import platform
import struct
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fpiter
from fpiter.algorithms import ALGORITHMS, mann_step, mimha_step, mimva_step, run
from fpiter.experiments import build_cfp, build_sfp
from fpiter.operators import Operator, sfp_operator
from fpiter.space import EuclideanSpace, InnerProductSpace, PeriodicGridSpace, _aligned_empty

SFP_ENGINES = ("mmha", "mimha", "mmva", "mimva")


def spec_for(space_kind):
    return build_sfp(256) if space_kind == "grid" else build_cfp(dim=5, num_balls=5)


@pytest.mark.parametrize("space_kind", ["grid", "euclidean"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_never_writes_into_its_inputs(algorithm, space_kind):
    spec = spec_for(space_kind)
    rng = np.random.default_rng(3)
    size = spec.space.size
    x_init = rng.uniform(0.0, 2.0, size)
    x_init_prev = x_init + rng.normal(0.0, 0.1, size)
    anchor = rng.uniform(-1.0, 1.0, size)
    inputs = (x_init, x_init_prev, anchor)
    before = [a.tobytes() for a in inputs]
    config = replace(
        spec.defaults,
        max_iterations=25,
        tolerance=1e-300,
        schedules=spec.schedules_for(algorithm),
    )
    run(algorithm, spec.operator, config, x_init, x_init_prev, anchor)
    assert [a.tobytes() for a in inputs] == before


def test_step_results_are_fresh_arrays():
    spec = build_sfp(256)
    space, T = spec.space, spec.operator
    contraction = lambda p: 0.9 * p  # noqa: E731
    rng = np.random.default_rng(5)

    def steps(x, x_prev, u):
        # 0 lies inside both sfp sets, where P_Q and P_C return their
        # argument; the last two steps take the degenerate parameters
        # psi = 1, delta = nu = 0 (y = w = x)
        origin = space.zeros()
        return {
            "sfp_operator": (sfp_operator(space, x), (x,)),
            "sfp_operator inside": (sfp_operator(space, origin), (origin,)),
            "mann_step": (mann_step(space, T, x, 0.5), (x,)),
            "mimha_step": (mimha_step(space, T, x, x_prev, u, 0.3, 0.5, 0.2), (x, x_prev, u)),
            "mimva_step": (
                mimva_step(space, T, x, x_prev, contraction, 0.3, 0.5, 0.2),
                (x, x_prev),
            ),
            "mimha_step degenerate": (
                mimha_step(space, T, x, x_prev, u, 0.0, 1.0, 0.0),
                (x, x_prev, u),
            ),
            "mimva_step degenerate": (
                mimva_step(space, T, x, x_prev, contraction, 0.0, 1.0, 0.0),
                (x, x_prev),
            ),
        }

    def point():
        return rng.uniform(0.0, 3.0, space.size)

    first = steps(point(), point(), point())
    kept = {name: result.copy() for name, (result, _) in first.items()}
    for name, (result, inputs) in first.items():
        for arg in inputs:
            assert not np.shares_memory(result, arg), name
    second = steps(point(), point(), point())
    for name, (result, _) in first.items():
        assert result.tobytes() == kept[name].tobytes(), name
        assert not np.shares_memory(result, second[name][0]), name


def test_threads_sharing_one_spec_give_the_serial_traces():
    spec = build_sfp(4096)
    jobs = [(a, x0) for a in SFP_ENGINES for _, x0 in spec.initial_cases]
    serial = [run(a, spec.operator, spec.defaults, x0) for a, x0 in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    pool = ThreadPoolExecutor(max_workers=4)
    try:
        futures = [pool.submit(run, a, spec.operator, spec.defaults, x0) for a, x0 in jobs]
        threaded = [f.result(timeout=120) for f in futures]
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        sys.setswitchinterval(interval)
    for (algorithm, _), one, other in zip(jobs, serial, threaded):
        assert other.errors == one.errors, algorithm
        assert other.deltas == one.deltas, algorithm
        assert other.terminal_reason is one.terminal_reason, algorithm


FAULT_SCRIPT = """
import resource
import sys
from dataclasses import replace

from fpiter.algorithms import run
from fpiter.experiments import build_sfp

algorithm = sys.argv[1]
spec = build_sfp(32768)
x0 = spec.initial_cases[0][1]
metric = spec.defaults.error_metric


def minor_faults(cap):
    # mmva and mimva reach E = 0, which meets any positive tolerance; the
    # shifted metric keeps every engine iterating to the cap
    config = replace(
        spec.defaults,
        tolerance=1e-300,
        max_iterations=cap,
        error_metric=lambda x: metric(x) + 1.0,
    )
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trace = run(algorithm, spec.operator, config, x0)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert trace.iterations == cap
    return after - before


# the difference of two runs cancels what each run pays once
print((minor_faults(140) - minor_faults(40)) / 100)
"""


@pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="counts the page faults of glibc's allocator on Linux",
)
@pytest.mark.parametrize("algorithm", ("cq",) + SFP_ENGINES)
def test_wide_sfp_iterations_do_not_fault_in_fresh_pages(algorithm):
    # glibc returns freed 256 KiB blocks to the kernel and faults them in
    # again on reuse; an iteration that allocated a dozen such temporaries
    # took about 65 minor faults. The count is taken in a fresh interpreter,
    # as the CLI runs: the test runner's own heap can hide the churn.
    package_root = Path(fpiter.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    result = subprocess.run(
        [sys.executable, "-c", FAULT_SCRIPT, algorithm],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert float(result.stdout.split()[-1]) <= 8


def test_zero_inertia_forms_no_difference(monkeypatch):
    # "zero" delta mode extrapolates by nothing, so the inertial engines
    # neither form x_n - x_{n-1} nor take its norm
    spec = build_sfp(256)
    config = replace(spec.defaults, schedules=replace(spec.defaults.schedules, delta_mode="zero"))

    def no_norm(x):
        raise AssertionError("inertia norm taken in zero mode")

    monkeypatch.setattr(spec.space, "_norm", no_norm)
    for algorithm in ("inertial-mann", "mimha", "mimva"):
        trace = run(algorithm, spec.operator, config, spec.initial_cases[0][1])
        assert set(trace.deltas) == {0.0}


def offset(a):
    return a.ctypes.data % 64


def aligned_copy(x):
    copy = _aligned_empty(x.size)
    copy[:] = x
    return copy


def off_boundary(x, doubles=1):
    """A copy of ``x`` that starts ``doubles`` float64s past a 64-byte boundary."""
    view = _aligned_empty(x.size + doubles)[doubles:]
    view[:] = x
    return view


def test_vectors_the_package_creates_start_on_a_cache_line():
    spec = build_sfp(1001)
    space = spec.space
    point = space.from_function(np.cos)
    weighted = InnerProductSpace(7, np.arange(1.0, 8.0))
    with ThreadPoolExecutor(max_workers=1) as pool:
        other_thread = pool.submit(space._scratch).result(timeout=60)
    vectors = {
        "grid weights": space.weights,
        "euclidean weights": EuclideanSpace(7).weights,
        "sin_nodes": space.sin_nodes,
        "scratch 0": space._scratch()[0],
        "scratch 1": space._scratch()[1],
        "other thread's scratch 0": other_thread[0],
        "other thread's scratch 1": other_thread[1],
        "weighted space's scratch 0": weighted._scratch()[0],
        "weighted space's scratch 1": weighted._scratch()[1],
        "grid zeros": space.zeros(),
        "euclidean zeros": EuclideanSpace(7).zeros(),
        "from_function": point,
        "sfp_operator": sfp_operator(space, point),
        "sfp_operator of a misaligned point": sfp_operator(space, off_boundary(point)),
    }
    assert {name: offset(v) for name, v in vectors.items()} == dict.fromkeys(vectors, 0)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_hands_aligned_iterates_to_every_callback(algorithm):
    spec = build_sfp(1001)
    seen = []

    def recorded(name, f):
        def call(p):
            seen.append((name, offset(p)))
            return f(p)

        return call

    T = Operator(spec.space, recorded("T", spec.operator), name="recorded")
    config = replace(
        spec.defaults,
        max_iterations=30,
        error_metric=recorded("metric", spec.defaults.error_metric),
        schedules=spec.schedules_for(algorithm),
    )
    contraction = recorded("contraction", lambda p: 0.9 * p)
    for _, x0 in spec.initial_cases:
        run(algorithm, T, config, x0, contraction=contraction)
    assert {name for name, _ in seen} >= {"T", "metric"}
    assert [entry for entry in seen if entry[1] != 0] == []


@pytest.mark.parametrize(
    "algorithm, vectors",
    # three iterate slots and a product scratch, plus the extrapolated point
    # (inertial engines; cq's y), cq's second normal, the default anchor or
    # the default contraction's result
    [("mann", 4), ("inertial-mann", 5), ("cq", 6), ("mmha", 5), ("mimha", 6), ("mmva", 5), ("mimva", 6)],
)
def test_run_allocates_only_what_the_engine_reads(algorithm, vectors, monkeypatch):
    spec = build_sfp(256)
    made = []

    def counted(size):
        made.append(size)
        return _aligned_empty(size)

    monkeypatch.setattr(fpiter.algorithms, "_aligned_empty", counted)
    config = replace(spec.defaults, max_iterations=3, schedules=spec.schedules_for(algorithm))
    run(algorithm, spec.operator, config, spec.initial_cases[0][1])
    assert made == [spec.space.size] * vectors


def trace_bits(trace):
    return (
        np.array(trace.errors).tobytes(),
        np.array(trace.deltas).tobytes(),
        trace.terminal_reason,
    )


@pytest.mark.parametrize("algorithm", ("cq",) + SFP_ENGINES)
def test_traces_do_not_depend_on_where_the_start_point_lies(algorithm):
    spec = build_sfp(4099)
    for case, x0 in spec.initial_cases:
        aligned = run(algorithm, spec.operator, spec.defaults, aligned_copy(x0))
        shifted = run(algorithm, spec.operator, spec.defaults, off_boundary(x0))
        assert trace_bits(shifted) == trace_bits(aligned), case


def test_reductions_do_not_depend_on_alignment():
    # the traces keep their bits only if np.dot (BLAS ddot) sums in the same
    # order wherever its operands start, i.e. peels no loop for alignment
    def bits(value):
        return struct.pack("<d", value)

    rng = np.random.default_rng(23)
    for size in range(1, 4100):
        spaces = [EuclideanSpace(size)] + ([PeriodicGridSpace(size)] if size > 1 else [])
        x, y = rng.normal(size=size), rng.normal(size=size)
        xa, ya = aligned_copy(x), aligned_copy(y)
        shift = size % 7 + 1
        xm, ym = off_boundary(x, shift), off_boundary(y, 8 - shift)
        for space in spaces:
            assert bits(space._inner(xm, ym)) == bits(space._inner(xa, ya)), (space, size)
            assert bits(space._norm(xm)) == bits(space._norm(xa)), (space, size)
        if size > 1:
            grid = spaces[1]
            assert bits(grid._integrate(xm)) == bits(grid._integrate(xa)), size
