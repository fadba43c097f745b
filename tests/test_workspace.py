"""The run workspace and the in-place sfp kernels.

``run`` writes its iterates into a workspace it allocates once per run and
lends the operator the vector that receives each step (the rule is stated
once, in ``fpiter.operators.Operator``); the sfp sweep writes ``T(w)`` there,
and the sfp metric forms no vector. These tests pin what that must not
change: the caller's arrays are never written, the public steps and an
operator called without an ``out`` return fresh arrays, the lent vector is
a workspace vector that is never ``w``, an operator may use it, ignore it
or return its own input with the same traces, the reused iterate slots give
the iterates of the public steps, concurrent runs on one spec give the
serial traces, and a wide sfp iteration holds only its workspace and stops
faulting in fresh pages. The vectors the package creates start on a
64-byte boundary, and no result depends on where a vector starts. A run
reduces through ``ndarray.dot`` and never calls ``np.dot``, and cq builds
no ``HalfSpace``.
"""

import os
import platform
import struct
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fpiter
from fpiter.algorithms import ALGORITHMS, RunConfig, mann_step, mimha_step, mimva_step, run
from fpiter.cli import DEFAULT_ALGORITHMS
from fpiter.experiments import build_cfp, build_sfp, build_weber
from fpiter.operators import Ball, HalfSpace, Operator, project_ball, sfp_operator
from fpiter.schedules import Schedules
from fpiter.space import EuclideanSpace, PeriodicGridSpace, _aligned_empty

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


def test_the_sfp_metric_forms_no_grid_vector():
    # ||x - sin||^2 comes from three reductions, so not even the first call
    # on a fresh spec makes a vector of grid size
    spec = build_sfp(32768)
    x = spec.initial_cases[0][1]
    tracemalloc.start()
    try:
        spec.defaults.error_metric(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes


@pytest.mark.parametrize("where", ["outside", "inside"])
def test_the_sfp_sweep_forms_no_grid_vector_besides_its_result(where):
    # the sweep writes x - sin, then its result, into the one vector it
    # returns; 0 lies inside the sin ball, the t2 start outside it
    spec = build_sfp(32768)
    x = spec.initial_cases[0][1] if where == "outside" else spec.space.zeros()
    tracemalloc.start()
    try:
        spec.operator(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * x.nbytes


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


DIGEST_SCRIPT = """
import hashlib

import numpy as np

from fpiter.algorithms import run
from fpiter.experiments import build_sfp

spec = build_sfp(4096)
x0 = spec.initial_cases[0][1]
digest = hashlib.sha256()
for algorithm in ("mmha", "mimha", "mmva", "mimva"):
    trace = run(algorithm, spec.operator, spec.defaults, x0)
    digest.update(np.array(trace.errors).tobytes())
print(digest.hexdigest())
"""


def test_traces_do_not_depend_on_the_blas_thread_count_at_4096_nodes():
    # OpenBLAS sums a dot of more than 10,000 elements on several threads,
    # in an order that depends on their count; below that every reduction
    # of a 4,096-node grid runs on one thread, so the E_n bits agree
    package_root = Path(fpiter.__file__).resolve().parents[1]
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(package_root), OPENBLAS_NUM_THREADS=threads)
        result = subprocess.run(
            [sys.executable, "-c", DIGEST_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        digests.add(result.stdout.strip())
    assert len(digests) == 1


def test_zero_inertia_forms_no_difference(monkeypatch):
    # a rule that can only give delta_n = 0 ("zero" mode, or "constant" at
    # 0) makes the inertial engines form no x_n - x_{n-1}, take no norm of
    # it and extrapolate to x_n itself: each makes exactly as many
    # np.subtract and norm calls (the operator's ball projection takes one
    # of each per step) as its non-inertial twin
    spec = build_sfp(256)
    space = spec.space
    norm, subtract = space._norm, np.subtract
    calls = {"norm": 0, "subtract": 0}

    def counted_norm(x):
        calls["norm"] += 1
        return norm(x)

    def counted_subtract(*args, **kwargs):
        calls["subtract"] += 1
        return subtract(*args, **kwargs)

    monkeypatch.setattr(space, "_norm", counted_norm)
    monkeypatch.setattr(np, "subtract", counted_subtract)

    def counted_run(algorithm, config):
        calls.update(norm=0, subtract=0)
        trace = run(algorithm, spec.operator, config, spec.initial_cases[0][1])
        return trace, dict(calls)

    for rule in ({"delta_mode": "zero"}, {"delta_mode": "constant", "delta_value": 0.0}):
        config = replace(spec.defaults, schedules=replace(spec.defaults.schedules, **rule))
        for inertial, plain in (("inertial-mann", "mann"), ("mimha", "mmha"), ("mimva", "mmva")):
            trace, inertial_calls = counted_run(inertial, config)
            assert set(trace.deltas) == {0.0}
            twin, plain_calls = counted_run(plain, config)
            assert trace.errors == twin.errors
            assert inertial_calls == plain_calls, (rule, inertial)
            assert plain_calls["norm"] > 0 and plain_calls["subtract"] > 0


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
    vectors = {
        "grid weights": space.weights,
        "euclidean weights": EuclideanSpace(7).weights,
        "sin_nodes": space.sin_nodes,
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
        # the operator also gets the out vector run lends it
        def call(p, *out):
            seen.append((name, offset(p)))
            return f(p, *out)

        return call

    T = Operator(spec.space, recorded("T", spec.operator))
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


def counted_vectors(monkeypatch, *modules):
    """The list of vectors that ``_aligned_empty`` makes in ``modules`` from now on."""
    made = []

    def counted(size):
        made.append(_aligned_empty(size))
        return made[-1]

    for module in modules:
        monkeypatch.setattr(module, "_aligned_empty", counted)
    return made


@pytest.mark.parametrize(
    "algorithm, vectors",
    # two iterate slots and a work vector (x_n - x_{n-1}, w, a product, the
    # default contraction's result; cq's y), plus the default anchor, or
    # cq's second normal and product scratch; the sweep writes T(w) into the
    # vector it is lent and allocates nothing
    [("mann", 3), ("inertial-mann", 3), ("cq", 5), ("mmha", 4), ("mimha", 4), ("mmva", 3), ("mimva", 3)],
)
def test_run_allocates_only_what_the_engine_reads(algorithm, vectors, monkeypatch):
    spec = build_sfp(256)
    made = counted_vectors(monkeypatch, fpiter.algorithms, fpiter.operators)
    config = replace(spec.defaults, max_iterations=3, schedules=spec.schedules_for(algorithm))
    trace = run(algorithm, spec.operator, config, spec.initial_cases[0][1])
    assert trace.iterations == 3
    assert [v.size for v in made] == [spec.space.size] * vectors


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_lends_the_operator_a_workspace_vector_that_is_not_w(algorithm, monkeypatch):
    spec = build_sfp(1024)
    made = counted_vectors(monkeypatch, fpiter.algorithms)
    lent = []

    def recording(w, out):
        assert out is not None and not np.shares_memory(out, w)
        assert offset(out) == 0 and out.shape == w.shape
        assert any(out is v for v in made)
        lent.append(out)
        return spec.operator(w, out)

    config = replace(spec.defaults, max_iterations=40, schedules=spec.schedules_for(algorithm))
    T = Operator(spec.space, recording)
    for _, x0 in spec.initial_cases:
        trace = run(algorithm, T, config, x0)
        assert len(lent) == trace.iterations > 0
        lent.clear()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_an_operator_may_use_or_ignore_the_vector_it_is_lent(algorithm):
    # one operator poisons out and returns a fresh T(w), the other copies
    # T(w) into out and returns it; both must give the spec operator's bits
    spec = build_sfp(1024)
    sweep = spec.operator

    def ignoring(w, out):
        out.fill(np.nan)
        return sweep(w)

    def copying(w, out):
        np.copyto(out, sweep(w))
        return out

    config = replace(spec.defaults, schedules=spec.schedules_for(algorithm))
    for case, x0 in spec.initial_cases:
        expected = trace_bits(run(algorithm, sweep, config, x0))
        for func in (ignoring, copying):
            T = Operator(spec.space, func)
            assert trace_bits(run(algorithm, T, config, x0)) == expected, (case, func.__name__)


@pytest.mark.parametrize("algorithm", ["inertial-mann", "mimha", "mimva"])
def test_an_operator_may_return_its_own_input(algorithm):
    # project_ball returns x itself for a point inside the ball; with
    # delta_n > 0 that x is w, which lives in the vector run also uses as
    # scratch for psi w, so T(w) must be scaled before psi w is formed
    space = EuclideanSpace(3)
    ball = Ball(np.zeros(3), 5.0)
    config = RunConfig(error_metric=space.norm, max_iterations=60, tolerance=1e-30)
    x0 = np.array([1.0, -2.0, 0.5])
    traces = [
        run(algorithm, Operator(space, func), config, x0, x_init_prev=np.zeros(3))
        for func in (
            lambda x, out: project_ball(space, ball, x),
            lambda x, out: project_ball(space, ball, x).copy(),
        )
    ]
    assert traces[0].iterations == 60
    assert traces[0].errors == traces[1].errors


@pytest.mark.parametrize("algorithm, bound", [("mimva", 4.5), ("mimha", 5.5)])
def test_a_wide_sfp_run_holds_few_grid_vectors_at_once(algorithm, bound):
    # the workspace (3 and 4 vectors), into which the sweep writes T(w), and
    # a vector of headroom: at 32,768 nodes the per-element passes slow down
    # once the vectors live at once outgrow a 2 MiB L2
    spec = build_sfp(32768)
    x0 = spec.initial_cases[0][1]
    config = replace(spec.defaults, max_iterations=5, tolerance=1e-300)
    tracemalloc.start()
    try:
        trace = run(algorithm, spec.operator, config, x0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.iterations == 5
    assert peak < bound * x0.nbytes


@pytest.mark.parametrize(
    "algorithm, bound",
    [("mmha", 4.5), ("mimha", 4.5), ("mmva", 3.5), ("mimva", 3.5), ("cq", 5.5)],
)
def test_a_wide_sfp_run_peaks_at_its_workspace(algorithm, bound):
    # 4, 3 and 5 workspace vectors and no grid vector more: the sweep writes
    # T(w) into the workspace vector run lends it instead of a fresh result
    spec = build_sfp(32768)
    x0 = spec.initial_cases[0][1]
    config = replace(
        spec.defaults,
        max_iterations=5,
        tolerance=1e-300,
        schedules=spec.schedules_for(algorithm),
    )
    tracemalloc.start()
    try:
        trace = run(algorithm, spec.operator, config, x0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.iterations == 5
    assert peak < bound * x0.nbytes


def reference_iterates(algorithm, spec, config, x0):
    """The iterates of ``run`` rebuilt from the public steps, each a fresh array.

    Inertia-free steps take ``x`` itself as ``w``, as ``_step`` does
    for ``delta = 0``.
    """
    space, T, sched = spec.space, spec.operator, config.schedules
    inertial = algorithm in ("inertial-mann", "mimha", "mimva")
    adaptive = sched.delta_mode == "adaptive"
    u = config.anchor_scale * x0
    rho = config.contraction_rho
    x = x_prev = x0
    iterates, deltas = [], []
    for n in range(config.max_iterations + 1):
        iterates.append(x)
        delta = 0.0
        if inertial:
            delta = sched.delta(n, space.norm(x - x_prev) if adaptive else 0.0)
        deltas.append(delta)
        if config.error_metric(x) < config.tolerance or n == config.max_iterations:
            break
        psi_n, nu_n = sched.psi(n), sched.nu(n)
        if algorithm == "mann":
            x_next = mann_step(space, T, x, psi_n)
        elif algorithm == "inertial-mann":
            w = x if delta == 0.0 else x + delta * (x - x_prev)
            x_next = mann_step(space, T, w, psi_n)
        elif algorithm in ("mmha", "mimha"):
            x_next = mimha_step(space, T, x, x_prev, u, delta, psi_n, nu_n)
        else:
            x_next = mimva_step(space, T, x, x_prev, lambda p: rho * p, delta, psi_n, nu_n)
        x_prev, x = x, x_next
    return iterates, deltas


SLOT_SUITES = {
    "sfp-adaptive": lambda: (build_sfp(1024), None, 300),
    "sfp-constant": lambda: (build_sfp(1024), Schedules(delta_mode="constant", delta_value=0.3), 300),
    "cfp": lambda: (build_cfp(), None, 200),
    "weber": lambda: (build_weber(), None, 300),
}


@pytest.mark.parametrize("suite", SLOT_SUITES)
@pytest.mark.parametrize("algorithm", [a for a in ALGORITHMS if a != "cq"])
def test_run_equals_the_public_steps_on_fresh_arrays(algorithm, suite):
    # run writes x_{n+1} over x_{n-1} and reuses one work vector for the
    # difference, w, the products and the default contraction; its iterates
    # must keep the bits of steps that share no memory
    spec, schedules, cap = SLOT_SUITES[suite]()
    rng = np.random.default_rng(11)
    starts = [x0 for _, x0 in spec.make_initials(rng, count=3)]
    config = replace(
        spec.defaults,
        max_iterations=cap,
        schedules=schedules or spec.schedules_for(algorithm),
    )
    metric = config.error_metric
    for x0 in starts:
        seen = []
        recorded = replace(config, error_metric=lambda p: seen.append(p.copy()) or metric(p))
        trace = run(algorithm, spec.operator, recorded, x0)
        iterates, deltas = reference_iterates(algorithm, spec, config, x0)
        assert [p.tobytes() for p in seen] == [p.tobytes() for p in iterates]
        assert trace.deltas == tuple(deltas)
        assert trace.errors == tuple(float(metric(p)) for p in iterates)


def trace_bits(trace):
    return (
        np.array(trace.errors).tobytes(),
        np.array(trace.deltas).tobytes(),
        trace.terminal_reason,
    )


# the cfp sweep sums its steps in a dgemv, whose order must not depend on
# where x or the difference rows start either
START_POINT_SUITES = {"sfp": lambda: build_sfp(4099), "cfp": build_cfp}


@pytest.mark.parametrize(
    "suite, algorithm",
    [("sfp", a) for a in ("cq",) + SFP_ENGINES]
    + [("cfp", a) for a in DEFAULT_ALGORITHMS["cfp"]],
)
def test_traces_do_not_depend_on_where_the_start_point_lies(suite, algorithm):
    spec = START_POINT_SUITES[suite]()
    config = replace(spec.defaults, schedules=spec.schedules_for(algorithm))
    starts = spec.make_initials(np.random.default_rng(29), count=3)
    for shift, (case, x0) in enumerate(starts, 1):
        aligned = run(algorithm, spec.operator, config, aligned_copy(x0))
        shifted = run(algorithm, spec.operator, config, off_boundary(x0, shift))
        assert trace_bits(shifted) == trace_bits(aligned), case


def test_reductions_do_not_depend_on_alignment():
    # the traces keep their bits only if the dot (BLAS ddot) sums in the same
    # order wherever its operands start, i.e. peels no loop for alignment;
    # and the method the spaces call gives np.dot's bits
    def bits(value):
        return struct.pack("<d", value)

    rng = np.random.default_rng(23)
    for size in range(1, 4100):
        spaces = [EuclideanSpace(size)] + ([PeriodicGridSpace(size)] if size > 1 else [])
        x, y = rng.normal(size=size), rng.normal(size=size)
        xa, ya = aligned_copy(x), aligned_copy(y)
        shift = size % 7 + 1
        xm, ym = off_boundary(x, shift), off_boundary(y, 8 - shift)
        euclidean = spaces[0]
        assert bits(euclidean._inner(xa, ya)) == bits(float(np.dot(xa, ya))), size
        assert bits(euclidean._inner(xm, ym)) == bits(float(np.dot(xm, ym))), size
        for space in spaces:
            assert bits(space._inner(xm, ym)) == bits(space._inner(xa, ya)), (space, size)
            assert bits(space._norm(xm)) == bits(space._norm(xa)), (space, size)
        if size > 1:
            grid = spaces[1]
            assert bits(grid._integrate(xm)) == bits(grid._integrate(xa)), size


ALL_SUITES = {
    "cfp": build_cfp,
    "weber": build_weber,
    "sfp": lambda: build_sfp(1024),
}


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_runs_call_no_np_dot_and_cq_builds_no_halfspace(suite, monkeypatch):
    # the reductions call ndarray.dot, not np.dot's Python-level dispatch
    # (the rule of fpiter.space), and cq passes its cuts as plain values
    spec = ALL_SUITES[suite]()
    x0 = spec.make_initials(np.random.default_rng(4))[0][1]
    dots, halfspaces = [], []
    dot = np.dot
    monkeypatch.setattr(np, "dot", lambda *a, **k: dots.append(1) or dot(*a, **k))
    init = HalfSpace.__init__
    monkeypatch.setattr(
        HalfSpace, "__init__", lambda self, *a, **k: halfspaces.append(1) or init(self, *a, **k)
    )
    for algorithm in ALGORITHMS:
        config = replace(spec.defaults, max_iterations=30, schedules=spec.schedules_for(algorithm))
        trace = run(algorithm, spec.operator, config, x0)
        assert trace.iterations > 0
        assert (len(dots), len(halfspaces)) == (0, 0), algorithm
