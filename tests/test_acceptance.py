"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 1 checks convergence to the Fermat-Weber point against
the Theta(1/n) envelope that the anchored/viscosity schedules impose
(``N E_N -> ||(I - J)^-1 (v - x*)||``, see "Notes" in the repository root
README); a fixed 1e-4 error within 1000 iterations is out of their reach.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fpiter.algorithms import RunConfig, TerminalReason, mann_step, mimha_step, mimva_step, run
from fpiter.experiments import build_cfp, build_sfp, build_weber
from fpiter.operators import (
    Ball,
    HalfSpace,
    Operator,
    cfp_operator,
    project_ball,
    project_halfspace,
    project_halfspace_pair,
    project_integral_halfspace,
    project_l2_ball,
    sfp_operator,
    weiszfeld_map,
)
from fpiter.schedules import Schedules
from fpiter.space import EuclideanSpace, PeriodicGridSpace
from reference_spaces import brute_force_pair_projection

SFP_ALGORITHMS = ("mmha", "mimha", "mmva", "mimva")


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def sfp_results():
    """All 16 SFP runs (4 algorithms x 4 cases) plus their wall time."""
    spec = build_sfp(grid_points=1024)
    traces = {}
    start = time.perf_counter()
    for algorithm in SFP_ALGORITHMS:
        for case, x0 in spec.initial_cases:
            traces[(algorithm, case)] = run(algorithm, spec.operator, spec.defaults, x0)
    elapsed = time.perf_counter() - start
    return {"spec": spec, "traces": traces, "elapsed": elapsed}


def weiszfeld_jacobian(anchors, point):
    """Derivative of the Weiszfeld map at a point it fixes.

    With ``c_i = w_i / d_i`` and unit directions ``u_i = (a_i - p) / d_i``,
    differentiating ``T(x) = sum c_i a_i / sum c_i`` where
    ``sum c_i (a_i - p) = 0`` gives ``J = sum c_i u_i u_i^T / sum c_i``.
    """
    diffs = anchors.anchors - point
    dists = np.linalg.norm(diffs, axis=1)
    units = diffs / dists[:, None]
    coef = anchors.weights / dists
    return (units.T * coef) @ units / coef.sum()


def test_criterion_1_weber_convergence():
    """mimva and mimha converge to (5, 5, 5) at the rate their schedules allow.

    Near ``x*`` one step maps the error ``e`` to
    ``(1 - nu)(psi e + (1 - psi) J e) + nu (v - x*)``, up to ``O(nu e)`` and
    the inertia term, which the budget keeps below ``xi_n = O(n^-2)``. Here
    ``v = f(x*) = rho x*`` for mimva and ``v = u = anchor_scale x0`` for
    mimha. With ``nu_n = 1/(n+1)`` and ``psi_n -> 0`` the error settles to
    ``e_N = (I - J)^-1 (v - x*) / N`` with a relative ``O(1/N)``
    correction. At the cube centre the eight unit directions give
    ``sum u_i u_i^T = (8/3) I``, so ``J = I/3`` and
    ``N E_N -> 1.5 ||v - x*||``, while ``E_500 / E_1000 -> 2``. A run that
    stalls, drifts to another point or loses the 1/n decay misses both.
    """
    spec = build_weber()
    target = spec.details["target"]
    jac = weiszfeld_jacobian(spec.details["anchors"], target)
    rng = np.random.default_rng(2025)
    initials = [rng.uniform(0.0, 10.0, 3) for _ in range(20)]
    config = replace(spec.defaults, max_iterations=1000, tolerance=1e-4)
    start = time.perf_counter()
    rates = {}
    halvings = {}
    for algorithm in ("mimva", "mimha"):
        rates[algorithm] = []
        halvings[algorithm] = []
        for x0 in initials:
            trace = run(algorithm, spec.operator, config, x0)
            if algorithm == "mimva":
                v = config.contraction_rho * target
            else:
                v = config.anchor_scale * x0
            gain = np.linalg.norm(np.linalg.solve(np.eye(3) - jac, v - target))
            # a run that ended early has no E_1000: pad with NaN, which fails
            errors = trace.errors + (float("nan"),) * (1001 - len(trace.errors))
            rates[algorithm].append(1000 * errors[1000] / gain)
            halvings[algorithm].append(errors[500] / errors[1000])
    elapsed = time.perf_counter() - start
    ok = (
        all(0.99 <= r <= 1.01 for r in rates["mimva"] + rates["mimha"])
        and all(1.98 <= h <= 2.02 for h in halvings["mimva"] + halvings["mimha"])
        and elapsed < 5.0
    )
    details = [
        f"{a}: N*E_N/gain in [{min(rates[a]):.5f}, {max(rates[a]):.5f}], "
        f"E_500/E_1000 in [{min(halvings[a]):.4f}, {max(halvings[a]):.4f}]"
        for a in ("mimva", "mimha")
    ]
    report(
        1,
        "weber: E_N = ||(I - J)^-1 (v - x*)|| / N at N = 1000",
        ok,
        "; ".join(details) + f"; runtime {elapsed:.2f}s",
    )


def test_criterion_2_sfp_termination(sfp_results):
    traces = sfp_results["traces"]
    all_met = all(
        t.terminal_reason is TerminalReason.TOLERANCE_MET for t in traces.values()
    )
    elapsed = sfp_results["elapsed"]
    ok = all_met and elapsed < 60.0
    report(
        2,
        "sfp: all 16 runs end by tolerance",
        ok,
        f"runtime {elapsed:.2f}s, reasons "
        + ",".join(sorted({t.terminal_reason.value for t in traces.values()})),
    )


def test_criterion_3_sfp_ordering(sfp_results):
    traces = sfp_results["traces"]
    cases = ("t2", "exp", "pow2", "sin2")
    ordering_ok = True
    details = []
    for case in cases:
        counts = {a: traces[(a, case)].iterations for a in SFP_ALGORITHMS}
        ordering_ok = ordering_ok and counts["mimva"] <= counts["mmva"]
        ordering_ok = ordering_ok and counts["mimha"] <= counts["mmha"]
        ordering_ok = ordering_ok and counts["mimva"] < counts["mmha"]
        details.append(
            f"{case}: mmha={counts['mmha']} mimha={counts['mimha']} "
            f"mmva={counts['mmva']} mimva={counts['mimva']}"
        )
    report(3, "sfp: inertial <= plain, viscosity < halpern", ordering_ok, "; ".join(details))


def test_criterion_4_cfp_decrease():
    spec = build_cfp(dim=30, num_balls=30, seed=0)
    x0 = spec.make_initials(np.random.default_rng([0, 1]), 1)[0][1]
    start = time.perf_counter()
    finals = {}
    for algorithm in ("mimva", "cq", "inertial-mann"):
        config = replace(spec.defaults, schedules=spec.schedules_for(algorithm))
        trace = run(algorithm, spec.operator, config, x0)
        finals[algorithm] = trace.final_error
    elapsed = time.perf_counter() - start
    ok = (
        finals["mimva"] < finals["cq"]
        and finals["mimva"] < finals["inertial-mann"]
        and elapsed < 30.0
    )
    report(
        4,
        "cfp: mimva final sup-norm below cq and inertial mann",
        ok,
        f"mimva={finals['mimva']:.2e} cq={finals['cq']:.2e} "
        f"imann={finals['inertial-mann']:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_5_pair_projection_oracle():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for index in range(500):
        dim = 2 + index % 4
        space = EuclideanSpace(dim)
        a1 = rng.normal(size=dim)
        a2 = rng.normal(size=dim)
        z = rng.normal(size=dim) * 2.0
        b1 = float(a1 @ z + abs(rng.normal() * 0.3))
        b2 = float(a2 @ z + abs(rng.normal() * 0.3))
        x = rng.normal(size=dim) * 3.0
        mine = project_halfspace_pair(space, HalfSpace(a1, b1), HalfSpace(a2, b2), x)
        oracle = brute_force_pair_projection(a1, b1, a2, b2, x)
        worst = max(worst, float(np.linalg.norm(mine - oracle)))
    report(
        5,
        "pair projection matches brute-force oracle on 500 instances",
        worst <= 1e-8,
        f"max deviation {worst:.2e}",
    )


def _property_operators():
    """(name, apply, sampler) for every map with guaranteed nonexpansiveness."""
    rng_holder = {}

    def sampler_for(seed, make):
        def sample():
            rng = rng_holder.setdefault(seed, np.random.default_rng(seed))
            return make(rng)

        return sample

    e5 = EuclideanSpace(5)
    grid = PeriodicGridSpace(512)
    halfspace = HalfSpace(np.array([1.0, -2.0, 0.5, 0.0, 1.0]), 0.7)
    ball = Ball(np.array([1.0, 0.0, -1.0, 2.0, 0.0]), 1.5)
    pair = (
        HalfSpace(np.array([1.0, 0.0, 0.0, 0.0, 0.0]), 0.0),
        HalfSpace(np.array([0.0, 1.0, 0.0, 0.0, 0.0]), 0.0),
    )
    cfp_spec = build_cfp(dim=30, num_balls=30, seed=1)
    balls = [Ball(c, 1.0) for c in cfp_spec.details["centers"]]
    e30 = EuclideanSpace(30)

    def grid_sample(rng):
        return rng.normal(size=grid.size) * 2.0 + rng.normal() * 3.0

    return [
        ("halfspace", e5, lambda x: project_halfspace(e5, halfspace, x),
         sampler_for(101, lambda rng: rng.normal(size=5) * 3)),
        ("ball", e5, lambda x: project_ball(e5, ball, x),
         sampler_for(102, lambda rng: rng.normal(size=5) * 3)),
        ("halfspace-pair", e5, lambda x: project_halfspace_pair(e5, *pair, x),
         sampler_for(103, lambda rng: rng.normal(size=5) * 3)),
        ("integral-halfspace-damped", grid,
         lambda x: project_integral_halfspace(grid, x, mode="damped"),
         sampler_for(104, grid_sample)),
        ("integral-halfspace-exact", grid,
         lambda x: project_integral_halfspace(grid, x, mode="exact"),
         sampler_for(105, grid_sample)),
        ("sin-ball", grid, lambda x: project_l2_ball(grid, x),
         sampler_for(106, grid_sample)),
        ("sfp-sweep", grid, lambda x: sfp_operator(grid, x, lam=0.25),
         sampler_for(107, grid_sample)),
        ("cfp-sweep", e30, lambda x: cfp_operator(e30, balls, x),
         sampler_for(108, lambda rng: rng.uniform(-2.0, 10.0, 30))),
        ("identity", e5, lambda x: e5.check(x),
         sampler_for(109, lambda rng: rng.normal(size=5) * 3)),
    ]


def test_criterion_6_property_suites():
    failures = []

    # nonexpansiveness, 1000 pairs per operator (Weiszfeld sits outside this
    # family: it expands near the anchors, see tests/test_operators.py)
    for name, space, apply, sample in _property_operators():
        worst = 0.0
        for _ in range(1000):
            x, y = sample(), sample()
            worst = max(
                worst, space.norm(apply(x) - apply(y)) - space.norm(x - y)
            )
        if worst > 1e-10:
            failures.append(f"nonexpansive:{name}={worst:.2e}")

    # idempotence of the true metric projections, 1000 samples each
    projections = [
        entry for entry in _property_operators()
        if entry[0] in ("halfspace", "ball", "halfspace-pair",
                        "integral-halfspace-exact", "sin-ball")
    ]
    for name, space, apply, sample in projections:
        worst = 0.0
        for _ in range(1000):
            px = apply(sample())
            worst = max(worst, space.norm(apply(px) - px))
        if worst > 1e-10:
            failures.append(f"idempotent:{name}={worst:.2e}")

    # firm nonexpansiveness of single-set projections
    singles = [
        entry for entry in _property_operators()
        if entry[0] in ("halfspace", "ball", "integral-halfspace-exact",
                        "integral-halfspace-damped", "sin-ball")
    ]
    for name, space, apply, sample in singles:
        worst = 0.0
        for _ in range(1000):
            x, y = sample(), sample()
            px, py = apply(x), apply(y)
            gap = space.norm(px - py) ** 2 - space.inner(px - py, x - y)
            worst = max(worst, gap)
        if worst > 1e-10:
            failures.append(f"firmly-nonexpansive:{name}={worst:.2e}")

    # feasibility of projection outputs
    feasibility = {
        "halfspace": lambda space, apply, x: space.inner(
            np.array([1.0, -2.0, 0.5, 0.0, 1.0]), apply(x)
        ) <= 0.7 + 1e-8,
        "integral-halfspace-exact": lambda space, apply, x: space.integrate(apply(x)) <= 1 + 1e-8,
        "sin-ball": lambda space, apply, x: space.inner(
            apply(x) - np.sin(space.nodes), apply(x) - np.sin(space.nodes)
        ) <= 16 + 1e-8,
    }
    for name, space, apply, sample in _property_operators():
        if name not in feasibility:
            continue
        for _ in range(200):
            if not feasibility[name](space, apply, sample()):
                failures.append(f"feasibility:{name}")
                break

    # bitwise reduction identities at zero inertia
    rng = np.random.default_rng(7)
    e3 = EuclideanSpace(3)
    T = Operator(e3, lambda x, out: project_ball(e3, Ball(np.zeros(3), 1.0), x))
    for _ in range(200):
        x = rng.normal(size=3) * 2
        x_prev = rng.normal(size=3) * 2
        u = rng.normal(size=3)
        psi, nu = rng.uniform(0, 1, size=2)
        f = lambda p: 0.9 * p  # noqa: E731
        base = mann_step(e3, T, x, psi)
        if not np.array_equal(mimha_step(e3, T, x, x_prev, u, 0.0, psi, nu),
                              e3.combine(nu, u, base)):
            failures.append("reduction:mimha")
            break
        if not np.array_equal(mimva_step(e3, T, x, x_prev, f, 0.0, psi, nu),
                              e3.combine(nu, f(x), base)):
            failures.append("reduction:mimva")
            break

    # run-level: disabling inertia reproduces the plain variants bitwise
    config = RunConfig(error_metric=lambda x: e3.norm(x), max_iterations=25,
                       tolerance=1e-30)
    zeroed = replace(config, schedules=Schedules(delta_mode="zero"))
    x0 = np.array([3.0, -1.0, 0.5])
    for base, inertial in (("mmha", "mimha"), ("mmva", "mimva")):
        ta = run(base, T, config, x0)
        tb = run(inertial, T, zeroed, x0)
        if [r.error for r in ta.records] != [r.error for r in tb.records]:
            failures.append(f"reduction:{base}")

    # inertia budget: delta_n * ||x_n - x_{n-1}|| <= xi_n, exactly, along
    # real adaptive trajectories
    weber = build_weber()
    sched = weber.defaults.schedules
    x_prev = np.array([2.0, 8.0, 3.0])
    x = x_prev
    f = lambda p: 0.9 * p  # noqa: E731
    for n in range(400):
        diff = weber.space.norm(x - x_prev)
        delta = sched.delta(n, diff)
        if diff > 0 and delta * diff > sched.xi(n):
            failures.append(f"budget:weber:n={n}")
            break
        x_next = mimva_step(weber.space, weber.operator, x, x_prev, f, delta,
                            sched.psi(n), sched.nu(n))
        x_prev, x = x, x_next

    report(6, "property suites", not failures, "; ".join(failures) or "all held")


def test_criterion_7_fixed_point_certificates():
    failures = []
    grid = PeriodicGridSpace(1024)
    zero_fn = grid.zeros()
    if not np.array_equal(sfp_operator(grid, zero_fn), zero_fn):
        failures.append("sfp operator does not fix 0 exactly")

    cfp_spec = build_cfp(dim=30, num_balls=30, seed=0)
    e30 = cfp_spec.space
    if not np.array_equal(cfp_spec.operator(e30.zeros()), e30.zeros()):
        failures.append("cfp operator does not fix 0 exactly")

    weber = build_weber()
    center = np.array([5.0, 5.0, 5.0])
    drift = weber.space.norm(
        weiszfeld_map(weber.space, weber.details["anchors"], center) - center
    )
    if drift > 1e-12:
        failures.append(f"weiszfeld drift at optimum {drift:.2e}")

    report(7, "fixed-point certificates", not failures, "; ".join(failures) or "exact")
