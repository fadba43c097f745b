"""fpiter benchmark: one CLI suite per workload, timed in fresh processes.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload weber-starts --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout; nothing needs
installing. Each suite runs in its own child interpreter (``child.py``)
with BLAS/OpenMP threads set to 1, writing its trace and summary CSVs to
a scratch directory under ``.bench_work/`` that is removed afterwards.
Suites repeat until their time is nearest to ``--seconds`` (and at least the
workload's minimum number of suites ran). Every run of every suite goes
through the correctness gate in ``checks.py``.

Each suite is bracketed by a reference kernel (``speed.py``) whose
times give the suite's ``scale``; every time the benchmark reports is
multiplied by it, so that it reads as at the host speed the kernel's
reference was recorded at. The raw times are printed as well.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced suites with suites whose six layers are wrapped in spans
(``spans.py``) and reports the per-layer metrics. Human-readable lines
come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".bench_work"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 11
MIN_TRACED_PAIRS = 2
DEADLINE_S = 170.0  # a run must end within 180 s whatever the program's speed

SFP_GRID = 32768
# (algorithm, case) -> iterations to tolerance, recorded at the definition of
# this benchmark; the sfp cases are fixed functions, so no seed changes them
SFP_RECORDED = {
    ("mmha", "t2"): 59, ("mmha", "exp"): 196, ("mmha", "pow2"): 48, ("mmha", "sin2"): 99,
    ("mimha", "t2"): 57, ("mimha", "exp"): 195, ("mimha", "pow2"): 44, ("mimha", "sin2"): 96,
    ("mmva", "t2"): 14, ("mmva", "exp"): 16, ("mmva", "pow2"): 13, ("mmva", "sin2"): 7,
    ("mimva", "t2"): 9, ("mimva", "exp"): 11, ("mimva", "pow2"): 9, ("mimva", "sin2"): 5,
}


@dataclass(frozen=True)
class Workload:
    experiment: str
    flags: Tuple[str, ...]  # CLI flags besides --experiment, --seed and --out
    min_suites: int  # also the number of suites in one block of the tail
    expect: checks.Expectation
    kernel: str  # the reference kernel in speed.py that does this kind of work

    def build_kwargs(self, seed: int) -> dict:
        """Builder arguments the CLI derives from its flags for this workload."""
        if self.experiment == "sfp":
            return {"grid_points": SFP_GRID}
        if self.experiment == "cfp":
            return {"seed": seed}
        return {}

    def repeat(self) -> int:
        return int(self.flags[self.flags.index("--repeat") + 1]) if "--repeat" in self.flags else 1


def _capped(algorithms, starts, iterations=1000):
    return {
        (a, f"rand{i}"): (iterations, "max_iterations") for a in algorithms for i in range(starts)
    }


WORKLOADS = {
    # 40 runs of 1000 iterations in R^3: per-call overhead dominates. The
    # tolerance is never met (Theta(1/n) error floor); mimha's floor is
    # largest, 0.0130, for a start at a corner of the box, and every mimva
    # run ends at 0.0013001.
    "weber-starts": Workload(
        "weber", ("--repeat", "20"), 1,
        checks.Expectation(_capped(("mimha", "mimva"), 20), {"mimha": 0.015, "mimva": 0.0015}),
        "narrow",
    ),
    # 4 runs of 1000 iterations in R^30 with 31 balls: the operator's loop
    # over the balls dominates. Final sup norms seen: cq 0.19-0.26,
    # inertial-mann 0.025-0.038, mmva 7e-4-8.4e-4, mimva 4e-7-5.1e-7.
    # One start per suite keeps suites short, so the reference kernel
    # around each one tracks the host speed during it. cq runs take about
    # 1.4 times as long as the other three; blocks of nine suites put the
    # tail's 11th-largest run among those three, where ten would put it on
    # the boundary between cq and the rest.
    "cfp-balls": Workload(
        "cfp", ("--repeat", "1"), 9,
        checks.Expectation(
            _capped(("cq", "inertial-mann", "mmva", "mimva"), 1),
            {"cq": 0.5, "inertial-mann": 0.1, "mmva": 3e-3, "mimva": 1e-5},
        ),
        "narrow",
    ),
    # 16 tolerance-stopped runs on wide vectors: per-element numpy work
    # dominates. Every run ends below the 1e-3 stopping tolerance. A suite's
    # longest runs come in pairs (mmha and mimha on exp, then on sin2, ...);
    # blocks of eight suites put the tail's 11th-largest run among the
    # sixteen exp runs, which take about the same time. With three it fell
    # between the sin2 runs of mmha and of mimha, 10% apart, and flipped.
    "sfp-wide": Workload(
        "sfp", ("--grid", str(SFP_GRID)), 8,
        checks.Expectation(
            {key: (n, "tolerance_met") for key, n in SFP_RECORDED.items()},
            dict.fromkeys(("mmha", "mimha", "mmva", "mimva"), 1e-3),
        ),
        "wide",
    ),
}


@dataclass
class Suite:
    traced: bool
    suite_s: float = float("nan")  # raw wall time
    scale: float = float("nan")  # multiplies raw times to reference speed
    peak_rss_kib: int = 0
    output: Optional[checks.SuiteOutput] = None
    failures: Dict[Tuple[str, str], str] = field(default_factory=dict)
    problem: str = ""  # why the suite as a whole did not complete
    spans: Optional[list] = None


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def call_child(job: dict, timeout: float) -> Tuple[Optional[dict], str]:
    """Run one child job; return its JSON result (None on failure) and stderr."""
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(job)],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr.strip() or f"child exited with {proc.returncode}"
    return json.loads(lines[-1]), proc.stderr


def measure_setup(wl: Workload, seed: int, timeout: float) -> Tuple[float, float]:
    """Seconds of one set-up, and of the ``startup`` kernel just before it."""
    job = {"mode": "setup", "experiment": wl.experiment, "build": wl.build_kwargs(seed),
           "seed": seed, "repeat": wl.repeat()}
    kernel_s = speed.startup(child_env())
    start = time.monotonic()
    result, err = call_child(job, timeout)
    if result is None:
        raise RuntimeError(f"set-up child failed: {err}")
    return result["done"] - start, kernel_s


def run_suite(wl: Workload, seed: int, index: int, traced: bool, timeout: float,
              reference: Optional[dict]) -> Suite:
    out_dir = WORK / f"{os.getpid()}-{index}"
    argv = ["--experiment", wl.experiment, *wl.flags, "--seed", str(seed), "--out", str(out_dir)]
    suite = Suite(traced)
    try:
        job = {"mode": "suite", "argv": argv, "trace": traced, "kernel": wl.kernel}
        result, err = call_child(job, timeout)
        if result is None:
            suite.problem = err.splitlines()[-1] if err else "child failed"
        else:
            suite.suite_s = result["suite_s"]
            suite.scale = speed.scale(wl.kernel, result["kernel_s"])
            suite.peak_rss_kib = result["peak_rss_kib"]
            suite.spans = result.get("spans")
            if result["status"] != 0:
                suite.problem = f"fpiter exited with status {result['status']}"
            try:
                suite.output = checks.read_suite(out_dir, wl.experiment)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                suite.problem = f"unreadable CSV output: {exc!r}"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if suite.output is None:
        suite.failures = {key: suite.problem for key in wl.expect.runs}
    else:
        suite.failures = checks.gate(suite.output, wl.expect, reference)
    return suite


def environment() -> Dict[str, object]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = (line.split(":", 1)[1] for line in fh if line.startswith("model name"))
            cpu = next(names).strip()
    except (OSError, StopIteration):
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": ", ".join(caches) or "unknown",
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "threads": " ".join(f"{v}=1" for v in THREAD_VARS),
    }


def end_to_end(wl: Workload, suites: List[Suite], setups: List[Tuple[float, float]],
               raw: bool = False) -> Tuple[dict, List[str]]:
    """The end-to-end metrics, with every time at reference speed unless ``raw``."""
    done = [s for s in suites if s.output is not None]
    scale = {id(s): 1.0 if raw else s.scale for s in done}
    runs = sum(len(s.output.runs) for s in done)
    iterations = sum(r.iterations for s in done for r in s.output.runs)
    # per suite, so that a stall of the host during one suite does not move it
    rates = [
        sum(r.iterations for r in s.output.runs)
        / sum(r.time_s * scale[id(s)] for r in s.output.runs)
        for s in done
    ]
    by_run: Dict[Tuple[str, str], List[float]] = {}
    for s in done:
        for r in s.output.runs:
            by_run.setdefault((r.algorithm, r.case), []).append(r.time_s * scale[id(s)])
    # the tail rule's percentile depends on the sample size, so it is taken
    # over blocks of a fixed number of suites and the blocks' median reported
    size = wl.min_suites
    tails = [
        checks.tail([
            r.time_s * scale[id(s)] * 1e3 for s in done[i : i + size] for r in s.output.runs
        ])
        for i in range(0, len(done) - size + 1, size)
    ]
    pct, n = tails[0][1:]
    setup_scale = 1.0 if raw else speed.scale("startup", [kernel for _, kernel in setups])
    metrics = {
        "suite_s": (statistics.median(s.suite_s * scale[id(s)] for s in done), "s"),
        "iters_per_s": (statistics.median(rates), "1/s"),
        # the median over distinct runs of each run's median across suites: a
        # pooled median of sfp's 16 runs would fall between a 16- and a
        # 44-iteration run and flip with noise
        "run_ms_p50": (statistics.median(map(statistics.median, by_run.values())) * 1e3, "ms"),
        "run_ms_tail": (statistics.median(t[0] for t in tails), "ms"),
        "setup_s": (statistics.median(t for t, _ in setups) * setup_scale, "s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_kib for s in done) / 1024.0, "MiB"),
    }
    notes = [
        f"suites {len(done)}, runs {runs}, iterations {iterations}",
        f"run_ms_tail is the median over {len(tails)} blocks of {size} suites of "
        f"p{pct:.1f} of the block's {n} runs",
        f"setup_s is the median of {len(setups)} set-ups",
    ]
    if not raw:
        scales = sorted(scale.values())
        notes.append(
            f"times are at reference speed: each raw time is multiplied by the {wl.kernel} "
            f"kernel's reference {speed.REFERENCE_S[wl.kernel]:.4f} s over its median time "
            f"next to it; suite scales {scales[0]:.3f} to {scales[-1]:.3f} (median "
            f"{statistics.median(scales):.3f}); set-ups by the startup kernel, scale "
            f"{setup_scale:.3f}")
    return metrics, notes


def _spans(table, layer, func=None):
    """Rows ``[parent, name, calls, total_s, self_s]`` of a layer (or one function in it)."""
    return [
        row for row in table
        if row[1].split(".")[0] == layer and func in (None, row[1].split(".")[-1])
    ]


def _is_build(row):
    # an experiment build or an initial-point build, not counted twice when
    # one builder calls another
    func, parent_func = row[1].split(".")[-1], row[0].split(".")[-1]
    return func == "make_initials" or (
        func.startswith("build_") and not parent_func.startswith("build_")
    )


def per_layer(traced: Suite, overhead_ratio: float) -> Tuple[dict, List[str]]:
    """The per-layer metrics of one traced suite, its times at reference speed."""
    table = [[p, n, calls, total * traced.scale, own * traced.scale]
             for p, n, calls, total, own in traced.spans]
    iters = sum(r.iterations for r in traced.output.runs)
    suite_s = traced.suite_s * traced.scale

    def calls(layer, func=None):
        return (sum(row[2] for row in _spans(table, layer, func)) / iters, "calls/iter")

    def self_s(rows):
        return sum(row[4] for row in rows)

    def self_us(rows):
        return (self_s(rows) * 1e6 / iters, "us/iter")

    def share(seconds):
        return (seconds / suite_s, "fraction")

    steps = [row for row in _spans(table, "algorithms") if row[1].endswith("_step")]
    layer_s = {layer: self_s(_spans(table, layer)) for layer in spans.LAYERS}
    metrics = {
        "space.check.calls_per_iter": calls("space", "check"),
        "space.check.self_us_per_iter": self_us(_spans(table, "space", "check")),
        "space.inner.calls_per_iter": calls("space", "inner"),
        "space.inner.self_us_per_iter": self_us(_spans(table, "space", "inner")),
        "space.norm.calls_per_iter": calls("space", "norm"),
        "space.combine.calls_per_iter": calls("space", "combine"),
        "space.self_share": share(layer_s["space"]),
        "schedules.calls_per_iter": calls("schedules"),
        "schedules.self_us_per_iter": self_us(_spans(table, "schedules")),
        "operators.calls_per_iter": calls("operators"),
        "operators.project_ball.calls_per_iter": calls("operators", "project_ball"),
        "operators.project_l2_ball.calls_per_iter": calls("operators", "project_l2_ball"),
        "operators.project_halfspace_pair.calls_per_iter": calls(
            "operators", "project_halfspace_pair"),
        "operators.self_us_per_iter": self_us(_spans(table, "operators")),
        "operators.self_share": share(layer_s["operators"]),
        "experiments.metric.self_us_per_iter": self_us(_spans(table, "experiments", "metric")),
        "experiments.metric.share": share(
            sum(row[3] for row in _spans(table, "experiments", "metric"))),
        "experiments.build_ms": (
            sum(row[3] for row in _spans(table, "experiments") if _is_build(row)) * 1e3, "ms"),
        "algorithms.step.self_us_per_iter": self_us(steps),
        "algorithms.run.self_us_per_iter": self_us(_spans(table, "algorithms", "run")),
        "cli.self_ms": (layer_s["cli"] * 1e3, "ms"),
        "cli.rows_written": (traced.output.rows_written, "rows"),
        "cli.bytes_written": (traced.output.bytes_written, "bytes"),
        "cli.share": share(layer_s["cli"]),
    }
    for layer in spans.LAYERS[:-1]:
        metrics[f"{layer}.self_ms"] = (layer_s[layer] * 1e3, "ms")
    remainder_s = suite_s - sum(layer_s.values())
    metrics["trace.suite_s"] = (suite_s, "s")
    metrics["trace.remainder_ms"] = (remainder_s * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    notes = [
        f"traced suite: {iters} iterations; the six layers' self times "
        f"{sum(layer_s.values()) * 1e3:.1f} ms + remainder {remainder_s * 1e3:.3f} ms "
        f"= traced suite_s {suite_s * 1e3:.1f} ms",
        "cli.bytes_written is computed from the CSV files, wall-clock fields excluded",
    ]
    return metrics, notes


def _span_counts(suite: Suite):
    return ({(p, n): calls for p, n, calls, _, _ in suite.spans},
            suite.output.rows_written, suite.output.bytes_written)


def measure(wl: Workload, seed: int, seconds: float, trace: bool):
    """Set-ups (untraced runs only), then suites for about ``seconds``."""
    deadline = time.monotonic() + DEADLINE_S

    def remaining():
        return deadline - time.monotonic()

    setups: List[Tuple[float, float]] = []
    try:
        measure_setup(wl, seed, remaining())  # warm-up: byte-code caches, file cache
        if not trace:
            setups = [measure_setup(wl, seed, remaining()) for _ in range(SETUP_REPEATS)]
    except RuntimeError as exc:
        return [], setups, [str(exc)]

    suites: List[Suite] = []
    reference = None
    min_rounds = MIN_TRACED_PAIRS if trace else wl.min_suites
    start = time.monotonic()
    while True:
        for traced in (False, True) if trace else (False,):
            suite = run_suite(wl, seed, len(suites), traced, remaining(), reference)
            suites.append(suite)
            if reference is None and suite.output is not None:
                reference = {(r.algorithm, r.case): r.digest for r in suite.output.runs}
        problems = [s.problem for s in suites if s.problem]
        if problems or remaining() <= 0:
            break
        # stop where the run ends nearest to ``seconds``: before a round that
        # would end more than half a round past it
        rounds = sum(1 for s in suites if not s.traced)
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    untraced = [s for s in suites if not s.traced and s.output is not None]
    traced = [s for s in suites if s.traced and s.output is not None and s.spans]
    if traced and any(_span_counts(s) != _span_counts(traced[0]) for s in traced[1:]):
        problems.append("span counts, rows or bytes differ between traced suites")
    if len(untraced) < min_rounds or (trace and not traced):
        problems.append("too few complete suites to report")
    return suites, setups, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fpiter" / "__init__.py").is_file():
        print(f"bench: no fpiter source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    wl = WORKLOADS[args.workload]
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    suites, setups, problems = measure(wl, args.seed, args.seconds, bool(args.trace))

    print(f"# fpiter benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {'on' if args.trace else 'off'}")
    print("# cli: fpiter --experiment", wl.experiment, *wl.flags, "--seed", args.seed)
    print("# environment: " + ", ".join(f"{k} {v}" for k, v in environment().items()))
    if wl.experiment == "sfp":
        print(f"# sfp-wide: one vector of {SFP_GRID} float64 nodes is {SFP_GRID * 8 // 1024} KiB "
              "(computed), well inside L2, so this workload does not measure memory bandwidth")
    untraced = [s for s in suites if not s.traced and s.output is not None]
    metrics: dict = {}
    if not problems:
        if args.trace:
            traced = sorted((s for s in suites if s.traced), key=lambda s: s.suite_s * s.scale)
            mid = traced[(len(traced) - 1) // 2]
            ratio = mid.suite_s * mid.scale / statistics.median(
                s.suite_s * s.scale for s in untraced)
            metrics, notes = per_layer(mid, ratio)
        else:
            metrics, notes = end_to_end(wl, untraced, setups)
            raw = end_to_end(wl, untraced, setups, raw=True)[0]
            notes.append("raw: " + ", ".join(
                f"{name} {value:.6g} {unit}" for name, (value, unit) in raw.items()
                if name != "peak_rss_mb"))
        for note in notes:
            print("# " + note)
    attempted = len(wl.expect.runs) * len(suites)
    failed = sum(len(s.failures) for s in suites)
    for name, (value, unit) in metrics.items():
        print(f"{name:50s} {value:14.6g} {unit}")
    print(f"{'runs_failed':50s} {failed:14d} of {attempted} runs")
    if untraced:
        digest = checks.suite_digest(untraced[0].output)
        print(f"# E_n digest (sha256 over the per-run digests): {digest}")
    for s in suites:
        for (algorithm, case), why in sorted(s.failures.items()):
            print(f"# FAILED {algorithm} {case}: {why}")
    for problem in problems:
        print(f"# PROBLEM {problem}")
    correct = failed == 0 and not problems
    print(f"# correctness: {'PASS' if correct else 'FAIL'}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
