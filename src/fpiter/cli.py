"""Command-line front end: config parsing, suite orchestration, CSV output.

A suite is one experiment run for a list of algorithms over that
experiment's initial cases. Every (algorithm, case) pair yields one trace
CSV with columns ``n, E_n, delta_n, elapsed_s``; the suite writes one
summary CSV mirroring a results-table layout (algorithm, case, iterations,
time_s, terminal_reason, seed). Both use one row format: fields joined by
hand, rows ending in ``\r\n`` (the bytes of ``csv.writer``, as no field
needs quoting), floats in shortest round-trip form, so they parse back
bit-exact; the elapsed-time columns are the only nondeterministic content
at a fixed BLAS thread count (sfp grids of more than 10,000 nodes also
depend on that count).

Configuration is a flat YAML mapping whose keys are listed in ``KEYS``.
Every key is also a ``--<key>`` flag (``--algo`` for ``algorithms``), and
flags override file values. A key whose ``KEYS`` row names a tuple of
experiments (``repeat``: cfp and weber) is rejected for the others. The
default output directory comes from the ``FPITER_OUT`` environment
variable, falling back to ``./results``.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .algorithms import ALGORITHMS, IterationTrace, TerminalReason, run
from .experiments import EXPERIMENTS, ExperimentSpec, build_cfp, build_sfp, build_weber
from .operators import PROJECTION_MODES, AnchorSet
from .schedules import DELTA_MODES, Schedules

__all__ = ["CliConfig", "ConfigError", "parse_config", "run_suite", "main"]

log = logging.getLogger("fpiter")

OUTPUT_DIR_ENV = "FPITER_OUT"

DEFAULT_ALGORITHMS = {
    "sfp": ("mmha", "mimha", "mmva", "mimva"),
    "cfp": ("cq", "inertial-mann", "mmva", "mimva"),
    "weber": ("mimha", "mimva"),
}


class ConfigError(ValueError):
    """Invalid configuration document or flag value."""


@dataclass(frozen=True)
class CliConfig:
    """Fully validated suite configuration with experiment defaults filled."""

    experiment: str
    algorithms: Tuple[str, ...]
    seed: int = 0
    output_dir: Path = Path("results")
    repeat: int = 1
    max_iter: Optional[int] = None
    tol: Optional[float] = None
    grid: Optional[int] = None
    eta: Optional[float] = None
    lam: Optional[float] = None
    xi_coeff: Optional[float] = None
    psi_coeff: Optional[float] = None
    delta_mode: Optional[str] = None
    delta_value: Optional[float] = None
    sfp_projection: Optional[str] = None
    anchors_csv: Optional[Path] = None
    dim: Optional[int] = None
    balls: Optional[int] = None


def _fail(key: str, detail: str):
    raise ConfigError(f"config key {key!r}: {detail}")


def _as_int(minimum):
    def parse(key, value):
        try:
            out = int(value)
        except (TypeError, ValueError, OverflowError):
            _fail(key, f"expected an integer, got {value!r}")
        if isinstance(value, bool) or isinstance(value, float) and value != out:
            _fail(key, f"expected an integer, got {value!r}")
        if out < minimum:
            _fail(key, f"must be >= {minimum}, got {out}")
        return out

    return parse


def _as_float(accept, rule):
    def parse(key, value):
        try:
            out = float(value)
        except (TypeError, ValueError):
            _fail(key, f"expected a number, got {value!r}")
        if isinstance(value, bool) or not math.isfinite(out):
            _fail(key, f"expected a finite number, got {value!r}")
        if not accept(out):
            _fail(key, f"{rule}, got {out}")
        return out

    return parse


def _as_choice(choices):
    def parse(key, value):
        out = str(value)
        if out not in choices:
            _fail(key, f"expected one of {choices}, got {out!r}")
        return out

    return parse


def _as_path(key, value):
    # YAML reads `out: yes` as True and `out: 3` as 3; neither names a path
    if not isinstance(value, str):
        _fail(key, f"expected a path, got {value!r}")
    return Path(value)


def _as_algorithms(key, value):
    if isinstance(value, str):
        names = [s.strip() for s in value.split(",") if s.strip()]
    elif isinstance(value, (list, tuple)):
        names = [str(s).strip() for s in value]
    else:
        _fail(key, f"expected a name list, got {value!r}")
    if not names:
        _fail(key, "list is empty")
    for i, name in enumerate(names):
        if name not in ALGORITHMS:
            _fail(key, f"unknown algorithm {name!r}, expected one of {ALGORITHMS}")
        # each run writes its trace to a file named after its algorithm
        if name in names[:i]:
            _fail(key, f"algorithm {name!r} is listed twice")
    return tuple(names)


# key -> (CliConfig field, parser, flag help, experiments); values arrive from
# YAML or flags. The range checks repeat some library checks on purpose: they
# reject outside input by its key name before anything is built. experiments
# is the tuple of experiments the key applies to (repeat: those with sampled
# starts), or None for all; seed draws every experiment's initial points.
KEYS = {
    "experiment": ("experiment", _as_choice(EXPERIMENTS), "experiment id", None),
    "algorithms": ("algorithms", _as_algorithms, "comma-separated algorithm names", None),
    "seed": ("seed", _as_int(0), "random seed (centers and initial points)", None),
    "out": ("output_dir", _as_path, f"output directory (default ${OUTPUT_DIR_ENV} or ./results)", None),
    "repeat": ("repeat", _as_int(1), "number of random initial points", ("cfp", "weber")),
    "max-iter": ("max_iter", _as_int(1), "iteration cap", None),
    "tol": ("tol", _as_float(lambda v: v > 0, "must be positive"), "stopping tolerance", None),
    "grid": ("grid", _as_int(2), "grid nodes for the sfp experiment", ("sfp",)),
    "eta": ("eta", _as_float(lambda v: v >= 3, "must be >= 3"), "inertia cap shape parameter", None),
    "lambda": ("lam", _as_float(lambda v: 0 < v < 2, "must lie in (0, 2)"), "sfp step", ("sfp",)),
    "xi-coeff": ("xi_coeff", _as_float(lambda v: v > 0, "must be positive"), "c in xi_n = c/(n+1)^2", None),
    "psi-coeff": ("psi_coeff", _as_float(lambda v: 0 < v < 1, "must lie in (0, 1)"), "c in psi_n = c/(n+1)^2", None),
    "delta-mode": ("delta_mode", _as_choice(DELTA_MODES), "inertia rule", None),
    "delta-value": ("delta_value", _as_float(lambda v: v >= 0, "must be nonnegative"), "constant delta", None),
    "sfp-projection": ("sfp_projection", _as_choice(PROJECTION_MODES), "sfp half-space projection", ("sfp",)),
    "anchors-csv": ("anchors_csv", _as_path, "weber anchors CSV, weight in the last column", ("weber",)),
    "dim": ("dim", _as_int(1), "cfp space dimension", ("cfp",)),
    "balls": ("balls", _as_int(2), "cfp inner ball count", ("cfp",)),
}


def _build_cli_config(raw: dict) -> CliConfig:
    for key in raw:
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    if raw.get("experiment") is None:
        raise ConfigError("config key 'experiment' is required (sfp, cfp or weber)")
    values = {
        field: parse(key, raw[key])
        for key, (field, parse, _, _) in KEYS.items()
        if raw.get(key) is not None
    }
    experiment = values["experiment"]
    for key, (field, _, _, scope) in KEYS.items():
        if field in values and scope is not None and experiment not in scope:
            _fail(key, f"does not apply to experiment {experiment!r}")
    values.setdefault("algorithms", DEFAULT_ALGORITHMS[experiment])
    values.setdefault("output_dir", Path(os.environ.get(OUTPUT_DIR_ENV, "results")))
    return CliConfig(**values)


def _load_mapping(text: str) -> dict:
    import yaml  # only --config reads YAML, so a plain start does not load it
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat key-value mapping")
    return raw


def parse_config(text: str) -> CliConfig:
    """Parse and validate a flat YAML configuration document."""
    return _build_cli_config(_load_mapping(text))


def _power_law(coeff: float):
    def sequence(n: int) -> float:
        return coeff / (n + 1) ** 2

    return sequence


def _given(**updates) -> dict:
    """The keyword arguments that were set, for a filtered ``replace`` or builder call."""
    return {name: value for name, value in updates.items() if value is not None}


def _apply_schedule_overrides(sched: Schedules, cfg: CliConfig) -> Schedules:
    return replace(
        sched,
        **_given(
            eta=cfg.eta,
            psi=None if cfg.psi_coeff is None else _power_law(cfg.psi_coeff),
            xi=None if cfg.xi_coeff is None else _power_law(cfg.xi_coeff),
            delta_mode=cfg.delta_mode,
            delta_value=cfg.delta_value,
        ),
    )


def _build_spec(cfg: CliConfig) -> ExperimentSpec:
    if cfg.experiment == "sfp":
        return build_sfp(**_given(grid_points=cfg.grid, lam=cfg.lam, mode=cfg.sfp_projection))
    if cfg.experiment == "cfp":
        return build_cfp(**_given(dim=cfg.dim, num_balls=cfg.balls, seed=cfg.seed))
    try:
        anchors = None if cfg.anchors_csv is None else AnchorSet.from_csv(cfg.anchors_csv)
        # a custom set's target comes from fermat_weber_point, which can fail
        return build_weber(**_given(anchors=anchors))
    except (OSError, ValueError) as exc:
        _fail("anchors-csv", str(exc))


def _run_with_retry(algorithm, operator, run_config, x0, perturb_seed, retries=3):
    """Run once; on a singularity termination retry from a perturbed start.

    ``perturb_seed`` (a seed or a Generator) seeds the perturbations; the
    Generator is built at the first retry, so a run that needs none
    leaves ``numpy.random`` unloaded.
    """
    attempt = 0
    while True:
        trace = run(algorithm, operator, run_config, x0)
        if trace.terminal_reason is not TerminalReason.SINGULARITY or attempt >= retries:
            return trace
        if attempt == 0:
            perturb_rng = np.random.default_rng(perturb_seed)
        attempt += 1
        x0 = x0 + perturb_rng.normal(0.0, 1e-8, size=operator.space.size)
        log.warning(
            "%s hit an operator singularity; retry %d from a perturbed start",
            algorithm,
            attempt,
        )


def _format(value) -> str:
    # repr gives the shortest string that parses back to the same double
    return repr(float(value))


def _write_trace(path: Path, trace: IterationTrace) -> None:
    # one join over the columns; the bytes are those of csv.writer (no field
    # needs quoting, rows end in \r\n)
    rows = "".join(
        f"{n},{_format(e)},{_format(d)},{_format(t)}\r\n"
        for n, (e, d, t) in enumerate(zip(trace.errors, trace.deltas, trace.elapsed))
    )
    with open(path, "w", newline="") as fh:
        fh.write("# E_n is the stopping metric at x_n before step n; iterations = data rows - 1\n")
        fh.write("n,E_n,delta_n,elapsed_s\r\n")
        fh.write(rows)


def run_suite(cfg: CliConfig) -> int:
    """Execute every (algorithm, case) run and write trace + summary CSVs.

    Returns 0 when every run ended by tolerance or the iteration cap;
    singularity terminations are recorded in the summary and flip the exit
    status to 1 without aborting the rest of the suite. The summary header
    is written first and each row as its run finishes, so a suite that dies
    halfway keeps the rows of the runs it finished.
    """
    spec = _build_spec(cfg)
    run_config = replace(spec.defaults, **_given(max_iterations=cfg.max_iter, tolerance=cfg.tol))

    # fixed cases draw nothing, so numpy.random (about 6 MiB) stays unloaded
    initials_rng = None if spec.initial_cases else np.random.default_rng([cfg.seed, 1])
    initials = spec.make_initials(initials_rng, cfg.repeat)

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    summary_path = cfg.output_dir / f"{cfg.experiment}_summary.csv"
    ok = True
    with open(summary_path, "w", newline="") as summary:
        summary.write("algorithm,case,iterations,time_s,terminal_reason,seed\r\n")
        for algo_index, algorithm in enumerate(cfg.algorithms):
            schedules = _apply_schedule_overrides(spec.schedules_for(algorithm), cfg)
            algo_config = replace(run_config, schedules=schedules)
            for case_index, (case, x0) in enumerate(initials):
                perturb_seed = [cfg.seed, 2, algo_index, case_index]
                trace = _run_with_retry(algorithm, spec.operator, algo_config, x0, perturb_seed)
                trace_path = cfg.output_dir / f"{cfg.experiment}_{algorithm}_{case}.csv"
                _write_trace(trace_path, trace)
                reason = trace.terminal_reason
                ok = ok and reason is not TerminalReason.SINGULARITY
                summary.write(
                    f"{algorithm},{case},{trace.iterations},"
                    f"{_format(trace.elapsed[-1])},{reason.value},{cfg.seed}\r\n"
                )
                summary.flush()
                log.info(
                    "%s %s %s: %d iterations, %s, E=%.3e",
                    cfg.experiment,
                    algorithm,
                    case,
                    trace.iterations,
                    reason.value,
                    trace.final_error,
                )
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpiter",
        description="Fixed-point iteration benchmark suites (sfp, cfp, weber).",
    )
    parser.add_argument("--config", type=Path, help="flat YAML configuration file")
    for key, (_, _, help_text, _) in KEYS.items():
        flag = "--algo" if key == "algorithms" else f"--{key}"
        parser.add_argument(flag, dest=key, help=help_text)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = vars(_build_parser().parse_args(argv))
    config = args.pop("config")
    try:
        raw = {} if config is None else _load_mapping(config.read_text(encoding="utf-8"))
        raw.update((key, value) for key, value in args.items() if value is not None)
        cfg = _build_cli_config(raw)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"fpiter: {exc}", file=sys.stderr)
        return 2
    try:
        return run_suite(cfg)
    except (ConfigError, OSError) as exc:
        print(f"fpiter: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
