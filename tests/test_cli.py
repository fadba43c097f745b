import csv
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fpiter.cli
from fpiter.algorithms import IterationTrace, TerminalReason, run
from fpiter.cli import (
    KEYS,
    CliConfig,
    ConfigError,
    _run_with_retry,
    _write_trace,
    main,
    parse_config,
    run_suite,
)
from fpiter.experiments import EXPERIMENTS, build_experiment
from fpiter.operators import Operator, SingularityError


def read_csv(path):
    with open(path, newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


# config key -> (experiment, value text); a key that one experiment's builder
# takes is set for that experiment
KEY_SAMPLES = {
    "experiment": ("weber", "cfp"),
    "algorithms": ("weber", "mimva,cq"),
    "seed": ("weber", "5"),
    "out": ("weber", "runs/a"),
    "repeat": ("weber", "3"),
    "max-iter": ("weber", "25"),
    "tol": ("weber", "1e-5"),
    "grid": ("sfp", "64"),
    "eta": ("weber", "4.5"),
    "lambda": ("sfp", "1.5"),
    "xi-coeff": ("weber", "2.5"),
    "psi-coeff": ("weber", "0.25"),
    "delta-mode": ("weber", "constant"),
    "delta-value": ("weber", "0.5"),
    "sfp-projection": ("sfp", "exact"),
    "anchors-csv": ("weber", "anchors.csv"),
    "dim": ("cfp", "8"),
    "balls": ("cfp", "6"),
}


# the keys that apply to some experiments only, each set for an experiment
# that the key does not apply to
FOREIGN_KEYS = [
    (other, key)
    for key, (_, _, _, scope) in KEYS.items()
    if scope is not None
    for other in EXPERIMENTS
    if other not in scope
]

FLOAT_KEYS = [
    key for key, (field, *_) in KEYS.items()
    if CliConfig.__dataclass_fields__[field].type == "Optional[float]"
]


class TestParseConfig:
    def test_defaults_filled_for_weber(self, monkeypatch):
        monkeypatch.delenv("FPITER_OUT", raising=False)
        cfg = parse_config("experiment: weber\n")
        assert cfg.experiment == "weber"
        assert cfg.algorithms == ("mimha", "mimva")
        assert cfg.seed == 0
        assert cfg.repeat == 1
        assert cfg.output_dir == Path("results")
        assert cfg.eta is None

    def test_env_var_supplies_output_dir(self, monkeypatch):
        monkeypatch.setenv("FPITER_OUT", "/tmp/fpiter-out")
        cfg = parse_config("experiment: cfp\n")
        assert cfg.output_dir == Path("/tmp/fpiter-out")
        assert cfg.algorithms == ("cq", "inertial-mann", "mmva", "mimva")

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="grdi"):
            parse_config("experiment: sfp\ngrdi: 256\n")

    def test_eta_below_three_rejected(self):
        with pytest.raises(ConfigError, match="eta"):
            parse_config("experiment: weber\neta: 2\n")

    def test_lambda_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="lambda"):
            parse_config("experiment: sfp\nlambda: 3\n")
        with pytest.raises(ConfigError, match="lambda"):
            parse_config("experiment: sfp\nlambda: 0\n")

    def test_algorithm_list_forms(self):
        cfg = parse_config("experiment: sfp\nalgorithms: mmva, mimva\n")
        assert cfg.algorithms == ("mmva", "mimva")
        cfg = parse_config("experiment: sfp\nalgorithms: [mimha, cq]\n")
        assert cfg.algorithms == ("mimha", "cq")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="algorithms"):
            parse_config("experiment: sfp\nalgorithms: adamw\n")

    @pytest.mark.parametrize("value", ["mimva, cq, mimva", "[mimva, cq, mimva]"])
    def test_repeated_algorithm_rejected(self, value):
        with pytest.raises(ConfigError, match="'algorithms': algorithm 'mimva' is listed twice"):
            parse_config(f"experiment: weber\nalgorithms: {value}\n")

    def test_experiment_required(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("seed: 3\n")

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("- a\n- b\n")

    def test_numeric_validation(self):
        with pytest.raises(ConfigError, match="tol"):
            parse_config("experiment: sfp\ntol: -1\n")
        with pytest.raises(ConfigError, match="repeat"):
            parse_config("experiment: weber\nrepeat: 0\n")
        with pytest.raises(ConfigError, match="seed"):
            parse_config("experiment: weber\nseed: -4\n")
        with pytest.raises(ConfigError, match="delta-mode"):
            parse_config("experiment: weber\ndelta-mode: sometimes\n")
        with pytest.raises(ConfigError, match="sfp-projection"):
            parse_config("experiment: sfp\nsfp-projection: verbatim\n")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("experiment: weber\nexperiment: sfp\n", "experiment"),
            ("experiment: sfp\ntol: 0.1\ntol: 0.5\n", "tol"),
        ],
        ids=["experiment", "tol"],
    )
    def test_repeated_key_rejected(self, text, key):
        # YAML alone keeps the last value, so the second would run unannounced
        with pytest.raises(ConfigError, match=f"'{key}': is given twice"):
            parse_config(text)

    def test_invalid_yaml_rejected(self):
        with pytest.raises(ConfigError, match="not valid YAML"):
            parse_config("experiment: [weber\n")

    @pytest.mark.parametrize("text", ["", "# only a comment\n"])
    def test_empty_document_is_an_empty_mapping(self, text):
        with pytest.raises(ConfigError, match="'experiment' is required"):
            parse_config(text)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("repeat", "2.5", "expected an integer"),
            ("tol", "abc", "expected a number"),
            ("algorithms", "3", "expected a name list"),
            ("algorithms", "[]", "list is empty"),
        ],
    )
    def test_malformed_value_named(self, key, value, message):
        with pytest.raises(ConfigError, match=f"'{key}': {message}"):
            parse_config(f"experiment: weber\n{key}: {value}\n")

    @pytest.mark.parametrize("value", ["yes", "3", "1.5", "[a, b]", "{a: 1}"])
    @pytest.mark.parametrize("key", ["out", "anchors-csv"])
    def test_path_key_needs_a_string(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}': expected a path, got"):
            parse_config(f"experiment: weber\n{key}: {value}\n")

    def test_scoped_keys_are_the_builder_keys(self):
        assert len(FOREIGN_KEYS) == 13
        assert {key for _, key in FOREIGN_KEYS} == {
            "grid", "lambda", "sfp-projection", "dim", "balls", "anchors-csv", "repeat"
        }
        assert [other for other, key in FOREIGN_KEYS if key == "repeat"] == ["sfp"]

    @pytest.mark.parametrize("experiment, key", FOREIGN_KEYS)
    def test_key_of_another_experiment_rejected(self, experiment, key):
        value = KEY_SAMPLES[key][1]
        with pytest.raises(ConfigError, match=f"'{key}'.*'{experiment}'"):
            parse_config(f"experiment: {experiment}\n{key}: {value}\n")

    @pytest.mark.parametrize("key", ["seed", "repeat", "max-iter", "grid", "dim", "balls"])
    def test_infinite_integer_rejected(self, key):
        experiment = {"grid": "sfp", "dim": "cfp", "balls": "cfp"}.get(key, "weber")
        for value in (".inf", "true"):
            with pytest.raises(ConfigError, match=f"'{key}'.*integer"):
                parse_config(f"experiment: {experiment}\n{key}: {value}\n")

    def test_nan_delta_value_rejected(self):
        with pytest.raises(ConfigError, match="delta-value"):
            parse_config("experiment: weber\ndelta-mode: constant\ndelta-value: .nan\n")
        assert len(FLOAT_KEYS) == 6
        for key in FLOAT_KEYS:
            experiment = (KEYS[key][3] or ("weber",))[0]
            for value in (".inf", "-.inf", ".nan", "true"):
                with pytest.raises(ConfigError, match=f"'{key}'"):
                    parse_config(f"experiment: {experiment}\n{key}: {value}\n")

    def test_seed_applies_to_every_experiment(self):
        for experiment in ("sfp", "cfp", "weber"):
            assert parse_config(f"experiment: {experiment}\nseed: 4\n").seed == 4


def power_law(coeff):
    return lambda n: coeff / (n + 1) ** 2


# suite id -> (CliConfig fields, build_experiment keywords, RunConfig updates,
# Schedules updates): the direct run that each suite's traces must reproduce
OVERRIDE_SUITES = {
    "weber-max-iter": (
        dict(experiment="weber", algorithms=("mimva",), seed=2, max_iter=30),
        {},
        dict(max_iterations=30),
        {},
    ),
    "eta": (
        dict(experiment="weber", algorithms=("mimva",), max_iter=40, eta=12.0),
        {},
        dict(max_iterations=40),
        dict(eta=12.0),
    ),
    "tol": (
        dict(experiment="weber", algorithms=("mimha", "mimva"), max_iter=200, tol=0.05),
        {},
        dict(max_iterations=200, tolerance=0.05),
        {},
    ),
    "psi-coeff": (
        dict(experiment="weber", algorithms=("mimva",), max_iter=40, psi_coeff=0.5),
        {},
        dict(max_iterations=40),
        dict(psi=power_law(0.5)),
    ),
    "xi-coeff": (
        dict(experiment="weber", algorithms=("mimva",), max_iter=40, xi_coeff=0.01),
        {},
        dict(max_iterations=40),
        dict(xi=power_law(0.01)),
    ),
    "delta-mode-value": (
        dict(
            experiment="weber",
            algorithms=("mimha", "mmha"),
            max_iter=40,
            delta_mode="constant",
            delta_value=0.3,
        ),
        {},
        dict(max_iterations=40),
        dict(delta_mode="constant", delta_value=0.3),
    ),
    "sfp-lambda-projection": (
        dict(
            experiment="sfp",
            algorithms=("mimha",),
            max_iter=40,
            grid=64,
            lam=0.5,
            sfp_projection="exact",
        ),
        dict(grid_points=64, lam=0.5, mode="exact"),
        dict(max_iterations=40),
        {},
    ),
    "cfp-dim-balls": (
        dict(
            experiment="cfp",
            algorithms=("cq", "inertial-mann", "mimva"),
            seed=9,
            max_iter=40,
            dim=8,
            balls=6,
        ),
        dict(dim=8, num_balls=6, seed=9),
        dict(max_iterations=40),
        {},
    ),
}


class TestRunSuite:
    def test_weber_single_algorithm_writes_two_files(self, tmp_path):
        cfg = CliConfig(
            experiment="weber",
            algorithms=("mimva",),
            seed=3,
            output_dir=tmp_path,
            max_iter=60,
        )
        assert run_suite(cfg) == 0
        trace = tmp_path / "weber_mimva_rand0.csv"
        summary = tmp_path / "weber_summary.csv"
        assert trace.exists() and summary.exists()
        assert len(list(tmp_path.iterdir())) == 2
        rows = read_csv(summary)
        assert len(rows) == 1
        assert int(rows[0]["iterations"]) <= 60

    def test_sfp_two_algorithms_four_cases(self, tmp_path):
        cfg = CliConfig(
            experiment="sfp",
            algorithms=("mmva", "mimva"),
            seed=0,
            output_dir=tmp_path,
        )
        assert run_suite(cfg) == 0
        traces = sorted(p.name for p in tmp_path.iterdir())
        assert len(traces) == 9  # 8 traces + summary
        rows = read_csv(tmp_path / "sfp_summary.csv")
        assert len(rows) == 8
        assert all(r["terminal_reason"] == "tolerance_met" for r in rows)

    def test_suite_that_dies_keeps_the_finished_rows(self, tmp_path, monkeypatch):
        import fpiter.cli as cli

        calls = []
        real = cli._run_with_retry

        def second_run_dies(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("second run dies")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "_run_with_retry", second_run_dies)
        cfg = CliConfig(
            experiment="weber",
            algorithms=("mimha",),
            seed=1,
            output_dir=tmp_path,
            max_iter=20,
            repeat=3,
        )
        with pytest.raises(RuntimeError, match="second run dies"):
            run_suite(cfg)
        lines = (tmp_path / "weber_summary.csv").read_text().splitlines()
        assert lines[0] == "algorithm,case,iterations,time_s,terminal_reason,seed"
        assert len(lines) == 2
        assert lines[1].startswith("mimha,rand0,")

    def test_summary_iteration_count_matches_trace_rows(self, tmp_path):
        cfg = CliConfig(
            experiment="weber",
            algorithms=("mimha",),
            seed=1,
            output_dir=tmp_path,
            max_iter=40,
        )
        run_suite(cfg)
        summary = read_csv(tmp_path / "weber_summary.csv")[0]
        trace_rows = read_csv(tmp_path / "weber_mimha_rand0.csv")
        assert int(summary["iterations"]) == len(trace_rows) - 1

    @pytest.mark.parametrize(
        "fields, build_kwargs, run_updates, schedule_updates",
        list(OVERRIDE_SUITES.values()),
        ids=list(OVERRIDE_SUITES),
    )
    def test_trace_columns_and_roundtrip(
        self, tmp_path, fields, build_kwargs, run_updates, schedule_updates
    ):
        cfg = CliConfig(output_dir=tmp_path, **fields)
        assert run_suite(cfg) == 0
        spec = build_experiment(cfg.experiment, **build_kwargs)
        initials = spec.make_initials(np.random.default_rng([cfg.seed, 1]), cfg.repeat)
        for algorithm in cfg.algorithms:
            schedules = replace(spec.schedules_for(algorithm), **schedule_updates)
            config = replace(spec.defaults, schedules=schedules, **run_updates)
            for case, x0 in initials:
                rows = read_csv(tmp_path / f"{cfg.experiment}_{algorithm}_{case}.csv")
                assert list(rows[0].keys()) == ["n", "E_n", "delta_n", "elapsed_s"]
                trace = run(algorithm, spec.operator, config, x0)
                assert [(float(r["E_n"]), float(r["delta_n"])) for r in rows] == [
                    (rec.error, rec.delta) for rec in trace.records
                ]

    def test_determinism_modulo_elapsed(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            cfg = CliConfig(
                experiment="cfp",
                algorithms=("mimva", "cq"),
                seed=9,
                output_dir=out,
                max_iter=40,
                dim=8,
                balls=6,
            )
            assert run_suite(cfg) == 0
        for name in ("cfp_mimva_rand0.csv", "cfp_cq_rand0.csv"):
            rows_a = read_csv(out_a / name)
            rows_b = read_csv(out_b / name)
            assert len(rows_a) == len(rows_b)
            for ra, rb in zip(rows_a, rows_b):
                assert ra["n"] == rb["n"]
                assert ra["E_n"] == rb["E_n"]
                assert ra["delta_n"] == rb["delta_n"]

    def test_trace_csv_has_the_bytes_of_csv_writer(self, tmp_path):
        trace = IterationTrace(
            errors=(-0.0, 5e-324, 1.7976931348623157e308, 0.1),
            deltas=(0.0, np.float64(0.3), 5e-324, 1.7976931348623157e308),
            elapsed=(1.7976931348623157e308, -0.0, np.float64(2.5e-7), 5e-324),
            terminal_reason=TerminalReason.MAX_ITERATIONS,
        )
        _write_trace(tmp_path / "joined.csv", trace)
        with open(tmp_path / "writer.csv", "w", newline="") as fh:
            fh.write(
                "# E_n is the stopping metric at x_n before step n; iterations = data rows - 1\n"
            )
            writer = csv.writer(fh)
            writer.writerow(["n", "E_n", "delta_n", "elapsed_s"])
            for rec in trace.records:
                writer.writerow(
                    [rec.n] + [repr(float(v)) for v in (rec.error, rec.delta, rec.elapsed_s)]
                )
        joined = (tmp_path / "joined.csv").read_bytes()
        assert joined == (tmp_path / "writer.csv").read_bytes()
        assert b"np.float64" not in joined and b",0.3," in joined

    def test_repeat_generates_independent_cases(self, tmp_path):
        cfg = CliConfig(
            experiment="weber",
            algorithms=("mimva",),
            seed=4,
            output_dir=tmp_path,
            repeat=3,
            max_iter=20,
        )
        run_suite(cfg)
        rows = read_csv(tmp_path / "weber_summary.csv")
        assert [r["case"] for r in rows] == ["rand0", "rand1", "rand2"]
        first = [read_csv(tmp_path / f"weber_mimva_rand{i}.csv")[0]["E_n"] for i in range(3)]
        assert len(set(first)) == 3

    def test_custom_anchor_csv(self, tmp_path):
        anchors = tmp_path / "anchors.csv"
        anchors.write_text("0,0,1\n1,0,1\n0,1,1\n1,1,1\n")
        cfg = CliConfig(
            experiment="weber",
            algorithms=("mimva",),
            seed=0,
            output_dir=tmp_path / "out",
            max_iter=20,
            anchors_csv=anchors,
        )
        assert run_suite(cfg) == 0
        assert (tmp_path / "out" / "weber_summary.csv").exists()


def always_singular(space):
    calls = []

    def raise_singularity(x, out):
        calls.append(1)
        raise SingularityError("always undefined")

    return Operator(space, raise_singularity), calls


class TestSingularityRetry:
    def test_start_on_an_anchor_retries_once_and_finishes(self, caplog):
        spec = build_experiment("weber")
        config = replace(spec.defaults, max_iterations=50)
        corner = spec.details["anchors"].anchors[0]
        assert run("mimva", spec.operator, config, corner).terminal_reason is (
            TerminalReason.SINGULARITY
        )
        trace = _run_with_retry(
            "mimva", spec.operator, config, corner, np.random.default_rng(0)
        )
        assert trace.terminal_reason is not TerminalReason.SINGULARITY
        assert trace.iterations >= 1
        assert caplog.messages == [
            "mimva hit an operator singularity; retry 1 from a perturbed start"
        ]

    def test_operator_that_always_raises_gives_up_after_three_retries(self, caplog):
        spec = build_experiment("weber")
        operator, calls = always_singular(spec.space)
        trace = _run_with_retry(
            "mimva", operator, spec.defaults, np.ones(3), np.random.default_rng(0)
        )
        assert trace.terminal_reason is TerminalReason.SINGULARITY
        assert len(calls) == 1 + 3
        assert [m.split("; ")[1] for m in caplog.messages] == [
            f"retry {k} from a perturbed start" for k in (1, 2, 3)
        ]

    def test_suite_with_a_singular_run_exits_1(self, tmp_path, monkeypatch):
        import fpiter.cli as cli

        def singular_weber(**kwargs):
            spec = build_experiment("weber", **kwargs)
            return replace(spec, operator=always_singular(spec.space)[0])

        monkeypatch.setattr(cli, "build_weber", singular_weber)
        cfg = CliConfig(
            experiment="weber", algorithms=("mimha",), seed=1, output_dir=tmp_path
        )
        assert run_suite(cfg) == 1
        rows = read_csv(tmp_path / "weber_summary.csv")
        assert [(r["algorithm"], r["terminal_reason"]) for r in rows] == [
            ("mimha", "singularity")
        ]
        assert len(read_csv(tmp_path / "weber_mimha_rand0.csv")) == 1

    def test_retry_in_a_suite_perturbs_by_the_runs_own_seed(self, tmp_path, monkeypatch):
        # the last of 2 x 2 runs (algorithm 1, case 1) hits a singularity
        # once; its retry must start from x0 plus the draw seeded
        # [seed, 2, algorithm index, case index]
        import fpiter.cli as cli

        starts = []

        def singular_once(algorithm, operator, config, x0):
            starts.append(x0)
            if len(starts) == 4:
                operator = always_singular(operator.space)[0]
            return run(algorithm, operator, config, x0)

        monkeypatch.setattr(cli, "run", singular_once)
        seed = 7
        cfg = CliConfig(
            experiment="weber",
            algorithms=("mimha", "mimva"),
            seed=seed,
            output_dir=tmp_path,
            max_iter=20,
            repeat=2,
        )
        assert run_suite(cfg) == 0
        assert len(starts) == 5
        spec = build_experiment("weber")
        (_, x0), (_, x1) = spec.make_initials(np.random.default_rng([seed, 1]), 2)
        assert [x.tobytes() for x in starts[:4]] == [b.tobytes() for b in (x0, x1, x0, x1)]
        draw = np.random.default_rng([seed, 2, 1, 1]).normal(0.0, 1e-8, spec.space.size)
        assert starts[4].tobytes() == (x1 + draw).tobytes()


class TestMain:
    @pytest.mark.parametrize("key", list(KEYS))
    def test_flag_and_yaml_key_give_equal_config(self, key, tmp_path, monkeypatch):
        monkeypatch.delenv("FPITER_OUT", raising=False)
        seen = []
        monkeypatch.setattr("fpiter.cli.run_suite", lambda cfg: seen.append(cfg) or 0)
        experiment, text = KEY_SAMPLES[key]
        values = {"experiment": experiment, key: text}
        argv = []
        for name, value in values.items():
            argv += ["--algo" if name == "algorithms" else f"--{name}", value]
        config = tmp_path / "suite.yaml"
        config.write_text("".join(f"{name}: {value}\n" for name, value in values.items()))
        assert main(argv) == 0
        assert main(["--config", str(config)]) == 0
        from_flags, from_yaml = seen
        assert from_flags == from_yaml
        assert from_flags != parse_config(f"experiment: {experiment}\n")

    def test_repeated_algorithm_exits_2_before_any_run(self, tmp_path, capsys):
        # two mimva runs would write one trace file, the second over the first
        out = tmp_path / "out"
        argv = ["--experiment", "weber", "--algo", "mimva,mimva", "--repeat", "1",
                "--max-iter", "3", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("fpiter: config key 'algorithms': ")
        assert not out.exists()

    def test_key_of_another_experiment_exits_2(self, tmp_path, capsys):
        assert main(["--experiment", "weber", "--grid", "64", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "'grid'" in err and "'weber'" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "text",
        [
            "10,,0,1\n",
            "0,0,1,\n",
            "0,0,1\n10,0\n",
            "x,y,w\n",
            "1\n2\n",
            "0,0,-1\n",
            "0,O,1\n10,0,1\n",
            "x,y,w\n0,O,1\n10,0,1\n",
        ],
    )
    def test_malformed_anchors_csv_exits_2(self, tmp_path, capsys, text):
        anchors = tmp_path / "anchors.csv"
        anchors.write_text(text)
        out = tmp_path / "out"
        argv = ["--experiment", "weber", "--anchors-csv", str(anchors), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("fpiter: config key 'anchors-csv': ")
        assert not out.exists()

    def test_anchor_set_whose_optimum_does_not_settle_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        import fpiter.experiments

        monkeypatch.setattr(fpiter.experiments, "weiszfeld_map", lambda s, a, x: x + 1.0)
        anchors = tmp_path / "anchors.csv"
        anchors.write_text("0,0,1\n1,0,1\n0,1,1\n1,1,1\n")
        out = tmp_path / "out"
        argv = ["--experiment", "weber", "--anchors-csv", str(anchors), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("fpiter: config key 'anchors-csv': ")
        assert "did not settle in 20,000 steps" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["missing.csv", "."], ids=["missing", "directory"])
    def test_unreadable_anchors_csv_exits_2(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        anchors = tmp_path / name
        argv = ["--experiment", "weber", "--anchors-csv", str(anchors), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("fpiter: config key 'anchors-csv': ")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["out", "anchors-csv"])
    def test_path_key_that_yaml_reads_as_a_boolean_exits_2(
        self, key, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.yaml"
        config.write_text(f"experiment: weber\n{key}: yes\n")
        assert main(["--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"fpiter: config key '{key}': ")
        assert list(tmp_path.iterdir()) == [config]

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory")
        assert main(["--experiment", "weber", "--max-iter", "2", "--out", str(taken)]) == 1
        assert capsys.readouterr().err.startswith("fpiter: ")
        assert taken.read_text() == "a file, not a directory"

    def test_flags_only(self, tmp_path):
        code = main(
            [
                "--experiment",
                "weber",
                "--algo",
                "mimva",
                "--seed",
                "3",
                "--out",
                str(tmp_path),
                "--max-iter",
                "25",
            ]
        )
        assert code == 0
        assert (tmp_path / "weber_summary.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "suite.yaml"
        config.write_text(
            "experiment: weber\nalgorithms: mimva\nmax-iter: 20\nseed: 7\n"
        )
        out = tmp_path / "results"
        code = main(["--config", str(config), "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "weber_summary.csv")
        assert rows[0]["seed"] == "7"

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "suite.yaml"
        config.write_text("experiment: weber\neta: 1\n")
        assert main(["--config", str(config)]) == 2
        assert "eta" in capsys.readouterr().err

    def test_repeated_key_in_config_file_exits_2(self, tmp_path, capsys):
        config = tmp_path / "suite.yaml"
        config.write_text("experiment: weber\nexperiment: sfp\n")
        out = tmp_path / "results"
        assert main(["--config", str(config), "--out", str(out)]) == 2
        assert "'experiment': is given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.yaml")]) == 2

    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.yaml"
        config.write_bytes(b"\xff\xfe")
        assert main(["--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("fpiter: 'utf-8' codec can't decode")

    def test_grid_override_reaches_sfp(self, tmp_path):
        code = main(
            [
                "--experiment",
                "sfp",
                "--algo",
                "mimva",
                "--grid",
                "128",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "sfp_summary.csv")
        assert len(rows) == 4


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's package."""
    package_root = Path(fpiter.cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestEntryPoint:
    def test_module_help(self):
        result = run_python("-m", "fpiter", "--help")
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: fpiter")
        assert "--anchors-csv" in result.stdout

    def test_cli_import_does_not_load_yaml(self):
        result = run_python("-c", "import sys, fpiter.cli; print('yaml' in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"]

    def test_fixed_case_suite_does_not_load_numpy_random(self, tmp_path):
        # numpy.random costs about 6 MiB; sfp's four fixed starts draw nothing
        result = run_python("-c", "import sys, numpy; print('numpy.random' in sys.modules)")
        assert result.returncode == 0, result.stderr
        if result.stdout.split() == ["True"]:
            pytest.skip("a plain import numpy already loads numpy.random")
        argv = ["--experiment", "sfp", "--grid", "64", "--max-iter", "5", "--out", str(tmp_path)]
        code = (
            "import sys; from fpiter.cli import main; "
            "print(main({!r}), 'numpy.random' in sys.modules)"
        )
        result = run_python("-c", code.format(argv))
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "False"]

    def test_two_ball_cfp_does_not_load_numpy_random(self):
        # two inner balls sit at +-e_1, so build_cfp draws no centers
        result = run_python("-c", "import sys, numpy; print('numpy.random' in sys.modules)")
        assert result.returncode == 0, result.stderr
        if result.stdout.split() == ["True"]:
            pytest.skip("a plain import numpy already loads numpy.random")
        code = (
            "import sys, dataclasses, numpy as np; from fpiter import build_cfp, run; "
            "spec = build_cfp(dim=4, num_balls=2); "
            "config = dataclasses.replace(spec.defaults, max_iterations=5); "
            "trace = run('mimva', spec.operator, config, np.ones(4)); "
            "print(trace.iterations, 'numpy.random' in sys.modules)"
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["5", "False"]
