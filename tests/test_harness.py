import csv
import io
import math

import numpy as np
import pytest

from sustain.driver import TrajectoryRecord
from sustain.errors import InsufficientPoints, MissingMetric, NonPositiveValue
from sustain.harness import (
    NOT_REACHED,
    TRAJECTORY_COLUMNS,
    TRAJECTORY_SCHEMA,
    ExperimentConfig,
    NotReached,
    _fmt,
    _opt,
    apply_overrides,
    fit_rate_exponent,
    parse_config_file,
    read_trajectory_csv,
    run_grid,
    samples_to_epsilon,
    write_trajectory_csv,
)


def _record(t, grad=None, gap=None, samples=0, upper=None):
    return TrajectoryRecord(
        t=t, alpha=0.1, beta=0.1, eta_f=1.0, eta_g=1.0,
        grad_ell_sq=grad, ell_gap=gap, tracking_sq=None,
        e_f_norm=None, e_g_norm=None, cumulative_samples=samples,
        cumulative_hvps=0, upper_loss=upper,
    )


class TestConfigParsing:
    def test_parse_and_override(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# comment\n"
            "problem.kind = quadratic\n"
            "run.T = 50\n"
            "run.seeds = 1, 2, 3\n"
            "problem.sigma_g = 0.5\n"
        )
        mapping = parse_config_file(cfg_file)
        assert mapping["run.T"] == "50"
        mapping = apply_overrides(mapping, ["--run.T=99", "--schedule.base_alpha=0.2"])
        assert mapping["run.T"] == "99"
        cfg = ExperimentConfig.from_mapping(mapping)
        assert cfg.T == 99
        assert cfg.seeds == (1, 2, 3)
        assert cfg.options["schedule.base_alpha"] == "0.2"

    def test_bad_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("justakey\n")
        with pytest.raises(ValueError):
            parse_config_file(cfg_file)

    def test_bad_override_rejected(self):
        with pytest.raises(ValueError):
            apply_overrides({}, ["run.T=3"])

    def test_invariants(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seeds=())
        with pytest.raises(ValueError):
            ExperimentConfig(T=0)
        with pytest.raises(ValueError):
            ExperimentConfig(epsilon_targets=(0.0,))
        with pytest.raises(ValueError):
            ExperimentConfig(algorithms=("nope",))
        with pytest.raises(ValueError, match="epsilon targets must be positive"):
            ExperimentConfig(epsilon_targets=(float("nan"),))
        with pytest.raises(ValueError, match="at least one algorithm is required"):
            ExperimentConfig(algorithms=())

    def test_metric_stride_below_one_rejected(self):
        # the same check and message as RunConfig, made before any run starts
        with pytest.raises(ValueError, match="metric_stride must be >= 1"):
            ExperimentConfig(metric_stride=0)
        with pytest.raises(ValueError, match="metric_stride must be >= 1"):
            ExperimentConfig.from_mapping({"run.metric_stride": "0"})

    @pytest.mark.parametrize("metric", ["grad_ell", "t", "cumulative_samples", ""])
    def test_epsilon_metric_must_be_a_float_column(self, metric):
        with pytest.raises(ValueError, match="epsilon metric"):
            ExperimentConfig(epsilon_metric=metric)

    @pytest.mark.parametrize("metric", ["grad_ell_sq", "tracking_sq", "e_f_norm", "upper_loss"])
    def test_float_columns_accepted_as_epsilon_metric(self, metric):
        assert ExperimentConfig(epsilon_metric=metric).epsilon_metric == metric

    def test_unknown_option_key_rejected(self):
        # a misspelled key is an error, not a value silently dropped
        with pytest.raises(ValueError, match="unknown config key 'schedule.c_et'"):
            ExperimentConfig.from_mapping({"schedule.c_et": "10"})
        with pytest.raises(ValueError, match="unknown config key 'problem.dup', 'run.Tx'"):
            ExperimentConfig(options={"run.Tx": "5", "problem.dup": "3"})
        # every run steps along h_f: there is no direction to choose
        with pytest.raises(ValueError, match="unknown config key 'run.direction'"):
            ExperimentConfig.from_mapping({"run.direction": "adam"})

    def test_run_options_cast_when_the_config_is_made(self):
        with pytest.raises(ValueError, match="schedule.base_alpha: could not convert"):
            ExperimentConfig(options={"schedule.base_alpha": "fast"})
        with pytest.raises(ValueError, match="run.initial_y: could not convert"):
            ExperimentConfig(options={"run.initial_y": "1,x"})

    def test_only_listed_keys_are_read(self):
        with pytest.raises(AssertionError, match="schedule.c_et"):
            _opt({"schedule.c_et": "10"}, "schedule.c_et", 1.0)

    def test_every_listed_key_is_read(self, tmp_path, monkeypatch):
        # building each problem kind, a run config and each baseline reads
        # every accepted key, so the set lists no key that is silently ignored
        import sustain.harness as harness

        read = set()
        real = harness._opt

        def recording(options, key, default, cast=float):
            read.add(key)
            return real(options, key, default, cast)

        monkeypatch.setattr(harness, "_opt", recording)
        for name, rows in (("train", "1,2,1\n3,4,0\n"), ("val", "0,1,1\n")):
            (tmp_path / f"{name}.csv").write_text("f1,f2,label\n" + rows)
        for kind, options in (
            ("quadratic", {}),
            ("hyperclean", {}),
            ("hyperclean", {"problem.train_csv": str(tmp_path / "train.csv"),
                            "problem.val_csv": str(tmp_path / "val.csv")}),
            ("meta_linear", {}),
        ):
            cfg = ExperimentConfig(problem=kind, options=options)
            harness.make_problem(cfg)
            for algorithm in ("two_timescale", "double_loop"):
                harness._baseline_kind(cfg, algorithm)
        assert read == harness._OPTIONS

    def test_option_i_rejected(self):
        # the momentum variants are gone: run.variant is an unknown key, not an alias
        for value in ("option_i", "option_ii", "two_eval"):
            with pytest.raises(ValueError, match="unknown config key 'run.variant'"):
                ExperimentConfig.from_mapping({"run.variant": value})

    @pytest.mark.parametrize("name,value", [
        ("policy", "option_i"), ("policy", "Practical"),
    ])
    def test_unknown_enum_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"unknown {name} '{value}'"):
            ExperimentConfig(**{name: value})
        with pytest.raises(ValueError, match=f"unknown {name} '{value}'"):
            ExperimentConfig.from_mapping({f"run.{name}": value})


class TestRateFit:
    def test_exact_power_law(self):
        series = [(t, t ** (-2.0 / 3.0)) for t in range(1, 200)]
        fit = fit_rate_exponent(series, (1, 199))
        assert fit.exponent == pytest.approx(-2.0 / 3.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        series = [(t, 3.5) for t in range(1, 50)]
        fit = fit_rate_exponent(series, (1, 49))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_power_law(self):
        series = [
            (t, t ** (-2.0 / 3.0) * (1.0 + 0.01 * (-1.0) ** t))
            for t in range(1, 500)
        ]
        fit = fit_rate_exponent(series, (1, 499))
        assert abs(fit.exponent - (-2.0 / 3.0)) <= 0.02

    def test_too_few_points(self):
        with pytest.raises(InsufficientPoints):
            fit_rate_exponent([(t, 1.0) for t in range(1, 6)], (1, 5))

    def test_nonpositive_values(self):
        series = [(t, 1.0 if t != 4 else 0.0) for t in range(1, 20)]
        with pytest.raises(NonPositiveValue):
            fit_rate_exponent(series, (1, 19))

    def test_window_filters(self):
        series = [(t, t ** -1.0) for t in range(1, 100)]
        fit = fit_rate_exponent(series, (10, 50))
        assert fit.window == (10, 50)


class TestSamplesToEpsilon:
    def test_immediate(self):
        records = [_record(0, grad=0.5, samples=6), _record(1, grad=0.4, samples=12)]
        assert samples_to_epsilon(records, 1.0, "grad_ell_sq") == 6

    def test_first_crossing(self):
        records = [_record(t, grad=1.0 / (t + 1), samples=5 * (t + 1)) for t in range(10)]
        assert samples_to_epsilon(records, 0.25, "grad_ell_sq") == 20

    def test_not_reached(self):
        records = [_record(t, grad=1.0, samples=t) for t in range(5)]
        assert samples_to_epsilon(records, 0.0, "grad_ell_sq") is NOT_REACHED

    def test_missing_metric(self):
        records = [_record(t, grad=None, samples=t) for t in range(5)]
        with pytest.raises(MissingMetric):
            samples_to_epsilon(records, 0.5, "grad_ell_sq")

    def test_sentinel_is_singleton(self):
        assert NotReached() is NOT_REACHED


class TestTrajectoryCSV:
    def test_roundtrip(self, tmp_path):
        records = [_record(t, grad=1.0 / (t + 1), gap=0.5, samples=6 * t) for t in range(4)]
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, records)
        rows = read_trajectory_csv(path)
        assert len(rows) == 4
        assert rows[2]["grad_ell_sq"] == pytest.approx(1.0 / 3.0)
        assert rows[0]["tracking_sq"] is None

    def test_schema_header(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, [_record(0, grad=1.0)])
        first = path.read_text().splitlines()[0]
        assert first.startswith("# schema=trajectory-v1")

    def test_bytes_equal_those_of_csv_writer(self, tmp_path):
        # the rows are joined by hand; they must hold the bytes csv.writer
        # writes for every kind of value a record can hold
        values = [None, 0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 1e300, 7]
        records = [_record(t, grad=v, gap=values[t - 1], samples=3 * t, upper=values[t - 2])
                   for t, v in enumerate(values)]
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, records)
        want = io.StringIO(newline="")
        want.write(f"# schema={TRAJECTORY_SCHEMA}\n")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(TRAJECTORY_COLUMNS)
        for r in records:
            writer.writerow([_fmt(getattr(r, col)) for col in TRAJECTORY_COLUMNS])
        assert path.read_bytes() == want.getvalue().encode("utf-8")


class TestRunGrid:
    def _cfg(self, tmp_path, **kw):
        base = dict(
            problem="quadratic",
            algorithms=("sustain",),
            T=5,
            seeds=(0,),
            output_dir=str(tmp_path),
            options={"problem.sigma_g": "0.2", "schedule.K": "2"},
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_single_cell(self, tmp_path):
        cfg = self._cfg(tmp_path, T=1)
        result = run_grid(cfg)
        assert ("sustain", 0) in result.trajectory_paths
        rows = read_trajectory_csv(result.trajectory_paths[("sustain", 0)])
        assert len(rows) == 1
        assert result.summary_path.exists()

    def test_deterministic_output(self, tmp_path):
        cfg = self._cfg(tmp_path, T=20, seeds=(0, 1))
        first = run_grid(cfg)
        blob1 = {p: p.read_bytes() for p in first.trajectory_paths.values()}
        summary1 = first.summary_path.read_bytes()
        second = run_grid(cfg)
        for p, blob in blob1.items():
            assert p.read_bytes() == blob
        assert second.summary_path.read_bytes() == summary1

    def test_multiple_algorithms_in_summary(self, tmp_path):
        cfg = self._cfg(tmp_path, T=30, algorithms=("sustain", "alternating"),
                        epsilon_targets=(10.0,), seeds=(0, 1))
        result = run_grid(cfg)
        names = [row["algorithm"] for row in result.summary_rows]
        assert names == ["sustain", "alternating"]
        for row in result.summary_rows:
            assert row["error"] == ""
            assert row["seeds"] == "2"
            assert "samples_to_10" in row

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        other = tmp_path / "redirected"
        monkeypatch.setenv("SUSTAIN_OUTPUT_DIR", str(other))
        cfg = self._cfg(tmp_path / "ignored")
        result = run_grid(cfg)
        assert result.summary_path.parent == other

    def test_bad_algorithm_option_is_a_config_error(self, tmp_path):
        # the baseline kinds are built when the config is made, so an invalid
        # two_timescale ratio fails before any run (per-seed failures are
        # still captured per row, see the next test)
        with pytest.raises(ValueError, match="two-timescale ratio must exceed 1"):
            self._cfg(tmp_path, algorithms=("two_timescale",),
                      options={"algorithm.ratio": "0.5"})

    def test_repeated_algorithm_gets_a_row_each(self, tmp_path):
        result = run_grid(self._cfg(tmp_path, algorithms=("sustain", "sustain")))
        assert [r["algorithm"] for r in result.summary_rows] == ["sustain", "sustain"]
        assert result.summary_rows[0] == result.summary_rows[1]

    def test_failed_seeds_are_counted_and_every_error_kept(self, tmp_path, monkeypatch):
        import sustain.harness as harness

        real = harness.run_sustain

        def failing_for_odd_seeds(oracle, exact, cfg):
            if cfg.seed % 2:
                raise RuntimeError(f"forced failure {cfg.seed}")
            return real(oracle, exact, cfg)

        monkeypatch.setattr(harness, "run_sustain", failing_for_odd_seeds)
        result = run_grid(self._cfg(tmp_path, seeds=(0, 1, 2, 3)))
        row = result.summary_rows[0]
        assert row["seeds"] == "2"
        assert row["error"] == ("seed 1: RuntimeError: forced failure 1; "
                                "seed 3: RuntimeError: forced failure 3")
        assert sorted(result.trajectory_paths) == [("sustain", 0), ("sustain", 2)]

    def test_run_stopped_at_t0_is_a_failed_seed(self, tmp_path, monkeypatch):
        # an infinite upper gradient stops every run at t = 0, before any
        # record (an infinite initial x is rejected before the grid starts)
        import sustain.harness as harness

        real = harness.make_problem

        def infinite_upper_gradient(cfg):
            oracle, exact = real(cfg)
            monkeypatch.setattr(oracle, "grad_x_f_sample",
                                lambda pair, token: np.full(oracle.d_up, np.inf))
            return oracle, exact

        monkeypatch.setattr(harness, "make_problem", infinite_upper_gradient)
        result = run_grid(self._cfg(tmp_path, seeds=(0, 1)))
        row = result.summary_rows[0]
        assert row["seeds"] == "0"
        assert row["error"] == ("seed 0: run stopped before t = 4 (no records); "
                                "seed 1: run stopped before t = 4 (no records)")
        assert result.trajectory_paths == {}
        assert list(tmp_path.glob("*_seed*.csv")) == []

    def test_run_stopped_after_t0_is_a_failed_seed(self, tmp_path, monkeypatch):
        import sustain.harness as harness

        complete = run_grid(self._cfg(tmp_path / "complete", seeds=(0, 1)))
        real = harness.make_problem

        def nan_lower_gradient_for_seed_1_from_t_2(cfg):
            oracle, exact = real(cfg)
            grad = oracle.grad_y_g_sample

            def patched(pair, token):
                g = grad(pair, token)
                return g * np.nan if token.path[0] == 1 and token.path[1] >= 2 else g

            monkeypatch.setattr(oracle, "grad_y_g_sample", patched)
            return oracle, exact

        monkeypatch.setattr(harness, "make_problem", nan_lower_gradient_for_seed_1_from_t_2)
        result = run_grid(self._cfg(tmp_path / "stopped", seeds=(0, 1)))
        row = result.summary_rows[0]
        assert row["seeds"] == "1"
        assert row["error"] == "seed 1: run stopped before t = 4 (last record t = 1)"
        assert list(result.trajectory_paths) == [("sustain", 0)]
        assert not (tmp_path / "stopped" / "experiment_sustain_seed1.csv").exists()
        # the completed run keeps its bytes
        assert (result.trajectory_paths[("sustain", 0)].read_bytes()
                == complete.trajectory_paths[("sustain", 0)].read_bytes())

    def test_missing_epsilon_metric_is_a_failed_seed(self, tmp_path):
        # hyper-cleaning has no exact oracle, so grad_ell_sq is never recorded
        cfg = self._cfg(tmp_path, problem="hyperclean", T=3, seeds=(0, 1),
                        epsilon_targets=(0.5,),
                        options={"problem.n_train": "20", "problem.n_val": "10",
                                 "problem.d_lo": "3", "schedule.K": "1"})
        result = run_grid(cfg)
        row = result.summary_rows[0]
        assert row["seeds"] == "0"
        assert row["error"] == (
            "seed 0: MissingMetric: metric 'grad_ell_sq' absent from trajectory; "
            "seed 1: MissingMetric: metric 'grad_ell_sq' absent from trajectory")
        assert row["samples_to_0.5"] == "NotReached"
        assert result.summary_path.exists()
        assert result.trajectory_paths == {}
