import csv
import io
import logging
import math
import multiprocessing
import os
import shutil

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
    _read,
    apply_overrides,
    fit_rate_exponent,
    parse_config_file,
    read_trajectory_csv,
    run_grid,
    samples_to_epsilon,
    write_trajectory_csv,
)
from sustain.hypergrad import choose_K_nonconvex


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
        # refused when the config is made, not when the problem is built
        with pytest.raises(ValueError, match="unknown problem kind 'cubic'"):
            ExperimentConfig(problem="cubic")

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

    @pytest.mark.parametrize("value,recorded", [("1", True), ("0", False), (None, True)])
    def test_record_errors_is_0_or_1(self, value, recorded):
        options = {} if value is None else {"run.record_errors": value}
        assert _read(ExperimentConfig(options=options))[1].record_errors is recorded
        for bad in ("no", "false", "off", "", "yes", "01", "True"):
            with pytest.raises(ValueError, match=f"^run.record_errors: expected 0 or 1, "
                                                 f"got {bad!r}$"):
                ExperimentConfig(options={"run.record_errors": bad})

    @pytest.mark.parametrize("problem,policy,options,unknown", [
        ("quadratic", "practical", {"problem.reg": "5"}, "'problem.reg'"),
        ("quadratic", "practical", {"problem.M": "2"}, "'problem.M'"),
        ("quadratic", "nonconvex", {"schedule.c_eta": "5", "schedule.base_alpha": "3"},
         "'schedule.base_alpha', 'schedule.c_eta'"),
        ("quadratic", "strongly_convex", {"schedule.c_eta_g": "5"}, "'schedule.c_eta_g'"),
        ("quadratic", "practical", {"schedule.alpha": "0.01"}, "'schedule.alpha'"),
        ("quadratic", "practical", {"algorithm.ratio": "3"}, "'algorithm.ratio'"),
        ("meta_linear", "nonconvex", {"problem.d_up": "9"}, "'problem.d_up'"),
        ("hyperclean", "practical", {"problem.val_csv": "v.csv"}, "'problem.val_csv'"),
        ("hyperclean", "practical", {"problem.train_csv": "t.csv", "problem.val_csv": "v.csv",
                                     "problem.data_seed": "7"}, "'problem.data_seed'"),
    ])
    def test_a_key_its_readers_ignore_is_refused(self, problem, policy, options, unknown):
        # the keys read for this problem, policy and algorithm list are the
        # only keys accepted; the line names all three
        with pytest.raises(ValueError) as info:
            ExperimentConfig(problem=problem, policy=policy, options=options)
        assert str(info.value) == (f"unknown config key {unknown} for problem {problem}, "
                                   f"policy {policy}, algorithms sustain")

    def test_algorithm_keys_belong_to_their_algorithm(self):
        cfg = ExperimentConfig(algorithms=("two_timescale", "double_loop"),
                               options={"algorithm.ratio": "3", "algorithm.n_inner": "4"})
        assert cfg.options["algorithm.n_inner"] == "4"
        with pytest.raises(ValueError, match="unknown config key 'algorithm.n_inner' for "
                           "problem quadratic, policy practical, algorithms sustain,two_timescale"):
            ExperimentConfig(algorithms=("sustain", "two_timescale"),
                             options={"algorithm.ratio": "3", "algorithm.n_inner": "4"})

    @pytest.mark.parametrize("problem,policy,options", [
        ("quadratic", "practical", {
            "problem.spec_seed": "1", "problem.noise_seed": "2", "problem.d_up": "3",
            "problem.d_lo": "4", "problem.mu_g": "1", "problem.L_g": "3", "problem.lam": "0.1",
            "problem.sigma_f": "0.1", "problem.sigma_g": "0.1", "problem.sin_amp": "0.1",
            "schedule.base_alpha": "0.2", "schedule.c_eta": "2", "schedule.c_eta_g": "3"}),
        ("quadratic", "strongly_convex", {"schedule.alpha": "0.01", "schedule.K": "2"}),
        ("quadratic", "nonconvex", {"run.initial_x": "1,2", "run.initial_y": "0,0,0,0,0",
                                    "run.record_errors": "0"}),
        ("hyperclean", "practical", {
            "problem.n_train": "7", "problem.n_val": "5", "problem.d_lo": "3",
            "problem.data_seed": "1", "problem.p": "0.2", "problem.reg": "0.1",
            "problem.batch_size": "2", "problem.noise_seed": "3"}),
        ("hyperclean", "nonconvex", {
            "problem.train_csv": "t.csv", "problem.val_csv": "v.csv",
            "problem.reg": "0.1", "problem.batch_size": "2", "problem.noise_seed": "3"}),
        ("meta_linear", "practical", {
            "problem.data_seed": "1", "problem.M": "3", "problem.p_dim": "2", "problem.q": "5",
            "problem.rho": "0.5", "problem.m": "2", "problem.noise_seed": "3"}),
    ])
    def test_every_key_each_reader_reads_is_accepted(self, problem, policy, options):
        # no file is opened and no problem is built, so t.csv need not exist
        cfg = ExperimentConfig(problem=problem, policy=policy, options=options)
        assert cfg.options == options

    def test_making_a_config_builds_no_problem(self, monkeypatch):
        import sustain.harness as harness

        def refuse(*args, **kwargs):
            raise AssertionError("a problem was built")

        for name in ("random_quadratic_spec", "generate_corrupted_dataset",
                     "load_dataset_csv", "random_meta_linear_spec"):
            monkeypatch.setattr(harness, name, refuse)
        ExperimentConfig()
        ExperimentConfig(problem="hyperclean")
        ExperimentConfig(problem="hyperclean", options={"problem.train_csv": "t.csv",
                                                        "problem.val_csv": "v.csv"})
        ExperimentConfig(problem="meta_linear")

    def test_epsilon_targets_with_one_summary_column_rejected(self):
        # 0.1000001 formats as 0.1 under :g, so one count would be dropped
        with pytest.raises(ValueError, match="epsilon targets share a summary column: "
                                             "samples_to_0.1, samples_to_0.1"):
            ExperimentConfig(epsilon_targets=(0.1, 0.1000001))
        with pytest.raises(ValueError, match="epsilon targets share a summary column"):
            ExperimentConfig.from_mapping({"metrics.epsilon_targets": "0.01,0.01"})
        assert ExperimentConfig(epsilon_targets=(0.1, 0.100001)).epsilon_targets == (0.1, 0.100001)

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


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count ``run_grid`` sees: above 1 the cells of a grid of
    two or more run in forked workers, at 1 they run in this process."""
    import sustain.harness as harness

    def set_cpus(n):
        monkeypatch.setattr(harness, "_cpu_count", lambda: n)

    return set_cpus


class TestRunGrid:
    """Every test here runs its grid in forked workers; the subclass below
    runs the same tests in one process."""

    CPUS = 4

    @pytest.fixture(autouse=True)
    def _grid_path(self, cpus):
        cpus(self.CPUS)

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

    def test_output_dir_env_is_ignored(self, tmp_path, monkeypatch):
        # the outputs are a function of the config alone: the environment
        # variable that once redirected them changes nothing
        other = tmp_path / "redirected"
        monkeypatch.setenv("SUSTAIN_OUTPUT_DIR", str(other))
        result = run_grid(self._cfg(tmp_path / "out"))
        assert result.summary_path.parent == tmp_path / "out"
        assert not other.exists()

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_run_with_non_finite_records_is_a_failed_seed(self, tmp_path):
        # base_alpha 1e6 diverges: the iterates stay finite, so no run stops,
        # but grad_ell_sq overflows to inf; no inf may reach the summary
        cfg = self._cfg(tmp_path, T=40, seeds=(0, 1), algorithms=("sustain", "alternating"),
                        options={"problem.sigma_g": "0.2", "schedule.K": "2",
                                 "schedule.base_alpha": "1e6"})
        result = run_grid(cfg)
        for row in result.summary_rows:
            assert row["seeds"] == "0"
            assert row["error"] == ("seed 0: non-finite grad_ell_sq at t = 27; "
                                    "seed 1: non-finite grad_ell_sq at t = 27")
            assert row["final_grad_ell_sq_mean"] == row["final_grad_ell_sq_std"] == ""
        assert result.trajectory_paths == {}
        assert list(tmp_path.glob("*_seed*.csv")) == []

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

    def test_the_k_rule_logs_once_per_grid(self, tmp_path, caplog):
        # q = 0 puts the K rule's argument at 0: it logs and picks K = 1; the
        # cells run at the grid's K and do not apply the rule again
        cfg = self._cfg(tmp_path, problem="meta_linear", seeds=(0, 1),
                        algorithms=("sustain", "alternating"), options={"problem.q": "0"})
        with caplog.at_level(logging.WARNING, logger="sustain"):
            result = run_grid(cfg)
        assert result.K == 1
        assert [r.getMessage() for r in caplog.records] == [
            "K-selection argument 0 <= 1: bias already within the target at K = 1"]

    def test_every_cell_runs_at_the_grid_k(self, tmp_path, monkeypatch):
        # schedule.K unset: the grid resolves K and hands it to every cell
        import sustain.harness as harness

        cfg = self._cfg(tmp_path, seeds=(0, 1), options={"problem.sigma_g": "0.2"})
        K = choose_K_nonconvex(harness.make_problem(cfg)[0].constants, cfg.T)
        real = harness.run_sustain

        def k_checked(oracle, exact, run):
            if run.K_override != K:
                raise AssertionError(f"K_override {run.K_override}, not {K}")
            return real(oracle, exact, run)

        monkeypatch.setattr(harness, "run_sustain", k_checked)
        result = run_grid(cfg)
        assert result.K == K
        assert result.summary_rows[0]["error"] == ""


class TestRunGridInProcess(TestRunGrid):
    CPUS = 1


def test_workers_and_one_process_write_the_same_bytes(tmp_path, monkeypatch, cpus):
    # a grid with one failed seed, run in forked workers and in this process
    import sustain.harness as harness

    pids = tmp_path / "pids"
    pids.mkdir()
    real = harness.run_sustain

    def failing_for_seed_1(oracle, exact, cfg):
        (pids / str(os.getpid())).touch()
        if cfg.seed == 1:
            raise RuntimeError("forced failure")
        return real(oracle, exact, cfg)

    monkeypatch.setattr(harness, "run_sustain", failing_for_seed_1)
    out = tmp_path / "out"
    cfg = ExperimentConfig(algorithms=("sustain", "alternating"), T=30, seeds=(0, 1, 2),
                           output_dir=str(out), epsilon_targets=(10.0, 1e-9),
                           options={"problem.sigma_g": "0.2"})
    got = {}
    for n in (2, 1):
        cpus(n)
        shutil.rmtree(out, ignore_errors=True)
        result = run_grid(cfg)
        got[n] = result, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert got[2] == got[1]
    result, files = got[1]
    assert result.summary_rows[0]["error"] == "seed 1: RuntimeError: forced failure"
    assert len(files) == 6  # five trajectories and the summary
    # the worker path ran its cells in other processes than this one
    noted = {int(p.name) for p in pids.iterdir()}
    assert os.getpid() in noted and noted - {os.getpid()}


@pytest.mark.parametrize("cell_raises", [False, True])
def test_no_worker_outlives_the_grid(tmp_path, monkeypatch, cpus, cell_raises):
    import sustain.harness as harness

    def unwritable(path, records):
        raise OSError(f"cannot write {path.name}")

    if cell_raises:
        monkeypatch.setattr(harness, "write_trajectory_csv", unwritable)
    cpus(2)
    cfg = ExperimentConfig(T=5, seeds=(0, 1, 2), output_dir=str(tmp_path),
                           options={"schedule.K": "2"})
    if cell_raises:
        with pytest.raises(OSError, match="cannot write experiment_sustain_seed0.csv"):
            run_grid(cfg)
    else:
        assert run_grid(cfg).summary_rows[0]["seeds"] == "3"
    assert multiprocessing.active_children() == []
