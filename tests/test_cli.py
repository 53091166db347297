import csv
import shlex
from pathlib import Path

import pytest

from sustain.cli import main
from sustain.harness import ExperimentConfig, make_problem, read_trajectory_csv
from sustain.hypergrad import choose_K_nonconvex


def test_check_is_not_a_command(capsys):
    # the property checks live in the test suite
    with pytest.raises(SystemExit) as exit_info:
        main(["check"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'check'" in capsys.readouterr().err


def test_fit_refuses_an_unknown_option(capsys):
    # only `run` takes --key=value overrides
    with pytest.raises(SystemExit) as exit_info:
        main(["fit", "--input", "t.csv", "--tmin", "1", "--tmax", "9", "--bogus"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_run_and_fit(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment.name = smoke\n"
        "problem.kind = quadratic\n"
        "problem.sigma_g = 0.1\n"
        "run.T = 40\n"
        "run.seeds = 0\n"
        "schedule.K = 2\n"
        f"output.dir = {tmp_path}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    traj = tmp_path / "smoke_sustain_seed0.csv"
    assert traj.exists()
    rows = read_trajectory_csv(traj)
    assert len(rows) == 40

    assert main(["fit", "--input", str(traj), "--metric", "tracking_sq",
                 "--tmin", "1", "--tmax", "39"]) == 0
    assert "exponent=" in capsys.readouterr().out


def test_run_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment.name = ov\nproblem.kind = quadratic\nrun.T = 5\n"
        f"run.seeds = 0\noutput.dir = {tmp_path}\nschedule.K = 1\n"
    )
    assert main(["run", "--config", str(cfg), "--run.T=7"]) == 0
    rows = read_trajectory_csv(tmp_path / "ov_sustain_seed0.csv")
    assert rows[-1]["t"] == 6


def test_run_with_missing_epsilon_metric_writes_summary(tmp_path, capsys):
    argv = ["run", "--experiment.name=hc", "--problem.kind=hyperclean",
            "--problem.n_train=20", "--problem.n_val=10", "--problem.d_lo=3",
            "--run.T=3", "--run.seeds=0", "--schedule.K=1",
            "--metrics.epsilon_targets=0.5", f"--output.dir={tmp_path}"]
    assert main(argv) == 1
    assert "FAILED sustain: seed 0: MissingMetric" in capsys.readouterr().err
    assert (tmp_path / "hc_summary.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_run_that_diverges_fails(tmp_path, capsys):
    argv = ["run", "--run.T=40", "--run.seeds=0,1", "--schedule.base_alpha=1e6",
            f"--output.dir={tmp_path}"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "FAILED sustain: seed 0: non-finite grad_ell_sq at t = 27; "
        "seed 1: non-finite grad_ell_sq at t = 27"]
    summary = (tmp_path / "experiment_summary.csv").read_text().splitlines()
    assert summary[1].startswith("sustain,0,")


@pytest.mark.parametrize("problem", [
    ["--problem.kind=meta_linear"],
    ["--problem.kind=hyperclean", "--problem.reg=1.0", "--problem.batch_size=32"],
], ids=["meta_linear", "hyperclean"])
def test_nonconvex_grid_writes_plain_numbers(tmp_path, capsys, problem):
    # the nonconvex schedule's step sizes come from NumPy-scalar constants;
    # every CSV holds them as plain numbers, which sustain fit reads back
    argv = ["run", "--experiment.name=nc", *problem, "--run.policy=nonconvex",
            "--schedule.K=3", "--run.T=12", "--run.seeds=0", f"--output.dir={tmp_path}"]
    assert main(argv) == 0
    csvs = sorted(tmp_path.glob("*.csv"))
    assert [p.name for p in csvs] == ["nc_summary.csv", "nc_sustain_seed0.csv"]
    assert not [p.name for p in csvs if "np." in p.read_text()]
    assert main(["fit", "--input", str(tmp_path / "nc_sustain_seed0.csv"),
                 "--metric", "upper_loss", "--tmin", "1", "--tmax", "11"]) == 0


@pytest.mark.parametrize("override,message", [
    ("--run.metric_stride=0", "metric_stride must be >= 1"),
    ("--metrics.epsilon_metric=grad_ell", "epsilon metric 'grad_ell' is not one of"),
    ("--run.T=three", "run.T: invalid literal for int()"),
    ("--run.seeds=0,x", "run.seeds: invalid literal for int()"),
    ("--run.metric_stride=x", "run.metric_stride: invalid literal for int()"),
    ("--metrics.epsilon_targets=0.1,abc",
     "metrics.epsilon_targets: could not convert string to float: 'abc'"),
    ("--schedule.c_et=10", "unknown config key 'schedule.c_et'"),
    ("--schedule.K=abc", "schedule.K: invalid literal for int()"),
    ("--schedule.c_eta=-1", "c_eta and c_eta_g must be nonnegative"),
    ("--schedule.c_eta_g=-1", "c_eta and c_eta_g must be nonnegative"),
    ("--schedule.alpha=0 --run.policy=strongly_convex", "alpha_override must be positive"),
    ("--schedule.K=0", "K_override must be >= 1"),
    ("--schedule.c_eta=nan", "c_eta and c_eta_g must be nonnegative"),
    ("--schedule.c_eta_g=nan", "c_eta and c_eta_g must be nonnegative"),
    ("--schedule.alpha=nan --run.policy=strongly_convex", "alpha_override must be positive"),
    ("--schedule.alpha=0.01", "unknown config key 'schedule.alpha' for problem quadratic, "
     "policy practical, algorithms sustain"),
    ("--schedule.base_alpha=nan", "base_alpha must be positive and finite"),
    ("--schedule.base_alpha=inf", "base_alpha must be positive and finite"),
    ("--run.algorithms=double_loop --algorithm.n_inner=abc",
     "algorithm.n_inner: invalid literal for int()"),
    ("--run.algorithms=two_timescale --algorithm.ratio=0.5",
     "two-timescale ratio must exceed 1"),
    ("--run.algorithms=two_timescale --algorithm.ratio=nan",
     "two-timescale ratio must exceed 1 and be finite"),
    ("--run.algorithms=two_timescale --algorithm.ratio=inf",
     "two-timescale ratio must exceed 1 and be finite"),
    ("--run.algorithms=sustain,newton", "unknown algorithm 'newton'"),
    ("--problem.d_up=abc", "problem.d_up: invalid literal for int()"),
    ("--problem.kind=hyperclean --problem.reg=0", "reg must be positive"),
    ("--problem.kind=hyperclean --problem.reg=nan", "reg must be positive and finite"),
    ("--problem.kind=meta_linear --problem.rho=nan", "rho must be positive and finite"),
    ("--problem.mu_g=-1", "lower-level Hessian A must be symmetric positive-definite"),
    ("--metrics.epsilon_targets=nan", "epsilon targets must be positive"),
    ("--metrics.epsilon_targets=0.1,0.1000001",
     "epsilon targets share a summary column: samples_to_0.1, samples_to_0.1"),
    ("--problem.d_up=0", "d_up = 0 and d_lo = 5 must be at least 1"),
    ("--problem.d_lo=0", "d_up = 2 and d_lo = 0 must be at least 1"),
    ("--problem.kind=meta_linear --problem.p_dim=0", "d_up = 0 and d_lo = 0 must be at least 1"),
    ("--problem.kind=hyperclean --problem.d_lo=0", "d_lo = 0 must be at least 1"),
    # record_errors is 0 or 1, nothing else
    ("--run.record_errors=no", "run.record_errors: expected 0 or 1, got 'no'"),
    ("--run.record_errors=false", "run.record_errors: expected 0 or 1, got 'false'"),
    ("--run.record_errors=off", "run.record_errors: expected 0 or 1, got 'off'"),
    ("--run.record_errors=", "run.record_errors: expected 0 or 1, got ''"),
    ("--problem.L_g=0.5", "L_g = 0.5 is below mu_g = 1"),
    ("--problem.kind=hyperclean --problem.train_csv=t.csv",
     "problem.train_csv needs problem.val_csv"),
    # a key the chosen problem, policy and algorithms do not read
    ("--problem.reg=5", "unknown config key 'problem.reg' for problem quadratic, "
     "policy practical, algorithms sustain"),
    ("--run.policy=nonconvex --schedule.c_eta=5 --schedule.base_alpha=3",
     "unknown config key 'schedule.base_alpha', 'schedule.c_eta' for problem quadratic, "
     "policy nonconvex, algorithms sustain"),
    ("--algorithm.n_inner=7", "unknown config key 'algorithm.n_inner' for problem quadratic, "
     "policy practical, algorithms sustain"),
    ("--run.algorithms=sustain,alternating --algorithm.ratio=3",
     "unknown config key 'algorithm.ratio' for problem quadratic, policy practical, "
     "algorithms sustain,alternating"),
    ("--problem.kind=meta_linear --problem.d_up=9", "unknown config key 'problem.d_up' for "
     "problem meta_linear, policy practical, algorithms sustain"),
    ("--problem.kind=hyperclean --problem.val_csv=v.csv", "unknown config key "
     "'problem.val_csv' for problem hyperclean, policy practical, algorithms sustain"),
    ("--problem.kind=hyperclean --problem.train_csv=t.csv --problem.val_csv=v.csv "
     "--problem.n_train=7", "unknown config key 'problem.n_train' for problem hyperclean, "
     "policy practical, algorithms sustain"),
    ("--run.policy=strongly_convex --schedule.base_alpha=5", "unknown config key "
     "'schedule.base_alpha' for problem quadratic, policy strongly_convex, algorithms sustain"),
    ("--problem.kind=hyperclean --problem.lam=4", "unknown config key 'problem.lam' for "
     "problem hyperclean, policy practical, algorithms sustain"),
    # the corruption rate only shapes generated data
    ("--problem.kind=hyperclean --problem.train_csv=t.csv --problem.val_csv=v.csv "
     "--problem.p=0.9", "unknown config key 'problem.p' for problem hyperclean, "
     "policy practical, algorithms sustain"),
    # one run counted twice, two cells writing one CSV
    ("--run.seeds=0,0", "repeated seed in 0,0"),
    ("--run.algorithms=", "at least one algorithm is required"),
    ("--config missing.cfg", "[Errno 2] No such file or directory: 'missing.cfg'"),
    ("--run.variant=option_ii", "unknown config key 'run.variant'"),
    ("--run.direction=adam", "unknown config key 'run.direction'"),
    ("--run.initial_x=nan,0", "initial_x and initial_y must be finite"),
    ("--run.initial_y=0,0,inf,0,0", "initial_x and initial_y must be finite"),
    ("--run.initial_x=1,2,3", "oracle is (2, 5), iterate is (3, 5)"),
    # lam = 0 with d_up > d_lo leaves the outer Hessian singular: no mu_f
    ("--run.policy=strongly_convex --problem.lam=0 --problem.d_up=4 --problem.d_lo=2 "
     "--problem.spec_seed=1", "mu_f is required for the strongly-convex policy"),
])
def test_run_rejects_bad_options_before_running(tmp_path, capsys, override, message):
    # a one-line error and exit code 2, not a traceback, and no output directory
    out = tmp_path / "out"
    argv = ["run", "--run.T=3", "--run.seeds=0", f"--output.dir={out}", *override.split()]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sustain run: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


def test_run_prints_the_truncation_level(tmp_path, capsys):
    # schedule.K unset: the practical policy takes K from the nonconvex rule
    argv = ["run", "--run.T=5", "--run.seeds=0,1", "--run.algorithms=sustain,alternating",
            f"--output.dir={tmp_path}"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    oracle, _ = make_problem(ExperimentConfig())
    K = choose_K_nonconvex(oracle.constants, 5)
    assert K > 1
    assert [line for line in lines if "K =" in line] == [f"truncation level K = {K}"]
    assert lines[0] == f"truncation level K = {K}"


def test_run_rejects_invalid_problem_constants_before_running(tmp_path, capsys):
    # the quadratic accepts an infinite sinusoid amplitude; its constants do not
    out = tmp_path / "out"
    argv = ["run", "--run.T=3", "--problem.sin_amp=inf", f"--output.dir={out}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "sustain run: invalid problem constants: L_fx is not finite\n"
    assert captured.out == ""
    assert not out.exists()


def test_run_refuses_an_impractical_K_from_the_rule(tmp_path, capsys):
    # at the default T = 100 the rule asks K = 67,011,488 of the default
    # hyper-cleaning problem: one line and exit 2, before any file
    out = tmp_path / "out"
    assert main(["run", "--problem.kind=hyperclean", f"--output.dir={out}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("sustain run: the K rule chose K = 67011488 at T = 100, above "
                            "10000; set schedule.K to run at a K of your choice\n")
    assert captured.out == ""
    assert not out.exists()


def _fit_failure(argv, capsys):
    assert main(["fit", *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return err


def _small_trajectory(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment.name = fit\nrun.T = 20\nschedule.K = 1\n"
                   f"output.dir = {tmp_path}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    return tmp_path / "fit_sustain_seed0.csv"


def test_fit_reports_a_missing_input_in_one_line(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    err = _fit_failure(["--input", str(missing), "--tmin", "1", "--tmax", "9"], capsys)
    assert err == f"sustain fit: [Errno 2] No such file or directory: '{missing}'\n"


def test_fit_reports_an_empty_window_in_one_line(tmp_path, capsys):
    traj = _small_trajectory(tmp_path)
    capsys.readouterr()
    err = _fit_failure(["--input", str(traj), "--tmin", "5", "--tmax", "3"], capsys)
    assert err == "sustain fit: need >= 8 points in window, have 0\n"


def test_fit_rejects_an_unknown_metric_by_name(tmp_path, capsys):
    traj = _small_trajectory(tmp_path)
    capsys.readouterr()
    err = _fit_failure(["--input", str(traj), "--metric", "nope",
                        "--tmin", "1", "--tmax", "19"], capsys)
    assert err == f"sustain fit: metric 'nope' is not a column of {traj}\n"


def test_fit_refuses_a_summary_csv_by_name(tmp_path, capsys):
    # a grid's summary is a CSV of numbers too, but not a trajectory
    _small_trajectory(tmp_path)
    capsys.readouterr()
    summary = tmp_path / "fit_summary.csv"
    err = _fit_failure(["--input", str(summary), "--tmin", "1", "--tmax", "5"], capsys)
    assert err == (f"sustain fit: {summary} is not a trajectory CSV: its first line is not "
                   "'# schema=trajectory-v1'\n")


def _set_grad_ell_sq(traj, t, text):
    """Write ``text`` into the grad_ell_sq cell of record ``t`` of ``traj``."""
    lines = traj.read_text().splitlines(keepends=True)
    header = lines[1].rstrip("\n").split(",")
    cells = lines[t + 2].split(",")
    cells[header.index("grad_ell_sq")] = text
    lines[t + 2] = ",".join(cells)
    traj.write_text("".join(lines))


def test_fit_names_the_line_and_column_of_a_bad_cell(tmp_path, capsys):
    traj = _small_trajectory(tmp_path)
    capsys.readouterr()
    _set_grad_ell_sq(traj, 3, "abc")
    err = _fit_failure(["--input", str(traj), "--tmin", "1", "--tmax", "19"], capsys)
    assert err == f"sustain fit: {traj}, line 6, column grad_ell_sq: 'abc' is not a number\n"


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_fit_refuses_a_nonfinite_value_in_one_line(tmp_path, capsys, bad):
    # NaN and inf are numbers to the reader; the fit refuses them by t
    traj = _small_trajectory(tmp_path)
    capsys.readouterr()
    _set_grad_ell_sq(traj, 3, bad)
    err = _fit_failure(["--input", str(traj), "--tmin", "1", "--tmax", "19"], capsys)
    assert err == ("sustain fit: rate fit requires positive values that are finite: "
                   f"t = 3 has {bad}\n")


@pytest.mark.parametrize("row, message", [
    ("0.1,x,0", "{path}, line 3, column f2: 'x' is not a number"),
    ("0.1,inf,0", "{path}, line 3, column f2: 'inf' is not a finite number"),
    ("0.1,0", "{path}, line 3: 2 cells, the header has 3"),
    ("0.1,0.3,2", "training labels must lie in {{0, 1}}: row 1 has 2"),
    ("0.1,0.3,nan", "training labels must lie in {{0, 1}}: row 1 has nan"),
], ids=["cell", "inf-cell", "short-row", "label-2", "label-nan"])
def test_run_refuses_bad_hyperclean_data_in_one_line(tmp_path, capsys, row, message):
    # a cell that is not a number or a row of the wrong length is named by
    # file, line and column; a label outside {0, 1} by set and row
    data = tmp_path / "data.csv"
    data.write_text(f"f1,f2,label\n0.5,1,1\n{row}\n")
    out = tmp_path / "out"
    argv = ["run", "--problem.kind=hyperclean", f"--problem.train_csv={data}",
            f"--problem.val_csv={data}", "--schedule.K=2", "--run.T=3", f"--output.dir={out}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"sustain run: {message.format(path=data)}\n"
    assert captured.out == ""
    assert not out.exists()


def _readme_run_commands():
    """README's `sustain run --problem.kind=...` lines, as argument lists."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [shlex.split(line)[1:] for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("sustain run --problem.kind=")]


def _kind(argv):
    return next(a for a in argv if a.startswith("--problem.kind=")).partition("=")[2]


README_RUNS = _readme_run_commands()


def test_readme_shows_one_run_command_per_problem_kind():
    assert sorted(map(_kind, README_RUNS)) == ["hyperclean", "meta_linear", "quadratic"]


@pytest.mark.parametrize("argv", README_RUNS, ids=_kind)
def test_readme_run_command_runs(tmp_path, capsys, argv):
    # each documented command, at a small T and into a temporary directory,
    # exits 0 with no failed seed in its summary
    out = tmp_path / "out"
    assert main([*argv, "--run.T=20", f"--output.dir={out}"]) == 0
    [summary] = out.glob("*_summary.csv")
    with open(summary, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and [row["error"] for row in rows] == [""] * len(rows)
