"""End-to-end command-line tests: config resolution, CSV shapes,
determinism, and exit codes for every subcommand."""

import math

import numpy as np
import pytest

from stiefel_cayley import cli, linalg, problems
from stiefel_cayley.gradients import CostFunction


def read_csv(path):
    """Returns (provenance dict, header list, data rows as string lists)."""
    provenance, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            provenance[key] = val
            continue
        cells = line.split(",")
        if header is None:
            header = cells
        else:
            rows.append(cells)
    return provenance, header, rows


def column(header, rows, name):
    i = header.index(name)
    return [r[i] for r in rows]


# ------------------------------------------------------------ resolution


def test_defaults_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "n = 8\np = 2\ntrials = 1\n"
        "gamma = 0.05, 0.025\n"
        "algo = gdm-cp\n"
        "max-iters = 30\n"
    )
    out = tmp_path / "eigen.csv"
    rc = cli.main(["eigen", "--config", str(cfg_file), "--out", str(out),
                   "--gamma", "0.1"])
    assert rc == 0
    provenance, header, rows = read_csv(out)
    assert provenance["schema"] == "1"
    assert provenance["gammas"] == "0.10000000000000001"  # flag beat the file
    assert provenance["max_iters"] == "30"
    assert header == list(cli.SUMMARY_HEADER)
    assert len(rows) == 1  # 1 algo x 1 gamma x 1 trial, no aggregate rows


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 8\nwidgets = 3\n")
    assert cli.main(["eigen", "--config", str(bad)]) == 2
    assert cli.main(["eigen", "--config", str(tmp_path / "missing.cfg")]) == 2
    noval = tmp_path / "noval.cfg"
    noval.write_text("n 8\n")
    assert cli.main(["eigen", "--config", str(noval)]) == 2


def test_semantic_validation_exits_2(tmp_path):
    out = str(tmp_path / "x.csv")
    assert cli.main(["eigen", "--n", "3", "--p", "5", "--out", out]) == 2
    assert cli.main(["eigen", "--n", "8", "--p", "0", "--out", out]) == 2
    assert cli.main(["eigen", "--trials", "0", "--out", out]) == 2
    assert cli.main(["eigen", "--gamma", "-0.1", "--out", out]) == 2
    assert cli.main(["singular", "--n", "6", "--p", "1", "--out", out]) == 2
    assert cli.main(["mobility", "--points", "1", "--out", out]) == 2


def test_argparse_rejections():
    with pytest.raises(SystemExit) as exc:
        cli.main(["eigen", "--algo", "gdm-newton"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["tensor"])
    assert exc.value.code == 2


def test_bench_threads_validation(tmp_path, monkeypatch):
    out = str(tmp_path / "x.csv")
    monkeypatch.setenv("BENCH_THREADS", "plenty")
    assert cli.main(["mobility", "--n", "6", "--p", "2", "--trials", "1",
                     "--points", "3", "--out", out]) == 2
    monkeypatch.setenv("BENCH_THREADS", "1")
    assert cli.main(["mobility", "--n", "6", "--p", "2", "--trials", "1",
                     "--points", "3", "--out", out]) == 0


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    def failing_solver(*args, **kwargs):
        raise linalg.FactorizationError("SVD did not converge")

    monkeypatch.setattr(cli, "run_gdm_cp", failing_solver)
    out = str(tmp_path / "eigen.csv")
    assert cli.main(["eigen", "--n", "8", "--p", "2", "--trials", "1",
                     "--algo", "gdm-cp", "--max-iters", "5", "--out", out]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: FactorizationError: SVD did not converge")


# ----------------------------------------------------------------- eigen


EIGEN_ARGS = ["eigen", "--n", "8", "--p", "2", "--trials", "2", "--seed", "3",
              "--gamma", "0.1", "--algo", "gdm-cp", "--algo", "gdm-qr",
              "--max-iters", "80"]


def test_eigen_row_shape(tmp_path):
    out = tmp_path / "eigen.csv"
    assert cli.main(EIGEN_ARGS + ["--out", str(out)]) == 0
    provenance, header, rows = read_csv(out)
    # 2 algos x 1 gamma x (2 trials + mean + std)
    assert len(rows) == 8
    assert column(header, rows, "trial") == ["0", "1", "mean", "std"] * 2
    assert set(column(header, rows, "algorithm")) == {"gdm-cp", "gdm-qr"}
    for row in rows:
        trial = row[header.index("trial")]
        reason = row[header.index("stop_reason")]
        assert (reason == "") == (trial in ("mean", "std"))
    optimum = float(provenance["optimum"])
    assert optimum < 0.0

    hist_prov, hist_header, hist_rows = read_csv(tmp_path / "eigen_history.csv")
    assert hist_header == list(cli.HISTORY_HEADER)
    iters = [int(x) for x in column(hist_header, hist_rows, "iter")]
    assert iters[0] == 0  # every run's history starts at the initial point
    # four runs -> four zero rows
    assert sum(1 for i in iters if i == 0) == 4


def test_eigen_deterministic_modulo_time(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main(EIGEN_ARGS + ["--out", str(out)]) == 0
        outs.append(out)

    for suffix in ("", "_history"):
        pair = []
        for out in outs:
            path = out.with_name(out.stem + suffix + ".csv")
            provenance, header, rows = read_csv(path)
            drop = [i for i, h in enumerate(header) if h in ("time_s", "cum_time_s")]
            pair.append([[c for i, c in enumerate(r) if i not in drop] for r in rows])
        assert pair[0] == pair[1]


def test_eigen_converges_on_small_instance(tmp_path):
    out = tmp_path / "small.csv"
    assert cli.main(["eigen", "--n", "12", "--p", "2", "--trials", "1",
                     "--seed", "1", "--gamma", "0.1", "--algo", "gdm-cp",
                     "--out", str(out)]) == 0
    provenance, header, rows = read_csv(out)
    gap = float(column(header, rows, "fval_minus_optimal")[0])
    assert abs(gap) <= 1e-6 * abs(float(provenance["optimum"]))
    assert float(column(header, rows, "feasi")[0]) <= 1e-11


# -------------------------------------------------------------- singular


def test_singular_theta_ordering(tmp_path):
    out = tmp_path / "singular.csv"
    assert cli.main(["singular", "--n", "6", "--p", "2", "--trials", "1",
                     "--max-iters", "400", "--out", str(out)]) == 0
    provenance, header, rows = read_csv(out)
    assert header == list(cli.SINGULAR_HEADER)
    assert len(rows) == 4  # one per center angle
    thetas = [float(x) for x in column(header, rows, "theta")]
    assert thetas == pytest.approx(list(cli.SINGULAR_THETAS))
    gaps = [float(x) for x in column(header, rows, "fval_minus_optimal")]
    gap_tiny_angle, gap_half_turn = gaps[0], gaps[3]
    assert gap_half_turn <= 1e-8
    # the near-singular center makes barely any progress
    assert gap_tiny_angle >= 10.0 * gap_half_turn
    assert gap_tiny_angle > 1e-2


# -------------------------------------------------------------- mobility


def test_mobility_rows(tmp_path):
    out = tmp_path / "mobility.csv"
    assert cli.main(["mobility", "--n", "8", "--p", "2", "--trials", "2",
                     "--points", "6", "--seed", "5", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == list(cli.MOBILITY_HEADER)
    assert len(rows) == 6
    xs = [float(r[0]) for r in rows]
    np.testing.assert_allclose(xs, np.linspace(0.0, 5.0, 6), atol=1e-15)
    for r in rows:
        observed, rate = float(r[1]), float(r[2])
        assert observed <= rate
    assert float(rows[0][2]) == 2.0  # rate at the zero lower block
    # the sweep scales an anisotropic block, so compare endpoints only
    assert float(rows[-1][2]) < float(rows[0][2])


# -------------------------------------------------------------- gradcheck


def sign_flipped(build):
    """Cost constructor whose costs report the negated gradient."""

    def corrupted(*args):
        f = build(*args)
        return CostFunction(dim_n=f.dim_n, dim_p=f.dim_p, eval=f.eval,
                            grad=lambda u: -f.grad(u))

    return corrupted


def test_gradcheck_passes_and_catches_corruption(tmp_path, monkeypatch):
    out = tmp_path / "gradcheck.csv"
    args = ["gradcheck", "--n", "10", "--p", "2", "--trials", "2",
            "--directions", "5", "--seed", "2", "--out", str(out)]
    assert cli.main(args) == 0
    _, header, rows = read_csv(out)
    assert len(rows) == 4  # 2 costs x 2 engines
    assert set(column(header, rows, "status")) == {"pass"}
    assert max(float(x) for x in column(header, rows, "worst_rel_err")) <= 1e-5

    bad_out = tmp_path / "gradcheck_bad.csv"
    bad_args = ["gradcheck", "--n", "10", "--p", "2", "--trials", "2",
                "--directions", "5", "--seed", "2", "--out", str(bad_out)]
    for name in ("eigen_cost", "distance_cost"):
        monkeypatch.setattr(problems, name, sign_flipped(getattr(problems, name)))
    assert cli.main(bad_args) == 3
    _, header, rows = read_csv(bad_out)
    assert "FAIL" in column(header, rows, "status")


# ----------------------------------------------------------------- bounds


def test_bounds_report(tmp_path):
    out = tmp_path / "bounds.csv"
    assert cli.main(["bounds", "--n", "12", "--p", "2", "--samples", "60",
                     "--sigma", "1.0", "--variance-draws", "300",
                     "--seed", "4", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["passed"] == "1"
    assert row["lipschitz_violations"] == "0"
    assert row["norm_violations"] == "0"
    assert row["variance_violations"] == "0"
    assert float(row["lipschitz_worst_ratio"]) <= 1.0
