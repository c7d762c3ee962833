"""End-to-end command-line tests: config resolution, CSV shapes,
determinism, and exit codes for every subcommand."""

import argparse
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

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
    # stopping overrides are checked with the rest of the configuration
    small = ["--n", "8", "--p", "2", "--trials", "1", "--out", out]
    assert cli.main(["eigen", *small, "--max-iters", "0"]) == 2
    assert cli.main(["eigen", *small, "--grad-ratio-tol", "-1"]) == 2
    assert cli.main(["eigen", *small, "--fval-rel-tol", "0"]) == 2
    cases = {
        "zero_iters.cfg": ("eigen", "max_iters = 0\n"),
        "no_gamma_eigen.cfg": ("eigen", "gamma =\n"),
        "no_gamma_singular.cfg": ("singular", "gamma =\n"),
        "no_algo.cfg": ("eigen", "algo =\n"),
    }
    for name, (experiment, text) in cases.items():
        cfg_file = tmp_path / name
        cfg_file.write_text(text)
        assert cli.main([experiment, "--config", str(cfg_file), *small]) == 2, name
    # non-finite settings are usage errors, as flags and as config keys
    short = ["--n", "8", "--p", "2", "--out", out]
    for experiment, key, text in [("eigen", "gamma", "nan"), ("eigen", "gamma", "inf"),
                                  ("singular", "gamma", "nan"),
                                  ("eigen", "grad_ratio_tol", "nan"),
                                  ("eigen", "fval_rel_tol", "inf"),
                                  ("gradcheck", "fd_step", "nan"),
                                  ("gradcheck", "fd_step", "inf"),
                                  ("bounds", "sigma", "nan"), ("bounds", "sigma", "inf")]:
        assert cli.main([experiment, *short, "--" + key.replace("_", "-"), text]) == 2, key
        cfg_file = tmp_path / f"{experiment}-{key}-{text}.cfg"
        cfg_file.write_text(f"{key} = {text}\n")
        assert cli.main([experiment, "--config", str(cfg_file), *short]) == 2, cfg_file.name
    # output paths that cannot be written are usage errors, found before the
    # work starts and without creating any file: a missing directory,
    # --out naming a directory or nothing, and a race whose history path is
    # a directory
    (tmp_path / "h_history.csv").mkdir()
    assert cli.main(["eigen", *small[:-1], str(tmp_path / "missing" / "x.csv")]) == 2
    for path in (str(tmp_path), ""):
        assert cli.main(["mobility", "--points", "2", "--trials", "1", "--out", path]) == 2
    assert cli.main(["eigen", *small[:-1], str(tmp_path / "h.csv")]) == 2
    assert not (tmp_path / "missing").exists() and not (tmp_path / "h.csv").exists()
    assert not (tmp_path / "x.csv").exists()


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


#: The flags each experiment reads, with a valid value and the resolved
#: ExperimentConfig field and value.  Config-file keys are the same names.
FLAG_VALUES = {
    "n": ("30", "n", 30),
    "p": ("3", "p", 3),
    "trials": ("2", "trials", 2),
    "seed": ("5", "seed", 5),
    "gamma": ("0.5", "gammas", (0.5,)),
    "algo": ("gdm-qr", "algorithms", ("gdm-qr",)),
    "out": ("x.csv", "out", "x.csv"),
    "max_iters": ("7", "max_iters", 7),
    "grad_ratio_tol": ("0.001", "grad_ratio_tol", 1e-3),
    "fval_rel_tol": ("1e-09", "fval_rel_tol", 1e-9),
    "points": ("4", "points", 4),
    "directions": ("3", "directions", 3),
    "fd_step": ("1e-05", "fd_step", 1e-5),
    "samples": ("11", "samples", 11),
    "sigma": ("0.5", "sigma", 0.5),
    "variance_draws": ("12", "variance_draws", 12),
}
STOP_FLAGS = ["max_iters", "grad_ratio_tol", "fval_rel_tol"]
READ_FLAGS = {
    "eigen": ["n", "p", "trials", "seed", "gamma", "algo", "out", *STOP_FLAGS],
    "singular": ["n", "p", "trials", "seed", "gamma", "out", *STOP_FLAGS],
    "mobility": ["n", "p", "trials", "seed", "out", "points"],
    "gradcheck": ["n", "p", "trials", "seed", "out", "directions", "fd_step"],
    "bounds": ["n", "p", "seed", "out", "samples", "sigma", "variance_draws"],
}


def test_every_read_flag_and_key_resolves(tmp_path):
    for experiment, keys in READ_FLAGS.items():
        for key in keys:
            text, field, value = FLAG_VALUES[key]
            cfg_file = tmp_path / f"{experiment}-{key}.cfg"
            cfg_file.write_text(f"{key} = {text}\n")
            flag = "--" + key.replace("_", "-")
            for argv in ([experiment, flag, text], [experiment, "--config", str(cfg_file)]):
                cfg = cli._resolve_config(cli._build_parser().parse_args(argv))
                assert getattr(cfg, field) == value, (argv, field)


def test_ignored_flags_and_keys_exit_2(tmp_path, capsys):
    for argv in (["singular", "--algo", "gdm-qr"],
                 ["bounds", "--gamma", "5", "--max-iters", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    out = tmp_path / "x.csv"
    for experiment, keys in READ_FLAGS.items():
        for key in FLAG_VALUES.keys() - set(keys):
            text = FLAG_VALUES[key][0]
            with pytest.raises(SystemExit) as exc:
                cli.main([experiment, "--" + key.replace("_", "-"), text, "--out", str(out)])
            assert exc.value.code == 2, (experiment, key)
            cfg_file = tmp_path / f"{experiment}-{key}.cfg"
            cfg_file.write_text(f"{key} = {text}\n")
            assert cli.main([experiment, "--config", str(cfg_file), "--out", str(out)]) == 2
            assert f"does not read {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    def failing_solver(*args, **kwargs):
        raise linalg.FactorizationError("SVD did not converge")

    monkeypatch.setattr(cli, "run_gdm_cp", failing_solver)
    out = str(tmp_path / "eigen.csv")
    assert cli.main(["eigen", "--n", "8", "--p", "2", "--trials", "1",
                     "--algo", "gdm-cp", "--max-iters", "5", "--out", out]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: FactorizationError: SVD did not converge")


#: Each experiment at a tiny size, and every file it writes (by suffix of
#: the --out stem) with its provenance keys in order and its header row.
RACE_KEYS = ["schema", "command", "n", "p", "trials", "seed", "gammas", "grad_ratio_tol",
             "fval_rel_tol"]
CSV_CONTRACTS = {
    "eigen": (["--n", "6", "--p", "2", "--trials", "1", "--gamma", "0.1",
               "--algo", "gdm-cp", "--max-iters", "5"], {
        "": ([*RACE_KEYS, "algorithms", "max_iters", "optimum"],
             "algorithm,n,p,gamma_initial,trial,fval,fval_minus_optimal,feasi,nrmg,itr,"
             "time_s,stop_reason"),
        "_history": ([*RACE_KEYS, "algorithms", "max_iters", "optimum"],
                     "algorithm,gamma_initial,trial,iter,cum_time_s,f_gap"),
    }),
    "singular": (["--n", "6", "--p", "2", "--trials", "1", "--max-iters", "5"], {
        "": ([*RACE_KEYS, "thetas", "max_iters"],
             "algorithm,theta,n,p,gamma_initial,trial,fval,fval_minus_optimal,feasi,nrmg,"
             "itr,time_s,stop_reason"),
        "_history": ([*RACE_KEYS, "thetas", "max_iters"],
                     "algorithm,theta,gamma_initial,trial,iter,cum_time_s,f_gap"),
    }),
    "mobility": (["--n", "6", "--p", "2", "--trials", "1", "--points", "3"], {
        "": (["schema", "command", "n", "p", "trials", "seed", "points"],
             "b_norm2,observed_change,mobility"),
    }),
    "gradcheck": (["--n", "6", "--p", "2", "--trials", "1", "--directions", "2"], {
        "": (["schema", "command", "n", "p", "trials", "seed", "directions", "fd_step"],
             "cost,engine,states,directions,worst_rel_err,tolerance,status"),
    }),
    "bounds": (["--n", "6", "--p", "2", "--samples", "5", "--variance-draws", "5"], {
        "": (["schema", "command", "n", "p", "seed", "sigma"],
             "samples,mu,lipschitz_const,lipschitz_limit,lipschitz_worst_ratio,"
             "lipschitz_violations,norm_limit,norm_worst_ratio,norm_violations,"
             "variance_draws,variance_ratio,variance_limit,variance_violations,passed"),
    }),
}


@pytest.mark.parametrize("experiment", CSV_CONTRACTS)
def test_csv_contract(tmp_path, experiment):
    args, files = CSV_CONTRACTS[experiment]
    assert cli.main([experiment, *args, "--out", str(tmp_path / "run.csv")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"run{s}.csv" for s in files)
    for suffix, (keys, header) in files.items():
        provenance, written, _ = read_csv(tmp_path / f"run{suffix}.csv")
        assert list(provenance) == keys, suffix
        assert provenance["command"] == experiment
        assert ",".join(written) == header, suffix


@pytest.mark.parametrize("experiment", CSV_CONTRACTS)
def test_deterministic_modulo_time(tmp_path, experiment):
    args, files = CSV_CONTRACTS[experiment]
    runs = []
    for name in ("a", "b"):
        assert cli.main([experiment, *args, "--out", str(tmp_path / f"{name}.csv")]) == 0
        run = []
        for suffix in files:
            provenance, header, rows = read_csv(tmp_path / f"{name}{suffix}.csv")
            drop = [i for i, h in enumerate(header) if h in ("time_s", "cum_time_s")]
            run.append((provenance, [[c for i, c in enumerate(r) if i not in drop] for r in rows]))
        runs.append(run)
    assert runs[0] == runs[1]


def test_eigen_race_is_the_same_at_every_blas_thread_count(tmp_path):
    # Every product above the small-matrix limit is taken in blocks on
    # OpenBLAS's one-thread kernel, so at n=500, p=10 (A U in row blocks,
    # every other product and dot product below the limits) each run sums
    # in the same order at 1 and 2 threads, and the stops match.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if blas != "scipy-openblas":
        pytest.skip(f"numpy links {blas}, not the OpenBLAS it bundles")
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps its threads at the core count")
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        subprocess.run([sys.executable, "-m", "stiefel_cayley.cli", "eigen", "--n", "500",
                        "--p", "10", "--trials", "1", "--gamma", "0.1", "--max-iters", "40",
                        "--out", str(out)], env=env, capture_output=True, timeout=300,
                       check=True)
        run = []
        for path in (out, tmp_path / f"threads{threads}_history.csv"):
            provenance, header, rows = read_csv(path)
            drop = [i for i, h in enumerate(header) if h in ("time_s", "cum_time_s")]
            run.append((provenance, [[c for i, c in enumerate(r) if i not in drop] for r in rows]))
        runs.append(run)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("experiment", ["eigen", "singular"])
def test_race_runs_in_row_order_on_the_calling_thread(tmp_path, monkeypatch, experiment):
    """Each solver run starts on the thread that called ``main``, after the
    previous one returned, in the order of the summary rows it fills."""
    monkeypatch.delenv("BENCH_THREADS", raising=False)
    calls = []

    def recorded(solve):
        def call(*args, bt, **kwargs):
            entry = [threading.get_ident(), bt.gamma_initial]
            calls.append(entry)
            rec = solve(*args, bt=bt, **kwargs)
            entry += [rec.iters[-1], rec.fvals[-1], rec.stop_reason]
            return rec
        return call

    for attr in ("run_gdm_cp", "run_gdm_cp_retraction", "run_gdm_retraction"):
        monkeypatch.setattr(cli, attr, recorded(getattr(cli, attr)))
    out = tmp_path / "race.csv"
    assert cli.main([experiment, "--n", "6", "--p", "2", "--trials", "2", "--gamma", "0.1",
                     "--gamma", "0.01", "--max-iters", "5", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    runs = [r for r in rows if r[header.index("trial")] not in ("mean", "std")]
    assert len(calls) == len(runs) == (20 if experiment == "eigen" else 16)
    assert {entry[0] for entry in calls} == {threading.get_ident()}
    assert [tuple(entry[1:]) for entry in calls] == [
        (float(g), int(i), float(f), s) for g, i, f, s in zip(
            *(column(header, runs, name) for name in ("gamma_initial", "itr", "fval",
                                                      "stop_reason")))]


def test_readme_flag_table_matches_parsers():
    """Each row of the README's "Flags" table names exactly the flags its
    experiment's subparser registers, each with that experiment's default."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Flags\n", 1)[1].split("\n### ", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| (.+) \|$", table, flags=re.MULTILINE))
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert rows.keys() == subparsers.choices.keys()
    for experiment, cell in rows.items():
        registered = {opt for action in subparsers.choices[experiment]._actions
                      for opt in action.option_strings} - {"-h", "--help", "--config"}
        named = re.findall(r"`(--[a-z-]+)", cell)
        assert sorted(named) == sorted(registered), experiment
        pairs = re.findall(r"`--([a-z-]+) ([^`]+)`", cell)
        assert len(pairs) == len(named), experiment
        defaults = cli._EXPERIMENTS[experiment].defaults
        for flag, text in pairs:
            key = flag.replace("-", "_")
            assert cli._parse_value(key, text) == defaults[key], (experiment, flag)


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
    assert header == ["algorithm", "theta", *cli.SUMMARY_HEADER[1:]]
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
