"""Tests for config parsing, CLI dispatch, exit codes, and output stability."""

import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmfg import cli
from rsmfg.cli import (
    EXIT_FINITE_ESCAPE,
    EXIT_NON_FINITE,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_PARSE,
    bundled_config,
    load_config,
    main,
    parse_config,
    run,
)
from rsmfg.errors import NonFiniteState, ParseError
from rsmfg.model import LqgProblem, MajorMinorSpec
from rsmfg.montecarlo import (
    _run_paths,
    check_martingale_quotient,
    check_normalization,
    check_optimal_cost,
)
from rsmfg.numerics import TimeGrid
from rsmfg.riccati import solve


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def scalar_model(**overrides):
    doc = {
        "type": "single", "A": [[0.0]], "B": [[1.0]], "sigma": [[1.0]],
        "Q": [[1.0]], "R": [[1.0]], "Q_hat": [[0.0]], "delta": 0.5,
        "x0": [1.0], "T": 1.0,
    }
    doc.update(overrides)
    return doc


class TestLoadConfig:
    def test_bundled_paper_example(self):
        cfg = parse_config(bundled_config("paper_example.json"), "solve-mfg")
        model = cfg.model
        assert isinstance(model, MajorMinorSpec)
        assert model.K == 1
        assert model.major.A[0, 0] == -2.5
        assert model.major.F[0, 0] == 2.5
        assert model.major.sigma[0, 0] == 0.5
        # raw-exponent form loads with risk loading 2 so that delta/2 = 1
        assert model.major.delta == 2.0
        assert model.minors[0].delta == 2.0
        assert model.minors[0].Q[0, 0] == 7.0

    def test_bundled_toy_model(self):
        cfg = parse_config(bundled_config("toy_model.json"), "solve-mfg")
        assert cfg.model.major.delta == 1.0
        assert np.all(cfg.model.minors[0].H_hat == 1.0)

    def test_missing_seed_in_stochastic_mode(self, tmp_path):
        doc = {"model": scalar_model(), "montecarlo": {"n_paths": 100}}
        path = write_config(tmp_path, doc)
        with pytest.raises(ParseError, match="seed required"):
            load_config(path, "verify-single")

    def test_seed_not_needed_for_solve(self, tmp_path):
        path = write_config(tmp_path, {"model": scalar_model()})
        cfg = load_config(path, "solve-single")
        assert isinstance(cfg.model, LqgProblem)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": \n !}')
        with pytest.raises(ParseError, match="line 2"):
            load_config(str(path), "solve-single")

    def test_missing_model(self, tmp_path):
        path = write_config(tmp_path, {"grid": {"steps": 100}})
        with pytest.raises(ParseError, match="model"):
            load_config(path, "solve-single")

    def test_mode_model_mismatch(self, tmp_path):
        path = write_config(tmp_path, {"model": scalar_model()})
        with pytest.raises(ParseError, match="major_minor"):
            load_config(path, "solve-mfg")

    def test_missing_file(self):
        with pytest.raises(ParseError, match="not found"):
            load_config("/nonexistent/cfg.json", "solve-single")

    def test_config_that_is_a_directory(self, tmp_path, capsys):
        assert main(["solve-single", "--config", str(tmp_path)]) \
            == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps({"model": scalar_model()}).encode()
                         + b"\xff")
        assert main(["solve-single", "--config", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err

    def test_node_array_coefficient(self, tmp_path):
        steps = 50
        nodes = [[[0.1 * i]] for i in range(steps + 1)]
        doc = {"model": scalar_model(A={"nodes": nodes}),
               "grid": {"steps": steps}}
        cfg = load_config(write_config(tmp_path, doc), "solve-single")
        assert cfg.model.A.values[25][0, 0] == pytest.approx(0.1 * 25)

    def test_raw_exponent_delta_conflict(self, tmp_path):
        doc = {"model": scalar_model(raw_exponent=True)}
        with pytest.raises(ParseError, match="delta"):
            load_config(write_config(tmp_path, doc), "solve-single")

    def test_validation_failure_propagates(self, tmp_path):
        doc = {"model": scalar_model(R=[[0.0]])}
        path = write_config(tmp_path, doc)
        assert main(["solve-single", "--config", path]) == EXIT_PARSE


class TestSolveSingleMode:
    def test_end_to_end(self, tmp_path):
        doc = {"model": scalar_model(), "grid": {"steps": 500},
               "output": {"directory": str(tmp_path / "out")}}
        path = write_config(tmp_path, doc)
        assert main(["solve-single", "--config", path]) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "manifest.json").exists()
        assert (out / "solution.csv").exists()
        rows = (out / "scalars.csv").read_text().splitlines()
        name, value = rows[1].split(",")
        assert name == "C_star"
        assert np.isfinite(float(value))

    def test_byte_stable_rerun(self, tmp_path):
        doc = {"model": scalar_model(), "grid": {"steps": 200}}
        path = write_config(tmp_path, doc)
        assert main(["solve-single", "--config", path,
                     "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["solve-single", "--config", path,
                     "--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("manifest.json", "solution.csv", "scalars.csv"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_manifest_hash_tracks_numerics(self, tmp_path):
        doc1 = {"model": scalar_model(), "grid": {"steps": 200}}
        doc2 = {"model": scalar_model(Q=[[1.0000001]]),
                "grid": {"steps": 200}}
        h = []
        for doc in (doc1, doc2):
            cfg = parse_config(doc, "solve-single")
            h.append(run(cfg).manifest["config_sha256"])
        assert h[0] != h[1]

    def test_finite_escape_exit_code(self, tmp_path, capsys):
        doc = {"model": scalar_model(B=[[0.0]], Q_hat=[[10.0]],
                                     sigma=[[5.0]], delta=4.0),
               "grid": {"steps": 500}}
        path = write_config(tmp_path, doc)
        assert main(["solve-single", "--config", path]) == EXIT_FINITE_ESCAPE
        err = capsys.readouterr().err
        assert "finite escape" in err
        assert "t=" in err


class TestVerifySingleMode:
    def test_scalar_tanh_all_z_in_bounds(self, tmp_path):
        doc = {"model": scalar_model(), "grid": {"steps": 400},
               "montecarlo": {"n_paths": 4000, "seed": 3},
               "output": {"directory": str(tmp_path / "out")}}
        path = write_config(tmp_path, doc)
        assert main(["verify-single", "--config", path]) == EXIT_OK
        rows = (tmp_path / "out" / "checks.csv").read_text().splitlines()
        assert rows[0].startswith("check,")
        zs = [float(r.rsplit(",", 1)[1]) for r in rows[1:]]
        assert all(abs(z) <= 3.0 for z in zs)


class TestMfgModes:
    def test_solve_mfg_toy(self, tmp_path):
        doc = bundled_config("toy_model.json")
        doc["grid"] = {"steps": 400}
        path = write_config(tmp_path, doc)
        out = str(tmp_path / "out")
        assert main(["solve-mfg", "--config", path, "--out", out]) == EXIT_OK
        rows = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[1]) < 1e-10
        assert (tmp_path / "out" / "mean_field.csv").exists()
        assert (tmp_path / "out" / "laws.csv").exists()

    def test_reproduce_paper_defaults_to_bundled_model(self, tmp_path):
        doc = {"grid": {"steps": 400}}
        path = write_config(tmp_path, doc)
        out = str(tmp_path / "out")
        assert main(["reproduce-paper", "--config", path,
                     "--out", out]) == EXIT_OK
        rows = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[1]) < 1e-10
        iters = (tmp_path / "out" / "iterations.csv").read_text().splitlines()
        assert iters[0].startswith("iteration,")
        assert len(iters) > 1000  # per-iteration trajectories present

    def test_reproduce_paper_honours_fixedpoint_settings(self, tmp_path,
                                                         capsys):
        doc = bundled_config("toy_model.json")
        doc["model"]["minors"][0]["eta"] = [0.3]
        doc["grid"] = {"steps": 50}
        doc["fixedpoint"] = {"tol": 1e-10, "max_iter": 100,
                             "relaxation": 0.5}
        path = write_config(tmp_path, doc)
        listed = {}
        for mode in ("reproduce-paper", "solve-mfg"):
            assert main([mode, "--config", path,
                         "--out", str(tmp_path / mode)]) == EXIT_OK
            listed[mode] = [os.path.basename(line) for line in
                            capsys.readouterr().out.splitlines()
                            if line.startswith(str(tmp_path))]
        # the files common to both modes are written and listed in one order
        assert [name for name in listed["reproduce-paper"]
                if name != "iterations.csv"] == listed["solve-mfg"]
        for name in ("convergence.csv", "mean_field.csv"):
            assert (tmp_path / "reproduce-paper" / name).read_bytes() \
                == (tmp_path / "solve-mfg" / name).read_bytes()

    def test_not_converged_exit_code(self, tmp_path, capsys):
        doc = bundled_config("paper_example.json")
        doc["grid"] = {"steps": 200}
        doc["fixedpoint"] = {"max_iter": 1}
        path = write_config(tmp_path, doc)
        assert main(["solve-mfg", "--config", path]) == EXIT_NOT_CONVERGED
        assert "did not converge" in capsys.readouterr().err


class TestCsvRendering:
    SPECIAL = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
               1e22, 0.1 + 0.2]

    @staticmethod
    def writer_text(grid, values, entity, lead):
        """What csv.writer writes for the per-value rows."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for i, t in enumerate(grid.nodes):
            for ix in np.ndindex(*values.shape[1:]):
                writer.writerow(lead + (repr(float(t)), entity,
                                        ",".join(map(str, ix)),
                                        repr(float(values[(i,) + ix]))))
        return buf.getvalue()

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("lead", [(), ("7",)])
    def test_matches_csv_writer(self, shape, lead):
        grid = TimeGrid(t_end=0.7, steps=6)
        size = (grid.steps + 1) * int(np.prod(shape))
        values = np.resize(self.SPECIAL, size).reshape((-1,) + shape)
        text = cli._traj_csv(cli._time_column(grid), values, "minor0_gain",
                             *lead)
        assert text == self.writer_text(grid, values, "minor0_gain", lead)
        if shape == (2, 3):
            assert ',"0,1",' in text

    def test_table_header(self):
        grid = TimeGrid(t_end=1.0, steps=2)
        values = np.arange(3.0)
        text = cli._traj_table(grid, [(values, "x"), (2 * values, "y")])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(cli.TRAJ_HEADER)
        assert text == (buf.getvalue()
                        + self.writer_text(grid, values, "x", ())
                        + self.writer_text(grid, 2 * values, "y", ()))

    def test_last_sweep_matches_mean_field(self, tmp_path):
        # the per-sweep and the final rendering of the mean field agree
        path = write_config(tmp_path, {"grid": {"steps": 40}})
        out = tmp_path / "out"
        assert main(["reproduce-paper", "--config", path,
                     "--out", str(out)]) == EXIT_OK
        iters = (out / "iterations.csv").read_text().splitlines()
        mean_field = (out / "mean_field.csv").read_text().splitlines()
        sweeps = len((out / "convergence.csv").read_text().splitlines()) - 1
        assert iters[0] == "iteration," + mean_field[0]
        last = [line.split(",", 1)[1] for line in iters[1:]
                if line.split(",", 1)[0] == str(sweeps)]
        assert last == mean_field[1:]
        assert len(iters) - 1 == sweeps * (len(mean_field) - 1)


SMALL_RUNS = {
    "solve-single": {"model": scalar_model(), "grid": {"steps": 20}},
    "verify-single": {"model": scalar_model(), "grid": {"steps": 20},
                      "montecarlo": {"n_paths": 50, "seed": 1}},
    "solve-mfg": {"grid": {"steps": 20}},
    "reproduce-paper": {"grid": {"steps": 20}},
    "simulate-population": {"grid": {"steps": 20}, "montecarlo": {"seed": 1},
                            "population": {"N": 2, "n_reps": 4}},
    "nash-gap": {"grid": {"steps": 20}, "montecarlo": {"seed": 1},
                 "population": {"N_schedule": [2, 3], "n_reps": 4}},
}


@pytest.mark.parametrize("mode", sorted(SMALL_RUNS))
def test_write_bundle_returns_every_written_file(tmp_path, capsys,
                                                 monkeypatch, mode):
    # benchmarks sum the sizes of the returned paths as the bytes written
    doc = dict(SMALL_RUNS[mode])
    doc.setdefault("model", bundled_config("paper_example.json")["model"])
    path = write_config(tmp_path, doc)
    returned = []

    def recording(bundle, out_dir):
        paths = write_bundle(bundle, out_dir)
        returned.extend(paths)
        return paths

    write_bundle = cli.write_bundle
    monkeypatch.setattr(cli, "write_bundle", recording)
    out = tmp_path / "out"
    assert main([mode, "--config", path, "--out", str(out)]) == EXIT_OK
    assert sorted(returned) == sorted(str(out / name)
                                      for name in os.listdir(out))
    printed = capsys.readouterr().out.splitlines()
    assert printed[:len(returned)] == returned
    assert all(not line.startswith(str(out))
               for line in printed[len(returned):])


class TestPopulationModes:
    def test_simulate_population(self, tmp_path):
        doc = bundled_config("paper_example.json")
        doc["grid"] = {"steps": 200}
        doc["population"] = {"N": 3, "n_reps": 40}
        path = write_config(tmp_path, doc)
        out = str(tmp_path / "out")
        assert main(["simulate-population", "--config", path,
                     "--out", out]) == EXIT_OK
        rows = (tmp_path / "out" / "costs.csv").read_text().splitlines()
        assert len(rows) == 1 + 1 + 3  # header, major, three minors
        assert (tmp_path / "out" / "empirical_avg.csv").exists()
        assert (tmp_path / "out" / "fluctuations.csv").exists()

    def test_nash_gap_mode(self, tmp_path):
        doc = bundled_config("paper_example.json")
        doc["grid"] = {"steps": 200}
        doc["population"] = {"N_schedule": [2, 4], "n_reps": 50,
                             "agent": "major"}
        path = write_config(tmp_path, doc)
        out = str(tmp_path / "out")
        assert main(["nash-gap", "--config", path, "--out", out]) == EXIT_OK
        rows = (tmp_path / "out" / "gaps.csv").read_text().splitlines()
        # header + 2 N values x (equilibrium + 6 deviations)
        assert len(rows) == 1 + 2 * 7
        assert (tmp_path / "out" / "slopes.csv").exists()

    def test_noise_free_nash_gap_writes_no_nan(self, tmp_path):
        # without noise every fluctuation mean is 0, so no log-log slope
        # exists: its field is empty rather than nan
        doc = bundled_config("paper_example.json")
        doc["model"]["major"]["sigma"] = [[0.0]]
        doc["model"]["minors"][0]["sigma"] = [[0.0]]
        doc["grid"] = {"steps": 50}
        doc["population"]["n_reps"] = 20
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["nash-gap", "--config", path, "--out", str(out)]) \
            == EXIT_OK
        for f in out.iterdir():
            assert "nan" not in f.read_text().lower(), f.name
        assert (out / "slopes.csv").read_text().splitlines()[1:] == [
            "slope_sup,", "slope_terminal,"]


    @pytest.mark.parametrize("mode,population", [
        ("nash-gap", {"N_schedule": [1, 5], "n_reps": 4}),
        ("simulate-population", {"N": 1, "n_reps": 4}),
    ])
    def test_type_without_agents_exits_2(self, tmp_path, capsys, mode,
                                         population):
        # two minor types with pi = [0.6, 0.4]: N=1 gives type 1 no agents
        doc = bundled_config("paper_example.json")
        doc["model"]["minors"] *= 2
        doc["model"]["pi"] = [0.6, 0.4]
        doc["grid"] = {"steps": 50}
        doc["population"] = population
        path = write_config(tmp_path, doc)
        assert main([mode, "--config", path]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "N=1" in err


class TestForkMap:
    def test_workers_return_results_in_input_order(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "FORK_MIN_STEPS", 0)
        out = cli.fork_map(lambda j: (j * j, os.getpid()), [1, 2, 3],
                           sizes=[1, 3, 2])
        assert [r for r, _ in out] == [1, 4, 9]
        assert os.getpid() not in {pid for _, pid in out}

    def test_one_cpu_runs_in_process_largest_first(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        calls = []
        out = cli.fork_map(lambda j: calls.append(j) or os.getpid(),
                           [1, 2, 3], sizes=[1, 3, 2])
        assert out == [os.getpid()] * 3
        assert calls == [2, 3, 1]

    def test_small_maps_run_in_process(self, monkeypatch):
        # below FORK_MIN_STEPS in total the forks would cost more than
        # the work
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        small = [cli.FORK_MIN_STEPS // 3] * 3
        out = cli.fork_map(lambda j: os.getpid(), [1, 2, 3], sizes=small)
        assert out == [os.getpid()] * 3
        out = cli.fork_map(lambda j: os.getpid(), [1, 2, 3],
                           sizes=[cli.FORK_MIN_STEPS, 0, 0])
        assert os.getpid() not in out

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_failure_in_submission_order(self, monkeypatch, cpus):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "FORK_MIN_STEPS", 0)

        def fail(j):
            raise NonFiniteState(float(j))

        with pytest.raises(NonFiniteState) as exc:
            cli.fork_map(fail, [1, 2, 3], sizes=[1, 3, 2])
        assert exc.value.t == 2.0
        if cpus == 2:
            # the child's traceback crosses the fork with the error
            assert any(note.startswith("raised in a forked child")
                       for note in exc.value.__notes__)

    def test_failing_maps_shut_down(self):
        # each of 200 failing maps must reap its children and return; they
        # run in a child process with a timeout, so that a hang fails
        script = f"""
import sys
sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})
from rsmfg import cli
from rsmfg.errors import NonFiniteState
cli._usable_cpus = lambda: 2
cli.FORK_MIN_STEPS = 0

def fail(j):
    raise NonFiniteState(float(j))

for _ in range(200):
    try:
        cli.fork_map(fail, [1, 2, 3], sizes=[1, 3, 2])
    except NonFiniteState:
        pass
"""
        subprocess.run([sys.executable, "-c", script], check=True,
                       timeout=60)

    @pytest.mark.parametrize("outcome, status", [
        ("os._exit(3)", 3 << 8), ("lambda: j", 1 << 8)],
        ids=["exit", "unpicklable"])
    def test_child_without_an_outcome(self, outcome, status):
        # a child that leaves by os._exit, or whose result does not
        # pickle, fails the map with its wait status; in a child process
        # with a timeout, as a map that waits on a lost job never returns
        script = f"""
import os, sys
sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})
from rsmfg import cli
cli._usable_cpus = lambda: 2
cli.FORK_MIN_STEPS = 0
try:
    cli.fork_map(lambda j: {outcome} if j == 2 else j, [1, 2, 3],
                 sizes=[1, 3, 2])
except RuntimeError as e:
    print(e)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""
        done = subprocess.run([sys.executable, "-c", script], check=True,
                              capture_output=True, text=True, timeout=60)
        error, left = done.stdout.splitlines()
        assert re.fullmatch(rf"forked child \d+ ended with wait status "
                            rf"{status}", error)
        assert left == "no child left"

    def test_at_most_one_child_per_cpu(self, monkeypatch, tmp_path):
        # the parent forks only after it has reaped a child, so the count
        # of overlapping intervals is exact, whatever the timing
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "FORK_MIN_STEPS", 0)
        log = tmp_path / "stamps"

        def stamped(j):
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            os.write(fd, f"{time.monotonic()!r} 1\n".encode())
            time.sleep(0.02)
            os.write(fd, f"{time.monotonic()!r} -1\n".encode())
            os.close(fd)
            return j

        assert cli.fork_map(stamped, list(range(5)), sizes=[1] * 5) \
            == list(range(5))
        # an end sorts before a start at the same time
        stamps = sorted(tuple(map(float, line.split()))
                        for line in log.read_text().splitlines())
        assert len(stamps) == 10
        assert max(itertools.accumulate(step for _, step in stamps)) <= 2


def _two_type_game():
    doc = bundled_config("paper_example.json")
    doc["model"]["minors"] *= 2
    doc["model"]["minors"][1] = dict(doc["model"]["minors"][1],
                                     A=[[-4.0]])
    doc["model"]["pi"] = [0.6, 0.4]
    return doc


_WORKER_RUNS = {
    "nash-major": ("nash-gap", dict(
        bundled_config("paper_example.json"), grid={"steps": 50},
        population={"N_schedule": [2, 6, 3], "n_reps": 20,
                    "agent": "major"})),
    "nash-minor": ("nash-gap", dict(
        _two_type_game(), grid={"steps": 40},
        population={"N_schedule": [4, 2], "n_reps": 16, "agent": 1})),
    "verify": ("verify-single", {
        "model": scalar_model(b=[0.1], S=[[0.2]], eta=[0.3], zeta=[0.1]),
        "grid": {"steps": 50}, "montecarlo": {"n_paths": 300, "seed": 5}}),
    # the sweeps' iterates formatted in a forked child or in-process
    "paper": ("reproduce-paper", {"grid": {"steps": 50}}),
    # three path blocks of 3000 per ensemble
    "verify-blocks": ("verify-single", {
        "model": scalar_model(b=[0.1], S=[[0.2]], eta=[0.3], zeta=[0.1]),
        "grid": {"steps": 10}, "montecarlo": {"n_paths": 9000, "seed": 5}}),
}


@pytest.mark.parametrize("name", sorted(_WORKER_RUNS))
def test_worker_count_keeps_every_output(tmp_path, monkeypatch, name):
    mode, doc = _WORKER_RUNS[name]
    path = write_config(tmp_path, doc)
    monkeypatch.setattr(cli, "FORK_MIN_STEPS", 0)
    outs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main([mode, "--config", path, "--out", str(out)]) == EXIT_OK
        _no_child_left()
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    for out in outs[1:]:
        assert names == sorted(os.listdir(out))
        for file in names:
            assert (outs[0] / file).read_bytes() == (out / file).read_bytes()


def test_path_blocks_give_the_library_checks(tmp_path, monkeypatch):
    # the blocks joined in path order feed the estimators of check_*; the
    # optimal-cost check reads the quotient's ensemble on seed + 2
    mode, doc = _WORKER_RUNS["verify-blocks"]
    monkeypatch.setattr(cli, "FORK_MIN_STEPS", 0)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    assert main([mode, "--config", write_config(tmp_path, doc), "--out",
                 str(out)]) == EXIT_OK
    rows = list(csv.reader(io.StringIO((out / "checks.csv").read_text())))
    cfg = parse_config(doc, mode)
    p, sol, seed = cfg.model, solve(cfg.model, cfg.grid), 5
    norm = check_normalization(p, sol, 9000, seed)
    cost = check_optimal_cost(p, sol, 9000, seed + 2)
    quot = check_martingale_quotient(p, sol, 9000, seed + 2)
    assert rows[1:] == [
        ["normalization", "", repr(norm.value), repr(norm.target),
         repr(norm.std_error), repr(norm.z)],
        ["optimal_cost", "", repr(cost.value), repr(cost.target),
         repr(cost.std_error), repr(cost.z)],
        ["martingale_quotient", "0", repr(float(quot.quotient[0])),
         repr(float(quot.target[0])), repr(float(quot.std_error[0])),
         repr(float(quot.z[0]))]]


def test_sampled_checks_simulate_two_ensembles(tmp_path, monkeypatch):
    # normalization on seed, optimal cost and quotient on seed + 2: two
    # ensembles of n_paths paths, each path M steps
    mode, doc = _WORKER_RUNS["verify"]
    steps = []

    def counting(p, law, paths, seed, grid, **kw):
        steps.append(len(paths) * grid.steps)
        return _run_paths(p, law, paths, seed, grid, **kw)

    monkeypatch.setattr(cli, "_run_paths", counting)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert main([mode, "--config", write_config(tmp_path, doc)]) == EXIT_OK
    assert sum(steps) == 2 * 300 * 50


def _error_at_every_worker_count(tmp_path, monkeypatch, capsys, mode,
                                 doc) -> str:
    """The stderr of a run that exits 5, the same for 1, 2 and 3 CPUs."""
    path = write_config(tmp_path, doc)
    monkeypatch.setattr(cli, "FORK_MIN_STEPS", 0)
    errs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert main([mode, "--config", path]) == EXIT_NON_FINITE
        _no_child_left()
        errs.append(capsys.readouterr().err)
    assert errs[1:] == errs[:1] * 2
    assert errs[0].startswith("error: simulation became non-finite")
    assert "Traceback" not in errs[0]
    return errs[0]


def test_worker_error_keeps_exit_code(tmp_path, monkeypatch, capsys):
    # a major starting past the blow-up bound: the fixed point converges,
    # and every population pass fails at its first step
    doc = bundled_config("paper_example.json")
    doc["model"]["major"]["x0"] = [2e8]
    doc["grid"] = {"steps": 50}
    doc["fixedpoint"] = {"tol": 1e-4}
    doc["population"] = {"N_schedule": [2, 4], "n_reps": 4}
    _error_at_every_worker_count(tmp_path, monkeypatch, capsys, "nash-gap",
                                 doc)


def test_path_block_error_keeps_exit_code(tmp_path, monkeypatch, capsys):
    # uncontrolled (Q = Q_hat = 0) explosive paths pass the blow-up bound
    # while the state transition e^{15 t} stays below it; the quotient's
    # three blocks (seed 7 + 2) fail at t = 55/60, 54/60 and 54/60, and
    # the first of them in submission order is the error
    doc = {"model": scalar_model(A=[[15.0]], Q=[[0.0]], sigma=[[1000.0]],
                                 x0=[0.0]),
           "grid": {"steps": 60}, "montecarlo": {"n_paths": 9000, "seed": 7}}
    err = _error_at_every_worker_count(tmp_path, monkeypatch, capsys,
                                       "verify-single", doc)
    cfg = parse_config(doc, "verify-single")
    with pytest.raises(NonFiniteState) as exc:
        check_martingale_quotient(cfg.model, solve(cfg.model, cfg.grid),
                                  9000, 9)
    assert exc.value.t == cfg.grid.nodes[55]
    assert err == ("error: simulation became non-finite at "
                   f"t={exc.value.t:.6g}\n")


def test_output_below_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    path = write_config(tmp_path, {"model": scalar_model(),
                                   "grid": {"steps": 50}})
    assert main(["solve-single", "--config", path, "--out", str(out)]) \
        == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSweepFormatter:
    # reproduce-paper formats each sweep's iterate in a forked child
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)

    def run(self, tmp_path, doc):
        out = tmp_path / "out"
        return main(["reproduce-paper", "--config",
                     write_config(tmp_path, doc), "--out", str(out)]), out

    def test_converged_run_leaves_no_child(self, tmp_path):
        code, out = self.run(tmp_path, {"grid": {"steps": 50}})
        assert code == EXIT_OK and (out / "iterations.csv").exists()
        _no_child_left()

    def test_unconverged_run_leaves_no_child(self, tmp_path, capsys):
        code, out = self.run(tmp_path, {"grid": {"steps": 50},
                                        "fixedpoint": {"max_iter": 2}})
        assert code == EXIT_NOT_CONVERGED and not out.exists()
        _no_child_left()

    def test_child_error_fails_the_run(self, tmp_path, monkeypatch):
        parent, traj_csv = os.getpid(), cli._traj_csv

        def fail_in_child(*args):
            if os.getpid() != parent:
                raise ValueError("formatting failed in the child")
            return traj_csv(*args)

        monkeypatch.setattr(cli, "_traj_csv", fail_in_child)
        with pytest.raises(ValueError, match="in the child"):
            self.run(tmp_path, {"grid": {"steps": 50}})
        assert not (tmp_path / "out").exists()
        _no_child_left()


def test_noise_free_verify_starts_no_worker(tmp_path, monkeypatch):
    # sigma = 0: the quotient, the one check written, integrates its one
    # path by RK4 in-process
    def no_pool(fn, jobs, sizes):
        raise AssertionError("fork_map called")

    monkeypatch.setattr(cli, "fork_map", no_pool)
    monkeypatch.setattr(cli, "FORK_MIN_STEPS", 0)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    doc = {"model": scalar_model(sigma=[[0.0]]), "grid": {"steps": 50},
           "montecarlo": {"n_paths": 9000, "seed": 5}}
    out = tmp_path / "out"
    path = write_config(tmp_path, doc)
    assert main(["verify-single", "--config", path, "--out", str(out)]) \
        == EXIT_OK
    rows = list(csv.DictReader(io.StringIO((out / "checks.csv").read_text())))
    assert [(row["check"], row["std_error"]) for row in rows] \
        == [("martingale_quotient", "0.0")]


def _with(doc, section, **fields):
    doc = json.loads(json.dumps(doc))
    doc.setdefault(section, {}).update(fields)
    return doc


def _without_minor_field(doc, key):
    doc = json.loads(json.dumps(doc))
    del doc["model"]["minors"][0][key]
    return doc


def _with_minor_field(doc, key, value):
    doc = json.loads(json.dumps(doc))
    doc["model"]["minors"][0][key] = value
    return doc


_VERIFY = {"model": scalar_model(), "grid": {"steps": 50},
           "montecarlo": {"n_paths": 100, "seed": 1}}
_GAME = dict(bundled_config("paper_example.json"), grid={"steps": 50})
_PAPER = {"grid": {"steps": 50}}


@pytest.mark.parametrize("mode,doc", [
    ("solve-single", {"model": scalar_model(), "grid": {"steps": 1}}),
    ("solve-single", [scalar_model()]),
    ("verify-single", _with(_VERIFY, "montecarlo", n_paths=0)),
    ("verify-single", _with(_VERIFY, "montecarlo", n_paths=1)),
    ("simulate-population", _with(_GAME, "population", N=0)),
    ("nash-gap", _with(_GAME, "population", N_schedule=[0])),
    ("nash-gap", _with(_GAME, "population", n_reps=1)),
    ("nash-gap", _with(_GAME, "population", N_schedule=5)),
    ("nash-gap", _with(_GAME, "population", N_schedule=[2, 4], agent=2)),
    ("solve-mfg", dict(_GAME, threads="x")),
    ("solve-mfg", _without_minor_field(_GAME, "A")),
    ("solve-mfg", dict(_GAME, model=5)),
    ("verify-single", _with(_VERIFY, "model", A="x")),
    ("verify-single", _with(_VERIFY, "model", A=[[1, 2], [3]])),
    ("verify-single", _with(_VERIFY, "model", sigma={"nodes": "abc"})),
    ("verify-single", _with(_VERIFY, "model", Q="q")),
    ("solve-mfg", _with_minor_field(_GAME, "R", [[1.0], [2.0, 3.0]])),
    ("reproduce-paper", _with(_PAPER, "fixedpoint", tol="abc")),
    ("reproduce-paper", _with(_PAPER, "fixedpoint", max_iter="a")),
    ("reproduce-paper", _with(_PAPER, "fixedpoint", relaxation=[1, 2])),
    ("reproduce-paper", _with(_PAPER, "fixedpoint", max_iter=0)),
    ("reproduce-paper", _with(_PAPER, "fixedpoint", relaxation=1.0)),
    ("reproduce-paper", _with(_PAPER, "fixedpoint", tol=-1)),
    ("reproduce-paper", _with(_PAPER, "fixedpoint", tol=float("nan"))),
    ("verify-single", _with(_VERIFY, "montecarlo", seed="x")),
    ("verify-single", _with(_VERIFY, "montecarlo", seed=-1)),
    ("verify-single", _with(_VERIFY, "montecarlo", seed=1e30)),
    ("reproduce-paper", dict(_PAPER, fixedpoints={"max_iter": 1})),
    ("reproduce-paper", _with(_PAPER, "fixedpoint", max_iter=30.5)),
    ("verify-single", _with(_VERIFY, "montecarlo", seed=True)),
    ("verify-single", _with(_VERIFY, "grid", steps="50")),
    ("nash-gap", _with(_GAME, "population", N_schedule=[2.0, 3.5],
                       n_reps=4)),
    ("solve-mfg", _with(_GAME, "model", raw_exponent="no")),
    ("nash-gap", _with(_GAME, "population", N_schedule=[2, 2], n_reps=4)),
    ("solve-mfg", _with(_GAME, "output", directory=5)),
    ("reproduce-paper", _with(_PAPER, "grid", step=7)),
    ("reproduce-paper", _with(_PAPER, "fixedpoint", max_iters=1)),
    ("verify-single", _with(_VERIFY, "montecarlo", npaths=100)),
    ("solve-mfg", _with(_GAME, "population", NN=5)),
    ("solve-mfg", _with(_GAME, "output", dir="out")),
    ("solve-single", {"model": scalar_model(s=[[5.0]])}),
    ("solve-single", {"model": scalar_model(etaa=[3.0])}),
    ("verify-single", _with(_VERIFY, "model",
                            sigma={"nodes": [[[1.0]]] * 51, "kind": 1})),
    ("solve-mfg", _with(_GAME, "model", N=5)),
    ("solve-mfg", _with(_GAME, "model", major=dict(
        _GAME["model"]["major"], Sigma=[[0.5]]))),
    ("solve-mfg", _with_minor_field(_GAME, "etaa", [0.0])),
    ("verify-single", _with(_VERIFY, "model", T="1")),
    ("verify-single", _with(_VERIFY, "model", delta=True)),
    ("verify-single", _with(_VERIFY, "model", Q=[["7"]])),
    ("verify-single", _with(_VERIFY, "model", x0=["1"])),
], ids=["steps-1", "top-level-list", "n_paths-0", "n_paths-1", "N-0",
        "N_schedule-0", "n_reps-1", "N_schedule-scalar", "agent-outside",
        "threads-text", "minor-without-A", "model-not-object", "A-text",
        "A-ragged", "sigma-nodes-text", "Q-text", "minor-R-ragged",
        "tol-text", "max_iter-text", "relaxation-list", "max_iter-0",
        "relaxation-1", "tol-negative", "tol-nan", "seed-text",
        "seed-negative", "seed-1e30",
        "section-typo", "max_iter-float", "seed-bool", "steps-text",
        "N_schedule-float", "raw_exponent-text", "N_schedule-repeated",
        "directory-number", "grid-unknown", "fixedpoint-unknown",
        "montecarlo-unknown", "population-unknown", "output-unknown",
        "single-model-unknown", "single-model-misspelled", "nodes-unknown",
        "game-model-unknown", "major-unknown", "minor-unknown", "T-text",
        "delta-bool", "Q-entry-text", "x0-entry-text"])
def test_malformed_config_exits_2(tmp_path, capsys, mode, doc):
    path = write_config(tmp_path, doc)
    assert main([mode, "--config", path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("mode,doc,field", [
    ("reproduce-paper", {"fixedpoint": {"max_iters": 1},
                         "grid": {"steps": 50}}, "fixedpoint: unknown field "
     "'max_iters'"),
    ("solve-single", {"model": scalar_model(etaa=[3.0])},
     "model: unknown field 'etaa'"),
    ("solve-mfg", _with_minor_field(_GAME, "etaa", [0.0]),
     "minors[0]: unknown field 'etaa'"),
    ("reproduce-paper", _with(_PAPER, "fixedpoint", eta_hat_sign=-1),
     "fixedpoint: unknown field 'eta_hat_sign'"),
], ids=["section", "model", "minor", "eta_hat_sign"])
def test_unknown_field_is_named(tmp_path, capsys, mode, doc, field):
    # before, these ran with exit 0: every sweep of a 1-sweep limit, or
    # eta = 0 in place of the misspelled etaa; eta_hat_sign, once a
    # switch of the minors' linear cost term, is no longer read
    assert main([mode, "--config", write_config(tmp_path, doc)]) == EXIT_PARSE
    assert field in capsys.readouterr().err


# config fuzzing: one field of a small valid config removed or replaced
_REMOVE = object()
_BAD_VALUES = ("x", True, None, [], {}, -1, -2.5, 0)
# absent, these take defaults far above the fuzz's size cap of 8
_KEEP = {("grid",), ("grid", "steps"), ("montecarlo",),
         ("montecarlo", "n_paths"), ("population",),
         ("population", "n_reps"), ("population", "N_schedule")}


def _fuzz_bases():
    small = {"grid": {"steps": 8}, "montecarlo": {"n_paths": 8, "seed": 1},
             "output": {"directory": "out"}}
    single = dict(small, model=scalar_model(b=[0.1], S=[[0.0]], eta=[0.2],
                                            zeta=[0.0]))
    model = bundled_config("paper_example.json")["model"]
    for agent in [model["major"]] + model["minors"]:
        agent.update(b=[0.1], S=[[0.0]], Q_hat=[[0.5]], eta=[0.2])
    game = dict(small, model=model,
                fixedpoint={"tol": 1e-10, "max_iter": 50, "relaxation": 0.0},
                population={"N": 3, "N_schedule": [2, 4], "n_reps": 4,
                            "agent": 0})
    return {"solve-single": single, "verify-single": single,
            **{mode: game for mode in ("solve-mfg", "simulate-population",
                                       "nash-gap", "reproduce-paper")}}


def _field_paths(doc):
    """Every section, every field of a section, of major and of minors[k]."""
    for section, fields in doc.items():
        yield (section,)
        yield from ((section, key) for key in fields)
    model = doc["model"]
    if model["type"] == "major_minor":
        yield from (("model", "major", key) for key in model["major"])
        for k, minor in enumerate(model["minors"]):
            yield from (("model", "minors", k, key) for key in minor)


_FUZZ_CASES = [
    (mode, path, value)
    for mode, base in _fuzz_bases().items()
    for path in _field_paths(base)
    for value in (_REMOVE,) + _BAD_VALUES
    if not (value is _REMOVE and path in _KEEP)
    and not (path == ("output", "directory") and isinstance(value, str))
]


@settings(derandomize=True, deadline=None, max_examples=900)
@given(case=st.sampled_from(_FUZZ_CASES))
def test_fuzzed_config_exit_code(tmp_path_factory, case):
    mode, path, value = case
    tmp = tmp_path_factory.getbasetemp() / "fuzz"
    tmp.mkdir(exist_ok=True)
    doc = json.loads(json.dumps(_fuzz_bases()[mode]))
    doc["output"]["directory"] = str(tmp / "out")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _REMOVE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([mode, "--config", write_config(tmp, doc)])
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()
