import ast
import contextlib
import errno
import gc
import importlib
import io
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fracstar._csvio
import fracstar.cli
from fracstar import (
    ConfigError,
    SolverFailure,
    assemble_graph_system,
    diagnose_forward,
    optimize,
    solve_adjoint_graph,
    solve_forward_graph,
)
from conftest import assert_no_child_processes, splitting
from fracstar._csvio import RowWriter
from fracstar.cli import main, parse_config

EDGE_INI = """
[problem]
alpha = 0.6
T = 1.0
nt = 16

[edge.1]
a = 0.0
b = 1.0
m_cells = 12
beta = const:1.0
q = const:1.0
f = zero
y0 = const:0.5
ydtarget = const:0.25

[control.1]
kind = neumann
uad = box:-2.0:2.0
weight = 0.5

[optimizer]
algo = projected_gradient
tol = 1e-7
max_iter = 200
tikhonov_n = 0.5
"""

GRAPH_INI = """
[problem]
alpha = 0.7
T = 0.8
nt = 12
n = 3
m_split = 2

[edge.1]
a = 0.0
b = 1.0
m_cells = 8
beta = const:1.0
q = const:1.0
ydtarget = const:0.3

[edge.2]
a = 0.0
b = 0.8
m_cells = 7
beta = const:1.2
q = const:0.8
ydtarget = const:0.3

[edge.3]
a = 0.0
b = 1.2
m_cells = 9
beta = const:0.9
q = const:1.1
ydtarget = const:0.3

[control.2]
kind = dirichlet
uad = box:-0.5:0.5

[control.3]
kind = neumann
uad = unconstrained

[optimizer]
tol = 1e-7
max_iter = 100
"""


@pytest.fixture(autouse=True)
def no_child_left():
    """A worker a test leaks is caught by that test: every child process it
    started has been reaped when it ends."""
    yield
    assert_no_child_processes()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def run_cli(argv, code=None, env=None):
    """Run ``python -m fracstar.cli argv`` in a child process, through ``code``
    run first (``python -c``) when given, with ``env`` (by default this
    process's environment)."""
    src = str(Path(fracstar.__file__).resolve().parents[1])
    lead = ["-c", code] if code else ["-m", "fracstar.cli"]
    return subprocess.run(
        [sys.executable, *lead, *argv],
        env=dict(os.environ if env is None else env, PYTHONPATH=src),
        capture_output=True, text=True,
    )


class TestParseConfig:
    def test_minimal_edge_config(self, tmp_path):
        cfg = parse_config(write(tmp_path, "edge.ini", EDGE_INI))
        problem = cfg.problem
        # a single edge is the one-edge graph, m = 0
        assert problem.n == 1 and problem.m == 0
        assert problem.alpha == 0.6 and problem.time_grid.Nt == 16
        # its one channel, [control.1], is Neumann
        assert cfg.channels == [1]
        assert problem.n_dirichlet_channels == 0 and problem.n_neumann_channels == 1
        assert cfg.sets[0] == (-2.0, 2.0)

    def test_graph_config(self, tmp_path):
        cfg = parse_config(write(tmp_path, "graph.ini", GRAPH_INI))
        problem = cfg.problem
        assert problem.n == 3 and problem.m == 2
        # channels 2..m are Dirichlet, m+1..n Neumann: [control.2], then [control.3]
        assert cfg.channels == [2, 3]
        assert problem.n_dirichlet_channels == 1 and problem.n_neumann_channels == 1
        assert cfg.sets == [(-0.5, 0.5), (None, None)]

    def test_negative_beta_rejected_with_assumption(self, tmp_path):
        bad = EDGE_INI.replace("beta = const:1.0", "beta = const:-1")
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, "bad.ini", bad))
        assert any("positivity assumption" in v for v in exc.value.violations)

    def test_m_split_one_rejected(self, tmp_path):
        bad = GRAPH_INI.replace("m_split = 2", "m_split = 1")
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, "bad.ini", bad))
        assert any("2 <= m_split <= n" in v for v in exc.value.violations)

    @pytest.mark.parametrize("m_split", [1, 7])
    def test_m_split_must_be_zero_on_a_single_edge(self, tmp_path, m_split):
        # a single edge is the one-edge graph with m = 0; any other split is
        # reported as such, not as a control kind that does not match it
        bad = EDGE_INI.replace("nt = 16\n", f"nt = 16\nm_split = {m_split}\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, "bad.ini", bad))
        assert exc.value.violations == [
            f"m_split must be 0 on a single edge (n = 1), got {m_split}"
        ]
        ok = EDGE_INI.replace("nt = 16\n", "nt = 16\nm_split = 0\n")
        assert parse_config(write(tmp_path, "ok.ini", ok)).problem.m == 0
        # an invalid n is reported alone, not as a single edge
        bad = EDGE_INI.replace("nt = 16\n", f"nt = 16\nn = 0\nm_split = {m_split}\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, "bad_n.ini", bad))
        assert exc.value.violations == ["n must be at least 1, got 0"]

    def test_all_violations_collected(self, tmp_path):
        bad = (
            EDGE_INI.replace("alpha = 0.6", "alpha = 1.4")
            .replace("T = 1.0", "T = -2")
            .replace("q = const:1.0", "q = const:0")
            .replace("f = zero", "f = file:does-not-exist.csv")
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, "bad.ini", bad))
        assert len(exc.value.violations) >= 4

    def test_sections_that_name_nothing(self, tmp_path, capsys):
        # graph channels are 2..n (edge 1 is the clamped root), edges 1..n
        bad = (
            GRAPH_INI.replace("alpha = 0.7", "alpha = 2.0")
            + "\n[control.1]\nkind = dirichlet\n\n[control.7]\n\n[edge.9]\na = 0.0\n"
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, "bad.ini", bad))
        named = [v for v in exc.value.violations if "names nothing" in v]
        assert [v.split()[1] for v in named] == ["[control.1]", "[control.7]", "[edge.9]"]
        assert any("alpha must lie in" in v for v in exc.value.violations)
        assert main(["--output-dir", str(tmp_path), "optimize", str(tmp_path / "bad.ini")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4 and all(line.startswith("config error: ") for line in err)
        # a single edge has only [edge.1] and [control.1]
        bad = EDGE_INI + "\n[control.2]\nkind = neumann\n\n[edge.2]\na = 0.0\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, "bad.ini", bad))
        assert len(exc.value.violations) == 2

    def test_invalid_n_is_reported_alone(self, tmp_path, capsys):
        # the sections of edges 2..3 and their controls are not reported as
        # naming nothing in a problem with n = 1
        bad = write(tmp_path, "bad.ini", GRAPH_INI.replace("n = 3", "n = 0"))
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert exc.value.violations == ["n must be at least 1, got 0"]
        assert main(["--output-dir", str(tmp_path), "optimize", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: n must be at least 1, got 0"
        ]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.ini")

    def test_unreadable_problem_file_is_one_violation(self, tmp_path, capsys):
        # a path that exists but is no file is reported as such, alone, not
        # as a problem file without a [problem] section
        folder = tmp_path / "problem.ini"
        folder.mkdir()
        with pytest.raises(ConfigError) as exc:
            parse_config(folder)
        assert len(exc.value.violations) == 1
        assert exc.value.violations[0].startswith(f"problem file {folder} cannot be read: ")
        assert main(["--output-dir", str(tmp_path), "solve-forward", str(folder)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: {exc.value.violations[0]}"]

    @pytest.mark.parametrize("name", ["a%b.csv", "%(a)s.csv"])
    def test_percent_in_a_value_is_literal(self, tmp_path, name):
        # no interpolation: '%' alone is no syntax error, and '%(a)s' does
        # not read the section's key a
        y0 = np.linspace(0.0, 1.0, 13)
        np.savetxt(tmp_path / name, y0[None, :], delimiter=",")
        ini = write(tmp_path, "edge.ini", EDGE_INI.replace("y0 = const:0.5", f"y0 = file:{name}"))
        assert parse_config(ini).problem.y0[0].tolist() == y0.tolist()

    def test_unknown_keys_reported(self, tmp_path, capsys):
        # a misspelt key would otherwise leave its default in force: here the
        # control penalty would stay 1.0 in place of tikhonov_n = 0.5
        bad = (
            EDGE_INI.replace("weight = 0.5\n", "")
            .replace("tikhonov_n = 0.5", "tikhonv_n = 0.5")
            .replace("nt = 16", "nt = 16\nNT2 = 4")
            .replace("m_cells = 12", "m_cells = 12\nmcells = 12")
            .replace("kind = neumann", "kind = neumann\nbound = 1")
        )
        ini = write(tmp_path, "bad.ini", bad)
        with pytest.raises(ConfigError) as exc:
            parse_config(ini)
        unknown = [v.split(":")[0] for v in exc.value.violations]
        assert unknown == [
            "[problem] nt2", "[edge.1] mcells", "[control.1] bound", "[optimizer] tikhonv_n"
        ]
        assert main(["--output-dir", str(tmp_path), "optimize", str(ini)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4 and all(line.startswith("config error: [") for line in err)
        assert "unknown key" in err[3] and "tikhonov_n" in err[3]
        # every key the format defines is accepted, T in either case
        full = EDGE_INI.replace("nt = 16", "nt = 16\nn = 1\nm_split = 0")
        parse_config(write(tmp_path, "ok.ini", full.replace("T = 1.0", "t = 1.0")))


class TestCommands:
    def test_solve_forward_edge(self, tmp_path):
        ini = write(tmp_path, "edge.ini", EDGE_INI)
        rc = main(["--output-dir", str(tmp_path), "solve-forward", str(ini)])
        assert rc == 0
        header = (tmp_path / "state.csv").read_text().splitlines()[0]
        assert header == "t,edge,x,y"
        assert (tmp_path / "report.txt").exists()

    def test_apriori_report_states_the_relation_that_holds(
        self, tmp_path, capsys, monkeypatch
    ):
        ini = write(tmp_path, "graph.ini", GRAPH_INI)
        assert main(["--output-dir", str(tmp_path), "solve-forward", str(ini)]) == 0
        held = (tmp_path / "report.txt").read_text().splitlines()[:2]
        assert all(" <= bound " in line for line in held)
        assert capsys.readouterr().err == ""

        diagnose = fracstar.cli.diagnose_forward

        def exceeded(*args, **kwargs):
            d = diagnose(*args, **kwargs)
            return d._replace(estimate_ratio=2.0 * d.estimate_bound)

        monkeypatch.setattr(fracstar.cli, "diagnose_forward", exceeded)
        assert main(["--output-dir", str(tmp_path), "solve-forward", str(ini)]) == 0
        energy, final = (tmp_path / "report.txt").read_text().splitlines()[:2]
        assert energy.startswith("graph a-priori estimate, energy norm: measured ")
        assert " > bound " in energy and "<=" not in energy
        assert final == held[1]
        warnings = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("warning:")
        ]
        assert len(warnings) == 1 and "energy norm" in warnings[0]

    def test_seventeen_digit_output(self, tmp_path):
        ini = write(tmp_path, "edge.ini", EDGE_INI)
        main(["--output-dir", str(tmp_path), "solve-forward", str(ini)])
        rows = (tmp_path / "state.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[-1]) for r in rows]
        # y0 = 0.5 everywhere survives the round trip exactly
        assert values[0] == 0.5

    def test_csv_round_trip_is_bitwise(self, tmp_path):
        ini = write(tmp_path, "graph.ini", GRAPH_INI)
        cfg = parse_config(ini)
        problem, cost_cfg, sets = cfg.problem, cfg.cost, cfg.sets
        assert main(["--output-dir", str(tmp_path), "solve-forward", str(ini)]) == 0
        traj = solve_forward_graph(problem)
        state = np.loadtxt(tmp_path / "state.csv", delimiter=",", skiprows=1)
        assert state[:, 3].tobytes() == np.hstack(traj.samples).ravel().tobytes()
        nodes = np.concatenate([g.nodes for g in problem.grids])
        nt = problem.time_grid.Nt
        assert state[:, 2].tobytes() == np.tile(nodes, nt + 1).tobytes()
        times = np.repeat(problem.time_grid.times, len(nodes))
        assert state[:, 0].tobytes() == times.tobytes()

        assert main(["--output-dir", str(tmp_path), "optimize", str(ini)]) == 0
        result = optimize(
            problem, cost_cfg, sets, algo=cfg.algo, tol=cfg.tol, max_iter=cfg.max_iter
        )
        controls = np.loadtxt(tmp_path / "controls.csv", delimiter=",", skiprows=1)
        assert controls[:, 2].tobytes() == result.controls.T.ravel().tobytes()
        assert controls[:, 1].tolist() == [2.0, 3.0] * (nt + 1)

    def test_optimize_edge_outputs(self, tmp_path):
        ini = write(tmp_path, "edge.ini", EDGE_INI)
        rc = main(["--output-dir", str(tmp_path), "optimize", str(ini)])
        assert rc == 0
        assert (tmp_path / "controls.csv").read_text().startswith("t,channel,value")
        conv = (tmp_path / "convergence.csv").read_text().splitlines()
        assert conv[0] == "iter,cost,stationarity"
        costs = [float(r.split(",")[1]) for r in conv[1:]]
        assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))

    def test_optimize_graph(self, tmp_path):
        ini = write(tmp_path, "graph.ini", GRAPH_INI)
        rc = main(["--output-dir", str(tmp_path), "optimize", str(ini)])
        assert rc == 0
        lines = (tmp_path / "controls.csv").read_text().splitlines()[1:]
        channels = {r.split(",")[1] for r in lines}
        assert channels == {"2", "3"}

    def test_optimize_max_iter_warns(self, tmp_path, capsys):
        ini = write(tmp_path, "edge.ini", EDGE_INI.replace("max_iter = 200", "max_iter = 2"))
        rc = main(["--output-dir", str(tmp_path), "optimize", str(ini)])
        assert rc == 0
        assert "warning: not converged" in capsys.readouterr().err
        rows = (tmp_path / "convergence.csv").read_text().splitlines()[1:]
        # one measured stationarity per iterate, the returned one included
        assert len(rows) == 3
        assert rows[-1].split(",")[2] != rows[-2].split(",")[2]
        report = (tmp_path / "report.txt").read_text()
        assert "converged False (max_iter)" in report
        assert report.splitlines()[1].endswith(rows[-1].split(",")[2])

    def test_validate_edge_passes(self, tmp_path, capsys):
        ini = write(tmp_path, "edge.ini", EDGE_INI)
        rc = main(["--output-dir", str(tmp_path), "validate", str(ini)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS  duality" in out and "PASS  oracle-equivalence" in out
        assert "FAIL" not in out

    def test_solve_adjoint(self, tmp_path):
        ini = write(tmp_path, "graph.ini", GRAPH_INI)
        rc = main(["--output-dir", str(tmp_path), "solve-adjoint", str(ini)])
        assert rc == 0
        report = (tmp_path / "report.txt").read_text().splitlines()
        assert report[0] == "adjoint solve complete (source y - y_d)"
        assert report[1].startswith("boundary regularity ratio: ")

    def test_solve_adjoint_edge_report(self, tmp_path):
        ini = write(tmp_path, "edge.ini", EDGE_INI)
        rc = main(["--output-dir", str(tmp_path), "solve-adjoint", str(ini)])
        assert rc == 0
        # one label for every n; no regularity line without Dirichlet tips
        report = (tmp_path / "report.txt").read_text().splitlines()
        assert report == ["adjoint solve complete (source y - y_d)"]

    def test_validate_passes(self, tmp_path, capsys):
        ini = write(tmp_path, "graph.ini", GRAPH_INI)
        rc = main(["--output-dir", str(tmp_path), "validate", str(ini)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "PASS  duality" in out

    def test_validate_skips_energy_decay_with_a_source(self, tmp_path, capsys):
        # energy decays only without a source: unforced, the check runs
        ini = write(tmp_path, "graph.ini", GRAPH_INI)
        assert main(["--output-dir", str(tmp_path), "validate", str(ini)]) == 0
        assert "PASS  energy-decay: monotone" in capsys.readouterr().out
        # with f = 5 the energy grows, and the check is skipped, not passed
        text = GRAPH_INI.replace(
            "ydtarget = const:0.3\n", "ydtarget = const:0.3\nf = const:5.0\n"
        )
        ini = write(tmp_path, "forced.ini", text)
        problem = parse_config(ini).problem
        system = assemble_graph_system(problem)
        d = diagnose_forward(system, solve_forward_graph(problem, system=system))
        assert np.diff(d.energy).max() > 0.1
        rc = main(["--output-dir", str(tmp_path), "validate", str(ini)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SKIP  energy-decay: the source f is nonzero" in out.splitlines()
        assert "PASS  energy-decay" not in out
        assert "energy-decay" not in (tmp_path / "report.txt").read_text()

    def test_validate_alpha_one_with_vertex_datum(self, tmp_path, capsys):
        # y0 nonzero at the pinned first node: the oracle marches from the full y0
        text = GRAPH_INI.replace("alpha = 0.7", "alpha = 1.0").replace(
            "ydtarget = const:0.3\n", "ydtarget = const:0.3\ny0 = const:0.5\n", 1
        )
        ini = write(tmp_path, "graph.ini", text)
        rc = main(["--output-dir", str(tmp_path), "validate", str(ini)])
        out = capsys.readouterr().out
        assert "PASS  oracle-equivalence" in out and "FAIL" not in out
        assert rc == 0

    @pytest.mark.parametrize(
        "text, old, new",
        [(EDGE_INI, "y0 = const:0.5", "y0 = const:1e6"),
         (EDGE_INI, "y0 = const:0.5", "y0 = const:1e8"),
         (GRAPH_INI, "[edge.2]", "y0 = const:1e6\n\n[edge.2]"),
         (GRAPH_INI, "[edge.2]", "y0 = const:1e8\n\n[edge.2]"),
         (EDGE_INI.replace("beta = const:1.0", "beta = const:1e-8")
          .replace("q = const:1.0", "q = const:1e-8"), "y0 = const:0.5", "y0 = const:1e10")],
        ids=["edge-1e6", "edge-1e8", "graph-1e6", "graph-1e8", "edge-1e10-small-coefficients"],
    )
    def test_validate_passes_on_large_data(self, tmp_path, capsys, text, old, new):
        # roundoff grows with the data, about 1e-15 of it here: each bound is
        # relative to the size of what it compares
        ini = write(tmp_path, "large.ini", text.replace(old, new))
        rc = main(["--output-dir", str(tmp_path), "validate", str(ini)])
        lines = capsys.readouterr().out.splitlines()
        checks = ["integration-by-parts", "trace-telescoping", "oracle-equivalence",
                  "junction-balance", "dirichlet-constraints", "energy-decay", "duality"]
        assert [line.split(":")[0] for line in lines] == [f"PASS  {c}" for c in checks]
        assert rc == 0

    @pytest.mark.parametrize("y0", ["0.4", "1e6", "1e8"])
    @pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "perturbed"])
    def test_validate_sees_a_multiplier_off_by_1e_9(
        self, tmp_path, capsys, monkeypatch, y0, perturbed
    ):
        # the last tip multiplier of every step scaled by 1 + 1e-9 (its rows of
        # the Schur inverse and of the update), the states solved with it:
        # junction balance and the Dirichlet constraints both fail, and pass
        # on the exact system
        assemble = fracstar.cli.assemble_graph_system

        def wrong_multiplier(problem):
            system = assemble(problem)
            scale = np.ones((len(system.update_rows), 1))
            scale[-1] += 1e-9
            return system._replace(
                update_rows=system.update_rows * scale,
                schur_inv=system.schur_inv * scale[-len(system.schur_inv) :],
            )

        if perturbed:
            monkeypatch.setattr(fracstar.cli, "assemble_graph_system", wrong_multiplier)
        text = GRAPH_INI.replace("[edge.2]", f"y0 = const:{y0}\n\n[edge.2]")
        ini = write(tmp_path, "graph.ini", text)
        rc = main(["--output-dir", str(tmp_path), "validate", str(ini)])
        lines = capsys.readouterr().out.splitlines()
        verdict = "FAIL" if perturbed else "PASS"
        for check in ("junction-balance", "dirichlet-constraints"):
            assert any(line.startswith(f"{verdict}  {check}: ") for line in lines)
        assert rc == (4 if perturbed else 0)

    def test_unknown_algorithm_is_config_error(self, tmp_path, capsys):
        ini = write(tmp_path, "bad.ini", EDGE_INI.replace("= projected_gradient", "= newton"))
        assert main(["--output-dir", str(tmp_path), "optimize", str(ini)]) == 2
        assert capsys.readouterr().err == (
            "config error: optimizer.algo must be projected_gradient or fixed_point, "
            "got 'newton'\n"
        )

    def test_config_error_exit_code(self, tmp_path):
        bad = EDGE_INI.replace("alpha = 0.6", "alpha = 2.0")
        ini = write(tmp_path, "bad.ini", bad)
        assert main(["--output-dir", str(tmp_path), "optimize", str(ini)]) == 2

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_output_dir_that_cannot_be_created(self, tmp_path, capsys, below):
        # a file stands where the directory (or a parent of it) would go
        (tmp_path / "taken").write_text("")
        ini = write(tmp_path, "edge.ini", EDGE_INI)
        out = tmp_path / "taken" / below
        assert main(["--output-dir", str(out), "solve-forward", str(ini)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("output error: ") and "taken" in captured.err

    @pytest.mark.parametrize(
        "content", ["0.1,0.2,not-a-number\n", ",".join(["nan"] * 13) + "\n"]
    )
    def test_bad_data_file_is_config_error(self, tmp_path, capsys, content):
        (tmp_path / "y0.csv").write_text(content)
        ini = write(tmp_path, "edge.ini", EDGE_INI.replace("y0 = const:0.5", "y0 = file:y0.csv"))
        rc = main(["--output-dir", str(tmp_path), "optimize", str(ini)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "y0.csv" in err

    def test_empty_data_file_leaves_only_config_errors_on_stderr(self, tmp_path):
        # numpy warns on an empty file; a CLI run prints the violation alone
        (tmp_path / "empty.csv").write_text("")
        ini = write(tmp_path, "edge.ini", EDGE_INI.replace("f = zero", "f = file:empty.csv"))
        run = run_cli(["--output-dir", str(tmp_path), "solve-forward", str(ini)])
        assert run.returncode == 2
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert "[edge.1] f" in lines[0] and "empty.csv holds no data" in lines[0]

    def test_every_bad_data_file_is_reported(self, tmp_path, capsys):
        (tmp_path / "bad1.csv").write_text("0.1,0.2,0.3\n")
        (tmp_path / "bad2.csv").write_text("nan,2\n")
        two_edges = GRAPH_INI[: GRAPH_INI.index("[edge.3]")] + "[optimizer]\n"
        two_edges = two_edges.replace("n = 3", "n = 2")
        y0_line = "ydtarget = const:0.3\ny0 = file:bad{}.csv"
        two_edges = two_edges.replace("ydtarget = const:0.3", y0_line).format(1, 2)
        ini = write(tmp_path, "graph.ini", two_edges)
        rc = main(["--output-dir", str(tmp_path), "solve-forward", str(ini)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and all(ln.startswith("config error: ") for ln in lines)
        for i, line in enumerate(lines, start=1):
            assert f"[edge.{i}] y0" in line and f"bad{i}.csv" in line

    @pytest.mark.parametrize(
        "old, new",
        [
            ("T = 1.0", "T = nan"),
            ("b = 1.0", "b = nan"),
            ("tol = 1e-7", "tol = nan"),
            ("uad = box:-2.0:2.0", "uad = box:nan:1"),
            ("tikhonov_n = 0.5", "tikhonov_n = nan"),
        ],
    )
    def test_nan_scalar_is_config_error(self, tmp_path, capsys, old, new):
        # the one violation is the NaN key's
        text = EDGE_INI.replace("weight = 0.5\n", "").replace(old, new)
        ini = write(tmp_path, "edge.ini", text)
        assert main(["--output-dir", str(tmp_path), "optimize", str(ini)]) == 2
        lines = capsys.readouterr().err.splitlines()
        key = new.split(" = ")[0]
        assert len(lines) == 1 and lines[0].startswith("config error: ") and key in lines[0]

    @pytest.mark.parametrize("command", ["optimize", "solve-forward"])
    @pytest.mark.parametrize(
        "a, b, h",
        [
            ("-1e308", "1e308", "inf"),  # b - a overflows
            ("0.0", "5e-324", "0.0"),  # (b - a)/m_cells underflows
        ],
    )
    def test_mesh_size_is_config_error(self, tmp_path, capsys, command, a, b, h):
        text = EDGE_INI.replace("a = 0.0", f"a = {a}").replace("b = 1.0", f"b = {b}")
        ini = write(tmp_path, "edge.ini", text)
        assert main(["--output-dir", str(tmp_path), command, str(ini)]) == 2
        assert capsys.readouterr().err == (
            f"config error: [edge.1] mesh size (b - a)/m_cells must be positive and finite, "
            f"got {h}\n"
        )

    def test_data_errors_reported_with_scalar_errors(self, tmp_path, capsys):
        # a scalar error hides no data-file error, a missing file no wrong shape
        (tmp_path / "short.csv").write_text("0.1,0.2,0.3\n")
        bad = (
            EDGE_INI.replace("alpha = 0.6", "alpha = 2")
            .replace("m_cells = 12", "m_cells = 4")
            .replace("f = zero", "f = file:missing.csv")
            .replace("y0 = const:0.5", "y0 = file:short.csv")
        )
        ini = write(tmp_path, "bad.ini", bad)
        assert main(["--output-dir", str(tmp_path), "solve-forward", str(ini)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3 and all(ln.startswith("config error: ") for ln in lines)
        assert "alpha must lie in" in lines[0]
        assert "[edge.1] f" in lines[1] and "missing.csv" in lines[1]
        assert "[edge.1] y0" in lines[2] and "short.csv" in lines[2]
        assert "shape (3,), expected (5,)" in lines[2]

    def test_single_edge_weight_must_match_tikhonov(self, tmp_path, capsys):
        # a weight and a tikhonov_n both written must agree
        bad = EDGE_INI.replace("weight = 0.5", "weight = 1.0")
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, "bad.ini", bad))
        assert exc.value.violations == [
            "control.1: weight = 1.0 differs from optimizer.tikhonov_n = 0.5"
        ]
        assert main(["--output-dir", str(tmp_path), "optimize", str(tmp_path / "bad.ini")]) == 2
        assert "config error: control.1: weight" in capsys.readouterr().err
        # an absent weight takes tikhonov_n, and a weight without tikhonov_n
        # is the penalty
        cfg = parse_config(write(tmp_path, "ok.ini", EDGE_INI.replace("weight = 0.5\n", "")))
        assert cfg.cost.channel_weights.tolist() == [0.5]  # tikhonov_n = 0.5
        alone = EDGE_INI.replace("tikhonov_n = 0.5\n", "")
        ini = write(tmp_path, "alone.ini", alone)
        assert parse_config(ini).cost.channel_weights.tolist() == [0.5]  # weight = 0.5
        assert main(["--output-dir", str(tmp_path), "optimize", str(ini)]) == 0

    def test_graph_tikhonov_must_match_every_weight(self, tmp_path, capsys):
        # every channel's weight defaults to tikhonov_n; a weight written
        # beside it must equal it
        given = GRAPH_INI.replace("max_iter = 100", "max_iter = 100\ntikhonov_n = 5.0")
        cfg = parse_config(write(tmp_path, "given.ini", given))
        assert cfg.cost.channel_weights.tolist() == [5.0, 5.0]
        assert main(["--output-dir", str(tmp_path), "optimize", str(tmp_path / "given.ini")]) == 0
        # one weight that differs is named alone; weights that agree pass
        one = given.replace("uad = unconstrained", "uad = unconstrained\nweight = 0.5")
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, "one.ini", one))
        assert exc.value.violations == [
            "control.3: weight = 0.5 differs from optimizer.tikhonov_n = 5.0"
        ]
        assert main(["--output-dir", str(tmp_path), "optimize", str(tmp_path / "one.ini")]) == 2
        assert "config error: control.3: weight = 0.5" in capsys.readouterr().err
        ok = one.replace("weight = 0.5", "weight = 5.0")
        cfg = parse_config(write(tmp_path, "ok.ini", ok))
        assert cfg.cost.channel_weights.tolist() == [5.0, 5.0]

    def test_file_token_roundtrip(self, tmp_path):
        y0 = np.linspace(0.0, 1.0, 13) ** 2
        np.savetxt(tmp_path / "y0.csv", y0[None, :], delimiter=",")
        ini_text = EDGE_INI.replace("y0 = const:0.5", "y0 = file:y0.csv")
        ini = write(tmp_path, "edge.ini", ini_text)
        rc = main(["--output-dir", str(tmp_path), "solve-forward", str(ini)])
        assert rc == 0
        first_rows = (tmp_path / "state.csv").read_text().splitlines()[1:14]
        got = np.array([float(r.split(",")[-1]) for r in first_rows])
        np.testing.assert_allclose(got, y0, rtol=1e-15)

    def test_readme_example_optimizes(self, tmp_path, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        [example] = re.findall(r"```ini\n(.*?)```", readme.read_text(), re.S)
        ini = write(tmp_path, "problem.ini", example)
        assert main(["--output-dir", str(tmp_path), "optimize", str(ini)]) == 0
        assert capsys.readouterr().err == ""


# Prints, after every other exit handler of a CLI process has run, whether the
# heap is frozen and the collector enabled.
EXIT_PROBE = """
import atexit, gc, runpy
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, gc.isenabled()))
runpy.run_module("fracstar.cli", run_name="__main__", alter_sys=True)
"""


# Sets numpy's bundled OpenBLAS to 3 threads, then prints its thread count
# after that, after `import fracstar.cli`, after main() called from Python and
# after run(), both with the arguments the probe was given; "absent" where
# numpy bundles no scipy-openblas.
BLAS_PROBE = """
import ctypes, sys
from pathlib import Path
import numpy as np
libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*"))
lib = ctypes.CDLL(str(libs[0])) if libs else None
if not hasattr(lib, "scipy_openblas_get_num_threads64_"):
    sys.exit(print("absent"))
lib.scipy_openblas_set_num_threads64_(3)
seen = [lib.scipy_openblas_get_num_threads64_()]
import fracstar.cli
seen.append(lib.scipy_openblas_get_num_threads64_())
assert fracstar.cli.main(sys.argv[1:]) == 0
seen.append(lib.scipy_openblas_get_num_threads64_())
try:
    fracstar.cli.run()
except SystemExit as exc:
    assert exc.code == 0
print(*seen, lib.scipy_openblas_get_num_threads64_())
"""
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# numbers that overflow the solve, its cost or its assembly: each exits 3
OVERFLOWING = [
    ("y0 = const:0.5", "y0 = const:1e308"),
    ("f = zero", "f = const:1e308"),
    ("beta = const:1.0", "beta = const:1e308"),
]


class TestEntry:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path, enabled):
        ini = write(tmp_path, "edge.ini", EDGE_INI)
        frozen = gc.get_freeze_count()
        if not enabled:
            gc.disable()
        try:
            assert main(["--output-dir", str(tmp_path), "optimize", str(ini)]) == 0
            assert gc.isenabled() == enabled and gc.get_freeze_count() == frozen
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "old, new, code",
        [("", "", 0), ("alpha = 0.6", "alpha = 2.0", 2)]
        + [(old, new, 3) for old, new in OVERFLOWING],
    )
    def test_cli_process_exits_from_a_frozen_heap(self, tmp_path, old, new, code):
        ini = write(tmp_path, "edge.ini", EDGE_INI.replace(old, new))
        run = run_cli(["--output-dir", str(tmp_path), "optimize", str(ini)], EXIT_PROBE)
        assert run.returncode == code
        assert run.stdout.splitlines()[-1] == "frozen True True"
        if code:
            # the one line, with no numpy warning before it
            [line] = run.stderr.splitlines()
            assert line.startswith(("config error: ", "solver failure: "))

    @pytest.mark.parametrize("variable", [None, *BLAS_VARIABLES])
    def test_cli_process_runs_one_blas_thread_by_default(self, tmp_path, variable):
        # import and main() leave the thread count alone; run() sets one
        # thread unless a thread variable is set
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
        if variable is not None:
            env[variable] = "2"
        ini = write(tmp_path, "graph.ini", GRAPH_INI)
        run = run_cli(["--output-dir", str(tmp_path), "solve-forward", str(ini)], BLAS_PROBE, env)
        assert (run.returncode, run.stderr) == (0, "")
        last = run.stdout.splitlines()[-1]
        if last == "absent":
            pytest.skip("numpy bundles no scipy-openblas")
        given, imported, called, ran = map(int, last.split())
        assert imported == called == given > 1
        assert ran == (1 if variable is None else given)

    @pytest.mark.parametrize("command", ["optimize", "solve-forward"])
    @pytest.mark.parametrize("old, new", OVERFLOWING)
    def test_overflow_is_one_solver_failure(self, tmp_path, capsys, command, old, new):
        # warnings are errors in this suite, so a numpy warning would raise
        # here instead of the exit code
        ini = write(tmp_path, "edge.ini", EDGE_INI.replace(old, new))
        assert main(["--output-dir", str(tmp_path), command, str(ini)]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(("solver failure: non-finite ", "solver failure: assembly "))
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("old, new", OVERFLOWING[:2])
    def test_validate_reports_overflow_without_numpy_warnings(self, tmp_path, capsys, old, new):
        # warnings are errors in this suite: a numpy warning would raise here.
        # With f = 1e308 the solve still agrees with the oracle to 1e-15
        # relative, but the duality check's Cauchy-Schwarz bound overflows.
        failed = {"y0": "oracle-equivalence", "f": "duality"}[old.split()[0]]
        ini = write(tmp_path, "edge.ini", EDGE_INI.replace(old, new))
        assert main(["--output-dir", str(tmp_path), "validate", str(ini)]) == 4
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"FAIL  {failed}: " in captured.out

    def test_adjoint_diagnostics_are_checked_without_dirichlet_tips(self, tmp_path, capsys):
        # a single edge reports no regularity ratio, but its record is checked
        ini = write(tmp_path, "edge.ini", EDGE_INI.replace(*OVERFLOWING[0]))
        assert main(["--output-dir", str(tmp_path), "solve-adjoint", str(ini)]) == 3
        assert capsys.readouterr().err == "solver failure: non-finite adjoint diagnostics\n"
        assert not (tmp_path / "report.txt").exists()

    @given(
        # powers of ten scaling y0, f, beta and the target; 0 leaves one as is
        powers=st.tuples(*[st.just(0) | st.integers(150, 308)] * 4),
    )
    @example(powers=(0, 0, 308, 0))  # assembly fails while the files are read
    @example(powers=(0, 0, 0, 308))  # the start's cost overflows
    @example(powers=(308, 0, 0, 308))  # the misfit y - y_d overflows
    @settings(max_examples=20, deadline=None)
    def test_overflow_gives_finite_outputs_or_one_failure(self, tmp_path_factory, powers):
        tmp = tmp_path_factory.mktemp("overflow")
        y0, f, beta, target = (10.0**p for p in powers)
        shape = (17, 13)  # nt + 1 rows of m_cells + 1 nodes
        wave = np.sin(np.add.outer(np.arange(shape[0]), np.arange(shape[1])))
        data = {"y0": y0 * wave[:1], "f": f * wave, "yd": target * wave[:, ::-1]}
        for name, values in data.items():
            np.savetxt(tmp / f"{name}.csv", values, delimiter=",", fmt="%.17g")
        text = EDGE_INI.replace("beta = const:1.0", f"beta = const:{beta!r}")
        for key, name in [("f = zero", "f"), ("y0 = const:0.5", "y0"),
                          ("ydtarget = const:0.25", "yd")]:
            text = text.replace(key, f"{key.split(' =')[0]} = file:{name}.csv")
        ini = write(tmp, "edge.ini", text)
        for command in ("solve-forward", "optimize"):
            runs = []
            for mode in ("serial", "split"):
                out, stdout, stderr = tmp / f"{command}-{mode}", io.StringIO(), io.StringIO()
                with splitting() if mode == "split" else contextlib.nullcontext():
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = main(["--output-dir", str(out), command, str(ini)])
                texts = {p.name: p.read_text() for p in sorted(out.iterdir())}
                runs.append((code, stdout.getvalue(), stderr.getvalue(), texts))
                assert_no_child_processes()
            assert runs[0] == runs[1]
            code, _, err, texts = runs[0]
            assert code in (0, 3)
            if code == 3:
                assert len(err.splitlines()) == 1
            else:
                assert all(line.startswith("warning: ") for line in err.splitlines())
                assert "report.txt" in texts
            for name, body in texts.items():
                assert not re.search(r"\b(?:inf|nan)\b", body, re.I), name

    @pytest.mark.parametrize(
        "text, old, new",
        [(EDGE_INI, "beta = const:1.0", "beta = const:1e-300"),
         (GRAPH_INI, "q = const:1.1", "q = const:1e-200"),
         (EDGE_INI, "beta = const:1.0", "beta = const:1e-160")],
        ids=["edge-beta", "graph-q", "edge-beta-1e-160"],
    )
    def test_tiny_coefficient_ends_with_an_exit_code(self, tmp_path, capsys, text, old, new):
        # the closed-form a-priori bound overflows to inf for a tiny
        # min(beta0, q0) (its square underflows to zero at 1e-300): the bound
        # is data, not a solver output, so solve-forward reports it as inf,
        # which the measured ratio is below, and succeeds
        ini = write(tmp_path, "tiny.ini", text.replace(old, new))
        assert main(["--output-dir", str(tmp_path), "solve-forward", str(ini)]) == 0
        assert capsys.readouterr().err == ""
        energy = (tmp_path / "report.txt").read_text().splitlines()[0]
        assert re.fullmatch(r".* energy norm: measured \S+ <= bound inf", energy)
        assert main(["--output-dir", str(tmp_path), "validate", str(ini)]) == 0
        assert capsys.readouterr().err == ""

    def test_validate_runs_in_a_fresh_process(self, tmp_path):
        # the oracle is imported by the command itself
        ini = write(tmp_path, "graph.ini", GRAPH_INI)
        run = run_cli(["--output-dir", str(tmp_path), "validate", str(ini)])
        assert (run.returncode, run.stderr) == (0, "")
        assert "PASS  oracle-equivalence" in run.stdout

    def test_console_script_is_the_module_entry(self):
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            script = tomllib.load(fh)["project"]["scripts"]["fracstar"]
        module, _, name = script.partition(":")
        assert importlib.import_module(module) is fracstar.cli
        # the call under `python -m fracstar.cli`'s __main__ check
        tree = ast.parse(Path(fracstar.cli.__file__).read_text())
        [guard] = [
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert [ast.unparse(stmt) for stmt in guard.body] == [f"{name}()"]


# The nested-loop writers the one writer replaced: the byte-for-byte reference.
FMT = "{:.17g}"


def reference_state_csv(path, times, per_edge_states, per_edge_nodes):
    with open(path, "w") as fh:
        fh.write("t,edge,x,y\n")
        for k, t in enumerate(times):
            for i, (ys, xs) in enumerate(zip(per_edge_states, per_edge_nodes)):
                for x, yv in zip(xs, ys[k]):
                    fh.write(
                        ",".join(
                            [FMT.format(t), str(i + 1), FMT.format(x), FMT.format(yv)]
                        )
                        + "\n"
                    )


def reference_controls_csv(path, times, controls, channel_ids):
    with open(path, "w") as fh:
        fh.write("t,channel,value\n")
        for k, t in enumerate(times):
            for j, ch in enumerate(channel_ids):
                fh.write(
                    ",".join([FMT.format(t), str(ch), FMT.format(controls[j, k])]) + "\n"
                )


def reference_convergence_csv(path, costs, residuals):
    with open(path, "w") as fh:
        fh.write("iter,cost,stationarity\n")
        for it, (cost, res) in enumerate(zip(costs, residuals)):
            fh.write(f"{it},{FMT.format(cost)},{FMT.format(res)}\n")


# -0.0, subnormals, magnitudes near 1e+-300 and integral floats
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.floats(1e290, 1e308).flatmap(lambda x: st.sampled_from([x, -x])),
    st.integers(-(2**60), 2**60).map(float),
)


def write_csv(path, header, lead, labels, values):
    """Write ``values`` as the commands do, every block handed over at once."""
    RowWriter(path, header, lead, labels, values).close()


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=FLOATS)


class TestWriter:
    @given(
        data=st.data(),
        nt=st.integers(0, 4),
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_state_layout_matches_reference(self, tmp_path_factory, data, nt, sizes):
        tmp = tmp_path_factory.mktemp("state")
        times = data.draw(arrays(nt + 1))
        nodes = [data.draw(arrays(s)) for s in sizes]
        states = [data.draw(arrays((nt + 1, s))) for s in sizes]
        reference_state_csv(tmp / "ref.csv", times, states, nodes)
        write_csv(
            tmp / "new.csv", "t,edge,x,y",
            [f"{t:.17g}," for t in times.tolist()],
            [f"{i + 1},{x:.17g}," for i, xs in enumerate(nodes) for x in xs.tolist()],
            np.hstack(states),
        )
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()

    @given(
        values=arrays((3, 4)),
        lead=st.lists(st.text(max_size=4), min_size=3, max_size=3),
        labels=st.lists(st.text(max_size=4), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_template_matches_per_cell_formatting(
        self, tmp_path_factory, values, lead, labels
    ):
        # any text in the lead and the labels, '%' included, is copied as is
        tmp = tmp_path_factory.mktemp("template")
        write_csv(tmp / "new.csv", "h", lead, labels, values)
        cells = [
            f"{key}{label}{v:.17g}\n"
            for key, row in zip(lead, values.tolist())
            for label, v in zip(labels, row)
        ]
        with open(tmp / "ref.csv", "w") as fh:
            fh.write("h\n" + "".join(cells))
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()

    @given(data=st.data(), nt=st.integers(0, 4), channels=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_controls_and_convergence_match_reference(
        self, tmp_path_factory, data, nt, channels
    ):
        tmp = tmp_path_factory.mktemp("controls")
        times = data.draw(arrays(nt + 1))
        controls = data.draw(arrays((channels, nt + 1)))
        ids = list(range(2, channels + 2))
        reference_controls_csv(tmp / "ref.csv", times, controls, ids)
        write_csv(
            tmp / "new.csv", "t,channel,value",
            [f"{t:.17g}," for t in times.tolist()], [f"{ch}," for ch in ids], controls.T,
        )
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()

        costs, residuals = data.draw(arrays(nt + 1)), data.draw(arrays(nt + 1))
        reference_convergence_csv(tmp / "ref.csv", costs, residuals)
        write_csv(
            tmp / "new.csv", "iter,cost,stationarity",
            [f"{it},{c:.17g}," for it, c in enumerate(costs.tolist())], [""],
            residuals[:, None],
        )
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


# lead and label text: '%', separators, line breaks and non-ASCII included;
# only characters UTF-8 can encode (no lone surrogates), as in any real label
TEXT = st.text(st.sampled_from("%,.-e1 \né∞😀") | st.characters(codec="utf-8"), max_size=4)


def graph_with_files(tmp_path, rng, tokens=None):
    """GRAPH_INI with data files: edge 1 reads its source and initial datum,
    edge 2 one file as both source and target, edge 3 its initial datum as a
    column.  ``tokens`` maps ``(edge, key)`` to a replacement token."""
    # 13 time rows; 9, 8 and 10 nodes
    np.savetxt(tmp_path / "f1.csv", rng.standard_normal((13, 9)), delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / "y1.csv", rng.standard_normal((1, 9)), delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / "fd2.csv", rng.standard_normal((13, 8)), delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / "y3.csv", rng.standard_normal((10, 1)), delimiter=",", fmt="%.17g")
    data = {(1, "f"): "file:f1.csv", (1, "y0"): "file:y1.csv", (2, "f"): "file:fd2.csv",
            (2, "ydtarget"): "file:fd2.csv", (3, "y0"): "file:y3.csv"}
    data |= tokens or {}
    text = GRAPH_INI.replace("ydtarget = const:0.3\n", "")
    for i in (1, 2, 3):
        lines = "".join(f"{key} = {tok}\n" for (e, key), tok in data.items() if e == i)
        text = text.replace(f"[edge.{i}]\n", f"[edge.{i}]\n{lines}")
    return write(tmp_path, "graph.ini", text)


class TestSplitConversion:
    """Data files parsed and ``state.csv`` written by forked workers give the
    arrays, violations and bytes of one process, and leave no child process
    and no temporary file behind."""

    @given(
        data=st.data(),
        blocks=st.integers(0, 7),  # below, equal to and above three workers
        width=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_writer_writes_the_serial_bytes(self, tmp_path_factory, data, blocks, width):
        lead = data.draw(st.lists(TEXT, min_size=blocks, max_size=blocks))
        labels = data.draw(st.lists(TEXT, min_size=width, max_size=width))
        values = data.draw(arrays((blocks, width)))
        tmp = tmp_path_factory.mktemp("split")
        write_csv(tmp / "serial.csv", "h%s", lead, labels, values)
        with splitting():
            assert fracstar._csvio.chunks(width * blocks, blocks) == max(1, min(blocks, 3))
            write_csv(tmp / "split.csv", "h%s", lead, labels, values)
        assert_no_child_processes()
        assert sorted(p.name for p in tmp.iterdir()) == ["serial.csv", "split.csv"]
        assert (tmp / "split.csv").read_bytes() == (tmp / "serial.csv").read_bytes()
        cells = [
            f"{key}{label}{v:.17g}\n"
            for key, row in zip(lead, values.tolist())
            for label, v in zip(labels, row)
        ]
        with open(tmp / "split.csv", newline="") as fh:
            assert fh.read() == "h%s\n" + "".join(cells)

    def test_split_loading_gives_the_serial_arrays(self, tmp_path, rng):
        ini = graph_with_files(tmp_path, rng)
        serial = parse_config(ini).problem
        with splitting():
            split = parse_config(ini).problem
        assert_no_child_processes()
        for name in ("f", "y0", "y_d"):
            for a, b in zip(getattr(serial, name), getattr(split, name)):
                assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())
        # the file named twice is read once, into both fields
        assert split.f[1] is split.y_d[1]
        assert serial.y0[2].shape == (10,)  # a column reads as the datum

    def test_split_loading_reports_the_serial_violations(self, tmp_path, rng, capsys):
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "nan.csv").write_text((",".join(["nan"] * 8) + "\n") * 13)
        (tmp_path / "short.csv").write_text("0.1,0.2,0.3\n")
        (tmp_path / "text.csv").write_text("0.1,a\n")
        tokens = {
            (1, "f"): "file:missing.csv", (1, "y0"): "file:empty.csv",
            (2, "f"): "file:nan.csv", (2, "ydtarget"): "file:nan.csv",
            (2, "y0"): "file:short.csv", (3, "f"): "file:text.csv",
        }
        ini = graph_with_files(tmp_path, rng, tokens)
        with pytest.raises(ConfigError) as serial:
            parse_config(ini)
        assert main(["--output-dir", str(tmp_path), "solve-forward", str(ini)]) == 2
        serial_err = capsys.readouterr().err
        with splitting():
            with pytest.raises(ConfigError) as split:
                parse_config(ini)
            assert main(["--output-dir", str(tmp_path), "solve-forward", str(ini)]) == 2
        assert_no_child_processes()
        assert split.value.violations == serial.value.violations
        assert capsys.readouterr().err == serial_err
        assert len(serial.value.violations) == 6
        for name, what in [("missing", "cannot read"), ("empty", "holds no data"),
                           ("nan", "non-finite"), ("short", "has shape"), ("text", "cannot read")]:
            assert any(f"{name}.csv" in v and what in v for v in serial.value.violations)

    def test_split_run_leaves_only_its_outputs(self, tmp_path, rng, capsys):
        ini = graph_with_files(tmp_path, rng)
        runs = {}
        for mode in ("serial", "split"):
            out = tmp_path / mode
            with splitting() if mode == "split" else contextlib.nullcontext():
                assert main(["--output-dir", str(out), "solve-forward", str(ini)]) == 0
            assert_no_child_processes()
            assert sorted(p.name for p in out.iterdir()) == ["report.txt", "state.csv"]
            runs[mode] = (
                capsys.readouterr(),
                *((out / name).read_bytes() for name in ("state.csv", "report.txt")),
            )
        assert runs["split"] == runs["serial"]

    def test_failed_fork_costs_only_speed(self, tmp_path, rng, capsys, monkeypatch):
        # no process can be started (a pid limit): the run gives the serial
        # outputs, stdout and stderr
        ini = graph_with_files(tmp_path, rng)
        assert main(["--output-dir", str(tmp_path / "serial"), "solve-forward", str(ini)]) == 0
        serial = capsys.readouterr()

        def refuse():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", refuse)
        with splitting():
            assert main(["--output-dir", str(tmp_path / "split"), "solve-forward", str(ini)]) == 0
        assert capsys.readouterr() == serial
        for name in ("state.csv", "report.txt"):
            split, alone = (tmp_path / mode / name for mode in ("split", "serial"))
            assert split.read_bytes() == alone.read_bytes()
        assert sorted(p.name for p in (tmp_path / "split").iterdir()) == ["report.txt", "state.csv"]

    def test_failed_worker_write_is_one_output_error(self, tmp_path, rng, capsys, monkeypatch):
        # each worker's write fills the disk after a few bytes
        parent = os.getpid()

        def failing_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            if os.getpid() != parent and mode == "w":
                fh.write("1,2")
                fh.close()
                raise OSError(errno.ENOSPC, "No space left on device")
            return fh

        monkeypatch.setattr(fracstar._csvio, "open", failing_open, raising=False)
        ini = graph_with_files(tmp_path, rng)
        out = tmp_path / "out"
        with splitting():
            assert main(["--output-dir", str(out), "solve-forward", str(ini)]) == 2
        assert_no_child_processes()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"output error: [Errno {errno.ENOSPC}] No space left on device"
        ]
        # the file is written only once every part is formatted
        assert [p.name for p in out.iterdir()] == []


class TestStreamedState:
    """solve-forward hands each finished step to the forked writer: whatever
    the workers, the bursts the tickets come in and a worker that stalls, it
    writes the serial bytes; a failure after the march leaves nothing."""

    @given(
        data=st.data(),
        workers=st.integers(1, 3),
        cells=st.lists(st.integers(2, 9), min_size=1, max_size=3),
        nt=st.integers(1, 12),
        stall=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_streamed_state_is_the_serial_bytes(
        self, tmp_path_factory, data, workers, cells, nt, stall
    ):
        n = len(cells)
        m = 0 if n == 1 else data.draw(st.integers(2, n))
        text = f"[problem]\nalpha = 0.7\nT = 0.8\nnt = {nt}\nn = {n}\nm_split = {m}\n"
        for i, c in enumerate(cells, 1):
            text += (f"[edge.{i}]\na = 0.0\nb = {0.5 + 0.25 * i}\nm_cells = {c}\n"
                     f"f = const:{i}\ny0 = const:0.5\n")
        tmp = tmp_path_factory.mktemp("stream")
        ini = write(tmp, "graph.ini", text)
        bursts = data.draw(st.sets(st.integers(2, nt + 1)))  # the steps that send
        writer, parent = fracstar._csvio.RowWriter, os.getpid()
        send, work = writer.send, writer._work

        def bursty(self, stop):
            if stop in bursts:
                send(self, stop)

        def stalling(self, k):
            if k == 1 and os.getpid() != parent:  # the first worker stalls on each ticket
                fmt = self._format
                self._format = lambda *args: (time.sleep(0.05), fmt(*args))
            return work(self, k)

        runs = []
        for mode in ("serial", "streamed"):
            with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
                if mode == "streamed":
                    mp.setattr(fracstar._csvio, "SPLIT_MIN_VALUES", 1)
                    mp.setattr(fracstar._csvio, "cpus", lambda: workers + 1)
                    mp.setattr(writer, "send", bursty)
                    if stall:
                        mp.setattr(writer, "_work", stalling)
                assert main(["--output-dir", str(tmp / mode), "solve-forward", str(ini)]) == 0
            assert_no_child_processes()
            runs.append([(tmp / mode / name).read_bytes() for name in ("state.csv", "report.txt")])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("mode", ["serial", "split"])
    @pytest.mark.parametrize("where", ["march", "diagnostics"])
    def test_solver_failure_leaves_nothing(self, tmp_path, rng, capsys, monkeypatch, where, mode):
        ini = graph_with_files(tmp_path, rng)
        if where == "march":  # every step streamed, then the check fails
            march = fracstar.graph_solver._march

            def failing(*args):
                march(*args)
                raise SolverFailure("non-finite forward solve (singular saddle point?)")

            monkeypatch.setattr(fracstar.graph_solver, "_march", failing)
        else:
            monkeypatch.setattr(
                fracstar.cli, "diagnose_forward",
                lambda *args: diagnose_forward(*args)._replace(energy=np.array([np.nan])),
            )
        out = tmp_path / "out"
        fds = len(os.listdir("/dev/fd"))
        with splitting() if mode == "split" else contextlib.nullcontext():
            assert main(["--output-dir", str(out), "solve-forward", str(ini)]) == 3
        assert_no_child_processes()
        assert len(os.listdir("/dev/fd")) == fds  # no pipe and no temporary file open
        captured = capsys.readouterr()
        assert captured.out == ""
        failure = "solve (singular saddle point?)" if where == "march" else "diagnostics"
        assert captured.err == f"solver failure: non-finite forward {failure}\n"
        assert list(out.iterdir()) == []


class TestStateOfEveryCommand:
    """solve-adjoint and optimize write the DOF rows of their trajectory as
    the per-edge samples, a block of rows at a time: the bytes are those of
    the samples formed whole and written by the nested-loop reference."""

    @pytest.mark.parametrize("mode", ["serial", "split"])
    @pytest.mark.parametrize("command", ["solve-adjoint", "optimize"])
    @pytest.mark.parametrize("text", [EDGE_INI, GRAPH_INI], ids=["edge", "graph"])
    def test_state_csv_is_the_per_edge_samples(self, tmp_path, text, command, mode):
        ini = write(tmp_path, "problem.ini", text)
        cfg = parse_config(ini)
        pr = cfg.problem
        if command == "optimize":
            traj = optimize(pr, cfg.cost, cfg.sets, cfg.algo, cfg.tol, cfg.max_iter).state
        else:
            traj = solve_adjoint_graph(pr, solve_forward_graph(pr))
        reference_state_csv(
            tmp_path / "reference.csv", pr.time_grid.times, list(traj.samples),
            [g.nodes for g in pr.grids],
        )
        out = tmp_path / "out"
        with splitting() if mode == "split" else contextlib.nullcontext():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["--output-dir", str(out), command, str(ini)]) == 0
        assert (out / "state.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def leaves(value):
    """The values a record holds, walked through its tuples and lists."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from leaves(item)
    else:
        yield value


class TestReadsBesideAssembly:
    """The data files are read by forked workers while this process
    assembles the system, which the config then carries; this process reads
    the files left once it has assembled, every file where no worker is
    forked.  The outputs are those of one process."""

    @pytest.mark.parametrize("mode", ["serial", "split"])
    @pytest.mark.parametrize("kind", ["edge", "graph"])
    def test_config_carries_the_assembled_system(self, tmp_path, rng, kind, mode):
        ini = graph_with_files(tmp_path, rng) if kind == "graph" else write(
            tmp_path, "edge.ini", EDGE_INI
        )
        with splitting() if mode == "split" else contextlib.nullcontext():
            cfg = parse_config(ini)
        assert cfg.system.problem is cfg.problem
        carried, fresh = (
            list(leaves(s._replace(problem=None)))
            for s in (cfg.system, assemble_graph_system(cfg.problem))
        )
        assert len(carried) == len(fresh)
        for a, b in zip(carried, fresh):
            if isinstance(a, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            else:
                assert a == b

    @pytest.mark.parametrize("mode", ["serial", "split"])
    def test_violation_wins_over_assembly_failure(self, tmp_path, rng, capsys, mode):
        # the assembly of beta = 1e308 fails while a missing file is read
        ini = graph_with_files(tmp_path, rng, {(1, "f"): "file:missing.csv"})
        ini.write_text(ini.read_text().replace("beta = const:1.0", "beta = const:1e308", 1))
        with splitting() if mode == "split" else contextlib.nullcontext():
            assert main(["--output-dir", str(tmp_path), "solve-forward", str(ini)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        missing = tmp_path / "missing.csv"
        assert line.startswith(f"config error: [edge.1] f: cannot read data file {missing}: ")
        ini.write_text(ini.read_text().replace("file:missing.csv", "zero"))
        with splitting() if mode == "split" else contextlib.nullcontext():
            assert main(["--output-dir", str(tmp_path), "solve-forward", str(ini)]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("solver failure: assembly failed: ")

    @pytest.mark.parametrize("mode", ["serial", "split"])
    def test_file_violations_keep_their_place(self, tmp_path, rng, mode):
        # a file read after the rest of the file is checked still reports
        # where the file is named: after the keys before it, before the rest
        tokens = {(1, "f"): "file:missing.csv", (1, "y0"): "const:nan",
                  (2, "f"): "file:empty.csv"}
        (tmp_path / "empty.csv").write_text("")
        ini = graph_with_files(tmp_path, rng, tokens)
        ini.write_text(ini.read_text().replace("m_cells = 7", "m_cells = 1").replace(
            "tol = 1e-7", "tol = -1"))
        with splitting() if mode == "split" else contextlib.nullcontext():
            with pytest.raises(ConfigError) as err:
                parse_config(ini)
        assert [v.split(":")[0] for v in err.value.violations] == [
            "[edge.1] f", "[edge.1] y0", "[edge.2] m_cells must be at least 2, got 1",
            "[edge.2] f", "optimizer.tol must be positive and finite, got -1.0",
        ]

    def test_reads_run_beside_assembly_or_after_it(self, tmp_path, rng, capsys, monkeypatch):
        ini = graph_with_files(tmp_path, rng)
        steps = []
        read, assemble = fracstar._csvio._read, fracstar.cli.assemble_graph_system
        monkeypatch.setattr(fracstar._csvio, "_read", lambda p: steps.append("read") or read(p))
        monkeypatch.setattr(
            fracstar.cli, "assemble_graph_system",
            lambda p: steps.append("assemble") or assemble(p),
        )

        def refuse():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        runs = {}
        # too little data for a worker, workers, and workers that cannot be forked
        for mode in ("serial", "split", "refused"):
            steps.clear()
            with pytest.MonkeyPatch.context() as mp:
                if mode == "refused":
                    mp.setattr(os, "fork", refuse)
                out = tmp_path / mode
                with splitting() if mode != "serial" else contextlib.nullcontext():
                    assert main(["--output-dir", str(out), "solve-forward", str(ini)]) == 0
            # the files no worker read are read here, after assembly: all four
            # where no worker is forked
            here = len(steps) - 1 if mode == "split" else 4
            assert steps == ["assemble"] + ["read"] * here and here <= 4
            runs[mode] = (
                capsys.readouterr(),
                *((tmp_path / mode / name).read_bytes() for name in ("state.csv", "report.txt")),
            )
        assert runs["split"] == runs["serial"] == runs["refused"]
