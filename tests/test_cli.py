import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fracstar.cli
from fracstar import (
    ConfigError,
    assemble_graph_system,
    diagnose_forward,
    optimize,
    solve_forward_graph,
)
from fracstar.cli import _write_csv, main, parse_config

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


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


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
        assert cfg.sets[0].kind == "box"

    def test_graph_config(self, tmp_path):
        cfg = parse_config(write(tmp_path, "graph.ini", GRAPH_INI))
        problem = cfg.problem
        assert problem.n == 3 and problem.m == 2
        # channels 2..m are Dirichlet, m+1..n Neumann: [control.2], then [control.3]
        assert cfg.channels == [2, 3]
        assert problem.n_dirichlet_channels == 1 and problem.n_neumann_channels == 1
        assert [s.kind for s in cfg.sets] == ["box", "unconstrained"]

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
            return dataclasses.replace(d, estimate_ratio=2.0 * d.estimate_bound)

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

    def test_config_error_exit_code(self, tmp_path):
        bad = EDGE_INI.replace("alpha = 0.6", "alpha = 2.0")
        ini = write(tmp_path, "bad.ini", bad)
        assert main(["--output-dir", str(tmp_path), "optimize", str(ini)]) == 2

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
        src = str(Path(fracstar.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "fracstar.cli", "--output-dir", str(tmp_path),
             "solve-forward", str(ini)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
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
        # without a weight, which would differ from a NaN tikhonov_n
        text = EDGE_INI.replace("weight = 0.5\n", "").replace(old, new)
        ini = write(tmp_path, "edge.ini", text)
        assert main(["--output-dir", str(tmp_path), "optimize", str(ini)]) == 2
        lines = capsys.readouterr().err.splitlines()
        key = new.split(" = ")[0]
        assert len(lines) == 1 and lines[0].startswith("config error: ") and key in lines[0]

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
        bad = EDGE_INI.replace("weight = 0.5", "weight = 1.0")
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, "bad.ini", bad))
        assert any("tikhonov_n" in v for v in exc.value.violations)
        assert main(["--output-dir", str(tmp_path), "optimize", str(tmp_path / "bad.ini")]) == 2
        assert "config error: control.1: weight" in capsys.readouterr().err
        # an absent weight takes tikhonov_n, the penalty that is used
        cfg = parse_config(write(tmp_path, "ok.ini", EDGE_INI.replace("weight = 0.5\n", "")))
        assert cfg.cost.channel_weights.tolist() == [0.5]  # tikhonov_n = 0.5

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
        _write_csv(
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
        _write_csv(tmp / "new.csv", "h", lead, labels, values)
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
        _write_csv(
            tmp / "new.csv", "t,channel,value",
            [f"{t:.17g}," for t in times.tolist()], [f"{ch}," for ch in ids], controls.T,
        )
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()

        costs, residuals = data.draw(arrays(nt + 1)), data.draw(arrays(nt + 1))
        reference_convergence_csv(tmp / "ref.csv", costs, residuals)
        _write_csv(
            tmp / "new.csv", "iter,cost,stationarity",
            [f"{it},{c:.17g}," for it, c in enumerate(costs.tolist())], [""],
            residuals[:, None],
        )
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()
