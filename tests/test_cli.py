import numpy as np
import pytest

from fracstar import ConfigError
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


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParseConfig:
    def test_minimal_edge_config(self, tmp_path):
        cfg = parse_config(write(tmp_path, "edge.ini", EDGE_INI))
        assert cfg.n == 1 and not cfg.is_graph
        assert cfg.alpha == 0.6 and cfg.nt == 16
        assert cfg.controls[1].kind == "neumann"
        assert cfg.controls[1].uad.kind == "box"

    def test_graph_config(self, tmp_path):
        cfg = parse_config(write(tmp_path, "graph.ini", GRAPH_INI))
        assert cfg.is_graph and cfg.m_split == 2
        assert cfg.controls[2].kind == "dirichlet"
        assert cfg.controls[3].kind == "neumann"

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.ini")


class TestCommands:
    def test_solve_forward_edge(self, tmp_path):
        ini = write(tmp_path, "edge.ini", EDGE_INI)
        rc = main(["--output-dir", str(tmp_path), "solve-forward", str(ini)])
        assert rc == 0
        header = (tmp_path / "state.csv").read_text().splitlines()[0]
        assert header == "t,edge,x,y"
        assert (tmp_path / "report.txt").exists()

    def test_seventeen_digit_output(self, tmp_path):
        ini = write(tmp_path, "edge.ini", EDGE_INI)
        main(["--output-dir", str(tmp_path), "solve-forward", str(ini)])
        rows = (tmp_path / "state.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[-1]) for r in rows]
        # y0 = 0.5 everywhere survives the round trip exactly
        assert values[0] == 0.5

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

    def test_single_edge_weight_must_match_tikhonov(self, tmp_path, capsys):
        bad = EDGE_INI.replace("weight = 0.5", "weight = 1.0")
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, "bad.ini", bad))
        assert any("tikhonov_n" in v for v in exc.value.violations)
        assert main(["--output-dir", str(tmp_path), "optimize", str(tmp_path / "bad.ini")]) == 2
        assert "config error: control.1: weight" in capsys.readouterr().err
        # an absent weight takes tikhonov_n, the penalty that is used
        cfg = parse_config(write(tmp_path, "ok.ini", EDGE_INI.replace("weight = 0.5\n", "")))
        assert cfg.controls[1].weight == cfg.tikhonov_n == 0.5

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
