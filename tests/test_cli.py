import json
import math

import pytest

from tensortract.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main

LN2 = math.log(2.0)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def dyadic_config(**extra):
    cfg = {
        "schema": 1,
        "lambda": {"family": "exp_power", "alpha": LN2, "beta": 1.0},
        "gamma": {"family": "constant_one"},
        "queries": {"E": [0.5 * math.log(5.0)], "d": [2]},
    }
    cfg.update(extra)
    return cfg


class TestCount:
    def test_dyadic_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dyadic_config())
        assert main(["count", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        header = out[0].split(",")
        row = dict(zip(header, out[1].split(",")))
        assert row["count"] == "6"
        assert row["d"] == "2"
        assert row["error"] == ""

    def test_count_rejects_grids(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dyadic_config(
            queries={"E": [1.0, 2.0], "d": [2]}))
        assert main(["count", "--config", cfg]) == EXIT_CONFIG

    def test_budget_error_row_and_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dyadic_config(
            queries={"E": [8.0], "d": [6]},
            gamma={"family": "exp_power", "alpha": 1.0, "beta": 1.0},
            limits={"node_budget": 10}))
        assert main(["count", "--config", cfg]) == EXIT_RUNTIME
        out = capsys.readouterr().out.splitlines()
        assert out[1].endswith("budget_exceeded")


class TestSweep:
    def test_rows_ordered_and_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {
            "schema": 1,
            "lambda": {"family": "double_exp_power", "alpha": 1.0, "beta": 1.0},
            "gamma": {"family": "double_exp_power", "alpha": 1.0, "beta": 2.0},
            "queries": {"E": [10.0, 100.0], "d": [5, 2]},
        })
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        keys = [(line.split(",")[1], float(line.split(",")[0])) for line in lines[1:]]
        assert keys == sorted(keys)

    def test_generator_grid(self, tmp_path):
        cfg = write_config(tmp_path, "g.json", dyadic_config(
            queries={"E": {"kind": "double_exponential", "base": 10.0, "count": 2},
                     "d": [1]}))
        out = tmp_path / "g.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [100.0, 10000.0]

    def test_log10_units(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "l.json", dyadic_config(
            queries={"log10_inv_eps": [2.0], "d": [1]}))
        assert main(["count", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert float(out[1].split(",")[0]) == pytest.approx(2.0 * math.log(10.0))


class TestClassify:
    def test_verdict_json(self, tmp_path):
        cfg = write_config(tmp_path, "v.json", {
            "schema": 1,
            "lambda": {"family": "double_exp_power", "alpha": 1.0, "beta": 1.0},
            "gamma": {"family": "double_exp_power", "alpha": 1.0, "beta": 2.0},
            "notion": {"kind": "exp_spt"},
            "output": {"format": "json"},
        })
        out = tmp_path / "v.json.out"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["verdict"]["status"] == "holds"
        assert doc["verdict"]["exponent"] == 0
        assert doc["verdict"]["evidence"]

    def test_unsupported_notion_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "v.json", {
            "schema": 1,
            "lambda": {"family": "power_law", "a": 2.0},
            "gamma": {"family": "constant_one"},
            "notion": {"kind": "st_wt", "s": 0.5, "t": 0.5},
            "output": {"format": "json"},
        })
        assert main(["classify", "--config", cfg]) == EXIT_CONFIG
        assert "unsupported notion" in capsys.readouterr().err

    def test_classify_requires_json(self, tmp_path):
        cfg = write_config(tmp_path, "v.json", {
            "schema": 1,
            "lambda": {"family": "power_law", "a": 2.0},
            "gamma": {"family": "constant_one"},
            "notion": {"kind": "exp_wt"},
        })
        assert main(["classify", "--config", cfg, "--format", "csv"]) == EXIT_CONFIG


class TestTopk:
    def test_dyadic_spectrum(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.json", dyadic_config(
            queries={"E": [1.0], "d": [2]}, k=6))
        assert main(["topk", "--config", cfg]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        costs = [float(r.split(",")[2]) for r in rows]
        assert costs == [0.0, LN2, LN2, 2 * LN2, 2 * LN2, 2 * LN2]


class TestAudit:
    def test_green_audit(self, tmp_path):
        cfg = write_config(tmp_path, "a.json", dyadic_config(
            audit={"instances": 25, "power_sum_draws": 100, "seed": 5}))
        out = tmp_path / "a.csv"
        assert main(["audit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert all(",true," in line for line in lines[1:])

    def test_unknown_suite_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "a.json", dyadic_config(audit={"suites": ["nope"]}))
        assert main(["audit", "--config", cfg]) == EXIT_CONFIG


class TestConfigErrors:
    def test_nonmonotone_table_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", dyadic_config(
            **{"lambda": {"family": "tabulated", "values": [0.0, 1.0, 0.5]}}))
        assert main(["count", "--config", cfg]) == EXIT_CONFIG
        assert "non-decreasing" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["count", "--config", "/nonexistent.json"]) == EXIT_CONFIG

    def test_bad_E_values(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", dyadic_config(
            queries={"E": [-1.0], "d": [1]}))
        assert main(["count", "--config", cfg]) == EXIT_CONFIG

    def test_unknown_family(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", dyadic_config(
            **{"lambda": {"family": "surprise"}}))
        assert main(["count", "--config", cfg]) == EXIT_CONFIG

    def test_zero_k_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", dyadic_config(k=0))
        assert main(["topk", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("extra", [
        {"limits": {"node_budget": "abc"}},
        {"queries": {"E": [1.0], "d": ["x"]}},
        {"queries": {"E": ["x"], "d": [1]}},
        {"k": "many"},
    ], ids=["node_budget", "d", "E", "k"])
    def test_unparsable_values_rejected(self, tmp_path, capsys, extra):
        cfg = write_config(tmp_path, "b.json", dyadic_config(**extra))
        assert main(["count", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("budget", ["-3", "0"])
    def test_nonpositive_node_budget_flag_rejected(self, tmp_path, capsys, budget):
        cfg = write_config(tmp_path, "b.json", dyadic_config())
        assert main(["count", "--config", cfg, "--node-budget", budget]) == EXIT_CONFIG
        assert "node_budget must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("sweep", {"queries": {"E": [1.0], "d": [2.7]}}),
        ("sweep", {"limits": {"node_budget": 1000.5}}),
        ("sweep", {"limits": {"search_cap": 2.5}}),
        ("topk", {"k": 3.5}),
        ("sweep", {"probes": {"j_grid": [16, 2.5]}}),
        ("sweep", {"queries": {"E": {"kind": "double_exponential", "count": 2.5}, "d": [1]}}),
        ("audit", {"audit": {"suites": ["oracle"], "instances": 1.5}}),
        ("audit", {"audit": {"suites": ["oracle"], "seed": 0.5}}),
        ("audit", {"audit": {"suites": ["power_sum"], "power_sum_draws": 2.5}}),
    ], ids=["d", "node_budget", "search_cap", "k", "j_grid", "count", "instances", "seed",
            "power_sum_draws"])
    def test_non_integral_integers_rejected(self, tmp_path, capsys, command, extra):
        cfg = write_config(tmp_path, "b.json", dyadic_config(**extra))
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "must be an integer" in err

    def test_integral_floats_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", dyadic_config(
            queries={"E": [0.5 * math.log(5.0)], "d": [2.0]}, limits={"node_budget": 1e8}))
        assert main(["count", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].split(",")[1:5] == ["2", "3", "2", "6"]

    @pytest.mark.parametrize("command, extra, needle", [
        ("audit", {"audit": {"suites": "sandwich"}}, "audit suites must be a list"),
        ("audit", {"audit": {"suites": ["summability"], "c_list": ["x"]}}, "audit c must be a number"),
        ("audit", {"audit": {"suites": ["summability"], "c_list": [0]}}, "positive and finite"),
        ("audit", {"audit": {"suites": ["summability"], "c_list": "2"}}, "c_list must be a list"),
        ("classify", {"probes": {"j_grid": [1]}, "notion": {"kind": "wt"}}, "probe j values must be >= 2"),
    ], ids=["suites-string", "c_list-text", "c_list-zero", "c_list-string", "j_grid-one"])
    def test_audit_and_probe_values_rejected(self, tmp_path, capsys, command, extra, needle):
        cfg = write_config(tmp_path, "b.json", dyadic_config(**extra))
        assert main([command, "--config", cfg, "--format", "json"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and needle in err

    def test_threads_flag_removed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", dyadic_config())
        with pytest.raises(SystemExit) as exc:
            main(["count", "--config", cfg, "--threads", "2"])
        assert exc.value.code == 2


class TestTabulatedFile:
    def test_table_from_path(self, tmp_path, capsys):
        table = tmp_path / "lam.txt"
        table.write_text("# un-normalized double-exp table\n" + "".join(
            f"{j} {math.exp(j)!r}\n" for j in range(1, 13)))
        cfg = write_config(tmp_path, "f.json", dyadic_config(
            **{"lambda": {"family": "tabulated", "path": "lam.txt"},
               "queries": {"E": [100.0], "d": [1]}}))
        assert main(["count", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        row = out[1].split(",")
        assert row[2] == "5"  # j_eps column
