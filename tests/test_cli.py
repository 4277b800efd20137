import csv
import io
import json
import math

import pytest

from expozeros.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


class TestSources:
    def test_requires_exactly_one_source(self, capsys):
        assert run_cli(capsys, "classify")[0] == 2
        assert run_cli(capsys, "classify", "--gen", "lattice,R=10", "--file", "x")[0] == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--file", "/no/such/file")
        assert code == 2
        assert "cannot read" in err

    def test_unknown_generator(self, capsys):
        assert run_cli(capsys, "classify", "--gen", "bogus,R=10")[0] == 2

    def test_unknown_generator_parameter(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--gen", "lattice,r=1e4")
        assert code == 2
        assert "'r'" in err

    def test_radius_override_rejected_by_alpha(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--gen", "alpha", "--R", "5")
        assert code == 2
        assert "'R'" in err

    def test_base_point_on_zero(self, capsys):
        for command in ("phi-profile", "classify"):
            code, _, err = run_cli(capsys, command, "--gen", "lattice,R=20", "--b", "1")
            assert code == 2
            assert err.startswith("error:") and "diverges" in err

    def test_non_integer_alpha_count(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--gen", "alpha,N=100.7")
        assert code == 2
        assert "N must be an integer" in err

    def test_threads_below_one(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--gen", "lattice,R=10", "--threads", "0")
        assert code == 2
        assert "--threads" in err

    def test_classify_out_of_range_numbers(self, capsys):
        for flags, text in ((["--x-max", "-5"], "x_max must be positive"),
                            (["--alpha", "3"], "alpha must lie in"),
                            (["--grid", "0"], "--grid must be >= 1")):
            code, out, err = run_cli(capsys, "classify", "--gen", "lattice,R=10", *flags)
            assert code == 2 and out == ""
            assert err.startswith("error:") and text in err

    def test_eval_out_of_range_grid(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--gen", "lattice,R=10", "--grid", "-3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--grid must be >= 1" in err

    def test_identity_check_out_of_range_numbers(self, capsys):
        for flags, text in ((["--nodes", "0"], "16 quadrature nodes"),
                            (["--count", "-2"], "--count must be >= 0")):
            code, out, err = run_cli(capsys, "identity-check", "--gen", "lattice,R=10", *flags)
            assert code == 2 and out == ""
            assert err.startswith("error:") and text in err

    @pytest.mark.parametrize("argv, text", [
        (["classify", "--gen", "lattice,R=10", "--b", "nan"], "argument --b: must be a finite number"),
        (["classify", "--gen", "lattice,R=10", "--b", "inf"], "argument --b: must be a finite number"),
        (["classify", "--gen", "lattice,R=10", "--x-max", "nan"], "argument --x-max: must be a finite"),
        (["eval", "--gen", "lattice,R=10", "--points", "nan,0"], "point 'nan,0' must look like"),
        (["classify", "--gen", "lattice,R=inf"], "'R=inf' needs a finite number"),
        (["reproduce", "footnote", "--R", "1e3", "--x", "1"], "footnote points need x > 1"),
        (["reproduce", "footnote", "--R", "1e3", "--x", "0.5"], "footnote points need x > 1"),
    ], ids=["b-nan", "b-inf", "x-max-nan", "points-nan", "gen-R-inf", "footnote-x-1",
            "footnote-x-below-1"])
    def test_non_finite_or_degenerate_number(self, capsys, argv, text):
        # argparse rejects a flag value by SystemExit(2), the CLI by returning 2
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "error:" in err and text in err
        assert "Traceback" not in err and "FAILED" not in err

    @pytest.mark.parametrize("command,flag", [
        ("classify", "--seed"), ("classify", "--tail-correct"),
        ("eval", "--b"), ("eval", "--seed"), ("eval", "--threads"),
        ("identity-check", "--b"), ("identity-check", "--x-max"), ("identity-check", "--grid"),
        ("identity-check", "--threads"), ("identity-check", "--tail-correct"),
        ("phi-profile", "--seed"), ("phi-profile", "--tail-correct"),
        ("reproduce", "--b"), ("reproduce", "--x-max"), ("reproduce", "--grid"),
        ("reproduce", "--seed"), ("reproduce", "--threads"), ("reproduce", "--tail-correct"),
    ])
    def test_flag_the_subcommand_does_not_read(self, capsys, command, flag):
        source = ["footnote"] if command == "reproduce" else ["--gen", "lattice,R=10"]
        value = [] if flag == "--tail-correct" else ["1"]
        with pytest.raises(SystemExit) as exc:
            main([command, *source, flag, *value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "zeros.txt"
        path.write_text("1 0 1\noops\n")
        code, _, err = run_cli(capsys, "classify", "--file", str(path))
        assert code == 2
        assert "line 2" in err


class TestClassify:
    def test_lattice_json(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--gen", "lattice", "--R", "200")
        assert code == 0
        payload = json.loads(out)
        crit = payload["report"]["criteria"]
        assert crit["C"]["verdict"] == "evidence_satisfied"
        assert crit["B"]["verdict"] == "evidence_satisfied"
        counts = {"grid_base_points", "grid_aug_points", "kernel_calls", "kernel_points", "zero_points"}
        gaps = {"gaps", "gaps_searched", "slope_points"}
        for name, rep in crit.items():
            assert set(rep["diagnostics"]) == (counts | gaps if name in "BD" else counts)

    def test_empty_file_all_satisfied(self, tmp_path, capsys):
        path = tmp_path / "zeros.txt"
        path.write_text("")
        code, out, _ = run_cli(capsys, "classify", "--file", str(path))
        assert code == 0
        crit = json.loads(out)["report"]["criteria"]
        assert all(rep["verdict"] == "evidence_satisfied" for rep in crit.values())
        assert all(rep["extremum_value"] == 0.0 for rep in crit.values())

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "classify", "--gen", "lattice,R=60", "--output", str(target)
        )
        assert code == 0 and out == ""
        assert "criteria" in json.loads(target.read_text())["report"]

    def test_exit_zero_even_when_violated(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--gen", "alpha,c=1,N=150")
        assert code == 0
        crit = json.loads(out)["report"]["criteria"]
        assert crit["B"]["verdict"] == "evidence_violated"

    def test_alpha_grid_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--gen", "lattice,R=80",
            "--alpha", "0.3", "--alpha", "0.7",
        )
        assert code == 0
        angles = [entry["alpha"] for entry in json.loads(out)["report"]["angular"]]
        assert angles == [0.3, 0.7]

    def test_sigma_flag_adds_type_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--gen", "lattice,R=200", "--sigma", str(math.pi)
        )
        assert code == 0
        assert "type_sigma" in json.loads(out)["report"]["criteria"]

    def test_log_env_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("EXPOZEROS_LOG", "DEBUG")
        code, out, _ = run_cli(capsys, "classify", "--gen", "lattice,R=40")
        assert code == 0 and json.loads(out)

    def test_format_equivalence(self, capsys):
        args = ("classify", "--gen", "lattice,R=120")
        _, out_json, _ = run_cli(capsys, *args, "--format", "json")
        _, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        crit = json.loads(out_json)["report"]["criteria"]
        for row in parse_csv(out_csv):
            rep = crit[row["criterion"]]
            assert row["verdict"] == rep["verdict"]
            assert float(row["extremum_value"]) == rep["extremum_value"]
            witness = rep["witness"]
            if witness is None:
                assert math.isnan(float(row["witness"]))
            else:
                assert float(row["witness"]) == witness


class TestIdentityCheck:
    def test_residual_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "identity-check", "--gen", "lattice,R=300",
            "--count", "25", "--jensen-count", "2", "--nodes", "4096",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["max_residual"] < 1e-6
        kinds = {row["kind"] for row in payload["rows"]}
        assert {"log_modulus", "jensen"} <= kinds

    def test_zero_position_exact_match(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("2 0 1\n")
        code, out, _ = run_cli(
            capsys, "identity-check", "--file", str(path),
            "--count", "3", "--jensen-count", "1", "--nodes", "64",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        exact = [r for r in rows if r.get("note") == "exact-match-at-zero"]
        assert exact and exact[0]["lhs"] == "-inf"

    def test_multiple_zero_rows(self, tmp_path, capsys):
        path = tmp_path / "dbl.txt"
        path.write_text("1 0 2\n-1 0 1\n")
        code, out, _ = run_cli(
            capsys, "identity-check", "--file", str(path),
            "--count", "5", "--jensen-count", "1", "--nodes", "64",
        )
        assert code == 0
        rows = [r for r in json.loads(out)["rows"] if r["kind"] == "multiple_zero"]
        assert rows
        assert abs(rows[0]["lhs"] - rows[0]["rhs"]) < 1e-5

    def test_deterministic_for_seed(self, capsys):
        args = ("identity-check", "--gen", "lattice,R=100", "--count", "10",
                "--jensen-count", "1", "--nodes", "256", "--seed", "7")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_csv_json_same_numbers(self, capsys):
        args = ("identity-check", "--gen", "lattice,R=100", "--count", "8",
                "--jensen-count", "1", "--nodes", "256")
        _, out_json, _ = run_cli(capsys, *args, "--format", "json")
        _, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        json_rows = json.loads(out_json)["rows"]
        csv_rows = parse_csv(out_csv)
        assert len(json_rows) == len(csv_rows)
        for jr, cr in zip(json_rows, csv_rows):
            for key in ("re", "im", "residual"):
                assert float(cr[key]) == jr[key]


class TestPhiProfile:
    def test_emits_minus_inf_literal(self, capsys):
        code, out, _ = run_cli(
            capsys, "phi-profile", "--gen", "lattice,R=20",
            "--x-max", "4", "--grid", "8", "--b", "0.5", "--format", "csv",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["x"] for r in rows] == [f"{v:.17g}" for v in
                                          [-4, -3, -2, -1, 0, 1, 2, 3, 4]]
        phis = {r["x"]: r["phi"] for r in rows}
        assert phis["-4"] == "-inf" and phis["1"] == "-inf"
        assert float(phis["0.5"]) if "0.5" in phis else True

    def test_d_column_finite_on_zeros(self, capsys):
        _, out, _ = run_cli(
            capsys, "phi-profile", "--gen", "lattice,R=20",
            "--x-max", "2", "--grid", "4", "--b", "0.5",
        )
        for row in json.loads(out)["rows"]:
            assert row["d_integrand"] != "-inf"


class TestEval:
    def test_real_axis_sweep_default(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--gen", "lattice,R=50", "--x-max", "3", "--grid", "6",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["re"] for r in rows] == [-3, -2, -1, 0, 1, 2, 3]
        assert rows[3]["log_modulus"] == 0.0  # product is 1 at the origin
        assert rows[4]["log_modulus"] == "-inf"  # exact zero hit

    def test_points_and_tail_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--gen", "lattice,R=100", "--points", "0.5,0;2.5,1",
            "--eval-radius", "50",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 2
        assert all(r["tail_flag"] == "truncated" for r in rows)
        assert rows[1]["tail_second_order_bound"] > 0.0

    def test_tail_correct_changes_value(self, capsys):
        base = ("eval", "--gen", "lattice,R=100", "--points", "3.3,0.7",
                "--eval-radius", "40")
        _, plain, _ = run_cli(capsys, *base)
        _, corrected, _ = run_cli(capsys, *base, "--tail-correct")
        v0 = json.loads(plain)["rows"][0]
        v1 = json.loads(corrected)["rows"][0]
        assert v1["log_modulus"] == pytest.approx(v0["log_modulus"] + v0["tail_log_re"])


class TestReproduce:
    def test_footnote_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "reproduce", "footnote", "--x", "100", "--x", "20.085536923187668",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["all_ok"] is True
        row = payload["rows"][0]
        assert row["computed_log_modulus"] >= row["bound"] >= 11.857

    def test_footnote_fails_when_truncation_starves_it(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "footnote", "--R", "1e4", "--x", "5000")
        assert code == 1
        assert "FAILED" in err

    def test_alpha_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "reproduce", "alpha-example", "--x", "100", "--x", "1000",
        )
        assert code == 0
        payload = json.loads(out)
        rows = payload["rows"]
        assert all(r["third"] >= 0.0 for r in rows)
        assert all(r["second"] >= r["second_lower_bound"] for r in rows)
        assert rows[1]["first"] > rows[0]["first"]
