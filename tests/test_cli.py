import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from berezin import GeneratorSpec, cli, gen_matrix, models, run_suite
from berezin.cli import main
from berezin.errors import DimensionMismatch, NoConvergence, PointOutOfDomain
from berezin.fuzz import MATRIX_KINDS
from berezin.io import save_matrix

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def identity_path(tmp_path):
    p = tmp_path / "id.json"
    save_matrix(p, np.eye(2, dtype=complex))
    return str(p)


@pytest.fixture
def antidiag_path(tmp_path):
    p = tmp_path / "anti.json"
    save_matrix(p, np.fliplr(np.eye(2)).astype(complex))
    return str(p)


class TestEval:
    def test_identity_all_ones(self, capsys, identity_path):
        code, out, err = run(capsys, "eval", "--matrix", identity_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["model"]["kind"] == "finite"
        assert payload["berezin_number"]["value"] == 1.0
        assert payload["berezin_number"]["exact"] is True
        assert payload["berezin_norm"]["value"] == 1.0
        assert payload["numerical_radius"] == pytest.approx(1.0, abs=1e-12)
        assert payload["operator_norm"] == pytest.approx(1.0, abs=1e-12)

    def test_antidiagonal_separates_number_from_norm(self, capsys, antidiag_path):
        code, out, _ = run(capsys, "eval", "--matrix", antidiag_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["berezin_number"]["value"] == 0.0
        assert payload["berezin_norm"]["value"] == 1.0

    def test_kernel_matrix_built_once_per_grid_level(self, capsys, tmp_path, monkeypatch):
        columns = []
        kernel_columns = models._kernel_columns
        monkeypatch.setattr(models, "_kernel_columns",
                            lambda m, pts: columns.append(len(pts)) or kernel_columns(m, pts))
        p = tmp_path / "m.json"
        save_matrix(p, np.arange(16.0).reshape(4, 4) + 1j)
        code, _, _ = run(capsys, "eval", "--model", "hardy:3:0.9", "--matrix", str(p), "--level", "1")
        assert code == 0
        m = models.hardy(3, 0.9)
        assert columns == [len(models.default_grid(m, lev).points) for lev in (0, 1)]

    def test_hardy_shift_level_echo(self, capsys, tmp_path):
        shift = np.zeros((16, 16), dtype=complex)
        for j in range(15):
            shift[j + 1, j] = 1.0
        p = tmp_path / "shift16.json"
        save_matrix(p, shift)
        code, out, _ = run(capsys, "eval", "--model", "hardy:15:0.95",
                           "--matrix", str(p), "--level", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["level"] == 1
        assert payload["berezin_number"]["exact"] is False
        assert len(payload["symbol_samples"]) == 513
        q = 0.95 ** 2
        want = 0.95 * (1 - q ** 15) / (1 - q ** 16)
        assert payload["berezin_number"]["value"] == pytest.approx(want, rel=1e-6)

    def test_csv_format(self, capsys, identity_path):
        code, out, _ = run(capsys, "eval", "--matrix", identity_path, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "quantity,value"
        got = dict(line.split(",") for line in lines[1:])
        assert set(got) == {"berezin_number", "berezin_norm", "numerical_radius", "operator_norm"}
        assert float(got["berezin_norm"]) == 1.0

    def test_out_file(self, capsys, tmp_path, identity_path):
        dest = tmp_path / "result.json"
        code, out, _ = run(capsys, "eval", "--matrix", identity_path, "--out", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["berezin_number"]["value"] == 1.0

    def test_missing_matrix_flag(self, capsys):
        code, _, err = run(capsys, "eval")
        assert code == 2
        assert "error" in err

    def test_nonexistent_file(self, capsys):
        code, _, err = run(capsys, "eval", "--matrix", "/no/such/file.json")
        assert code == 2

    def test_dimension_mismatch(self, capsys, tmp_path):
        p = tmp_path / "m3.json"
        save_matrix(p, np.eye(3, dtype=complex))
        code, _, err = run(capsys, "eval", "--model", "finite:2", "--matrix", str(p))
        assert code == 3
        assert "error" in err

    def test_bad_model_string(self, capsys, identity_path):
        code, _, _ = run(capsys, "eval", "--model", "sobolev:3", "--matrix", identity_path)
        assert code == 2

    def test_corrupt_matrix_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, _ = run(capsys, "eval", "--matrix", str(p))
        assert code == 2

    @pytest.mark.parametrize("model", ["finite:2", "hardy:1:0.9"])
    def test_negative_level(self, capsys, identity_path, model):
        code, out, err = run(capsys, "eval", "--model", model, "--matrix", identity_path,
                             "--level", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "level" in err

    def test_level_above_four_on_disk_model(self, capsys, identity_path):
        code, out, err = run(capsys, "eval", "--model", "hardy:1:0.9", "--matrix", identity_path,
                             "--level", "5")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "level" in err and err.count("\n") == 1

    def test_level_above_four_ignored_on_finite_model(self, capsys, tmp_path):
        p = tmp_path / "id4.json"
        save_matrix(p, np.eye(4, dtype=complex))
        code, out, _ = run(capsys, "eval", "--model", "finite:4", "--matrix", str(p),
                           "--level", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["level"] == 5 and payload["berezin_norm"]["value"] == 1.0

    def test_bool_matrix_shape(self, capsys, tmp_path):
        p = tmp_path / "bool.json"
        p.write_text(json.dumps({"rows": True, "cols": True, "data": [[1, 0]]}))
        code, out, err = run(capsys, "eval", "--matrix", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "rows and cols" in err

    def test_operator_near_1e300(self, capsys, tmp_path):
        # A*A and the radius's products would overflow: both scale by 2^-k
        a = gen_matrix(GeneratorSpec("general", 4, 1.0, seed=3))
        f = 1e300 / np.abs(a).max()
        small, big = tmp_path / "small.json", tmp_path / "big.json"
        save_matrix(small, a)
        save_matrix(big, a * f)
        values = []
        for p in (small, big):
            code, out, err = run(capsys, "eval", "--model", "hardy:3:0.9", "--matrix", str(p),
                                 "--level", "0", "--format", "csv")
            assert code == 0 and err == ""
            values.append(dict(line.split(",") for line in out.splitlines()[1:]))
        for key in ("berezin_number", "berezin_norm", "numerical_radius", "operator_norm"):
            assert float(values[1][key]) == pytest.approx(float(values[0][key]) * f, rel=1e-14)

    def test_radius_beyond_float64(self, capsys, tmp_path):
        a = gen_matrix(GeneratorSpec("general", 4, 1.0, seed=3))
        p = tmp_path / "huge.json"
        save_matrix(p, a * (1.7e308 / np.abs(a).max()))
        code, out, err = run(capsys, "eval", "--model", "finite:4", "--matrix", str(p))
        assert code == 2 and out == ""
        assert err == "error: numerical radius overflows float64\n"

    def test_eigensolver_failure_exits_4(self, capsys, identity_path, monkeypatch):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fails)
        code, out, err = run(capsys, "eval", "--matrix", identity_path)
        assert code == 4 and out == ""
        assert err == "numerical failure: Eigenvalues did not converge\n"


class TestEvalOutput:
    @pytest.mark.parametrize("gen, argv, digest", [
        (GeneratorSpec("general", 16, 1.0, 0xE7A10003),
         ("--model", "hardy:15:0.95", "--level", "1"),
         "d17ab5e5e13e97f42bdfab8c38beb67ce80763dd2b71b0e4ae569dab9ca966aa"),
        (GeneratorSpec("general", 4, 1.0, 0), ("--model", "finite:4"),
         "b0f34c831d78e9df81d3288bdf4f86b1f49789f4894e25d7fb89ce995615719b"),
    ])
    def test_golden_bytes(self, capsys, tmp_path, gen, argv, digest):
        # an eval-pool operator on a disk model (2,049 symbol samples) and a
        # finite one: every estimate and every byte of the JSON layout
        path = tmp_path / "m.json"
        save_matrix(path, gen_matrix(gen))
        code, out, _ = run(capsys, "eval", "--matrix", str(path), *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("points, values", [
        ((1, 2, 3), (1.0 + 0j, complex(5e-324, -0.0), complex(math.nan, math.inf))),
        ((0j, complex(-0.0, 0.0), complex(0.5, -0.0), complex(-1e300, 5e-324)),
         (complex(-math.inf, 1e300), 0j, complex(-0.0, -5e-324), complex(math.nan, -math.inf))),
        ((1,), (complex(-0.0, math.nan),)),
        ((0j,), (complex(math.inf, -1e-310),)),
    ])
    def test_spliced_samples_equal_json_dumps(self, points, values):
        payload = {
            "model": {"kind": "finite", "dimension": 3},
            "level": 0,
            "berezin_number": {"value": math.nan, "argmax": [0.0, -0.0], "exact": False},
            "numerical_radius": math.inf,
            "symbol_samples": [],
        }
        want = json.dumps({**payload, "symbol_samples": [
            {"point": cli._point_json(p), "value": [v.real, v.imag]}
            for p, v in zip(points, values)
        ]}, indent=2)
        assert cli._eval_json(payload, points, np.array(values)) == want


class TestCheck:
    def test_scalar_power_mean_case(self, capsys):
        code, out, _ = run(capsys, "check", "--ineq", "lem3", "--a", "1", "--b", "4",
                           "--alpha", "0.5", "--r", "0", "--s", "1")
        assert code == 0
        payload = json.loads(out)
        case = payload["cases"][0]
        assert case["lhs"] == pytest.approx(2.0, abs=1e-12)
        assert case["rhs"] == pytest.approx(2.5, abs=1e-12)
        assert case["satisfied"] is True

    def test_scalar_case_csv(self, capsys):
        code, out, _ = run(capsys, "check", "--ineq", "lem3", "--a", "1", "--b", "4",
                           "--alpha", "0.5", "--r", "0", "--s", "1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ineq_id,trial,n,alpha,r,s,lhs,rhs,gap,satisfied"
        assert lines[1].startswith("lem3,0,,0.5,0,1,2,2.5")
        assert lines[1].endswith("true")

    def test_scalar_operands_reject_other_entries(self, capsys):
        code, _, err = run(capsys, "check", "--ineq", "thm1", "--a", "1", "--b", "2",
                           "--alpha", "0.5", "--r", "1", "--s", "2")
        assert code == 2

    def test_scalar_operands_need_both(self, capsys):
        code, _, _ = run(capsys, "check", "--ineq", "lem3", "--a", "1",
                         "--alpha", "0.5", "--r", "1", "--s", "2")
        assert code == 2

    def test_scalar_case_rejects_campaign_options(self, capsys):
        case = ["check", "--ineq", "lem3", "--a", "1", "--b", "4", "--alpha", "0.5",
                "--r", "0", "--s", "1"]
        code, out, err = run(capsys, *case, "--level", "-3", "--model", "hardy:3:0.9",
                             "--n", "7", "--trials", "0")
        assert code == 2 and out == ""
        assert err == "error: --a/--b take no --model, --level, --n, --trials\n"
        for extra in (["--seed", "1"], ["--scale", "2"], ["--gen", "positive"]):
            code, out, err = run(capsys, *case, *extra)
            assert (code, out, err) == (2, "", f"error: --a/--b take no {extra[0]}\n")

    def test_scalar_operands_need_single_params(self, capsys):
        code, _, _ = run(capsys, "check", "--ineq", "lem3", "--a", "1", "--b", "2",
                         "--alpha", "0.25,0.5", "--r", "1", "--s", "2")
        assert code == 2

    def test_random_campaign(self, capsys):
        code, out, err = run(capsys, "check", "--ineq", "cor1,prop1",
                             "--trials", "5", "--seed", "3", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == []
        assert payload["trials"] == 5
        assert len(payload["cases"]) == payload["rows_evaluated"]
        assert "[check]" in err

    def test_positive_generator(self, capsys):
        code, out, _ = run(capsys, "check", "--ineq", "prop1", "--gen", "positive",
                           "--trials", "20", "--seed", "1")
        assert code == 0

    def test_sweep_restriction(self, capsys):
        code, out, _ = run(capsys, "check", "--ineq", "cor1", "--trials", "2",
                           "--alpha", "0.5", "--r", "2", "--s", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows_evaluated"] == 2
        assert all(c["alpha"] == 0.5 for c in payload["cases"])

    def test_unknown_ineq(self, capsys):
        code, _, err = run(capsys, "check", "--ineq", "thm42", "--trials", "1")
        assert code == 2

    def test_missing_ineq(self, capsys):
        code, _, _ = run(capsys, "check")
        assert code == 2

    def test_stdout_is_pure_json(self, capsys):
        code, out, err = run(capsys, "check", "--ineq", "lem1", "--trials", "3")
        assert code == 0
        json.loads(out)  # would raise if logs leaked into stdout
        assert err != ""


    def test_negative_level_on_disk_model(self, capsys):
        for level in ("-1", "5"):  # 5 is above models.MAX_LEVEL
            code, out, err = run(capsys, "check", "--ineq", "thm1", "--model", "hardy:3:0.9",
                                 "--level", level, "--trials", "1")
            assert code == 2 and out == ""
            assert err.startswith("error:") and "level" in err and err.count("\n") == 1

    def test_negative_level_on_finite_model(self, capsys):
        code, out, err = run(capsys, "check", "--ineq", "prop1", "--level", "-3")
        assert code == 2 and out == ""
        assert err == "error: level must be >= 0, got -3\n"

    def test_n_with_model(self, capsys):
        argv = ["check", "--ineq", "prop1", "--model", "hardy:3:0.9", "--level", "0",
                "--trials", "2", "--format", "csv"]
        code, out, err = run(capsys, *argv, "--n", "5")
        assert code == 2 and out == ""
        assert err == "error: dimensions (5,) disagree with the model's dimension 4\n"
        code, without_n, _ = run(capsys, *argv)
        assert code == 0 and without_n.splitlines()[1].startswith("prop1,0,4,")
        code, out, _ = run(capsys, *argv, "--n", "4")
        assert code == 0 and out == without_n

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("case", [["--ineq", "prop1", "--trials", "2"],
                                      ["--ineq", "lem3", "--a", "1", "--b", "4",
                                       "--alpha", "0.5", "--r", "0", "--s", "1"]])
    def test_bad_tolerance(self, capsys, tol, case):
        code, out, err = run(capsys, "check", *case, f"--tol={tol}")
        assert code == 2 and out == ""
        assert err.startswith("error: tolerance must be finite and >= 0") and err.count("\n") == 1

    def test_zero_tolerance(self, capsys):
        code, out, _ = run(capsys, "check", "--ineq", "lem3", "--a", "1", "--b", "4",
                           "--alpha", "0.5", "--r", "0", "--s", "1", "--tol", "0")
        assert code == 0 and json.loads(out)["violations"] == 0

    def test_random_campaign_csv_is_the_run_suite_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check", "--ineq", "cor1,prop1,lem2", "--n", "3",
                           "--seed", "5", "--trials", "3", "--format", "csv")
        assert code == 0
        path = tmp_path / "suite.csv"
        run_suite(["cor1", "prop1", "lem2"], gen=GeneratorSpec(n=3, seed=5), trials=3,
                  dims=(3,), csv_path=str(path))
        assert out.encode("utf-8") == path.read_bytes()
        assert len(out.splitlines()) == 1 + 3 * (80 + 1 + 5)  # header, cor1, prop1, lem2


class TestFuzz:
    @pytest.mark.parametrize("extra, msg", [
        (["--model", "hardy:3:0.9", "--n", "2,5"],
         "dimensions (2, 5) disagree with the model's dimension 4"),
        (["--model", "hardy:3:0.9", "--level", "-1"], "level must be >= 0, got -1"),
        (["--model", "hardy:3:0.9", "--level", "5"],
         "level must be >= 0 and <= 4 on a continuous model, got 5"),
        (["--level", "-2"], "level must be >= 0, got -2"),
    ])
    def test_bad_n_or_level_writes_no_csv(self, capsys, tmp_path, extra, msg):
        dest = tmp_path / "rows.csv"
        code, out, err = run(capsys, "fuzz", "--ineq", "prop1", "--trials", "1",
                             "--out", str(dest), *extra)
        assert code == 2 and out == "" and not dest.exists()
        assert err == f"error: {msg}\n"

    def test_model_without_n_uses_its_dimension(self, capsys, tmp_path):
        dest = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "fuzz", "--ineq", "prop1", "--trials", "2", "--level", "0",
                         "--model", "hardy:3:0.9", "--out", str(dest))
        assert code == 0
        assert [line.split(",")[2] for line in dest.read_text().splitlines()[1:]] == ["4", "4"]

    def test_suite_all_one_trial(self, capsys, tmp_path):
        dest = tmp_path / "rows.csv"
        code, out, err = run(capsys, "fuzz", "--suite", "all", "--trials", "1",
                             "--out", str(dest))
        assert code == 0
        lines = dest.read_text().splitlines()
        assert lines[0] == "ineq_id,trial,n,alpha,r,s,lhs,rhs,gap,satisfied"
        assert len(lines) - 1 == 703
        summary = json.loads(out)
        assert summary["violations"] == []
        assert summary["rows_evaluated"] == 703
        assert "[fuzz]" in err

    def test_named_suite_json_out(self, capsys, tmp_path):
        dest = tmp_path / "summary.json"
        code, out, _ = run(capsys, "fuzz", "--ineq", "prop1,eql1", "--trials", "2",
                           "--format", "json", "--out", str(dest))
        assert code == 0
        assert out == ""
        summary = json.loads(dest.read_text())
        assert summary["suite"] == ["prop1", "eql1"]
        assert summary["rows_evaluated"] == 4
        assert summary["violations"] == []

    def test_deterministic_csv(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["fuzz", "--ineq", "lem3,thm3", "--trials", "3", "--seed", "11"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_threads_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--threads", "2", "--ineq", "prop1", "--trials", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: berezin ")
        assert "unrecognized arguments: --threads" in err
        assert "Traceback" not in err

    def test_dims_list(self, capsys, tmp_path):
        dest = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "fuzz", "--ineq", "prop1", "--trials", "4",
                         "--n", "2,5", "--out", str(dest))
        assert code == 0
        ns = [line.split(",")[2] for line in dest.read_text().splitlines()[1:]]
        assert ns == ["2", "5", "2", "5"]

    def test_unknown_suite_id(self, capsys):
        code, _, _ = run(capsys, "fuzz", "--suite", "prop1,bogus", "--trials", "1")
        assert code == 2

    def test_bad_dimension_list(self, capsys):
        code, _, _ = run(capsys, "fuzz", "--ineq", "prop1", "--n", "2,x", "--trials", "1")
        assert code == 2

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_every_generator_kind_runs_the_whole_catalog(self, capsys, tmp_path, kind):
        dest = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "fuzz", "--gen", kind, "--n", "2", "--trials", "1",
                           "--out", str(dest))
        assert code == 0
        assert len(dest.read_text().splitlines()) - 1 == 703
        assert json.loads(out)["rows_evaluated"] == 703

    def test_pair_kind_is_not_a_generator_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--gen", "commuting-positive-pair", "--trials", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'commuting-positive-pair'" in capsys.readouterr().err


class TestReport:
    def _make_csv(self, capsys, tmp_path, name="rows.csv"):
        dest = tmp_path / name
        code, _, _ = run(capsys, "fuzz", "--ineq", "cor1,lem3", "--trials", "4",
                         "--out", str(dest))
        assert code == 0
        return dest

    def test_histograms(self, capsys, tmp_path):
        src = self._make_csv(capsys, tmp_path)
        code, out, _ = run(capsys, "report", "--in", str(src))
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"cor1", "lem3"}
        for h in payload.values():
            assert len(h["bin_edges"]) == 21
            assert len(h["counts"]) == 20
            assert sum(h["counts"]) == h["count"]
            assert h["min"] <= h["median"] <= h["max"]
            assert h["min"] >= -1e-9  # no violations in these campaigns

    def test_csv_output(self, capsys, tmp_path):
        src = self._make_csv(capsys, tmp_path)
        code, out, _ = run(capsys, "report", "--in", str(src), "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ineq_id,bin_lo,bin_hi,count"
        assert len(lines) == 1 + 2 * 20

    def test_stats_equal_campaign_gap_stats(self, capsys, tmp_path):
        dest = tmp_path / "rows.csv"
        rep = run_suite(["cor1", "eqn21", "prop1"], trials=4, dims=(2, 3), csv_path=str(dest))
        code, out, _ = run(capsys, "report", "--in", str(dest))
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == set(rep.gap_stats)
        for ineq_id, stats in rep.gap_stats.items():
            got = payload[ineq_id]
            # %.17g is lossless, so the relative gaps and their stats match exactly
            assert (got["count"], got["min"], got["median"], got["max"], got["mean"]) == (
                stats.count, stats.min, stats.median, stats.max, stats.mean
            )

    def test_zero_byte_input(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")
        code, out, _ = run(capsys, "report", "--in", str(empty))
        assert code == 0
        assert json.loads(out) == {}

    def test_missing_input(self, capsys):
        code, _, _ = run(capsys, "report", "--in", "/no/such.csv")
        assert code == 2

    def test_wrong_header(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        code, _, err = run(capsys, "report", "--in", str(bad))
        assert code == 2

    def test_no_input_flag(self, capsys):
        code, _, _ = run(capsys, "report")
        assert code == 2

    @pytest.mark.parametrize("row", [
        "cor1,0,2,0.5,1",  # truncated: rhs and gap missing
        "cor1,0,2,0.5,1,,1.0,abc,0.5,true",  # rhs not a number
        # a cell beyond the csv module's field limit raises csv.Error
        pytest.param("cor1,0,2," + "x" * 200_000 + ",1,,1.0,1.0,0.0,true",
                     id="cell-over-field-limit"),
    ])
    def test_malformed_row(self, capsys, tmp_path, row):
        bad = tmp_path / "bad.csv"
        bad.write_text("ineq_id,trial,n,alpha,r,s,lhs,rhs,gap,satisfied\n" + row + "\n")
        code, out, err = run(capsys, "report", "--in", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["eval", "--matrix", "ID"],
    ["check", "--ineq", "prop1", "--trials", "1"],
    ["report", "--in", "ROWS"],
    ["fuzz", "--ineq", "prop1", "--trials", "1", "--format", "json"],
])
def test_unwritable_out_path(capsys, tmp_path, identity_path, argv):
    rows = tmp_path / "rows.csv"
    rows.write_text("ineq_id,trial,n,alpha,r,s,lhs,rhs,gap,satisfied\n")
    subst = {"ID": identity_path, "ROWS": str(rows)}
    argv = [subst.get(a, a) for a in argv] + ["--out", str(tmp_path / "missing" / "x.json")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert out == ""


def _python_under_w_error(*args):
    """`python -W error ARGS` on this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    return subprocess.run([sys.executable, "-W", "error", *args],
                          env=env, capture_output=True, text=True, timeout=300)


def _cli_under_w_error(*argv):
    """`python -W error -m berezin.cli ARGV` on this checkout's sources."""
    return _python_under_w_error("-m", "berezin.cli", *argv)


def test_runs_without_mpmath():
    # numpy is the only runtime dependency: with mpmath unimportable, the
    # package imports, runs a finite and a disk campaign, and `berezin fuzz`
    script = "\n".join([
        "import sys",
        "sys.modules['mpmath'] = None",
        "from berezin import hardy, run_suite",
        "from berezin.cli import main",
        "run_suite(trials=1)",
        "run_suite(model=hardy(3, 0.9), level=0, trials=1)",
        "sys.exit(main(['fuzz', '--trials', '1']))",
    ])
    proc = _python_under_w_error("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["violations"] == []
    mentions = [f"{path.name}:{i}"
                for path in sorted(pathlib.Path(SRC).rglob("*.py"))
                for i, line in enumerate(path.read_text().splitlines(), 1)
                if "mpmath" in line or "precise" in line]
    assert mentions == []


@pytest.mark.parametrize("spec, code", [
    ("fock:0:1e154", 0), ("fock:0:1e155", 2), ("fock:0:inf", 2),  # R^2 overflows
    ("hardy:3:2e-154", 0), ("hardy:3:1e-154", 2), ("hardy:3:1e-300", 2),  # R^2 underflows
    ("fock:3:1e24", 0), ("fock:3:1e25", 2), ("fock:3:1e70", 2), ("fock:3:1e200", 2),  # edge jet
])
def test_disk_radius_bounds_without_warnings(tmp_path, spec, code):
    # both sides of each bound on a disk model's radius, under -W error: an
    # accepted radius evaluates without a floating-point warning, a rejected
    # one exits 2 with an error line
    n = int(spec.split(":")[1]) + 1
    path = tmp_path / "m.json"
    save_matrix(path, np.arange(n * n).reshape(n, n) - 1j)
    proc = _cli_under_w_error("eval", "--model", spec, "--matrix", str(path), "--format", "csv")
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    if code == 2:
        assert proc.stderr.startswith("error:") and "domain radius" in proc.stderr
    else:
        assert proc.stdout.splitlines()[0] == "quantity,value"


@pytest.mark.parametrize("top", [1e308, 1.7e308])
def test_overflowing_operator_exits_2_with_one_error_line(tmp_path, top):
    # finite entries up to `top` overflow the disk search: an error, not an
    # inf estimate or a traceback, and no floating-point warning under -W error
    a = gen_matrix(GeneratorSpec("general", 4, 1.0, 3))
    path = tmp_path / "m.json"
    save_matrix(path, a * (top / np.abs(a).max()))
    proc = _cli_under_w_error("eval", "--model", "hardy:3:0.9", "--matrix", str(path),
                              "--level", "0")
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "overflows" in lines[0]
    assert proc.stdout == ""


def test_float_power_overflow_exits_2_with_one_error_line():
    # cor5 squares a Berezin norm near 1e200: a Python float power past
    # float64 raises OverflowError, which is an error line, not a traceback
    proc = _cli_under_w_error("check", "--ineq", "cor5", "--scale", "1e100", "--trials", "1")
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "overflows" in lines[0]
    assert proc.stdout == ""


def test_numpy_overflow_exits_2_with_one_error_line():
    # thm1's products of operands near 1e200 overflow inside numpy matmul:
    # an error line, not a floating-point warning or a traceback
    proc = _cli_under_w_error("check", "--ineq", "thm1", "--scale", "1e200", "--trials", "1")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "overflow" in lines[0]
    assert proc.stdout == ""


def test_large_operands_check_without_warnings():
    # A*A's entries pass 1e154, where their sum of squares in the Hermitian
    # check would overflow unless scaled by a power of two
    proc = _cli_under_w_error("check", "--ineq", "rmk_i", "--scale", "1e6", "--trials", "20")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert json.loads(proc.stdout)["violations"] == []


class TestExitCodes:
    """`main` alone maps a raised failure to an exit code and one stderr line."""

    @pytest.mark.parametrize("command", ["check", "fuzz"])
    def test_eigensolver_failure_exits_2_outside_eval(self, capsys, monkeypatch, command):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        code, out, err = run(capsys, command, "--ineq", "thm1", "--trials", "1")
        assert code == 2 and out == ""
        assert err == "error: Eigenvalues did not converge\n"

    @pytest.mark.parametrize("exc, in_eval, elsewhere", [
        (DimensionMismatch("m"), (3, "error: m\n"), (2, "error: m\n")),
        (NoConvergence("m"), (4, "numerical failure: m\n"), (2, "error: m\n")),
        (np.linalg.LinAlgError("m"), (4, "numerical failure: m\n"), (2, "error: m\n")),
        (PointOutOfDomain("m"), (2, "error: m\n"), (2, "error: m\n")),
        (ValueError("m"), (2, "error: m\n"), (2, "error: m\n")),
        (OSError("m"), (2, "error: m\n"), (2, "error: m\n")),
    ])
    @pytest.mark.parametrize("command", ["eval", "check", "fuzz", "report"])
    def test_table(self, capsys, monkeypatch, command, exc, in_eval, elsewhere):
        def fails(opts):
            raise exc

        monkeypatch.setattr(cli, f"cmd_{command}", fails)
        code, out, err = run(capsys, command)
        assert (code, err) == (in_eval if command == "eval" else elsewhere)
        assert out == ""

    def test_other_exceptions_are_not_exit_codes(self, monkeypatch):
        def fails(opts):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "cmd_eval", fails)
        with pytest.raises(KeyError):
            main(["eval"])


class TestOverflow:
    """A JSON number that a float64 cannot hold is bad input: exit 2, one error line."""

    BIG = "1" + "0" * 401

    @pytest.mark.parametrize("argv, cfg", [
        (["eval", "--matrix", "ID"], '{"model": {"kind": "fock", "R": BIG}}'),
        (["eval", "--matrix", "ID"], '{"model": {"kind": "hardy", "rho": BIG}}'),
        (["check", "--ineq", "thm1"], '{"tol": BIG}'),
        (["check", "--ineq", "thm1"], '{"scale": BIG}'),
        (["check", "--ineq", "thm1"], '{"alpha": [0.5, BIG]}'),
        (["check", "--ineq", "thm1"], '{"r": BIG}'),
        (["fuzz", "--ineq", "thm1", "--trials", "1"], '{"n": [BIG]}'),
        (["check", "--ineq", "lem3", "--alpha", "0.5", "--r", "1", "--s", "2"],
         '{"a": BIG, "b": 1}'),
    ])
    def test_config_number(self, capsys, tmp_path, identity_path, argv, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(cfg.replace("BIG", self.BIG))
        argv = [identity_path if a == "ID" else a for a in argv]
        code, out, err = run(capsys, *argv, "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("entry", ["[BIG, 0]", "[0, -BIG]"])
    def test_matrix_entry(self, capsys, tmp_path, entry):
        path = tmp_path / "m.json"
        path.write_text('{"rows": 1, "cols": 1, "data": [ENTRY]}'.replace("ENTRY", entry)
                        .replace("BIG", self.BIG))
        code, out, err = run(capsys, "eval", "--matrix", str(path))
        assert code == 2 and out == ""
        assert err == "error: data[0] entries must be numbers within float64 range\n"


class TestConfig:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ineq": "prop1", "trials": 9, "seed": 5}))
        code, out, _ = run(capsys, "check", "--config", str(cfg), "--trials", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 2
        assert payload["master_seed"] == 5

    def test_config_supplies_everything(self, capsys, tmp_path, identity_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"matrix": identity_path, "format": "csv"}))
        code, out, _ = run(capsys, "eval", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "quantity,value"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"matrix": "x.json", "speed": "fast"}))
        code, _, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 2
        assert "unknown config keys" in err

    def test_eval_tol_key_rejected(self, capsys, tmp_path, identity_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"matrix": identity_path, "tol": 1e-6}))
        code, _, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 2
        assert "unknown config keys" in err

    def test_fuzz_threads_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ineq": "prop1", "trials": 1, "threads": 2}))
        code, out, err = run(capsys, "fuzz", "--config", str(cfg))
        assert code == 2
        assert "unknown config keys" in err
        assert out == ""

    def test_non_object_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, _ = run(capsys, "eval", "--config", str(cfg))
        assert code == 2

    def test_bad_format_via_config(self, capsys, tmp_path, identity_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        code, _, _ = run(capsys, "eval", "--matrix", identity_path, "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("argv, cfg", [
        (["eval", "--matrix", "ID"], {"format": 5}),
        (["fuzz", "--ineq", "prop1", "--trials", "1"], {"format": 5}),
        (["eval", "--matrix", "ID"], {"level": [1]}),
        (["eval", "--matrix", "ID"], {"level": True}),
        (["eval", "--matrix", "ID"], {"level": "x"}),
        (["fuzz", "--ineq", "prop1", "--trials", "1"], {"gen": "bogus"}),
        (["check", "--ineq", "prop1"], {"trials": 2.5}),
        (["check", "--ineq", "prop1"], {"alpha": [0.5, "x"]}),
        (["eval"], {"matrix": 7}),
        (["eval", "--matrix", "ID"], {"matrix": 7}),  # checked even where a flag wins
        (["fuzz", "--ineq", "prop1", "--trials", "1"], {"n": []}),  # as --n ""
    ])
    def test_config_values_pass_the_flag_checks(self, capsys, tmp_path, identity_path, argv, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = [identity_path if a == "ID" else a for a in argv]
        code, out, err = run(capsys, *argv, "--config", str(path))
        assert code == 2
        assert err.startswith("error: ") and out == ""

    @pytest.mark.parametrize("argv", [["eval", "--matrix", "ID"], ["check", "--ineq", "prop1"]])
    @pytest.mark.parametrize("model", [
        {"kind": "hardy", "degree": None},
        {"kind": "finite", "n": [2]},
        {"kind": "fock", "R": True},
        {"kind": "hardy", "degree": 15.0},
    ])
    def test_bad_model_descriptor(self, capsys, tmp_path, identity_path, argv, model):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": model}))
        argv = [identity_path if a == "ID" else a for a in argv]
        code, out, err = run(capsys, *argv, "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_config_values_of_flag_types(self, capsys, tmp_path):
        # strings go through the flag's type; numbers, lists of numbers for
        # comma lists and a descriptor object for the model pass as they are
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "ineq": "lem3", "trials": "2", "scale": 1, "alpha": 0.5, "r": [1], "s": "2",
            "model": {"kind": "hardy", "degree": 2, "rho": 0.5}, "gen": "hermitian",
        }))
        code, out, _ = run(capsys, "check", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["trials"] == 2
