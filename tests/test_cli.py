import json

import numpy as np
import pytest

from berezin.cli import main
from berezin.io import save_matrix


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


class TestFuzz:
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
