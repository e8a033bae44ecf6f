import csv
import io

import numpy as np
import pytest

import _oracles as orc
from berezin import (
    GeneratorSpec,
    UnknownIneqId,
    counterexample_check,
    gen_commuting_pair,
    gen_matrix,
    is_positive,
    run_suite,
)
from berezin.fuzz import (
    CSV_COLUMNS,
    DEFAULT_DIMS,
    MATRIX_KINDS,
    ValueStream,
    param_grid,
    sample_operands,
)
from berezin.inequalities import CATALOG


class TestValueStream:
    def test_deterministic(self):
        a = ValueStream(42).uniforms(100)
        b = ValueStream(42).uniforms(100)
        assert np.array_equal(a, b)

    def test_uniform_range(self):
        u = ValueStream(7).uniforms(10000)
        assert u.min() > 0.0 and u.max() <= 1.0

    def test_gaussian_moments(self):
        g = ValueStream(3).gaussians(200000)
        assert abs(g.mean()) < 0.02
        assert abs(g.std() - 1.0) < 0.02

    def test_seeds_decorrelate(self):
        a = ValueStream(1).gaussians(64)
        b = ValueStream(2).gaussians(64)
        assert not np.array_equal(a, b)


class TestGenerators:
    def test_fixed_seed_reproducible(self):
        spec = GeneratorSpec(kind="general", n=3, scale=1.0, seed=42)
        a, b = gen_matrix(spec), gen_matrix(spec)
        assert a.tobytes() == b.tobytes()

    def test_hermitian_exact(self):
        h = gen_matrix(GeneratorSpec(kind="hermitian", n=4, seed=5))
        assert np.array_equal(h, h.conj().T)

    def test_positive_kind(self):
        p = gen_matrix(GeneratorSpec(kind="positive", n=5, seed=9))
        assert is_positive(p, tol=1e-10)

    def test_unitary_kind(self):
        u = gen_matrix(GeneratorSpec(kind="unitary", n=5, seed=11))
        assert np.abs(u.conj().T @ u - np.eye(5)).max() <= 1e-10

    def test_rank_deficient_kind(self):
        for n in (2, 3, 4, 5):
            m = gen_matrix(GeneratorSpec(kind="rank-deficient", n=n, seed=13))
            assert is_positive(m, tol=1e-9)
            rank = int(np.sum(np.linalg.eigvalsh(m) > 1e-10))
            assert rank == n - (n + 1) // 2

    def test_identity_kind(self):
        m = gen_matrix(GeneratorSpec(kind="identity", n=3, seed=1))
        assert np.array_equal(m, np.eye(3, dtype=complex))

    def test_commuting_pair(self):
        p, q = gen_commuting_pair(GeneratorSpec(kind="commuting-positive-pair", n=4, seed=17))
        comm = np.abs(p @ q - q @ p).max()
        assert comm <= 1e-10 * max(1.0, orc.op_norm(p) * orc.op_norm(q))
        assert is_positive(p, tol=1e-9) and is_positive(q, tol=1e-9)

    def test_scale_is_linear_for_general(self):
        a = gen_matrix(GeneratorSpec(kind="general", n=3, scale=1.0, seed=23))
        b = gen_matrix(GeneratorSpec(kind="general", n=3, scale=2.5, seed=23))
        assert np.allclose(b, 2.5 * a, atol=0)

    def test_pair_kind_needs_pair_call(self):
        with pytest.raises(ValueError):
            gen_matrix(GeneratorSpec(kind="commuting-positive-pair", n=3, seed=1))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_matrix(GeneratorSpec(kind="cauchy", n=3, seed=1))

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            gen_matrix(GeneratorSpec(kind="general", n=0, seed=1))


class TestSampleOperands:
    def test_positive_entries_get_positive_operands(self):
        entry = CATALOG["eqn11"]
        ops = sample_operands(entry, 4, 1.0, 99, matrix_kind="general")
        assert is_positive(ops["A"], tol=1e-9) and is_positive(ops["B"], tol=1e-9)

    def test_rank_deficient_override_allowed_on_positive(self):
        entry = CATALOG["eqn11"]
        ops = sample_operands(entry, 4, 1.0, 99, matrix_kind="rank-deficient")
        w = np.linalg.eigvalsh(ops["A"])
        assert np.sum(w > 1e-10) < 4

    def test_commuting_entries(self):
        entry = CATALOG["eqn13"]
        ops = sample_operands(entry, 3, 1.0, 7)
        a, b = ops["A"], ops["B"]
        assert np.abs(a @ b - b @ a).max() <= 1e-10 * max(1.0, orc.op_norm(a) * orc.op_norm(b))

    def test_vectors_are_unit(self):
        entry = CATALOG["lem2"]
        ops = sample_operands(entry, 5, 1.0, 3)
        assert np.linalg.norm(ops["x"]) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(ops["y"]) == pytest.approx(1.0, abs=1e-12)

    def test_scalars_nonnegative(self):
        entry = CATALOG["lem3"]
        for seed in range(20):
            ops = sample_operands(entry, 2, 1.0, seed)
            assert ops["a"] >= 0.0 and ops["b"] >= 0.0

    def test_identity_override(self):
        entry = CATALOG["thm1"]
        ops = sample_operands(entry, 3, 1.0, 5, matrix_kind="identity")
        for name in "ABCDXY":
            assert np.array_equal(ops[name], np.eye(3, dtype=complex))


class TestParamGrid:
    def test_defaults(self):
        grid = param_grid(CATALOG["cor1"], None)
        alphas = {c["alpha"] for c in grid}
        rs = {c["r"] for c in grid}
        assert alphas == {0.0, 0.25, 0.5, 0.75, 1.0}
        assert rs == {1.0, 1.5, 2.0, 3.0}
        assert len(grid) == 5 * 4 * 4

    def test_interior_filter(self):
        grid = param_grid(CATALOG["eqn2cmp"], None)
        assert {c["alpha"] for c in grid} == {0.25, 0.5, 0.75}

    def test_lem3_ordering(self):
        grid = param_grid(CATALOG["lem3"], None)
        assert all(c["r"] <= c["s"] for c in grid)
        assert any(c["r"] == 0.0 for c in grid)

    def test_sweep_override(self):
        grid = param_grid(CATALOG["cor1"], {"alpha": [0.5], "r": [2], "s": [1, 3]})
        assert len(grid) == 2
        assert all(c["alpha"] == 0.5 and c["r"] == 2.0 for c in grid)

    def test_no_params_single_combo(self):
        assert param_grid(CATALOG["prop1"], None) == [{}]


class TestRunSuite:
    def test_prop1_positive_campaign(self):
        rep = run_suite(["prop1"], gen=GeneratorSpec(kind="positive", n=4, seed=7), trials=100)
        assert rep.violations == []
        assert rep.rows_evaluated == 100

    def test_eql1_general_campaign(self):
        rep = run_suite(["eql1"], trials=100, dims=(2, 3, 4, 5, 6))
        assert rep.violations == []

    def test_identity_trial_gaps(self):
        rep = run_suite(trials=1, gen=GeneratorSpec(kind="identity", n=2, seed=0), collect_rows=True)
        assert rep.violations == []
        assert all(row["gap"] >= -1e-12 for row in rep.rows)
        tight = {row["ineq_id"] for row in rep.rows if row["gap"] <= 1e-12}
        assert "thm1" in tight and "prop1" in tight

    def test_unknown_id(self):
        with pytest.raises(UnknownIneqId):
            run_suite(["thm99"], trials=1)

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            run_suite(["prop1"], trials=0)

    def test_report_shape(self):
        rep = run_suite(["lem3", "prop1"], trials=3, collect_rows=True)
        assert rep.suite == ("lem3", "prop1")
        assert rep.trials == 3
        assert rep.rows_evaluated == len(rep.rows)
        assert rep.runtime_seconds >= 0.0
        for stats in rep.gap_stats.values():
            assert stats.min <= stats.median <= stats.max
        lem3_rows = [r for r in rep.rows if r["ineq_id"] == "lem3"]
        assert all(r["n"] is None for r in lem3_rows)  # scalar-only entry

    def test_default_suite_is_whole_catalog(self):
        rep = run_suite(trials=1)
        assert set(rep.suite) == set(CATALOG)

    def test_dims_cycle(self):
        rep = run_suite(["prop1"], trials=4, dims=(2, 5), collect_rows=True)
        ns = [r["n"] for r in rep.rows]
        assert ns == [2, 5, 2, 5]

    def test_per_trial_seed_is_master_xor_trial(self):
        base = run_suite(["cor1"], trials=2, dims=(3,), gen=GeneratorSpec(kind="general", n=3, seed=40), collect_rows=True)
        shifted = run_suite(["cor1"], trials=1, dims=(3,), gen=GeneratorSpec(kind="general", n=3, seed=40 ^ 1), collect_rows=True)
        second_trial = [r for r in base.rows if r["trial"] == 1]
        assert len(second_trial) == len(shifted.rows)
        for got, want in zip(second_trial, shifted.rows):
            assert got["lhs"] == want["lhs"] and got["rhs"] == want["rhs"]


class TestDeterminism:
    def test_report_identical_across_runs(self):
        a = run_suite(["cor5"], trials=5, collect_rows=True)
        b = run_suite(["cor5"], trials=5, collect_rows=True)
        assert a.rows == b.rows
        assert a.gap_stats == b.gap_stats


class TestCsvFormat:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        rep = run_suite(["cor1", "lem3"], trials=2, csv_path=str(path))
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "ineq_id,trial,n,alpha,r,s,lhs,rhs,gap,satisfied"
        n_combos = len(param_grid(CATALOG["cor1"], None)) + len(param_grid(CATALOG["lem3"], None))
        assert len(lines) - 1 == 2 * n_combos == rep.rows_evaluated

    def test_row_values_roundtrip(self, tmp_path):
        path = tmp_path / "out.csv"
        rep = run_suite(["prop1"], trials=3, csv_path=str(path), collect_rows=True)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for got, kept in zip(rows, rep.rows):
            assert float(got["lhs"]) == kept["lhs"]  # %.17g is lossless
            assert float(got["rhs"]) == kept["rhs"]
            assert got["satisfied"] in ("true", "false")
            assert got["alpha"] == "" and got["r"] == "" and got["s"] == ""

    def test_unix_newlines(self, tmp_path):
        path = tmp_path / "out.csv"
        run_suite(["lem3"], trials=1, csv_path=str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw


class TestCounterexample:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_paper_example(self, n):
        res = counterexample_check(n)
        assert res.satisfied
        assert res.lhs == 0.0  # Berezin number vanishes identically
        assert res.rhs == 1.0  # Berezin norm does not
        wit = res.witness
        assert wit["dimension"] == 2 * n
        assert wit["hermitian"] is True
        assert abs(wit["numerical_radius"] - 1.0) <= 1e-9
        assert abs(wit["operator_norm"] - 1.0) <= 1e-9
