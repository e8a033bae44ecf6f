import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest

import _oracles as orc
from berezin import (
    GeneratorSpec,
    ParamOutOfRange,
    UnknownIneqId,
    counterexample_check,
    gen_commuting_pair,
    gen_matrix,
    hardy,
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
from berezin import _cache, calc, finite, fuzz, inequalities, models
from berezin.cli import main
from berezin.inequalities import CATALOG, Part


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

    def test_identity_override_of_scalars_vectors_and_pairs(self):
        # scalars 1, unit vectors e_1, and I for both halves of a commuting pair
        ops = sample_operands(CATALOG["lem3"], 3, 2.0, 5, matrix_kind="identity")
        assert ops == {"a": 1.0, "b": 1.0}
        ops = sample_operands(CATALOG["lem2"], 3, 2.0, 5, matrix_kind="identity")
        assert np.array_equal(ops["A"], np.eye(3)) and ops["x"].dtype == np.complex128
        assert np.array_equal(ops["x"], [1, 0, 0]) and np.array_equal(ops["y"], [1, 0, 0])
        ops = sample_operands(CATALOG["eqn13"], 3, 2.0, 5, matrix_kind="identity")
        assert set(ops) == {"A", "B"}
        assert np.array_equal(ops["A"], np.eye(3)) and np.array_equal(ops["B"], np.eye(3))


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

    def test_prop1_holds_on_disk_model(self):
        # the first campaign-disk operand: the norm's refinement stops 2.8e-8
        # below the number, which the lift closes
        rep = run_suite(["prop1"], model=hardy(3, 0.9), level=0, trials=1, dims=(4,),
                        gen=GeneratorSpec(n=4, seed=0xD15C0000), collect_rows=True)
        assert rep.violations == []
        assert rep.rows[0]["satisfied"] and rep.rows[0]["lhs"] == rep.rows[0]["rhs"]

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

    @pytest.mark.parametrize("kind", ["bogus", "commuting-positive-pair"])
    def test_unknown_generator_kind_raises_before_the_csv(self, tmp_path, monkeypatch, kind):
        sampled = []
        monkeypatch.setattr(fuzz, "sample_operands", lambda *a, **k: sampled.append(a))
        path = tmp_path / "never.csv"
        for suite in (None, ["lem3"]):  # a scalar-only suite draws no matrix
            with pytest.raises(ValueError, match=f"^unknown generator kind '{kind}'$"):
                run_suite(suite, gen=GeneratorSpec(kind=kind), trials=1, csv_path=str(path))
        assert sampled == [] and not path.exists()

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


class TestViolations:
    """A failing combination is reported with everything needed to replay it."""

    @pytest.fixture
    def failing_cor4(self, monkeypatch):
        # cor4 fails at r = 2 by 100x the tolerance and at r = 3 by 5x; the
        # fixture's value lists one item per evaluator built
        entry = CATALOG["cor4"]
        built = []

        def failing(ops, env):
            built.append(1)
            parts = entry.evaluate(ops, env)

            def failing_parts(r):
                if r == 2.0:
                    return [Part("main", 1.0 + 1e-7, 1.0)]
                if r == 3.0:
                    return [Part("main", 1.0 + 5e-9, 1.0)]
                return parts(r=r)
            return failing_parts

        monkeypatch.setitem(CATALOG, "cor4", dataclasses.replace(entry, evaluate=failing))
        return built

    def test_violation_fields_and_rows(self, tmp_path, failing_cor4):
        # the marginal r = 3 row is a plain violation: reported with its
        # float64 values, by the one evaluator of its trial
        path = tmp_path / "violations.csv"
        gen = GeneratorSpec(kind="hermitian", n=3, scale=2.0, seed=40)
        rep = run_suite(["cor4"], gen=gen, trials=2, dims=(3, 4), csv_path=str(path))
        assert rep.marginal_retries == 0 and len(failing_cor4) == 2
        assert [(v.trial, v.params) for v in rep.violations] == [
            (0, {"r": 2.0}), (0, {"r": 3.0}), (1, {"r": 2.0}), (1, {"r": 3.0}),
        ]
        for v in rep.violations:
            n = (3, 4)[v.trial]
            lhs = 1.0 + (1e-7 if v.params["r"] == 2.0 else 5e-9)
            assert (v.ineq_id, v.seed, v.n) == ("cor4", 40 ^ v.trial, n)
            assert (v.kind, v.scale) == ("hermitian", 2.0)
            assert (v.lhs, v.rhs, v.gap) == (lhs, 1.0, 1.0 - lhs)
            assert v.witness == {
                "part": "main",
                "parts": [{"part": "main", "lhs": lhs, "rhs": 1.0, "gap": 1.0 - lhs}],
                "params": v.params,
                "n": n,
            }
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["r"], row["satisfied"]) for row in rows] == [
            ("1", "true"), ("1.5", "true"), ("2", "false"), ("3", "false")] * 2

    def test_fuzz_exits_1(self, capsys, failing_cor4):
        code = main(["fuzz", "--ineq", "cor4", "--trials", "1", "--n", "3", "--format", "json"])
        assert code == 1
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["violations"]) == 2 and summary["marginal_retries"] == 0
        assert all("retried" not in v for v in summary["violations"])


class TestEarlyParamValidation:
    def test_bad_sweep_raises_before_any_row(self, tmp_path, monkeypatch):
        sampled = []
        monkeypatch.setattr(fuzz, "sample_operands", lambda *a, **k: sampled.append(a))
        path = tmp_path / "never.csv"
        with pytest.raises(ParamOutOfRange, match=r"^thm1 needs r >= 1, got 0\.5$"):
            run_suite(["prop1", "thm1"], sweep={"r": [0.5]}, trials=2, csv_path=str(path))
        with pytest.raises(ParamOutOfRange, match=r"^alpha must lie in \[0, 1\], got 1\.5$"):
            run_suite(["thm1"], sweep={"alpha": [1.5]}, trials=2)
        assert sampled == [] and not path.exists()

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_raises_before_any_row(self, tmp_path, monkeypatch, tol):
        sampled = []
        monkeypatch.setattr(fuzz, "sample_operands", lambda *a, **k: sampled.append(a))
        path = tmp_path / "never.csv"
        with pytest.raises(ParamOutOfRange, match="tolerance must be finite and >= 0"):
            run_suite(["prop1"], trials=2, tolerance=tol, csv_path=str(path))
        assert sampled == [] and not path.exists()

    @pytest.mark.parametrize("model, level", [(None, -1), (finite(3), -3),
                                              (hardy(3, 0.9), -1), (hardy(3, 0.9), 5)])
    def test_bad_level_raises_before_any_row(self, tmp_path, monkeypatch, model, level):
        # negative on every model; above models.MAX_LEVEL = 4 on a continuous one
        sampled = []
        monkeypatch.setattr(fuzz, "sample_operands", lambda *a, **k: sampled.append(a))
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError, match="level must be >= 0"):
            run_suite(["prop1"], model=model, trials=2, level=level, csv_path=str(path))
        assert sampled == [] and not path.exists()

    def test_level_above_max_runs_on_finite_models(self):
        for model in (None, finite(3)):
            report = run_suite(["prop1"], model=model, trials=1, level=5)
            assert report.rows_evaluated == 1 and report.violations == []

    def test_dims_other_than_the_models_raise_before_any_row(self, tmp_path, monkeypatch):
        sampled = []
        monkeypatch.setattr(fuzz, "sample_operands", lambda *a, **k: sampled.append(a))
        path = tmp_path / "never.csv"
        for dims in ((5,), (2, 5), (4, 5)):
            with pytest.raises(ValueError, match=r"disagree with the model's dimension 4$"):
                run_suite(["prop1"], model=hardy(3, 0.9), dims=dims, trials=2, level=0,
                          csv_path=str(path))
        assert sampled == [] and not path.exists()

    def test_the_model_fixes_the_dimension(self):
        runs = [run_suite(["prop1"], model=hardy(3, 0.9), dims=dims, trials=2, level=0,
                          gen=GeneratorSpec(n=2), collect_rows=True).rows
                for dims in (None, (4,), (4, 4))]
        assert runs[0] == runs[1] == runs[2]
        assert [row["n"] for row in runs[0]] == [4, 4]

    def test_filters_keep_their_behaviour(self):
        grid = param_grid(CATALOG["eqn2cmp"], {"alpha": [0.0, 0.5, 1.0]})
        assert {c["alpha"] for c in grid} == {0.5}
        grid = param_grid(CATALOG["lem3"], {"alpha": [0.5], "r": [0.5, 3.0], "s": [1.0]})
        assert grid == [{"alpha": 0.5, "r": 0.5, "s": 1.0}]
        with pytest.raises(ParamOutOfRange, match="no valid values for parameter alpha"):
            param_grid(CATALOG["eqn2cmp"], {"alpha": [0.0, 1.0]})

    def test_lem3_sweep_without_r_le_s_raises_before_any_row(self, monkeypatch):
        sampled = []
        monkeypatch.setattr(fuzz, "sample_operands", lambda *a, **k: sampled.append(a))
        with pytest.raises(ParamOutOfRange, match=r"^no valid \(r, s\) with r <= s for lem3$"):
            run_suite(["lem3"], sweep={"r": [3.0], "s": [1.0]}, trials=2)
        assert sampled == []

    def test_non_finite_sweep_value_raises_before_the_filters(self):
        # the lem3 and interior-alpha filters would otherwise report "no valid ..."
        cases = [(["lem3"], {"r": [float("nan")]}, "r"),
                 (["eqn2cmp"], {"alpha": [float("inf")]}, "alpha"),
                 (["lem3"], {"alpha": [0.5], "s": [float("-inf")]}, "s"),
                 (["thm1"], {"r": [float("nan")]}, "r")]
        for suite, sweep, name in cases:
            with pytest.raises(ParamOutOfRange, match=rf"^parameter {name} must be finite$"):
                run_suite(suite, sweep=sweep, trials=1)


class TestDeterminism:
    def test_report_identical_across_runs(self):
        a = run_suite(["cor5"], trials=5, collect_rows=True)
        b = run_suite(["cor5"], trials=5, collect_rows=True)
        assert a.rows == b.rows
        assert a.gap_stats == b.gap_stats


class TestScope:
    def test_csv_identical_without_memo(self, tmp_path, monkeypatch):
        # the oracle for the memo and for validating operands once per trial
        cached, plain = tmp_path / "cached.csv", tmp_path / "plain.csv"
        run_suite(trials=2, dims=(2, 3, 4, 6), csv_path=str(cached))
        monkeypatch.setattr(fuzz, "computation_scope", contextlib.nullcontext)
        run_suite(trials=2, dims=(2, 3, 4, 6), csv_path=str(plain))
        assert cached.read_bytes() == plain.read_bytes()

    def test_operands_validated_once_per_trial(self, monkeypatch):
        calls = []
        validate = inequalities._validated_operands

        def counting(entry, case):
            calls.append(entry.ineq_id)
            return validate(entry, case)

        monkeypatch.setattr(inequalities, "_validated_operands", counting)
        monkeypatch.setattr(fuzz, "_validated_operands", counting, raising=False)
        rep = run_suite(["thm1", "prop1", "lem3"], trials=3, dims=(2, 3))
        assert rep.rows_evaluated > 9
        assert sorted(calls) == ["lem3"] * 3 + ["prop1"] * 3 + ["thm1"] * 3


class TestTrialScope:
    """One memo scope per trial, shared by every entry; rows stay entry-major."""

    def test_berezin_number_computed_once_per_distinct_operand(self, monkeypatch):
        # counted at the trial's batched search: no search runs twice
        searched = []
        search = calc._grid_sup

        def counting(model, searches, level):
            searched.extend((model, a.shape, a.tobytes(), level, norm) for a, norm in searches)
            return search(model, searches, level)

        monkeypatch.setattr(calc, "_grid_sup", counting)
        run_suite(model=hardy(3, 0.9), level=0, trials=1, dims=(4,),
                  gen=GeneratorSpec(n=4, seed=0xD15C0000))
        assert len([s for s in searched if not s[-1]]) > len(CATALOG)
        assert len(searched) == len(set(searched))

    def test_failed_campaign_leaves_only_the_header(self, tmp_path, monkeypatch):
        entry = CATALOG["prop1"]
        built = []

        def fails_at_trial_1(ops, env):
            built.append(1)
            if len(built) == 2:
                raise RuntimeError("evaluator failed at trial 1")
            return entry.evaluate(ops, env)

        monkeypatch.setitem(CATALOG, "prop1", dataclasses.replace(entry, evaluate=fails_at_trial_1))
        path = tmp_path / "failed.csv"
        with pytest.raises(RuntimeError, match="trial 1"):
            run_suite(["cor1", "prop1"], trials=3, csv_path=str(path))
        assert path.read_bytes() == b",".join(c.encode() for c in CSV_COLUMNS) + b"\n"

    def test_rows_are_not_held_until_the_end(self, tmp_path):
        path = tmp_path / "spilled.csv"

        def peak_and_rows(trials):
            tracemalloc.start()
            try:
                rep = run_suite(["thm1"], trials=trials, csv_path=str(path))
                return tracemalloc.get_traced_memory()[1], rep.rows_evaluated
            finally:
                tracemalloc.stop()

        peak_and_rows(1)  # first-call costs
        small, few = peak_and_rows(2)
        large, many = peak_and_rows(10)
        shortest_row = min(len(line) for line in path.read_bytes().splitlines(keepends=True)[1:])
        assert (large - small) / (many - few) < shortest_row


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

    def test_whole_catalog_golden_bytes(self, tmp_path):
        # Pins the CSV bytes of a whole-catalog campaign at seed 0.  The hash
        # is platform-specific (numpy, BLAS and libm builds may move last
        # bits).  A change that moves it on purpose updates it here and
        # reports the drift in CHANGES.md.
        path = tmp_path / "golden.csv"
        run_suite(trials=2, dims=(2, 3, 4, 6), csv_path=str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "75763affc9b8781f4865d6c4f018df8d10b2ef095a8ce3790cfade7c7de8a16c"
        )

    def test_disk_campaign_golden_bytes(self, tmp_path):
        # Pins the CSV bytes of one campaign-disk-shaped call, so drift in the
        # disk search (grid, ascent, best-value order) shows.  Platform-specific
        # like the finite hash above.
        path = tmp_path / "golden-disk.csv"
        run_suite(model=hardy(3, 0.9), level=0, trials=1, dims=(4,),
                  gen=GeneratorSpec(n=4, seed=0xD15C0000), csv_path=str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "990fc8462d37e2cd93bcb1e2afda6a34f28f770fd07833e30e18ce8eeff96bde"
        )

    def test_disk_campaign_searches_power_of_two_multiples_once(self, tmp_path, monkeypatch):
        # The golden disk call's disk searches, counted in operators at the
        # batched entry point: exact 2^k multiples of an operator searched
        # earlier in the trial (mostly eqn11's doubles of thm2's and eqn1's
        # of cor1's) share its search.  211 without it.
        searched = []
        search = calc._grid_sup
        monkeypatch.setattr(calc, "_grid_sup", lambda model, searches, level: (
            searched.extend(searches) or search(model, searches, level)))
        run_suite(model=hardy(3, 0.9), level=0, trials=1, dims=(4,),
                  gen=GeneratorSpec(n=4, seed=0xD15C0000), csv_path=str(tmp_path / "d.csv"))
        assert len(searched) == 156

    GOLDEN_DISK = dict(model=hardy(3, 0.9), level=0, trials=1, dims=(4,),
                       gen=GeneratorSpec(n=4, seed=0xD15C0000))

    @staticmethod
    def _lone_check(entry, trial, campaign, combo):
        """`check` of the case that a campaign's row (entry, trial, combo)
        judges."""
        gen, model = campaign["gen"], campaign["model"]
        ops = sample_operands(entry, model.dimension, gen.scale, gen.seed ^ trial, gen.kind)
        return inequalities.check(inequalities.InequalityCase(
            entry.ineq_id, ops, combo, model=model, level=campaign["level"]))

    @pytest.mark.parametrize("campaign", [
        GOLDEN_DISK,
        dict(model=models.bergman(3, 0.9), level=1, trials=2, gen=GeneratorSpec(n=4, seed=5)),
        dict(model=models.fock(3, 2.0), level=1, trials=2, gen=GeneratorSpec(n=4, seed=6)),
    ], ids=["golden", "bergman", "fock"])
    def test_csv_identical_without_planning(self, campaign):
        # batch independence: every disk row, whose trial searches in one
        # batch, equals a `check` of its case alone, bit for bit (the checks
        # of one entry's trial share a memo scope, not a batch)
        rows = iter(run_suite(collect_rows=True, **campaign).rows)
        for ineq_id in inequalities.CATALOG_ORDER:
            for trial in range(campaign["trials"]):
                with _cache.computation_scope():
                    for combo in param_grid(CATALOG[ineq_id]):
                        res = self._lone_check(CATALOG[ineq_id], trial, campaign, combo)
                        row = next(rows)
                        assert (row["ineq_id"], row["trial"]) == (ineq_id, trial)
                        assert (row["lhs"].hex(), row["rhs"].hex(), row["satisfied"]) == (
                            res.lhs.hex(), res.rhs.hex(), res.satisfied), (ineq_id, combo)
        assert next(rows, None) is None

    def test_lone_disk_check_searches_in_one_batch(self, monkeypatch):
        # a multi-search entry's check: one _grid_sup call for all its
        # searches, with the campaign row's values
        entry = CATALOG["thm1"]
        row = run_suite(["thm1"], collect_rows=True, **self.GOLDEN_DISK).rows[0]
        batches = self._batches(monkeypatch)
        res = self._lone_check(entry, 0, self.GOLDEN_DISK, param_grid(entry)[0])
        assert len(batches) == 1 and len(batches[0]) == 3  # the norm and two numbers
        assert (res.lhs.hex(), res.rhs.hex()) == (row["lhs"].hex(), row["rhs"].hex())

    @staticmethod
    def _batches(monkeypatch):
        """The searches of each _grid_sup call, one list per call."""
        batches, search = [], calc._grid_sup

        def counted(model, searches, level):
            batches.append(searches)
            return search(model, searches, level)

        monkeypatch.setattr(calc, "_grid_sup", counted)
        return batches

    def test_golden_disk_call_searches_nothing_on_demand(self, tmp_path, monkeypatch):
        # every disk search of a trial runs in the trial's one batch
        batches = self._batches(monkeypatch)
        run_suite(csv_path=str(tmp_path / "d.csv"), **self.GOLDEN_DISK)
        assert [len(b) for b in batches] == [156]
        batches.clear()
        run_suite(model=models.bergman(3, 0.9), level=0, trials=3, gen=GeneratorSpec(n=4, seed=5))
        assert len(batches) == 3

    def test_operators_that_do_not_split_are_planned(self, monkeypatch):
        # eql1 on the identity: its self-commutator is zero, which has no
        # power-of-two split; it is searched as it is, in the trial's batch
        batches = self._batches(monkeypatch)
        run_suite(["eql1"], model=models.hardy(3, 0.9), level=0, trials=1, dims=(4,),
                  gen=GeneratorSpec(kind="identity", n=4))
        (batch,) = batches
        assert any(not a.any() for a, _ in batch)

    @staticmethod
    def _failing_entries(monkeypatch):
        """Entries that fail: "boom" in its evaluator, "lost" in its search
        (of a non-finite operator), which raises once its value is forced
        after the trial's batch, and "both", whose evaluator raises after
        asking for that failing search."""
        def boom(ops, env):
            raise ValueError("boom")

        def lost(ops, env):
            value = env.ber(np.full_like(ops["A"], np.nan))
            return lambda: [Part("main", value, 1.0)]

        def both(ops, env):
            lost(ops, env)
            raise ValueError("evaluator")

        for name, ev in (("boom", boom), ("lost", lost), ("both", both)):
            monkeypatch.setitem(CATALOG, name, dataclasses.replace(CATALOG["eql1"], ineq_id=name,
                                                                  evaluate=ev))

    def test_evaluator_error_wins_within_its_entry(self, tmp_path, monkeypatch):
        # inside one entry, an evaluator error is raised over the error of a
        # search it asked for earlier, since the search runs after it
        self._failing_entries(monkeypatch)
        path = tmp_path / "e.csv"
        with pytest.raises(ValueError, match="evaluator"):
            run_suite(["eql1", "both"], csv_path=str(path), **self.GOLDEN_DISK)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    @pytest.mark.parametrize("search_first", [True, False])
    def test_errors_keep_their_entry_order(self, tmp_path, monkeypatch, search_first):
        # the first failing entry's error is raised, whether it comes from
        # its evaluator or from its search, and the CSV keeps its header only
        self._failing_entries(monkeypatch)
        suite, first = ((["eql1", "lost", "boom"], "non-finite") if search_first
                        else (["eql1", "boom", "lost"], "boom"))
        path = tmp_path / "e.csv"
        with pytest.raises(ValueError, match=first):
            run_suite(suite, csv_path=str(path), **self.GOLDEN_DISK)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_finite_campaigns_do_not_plan(self, monkeypatch):
        # no disk search on finite models, nor for entries without a model
        monkeypatch.setattr(calc, "_grid_sup", lambda *args: pytest.fail("searched"))
        run_suite(["cor1", "prop1"], trials=2, dims=(3,))
        run_suite(["rmk_i", "lem2", "lem3"], model=hardy(3, 0.9), level=0, trials=1)

    def test_unix_newlines(self, tmp_path):
        path = tmp_path / "out.csv"
        run_suite(["lem3"], trials=1, csv_path=str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw

    EDGE_ROWS = [
        ("thm1", 0, 3, 0.5, 1.0, None, 1.0, 2.0, 1.0, True),
        ("lem3", 7, None, 0.25, 0.0, 3.0, float("nan"), float("inf"), float("-inf"), False),
        ("cor1", 12, 2, None, None, None, -0.0, 5e-324, 1e308, True),
        ("eqn21", 1, 6, 0.0, 1.5, 2.0, -1e308, -5e-324, float("nan"), False),
        ("rmk_iv", 99, 4, 1.0, None, None, 0.1, 1.0 / 3.0, -0.0, True),
    ]

    @staticmethod
    def _writer_cells(row):
        # the cells a csv.writer was handed for a row: %.17g floats, empty
        # None, plain ints and ids, true/false verdicts
        def cell(x):
            if isinstance(x, bool):
                return "true" if x else "false"
            if x is None:
                return ""
            return str(x) if isinstance(x, (str, int)) else f"{x:.17g}"
        return [cell(x) for x in row]

    @pytest.mark.parametrize("row", EDGE_ROWS)
    def test_csv_row_is_what_csv_writer_wrote(self, row):
        cells = self._writer_cells(row)
        buf = io.StringIO(newline="")
        csv.writer(buf, lineterminator="\n").writerow(cells)
        line = fuzz._csv_row(row)
        assert line == buf.getvalue()
        assert next(csv.reader([line.rstrip("\n")])) == cells
        for x, cell in zip(row[3:9], cells[3:9]):  # alpha, r, s, lhs, rhs, gap
            if x is not None:
                assert np.float64(float(cell)).tobytes() == np.float64(x).tobytes()

    def test_csv_header_is_what_csv_writer_wrote(self):
        buf = io.StringIO(newline="")
        csv.writer(buf, lineterminator="\n").writerow(CSV_COLUMNS)
        assert fuzz._CSV_HEADER == buf.getvalue()


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
