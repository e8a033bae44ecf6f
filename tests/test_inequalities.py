import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as orc
from berezin import (
    DimensionMismatch,
    NotCommuting,
    NotPositive,
    ParamOutOfRange,
    UnknownIneqId,
    finite,
    hardy,
    power_mean,
    verify_positive_equality,
)
from berezin.fuzz import param_grid, sample_operands
from berezin._cache import computation_scope
from berezin.inequalities import (
    CATALOG,
    CATALOG_ORDER,
    InequalityCase,
    _evaluate_grid,
    _result,
    _validated_operands,
    check,
)

I2 = np.eye(2, dtype=complex)
SHIFT = np.array([[0, 1], [0, 0]], dtype=complex)


def _identity_ops(entry, n):
    return sample_operands(entry, n, 1.0, 0, matrix_kind="identity")


def _zero_ops(entry, n):
    ops = dict(_identity_ops(entry, n))
    for name, kind in entry.operand_spec:
        if kind == "scalar":
            ops[name] = 0.0
        elif kind != "unit-vector":
            ops[name] = np.zeros((n, n), dtype=complex)
    return ops


def _run(ineq_id, ops, params, n=2, tol=1e-9):
    entry = CATALOG[ineq_id]
    model = finite(n) if entry.needs_model else None
    return check(InequalityCase(ineq_id=ineq_id, operands=ops, params=params, model=model, tolerance=tol))


def _first_params(ineq_id):
    return param_grid(CATALOG[ineq_id], None)[0]


class TestCatalogShape:
    def test_expected_ids(self):
        want = {
            "thm1", "cor1", "eqn1", "eqn2cmp", "eq1", "ceb", "cor4", "prop1",
            "cor5", "eqn21", "reim", "cor6", "eqn3", "eqn4", "eqn5", "abprod",
            "cor8", "eqn6", "eql1", "thm2", "eqn11", "eqn12", "eqn13", "thm3",
            "thm3half", "rmk_i", "rmk_ii", "rmk_iii", "rmk_iv", "lem1", "lem2",
            "lem3",
        }
        assert set(CATALOG_ORDER) == want
        assert len(CATALOG_ORDER) == 32

    def test_order_is_table_order(self):
        # campaign CSVs are written entry-major in this order
        assert CATALOG_ORDER == (
            "thm1", "cor1", "eqn1", "eqn2cmp", "eq1", "ceb", "cor4", "prop1",
            "cor5", "eqn21", "reim", "cor6", "eqn3", "eqn4", "eqn5", "abprod",
            "cor8", "eqn6", "eql1", "thm2", "eqn11", "eqn12", "eqn13", "thm3",
            "thm3half", "rmk_i", "rmk_ii", "rmk_iii", "rmk_iv", "lem1", "lem2",
            "lem3",
        )

    def test_entries_have_descriptions(self):
        for entry in CATALOG.values():
            assert entry.description and entry.ineq_id not in entry.description


class TestIdentityOperands:
    """All-identity operands: every sweep point satisfied; every entry except
    the commutator bound attains equality somewhere in the sweep."""

    @pytest.mark.parametrize("ineq_id", CATALOG_ORDER)
    def test_satisfied_everywhere(self, ineq_id):
        entry = CATALOG[ineq_id]
        ops = _identity_ops(entry, 3)
        gaps = []
        for params in param_grid(entry, None):
            res = _run(ineq_id, ops, params, n=3)
            assert res.satisfied, (params, res.lhs, res.rhs)
            assert res.gap >= -1e-9 * max(1.0, res.rhs)
            gaps.append(res.gap)
        if ineq_id == "eql1":
            # commutator vanishes at the identity: lhs 0 < rhs 2, never tight
            assert min(gaps) > 1.0
        else:
            assert min(gaps) <= 1e-12

    def test_thm1_unit_values(self):
        res = _run("thm1", _identity_ops(CATALOG["thm1"], 2), {"alpha": 0.3, "r": 1, "s": 1})
        assert res.lhs == pytest.approx(1.0, abs=1e-12)
        assert res.rhs == pytest.approx(1.0, abs=1e-12)

    def test_thm3_halves_sum_to_one(self):
        res = _run("thm3", {"A": I2, "B": I2}, {"alpha": 0.5})
        assert res.lhs == pytest.approx(1.0, abs=1e-12)
        assert res.rhs == pytest.approx(1.0, abs=1e-12)


class TestZeroOperands:
    @pytest.mark.parametrize("ineq_id", CATALOG_ORDER)
    def test_zeros_satisfied(self, ineq_id):
        entry = CATALOG[ineq_id]
        ops = _zero_ops(entry, 2)
        res = _run(ineq_id, ops, _first_params(ineq_id))
        assert res.satisfied
        assert res.lhs == pytest.approx(0.0, abs=1e-12)

    def test_eqn4_zero_rhs_value(self):
        # A = 0: both factors are ber(I/2)^(1/t), so rhs = 2^(-1/r-1/s)
        res = _run("eqn4", {"A": np.zeros((2, 2), dtype=complex)}, {"r": 2, "s": 3})
        assert res.lhs == 0.0
        assert res.rhs == pytest.approx(2.0 ** (-1.0 / 2 - 1.0 / 3), rel=1e-12)


class TestHandOracles:
    def test_eql1_shift_is_tight(self):
        # [A*, A] for the shift is diag(-1, 1); both sides equal 1
        res = _run("eql1", {"A": SHIFT}, {})
        assert res.lhs == pytest.approx(1.0, abs=1e-12)
        assert res.rhs == pytest.approx(1.0, abs=1e-12)
        assert res.satisfied

    def test_eql1_normal_operator_lhs_zero(self):
        res = _run("eql1", {"A": np.diag([1.0, 1j])}, {})
        assert res.lhs == pytest.approx(0.0, abs=1e-12)

    def test_eqn13_diagonal_pair(self):
        # sqrt(AB) = diag(3, 2): lhs 3; rhs sqrt(4 * 9) = 6
        a = np.diag([1.0, 4.0]).astype(complex)
        b = np.diag([9.0, 1.0]).astype(complex)
        res = _run("eqn13", {"A": a, "B": b}, {})
        assert res.lhs == pytest.approx(3.0, abs=1e-12)
        assert res.rhs == pytest.approx(6.0, abs=1e-12)

    def test_lem3_hand_case(self):
        res = _run("lem3", {"a": 1.0, "b": 4.0}, {"alpha": 0.5, "r": 0, "s": 1})
        assert res.lhs == pytest.approx(2.0, abs=1e-14)
        assert res.rhs == pytest.approx(2.5, abs=1e-14)

    def test_reim_hermitian_im_part_trivial(self):
        h = np.array([[2, 1], [1, 2]], dtype=complex)
        res = _run("reim", {"A": h}, {"r": 1})
        im_parts = [p for p in res.witness["parts"] if p["part"] == "im"]
        assert im_parts and im_parts[0]["lhs"] == pytest.approx(0.0, abs=1e-12)

    def test_trailing_positive_equality(self, rng):
        # |A|^2 + |B|^2 is positive, so its Berezin norm equals its number
        a, b = orc.rand_complex(rng, 3), orc.rand_complex(rng, 3)
        m = a.conj().T @ a + b.conj().T @ b
        res = verify_positive_equality(finite(3), m, tol=1e-8)
        assert res.satisfied


def _hp(h, p):
    return orc.herm_power(h, p)


def _gram_pow(x, p):
    # |x|^(2p) computed through the test-side eigensolver path
    return orc.herm_power(x.conj().T @ x, p)


class TestDualComputation:
    """Recompute both sides with the test-side primitives (explicit loops,
    fresh eigh calls) and require agreement with the catalog evaluators."""

    def test_thm1(self, rng):
        n = 4
        a, b, c, d, x, y = (orc.rand_complex(rng, n) for _ in range(6))
        al, r, s = 0.5, 2.0, 3.0
        ops = {"A": a, "B": b, "C": c, "D": d, "X": x, "Y": y}
        res = _run("thm1", ops, {"alpha": al, "r": r, "s": s}, n=n)

        lhs = orc.finite_norm((a.conj().T @ x @ b + c.conj().T @ y @ d) / 2) ** 2
        t1 = (_hp(b.conj().T @ _gram_pow(x, al) @ b, r) + _hp(d.conj().T @ _gram_pow(y, al) @ d, r)) / 2
        t2 = (_hp(a.conj().T @ _gram_pow(x.conj().T, 1 - al) @ a, s) + _hp(c.conj().T @ _gram_pow(y.conj().T, 1 - al) @ c, s)) / 2
        rhs = orc.finite_ber(t1) ** (1 / r) * orc.finite_ber(t2) ** (1 / s)

        assert res.lhs == pytest.approx(lhs, rel=1e-8)
        assert res.rhs == pytest.approx(rhs, rel=1e-8)
        assert res.satisfied

    def test_cor1(self, rng):
        n = 3
        g1, g2 = orc.rand_complex(rng, n), orc.rand_complex(rng, n)
        a, b = (g1 + g1.conj().T) / 2, (g2 + g2.conj().T) / 2
        al, r, s = 0.25, 2.0, 1.0
        res = _run("cor1", {"A": a, "B": b}, {"alpha": al, "r": r, "s": s}, n=n)

        lhs = orc.finite_norm((a + b) / 2) ** 2
        f1 = orc.finite_ber((_gram_pow(a, al * r) + _gram_pow(b, al * r)) / 2)
        f2 = orc.finite_ber(
            (_gram_pow(a.conj().T, (1 - al) * s) + _gram_pow(b.conj().T, (1 - al) * s)) / 2
        )
        assert res.lhs == pytest.approx(lhs, rel=1e-8)
        assert res.rhs == pytest.approx(f1 ** (1 / r) * f2 ** (1 / s), rel=1e-8)
        assert res.satisfied

    def test_eqn2cmp_scalar_algebra(self, rng):
        n = 3
        a, b = orc.rand_complex(rng, n), orc.rand_complex(rng, n)
        al, r = 0.5, 2.0
        res = _run("eqn2cmp", {"A": a, "B": b}, {"alpha": al, "r": r}, n=n)

        x = orc.finite_ber(_gram_pow(a, al * r) + _gram_pow(b, al * r))
        y = orc.finite_ber(_gram_pow(a.conj().T, (1 - al) * r) + _gram_pow(b.conj().T, (1 - al) * r))
        assert res.lhs == pytest.approx(2.0 ** (r - 1) * math.sqrt(x * y), rel=1e-8)
        assert res.rhs == pytest.approx(2.0 ** (r - 2) * (x + y), rel=1e-8)

    def test_eqn6(self, rng):
        n = 3
        a = orc.rand_complex(rng, n)
        r = 2.0
        res = _run("eqn6", {"A": a}, {"r": r}, n=n)
        gram, cogram = a.conj().T @ a, a @ a.conj().T
        rhs = 2.0 ** (r - 1) * orc.finite_ber(_hp(gram, r) + _hp(cogram, r))
        plus = orc.finite_norm(cogram + gram) ** r
        minus = orc.finite_norm(cogram - gram) ** r
        worst = min(rhs - plus, rhs - minus)
        assert res.rhs == pytest.approx(rhs, rel=1e-8)
        assert res.gap == pytest.approx(worst, rel=1e-6, abs=1e-9)
        assert res.satisfied

    def test_eqn13(self, rng):
        n = 3
        g = orc.rand_complex(rng, n)
        u = np.linalg.qr(g)[0]
        p = (u * rng.uniform(0.5, 2.0, n)) @ u.conj().T
        q = (u * rng.uniform(0.5, 2.0, n)) @ u.conj().T
        p, q = (p + p.conj().T) / 2, (q + q.conj().T) / 2
        res = _run("eqn13", {"A": p, "B": q}, {}, n=n)
        lhs = orc.finite_norm(orc.herm_power((p @ q + (p @ q).conj().T) / 2, 0.5))
        rhs = math.sqrt(orc.finite_ber(p)) * math.sqrt(orc.finite_ber(q))
        assert res.lhs == pytest.approx(lhs, rel=1e-8)
        assert res.rhs == pytest.approx(rhs, rel=1e-8)
        assert res.satisfied

    def test_thm3(self, rng):
        n = 4
        a, b = orc.rand_complex(rng, n), orc.rand_complex(rng, n)
        al = 0.7
        res = _run("thm3", {"A": a, "B": b}, {"alpha": al}, n=n)
        lhs = orc.finite_norm(al * a + (1 - al) * b) ** 2
        rhs = orc.finite_ber(al ** 2 * a.conj().T @ a + (1 - al) ** 2 * b.conj().T @ b)
        rhs += 2 * al * (1 - al) * orc.finite_ber(b.conj().T @ a)
        assert res.lhs == pytest.approx(lhs, rel=1e-8)
        assert res.rhs == pytest.approx(rhs, rel=1e-8)
        assert res.satisfied

    def test_thm3_alpha_zero_reduces(self, rng):
        # alpha = 0 collapses to the norm-vs-gram bound for B alone
        b = orc.rand_complex(rng, 3)
        res = _run("thm3", {"A": orc.rand_complex(rng, 3), "B": b}, {"alpha": 0.0}, n=3)
        assert res.lhs == pytest.approx(orc.finite_norm(b) ** 2, rel=1e-10)
        assert res.rhs == pytest.approx(orc.finite_ber(b.conj().T @ b), rel=1e-10)

    def test_rmk_i(self, rng):
        n = 4
        a, b, c, d, x, y = (orc.rand_complex(rng, n) for _ in range(6))
        al, r, s = 0.25, 1.5, 2.0
        ops = {"A": a, "B": b, "C": c, "D": d, "X": x, "Y": y}
        res = _run("rmk_i", ops, {"alpha": al, "r": r, "s": s}, n=n)

        lhs = orc.op_norm((a.conj().T @ x @ b + c.conj().T @ y @ d) / 2) ** 2
        t1 = (_hp(b.conj().T @ _gram_pow(x, al) @ b, r) + _hp(d.conj().T @ _gram_pow(y, al) @ d, r)) / 2
        t2 = (_hp(a.conj().T @ _gram_pow(x.conj().T, 1 - al) @ a, s) + _hp(c.conj().T @ _gram_pow(y.conj().T, 1 - al) @ c, s)) / 2
        rhs = orc.op_norm(t1) ** (1 / r) * orc.op_norm(t2) ** (1 / s)

        assert res.lhs == pytest.approx(lhs, rel=1e-8)
        assert res.rhs == pytest.approx(rhs, rel=1e-8)
        assert res.satisfied

    def test_rmk_ii(self, rng):
        n = 3
        a, b, c, d = (orc.rand_complex(rng, n) for _ in range(4))
        r, s = 2.0, 1.5
        res = _run("rmk_ii", {"A": a, "B": b, "C": c, "D": d}, {"r": r, "s": s}, n=n)

        lhs = orc.op_norm((a.conj().T @ b + c.conj().T @ d) / 2) ** 2
        t1 = (_hp(b.conj().T @ b, r) + _hp(d.conj().T @ d, r)) / 2
        t2 = (_hp(a.conj().T @ a, s) + _hp(c.conj().T @ c, s)) / 2
        rhs = orc.op_norm(t1) ** (1 / r) * orc.op_norm(t2) ** (1 / s)

        assert res.lhs == pytest.approx(lhs, rel=1e-8)
        assert res.rhs == pytest.approx(rhs, rel=1e-8)
        assert res.satisfied

    def test_rmk_iii(self, rng):
        n = 3
        g1, g2 = orc.rand_complex(rng, n), orc.rand_complex(rng, n)
        a, b = g1.conj().T @ g1 / n, g2.conj().T @ g2 / n
        al, r, s = 0.75, 2.0, 3.0
        res = _run("rmk_iii", {"A": a, "B": b}, {"alpha": al, "r": r, "s": s}, n=n)

        m = (_hp(a, al) @ _hp(b, 1 - al) + _hp(a, 1 - al) @ _hp(b, al)) / 2
        f_a = orc.op_norm((_hp(a, 2 * al * r) + _hp(a, 2 * (1 - al) * r)) / 2)
        f_b = orc.op_norm((_hp(b, 2 * al * s) + _hp(b, 2 * (1 - al) * s)) / 2)
        assert res.lhs == pytest.approx(orc.op_norm(m) ** 2, rel=1e-8)
        assert res.rhs == pytest.approx(f_a ** (1 / r) * f_b ** (1 / s), rel=1e-8)
        assert res.satisfied

    def test_rmk_iv(self, rng):
        n = 3
        a, b = orc.rand_complex(rng, n), orc.rand_complex(rng, n)
        al = 0.25
        res = _run("rmk_iv", {"A": a, "B": b}, {"alpha": al}, n=n)
        lhs = orc.op_norm(al * a + (1 - al) * b) ** 2
        rhs = orc.op_norm(al ** 2 * a.conj().T @ a + (1 - al) ** 2 * b.conj().T @ b)
        rhs += 2 * al * (1 - al) * orc.radius_sweep(b.conj().T @ a, steps=3000)
        assert res.lhs == pytest.approx(lhs, rel=1e-8)
        assert res.rhs == pytest.approx(rhs, rel=1e-4)
        assert res.satisfied

    def test_lem1(self, rng):
        n = 5
        g = orc.rand_complex(rng, n)
        p = g.conj().T @ g / n
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= np.linalg.norm(x)
        r = 2.5
        res = _run("lem1", {"P": p, "x": x}, {"r": r})
        lhs = np.real(x.conj() @ (p @ x)) ** r
        rhs = np.real(x.conj() @ (orc.herm_power(p, r) @ x))
        assert res.lhs == pytest.approx(lhs, rel=1e-9)
        assert res.rhs == pytest.approx(rhs, rel=1e-9)
        assert res.satisfied

    def test_lem1_r_one_is_equality(self, rng):
        g = orc.rand_complex(rng, 4)
        p = g.conj().T @ g
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x /= np.linalg.norm(x)
        res = _run("lem1", {"P": p, "x": x}, {"r": 1})
        assert res.gap <= 1e-10 * max(1.0, res.rhs)

    def test_lem2(self, rng):
        n = 4
        a = orc.rand_complex(rng, n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        res = _run("lem2", {"A": a, "x": x, "y": y}, {"alpha": 0.5})
        lhs = abs(y.conj() @ (a @ x)) ** 2
        rhs = np.real(x.conj() @ (_gram_pow(a, 0.5) @ x)) * np.real(
            y.conj() @ (_gram_pow(a.conj().T, 0.5) @ y)
        )
        assert res.lhs == pytest.approx(lhs, rel=1e-9)
        assert res.rhs == pytest.approx(rhs, rel=1e-9)
        assert res.satisfied

    def test_lem3_matches_scalar_oracle(self, rng):
        for _ in range(50):
            a, b = rng.uniform(0, 3), rng.uniform(0, 3)
            al = rng.uniform(0, 1)
            r, s = sorted(rng.uniform(-2, 4, size=2))
            res = _run("lem3", {"a": a, "b": b}, {"alpha": al, "r": r, "s": s})
            assert res.lhs == pytest.approx(orc.power_mean(a, b, al, r), rel=1e-10, abs=1e-12)
            assert res.rhs == pytest.approx(orc.power_mean(a, b, al, s), rel=1e-10, abs=1e-12)
            assert res.satisfied


class TestRandomSatisfaction:
    """A slim randomized pass: the acceptance suite runs the heavy campaign."""

    @pytest.mark.parametrize("ineq_id", CATALOG_ORDER)
    def test_ten_seeds(self, ineq_id):
        entry = CATALOG[ineq_id]
        combos = param_grid(entry, None)
        for seed in range(10):
            ops = sample_operands(entry, 3, 1.0, seed * 7919 + 11)
            res = _run(ineq_id, ops, combos[seed % len(combos)], n=3)
            assert res.satisfied, (ineq_id, seed, res.lhs, res.rhs)


class TestGridEvaluation:
    """One evaluator call over the whole grid equals one `check` per
    combination, bit for bit: the oracle for the grid evaluators."""

    @staticmethod
    def _assert_grid_matches_checks(entry, ops, model, level=1):
        case = InequalityCase(entry.ineq_id, ops, model=model, level=level)
        combos = param_grid(entry, None)
        with computation_scope():
            valid, n = _validated_operands(entry, case)
            grid = [_result(entry.ineq_id, parts, combo, n, case.tolerance)
                    for combo, parts in zip(combos, _evaluate_grid(entry, case, valid, combos))]
        with computation_scope():
            single = [check(replace(case, params=combo)) for combo in combos]
        assert len(grid) == len(single) == len(combos)
        for combo, got, want in zip(combos, grid, single):
            assert (got.lhs.hex(), got.rhs.hex(), got.witness["part"]) == (
                want.lhs.hex(), want.rhs.hex(), want.witness["part"]
            ), (entry.ineq_id, combo)
            assert got.satisfied == want.satisfied and got.witness == want.witness

    @pytest.mark.parametrize("ineq_id", CATALOG_ORDER)
    def test_finite_models(self, ineq_id):
        entry = CATALOG[ineq_id]
        for n in (2, 3, 4, 6):
            for seed in (5, 0x5EED):
                ops = sample_operands(entry, n, 1.0, seed)
                model = finite(n) if entry.needs_model else None
                self._assert_grid_matches_checks(entry, ops, model)

    @pytest.mark.parametrize("ineq_id", CATALOG_ORDER)
    def test_disk_model(self, ineq_id):
        entry = CATALOG[ineq_id]
        model = hardy(3, 0.9)
        ops = sample_operands(entry, model.dimension, 1.0, 0xD15C)
        self._assert_grid_matches_checks(entry, ops, model if entry.needs_model else None, level=0)


def _raised(evaluate, name, o, env):
    """`evaluate` run with env's callable `name` raised by a factor 1 + 1e-6."""
    f = getattr(env, name)
    return evaluate(o, env._replace(**{name: lambda m: f(m) * (1.0 + 1e-6)}))


class TestEnvironmentMonotone:
    """No part side falls when one of ber, nber, cross rises.  So a run on
    lower bounds of the three quantities gives a lower bound of every rhs,
    and a run on upper bounds an upper bound of every lhs."""

    @pytest.mark.parametrize("ineq_id", CATALOG_ORDER)
    def test_no_side_falls(self, ineq_id):
        entry = CATALOG[ineq_id]
        combos = param_grid(entry, None)
        for model in (finite(3), hardy(3, 0.9)):
            for seed in (7, 0xB0B):
                ops = sample_operands(entry, model.dimension, 1.0, seed)
                case = InequalityCase(ineq_id, ops, model=model if entry.needs_model else None,
                                      level=0)
                with computation_scope():
                    valid, _ = _validated_operands(entry, case)
                    base = _evaluate_grid(entry, case, valid, combos)
                    for name in ("ber", "nber", "cross"):
                        up = replace(entry, evaluate=partial(_raised, entry.evaluate, name))
                        for combo, want, got in zip(combos, base,
                                                    _evaluate_grid(up, case, valid, combos)):
                            assert [pt.label for pt in got] == [pt.label for pt in want]
                            for g, w in zip(got, want):
                                assert g.lhs >= w.lhs and g.rhs >= w.rhs, (
                                    model, seed, name, combo, g, w
                                )


class TestValidation:
    def test_unknown_id(self):
        with pytest.raises(UnknownIneqId):
            check(InequalityCase(ineq_id="nope", operands={}, params={}))

    def test_missing_param(self):
        with pytest.raises(ParamOutOfRange):
            _run("cor1", {"A": I2, "B": I2}, {"alpha": 0.5})

    def test_alpha_range(self):
        with pytest.raises(ParamOutOfRange):
            _run("cor1", {"A": I2, "B": I2}, {"alpha": 1.5, "r": 1, "s": 1})

    def test_interior_alpha_enforced(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ParamOutOfRange):
                _run("eqn2cmp", {"A": I2, "B": I2}, {"alpha": bad, "r": 1})

    def test_power_lower_bound(self):
        with pytest.raises(ParamOutOfRange):
            _run("cor1", {"A": I2, "B": I2}, {"alpha": 0.5, "r": 0.5, "s": 1})

    def test_lem3_allows_small_orders(self):
        res = _run("lem3", {"a": 1.0, "b": 2.0}, {"alpha": 0.5, "r": -1, "s": 0.5})
        assert res.satisfied

    def test_lem3_rejects_disordered(self):
        with pytest.raises(ParamOutOfRange):
            _run("lem3", {"a": 1.0, "b": 2.0}, {"alpha": 0.5, "r": 2, "s": 1})

    def test_positivity_required(self):
        with pytest.raises(NotPositive):
            _run("eqn11", {"A": SHIFT, "B": I2}, {"alpha": 0.5, "r": 1})

    def test_commutation_required(self):
        a = np.array([[1, 1], [1, 2]], dtype=complex)
        b = np.diag([1.0, 3.0]).astype(complex)
        with pytest.raises(NotCommuting):
            _run("eqn13", {"A": a, "B": b}, {})

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check(
                InequalityCase(
                    ineq_id="prop1", operands={"A": np.eye(3, dtype=complex)},
                    params={}, model=finite(2),
                )
            )

    def test_model_required(self):
        with pytest.raises(ValueError):
            check(InequalityCase(ineq_id="prop1", operands={"A": I2}, params={}))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            _run("lem1", {"P": I2, "x": np.zeros(2, dtype=complex)}, {"r": 2})

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_bad_tolerance_rejected(self, tol):
        case = InequalityCase("prop1", {"A": I2}, model=finite(2), tolerance=tol)
        with pytest.raises(ParamOutOfRange, match="tolerance must be finite and >= 0"):
            check(case)

    def test_zero_tolerance_allowed(self):
        res = check(InequalityCase("prop1", {"A": I2}, model=finite(2), tolerance=0.0))
        assert res.satisfied and res.lhs == res.rhs == 1.0


class TestResultContract:
    def test_witness_structure(self, rng):
        a = orc.rand_complex(rng, 3)
        res = _run("reim", {"A": a}, {"r": 2}, n=3)
        assert res.ineq_id == "reim"
        assert set(res.witness) >= {"part", "parts", "params", "n"}
        assert res.witness["n"] == 3
        assert {p["part"] for p in res.witness["parts"]} == {"full", "re", "im"}
        worst = min(
            res.witness["parts"], key=lambda p: (p["rhs"] - p["lhs"]) / max(1.0, p["rhs"])
        )
        assert res.lhs == worst["lhs"] and res.rhs == worst["rhs"]

    def test_gap_is_rhs_minus_lhs(self, rng):
        g = orc.rand_complex(rng, 2)
        res = _run("prop1", {"A": g.conj().T @ g}, {})
        assert res.gap == pytest.approx(res.rhs - res.lhs, abs=1e-15)

    def test_tolerance_loosens_verdict(self):
        # lem3 with reversed "almost equal" inputs only passes with slack
        res_tight = _run("lem3", {"a": 2.0, "b": 2.0 + 1e-7}, {"alpha": 0.5, "r": 1, "s": 1}, tol=1e-12)
        assert res_tight.satisfied  # r == s, genuine equality
        assert res_tight.gap == pytest.approx(0.0, abs=1e-15)


class TestPowerMean:
    def test_geometric_at_zero(self):
        assert power_mean(4.0, 9.0, 0.5, 0.0) == pytest.approx(6.0, rel=1e-12)

    def test_fixed_point(self):
        assert power_mean(3.0, 3.0, 0.7, 2.5) == 3.0

    def test_negative_order_with_zero(self):
        assert power_mean(0.0, 5.0, 0.5, -1.0) == 0.0

    def test_weights(self):
        assert power_mean(2.0, 10.0, 1.0, 1.0) == pytest.approx(2.0)
        assert power_mean(2.0, 10.0, 0.0, 1.0) == pytest.approx(10.0)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ParamOutOfRange):
            power_mean(-1.0, 1.0, 0.5, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.01, 100), st.floats(0.01, 100),
        st.floats(0, 1), st.floats(-4, 4), st.floats(-4, 4),
    )
    def test_monotone_in_order(self, a, b, alpha, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        m_lo = power_mean(a, b, alpha, lo)
        m_hi = power_mean(a, b, alpha, hi)
        assert m_lo <= m_hi * (1 + 1e-10) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        # domain restricted to where the naive oracle neither overflows nor
        # loses the tiny-|t| limit; the package handles the full range
        st.floats(1e-3, 50), st.floats(1e-3, 50), st.floats(0, 1),
        st.one_of(st.just(0.0), st.floats(1e-3, 3), st.floats(-3, -1e-3)),
    )
    def test_matches_oracle(self, a, b, alpha, t):
        got = power_mean(a, b, alpha, t)
        want = orc.power_mean(a, b, alpha, t)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-12)

    def test_zero_input_matches_oracle(self):
        for t in (-2.0, -0.5, 0.0, 0.5, 2.0):
            for alpha in (0.0, 0.3, 1.0):
                got = power_mean(0.0, 7.0, alpha, t)
                assert got == pytest.approx(orc.power_mean(0.0, 7.0, alpha, t), rel=1e-12)

    def test_tiny_order_approaches_geometric(self):
        # the regime where the naive formula collapses to 1.0
        for t in (1e-36, -1e-36, 1e-300, 5e-324):
            got = power_mean(1.0, 2.0, 0.5, t)
            assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_extreme_scale_no_overflow(self):
        # the naive formula overflows on b^t here; the stable path must not
        b = 2.2148349036536806e-204
        got = power_mean(1.0, b, 0.5, -2.0)
        assert got == pytest.approx(math.sqrt(2.0) * b, rel=1e-12)
