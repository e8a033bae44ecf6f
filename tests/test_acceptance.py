"""End-to-end acceptance gates.

Each test prints one ACCEPTANCE line (directly to the terminal, bypassing
capture) so a full run leaves an at-a-glance verdict per gate.  The heavy
randomized campaign runs once in a module fixture.
"""

import time

import numpy as np
import pytest

from berezin import (
    GeneratorSpec,
    berezin_norm,
    berezin_number,
    counterexample_check,
    gen_matrix,
    numerical_radius,
    operator_norm,
    run_suite,
)
from berezin.fuzz import ValueStream, sample_operands
from berezin.inequalities import CATALOG, InequalityCase, check
from berezin.models import finite, hardy

TRIALS = 1000
DIMS = (2, 3, 4, 6)
TOL = 1e-9


def verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance gate {num} failed: {detail}"


@pytest.fixture(scope="module")
def full_campaign(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "campaign.csv"
    report = run_suite(
        trials=TRIALS, dims=DIMS, tolerance=TOL, csv_path=str(path),
    )
    return report, path


def test_criterion_1_antidiagonal_witness(capsys):
    t0 = time.monotonic()
    checks = []
    for n in (1, 2, 3, 5):
        res = counterexample_check(n)
        w = res.witness
        checks.append(
            res.lhs == 0.0
            and abs(res.rhs - 1.0) <= 1e-12
            and w["hermitian"] is True
            and abs(w["numerical_radius"] - 1.0) <= 1e-9
            and abs(w["operator_norm"] - 1.0) <= 1e-9
        )
    elapsed = time.monotonic() - t0
    ok = all(checks) and elapsed < 1.0
    verdict(capsys, 1, ok,
            f"antidiagonal witness at dims 2,4,6,10: number 0, norm 1, "
            f"radius 1 in {elapsed:.3f}s")


def test_criterion_2_positive_norm_equals_number(capsys):
    t0 = time.monotonic()
    worst = 0.0
    count = 0
    for n in (2, 4, 6, 8):
        model = finite(n)
        for trial in range(1000):
            a = gen_matrix(GeneratorSpec("positive", n, 1.0, seed=(n << 20) ^ trial))
            nb = berezin_norm(model, a).value
            bn = berezin_number(model, a).value
            worst = max(worst, abs(nb - bn) / max(1.0, bn))
            count += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 30.0 and count == 4000
    verdict(capsys, 2, ok,
            f"{count} random positives, norm == number to {worst:.2e} "
            f"(cap 1e-09) in {elapsed:.1f}s")


def test_criterion_3_full_campaign_clean(capsys, full_campaign):
    report, _ = full_campaign
    ok = (
        report.violations == []
        and report.rows_evaluated == 703 * TRIALS
        and set(report.suite) == set(CATALOG)
        and report.runtime_seconds < 600.0
    )
    verdict(capsys, 3, ok,
            f"{report.rows_evaluated} cases across {len(report.suite)} entries, "
            f"{len(report.violations)} violations "
            f"in {report.runtime_seconds:.1f}s")


def test_criterion_4_mean_comparison_strict(capsys):
    t0 = time.monotonic()
    entry_id = "eqn2cmp"
    vs = ValueStream(0x4AC)
    satisfied = 0
    strict = 0
    total = 1000
    for trial in range(total):
        n = DIMS[trial % len(DIMS)]
        ops = sample_operands(CATALOG[entry_id], n, 1.0, seed=trial)
        alpha = min(max(float(vs.uniforms(1)[0]), 1e-9), 1.0 - 1e-9)
        r = (1.0, 1.5, 2.0, 3.0)[trial % 4]
        res = check(InequalityCase(
            ineq_id=entry_id, operands=ops, params={"alpha": alpha, "r": r},
            model=finite(n), tolerance=1e-10,
        ))
        satisfied += bool(res.satisfied)
        strict += res.gap > 0.0
    elapsed = time.monotonic() - t0
    ok = satisfied == total and strict >= 0.99 * total
    verdict(capsys, 4, ok,
            f"geometric-vs-arithmetic bound held {satisfied}/{total}, "
            f"strict in {strict} in {elapsed:.1f}s")


def test_criterion_5_scalar_and_vector_lemmas(capsys):
    t0 = time.monotonic()
    bad = 0
    vs = ValueStream(0x5CA1A5)
    for trial in range(10000):
        n = DIMS[trial % len(DIMS)]
        ops = sample_operands(CATALOG["lem1"], n, 1.0, seed=trial)
        r = 1.0 + 3.0 * float(vs.uniforms(1)[0])
        res = check(InequalityCase(ineq_id="lem1", operands=ops,
                                   params={"r": r}, model=None))
        bad += not res.satisfied
    for trial in range(10000):
        n = DIMS[trial % len(DIMS)]
        ops = sample_operands(CATALOG["lem2"], n, 1.0, seed=trial)
        alpha = float(vs.uniforms(1)[0])
        res = check(InequalityCase(ineq_id="lem2", operands=ops,
                                   params={"alpha": alpha}, model=None))
        bad += not res.satisfied
    for trial in range(10000):
        ops = sample_operands(CATALOG["lem3"], 2, 1.0, seed=trial)
        u = vs.uniforms(3)
        r, s = sorted((-2.0 + 6.0 * float(u[0]), -2.0 + 6.0 * float(u[1])))
        res = check(InequalityCase(ineq_id="lem3", operands=ops,
                                   params={"alpha": float(u[2]), "r": r, "s": s},
                                   model=None))
        bad += not res.satisfied
    # dense order grid, r <= s, r = 0 included
    orders = np.linspace(0.0, 4.0, 17)
    grid_cases = 0
    for k in range(30):
        ops = sample_operands(CATALOG["lem3"], 2, 1.0, seed=10_000 + k)
        alpha = float(ValueStream(900 + k).uniforms(1)[0])
        for i, r in enumerate(orders):
            for s in orders[i:]:
                res = check(InequalityCase(
                    ineq_id="lem3", operands=ops,
                    params={"alpha": alpha, "r": float(r), "s": float(s)},
                    model=None))
                grid_cases += 1
                bad += not res.satisfied
    elapsed = time.monotonic() - t0
    ok = bad == 0 and grid_cases == 30 * (17 * 18 // 2)
    verdict(capsys, 5, ok,
            f"30000 randomized lemma trials + {grid_cases} dense order-grid "
            f"cases, {bad} failures in {elapsed:.1f}s")


def test_criterion_6_radius_oracles(capsys):
    t0 = time.monotonic()
    worst_normal = 0.0
    for trial in range(500):
        n = DIMS[trial % len(DIMS)]
        vs = ValueStream(7_000 + trial)
        u = gen_matrix(GeneratorSpec("unitary", n, 1.0, seed=3_000 + trial))
        z = vs.complex_gaussians(n)
        a = (u * z) @ u.conj().T
        rho = float(np.abs(z).max())
        worst_normal = max(worst_normal, abs(numerical_radius(a) - rho))
    sandwich_ok = True
    for trial in range(500):
        n = DIMS[trial % len(DIMS)]
        a = gen_matrix(GeneratorSpec("general", n, 1.0, seed=5_000 + trial))
        w = numerical_radius(a)
        opn = operator_norm(a)
        if not (0.5 * opn - 1e-8 <= w <= opn + 1e-8):
            sandwich_ok = False
    shift = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    shift_err = abs(numerical_radius(shift) - 0.5)
    elapsed = time.monotonic() - t0
    ok = worst_normal <= 1e-8 and sandwich_ok and shift_err <= 1e-10
    verdict(capsys, 6, ok,
            f"500 normals match spectral radius to {worst_normal:.2e}, "
            f"500 generals inside the half-norm sandwich, "
            f"nilpotent shift off by {shift_err:.1e} in {elapsed:.1f}s")


def test_criterion_7_refinement_monotone(capsys):
    t0 = time.monotonic()
    model = hardy(15, 0.95)
    ok = True
    for trial in range(50):
        a = gen_matrix(GeneratorSpec("general", 16, 1.0, seed=11_000 + trial))
        v0 = berezin_number(model, a, level=0).value
        v1 = berezin_number(model, a, level=1).value
        v2 = berezin_number(model, a, level=2).value
        if not (v0 <= v1 <= v2 <= operator_norm(a) + 1e-9):
            ok = False
    elapsed = time.monotonic() - t0
    verdict(capsys, 7, ok,
            f"50 operators on the truncated disk model: lower bounds "
            f"non-decreasing through levels 0,1,2 and capped by the "
            f"operator norm in {elapsed:.1f}s")
