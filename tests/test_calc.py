import math
import tracemalloc

import numpy as np
import pytest

import _oracles as orc
from berezin import (
    DimensionMismatch,
    GeneratorSpec,
    NotPositive,
    PointOutOfDomain,
    bergman,
    berezin_number,
    berezin_norm,
    berezin_pair,
    berezin_symbol,
    default_grid,
    finite,
    fock,
    gen_matrix,
    hardy,
    kernel_matrix,
    normalized_kernel,
    numerical_radius,
    operator_norm,
    verify_positive_equality,
)
from berezin import calc, cli, models
from berezin._cache import computation_scope
from berezin.fuzz import MATRIX_KINDS
from berezin.io import save_matrix
from berezin.linalg import _pow2_exponent, as_complex_matrix, im_part, re_part

A22 = np.array([[1, 2], [3, 4]], dtype=complex)
SHIFT = np.array([[0, 1], [0, 0]], dtype=complex)


def _shift_matrix(dim):
    s = np.zeros((dim, dim), dtype=complex)
    for j in range(dim - 1):
        s[j + 1, j] = 1.0
    return s


class TestSymbol:
    def test_finite_diagonal_entry(self):
        assert berezin_symbol(finite(2), A22, 1) == pytest.approx(1.0, abs=0)
        assert berezin_symbol(finite(2), A22, 2) == pytest.approx(4.0, abs=0)

    def test_identity_everywhere(self):
        assert berezin_symbol(finite(3), np.eye(3, dtype=complex), 2) == pytest.approx(1.0)
        assert berezin_symbol(hardy(), np.eye(16, dtype=complex), 0.3 + 0.2j) == pytest.approx(1.0)

    def test_matches_loop_oracle(self, rng):
        m = hardy(5, 0.9)
        a = orc.rand_complex(rng, 6)
        for lam in (0.0, 0.4, -0.3 + 0.5j):
            assert berezin_symbol(m, a, lam) == pytest.approx(orc.symbol(m, a, lam), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            berezin_symbol(finite(2), np.eye(3, dtype=complex), 1)


class TestSetSample:
    """calc.symbol_values: the symbol sampled over a grid, in grid order."""

    def test_finite_diagonal(self):
        m = finite(2)
        vals = calc.symbol_values(m, np.diag([1.0, 1j]), default_grid(m, 0))
        assert vals.tolist() == [pytest.approx(1.0), pytest.approx(1j)]

    def test_zero_operator(self):
        m = finite(4)
        vals = calc.symbol_values(m, np.zeros((4, 4), dtype=complex), default_grid(m, 0))
        assert vals.shape == (4,) and not vals.any()

    def test_hardy_shift_bounded_by_norm(self):
        m = hardy()
        s = _shift_matrix(16)
        vals = calc.symbol_values(m, s, default_grid(m, level=0))
        assert vals.shape == (129,)
        assert np.abs(vals).max() <= operator_norm(s) + 1e-12

    def test_order_follows_grid(self):
        m = hardy(3, 0.9)
        a = gen_matrix(GeneratorSpec("general", 4, 1.0, seed=1))
        g = default_grid(m, level=0)
        vals = calc.symbol_values(m, a, g)
        want = [berezin_symbol(m, a, pt) for pt in g.points]
        assert np.abs(vals - want).max() <= 1e-14

    def test_sample_wraps_symbol_values(self):
        # the vectorised sampler agrees with the pointwise symbol on a
        # refined grid and rejects an operator of the wrong dimension
        m = hardy(3, 0.9)
        a = gen_matrix(GeneratorSpec("general", 4, 1.0, seed=1))
        g = default_grid(m, level=1)
        vals = calc.symbol_values(m, a, g)
        assert vals.dtype == np.complex128 and vals.shape == (len(g.points),)
        for i in (0, 7, len(g.points) - 1):
            assert vals[i] == pytest.approx(berezin_symbol(m, a, g.points[i]), abs=1e-14)
        with pytest.raises(DimensionMismatch):
            calc.symbol_values(m, np.eye(3, dtype=complex), g)


class TestBerezinNumberFinite:
    def test_spec_example(self):
        est = berezin_number(finite(2), A22)
        assert est.value == 4.0 and est.argmax == 2 and est.exact

    def test_identity(self):
        est = berezin_number(finite(3), np.eye(3, dtype=complex))
        assert est.value == 1.0 and est.exact

    def test_tie_prefers_first_index(self):
        est = berezin_number(finite(3), np.diag([2.0, 2.0, 1.0]).astype(complex))
        assert est.argmax == 1

    def test_matches_loop_oracle(self, rng):
        # np.abs and abs(complex) may differ in the last ulp of the hypot
        a = orc.rand_complex(rng, 6)
        assert berezin_number(finite(6), a).value == pytest.approx(orc.finite_ber(a), rel=1e-15)

    def test_complex_diagonal_modulus(self):
        est = berezin_number(finite(2), np.diag([3 + 4j, 1.0]))
        assert est.value == pytest.approx(5.0, abs=1e-15)


class TestBerezinNormFinite:
    def test_spec_example(self):
        est = berezin_norm(finite(2), A22)
        assert est.value == 4.0 and est.argmax == (2, 2) and est.exact

    def test_identity(self):
        est = berezin_norm(finite(4), np.eye(4, dtype=complex))
        assert est.value == 1.0
        assert est.argmax[0] == est.argmax[1]

    def test_off_diagonal_argmax(self):
        est = berezin_norm(finite(2), SHIFT)
        # A e_2 = e_1, so the pair is (lam, mu) = (2, 1)
        assert est.value == 1.0 and est.argmax == (2, 1)

    def test_matches_loop_oracle(self, rng):
        a = orc.rand_complex(rng, 5)
        assert berezin_norm(finite(5), a).value == pytest.approx(orc.finite_norm(a), rel=1e-15)


class TestSandwich:
    def test_chain_on_randoms(self, rng):
        # ber <= w <= opn and ber <= berezin norm <= opn
        for n in (2, 3, 5):
            a = orc.rand_complex(rng, n)
            ber = berezin_number(finite(n), a).value
            nrm = berezin_norm(finite(n), a).value
            w = numerical_radius(a)
            opn = operator_norm(a)
            slack = 1e-9 * max(1.0, opn)
            assert ber <= nrm + slack
            assert ber <= w + slack
            assert w <= opn + slack
            assert nrm <= opn + slack


class TestNumericalRadius:
    def test_shift_half(self):
        # g is flat: Re(e^{i theta} S) has spectrum {1/2, -1/2} at every theta
        assert abs(numerical_radius(SHIFT) - 0.5) <= 1e-14

    def test_hermitian_top_eigenvalue(self):
        h = np.array([[2, 1], [1, 2]], dtype=complex)
        assert numerical_radius(h) == pytest.approx(3.0, abs=1e-10)

    def test_normal_spectral_radius(self):
        # g has kinks where the two eigenvalue curves cross
        assert numerical_radius(np.diag([1.0, 1j])) == pytest.approx(1.0, abs=1e-14)

    def test_pure_imaginary_spectrum(self):
        # the rotation sweep must cover a full half-turn of phases
        assert numerical_radius(np.diag([2j, 0.0])) == pytest.approx(2.0, abs=1e-14)

    def test_against_brute_sweep(self, rng):
        for n in (2, 4):
            a = orc.rand_complex(rng, n)
            want = orc.radius_sweep(a, steps=3000)
            got = numerical_radius(a)
            assert got >= want - 1e-9
            assert got <= want + 1e-5 * max(1.0, want)

    def test_scaling(self, rng):
        a = orc.rand_complex(rng, 3)
        w = numerical_radius(a)
        assert numerical_radius(3.0 * a) == pytest.approx(3.0 * w, rel=1e-9)

    def test_half_norm_lower_bound(self, rng):
        for _ in range(5):
            a = orc.rand_complex(rng, 4)
            assert numerical_radius(a) >= 0.5 * operator_norm(a) - 1e-9

    @staticmethod
    def _grid(a):
        """lambda_max(Re(e^{i theta} A)) on the 256-point theta grid."""
        th = 2.0 * np.pi * np.arange(calc.RADIUS_GRID) / calc.RADIUS_GRID
        rot = np.exp(1j * th)[:, None, None] * a
        return np.linalg.eigvalsh((rot + rot.conj().transpose(0, 2, 1)) / 2.0)[:, -1]

    @staticmethod
    def _slope(a, th):
        """(g, g') at th for g = lambda_max(Re(e^{i theta} A)), from a fresh eigh."""
        re, im = (a + a.conj().T) / 2.0, (a - a.conj().T) / 2j
        w, v = np.linalg.eigh(math.cos(th) * re - math.sin(th) * im)
        x = v[:, -1]
        return w[-1], float((x.conj() @ ((-math.sin(th) * re - math.cos(th) * im) @ x)).real)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 16])
    def test_johnson_enclosure(self, rng, n):
        # every unit x has |<Ax, x>| <= g(theta_k) / cos(pi / 256) at the
        # grid angle nearest -arg <Ax, x> (C. R. Johnson, 1978)
        for _ in range(8):
            a = orc.rand_complex(rng, n)
            top, w = float(self._grid(a).max()), numerical_radius(a)
            assert top * (1.0 - 1e-14) <= w <= top / math.cos(math.pi / calc.RADIUS_GRID) * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 16])
    def test_newton_ascent_ends_stationary(self, rng, n):
        h = 2.0 * np.pi / calc.RADIUS_GRID
        for _ in range(8):
            a = orc.rand_complex(rng, n)
            scale = float(np.linalg.norm(a))
            start = h * int(np.argmax(self._grid(a)))
            best, end = calc._radius_ascent(a, (a + a.conj().T) / 2.0, (a - a.conj().T) / 2j,
                                            start, h, 64.0 * np.finfo(float).eps * scale)
            g, slope = self._slope(a, end)
            # a 1e-10 bracket alone leaves |g'| near 1e-10 ||A||
            assert abs(slope) <= 1e-12 * scale
            assert best >= g - 1e-14 * scale
            assert numerical_radius(a) >= best

    @pytest.mark.parametrize("a, want", [
        (np.array([[3.0 - 4.0j]]), 5.0),
        (np.zeros((3, 3), dtype=complex), 0.0),
        (_shift_matrix(16), math.cos(math.pi / 17)),
        (np.fliplr(np.eye(4)).astype(complex), 1.0),  # the antidiagonal witness
    ])
    def test_special_cases(self, a, want):
        assert numerical_radius(a) == pytest.approx(want, abs=1e-14 * max(1.0, want))

    @staticmethod
    def _full_turn_reference(a):
        """numerical_radius with all 256 Hermitian parts solved for the grid."""
        a = as_complex_matrix(a)
        th = 2.0 * np.pi * np.arange(calc.RADIUS_GRID) / calc.RADIUS_GRID
        stack = np.exp(1j * th)[:, None, None] * a[None, :, :]
        g = np.linalg.eigvalsh((stack + stack.conj().transpose(0, 2, 1)) * 0.5)[:, -1]
        best, h = float(np.max(g)), 2.0 * np.pi / calc.RADIUS_GRID
        gtol = 64.0 * np.finfo(float).eps * float(np.linalg.norm(a))
        for i in np.flatnonzero((g >= np.roll(g, 1)) & (g >= np.roll(g, -1))):
            best = max(best, calc._radius_ascent(a, re_part(a), im_part(a), float(th[i]), h,
                                                 gtol)[0])
        return best

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_half_turn_grid_is_bit_equal_to_full_turn(self, kind, n):
        # g(theta + pi) = -lambda_min(Re(e^{i theta} A)) stands in for the
        # second half-turn's 128 eigensolves
        for seed in range(6):
            a = gen_matrix(GeneratorSpec(kind, n, 1.0, seed=seed))
            assert numerical_radius(a) == self._full_turn_reference(a)

    def test_eigensolve_budget(self, monkeypatch):
        # one batched grid solve, then a few Newton steps (one eigh each) from
        # each start: the grid's discrete local maxima
        a = gen_matrix(GeneratorSpec("general", 16, 1.0, seed=0xB0D6E7))
        g = self._grid(a)
        starts = np.count_nonzero((g >= np.roll(g, 1)) & (g >= np.roll(g, -1)))
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda h, name=name, solve=solve: (
                counts.__setitem__(name, counts[name] + 1) or solve(h)))
        numerical_radius(a)
        assert counts["eigvalsh"] == 1
        assert starts <= counts["eigh"] <= 8 * starts

    @pytest.mark.parametrize("bad, message", [
        (np.zeros((0, 0), dtype=complex), "empty matrix"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "matrix entries must be finite"),
        (np.full((2, 2), np.nan + 0j), "matrix entries must be finite"),
    ])
    def test_bad_input_raises_value_error(self, bad, message):
        with pytest.raises(ValueError, match=message):
            numerical_radius(bad)

    def test_non_square_raises_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            numerical_radius(np.ones((2, 3), dtype=complex))


class TestContinuousEstimates:
    def test_hardy_shift_closed_form(self):
        # |symbol| of the coordinate shift is radial: r (1-q^15)/(1-q^16), q=r^2,
        # increasing in r, so the supremum sits on the boundary r = 0.95
        m = hardy()
        s = _shift_matrix(16)
        q = 0.95 ** 2
        want = 0.95 * (1 - q ** 15) / (1 - q ** 16)
        est = berezin_number(m, s, level=1)
        assert not est.exact
        assert est.value == pytest.approx(want, abs=1e-9)
        assert abs(est.argmax) == pytest.approx(0.95, abs=1e-6)

    def test_hardy_diag_closed_form(self):
        # diagonal operator: symbol = sum (j+1) q^j / sum q^j at q = r^2 <= 0.81
        m = hardy(8, 0.9)
        a = np.diag(np.arange(1.0, 10.0)).astype(complex)
        q = 0.81
        want = sum((j + 1) * q ** j for j in range(9)) / sum(q ** j for j in range(9))
        est = berezin_number(m, a, level=2)
        assert est.value == pytest.approx(want, rel=1e-9)

    def test_levels_monotone(self, rng):
        m = hardy(6, 0.9)
        a = orc.rand_complex(rng, 7)
        v0 = berezin_number(m, a, level=0).value
        v1 = berezin_number(m, a, level=1).value
        v2 = berezin_number(m, a, level=2).value
        assert v0 <= v1 <= v2
        assert v2 <= operator_norm(a) + 1e-9

    def test_norm_estimate_dominates_number(self, rng):
        m = fock(6, 2.0)
        a = orc.rand_complex(rng, 7)
        num = berezin_number(m, a, level=1).value
        nrm = berezin_norm(m, a, level=1).value
        assert num <= nrm + 1e-9
        assert nrm <= operator_norm(a) + 1e-9

    def test_pair_estimate_beats_diagonal_sampling(self):
        m = hardy(4, 0.9)
        s = _shift_matrix(5)
        est = berezin_norm(m, s, level=1)
        assert not est.exact
        lam, mu = est.argmax
        assert abs(lam) <= 0.9 + 1e-9 and abs(mu) <= 0.9 + 1e-9
        assert est.value >= berezin_number(m, s, level=1).value - 1e-12


DISK_MODELS = (hardy(15, 0.95), bergman(15, 0.95), fock(15, 3.0))


def _log_square(model, a, x):
    """2 log|<A k_lam, k_mu>| from the oracle kernels, which take points past
    the edge too: lam = conj(x[0] + i x[1]), and mu = x[2] + i x[3], or lam."""
    lam = complex(x[0], -x[1])
    mu = complex(x[2], x[3]) if len(x) == 4 else lam
    return 2.0 * math.log(abs(orc.kernel_vec(model, mu).conj() @ (a @ orc.kernel_vec(model, lam))))


class TestAscentDerivatives:
    """The ascent's exact gradient and Hessian equal central differences."""

    @pytest.mark.parametrize("model", (*DISK_MODELS, hardy(3, 0.9)), ids=str)
    def test_match_central_differences(self, rng, model):
        a = orc.rand_complex(rng, model.dimension)
        jet, r = calc._jet(model), model.radius
        eps = 1e-5 * max(1.0, r)
        edge = (r * math.cos(1.0), r * math.sin(1.0))
        for pair, points in (
            (False, [(0.0, 0.0), (0.3 * r, -0.2 * r), edge]),
            (True, [(0.0, 0.0, 0.0, 0.0), (0.3 * r, -0.2 * r, 0.1 * r, 0.5 * r),
                    (*edge, -r * math.sin(2.0), r * math.cos(2.0))]),
        ):
            for x in map(np.array, points):
                val, grad, hess = calc._derivatives(jet, a[None], x[None], np.array([pair]))
                val, grad, hess = val[0], grad[0], hess[0]
                assert 2.0 * math.log(val) == pytest.approx(_log_square(model, a, x), abs=1e-12)
                steps = eps * np.eye(len(x))

                def f(*shifts):
                    return _log_square(model, a, x + sum(shifts))

                fd_grad = np.array([(f(e) - f(-e)) / (2 * eps) for e in steps])
                fd_hess = np.array([[(f(e, d) - f(e, -d) - f(-e, d) + f(-e, -d)) / (4 * eps * eps)
                                     for d in steps] for e in steps])
                assert np.allclose(hess, hess.T, rtol=0, atol=1e-12 * max(1.0, np.abs(hess).max()))
                assert np.abs(grad - fd_grad).max() <= 1e-6 * max(1.0, np.abs(grad).max())
                assert np.abs(hess - fd_hess).max() <= 1e-4 * max(1.0, np.abs(hess).max())


class TestJetCache:
    """One kernel jet per model, shared read-only by every ascent."""

    def test_built_once_per_model(self, rng):
        calc._jet.cache_clear()
        m, a = hardy(3, 0.9), orc.rand_complex(rng, 4)
        berezin_number(m, a, level=1), berezin_norm(m, a, level=1)
        berezin_number(m, 2.0 * a, level=0)
        info = calc._jet.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_shared_arrays_are_read_only(self):
        jet = calc._jet(bergman(4, 0.9))
        assert jet is calc._jet(bergman(4, 0.9))
        arrays = dict(zip(jet.__code__.co_freevars, (c.cell_contents for c in jet.__closure__)))
        assert sorted(arrays) == ["coef", "expo", "j"]
        for arr in arrays.values():
            assert not arr.flags.writeable

    def test_coefficients_from_the_kernel_table(self):
        # the jet's p = P[:, 0] is the kernel's unnormalized column
        for m in (hardy(5, 0.9), bergman(5, 0.9), fock(5, 2.0)):
            c = models._coefficients(m.kind, m.dimension)
            assert not c.flags.writeable
            lam = 0.3 - 0.4j
            p = calc._jet(m)(lam.conjugate())[:, 0]
            assert np.array_equal(p, c * lam.conjugate() ** np.arange(m.dimension))


class TestRefineDomainCheck:
    """The ascents check their start points once, for every point they visit."""

    @pytest.mark.parametrize("start", [0.95 + 0.5j, complex(math.nan, 0.0), complex(math.inf, 0.0)])
    def test_start_outside_domain_raises(self, start):
        m, a = hardy(4, 0.9), np.eye(5, dtype=complex)
        with pytest.raises(PointOutOfDomain):
            calc._ascend(m, a[None], [(0, 0, (start,))])
        with pytest.raises(PointOutOfDomain):
            calc._ascend(m, a[None], [(0, 0, (0.1j, start))])
        with pytest.raises(PointOutOfDomain):
            calc._ascend(m, a[None], [(0, 0, (start, 0.1j))])


def _disk_sample(model, center, radius):
    """center, and a polar sample of the disk of `radius` around it, each point
    projected onto the domain."""
    pts = [center]
    for r in np.linspace(0.0, radius, 7)[1:]:
        for t in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False):
            p = center + r * complex(math.cos(t), math.sin(t))
            pts.append(p if abs(p) <= model.radius else p * (model.radius / abs(p)))
    return pts


class TestLocalMaximum:
    """Each continuous-model estimate sits at a local maximum of its value."""

    @pytest.mark.parametrize("model", (*DISK_MODELS, hardy(3, 0.9)), ids=str)
    def test_no_higher_value_nearby(self, model):
        delta = model.radius / 64
        for seed in range(3):
            a = gen_matrix(GeneratorSpec("general", model.dimension, 1.0, seed=seed))
            tol = 1e-12 * operator_norm(a)
            for level in (0, 1):
                bn = berezin_number(model, a, level=level)
                k = kernel_matrix(model, _disk_sample(model, bn.argmax, delta))
                near = np.abs(np.einsum("ij,ij->j", k.conj(), a @ k))
                assert near.max() <= bn.value + tol
            nb = berezin_norm(model, a, level=0)
            lam, mu = nb.argmax
            kl = kernel_matrix(model, _disk_sample(model, lam, delta))
            km = kernel_matrix(model, _disk_sample(model, mu, delta))
            assert np.abs(km.conj().T @ (a @ kl)).max() <= nb.value + tol


class TestRefinedBounds:
    """Refined estimates: at least the grid, at most the norm, attained in the domain."""

    @pytest.mark.parametrize("model", DISK_MODELS, ids=str)
    def test_estimates_between_grid_and_norm(self, model):
        for seed in (0, 1):
            a = gen_matrix(GeneratorSpec("general", 16, 1.0, seed=seed))
            opn = operator_norm(a)
            tol = 1e-12 * opn

            def value_at(lam, mu):
                return abs(normalized_kernel(model, mu).conj() @ (a @ normalized_kernel(model, lam)))

            with computation_scope():
                for level in range(3):
                    kmat = kernel_matrix(model, default_grid(model, level).points)
                    pairs = np.abs(kmat.conj().T @ (a @ kmat))
                    grid_number = np.max(np.abs(np.einsum("ij,ij->j", kmat.conj(), a @ kmat)))
                    bn = berezin_number(model, a, level=level)
                    nb = berezin_norm(model, a, level=level)
                    assert grid_number <= bn.value <= opn * (1 + 1e-12)
                    assert np.max(pairs) <= nb.value <= opn * (1 + 1e-12)
                    for p in (bn.argmax, *nb.argmax):  # r e^{it} rounds to within 1 ulp
                        assert abs(p) <= model.radius * (1 + 1e-12)
                    assert value_at(bn.argmax, bn.argmax) == pytest.approx(bn.value, abs=tol)
                    assert value_at(*nb.argmax) == pytest.approx(nb.value, abs=tol)


def _elementwise_pairs(a, kmat):
    """Every pair's float64 elementwise value |<A k_lam, k_mu>| = np.abs((v *
    conj(k_mu)).sum(-1)), v = A k_lam, one row per lam, each product and sum
    over C-contiguous rows as _row_max forms them."""
    akt, kct = np.ascontiguousarray((a @ kmat).T), np.ascontiguousarray(kmat.conj().T)
    return np.array([np.abs((np.repeat(v[None], len(kct), axis=0) * kct).sum(-1)) for v in akt])


def _check_row_max(a, kmat):
    """_row_max of one operator gives each row's maximum and first argmax of
    the elementwise values (a NaN is its row's first maximum)."""
    full = _elementwise_pairs(a, kmat)
    vals, mus = calc._row_max(a[None], kmat)
    np.testing.assert_array_equal(vals[0], full.max(axis=1))
    np.testing.assert_array_equal(mus[0], full.argmax(axis=1))
    return full, mus[0]


class TestRowMax:
    def test_argmax_values_equal_the_column_maxima(self, rng):
        # level 0 has 129 points: the pair values fit in one PAIR_BLOCK block
        m = hardy(3, 0.9)
        kmat = kernel_matrix(m, default_grid(m, 0).points)
        a = orc.rand_complex(rng, 4)
        bad = kmat.copy()
        bad[:, 5] = np.nan  # row 5 is all NaN; every other row's first NaN is mu = 5
        for k in (kmat, bad):
            _check_row_max(a, k)

    @staticmethod
    def _level_one(rng):
        """hardy(3, 0.9) at level 1, an operator, and the most common row
        argmax mu with the rows attaining it."""
        m = hardy(3, 0.9)
        kmat = kernel_matrix(m, default_grid(m, 1).points)
        a = orc.rand_complex(rng, 4)
        top = _elementwise_pairs(a, kmat).argmax(axis=1)
        mu = int(np.bincount(top).argmax())
        rows = np.flatnonzero(top == mu)
        assert mu < 511 and rows.size > 1 and rows.max() < 511
        return kmat, a, mu, rows

    @pytest.mark.parametrize("block", [2**14, 513 * 100])
    def test_blocks_equal_one_unblocked_product(self, rng, monkeypatch, block):
        # level 1 has 513 points: screen blocks of 32 rows, the last one
        # partial (1 row), so a stale row in the last block shows; the bad
        # kernel's rows take every mu, 4,096 or 12,825 products at a time
        monkeypatch.setattr(calc, "PAIR_BLOCK", block)
        kmat, a, mu, rows = self._level_one(rng)
        tied = kmat.copy()
        tied[:, 511] = tied[:, mu]  # its rows now attain their maximum at mu and at 511
        bad = tied.copy()
        bad[:, 250] = np.nan  # row 250 is all NaN; every other row's first NaN is mu = 250
        full, mus = _check_row_max(a, tied)
        _check_row_max(a, bad)
        np.testing.assert_array_equal(full[rows, mu], full[rows, 511])  # a real tie
        np.testing.assert_array_equal(mus[rows], mu)

    @pytest.mark.parametrize("delta", [1e-10, -1e-10])
    def test_near_ties_the_screen_cannot_separate(self, rng, delta):
        # column 511 is column mu turned by a phase and scaled by 1 + delta:
        # in float64 the larger one wins in every row of mu, later column
        # (delta > 0) or earlier (delta < 0), while complex64 orders some of
        # those rows the other way
        kmat, a, mu, rows = self._level_one(rng)
        near = kmat.copy()
        near[:, 511] = near[:, mu] * np.exp(0.7j) * (1.0 + delta)
        full, mus = _check_row_max(a, near)
        np.testing.assert_array_equal(mus[rows], 511 if delta > 0 else mu)
        assert (np.sign(full[rows, 511] - full[rows, mu]) == np.sign(delta)).all()
        k32 = near.astype(np.complex64)
        screen = np.abs((a.astype(np.complex64) @ k32).T @ k32.conj())
        assert (np.sign(screen[rows, 511] - screen[rows, mu]) == -np.sign(delta)).any()


class TestNormMemory:
    def test_level_three_norm_builds_no_pair_matrix(self):
        # 8,193 grid points: one m x m complex128 pair matrix would be 1 GiB
        a = gen_matrix(GeneratorSpec("general", 4, 1.0, seed=0))
        tracemalloc.start()
        try:
            berezin_norm(hardy(3, 0.9), a, level=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20

    @pytest.mark.parametrize("name", ["zero", "E30"])
    def test_wide_ties_stay_bounded(self, name):
        # every row of the zero operator ties at 0, and E30 = e_3 e_0^T gives
        # |<A k_lam, k_mu>| = |k_lam,0| |k_mu,3|, each row tied around the
        # outer circle: the candidates of the norm's screen stay in blocks
        a = np.zeros((4, 4), dtype=complex)
        a[3, 0] = name == "E30"
        tracemalloc.start()
        try:
            est = berezin_norm(hardy(3, 0.9), a, level=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        assert est.value == (0.4210609464263534 if name == "E30" else 0.0)


def _mesh_values(level, ring_value, origin):
    """A value array on default_grid(level) layout: the origin, then
    ring_value(r, t) over the radius-major (radius r, angle t) mesh."""
    n_rad, n_ang = models.BASE_RADII * 2**level, models.BASE_ANGLES * 2**level
    r, t = np.meshgrid(np.arange(n_rad), np.arange(n_ang), indexing="ij")
    return np.concatenate(([origin], ring_value(r, t).astype(float).ravel())), n_ang


def _local_maxima_oracle(vals, level):
    """Indices i with vals[i] >= every neighbour, by explicit neighbour lists."""
    n_rad, n_ang = models.BASE_RADII * 2**level, models.BASE_ANGLES * 2**level

    def index(r, t):
        return 1 + r * n_ang + t % n_ang

    out = [0] if all(vals[0] >= vals[index(0, t)] for t in range(n_ang)) else []
    for r in range(n_rad):
        for t in range(n_ang):
            nbrs = [index(r, t - 1), index(r, t + 1), index(r - 1, t) if r else 0]
            if r + 1 < n_rad:
                nbrs.append(index(r + 1, t))
            if all(vals[index(r, t)] >= vals[j] for j in nbrs):
                out.append(index(r, t))
    return out


def _peaks(vals, level):
    """calc._peaks of one row of values."""
    return calc._peaks(vals[None], level)[0]


class TestPeaks:
    """calc._peaks: the TOP_K best grid local maxima, ties to the lower index."""

    @pytest.mark.parametrize("level", [0, 1])
    def test_origin_against_first_ring(self, level):
        # values fall away from the origin, except one first-ring point
        vals, _ = _mesh_values(level, lambda r, t: -10.0 * r, origin=1.0)
        assert _peaks(vals, level).tolist() == [0]
        vals[4] = 2.0  # ring 0, angle 3 beats the origin
        assert _peaks(vals, level).tolist() == [4]
        vals[4] = 1.0  # a tie with the origin: both kept, the origin first
        assert _peaks(vals, level).tolist() == [0, 4]

    @pytest.mark.parametrize("level", [0, 1])
    def test_angle_wraps(self, level):
        # on ring 3, g(t) = t except g(0) = n_ang: only the wrap tells that
        # angle n_ang - 1 sits below its neighbour angle 0
        vals, n_ang = _mesh_values(
            level, lambda r, t: np.where(t == 0, t.shape[1], t) - 100.0 * abs(r - 3),
            origin=-1e3)
        assert _peaks(vals, level).tolist() == [1 + 3 * n_ang]
        assert _local_maxima_oracle(vals, level) == [1 + 3 * n_ang]

    @pytest.mark.parametrize("level", [0, 1])
    def test_innermost_and_outermost_rings(self, level):
        # one angle peak at t = 5 on every ring; the radial slope picks the ring
        def bump(t):
            return np.cos(2.0 * np.pi * (t - 5) / t.shape[1])

        vals, n_ang = _mesh_values(level, lambda r, t: 10.0 * r + bump(t), origin=-1e3)
        n_rad = (len(vals) - 1) // n_ang
        assert _peaks(vals, level).tolist() == [1 + (n_rad - 1) * n_ang + 5]
        vals, _ = _mesh_values(level, lambda r, t: -10.0 * r + bump(t), origin=-1e3)
        assert _peaks(vals, level).tolist() == [1 + 5]

    @pytest.mark.parametrize("level", [0, 1])
    def test_plateau_ties_to_lower_index(self, level):
        # ring 2 peaks on a two-point plateau at angles 9 and 10; a lone point
        # on ring 5 is raised to the same height
        vals, n_ang = _mesh_values(
            level, lambda r, t: -10.0 * abs(r - 2) - abs(t - 9.5), origin=-1e3)
        vals[1 + 5 * n_ang + 1] = vals[1 + 2 * n_ang + 9]
        assert _peaks(vals, level).tolist() == [
            1 + 2 * n_ang + 9, 1 + 2 * n_ang + 10, 1 + 5 * n_ang + 1,
        ]

    @pytest.mark.parametrize("level", [0, 1])
    def test_constant_values(self, level):
        vals, _ = _mesh_values(level, lambda r, t: np.zeros(r.shape), origin=0.0)
        assert _peaks(vals, level).tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("level", [0, 1])
    def test_at_most_top_k_and_global_argmax_included(self, rng, level):
        # a checkerboard: every other mesh point is a peak
        vals, _ = _mesh_values(level, lambda r, t: (r + t) % 2, origin=0.0)
        assert len(_peaks(vals, level)) == calc.TOP_K
        for _ in range(20):
            vals = rng.standard_normal(len(vals)) ** 3
            got = _peaks(vals, level).tolist()
            assert len(got) <= calc.TOP_K and int(np.argmax(vals)) in got
            maxima = _local_maxima_oracle(vals, level)
            assert got == sorted(maxima, key=lambda i: (-vals[i], i))[:calc.TOP_K]


class TestStartRule:
    """The disk sup search climbs the grid's best local maxima."""

    def test_level_zero_finds_the_peak_level_two_finds(self):
        # eval-pool slot 15: starting from the five best grid values instead
        # of the five best local maxima left level 0 19% (number) and 16%
        # (norm) short of level 2
        a = gen_matrix(GeneratorSpec("general", 16, 1.0, 0xE7A1000F))
        for quantity, model in ((berezin_number, hardy(15, 0.95)),
                                (berezin_norm, bergman(15, 0.95))):
            v0 = quantity(model, a, level=0).value
            assert v0 == pytest.approx(quantity(model, a, level=2).value, rel=1e-12)

    def test_refinement_monotone_and_above_the_grid(self):
        # acceptance gate 7 across the start rule, with no tolerance
        m = hardy(3, 0.9)
        kmat = kernel_matrix(m, default_grid(m, 0).points)
        for seed in range(4):
            a = gen_matrix(GeneratorSpec("general", 4, 1.0, seed=seed))
            grid = (np.abs(np.einsum("ij,ij->j", kmat.conj(), a @ kmat)).max(),
                    np.abs(kmat.conj().T @ (a @ kmat)).max())
            for quantity, grid_max in zip((berezin_number, berezin_norm), grid):
                v0 = quantity(m, a, level=0).value
                assert quantity(m, a, level=1).value >= v0 >= grid_max


class TestScopedCache:
    def test_same_answers_with_and_without_scope(self, rng):
        a = orc.rand_complex(rng, 5)
        plain = (
            berezin_number(finite(5), a).value,
            numerical_radius(a),
            operator_norm(a),
        )
        with computation_scope():
            cached_first = (
                berezin_number(finite(5), a).value,
                numerical_radius(a),
                operator_norm(a),
            )
            cached_second = (
                berezin_number(finite(5), a).value,
                numerical_radius(a),
                operator_norm(a),
            )
        assert plain == cached_first == cached_second


class TestPositiveEquality:
    def test_two_by_two(self):
        h = np.array([[2, 1], [1, 2]], dtype=complex)
        res = verify_positive_equality(finite(2), h)
        assert res.satisfied
        assert res.lhs == pytest.approx(2.0, abs=0)
        assert res.rhs == pytest.approx(2.0, abs=0)

    def test_identity(self):
        res = verify_positive_equality(finite(3), np.eye(3, dtype=complex))
        assert res.satisfied and res.lhs == 1.0 == res.rhs

    def test_random_gram(self, rng):
        y = orc.rand_complex(rng, 6)
        res = verify_positive_equality(finite(6), y.conj().T @ y, tol=1e-8)
        assert res.satisfied

    def test_rejects_non_positive(self):
        with pytest.raises(NotPositive):
            verify_positive_equality(finite(2), SHIFT)

    def test_disk_model_estimates_are_lifted(self):
        # the unlifted norm ends 3 ulps above the number on the first operand
        # and 3 ulps below it on the second; lifted, the norm is never below
        # the number and at most a few ulps above it, and both stay lower
        # bounds attained at domain points
        m = hardy(3, 0.9)
        for seed in (0xD15C0000, 0xA):
            a = gen_matrix(GeneratorSpec("positive", 4, 1.0, seed))
            res = verify_positive_equality(m, a, level=0)
            assert res.satisfied and res.witness["exact"] is False
            assert res.rhs <= res.lhs <= res.rhs + 4 * math.ulp(res.rhs)
            assert res.rhs >= berezin_number(m, a, level=0).value
            assert res.lhs >= berezin_norm(m, a, level=0).value


def test_operator_near_1e300_scales_by_a_power_of_two():
    # A*A and the radius's products are formed from 2^-k A, so entries far
    # above 1e154 neither overflow nor change the scaled-back values
    a = gen_matrix(GeneratorSpec("general", 4, 1.0, seed=3))
    for factor in (1e300 / np.abs(a).max(), 2.0**990):
        b = a * factor
        assert operator_norm(b) == pytest.approx(operator_norm(a) * factor, rel=1e-15)
        assert numerical_radius(b) == pytest.approx(numerical_radius(a) * factor, rel=2e-15)
    huge = a * (1.7e308 / np.abs(a).max())  # norm and radius beyond float64
    with pytest.raises(ValueError, match="operator norm overflows float64"):
        operator_norm(huge)
    with pytest.raises(ValueError, match="numerical radius overflows float64"):
        numerical_radius(huge)
    # only entries above 2^500 rescale; ordinary input keeps its bits
    edge = np.full((2, 2), 2.0**500, dtype=complex)
    assert _pow2_exponent(edge) == 0 and _pow2_exponent(np.nextafter(edge.real, np.inf)) == 501


SPLIT_MODELS = [hardy(3, 0.9), bergman(3, 0.9), fock(3, 2.0)]


class TestPowerOfTwoSplit:
    """A continuous-model search runs A = 2^k U through one search of U per batch."""

    OPERATORS = {
        "general": gen_matrix(GeneratorSpec("general", 4, 1.0, seed=7)),
        "origin peak": np.diag([1.0, 0.3, -0.2, 0.1]).astype(complex),
        "real": gen_matrix(GeneratorSpec("general", 4, 1.0, seed=8)).real.copy(),
    }

    def test_origin_peak_operator_peaks_at_the_origin(self):
        a = self.OPERATORS["origin peak"]
        for m in SPLIT_MODELS:
            assert berezin_number(m, a, level=0).argmax == 0j

    @pytest.mark.parametrize("model", SPLIT_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("name", list(OPERATORS))
    def test_multiples_equal_the_scaled_values_exactly(self, model, level, name):
        # each multiple in a fresh scope, so nothing is shared: the split
        # alone must give 2^j times A's values, the direct search's bits and
        # the same argmax
        a = self.OPERATORS[name]
        with computation_scope():
            base = (berezin_number(model, a, level), berezin_norm(model, a, level))
            pair = berezin_pair(model, a, level)
        for j in (-300, -40, -1, 1, 5, 300):
            b = a * 2.0**j
            with computation_scope():
                got = (berezin_number(model, b, level), berezin_norm(model, b, level))
                got_pair = berezin_pair(model, b, level)
            direct = calc._grid_sup(model, [(b, False), (b, True)], level)
            for est, ref, dir_ in zip(got, base, direct):
                assert est.value == math.ldexp(ref.value, j) == dir_.value
                assert est.argmax == ref.argmax == dir_.argmax
                assert est.exact is False
            assert got_pair == tuple(math.ldexp(v, j) for v in pair)

    def test_a_multiple_in_one_batch_searches_once(self, monkeypatch):
        calls = []
        search = calc._grid_sup
        monkeypatch.setattr(calc, "_grid_sup", lambda *a: calls.append(a) or search(*a))
        m, a = hardy(3, 0.9), self.OPERATORS["general"]
        got = calc._searches(m, 0, [(a, False), (a, True), (8 * a, False), (8 * a, True)])
        assert len(calls) == 1 and len(calls[0][1]) == 2  # U's number and norm
        for est, ref in zip(got[2:], got[:2]):
            assert est.value == 8 * ref.value and est.argmax == ref.argmax

    UNSAFE = [
        ("above 2^500", gen_matrix(GeneratorSpec("general", 4, 1.0, seed=7)) * 2.0**600),
        ("split underflows", np.diag([2.0**400, 2.0**-700, 1.0, 0.5]).astype(complex)),
        ("all subnormal", np.full((4, 4), 2.0**-1050, dtype=complex)),  # 2.0**1050 overflows
        ("zero", np.zeros((4, 4), dtype=complex)),
        ("nan", np.full((4, 4), math.nan, dtype=complex)),
    ]

    @pytest.mark.parametrize("name, a", UNSAFE)
    def test_unsafe_operators_take_the_direct_path(self, monkeypatch, name, a):
        m, search = hardy(3, 0.9), calc._grid_sup

        def direct(model, searches, level):
            if any(op is not a for op, _ in searches):
                pytest.fail("split taken")
            return search(model, searches, level)

        monkeypatch.setattr(calc, "_grid_sup", direct)
        for quantity, norm in ((berezin_number, False), (berezin_norm, True)):
            (ref,) = search(m, [(a, norm)], 0)
            if name == "nan":
                with pytest.raises(ValueError, match="non-finite"):
                    quantity(m, a, 0)
                assert isinstance(ref, ValueError) and "non-finite" in str(ref)
                continue
            est = quantity(m, a, level=0)
            assert est.value == ref.value and est.argmax == ref.argmax

    @pytest.mark.filterwarnings("error")
    def test_mixed_batch_splits_the_safe_operators_alone(self, monkeypatch):
        # every unsafe operator, an infinite one too, between safe ones in
        # one batch: the one array pass splits the safe ones only, and each
        # search gives what it gives alone
        inf = np.eye(4, dtype=complex)
        inf[1, 2] = math.inf
        unsafe = [a for _, a in self.UNSAFE] + [inf]
        safe = list(self.OPERATORS.values()) * 2
        ops = [a for pair in zip(safe, unsafe) for a in pair]
        u, k, ok = calc._pow2_splits(np.array(ops, dtype=complex))
        assert ok.tolist() == [True, False] * len(unsafe)
        for a, ui, ki in zip(safe, u[ok], k[ok].tolist()):
            assert np.array_equal(ui * 2.0**ki, a)
            assert 0.5 <= np.maximum(np.abs(ui.real), np.abs(ui.imag)).max() < 1.0
        m, search, sent = hardy(3, 0.9), calc._grid_sup, []
        monkeypatch.setattr(calc, "_grid_sup", lambda model, searches, level: (
            sent.extend(op for op, _ in searches) or search(model, searches, level)))
        for norm in (False, True):
            sent.clear()
            got = calc._searches(m, 0, [(a, norm) for a in ops])
            assert [any(b is a for b in sent) for a in ops] == [False, True] * len(unsafe)
            for a, est in zip(ops, got):
                assert _same(est, search(m, [(a, norm)], 0)[0])


def _same(est, ref):
    """Two search results are the same: equal value bits and argmax, or the
    same error."""
    if isinstance(ref, Exception):
        return type(est) is type(ref) and str(est) == str(ref)
    return (np.float64(est.value).tobytes() == np.float64(ref.value).tobytes()
            and repr(est.argmax) == repr(ref.argmax) and est.exact is ref.exact is False)


class TestBatchedSearch:
    """A batch of operators searches each as it would be searched alone."""

    OPERATORS = {
        **TestPowerOfTwoSplit.OPERATORS,
        "hermitian": gen_matrix(GeneratorSpec("hermitian", 4, 1.0, seed=9)),
        "positive": gen_matrix(GeneratorSpec("positive", 4, 1.0, seed=10)),
        "general 2": gen_matrix(GeneratorSpec("general", 4, 3.0, seed=11)),
        "zero": np.zeros((4, 4), dtype=complex),
        "edge peak": np.diag([0.1, 0.2, 0.3, 1.0]).astype(complex),
        "fortran order": np.asfortranarray(gen_matrix(GeneratorSpec("general", 4, 1.0, seed=12))),
    }

    def test_edge_peak_operator_peaks_on_the_edge(self):
        for m in SPLIT_MODELS:
            (est,) = calc._grid_sup(m, [(self.OPERATORS["edge peak"], False)], 0)
            assert abs(est.argmax) == pytest.approx(m.radius, rel=1e-12)

    SEARCHES = [(a, norm) for a in OPERATORS.values() for norm in (False, True)]

    @pytest.mark.parametrize("model", SPLIT_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_each_search_as_alone(self, model, level):
        # numbers and norms of every operator in one batch, then reversed
        batch = calc._grid_sup(model, self.SEARCHES, level)
        for search, est in zip(self.SEARCHES, batch):
            (alone,) = calc._grid_sup(model, [search], level)
            assert _same(est, alone)
        for est, ref in zip(calc._grid_sup(model, self.SEARCHES[::-1], level), batch[::-1]):
            assert _same(est, ref)

    @pytest.mark.parametrize("norm", [False, True], ids=["number", "norm"])
    def test_one_quantity_as_alone(self, norm):
        # a batch of numbers alone climbs in two coordinates, not four
        m = bergman(3, 0.9)
        searches = [(a, norm) for a in self.OPERATORS.values()]
        for est, search in zip(calc._grid_sup(m, searches, 1), searches):
            assert _same(est, calc._grid_sup(m, [search], 1)[0])

    def test_grid_stage_blocks_equal_one_block(self, monkeypatch):
        # level 1 on hardy(3, 0.9): 4 x 513 kernel values, so 3 operators per
        # block and a partial last block
        m = hardy(3, 0.9)
        whole = calc._grid_sup(m, self.SEARCHES, 1)
        monkeypatch.setattr(calc, "PAIR_BLOCK", 3 * 4 * 513 + 5)
        for est, ref in zip(calc._grid_sup(m, self.SEARCHES, 1), whole):
            assert _same(est, ref)

    @pytest.mark.filterwarnings("error")
    def test_failing_operators_fail_alone(self):
        m, good = hardy(3, 0.9), list(self.OPERATORS.values())[:3]
        nan = np.full((4, 4), math.nan, dtype=complex)
        huge = gen_matrix(GeneratorSpec("general", 4, 1.0, seed=3))
        huge = huge * (1.7e308 / np.abs(huge).max())
        ops = [good[0], nan, good[1], huge, good[2]]
        batch = calc._grid_sup(m, [(a, norm) for a in ops for norm in (False, True)], 0)
        for k, a in enumerate(good):
            for norm in (False, True):
                assert _same(batch[4 * k + norm], calc._grid_sup(m, [(a, norm)], 0)[0])
        for est in batch[2:4]:
            assert isinstance(est, ValueError) and "non-finite" in str(est)
        for est in batch[6:8]:
            assert isinstance(est, ValueError) and "overflows float64" in str(est)

    def test_split_batch_failures_fail_alone(self):
        m, a = hardy(3, 0.9), self.OPERATORS["general"]
        nan = np.full((4, 4), math.nan, dtype=complex)
        wrong = np.eye(3, dtype=complex)
        zero = np.zeros((4, 4), dtype=complex)
        searches = [(a, False), (4 * a, False), (a, True), (nan, True), (wrong, False),
                    (zero, True)]
        got = calc._searches(m, 0, searches)
        assert isinstance(got[3], ValueError) and "non-finite" in str(got[3])
        assert isinstance(got[4], DimensionMismatch)
        for k in (0, 1, 2, 5):
            assert _same(got[k], calc._grid_sup(m, [searches[k]], 0)[0])

    def test_plan_does_nothing_on_finite_models(self, monkeypatch, tmp_path):
        # `berezin eval` plans its disk searches; on a finite model it has none
        monkeypatch.setattr(calc, "_grid_sup", lambda *args: pytest.fail("searched"))
        save_matrix(tmp_path / "m.json", np.eye(4, dtype=complex))
        assert cli.main(["eval", "--model", "finite:4", "--matrix", str(tmp_path / "m.json")]) == 0

    @pytest.mark.parametrize("model", SPLIT_MODELS, ids=lambda m: m.kind)
    def test_pair_is_one_batch(self, monkeypatch, model):
        # the number and the norm of a lone berezin_pair climb in one ascent,
        # with the lift applied to berezin_number's and berezin_norm's values
        a = self.OPERATORS["positive"]
        norm, number = berezin_norm(model, a, 1), berezin_number(model, a, 1)
        bn = max(number.value, *(abs(berezin_symbol(model, a, pt)) for pt in norm.argmax))
        calls, search = [], calc._grid_sup
        monkeypatch.setattr(calc, "_grid_sup", lambda *args: calls.append(args) or search(*args))
        got = berezin_pair(model, a, 1)
        assert np.array(got).tobytes() == np.array([bn, max(norm.value, bn)]).tobytes()
        assert len(calls) == 1


class TestBitIdentityAssumptions:
    """The numpy facts that let a batched search give each operator the bits
    of its search alone: stacked products equal per-point products, and the
    ascent's elementwise operations and short sums give each element the
    same bits wherever it sits in an array.  A numpy or BLAS upgrade that
    breaks one fails here by name."""

    @pytest.mark.parametrize("degree", [3, 15])
    @pytest.mark.parametrize("kind", ["hardy", "bergman", "fock"])
    def test_stacked_jets_and_products_equal_per_point(self, rng, kind, degree):
        model = getattr(models, kind)(degree, 3.0 if kind == "fock" else 0.95)
        jet, n, rows = calc._jet(model), degree + 1, 64
        rad = model.radius * np.sqrt(rng.random(rows))
        rad[:8] = model.radius  # on the edge
        ang = 2.0 * math.pi * rng.random(rows)
        w = rad * np.cos(ang) + 1j * rad * np.sin(ang)
        a = rng.standard_normal((rows, n, n)) + 1j * rng.standard_normal((rows, n, n))
        # as _derivatives stacks them: one jet over the points' w, then the
        # pairs' w and mu; A P(w); the left factors P(w)* of the points and
        # P(mu)^T of the pairs; and P*P at every point
        half = rows // 2
        p = jet(np.concatenate((w, w[:half] * 0.5j)))
        ap = a @ p[:rows]
        q = np.concatenate((p[:half].conj(), p[rows:])).transpose(0, 2, 1) @ ap
        e = p.conj().transpose(0, 2, 1) @ p
        # as the number's grid stage
        kmat = kernel_matrix(model, default_grid(model, 0).points)
        sym = calc._symbols(a, kmat)
        for i in range(rows):
            pi = jet(complex(w[i]))
            assert np.array_equal(pi, p[i]) and np.array_equal(pi.conj().T @ pi, e[i])
            left = pi.conj().T if i < half else jet(complex(w[i - half] * 0.5j)).T
            assert np.array_equal(left @ (a[i] @ pi), q[i])
            assert np.array_equal(np.einsum("ij,ij->j", kmat.conj(), a[i] @ kmat), sym[i])

    @staticmethod
    def _samples(rng, count):
        """Complex pairs with ties |br| = |bi|, zeros, subnormals, huge and
        ordinary parts."""
        pool = np.concatenate((rng.standard_normal(count), [0.0, -0.0, 5e-324, -2.5e-320, 1e-310],
                               [1.5e308, -1.7e308], rng.standard_normal(64) * 1e300,
                               rng.standard_normal(64) * 1e-300))
        a, b = (rng.choice(pool, (count, 2)) for _ in range(2))
        tie = rng.random(count) < 0.1
        b[tie, 1] = np.copysign(b[tie, 0], rng.standard_normal(tie.sum()))
        a[:2] = [[1.5e308, 1.5e308], [-1.7e308, 1e308]]  # moduli past float64
        return a[:, 0] + 1j * a[:, 1], b[:, 0] + 1j * b[:, 1]

    def test_elementwise_results_do_not_depend_on_position(self, rng):
        # SIMD loop bodies and scalar tails must round alike: each element of
        # a slice at offsets 0-39 with lengths 1-17 has its bits alone
        a, b = self._samples(rng, 64)
        s = rng.standard_normal((64, 4)) * rng.choice([0.0, -0.0, 1.0, 1e300], (64, 4))
        # the norm's refinement sums complex C-contiguous rows of width n
        z = self._samples(rng, 64 * 16)[0].reshape(64, 16)
        c = {w: np.ascontiguousarray(z[:, :w]) for w in range(5, 17)}
        ops = {
            "product": lambda i: a[i] * b[i],
            "quotient": lambda i: a[i] / b[i],
            "modulus": lambda i: np.abs(a[i]),
            "twice": lambda i: 2.0 * a[i],
            "hypot": lambda i: np.hypot(a[i].real, b[i].imag),
            **{f"sum of {w}": (lambda i, w=w: s[i, :w].sum(-1)) for w in (2, 3, 4)},
            **{f"complex sum of {w}": (lambda i, w=w: c[w][i].sum(-1)) for w in c},
        }
        with np.errstate(all="ignore"):
            assert np.isinf(np.abs(a[:2])).all()  # an overflowing modulus is inf
            for name, op in ops.items():
                alone = np.concatenate([op(slice(i, i + 1)) for i in range(64)])
                for off in range(40):
                    for length in range(1, 18):
                        got = op(slice(off, off + length))
                        assert got.tobytes() == alone[off:off + length].tobytes(), (name, off, length)
        # a point ascent in a batch with pairs sums over two more slots, of
        # exact zeros, which keep the sums' values
        for zero in (0.0, -0.0):
            padded = np.concatenate((s[:, :2], np.full((64, 2), zero)), axis=1)
            assert np.array_equal(padded.sum(-1), s[:, :2].sum(-1))


class TestBerezinPair:
    def test_finite_models_give_exact_values(self):
        a = gen_matrix(GeneratorSpec("general", 4, 1.0, seed=5))
        assert berezin_pair(finite(4), a) == (
            berezin_number(finite(4), a).value, berezin_norm(finite(4), a).value)
        assert berezin_pair(finite(2), A22) == (4.0, 4.0)
        assert berezin_pair(finite(2), SHIFT) == (0.0, 1.0)

    @pytest.mark.parametrize("kind", ["general", "hermitian", "positive"])
    def test_disk_values_are_lifted(self, kind):
        m = hardy(3, 0.9)
        for seed in range(4):
            a = gen_matrix(GeneratorSpec(kind, 4, 1.0, seed))
            number, norm = berezin_pair(m, a, level=0)
            assert number >= berezin_number(m, a, level=0).value
            assert norm >= berezin_norm(m, a, level=0).value
            assert norm >= number

    def test_disk_values_agree_on_positive_operands(self):
        # Proposition 1: for PSD A the lifted number reaches the norm
        m = hardy(3, 0.9)
        for seed in (0xD15C0000, 1, 2, 3):
            a = gen_matrix(GeneratorSpec("positive", 4, 1.0, seed))
            number, norm = berezin_pair(m, a, level=0)
            assert abs(norm - number) <= 1e-12 * norm


@pytest.mark.parametrize("quantity", [berezin_number, berezin_norm])
def test_negative_level_rejected_on_disk_models(quantity):
    for level in (-1, 5):  # 5 is above models.MAX_LEVEL
        with pytest.raises(ValueError, match="level must be >= 0"):
            quantity(hardy(3, 0.9), np.eye(4, dtype=complex), level=level)


@pytest.mark.parametrize("quantity", [berezin_number, berezin_norm])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_operator_rejected_on_disk_models(quantity, bad):
    a = np.eye(4, dtype=complex)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        quantity(hardy(3, 0.9), a, level=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("quantity", [berezin_number, berezin_norm])
@pytest.mark.parametrize("top", [1e308, 1.7e308])
def test_overflowing_operator_raises_instead_of_inf(quantity, top):
    # finite entries up to `top`: the grid or the ascent overflows to inf (an
    # inf is no lower bound), or abs() of a complex raises OverflowError
    a = gen_matrix(GeneratorSpec("general", 4, 1.0, seed=3))
    a = a * (top / np.abs(a).max())
    assert np.isfinite(a).all()
    with pytest.raises(ValueError, match="overflows float64"):
        quantity(hardy(3, 0.9), a, level=0)
