import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as orc
from berezin import (
    NotHermitian,
    NotPositive,
    ParamOutOfRange,
    abs_power,
    adjoint,
    as_complex_matrix,
    herm_eig,
    im_part,
    is_hermitian,
    is_positive,
    operator_norm,
    positive_power,
    positive_sqrt,
    re_part,
    spectral_radius,
)
from berezin import _cache, linalg
from berezin._cache import computation_scope

I2 = np.eye(2, dtype=complex)
SHIFT = np.array([[0, 1], [0, 0]], dtype=complex)


def _small_matrices(max_n=4):
    # complex entries with bounded parts keep eigensolvers well away from overflow
    part = st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32)

    @st.composite
    def mats(draw):
        n = draw(st.integers(1, max_n))
        re = draw(st.lists(st.lists(part, min_size=n, max_size=n), min_size=n, max_size=n))
        im = draw(st.lists(st.lists(part, min_size=n, max_size=n), min_size=n, max_size=n))
        return np.array(re, dtype=float) + 1j * np.array(im, dtype=float)

    return mats()


class TestAdjoint:
    def test_explicit_entries(self):
        a = np.array([[1, 1j], [0, 2]], dtype=complex)
        expect = np.array([[1, 0], [-1j, 2]], dtype=complex)
        assert np.array_equal(adjoint(a), expect)

    def test_identity_fixed(self):
        assert np.array_equal(adjoint(I2), I2)

    def test_real_matrix_transposes(self):
        assert np.array_equal(adjoint(SHIFT), SHIFT.T)

    @settings(max_examples=40, deadline=None)
    @given(_small_matrices())
    def test_involution(self, a):
        assert np.array_equal(adjoint(adjoint(a)), a)


class TestValidation:
    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.zeros((0, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.array([[np.nan, 0], [0, 1]]))

    def test_accepts_nested_lists(self):
        m = as_complex_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128 and m.shape == (2, 2)


class TestHermEig:
    def test_diagonal(self):
        ev = herm_eig(np.diag([3.0, 1.0]).astype(complex))
        assert np.allclose(ev.values, [1.0, 3.0], atol=0)

    def test_two_by_two(self):
        # det(A - xI) = (2-x)^2 - 1 -> roots 1 and 3
        ev = herm_eig(np.array([[2, 1], [1, 2]], dtype=complex))
        assert np.allclose(ev.values, [1.0, 3.0], atol=1e-12)

    def test_identity(self):
        ev = herm_eig(np.eye(5, dtype=complex))
        assert np.allclose(ev.values, np.ones(5), atol=0)

    def test_eigen_identity_residual(self, rng):
        g = orc.rand_complex(rng, 6)
        h = (g + g.conj().T) / 2
        ev = herm_eig(h)
        resid = h @ ev.vectors - ev.vectors * ev.values
        assert np.abs(resid).max() <= 1e-10 * max(1.0, np.abs(ev.values).max())

    def test_values_sorted_and_real(self, rng):
        g = orc.rand_complex(rng, 5)
        ev = herm_eig((g + g.conj().T) / 2)
        assert ev.values.dtype == np.float64
        assert np.all(np.diff(ev.values) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig(SHIFT)

    def test_rejects_non_square(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.zeros((2, 3), dtype=complex))


class TestScopedGuards:
    """Guards run inside the memoized call: failures are never cached, and
    every distinct input (tol included) is checked."""

    def test_non_psd_raises_on_every_call(self):
        h = np.diag([1.0, -1.0]).astype(complex)
        with computation_scope():
            for _ in range(3):
                with pytest.raises(NotPositive):
                    positive_power(h, 0.5)

    def test_tighter_tol_is_checked_after_a_cached_call(self, rng):
        g = orc.rand_complex(rng, 3)
        h = (g + g.conj().T) / 2
        h[0, 1] += 1e-11  # Hermitian to 1e-8, not to 1e-14
        with computation_scope():
            herm_eig(h)
            with pytest.raises(NotHermitian):
                herm_eig(h, tol=1e-14)
            assert not is_positive(h, 1e-14)


class TestSharedResults:
    """Memoized eigensystems are shared across callers, so none can be edited."""

    def test_eigensystem_arrays_are_read_only(self, rng):
        g = orc.rand_complex(rng, 3)
        p = g.conj().T @ g
        for scope in (contextlib.nullcontext, computation_scope):
            with scope():
                for ev in (herm_eig(p), linalg._singular_system(g), linalg._psd_eig(p)):
                    assert not ev.values.flags.writeable
                    assert not ev.vectors.flags.writeable

    @pytest.mark.parametrize("scope", [contextlib.nullcontext, computation_scope])
    def test_powers_are_read_only(self, rng, scope):
        g = orc.rand_complex(rng, 3)
        p = g.conj().T @ g
        with scope():
            for out in (abs_power(g, 0.5), abs_power(g, 0), positive_power(p, 1.5),
                        positive_power(p, 1), positive_sqrt(p)):
                assert not out.flags.writeable
                with pytest.raises(ValueError):
                    out[0, 0] = 0.0


class TestScopedPowers:
    """Inside a scope one (matrix, exponent) is powered once; outside, every
    call computes.  Failures and bad exponents never reach the memo."""

    @pytest.fixture
    def spectral_calls(self, monkeypatch):
        calls = []
        real = linalg._spectral_power

        def counted(ev, p):
            calls.append(p)
            return real(ev, p)
        monkeypatch.setattr(linalg, "_spectral_power", counted)
        return calls

    @staticmethod
    def _memoized_fns():
        return {key[0] for key in _cache.memo()}

    def test_repeated_call_computes_once_in_scope(self, rng, spectral_calls):
        g = orc.rand_complex(rng, 3)
        p = g.conj().T @ g
        with computation_scope():
            first = abs_power(g, 1.5), positive_power(p, 0.5)
            again = abs_power(g.copy(), 1.5), positive_power(p.copy(), 0.5)
            assert abs_power(g, 1) is abs_power(g, 1.0)  # one key per exponent value
        assert spectral_calls == [1.5, 0.5, 1.0]
        assert again[0] is first[0] and again[1] is first[1]

    def test_every_call_computes_outside_a_scope(self, rng, spectral_calls):
        g = orc.rand_complex(rng, 3)
        p = g.conj().T @ g
        first = abs_power(g, 1.5), positive_power(p, 0.5)
        again = abs_power(g, 1.5), positive_power(p, 0.5)
        assert spectral_calls == [1.5, 0.5, 1.5, 0.5]
        for x, y in zip(first, again):
            assert x is not y and x.tobytes() == y.tobytes()

    def test_scoped_powers_equal_unscoped_bit_for_bit(self, rng):
        g = orc.rand_complex(rng, 4)
        p = g.conj().T @ g
        calls = [(abs_power, g, e) for e in (0, 0.5, 1, 2.5)]
        calls += [(positive_power, p, e) for e in (0, 0.5, 1, 2.5)]
        alone = [fn(m, e).tobytes() for fn, m, e in calls]
        with computation_scope():
            for _ in range(2):
                assert [fn(m, e).tobytes() for fn, m, e in calls] == alone

    def test_not_positive_is_never_cached(self, spectral_calls):
        h = np.diag([1.0, -1.0]).astype(complex)
        with computation_scope():
            for _ in range(2):
                with pytest.raises(NotPositive):
                    positive_power(h, 0.5)
            assert linalg._positive_power.__wrapped__ not in self._memoized_fns()
        assert spectral_calls == []

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), "x", [1.0]])
    def test_bad_exponents_are_never_cached(self, bad, spectral_calls):
        with computation_scope():
            for _ in range(2):
                with pytest.raises(ParamOutOfRange):
                    abs_power(I2, bad)
                with pytest.raises(ParamOutOfRange):
                    positive_power(I2, bad)
            assert not {linalg._abs_power.__wrapped__,
                        linalg._positive_power.__wrapped__} & self._memoized_fns()
        assert spectral_calls == []


class TestAbsPower:
    def test_antidiagonal_p1_is_identity(self):
        a = np.fliplr(np.eye(4)).astype(complex)
        assert np.allclose(abs_power(a, 1), np.eye(4), atol=1e-14)

    def test_diag_half(self):
        a = np.diag([4.0, 9.0]).astype(complex)
        assert np.allclose(abs_power(a, 0.5), np.diag([2.0, 3.0]), atol=1e-13)

    def test_shift_squared(self):
        # A*A for the shift is diag(0, 1), worked by hand
        assert np.allclose(abs_power(SHIFT, 2), np.diag([0.0, 1.0]), atol=1e-14)

    def test_support_projection(self):
        pr = abs_power(np.diag([0.0, 3.0]).astype(complex), 0)
        assert np.allclose(pr, np.diag([0.0, 1.0]), atol=1e-14)

    def test_power_additivity(self, rng):
        a = orc.rand_complex(rng, 4)
        lhs = abs_power(a, 1.2) @ abs_power(a, 0.8)
        rhs = abs_power(a, 2.0)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())

    def test_scaling_homogeneity(self, rng):
        a = orc.rand_complex(rng, 3)
        lhs = abs_power(2.0 * a, 1.5)
        rhs = 2.0 ** 1.5 * abs_power(a, 1.5)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())

    def test_matches_oracle(self, rng):
        a = orc.rand_complex(rng, 5)
        want = orc.herm_power(a.conj().T @ a, 0.75)
        got = abs_power(a, 1.5)
        assert np.abs(want - got).max() <= 1e-9 * max(1.0, np.abs(want).max())

    def test_rejects_negative_exponent(self):
        with pytest.raises(ParamOutOfRange):
            abs_power(I2, -1.0)

    def test_rejects_nan_exponent(self):
        with pytest.raises(ParamOutOfRange):
            abs_power(I2, float("nan"))


class TestPositivePowers:
    def test_sqrt_diag(self):
        assert np.allclose(
            positive_sqrt(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]), atol=1e-13
        )

    def test_sqrt_identity(self):
        assert np.allclose(positive_sqrt(np.eye(3, dtype=complex)), np.eye(3), atol=0)

    def test_sqrt_squares_back(self):
        h = np.array([[2, 1], [1, 2]], dtype=complex)
        r = positive_sqrt(h)
        assert np.abs(r @ r - h).max() <= 1e-8

    def test_sqrt_rejects_indefinite(self):
        with pytest.raises(NotPositive):
            positive_sqrt(np.diag([1.0, -1.0]).astype(complex))

    def test_power_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            positive_power(SHIFT, 0.5)

    def test_power_one_passthrough(self, rng):
        g = orc.rand_complex(rng, 4)
        p = g.conj().T @ g
        assert np.abs(positive_power(p, 1.0) - p).max() <= 1e-12 * np.abs(p).max()

    def test_tiny_negative_eigenvalue_clamped(self):
        h = np.diag([1.0, -1e-14]).astype(complex)
        r = positive_sqrt(h)
        assert np.allclose(r, np.diag([1.0, 0.0]), atol=1e-7)


class TestCartesianParts:
    def test_imaginary_identity(self):
        a = 1j * I2
        assert np.allclose(re_part(a), np.zeros((2, 2)), atol=0)
        assert np.allclose(im_part(a), I2, atol=0)

    def test_shift_parts(self):
        assert np.allclose(re_part(SHIFT), np.array([[0, 0.5], [0.5, 0]]), atol=0)
        assert np.allclose(im_part(SHIFT), np.array([[0, -0.5j], [0.5j, 0]]), atol=0)

    def test_hermitian_passthrough(self):
        h = np.array([[2, 1], [1, 2]], dtype=complex)
        assert np.allclose(re_part(h), h, atol=0)
        assert np.allclose(im_part(h), np.zeros((2, 2)), atol=0)

    @settings(max_examples=40, deadline=None)
    @given(_small_matrices())
    def test_reconstruction(self, a):
        re, im = re_part(a), im_part(a)
        assert is_hermitian(re) and is_hermitian(im)
        assert np.abs(re + 1j * im - a).max() <= 1e-12 * max(1.0, np.abs(a).max())


class TestNorms:
    def test_shift_norm(self):
        assert operator_norm(SHIFT) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_norm(self):
        assert operator_norm(np.diag([1.0, -3.0]).astype(complex)) == pytest.approx(3.0, abs=1e-12)

    def test_zero_norm(self):
        assert operator_norm(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_matches_svd_oracle(self, rng):
        a = orc.rand_complex(rng, 6)
        assert operator_norm(a) == pytest.approx(orc.op_norm(a), rel=1e-10)

    def test_spectral_radius_normal(self):
        assert spectral_radius(np.diag([1.0, 1j])) == pytest.approx(1.0, abs=1e-12)

    def test_spectral_radius_nilpotent(self):
        assert spectral_radius(SHIFT) <= 1e-12


class TestPositivity:
    def test_identity(self):
        assert is_positive(I2)

    def test_indefinite(self):
        assert not is_positive(np.diag([1.0, -1.0]).astype(complex))

    def test_gram_matrices(self, rng):
        for _ in range(5):
            y = orc.rand_complex(rng, 4)
            assert is_positive(y.conj().T @ y, tol=1e-10)

    def test_non_hermitian_is_not_positive(self):
        assert not is_positive(SHIFT)
