import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as orc
from berezin import PointOutOfDomain, bergman, default_grid, finite, fock, hardy, kernel_matrix, normalized_kernel


def _basis_value(model, j, lam):
    # phi_j(lam), the j-th coordinate function of each model
    if model.kind == "hardy":
        return lam ** j
    if model.kind == "bergman":
        return math.sqrt(j + 1) * lam ** j
    return lam ** j / math.sqrt(math.factorial(j))


class TestFactories:
    def test_str_forms(self):
        assert str(finite(4)) == "finite:4"
        assert str(hardy()) == "hardy:15:0.95"
        assert str(fock()) == "fock:15:3"

    def test_dimension(self):
        assert finite(3).dimension == 3
        assert hardy(8, 0.9).dimension == 9
        assert bergman().dimension == 16

    def test_bad_params(self):
        with pytest.raises(ValueError):
            finite(0)
        with pytest.raises(ValueError):
            hardy(15, 1.0)
        with pytest.raises(ValueError):
            fock(15, 0.0)

    @pytest.mark.parametrize("factory, degree, good, bad", [
        (fock, 0, 1e154, 1e155),  # R^2 overflows
        (fock, 0, 1e154, math.inf),
        (hardy, 3, 2e-154, 1e-154),  # R^2 underflows
        (bergman, 15, 2e-154, 1e-300),
        (fock, 1, 1e73, 1e74),  # the edge jet's squared norms pass _EDGE_LIMIT
        (fock, 3, 1e24, 1e25),
        (fock, 15, 1e5, 3e5),
    ])
    def test_radius_bounds(self, factory, degree, good, bad):
        assert factory(degree, good).radius == good
        with pytest.raises(ValueError, match="domain radius"):
            factory(degree, bad)

    def test_fock_degree_beyond_float_factorials(self):
        assert fock(170, 1.0).dimension == 171
        with pytest.raises(ValueError, match="too large for fock"):
            fock(171, 1.0)


class TestFiniteKernels:
    def test_standard_basis(self):
        m = finite(3)
        for i in range(1, 4):
            k = normalized_kernel(m, i)
            want = np.zeros(3, dtype=complex)
            want[i - 1] = 1.0
            assert np.array_equal(k, want)

    def test_out_of_range(self):
        m = finite(3)
        for bad in (0, 4, -1):
            with pytest.raises(PointOutOfDomain):
                normalized_kernel(m, bad)

    def test_non_integer_point(self):
        with pytest.raises(PointOutOfDomain):
            normalized_kernel(finite(3), 1.5)

    def test_grid_is_index_set(self):
        for level in (0, 1, 2):
            g = default_grid(finite(3), level=level)
            assert list(g.points) == [1, 2, 3]


class TestContinuousKernels:
    def test_hardy_at_origin(self):
        k = normalized_kernel(hardy(), 0.0)
        want = np.zeros(16, dtype=complex)
        want[0] = 1.0
        assert np.allclose(k, want, atol=0)

    def test_hardy_degree2_at_half(self):
        # coordinates (1, 1/2, 1/4); squared norm 1 + 1/4 + 1/16 = 21/16
        k = normalized_kernel(hardy(2, 0.95), 0.5)
        want = np.array([1.0, 0.5, 0.25]) / math.sqrt(21.0 / 16.0)
        assert np.allclose(k, want, atol=1e-15)

    def test_conjugate_coordinates(self):
        lam = 0.3 + 0.4j
        k = normalized_kernel(hardy(4, 0.95), lam)
        ratio = k[1] / k[0]
        assert ratio == pytest.approx(np.conj(lam), abs=1e-15)

    @pytest.mark.parametrize("model", [hardy(6, 0.9), bergman(6, 0.9), fock(6, 2.0)])
    def test_matches_oracle(self, model, rng):
        for _ in range(5):
            lam = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * model.radius / 2
            got = normalized_kernel(model, lam)
            want = orc.kernel_vec(model, lam)
            assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("model", [hardy(5, 0.9), bergman(5, 0.9), fock(5, 2.0)])
    def test_reproducing_property(self, model, rng):
        # <f, k_lam> recovers the function value for any coefficient vector
        dim = model.dimension
        c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        lam = 0.35 - 0.2j
        khat = normalized_kernel(model, lam)
        norm_k = math.sqrt(sum(abs(_basis_value(model, j, lam)) ** 2 for j in range(dim)))
        f_lam = sum(c[j] * _basis_value(model, j, lam) for j in range(dim))
        assert np.vdot(khat, c) * norm_k == pytest.approx(f_lam, abs=1e-12 * max(1, abs(f_lam)))

    def test_outside_domain(self):
        with pytest.raises(PointOutOfDomain):
            normalized_kernel(hardy(), 1.0)
        with pytest.raises(PointOutOfDomain):
            normalized_kernel(fock(), 3.5)

    def test_garbage_point(self):
        with pytest.raises(PointOutOfDomain):
            normalized_kernel(hardy(), "nope")

    @settings(max_examples=30, deadline=None)
    @given(st.complex_numbers(max_magnitude=0.94, allow_nan=False, allow_infinity=False))
    def test_unit_norm(self, lam):
        k = normalized_kernel(hardy(8, 0.95), lam)
        assert np.linalg.norm(k) == pytest.approx(1.0, abs=1e-12)


class TestGrids:
    def test_level_counts(self):
        m = hardy()
        assert len(default_grid(m, level=0).points) == 16 * 8 + 1
        assert len(default_grid(m, level=1).points) == 32 * 16 + 1
        assert len(default_grid(m, level=2).points) == 64 * 32 + 1

    def test_nesting_is_exact(self):
        m = hardy()
        lvl0 = set(map(complex, default_grid(m, level=0).points))
        lvl1 = set(map(complex, default_grid(m, level=1).points))
        assert lvl0 <= lvl1

    def test_origin_included_and_radius_reached(self):
        g = default_grid(fock(4, 2.0), level=0)
        pts = np.asarray(g.points, dtype=complex)
        assert pts[0] == 0.0
        assert np.abs(pts).max() == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("model", [hardy(), fock(4, 2.0)])
    def test_matches_point_loop(self, model):
        # the documented mesh, built point by point: origin, then radius-major
        for level in (0, 1):
            n_ang, n_rad = 16 * 2**level, 8 * 2**level
            angles = 2.0 * np.pi * np.arange(n_ang) / n_ang
            want = [0j]
            for k in range(1, n_rad + 1):
                r = model.radius * (k / n_rad)
                want += [complex(r * np.cos(th), r * np.sin(th)) for th in angles]
            got = default_grid(model, level=level).points
            assert all(type(p) is complex for p in got)
            assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))

    def test_all_points_inside(self):
        g = default_grid(hardy(), level=1)
        assert max(abs(complex(p)) for p in g.points) <= 0.95 + 1e-15


class TestKernelMatrix:
    def test_columns_are_kernels(self):
        pts = [0.1, 0.2 + 0.3j, -0.5j]
        for m in (hardy(4, 0.9), bergman(4, 0.9), fock(4, 2.0)):
            km = kernel_matrix(m, pts)
            assert km.shape == (5, 3)
            assert not km.flags.writeable
            for j, p in enumerate(pts):
                assert np.array_equal(km[:, j], normalized_kernel(m, p))

    @pytest.mark.parametrize("m", [hardy(6, 0.9), bergman(6, 0.9), fock(6, 2.0)])
    def test_bit_equal_to_documented_formula(self, m, rng):
        # coordinates c_j conj(lam)^j with c_j = 1, sqrt(j+1) (bergman) or
        # 1/sqrt(j!) (fock), over the square root of their summed |.|^2
        j = np.arange(m.dimension)
        c = {"hardy": np.ones(m.dimension), "bergman": np.sqrt(j + 1.0),
             "fock": 1.0 / np.array([math.sqrt(math.factorial(int(k))) for k in j])}[m.kind]
        pts = [0.0, m.radius, -0.3j * m.radius] + [
            complex(*rng.uniform(-0.7, 0.7, 2)) * m.radius for _ in range(20)
        ]
        km = kernel_matrix(m, pts)
        for col, p in enumerate(pts):
            raw = np.conj(np.complex128(p)) ** j * c
            want = raw / np.sqrt(np.sum(raw.real**2 + raw.imag**2))
            assert np.array_equal(km[:, col], want)
            assert np.array_equal(normalized_kernel(m, p), want)
            # the older raw / np.linalg.norm(raw), with raw divided by
            # sqrt(j!) for fock, agrees to a few ulp in every coordinate
            old = np.conj(np.complex128(p)) ** j
            old = old / np.array([math.sqrt(math.factorial(int(k))) for k in j]) \
                if m.kind == "fock" else c * old
            old = (old / np.linalg.norm(old)).view(float)
            assert np.all(np.abs(want.view(float) - old) <= 4 * np.spacing(np.abs(old)))

    @pytest.mark.parametrize("m", [hardy(15, 0.95), bergman(15, 0.95), fock(15, 3.0)], ids=str)
    def test_columns_do_not_depend_on_the_batch(self, m):
        # each column of a full level-1 grid equals the one-point kernel bit
        # for bit, and so does every column of a smaller batch
        pts = default_grid(m, 1).points
        km = kernel_matrix(m, pts)
        for col, p in enumerate(pts):
            assert np.array_equal(km[:, col], normalized_kernel(m, p))
        for start, stop in ((0, 1), (5, 13), (100, 357)):
            assert np.array_equal(kernel_matrix(m, pts[start:stop]), km[:, start:stop])

    def test_finite_kernel_matrix_is_identity(self):
        km = kernel_matrix(finite(3), [1, 2, 3])
        assert np.array_equal(km, np.eye(3, dtype=complex))
