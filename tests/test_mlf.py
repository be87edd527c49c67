import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from fracvisco import _kernels
from fracvisco.mlf import (KernelParams, beta_double_primitive, beta_primitive,
                           kernel_beta, ml_e)
from oracles import ml_e_reference


class TestMlE:
    def test_exponential_case(self):
        assert ml_e(1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_value_at_zero(self):
        for alpha in (0.3, 0.5, 1.0):
            assert ml_e(alpha, 1.0, 0.0) == 1.0

    def test_half_order_identity(self):
        # E_{1/2,1}(-x) = exp(x^2) erfc(x)
        for x in (0.5, 2.0, 7.0):
            expected = math.exp(x * x) * erfc(x)
            assert ml_e(0.5, 1.0, x) == pytest.approx(expected, rel=1e-10)

    def test_scalar_bitwise_equal_to_batch(self):
        # every branch: series, spectral and asymptotic windows
        xs = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 39)])
        for alpha, b in ((0.5, 1.0), (2.0 / 3.0, 2.0 / 3.0), (0.9, 2.0)):
            batch = ml_e(alpha, b, xs.reshape(5, 8)).ravel()
            singles = [ml_e(alpha, b, x) for x in xs]
            assert all(type(v) is float for v in singles)
            assert type(ml_e(alpha, b, np.float64(xs[3]))) is float
            assert np.array_equal(batch, singles)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ml_e(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ml_e(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            ml_e(0.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            ml_e(0.5, 3.0, 1.0)

    def test_nan_rejected_inf_is_zero(self):
        for x in (np.nan, np.array([1.0, np.nan]), np.array([[np.nan]])):
            with pytest.raises(ValueError, match="nonnegative"):
                ml_e(0.5, 1.0, x)
        for alpha, b in ((0.5, 1.0), (2.0 / 3.0, 2.0 / 3.0), (0.9, 2.0)):
            assert ml_e(alpha, b, np.inf) == 0.0

    def test_huge_x_warns_nothing(self):
        # x**(1/alpha) overflows to inf for huge x; that only selects the
        # asymptotic branch and must not leak an overflow warning
        xs = np.concatenate([[0.0], np.geomspace(1e-300, 1.7e308, 400),
                             [np.inf]])
        for alpha in (0.1, 0.3, 0.5, 2.0 / 3.0, 0.9, 0.999, 1.0):
            for b in (1.0, 2.0, alpha):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    v = ml_e(alpha, b, xs)
                    tail = ml_e(alpha, b, xs[-2])
                assert np.all(np.isfinite(v)), (alpha, b)
                assert np.all(np.abs(v) <= v[0]), (alpha, b)
                assert v[-1] == 0.0 and tail == v[-2], (alpha, b)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 2.0 / 3.0, 0.9, 1.0])
    @pytest.mark.parametrize("bsel", ["one", "two", "alpha"])
    def test_accuracy_against_oracle(self, alpha, bsel):
        b = {"one": 1.0, "two": 2.0, "alpha": alpha}[bsel]
        xs = np.concatenate([[0.0], np.geomspace(1e-4, 50.0, 60)])
        got = ml_e(alpha, b, xs)
        for x, g in zip(xs, got):
            ref = ml_e_reference(alpha, b, x)
            assert g == pytest.approx(ref, rel=1e-10, abs=1e-300), (alpha, b, x)

    @pytest.mark.parametrize("alpha", [0.35, 0.5, 2.0 / 3.0, 0.85])
    def test_branch_seams_against_oracle(self, alpha):
        # windows meet at s = x**(1/alpha) = 5 and 40; both sides of each
        # seam must track the oracle, so the branch switch is seamless
        for s_seam in (5.0, 40.0):
            for s in (s_seam * 0.999, s_seam * 1.001):
                x = s ** alpha
                ref = ml_e_reference(alpha, 1.0, x)
                assert ml_e(alpha, 1.0, x) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("alpha,b", [(0.4, 1.0), (0.7, 0.7), (0.95, 2.0)])
    def test_positive_and_decreasing(self, alpha, b):
        xs = np.linspace(0.0, 50.0, 2000)
        v = ml_e(alpha, b, xs)
        assert np.all(v > 0.0)
        assert np.all(np.diff(v) <= 1e-15)

    def test_bounded_by_value_at_zero(self):
        from scipy.special import gamma as gamma_fn

        for alpha, b in ((0.5, 2.0), (0.8, 0.8), (0.3, 1.0)):
            xs = np.geomspace(1e-6, 50.0, 50)
            v = ml_e(alpha, b, xs)
            assert np.all(v <= 1.0 / gamma_fn(b) + 1e-14)

    @staticmethod
    def _masked_series(x, srat, st0):
        # the ascending series as first written: full-size working arrays,
        # boolean-mask indexing of the live points on every term
        t = np.full(x.shape, st0)
        acc = np.full(x.shape, st0)
        comp = np.zeros_like(x)
        prev = np.abs(t)
        active = np.ones(x.shape, dtype=bool)
        for k in range(srat.shape[0]):
            t[active] = t[active] * (-x[active]) * srat[k]
            y = t[active] - comp[active]
            tt = acc[active] + y
            comp[active] = (tt - acc[active]) - y
            acc[active] = tt
            a = np.abs(t[active])
            done = (a < 1e-18 * np.abs(acc[active])) & (a <= prev[active])
            prev[active] = a
            idx = np.where(active)[0]
            active[idx[done]] = False
            if not np.any(active):
                break
        return acc

    @pytest.mark.parametrize("n_points", [48, 80, 5000, 8193])
    def test_series_bitwise_equal_to_masked_loop(self, n_points, rng):
        for alpha in (0.3, 2.0 / 3.0, 0.999):
            for b in (1.0, 2.0, alpha):
                srat, st0 = _kernels.series_coefficients(alpha, b)
                xs = rng.uniform(0.0, _kernels.S_SERIES ** alpha, n_points)
                xs[:2] = (1e-300, _kernels.S_SERIES ** alpha)
                want = self._masked_series(xs, srat, st0)
                assert np.array_equal(_kernels._series(xs, srat, st0), want)

    @staticmethod
    def _masked_asymptotic(x, lenv, lmag, sgn):
        # the descending series as first written: full-size working arrays
        # and masks, the live points found anew on every term
        lx = np.log(x)
        acc = np.zeros_like(x)
        comp = np.zeros_like(x)
        prev_env = np.full(x.shape, 1e308)
        active = np.ones(x.shape, dtype=bool)
        for k in range(lenv.shape[0]):
            e = lenv[k] - (k + 1) * lx[active]
            idx = np.where(active)[0]
            stop = e >= prev_env[active]
            live = idx[~stop]
            active[idx[stop]] = False
            if live.size == 0:
                break
            el = lenv[k] - (k + 1) * lx[live]
            prev_env[live] = el
            lt = lmag[k] - (k + 1) * lx[live]
            t = np.where(lt > -700.0,
                         sgn[k] * np.exp(np.maximum(lt, -700.0)), 0.0)
            y = t - comp[live]
            tt = acc[live] + y
            comp[live] = (tt - acc[live]) - y
            acc[live] = tt
            conv = el < _kernels._LOG_STOP + np.log(np.abs(acc[live]) + 1e-300)
            active[live[conv]] = False
            if not np.any(active):
                break
        return acc

    @pytest.mark.parametrize("alpha", [0.02, 0.05, 0.25, 0.3, 0.5, 2.0 / 3.0,
                                       0.9, 0.99, 0.999])
    def test_asymptotic_bitwise_equal_to_masked_loop(self, alpha):
        # from the window's edge s = S_ASYM to the largest double and inf
        xs = np.concatenate([[_kernels.S_ASYM ** alpha, 1.7e308, np.inf],
                             np.geomspace(_kernels.S_ASYM ** alpha, 1.7e308,
                                          3000)])
        for b in (1.0, 2.0, alpha):
            coef = _kernels.asym_coefficients(alpha, b)
            want = self._masked_asymptotic(xs, *coef)
            assert np.array_equal(_kernels._asymptotic(xs, *coef), want), b

    @pytest.mark.parametrize("alpha", [_kernels.ALPHA_MIN, 0.05, 0.25,
                                       2.0 / 3.0, 0.999])
    def test_series_converges_in_its_window(self, alpha):
        xs = np.linspace(0.0, _kernels.S_SERIES, 2001)[1:] ** alpha
        for b in (1.0, 2.0, alpha):
            assert np.all(np.isfinite(ml_e(alpha, b, xs))), b

    @pytest.mark.parametrize("bsel", ["one", "two", "alpha"])
    def test_unconverged_series_raises(self, bsel):
        # alpha = 0.01 needs more terms than the table holds at x near 1;
        # its partial sums were 7e-3 (b = 1) to 23 (b = alpha) off
        b = {"one": 1.0, "two": 2.0, "alpha": 0.01}[bsel]
        with pytest.raises(ValueError, match="not converged in 1600 terms"):
            ml_e(0.01, b, 1.0)

    @pytest.mark.parametrize(
        "n_points", sorted({1, 1024, 1025, 5000, _kernels.SPECTRAL_BLOCK,
                            _kernels.SPECTRAL_BLOCK + 1}))
    def test_spectral_blocks_bitwise_equal_to_one_call(self, n_points):
        for alpha in (0.3, 2.0 / 3.0, 0.9):
            # interior of the spectral window, so every point takes it
            xs = np.linspace(_kernels.S_SERIES ** alpha,
                             _kernels.S_ASYM ** alpha, n_points + 2)[1:-1]
            for b in (1.0, 2.0, alpha):
                assert np.array_equal(_kernels.eval_ml_neg(alpha, b, xs),
                                      _kernels._spectral(alpha, b, xs))

    @pytest.mark.parametrize(
        "n_points", sorted({1, 2, 5000, _kernels.SERIES_BLOCK,
                            _kernels.SERIES_BLOCK + 1}))
    def test_series_blocks_bitwise_equal_to_one_call(self, n_points):
        # both branches that run in SERIES_BLOCK blocks: the interiors of
        # the series window (zero excluded) and of s in [S_ASYM, 10 S_ASYM]
        for alpha in (0.3, 2.0 / 3.0, 0.9):
            series = np.linspace(0.0, _kernels.S_SERIES ** alpha,
                                 n_points + 2)[1:-1]
            asym = np.linspace(_kernels.S_ASYM, 10.0 * _kernels.S_ASYM,
                               n_points + 2)[1:-1] ** alpha
            for b in (1.0, 2.0, alpha):
                srat, st0 = _kernels.series_coefficients(alpha, b)
                assert np.array_equal(_kernels.eval_ml_neg(alpha, b, series),
                                      _kernels._series(series, srat, st0))
                coef = _kernels.asym_coefficients(alpha, b)
                assert np.array_equal(_kernels.eval_ml_neg(alpha, b, asym),
                                      _kernels._asymptotic(asym, *coef))

    @staticmethod
    def _allocating_g_of(b, u, x):
        # the spectral integrand with a fresh (points x nodes) array for
        # every operation, np.where over both b = 2 branches
        if b == 1.0:
            return np.exp(-u)
        if b == 2.0:
            safe = np.where(u == 0.0, 1.0, u)
            return np.where(u > 1e-8, -np.expm1(-u) / safe, 1.0 - 0.5 * u)
        return u * np.exp(-u) / x

    @classmethod
    def _per_point_spectral(cls, alpha, b, x):
        # the spectral rule as first written: each point's own panels, from
        # v = 0 to its exp(-u) cut and, for b = 2, on to its algebraic cut
        K = _kernels
        ia = 1.0 / alpha
        w = math.sin(math.pi * alpha)
        vstar = -math.cos(math.pi * alpha)
        y0 = math.asinh(-vstar / w)
        v_exp = K.U_CUT ** alpha / x
        if b == 2.0:
            v_alg = (x ** (-ia) / (1.0 + ia) * 1e16) ** (alpha / (1.0 + alpha))
            v_top = np.maximum(np.maximum(v_exp, v_alg), vstar + 4.0 * w)
        else:
            v_top = v_exp
        ym = np.arcsinh((v_exp - vstar) / w)
        yt = np.arcsinh((v_top - vstar) / w)
        ym = np.minimum(ym, yt)
        hw = 0.5 * (ym - y0)
        mid = 0.5 * (ym + y0)
        y = mid[:, None] + hw[:, None] * K._DE_X[None, :]
        v = np.maximum(vstar + w * np.sinh(y), 0.0)
        u = (v * x[:, None]) ** ia
        g = cls._allocating_g_of(b, u, x[:, None])
        acc = hw * np.einsum("ij,j->i", g / np.cosh(y), K._DE_W)
        tail = yt > ym
        if np.any(tail):
            hw2 = 0.5 * (yt[tail] - ym[tail])
            mid2 = 0.5 * (yt[tail] + ym[tail])
            y2 = mid2[:, None] + hw2[:, None] * K._GL_X[None, :]
            v2 = vstar + w * np.sinh(y2)
            u2 = (v2 * x[tail][:, None]) ** ia
            g2 = cls._allocating_g_of(b, u2, x[tail][:, None])
            acc[tail] += hw2 * np.einsum("ij,j->i", g2 / np.cosh(y2), K._GL_W)
        return acc * (1.0 / (alpha * math.pi))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 2.0 / 3.0, 0.9, 0.99])
    def test_spectral_node_table_matches_per_point_panels(self, alpha):
        # one node table per (alpha, b), on the panels of the window's left
        # edge, against the per-point panels it replaced; they differ by
        # rounding, and at alpha = 0.99 by the per-point rule's own 2e-14
        # error against the oracle
        lo, hi = _kernels.S_SERIES ** alpha, _kernels.S_ASYM ** alpha
        edges = np.array([_kernels.S_SERIES * (1.0 + 1e-9),
                          _kernels.S_ASYM * (1.0 - 1e-9)]) ** alpha
        # a generator of its own: the session rng's later draws stay put
        xs = np.concatenate([edges, np.linspace(lo, hi, 300),
                             np.random.default_rng(11).uniform(lo, hi, 700)])
        rel = 1e-14 if alpha <= 0.9 else 5e-14
        for b in (1.0, 2.0, alpha):
            want = self._per_point_spectral(alpha, b, xs)
            got = _kernels._spectral(alpha, b, xs)
            assert np.max(np.abs(got - want) / want) <= rel, b
        # only b = 2 has the Gauss-Legendre tail
        n_de, n_gl = _kernels._DE_X.size, _kernels._GL_X.size
        a, _, k0 = _kernels.spectral_nodes(alpha, 2.0)
        assert a.size == n_de + n_gl
        assert _kernels.spectral_nodes(alpha, 1.0)[0].size == n_de
        assert _kernels.spectral_nodes(alpha, alpha)[0].size == n_de
        # the nodes next to v = 0, where the per-point rule takes its
        # 1 - u/2 patch of b = 2, are compared above; at alpha = 0.5 one is
        # clamped to v = 0, u = 0 exactly, and goes into k0
        assert np.any(a * _kernels.S_ASYM <= 1e-8)
        if alpha == 0.5:
            assert np.any(a == 0.0) and k0 > 0.0

    @pytest.mark.parametrize("alpha", [0.25, 0.999])
    @pytest.mark.parametrize("bsel", ["one", "two", "alpha"])
    def test_edge_orders_against_oracle(self, alpha, bsel):
        # the calibrated range is alpha in [0.25, 0.999] at 3e-11; both
        # ends, over all three windows and both seams
        b = {"one": 1.0, "two": 2.0, "alpha": alpha}[bsel]
        s = np.concatenate([np.geomspace(1e-3, 60.0, 12),
                            [5.0 * (1.0 + 1e-9), 5.0 * (1.0 - 1e-9),
                             40.0 * (1.0 + 1e-9), 40.0 * (1.0 - 1e-9)]])
        xs = s ** alpha
        got = ml_e(alpha, b, xs)
        for x, g in zip(xs, got):
            ref = ml_e_reference(alpha, b, x)
            assert g == pytest.approx(ref, rel=3e-11, abs=1e-300), (b, x)


class TestKernelQuantities:
    def test_gamma_zero_degenerates(self, rng):
        p = KernelParams(alpha=0.5, tau=2.0, gamma=0.0)
        t = rng.uniform(0.01, 10.0, 20)
        assert np.all(kernel_beta(p, t) == 0.0)
        assert np.all(beta_primitive(p, t) == 0.0)
        assert np.all(beta_double_primitive(p, t) == 0.0)

    def test_kernel_mass(self, kernel_sec6):
        # integral of beta over (0, inf) equals gamma; integrate to a large
        # cutoff and bound the tail through the primitive
        p = kernel_sec6
        val, _ = quad(lambda t: kernel_beta(p, t), 0.0, 200.0,
                      points=[1e-6, 0.1, 1.0], limit=400)
        tail = p.gamma - beta_primitive(p, 200.0)
        assert val + tail == pytest.approx(p.gamma, abs=1e-6)

    def test_small_t_scaling(self, kernel_sec6):
        t = np.geomspace(1e-8, 1e-5, 10)
        slope = np.polyfit(np.log(t), np.log(kernel_beta(kernel_sec6, t)), 1)[0]
        assert slope == pytest.approx(kernel_sec6.alpha - 1.0, abs=1e-3)

    def test_primitive_matches_quadrature(self, kernel_sec6):
        p = kernel_sec6
        val, _ = quad(lambda t: kernel_beta(p, t), 0.0, 1.0,
                      points=[1e-8, 1e-3], limit=400)
        assert beta_primitive(p, 1.0) == pytest.approx(val, abs=1e-8)

    def test_primitive_long_time_limit(self, kernel_sec6):
        assert beta_primitive(kernel_sec6, 1e6) == pytest.approx(0.5, abs=1e-3)

    def test_double_primitive_at_zero(self, kernel_sec6):
        assert beta_double_primitive(kernel_sec6, 0.0) == 0.0
        assert beta_primitive(kernel_sec6, 0.0) == 0.0

    def test_double_primitive_derivative_is_primitive(self, kernel_sec6):
        p = kernel_sec6
        for t in (0.3, 1.0, 4.0):
            h = 1e-5
            fd = (beta_double_primitive(p, t + h)
                  - beta_double_primitive(p, t - h)) / (2 * h)
            assert fd == pytest.approx(beta_primitive(p, t), abs=1e-9)

    def test_double_primitive_matches_cauchy_quadrature(self, kernel_sec6):
        # Cauchy's formula for repeated integration, C(t) = integral of
        # (t - s) beta(s) over (0, t): one quadrature over beta, which
        # touches neither B nor C
        p = kernel_sec6
        val, _ = quad(lambda s: (1.0 - s) * kernel_beta(p, s), 0.0, 1.0,
                      points=[1e-6], limit=200)
        assert beta_double_primitive(p, 1.0) == pytest.approx(val, abs=1e-8)

    def test_primitive_properties(self, kernel_sec6):
        p = kernel_sec6
        assert beta_primitive(p, 0.0) == 0.0
        t = np.linspace(0.0, 100.0, 1000)
        b = beta_primitive(p, t)
        assert np.all(np.diff(b) > 0.0)
        assert np.all(b < p.gamma)

    def test_double_primitive_bounds(self, kernel_sec6, rng):
        p = kernel_sec6
        t = np.sort(rng.uniform(0.0, 50.0, 100))
        c = beta_double_primitive(p, t)
        assert np.all(c >= 0.0)
        assert np.all(c <= p.gamma * t + 1e-15)
        # convex increasing: second differences of C on a uniform grid
        tu = np.linspace(0.0, 20.0, 200)
        cu = beta_double_primitive(p, tu)
        assert np.all(np.diff(cu) >= 0.0)
        assert np.all(np.diff(cu, 2) >= -1e-12)

    def test_kernel_decreasing(self, kernel_sec6):
        t = np.geomspace(1e-6, 100.0, 500)
        b = kernel_beta(kernel_sec6, t)
        assert np.all(np.diff(b) < 0.0)

    def test_kernel_domain_errors(self, kernel_sec6):
        with pytest.raises(ValueError):
            kernel_beta(kernel_sec6, 0.0)
        with pytest.raises(ValueError):
            kernel_beta(kernel_sec6, -1.0)
        with pytest.raises(ValueError):
            beta_primitive(kernel_sec6, -0.1)
        with pytest.raises(ValueError):
            beta_double_primitive(kernel_sec6, -0.1)

    def test_alpha_one_exponential_kernel(self):
        p = KernelParams(alpha=1.0, tau=2.0, gamma=0.3)
        t = np.linspace(0.01, 5.0, 50)
        expected = p.gamma / p.tau * np.exp(-t / p.tau)
        assert kernel_beta(p, t) == pytest.approx(expected, rel=1e-12)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            KernelParams(alpha=0.0, tau=1.0, gamma=0.5)
        with pytest.raises(ValueError):
            KernelParams(alpha=1.2, tau=1.0, gamma=0.5)
        with pytest.raises(ValueError):
            KernelParams(alpha=0.5, tau=0.0, gamma=0.5)
        with pytest.raises(ValueError):
            KernelParams(alpha=0.5, tau=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            KernelParams(alpha=0.5, tau=1.0, gamma=-0.1)
