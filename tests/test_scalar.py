import warnings

import numpy as np
import pytest

from fracvisco import mlf, scalar
from fracvisco.mlf import KernelParams
from fracvisco.scalar import (ScalarModel, convergence_study, scalar_dg0,
                              scalar_reference)
from fracvisco.weights import TimeGrid, build_weights


@pytest.fixture(scope="module")
def fractional_model(kernel_sec6):
    return ScalarModel(rho=1.0, kappa=1.0, kernel=kernel_sec6, u0=1.0, v0=0.0)


@pytest.fixture(scope="module")
def reference_t4(fractional_model):
    return scalar_reference(fractional_model, 4.0, k_ref=2.0 ** -12)


class TestScalarDg0:
    def test_zero_data(self, kernel_sec6):
        m = ScalarModel(rho=1.0, kappa=1.0, kernel=kernel_sec6)
        trace = scalar_dg0(m, build_weights(TimeGrid.uniform(2.0, 16),
                                             m.kernel))
        assert np.all(trace.u1 == 0.0)
        assert np.all(trace.u2 == 0.0)

    def test_elastic_amplitude_bounded(self):
        # gamma = 0, free vibration: |u| stays within the initial energy bound
        m = ScalarModel(rho=2.0, kappa=3.0, kernel=KernelParams(0.5, 1.0, 0.0),
                        u0=0.7, v0=0.2)
        trace = scalar_dg0(m, build_weights(TimeGrid.uniform(20.0, 400),
                                             m.kernel))
        bound = np.sqrt(m.u0 ** 2 + m.rho * m.v0 ** 2 / m.kappa) + 1e-12
        assert np.max(np.abs(trace.u1)) <= bound

    def test_validation(self, kernel_sec6):
        with pytest.raises(ValueError):
            ScalarModel(rho=0.0, kappa=1.0, kernel=kernel_sec6)
        with pytest.raises(ValueError):
            ScalarModel(rho=1.0, kappa=-1.0, kernel=kernel_sec6)

    @pytest.mark.parametrize("name", ["rho", "kappa", "load", "u0", "v0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, kernel_sec6, name, value):
        data = {"rho": 1.0, "kappa": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ScalarModel(kernel=kernel_sec6, **data)

    def test_constant_load_elastic(self):
        # gamma = 0, u(0) = v(0) = 0: u = (f/kappa) (1 - cos(t sqrt(kappa/rho)))
        m = ScalarModel(rho=1.0, kappa=4.0, kernel=KernelParams(0.5, 1.0, 0.0),
                        load=2.0)
        trace = scalar_dg0(m, build_weights(TimeGrid.uniform(2.0, 2 ** 12),
                                             m.kernel))
        exact = 0.5 * (1.0 - np.cos(2.0 * trace.times))
        assert np.max(np.abs(trace.u1 - exact)) <= 2e-3


class TestScalarReference:
    def test_elastic_cosine(self):
        m = ScalarModel(rho=1.0, kappa=4.0, kernel=KernelParams(0.5, 1.0, 0.0),
                        u0=1.0)
        ref = scalar_reference(m, 4.0, k_ref=2.0 ** -12)
        assert ref.at_final() == pytest.approx(np.cos(2.0 * 4.0), abs=1e-6)

    def test_zero_data(self, kernel_sec6):
        m = ScalarModel(rho=1.0, kappa=1.0, kernel=kernel_sec6)
        ref = scalar_reference(m, 2.0, k_ref=2.0 ** -10)
        assert np.all(ref.u == 0.0)

    def test_richardson_order_near_two(self, reference_t4):
        assert 1.8 <= reference_t4.richardson_order <= 2.2
        assert reference_t4.richardson_ok
        assert reference_t4.est_error <= 1e-6

    def test_single_startup_step(self, kernel_sec6):
        # the 2k_ref sweep must keep one graded startup step, not zero
        m = ScalarModel(rho=1.0, kappa=1.0, kernel=kernel_sec6, u0=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the self-check may still warn
            ref = scalar_reference(m, 0.5, k_ref=2.0 ** -7, startup_steps=1)
        assert np.all(np.isfinite(ref.u))
        assert np.isfinite(ref.est_error) and ref.est_error <= 1e-6
        assert np.isfinite(ref.richardson_order)

    @pytest.mark.parametrize("t_final,k_ref", [
        (1.0, 0.3), (1.0, 2.0), (1.0, 0.1)])
    def test_sweep_must_end_at_t_final(self, kernel_sec6, t_final, k_ref):
        # the uniform tails would end at 1.1, at 0.5 and, for the 2k and 4k
        # sweeps of k_ref = 0.1, at 0.9
        m = ScalarModel(rho=1.0, kappa=1.0, kernel=kernel_sec6, u0=1.0)
        with pytest.raises(ValueError, match="does not divide"):
            scalar_reference(m, t_final, k_ref)

    @pytest.mark.parametrize("t_final,k_ref", [
        (1.0, 0.0), (1.0, np.nan), (1.0, -0.1), (np.inf, 0.1), (0.0, 0.1),
        (np.nan, 0.1)])
    def test_step_and_horizon_positive_and_finite(self, kernel_sec6, t_final,
                                                 k_ref):
        m = ScalarModel(rho=1.0, kappa=1.0, kernel=kernel_sec6, u0=1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            scalar_reference(m, t_final, k_ref)

    def test_subnormal_step_is_a_value_error(self, kernel_sec6):
        # (t_final - t_g) / k_ref overflows: the step count says so
        m = ScalarModel(rho=1.0, kappa=1.0, kernel=kernel_sec6, u0=1.0)
        with pytest.raises(ValueError, match="not a finite count"):
            scalar_reference(m, 1.0, 5e-324)

    @pytest.mark.parametrize("t_final,k_ref", [
        (3.0, 0.003), (4.0, 1.0 / 96), (4.0, 0.1 / 32)])
    def test_rounded_steps_accepted(self, kernel_sec6, t_final, k_ref):
        # steps that divide t_final only up to rounding still end there
        m = ScalarModel(rho=1.0, kappa=1.0, kernel=kernel_sec6, u0=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the self-check may still warn
            ref = scalar_reference(m, t_final, k_ref)
        assert ref.times[-1] == pytest.approx(t_final, rel=1e-9)

    def test_row_weights_match_per_pair(self, fractional_model, monkeypatch):
        # every call takes B and C once per node and differences neighbours;
        # the same sweep with the two-endpoint formula, one interval at a
        # time, must give the same bits
        want = scalar_reference(fractional_model, 2.0, k_ref=2.0 ** -8,
                                m_g=24)

        def per_interval(p, lags, h):
            h = np.broadcast_to(h, np.broadcast_shapes(lags[:-1].shape,
                                                       np.shape(h)))
            w_lo, w_hi = np.empty(h.shape), np.empty(h.shape)
            for i in range(h.shape[0]):
                a, b = lags[i + 1], lags[i]
                ba, bb = mlf.beta_primitive(p, a), mlf.beta_primitive(p, b)
                ca = mlf.beta_double_primitive(p, a)
                cb = mlf.beta_double_primitive(p, b)
                w_lo[i] = (h[i] * bb - (cb - ca)) / h[i]
                w_hi[i] = ((cb - ca) - h[i] * ba) / h[i]
            return w_lo, w_hi

        monkeypatch.setattr(scalar, "_pl_weights", per_interval)
        got = scalar_reference(fractional_model, 2.0, k_ref=2.0 ** -8,
                               m_g=24)
        assert np.array_equal(got.u, want.u)
        assert np.array_equal(got.v, want.v)

    @staticmethod
    def _count_primitive_points(monkeypatch):
        points = {}
        for name in ("beta_primitive", "beta_double_primitive"):
            def counted(p, t, _fn=getattr(scalar, name), _name=name):
                points[_name] = points.get(_name, 0) + np.size(t)
                return _fn(p, t)
            monkeypatch.setattr(scalar, name, counted)
        return points

    @pytest.mark.parametrize("m_g,startup_steps", [(24, 8), (64, 32),
                                                   (8, 1)])
    def test_primitives_once_per_node(self, fractional_model, monkeypatch,
                                      m_g, startup_steps):
        # one sweep: m + 2 nodes per graded step, the M - m_g + 1 uniform
        # lags, and the (m_g + 1) x (M - m_g) frozen startup block
        points = self._count_primitive_points(monkeypatch)
        nodes, _, _ = scalar._reference_sweep(fractional_model, 1.0,
                                              2.0 ** -8, m_g, startup_steps)
        big_m = nodes.size - 1
        want = (sum(m + 2 for m in range(m_g)) + (big_m - m_g + 1)
                + (m_g + 1) * (big_m - m_g))
        assert points == {"beta_primitive": want,
                          "beta_double_primitive": want}

    def test_elastic_limit_evaluates_no_primitive(self, monkeypatch):
        points = self._count_primitive_points(monkeypatch)
        m = ScalarModel(rho=1.0, kappa=1.0, u0=1.0,
                        kernel=KernelParams(alpha=0.5, tau=1.0, gamma=0.0))
        ref = scalar_reference(m, 1.0, k_ref=2.0 ** -8)
        assert points == {}
        assert np.all(np.isfinite(ref.u))

    def test_forced_problem_runs(self, kernel_sec6):
        m = ScalarModel(rho=1.0, kappa=2.0, kernel=kernel_sec6, load=0.5)
        ref = scalar_reference(m, 2.0, k_ref=2.0 ** -11)
        assert ref.richardson_ok

    def test_constant_load_elastic(self):
        m = ScalarModel(rho=1.0, kappa=4.0, kernel=KernelParams(0.5, 1.0, 0.0),
                        load=2.0, u0=0.1)
        # u = f/kappa + (u0 - f/kappa) cos(2t)
        ref = scalar_reference(m, 4.0, k_ref=2.0 ** -12)
        exact = 0.5 - 0.4 * np.cos(2.0 * 4.0)
        assert ref.at_final() == pytest.approx(exact, abs=1e-6)


class TestConvergence:
    def test_fractional_first_order(self, fractional_model, reference_t4):
        study = convergence_study(fractional_model,
                                  [2.0 ** -e for e in range(3, 8)], 4.0,
                                  reference=reference_t4)
        orders = study.orders()[1:]
        assert all(0.8 <= o <= 1.2 for o in orders), orders
        errors = [r.error for r in study.rows]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_elastic_first_order(self):
        m = ScalarModel(rho=1.0, kappa=1.0, kernel=KernelParams(0.5, 1.0, 0.0),
                        u0=1.0)
        study = convergence_study(m, [2.0 ** -e for e in range(3, 8)], 4.0)
        orders = study.orders()[2:]
        assert all(0.85 <= o <= 1.15 for o in orders), orders

    def test_zero_data_flagged(self, kernel_sec6):
        m = ScalarModel(rho=1.0, kappa=1.0, kernel=kernel_sec6)
        study = convergence_study(m, [0.25, 0.125], 2.0)
        assert study.degenerate
        assert all(np.isnan(o) for o in study.orders())

    def test_k_list_must_decrease(self, fractional_model):
        with pytest.raises(ValueError):
            convergence_study(fractional_model, [0.1, 0.2], 2.0)

    def test_k_must_divide_t_final(self, fractional_model):
        with pytest.raises(ValueError, match="does not divide"):
            convergence_study(fractional_model, [0.3, 0.1], 1.0)
