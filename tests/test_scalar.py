import warnings

import numpy as np
import pytest

from fracvisco import scalar
from fracvisco.mlf import KernelParams
from fracvisco.scalar import (ScalarModel, convergence_study, scalar_dg0,
                              scalar_reference, self_convergence_study)
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

    def test_row_weights_match_per_pair(self, fractional_model, monkeypatch):
        # the graded startup takes each row's product weights, and the frozen
        # startup block all of its weights, in one call; the same sweep with
        # the weights computed one interval at a time
        want = scalar_reference(fractional_model, 2.0, k_ref=2.0 ** -8,
                                m_g=24)
        batched = scalar._pl_weights

        def per_pair(p, target, s_lo, s_hi):
            shape = np.broadcast_shapes(np.shape(target), np.shape(s_lo))
            pairs = [batched(p, target, lo, hi) for lo, hi in zip(s_lo, s_hi)]
            return [np.reshape(w, shape) for w in zip(*pairs)]

        monkeypatch.setattr(scalar, "_pl_weights", per_pair)
        got = scalar_reference(fractional_model, 2.0, k_ref=2.0 ** -8,
                               m_g=24)
        scale = np.max(np.abs(want.u))
        assert np.max(np.abs(got.u - want.u)) <= 1e-13 * scale

    def test_forced_problem_runs(self, kernel_sec6):
        m = ScalarModel(rho=1.0, kappa=2.0, kernel=kernel_sec6,
                        forcing=lambda t: np.sin(np.asarray(t)), u0=0.0)
        ref = scalar_reference(m, 2.0, k_ref=2.0 ** -11)
        assert ref.richardson_ok


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
        with pytest.raises(ValueError, match="does not divide"):
            self_convergence_study(fractional_model, [0.25, 0.125], 1.0,
                                   k_fine=0.03)

    def test_self_convergence_mode(self, fractional_model):
        study = self_convergence_study(fractional_model,
                                       [2.0 ** -e for e in range(2, 6)], 4.0,
                                       k_fine=2.0 ** -9)
        orders = study.orders()[1:]
        assert all(0.7 <= o <= 1.3 for o in orders), orders

    def test_csv_shape(self, fractional_model, reference_t4):
        study = convergence_study(fractional_model, [0.25, 0.125], 4.0,
                                  reference=reference_t4)
        lines = study.csv().strip().splitlines()
        assert lines[0] == "k,error,order"
        assert len(lines) == 3
