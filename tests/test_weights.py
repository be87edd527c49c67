import tracemalloc

import numpy as np
import pytest

from fracvisco.mlf import KernelParams
from fracvisco.weights import (TimeGrid, WeightTable, build_weights,
                               dividing_step_count, step_count,
                               verify_sign_structure)
from oracles import omega_by_quadrature


def random_nonuniform_grid(rng, n=20, t_final=2.0, ratio=4.0):
    k = rng.uniform(1.0, ratio, n)
    k *= t_final / k.sum()
    return TimeGrid(np.concatenate([[0.0], np.cumsum(k)]))


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.2, 0.2]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0]))

    def test_uniform(self):
        g = TimeGrid.uniform(2.0, 8)
        assert g.n_steps == 8
        assert g.is_uniform
        assert g.t_final == pytest.approx(2.0)
        assert np.all(g.steps == pytest.approx(0.25))

    def test_uniform_needs_whole_step_count(self):
        # 2.5 steps used to give the nodes 0, 0.4, 0.8, 1.2, past t_final
        for n_steps in (2.5, 0, -3, np.nan, np.inf):
            with pytest.raises(ValueError, match="whole number"):
                TimeGrid.uniform(1.0, n_steps)
        assert np.array_equal(TimeGrid.uniform(1.0, 4.0).nodes,
                              TimeGrid.uniform(1.0, 4).nodes)

    @pytest.mark.parametrize("t_final", [np.nan, np.inf, 0.0, -1.0])
    def test_uniform_needs_positive_finite_t_final(self, t_final):
        with pytest.raises(ValueError, match="positive and finite"):
            TimeGrid.uniform(t_final, 4)

    def test_with_step(self):
        g = TimeGrid.with_step(2.0, 0.25)
        assert np.array_equal(g.nodes, TimeGrid.uniform(2.0, 8).nodes)
        # 1e-9 relative slack, as a decimal step written in a file needs
        assert TimeGrid.with_step(1.0, 0.1 * (1.0 + 1e-10)).n_steps == 10
        for t_final, k in ((1.0, 0.3), (1.0, 3.0), (1.0, 0.1 * (1 + 1e-8))):
            with pytest.raises(ValueError, match="does not divide"):
                TimeGrid.with_step(t_final, k)

    @pytest.mark.parametrize("t_final,k", [
        (np.nan, 0.1), (np.inf, 0.1), (0.0, 0.1), (-1.0, 0.1),
        (1.0, np.nan), (1.0, np.inf), (1.0, 0.0), (1.0, -0.25)])
    def test_with_step_needs_positive_finite_data(self, t_final, k):
        with pytest.raises(ValueError, match="positive and finite"):
            TimeGrid.with_step(t_final, k)

    def test_step_count_must_be_finite(self):
        # 1 / 5e-324 overflows to inf, which round() cannot take
        for count in (lambda: step_count(1.0, 5e-324),
                      lambda: dividing_step_count(1.0, 5e-324),
                      lambda: TimeGrid.with_step(1.0, 5e-324)):
            with pytest.raises(ValueError, match="not a finite count"):
                count()


class TestBuildWeights:
    def test_gamma_zero(self, rng):
        grid = random_nonuniform_grid(rng)
        table = build_weights(grid, KernelParams(0.5, 1.0, 0.0))
        assert np.all(table.omega == 0.0)
        assert np.all(table.eta_bar == 1.0)

    def test_row_sum_relation_exact(self, kernel_sec6, rng):
        grid = random_nonuniform_grid(rng)
        table = build_weights(grid, kernel_sec6)
        k = grid.steps
        lhs = table.omega.sum(axis=1)
        rhs = k * (1.0 - table.eta_bar[1:])
        assert np.max(np.abs(lhs - rhs)) <= 4 * np.finfo(float).eps * np.max(k)

    def test_eta_range_and_diagonal_margin(self, kernel_sec6, rng):
        grid = random_nonuniform_grid(rng)
        table = build_weights(grid, kernel_sec6)
        assert table.eta_bar[0] == 1.0
        assert np.all(table.eta_bar[1:] > 1.0 - kernel_sec6.gamma)
        assert np.all(table.eta_bar[1:] < 1.0)
        k = grid.steps
        diag = np.diag(table.omega)
        assert np.all(k - diag >= (1.0 - kernel_sec6.gamma) * k)

    def test_nonnegative_and_row_bound(self, kernel_sec6, rng):
        grid = random_nonuniform_grid(rng)
        table = build_weights(grid, kernel_sec6)
        assert np.all(table.omega >= 0.0)
        assert np.all(table.omega.sum(axis=1) <= kernel_sec6.gamma * grid.steps)

    def test_uniform_path_matches_per_entry_formula(self, kernel_sec6):
        # the uniform-grid fast path reuses lags; check it against the
        # direct four-term difference of the double primitive
        from fracvisco.mlf import beta_double_primitive as C

        nodes = np.arange(9) * 0.25
        uniform = build_weights(TimeGrid(nodes), kernel_sec6)
        for n in range(1, 9):
            for j in range(1, n + 1):
                tn, tn1 = nodes[n], nodes[n - 1]
                tj, tj1 = nodes[j], nodes[j - 1]
                if j < n:
                    expect = (C(kernel_sec6, tn - tj1) - C(kernel_sec6, tn - tj)
                              - C(kernel_sec6, tn1 - tj1)
                              + C(kernel_sec6, tn1 - tj))
                else:
                    expect = C(kernel_sec6, tn - tn1)
                assert uniform.omega[n - 1, j - 1] == pytest.approx(
                    expect, rel=1e-12, abs=1e-16)

    def test_uniform_build_memory(self, kernel_sec6):
        # N = 8192 Mittag-Leffler primitives: unblocked, the spectral
        # branch's (points x 200) quadrature arrays alone took over 100 MB
        grid = TimeGrid.uniform(40.0, 8192)
        tracemalloc.start()
        try:
            build_weights(grid, kernel_sec6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    # ids name the closed-form weights, as these case ids always have
    @pytest.mark.parametrize("n", [1, 2, 7, 300],
                             ids=lambda n: f"closed_form-{n}")
    def test_uniform_toeplitz_view_equals_dense_table(self, kernel_sec6, n):
        # the dense N x N construction the lag view replaced, row by row
        from fracvisco.mlf import beta_double_primitive

        grid = TimeGrid.uniform(2.0, n)
        h = grid.steps[0]
        dense = np.zeros((n, n))
        cl = beta_double_primitive(kernel_sec6, np.arange(n + 1) * h)
        for i in range(n):
            d = i - np.arange(i)
            dense[i, i] = cl[1]
            dense[i, :i] = cl[d + 1] - 2.0 * cl[d] + cl[d - 1]
        table = build_weights(grid, kernel_sec6)
        assert isinstance(table.omega, np.ndarray)
        assert np.array_equal(table.omega, dense)
        assert np.array_equal(table.lags, dense[:, 0])
        assert not table.omega.flags.writeable
        with pytest.raises(ValueError):
            table.omega[0, 0] = 1.0
        lhs = table.omega.sum(axis=1)
        rhs = grid.steps * (1.0 - table.eta_bar[1:])
        assert np.max(np.abs(lhs - rhs)) <= 64 * np.finfo(float).eps * h

    def test_nonuniform_table_is_dense(self, kernel_sec6, rng):
        table = build_weights(random_nonuniform_grid(rng), kernel_sec6)
        assert table.lags is None
        assert table.omega.flags.owndata

    def test_closed_form_matches_quadrature(self, kernel_sec6, rng):
        grid = random_nonuniform_grid(rng, n=6, t_final=1.2)
        table = build_weights(grid, kernel_sec6)
        for n in range(1, 7):
            for j in range(1, n + 1):
                q = omega_by_quadrature(grid, kernel_sec6, n, j)
                assert table.omega[n - 1, j - 1] == pytest.approx(q, abs=1e-8)

    def test_omega_decreasing_in_n_uniform(self, kernel_sec6):
        grid = TimeGrid.uniform(2.0, 16)
        table = build_weights(grid, kernel_sec6)
        for j in range(1, 15):
            col = table.omega[j:, j - 1]  # entries n = j+1..N at fixed j
            assert np.all(np.diff(col) < 0.0)


class TestSignStructure:
    def test_uniform_grid_all_negative(self, kernel_sec6):
        grid = TimeGrid.uniform(2.0, 16)
        rep = verify_sign_structure(build_weights(grid, kernel_sec6))
        assert rep.ok and not rep.degenerate
        assert rep.eta_violations == [] and rep.beta_violations == []

    def test_random_nonuniform_all_negative(self, kernel_sec6, rng):
        for _ in range(3):
            grid = random_nonuniform_grid(rng, n=15, ratio=4.0)
            rep = verify_sign_structure(build_weights(grid, kernel_sec6))
            assert rep.ok, rep.summary()

    def test_gamma_zero_degenerate(self):
        grid = TimeGrid.uniform(1.0, 8)
        rep = verify_sign_structure(
            build_weights(grid, KernelParams(0.5, 1.0, 0.0)))
        assert rep.degenerate
        assert rep.ok
        assert "degenerate" in rep.summary()

    def test_injected_violations_match_per_entry_loop(self, kernel_sec6):
        # a nonuniform grid, then a uniform one, each with noise injected
        # into a dense copy of its table
        rng = np.random.default_rng(11)
        for grid in (random_nonuniform_grid(rng, n=40, ratio=4.0),
                     TimeGrid.uniform(2.0, 40)):
            table = build_weights(grid, kernel_sec6)
            omega = table.omega * (1.0 + 0.3 * rng.standard_normal((40, 40)))
            eta_bar = table.eta_bar + 0.01 * rng.standard_normal(41)
            bad = WeightTable(omega=omega, eta_bar=eta_bar, grid=grid,
                              params=kernel_sec6)
            k = grid.steps
            bmat = omega / np.outer(k, k)
            want_eta = []
            for n in range(1, 41):
                v = (eta_bar[n] - eta_bar[n - 1]) / k[n - 1]
                if not v < 0.0:
                    want_eta.append((n, float(v)))
            want_beta = []
            for n in range(2, 41):
                for j in range(1, n - 1):
                    v = (bmat[n - 1, j - 1] - bmat[n - 2, j - 1]) / k[n - 1]
                    if not v < 0.0:
                        want_beta.append((n, j, float(v)))
            rep = verify_sign_structure(bad)
            assert want_eta and want_beta
            assert rep.eta_violations == want_eta
            assert rep.beta_violations == want_beta
            assert not rep.ok

    def test_uniform_check_holds_no_square(self, kernel_sec6):
        # N = 4096: an N x N array of cell means alone would take 134 MB
        table = build_weights(TimeGrid.uniform(4.0, 4096), kernel_sec6)
        tracemalloc.start()
        try:
            rep = verify_sign_structure(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert rep.ok and not rep.degenerate
