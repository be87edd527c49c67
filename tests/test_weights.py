import tracemalloc

import numpy as np
import pytest

from fracvisco.mlf import KernelParams
from fracvisco.weights import (TimeGrid, WeightTable, build_weights,
                               omega_by_quadrature, verify_sign_structure)


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
        for mode in ("closed_form", "midpoint"):
            table = build_weights(grid, kernel_sec6, mode=mode)
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

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    @pytest.mark.parametrize("mode", ["closed_form", "midpoint"])
    def test_uniform_toeplitz_view_equals_dense_table(self, kernel_sec6, n,
                                                      mode):
        # the dense N x N construction the lag view replaced, row by row
        from fracvisco.mlf import beta_double_primitive, beta_primitive

        grid = TimeGrid.uniform(2.0, n)
        h = grid.steps[0]
        dense = np.zeros((n, n))
        if mode == "closed_form":
            cl = beta_double_primitive(kernel_sec6, np.arange(n + 1) * h)
            for i in range(n):
                d = i - np.arange(i)
                dense[i, i] = cl[1]
                dense[i, :i] = cl[d + 1] - 2.0 * cl[d] + cl[d - 1]
        else:
            bl = beta_primitive(kernel_sec6, (np.arange(n) + 0.5) * h)
            for i in range(n):
                d = i - np.arange(i)
                dense[i, i] = h * bl[0]
                dense[i, :i] = h * (bl[d] - bl[d - 1])
        table = build_weights(grid, kernel_sec6, mode=mode)
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

    def test_midpoint_matches_quadrature_to_first_order(self, kernel_sec6):
        # max closed-vs-midpoint discrepancy at least halves when k halves
        diffs = []
        for n in (8, 16, 32):
            grid = TimeGrid.uniform(2.0, n)
            wc = build_weights(grid, kernel_sec6, mode="closed_form")
            wm = build_weights(grid, kernel_sec6, mode="midpoint")
            off = np.abs(wc.omega - wm.omega)
            np.fill_diagonal(off, 0.0)  # diagonal cell is the singular one
            diffs.append(off.max())
        assert diffs[1] <= 0.55 * diffs[0]
        assert diffs[2] <= 0.55 * diffs[1]

    def test_omega_decreasing_in_n_uniform(self, kernel_sec6):
        grid = TimeGrid.uniform(2.0, 16)
        table = build_weights(grid, kernel_sec6)
        for j in range(1, 15):
            col = table.omega[j:, j - 1]  # entries n = j+1..N at fixed j
            assert np.all(np.diff(col) < 0.0)

    def test_unknown_mode(self, kernel_sec6):
        with pytest.raises(ValueError):
            build_weights(TimeGrid.uniform(1.0, 4), kernel_sec6, mode="exact")


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
        rng = np.random.default_rng(11)
        table = build_weights(random_nonuniform_grid(rng, n=40, ratio=4.0),
                              kernel_sec6)
        omega = table.omega * (1.0 + 0.3 * rng.standard_normal((40, 40)))
        eta_bar = table.eta_bar + 0.01 * rng.standard_normal(41)
        bad = WeightTable(omega=omega, eta_bar=eta_bar, mode=table.mode,
                          grid=table.grid, params=kernel_sec6)
        k = bad.grid.steps
        bmat = bad.beta_cell_averages()
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
