import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from fracvisco import diagnostics, stepper
from fracvisco.diagnostics import EnergyLedger, energy_ledger, long_time_limit
from fracvisco.fem import (ElasticParams, assemble, build_rect_mesh,
                           quasi_static_solve, side_traction)
from fracvisco.mlf import KernelParams
from fracvisco.stepper import SolutionHistory, run
from fracvisco.weights import TimeGrid, build_weights


def gram_ledger(history: SolutionHistory, u0=None, v0=None):
    """The ledger as first written: every term from the (N+1)^2 Gram matrix
    a(U1_i, U1_j), the reordered double sum from the cell means beta_nj.
    Kept verbatim as the oracle of the O(N) per-step-scalar ledger."""
    sys, table = history.system, history.table
    grid = table.grid
    n = grid.n_steps
    k = grid.steps
    eta = table.eta_bar
    omega = table.omega
    u0 = history.U1[0] if u0 is None else np.asarray(u0)
    v0 = history.U2[0] if v0 is None else np.asarray(v0)

    u1f = sys.restrict(history.U1)            # (N+1, nf)
    u2f = sys.restrict(history.U2)
    ku = (sys.Kff @ u1f.T).T                  # K U1_n for all n
    gram = u1f @ ku.T                          # a(U1_i, U1_j)
    diag = np.diag(gram)

    final_elastic = eta[n] * diag[n]
    mu2 = (sys.Mff @ u2f.T).T
    final_kinetic = float(u2f[n] @ mu2[n])

    deta = np.diff(eta) / k
    du_sq = np.array([
        (diag[i] - 2.0 * gram[i, i - 1] + diag[i - 1]) / k[i - 1] ** 2
        for i in range(1, n + 1)])
    eta_diss = float(np.sum(k * (-deta) * diag[:-1])
                     + np.sum(k ** 2 * eta[1:] * du_sq))

    # |W_nj|^2 = a(U1_n - U1_j, U1_n - U1_j) from the Gram matrix
    wsq = diag[:, None] + diag[None, :] - 2.0 * gram

    hist_diss = 0.0
    for row in range(2, n + 1):
        j = np.arange(1, row)
        om = omega[row - 1, :row - 1]
        dw = (wsq[row, j] - wsq[row - 1, j]) / k[row - 1]
        hist_diss += float(om @ (dw + k[row - 1] * du_sq[row - 1]))

    # reordered form: sum_j k_j beta_Nj |W_Nj|^2
    #                 - sum_j k_j sum_{n=j+1}^N k_n |W_{n-1,j}|^2 d_n beta_nj
    bmat = (omega / np.outer(k, k))[:n, :n]
    alt = 0.0
    for j in range(1, n):
        alt += k[j - 1] * bmat[n - 1, j - 1] * wsq[n, j]
        rows = np.arange(j + 1, n + 1)
        dbeta = (bmat[rows - 1, j - 1] - bmat[rows - 2, j - 1]) / k[rows - 1]
        alt -= k[j - 1] * float(np.sum(k[rows - 1] * wsq[rows - 1, j] * dbeta))
    ksq_term = 0.0
    for row in range(2, n + 1):
        ksq_term += float(omega[row - 1, :row - 1].sum()
                          * k[row - 1] * du_sq[row - 1])
    hist_diss_alt = alt + ksq_term

    jumps = np.diff(u2f, axis=0)
    jump_diss = float(np.einsum("ni,ni->", jumps, (sys.Mff @ jumps.T).T))

    ku0 = sys.K @ u0
    mv0 = sys.M @ v0
    initial = float(u0 @ ku0 + v0 @ mv0)

    load_work = 0.0
    for step in range(1, n + 1):
        load_work += 2.0 * k[step - 1] * float(sys.load @ u2f[step])

    return EnergyLedger(final_elastic=float(final_elastic),
                        final_kinetic=float(final_kinetic),
                        eta_dissipation=float(eta_diss),
                        history_dissipation=float(hist_diss),
                        history_dissipation_alt=float(hist_diss_alt),
                        jump_dissipation=float(jump_diss),
                        initial_energy=float(initial),
                        load_work=float(load_work))


def blocked_products(u1f, kff, weigh, chunk):
    """diagnostics._stiffness_products with each block's stiffness product
    taken on the whole history, ``kff[c:e] @ u1f.T``, in blocks of the same
    width."""
    n_cols, nf = u1f.shape
    diag, dsq, p, q = (np.zeros(n_cols) for _ in range(4))
    width = max(1, chunk // (2 * n_cols))
    for c in range(0, nf, width):
        u = np.ascontiguousarray(u1f[:, c:c + width].T)
        ku = kff[c:c + width] @ u1f.T
        kh = weigh(ku.copy())
        diag += np.einsum("in,in->n", u, ku)
        dsq[1:] += np.einsum("in,in->n", np.diff(u), np.diff(ku))
        p += np.einsum("in,in->n", u, kh)
        q[1:] += np.einsum("in,in->n", u[:, :-1], kh[:, 1:])
    return diag, dsq, p, q


@pytest.fixture(scope="module")
def homogeneous_run(mesh8, elastic_soft, kernel_sec6, downward_traction):
    loaded = assemble(mesh8, elastic_soft, traction=downward_traction)
    u0 = quasi_static_solve(loaded, scale=1.0 - kernel_sec6.gamma)
    sys_ = assemble(mesh8, elastic_soft)
    grid = TimeGrid.uniform(1.0, 32)
    table = build_weights(grid, kernel_sec6)
    hist = run(sys_, table, u0, np.zeros_like(u0))
    return sys_, grid, table, hist


class TestEnergyLedger:
    def test_zero_history_all_zero(self, mesh8, elastic_soft, kernel_sec6):
        sys_ = assemble(mesh8, elastic_soft)
        grid = TimeGrid.uniform(1.0, 8)
        table = build_weights(grid, kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        led = energy_ledger(hist)
        for name, value in led.rows():
            if name != "residual_rel":
                assert value == 0.0, name

    def test_homogeneous_identity(self, homogeneous_run):
        sys_, grid, table, hist = homogeneous_run
        led = energy_ledger(hist)
        assert led.residual_rel <= 1e-8
        assert led.load_work == 0.0

    def test_tiny_steps_close(self, mesh8, elastic_soft, kernel_sec6,
                              downward_traction):
        # k = 1e-300 / 16: the square of a step underflows, so no term may
        # pass through k**2
        u0 = quasi_static_solve(assemble(mesh8, elastic_soft,
                                         traction=downward_traction),
                                scale=0.5)
        sys_ = assemble(mesh8, elastic_soft)
        table = build_weights(TimeGrid.uniform(1e-300, 16), kernel_sec6)
        led = energy_ledger(run(sys_, table, u0, np.zeros_like(u0)))
        assert all(np.isfinite(value) for _, value in led.rows())
        assert led.initial_energy > 0.0 and led.residual_rel <= 1e-8

    def test_dissipation_terms_nonnegative(self, homogeneous_run):
        sys_, grid, table, hist = homogeneous_run
        led = energy_ledger(hist)
        tol = 1e-12 * led.rhs_total
        assert led.eta_dissipation >= -tol
        assert led.history_dissipation >= -tol
        assert led.jump_dissipation >= -tol
        assert led.final_elastic >= 0.0
        assert led.final_kinetic >= 0.0

    def test_two_groupings_agree(self, homogeneous_run):
        sys_, grid, table, hist = homogeneous_run
        led = energy_ledger(hist)
        scale = max(abs(led.history_dissipation), 1e-300)
        assert abs(led.history_dissipation
                   - led.history_dissipation_alt) / scale <= 1e-12

    def test_gamma_zero_history_term_vanishes(self, mesh8, elastic_soft,
                                              downward_traction):
        loaded = assemble(mesh8, elastic_soft, traction=downward_traction)
        u0 = quasi_static_solve(loaded, scale=1.0)
        sys_ = assemble(mesh8, elastic_soft)
        grid = TimeGrid.uniform(1.0, 16)
        table = build_weights(grid, KernelParams(0.5, 1.0, 0.0))
        hist = run(sys_, table, u0, np.zeros_like(u0))
        led = energy_ledger(hist)
        assert led.history_dissipation == 0.0
        assert led.history_dissipation_alt == 0.0
        # eta_n is constant 1, so only the step-roughness part survives
        k = grid.steps[0]
        du = np.diff(sys_.restrict(hist.U1), axis=0) / k
        expect = float(np.sum(k * k * np.einsum(
            "ni,ni->n", du, (sys_.Kff @ du.T).T)))
        assert led.eta_dissipation == pytest.approx(expect, rel=1e-12)
        assert led.residual_rel <= 1e-10

    def test_loaded_run_balances_with_load_work(self, mesh8, elastic_soft,
                                                kernel_sec6,
                                                downward_traction):
        # with the computable load work 2 sum k_n (Gbar, U2_n) the balance
        # extends to loaded runs; reported, asserted only here internally
        sys_ = assemble(mesh8, elastic_soft, traction=downward_traction)
        grid = TimeGrid.uniform(1.0, 16)
        table = build_weights(grid, kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        led = energy_ledger(hist)
        assert led.load_work != 0.0
        assert led.residual_rel <= 1e-8

    def test_readers_do_not_expand(self, mesh8, elastic_soft, kernel_sec6,
                                   downward_traction):
        # probe traces, the ledger and the tail mean all read the free-dof
        # arrays; none of them fills the lazy full-size U1/U2
        sys_ = assemble(mesh8, elastic_soft, traction=downward_traction)
        grid = TimeGrid.uniform(2.0, 32)
        table = build_weights(grid, kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        vertex = mesh8.nearest_vertex((1.0, 1.0))
        hist.probe_trace(vertex)
        energy_ledger(hist)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            long_time_limit(hist, vertex)
        assert "U1" not in vars(hist) and "U2" not in vars(hist)

    def test_residual_tracks_solve_error(self, mesh8, elastic_soft,
                                         kernel_sec6, downward_traction,
                                         monkeypatch):
        # every step's velocity U2_n gets relative noise eps, and U1_n
        # follows it, U1_n = U1_{n-1} + k U2_n: the ledger residual must sit
        # at roundoff for eps = 0 and grow with the injected error
        loaded = assemble(mesh8, elastic_soft, traction=downward_traction)
        u0 = quasi_static_solve(loaded, scale=0.5)
        sys_ = assemble(mesh8, elastic_soft)
        grid = TimeGrid.uniform(1.0, 16)
        table = build_weights(grid, kernel_sec6)
        exact_advance = stepper.advance
        noise = {}

        def noisy_advance(kff, k, co, kload, solver, u1_prev, u2_prev, hist,
                          u1, u2, work):
            exact_advance(kff, k, co, kload, solver, u1_prev, u2_prev, hist,
                          u1, u2, work)
            u2 *= 1.0 + noise["eps"] * noise["rng"].standard_normal(u2.shape)
            u1[:] = u1_prev + k * u2

        monkeypatch.setattr(stepper, "advance", noisy_advance)
        epsilons = (0.0, 1e-10, 1e-8, 1e-6)
        residuals = []
        for eps in epsilons:
            noise.update(eps=eps, rng=np.random.default_rng(3))
            hist = run(sys_, table, u0, np.zeros_like(u0))
            residuals.append(energy_ledger(hist).residual_rel)
        assert residuals[0] <= 1e-13
        for eps, res in zip(epsilons[1:], residuals[1:]):
            assert res >= 1e-3 * eps
        assert np.all(np.diff(residuals) > 0.0)

    def test_probe_invariance(self, homogeneous_run):
        # reading probe traces leaves the history, and so the ledger, as is
        sys_, grid, table, hist = homogeneous_run
        led_a = energy_ledger(hist)
        hist.probe_trace(0)
        hist.probe_trace(5)
        led_b = energy_ledger(hist)
        assert led_a.lhs_total == led_b.lhs_total

    def test_stability_estimate(self, homogeneous_run, kernel_sec6):
        # unloaded runs: eta_N a(U1_N,U1_N) + |U2_N|_M^2 <= initial energy,
        # so with eta_N >= 1 - gamma the final state is bounded uniformly
        # in N and k
        sys_, grid, table, hist = homogeneous_run
        led = energy_ledger(hist)
        n = grid.n_steps
        assert table.eta_bar[n] >= 1.0 - kernel_sec6.gamma
        lhs_final = led.final_elastic + led.final_kinetic
        assert lhs_final <= led.initial_energy * (1.0 + 1e-12)


class TestAgainstGramOracle:
    """The per-step-scalar ledger term by term against the Gram oracle."""

    @staticmethod
    def _check(sys_, table, u0):
        hist = run(sys_, table, u0, np.zeros_like(u0))
        got = energy_ledger(hist)
        want = gram_ledger(hist)
        tol = 1e-12 * abs(want.rhs_total)
        for (name, a), (_, b) in zip(got.rows(), want.rows()):
            if name != "residual_rel":
                assert abs(a - b) <= tol, (name, a, b)
        return got

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 32, 257])
    def test_uniform(self, mesh8, elastic_soft, kernel_sec6,
                     downward_traction, n_steps, loaded):
        grid = TimeGrid.uniform(1.0, n_steps)
        table = build_weights(grid, kernel_sec6)
        if loaded:
            sys_ = assemble(mesh8, elastic_soft, traction=downward_traction)
            u0 = np.zeros(sys_.n_dofs)
        else:
            sys_ = assemble(mesh8, elastic_soft)
            u0 = quasi_static_solve(assemble(mesh8, elastic_soft,
                                             traction=downward_traction),
                                    scale=0.5)
        led = self._check(sys_, table, u0)
        assert (led.load_work != 0.0) == loaded

    def test_small_blocks(self, mesh8, elastic_soft, kernel_sec6,
                          downward_traction, monkeypatch):
        # one free dof per stiffness block, and one step per tile of its
        # band window and per jump block
        monkeypatch.setattr(diagnostics, "_CHUNK", 1)
        monkeypatch.setattr(diagnostics, "_TILE", 1)
        sys_ = assemble(mesh8, elastic_soft, traction=downward_traction)
        u0 = quasi_static_solve(sys_, scale=0.5)
        grid = TimeGrid.uniform(1.0, 32)
        self._check(sys_, build_weights(grid, kernel_sec6), u0)

    def test_gamma_zero(self, mesh8, elastic_soft, downward_traction):
        sys_ = assemble(mesh8, elastic_soft)
        u0 = quasi_static_solve(assemble(mesh8, elastic_soft,
                                         traction=downward_traction))
        grid = TimeGrid.uniform(1.0, 40)
        table = build_weights(grid, KernelParams(0.5, 1.0, 0.0))
        led = self._check(sys_, table, u0)
        assert led.history_dissipation == 0.0

    def test_nonuniform(self, mesh8, elastic_soft, kernel_sec6,
                        downward_traction):
        steps = np.random.default_rng(11).uniform(0.5, 2.0, 48)
        grid = TimeGrid(np.concatenate([[0.0], np.cumsum(steps / steps.sum())]))
        table = build_weights(grid, kernel_sec6)
        assert table.lags is None
        sys_ = assemble(mesh8, elastic_soft, traction=downward_traction)
        u0 = quasi_static_solve(sys_, scale=0.5)
        led = self._check(sys_, table, u0)
        assert led.residual_rel <= 1e-8

    def test_no_quadratic_memory(self, elastic_soft, kernel_sec6,
                                 downward_traction):
        # a Gram matrix alone would take 4097^2 * 8 bytes = 134 MB here
        mesh = build_rect_mesh(4, 4)
        sys_ = assemble(mesh, elastic_soft)
        u0 = quasi_static_solve(assemble(mesh, elastic_soft,
                                         traction=downward_traction),
                                scale=0.5)
        grid = TimeGrid.uniform(4.0, 4096)
        table = build_weights(grid, kernel_sec6)
        hist = run(sys_, table, u0, np.zeros_like(u0))
        tracemalloc.start()
        try:
            led = energy_ledger(hist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert led.residual_rel <= 1e-8

    def test_no_copy_of_the_history(self, elastic_soft, kernel_sec6):
        # 16x16 with N = 4096: 17.8 MB per history; the ledger holds one
        # block's U and K U rows (2 MB) and tiles of its band window, not a
        # dof-major copy of u1f (3.0 MB; 6.6 MB when each block copied its
        # whole band window and kept K U beside K H)
        sys_ = assemble(build_rect_mesh(16, 16), elastic_soft)
        table = build_weights(TimeGrid.uniform(4.0, 4096), kernel_sec6)
        rng = np.random.default_rng(4)
        v0 = sys_.expand(rng.standard_normal(sys_.free_dofs.size))
        hist = run(sys_, table, np.zeros_like(v0), v0)
        assert hist.u1f.nbytes > 17e6
        tracemalloc.start()
        try:
            led = energy_ledger(hist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert led.residual_rel <= 1e-8

    @pytest.mark.parametrize("chunk", [diagnostics._CHUNK, 2 * 33 * 5])
    @pytest.mark.parametrize("coupling", ["far_pairs", "permuted"])
    def test_wide_windows(self, homogeneous_run, monkeypatch, chunk,
                          coupling):
        # stiffnesses that couple distant dofs: two far pairs, (0, nf/2) and
        # (nf/4, nf - 1), so that the windows of those dofs' blocks span
        # half the dofs and more, or a symmetric permutation of the whole
        # problem (stiffness, mass and history), under which every window
        # spans nearly all dofs; chunk 330 makes blocks of 5 dofs.  The
        # products are taken with whole-history tiles and with tile 1000
        # (6 or more of the 33 steps per tile), to the same bits.  The
        # full-size K and free-dof order change with Kff, so that the Gram
        # oracle's a(u0, u0), taken through expand and K, is of the same
        # stiffness as every other term
        monkeypatch.setattr(diagnostics, "_CHUNK", chunk)
        sys_, _, _, hist = homogeneous_run
        kff, mff, big_k, free = sys_.Kff, sys_.Mff, sys_.K, sys_.free_dofs
        nf = kff.shape[0]
        u1f, u2f = hist.u1f, hist.u2f
        if coupling == "far_pairs":
            i = np.array([0, nf // 2, nf // 4, nf - 1])
            j = np.array([nf // 2, 0, nf - 1, nf // 4])
            value = np.full(4, 0.1 * kff[0, 0])
            kff = (kff + sp.csr_matrix((value, (i, j)),
                                       shape=kff.shape)).tocsr()
            big_k = (big_k + sp.csr_matrix((value, (free[i], free[j])),
                                           shape=big_k.shape)).tocsr()
        else:
            perm = np.random.default_rng(8).permutation(nf)
            kff, mff = kff[perm][:, perm], mff[perm][:, perm]
            u1f, u2f = u1f[:, perm], u2f[:, perm]
            free = free[perm]
        wide_sys = dataclasses.replace(sys_, K=big_k, free_dofs=free,
                                       Kff=kff.tocsr(), Mff=mff.tocsr())
        wide_hist = SolutionHistory(u1f=u1f, u2f=u2f, system=wide_sys,
                                    table=hist.table)
        weigh, _ = diagnostics._lower_weights(hist.table, hist.table.n_steps)
        want = blocked_products(u1f, wide_sys.Kff, weigh, chunk)
        for tile in (diagnostics._TILE, 1000):
            monkeypatch.setattr(diagnostics, "_TILE", tile)
            got = diagnostics._stiffness_products(u1f, wide_sys, weigh)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        got = energy_ledger(wide_hist)
        want = gram_ledger(wide_hist)
        tol = 1e-12 * abs(want.rhs_total)
        for (name, a), (_, b) in zip(got.rows(), want.rows()):
            if name != "residual_rel":
                assert abs(a - b) <= tol, (name, a, b)

    def test_load_work_reads_the_system_load(self, mesh8, elastic_soft,
                                             kernel_sec6):
        # the ledger's load is the free-dof load of the history's system,
        # the vector every step of the run added
        table = build_weights(TimeGrid.uniform(1.0, 24), kernel_sec6)
        sys_ = assemble(mesh8, elastic_soft,
                        traction=side_traction({"right": (0.3, -1.0)}))
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        load_work = energy_ledger(hist).load_work
        assert load_work != 0.0
        assert load_work == 2.0 * float(table.grid.steps
                                        @ (hist.u2f[1:] @ sys_.load))


class TestLongTimeLimit:
    def test_zero_run(self, mesh8, elastic_soft, kernel_sec6):
        sys_ = assemble(mesh8, elastic_soft)
        grid = TimeGrid.uniform(4.0, 32)
        table = build_weights(grid, kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        rep = long_time_limit(hist, 0, reference=0.0)
        assert rep.tail_mean == 0.0
        assert rep.rel_gap == 0.0

    def test_elastic_tail_reaches_static(self, kernel_sec6):
        # stiff gamma = 0 run: numerical dissipation settles the trace onto
        # the unscaled static solution
        mesh = build_rect_mesh(8, 8)
        ep = ElasticParams(mu=1e5, lam=1e5, rho=3000.0)
        g = side_traction({"right": (0.0, -1.0)})
        sys_ = assemble(mesh, ep, traction=g)
        grid = TimeGrid.uniform(40.0, 1280)
        table = build_weights(grid, KernelParams(2.0 / 3.0, 1.0, 0.0))
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        vertex = mesh.nearest_vertex((1.0, 1.0))
        ref = quasi_static_solve(sys_, scale=1.0)[2 * vertex + 1]
        rep = long_time_limit(hist, vertex, component=1, reference=ref)
        assert rep.rel_gap <= 0.05
        assert rep.settled

    def test_component_checked(self, elastic_soft, kernel_sec6,
                               downward_traction):
        # on a 2x2 mesh (vertex 4, component 2) would read the x dof of
        # vertex 5 and (vertex 3, component -1) the y dof of vertex 2
        sys_ = assemble(build_rect_mesh(2, 2), elastic_soft,
                        traction=downward_traction)
        table = build_weights(TimeGrid.uniform(1.0, 8), kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        for vertex, component in ((4, 2), (3, -1)):
            with pytest.raises(ValueError, match="component must be 0 or 1"):
                long_time_limit(hist, vertex, component=component,
                                reference=1.0)

    def test_short_run_warns(self, mesh8, kernel_sec6, downward_traction):
        # slow dynamics over a short window: tail not settled
        ep = ElasticParams(mu=1.0, lam=1.0, rho=3000.0)
        sys_ = assemble(mesh8, ep, traction=downward_traction)
        grid = TimeGrid.uniform(4.0, 64)
        table = build_weights(grid, kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        vertex = mesh8.nearest_vertex((1.0, 1.0))
        ref = quasi_static_solve(sys_, scale=0.5)[2 * vertex + 1]
        with pytest.warns(UserWarning, match="not settled"):
            rep = long_time_limit(hist, vertex, component=1, reference=ref)
        assert not rep.settled

    def test_one_node_tail_half_is_its_value(self, elastic_soft,
                                             kernel_sec6):
        # the tail of nodes 0, 0.5, 0.76, 0.77, 0.78, 1 starts at 0.75 and
        # splits at 0.88, so its second half holds the node t = 1 alone
        sys_ = assemble(build_rect_mesh(2, 2), elastic_soft)
        grid = TimeGrid(np.array([0.0, 0.5, 0.76, 0.77, 0.78, 1.0]))
        u1f = np.full((grid.n_steps + 1, sys_.free_dofs.size), 3.0)
        hist = SolutionHistory(u1f=u1f, u2f=np.zeros_like(u1f), system=sys_,
                               table=build_weights(grid, kernel_sec6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = long_time_limit(hist, 8, reference=3.0)
        assert rep.halves_gap == 0.0
        assert rep.settled
        assert rep.tail_mean == 3.0 and rep.rel_gap == 0.0

    def test_out_of_range_dof_rejected(self, elastic_soft, kernel_sec6,
                                       downward_traction):
        # a 2x2 mesh has 9 vertices, dofs 0..17; vertex 0 is clamped
        sys_ = assemble(build_rect_mesh(2, 2), elastic_soft,
                        traction=downward_traction)
        table = build_weights(TimeGrid.uniform(1.0, 8), kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        assert not np.any(hist.probe_trace(0))
        assert np.any(hist.probe_trace(8))
        for dof in (-1, 18, 999):
            with pytest.raises(ValueError, match="outside 0..17"):
                hist.dof_history(dof)
        for vertex in (-1, 9, 999):
            with pytest.raises(ValueError, match="outside"):
                hist.probe_trace(vertex)
            with pytest.raises(ValueError, match="outside"):
                long_time_limit(hist, vertex, reference=1.0)
