import tracemalloc

import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg.blas import dgemm

from fracvisco import stepper
from fracvisco.diagnostics import energy_ledger
from fracvisco.fem import (ElasticParams, assemble, build_rect_mesh,
                           quasi_static_solve, side_traction, traction_load)
from fracvisco.mlf import KernelParams
from fracvisco.scalar import ScalarModel, scalar_dg0
from fracvisco.solvers import SpdSolver, make_spd_solver
from fracvisco.stepper import history_sums, run, time_average_load
from fracvisco.weights import TimeGrid, build_weights
from oracles import sorted_order


def dense_history(table, u):
    """H_n = omega[n-1, :n-1] @ u[1:n] row by row, n = 1..N."""
    omega = np.asarray(table.omega)
    return np.array([omega[n - 1, :n - 1] @ u[1:n]
                     for n in range(1, u.shape[0])])


def poisoned_sums(table, u):
    """history_sums(table, u, acc) with row n of acc set to NaN right after
    H_n is yielded, as ``run`` overwrites it with U2_n: a later H that read
    row n again would come out NaN."""
    acc = np.zeros_like(u)
    got = []
    for m, h in enumerate(history_sums(table, u, acc), start=1):
        got.append(np.array(h, copy=True))
        acc[m] = np.nan
    return np.array(got)


def square_tiled_sums(table, u):
    """The H_n of ``history_sums`` with every square, the 1 x 1 ones too, a
    matrix product or an FFT convolution, as the squares were formed before
    the 1 x 1 ones became one scaled row each.  A matrix product is BLAS
    ``dgemm`` adding into the target rows (beta = 1) in chunks of
    ``stepper.ROWS_CHUNK`` weights, as ``history_sums`` forms its dense
    squares: ``acc += block @ src`` rounds differently."""
    n_steps = u.shape[0] - 1
    acc = np.zeros_like(u)
    w = table.lags
    for m in range(1, n_steps):
        span = m & -m
        hi = min(m + span, n_steps)
        src = u[m - span + 1:m + 1]
        if w is None or span <= stepper.DIRECT_BLOCK:
            rows = max(1, stepper.ROWS_CHUNK // span)
            for r in range(m, hi, rows):
                r2 = min(r + rows, hi)
                block = np.array(table.omega[r:r2, m - span:m])
                tgt = acc[r + 1:r2 + 1].reshape(r2 - r, -1).T
                out = dgemm(1.0, src.reshape(span, -1).T, block.T, 1.0, tgt,
                            overwrite_c=1)
                assert np.shares_memory(out, acc)
            continue
        n_tgt = hi - m
        size = next_fast_len(span + n_tgt - 1, real=True)
        spectrum = rfft(w[1:span + n_tgt], size)
        src2 = src.reshape(span, -1)
        tgt = acc[m + 1:hi + 1].reshape(n_tgt, -1)
        width = max(1, stepper.FFT_CHUNK // size)
        for c in range(0, src2.shape[1], width):
            cols = slice(c, c + width)
            spec = rfft(src2[:, cols].T, size)
            np.multiply(spectrum, spec, out=spec)
            conv = irfft(spec, size)
            tgt[:, cols] += conv[:, span - 1:span - 1 + n_tgt].T
    return acc[1:]


def reference_run(sys_, table, u0, v0, mass_form=False):
    """(u1f, u2f) of ``run`` as a plain loop: ``history_sums``, the step as
    one scipy expression and a fresh ``SpdSolver`` per step.

    The step solves for the velocity increment, ``u2 + SpdSolver(a).solve(
    Kff @ ((h - co u1) - (k co) u2) + k load)`` with ``a`` the step matrix,
    as ``run`` does; with ``mass_form`` it solves for U2_n itself, from
    ``Mff @ u2 + Kff @ (h - co u1) + k load``: the same value, as the two
    differ by ``a @ u2`` on both sides, but not the same bits."""
    n_steps = table.grid.n_steps
    nf = sys_.free_dofs.size
    u1 = np.empty((n_steps + 1, nf))
    u2 = np.zeros((n_steps + 1, nf))
    u1[0] = sys_.restrict(u0)
    u2[0] = sys_.restrict(v0)
    k = table.grid.steps
    for n, h in enumerate(history_sums(table, u1, u2), start=1):
        co = k[n - 1] - table.omega[n - 1, n - 1]
        a = sys_.Mff + (k[n - 1] * co) * sys_.Kff
        if mass_form:
            u2[n] = SpdSolver(a).solve(
                sys_.Mff @ u2[n - 1] + sys_.Kff @ (h - co * u1[n - 1])
                + k[n - 1] * sys_.load)
        else:
            u2[n] = u2[n - 1] + SpdSolver(a).solve(
                sys_.Kff @ ((h - co * u1[n - 1]) - (k[n - 1] * co) * u2[n - 1])
                + k[n - 1] * sys_.load)
        u1[n] = u1[n - 1] + k[n - 1] * u2[n]
    return u1, u2


def longdouble_run(sys_, table, u0, v0):
    """(u1f, u2f) of the dG(0) scheme in long double: the dense history sum
    and the right-hand side ``M u2 - co K u1 + K h + k load`` with the step
    matrix ``M + k co K`` formed in long double, each step solved by a
    float64 solve refined by iteration on the long double residual.  The
    data (matrices, weights, steps, load) are the float64 ones of ``run``."""
    ld = np.longdouble
    m = sys_.Mff.toarray().astype(ld)
    kmat = sys_.Kff.toarray().astype(ld)
    load = sys_.load.astype(ld)
    omega = np.asarray(table.omega).astype(ld)
    steps = table.grid.steps.astype(ld)
    n_steps = table.grid.n_steps
    u1 = np.zeros((n_steps + 1, sys_.free_dofs.size), dtype=ld)
    u2 = np.zeros_like(u1)
    u1[0] = sys_.restrict(u0)
    u2[0] = sys_.restrict(v0)
    for n in range(1, n_steps + 1):
        k = steps[n - 1]
        co = k - omega[n - 1, n - 1]
        h = omega[n - 1, :n - 1] @ u1[1:n]
        rhs = m @ u2[n - 1] - co * (kmat @ u1[n - 1]) + kmat @ h + k * load
        a = m + (k * co) * kmat
        a64 = a.astype(np.float64)
        x = np.linalg.solve(a64, rhs.astype(np.float64)).astype(ld)
        for _ in range(4):
            x += np.linalg.solve(a64, (rhs - a @ x).astype(np.float64))
        u2[n] = x
        u1[n] = u1[n - 1] + k * x
    return u1, u2


class TestHistorySums:
    # ids name the closed-form weights, as these case ids always have
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 1000],
                             ids=lambda n: f"closed_form-{n}")
    @pytest.mark.parametrize("direct_block", [stepper.DIRECT_BLOCK, 2])
    def test_matches_dense_uniform(self, kernel_sec6, rng, monkeypatch, n,
                                   direct_block):
        # direct_block = 2 sends every square with side > 2 through the FFT
        monkeypatch.setattr(stepper, "DIRECT_BLOCK", direct_block)
        table = build_weights(TimeGrid.uniform(3.0, n), kernel_sec6)
        u = rng.standard_normal((n + 1, 5))
        got = poisoned_sums(table, u)
        want = dense_history(table, u)
        scale = max(np.max(np.abs(want)), 1e-300)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 1000])
    def test_matches_dense_nonuniform(self, kernel_sec6, rng, n):
        k = rng.uniform(0.5, 2.0, n)
        grid = TimeGrid(np.concatenate([[0.0], np.cumsum(k / k.sum())]))
        table = build_weights(grid, kernel_sec6)
        assert (table.lags is None) == (n > 1)  # one step is uniform
        u = rng.standard_normal((n + 1, 3))
        got = poisoned_sums(table, u)
        want = dense_history(table, u)
        scale = max(np.max(np.abs(want)), 1e-300)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_one_unknown_rows(self, kernel_sec6, rng, monkeypatch):
        monkeypatch.setattr(stepper, "DIRECT_BLOCK", 2)
        table = build_weights(TimeGrid.uniform(1.0, 40), kernel_sec6)
        u = rng.standard_normal(41)
        got = poisoned_sums(table, u)
        want = dense_history(table, u)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_column_blocks_bitwise(self, kernel_sec6, rng, monkeypatch):
        # FFT squares transform their columns in blocks; blocks of one and
        # of three columns give the same bits as one block of all seven
        monkeypatch.setattr(stepper, "DIRECT_BLOCK", 2)
        table = build_weights(TimeGrid.uniform(1.0, 300), kernel_sec6)
        u = rng.standard_normal((301, 7))
        sums = []
        for chunk in (1 << 30, 1024, 1):    # FFT sizes here are <= 512
            monkeypatch.setattr(stepper, "FFT_CHUNK", chunk)
            sums.append(np.array([
                h.copy() for h in history_sums(table, u, np.zeros_like(u))]))
        assert np.array_equal(sums[0], sums[1])
        assert np.array_equal(sums[0], sums[2])

    @pytest.mark.parametrize("n", [1, 2, 3, 65, 1000])
    @pytest.mark.parametrize("uniform", [True, False],
                             ids=["uniform", "nonuniform"])
    @pytest.mark.parametrize("columns", [(5,), ()], ids=["rows", "scalars"])
    def test_span_one_squares_bitwise(self, kernel_sec6, rng, monkeypatch, n,
                                      uniform, columns):
        # direct_block = 2 takes every square with side > 2 on a uniform
        # grid through the FFT
        monkeypatch.setattr(stepper, "DIRECT_BLOCK", 2)
        if uniform:
            grid = TimeGrid.uniform(3.0, n)
        else:
            k = rng.uniform(0.5, 2.0, n)
            grid = TimeGrid(np.concatenate([[0.0], np.cumsum(k / k.sum())]))
        table = build_weights(grid, kernel_sec6)
        u = rng.standard_normal((n + 1,) + columns)
        got = poisoned_sums(table, u)
        want = square_tiled_sums(table, u)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_accumulator_shape_checked(self, kernel_sec6):
        table = build_weights(TimeGrid.uniform(1.0, 4), kernel_sec6)
        with pytest.raises(ValueError, match="acc"):
            next(history_sums(table, np.zeros((5, 2)), np.zeros((5, 3))))

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_accumulator_layout_checked(self, kernel_sec6, layout):
        # dgemm would add a square into a copy of such an acc and drop it
        table = build_weights(TimeGrid.uniform(1.0, 4), kernel_sec6)
        if layout == "fortran":
            acc = np.zeros((5, 3), order="F")
        else:
            acc = np.zeros((5, 6))[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous float64"):
            next(history_sums(table, np.zeros((5, 3)), acc))

    def test_holds_under_1mb_beyond_u_and_acc(self, kernel_sec6):
        # span-512 dense squares and one FFT square (span 1024, 76 targets)
        # on sec6's nf = 544: 0.57 MB, where a product array per dense
        # square and 1 MB transform blocks took 4.4 MB
        n_steps, nf = 1100, 544
        table = build_weights(TimeGrid.uniform(40.0, n_steps), kernel_sec6)
        u = np.random.default_rng(4).standard_normal((n_steps + 1, nf))
        acc = np.zeros_like(u)
        tracemalloc.start()
        try:
            for _ in history_sums(table, u, acc):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.any(acc[-1])
        assert peak < 1e6

    def test_reads_only_known_rows(self, kernel_sec6):
        # row n may be filled after H_n is taken: a NaN placed in row n
        # before that must not reach H_1 .. H_n
        n = 40
        table = build_weights(TimeGrid.uniform(1.0, n), kernel_sec6)
        u = np.full((n + 1, 2), np.nan)
        acc = np.zeros(u.shape)
        for m, h in enumerate(history_sums(table, u, acc), start=1):
            assert np.all(np.isfinite(h)), m
            u[m] = 1.0

    def test_fft_size_is_scipys_real_fast_length(self):
        # the transform lengths of history_sums and the energy ledger, so
        # the bitwise tests above compare numpy's FFTs at scipy's lengths
        sizes = range(1, (1 << 17) + 1)
        assert ([stepper.fft_size(n) for n in sizes]
                == [next_fast_len(n, real=True) for n in sizes])


class TestTimeAverageLoad:
    def test_constant_traction_equals_load_vector(self, loaded_system8,
                                                  downward_traction):
        expect = traction_load(loaded_system8.mesh, downward_traction)
        assert np.array_equal(time_average_load(loaded_system8),
                              loaded_system8.restrict(expect))

    def test_zero_volume_load(self, mesh8, elastic_soft, loaded_system8,
                              downward_traction):
        sys_ = assemble(mesh8, elastic_soft, volume=(0.0, 0.0),
                        traction=downward_traction)
        assert np.array_equal(sys_.load, loaded_system8.load)

    def test_constant_loads_evaluated_once(self, mesh8, elastic_soft,
                                           kernel_sec6, monkeypatch):
        calls = []

        def counted(sys_):
            calls.append(sys_)
            return time_average_load(sys_)

        monkeypatch.setattr(stepper, "time_average_load", counted)
        table = build_weights(TimeGrid.uniform(1.0, 12), kernel_sec6)
        for traction in (side_traction({"right": (0.3, -1.0)}), None):
            calls.clear()
            sys_ = assemble(mesh8, elastic_soft, traction=traction)
            z = np.zeros(sys_.n_dofs)
            hist = run(sys_, table, z, z)
            assert len(calls) == 1 and calls[0] is sys_
            assert np.any(hist.u1f) == (traction is not None)


class TestRun:
    def test_uniform_grid_factors_once(self, elastic_soft, kernel_sec6,
                                       monkeypatch):
        # k = 10/3000 is not dyadic: the node differences take several
        # rounded values, yet every step shares one matrix
        grid = TimeGrid.uniform(10.0, 3000)
        assert np.unique(np.diff(grid.nodes)).size > 1
        table = build_weights(grid, kernel_sec6)
        sys_ = assemble(build_rect_mesh(4, 4), elastic_soft,
                        traction=side_traction({"right": (0.0, -1.0)}))
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return make_spd_solver(*args, **kwargs)

        monkeypatch.setattr(stepper, "make_spd_solver", counted)
        z = np.zeros(sys_.n_dofs)
        run(sys_, table, z, z)
        assert len(calls) == 1

    def test_nonuniform_grid_factors_once_per_step_value(
            self, elastic_soft, kernel_sec6, monkeypatch):
        # steps take three dyadic values, each in one contiguous block: one
        # factorization per distinct (k, co), since the run refactors only
        # when (k, co) changes
        steps = np.repeat([2.0 ** -5, 2.0 ** -4, 2.0 ** -6], [12, 8, 16])
        grid = TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))
        assert not grid.is_uniform
        table = build_weights(grid, kernel_sec6)
        keys = set(zip(grid.steps, grid.steps - table.omega.diagonal()))
        assert len(keys) == 3
        sys_ = assemble(build_rect_mesh(4, 4), elastic_soft,
                        traction=side_traction({"right": (0.0, -1.0)}))
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return make_spd_solver(*args, **kwargs)

        monkeypatch.setattr(stepper, "make_spd_solver", counted)
        z = np.zeros(sys_.n_dofs)
        run(sys_, table, z, z)
        assert len(calls) == 3

    @pytest.mark.parametrize("uniform", [True, False])
    def test_bitwise_reference_loop(self, elastic_soft, kernel_sec6, uniform):
        sys_ = assemble(build_rect_mesh(4, 4), elastic_soft,
                        traction=side_traction({"right": (0.0, -1.0)}))
        rng = np.random.default_rng(11)
        if uniform:
            grid = TimeGrid.uniform(2.0, 96)
        else:
            k = rng.uniform(0.5, 2.0, 40)
            grid = TimeGrid(np.concatenate([[0.0], np.cumsum(k / k.sum())]))
        table = build_weights(grid, kernel_sec6)
        nf = sys_.free_dofs.size
        u0 = sys_.expand(1e-4 * rng.standard_normal(nf))
        v0 = sys_.expand(1e-3 * rng.standard_normal(nf))
        hist = run(sys_, table, u0, v0)
        u1, u2 = reference_run(sys_, table, u0, v0)
        assert np.array_equal(hist.u1f.view(np.int64), u1.view(np.int64))
        assert np.array_equal(hist.u2f.view(np.int64), u2.view(np.int64))

    @staticmethod
    def mass_form_case(case, kernel):
        """(system, table, u0, v0) of a comparison with the Mff form.

        "soft": sec6's soft material on 4x4 from random data.  "stiff": 16x16
        with mu = lam = 1e9 and rho = 1, where k co K outweighs M by about
        6e10, started as ``energy-check`` starts an unloaded run, from rest
        in the relaxed static shape of the unit traction.  "stiff_velocity":
        the same mesh and material from a random velocity of size 1 beside
        a displacement of size 5e-9."""
        rng = np.random.default_rng(5)
        traction = side_traction({"right": (0.0, -1.0)})
        if case == "soft":
            sys_ = assemble(build_rect_mesh(4, 4),
                            ElasticParams(mu=1.0, lam=1.0, rho=3000.0),
                            traction=traction)
            nf = sys_.free_dofs.size
            u0, v0 = (sys_.expand(rng.standard_normal(nf)) for _ in range(2))
            return sys_, build_weights(TimeGrid.uniform(2.0, 96), kernel), \
                u0, v0
        ep = ElasticParams(mu=1e9, lam=1e9, rho=1.0)
        mesh = build_rect_mesh(16, 16)
        sys_ = assemble(mesh, ep)
        u0 = quasi_static_solve(assemble(mesh, ep, traction=traction),
                                scale=1.0 - kernel.gamma)
        v0 = np.zeros_like(u0)
        if case == "stiff_velocity":
            v0 = sys_.expand(rng.standard_normal(sys_.free_dofs.size))
        return sys_, build_weights(TimeGrid.uniform(6.4, 64), kernel), u0, v0

    @pytest.mark.parametrize("case", ["soft", "stiff"])
    def test_matches_mass_form(self, kernel_sec6, case):
        # the increment form agrees with the Mff form to roundoff of each
        # history's size
        sys_, table, u0, v0 = self.mass_form_case(case, kernel_sec6)
        k = table.grid.steps[0]
        ratio = (abs(sys_.Kff).sum(axis=1).max()
                 / abs(sys_.Mff).sum(axis=1).max())
        stiffness = k * (k - table.omega[0, 0]) * ratio
        assert (stiffness > 1e10) == (case == "stiff")
        hist = run(sys_, table, u0, v0)
        want = reference_run(sys_, table, u0, v0, mass_form=True)
        for got, ref in zip((hist.u1f, hist.u2f), want):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_stiff_velocity_start_to_roundoff_of_the_motion(self,
                                                            kernel_sec6):
        # U2_{n-1} and the increment cancel in U2_n where k co K outweighs
        # M, so a step's U2_n carries roundoff of the size of U2_{n-1}, not
        # of U2_n, and U1_n that roundoff times k.  From a velocity of size
        # 1 beside a displacement of 5e-9, U1 then moves by 4.3e-7 of its
        # own size (the Mff form stays within 5.4e-14 of ``longdouble_run``),
        # but by 7.8e-15 of k |U2|, the distance a step can travel; the
        # velocity history stays within 7.8e-15 of its size
        sys_, table, u0, v0 = self.mass_form_case("stiff_velocity",
                                                  kernel_sec6)
        k = table.grid.steps[0]
        hist = run(sys_, table, u0, v0)
        u1, u2 = reference_run(sys_, table, u0, v0, mass_form=True)
        travel = k * np.max(np.abs(u2))
        assert np.max(np.abs(u1)) < 1e-7 * travel
        assert np.max(np.abs(hist.u1f - u1)) <= 1e-12 * travel
        assert np.max(np.abs(hist.u2f - u2)) <= 1e-12 * np.max(np.abs(u2))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="long double is no wider than float64 here")
    def test_soft_case_to_roundoff_of_a_long_double_loop(self, kernel_sec6):
        # solved for its increment, a step's solve error is relative to the
        # increment: U1 and U2 stay within about 8e-16 and 6e-16 of their
        # size of the same scheme in long double, against 8.3e-15 and
        # 1.4e-14 while each step solved for U2_n itself
        sys_, table, u0, v0 = self.mass_form_case("soft", kernel_sec6)
        hist = run(sys_, table, u0, v0)
        for got, ref in zip((hist.u1f, hist.u2f),
                            longdouble_run(sys_, table, u0, v0)):
            err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert err <= 3e-15

    @pytest.mark.parametrize("steps,changes", [
        ("uniform", 1), ("two_blocks", 2), ("alternating", 40),
        ("random", 40)])
    def test_products_per_run(self, elastic_soft, kernel_sec6, monkeypatch,
                              steps, changes):
        # one product with Kff and one for the check per step, however
        # often the step matrix changes from one step to the next, and one
        # factorization per change of (k, co): the run keeps only the
        # current one, so alternating steps refactor at every step
        from scipy.sparse import _sparsetools

        if steps == "uniform":
            grid = TimeGrid.uniform(2.0, 40)
        else:
            k = {"two_blocks": np.repeat([2.0 ** -5, 2.0 ** -4], 20),
                 "alternating": np.tile([2.0 ** -5, 2.0 ** -4], 20),
                 "random": np.random.default_rng(4).uniform(0.5, 2.0, 40)
                 / 40}[steps]
            grid = TimeGrid(np.concatenate([[0.0], np.cumsum(k)]))
        table = build_weights(grid, kernel_sec6)
        keys = list(zip(grid.steps, grid.steps - table.omega.diagonal()))
        assert 1 + sum(a != b for a, b in zip(keys, keys[1:])) == changes
        sys_ = assemble(build_rect_mesh(4, 4), elastic_soft,
                        traction=side_traction({"right": (0.0, -1.0)}))
        kernel = _sparsetools.csr_matvec
        calls = []
        factors = []

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        def counted_factor(*args, **kwargs):
            factors.append(1)
            return make_spd_solver(*args, **kwargs)

        monkeypatch.setattr(_sparsetools, "csr_matvec", counted)
        monkeypatch.setattr(stepper, "make_spd_solver", counted_factor)
        z = np.zeros(sys_.n_dofs)
        run(sys_, table, z, z)
        assert len(calls) == 2 * 40
        assert len(factors) == changes

    def test_zero_data_zero_loads(self, mesh8, elastic_soft, kernel_sec6):
        sys_ = assemble(mesh8, elastic_soft)
        grid = TimeGrid.uniform(1.0, 8)
        table = build_weights(grid, kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        assert np.all(hist.U1 == 0.0)
        assert np.all(hist.U2 == 0.0)

    def test_elastic_energy_nonincreasing(self, mesh8, elastic_soft):
        # gamma = 0, free vibration: a(U1,U1) + |U2|_M^2 cannot grow
        sys_loaded = assemble(mesh8, elastic_soft,
                              traction=side_traction({"right": (0.0, -1.0)}))
        from fracvisco.fem import quasi_static_solve

        u0 = quasi_static_solve(sys_loaded, scale=1.0)
        sys_ = assemble(mesh8, elastic_soft)
        grid = TimeGrid.uniform(2.0, 64)
        table = build_weights(grid, KernelParams(0.5, 1.0, 0.0))
        hist = run(sys_, table, u0, np.zeros_like(u0))
        energy = np.array([
            hist.U1[n] @ (sys_.K @ hist.U1[n]) + hist.U2[n] @ (sys_.M @ hist.U2[n])
            for n in range(grid.n_steps + 1)])
        assert np.all(np.diff(energy) <= 1e-10 * energy[0])

    def test_displacement_velocity_relation(self, mesh8, elastic_soft,
                                            kernel_sec6, downward_traction):
        sys_ = assemble(mesh8, elastic_soft, traction=downward_traction)
        grid = TimeGrid.uniform(1.0, 16)
        table = build_weights(grid, kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        k = grid.steps
        for n in range(1, 17):
            lhs = hist.U1[n] - hist.U1[n - 1] - k[n - 1] * hist.U2[n]
            assert np.max(np.abs(lhs)) <= 1e-12

    def test_constrained_dofs_zero_throughout(self, mesh8, elastic_soft,
                                              kernel_sec6, downward_traction):
        sys_ = assemble(mesh8, elastic_soft, traction=downward_traction)
        grid = TimeGrid.uniform(1.0, 8)
        table = build_weights(grid, kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        assert np.all(hist.U1[:, sys_.constrained_dofs] == 0.0)
        assert np.all(hist.U2[:, sys_.constrained_dofs] == 0.0)

    def test_single_step_against_dense_solve(self, kernel_sec6,
                                             downward_traction):
        # one step from rest: U2_1 = [M + k(k - w11) K]^{-1} k Gbar
        mesh = build_rect_mesh(1, 1)
        ep = ElasticParams(2.0, 1.0, 5.0)
        sys_ = assemble(mesh, ep, traction=downward_traction)
        grid = TimeGrid.uniform(0.5, 1)
        table = build_weights(grid, kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        k = grid.steps[0]
        co = k - table.omega[0, 0]
        a = (sys_.Mff + k * co * sys_.Kff).toarray()
        u2 = np.linalg.solve(a, k * sys_.load)
        assert sys_.restrict(hist.U2[1]) == pytest.approx(u2, rel=1e-12)
        assert sys_.restrict(hist.U1[1]) == pytest.approx(k * u2, rel=1e-12)

    def test_matches_scalar_model_on_one_dof(self, kernel_sec6,
                                             downward_traction):
        # acceptance-style cross check on a short horizon
        mesh = build_rect_mesh(1, 1)
        ep = ElasticParams(1.0, 1.0, 3.0)
        sys_ = assemble(mesh, ep, traction=downward_traction,
                        extra_fixed_dofs=[2, 3, 6])  # leave only dof 7
        assert sys_.free_dofs.tolist() == [7]
        grid = TimeGrid.uniform(2.0, 50)
        table = build_weights(grid, kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        m = ScalarModel(rho=float(sys_.Mff.toarray()[0, 0]),
                        kappa=float(sys_.Kff.toarray()[0, 0]),
                        kernel=kernel_sec6,
                        load=float(sys_.load[0]),
                        u0=0.0, v0=0.0)
        trace = scalar_dg0(m, table)
        assert hist.U1[:, 7] == pytest.approx(trace.u1, abs=1e-12)

    def test_self_convergence_under_step_halving(self, mesh8, elastic_soft,
                                                 kernel_sec6,
                                                 downward_traction):
        sys_ = assemble(mesh8, elastic_soft, traction=downward_traction)
        probe = 2 * mesh8.nearest_vertex((1.0, 1.0)) + 1
        z = np.zeros(sys_.n_dofs)
        finals = []
        for n in (8, 16, 32, 64):
            grid = TimeGrid.uniform(2.0, n)
            table = build_weights(grid, kernel_sec6)
            hist = run(sys_, table, z, z)
            finals.append(hist.U1[-1, probe])
        diffs = np.abs(np.diff(finals))
        assert diffs[1] < diffs[0]
        assert diffs[2] < diffs[1]

    def test_initial_data_constraint_violation_rejected(self, mesh8,
                                                        elastic_soft,
                                                        kernel_sec6):
        sys_ = assemble(mesh8, elastic_soft)
        grid = TimeGrid.uniform(1.0, 4)
        table = build_weights(grid, kernel_sec6)
        bad = np.ones(sys_.n_dofs)
        with pytest.raises(ValueError, match="constraints"):
            run(sys_, table, bad, np.zeros(sys_.n_dofs))

    def test_initial_data_shape_checked(self, elastic_soft, kernel_sec6):
        sys_ = assemble(build_rect_mesh(2, 2), elastic_soft)
        table = build_weights(TimeGrid.uniform(1.0, 4), kernel_sec6)
        n = sys_.n_dofs
        z = np.zeros(n)
        for bad in (np.zeros(n + 1), np.zeros(n - 1), np.zeros((1, n)),
                    np.zeros(sys_.free_dofs.size), 0.0):
            for u0, v0, name in ((bad, z, "u0"), (z, bad, "v0")):
                with pytest.raises(ValueError,
                                   match=rf"{name} must have shape \({n},\)"):
                    run(sys_, table, u0, v0)

    def test_probe_trace_shape(self, mesh8, elastic_soft, kernel_sec6,
                               downward_traction):
        sys_ = assemble(mesh8, elastic_soft, traction=downward_traction)
        grid = TimeGrid.uniform(1.0, 8)
        table = build_weights(grid, kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        vertex = mesh8.nearest_vertex((1.0, 1.0))
        hist = run(sys_, table, z, z)
        trace = hist.probe_trace(vertex)
        assert trace.shape == (9, 4)

    def test_nonuniform_grid_runs(self, mesh8, elastic_soft, kernel_sec6,
                                  downward_traction, rng):
        sys_ = assemble(mesh8, elastic_soft, traction=downward_traction)
        k = rng.uniform(0.5, 2.0, 12)
        k *= 1.0 / k.sum()
        grid = TimeGrid(np.concatenate([[0.0], np.cumsum(k)]))
        table = build_weights(grid, kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        assert np.all(np.isfinite(hist.U1))

    def test_holds_only_its_two_histories(self, kernel_sec6, elastic_soft):
        # 16x16 with N = 4096: 17.8 MB per history; the history sums add up
        # in the velocity rows, so no third array of that size is built
        sys_ = assemble(build_rect_mesh(16, 16), elastic_soft)
        table = build_weights(TimeGrid.uniform(4.0, 4096), kernel_sec6)
        rng = np.random.default_rng(2)
        v0 = sys_.expand(rng.standard_normal(sys_.free_dofs.size))
        tracemalloc.start()
        try:
            hist = run(sys_, table, np.zeros_like(v0), v0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.u1f.nbytes > 17e6
        assert peak < 2 * hist.u1f.nbytes + 8e6

    def test_graded_grid_holds_one_factorization(self, kernel_sec6,
                                                 elastic_soft):
        # every step of a graded grid has its own step matrix; a run that
        # kept each factorization peaked at 34 MB here (16x16, nf = 544,
        # N = 128, 1.1 MB of histories), one live factorization at 1.7 MB;
        # the bound is the histories plus 2 MB, 3.1 MB
        sys_ = assemble(build_rect_mesh(16, 16), elastic_soft,
                        traction=side_traction({"right": (0.0, -1.0)}))
        n_steps = 128
        grid = TimeGrid((np.arange(n_steps + 1) / n_steps) ** 2)
        table = build_weights(grid, kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        tracemalloc.start()
        try:
            hist = run(sys_, table, z, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.any(hist.u1f)
        assert peak < 2 * hist.u1f.nbytes + 2e6


class TestBandOrder:
    """``assemble`` numbers the free dofs in band order; renumbered in
    sorted order, a run gives the same histories and ledger to roundoff."""

    @pytest.mark.parametrize("nx", [8, 25])
    def test_matches_sorted_order(self, kernel_sec6, elastic_soft,
                                  downward_traction, monkeypatch, nx):
        # squares wider than 16 steps go through the FFT, so those permute
        # their columns too
        monkeypatch.setattr(stepper, "DIRECT_BLOCK", 16)
        n_steps = 128
        sys_ = assemble(build_rect_mesh(nx, nx), elastic_soft,
                        volume=(0.2, 0.1), traction=downward_traction)
        ref = sorted_order(sys_)
        table = build_weights(TimeGrid.uniform(2.0, n_steps), kernel_sec6)
        rng = np.random.default_rng(nx)
        u0, v0 = (sys_.expand(rng.standard_normal(sys_.free_dofs.size))
                  for _ in range(2))
        got, want = run(sys_, table, u0, v0), run(ref, table, u0, v0)
        for name in ("U1", "U2"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name
        terms, ref_terms = energy_ledger(got), energy_ledger(want)
        scale = abs(ref_terms.lhs_total)
        for (name, x), (_, y) in zip(terms.rows()[:-1],
                                     ref_terms.rows()[:-1]):
            assert abs(x - y) <= 1e-13 * scale, name
        assert terms.residual_rel <= 1e-13

    def test_stored_entry_order_survives(self, mesh8, elastic_soft,
                                         kernel_sec6, downward_traction):
        # the products are bitwise those of the sorted order only while
        # each row of Kff and Mff keeps the stored order of K and M: an
        # in-place sort_indices anywhere on the way would break that
        sys_ = assemble(mesh8, elastic_soft, traction=downward_traction)
        mats = (sys_.Kff, sys_.Mff)
        before = [(a.indptr.copy(), a.indices.copy(), a.data.copy())
                  for a in mats]
        table = build_weights(TimeGrid.uniform(1.0, 16), kernel_sec6)
        u0 = quasi_static_solve(sys_)
        energy_ledger(run(sys_, table, u0, np.zeros_like(u0)))
        for a, arrays in zip(mats, before):
            assert not a.has_sorted_indices
            for got, want in zip((a.indptr, a.indices, a.data), arrays):
                assert np.array_equal(got, want)


class TestSolutionHistory:
    @staticmethod
    def run4(kernel, elastic, traction):
        mesh = build_rect_mesh(4, 4)
        sys_ = assemble(mesh, elastic, traction=traction)
        grid = TimeGrid.uniform(1.0, 12)
        z = np.zeros(sys_.n_dofs)
        return mesh, sys_, run(sys_, build_weights(grid, kernel), z, z)

    def test_lazy_expansion_bitwise(self, kernel_sec6, elastic_soft,
                                    downward_traction):
        _, sys_, hist = self.run4(kernel_sec6, elastic_soft,
                                  downward_traction)
        assert hist.u1f.shape == hist.u2f.shape == (13, sys_.free_dofs.size)
        assert "U1" not in vars(hist) and "U2" not in vars(hist)
        u1, u2 = hist.U1, hist.U2
        assert np.array_equal(u1, sys_.expand(hist.u1f))
        assert np.array_equal(u2, sys_.expand(hist.u2f))
        assert hist.U1 is u1 and hist.U2 is u2      # expanded once, cached

    def test_probe_trace_equals_full_columns(self, kernel_sec6, elastic_soft,
                                             downward_traction):
        mesh, _, hist = self.run4(kernel_sec6, elastic_soft,
                                  downward_traction)
        clamped = np.flatnonzero(mesh.vertices[:, 0] == 0.0)
        assert clamped.size == 5
        for vertex in range(mesh.vertices.shape[0]):
            i = 2 * vertex
            full = np.column_stack([hist.U1[:, i], hist.U1[:, i + 1],
                                    hist.U2[:, i], hist.U2[:, i + 1]])
            trace = hist.probe_trace(vertex)
            assert np.array_equal(trace, full)
            if vertex in clamped:
                assert np.all(trace == 0.0)
            else:
                assert np.any(trace != 0.0)

    def test_run_keeps_its_system_and_table(self, kernel_sec6, elastic_soft,
                                            downward_traction):
        mesh = build_rect_mesh(4, 4)
        sys_ = assemble(mesh, elastic_soft, traction=downward_traction)
        table = build_weights(TimeGrid.uniform(1.0, 12), kernel_sec6)
        z = np.zeros(sys_.n_dofs)
        hist = run(sys_, table, z, z)
        assert hist.system is sys_
        assert hist.table is table
        assert hist.times is table.grid.nodes

    def test_wrong_shape_rejected(self, kernel_sec6, elastic_soft,
                                  downward_traction):
        _, sys_, hist = self.run4(kernel_sec6, elastic_soft,
                                  downward_traction)
        good = hist.u1f
        for bad in (good[:-1], good[:, :-1], good[0], np.zeros((14, 0))):
            with pytest.raises(ValueError, match="shape"):
                stepper.SolutionHistory(u1f=bad, u2f=good, system=sys_,
                                        table=hist.table)
            with pytest.raises(ValueError, match="shape"):
                stepper.SolutionHistory(u1f=good, u2f=bad, system=sys_,
                                        table=hist.table)
        stepper.SolutionHistory(u1f=good, u2f=hist.u2f, system=sys_,
                                table=hist.table)
