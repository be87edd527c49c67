import numpy as np
import pytest

from fracvisco.fem import (SIDE_BOTTOM, SIDE_LEFT, SIDE_TOP, ElasticParams,
                           Mesh, assemble, build_rect_mesh, quasi_static_solve,
                           side_traction, traction_load, volume_load)
from fracvisco.solvers import (SolverError, SpdSolver, csr_product,
                               make_spd_solver)
from oracles import sorted_order


def half_bandwidth(a):
    coo = a.tocoo()
    return int(np.abs(coo.row - coo.col).max(initial=0))


class TestMesh:
    def test_single_cell_counts(self):
        m = build_rect_mesh(1, 1)
        assert m.triangles.shape[0] == 2
        assert m.n_vertices == 4
        dir_edges = m.boundary_edges[m.edge_sides == SIDE_LEFT]
        assert dir_edges.shape[0] == 1  # one edge on x = 0 for ny = 1
        assert np.all(m.vertices[np.unique(dir_edges)][:, 0] == 0.0)

    def test_8x8_geometry(self):
        m = build_rect_mesh(8, 8)
        assert m.triangles.shape[0] == 128

    def test_positive_areas_and_boundary_cover(self):
        m = build_rect_mesh(3, 5, 2.0, 1.0)
        assert np.all(m.signed_areas() > 0.0)
        assert m.boundary_edges.shape[0] == 2 * (3 + 5)

    def test_2x1_arrays(self):
        # pins the order of vertices, triangles and boundary edges: left and
        # right edge per row of cells, then bottom and top per column
        m = build_rect_mesh(2, 1)
        assert np.array_equal(m.vertices, [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0],
                                           [0.0, 1.0], [0.5, 1.0], [1.0, 1.0]])
        want = {"triangles": [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4]],
                "boundary_edges": [[0, 3], [2, 5], [0, 1], [3, 4], [1, 2],
                                   [4, 5]],
                "edge_sides": [0, 1, 2, 3, 2, 3]}
        for name, dtype in (("triangles", np.int32),
                            ("boundary_edges", np.int32),
                            ("edge_sides", np.int8)):
            got = getattr(m, name)
            assert got.dtype == dtype, name
            assert np.array_equal(got, want[name]), name

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_rect_mesh(0, 1)
        with pytest.raises(ValueError):
            build_rect_mesh(1, 1, -1.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lengths_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            build_rect_mesh(2, 2, bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            build_rect_mesh(2, 2, 1.0, bad)
        m = build_rect_mesh(1, 1)
        vertices = m.vertices.copy()
        vertices[3, 0] = np.nan     # one triangle's area becomes nan
        with pytest.raises(ValueError, match="counterclockwise"):
            Mesh(vertices, m.triangles, m.boundary_edges, m.edge_sides)

    def test_probe_snapping_warns(self):
        m = build_rect_mesh(2, 2)
        assert m.nearest_vertex((1.0, 1.0)) == 8
        with pytest.warns(UserWarning, match="snapped"):
            m.nearest_vertex((0.51, 0.52))

    @pytest.mark.parametrize("point", [(np.nan, 0.5), (np.inf, 0.5),
                                       (0.5, -np.inf)])
    def test_non_finite_probe_rejected(self, point):
        # a NaN point used to snap to vertex 0 without a warning
        with pytest.raises(ValueError, match="not finite"):
            build_rect_mesh(2, 2).nearest_vertex(point)


class TestAssembly:
    def test_rigid_translations_annihilated(self, loaded_system8):
        n = loaded_system8.n_dofs
        for comp in range(2):
            v = np.zeros(n)
            v[comp::2] = 1.0
            assert np.max(np.abs(loaded_system8.K @ v)) <= 1e-12

    def test_mass_total(self, loaded_system8, elastic_soft):
        n = loaded_system8.n_dofs
        ones = np.zeros(n)
        ones[0::2] = 1.0
        total = ones @ (loaded_system8.M @ ones)
        assert total == pytest.approx(elastic_soft.rho * 1.0 * 1.0, rel=1e-12)

    def test_symmetry(self, loaded_system8):
        assert abs(loaded_system8.K - loaded_system8.K.T).max() <= 1e-14
        assert abs(loaded_system8.M - loaded_system8.M.T).max() <= 1e-14

    def test_reduced_matrices_spd(self, loaded_system8):
        np.linalg.cholesky(loaded_system8.Kff.toarray())
        np.linalg.cholesky(loaded_system8.Mff.toarray())

    def test_energy_against_element_quadrature(self, mesh8, elastic_soft, rng):
        # v^T K w both by assembly and by per-element midpoint quadrature of
        # the strain-energy integrand (exact for P1)
        sys_ = assemble(mesh8, elastic_soft)
        v = rng.standard_normal(sys_.n_dofs)
        w = rng.standard_normal(sys_.n_dofs)
        total = 0.0
        mu, lam = elastic_soft.mu, elastic_soft.lam
        for tri in mesh8.triangles:
            pts = mesh8.vertices[tri]
            e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
            area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
            grads = np.linalg.solve(
                np.column_stack([np.ones(3), pts]),
                np.eye(3))[1:, :]                      # (2, 3) basis gradients

            def strain(coeff):
                g = np.zeros((2, 2))
                for loc, vtx in enumerate(tri):
                    g[:, 0] += coeff[2 * vtx] * grads[:, loc]
                    g[:, 1] += coeff[2 * vtx + 1] * grads[:, loc]
                return 0.5 * (g + g.T)

            ev, ew = strain(v), strain(w)
            total += area * (2 * mu * np.tensordot(ev, ew)
                             + lam * np.trace(ev) * np.trace(ew))
        assert v @ (sys_.K @ w) == pytest.approx(total, rel=1e-12)

    def test_linear_field_energy(self, mesh8, elastic_soft, rng):
        # u(x) = B x has constant strain; energy = area * (2 mu |eps|^2 + lam tr^2)
        sys_ = assemble(mesh8, elastic_soft)
        bmat = rng.standard_normal((2, 2))
        u = np.zeros(sys_.n_dofs)
        u[0::2] = mesh8.vertices @ bmat[0]
        u[1::2] = mesh8.vertices @ bmat[1]
        eps = 0.5 * (bmat + bmat.T)
        expect = (2 * elastic_soft.mu * np.sum(eps * eps)
                  + elastic_soft.lam * np.trace(eps) ** 2) * 1.0
        assert u @ (sys_.K @ u) == pytest.approx(expect, rel=1e-12)

    def test_deterministic(self, mesh8, elastic_soft):
        a = assemble(mesh8, elastic_soft)
        b = assemble(mesh8, elastic_soft)
        assert np.array_equal(a.K.data, b.K.data)
        assert np.array_equal(a.M.data, b.M.data)


class TestBandOrder:
    @pytest.mark.parametrize("nx,bw", [(8, 17), (16, 35), (25, 53)])
    def test_half_bandwidth(self, nx, bw):
        sys_ = assemble(build_rect_mesh(nx, nx),
                        ElasticParams(1e5, 1e5, 3000.0))
        assert half_bandwidth(sys_.Kff) == half_bandwidth(sys_.Mff) == bw
        free = np.setdiff1d(np.arange(sys_.n_dofs), sys_.constrained_dofs)
        assert np.array_equal(np.sort(sys_.free_dofs), free)

    @pytest.mark.parametrize("nx,ny", [(8, 8), (25, 25), (40, 3)])
    def test_order_of_every_step_matrix(self, nx, ny):
        # the band order is the reverse Cuthill-McKee order of every step
        # matrix M + c K on the sorted free dofs
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        sys_ = assemble(build_rect_mesh(nx, ny),
                        ElasticParams(1e5, 1e5, 3000.0))
        ref = sorted_order(sys_)
        k = 40.0 / 2560
        for c in (0.9 * k * k, 1e-9, 1.0, 1e3):
            perm = reverse_cuthill_mckee(ref.Mff + c * ref.Kff,
                                         symmetric_mode=True)
            assert np.array_equal(ref.free_dofs[perm], sys_.free_dofs), c

    @pytest.mark.parametrize("nx,ny", [(8, 8), (25, 25), (40, 3)])
    def test_rows_keep_stored_order_and_products_bitwise(self, nx, ny, rng):
        # each row of Kff and Mff stores its entries in the order of the
        # full matrix, so a product adds the same terms in the same order as
        # on the sorted free dofs
        sys_ = assemble(build_rect_mesh(nx, ny),
                        ElasticParams(1e5, 1e5, 3000.0))
        ref = sorted_order(sys_)
        x = rng.standard_normal(sys_.n_dofs)
        for name in ("Kff", "Mff"):
            a = getattr(sys_, name)
            labels = sys_.free_dofs[a.indices]      # columns of K and M
            ptr = a.indptr
            assert all(np.all(np.diff(labels[ptr[r]:ptr[r + 1]]) > 0)
                       for r in range(a.shape[0])), name
            assert not a.has_sorted_indices, name
            got = sys_.expand(csr_product(a)(sys_.restrict(x),
                                             np.empty(sys_.free_dofs.size)))
            want = ref.expand(getattr(ref, name) @ ref.restrict(x))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_no_free_dofs_rejected(self):
        with pytest.raises(ValueError, match="no unknowns"):
            assemble(build_rect_mesh(1, 1), ElasticParams(1.0, 1.0, 1.0),
                     extra_fixed_dofs=np.arange(8))


class TestLoads:
    def test_traction_total_force(self, mesh8, downward_traction):
        load = traction_load(mesh8, downward_traction)
        assert load[0::2].sum() == pytest.approx(0.0, abs=1e-15)
        assert load[1::2].sum() == pytest.approx(-1.0, rel=1e-14)

    def test_traction_zero(self, mesh8):
        g = side_traction({})
        assert np.all(traction_load(mesh8, g) == 0.0)

    @pytest.mark.parametrize("side", ["left", "Right", "north"])
    def test_traction_only_on_neumann_sides(self, side):
        # x = 0 is clamped, so a traction there would be dropped; an
        # unknown name is no side at all
        with pytest.raises(ValueError, match=f"side {side!r}"):
            side_traction({"right": (0.0, -1.0), side: (1.0, 0.0)})

    def test_traction_refinement_invariant(self, downward_traction):
        totals = []
        for nx in (2, 4):
            m = build_rect_mesh(nx, nx)
            load = traction_load(m, downward_traction)
            totals.append((load[0::2].sum(), load[1::2].sum()))
        assert totals[0] == pytest.approx(totals[1], abs=1e-14)

    def test_volume_load_total(self, mesh8):
        load = volume_load(mesh8, (0.5, -2.0))
        assert load[0::2].sum() == pytest.approx(0.5, rel=1e-13)
        assert load[1::2].sum() == pytest.approx(-2.0, rel=1e-13)

    def test_assembled_load_matches_plain_loops(self, elastic_soft):
        # every term added one at a time, per dof in the order the
        # assembly fixes: the edges' first endpoints, then their second
        # ones; the triangles' first vertices, then their second and third
        # ones.  Jittered vertices give every term its own value, so a
        # change of the volume terms' order shows in the last bits (a
        # boundary vertex has two traction terms, whose sum has no order).
        grid = build_rect_mesh(3, 2)
        jitter = np.random.default_rng(3).uniform(-0.05, 0.05,
                                                  grid.vertices.shape)
        mesh = Mesh(vertices=grid.vertices + jitter,
                    triangles=grid.triangles,
                    boundary_edges=grid.boundary_edges,
                    edge_sides=grid.edge_sides)
        f = (0.3, -0.7)
        spec = {"right": (0.25, -1.0), "bottom": (-0.5, 0.125),
                "top": (0.75, 0.4)}
        sys_ = assemble(mesh, elastic_soft, volume=f,
                        traction=side_traction(spec))
        side_names = ("left", "right", "bottom", "top")
        traction = np.zeros(2 * mesh.n_vertices)
        for end in (0, 1):
            for edge, side in zip(mesh.boundary_edges, mesh.edge_sides):
                if side == SIDE_LEFT:
                    continue
                pa, pb = mesh.vertices[edge[0]], mesh.vertices[edge[1]]
                half = 0.5 * np.hypot(pb[0] - pa[0], pb[1] - pa[1])
                g = spec.get(side_names[side], (0.0, 0.0))
                for c in range(2):
                    traction[2 * edge[end] + c] += half * g[c]
        volume = np.zeros(2 * mesh.n_vertices)
        areas = np.abs(mesh.signed_areas())
        for local in range(3):
            for tri, area in zip(mesh.triangles, areas):
                w = area / 3.0
                for c in range(2):
                    # the edge-midpoint rule of a constant f
                    volume[2 * tri[local] + c] += 0.5 * (f[c] + f[c]) * w
        expect = (volume + traction)[sys_.free_dofs]
        assert np.any(traction[sys_.free_dofs] != 0.0)
        assert np.array_equal(sys_.load, expect)


class TestDirichlet:
    def test_reduced_spectrum_positive(self):
        m = build_rect_mesh(1, 1)
        sys_ = assemble(m, ElasticParams(1.0, 1.0, 1.0))
        eigs = np.linalg.eigvalsh(sys_.Kff.toarray())
        assert np.all(eigs > 0.0)

    def test_vector_restriction(self, loaded_system8, rng):
        v = rng.standard_normal(loaded_system8.n_dofs)
        vf = loaded_system8.restrict(v)
        assert vf.shape[0] == loaded_system8.free_dofs.size
        back = loaded_system8.expand(vf)
        assert np.all(back[loaded_system8.constrained_dofs] == 0.0)

    def test_empty_dirichlet_rejected(self):
        m = build_rect_mesh(2, 2)
        m.edge_sides[m.edge_sides == SIDE_LEFT] = SIDE_TOP  # nothing clamped
        with pytest.raises(ValueError, match="Dirichlet"):
            assemble(m, ElasticParams(1.0, 1.0, 1.0))

    def test_side_left_label_is_the_clamp(self):
        # relabelling the bottom edges SIDE_LEFT clamps them: their
        # vertices join the Dirichlet set and drop out of the free dofs,
        # and a bottom traction no longer loads anything
        m = build_rect_mesh(2, 2)
        m.edge_sides[m.edge_sides == SIDE_BOTTOM] = SIDE_LEFT
        clamped = np.array([0, 1, 2, 3, 6])  # x = 0 or y = 0 of the 3x3
        assert np.array_equal(m.dirichlet_vertices(), clamped)
        sys_ = assemble(m, ElasticParams(1.0, 1.0, 1.0))
        fixed = np.concatenate([2 * clamped, 2 * clamped + 1])
        assert np.array_equal(np.sort(sys_.free_dofs),
                              np.setdiff1d(np.arange(18), fixed))
        bottom = side_traction({"bottom": (0.5, -1.0)})
        assert not np.any(traction_load(m, bottom))
        top = side_traction({"top": (0.25, 0.75)})
        both = side_traction({"bottom": (0.5, -1.0), "top": (0.25, 0.75)})
        assert np.array_equal(traction_load(m, both), traction_load(m, top))

    def test_hand_assembled_two_dof_system(self, downward_traction):
        # 2-triangle unit square with vertex (1,0) also pinned leaves the
        # two dofs of vertex (1,1); exact rational elimination gives
        # K_red = [[2, 0], [0, 2]] and u = (0, -1/4) under the edge traction
        m = build_rect_mesh(1, 1)
        sys_ = assemble(m, ElasticParams(1.0, 1.0, 1.0),
                        traction=downward_traction,
                        extra_fixed_dofs=[2, 3])
        kred = sys_.Kff.toarray()
        assert kred == pytest.approx(np.array([[2.0, 0.0], [0.0, 2.0]]))
        u = quasi_static_solve(sys_, scale=1.0)
        assert u[6] == pytest.approx(0.0, abs=1e-14)
        assert u[7] == pytest.approx(-0.25, rel=1e-13)


class TestQuasiStatic:
    def test_zero_loads(self, mesh8, elastic_soft):
        sys_ = assemble(mesh8, elastic_soft)
        u = quasi_static_solve(sys_, scale=1.0)
        assert np.all(u == 0.0)

    def test_linearity_in_scale(self, loaded_system8):
        u1 = quasi_static_solve(loaded_system8, scale=1.0)
        u2 = quasi_static_solve(loaded_system8, scale=2.0)
        assert u2 == pytest.approx(0.5 * u1, rel=1e-12)

    def test_invalid_scale(self, loaded_system8):
        with pytest.raises(ValueError):
            quasi_static_solve(loaded_system8, scale=0.0)

    def test_constrained_entries_zero(self, loaded_system8):
        u = quasi_static_solve(loaded_system8, scale=0.5)
        assert np.all(u[loaded_system8.constrained_dofs] == 0.0)


class TestSolvers:
    def test_zero_rhs(self, loaded_system8):
        x = make_spd_solver(loaded_system8.Kff).solve(
            np.zeros(loaded_system8.free_dofs.size))
        assert np.all(x == 0.0)

    def test_norms_keep_the_range_of_the_vector(self):
        # a sum of squares that under- or overflows decides nothing: only
        # an exactly zero b takes the zero shortcut, and a finite b is
        # solved, also where its squares leave the range of a double
        import scipy.sparse as sp

        solver = SpdSolver(sp.identity(4, format="csr"))
        for b in (np.full(4, 1e-170), np.full(4, 1e160), np.full(4, 5e-324)):
            x = solver.solve(b)
            assert np.array_equal(x, b)

    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e160])
    def test_scaled_rhs_same_solution_and_decision(self, loaded_system8,
                                                   monkeypatch, scale):
        # s b solves to s x, accepted, and with a relative error of 1e-8
        # injected into the solution refused with the same backward error
        from fracvisco import solvers

        a = loaded_system8.Mff + 0.3 * loaded_system8.Kff
        b = np.random.default_rng(8).standard_normal(a.shape[0])
        solver = SpdSolver(a)
        x = solver.solve(b)
        got = solver.solve(scale * b)
        assert np.max(np.abs(got - scale * x)) <= 1e-14 * scale * np.max(
            np.abs(x))
        noise = 1.0 + 1e-8 * np.random.default_rng(9).standard_normal(x.size)
        pbtrs = solvers.dpbtrs

        def perturbed(*args, **kwargs):
            y, info = pbtrs(*args, **kwargs)
            return y * noise, info

        monkeypatch.setattr(solvers, "dpbtrs", perturbed)
        etas = []
        for s in (1.0, scale):
            with pytest.raises(SolverError, match="exceeds tolerance") as err:
                solver.solve(s * b)
            etas.append(err.value.residual)
        assert etas[1] == pytest.approx(etas[0], rel=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_raises(self, loaded_system8, bad):
        a = loaded_system8.Kff
        solver = make_spd_solver(a)
        b = np.ones(a.shape[0])
        b[3] = bad
        with pytest.raises(SolverError, match="not finite"):
            solver.solve(b)

    def test_nan_solution_raises(self, loaded_system8):
        a = loaded_system8.Kff
        solver = make_spd_solver(a)
        solver._band = np.full_like(solver._band, np.nan)
        with pytest.raises(SolverError, match="exceeds tolerance") as err:
            solver.solve(np.ones(a.shape[0]))
        assert err.value.residual is not None

    @pytest.mark.parametrize("nx", [8, 64])
    def test_perturbed_solution_rejected(self, elastic_soft,
                                         downward_traction, monkeypatch, nx):
        # the static solve of the unit traction: its backward error sits at
        # roundoff, and a random relative error of 1e-8 in the solution
        # gives about 3e-9, far above the tolerance (2.2e-13 at 8x8, 1.1e-11
        # at 64x64)
        from fracvisco import solvers

        sys_ = assemble(build_rect_mesh(nx, nx), elastic_soft,
                        traction=downward_traction)
        solver = make_spd_solver(sys_.Kff)
        exact = solver.solve(sys_.load)
        a, b = sys_.Kff, sys_.load
        eta = (np.linalg.norm(b - a @ exact)
               / (abs(a).sum(axis=1).max() * np.linalg.norm(exact)
                  + np.linalg.norm(b)))
        assert eta <= 1e-3 * solver.tol
        noise = np.random.default_rng(nx).standard_normal(exact.size)
        pbtrs = solvers.dpbtrs

        def perturbed(*args, **kwargs):
            x, info = pbtrs(*args, **kwargs)
            return x * (1.0 + 1e-8 * noise), info

        monkeypatch.setattr(solvers, "dpbtrs", perturbed)
        with pytest.raises(SolverError, match="exceeds tolerance") as err:
            solver.solve(b)
        assert err.value.residual >= 1e-9

    def test_banded_path_random_spd(self, rng):
        import scipy.sparse as sp

        n = 60
        a = sp.random(n, n, density=0.05, random_state=7)
        a = (a @ a.T + sp.identity(n) * n).tocsr()
        b = rng.standard_normal(n)
        x = make_spd_solver(a).solve(b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    # the "-False" in each id names the consistent (unlumped) mass, as these
    # case ids always have
    @pytest.mark.parametrize("nx,ny", [
        pytest.param(nx, ny, id=f"{nx}-{ny}-False")
        for nx, ny in [(1, 1), (2, 2), (8, 8), (16, 16), (25, 25), (40, 3)]])
    def test_banded_matches_dense(self, nx, ny):
        # the dG(0) step matrix M + k (k - omega_nn) K of the sec6 physics
        from fracvisco.mlf import KernelParams, beta_double_primitive

        sys_ = assemble(build_rect_mesh(nx, ny),
                        ElasticParams(1e5, 1e5, 3000.0))
        k = 40.0 / 2560
        co = k - beta_double_primitive(KernelParams(2.0 / 3.0, 1.0, 0.5), k)
        _assert_matches_dense(sys_.Mff + (k * co) * sys_.Kff, seed=nx * ny)

    @pytest.mark.parametrize("nx", [8, 16, 25])
    def test_band_is_upper_cholesky_factor(self, nx):
        # _band is U of A = U^T U in LAPACK upper band storage,
        # band[bw + i - j, j] = U[i, j]: on the sec6 step matrix U^T U
        # rebuilds A within Higham's Theorem 10.3 bound for a band of
        # half-bandwidth bw, |U^T U - A|_ij <= g(bw + 2) sqrt(a_ii a_jj)
        from fracvisco.mlf import KernelParams, beta_double_primitive

        sys_ = assemble(build_rect_mesh(nx, nx),
                        ElasticParams(1e5, 1e5, 3000.0))
        k = 40.0 / 2560
        co = k - beta_double_primitive(KernelParams(2.0 / 3.0, 1.0, 0.5), k)
        a = sys_.Mff + (k * co) * sys_.Kff
        solver = SpdSolver(a)
        band = solver._band
        bw, n = band.shape[0] - 1, band.shape[1]
        u = np.zeros((n, n))
        for d in range(bw + 1):
            u[np.arange(n - d), np.arange(d, n)] = band[bw - d, d:]
        dense = a.toarray()
        root = np.sqrt(np.diag(dense))
        g = (bw + 2) * 2.0 ** -53 / (1 - (bw + 2) * 2.0 ** -53)
        assert (np.abs(u.T @ u - dense) / np.outer(root, root)).max() <= g
        rng = np.random.default_rng(nx)
        for _ in range(5):
            b = rng.standard_normal(n)
            x = solver.solve(b)
            eta = np.linalg.norm(b - dense @ x) / (
                np.abs(dense).sum(axis=1).max() * np.linalg.norm(x)
                + np.linalg.norm(b))
            assert eta <= solver.tol

    @pytest.mark.parametrize("diag", [[2.5], [1.0, 3.0, 0.5, 7.0, 2.0]])
    def test_banded_matches_dense_diagonal(self, diag):
        # one unknown, and half-bandwidth 0
        import scipy.sparse as sp

        _assert_matches_dense(sp.diags(diag, format="csr"), seed=len(diag))

    @pytest.mark.parametrize("nx,ny", [(8, 8), (25, 25), (40, 3)])
    def test_factors_in_the_given_order(self, nx, ny):
        # the band holds exactly the half-bandwidth of the matrix as given:
        # the solver reorders neither the band order of assemble nor the
        # sorted order (on the 40x3 mesh 83 against 11)
        sys_ = assemble(build_rect_mesh(nx, ny),
                        ElasticParams(1e5, 1e5, 3000.0))
        k = 40.0 / 2560
        widths = []
        for s in (sys_, sorted_order(sys_)):
            a = s.Mff + (k * 0.9 * k) * s.Kff
            widths.append(half_bandwidth(a))
            solver = SpdSolver(a)
            assert solver._band.shape == (widths[-1] + 1, a.shape[0])
            b = np.random.default_rng(nx).standard_normal(a.shape[0])
            x = solver.solve(b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
        assert widths[0] == half_bandwidth(sys_.Kff)
        if nx == 40:
            assert widths == [11, 83]

    def test_dense_limit_other_than_zero_raises(self, loaded_system8):
        with pytest.raises(ValueError, match="dense_limit"):
            make_spd_solver(loaded_system8.Kff, dense_limit=5)

    @pytest.mark.parametrize("entry,value,match", [
        ((0, 0), -1.0, "not positive definite"),
        ((5, 5), np.nan, "not finite"),
        ((2, 3), np.nan, "not finite")])
    def test_bad_matrix_raises_at_factorization(self, loaded_system8, entry,
                                                value, match):
        a = loaded_system8.Kff.tolil()
        i, j = entry
        a[i, j] = a[j, i] = value
        with pytest.raises(SolverError, match=match):
            make_spd_solver(a.tocsr())


class TestMatvec:
    """``solvers.csr_product`` calls the private ``scipy.sparse._sparsetools``
    kernel; these tests fail if it moves or stops being scipy's ``a @ x``."""

    @staticmethod
    def assert_bitwise(a, seed):
        x = np.random.default_rng(seed).standard_normal(a.shape[1])
        out = np.full(a.shape[0], np.nan)      # the helper must zero it
        got = csr_product(a)(x, out)
        assert got is out
        assert np.array_equal(out.view(np.int64), (a @ x).view(np.int64))

    @pytest.mark.parametrize("nx", [8, 25])
    def test_system_matrices_bitwise(self, nx):
        sys_ = assemble(build_rect_mesh(nx, nx),
                        ElasticParams(1e5, 1e5, 3000.0))
        k = 40.0 / 2560
        step = sys_.Mff + (k * 0.9 * k) * sys_.Kff
        for seed, a in enumerate((sys_.Kff, sys_.Mff, step)):
            self.assert_bitwise(a, seed)

    def test_empty_row_unsorted_columns_bitwise(self):
        import scipy.sparse as sp

        a = sp.csr_matrix((np.array([0.1, -2.5, 3.0, 1e-3, 7.25, -0.5]),
                           np.array([3, 0, 2, 1, 3, 0]),
                           np.array([0, 3, 3, 4, 6])), shape=(4, 4))
        assert not a.has_sorted_indices
        assert a.indptr[1] == a.indptr[2]      # row 1 is empty
        self.assert_bitwise(a, 4)

    def test_coo_and_integer_input_solve(self):
        import scipy.sparse as sp

        dense = np.array([[4, 1, 0], [1, 3, 1], [0, 1, 2]])
        b = np.array([1.0, -2.0, 0.5])
        x_ref = np.linalg.solve(dense.astype(float), b)
        for a in (sp.coo_matrix(dense), sp.csr_matrix(dense)):
            solver = SpdSolver(a)
            assert solver.a.format == "csr"
            assert solver.a.dtype == np.float64
            assert solver.solve(b) == pytest.approx(x_ref, rel=1e-13)


def _assert_matches_dense(a, seed):
    from scipy.linalg import cho_factor, cho_solve

    b = np.random.default_rng(seed).standard_normal(a.shape[0])
    xb = make_spd_solver(a).solve(b)
    xd = cho_solve(cho_factor(a.toarray()), b)
    assert np.linalg.norm(xb - xd) <= 1e-12 * np.linalg.norm(xd)
