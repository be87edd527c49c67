import numpy as np
import pytest

from fracvisco.fem import (DIRICHLET, ElasticParams, apply_dirichlet, assemble,
                           build_rect_mesh, constant_volume,
                           quasi_static_solve, side_traction, traction_load,
                           volume_load)
from fracvisco.solvers import SolverError, make_spd_solver


class TestMesh:
    def test_single_cell_counts(self):
        m = build_rect_mesh(1, 1)
        assert m.triangles.shape[0] == 2
        assert m.n_vertices == 4
        dir_edges = m.boundary_edges[m.edge_tags == DIRICHLET]
        assert dir_edges.shape[0] == 1  # one edge on x = 0 for ny = 1
        assert np.all(m.vertices[np.unique(dir_edges)][:, 0] == 0.0)

    def test_8x8_geometry(self):
        m = build_rect_mesh(8, 8)
        assert m.triangles.shape[0] == 128
        assert m.h == pytest.approx(np.sqrt(2.0) / 8.0)

    def test_16x16_mesh_size(self):
        # matches the reported fine-mesh scale of the benchmark scenario
        m = build_rect_mesh(16, 16)
        assert m.h == pytest.approx(0.0884, abs=5e-4)

    def test_positive_areas_and_boundary_cover(self):
        m = build_rect_mesh(3, 5, 2.0, 1.0)
        assert np.all(m.signed_areas() > 0.0)
        assert m.boundary_edges.shape[0] == 2 * (3 + 5)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_rect_mesh(0, 1)
        with pytest.raises(ValueError):
            build_rect_mesh(1, 1, -1.0, 1.0)

    def test_probe_snapping_warns(self):
        m = build_rect_mesh(2, 2)
        assert m.nearest_vertex((1.0, 1.0)) == 8
        with pytest.warns(UserWarning, match="snapped"):
            m.nearest_vertex((0.51, 0.52))

    def test_csv_export(self):
        m = build_rect_mesh(2, 1)
        v = m.vertices_csv().splitlines()
        assert v[0] == "index,x,y"
        assert len(v) == 1 + m.n_vertices
        t = m.triangles_csv().splitlines()
        assert t[0] == "index,v0,v1,v2"
        assert len(t) == 1 + m.triangles.shape[0]
        b = m.boundary_csv().splitlines()
        assert b[0] == "index,v0,v1,tag,side"
        assert len(b) == 1 + m.boundary_edges.shape[0]


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

    def test_lumped_mass_total_preserved(self, mesh8, elastic_soft):
        sys_ = assemble(mesh8, elastic_soft, lumped=True)
        ones = np.zeros(sys_.n_dofs)
        ones[1::2] = 1.0
        assert ones @ (sys_.M @ ones) == pytest.approx(elastic_soft.rho,
                                                       rel=1e-12)
        # lumped mass is diagonal
        off = sys_.M - (
            __import__("scipy.sparse", fromlist=["diags"]).diags(
                sys_.M.diagonal()))
        assert abs(off).max() == 0.0


class TestLoads:
    def test_traction_total_force(self, mesh8, downward_traction):
        load = traction_load(mesh8, downward_traction)
        assert load[0::2].sum() == pytest.approx(0.0, abs=1e-15)
        assert load[1::2].sum() == pytest.approx(-1.0, rel=1e-14)

    def test_traction_zero(self, mesh8):
        g = side_traction({})
        assert np.all(traction_load(mesh8, g) == 0.0)

    def test_traction_refinement_invariant(self, downward_traction):
        totals = []
        for nx in (2, 4):
            m = build_rect_mesh(nx, nx)
            load = traction_load(m, downward_traction)
            totals.append((load[0::2].sum(), load[1::2].sum()))
        assert totals[0] == pytest.approx(totals[1], abs=1e-14)

    def test_volume_load_total(self, mesh8):
        f = constant_volume((0.5, -2.0))
        load = volume_load(mesh8, f)
        assert load[0::2].sum() == pytest.approx(0.5, rel=1e-13)
        assert load[1::2].sum() == pytest.approx(-2.0, rel=1e-13)


class TestDirichlet:
    def test_reduced_spectrum_positive(self):
        m = build_rect_mesh(1, 1)
        sys_ = assemble(m, ElasticParams(1.0, 1.0, 1.0))
        eigs = np.linalg.eigvalsh(sys_.Kff.toarray())
        assert np.all(eigs > 0.0)

    def test_vector_restriction(self, loaded_system8, rng):
        v = rng.standard_normal(loaded_system8.n_dofs)
        vf = apply_dirichlet(loaded_system8, v)
        assert vf.shape[0] == loaded_system8.free_dofs.size
        back = loaded_system8.expand(vf)
        assert np.all(back[loaded_system8.constrained_dofs] == 0.0)

    def test_empty_dirichlet_rejected(self):
        m = build_rect_mesh(2, 2)
        m.edge_tags[:] = 1  # all Neumann
        with pytest.raises(ValueError, match="Dirichlet"):
            assemble(m, ElasticParams(1.0, 1.0, 1.0))

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
    def test_direct_and_cg_agree(self, loaded_system8, rng):
        a = loaded_system8.Kff
        b = rng.standard_normal(a.shape[0])
        xd = make_spd_solver(a, method="direct").solve(b)
        xc = make_spd_solver(a, method="cg", rtol=1e-11).solve(b)
        assert xc == pytest.approx(xd, rel=1e-7)

    def test_zero_rhs(self, loaded_system8):
        x = make_spd_solver(loaded_system8.Kff).solve(
            np.zeros(loaded_system8.free_dofs.size))
        assert np.all(x == 0.0)

    def test_cg_failure_reports_residual(self, loaded_system8, rng):
        a = loaded_system8.Kff
        solver = make_spd_solver(a, method="cg", rtol=1e-14)
        solver._maxiter = 2  # force nonconvergence
        with pytest.raises(SolverError) as err:
            solver.solve(rng.standard_normal(a.shape[0]))
        assert err.value.residual is not None

    @pytest.mark.parametrize("method", ["direct", "cg"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_raises(self, loaded_system8, method, bad):
        a = loaded_system8.Kff
        solver = make_spd_solver(a, method=method)
        b = np.ones(a.shape[0])
        b[3] = bad
        with pytest.raises(SolverError, match="not finite"):
            solver.solve(b)

    def test_nan_solution_raises(self, loaded_system8):
        a = loaded_system8.Kff
        solver = make_spd_solver(a, method="direct")
        solver._band = np.full_like(solver._band, np.nan)
        with pytest.raises(SolverError, match="exceeds tolerance"):
            solver.solve(np.ones(a.shape[0]))

    def test_banded_path_random_spd(self, rng):
        import scipy.sparse as sp

        n = 60
        a = sp.random(n, n, density=0.05, random_state=7)
        a = (a @ a.T + sp.identity(n) * n).tocsr()
        b = rng.standard_normal(n)
        x = make_spd_solver(a, method="direct").solve(b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("nx,ny,lumped", [(1, 1, False), (2, 2, False),
                                              (8, 8, False), (16, 16, False),
                                              (25, 25, False), (40, 3, False),
                                              (16, 16, True)])
    def test_banded_matches_dense(self, nx, ny, lumped):
        # the dG(0) step matrix M + k (k - omega_nn) K of the sec6 physics
        from fracvisco.mlf import KernelParams, beta_double_primitive

        sys_ = assemble(build_rect_mesh(nx, ny),
                        ElasticParams(1e5, 1e5, 3000.0), lumped=lumped)
        k = 40.0 / 2560
        co = k - beta_double_primitive(KernelParams(2.0 / 3.0, 1.0, 0.5), k)
        _assert_matches_dense(sys_.Mff + (k * co) * sys_.Kff, seed=nx * ny)

    @pytest.mark.parametrize("diag", [[2.5], [1.0, 3.0, 0.5, 7.0, 2.0]])
    def test_banded_matches_dense_diagonal(self, diag):
        # one unknown, and the half-bandwidth 0 of a lumped mass matrix
        import scipy.sparse as sp

        _assert_matches_dense(sp.diags(diag, format="csr"), seed=len(diag))

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


def _assert_matches_dense(a, seed):
    from scipy.linalg import cho_factor, cho_solve

    b = np.random.default_rng(seed).standard_normal(a.shape[0])
    xb = make_spd_solver(a).solve(b)
    xd = cho_solve(cho_factor(a.toarray()), b)
    assert np.linalg.norm(xb - xd) <= 1e-12 * np.linalg.norm(xd)
