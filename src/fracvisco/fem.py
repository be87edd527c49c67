"""P1 vector finite elements on structured rectangle triangulations.

Assembles the linear-elasticity stiffness a(v,w) = int 2 mu eps(v):eps(w)
+ lambda tr eps(v) tr eps(w) and the rho-weighted consistent mass on
piecewise-linear triangles, with Dirichlet handling by symmetric elimination
so the reduced operators stay SPD.  ``assemble`` numbers the free dofs once,
in reverse Cuthill-McKee order (Cuthill & McKee, 1969) of the pattern of
M + K, which every dG(0) step matrix M + c K shares; on ``build_rect_mesh``
meshes that gives a half-bandwidth of about 2 (min(nx, ny) + 1) (17 at 8x8,
35 at 16x16, 53 at 25x25), so ``solvers.SpdSolver`` factors the matrices as
they are given.  On that order it forms the free-dof operators ``Kff``/``Mff``
once, next to the full ``K``/``M``, and the free-dof load vector ``load`` of
a constant body force and constant per-side edge tractions; ``restrict`` and
``expand`` move vectors between the two sizes.  Degrees of freedom of the
full vectors interleave as (ux_0, uy_0, ux_1, uy_1, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .solvers import make_spd_solver

__all__ = [
    "Mesh",
    "ElasticParams",
    "AssembledSystem",
    "build_rect_mesh",
    "assemble",
    "traction_load",
    "volume_load",
    "quasi_static_solve",
    "side_traction",
]

# boundary side ids for structured rectangles; an edge of side SIDE_LEFT is
# clamped, every other boundary edge is free to take a traction
SIDE_LEFT, SIDE_RIGHT, SIDE_BOTTOM, SIDE_TOP = 0, 1, 2, 3
SIDE_NAMES = {"left": SIDE_LEFT, "right": SIDE_RIGHT,
              "bottom": SIDE_BOTTOM, "top": SIDE_TOP}


@dataclass(frozen=True)
class ElasticParams:
    """Lame constants mu, lam (Pa) and mass density rho (kg/m^3)."""

    mu: float
    lam: float
    rho: float

    def __post_init__(self):
        for name in ("mu", "lam", "rho"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass
class Mesh:
    vertices: np.ndarray       # (nv, 2) float
    triangles: np.ndarray      # (nt, 3) int, counterclockwise
    boundary_edges: np.ndarray  # (ne, 2) int vertex pairs
    edge_sides: np.ndarray     # (ne,) side id; SIDE_LEFT edges are clamped

    def __post_init__(self):
        areas = self.signed_areas()
        if not np.all(areas > 0.0):
            raise ValueError("all triangles must be counterclockwise")

    def signed_areas(self):
        v = self.vertices[self.triangles]
        return 0.5 * ((v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
                      - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1]))

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    def dirichlet_vertices(self):
        edges = self.boundary_edges[self.edge_sides == SIDE_LEFT]
        return np.unique(edges)

    def nearest_vertex(self, point, tol=1e-9):
        """Index of the vertex closest to ``point``; warns beyond ``tol``.
        Raises ValueError for a point that is not finite."""
        import warnings

        if not np.isfinite(point).all():
            raise ValueError(f"probe point {tuple(point)} is not finite")
        d = np.hypot(self.vertices[:, 0] - point[0],
                     self.vertices[:, 1] - point[1])
        idx = int(np.argmin(d))
        if d[idx] > tol:
            warnings.warn(
                f"probe point {tuple(point)} snapped to vertex {idx} at "
                f"distance {d[idx]:.3e}", stacklevel=2)
        return idx


def build_rect_mesh(nx, ny, lx=1.0, ly=1.0):
    """Uniform nx-by-ny grid on [0,lx]x[0,ly], cells split along one diagonal.

    Edges on x = 0 have side SIDE_LEFT, so they are clamped.
    """
    if nx < 1 or ny < 1:
        raise ValueError("need nx, ny >= 1")
    if not (0.0 < lx < np.inf and 0.0 < ly < np.inf):
        raise ValueError(f"need finite lx, ly > 0, got {lx}, {ly}")
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    xx, yy = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    # vertex (i, j) is j * (nx + 1) + i; cell (i, j), row by row, gives the
    # triangles (v00, v10, v11) and (v00, v11, v01)
    row = nx + 1
    v00 = (np.arange(ny)[:, None] * row + np.arange(nx)).ravel()
    triangles = np.column_stack([v00, v00 + 1, v00 + row + 1,
                                 v00, v00 + row + 1, v00 + row]).reshape(-1, 3)
    # the left and right edge of each row of cells, then the bottom and top
    # edge of each column
    left = np.arange(ny) * row
    bottom = np.arange(nx)
    starts = np.concatenate([np.column_stack([left, left + nx]).ravel(),
                             np.column_stack([bottom, bottom + ny * row]).ravel()])
    steps = np.repeat([row, 1], [2 * ny, 2 * nx])
    sides = np.concatenate([np.tile([SIDE_LEFT, SIDE_RIGHT], ny),
                            np.tile([SIDE_BOTTOM, SIDE_TOP], nx)])
    return Mesh(vertices=vertices,
                triangles=triangles.astype(np.int32),
                boundary_edges=np.column_stack(
                    [starts, starts + steps]).astype(np.int32),
                edge_sides=sides.astype(np.int8))


def _element_matrices(mesh, ep):
    v = mesh.vertices[mesh.triangles]            # (nt, 3, 2)
    x, y = v[..., 0], v[..., 1]
    area = mesh.signed_areas()
    # gradients of the barycentric basis
    bx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                  axis=1) / (2.0 * area)[:, None]
    by = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                  axis=1) / (2.0 * area)[:, None]
    nt = area.size
    bmat = np.zeros((nt, 3, 6))
    bmat[:, 0, 0::2] = bx
    bmat[:, 1, 1::2] = by
    bmat[:, 2, 0::2] = by
    bmat[:, 2, 1::2] = bx
    mu, lam = ep.mu, ep.lam
    dmat = np.array([[2 * mu + lam, lam, 0.0],
                     [lam, 2 * mu + lam, 0.0],
                     [0.0, 0.0, mu]])
    ke = np.einsum("tia,ij,tjb,t->tab", bmat, dmat, bmat, area, optimize=True)
    m_scalar = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    me = np.zeros((nt, 6, 6))
    for comp in range(2):
        me[:, comp::2, comp::2] = (ep.rho * area)[:, None, None] * m_scalar
    return ke, me


def _scatter(mesh, elem):
    nt = elem.shape[0]
    dofs = np.empty((nt, 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * mesh.triangles
    dofs[:, 1::2] = 2 * mesh.triangles + 1
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    ndof = 2 * mesh.n_vertices
    mat = sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(ndof, ndof))
    return mat.tocsr()


@dataclass
class AssembledSystem:
    """Stiffness, mass, load and constraint data for one mesh/material pair."""

    mesh: Mesh
    K: sp.csr_matrix
    M: sp.csr_matrix
    constrained_dofs: np.ndarray
    free_dofs: np.ndarray     # in band order, not sorted
    Kff: sp.csr_matrix        # K and M with both indices on free_dofs
    Mff: sp.csr_matrix
    load: np.ndarray          # (f, v) + (g, v) on the free dofs

    @property
    def n_dofs(self):
        return self.K.shape[0]

    def restrict(self, full):
        """Free-dof values (last axis) of full-size vectors."""
        return np.asarray(full)[..., self.free_dofs]

    def expand(self, reduced):
        """Scatter free-dof values (last axis) into zero-filled full vectors."""
        reduced = np.asarray(reduced)
        full = np.zeros(reduced.shape[:-1] + (self.n_dofs,))
        full[..., self.free_dofs] = reduced
        return full


def assemble(mesh, ep, volume=None, traction=None, extra_fixed_dofs=None):
    """Assemble stiffness, mass and load; Dirichlet set from side SIDE_LEFT.

    ``volume`` is a constant body force (fx, fy) and ``traction`` a
    ``side_traction`` table; either may be None (no load).
    ``extra_fixed_dofs`` pins additional dof indices (used to cut a system
    down to a small number of unknowns in verification setups).  The free
    dofs come in band order (see the module docstring); ``Kff``, ``Mff``
    and ``load`` follow it.
    """
    ke, me = _element_matrices(mesh, ep)
    K = _scatter(mesh, ke)
    M = _scatter(mesh, me)
    dv = mesh.dirichlet_vertices()
    fixed = np.concatenate([2 * dv, 2 * dv + 1])
    if extra_fixed_dofs is not None:
        fixed = np.concatenate([fixed, np.asarray(extra_fixed_dofs,
                                                  dtype=np.int64)])
    if fixed.size == 0:
        raise ValueError("empty Dirichlet set: stiffness would be singular")
    fixed = np.unique(fixed)
    ndof = 2 * mesh.n_vertices
    free = np.setdiff1d(np.arange(ndof), fixed)
    if free.size == 0:
        raise ValueError("every dof is fixed: no unknowns to solve for")
    # band order of the sorted free dofs; indexing K and M by it keeps each
    # row's stored entry order, so their products add the same terms in the
    # same order as on the sorted dofs
    free = free[reverse_cuthill_mckee((M + K)[free][:, free],
                                      symmetric_mode=True)]
    load = np.zeros(ndof)
    if volume is not None:
        load += volume_load(mesh, volume)
    if traction is not None:
        load += traction_load(mesh, traction)
    return AssembledSystem(mesh=mesh, K=K, M=M, constrained_dofs=fixed,
                           free_dofs=free, Kff=K[free][:, free].tocsr(),
                           Mff=M[free][:, free].tocsr(), load=load[free])


def traction_load(mesh, table):
    """Nodal load of the per-side traction ``table`` (a ``side_traction``)
    on the edges not of side SIDE_LEFT (clamped): half of each edge's length
    times its side's traction at each of its two endpoints."""
    sel = mesh.edge_sides != SIDE_LEFT
    edges = mesh.boundary_edges[sel]
    pa = mesh.vertices[edges[:, 0]]
    pb = mesh.vertices[edges[:, 1]]
    half = 0.5 * np.hypot(*(pb - pa).T)
    nodal = half[:, None] * np.asarray(table)[mesh.edge_sides[sel]]
    dofs = 2 * edges.T[..., None] + [0, 1]
    return np.bincount(dofs.ravel(),
                       np.broadcast_to(nodal, dofs.shape).ravel(),
                       minlength=2 * mesh.n_vertices)


def volume_load(mesh, vec):
    """Nodal load of the constant body force ``vec`` = (fx, fy): a third of
    each triangle's area times ``vec`` at each of its vertices."""
    contrib = (mesh.signed_areas() / 3.0)[:, None] * np.asarray(
        vec, dtype=np.float64)
    # each dof sums its terms in triangle order, first vertices before
    # second and third ones; the order fixes the last bits of the load
    dofs = 2 * mesh.triangles.T[..., None] + [0, 1]
    return np.bincount(dofs.ravel(),
                       np.broadcast_to(contrib, dofs.shape).ravel(),
                       minlength=2 * mesh.n_vertices)


def side_traction(spec):
    """The (4, 2) per-side traction table of {side name: (gx, gy)}, rows in
    side-id order; zero on the sides ``spec`` leaves out.  Only the sides
    right, bottom and top take a traction: an edge of side left is clamped."""
    table = np.zeros((4, 2))
    for name, vec in spec.items():
        if SIDE_NAMES.get(name) in (None, SIDE_LEFT):
            raise ValueError(f"no traction on side {name!r}: only right, "
                             f"bottom and top are Neumann sides")
        table[SIDE_NAMES[name]] = vec
    return table


def quasi_static_solve(sys: AssembledSystem, scale=1.0):
    """Solve scale * a(u, v) = (f, v) + (g, v) for the static displacement.

    With scale = 1 - gamma this is the fully relaxed long-time limit of the
    viscoelastic problem under constant loads.
    """
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    solver = make_spd_solver(scale * sys.Kff)
    return sys.expand(solver.solve(sys.load))
