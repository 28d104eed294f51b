"""Triangulated spheres, conformal backgrounds, and discrete operators.

The geometric setting is a closed genus-0 triangle mesh whose vertices lie
on the unit sphere.  A per-vertex log conformal factor ``background_factor``
(:math:`\\varphi`) turns the induced round metric into the working metric
``exp(phi) * g_round``.  All operators are assembled once per mesh and
combined with the factor afterwards:

* stiffness ``S``: cotangent weights, symmetric positive semidefinite,
  independent of the conformal factor (two-dimensional conformal invariance
  of the Dirichlet form);
* lumped mass ``M``: one third of the incident flat-triangle areas per
  vertex, multiplied by ``exp(phi)``; the round masses are rescaled by a
  single global factor so they sum to exactly ``4*pi``, which makes the
  discrete Gauss-Bonnet identity exact;
* curvature ``K``: ``exp(-phi) * (1 + (S phi) / (2 M_round))`` per vertex,
  so that ``sum(K * M) == 4*pi`` holds to machine precision by construction.
"""

from __future__ import annotations

import copy
import csv
import heapq
import logging
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree
from scipy.special import sph_harm_y

from .errors import DataError, MeshQualityError, NumericError, ParameterError
from .errors import ResolutionError, _count, _field, _real, _text, _write

logger = logging.getLogger(__name__)

FOUR_PI = 4.0 * np.pi

# Per-vertex real array aligned with mesh.vertices.
ScalarField = np.ndarray

_MAX_LEVEL = 7  # 163842 vertices; one Green solve there peaks near 320 MB
_UNIT_NORM_TOL = 1e-12
_MIN_ANGLE_DEG = 1.0
_LEAF_SIZE = 32  # nested-dissection parts this small are not split


@dataclass(eq=False)
class TriangulatedSphere:
    """Closed oriented genus-0 triangle mesh with a conformal background.

    Attributes
    ----------
    vertices : ndarray of shape (V, 3)
        Unit vectors; the embedding induces the round background metric.
    faces : ndarray of shape (F, 3)
        Vertex indices, counterclockwise as seen from outside.
    background_factor : ndarray of shape (V,)
        Log conformal factor phi; the working metric is exp(phi)*g_round.

    Instances are treated as immutable: do not mutate the arrays in place.
    Each mesh holds one lazily filled record of its geometry's products,
    shared only with the copies :func:`set_conformal_background` makes.
    """

    vertices: np.ndarray
    faces: np.ndarray
    background_factor: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        faces = np.asarray(self.faces)
        if faces.dtype.kind not in "iu":  # a float or bool cast would truncate
            raise DataError(f"faces must be integers, got dtype {faces.dtype}")
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise DataError("vertices must have shape (V, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise DataError("faces must have shape (F, 3)")
        if len(self.faces) == 0:  # chi = V - 0 + 0 could still read 2
            raise DataError("mesh has no faces")
        if not np.isfinite(self.vertices).all():
            raise DataError("vertices contain non-finite entries")
        self.background_factor = _field(
            "background_factor", self.background_factor, len(self.vertices)
        )
        norms = np.linalg.norm(self.vertices, axis=1)
        if np.abs(norms - 1.0).max(initial=0.0) > _UNIT_NORM_TOL:
            raise DataError("vertices must lie on the unit sphere (|v| = 1)")
        if self.faces.min(initial=0) < 0 or self.faces.max(initial=-1) >= len(
            self.vertices
        ):
            raise DataError("face indices out of range")
        self._check_topology()
        self._geometry = _Geometry()  # not a field: copies share it

    def _directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        # Tails and heads of the 3F directed edges, corner k -> k+1 per face.
        return self.faces.ravel(), self.faces[:, [1, 2, 0]].ravel()

    def _check_topology(self):
        # Closed oriented surface: every directed edge appears exactly once,
        # every undirected edge exactly twice, Euler characteristic 2.  An
        # edge (i, j) is the int64 key i*V + j, which sorts like the row.
        n = len(self.vertices)
        tails, heads = self._directed_edges()
        directed = np.sort(tails * n + heads)
        if (directed[1:] == directed[:-1]).any():
            raise DataError("mesh is not consistently oriented (repeated directed edge)")
        undirected = np.minimum(tails, heads) * n + np.maximum(tails, heads)
        _, counts = np.unique(undirected, return_counts=True)
        if not (counts == 2).all():
            raise DataError("mesh is not closed (edge not shared by exactly 2 faces)")
        n_edges = len(counts)
        chi = len(self.vertices) - n_edges + len(self.faces)
        if chi != 2:
            raise DataError(f"Euler characteristic is {chi}, expected 2 (sphere)")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def num_edges(self) -> int:
        return 3 * len(self.faces) // 2

    def edges(self) -> np.ndarray:
        """Unique undirected edges as a sorted (E, 2) index array."""
        # The mesh is closed and oriented, so each edge runs once in each
        # direction and the directed edges with i < j list every edge once.
        n = len(self.vertices)
        tails, heads = self._directed_edges()
        lower = tails < heads
        keys = np.sort(tails[lower] * n + heads[lower])
        return np.stack([keys // n, keys % n], axis=1)


@dataclass(eq=False)
class DiscreteOperators:
    """Assembled operators for one mesh and one conformal background.

    Attributes
    ----------
    mesh : TriangulatedSphere
        Source mesh (kept for vertex positions and re-assembly).
    stiffness : scipy.sparse.csr_matrix
        Cotangent stiffness S, symmetric PSD, zero row sums.
    mass : ndarray (V,)
        Metric lumped masses exp(phi) * round_mass; integration weights.
    round_mass : ndarray (V,)
        Round-metric lumped masses after the global Gauss-Bonnet rescale.
    curvature : ndarray (V,)
        Discrete Gaussian curvature of the working metric.
    total_area : float
        sum(mass), the metric volume.
    flat_area : float
        Total flat triangle area before the Gauss-Bonnet rescale.
    mass_correction : float
        Factor 4*pi / flat_area by which the round masses are always
        rescaled; above 1 on every icosphere.
    mean_edge_length : float
        Average round edge length, the resolution scale h.
    """

    mesh: TriangulatedSphere
    stiffness: sp.csr_matrix
    mass: np.ndarray
    round_mass: np.ndarray
    curvature: np.ndarray
    total_area: float
    flat_area: float
    mass_correction: float
    mean_edge_length: float


# SciPy warns and returns NaN on an exactly singular matrix; this filter
# raises the warning, which SciPy attributes to its caller, in _solve only.
# _solve re-adds it when a catch_warnings block has dropped it, rather than
# setting it per call: each filter change resets the registries that show a
# "default" warning (a numpy overflow, say) once per code location.
_RANK_MODULE = re.escape(__name__) + r"\Z"
_RANK_FILTER = ("error", None, spla.MatrixRankWarning, re.compile(_RANK_MODULE), 0)


def _solve(matrix, rhs, what: str, mesh: TriangulatedSphere) -> np.ndarray:
    """One-shot sparse solve of a mesh system, left to the flow step; any
    failure is a NumericError naming ``what``.

    The matrix is factored as P A P^T in the mesh's nested-dissection
    order and the solution is permuted back.  SuperLU takes the columns in
    that order (``permc_spec="NATURAL"``) and keeps its partial row
    pivoting, so indefinite systems still get a pivoted LU: a poor order
    costs fill and time, not accuracy.  Failures cover SuperLU's
    RuntimeError, SciPy's MatrixRankWarning and a non-finite solution.
    SciPy is called through ``spla`` attributes, so wrappers installed on
    scipy.sparse.linalg see every call.
    """
    if _RANK_FILTER not in warnings.filters:
        warnings.filterwarnings("error", "", spla.MatrixRankWarning, _RANK_MODULE)
    matrix, order = _permuted(matrix, mesh)
    try:
        solution = spla.spsolve(matrix, rhs[order], permc_spec="NATURAL")
    except (RuntimeError, spla.MatrixRankWarning) as exc:
        raise NumericError(f"{what} solve failed: {exc}") from exc
    return _finite_solution(_unpermuted(solution, order), what)


def _factor(matrix, what: str, mesh: TriangulatedSphere | None = None, order=None):
    """LU factor for repeated solves; returns ``solve(rhs)``.

    Ordered, pivoted, permuted back and checked as in _solve; without a
    mesh, a given vertex ``order``, else the identity order (the disk).
    """
    matrix, order = _permuted(matrix, mesh, order)
    try:
        lu = spla.splu(matrix, permc_spec="NATURAL")
    except RuntimeError as exc:
        raise NumericError(f"{what} factorization failed: {exc}") from exc

    def _solve_factored(rhs):
        return _finite_solution(_unpermuted(lu.solve(rhs[order]), order), what)

    return _solve_factored


_MG_COARSEST = 642  # level 3; 2562 rows: 0.6 s LU in the old identity order, not re-measured
_MG_OMEGA = 0.7  # damped Jacobi weight
_MG_SWEEPS = 2  # Jacobi sweeps before and after each coarse correction
_MG_TOLERANCE = 1e-13  # relative residual at which conjugate gradients stop
_MG_MAX_ITERATIONS = 100
# MINRES's stop, relative in the preconditioned norm: 18-21 iterations per
# minimizer Newton step at levels 5 and 6, where the bench sweep keeps every
# step and Newton count of a direct solve, with energies within 2.2e-16.
_MINRES_TOLERANCE = 1e-10


def _v_cycle(matrix, what: str, mesh: TriangulatedSphere):
    """One V-cycle for an SPD vertex matrix; returns ``cycle(rhs)``, checked
    finite; every failure is a NumericError naming ``what``.

    The levels are those :func:`build_icosphere` recorded, down to
    _MG_COARSEST vertices.  The prolongation P keeps each coarse vertex and
    gives a midpoint half of each end of its parent edge; the coarse
    matrices are the Galerkin products P^T A P; _MG_SWEEPS damped-Jacobi
    sweeps run before and after each coarse correction; the coarsest
    matrix is factored by _factor in the nested-dissection order of its own
    graph (:func:`_dissection` on its vertices' positions).  A mesh with no
    level to sweep (levels 0-3, OFF meshes) gets the coarsest solve alone,
    the exact LU by _factor in the mesh order.  The sweeps after mirror
    the sweeps before, so the cycle is symmetric, and it is positive
    definite while the sweeps contract, _MG_OMEGA * lambda_max(D^-1 A) < 2
    on every level: at most 1.4 on a matrix with positive cotangent
    weights (by Gershgorin), 1.13 measured on the Galerkin levels of S + M.
    """
    levels = []  # (matrix, Jacobi weights, prolongation from the level below)
    level = matrix.tocsr()
    for edges in reversed(mesh._geometry.subdivisions):
        if level.shape[0] <= _MG_COARSEST:
            break
        prolongation = _prolongation(edges, level.shape[0] - len(edges))
        levels.append((level, _MG_OMEGA / level.diagonal(), prolongation))
        level = (prolongation.T @ level @ prolongation).tocsr()
    if not levels:
        return _factor(matrix, what, mesh)
    # The coarsest level keeps the first vertices' numbering: order its own
    # graph by their positions.
    order = _dissection(mesh.vertices[: level.shape[0]], level.indptr, level.indices)
    coarsest = _factor(level, what, order=order)

    def _cycle(rhs, depth=0):
        if depth == len(levels):
            return coarsest(rhs)
        operator, weights, prolongation = levels[depth]
        x = weights * rhs  # the first sweep, from zero
        for _ in range(_MG_SWEEPS - 1):
            x += weights * (rhs - operator @ x)
        x += prolongation @ _cycle(prolongation.T @ (rhs - operator @ x), depth + 1)
        for _ in range(_MG_SWEEPS):
            x += weights * (rhs - operator @ x)
        return x

    return lambda rhs: _finite_solution(_cycle(rhs), what)


def _multigrid(matrix, rhs, what: str, mesh: TriangulatedSphere) -> np.ndarray:
    """Solution of an SPD vertex system.

    SciPy's conjugate gradients, preconditioned by one :func:`_v_cycle`
    per iteration, stopped at a relative residual of _MG_TOLERANCE.  On a
    mesh with no level to sweep the cycle is the exact LU, and CG stops
    after two LU solves.  Every failure is a NumericError naming
    ``what``; the iteration cap's gives the residual.
    """
    cycle = _v_cycle(matrix, what, mesh)
    matrix = matrix.tocsr()
    x, info = spla.cg(
        matrix, rhs, rtol=_MG_TOLERANCE, atol=0.0, maxiter=_MG_MAX_ITERATIONS,
        M=spla.LinearOperator(matrix.shape, matvec=cycle),
    )
    return _converged(matrix, rhs, x, info, what)


def _minres(matrix, rhs, cycle, what: str) -> np.ndarray:
    """Solution of a symmetric, possibly indefinite vertex system.

    SciPy's MINRES, preconditioned by ``cycle``, a symmetric positive
    definite map such as a :func:`_v_cycle`, stopped at _MINRES_TOLERANCE
    in the preconditioned norm or after _MG_MAX_ITERATIONS.  Every failure
    is a NumericError naming ``what``; the iteration cap's gives the
    residual.
    """
    try:
        x, info = spla.minres(
            matrix, rhs, rtol=_MINRES_TOLERANCE, maxiter=_MG_MAX_ITERATIONS,
            M=spla.LinearOperator(matrix.shape, matvec=cycle),
        )
    except ValueError as exc:  # MINRES's test of symmetry and definiteness
        raise NumericError(f"{what} failed: {exc}") from exc
    return _converged(matrix, rhs, x, info, what)


def _converged(matrix, rhs, x, info, what):
    # A Krylov solver's result, checked: finite first, since a NaN runs to
    # the cap, then converged (info 0).
    _finite_solution(x, what)
    if info != 0:
        residual = np.linalg.norm(rhs - matrix @ x) / np.linalg.norm(rhs)
        raise NumericError(
            f"{what} did not converge: relative residual {residual:.3g} "
            f"after {info} iterations"
        )
    return x


def _prolongation(edges, coarse):
    # Level-to-level interpolation: the identity on the coarse vertices,
    # then row coarse + k is (e_i + e_j)/2, where edges[k] = i*coarse + j.
    count = len(edges)
    ends = np.stack([edges // coarse, edges % coarse], axis=1).ravel()
    return sp.csr_matrix(
        (
            np.concatenate([np.ones(coarse), np.full(2 * count, 0.5)]),
            np.concatenate([np.arange(coarse), ends]),
            np.concatenate([np.arange(coarse + 1), coarse + 2 * np.arange(1, count + 1)]),
        ),
        shape=(coarse + count, coarse),
    )


def _permuted(matrix, mesh, order=None):
    # (P A P^T in CSC, the order): the mesh's vertex order, else the given
    # order, else the identity order.
    if mesh is not None:
        order = _ordering(mesh)
    if order is None:
        return matrix.tocsc(), np.arange(matrix.shape[0])
    return matrix.tocsr()[order][:, order].tocsc(), order


def _unpermuted(solution, order):
    original = np.empty_like(solution)
    original[order] = solution
    return original


def _ordering(mesh: TriangulatedSphere) -> np.ndarray:
    """Nested-dissection vertex order of the mesh's stiffness graph, the
    graph of every mesh-sized factored system, cached per geometry; see
    :func:`_dissection`."""
    record = mesh._geometry
    if record.order is None:
        stiffness = _geometric_core(mesh).stiffness
        order = _dissection(mesh.vertices, stiffness.indptr, stiffness.indices)
        order.flags.writeable = False
        record.order = order
    return record.order


def _dissection(positions, rows, neighbours) -> np.ndarray:
    """Nested-dissection order of a graph whose vertex i sits at
    ``positions[i]`` and has the neighbours ``neighbours[rows[i]:rows[i + 1]]``.

    Recursive coordinate bisection: split a part at the median of its
    widest coordinate; the separator is the lower-half vertices with a
    neighbour in the upper half.  The order is the lower half, the upper
    half, then the separator, down to parts of _LEAF_SIZE vertices.
    """
    n = len(positions)
    starts, degrees = rows[:-1], np.diff(rows)
    upper = np.zeros(n, dtype=bool)
    parts = []

    def dissect(part):
        if len(part) <= _LEAF_SIZE:
            parts.append(part)
            return
        coords = positions[part]
        axis = np.argmax(coords.max(axis=0) - coords.min(axis=0))
        part = part[np.argsort(coords[:, axis], kind="stable")]
        lower, higher = np.split(part, [len(part) // 2])
        upper[higher] = True
        # The neighbours of the lower half, row after row.
        count = degrees[lower]
        offsets = np.cumsum(count) - count
        slots = np.repeat(starts[lower] - offsets, count) + np.arange(count.sum())
        touches = np.logical_or.reduceat(upper[neighbours[slots]], offsets)
        upper[higher] = False
        dissect(lower[~touches])
        dissect(higher)
        parts.append(lower[touches])

    dissect(np.arange(n))
    return np.concatenate(parts)


def _finite_solution(solution, what):
    if not np.isfinite(solution).all():
        raise NumericError(f"{what} produced non-finite values")
    return solution


@dataclass(eq=False)
class _Geometry:
    # Everything cached for one (vertices, faces) pair, filled lazily.
    stiffness: sp.csr_matrix | None = None
    round_mass: np.ndarray | None = None
    flat_area: float | None = None
    mass_correction: float | None = None
    mean_edge_length: float | None = None
    order: np.ndarray | None = None  # nested-dissection vertex order
    basis: tuple | None = None  # (lmax, eigenvalues, aligned round eigenbasis)
    incidence: tuple | None = None  # (faces, starts), see _vertex_faces
    face_arcs: np.ndarray | None = None  # see _face_arcs
    subdivisions: tuple = ()  # _subdivide's edge keys, coarsest level first


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return verts, faces


def _subdivide(verts: np.ndarray, faces: np.ndarray):
    # One 4-to-1 geodesic split: edge midpoints are pushed to the sphere.
    # Edge (i, j), i < j, is the int64 key i*V + j, which sorts like the row;
    # the directed edges run corner 0->1, 1->2, 2->0 face by face.  Returns
    # the new vertices and faces and the sorted edge keys, whose k-th entry
    # is the parent edge of new vertex V + k.
    n = len(verts)
    tails, heads = faces.ravel(), faces[:, [1, 2, 0]].ravel()
    keys = np.minimum(tails, heads) * n + np.maximum(tails, heads)
    edges, inverse = np.unique(keys, return_inverse=True)
    mid = verts[edges // n] + verts[edges % n]
    mid /= np.linalg.norm(mid, axis=1)[:, None]
    m01, m12, m20 = (n + inverse).reshape(-1, 3).T
    f0, f1, f2 = faces[:, 0], faces[:, 1], faces[:, 2]
    new_faces = np.concatenate(
        [
            np.stack([f0, m01, m20], axis=1),
            np.stack([f1, m12, m01], axis=1),
            np.stack([f2, m20, m12], axis=1),
            np.stack([m01, m12, m20], axis=1),
        ]
    )
    return np.vstack([verts, mid]), new_faces, edges


def build_icosphere(level: int) -> TriangulatedSphere:
    """Geodesic icosphere at a given subdivision level.

    Level 0 is the icosahedron (12 vertices); each level quadruples the
    face count, giving V = 2 + 10*4^level.  Levels above 7 are refused.
    Each level keeps the vertices of the one below as its first rows; the
    mesh records the edges each split bisected, for :func:`_v_cycle`.
    """
    level = _count("level", level, 0, _MAX_LEVEL)
    verts, faces = _icosahedron()
    subdivisions = []
    for _ in range(level):
        verts, faces, edges = _subdivide(verts, faces)
        subdivisions.append(edges)
    mesh = TriangulatedSphere(verts, faces, np.zeros(len(verts)))
    mesh._geometry.subdivisions = tuple(subdivisions)
    return mesh


def _geometric_core(mesh: TriangulatedSphere) -> _Geometry:
    record = mesh._geometry
    if record.stiffness is not None:
        return record
    v, f = mesh.vertices, mesh.faces
    p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    cross = np.cross(p1 - p0, p2 - p0)
    double_area = np.linalg.norm(cross, axis=1)
    if double_area.min() < 1e-14:
        raise MeshQualityError("degenerate triangle (zero area)")
    # Outward orientation: normals must point away from the origin.
    centers = (p0 + p1 + p2) / 3.0
    if (np.einsum("ij,ij->i", cross, centers) <= 0).any():
        raise MeshQualityError("inward-facing triangle (orientation)")

    def corner_cot(a, b, c):
        u = b - a
        w = c - a
        return np.einsum("ij,ij->i", u, w) / double_area

    cot0 = corner_cot(p0, p1, p2)
    cot1 = corner_cot(p1, p2, p0)
    cot2 = corner_cot(p2, p0, p1)
    # cot(angle) < cot(1 deg) for every corner angle
    cot_cap = 1.0 / np.tan(np.deg2rad(_MIN_ANGLE_DEG))
    worst = max(cot0.max(), cot1.max(), cot2.max())
    if worst > cot_cap:
        raise MeshQualityError(
            f"corner angle below {_MIN_ANGLE_DEG} degree (cot = {worst:.3g})"
        )

    n = len(v)
    rows = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
    cols = np.concatenate([f[:, 2], f[:, 0], f[:, 1]])
    w_half = 0.5 * np.concatenate([cot0, cot1, cot2])
    off = sp.coo_matrix(
        (
            np.concatenate([-w_half, -w_half]),
            (np.concatenate([rows, cols]), np.concatenate([cols, rows])),
        ),
        shape=(n, n),
    ).tocsr()
    # Diagonal = minus the assembled off-diagonal row sums, so S @ 1 == 0
    # exactly in floating point.
    diag = -np.asarray(off.sum(axis=1)).ravel()
    stiffness = (off + sp.diags(diag)).tocsr()

    areas = 0.5 * double_area
    round_mass = np.bincount(f.T.ravel(), weights=np.tile(areas / 3.0, 3), minlength=n)
    flat_area = float(round_mass.sum())
    correction = FOUR_PI / flat_area
    round_mass = round_mass * correction
    logger.info(
        "round mass rescaled by %.12f (flat area deficit %.3e)", correction, FOUR_PI - flat_area
    )

    edges = mesh.edges()
    dots = np.einsum("ij,ij->i", v[edges[:, 0]], v[edges[:, 1]])
    mean_edge = float(np.arccos(np.clip(dots, -1.0, 1.0)).mean())

    record.round_mass, record.flat_area = round_mass, flat_area
    record.mass_correction, record.mean_edge_length = correction, mean_edge
    record.stiffness = stiffness  # last: it marks the record filled
    return record


def assemble_operators(mesh: TriangulatedSphere) -> DiscreteOperators:
    """Stiffness, metric mass, and curvature for the mesh's background.

    The Gauss-Bonnet identity ``sum(curvature * mass) == 4*pi`` holds to
    machine precision: the round masses are globally rescaled and the
    curvature is defined through the same stiffness whose rows sum to zero.
    """
    core = _geometric_core(mesh)
    phi = mesh.background_factor
    with np.errstate(over="ignore", invalid="ignore"):
        mass = np.exp(phi) * core.round_mass
        curvature = np.exp(-phi) * (
            1.0 + (core.stiffness @ phi) / (2.0 * core.round_mass)
        )
    if not (mass.min() > 0 and np.isfinite(mass).all() and np.isfinite(curvature).all()):
        raise DataError("background factor is beyond the floating-point range of exp")
    return DiscreteOperators(
        mesh=mesh,
        stiffness=core.stiffness,
        mass=mass,
        round_mass=core.round_mass,
        curvature=curvature,
        total_area=float(mass.sum()),
        flat_area=core.flat_area,
        mass_correction=core.mass_correction,
        mean_edge_length=core.mean_edge_length,
    )


def set_conformal_background(
    mesh: TriangulatedSphere, phi: np.ndarray, normalize: bool = False
) -> TriangulatedSphere:
    """Return a copy of the mesh with a new log conformal factor.

    With ``normalize=True`` the factor is shifted by a constant so that the
    metric volume is exactly 4*pi (computed overflow-safely).
    """
    phi = _field("phi", phi, mesh.num_vertices)
    if normalize:
        core = _geometric_core(mesh)
        shift = phi.max()
        log_area = shift + np.log(
            float((np.exp(phi - shift) * core.round_mass).sum())
        )
        phi = phi + (np.log(FOUR_PI) - log_area)
    # A shallow copy skips __post_init__: the shared vertices and faces were
    # validated with the parent, and phi has been checked above.
    derived = copy.copy(mesh)
    derived.background_factor = phi
    return derived


def integrate(ops: DiscreteOperators, f: np.ndarray) -> float:
    """Integral of a vertex field against the metric volume element."""
    f = _field("f", f, len(ops.mass))
    return float(f @ ops.mass)


def dirichlet_energy(ops: DiscreteOperators, u: np.ndarray) -> float:
    """Quadratic form u^T S u, the squared gradient integral.

    Conformally invariant: the value does not depend on the background
    factor.  Nonnegative up to roundoff (S is PSD).
    """
    u = _field("u", u, len(ops.mass))
    return float(u @ (ops.stiffness @ u))


def _real_harmonics(verts: np.ndarray, lmax: int) -> np.ndarray:
    # Real-valued spherical harmonics, fixed ordering l = 1..lmax, m = -l..l.
    # Any fixed convention works; it only needs to be level-independent.
    x, y, z = verts.T
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x)
    cols = []
    for ell in range(1, lmax + 1):
        for m in range(-ell, ell + 1):
            ylm = sph_harm_y(ell, abs(m), theta, phi)
            if m == 0:
                cols.append(ylm.real.copy())
            elif m > 0:
                cols.append(np.sqrt(2.0) * (-1.0) ** m * ylm.real)
            else:
                cols.append(np.sqrt(2.0) * (-1.0) ** (-m) * ylm.imag)
    return np.stack(cols, axis=1)


def _lowest_modes(stiffness, mass, k: int, what: str, mesh: TriangulatedSphere):
    """The ``k`` lowest eigenpairs of ``S x = lambda diag(mass) x``, ascending.

    Deterministic Lanczos (fixed starting vector) in shift-invert mode at
    -1/2, with ``S + M/2`` factored once by _factor in the mesh order.
    """
    n, mass_mat = len(mass), sp.diags(mass)
    solve = _factor(stiffness + 0.5 * mass_mat, what, mesh)
    inverse = spla.LinearOperator((n, n), matvec=solve, dtype=np.float64)
    try:
        vals, vecs = spla.eigsh(
            stiffness, k, M=mass_mat, sigma=-0.5, v0=np.ones(n), OPinv=inverse
        )
    except spla.ArpackError as exc:
        raise NumericError(f"{what} failed: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _round_eigenbasis(mesh: TriangulatedSphere, bands: int):
    """First ``bands`` nonconstant round eigenfields, canonically aligned.

    The discrete spectrum splits each continuum multiplet l(l+1) slightly,
    and eigensolver output within a multiplet is an arbitrary rotation.  To
    make fields reproducible across runs and consistent across mesh levels,
    analytic real harmonics are projected onto each discrete multiplet span
    and Gram-Schmidt orthonormalized in the mass inner product.  Returns
    (eigenvalues, basis) covering whole multiplets, at least ``bands`` wide;
    a mesh too coarse to resolve them raises ResolutionError.
    """
    lmax = max(1, math.isqrt(bands))  # the least l >= 1 with (l + 1)^2 - 1 >= bands
    record = _geometric_core(mesh)
    if record.basis is not None and record.basis[0] >= lmax:
        return record.basis[1], record.basis[2]
    n = mesh.num_vertices
    k = (lmax + 1) ** 2
    if k >= n - 1:
        raise ResolutionError(
            f"mesh too coarse for {bands} bands ({n} vertices, need {k + 1} modes)"
        )
    vals, vecs = _lowest_modes(
        record.stiffness, record.round_mass, k, "round eigensolve", mesh
    )
    if abs(vals[0]) > 1e-8:
        raise NumericError("round eigensolve lost the constant mode")
    vals, vecs = vals[1:], vecs[:, 1:]
    refs = _real_harmonics(mesh.vertices, lmax)
    weights = record.round_mass
    basis_cols = []
    pos = 0
    for ell in range(1, lmax + 1):
        dim = 2 * ell + 1
        lam_exact = ell * (ell + 1)
        block_vals = vals[pos : pos + dim]
        if np.abs(block_vals - lam_exact).max() > 0.4 * lam_exact:
            shown = np.array2string(block_vals, max_line_width=np.inf)  # one line
            raise ResolutionError(
                f"eigenvalue block near {lam_exact} not resolved: {shown}"
            )
        span = vecs[:, pos : pos + dim]
        coeffs = span.T @ (weights[:, None] * refs[:, pos : pos + dim])
        projected = span @ coeffs
        for j in range(dim):
            w = projected[:, j].copy()
            for b in basis_cols[len(basis_cols) - j :]:
                w -= (b @ (weights * w)) * b
            norm = np.sqrt(w @ (weights * w))
            if norm < 1e-8:
                raise NumericError("harmonic alignment became singular")
            basis_cols.append(w / norm)
        pos += dim
    basis = np.stack(basis_cols, axis=1)
    record.basis = (lmax, vals, basis)
    return vals, basis


def random_band_field(
    mesh: TriangulatedSphere, seed: int, bands: int, amplitude: float
) -> ScalarField:
    """Seeded random combination of the lowest nonconstant round eigenfields.

    The result has exact zero mass-weighted mean and mass-weighted RMS equal
    to ``amplitude`` (a zero amplitude returns the zero field).  The same
    (seed, bands, amplitude) always reproduces the same field bitwise, and
    the construction tracks the same continuum function across mesh levels.
    """
    bands = _count("bands", bands, 1)
    seed = _count("seed", seed, 0)  # numpy's generators take no negative seed
    amplitude = _real("amplitude", amplitude, 0.0, closed=True)
    _, basis = _round_eigenbasis(mesh, bands)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(bands)
    out = basis[:, :bands] @ coeffs
    weights = _geometric_core(mesh).round_mass
    out -= (out @ weights) / weights.sum()
    if amplitude == 0.0:
        return np.zeros(mesh.num_vertices)
    rms = np.sqrt((out * out) @ weights / weights.sum())
    if rms < 1e-300:
        raise NumericError("degenerate random field (zero RMS)")
    with np.errstate(over="ignore", invalid="ignore"):
        out *= amplitude / rms
    if not np.isfinite(out).all():
        raise ParameterError(f"amplitude = {amplitude!r} overflows the field")
    return out


def mobius_dilation_factor(mesh: TriangulatedSphere, lam: float) -> ScalarField:
    """Log conformal factor of the dilation-by-lam Moebius map.

    In stereographic coordinates y the factor is
    ``2 ln(lam (1+|y|^2) / (1 + lam^2 |y|^2))``; on the embedded sphere this
    reduces to ``2 ln(2 lam / ((1-x3) + lam^2 (1+x3)))``.  The family keeps
    the volume at 4*pi and is the equality family of the sharp inequality
    checked by ``energy.onofri_deficit``.  A lam whose square overflows or
    underflows makes the factor non-finite at some vertex and is refused.
    """
    lam = _real("lam", lam, 0.0)
    x3 = mesh.vertices[:, 2]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = 2.0 * np.log(2.0 * lam) - 2.0 * np.log((1.0 - x3) + lam * lam * (1.0 + x3))
    if not np.isfinite(u).all():
        raise ParameterError(f"lam = {lam!r} gives a non-finite dilation factor")
    return u


def _is_round(mesh: TriangulatedSphere) -> bool:
    """Whether the background is the round metric (max |phi| <= 1e-12)."""
    return bool(np.abs(mesh.background_factor).max() <= 1e-12)


def geodesic_distances(
    ops: DiscreteOperators, source: int
) -> tuple[np.ndarray, bool]:
    """Distances from a source vertex in the working metric.

    On a round background (max |phi| <= 1e-12) the exact great-circle arcs
    are returned with flag True.  Otherwise fast marching over the faces
    with conformally stretched edge lengths is used (flag False); unlike an
    edge-graph shortest path it carries no systematic directional zig-zag
    bias, only a first-order discretization error.  The march computes the
    edge lengths of every face once per call and reaches every vertex, so
    the result is finite everywhere.
    """
    return _geodesic(ops, source, math.inf)


def _geodesic(ops: DiscreteOperators, source: int, radius: float):
    """``geodesic_distances``, its march stopped past ``radius`` (inf there)."""
    mesh = ops.mesh
    source = _count("source", source, 0, mesh.num_vertices - 1)
    if _is_round(mesh):
        return _arcs(mesh, source), True
    return _fast_march(mesh, mesh.background_factor, source, radius), False


def _arcs(mesh: TriangulatedSphere, source: int) -> np.ndarray:
    """Great-circle arcs on the unit sphere from vertex ``source``."""
    return np.arccos(np.clip(mesh.vertices @ mesh.vertices[source], -1.0, 1.0))


def _fmm_face_update(t_a, t_b, len_bc, len_ac, len_ab):
    """Arrival time at C from a front known at A and B of one triangle.

    Virtual-source unfolding: reconstruct the planar point whose distances
    to A and B equal their arrival times (on the far side of AB from C) and
    read off its distance to C.  Exact for a point source in a flat region,
    which keeps the directional error far below the edge-path zig-zag.
    Falls back to the better edge path when the source placement fails or
    the shortest segment would leave the triangle fan.  Plain float
    arithmetic and ``math`` only, with comparisons in place of ``min`` and
    ``max``: this runs once per front update.
    """
    via_a, via_b = t_a + len_ac, t_b + len_bc
    edge = via_a if via_a <= via_b else via_b
    if t_a == math.inf or t_b == math.inf:
        return edge
    a, b, c = len_bc, len_ac, len_ab
    if c <= abs(t_b - t_a) or t_a + t_b <= c:
        return edge  # arrival circles around A and B do not intersect
    # Plane coordinates: C at origin, A = (b, 0), angle at C between CA, CB.
    cos_c = (a * a + b * b - c * c) / (2.0 * a * b)
    if cos_c > 1.0:
        cos_c = 1.0
    elif cos_c < -1.0:
        cos_c = -1.0
    sin_c = math.sqrt(1.0 - cos_c * cos_c)
    ax, ay = b, 0.0
    bx, by = a * cos_c, a * sin_c
    # Virtual source S with |S-A| = t_a, |S-B| = t_b, on the far side of AB.
    dx, dy = bx - ax, by - ay
    cc = c * c
    base = 0.5 * (1.0 + (t_a * t_a - t_b * t_b) / cc)
    h_sq = t_a * t_a / cc - base * base
    if h_sq < 0.0:
        return edge
    h = math.sqrt(h_sq)
    # With A on the positive x axis and B in the upper half plane, C (the
    # origin) is always on the positive side of AB, so the virtual source
    # always takes the negative perpendicular.
    sx = ax + base * dx + h * dy
    sy = ay + base * dy - h * dx
    t = math.hypot(sx, sy)
    if t < t_a or t < t_b:
        return edge
    # The segment S -> C must cross between A and B, else the straightest
    # path runs around a corner and the edge bound is the right one.
    denom = sx * dy - sy * dx
    if abs(denom) <= 1e-300:
        return edge
    s_param = (sx * (sy - ay) - sy * (sx - ax)) / denom
    if not 0.0 <= s_param <= 1.0:
        return edge
    return t if t < edge else edge


def _vertex_faces(mesh: TriangulatedSphere) -> tuple[np.ndarray, np.ndarray]:
    """Flat vertex-face incidence, cached per geometry: the faces of vertex
    v, in ascending order, are ``faces[starts[v]:starts[v + 1]]``."""
    record = mesh._geometry
    if record.incidence is None:
        corners = mesh.faces.ravel()
        # A stable sort keeps corners of one vertex in flat order, hence face order.
        faces = np.argsort(corners, kind="stable") // 3
        counts = np.bincount(corners, minlength=mesh.num_vertices)
        starts = np.concatenate([[0], np.cumsum(counts)])
        faces.flags.writeable = starts.flags.writeable = False
        record.incidence = faces, starts
    return record.incidence


def _face_arcs(mesh: TriangulatedSphere) -> np.ndarray:
    """Round arc of the edge opposite each face corner, shape (F, 3), cached
    per geometry; the edge opposite corner k runs from corner k+1 to k+2."""
    record = mesh._geometry
    if record.face_arcs is None:
        f = mesh.faces
        ends_a, ends_b = f[:, [1, 2, 0]], f[:, [2, 0, 1]]
        dots = np.einsum("ijk,ijk->ij", mesh.vertices[ends_a], mesh.vertices[ends_b])
        arcs = np.arccos(np.clip(dots, -1.0, 1.0))
        arcs.flags.writeable = False
        record.face_arcs = arcs
    return record.face_arcs


# (corner updated, first front corner, second front corner) of a face
_CORNERS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _fast_march(mesh: TriangulatedSphere, phi, source: int, radius: float) -> np.ndarray:
    """Fast-marching distances from ``source``, stopped at the first pop
    beyond ``radius``; every vertex not popped by then is inf.

    Pops never decrease (a lowering update is at least the popped value),
    so each vertex within ``radius`` has the full march's value bit for bit.
    A face's three conformal edge lengths (round arc times the mean of the
    end-point scales exp(phi/2)) are computed when the march first reaches
    it, so a march stopped near its source costs in proportion to the faces
    it reached.  The cached tables are read through memoryviews, whose
    items are plain Python ints and floats, and the heap loop runs on
    plain Python lists.
    """
    flat_faces, arcs = memoryview(mesh.faces.ravel()), memoryview(_face_arcs(mesh).ravel())
    vert_faces, starts = (memoryview(table) for table in _vertex_faces(mesh))
    scale = np.exp(phi / 2.0).tolist()
    reached = [None] * mesh.num_faces  # (corners, lengths) of each face reached
    dist = [math.inf] * mesh.num_vertices
    dist[source] = 0.0
    done = [False] * mesh.num_vertices
    heap = [(0.0, source)]
    while heap:
        d, i = heapq.heappop(heap)
        if done[i] or d > dist[i]:
            continue
        if d > radius:
            break
        done[i] = True
        for fi in vert_faces[starts[i]:starts[i + 1]]:
            face = reached[fi]
            if face is None:
                base = 3 * fi
                c0, c1, c2 = flat_faces[base], flat_faces[base + 1], flat_faces[base + 2]
                s0, s1, s2 = scale[c0], scale[c1], scale[c2]
                lengths = (
                    arcs[base] * 0.5 * (s1 + s2),
                    arcs[base + 1] * 0.5 * (s2 + s0),
                    arcs[base + 2] * 0.5 * (s0 + s1),
                )
                face = reached[fi] = (c0, c1, c2), lengths
            corners, lengths = face
            for k, ka, kb in _CORNERS:
                c = corners[k]
                if done[c]:
                    continue
                t = _fmm_face_update(
                    dist[corners[ka]], dist[corners[kb]],
                    lengths[ka], lengths[kb], lengths[k],
                )
                if t < dist[c]:
                    dist[c] = t
                    heapq.heappush(heap, (t, c))
    return np.where(done, dist, math.inf)


def sample_field(
    mesh: TriangulatedSphere, values: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Barycentric interpolation of a vertex field at unit-sphere points.

    Each query point is radially projected onto the triangle that contains
    it; candidate triangles come from the nearest vertices' incidence rings.
    """
    values = _field("values", values, mesh.num_vertices)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[1] != 3:
        raise DataError("points must have shape (N, 3)")
    if not np.isfinite(points).all():
        raise DataError("points contain non-finite entries")
    if (points == 0.0).all(axis=1).any():
        raise DataError("points must be non-zero, they are projected radially")
    # Scaled by exact powers of two to at most 1 in each row: the radial
    # projection is the same, and a point far from the sphere neither
    # overflows the tree's distances nor underflows the barycentric solve.
    _, exponent = np.frexp(np.abs(points).max(axis=1))
    points = np.ldexp(points, -exponent[:, None])
    v, f = mesh.vertices, mesh.faces
    vert_faces, starts = _vertex_faces(mesh)
    tree = cKDTree(v)
    _, nearest = tree.query(points, k=4)
    out = np.empty(len(points))
    tri = v[f]  # (F, 3, 3)
    for i, p in enumerate(points):
        candidates = []
        for nv in np.atleast_1d(nearest[i]):
            candidates.extend(vert_faces[starts[nv]:starts[nv + 1]])
        best_face, best_bary, best_min = -1, None, -np.inf
        for fi in dict.fromkeys(candidates):
            mat = tri[fi].T
            try:
                x = np.linalg.solve(mat, p)
            except np.linalg.LinAlgError:
                continue
            s = x.sum()
            if s <= 0:
                continue
            bary = x / s
            m = bary.min()
            if m > best_min:
                best_face, best_bary, best_min = fi, bary, m
            if m >= -1e-9:
                break
        if best_face < 0 or best_min < -1e-6:
            raise NumericError("point location failed during interpolation")
        out[i] = values[f[best_face]] @ best_bary
    return out


def write_off_mesh(path, mesh: TriangulatedSphere) -> None:
    """Write vertices and faces in OFF format (counts line 'V F 0')."""
    lines = ["OFF", f"{mesh.num_vertices} {mesh.num_faces} 0"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices]
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.faces]
    _write(path, "\n".join(lines) + "\n")


def read_off_mesh(path) -> TriangulatedSphere:
    """Read an OFF file written by :func:`write_off_mesh`.

    Blank lines and '#' comments are skipped.  The mesh must satisfy the
    same invariants as a built one (unit vertices, closed, oriented); the
    background factor starts at zero.
    """
    lines = [line.split("#", 1)[0].strip() for line in _text(path, "ascii").splitlines()]
    lines = [line for line in lines if line]
    if not lines or lines[0] != "OFF":
        raise DataError("not an OFF file (missing header)")
    tokens = " ".join(lines[1:]).split()
    try:
        nv, nf = int(tokens[0]), int(tokens[1])
        if nv < 0 or nf < 0:
            raise DataError(f"malformed OFF file: negative counts {nv} vertices, {nf} faces")
        pos = 3
        verts = np.array(tokens[pos : pos + 3 * nv], dtype=np.float64).reshape(nv, 3)
        pos += 3 * nv
        face_tokens = np.array(tokens[pos : pos + 4 * nf], dtype=np.int64).reshape(
            nf, 4
        )
    except (IndexError, ValueError) as exc:
        raise DataError(f"malformed OFF file: {exc}") from exc
    if (face_tokens[:, 0] != 3).any():
        raise DataError("only triangle faces are supported")
    surplus = tokens[pos + 4 * nf :]
    if surplus:
        raise DataError(f"malformed OFF file: {len(surplus)} tokens after the {nf} faces")
    return TriangulatedSphere(verts, face_tokens[:, 1:], np.zeros(nv))


def write_field_csv(path, values: np.ndarray) -> None:
    """Write a vertex field as 'vertex,value' CSV rows with LF line ends; the
    values must be a 1-D real array (DataError) and finite (NumericError), and
    an unwritable path is a DataError."""
    array = np.asarray(values)
    if array.ndim != 1 or array.dtype.kind not in "iuf":
        raise DataError(
            f"field file {path} needs a 1-D real array, got {array.dtype} {array.shape}"
        )
    values = array.astype(np.float64)
    if not np.isfinite(values).all():
        raise NumericError(f"non-finite value in field file {path}")
    lines = ["vertex,value"] + [f"{i},{val:.17g}" for i, val in enumerate(values)]
    _write(path, "\n".join(lines) + "\n")


def read_field_csv(path, expected_vertices: int | None = None) -> np.ndarray:
    """Read a 'vertex,value' CSV written by :func:`write_field_csv`."""
    if expected_vertices is not None:
        expected_vertices = _count("expected_vertices", expected_vertices, 0)
    reader = csv.reader(_text(path, "ascii").splitlines())
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:2]] != ["vertex", "value"]:
        raise DataError("field CSV must start with a 'vertex,value' header")
    idx, vals = [], []
    for row in reader:
        if not row:
            continue
        try:
            idx.append(int(row[0]))
            vals.append(float(row[1]))
        except (IndexError, ValueError) as exc:
            raise DataError(f"malformed field CSV row {row}: {exc}") from exc
    n = len(vals)
    if sorted(idx) != list(range(n)):
        raise DataError("field CSV must cover vertices 0..V-1 exactly once")
    if expected_vertices is not None and n != expected_vertices:
        raise DataError(f"field CSV has {n} rows, mesh has {expected_vertices}")
    out = np.empty(n)
    out[np.array(idx, dtype=np.int64)] = vals
    if not np.isfinite(out).all():
        raise DataError("field CSV contains non-finite values")
    return out
