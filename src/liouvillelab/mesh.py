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

import csv
import heapq
import logging
import math
import re
import warnings
import weakref
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree
from scipy.special import sph_harm_y

from .errors import DataError, MeshQualityError, NumericError, ParameterError

logger = logging.getLogger(__name__)

FOUR_PI = 4.0 * np.pi

# Per-vertex real array aligned with mesh.vertices.
ScalarField = np.ndarray

_MAX_LEVEL = 8
_UNIT_NORM_TOL = 1e-12
_MIN_ANGLE_DEG = 1.0


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

    Instances are treated as immutable; identity (not value) is used for
    caching, so do not mutate the arrays in place.
    """

    vertices: np.ndarray
    faces: np.ndarray
    background_factor: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.faces = np.ascontiguousarray(self.faces, dtype=np.int64)
        self.background_factor = np.ascontiguousarray(
            self.background_factor, dtype=np.float64
        )
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise DataError("vertices must have shape (V, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise DataError("faces must have shape (F, 3)")
        if self.background_factor.shape != (len(self.vertices),):
            raise DataError("background_factor must have shape (V,)")
        if not np.isfinite(self.vertices).all():
            raise DataError("vertices contain non-finite entries")
        if not np.isfinite(self.background_factor).all():
            raise DataError("background_factor contains non-finite entries")
        norms = np.linalg.norm(self.vertices, axis=1)
        if np.abs(norms - 1.0).max() > _UNIT_NORM_TOL:
            raise DataError("vertices must lie on the unit sphere (|v| = 1)")
        if self.faces.min(initial=0) < 0 or self.faces.max(initial=-1) >= len(
            self.vertices
        ):
            raise DataError("face indices out of range")
        self._check_topology()

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
        Factor 4*pi / flat_area applied to the round masses; 1.0 means the
        rescale was a no-op (never the case on a genuinely curved mesh).
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


def _solve(matrix, rhs, what: str) -> np.ndarray:
    """One-shot sparse solve; any failure is a NumericError naming ``what``.

    That covers SuperLU's RuntimeError, SciPy's MatrixRankWarning and a
    non-finite solution.  SciPy is called through ``spla`` attributes, so
    wrappers installed on scipy.sparse.linalg see every call.
    """
    if _RANK_FILTER not in warnings.filters:
        warnings.filterwarnings("error", "", spla.MatrixRankWarning, _RANK_MODULE)
    try:
        solution = spla.spsolve(matrix.tocsc(), rhs)
    except (RuntimeError, spla.MatrixRankWarning) as exc:
        raise NumericError(f"{what} solve failed: {exc}") from exc
    return _finite_solution(solution, what)


def _factor(matrix, what: str):
    """LU factor for repeated solves; returns ``solve(rhs)``, checked as in _solve."""
    try:
        lu = spla.splu(matrix.tocsc())
    except RuntimeError as exc:
        raise NumericError(f"{what} factorization failed: {exc}") from exc

    def _solve_factored(rhs):
        return _finite_solution(lu.solve(rhs), what)

    return _solve_factored


def _finite_solution(solution, what):
    if not np.isfinite(solution).all():
        raise NumericError(f"{what} produced non-finite values")
    return solution


@dataclass(eq=False)
class _GeometricCore:
    # Background-independent assembly products, cached per mesh identity.
    stiffness: sp.csr_matrix
    round_mass: np.ndarray
    flat_area: float
    mass_correction: float
    mean_edge_length: float


_CORE_CACHE: "weakref.WeakKeyDictionary[TriangulatedSphere, _GeometricCore]" = (
    weakref.WeakKeyDictionary()
)
# mesh -> (lmax, eigenvalues, basis) for the aligned round eigenbasis
_BASIS_CACHE: "weakref.WeakKeyDictionary[TriangulatedSphere, tuple]" = (
    weakref.WeakKeyDictionary()
)


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


def _subdivide(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One 4-to-1 geodesic split: edge midpoints are pushed to the sphere.
    # Edge (i, j), i < j, is the int64 key i*V + j, which sorts like the row;
    # the directed edges run corner 0->1, 1->2, 2->0 face by face.
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
    return np.vstack([verts, mid]), new_faces


def build_icosphere(level: int) -> TriangulatedSphere:
    """Geodesic icosphere at a given subdivision level.

    Level 0 is the icosahedron (12 vertices); each level quadruples the
    face count, giving V = 2 + 10*4^level.  Levels above 8 are refused.
    """
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
        raise ParameterError("level must be an integer")
    if level < 0 or level > _MAX_LEVEL:
        raise ParameterError(f"level must be in [0, {_MAX_LEVEL}], got {level}")
    verts, faces = _icosahedron()
    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
    return TriangulatedSphere(verts, faces, np.zeros(len(verts)))


def _geometric_core(mesh: TriangulatedSphere) -> _GeometricCore:
    core = _CORE_CACHE.get(mesh)
    if core is not None:
        return core
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
    round_mass = np.zeros(n)
    np.add.at(round_mass, f[:, 0], areas / 3.0)
    np.add.at(round_mass, f[:, 1], areas / 3.0)
    np.add.at(round_mass, f[:, 2], areas / 3.0)
    flat_area = float(round_mass.sum())
    correction = FOUR_PI / flat_area
    if abs(correction - 1.0) > 1e-9:
        round_mass = round_mass * correction
        logger.info(
            "round mass rescaled by %.12f (flat area deficit %.3e)",
            correction,
            FOUR_PI - flat_area,
        )

    edges = mesh.edges()
    dots = np.einsum("ij,ij->i", v[edges[:, 0]], v[edges[:, 1]])
    mean_edge = float(np.arccos(np.clip(dots, -1.0, 1.0)).mean())

    core = _GeometricCore(stiffness, round_mass, flat_area, correction, mean_edge)
    _CORE_CACHE[mesh] = core
    return core


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
    phi = np.ascontiguousarray(phi, dtype=np.float64)
    if phi.shape != (mesh.num_vertices,):
        raise DataError("phi must have one value per vertex")
    if not np.isfinite(phi).all():
        raise DataError("phi contains non-finite entries")
    if normalize:
        core = _geometric_core(mesh)
        shift = phi.max()
        log_area = shift + np.log(
            float((np.exp(phi - shift) * core.round_mass).sum())
        )
        phi = phi + (np.log(FOUR_PI) - log_area)
    return replace(mesh, background_factor=phi)


def integrate(ops: DiscreteOperators, f: np.ndarray) -> float:
    """Integral of a vertex field against the metric volume element."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != ops.mass.shape:
        raise DataError("field length does not match the mesh")
    return float(f @ ops.mass)


def dirichlet_energy(ops: DiscreteOperators, u: np.ndarray) -> float:
    """Quadratic form u^T S u, the squared gradient integral.

    Conformally invariant: the value does not depend on the background
    factor.  Nonnegative up to roundoff (S is PSD).
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != ops.mass.shape:
        raise DataError("field length does not match the mesh")
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


def _round_eigenbasis(mesh: TriangulatedSphere, bands: int):
    """First ``bands`` nonconstant round eigenfields, canonically aligned.

    The discrete spectrum splits each continuum multiplet l(l+1) slightly,
    and eigensolver output within a multiplet is an arbitrary rotation.  To
    make fields reproducible across runs and consistent across mesh levels,
    analytic real harmonics are projected onto each discrete multiplet span
    and Gram-Schmidt orthonormalized in the mass inner product.  Returns
    (eigenvalues, basis) covering whole multiplets, at least ``bands`` wide.
    """
    lmax = 1
    while (lmax + 1) ** 2 - 1 < bands:
        lmax += 1
    cached = _BASIS_CACHE.get(mesh)
    if cached is not None and cached[0] >= lmax:
        return cached[1], cached[2]
    core = _geometric_core(mesh)
    n = mesh.num_vertices
    k = (lmax + 1) ** 2
    if k >= n - 1:
        raise ParameterError(
            f"mesh too coarse for {bands} bands ({n} vertices, need {k + 1} modes)"
        )
    mass_mat = sp.diags(core.round_mass)
    # Deterministic Lanczos: fixed starting vector, shift-invert at -0.5.
    try:
        vals, vecs = spla.eigsh(
            core.stiffness,
            k=k,
            M=mass_mat,
            sigma=-0.5,
            v0=np.ones(n),
        )
    except spla.ArpackError as exc:
        raise NumericError(f"round eigensolve failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    if abs(vals[0]) > 1e-8:
        raise NumericError("round eigensolve lost the constant mode")
    vals, vecs = vals[1:], vecs[:, 1:]
    refs = _real_harmonics(mesh.vertices, lmax)
    weights = core.round_mass
    basis_cols = []
    pos = 0
    for ell in range(1, lmax + 1):
        dim = 2 * ell + 1
        lam_exact = ell * (ell + 1)
        block_vals = vals[pos : pos + dim]
        if np.abs(block_vals - lam_exact).max() > 0.4 * lam_exact:
            raise NumericError(
                f"eigenvalue block near {lam_exact} not resolved: {block_vals}"
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
    _BASIS_CACHE[mesh] = (lmax, vals, basis)
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
    if bands < 1:
        raise ParameterError("bands must be >= 1")
    if seed < 0:  # numpy's generators take no negative seed
        raise ParameterError(f"seed must be >= 0, got {seed}")
    if amplitude < 0:
        raise ParameterError("amplitude must be >= 0")
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
    return out * (amplitude / rms)


def mobius_dilation_factor(mesh: TriangulatedSphere, lam: float) -> ScalarField:
    """Log conformal factor of the dilation-by-lam Moebius map.

    In stereographic coordinates y the factor is
    ``2 ln(lam (1+|y|^2) / (1 + lam^2 |y|^2))``; on the embedded sphere this
    reduces to ``2 ln(2 lam / ((1-x3) + lam^2 (1+x3)))``.  The family keeps
    the volume at 4*pi and is the equality family of the sharp inequality
    checked by ``energy.onofri_deficit``.
    """
    if not np.isfinite(lam) or lam <= 0:
        raise ParameterError("lam must be positive")
    x3 = mesh.vertices[:, 2]
    return 2.0 * np.log(2.0 * lam) - 2.0 * np.log((1.0 - x3) + lam * lam * (1.0 + x3))


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
    mesh = ops.mesh
    if not 0 <= source < mesh.num_vertices:
        raise ParameterError("source vertex out of range")
    if _is_round(mesh):
        dots = mesh.vertices @ mesh.vertices[source]
        return np.arccos(np.clip(dots, -1.0, 1.0)), True
    return _fast_march(mesh, mesh.background_factor, source), False


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


def _vertex_faces(mesh: TriangulatedSphere) -> list[list[int]]:
    """Indices of the faces incident to each vertex, in ascending order."""
    corners = mesh.faces.ravel()
    # A stable sort keeps corners of one vertex in flat order, hence face order.
    face_of_corner = (np.argsort(corners, kind="stable") // 3).tolist()
    ends = np.cumsum(np.bincount(corners, minlength=mesh.num_vertices)).tolist()
    return [face_of_corner[lo:hi] for lo, hi in zip([0] + ends, ends)]


# (corner updated, first front corner, second front corner) of a face
_CORNERS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _fast_march(mesh: TriangulatedSphere, phi: np.ndarray, source: int) -> np.ndarray:
    """Fast-marching distances from ``source`` to every vertex.

    Each face's three conformal edge lengths (round arc times the mean of
    the end-point scales exp(phi/2)) are computed once per call with array
    operations; the heap loop then runs on plain Python lists, so no numpy
    call is made per front update.
    """
    f = mesh.faces
    scale = np.exp(phi / 2.0)
    # Entry 3*fi + k is the edge opposite corner k of face fi, from corner
    # k+1 to corner k+2.  Flat lists: one list object each, not one per face.
    ends_a, ends_b = f[:, [1, 2, 0]], f[:, [2, 0, 1]]
    dots = np.einsum("ijk,ijk->ij", mesh.vertices[ends_a], mesh.vertices[ends_b])
    arcs = np.arccos(np.clip(dots, -1.0, 1.0))
    lengths = (arcs * 0.5 * (scale[ends_a] + scale[ends_b])).ravel().tolist()
    corners = f.ravel().tolist()
    vert_faces = _vertex_faces(mesh)
    dist = [math.inf] * mesh.num_vertices
    dist[source] = 0.0
    done = [False] * mesh.num_vertices
    heap = [(0.0, source)]
    while heap:
        d, i = heapq.heappop(heap)
        if done[i] or d > dist[i]:
            continue
        done[i] = True
        for fi in vert_faces[i]:
            base = 3 * fi
            for k, ka, kb in _CORNERS:
                c = corners[base + k]
                if done[c]:
                    continue
                a, b = base + ka, base + kb
                t = _fmm_face_update(
                    dist[corners[a]], dist[corners[b]],
                    lengths[a], lengths[b], lengths[base + k],
                )
                if t < dist[c]:
                    dist[c] = t
                    heapq.heappush(heap, (t, c))
    return np.array(dist)


def sample_field(
    mesh: TriangulatedSphere, values: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Barycentric interpolation of a vertex field at unit-sphere points.

    Each query point is radially projected onto the triangle that contains
    it; candidate triangles come from the nearest vertices' incidence rings.
    """
    values = np.asarray(values, dtype=np.float64)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if values.shape != (mesh.num_vertices,):
        raise DataError("values length does not match the mesh")
    if points.shape[1] != 3:
        raise DataError("points must have shape (N, 3)")
    v, f = mesh.vertices, mesh.faces
    vert_faces = _vertex_faces(mesh)
    tree = cKDTree(v)
    _, nearest = tree.query(points, k=4)
    out = np.empty(len(points))
    tri = v[f]  # (F, 3, 3)
    for i, p in enumerate(points):
        candidates = []
        for nv in np.atleast_1d(nearest[i]):
            candidates.extend(vert_faces[int(nv)])
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
    with open(path, "w", encoding="ascii") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.num_vertices} {mesh.num_faces} 0\n")
        for x, y, z in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
        for a, b, c in mesh.faces:
            fh.write(f"3 {a} {b} {c}\n")


def read_off_mesh(path) -> TriangulatedSphere:
    """Read an OFF file written by :func:`write_off_mesh`.

    Blank lines and '#' comments are skipped.  The mesh must satisfy the
    same invariants as a built one (unit vertices, closed, oriented); the
    background factor starts at zero.
    """
    with open(path, "r", encoding="ascii") as fh:
        tokens: list[str] = []
        first = None
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if first is None:
                first = line
                continue
            tokens.extend(line.split())
    if first != "OFF":
        raise DataError("not an OFF file (missing header)")
    try:
        nv, nf = int(tokens[0]), int(tokens[1])
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
    return TriangulatedSphere(verts, face_tokens[:, 1:], np.zeros(nv))


def write_field_csv(path, values: np.ndarray) -> None:
    """Write a vertex field as 'vertex,value' CSV rows; the values must be finite."""
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise NumericError(f"non-finite value in field file {path}")
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex", "value"])
        for i, val in enumerate(values):
            writer.writerow([i, f"{val:.17g}"])


def read_field_csv(path, expected_vertices: int | None = None) -> np.ndarray:
    """Read a 'vertex,value' CSV written by :func:`write_field_csv`."""
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
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
