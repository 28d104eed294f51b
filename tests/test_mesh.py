import heapq
import math
import re
import time
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from liouvillelab import (
    DataError,
    FOUR_PI,
    MeshQualityError,
    NumericError,
    ParameterError,
    ResolutionError,
    TriangulatedSphere,
    assemble_operators,
    build_icosphere,
    dirichlet_energy,
    geodesic_distances,
    integrate,
    mobius_dilation_factor,
    random_band_field,
    read_field_csv,
    read_off_mesh,
    sample_field,
    set_conformal_background,
    write_field_csv,
    write_off_mesh,
)
from liouvillelab.mesh import (
    _face_arcs,
    _fast_march,
    _geometric_core,
    _icosahedron,
    _ordering,
    _round_eigenbasis,
    _vertex_faces,
)


def test_subdivision_counts():
    # V = 2 + 10 * 4^L, F = 20 * 4^L, E = V + F - 2
    for level, nv, nf in ((0, 12, 20), (1, 42, 80), (3, 642, 1280)):
        mesh = build_icosphere(level)
        assert mesh.num_vertices == nv
        assert mesh.num_faces == nf
        assert mesh.num_edges == nv + nf - 2


def test_vertices_on_unit_sphere():
    mesh = build_icosphere(3)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(radii - 1.0).max() <= 1e-12


def test_build_rejects_bad_levels():
    for bad in (-1, 8, 9, 1.5, "2", True):
        with pytest.raises(ParameterError):
            build_icosphere(bad)


def test_topology_validation_rejects_broken_meshes():
    mesh = build_icosphere(1)
    verts, faces = mesh.vertices.copy(), mesh.faces.copy()

    flipped = faces.copy()
    flipped[0] = flipped[0, ::-1]  # duplicate directed edges
    with pytest.raises(DataError):
        TriangulatedSphere(verts, flipped, np.zeros(len(verts)))

    with pytest.raises(DataError):  # open surface
        TriangulatedSphere(verts, faces[:-1], np.zeros(len(verts)))

    off_sphere = verts.copy()
    off_sphere[0] *= 1.5
    with pytest.raises(DataError):
        TriangulatedSphere(off_sphere, faces, np.zeros(len(verts)))


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("OFF\n0 0 0\n", "no faces"),
        ("OFF\n0 1 0\n3 0 1 2\n", "face indices out of range"),
        # V - E + F = 2 - 0 + 0: the Euler check alone would pass it
        ("OFF\n2 0 0\n1 0 0\n-1 0 0\n", "no faces"),
    ],
    ids=["empty", "faces-without-vertices", "two-vertices"],
)
def test_meshes_without_faces_or_vertices_refused(tmp_path, text, message):
    path = tmp_path / "mesh.off"
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        read_off_mesh(path)


@pytest.mark.parametrize(
    "cast",
    [lambda f: f + 0.4, lambda f: f.astype(np.float64), lambda f: f > 0],
    ids=["fractional", "integral-float", "bool"],
)
def test_non_integer_faces_refused(cast):
    # A cast to indices would truncate face 0.4 to vertex 0.
    mesh = build_icosphere(1)
    with pytest.raises(DataError, match="faces must be integers"):
        TriangulatedSphere(mesh.vertices, cast(mesh.faces), mesh.background_factor)


def test_gauss_bonnet_exact(ops3, bumpy3):
    """Total curvature equals 4 pi by construction of the discrete K."""
    for ops in (ops3, bumpy3):
        total = integrate(ops, ops.curvature)
        assert abs(total - FOUR_PI) <= 1e-9


def test_round_curvature_is_constant_one(ops3):
    assert np.abs(ops3.curvature - 1.0).max() <= 1e-12


def test_stiffness_symmetric_with_zero_row_sums(ops4):
    s = ops4.stiffness
    asym = (s - s.T).tocoo()
    assert len(asym.data) == 0 or np.abs(asym.data).max() == 0.0
    row_sums = np.asarray(s.sum(axis=1)).ravel()
    assert np.abs(row_sums).max() <= 1e-10


def test_dirichlet_form_is_conformally_invariant(ops3, rng):
    # Same mesh, different background: the form must not change at all
    # beyond roundoff because it never sees the conformal factor.
    mesh = ops3.mesh
    u = rng.standard_normal(mesh.num_vertices)
    bumpy = assemble_operators(
        set_conformal_background(mesh, random_band_field(mesh, 5, 4, 0.8))
    )
    d_round = dirichlet_energy(ops3, u)
    d_bumpy = dirichlet_energy(bumpy, u)
    assert abs(d_round - d_bumpy) <= 1e-10 * max(1.0, abs(d_round))


def test_background_copies_share_the_geometry_caches(monkeypatch):
    # A background copy holds its parent's vertices and faces, so it finds
    # the parent's stiffness, order and eigenbasis and does not validate
    # them again; a mesh built from copies of the arrays holds other
    # objects and checks and computes its own.
    mesh = build_icosphere(3)
    checked = []
    check = TriangulatedSphere._check_topology

    def counting_check(self):
        checked.append(self)
        check(self)

    monkeypatch.setattr(TriangulatedSphere, "_check_topology", counting_check)
    derived = set_conformal_background(mesh, mobius_dilation_factor(mesh, 2.0))
    again = set_conformal_background(derived, np.zeros(mesh.num_vertices))
    assert checked == []
    copied = TriangulatedSphere(
        mesh.vertices.copy(), mesh.faces.copy(), np.zeros(mesh.num_vertices)
    )
    assert checked == [copied]
    band = random_band_field(derived, 3, 8, 0.5)
    stiffness = assemble_operators(mesh).stiffness
    for shared in (derived, again):
        assert assemble_operators(shared).stiffness is stiffness
        assert _ordering(shared) is _ordering(mesh)
    assert assemble_operators(copied).stiffness is not stiffness
    assert _ordering(copied) is not _ordering(mesh)
    assert np.array_equal(random_band_field(mesh, 3, 8, 0.5), band)
    assert np.array_equal(random_band_field(copied, 3, 8, 0.5), band)


def test_dirichlet_energy_of_linear_height(ops3, ops4):
    # int |grad x3|^2 over the sphere is 8 pi / 3; P1 elements converge
    # at second order from below.
    exact = 8.0 * np.pi / 3.0
    err3 = dirichlet_energy(ops3, ops3.mesh.vertices[:, 2]) - exact
    err4 = dirichlet_energy(ops4, ops4.mesh.vertices[:, 2]) - exact
    assert abs(err3) <= 1e-2 * exact
    assert abs(err4) <= 2.5e-3 * exact
    assert abs(err4) < abs(err3)


def test_dirichlet_energy_rejects_wrong_length(ops3):
    with pytest.raises(DataError):
        dirichlet_energy(ops3, np.zeros(7))


def test_background_normalization_restores_total_area():
    mesh = build_icosphere(3)
    phi = random_band_field(mesh, 9, 5, 0.7)
    ops = assemble_operators(set_conformal_background(mesh, phi, normalize=True))
    assert abs(ops.total_area - FOUR_PI) <= 1e-10

    # A constant factor must normalize away entirely.
    flat = set_conformal_background(mesh, np.full(mesh.num_vertices, 1.3),
                                    normalize=True)
    assert np.abs(flat.background_factor).max() <= 1e-14


def test_band_field_reproducibility_and_statistics(ops4):
    mesh = ops4.mesh
    f1 = random_band_field(mesh, 42, 6, 0.5)
    f2 = random_band_field(mesh, 42, 6, 0.5)
    assert np.array_equal(f1, f2)

    f3 = random_band_field(mesh, 43, 6, 0.5)
    assert np.abs(f1 - f3).max() >= 1e-6

    # mass-weighted mean removed, rms pinned to the amplitude
    assert abs(float(f1 @ ops4.mass)) <= 1e-9
    rms = np.sqrt(float((f1 * f1) @ ops4.mass) / ops4.total_area)
    assert abs(rms - 0.5) <= 1e-12

    assert not random_band_field(mesh, 1, 4, 0.0).any()


def test_band_field_consistent_across_levels():
    """Coarse-mesh vertices are a prefix of the fine mesh, and the same
    seed must give nearly the same projected field there."""
    m4, m5 = build_icosphere(4), build_icosphere(5)
    f4 = random_band_field(m4, 7, 8, 0.3)
    f5 = random_band_field(m5, 7, 8, 0.3)
    assert np.allclose(m4.vertices, m5.vertices[: m4.num_vertices], atol=1e-14)
    assert np.abs(f4 - f5[: m4.num_vertices]).max() <= 2e-3


def test_band_field_rejects_bad_parameters(ops2):
    with pytest.raises(ParameterError):
        random_band_field(ops2.mesh, 0, 0, 1.0)
    with pytest.raises(ParameterError):
        random_band_field(ops2.mesh, 0, 4, -0.1)
    with pytest.raises(ParameterError, match="seed"):
        random_band_field(ops2.mesh, -1, 4, 0.1)


@pytest.mark.filterwarnings("error")
def test_background_beyond_exp_range_is_data_error():
    # Finite, but exp(phi) overflows: the metric masses would be inf and 0.
    mesh = build_icosphere(1)
    phi = random_band_field(mesh, 0, 4, 1e300)
    with pytest.raises(DataError, match="range of exp"):
        assemble_operators(set_conformal_background(mesh, phi, normalize=True))


def test_mobius_factor_identity_and_volume(ops4):
    lam_one = mobius_dilation_factor(ops4.mesh, 1.0)
    assert np.abs(lam_one).max() <= 1e-14
    for lam in (1.0 / 3.0, 2.0, 4.0):
        u = mobius_dilation_factor(ops4.mesh, lam)
        vol = float(np.exp(u) @ ops4.mass)
        assert abs(vol / FOUR_PI - 1.0) <= 5e-4


@pytest.mark.parametrize("lam", [1e154, 2e154, 1e-170])
def test_mobius_factor_beyond_float_range_is_parameter_error(ops2, lam):
    # lam^2 overflows (-inf entries, or inf * 0 = NaN at the south pole) or
    # underflows to zero (+inf at the north pole); no warning either way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="lam"):
            mobius_dilation_factor(ops2.mesh, lam)


def test_geodesic_distances_round_and_bumpy(ops3, bumpy3):
    dist, exact = geodesic_distances(ops3, 0)
    assert exact
    expected = np.arccos(np.clip(ops3.mesh.vertices @ ops3.mesh.vertices[0], -1, 1))
    assert np.abs(dist - expected).max() <= 1e-12

    dist_b, exact_b = geodesic_distances(bumpy3, 0)
    assert not exact_b
    assert dist_b[0] == 0.0
    mask = np.arange(len(dist_b)) != 0
    assert dist_b[mask].min() > 0.0


def _mobius_background(level, lam=2.0):
    mesh = build_icosphere(level)
    phi = mobius_dilation_factor(mesh, lam)
    return assemble_operators(set_conformal_background(mesh, phi, normalize=True)), phi


def _mobius_march_error(level, lam=2.0):
    """Largest fast-march error on a Moebius background against the exact
    distances: great-circle arcs between the dilated images."""
    ops, phi = _mobius_background(level, lam)
    x = ops.mesh.vertices
    # Stereographic projection from x3 = 1, dilation by lam, and back; the
    # projection pole itself has no finite image and is left out.
    keep = np.flatnonzero(1.0 - x[:, 2] > 1e-12)
    y = lam * x[keep, :2] / (1.0 - x[keep, 2])[:, None]
    r2 = (y * y).sum(axis=1)
    images = np.column_stack([2.0 * y, r2 - 1.0]) / (r2 + 1.0)[:, None]
    # normalize=True added a constant to phi; lengths scale by exp(shift/2).
    shift = ops.mesh.background_factor[0] - phi[0]
    source = int(np.flatnonzero(np.abs(x[:, 2]) < 1e-12)[0])  # on the equator
    dist, exact = geodesic_distances(ops, source)
    assert not exact
    arcs = np.arccos(np.clip(images @ images[keep == source][0], -1.0, 1.0))
    return np.abs(dist[keep] - np.exp(shift / 2.0) * arcs).max()


def test_fast_march_against_exact_mobius_distances():
    # Measured 4.60e-2 at level 4 and 2.76e-2 at level 5 (first order in
    # the edge length); pinned with a 10% margin.
    err4 = _mobius_march_error(4)
    err5 = _mobius_march_error(5)
    assert err4 <= 0.0506
    assert err5 <= 0.0303
    assert err5 < 0.7 * err4


def _reference_fmm_face_update(t_a, t_b, len_bc, len_ac, len_ab):
    # The numpy-per-update face update the list-based march replaced.
    edge = min(t_a + len_ac, t_b + len_bc)
    if not np.isfinite(t_a) or not np.isfinite(t_b):
        return edge
    a, b, c = len_bc, len_ac, len_ab
    if c <= abs(t_b - t_a) or t_a + t_b <= c:
        return edge  # arrival circles around A and B do not intersect
    # Plane coordinates: C at origin, A = (b, 0), angle at C between CA, CB.
    cos_c = (a * a + b * b - c * c) / (2.0 * a * b)
    cos_c = min(1.0, max(-1.0, cos_c))
    sin_c = np.sqrt(1.0 - cos_c * cos_c)
    ax, ay = b, 0.0
    bx, by = a * cos_c, a * sin_c
    # Virtual source S with |S-A| = t_a, |S-B| = t_b, on the far side of AB.
    dx, dy = bx - ax, by - ay
    cc = c * c
    base = 0.5 * (1.0 + (t_a * t_a - t_b * t_b) / cc)
    h_sq = t_a * t_a / cc - base * base
    if h_sq < 0.0:
        return edge
    h = np.sqrt(h_sq)
    # With A on the positive x axis and B in the upper half plane, C (the
    # origin) is always on the positive side of AB, so the virtual source
    # always takes the negative perpendicular.
    sx = ax + base * dx + h * dy
    sy = ay + base * dy - h * dx
    t = float(np.hypot(sx, sy))
    if t < max(t_a, t_b):
        return edge
    # The segment S -> C must cross between A and B, else the straightest
    # path runs around a corner and the edge bound is the right one.
    denom = sx * dy - sy * dx
    if abs(denom) <= 1e-300:
        return edge
    s_param = (sx * (sy - ay) - sy * (sx - ax)) / denom
    if not 0.0 <= s_param <= 1.0:
        return edge
    return min(edge, t)


def _reference_fast_march(mesh, phi, source):
    # The march with a per-update arccos edge length, kept as the reference.
    v, faces = mesh.vertices, mesh.faces
    scale = np.exp(phi / 2.0)

    def length(i, j):
        arc = np.arccos(np.clip(float(v[i] @ v[j]), -1.0, 1.0))
        return arc * 0.5 * (scale[i] + scale[j])

    flat, starts = _vertex_faces(mesh)
    dist = np.full(mesh.num_vertices, np.inf)
    dist[source] = 0.0
    done = np.zeros(mesh.num_vertices, dtype=bool)
    heap = [(0.0, source)]
    while heap:
        d, i = heapq.heappop(heap)
        if done[i] or d > dist[i]:
            continue
        done[i] = True
        for fi in flat[starts[i]:starts[i + 1]]:
            tri = faces[fi]
            for k in range(3):
                c = tri[k]
                if done[c]:
                    continue
                a, b = tri[(k + 1) % 3], tri[(k + 2) % 3]
                t = _reference_fmm_face_update(
                    dist[a], dist[b], length(b, c), length(a, c), length(a, b)
                )
                if t < dist[c]:
                    dist[c] = t
                    heapq.heappush(heap, (t, c))
    return dist


def test_fast_march_matches_loop_reference(bumpy3):
    mobius4, _ = _mobius_background(4)
    for ops in (bumpy3, mobius4):
        mesh = ops.mesh
        for source in (0, 17, mesh.num_vertices // 2, mesh.num_vertices - 1):
            dist, exact = geodesic_distances(ops, source)
            expected = _reference_fast_march(mesh, mesh.background_factor, source)
            assert not exact
            assert np.isfinite(dist).all()
            assert np.abs(dist - expected).max() <= 1e-12


def _band_background(level):
    mesh = build_icosphere(level)
    phi = random_band_field(mesh, 2, 6, 0.4)
    return assemble_operators(set_conformal_background(mesh, phi, normalize=True))


@pytest.mark.parametrize("level", [3, 4])
@pytest.mark.parametrize("background", ["band", "mobius"])
def test_stopped_march_is_a_prefix_of_the_full_march(level, background):
    ops = _band_background(level) if background == "band" else _mobius_background(level)[0]
    mesh, h = ops.mesh, ops.mean_edge_length
    for source in (0, 17, mesh.num_vertices // 2, mesh.num_vertices - 1):
        full = _fast_march(mesh, mesh.background_factor, source, math.inf)
        assert np.array_equal(full, geodesic_distances(ops, source)[0])
        assert np.isfinite(full).all()
        for radius in (0.0, 2.0 * h, 8.0 * h, math.inf):
            stopped = _fast_march(mesh, mesh.background_factor, source, radius)
            within = full <= radius
            assert within[source]
            assert np.array_equal(stopped[within], full[within])
            assert np.isinf(stopped[~within]).all()


def test_sample_field_at_vertices_and_constants(ops3, rng):
    mesh = ops3.mesh
    values = rng.standard_normal(mesh.num_vertices)
    at_verts = sample_field(mesh, values, mesh.vertices[:25])
    assert np.abs(at_verts - values[:25]).max() <= 1e-9

    points = rng.standard_normal((40, 3))
    points /= np.linalg.norm(points, axis=1)[:, None]
    const = sample_field(mesh, np.full(mesh.num_vertices, 2.5), points)
    assert np.abs(const - 2.5).max() <= 1e-12


@pytest.mark.parametrize("bad", ["points", "values"])
def test_sample_field_refuses_non_finite_input(ops2, bad):
    mesh = ops2.mesh
    values = np.zeros(mesh.num_vertices)
    points = mesh.vertices[:3].copy()
    {"points": points, "values": values}[bad][1] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        sample_field(mesh, values, points)


def test_sample_field_refuses_a_zero_point(ops2):
    # A zero point has no radial projection: bad input, not a numerical failure.
    mesh = ops2.mesh
    points = np.vstack([mesh.vertices[:2], [[0.0, -0.0, 0.0]]])
    with pytest.raises(DataError, match="non-zero"):
        sample_field(mesh, np.zeros(mesh.num_vertices), points)


@pytest.mark.parametrize("scale", [5e-324, 1e-300, 1e-100, 1e300])
def test_sample_field_projects_points_at_any_scale(ops3, rng, scale):
    # Far from the sphere, the tree's distances overflow and the
    # barycentric solve underflows unless the points are rescaled first.
    mesh = ops3.mesh
    values = rng.standard_normal(mesh.num_vertices)
    points = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    expected = sample_field(mesh, values, points)
    assert np.array_equal(sample_field(mesh, values, scale * points), expected)


def test_round_mass_matches_add_at_reference():
    # The per-corner accumulation the bincount replaced, in the same order.
    mesh = build_icosphere(3)
    v, f = mesh.vertices, mesh.faces
    cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    expected = np.zeros(mesh.num_vertices)
    for corner in range(3):
        np.add.at(expected, f[:, corner], areas / 3.0)
    core = _geometric_core(mesh)
    assert core.flat_area == expected.sum()
    assert np.array_equal(core.round_mass, expected * core.mass_correction)


def test_vertex_faces_matches_loop_reference():
    # The loop the vectorized incidence replaced: faces in ascending order.
    mesh = build_icosphere(2)
    expected = [[] for _ in range(mesh.num_vertices)]
    for fi, face in enumerate(mesh.faces):
        for vertex in face:
            expected[vertex].append(fi)
    faces, starts = _vertex_faces(mesh)
    assert starts[0] == 0 and starts[-1] == len(faces)
    assert [faces[lo:hi].tolist() for lo, hi in zip(starts, starts[1:])] == expected


def test_march_tables_are_cached_per_geometry(bumpy3):
    # The incidence and the round arcs depend only on the vertices and
    # faces, so a background copy reads the same arrays.
    mesh = bumpy3.mesh
    copy = set_conformal_background(mesh, -mesh.background_factor)
    assert _vertex_faces(copy) is _vertex_faces(mesh)
    assert _face_arcs(copy) is _face_arcs(mesh)
    v, f = mesh.vertices, mesh.faces
    for k in range(3):  # the edge opposite corner k runs from corner k+1 to k+2
        ends = v[f[:, (k + 1) % 3]], v[f[:, (k + 2) % 3]]
        arcs = np.arccos(np.clip(np.einsum("ij,ij->i", *ends), -1.0, 1.0))
        assert np.abs(_face_arcs(mesh)[:, k] - arcs).max() <= 1e-15


def _reference_edges(mesh):
    # Row-wise unique over sorted edge rows, which integer keys replaced.
    f = mesh.faces
    und = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
    return np.unique(und, axis=0)


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_edges_match_row_unique_reference(level):
    mesh = build_icosphere(level)
    edges = mesh.edges()
    assert edges.dtype == np.int64
    assert np.array_equal(edges, _reference_edges(mesh))
    assert len(edges) == mesh.num_edges


def test_edges_match_row_unique_reference_after_off_roundtrip(tmp_path):
    # Rotating each face's corners keeps the orientation but changes which
    # end of every edge comes first in the face rows.
    mesh = build_icosphere(3)
    shift = np.arange(mesh.num_faces) % 3
    faces = np.stack([np.roll(row, s) for row, s in zip(mesh.faces, shift)])
    path = tmp_path / "rotated.off"
    write_off_mesh(path, TriangulatedSphere(mesh.vertices, faces, np.zeros(mesh.num_vertices)))
    back = read_off_mesh(path)
    assert np.array_equal(back.faces, faces)
    assert np.array_equal(back.edges(), _reference_edges(back))
    assert np.array_equal(back.edges(), mesh.edges())


def _reference_subdivide(verts, faces):
    # The row-unique 4-to-1 split that integer edge keys replaced.
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    edges, inverse = np.unique(np.sort(e, axis=1), axis=0, return_inverse=True)
    mid = verts[edges[:, 0]] + verts[edges[:, 1]]
    mid /= np.linalg.norm(mid, axis=1)[:, None]
    mid_idx = len(verts) + np.arange(len(edges))
    nf = len(faces)
    m01 = mid_idx[inverse[:nf]]
    m12 = mid_idx[inverse[nf : 2 * nf]]
    m20 = mid_idx[inverse[2 * nf :]]
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


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6])
def test_subdivide_matches_row_unique_reference(level):
    verts, faces = _icosahedron()
    for _ in range(level):
        verts, faces = _reference_subdivide(verts, faces)
    mesh = build_icosphere(level)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.faces, faces)


def test_round_eigensolve_failure_is_numeric_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("synthetic", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(NumericError, match="round eigensolve failed"):
        random_band_field(build_icosphere(2), 0, 4, 0.5)


@pytest.mark.parametrize("bands", [4, 9])
def test_coarse_mesh_band_field_is_resolution_error(bands):
    # 4 bands fail the l = 2 eigenvalue block; 9 need more modes than exist.
    with pytest.raises(ResolutionError):
        random_band_field(build_icosphere(0), 0, bands, 0.5)


class _Modes(Exception):
    pass


def test_band_count_asks_for_the_least_whole_multiplets(monkeypatch):
    # The modes asked of the eigensolve, (lmax + 1)^2, against counting lmax
    # up from 1 until the multiplets l = 1..lmax hold the bands.
    def asked(stiffness, mass, k, what, mesh):
        raise _Modes(k)

    monkeypatch.setattr("liouvillelab.mesh._lowest_modes", asked)
    mesh = build_icosphere(5)  # 10242 vertices: room for 101^2 modes
    lmax = 1
    for bands in range(1, 10**4 + 1):
        while (lmax + 1) ** 2 - 1 < bands:
            lmax += 1
        with pytest.raises(_Modes) as info:
            _round_eigenbasis(mesh, bands)
        assert info.value.args[0] == (lmax + 1) ** 2


def test_huge_band_count_is_refused_at_once():
    # 1e16 bands need 1e16 modes of a 162-vertex mesh: refused without
    # counting lmax up to 1e8.
    start = time.perf_counter()
    with pytest.raises(ResolutionError, match="mesh too coarse"):
        random_band_field(build_icosphere(2), 0, 10**16, 1.0)
    assert time.perf_counter() - start < 1.0


def test_off_roundtrip(tmp_path):
    mesh = build_icosphere(2)
    path = tmp_path / "m.off"
    write_off_mesh(path, mesh)
    back = read_off_mesh(path)
    assert np.array_equal(back.faces, mesh.faces)
    assert np.abs(back.vertices - mesh.vertices).max() <= 1e-15


def test_off_reader_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.off"
    bad.write_text("PLY\n3 1 0\n")
    with pytest.raises(DataError):
        read_off_mesh(bad)

    quad = tmp_path / "quad.off"
    quad.write_text("OFF\n4 1 0\n0 0 1\n1 0 0\n0 1 0\n-1 0 0\n4 0 1 2 3\n")
    with pytest.raises(DataError):
        read_off_mesh(quad)


def test_off_reader_refuses_tokens_after_the_faces(tmp_path):
    path = tmp_path / "m.off"
    write_off_mesh(path, build_icosphere(1))
    path.write_text(path.read_text() + "3 0 1 2\nfoo bar\n")
    with pytest.raises(DataError, match="6 tokens after the 80 faces"):
        read_off_mesh(path)


@pytest.mark.parametrize("reader", [read_off_mesh, read_field_csv])
def test_readers_refuse_unreadable_files(tmp_path, reader):
    absent = tmp_path / "absent"
    with pytest.raises(DataError, match=re.escape(f"cannot read {absent}")):
        reader(absent)
    binary = tmp_path / "binary"
    binary.write_bytes(b"OFF\n\xff\n")
    with pytest.raises(DataError, match="can't decode byte 0xff"):
        reader(binary)
    with pytest.raises(DataError, match="cannot read"):
        reader(tmp_path)  # a directory


def test_field_csv_roundtrip_and_validation(tmp_path, rng):
    values = rng.standard_normal(42)
    path = tmp_path / "f.csv"
    write_field_csv(path, values)
    back = read_field_csv(path, expected_vertices=42)
    assert np.array_equal(back, values)
    assert b"\r" not in path.read_bytes()  # LF line ends on every platform
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert np.array_equal(read_field_csv(crlf, expected_vertices=42), values)

    with pytest.raises(DataError):
        read_field_csv(path, expected_vertices=12)

    gap = tmp_path / "gap.csv"
    gap.write_text("vertex,value\n0,1.0\n2,2.0\n")
    with pytest.raises(DataError):
        read_field_csv(gap)

    nan = tmp_path / "nan.csv"
    nan.write_text("vertex,value\n0,nan\n1,1.0\n")
    with pytest.raises(DataError):
        read_field_csv(nan)

    values[3] = np.inf
    with pytest.raises(NumericError):
        write_field_csv(tmp_path / "inf.csv", values)
    assert not (tmp_path / "inf.csv").exists()


def test_mass_rescale_is_logged_and_small(ops3):
    # The flat-area deficit shrinks like h^2 but is always corrected.
    assert ops3.mass_correction > 1.0
    assert abs(ops3.mass_correction - 1.0) <= 0.02
    assert abs(ops3.round_mass.sum() - FOUR_PI) <= 1e-10
