"""Every sparse factor and solve goes through mesh._solve or mesh._factor,
every eigensolve through mesh._lowest_modes, every iterative solve through
mesh._multigrid or mesh._minres, and every way such a solve can fail comes
out as one NumericError."""

import ast
import dataclasses
import functools
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import liouvillelab as L
from liouvillelab.errors import NumericError
from liouvillelab import mesh as mesh_module
from liouvillelab import solver as solver_module
from liouvillelab.energy import EIGHT_PI, _exp_operator
from liouvillelab.mesh import _dissection, _factor, _multigrid, _ordering, _solve, _v_cycle
from liouvillelab.solver import _newton_direction

SRC = Path(L.__file__).parent
SOLVERS = {"spsolve", "splu", "eigsh", "cg", "minres"}


def _failing(kind):
    # A solver output that fails the way SciPy's can: SuperLU's
    # RuntimeError, or a solution full of NaN.
    def result(rhs):
        if kind == "raise":
            raise RuntimeError("Factor is exactly singular")
        return np.full(np.shape(rhs), np.nan)

    return result


def _patch_spsolve(monkeypatch, kind):
    # Every solve fails.  Returns the matrices passed in.
    fail = _failing(kind)
    calls = []

    def spsolve(matrix, rhs, **options):
        calls.append(matrix)
        return fail(rhs)

    monkeypatch.setattr(spla, "spsolve", spsolve)
    return calls


class _FailingLU:
    def __init__(self, kind):
        if kind == "raise":
            raise RuntimeError("Factor is exactly singular")
        self.solve = _failing(kind)


def _patch_splu(monkeypatch, kind):
    monkeypatch.setattr(spla, "splu", lambda matrix, **options: _FailingLU(kind))


def _band(ops):
    return L.random_band_field(ops.mesh, 0, 8, 0.5)


def _warm(ops):
    # The entries draw up to 11 bands (check_global_mt); the eigenbasis is
    # cached after this, so a patched solver meets the entry's own system.
    L.random_band_field(ops.mesh, 0, 11, 0.5)


def _fresh_band(ops):
    # The same band field on a copy of the mesh arrays, which shares no
    # cached eigenbasis: the round eigensolve runs.
    mesh = ops.mesh
    copied = L.TriangulatedSphere(
        mesh.vertices.copy(), mesh.faces.copy(), mesh.background_factor
    )
    return L.random_band_field(copied, 0, 8, 0.5)


# site -> (patch, call of the public entry, name of the failing system)
SITES = {
    "flow": (_patch_spsolve, lambda ops: L.run_flow(ops, _band(ops), 1.0), "flow step"),
    "green": (_patch_splu, lambda ops: L.solve_green(ops, 0), "Green system"),
    "disk": (
        _patch_splu,
        lambda ops: L.disk_min_dirichlet(2.0, 0.3, 1.0, grid_n=256),
        "disk Newton step",
    ),
    "minimizer_preconditioner": (
        _patch_splu,
        lambda ops: L.minimize_perturbed(ops, L.SolverConfig(epsilon=0.5), _band(ops)),
        "H1 preconditioner",
    ),
    "ascent_metric": (
        _patch_splu,
        lambda ops: L.check_global_mt(ops, 0.1, trials=2, seed=0),
        "ascent metric",
    ),
    "round_eigensolve": (_patch_splu, _fresh_band, "round eigensolve"),
    "poincare_eigensolve": (
        _patch_splu,
        lambda ops: L.poincare_constant(ops, 2.0, modes=8),
        "Poincare eigensolve",
    ),
}


@pytest.mark.parametrize("kind", ["raise", "nan"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_failed_solve_is_numeric_error_at_public_entry(ops2, monkeypatch, site, kind):
    patch, entry, what = SITES[site]
    _warm(ops2)
    patch(monkeypatch, kind)
    with pytest.raises(NumericError, match=what):
        entry(ops2)


_BUDGET = 100  # solve_mean_field's default max_iterations

# site -> call of the public entry with a budget of _BUDGET steps
NEWTON_SITES = {
    "minimizer_newton": lambda ops: L.minimize_perturbed(
        ops, L.SolverConfig(epsilon=0.5, max_iterations=_BUDGET), _band(ops)
    ),
    "mean_field_newton": lambda ops: L.solve_mean_field(ops, 0.5, initial=_band(ops)),
}


def _patch_minres(monkeypatch, kind):
    # Every MINRES solve fails: it raises as SciPy's symmetry test does,
    # returns NaN, or stops at a cap of one iteration.  Returns the matrices
    # passed in.
    minres, calls = spla.minres, []
    if kind == "cap":
        monkeypatch.setattr(mesh_module, "_MG_MAX_ITERATIONS", 1)

    def failing(matrix, rhs, **options):
        calls.append(matrix)
        if kind == "raise":
            raise ValueError("non-symmetric matrix")
        if kind == "nan":
            return np.full(np.shape(rhs), np.nan), 0
        return minres(matrix, rhs, **options)

    monkeypatch.setattr(spla, "minres", failing)
    return calls


@pytest.mark.parametrize(
    "site, kind",
    [
        ("minimizer_newton", "raise"),
        ("minimizer_newton", "nan"),
        ("minimizer_newton", "cap"),
        ("mean_field_newton", "raise"),
        ("mean_field_newton", "nan"),
        ("mean_field_newton", "cap"),
    ],
    ids=[
        "raise", "nan", "cap",
        "mean_field_newton-raise", "mean_field_newton-nan", "mean_field_newton-cap",
    ],
)
def test_failed_minimizer_newton_solve_falls_back_to_h1(ops2, monkeypatch, site, kind):
    # A failed Newton solve only rejects that direction, and every step
    # becomes an H1 step.  H1 alone crawls along the conformal modes, so the
    # budget runs out: ConvergenceError, never a NumericError naming the
    # Newton system.  solve_mean_field runs the same loop.
    calls = _patch_minres(monkeypatch, kind)
    with pytest.raises(L.ConvergenceError) as info:
        NEWTON_SITES[site](ops2)
    assert len(calls) > 1  # Newton was retried after the failure
    if site == "minimizer_newton":
        assert info.value.best.polish_steps == 0
    else:  # the best v-field; the trace carries the steps
        assert np.isfinite(info.value.best).all()
    energies = [row[1] for row in info.value.trace]
    assert len(energies) == _BUDGET + 1
    assert all(b <= a for a, b in zip(energies, energies[1:]))


def _singular(ops):
    return dataclasses.replace(ops, stiffness=0 * ops.stiffness)


def test_singular_green_system_raises_typed_error_not_warning(ops2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="exactly singular"):
            L.solve_green(_singular(ops2), 0)


def test_singular_green_system_emits_no_warning(ops2):
    with warnings.catch_warnings(record=True) as caught:
        with pytest.raises(NumericError, match="exactly singular"):
            L.solve_green(_singular(ops2), 0)
    assert caught == []


def test_singular_green_system_is_one_error_from_any_helper(ops2):
    # The pinned system in the mesh order, factored once or solved once;
    # multigrid's cycle on a level-2 mesh is the same factor.
    ops = _singular(ops2)
    system = ops.stiffness + sp.csr_matrix(([1.0], ([0], [0])), shape=ops.stiffness.shape)
    rhs = np.ones(system.shape[0])
    with warnings.catch_warnings(record=True) as caught:
        with pytest.raises(NumericError, match="exactly singular"):
            _solve(system, rhs, "Green system", ops.mesh)
        with pytest.raises(NumericError, match="exactly singular"):
            _factor(system, "Green system", ops.mesh)(rhs)
        with pytest.raises(NumericError, match="exactly singular"):
            _multigrid(system, rhs, "Green system", ops.mesh)
    assert caught == []


def test_green_multigrid_factors_only_the_coarsest_level(monkeypatch):
    # A fresh level-5 mesh: no nested-dissection order is cached on it.
    ops = L.assemble_operators(L.build_icosphere(5))
    sizes = []
    for name in ("splu", "spsolve"):
        solver = getattr(spla, name)

        def recording(matrix, *args, solver=solver, **options):
            sizes.append(matrix.shape[0])
            return solver(matrix, *args, **options)

        monkeypatch.setattr(spla, name, recording)
    L.solve_green(ops, 5)
    assert sizes == [642]
    assert ops.mesh._geometry.order is None


@pytest.mark.parametrize("kind", ["raise", "nan", "cap"])
def test_failed_green_multigrid_is_one_numeric_error(ops4, monkeypatch, kind):
    if kind == "cap":
        monkeypatch.setattr(mesh_module, "_MG_MAX_ITERATIONS", 2)
        what = r"Green system did not converge: relative residual \S+ after 2 iterations"
    else:
        _patch_splu(monkeypatch, kind)
        what = "Green system"
    with warnings.catch_warnings(record=True) as caught:
        with pytest.raises(NumericError, match=what):
            L.solve_green(ops4, 5)
    assert caught == []


def _off_copy(mesh, path):
    # The same vertices and faces read back from OFF: no recorded levels.
    L.write_off_mesh(path, mesh)
    return L.read_off_mesh(path)


@pytest.mark.parametrize("system", ["H1", "Green"])
@pytest.mark.parametrize("source", ["level3", "off_level4"])
def test_cycle_without_levels_is_the_exact_solve(tmp_path, source, system):
    # A mesh with no recorded level above 642 vertices has no level to
    # sweep: its V-cycle is the coarsest solve, the LU of the whole matrix.
    if source == "level3":
        mesh = L.build_icosphere(3)
    else:
        mesh = _off_copy(L.build_icosphere(4), tmp_path / "mesh.off")
    ops = L.assemble_operators(mesh)
    n = mesh.num_vertices
    if system == "H1":
        matrix = ops.stiffness + sp.diags(ops.mass)
    else:  # S pinned at a vertex, as solve_green pins it
        matrix = ops.stiffness + sp.csr_matrix(([1.0], ([0], [0])), shape=(n, n))
    rhs = np.random.default_rng(n).standard_normal(n)
    expected = _solve(matrix, rhs, "test system", mesh)
    solution = _v_cycle(matrix, "test system", mesh)(rhs)
    assert np.linalg.norm(solution - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.fixture(scope="module")
def band4_pair(tmp_path_factory):
    # A band background on the level-4 icosphere and on its OFF copy: the
    # same system, solved by multigrid and by the exact LU.
    built = L.build_icosphere(4)
    phi = L.random_band_field(built, 7, 8, 0.3)
    copied = _off_copy(built, tmp_path_factory.mktemp("off") / "mesh.off")
    return [
        L.assemble_operators(L.set_conformal_background(mesh, phi, normalize=True))
        for mesh in (built, copied)
    ]


@pytest.mark.parametrize("pole", [0, 5, -1])
def test_green_on_an_off_copy_matches_the_icosphere(band4_pair, pole):
    pole %= band4_pair[0].mesh.num_vertices
    built, copied = (L.solve_green(ops, pole) for ops in band4_pair)
    scale = np.abs(built.field).max()
    assert np.abs(copied.field - built.field).max() <= 1e-12 * scale
    assert copied.A_value == pytest.approx(built.A_value, rel=1e-12)


@functools.cache
def _background_ops(level, background):
    # The round icosphere, or the bench's band background on it.
    mesh = L.build_icosphere(level)
    if background == "band":
        phi = L.random_band_field(mesh, 7, 8, 0.3)
        mesh = L.set_conformal_background(mesh, phi, normalize=True)
    return L.assemble_operators(mesh)


def _h1_cycle(ops):
    return _v_cycle(ops.stiffness + sp.diags(ops.mass), "H1 preconditioner", ops.mesh)


@pytest.mark.parametrize("background", ["round", "band"])
@pytest.mark.parametrize("level", [4, 5])
def test_h1_cycle_is_symmetric_and_positive(level, background):
    # The minimizer's H1 direction is -cycle(grad * mass); it descends
    # because one V-cycle of S + M is a symmetric positive definite map.
    ops = _background_ops(level, background)
    mesh, cycle = ops.mesh, _h1_cycle(ops)
    rng = np.random.default_rng(level)
    for _ in range(4):
        x, y = rng.standard_normal((2, mesh.num_vertices))
        cx, cy = cycle(x), cycle(y)
        scale = np.linalg.norm(x) * np.linalg.norm(cy) + np.linalg.norm(y) * np.linalg.norm(cx)
        assert abs(y @ cx - x @ cy) <= 1e-12 * scale  # measured <= 3e-17
        assert x @ cx > 0.0 and y @ cy > 0.0


def _identity_order(positions, rows, neighbours):
    return np.arange(len(positions))


def test_coarsest_level_is_factored_in_its_own_dissection_order(monkeypatch):
    # The level-5 S + M hierarchy: its 642-row coarsest LU keeps 35,420
    # entries in the dissection order of its graph, 134,978 in the identity
    # order.
    ops = L.assemble_operators(L.build_icosphere(5))
    splu, kept = spla.splu, []

    def recording(matrix, **options):
        lu = splu(matrix, **options)
        kept.append((matrix.shape[0], lu.nnz))
        return lu

    monkeypatch.setattr(spla, "splu", recording)
    _h1_cycle(ops)
    monkeypatch.setattr(mesh_module, "_dissection", _identity_order)
    _h1_cycle(ops)
    (size, dissected), (_, identity) = kept
    assert size == 642
    assert dissected < 0.5 * identity


@pytest.mark.parametrize("background", ["round", "band"])
@pytest.mark.parametrize("level", [4, 5])
def test_coarsest_order_moves_the_cycle_by_roundoff(monkeypatch, level, background):
    # The same cycle with its coarsest level solved in the identity order.
    ops = _background_ops(level, background)
    cycle = _h1_cycle(ops)
    monkeypatch.setattr(mesh_module, "_dissection", _identity_order)
    reference = _h1_cycle(ops)
    rng = np.random.default_rng(level)
    for x in rng.standard_normal((4, ops.mesh.num_vertices)):
        expected = reference(x)
        assert np.linalg.norm(cycle(x) - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("epsilon", [0.5, 0.1, 0.01])
@pytest.mark.parametrize("background", ["round", "band"])
@pytest.mark.parametrize("level", [3, 4, 5])
def test_minres_newton_direction_matches_the_direct_solve(level, background, epsilon):
    # MINRES on the H1 cycle against the LU of the same Jacobian, at a band
    # field away from the minimizer; measured <= 1.5e-9 relative.
    ops = _background_ops(level, background)
    u = L.project_constraint(ops, _band(ops))
    grad = L.perturbed_gradient(ops, u, epsilon)
    v = u - L.log_volume(ops, u)
    jac = ops.stiffness - _exp_operator(ops, v, EIGHT_PI - epsilon)
    expected = _solve(jac, -(grad * ops.mass), "test system", ops.mesh)
    direction = _newton_direction(ops, epsilon, u, grad, _h1_cycle(ops))
    assert np.linalg.norm(direction - expected) <= 1e-8 * np.linalg.norm(expected)


def test_minimizer_factors_only_the_coarsest_level(monkeypatch):
    # A fresh level-5 mesh: the H1 steps run V-cycles, whose one LU is the
    # 642-row coarsest level; the Newton systems go to MINRES on the same
    # cycle, so SciPy's spsolve sees no matrix.
    ops = L.assemble_operators(L.build_icosphere(5))
    start = _band(ops)  # its eigensolve factors the fine mesh, before recording
    factored, solved, iterated, newton = [], [], [], []
    for name, sizes in (("splu", factored), ("spsolve", solved), ("minres", iterated)):
        solver = getattr(spla, name)

        def recording(matrix, *args, solver=solver, sizes=sizes, **options):
            sizes.append(matrix.shape[0])
            return solver(matrix, *args, **options)

        monkeypatch.setattr(spla, name, recording)
    direction = solver_module._newton_direction

    def counting(*args):
        newton.append(args)
        return direction(*args)

    monkeypatch.setattr(solver_module, "_newton_direction", counting)
    result = L.minimize_perturbed(ops, L.SolverConfig(epsilon=0.5), start)
    assert factored == [642]
    assert result.polish_steps > 0
    assert solved == []
    assert iterated == [ops.mesh.num_vertices] * len(newton)


@pytest.mark.parametrize("kind", ["raise", "nan"])
def test_failed_h1_cycle_is_one_numeric_error(ops4, monkeypatch, kind):
    start = _band(ops4)
    _patch_splu(monkeypatch, kind)
    with warnings.catch_warnings(record=True) as caught:
        with pytest.raises(NumericError, match="H1 preconditioner"):
            L.minimize_perturbed(ops4, L.SolverConfig(epsilon=0.5), start)
    assert caught == []


def test_ordering_is_a_cached_permutation(ops3):
    order = _ordering(ops3.mesh)
    assert np.array_equal(np.sort(order), np.arange(ops3.mesh.num_vertices))
    assert _ordering(ops3.mesh) is order


@pytest.mark.parametrize("level", range(7))
def test_ordering_is_the_dissection_of_the_edge_graph(level):
    # The stiffness graph (each edge both ways, plus the diagonal) gives the
    # order of the mesh's edge graph, as adjacency lists built from its
    # directed edges: the mesh is closed and oriented, so they list each
    # edge both ways.
    mesh = L.build_icosphere(level)
    tails, heads = mesh._directed_edges()
    rows = np.concatenate([[0], np.cumsum(np.bincount(tails, minlength=mesh.num_vertices))])
    expected = _dissection(mesh.vertices, rows, heads[np.argsort(tails, kind="stable")])
    assert np.array_equal(_ordering(mesh), expected)


class _Handed(Exception):
    pass


def _handed(monkeypatch, solver, entry, ops):
    # The first matrix the entry hands to spla.<solver>; the entry stops there.
    handed = []

    def record(matrix, *args, **options):
        handed.append(matrix)
        raise _Handed

    monkeypatch.setattr(spla, solver, record)
    with pytest.raises(_Handed):
        entry(ops)
    monkeypatch.undo()
    return handed[0]


# site -> (SciPy routine, call of the public entry that reaches it first)
MESH_SITES = {
    "flow": ("spsolve", SITES["flow"][1]),
    "green": ("splu", SITES["green"][1]),
    "minimizer_preconditioner": ("splu", SITES["minimizer_preconditioner"][1]),
    "ascent_metric": ("splu", SITES["ascent_metric"][1]),
    "round_eigensolve": ("splu", SITES["round_eigensolve"][1]),
    "poincare_eigensolve": ("splu", SITES["poincare_eigensolve"][1]),
}


@pytest.mark.parametrize("site", sorted(MESH_SITES))
def test_mesh_sites_factor_in_the_mesh_order(ops3, monkeypatch, site):
    solver, entry = MESH_SITES[site]
    _warm(ops3)
    handed = _handed(monkeypatch, solver, entry, ops3)
    order = _ordering(ops3.mesh)
    order = np.concatenate([order, np.arange(len(order), handed.shape[0])])
    inverse = np.argsort(order)
    matrix = handed.tocsr()[inverse][:, inverse].tocsc()  # the caller's matrix
    # COLAMD on the caller's matrix: 38.3k at level 3; the vertex order 135k.
    assert spla.splu(handed, permc_spec="NATURAL").nnz <= spla.splu(matrix).nnz
    rhs = np.random.default_rng(0).standard_normal(matrix.shape[0])
    expected = spla.spsolve(matrix, rhs)
    if solver == "spsolve":
        solution = _solve(matrix, rhs, site, ops3.mesh)
    else:
        solution = _factor(matrix, site, ops3.mesh)(rhs)
    assert np.abs(solution - expected).max() <= 1e-12 * np.abs(expected).max()


def _sparse_solver_uses():
    # (module, top-level definition, name) for every SOLVERS reference.
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in SOLVERS:
                    uses.append((path.stem, owner, node.attr))
                elif isinstance(node, ast.ImportFrom):
                    uses.extend(
                        (path.stem, owner, alias.name)
                        for alias in node.names
                        if alias.name in SOLVERS
                    )
    return uses


def test_sparse_solvers_are_called_only_in_the_helpers():
    assert sorted(_sparse_solver_uses()) == [
        ("mesh", "_factor", "splu"),
        ("mesh", "_lowest_modes", "eigsh"),
        ("mesh", "_minres", "minres"),
        ("mesh", "_multigrid", "cg"),
        ("mesh", "_solve", "spsolve"),
    ]


SOLVE_HELPERS = {"_solve", "_factor", "_v_cycle", "_multigrid", "_minres", "_lowest_modes"}


def _solve_helper_imports():
    # module -> the solve helpers it imports from mesh.
    imports = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "mesh":
                names = {alias.name for alias in node.names} & SOLVE_HELPERS
                if names:
                    imports.setdefault(path.stem, set()).update(names)
    return imports


def test_each_module_imports_only_its_solve_helpers():
    # One path per system: a second fallback would show up as a new import.
    assert _solve_helper_imports() == {
        "flow": {"_solve"},
        "green": {"_multigrid"},
        "inequalities": {"_factor", "_lowest_modes"},
        "solver": {"_factor", "_minres", "_v_cycle"},
    }


def test_solves_do_not_make_warnings_repeat(ops2):
    # Resetting the warning filters on every solve would clear the registry
    # that shows a "default" warning once per code location.
    system = ops2.stiffness + sp.diags(ops2.mass)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        _solve(system, ops2.mass, "test system", ops2.mesh)
        for _ in range(3):
            np.exp(np.array([1e3]))
            _solve(system, ops2.mass, "test system", ops2.mesh)
    assert [str(w.message) for w in caught] == ["overflow encountered in exp"]


def _step_shrinkers():
    # (module, top-level definition) whose code shrinks a variable `step` in
    # place: step *= f, step /= f, or step = step * f.
    def shrinks(node):
        if isinstance(node, ast.AugAssign):
            target, value = node.target, None
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        else:
            return False
        if not (isinstance(target, ast.Name) and target.id == "step"):
            return False
        if value is None:
            return isinstance(node.op, (ast.Mult, ast.Div))
        return (
            isinstance(value, ast.BinOp)
            and isinstance(value.op, (ast.Mult, ast.Div))
            and "step" in {getattr(value.left, "id", None), getattr(value.right, "id", None)}
        )

    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if any(shrinks(node) for node in ast.walk(top)):
                found.add((path.stem, top.name))
    return found


def test_one_line_search_shrinks_a_step():
    # The minimizer and the ascent draw their trial steps from one schedule;
    # the flow's dt halving is its accept/halve loop, not a line search.
    assert _step_shrinkers() == {("solver", "_backtracking")}


def _lu_newton_direction(ops, epsilon, u, grad, precond):
    # The Newton direction from an exact LU of the Jacobian MINRES solves.
    v = u - L.log_volume(ops, u)
    jac = ops.stiffness - _exp_operator(ops, v, EIGHT_PI - epsilon)
    return _factor(jac, "test Newton step", ops.mesh)(-(grad * ops.mass))


def _warm_sweep(ops, start):
    results = []
    for epsilon in (0.5, 0.25, 0.1):
        results.append(L.minimize_perturbed(ops, L.SolverConfig(epsilon=epsilon), start))
        start = results[-1].u_min
    return results


@pytest.mark.parametrize(
    "metric_seed, start",
    [
        (0, lambda mesh: np.zeros(mesh.num_vertices)),  # sweep-eps --metric-amp 0.3
        (7, lambda mesh: L.random_band_field(mesh, 3, 8, 0.01)),  # the bench sweep
    ],
)
def test_step_counts_survive_the_newton_solver_swap(monkeypatch, metric_seed, start):
    # Which side of the energy's roundoff floor a Newton try lands on
    # depends on the direction's last bits; the step and Newton counts must
    # not.  Level 4, 8 bands of amplitude 0.3, normalized.
    mesh = L.build_icosphere(4)
    phi = L.random_band_field(mesh, metric_seed, 8, 0.3)
    ops = L.assemble_operators(L.set_conformal_background(mesh, phi, normalize=True))
    by_minres = _warm_sweep(ops, start(mesh))
    monkeypatch.setattr(solver_module, "_newton_direction", _lu_newton_direction)
    by_lu = _warm_sweep(ops, start(mesh))
    for minres, lu in zip(by_minres, by_lu):
        assert len(minres.iterations) == len(lu.iterations)
        assert minres.polish_steps == lu.polish_steps
        assert minres.energy == pytest.approx(lu.energy, rel=1e-13, abs=0.0)
