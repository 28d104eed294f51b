"""Every sparse factor and solve goes through mesh._solve or mesh._factor,
and every way such a solve can fail comes out as one NumericError."""

import ast
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import liouvillelab as L
from liouvillelab.errors import NumericError
from liouvillelab.mesh import _solve

SRC = Path(L.__file__).parent
SOLVERS = {"spsolve", "splu"}


def _failing(kind):
    # A solver output that fails the way SciPy's can: SuperLU's
    # RuntimeError, or a solution full of NaN.
    def result(rhs):
        if kind == "raise":
            raise RuntimeError("Factor is exactly singular")
        return np.full(np.shape(rhs), np.nan)

    return result


def _patch_spsolve(monkeypatch, kind, good_calls):
    # The first good_calls solves return a zero step, which no damping can
    # accept; the next one fails.  Returns the matrices passed in.
    fail = _failing(kind)
    calls = []

    def spsolve(matrix, rhs):
        calls.append(matrix)
        return np.zeros(np.shape(rhs)) if len(calls) <= good_calls else fail(rhs)

    monkeypatch.setattr(spla, "spsolve", spsolve)
    return calls


class _FailingLU:
    def __init__(self, kind):
        if kind == "raise":
            raise RuntimeError("Factor is exactly singular")
        self.solve = _failing(kind)


def _patch_splu(monkeypatch, kind, good_calls):
    monkeypatch.setattr(spla, "splu", lambda matrix: _FailingLU(kind))


def _band(ops):
    return L.random_band_field(ops.mesh, 0, 8, 0.5)


# site -> (patch, good calls before the failure, call of the public entry, name)
SITES = {
    "flow": (_patch_spsolve, 0, lambda ops: L.run_flow(ops, _band(ops), 1.0), "flow step"),
    "green": (_patch_spsolve, 0, lambda ops: L.solve_green(ops, 0), "Green system"),
    "mean_field_newton": (
        _patch_spsolve, 0,
        lambda ops: L.solve_mean_field(ops, 0.5, initial=_band(ops)),
        "mean-field Newton step",
    ),
    "mean_field_levenberg": (
        _patch_spsolve, 1,
        lambda ops: L.solve_mean_field(ops, 0.5, initial=_band(ops)),
        "mean-field Newton step",
    ),
    "disk": (
        _patch_spsolve, 0,
        lambda ops: L.disk_min_dirichlet(2.0, 0.3, 1.0, grid_n=256),
        "disk Newton step",
    ),
    "minimizer_preconditioner": (
        _patch_splu, 0,
        lambda ops: L.minimize_perturbed(ops, L.SolverConfig(epsilon=0.5), _band(ops)),
        "H1 preconditioner",
    ),
    "ascent_metric": (
        _patch_splu, 0,
        lambda ops: L.check_global_mt(ops, 0.1, trials=2, seed=0),
        "ascent metric",
    ),
}


@pytest.mark.parametrize("kind", ["raise", "nan"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_failed_solve_is_numeric_error_at_public_entry(ops2, monkeypatch, site, kind):
    patch, good_calls, entry, what = SITES[site]
    calls = patch(monkeypatch, kind, good_calls)
    with pytest.raises(NumericError, match=what):
        entry(ops2)
    if site == "mean_field_levenberg":
        # The second solve is the regularized normal-equation system.
        assert len(calls) == 2
        assert (calls[1] != calls[0]).nnz > 0


def _singular(ops):
    return dataclasses.replace(ops, stiffness=0 * ops.stiffness)


def test_singular_green_system_raises_typed_error_not_warning(ops2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="Matrix is exactly singular"):
            L.solve_green(_singular(ops2), 0)


def test_singular_green_system_emits_no_warning(ops2):
    with warnings.catch_warnings(record=True) as caught:
        with pytest.raises(NumericError, match="Matrix is exactly singular"):
            L.solve_green(_singular(ops2), 0)
    assert caught == []


def _sparse_solver_uses():
    # (module, top-level definition, name) for every spsolve/splu reference.
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
        ("mesh", "_solve", "spsolve"),
    ]


def test_solves_do_not_make_warnings_repeat(ops2):
    # Resetting the warning filters on every solve would clear the registry
    # that shows a "default" warning once per code location.
    system = ops2.stiffness + sp.diags(ops2.mass)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        _solve(system, ops2.mass, "test system")
        for _ in range(3):
            np.exp(np.array([1e3]))
            _solve(system, ops2.mass, "test system")
    assert [str(w.message) for w in caught] == ["overflow encountered in exp"]
