"""The exponential moment int exp(u) phi_i dV is discretized only in
energy.py, in ``_exp_weights``: the density, the operator and every engine
derive from it, and their contract (volume, first variation,
normalization, the flow's volume, the mean-field start, the ascent metric)
is what a different discretization of the moment must keep."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import liouvillelab as L
from liouvillelab import energy, flow, inequalities, solver
from liouvillelab.energy import _exp_density, _exp_operator, _exp_weights, log_volume

SRC = Path(L.__file__).parent


def _is_exp(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "exp"
    )


def _is_log_volume(node):
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and "log_volume" in (
        getattr(func, "id", None),
        getattr(func, "attr", None),
    )


def _factors(node):
    # The operands of a chain of * and @, flattened.
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.MatMult)):
        return _factors(node.left) + _factors(node.right)
    return [node]


def _moment_sites(path):
    # (module, top-level definition, kind) for every moment evaluated inline.
    sites = []
    tree = ast.parse(path.read_text(), filename=str(path))
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.MatMult)):
                factors = _factors(node)
                mass = any(isinstance(f, ast.Attribute) and f.attr == "mass" for f in factors)
                if mass and any(_is_exp(f) for f in factors):
                    sites.append((path.stem, owner, "exp times mass"))
            elif _is_exp(node) and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Sub):
                    if _is_log_volume(arg.right):
                        sites.append((path.stem, owner, "exp minus log_volume"))
    return sites


def test_moment_is_evaluated_only_in_energy():
    sites = [
        site
        for path in sorted(SRC.glob("*.py"))
        if path.name != "energy.py"
        for site in _moment_sites(path)
    ]
    assert sites == []


def test_guard_sees_every_inline_form(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "def lumped(ops, u):\n"
        "    return np.exp(u) * ops.mass\n"
        "def scaled(ops, u, b):\n"
        "    return b * np.exp(u) * ops.mass\n"
        "def volume(ops, u):\n"
        "    return ops.mass * np.exp(u) @ ones\n"
        "def dotted(ops, u):\n"
        "    return np.exp(u) @ ops.mass\n"
        "def density(ops, u):\n"
        "    return np.exp(u - log_volume(ops, u))\n"
        "def background(core, phi):\n"
        "    return np.exp(phi) * core.round_mass\n"
    )
    owners = {owner for _, owner, _ in _moment_sites(source)}
    assert owners == {"lumped", "scaled", "volume", "dotted", "density"}


def _band(ops):
    u = L.random_band_field(ops.mesh, 4, 8, 0.5)
    h = np.random.default_rng(11).standard_normal(u.shape)
    return u, h


def test_volume_is_the_sum_of_the_weights(bumpy3):
    u, _ = _band(bumpy3)
    expected = np.log(_exp_weights(bumpy3, u).sum())
    assert abs(log_volume(bumpy3, u) - expected) <= 1e-14 * abs(expected)


def test_density_is_the_first_variation_of_the_log_volume(bumpy3):
    u, h = _band(bumpy3)
    t = 1e-5
    difference = (log_volume(bumpy3, u + t * h) - log_volume(bumpy3, u - t * h)) / (2 * t)
    assert abs(difference - (_exp_density(bumpy3, u) * h) @ bumpy3.mass) <= 1e-7


def test_operator_is_the_first_variation_of_the_weights(bumpy3):
    u, h = _band(bumpy3)
    t = 1e-5
    difference = (_exp_weights(bumpy3, u + t * h) - _exp_weights(bumpy3, u - t * h)) / (2 * t)
    assert np.abs(difference - _exp_operator(bumpy3, u) @ h).max() <= 1e-7


def test_density_has_unit_mass(bumpy3):
    u, _ = _band(bumpy3)
    assert abs(_exp_density(bumpy3, u) @ bumpy3.mass - 1.0) <= 1e-14


def test_energy_writes_the_rule_once():
    sites = _moment_sites(SRC / "energy.py")
    assert {owner for _, owner, _ in sites} == {"_exp_weights"}


def _round_mass_rule(ops, u):
    # Another per-vertex moment, on the round masses: on a background it
    # differs from the lumped one, so an inline copy of the lumped rule shows.
    return np.exp(u) * ops.round_mass


@pytest.fixture()
def other_rule(monkeypatch):
    # The rule swapped in wherever the package reads _exp_weights.
    for name, module in list(sys.modules.items()):
        reads = getattr(module, "_exp_weights", None) is _exp_weights
        if name.startswith("liouvillelab") and reads:
            monkeypatch.setattr(module, "_exp_weights", _round_mass_rule)


@pytest.fixture(scope="module")
def band3():
    mesh = L.build_icosphere(3)
    phi = L.random_band_field(mesh, 7, 8, 0.3)
    return L.assemble_operators(L.set_conformal_background(mesh, phi, normalize=True))


def test_density_follows_the_rule(band3, other_rule):
    u, h = _band(band3)
    t = 1e-5
    difference = (log_volume(band3, u + t * h) - log_volume(band3, u - t * h)) / (2 * t)
    density = _exp_density(band3, u)
    assert abs(difference - (density * h) @ band3.mass) <= 1e-7
    assert abs(density @ band3.mass - 1.0) <= 1e-14


def test_operator_follows_the_rule(band3, other_rule):
    u, h = _band(band3)
    t = 1e-5
    weights = energy._exp_weights
    difference = (weights(band3, u + t * h) - weights(band3, u - t * h)) / (2 * t)
    assert np.abs(difference - _exp_operator(band3, u) @ h).max() <= 1e-7


def test_flow_step_keeps_the_volume_to_second_order(band3, other_rule, monkeypatch):
    # From volume 4 pi the step's weak form keeps the volume to O(dt^2), so
    # halving dt quarters the change; a first-order loss would only halve it.
    # The renormalization after the step is switched off to see this.
    u = flow._renormalize(band3, L.random_band_field(band3.mesh, 5, 8, 0.3))
    monkeypatch.setattr(flow, "_renormalize", lambda ops, u: u)
    changes = [
        abs(log_volume(band3, flow._semi_implicit(band3, u, dt)) - np.log(4.0 * np.pi))
        for dt in (1e-2, 5e-3, 2.5e-3)
    ]
    assert changes[1] < 0.3 * changes[0]
    assert changes[2] < 0.3 * changes[1]


class _Started(Exception):
    pass


def test_mean_field_starts_at_unit_volume(other_rule, monkeypatch):
    # An unnormalized background: its metric area is not 4 pi, so the
    # default start must come from the moment, not from the area.
    mesh = L.build_icosphere(3)
    phi = L.random_band_field(mesh, 7, 8, 0.3)
    ops = L.assemble_operators(L.set_conformal_background(mesh, phi))
    starts = []

    def record(ops, config, initial):
        starts.append(initial)
        raise _Started

    monkeypatch.setattr(solver, "minimize_perturbed", record)
    with pytest.raises(_Started):
        L.solve_mean_field(ops, 0.5)
    assert abs(log_volume(ops, starts[0])) <= 1e-14


def test_ascent_metric_follows_the_rule(band3, other_rule, monkeypatch):
    # The ascent's first metric inverts H = 2 kappa S - W/V + (2/V^2) w w^T,
    # with w, W = diag(w) and V the moment's weights, operator and volume at
    # the constant.
    metrics = []

    def ascend(ops, u0, kappa, given, cap):
        metrics.append((kappa, given[0]))
        return 0.0, 0, False

    monkeypatch.setattr(inequalities, "_ascend", ascend)
    L.check_global_mt(band3, 0.1, 1, 0)
    kappa, solve_hessian = metrics[0]
    weights = energy._exp_weights(band3, np.zeros(band3.mass.shape))
    volume = weights.sum()
    b = np.random.default_rng(3).standard_normal(weights.shape)
    x = solve_hessian(b)
    hx = (
        2.0 * kappa * (band3.stiffness @ x)
        - weights * x / volume
        + (2.0 / volume**2) * weights * (weights @ x)
    )
    assert np.abs(hx - b).max() <= 1e-10 * np.abs(b).max()
