"""The exponential moment int exp(u) phi_i dV is discretized only in
energy.py: its three helpers are the seam, and their contract (volume,
first variation, normalization) is what a different discretization of the
moment must keep."""

import ast
from pathlib import Path

import numpy as np

import liouvillelab as L
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
