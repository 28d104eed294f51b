"""Bounded fuzz of the CLI's exit-code contract at levels <= 2.

Each command line sets some of the options its command reads, as RunSpec
declares them, with at most one bad value and at most one option that the
command does not read.  Every run either exits 0 or exits 2/3/4 with
exactly one typed line on stderr, and a foreign option exits 2 with the
line that names it and the command.  Every JSON a run writes parses
strictly (no NaN or Infinity).  Warnings count as stderr lines, because
outside pytest they print there.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from liouvillelab import cli

TYPED_LINE = re.compile(
    r"(ParameterError|DataError|MeshQualityError|ConvergenceError"
    r"|ResolutionError|NumericError) in \w+\.\w+: \S.*"
)
NON_FINITE = [float("nan"), float("inf"), 1e300]
# The flow's times leave out 1e300, a run that would not end.
NON_FINITE_TIMES = [float("nan"), float("inf")]
# option -> (values the library accepts, values it must refuse or survive).
# A good --a is drawn as t and passed as a = t pi r^2 e^{2b}.  --out and
# --no-plots are always set, and --mesh-file never.
VALUES = {
    "level": (st.integers(0, 2), st.just(-1)),
    "metric-seed": (st.integers(0, 2**40), st.integers(-3, -1)),
    "metric-amp": (st.floats(-0.6, 0.6), st.sampled_from(NON_FINITE)),
    "eps": (st.floats(0.01, 2.0), st.sampled_from([0.0, -0.5, 30.0, float("nan")])),
    "seed": (st.integers(0, 2**40), st.integers(-3, -1)),
    "tol": (st.floats(1e-13, 1e-2), st.sampled_from([0.0, -1.0, *NON_FINITE])),
    "max-iter": (st.integers(1, 60), st.integers(-1, 0)),
    "bands": (st.integers(1, 12), st.one_of(st.integers(-1, 0), st.just(10**40))),
    "amp": (st.floats(-2.0, 2.0), st.sampled_from(NON_FINITE)),
    "pole": (st.integers(0, 11), st.sampled_from([-1, 10**6])),
    "R": (st.floats(0.1, 10.0), st.sampled_from([0.0, -1.0, *NON_FINITE])),
    "t-end": (st.floats(0.05, 1.0), st.sampled_from([0.0, -1.0, *NON_FINITE_TIMES])),
    "dt0": (st.floats(1e-3, 0.1), st.sampled_from([0.0, -1.0, *NON_FINITE_TIMES])),
    "a": (st.floats(1e-3, 1e6), st.sampled_from([0.0, -1.0, *NON_FINITE])),
    "b": (st.floats(-6.0, 6.0), st.sampled_from([-400.0, 400.0, *NON_FINITE])),
    "r": (st.floats(1e-3, 1e3), st.sampled_from([0.0, -1.0, *NON_FINITE])),
    "grid-n": (st.integers(256, 600), st.one_of(st.integers(-2, 255), st.just(10**14))),
    "samples": (st.integers(1, 3), st.integers(-1, 0)),
    "trials": (st.integers(1, 2), st.integers(-1, 0)),
    "p": (st.floats(1.0, 4.0), st.sampled_from([0.5, *NON_FINITE])),
    "delta": (st.floats(0.5, 12.0), st.sampled_from([0.0, 13.0, *NON_FINITE])),
}
# Set whenever the command reads them, so that every run stays small.
ALWAYS = {"level", "t-end", "samples", "trials"}


@st.composite
def command_lines(draw, commands=tuple(cli._HANDLERS)):
    """(command line, the foreign option it sets or None)."""
    command = draw(st.sampled_from(commands))
    own = [key for key in VALUES if command in cli._OPTIONS[key].metadata["readers"]]
    values = {}
    for key in own:
        good = VALUES[key][0]
        values[key] = draw(good if key in ALWAYS else st.one_of(st.none(), good))
    if values.get("a") is not None:
        b, r = values["b"] or 0.0, values["r"] or 1.0
        values["a"] *= math.pi * r * r * math.exp(2.0 * b)
    bad = draw(st.one_of(st.none(), st.sampled_from(own)))
    if bad is not None:
        values[bad] = draw(VALUES[bad][1])
    if command == "sweep-eps" and values["eps"] is not None:
        more = draw(st.lists(VALUES["eps"][0], max_size=2))
        values["eps"] = ",".join(repr(v) for v in [values["eps"], *more])
    foreign = None
    if draw(st.integers(0, 3)) == 0:  # one line in four
        foreign = draw(st.sampled_from(sorted(set(VALUES) - set(own))))
        values[foreign] = draw(VALUES[foreign][0])
    # --key=value, so that argparse reads a negative value as the value.
    args = [command, "--no-plots"]
    args += [f"--{name}={value}" for name, value in values.items() if value is not None]
    return args, foreign


FUZZ = settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=250)
@given(command_lines())
def test_cli_exit_contract(case):
    _check(*case)


@settings(FUZZ, max_examples=150)
@given(command_lines(("disk",)))
def test_disk_margin_is_nonnegative(case):
    # One command in nine is disk above; these lines reach the margin check
    # in _check often enough to test it.
    _check(*case)


def _check(args, foreign):
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.parse_and_run(args + [f"--out={tmp}"])
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        event(f"{args[0]} exit {code}" + (" foreign" if foreign else ""))
        if foreign is not None:
            refusal = f"ParameterError in cli.parse_and_run: {args[0]} does not read --{foreign}"
            assert (code, lines) == (2, [refusal]), args
            assert not any(Path(tmp).iterdir())
        assert code in (0, 2, 3, 4), (code, lines)
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1 and TYPED_LINE.fullmatch(lines[0]), lines
        for path in Path(tmp).glob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)
        if args[0] == "disk" and code == 0:
            info = json.loads((Path(tmp) / "disk.json").read_text())
            floor = -1e-10 * max(1.0, abs(info["bound"]))
            assert info["margin"] >= floor, (args, info["margin"])


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")
