"""Bounded fuzz of the CLI's exit-code contract at levels <= 2.

Every run either exits 0 or exits 2/3/4 with exactly one typed line on
stderr, and every JSON it writes parses strictly (no NaN or Infinity).
Warnings count as stderr lines, because outside pytest they print there.
"""

import contextlib
import io
import json
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
# option -> (values the library accepts, values it must refuse or survive)
OPTIONS = {
    "eps": (st.floats(0.01, 2.0), st.sampled_from([0.0, -0.5, 30.0, float("nan")])),
    "amp": (st.floats(-2.0, 2.0), st.sampled_from(NON_FINITE)),
    "bands": (st.integers(1, 12), st.integers(-1, 0)),
    "seed": (st.integers(0, 2**40), st.integers(-3, -1)),
    "metric-amp": (st.floats(-0.6, 0.6), st.sampled_from(NON_FINITE)),
    "max-iter": (st.integers(1, 60), st.integers(-1, 0)),
    "tol": (st.floats(1e-13, 1e-2), st.sampled_from([0.0, -1.0, *NON_FINITE])),
    "grid-n": (st.integers(256, 600), st.integers(-2, 255)),
}


@st.composite
def command_lines(draw):
    """A command line with some options set and at most one bad value."""
    command = draw(st.sampled_from(["minimize", "sweep-eps", "inequalities"]))
    values = {
        name: draw(st.one_of(st.none(), good)) for name, (good, _) in OPTIONS.items()
    }
    bad = draw(st.one_of(st.none(), st.sampled_from(sorted(OPTIONS))))
    if bad is not None:
        values[bad] = draw(OPTIONS[bad][1])
    if command == "sweep-eps" and values["eps"] is not None:
        more = draw(st.lists(OPTIONS["eps"][0], max_size=2))
        values["eps"] = ",".join(repr(v) for v in [values["eps"], *more])
    args = [command, f"--level={draw(st.integers(0, 2))}", "--no-plots"]
    # --key=value, so that argparse reads a negative value as the value.
    args += [f"--{name}={value}" for name, value in values.items() if value is not None]
    if command == "inequalities":
        args += ["--samples=3", "--trials=1"]
    return args


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(command_lines())
def test_cli_exit_contract(args):
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.parse_and_run(args + [f"--out={tmp}"])
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        event(f"{args[0]} exit {code}")
        assert code in (0, 2, 3, 4), (code, lines)
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1 and TYPED_LINE.fullmatch(lines[0]), lines
        for path in Path(tmp).glob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")
