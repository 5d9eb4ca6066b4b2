"""Fuzz the command line in-process: every input ends in an exit code of the
contract (0 ok, 1 tolerance, 2 invalid, 3 resource), with no other exception,
and every report it prints is strict JSON that the schema accepts, its floats
at 15 significant digits."""

import contextlib
import io
import json
from pathlib import Path

import jsonschema
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maassforge.cli import main
from oracles import report_floats

SCHEMA = json.loads((Path(__file__).parent.parent / "schemas" / "report.json").read_text())

# invalid discriminants first, then fields with h+ = 1, 2 (norm-induced), h+ = 4
# with an odd character (136), h+ = 3 (229) and a non-cyclic group (1105)
DISCS = [-5, 0, 1, 4, 9, 5, 8, 12, 40, 136, 229, 1105]
NUMBERS = ["-inf", "-1e300", "-1", "0", "1e-300", "0.001", "0.05", "0.12345678901234567", "0.2",
           "0.5", "1", "1.5", "3", "1e300", "inf", "nan", "x"]
numbers = st.sampled_from(NUMBERS)


def optional(draw, *flag_and_value):
    """The flag and its value, or nothing: a flag left out takes its default."""
    return draw(st.sampled_from([[], list(flag_and_value)]))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["field", "ideals", "coeffs", "theta-eval", "check-automorphy", "lvalue", "petersson",
         "gauss-check"]
    ))
    disc = draw(st.sampled_from(DISCS))
    argv = [command, "--disc", str(disc)]
    if command in ("coeffs", "theta-eval", "check-automorphy", "lvalue", "petersson"):
        argv += ["--index", str(draw(st.integers(-1, 3)))]
    if command == "ideals":
        argv += ["--max-norm", str(draw(st.integers(-5, 2000)))]
    elif command == "coeffs":
        argv += ["--n-max", str(draw(st.integers(-5, 2000)))]
    elif command == "theta-eval":
        argv += ["--x", draw(numbers), "--y", draw(numbers)]
    elif command == "check-automorphy":
        argv += ["--samples", "1", *optional(draw, "--tol", draw(numbers))]
        # a matrix by its bottom row, or half of one
        c, d = str(draw(st.integers(-3, 3))), str(draw(st.integers(-3, 3)))
        argv += draw(st.sampled_from([[], ["--c", c, "--d", d], ["--c", c], ["--d", d]]))
    elif command == "lvalue":
        argv += optional(draw, "--s", draw(numbers))
    elif command == "gauss-check":
        argv += ["--p", str(draw(st.integers(-5, 200)))]
    return argv


def _no_constant(name):
    raise ValueError(f"{name} in the JSON output")


def check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            raise AssertionError("main returned without exiting")
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    if code == 0 or out.getvalue():
        # exit 1 from a split-point disagreement prints no report
        report = json.loads(out.getvalue(), parse_constant=_no_constant)
        jsonschema.validate(report, SCHEMA)
        assert all(v == float(f"{v:.15g}") for v in report_floats(report)), argv
    if code in (2, 3):
        assert out.getvalue() == "" and "error:" in err.getvalue(), (argv, err.getvalue())


FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(argvs())
def test_cli_exit_code_contract(argv):
    check_contract(argv)


# the bottom row (c, d) of the check-automorphy matrix must satisfy c = 0 mod D
# and gcd(c, d) = 1, which independent draws rarely meet: here c is a multiple
# of D, on the two fields above with a theta cusp form, and d is small or
# puts the points far from the origin, where gamma z must not cancel, or
# past the float64 range
@settings(FUZZ, max_examples=40)
@given(st.sampled_from([136, 229]), st.integers(0, 3), st.integers(-2, 2),
       st.one_of(st.integers(-5, 5), st.sampled_from([10**9 + 1, 10**20 + 1, 10**400 + 1])))
def test_check_automorphy_matrix_exit_code_contract(disc, index, k, d):
    check_contract(["check-automorphy", "--disc", str(disc), "--index", str(index),
                    "--c", str(k * disc), "--d", str(d)])
