"""Command-line interface.

Exit codes: 0 success, 1 tolerance failure (SplitPointError), 2 invalid input
(InvalidInputError, such as a norm-induced character, whose theta series is
not cuspidal), 3 resource cap exceeded (BudgetError); the package root
defines the three.  Each is raised where its limit is known; main alone
prints it as one "error:" line and picks the code.  Anything else raised is a
bug and keeps its traceback.  An --out or --csv path that cannot be opened or
written is invalid input, as are two that open one regular file: both are
opened before either is written, nothing is printed, a file the run created
is removed, and one that existed is truncated only when its turn to be
written comes, last (_write_files).  So is a stdout that refuses the report
(a full device, a closed pipe), once --csv and --out are complete.

Each command returns its report and exit code, and main alone writes the
report: to --csv and --out, then to stdout.  All floats are printed with 15
significant digits and JSON output is byte-deterministic for fixed flags.

This module imports the standard library and the package root alone.  Each
command imports numpy and the modules it runs in its own body, once --disc
is within its budget, so --help, a refused argument and the budget load
neither, and each command compiles only the modules it needs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import stat
import sys

from . import BudgetError, InvalidInputError, SplitPointError

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3

# Largest --n-max coeffs may print.  Its JSON list of dicts costs about 1.09 KB
# of resident memory per row (D = 229: 213 MB at 1.5e5 rows, 370 MB at 3e5),
# on about 56 MB at start, so at this budget the peak is 577 MB for D = 229
# and 601 MB for D = 3305 (h = 12).
COEFFS_ROW_BUDGET = 500_000
# Largest --p gauss-check may take.  Its Gauss sums over O_F/(p) make 3 p^2
# Python iterations, about 1 us each: D = 229 took 0.33 s at p = 101, 3.1 s
# at p = 1009 and 11.3 s at p = 1973, each with 0.25 s of start-up.
GAUSS_PRIME_BUDGET = 2_000
# Largest --disc any command takes.  The class group's search for reduced
# forms, one numpy slice of candidates B per A, is still linear in D: 0.04 s
# at D = 1e7, 0.10 s at 4e7 and 0.2 s at 1e8 (h = 720), while D = 1000000009
# takes 2.4 s, 0.6 s of it the unit.  Checked first, so that no D above it
# costs even the trial division that tells whether it is fundamental.
DISC_BUDGET = 100_000_000
# Most matrices check-automorphy --samples may ask for.  Each adds ten points
# but no new rows, since the rows depend on c alone and c takes only
# maassform.SAMPLE_C_MULTIPLES values.  Cold, D = 229 took 0.15 s at 3
# samples, 0.17 s at 30 and 0.29 s at 100 (32 MB each); D = 40009, 2.9e6 rows,
# took 0.68 s at 3 and 6.7 s at 100 (72 MB), each point summing a support of
# up to 8.9e5 terms.
AUTOMORPHY_SAMPLE_BUDGET = 100
# Lowest --y theta-eval takes, so that the inputs it accepts stay fixed;
# ThetaForm.eval itself takes any y > 0, on about 7.2/y coefficient rows
THETA_EVAL_MIN_Y = 0.05
# The paper's worked examples: the Petersson norm reproduce --example checks
PAPER_VALUES = {
    229: 38.3345331336184,
    445: 81.0223272397348,
    401: 12489.3392834563,  # product of the norms for psi and psi^2
}


def _fmt(x) -> float:
    """Round-trip through 15 significant digits for deterministic output."""
    return float(f"{x:.15g}")


def _round_floats(data: dict) -> dict:
    return {
        k: _fmt(v) if isinstance(v, float) else v for k, v in data.items()
    }


def _write_files(writers: list) -> None:
    """Call each writer of the (path, writer) pairs on its path, opened
    for writing.  Every path is opened before any is written, and without
    truncating it; two that open one regular file (X and ./X, or a link to
    X) are invalid input, as the second write would truncate the first,
    but /dev/null may come twice.  Devices such as /dev/full, whose writes
    fail and which ftruncate refuses, are written first, then the files
    this call created, and last the regular files that existed, each
    emptied only when its turn comes.  So a path refused in opening, or a
    write refused before the first of those files, leaves each of them as
    it was; a write refused after it leaves that first rewritten.  An
    OSError in opening, writing or closing is invalid input, after which
    the files this call created are removed."""
    created, handles, path = [], [], None
    try:
        for path, _ in writers:
            new = not os.path.lexists(path)
            handles.append(open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline=""))
            if new:
                created.append(path)
        stats = [os.fstat(fh.fileno()) for fh in handles]
        regular = [stat.S_ISREG(st.st_mode) for st in stats]
        files = [(st.st_dev, st.st_ino) for st, reg in zip(stats, regular) if reg]
        if len(set(files)) < len(files):
            raise InvalidInputError(f"cannot write {' and '.join(repr(p) for p, _ in writers)}: one file")
        order = sorted(zip(writers, handles, regular), key=lambda t: (t[2], t[0][0] not in created))
        for (path, write), fh, reg in order:
            with fh:
                if reg:
                    fh.truncate()
                write(fh)
    except (OSError, InvalidInputError) as exc:
        for fh in handles:
            with contextlib.suppress(OSError):
                fh.close()
        for name in created:
            with contextlib.suppress(OSError):
                os.remove(name)
        if isinstance(exc, InvalidInputError):
            raise
        raise InvalidInputError(f"cannot write {path!r}: {exc.strerror}") from None


def _write_csv(fh, data: dict) -> None:
    """The coeffs rows as CSV, a'(n) at the 15 digits the JSON rounds it to."""
    import csv  # only coeffs --csv needs it

    w = csv.writer(fh)
    w.writerow(["n", "re", "im"])
    w.writerows([c["n"], f"{c['re']:.15g}", "0"] for c in data["coefficients"])


def _emit(data: dict, args) -> None:
    """Write the report, its own floats rounded by _fmt, to --csv (coeffs)
    and --out, then print it and flush stdout.  Lists and dicts nested in it
    are rounded where they are built, so that no recursive walk visits every
    coeffs row a second time.  A stdout that refuses the report (a full
    device, a pipe whose reader has gone) is invalid input, raised after
    --csv and --out are complete; fd 1 is then pointed at os.devnull, so that
    the interpreter's own flush at exit has nothing left to fail on."""
    text = json.dumps(_round_floats(data), indent=1, sort_keys=True)
    writers = []
    if getattr(args, "csv", None):
        writers.append((args.csv, lambda fh: _write_csv(fh, data)))
    if getattr(args, "out", None):
        writers.append((args.out, lambda fh: fh.write(text + "\n")))
    _write_files(writers)
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise InvalidInputError(f"cannot write stdout: {exc.strerror}") from None


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _positive_float(text: str) -> float:
    x = _finite_float(text)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be a number > 0, got {text!r}")
    return x


def _int_at_least(low: int):
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return n

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _field(disc: int):
    if disc > DISC_BUDGET:
        raise BudgetError(f"--disc {disc} is over the budget of {DISC_BUDGET}")
    from .quadfield import QuadField

    return QuadField(disc)


def _character(args):
    F = _field(args.disc)
    from .classforms import ClassGroup
    from .heckechar import make_class_character

    cg = ClassGroup(F)
    psi = make_class_character(cg, args.index)  # a group that is not cyclic is refused first
    if not 0 <= args.index < cg.h_narrow:
        raise InvalidInputError(f"character index must be in [0, {cg.h_narrow})")
    return cg, psi


def cmd_field(args) -> tuple[dict, int]:
    F = _field(args.disc)
    from .classforms import ClassGroup

    cg = ClassGroup(F)
    u = cg.unit
    limit = sys.get_int_max_str_digits()  # 0 is no limit; x > y > 0
    if limit and u.x >= 10**limit:
        raise BudgetError(f"the fundamental unit has more than {limit} digits, the most "
                          "Python prints of an integer (sys.get_int_max_str_digits())")
    return {
        "D": cg.field.D,
        "h_narrow": cg.h_narrow,
        "h_wide": cg.h_wide,
        "unit": {"x": u.x, "y": u.y, "norm": u.norm()},
        "regulator": cg.regulator,
        "res_zeta_f": cg.residue_zeta(),
    }, EXIT_OK


def cmd_reproduce(args) -> tuple[dict, int]:
    from .classforms import ClassGroup
    from .heckechar import make_class_character
    from .petersson import petersson_norm
    from .quadfield import QuadField

    D = args.example
    cg = ClassGroup(QuadField(D))
    target = PAPER_VALUES[D]
    if D == 401:
        reports = [petersson_norm(make_class_character(cg, i)) for i in (1, 2)]
        total = reports[0].total * reports[1].total
        rel = abs(total / target - 1)
        data = {
            "example": D,
            "factors": [_round_floats(r.to_json_dict()) for r in reports],
            "total": total,
            "paper_value": target,
            "rel_err": rel,
        }
    else:
        rep = petersson_norm(make_class_character(cg, 1), paper_value=target)
        rel = rep.rel_err
        data = {"example": D, **rep.to_json_dict()}
    return data, EXIT_OK if rel < 1e-6 else EXIT_TOLERANCE


def cmd_ideals(args) -> tuple[dict, int]:
    F = _field(args.disc)
    ids = F.enumerate_ideals(args.max_norm)
    return {
        "D": F.D,
        "max_norm": args.max_norm,
        "count": len(ids),
        "ideals": [{"k": I.k, "a": I.a, "b": I.b, "norm": I.norm()} for I in ids],
    }, EXIT_OK


def cmd_coeffs(args) -> tuple[dict, int]:
    cg, psi = _character(args)
    import numpy as np

    from .lseries import support

    if args.n_max > COEFFS_ROW_BUDGET:
        raise BudgetError(f"--n-max {args.n_max} is over the budget of {COEFFS_ROW_BUDGET} rows")
    # a'(n) is real, and exactly 0 off the support
    live, a = support(psi, args.n_max)
    b = np.zeros(args.n_max + 1)
    b[live] = a
    return {
        "D": cg.field.D,
        "index": psi.index,
        "coefficients": [
            {"n": n, "re": _fmt(b[n]), "im": 0.0} for n in range(1, args.n_max + 1)
        ],
    }, EXIT_OK


def cmd_theta_eval(args) -> tuple[dict, int]:
    cg, psi = _character(args)
    from .maassform import ThetaForm

    th = ThetaForm(psi)
    if args.y < THETA_EVAL_MIN_Y:
        raise InvalidInputError(f"--y {args.y} is below the lowest height {THETA_EVAL_MIN_Y}")
    return {
        "D": cg.field.D,
        "index": psi.index,
        "x": args.x,
        "y": args.y,
        "re": th.eval(args.x, args.y),
        "im": 0.0,
        **th.truncation_report([args.y]),
    }, EXIT_OK


def cmd_check_automorphy(args) -> tuple[dict, int]:
    if (args.c is None) != (args.d is None):
        raise InvalidInputError("--c and --d give one matrix and must be used together")
    if args.c == 0:
        raise InvalidInputError("--c must be nonzero: the points are placed on the circle |cz + d| = 1")
    cg, psi = _character(args)
    from .maassform import ThetaForm, gamma0_matrices, gamma0_matrix, isometric_circle_points

    th = ThetaForm(psi)
    if args.c is not None:
        if args.c % cg.field.D != 0 or math.gcd(args.c, args.d) != 1:
            raise InvalidInputError("need c = 0 mod D and gcd(c, d) = 1")
        if abs(args.d) >= abs(args.c) << 1023:
            raise InvalidInputError("need |d/c| < 2^1023: the points on the circle |cz + d| = 1 are float64")
        mats = [gamma0_matrix(args.c, args.d)]
    elif args.samples > AUTOMORPHY_SAMPLE_BUDGET:
        raise BudgetError(f"--samples {args.samples} is over the budget of {AUTOMORPHY_SAMPLE_BUDGET}")
    else:
        mats = gamma0_matrices(cg.field.D, count=args.samples)
    rep = th.check_automorphy([(m, isometric_circle_points(m[2], m[3])) for m in mats])
    return {
        "D": cg.field.D,
        "index": psi.index,
        "matrices": [list(m) for m in mats],
        "max_residual": rep.residual,
        "tolerance": args.tol,
        **{k: rep.details[k] for k in ("truncation", "terms", "tail_bound")},
    }, EXIT_OK if rep.residual < args.tol else EXIT_TOLERANCE


def cmd_lvalue(args) -> tuple[dict, int]:
    """L(1) by l_value_at_1, or for s > 1 the sum of b(n)/n^s to N = n_max
    and a bound on the rest.  |b(n)| is at most the number of ideals of norm
    n, sum_{d|n} chi_D(d) <= d(n), and A(x) = sum_{n<=x} d(n) <= x (ln x + 1),
    so partial summation, dropping -A(N) N^-s, gives sum_{n>N} d(n) n^-s <=
    s int_N^oo A(x) x^(-s-1) dx <= s N^(1-s) ((ln N + 1)/(s-1) + 1/(s-1)^2):
    0.138 at s = 1.5 and 1.0e12 at s = 1.000001, where the sum is no estimate."""
    cg, psi = _character(args)
    import numpy as np

    from .lseries import l_value_at_1, support

    if psi.is_trivial():
        raise InvalidInputError("L(s, trivial) has a pole at s = 1")
    # an s that prints as 1.0 takes the s = 1 route, so that the value
    # printed is the one for the s printed beside it
    if _fmt(args.s) == 1.0:
        return {"D": cg.field.D, "index": psi.index, "s": 1.0, **l_value_at_1(psi)}, EXIT_OK
    if args.s < 1.0:
        raise InvalidInputError("only s = 1 or s > 1 supported")
    n_max = 10**5
    n, b = support(psi, n_max)
    # n^s overflows to inf for s above about 62, and b/inf = 0 is the term's
    # exact limit, so the overflow is no error
    with np.errstate(over="ignore"):
        value = np.sum(b / n**args.s)
    tail = args.s * n_max ** (1 - args.s) * ((math.log(n_max) + 1) / (args.s - 1) + (args.s - 1) ** -2)
    return {
        "D": cg.field.D,
        "index": psi.index,
        "s": args.s,
        "value": value,
        "value_im": 0.0,
        "n_max": n_max,
        "tail_bound": tail,
    }, EXIT_OK


def cmd_petersson(args) -> tuple[dict, int]:
    cg, psi = _character(args)
    from .petersson import petersson_norm

    return {"D": cg.field.D, "index": psi.index, **petersson_norm(psi).to_json_dict()}, EXIT_OK


def cmd_gauss_check(args) -> tuple[dict, int]:
    F = _field(args.disc)
    from .heckechar import DirichletCharacterModP, check_gauss_norm_lemma, gauss_sum_rational
    from .quadfield import prime_factors

    p = args.p
    if p > GAUSS_PRIME_BUDGET:
        raise BudgetError(f"--p {p} is over the budget of {GAUSS_PRIME_BUDGET}")
    if p < 3 or prime_factors(p) != [p]:
        raise InvalidInputError(f"p={p} is not an odd prime")
    residuals = {}
    for k in range(1, min(p - 1, 4)):
        residuals[k] = _fmt(check_gauss_norm_lemma(F, p, k))
    tau = gauss_sum_rational(DirichletCharacterModP(p, 1), p)
    worst = max(residuals.values())
    return {
        "D": F.D,
        "p": p,
        "norm_lemma_residuals": residuals,
        "abs_tau_sq_minus_p": abs(abs(tau) ** 2 - p),
        "max_residual": worst,
    }, EXIT_OK if worst < 1e-9 else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="maassforge", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, index=True):
        p.add_argument("--disc", type=int, required=True, help="fundamental discriminant D > 0")
        if index:
            p.add_argument("--index", type=int, default=1, help="class character index")
        p.add_argument("--out", type=str, default=None, help="also write JSON to this path")

    p = sub.add_parser("field", help="class number, fundamental unit, regulator")
    add_common(p, index=False)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("reproduce", help="reproduce a worked Petersson-norm example")
    p.add_argument("--example", type=int, choices=sorted(PAPER_VALUES), required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("ideals", help="enumerate integral ideals by norm")
    add_common(p, index=False)
    p.add_argument("--max-norm", type=_int_at_least(0), required=True)
    p.set_defaults(func=cmd_ideals)

    p = sub.add_parser("coeffs", help="Fourier/Dirichlet coefficients a'(n)")
    add_common(p)
    p.add_argument("--n-max", type=_int_at_least(0), default=100)
    p.add_argument("--csv", type=str, default=None)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("theta-eval", help="evaluate the theta form at a point")
    add_common(p)
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--y", type=_finite_float, required=True)
    p.set_defaults(func=cmd_theta_eval)

    p = sub.add_parser("check-automorphy", help="automorphy residuals on Gamma_0(D)")
    add_common(p)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--samples", type=_int_at_least(1), default=3)
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.set_defaults(func=cmd_check_automorphy)

    p = sub.add_parser("lvalue", help="L(s, psi); dual-route L(1) report")
    add_common(p)
    p.add_argument("--s", type=_finite_float, default=1.0)
    p.set_defaults(func=cmd_lvalue)

    p = sub.add_parser("petersson", help="closed-form Petersson norm report")
    add_common(p)
    p.set_defaults(func=cmd_petersson)

    p = sub.add_parser("gauss-check", help="Gauss-sum norm-lemma residuals at an inert prime")
    add_common(p, index=False)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_gauss_check)

    return ap


def main(argv=None) -> None:
    """Run one command and exit with its code.  argparse exits 2 on usage
    errors and invalid numbers, which is EXIT_INVALID.

    argv None means the process's own command line, as `python -m
    maassforge.cli` and the `maassforge` script run it.  Then, once the
    report or the error line is out, gc.freeze() moves every object the
    collector tracks, the ~22,000 that importing numpy and maassforge made
    among them, out of its reach, so that the interpreter does not collect
    them again as it exits (about 15 ms a process).  Output, stdout's final
    flush and atexit hooks are unchanged.  A caller that passes argv keeps
    its collector as it was."""
    args = build_parser().parse_args(argv)
    try:
        report, code = args.func(args)
        _emit(report, args)
    except (SplitPointError, InvalidInputError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = (EXIT_TOLERANCE if isinstance(exc, SplitPointError)
                else EXIT_INVALID if isinstance(exc, InvalidInputError) else EXIT_RESOURCE)
    if argv is None:
        gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
