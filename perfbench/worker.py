"""Child process of the benchmark.

    worker.py [--trace FILE] survey INPUT.json
    worker.py  --trace FILE  cli ARG...

``survey`` runs one pass of the library survey: for each discriminant of the
input it builds the field and its narrow class group and reads the field
invariants; for the fields marked for a norm it also computes the Petersson
norm of the first non-norm-induced character.  It prints one JSON line per
field.  ``cli`` runs one command through ``maassforge.cli.main`` in this
process, with stdout captured and then replayed, and exits with its code.

With ``--trace`` the public callables are wrapped (see tracing.py) and the
span summary is written to FILE when the process ends.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import sys
import time

SURVEY_MODULES = ("maassforge.quadfield", "maassforge.classforms", "maassforge.heckechar", "maassforge.petersson")
CLI_MODULES = ("maassforge.cli",)


def survey(path: str, run_op) -> int:
    from maassforge.classforms import ClassGroup
    from maassforge.heckechar import make_class_character
    from maassforge.petersson import petersson_norm
    from maassforge.quadfield import QuadField

    def one_field(D: int, with_norm: bool) -> dict:
        cg = ClassGroup(QuadField(D))
        u = cg.unit
        rec = {
            "h_narrow": cg.h_narrow,
            "h_wide": cg.h_wide,
            "unit": [str(u.x), str(u.y), u.norm()],
            "regulator": cg.regulator,
            "res_zeta_f": cg.residue_zeta(),
        }
        for i in range(1, cg.h_narrow if with_norm else 0):
            psi = make_class_character(cg, i)
            if not psi.is_norm_induced():
                rep = petersson_norm(psi)
                rec["norm"] = {
                    "index": i,
                    "total": rep.total,
                    "cutoff_agreement": rep.l_diagnostics["cutoff_agreement"],
                    "oracle_agreement": rep.l_diagnostics["oracle_agreement"],
                }
                break
        return rec

    with open(path) as fh:
        fields = json.load(fh)
    for op, (D, with_norm) in enumerate(fields):
        try:
            rec = run_op(op, one_field, D, with_norm)
        except Exception as exc:  # every failure is recorded and the pass goes on
            rec = {"error": f"{type(exc).__name__}: {exc}"}
        rec["D"] = D
        print(json.dumps(rec), flush=True)
    return 0


def cli(argv: list[str], run_op) -> tuple[int, int]:
    """Run one command; returns (exit code, bytes emitted to stdout and files)."""
    from maassforge import cli as mf_cli

    def call():
        try:
            mf_cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        return 0

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_op(0, call)
    text = buf.getvalue()
    sys.stdout.write(text)
    written = len(text.encode())
    for flag in ("--out", "--csv"):
        if flag in argv:
            target = argv[argv.index(flag) + 1]
            if os.path.exists(target):
                written += os.path.getsize(target)
    return code, written


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", default=None)
    ap.add_argument("mode", choices=("survey", "cli"))
    ap.add_argument("rest", nargs=argparse.REMAINDER)
    args = ap.parse_args()

    t0 = time.perf_counter()
    for name in SURVEY_MODULES if args.mode == "survey" else CLI_MODULES:
        importlib.import_module(name)
    import_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        run_op = tracer.run_op
    else:
        def run_op(op, fn, *fn_args):
            return fn(*fn_args)

    emitted = 0
    if args.mode == "survey":
        code = survey(args.rest[0], run_op)
    else:
        code, emitted = cli(args.rest, run_op)

    if tracer is not None:
        metrics, names, ops = tracing.summarize(tracer.spans, tracer.op_wall)
        metrics.update(tracer.process_counters())
        metrics["import.self_s"] = import_s
        metrics["cli.emit_bytes"] = emitted
        with open(args.trace, "w") as fh:
            json.dump({"metrics": metrics, "names": names, "ops": ops, "missing": tracer.missing}, fh)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
