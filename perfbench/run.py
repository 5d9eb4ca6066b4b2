#!/usr/bin/env python3
"""maassforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from ``src`` and is
not installed.  Every operation runs in a fresh process, as a command-line user
runs it: ``python -m maassforge.cli ...`` for the command workloads, and one
worker process per pass for ``survey``.  Outputs are checked against
tolerances, and the last line of stdout is one JSON object with the result.

With ``--trace 0`` the workload's processes repeat for about S seconds and
the end-to-end metrics are printed.  With ``--trace 1`` one untraced and one
traced pass of the same operations run, and the per-layer metrics are
printed.  A fuller record, including package versions, goes to
``.bench_results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from worker import CLI_MODULES, SURVEY_MODULES  # noqa: E402

PY = sys.executable
WORKER = str(HERE / "worker.py")
SETUP_SAMPLES = 5
# The host's speed drifts by up to 2x over minutes (README.md), which no run
# short enough for the run budget averages out.  A reference job that does not
# involve the program runs before the set-up samples, between the workload's
# processes (at least every REFERENCE_EVERY_S) and at the end: a fresh
# interpreter that imports sympy and does some numpy and dict work, the kinds
# of work the workloads' time goes to.  Each process's wall and CPU time is
# scaled by REFERENCE_S over the mean of the reference runs just before and
# after it; the set-up time by REFERENCE_S over the run's median reference.
REFERENCE = """import sympy, numpy as np
x = np.linspace(0.1, 10.0, 1_000_000)
for _ in range(5): np.exp(-x).sum()
d = {}
for i in range(100_000): d[i * 7919 % 100_003] = i
"""
REFERENCE_S = 0.75
REFERENCE_EVERY_S = 5.0
RUN_LIMIT_S = 165.0  # a run must end within 180 s

OK, ERROR, WRONG = "ok", "error", "wrong"

# Published norms (Petersson norm of psi_1; for 401 the product over psi_1,
# psi_2), kept here so that the check does not read them from the program.
PAPER_VALUES = {229: 38.3345331336184, 445: 81.0223272397348, 401: 12489.3392834563}


class CheckFailed(Exception):
    pass


def need(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# -- checks of command output --------------------------------------------


def chi_229(n: int) -> int:
    """Kronecker symbol (229|n); 229 is a prime = 1 mod 4, so it is (n|229)."""
    r = pow(n % 229, 114, 229)
    return 0 if r == 0 else (1 if r == 1 else -1)


def primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def check_coefficients(a: list[complex]) -> None:
    """Identities of a'(n) for psi_1 of Q(sqrt 229), a[n] for n >= 1 (a[0] unused).

    The coefficients are real, a'(1) = 1, a'(p) = 0 at inert p,
    a'(p^2) = a'(p)^2 - chi(p) off the level, and a'(mn) = a'(m) a'(n) for
    coprime m, n (sampled)."""
    N = len(a) - 1
    need(a[1] == 1, "a'(1) != 1")
    need(all(abs(z.imag) < 1e-9 for z in a[1:]), "non-real coefficient")
    for p in primes_up_to(N):
        if chi_229(p) == -1:
            need(a[p] == 0, f"a'({p}) != 0 at an inert prime")
        if p * p <= N and p != 229:
            need(abs(a[p * p] - (a[p] ** 2 - chi_229(p))) < 1e-9, f"Hecke relation fails at {p}")
    rng = random.Random(0)
    for _ in range(2000):
        m = rng.randint(2, max(2, math.isqrt(N)))
        n = rng.randint(2, max(2, N // m))
        if math.gcd(m, n) == 1 and m * n <= N:
            need(abs(a[m * n] - a[m] * a[n]) < 1e-9, f"a'({m}*{n}) is not multiplicative")


def read_csv_coefficients(path: Path) -> list[complex]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    need(lines[0] == "n,re,im", "bad CSV header")
    a = [0j]
    for i, line in enumerate(lines[1:], 1):
        n, re, im = line.split(",")
        need(int(n) == i, "CSV rows out of order")
        a.append(complex(float(re), float(im)))
    return a


def json_coefficients(data: dict) -> list[complex]:
    rows = data["coefficients"]
    need([r["n"] for r in rows] == list(range(1, len(rows) + 1)), "JSON rows out of order")
    return [0j] + [complex(r["re"], r["im"]) for r in rows]


def v_field(d, work):
    need(d["D"] == 229 and d["h_narrow"] == 3, "wrong class number")
    x, y, nm = d["unit"]["x"], d["unit"]["y"], d["unit"]["norm"]
    need(x * x - 229 * y * y == 4 * nm and nm in (1, -1), "unit has wrong norm")
    need(math.isclose(d["regulator"], math.log((x + y * math.sqrt(229)) / 2), rel_tol=1e-12), "wrong regulator")
    need(math.isclose(d["res_zeta_f"], 2 * d["h_wide"] * d["regulator"] / math.sqrt(229), rel_tol=1e-12), "wrong residue")


def v_reproduce(example):
    def v(d, work):
        need(abs(d["total"] / PAPER_VALUES[example] - 1) < 1e-6, f"norm of {example} off the paper value")
    return v


def v_coeffs(n_max, csv_name):
    def v(d, work):
        a = json_coefficients(d)
        need(len(a) == n_max + 1, "wrong number of coefficients")
        b = read_csv_coefficients(work / csv_name)
        need(len(b) == n_max + 1, "wrong number of CSV rows")
        need(all(abs(x - y) <= 1e-12 * max(1.0, abs(x)) for x, y in zip(a, b)), "CSV and JSON differ")
        check_coefficients(a)
    return v


def v_theta(d, work):
    need(math.isfinite(d["re"]) and abs(d["im"]) < 1e-9, "theta value not finite and real")


def v_lvalue(d, work):
    need(d["cutoff_agreement"] < 1e-9, "split-point disagreement")
    need(math.isfinite(d["value"]) and d["value"] > 0, "L(1) not finite positive")


def v_petersson(d, work):
    need(abs(d["total"] / PAPER_VALUES[229] - 1) < 1e-6, "norm off the paper value")


def v_gauss(d, work):
    need(d["max_residual"] < 1e-9 and d["abs_tau_sq_minus_p"] < 1e-9, "Gauss-sum residual")


def v_ideals(d, work):
    expected = sum(chi_229(k) for n in range(1, 51) for k in range(1, n + 1) if n % k == 0)
    need(d["count"] == len(d["ideals"]) == expected, "wrong ideal count")
    need(all(1 <= i["norm"] <= 50 for i in d["ideals"]), "ideal norm out of range")


def v_automorphy(samples):
    def v(d, work):
        need(len(d["matrices"]) == samples, "wrong matrix family")
        need(d["max_residual"] < 1e-8, "automorphy residual")
    return v


def cli_check(name: str, validate) -> Callable:
    """Exit 0 and valid output -> ok; exit 1 (tolerance) or a failed check ->
    wrong; any other exit -> error."""
    def check(code: int, out: str, work: Path) -> list[tuple[str, str, str]]:
        if code == 1:
            return [(name, WRONG, "exit 1")]
        if code != 0:
            return [(name, ERROR, f"exit {code}")]
        try:
            validate(json.loads(out), work)
        except (CheckFailed, ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            return [(name, WRONG, f"{type(exc).__name__}: {exc}")]
        return [(name, OK, "")]
    return check


# -- survey inputs and checks --------------------------------------------

SURVEY_RANGE = (10**4, 10**6)
# Number of prime discriminant factors t of each field-stream draw in a block:
# t = 1, 2, 3 and t >= 4 in proportion (2:5:5:2) to their share of fundamental
# discriminants drawn log-uniformly from the range (14%, 37%, 34%, 14%).  By
# genus theory the narrow class group has 2-rank t - 1, so the t >= 3 draws
# are non-cyclic; the quota keeps their share, and so error_rate, fixed.
SURVEY_BLOCK = (1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4)
SURVEY_BLOCKS = 4
SURVEY_FIELDS = HERE / "survey_fields.json"  # norm slots, see survey_fields.py


def genus_t(D: int) -> int:
    """Number of prime discriminant factors of D, or 0 if D is not a
    fundamental discriminant."""
    if math.isqrt(D) ** 2 == D:
        return 0
    if D % 4 == 1:
        m, t = D, 0
    elif D % 4 == 0 and (D // 4) % 4 in (2, 3):
        m, t = D // 4, 1
        m //= 2 if m % 2 == 0 else 1
    else:
        return 0
    p = 3
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            t += 1
        p += 2
    return t + (m > 1)


def genus_consistent(D: int, h_narrow: int) -> bool:
    """Genus theory: the narrow class group has 2-rank t - 1, so h_narrow is
    odd iff t = 1, and 2^(t-1) divides it for t >= 2."""
    t = genus_t(D)
    return h_narrow % 2 == 1 if t == 1 else h_narrow % 2 ** (t - 1) == 0


def survey_inputs(seed: int, index: int) -> list[tuple[int, int]]:
    """(D, h) per field of a pass, h > 0 marking a norm field with that class
    number: SURVEY_BLOCKS blocks of field-stream draws, each followed by its
    share of the norm slots."""
    rng = random.Random(f"survey:{seed}:{index}")
    lo, hi = (math.log(x) for x in SURVEY_RANGE)
    slots = json.loads(SURVEY_FIELDS.read_text())["slots"]
    per_block = -(-len(slots) // SURVEY_BLOCKS)
    fields = []
    for b in range(SURVEY_BLOCKS):
        block = []
        for t in SURVEY_BLOCK:
            while True:
                D = int(math.exp(rng.uniform(lo, hi)))
                got = genus_t(D)
                if got and min(got, 4) == t:
                    break
            block.append((D, 0))
        rng.shuffle(block)
        fields += block
        fields += [(rng.choice(s["fields"]), s["h_narrow"]) for s in slots[b * per_block : (b + 1) * per_block]]
    return fields


def check_survey_field(rec: dict, norm_h: int) -> None:
    """Field invariants against the unit equation, genus theory and, for norm
    fields, the class number in survey_fields.json."""
    D, (x, y, nm) = rec["D"], rec["unit"]
    x, y = int(x), int(y)
    need(x > 0 and y > 0 and x * x - D * y * y == 4 * nm and nm in (1, -1), "unit has wrong norm")
    reg = math.log(x) + math.log1p(y / x * math.sqrt(D)) - math.log(2)
    need(math.isclose(rec["regulator"], reg, rel_tol=1e-9), "wrong regulator")
    h = rec["h_narrow"]
    need(rec["h_wide"] == (h if nm == -1 else h // 2), "narrow and wide class numbers disagree with the unit norm")
    need(genus_consistent(D, h), "class number contradicts genus theory")
    need(rec["res_zeta_f"] > 0 and math.isfinite(rec["res_zeta_f"]), "residue not finite positive")
    if norm_h:
        need(h == norm_h, "class number differs from survey_fields.json")
        need("norm" in rec, "no norm for a field with a character of order > 2")
        n = rec["norm"]
        need(math.isfinite(n["total"]) and n["total"] > 0, "norm not finite positive")
        need(n["cutoff_agreement"] < 1e-9, "split-point disagreement")


def survey_check(fields: list[tuple[int, int]]) -> Callable:
    def check(code: int, out: str, work: Path) -> list[tuple[str, str, str]]:
        outcomes = []
        lines = out.splitlines()
        for i, (D, norm_h) in enumerate(fields):
            name = f"field {D}"
            try:
                rec = json.loads(lines[i])
                need(rec["D"] == D, "output out of order")
                if "error" in rec:
                    outcomes.append((name, ERROR, rec["error"]))
                    continue
                check_survey_field(rec, norm_h)
                outcomes.append((name, OK, ""))
            except IndexError:
                outcomes.append((name, ERROR, f"not run: worker exit {code}"))
            except (CheckFailed, KeyError, ValueError, TypeError) as exc:
                outcomes.append((name, WRONG, f"{type(exc).__name__}: {exc}"))
        return outcomes
    return check


# -- workloads -----------------------------------------------------------


@dataclass
class Proc:
    """One process of a pass: a CLI command, or a survey worker."""

    args: list[str]
    check: Callable[[int, str, Path], list[tuple[str, str, str]]]
    survey: bool = False

    def argv(self, trace_file: str | None) -> list[str]:
        traced = ["--trace", trace_file] if trace_file else []
        if self.survey:
            return [PY, WORKER, *traced, "survey", *self.args]
        if trace_file:
            return [PY, WORKER, *traced, "cli", *self.args]
        return [PY, "-m", "maassforge.cli", *self.args]


def cli_proc(cmd: str, validate) -> Proc:
    args = cmd.split()
    return Proc(args, cli_check(" ".join(args[:3]), validate))


CLI_IMPORT = "import " + ", ".join(CLI_MODULES)
LIB_IMPORT = "import " + ", ".join(SURVEY_MODULES)
AUTOMORPHY_SAMPLES = 2
EXPORT_N = 150_000


def cli_tour(seed, index, work):
    return [
        cli_proc("field --disc 229", v_field),
        cli_proc("reproduce --example 229", v_reproduce(229)),
        cli_proc("reproduce --example 445", v_reproduce(445)),
        cli_proc("reproduce --example 401", v_reproduce(401)),
        cli_proc("coeffs --disc 229 --index 1 --n-max 100 --csv coeffs.csv", v_coeffs(100, "coeffs.csv")),
        cli_proc("theta-eval --disc 229 --index 1 --x 0.2 --y 0.5", v_theta),
        cli_proc("lvalue --disc 229 --index 2", v_lvalue),
        cli_proc("petersson --disc 229 --index 1", v_petersson),
        cli_proc("gauss-check --disc 229 --p 13", v_gauss),
        cli_proc("ideals --disc 229 --max-norm 50", v_ideals),
    ]


def automorphy(seed, index, work):
    cmd = f"check-automorphy --disc 229 --index 1 --samples {AUTOMORPHY_SAMPLES}"
    return [cli_proc(cmd, v_automorphy(AUTOMORPHY_SAMPLES))]


def export(seed, index, work):
    def v(d, w):
        v_coeffs(EXPORT_N, "export.csv")(d, w)
        need(json.loads((w / "export.json").read_text()) == d, "--out file differs from stdout")
    return [cli_proc(f"coeffs --disc 229 --index 1 --n-max {EXPORT_N} --csv export.csv --out export.json", v)]


def survey(seed, index, work):
    fields = survey_inputs(seed, index)
    path = work / "survey_in.json"
    path.write_text(json.dumps([[D, h > 0] for D, h in fields]))
    return [Proc([str(path)], survey_check(fields), survey=True)]


WORKLOADS = {
    "cli_tour": (cli_tour, CLI_IMPORT),
    "automorphy": (automorphy, CLI_IMPORT),
    "survey": (survey, LIB_IMPORT),
    "export": (export, CLI_IMPORT),
}


# -- processes and passes ------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MAASSFORGE_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_proc(argv: list[str], cwd: Path, tag: str, deadline: float) -> dict:
    """Run one child to completion; wall time, and CPU and peak RSS of that
    child alone from wait4."""
    out_path, err_path = cwd / f"{tag}.out", cwd / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - t0), p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": p.returncode,
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "rss_mb": ru.ru_maxrss / 1024,
        "out": out_path.read_text(errors="replace"),
        "err": err_path.read_text(errors="replace")[-2000:],
    }


def run_pass(workload: str, seed: int, index: int, work: Path, deadline: float, traced: bool) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    procs = WORKLOADS[workload][0](seed, index, work)
    results = []
    t0 = time.perf_counter()
    for i, proc in enumerate(procs):
        trace_file = str(work / f"trace{i}.json") if traced else None
        results.append(run_proc(proc.argv(trace_file), work, f"p{i}", deadline))
    wall = time.perf_counter() - t0
    outcomes = []
    for proc, r in zip(procs, results):
        outcomes += proc.check(r["code"], r["out"], work)
    traces = []
    if traced:
        for i in range(len(procs)):
            path = work / f"trace{i}.json"
            traces.append(json.loads(path.read_text()) if path.exists() else None)
    return {"wall_s": wall, "outcomes": outcomes, "traces": traces}


def summary(xs: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (nearest rank), and the sample count."""
    xs = sorted(xs)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    for q in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            out[f"p{q:g}"] = xs[rank - 1]
            break
    return out


def counts(outcomes) -> tuple[int, int, int]:
    failed = sum(o[1] != OK for o in outcomes)
    wrong = sum(o[1] == WRONG for o in outcomes)
    return len(outcomes), failed, wrong


# End-to-end metrics and units; success_rate is 1 - error_rate, which is
# never 0 where every operation succeeds.
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}


def typical_pass(samples: list[list[dict]]) -> dict:
    """A pass made of typical processes: wall and CPU time are the sums over
    the pass's processes of each one's median, and peak RSS is the largest of
    their medians.  ``samples[i]`` holds every run of the pass's i-th process."""
    def med(key):
        return [statistics.median(r[key] for r in runs) for runs in samples]
    return {"wall_s": sum(med("wall_s")), "cpu_s": sum(med("cpu_s")), "peak_rss_mb": max(med("rss_mb"))}


def scale_to_reference(r: dict, before: dict, after: dict) -> dict:
    """A process's times scaled by REFERENCE_S over the mean of the reference
    runs just before and after it."""
    def scale(key):
        return r[key] * REFERENCE_S / ((before[key] + after[key]) / 2)
    return {"wall_s": scale("wall_s"), "cpu_s": scale("cpu_s"), "rss_mb": r["rss_mb"]}


def timed_run(workload: str, seed: int, seconds: float, work: Path, deadline: float) -> dict:
    """Set-up samples, then the workload's processes in pass order, round and
    round, until about ``seconds`` have gone by (at least one whole pass),
    with the reference job before, between and after them.  Each process is
    timed alone and scaled to the reference; a typical pass is built from the
    per-process medians."""
    reference: list[dict] = []

    def run_reference() -> None:
        r = run_proc([PY, "-c", REFERENCE], work, "reference", deadline)
        if r["code"] != 0:
            raise SystemExit(f"error: the reference job fails:\n{r['err']}")
        reference.append(r)

    stmt = WORKLOADS[workload][1]
    setup = []
    run_reference()
    for i in range(SETUP_SAMPLES):
        r = run_proc([PY, "-c", stmt], work, f"setup{i}", deadline)
        if r["code"] != 0:
            raise SystemExit(f"error: `{stmt}` fails in a fresh interpreter:\n{r['err']}")
        setup.append(r["wall_s"])
    samples: list[list[dict]] = []
    outcomes, stderr = [], []
    pass_dir = work / "pass"
    t0 = time.perf_counter()
    last_reference = -math.inf
    index, done = 0, False
    while not done:
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        procs = WORKLOADS[workload][0](seed, index, pass_dir)
        for pos, proc in enumerate(procs):
            if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                run_reference()
                last_reference = time.perf_counter()
            r = run_proc(proc.argv(None), pass_dir, f"p{pos}", deadline)
            r["reference"] = len(reference) - 1
            outcomes += proc.check(r["code"], r["out"], pass_dir)
            if r["code"] != 0:
                stderr.append(r["err"])
            if index == 0:
                samples.append([])
            samples[pos].append(r)
            elapsed = time.perf_counter() - t0
            mean_op = elapsed / sum(map(len, samples))  # with its share of the reference
            # Stop at the process boundary nearest to `seconds`, once every
            # process of the pass has run.
            if (index > 0 or pos == len(procs) - 1) and (
                elapsed + mean_op / 2 >= seconds or time.perf_counter() + 2 * mean_op > deadline
            ):
                done = True
                break
        index += 1
    run_reference()
    attempted, failed, wrong = counts(outcomes)
    walls = [r["wall_s"] for runs in samples for r in runs]

    def scaled(r):
        return scale_to_reference(r, reference[r["reference"]], reference[r["reference"] + 1])

    ref_wall = [r["wall_s"] for r in reference]
    ref_cpu = [r["cpu_s"] for r in reference]
    values = {
        "setup_s": statistics.median(setup) * REFERENCE_S / statistics.median(ref_wall),
        **typical_pass([[scaled(r) for r in runs] for runs in samples]),
        "success_rate": (attempted - failed) / attempted,
    }
    metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "error_rate": failed / attempted,
        "processes": len(walls),
        "measured_s": time.perf_counter() - t0,
        "unscaled": {"setup_s": statistics.median(setup), **typical_pass(samples)},
        "timings": {
            "setup_s": summary(setup),
            "process_wall_s": summary(walls),
            "reference_wall_s": summary(ref_wall),
            "reference_cpu_s": summary(ref_cpu),
        },
        "per_process_wall_s": [summary([r["wall_s"] for r in runs]) for runs in samples],
        "metrics": metrics,
        "failures": sorted({f"{o[0]}: {o[2]}" for o in outcomes if o[1] != OK})[:10],
        "stderr": stderr[:3],
        "ok": wrong == 0 and failed < attempted,
    }


IMPORT_PACKAGES = {"sympy": "import.sympy_s", "scipy.integrate": "import.scipy_integrate_s", "mpmath": "import.mpmath_s"}


def import_times(stmt: str, work: Path, deadline: float) -> dict:
    """Interpreter start plus import, with cumulative times of the heavy
    dependencies from -X importtime."""
    r = run_proc([PY, "-X", "importtime", "-c", stmt], work, "importtime", deadline)
    if r["code"] != 0:
        raise SystemExit(f"error: `{stmt}` fails in a fresh interpreter")
    out = {"import.total_s": r["wall_s"], **{v: 0.0 for v in IMPORT_PACKAGES.values()}}
    with open(work / "importtime.err") as fh:
        for line in fh:
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORT_PACKAGES:
                out[IMPORT_PACKAGES[parts[2].strip()]] = int(parts[1]) / 1e6
    return out


def traced_run(workload: str, seed: int, work: Path, deadline: float) -> dict:
    imports = import_times(WORKLOADS[workload][1], work, deadline)
    plain = run_pass(workload, seed, 0, work / "pass", deadline, traced=False)
    traced = run_pass(workload, seed, 0, work / "pass", deadline, traced=True)
    parts = [t for t in traced["traces"] if t is not None]
    raw = tracing.merge([t["metrics"] for t in parts])
    raw.update(imports)
    raw["trace.traced_wall_s"] = traced["wall_s"]
    raw["trace.untraced_wall_s"] = plain["wall_s"]
    raw["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = tracing.finalize(raw)

    names: dict[str, list] = {}
    for t in parts:
        for k, v in t["names"].items():
            names[k] = [a + b for a, b in zip(names.get(k, (0, 0.0, 0.0)), v)]
    layer_self = {layer: metrics.get(f"{layer}.self_s", 0.0) for layer in tracing.LAYERS}
    same_ops = [o[:2] for o in plain["outcomes"]] == [o[:2] for o in traced["outcomes"]]
    ops = [o for t in parts for o in t["ops"]]
    self_check = {
        "same_operations_and_outcomes": same_ops,
        "span_trees_sum_to_op_wall": len(parts) == len(traced["traces"]) and tracing.ops_consistent(ops),
    }
    attempted, failed, wrong = counts(traced["outcomes"])
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "error_rate": failed / attempted,
        "self_check": self_check,
        "traced_ops": len(ops),
        "largest_self_layer": max(layer_self, key=layer_self.get),
        "layer_self_s": layer_self,
        "top_spans_by_self_s": sorted(
            ({"span": k, "calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in names.items()),
            key=lambda e: -e["self_s"],
        )[:10],
        "not_traced": sorted({m for t in parts for m in t["missing"]}),
        "metrics": {k: (v, tracing.PER_LAYER[k][0]) for k, v in metrics.items()},
        "failures": sorted({f"{o[0]}: {o[2]}" for o in traced["outcomes"] if o[1] != OK})[:10],
        "ok": wrong == 0 and failed < attempted and all(self_check.values()),
    }


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath", "sympy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.perf_counter()
    if not (ROOT / "src" / "maassforge" / "cli.py").is_file():
        print(f"error: no maassforge sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = start + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            res = traced_run(args.workload, args.seed, work, deadline)
        else:
            res = timed_run(args.workload, args.seed, args.seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "run_s": time.perf_counter() - start,
        **{k: v for k, v in res.items() if k not in ("metrics", "ok")},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": res["ok"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
