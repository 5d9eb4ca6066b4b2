import contextlib
import io
import math
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0

from maassforge import lseries, maassform, special
from maassforge.cli import main
from maassforge.quadfield import SIEVE_CHUNK
from maassforge.special import K0_HERMITE_BANDS, bessel_k0_array, incomplete_k_mellin

# a geometric grid, and the lower edge of each band of t, where its rule is
# least accurate, with the float below it, the top of the band before (the
# first edge is the switch from the power series to the Hermite sum)
_EDGES = np.array([edge for edge, _ in K0_HERMITE_BANDS])
K0_GRID = np.unique(np.concatenate([np.geomspace(1e-8, 700.0, 241), _EDGES, np.nextafter(_EDGES, 0)]))


def bessel_k(t: float, y: float, rtol: float = 1e-13) -> float:
    """K_{it}(y) for real t (t = 0 gives K_0), real-valued, y > 0: the oracle
    for the numpy K_0 and for K_{it} at imaginary order.

    Trapezoidal quadrature, with step halving, of the cosine-transform integral
    K_{it}(y) = int_0^inf exp(-y*cosh(u)) cos(t*u) du; the integrand is even
    with all odd derivatives vanishing at 0 and decays double-exponentially,
    so the trapezoid rule converges geometrically."""
    if y <= 0:
        raise ValueError("y must be positive")
    # choose u_max so exp(-y*cosh(u_max)) is negligible against K's size ~ exp(-y)
    target = y + 50.0
    u_max = math.acosh(max(target / y, 2.0)) + 1.0
    n = 64
    prev = _trapezoid_k(t, y, u_max, n)
    for _ in range(12):
        n *= 2
        cur = _trapezoid_k(t, y, u_max, n)
        if abs(cur - prev) <= rtol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    return prev


def _trapezoid_k(t: float, y: float, u_max: float, n: int) -> float:
    u = np.linspace(0.0, u_max, n + 1)
    w = np.exp(-y * np.cosh(u)) * np.cos(t * u)
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(w.sum() * (u_max / n))


@pytest.mark.parametrize("y", [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0, 50.0])
def test_bessel_k0_against_mpmath(y):
    ref = float(mp.besselk(0, y))
    assert abs(bessel_k(0.0, y) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize(
    "t,y",
    [(0.5, 1e-3), (1.0, 0.01), (2.5, 0.5), (5.0, 1.0), (1.3, 10.0), (9.0, 2.0)],
)
def test_bessel_k_imaginary_order_against_mpmath(t, y):
    ref = complex(mp.besselk(1j * t, y))
    assert abs(ref.imag) < 1e-12 * max(abs(ref), 1)
    assert abs(bessel_k(t, y) - ref.real) <= 1e-11 * abs(ref.real) + 1e-16


def test_bessel_k_quadrature_oracle():
    # independent adaptive quadrature of the defining integral
    for t, y in [(0.0, 1.0), (2.0, 0.7), (4.5, 3.0)]:
        ref, err = quad(lambda u: math.exp(-y * math.cosh(u)) * math.cos(t * u), 0, 25, limit=300)
        assert abs(bessel_k(t, y) - ref) < 1e-11


def test_bessel_k0_array_matches_scalar():
    ys = np.array([0.01, 0.3, 1.7, 9.0])
    arr = bessel_k0_array(ys)
    for y, v in zip(ys, arr):
        assert abs(v - bessel_k(0.0, float(y))) < 1e-12 * abs(v)


def test_k0_and_k0e_against_mpmath():
    with mp.workdps(30):
        k = np.array([float(mp.besselk(0, t)) for t in map(mp.mpf, K0_GRID.tolist())])
    assert np.max(np.abs(bessel_k0_array(K0_GRID) / k - 1)) <= 2e-15


def test_k0_and_k0e_against_scipy():
    assert np.max(np.abs(bessel_k0_array(K0_GRID) / k0(K0_GRID) - 1)) <= 3e-15


def test_k0_keeps_the_shape_of_its_argument():
    assert bessel_k0_array(0.5).shape == ()
    assert float(bessel_k0_array(0.5)) == pytest.approx(0.9244190712276659, rel=1e-15)
    t = np.array([[0.1, 1.9, 2.0], [2.1, 5.0, 30.0]])
    assert np.array_equal(bessel_k0_array(t), bessel_k0_array(t.ravel()).reshape(t.shape))


@pytest.mark.parametrize("f", [bessel_k0_array])
def test_k0_refuses_an_argument_out_of_order(f):
    # the bands are cut from ascending t, so t out of order would take wrong rules
    with pytest.raises(ValueError):
        f(np.array([0.1, 2.0, 30.0, 1.9, 2.1, 5.0]))
    with pytest.raises(ValueError):
        f(np.array([[0.1, 2.0, 30.0], [1.9, 2.1, 5.0]]))


def test_k0_over_blocks_against_scipy():
    # accuracy over a long array, longer than any caller passes, whose band
    # edges fall off the SIEVE_CHUNK boundaries: every entry is filled, by
    # its band's rule (the 24-node rule of [5, 8) is off by 3.3e-11 on [2, 5))
    t = np.linspace(0.5, 45.0, 5 * lseries.SIEVE_CHUNK + 3)
    assert np.all(np.searchsorted(t, _EDGES) % lseries.SIEVE_CHUNK != 0)
    assert np.max(np.abs(bessel_k0_array(t) / k0(t) - 1)) <= 3e-15


def _record(monkeypatch, module, name):
    """Record the arguments and the value of every call of module.name."""
    calls, real = [], getattr(module, name)

    def record(*args):
        value = real(*args)
        calls.append([np.array(a) for a in (*args, value)])
        return value

    monkeypatch.setattr(module, name, record)
    return calls


def _run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0


def test_k0_of_check_automorphy_against_scipy(monkeypatch):
    calls = _record(monkeypatch, maassform, "bessel_k0_array")
    heights = _record(monkeypatch, maassform.ThetaForm, "truncation_report")
    _run_cli("check-automorphy", "--disc", "229", "--index", "1", "--samples", "2")
    # K_0 once per distinct height and row, one SIEVE_CHUNK block a call:
    # 20 evaluations at 14 heights (z and gamma z share a height on the
    # isometric circle, or differ in its last digit), whose supports hold
    # 14,148 rows in all
    ((_, ys, _),) = heights
    assert len(ys) == 20 and len(set(ys.tolist())) == 14
    assert max(t.size for t, _ in calls) <= SIEVE_CHUNK
    assert sum(t.size for t, _ in calls) == 14_148
    for t, v in calls:
        assert np.max(np.abs(v / k0(t) - 1)) <= 3e-15


def test_k0_is_taken_one_block_at_a_time(monkeypatch):
    # bessel_k0_array cuts its argument into band slices and no smaller, so
    # its temporaries stay one SIEVE_CHUNK block only while every caller
    # passes at most one: Theta one block of a height's support, and
    # incomplete_k_mellin the nodes of SIEVE_CHUNK // 80 arguments
    real, sizes = special.bessel_k0_array, {maassform: [], special: []}
    for module, seen in sizes.items():
        monkeypatch.setattr(module, "bessel_k0_array", lambda t, seen=seen: seen.append(np.size(t)) or real(t))
    _run_cli("theta-eval", "--disc", "229", "--index", "1", "--x", "0.2", "--y", "0.5")
    _run_cli("check-automorphy", "--disc", "229", "--index", "1", "--samples", "2")
    _run_cli("check-automorphy", "--disc", "40009", "--index", "1")
    _run_cli("lvalue", "--disc", "229", "--index", "1")
    _run_cli("lvalue", "--disc", "94572769", "--index", "1")
    for seen in sizes.values():
        assert max(seen) <= SIEVE_CHUNK < sum(seen)


@pytest.mark.parametrize("D", [229, 401])
def test_afe_mellin_against_quadrature(monkeypatch, D):
    # G_s at the points the AFE of lvalue takes, as it weighs them: the nodes
    # of both Gauss rules sorted together, then K_0 by its bands
    calls = _record(monkeypatch, lseries, "incomplete_k_mellin")
    _run_cli("lvalue", "--disc", str(D), "--index", "1")
    assert len(calls) == 4
    for s, x, g in calls:
        ref = np.array([_incomplete_k_mellin_quad(float(s), v) for v in x.tolist()])
        assert np.max(np.abs(g / ref - 1)) <= 1e-13, float(s)


def test_bessel_exponential_bound():
    for y in (1.5, 3.0, 10.0):
        assert abs(bessel_k(0.0, y)) <= math.exp(-y)
        assert abs(bessel_k(3.0, y)) <= math.exp(-y)


def test_bessel_rejects_nonpositive_y():
    with pytest.raises(ValueError):
        bessel_k(0.0, 0.0)


def _incomplete_k_mellin_quad(s: float, x: float) -> float:
    """G_s(x) by adaptive quadrature, with breakpoints so that each piece
    spans at most one scale of K_0: near 0 it behaves like -ln u, beyond 1 like
    e^(-u)/sqrt(u)."""
    breaks = (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 40.0, 80.0)
    edges = [x, *(e for e in breaks if e > x), max(x, 80.0) + 80.0]
    return sum(
        quad(lambda u: k0(u) * u ** (s - 1), a, b, epsabs=0, epsrel=1e-13, limit=400)[0]
        for a, b in zip(edges, edges[1:])
    )


def test_incomplete_k_mellin_against_quad():
    # to 61, past the AFE's largest x, 58.0 at D = 12
    xs = np.geomspace(1e-4, 61.0, 31)
    for s in (0.0, 1.0, 2.0):
        got = incomplete_k_mellin(s, xs)
        ref = np.array([_incomplete_k_mellin_quad(s, float(x)) for x in xs])
        assert np.max(np.abs(got / ref - 1)) <= 1e-13, s


def test_incomplete_k_mellin_limits():
    # G_s(0) = int_0^oo K_0(u) u^(s-1) du = 2^(s-2) Gamma(s/2)^2
    for s in (1.0, 2.0, 3.0):
        full = 2.0 ** (s - 2) * math.gamma(s / 2) ** 2
        assert abs(incomplete_k_mellin(s, 1e-12) / full - 1) < 1e-9, s
    assert incomplete_k_mellin(1.0, 40.0) < 1e-15
    # decreasing in x, and no larger than e^(-x) G_1(0) = e^(-x) pi/2
    xs = np.array([0.1, 0.5, 1.0, 2.0, 2.5, 5.0, 10.0])
    ws = incomplete_k_mellin(1.0, xs)
    assert np.all(np.diff(ws) < 0)
    assert np.all(ws < np.exp(-xs) * math.pi / 2)


def test_incomplete_k_mellin_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        incomplete_k_mellin(1.0, np.array([1.0, 0.0]))


def _within_ulps(got, want, ulps: int) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - want) <= ulps * np.spacing(np.abs(want))))


def test_gauss_rules_are_numpys():
    # the rules read from gauss_rules.json are numpy.polynomial's to 2 ulp,
    # with as many nodes as the code takes, and integrate low moments exactly
    for (_, nodes), rule in zip(K0_HERMITE_BANDS, special._HERMITE):
        w2, wt2 = np.array(rule).T
        w, wt = np.polynomial.hermite.hermgauss(nodes)
        assert w2.size == nodes // 2
        assert _within_ulps(w2, w[w > 0] ** 2, 2) and _within_ulps(wt2, 2 * wt[w > 0], 2)
        for k in range(4):  # int e^(-w^2) w^2k dw = Gamma(k + 1/2)
            assert math.isclose(wt2 @ w2**k, math.gamma(k + 0.5), rel_tol=1e-14), (nodes, k)
    for stored, rule in ((special._LAGUERRE, np.polynomial.laguerre.laggauss),
                         (special._LEGENDRE, np.polynomial.legendre.leggauss)):
        assert stored[0].size == stored[1].size == 40
        assert all(_within_ulps(a, b, 2) for a, b in zip(stored, rule(40)))
    (t, wt), (r, wr) = special._LAGUERRE, special._LEGENDRE
    for k in range(4):  # int_0^oo e^(-t) t^k dt = k!, int_-1^1 r^k dr = 2/(k + 1) or 0
        assert math.isclose(wt @ t**k, math.factorial(k), rel_tol=1e-13), k
        assert abs(wr @ r**k - (2 / (k + 1) if k % 2 == 0 else 0)) <= 1e-14, k


def test_sdist_ships_the_gauss_rules(tmp_path):
    # special reads gauss_rules.json at import, so a source distribution
    # without it would install a package that cannot be imported; build one
    # offline with setuptools' own backend from a copy of the project files
    root = Path(__file__).resolve().parents[1]
    shutil.copy(root / "pyproject.toml", tmp_path)
    shutil.copytree(root / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    build = "from setuptools import build_meta; print(build_meta.build_sdist('dist'))"
    done = subprocess.run([sys.executable, "-c", build], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    with tarfile.open(tmp_path / "dist" / done.stdout.split()[-1]) as sdist:
        names = sdist.getnames()
    assert any(name.endswith("src/maassforge/gauss_rules.json") for name in names), names
