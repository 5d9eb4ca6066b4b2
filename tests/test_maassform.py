import contextlib
import io
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import k0

from maassforge.classforms import ClassGroup
from maassforge import lseries as ls
from maassforge.cli import main
from maassforge.heckechar import NormInducedError, make_class_character
from maassforge.maassform import ThetaForm, _phase, _phase_tables, gamma0_matrices, isometric_circle_points
from maassforge.quadfield import BudgetError, QuadField
from maassforge.special import bessel_k0_array
from oracles import ReferenceCountTable, cancelling_rows, dense_coefficients


@pytest.fixture(scope="module")
def theta229():
    cg = ClassGroup(QuadField(229))
    return ThetaForm(make_class_character(cg, 1))


def test_build_refuses_norm_induced():
    cg = ClassGroup(QuadField(40))
    with pytest.raises(NormInducedError, match="norm-induced"):
        ThetaForm(make_class_character(cg, 1))


def test_eval_takes_any_positive_y(theta229):
    # no height floor: Theta(0.01i) sums its 716 rows directly
    v = theta229.eval(0.0, 0.01)
    assert abs(v) < 1.0
    with pytest.raises(ValueError, match="positive"):
        theta229.eval(0.0, 0.0)


def test_eval_periodicity(theta229):
    z = (0.23, 0.6)
    assert abs(theta229.eval(z[0], z[1]) - theta229.eval(z[0] + 1, z[1])) < 1e-14


def test_eval_evenness(theta229):
    # cosine expansion: Theta(-x + iy) = Theta(x + iy)
    assert abs(theta229.eval(0.3, 0.5) - theta229.eval(-0.3, 0.5)) < 1e-14


def test_tail_bound_dominates_truncation(theta229):
    y = 0.5
    n_cut = theta229.truncation_index(y)
    bound = theta229.tail_bound(y, n_cut)
    assert bound < 1e-12
    # halving the truncation must stay within the corresponding bound
    full = theta229.eval(0.1, y)
    loose_cut = n_cut // 2
    n = np.arange(1, loose_cut + 1)
    kv = bessel_k0_array(2 * math.pi * y * n)
    osc = np.cos(2 * math.pi * 0.1 * n)
    a = dense_coefficients(ReferenceCountTable(theta229.character.classgroup, loose_cut), 1, loose_cut)[1:]
    partial = complex(math.sqrt(y) * np.sum(a * kv * osc))
    assert abs(full - partial) <= theta229.tail_bound(y, loose_cut) + 1e-15


def test_automorphy_small(theta229):
    rep = theta229.check_automorphy([((1, 0, 229, 1), [(-1 / 229, 0.3), (0.05 - 1 / 229, 0.45)])])
    assert rep.residual < 1e-10
    # c = 0: the translations z + 1 and z - 3 of Gamma_0(D), d = +-1
    rep = theta229.check_automorphy([((1, 1, 0, 1), [(0.1, 0.3)]), ((-1, 3, 0, -1), [(0.2, 0.45)])])
    assert rep.residual < 1e-12 and rep.details["count"] == 2


def test_theta_form_builds_no_table_and_eval_grows_it_to_its_truncation():
    cg = ClassGroup(QuadField(229))
    th = ThetaForm(make_class_character(cg, 1))
    assert cg.count_table is None
    y = 1e-3
    th.eval(0.1, y)
    assert cg.count_table.n_max == th.truncation_index(y) == 7162


def test_functional_equation_pair_shares_one_table(monkeypatch):
    built = []
    init = ls.ClassCountTable.__init__

    def counting_init(self, classgroup, n_max):
        built.append(classgroup)
        init(self, classgroup, n_max)

    monkeypatch.setattr(ls.ClassCountTable, "__init__", counting_init)
    cg = ClassGroup(QuadField(229))
    psi = make_class_character(cg, 1)
    th = ThetaForm(psi)
    y0 = 1 / math.sqrt(229)
    rep = th.check_functional_equation([(0.1 * y0, 0.9 * y0), (-0.2 * y0, 1.1 * y0)])
    assert rep.residual < 1e-10
    # z and -1/(Dz) are evaluated together, the lowest height, 0.88 y0 for
    # -1/(Dz) of the second point, first: one table serves both sides
    assert built == [cg]


def test_automorphy_rejects_non_gamma0(theta229):
    with pytest.raises(ValueError) as exc:
        theta229.check_automorphy([((1, 0, 1, 1), [(0.0, 0.5)])])
    assert not isinstance(exc.value, BudgetError)


def test_automorphy_over_row_budget_raises_before_building(theta229, monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("allocated a table or classified its primes")

    monkeypatch.setattr(ls.np, "zeros", no_rows)
    monkeypatch.setattr(ls.np, "full", no_rows)
    monkeypatch.setattr(ClassGroup, "prime_classes", no_rows)
    # Im(gamma z) = 0.3 / (2290 * 0.3)^2 at z = -1/2290 + 0.3i needs 1.13e7 rows
    with pytest.raises(BudgetError):
        theta229.check_automorphy([((1, 0, 2290, 1), [(-1 / 2290, 0.3)])])


@pytest.mark.parametrize("D", [229, 401, 445, 505, 136, 3305])
def test_automorphy_fails_with_the_wrong_multiplier(D, monkeypatch):
    th = ThetaForm(make_class_character(ClassGroup(QuadField(D)), 1))
    checks = [(m, isometric_circle_points(m[2], m[3])) for m in gamma0_matrices(D, 3)]
    assert th.check_automorphy(checks).residual <= 1e-11
    # the clean check built the table, chi_D(p) of its primes included, and
    # it is not built again: -chi_D reaches the multiplier of Theta(z) alone
    def no_rows(*args, **kwargs):
        raise AssertionError("classified primes again")

    chi = QuadField.chi
    monkeypatch.setattr(ClassGroup, "prime_classes", no_rows)
    monkeypatch.setattr(QuadField, "chi", lambda self, n: -chi(self, n))
    assert th.check_automorphy(checks).residual > 0.1


def test_eigenvalue_richardson(theta229):
    rep = theta229.check_eigenvalue(0.3, 0.7)
    assert 3.5 < rep.details["richardson_ratio"] < 4.5
    assert abs(rep.details["fd_values"][2] - 0.25) < 0.05


def test_functional_equation(theta229):
    ys = [0.055, 0.06, 1 / math.sqrt(229), 0.07, 0.08]
    points = [(x, y) for x, y in zip((0.02, -0.01, 0.0, 0.015, -0.03), ys)]
    rep = theta229.check_functional_equation(points)
    assert rep.residual < 1e-10


@pytest.mark.parametrize("D", [229, 445])
def test_unit_of_norm_minus_one_gives_only_even_characters(D):
    # (sqrt D) is narrowly principal when N(unit) = -1, so every psi is even
    cg = ClassGroup(QuadField(D))
    assert cg.unit_norm == -1
    assert [make_class_character(cg, i).epsilon for i in range(cg.h_narrow)] == [0] * cg.h_narrow


def test_sign_exponent_of_odd_characters():
    # Q(sqrt 505): N(unit) = +1 and h+ = 8 = 2h; psi((sqrt D)) = (-1)^index
    cg = ClassGroup(QuadField(505))
    assert cg.unit_norm == 1 and cg.h_narrow == 8
    psis = [make_class_character(cg, i) for i in range(8)]
    assert [psi.epsilon for psi in psis] == [i % 2 for i in range(8)]
    assert [psi.root_number() for psi in psis] == [(-1) ** i for i in range(8)]


@pytest.mark.parametrize("index,epsilon", [(1, 1), (2, 0)])
def test_functional_equation_off_axis_505(index, epsilon):
    # Theta_psi(z) = (-1)^epsilon Theta_psibar(-1/(Dz)) near the Fricke circle;
    # the odd form is a sine series, so the points lie off the imaginary axis
    psi = make_class_character(ClassGroup(QuadField(505)), index)
    th = ThetaForm(psi)
    y0 = 1 / math.sqrt(505)
    points = [(0.3 * y0, 0.9 * y0), (-0.2 * y0, y0), (0.5 * y0, 1.1 * y0)]
    assert th.character.epsilon == epsilon
    assert min(abs(th.eval(x, y)) for x, y in points) > 1e-2
    rep = th.check_functional_equation(points)
    assert rep.details["root_number"] == (-1) ** epsilon
    assert rep.residual < 1e-10


def test_cuspidal_decay(theta229):
    rep = theta229.check_cuspidal_decay([1.0, 1.5, 2.0, 3.0])
    assert rep.residual < 1.0  # |Theta(iy)| below 2 sqrt(y) e^(-2 pi y)


def test_gamma0_matrices_valid():
    mats = gamma0_matrices(229, count=10)
    assert len(mats) == 10
    for a, b, c, d in mats:
        assert a * d - b * c == 1
        assert c % 229 == 0 and abs(c) <= 3 * 229


def dense_theta_terms(th: ThetaForm, x: float, y: float) -> np.ndarray:
    """The terms a'(n) sqrt(y) K_0(2 pi n y) cos(2 pi n x), sin for odd psi,
    of Theta(x + iy) for every n up to the truncation, zeros included: a'(n)
    from the reference counts, K_0 from scipy and the phase from x n mod 1,
    taken exactly in integers and rounded once.  The angle 2 pi x n in
    float64 is off by up to 2 pi x n u: at x + iy = 0.29 + 3e-5 i the sum
    with the phase taken directly was off by 1.9e-14 to 1.2e-13 of itself,
    this one by 1.9e-16 to 7.9e-16 from eval."""
    x -= round(x)  # Theta has period 1
    n_cut = th.truncation_index(y)
    n = np.arange(1, n_cut + 1)
    psi = th.character
    a = dense_coefficients(ReferenceCountTable(psi.classgroup, n_cut), psi.index, n_cut)[1:]
    trig = np.cos if th.character.epsilon == 0 else np.sin
    p, q = x.as_integer_ratio()
    turns = np.array([p * k % q / q for k in n.tolist()])
    return math.sqrt(y) * a * k0(2 * math.pi * y * n) * trig(2 * math.pi * turns)


def dense_theta(th: ThetaForm, x: float, y: float) -> complex:
    """Theta(x + iy) summed over every n up to the truncation, zeros included."""
    return complex(np.sum(dense_theta_terms(th, x, y)))


def assert_near_dense_theta(th: ThetaForm, x: float, y: float, v: float) -> None:
    """v is Theta(x + iy) to within 1e-14 of the sum of the sizes of its
    terms; at the points of these tests they agree to 1.1e-15 of it."""
    terms = dense_theta_terms(th, x, y)
    assert abs(v - np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms)), (x, y)


@pytest.mark.parametrize("D", [229, 136, 505])  # 136 and 505: sine series
def test_eval_on_the_support_equals_the_dense_sum(D):
    th = ThetaForm(make_class_character(ClassGroup(QuadField(D)), 1))
    # y = 3e-5 sums 42,768, 17,801 and 46,274 terms, in two or three
    # SIEVE_CHUNK blocks
    for x, y in [(0.13, 0.02), (0.37, 0.06), (-0.21, 0.3), (0.44, 1.0), (0.29, 3e-5)]:
        ref = dense_theta(th, x, y)
        assert abs(th.eval(x, y) - ref) <= 1e-14 * abs(ref), (x, y)
    # the support drops exactly the rows whose classes cancel, which the
    # dense product realises as rounding noise, and keeps the others real
    n_cut = th.truncation_index(0.02)
    n, a = ls.support(th.character, n_cut)
    ref = ReferenceCountTable(th.character.classgroup, n_cut)
    full = dense_coefficients(ref, 1, n_cut)
    dropped = np.setdiff1d(np.arange(1, n_cut + 1), n)
    assert np.array_equal(dropped, cancelling_rows(ref, 1, n_cut))
    assert a.dtype == np.float64 and np.all(a != 0) and len(dropped) > 0
    assert np.max(np.abs(a - full[n])) < 1e-12
    assert np.all(np.abs(full[dropped]) < 1e-12)


@pytest.mark.parametrize("odd", [False, True])
def test_phase_tables_against_mpmath(odd):
    # _phase's docstring bounds its error by 162u, u = 2^-53; cos(2 pi x n)
    # taken directly is off here by up to 1.5e7 u
    rng = np.random.default_rng(16)
    trig = mp.sin if odd else mp.cos
    for x in [-0.5, 0.5, 0.0, 2.0**-30, 0.49999999999999994, -1 / 3, *rng.uniform(-0.5, 0.5, 4)]:
        n = np.unique(np.concatenate([rng.integers(1, ls.ROW_BUDGET, 200), [1, 1023, 1024, 1025, ls.ROW_BUDGET]]))
        with mp.workprec(120):
            ref = [float(trig(2 * mp.pi * mp.mpf(float(x)) * k)) for k in n.tolist()]
        assert np.max(np.abs(_phase(_phase_tables(float(x), int(n[-1])), n, odd) - ref)) < 162 * 2.0**-53, x


def test_truncation_report_takes_the_worst_height(theta229):
    ys = [0.5, 0.05, 0.3]
    rep = theta229.truncation_report(ys)
    assert rep["truncation"] == theta229.truncation_index(0.05) == 144
    assert rep["terms"] == len(ls.support(theta229.character, 144)[0]) == 41
    assert rep["tail_bound"] == max(theta229.tail_bound(y, theta229.truncation_index(y)) for y in ys)


@pytest.mark.parametrize("D", [229, 136])  # 229: cosine series, 136: sine series
def test_support_is_kept_and_realised_once(D, monkeypatch):
    filled = []
    fill = ls.ClassCountTable._row

    def recording_row(self, character):
        n, b = fill(self, character)
        filled.append((self, character.index, n))
        return n, b

    monkeypatch.setattr(ls.ClassCountTable, "_row", recording_row)
    cg = ClassGroup(QuadField(D))
    th = ThetaForm(make_class_character(cg, 1))
    other = make_class_character(cg, 2)

    def live_rows(n_cut):
        ref = ReferenceCountTable(cg, n_cut)
        return ref, np.setdiff1d(np.arange(1, n_cut + 1), cancelling_rows(ref, 1, n_cut))

    def check(n_cut):
        n, a = ls.support(th.character, n_cut)
        ref, live = live_rows(n_cut)
        full = dense_coefficients(ref, 1, n_cut)
        assert np.array_equal(n, live) and np.max(np.abs(a - full[n])) < 1e-12, n_cut

    def filled_once_over(table):
        # one fill over all of the table, by this table alone: it kept every
        # live row up to the table's n_max
        ((by, _, n),) = [f for f in filled if f[1] == 1]
        assert by is table and np.array_equal(n, live_rows(table.n_max)[1])
        filled.clear()

    # another character's caller builds the table; the first call fills the
    # whole row, and calls below or at it fill nothing
    ls.support(other, 13001)
    table = cg.count_table
    for n_cut in (5000, 1200, 5000, 13001):
        check(n_cut)
    filled_once_over(table)
    # the other character's larger request replaces the table, and the row
    # is filled again, once, on the new one
    ls.support(other, 40000)
    assert cg.count_table is not table and cg.count_table.n_max == 40000
    for n_cut in (13001, 20000, 40000):
        check(n_cut)
    filled_once_over(cg.count_table)


def record_evals(monkeypatch) -> list:
    """Record the points and values of every ThetaForm.eval call."""
    calls, real = [], ThetaForm.eval

    def recording_eval(self, x, y):
        v = real(self, x, y)
        calls.append((self, *np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float), v)))
        return v

    monkeypatch.setattr(ThetaForm, "eval", recording_eval)
    return calls


def recorded_points(calls) -> list:
    """(form, x, y, value) for every point of the recorded calls."""
    return [(th, *p) for th, x, y, v in calls for p in zip(x.ravel().tolist(), y.ravel().tolist(), v.ravel().tolist())]


def one_point_mismatches(points) -> list:
    """The points whose value is not bitwise that of eval at the point alone.
    A batch reads each height's support from the table its lowest height
    built, so it relies on a support not depending on its table's size."""
    return [(x, y) for th, x, y, v in points if v != th.eval(x, y)]


def test_eval_of_check_automorphy_bitwise_equal_to_one_point_evaluation(monkeypatch):
    calls = record_evals(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exc:
        main(["check-automorphy", "--disc", "229", "--samples", "3"])
    assert exc.value.code == 0
    # one call over gamma z and z of all three matrices together
    monkeypatch.undo()
    points = recorded_points(calls)
    assert len(calls) == 1 and len(points) == 30 and one_point_mismatches(points) == []


@pytest.mark.parametrize("D", [229, 136, 505])  # 136 and 505: sine series
def test_checks_bitwise_equal_to_one_point_evaluation(D, monkeypatch):
    psi = make_class_character(ClassGroup(QuadField(D)), 1)
    th, dual = ThetaForm(psi), ThetaForm(psi.power(-1))
    y0 = 1 / math.sqrt(D)
    points = [(0.3 * y0, 0.9 * y0), (-0.2 * y0, y0), (0.5 * y0, 1.1 * y0)]
    calls = record_evals(monkeypatch)
    eig = th.check_eigenvalue(0.3, 0.7)
    fe = th.check_functional_equation(points)
    decay = th.check_cuspidal_decay([1.0, 1.5, 2.0, 3.0])
    # one call per check, the functional equation's over z and -1/(Dz)
    # together, and each value the dense sum's, to rounding
    monkeypatch.undo()
    evaluated = recorded_points(calls)
    assert len(calls) == 3 and len(evaluated) == 13 + 6 + 4 and one_point_mismatches(evaluated) == []
    for _, x, y, v in evaluated:
        assert_near_dense_theta(th, x, y, v)
    # the reports are those of loops over one-point evaluations
    one = ThetaForm.eval

    def fd_eigen(x, y, hh):
        f0 = one(th, x, y)
        lap = (one(th, x + hh, y) + one(th, x - hh, y) + one(th, x, y + hh) + one(th, x, y - hh) - 4 * f0) / (hh * hh)
        return -y * y * lap / f0

    assert eig.details["fd_values"] == [fd_eigen(0.3, 0.7, 0.04 / 2**k) for k in range(3)]
    # the reference evaluates -1/(Dz) on Theta_psibar, a form of its own: the
    # check's use of Theta_psi there relies on Theta_psibar = Theta_psi bit
    # for bit
    T = psi.root_number()
    ws = [-1.0 / (D * complex(x, y)) for x, y in points]
    assert fe.residual == max(abs(one(th, x, y) - T * one(dual, w.real, w.imag)) for (x, y), w in zip(points, ws))
    assert decay.details["ratio_vs_bound"] == {
        y: (abs(one(th, 0.0, y)), 2.0 * math.sqrt(y) * math.exp(-2 * math.pi * y)) for y in (1.0, 1.5, 2.0, 3.0)
    }


def test_eval_shapes_and_heights(theta229):
    v = theta229.eval(0.2, 0.5)
    assert type(v) is float
    assert_near_dense_theta(theta229, 0.2, 0.5, v)
    # repeated heights, given high first, and x past the period
    x = [0.3, -0.1, 1e17, 12345.2, 0.0, -0.45]
    y = [0.5, 0.05, 0.3, 0.5, 0.05, 0.3]
    got = theta229.eval(x, y)
    ref = [theta229.eval(a, b) for a, b in zip(x, y)]
    assert isinstance(got, np.ndarray) and got.shape == (6,) and got.tolist() == ref
    for a, b, c in zip(x, y, ref):
        assert_near_dense_theta(theta229, a, b, c)
    grid = theta229.eval(np.reshape(x, (2, 3)), np.reshape(y, (2, 3)))
    assert grid.shape == (2, 3) and grid.ravel().tolist() == ref
    assert theta229.eval([], []).shape == (0,)
    with pytest.raises(ValueError, match="positive"):
        theta229.eval([0.1, 0.2], [0.5, 0.0])


def test_eval_builds_one_table_at_its_lowest_height(monkeypatch):
    builds = []
    init = ls.ClassCountTable.__init__

    def recording_init(self, classgroup, n_max):
        builds.append(n_max)
        init(self, classgroup, n_max)

    monkeypatch.setattr(ls.ClassCountTable, "__init__", recording_init)
    th = ThetaForm(make_class_character(ClassGroup(QuadField(229)), 1))
    th.eval([0.1, 0.2, 0.3, 0.4], [0.5, 0.1, 0.01, 0.1])
    assert builds == [th.truncation_index(0.01)]
