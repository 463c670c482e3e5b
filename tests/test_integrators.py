"""The fixed-step integrators give the tables of a plain sequential RK4.

``_rk4`` reads its abscissae from ``stage_grid`` and evaluates the frame's
and the neg2 family's coefficients once on that grid (its ``coeffs`` hook),
passing each rhs call its abscissa's entries; it integrates one trajectory
per call, so Riemann's two halves are two runs.  Each table here is compared
under ``np.array_equal`` with a reference that evaluates every coefficient at
every stage, one run at a time, as the classical loop does (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.1).

The accelerations of both families are closed forms: Riemann's equations
for circles in parallel planes, and eqs. 23 and 21 solved in turn for the
neg2 family.  The references write the same closed forms, so two more
tests hold them to the equations they come from: on random states they
must zero the n=0 and n=1 harmonics of the zero-exponent defect (Riemann)
and eqs. 21 and 23 (neg2), relative to the size of the terms.
"""

import math

import numpy as np
import pytest

from alphasurf import catalog
from alphasurf.catalog import riemann_minimal_spec
from alphasurf.cli import parse_scalar_expr
from alphasurf.cyclic import (
    PLANAR_INIT,
    _gram_schmidt,
    _neg2_accels,
    frame_from_curvature,
    integrate_neg2_family,
    neg2_eq21,
    neg2_eq23,
)
from alphasurf.errors import NumericalError, ValidationError
from alphasurf.interp import MAX_STEPS, QuinticHermite, ScalarFunc, _rk4, stage_grid
from alphasurf.stationary import _defect_from_jet
from alphasurf.surface_kernel import Jet2
from test_interp import _count_calls


def reference_rk4(rhs, u0, y0, length, max_step, project=None):
    n = max(1, int(math.ceil(abs(length) / max_step)))
    h = length / n
    y = np.asarray(y0, dtype=float)
    u = u0
    us, ys = [u], [y]
    for _ in range(n):
        k1 = rhs(u, y)
        k2 = rhs(u + h / 2, y + h / 2 * k1)
        k3 = rhs(u + h / 2, y + h / 2 * k2)
        k4 = rhs(u + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if project is not None:
            y = project(y)
        u += h
        us.append(u)
        ys.append(y)
    return us, np.array(ys)


def reference_frame(kappa, tau, u_range, max_step=1e-3):
    u0, u1 = u_range

    def rhs(u, y):
        k, tv = float(kappa(u)), float(tau(u))
        t, n, b = y[3:6], y[6:9], y[9:12]
        return np.concatenate([t, k * n, -k * t + tv * b, -tv * n])

    y0 = _gram_schmidt(np.concatenate(PLANAR_INIT))
    us, ys = reference_rk4(rhs, u0, y0, u1 - u0, max_step, _gram_schmidt)
    return np.array(us), ys


def reference_neg2(kappa, y0, u_range, max_step=1e-3):
    def accels(u, a, ap, r, rp):
        k, kp, _ = (float(x) for x in kappa.eval2(u))
        # eq. 23 holds a'' alone, with coefficient q; eq. 21 then gives r''
        q = k * r * (a * a + r * r)
        app = -neg2_eq23(a, ap, 0.0, r, rp, k, kp) / q
        rpp = -(neg2_eq21(a, ap, 0.0, r, rp, 0.0, k, kp) + a * q * app) / (r * q)
        return float(app), float(rpp)

    def rhs(u, y):
        a, ap, r, rp = y
        app, rpp = accels(u, a, ap, r, rp)
        return np.array([ap, app, rp, rpp])

    u0, u1 = u_range
    us, ys = reference_rk4(rhs, u0, y0, u1 - u0, max_step)
    acc = np.array([accels(u, *y) for u, y in zip(us, ys)])
    return np.array(us), ys, acc


def reference_riemann_accels(u, a, ap, r, rp):
    """Riemann's equations (a'/r^2)' = 0 and r r'' = 1 + a'^2 + r'^2."""
    return 2.0 * ap * rp / r, (1.0 + ap * ap + rp * rp) / r


def reference_riemann(c_drift, r0, span, max_step=2e-3):
    def rhs(u, y):
        app, rpp = reference_riemann_accels(u, *y)
        return np.array([y[1], app, y[3], rpp])

    y0 = np.array([0.0, c_drift, r0, 0.0])
    us_p, ys_p = reference_rk4(rhs, 0.0, y0, span, max_step)
    us_m, ys_m = reference_rk4(rhs, 0.0, y0, -span, max_step)
    us = np.array([round(u, 12) for u in us_m[::-1] + us_p[1:]])
    data = np.concatenate([ys_m[::-1], ys_p[1:]])
    acc = np.array([reference_riemann_accels(u, *row) for u, row in zip(us, data)])
    return us, data, acc


def assert_table(func, x, f, d1, d2):
    """``func`` is the quintic table of the samples (x, f, d1, d2)."""
    table, ref = func.jet.__self__, QuinticHermite(x, f, d1, d2)
    assert np.array_equal(table.x, ref.x)
    assert np.array_equal(table._coef, ref._coef)


def test_stage_grid_holds_every_rhs_abscissa():
    seen = []

    def rhs(u, y):
        seen.append(u)
        return -y

    us, _ = _rk4(rhs, 0.3, [1.0], -0.71, 0.1)
    h, grid = stage_grid(0.3, -0.71, 0.1)
    assert h == -0.71 / 8 and len(grid) == 17
    assert us == grid[::2]
    assert seen == [w for i in range(0, 16, 2)
                    for w in (grid[i], grid[i + 1], grid[i + 1], grid[i + 2])]


@pytest.mark.filterwarnings("error")
def test_stage_grid_refuses_a_step_count_past_the_bound():
    # 0.5 is exact, so the count at the bound is exactly MAX_STEPS; 1e308/0.5
    # overflows to inf, which is refused without an overflow warning
    h, grid = stage_grid(0.0, MAX_STEPS * 0.5, 0.5)
    assert h == 0.5 and len(grid) == 2 * MAX_STEPS + 1
    for length in ((MAX_STEPS + 1) * 0.5, 1e308, math.inf, -math.inf, math.nan,
                   np.float64(1e308)):
        with pytest.raises(ValidationError, match="steps, more than"):
            stage_grid(0.0, length, 0.5)


@pytest.mark.parametrize("length", [0.53, -0.53])
def test_rk4_passes_each_abscissa_its_coefficients(length):
    seen, calls = [], []

    def coeffs(grid):
        calls.append(grid)
        return np.asarray(grid), 2 * np.asarray(grid)

    def rhs(u, y, c, c2):
        assert type(c) is float and type(c2) is float
        seen.append((u, c, c2))
        return -y

    slopes = []
    us, ys = _rk4(rhs, 0.2, [1.0], length, 0.1, slopes=slopes, coeffs=coeffs)
    _, grid = stage_grid(0.2, length, 0.1)
    assert len(calls) == 1 and calls[0] == grid and len(slopes) == 7
    # four stages per step, then the last node's slope
    assert [u for u, _, _ in seen] == [
        w for i in range(0, 12, 2)
        for w in (grid[i], grid[i + 1], grid[i + 1], grid[i + 2])] + grid[-1:]
    for u, c, c2 in seen:
        assert c == u and c2 == 2 * u
    # without coeffs the rhs takes (u, y) alone, at the same abscissae
    ref = _rk4(lambda u, y: -y, 0.2, [1.0], length, 0.1)
    assert us == ref[0] and np.array_equal(ys, ref[1])


@pytest.mark.parametrize("kappa, tau, u_range", [
    ("1/u", "0", (1.0, 1.6)),
    ("0.7*u^2 + 0.4", "0.3*u - 0.1", (0.5, 1.5)),
    ("2", "1", (0.0, 2.0)),
])
def test_frame_equals_reference(kappa, tau, u_range):
    kappa, tau = parse_scalar_expr(kappa), parse_scalar_expr(tau)
    frame = frame_from_curvature(kappa, tau, u_range, PLANAR_INIT)
    us, ys = reference_frame(kappa, tau, u_range)
    assert np.array_equal(frame.u_nodes, us)
    for got, lo in ((frame.gamma, 0), (frame.t, 3), (frame.n, 6), (frame.b, 9)):
        assert np.array_equal(got, ys[:, lo:lo + 3])


@pytest.mark.parametrize("kappa, y0, u_range", [
    ("1/u", (0.0, 0.0, 1.0, 1.0), (1.0, 1.6)),
    ("0.97/u + 0.05", (0.1, -0.2, 1.01, 0.93), (1.0, 1.6)),
    ("0.7*u^2 + 0.4", (0.0, 0.0, 1.1, 0.4), (1.0, 1.3)),
])
def test_neg2_table_equals_reference(kappa, y0, u_range):
    kappa = parse_scalar_expr(kappa)
    spec = integrate_neg2_family(kappa, *y0, u_range)
    us, ys, acc = reference_neg2(kappa, np.array(y0), u_range)
    assert_table(spec.a, us, ys[:, 0], ys[:, 1], acc[:, 0])
    assert_table(spec.r, us, ys[:, 2], ys[:, 3], acc[:, 1])
    fr_us, fr_ys = reference_frame(kappa, ScalarFunc.constant(0.0), u_range)
    assert np.array_equal(spec.frame.u_nodes, fr_us)
    assert np.array_equal(spec.frame.t, fr_ys[:, 3:6])


@pytest.mark.parametrize("c_drift, r0, span", [(0.3, 1.0, 0.3), (0.0, 0.8, 0.2)])
def test_riemann_table_equals_reference(c_drift, r0, span):
    spec = riemann_minimal_spec(c_drift, r0, span)
    us, data, acc = reference_riemann(c_drift, r0, span)
    assert_table(spec.a, us, data[:, 0], data[:, 1], acc[:, 0])
    assert_table(spec.r, us, data[:, 2], data[:, 3], acc[:, 1])


def test_table_kappa_evaluations_do_not_grow_with_steps(monkeypatch):
    calls = _count_calls(monkeypatch, QuinticHermite, "eval2")
    x = np.linspace(0.5, 2.5, 41)
    counts = []
    for max_step in (1e-2, 1e-3):
        kappa = ScalarFunc.from_table(x, 1 / x, -1 / x**2, 2 / x**3)
        before = len(calls)
        frame_from_curvature(kappa, 0.0, (1.0, 2.0), PLANAR_INIT,
                             max_step=max_step)
        middle = len(calls)
        integrate_neg2_family(kappa, 0.0, 0.0, 1.0, 1.0, (1.0, 2.0),
                              max_step=max_step)
        counts.append((middle - before, len(calls) - middle))
    assert counts[0] == counts[1]
    assert counts[0][0] <= 2 and counts[0][1] <= 3


def _overflow_where(monkeypatch, bad):
    """Make ``_riemann_accels`` give a non-finite r'' wherever ``bad(r')``
    holds.  Near the waist of the family of c 0.3 and r0 1, r' is odd and
    increasing in u, and r'(u) is about 1.093 u."""
    inner = catalog._riemann_accels

    def accels(ap, r, rp):
        app, rpp = inner(ap, r, rp)
        return app, math.inf if bad(rp) else rpp

    monkeypatch.setattr(catalog, "_riemann_accels", accels)


@pytest.mark.parametrize("bad, where", [
    # only the -span run fails, at the first stage past u = -0.1003: its
    # first failure is reported
    (lambda rp: rp < -0.1096, "u=-0.101"),
    # both fail, the -span run nearer the waist (past u = -0.0503): the
    # +span run (past u = 0.1003) still wins, as when the +span run was
    # integrated to the end first
    (lambda rp: rp < -0.0549 or rp > 0.1096, "u=0.101"),
])
def test_riemann_reports_the_plus_run_first(monkeypatch, bad, where):
    _overflow_where(monkeypatch, bad)
    with pytest.raises(NumericalError, match="profile overflows") as info:
        riemann_minimal_spec(0.3, 1.0, 0.5)
    assert str(info.value) == f"profile overflows at {where}"


def _jet_with_accels(u, a, ap, app, r, rp, rpp, cv, sv):
    """Jet of the circles of radius r about (a, 0, u) in the planes z = u,
    one row per circle and one column per angle, stacked here rather than
    by ``cyclic.build_cyclic``."""
    u, a, ap, app, r, rp, rpp = (x[:, None] for x in (u, a, ap, app, r, rp, rpp))
    zeros, ones = np.zeros_like(u * cv), np.ones_like(u * cv)
    return Jet2(P=np.stack([a + r * cv, r * sv, u + zeros], axis=-1),
                Pu=np.stack([ap + rp * cv, rp * sv, ones], axis=-1),
                Pv=np.stack([-r * sv, r * cv, zeros], axis=-1),
                Puu=np.stack([app + rpp * cv, rpp * sv, zeros], axis=-1),
                Puv=np.stack([-rp * sv, rp * cv, zeros], axis=-1),
                Pvv=np.stack([-r * cv, -r * sv, zeros], axis=-1))


def test_riemann_accels_zero_the_low_harmonics_of_the_defect():
    rng = np.random.default_rng(7)
    n = 1200
    u, a, ap, rp = rng.uniform(-2.0, 2.0, (4, n))
    r = rng.uniform(0.05, 3.0, n)
    app, rpp = catalog._riemann_accels(ap, r, rp)
    v = 2.0 * math.pi * (np.arange(16) + 0.5) / 16
    cv, sv = np.cos(v), np.sin(v)
    for i in range(n):
        jet = _jet_with_accels(*(x[i:i + 1] for x in (u, a, ap, app, r, rp, rpp)),
                               cv, sv)
        d, scale = _defect_from_jet(jet, 0.0, with_scale=True)
        harmonics = [np.mean(d), 2.0 * np.mean(d * cv), 2.0 * np.mean(d * sv)]
        assert np.max(np.abs(harmonics)) <= 1e-12 * scale, i


class _Bound:
    """A number carried with the sum of the magnitudes of its terms, through
    +, - and * with another bound or a float (a float on the left of + and
    * only), and ** by an integer."""

    def __init__(self, val, mag=None):
        self.val, self.mag = val, abs(val) if mag is None else mag

    def _op(self, other, fn):
        other = other if isinstance(other, _Bound) else _Bound(other)
        return _Bound(*fn(self, other))

    def __add__(self, o):
        return self._op(o, lambda x, y: (x.val + y.val, x.mag + y.mag))

    def __sub__(self, o):
        return self._op(o, lambda x, y: (x.val - y.val, x.mag + y.mag))

    def __mul__(self, o):
        return self._op(o, lambda x, y: (x.val * y.val, x.mag * y.mag))

    def __pow__(self, n):
        return _Bound(self.val ** n, self.mag ** n)

    __radd__, __rmul__ = __add__, __mul__


def test_neg2_accels_zero_eqs_21_and_23():
    rng = np.random.default_rng(8)
    for i in range(1200):
        a, ap, rp, kp = rng.uniform(-2.0, 2.0, 4).tolist()
        r, k = rng.uniform(0.05, 3.0, 2).tolist()
        app, rpp = _neg2_accels(0.0, a, ap, r, rp, k, kp)
        args = [_Bound(x) for x in (a, ap, app, r, rp, rpp, k, kp)]
        eq21 = neg2_eq21(*args)
        eq23 = neg2_eq23(*args[:5], *args[6:])
        for eq in (eq21, eq23):
            assert abs(eq.val) <= 1e-12 * eq.mag, i
