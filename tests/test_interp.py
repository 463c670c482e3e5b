import numpy as np
import pytest

from alphasurf.errors import ValidationError
from alphasurf.interp import (
    Curve3,
    QuinticHermite,
    ScalarFunc,
    _rk4,
    compose_reparam,
)


def _count_calls(monkeypatch, cls, name):
    calls = []
    inner = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_quintic_reproduces_quintic_exactly():
    # a degree-5 polynomial is in the interpolation space
    c = np.array([0.3, -1.2, 0.7, 2.0, -0.4, 0.11])
    p = np.polynomial.Polynomial(c)
    x = np.linspace(-1, 2, 7)
    h = QuinticHermite(x, p(x), p.deriv(1)(x), p.deriv(2)(x))
    xs = np.linspace(-1, 2, 113)
    v, d, s = h.eval2(xs)
    assert np.max(np.abs(v - p(xs))) < 1e-12
    assert np.max(np.abs(d - p.deriv(1)(xs))) < 1e-11
    assert np.max(np.abs(s - p.deriv(2)(xs))) < 1e-10


def test_quintic_order_of_accuracy():
    f = np.sin
    errs = []
    for n in (11, 21):
        x = np.linspace(0, np.pi, n)
        h = QuinticHermite(x, np.sin(x), np.cos(x), -np.sin(x))
        xs = np.linspace(0, np.pi, 1001)
        errs.append(np.max(np.abs(h(xs) - f(xs))))
    # halving the step should shrink the error by about 2^6
    assert errs[0] / errs[1] > 40


@pytest.mark.parametrize("columns", [None, 1, 9])
def test_quintic_value_is_the_value_of_eval2(columns):
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.uniform(0.1, 1.0, 12))
    shape = (12,) if columns is None else (12, columns)
    h = QuinticHermite(x, *(rng.normal(size=shape) for _ in range(3)))
    # nodes, points between them and past both ends
    for u in (x[0] - 0.3, float(x[5]), 0.5 * (x[6] + x[7]),
              rng.uniform(x[0] - 0.3, x[-1] + 0.3, 200),
              rng.uniform(x[0], x[-1], (7, 5))):
        value = h(u)
        assert value.shape == h.eval2(u)[0].shape
        assert np.array_equal(value, h.eval2(u)[0])


def test_quintic_rejects_bad_nodes():
    with pytest.raises(ValidationError):
        QuinticHermite([0.0, 0.0, 1.0], [0, 0, 0], [0, 0, 0], [0, 0, 0])
    with pytest.raises(ValidationError):
        QuinticHermite([0.0], [1.0], [0.0], [0.0])


def test_scalar_func_constant_and_poly():
    c = ScalarFunc.constant(2.5)
    u = np.linspace(0, 1, 5)
    assert np.all(c(u) == 2.5)
    assert np.all(c.eval2(u)[1] == 0.0)
    p = ScalarFunc.from_poly([1.0, 0.0, 3.0])  # 1 + 3u^2
    v, d1, d2 = p.eval2(u)
    assert np.allclose(v, 1 + 3 * u * u)
    assert np.allclose(d1, 6 * u)
    assert np.allclose(d2, 6.0)


def test_scalar_func_eval2_is_read_only_and_shaped_like_u():
    u = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    x = np.linspace(0.0, 1.0, 5)
    for f in (ScalarFunc.constant(-0.0), ScalarFunc.from_poly([1.0, 2.0]),
              ScalarFunc.from_table(x, x**2, 2 * x, np.full_like(x, 2.0))):
        for part in f.eval2(u):
            assert part.shape == u.shape and not part.flags.writeable
    # a constant's parts are views of one number, not arrays the size of u
    v, d1, d2 = ScalarFunc.constant(-0.0).eval2(u)
    assert v.strides == (0, 0) and np.signbit(v).all() and not d1.any()


def test_table_jet_evaluates_the_quintic_once(monkeypatch):
    calls = _count_calls(monkeypatch, QuinticHermite, "eval2")
    x = np.linspace(0.0, 1.0, 5)
    f = ScalarFunc.from_table(x, x**2, 2 * x, np.full_like(x, 2.0))
    v, d1, d2 = f.eval2(np.array([0.3, 0.7]))
    assert len(calls) == 1
    assert np.allclose(v, [0.09, 0.49]) and np.allclose(d1, [0.6, 1.4])
    assert np.allclose(d2, 2.0)


def test_compose_reparam_chain_rule():
    curve = Curve3(lambda s: (
        np.stack([np.cos(s), np.sin(s), s], -1),
        np.stack([-np.sin(s), np.cos(s), np.ones_like(s)], -1),
        np.stack([-np.cos(s), -np.sin(s), np.zeros_like(s)], -1),
    ))
    smap = ScalarFunc.from_poly([0.0, 0.0, 1.0])  # s = t^2
    comp = compose_reparam(curve, smap)
    t = np.linspace(0.2, 1.3, 9)
    # finite-difference check of the composed derivatives
    h = 1e-5
    fd1 = (comp(t + h) - comp(t - h)) / (2 * h)
    fd2 = (comp(t + h) - 2 * comp(t) + comp(t - h)) / h**2
    _, d1, d2 = comp.eval2(t)
    assert np.max(np.abs(d1 - fd1)) < 1e-8
    assert np.max(np.abs(d2 - fd2)) < 1e-5


def test_rk4_fourth_order_on_exponential():
    errs = []
    for max_step in (0.1, 0.05):
        us, ys = _rk4(lambda u, y: y, 0.0, [1.0], 1.0, max_step)
        assert len(us) == len(ys) == round(1.0 / max_step) + 1
        assert us[-1] == pytest.approx(1.0, abs=1e-12)
        errs.append(abs(ys[-1, 0] - np.e))
    # halving the step cuts the error by about 2^4
    assert 14.0 < errs[0] / errs[1] < 18.0


def test_rk4_backwards_and_projection_once_per_step():
    calls = []

    def project(y):
        calls.append(y.copy())
        return y / np.linalg.norm(y)

    # rotation on the unit circle, integrated backwards in four steps
    rot = lambda u, y: np.array([-y[1], y[0]])
    us, ys = _rk4(rot, 1.0, [1.0, 0.0], -0.4, 0.1, project=project)
    assert len(calls) == 4
    assert us[-1] == pytest.approx(0.6, abs=1e-12)
    assert np.allclose(np.linalg.norm(ys, axis=1), 1.0, atol=1e-15)
    assert np.allclose(ys[-1], [np.cos(0.4), -np.sin(0.4)], atol=1e-6)
