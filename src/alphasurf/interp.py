"""Smooth function tables: quintic Hermite interpolation and curve utilities.

ODE-generated families only carry samples, but the surface jets need two
continuous derivatives.  A quintic Hermite segment matches value, first and
second derivative at both endpoints, so interpolated data stays C^2 and the
interpolation error is O(h^6).

A function with two derivatives is one callable, its ``jet``, returning
(value, first, second) from one evaluation, so a table lookup or an inner
parameter map is done once for all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError

# Most RK4 steps in one integration: far above the 6.3k of a 2*pi range at
# max_step 1e-3; a neg2 family at the limit takes 25 s and 250 MB on 2 vCPUs.
MAX_STEPS = 100_000


def _rk4(rhs, u0, y0, length, max_step, project=None, slopes=None,
         coeffs=None):
    """Classical RK4 for y' = rhs(u, y): n = max(1, ceil(|length|/max_step))
    equal steps from u0 (backwards for negative length), ``rhs`` called at
    the abscissae of ``stage_grid``, ``project`` applied to the state after
    each step, and ``rhs(u_i, y_i)`` at every node, the last one included,
    appended to the list ``slopes`` if one is given.  ``coeffs(grid)``, if
    given, is evaluated once on the whole grid (a run may stop before a bad
    point, so without warnings) and returns columns; each rhs call then gets
    its abscissa's entries as Python floats, ``rhs(u, y, *c)``.  Arrays
    ``u0`` and ``length`` run a batch with one step count: each u is then an
    array, and y0 and every state carry a leading batch axis.  Returns (node
    list, (n+1, ...) states)."""
    h, grid = stage_grid(u0, length, max_step)
    cs = [()] * len(grid)
    if coeffs is not None:
        with np.errstate(all="ignore"):
            cs = list(zip(*(np.asarray(c, dtype=float).tolist()
                            for c in coeffs(grid))))
    y = np.asarray(y0, dtype=float)
    if np.ndim(h):
        h = np.reshape(h, np.shape(h) + (1,) * (y.ndim - 1))
    ys = [y]
    for i in range(0, len(grid) - 1, 2):
        (u, um, u1), (c, cm, c1) = grid[i:i + 3], cs[i:i + 3]
        k1 = rhs(u, y, *c)
        k2 = rhs(um, y + h / 2 * k1, *cm)
        k3 = rhs(um, y + h / 2 * k2, *cm)
        k4 = rhs(u1, y + h * k3, *c1)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if project is not None:
            y = project(y)
        if slopes is not None:
            slopes.append(k1)
        ys.append(y)
    if slopes is not None:
        slopes.append(rhs(grid[-1], y, *cs[-1]))
    return grid[::2], np.array(ys)


def stage_grid(u0, length, max_step):
    """Step and abscissae of an ``_rk4`` run: [u_0, u_0 + h/2, u_1, ...,
    u_n], with u_(i+1) = u_i + h accumulated step by step.  More than
    ``MAX_STEPS`` steps is bad input."""
    steps = float(np.max(np.abs(length))) / max_step   # inf, not a warning
    if not steps <= MAX_STEPS:
        raise ValidationError(f"integration needs {steps:.3g} steps, "
                              f"more than {MAX_STEPS}")
    n = max(1, int(math.ceil(steps)))
    h = length / n
    u, grid = u0, [u0]
    for _ in range(n):
        grid.append(u + h / 2)
        u = u + h
        grid.append(u)
    return h, grid


class QuinticHermite:
    """Piecewise-quintic interpolant from (f, f', f'') samples.

    ``f`` may have shape (n,) or (n, m); evaluation preserves the trailing
    axis.  Evaluation slightly outside the node range extrapolates with the
    boundary segment; a spec file's range is checked to lie within its
    tables' nodes by ``_increasing`` when the file is read.
    """

    def __init__(self, x, f, d1, d2):
        x, f, d1, d2 = (np.asarray(a, dtype=float) for a in (x, f, d1, d2))
        if x.ndim != 1 or len(x) < 2:
            raise ValidationError("need at least two interpolation nodes")
        if np.any(np.diff(x) <= 0):
            raise ValidationError("interpolation nodes must be increasing")
        if f.shape != d1.shape or f.shape != d2.shape or f.shape[0] != len(x):
            raise ValidationError("sample arrays must share shape (n, ...)")
        self.x = x
        scalar = f.ndim == 1
        if scalar:
            f, d1, d2 = f[:, None], d1[:, None], d2[:, None]
        self._scalar = scalar
        h = np.diff(x)[:, None]
        f0, f1 = f[:-1], f[1:]
        g0, g1 = d1[:-1], d1[1:]
        s0, s1 = d2[:-1], d2[1:]
        # Monomial coefficients on each segment in (x - x_i).
        A = f1 - (f0 + g0 * h + 0.5 * s0 * h * h)
        B = g1 - (g0 + s0 * h)
        C = s1 - s0
        c0, c1, c2 = f0, g0, 0.5 * s0
        c3 = (10.0 * A - 4.0 * B * h + 0.5 * C * h * h) / h**3
        c4 = (-15.0 * A + 7.0 * B * h - C * h * h) / h**4
        c5 = (6.0 * A - 3.0 * B * h + 0.5 * C * h * h) / h**5
        self._coef = np.stack([c0, c1, c2, c3, c4, c5], axis=1)  # (n-1, 6, m)

    def _segments(self, u):
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(self.x, u, side="right") - 1, 0, len(self.x) - 2)
        return u, idx, u - self.x[idx]

    def eval2(self, u):
        """Return (value, first derivative, second derivative) at ``u``."""
        u, idx, t = self._segments(u)
        c = self._coef   # gathered one power at a time, (..., m) each
        t = t[..., None]
        v = c[idx, 5]
        d = np.zeros_like(v)
        s = np.zeros_like(v)
        for k in range(4, -1, -1):
            s = s * t + 2.0 * d
            d = d * t + v
            v = v * t + c[idx, k]
        if self._scalar:
            return v[..., 0], d[..., 0], s[..., 0]
        return v, d, s

    def __call__(self, u):
        return self.eval2(u)[0]


@dataclass(frozen=True)
class ScalarFunc:
    """Scalar function of one variable; ``jet(u)`` returns (f, f', f'')."""

    TABLE_KEYS = ("u", "f")   # abscissa and value keys of its spec table
    jet: Callable

    def eval2(self, u):
        """(f, f', f'') shaped like ``u``, as read-only arrays: a constant's
        are broadcast views of one number."""
        u = np.asarray(u, dtype=float)
        return tuple(np.broadcast_to(np.asarray(x, dtype=float), u.shape)
                     for x in self.jet(u))

    def __call__(self, u):
        return self.eval2(u)[0]

    @staticmethod
    def constant(c):
        c = float(c)
        return ScalarFunc(lambda u: (c, 0.0, 0.0))

    @staticmethod
    def from_poly(coeffs):
        """Polynomial with coefficients in increasing degree order."""
        p = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
        p1, p2 = p.deriv(1), p.deriv(2)
        return ScalarFunc(lambda u: (p(u), p1(u), p2(u)))

    @staticmethod
    def from_table(x, f, d1, d2):
        return ScalarFunc(QuinticHermite(x, f, d1, d2).eval2)


@dataclass(frozen=True)
class Curve3:
    """Space curve; vectorized ``jet(s)`` returns (position, first, second)."""

    TABLE_KEYS = ("s", "p")
    jet: Callable

    def eval2(self, s):
        s = np.asarray(s, dtype=float)
        return tuple(np.asarray(x, dtype=float) for x in self.jet(s))

    def __call__(self, s):
        return self.eval2(s)[0]

    @staticmethod
    def from_table(x, p, d1, d2):
        return Curve3(QuinticHermite(x, p, d1, d2).eval2)


def write_table(func, x_range):
    """Spec-file table of a ScalarFunc or Curve3: abscissae, values and two
    derivatives at 801 uniform nodes of ``x_range``, as lists."""
    x = np.linspace(*x_range, 801)
    return dict(zip(func.TABLE_KEYS + ("d1", "d2"),
                    (a.tolist() for a in (x, *func.eval2(x)))))


def read_table(cls, d):
    """The ``cls`` (ScalarFunc or Curve3) interpolating a spec table."""
    return cls.from_table(*(d[k] for k in cls.TABLE_KEYS + ("d1", "d2")))


def _increasing(field, x_range, tables={}):
    """The floats (x0, x1) of the range ``field``, which must have x0 < x1
    and lie within the first and last abscissa of each of the ``tables``
    (name -> abscissae); checked before any frame is integrated on it."""
    x0, x1 = float(x_range[0]), float(x_range[1])
    if not (x0 < x1):
        raise ValidationError(f"{field} [{x0}, {x1}] is not increasing")
    for name, x in tables.items():
        if not (x[0] <= x0 and x1 <= x[-1]):
            raise ValidationError(f"{field} [{x0}, {x1}] is not within table "
                                  f"{name!r} on [{x[0]}, {x[-1]}]")
    return x0, x1


def compose_reparam(curve: Curve3, smap: ScalarFunc) -> Curve3:
    """Curve composed with a parameter change s = smap(t), chain rule jets."""

    def jet(t):
        s, sp, spp = smap.eval2(t)
        p, d1, d2 = curve.eval2(s)
        return (p, d1 * sp[..., None],
                d2 * (sp * sp)[..., None] + d1 * spp[..., None])

    return Curve3(jet)

