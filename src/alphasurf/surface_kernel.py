"""Second-order jets of parametric patches and derived curvature data.

Conventions used throughout the toolkit:

* the unit normal is N = (Psi_u x Psi_v) / |Psi_u x Psi_v|;
* the mean curvature is the trace of the shape operator (sum of the two
  principal curvatures), H = (G*L - 2*F*M + E*N2) / (E*G - F^2), so a
  cylinder over a planar curve of curvature kappa has H = kappa and a unit
  sphere has |H| = 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError

#: relative domain margin used to keep samples away from chart-degenerate
#: parameter lines (e.g. sphere poles)
DEFAULT_DOMAIN_MARGIN = 1e-3

_DOMAIN_SLACK = 1e-9

# Points per tile of grid evaluation and mesh sampling: a tile's jet and forms
# stay near cache size (16384 ran no faster, 4096 slower) and bound memory.
TILE_POINTS = 8192


@dataclass(frozen=True)
class Jet2:
    """Position and first/second partials of a patch at parameter points.

    All fields have shape (..., 3); ``Puv`` is the single mixed partial.
    """

    P: np.ndarray
    Pu: np.ndarray
    Pv: np.ndarray
    Puu: np.ndarray
    Puv: np.ndarray
    Pvv: np.ndarray

    def map_linear(self, A):
        """Apply a linear map to every jet field (linearity of derivatives)."""
        A = np.asarray(A, dtype=float)
        return Jet2(*(x @ A.T for x in
                      (self.P, self.Pu, self.Pv, self.Puu, self.Puv, self.Pvv)))


@dataclass(frozen=True)
class ParametricPatch:
    """A map (u, v) -> R^3 with C^2 analytic jets on a rectangle.

    ``evaluator`` must accept broadcast arrays of parameters and return a
    ``Jet2`` of matching shape.  Patches are immutable and safe to evaluate
    concurrently.
    """

    evaluator: Callable
    u_range: tuple
    v_range: tuple
    v_periodic: bool = False
    label: str = ""
    u_periodic: bool = False
    # u endpoints that collapse to a single point (sphere poles) -- used by
    # the meshing layer to close the surface.
    u_collapse: tuple = (False, False)

    def domain_grid(self, nu, nv, margin=DEFAULT_DOMAIN_MARGIN):
        """Interior sampling grid: shrunk in non-periodic directions,
        uniform midpoint samples in periodic ones."""
        u = _axis_samples(self.u_range, nu, self.u_periodic, margin)
        v = _axis_samples(self.v_range, nv, self.v_periodic, margin)
        return u, v


def _axis_samples(rng, n, periodic, margin):
    lo, hi = float(rng[0]), float(rng[1])
    if periodic:
        step = (hi - lo) / n
        return lo + (np.arange(n) + 0.5) * step
    m = margin * (hi - lo)
    return np.linspace(lo + m, hi - m, n)


def _check_axis(patch, name, x, rng, periodic):
    """``x`` wrapped onto a periodic axis; on any other, ``x`` checked to
    stay in ``rng``."""
    x = np.asarray(x, dtype=float)
    lo, hi = rng
    if periodic:
        return lo + np.mod(x - lo, hi - lo)
    out = (x < lo - _DOMAIN_SLACK) | (x > hi + _DOMAIN_SLACK)
    if np.any(out):
        raise ValidationError(f"{name}={float(x.ravel()[np.argmax(out)])!r} outside "
                              f"[{lo}, {hi}] for patch {patch.label!r}")
    return x


def _tiles(n, width=1):
    """Slices of range(n) of about TILE_POINTS points, ``width`` per index."""
    step = max(1, TILE_POINTS // width)
    return [slice(i, i + step) for i in range(0, n, step)]


def eval_jet2(patch: ParametricPatch, u, v) -> Jet2:
    """Analytic second-order jet of ``patch`` at (u, v) (broadcastable)."""
    u = _check_axis(patch, "u", u, patch.u_range, patch.u_periodic)
    v = _check_axis(patch, "v", v, patch.v_range, patch.v_periodic)
    # axes passed broadcastable are checked as such, then evaluated in full
    return patch.evaluator(*(np.asarray(x, order="C")
                             for x in np.broadcast_arrays(u, v)))


@dataclass(frozen=True)
class FundamentalData:
    """Unit normal, mean curvature and W = EG - F^2 of the first form."""

    normal: np.ndarray
    H: np.ndarray
    W: np.ndarray


def fundamental_data(jet: Jet2) -> FundamentalData:
    """Unit normal, trace mean curvature and W from a jet.

    Raises ``NumericalError`` where EG - F^2 <= 0.
    """
    cross, E, F, G, W = _first_form(jet)
    if np.any(W <= 0.0):
        raise NumericalError(f"EG - F^2 = {float(np.min(W)):.3e} <= 0 at a sampled point")
    normal = cross / np.sqrt(W)[..., None]
    L = _dot(jet.Puu, normal)
    M = _dot(jet.Puv, normal)
    Nff = _dot(jet.Pvv, normal)
    H = (G * L - 2.0 * F * M + E * Nff) / W
    return FundamentalData(normal=normal, H=H, W=W)


def _first_form(jet: Jet2):
    """Pu x Pv, the first fundamental form E, F, G and W = EG - F^2."""
    E, F, G = _dot(jet.Pu, jet.Pu), _dot(jet.Pu, jet.Pv), _dot(jet.Pv, jet.Pv)
    return _cross(jet.Pu, jet.Pv), E, F, G, E * G - F * F


def _dot(a, b):
    """Dot product of 3-vectors along the last axis of arrays that
    broadcast, added ((x + z) + y) + 0.0: the bits of einsum on a contiguous
    last axis (its + 0.0 turns a sum of three -0.0 into 0.0), in any memory
    layout; einsum adds a strided axis (x + y) + z."""
    d = a[..., 0] * b[..., 0]
    d += a[..., 2] * b[..., 2]
    d += a[..., 1] * b[..., 1]
    d += 0.0
    return d


def _cross(a, b, out=None):
    """Cross product of float 3-vectors along the last axis of arrays that
    broadcast, each term in the order numpy's ``cross`` uses: the same bits."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape)) if out is None else out
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out[..., i] = a[..., j] * b[..., k] - a[..., k] * b[..., j]
    return out


def fd_jet2(patch: ParametricPatch, u, v, h) -> Jet2:
    """Central-difference jet, an O(h^2) cross-check of the analytic path;
    ``eval_jet2`` checks every stencil point against the domain."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)

    def pos(uu, vv):
        return eval_jet2(patch, uu, vv).P

    P = pos(u, v)
    Pup, Pum = pos(u + h, v), pos(u - h, v)
    Pvp, Pvm = pos(u, v + h), pos(u, v - h)
    Ppp, Ppm = pos(u + h, v + h), pos(u + h, v - h)
    Pmp, Pmm = pos(u - h, v + h), pos(u - h, v - h)
    return Jet2(
        P=P,
        Pu=(Pup - Pum) / (2 * h),
        Pv=(Pvp - Pvm) / (2 * h),
        Puu=(Pup - 2 * P + Pum) / h**2,
        Puv=(Ppp - Ppm - Pmp + Pmm) / (4 * h**2),
        Pvv=(Pvp - 2 * P + Pvm) / h**2,
    )


# ---------------------------------------------------------------------------
# patch transforms (pure wrappers; used by invariance tests and inversion)

def _mapped(patch: ParametricPatch, jet_map, label) -> ParametricPatch:
    """``patch`` with ``jet_map`` applied to every jet it evaluates."""
    return replace(patch, evaluator=lambda u, v: jet_map(patch.evaluator(u, v)),
                   label=label)


def scaled(patch: ParametricPatch, lam: float) -> ParametricPatch:
    lam = float(lam)
    return _mapped(patch, lambda j: Jet2(*(lam * x for x in vars(j).values())),
                   f"scaled({lam})*{patch.label}")


def rotated(patch: ParametricPatch, R) -> ParametricPatch:
    R = np.asarray(R, dtype=float)
    return _mapped(patch, lambda j: j.map_linear(R), f"rotated*{patch.label}")


def translated(patch: ParametricPatch, vec) -> ParametricPatch:
    vec = np.asarray(vec, dtype=float)
    return _mapped(patch, lambda j: replace(j, P=j.P + vec),
                   f"translated*{patch.label}")


def swapped_uv(patch: ParametricPatch) -> ParametricPatch:
    """Exchange the roles of u and v (flips the normal orientation)."""

    def ev(u, v):
        j = patch.evaluator(v, u)
        return Jet2(P=j.P, Pu=j.Pv, Pv=j.Pu, Puu=j.Pvv, Puv=j.Puv, Pvv=j.Puu)

    return ParametricPatch(
        evaluator=ev,
        u_range=patch.v_range,
        v_range=patch.u_range,
        v_periodic=patch.u_periodic,
        u_periodic=patch.v_periodic,
        label=f"swapped*{patch.label}",
    )
