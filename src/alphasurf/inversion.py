"""Inversion about the unit sphere and the exponent-shift theorem.

Phi(p) = p/|p|^2 carries a surface that is stationary for the exponent
alpha to one stationary for the reflected exponent -alpha - 4.  (The
reflection fixes -2: the unit sphere about 0 is Phi-invariant and is
stationary exactly for exponent -2, which pins the sign of the shift.)
Patches are transported with exact chain-rule jets so the residual checks
keep their full accuracy.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .stationary import residual_grid
from .surface_kernel import Jet2, ParametricPatch, _dot, _mapped

#: minimum distance from the origin for points being inverted
DELTA_INV = 1e-6


def shifted_alpha(alpha: float) -> float:
    """Exponent of the inverted surface: reflection of alpha about -2."""
    return -float(alpha) - 4.0


def _norm2(p):
    """|p|^2, refused within DELTA_INV of the origin."""
    q = _dot(p, p)
    if np.any(np.sqrt(q) < DELTA_INV):
        raise NumericalError(
            f"surface point within {DELTA_INV} of the origin during inversion")
    return q


def invert_point(p):
    """Phi(p) = p / |p|^2; involutive, defined away from the origin."""
    p = np.asarray(p, dtype=float)
    return p / _norm2(p)[..., None]


def _dphi(p, q, h):
    """Differential of Phi at p applied to h (q = |p|^2)."""
    ph = _dot(p, h)
    return h / q[..., None] - (2.0 * ph / q**2)[..., None] * p


def _d2phi(p, q, h, k):
    """Second differential of Phi at p applied to (h, k)."""
    ph = _dot(p, h)
    pk = _dot(p, k)
    hk = _dot(h, k)
    q2 = q * q
    return (-(2.0 * pk / q2)[..., None] * h
            - (2.0 * ph / q2)[..., None] * k
            - (2.0 * hk / q2)[..., None] * p
            + (8.0 * ph * pk / (q2 * q))[..., None] * p)


def invert_jet(jet: Jet2) -> Jet2:
    p = jet.P
    q = _norm2(p)
    return Jet2(
        P=p / q[..., None],
        Pu=_dphi(p, q, jet.Pu),
        Pv=_dphi(p, q, jet.Pv),
        Puu=_d2phi(p, q, jet.Pu, jet.Pu) + _dphi(p, q, jet.Puu),
        Puv=_d2phi(p, q, jet.Pu, jet.Pv) + _dphi(p, q, jet.Puv),
        Pvv=_d2phi(p, q, jet.Pv, jet.Pv) + _dphi(p, q, jet.Pvv),
    )


def invert_patch(patch: ParametricPatch) -> ParametricPatch:
    """Transport a patch through Phi with exact chain-rule jets."""
    return _mapped(patch, invert_jet, f"inverted*{patch.label}")


def verify_shift(patch: ParametricPatch, alpha: float, nu: int, nv: int, *,
                 rows=True):
    """Residual reports for (patch, alpha) and (Phi(patch), shifted alpha).

    The shift theorem predicts the second sup-residual is small whenever the
    first one is.
    """
    before = residual_grid(patch, alpha, nu, nv, rows=rows)
    after = residual_grid(invert_patch(patch), shifted_alpha(alpha), nu, nv, rows=rows)
    return before, after


# ---------------------------------------------------------------------------
# circle / line transport


def fit_circle_or_line(points):
    """Classify a point cloud as (nearly) a line or a circle.

    Returns a dict with ``type`` ("line" or "circle"), ``deviation`` (max
    distance from the fitted object) and the fit parameters.  Inversion maps
    the union of circles and lines to itself, which this makes checkable.
    """
    pts = np.asarray(points, dtype=float)
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, sv, vt = np.linalg.svd(centered, full_matrices=False)

    # line fit: distance from the best-fit line through the centroid
    direction = vt[0]
    perp = centered - np.outer(centered @ direction, direction)
    line_dev = float(np.max(np.linalg.norm(perp, axis=-1)))

    # circle fit: project to the best plane, algebraic (Kasa) circle fit
    e1, e2, zhat = vt[0], vt[1], vt[2]
    x = centered @ e1
    y = centered @ e2
    plane_dev = float(np.max(np.abs(centered @ zhat)))
    A = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    b = x * x + y * y
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    cx, cy, c0 = sol
    radius = float(np.sqrt(max(c0 + cx * cx + cy * cy, 0.0)))
    in_plane_dev = float(np.max(np.abs(
        np.sqrt((x - cx) ** 2 + (y - cy) ** 2) - radius)))
    circle_dev = max(plane_dev, in_plane_dev)

    if line_dev <= circle_dev:
        return {"type": "line", "deviation": line_dev,
                "point": centroid, "direction": direction}
    center3 = centroid + cx * e1 + cy * e2
    return {"type": "circle", "deviation": circle_dev,
            "center": center3, "radius": radius, "normal": zhat}
