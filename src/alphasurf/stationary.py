"""Stationarity residual of the weighted-area Euler-Lagrange equation.

A surface is stationary for the energy integral of |p|^alpha exactly when
H(p) = alpha * <N(p), p> / |p|^2 at every point; ``residual`` evaluates the
difference between the two sides.  ``fourier_defect`` expands the
denominator-cleared defect in v-harmonics, which is how the cyclic-surface
coefficient formulas are cross-checked numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import output
from .errors import NumericalError, ValidationError
from .surface_kernel import (
    ParametricPatch,
    _axis_samples,
    _dot,
    _first_form,
    _tiles,
    eval_jet2,
    fundamental_data,
)

REPORT_CSV_HEADER = ["u", "v", "x", "y", "z", "H", "rhs", "residual"]

# Most Gauss-Legendre nodes on one axis: leggauss solves a dense n x n
# eigenproblem, 0.17 s at 1024 nodes and 0.96 s at 2048 on one BLAS thread.
MAX_GAUSS_NODES = 2048
# Most samples on the v-circle of fourier_defect: its dense harmonic products
# grow as nv^2, 0.73 s at nv 8192 and 3.1 s at 16384 on one BLAS thread.
MAX_FOURIER_NV = 16384


@dataclass(frozen=True)
class ResidualReport:
    """Grid evaluation of the stationarity residual."""

    alpha: float
    sample_count: int
    sup_abs: float
    rms: float
    rows: np.ndarray | None  # (n, 8) u, v, x, y, z, H, rhs, residual, or None
    label: str = ""

    def to_json_dict(self):
        if self.rows is None:
            raise ValueError("a report built with rows=False has no rows to write")
        return {
            "alpha": self.alpha,
            "label": self.label,
            "sample_count": self.sample_count,
            "sup_abs": self.sup_abs,
            "rms": self.rms,
            "rows": self.rows,
        }

    def write_json(self, path):
        output.write_json(path, self.to_json_dict())

    def write_csv(self, path):
        output.write_csv(path, REPORT_CSV_HEADER, self.to_json_dict()["rows"])


def _residual_fields(jet, alpha):
    fd = fundamental_data(jet)
    p2 = _dot(jet.P, jet.P)
    if np.any(p2 <= 0.0):
        raise NumericalError("surface touches the origin at a sampled point")
    rhs = alpha * _dot(fd.normal, jet.P) / p2
    return fd, rhs


def residual(patch: ParametricPatch, alpha: float, u, v):
    """H(p) - alpha * <N,p>/|p|^2 at (u, v); vectorized."""
    fd, rhs = _residual_fields(eval_jet2(patch, u, v), alpha)
    return fd.H - rhs


def residual_grid(patch: ParametricPatch, alpha: float, nu: int, nv: int, *,
                  rows=True) -> ResidualReport:
    """Residual on a uniform interior grid (u-major row order); with
    ``rows=False`` only the residual is kept, and the report's rows are None."""
    if nu < 2 or nv < 2:
        raise ValidationError("residual grid needs nu, nv >= 2")
    u, v = patch.domain_grid(nu, nv)
    table = np.empty((nu, nv, 8 if rows else 1))
    if rows:
        table[..., 0], table[..., 1] = u[:, None], v
    # pointwise work tile by tile; the reductions below see the whole grid
    for sl in _tiles(nu, nv):
        jet = eval_jet2(patch, u[sl, None], v)
        fd, rhs = _residual_fields(jet, alpha)
        if rows:
            table[sl, :, 2:5] = jet.P
            table[sl, :, 5], table[sl, :, 6] = fd.H, rhs
        table[sl, :, -1] = fd.H - rhs
    flat = table[..., -1].reshape(-1)
    return ResidualReport(
        alpha=float(alpha),
        sample_count=flat.size,
        sup_abs=float(np.max(np.abs(flat))),
        rms=float(np.sqrt(np.mean(flat * flat))),
        rows=table.reshape(nu * nv, 8) if rows else None,
        label=patch.label,
    )


def energy(patch: ParametricPatch, alpha: float, nu: int, nv: int) -> float:
    """Quadrature of the weighted area integral of |p|^alpha.

    Gauss-Legendre nodes in non-periodic directions (interior by
    construction, so chart-degenerate endpoints are never sampled), uniform
    midpoint rule in periodic ones.
    """
    if nu < 1 or nv < 1:
        raise ValidationError("energy quadrature needs nu, nv >= 1")
    un, uw = _axis_rule(patch.u_range, nu, patch.u_periodic)
    vn, vw = _axis_rule(patch.v_range, nv, patch.v_periodic)
    integrand = np.empty((nu, nv))
    for sl in _tiles(nu, nv):
        jet = eval_jet2(patch, un[sl, None], vn)
        W = fundamental_data(jet).W
        integrand[sl] = _dot(jet.P, jet.P) ** (alpha / 2.0) * np.sqrt(W)
    if not np.all(np.isfinite(integrand)):
        raise NumericalError("non-finite integrand sample in energy quadrature")
    return float(np.einsum("i,j,ij->", uw, vw, integrand))


def _axis_rule(rng, n, periodic):
    lo, hi = float(rng[0]), float(rng[1])
    if periodic:
        return _axis_samples(rng, n, True, 0.0), np.full(n, (hi - lo) / n)
    if n > MAX_GAUSS_NODES:
        raise ValidationError(f"energy quadrature needs {n} Gauss-Legendre nodes, "
                              f"more than {MAX_GAUSS_NODES}")
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _defect_from_jet(jet, alpha, with_scale=False):
    """Denominator-cleared residual residual * W^(3/2) * |p|^2 of a jet.

    Assembled polynomially from the raw jet (no normalization, no division),
    so it stays finite even where the chart degenerates.  With
    ``with_scale`` also returns the magnitude of the terms before
    cancellation, which bounds the roundoff floor of the defect (the
    curvature sum itself cancels to about zero on a minimal surface).
    """
    cross, E, F, G, W = _first_form(jet)
    huu = G * _dot(jet.Puu, cross)
    huv, hvv = 2.0 * F * _dot(jet.Puv, cross), E * _dot(jet.Pvv, cross)
    p2 = _dot(jet.P, jet.P)
    nw = alpha * _dot(cross, jet.P) * W
    d = (huu - huv + hvv) * p2 - nw
    if not with_scale:
        return d
    return d, float(np.max((np.abs(huu) + np.abs(huv) + np.abs(hvv)) * p2 + np.abs(nw)))


def weighted_defect(patch: ParametricPatch, alpha: float, u, v,
                    with_scale=False):
    """Denominator-cleared residual at (u, v); see ``_defect_from_jet``."""
    return _defect_from_jet(eval_jet2(patch, u, v), alpha, with_scale)


@dataclass(frozen=True)
class FourierCoeffs:
    """Cosine/sine coefficients of the weighted defect along one v-circle."""

    u: float
    A: np.ndarray  # indices 0..n_max
    B: np.ndarray  # indices 1..n_max (B[0] stored as 0 for alignment)

    def to_json_dict(self):
        return {"u": self.u, "A": self.A, "B": self.B}


def fourier_defect(patch: ParametricPatch, alpha: float, u: float,
                   n_max: int, nv: int,
                   guard: float = 1e-8) -> FourierCoeffs:
    """Fourier expansion of the weighted defect in the periodic direction.

    The defect of the cyclic parametrizations is a trigonometric polynomial
    in v; coefficients above ``n_max`` beyond ``guard`` times the defect
    magnitude raise ``NumericalError`` (aliasing guard).
    """
    if not patch.v_periodic:
        raise ValidationError("fourier_defect requires a v-periodic patch")
    if n_max < 0 or nv < max(1, 4 * n_max) or nv & (nv - 1):
        raise ValidationError("need n_max >= 0 and nv >= 4*n_max with nv a power of two")
    if nv > MAX_FOURIER_NV:   # before anything nv-sized is allocated
        raise ValidationError(f"fourier needs {nv} samples on the v-circle, "
                              f"more than {MAX_FOURIER_NV}")
    v0, v1 = patch.v_range
    period = v1 - v0
    v = v0 + period * np.arange(nv) / nv
    d, mag = weighted_defect(patch, alpha, np.full(nv, float(u)), v,
                             with_scale=True)
    scale = float(np.max(np.abs(d)))
    # the defect is a difference of terms of size ``mag``; coefficients at
    # roundoff level relative to that cannot be distinguished from zero
    floor = 1e4 * np.finfo(float).eps * max(mag, 1e-300)
    # harmonics are measured in cycles per period
    ang = 2.0 * math.pi * np.arange(nv) / nv
    n_half = nv // 2
    ns = np.arange(n_half + 1)
    # 256 harmonic rows of the cosine, then the sine matrix, at a time in one
    # buffer: edges at multiples of 4 rows keep BLAS's gemv row groups, so the
    # returned harmonics have the whole single-thread product's bits at any thread count
    A_all, B_all = np.empty(n_half + 1), np.empty(n_half + 1)
    x = np.empty((min(n_half + 1, 256), nv))
    for block in np.split(ns, range(256, n_half + 1, 256)):
        m = x[:block.size]
        for trig, coeffs in ((np.cos, A_all), (np.sin, B_all)):
            np.outer(block, ang, out=m)
            coeffs[block] = np.multiply(trig(m, out=m), 2.0 / nv, out=m) @ d
    A_all[0] *= 0.5
    if n_half * 2 == nv:
        A_all[n_half] *= 0.5
    hi = np.concatenate([A_all[n_max + 1:], B_all[n_max + 1:]])
    if hi.size and np.max(np.abs(hi)) > max(guard * scale, floor):
        raise NumericalError(
            f"defect has harmonics above n={n_max}: "
            f"max |coeff| = {np.max(np.abs(hi)):.3e} vs defect scale {scale:.3e}")
    B = B_all[:n_max + 1].copy()
    B[0] = 0.0
    return FourierCoeffs(u=float(u), A=A_all[:n_max + 1].copy(), B=B)
