"""Ruled surfaces: cylinders, striction lines and the quartic coefficients.

For a ruled patch gamma(s) + t*beta(s) with unit-norm ruling direction and
striction condition <gamma', beta'> = 0, the denominator-cleared
stationarity defect is a degree-4 polynomial in t.  The five coefficients
are computed here in frame-free triple-product form in the spec's own
parameter s; the directrix need not have unit speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .interp import Curve3, ScalarFunc, compose_reparam
from .surface_kernel import Jet2, ParametricPatch, _cross, _dot


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class RuledSpec:
    """Directrix and ruling direction of a ruled surface."""

    gamma: Curve3
    beta: Curve3
    s_range: tuple
    cylindrical: bool = False

    def samples(self, n=64):
        return np.linspace(*self.s_range, n)


def _line(p0, d) -> Curve3:
    """The straight line p0 + s*d."""
    return Curve3(lambda s: (p0 + np.multiply.outer(s, d), d, 0.0))


def build_ruled_patch(spec: RuledSpec, t_range) -> ParametricPatch:
    """Patch Psi(s, t) = gamma(s) + t*beta(s) with analytic jets."""

    def ev(s, t):
        g, gp, gpp = spec.gamma.eval2(s)
        b, bp, bpp = spec.beta.eval2(s)
        t3 = t[..., None]
        J = np.zeros((6, *np.broadcast(s, t).shape, 3))
        J[0], J[1], J[2], J[3], J[4] = g + t3 * b, gp + t3 * bp, b, gpp + t3 * bpp, bp
        return Jet2(*J)

    return ParametricPatch(evaluator=ev, u_range=spec.s_range,
                           v_range=(float(t_range[0]), float(t_range[1])),
                           label="ruled")


# ---------------------------------------------------------------------------
# striction line


def _mu_funcs(spec: RuledSpec):
    """mu = <gamma', beta'>/<beta', beta'> with two derivatives.

    mu' is analytic in the available jets; mu'' falls back to a dense-grid
    central difference of mu' (the third curve derivatives are not stored).
    """
    s = np.linspace(*spec.s_range, 2001)

    def mu_and_d1(sv):
        _, gp, gpp = spec.gamma.eval2(sv)
        _, bp, bpp = spec.beta.eval2(sv)
        w = _dot(bp, bp)
        if np.any(w <= 0.0):
            raise ValidationError("ruling direction has a stationary point")
        g = _dot(gp, bp)
        gp1 = _dot(gpp, bp) + _dot(gp, bpp)
        w1 = 2.0 * _dot(bpp, bp)
        mu = g / w
        mu1 = (gp1 * w - g * w1) / w**2
        return mu, mu1

    mu, mu1 = mu_and_d1(s)
    # second-order differences of the analytic mu' with a step much finer
    # than the table spacing (one-sided second order at the endpoints)
    d = 1e-5 * (s[-1] - s[0])
    mu2 = (mu_and_d1(s[1:-1] + d)[1] - mu_and_d1(s[1:-1] - d)[1]) / (2.0 * d)
    lo = (-3.0 * mu1[0] + 4.0 * mu_and_d1(s[0] + d)[1]
          - mu_and_d1(s[0] + 2.0 * d)[1]) / (2.0 * d)
    hi = (3.0 * mu1[-1] - 4.0 * mu_and_d1(s[-1] - d)[1]
          + mu_and_d1(s[-1] - 2.0 * d)[1]) / (2.0 * d)
    mu2 = np.concatenate([[lo], mu2, [hi]])
    return ScalarFunc.from_table(s, mu, mu1, mu2)


def striction_line(spec: RuledSpec) -> RuledSpec:
    """Move the directrix onto the striction line gamma - mu*beta.

    Output satisfies <gamma', beta'> = 0 in the spec's own parameter; the
    ruling direction and ``s_range`` are the input's.
    """
    if spec.cylindrical:
        raise ValidationError("striction line undefined for cylindrical surfaces")
    mu = _mu_funcs(spec)

    def jet(s):
        m, m1, m2 = (x[..., None] for x in mu.eval2(s))
        g, gp, gpp = spec.gamma.eval2(s)
        b, bp, bpp = spec.beta.eval2(s)
        return (g - m * b, gp - m1 * b - m * bp,
                gpp - m2 * b - 2.0 * m1 * bp - m * bpp)

    return RuledSpec(gamma=Curve3(jet), beta=spec.beta, s_range=spec.s_range)


# ---------------------------------------------------------------------------
# planar curves and the cylindrical check


@dataclass(frozen=True)
class PlanarCurve:
    """Arc-length planar curve with signed curvature and in-plane normal.

    The normal is n = z_hat x t for a fixed plane normal z_hat, so
    gamma'' = kappa * n with kappa signed.
    """

    s: np.ndarray
    gamma: np.ndarray   # (n, 3)
    t: np.ndarray
    n: np.ndarray
    kappa: np.ndarray
    plane_normal: np.ndarray

    def curve3(self) -> Curve3:
        return Curve3.from_table(self.s, self.gamma, self.t,
                                 self.kappa[:, None] * self.n)

    @staticmethod
    def circle(center, radius):
        """CCW circle of given radius about (cx, cy) in the z = 0 plane."""
        cx, cy = float(center[0]), float(center[1])
        if not (radius > 0):
            raise ValidationError("circle radius must be positive")
        s = np.linspace(0.0, 2.0 * math.pi * radius, 257)
        ph = s / radius
        gamma = np.stack([cx + radius * np.cos(ph), cy + radius * np.sin(ph),
                          np.zeros_like(ph)], axis=-1)
        t = np.stack([-np.sin(ph), np.cos(ph), np.zeros_like(ph)], axis=-1)
        nrm = np.stack([-np.cos(ph), -np.sin(ph), np.zeros_like(ph)], axis=-1)
        return PlanarCurve(s=s, gamma=gamma, t=t, n=nrm,
                           kappa=np.full_like(s, 1.0 / radius),
                           plane_normal=np.array([0.0, 0.0, 1.0]))

    @staticmethod
    def line(point, direction, length=4.0):
        px, py = float(point[0]), float(point[1])
        d = np.array([float(direction[0]), float(direction[1]), 0.0])
        norm = np.linalg.norm(d)
        if not (norm > 0):
            raise ValidationError("line direction must be nonzero")
        d /= norm
        s = np.linspace(-length / 2, length / 2, 65)
        gamma = np.array([px, py, 0.0]) + s[:, None] * d
        t = np.broadcast_to(d, gamma.shape).copy()
        nrm = _cross([0.0, 0.0, 1.0], d)
        return PlanarCurve(s=s, gamma=gamma, t=t,
                           n=np.broadcast_to(nrm, gamma.shape).copy(),
                           kappa=np.zeros_like(s),
                           plane_normal=np.array([0.0, 0.0, 1.0]))

    @staticmethod
    def from_space_samples(s, gamma):
        """Build from 3D samples, verifying planarity and arc length."""
        s = np.asarray(s, dtype=float)
        gamma = np.asarray(gamma, dtype=float)
        centroid = gamma.mean(axis=0)
        _, sv, vt = np.linalg.svd(gamma - centroid)
        zhat = vt[2]
        dev = np.abs((gamma - centroid) @ zhat)
        if np.max(dev) > 1e-8 * max(1.0, np.max(sv)):
            raise ValidationError(f"curve deviates from a plane by {np.max(dev):.3e}")
        t = np.gradient(gamma, s, axis=0, edge_order=2)
        speed = np.linalg.norm(t, axis=-1)
        if np.max(np.abs(speed - 1.0)) > 1e-6:
            raise ValidationError("samples are not arc-length parametrized")
        t = t / speed[:, None]
        nrm = _cross(zhat, t)
        acc = np.gradient(t, s, axis=0, edge_order=2)
        kappa = _dot(acc, nrm)
        return PlanarCurve(s=s, gamma=gamma, t=t, n=nrm, kappa=kappa,
                           plane_normal=zhat)


def cylinder_check(curve: PlanarCurve, alpha: float):
    """Per-sample coefficients (C2, C0) of the cylindrical stationarity
    polynomial kappa*t^2 + (kappa*|gamma|^2 - alpha*<n, gamma>).

    The cylinder over the curve is stationary iff both vanish identically,
    which forces a straight directrix through the origin.
    """
    C2 = curve.kappa.copy()
    C0 = (curve.kappa * _dot(curve.gamma, curve.gamma)
          - alpha * _dot(curve.n, curve.gamma))
    return C2, C0


def build_cylinder_patch(curve: PlanarCurve, t_range) -> ParametricPatch:
    """Cylinder over a planar directrix, ruled by w = -(plane normal).

    The sign choice makes the patch normal equal the curve normal, so
    H = kappa pointwise.
    """
    spec = RuledSpec(gamma=curve.curve3(), beta=Curve3.constant(-curve.plane_normal),
                     s_range=(float(curve.s[0]), float(curve.s[-1])), cylindrical=True)
    return replace(build_ruled_patch(spec, t_range), label="cylinder")


# ---------------------------------------------------------------------------
# adapted coordinates (ruling direction normalized to the horizontal equator)


@dataclass(frozen=True)
class AdaptedCoords:
    """Coordinates of the directrix in the frame {beta, beta', e3}."""

    a: ScalarFunc
    b: ScalarFunc
    c: ScalarFunc


def adapted_coords(spec: RuledSpec) -> AdaptedCoords:
    """Express gamma in the frame of the horizontal-equator ruling.

    Requires beta(s) = (cos s, sin s, 0) within 1e-10; apply
    ``normalize_beta`` first if needed.
    """
    equator = equator_beta()
    s_check = spec.samples(64)
    if np.max(np.abs(spec.beta(s_check) - equator(s_check))) > 1e-10:
        raise ValidationError("ruling direction is not the horizontal equator")

    def make(coord):
        # coord: callable s -> basis vector (beta, beta' or e3) and its derivs
        def jet(s):
            g, gp, gpp = spec.gamma.eval2(s)
            w, wp, wpp = coord(s)
            return (_dot(g, w), _dot(gp, w) + _dot(g, wp),
                    _dot(gpp, w) + 2.0 * _dot(gp, wp) + _dot(g, wpp))

        return ScalarFunc(jet)

    def betap_basis(s):
        b, bp, _ = equator.eval2(s)
        return bp, -b, -bp

    e3_basis = Curve3.constant((0.0, 0.0, 1.0)).eval2
    return AdaptedCoords(a=make(equator.eval2), b=make(betap_basis), c=make(e3_basis))


def normalize_beta(spec: RuledSpec) -> RuledSpec:
    """Rotate a great-circle ruling direction onto the horizontal equator
    and re-parametrize so beta(s) = (cos s, sin s, 0).

    The rotation is a linear isometry (preserves stationarity); directrix
    and ruling share the parameter, so both are composed with the same
    parameter change.
    """
    s = spec.samples(129)
    bv, bp, bpp = spec.beta.eval2(s)
    if np.max(np.abs(_dot(_cross(bp, bv), bpp))) > 1e-8:
        raise ValidationError("ruling direction is not a great circle")
    axes = _cross(bv, bp)
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    axis = axes[0]
    if np.max(np.linalg.norm(axes - axis, axis=-1)) > 1e-8:
        raise ValidationError("ruling plane is not constant")
    R = _rotation_to_e3(axis)

    gam = _apply_linear(spec.gamma, R)
    bet = _apply_linear(spec.beta, R)

    # phase of the rotated ruling direction; strictly monotone since |b'|>0
    dense = np.linspace(*spec.s_range, 2001)
    bd, bdp, bdpp = bet.eval2(dense)
    x, y = bd[..., 0], bd[..., 1]
    xp, yp = bdp[..., 0], bdp[..., 1]
    xpp, ypp = bdpp[..., 0], bdpp[..., 1]
    r2 = x * x + y * y
    phi = np.unwrap(np.arctan2(y, x))
    phi1 = (x * yp - y * xp) / r2
    num = x * ypp - y * xpp
    phi2 = num / r2 - (x * yp - y * xp) * 2.0 * (x * xp + y * yp) / r2**2
    if np.min(phi1) <= 0.0 and np.max(phi1) >= 0.0:
        raise ValidationError("ruling phase is not monotone")
    if phi[-1] < phi[0]:
        phi, phi1, phi2 = phi[::-1], phi1[::-1], phi2[::-1]
        dense = dense[::-1]
    # s as a function of phi by the inverse function theorem
    smap = ScalarFunc.from_table(phi, dense, 1.0 / phi1, -phi2 / phi1**3)
    new_range = (float(phi[0]), float(phi[-1]))
    return RuledSpec(gamma=compose_reparam(gam, smap),
                     beta=compose_reparam(bet, smap),
                     s_range=new_range)


def _apply_linear(curve: Curve3, A) -> Curve3:
    A = np.asarray(A, dtype=float)
    return Curve3(lambda s: tuple(x @ A.T for x in curve.eval2(s)))


def _rotation_to_e3(axis):
    """Rotation in SO(3) carrying ``axis`` to e3 (Rodrigues)."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    e3 = np.array([0.0, 0.0, 1.0])
    v = _cross(axis, e3)
    c = float(np.dot(axis, e3))
    s = float(np.linalg.norm(v))
    if s < 1e-14:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx * ((1.0 - c) / (s * s))


# ---------------------------------------------------------------------------
# quartic coefficients


def ruled_coeffs(spec: RuledSpec, alpha: float, s, check=True):
    """Coefficients [A0..A4] of the degree-4 defect polynomial in t.

    Requires a unit-norm ruling direction and a striction directrix, in
    any parameter (both checked at the evaluation points unless ``check``
    is False; max|<gamma', beta'>| is measured against max|gamma'| *
    max|beta'| over those points, so the check holds under dilation).
    S0 = |gamma'|^2 - <gamma', beta>^2 = |gamma' x beta|^2 is the t^0 term
    of EG - F^2.  Vectorized: returns shape s.shape + (5,).
    """
    s = np.asarray(s, dtype=float)
    g, gp, gpp = spec.gamma.eval2(s)
    b, bp, bpp = spec.beta.eval2(s)
    gp2, S2 = _dot(gp, gp), _dot(bp, bp)
    if check and s.size:
        if np.max(np.abs(_dot(b, b) - 1.0)) > 1e-6:
            raise ValidationError("ruling direction is not unit-norm")
        scale = np.sqrt(np.max(gp2)) * np.sqrt(np.max(S2))
        if np.max(np.abs(_dot(gp, bp))) > 1e-6 * scale:
            raise ValidationError("directrix violates the striction condition")

    gb, bb, gpb = _cross(gp, b), _cross(bp, b), _dot(gp, b)
    R0 = _dot(gb, gpp) - 2.0 * gpb * _dot(gb, bp)
    R1 = _dot(gb, bpp) + _dot(bb, gpp)
    R2 = _dot(bb, bpp)
    q1 = 2.0 * _dot(g, b)
    q0 = _dot(g, g)
    T0 = _dot(gb, g)
    T1 = _dot(bb, g)
    S0 = gp2 - gpb ** 2
    A0 = q0 * R0 - alpha * T0 * S0
    A1 = q1 * R0 + q0 * R1 - alpha * T1 * S0
    A2 = R0 + q1 * R1 + q0 * R2 - alpha * T0 * S2
    A3 = R1 + q1 * R2 - alpha * T1 * S2
    return np.stack((A0, A1, A2, A3, R2), axis=-1)


# ---------------------------------------------------------------------------
# randomized specs for the nonexistence evidence


def equator_beta() -> Curve3:
    def jet(s):
        c, sn, z = np.cos(s), np.sin(s), np.zeros_like(s)
        pos = np.stack([c, sn, z], axis=-1)
        return pos, np.stack([-sn, c, z], axis=-1), -pos

    return Curve3(jet)


def latitude_beta(height) -> Curve3:
    """Latitude circle (rho cos s, rho sin s, h) with rho^2 + h^2 = 1."""
    h = float(height)
    if not -1.0 < h < 1.0:
        raise ValidationError("latitude height must be in (-1, 1)")
    rho = math.sqrt(1.0 - h * h)

    def jet(s):
        c, sn, z = rho * np.cos(s), rho * np.sin(s), np.zeros(np.shape(s))
        return (np.stack([c, sn, np.full(np.shape(s), h)], axis=-1),
                np.stack([-sn, c, z], axis=-1),
                np.stack([-c, -sn, z], axis=-1))

    return Curve3(jet)


def trig_poly_curve(const, cos_coeffs, sin_coeffs) -> Curve3:
    """gamma(s) = const + sum_k cos(k s) * c_k + sin(k s) * s_k."""
    const = np.asarray(const, dtype=float)
    cc = np.asarray(cos_coeffs, dtype=float).reshape(-1, 3)
    sc = np.asarray(sin_coeffs, dtype=float).reshape(-1, 3)

    def jet(s):
        out = [np.zeros(s.shape + (3,)) for _ in range(3)]
        out[0] += const
        for k in range(1, len(cc) + 1):
            cosk, sink = np.cos(k * s), np.sin(k * s)
            orders = ((cosk, sink), (-k * sink, k * cosk),
                      (-k * k * cosk, -k * k * sink))
            for o, (cosf, sinf) in zip(out, orders):
                o += cosf[..., None] * cc[k - 1] + sinf[..., None] * sc[k - 1]
        return tuple(out)

    return Curve3(jet)


def random_ruled_spec(rng) -> RuledSpec:
    """Random non-cylindrical spec: a directrix of two harmonics with
    coefficients uniform in [-2, 2] over the equator ruling on [0, 2 pi],
    moved onto its striction line in the same parameter."""
    const = rng.uniform(-2.0, 2.0, 3)
    cc = rng.uniform(-2.0, 2.0, (2, 3))
    sc = rng.uniform(-2.0, 2.0, (2, 3))
    raw = RuledSpec(gamma=trig_poly_curve(const, cc, sc),
                    beta=equator_beta(), s_range=(0.0, 2.0 * math.pi))
    return striction_line(raw)
