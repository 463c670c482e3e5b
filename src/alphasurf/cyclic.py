"""Surfaces foliated by circles.

Two foliation modes are supported: circles in parallel horizontal planes
(centre (a(u), b(u), u), radius r(u)) and circles in the normal planes of a
space curve's Frenet frame (centre a*t + b*n + c*bv, radius r(u)).  The
module also evaluates the closed-form harmonic coefficients of the weighted
defect for both modes and integrates the planar ODE family of non-spherical
surfaces stationary for the exponent -2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import output
from .errors import NumericalError, ValidationError
from .interp import (QuinticHermite, ScalarFunc, _increasing, _rk4, read_table,
                     write_table)
from .surface_kernel import Jet2, ParametricPatch


def as_scalar_func(x) -> ScalarFunc:
    """Coerce numbers / callables to a ScalarFunc (FD derivatives as fallback).

    A callable is evaluated on arrays of u, as the integrators evaluate their
    coefficients on the whole stage grid at once, so it must be vectorized
    (``np.sin``, not ``math.sin``); ``CurveFrame`` and ``build_cyclic``
    evaluate it on arrays as well.
    """
    if isinstance(x, ScalarFunc):
        return x
    if np.isscalar(x):
        return ScalarFunc.constant(float(x))
    if callable(x):
        h = 1e-6

        def jet(u):
            f, fp, fm = (np.asarray(x(w)) for w in (u, u + h, u - h))
            return f, (fp - fm) / (2 * h), (fp - 2 * f + fm) / h**2

        return ScalarFunc(jet)
    raise ValidationError(f"cannot interpret {x!r} as a scalar function")


# ---------------------------------------------------------------------------
# Frenet frames


@dataclass(frozen=True)
class CurveFrame:
    """Arc-length space curve with Frenet frame, sampled and interpolated.

    Node data comes from RK4 integration of the Frenet system; evaluation at
    arbitrary u uses quintic Hermite segments whose endpoint derivatives are
    supplied analytically by the Frenet equations themselves.
    """

    u_nodes: np.ndarray
    gamma: np.ndarray   # (n, 3)
    t: np.ndarray
    n: np.ndarray
    b: np.ndarray
    kappa: ScalarFunc
    tau: ScalarFunc
    _tnb_interp: QuinticHermite = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u = self.u_nodes
        k, kp, _ = self.kappa.eval2(u)
        t_, tp, _ = self.tau.eval2(u)
        T, N, B = self.t, self.n, self.b
        d1, d2 = _frenet_derivs(T, N, B, k, kp, t_, tp)
        # (t, n, b) side by side as nine columns: one table lookup for all
        object.__setattr__(self, "_tnb_interp", QuinticHermite(
            u, np.hstack([T, N, B]), np.hstack(d1), np.hstack(d2)))

    @property
    def u_range(self):
        return float(self.u_nodes[0]), float(self.u_nodes[-1])

    def gamma_at(self, u):
        k = self.kappa.eval2(self.u_nodes)[0][:, None]   # gamma'' = kappa n
        return QuinticHermite(self.u_nodes, self.gamma, self.t, k * self.n).eval2(u)[0]

    def frame_jets(self, u):
        """Frame vectors with first and second u-derivatives via Frenet."""
        T, N, B = np.split(self._tnb_interp(u), 3, axis=-1)
        k, kp, _ = self.kappa.eval2(u)
        t_, tp, _ = self.tau.eval2(u)
        return (T, N, B), *_frenet_derivs(T, N, B, k, kp, t_, tp)


def _frenet_derivs(T, N, B, k, kp, t_, tp):
    """First and second derivatives of the frame from the Frenet equations."""
    k, kp, t_, tp = (x[..., None] for x in (k, kp, t_, tp))
    dT = k * N
    dN = -k * T + t_ * B
    dB = -t_ * N
    ddT = kp * N + k * dN
    ddN = -kp * T - k * dT + tp * B + t_ * dB
    ddB = -tp * N - t_ * dN
    return (dT, dN, dB), (ddT, ddN, ddB)


def _gram_schmidt(y):
    """The frame state y = (gamma, t, n, b) with (t, n, b) orthonormalized
    in that order.  Each dot product is summed in ``_dot``'s order on Python
    floats: BLAS's ddot adds in an order of its kernel's choosing, and a
    numpy call on a 3-vector costs more than its three products."""
    def dot(x, z):
        return ((x[0] * z[0] + x[2] * z[2]) + x[1] * z[1]) + 0.0

    def unit(x):
        norm = math.sqrt(dot(x, x))
        if norm == 0.0:
            raise NumericalError("frame vectors are linearly dependent")
        return [c / norm for c in x]

    y = y.tolist()
    t, n, b = unit(y[3:6]), y[6:9], y[9:12]
    nt = dot(n, t)
    n = unit([c - nt * e for c, e in zip(n, t)])
    bt, bn = dot(b, t), dot(b, n)
    b = unit([c - bt * e - bn * f for c, e, f in zip(b, t, n)])
    return np.array(y[0:3] + t + n + b)


def frame_from_curvature(kappa, tau, u_range, init, max_step=1e-3) -> CurveFrame:
    """Integrate the Frenet system t'=k n, n'=-k t + tau b, b'=-tau n.

    ``init`` is (gamma0, t0, n0, b0); fixed-step RK4 (``interp._rk4``) with
    a Gram-Schmidt re-orthonormalization after every step.  kappa must stay
    positive on the range.
    """
    kappa = as_scalar_func(kappa)
    tau = as_scalar_func(tau)
    u0, u1 = float(u_range[0]), float(u_range[1])

    def rhs(u, y, k, tv):
        if not (k > 0.0):
            raise NumericalError(f"kappa({u}) = {k} <= 0")
        # on Python floats: a numpy call on a 3-vector costs more than its
        # products, and these are the products numpy would form
        _, _, _, t0, t1, t2, n0, n1, n2, b0, b1, b2 = y.tolist()
        return np.array([t0, t1, t2, k * n0, k * n1, k * n2,
                         -k * t0 + tv * b0, -k * t1 + tv * b1, -k * t2 + tv * b2,
                         -tv * n0, -tv * n1, -tv * n2])

    y0 = _gram_schmidt(np.concatenate([np.asarray(x, dtype=float) for x in init]))
    us, ys = _rk4(rhs, u0, y0, u1 - u0, max_step, project=_gram_schmidt,
                  coeffs=lambda grid: (kappa(grid), tau(grid)))
    return CurveFrame(u_nodes=np.array(us), gamma=ys[:, 0:3],
                      t=ys[:, 3:6], n=ys[:, 6:9], b=ys[:, 9:12],
                      kappa=kappa, tau=tau)


PLANAR_INIT = (np.zeros(3),
               np.array([1.0, 0.0, 0.0]),
               np.array([0.0, 1.0, 0.0]),
               np.array([0.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# cyclic specs and patches


@dataclass(frozen=True)
class CyclicSpec:
    """Foliation data for a cyclic surface.

    mode "parallel": centre (a(u), b(u), u), radius r(u), horizontal circles.
    mode "frenet":  centre a*t + b*n + c*bv in the frame of ``frame``,
    circle of radius r(u) in the (n, bv) plane.
    """

    mode: str
    u_range: tuple
    r: ScalarFunc
    a: ScalarFunc
    b: ScalarFunc
    c: ScalarFunc = None          # frenet mode only
    frame: CurveFrame = None      # frenet mode only
    u_periodic: bool = False
    label: str = ""

    def __post_init__(self):
        if self.mode not in ("parallel", "frenet"):
            raise ValidationError(f"unknown cyclic mode {self.mode!r}")
        if self.mode == "frenet" and self.frame is None:
            raise ValidationError("frenet mode requires a CurveFrame")


def parallel_spec(a, b, r, u_range, label="parallel-cyclic") -> CyclicSpec:
    return CyclicSpec(mode="parallel", u_range=(float(u_range[0]), float(u_range[1])),
                      a=as_scalar_func(a), b=as_scalar_func(b),
                      r=as_scalar_func(r), label=label)


def frenet_spec(frame, a, b, c, r, u_range=None, u_periodic=False,
                label="frenet-cyclic") -> CyclicSpec:
    if u_range is None:
        u_range = frame.u_range
    return CyclicSpec(mode="frenet", u_range=(float(u_range[0]), float(u_range[1])),
                      a=as_scalar_func(a), b=as_scalar_func(b), c=as_scalar_func(c),
                      r=as_scalar_func(r), frame=frame, u_periodic=u_periodic,
                      label=label)


def _validate_cyclic(spec: CyclicSpec):
    if spec.mode == "parallel" and spec.u_periodic:
        raise ValidationError("parallel mode cannot be u_periodic: "
                              "circles at heights z = u do not close up in u")
    u = np.linspace(*spec.u_range, 101)
    r = spec.r(u)
    if not np.all(r > 0.0):
        raise ValidationError("radius function must stay positive on the domain")
    if spec.mode == "frenet":
        k = spec.frame.kappa(u)
        if not np.all(k > 0.0):
            raise ValidationError("frenet mode requires kappa > 0 on the domain")


def build_cyclic(spec: CyclicSpec) -> ParametricPatch:
    """Analytic-jet patch for a cyclic spec."""
    _validate_cyclic(spec)
    if spec.mode == "parallel":
        def ev(u, v):
            # the circles of radius r about (a, b, u) in the planes z = u; one
            # (6, ..., 3) buffer holds all six fields
            (av, ap, app), (bv, bp, bpp), (rv, rp, rpp) = (
                f.eval2(u) for f in (spec.a, spec.b, spec.r))
            cv, sv = np.cos(v), np.sin(v)
            J = np.zeros((6, *np.broadcast(u, cv).shape, 3))
            J[0, ..., 0], J[0, ..., 1], J[0, ..., 2] = av + rv * cv, bv + rv * sv, u
            J[1, ..., 0], J[1, ..., 1], J[1, ..., 2] = ap + rp * cv, bp + rp * sv, 1.0
            J[2, ..., 0], J[2, ..., 1] = -rv * sv, rv * cv
            J[3, ..., 0], J[3, ..., 1] = app + rpp * cv, bpp + rpp * sv
            J[4, ..., 0], J[4, ..., 1] = -rp * sv, rp * cv
            J[5, ..., 0], J[5, ..., 1] = -rv * cv, -rv * sv
            return Jet2(*J)

        return ParametricPatch(evaluator=ev, u_range=spec.u_range,
                               v_range=(0.0, 2.0 * math.pi), v_periodic=True,
                               label=spec.label)

    frame = spec.frame
    a, b, c, r = spec.a, spec.b, spec.c, spec.r

    def ev(u, v):
        (T, N, B), (dT, dN, dB), (ddT, ddN, ddB) = frame.frame_jets(u)
        av, ap, app = a.eval2(u)
        bv, bp, bpp = b.eval2(u)
        cv_, cp, cpp = c.eval2(u)
        rv, rp, rpp = r.eval2(u)
        cs, sn = np.cos(v), np.sin(v)
        # frame coefficients of Psi and their parameter derivatives
        f1, f1u, f1uu = av, ap, app
        f2 = bv + rv * cs
        f2u, f2uu = bp + rp * cs, bpp + rpp * cs
        f3 = cv_ + rv * sn
        f3u, f3uu = cp + rp * sn, cpp + rpp * sn

        def comb(x1, x2, x3, e1, e2, e3):
            return x1[..., None] * e1 + x2[..., None] * e2 + x3[..., None] * e3

        P = comb(f1, f2, f3, T, N, B)
        Pu = comb(f1u, f2u, f3u, T, N, B) + comb(f1, f2, f3, dT, dN, dB)
        Puu = (comb(f1uu, f2uu, f3uu, T, N, B)
               + 2.0 * comb(f1u, f2u, f3u, dT, dN, dB)
               + comb(f1, f2, f3, ddT, ddN, ddB))
        Pv = comb(np.zeros_like(rv), -rv * sn, rv * cs, T, N, B)
        Puv = (comb(np.zeros_like(rv), -rp * sn, rp * cs, T, N, B)
               + comb(np.zeros_like(rv), -rv * sn, rv * cs, dT, dN, dB))
        Pvv = comb(np.zeros_like(rv), -rv * cs, -rv * sn, T, N, B)
        return Jet2(P, Pu, Pv, Puu, Puv, Pvv)

    return ParametricPatch(evaluator=ev, u_range=spec.u_range,
                           v_range=(0.0, 2.0 * math.pi), v_periodic=True,
                           u_periodic=spec.u_periodic, label=spec.label)


# ---------------------------------------------------------------------------
# closed-form harmonic coefficients of the weighted defect


def parallel_A3B3(a, ap, b, bp, r, alpha, u):
    """Top (n=3) harmonic coefficients for the parallel-plane foliation.

    Arguments are pointwise values: centre components and their derivatives,
    radius, exponent and height.  Normalized to match ``fourier_defect``.
    """
    f = alpha * r**3 / 4.0
    A3 = f * (-2.0 * b * ap * bp - (a - 3.0 * u * ap) * bp**2 + (a - u * ap) * ap**2)
    B3 = f * (ap * (2.0 * a - 3.0 * u * ap) * bp + b * (ap**2 - bp**2) + u * bp**3)
    return A3, B3


def frenet_A4B4(a, b, c, bp, cp, r, kappa, tau, alpha):
    """Top (n=4) harmonic coefficients for the Frenet-frame foliation.

    Both carry the common factor (alpha + 4) * r^4 * kappa / 8; normalized
    to match ``fourier_defect`` on the corresponding patch.
    """
    k, t = kappa, tau
    f = (alpha + 4.0) * r**4 * k / 8.0
    A4 = f * (2.0 * cp * (c * (a * k + bp - c * t) + b * b * t)
              - b * (2.0 * a * k * (bp - 2.0 * c * t) + a * a * k * k
                     - 4.0 * c * t * bp + bp * bp
                     - t * t * (b * b - 3.0 * c * c) + r * r * k * k)
              + b * cp * cp)
    B4 = -f * (2.0 * a * k * (c * (bp - c * t) + b * cp + b * b * t)
               + a * a * c * k * k
               + c * (bp * bp - (b * t + cp) * (3.0 * b * t + cp) + r * r * k * k)
               + 2.0 * b * bp * (b * t + cp) - 2.0 * c * c * t * bp
               + c ** 3 * t * t)
    return A4, B4


def frenet_combination(a, b, c, bp, cp, r, kappa, tau, alpha):
    """Closed form of c*A4 - b*B4 (factorized): the case-splitting identity."""
    return ((alpha + 4.0) * r**4 * kappa * (b * b + c * c)
            * (b * tau + cp) * (a * kappa + bp - c * tau) / 4.0)


# ---------------------------------------------------------------------------
# the planar ODE family for exponent -2


def neg2_eq21(a, ap, app, r, rp, rpp, k, kp):
    """First defining equation of the planar family (n=1 cosine harmonic)."""
    return (a * a * r * (k * (-3.0 * ap**2 + r * rpp + 3.0 * rp**2) - r * rp * kp)
            + r**3 * (k * (ap**2 + r * rpp - rp**2) - r * rp * kp)
            + a**3 * (r * k * app + ap * (2.0 * k * rp - r * kp))
            + a * r * r * (r * k * app - ap * (6.0 * k * rp + r * kp)))


def neg2_eq22(a, ap, app, r, rp, rpp, k, kp):
    """Second defining equation (n=0 harmonic)."""
    return (a * r * rp * (2.0 * (ap**2 + rp**2) + r * r * k * k)
            + a**4 * k * k * ap
            + a * a * (r * app * rp - r * ap * rpp + ap * rp**2
                       + r * r * k * k * ap + ap**3)
            - r * r * (-r * app * rp + ap * (r * rpp + rp**2) + ap**3)
            + a**3 * r * k * k * rp)


def neg2_eq23(a, ap, app, r, rp, k, kp):
    """Reduced equation obtained by eliminating r'' between the two above."""
    return (a * r * k * (-2.0 * ap**2 + 2.0 * rp**2 + r * r * k * k)
            + r * r * (k * (r * app - 2.0 * ap * rp) - r * ap * kp)
            + a * a * (k * (r * app + 2.0 * ap * rp) - r * ap * kp)
            + a**3 * r * k**3)


def integrate_neg2_family(kappa, a0, a0p, r0, r0p, u_range,
                          max_step=1e-3) -> CyclicSpec:
    """Integrate the planar family of (-2)-exponent cyclic surfaces.

    The curvature of the foliation's base curve is prescribed; the centre
    offset a(u) and radius r(u) solve the two defining equations, which are
    affine in (r'', a'') and triangular: ``_neg2_accels`` solves them in
    closed form.  Returns a frenet-mode CyclicSpec with the planar frame
    integrated from kappa.
    """
    kappa = as_scalar_func(kappa)
    u0, u1 = _increasing("u_range", u_range)
    if not (r0 > 0.0):
        raise ValidationError("r0 must be positive")

    def rhs(u, y, k, kp):
        a, ap, r, rp = y.tolist()
        app, rpp = _neg2_accels(u, a, ap, r, rp, k, kp)
        return np.array([ap, app, rp, rpp])

    slopes = []
    us, ys = _rk4(rhs, u0, [float(a0), float(a0p), float(r0), float(r0p)], u1 - u0,
                  max_step, slopes=slopes, coeffs=lambda grid: kappa.eval2(grid)[:2])
    # (a'', r'') at the nodes: the slope's second and fourth entries
    us, acc = np.array(us), np.array(slopes)[:, 1::2]
    a_func = ScalarFunc.from_table(us, ys[:, 0], ys[:, 1], acc[:, 0])
    r_func = ScalarFunc.from_table(us, ys[:, 2], ys[:, 3], acc[:, 1])
    frame = frame_from_curvature(kappa, 0.0, (u0, u1), PLANAR_INIT,
                                 max_step=max_step)
    return frenet_spec(frame, a_func, 0.0, 0.0, r_func, (u0, u1),
                       label=f"neg2-family[{u0:.3g},{u1:.3g}]")


def _neg2_accels(u, a, ap, r, rp, k, kp):
    """(a'', r'') at u from the two defining equations, which are affine in
    them; every argument a float.  Eq. 23 holds no r'' and has a''
    coefficient q = k r (a^2 + r^2), so a'' = -g0 / q; eq. 21, whose
    coefficients are r q for r'' and a q for a'', then gives r''.  e0 and
    g0 are eqs. 21 and 23 at zero accelerations."""
    if not (r > 0.0):
        raise NumericalError(f"radius collapsed at u={u:.6g}")
    if not (k > 0.0):
        raise NumericalError(f"kappa({u}) = {k} <= 0")
    try:
        e0 = neg2_eq21(a, ap, 0.0, r, rp, 0.0, k, kp)
        g0 = neg2_eq23(a, ap, 0.0, r, rp, k, kp)
    except OverflowError:   # a float ** past the float range
        raise NumericalError(f"system for (r'', a'') overflows at u={u:.6g}") from None
    q = k * r * (a * a + r * r)
    # q >= 0, so this holds just where q and r q are both nonzero and finite
    if not 0.0 < r * q < math.inf:
        raise NumericalError(f"singular system for (r'', a'') at u={u:.6g}")
    app = -g0 / q
    return app, -(e0 + a * q * app) / (r * q)


def log_spiral_example(u_range) -> ParametricPatch:
    """The explicit non-spherical (-2)-exponent example surface.

    Psi(u, v) = (-u sin(log u) cos v, u cos(log u) cos v, u sin v), u > 0.
    """
    u0, u1 = float(u_range[0]), float(u_range[1])
    if u0 <= 0.0:
        raise ValidationError("log-spiral example requires u > 0")

    def ev(u, v):
        th = np.log(u)
        s, cth, cv, sv = np.sin(th), np.cos(th), np.cos(v), np.sin(v)
        sp = s + cth          # d/du [u sin th]
        cm = cth - s          # d/du [u cos th]
        J = np.zeros((6, *np.broadcast(u, v).shape, 3))
        J[0, ..., 0], J[0, ..., 1], J[0, ..., 2] = -u * s * cv, u * cth * cv, u * sv
        J[1, ..., 0], J[1, ..., 1], J[1, ..., 2] = -sp * cv, cm * cv, sv
        J[2, ..., 0], J[2, ..., 1], J[2, ..., 2] = u * s * sv, -u * cth * sv, u * cv
        J[3, ..., 0], J[3, ..., 1] = -cm / u * cv, -sp / u * cv
        J[4, ..., 0], J[4, ..., 1], J[4, ..., 2] = sp * sv, -cm * sv, cv
        J[5, ..., 0], J[5, ..., 1], J[5, ..., 2] = u * s * cv, -u * cth * cv, -u * sv
        return Jet2(*J)

    return ParametricPatch(evaluator=ev, u_range=(u0, u1),
                           v_range=(0.0, 2.0 * math.pi), v_periodic=True,
                           label="log-spiral(-2)")


# ---------------------------------------------------------------------------
# serialization

# the spec tables of a cyclic spec; the last three only in frenet mode
TABLE_NAMES = ("a", "b", "r", "c", "kappa", "tau")


def cyclic_spec_to_dict(spec: CyclicSpec) -> dict:
    out = {"mode": spec.mode, "u_range": list(spec.u_range),
           "u_periodic": spec.u_periodic, "label": spec.label}
    funcs = [spec.a, spec.b, spec.r]
    if spec.mode == "frenet":
        funcs += [spec.c, spec.frame.kappa, spec.frame.tau]
    out.update(zip(TABLE_NAMES, (write_table(f, spec.u_range) for f in funcs)))
    if spec.mode == "frenet":
        fr = spec.frame
        out["init_frame"] = [x[0].tolist() for x in (fr.gamma, fr.t, fr.n, fr.b)]
    return out


def cyclic_spec_from_dict(d) -> CyclicSpec:
    """The CyclicSpec of a spec object in the form ``catalog.CYCLIC_SPECS``
    gives its mode."""
    names = TABLE_NAMES[:3] if d["mode"] == "parallel" else TABLE_NAMES
    f = {key: read_table(ScalarFunc, d[key]) for key in names}
    _increasing("u_range", d["u_range"], {key: d[key]["u"] for key in names})
    if d["mode"] == "frenet":
        f["frame"] = frame_from_curvature(f.pop("kappa"), f.pop("tau"),
                                          d["u_range"], d["init_frame"])
    return CyclicSpec(mode=d["mode"], u_range=d["u_range"],
                      u_periodic=d["u_periodic"], label=d["label"], **f)


def write_solution_csv(spec: CyclicSpec, path):
    """Solution curve table (u, a, r, kappa) for generated families."""
    u = np.linspace(*spec.u_range, 201)
    a = spec.a(u)
    r = spec.r(u)
    k = spec.frame.kappa(u) if spec.mode == "frenet" else np.zeros_like(u)
    output.write_csv(path, ["u", "a", "r", "kappa"], np.column_stack([u, a, r, k]))
