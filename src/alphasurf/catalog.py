"""Named surface families as ready-to-evaluate patches.

Every family the toolkit reasons about is constructible here from a small
parameter record: planes, spheres, cylinders over planar curves, the
helicoid and catenoid, ruled and cyclic specs, inversion images, the
explicit log-spiral surface for exponent -2, and numerically generated
minimal cyclic surfaces (Riemann's family).
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import cyclic as _cyclic
from . import inversion as _inversion
from . import output
from . import ruled as _ruled
from .errors import NumericalError, ValidationError, reads_spec
from .interp import Curve3, ScalarFunc, _increasing, _rk4, read_table, write_table
from .surface_kernel import Jet2, ParametricPatch, _cross, translated

@dataclass(frozen=True)
class FamilySpec:
    """A named family plus its kind-specific parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in FAMILIES:
            raise ValidationError(f"unknown family kind {self.kind!r}")
        # a nested param holds what its reader made, so it need only be there
        takes = FAMILIES[self.kind][1]
        forms = {key: None if callable(val) else NUMBER_PARAMS[key]
                 for key, val in takes.items()}
        _checked(self.params, forms, f"family {self.kind}",
                 [key for key, val in takes.items() if not callable(val)], noun="param")
        for key in self.params.keys() & {"u_range", "t_range"}:
            _increasing(key, self.params[key])


# ---------------------------------------------------------------------------
# individual constructors


def _plane_basis(normal):
    n = np.asarray(normal, dtype=float)
    norm = np.linalg.norm(n)
    if not 0 < norm < math.inf:
        raise ValidationError("plane normal must be finite and nonzero")
    n = n / norm
    # any vector not parallel to n seeds the in-plane frame
    seed = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(seed, n)) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    e1 = seed - np.dot(seed, n) * n
    e1 /= np.linalg.norm(e1)
    e2 = _cross(n, e1)
    return n, e1, e2


def plane_patch(normal, offset=0.0, extent=2.0) -> ParametricPatch:
    """Plane with the given unit normal at signed distance ``offset`` from 0,
    ruled over the line offset*n + s*e1 by the constant e2."""
    n, e1, e2 = _plane_basis(normal)
    spec = _ruled.RuledSpec(gamma=_ruled._line(float(offset) * n, e1),
                            beta=_ruled._constant(e2), s_range=(-extent, extent),
                            cylindrical=True)
    label = "vector-plane" if offset == 0.0 else f"affine-plane(d={offset})"
    return replace(_ruled.build_ruled_patch(spec, (-extent, extent)), label=label)


def sphere_patch(center, radius) -> ParametricPatch:
    """Sphere in colatitude/longitude coordinates; u-endpoints are poles."""
    c = np.asarray(center, dtype=float)
    R = float(radius)
    if not (R > 0):
        raise ValidationError("sphere radius must be positive")

    def ev(u, v):
        su, cu = np.sin(u), np.cos(u)
        sv, cv = np.sin(v), np.cos(v)
        rad = np.stack([su * cv, su * sv, cu], axis=-1)
        Pu = R * np.stack([cu * cv, cu * sv, -su], axis=-1)
        Pv = R * np.stack([-su * sv, su * cv, np.zeros_like(u)], axis=-1)
        Puv = R * np.stack([-cu * sv, cu * cv, np.zeros_like(u)], axis=-1)
        Pvv = R * np.stack([-su * cv, -su * sv, np.zeros_like(u)], axis=-1)
        return Jet2(P=c + R * rad, Pu=Pu, Pv=Pv, Puu=-R * rad, Puv=Puv, Pvv=Pvv)

    return ParametricPatch(evaluator=ev, u_range=(0.0, math.pi),
                           v_range=(0.0, 2.0 * math.pi), v_periodic=True,
                           u_collapse=(True, True),
                           label=f"sphere(c={c.tolist()},R={R})")


def helicoid_patch(pitch=1.0, t_range=(-2.0, 2.0), turns=1.0,
                   center=None) -> ParametricPatch:
    """Psi(s, t) = (t cos s, t sin s, pitch * s), moved by ``center``."""
    p = float(pitch)
    if p == 0.0 or not math.isfinite(p):
        raise ValidationError("helicoid pitch must be finite and nonzero")

    def ev(u, v):
        cs, sn = np.cos(u), np.sin(u)
        zeros = np.zeros_like(u)
        P = np.stack([v * cs, v * sn, p * u], axis=-1)
        Pu = np.stack([-v * sn, v * cs, np.full_like(u, p)], axis=-1)
        Pv = np.stack([cs, sn, zeros], axis=-1)
        Puu = np.stack([-v * cs, -v * sn, zeros], axis=-1)
        Puv = np.stack([-sn, cs, zeros], axis=-1)
        Pvv = np.zeros_like(P)
        return Jet2(P, Pu, Pv, Puu, Puv, Pvv)

    patch = ParametricPatch(evaluator=ev,
                            u_range=(0.0, 2.0 * math.pi * float(turns)),
                            v_range=(float(t_range[0]), float(t_range[1])),
                            label=f"helicoid(pitch={p})")
    return patch if center is None else translated(patch, center)


def catenoid_patch(waist=1.0, u_range=(-1.5, 1.5),
                   center=(0.0, 0.0, 0.0)) -> ParametricPatch:
    """(c cosh(u/c) cos v, c cosh(u/c) sin v, u), axis through ``center``:
    the parallel cyclic spec of the catenary radius about the z-axis."""
    c = float(waist)
    if not (c > 0):
        raise ValidationError("catenoid waist must be positive")
    r = ScalarFunc(lambda u: (c * np.cosh(u / c), np.sinh(u / c), np.cosh(u / c) / c))
    patch = _cyclic.build_cyclic(_cyclic.parallel_spec(0.0, 0.0, r, u_range))
    return replace(translated(patch, center), label=f"catenoid(waist={c})")


# ---------------------------------------------------------------------------
# planar curves from the one-dimensional analog of the stationarity equation


def euler_planar_curve(alpha, r0, theta0, kappa0_sign, length,
                       tangent_angle=None) -> _ruled.PlanarCurve:
    """Integrate the planar curves with kappa(s) = alpha * <n, gamma> / |gamma|^2.

    Starts at gamma(0) = r0 * (cos theta0, sin theta0).  The default initial
    tangent is perpendicular to the position ray, turned by kappa0_sign;
    ``tangent_angle`` overrides it (e.g. equal to theta0 for the radial line
    solution).  The in-plane normal is n = z_hat x t, so curvature is signed.
    """
    r0 = float(r0)
    if not (r0 > 0):
        raise ValidationError("r0 must be positive")
    alpha = float(alpha)
    theta0 = float(theta0)
    if kappa0_sign not in (-1, 1):
        raise ValidationError("kappa0_sign must be +1 or -1")
    phi = (theta0 + kappa0_sign * math.pi / 2.0
           if tangent_angle is None else float(tangent_angle))
    if not math.isfinite(float(length)):
        raise ValidationError("length must be finite")

    def rhs(_, y):
        x, yy, ph = y
        rr = x * x + yy * yy
        if rr < 1e-12:
            raise NumericalError("curve reached the origin")
        nx, ny = -math.sin(ph), math.cos(ph)
        return np.array([math.cos(ph), math.sin(ph), alpha * (nx * x + ny * yy) / rr])

    y0 = np.array([r0 * math.cos(theta0), r0 * math.sin(theta0), phi])
    _, rows = _rk4(rhs, 0.0, y0, float(length), 1e-3)
    h = float(length) / (len(rows) - 1)
    s = h * np.arange(len(rows))
    x, yy, ph = rows[:, 0], rows[:, 1], rows[:, 2]
    gamma = np.stack([x, yy, np.zeros_like(x)], axis=-1)
    t = np.stack([np.cos(ph), np.sin(ph), np.zeros_like(x)], axis=-1)
    n = np.stack([-np.sin(ph), np.cos(ph), np.zeros_like(x)], axis=-1)
    kappa = alpha * (n[:, 0] * x + n[:, 1] * yy) / (x * x + yy * yy)
    return _ruled.PlanarCurve(s=s, gamma=gamma, t=t, n=n, kappa=kappa,
                              plane_normal=np.array([0.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# Riemann's minimal family


def _riemann_accels(ap, r, rp):
    """(a'', r'') of the circles of radius r about (a, 0, u) in the planes
    z = u that make the n=0 and n=1 harmonics of the zero-exponent defect
    vanish: Riemann's equations (a'/r^2)' = 0 and r r'' = 1 + a'^2 + r'^2.
    Floats, or elementwise over arrays of circles."""
    return 2.0 * ap * rp / r, (1.0 + ap * ap + rp * rp) / r


def riemann_minimal_spec(c_drift, r0, span) -> _cyclic.CyclicSpec:
    """Profile functions (a, r) of a minimal surface foliated by horizontal
    circles, integrated by ``interp._rk4`` from the waist to u = +span, then
    from the waist to u = -span; each run stops at its first failure."""
    r0 = float(r0)
    if not (r0 > 0):
        raise ValidationError("r0 must be positive")
    span = float(span)
    if not 0 < span < math.inf:
        raise ValidationError("span must be finite and positive")

    def rhs(u, y):
        a, ap, r, rp = y.tolist()
        if not r > 0.0:
            raise NumericalError(f"radius collapsed at u={u:.6g}")
        app, rpp = _riemann_accels(ap, r, rp)
        if not all(map(math.isfinite, (a, ap, r, rp, app, rpp))):
            raise NumericalError(f"profile overflows at u={u:.6g}")
        return np.array([ap, app, rp, rpp])

    def run(length):
        slopes = []
        nodes, ys = _rk4(rhs, 0.0, [0.0, float(c_drift), r0, 0.0], length,
                         2e-3, slopes=slopes)
        return nodes, ys, np.array(slopes)

    (u_p, y_p, k_p), (u_m, y_m, k_m) = run(span), run(-span)
    # node abscissae rounded, from -span to +span; the states and their
    # slopes (a', a'', r', r'') in the same order
    us = np.array([round(u, 12) for u in u_m[::-1] + u_p[1:]])
    data = np.concatenate([y_m[::-1], y_p[1:]])
    acc = np.concatenate([k_m[::-1], k_p[1:]])
    a_func = ScalarFunc.from_table(us, data[:, 0], data[:, 1], acc[:, 1])
    r_func = ScalarFunc.from_table(us, data[:, 2], data[:, 3], acc[:, 3])
    return _cyclic.parallel_spec(a_func, 0.0, r_func, (-span, span),
                                 label=f"riemann-minimal(c={float(c_drift)},r0={r0})")


def riemann_minimal(c_drift, r0, span) -> ParametricPatch:
    return _cyclic.build_cyclic(riemann_minimal_spec(c_drift, r0, span))


# ---------------------------------------------------------------------------
# dispatch


def _directrix_from_params(p) -> _ruled.PlanarCurve:
    p = _checked_directrix(p)
    build, takes = DIRECTRICES[p.pop("type")]
    return build(**{**takes, **p})


def _cyclic_patch(spec, mode):
    if spec.mode == mode:
        return _cyclic.build_cyclic(spec)
    raise ValidationError(f"cyclic spec mode {spec.mode!r} is not {mode!r}")


@reads_spec
def make_patch(spec: FamilySpec) -> ParametricPatch:
    """Build the patch for any catalog family."""
    build, takes = FAMILIES[spec.kind]
    return build(**{**takes, **spec.params})


# ---------------------------------------------------------------------------
# JSON round-trip


def ruled_spec_to_dict(spec: _ruled.RuledSpec) -> dict:
    return {"s_range": list(spec.s_range),
            "cylindrical": spec.cylindrical,
            "gamma": write_table(spec.gamma, spec.s_range),
            "beta": write_table(spec.beta, spec.s_range)}


def ruled_spec_from_dict(d) -> _ruled.RuledSpec:
    d = _checked(d, RULED_SPEC, "ruled spec")
    gamma, beta = (read_table(Curve3, d[key]) for key in ("gamma", "beta"))
    _increasing("s_range", d["s_range"], {key: d[key]["s"] for key in ("gamma", "beta")})
    return _ruled.RuledSpec(gamma=gamma, beta=beta, s_range=d["s_range"],
                            cylindrical=d["cylindrical"])


def _cyclic_spec_from_dict(d) -> _cyclic.CyclicSpec:
    forms = _tagged(d, "mode", CYCLIC_SPECS, "cyclic spec")
    return _cyclic.cyclic_spec_from_dict(_checked(d, forms, "cyclic spec"))


def _checked_directrix(d) -> dict:
    takes = _tagged(d, "type", DIRECTRICES, "directrix")[1]
    return _checked(d, {"type": str, **{key: _CURVE_NUMBERS[key] for key in takes}},
                    "directrix", [key for key, val in takes.items() if val is not ...])


def family_to_dict(spec: FamilySpec) -> dict:
    # the writer of each nested type; numbers, lists and directrix dicts go as they are
    writers = {FamilySpec: family_to_dict, _cyclic.CyclicSpec: _cyclic.cyclic_spec_to_dict,
               _ruled.RuledSpec: ruled_spec_to_dict, tuple: list}
    return {"kind": spec.kind, "params": {key: writers.get(type(val), lambda v: v)(val)
                                          for key, val in spec.params.items()}}


def _is_numbers(val, shape):
    """Whether ``val`` nests lists (or tuples) of finite real numbers, no
    bool, in ``shape``, where "n" is any length."""
    items = [val]
    for n in shape:
        if not all(type(x) in (list, tuple) and n in ("n", len(x)) for x in items):
            return False
        items = list(itertools.chain.from_iterable(items))
    try:   # math.isfinite raises on an int past the float range
        return (all(issubclass(t, numbers.Real) and t is not bool
                    for t in set(map(type, items))) and all(map(math.isfinite, items)))
    except OverflowError:
        return False


def _checked(fields, forms, what, optional=(), noun="field"):
    """Copy of the JSON object ``fields`` whose every field has a form in
    ``forms`` and every form but the ``optional`` ones a field.  A form is a
    count of numbers (one is a bare number) or an array shape of numbers; a
    type; None for any value; or the forms of a nested object."""
    if not isinstance(fields, dict):
        raise ValidationError(f"{what} must be a JSON object")
    for key in forms:
        if key not in fields and key not in optional:
            raise ValidationError(f"spec is missing field {key!r}")
    out = {}
    for key, val in fields.items():
        if key not in forms:
            raise ValidationError(f"{what} takes no {noun} {key!r}")
        form, name = forms[key], f"{what} {noun} {key!r}"
        if isinstance(form, type):
            if type(val) is not form:
                raise ValidationError(f"{name} must be a {form.__name__}")
        elif isinstance(form, dict):
            val = _checked(val, form, f"{what} {key}")
        elif form is not None:
            shape = () if form == 1 else (form,) if isinstance(form, int) else form
            if not _is_numbers(val, shape):
                raise ValidationError(f"{name} must be "
                                      f"{' x '.join(map(str, shape)) or 1} "
                                      "finite number(s)")
        out[key] = val
    return out


def _tagged(d, key, table, what):
    """The entry of ``table`` that field ``key`` of the JSON object ``d``
    names; every reader of a nested object starts here or in ``_checked``."""
    if not isinstance(d, dict):
        raise ValidationError(f"{what} must be a JSON object")
    if not (type(d.get(key)) is str and d[key] in table):
        raise ValidationError(f"unknown {what} {key} {d.get(key)!r}")
    return table[d[key]]


def family_from_dict(d) -> FamilySpec:
    """The FamilySpec of a spec object: its nested params read here, and the
    others checked by FamilySpec."""
    takes = _tagged(d, "kind", FAMILIES, "family")[1]
    d = _checked(d, {"kind": str, "params": dict}, "spec", ["params"])
    return FamilySpec(d["kind"], {key: takes[key](val) if callable(takes.get(key)) else val
                                  for key, val in d.get("params", {}).items()})


# The spec schema: how many numbers each number param holds, in every kind
# that takes it, and below, field -> form (see ``_checked``) of each nested
# spec object.
NUMBER_PARAMS = {"center": 3, "normal": 3, "u_range": 2, "t_range": 2,
                 **dict.fromkeys(("radius", "offset", "pitch", "waist", "extent",
                                  "turns", "c_drift", "r0", "span"), 1)}
_CURVE_NUMBERS = {"center": 2, "point": 2, "direction": 2, "radius": 1, "length": 1,
                  "alpha": 1, "r0": 1, "theta0": 1, "kappa0_sign": 1, "tangent_angle": 1}
# a spec table: abscissae, values and two derivatives, one node per entry
SCALAR_TABLE = dict.fromkeys(ScalarFunc.TABLE_KEYS + ("d1", "d2"), ("n",))
CURVE_TABLE = {**dict.fromkeys(Curve3.TABLE_KEYS + ("d1", "d2"), ("n", 3)),
               Curve3.TABLE_KEYS[0]: ("n",)}
RULED_SPEC = {"s_range": 2, "cylindrical": bool, "gamma": CURVE_TABLE,
              "beta": CURVE_TABLE}
# cyclic spec mode -> its fields; the tables are those of _cyclic.TABLE_NAMES
_PARALLEL = {"mode": str, "u_range": 2, "u_periodic": bool, "label": str,
             **dict.fromkeys(_cyclic.TABLE_NAMES[:3], SCALAR_TABLE)}
CYCLIC_SPECS = {"parallel": _PARALLEL,
                "frenet": {**_PARALLEL, **dict.fromkeys(_cyclic.TABLE_NAMES[3:], SCALAR_TABLE),
                           "init_frame": (4, 3)}}

# directrix type -> (planar curve builder, {param: default}), ... for a param
# that must be given.
DIRECTRICES = {
    "circle": (_ruled.PlanarCurve.circle, {"center": ..., "radius": ...}),
    "line": (_ruled.PlanarCurve.line, {"point": ..., "direction": ..., "length": 4.0}),
    "euler": (euler_planar_curve, {"alpha": ..., "r0": ..., "theta0": 0.0, "kappa0_sign": 1,
                                   "length": 2.0, "tangent_angle": None}),
}

# kind -> (patch builder, {param: default}), a nested param with its reader in
# place of a default; other modules' functions are looked up at each call.
FAMILIES = {
    "vector_plane": (plane_patch, {"normal": (0.0, 0.0, 1.0), "extent": 2.0}),
    "affine_plane": (plane_patch, {"normal": (0.0, 0.0, 1.0), "offset": 1.0,
                                   "extent": 2.0}),
    "sphere": (sphere_patch, {"center": (0.0, 0.0, 0.0), "radius": 1.0}),
    "cylinder_over_curve": (
        lambda directrix, t_range: _ruled.build_cylinder_patch(
            _directrix_from_params(directrix), t_range),
        {"directrix": _checked_directrix, "t_range": (-1.0, 1.0)}),
    "helicoid": (helicoid_patch, {"pitch": 1.0, "t_range": (-2.0, 2.0),
                                  "turns": 1.0, "center": None}),
    "catenoid": (catenoid_patch, {"waist": 1.0, "u_range": (-1.5, 1.5),
                                  "center": (0.0, 0.0, 0.0)}),
    "ruled_generic": (lambda spec, t_range: _ruled.build_ruled_patch(spec, t_range),
                      {"spec": ruled_spec_from_dict, "t_range": (-1.0, 1.0)}),
    "parallel_cyclic": (lambda spec: _cyclic_patch(spec, "parallel"),
                        {"spec": _cyclic_spec_from_dict}),
    "frenet_cyclic": (lambda spec: _cyclic_patch(spec, "frenet"),
                      {"spec": _cyclic_spec_from_dict}),
    "inverted": (lambda inner: _inversion.invert_patch(make_patch(inner)),
                 {"inner": family_from_dict}),
    "log_spiral_neg2": (lambda u_range: _cyclic.log_spiral_example(u_range),
                        {"u_range": (0.5, 2.0)}),
    "riemann_minimal": (riemann_minimal, {"c_drift": 0.0, "r0": 1.0, "span": 1.0}),
}


def read_spec(path):
    """JSON value of a spec file; unreadable or malformed files and nesting
    too deep for the decoder are bad input.  Its readers check its form."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read spec file: {exc}") from None


@reads_spec
def load_family(path) -> FamilySpec:
    return family_from_dict(read_spec(path))


def save_family(spec: FamilySpec, path):
    output.write_json(path, family_to_dict(spec))
