import inspect
import math

import numpy as np
import pytest

from alphasurf.catalog import (
    FAMILIES,
    NUMBER_PARAMS,
    FamilySpec,
    catenoid_patch,
    euler_planar_curve,
    family_from_dict,
    family_to_dict,
    helicoid_patch,
    load_family,
    make_patch,
    plane_patch,
    riemann_minimal,
    riemann_minimal_spec,
    save_family,
    sphere_patch,
)
from alphasurf.cyclic import integrate_neg2_family
from alphasurf.errors import ValidationError
from alphasurf.ruled import PlanarCurve, build_cylinder_patch
from alphasurf.stationary import residual_grid
from alphasurf.surface_kernel import eval_jet2


def sup_residual(patch, alpha, n=32):
    return residual_grid(patch, alpha, n, n).sup_abs


def test_family_kind_validation():
    with pytest.raises(ValidationError, match="unknown family kind 'moebius'"):
        FamilySpec(kind="moebius")
    with pytest.raises(ValidationError, match="sphere radius must be positive"):
        make_patch(FamilySpec("sphere", {"radius": -1.0}))


def test_family_spec_refuses_a_param_its_kind_does_not_take():
    with pytest.raises(ValidationError, match="takes no param 'pitch'"):
        FamilySpec("sphere", {"pitch": 1.0})
    with pytest.raises(ValidationError, match="takes no param 'offset'"):
        FamilySpec("vector_plane", {"offset": 3.0})
    with pytest.raises(ValidationError, match="unknown family kind"):
        FamilySpec(["sphere"])


def test_family_table_fits_its_builders_and_number_forms():
    for kind, (build, takes) in FAMILIES.items():
        inspect.signature(build).bind(**takes)
        for key, val in takes.items():
            if not callable(val) and val is not None:
                assert np.size(val) == NUMBER_PARAMS[key], (kind, key)


def test_family_from_dict_checks_number_forms_and_nested_fields():
    for params in ({"center": [1, 2]}, {"center": "abc"}, {"radius": True},
                   {"radius": [1.0]}, {"center": [0, 0, None]}):
        with pytest.raises(ValidationError, match="must be"):
            family_from_dict({"kind": "sphere", "params": params})
    back = family_from_dict({"kind": "sphere", "params": {"center": [0, 1, 2],
                                                          "radius": 2}})
    assert back.params == {"center": [0, 1, 2], "radius": 2}
    for directrix in (5, {"type": "circle", "center": "ab", "radius": 1},
                      {"type": "line", "point": [0, 0], "direction": [1]},
                      {"type": "euler", "alpha": 1, "r0": 1, "kappa0_sign": "+"}):
        with pytest.raises(ValidationError, match="must be"):
            family_from_dict({"kind": "cylinder_over_curve",
                              "params": {"directrix": directrix}})
    with pytest.raises(ValidationError, match="spec is missing field"):
        make_patch(FamilySpec("inverted"))


def test_family_spec_checks_number_forms_and_nested_params():
    # a library caller gets the check a spec file gets, before any evaluation
    for params in ({"center": (1, 2)}, {"center": (0, 0, True)}, {"radius": "1"},
                   {"center": np.zeros(3)}, {"radius": math.nan}, {"radius": 10**400}):
        with pytest.raises(ValidationError, match="must be"):
            FamilySpec("sphere", params)
    with pytest.raises(ValidationError, match="spec is missing field 'inner'"):
        FamilySpec("inverted")
    center = (0, 1, 2.5)
    assert FamilySpec("sphere", {"center": center}).params["center"] is center


@pytest.mark.parametrize("kind, key, rng", [
    ("catenoid", "u_range", (1.0, -1.0)), ("catenoid", "u_range", (1, 1)),
    ("log_spiral_neg2", "u_range", (2.0, 0.5)), ("helicoid", "t_range", (1.0, 0.0)),
    ("helicoid", "t_range", (0.5, 0.5)),
])
def test_family_spec_refuses_a_range_that_is_not_increasing(kind, key, rng):
    lo, hi = map(float, rng)
    with pytest.raises(ValidationError) as exc:
        FamilySpec(kind, {key: rng})
    assert str(exc.value) == f"{key} [{lo}, {hi}] is not increasing"


@pytest.mark.parametrize("directrix, message", [
    ({"type": "bogus"}, "unknown directrix type 'bogus'"),
    ({"type": "circle", "center": (2.0, 0.0)}, "spec is missing field 'radius'"),
    (5, "directrix must be a JSON object"),
], ids=["unknown-type", "circle-without-radius", "not-an-object"])
def test_family_spec_directrix_is_checked_as_in_a_spec_file(directrix, message):
    # a directrix given in Python fails with the message a spec file gets
    with pytest.raises(ValidationError, match=message) as from_file:
        family_from_dict({"kind": "cylinder_over_curve",
                          "params": {"directrix": directrix}})
    with pytest.raises(ValidationError, match=message) as from_python:
        make_patch(FamilySpec("cylinder_over_curve", {"directrix": directrix}))
    assert str(from_python.value) == str(from_file.value)


@pytest.mark.parametrize("build", [
    lambda: sphere_patch((0.0, 0.0, 0.0), math.nan),
    lambda: catenoid_patch(waist=math.nan),
    lambda: PlanarCurve.circle((0.0, 0.0), math.nan),
    lambda: euler_planar_curve(-1.0, math.nan, 0.0, 1, 1.0),
    lambda: riemann_minimal_spec(0.0, math.nan, 0.3),
    lambda: integrate_neg2_family(1.0, 0.0, 0.0, math.nan, 0.0, (1.0, 1.1)),
], ids=["sphere", "catenoid", "circle", "euler", "riemann", "neg2"])
def test_positivity_guards_refuse_nan(build):
    with pytest.raises(ValidationError, match="must be positive"):
        build()


@pytest.mark.parametrize("build", [
    lambda: plane_patch((math.nan, 0.0, 1.0)),
    lambda: plane_patch((math.inf, 0.0, 1.0)),
    lambda: helicoid_patch(pitch=math.nan),
    lambda: helicoid_patch(pitch=math.inf),
], ids=["plane-normal-nan", "plane-normal-inf", "helicoid-pitch-nan",
        "helicoid-pitch-inf"])
def test_nonzero_guards_refuse_non_finite(build):
    # a `<= 0` or `== 0` test is false for nan, and an infinite norm or pitch
    # gives nan downstream
    with pytest.raises(ValidationError, match="must be finite and nonzero"):
        build()


@pytest.mark.parametrize("build, name", [
    (lambda: riemann_minimal_spec(0.0, 1.0, math.nan), "span"),
    (lambda: riemann_minimal_spec(0.0, 1.0, math.inf), "span"),
    (lambda: euler_planar_curve(1.0, 1.0, 0.0, 1, math.nan), "length"),
    (lambda: euler_planar_curve(1.0, 1.0, 0.0, 1, -math.inf), "length"),
], ids=["riemann-span-nan", "riemann-span-inf", "euler-length-nan",
        "euler-length-inf"])
def test_non_finite_lengths_are_refused_by_name(build, name):
    # not reported as a step count ("integration needs nan steps")
    with pytest.raises(ValidationError, match=f"^{name} must be finite"):
        build()


def test_vector_plane_stationary_for_all_alpha():
    patch = make_patch(FamilySpec("vector_plane", {"normal": (0.3, -1.0, 2.0)}))
    for alpha in (-4.0, -2.0, 1.0, 3.0):
        assert sup_residual(patch, alpha, 16) < 1e-12


def test_affine_plane_not_stationary():
    patch = make_patch(FamilySpec("affine_plane", {"normal": (0, 0, 1.0),
                                                   "offset": 1.0}))
    assert sup_residual(patch, 1.0, 16) > 1e-2


def test_catenoid_is_the_closed_form_catenary_of_revolution():
    # the parallel cyclic spec of r = c cosh(u/c) about the z-axis through
    # the centre: equal in value to the closed form in every jet field
    c, off = 1.2, np.array([0.3, -0.2, 0.1])
    patch = catenoid_patch(c, (-0.5, 0.5), center=off)
    assert patch.label == "catenoid(waist=1.2)"
    u, v = np.meshgrid(np.linspace(-0.5, 0.5, 7), np.linspace(0.0, 6.0, 5))
    r, rp, rpp = c * np.cosh(u / c), np.sinh(u / c), np.cosh(u / c) / c
    cv, sv, zeros = np.cos(v), np.sin(v), np.zeros_like(u)
    expected = {"P": off + np.stack([r * cv, r * sv, u], -1),
                "Pu": np.stack([rp * cv, rp * sv, np.ones_like(u)], -1),
                "Pv": np.stack([-r * sv, r * cv, zeros], -1),
                "Puu": np.stack([rpp * cv, rpp * sv, zeros], -1),
                "Puv": np.stack([-rp * sv, rp * cv, zeros], -1),
                "Pvv": np.stack([-r * cv, -r * sv, zeros], -1)}
    jet = eval_jet2(patch, u, v)
    for name, want in expected.items():
        assert np.array_equal(getattr(jet, name), want), name


def test_helicoid_matches_ruled_parametrization():
    patch = make_patch(FamilySpec("helicoid", {"pitch": 1.0}))
    s = np.array([0.3, 1.1, 2.0])
    t = np.array([-0.7, 0.2, 1.5])
    P = eval_jet2(patch, s, t).P
    expected = np.stack([t * np.cos(s), t * np.sin(s), s], -1)
    assert np.allclose(P, expected)


def test_cylinder_family_dispatch():
    fam = FamilySpec("cylinder_over_curve",
                     {"directrix": {"type": "circle", "center": (2.0, 0.0),
                                    "radius": 1.0},
                      "t_range": (-1.0, 1.0)})
    patch = make_patch(fam)
    assert sup_residual(patch, -2.0, 16) > 1e-2


def test_family_json_round_trip(tmp_path):
    fam = FamilySpec("inverted",
                     {"inner": FamilySpec("catenoid", {"waist": 1.0,
                                                       "center": (0, 0, 1.5)})})
    path = tmp_path / "fam.json"
    save_family(fam, path)
    back = load_family(path)
    assert back.kind == "inverted"
    p1 = make_patch(fam)
    p2 = make_patch(back)
    u, v = p1.domain_grid(5, 5)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    assert np.allclose(eval_jet2(p1, uu, vv).P, eval_jet2(p2, uu, vv).P)


# ---------------------------------------------------------------------------
# planar curves from the one-dimensional stationarity analog


def test_euler_curve_radial_start_is_a_line():
    c = euler_planar_curve(2.7, 1.0, 0.4, 1, 1.5, tangent_angle=0.4)
    assert np.max(np.abs(c.kappa)) < 1e-10
    # stays on the ray through the origin
    d = np.array([np.cos(0.4), np.sin(0.4), 0.0])
    proj = c.gamma - np.outer(c.gamma @ d, d)
    assert np.max(np.linalg.norm(proj, axis=1)) < 1e-10


def test_euler_curve_alpha_minus_one_unit_circle():
    c = euler_planar_curve(-1.0, 1.0, 0.0, 1, 2 * np.pi)
    r = np.linalg.norm(c.gamma[:, :2], axis=1)
    assert np.max(np.abs(r - 1.0)) < 1e-6
    assert np.max(np.abs(c.kappa - 1.0)) < 1e-6


def test_euler_curve_cylinder_not_stationary():
    c = euler_planar_curve(2.0, 1.0, 0.0, 1, 2.0)
    patch = build_cylinder_patch(c, (-0.5, 0.5))
    assert sup_residual(patch, 2.0, 16) > 0.05


def test_euler_curve_rejects_bad_input():
    with pytest.raises(ValidationError):
        euler_planar_curve(1.0, -1.0, 0.0, 1, 1.0)
    with pytest.raises(ValidationError):
        euler_planar_curve(1.0, 1.0, 0.0, 2, 1.0)


# ---------------------------------------------------------------------------
# Riemann minimal generator


def test_riemann_drift_zero_is_catenoid():
    spec = riemann_minimal_spec(0.0, 1.0, 1.0)
    u = np.linspace(-1, 1, 41)
    assert np.max(np.abs(spec.r(u) - np.cosh(u))) < 1e-5
    assert np.max(np.abs(spec.a(u))) < 1e-8


def test_riemann_drifted_member_is_minimal():
    patch = riemann_minimal(0.5, 1.0, 1.0)
    assert sup_residual(patch, 0.0, 24) < 1e-6


def test_riemann_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        riemann_minimal_spec(0.0, -1.0, 1.0)
    with pytest.raises(ValidationError):
        riemann_minimal_spec(0.0, 1.0, 0.0)
