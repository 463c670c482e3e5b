import numpy as np
import pytest

from alphasurf.catalog import (
    catenoid_patch,
    helicoid_patch,
    plane_patch,
    riemann_minimal,
    sphere_patch,
)
from alphasurf.cyclic import PLANAR_INIT, build_cyclic, frame_from_curvature, frenet_spec
from alphasurf.errors import NumericalError
from alphasurf.inversion import (
    fit_circle_or_line,
    invert_patch,
    invert_point,
    shifted_alpha,
    verify_shift,
)
from alphasurf.stationary import residual_grid
from alphasurf.surface_kernel import eval_jet2, fd_jet2


def test_invert_point_basics():
    assert np.allclose(invert_point([2.0, 0.0, 0.0]), [0.5, 0.0, 0.0])
    p = np.array([1.0, 2.0, 3.0])
    assert np.max(np.abs(invert_point(invert_point(p)) - p)) < 1e-14
    with pytest.raises(NumericalError, match="of the origin during inversion"):
        invert_point([0.0, 0.0, 0.0])


def test_sphere_through_origin_maps_to_plane():
    # sphere center (0,0,1), radius 1 -> plane z = 1/2
    patch = sphere_patch((0, 0, 1), 1.0)
    u, v = patch.domain_grid(5, 4, margin=0.2)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    img = invert_point(eval_jet2(patch, uu, vv).P.reshape(-1, 3))
    assert np.max(np.abs(img[:, 2] - 0.5)) < 1e-12
    assert np.allclose(invert_point([0.0, 0.0, 2.0]), [0, 0, 0.5])
    assert np.allclose(invert_point([1.0, 0.0, 1.0]), [0.5, 0, 0.5])


def test_inverted_jets_match_finite_differences():
    inv = invert_patch(catenoid_patch(1.0, center=(0, 0, 1.2)))
    u, v = inv.domain_grid(4, 4, margin=0.1)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    aj = eval_jet2(inv, uu, vv)
    fj = fd_jet2(inv, uu, vv, 1e-4)
    for name in ("Pu", "Pv", "Puu", "Puv", "Pvv"):
        assert np.max(np.abs(getattr(aj, name) - getattr(fj, name))) < 1e-5


def test_involution_pointwise_and_residual():
    patch = sphere_patch((0, 0, 1), 1.0)
    twice = invert_patch(invert_patch(patch))
    u, v = patch.domain_grid(9, 9)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    d = np.max(np.abs(eval_jet2(patch, uu, vv).P - eval_jet2(twice, uu, vv).P))
    assert d < 1e-12
    r1 = residual_grid(patch, -4.0, 16, 16).sup_abs
    r2 = residual_grid(twice, -4.0, 16, 16).sup_abs
    assert abs(r1 - r2) < 1e-9


def test_shift_pairs_from_catalog():
    pairs = [
        (helicoid_patch(1.0), 0.0),
        (catenoid_patch(1.0), 0.0),
        (sphere_patch((0, 0, 0), 1.0), -2.0),
        (sphere_patch((0, 0, 1), 1.0), -4.0),
        (plane_patch((0.2, 0.5, 1.0)), 1.5),
    ]
    for patch, alpha in pairs:
        before, after = verify_shift(patch, alpha, 24, 24)
        assert before.sup_abs < 1e-7, patch.label
        assert after.sup_abs < 1e-7, patch.label


def test_shift_fixed_point_is_minus_two():
    # the unit sphere about 0 is its own inverse image, so the shifted
    # exponent of -2 must again be -2
    assert shifted_alpha(-2.0) == -2.0
    assert shifted_alpha(0.0) == -4.0
    assert shifted_alpha(-4.0) == 0.0


def test_inverted_minimal_surfaces_at_minus_four():
    for patch in (helicoid_patch(1.0), catenoid_patch(1.0, center=(0, 0, 1.5))):
        inv = invert_patch(patch)
        assert residual_grid(inv, -4.0, 24, 24).sup_abs < 1e-8
    inv = invert_patch(riemann_minimal(0.5, 1.0, 1.0))
    assert residual_grid(inv, -4.0, 24, 24).sup_abs < 1e-6


def test_shift_preserves_non_stationarity():
    # a torus is not stationary for alpha=1, and neither is its image at -5
    R, rho = 2.0, 0.7
    frame = frame_from_curvature(1.0 / R, 0.0, (0.0, 2 * np.pi * R),
                                 PLANAR_INIT, max_step=2e-3)
    torus = build_cyclic(frenet_spec(frame, 0.0, -R, 0.0, rho,
                                     u_periodic=True))
    before, after = verify_shift(torus, 1.0, 16, 16)
    assert before.sup_abs > 1e-2
    assert after.sup_abs > 1e-2


def test_circle_line_transport():
    # circle through 0 -> line (offset samples avoid the origin itself)
    th = 2 * np.pi * (np.arange(40) + 0.5) / 40
    circle = np.stack([1 + np.cos(th), np.sin(th), np.zeros_like(th)], -1)
    fit = fit_circle_or_line(invert_point(circle))
    assert fit["type"] == "line" and fit["deviation"] < 1e-10
    # generic circle -> circle
    circle = np.stack([3 + np.cos(th), np.sin(th), 1 + 0 * th], -1)
    fit = fit_circle_or_line(invert_point(circle))
    assert fit["type"] == "circle" and fit["deviation"] < 1e-10
    # line through 0 -> same line setwise
    t = np.linspace(0.2, 3.0, 25)
    d = np.array([1.0, 2.0, -1.0]) / np.sqrt(6)
    line = np.outer(t, d)
    img = invert_point(line)
    fit = fit_circle_or_line(img)
    assert fit["type"] == "line" and fit["deviation"] < 1e-10
    assert abs(abs(np.dot(fit["direction"], d)) - 1.0) < 1e-10
    # generic line -> circle through 0
    line = np.outer(t, d) + np.array([0.0, 0.0, 1.0])
    fit = fit_circle_or_line(invert_point(line))
    assert fit["type"] == "circle"
    assert abs(np.linalg.norm(fit["center"]) - fit["radius"]) < 1e-8
