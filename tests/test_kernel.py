from dataclasses import fields

import numpy as np
import pytest

from alphasurf.catalog import (
    FAMILIES,
    FamilySpec,
    catenoid_patch,
    helicoid_patch,
    make_patch,
    plane_patch,
    riemann_minimal_spec,
    sphere_patch,
)
from alphasurf.cyclic import (
    PLANAR_INIT,
    build_cyclic,
    frame_from_curvature,
    frenet_spec,
    integrate_neg2_family,
)
from alphasurf.errors import NumericalError, ValidationError
from alphasurf.inversion import invert_jet, invert_patch
from alphasurf.ruled import random_ruled_spec
from alphasurf.surface_kernel import (
    Jet2,
    ParametricPatch,
    _cross,
    _dot,
    eval_jet2,
    fd_jet2,
    fundamental_data,
    rotated,
    scaled,
    swapped_uv,
    translated,
)


def grid(patch, n=7):
    u, v = patch.domain_grid(n, n)
    return np.meshgrid(u, v, indexing="ij")


def test_sphere_mean_curvature_magnitude():
    for R in (0.5, 1.0, 3.0):
        patch = sphere_patch((0, 0, 0), R)
        uu, vv = grid(patch)
        fd = fundamental_data(eval_jet2(patch, uu, vv))
        assert np.max(np.abs(np.abs(fd.H) - 2.0 / R)) < 1e-12


def test_sphere_normal_is_radial():
    patch = sphere_patch((0, 0, 0), 1.0)
    uu, vv = grid(patch)
    jet = eval_jet2(patch, uu, vv)
    fd = fundamental_data(jet)
    # outward normal: N parallel to P with positive inner product
    assert np.min(np.einsum("...i,...i->...", fd.normal, jet.P)) > 0.999999


def test_catenoid_is_minimal_pointwise():
    patch = catenoid_patch(1.0)
    uu, vv = grid(patch, 9)
    fd = fundamental_data(eval_jet2(patch, uu, vv))
    assert np.max(np.abs(fd.H)) < 1e-13


def test_analytic_jets_match_finite_differences():
    for patch in (sphere_patch((0.3, -0.2, 0.5), 1.2), helicoid_patch(0.7),
                  catenoid_patch(0.8)):
        u, v = patch.domain_grid(5, 5, margin=0.05)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        aj = eval_jet2(patch, uu, vv)
        fj = fd_jet2(patch, uu, vv, 1e-4)
        for name in ("Pu", "Pv", "Puu", "Puv", "Pvv"):
            diff = np.max(np.abs(getattr(aj, name) - getattr(fj, name)))
            assert diff < 5e-6, (patch.label, name, diff)


def test_domain_check_raises_outside():
    patch = catenoid_patch(1.0)
    with pytest.raises(ValidationError, match=r"u=10\.0 outside \[-1\.5, 1\.5\]"):
        eval_jet2(patch, np.array([10.0]), np.array([0.0]))
    # periodic v wraps instead of raising
    a = eval_jet2(patch, np.array([0.0]), np.array([0.1])).P
    b = eval_jet2(patch, np.array([0.0]), np.array([0.1 + 2 * np.pi])).P
    assert np.allclose(a, b)


def test_domain_errors_name_the_axis_and_the_offender():
    patch = catenoid_patch(1.0)
    # -1.5 - 1e-12 is inside the slack; -3.0 is the value outside it
    with pytest.raises(ValidationError, match="u=-3.0 outside") as err:
        eval_jet2(patch, [-1.5 - 1e-12, -3.0], [0.1, 0.1])
    assert str(err.value) == "u=-3.0 outside [-1.5, 1.5] for patch 'catenoid(waist=1.0)'"
    with pytest.raises(ValidationError, match="v=2.5 outside") as err:
        eval_jet2(helicoid_patch(0.7), [1.0], [2.5])
    assert str(err.value).startswith("v=2.5 outside [-2.0, 2.0] for patch ")
    # a stencil point past the edge is refused by eval_jet2, which names it
    for stencil_patch, u, v, where in ((patch, 1.4999, 0.1, "u=1.5009"),
                                       (helicoid_patch(0.7), 1.0, 1.9999, "v=2.0009")):
        with pytest.raises(ValidationError, match=f"{where} outside") as err:
            fd_jet2(stencil_patch, u, v, 1e-3)
        lo, hi = stencil_patch.u_range if where[0] == "u" else stencil_patch.v_range
        assert str(err.value) == (f"{where} outside [{lo}, {hi}] "
                                  f"for patch {stencil_patch.label!r}")


def test_fd_jet2_accepts_a_stencil_that_stays_inside_the_domain():
    # u +- h reaches 1.4995 < 1.5: every stencil point lies in the domain
    patch = catenoid_patch(1.0)
    aj = eval_jet2(patch, 1.4985, 0.1)
    fj = fd_jet2(patch, 1.4985, 0.1, 1e-3)
    for name in ("Pu", "Pv", "Puu", "Puv", "Pvv"):
        diff = np.max(np.abs(getattr(aj, name) - getattr(fj, name)))
        assert diff < 5e-6, (name, diff)


def test_degenerate_parametrization_detected():
    def ev(u, v):
        # Pu and Pv parallel: rank-1 map
        d = np.stack([np.ones_like(u), np.zeros_like(u), np.zeros_like(u)], -1)
        z = np.zeros_like(d)
        P = (u + v)[..., None] * d
        return Jet2(P, d, d, z, z, z)

    patch = ParametricPatch(ev, (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(NumericalError, match=r"EG - F\^2 = .+ <= 0 at a sampled point"):
        fundamental_data(eval_jet2(patch, np.array([0.5]), np.array([0.5])))


def test_transforms_behave():
    patch = sphere_patch((0, 0, 0), 1.0)
    uu, vv = grid(patch)
    base = fundamental_data(eval_jet2(patch, uu, vv))

    lam = 2.5
    sc = fundamental_data(eval_jet2(scaled(patch, lam), uu, vv))
    assert np.allclose(sc.H, base.H / lam)

    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th), 0],
                  [np.sin(th), np.cos(th), 0], [0, 0, 1.0]])
    ro = fundamental_data(eval_jet2(rotated(patch, R), uu, vv))
    assert np.allclose(ro.H, base.H)
    assert np.allclose(ro.normal, base.normal @ R.T)

    tr = fundamental_data(eval_jet2(translated(patch, (1, 2, 3)), uu, vv))
    assert np.allclose(tr.H, base.H)

    sw = swapped_uv(patch)
    swf = fundamental_data(eval_jet2(sw, vv, uu))
    # orientation flip negates H
    assert np.allclose(swf.H, -base.H)


def _closure_transforms(patch, lam, R, vec):
    """The hand-written evaluator closures of each transform, as the oracle
    of the jet map that replaced them: (transform, closure, label)."""

    def sc(u, v):
        j = patch.evaluator(u, v)
        return Jet2(*(lam * x for x in (j.P, j.Pu, j.Pv, j.Puu, j.Puv, j.Pvv)))

    def ro(u, v):
        return patch.evaluator(u, v).map_linear(R)

    def tr(u, v):
        j = patch.evaluator(u, v)
        return Jet2(j.P + vec, j.Pu, j.Pv, j.Puu, j.Puv, j.Pvv)

    def inv(u, v):
        return invert_jet(patch.evaluator(u, v))

    return [(scaled(patch, lam), sc, f"scaled({lam})*{patch.label}"),
            (rotated(patch, R), ro, f"rotated*{patch.label}"),
            (translated(patch, vec), tr, f"translated*{patch.label}"),
            (invert_patch(patch), inv, f"inverted*{patch.label}")]


def test_transforms_equal_their_closures_and_keep_the_patch_fields():
    frame = frame_from_curvature(0.5, 0.0, (0.0, 4 * np.pi), PLANAR_INIT,
                                 max_step=2e-3)
    torus = build_cyclic(frenet_spec(frame, 0.0, -2.0, 0.0, 0.7, u_periodic=True))
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th), 0],
                  [np.sin(th), np.cos(th), 0], [0, 0, 1.0]])
    for patch in (sphere_patch((0.3, 0, 0), 1.5), torus):
        assert patch.u_collapse == (True, True) or patch.u_periodic
        uu, vv = grid(patch)
        for new, closure, label in _closure_transforms(
                patch, 2.5, R, np.array([1.0, 2.0, 3.0])):
            assert new.label == label
            got, want = new.evaluator(uu, vv), closure(uu, vv)
            for f in fields(Jet2):
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), \
                    (label, f.name)
            for f in fields(ParametricPatch):
                if f.name not in ("evaluator", "label"):
                    assert getattr(new, f.name) == getattr(patch, f.name), \
                        (label, f.name)


def _patch_of_every_kind():
    """One patch of each catalog family kind, then each transform of a sphere."""
    params = {
        "sphere": {"center": (0.1, -0.2, 0.05), "radius": 1.2},
        "cylinder_over_curve": {"directrix": {"type": "euler", "alpha": -1.0, "r0": 1.0}},
        "ruled_generic": {"spec": random_ruled_spec(np.random.default_rng(0))},
        "parallel_cyclic": {"spec": riemann_minimal_spec(0.3, 1.0, 0.8)},
        "frenet_cyclic": {"spec": integrate_neg2_family(
            lambda u: 1.0 / u, 0.0, 0.0, 1.0, 0.7, (0.5, 1.5))},
        "inverted": {"inner": FamilySpec("catenoid")},
        "riemann_minimal": {"span": 0.5},
    }
    patches = {kind: make_patch(FamilySpec(kind, params.get(kind, {})))
               for kind in FAMILIES}
    sphere = patches["sphere"]
    return {**patches,
            "translated": translated(sphere, (1.0, 2.0, 3.0)),
            "rotated": rotated(sphere, [[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0, 0, 1.0]]),
            "scaled": scaled(sphere, 2.5),
            "swapped_uv": swapped_uv(sphere),
            "invert_patch": invert_patch(sphere)}


def test_evaluators_take_axes_that_broadcast():
    # a grid's u (nu, 1) and v (nv,) give whole (nu, nv, 3) fields, with the
    # bits of the same grid passed as two full copies
    for name, patch in _patch_of_every_kind().items():
        u, v = patch.domain_grid(5, 7)
        got = patch.evaluator(u[:, None], v)
        want = patch.evaluator(*(np.array(x) for x in np.broadcast_arrays(u[:, None], v)))
        for f in fields(Jet2):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.shape == (5, 7, 3), (name, f.name, a.shape)
            assert a.tobytes() == b.tobytes(), (name, f.name)


def test_domain_grid_periodic_uses_midpoints():
    patch = sphere_patch((0, 0, 0), 1.0)
    u, v = patch.domain_grid(4, 8)
    assert len(v) == 8
    # midpoint samples never hit the seam
    assert np.min(v) > 0.0 and np.max(v) < 2 * np.pi
    assert u[0] > 0.0 and u[-1] < np.pi


@pytest.mark.parametrize("a_shape, b_shape", [
    ((3,), (3,)), ((40, 3), (40, 3)), ((5, 8, 3), (5, 8, 3)),
    ((3,), (40, 3)), ((3, 1, 16, 3), (2, 16, 3)),
])
def test_cross_has_the_bits_of_numpy_cross(a_shape, b_shape):
    rng = np.random.default_rng(7)
    # half the entries are signed zeros, infinities or NaN
    special = [0.0, -0.0, np.inf, -np.inf, np.nan]
    scales = [1e-300, 1e-3, 1.0, 1e3, 1e300]
    pool = np.concatenate([special, rng.standard_normal(5) * scales])
    a, b = (rng.choice(pool, shape) for shape in (a_shape, b_shape))
    with np.errstate(all="ignore"):
        want = np.cross(a, b)
        assert _cross(a, b).tobytes() == want.tobytes()
        out = np.empty_like(want)
        assert _cross(a, b, out) is out and out.tobytes() == want.tobytes()


@pytest.mark.parametrize("a_shape, b_shape", [
    ((3,), (3,)), ((20_000, 3), (20_000, 3)), ((5, 8, 3), (5, 8, 3)),
    ((3,), (40, 3)), ((3, 1, 16, 3), (2, 16, 3)),
])
def test_dot_is_the_written_sum_in_any_layout(a_shape, b_shape):
    # magnitudes over six decades, so the order of the additions shows in
    # the last bit of about a third of the rows
    rng = np.random.default_rng(11)
    a, b = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
            for shape in (a_shape, b_shape))
    x, y, z = (a[..., i] * b[..., i] for i in range(3))
    want = np.asarray(((x + z) + y) + 0.0)
    assert np.asarray(_dot(a, b)).tobytes() == want.tobytes()
    # the same vectors as (..., 3) views of component-major (3, ...) buffers
    a_v, b_v = (np.moveaxis(np.moveaxis(v, -1, 0).copy(), 0, -1) for v in (a, b))
    assert np.array_equal(a_v, a) and np.array_equal(b_v, b)
    for p, q in ((a_v, b_v), (a_v, b), (a, b_v)):
        assert np.asarray(_dot(p, q)).tobytes() == want.tobytes()


def test_dot_has_the_bits_of_einsum_on_contiguous_rows():
    # the outputs were recorded through einsum; half the entries are signed
    # zeros or infinities, so sums of three -0.0 occur (einsum gives 0.0)
    rng = np.random.default_rng(12)
    pool = np.concatenate([[0.0, -0.0, np.inf, -np.inf],
                           rng.standard_normal(4) * [1e-300, 1e-3, 1e3, 1e300]])
    a, b = rng.choice(pool, (20_000, 3)), rng.choice(pool, (20_000, 3))
    with np.errstate(all="ignore"):
        want, got = np.einsum("...i,...i->...", a, b), _dot(a.T.copy().T, b)
    ok = ~np.isnan(want)
    assert np.array_equal(np.isnan(got), ~ok) and np.count_nonzero(want == 0.0) > 100
    assert got[ok].tobytes() == want[ok].tobytes()
