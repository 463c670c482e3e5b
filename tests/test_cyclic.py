import json

import numpy as np
import pytest

from alphasurf.cyclic import (
    PLANAR_INIT,
    CyclicSpec,
    build_cyclic,
    cyclic_spec_from_dict,
    cyclic_spec_to_dict,
    frame_from_curvature,
    frenet_A4B4,
    frenet_combination,
    frenet_spec,
    integrate_neg2_family,
    log_spiral_example,
    neg2_eq21,
    neg2_eq22,
    neg2_eq23,
    parallel_A3B3,
    parallel_spec,
    write_solution_csv,
)
from alphasurf.errors import NumericalError, ValidationError
from alphasurf.interp import ScalarFunc
from alphasurf.stationary import fourier_defect, residual_grid
from alphasurf.surface_kernel import eval_jet2

INV_U = ScalarFunc(lambda u: (1.0 / np.asarray(u, float),
                              -1.0 / np.asarray(u, float) ** 2,
                              2.0 / np.asarray(u, float) ** 3))


# ---------------------------------------------------------------------------
# Frenet frames


def test_frame_unit_circle_closes():
    fr = frame_from_curvature(1.0, 0.0, (0.0, 2 * np.pi), PLANAR_INIT)
    assert np.linalg.norm(fr.gamma[-1] - fr.gamma[0]) < 1e-6


def test_frame_log_curvature_turning_angle():
    fr = frame_from_curvature(INV_U, 0.0, (1.0, np.e), PLANAR_INIT)
    t0, t1 = fr.t[0], fr.t[-1]
    angle = np.arccos(np.clip(np.dot(t0, t1), -1, 1))
    assert abs(angle - 1.0) < 1e-6


def test_frame_helix_acceleration():
    fr = frame_from_curvature(1.0, 1.0, (0.0, 4.0), PLANAR_INIT)
    u = np.linspace(0.1, 3.9, 50)
    h = 1e-4
    gpp = (fr.gamma_at(u + h) - 2 * fr.gamma_at(u) + fr.gamma_at(u - h)) / h**2
    assert np.max(np.abs(np.linalg.norm(gpp, axis=1) - 1.0)) < 1e-6


def test_frame_orthonormality_along_orbit():
    fr = frame_from_curvature(INV_U, 0.3, (1.0, 2.5), PLANAR_INIT)
    M = np.stack([fr.t, fr.n, fr.b], axis=1)  # (n, 3, 3)
    eye = np.einsum("nij,nkj->nik", M, M)
    assert np.max(np.abs(eye - np.eye(3))) < 1e-8
    det = np.linalg.det(M)
    assert np.max(np.abs(det - 1.0)) < 1e-8


def test_frame_rejects_nonpositive_kappa():
    with pytest.raises(NumericalError, match=r"kappa\(.+\) = .+ <= 0"):
        frame_from_curvature(ScalarFunc.from_poly([0.5, -1.0]), 0.0,
                             (0.0, 2.0), PLANAR_INIT)


@pytest.mark.parametrize("init", [
    # a zero tangent, as a mutated spec file's init_frame may hold
    (np.zeros(3), np.zeros(3), PLANAR_INIT[2], PLANAR_INIT[3]),
    # a normal parallel to the tangent
    (np.zeros(3), PLANAR_INIT[1], -2.0 * PLANAR_INIT[1], PLANAR_INIT[3]),
    # a binormal in the plane of the other two
    (np.zeros(3), PLANAR_INIT[1], PLANAR_INIT[2], PLANAR_INIT[1] - PLANAR_INIT[2]),
])
def test_frame_refuses_linearly_dependent_initial_vectors(init):
    with pytest.raises(NumericalError, match="frame vectors are linearly dependent"):
        frame_from_curvature(1.0, 0.0, (0.0, 1.0), init)


# ---------------------------------------------------------------------------
# patches


def test_parallel_sphere_profile():
    # a=b=0, r = sqrt(1-u^2) is the unit sphere about 0
    r = ScalarFunc(lambda u: (np.sqrt(1 - np.asarray(u, float) ** 2),
                              -np.asarray(u, float) / np.sqrt(1 - np.asarray(u, float) ** 2),
                              -1.0 / (1 - np.asarray(u, float) ** 2) ** 1.5))
    spec = parallel_spec(0.0, 0.0, r, (-0.9, 0.9))
    patch = build_cyclic(spec)
    assert residual_grid(patch, -2.0, 24, 24).sup_abs < 1e-10


def test_parallel_cylinder_not_stationary():
    spec = parallel_spec(0.0, 0.0, 1.0, (-1.0, 1.0))
    patch = build_cyclic(spec)
    for alpha in (-4.0, -2.0, 2.0):
        assert residual_grid(patch, alpha, 16, 16).sup_abs > 1e-2


def test_frenet_circle_foliation_witness():
    fr = frame_from_curvature(1.0, 0.0, (0.0, 1.0), PLANAR_INIT)
    spec = frenet_spec(fr, 0.0, 0.0, 0.0, 0.8)
    patch = build_cyclic(spec)
    for alpha in (-1.0, 1.0, 3.0):
        assert residual_grid(patch, alpha, 16, 16).sup_abs > 1e-2


def test_spec_validation():
    with pytest.raises(ValidationError, match="unknown cyclic mode 'weird'"):
        CyclicSpec(mode="weird", u_range=(0, 1), r=ScalarFunc.constant(1),
                   a=ScalarFunc.constant(0), b=ScalarFunc.constant(0))
    with pytest.raises(ValidationError, match="radius function must stay positive"):
        build_cyclic(parallel_spec(0.0, 0.0, -1.0, (0.0, 1.0)))


# ---------------------------------------------------------------------------
# closed-form harmonic coefficients


def test_parallel_A3B3_point_values():
    A3, B3 = parallel_A3B3(1.0, 2.0, 0.0, 0.0, 1.0, 2.0, 1.0)  # a=u^2 at u=1
    assert A3 == pytest.approx(-2.0)
    assert B3 == pytest.approx(0.0)
    # rotational and alpha=0 cases vanish
    assert parallel_A3B3(0.7, 0.0, -0.3, 0.0, 1.2, 2.5, 0.4) == (0.0, 0.0)
    assert parallel_A3B3(0.7, 0.5, -0.3, 0.8, 1.2, 0.0, 0.4) == (0.0, 0.0)


def test_parallel_A3B3_matches_fourier():
    rng = np.random.default_rng(100)
    for _ in range(12):
        a = ScalarFunc.from_poly(rng.uniform(-1, 1, 3))
        b = ScalarFunc.from_poly(rng.uniform(-1, 1, 3))
        r = ScalarFunc.from_poly([1.5, rng.uniform(-0.2, 0.2),
                                  rng.uniform(-0.1, 0.1)])
        alpha = float(rng.uniform(-3, 3))
        spec = parallel_spec(a, b, r, (0.5, 1.5))
        patch = build_cyclic(spec)
        u0 = float(rng.uniform(0.6, 1.4))
        fc = fourier_defect(patch, alpha, u0, n_max=3, nv=32)
        av, ap, _ = a.eval2(u0)
        bv, bp, _ = b.eval2(u0)
        rv = float(r(u0))
        A3, B3 = parallel_A3B3(float(av), float(ap), float(bv), float(bp),
                               rv, alpha, u0)
        assert abs(fc.A[3] - A3) < 1e-7
        assert abs(fc.B[3] - B3) < 1e-7


def test_frenet_A4B4_matches_fourier():
    rng = np.random.default_rng(101)
    for _ in range(12):
        k = float(rng.uniform(0.5, 1.5))
        tau = float(rng.uniform(-0.5, 0.5))
        alpha = float(rng.uniform(-3, 3))
        fr = frame_from_curvature(k, tau, (0.0, 0.5), PLANAR_INIT,
                                  max_step=2e-3)
        a, b, c = rng.uniform(-1, 1, 3)
        r = float(rng.uniform(0.5, 1.0))
        spec = frenet_spec(fr, float(a), float(b), float(c), r)
        fc = fourier_defect(build_cyclic(spec), alpha, 0.25, n_max=4, nv=32)
        A4, B4 = frenet_A4B4(a, b, c, 0.0, 0.0, r, k, tau, alpha)
        assert abs(fc.A[4] - A4) < 1e-7
        assert abs(fc.B[4] - B4) < 1e-7


def test_frenet_A4B4_special_cases():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a, b, c, bp, cp = rng.uniform(-2, 2, 5)
        r = float(rng.uniform(0.2, 2.0))
        k = float(rng.uniform(0.2, 2.0))
        tau = float(rng.uniform(-1, 1))
        # the common (alpha+4) factor kills everything at alpha=-4
        assert frenet_A4B4(a, b, c, bp, cp, r, k, tau, -4.0) == (0.0, 0.0)
        # b=c=0 kills both coefficients
        A4, B4 = frenet_A4B4(a, 0.0, 0.0, bp, cp, r, k, tau, 1.3)
        assert A4 == 0.0 and B4 == 0.0


def test_combination_identity_random():
    rng = np.random.default_rng(55)
    for _ in range(25):
        a, b, c, bp, cp = rng.uniform(-2, 2, 5)
        r = float(rng.uniform(0.2, 2.0))
        k = float(rng.uniform(0.2, 2.0))
        tau = float(rng.uniform(-1, 1))
        alpha = float(rng.uniform(-5, 5))
        A4, B4 = frenet_A4B4(a, b, c, bp, cp, r, k, tau, alpha)
        comb = frenet_combination(a, b, c, bp, cp, r, k, tau, alpha)
        scale = max(1.0, abs(A4), abs(B4))
        assert abs(c * A4 - b * B4 - comb) < 1e-7 * scale


def test_band_limits():
    rng = np.random.default_rng(200)
    # parallel mode: no harmonics above n=3
    spec = parallel_spec(ScalarFunc.from_poly(rng.uniform(-1, 1, 3)),
                         ScalarFunc.from_poly(rng.uniform(-1, 1, 3)),
                         ScalarFunc.from_poly([1.4, 0.1, -0.05]), (0.5, 1.5))
    fc = fourier_defect(build_cyclic(spec), 1.1, 1.0, n_max=3, nv=64)
    assert len(fc.A) == 4
    # frenet mode: no harmonics above n=4
    fr = frame_from_curvature(0.8, 0.3, (0.0, 0.5), PLANAR_INIT, max_step=2e-3)
    spec = frenet_spec(fr, 0.3, -0.2, 0.4, 0.6)
    fc = fourier_defect(build_cyclic(spec), -1.2, 0.25, n_max=4, nv=64)
    assert len(fc.A) == 5


# ---------------------------------------------------------------------------
# the exponent -2 family


def test_neg2_family_reproduces_log_spiral():
    spec = integrate_neg2_family(INV_U, 0.0, 0.0, 1.0, 1.0, (1.0, np.e))
    u = np.linspace(1.0, np.e, 101)
    assert np.max(np.abs(spec.r(u) - u)) < 1e-8
    patch = build_cyclic(spec)
    assert residual_grid(patch, -2.0, 24, 24).sup_abs < 1e-6
    # matches the explicit surface pointwise (shared initial frame)
    explicit = log_spiral_example((1.0, np.e))
    uu, vv = np.meshgrid(np.linspace(1.05, 2.6, 9), np.linspace(0, 6, 9),
                         indexing="ij")
    d = np.max(np.abs(eval_jet2(patch, uu, vv).P - eval_jet2(explicit, uu, vv).P))
    assert d < 1e-6


def test_neg2_zero_offset_first_integral():
    # a == 0 orbits satisfy kappa*(r r'' - r'^2) = r r' kappa' and r'/r = m*kappa
    kappa = ScalarFunc.from_poly([1.0, 0.3])
    spec = integrate_neg2_family(kappa, 0.0, 0.0, 1.0, 0.7, (0.5, 1.5))
    u = np.linspace(0.5, 1.5, 41)
    r, rp, rpp = spec.r.eval2(u)
    k, kp, _ = kappa.eval2(u)
    assert np.max(np.abs(spec.a(u))) < 1e-10
    lhs = k * (r * rpp - rp**2)
    rhs = r * rp * kp
    assert np.max(np.abs(lhs - rhs)) < 1e-8
    m = rp / (r * k)
    assert np.max(np.abs(m - m[0])) < 1e-6


def test_neg2_solutions_satisfy_companion_equation():
    # the second defining equation holds along orbits of the reduced system
    spec = integrate_neg2_family(INV_U, 0.2, 0.1, 1.0, 0.5, (1.0, 2.0))
    u = np.linspace(1.0, 2.0, 31)
    a, ap, app = spec.a.eval2(u)
    r, rp, rpp = spec.r.eval2(u)
    k, kp, _ = INV_U.eval2(u)
    e21 = neg2_eq21(a, ap, app, r, rp, rpp, k, kp)
    e22 = neg2_eq22(a, ap, app, r, rp, rpp, k, kp)
    e23 = neg2_eq23(a, ap, app, r, rp, k, kp)
    assert np.max(np.abs(e21)) < 1e-8
    assert np.max(np.abs(e23)) < 1e-8
    assert np.max(np.abs(e22)) < 1e-7


def test_sphere_detection_in_frenet_mode():
    # b=c=0 with a*a' + r*r' == 0 is a sphere centered at 0
    rho = 1.3
    fr = frame_from_curvature(1.0, 0.0, (-0.9, 0.9), PLANAR_INIT)
    # a = sin(u), r = sqrt(rho^2 - a^2) satisfies a*a' + r*r' = 0
    a = ScalarFunc(lambda u: (np.sin(np.asarray(u, float)),
                              np.cos(np.asarray(u, float)),
                              -np.sin(np.asarray(u, float))))
    r = ScalarFunc(lambda u: (
        np.sqrt(rho**2 - np.sin(np.asarray(u, float)) ** 2),
        -np.sin(2 * np.asarray(u, float)) / (2 * np.sqrt(rho**2 - np.sin(np.asarray(u, float)) ** 2)),
        (-np.cos(2 * np.asarray(u, float)) * (rho**2 - np.sin(np.asarray(u, float)) ** 2)
         - np.sin(2 * np.asarray(u, float)) ** 2 / 4) / (rho**2 - np.sin(np.asarray(u, float)) ** 2) ** 1.5,
    ))
    u = np.linspace(-0.8, 0.8, 21)
    av, ap, _ = a.eval2(u)
    rv, rp, _ = r.eval2(u)
    assert np.max(np.abs(av * ap + rv * rp)) < 1e-12
    spec = frenet_spec(fr, a, 0.0, 0.0, r, (-0.8, 0.8))
    patch = build_cyclic(spec)
    uu, vv = np.meshgrid(u, np.linspace(0, 6, 13), indexing="ij")
    p2 = np.einsum("...i,...i->...", eval_jet2(patch, uu, vv).P,
                   eval_jet2(patch, uu, vv).P)
    assert np.max(np.abs(p2 - rho**2)) < 1e-10
    assert residual_grid(patch, -2.0, 16, 16).sup_abs < 1e-8


def test_log_spiral_properties():
    patch = log_spiral_example((1.0, 3.0))
    assert residual_grid(patch, -2.0, 32, 32).sup_abs < 1e-8
    u = np.linspace(1.1, 2.9, 11)
    uu, vv = np.meshgrid(u, np.linspace(0, 6, 17), indexing="ij")
    P = eval_jet2(patch, uu, vv).P
    p2 = np.einsum("...i,...i->...", P, P)
    assert np.max(np.abs(p2 - uu**2)) < 1e-10
    with pytest.raises(ValidationError):
        log_spiral_example((-1.0, 2.0))


def test_spec_serialization_round_trip(tmp_path):
    spec = integrate_neg2_family(INV_U, 0.1, 0.0, 1.0, 0.8, (1.0, 1.8))
    d = cyclic_spec_to_dict(spec)
    text = json.dumps(d)
    back = cyclic_spec_from_dict(json.loads(text))
    p1 = build_cyclic(spec)
    p2 = build_cyclic(back)
    uu, vv = np.meshgrid(np.linspace(1.05, 1.75, 7), np.linspace(0, 6, 7),
                         indexing="ij")
    assert np.max(np.abs(eval_jet2(p1, uu, vv).P - eval_jet2(p2, uu, vv).P)) < 1e-9
    csv_path = tmp_path / "sol.csv"
    write_solution_csv(spec, csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "u,a,r,kappa"
