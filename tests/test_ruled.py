import numpy as np
import pytest

from alphasurf.catalog import _plane_basis, euler_planar_curve, plane_patch
from alphasurf.errors import ValidationError
from alphasurf.interp import Curve3
from alphasurf.ruled import (
    PlanarCurve,
    RuledSpec,
    adapted_coords,
    build_cylinder_patch,
    build_ruled_patch,
    cylinder_check,
    equator_beta,
    latitude_beta,
    normalize_beta,
    random_ruled_spec,
    ruled_coeffs,
    striction_line,
    trig_poly_curve,
)
from alphasurf.stationary import _defect_from_jet, weighted_defect
from alphasurf.surface_kernel import Jet2, ParametricPatch, _cross, _dot, fundamental_data

E3 = np.array([0.0, 0.0, 1.0])


def vertical_line_curve():
    return Curve3(lambda s: (np.multiply.outer(np.asarray(s, float), E3),
                             np.broadcast_to(E3, np.shape(s) + (3,)).copy(),
                             np.zeros(np.shape(s) + (3,))))


def helicoid_spec():
    return RuledSpec(gamma=vertical_line_curve(), beta=equator_beta(),
                     s_range=(0.0, 2 * np.pi))


def test_striction_refuses_a_constant_ruling():
    # a non-cylindrical spec whose ruling never turns: beta' = 0 everywhere
    spec = RuledSpec(gamma=vertical_line_curve(),
                     beta=Curve3.constant([1.0, 0.0, 0.0]), s_range=(0.0, 1.0))
    with pytest.raises(ValidationError, match="ruling direction has a stationary point"):
        striction_line(spec)


def test_polynomial_identity_random_specs():
    rng = np.random.default_rng(2024)
    for _ in range(8):
        spec = random_ruled_spec(rng)
        alpha = float(rng.uniform(-3, 3))
        s = rng.uniform(*spec.s_range, 10)
        t = rng.uniform(-3, 3, 10)
        A = ruled_coeffs(spec, alpha, s)
        patch = build_ruled_patch(spec, (-3.5, 3.5))
        D = weighted_defect(patch, alpha, s, t)
        P = sum(A[:, n] * t**n for n in range(5))
        assert np.max(np.abs(D - P)) < 1e-7


def test_A4_great_circle_and_latitude():
    s = np.linspace(0.2, 6.0, 11)
    A = ruled_coeffs(helicoid_spec(), 1.0, s)
    assert np.max(np.abs(A[:, 4])) < 1e-12
    h = 0.6
    rho = np.sqrt(1 - h * h)
    lat = RuledSpec(gamma=vertical_line_curve(), beta=latitude_beta(h),
                    s_range=(0.0, 2 * np.pi))
    A = ruled_coeffs(lat, 0.0, s, check=False)
    assert np.allclose(A[:, 4], -h * rho**2)


def _triple_product_coeffs(spec, alpha, s):
    """ruled_coeffs written with one cross product per triple product."""
    def triple(a, b, c):
        return _dot(_cross(a, b), c)

    g, gp, gpp = spec.gamma.eval2(s)
    b, bp, bpp = spec.beta.eval2(s)
    gp2, S2 = _dot(gp, gp), _dot(bp, bp)
    R0 = triple(gp, b, gpp) - 2.0 * _dot(gp, b) * triple(gp, b, bp)
    R1 = triple(gp, b, bpp) + triple(bp, b, gpp)
    R2 = triple(bp, b, bpp)
    q1, q0 = 2.0 * _dot(g, b), _dot(g, g)
    T0, T1 = triple(gp, b, g), triple(bp, b, g)
    S0 = gp2 - _dot(gp, b) ** 2
    return np.stack((q0 * R0 - alpha * T0 * S0,
                     q1 * R0 + q0 * R1 - alpha * T1 * S0,
                     R0 + q1 * R1 + q0 * R2 - alpha * T0 * S2,
                     R1 + q1 * R2 - alpha * T1 * S2, R2), axis=-1)


def test_coeffs_bit_equal_to_the_triple_product_form():
    lat = RuledSpec(gamma=vertical_line_curve(), beta=latitude_beta(0.6),
                    s_range=(0.0, 2 * np.pi))
    specs = [(helicoid_spec(), True), (lat, False)]
    specs += [(random_ruled_spec(np.random.default_rng(i)), True) for i in range(4)]
    s = np.linspace(0.0, 2 * np.pi, 257)
    for spec, check in specs:
        for alpha in (0.0, 1.0, -2.5):
            got = ruled_coeffs(spec, alpha, s, check=check)
            want = _triple_product_coeffs(spec, alpha, s)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_helicoid_minimal_zeroes_all_coeffs():
    s = np.linspace(0.1, 6.0, 13)
    A = ruled_coeffs(helicoid_spec(), 0.0, s)
    assert np.max(np.abs(A)) < 1e-12


def test_vector_plane_degenerate_case():
    # line through 0 inside the plane of the ruling circle
    gamma = trig_poly_curve([0, 0, 0], [[0, 0, 0]], [[0, 0, 0]])
    gamma = Curve3(lambda s: (np.stack([np.asarray(s, float),
                                        np.zeros(np.shape(s)),
                                        np.zeros(np.shape(s))], -1),
                              np.stack([np.ones(np.shape(s)),
                                        np.zeros(np.shape(s)),
                                        np.zeros(np.shape(s))], -1),
                              np.zeros(np.shape(s) + (3,))))
    spec = RuledSpec(gamma=gamma, beta=equator_beta(), s_range=(0.0, 2 * np.pi))
    s = np.linspace(0.0, 2 * np.pi, 17)
    A = ruled_coeffs(spec, 1.7, s, check=False)
    assert np.max(np.abs(A)) < 1e-12


def test_striction_examples():
    # already-striction data is unchanged up to parametrization
    out = striction_line(helicoid_spec())
    s = np.linspace(*out.s_range, 33)
    g = out.gamma(s)
    assert np.max(np.abs(g[:, :2])) < 1e-8

    # shifted directrix gets pulled back to the axis
    eq = equator_beta()
    shifted = Curve3(lambda s: (
        np.multiply.outer(np.asarray(s, float), E3) + eq(s),
        np.broadcast_to(E3, np.shape(s) + (3,)).copy() + eq.eval2(s)[1],
        eq.eval2(s)[2]))
    out = striction_line(RuledSpec(gamma=shifted, beta=eq,
                                   s_range=(0.0, 2 * np.pi)))
    s = np.linspace(*out.s_range, 33)
    g, gp, _ = out.gamma.eval2(s)
    _, bp, _ = out.beta.eval2(s)
    assert np.max(np.abs(g[:, :2])) < 1e-8
    assert np.max(np.abs(np.einsum("ij,ij->i", gp, bp))) < 1e-8
    assert np.max(np.abs(np.linalg.norm(gp, axis=1) - 1.0)) < 1e-8


def test_striction_random_property():
    rng = np.random.default_rng(99)
    for _ in range(5):
        spec = random_ruled_spec(rng)
        s = np.linspace(*spec.s_range, 64)
        _, gp, _ = spec.gamma.eval2(s)
        _, bp, _ = spec.beta.eval2(s)
        assert np.max(np.abs(np.einsum("ij,ij->i", gp, bp))) < 1e-8


def test_striction_refuses_cylindrical():
    spec = RuledSpec(gamma=vertical_line_curve(),
                     beta=Curve3(lambda s: (np.broadcast_to([1.0, 0, 0], np.shape(s) + (3,)).copy(),
                                            np.zeros(np.shape(s) + (3,)),
                                            np.zeros(np.shape(s) + (3,)))),
                     s_range=(0.0, 1.0), cylindrical=True)
    with pytest.raises(ValidationError, match="striction line undefined for cylindrical"):
        striction_line(spec)


def test_theorem1_witness_sample():
    # no random non-planar spec annihilates every coefficient
    rng = np.random.default_rng(7)
    for _ in range(10):
        spec = random_ruled_spec(rng)
        s = np.linspace(*spec.s_range, 48)
        for alpha in (-2.0, 1.0, 2.0):
            A = ruled_coeffs(spec, alpha, s)
            assert np.max(np.abs(A)) >= 1e-3


# ---------------------------------------------------------------------------
# cylinders over planar directrices


def test_cylinder_check_circle_values():
    c = PlanarCurve.circle((2.0, 0.0), 1.0)
    C2, C0 = cylinder_check(c, -2.0)
    i = int(np.argmin(np.abs(c.s)))  # gamma = (3, 0)
    assert C2[i] == pytest.approx(1.0)
    assert C0[i] == pytest.approx(3.0)


def test_cylinder_check_line_through_origin_vanishes():
    for alpha in (-2.0, 0.5, 3.0):
        ln = PlanarCurve.line((0.0, 0.0), (1.0, 2.0))
        C2, C0 = cylinder_check(ln, alpha)
        assert np.max(np.abs(C2)) == 0.0
        assert np.max(np.abs(C0)) < 1e-12


def test_cylinder_check_offset_line_nonzero():
    ln = PlanarCurve.line((0.0, 1.0), (1.0, 0.0))
    C2, C0 = cylinder_check(ln, 1.0)
    assert np.max(np.abs(C2)) == 0.0
    assert np.min(np.abs(C0)) > 0.5


def test_planarity_guard():
    s = np.linspace(0, 1, 50)
    helix = np.stack([np.cos(s), np.sin(s), 0.3 * s], -1)
    with pytest.raises(ValidationError, match="curve deviates from a plane by"):
        PlanarCurve.from_space_samples(s, helix)


# ---------------------------------------------------------------------------
# planes and cylinders are ruled specs: the hand-written jets they had before,
# kept verbatim as oracles


def oracle_plane_patch(normal, offset=0.0, extent=2.0) -> ParametricPatch:
    """Plane with the given unit normal at signed distance ``offset`` from 0."""
    n, e1, e2 = _plane_basis(normal)
    base = float(offset) * n
    label = "vector-plane" if offset == 0.0 else f"affine-plane(d={offset})"

    def ev(u, v):
        zeros = np.zeros(np.shape(u) + (3,))
        P = base + u[..., None] * e1 + v[..., None] * e2
        return Jet2(P=P,
                    Pu=np.broadcast_to(e1, P.shape).copy(),
                    Pv=np.broadcast_to(e2, P.shape).copy(),
                    Puu=zeros, Puv=zeros.copy(), Pvv=zeros.copy())

    return ParametricPatch(evaluator=ev, u_range=(-extent, extent),
                           v_range=(-extent, extent), label=label)


def oracle_cylinder_patch(curve: PlanarCurve, t_range) -> ParametricPatch:
    """Cylinder over a planar directrix, ruled by w = -(plane normal).

    The sign choice makes the patch normal equal the curve normal, so
    H = kappa pointwise.
    """
    g = curve.curve3()
    w = -curve.plane_normal

    def ev(s, t):
        p, gp, gpp = g.eval2(s)
        zeros = np.zeros_like(p)
        return Jet2(P=p + t[..., None] * w,
                    Pu=gp, Pv=np.broadcast_to(w, p.shape).copy(),
                    Puu=gpp, Puv=zeros, Pvv=zeros)

    return ParametricPatch(
        evaluator=ev,
        u_range=(float(curve.s[0]), float(curve.s[-1])),
        v_range=(float(t_range[0]), float(t_range[1])),
        label="cylinder")


# both signs of t, and t = 0 with both signs of zero
RULING_T = np.array([-1.0, -0.25, -1e-300, -0.0, 0.0, 1e-300, 0.25, 1.0])
JET_FIELDS = ("P", "Pu", "Pv", "Puu", "Puv", "Pvv")


def _same_patch(old, new):
    assert (new.label, new.u_range, new.v_range, new.u_periodic, new.v_periodic,
            new.u_collapse) == (old.label, old.u_range, old.v_range, old.u_periodic,
                                old.v_periodic, old.u_collapse)


def test_plane_jet_bit_equal_to_the_hand_written_one():
    normals = [(-0.0, 0.0, 1.0), (0.0, -0.0, -1.0), (-0.0, -0.0, -1.0),
               (1.0, -0.0, -0.0), (-1.0, 0.0, -0.0), (-0.0, 1.0, -0.0),
               (0.3, -0.2, 1.0), (0.5, -0.5, -0.5)]
    u, t = np.meshgrid([-2.0, -0.75, -0.0, 0.0, 0.5, 2.0], RULING_T, indexing="ij")
    for normal in normals:
        for offset in (0.0, -0.0, 0.5, -0.5, 3):
            old, new = oracle_plane_patch(normal, offset), plane_patch(normal, offset)
            _same_patch(old, new)
            jo, jn = old.evaluator(u, t), new.evaluator(u, t)
            for f in JET_FIELDS:
                assert getattr(jn, f).tobytes() == getattr(jo, f).tobytes(), (normal, offset, f)


CYLINDER_DIRECTRICES = [
    PlanarCurve.line((0.5, 1.0), (-1.0, -0.0)),
    PlanarCurve.line((-0.0, -0.0), (-0.0, 1.0)),
    PlanarCurve.line((0.5, -0.0), (-1.0, -0.0)),
    PlanarCurve.circle((0.3, -0.0), 1.0),
    PlanarCurve.circle((-0.0, -0.0), 2.0),
    euler_planar_curve(-1.0, 1.0, 0.3, 1, 1.0),
    # alpha = 0 keeps kappa = +-0, so gamma'' holds zeros of both signs
    euler_planar_curve(0.0, 1.0, -0.0, 1, 1.0),
    euler_planar_curve(0.0, 1.0, 0.3, -1, 1.0, tangent_angle=0.3),
]


@pytest.mark.parametrize("curve", CYLINDER_DIRECTRICES)
def test_cylinder_jet_bit_equal_to_the_hand_written_one(curve):
    old = oracle_cylinder_patch(curve, (-1, 1))
    new = build_cylinder_patch(curve, (-1, 1))
    _same_patch(old, new)
    # every directrix node, and points between nodes
    s = np.concatenate([curve.s, 0.5 * (curve.s[:-1] + curve.s[1:])])
    s, t = np.meshgrid(s, RULING_T, indexing="ij")
    jo, jn = old.evaluator(s, t), new.evaluator(s, t)
    for f in ("P", "Pv", "Puv", "Pvv"):
        assert getattr(jn, f).tobytes() == getattr(jo, f).tobytes(), f
    # Pu and Puu are gamma' + t*0 and gamma'' + t*0: where gamma' or gamma''
    # is -0.0 (the circle's first tangent, -sin 0) and t is not negative,
    # the sum is +0.0, and only that bit differs
    t_nonneg = ~np.signbit(t)[..., None]
    for f in ("Pu", "Puu"):
        x = getattr(jo, f)
        want = np.where((x == 0.0) & t_nonneg, 0.0, x)
        assert getattr(jn, f).tobytes() == want.tobytes(), f
    # so everything computed from the jet, which reads Pu and Puu only
    # through sums of products, keeps its bits
    fo, fn = fundamental_data(jo), fundamental_data(jn)
    assert fn.H.tobytes() == fo.H.tobytes() and fn.W.tobytes() == fo.W.tobytes()
    assert _dot(fn.normal, jn.P).tobytes() == _dot(fo.normal, jo.P).tobytes()
    for alpha in (0.0, 1.0, -2.0):
        assert (_defect_from_jet(jn, alpha).tobytes()
                == _defect_from_jet(jo, alpha).tobytes())


# ---------------------------------------------------------------------------
# normalization and adapted coordinates


def tilted_great_circle(theta):
    # great circle whose plane normal is tilted by theta about the x-axis
    ct, st = np.cos(theta), np.sin(theta)
    R = np.array([[1.0, 0, 0], [0, ct, -st], [0, st, ct]])
    eq = equator_beta()
    return Curve3(lambda s: tuple(x @ R.T for x in eq.eval2(s)))


def test_normalize_beta_tilted_circle():
    spec = RuledSpec(gamma=vertical_line_curve(), beta=tilted_great_circle(np.pi / 6),
                     s_range=(0.0, 2 * np.pi))
    out = normalize_beta(spec)
    s = np.linspace(*out.s_range, 65)
    bv = out.beta(s)
    assert np.max(np.abs(bv[:, 2])) < 1e-10
    ref = np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], -1)
    assert np.max(np.abs(bv - ref)) < 1e-10


def test_normalize_beta_decreasing_range_matches_the_increasing_one():
    # the phase then runs downwards and is reversed before the inverse map
    specs = [normalize_beta(RuledSpec(gamma=vertical_line_curve(),
                                      beta=tilted_great_circle(np.pi / 6), s_range=r))
             for r in ((0.0, 2 * np.pi), (2 * np.pi, 0.0))]
    width = [spec.s_range[1] - spec.s_range[0] for spec in specs]
    assert width[1] > 0 and abs(width[0] - width[1]) < 1e-12
    for curve in ("gamma", "beta"):
        jets = [getattr(spec, curve).eval2(spec.samples(65))[:2] for spec in specs]
        for a, b in zip(*jets):
            assert np.max(np.abs(a - b)) < 1e-12


def test_normalize_beta_rejects_latitude():
    spec = RuledSpec(gamma=vertical_line_curve(), beta=latitude_beta(0.4),
                     s_range=(0.0, 2 * np.pi))
    with pytest.raises(ValidationError, match="ruling direction is not a great circle"):
        normalize_beta(spec)


def test_adapted_coords_helicoid_and_reconstruction():
    spec = helicoid_spec()
    ac = adapted_coords(spec)
    s = np.linspace(0.0, 2 * np.pi, 33)
    assert np.max(np.abs(ac.a(s))) < 1e-12
    assert np.max(np.abs(ac.b(s))) < 1e-12
    assert np.max(np.abs(ac.c(s) - s)) < 1e-12
    # striction condition a + b' = 0 and the arc-length identity
    a, _, _ = ac.a.eval2(s)
    b, bp, bpp = ac.b.eval2(s)
    _, cp, _ = ac.c.eval2(s)
    assert np.max(np.abs(a + bp)) < 1e-8
    assert np.max(np.abs((b + bpp) ** 2 + cp**2 - 1.0)) < 1e-8

    # random directrix reconstructs from the frame expansion
    rng = np.random.default_rng(31)
    gamma = trig_poly_curve(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (2, 3)),
                            rng.uniform(-1, 1, (2, 3)))
    rspec = RuledSpec(gamma=gamma, beta=equator_beta(), s_range=(0.0, 2 * np.pi))
    ac = adapted_coords(rspec)
    bvec = np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], -1)
    bpvec = np.stack([-np.sin(s), np.cos(s), np.zeros_like(s)], -1)
    rec = (ac.a(s)[:, None] * bvec + ac.b(s)[:, None] * bpvec
           + ac.c(s)[:, None] * E3)
    assert np.max(np.abs(rec - gamma(s))) < 1e-10


def test_adapted_coords_requires_equator():
    spec = RuledSpec(gamma=vertical_line_curve(), beta=latitude_beta(0.3),
                     s_range=(0.0, 2 * np.pi))
    with pytest.raises(ValidationError, match="ruling direction is not the horizontal equator"):
        adapted_coords(spec)


def test_coeffs_striction_precondition():
    eq = equator_beta()
    shifted = Curve3(lambda s: (
        np.multiply.outer(np.asarray(s, float), E3) + eq(s),
        np.broadcast_to(E3, np.shape(s) + (3,)).copy() + eq.eval2(s)[1],
        eq.eval2(s)[2]))
    bad = RuledSpec(gamma=shifted, beta=eq, s_range=(0.0, 2 * np.pi))
    with pytest.raises(ValidationError, match="directrix violates the striction condition"):
        ruled_coeffs(bad, 1.0, np.linspace(0, 6, 5))
    # its relative violation, max|<gamma', beta'>| / (max|gamma'| max|beta'|),
    # is 0.71, so no dilation of the directrix gets it past the check
    for lam in (1e-6, 1e6):
        scaled = RuledSpec(gamma=Curve3(lambda s, lam=lam: tuple(
            lam * x for x in shifted.eval2(s))), beta=eq, s_range=bad.s_range)
        with pytest.raises(ValidationError, match="directrix violates the striction condition"):
            ruled_coeffs(scaled, 1.0, np.linspace(0, 6, 5))


def test_coeffs_unit_ruling_precondition():
    # the equator scaled by 2 over the vertical line: the striction condition
    # holds, but the coefficients assume |beta| = 1 and miss the defect
    eq = equator_beta()
    wide = Curve3(lambda s: tuple(2.0 * x for x in eq.eval2(s)))
    bad = RuledSpec(gamma=vertical_line_curve(), beta=wide, s_range=(0.0, 2 * np.pi))
    s = np.linspace(0.2, 6.0, 5)
    with pytest.raises(ValidationError, match="ruling direction is not unit-norm"):
        ruled_coeffs(bad, 1.0, s)
    t = np.linspace(-1.5, 1.5, 5)
    A = ruled_coeffs(bad, 1.0, s, check=False)
    D = weighted_defect(build_ruled_patch(bad, (-2.0, 2.0)), 1.0, s, t)
    assert np.max(np.abs(D - sum(A[:, n] * t**n for n in range(5)))) > 1.0
