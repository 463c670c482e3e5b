"""End-to-end acceptance checks.

Each test covers one headline property of the library at its target
tolerance and prints a single PASS/FAIL line (outside pytest's capture)
so the run log doubles as an acceptance report.  Runtime budgets are
asserted alongside the numerics.
"""

import time

import numpy as np

from alphasurf.catalog import (
    catenoid_patch,
    euler_planar_curve,
    helicoid_patch,
    plane_patch,
    riemann_minimal,
    sphere_patch,
)
from alphasurf.cyclic import (
    PLANAR_INIT,
    build_cyclic,
    frame_from_curvature,
    frenet_A4B4,
    frenet_combination,
    frenet_spec,
    integrate_neg2_family,
    log_spiral_example,
    parallel_A3B3,
    parallel_spec,
)
from alphasurf.flow import descend, discrete_energy, discrete_gradient, sample_mesh
from alphasurf.interp import ScalarFunc
from alphasurf.inversion import invert_patch, verify_shift
from alphasurf.ruled import (
    PlanarCurve,
    RuledSpec,
    build_ruled_patch,
    cylinder_check,
    equator_beta,
    latitude_beta,
    random_ruled_spec,
    ruled_coeffs,
)
from alphasurf.stationary import energy, fourier_defect, residual_grid, weighted_defect
from alphasurf.surface_kernel import eval_jet2, scaled

E3 = np.array([0.0, 0.0, 1.0])

INV_U = ScalarFunc(lambda u: (1.0 / np.asarray(u, float),
                              -1.0 / np.asarray(u, float) ** 2,
                              2.0 / np.asarray(u, float) ** 3))


def _run(capsys, label, budget, body):
    t0 = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - t0
        assert elapsed < budget, (
            f"runtime {elapsed:.2f}s exceeds {budget:.0f}s budget")
    except BaseException:
        with capsys.disabled():
            print(f"\nFAIL  {label}")
        raise
    with capsys.disabled():
        print(f"\nPASS  {label} [{elapsed:.1f}s]")


def _axis_line():
    return type(equator_beta())(
        lambda s: (np.multiply.outer(np.asarray(s, float), E3),
                   np.broadcast_to(E3, np.shape(s) + (3,)).copy(),
                   np.zeros(np.shape(s) + (3,))))


def test_catalog_residual_matrix(capsys):
    def body():
        stationary = [(plane_patch((0.3, -0.2, 1.0)), a)
                      for a in (-4.0, -2.0, 0.0, 1.0, 3.0)]
        stationary += [
            (sphere_patch((0, 0, 0), 1.0), -2.0),
            (sphere_patch((0, 0, 1), 1.0), -4.0),
            (helicoid_patch(1.0), 0.0),
            (catenoid_patch(1.0), 0.0),
        ]
        for patch, alpha in stationary:
            sup = residual_grid(patch, alpha, 64, 64).sup_abs
            assert sup <= 1e-8, f"{patch.label} at alpha={alpha}: {sup:.3e}"
        off = [
            (sphere_patch((0, 0, 0), 1.0), -4.0),
            (sphere_patch((0, 0, 1), 1.0), -2.0),
            (sphere_patch((0.7, 0.4, 2.0), 1.0), -2.0),
        ]
        for patch, alpha in off:
            sup = residual_grid(patch, alpha, 64, 64).sup_abs
            assert sup >= 1e-2, f"{patch.label} at alpha={alpha}: {sup:.3e}"

    _run(capsys, "catalog residual matrix (stationary vs non-stationary)",
         5.0, body)


def test_inversion_exponent_shift(capsys):
    def body():
        pairs = [
            (helicoid_patch(1.0), 0.0),
            (catenoid_patch(1.0), 0.0),
            (riemann_minimal(0.5, 1.0, 1.0), 0.0),
            (sphere_patch((0, 0, 0), 1.0), -2.0),
            (sphere_patch((0, 0, 1), 1.0), -4.0),
            (plane_patch((0.2, 0.5, 1.0)), 1.5),
        ]
        for patch, alpha in pairs:
            tol = 1e-6 if patch.label.startswith("riemann") else 1e-7
            before, after = verify_shift(patch, alpha, 32, 32)
            assert before.sup_abs <= tol, f"{patch.label}: {before.sup_abs:.3e}"
            assert after.sup_abs <= tol, f"{patch.label}: {after.sup_abs:.3e}"

        patch = sphere_patch((0, 0, 1), 1.0)
        twice = invert_patch(invert_patch(patch))
        u, v = patch.domain_grid(16, 16)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        gap = np.max(np.abs(eval_jet2(patch, uu, vv).P
                            - eval_jet2(twice, uu, vv).P))
        assert gap <= 1e-12, f"involution gap {gap:.3e}"

        for patch in (helicoid_patch(1.0),
                      catenoid_patch(1.0, center=(0, 0, 1.5))):
            sup = residual_grid(invert_patch(patch), -4.0, 32, 32).sup_abs
            assert sup <= 1e-7, f"inverted {patch.label}: {sup:.3e}"
        sup = residual_grid(invert_patch(riemann_minimal(0.5, 1.0, 1.0)),
                            -4.0, 24, 24).sup_abs
        assert sup <= 1e-6, f"inverted riemann: {sup:.3e}"

    _run(capsys, "inversion exponent shift and involution", 10.0, body)


def test_ruled_polynomial_identity(capsys):
    def body():
        rng = np.random.default_rng(424242)
        for _ in range(20):
            spec = random_ruled_spec(rng)
            alpha = float(rng.uniform(-3, 3))
            s = rng.uniform(*spec.s_range, 10)
            t = rng.uniform(-3, 3, 10)
            A = ruled_coeffs(spec, alpha, s)
            patch = build_ruled_patch(spec, (-3.5, 3.5))
            D = weighted_defect(patch, alpha, s, t)
            P = sum(A[:, n] * t**n for n in range(5))
            assert np.max(np.abs(D - P)) < 1e-7

        s = np.linspace(0.2, 6.0, 11)
        heli = RuledSpec(gamma=_axis_line(), beta=equator_beta(),
                         s_range=(0.0, 2 * np.pi))
        A = ruled_coeffs(heli, 1.0, s)
        assert np.max(np.abs(A[:, 4])) < 1e-12
        h = 0.6
        lat = RuledSpec(gamma=_axis_line(), beta=latitude_beta(h),
                        s_range=(0.0, 2 * np.pi))
        A = ruled_coeffs(lat, 0.0, s, check=False)
        assert np.allclose(A[:, 4], -h * (1 - h * h))
        A = ruled_coeffs(heli, 0.0, s)
        assert np.max(np.abs(A)) < 1e-12

        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = random_ruled_spec(rng)
            sw = np.linspace(*spec.s_range, 48)
            for alpha in (-2.0, 1.0, 2.0):
                A = ruled_coeffs(spec, alpha, sw)
                assert np.max(np.abs(A)) >= 1e-3

    _run(capsys, "ruled defect polynomial identity and witnesses", 10.0, body)


def test_cylinder_obstruction(capsys):
    def body():
        rng = np.random.default_rng(20260824)

        def random_alpha():
            # keep |alpha| away from 0: every offset line is minimal
            return float(rng.choice([-1, 1]) * rng.uniform(0.5, 3.0))

        zero, nonzero = [], []
        for _ in range(4):
            d = rng.normal(size=2)
            zero.append((PlanarCurve.line((0.0, 0.0), tuple(d)),
                         random_alpha()))
        for _ in range(4):
            p0 = rng.uniform(0.5, 2.0) * rng.normal(size=2)
            p0 /= max(np.linalg.norm(p0), 0.3)
            nonzero.append((PlanarCurve.line(tuple(p0 + [0.0, 1.3]),
                                             tuple(rng.normal(size=2))),
                            random_alpha()))
        for _ in range(6):
            center = rng.uniform(-2, 2, 2)
            nonzero.append((PlanarCurve.circle(tuple(center),
                                               float(rng.uniform(0.5, 2.0))),
                            random_alpha()))
        for _ in range(6):
            alpha = random_alpha()
            curve = euler_planar_curve(alpha, float(rng.uniform(0.7, 1.5)),
                                       float(rng.uniform(0, 2 * np.pi)),
                                       int(rng.choice([-1, 1])), 1.2)
            nonzero.append((curve, alpha))

        assert len(zero) + len(nonzero) == 20
        for curve, alpha in zero:
            C2, C0 = cylinder_check(curve, alpha)
            assert np.max(np.abs(C2)) + np.max(np.abs(C0)) < 1e-12
        for curve, alpha in nonzero:
            C2, C0 = cylinder_check(curve, alpha)
            assert np.max(np.abs(C2)) + np.max(np.abs(C0)) >= 1e-3

    _run(capsys, "cylinder obstruction (only axial planes survive)", 5.0, body)


def test_cyclic_band_limits_and_closed_forms(capsys):
    def body():
        rng = np.random.default_rng(31415)
        for _ in range(20):
            a = ScalarFunc.from_poly(rng.uniform(-1, 1, 3))
            b = ScalarFunc.from_poly(rng.uniform(-1, 1, 3))
            r = ScalarFunc.from_poly([1.5, rng.uniform(-0.2, 0.2),
                                      rng.uniform(-0.1, 0.1)])
            alpha = float(rng.uniform(-3, 3))
            patch = build_cyclic(parallel_spec(a, b, r, (0.5, 1.5)))
            u0 = float(rng.uniform(0.6, 1.4))
            # band limit n <= 3 enforced by the aliasing guard inside
            fc = fourier_defect(patch, alpha, u0, n_max=3, nv=64)
            av, ap, _ = a.eval2(u0)
            bv, bp, _ = b.eval2(u0)
            A3, B3 = parallel_A3B3(float(av), float(ap), float(bv),
                                   float(bp), float(r(u0)), alpha, u0)
            assert abs(fc.A[3] - A3) < 1e-7
            assert abs(fc.B[3] - B3) < 1e-7

        for _ in range(20):
            k = float(rng.uniform(0.5, 1.5))
            tau = float(rng.uniform(-0.5, 0.5))
            alpha = float(rng.uniform(-3, 3))
            fr = frame_from_curvature(k, tau, (0.0, 0.5), PLANAR_INIT,
                                      max_step=2e-3)
            a, b, c = rng.uniform(-1, 1, 3)
            r = float(rng.uniform(0.5, 1.0))
            patch = build_cyclic(frenet_spec(fr, float(a), float(b),
                                             float(c), r))
            # band limit n <= 4 enforced by the aliasing guard inside
            fc = fourier_defect(patch, alpha, 0.25, n_max=4, nv=64)
            A4, B4 = frenet_A4B4(a, b, c, 0.0, 0.0, r, k, tau, alpha)
            assert abs(fc.A[4] - A4) < 1e-7
            assert abs(fc.B[4] - B4) < 1e-7

        for _ in range(20):
            a, b, c, bp, cp = rng.uniform(-2, 2, 5)
            r = float(rng.uniform(0.2, 2.0))
            k = float(rng.uniform(0.2, 2.0))
            tau = float(rng.uniform(-1, 1))
            alpha = float(rng.uniform(-5, 5))
            A4, B4 = frenet_A4B4(a, b, c, bp, cp, r, k, tau, alpha)
            comb = frenet_combination(a, b, c, bp, cp, r, k, tau, alpha)
            scale = max(1.0, abs(A4), abs(B4))
            assert abs(c * A4 - b * B4 - comb) < 1e-7 * scale

    _run(capsys, "cyclic band limits and closed-form top harmonics", 10.0, body)


def test_generated_minus_two_family(capsys):
    def body():
        spec = integrate_neg2_family(INV_U, 0.0, 0.0, 1.0, 1.0, (1.0, np.e))
        u = np.linspace(1.0, np.e, 101)
        assert np.max(np.abs(spec.r(u) - u)) < 1e-8

        patch = build_cyclic(spec)
        explicit = log_spiral_example((1.0, np.e))
        uu, vv = np.meshgrid(np.linspace(1.05, 2.6, 9),
                             np.linspace(0, 6, 9), indexing="ij")
        gap = np.max(np.abs(eval_jet2(patch, uu, vv).P
                            - eval_jet2(explicit, uu, vv).P))
        assert gap < 1e-6
        assert residual_grid(patch, -2.0, 24, 24).sup_abs < 1e-6
        assert residual_grid(explicit, -2.0, 24, 24).sup_abs < 1e-8

        kappa = ScalarFunc.from_poly([1.0, 0.3])
        spec = integrate_neg2_family(kappa, 0.0, 0.0, 1.0, 0.7, (0.5, 1.5))
        u = np.linspace(0.5, 1.5, 41)
        r, rp, rpp = spec.r.eval2(u)
        k, kp, _ = kappa.eval2(u)
        assert np.max(np.abs(spec.a(u))) < 1e-10
        assert np.max(np.abs(k * (r * rpp - rp**2) - r * rp * kp)) < 1e-8
        m = rp / (r * k)
        assert np.max(np.abs(m - m[0])) < 1e-6

    _run(capsys, "ODE-generated exponent -2 cyclic family", 10.0, body)


def test_discrete_flow(capsys):
    def body():
        rng = np.random.default_rng(17)
        mesh = sample_mesh(sphere_patch((0, 0, 0), 1.0), 8, 12)
        mesh.vertices = mesh.vertices * (
            1 + 0.05 * rng.uniform(-1, 1, (len(mesh.vertices), 1)))
        h = 1e-6
        for alpha in (-4.0, -2.0, 0.0, 2.0):
            g = discrete_gradient(mesh, alpha)
            for i in rng.integers(0, len(mesh.vertices), 6):
                for k in range(3):
                    vp, vm = mesh.copy(), mesh.copy()
                    vp.vertices[i, k] += h
                    vm.vertices[i, k] -= h
                    fd = (discrete_energy(vp, alpha)
                          - discrete_energy(vm, alpha)) / (2 * h)
                    assert abs(fd - g[i, k]) <= 1e-5 * max(1.0, abs(fd))

        prev = None
        for n in (16, 32, 64):
            g = discrete_gradient(
                sample_mesh(sphere_patch((0, 0, 0), 1.0), n, 2 * n), -2.0)
            gmax = float(np.max(np.linalg.norm(g, axis=1)))
            if prev is not None:
                assert prev / gmax >= 1.8
            prev = gmax

        mesh = sample_mesh(sphere_patch((0, 0, 0), 1.0), 16, 32)
        E_ref = discrete_energy(mesh, -2.0)
        rng = np.random.default_rng(11)
        pert = mesh.copy()
        radial = pert.vertices / np.linalg.norm(pert.vertices, axis=1,
                                                keepdims=True)
        pert.vertices = pert.vertices + 0.01 * radial * rng.uniform(
            -1, 1, (len(pert.vertices), 1))
        _, trace = descend(pert, -2.0, 200, dt=1e-2)
        energies = [row[1] for row in trace.rows]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
        assert abs(energies[-1] - E_ref) / E_ref < 1e-3

    _run(capsys, "discrete energy gradient and descent", 60.0, body)


def test_quadrature_reference_values(capsys):
    def body():
        unit = sphere_patch((0, 0, 0), 1.0)
        assert abs(energy(unit, 0.0, 64, 64) - 4 * np.pi) <= 1e-6
        big = sphere_patch((0, 0, 0), 2.0)
        assert abs(energy(big, 1.0, 64, 64) - 32 * np.pi) <= 1e-5
        cat = catenoid_patch(1.0, center=(0.3, 0.0, 0.2))
        for alpha in (-2.0, 1.0):
            base = energy(cat, alpha, 48, 48)
            for lam in (0.5, 3.0):
                val = energy(scaled(cat, lam), alpha, 48, 48)
                assert abs(val - lam ** (alpha + 2) * base) <= 1e-9 * abs(base)

    _run(capsys, "weighted area quadrature reference values", 10.0, body)
