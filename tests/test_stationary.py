import json

import numpy as np
import pytest

from alphasurf.catalog import catenoid_patch, plane_patch, sphere_patch
from alphasurf.cyclic import build_cyclic, parallel_spec
from alphasurf.errors import BandLimitError, ValidationError
from alphasurf.interp import ScalarFunc
from alphasurf.stationary import (
    energy,
    fourier_defect,
    residual,
    residual_grid,
    weighted_defect,
)
from alphasurf.surface_kernel import eval_jet2, fundamental_data, scaled


def test_sphere_residual_zero_only_at_its_exponent():
    patch = sphere_patch((0, 0, 0), 1.0)
    assert residual_grid(patch, -2.0, 32, 32).sup_abs < 1e-10
    for alpha in (-4.0, 0.0, 1.0):
        assert residual_grid(patch, alpha, 32, 32).sup_abs > 1e-2


def test_report_row_layout_and_files(tmp_path):
    patch = sphere_patch((0, 0, 0), 2.0)
    rep = residual_grid(patch, -2.0, 4, 6)
    assert rep.rows.shape == (24, 8)
    # u-major ordering: first nv rows share the first u value
    assert np.all(rep.rows[:6, 0] == rep.rows[0, 0])
    # position columns lie on the sphere
    r = np.linalg.norm(rep.rows[:, 2:5], axis=1)
    assert np.allclose(r, 2.0)
    jpath = tmp_path / "rep.json"
    cpath = tmp_path / "rep.csv"
    rep.write_json(jpath)
    rep.write_csv(cpath)
    data = json.loads(jpath.read_text())
    assert data["sample_count"] == 24
    header = cpath.read_text().splitlines()[0]
    assert header == "u,v,x,y,z,H,rhs,residual"


def test_energy_values_and_scaling():
    sphere = sphere_patch((0, 0, 0), 1.0)
    assert energy(sphere, 0.0, 64, 64) == pytest.approx(4 * np.pi, abs=1e-6)
    big = sphere_patch((0, 0, 0), 2.0)
    assert energy(big, 1.0, 64, 64) == pytest.approx(32 * np.pi, abs=1e-5)
    # homogeneity: E(lam*S, alpha) = lam^(alpha+2) E(S, alpha)
    for alpha in (-2.0, 1.0):
        for lam in (0.5, 3.0):
            e0 = energy(sphere, alpha, 48, 48)
            e1 = energy(scaled(sphere, lam), alpha, 48, 48)
            assert e1 == pytest.approx(lam ** (alpha + 2) * e0, rel=1e-10)


def test_weighted_defect_matches_residual():
    patch = catenoid_patch(1.0)
    rng = np.random.default_rng(5)
    u = rng.uniform(-1.2, 1.2, 20)
    v = rng.uniform(0, 2 * np.pi, 20)
    alpha = 1.7
    jet = eval_jet2(patch, u, v)
    fd = fundamental_data(jet)
    p2 = np.einsum("ij,ij->i", jet.P, jet.P)
    expected = residual(patch, alpha, u, v) * fd.W ** 1.5 * p2
    got = weighted_defect(patch, alpha, u, v)
    assert np.max(np.abs(got - expected)) < 1e-10 * np.max(np.abs(expected))


def test_fourier_band_limit_guard():
    # a cyclic patch whose defect is a degree-3 trig polynomial
    spec = parallel_spec(ScalarFunc.from_poly([0.0, 0.3]),
                         ScalarFunc.from_poly([0.1]),
                         ScalarFunc.from_poly([1.0, 0.05]), (0.5, 1.5))
    patch = build_cyclic(spec)
    fc = fourier_defect(patch, 1.3, 1.0, n_max=3, nv=32)
    assert len(fc.A) == 4 and fc.B[0] == 0.0
    # asking for a too-small band trips the aliasing guard
    with pytest.raises(BandLimitError):
        fourier_defect(patch, 1.3, 1.0, n_max=1, nv=32)


@pytest.mark.parametrize("u", [0.0, 0.3, 0.7, 1.2])
@pytest.mark.parametrize("nv", [64, 1024])
def test_fourier_guard_passes_exact_solutions(u, nv):
    # the catenoid is minimal: its defect cancels to roundoff, which must
    # stay under the floor built from the summands, not from their sum
    fc = fourier_defect(catenoid_patch(1.0), 0.0, u, n_max=4, nv=nv)
    assert max(np.max(np.abs(fc.A)), np.max(np.abs(fc.B))) < 1e-12
    fc = fourier_defect(sphere_patch((0, 0, 0), 1.0), -2.0, 0.3 + u, n_max=4,
                        nv=nv)
    assert max(np.max(np.abs(fc.A)), np.max(np.abs(fc.B))) < 1e-12


def test_fourier_requires_periodic_and_power_of_two():
    patch = plane_patch((0, 0, 1))
    with pytest.raises(ValidationError):
        fourier_defect(patch, 0.0, 0.0, n_max=2, nv=16)
    spec = parallel_spec(0.0, 0.0, 1.0, (-0.5, 0.5))
    cyc = build_cyclic(spec)
    with pytest.raises(ValidationError):
        fourier_defect(cyc, 0.0, 0.0, n_max=3, nv=24)  # not a power of two


def test_residual_on_surface_through_origin_raises():
    from alphasurf.errors import OriginOnSurfaceError
    patch = plane_patch((0, 0, 1))  # contains 0 at (u,v)=(0,0)
    with pytest.raises(OriginOnSurfaceError):
        residual(patch, 1.0, np.array([0.0]), np.array([0.0]))
