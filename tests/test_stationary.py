import json

import numpy as np
import pytest

from alphasurf import surface_kernel
from alphasurf.cli import _helicoid_ruled_spec
from alphasurf.catalog import (
    FamilySpec,
    catenoid_patch,
    helicoid_patch,
    load_family,
    make_patch,
    plane_patch,
    riemann_minimal_spec,
    ruled_spec_from_dict,
    ruled_spec_to_dict,
    save_family,
    sphere_patch,
)
from alphasurf.cyclic import build_cyclic, log_spiral_example, parallel_spec
from alphasurf.errors import (
    BandLimitError,
    DegenerateParametrizationError,
    OriginOnSurfaceError,
    SingularIntegrandError,
    ValidationError,
)
from alphasurf.interp import ScalarFunc
from alphasurf.inversion import invert_patch
from alphasurf.ruled import random_ruled_spec, ruled_coeffs
from alphasurf.stationary import (
    energy,
    fourier_defect,
    residual,
    residual_grid,
    weighted_defect,
)
from alphasurf.surface_kernel import (
    Jet2,
    ParametricPatch,
    eval_jet2,
    fundamental_data,
    scaled,
)


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


# ---------------------------------------------------------------------------
# tiled grid evaluation: the bytes do not depend on the tile size

# (nu, nv): an odd grid, a square one and one larger than a default tile
GRIDS = [(33, 17), (64, 64), (160, 130)]
TILE_ROWS = [1, 7, 16, None]  # None: the whole grid in one tile


@pytest.fixture(scope="module")
def grid_patches(tmp_path_factory):
    path = tmp_path_factory.mktemp("riemann") / "riemann.json"
    save_family(FamilySpec(kind="parallel_cyclic",
                           params={"spec": riemann_minimal_spec(0.3, 1.0, 0.8)}),
                path)
    return {
        "catenoid": (catenoid_patch(1.0), 0.7),
        "helicoid": (helicoid_patch(1.1), 0.0),
        "sphere": (sphere_patch((0.1, -0.2, 0.05), 1.2), -2.0),
        "log-spiral": (log_spiral_example((0.5, 2.0)), -2.0),
        "inverted-catenoid": (invert_patch(catenoid_patch(1.0)), -4.0),
        "riemann-reloaded": (make_patch(load_family(path)), 0.0),
    }


def _tile_points(monkeypatch, rows, width, total):
    monkeypatch.setattr(surface_kernel, "TILE_POINTS",
                        total if rows is None else rows * width)


def _untiled_rows(patch, alpha, nu, nv):
    """The residual rows as one whole-grid evaluation computes them."""
    u, v = patch.domain_grid(nu, nv)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    jet = eval_jet2(patch, uu, vv)
    fd = fundamental_data(jet)
    rhs = alpha * np.einsum("...i,...i->...", fd.normal, jet.P) / np.einsum(
        "...i,...i->...", jet.P, jet.P)
    cols = (uu, vv, jet.P[..., 0], jet.P[..., 1], jet.P[..., 2], fd.H, rhs,
            fd.H - rhs)
    return np.column_stack([c.ravel() for c in cols])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", ["catenoid", "helicoid", "sphere",
                                    "log-spiral", "inverted-catenoid",
                                    "riemann-reloaded"])
@pytest.mark.parametrize("nu, nv", GRIDS)
def test_grid_results_do_not_depend_on_tile_size(family, nu, nv, grid_patches,
                                                 monkeypatch):
    patch, alpha = grid_patches[family]
    want_rows = _untiled_rows(patch, alpha, nu, nv)
    res = want_rows[:, 7]
    want_sup = float(np.max(np.abs(res)))
    want_rms = float(np.sqrt(np.mean(res * res)))
    energies = []
    for rows in TILE_ROWS:
        _tile_points(monkeypatch, rows, nv, nu * nv)
        rep = residual_grid(patch, alpha, nu, nv)
        assert _same_bits(rep.rows, want_rows), (family, rows)
        assert rep.sup_abs == want_sup and rep.rms == want_rms
        assert rep.sample_count == nu * nv
        energies.append(energy(patch, alpha, nu, nv))
    # tiles of 7 and 16 rows leave a partial last tile on most grids
    assert len({e.hex() for e in energies}) == 1, energies


@pytest.fixture(scope="module")
def ruled_table_spec():
    # table-backed (pointwise Hermite evaluation); not striction-exact after
    # the reload, so its checks are off
    return ruled_spec_from_dict(ruled_spec_to_dict(
        random_ruled_spec(np.random.default_rng(3))))


@pytest.mark.parametrize("n", [561, 4096, 20000])
def test_ruled_coeffs_do_not_depend_on_tile_size(n, ruled_table_spec,
                                                 monkeypatch):
    for spec, alpha, check in ((_helicoid_ruled_spec(), 0.4, True),
                               (ruled_table_spec, -0.6, False)):
        s = np.linspace(*spec.s_range, n)
        got = [ruled_coeffs(spec, alpha, s, check=check)]  # default tiles
        for rows in ([1, 7, 16, None] if n < 1000 else [16, None]):
            _tile_points(monkeypatch, rows, 1, n)
            got.append(ruled_coeffs(spec, alpha, s, check=check))
        assert got[0].shape == (n, 5)
        assert all(_same_bits(g, got[0]) for g in got[1:])
        # a 2-D sample array gives the same values in its own shape
        got2 = ruled_coeffs(spec, alpha, s.reshape(-1, 1), check=check)
        assert _same_bits(got2.reshape(n, 5), got[0])


@pytest.mark.parametrize("family", ["catenoid", "sphere", "log-spiral",
                                    "inverted-catenoid", "riemann-reloaded"])
@pytest.mark.parametrize("nv", [64, 256, 1024])
def test_fourier_matches_two_matrix_formula(family, nv, grid_patches):
    patch, alpha = grid_patches[family]
    u = float(np.mean(patch.u_range)) + 0.1
    n_max = nv // 4
    # a guard that never fires, so every returned harmonic is compared
    fc = fourier_defect(patch, alpha + 0.3, u, n_max=n_max, nv=nv,
                        guard=np.inf)
    v0, v1 = patch.v_range
    v = v0 + (v1 - v0) * np.arange(nv) / nv
    d = weighted_defect(patch, alpha + 0.3, np.full(nv, u), v)
    ang = 2.0 * np.pi * np.arange(nv) / nv
    ns = np.arange(nv // 2 + 1)
    A_all = 2.0 / nv * np.cos(np.outer(ns, ang)) @ d
    B_all = 2.0 / nv * np.sin(np.outer(ns, ang)) @ d
    A_all[0] *= 0.5
    A_all[nv // 2] *= 0.5
    B_all[0] = 0.0
    assert _same_bits(fc.A, A_all[:n_max + 1])
    assert _same_bits(fc.B, B_all[:n_max + 1])


def _flat_patch(bad):
    """The plane z = 1 over [-1, 1]^2, spoiled by ``bad(u, P, Pu)`` where
    u > 0.9 (the last rows of a grid only)."""

    def ev(u, v):
        z = np.zeros_like(u)
        P = np.stack([u, v, z + 1.0], axis=-1)
        Pu = np.stack([z + 1.0, z, z], axis=-1)
        Pv = np.stack([z, z + 1.0, z], axis=-1)
        bad(u > 0.9, P, Pu)
        zero = np.zeros_like(P)
        return Jet2(P=P, Pu=Pu, Pv=Pv, Puu=zero, Puv=zero, Pvv=zero)

    return ParametricPatch(evaluator=ev, u_range=(-1.0, 1.0),
                           v_range=(-1.0, 1.0), label="flat")


def _degenerate(mask, P, Pu):
    Pu[mask] = 0.0


def _through_origin(mask, P, Pu):
    P[mask] = 0.0


def _infinite(mask, P, Pu):
    P[mask, 2] = np.inf


@pytest.mark.parametrize("rows", [1, 7, None])
def test_guards_fire_in_a_later_tile(rows, monkeypatch):
    nu, nv = 40, 24
    _tile_points(monkeypatch, rows, nv, nu * nv)
    # only rows after the first 16 are spoiled
    u, _ = _flat_patch(_degenerate).domain_grid(nu, nv)
    assert np.all(u[:16] <= 0.9) and np.any(u > 0.9)
    with pytest.raises(DegenerateParametrizationError):
        residual_grid(_flat_patch(_degenerate), 0.0, nu, nv)
    with pytest.raises(DegenerateParametrizationError):
        energy(_flat_patch(_degenerate), 0.0, nu, nv)
    with pytest.raises(OriginOnSurfaceError):
        residual_grid(_flat_patch(_through_origin), 1.0, nu, nv)
    with np.errstate(invalid="ignore"):
        with pytest.raises(SingularIntegrandError):
            energy(_flat_patch(_infinite), 1.0, nu, nv)


def test_verify_1024_grid_peak_memory(tmp_path, peak_rss_mb):
    argv = ["verify", "--family", "catenoid", "--grid", "1024x1024"]
    assert peak_rss_mb(argv, tmp_path) <= 160.0


def test_coeffs_million_samples_peak_memory(tmp_path, peak_rss_mb):
    # the 40 MB result is held once: max|A| builds no second array
    argv = ["coeffs", "--family", "helicoid", "--samples", "1000000"]
    assert peak_rss_mb(argv, tmp_path) <= 100.0
