import filecmp
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from alphasurf import output, stationary, surface_kernel
from alphasurf.cli import _helicoid_ruled_spec, main
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
from alphasurf.errors import NumericalError, ValidationError
from alphasurf.interp import ScalarFunc
from alphasurf.inversion import invert_patch, verify_shift
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
    with pytest.raises(NumericalError, match="defect has harmonics above n=1"):
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
    patch = plane_patch((0, 0, 1))  # contains 0 at (u,v)=(0,0)
    with pytest.raises(NumericalError, match="surface touches the origin at a sampled point"):
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


@pytest.mark.parametrize("family", ["catenoid", "sphere", "inverted-catenoid"])
@pytest.mark.parametrize("nu, nv", GRIDS)
def test_rows_free_grid_gives_the_same_reductions(family, nu, nv, grid_patches,
                                                  monkeypatch):
    patch, alpha = grid_patches[family]
    for rows in TILE_ROWS:
        _tile_points(monkeypatch, rows, nv, nu * nv)
        full = residual_grid(patch, alpha, nu, nv)
        bare = residual_grid(patch, alpha, nu, nv, rows=False)
        assert bare.rows is None
        assert bare.sup_abs.hex() == full.sup_abs.hex()
        assert bare.rms.hex() == full.rms.hex()
        assert bare.sample_count == full.sample_count == nu * nv
    shift_full = verify_shift(patch, alpha, 33, 17)
    shift_bare = verify_shift(patch, alpha, 33, 17, rows=False)
    for a, b in zip(shift_full, shift_bare):
        assert b.rows is None and (a.sup_abs, a.rms) == (b.sup_abs, b.rms)


def test_rows_free_report_is_refused_by_its_writers(tmp_path):
    rep = residual_grid(sphere_patch((0, 0, 0), 1.0), -2.0, 4, 6, rows=False)
    for write in (rep.write_json, rep.write_csv, lambda path: rep.to_json_dict()):
        with pytest.raises(ValueError, match="rows=False"):
            write(tmp_path / "rep")
    assert not (tmp_path / "rep").exists()


def test_verify_prints_the_same_line_with_and_without_files(tmp_path, capsys):
    argv = ["verify", "--family", "catenoid", "--waist", "1.1", "--alpha", "0.7",
            "--grid", "40x24"]
    lines = []
    for extra in ([], ["--out", str(tmp_path / "r.json")],
                  ["--csv", str(tmp_path / "r.csv")]):
        assert main(argv + extra) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1] == lines[2]
    assert lines[0].startswith("sup|residual| = ")


@pytest.fixture(scope="module")
def ruled_table_spec():
    # table-backed (pointwise Hermite evaluation)
    return ruled_spec_from_dict(ruled_spec_to_dict(
        random_ruled_spec(np.random.default_rng(3))))


# ruled_coeffs evaluates the samples it is given in one pass; the tiles of
# the coeffs command are covered by test_coeffs_absmax_equals_the_whole_array_max
@pytest.mark.parametrize("n", [561, 4096, 20000])
def test_ruled_coeffs_do_not_depend_on_tile_size(n, ruled_table_spec):
    for spec, alpha in ((_helicoid_ruled_spec(), 0.4), (ruled_table_spec, -0.6),
                        (random_ruled_spec(np.random.default_rng(3)), 1.3)):
        s = np.linspace(*spec.s_range, n)
        got = ruled_coeffs(spec, alpha, s)
        assert got.shape == (n, 5)
        # a 2-D sample array gives the same values in its own shape, and
        # batches of 97 samples give the same values row by row
        got2 = ruled_coeffs(spec, alpha, s.reshape(-1, 1))
        assert _same_bits(got2.reshape(n, 5), got)
        batches = [ruled_coeffs(spec, alpha, s[i:i + 97]) for i in range(0, n, 97)]
        assert _same_bits(np.concatenate(batches), got)


@pytest.mark.parametrize("n", [1, 561, 4096, 20000])
def test_coeffs_absmax_equals_the_whole_array_max(n, ruled_table_spec, tmp_path,
                                                  monkeypatch, capsys):
    # the max|A_n| that coeffs prints, folded tile by tile, with and without
    # --out; the helicoid's largest |A_n| is its max at alpha 0.4 and -min at
    # -1
    table = tmp_path / "table.json"   # the file the fixture's spec is read from
    output.write_json(table, ruled_spec_to_dict(random_ruled_spec(np.random.default_rng(3))))
    out = tmp_path / "c.csv"
    for spec, alpha, source in ((_helicoid_ruled_spec(), 0.4, ["--family", "helicoid"]),
                                (_helicoid_ruled_spec(), -1.0, ["--family", "helicoid"]),
                                (ruled_table_spec, -0.6, ["--spec", str(table)])):
        s = np.linspace(*spec.s_range, n)
        A = ruled_coeffs(spec, alpha, s)
        want = abs(max(A.max(), -A.min()))
        for rows in ([1, 7, 16, None] if n < 1000 else [16, None]):
            _tile_points(monkeypatch, rows, 1, n)
            printed = []
            for extra in ([], ["--out", str(out)]):
                argv = ["coeffs", *source, f"--alpha={alpha}", "--samples", str(n)]
                assert main(argv + extra) == 0
                printed.append(capsys.readouterr().out)
            assert printed == [f"max|A_n| = {want:.3g} over {n} samples\n"] * 2, (n, rows)
            written = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            assert written[:, 0].tobytes() == s.tobytes()
            assert written[:, 1:].tobytes() == A.tobytes(), (n, rows)


FOURIER_FAMILIES = ["catenoid", "off-axis-catenoid", "sphere", "log-spiral",
                    "inverted-catenoid", "riemann-reloaded", "band-limited"]


@pytest.fixture(scope="module")
def fourier_patches(grid_patches):
    """The grid patches, an off-axis catenoid and the degree-3 band-limited
    parallel spec of test_fourier_band_limit_guard."""
    band = parallel_spec(ScalarFunc.from_poly([0.0, 0.3]), ScalarFunc.from_poly([0.1]),
                         ScalarFunc.from_poly([1.0, 0.05]), (0.5, 1.5))
    return dict(grid_patches,
                **{"off-axis-catenoid": (catenoid_patch(1.0, center=(0.3, -0.2, 0.1)), 0.7),
                   "band-limited": (build_cyclic(band), 1.0)})


def _fourier_case(patch, alpha, nv):
    """The circle parameter and the weighted defect of one oracle case."""
    u = float(np.mean(patch.u_range)) + 0.1
    v0, v1 = patch.v_range
    v = v0 + (v1 - v0) * np.arange(nv) / nv
    return u, weighted_defect(patch, alpha + 0.3, np.full(nv, u), v)


def _exact_dft(d, n_max):
    """Harmonics 0..n_max of ``d`` with every twiddle taken at the angle
    2 pi ((n k) mod nv) / nv and every sum exact (math.fsum), so the only
    error left is one rounding per product."""
    nv = d.size
    k = np.arange(nv)
    A, B = np.empty(n_max + 1), np.empty(n_max + 1)
    for n in range(n_max + 1):
        ang = 2.0 * math.pi * (n * k % nv) / nv
        A[n] = 2.0 / nv * math.fsum((d * np.cos(ang)).tolist())
        B[n] = 2.0 / nv * math.fsum((d * np.sin(ang)).tolist())
    A[0] *= 0.5
    B[0] = 0.0
    return A, B


@pytest.mark.parametrize("family", FOURIER_FAMILIES)
@pytest.mark.parametrize("nv", [8, 64, 256, 1024, 4096])
def test_fourier_rows_are_within_two_eps_of_the_exact_dft(family, nv,
                                                          fourier_patches):
    patch, alpha = fourier_patches[family]
    u, d = _fourier_case(patch, alpha, nv)
    n_max = nv // 4
    # a guard that never fires, so every returned harmonic is compared
    fc = fourier_defect(patch, alpha + 0.3, u, n_max=n_max, nv=nv, guard=np.inf)
    A, B = _exact_dft(d, n_max)
    bound = 2.0 * np.finfo(float).eps * np.max(np.abs(d))
    assert np.max(np.abs(fc.A - A)) <= bound
    assert np.max(np.abs(fc.B - B)) <= bound


def _dense_harmonics(d):
    """Harmonics 0..nv/2 of ``d`` from the dense cosine and sine products,
    256 rows at a time, the zeroth and the Nyquist cosine terms halved."""
    nv = d.size
    ang = 2.0 * np.pi * np.arange(nv) / nv
    ns = np.arange(nv // 2 + 1)
    A, B = np.empty(ns.size), np.empty(ns.size)
    for block in np.split(ns, range(256, ns.size, 256)):
        m = np.outer(block, ang)
        A[block] = 2.0 / nv * np.cos(m) @ d
        B[block] = 2.0 / nv * np.sin(m) @ d
    A[0] *= 0.5
    if nv > 1:
        A[-1] *= 0.5
    return A, B


# n_max at the mean alone, early in the band, at 255, 256 and 300, and at nv/4;
# at nv 1 the mean is also the Nyquist term, and at nv 2 the Nyquist term is
# never returned
FOURIER_ROW_CASES = sorted({(nv, n_max) for nv in (1, 2, 4, 8, 64, 1024, 4096)
                            for n_max in (0, 4, 255, 256, 300, nv // 4)
                            if nv >= 4 * n_max})


@pytest.mark.parametrize("family", ["sphere", "riemann-reloaded"])
@pytest.mark.parametrize("nv, n_max", FOURIER_ROW_CASES)
def test_fourier_rows_have_the_rfft_bits(family, nv, n_max, grid_patches):
    patch, alpha = grid_patches[family]
    u, d = _fourier_case(patch, alpha, nv)
    fc = fourier_defect(patch, alpha + 0.3, u, n_max=n_max, nv=nv, guard=np.inf)
    c = np.fft.rfft(d)[:n_max + 1] * (2.0 / nv)
    A, B = c.real.copy(), -c.imag
    A[0] = c[0].real / 2.0
    B[0] = 0.0
    assert np.array_equal(fc.A.view(np.int64), A.view(np.int64))
    assert np.array_equal(fc.B.view(np.int64), B.view(np.int64))
    if nv <= 2:
        assert fc.A[0] == d.sum() / nv


# which term decides the threshold: guard * scale, or the floor of summands
# 1e8 times the defect's size; either sits far above the 1e-13 relative error
# of the dense products at high harmonics
@pytest.mark.parametrize("guard, cancel", [(1e-3, 1.0), (0.0, 1e8)],
                         ids=["guard", "floor"])
@pytest.mark.parametrize("nv, n, trig", [(64, 4, np.cos), (64, 17, np.sin),
                                         (64, 32, np.cos), (1024, 300, np.sin),
                                         (1024, 512, np.cos)],
                         ids=["64-cos4", "64-sin17", "64-nyquist", "1024-sin300",
                              "1024-nyquist"])
@pytest.mark.parametrize("side", [1.0 - 1e-6, 1.0 + 1e-6], ids=["below", "above"])
def test_fourier_guard_decides_as_the_dense_products(guard, cancel, nv, n, trig,
                                                     side, monkeypatch):
    # a degree-3 defect with one harmonic n > n_max = 3 planted at side times
    # the guard's threshold
    patch = build_cyclic(parallel_spec(ScalarFunc.from_poly([0.0, 0.3]),
                                       ScalarFunc.from_poly([0.1]),
                                       ScalarFunc.from_poly([1.0, 0.05]), (0.5, 1.5)))
    wave = trig(n * 2.0 * np.pi * np.arange(nv) / nv)
    seen = {}

    def planted(*args, **kwargs):
        d, mag = weighted_defect(*args, **kwargs)
        floor = 1e4 * np.finfo(float).eps * mag * cancel
        amp = 0.0
        for _ in range(4):   # the scale holds the planted term too
            amp = side * max(guard * np.max(np.abs(d + amp * wave)), floor)
        seen["d"], seen["floor"] = d + amp * wave, floor
        return seen["d"], mag * cancel

    monkeypatch.setattr(stationary, "weighted_defect", planted)
    try:
        fourier_defect(patch, 1.3, 1.0, n_max=3, nv=nv, guard=guard)
        fired = False
    except NumericalError:
        fired = True
    d = seen["d"]
    A, B = _dense_harmonics(d)
    top = max(np.max(np.abs(A[4:])), np.max(np.abs(B[4:])))
    assert fired == (top > max(guard * np.max(np.abs(d)), seen["floor"])) == (side > 1.0)


def _cli_child(argv, cwd, threads):
    """Run ``alphasurf ARGV`` in a child with ``threads`` BLAS threads."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    subprocess.run([sys.executable, "-m", "alphasurf.cli", *argv], env=env,
                   cwd=cwd, check=True, stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("nv", [1024, 4096])
def test_fourier_file_does_not_depend_on_blas_threads(nv, tmp_path):
    argv = ["fourier", "--family", "catenoid", "--waist", "1", "--alpha", "0.3",
            "--u", "0.1", "--nv", str(nv), "--nmax", "256"]
    for threads in (1, 2):
        _cli_child(argv + ["--out", f"f{threads}.json"], tmp_path, threads)
    assert filecmp.cmp(tmp_path / "f1.json", tmp_path / "f2.json", shallow=False)


def _flat_patch(bad):
    """The plane z = 1 over [-1, 1]^2, spoiled by ``bad(u, P, Pu)`` where
    u > 0.9 (the last rows of a grid only)."""

    def ev(u, v):
        # u and v as they broadcast, e.g. a tile's rows (t, 1) and v (nv,)
        J = np.zeros((6, *np.broadcast(u, v).shape, 3))
        J[0, ..., 0], J[0, ..., 1], J[0, ..., 2] = u, v, 1.0
        J[1, ..., 0], J[2, ..., 1] = 1.0, 1.0
        bad(np.broadcast_to(u > 0.9, J.shape[1:-1]), J[0], J[1])
        return Jet2(*J)

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
    with pytest.raises(NumericalError, match=r"EG - F\^2 = .+ <= 0"):
        residual_grid(_flat_patch(_degenerate), 0.0, nu, nv)
    with pytest.raises(NumericalError, match=r"EG - F\^2 = .+ <= 0"):
        energy(_flat_patch(_degenerate), 0.0, nu, nv)
    with pytest.raises(NumericalError, match="surface touches the origin"):
        residual_grid(_flat_patch(_through_origin), 1.0, nu, nv)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite integrand sample"):
            energy(_flat_patch(_infinite), 1.0, nu, nv)


def test_verify_1024_grid_peak_memory(tmp_path, peak_rss_mb):
    # no (n, 8) rows without --out or --csv: the 8 MB residual is the grid array
    argv = ["verify", "--family", "catenoid", "--grid", "1024x1024"]
    assert peak_rss_mb(argv, tmp_path) <= 70.0


def test_coeffs_million_samples_peak_memory(tmp_path, peak_rss_mb):
    # without --out, max|A| is taken tile by tile: no (n, 5) result at all
    argv = ["coeffs", "--family", "helicoid", "--samples", "1000000"]
    assert peak_rss_mb(argv, tmp_path) <= 60.0


def test_coeffs_million_samples_file_peak_memory(tmp_path, peak_rss_mb):
    # s and A share one (n, 6) array, A filled a tile at a time: no (n, 5)
    # result beside it, and no np.column_stack copy of both
    argv = ["coeffs", "--family", "helicoid", "--samples", "1000000", "--out", "c.csv"]
    assert peak_rss_mb(argv, tmp_path) <= 95.0


def test_fourier_4096_peak_memory(tmp_path, peak_rss_mb):
    # one rfft of the 4096 samples: no harmonic matrix at all
    argv = ["fourier", "--family", "sphere", "--alpha", "-2", "--u", "1",
            "--nv", "4096"]
    assert peak_rss_mb(argv, tmp_path) <= 60.0


def test_verify_shift_512_grid_peak_memory(tmp_path, peak_rss_mb):
    argv = ["verify-shift", "--family", "catenoid", "--grid", "512x512"]
    assert peak_rss_mb(argv, tmp_path) <= 55.0
