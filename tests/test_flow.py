import numpy as np
import pytest

from alphasurf import flow, output, surface_kernel
from alphasurf.catalog import catenoid_patch, helicoid_patch, sphere_patch
from alphasurf.cli import main
from alphasurf.cyclic import PLANAR_INIT, build_cyclic, frame_from_curvature, frenet_spec
from alphasurf.inversion import invert_patch
from alphasurf.surface_kernel import eval_jet2
from alphasurf.errors import FlowError, OriginInFaceError, ValidationError
from alphasurf.flow import (
    MAX_REJECTS,
    MIN_TRIANGLE_AREA,
    TriMesh,
    descend,
    discrete_energy,
    discrete_gradient,
    read_obj,
    sample_mesh,
    write_obj,
)


def sphere_mesh(nu=16, nv=32, R=1.0, center=(0, 0, 0)):
    return sample_mesh(sphere_patch(center, R), nu, nv)


def torus_mesh(nu=16, nv=16):
    frame = frame_from_curvature(0.5, 0.0, (0.0, 4 * np.pi), PLANAR_INIT,
                                 max_step=2e-3)
    spec = frenet_spec(frame, 0.0, -2.0, 0.0, 0.7, u_periodic=True)
    return sample_mesh(build_cyclic(spec), nu, nv)


def loop_triangulation(patch, nu, nv):
    """The triangulation as it was first written, one Python loop per quad
    band and per pole fan: the oracle for ``sample_mesh``."""
    u0, u1 = patch.u_range
    v0, v1 = patch.v_range
    v = v0 + (v1 - v0) * np.arange(nv) / nv
    lo_fan, hi_fan = patch.u_collapse
    if patch.u_periodic:
        u_rows = u0 + (u1 - u0) * np.arange(nu) / nu
    else:
        u_rows = np.linspace(u0, u1, nu + 1)
        if lo_fan:
            u_rows = u_rows[1:]
        if hi_fan:
            u_rows = u_rows[:-1]
    uu, vv = np.meshgrid(u_rows, v, indexing="ij")
    verts = [eval_jet2(patch, uu, vv).P.reshape(-1, 3)]
    n_rows = len(u_rows)
    idx = np.arange(n_rows * nv).reshape(n_rows, nv)
    tris = []

    def quad_band(row_a, row_b):
        for j in range(nv):
            jn = (j + 1) % nv
            a, b = row_a[j], row_b[j]
            c, d = row_b[jn], row_a[jn]
            tris.append([a, b, c])
            tris.append([a, c, d])

    for i in range(n_rows - 1):
        quad_band(idx[i], idx[i + 1])
    if patch.u_periodic:
        quad_band(idx[-1], idx[0])
    next_vid = n_rows * nv
    if not patch.u_periodic and lo_fan:
        verts.append(eval_jet2(patch, np.array([u0]), np.array([v0])).P)
        for j in range(nv):
            tris.append([next_vid, idx[0][j], idx[0][(j + 1) % nv]])
        next_vid += 1
    if not patch.u_periodic and hi_fan:
        verts.append(eval_jet2(patch, np.array([u1]), np.array([v0])).P)
        for j in range(nv):
            tris.append([next_vid, idx[-1][(j + 1) % nv], idx[-1][j]])
    return np.concatenate(verts, axis=0), np.array(tris)


@pytest.fixture(scope="module")
def torus_patch():
    frame = frame_from_curvature(0.5, 0.0, (0.0, 4 * np.pi), PLANAR_INIT,
                                 max_step=2e-3)
    return build_cyclic(frenet_spec(frame, 0.0, -2.0, 0.0, 0.7, u_periodic=True))


@pytest.mark.parametrize("nu, nv", [(2, 3), (3, 4), (5, 7), (16, 32), (96, 192)])
@pytest.mark.parametrize("family", ["sphere", "catenoid", "inverted-sphere",
                                    "torus"])
def test_sample_mesh_matches_loop_triangulation(family, nu, nv, torus_patch,
                                                monkeypatch):
    patch = {"sphere": sphere_patch((0.1, 0, 0), 1.5),
             "catenoid": catenoid_patch(1.0),
             "inverted-sphere": invert_patch(sphere_patch((0, 0, 2), 1.0)),
             "torus": torus_patch}[family]
    verts, tris = loop_triangulation(patch, nu, nv)
    n_rows = len(verts) // nv   # the pole fans add fewer than nv apexes
    # one row per tile, tiles that leave a shorter last one, the whole grid
    for rows in (1, n_rows // 2 + 1, n_rows):
        monkeypatch.setattr(surface_kernel, "TILE_POINTS", rows * nv)
        mesh = sample_mesh(patch, nu, nv)
        assert np.array_equal(mesh.vertices, verts)
        assert np.array_equal(mesh.triangles, tris)
        assert mesh.triangles.dtype == tris.dtype == np.int64
    # two rows of a u-periodic mesh join twice, along the same edges
    assert mesh.is_closed() == (family != "catenoid"
                                and (nu > 2 or family != "torus"))


def test_export_peak_memory_grows_with_the_mesh_only(tmp_path, peak_rss_mb):
    # the 256x384 catenoid's vertices and triangles take 7.1 MB; the six
    # fields of a whole-grid jet would add 14 MB more
    peaks = [peak_rss_mb(["export", "--family", "catenoid", "--grid", grid,
                          "--export", f"{grid}.obj"], tmp_path)
             for grid in ("256x384", "8x8")]
    assert peaks[0] - peaks[1] <= 14.0


def test_topology_sphere_and_torus():
    m = sphere_mesh()
    assert m.is_closed()
    assert m.euler_characteristic() == 2
    t = torus_mesh()
    assert t.is_closed()
    assert t.euler_characteristic() == 0


def test_open_strip_flagged():
    strip = sample_mesh(catenoid_patch(1.0), 8, 16)
    assert not strip.is_closed()
    with pytest.raises(ValidationError, match="flow requires a closed oriented mesh"):
        descend(strip, 0.0, 1)


def test_flipped_triangle_is_not_closed():
    m = sphere_mesh()
    m.triangles[7] = m.triangles[7][[0, 2, 1]]
    # the flipped face repeats the directed edges of its three neighbours
    assert not m.is_closed()
    with pytest.raises(ValidationError, match="flow requires a closed oriented mesh"):
        descend(m, 0.0, 1)


def test_duplicated_face_is_not_closed():
    m = sphere_mesh()
    m.triangles = np.concatenate([m.triangles, m.triangles[:1]])
    assert not m.is_closed()


def test_descend_rejects_negative_step_count():
    with pytest.raises(ValidationError):
        descend(sphere_mesh(), -2.0, -3)


@pytest.mark.parametrize("step_rule", ["backtracking", "fixed"])
@pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan")])
def test_descend_rejects_a_non_positive_dt(step_rule, dt):
    with pytest.raises(ValidationError, match="time step must be positive"):
        descend(sphere_mesh(8, 16), -2.0, 3, step_rule=step_rule, dt=dt)


def test_meshing_requires_periodic_v():
    with pytest.raises(ValidationError, match="meshing requires a v-periodic patch"):
        sample_mesh(helicoid_patch(1.0), 8, 8)


def test_energy_reference_values():
    m = sphere_mesh(32, 64)
    assert abs(discrete_energy(m, 0.0) - 4 * np.pi) / (4 * np.pi) < 0.005
    assert abs(discrete_energy(m, -2.0) - 4 * np.pi) / (4 * np.pi) < 0.005


def test_energy_scaling_exact():
    m = sphere_mesh(8, 12, center=(0.2, 0, 0.1))
    for alpha in (-2.0, 1.0):
        for lam in (0.5, 3.0):
            scaled = TriMesh(lam * m.vertices, m.triangles)
            assert discrete_energy(scaled, alpha) == pytest.approx(
                lam ** (alpha + 2) * discrete_energy(m, alpha), rel=1e-13)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    mesh = sphere_mesh(8, 12)
    # roughen the mesh so nothing cancels by symmetry
    mesh.vertices = mesh.vertices * (1 + 0.05 * rng.uniform(-1, 1, (len(mesh.vertices), 1)))
    h = 1e-6
    for alpha in (-4.0, -2.0, 0.0, 2.0):
        g = discrete_gradient(mesh, alpha)
        for i in rng.integers(0, len(mesh.vertices), 6):
            for k in range(3):
                vp = mesh.copy()
                vp.vertices[i, k] += h
                vm = mesh.copy()
                vm.vertices[i, k] -= h
                fd = (discrete_energy(vp, alpha)
                      - discrete_energy(vm, alpha)) / (2 * h)
                assert abs(fd - g[i, k]) <= 1e-5 * max(1.0, abs(fd))


def test_gradient_equivariance():
    mesh = sphere_mesh(8, 12, center=(0.3, -0.1, 0.2))
    g = discrete_gradient(mesh, -2.0)
    th = 0.9
    R = np.array([[np.cos(th), 0, np.sin(th)], [0, 1, 0],
                  [-np.sin(th), 0, np.cos(th)]])
    rot = TriMesh(mesh.vertices @ R.T, mesh.triangles)
    g_rot = discrete_gradient(rot, -2.0)
    assert np.max(np.abs(g_rot - g @ R.T)) < 1e-12
    lam = 1.7
    g_sc = discrete_gradient(TriMesh(lam * mesh.vertices, mesh.triangles), -2.0)
    assert np.max(np.abs(g_sc - lam ** (-1.0) * g)) < 1e-12


def test_gradient_refinement_study():
    prev = None
    for n in (16, 32, 64):
        g = discrete_gradient(sphere_mesh(n, 2 * n), -2.0)
        gmax = float(np.max(np.linalg.norm(g, axis=1)))
        if prev is not None:
            assert prev / gmax >= 1.8
        prev = gmax


def test_descent_recovers_perturbed_sphere():
    mesh = sphere_mesh(16, 32)
    E_ref = discrete_energy(mesh, -2.0)
    rng = np.random.default_rng(11)
    pert = mesh.copy()
    radial = pert.vertices / np.linalg.norm(pert.vertices, axis=1, keepdims=True)
    pert.vertices = pert.vertices + 0.01 * radial * rng.uniform(
        -1, 1, (len(pert.vertices), 1))
    g0 = float(np.max(np.linalg.norm(discrete_gradient(pert, -2.0), axis=1)))
    final, trace = descend(pert, -2.0, 200, dt=1e-2)
    energies = [row[1] for row in trace.rows]
    assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
    assert abs(energies[-1] - E_ref) / E_ref < 1e-3
    assert g0 / trace.rows[-1][2] >= 10.0


def test_fixed_step_near_critical_sphere():
    mesh = sphere_mesh(24, 48)
    start = mesh.vertices.copy()
    final, _ = descend(mesh, -2.0, 50, step_rule="fixed", dt=1e-3)
    drift = np.max(np.linalg.norm(final.vertices - start, axis=1))
    assert drift <= 1e-3


def test_area_flow_shrinks_sphere():
    mesh = sphere_mesh(10, 20)
    _, trace = descend(mesh, 0.0, 30, dt=1e-2)
    energies = [row[1] for row in trace.rows]
    assert energies[-1] < energies[0]
    assert all(b <= a for a, b in zip(energies, energies[1:]))


def test_obj_round_trip(tmp_path):
    mesh = sphere_mesh(6, 9)
    path = tmp_path / "m.obj"
    write_obj(mesh, path)
    back = read_obj(path)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.max(np.abs(back.vertices - mesh.vertices)) == 0.0


def test_mesh_validation():
    with pytest.raises(ValidationError):
        TriMesh(np.zeros((3, 3)), [[0, 1, 5]])


# ---------------------------------------------------------------------------
# the flow as it was first written, with np.cross, np.linalg.norm, np.add.at
# and a separate geometry pass for every use: the oracle for the one-pass
# geometry, which must give the same bits


def oracle_geometry(verts, tris):
    v = verts[tris]
    cent = v.mean(axis=1)
    avec = 0.5 * np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    return cent, avec, np.linalg.norm(avec, axis=-1)


def oracle_energy(mesh, alpha):
    cent, _, area = oracle_geometry(mesh.vertices, mesh.triangles)
    c2 = np.einsum("ij,ij->i", cent, cent)
    if np.any(c2 <= 0.0):
        raise OriginInFaceError("triangle centroid at the origin")
    return float(np.sum(c2 ** (alpha / 2.0) * area))


def oracle_gradient(mesh, alpha):
    tri = mesh.triangles
    v = mesh.vertices[tri]
    cent, avec, area = oracle_geometry(mesh.vertices, tri)
    if np.any(area <= MIN_TRIANGLE_AREA):
        raise FlowError("degenerate triangle in gradient evaluation")
    c2 = np.einsum("ij,ij->i", cent, cent)
    if np.any(c2 <= 0.0):
        raise OriginInFaceError("triangle centroid at the origin")
    w = c2 ** (alpha / 2.0)
    nhat = avec / area[:, None]
    grad = np.zeros_like(mesh.vertices)
    for k in range(3):
        e = v[:, (k + 1) % 3] - v[:, (k + 2) % 3]
        term = w[:, None] * (0.5 * np.cross(e, nhat))
        if alpha != 0.0:
            term = term + ((alpha / 3.0) * c2 ** (alpha / 2.0 - 1.0)
                           * area)[:, None] * cent
        np.add.at(grad, tri[:, k], term)
    return grad


def oracle_descend(mesh, alpha, steps, step_rule="backtracking", dt=1e-3):
    def min_area(verts):
        return float(np.min(oracle_geometry(verts, mesh.triangles)[2]))

    cur = mesh.copy()
    energy = oracle_energy(cur, alpha)
    trace = []
    if step_rule == "backtracking":
        dt = min(dt, 1.0)
    for step in range(steps):
        g = oracle_gradient(cur, alpha)
        trace.append((step, energy, float(np.max(np.linalg.norm(g, axis=-1))), dt))
        if step_rule == "fixed":
            cand = cur.vertices - dt * g
            if min_area(cand) <= MIN_TRIANGLE_AREA:
                raise FlowError("triangle degenerated", step=step)
            cur.vertices = cand
            energy = oracle_energy(cur, alpha)
            continue
        g2 = float(np.sum(g * g))
        rejects = 0
        while True:
            cand = cur.vertices - dt * g
            ok = min_area(cand) > MIN_TRIANGLE_AREA
            if ok:
                try:
                    e_new = oracle_energy(TriMesh(cand, mesh.triangles), alpha)
                except OriginInFaceError:
                    ok = False
            if ok and e_new <= energy - 1e-4 * dt * g2:
                cur.vertices = cand
                energy = e_new
                dt = min(dt * 1.5, 1.0)
                break
            dt *= 0.5
            rejects += 1
            if rejects > MAX_REJECTS:
                raise FlowError("consecutive rejections", step=step)
    g = oracle_gradient(cur, alpha)
    trace.append((steps, energy, float(np.max(np.linalg.norm(g, axis=-1))), dt))
    return cur, trace


def perturbed_mesh(family, torus_patch):
    """A small closed mesh of each kind, roughened so nothing cancels."""
    patch = {"sphere": sphere_patch((0.2, -0.1, 0.1), 1.0),
             "inverted-sphere": invert_patch(sphere_patch((0, 0, 2), 1.0)),
             "torus": torus_patch}[family]
    mesh = sample_mesh(patch, 6, 10)
    rng = np.random.default_rng(5)
    mesh.vertices = mesh.vertices * (1 + 0.02 * rng.uniform(-1, 1, (len(mesh.vertices), 1)))
    return mesh


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("step_rule", ["backtracking", "fixed"])
@pytest.mark.parametrize("alpha", [-4.0, -2.0, 0.0, 2.0])
@pytest.mark.parametrize("family", ["sphere", "inverted-sphere", "torus"])
def test_flow_matches_the_oracle_bit_for_bit(family, alpha, step_rule, torus_patch):
    mesh = perturbed_mesh(family, torus_patch)
    assert same_bits(discrete_energy(mesh, alpha), oracle_energy(mesh, alpha))
    assert same_bits(discrete_gradient(mesh, alpha), oracle_gradient(mesh, alpha))
    final, trace = descend(mesh, alpha, 12, step_rule=step_rule)
    ref_final, ref_rows = oracle_descend(mesh, alpha, 12, step_rule)
    assert same_bits(trace.rows, ref_rows)
    assert same_bits(final.vertices, ref_final.vertices)
    assert not np.array_equal(final.vertices, mesh.vertices)


def test_backtracking_with_rejections_matches_the_oracle(torus_patch):
    mesh = perturbed_mesh("sphere", torus_patch)
    final, trace = descend(mesh, -2.0, 20, dt=1.0)
    ref_final, ref_rows = oracle_descend(mesh, -2.0, 20, dt=1.0)
    assert same_bits(trace.rows, ref_rows)
    assert same_bits(final.vertices, ref_final.vertices)
    # an accepted step grows dt by 1.5 (up to 1), a rejected one halves it
    dts = [row[3] for row in trace.rows]
    assert sum(b < min(1.5 * a, 1.0) for a, b in zip(dts, dts[1:])) >= 2


@pytest.mark.parametrize("dt", [1.5, 1e200])
def test_backtracking_starts_at_most_at_a_unit_step(dt, torus_patch):
    # a first dt above 1 is the dt of 1 that every accepted step is capped at
    mesh = perturbed_mesh("sphere", torus_patch)
    final, trace = descend(mesh, -2.0, 20, dt=dt)
    ref_final, ref_trace = descend(mesh, -2.0, 20, dt=1.0)
    assert trace.rows[0][3] == 1.0
    assert same_bits(trace.rows, ref_trace.rows)
    assert same_bits(final.vertices, ref_final.vertices)


def test_flow_command_runs_from_a_huge_first_step(capsys):
    argv = ["flow", "--family", "sphere", "--alpha", "-2", "--grid", "8x16",
            "--perturb", "0.01", "--steps", "3"]
    assert main(argv + ["--dt", "1e200"]) == 0
    huge = capsys.readouterr().out
    assert main(argv + ["--dt", "1"]) == 0
    assert huge == capsys.readouterr().out


def shrunk_sphere(excess):
    """A sphere scaled until its smallest triangle has area
    MIN_TRIANGLE_AREA * (1 + excess); area flow shrinks every triangle."""
    mesh = sphere_mesh(4, 6)
    amin = np.min(oracle_geometry(mesh.vertices, mesh.triangles)[2])
    mesh.vertices = mesh.vertices * np.sqrt(MIN_TRIANGLE_AREA * (1 + excess) / amin)
    assert np.min(oracle_geometry(mesh.vertices, mesh.triangles)[2]) > MIN_TRIANGLE_AREA
    return mesh


def test_fixed_step_degenerates_at_the_oracle_step():
    mesh = shrunk_sphere(1.0)
    with pytest.raises(FlowError, match="triangle degenerated") as ref:
        oracle_descend(mesh, 0.0, 30, "fixed", dt=0.05)
    with pytest.raises(FlowError, match="triangle degenerated at step 6") as new:
        descend(mesh, 0.0, 30, step_rule="fixed", dt=0.05)
    assert new.value.step == ref.value.step == 6


def test_backtracking_stalls_where_the_oracle_stalls():
    # one part in 1e15 above the bound: every candidate down to dt / 2^51
    # shrinks the smallest triangle past it
    mesh = shrunk_sphere(1e-15)
    with pytest.raises(FlowError, match="consecutive rejections") as ref:
        oracle_descend(mesh, 0.0, 5, dt=1.0)
    with pytest.raises(FlowError, match="consecutive rejections") as new:
        descend(mesh, 0.0, 5, dt=1.0)
    assert new.value.step == ref.value.step == 0


# ---------------------------------------------------------------------------
# the component-major state of the descent: (3, n) and (3, m) buffers that
# the meshes see as (n, 3) and (m, 3) views, with the bits of the row layout


@pytest.mark.parametrize("layout", ["contiguous", "view"])
def test_flow_reductions_keep_the_bits_of_the_row_layout(layout):
    # if a numpy build sums these in another order, this fails before the
    # flow's trace and OBJ bytes silently move
    rng = np.random.default_rng(23)
    m = 100_000
    rows = rng.standard_normal((3 * m, 3)) * 10.0 ** rng.uniform(-3, 3, (3 * m, 1))
    if layout == "contiguous":
        verts, tris = rows.T.copy(), np.arange(3 * m).reshape(3, m)
    else:
        verts, tris = rows.T, np.arange(3 * m).reshape(m, 3).T
    cent, _, _, c2 = flow._geometry(verts, tris)
    rows_c = np.ascontiguousarray(cent.T)
    assert same_bits(c2, surface_kernel._dot(rows_c, rows_c))
    assert same_bits(c2, surface_kernel._dot(cent.T, cent.T))
    # gradients of 1,000 to 3,000 rows, as discrete_gradient returns them
    # (views of (3, n) buffers) or C-ordered; summed over a (3, n) buffer,
    # about a quarter of them would differ in the last bit of g2
    grads = rng.standard_normal((3 * m, 3))
    for g in np.split(grads, np.cumsum(rng.integers(1000, 3001, 150))[:-1]):
        gmax, g2 = flow._norms(g.T.copy().T if layout == "view" else g)
        assert same_bits(gmax, float(np.linalg.norm(g, axis=-1).max()))
        assert same_bits(g2, float(np.sum(g * g)))


@pytest.mark.parametrize("alpha", [-4.0, -2.0, 0.0, 2.0])
@pytest.mark.parametrize("family", ["sphere", "inverted-sphere", "torus"])
def test_views_of_component_major_buffers_match_the_oracle(family, alpha,
                                                           torus_patch):
    mesh = perturbed_mesh(family, torus_patch)
    verts, tris = mesh.vertices.T.copy(), mesh.triangles.T.copy()
    view = TriMesh(verts.T, tris.T)
    # the mesh keeps the views, and works on the buffers beneath them
    assert view.vertices.base is verts and view.triangles.base is tris
    assert same_bits(discrete_energy(view, alpha), oracle_energy(mesh, alpha))
    assert same_bits(discrete_gradient(view, alpha), oracle_gradient(mesh, alpha))


@pytest.mark.parametrize("step_rule", ["backtracking", "fixed"])
def test_descend_leaves_its_input_mesh_unchanged(step_rule, torus_patch):
    mesh = perturbed_mesh("sphere", torus_patch)
    before = mesh.vertices.tobytes(), mesh.triangles.tobytes()
    final, _ = descend(mesh, -2.0, 12, step_rule=step_rule)
    assert (mesh.vertices.tobytes(), mesh.triangles.tobytes()) == before
    # a descent from a descended mesh, whose arrays are views, leaves it too
    before = final.vertices.tobytes(), final.triangles.tobytes()
    again, _ = descend(final, -2.0, 12, step_rule=step_rule)
    assert (final.vertices.tobytes(), final.triangles.tobytes()) == before
    assert not np.array_equal(again.vertices, final.vertices)


def test_descended_mesh_writes_the_obj_of_a_contiguous_copy(tmp_path):
    # more vertices than one formatting block
    final, _ = descend(sphere_mesh(48, 96, R=1.1), -2.0, 3)
    assert not final.vertices.flags.c_contiguous
    assert len(final.vertices) > output.BLOCK_ROWS
    write_obj(final, tmp_path / "views.obj")
    write_obj(TriMesh(np.ascontiguousarray(final.vertices),
                      np.ascontiguousarray(final.triangles)), tmp_path / "copy.obj")
    assert (tmp_path / "views.obj").read_bytes() == (tmp_path / "copy.obj").read_bytes()
