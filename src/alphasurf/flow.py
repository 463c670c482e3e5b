"""Discrete weighted-area energy and gradient descent on triangle meshes.

The energy sums |centroid|^alpha * area over triangles, which keeps the
gradient with respect to every vertex in closed form: a weighted area
gradient plus the derivative of the centroid weight.  Descent with
backtracking is monotone by construction and is used to confirm that the
smooth stationary surfaces are critical points of the discretized energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import output
from .errors import FlowError, OriginInFaceError, ValidationError
from .surface_kernel import ParametricPatch, _cross, _dot, _tiles, eval_jet2

MIN_TRIANGLE_AREA = 1e-14

# consecutive backtracking rejections before a descent step gives up
MAX_REJECTS = 50


@dataclass
class TriMesh:
    """Indexed triangle mesh; triangles wind consistently when closed."""

    vertices: np.ndarray   # (n, 3)
    triangles: np.ndarray  # (m, 3) int

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise ValidationError("triangle index out of range")

    def copy(self):
        return TriMesh(self.vertices.copy(), self.triangles.copy())

    def edge_count(self):
        e = np.sort(self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        return len(np.unique(e, axis=0))

    def euler_characteristic(self):
        return len(self.vertices) - self.edge_count() + len(self.triangles)

    def is_closed(self):
        """Every directed edge appears exactly once, and so does its reverse."""
        d = self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        n = len(self.vertices)
        fwd = np.sort(d[:, 0] * n + d[:, 1])
        if np.any(fwd[1:] == fwd[:-1]):
            return False
        return np.array_equal(fwd, np.sort(d[:, 1] * n + d[:, 0]))


def _geometry(verts, tris):
    """(centroids, area vectors, areas, |centroid|^2) of every triangle of a
    (3, n) vertex and (3, m) index array, row by row, with the bits of
    ``v.mean(axis=1)``, half numpy's ``cross`` and ``np.linalg.norm`` on (m, 3)
    rows.  |centroid|^2 is ``_dot`` of the (m, 3) view."""
    v0, v1, v2 = (verts.take(t, axis=1) for t in tris)
    cent = (v0 + v1 + v2) / 3.0
    avec = _cross((v1 - v0).T, (v2 - v0).T, np.empty_like(cent).T).T
    avec *= 0.5
    sx, sy, sz = avec * avec
    return cent, avec, np.sqrt(sx + sy + sz), _dot(cent.T, cent.T)


# ---------------------------------------------------------------------------
# sampling patches into meshes


def sample_mesh(patch: ParametricPatch, nu: int, nv: int) -> TriMesh:
    """Structured triangulation of a patch.

    The v direction must be periodic.  In u, periodic patches wrap around
    and collapse-flagged endpoints (sphere poles) are closed with vertex
    fans; otherwise the mesh is open (flow refuses it, but export works).
    Both arrays are filled in place at their final size, the vertices one
    ``_tiles`` slice of u-rows at a time, so no full-grid jet is ever held.
    """
    if not patch.v_periodic:
        raise ValidationError("meshing requires a v-periodic patch")
    if nu < 2 or nv < 3:
        raise ValidationError("need nu >= 2 and nv >= 3")
    u0, u1 = patch.u_range
    v0, v1 = patch.v_range
    v = v0 + (v1 - v0) * np.arange(nv) / nv
    lo_fan, hi_fan = patch.u_collapse

    if patch.u_periodic:
        u_rows = u0 + (u1 - u0) * np.arange(nu) / nu
        lo_fan = hi_fan = False
    else:
        u_rows = np.linspace(u0, u1, nu + 1)[int(lo_fan):nu + 1 - int(hi_fan)]

    # quad (a, b, c, d) joins columns j, j+1 of rows i, i+1 (row 0 after the
    # last one when u wraps); it splits into (a, b, c) and (a, c, d)
    idx = np.arange(len(u_rows) * nv).reshape(-1, nv)
    a = idx if patch.u_periodic else idx[:-1]
    b = np.roll(idx, -1, axis=0)[:len(a)]
    c, d = np.roll(b, -1, axis=1), np.roll(a, -1, axis=1)
    verts = np.empty((idx.size + lo_fan + hi_fan, 3))
    tris = np.empty((2 * a.size + nv * (lo_fan + hi_fan), 3), dtype=np.int64)
    grid = verts[:idx.size].reshape(-1, nv, 3)
    for sl in _tiles(len(u_rows), nv):
        grid[sl] = eval_jet2(patch, u_rows[sl, None], v).P
    quads = tris[:2 * a.size].reshape(*a.shape, 6)
    for k, corner in enumerate((a, b, c, a, c, d)):
        quads[..., k] = corner
    # each pole fan joins its apex to the nearest ring, wound outwards
    apex, fan_tris = idx.size, tris[2 * a.size:]
    for fan, u_end, left, right in ((lo_fan, u0, idx[0], np.roll(idx[0], -1)),
                                    (hi_fan, u1, np.roll(idx[-1], -1), idx[-1])):
        if fan:
            verts[apex] = eval_jet2(patch, np.array([u_end]), np.array([v0])).P
            fan_tris[:nv, 0], fan_tris[:nv, 1], fan_tris[:nv, 2] = apex, left, right
            apex, fan_tris = apex + 1, fan_tris[nv:]
    return TriMesh(verts, tris)


# ---------------------------------------------------------------------------
# energy and gradient


def discrete_energy(mesh: TriMesh, alpha: float, *, _geom=None) -> float:
    """Sum of |centroid|^alpha * area; ``_geom``: the mesh's ``_geometry``."""
    _, _, area, c2 = (_geometry(mesh.vertices.T, mesh.triangles.T)
                      if _geom is None else _geom)
    if np.any(c2 <= 0.0):
        raise OriginInFaceError("triangle centroid at the origin")
    return float(np.sum(c2 ** (alpha / 2.0) * area))


def discrete_gradient(mesh: TriMesh, alpha: float, *, _geom=None) -> np.ndarray:
    """Exact per-vertex gradient of ``discrete_energy``, an (n, 3) view of a
    (3, n) array; ``_geom`` as there, whose area vectors it overwrites."""
    verts, tri = mesh.vertices.T, mesh.triangles.T
    cent, avec, area, c2 = _geometry(verts, tri) if _geom is None else _geom
    bad = area <= MIN_TRIANGLE_AREA
    if np.any(bad):
        raise FlowError(f"{int(bad.sum())} degenerate triangle(s) in gradient evaluation")
    if np.any(c2 <= 0.0):
        raise OriginInFaceError("triangle centroid at the origin")
    nhat = np.divide(avec, area, out=avec)   # in place: a lower peak
    # the area gradient at a corner is (opposite edge) x nhat / 2; terms is
    # (component, corner, triangle), so each component is one contiguous row
    v = [verts.take(t, axis=1) for t in tri]
    terms = np.empty((3, 3, len(area)))
    for k, term in enumerate(terms.swapaxes(0, 1)):
        _cross((v[(k + 1) % 3] - v[(k + 2) % 3]).T, nhat.T, term.T)
    del v   # freed before the weights and the centroid term: a lower peak
    terms *= 0.5
    terms *= c2 ** (alpha / 2.0)
    if alpha != 0.0:   # the centroid weight's share, the same at each corner
        terms += ((alpha / 3.0) * c2 ** (alpha / 2.0 - 1.0) * area * cent)[:, None]
    # bincount adds corner 0, 1, 2 in triangle order from zero: the bits
    # of np.add.at corner by corner
    idx, n = tri.ravel(), verts.shape[1]
    return np.stack([np.bincount(idx, row.ravel(), n) for row in terms]).T


# ---------------------------------------------------------------------------
# descent


@dataclass
class FlowTrace:
    rows: list  # (step, energy, grad_max, dt)

    def write_csv(self, path):
        output.write_csv(path, ["step", "energy", "grad_max", "dt"], self.rows)


def _norms(g):
    """(largest row norm, sum of squares) of an (n, 3) array with the bits of a
    C-ordered one: ``np.sum`` over a (3, n) buffer pairs its terms otherwise."""
    return (float(np.max(np.linalg.norm(g, axis=-1))),
            float(np.sum(np.multiply(g, g, order="C"))))


def descend(mesh: TriMesh, alpha: float, steps: int, step_rule="backtracking",
            dt=1e-3):
    """Gradient descent on the discrete energy.

    ``step_rule`` is "backtracking" (monotone, halves dt on rejection) or
    "fixed" (constant dt, no acceptance test).  Returns (mesh, FlowTrace).
    A candidate's geometry serves its area test, energy and next gradient.
    """
    if step_rule not in ("backtracking", "fixed"):
        raise ValidationError(f"unknown step rule {step_rule!r}")
    if steps < 0:
        raise ValidationError(f"step count must be non-negative, got {steps}")
    if not (dt > 0):   # NaN too
        raise ValidationError(f"time step must be positive, got {dt}")
    if not mesh.is_closed():
        raise ValidationError("flow requires a closed oriented mesh")
    # component-major state: (3, n) vertex buffers that trade places on
    # acceptance and one (3, m) index buffer, seen (n, 3) and (m, 3) by both meshes
    verts, tris = mesh.vertices.T.copy(), mesh.triangles.T.copy()
    geom = _, _, area, _ = _geometry(verts, tris)
    if np.any(area <= MIN_TRIANGLE_AREA):
        raise ValidationError("mesh contains a degenerate triangle")
    if np.any(np.linalg.norm(mesh.vertices, axis=-1) < 1e-9):
        raise ValidationError("mesh has a vertex at the origin")
    cur, cand = TriMesh(verts.T, tris.T), TriMesh(np.empty_like(verts).T, tris.T)
    energy = discrete_energy(cur, alpha, _geom=geom)
    trace = []
    # backtracking never tries a step above 1.0, the first one included
    dt = float(dt) if step_rule == "fixed" else min(float(dt), 1.0)
    for step in range(int(steps)):
        g = discrete_gradient(cur, alpha, _geom=geom)
        geom = None   # each candidate builds its own
        gmax, g2 = _norms(g)
        trace.append((step, energy, gmax, dt))
        rejects = 0
        while True:
            c = cand.vertices.T
            np.subtract(cur.vertices.T, np.multiply(g.T, dt, out=c), out=c)
            geom = _, _, area, _ = _geometry(c, tris)
            ok = np.min(area) > MIN_TRIANGLE_AREA
            if step_rule == "fixed":
                if not ok:   # NaN too
                    raise FlowError(f"triangle degenerated at step {step}", step=step)
                cur, cand = cand, cur
                energy = discrete_energy(cur, alpha, _geom=geom)
                break
            if ok:
                try:
                    e_new = discrete_energy(cand, alpha, _geom=geom)
                except OriginInFaceError:
                    ok = False
            if ok and e_new <= energy - 1e-4 * dt * g2:
                cur, cand = cand, cur
                energy = e_new
                dt = min(dt * 1.5, 1.0)
                break
            dt *= 0.5
            rejects += 1
            if rejects > MAX_REJECTS:
                raise FlowError(
                    f"step {step}: {rejects} consecutive rejections", step=step)
    g = discrete_gradient(cur, alpha, _geom=geom)
    trace.append((int(steps), energy, _norms(g)[0], dt))
    return cur, FlowTrace(trace)


# ---------------------------------------------------------------------------
# OBJ I/O


def write_obj(mesh: TriMesh, path):
    output.write_obj(path, mesh.vertices, mesh.triangles)


def read_obj(path) -> TriMesh:
    verts, tris = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                if len(parts) != 4:
                    raise ValidationError("only triangle faces are supported")
                tris.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
    if not verts or not tris:
        raise ValidationError(f"no mesh data in {path!r}")
    return TriMesh(np.array(verts), np.array(tris))
