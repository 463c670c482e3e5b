"""The benchmark's workloads: seeded lists of ``alphasurf`` commands.

Each command carries its reference check.  The checks use oracles that do
not come from the code under test: closed-form values (the sphere's
energy 4*pi*R^(alpha+2)), the fact that the families run here are exactly
stationary at their alpha (so sup-residuals, defect harmonics and ruled
coefficients must sit below a stated tolerance), grid arithmetic for row,
vertex and face counts, and the monotonicity that backtracking promises.
A check returns (problems, error), where ``error`` is the accuracy figure
that feeds ``err_log10``, or None.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable

# Tolerances on the sup-residual of exactly stationary families.
TOL_ANALYTIC = 1e-10   # closed-form jets: roundoff only
TOL_GENERATED = 1e-6   # ODE families carried by quintic Hermite tables

# Commands that fail at the parent commit for a known reason.  They stay
# in the workloads and count as failed operations, with this exit code.
KNOWN_DEFECTS = {
    "fourier-catenoid-alpha0": (3, "band-limit guard fires on an exact minimal "
                                   "surface: roundoff floor built after cancellation"),
    "coeffs-ruled-table": (2, "801-node ruled spec table loses the striction and "
                              "arc-length conditions checked at 1e-6"),
}

_SUP = re.compile(r"sup\|residual\| = (\S+) over (\d+) samples")
_SHIFT = re.compile(r"source sup\|residual\| = (\S+) at alpha=\S+; "
                    r"image sup\|residual\| = (\S+) at alpha=")
_ENERGY = re.compile(r"energy = (\S+)")
_AMPS = re.compile(r"harmonic amplitudes: (.*)")
_COEFFS = re.compile(r"max\|A_n\| = (\S+) over (\d+) samples")
_GEN = re.compile(r"generated; sup\|residual\| = (\S+) at alpha=")
_FLOW = re.compile(r"energy (\S+) -> (\S+); grad_max (\S+) -> (\S+) in (\d+) steps")
_EXPORT = re.compile(r"wrote (\d+) vertices, (\d+) triangles")


@dataclass
class Result:
    out: str     # stdout of a command that exited 0
    files: dict  # output role -> path


@dataclass
class Command:
    name: str
    args: list
    check: Callable
    outputs: dict = field(default_factory=dict)  # role -> path
    known_defect: str | None = None
    largest_bytes: int = 0  # computed size of the largest array it allocates


@dataclass
class Workload:
    name: str
    commands: list
    prep: dict  # inputs prep.py writes before anything is timed


def _match(regex, text):
    m = regex.search(text)
    if m is None:
        raise ValueError(f"output line {regex.pattern!r} missing")
    return m


def _below(label, value, tol):
    return [] if value <= tol else [f"{label} {value:.3g} above {tol:.0e}"]


def _check_sup(tol, samples):
    def check(res):
        m = _match(_SUP, res.out)
        sup, n = float(m[1]), int(m[2])
        probs = _below("sup residual", sup, tol)
        if n != samples:
            probs.append(f"{n} samples, expected {samples}")
        return probs, sup
    return check


def _check_shift(tol):
    def check(res):
        m = _match(_SHIFT, res.out)
        worst = max(float(m[1]), float(m[2]))
        return _below("sup residual", worst, tol), worst
    return check


def _check_energy(radius, alpha):
    ref = 4.0 * math.pi * radius ** (alpha + 2.0)

    def check(res):
        value = float(_match(_ENERGY, res.out)[1])
        return _below("energy relative error", abs(value - ref) / ref, 1e-10), None
    return check


def _check_amplitudes(tol):
    def check(res):
        amps = [float(t.split(":")[1]) for t in _match(_AMPS, res.out)[1].split()]
        return _below("largest harmonic", max(amps), tol), None
    return check


def _check_coeffs(tol, samples, csv_role=None):
    def check(res):
        m = _match(_COEFFS, res.out)
        probs = [] if tol is None else _below("max |A_n|", float(m[1]), tol)
        if int(m[2]) != samples:
            probs.append(f"{m[2]} samples, expected {samples}")
        if csv_role:
            rows = _read_csv(res.files[csv_role])
            probs += _rows_problem(rows, samples, 6)
        return probs, None
    return check


def _check_generate(tol, solution_rows):
    def check(res):
        sup = float(_match(_GEN, res.out)[1])
        probs = _below("sup residual", sup, tol)
        with open(res.files["family"]) as fh:
            kind = json.load(fh)["kind"]
        if kind not in ("frenet_cyclic", "parallel_cyclic"):
            probs.append(f"family kind {kind!r}")
        if "solution" in res.files:
            probs += _rows_problem(_read_csv(res.files["solution"]), solution_rows, 4)
        return probs, sup
    return check


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(x) for x in row] for row in rows[1:]]


def _rows_problem(rows, n, width):
    if len(rows) != n:
        return [f"{len(rows)} rows, expected {n}"]
    if any(len(r) != width or not all(map(math.isfinite, r)) for r in rows):
        return [f"row not {width} finite numbers"]
    return []


def _report_problems(rep, n, tol):
    rows = rep["rows"]
    probs = _rows_problem(rows, n, 8)
    if rep["sample_count"] != n:
        probs.append(f"sample_count {rep['sample_count']}, expected {n}")
    if not probs and max(abs(r[7]) for r in rows) != rep["sup_abs"]:
        probs.append("sup_abs is not the largest |residual| row")
    return probs + _below("sup residual", rep["sup_abs"], tol)


def _check_report_json(n, tol):
    def check(res):
        with open(res.files["json"]) as fh:
            rep = json.load(fh)
        return _report_problems(rep, n, tol), rep["sup_abs"]
    return check


def _check_report_csv(n, tol):
    def check(res):
        rows = _read_csv(res.files["csv"])
        probs = _rows_problem(rows, n, 8)
        sup = max(abs(r[7]) for r in rows) if rows else math.inf
        return probs + _below("sup residual", sup, tol), sup
    return check


def _check_shift_json(n, tol):
    def check(res):
        with open(res.files["json"]) as fh:
            doc = json.load(fh)
        probs = (_report_problems(doc["source"], n, tol)
                 + _report_problems(doc["image"], n, tol))
        return probs, max(doc["source"]["sup_abs"], doc["image"]["sup_abs"])
    return check


def _obj_counts(path):
    nv = nf = 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                nv += 1
            elif line.startswith("f "):
                nf += 1
    return nv, nf


def _check_mesh(vertices, faces, printed=True):
    def counts(res):
        probs = []
        got = _obj_counts(res.files["obj"])
        if got != (vertices, faces):
            probs.append(f"OBJ has {got[0]} vertices/{got[1]} faces, "
                         f"expected {vertices}/{faces}")
        if printed:
            m = _match(_EXPORT, res.out)
            if (int(m[1]), int(m[2])) != (vertices, faces):
                probs.append("printed counts differ from the grid")
        return probs, None
    return counts


def _check_flow(steps, monotone, mesh=None):
    def check(res):
        m = _match(_FLOW, res.out)
        rows = _read_csv(res.files["trace"])
        probs = _rows_problem(rows, steps + 1, 4)
        if not probs:
            energies = [r[1] for r in rows]
            if monotone and any(b > a for a, b in zip(energies, energies[1:])):
                probs.append("backtracking energy increased")
            if abs(float(m[4]) - rows[-1][2]) > 1e-2 * rows[-1][2]:  # printed %.3g
                probs.append("printed grad_max differs from the trace")
        if mesh is not None:
            probs += mesh(res)[0]
        return probs, rows[-1][2] if rows else None
    return check


def _fmt(x):
    return f"{x:.6f}"


def _grid(nu, nv):
    return f"{nu}x{nv}"


def _rows_bytes(nu, nv):
    return nu * nv * 8 * 8   # residual report rows: 8 float64 columns


def _jet_bytes(nu, nv):
    return nu * nv * 3 * 8   # one jet field: 3 float64 per point


def grid_eval(seed, work):
    """Dense evaluation printed to the console; no result files."""
    rng = random.Random(seed)
    u = rng.uniform
    waist, waist2 = u(0.9, 1.1), u(0.9, 1.1)
    centre = ",".join(_fmt(u(-0.2, 0.2)) for _ in range(3))  # passed as --center=x,y,z
    pitch = u(0.8, 1.25)
    spiral = f"{_fmt(u(0.5, 0.7))}:{_fmt(u(1.8, 2.2))}"
    radius, alpha = u(0.8, 1.25), u(-1.5, 1.0)
    radius2, u_sphere, u_cat = u(0.8, 1.25), u(0.4, 2.7), u(-1.0, 1.0)
    ruled_alpha = u(-1.0, 1.0)
    riemann = [u(0.25, 0.35), u(0.95, 1.05), 0.8]
    g, g2, nv = 1024, 512, 4096
    cmds = [
        Command("verify-catenoid",
                ["verify", "--family", "catenoid", "--waist", _fmt(waist),
                 f"--center={centre}", "--alpha", "0", "--grid", _grid(g, g)],
                _check_sup(TOL_ANALYTIC, g * g), largest_bytes=_rows_bytes(g, g)),
        Command("verify-helicoid",
                ["verify", "--family", "helicoid", "--pitch", _fmt(pitch),
                 "--alpha", "0", "--grid", _grid(g, g)],
                _check_sup(TOL_ANALYTIC, g * g), largest_bytes=_rows_bytes(g, g)),
        Command("verify-log-spiral",
                ["verify", "--family", "log-spiral-neg2", "--u-range", spiral,
                 "--alpha", "-2", "--grid", _grid(g, g)],
                _check_sup(TOL_ANALYTIC, g * g), largest_bytes=_rows_bytes(g, g)),
        Command("verify-shift-catenoid",
                ["verify-shift", "--family", "catenoid", "--waist", _fmt(waist2),
                 "--alpha", "0", "--grid", _grid(g2, g2)],
                _check_shift(TOL_ANALYTIC), largest_bytes=_rows_bytes(g2, g2)),
        Command("energy-sphere",
                ["energy", "--family", "sphere", "--radius", _fmt(radius),
                 "--alpha", _fmt(alpha), "--grid", _grid(g, g)],
                _check_energy(float(_fmt(radius)), float(_fmt(alpha))),
                largest_bytes=_jet_bytes(g, g)),
        Command("fourier-sphere",
                ["fourier", "--family", "sphere", "--radius", _fmt(radius2),
                 "--alpha", "-2", "--u", _fmt(u_sphere), "--nv", str(nv)],
                _check_amplitudes(TOL_ANALYTIC),
                largest_bytes=(nv // 2 + 1) * nv * 8),
        Command("fourier-catenoid",
                ["fourier", "--family", "catenoid", "--waist", _fmt(waist),
                 "--alpha", "0", "--u", _fmt(u_cat), "--nv", str(nv)],
                _check_amplitudes(TOL_ANALYTIC), known_defect="fourier-catenoid-alpha0",
                largest_bytes=(nv // 2 + 1) * nv * 8),
        Command("coeffs-helicoid",
                ["coeffs", "--family", "helicoid", "--alpha", "0",
                 "--samples", "1000000"],
                _check_coeffs(TOL_ANALYTIC, 1000000), largest_bytes=1000000 * 5 * 8),
    ]
    for k in range(2):
        out = str(work / f"coeffs_{k}.csv")
        cmds.append(Command(
            f"coeffs-ruled-{k}",
            ["coeffs", "--spec", str(work / f"ruled_{k}.json"),
             "--alpha", _fmt(ruled_alpha), "--samples", "4096", "--out", out],
            _check_coeffs(None, 4096, "csv"), outputs={"csv": out},
            known_defect="coeffs-ruled-table", largest_bytes=4096 * 5 * 8))
    cmds.append(Command(
        "verify-riemann",
        ["verify", "--spec", str(work / "riemann.json"), "--alpha", "0",
         "--grid", _grid(g2, g2)],
        _check_sup(TOL_GENERATED, g2 * g2), largest_bytes=_rows_bytes(g2, g2)))
    return Workload("grid-eval", cmds, {"ruled": 2, "riemann": riemann})


def report_write(seed, work):
    """The grid layers again, writing large JSON, CSV and OBJ files."""
    rng = random.Random(seed)
    u = rng.uniform
    radius, waist, waist2, waist3 = (u(0.8, 1.25), u(0.9, 1.1),
                                     u(0.9, 1.1), u(0.9, 1.1))
    rep_json, rep_csv = str(work / "report.json"), str(work / "report.csv")
    shift_json, mesh_obj = str(work / "shift.json"), str(work / "mesh.obj")
    cmds = [
        Command("verify-json",
                ["verify", "--family", "sphere", "--radius", _fmt(radius),
                 "--alpha", "-2", "--grid", "384x320", "--out", rep_json],
                _check_report_json(384 * 320, TOL_ANALYTIC),
                outputs={"json": rep_json}, largest_bytes=_rows_bytes(384, 320)),
        Command("verify-csv",
                ["verify", "--family", "catenoid", "--waist", _fmt(waist),
                 "--alpha", "0", "--grid", "320x256", "--csv", rep_csv],
                _check_report_csv(320 * 256, TOL_ANALYTIC),
                outputs={"csv": rep_csv}, largest_bytes=_rows_bytes(320, 256)),
        Command("verify-shift-json",
                ["verify-shift", "--family", "catenoid", "--waist", _fmt(waist2),
                 "--alpha", "0", "--grid", "192x192", "--out", shift_json],
                _check_shift_json(192 * 192, TOL_ANALYTIC),
                outputs={"json": shift_json}, largest_bytes=_rows_bytes(192, 192)),
        # catenoid: open in u, so (nu+1)*nv vertices and 2*nu*nv faces
        Command("export-obj",
                ["export", "--family", "catenoid", "--waist", _fmt(waist3),
                 "--grid", "256x384", "--export", mesh_obj],
                _check_mesh(257 * 384, 2 * 256 * 384),
                outputs={"obj": mesh_obj}, largest_bytes=2 * 256 * 384 * 3 * 3 * 8),
    ]
    return Workload("report-write", cmds, {})


def family_ode(seed, work):
    """ODE-defined families: generate, save, reload and verify."""
    rng = random.Random(seed)
    u = rng.uniform
    kappa_a = f"{_fmt(u(0.9, 1.1))}/u + {_fmt(u(0.0, 0.1))}"
    kappa_b = f"{_fmt(u(0.6, 0.8))}*u^2 + {_fmt(u(0.35, 0.45))}"
    ra, dra, rb, drb = u(0.95, 1.05), u(0.9, 1.1), u(1.0, 1.2), u(0.3, 0.5)
    c_drift, r0, u_mid = u(0.25, 0.35), u(0.95, 1.05), u(1.1, 1.5)
    f = {k: str(work / n) for k, n in (
        ("a", "gen_a.json"), ("b", "gen_b.json"), ("c", "gen_c.json"),
        ("sa", "sol_a.csv"), ("sb", "sol_b.csv"))}
    gen_rows = _rows_bytes(64, 64)   # default --grid of generate
    cmds = [
        Command("generate-neg2-a",
                ["generate", "--family", "neg2-ode", "--kappa", kappa_a,
                 "--u", "1:1.6", "--r0", _fmt(ra), "--dr0", _fmt(dra),
                 "--out", f["a"], "--solution", f["sa"]],
                _check_generate(TOL_GENERATED, 201),
                outputs={"family": f["a"], "solution": f["sa"]}, largest_bytes=gen_rows),
        Command("generate-neg2-b",
                ["generate", "--family", "neg2-ode", "--kappa", kappa_b,
                 "--u", "1:1.6", "--r0", _fmt(rb), "--dr0", _fmt(drb),
                 "--out", f["b"], "--solution", f["sb"]],
                _check_generate(TOL_GENERATED, 201),
                outputs={"family": f["b"], "solution": f["sb"]}, largest_bytes=gen_rows),
        Command("generate-riemann",
                ["generate", "--family", "riemann", "--c-drift", _fmt(c_drift),
                 "--r0", _fmt(r0), "--span", "0.6", "--alpha", "0", "--out", f["c"]],
                _check_generate(TOL_GENERATED, 0),
                outputs={"family": f["c"]}, largest_bytes=gen_rows),
        Command("verify-spec-a",
                ["verify", "--spec", f["a"], "--alpha", "-2", "--grid", "32x32"],
                _check_sup(TOL_GENERATED, 32 * 32), largest_bytes=_rows_bytes(32, 32)),
        Command("verify-spec-b",
                ["verify", "--spec", f["b"], "--alpha", "-2", "--grid", "32x32"],
                _check_sup(TOL_GENERATED, 32 * 32), largest_bytes=_rows_bytes(32, 32)),
        Command("verify-spec-c",
                ["verify", "--spec", f["c"], "--alpha", "0", "--grid", "32x32"],
                _check_sup(TOL_GENERATED, 32 * 32), largest_bytes=_rows_bytes(32, 32)),
        Command("fourier-spec-a",
                ["fourier", "--spec", f["a"], "--alpha", "-2", "--u", _fmt(u_mid),
                 "--nv", "64"],
                _check_amplitudes(TOL_GENERATED), largest_bytes=33 * 64 * 8),
    ]
    return Workload("family-ode", cmds, {})


def mesh_flow(seed, work):
    """Discrete descent of perturbed spheres, the flow's stationary point."""
    rng = random.Random(seed)
    u = rng.uniform
    radius, perturb, flow_seed = u(0.9, 1.1), u(0.008, 0.012), rng.randrange(1 << 30)
    common = ["--family", "sphere", "--radius", _fmt(radius), "--alpha", "-2",
              "--perturb", _fmt(perturb), "--seed", str(flow_seed)]
    t = {k: str(work / f"flow_{k}.csv") for k in "abc"}
    obj = str(work / "flow_b.obj")

    def tri_bytes(nu, nv):   # vertex triples gathered per triangle
        return 2 * (nu - 1) * nv * 3 * 3 * 8

    cmds = [
        Command("flow-small-backtracking",
                ["flow", *common, "--grid", "24x48", "--steps", "400",
                 "--trace", t["a"]],
                _check_flow(400, True), outputs={"trace": t["a"]},
                largest_bytes=tri_bytes(24, 48)),
        # sphere poles close with fans: (nu-1)*nv + 2 vertices, 2*(nu-1)*nv faces
        Command("flow-large-export",
                ["flow", *common, "--grid", "96x192", "--steps", "40",
                 "--trace", t["b"], "--export", obj],
                _check_flow(40, True, _check_mesh(95 * 192 + 2, 2 * 95 * 192,
                                                  printed=False)),
                outputs={"trace": t["b"], "obj": obj}, largest_bytes=tri_bytes(96, 192)),
        Command("flow-fixed",
                ["flow", *common, "--grid", "32x64", "--steps", "200",
                 "--step-rule", "fixed", "--dt", "1e-4", "--trace", t["c"]],
                _check_flow(200, False), outputs={"trace": t["c"]},
                largest_bytes=tri_bytes(32, 64)),
    ]
    return Workload("mesh-flow", cmds, {})


WORKLOADS = {
    "grid-eval": grid_eval,
    "report-write": report_write,
    "family-ode": family_ode,
    "mesh-flow": mesh_flow,
}
