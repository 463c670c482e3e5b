import json
import os

import numpy as np
import pytest

from alphasurf.cli import main, parse_scalar_expr
from alphasurf.errors import ValidationError


def test_expression_parser_values_and_derivatives():
    f = parse_scalar_expr("1/u")
    u = np.linspace(0.5, 2.0, 9)
    v, d1, d2 = f.eval2(u)
    assert np.allclose(v, 1 / u)
    assert np.allclose(d1, -1 / u**2)
    assert np.allclose(d2, 2 / u**3)

    g = parse_scalar_expr("0.5*u^2 - 3*u + 2")
    v, d1, d2 = g.eval2(u)
    assert np.allclose(v, 0.5 * u**2 - 3 * u + 2)
    assert np.allclose(d1, u - 3)
    assert np.allclose(d2, 1.0)

    h = parse_scalar_expr("(u + 1)/(u - 3)")
    v, d1, _ = h.eval2(u)
    assert np.allclose(v, (u + 1) / (u - 3))
    assert np.allclose(d1, -4 / (u - 3) ** 2)


def test_expression_parser_rejects_garbage():
    for bad in ("sin(u)", "u + ", "2 ** u", "u^v", "x + 1"):
        with pytest.raises(ValidationError):
            parse_scalar_expr(bad)


def test_verify_sphere(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["verify", "--family", "sphere", "--center", "0,0,0",
                 "--radius", "1", "--alpha", "-2", "--grid", "64x64",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "sup|residual|" in captured
    rep = json.loads(out.read_text())
    assert rep["sup_abs"] <= 1e-8
    assert rep["sample_count"] == 4096


def test_verify_unknown_family_exits_2(capsys):
    assert main(["verify", "--family", "klein-bottle"]) == 2
    assert main(["verify", "--alpha", "1"]) == 2  # neither family nor spec


def test_energy_command(capsys):
    assert main(["energy", "--family", "sphere", "--radius", "1",
                 "--alpha", "0", "--grid", "64x64"]) == 0
    out = capsys.readouterr().out
    value = float(out.split("=")[1])
    assert value == pytest.approx(4 * np.pi, abs=1e-6)


def test_generate_verify_round_trip(tmp_path, capsys):
    spec_path = tmp_path / "gen.json"
    sol_path = tmp_path / "sol.csv"
    code = main(["generate", "--family", "neg2-ode", "--kappa", "1/u",
                 "--u", "1:1.6", "--r0", "1", "--dr0", "1",
                 "--grid", "16x16", "--out", str(spec_path),
                 "--solution", str(sol_path)])
    assert code == 0
    code = main(["verify", "--spec", str(spec_path), "--alpha", "-2",
                 "--grid", "16x16", "--out", str(tmp_path / "rep.json")])
    assert code == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["sup_abs"] <= 1e-6
    assert sol_path.read_text().splitlines()[0] == "u,a,r,kappa"


def test_verify_shift_command(capsys):
    code = main(["verify-shift", "--family", "catenoid", "--alpha", "0",
                 "--grid", "24x24"])
    assert code == 0
    out = capsys.readouterr().out
    assert "alpha=-4" in out


def test_flow_and_export_commands(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    obj = tmp_path / "final.obj"
    code = main(["flow", "--family", "sphere", "--radius", "1",
                 "--alpha", "-2", "--grid", "10x20", "--steps", "10",
                 "--trace", str(trace), "--export", str(obj)])
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,energy,grad_max,dt"
    assert len(lines) == 12  # header + initial + 10 steps
    assert obj.read_text().startswith("v ")
    code = main(["export", "--family", "sphere", "--radius", "2",
                 "--grid", "8x16", "--export", str(tmp_path / "s.obj")])
    assert code == 0


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = main(["verify", "--family", "catenoid", "--alpha", "0",
                     "--grid", "12x12", "--csv", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_coeffs_command(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["coeffs", "--family", "helicoid", "--alpha", "0",
                 "--samples", "16", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,A0,A1,A2,A3,A4"
    vals = np.array([[float(x) for x in ln.split(",")[1:]]
                     for ln in lines[1:]])
    assert np.max(np.abs(vals)) < 1e-12


def test_fourier_command(tmp_path, capsys):
    out = tmp_path / "f.json"
    code = main(["fourier", "--family", "log-spiral-neg2", "--alpha", "-2",
                 "--u", "1.5", "--nmax", "4", "--nv", "64",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    # the explicit surface is stationary: every harmonic vanishes
    assert max(abs(x) for x in data["A"] + data["B"]) < 1e-8


@pytest.mark.parametrize("argv", [
    ["flow", "--family", "sphere", "--alpha", "-2", "--steps", "-3"],
    ["energy", "--family", "sphere", "--grid", "0x4"],
    ["generate", "--family", "neg2-ode", "--kappa", "1e", "--u", "1:1.6",
     "--r0", "1", "--out", "g.json", "--solution", "g.csv", "--export", "g.obj"],
    ["verify", "--spec", "malformed.json", "--out", "r.json"],
    ["verify", "--spec", "nokind.json", "--out", "r.json"],
    ["verify", "--spec", "missing.json", "--out", "r.json"],
    ["coeffs", "--spec", "missing.json", "--out", "c.csv"],
    # a known kind without its fields: no "mode" for verify, no "gamma" for
    # coeffs
    ["verify", "--spec", "nofields.json", "--out", "r.json"],
    ["coeffs", "--spec", "nofields.json", "--out", "c.csv"],
    ["coeffs", "--family", "helicoid", "--samples", "0", "--out", "c.csv"],
    ["fourier", "--family", "sphere", "--alpha", "-2", "--u", "1",
     "--nmax", "-1", "--out", "f.json"],
    # the inverted vector plane cannot be meshed: no spec file either
    ["invert", "--family", "vector-plane", "--out", "a.json",
     "--export", "b.obj"],
    # the generated families need a starting radius
    ["generate", "--family", "neg2-ode", "--kappa", "1/u", "--u", "1:1.6"],
    ["generate", "--family", "riemann", "--span", "0.5"],
    # argparse errors: one line, not a usage block; a range whose lower end
    # is negative must be written --u=-1:1
    ["generate", "--family", "neg2-ode", "--kappa", "1/u", "--u", "-1:1",
     "--r0", "1"],
    ["verify", "--family", "catenoid", "--u-range", "-1:1"],
    ["fourier", "--family", "sphere", "--alpha", "-2"],
    ["verify", "--family", "sphere", "--bogus"],
    # every float flag is finite, inside triples and ranges too
    ["verify", "--family", "sphere", "--grid", "8x8", "--alpha", "nan"],
    ["verify", "--family", "sphere", "--grid", "8x8", "--radius", "inf"],
    ["fourier", "--family", "sphere", "--alpha", "-2", "--u", "nan"],
    ["coeffs", "--family", "helicoid", "--alpha", "nan"],
    ["flow", "--family", "sphere", "--alpha", "nan", "--steps", "2"],
    ["verify", "--family", "sphere", "--center=0,-inf,0"],
    ["verify", "--family", "catenoid", "--u-range=-1:nan"],
])
def test_bad_input_exits_2_with_one_error_line(argv, tmp_path, monkeypatch,
                                               capsys):
    (tmp_path / "malformed.json").write_text("{not json")
    (tmp_path / "nokind.json").write_text('{"params": {}}')
    (tmp_path / "nofields.json").write_text(
        '{"kind": "frenet_cyclic", "params": {}}')
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir())
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in captured.err
    assert sorted(os.listdir()) == before


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "sphere", "--grid", "8x8", "--out", "a.json",
     "--csv", "nodir/b.csv"],
    ["generate", "--family", "neg2-ode", "--kappa", "1/u", "--u", "1:1.1",
     "--r0", "1", "--grid", "4x8", "--out", "a.json",
     "--solution", "nodir/b.csv", "--export", "c.obj"],
    ["invert", "--family", "sphere", "--center", "2,0,0", "--grid", "4x8",
     "--out", "a.json", "--export", "nodir/b.obj"],
    ["flow", "--family", "sphere", "--grid", "4x8", "--steps", "1",
     "--trace", "a.csv", "--export", "nodir/b.obj"],
])
def test_unwritable_later_output_leaves_no_file(argv, tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write 'nodir/")
    assert os.listdir() == []


@pytest.mark.parametrize("c_drift, r0, span, where", [
    ("3", "0.2", "3", "u=0.105"),
    ("0.3", "0.05", "3", "u=0"),
    ("1.5", "0.5", "2", "u=0.479"),
])
def test_riemann_failure_exits_3_at_first_failure(c_drift, r0, span, where,
                                                  tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--family", "riemann", "--c-drift", c_drift,
                 "--r0", r0, "--span", span, "--out", "r.json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"numerical failure: degenerate minimality system at {where}"]
    assert os.listdir() == []


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "sphere", "--grid", "8x8", "--out", "sub"],
    ["verify", "--family", "sphere", "--grid", "8x8", "--csv", "sub"],
    ["energy", "--family", "sphere", "--grid", "8x8", "--out", "sub"],
])
def test_directory_target_exits_2_without_files(argv, tmp_path, monkeypatch,
                                                capsys):
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: cannot write 'sub': Is a directory"]
    assert os.listdir() == ["sub"] and os.listdir("sub") == []


def test_nan_curvature_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    # u^-0.5 is NaN on the whole range; the guards must not let it through
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--family", "neg2-ode", "--kappa", "u^-0.5",
                 "--u=-1:-0.5", "--r0", "1", "--out", "g.json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")
    assert os.listdir() == []
