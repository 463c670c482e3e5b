import functools
import json
import math
import os
import random
import re
import time
import warnings

import numpy as np
import pytest

from alphasurf import catalog, cli, flow, ruled, stationary
from alphasurf.cli import MAX_EXPR_DEPTH, main, parse_scalar_expr
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


def test_expression_parser_differentiates_a_unary_minus():
    u = np.linspace(0.5, 2.0, 9)
    v, d1, d2 = parse_scalar_expr("-u^3").eval2(u)
    assert np.allclose(v, -u**3, rtol=1e-15, atol=0)
    assert np.allclose(d1, -3 * u**2, rtol=1e-15, atol=0)
    assert np.allclose(d2, -6 * u, rtol=1e-15, atol=0)


def test_expression_parser_rejects_garbage():
    for bad in ("sin(u)", "u + ", "2 ** u", "u^v", "x + 1"):
        with pytest.raises(ValidationError):
            parse_scalar_expr(bad)


# The hand-written recursive-descent parser that read expressions before
# Python's own parser did; the oracle for the corpus test below.

def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE"
                                     or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            try:
                tokens.append(("num", float(text[i:j])))
            except ValueError:
                raise ValidationError(f"malformed number {text[i:j]!r}") from None
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            name = text[i:j]
            if name != "u":
                raise ValidationError(f"unknown name {name!r} in expression")
            tokens.append(("var",))
            i = j
        else:
            raise ValidationError(f"unexpected character {ch!r} in expression")
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            exp = self.factor()
            if exp[0] == "neg" and exp[1][0] == "num":
                exp = ("num", -exp[1][1])
            if exp[0] != "num":
                raise ValidationError("exponent must be a constant")
            return ("pow", base, exp[1])
        return base

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.expr()
            if self.take() != ")":
                raise ValidationError("missing closing parenthesis")
            return node
        if isinstance(tok, tuple) and tok[0] == "num":
            return ("num", tok[1])
        if isinstance(tok, tuple) and tok[0] == "var":
            return ("var",)
        raise ValidationError(f"unexpected token {tok!r} in expression")


def _old_tree(text):
    """The old parser's tree, or None where it refused the text."""
    try:
        p = _Parser(_tokenize(text))
        tree = p.expr()
    except ValidationError:
        return None
    return tree if p.peek() is None else None


def _new_tree(text):
    try:
        return cli._parse_tree(text)
    except ValidationError:
        return None


def _depth(tree):
    kids = [k for k in tree[1:] if isinstance(k, tuple)]
    return 1 + max(map(_depth, kids)) if kids else 0


_SPACES = ["", "", "", " ", "  ", "\t", "\n", " \t\n "]
_NUMBERS = ["0", "1", "2", "10", "007", "00", "0.5", ".5", "1.", "3.25", "1e3",
            "1E3", "1e-3", "2.5e+2", "1.e2", ".5e1", "1e05", "1e400", "0e0",
            "123456789012345678901234567890"]
# pieces that the old parser refused, or that Python reads differently
_JUNK = ["**", "//", "+", "1_0", "0x10", "1j", "1e", "1e+", "e", "E", "v", "x",
         ".", "..", "...", "u.e", "2u", "u2", "uu", "^", "(", ")", "()", "--",
         "%", ",", "[", "'", "_", "1..2", "٣", "\u00a0", "\u2003", "sin"]


def _random_expr(rng, depth):
    def sp():
        return rng.choice(_SPACES)

    if depth <= 0 or rng.random() < 0.25:
        leaf = "u" if rng.random() < 0.5 else rng.choice(_NUMBERS)
        return sp() + leaf + sp()
    kind = rng.random()
    if kind < 0.15:
        return sp() + "-" + _random_expr(rng, depth - 1)
    if kind < 0.3:
        return "(" + _random_expr(rng, depth - 1) + ")"
    if kind < 0.5:
        exp = rng.choice([rng.choice(_NUMBERS), "-" + rng.choice(_NUMBERS),
                          "(" + rng.choice(_NUMBERS) + ")", "-(" + rng.choice(_NUMBERS) + ")",
                          "u", "--2", "2^2", "(-2)", "-" + sp() + "2",
                          _random_expr(rng, depth - 1)])
        return _random_expr(rng, depth - 1) + sp() + "^" + sp() + exp
    op = rng.choice("+-*/")
    return _random_expr(rng, depth - 1) + sp() + op + sp() + _random_expr(rng, depth - 1)


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        action = rng.random()
        if action < 0.4:
            text = text[:i] + rng.choice(_JUNK) + text[i:]
        elif action < 0.7 and text:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(["u", "1", "-", "^", "(", ")", " "]) + text[i:]
    return text


def test_expression_parser_matches_the_old_parser_on_a_corpus():
    rng = random.Random(20261018)
    corpus = list(_JUNK) + [
        "u ^ -2", "u^-0", "-u^2", "u^2^3", "u^-2*3", "u^(-(2))", "u^-(-2)",
        "2^u", "u**2", "u//2", "+u", "u++u", "1 2", "u\t*\n2", "01 + u",
        "u^2.5e-1", "(u)(u)", "2(u)", "u^ --2", "1e5e5", "2e-u", "1.e",
        "1" + "0" * 400 + "*u"]
    # around the depth bound: sums, unary minuses and parenthesised quotients
    for k in range(MAX_EXPR_DEPTH - 2, MAX_EXPR_DEPTH + 3):
        corpus += ["+".join(["u"] * (k + 1)), "-" * k + "u",
                   "(1/" * k + "u" + ")" * k]
    while len(corpus) < 24_000:
        text = _random_expr(rng, rng.randint(0, 8))
        corpus.append(_mutate(rng, text) if rng.random() < 0.5 else text)
    accepted = narrowed = 0
    for text in corpus:
        old, new = _old_tree(text), _new_tree(text)
        # the two intended differences: trees past the depth bound, and
        # digits outside 0-9, which float() read but are refused now
        if old is not None and (_depth(old) > MAX_EXPR_DEPTH or any(
                ch.isdigit() and not ch.isascii() for ch in text)):
            assert new is None, text
            narrowed += 1
            continue
        # repr tells -0.0 from 0.0
        assert repr(new) == repr(old), text
        accepted += old is not None
    # both halves of the corpus are populated
    assert accepted > 5000 and len(corpus) - accepted > 5000


def test_nested_quotients_up_to_the_depth_bound():
    def nested(depth):
        text = "u"
        for _ in range(depth):
            text = f"1/({text})"
        return text

    u = np.linspace(1.0, 2.0, 5)
    for text in (nested(MAX_EXPR_DEPTH), nested(MAX_EXPR_DEPTH - 1)):
        jet = parse_scalar_expr(text).eval2(u)
        assert all(np.isfinite(part).all() for part in jet)
    v, d1, d2 = parse_scalar_expr(nested(MAX_EXPR_DEPTH)).eval2(u)
    assert np.allclose(v, u) and np.allclose(d1, 1.0) and np.allclose(d2, 0.0)
    with pytest.raises(ValidationError, match="nested deeper"):
        parse_scalar_expr(nested(MAX_EXPR_DEPTH + 1))


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


def test_verify_shift_inverts_the_catenoid_to_alpha_minus_4(capsys):
    # the catenoid is minimal, and its inversion is stationary for alpha = -4
    assert main(["verify-shift", "--family", "catenoid", "--direction", "inverse",
                 "--alpha", "-4"]) == 0
    out = capsys.readouterr().out
    sups = re.findall(r"sup\|residual\| = (\S+) at alpha=(\S+?)[;\n]", out)
    assert [alpha for _, alpha in sups] == ["-4.0", "0.0"]
    assert all(float(sup) <= 1e-8 for sup, _ in sups)


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


def _write_spec_files(tmp_path):
    """A sphere family file and a helicoid ruled table, both valid, and the
    helicoid table with its ruling direction scaled by 2, which is not."""
    (tmp_path / "sphere.json").write_text('{"kind": "sphere", "params": {}}')
    table = catalog.ruled_spec_to_dict(cli._helicoid_ruled_spec())
    (tmp_path / "helicoid.json").write_text(json.dumps(table))
    table["beta"] = {key: val if key == "s" else (2.0 * np.asarray(val)).tolist()
                     for key, val in table["beta"].items()}
    (tmp_path / "helicoid-wide.json").write_text(json.dumps(table))


@functools.cache
def _riemann_periodic_text():
    """A generated Riemann spec file with its ``u_periodic`` set, which
    circles at heights z = u cannot honour."""
    doc = catalog.family_to_dict(catalog.FamilySpec(
        "parallel_cyclic", {"spec": catalog.riemann_minimal_spec(0.0, 1.0, 0.3)}))
    doc["params"]["spec"]["u_periodic"] = True
    return json.dumps(doc)


def test_spec_files_run_alone(tmp_path, monkeypatch, capsys):
    _write_spec_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--spec", "sphere.json", "--grid", "8x8"]) == 0
    assert main(["energy", "--spec", "sphere.json", "--grid", "8x8"]) == 0
    assert main(["coeffs", "--spec", "helicoid.json"]) == 0


@pytest.mark.parametrize("argv", [
    ["flow", "--family", "sphere", "--alpha", "-2", "--steps", "-3"],
    ["energy", "--family", "sphere", "--grid", "0x4"],
    ["generate", "--family", "neg2-ode", "--kappa", "1e", "--u", "1:1.6",
     "--r0", "1", "--out", "g.json", "--solution", "g.csv", "--export", "g.obj"],
    ["verify", "--spec", "malformed.json", "--out", "r.json"],
    ["verify", "--spec", "nokind.json", "--out", "r.json"],
    ["verify", "--spec", "missing.json", "--out", "r.json"],
    ["coeffs", "--spec", "missing.json", "--out", "c.csv"],
    # a known kind without its fields: no "spec" for verify, no "gamma" for
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
    # spec files: non-finite numbers, and nesting too deep for the decoder
    ["verify", "--spec", "nan.json", "--grid", "8x8"],
    ["verify", "--spec", "huge.json", "--grid", "8x8"],
    ["verify", "--spec", "inf.json", "--grid", "8x8"],
    ["verify", "--spec", "deep.json", "--grid", "8x8"],
    # expressions nested past Python's or the old parser's recursion limit
    ["generate", "--family", "neg2-ode", "--kappa=" + "-" * 1200 + "u",
     "--u", "1:1.6", "--r0", "1", "--out", "g.json"],
    ["generate", "--family", "neg2-ode", "--kappa", "(" * 300 + "u" + ")" * 300,
     "--u", "1:1.6", "--r0", "1", "--out", "g.json"],
    ["generate", "--family", "neg2-ode", "--kappa", "+".join(["u"] * 1500),
     "--u", "1:1.6", "--r0", "1", "--out", "g.json"],
    # an integer past the float range
    ["verify", "--spec", "bigint.json", "--grid", "8x8"],
    # a spec file excludes --family and the shape flags (both files work
    # alone: test_spec_files_run_alone)
    ["verify", "--spec", "sphere.json", "--family", "sphere", "--radius", "5",
     "--alpha", "0", "--grid", "8x8"],
    ["verify", "--spec", "sphere.json", "--radius", "5", "--grid", "8x8"],
    ["energy", "--spec", "sphere.json", "--center", "0,0,1", "--grid", "8x8"],
    ["coeffs", "--spec", "helicoid.json", "--family", "helicoid"],
    # each generated family refuses the flags of the other one
    *(["generate", "--family", "riemann", "--r0", "1", "--span", "0.3",
       "--alpha", "0", flag, value]
      for flag, value in (("--kappa", "zzz"), ("--u", "1:1.2"), ("--a0", "0"),
                          ("--da0", "0"), ("--dr0", "0"))),
    *(["generate", "--family", "neg2-ode", "--kappa", "1/u", "--u", "1:1.2",
       "--r0", "1", flag, value]
      for flag, value in (("--c-drift", "9"), ("--span", "5"))),
    # a given span of zero is refused, not replaced by the default
    ["generate", "--family", "riemann", "--r0", "1", "--span", "0"],
    # spec params of the wrong type
    *(["verify", "--spec", f"{name}.json", "--alpha", "0", "--grid", "4x4"]
      for name in ("inner-int", "radius-str", "radius-list", "frenet-list",
                   "ruled-str")),
    # spec params of the wrong form or not the family's, directrix fields
    # of the wrong form, and shape flags the family does not read
    *(["verify", "--spec", f"{name}.json", "--alpha", "0", "--grid", "4x4",
       "--out", "r.json"]
      for name in ("center-short", "center-str", "t-range-short",
                   "u-range-long", "bogus", "directrix-int",
                   "directrix-center-str", "directrix-radius-str")),
    ["verify", "--family", "sphere", "--pitch", "1"],
    ["verify", "--family", "vector-plane", "--offset", "3"],
    # an integration range with more steps than interp.MAX_STEPS
    ["generate", "--family", "neg2-ode", "--kappa", "1/u", "--u=1:1e308",
     "--r0", "1", "--out", "g.json"],
    ["generate", "--family", "riemann", "--r0", "1", "--span", "1e6"],
    # an empty output path, and a seed numpy refuses
    ["export", "--family", "sphere", "--grid", "4x8", "--export="],
    ["verify", "--family", "sphere", "--grid", "4x4", "--out="],
    ["flow", "--family", "sphere", "--grid", "4x8", "--steps", "1",
     "--perturb", "0.01", "--seed=-1"],
    # a line directrix with a zero direction
    ["verify", "--spec", "line-zero.json", "--alpha", "0", "--grid", "4x4"],
    # a ruled table whose ruling direction is not unit-norm
    ["coeffs", "--spec", "helicoid-wide.json", "--out", "c.csv"],
    # a parallel cyclic spec that claims to close up in u
    ["verify", "--spec", "riemann-periodic.json", "--alpha", "0", "--grid", "4x4"],
])
def test_bad_input_exits_2_with_one_error_line(argv, tmp_path, monkeypatch,
                                               capsys):
    _write_spec_files(tmp_path)
    (tmp_path / "malformed.json").write_text("{not json")
    (tmp_path / "nokind.json").write_text('{"params": {}}')
    (tmp_path / "nofields.json").write_text(
        '{"kind": "frenet_cyclic", "params": {}}')
    (tmp_path / "nan.json").write_text(
        '{"kind": "sphere", "params": {"radius": NaN}}')
    (tmp_path / "huge.json").write_text(
        '{"kind": "catenoid", "params": {"waist": 1e999}}')
    (tmp_path / "inf.json").write_text(
        '{"kind": "sphere", "params": {"center": [0, Infinity, 0]}}')
    (tmp_path / "deep.json").write_text("[" * 100_000)
    (tmp_path / "bigint.json").write_text(
        '{"kind": "sphere", "params": {"radius": 1%s}}' % ("0" * 400))
    for name, kind, params in (("inner-int", "inverted", '{"inner": 5}'),
                               ("radius-str", "sphere", '{"radius": "x"}'),
                               ("radius-list", "sphere", '{"radius": [1]}'),
                               ("frenet-list", "frenet_cyclic", '{"spec": [1]}'),
                               ("ruled-str", "ruled_generic", '{"spec": "x"}')):
        (tmp_path / f"{name}.json").write_text(
            '{"kind": "%s", "params": %s}' % (kind, params))
    circle = '{"type": "circle", "center": %s, "radius": %s}'
    for name, kind, params in (
            ("center-short", "sphere", '{"center": [1, 2]}'),
            ("center-str", "sphere", '{"center": "abc"}'),
            ("t-range-short", "helicoid", '{"t_range": [1]}'),
            ("u-range-long", "catenoid", '{"u_range": [1, 2, 3]}'),
            ("bogus", "sphere", '{"bogus": "x"}'),
            ("directrix-int", "cylinder_over_curve", '{"directrix": 5}'),
            ("directrix-center-str", "cylinder_over_curve",
             '{"directrix": %s}' % (circle % ('"ab"', "1"))),
            ("directrix-radius-str", "cylinder_over_curve",
             '{"directrix": %s}' % (circle % ("[2, 0]", '"x"'))),
            ("line-zero", "cylinder_over_curve", '{"directrix": {"type": "line", '
             '"point": [1, 0], "direction": [0, 0]}}')):
        (tmp_path / f"{name}.json").write_text(
            '{"kind": "%s", "params": %s}' % (kind, params))
    (tmp_path / "riemann-periodic.json").write_text(_riemann_periodic_text())
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


# each size is past the 128 TiB address space, so its allocation fails at once
@pytest.mark.parametrize("argv", [
    ["verify", "--family", "sphere", "--grid", "8000000x8000000",
     "--out", "r.json", "--csv", "r.csv"],
    ["energy", "--family", "sphere", "--grid", "8x1125899906842624", "--out", "e.json"],
    ["export", "--family", "sphere", "--grid", "8000000x8000000", "--export", "m.obj"],
    ["coeffs", "--family", "helicoid", "--samples", "100000000000000",
     "--out", "c.csv"],
])
def test_unallocatable_size_exits_2_without_files(argv, tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: not enough memory: ")
    assert "Traceback" not in captured.err
    assert os.listdir() == []


def test_unallocatable_fourier_nv_exits_2_with_the_bound(tmp_path, monkeypatch,
                                                         capsys):
    # past the address space too, but the bound refuses it before any
    # allocation could fail
    monkeypatch.chdir(tmp_path)
    assert main(["fourier", "--family", "sphere", "--alpha", "-2", "--u", "1",
                 "--nv", "1125899906842624", "--nmax", "1", "--out", "f.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "error: fourier needs 1125899906842624 samples on the v-circle, more than 16384")
    assert "Traceback" not in captured.err
    assert os.listdir() == []


def test_energy_refuses_an_oversized_gauss_legendre_axis(tmp_path, monkeypatch,
                                                         capsys):
    # refused before the dense eigenproblem of leggauss, or any array, is made
    def leggauss(n):
        raise AssertionError(f"leggauss({n}) called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", leggauss)
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert main(["energy", "--family", "sphere", "--grid", "20000x3",
                 "--out", "e.json"]) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: energy quadrature needs 20000 Gauss-Legendre nodes, more than 2048"]
    assert os.listdir() == []


def test_fourier_refuses_an_nv_past_its_bound(tmp_path, monkeypatch, capsys):
    # refused before the dense harmonic products, which grow as nv^2
    def outer(*args, **kwargs):
        raise AssertionError("np.outer called")

    monkeypatch.setattr(np, "outer", outer)
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert main(["fourier", "--family", "sphere", "--u", "1", "--nv", "32768",
                 "--out", "f.json"]) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: fourier needs 32768 samples on the v-circle, more than 16384"]
    assert os.listdir() == []
    # the bound itself passes the check and reaches the defect evaluation
    def reached(*args, **kwargs):
        raise LookupError("evaluated")

    monkeypatch.setattr(stationary, "weighted_defect", reached)
    with pytest.raises(LookupError):
        stationary.fourier_defect(catalog.make_patch(catalog.FamilySpec("sphere")),
                                  0.0, 1.0, 4, stationary.MAX_FOURIER_NV)


def test_fourier_refuses_an_nv_past_its_bound_before_allocating():
    # 2^40 samples would need 8 TiB for the abscissae alone
    sphere = catalog.make_patch(catalog.FamilySpec("sphere"))
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="more than 16384"):
        stationary.fourier_defect(sphere, 0.0, 1.0, n_max=1, nv=2**40)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("step_rule", ["backtracking", "fixed"])
@pytest.mark.parametrize("dt", ["0", "-1e-3"])
def test_flow_refuses_a_non_positive_dt(step_rule, dt, tmp_path, monkeypatch,
                                        capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["flow", "--family", "sphere", "--alpha", "-2", "--grid", "8x16",
                 "--steps", "3", "--perturb", "0.01", "--step-rule", step_rule,
                 f"--dt={dt}", "--trace", "t.csv", "--export", "m.obj"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: time step must be positive, got {float(dt)}"]
    assert os.listdir() == []


# r grows past the float range: r'' grows as r^3 once a' = c r^2 / r0^2 is
# large, so each of these profiles blows up at a finite height
@pytest.mark.parametrize("c_drift, r0, span, where", [
    ("3", "0.2", "3", "u=0.118"),
    ("0.3", "0.05", "3", "u=0.144"),
    ("1.5", "0.5", "2", "u=0.492"),
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
        f"numerical failure: profile overflows at {where}"]
    assert os.listdir() == []


def test_riemann_with_a_small_waist_is_generated(tmp_path, monkeypatch, capsys):
    # minimal surfaces are invariant under dilation, so a waist of 0.05 is
    # as exact a family as a waist of 1
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--family", "riemann", "--c-drift", "0.3",
                 "--r0", "0.05", "--span", "0.1", "--out", "r.json"]) == 0
    assert capsys.readouterr().out.startswith("generated; sup|residual| = ")
    assert os.listdir() == ["r.json"]


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
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: cannot write 'sub': Is a directory"]
    assert os.listdir() == ["sub"] and os.listdir("sub") == []


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "sphere", "--radius", "1e200", "--alpha", "-2",
     "--grid", "8x8", "--out", "r.json", "--csv", "r.csv"],
    ["coeffs", "--family", "helicoid", "--alpha", "1e308", "--samples", "4",
     "--out", "c.csv"],
    ["fourier", "--family", "sphere", "--radius", "1e200", "--alpha", "-2",
     "--u", "1", "--out", "f.json"],
])
def test_non_finite_summary_exits_3(argv, tmp_path, monkeypatch, capsys):
    # finite flags whose results overflow: the summary would print nan or inf;
    # a numpy RuntimeWarning on the way would be a second stderr line
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "numerical failure: refusing to print non-finite values")
    assert os.listdir() == []


def _stall_radius():
    """A sphere radius whose 4x8 mesh, as this platform computes it, has its
    smallest triangle at most 2e-15 above ``flow.MIN_TRIANGLE_AREA``."""
    def excess(r):
        mesh = flow.sample_mesh(catalog.sphere_patch((0, 0, 0), r), 4, 8)
        area = flow._geometry(mesh.vertices.T, mesh.triangles.T)[2]
        return np.min(area) / flow.MIN_TRIANGLE_AREA - 1

    r = math.sqrt(1 / (1 + excess(1.0)))
    return next(x for x in (r * (1 + k * 1.1e-16) for k in range(-40, 40))
                if 0 < excess(x) <= 2e-15)


@pytest.mark.parametrize("argv, message", [
    # dt 1e200 sends the first candidate to NaN; the area test refuses it
    (["flow", "--family", "sphere", "--alpha", "-2", "--grid", "8x8",
      "--steps", "3", "--step-rule", "fixed", "--dt", "1e200", "--perturb",
      "0.01", "--trace", "t.csv"],
     "numerical failure: triangle degenerated at step 0"),
    # kappa**3 past the float range in the neg2 system
    (["generate", "--family", "neg2-ode", "--kappa", "1e308", "--u", "1:1.1",
      "--r0", "1", "--out", "g.json"],
     "numerical failure: system for (r'', a'') overflows at u=1"),
    # a finite summary over report rows that the writer refuses: the
    # summary is printed only once every file is written
    (["verify", "--family", "affine-plane", "--grid", "4x4", "--alpha=1e308",
      "--out", "r.json"],
     "numerical failure: refusing to write r.json: Out of range float values "
     "are not JSON compliant: inf"),
    # a start radius so small that the a'' coefficient of eq. 23,
    # kappa r (a^2 + r^2), underflows to zero at once
    (["generate", "--family", "neg2-ode", "--kappa", "1", "--u", "1:1.1",
      "--r0", "1e-110", "--out", "g.json"],
     "numerical failure: singular system for (r'', a'') at u=1"),
    # the sphere through the origin has its pole apex there
    (["invert", "--family", "sphere", "--center", "0,0,1", "--grid", "4x8",
      "--export", "i.obj"],
     "numerical failure: surface point within 1e-06 of the origin during inversion"),
    # the 3x3 grid of the vector plane holds (0, 0)
    (["verify", "--family", "vector-plane", "--grid", "3x3", "--out", "r.json"],
     "numerical failure: surface touches the origin at a sampled point"),
    # E, F and G underflow to zero
    (["verify", "--family", "sphere", "--radius", "1e-200", "--grid", "4x4",
      "--out", "r.json"],
     "numerical failure: EG - F^2 = 0.000e+00 <= 0 at a sampled point"),
    # |p|^2 past the float range
    (["energy", "--family", "sphere", "--radius", "1e200", "--alpha", "2",
      "--grid", "4x4", "--out", "e.json"],
     "numerical failure: non-finite integrand sample in energy quadrature"),
    # an off-axis catenoid's defect has a first harmonic
    (["fourier", "--family", "catenoid", "--center", "1,0,0", "--alpha", "1",
      "--u", "0.1", "--nmax", "0", "--out", "f.json"],
     "numerical failure: defect has harmonics above n=0: max |coeff| = 1.025e+00 "
     "vs defect scale 2.045e+00"),
    (["generate", "--family", "neg2-ode", "--kappa=-1", "--u", "1:1.1",
      "--r0", "1", "--out", "g.json"],
     "numerical failure: kappa(1.0) = -1.0 <= 0"),
    (["verify", "--spec", "aimed.json", "--grid", "4x4", "--out", "r.json"],
     "numerical failure: curve reached the origin"),
    # every candidate down to dt / 2^51 shrinks the smallest triangle past
    # the area bound
    (["flow", "--family", "sphere", "--radius", repr(_stall_radius()),
      "--alpha", "0", "--grid", "4x8", "--steps", "3", "--dt", "1",
      "--trace", "t.csv"],
     "numerical failure: step 0: 51 consecutive rejections"),
    # eq. 23's a'' coefficient is 1e-200, but eq. 21's r'' coefficient r
    # times it underflows to zero
    (["generate", "--family", "neg2-ode", "--kappa", "1", "--u", "1:1.1",
      "--r0", "1e-200", "--a0", "1", "--out", "g.json"],
     "numerical failure: singular system for (r'', a'') at u=1"),
])
def test_numerical_failure_prints_one_line_only(argv, message, tmp_path,
                                                monkeypatch, capsys):
    # a straight euler directrix aimed at the origin, for a cylinder over it
    (tmp_path / "aimed.json").write_text(json.dumps({
        "kind": "cylinder_over_curve", "params": {"directrix": {
            "type": "euler", "alpha": 0, "r0": 1, "tangent_angle": math.pi}}}))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]
    assert os.listdir() == ["aimed.json"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "--family", "sphere", "--radius=-1", "--grid", "4x4", "--out", "r.json"],
     "error: sphere radius must be positive"),
    (["fourier", "--family", "catenoid", "--u", "5", "--out", "f.json"],
     "error: u=5.0 outside [-1.5, 1.5] for patch 'catenoid(waist=1.0)'"),
    (["flow", "--family", "catenoid", "--grid", "4x8", "--steps", "1", "--trace", "t.csv"],
     "error: flow requires a closed oriented mesh"),
    # a grid of other than two integer parts names the flag's form
    *((["verify", "--family", "sphere", "--grid", grid, "--out", "r.json"],
       f"error: expected NUxNV grid, got {grid!r}")
      for grid in ("10x", "axb", "1x1e3", "1x2x3", "x", "8")),
    # a family range must increase, from a flag as from a spec file
    (["verify", "--family", "catenoid", "--u-range=1:-1", "--out", "r.json"],
     "error: u_range [1.0, -1.0] is not increasing"),
    (["energy", "--family", "catenoid", "--u-range=1:1", "--out", "e.json"],
     "error: u_range [1.0, 1.0] is not increasing"),
    (["export", "--family", "helicoid", "--t-range=1:0", "--export", "h.obj"],
     "error: t_range [1.0, 0.0] is not increasing"),
])
def test_bad_input_prints_its_one_error_line(argv, message, tmp_path,
                                             monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]
    assert os.listdir() == []


def test_frenet_spec_file_holding_a_parallel_spec_exits_2(tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--family", "riemann", "--r0", "1", "--span", "0.1",
                 "--out", "r.json"]) == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert (doc["kind"], doc["params"]["spec"]["mode"]) == ("parallel_cyclic", "parallel")
    doc["kind"] = "frenet_cyclic"
    (tmp_path / "f.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--spec", "f.json", "--grid", "4x4", "--out", "v.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: cyclic spec mode 'parallel' is not 'frenet'"]
    assert sorted(os.listdir()) == ["f.json", "r.json"]


def _nested_inversions(depth):
    text = '{"kind": "sphere", "params": {"center": [3, 0, 0]}}'
    for _ in range(depth):
        text = '{"kind": "inverted", "params": {"inner": %s}}' % text
    return text


def test_spec_nested_past_the_recursion_limit_exits_2(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.json").write_text(_nested_inversions(100))
    (tmp_path / "deep.json").write_text(_nested_inversions(450))
    assert main(["verify", "--spec", "ok.json", "--grid", "4x4"]) == 0
    capsys.readouterr()
    assert main(["verify", "--spec", "deep.json", "--grid", "4x4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: spec is nested too deep"]


def test_nan_curvature_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    # u^-0.5 is NaN on the whole range; the guards must not let it through
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--family", "neg2-ode", "--kappa", "u^-0.5",
                 "--u=-1:-0.5", "--r0", "1", "--out", "g.json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: kappa(")
    assert os.listdir() == []


# Flags that a subcommand parsed and then ignored, now refused: per
# subcommand, a working command line and the flags it no longer takes.
_SHAPE_VALUES = {"--center": "0,0,0", "--normal": "0,0,1", "--radius": "1",
                 "--offset": "1", "--pitch": "1", "--waist": "1",
                 "--extent": "1", "--u-range": "0:1", "--t-range": "0:1",
                 "--c-drift": "1", "--r0": "1", "--span": "1"}
_BASES = {
    "verify": ["verify", "--family", "sphere", "--grid", "4x4"],
    "energy": ["energy", "--family", "sphere", "--grid", "4x4"],
    "coeffs": ["coeffs", "--family", "helicoid", "--samples", "4"],
    "fourier": ["fourier", "--family", "sphere", "--alpha", "-2", "--u", "1",
                "--nv", "16"],
    "generate": ["generate", "--family", "riemann", "--r0", "1", "--span", "0.3",
                 "--alpha", "0", "--grid", "4x8"],
    "invert": ["invert", "--family", "sphere", "--center", "2,0,0", "--grid", "4x8"],
    "verify-shift": ["verify-shift", "--family", "catenoid", "--grid", "4x4"],
    "flow": ["flow", "--family", "sphere", "--grid", "4x8", "--steps", "1"],
    "export": ["export", "--family", "sphere", "--grid", "4x8", "--export", "e.obj"],
}
_REMOVED = (
    [(sub, "--seed", "1") for sub in _BASES if sub != "flow"]
    + [(sub, "--out", "x.json") for sub in ("flow", "export")]
    + [(sub, "--alpha", "1") for sub in ("invert", "export")]
    + [(sub, "--grid", "4x4") for sub in ("coeffs", "fourier")]
    + [("coeffs", flag, value) for flag, value in _SHAPE_VALUES.items()]
    + [("generate", "--spec", "s.json")]
    + [("generate", flag, value) for flag, value in _SHAPE_VALUES.items()
       if flag not in ("--c-drift", "--r0", "--span")])


def test_removed_flags_and_their_base_commands(tmp_path, monkeypatch, capsys):
    assert len(_REMOVED) == 36
    monkeypatch.chdir(tmp_path)
    for argv in _BASES.values():
        assert main(argv) == 0, argv


@pytest.mark.parametrize("sub, flag, value", _REMOVED,
                         ids=[f"{sub}{flag}" for sub, flag, _ in _REMOVED])
def test_ignored_flag_is_refused(sub, flag, value, tmp_path, monkeypatch,
                                 capsys):
    monkeypatch.chdir(tmp_path)
    assert main(_BASES[sub] + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: unrecognized arguments: {flag} {value}"]
    assert os.listdir() == []


def test_generate_riemann_checks_the_minimal_exponent_by_default(capsys):
    # a neg2-ode family keeps its own -2 (the generate-neg2 golden stdout)
    assert main(["generate", "--family", "riemann", "--r0", "1", "--span", "0.1"]) == 0
    head, at = capsys.readouterr().out.strip().rsplit(" at ", 1)
    assert at == "alpha=0.0"
    assert float(head.rsplit("= ", 1)[1]) <= 1e-6


def test_generate_neg2_with_a_small_radius_is_generated(tmp_path, monkeypatch,
                                                       capsys):
    # eq. 23's a'' coefficient kappa r (a^2 + r^2) is 1e-15 here, small but
    # not zero, so the system is solved, not refused as singular
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--family", "neg2-ode", "--kappa", "1", "--u",
                 "1:1.1", "--r0", "1e-5", "--out", "g.json"]) == 0
    head, at = capsys.readouterr().out.strip().rsplit(" at ", 1)
    assert at == "alpha=-2.0"
    assert float(head.rsplit("= ", 1)[1]) <= 1e-9
    assert os.listdir() == ["g.json"]


@pytest.mark.parametrize("u_range", ["2:1", "1:1"])
def test_generate_neg2_refuses_a_range_that_is_not_increasing(
        u_range, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--family", "neg2-ode", "--kappa", "1/u", "--u",
                 u_range, "--r0", "1", "--out", "g.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lo, hi = (float(x) for x in u_range.split(":"))
    assert captured.err.splitlines() == [
        f"error: u_range [{lo}, {hi}] is not increasing"]
    assert os.listdir() == []


@pytest.mark.parametrize("kind, key, rng", [
    ("catenoid", "u_range", [1, -1]), ("log_spiral_neg2", "u_range", [1.5, 1.5]),
    ("helicoid", "t_range", [2.0, -2.0]),
])
def test_family_spec_file_range_that_is_not_increasing_exits_2(
        kind, key, rng, tmp_path, monkeypatch, capsys):
    (tmp_path / "s.json").write_text(json.dumps({"kind": kind, "params": {key: rng}}))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--spec", "s.json", "--grid", "4x4", "--out", "r.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {key} [{float(rng[0])}, {float(rng[1])}] is not increasing"]
    assert os.listdir() == ["s.json"]


@pytest.fixture(scope="module")
def generated_specs(tmp_path_factory):
    """A frenet-mode (neg2-ode) and a parallel-mode (riemann) spec document."""
    out = tmp_path_factory.mktemp("generated")
    docs = {}
    for family, argv in (("neg2-ode", ["--kappa", "1/u", "--u", "1:1.2"]),
                         ("riemann", ["--span", "0.3"])):
        path = out / f"{family}.json"
        assert main(["generate", "--family", family, "--r0", "1", *argv,
                     "--out", str(path)]) == 0
        docs[family] = json.loads(path.read_text())
    return docs


@pytest.mark.parametrize("command", ["verify", "export"])
@pytest.mark.parametrize("family, u_range", [
    ("neg2-ode", [1.2, 1.0]), ("neg2-ode", [1.0, 1.0]),
    ("riemann", [0.3, -0.3]), ("riemann", [0.1, 0.1]),
])
def test_cyclic_spec_range_that_is_not_increasing_exits_2(
        family, u_range, command, generated_specs, tmp_path, monkeypatch, capsys):
    doc = generated_specs[family]
    doc = {**doc, "params": {"spec": {**doc["params"]["spec"], "u_range": u_range}}}
    (tmp_path / "s.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    argv = {"verify": ["verify", "--spec", "s.json", "--grid", "4x4", "--out", "r.json"],
            "export": ["export", "--spec", "s.json", "--grid", "4x8", "--export", "e.obj"]}
    assert main(argv[command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: u_range [{u_range[0]}, {u_range[1]}] is not increasing"]
    assert os.listdir() == ["s.json"]


@pytest.mark.parametrize("command", ["verify", "export"])
@pytest.mark.parametrize("family, u_range, table", [
    ("neg2-ode", [0.9, 1.2], "'a' on [1.0, 1.2]"),
    ("neg2-ode", [1.0, 1.3], "'a' on [1.0, 1.2]"),
    ("riemann", [-0.6, 0.6], "'a' on [-0.3, 0.3]"),
    ("riemann", [-0.3, 0.30000000000000004], "'a' on [-0.3, 0.3]"),
], ids=["neg2-below", "neg2-above", "riemann-both", "riemann-one-ulp-above"])
def test_cyclic_spec_range_past_its_tables_exits_2(
        family, u_range, table, command, generated_specs, tmp_path, monkeypatch,
        capsys):
    doc = generated_specs[family]
    doc = {**doc, "params": {"spec": {**doc["params"]["spec"], "u_range": u_range}}}
    (tmp_path / "s.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    argv = {"verify": ["verify", "--spec", "s.json", "--alpha", "0", "--grid", "16x16",
                       "--out", "r.json"],
            "export": ["export", "--spec", "s.json", "--grid", "4x8", "--export", "e.obj"]}
    assert main(argv[command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: u_range [{u_range[0]}, {u_range[1]}] is not within table {table}"]
    assert os.listdir() == ["s.json"]


def test_ruled_spec_range_past_its_tables_exits_2(tmp_path, monkeypatch, capsys):
    # s_range widened by half its length, a quarter on each side
    rs = ruled.random_ruled_spec(np.random.default_rng(0))
    doc = catalog.family_to_dict(catalog.FamilySpec("ruled_generic", {"spec": rs}))
    spec = doc["params"]["spec"]
    lo, hi = spec["s_range"]
    spec["s_range"] = [lo - (hi - lo) / 4, hi + (hi - lo) / 4]
    (tmp_path / "s.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--spec", "s.json", "--alpha", "0", "--grid", "16x16",
                 "--out", "r.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: s_range [{spec['s_range'][0]}, {spec['s_range'][1]}] is not within "
        f"table 'gamma' on [{lo}, {hi}]"]
    assert os.listdir() == ["s.json"]


def test_saved_random_ruled_specs_reload_with_their_checks(tmp_path, monkeypatch,
                                                           capsys):
    # the tables hold the striction line in the spec's own parameter, so a
    # reloaded spec keeps <gamma', beta'> = 0 far inside the 1e-6 check
    for seed in range(10):
        rs = ruled.random_ruled_spec(np.random.default_rng(seed))
        path = tmp_path / f"r{seed}.json"
        path.write_text(json.dumps(catalog.ruled_spec_to_dict(rs)))
        back = catalog.ruled_spec_from_dict(json.loads(path.read_text()))
        assert tuple(back.s_range) == rs.s_range
        s = np.linspace(*back.s_range, 100_001)
        assert np.isfinite(ruled.ruled_coeffs(back, 0.7, s, check=True)).all()
        _, gp, _ = back.gamma.eval2(s)
        _, bp, _ = back.beta.eval2(s)
        assert np.max(np.abs(np.einsum("ij,ij->i", gp, bp))) < 1e-9, seed
    monkeypatch.chdir(tmp_path)
    assert main(["coeffs", "--spec", "r0.json", "--samples", "4096",
                 "--out", "c.csv"]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "c.csv").exists()
