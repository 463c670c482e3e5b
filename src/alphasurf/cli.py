"""Command-line front end.

Subcommands: verify, energy, coeffs, fourier, generate, invert,
verify-shift, flow, export.  Families come either from kind-specific flags
or from a JSON spec file; all file outputs are written only after the
computation has fully succeeded, so failed runs leave no partial files.
Exit codes: 0 success, 2 validation problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import catalog, cyclic, flow, inversion, output, ruled, stationary
from .errors import NumericalError, ValidationError
from .interp import Curve3, ScalarFunc


# ---------------------------------------------------------------------------
# minimal arithmetic expressions in one variable (for kappa(u) and friends)


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


def _ast_eval(node, u):
    kind = node[0]
    if kind == "num":
        return np.full(np.shape(u), node[1])
    if kind == "var":
        return np.asarray(u, dtype=float)
    if kind == "neg":
        return -_ast_eval(node[1], u)
    if kind == "pow":
        return np.power(_ast_eval(node[1], u), node[2])
    a, b = _ast_eval(node[1], u), _ast_eval(node[2], u)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    return a / b


def _ast_diff(node):
    kind = node[0]
    if kind in ("num",):
        return ("num", 0.0)
    if kind == "var":
        return ("num", 1.0)
    if kind == "neg":
        return ("neg", _ast_diff(node[1]))
    if kind == "pow":
        base, n = node[1], node[2]
        return ("mul", ("mul", ("num", n), ("pow", base, n - 1.0)),
                _ast_diff(base))
    a, b = node[1], node[2]
    da, db = _ast_diff(a), _ast_diff(b)
    if kind == "add":
        return ("add", da, db)
    if kind == "sub":
        return ("sub", da, db)
    if kind == "mul":
        return ("add", ("mul", da, b), ("mul", a, db))
    # quotient rule
    return ("div", ("sub", ("mul", da, b), ("mul", a, db)),
            ("pow", b, 2.0))


def parse_scalar_expr(text) -> ScalarFunc:
    """Parse expressions like ``1/u`` or ``0.5*u^2 + 1`` into a ScalarFunc."""
    p = _Parser(_tokenize(text))
    ast = p.expr()
    if p.peek() is not None:
        raise ValidationError(f"trailing input in expression {text!r}")
    d1 = _ast_diff(ast)
    d2 = _ast_diff(d1)
    return ScalarFunc(lambda u: tuple(_ast_eval(n, u) for n in (ast, d1, d2)))


# ---------------------------------------------------------------------------
# argument plumbing


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as one ``error:`` line (exit 2), not as
    a usage block."""

    def error(self, message):
        if message.endswith("expected one argument"):
            message += " (write a value that starts with '-' as --flag=value)"
        raise ValidationError(message)


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _triple_arg(text):
    parts = [_finite_float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise ValidationError(f"expected x,y,z triple, got {text!r}")
    return tuple(parts)


def _range_arg(text):
    parts = [_finite_float(x) for x in text.split(":")]
    if len(parts) != 2:
        raise ValidationError(f"expected lo:hi range, got {text!r}")
    return tuple(parts)


def _grid_arg(text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValidationError(f"expected NUxNV grid, got {text!r}")
    return int(parts[0]), int(parts[1])


def _add_family_flags(sp):
    sp.add_argument("--family", help="catalog family kind")
    sp.add_argument("--spec", help="JSON family spec file")
    sp.add_argument("--center", type=_triple_arg)
    sp.add_argument("--normal", type=_triple_arg)
    sp.add_argument("--radius", type=_finite_float)
    sp.add_argument("--offset", type=_finite_float)
    sp.add_argument("--pitch", type=_finite_float)
    sp.add_argument("--waist", type=_finite_float)
    sp.add_argument("--extent", type=_finite_float)
    sp.add_argument("--u-range", dest="u_range", type=_range_arg)
    sp.add_argument("--t-range", dest="t_range", type=_range_arg)
    sp.add_argument("--c-drift", dest="c_drift", type=_finite_float)
    sp.add_argument("--r0", type=_finite_float)
    sp.add_argument("--span", type=_finite_float)


def _family_from_args(args) -> catalog.FamilySpec:
    if args.spec:
        return catalog.load_family(args.spec)
    if not args.family:
        raise ValidationError("either --family or --spec is required")
    kind = args.family.replace("-", "_")
    params = {}
    for key in ("center", "normal", "radius", "offset", "pitch", "waist",
                "extent", "u_range", "t_range", "c_drift", "r0", "span"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    return catalog.FamilySpec(kind=kind, params=params)


def _patch_from_args(args):
    fam = _family_from_args(args)
    return fam, catalog.make_patch(fam)


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_verify(args):
    _, patch = _patch_from_args(args)
    nu, nv = args.grid
    report = stationary.residual_grid(patch, args.alpha, nu, nv)
    print(f"sup|residual| = {report.sup_abs:.3g} over {report.sample_count} samples")
    output.check_writable(args.out, args.csv)
    if args.out:
        report.write_json(args.out)
    if args.csv:
        report.write_csv(args.csv)
    return 0


def _cmd_energy(args):
    _, patch = _patch_from_args(args)
    nu, nv = args.grid
    value = stationary.energy(patch, args.alpha, nu, nv)
    print(f"energy = {value:.12g}")
    if args.out:
        output.write_json(args.out, {"alpha": args.alpha, "nu": nu, "nv": nv,
                                     "energy": value})
    return 0


def _helicoid_ruled_spec() -> ruled.RuledSpec:
    e3 = np.array([0.0, 0.0, 1.0])
    gamma = Curve3(lambda s: (np.multiply.outer(s, e3),
                              np.broadcast_to(e3, s.shape + (3,)).copy(),
                              np.zeros(s.shape + (3,))))
    return ruled.RuledSpec(gamma=gamma, beta=ruled.equator_beta(),
                           s_range=(0.0, 2.0 * math.pi))


def _cmd_coeffs(args):
    if args.samples < 1:
        raise ValidationError("--samples must be at least 1")
    if args.spec:
        rs = catalog.ruled_spec_from_dict(catalog.read_spec(args.spec))
    elif args.family in ("helicoid", None):
        rs = _helicoid_ruled_spec()
    else:
        raise ValidationError("coeffs needs --spec or --family helicoid")
    s = np.linspace(*rs.s_range, args.samples)
    A = ruled.ruled_coeffs(rs, args.alpha, s)
    print(f"max|A_n| = {np.max(np.abs(A)):.3g} over {args.samples} samples")
    if args.out:
        output.write_csv(args.out, ["s", "A0", "A1", "A2", "A3", "A4"],
                         np.column_stack([s, A]), ["%.17g"] * 6)
    return 0


def _cmd_fourier(args):
    _, patch = _patch_from_args(args)
    fc = stationary.fourier_defect(patch, args.alpha, args.u,
                                   n_max=args.nmax, nv=args.nv)
    amp = np.hypot(fc.A, fc.B)
    print("harmonic amplitudes:",
          " ".join(f"n={n}:{a:.3g}" for n, a in enumerate(amp)))
    if args.out:
        output.write_json(args.out, fc.to_json_dict())
    return 0


def _cmd_generate(args):
    if args.family in ("neg2-ode", "neg2_ode"):
        if not args.kappa or not args.u or args.r0 is None:
            raise ValidationError("generate neg2-ode needs --kappa, --u and --r0")
        kappa = parse_scalar_expr(args.kappa)
        u_range = args.u
        spec = cyclic.integrate_neg2_family(
            kappa, args.a0, args.da0, args.r0, args.dr0, u_range)
        fam = catalog.FamilySpec(kind="frenet_cyclic", params={"spec": spec})
    elif args.family == "riemann":
        if args.r0 is None:
            raise ValidationError("generate riemann needs --r0")
        spec = catalog.riemann_minimal_spec(args.c_drift or 0.0,
                                            args.r0, args.span or 1.0)
        fam = catalog.FamilySpec(kind="parallel_cyclic", params={"spec": spec})
    else:
        raise ValidationError("generate supports --family neg2-ode or riemann")
    patch = catalog.make_patch(fam)
    nu, nv = args.grid
    report = stationary.residual_grid(patch, args.alpha, nu, nv)
    mesh = flow.sample_mesh(patch, nu, nv) if args.export else None
    print(f"generated; sup|residual| = {report.sup_abs:.3g} at alpha={args.alpha}")
    output.check_writable(args.out, args.solution, args.export)
    if args.out:
        catalog.save_family(fam, args.out)
    if args.solution:
        cyclic.write_solution_csv(spec, args.solution)
    if args.export:
        flow.write_obj(mesh, args.export)
    return 0


def _cmd_invert(args):
    fam, patch = _patch_from_args(args)
    inv = inversion.invert_patch(patch)
    nu, nv = args.grid
    mesh = flow.sample_mesh(inv, nu, nv) if args.export else None
    output.check_writable(args.out, args.export)
    if args.out:
        catalog.save_family(
            catalog.FamilySpec(kind="inverted", params={"inner": fam}), args.out)
    if args.export:
        flow.write_obj(mesh, args.export)
    print(f"inverted patch {patch.label!r}")
    return 0


def _cmd_verify_shift(args):
    _, patch = _patch_from_args(args)
    if args.direction == "inverse":
        patch = inversion.invert_patch(patch)
    nu, nv = args.grid
    before, after = inversion.verify_shift(patch, args.alpha, nu, nv)
    a2 = inversion.shifted_alpha(args.alpha)
    print(f"source sup|residual| = {before.sup_abs:.3g} at alpha={args.alpha}; "
          f"image sup|residual| = {after.sup_abs:.3g} at alpha={a2}")
    if args.out:
        output.write_json(args.out, {"alpha": args.alpha, "shifted_alpha": a2,
                                     "source": before.to_json_dict(),
                                     "image": after.to_json_dict()})
    return 0


def _cmd_flow(args):
    _, patch = _patch_from_args(args)
    nu, nv = args.grid
    mesh = flow.sample_mesh(patch, nu, nv)
    if args.perturb:
        rng = np.random.default_rng(args.seed)
        radial = mesh.vertices / np.linalg.norm(mesh.vertices, axis=-1,
                                                keepdims=True)
        mesh.vertices = mesh.vertices + args.perturb * radial * rng.uniform(
            -1.0, 1.0, (len(mesh.vertices), 1))
    final, trace = flow.descend(mesh, args.alpha, args.steps,
                                step_rule=args.step_rule, dt=args.dt)
    first, last = trace.rows[0], trace.rows[-1]
    print(f"energy {first[1]:.9g} -> {last[1]:.9g}; "
          f"grad_max {first[2]:.3g} -> {last[2]:.3g} in {args.steps} steps")
    output.check_writable(args.trace, args.export)
    if args.trace:
        trace.write_csv(args.trace)
    if args.export:
        flow.write_obj(final, args.export)
    return 0


def _cmd_export(args):
    _, patch = _patch_from_args(args)
    nu, nv = args.grid
    mesh = flow.sample_mesh(patch, nu, nv)
    flow.write_obj(mesh, args.export)
    print(f"wrote {len(mesh.vertices)} vertices, {len(mesh.triangles)} "
          f"triangles to {args.export}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser():
    ap = _ArgumentParser(
        prog="alphasurf",
        description="numerical toolkit for weighted-area stationary surfaces")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(name, help_text, grid_default="64x64"):
        sp = sub.add_parser(name, help=help_text)
        _add_family_flags(sp)
        sp.add_argument("--alpha", type=_finite_float, default=0.0)
        sp.add_argument("--grid", type=_grid_arg, default=_grid_arg(grid_default))
        sp.add_argument("--out")
        sp.add_argument("--seed", type=int, default=0)
        return sp

    sp = common("verify", "residual of the stationarity equation on a grid")
    sp.add_argument("--csv")
    sp.set_defaults(func=_cmd_verify)

    sp = common("energy", "weighted-area energy by quadrature")
    sp.set_defaults(func=_cmd_energy)

    sp = common("coeffs", "ruled-surface defect polynomial coefficients")
    sp.add_argument("--samples", type=int, default=64)
    sp.set_defaults(func=_cmd_coeffs)

    sp = common("fourier", "harmonics of the weighted defect on a v-circle")
    sp.add_argument("--u", type=_finite_float, required=True)
    sp.add_argument("--nmax", type=int, default=4)
    sp.add_argument("--nv", type=int, default=64)
    sp.set_defaults(func=_cmd_fourier)

    sp = common("generate", "integrate an ODE-defined surface family")
    sp.add_argument("--kappa", help="curvature expression in u, e.g. 1/u")
    sp.add_argument("--u", type=_range_arg, help="integration range lo:hi")
    sp.add_argument("--a0", type=_finite_float, default=0.0)
    sp.add_argument("--da0", type=_finite_float, default=0.0)
    sp.add_argument("--dr0", type=_finite_float, default=0.0)
    sp.add_argument("--solution", help="CSV path for the profile table")
    sp.add_argument("--export", help="OBJ path for the sampled surface")
    sp.set_defaults(func=_cmd_generate, alpha=-2.0)

    sp = common("invert", "transport a family through the sphere inversion")
    sp.add_argument("--export", help="OBJ path for the inverted mesh")
    sp.set_defaults(func=_cmd_invert)

    sp = common("verify-shift", "check the exponent shift under inversion")
    sp.add_argument("--direction", choices=["forward", "inverse"],
                    default="forward")
    sp.set_defaults(func=_cmd_verify_shift)

    sp = common("flow", "gradient descent of the discrete energy", "16x32")
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--step-rule", dest="step_rule",
                    choices=["backtracking", "fixed"], default="backtracking")
    sp.add_argument("--dt", type=_finite_float, default=1e-3)
    sp.add_argument("--perturb", type=_finite_float, default=0.0)
    sp.add_argument("--trace", help="CSV path for the energy trace")
    sp.add_argument("--export", help="OBJ path for the final mesh")
    sp.set_defaults(func=_cmd_flow)

    sp = common("export", "sample a family into an OBJ mesh", "32x64")
    sp.add_argument("--export", required=True)
    sp.set_defaults(func=_cmd_export)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
