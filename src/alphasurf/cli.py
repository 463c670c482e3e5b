"""Command-line front end.

Subcommands: verify, energy, coeffs, fourier, generate, invert,
verify-shift, flow, export.  Families come either from kind-specific flags
or from a JSON spec file; all file outputs are written only after the
computation has fully succeeded, so failed runs leave no partial files, and
the summary line is printed after the last of them.
Exit codes: 0 success, 2 validation problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import ast
import math
import re
import sys

import numpy as np

from . import catalog, cyclic, flow, inversion, output, ruled, stationary
from .errors import NumericalError, ValidationError
from .interp import ScalarFunc
from .surface_kernel import _tiles


# ---------------------------------------------------------------------------
# minimal arithmetic expressions in one variable (for kappa(u) and friends)

# Deepest expression tree accepted, in operator levels; the derivative trees
# are a few times deeper, and ``_ast_eval`` takes one stack frame per level.
MAX_EXPR_DEPTH = 50

_BINOPS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div"}
# the ufuncs that the operators call on arrays, so the values are bit-equal
_UFUNCS = {"neg": np.negative, "add": np.add, "sub": np.subtract,
           "mul": np.multiply, "div": np.divide}


def _number(node, text):
    """Float of a numeric literal node, read from its source like float()."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(text[node.col_offset:node.end_col_offset])
    return None


def _tree(node, text, depth=0):
    """The tuple tree of a parsed node; ``depth`` counts operator levels."""
    if depth > MAX_EXPR_DEPTH:
        raise RecursionError   # reported as Python's own nesting limits are
    value = _number(node, text)
    if value is not None:
        return ("num", value)
    if isinstance(node, ast.Name) and node.id == "u":
        return ("var",)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return ("neg", _tree(node.operand, text, depth + 1))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return (_BINOPS[type(node.op)], _tree(node.left, text, depth + 1),
                _tree(node.right, text, depth + 1))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        exp = node.right
        neg = isinstance(exp, ast.UnaryOp) and isinstance(exp.op, ast.USub)
        n = _number(exp.operand if neg else exp, text)
        if n is None:
            raise ValidationError("exponent must be a constant")
        return ("pow", _tree(node.left, text, depth + 1), -n if neg else n)
    raise ValidationError(f"unsupported syntax in expression {text!r}")


def _parse_tree(text):
    """The ``_ast_eval`` tree of an expression: numbers, ``u``, unary ``-``,
    ``+ - * /`` and ``^`` with a constant exponent, read by Python's own
    parser after ``^`` becomes ``**``."""
    text = " ".join(text.split())
    bad = re.search(r"[^0-9.eEu+\-*/^() ]|\*\*", text)
    if bad:
        raise ValidationError(f"unexpected {bad.group()!r} in expression")
    # Python refuses the leading zeros of an integer literal; float() does not
    text = re.sub(r"(?<![\w.])0+(?=\d)", "", text.replace("^", "**"))
    try:
        return _tree(ast.parse(text, mode="eval").body, text)
    except SyntaxError as exc:
        raise ValidationError(f"malformed expression: {exc.msg}") from None
    except (RecursionError, MemoryError):
        raise ValidationError(f"expression nested deeper than {MAX_EXPR_DEPTH} "
                              "levels") from None


def _ast_eval(node, u):
    kind = node[0]
    if kind == "num":
        return np.full(np.shape(u), node[1])
    if kind == "var":
        return np.asarray(u, dtype=float)
    if kind == "pow":
        return np.power(_ast_eval(node[1], u), node[2])
    return _UFUNCS[kind](*(_ast_eval(arg, u) for arg in node[1:]))


def _ast_diff(node):
    kind = node[0]
    if kind == "num":
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
    if kind in ("add", "sub"):
        return (kind, da, db)
    if kind == "mul":
        return ("add", ("mul", da, b), ("mul", a, db))
    # quotient rule
    return ("div", ("sub", ("mul", da, b), ("mul", a, db)),
            ("pow", b, 2.0))


def parse_scalar_expr(text) -> ScalarFunc:
    """Parse expressions like ``1/u`` or ``0.5*u^2 + 1`` into a ScalarFunc."""
    tree = _parse_tree(text)
    d1 = _ast_diff(tree)
    d2 = _ast_diff(d1)
    return ScalarFunc(lambda u: tuple(_ast_eval(n, u) for n in (tree, d1, d2)))


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


def _numbers_arg(sep, count, form):
    """A flag type reading ``count`` finite numbers split by ``sep``."""

    def parse(text):
        parts = [_finite_float(x) for x in text.split(sep)]
        if len(parts) != count:
            raise ValidationError(f"expected {form}, got {text!r}")
        return tuple(parts)

    return parse


_triple_arg = _numbers_arg(",", 3, "x,y,z triple")
_range_arg = _numbers_arg(":", 2, "lo:hi range")


def _grid_arg(text):
    try:
        nu, nv = map(int, text.lower().split("x"))
    except ValueError:   # too many or too few parts, or a part not an int
        raise ValidationError(f"expected NUxNV grid, got {text!r}") from None
    return nu, nv


# The family shape flags, in the order their values enter FamilySpec.params
# (and so the bytes of ``invert --out``), parsed by ``catalog.NUMBER_PARAMS``.
_NUMBER_ARGS = {1: _finite_float, 2: _range_arg, 3: _triple_arg}
_SHAPE_FLAGS = {key: _NUMBER_ARGS[catalog.NUMBER_PARAMS[key]] for key in (
    "center", "normal", "radius", "offset", "pitch", "waist", "extent",
    "u_range", "t_range", "c_drift", "r0", "span")}

# Output targets, in the order a command that has several checks them.
_OUTPUTS = ("out", "csv", "solution", "trace", "export")


# Each generated family's exponent, the default of generate --alpha, and the
# flags that it refuses: those of the other one.
_GENERATE = {"neg2-ode": (-2.0, ("c_drift", "span")),
             "riemann": (0.0, ("kappa", "u", "a0", "da0", "dr0"))}


def _family_from_args(args) -> catalog.FamilySpec:
    params = {key: getattr(args, key) for key in _SHAPE_FLAGS
              if getattr(args, key) is not None}
    if args.spec and params:
        raise ValidationError("--spec excludes --" + next(iter(params)).replace("_", "-"))
    if args.spec:
        return catalog.load_family(args.spec)
    if not args.family:
        raise ValidationError("either --family or --spec is required")
    return catalog.FamilySpec(kind=args.family.replace("-", "_"), params=params)


def _patch_from_args(args):
    fam = _family_from_args(args)
    return fam, catalog.make_patch(fam)


# ---------------------------------------------------------------------------
# subcommand implementations


def _summary(text, *numbers):
    """A command's summary line, which ``main`` prints once every file is
    written; like a result file, it refuses a number that is not finite."""
    if not np.isfinite(numbers).all():
        raise NumericalError(f"refusing to print non-finite values: {text}")
    return text


def _cmd_verify(args):
    _, patch = _patch_from_args(args)
    nu, nv = args.grid
    report = stationary.residual_grid(patch, args.alpha, nu, nv,
                                      rows=bool(args.out or args.csv))
    summary = _summary(f"sup|residual| = {report.sup_abs:.3g} over "
                       f"{report.sample_count} samples", report.sup_abs)
    if args.out:
        report.write_json(args.out)
    if args.csv:
        report.write_csv(args.csv)
    return summary


def _cmd_energy(args):
    _, patch = _patch_from_args(args)
    nu, nv = args.grid
    value = stationary.energy(patch, args.alpha, nu, nv)
    summary = _summary(f"energy = {value:.12g}", value)
    if args.out:
        output.write_json(args.out, {"alpha": args.alpha, "nu": nu, "nv": nv,
                                     "energy": value})
    return summary


def _helicoid_ruled_spec() -> ruled.RuledSpec:
    return ruled.RuledSpec(gamma=ruled._line(np.zeros(3), np.array([0.0, 0.0, 1.0])),
                           beta=ruled.equator_beta(), s_range=(0.0, 2.0 * math.pi))


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
    rows = np.empty((s.size, 6)) if args.out else None   # s beside A
    top, bottom = -np.inf, np.inf   # np.maximum keeps a NaN, as max() would
    for sl in _tiles(s.size):
        A = ruled.ruled_coeffs(rs, args.alpha, s[sl])
        if args.out:
            rows[sl, 0], rows[sl, 1:] = s[sl], A
        top, bottom = np.maximum(top, A.max()), np.minimum(bottom, A.min())
    top = abs(max(top, -bottom))   # abs() drops the sign of a zero
    summary = _summary(f"max|A_n| = {top:.3g} over {args.samples} samples", top)
    if args.out:
        output.write_csv(args.out, ["s", "A0", "A1", "A2", "A3", "A4"], rows)
    return summary


def _cmd_fourier(args):
    _, patch = _patch_from_args(args)
    fc = stationary.fourier_defect(patch, args.alpha, args.u,
                                   n_max=args.nmax, nv=args.nv)
    amp = np.hypot(fc.A, fc.B)
    summary = _summary("harmonic amplitudes: "
                       + " ".join(f"n={n}:{a:.3g}" for n, a in enumerate(amp)), *amp)
    if args.out:
        output.write_json(args.out, fc.to_json_dict())
    return summary


def _cmd_generate(args):
    family = "neg2-ode" if args.family == "neg2_ode" else args.family
    if family not in _GENERATE:
        raise ValidationError("generate supports --family neg2-ode or riemann")
    alpha = _GENERATE[family][0] if args.alpha is None else args.alpha
    for key in _GENERATE[family][1]:
        if getattr(args, key) is not None:
            raise ValidationError(f"generate {family} does not take --"
                                  + key.replace("_", "-"))
    if family == "neg2-ode":
        if not args.kappa or not args.u or args.r0 is None:
            raise ValidationError("generate neg2-ode needs --kappa, --u and --r0")
        a0, da0, dr0 = (0.0 if x is None else x for x in (args.a0, args.da0, args.dr0))
        spec = cyclic.integrate_neg2_family(parse_scalar_expr(args.kappa), a0,
                                            da0, args.r0, dr0, args.u)
        fam = catalog.FamilySpec(kind="frenet_cyclic", params={"spec": spec})
    else:
        if args.r0 is None:
            raise ValidationError("generate riemann needs --r0")
        spec = catalog.riemann_minimal_spec(**{
            key: val if getattr(args, key) is None else getattr(args, key)
            for key, val in catalog.FAMILIES["riemann_minimal"][1].items()})
        fam = catalog.FamilySpec(kind="parallel_cyclic", params={"spec": spec})
    patch = catalog.make_patch(fam)
    nu, nv = args.grid
    report = stationary.residual_grid(patch, alpha, nu, nv, rows=False)
    mesh = flow.sample_mesh(patch, nu, nv) if args.export else None
    summary = _summary(f"generated; sup|residual| = {report.sup_abs:.3g} at "
                       f"alpha={alpha}", report.sup_abs)
    if args.out:
        catalog.save_family(fam, args.out)
    if args.solution:
        cyclic.write_solution_csv(spec, args.solution)
    if args.export:
        flow.write_obj(mesh, args.export)
    return summary


def _cmd_invert(args):
    fam, patch = _patch_from_args(args)
    inv = inversion.invert_patch(patch)
    nu, nv = args.grid
    mesh = flow.sample_mesh(inv, nu, nv) if args.export else None
    if args.out:
        catalog.save_family(
            catalog.FamilySpec(kind="inverted", params={"inner": fam}), args.out)
    if args.export:
        flow.write_obj(mesh, args.export)
    return f"inverted patch {patch.label!r}"


def _cmd_verify_shift(args):
    _, patch = _patch_from_args(args)
    if args.direction == "inverse":
        patch = inversion.invert_patch(patch)
    nu, nv = args.grid
    before, after = inversion.verify_shift(patch, args.alpha, nu, nv,
                                           rows=bool(args.out))
    a2 = inversion.shifted_alpha(args.alpha)
    summary = _summary(f"source sup|residual| = {before.sup_abs:.3g} at "
                       f"alpha={args.alpha}; image sup|residual| = "
                       f"{after.sup_abs:.3g} at alpha={a2}",
                       before.sup_abs, after.sup_abs)
    if args.out:
        output.write_json(args.out, {"alpha": args.alpha, "shifted_alpha": a2,
                                     "source": before.to_json_dict(),
                                     "image": after.to_json_dict()})
    return summary


def _cmd_flow(args):
    if args.seed < 0:
        raise ValidationError("--seed must not be negative")
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
    summary = _summary(f"energy {first[1]:.9g} -> {last[1]:.9g}; "
                       f"grad_max {first[2]:.3g} -> {last[2]:.3g} in {args.steps} steps",
                       first[1], last[1], first[2], last[2])
    if args.trace:
        trace.write_csv(args.trace)
    if args.export:
        flow.write_obj(final, args.export)
    return summary


def _cmd_export(args):
    _, patch = _patch_from_args(args)
    nu, nv = args.grid
    mesh = flow.sample_mesh(patch, nu, nv)
    flow.write_obj(mesh, args.export)
    return (f"wrote {len(mesh.vertices)} vertices, {len(mesh.triangles)} "
            f"triangles to {args.export}")


# ---------------------------------------------------------------------------
# parser assembly


def build_parser():
    ap = _ArgumentParser(
        prog="alphasurf",
        description="numerical toolkit for weighted-area stationary surfaces")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help_text, func, shapes=_SHAPE_FLAGS, spec=True,
                alpha=0.0, grid="64x64", out=True):
        """A subcommand with the family, --alpha, --grid and --out flags
        that ``func`` reads; None or False leaves one out."""
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        source = sp.add_mutually_exclusive_group()
        source.add_argument("--family", help="catalog family kind")
        if spec:
            source.add_argument("--spec", help="JSON family spec file")
        for key in shapes:
            sp.add_argument("--" + key.replace("_", "-"), type=_SHAPE_FLAGS[key])
        if alpha is not None:
            sp.add_argument("--alpha", type=_finite_float, default=alpha)
        if grid:
            sp.add_argument("--grid", type=_grid_arg, default=grid)
        if out:
            sp.add_argument("--out")
        return sp

    sp = command("verify", "residual of the stationarity equation on a grid",
                 _cmd_verify)
    sp.add_argument("--csv")

    command("energy", "weighted-area energy by quadrature", _cmd_energy)

    sp = command("coeffs", "ruled-surface defect polynomial coefficients",
                 _cmd_coeffs, shapes=(), grid=None)
    sp.add_argument("--samples", type=int, default=64)

    sp = command("fourier", "harmonics of the weighted defect on a v-circle",
                 _cmd_fourier, grid=None)
    sp.add_argument("--u", type=_finite_float, required=True)
    sp.add_argument("--nmax", type=int, default=4)
    sp.add_argument("--nv", type=int, default=64)

    sp = command("generate", "integrate an ODE-defined surface family",
                 _cmd_generate, shapes=("c_drift", "r0", "span"), spec=False,
                 alpha=None)
    sp.add_argument("--alpha", type=_finite_float, help="default: the family's exponent")
    sp.add_argument("--kappa", help="curvature expression in u, e.g. 1/u")
    sp.add_argument("--u", type=_range_arg, help="integration range lo:hi")
    sp.add_argument("--a0", type=_finite_float)
    sp.add_argument("--da0", type=_finite_float)
    sp.add_argument("--dr0", type=_finite_float)
    sp.add_argument("--solution", help="CSV path for the profile table")
    sp.add_argument("--export", help="OBJ path for the sampled surface")

    sp = command("invert", "transport a family through the sphere inversion",
                 _cmd_invert, alpha=None)
    sp.add_argument("--export", help="OBJ path for the inverted mesh")

    sp = command("verify-shift", "check the exponent shift under inversion",
                 _cmd_verify_shift)
    sp.add_argument("--direction", choices=["forward", "inverse"],
                    default="forward")

    sp = command("flow", "gradient descent of the discrete energy", _cmd_flow,
                 grid="16x32", out=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--step-rule", dest="step_rule",
                    choices=["backtracking", "fixed"], default="backtracking")
    sp.add_argument("--dt", type=_finite_float, default=1e-3)
    sp.add_argument("--perturb", type=_finite_float, default=0.0)
    sp.add_argument("--trace", help="CSV path for the energy trace")
    sp.add_argument("--export", help="OBJ path for the final mesh")

    sp = command("export", "sample a family into an OBJ mesh", _cmd_export,
                 alpha=None, grid="32x64", out=False)
    sp.add_argument("--export", required=True)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        # every target is checked before the work, so a bad one fails
        # before anything is printed or written
        output.check_writable(*(getattr(args, k, None) for k in _OUTPUTS))
        # a non-finite result is refused once, not warned about on the way
        with np.errstate(all="ignore"):
            summary = args.func(args)
        print(summary)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
