"""Byte-identity of CLI and library outputs across refactors.

Each case runs one small ``alphasurf`` command in-process (or one library
call that writes a table) and hashes its stdout and every file it writes
with SHA-256.  The recorded digests pin the exact bytes, so a change that
claims "same behaviour" must leave every one of them unchanged.

The digests were recorded under Python 3.11.7 and numpy 2.4.6.  Another
numpy or libm may move the last bit of a float and so change a digest
without any change to this code.  They hold with numpy's AVX-512 (X86_V4)
dispatch, under the OpenBLAS kernel picked for the host or under
``OPENBLAS_CORETYPE=Haswell``.  They do not hold on two other paths:

- with ``NPY_DISABLE_CPU_FEATURES=X86_V4``, 11 fail:
  export-blocks/catenoid.obj, flow/flow.obj, flow-fixed/flow-fixed.obj,
  flow-fixed/trace-fixed.csv, invert/inv.obj, normalize-beta/table,
  verify-blocks/blocks.csv, verify-blocks/blocks.json,
  verify-shift-blocks/shift-blocks.json, verify-shift-blocks/stdout and
  verify-shift/shift.json;
- with ``OPENBLAS_CORETYPE=Prescott``, 1 fails: normalize-beta/table.

When an output change is intended, re-record with ``PYTHONPATH=src python
tests/test_golden.py`` and paste the printed dictionary over ``GOLDEN``.
"""

import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stdout

import numpy as np
import pytest

from alphasurf import catalog, cyclic, ruled
from alphasurf.cli import main
from test_ruled import tilted_great_circle, vertical_line_curve

# spec files written before the cases run; the line and circle directrices
# carry a -0.0 coordinate, whose sign the cylinder's jet must keep
SPEC_FILES = {
    "cyl.json": {
        "kind": "cylinder_over_curve",
        "params": {"directrix": {"type": "euler", "alpha": -1.0, "r0": 1.0,
                                 "theta0": 0.3, "length": 1.0},
                   "t_range": [-0.5, 0.5]},
    },
    "cyl-line.json": {
        "kind": "cylinder_over_curve",
        "params": {"directrix": {"type": "line", "point": [0.5, 1.0],
                                 "direction": [-1.0, -0.0]},
                   "t_range": [-0.5, 0.5]},
    },
    "cyl-circle.json": {
        "kind": "cylinder_over_curve",
        "params": {"directrix": {"type": "circle", "center": [0.3, -0.0],
                                 "radius": 1.0},
                   "t_range": [-0.5, 0.5]},
    },
}

# (case name, argv, files written); paths are relative to a scratch dir and
# later cases read the specs written by earlier ones.
CLI_CASES = [
    ("generate-neg2",
     ["generate", "--family", "neg2-ode", "--kappa", "1/u", "--u", "1:1.6",
      "--r0", "1", "--dr0", "1", "--grid", "12x16", "--out", "gen.json",
      "--solution", "sol.csv", "--export", "gen.obj"],
     ["gen.json", "sol.csv", "gen.obj"]),
    ("generate-riemann",
     ["generate", "--family", "riemann", "--c-drift", "0.3", "--r0", "1",
      "--span", "0.3", "--alpha", "0", "--grid", "8x16", "--out", "riem.json"],
     ["riem.json"]),
    ("verify-neg2-spec",
     ["verify", "--spec", "gen.json", "--alpha", "-2", "--grid", "12x12",
      "--out", "rep.json", "--csv", "rep.csv"],
     ["rep.json", "rep.csv"]),
    ("verify-riemann-spec",
     ["verify", "--spec", "riem.json", "--alpha", "0", "--grid", "8x8",
      "--csv", "riem.csv"],
     ["riem.csv"]),
    ("fourier-neg2-spec",
     ["fourier", "--spec", "gen.json", "--alpha", "-2", "--u", "1.3",
      "--nmax", "4", "--nv", "64", "--out", "four.json"],
     ["four.json"]),
    ("verify-cylinder-euler",
     ["verify", "--spec", "cyl.json", "--alpha", "-1", "--grid", "8x8",
      "--csv", "cyl.csv"],
     ["cyl.csv"]),
    ("verify-shift",
     ["verify-shift", "--family", "catenoid", "--alpha", "0", "--grid",
      "12x12", "--out", "shift.json"],
     ["shift.json"]),
    ("energy",
     ["energy", "--family", "sphere", "--alpha", "0", "--grid", "8x8",
      "--out", "energy.json"],
     ["energy.json"]),
    ("flow",
     ["flow", "--family", "sphere", "--radius", "1", "--alpha", "-2",
      "--grid", "8x16", "--steps", "5", "--perturb", "0.05", "--seed", "1",
      "--trace", "trace.csv", "--export", "flow.obj"],
     ["trace.csv", "flow.obj"]),
    ("flow-fixed",
     ["flow", "--family", "sphere", "--radius", "1.5", "--alpha", "-2",
      "--grid", "6x12", "--steps", "4", "--step-rule", "fixed", "--dt",
      "0.002", "--perturb", "0.05", "--seed", "2", "--trace",
      "trace-fixed.csv", "--export", "flow-fixed.obj"],
     ["trace-fixed.csv", "flow-fixed.obj"]),
    ("export",
     ["export", "--family", "sphere", "--radius", "2", "--grid", "8x16",
      "--export", "sphere.obj"],
     ["sphere.obj"]),
    # the inner family's params follow the flag table, not the argv order
    ("invert",
     ["invert", "--family", "catenoid", "--waist", "1.2", "--u-range", "0.2:1",
      "--center", "3,0,0", "--grid", "8x16", "--out", "inv.json",
      "--export", "inv.obj"],
     ["inv.json", "inv.obj"]),
    ("coeffs-helicoid",
     ["coeffs", "--family", "helicoid", "--samples", "33", "--out",
      "coeffs.csv"],
     ["coeffs.csv"]),
    # the cases below write more rows than one output block (4096), so
    # they pin the bytes across block boundaries
    ("verify-blocks",
     ["verify", "--family", "catenoid", "--alpha", "0", "--grid", "72x64",
      "--out", "blocks.json", "--csv", "blocks.csv"],
     ["blocks.json", "blocks.csv"]),
    ("verify-shift-blocks",
     ["verify-shift", "--family", "catenoid", "--alpha", "0", "--grid",
      "72x72", "--out", "shift-blocks.json"],
     ["shift-blocks.json"]),
    ("export-blocks",
     ["export", "--family", "catenoid", "--grid", "64x96", "--export",
      "catenoid.obj"],
     ["catenoid.obj"]),
    ("coeffs-blocks",
     ["coeffs", "--family", "helicoid", "--samples", "5000", "--out",
      "coeffs-blocks.csv"],
     ["coeffs-blocks.csv"]),
    # odd grids sample t = 0, where a -0.0 in a normal or a directrix
    # meets a zero ruling parameter
    ("verify-affine-plane",
     ["verify", "--family", "affine-plane", "--normal=-0,0,1", "--offset",
      "0.5", "--alpha", "1", "--grid", "5x5", "--out", "aplane.json",
      "--csv", "aplane.csv"],
     ["aplane.json", "aplane.csv"]),
    ("verify-affine-plane-down",
     ["verify", "--family", "affine-plane", "--normal=0,-0,-1", "--offset",
      "-0.5", "--alpha", "-1", "--grid", "7x5", "--out", "aplane-down.json",
      "--csv", "aplane-down.csv"],
     ["aplane-down.json", "aplane-down.csv"]),
    ("verify-cylinder-line",
     ["verify", "--spec", "cyl-line.json", "--alpha", "1", "--grid", "9x5",
      "--out", "cyl-line.out.json", "--csv", "cyl-line.csv"],
     ["cyl-line.out.json", "cyl-line.csv"]),
    ("verify-cylinder-circle",
     ["verify", "--spec", "cyl-circle.json", "--alpha", "-1", "--grid",
      "9x5", "--out", "cyl-circle.out.json", "--csv", "cyl-circle.csv"],
     ["cyl-circle.out.json", "cyl-circle.csv"]),
    # the catenoid's waist u = 0 writes rhs = -0.0, and the helicoid's axis
    # t = 0 writes x = -0.0, where 0.0 + t*cos s (a ruled jet) gives 0.0
    ("verify-catenoid-waist",
     ["verify", "--family", "catenoid", "--grid", "5x4", "--out",
      "waist.json", "--csv", "waist.csv"],
     ["waist.json", "waist.csv"]),
    ("verify-helicoid-axis",
     ["verify", "--family", "helicoid", "--grid", "5x5", "--out",
      "axis.json"],
     ["axis.json"]),
    # A4 of the saved random ruled spec is a dot product of three -0.0
    # products on half its rows, which must write 0, not -0; more rows than
    # one output block
    ("coeffs-random-ruled",
     ["coeffs", "--spec", "r0.json", "--samples", "5000", "--out", "r0.csv"],
     ["r0.csv"]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _jet_sha(*funcs, x) -> str:
    """Digest of the (value, first, second) tables of ``funcs`` at ``x``."""
    return _sha(json.dumps([part.tolist() for f in funcs
                            for part in f.eval2(x)]).encode())


def compute_digests(workdir) -> dict:
    """Run every case in ``workdir``; return {artifact name: sha256}."""
    out = {}
    random_table = catalog.ruled_spec_to_dict(
        ruled.random_ruled_spec(np.random.default_rng(0)))
    for name, spec in {**SPEC_FILES, "r0.json": random_table}.items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(spec, fh)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv, files in CLI_CASES:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(argv)
            assert code == 0, (name, code)
            out[f"{name}/stdout"] = _sha(buf.getvalue().encode())
            for f in files:
                with open(f, "rb") as fh:
                    out[f"{name}/{f}"] = _sha(fh.read())
    finally:
        os.chdir(cwd)
    # library paths: the striction-line table wrapper and the phase map of
    # normalize_beta, serialized the way spec files store ruled tables
    out["random-ruled-spec/table"] = _sha(json.dumps(random_table).encode())
    tilted = ruled.RuledSpec(gamma=vertical_line_curve(),
                             beta=tilted_great_circle(np.pi / 6),
                             s_range=(0.0, 2 * np.pi))
    table = catalog.ruled_spec_to_dict(ruled.normalize_beta(tilted))
    out["normalize-beta/table"] = _sha(json.dumps(table).encode())
    # hand-written jets: the adapted coordinates of a trig-polynomial
    # directrix, a latitude ruling and the finite-difference fallback
    s = np.linspace(0.0, 2.0 * np.pi, 33)
    trig = ruled.RuledSpec(
        gamma=ruled.trig_poly_curve([0.1, -0.2, 0.3],
                                    [[1.0, 0.5, -0.4], [0.2, 0.0, 0.7]],
                                    [[-0.3, 1.1, 0.2], [0.0, -0.6, 0.1]]),
        beta=ruled.equator_beta(), s_range=(0.0, 2.0 * np.pi))
    ac = ruled.adapted_coords(trig)
    out["adapted-coords/table"] = _jet_sha(ac.a, ac.b, ac.c, x=s)
    out["latitude-beta/table"] = _jet_sha(ruled.latitude_beta(0.3), x=s)
    out["fd-scalar-func/table"] = _jet_sha(cyclic.as_scalar_func(np.sin), x=s)
    return out


GOLDEN = {
    'adapted-coords/table':
        '7e457077d97ac064f453371678a9a01dd8a2e5b0e8978e2b94441c20cf6bff99',
    'coeffs-blocks/coeffs-blocks.csv':
        '043c5cf2afe3ad9c40df55ce1f9f3d70258cf40f4376094c9bb4e03a172eca35',
    'coeffs-blocks/stdout':
        '8a96aea3d5c7d08fb5231de64d3d80009e6e843173e242a0fa7aeb23ee506f00',
    'coeffs-helicoid/coeffs.csv':
        'b8c08dc2200a8dc9b2d1b9e0d960f193216517a72a18c9ac32481fdbff61e7f9',
    'coeffs-helicoid/stdout':
        '37111b44bee7d53d174786c54eca84f44fc7a105587018873134143d304a19c4',
    'coeffs-random-ruled/r0.csv':
        '0693b8468ff6c079f705ab29bfb9f1eea9b3227dbaa7824238ec463265a53f06',
    'coeffs-random-ruled/stdout':
        '9705b3a193650b901dd83184c8227564810b47c650ebc1e741cbb75d4f3ea120',
    'energy/energy.json':
        '4becee25bd591d13332b5fe2848d722e5a173449c87f076bd36a37d286c9326c',
    'energy/stdout':
        'fec051ca610f227a93cfd05e006846bfed08493cb612d86491d3041bd6f4299f',
    'export-blocks/catenoid.obj':
        '46aa985517dfdc770b66c9720fe3d45560566cf067dd434791343ba773473a21',
    'export-blocks/stdout':
        '9d852cf9688bbda942bba7aea136cd8935f54346b2235cea6a8c63422dc9e59a',
    'export/sphere.obj':
        'e68e578378ca1486d5bc2a1ee4e62de9f80187242f1a16caedc2b750ba625d99',
    'export/stdout':
        '54297a18260172165cbec2514699debe53f616073e067d8757a332242f856ceb',
    'fd-scalar-func/table':
        'dab047aaffed06177a777859a65a3581e885388f7520ecc85a86c057113c9eda',
    'flow-fixed/flow-fixed.obj':
        '1e7c89ca56f6785f3c7c4464d460b7d7e1d2f9c37a8ad6b130065e5c4952e32a',
    'flow-fixed/stdout':
        'ff7fd32951c1e30dbf208c72e17f174dbf09e51d54cf6a682053b4632a2a67b6',
    'flow-fixed/trace-fixed.csv':
        'a1ffd264a662a000b9a0366433d3a521c74f40d675f32c2f3aa3895e8aff8c4a',
    'flow/flow.obj':
        '5b53a055a4add2f3230272d55594ff495e0ea36cd61bff1cb90d0af76cd9a202',
    'flow/stdout':
        '72934a8dba3ab65beacc3b7bfc515b42b77e4187fb330a30494ba5ecbe4a5064',
    'flow/trace.csv':
        '74f2177ca76ce9cb4ed1e534cbfbdd60ef946bf67f25686e516639deaf692891',
    'fourier-neg2-spec/four.json':
        '5d93411bc71e25209a0a3750160d7eb095e3c3c562542d5f0672676a18f9773d',
    'fourier-neg2-spec/stdout':
        'cc6a17be52ea77f0455e587425a0101a105af369cbeed351d62c18acc351424c',
    'generate-neg2/gen.json':
        '94343c298f1846dbea2414ddfaad4be6611d8e2a171d77c44ee5bad2c6f0ec9d',
    'generate-neg2/gen.obj':
        '358679e01c3922ec36150a4436d4915e555bba2291ad5ab03c3b8f0b7b551bc5',
    'generate-neg2/sol.csv':
        'effa44a734f55a12bfc6b201993a16ce0680f80c0160aaa5fe8f0dc792d13d32',
    'generate-neg2/stdout':
        '25e9a68aeed0f5882eaf96b8f87ebb5ea5bafb3d840211d5a4046cbbf552cb91',
    'generate-riemann/riem.json':
        'e134113e5e9064af8d3d600581dbb8772b201cf02a9cc718296627090f3d775b',
    'generate-riemann/stdout':
        '12d71fe241716aee15281b44792ccab8607540aa9fe08ef54033fad2f2a91c35',
    'invert/inv.json':
        '5102ec797530256508cd0c198adb53bd0fa6c95dcdc3e1d1e6e97f24c2f8be8a',
    'invert/inv.obj':
        'd3687815c3d6fd756692b0b22a6d810dd9ac23e4cfcdcb0f2668be96892ed8df',
    'invert/stdout':
        '9934da038d48a5271a95414ab540589e0e45d39a36cb8547301d785e934c27cb',
    'latitude-beta/table':
        'dfda242a9f69bdcb56b2dcbcd3351e323cab20ee12e0700265768f6c2a184dac',
    'normalize-beta/table':
        'fdfae0ad345418258785c9a7192d39350d09f6bf92c77227ff3764af6c42bd40',
    'random-ruled-spec/table':
        '37a7cac4abb6dfa902a2e3db573550a570e9fd7a46f2814715134cfa8eb84177',
    'verify-affine-plane-down/aplane-down.csv':
        '7368b278fc907a92df651de7c171a006b2f7b189e5b0990ecf5cb22608aec644',
    'verify-affine-plane-down/aplane-down.json':
        '74d42bcfd1fe13f7a87dcc81685db5b13479f10892cd89382dd22c9f5ad2edca',
    'verify-affine-plane-down/stdout':
        'cf2724d0a9dc41f81d5b2f72a99e930e0a113e2d3d4d380cfd9ae06c339ee4db',
    'verify-affine-plane/aplane.csv':
        '329db985fce708f1d2640d5e6ef2e20daa2c77692490a52a21fbd31f73f1b8dc',
    'verify-affine-plane/aplane.json':
        '142424f6ab602817184f0d6e7b13d1b2f544f0df502de15f435e6aa3922f4aa2',
    'verify-affine-plane/stdout':
        'c6c4ff99882dd95dedb09f75efb092fb83f864bddc419ff323de3f626f26a0c3',
    'verify-blocks/blocks.csv':
        '394a10df838e57035187dbb2f6307d4d55d92f82179d2385c91b6677f4afa9fc',
    'verify-blocks/blocks.json':
        '19a801035ac56f812807ef59a4a686805e4908c2808c261cc066fd6c9a8922ae',
    'verify-blocks/stdout':
        '0281709b726c4fed084ccca11268f18f167a13a4d1b78ffa5fffd3368f028855',
    'verify-catenoid-waist/stdout':
        'cf00af8840deed9b9dc9e058070a64916479cabbde86c9c50e0ff4f381ec6738',
    'verify-catenoid-waist/waist.csv':
        'b29e312eae8537942032b2eb19b60c8713876c89def77f0e10410caad7e75944',
    'verify-catenoid-waist/waist.json':
        '81cd2f82a34e68befcd2f29997afc0bae8b76a7d51068efa203720ada3dc6864',
    'verify-cylinder-circle/cyl-circle.csv':
        '9fbe7024ea940381d70a1d69eb681d826b1e2dd89bae97b67f9cf1d2b5189b25',
    'verify-cylinder-circle/cyl-circle.out.json':
        '39d4429f4a9b4cb1544da0c9b2b35463a13ba5e2fdaffb2b8b51743e867e4a05',
    'verify-cylinder-circle/stdout':
        '3bf6613810983f5a9cbda729c0a1b1e5ba43ad0ffbb5a1a5f1d6002c0955092f',
    'verify-cylinder-euler/cyl.csv':
        '5cc8a081183af8a316751e91115b586fc64d48dff04ff08cd38745f054e38117',
    'verify-cylinder-euler/stdout':
        '79f1b59c4d99df13c9ece35003a7438d16c1a6da93cb431a702049babc807a85',
    'verify-cylinder-line/cyl-line.csv':
        'aa1938b7b18838469f541890edacdf6def9be0751e65666267ef759a14169714',
    'verify-cylinder-line/cyl-line.out.json':
        '2e4ef4852a919725e2e2badc39169dbbe6faffe7a33ba0cac05d7314824a5904',
    'verify-cylinder-line/stdout':
        '3c914467359910530bf7793686aa6a5f17daa215106087c54ea21a7a0dba6591',
    'verify-helicoid-axis/axis.json':
        '951f1521d9aedc653172dfcfea6293a1478636903c19e4bd65a8b4931b3291ce',
    'verify-helicoid-axis/stdout':
        '6c71035c8ee0539ede447bfc1924902c1c08065ee0483d45ec91dc132e9a4ddc',
    'verify-neg2-spec/rep.csv':
        'a46123c735d594c583e46ae1e983679fc8eacfe4e473f83bacbc5e0c4577a78d',
    'verify-neg2-spec/rep.json':
        'ac03e10a54b3a9e88c6f4fdf0affecb75a7ff77c7cbb97e7a32106de5baaa8ce',
    'verify-neg2-spec/stdout':
        '47b66ea91496e9078fc5009c0141a18eb1469d1a992bce7adab644ec3cf35583',
    'verify-riemann-spec/riem.csv':
        '8286ad15c916a7363362b3f3c5b2ec934bf9ce6e58d07345f9ad7db88fcb0ed9',
    'verify-riemann-spec/stdout':
        '173c323e97a19a8e3ed69f8481f7a946769d4ec19202819218963d7cd923e592',
    'verify-shift-blocks/shift-blocks.json':
        '1ae38f3021e22bfa116feae10a065383c9df4d74d3a6fe8d15afb39c04946e63',
    'verify-shift-blocks/stdout':
        'd219bfa470be858a6d1ba75d887e4c65d4b1aea8898c245284cc37997f5ef71d',
    'verify-shift/shift.json':
        'd7bdfd2abf39b4d634737d66d76e3bd5a4c20dd533946edce5b2f8063e0afe82',
    'verify-shift/stdout':
        '1810c57dcdf247a939e3b37279a19479238d4016a474b3754f70d32f8458aec3',
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_output_digest(digests, artifact):
    assert digests[artifact] == GOLDEN[artifact]


def test_golden_covers_every_artifact(digests):
    assert sorted(digests) == sorted(GOLDEN)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests_now = compute_digests(tmp)
    print("GOLDEN = {")
    for key in sorted(digests_now):
        print(f"    {key!r}:\n        {digests_now[key]!r},")
    print("}")
