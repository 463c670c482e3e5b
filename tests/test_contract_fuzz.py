"""Seeded fuzzing of the command-line contract.

Working command lines get one or two flags replaced by hostile values, spec
files of the wrong form are run as they are, and real spec files are run
with one field mutated (mutation fuzzing in the sense of Miller, Fredriksen
& So, "An empirical study of the reliability of UNIX utilities", CACM
1990).  Whatever the input, a command exits 0, 2 or 3; a failure prints
exactly one stderr line, never a traceback, and leaves no new file; a
success prints no non-finite number in its summary.
"""

import json
import os
import random
import re
import time
import warnings

import numpy as np

from alphasurf import catalog, ruled
from alphasurf.cli import main

VALUES = ["nan", "inf", "-inf", "0", "-1", "1e308", "", "1e", "-1:1",
          "{dir}", "{missing}"]

# Fast working command lines, and the flags that may be replaced in each.
_SHAPES = ["--center", "--normal", "--radius", "--offset", "--pitch", "--waist",
           "--extent", "--u-range", "--t-range", "--c-drift", "--r0", "--span"]
BASES = [
    (["verify", "--family", "sphere", "--grid", "4x4", "--alpha", "-2"],
     ["--family", "--grid", "--alpha", "--out", "--csv", "--spec", *_SHAPES]),
    (["verify", "--family", "catenoid", "--grid", "4x4", "--u-range=-1:1"],
     ["--grid", "--alpha", "--out", "--waist", "--center", "--u-range"]),
    (["verify", "--family", "helicoid", "--pitch", "1", "--grid", "4x4",
      "--alpha", "0"],
     ["--pitch", "--t-range", "--center", "--grid", "--csv", "--radius"]),
    (["verify", "--family", "affine-plane", "--offset", "1", "--grid", "4x4"],
     ["--offset", "--normal", "--extent", "--alpha", "--out"]),
    (["energy", "--family", "sphere", "--grid", "4x4"],
     ["--radius", "--center", "--alpha", "--grid", "--out", "--spec"]),
    (["fourier", "--family", "sphere", "--alpha", "-2", "--u", "1", "--nv", "16"],
     ["--u", "--nv", "--nmax", "--alpha", "--radius", "--out"]),
    (["coeffs", "--family", "helicoid", "--samples", "8"],
     ["--samples", "--alpha", "--out", "--spec", "--family"]),
    (["generate", "--family", "neg2-ode", "--kappa", "1/u", "--u", "1:1.1",
      "--r0", "1", "--grid", "4x4"],
     ["--kappa", "--u", "--r0", "--a0", "--da0", "--dr0", "--alpha", "--grid",
      "--out", "--solution", "--export", "--span"]),
    (["generate", "--family", "riemann", "--r0", "1", "--span", "0.1",
      "--alpha", "0", "--grid", "4x8"],
     ["--r0", "--span", "--c-drift", "--alpha", "--out", "--export", "--kappa"]),
    (["invert", "--family", "sphere", "--center", "2,0,0", "--grid", "4x8"],
     ["--center", "--radius", "--grid", "--out", "--export"]),
    (["verify-shift", "--family", "catenoid", "--grid", "4x4"],
     ["--waist", "--alpha", "--grid", "--direction", "--out"]),
    (["flow", "--family", "sphere", "--grid", "4x8", "--steps", "2",
      "--perturb", "0.01", "--step-rule", "fixed"],
     ["--steps", "--dt", "--perturb", "--seed", "--alpha", "--step-rule",
      "--radius", "--trace", "--export"]),
    (["flow", "--family", "sphere", "--grid", "4x8", "--steps", "2"],
     ["--dt", "--alpha", "--radius", "--grid", "--seed"]),
    (["export", "--family", "sphere", "--grid", "4x8", "--export", "e.obj"],
     ["--export", "--grid", "--radius", "--center"]),
]

# Spec files whose params have the wrong form or are not the family's.
SPECS = {
    "center-short": '{"kind": "sphere", "params": {"center": [1, 2]}}',
    "center-str": '{"kind": "sphere", "params": {"center": "abc"}}',
    "t-range-short": '{"kind": "helicoid", "params": {"t_range": [1]}}',
    "u-range-long": '{"kind": "catenoid", "params": {"u_range": [1, 2, 3]}}',
    "bogus": '{"kind": "sphere", "params": {"bogus": 1}}',
    "directrix-int": '{"kind": "cylinder_over_curve", "params": {"directrix": 5}}',
    "directrix-center-str": '{"kind": "cylinder_over_curve", "params": '
                            '{"directrix": {"type": "circle", "center": "ab", '
                            '"radius": 1}}}',
    "directrix-radius-str": '{"kind": "cylinder_over_curve", "params": '
                            '{"directrix": {"type": "circle", "center": [2, 0], '
                            '"radius": "x"}}}',
    "kind-list": '{"kind": [1], "params": {}}',
    "radius-bool": '{"kind": "sphere", "params": {"radius": true}}',
    "inner-bad": '{"kind": "inverted", "params": {"inner": {"kind": "sphere", '
                 '"params": {"center": [1]}}}}',
    "pitch-on-sphere": '{"kind": "sphere", "params": {"pitch": 1}}',
}
_SPEC_COMMANDS = (["verify", "--grid", "4x4"], ["energy", "--grid", "4x4"],
                  ["invert", "--grid", "4x8", "--out", "i.json"],
                  ["export", "--grid", "4x8", "--export", "e.obj"])

# The printed summaries; export's names its (possibly numeric) file last.
_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _replace(argv, flag, value, joined):
    """``argv`` with ``flag`` set to ``value``, as --flag=value or not."""
    argv = [a for a in argv if not a.startswith(flag + "=")]
    if flag in argv:
        i = argv.index(flag)
        del argv[i:i + 2]
    return argv + ([f"{flag}={value}"] if joined else [flag, value])


def _cases(rng, n, subst):
    cases = [cmd[:1] + ["--spec", f"{name}.json"] + cmd[1:]
             for name in SPECS for cmd in _SPEC_COMMANDS]
    while len(cases) < n:
        argv, flags = rng.choice(BASES)
        for flag in rng.sample(flags, rng.choice((1, 1, 2))):
            value = rng.choice(VALUES).format(**subst)
            argv = _replace(argv, flag, value, rng.random() < 0.7)
        cases.append(argv)
    return cases


def _listing(*dirs):
    return {d: sorted(os.listdir(d)) for d in dirs}


def _holds(argv, dirs, capsys):
    """Run ``argv`` and check the contract on its outcome; a success's new
    files in ``dirs[0]`` are removed, so the next run starts clean."""
    before = _listing(*dirs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err, argv
    if code:
        prefix = "error: " if code == 2 else "numerical failure: "
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), (argv, err)
        assert out == "", argv
        assert _listing(*dirs) == before, argv
        return code
    summary = out.rsplit(" to ", 1)[0] if argv[0] == "export" else out
    assert not _NON_FINITE.search(summary), (argv, out)
    for name in set(os.listdir(dirs[0])) - set(before[dirs[0]]):
        os.remove(dirs[0] / name)
    return code


def test_cli_contract_holds_on_hostile_input(tmp_path, monkeypatch, capsys):
    work, existing = tmp_path / "work", tmp_path / "existing"
    work.mkdir()
    existing.mkdir()
    for name, text in SPECS.items():
        (work / f"{name}.json").write_text(text)
    subst = {"dir": str(existing), "missing": str(tmp_path / "missing" / "x")}
    cases = _cases(random.Random(20261018), 200, subst)
    monkeypatch.chdir(work)
    start = time.perf_counter()
    codes = [_holds(argv, (work, existing), capsys) for argv in cases]
    elapsed = time.perf_counter() - start
    # every outcome is reached, and the whole run stays quick
    assert {0, 2, 3} <= set(codes)
    assert elapsed < 15.0


# ---------------------------------------------------------------------------
# one-field mutations of real spec files

# The command each real spec file runs under, with an output to leave behind.
REAL_COMMANDS = {
    "neg2": ["verify", "--alpha", "-2", "--grid", "4x4", "--out", "r.json"],
    "riemann": ["verify", "--alpha", "0", "--grid", "4x4", "--out", "r.json"],
    "ruled": ["verify", "--alpha", "0", "--grid", "4x4", "--out", "r.json"],
    "inverted": ["verify", "--alpha", "0", "--grid", "4x4", "--out", "r.json"],
    "ruled-bare": ["coeffs", "--samples", "8", "--out", "c.csv"],
}


def _real_specs(work, capsys):
    """The JSON of a neg2 family, a Riemann family, a ruled family, an
    inverted spec around the neg2 one, and the bare ruled spec that
    ``coeffs --spec`` reads."""
    for name, argv in (("neg2", ["--family", "neg2-ode", "--kappa", "1/u",
                                 "--u", "1:1.02", "--r0", "1"]),
                       ("riemann", ["--family", "riemann", "--r0", "1",
                                    "--span", "0.05", "--alpha", "0"])):
        assert main(["generate", *argv, "--grid", "4x4", "--out", f"{name}.json"]) == 0
    capsys.readouterr()
    rs = ruled.random_ruled_spec(np.random.default_rng(0))
    docs = {name: json.loads((work / f"{name}.json").read_text())
            for name in ("neg2", "riemann")}
    docs["ruled"] = catalog.family_to_dict(catalog.FamilySpec("ruled_generic", {"spec": rs}))
    docs["inverted"] = {"kind": "inverted", "params": {"inner": docs["neg2"]}}
    docs["ruled-bare"] = catalog.ruled_spec_to_dict(rs)
    return docs


def _fields(doc, path=()):
    """(path, value) of every field of the JSON object ``doc``, nested ones too."""
    for key, val in doc.items():
        yield path + (key,), val
        if isinstance(val, dict):
            yield from _fields(val, path + (key,))


def _setter(value):
    return lambda obj, key, rng: obj.__setitem__(key, value(obj[key]))


def _swap(obj, key, rng):
    a, b = rng.sample(sorted(obj[key]), 2)
    obj[key] = {**obj[key], a: obj[key][b], b: obj[key][a]}


# name -> (does it apply to a field (key, value), change(object, key, rng));
# a change replaces the field's value or drops it, and edits nothing in place
MUTATIONS = {
    "reversed": (lambda k, v: type(v) is list, _setter(lambda v: v[::-1])),
    "truncated": (lambda k, v: type(v) is list, _setter(lambda v: v[:len(v) // 2])),
    "one-element": (lambda k, v: type(v) is list, _setter(lambda v: v[:1])),
    "empty": (lambda k, v: type(v) is list, _setter(lambda v: [])),
    "string": (lambda k, v: type(v) is list, _setter(lambda v: "x")),
    "null": (lambda k, v: type(v) is list, _setter(lambda v: None)),
    "dropped": (lambda k, v: True, lambda obj, key, rng: obj.pop(key)),
    "true": (lambda k, v: True, _setter(lambda v: True)),
    "huge": (lambda k, v: True, _setter(lambda v: 1e300)),
    "swapped-table-keys": (lambda k, v: type(v) is dict and "d1" in v, _swap),
    "bogus-mode": (lambda k, v: k == "mode", _setter(lambda v: "helical")),
    "non-bool": (lambda k, v: k in ("u_periodic", "cylindrical"), _setter(lambda v: 1)),
    "non-string-label": (lambda k, v: k == "label", _setter(lambda v: 5)),
    "unknown-key": (lambda k, v: type(v) is dict, _setter(lambda v: {**v, "extra": 1})),
}


def test_cli_contract_holds_on_mutated_spec_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    docs = _real_specs(tmp_path, capsys)
    for name, doc in docs.items():   # every file works before its mutations
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv = REAL_COMMANDS[name][:1] + ["--spec", f"{name}.json"] + REAL_COMMANDS[name][1:]
        assert _holds(argv, (tmp_path,), capsys) == 0
    rng = random.Random(20261019)
    kinds = list(MUTATIONS)
    codes = []
    start = time.perf_counter()
    for i in range(196):   # 14 of each mutation
        applies, change = MUTATIONS[kinds[i % len(kinds)]]
        name, path = rng.choice([(name, path) for name, doc in docs.items()
                                 for path, val in _fields(doc)
                                 if applies(path[-1], val)])
        doc = obj = dict(docs[name])   # copies of the objects on the path
        for key in path[:-1]:
            obj[key] = dict(obj[key])
            obj = obj[key]
        change(obj, path[-1], rng)
        (tmp_path / "m.json").write_text(json.dumps(doc))
        argv = REAL_COMMANDS[name][:1] + ["--spec", "m.json"] + REAL_COMMANDS[name][1:]
        codes.append(_holds(argv, (tmp_path,), capsys))
    elapsed = time.perf_counter() - start
    assert {0, 2} <= set(codes)
    assert elapsed < 15.0
