"""Run one ``alphasurf`` command with its layers traced from outside.

Usage: python3 traced.py TRACE_ID SPANS_JSON -- ALPHASURF_ARGS...

Wraps every public function of each ``alphasurf`` module, and the class
methods listed in ``METHODS``, under every name the package binds them to
(``from .x import y`` aliases included), then calls
``alphasurf.cli.main``.  Spans stay in memory and are written to
SPANS_JSON when the command ends; the result files are the same bytes as
in an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

from spans import MODULES

METHODS = (
    ("interp", "ScalarFunc", "eval2"),
    ("interp", "QuinticHermite", "eval2"),
    ("interp", "Curve3", "eval2"),
    ("stationary", "ResidualReport", "to_json_dict"),
    ("stationary", "ResidualReport", "write_json"),
    ("stationary", "ResidualReport", "write_csv"),
    ("flow", "TriMesh", "is_closed"),
    ("flow", "FlowTrace", "write_csv"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_size(pos, name):
    return lambda args, kwargs, result: os.path.getsize(_arg(args, kwargs, pos, name))


# Work recorded per span, computed after the call and outside its interval.
WORK = {
    "surface_kernel.eval_jet2": lambda a, k, r: r.P.size // 3,
    "surface_kernel.fundamental_data": lambda a, k, r: r.H.size,
    "inversion.invert_jet": lambda a, k, r: r.P.size // 3,
    "ruled.ruled_coeffs": lambda a, k, r: r.size // 5,
    "interp.QuinticHermite.eval2": lambda a, k, r: getattr(_arg(a, k, 1, "u"), "size", 1),
    "flow.descend": lambda a, k, r: len(r[1].rows) - 1,  # accepted steps
    "stationary.ResidualReport.write_json": _file_size(1, "path"),
    "stationary.ResidualReport.write_csv": _file_size(1, "path"),
    "catalog.save_family": _file_size(1, "path"),
    "cyclic.write_solution_csv": _file_size(1, "path"),
    "flow.write_obj": _file_size(1, "path"),
    "flow.FlowTrace.write_csv": _file_size(1, "path"),
}


class Tracer:
    """Collects spans of one command in memory."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []

    def wrap(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        work_fn = WORK.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[sid] = [sid, parent, idx, start, end, 0]
            if work_fn is not None:
                spans[sid][5] = int(work_fn(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        """Replace each target under every package-level name bound to it."""
        mods = {m: sys.modules[f"alphasurf.{m}"] for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(obj, f"{short}.{attr}")
        for module in [sys.modules["alphasurf"], *mods.values()]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            setattr(cls, meth, self.wrap(getattr(cls, meth),
                                         f"{short}.{cls_name}.{meth}"))

    def dump(self, path, trace_id, import_s):
        with open(path, "w") as fh:
            json.dump({"trace_id": trace_id, "import_s": import_s,
                       "names": self.names,
                       "spans": [s for s in self.spans if s is not None]}, fh)


def main():
    trace_id, out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: traced.py TRACE_ID SPANS_JSON -- ALPHASURF_ARGS...")
    t0 = time.perf_counter_ns()
    cli = importlib.import_module("alphasurf.cli")   # numpy included
    import_s = (time.perf_counter_ns() - t0) / 1e9
    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        tracer.dump(out_path, trace_id, import_s)
    return rc


if __name__ == "__main__":
    sys.exit(main())
