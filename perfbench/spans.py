"""Aggregation of the spans written by ``traced.py`` into per-layer metrics.

A trace is one command: ``{"trace_id", "import_s", "names", "spans"}``,
where each span is ``[id, parent, name_index, start_ns, end_ns, work]``
and ``parent`` is -1 for a root span.  ``work`` is the span's count of
points, samples, bytes or accepted steps, depending on the layer.
Standard library only, so the benchmark process never imports numpy.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

MODULES = ("cli", "surface_kernel", "stationary", "inversion", "ruled",
           "cyclic", "catalog", "interp", "flow")

# (metric, unit, span names, field); fields are "s" (inclusive time),
# "self_s" (time minus wrapped children), "calls" and "work".
LAYER_METRICS = (
    ("cli.main.self_s", "s", ("cli.main",), "self_s"),
    ("surface_kernel.eval_jet2.s", "s", ("surface_kernel.eval_jet2",), "s"),
    ("surface_kernel.eval_jet2.points", "count", ("surface_kernel.eval_jet2",), "work"),
    ("surface_kernel.fundamental_data.s", "s", ("surface_kernel.fundamental_data",), "s"),
    ("surface_kernel.fundamental_data.points", "count",
     ("surface_kernel.fundamental_data",), "work"),
    ("stationary.residual_grid.self_s", "s", ("stationary.residual_grid",), "self_s"),
    ("stationary.energy.self_s", "s", ("stationary.energy",), "self_s"),
    ("stationary.fourier_defect.self_s", "s", ("stationary.fourier_defect",), "self_s"),
    ("stationary.weighted_defect.s", "s", ("stationary.weighted_defect",), "s"),
    ("stationary.write_json.s", "s", ("stationary.ResidualReport.write_json",), "s"),
    ("stationary.write_csv.s", "s", ("stationary.ResidualReport.write_csv",), "s"),
    ("stationary.bytes_written", "B", ("stationary.ResidualReport.write_json",
                                       "stationary.ResidualReport.write_csv"), "work"),
    ("inversion.invert_jet.s", "s", ("inversion.invert_jet",), "s"),
    ("inversion.invert_jet.points", "count", ("inversion.invert_jet",), "work"),
    ("inversion.verify_shift.self_s", "s", ("inversion.verify_shift",), "self_s"),
    ("ruled.ruled_coeffs.s", "s", ("ruled.ruled_coeffs",), "s"),
    ("ruled.ruled_coeffs.samples", "count", ("ruled.ruled_coeffs",), "work"),
    ("cyclic.integrate_neg2_family.self_s", "s", ("cyclic.integrate_neg2_family",), "self_s"),
    ("cyclic.frame_from_curvature.s", "s", ("cyclic.frame_from_curvature",), "s"),
    ("cyclic.frame_from_curvature.calls", "count", ("cyclic.frame_from_curvature",), "calls"),
    ("cyclic.cyclic_spec_from_dict.self_s", "s", ("cyclic.cyclic_spec_from_dict",), "self_s"),
    ("cyclic.build_cyclic.s", "s", ("cyclic.build_cyclic",), "s"),
    ("cyclic.write_solution_csv.s", "s", ("cyclic.write_solution_csv",), "s"),
    ("catalog.riemann_minimal_spec.self_s", "s", ("catalog.riemann_minimal_spec",), "self_s"),
    ("catalog.make_patch.s", "s", ("catalog.make_patch",), "s"),
    ("catalog.load_family.self_s", "s", ("catalog.load_family",), "self_s"),
    ("catalog.save_family.s", "s", ("catalog.save_family",), "s"),
    ("catalog.bytes_written", "B", ("catalog.save_family",), "work"),
    ("interp.ScalarFunc.eval2.s", "s", ("interp.ScalarFunc.eval2",), "s"),
    ("interp.ScalarFunc.eval2.calls", "count", ("interp.ScalarFunc.eval2",), "calls"),
    ("interp.QuinticHermite.eval2.s", "s", ("interp.QuinticHermite.eval2",), "s"),
    ("interp.QuinticHermite.eval2.calls", "count", ("interp.QuinticHermite.eval2",), "calls"),
    ("interp.QuinticHermite.eval2.points", "count", ("interp.QuinticHermite.eval2",), "work"),
    ("flow.sample_mesh.s", "s", ("flow.sample_mesh",), "s"),
    ("flow.TriMesh.is_closed.s", "s", ("flow.TriMesh.is_closed",), "s"),
    ("flow.discrete_gradient.s", "s", ("flow.discrete_gradient",), "s"),
    ("flow.discrete_gradient.calls", "count", ("flow.discrete_gradient",), "calls"),
    ("flow.discrete_energy.s", "s", ("flow.discrete_energy",), "s"),
    ("flow.discrete_energy.calls", "count", ("flow.discrete_energy",), "calls"),
    ("flow.descend.self_s", "s", ("flow.descend",), "self_s"),
    ("flow.write_obj.s", "s", ("flow.write_obj",), "s"),
    ("flow.bytes_written", "B", ("flow.write_obj", "flow.FlowTrace.write_csv"), "work"),
)

# Metrics computed from the traces in other ways, with their units.
EXTRA_METRICS = (
    ("cli.import_s", "s"),        # median per command of `import alphasurf.cli`
    ("flow.accept_ratio", "ratio"),  # accepted steps / discrete_energy calls in descend
    *((f"{m}.self_s", "s") for m in MODULES),
    ("trace.spans", "count"),
)

# Metrics of the traced run as a whole, filled in by run.py.
RUN_METRICS = (
    ("trace.wall_s", "s"),        # median traced pass
    ("trace.overhead_s", "s"),    # median traced pass minus median untraced pass
)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    units.update(EXTRA_METRICS)
    units.update(RUN_METRICS)
    return units


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    work: int = 0


def aggregate(traces):
    """Per span name: calls, inclusive time, self time and summed work.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap (one thread).
    """
    stats = {}
    for tr in traces:
        names = tr["names"]
        child_ns = {}
        for _, parent, _, start, end, _ in tr["spans"]:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        for sid, _, idx, start, end, work in tr["spans"]:
            st = stats.setdefault(names[idx], SpanStats())
            dur = end - start
            st.calls += 1
            st.total_ns += dur
            st.self_ns += dur - child_ns.get(sid, 0)
            st.work += work
    return stats


def calls_under(traces, name, ancestor):
    """Number of ``name`` spans that have an ``ancestor`` span above them."""
    count = 0
    for tr in traces:
        names = tr["names"]
        by_id = {s[0]: s for s in tr["spans"]}
        for span in tr["spans"]:
            if names[span[2]] != name:
                continue
            parent = span[1]
            while parent >= 0:
                if names[by_id[parent][2]] == ancestor:
                    count += 1
                    break
                parent = by_id[parent][1]
    return count


def layer_metrics(traces):
    """Per-layer metrics of one pass (a list of command traces).

    Layers a pass never enters read 0: no call, no time.
    """
    stats = aggregate(traces)
    out = {}
    for metric, _, span_names, field in LAYER_METRICS:
        parts = [stats.get(n, SpanStats()) for n in span_names]
        if field == "s":
            out[metric] = sum(p.total_ns for p in parts) / 1e9
        elif field == "self_s":
            out[metric] = sum(p.self_ns for p in parts) / 1e9
        elif field == "calls":
            out[metric] = sum(p.calls for p in parts)
        else:
            out[metric] = sum(p.work for p in parts)
    out["cli.import_s"] = (statistics.median(tr["import_s"] for tr in traces)
                           if traces else 0.0)
    accepted = stats.get("flow.descend", SpanStats()).work
    attempts = calls_under(traces, "flow.discrete_energy", "flow.descend")
    out["flow.accept_ratio"] = accepted / attempts if attempts else 0.0
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            st.self_ns for name, st in stats.items()
            if name.split(".", 1)[0] == module) / 1e9
    out["trace.spans"] = sum(st.calls for st in stats.values())
    return out
