"""Tests of the benchmark's own machinery.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _trace(names, rows, import_s=0.1):
    return {"trace_id": "t", "import_s": import_s, "names": names, "spans": rows}


NESTED = _trace(
    ["cli.main", "stationary.residual_grid", "surface_kernel.eval_jet2",
     "surface_kernel.fundamental_data"],
    [[0, -1, 0, 0, 100, 0],
     [1, 0, 1, 10, 70, 0],
     [2, 1, 2, 15, 35, 400],
     [3, 1, 3, 40, 50, 400],
     [4, 0, 2, 75, 90, 100]])


def test_self_time_subtracts_direct_children_only():
    stats = spans.aggregate([NESTED])
    assert stats["cli.main"].self_ns == 100 - 60 - 15
    assert stats["stationary.residual_grid"].self_ns == 60 - 20 - 10
    jet = stats["surface_kernel.eval_jet2"]
    assert (jet.calls, jet.total_ns, jet.self_ns, jet.work) == (2, 35, 35, 500)


def test_layer_metrics_sum_over_commands_of_a_pass():
    m = spans.layer_metrics([NESTED, NESTED])
    assert m["surface_kernel.eval_jet2.points"] == 1000
    assert m["cli.main.self_s"] == 2 * 25 / 1e9
    assert m["stationary.residual_grid.self_s"] == 2 * 30 / 1e9
    assert m["surface_kernel.self_s"] == 2 * 45 / 1e9
    assert m["trace.spans"] == 10
    assert m["flow.descend.self_s"] == 0.0 and m["flow.accept_ratio"] == 0.0


def test_accept_ratio_counts_energy_calls_below_descend():
    tr = _trace(
        ["flow.descend", "flow.discrete_energy", "flow.TriMesh.is_closed"],
        [[0, -1, 0, 0, 100, 3],     # descend accepted 3 steps
         [1, 0, 1, 1, 2, 0],
         [2, 0, 2, 3, 9, 0],
         [3, 2, 1, 4, 5, 0],        # nested one level deeper still counts
         [4, 0, 1, 10, 11, 0],
         [5, 0, 1, 12, 13, 0],
         [6, -1, 1, 200, 201, 0]])  # outside descend
    assert spans.calls_under([tr], "flow.discrete_energy", "flow.descend") == 4
    assert spans.layer_metrics([tr])["flow.accept_ratio"] == 3 / 4


def test_benchmark_json_names_every_reported_metric_with_its_unit():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == spans.per_layer_units()
    reported = set(spans.layer_metrics([NESTED])) | {n for n, _ in spans.RUN_METRICS}
    assert reported == set(per_layer)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_workloads_are_a_function_of_the_seed(tmp_path):
    for build in workloads.WORKLOADS.values():
        a, b, c = build(7, tmp_path), build(7, tmp_path), build(8, tmp_path)
        assert [x.args for x in a.commands] == [x.args for x in b.commands]
        assert [x.args for x in a.commands] != [x.args for x in c.commands]
        for cmd in a.commands:
            assert cmd.known_defect in (None, *workloads.KNOWN_DEFECTS)


def test_traced_launcher_wraps_imported_aliases(tmp_path):
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), "cmd0", str(out),
         "--", "verify", "--family", "sphere", "--alpha", "-2", "--grid", "8x8"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    tr = json.loads(out.read_text())
    assert tr["trace_id"] == "cmd0"
    names = tr["names"]
    by_id = {s[0]: s for s in tr["spans"]}
    # stationary calls eval_jet2 through `from .surface_kernel import eval_jet2`
    jets = [s for s in tr["spans"] if names[s[2]] == "surface_kernel.eval_jet2"]
    assert jets and jets[0][5] == 64
    parent = names[by_id[jets[0][1]][2]]
    assert parent == "stationary.residual_grid"
    root = tr["spans"][0]
    assert names[root[2]] == "cli.main" and root[1] == -1
