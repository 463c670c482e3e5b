"""Check the outputs of one pass, and aggregate its spans when traced.

Usage: python3 check.py REQUEST_JSON

Runs in its own process because it parses result files of tens of MB: a
child's ``ru_maxrss`` starts at its parent's peak RSS, so the benchmark
process must stay small for ``peak_rss_mb`` to measure the commands.
Prints one JSON object: per command its problems, accuracy figure and
output hashes, plus the pass's per-layer metrics when traced.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import spans
import workloads


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_command(cmd, stdout):
    res = workloads.Result(stdout, cmd.outputs)
    try:
        problems, error = cmd.check(res)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems, error = [f"unreadable output: {exc!r}"], None
    hashes = {role: _sha256(path) for role, path in cmd.outputs.items()
              if Path(path).is_file()}
    return {"problems": problems, "error": error, "hashes": hashes}


def main():
    with open(sys.argv[1]) as fh:
        req = json.load(fh)
    work = Path(req["work"])
    wl = workloads.WORKLOADS[req["workload"]](req["seed"], work)
    results, traces = [], []
    for index, rc, stem in req["commands"]:
        if rc == 0:
            stdout = (work / f"{stem}.out").read_text(errors="replace")
            results.append(check_command(wl.commands[index], stdout))
        else:
            results.append(None)
        spans_path = work / f"{stem}.spans.json"
        if req["traced"] and spans_path.is_file():
            traces.append(json.loads(spans_path.read_text()))
    out = {"commands": results}
    if req["traced"]:
        out["layers"] = spans.layer_metrics(traces)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
