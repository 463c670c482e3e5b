"""alphasurf benchmark: seeded CLI workloads run as subprocesses.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-eval --seed 1 --seconds 25 --trace 0

Each workload is a fixed list of ``alphasurf`` commands whose parameters
come from ``--seed``.  The commands run one after another in a closed loop
with one client: each waits for the previous one to exit, so at most two
processes (this one and one child) are alive.  A pass is one run over the
list; passes repeat while the next one still ends within ``--seconds``,
and at least twice, so that identical arguments can be checked for
byte-identical outputs.

With ``--trace 0`` the last line reports the end-to-end metrics:
``wall_s`` (median pass), ``setup_s`` (median of a few ``verify --help``
runs), ``peak_rss_mb`` (largest child ``ru_maxrss`` in a pass, median
over passes) and ``err_log10`` (20 + log10 of the workload's worst
accuracy figure).  With ``--trace 1`` passes alternate between untraced
and traced (``traced.py``) and the last line reports the per-layer
metrics of ``spans.py`` plus the tracing overhead.  ``--workload all``
runs every workload in turn and prefixes each metric with its workload.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
LAUNCH = "import sys; from alphasurf.cli import main; sys.exit(main())"
# One BLAS thread in every child, identical on every commit measured.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3     # setup_s samples before, between and after passes
MIN_PASSES = 2
DEADLINE_S = 170.0     # the whole invocation stays under 180 s
ERR_SHIFT = 20.0       # err_log10 = ERR_SHIFT + log10(worst error) > 0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "err_log10": "log10"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Child:
    """Spawns children with a fixed environment and reaps them with wait4.

    Timed children are pinned to an allowed CPU chosen by the caller.  On
    a shared host one CPU can run markedly slower than the other for
    seconds at a time; the callers rotate the CPUs so that every pass and
    every command runs on each of them instead of leaving the placement
    to chance.
    """

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
        self.cpus = sorted(os.sched_getaffinity(0))

    def run(self, argv, stem, slot=0):
        """Run argv on CPU number ``slot`` (mod the CPU count) to completion.

        Returns (exit code, seconds, max RSS in KB).
        """
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("time budget exhausted")
        with open(self.work / f"{stem}.out", "wb") as out, \
                open(self.work / f"{stem}.err", "wb") as err:
            cpu = self.cpus[slot % len(self.cpus)]
            os.sched_setaffinity(0, {cpu})   # inherited by the child
            t0 = time.perf_counter()
            try:
                proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                        env=self.env, cwd=self.work)
            finally:
                os.sched_setaffinity(0, self.cpus)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:   # interrupted: leave no child running
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage.ru_maxrss

    def text(self, stem, kind="out"):
        return (self.work / f"{stem}.{kind}").read_text(errors="replace")


def _cache_sizes():
    """L2/L3 sizes in bytes of cpu0, read from sysfs; None where absent."""
    sizes = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = Path(index, "level").read_text().strip()
            text = Path(index, "size").read_text().strip()
        except OSError:
            continue
        mult = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
        sizes[f"l{level}_bytes"] = int(text.rstrip("KM")) * mult
    return {k: sizes.get(k) for k in ("l2_bytes", "l3_bytes")}


class WorkloadRun:
    """Set-up, timed passes and checks of one workload."""

    def __init__(self, name, seed, seconds, trace, work, deadline):
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.child = Child(work, deadline)
        self.deadline = deadline
        self.wl = workloads.WORKLOADS[name](seed, work)
        self.seed = seed
        self.hashes = {}      # (command, role) -> sha256 of the first pass
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures that are not known defects
        self.errors = []      # accuracy figures for err_log10
        self.setup_samples = []
        self.per_cmd = {c.name: {"s": [], "rss_kb": [], "outcome": set()}
                        for c in self.wl.commands}

    def prepare(self):
        """Write seeded inputs; untimed and excluded from setup_s."""
        req = dict(self.wl.prep, workdir=str(self.work), seed=self.seed)
        req_path = self.work / "prep.json"
        req_path.write_text(json.dumps(req))
        rc, _, _ = self.child.run([sys.executable, str(HERE / "prep.py"),
                                   str(req_path)], "prep")
        if rc != 0:
            raise BenchError("input preparation failed:\n"
                             + self.child.text("prep", "err"))
        info = json.loads(self.child.text("prep").splitlines()[-1])
        src = (ROOT / "src").resolve()
        if not Path(info["alphasurf_file"]).resolve().is_relative_to(src):
            raise BenchError(f"alphasurf imported from {info['alphasurf_file']}")
        return info

    def sample_setup(self):
        """A few `verify --help` runs: parser built, nothing computed."""
        for _ in range(SETUP_REPEATS):
            stem = f"setup{len(self.setup_samples)}"
            rc, seconds, _ = self.child.run(
                [sys.executable, "-c", LAUNCH, "verify", "--help"], stem,
                slot=len(self.setup_samples))
            if rc != 0:
                raise BenchError("`alphasurf verify --help` failed:\n"
                                 + self.child.text(stem, "err"))
            self.setup_samples.append(seconds)

    def run_pass(self, index, traced):
        """Run every command once, then check the outputs in a child.

        Returns (wall seconds, largest max RSS in KB, per-layer metrics or
        None).
        """
        records = []
        t0 = time.perf_counter()
        for i, cmd in enumerate(self.wl.commands):
            stem = f"p{index}c{i}"
            if traced:
                argv = [sys.executable, str(HERE / "traced.py"), stem,
                        str(self.work / f"{stem}.spans.json"), "--", *cmd.args]
            else:
                argv = [sys.executable, "-c", LAUNCH, *cmd.args]
            rc, seconds, rss = self.child.run(argv, stem, slot=index + i)
            records.append((cmd, stem, rc, seconds, rss))
        wall = time.perf_counter() - t0
        req_path = self.work / "check.json"
        req_path.write_text(json.dumps({
            "workload": self.wl.name, "seed": self.seed, "work": str(self.work),
            "traced": traced,
            "commands": [[i, r[2], r[1]] for i, r in enumerate(records)]}))
        rc, _, _ = self.child.run([sys.executable, str(HERE / "check.py"),
                                   str(req_path)], "check")
        if rc != 0:
            raise BenchError("output check crashed:\n"
                             + self.child.text("check", "err"))
        report = json.loads(self.child.text("check"))
        for (cmd, stem, rc, seconds, rss), checked in zip(records, report["commands"]):
            self._record(cmd, stem, rc, checked)
            self.per_cmd[cmd.name]["s"].append(seconds)
            self.per_cmd[cmd.name]["rss_kb"].append(rss)
            for path in self.work.glob(f"{stem}.*"):
                path.unlink()
        for cmd in self.wl.commands:
            for path in cmd.outputs.values():
                Path(path).unlink(missing_ok=True)
        return wall, max(r[4] for r in records), report.get("layers")

    def _record(self, cmd, stem, rc, checked):
        self.attempted += 1
        stats = self.per_cmd[cmd.name]
        if rc != 0:
            self.failed += 1
            expected = workloads.KNOWN_DEFECTS.get(cmd.known_defect, (None,))[0]
            if rc == expected:
                stats["outcome"].add(f"known defect {cmd.known_defect} (exit {rc})")
            else:
                err = self.child.text(stem, "err").strip().splitlines()
                self._unexpected(cmd, f"exit {rc}: {err[-1] if err else ''}")
            return
        problems = checked["problems"]
        for role, digest in checked["hashes"].items():
            if self.hashes.setdefault((cmd.name, role), digest) != digest:
                problems.append(f"{role} bytes differ from an identical earlier run")
        if problems:
            self.failed += 1
            self._unexpected(cmd, "; ".join(problems))
            return
        stats["outcome"].add("ok")
        if checked["error"] is not None:
            self.errors.append(checked["error"])

    def _unexpected(self, cmd, why):
        self.per_cmd[cmd.name]["outcome"].add("FAILED")
        self.unexpected.append(f"{cmd.name}: {why}")

    def measure(self):
        """At least MIN_PASSES passes, then more while the next one still
        ends within --seconds of the start."""
        walls = {False: [], True: []}
        rss, layer_runs = [], []
        start = time.perf_counter()
        index = 0
        while True:
            self.sample_setup()   # also warms the CPUs before each pass
            traced = self.trace and index % 2 == 1
            wall, peak, layers = self.run_pass(index, traced)
            walls[traced].append(wall)
            rss.append(peak)
            if traced:
                layer_runs.append(layers)
            index += 1
            now = time.perf_counter()
            cycle = (now - start) / index   # pass, checks and setup samples
            if index >= MIN_PASSES and (now - start + cycle > self.seconds
                                        or now + 1.5 * cycle > self.deadline):
                break
        self.sample_setup()
        return walls, rss, layer_runs


def _median_metrics(runs):
    """Median over traced passes; counts stay whole numbers."""
    return {k: (statistics.median_low if isinstance(runs[0][k], int)
                else statistics.median)([r[k] for r in runs]) for k in runs[0]}


def run_workload(name, args, work, deadline):
    run = WorkloadRun(name, args.seed, args.seconds, bool(args.trace), work,
                      deadline)
    info = run.prepare()
    walls, rss, layer_runs = run.measure()
    wall_s = statistics.median(walls[False])
    if args.trace:
        values = _median_metrics(layer_runs)
        traced_wall = statistics.median(walls[True])
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - wall_s
        units = spans.per_layer_units()
    else:
        worst = max(run.errors, default=math.nan)   # nan only if all failed
        values = {"wall_s": wall_s, "setup_s": statistics.median(run.setup_samples),
                  "peak_rss_mb": statistics.median(rss) / 1024.0,
                  "err_log10": ERR_SHIFT + math.log10(max(worst, 1e-300))}
        units = END_TO_END
    largest = max(run.wl.commands, key=lambda c: c.largest_bytes)
    env = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": info["python"], "numpy": info["numpy"],
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        **_cache_sizes(), "blas_env": BLAS_ENV,
        "largest_array_bytes": largest.largest_bytes,
        "largest_array_command": largest.name,
        "pass_walls_s": [round(w, 4) for w in walls[False]],
        "traced_pass_walls_s": [round(w, 4) for w in walls[True]],
    }
    print(json.dumps({"env": env}))
    for cmd_name, st in run.per_cmd.items():
        print(f"  {cmd_name:26s} {statistics.median(st['s']):7.3f} s "
              f"{max(st['rss_kb']) / 1024:7.1f} MB  {', '.join(sorted(st['outcome']))}")
    for line in run.unexpected:
        print(f"  FAILED {line}")
    print(f"{name}: attempted {run.attempted}, failed {run.failed} "
          f"({len(run.unexpected)} not known defects)")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    return {"correct": not run.unexpected, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception: the running child is killed and
    # the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "alphasurf" / "cli.py").is_file():
        print(f"error: no alphasurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = ROOT / ".perfbench_work"
    results = {}
    try:
        for name in names:
            work = work_root / f"{name}-{os.getpid()}"
            work.mkdir(parents=True, exist_ok=True)
            deadline = time.perf_counter() + DEADLINE_S
            results[name] = run_workload(name, args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for name in names:
            shutil.rmtree(work_root / f"{name}-{os.getpid()}", ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
