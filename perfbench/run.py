"""divisorlab benchmark: one closed-loop client, workers = 1.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload formula_grid --seed 1 --seconds 20 --trace 0

After set-up, whole passes of the workload's operations repeat until
--seconds have elapsed (at least two passes).  Every output is checked after
its pass, outside the timed region.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced run with --trace 1.  The line
before it is a report with the host fingerprint, per-operation times and any
failed checks.  The exit code is 1 when any operation or check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads
from workloads import Check

#: Set-up repetitions per run (fresh-interpreter imports, then prewarms);
#: set-up time is the median import plus the median prewarm, in CPU seconds.
IMPORT_REPEATS = 7
SETUP_REPEATS = 3
MIN_PASSES = 2
IMPORT_PROBE = ("import time; t = time.process_time(); import divisorlab.cli; "
                "print(time.process_time() - t)")


def host_fingerprint(root: Path) -> dict:
    import mpmath
    import numpy

    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "mpmath": mpmath.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def import_seconds(root: Path) -> float:
    """Median CPU time to import divisorlab.cli in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


def timed(op: workloads.Op) -> tuple[float, float, object, Check | None]:
    """(wall, cpu, result, failure) of one operation; checks run later."""
    if op.prepare:
        op.prepare()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        result, failure = op.run(), None
    except (Exception, SystemExit) as exc:  # an operation that raises has failed
        result, failure = None, Check(f"{op.name}.raised", False, detail=repr(exc))
    return time.perf_counter() - w0, time.process_time() - c0, result, failure


def checked(op: workloads.Op, result, failure: Check | None) -> list[Check]:
    if failure is not None:
        return [failure]
    try:
        return op.check(result)
    except Exception as exc:  # a malformed output fails its check
        return [Check(f"{op.name}.unreadable", False, detail=repr(exc))]


class Runner:
    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failed_checks: list[Check] = []
        self.digits: dict[str, float] = {}
        self.op_times: dict[str, list[float]] = {}

    def fail(self, check: Check) -> None:
        """A failure outside any one operation, such as a drifting count."""
        self.failed += 1
        self.failed_checks.append(check)

    def record(self, checks: list[Check]) -> None:
        self.attempted += 1
        bad = [c for c in checks if not c.ok]
        if bad:
            self.failed += 1
            self.failed_checks.extend(bad)
        for c in checks:
            if c.digits is not None:
                self.digits[c.name] = min(c.digits, self.digits.get(c.name, c.digits))

    def run_ops(self, ops: list[workloads.Op],
                during=contextlib.nullcontext) -> tuple[float, float]:
        """Run ops back to back inside during(), then check them outside it;
        returns (wall, cpu)."""
        done = []
        wall = cpu = 0.0
        with during():
            for op in ops:
                w, c, result, failure = timed(op)
                wall, cpu = wall + w, cpu + c
                self.op_times.setdefault(op.name, []).append(w)
                done.append((op, result, failure))
        for op, result, failure in done:
            self.record(checked(op, result, failure))
        return wall, cpu

    def setup(self) -> list[float]:
        """CPU seconds of each prewarm."""
        if self.workload.setup is None:
            return [0.0]
        return [self.run_ops([self.workload.setup])[1] for _ in range(SETUP_REPEATS)]


def traced_unit(runner: Runner) -> tuple[float, dict]:
    """One traced set-up (if any) plus one traced pass: (pass wall, metrics).
    Only the operations are traced; their checks run outside the tracer."""
    tracer = tracing.Tracer()
    if runner.workload.setup is not None:
        runner.run_ops([runner.workload.setup], tracer.installed)
    wall, _ = runner.run_ops(runner.workload.ops, tracer.installed)
    traced_calls = sum(1 for s in tracer.spans if s.name == "zeta.mp")
    if traced_calls != tracer.mp_calls:
        runner.fail(Check("trace.zeta_calls", False, detail=(
            f"{traced_calls} traced of {tracer.mp_calls} counted by zeta.call_count()")))
    return wall, tracing.layer_metrics(tracer.spans, tracer.mp_calls)


def measure(runner: Runner, seconds: float, traced: bool) -> dict:
    """Plain passes until `seconds` have elapsed; traced runs interleave
    traced units with plain passes (U T T U T ...) for the overhead."""
    plain: list[tuple[float, float]] = []
    units: list[tuple[float, dict]] = []
    t0 = time.perf_counter()

    def more() -> bool:
        return time.perf_counter() - t0 < seconds

    if not traced:
        while len(plain) < MIN_PASSES or more():
            plain.append(runner.run_ops(runner.workload.ops))
        return {"plain": plain, "units": units}
    plain.append(runner.run_ops(runner.workload.ops))
    units += [traced_unit(runner), traced_unit(runner)]
    while more():
        plain.append(runner.run_ops(runner.workload.ops))
        units.append(traced_unit(runner))
    return {"plain": plain, "units": units}


def per_layer(runner: Runner, measured: dict) -> dict[str, float]:
    """Counts from the first traced unit (drift fails the run), median times."""
    units = [metrics for _, metrics in measured["units"]]
    for other in units[1:]:
        for name in tracing.EXACT_COUNTS:
            if other[name] != units[0][name]:
                runner.fail(Check(f"drift.{name}", False,
                                  detail=f"{units[0][name]} then {other[name]}"))
    out = {name: (units[0][name] if name in tracing.EXACT_COUNTS else
                  statistics.median(u[name] for u in units)) for name in units[0]}
    plain_wall = statistics.median(w for w, _ in measured["plain"])
    out["trace.overhead_s"] = statistics.median(w for w, _ in measured["units"]) - plain_wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write the full record to this JSON file")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "divisorlab" / "cli.py").is_file() or not (
            root / workloads.ZEROS_FILE).is_file():
        print(f"error: {root} is not a divisorlab source checkout "
              f"(needs src/divisorlab and {workloads.ZEROS_FILE})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    host = host_fingerprint(root)
    import_s = import_seconds(root)
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, root, work)
        runner = Runner(workload)
        setup_s = import_s + statistics.median(runner.setup())
        measured = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    passes = measured["plain"]
    walls = [w for w, _ in passes]
    # Declared metrics are CPU seconds: the guest kernel leaves the time the
    # hypervisor steals out of process CPU time but not out of wall time,
    # which stealing spreads by a third from run to run.  Wall time is
    # reported alongside.
    end_to_end = {
        "cpu_s": statistics.median(c for _, c in passes),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "min_correct_digits": min(runner.digits.values(), default=0.0),
    }
    values = per_layer(runner, measured) if args.trace else end_to_end
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host, "inputs": workload.notes,
        "wall_s": statistics.median(walls), "wall_s_max": max(walls),
        "pass_wall_s": walls, "pass_cpu_s": [c for _, c in passes],
        "ops_failed": runner.failed / runner.attempted,
        "end_to_end": end_to_end,
        "op_wall_s": runner.op_times,
        "weakest_digits": sorted(runner.digits.items(), key=lambda kv: kv[1])[:3],
        "failed_checks": [(c.name, c.detail) for c in runner.failed_checks[:20]],
    }
    correct = runner.failed == 0
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps({"report": report, "result": result},
                                             indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
