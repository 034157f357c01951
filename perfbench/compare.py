"""Summarise and compare benchmark records written by run.py --out.

    python3 perfbench/compare.py rec1.json rec2.json ...
    python3 perfbench/compare.py base*.json --against new*.json

For each workload and metric it prints the run count, the median and the
spread (distance between the first and third quartiles over the median).
Traced records of one workload and seed must agree exactly on every work
count; any drift is printed and makes the exit code 1.
With --against it also prints the change of the median and marks every
end-to-end metric that got worse by more than its bound in BENCHMARK.json.
Records from hosts with a different mpmath backend or core count are not
comparable; the script refuses them and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from tracing import EXACT_COUNTS

COMPARABLE = ("mpmath_backend", "nproc")


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def summarise(records: list[dict]) -> dict:
    """(workload, metric) -> (values, unit)."""
    out: dict = defaultdict(lambda: ([], None))
    for rec in records:
        workload = rec["report"]["workload"]
        for name, m in rec["result"]["metrics"].items():
            values, _ = out[(workload, name)]
            values.append(m["value"])
            out[(workload, name)] = (values, m["unit"])
    return out


def count_drift(records: list[dict]) -> list[str]:
    """Work counts that differ between traced records of one workload and seed."""
    seen: dict = {}
    drift = []
    for rec in records:
        report, metrics = rec["report"], rec["result"]["metrics"]
        if not report["trace"]:
            continue
        key = (report["workload"], report["seed"])
        counts = {name: metrics[name]["value"] for name in EXACT_COUNTS}
        if key in seen and seen[key] != counts:
            drift += [f"{key} {name}: {seen[key][name]} vs {counts[name]}"
                      for name in EXACT_COUNTS if seen[key][name] != counts[name]]
        seen.setdefault(key, counts)
    return drift


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args(argv)

    base, new = load(args.records), load(args.against)
    hosts = {tuple(r["report"]["host"][k] for k in COMPARABLE) for r in base + new}
    if len(hosts) > 1:
        print(f"refusing to compare records from different hosts {COMPARABLE}: "
              f"{sorted(hosts)}", file=sys.stderr)
        return 2
    failing = [r["report"]["workload"] for r in base + new if not r["result"]["correct"]]
    if failing:
        print(f"warning: records with failed checks: {failing}", file=sys.stderr)

    drift = count_drift(base + new)
    for line in drift:
        print(f"DRIFT {line}")
    spec = json.loads(Path(args.benchmark).read_text())
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = summarise(base), summarise(new)
    worse = 0
    for key in sorted(a):
        workload, name = key
        values, unit = a[key]
        med, sp = spread(values)
        line = f"{workload:13s} {name:28s} n={len(values):2d} {med:12.5g} {unit:8s} spread {sp:6.1%}"
        if key in b:
            med_b, sp_b = spread(b[key][0])
            change = (med_b - med) / abs(med) if med else 0.0
            m = metric_spec.get(name, {})
            sign = 1 if m.get("better") == "lower" else -1
            flag = ""
            if "bound" in m and sign * change > m["bound"]:
                flag, worse = "  WORSE than bound", worse + 1
            line += f" | n={len(b[key][0]):2d} {med_b:12.5g} spread {sp_b:6.1%} change {change:+7.1%}{flag}"
        print(line)
    return 1 if worse or drift else 0


if __name__ == "__main__":
    sys.exit(main())
