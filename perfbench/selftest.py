"""Proof that the benchmark's output checks fire.

Runs every workload's operations once (seed 0) and confirms that all checks
pass.  Then it perturbs one output at a time and confirms that some check
fails: integers by one unit, floats and decimal strings by 1e-12 relative, a
nonzero exit code, and the cells of the files the operations write (compare
CSV, conjecture JSON, coefficient cache).  Fields listed in NOT_CHECKED only
echo an input or are diagnostics; fields in BOUND_ONLY are Perron line
quadratures, which are checked against a rigorous truncation bound rather
than a reference, so a 1e-12 change cannot show.  Fields in ROUNDING_LIMITED
are float64 values whose own rounding can exceed 1e-12 relative (a
difference of large numbers, or a sum of terms with phases near 2e3 rad);
they are checked against that rounding bound and must be caught at 1e-6
relative instead.  Run from the repo root:

    python3 perfbench/selftest.py

It exits with code 1 if any other perturbation goes unnoticed.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import mpmath

import workloads

NOT_CHECKED = {
    "sum": {"function", "x"},
    "compare_d_square": {"csv", "json", "function", "mode", "cutoff.kind", "cutoff.value"},
    "compare_two_omega": {"csv", "json", "function", "mode"},
    "compare_mu_squared": {"csv", "json", "function", "mode"},
    "conjecture": {"json", "epsilon", "epsilon@file"},
    "coeffs_cold": {"cache_path", "re_deriv@file", "im_deriv@file"},
    "decay": {"csv"},
    "integral": {"x", "c", "T"},
    "rectangle": {"edge_magnitudes.right", "edge_magnitudes.left",
                  "edge_magnitudes.top", "edge_magnitudes.bottom"},
    "constants128": {"precision_bits"},
    "constants192": {"precision_bits"},
    "residue_s1": {"center.0", "center.1", "radius", "x"},
    "residue_zero": {"center.0", "center.1", "radius", "x"},
    "dirichlet": {"s", "N"},
}
BOUND_ONLY = {
    "decay": {"rows.0.abs_error", "rows.1.abs_error", "rows.2.abs_error",
              "rows.3.abs_error"},
    "integral": {"real", "imag"},
    "residue_s1": {"imag"},
    "rectangle": {"discrepancy"},
}
ROUNDING_LIMITED = {
    "compare_d_square": {"E@file", "zero_sum@file"},
    "compare_two_omega": {"E@file"},
    "compare_mu_squared": {"E@file"},
    "conjecture": {"abs_zero_sum@file"},
    "decay": {"slope"},
}
NUMBER = re.compile(r"-?\d+(\.\d+)?([eE][-+]?\d+)?")


def perturbed(value, rel: float = 1e-12):
    """value moved by one unit (integers) or rel (everything else)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * (1 + rel) if value else rel
    if re.fullmatch(r"-?\d+", value):
        return str(int(value) + 1)
    with mpmath.workdps(60):
        v = mpmath.mpf(value)
        return mpmath.nstr(v * (1 + mpmath.mpf(rel)) if v else mpmath.mpf(rel), 40)


def leaves(node, prefix=""):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) or (
                isinstance(node, str) and NUMBER.fullmatch(node)):
            yield prefix[:-1], node
        return
    for key, value in items:
        yield from leaves(value, f"{prefix}{key}.")


def replaced(node, path: str, value):
    out = copy.deepcopy(node)
    *parents, last = path.split(".")
    target = out
    for key in parents:
        target = target[int(key) if isinstance(target, list) else key]
    target[int(last) if isinstance(target, list) else last] = value
    return out


def caught(op, result) -> bool:
    try:
        return any(not c.ok for c in op.check(result))
    except Exception:  # an unreadable output counts as caught
        return True


def result_variants(result, rel: float):
    """(field, perturbed result) for every numeric field of one result."""
    if dataclasses.is_dataclass(result):
        data = dataclasses.asdict(result)
        for path, value in leaves(data):
            yield path, type(result)(**replaced(data, path, perturbed(value, rel)))
        return
    rc, text = result
    yield "exit_code", (2, text)
    payload = json.loads(text)
    for path, value in leaves(payload):
        yield path, (rc, json.dumps(replaced(payload, path, perturbed(value, rel))))


def file_variants(path: Path, rel: float):
    """(field@file, new text) for the first and last data rows of a file."""
    text = path.read_text()
    if path.suffix == ".json":
        data = json.loads(text)
        for i in (0, len(data["trace"]) - 1):
            for key, value in data["trace"][i].items():
                yield f"{key}@file", json.dumps(replaced(data, f"trace.{i}.{key}",
                                                         perturbed(value, rel)))
        for key in ("epsilon", "sup_ratio", "argmax_x", "zeros_used"):
            yield f"{key}@file", json.dumps(replaced(data, key, perturbed(data[key], rel)))
        return
    lines = text.splitlines()
    data_rows = [i for i, line in enumerate(lines) if line and line[0].isdigit()]
    sep = "," if path.suffix == ".csv" else " "
    names = (lines[0].split(",") if sep == "," else
             ["gamma", "re_coeff", "im_coeff", "re_deriv", "im_deriv"])
    for i in (data_rows[0], data_rows[-1]):
        cells = lines[i].split(sep)
        for j, cell in enumerate(cells):
            new = lines.copy()
            new[i] = sep.join(cells[:j] + [str(perturbed(cell, rel))] + cells[j + 1:])
            yield f"{names[j]}@file", "\n".join(new) + "\n"


def written_files(op_name: str, work: Path) -> list[Path]:
    if op_name.startswith("compare_"):
        return [work / f"{op_name}.csv"]
    if op_name == "conjecture":
        return [work / "conjecture_scan.json"]
    if op_name == "coeffs_cold":
        return sorted(work.glob("*coeffs.txt"))
    return []


def missed_at(op, result, work: Path, rel: float) -> set[str]:
    """Fields whose perturbation by rel no check noticed."""
    missed = {field for field, variant in result_variants(result, rel)
              if not caught(op, variant)}
    for path in written_files(op.name, work):
        original = path.read_text()
        try:
            for field, text in file_variants(path, rel):
                path.write_text(text)
                if not caught(op, result):
                    missed.add(field)
        finally:
            path.write_text(original)
    op.check(result)  # leave any cross-operation state as the real output set it
    return missed


def prove(op, result, work: Path) -> list[str]:
    """Fields of op whose perturbation no check noticed, beyond the allowlists."""
    base = op.check(result)
    if not all(c.ok for c in base):
        return [f"unperturbed output fails: {[c.name for c in base if not c.ok]}"]
    allowed = NOT_CHECKED.get(op.name, set()) | BOUND_ONLY.get(op.name, set())
    missed = missed_at(op, result, work, 1e-12) - allowed
    if missed & ROUNDING_LIMITED.get(op.name, set()):
        missed -= ROUNDING_LIMITED[op.name] - missed_at(op, result, work, 1e-6)
    return sorted(missed)


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    failures = 0
    try:
        for name, build in workloads.WORKLOADS.items():
            (work / name).mkdir()
            workload = build(0, root, work / name)
            ops = ([workload.setup] if workload.setup else []) + workload.ops
            for op in ops:
                if op.prepare:
                    op.prepare()
                result = op.run()
                missed = prove(op, result, work / name)
                failures += bool(missed)
                print(f"{name:13s} {op.name:18s} "
                      + ("every perturbation caught" if not missed
                         else f"NOT CAUGHT: {missed}"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    print("bound-checked only (1e-12 changes cannot show):",
          json.dumps({k: sorted(v) for k, v in BOUND_ONLY.items()}))
    print("rounding-limited (caught at 1e-6):",
          json.dumps({k: sorted(v) for k, v in ROUNDING_LIMITED.items()}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
