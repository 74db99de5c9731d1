"""Self-test of the benchmark at its tiny sizes.

    python3 perfbench/selftest.py

Checks, in about a minute, that

* every workload, untraced and traced, exits 0 and prints each named metric
  with its unit, and that its last line is the result object with exactly the
  metrics and units BENCHMARK.json lists;
* a run whose program gives a wrong answer fails a check and exits nonzero;
* in a directory holding only BENCHMARK.json and perfbench/, the command
  exits nonzero without printing a result.

Exits 0 if every check passes.  The tiny runs are not measurements.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def result_line(stdout: str):
    try:
        doc = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    return doc if isinstance(doc, dict) and set(doc) == RESULT_KEYS else None


def check_spec(spec: dict) -> None:
    expect([(e["name"], e["unit"]) for e in spec["end_to_end"]] == list(metrics.END_TO_END),
           "BENCHMARK.json end_to_end matches the benchmark's metrics")
    expect([(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]]
           == list(metrics.PER_LAYER), "BENCHMARK.json per_layer matches the benchmark's")
    expect([w["name"] for w in spec["workloads"]] == list(metrics.ALL),
           "BENCHMARK.json workloads match the benchmark's")


def check_run(spec: dict, workload: str, trace: int) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    what = f"{workload} trace {trace}"
    expect(proc.returncode == 0, f"{what}: exit code {proc.returncode}")
    lines = proc.stdout.splitlines()
    named = list(metrics.REPORT_END_TO_END) + [spec[:2] for spec in metrics.PER_LAYER if trace]
    missing = [name for name, unit in named
               if not any(line.split()[:1] == [name] and unit in line.split()[2:3]
                          for line in lines)]
    expect(not missing, f"{what}: report names every metric with its unit {missing or ''}")
    doc = result_line(proc.stdout)
    expect(doc is not None and doc["correct"] is True, f"{what}: result line, correct")
    if doc is None:
        return
    listed = spec["per_layer" if trace else "end_to_end"]
    expect({n: m["unit"] for n, m in doc["metrics"].items()}
           == {e["name"]: e["unit"] for e in listed},
           f"{what}: result metrics and units are exactly BENCHMARK.json's")
    expect(all(isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
               for m in doc["metrics"].values()), f"{what}: every value is a number")
    expect(isinstance(doc["attempted"], int) and doc["attempted"] >= 1
           and isinstance(doc["failed"], int), f"{what}: attempted and failed are counts")


def check_wrong_answer() -> None:
    """A program that answers the gain question wrongly fails the checks."""
    import run

    run.import_package()
    from pulsectrl import regions

    honest = regions.min_control_gain

    def off_by_a_bit(*args, **kwargs):
        return honest(*args, **kwargs) + 0.01

    regions.min_control_gain = off_by_a_bit
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "point_queries", "--seed", "7", "--seconds", "0",
                             "--tiny"])
    finally:
        regions.min_control_gain = honest
    doc = result_line(out.getvalue())
    expect(code != 0 and doc is not None and doc["correct"] is False,
           f"wrong gains: exit code {code}, correct {doc and doc['correct']}")


def check_bare_directory() -> None:
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "pde_crosscheck", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        expect(proc.returncode != 0 and result_line(proc.stdout) is None,
               f"bare directory: exit code {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in metrics.ALL:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_wrong_answer()
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
