"""Fast self-test of the benchmark itself (not of deblur1d).

    python3 perfbench/selftest.py

1. BENCHMARK.json has the required shape.
2. Each workload runs for one second through run.py, untraced and traced,
   and its last stdout line matches BENCHMARK.json's metrics and units.
3. One deliberately wrong output per workload goes through that workload's
   checker and is counted as a failed request.
4. In a directory that holds only BENCHMARK.json and perfbench/, run.py
   exits non-zero without printing a result.

Prints one line per check and exits non-zero if any check fails.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PROBLEMS = []


def expect(ok, what):
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        PROBLEMS.append(what)


def check_benchmark_json(bench):
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}, "BENCHMARK.json has exactly the required keys")
    expect(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
           "run_seconds is a whole number from 1 to 60")
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json names the workloads run.py knows")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in bench[group]]
    expect(all(NAME.match(n) for n in names) and len(set(names)) == len(names),
           "names are well formed and used once")
    metrics = bench["end_to_end"] + bench["per_layer"]
    expect(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics),
           "units and directions are well formed")
    expect(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in bench["end_to_end"]), "every end-to-end bound is in (0, 0.25]")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
           "setup_s is declared in seconds, lower is better, with the largest bound")


def result_line(stdout):
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def check_schema(bench, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    out = result_line(proc.stdout)
    declared = bench["per_layer" if trace else "end_to_end"]
    ok = (
        proc.returncode == 0
        and isinstance(out, dict)
        and set(out) == {"correct", "attempted", "failed", "metrics"}
        and out["correct"] is True
        and isinstance(out["attempted"], int) and out["attempted"] >= 1
        and out["failed"] == 0
        and list(out["metrics"]) == [m["name"] for m in declared]
        and all(set(v) == {"value", "unit"} and v["unit"] == m["unit"]
                and isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                for m, v in zip(declared, out["metrics"].values()))
    )
    if ok and not trace:
        ok = all(v["value"] > 0 for v in out["metrics"].values())
    expect(ok, f"{workload} --trace {trace}: result line matches BENCHMARK.json"
           + ("" if ok else f"\n{proc.stderr[-2000:]}"))


def _output(req):
    return Path(req["argv"][req["argv"].index("--output") + 1])


def corrupt_barcode(req, rec):
    rec["stdout"] = rec["stdout"].replace("decoded digits : 049000027679",
                                          "decoded digits : 049000027670")


def corrupt_lcurve(req, rec):
    lines = _output(req).read_text().splitlines()
    lam, res, sol = lines[50].split(",")
    lines[50] = f"{lam},{res},{float(sol) * (1 + 1e-6):.17g}"
    _output(req).write_text("\n".join(lines) + "\n")


def corrupt_forward(req, rec):
    values = _output(req).read_text().split()
    values[1000] = format(float(values[1000]) + 1e-8, ".17g")
    _output(req).write_text("\n".join(values) + "\n")


CORRUPT = {"barcode": corrupt_barcode, "lcurve": corrupt_lcurve, "forward": corrupt_forward}


def check_wrong_output_counts(workload, work):
    requests, result = run.run_worker(workload, 7, 1, False, work)
    records = result["records"]
    clean = run.failures(workload, requests, records)
    CORRUPT[workload](requests[0], records[0])
    reasons = run.failures(workload, requests, records)
    metrics, _ = run.end_to_end(result, len(reasons), 1.0)
    n = len(records)
    expect(not clean and len(reasons) == 1 and reasons[0].startswith("request 0 ")
           and metrics["ok_frac"] == (n - 1) / n,
           f"{workload}: a wrong output is counted as one failure ({reasons[:1]})")


def check_fails_without_program():
    bare = run.ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "barcode", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and result_line(proc.stdout) is None,
           "without the program's sources run.py exits non-zero and prints no result")


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_benchmark_json(bench)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_schema(bench, workload, trace)
    scratch = run.ROOT / ".perfbench_work"
    for workload in WORKLOADS:
        work = scratch / f"selftest-{workload}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            check_wrong_output_counts(workload, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    check_fails_without_program()
    if scratch.is_dir() and not any(scratch.iterdir()):
        scratch.rmdir()
    print(f"{len(PROBLEMS)} check(s) failed" if PROBLEMS else "all checks passed")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
