#!/usr/bin/env python3
"""Self-test of the benchmark: quick runs on tiny grids.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload declared in BENCHMARK.json it runs perfbench/run.py with
--quick, once untraced and once traced, and checks that

* the last stdout line is one JSON object with exactly the keys correct,
  attempted, failed and metrics, with correct true and failed 0;
* the metrics are exactly the declared end_to_end (untraced) or per_layer
  (traced) metrics, each a finite number with its declared unit;
* the human-readable summary reports error_rate 0.

It also checks the shape of BENCHMARK.json and that an unknown workload
is refused with a non-zero exit. Exits 0 when everything holds.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

problems = []


def check(ok, message):
    if not ok:
        problems.append(message)
    return ok


def check_declaration(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"},
          "BENCHMARK.json has unexpected keys")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(len(names) == len(set(names)), "a name is declared twice")
    for name in names:
        check(NAME.match(name), f"bad name {name!r}")
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200,
              f"bad workload entry {w}")
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"},
              f"bad end_to_end entry {m}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']} out of range")
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"},
              f"bad per_layer entry {m}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.match(m["unit"]), f"bad unit {m['unit']!r}")
        check(m["better"] in ("higher", "lower"), f"bad better in {m}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s must be declared in s, lower is better")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", trace,
           "--quick"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def check_run(workload, trace, declared):
    where = f"{workload} --trace {trace}"
    proc = run(workload, trace)
    if not check(proc.returncode == 0,
                 f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"):
        return
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        check(False, f"{where}: last line is not JSON")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{where}: result keys {sorted(result)}")
    check(result.get("correct") is True, f"{where}: correct is not true")
    check(result.get("failed") == 0, f"{where}: failed runs")
    check(isinstance(result.get("attempted"), int)
          and result["attempted"] >= 1, f"{where}: attempted < 1")
    check(any(re.search(r"\berror_rate 0\b", line) for line in lines),
          f"{where}: error_rate is not 0")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    check(set(metrics) == set(want),
          f"{where}: missing {sorted(set(want) - set(metrics))}, "
          f"undeclared {sorted(set(metrics) - set(want))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{where}: {name} is not a finite number")
        check(entry.get("unit") == want.get(name),
              f"{where}: {name} unit {entry.get('unit')!r}, "
              f"declared {want.get(name)!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    check_declaration(bench)
    for w in bench["workloads"]:
        check_run(w["name"], "0", bench["end_to_end"])
        check_run(w["name"], "1", bench["per_layer"])
        print(f"selftest: {w['name']} done", flush=True)
    check(run("no-such-workload", "0").returncode != 0,
          "an unknown workload was not refused")
    for p in problems:
        print(f"FAIL: {p}")
    print(f"selftest: {'FAILED' if problems else 'ok'} "
          f"({len(bench['workloads'])} workloads)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
