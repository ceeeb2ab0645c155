#!/usr/bin/env python3
"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its smallest size (one job) untraced and traced,
and checks that each result names every metric of BENCHMARK.json with its
unit, that no output check failed (error_rate 0), and that the benchmark
refuses to run in the two situations it must refuse: with an engine knob
set in the environment, and without the sources next to it.  Exits 0 when
all checks pass.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]


def run(args, env=None, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=600)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = run(["--workload", workload, "--seed", "1",
                        "--seconds", "1", "--trace", str(trace)])
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} checks failed")
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} missing or "
                                    f"without unit {m['unit']}")
            if trace and result["metrics"].get("error_rate", {}).get("value") != 0:
                problems.append(f"{where}: error_rate is not 0")
            print(f"ok   {where}", flush=True)

    env = dict(os.environ, HAYAT_WORKERS="2")
    done = run(["--workload", "paper_sweep", "--seed", "1", "--seconds", "1"],
               env=env)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("ran with HAYAT_WORKERS set")
    else:
        print("ok   refuses an engine knob in the environment")

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    done = run(["--workload", "paper_sweep", "--seed", "1", "--seconds", "1"],
               cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("ran without the sources")
    else:
        print("ok   refuses to run without the sources")

    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
