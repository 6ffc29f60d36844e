#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

    python3 simbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 simbench/run.py --selftest

Run from the repository root. The first call configures and builds the
simulator and the driver under .bench_build/simbench (a few minutes); later
calls rebuild incrementally. The driver's generated suite files and span
dumps go to .bench_build/simbench-out. The last line of stdout is the
driver's JSON result; build output and progress go to stderr.
"""
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "simbench"
OUT = ROOT / ".bench_build" / "simbench-out"


def build(targets):
    if not (ROOT / "src" / "cluster" / "cluster.hpp").is_file():
        sys.exit(f"simbench: simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("simbench: build failed: " + " ".join(cmd))


def last_json_line(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise AssertionError("driver printed no result line")
    return json.loads(lines[-1])


def selftest():
    """Driver self-test plus a short real run per mode, whose emitted metric
    names must equal BENCHMARK.json's end_to_end / per_layer lists."""
    build(["simbench", "simbench_selftest"])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if subprocess.run([str(BUILD / "simbench_selftest"), str(ROOT / "BENCHMARK.json"),
                       str(OUT)]).returncode != 0:
        sys.exit("simbench selftest: FAILED (driver self-test)")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        run = subprocess.run(
            [str(BUILD / "simbench"), "--workload", "sweep-small", "--seed", "1",
             "--seconds", "1", "--trace", str(trace), "--out-dir", str(OUT)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if run.returncode != 0:
            sys.exit(f"simbench selftest: FAILED (--trace {trace} exited {run.returncode})\n"
                     + run.stderr)
        result = last_json_line(run.stdout)
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            sys.exit(f"simbench selftest: FAILED (result keys {sorted(result)})")
        emitted = set(result["metrics"])
        wanted = {m["name"] for m in declared[key]}
        if emitted != wanted:
            sys.exit(f"simbench selftest: FAILED (--trace {trace} emits "
                     f"{sorted(emitted ^ wanted)} unlike BENCHMARK.json {key})")
        units = {m["name"]: m["unit"] for m in declared[key]}
        for name, m in result["metrics"].items():
            if m["unit"] != units[name]:
                sys.exit(f"simbench selftest: FAILED ({name} unit {m['unit']} != {units[name]})")
        if not result["correct"] or result["failed"] != 0:
            sys.exit(f"simbench selftest: FAILED (--trace {trace} run reported failures)")
    print("simbench selftest: OK")


def main():
    if sys.argv[1:] == ["--selftest"]:
        selftest()
        return
    build(["simbench"])
    OUT.mkdir(parents=True, exist_ok=True)
    driver = str(BUILD / "simbench")
    os.chdir(ROOT)
    os.execv(driver, [driver, *sys.argv[1:], "--out-dir", str(OUT)])


if __name__ == "__main__":
    main()
