#!/usr/bin/env python3
"""Builds the adpad benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
program's libraries and the harness under .bench_build/ (a few minutes); later
runs only check that the build is current. Host and run metadata go to
standard output as lines starting with '#'; the last line is the harness's JSON
result. The exit code is 0 only when the run completed and every correctness
check passed. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("sim_bigmarket", "sim_stream", "serve_open", "serve_churn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the harness; build output goes to stderr."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        try:
            subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as error:
            fail("build failed: %s" % error, 2)


def compiler():
    """Compiler id and version as CMake detected them."""
    for name in sorted(os.listdir(os.path.join(BUILD_DIR, "CMakeFiles"))):
        path = os.path.join(BUILD_DIR, "CMakeFiles", name, "CMakeCXXCompiler.cmake")
        if os.path.isfile(path):
            with open(path) as f:
                text = f.read()
            found = dict(re.findall(r'set\(CMAKE_CXX_COMPILER_(ID|VERSION) "([^"]*)"\)', text))
            return "%s %s" % (found.get("ID", "?"), found.get("VERSION", "?"))
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def loadavg():
    return " ".join("%.2f" % x for x in os.getloadavg())


def steal_seconds():
    """CPU time the hypervisor took from this machine's vCPUs, summed over vCPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def expected_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds positive", 2)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to perfbench/ (expected src/CMakeLists.txt)", 2)

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    print("# host nproc=%d cpu=%r compiler=%r build_type=%s loadavg_start=%s" %
          (os.cpu_count() or 0, cpu_model(), compiler(), BUILD_TYPE, loadavg()))
    print("# run workload=%s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    sys.stdout.flush()
    steal_start = steal_seconds()

    command = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--pins", os.path.join(HERE, "pins.txt"),
               "--work_dir", WORK_DIR]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("harness exited %d without a result" % run.returncode, 4)

    expected = expected_metrics(args.trace == 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if expected is not None and got != expected:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(expected.items())), 5)

    for line in lines[:-1]:
        print(line)
    print("# host loadavg_end=%s steal_s=%.2f" % (loadavg(), steal_seconds() - steal_start))
    print(json.dumps(result))
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
