#!/usr/bin/env python3
"""Build and run one workload of the hssta benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the hssta library, hssta_cli and
the perfbench program from source (CMake, Release) under $CARGO_TARGET_DIR
(default .bench_build), runs the workload, checks that the result carries
exactly the metrics BENCHMARK.json declares for the mode, and prints the
program's output; the last line is the result object. The full report (host
fingerprint, calibration, every op time, per-layer self times) and, for
traced runs, a Chrome Trace Event file land in <build dir>/perfbench-results/.
"""

import argparse
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170
# Address-space cap for the program and its campaign workers: a regression
# that blows up memory fails its run instead of exhausting a shared host.
ADDRESS_SPACE_BYTES = 6 << 30


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_manifest():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}", 2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build(bdir):
    """Configure once, then build incrementally; the log stays on disk."""
    out = os.path.join(bdir, "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j4",
                      "--target", "perfbench", "hssta_cli"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail(f"build failed ({' '.join(cmd)}):\n{tail}")
    return (os.path.join(out, "perfbench"),
            os.path.join(out, "hssta", "hssta_cli"))


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def check_result(line, manifest, traced):
    """The result must be exactly the declared metrics, with their units."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    declared = manifest["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(units):
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(units) - set(got))}, undeclared "
             f"{sorted(set(got) - set(units))}")
    for name, m in got.items():
        v = m.get("value")
        if m.get("unit") != units[name] or not isinstance(v, (int, float)) \
                or isinstance(v, bool) or not math.isfinite(v):
            fail(f"metric {name} is malformed: {m}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no op was attempted")


def main():
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "hssta"))):
        fail(f"no hssta source tree at {ROOT}; run from a checkout root", 2)

    bdir = build_dir()
    program, worker = build(bdir)

    results = os.path.join(bdir, "perfbench-results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(bdir, "perfbench-work", f"{stem}-{os.getpid()}")
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--worker-cmd", worker,
           "--report", os.path.join(results, stem + ".json")]
    if args.trace:
        cmd += ["--chrome-trace", os.path.join(results, stem + ".trace.json")]
    # A persistent model cache would turn set-up into cache hits, and
    # HSSTA_THREADS would unpin the campaign workers' thread count. glibc's
    # per-thread malloc arenas made eco_serve's peak resident set swing
    # 55-69 MB between identical runs; one arena holds it within 1%.
    env = {k: v for k, v in os.environ.items()
           if k not in ("HSSTA_CACHE_DIR", "HSSTA_THREADS")}
    env["MALLOC_ARENA_MAX"] = "1"
    started = time.monotonic()
    # Own process group, so a timeout also stops campaign workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            preexec_fn=limit_memory, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode} after "
             f"{time.monotonic() - started:.1f} s")
    lines = stdout.rstrip("\n").splitlines()
    if not lines:
        fail("no output")
    check_result(lines[-1], manifest, args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
