#!/usr/bin/env python3
"""One-command debugging-episode benchmark for PPD.

Builds the PPD libraries, the `ppd` tool and the benchmark binary from
source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build
at the repository root, then runs one workload:

    python3 perfbench/run.py --workload replay_walk --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones (and writes the
spans as Chrome trace-event JSON under <build dir>/traces/). The exit code
is non-zero when the build fails or any output check fails.

    python3 perfbench/run.py --smoke

runs every workload at its minimum size in both modes and checks that the
emitted metric names match BENCHMARK.json.

Every artifact of a run (logs, .ppdb sidecars, the server socket, spill
files) lives in a private directory under the build directory that is
removed when the run ends.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures (once) and builds; returns the binary's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the PPD sources (src/) are missing; nothing to build")
        return None
    os.makedirs(bdir, exist_ok=True)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            log("configure failed")
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.call(["cmake", "--build", bdir, "-j", jobs], stdout=sys.stderr) != 0:
        log("build failed")
        return None
    return os.path.join(bdir, "perfbench")


def run_binary(binary, bdir, args, capture):
    """Runs the binary in a private directory; returns (code, stdout)."""
    workdir = tempfile.mkdtemp(prefix="run-", dir=bdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace == 1:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, out or ""
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1, ""
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


def smoke(binary, bdir):
    """Every workload at minimum size, both modes; metric names must match."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w["name"], seed=1, seconds=1,
                                      trace=trace, smoke=True)
            code, out = run_binary(binary, bdir, args, capture=True)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            names = set(result.get("metrics", {}))
            good = code == 0 and result.get("correct") is True and names == expected[trace]
            if not good:
                ok = False
                missing = sorted(expected[trace] - names)
                extra = sorted(names - expected[trace])
                log(f"smoke {w['name']} trace {trace}: exit {code}, "
                    f"missing {missing}, unexpected {extra}")
            print(f"smoke {w['name']:14} trace {trace}: {'ok' if good else 'FAILED'}")
    return 0 if ok else 1


def main():
    # A terminated run still removes its private directory and its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at minimum size and validate metric names")
    args = p.parse_args()
    if not args.smoke and not args.workload:
        p.error("--workload is required")

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary, bdir)
    code, _ = run_binary(binary, bdir, args, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
