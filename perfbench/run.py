#!/usr/bin/env python3
"""End-to-end RIR benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload ref_rir --seed 1 --seconds 10 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt) into the directory
named by CARGO_TARGET_DIR (default .bench_build), runs one measurement with
the rirbench program, and relays its output. The last line of standard
output is its JSON result. Scratch files (JIT objects, compiler
temporaries, WAVs, shards) live under .bench_out/ and are removed after the
run; a traced run keeps its spans.json there.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ref_rir", "device_tiered", "dataset_hybrid")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds rirbench; returns its path or None."""
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j4", "--target", "rirbench"]]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return None
    exe = os.path.join(build_dir, "rirbench")
    return exe if os.path.exists(exe) else None


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("GIT_COMMIT", "unknown")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", type=int, choices=(0, 1), default=0,
                    help="shrink rooms and steps (smoke test)")
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    exe = build(build_dir)
    if exe is None:
        return 1

    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    bench_out = os.path.join(ROOT, ".bench_out")
    run_dir = os.path.join(bench_out, tag)
    scratch = os.path.join(bench_out, "scratch-" + str(os.getpid()))
    os.makedirs(os.path.join(scratch, "jit"), exist_ok=True)
    os.makedirs(os.path.join(scratch, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.pop("LIFTA_JIT_CACHE_DIR", None)  # compiles stay cold
    env["RIRBENCH_SCRATCH"] = os.path.join(scratch, "jit")
    env["TMPDIR"] = os.path.join(scratch, "tmp")

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tiny", str(args.tiny), "--out", run_dir, "--git-sha", git_sha()]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        out, proc.returncode = "", 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if os.path.isdir(run_dir):
            for name in os.listdir(run_dir):
                if name != "spans.json":
                    path = os.path.join(run_dir, name)
                    if os.path.isdir(path):
                        shutil.rmtree(path, ignore_errors=True)
                    else:
                        os.remove(path)
            if not os.listdir(run_dir):
                os.rmdir(run_dir)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
