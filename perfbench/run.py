#!/usr/bin/env python3
"""Build and run the PTE verifier benchmark.

One workload:

    python3 perfbench/run.py --workload prove --seed 1 --seconds 20 --trace 0

builds the library, `pted` and `ptebench` from the sources in this checkout
into .bench_build/ (CMake, Release), runs the workload and prints the
result object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a detail object: host fingerprint, the workload's own
metric names with sample counts, gate failures, and for --trace 1 the
per-layer self-time rollup.  Span files land in .bench_build/trace/.

Every workload, untraced and traced, with a summary table:

    python3 perfbench/run.py --all [--seed 1] [--seconds 20]

--out FILE saves a run's detail and result; --compare OLD NEW prints the
ratio of every metric of two saved runs, and refuses when their host
fingerprints differ.  The exit status is non-zero when the build fails,
a run times out, or any correctness gate fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["prove", "sample", "fuzz", "serve"]
RUN_TIMEOUT_S = 170.0


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build the two binaries; False on failure."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "ptebench", "pted"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run_workload(workload, seed, seconds, trace, deadline):
    """Run ptebench once; returns (exit code, detail, result) or raises."""
    work = BUILD / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(BUILD / "ptebench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--pted", str(BUILD / "pted"), "--workdir", str(work)]
    # ptebench reads perfbench/expected.json from the checkout root.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        raise RuntimeError(f"{workload}: timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    trace_dir = work / "trace"
    if trace_dir.is_dir():
        (BUILD / "trace").mkdir(exist_ok=True)
        for f in trace_dir.iterdir():
            shutil.move(str(f), str(BUILD / "trace" / f.name))
    shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if len(lines) < 2:
        raise RuntimeError(f"{workload}: ptebench exited {proc.returncode} without a result")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return proc.returncode, detail, result


def run_all(args):
    failed = False
    rows = []
    for workload in WORKLOADS:
        for trace in (False, True):
            code, detail, result = run_workload(workload, args.seed, args.seconds, trace,
                                                time.monotonic() + 600)
            failed |= code != 0 or not result["correct"]
            for g in detail.get("gate_failures", []):
                log(f"GATE {workload}: {g}")
            named = detail.get("metrics", {}) if not trace else result["metrics"]
            for name, m in named.items():
                n = f" (n={m['samples']})" if "samples" in m else ""
                rows.append((workload, "trace" if trace else "e2e", name,
                             f"{m['value']:.6g} {m['unit']}{n}"))
            rows.append((workload, "trace" if trace else "e2e", "correct",
                         f"{result['correct']} ({result['failed']}/{result['attempted']} failed)"))
    print(json.dumps(detail["fingerprint"]))
    for r in rows:
        print(f"{r[0]:<7} {r[1]:<6} {r[2]:<26} {r[3]}")
    return 1 if failed else 0


def compare(old_path, new_path):
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    if old["detail"]["fingerprint"] != new["detail"]["fingerprint"]:
        print("fingerprints differ; not comparable:")
        print(" ", json.dumps(old["detail"]["fingerprint"]))
        print(" ", json.dumps(new["detail"]["fingerprint"]))
        return 3
    for name, m in new["result"]["metrics"].items():
        base = old["result"]["metrics"].get(name, {}).get("value")
        ratio = f"{m['value'] / base:.3f}x" if base else "n/a"
        print(f"{name:<26} {base} -> {m['value']} {m['unit']}  {ratio}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--out", help="also save the detail and result to this file")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not args.all and not args.workload:
        p.error("--workload or --all is required")
    if not build():
        return 1
    try:
        if args.all:
            return run_all(args)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        code, detail, result = run_workload(args.workload, args.seed, args.seconds,
                                            bool(args.trace), deadline)
    except (RuntimeError, ValueError, KeyError) as e:
        log(str(e))
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
