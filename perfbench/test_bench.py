#!/usr/bin/env python3
"""The benchmark's own test: a short profile of every workload.

    python3 perfbench/test_bench.py

For every workload, untraced and traced, it checks that the run is correct
and that the last line carries exactly the metrics BENCHMARK.json names,
each with its unit.  It then plants a wrong expectation (a prove document
asserting "violation") and checks that the gate fails the run, and runs
the benchmark in a directory holding only BENCHMARK.json and the
benchmark's files, where it must fail without printing a result.  Exit
status 0 iff every check held.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "selftest"
RUN = [sys.executable, str(HERE / "run.py")]

failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    done = subprocess.run(RUN + args, cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done.stderr


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(parents=True, exist_ok=True)
    for w in bench["workloads"]:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            name = f"{w['name']} --trace {trace}"
            code, result, err = run(["--workload", w["name"], "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace)])
            check(code == 0 and result is not None and result.get("correct") is True,
                  f"{name}: exits 0 with correct=true")
            if result is None:
                sys.stderr.write(err[-2000:])
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{name}: result keys")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                  f"{name}: attempted >= 1")
            metrics = result["metrics"]
            check(sorted(metrics) == sorted(m["name"] for m in listed),
                  f"{name}: emits exactly the {len(listed)} listed metrics")
            for m in listed:
                got = metrics.get(m["name"], {})
                check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
                      f"{name}: {m['name']} in {m['unit']}")
            if trace == 0:
                for m in listed:
                    check(metrics.get(m["name"], {}).get("value", 0) > 0,
                          f"{name}: {m['name']} is not 0")

    # A planted wrong expectation must fail the prove gate.  ptebench reads
    # perfbench/expected.json from the directory it runs in, so the planted
    # copy gets a root of its own and the binary the runs above built.
    planted_root = SCRATCH / "planted"
    shutil.rmtree(planted_root, ignore_errors=True)
    (planted_root / "perfbench").mkdir(parents=True)
    planted = json.loads((HERE / "expected.json").read_text())
    planted["prove"][0]["verdict"] = "violation"
    (planted_root / "perfbench" / "expected.json").write_text(json.dumps(planted))
    build = ROOT / ".bench_build"
    done = subprocess.run([str(build / "ptebench"), "--workload", "prove", "--seed", "3",
                           "--seconds", "1", "--trace", "0", "--pted", str(build / "pted"),
                           "--workdir", str(planted_root / "work")],
                          cwd=planted_root, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=180)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    check(done.returncode != 0, "planted violation expectation: non-zero exit")
    check(result is not None and result.get("correct") is False,
          "planted violation expectation: correct=false")
    shutil.rmtree(planted_root, ignore_errors=True)

    # Without the program's sources the benchmark fails and prints no result.
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(bench["command"] + ["--workload", "prove", "--seed", "1", "--seconds",
                                              "1", "--trace", "0"],
                          cwd=bare, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=180)
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          "bare directory: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
