#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --collect OUT.jsonl [--seeds 1-10] [--trace 0|1]
    python3 perfbench/run.py --establish

A run builds the perfbench binary from source on first use (into
.bench_build/ at the checkout root), runs one workload and passes its output
through: a human-readable table, then one JSON object as the last line. The
exit code is 0 only when every output matched its expected answer.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# timebound is runnable but not in BENCHMARK.json (see README, Workloads).
WORKLOADS = ["derived", "timebound", "microprocessor", "service"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench binary; the build output
    goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no esv sources beside perfbench/ (src/ missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], env=env,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], env=env,
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def runner_args(workload, seed, seconds, trace, corrupt=False):
    work = os.path.join(".bench_build", "run-" + workload)
    os.makedirs(work, exist_ok=True)
    args = [BINARY, "run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--data", os.path.join("examples", "data"),
            "--expected", os.path.join("perfbench", "expected.tsv"),
            "--bin-dir", BUILD, "--work-dir", work]
    if corrupt:
        args.append("--corrupt-expected")
    return args


def run_binary(args):
    """Runs the perfbench binary; returns (exit code, stdout text)."""
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout if isinstance(e.stdout, str) else ""
        return 124, out + "perfbench: run timed out\n"
    return proc.returncode, proc.stdout


def last_json(text):
    lines = [line for line in text.strip().splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def selftest():
    """Smoke-size run of every workload, traced and untraced: every metric
    of BENCHMARK.json appears with its unit, and a deliberately wrong
    expected verdict makes the command fail."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, out = run_binary(runner_args(workload, 1, 1, trace))
            result = last_json(out)
            tag = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None or not result.get("correct"):
                failures.append(tag + ": run failed (exit %d)" % code)
                sys.stdout.write(out)
                continue
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                failures.append(tag + ": metrics/units differ from "
                                "BENCHMARK.json: %s" % sorted(
                                    set(got.items()) ^
                                    set(wanted[trace].items())))
            log("selftest: %s ok" % tag)
    for workload in ("derived", "service"):
        code, out = run_binary(runner_args(workload, 1, 1, 0, corrupt=True))
        result = last_json(out)
        if code == 0 or (result is not None and result.get("correct")):
            failures.append(workload + ": a wrong expected verdict passed")
        else:
            log("selftest: %s with a wrong expected verdict fails, as it "
                "should" % workload)
    for failure in failures:
        print("SELFTEST FAIL " + failure)
    print("selftest: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


def collect(path, workloads, seeds, trace, seconds):
    """Runs each workload once per seed, printing each run's output, and
    appends one JSON record per run to `path` (the input of
    perfbench/compare.py)."""
    with open(path, "a") as out:
        for workload in workloads:
            for seed in seeds:
                code, text = run_binary(
                    runner_args(workload, seed, seconds, trace))
                sys.stdout.write(text)
                sys.stdout.flush()
                result = last_json(text)
                record = {"workload": workload, "seed": seed, "trace": trace,
                          "exit": code, "result": result}
                out.write(json.dumps(record, sort_keys=True) + "\n")
                out.flush()
                log("collect: %s seed %d exit %d" % (workload, seed, code))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--establish", action="store_true")
    parser.add_argument("--collect", metavar="OUT.jsonl")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    os.chdir(ROOT)
    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2

    if args.selftest:
        return selftest()
    if args.establish:
        return subprocess.run([BINARY, "establish", "--data",
                               os.path.join("examples", "data"), "--expected",
                               os.path.join("perfbench", "expected.tsv")]
                              ).returncode
    if args.collect:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        collect(args.collect, [w["name"] for w in spec["workloads"]],
                parse_seeds(args.seeds), args.trace, spec["run_seconds"])
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    code, out = run_binary(runner_args(args.workload, args.seed,
                                       args.seconds, args.trace))
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
