#!/usr/bin/env python3
"""Builds and runs the fbench benchmark from a checkout of the repository.

Benchmark run (what BENCHMARK.json's command does):

    python3 fbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

builds `fbench` in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`) and runs it with the same arguments; the last line of
standard output is the JSON result. Seeded inputs are kept in
`.fbench_work` and reused by later runs with the same seed.

Steadiness self-check:

    python3 fbench/run.py steadiness --seeds 11,12,13,14,15 [--repeat 1]
        [--workloads campaign,serve_read,serve_ingest] [--seconds N]

runs every workload once per seed (times --repeat) and prints, for every
end-to-end metric, the median, the first and third quartiles
(`statistics.quantiles(n=4)`), the spread (Q3 - Q1) / median, and the
metric's bound from BENCHMARK.json. It exits 1 if any run fails its
output checks or any spread other than `setup_s`'s exceeds its bound
(`setup_s` is gated on its median, not its spread).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".fbench_work")


def build():
    """Builds the benchmark; returns the binary's path or exits 2."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        built = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=900,
        )
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"fbench: build failed: {error}", file=sys.stderr)
        sys.exit(2)
    if built.returncode != 0:
        print("fbench: build failed", file=sys.stderr)
        sys.exit(2)
    return os.path.join(target, "release", "fbench")


def pin(workload):
    """Pins serve_ingest's whole process (daemon and load generator) to one
    CPU. Its long ingests let the scheduler regroup the client and daemon
    threads, so left alone its reads run sometimes on one CPU and sometimes
    across two, about twofold apart, from one run to the next. serve_read's
    unbroken request stream keeps them on two CPUs every time, and campaign
    needs both CPUs, so neither is pinned."""
    if workload == "serve_ingest":
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_once(binary, workload, seed, seconds):
    """One untraced run; returns (result dict or None, exit code)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0", "--work", WORK],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=180,
        preexec_fn=lambda: pin(workload),
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, proc.returncode
    return json.loads(lines[-1]), proc.returncode


def steadiness(args):
    options = {"--seeds": "11,12,13,14,15", "--repeat": "1", "--workloads": None,
               "--seconds": None}
    it = iter(args)
    for flag in it:
        if flag not in options:
            sys.exit(f"unknown steadiness option {flag}")
        options[flag] = next(it, None)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (options["--workloads"].split(",") if options["--workloads"]
                 else [w["name"] for w in spec["workloads"]])
    seconds = int(options["--seconds"] or spec["run_seconds"])
    seeds = [int(s) for s in options["--seeds"].split(",")]
    repeat = int(options["--repeat"])
    binary = build()
    ok = True
    for workload in workloads:
        values = {}
        for seed in seeds:
            for _ in range(repeat):
                result, code = run_once(binary, workload, seed, seconds)
                if result is None or code != 0 or not result["correct"]:
                    print(f"{workload} seed {seed}: run failed (exit {code})")
                    ok = False
                    continue
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {len(seeds) * repeat} runs, seeds {options['--seeds']}")
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name, 0.0)
            gated = name != "setup_s"
            verdict = "FAIL" if gated and spread > bound else ""
            ok = ok and not verdict
            print(f"  {name:<14}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>8.1%}{bound:>8.0%} {verdict}")
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    if args[:1] == ["steadiness"]:
        sys.exit(steadiness(args[1:]))
    binary = build()
    os.makedirs(WORK, exist_ok=True)
    if "--workload" in args[:-1]:
        pin(args[args.index("--workload") + 1])
    os.execv(binary, [binary, *args, "--work", WORK])


if __name__ == "__main__":
    main()
