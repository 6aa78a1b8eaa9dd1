#!/usr/bin/env python3
"""Build the host-cost benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
perfbench binary twice (later calls rebuild incrementally): under
.bench_build/perfbench from the repository's src/, and under
.bench_build/perfbench_base from the frozen copy in perfbench/baseline/src.
Build output goes to stderr so that the last line of stdout is the
benchmark's JSON result.

--trace 0 starts both binaries as round servers and alternates their rounds
(baseline, current, baseline, ..., current, baseline) for about --seconds.
The time metrics are medians over the current rounds of each one's host time
divided by the geometric mean of the two baseline rounds around it: the
shared host's speed drifts by up to 2x over minutes, and rounds a second
apart see the same host. --trace 1 makes the
current binary's traced run, which writes its spans to
.bench_build/spans/<workload>.spans.json.

To regenerate the reference digests of the default seed after a deliberate
change to the simulated model:

    python3 perfbench/run.py --workload all --seed 1 --write-reference
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BASE_BUILD = os.path.join(OUT, "perfbench_base")
BASE_BINARY = os.path.join(BASE_BUILD, "perfbench")
BASE_SRC = os.path.join(HERE, "baseline", "src")
WORKLOADS = ["barneshut_p32", "ocean_p32", "txn_skew_adapt", "forkjoin_steal"]
MIN_ROUNDS = 3


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for build_dir, sim_src in ((BUILD, os.path.join(ROOT, "src")),
                               (BASE_BUILD, BASE_SRC)):
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                            "-DPERFBENCH_SIM_SRC=" + sim_src, *gen],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", jobs], check=True, stdout=sys.stderr)


class Server:
    """One `perfbench --serve` process: an untraced round per request."""

    def __init__(self, name, binary, args, reference):
        self.name = name
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--serve"]
        if reference:
            cmd += ["--reference-dir", reference]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def ask(self, request):
        """Send one request line; return the JSON of the matching answer.
        Other lines (the digest of the first round) are passed on."""
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        for line in self.proc.stdout:
            if line.startswith(request + " "):
                return json.loads(line[len(request) + 1:])
            if self.name == "current":
                sys.stdout.write(line)
            else:
                sys.stderr.write(f"{self.name}: {line}")
        raise RuntimeError(f"{self.name} server ended without answering "
                           f"'{request}' (exit code {self.proc.wait()})")

    def stop(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def median_ratio(cur, base, cost):
    """Median of cost(cur[k]) over the geometric mean of the baseline rounds
    before and after it, base[k] and base[k + 1]."""
    return statistics.median(
        cost(c) / math.sqrt(cost(b0) * cost(b1))
        for c, b0, b1 in zip(cur, base, base[1:]))


def run_paired(args, reference):
    """Alternate current and baseline rounds; return the JSON result."""
    cur = Server("current", BINARY, args, reference)
    base = None
    try:
        # The baseline never checks the reference digest: a deliberate model
        # change regenerates the reference files, not the frozen copy.
        base = Server("baseline", BASE_BINARY, args, None)
        # One untimed round each first: a fresh process's first round pays
        # page faults and cold caches (its set-ups take 30-70 ms, not 1-2).
        start = time.monotonic()
        warm_up = cur.ask("round")
        warm_up_base = base.ask("round")
        base_rounds = [base.ask("round")]
        rounds = []
        timed = time.monotonic()
        while True:
            now = time.monotonic()
            if (len(rounds) >= MIN_ROUNDS and now - start +
                    (now - timed) / len(rounds) > args.seconds):
                break
            rounds.append(cur.ask("round"))
            base_rounds.append(base.ask("round"))
        if warm_up_base["failed"] != 0 or any(b["failed"] != 0
                                              for b in base_rounds):
            raise RuntimeError("the baseline failed its own output checks")
        cur.ask("end")
        base.ask("end")
    finally:
        for s in (cur, base):
            if s is not None:
                s.stop()
    print(f"perfbench: {len(rounds)} current rounds; median round wall_s "
          f"current {statistics.median(r['wall_s'] for r in rounds):.6f}, "
          f"baseline {statistics.median(b['wall_s'] for b in base_rounds):.6f}",
          file=sys.stderr)
    metrics = {
        "wall_ratio": median_ratio(rounds, base_rounds, lambda r: r["wall_s"]),
        "ref_cost_ratio": median_ratio(
            rounds, base_rounds, lambda r: r["wall_s"] / max(1, r["refs"])),
        "task_cost_ratio": median_ratio(
            rounds, base_rounds, lambda r: r["wall_s"] / max(1, r["tasks"])),
        "setup_s": statistics.median(t for r in rounds for t in r["setup_s"]),
        # Peak memory of one set-up and run, as a user's process makes it:
        # later rounds only add heap fragmentation (txn: 24.4 MB after the
        # first round, 25.5-30 MB after ten).
        "peak_rss_mb": warm_up["peak_rss_mb"],
    }
    units = {"setup_s": "s", "peak_rss_mb": "MB"}
    checked = [warm_up] + rounds
    failed = sum(r["failed"] for r in checked)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "ratio")}
                    for k, v in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help=" | ".join(WORKLOADS) + " (or 'all' with --write-reference)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite perfbench/reference/<workload>.digest")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    reference = os.path.join(HERE, "reference")
    if args.write_reference:
        names = WORKLOADS if args.workload == "all" else [args.workload]
        for name in names:
            rc = subprocess.run([BINARY, "--workload", name, "--seed",
                                 str(args.seed), "--reference-dir", reference,
                                 "--write-reference"]).returncode
            if rc != 0:
                return rc
        return 0

    if args.trace == 0:
        try:
            result = run_paired(args, reference)
        except (OSError, RuntimeError, ValueError) as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 1
        print(json.dumps(result))
        return 0

    spans = os.path.join(OUT, "spans")
    os.makedirs(spans, exist_ok=True)
    return subprocess.run([BINARY, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--reference-dir", reference,
                           "--spans-dir", spans]).returncode


if __name__ == "__main__":
    sys.exit(main())
