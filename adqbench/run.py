#!/usr/bin/env python3
"""Build and run the adq repository benchmark.

One run (the interface BENCHMARK.json names):
    python3 adqbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
builds the adq library and the adqbench program from this checkout into
.bench_build/ (incremental after the first time), then runs the program. The
last stdout line is the result JSON; build output goes to stderr.

Steadiness (median and quartiles of every end-to-end metric over seeds
1..10, checked against the bounds in BENCHMARK.json, plus one traced run
for the tracing overhead):
    python3 adqbench/run.py --steady [--workloads a,b] [--against DIR]
With --against, DIR is another checkout (for example the parent commit's):
its own benchmark is built too, and each seed runs both programs back to
back, in alternating order, so that a drift in the host's speed hits both
alike; the medians are then compared against the bounds.

The benchmark's own unit tests:
    python3 adqbench/run.py --selftest
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


SEEDS = range(1, 11)


def build(target, root=ROOT):
    """Configures (once) and builds `target` of the checkout at `root` into
    its .bench_build/; returns the program's path or None."""
    bench_dir = os.path.join(root, "adqbench")
    build_dir = os.path.join(root, ".bench_build")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log("adqbench: cannot run %s: %s" % (cmd[0], e))
            return None
        if rc != 0:
            log("adqbench: build step failed: " + " ".join(cmd))
            return None
    path = os.path.join(build_dir, target)
    return path if os.path.exists(path) else None


def run_once(binary, root, workload, seed, seconds, trace):
    """Runs the program in `root`; returns (result dict, traced e2e dict or
    None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stdout)
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, proc.returncode))
    traced = None
    for line in lines:
        if line.startswith("TRACED_E2E "):
            traced = json.loads(line[len("TRACED_E2E "):])
    return json.loads(lines[-1]), traced


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) as the acceptance check takes
    them: statistics.quantiles(values, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def print_spreads(title, values, bounds):
    """Prints each metric's quartiles against its bound; returns False if a
    spread exceeds its bound."""
    ok = True
    print("\n" + title)
    print("  %-20s %12s %12s %12s %8s %7s  %s" %
          ("metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    for name, vals in sorted(values.items()):
        q1, med, q3, sp = spread(vals)
        bound = bounds[name]["bound"]
        if sp <= bound / 3:
            verdict = "steady (< bound/3)"
        elif sp <= bound:
            verdict = "within bound, above bound/3"
        else:
            verdict = "UNSTEADY"
            ok = False
        print("  %-20s %12.6g %12.6g %12.6g %7.2f%% %6.0f%%  %s" %
              (name, q1, med, q3, 100 * sp, 100 * bound, verdict))
    return ok


def compare(base, change, bounds):
    """Prints each metric's median change from `base` to `change`; returns
    False if one is worse by more than its bound."""
    ok = True
    print("  %-20s %12s %12s %9s  %s" %
          ("metric", "base", "change", "worse by", "verdict"))
    for name, vals in sorted(change.items()):
        b = statistics.median(base[name])
        c = statistics.median(vals)
        lower = bounds[name]["better"] == "lower"
        worse = (c - b) / b if lower else (b - c) / b
        flag = "REGRESSION" if worse > bounds[name]["bound"] else "ok"
        ok = ok and flag == "ok"
        print("  %-20s %12.6g %12.6g %+8.2f%%  %s" %
              (name, b, c, 100 * worse, flag))
    return ok


def steady(args, builds, spec):
    """`builds` is [(label, binary, root)]: the change first, then the base
    when comparing."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    ok = True
    for w in workloads:
        values = {label: {} for label, _, _ in builds}
        for seed in SEEDS:
            order = builds if seed % 2 else builds[::-1]
            for label, binary, root in order:
                result, _ = run_once(binary, root, w, seed, seconds, 0)
                if not result["correct"]:
                    log("%s %s seed %d: correctness gate failed" %
                        (label, w, seed))
                    ok = False
                for name, m in result["metrics"].items():
                    values[label].setdefault(name, []).append(m["value"])
                log("%s %s seed %d done" % (label, w, seed))
        for label, _, _ in builds:
            ok &= print_spreads("%s %s: %d runs x %d s, seeds %d..%d" %
                                (label, w, len(SEEDS), seconds, SEEDS[0],
                                 SEEDS[-1]), values[label], bounds)
        change = values[builds[0][0]]
        if len(builds) > 1:
            print("  medians, %s against %s (interleaved runs):" %
                  (builds[0][0], builds[1][0]))
            ok &= compare(values[builds[1][0]], change, bounds)
        _, traced = run_once(builds[0][1], builds[0][2], w, SEEDS[0],
                             seconds, 1)
        print("  tracing overhead (traced run seed %d minus untraced "
              "median):" % SEEDS[0])
        for name, m in sorted(traced.items()):
            med = statistics.median(change[name])
            print("    %-20s %+12.6g %s (%+.1f%%)" %
                  (name, m["value"] - med, m["unit"],
                   100 * (m["value"] - med) / med if med else 0.0))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--workloads")
    p.add_argument("--against", metavar="DIR")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if args.selftest:
        tests = build("adqbench_tests")
        if tests is None:
            return 1
        return subprocess.call([tests])

    binary = build("adqbench")
    if binary is None:
        return 1
    if args.steady:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        builds = [("change", binary, ROOT)]
        if args.against:
            base_root = os.path.abspath(args.against)
            base = build("adqbench", base_root)
            if base is None:
                return 1
            builds.append(("base", base, base_root))
        return steady(args, builds, spec)
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required")
    sys.stdout.flush()
    # The program replaces this process: nothing is left running behind it.
    os.chdir(ROOT)
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds",
                      str(args.seconds), "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
