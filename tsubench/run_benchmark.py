#!/usr/bin/env python3
"""End-to-end benchmark runner for the tsu update engine (stdlib only).

Run one workload (builds tsu_bench from source first, then runs it in its
own process):

    python3 tsubench/run_benchmark.py --workload closed_pool --seed 1 \\
        --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 the per_layer ones
(and a Chrome trace is written). The exit code is non-zero when a check
failed, the build failed, or the build or environment is unfit to measure.

Other forms:

    --workload all            every workload, each in its own process
    --runs N                  seeds S .. S+N-1, each in its own process
    --out FILE                write every run's results as one set file
    --quick                   smoke test: every workload runs about 1 s
    compare PARENT.json CHANGE.json [--claim METRIC@WORKLOAD]
    compare --pairs N PARENT_DIR CHANGE_DIR [--claim METRIC@WORKLOAD]

compare prints one row per (metric, workload) with each side's median and
quartiles and a verdict against BENCHMARK.json's bounds. With --pairs it
first runs N pairs of the two checkouts, alternating which side runs first.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
BINARY_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Metrics that are a pure function of the seed: compared exactly, per seed.
EXACT_METRICS = {
    "rounds_per_update", "sim_makespan_ms", "sim_update_p99_ms",
    "sim_wait_p99_ms", "sim_capacity_per_s", "frames_per_update",
    "update.wayup.no_schedule", "update.peacock.no_schedule",
    "update.secure.no_schedule",
}
# Provenance fields two sets must share to be compared.
SAME_SETUP = ("quick", "seconds", "ndebug", "sanitizer", "flags", "compiler")
# Environment that changes what the library or the gate does.
FORBIDDEN_ENV = re.compile(r"^(TSU_PLAN_CACHE|TSU_.*_SLIM|TSU_BENCH_.*)$")


class Refused(Exception):
    """The benchmark cannot produce a trustworthy result here."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]]


# ----------------------------------------------------------------- build

def build_dir():
    """This checkout's own directory for the build, results and traces.

    CARGO_TARGET_DIR (default .bench_build) may be shared by several
    checkouts, so each gets a subdirectory named after its path; a binary
    is never built from one checkout and timed as another's.
    """
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    key = hashlib.sha1(str(ROOT).encode()).hexdigest()[:12]
    return base / f"tsubench-{key}"


def check_environment():
    bad = sorted(k for k in os.environ if FORBIDDEN_ENV.match(k))
    if bad:
        raise Refused("refusing to run with " + ", ".join(bad) + " set")
    if not (ROOT / "src" / "tsu").is_dir():
        raise Refused(f"library sources not found under {ROOT / 'src'}")


def build():
    # Configuring on every call also makes CMake stop if the cache in `out`
    # was made from other sources.
    out = build_dir() / "build"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release", "-DTSU_SANITIZE=OFF",
              "-DTSU_TSAN=OFF"],
             ["cmake", "--build", str(out), "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise Refused("build failed: " + " ".join(cmd))
    return out / "tsu_bench"


# ------------------------------------------------------------ provenance

def git_commit():
    """HEAD's commit read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ------------------------------------------------------------------- run

def run_one(binary, workload, seed, seconds, trace, quick):
    out_dir = build_dir() / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = (f"{workload}-seed{seed}" + ("-trace" if trace else "")
           + ("-quick" if quick else ""))
    results_path = out_dir / f"{tag}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(results_path)]
    if trace:
        trace_path = build_dir() / "traces" / f"{tag}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_path)]
    if quick:
        cmd.append("--quick")
    if results_path.exists():
        results_path.unlink()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Refused(f"{workload} did not finish in {BINARY_TIMEOUT_S} s")
    if done.stdout:
        sys.stdout.write(done.stdout.decode())
    if not results_path.exists():
        raise Refused(f"{workload} exited {done.returncode} "
                      "without writing results")
    with open(results_path) as f:
        results = json.load(f)
    build_info = results["build"]
    if not build_info["ndebug"] or build_info["sanitizer"]:
        raise Refused("refusing a debug or sanitizer build: "
                      + build_info["flags"])
    cores = nproc()
    results["provenance"] = {
        "git_commit": git_commit(),
        "source_root": str(ROOT),
        "binary": str(binary),
        "compiler": build_info["compiler"],
        "flags": build_info["flags"],
        "ndebug": build_info["ndebug"],
        "sanitizer": build_info["sanitizer"],
        "nproc": cores,
        # sharded_par steps its shards on 2 threads.
        "cores_limited": workload == "sharded_par" and cores < 2,
        "quick": quick,
        "seconds": seconds,
        "unix_time": time.time(),
    }
    with open(results_path, "w") as f:
        json.dump(results, f, indent=2)
    if done.returncode not in (0, 1):
        raise Refused(f"{workload} exited {done.returncode}")
    return results


def selected_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def report(spec, results, trace):
    """Prints every metric of one run; returns its contract summary."""
    metrics = {}
    workload = results["workload"]
    for m in selected_metrics(spec, trace):
        measured = results["metrics"].get(m["name"])
        if measured is None:
            raise Refused(f"{workload} did not report {m['name']}")
        if measured["unit"] != m["unit"]:
            raise Refused(f"{workload} reported {m['name']} in "
                          f"{measured['unit']}, BENCHMARK.json says "
                          f"{m['unit']}")
        metrics[m["name"]] = {"value": measured["value"], "unit": m["unit"]}
        print(f"{workload:13s} {m['name']:40s} {measured['value']:>16.6g} "
              f"{m['unit']}")
    prov = results["provenance"]
    print(f"{workload:13s} seed {results['seed']}  ops {results['ops']}  "
          f"attempted {results['attempted']}  failed {results['failed']}  "
          f"nproc {prov['nproc']}  cores_limited {prov['cores_limited']}  "
          f"commit {prov['git_commit'][:12]}")
    for error in results["errors"]:
        print(f"{workload:13s} ERROR {error}")
    return {"correct": results["correct"], "attempted": results["attempted"],
            "failed": results["failed"], "metrics": metrics}


def median_summary(summaries, keys):
    """Folds several runs' summaries into one contract-shaped object."""
    metrics = {}
    for key, summary in zip(keys, summaries):
        for name, m in summary["metrics"].items():
            metrics.setdefault(f"{key}.{name}", []).append(m)
    return {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {name: {"value": statistics.median(m["value"] for m in ms),
                           "unit": ms[0]["unit"]}
                    for name, ms in metrics.items()},
    }


def cmd_run(args):
    spec = load_spec()
    names = workload_names(spec)
    workloads = names if args.workload == "all" else [args.workload]
    for w in workloads:
        if w not in names:
            raise Refused(f"unknown workload {w}; choose from "
                          + ", ".join(names) + " or all")
    check_environment()
    binary = build()
    seconds = 1 if args.quick else args.seconds
    trace = bool(args.trace)
    runs, summaries, keys = [], [], []
    for seed in range(args.seed, args.seed + args.runs):
        for w in workloads:
            results = run_one(binary, w, seed, seconds, trace, args.quick)
            runs.append(results)
            summaries.append(report(spec, results, trace))
            keys.append(w)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs}, f, indent=2)
    final = summaries[0] if len(summaries) == 1 else median_summary(
        summaries, keys)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


# --------------------------------------------------------------- compare

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_runs(path):
    with open(path) as f:
        doc = json.load(f)
    return doc["runs"] if "runs" in doc else [doc]


def by_key(runs):
    """(workload, seed) -> results of untraced runs."""
    return {(r["workload"], r["seed"]): r for r in runs if not r["traced"]}


def verdict(p, c, better, bound):
    """Verdict of the change's values `c` against the parent's `p`."""
    if len(p) < 2:
        return "unresolved"  # no spread to judge a difference against
    sign = 1 if better == "lower" else -1
    pm, cm = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    iqr = q3 - q1
    spread = iqr / abs(pm) if pm else 0.0
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    all_better = all(sign * (x - y) < 0 for x in c for y in p)
    if spread > bound:
        return "improved" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < 0 and abs(cm - pm) > iqr:
        return "improved"
    return "unchanged"


def exact_verdict(parent, change, workload, name, better):
    """Per-seed exact comparison of a metric that is a function of the seed."""
    diffs = []
    for (w, seed), pr in parent.items():
        cr = change.get((w, seed))
        if w != workload or cr is None:
            continue
        pv = pr["metrics"].get(name, {}).get("value")
        cv = cr["metrics"].get(name, {}).get("value")
        if pv != cv:
            diffs.append((pv, cv))
    if not diffs:
        return "unchanged"
    sign = 1 if better == "lower" else -1
    worse = sum(1 for pv, cv in diffs
                if pv is not None and cv is not None and sign * (cv - pv) > 0)
    return "worse" if worse else "changed"


def check_comparable(parent_runs, change_runs):
    """Refuses two sets that were not measured the same way."""
    def setups(runs):
        return {tuple(r["provenance"].get(k) for k in SAME_SETUP)
                for r in runs}
    p, c = setups(parent_runs), setups(change_runs)
    if len(p) != 1 or len(c) != 1:
        raise Refused("a set mixes runs of different "
                      + "/".join(SAME_SETUP))
    if p != c:
        differ = [k for k, pv, cv in zip(SAME_SETUP, *p, *c) if pv != cv]
        raise Refused("the sets differ in " + ", ".join(differ))
    # Each side must come from its own checkout, so its own binary.
    shared =({r["provenance"]["binary"] for r in parent_runs}
              & {r["provenance"]["binary"] for r in change_runs})
    commits = ({r["provenance"]["git_commit"] for r in parent_runs}
               | {r["provenance"]["git_commit"] for r in change_runs})
    if shared and len(commits) > 1:
        raise Refused("parent and change ran the same binary "
                      f"({sorted(shared)[0]}) but record different commits")


def compare(spec, parent_runs, change_runs, claim):
    check_comparable(parent_runs, change_runs)
    parent, change = by_key(parent_runs), by_key(change_runs)
    rows = []
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    exact = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]
             if m["name"] in EXACT_METRICS}
    for workload in workload_names(spec):
        seeds = sorted(s for (w, s) in parent if w == workload
                       and (w, s) in change)
        if not seeds:
            continue
        for name, m in list(bounded.items()) + [
                (n, m) for n, m in exact.items() if n not in bounded]:
            p = [parent[(workload, s)]["metrics"][name]["value"]
                 for s in seeds if name in parent[(workload, s)]["metrics"]]
            c = [change[(workload, s)]["metrics"][name]["value"]
                 for s in seeds if name in change[(workload, s)]["metrics"]]
            if not p or not c or (name not in bounded
                                  and max(p) == 0 and max(c) == 0):
                continue
            if name in exact:
                v = exact_verdict(parent, change, workload, name, m["better"])
            else:
                v = verdict(p, c, m["better"], m["bound"])
            rows.append((name, workload, m["unit"], p, c, v))
        pf = sum(parent[(workload, s)]["failed"] for s in seeds)
        pa = sum(parent[(workload, s)]["attempted"] for s in seeds)
        cf = sum(change[(workload, s)]["failed"] for s in seeds)
        ca = sum(change[(workload, s)]["attempted"] for s in seeds)
        pfrac, cfrac = pf / max(pa, 1), cf / max(ca, 1)
        rows.append(("fail_frac", workload, "fraction", [pfrac], [cfrac],
                     "worse" if cfrac > pfrac else "unchanged"))

    if not rows:
        raise Refused("the sets share no (workload, seed) run")
    header = (f"{'metric':26s} {'workload':13s} {'unit':9s} "
              f"{'parent q1/med/q3':>32s} {'change q1/med/q3':>32s}  verdict")
    print(header)
    print("-" * len(header))
    for name, workload, unit, p, c, v in rows:
        def fmt(values):
            q1, q3 = quartiles(values)
            return f"{q1:.4g}/{statistics.median(values):.4g}/{q3:.4g}"
        print(f"{name:26s} {workload:13s} {unit:9s} {fmt(p):>32s} "
              f"{fmt(c):>32s}  {v}")
    # A seed-determined metric that moves at all is a behaviour change.
    failed = any(v in ("worse", "changed") for *_, v in rows)

    if claim:
        name, _, workload = claim.partition("@")
        m = bounded.get(name) or exact.get(name)
        if m is None or workload not in workload_names(spec):
            raise Refused(f"unknown claim {claim}; use METRIC@WORKLOAD")
        sign = 1 if m["better"] == "lower" else -1
        seeds = sorted(s for (w, s) in parent if w == workload
                       and (w, s) in change)
        pairs = [(parent[(workload, s)]["metrics"][name]["value"],
                  change[(workload, s)]["metrics"][name]["value"])
                 for s in seeds]
        wins = sum(1 for pv, cv in pairs if sign * (cv - pv) < 0)
        p = [pv for pv, _ in pairs]
        c = [cv for _, cv in pairs]
        q1, q3 = quartiles(p)
        gap = sign * (statistics.median(p) - statistics.median(c))
        fails_ok = not any(r[0] == "fail_frac" and r[1] == workload
                           and r[5] == "worse" for r in rows)
        holds = (len(pairs) > 0 and wins >= 0.9 * len(pairs)
                 and gap > q3 - q1 and fails_ok)
        print(f"\nclaim {name}@{workload}: change wins {wins} of "
              f"{len(pairs)} pairs; median gain {gap:.4g} {m['unit']} vs "
              f"parent IQR {q3 - q1:.4g} -> "
              f"{'MET' if holds else 'NOT MET'}")
        failed = failed or not holds
    return 1 if failed else 0


def run_pairs(args, spec):
    """Runs N pairs of two checkouts, alternating which side goes first."""
    sides = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    for side, path in sides.items():
        if not (path / "tsubench" / "run_benchmark.py").exists():
            raise Refused(f"{side} checkout {path} has no tsubench/")
    runs = {"parent": [], "change": []}
    build_dir().mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build_dir()) as tmp:
        for k in range(args.pairs):
            order = ["parent", "change"] if k % 2 == 0 else ["change",
                                                             "parent"]
            for side in order:
                for w in workload_names(spec):
                    out = Path(tmp) / f"{side}-{k}-{w}.json"
                    cmd = [sys.executable,
                           str(sides[side] / "tsubench" / "run_benchmark.py"),
                           "--workload", w, "--seed", str(args.seed + k),
                           "--seconds", str(args.seconds), "--trace", "0",
                           "--out", str(out)]
                    log(f"pair {k + 1}/{args.pairs}: {side} {w}")
                    done = subprocess.run(cmd, cwd=sides[side],
                                          stdout=subprocess.DEVNULL)
                    if not out.exists():
                        raise Refused(f"{side} {w} exited {done.returncode}")
                    runs[side] += load_runs(out)
    for side in runs:
        path = build_dir() / f"pairs-{side}.json"
        with open(path, "w") as f:
            json.dump({"runs": runs[side]}, f, indent=2)
        log(f"{side} runs written to {path}")
    return runs["parent"], runs["change"]


def cmd_compare(argv):
    parser = argparse.ArgumentParser(prog="run_benchmark.py compare")
    parser.add_argument("parent", help="set file, or checkout with --pairs")
    parser.add_argument("change", help="set file, or checkout with --pairs")
    parser.add_argument("--claim", help="METRIC@WORKLOAD a change claims")
    parser.add_argument("--pairs", type=int, default=0,
                        help="run N parent/change pairs of two checkouts")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.pairs:
        parent_runs, change_runs = run_pairs(args, spec)
    else:
        parent_runs, change_runs = load_runs(args.parent), load_runs(
            args.change)
    return compare(spec, parent_runs, change_runs, args.claim)


def main(argv):
    try:
        if argv and argv[0] == "compare":
            return cmd_compare(argv[1:])
        parser = argparse.ArgumentParser(
            description=__doc__,
            formatter_class=argparse.RawDescriptionHelpFormatter)
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--seconds", type=int, default=None)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--runs", type=int, default=1)
        parser.add_argument("--out")
        parser.add_argument("--quick", action="store_true")
        args = parser.parse_args(argv)
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        if args.runs < 1 or args.seconds < 1:
            raise Refused("--runs and --seconds must be at least 1")
        return cmd_run(args)
    except (Refused, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        log(f"run_benchmark: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
