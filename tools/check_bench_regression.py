#!/usr/bin/env python3
"""CI perf gate: compare fresh bench JSON against the committed baseline.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json [FRESH.json ...]

The baseline (BENCH_7.json) maps a section name per bench binary to the
document that binary writes with --json:

    { "bench_queue": {...}, "bench_multi_policy": {...} }

Each fresh document is matched to its baseline section by the document's
"bench" identifier string. Two objects of each document are gated;
everything else in the JSON is trajectory data for humans.

The "hotpath" object:

  * <scenario>.ns_per_event      fails when the fresh value exceeds the
                                 baseline by more than the tolerance
                                 (default 10%; override with the
                                 TSU_BENCH_NS_TOLERANCE env var, e.g.
                                 "0.25" for 25% - CI runners are noisy,
                                 local baselines are not).
  * <scenario>.steady_allocs     fails on ANY increase. The steady state
                                 is allocation-free by construction
                                 (tests/hotpath_alloc_test.cpp), so the
                                 baseline is zero and a single allocation
                                 creeping back into the hot path trips
                                 the gate exactly.

The "parallel" array (entries matched by shards/partition/exec; only
exec = "parallel" entries are gated):

  * horizon_stalls               sequential fallback steps at a collapsed
                                 horizon. Exact per seed, so it fails on
                                 ANY increase over the baseline - creeping
                                 re-serialization shows up here. The stall
                                 share serial_fraction (stalls over events)
                                 is printed beside it but not gated: a
                                 change that removes events which never
                                 stall raises the share while the stalls
                                 stay put.

The "open_loop" array (entries matched by "label"):

  * sustained_per_sec            fails when fresh throughput falls below
                                 the baseline by more than the tolerance.
                                 It is sim-time throughput - deterministic
                                 per seed - so any drop is a real service
                                 regression, not runner noise.
  * steady_state_entries_final   fails on ANY increase. A drained service
                                 leaves zero per-update map entries; a
                                 nonzero value is a leak.

The "submission_path" object (the plan-compilation cache):

  * warm_cold_ratio              fails above 0.7 - an absolute bound, not
                                 baseline-relative: a cache hit must cost
                                 well under the full compile pipeline or
                                 the cache has stopped caching.
  * steady_allocs                fails on ANY nonzero value. Past warmup
                                 (every template compiled), submissions
                                 run entirely off warm pools; a single
                                 allocation in the warm window is a
                                 regression.

A baseline section without "open_loop" or "submission_path" passes with a
note (older baselines stay green until regenerated).

Exit status: 0 when every gated metric holds, 1 on regression or malformed
input. Scenarios present in only one side are reported (new scenarios
pass; scenarios dropped from the fresh run fail - a silently skipped
measurement must not read as green).
"""

import json
import os
import sys

NS_KEY = "ns_per_event"
ALLOC_KEY = "steady_allocs"
THROUGHPUT_KEY = "sustained_per_sec"
LEFTOVER_KEY = "steady_state_entries_final"
STALLS_KEY = "horizon_stalls"
SERIAL_KEY = "serial_fraction"
RATIO_KEY = "warm_cold_ratio"
DEFAULT_TOLERANCE = 0.10
WARM_COLD_LIMIT = 0.7


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(1)


def baseline_section_for(baseline, bench_id, path):
    for name, doc in baseline.items():
        if isinstance(doc, dict) and doc.get("bench") == bench_id:
            return name, doc
    print(
        f"error: {path} ('{bench_id}') has no matching section in the "
        "baseline - regenerate the baseline after adding a bench",
        file=sys.stderr,
    )
    sys.exit(1)


def check_document(name, base_doc, fresh_doc, tolerance):
    """Returns a list of failure strings for one bench document."""
    failures = []
    base_hot = base_doc.get("hotpath", {})
    fresh_hot = fresh_doc.get("hotpath", {})
    if not isinstance(base_hot, dict) or not isinstance(fresh_hot, dict):
        return [f"{name}: 'hotpath' section missing or not an object"]

    for scenario in sorted(set(base_hot) | set(fresh_hot)):
        base = base_hot.get(scenario)
        fresh = fresh_hot.get(scenario)
        if base is None:
            print(f"  {name}/{scenario}: new scenario (no baseline) - "
                  "passes; regenerate the baseline to start gating it")
            continue
        if fresh is None:
            failures.append(
                f"{name}/{scenario}: present in baseline but missing from "
                "the fresh run")
            continue

        base_ns = base.get(NS_KEY)
        fresh_ns = fresh.get(NS_KEY)
        if isinstance(base_ns, (int, float)) and isinstance(
                fresh_ns, (int, float)) and base_ns > 0:
            ratio = fresh_ns / base_ns
            verdict = "ok" if ratio <= 1.0 + tolerance else "REGRESSION"
            print(f"  {name}/{scenario}: {fresh_ns:.2f} ns/event vs "
                  f"baseline {base_ns:.2f} ({ratio - 1.0:+.1%}, "
                  f"tolerance +{tolerance:.0%}) {verdict}")
            if verdict != "ok":
                failures.append(
                    f"{name}/{scenario}: ns/event regressed "
                    f"{base_ns:.2f} -> {fresh_ns:.2f} "
                    f"(+{(ratio - 1.0):.1%} > +{tolerance:.0%})")

        base_allocs = base.get(ALLOC_KEY)
        fresh_allocs = fresh.get(ALLOC_KEY)
        if isinstance(base_allocs, int) and isinstance(fresh_allocs, int):
            verdict = "ok" if fresh_allocs <= base_allocs else "REGRESSION"
            print(f"  {name}/{scenario}: {fresh_allocs} steady-state "
                  f"allocations vs baseline {base_allocs} {verdict}")
            if verdict != "ok":
                failures.append(
                    f"{name}/{scenario}: steady-state allocations "
                    f"regressed {base_allocs} -> {fresh_allocs} (the hot "
                    "path must stay allocation-free)")
    return failures


def by_label(entries):
    return {
        e["label"]: e
        for e in entries
        if isinstance(e, dict) and isinstance(e.get("label"), str)
    }


def parallel_label(entry):
    return (f"{entry.get('shards')}shards/{entry.get('partition')}/"
            f"{entry.get('exec')}")


def check_parallel(name, base_doc, fresh_doc):
    """Gates horizon_stalls on the parallel-exec entries."""
    failures = []
    base_entries = base_doc.get("parallel")
    if not isinstance(base_entries, list):
        print(f"  {name}/parallel: no baseline section - passes; "
              "regenerate the baseline to start gating it")
        return failures
    fresh_entries = fresh_doc.get("parallel")
    if not isinstance(fresh_entries, list):
        return [f"{name}/parallel: present in baseline but missing from "
                "the fresh run"]

    def gated(entries):
        return {
            parallel_label(e): e
            for e in entries
            if isinstance(e, dict) and e.get("exec") == "parallel"
            and isinstance(e.get(STALLS_KEY), int)
        }

    def share(entry):
        fraction = entry.get(SERIAL_KEY)
        return (f"{fraction:.4f}" if isinstance(fraction, (int, float))
                else "n/a")

    base_map, fresh_map = gated(base_entries), gated(fresh_entries)
    for label in sorted(set(base_map) | set(fresh_map)):
        base = base_map.get(label)
        fresh = fresh_map.get(label)
        if base is None:
            print(f"  {name}/parallel/{label}: new scenario (no baseline) "
                  "- passes")
            continue
        if fresh is None:
            failures.append(
                f"{name}/parallel/{label}: present in baseline but missing "
                "from the fresh run")
            continue
        base_stalls, fresh_stalls = base[STALLS_KEY], fresh[STALLS_KEY]
        verdict = "ok" if fresh_stalls <= base_stalls else "REGRESSION"
        print(f"  {name}/parallel/{label}: {fresh_stalls} horizon stalls vs "
              f"baseline {base_stalls} (serial fraction {share(fresh)} vs "
              f"{share(base)}) {verdict}")
        if verdict != "ok":
            failures.append(
                f"{name}/parallel/{label}: horizon stalls rose "
                f"{base_stalls} -> {fresh_stalls} (the parallel stepper is "
                "re-serializing)")
    return failures


def check_open_loop(name, base_doc, fresh_doc, tolerance):
    """Gates the open-loop service points; returns failure strings."""
    failures = []
    base_points = base_doc.get("open_loop")
    if not isinstance(base_points, list):
        print(f"  {name}/open_loop: no baseline section - passes; "
              "regenerate the baseline to start gating it")
        return failures
    fresh_points = fresh_doc.get("open_loop")
    if not isinstance(fresh_points, list):
        return [f"{name}/open_loop: present in baseline but missing from "
                "the fresh run"]

    base_map, fresh_map = by_label(base_points), by_label(fresh_points)
    for label in sorted(set(base_map) | set(fresh_map)):
        base = base_map.get(label)
        fresh = fresh_map.get(label)
        if base is None:
            print(f"  {name}/open_loop/{label}: new operating point "
                  "(no baseline) - passes")
            continue
        if fresh is None:
            failures.append(
                f"{name}/open_loop/{label}: present in baseline but "
                "missing from the fresh run")
            continue

        base_tp = base.get(THROUGHPUT_KEY)
        fresh_tp = fresh.get(THROUGHPUT_KEY)
        if isinstance(base_tp, (int, float)) and isinstance(
                fresh_tp, (int, float)) and base_tp > 0:
            ratio = fresh_tp / base_tp
            verdict = "ok" if ratio >= 1.0 - tolerance else "REGRESSION"
            print(f"  {name}/open_loop/{label}: {fresh_tp:.0f} sustained "
                  f"updates/s vs baseline {base_tp:.0f} "
                  f"({ratio - 1.0:+.1%}, tolerance -{tolerance:.0%}) "
                  f"{verdict}")
            if verdict != "ok":
                failures.append(
                    f"{name}/open_loop/{label}: sustained throughput "
                    f"regressed {base_tp:.0f} -> {fresh_tp:.0f} updates/s "
                    f"({(ratio - 1.0):.1%} < -{tolerance:.0%})")

        base_left = base.get(LEFTOVER_KEY)
        fresh_left = fresh.get(LEFTOVER_KEY)
        if isinstance(base_left, int) and isinstance(fresh_left, int):
            verdict = "ok" if fresh_left <= base_left else "REGRESSION"
            print(f"  {name}/open_loop/{label}: {fresh_left} leftover "
                  f"controller entries vs baseline {base_left} {verdict}")
            if verdict != "ok":
                failures.append(
                    f"{name}/open_loop/{label}: leftover controller "
                    f"entries after drain {base_left} -> {fresh_left} "
                    "(per-update state is leaking)")
    return failures


def check_submission_path(name, base_doc, fresh_doc):
    """Gates the plan-cache section; both bounds are absolute."""
    failures = []
    if not isinstance(base_doc.get("submission_path"), dict):
        print(f"  {name}/submission_path: no baseline section - passes; "
              "regenerate the baseline to start gating it")
        return failures
    fresh = fresh_doc.get("submission_path")
    if not isinstance(fresh, dict):
        return [f"{name}/submission_path: present in baseline but missing "
                "from the fresh run"]

    ratio = fresh.get(RATIO_KEY)
    if not isinstance(ratio, (int, float)):
        failures.append(f"{name}/submission_path: '{RATIO_KEY}' missing")
    else:
        verdict = "ok" if ratio <= WARM_COLD_LIMIT else "REGRESSION"
        print(f"  {name}/submission_path: warm/cold {ratio:.4f} "
              f"(limit {WARM_COLD_LIMIT}) {verdict}")
        if verdict != "ok":
            failures.append(
                f"{name}/submission_path: warm submissions cost "
                f"{ratio:.2f}x a cold compile (limit {WARM_COLD_LIMIT}) - "
                "the plan cache is no longer paying for itself")

    allocs = fresh.get(ALLOC_KEY)
    if not isinstance(allocs, int):
        failures.append(f"{name}/submission_path: '{ALLOC_KEY}' missing")
    else:
        verdict = "ok" if allocs == 0 else "REGRESSION"
        print(f"  {name}/submission_path: {allocs} warm-window "
              f"allocations (must be 0) {verdict}")
        if verdict != "ok":
            failures.append(
                f"{name}/submission_path: {allocs} allocations in the "
                "warm submission window (cached submissions must stay "
                "off the heap)")
    return failures


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 1
    try:
        tolerance = float(
            os.environ.get("TSU_BENCH_NS_TOLERANCE", DEFAULT_TOLERANCE))
    except ValueError:
        print("error: TSU_BENCH_NS_TOLERANCE is not a number",
              file=sys.stderr)
        return 1

    baseline = load(argv[1])
    failures = []
    for fresh_path in argv[2:]:
        fresh_doc = load(fresh_path)
        bench_id = fresh_doc.get("bench")
        if not isinstance(bench_id, str):
            print(f"error: {fresh_path} has no 'bench' identifier",
                  file=sys.stderr)
            return 1
        name, base_doc = baseline_section_for(baseline, bench_id, fresh_path)
        print(f"{name} ({fresh_path}):")
        failures.extend(check_document(name, base_doc, fresh_doc, tolerance))
        failures.extend(check_parallel(name, base_doc, fresh_doc))
        failures.extend(
            check_open_loop(name, base_doc, fresh_doc, tolerance))
        failures.extend(check_submission_path(name, base_doc, fresh_doc))

    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf gate: all hotpath metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
