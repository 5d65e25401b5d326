#!/usr/bin/env python3
"""End-to-end benchmark of the PMRace fuzzer.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` round runner (`perfbench/Cargo.toml`, into
$CARGO_TARGET_DIR, default `.bench_build`), then runs fixed-work rounds of
the workload, each in a fresh process, until `--seconds` have passed.
Figures are medians over the rounds, except `campaigns_per_s` (upper
quartile) and `bug_set_s` and `rows_found_pct` (pooled over every job of
the run).
With `--trace 1` each round runs twice, untraced then traced with the same
inputs: the traced round gives the per-layer metrics and the pair gives
`telemetry.overhead_pct`. Benchmark-side spans of traced rounds are written
to `.perfbench-out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when the run's outputs are correct; see perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("fuzz-table2", "fuzz-lockfree-w2", "replay-corpus")
# Never start a round after this much measuring, whatever --seconds says,
# so a slow build of the program still ends well inside three minutes.
HARD_STOP_S = 110
ROUND_TIMEOUT_S = 60
OUT_DIR = ".perfbench-out"
# Throughput figures taken as the upper quartile over rounds, not the
# median. Other tenants of a shared host slow whole rounds down for
# seconds at a time and never speed one up, so the upper quartile follows
# the program's own speed while the median follows the host's slow phases.
UPPER_QUARTILE = {"campaigns_per_s"}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(root):
    """Build the round runner; return its path, or None on failure."""
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return os.path.join(root, target_dir, "release", "perfbench")


def run_round(root, binary, workload, seed, rnd, traced):
    """Run one round in a fresh process; return its record or an error."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--round", str(rnd), "--trace", "1" if traced else "0"]
    try:
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None, f"round {rnd} timed out after {ROUND_TIMEOUT_S}s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-3:]
        return None, f"round {rnd} exited {done.returncode}: {' | '.join(tail)}"
    try:
        return json.loads(done.stdout), None
    except json.JSONDecodeError as e:
        return None, f"round {rnd} printed no record: {e}"


def over_rounds(name, values):
    if name in UPPER_QUARTILE and len(values) > 1:
        return statistics.quantiles(values, n=4, method="inclusive")[2]
    return statistics.median(values)


def medians(records, key):
    """Each metric over rounds (see UPPER_QUARTILE), with its unit."""
    values, units = {}, {}
    for r in records:
        for name, m in r[key].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return {n: {"value": over_rounds(n, v), "unit": units[n]}
            for n, v in values.items()}


def pooled(records):
    """`bug_set_s` and `rows_found_pct` over every job (pass) of the run."""
    samples = [x for r in records for x in r["pooled"]["bug_set_s"]]
    found = sum(r["pooled"]["found"] for r in records)
    expected = sum(r["pooled"]["expected"] for r in records)
    if not samples or not expected:
        return {}
    if records[0]["pooled"]["aggregate"] == "geomean":
        bug_set = statistics.geometric_mean(samples)
    else:
        bug_set = statistics.median(samples)
    return {"bug_set_s": {"value": bug_set, "unit": "s"},
            "rows_found_pct": {"value": 100.0 * found / expected, "unit": "%"}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    traced = args.trace == 1

    binary = build(root)
    if binary is None:
        return 2

    untraced_rounds, traced_rounds, problems = [], [], []
    start = time.monotonic()
    rnd = 0
    while True:
        record, err = run_round(root, binary, args.workload, args.seed, rnd, False)
        if err:
            problems.append(err)
            break
        untraced_rounds.append(record)
        if traced:
            record, err = run_round(root, binary, args.workload, args.seed, rnd, True)
            if err:
                problems.append(err)
                break
            traced_rounds.append(record)
        rnd += 1
        elapsed = time.monotonic() - start
        if elapsed >= args.seconds or elapsed >= HARD_STOP_S:
            break
    log(f"{rnd} round(s) in {time.monotonic() - start:.1f}s")

    records = untraced_rounds + traced_rounds
    for r in records:
        problems.extend(r["broken"])
        if r["traced"] and r["order"] != untraced_rounds[r["round"]]["order"]:
            problems.append(f"round {r['round']}: traced job order differs")
    # Replays are judged per run: every artifact must re-trigger its bug in
    # at least one pass. A single miss is not a failed operation: the replay
    # ran, and whether a free-schedule artifact re-fires is a matter of
    # thread timing; misses lower `rows_found_pct` and show in `replay.misses`.
    matched = {}
    for r in records:
        for key, hits in r["matched"].items():
            matched[key] = matched.get(key, False) or any(hits)
    problems.extend(f"artifact {k} never re-triggered" for k, ok in matched.items() if not ok)
    for r in records:
        for e in r["misses"][:5]:
            log(f"round {r['round']}{' traced' if r['traced'] else ''}: {e}")

    correct = not problems and bool(untraced_rounds)
    attempted = sum(int(r["attempted"]) for r in records)
    failed = sum(int(r["failed"]) for r in records)
    if traced and traced_rounds:
        metrics = medians(traced_rounds, "per_layer")
        overhead = [100.0 * (t["call_wall_s"] / u["call_wall_s"] - 1.0)
                    for u, t in zip(untraced_rounds, traced_rounds)]
        metrics["telemetry.overhead_pct"] = {
            "value": statistics.median(overhead), "unit": "%"}
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        out = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}.trace.jsonl")
        with open(out, "w", encoding="utf-8") as f:
            for r in traced_rounds:
                for span in r["spans"]:
                    f.write(json.dumps(dict(span, round=r["round"])) + "\n")
        log(f"benchmark spans written to {out}")
    else:
        metrics = {}
        if untraced_rounds:
            metrics = medians(untraced_rounds, "metrics")
            metrics.update(pooled(untraced_rounds))

    for p in problems:
        print(f"INCORRECT: {p}")
    print(f"workload {args.workload} seed {args.seed}: {len(untraced_rounds)} round(s), "
          f"job order of round 0: {', '.join(untraced_rounds[0]['order']) if untraced_rounds else '-'}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    if untraced_rounds:
        for name in ("cpu_per_campaign_ms", "unexpected_bugs"):
            vals = [r["info"][name] for r in untraced_rounds if name in r["info"]]
            if vals:
                print(f"{name:40s} {statistics.median(vals):14.6g} (median over untraced rounds)")
    if args.workload == "replay-corpus" and not traced:
        for alias, name in (("replay_s", "bug_set_s"), ("replay_matched_pct", "rows_found_pct")):
            if name in metrics:
                print(f"{alias:40s} {metrics[name]['value']:14.6g} (= {name})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
