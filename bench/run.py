"""Benchmark for taufact: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload suites --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; taufact is imported
from the checkout's ``src`` and the naive oracle from its ``tests``.

Each run repeats rounds of one workload until ``--seconds`` have passed
(at least three rounds with ``--trace 0``).  A round is a fresh interpreter
(``worker.py``) that imports taufact, builds the seeded inputs and decides
every case in a closed loop with one client: a case starts when the
previous one returned.  All rounds of a run decide the same inputs, so they
must give identical outputs.  The first round also checks small cases
against the naive oracle, outside the timed phase.

``--trace 0`` reports the end-to-end metrics, each the median over rounds.
The gated times are rescaled to a reference host speed, the speed at which
the worker's probe loop takes PROBE_REF_S: each case by the probes timed
just before and after it, set-up by the probes at its start and end.  The
raw times are printed beside them and are per-layer metrics.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds, the raw times of the untraced ones
and the tracing overhead: traced minus untraced ``wall_s``.

Human-readable tables go first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``failed / attempted``
is the failed fraction: cases that raised (``BudgetExceeded`` included),
disagreed with a closed form or the naive oracle, or changed between
rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("suites", "main_sequence", "z_survey", "listing")
MIN_ROUNDS = {0: 3, 1: 2}
LAST_START_S = 170.0  # no round starts later than this would end
ROUND_TIMEOUT_S = 160.0
TAIL_BEYOND = 10  # cases beyond the reported tail percentile
ACCOUNT_TOLERANCE = 0.01  # layer self times versus the traced wall_s
BENCH_SHARE_MAX = 0.05  # most of traced wall_s left in the benchmark's own code
PROBE_REF_S = 0.0007  # the reference speed: the probe loop in worker.py takes this long
E2E_METRICS = (
    "setup_s", "wall_ref_s", "case_p50_ref_ms", "case_tail_ref_ms", "peak_rss_mb",
    "setup_raw_s", "wall_s", "cpu_s", "case_p50_ms", "case_tail_ms",
)


class RoundFailed(RuntimeError):
    pass


def run_round(workload: str, seed: int, traced: bool, naive: bool) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(traced)), "--naive", str(int(naive)),
    ]
    if traced:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{workload}-{seed}.tsv")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RoundFailed(f"{workload} round exceeded {ROUND_TIMEOUT_S:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise RoundFailed(f"{workload} round exited with {proc.returncode}:\n{err[-2000:]}")
    result = json.loads(out.splitlines()[-1])
    # Set-up at the reference speed: the first probe ran inside it, the
    # second right after it.
    p0, p1 = result["setup_probe_s"]
    result["setup_raw_s"] = result["ready"] - spawned - p0
    result["setup_s"] = result["setup_raw_s"] * 2 * PROBE_REF_S / (p0 + p1)
    result["traced"] = traced
    return result


def accounted(r: dict) -> bool:
    """Whether the self times of the traced layers, the benchmark's own
    included, add up to the timed phase's wall time as the worker clocked
    it outside the span tree, and the benchmark's own share stays small."""
    self_s = r["layer_self_s"]
    return (
        abs(sum(self_s.values()) - r["wall_s"]) <= ACCOUNT_TOLERANCE * r["wall_s"]
        and self_s.get("bench", 0.0) <= BENCH_SHARE_MAX * r["wall_s"]
    )


def at_ref_speed(r: dict) -> tuple[float, list[float]]:
    """The timed phase and the case times of an untraced round, rescaled to
    the host speed at which the probe takes PROBE_REF_S.  Each case is
    rescaled by the mean of the probes just before and just after it."""
    p = r["probe_s"]
    scale = [2 * PROBE_REF_S / (p[k] + p[k + 1]) for k in r["before"]]
    wall = sum(t * f for t, f in zip(r["case_wall_s"], scale))
    return wall, [t * f for t, f in zip(r["case_s"], scale)]


def tail(times: list[float]):
    """(value, percentile) with exactly TAIL_BEYOND cases beyond, or None."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    rounds = []
    start = time.monotonic()
    measured = 0.0  # round time without the checks made after the timed phase
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        began = time.monotonic()
        rounds.append(run_round(workload, seed, traced, naive=not rounds))
        last = time.monotonic() - began - rounds[-1]["check_s"]
        measured += last
        if time.monotonic() - start + last > LAST_START_S:
            break
        if len(rounds) >= MIN_ROUNDS[trace] and measured + last > seconds:
            break

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    for r in rounds[1:]:
        if r["digest"] != rounds[0]["digest"]:
            failed += r["attempted"] - r["failed"]
            problems.append("outputs changed between rounds of identical inputs")

    summary = {
        "workload": workload, "seed": seed, "rounds": len(rounds),
        "cases": rounds[0]["attempted"], "attempted": attempted, "failed": failed,
        "problems": problems[:5],
    }
    # Rounds decide the same cases in the same order, so a case's time is
    # its median over the rounds; percentiles are taken over those.
    case_s = [statistics.median(ts) for ts in zip(*(r["case_s"] for r in plain))]
    ref = [at_ref_speed(r) for r in plain]
    case_ref_s = [statistics.median(ts) for ts in zip(*(cases for _, cases in ref))]
    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "setup_raw_s": statistics.median(r["setup_raw_s"] for r in plain),
        "wall_ref_s": statistics.median(wall for wall, _ in ref),
        "case_p50_ref_ms": 1e3 * statistics.median(case_ref_s),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "case_p50_ms": 1e3 * statistics.median(case_s),
    }
    if tail(case_s):
        e2e["case_tail_ref_ms"] = 1e3 * tail(case_ref_s)[0]
        e2e["case_tail_ms"] = 1e3 * tail(case_s)[0]
        summary["tail_percentile"] = tail(case_s)[1]
    summary["end_to_end"] = e2e

    if traced:
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced)
        layers["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
        layers.update(e2e)  # from the untraced rounds
        summary["layers"] = layers
        summary["layer_self_s"] = traced[-1]["layer_self_s"]
        summary["spans"] = traced[-1]["spans"]
        summary["accounted"] = all(accounted(r) for r in traced)
    return summary


def print_summary(s: dict, units: dict) -> None:
    frac = s["failed"] / s["attempted"]
    print(
        f"workload {s['workload']}  seed {s['seed']}  rounds {s['rounds']}  "
        f"cases/round {s['cases']}  attempted {s['attempted']}  failed {s['failed']}  "
        f"failed_frac {frac:.4g}"
    )
    for problem in s["problems"]:
        print(f"  FAILED {problem}")
    gated = units["end_to_end"]
    for name in E2E_METRICS:
        value = s["end_to_end"].get(name)
        if value is None:
            print(f"  {name:<14} not measured")
            continue
        note = "" if name in gated else "  (raw, not gated; per-layer with --trace 1)"
        if name.startswith("case_tail"):
            note = (
                f"  (p{s['tail_percentile']:.2f} of {s['cases']} cases per round, "
                f"{TAIL_BEYOND} beyond)" + note
            )
        unit = gated.get(name) or units["per_layer"].get(name, "")
        print(f"  {name:<14} {value:12.6g} {unit}{note}")
    if "layers" in s:
        for name, value in s["layers"].items():
            if name in E2E_METRICS:
                continue
            print(f"  {name:<30} {value:14.6g} {units['per_layer'].get(name, '')}")
        total = sum(s["layer_self_s"].values())
        print(f"  self time by layer ({s['spans']} spans, last traced round):")
        for layer, value in sorted(s["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<12} {value:10.4f} s  {100 * value / total:5.1f}%")
        print(
            f"  self times add up to traced wall_s within {100 * ACCOUNT_TOLERANCE:g}%, "
            f"bench.self_s at most {100 * BENCH_SHARE_MAX:g}% of it: {s['accounted']}"
        )


def main() -> int:
    # Turn SIGTERM into SystemExit so that run_round kills its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/taufact/__init__.py", "tests/naive_oracle.py", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            print(f"bench: {needed} not found under {ROOT}; run inside a taufact checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except RoundFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    correct = True
    for s in summaries:
        print_summary(s, units)
        correct = correct and s["failed"] == 0 and s.get("accounted", True)
        kind, values = ("per_layer", s["layers"]) if args.trace else ("end_to_end", s["end_to_end"])
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        for name, unit in units[kind].items():
            if name in values:
                metrics[prefix + name] = {"value": values[name], "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
