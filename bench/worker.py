"""One benchmark round in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line.  A
fresh interpreter per round keeps rounds cold: taufact's atom memo lives in
the process, so a second round in the same process would start warm.

Phases: import taufact and build the workload's inputs (set-up), then the
timed phase (every case in order, each started after the previous one
returned, each checked against its closed form), then checks that compare
cases with each other and, when asked, with the naive oracle.  Untraced
rounds also time a fixed probe loop at the start of set-up, at its end and
between cases, so that ``run.py`` can rescale their times to one host
speed; probe time is left out of ``wall_s`` and ``cpu_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_GAP_S = 0.005  # time a probe after the first case that ends this long after the last
PROBE_LOOPS = 4000
_TABLE = list(range(4096))


def probe(clock) -> float:
    """Seconds a fixed loop takes now, as a measure of the host's speed.

    On a shared host the speed of the CPU moves in bursts, and a burst slows
    taufact and this loop alike.  The loop allocates nothing, so taufact's
    heap and memo do not change its time; only the host does.
    """
    start = clock()
    t = 0
    for i in range(PROBE_LOOPS):
        t += _TABLE[(i * 2654435761) & 4095] ^ i
    return clock() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--naive", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="", help="file to write the traced spans to")
    args = parser.parse_args()
    setup_probe = probe(time.perf_counter)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
    import taufact

    if Path(taufact.__file__).resolve().parent != ROOT / "src" / "taufact":
        raise SystemExit(f"taufact imported from {taufact.__file__}, not from {ROOT / 'src'}")
    import workloads
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        span = tracer.span
    else:
        span = lambda name: contextlib.nullcontext()  # noqa: E731

    with span("bench.setup"):
        workload = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    setup_probes = [setup_probe, probe(time.perf_counter)]

    cases = workload.cases
    times = []
    payloads = {}
    problems = {}
    clock = time.perf_counter
    # Untraced rounds time the host's speed between cases (see probe);
    # case k ran between probes[before[k]] and the next probe.
    probes, before, case_wall = [], [], []
    measure_speed = tracer is None
    cpu0 = time.process_time()
    wall0 = clock()
    if measure_speed:
        probes.append(probe(clock))
        last_probe = clock()
    with span("bench.timed") as root:
        for case in cases:
            if tracer:
                tracer.case = case.id
            with span("bench.case"):
                start = clock()
                elapsed = None
                try:
                    result = workload.run(case)
                    elapsed = clock() - start
                    payloads[case.id], problem = workload.check(case, result)
                except Exception as exc:  # a failed case is counted, never skipped
                    problem = f"{type(exc).__name__}: {exc}"
                times.append(clock() - start if elapsed is None else elapsed)
                if problem:
                    problems[case.id] = problem
            if measure_speed:
                end = clock()
                case_wall.append(end - start)
                before.append(len(probes) - 1)
                if end - last_probe >= PROBE_GAP_S or case is cases[-1]:
                    probes.append(probe(clock))
                    last_probe = clock()
    wall = clock() - wall0 - sum(probes)
    cpu = time.process_time() - cpu0 - sum(probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks_began = clock()

    out = {
        "ready": ready,
        "setup_probe_s": setup_probes,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "case_s": times,
        "case_wall_s": case_wall,
        "probe_s": probes,
        "before": before,
    }
    if tracer:
        tracer.case = None
        tracer.uninstall()
        out["layers"], out["layer_self_s"] = tracer.metrics(root)
        out["spans"] = len(tracer.records)
        if args.spans:
            tracer.dump(args.spans)

    for case_id, problem in workload.check_all(payloads).items():
        problems.setdefault(case_id, problem)
    if args.naive:
        for case in cases:
            if case.id in payloads and case.id not in problems:
                try:
                    problem = workload.check_naive(case, payloads[case.id])
                except Exception as exc:
                    problem = f"naive check raised {type(exc).__name__}: {exc}"
                if problem:
                    problems[case.id] = problem

    digest = hashlib.sha256(
        json.dumps([payloads.get(c.id) for c in cases]).encode()
    ).hexdigest()
    out.update({
        "check_s": clock() - checks_began,
        "attempted": len(cases),
        "failed": len(problems),
        "problems": [f"case {c}: {p}" for c, p in sorted(problems.items())[:5]],
        "digest": digest,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
