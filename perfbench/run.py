"""End-to-end benchmark of the Via controller and its trace replay.

One run::

    python3 perfbench/run.py --workload durable --seed 1 --seconds 40 --trace 0

prints, as its last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric ``BENCHMARK.json`` lists with ``--trace 0``, every per-layer one
with ``--trace 1``.  It exits non-zero when a check fails.

``--repeat N`` runs a workload N times, one process per seed, and prints
each metric's median and quartiles.  ``--smoke`` runs every workload at
the tiny size, traced and untraced, and checks that each passes with no
failed operation.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import shutil
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("serve", "durable", "replay")
#: Set-ups per run; the median is reported.
N_SETUPS = 3

MESSAGE_TYPES = ("request", "assign", "measurement")


def metric_units(trace: int) -> dict[str, str]:
    """Name and unit of every metric a run prints, as ``BENCHMARK.json``
    lists them: the per-layer ones when traced, else the end-to-end ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(tracer, n_traced: int, overhead_pct: float, late_s: list[float]) -> dict:
    """Per-layer figures from a traced run; counts are per traced round,
    times are means per call of the wrapped function."""

    def mean_us(name: str) -> float:
        agg = tracer.total(name)
        return _per(agg.total_s, agg.count) * 1e6

    out = {}
    for t in MESSAGE_TYPES:
        out[f"protocol.encode_us.{t}"] = mean_us(f"protocol.encode.{t}")
        out[f"protocol.decode_us.{t}"] = mean_us(f"protocol.decode.{t}")
    wire_bytes = sum(tracer.counts.get(f"protocol.bytes.{t}", 0) for t in MESSAGE_TYPES)
    out["protocol.bytes_per_call"] = _per(wire_bytes, tracer.total("protocol.encode.request").count)
    out["aserver.queue_wait_us"] = tracer.mean("aserver.queue_wait_us")
    # Assignment passes with no traced caller are the server's request
    # path; replay and WAL recovery call the policy from a traced span.
    serving = tracer.total("policy.assign", parent=None)
    out["aserver.batch_size"] = _per(serving.items, serving.count)
    assign = tracer.total("policy.assign")
    out["policy.assign_us"] = _per(assign.total_s, assign.items) * 1e6
    out["policy.observe_us"] = mean_us("policy.observe")
    out["policy.refreshes"] = _per(tracer.counts.get("policy.refreshes", 0), n_traced)
    out["predictor.predict_all_us"] = mean_us("predictor.predict_all")
    out["predictor.cold_states"] = _per(tracer.total("predictor.predict_all").count, n_traced)
    out["tomography.fit_ms"] = mean_us("tomography.fit") / 1e3
    out["store.append_us"] = mean_us("store.append")
    out["store.fsyncs"] = _per(tracer.total("store.fsync").count, n_traced)
    out["store.bytes_per_record"] = tracer.mean("store.frame_bytes")
    # Per recovery: every segment read, by the open-time scan and the replay.
    out["store.read_ms"] = _per(
        tracer.total("store.read_segment").total_s, tracer.total("recover").count
    ) * 1e3
    out["controller.apply_record_us"] = mean_us("controller.apply_record")
    out["netmodel.sample_us"] = mean_us("netmodel.sample")
    out["netmodel.build_world_s"] = tracer.total("netmodel.build_world").total_s / N_SETUPS
    out["workload.generate_s"] = tracer.total("workload.generate").total_s / N_SETUPS
    replayed = tracer.total("replay")
    out["replay.self_us"] = _per(replayed.self_s, replayed.items) * 1e6
    out["loadgen.late_ms"] = _per(sum(late_s), len(late_s)) * 1e3
    out["trace.overhead_pct"] = overhead_pct
    return out


def run_once(args) -> int:
    from scenario import SIZES, build_scenario
    from tracer import Tracer
    from workloads import make_workload

    size = SIZES[args.size]
    tracer = Tracer() if args.trace else None
    workdir = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-"))
    try:
        workload = make_workload(args.workload, workdir)
        setups = []
        scn = None
        for _ in range(N_SETUPS):
            scn = None
            gc.collect()
            t0 = perf_counter()
            scn = build_scenario(size, args.seed, tracer)
            workload.setup(scn)
            setups.append(perf_counter() - t0)
        gc.collect()
        if args.workload != "replay":
            # The load generator's world and trace live in the server's
            # process only because the benchmark puts them there; keep
            # the collector from walking them on every full collection,
            # which stalls the server for tens of milliseconds at random.
            # ``replay`` keeps the collector as the program has it: there
            # the world and trace belong to the evaluation loop.
            gc.freeze()
        log(f"[{args.workload}] set-up {', '.join(f'{s:.3f}' for s in setups)} s; "
            f"{len(scn.calls)} calls, {len(scn.trace.pair_counts())} pairs, "
            f"{len(scn.world.topology.ases)} ASes, {size.n_days} days")

        rounds = []
        # At least two rounds: a median of one round is one sample of the
        # host's speed, and a traced run needs one untraced round.
        min_rounds = 2
        t_start = perf_counter()
        while True:
            # A traced run alternates untraced and traced rounds: the
            # per-layer figures come from the traced ones, the tracing
            # overhead from comparing the two.
            traced = bool(args.trace) and len(rounds) % 2 == 1
            gc.collect()
            t0 = perf_counter()
            with tracer.installed() if traced else nullcontext():
                result = workload.round(scn, tracer if traced else None)
            took = perf_counter() - t0
            rounds.append((traced, result))
            log(f"[{args.workload}] round {len(rounds)}{' (traced)' if traced else ''}: "
                f"{took:.2f} s, {result.calls_per_s:.1f} calls/s, "
                f"recover {statistics.median(result.recover_s):.4f} s, {result.attempted} attempted, "
                f"{result.failed} failed")
            for problem in result.problems:
                log(f"[{args.workload}]   {problem}")
            if len(rounds) >= min_rounds and perf_counter() - t_start + took > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for _, r in rounds]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    correct = not any(r.checks_failed for r in results)
    plain = [r for traced, r in rounds if not traced]
    units = metric_units(args.trace)
    if args.trace:
        traced_rounds = [r for traced, r in rounds if traced]
        # Each traced round against the untraced round just before it,
        # which ran on the host at much the same speed.
        overhead = statistics.median(
            (u.calls_per_s / t.calls_per_s - 1.0) * 100.0
            for (_, u), (_, t) in zip(rounds[0::2], rounds[1::2])
        )
        values = layer_metrics(
            tracer, len(traced_rounds), overhead, [x for r in plain for x in r.late_s]
        )
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        latencies = [x for r in plain for x in r.latencies_s]
        rtt_sum = sum(r.quality.rtt_sum for r in plain)
        rtt_n = sum(r.quality.n for r in plain)
        values = {
            "setup_s": statistics.median(setups),
            "calls_per_s": statistics.median(r.calls_per_s for r in plain),
            "assign_p50_ms": _percentile(latencies, 50) * 1e3,
            "recover_s": statistics.median(x for r in plain for x in r.recover_s),
            "call_rtt_ms": _per(rtt_sum, rtt_n),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        # The tail is shown, not reported: on a shared host it moves with
        # the host's stalls far more than any bound could allow.
        log(f"[{args.workload}] {len(latencies)} latency samples, "
            f"p90 {_percentile(latencies, 90) * 1e3:.3f} ms, "
            f"p99 {_percentile(latencies, 99) * 1e3:.3f} ms")
    for name, value in values.items():
        log(f"[{args.workload}] {name:28s} {value:14.6g} {units[name]}")
    log(f"[{args.workload}] attempted {attempted}, failed {failed}, "
        f"checks {'passed' if correct else 'FAILED'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# repeat and smoke modes: one child process per run
# ----------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: int, trace: int, size: str) -> tuple[int, dict | None, str]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--size", size,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def _workload_list(spec: str) -> list[str]:
    names = list(WORKLOADS) if spec == "all" else spec.split(",")
    for name in names:
        if name not in WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)} or all")
    return names


def repeat(args) -> int:
    ok = True
    summary = {}
    for workload in _workload_list(args.workload):
        per_metric: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.seed, args.seed + args.repeat):
            code, result, stderr = _child(workload, seed, args.seconds, args.trace, args.size)
            if code != 0 or result is None or not result["correct"]:
                ok = False
                log(f"{workload} seed {seed}: exit {code}\n{stderr}")
                continue
            shares.add(f"{result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}, "
              f"failed/attempted {sorted(shares)}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        rows = {}
        for name, values in per_metric.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"  {name:28s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")
        summary[workload] = rows
    print(json.dumps(summary))
    return 0 if ok else 1


def smoke(args) -> int:
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, stderr = _child(workload, args.seed, 1, trace, "tiny")
            good = (
                code == 0
                and result is not None
                and result["correct"]
                and result["failed"] == 0
            )
            print(f"smoke {workload:8s} trace={trace}: {'ok' if good else 'FAILED'}")
            if not good:
                ok = False
                log(stderr)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="durable",
                        help=f"one of {', '.join(WORKLOADS)}; with --repeat also a "
                        "comma-separated list or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans", help="with --trace 1, write the raw spans here (JSON lines)")
    parser.add_argument("--repeat", type=int, default=0, help="run N seeds, one process each")
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke(args)
    if args.repeat:
        return repeat(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
