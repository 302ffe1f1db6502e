"""The repository benchmark: one run of one workload.

    python3 ladder/run.py --workload mesh-refine --seed 1 --seconds 10 --trace 0

Run from the repository root (the program is imported from ``src/``).
Prints a table of every metric with its sample count, the output
checks and the run's label/pivot digest, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the workload runs twice, untraced and then traced, and the metrics are
the per-layer ones (plus ``trace.overhead``, the traced/untraced ratio
of the workload's main latency).  Exits non-zero when a check fails or
the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
# One BLAS thread in this process and every process it starts (set
# before numpy loads): the LP bases are small, and on a 2-core machine
# an idle-spinning BLAS pool competing with the caller several times
# widened the run-to-run spread of every timing.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import spans  # noqa: E402
from record import END_TO_END_UNITS, SETUP_REPEATS, Run  # noqa: E402


def _run_once(name: str, seed: int, seconds: float, scale, work: Path, traced: bool) -> Run:
    from repro.obs import configure, get_tracer
    from workloads import WORKLOADS, Ctx

    tracer = get_tracer()
    work.mkdir(parents=True)
    sink = work / "bench.jsonl"
    configure(enabled=traced, sink=str(sink) if traced else "")
    first_seq = tracer.spans_since(0)[0] if traced else 0
    run = Run(workload=name, seed=seed, tracer=tracer)
    ctx = Ctx(seed=seed, seconds=seconds, scale=scale, work=work, traced=traced)
    try:
        WORKLOADS[name](run, ctx)
    # A crashed workload is a failed run, reported like any other.
    except Exception:
        traceback.print_exc()
        run.check("workload completed", False)
    finally:
        last_seq = tracer.spans_since(0)[0] if traced else 0
        configure(enabled=False, sink="")
    if traced and run.correct:
        try:
            _attribute(run, sink, last_seq - first_seq)
        except spans.SpanLossError as exc:
            run.check(str(exc), False)
    return run


def _attribute(run: Run, sink: Path, expected: int) -> None:
    """Fold the traced run's spans into ``run.layer``; fail the run if
    any process dropped a span."""
    rows = spans.read_sink(sink) if sink.exists() else []
    run.check("benchmark process recorded every span", len(rows) == expected)
    gateway_rows = []
    for proc in run.gateways:
        got = spans.read_sink(proc.sink) if proc.sink.exists() else []
        requests = sum(row["name"] == "http.request" for row in got)
        run.check(f"gateway {proc.index} recorded a span for every request",
                  requests == proc.requests and (not got or got[0]["seq"] == 1))
        # The served gateway counts in full; of the others only what
        # they exist for: set-up (create) and recovery (open, replay
        # excluded so replayed flushes are not counted twice).
        if proc.index != SETUP_REPEATS - 1:
            keep = "service.create" if proc.index < SETUP_REPEATS else "service.open"
            got = [row for row in got if row["name"] == keep]
        gateway_rows += got
    span_set = spans.SpanSet(rows + gateway_rows)
    extra = dict(run.layer_extra)
    if run.gateways:
        # The single writer's pushes, matched in order to the requests
        # of the gateway that served them.
        served = run.gateways[SETUP_REPEATS - 1]
        posts = sorted(
            (r for r in span_set.by_name["http.request"]
             if r["pid"] == served.proc.pid
             and r.get("attrs", {}).get("path", "").endswith("/deltas")),
            key=lambda r: r["start_us"],
        )
        pushes = sorted(span_set.by_name["bench.push"], key=lambda r: r["start_us"])
        run.check("every push has a matching http.request span", len(posts) == len(pushes))
        gaps = [(c["dur_us"] - s["dur_us"]) / 1e3 for c, s in zip(pushes, posts)]
        extra["gateway.client_gap_ms_p50"] = spans.pct(gaps, 50)
    run.layer = spans.per_layer(span_set, extra)


def _print_run(run: Run, label: str) -> None:
    print(f"== {run.workload} seed={run.seed} ({label}) digest={run.digest}")
    for name, value in run.values.items():
        unit = END_TO_END_UNITS.get(name, "")
        print(f"  {name:<16} {value:>14.4f} {unit:<6} n={run.counts.get(name, 1)}")
    for name, ok in run.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    for note in run.notes:
        print(f"  note  {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("mesh-refine", "gateway-churn", "sharded-spill"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input size; 'tiny' is the self-test's")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ladder: the program is missing (no {SRC.name}/repro next to "
              f"{HERE.name}/); run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import MAIN_LATENCY, SCALES

    scale = SCALES[args.scale]
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        plain = _run_once(args.workload, args.seed, args.seconds, scale,
                          work / "plain", traced=False)
        _print_run(plain, "untraced")
        runs = [plain]
        if args.trace:
            traced = _run_once(args.workload, args.seed, args.seconds, scale,
                               work / "traced", traced=True)
            _print_run(traced, "traced")
            runs.append(traced)
            main_metric = MAIN_LATENCY[args.workload]
            if traced.correct:
                base = plain.values.get(main_metric, 0.0)
                traced.layer["trace.overhead"] = (
                    traced.values[main_metric] / base if base else 0.0
                )
                for name, value in traced.layer.items():
                    print(f"  {name:<28} {value:>14.4f} {spans.PER_LAYER_UNITS[name]}")
            metrics = {
                name: {"value": traced.layer.get(name, 0.0) if traced.correct else 0.0,
                       "unit": unit}
                for name, unit in spans.PER_LAYER_UNITS.items()
            }
        else:
            metrics = {
                name: {"value": plain.values.get(name, 0.0), "unit": unit}
                for name, unit in END_TO_END_UNITS.items()
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = all(r.correct for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
