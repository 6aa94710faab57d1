"""Benchmark of the ordercdf pipeline.

    python3 perfbench/run.py --workload {sample,query,verify,all} --seed N \
        --seconds S --trace {0,1}

Runs one workload as a closed loop with one client in one thread: each op
starts when the previous one and its checks are done.  Only the op itself
is timed; its answers are checked right after, outside the timer.  The
run ends on a whole turn of the workload's mix once ``--seconds`` of op
time and at least ``MIN_OPS`` ops are in.

``--trace 0`` prints the end-to-end metrics: setup time, peak memory, and
throughput and latency both in wall time and in calibrated time (see
``calibrate``); the calibrated ones are the bounded metrics, because wall
time on a shared host moves with the other tenants.  ``--trace 1`` runs every op
twice, once plain and once with a span around each library call, and
prints the per-layer metrics, the tracing overhead and a scaling sweep.
The last line of stdout is one JSON object; the lines before it are a
human-readable summary.  Failure rows, sample digests and spans go to
``perfbench/out/``.  ``--workload all`` runs each workload in its own
process and prints the summaries only.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOADS = ("sample", "query", "verify")
E2E_UNITS = {"setup_s": "s", "cal_ops_per_s": "ops/s", "cal_op_p50_ms": "ms",
             "cal_op_p90_ms": "ms", "peak_rss_mb": "MB"}
WALL_UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s"}
#: p90 needs ten samples above it.
MIN_OPS = 100
#: Setup is measured this many times per run (this process and fresh ones).
SETUP_REPEATS = 7
#: Stop adding ops after this much wall time, so a slow machine still ends in time.
WALL_CAP_S = {0: 110.0, 1: 70.0}


def _load_library():
    """Import ordercdf from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import ordercdf
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ordercdf from {src}: {exc}")
    if Path(ordercdf.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: ordercdf was imported from {ordercdf.__file__}, not {src}")


def op_seed(seed: int, i: int) -> int:
    return (seed * 1_000_003 + i) % 2**32


def _environment():
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu, "nproc": os.cpu_count()}


def _setup_in_fresh_process(args):
    """(wall s, calibrated s) of the same setup in a new interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    wall, cal = done.stdout.split()[-2:]
    return float(wall), float(cal)


def _loop(args, pool, traced, record):
    """The timed closed loop: plain op times (ns), traced op times (ns), calibrated
    op times (ms, untraced runs only) and per-op counters.

    With a tracer, every op runs twice, plain and traced, alternating which goes
    first, and each traced op records its wall-to-calibrated factor.
    """
    from perfbench import checks, inputs, ops
    from perfbench.calibrate import factor, loop_ms
    from perfbench.tracing import Tracer

    cycle = inputs.cycle_length(args.workload, pool)
    min_ops = cycle if traced else max(MIN_OPS, cycle)
    plain = Tracer(enabled=False)
    times, traced_times, calibrated, info, refs, probed = [], [], [], [], {}, {}
    k_before = None if traced else loop_ms()
    spent_ns = 0
    wall0 = time.perf_counter()
    i = 0
    while True:
        idx = i % len(pool)
        item, seed_i = pool[idx], op_seed(args.seed, i)
        order = (False, True) if i % 2 == 0 else (True, False)
        for with_trace in order if traced else (False,):
            if with_trace:
                traced.op = i
                k0 = loop_ms()
                with traced.span("bench.op") as root:
                    out = traced_out = ops.run_op(args.workload, item, seed_i, traced)
                traced_times.append(root.ns)
                scale = factor(k0, loop_ms())
            else:
                t0 = time.perf_counter_ns()
                out = ops.run_op(args.workload, item, seed_i, plain)
                times.append(time.perf_counter_ns() - t0)
                if not traced:
                    k_after = loop_ms()
                    calibrated.append(times[-1] / 1e6 * factor(k_before, k_after))
                    k_before = k_after
            spent_ns += (traced_times if with_trace else times)[-1]
        if traced:
            out = traced_out
        if idx not in refs:
            refs[idx] = checks.Reference(item)
        found = checks.check(args.workload, item, out, refs[idx])
        if args.workload == "query":
            defect = checks.known_defect(args.workload, item, out, refs[idx])
        else:
            if idx not in probed:
                probed[idx] = checks.known_defect(args.workload, item, out, refs[idx])
            defect = probed[idx]
        rows = out.get("rows", ())
        info.append({"k": item.k_tag, "scale": scale if traced else None,
                     "pieces": out.get("pieces"), "g_calls": out.get("g_calls"),
                     "rows_completed": len(rows),
                     "rows_failed": sum(r["status"] == "fail" for r in rows),
                     "op_raised": any(call == "op" for call, _, _ in out["errors"]),
                     "known_defect": bool(defect)})
        if found:
            record["failures"].append({
                "workload": args.workload, "op": i, "measure": item.name, "kind": item.kind,
                "pieces": item.pieces, "seed": args.seed, "op_seed": seed_i,
                "check": [name for name, _ in found],
                "exception": next((repr(exc) for _, _, exc in out["errors"]), None),
                "detail": found[0][1]})
            record["failed_measures"][item.name] = item.config
        if defect:
            probe = item.probe or item
            record["known_defects"].append({
                "workload": args.workload, "op": i, "measure": probe.name, "kind": probe.kind,
                "pieces": probe.pieces, "seed": args.seed, "op_seed": seed_i,
                "check": [name for name, _ in defect], "detail": defect[0][1],
                "config": probe.config})
        if "text" in out:
            record["sample_sha256"].append(hashlib.sha256(out["text"].encode()).hexdigest())
        i += 1
        if i % cycle == 0 and i >= min_ops and spent_ns >= args.seconds * 1e9:
            break
        if time.perf_counter() - wall0 > WALL_CAP_S[args.trace] and i >= cycle:
            break
    return times, traced_times, calibrated, info


def _latency_metrics(ms):
    """(ops per second, p50 ms, p90 ms) of a closed loop's op times in ms."""
    return (len(ms) / (sum(ms) / 1e3), statistics.median(ms),
            statistics.quantiles(ms, n=10, method="inclusive")[8])


def run(args):
    _load_library()
    from perfbench import inputs, ops
    from perfbench.calibrate import K_REF_MS, loop_ms
    from perfbench.tracing import Tracer

    pool = inputs.POOLS[args.workload](args.seed)
    ops.run_op(args.workload, pool[0], op_seed(args.seed, 0), Tracer())  # warm-up
    setup_wall = time.perf_counter() - _T0
    setup_here = (setup_wall,
                  setup_wall * K_REF_MS / statistics.median(loop_ms() for _ in range(3)))
    if args.setup_only:
        print(*map(repr, setup_here))
        return 0

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": _environment(), "failures": [], "failed_measures": {},
              "known_defects": [], "sample_sha256": []}
    traced = Tracer(enabled=True) if args.trace else None
    times, traced_times, calibrated, info = _loop(args, pool, traced, record)
    attempted, failed = len(info), len(record["failures"])
    OUT_DIR.mkdir(exist_ok=True)
    wall = {}
    if traced:
        from perfbench import layers
        metrics, extra = layers.per_layer(traced, info, sum(traced_times) / sum(times), args.seed)
        record.update(extra)
        traced.write(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        setups = [setup_here] + [_setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]
        record["setup_samples_s"] = [{"wall": w, "calibrated": c} for w, c in setups]
        cal = _latency_metrics(calibrated)
        wall = dict(zip(("ops_per_s", "op_p50_ms", "op_p90_ms"),
                        _latency_metrics([t / 1e6 for t in times])),
                    setup_s=statistics.median(w for w, _ in setups))
        values = {
            "setup_s": statistics.median(c for _, c in setups),
            "cal_ops_per_s": cal[0], "cal_op_p50_ms": cal[1], "cal_op_p90_ms": cal[2],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
        record["wall_metrics"] = {k: {"value": v, "unit": WALL_UNITS[k]} for k, v in wall.items()}
    record.update(attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=repr)

    summary = [f"{args.workload}: ops={attempted} failed={failed} "
               f"fail_ratio={failed / attempted:.4f} (1)"]
    n_defect = sum(row["known_defect"] for row in info)
    if args.workload != "sample":
        summary.append(f"  known defect (ROADMAP item 2, probed outside the timer, not a failure): "
                       f"{n_defect} of {attempted} ops")
    summary += [f"  {k} = {v:.6g} {WALL_UNITS[k]} (wall clock)" for k, v in wall.items()]
    summary += [f"  {k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    summary += [f"  outside ROADMAP baseline ±30%: {row['span']} k={row['k']} "
                f"{row['measured']:.4g} {row['unit']} vs {row['baseline']} {row['unit']}"
                for row in record.get("scale_outside_baseline", ())]
    summary += [f"  failed op {row['op']} ({row['measure']}): {', '.join(row['check'])}"
                for row in record["failures"][:5]]
    print("\n".join(summary))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args):
    """Each workload in its own process (setup and peak memory are per process)."""
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        print("\n".join(done.stdout.splitlines()[:-1]))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
