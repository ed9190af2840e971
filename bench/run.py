"""crossedprod benchmark: one workload, timed passes, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Each run is a fresh single-process, closed-loop client:
it sets up, then runs passes of the workload's operations until the passes
add up to ``--seconds`` and the workload's minimum pass count is reached.
``setup_s`` is the median over fresh probe processes started between passes.
Every operation's output is checked after its pass, outside the timed region.

Times are reported at a reference host speed: each operation's time and each
set-up probe's is scaled by the speed the host showed while it ran (see
speedmeter.py); the raw times are kept in the record.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run makes the workload's minimum number of passes
untraced, then the same passes again with every traced library function
wrapped (see tracing.py); the last line carries the per-layer metrics of the
traced passes.  Earlier lines print every
metric with its unit, for people.  A record with provenance, per-pass data
and failures is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speedmeter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Set-up probes run between passes, so that they sample the host's speed
# across the run rather than at one moment.
SETUP_PROBES = 7


def _import_program():
    """Import crossedprod from this checkout's src/, or explain why not."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH)]
    try:
        import crossedprod
        import workloads
        import tracing
    except ImportError as exc:
        sys.exit(f"bench: cannot import crossedprod from {src}: {exc}")
    if not Path(crossedprod.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"bench: crossedprod was imported from {crossedprod.__file__}, not {src}")
    return workloads, tracing


ALL_CPUS = os.sched_getaffinity(0)


def pin_to_one_cpu() -> int:
    """Run this process on one CPU; returns the CPU.

    Under the GIL a Python process computes on one CPU at a time anyway.  On a
    shared 2-CPU host, letting classify's two pool threads hand the GIL across
    CPUs made the wall time of one classify-witness pass vary from 19 to 30 s
    between runs (CPU time 16.3-18.0 s); on one CPU the wall time follows the
    CPU time.  The cost of that cross-CPU hand-off is therefore not measured.
    """
    cpu = max(ALL_CPUS)
    os.sched_setaffinity(0, {cpu})
    return cpu


def setup_probe(workload: str, seed: int) -> float:
    """Scaled time from launching a fresh interpreter to its 'ready' line."""
    before = speedmeter.loop_time()
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH / "ready.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True,
        # Probes start on every CPU even when the run itself is pinned.
        preexec_fn=lambda: os.sched_setaffinity(0, ALL_CPUS),
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"bench: set-up probe failed with exit code {proc.returncode}")
    return elapsed * 2.0 * speedmeter.REF_LOOP_S / (before + speedmeter.loop_time())


def run_pass(wl, ops) -> dict:
    """Time every operation of one pass; the outputs wait for check_pass.

    `wall_s`, `cpu_s` and `latencies_ms` are scaled (see speedmeter.py), the
    `raw_` times are as measured; a pass's time is the sum of its operations'.
    """
    meter = speedmeter.SpeedMeter()
    records, times = [], []
    for op in ops:
        try:
            result, *measured = meter.measure(lambda: wl.run(op))
            error = None
        except Exception:  # a raising operation is counted as failed, the run goes on
            result, error, measured = None, traceback.format_exc(limit=3), [0.0] * 4
        records.append((op, result, error))
        times.append(measured)
    wall, cpu, raw_wall, raw_cpu = (sum(col) for col in zip(*times))
    return {
        "wall_s": wall, "cpu_s": cpu, "raw_wall_s": raw_wall, "raw_cpu_s": raw_cpu, "ops": len(ops),
        "latencies_ms": [1000.0 * t[0] for t in times], "records": records,
    }


def check_pass(wl, p: dict) -> dict:
    """Check every output of a pass (untimed), count failures, drop the outputs."""
    failures, systems, pairs = [], 0, 0
    for (op, result, error) in p.pop("records"):
        if error is None:
            try:
                error = wl.check(op, result)
            except Exception:
                error = f"{op}: check raised\n{traceback.format_exc(limit=3)}"
        if error is not None:
            failures.append(error)
            continue
        s, n = wl.units(op, result)
        systems += s
        pairs += n
    p.update(failed=len(failures), failures=failures, systems=systems, pairs=pairs)
    return p


def tail(values: list[float], pct: float) -> tuple[float, int]:
    """Value at percentile `pct` and how many samples lie beyond it."""
    ordered = sorted(values)
    k = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[k], len(ordered) - 1 - k


def end_to_end(wl, passes: list[dict], setup_times: list[float]) -> tuple[dict, dict]:
    lat = [x for p in passes for x in p["latencies_ms"]]
    tail_ms, beyond = tail(lat, wl.tail_pct)
    if beyond < 10:
        sys.exit(f"bench: only {beyond} samples beyond p{wl.tail_pct}; raise min_passes")
    # Pass times and rates pool the run: passes that drew different inputs
    # average out, where a median would pick one draw.
    mean = lambda key: statistics.fmean(p[key] for p in passes)  # noqa: E731
    wall = sum(p["wall_s"] for p in passes)
    rate = lambda key: sum(p[key] for p in passes) / wall  # noqa: E731
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": mean("wall_s"),
        "cpu_s": mean("cpu_s"),
        "systems_per_s": rate("systems"),
        "pairs_per_s": rate("pairs"),
        "requests_per_s": rate("ops"),
        "request_p50_ms": statistics.median(lat),
        "request_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"tail_percentile": wl.tail_pct, "latency_samples": len(lat),
              "samples_beyond_tail": beyond, "setup_probes_s": setup_times,
              "raw_wall_s": mean("raw_wall_s"), "raw_cpu_s": mean("raw_cpu_s")}
    return metrics, detail


def per_layer(spec: dict, tracer, untraced: list[dict], traced: list[dict]) -> dict:
    """The per-layer metrics BENCHMARK.json names, from the traced passes.

    `<span>.self_s` is a span's total self time, `classify.enumerate_raw_systems.engine_s`
    the engine's (its visitor callbacks are child spans); every other name is
    an exact count kept by the tracer.
    """
    self_s, counts = tracer.self_times(), tracer.counts
    engine = self_s.get("classify.enumerate_raw_systems", 0.0)
    systems = counts.get("classify.enumerate_raw_systems.systems", 0)
    reps = counts.get("classify.iter_orbit_representatives.reps", 0)
    visited = counts.get("classify.iter_orbit_representatives.visited", 0)
    derived = {
        "classify.enumerate_raw_systems.engine_s": engine,
        "classify.enumerate_raw_systems.us_per_system": 1e6 * engine / systems if systems else 0.0,
        "classify.iter_orbit_representatives.reps_per_visited": reps / visited if visited else 0.0,
        "trace.overhead_ratio": sum(p["wall_s"] for p in traced) / sum(p["wall_s"] for p in untraced),
    }
    metrics = {}
    for name in (m["name"] for m in spec["per_layer"]):
        if name in derived:
            metrics[name] = derived[name]
        elif name.endswith(".self_s"):
            metrics[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            metrics[name] = counts.get(name, 0)
    return metrics


def provenance(seed: int, wl) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "cpu_model": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": sha, "src_sha256": src.hexdigest(),
        "seed": seed, "workers": getattr(wl, "workers", 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads, trace_mod = _import_program()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError as exc:
        sys.exit(f"bench: cannot read BENCHMARK.json: {exc}")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    cls = workloads.WORKLOADS[args.workload]
    cpu = pin_to_one_cpu() if cls.one_cpu else None
    setup_times = []
    wl = cls(args.seed)
    passes = []
    if args.trace:
        opsets = [wl.ops(k) for k in range(wl.min_passes)]
        untraced = [check_pass(wl, run_pass(wl, ops)) for ops in opsets]
        tracer = trace_mod.Tracer()
        tracer.install()
        try:
            traced = [run_pass(wl, ops) for ops in opsets]
        finally:
            tracer.uninstall()
        traced = [check_pass(wl, p) for p in traced]
        passes = untraced + traced
        metrics = per_layer(spec, tracer, untraced, traced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        detail = {
            "self_s": {f"{k}.self_s": v for k, v in sorted(tracer.self_times().items())},
            "counts": dict(sorted(tracer.counts.items())),
        }
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.npz")
    else:
        while len(passes) < wl.min_passes or sum(p["raw_wall_s"] for p in passes) < args.seconds:
            if len(setup_times) < SETUP_PROBES:
                setup_times.append(setup_probe(args.workload, args.seed))
            passes.append(check_pass(wl, run_pass(wl, wl.ops(len(passes)))))
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe(args.workload, args.seed))
        metrics, detail = end_to_end(wl, passes, setup_times)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for f in p["failures"][:5]:
            print(f"FAILED {f}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, {attempted} operations, error_rate {failed / attempted:.6f}")
    for name, value in metrics.items():
        print(f"  {name:58s} {value:>16.6f} {units[name]}")
    if args.trace:
        for name, value in detail["self_s"].items():
            print(f"  span {name:53s} {value:>16.6f} s")
    else:
        print(f"  request_tail_ms is p{detail['tail_percentile']:g} of {detail['latency_samples']} "
              f"samples ({detail['samples_beyond_tail']} beyond)")
        print(f"  times are scaled to the reference host speed; a pass took {detail['raw_wall_s']:.4f} s "
              f"unscaled, {metrics['wall_s']:.4f} s scaled")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": dict(provenance(args.seed, wl), pinned_cpu=cpu), "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": detail,
        "passes": passes,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
