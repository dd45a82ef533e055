"""curvepath benchmark: seeded CLI workloads, checked outputs, medians.

    python3 bench/run.py --workload routes --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 0

The benchmark drives ``curvepath.cli.main(argv)`` in-process, one call after
another (a closed loop with one client), from the ``src`` tree next to this
directory. It runs rounds of a workload (see workloads.py) until ``--seconds``
have passed, checks every call's output, and prints a summary followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured without tracing.
--trace 1 alternates untraced and traced rounds on the same inputs, reports
the per-layer metrics per traced round plus the tracing overhead, and writes
the spans to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import hostspeed
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# name -> (unit, better)
END_TO_END = {
    "work_per_s": ("1/s", "higher"),
    "call_ms": ("ms", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SETUP_REPEATS = 11
WARMUP_S = 1.0
SETUP_CODE = ("import sys, time\n"
              "t0 = time.perf_counter()\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import curvepath.cli\n"
              "curvepath.cli.build_parser()\n"
              "print(time.perf_counter() - t0)\n")


def per_layer_units() -> dict[str, tuple[str, str]]:
    units = {}
    for name, _, _ in tracing.SPAN_TARGETS:
        units[f"{name}.calls"] = ("calls/round", "lower")
        units[f"{name}.busy_s"] = ("s/round", "lower")
    for name, _, _ in tracing.COUNT_TARGETS:
        units[name] = ("calls/round", "lower")
    units["montecarlo.samples"] = ("samples/round", "higher")
    units["montecarlo.batches"] = ("batches/round", "lower")
    units["montecarlo.grid_bytes"] = ("B/round-computed", "lower")
    for name in tracing.SELF_TIMES:
        units[name] = ("s/round", "lower")
    units["trace.round_s"] = ("s/round", "lower")
    units["trace.overhead_s"] = ("s/round", "lower")
    return units


def machine_facts(seed: int) -> dict:
    git_hash = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            git_hash = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_hash = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "git_head": git_hash, "seed": seed}


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, where available."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def measure_setup_once() -> float:
    """Time to import curvepath.cli and build its parser in a fresh
    interpreter; interpreter start-up itself is not included."""
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class Round:
    """Wall time, CPU time, work units and call results of one round."""
    wall: float
    cpu: float
    units: int
    probe_walls: list[float]
    bulk: list[tuple[float, dict]]      # (wall, check facts) of the bulk calls


def run_round(ops, tally, host: hostspeed.HostSpeed | None = None) -> Round:
    """Run and check one round's calls. With ``host``, reference slices run
    between the calls; the round's wall and CPU time leave them out."""
    from curvepath import cli
    seen: dict = {}
    probe_walls, bulk = [], []
    round_wall = round_cpu = 0.0
    for op in ops:
        cpu0 = time.process_time()
        c0 = time.perf_counter()
        # cli.main is looked up at each call, so a tracer's wrapper is used
        code, stdout = wl.call(cli.main, op.argv)
        wall = time.perf_counter() - c0
        ok, facts, reason = wl.judge(op, code, stdout, seen)
        round_wall += time.perf_counter() - c0
        round_cpu += time.process_time() - cpu0
        tally.add(ok)
        if not ok:
            print(f"FAILED: {' '.join(op.argv)[:160]}: {reason}", file=sys.stderr)
        if op.probe:
            probe_walls.append(wall)
        else:
            bulk.append((wall, facts))
        if host is not None:
            host.keep_up(time.perf_counter() - c0)
    return Round(wall=round_wall, cpu=round_cpu, units=sum(op.units for op in ops),
                 probe_walls=probe_walls, bulk=bulk)


def run_rounds(workload: str, seed: int, seconds: float, tally, traced_with=None,
               setup_times=None, host=None):
    """Warm up on the probe calls for WARMUP_S, then run rounds until
    ``seconds`` pass.

    Returns (untraced rounds, traced rounds). With a tracer, each round's
    inputs run untraced and then traced. With a ``setup_times`` list, set-up
    is measured SETUP_REPEATS times, spread evenly over the run between
    rounds, so that the median does not hang on one moment's machine load.
    With a HostSpeed ``host``, the untraced rounds interleave its slices.
    """
    warm = [op for op in wl.make_round(workload, seed, 0) if op.probe]
    warm_start = time.perf_counter()
    while True:
        run_round(warm, tally)
        if time.perf_counter() - warm_start >= WARMUP_S:
            break
    hostspeed.reference()       # its first call, untimed, like the probes'
    plain, traced = [], []
    start = time.perf_counter()
    index = 1
    while not plain or time.perf_counter() - start < seconds:
        if setup_times is not None and len(setup_times) < SETUP_REPEATS and \
                time.perf_counter() - start >= len(setup_times) * seconds / SETUP_REPEATS:
            setup_times.append(measure_setup_once())
        ops = wl.make_round(workload, seed, index)
        plain.append(run_round(ops, tally, host))
        if traced_with is not None:
            traced_with.install()
            try:
                traced.append(run_round(ops, tally))
            finally:
                traced_with.uninstall()
        index += 1
    while setup_times is not None and len(setup_times) < SETUP_REPEATS:
        setup_times.append(measure_setup_once())
    return plain, traced


def end_to_end(workload: str, plain: list[Round], setup_s: float,
               host: hostspeed.HostSpeed) -> tuple[dict, dict]:
    """Gated metrics and the figures shown beside them, among them the
    timings as measured. The medians over rounds are scaled to the reference
    host speed by the run's slices; set-up time, measured in other
    processes, is not scaled."""
    measured = {
        "work_per_s": statistics.median(r.units / r.wall for r in plain),
        # each probe call's median over rounds, then the mean over the round's
        # probes: robust to a spike in any one call
        "call_ms": 1e3 * statistics.fmean(statistics.median(walls)
                                          for walls in zip(*(r.probe_walls for r in plain))),
        "cpu_s": statistics.median(r.cpu for r in plain),
    }
    metrics = {
        "work_per_s": measured["work_per_s"] / host.wall_scale,
        "call_ms": measured["call_ms"] * host.wall_scale,
        "cpu_s": measured["cpu_s"] * host.cpu_scale,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {f"{wl.WORK_UNIT[workload]}_per_s": (metrics["work_per_s"], "1/s"),
             **{f"measured.{name}": (value, END_TO_END[name][0])
                for name, value in measured.items()},
             "host.wall_scale": (host.wall_scale, "factor"),
             "host.cpu_scale": (host.cpu_scale, "factor"),
             "host.slices": (host.slices, "count"),
             "host.slice_ms": (1e3 * host.wall / host.slices, "ms"),
             "rounds": (len(plain), "count")}
    if workload == "montecarlo":
        # seconds each round's bulk calls would need to reach stderr 1e-4
        extra["time_to_se_s"] = (statistics.median(
            sum(wall * (facts["stderr"] / wl.STDERR_TARGET) ** 2
                for wall, facts in r.bulk if "stderr" in facts)
            for r in plain), "s")
    return metrics, extra


def run_one(args) -> int:
    if not (SRC / "curvepath" / "__init__.py").is_file():
        print(f"error: no curvepath package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    os.environ.pop("CURVEPATH_THREADS", None)
    import curvepath
    if Path(curvepath.__file__).resolve().parent != SRC / "curvepath":
        print(f"error: imported curvepath from {curvepath.__file__}", file=sys.stderr)
        return 1

    facts = machine_facts(args.seed)
    tally = wl.Tally()
    ticks0 = cpu_ticks()
    if args.trace:
        tracer = tracing.Tracer()
        plain, traced = run_rounds(args.workload, args.seed, args.seconds, tally, tracer)
        metrics = tracer.layer_metrics(len(traced))
        traced_wall = statistics.median(r.wall for r in traced)
        metrics["trace.round_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(r.wall for r in plain)
        units = per_layer_units()
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(dump, dict(facts, workload=args.workload, rounds=len(traced)))
        extra = {"traced_rounds": (len(traced), "count"), "absent": (tracer.absent, "names"),
                 "trace_file": (str(dump.relative_to(ROOT)), "path")}
        for name in ("geometry.point_geometry", "wick.expect_second_order_connected",
                     "montecarlo.vertex_action", "montecarlo.fft", "montecarlo.draw"):
            extra[f"share.{name}"] = (metrics[f"{name}.busy_s"] / traced_wall, "fraction")
    else:
        setup_times: list[float] = []
        host = hostspeed.HostSpeed()
        plain, _ = run_rounds(args.workload, args.seed, args.seconds, tally,
                              setup_times=setup_times, host=host)
        metrics, extra = end_to_end(args.workload, plain, statistics.median(setup_times), host)
        units = END_TO_END
    extra["fail_rate"] = (tally.fail_rate, f"{tally.failed}/{tally.attempted}")
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # share of the machine's CPU time the hypervisor gave to other guests
        extra["steal_share"] = ((ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]), "fraction")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} facts={json.dumps(facts)}")
    for name, value in metrics.items():
        print(f"{args.workload:>10}  {name:<42} {value:.6g} {units[name][0]}")
    for name, (value, unit) in extra.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{args.workload:>10}  {name:<42} {shown} {unit}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": units[name][0]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload != "all":
        return run_one(args)
    worst = 0
    for name in wl.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
