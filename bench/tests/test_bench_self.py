"""Self-tests of the benchmark: seeded inputs, output checks, tracing and the
agreement of BENCHMARK.json with what run.py reports.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from curvepath import cli  # noqa: E402


def _inputs(workload: str, seed: int) -> bytes:
    rounds = [[[op.argv, op.units, op.probe] for op in wl.make_round(workload, seed, r)]
              for r in range(3)]
    return json.dumps(rounds).encode()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert _inputs(workload, 11) == _inputs(workload, 11)
    assert _inputs(workload, 11) != _inputs(workload, 12)
    rounds = [wl.make_round(workload, 11, r) for r in range(3)]
    assert rounds[0][0].argv != rounds[1][0].argv
    # every round has the same shape, so rounds are comparable
    assert len({tuple((op.argv[0], op.units, op.probe) for op in ops) for ops in rounds}) == 1


def _run_and_judge(op, corrupt=None, seen=None):
    """Run one op through the CLI, optionally corrupt its output, and return
    the tally of the judged call."""
    seen = {} if seen is None else seen
    code, stdout = wl.call(cli.main, op.argv)
    if corrupt is not None:
        stdout = corrupt(stdout)
    tally = wl.Tally()
    tally.add(wl.judge(op, code, stdout, seen)[0])
    return tally


def _edit_json(key, change):
    def corrupt(stdout):
        doc = json.loads(stdout)
        doc[key] = change(doc[key])
        return json.dumps(doc)
    return corrupt


def _find(ops, *words):
    return next(op for op in ops if all(w in op.argv for w in words))


def test_routes_checks_count_wrong_coefficients():
    ops = wl.make_round("routes", 3, 1)
    covariant = _find(ops, "ecp", "covariant")
    assert _run_and_judge(covariant).failed == 0
    wrong_b = _run_and_judge(covariant, _edit_json("B_coefficient", lambda b: b + 1e-3))
    assert (wrong_b.attempted, wrong_b.failed, wrong_b.fail_rate) == (1, 1, 1.0)

    sweep = _find(ops, "sweep", "sphere:2")
    assert _run_and_judge(sweep).failed == 0

    def wrong_row(stdout):
        lines = stdout.splitlines()
        cells = lines[1].split(",")
        cells[-2] = repr(float(cells[-2]) + 1e-3)
        lines[1] = ",".join(cells)
        return "\n".join(lines)
    assert _run_and_judge(sweep, wrong_row).failed == 1

    seen: dict = {}
    geometry = next(op for op in ops if op.argv[0] == "geometry")
    no_fp = _find(ops, "--no-fp")
    assert _run_and_judge(geometry, seen=seen).failed == 0
    assert _run_and_judge(no_fp, seen=seen).failed == 0
    assert _run_and_judge(no_fp, _edit_json("noncovariant_defect", lambda d: d * 1.01),
                          seen=seen).failed == 1


def test_quadrature_check_counts_a_wrong_z():
    for op in (op for op in wl.make_round("quadrature", 3, 1) if op.probe):
        assert _run_and_judge(op).failed == 0
        assert _run_and_judge(op, _edit_json("Z", lambda z: z * (1 + 1e-4))).failed == 1


def test_montecarlo_check_counts_an_off_target_mean():
    op = next(op for op in wl.make_round("montecarlo", 3, 1) if op.probe)
    assert _run_and_judge(op).failed == 0
    assert _run_and_judge(op, _edit_json("mean", lambda m: m + 0.01)).failed == 1
    assert _run_and_judge(op, _edit_json("n_samples", lambda n: n - 1)).failed == 1


def test_exit_code_and_garbage_count_as_failures():
    op = next(op for op in wl.make_round("quadrature", 3, 1) if op.probe)
    tally = wl.Tally()
    tally.add(wl.judge(op, 1, '{"error": "MetricError", "message": "x"}', {})[0])
    tally.add(wl.judge(op, 0, '{"Z": 1', {})[0])
    tally.add(wl.judge(op, 0, "", {})[0])
    assert (tally.attempted, tally.failed) == (3, 3)
    # a usage error exits through SystemExit and is caught as exit code 2
    assert wl.call(cli.main, ["sweep", "--points", "-0.1,0"])[0] == 2


def test_tracer_records_pool_spans_and_restores_the_package():
    from curvepath import ecp, geometry
    original = geometry.point_geometry
    op = _find(wl.make_round("routes", 3, 1), "sweep", "sphere:2")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ecp.point_geometry is not original
        code, _ = wl.call(cli.main, op.argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert geometry.point_geometry is original and ecp.point_geometry is original
    metrics = tracer.layer_metrics(rounds=1)
    assert metrics["cli.main.calls"] == 1
    assert metrics["geometry.point_geometry.calls"] == 2 * wl.SWEEP_POINTS
    assert metrics["expressions.evaluate.calls"] > 0
    assert metrics["montecarlo.mc_boltzmann.calls"] == 0
    # pool-thread spans hang under the CLI call, so its self time stays small
    root = next(s for s in tracer.spans if s[3] == "cli.main")
    assert all(s[1] is not None for s in tracer.spans if s[0] != root[0])
    assert 0 <= metrics["cli.self_s"] < metrics["cli.main.busy_s"]
    assert tracer.absent == []
    assert set(metrics) | {"trace.round_s", "trace.overhead_s"} == set(run.per_layer_units())


def test_union_length_counts_overlaps_once():
    assert tracing._union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tracing._union_length([(-1, 2)], 0, 1) == 1


def test_host_speed_slices_take_their_share():
    host = hostspeed.HostSpeed()
    host.keep_up(0.2)
    assert host.slices >= 1 and host.wall >= hostspeed.SHARE * 0.2
    slices = host.slices
    host.keep_up(0.0)
    assert host.slices == slices
    assert host.wall_scale > 0 and host.cpu_scale > 0


def test_timings_are_scaled_to_the_reference_host_speed():
    host = hostspeed.HostSpeed()
    # slices took twice the reference in wall time and half of it in CPU time
    host.slices, host.wall, host.cpu = 4, 8 * hostspeed.REFERENCE_S, 2 * hostspeed.REFERENCE_S
    rounds = [run.Round(wall=2.0, cpu=1.0, units=100, probe_walls=[0.01, 0.03], bulk=[])
              for _ in range(3)]
    metrics, extra = run.end_to_end("quadrature", rounds, 0.2, host)
    assert metrics["work_per_s"] == pytest.approx(100.0)
    assert metrics["call_ms"] == pytest.approx(10.0)
    assert metrics["cpu_s"] == pytest.approx(2.0)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert extra["measured.work_per_s"][0] == pytest.approx(50.0)
    assert set(metrics) == set(run.END_TO_END)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert spec["paths"] == [BENCH.name]

