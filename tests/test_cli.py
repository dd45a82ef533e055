import contextlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curvepath import cli, geometry
from curvepath.geometry import vector_divergence


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def load_schema(name):
    text = resources.files("curvepath.schemas").joinpath(name).read_text()
    return json.loads(text)


def test_geometry_output_validates(capsys):
    code, out = run_cli(capsys, ["geometry", "--builtin", "sphere:2",
                                 "--point", "0.3,0.2"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("geometry.v1.schema.json"))
    assert doc["R"] == pytest.approx(2.0, abs=1e-9)
    assert doc["config"]["builtin"] == "sphere:2"


def test_propagator_output_validates(capsys):
    code, out = run_cli(capsys, ["propagator", "--beta", "1.0", "--M", "50",
                                 "--tau", "0.25"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("propagator.v1.schema.json"))
    assert doc["green0"]["constant"] == pytest.approx(1.0 / 12.0)


@pytest.mark.parametrize("argv,key,value", [
    (["ecp", "--route", "sphere", "--D", "2", "--beta", "0.1"],
     "B_coefficient", 1.0 / 12.0),
    (["ecp", "--route", "covariant", "--builtin", "sphere:2",
      "--point", "0.3,0.0", "--beta", "0.1"], "B_coefficient", 1.0 / 12.0),
    (["ecp", "--route", "eta", "--builtin", "sphere:2",
      "--point", "0.3,0.0", "--beta", "0.1", "--M", "128"],
     "B_coefficient", 1.0 / 12.0),
])
def test_ecp_outputs_validate(capsys, argv, key, value):
    code, out = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("expansion_report.v1.schema.json"))
    assert doc[key] == pytest.approx(value, rel=1e-9)


def test_ecp_no_fp_reports_defect(capsys):
    code, out = run_cli(capsys, ["ecp", "--route", "eta", "--builtin", "sphere:2",
                                 "--point", "0.3,0", "--beta", "0.1", "--no-fp"])
    assert code == 0
    doc = json.loads(out)
    gcode, gout = run_cli(capsys, ["geometry", "--builtin", "sphere:2",
                                   "--point", "0.3,0"])
    trace_T = json.loads(gout)["trace_T"]
    assert doc["noncovariant_defect"] == pytest.approx(trace_T / 24, rel=1e-9)


def test_mc_output_validates_and_is_deterministic(capsys):
    argv = ["mc", "--route", "sphere", "--D", "2", "--beta", "0.1", "--M", "8",
            "--samples", "4000", "--seed", "7"]
    code1, out1 = run_cli(capsys, argv)
    code2, out2 = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for a fixed seed
    doc = json.loads(out1)
    jsonschema.validate(doc, load_schema("mc.v1.schema.json"))


def test_mc_csv_streams_partials(capsys):
    code, out = run_cli(capsys, ["mc", "--route", "sphere", "--D", "2",
                                 "--beta", "0.1", "--M", "4", "--samples", "9000",
                                 "--seed", "3", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,mean,stderr"
    assert len(lines) >= 2
    assert int(lines[-1].split(",")[0]) == 9000


def _mc_csv(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["mc", "--route", "sphere", "--D", "2", *argv, "--seed", "1", "--csv"])
    return code, out.getvalue(), err.getvalue()


def test_mc_csv_failure_leaves_stdout_csv_and_reports_on_stderr():
    """Once the header is written, a failure of the variance guard still exits
    1, but its JSON error document goes to stderr: stdout holds CSV only. A
    failure before the first row leaves the error document alone on stdout."""
    code, out, err = _mc_csv("--M", "64", "--beta", "5", "--samples", "5000")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "n,mean,stderr" and [line.split(",")[0] for line in lines[1:]] == [
        "4096", "5000"]
    assert all(len([float(x) for x in line.split(",")]) == 3 for line in lines[1:])
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and doc["message"].startswith("action variance")
    code, out, err = _mc_csv("--M", "4", "--beta", "1e-310", "--samples", "10")
    assert code == 1 and err == "" and "overflows" in json.loads(out)["message"]


def test_sweep_csv(capsys):
    code, out = run_cli(capsys, ["sweep", "--builtin", "sphere:2",
                                 "--points", "0.1,0;0.2,0.1", "--beta", "0.1",
                                 "--routes", "covariant,eta"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q1,q2,beta,route,B_coefficient,discrepancy"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[3] == "covariant"
    assert float(first[4]) == pytest.approx(1.0 / 12.0, rel=1e-9)


def test_sweep_skips_blank_points_between_semicolons(capsys):
    argv = ["sweep", "--builtin", "sphere:2", "--beta", "0.1", "--routes", "covariant"]
    plain = run_cli(capsys, argv + ["--points", "0.1,0;0.2,0.1"])
    assert plain[0] == 0
    assert run_cli(capsys, argv + ["--points", ";0.1,0;; ;0.2,0.1;"]) == plain


def test_partition_subcommand(capsys):
    code, out = run_cli(capsys, ["partition", "--builtin", "flat:2", "--beta", "0.3",
                                 "--bounds", "0:2;0:3", "--nodes", "8"])
    assert code == 0
    import math
    doc = json.loads(out)
    assert doc["Z"] == pytest.approx(6 / (2 * math.pi * 0.3), rel=1e-10)


@pytest.mark.parametrize("argv,calls", [
    (["partition", "--builtin", "sphere:2", "--beta", "0.1", "--nodes", "8"], 0),
    (["partition", "--builtin", "hyperbolic-ball:2", "--beta", "0.1",
      "--bounds=-0.5:0.5;-0.5:0.5", "--nodes", "8"], 0),
    (["sweep", "--builtin", "sphere:2", "--points", "0.1,0;0.2,0.1", "--beta", "0.1",
      "--routes", "covariant,eta"], 0),
    (["ecp", "--route", "covariant", "--builtin", "sphere:2", "--point", "0.3,0.1",
      "--beta", "0.1"], 0),
    (["ecp", "--route", "eta", "--builtin", "sphere:2", "--point", "0.3,0.1", "--beta", "0.1"], 0),
    (["ecp", "--route", "sphere", "--D", "3", "--beta", "0.1"], 0),
    (["mc", "--route", "covariant", "--builtin", "hyperbolic-ball:3", "--point=0.25,0.1,-0.2",
      "--beta", "0.1", "--M", "8", "--samples", "1024", "--seed", "1"], 0),
    (["geometry", "--builtin", "sphere:2", "--point", "0.3,0.1"], 1),
], ids=["partition-polar", "partition-box", "sweep", "ecp-covariant", "ecp-eta", "ecp-sphere",
        "mc", "geometry"])
def test_only_geometry_computes_V_and_divV(capsys, monkeypatch, argv, calls):
    """The bundle no longer carries V and divV; of the commands, only
    geometry computes them, once."""
    seen = []

    def recording(geom):
        seen.append(geom)
        return vector_divergence(geom)

    for module in (cli, geometry):
        monkeypatch.setattr(module, "vector_divergence", recording)
    code, _ = run_cli(capsys, argv)
    assert code == 0
    assert len(seen) == calls


@pytest.mark.parametrize("argv,kind", [
    (["partition", "--builtin", "flat:2", "--beta", "0.3", "--bounds", "0:2;0:3",
      "--nodes", "8"], "box"),
    (["partition", "--builtin", "hyperbolic-ball:2", "--beta", "0.1", "--polar", "0.5",
      "--nodes", "8"], "polar"),
    (["partition", "--builtin", "sphere:2", "--beta", "0.1", "--nodes", "8"], "sphere-polar"),
    (["partition", "--sphere-D", "3", "--beta", "0.1"], "sphere-route"),
    (["partition", "--sphere-D", "2", "--beta", "0.1", "--M", "8"], "sphere-route"),
])
def test_partition_output_validates(capsys, argv, kind):
    code, out = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("partition.v1.schema.json"))
    assert doc["kind"] == kind


def test_verify_subcommand(capsys):
    code, out = run_cli(capsys, ["verify", "routes"])
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_all(capsys):
    code, out = run_cli(capsys, ["verify", "all"])
    assert code == 0
    assert "[FAIL]" not in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ecp", "--route", "nonsense", "--beta", "0.1"])
    assert exc.value.code == 2


def test_numeric_failure_exit_code(capsys):
    code, out = run_cli(capsys, ["geometry", "--builtin", "sphere:2",
                                 "--point", "0.9,0.9"])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "DomainError"


def test_missing_point_fails_cleanly(capsys):
    code, out = run_cli(capsys, ["ecp", "--route", "covariant",
                                 "--builtin", "sphere:2", "--beta", "0.1"])
    assert code == 1
    assert "point" in json.loads(out)["message"]


def test_sphere_route_requires_dimension(capsys):
    code, out = run_cli(capsys, ["ecp", "--route", "sphere", "--beta", "0.1"])
    assert code == 1
    assert json.loads(out)["error"] == "RouteError"


def test_unknown_builtin_fails_cleanly(capsys):
    code, out = run_cli(capsys, ["geometry", "--builtin", "torus:2",
                                 "--point", "0,0"])
    assert code == 1
    assert json.loads(out)["error"] == "MetricError"


def test_metric_file_input(tmp_path, capsys):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({
        "name": "scaled-flat", "dim": 2, "coords": ["q1", "q2"],
        "params": {"a": 4.0},
        "g": [["a", "0"], [None, "a"]],
    }))
    code, out = run_cli(capsys, ["geometry", "--metric", str(path),
                                 "--point", "1.0,2.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["sqrt_g"] == pytest.approx(4.0)
    assert doc["R"] == pytest.approx(0.0, abs=1e-12)


ECP_COV = ["ecp", "--route", "covariant", "--builtin", "sphere:2", "--point=0.1,0"]
MC_SPHERE = ["mc", "--route", "sphere", "--D", "2", "--M", "8"]


@pytest.mark.parametrize("argv,code,needle", [
    (["ecp", "--route", "sphere", "--D", "2", "--beta", "nan"], 2, "--beta"),
    (["propagator", "--beta", "inf", "--M", "4"], 2, "--beta"),
    (["partition", "--sphere-D", "2", "--beta", "0"], 2, "--beta"),
    (["sweep", "--builtin", "sphere:2", "--points=0.1,0", "--beta=-0.1"], 2, "--beta"),
    (MC_SPHERE + ["--beta", "0.1", "--samples", "0"], 2, "--samples"),
    (["mc", "--route", "sphere", "--D", "2", "--beta", "0.1", "--M", "-1",
      "--samples", "8"], 2, "--M"),
    (["partition", "--builtin", "sphere:2", "--beta", "0.1", "--nodes", "0"], 2, "--nodes"),
    (["ecp", "--route", "sphere", "--D", "0", "--beta", "0.1"], 2, "--D"),
    (["partition", "--builtin", "hyperbolic-ball:2", "--beta", "0.1"], 2, "--bounds"),
    # B = 1 - R beta / 24 < 0 is outside the expansion: one error document, nothing half written
    (ECP_COV + ["--beta", "20"], 1, "ValueError"),
    (["propagator", "--beta", "1", "--M", "4", "--tau", "nan"], 2, "--tau"),
    (["propagator", "--beta", "1", "--M", "4", "--taup", "inf"], 2, "--taup"),
    (["partition", "--builtin", "hyperbolic-ball:2", "--beta", "0.1", "--polar", "nan"],
     2, "--polar"),
    (["partition", "--builtin", "flat:2", "--beta", "0.1", "--bounds=0:nan;0:1",
      "--nodes", "4"], 2, "--bounds"),
    (["partition", "--builtin", "flat:2", "--beta", "0.1", "--bounds=0:1;0:1:2"], 2, "--bounds"),
    (["partition", "--sphere-D", "0", "--beta", "0.1"], 2, "--sphere-D"),
    (["partition", "--sphere-D", "-1", "--beta", "0.1"], 2, "--sphere-D"),
    (["partition", "--builtin", "flat:2", "--beta", "0.1", "--bounds=1:0;0:1"], 2, "--bounds"),
    (["partition", "--builtin", "flat:2", "--beta", "0.1", "--bounds=0:1;0.5:0.5"], 2, "--bounds"),
    (["partition", "--builtin", "hyperbolic-ball:2", "--beta", "0.1", "--polar", "0"],
     2, "--polar"),
    (["partition", "--builtin", "hyperbolic-ball:2", "--beta", "0.1", "--polar=-0.5"],
     2, "--polar"),
    (["mc", "--route", "covariant", "--builtin", "sphere:2", "--point=0.1,0", "--D", "7",
      "--beta", "0.1", "--M", "8", "--samples", "16"], 2, "--D"),
    (ECP_COV + ["--beta", "0.1", "--D", "3"], 2, "--D"),
    (["ecp", "--route", "eta", "--builtin", "sphere:2", "--point=0.1,0", "--beta", "0.1",
      "--D", "2"], 2, "--D"),
    (ECP_COV + ["--beta", "0.1", "--no-fp"], 2, "--no-fp"),
    (ECP_COV + ["--beta", "0.1", "--mode-series"], 2, "--mode-series"),
    (["ecp", "--route", "sphere", "--D", "2", "--beta", "0.1", "--no-fp"], 2, "--no-fp"),
    (["ecp", "--route", "sphere", "--D", "2", "--beta", "0.1", "--mode-series"],
     2, "--mode-series"),
    (["sweep", "--builtin", "sphere:2", "--points=0.1,0", "--routes", "covariant,eta",
      "--beta", "0.1", "--no-fp"], 2, "--no-fp"),
    (["sweep", "--builtin", "sphere:2", "--points=0.1,0", "--beta", "0.1", "--no-fp"],
     2, "--no-fp"),
    # like ecp, the sphere route needs its dimension
    (["mc", "--route", "sphere", "--beta", "0.1", "--M", "8", "--samples", "16"],
     1, "RouteError"),
    # the sphere route runs at the sphere's origin, not on a chart
    (["ecp", "--route", "sphere", "--D", "2", "--beta", "0.1", "--builtin", "hyperbolic-ball:3"],
     2, "--builtin"),
    (["ecp", "--route", "sphere", "--D", "2", "--beta", "0.1", "--metric", "m.json"],
     2, "--metric"),
    (["ecp", "--route", "sphere", "--D", "2", "--beta", "0.1", "--params", "a=0.1"],
     2, "--params"),
    (["ecp", "--route", "sphere", "--D", "2", "--beta", "0.1", "--point=0.1,0"], 2, "--point"),
    (MC_SPHERE + ["--beta", "0.1", "--samples", "16", "--builtin", "sphere:2"], 2, "--builtin"),
    (MC_SPHERE + ["--beta", "0.1", "--samples", "16", "--metric", "m.json"], 2, "--metric"),
    (MC_SPHERE + ["--beta", "0.1", "--samples", "16", "--params", "a=0.1"], 2, "--params"),
    (MC_SPHERE + ["--beta", "0.1", "--samples", "16", "--point=0.1,0"], 2, "--point"),
    # --sphere-D is a closed form, not a quadrature
    (["partition", "--sphere-D", "2", "--beta", "0.1", "--builtin", "hyperbolic-ball:2"],
     2, "--builtin"),
    (["partition", "--sphere-D", "2", "--beta", "0.1", "--bounds=0:1;0:1"], 2, "--bounds"),
    (["partition", "--sphere-D", "2", "--beta", "0.1", "--polar", "0.5"], 2, "--polar"),
    (["partition", "--sphere-D", "2", "--beta", "0.1", "--nodes", "8"], 2, "--nodes"),
    # the cutoff feeds --sphere-D only, and no partition or sweep reads --point
    (["partition", "--builtin", "flat:2", "--bounds=0:1;0:1", "--beta", "0.1", "--M", "1000",
      "--nodes", "4"], 2, "--M"),
    (["partition", "--builtin", "sphere:2", "--beta", "0.1", "--M", "8"], 2, "--M"),
    (["partition", "--builtin", "flat:2", "--bounds=0:1;0:1", "--beta", "0.1", "--point=5,5",
      "--nodes", "4"], 2, "--point"),
    (["partition", "--sphere-D", "2", "--beta", "0.1", "--point=0.1,0"], 2, "--point"),
    (["sweep", "--builtin", "sphere:2", "--points=0.1,0", "--point=5,5", "--beta", "0.1"],
     2, "--point"),
    # a non-finite chart parameter is rejected where it enters, like a non-finite point
    (["ecp", "--route", "covariant", "--builtin", "conformal2d:2", "--params", "a=nan",
      "--point=0.1,0.2", "--beta", "0.1"], 1, "MetricError"),
    (["ecp", "--route", "covariant", "--builtin", "conformal2d:2", "--params", "a=inf",
      "--point=0.1,0.2", "--beta", "0.1"], 1, "MetricError"),
    (["verify", "bogus"], 2, "invalid choice: 'bogus'"),
    # an option name is not a negative value
    (["ecp", "--route", "covariant", "--builtin", "sphere:2", "--point", "--beta", "0.1"],
     2, "argument --point: expected one argument"),
    # a metric file is the whole chart: no builtin or builtin parameter is dropped silently
    (["geometry", "--metric", "m.json", "--builtin", "sphere:2", "--point=0.1,0"],
     2, "--builtin does not apply to a --metric chart"),
    (["geometry", "--metric", "m.json", "--params", "a=1", "--point=0.1,0"],
     2, "--params does not apply to a --metric chart"),
    (MC_SPHERE + ["--beta", "0.1", "--samples", "16", "--seed", "-1"], 2, "argument --seed"),
    # a parameter the builtin chart does not have
    (["geometry", "--builtin", "flat:2", "--params", "a=1", "--point=0.1,0"], 1, "MetricError"),
    (["geometry", "--builtin", "conformal2d:2", "--params", "z=1", "--point=0.1,0"],
     1, "MetricError"),
    # an int too large for a float once ended in an OverflowError traceback
    (["propagator", "--beta", "1", "--M", "9" * 400], 2,
     "argument --M: must be a finite int > 0, got '999"),
])
def test_bad_arguments_rejected(capsys, argv, code, needle):
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    if code == 2:
        assert captured.out == "" and needle in captured.err
    else:
        assert json.loads(captured.out)["error"] == needle


ECP = ["ecp", "--route", "covariant", "--beta", "0.1"]


@pytest.mark.parametrize("argv,error,message", [
    (ECP + ["--builtin", "sphere:2", "--point=a,b"], "MetricError", "cannot parse point 'a,b'"),
    (ECP + ["--builtin", "sphere:2", "--point=nan,0"],
     "MetricError", "point 'nan,0' is not finite"),
    # an empty coordinate once dropped, so these ran at (0.1, 0.2) and exited 0
    (["geometry", "--builtin", "sphere:2", "--point=0.1,,0.2"],
     "MetricError", "point '0.1,,0.2' has an empty coordinate"),
    (["geometry", "--builtin", "sphere:2", "--point=0.1,0.2,"],
     "MetricError", "point '0.1,0.2,' has an empty coordinate"),
    (["sweep", "--builtin", "sphere:2", "--points=0.1,0;0.2, ", "--beta", "0.1"],
     "MetricError", "point '0.2, ' has an empty coordinate"),
    (ECP + ["--builtin", "conformal2d:2", "--params", "a", "--point=0,0"],
     "MetricError", "cannot parse parameter assignment 'a'"),
    (ECP + ["--builtin", "sphere", "--point=0,0"],
     "MetricError", "--builtin needs the form name:D, e.g. sphere:2"),
    (["sweep", "--builtin", "sphere:2", "--points=0.1,0", "--routes", "sphere", "--beta", "0.1"],
     "RouteError", "sweep supports covariant and eta routes, not 'sphere'"),
    # this printed every row twice and exited 0
    (["sweep", "--builtin", "sphere:2", "--points=0.1,0", "--routes", "covariant,eta,covariant",
      "--beta", "0.1"], "RouteError", "route 'covariant' is given more than once"),
    (["sweep", "--builtin", "sphere:2", "--points=0.1,0;0.1,0,0", "--beta", "0.1"],
     "MetricError", "point [0.1, 0.0, 0.0] has wrong dimension, expected 2"),
    (ECP + ["--builtin", "conformal2d:3", "--point=0,0,0"],
     "MetricError", "conformal2d requires D = 2"),
    (ECP + ["--builtin", "conformal2d:2", "--params", "a=1,e=0.1, a=0.2", "--point=0.1,0"],
     "MetricError", "parameter 'a' is given more than once"),
    # these printed a bare CSV header and exited 0
    (["sweep", "--builtin", "sphere:2", "--points", ";", "--beta", "0.1"],
     "MetricError", "--points ';' names no point"),
    (["sweep", "--builtin", "sphere:2", "--points", "", "--beta", "0.1"],
     "MetricError", "--points '' names no point"),
    # these ended as int()'s own ValueError
    (["geometry", "--builtin", "sphere:x", "--point=0.1,0.2"],
     "MetricError", "--builtin needs the form name:D, e.g. sphere:2"),
    (["geometry", "--builtin", "sphere:2.0", "--point=0.1,0.2"],
     "MetricError", "--builtin needs the form name:D, e.g. sphere:2"),
], ids=["point-text", "point-nan", "point-empty-inner", "point-empty-last",
        "sweep-point-empty", "params-text", "builtin-no-dim", "sweep-route", "sweep-route-repeated",
        "sweep-point-dim", "conformal2d-dim", "params-repeated", "sweep-no-point",
        "sweep-empty-points", "builtin-dim-text", "builtin-dim-float"])
def test_input_errors_end_as_one_json_error_document(capsys, argv, error, message):
    code, out = run_cli(capsys, argv)
    assert code == 1
    assert json.loads(out) == {"error": error, "message": message}


def _chart(**fields):
    """A valid two-dimensional metric file with the given fields replaced."""
    return json.dumps({"dim": 2, "coords": ["x", "y"], "g": [["1 + x^2", "0"], [None, "1"]],
                       **fields})


@pytest.mark.parametrize("text,error,message", [
    # at one time a TypeError traceback, then two charts that ran with the wrong metric
    (_chart(dim=True, coords=["x"], g=[["1"]]),
     "MetricError", "'dim' must be a positive integer, got True"),
    (_chart(coords=["x", "x"]), "MetricError", "coordinate names must be distinct, got ['x', 'x']"),
    (_chart(coords=["a", "y"], params={"a": 0.5}),
     "MetricError", "coordinate name(s) ['a'] are also parameter names"),
    ('{"dim": 2,', "MetricError", "invalid JSON: "),  # then the decoder's own words
    ("[1, 2]", "MetricError", "metric file must be a JSON object"),
    ('{"dim": 2, "coords": ["x", "y"]}', "MetricError", "metric file missing field 'g'"),
    (_chart(dim=0), "MetricError", "'dim' must be a positive integer, got 0"),
    (_chart(coords=["x"]), "MetricError", "'coords' must list 2 names"),
    (_chart(params=[1]), "MetricError", "'params' must be an object of numbers"),
    (_chart(params=0), "MetricError", "'params' must be an object of numbers"),
    (_chart(params=[]), "MetricError", "'params' must be an object of numbers"),
    (_chart(params=False), "MetricError", "'params' must be an object of numbers"),
    (_chart(params=""), "MetricError", "'params' must be an object of numbers"),
    (_chart(params=None), "MetricError", "'params' must be an object of numbers"),
    (_chart(g=[["1", None], [None, "1"]]), "MetricError", "missing component (1, 2)"),
    (_chart(g=[["1", 0], [None, "1"]]), "MetricError",
     "component (1, 2) must be an expression string"),
    (_chart(g=[["1 +", "0"], [None, "1"]]), "MetricError",
     "component (1, 1): unexpected end of input (line 1, col 4)"),
    # the chart's own checks name a component as the parser does, 1-based
    (_chart(g=[["1", "x"], ["y", "1"]]), "MetricError", "components (1, 2) and (2, 1) differ"),
    (_chart(g=[["1", "0"], [None, "1 + z"]]), "MetricError",
     "unknown identifier(s) ['z'] in component (2, 2)"),
    (_chart(g=[["1", "0"], [None, "1e-13"]]), "GeometryError",
     "metric nearly singular at [0.3, 0.2]"),
], ids=["dim-bool", "coords-repeated", "coords-shadowed", "json", "array", "no-g", "dim-0",
        "coords-length", "params-array", "params-0", "params-empty-array", "params-false",
        "params-empty-string", "params-null", "null-pair", "non-string", "unparsable",
        "asymmetric", "unknown-identifier", "nearly-singular"])
def test_metric_file_errors_end_as_one_json_error_document(tmp_path, capsys, text, error,
                                                           message):
    path = tmp_path / "metric.json"
    path.write_text(text)
    code, out = run_cli(capsys, ["geometry", "--metric", str(path), "--point=0.3,0.2"])
    doc = json.loads(out)
    assert code == 1 and set(doc) == {"error", "message"} and doc["error"] == error
    assert doc["message"].startswith(message)


@pytest.mark.parametrize("g11,code,message", [
    ("1+" + "(" * 3000 + "q1" + ")" * 3000, 1,
     "component (1, 1): expression nests deeper than 100 levels (line 1, col 103)"),
    ("1+" + "-" * 5000 + "q1", 1,
     "component (1, 1): expression nests deeper than 100 levels (line 1, col 103)"),
    ("1+" + "sin(" * 2000 + "q1" + ")" * 2000, 1,
     "component (1, 1): expression nests deeper than 100 levels (line 1, col 406)"),
    ("1+" + "q1+" * 20000 + "q1", 1,
     "component (1, 1): expression nests deeper than 100 levels (line 1, col 299)"),
    ("1+q1^1000000000000", 0, None),
    ("1+q1^-1000000000000", 1,
     "evaluating g(1,1) at [0.1]: division by zero during evaluation"),
], ids=["parens", "signs", "calls", "long-sum", "huge-power", "huge-negative-power"])
def test_deep_or_huge_expressions_end_quickly_as_one_json_document(tmp_path, capsys, g11, code,
                                                                   message):
    # the first four once ended in a RecursionError traceback, the powers ran for minutes
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"name": "d", "dim": 1, "coords": ["q1"], "g": [[g11]]}))
    start = time.perf_counter()
    got, out = run_cli(capsys, ["geometry", "--metric", str(path), "--point=0.1"])
    assert time.perf_counter() - start < 2.0
    doc = json.loads(out)
    assert got == code
    if message is None:
        assert doc["g"] == [[1.0]]  # 0.1^(10^12) underflows to 0
    else:
        assert doc == {"error": "MetricError", "message": message}


def test_non_finite_parameter_is_named(capsys):
    code, out = run_cli(capsys, ["sweep", "--builtin", "conformal2d:2", "--params", "e=0.1,a=nan",
                                 "--points=0.1,0.2", "--beta", "0.1"])
    assert code == 1
    assert json.loads(out) == {"error": "MetricError",
                               "message": "parameter 'a' must be a finite number, got 'nan'"}


@pytest.mark.parametrize("argv", [["partition", "--beta", "0.1", "--nodes", "8"],
                                  ["geometry", "--point=0.9,0.9"]])
def test_metric_file_named_after_a_builtin_is_rejected(tmp_path, capsys, argv):
    # a flat metric named "sphere" would get the sphere's polar grid and domain
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"name": "sphere", "dim": 2, "coords": ["q1", "q2"],
                                "g": [["1", "0"], [None, "1"]]}))
    code, out = run_cli(capsys, argv + ["--metric", str(path)])
    assert code == 1
    assert json.loads(out) == {"error": "MetricError", "message":
                               "metric name 'sphere' is reserved for a builtin chart"}


def test_non_finite_metric_is_rejected_where_it_arises(tmp_path, capsys):
    # exp(800 x) overflows at x = 1; 0 * inf is nan in g and in its derivatives
    chart = []
    for name, g11 in (("nan", "1 + 0*exp(800*x)"), ("inf", "exp(800*x)")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"name": name, "dim": 2, "coords": ["x", "y"],
                                    "g": [[g11, "0"], [None, "1"]]}))
        chart.append(["--metric", str(path)])
    cases = [
        ["ecp", "--route", "eta", *chart[0], "--point=1,0", "--beta", "0.1"],
        ["sweep", *chart[0], "--points=0,0;1,0;1,1", "--routes", "eta", "--beta", "0.1"],
        ["geometry", *chart[0], "--point=1,0"],
        ["mc", "--route", "covariant", *chart[0], "--point=1,0", "--beta", "0.1", "--M", "4",
         "--samples", "16"],
        ["geometry", *chart[1], "--point=1,0"],
    ]
    # the overflow itself is silent: no NumPy warning reaches stderr
    for argv in cases:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and err == "" and json.loads(out) == {
            "error": "GeometryError",
            "message": "metric or its derivatives not finite at [1.0, 0.0]"}, argv
    # the first node in input order with x near 1, the last of the four in x
    code = cli.main(["partition", *chart[0], "--bounds=0:1;0:1", "--nodes", "4", "--beta", "0.1"])
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    assert code == 1 and doc["error"] == "GeometryError"
    prefix = "metric or its derivatives not finite at "
    assert doc["message"].startswith(prefix)
    nodes = (np.polynomial.legendre.leggauss(4)[0] + 1) / 2
    assert json.loads(doc["message"][len(prefix):]) == pytest.approx([nodes[-1], nodes[0]])


def test_sweep_names_the_first_non_positive_definite_point(tmp_path, capsys):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"name": "diag", "dim": 2, "coords": ["q1", "q2"],
                                "g": [["q1", "0"], [None, "1"]]}))
    code, out = run_cli(capsys, ["sweep", "--metric", str(path),
                                 "--points=0.5,0;-0.1,0;-0.5,0", "--beta", "0.1"])
    assert code == 1
    assert json.loads(out) == {"error": "GeometryError",
                               "message": "metric not positive definite at [-0.1, 0.0]"}


def test_sweep_failure_names_the_first_offending_point(capsys):
    # with e = -0.1, R = 0.8 exp(-2 sigma): B = 1 - R beta / 24 <= 0 from the third point on
    code, out = run_cli(capsys, ["sweep", "--builtin", "conformal2d:2", "--params", "e=-0.1",
                                 "--points=0,0;1,0;-1,0;-1.2,0", "--routes", "covariant,eta",
                                 "--beta", "24"])
    assert code == 1
    doc = json.loads(out)       # one document: no CSV row was written before it
    assert doc["error"] == "ValueError"
    assert "order-beta expansion" in doc["message"]
    assert doc["message"].endswith(" at [-1.0, 0.0]")


def test_non_positive_B_names_the_expansion_range(capsys):
    code, out = run_cli(capsys, ECP_COV + ["--beta", "20"])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "ValueError"
    assert "beta" in doc["message"] and "order-beta expansion" in doc["message"]


def test_shared_parser_keeps_no_state_between_calls(capsys):
    eta = ["ecp", "--route", "eta", "--builtin", "sphere:2", "--point=0.3,0.1", "--beta", "0.1"]
    code, first = run_cli(capsys, eta)
    assert code == 0 and json.loads(first)["include_fp"] is True
    code, out = run_cli(capsys, eta + ["--no-fp"])
    assert code == 0 and json.loads(out)["include_fp"] is False
    code, out = run_cli(capsys, eta)
    assert code == 0 and out == first
    with pytest.raises(SystemExit) as exc:
        cli.main(eta + ["--M", "0", "--D", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out = run_cli(capsys, eta)
    assert code == 0 and out == first


# --- fuzz: random argument vectors end with exit 0, 1 or 2 and one JSON document

_CHARTS = ["sphere:2", "sphere:3", "hyperbolic-ball:2", "conformal2d:2", "flat:1",
           "conformal2d:3", "torus:2", "sphere", "sphere:x", "sphere:0"]
_POINTS = ["0.1,0.2", "0,0", "0.9,0.9", "0.3,-0.2,0.1", "0.2", "", "nan,0", "a,b", "1e308,0"]
_BETAS = ["0.1", "0.05", "20", "0", "-1", "nan", "inf", "1e-300", "x"]
_MS = ["1", "2", "8", "0", "-3", "y"]
_OPTIONS = {
    "geometry": {"--builtin": _CHARTS, "--point": _POINTS, "--params": ["a=0.1", "a", "b=2"],
                 "--metric": ["/nonexistent/metric.json"]},
    "ecp": {"--route": ["covariant", "eta", "sphere", "bogus"], "--builtin": _CHARTS,
            "--point": _POINTS, "--beta": _BETAS, "--M": _MS, "--D": ["1", "2", "3", "0"],
            "--no-fp": None, "--mode-series": None, "--seeley": None},
    "mc": {"--route": ["covariant", "eta", "sphere"], "--builtin": _CHARTS,
           "--point": _POINTS, "--beta": _BETAS, "--M": _MS, "--D": ["1", "2", "0"],
           "--samples": ["1", "16", "256", "0", "-5"], "--seed": ["0", "7", "-1"]},
    "partition": {"--builtin": _CHARTS, "--beta": _BETAS, "--M": _MS,
                  "--sphere-D": ["1", "2", "0", "-1"], "--polar": ["0.5", "-1", "nan"],
                  "--bounds": ["-0.5:0.5;-0.5:0.5", "0:1", "a:b", "0:1:2;0:1"],
                  "--nodes": ["1", "3", "6", "0"]},
    "propagator": {"--beta": _BETAS, "--M": _MS, "--tau": ["0", "0.25", "nan", "-3"],
                   "--taup": ["0", "1e300"]},
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    argv = [command]
    for name in draw(st.lists(st.sampled_from(sorted(options)), max_size=7, unique=True)):
        values = options[name]
        argv.append(name if values is None else f"{name}={draw(st.sampled_from(values))}")
    return argv


@given(_argvs())
@settings(max_examples=150, deadline=None)
# found by the fuzz: the draw's standard deviation once overflowed to 0 here
@example(["mc", "--builtin=sphere:2", "--point=0.1,0.2", "--route=covariant", "--samples=1",
          "--M=1", "--beta=1e-300"])
def test_fuzzed_argv_ends_with_one_json_document(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code in (0, 1):
        json.loads(out.getvalue())


_MC_ROUTES = (["mc", "--route=sphere", "--D=2"],
              ["mc", "--route=covariant", "--builtin=sphere:2", "--point=0.1,0.2"],
              ["mc", "--route=eta", "--builtin=sphere:2", "--point=0.1,0.2"])
# (beta, M, exit code); at 1.7e308 the action itself overflows, from M = 4 on every route
_MC_EXTREMES = (("1e-300", 1, 0), ("1e-155", 1, 0), ("1e300", 1, 1), ("1.7e308", 4, 1),
                ("1e-310", 1, 1))


@pytest.mark.parametrize("argv,code", [
    (["propagator", "--M=1", "--beta=1e-300"], 0),
    (["propagator", "--beta=1e-300", "--M=1", "--tau=0", "--taup=1e300"], 1),
    (["propagator", "--beta=1e-310", "--M=4"], 1),
    (["ecp", "--M=1", "--route=eta", "--beta=1e-300", "--point=0.1,0.2", "--builtin=sphere:2",
      "--mode-series"], 1),
    (["ecp", "--route=covariant", "--builtin=sphere:3", "--point=0.1,0,0", "--beta=1e-300",
      "--seeley"], 1),
    (["mc", "--M=1", "--beta=0.1", "--point=1e308,0", "--builtin=sphere:2", "--route=covariant",
      "--samples=1"], 1),
    (["partition", "--sphere-D", "3", "--beta", "1e-300"], 1),
    # 1 / omega_1^2 overflows: the mode sums take their scaled form
    (["propagator", "--beta=1e300", "--M=1", "--tau=0.5"], 0),
    (["propagator", "--beta=1e160", "--M=1", "--tau=0.5"], 0),
    # the Monte Carlo draws with the scaled standard deviation at either end
    # of the range, its action (at 1.7e308) or its variance overflows at
    # large beta, and its propagator rejects an omega_M that overflows
    *(([*route, f"--M={M}", f"--beta={beta}", "--samples=4"], code)
      for beta, M, code in _MC_EXTREMES for route in _MC_ROUTES),
], ids=["propagator", "propagator-phase", "propagator-omega", "ecp-mode-series", "ecp-seeley",
        "mc-domain", "partition-sphere", "propagator-large-beta", "propagator-beta-1e160",
        *(f"mc-{route[1][8:]}-{beta}" for beta, _, _ in _MC_EXTREMES for route in _MC_ROUTES)])
def test_extreme_values_end_without_a_warning(argv, code):
    """Frequencies, phases, densities and Monte Carlo actions that leave the
    float64 range end with one JSON document and nothing on stderr, found by
    the fuzz above."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == code
    doc = json.loads(out.getvalue())
    assert ("error" in doc) == (code == 1) and err.getvalue() == ""


@pytest.mark.parametrize("argv", [
    ["ecp", "--route", "covariant", "--builtin", "sphere:2", "--point", "-0.3,0", "--beta", "0.1"],
    ["ecp", "--route", "eta", "--builtin", "sphere:2", "--point", "-.3,-0.1", "--beta", "0.1"],
    ["sweep", "--builtin", "sphere:2", "--points", "-0.1,0;0.3,-0.2", "--routes", "covariant,eta",
     "--beta", "0.1"],
    ["partition", "--builtin", "flat:2", "--beta", "0.3", "--bounds", "-1:1;-1:1", "--nodes", "4"],
], ids=["ecp-covariant", "ecp-eta", "sweep", "partition"])
def test_negative_value_may_follow_its_option_as_a_word(capsys, argv):
    k = next(k for k, arg in enumerate(argv) if arg in ("--point", "--points", "--bounds"))
    assert cli.main(argv) == 0
    spaced = capsys.readouterr()
    assert cli.main(argv[:k] + [f"{argv[k]}={argv[k + 1]}"] + argv[k + 2:]) == 0
    assert capsys.readouterr() == spaced and spaced.err == ""  # config echo included


def _readme_commands() -> list[list[str]]:
    """The curvepath command lines of README "## Command line", continuation
    lines joined, as argv lists."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("curvepath ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_line_examples_run(capsys, argv):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "sweep":
        assert out.startswith("q1,q2,beta,route,B_coefficient,discrepancy\n")
    elif argv[0] == "verify":
        assert out.endswith("\n24/24 checks passed\n")
    else:
        assert isinstance(json.loads(out), dict)  # exactly one JSON document


def _cap_address_space():
    """In the child: a 4 GiB address space, so a request of tens of GiB fails
    at once whatever the memory of the host."""
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("argv", [
    # 4M + 1 = 2^32 - 3, so the grid size is found at once; the modes need 32 GiB
    ["mc", "--route", "sphere", "--D", "2", "--beta", "0.1", "--M", "1073741823",
     "--samples", "1"],
    # 100000 Gauss-Legendre nodes need a 74.5 GiB companion matrix
    ["partition", "--builtin", "flat:2", "--bounds=0:1;0:1", "--beta", "0.1",
     "--nodes", "100000"],
], ids=["mc", "partition"])
def test_memory_error_is_one_json_error_document(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "curvepath.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=_cap_address_space)
    assert done.returncode == 1, done.stderr
    doc = json.loads(done.stdout)
    assert doc["error"] == "MemoryError"
    assert doc["message"].startswith("Unable to allocate")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["propagator", "--beta", "1", "--M", "4"],
    ["verify", "propagator"],
    ["sweep", "--builtin", "sphere:2", "--points", "0.1,0;0.3,0", "--beta", "0.1"],
], ids=["propagator", "verify", "sweep"])
def test_closed_stdout_exits_1_without_a_traceback(argv, unbuffered):
    """The reader of stdout has gone before the first write: the command
    writes nothing more and exits 1, and the flush at exit stays quiet."""
    done = _run_with_closed_stdout(argv, unbuffered)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["sweep", "--help"], ["--version"]], ids=["help", "version"])
def test_help_and_version_to_a_closed_stdout_exit_0_quietly(argv, unbuffered):
    """argparse prints these and exits while parsing; buffered, the text
    would otherwise fail only in the flush at exit."""
    done = _run_with_closed_stdout(argv, unbuffered)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def _run_with_closed_stdout(argv, unbuffered):
    """The command line in a new process whose stdout pipe has no reader."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-m", "curvepath.cli", *argv], env=env,
                              stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
