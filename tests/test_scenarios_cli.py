"""Scenario reports, the kvdoc format, and the command-line interface."""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geomlab
from geomlab import cli, kvdoc, scenarios
from geomlab import line_space as ls
from geomlab import neutral_flow as nf
from geomlab import umbilic_topology as ut
from geomlab.errors import ConfigError


def test_willmore_sweep_report_content():
    report = scenarios.willmore_sweep(eps_list=(0.0, 0.5, 0.8),
                                      grid=(96, 96), h_samples=400)
    assert report.passed
    rows = report.values["rows"]
    assert rows[1]["W_closed_form"] == pytest.approx(
        2 * np.sqrt(0.75) * np.pi ** 2)
    assert rows[2]["W_closed_form"] == pytest.approx(1.2 * np.pi ** 2)
    payload = report.to_dict()
    assert payload["schema_version"] == scenarios.SCHEMA_VERSION
    for assertion in payload["assertions"]:
        assert "tolerance" in assertion and "provenance" in assertion


def test_reports_are_reproducible():
    a = scenarios.willmore_sweep(eps_list=(0.0, 0.3), grid=(64, 64),
                                 h_samples=200).to_dict()
    b = scenarios.willmore_sweep(eps_list=(0.0, 0.3), grid=(64, 64),
                                 h_samples=200).to_dict()
    a.pop("runtime_s")
    b.pop("runtime_s")
    assert a == b


def test_distance_report_rows():
    report = scenarios.distance_bound_check(eps_list=(0.2,), rho_points=192,
                                            theta_points=16,
                                            willmore_grid=(96, 96))
    assert report.passed
    row = report.values["rows"][0]
    assert row["bound"] == pytest.approx(16 * np.pi ** 2 * 0.008)
    assert row["distance_sq"] < row["bound"]


def test_kvdoc_roundtrip():
    doc = kvdoc.parse("a = 3\nb = 2.5\nc = x,y\nd = hello # comment\ne = true\n")
    assert doc == {"a": 3, "b": 2.5, "c": ["x", "y"], "d": "hello", "e": True}


def test_kvdoc_rejects_bad_lines():
    with pytest.raises(ConfigError):
        kvdoc.parse("just some words\n")


def run_cli(args, cwd):
    return cli.main(args + ["--out", str(cwd), "--no-timestamp"])


def test_cli_willmore_sweep_csv(tmp_path):
    code = run_cli(["willmore-sweep", "--eps", "0,0.2", "--grid", "64"], tmp_path)
    assert code == 0
    lines = (tmp_path / "willmore_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,W_quadrature,W_closed_form,maxH,verdict"
    fields = lines[1].split(",")
    # 17 significant digits reparse exactly
    assert float(fields[1]) == pytest.approx(2 * np.pi ** 2, rel=1e-9)
    assert fields[-1] == "pass"


def test_cli_usage_error_for_bad_eps(tmp_path):
    code = run_cli(["willmore-sweep", "--eps", "1.5"], tmp_path)
    assert code == 2


MALFORMED_SIZES = {
    "umbilics-grid-by": (["umbilics", "--grid", "64by48"], None),
    "umbilics-grid-one-size": (["umbilics", "--grid", "64"], None),
    "umbilics-grid-zero": (["umbilics", "--grid", "0x0"], None),
    "maslov-grid-trailing-x": (["maslov", "--grid", "64x"], None),
    "maslov-loop-samples-zero": (["maslov", "--loop-samples", "0"], None),
    "linespace-audit-samples-negative": (["linespace-audit", "--samples", "-5"], None),
    "willmore-sweep-grid-negative": (["willmore-sweep", "--eps", "0.3", "--grid", "-4"], None),
    "willmore-sweep-grid-zero": (["willmore-sweep", "--eps", "0.3", "--grid", "0"], None),
    "distance-check-rho-points-word": (["distance-check", "--eps", "0.2"], "rho_points = many\n"),
    "flow-run-steps-negative": (["flow-run", "--grid-n", "9", "--steps", "-1"], None),
    "flow-run-snapshot-every-negative": (["flow-run", "--grid-n", "9", "--steps", "3",
                                          "--snapshot-every", "-1"], None),
    "flow-run-steps-negative-config": (["flow-run", "--grid-n", "9"], "steps = -1\n"),
    "linespace-audit-seed-negative": (["linespace-audit", "--seed", "-1"], None),
    "maslov-enclose-word": (["maslov", "--enclose", "x"], None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SIZES))
def test_cli_refuses_a_malformed_size(tmp_path, capsys, case):
    # a usage error (exit 2) that names the size, not a traceback
    args, config = MALFORMED_SIZES[case]
    if config is not None:
        (tmp_path / "cfg.kv").write_text(config)
        args = args + ["--config", str(tmp_path / "cfg.kv")]
    assert run_cli(args, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be" in err, err
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["umbilics", "linespace-audit", "maslov", "report"])
def test_cli_config_only_where_it_is_read(tmp_path, command):
    # --config belongs to willmore-sweep, distance-check and flow-run only
    (tmp_path / "f.kv").write_text("grid = 64\n")
    assert run_cli([command, "--config", str(tmp_path / "f.kv")], tmp_path) == 2
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


def test_cli_config_grid_of_one_size_is_square(tmp_path):
    # grid = 64 in a config is the square grid of --grid 64
    (tmp_path / "cfg.kv").write_text("grid = 64\n")
    for name, extra in (("config", ["--config", str(tmp_path / "cfg.kv")]),
                        ("flag", ["--grid", "64"])):
        (tmp_path / name).mkdir()
        assert run_cli(["willmore-sweep", "--eps", "0.3"] + extra, tmp_path / name) == 0
    report = json.loads((tmp_path / "config" / "willmore_sweep_report.json").read_text())
    assert report["params"]["grid"] == [64, 64]
    assert ((tmp_path / "config" / "willmore_sweep.csv").read_text()
            == (tmp_path / "flag" / "willmore_sweep.csv").read_text())


def test_cli_unknown_subcommand(tmp_path):
    assert cli.main(["no-such-command"]) == 2


def _subcommands(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


def _files(directory):
    """Each output file's bytes; a JSON report's as parsed, without its
    runtime_s, the one entry that differs between identical runs."""
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    for name in [n for n in files if n.endswith(".json")]:
        files[name] = json.loads(files[name])
        files[name].pop("runtime_s")
    return files


def test_cli_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()
    assert len(_subcommands(cli.build_parser())) == 7


def test_cli_reused_parser_keeps_calls_independent(tmp_path, capsys):
    # one process: runs, usage errors and every --help share the one parser,
    # and none of them leaves a trace in a later call
    runs = {"sweep": ["willmore-sweep", "--eps", "0.3", "--grid", "16"],
            "flow": ["flow-run", "--steps", "3"]}
    for name, args in runs.items():
        (tmp_path / f"{name}-first").mkdir()
        assert run_cli(args, tmp_path / f"{name}-first") == 0
    assert cli.main(["no-such-command"]) == 2
    assert run_cli(["umbilics", "--grid", "0x0"], tmp_path) == 2
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: geomlab")
    for command in _subcommands(cli.build_parser()):
        assert cli.main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: geomlab {command}")
    for name, args in runs.items():
        (tmp_path / f"{name}-again").mkdir()
        assert run_cli(args, tmp_path / f"{name}-again") == 0
        assert _files(tmp_path / f"{name}-again") == _files(tmp_path / f"{name}-first")
    # a flow-run without --steps takes the config's count, not the last --steps
    assert cli.build_parser().parse_args(["flow-run"]).steps is None
    (tmp_path / "cfg.kv").write_text("steps = 2\n")
    assert run_cli(["flow-run", "--config", str(tmp_path / "cfg.kv")], tmp_path) == 0
    lines = (tmp_path / "flow_diagnostics.csv").read_text().strip().splitlines()
    assert len(lines) == 4  # header + initial + 2 steps


def test_cli_identical_invocations_identical_files(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    for d in (a_dir, b_dir):
        d.mkdir()
        assert run_cli(["willmore-sweep", "--eps", "0.3", "--grid", "16"], d) == 0
    a = (a_dir / "willmore_sweep.csv").read_text()
    b = (b_dir / "willmore_sweep.csv").read_text()
    assert a == b


def test_cli_seventeen_digit_output(tmp_path):
    assert run_cli(["willmore-sweep", "--eps", "0.3", "--grid", "16"], tmp_path) == 0
    lines = (tmp_path / "willmore_sweep.csv").read_text().strip().splitlines()
    value = lines[1].split(",")[1]
    assert float(value) == pytest.approx(2 * np.sqrt(0.91) * np.pi ** 2, rel=1e-12)
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 15


def test_cli_config_file_merges_and_rejects_unknown(tmp_path):
    cfg = tmp_path / "cfg.kv"
    cfg.write_text("eps = 0.1,0.3\n")
    code = cli.main(["willmore-sweep", "--config", str(cfg),
                     "--out", str(tmp_path), "--no-timestamp", "--grid", "64"])
    assert code == 0
    rows = (tmp_path / "willmore_sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # header + two eps rows

    bad = tmp_path / "bad.kv"
    bad.write_text("epz = 0.1\n")
    code = cli.main(["willmore-sweep", "--config", str(bad),
                     "--out", str(tmp_path)])
    assert code == 2


def test_cli_umbilics_csv_schema(tmp_path):
    code = run_cli(["umbilics", "--surface", "ellipsoid", "--a", "2",
                    "--b", "1.5", "--c", "1", "--grid", "192x144"], tmp_path)
    assert code == 0
    lines = (tmp_path / "umbilics.csv").read_text().strip().splitlines()
    assert lines[0] == "s,t,discriminant,index_num,isolated"
    assert len(lines) == 5
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[3] == "1"  # index_num = 2 * (1/2)
        assert fields[4] == "true"
    audit = json.loads((tmp_path / "umbilics_audit.json").read_text())
    assert audit["umbilic_count"] == 4


def test_cli_umbilics_scans_once(tmp_path, monkeypatch):
    from geomlab import chart_tensor as ct
    from geomlab import surface_geom as sg
    from geomlab import umbilic_topology as ut
    scans = []
    scan = ut.umbilic_scan

    def counting_scan(*args, **kwargs):
        scans.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(ut, "umbilic_scan", counting_scan)
    code = run_cli(["umbilics", "--surface", "ellipsoid", "--a", "2",
                    "--b", "1.5", "--c", "1", "--grid", "128x96"], tmp_path)
    assert code == 0
    assert len(scans) == 1
    # the rows equal a separate scan with its indices attached
    ell = sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0)
    flat = ct.metric_by_name("flat-r3")
    records = scan(ell, flat, grid=(128, 96))
    ut.attach_indices(ell, flat, [r for r in records if r.isolated],
                      ut._LOOP_CELLS * np.array(ut._cells(ell, (128, 96))[2:]))
    expected = [",".join(cli._fmt(v) for v in (r.s, r.t, r.value, r.winding,
                                               r.isolated)) for r in records]
    lines = (tmp_path / "umbilics.csv").read_text().strip().splitlines()
    assert lines[1:] == expected


def test_cli_flow_run_outputs(tmp_path):
    code = run_cli(["flow-run", "--grid-n", "11", "--steps", "10",
                    "--perturbation", "0.03", "--snapshot-every", "5"], tmp_path)
    assert code == 0
    lines = (tmp_path / "flow_diagnostics.csv").read_text().strip().splitlines()
    assert lines[0].startswith("step,time,area,margin,max_h")
    assert len(lines) == 12  # header + initial + 10 steps
    assert (tmp_path / "flow_state_0000.txt").exists()


def test_cli_flow_run_gates_the_area_of_fixed_boundary_runs_only(tmp_path, capsys,
                                                                 monkeypatch):
    # the angle penalty moves the boundary, so a penalty run's area may
    # fall: its trend is printed, not gated, and its CSV is written as ever
    code = run_cli(["flow-run", "--angle-rate", "0.2", "--grid-n", "11", "--steps", "40"],
                   tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    assert "area NOT monotone (angle penalty run, not gated), margin positive" in out
    assert len((tmp_path / "flow_diagnostics.csv").read_text().splitlines()) == 42
    # a fixed-boundary run whose area falls still fails
    state, snapshots = nf.run_flow({"grid_n": 9, "steps": 2})
    state.diagnostics[-1].area -= 1e-6
    monkeypatch.setattr(nf, "run_flow", lambda cfg: (state, snapshots))
    code = run_cli(["flow-run"], tmp_path)
    assert code == 1 and "area NOT monotone, margin positive" in capsys.readouterr().out


BAD_FLOW_VALUES = {
    "h-negative": (["--h", "-0.001"], None, "h must be positive"),
    "h-zero": (["--h", "0"], None, "h must be positive"),
    "h-nan": (["--h", "nan"], None, "h must be finite"),
    "h-inf-config": ([], "h = inf\n", "h must be finite"),
    # an integer too large for a float is refused as h = 1e400 is
    "h-huge-integer-config": ([], "h = 1" + "0" * 400 + "\n", "h must be finite, got inf"),
    "center-huge-integer-config": ([], "center = 0,0,-1" + "0" * 400 + "\n",
                                   "center must be three finite numbers"),
    "cfl-negative-config": ([], "cfl = -0.2\n", "cfl must be positive"),
    "cfl-nan-config": ([], "cfl = nan\n", "cfl must be finite"),
    "angle-rate-negative": (["--angle-rate", "-1"], None, "angle_rate must be non-negative"),
    "angle-rate-nan": (["--angle-rate", "nan"], None, "angle_rate must be finite"),
    "twist-strength-nan": (["--twist-strength", "nan"], None, "twist_strength must be finite"),
    "perturbation-inf": (["--perturbation", "inf"], None, "perturbation must be finite"),
    "dbar-c-nan": (["--dbar-c", "nan"], None, "dbar_c must be finite"),
    "angle-target-nan": (["--angle-target", "nan"], None, "angle_target must be finite"),
    "angle-target-cosh-overflow": (["--angle-target", "1000"], None,
                                   "angle_target must have a finite cosh"),
    "h-text-config": ([], "h = abc\n", "h must be a number"),
    "chart-radius-text-config": ([], "chart_radius = abc\n", "chart_radius must be a number"),
    # the ring's corners sit at chart radius 0.99, past the chart's edge
    "chart-radius-ring-off-chart": (["--chart-radius", "0.70"], None,
                                    "boundary sample ran off the hemisphere chart"),
    "stagnation-tol-text-config": ([], "stagnation_tol = abc\n",
                                   "stagnation_tol must be a number"),
    "twist-strength-text-config": ([], "twist_strength = abc\n",
                                   "twist_strength must be a number"),
    "center-text-config": ([], "center = abc\n", "center must be three finite numbers"),
    "center-zero-config": ([], "center = 0,0,0\n", "center must be three finite numbers"),
    "disc-list-config": ([], "disc = a,b\n", "unknown disc id"),
}


@pytest.mark.parametrize("case", sorted(BAD_FLOW_VALUES))
def test_cli_flow_run_refuses_a_bad_step_or_value_before_the_first_step(tmp_path, capsys,
                                                                         case):
    # a step that is not positive ran the flow backward and passed, and a
    # value that is not finite ended in a chart exit or a signature loss
    args, config, message = BAD_FLOW_VALUES[case]
    if config is not None:
        (tmp_path / "cfg.kv").write_text(config)
        args = args + ["--config", str(tmp_path / "cfg.kv")]
    assert run_cli(["flow-run", "--grid-n", "7", "--steps", "5"] + args, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message), err
    assert not any(tmp_path.glob("*.csv"))


def test_cli_flow_run_refuses_a_grid_n_that_is_not_an_integer(tmp_path, capsys):
    # grid_n = 7.5 ran a 7x7 disc, where steps = 2.5 was refused
    (tmp_path / "cfg.kv").write_text("grid_n = 7.5\n")
    assert run_cli(["flow-run", "--steps", "2", "--config", str(tmp_path / "cfg.kv")],
                   tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: grid_n must be an integer of at least 5")
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("surface, width", [("graph", "0"), ("paraboloid", "-0.5"),
                                            ("graph", "nan"), ("saddle", "inf")])
def test_cli_umbilics_refuses_a_graph_half_width_that_is_not_positive(tmp_path, capsys,
                                                                      surface, width):
    # an empty or reversed domain was scanned and passed the audit
    args = ["umbilics", "--surface", surface, "--half-width", width, "--grid", "16x16"]
    if surface == "graph":
        args += ["--expr", "x^2"]
    assert run_cli(args, tmp_path) == 2
    assert "half_width must be positive and finite" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_cli_flow_numerical_failure_exit_code(tmp_path):
    code = run_cli(["flow-run", "--grid-n", "11", "--steps", "20",
                    "--twist-strength", "0.05", "--perturbation", "0.2"],
                   tmp_path)
    assert code == 3


def test_cli_env_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOMLAB_OUTPUT_DIR", str(tmp_path / "envout"))
    code = cli.main(["willmore-sweep", "--eps", "0.3", "--grid", "16", "--no-timestamp"])
    assert code == 0
    assert (tmp_path / "envout" / "willmore_sweep.csv").exists()


def _declared_console_script(name):
    """Return the ``module:attr`` target of ``[project.scripts]`` ``name``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def _assert_help_output(out):
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: geomlab")
    assert "willmore-sweep" in out.stdout


def test_cli_entry_point_installed():
    # Run the declared entry point the way pip's generated wrapper does, so
    # the check holds on a source checkout where nothing is installed.
    module, attr = _declared_console_script("geomlab").split(":")
    wrapper = (f"import sys; sys.argv[0] = 'geomlab'; "
               f"from {module} import {attr}; sys.exit({attr}())")
    env = dict(os.environ,
               PYTHONPATH=str(Path(geomlab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                         capture_output=True, text=True, env=env)
    _assert_help_output(out)

    # Where the package is installed, the generated script must work too.
    installed = shutil.which("geomlab")
    if installed is not None:
        out = subprocess.run([installed, "--help"], capture_output=True,
                             text=True)
        _assert_help_output(out)


_LOADED_AFTER = """
import json, sys
from geomlab import cli
def loaded():
    return [name for name in ("geomlab.neutral_flow", "geomlab.scenarios")
            if name in sys.modules]
stages = [["import", loaded()]]
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv + ["--out", sys.argv[2], "--no-timestamp"]) == 0, argv
    stages.append([argv[0], loaded()])
print(json.dumps(stages))
"""


def _modules_loaded_after(commands, out):
    env = dict(os.environ,
               PYTHONPATH=str(Path(geomlab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER, json.dumps(commands), str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # the last line; the commands print their summaries above it
    return json.loads(proc.stdout.splitlines()[-1])


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    # a fresh process compiles every module it imports: the Caratheodory
    # commands never step the flow or report a scenario, the flow reports
    # no scenario, and the scenarios run no flow
    commands = [["umbilics", "--grid", "32x24"], ["maslov", "--grid", "32x24"],
                ["linespace-audit", "--samples", "20"], ["flow-run", "--grid-n", "7",
                                                         "--steps", "2"]]
    assert _modules_loaded_after(commands, tmp_path / "a") == [
        ["import", []], ["umbilics", []], ["maslov", []], ["linespace-audit", []],
        ["flow-run", ["geomlab.neutral_flow"]]]
    assert _modules_loaded_after([["report"]], tmp_path / "b") == [
        ["import", []], ["report", ["geomlab.scenarios"]]]


def test_metric_file_loader(tmp_path):
    from geomlab import chart_tensor as ct
    path = tmp_path / "metric.kv"
    path.write_text("chart = hopf\ng11 = 1\ng22 = sin(rho)^2\n"
                    "g33 = cos(rho)^2\ng23 = 0.3*sin(rho)*cos(rho)\n")
    custom = ct.load_metric(path)
    ref = ct.metric_by_name("hopf-eps", eps=0.3)
    pts = np.array([[0.7, 1.0, 2.0], [1.2, 0.1, 5.0]])
    assert np.allclose(custom.matrix(pts), ref.matrix(pts), atol=1e-14)

    bad = tmp_path / "bad_metric.kv"
    bad.write_text("chart = hopf\ng99 = 1\n")
    from geomlab.errors import MetricParameterError
    with pytest.raises(MetricParameterError, match="valid"):
        ct.load_metric(bad)


def test_cli_umbilics_with_metric_file(tmp_path):
    path = tmp_path / "flat.kv"
    path.write_text("chart = cartesian\ng11 = 1\ng22 = 1\ng33 = 1\n")
    code = run_cli(["umbilics", "--surface", "ellipsoid", "--a", "2",
                    "--b", "1.5", "--c", "1", "--grid", "128x96",
                    "--metric-file", str(path)], tmp_path)
    assert code == 0
    lines = (tmp_path / "umbilics.csv").read_text().strip().splitlines()
    assert len(lines) == 5


def test_cli_umbilics_names_a_metric_singular_along_the_surface(tmp_path, capsys):
    path = tmp_path / "singular.kv"
    path.write_text("chart = hopf\ng11 = 1\ng22 = sin(rho)^2\ng33 = 0\n")
    code = run_cli(["umbilics", "--surface", "clifford", "--grid", "8x8",
                    "--metric-file", str(path)], tmp_path)
    assert code == 2
    assert "singular or not finite" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["expr", "metric-file"])
def test_cli_reports_a_malformed_expression_as_a_usage_error(tmp_path, capsys, source):
    if source == "expr":
        args = ["--surface", "graph", "--expr", "x^2 +* y"]
    else:
        path = tmp_path / "malformed.kv"
        path.write_text("chart = hopf\ng11 = 1 +\ng22 = sin(rho)^2\ng33 = cos(rho)^2\n")
        args = ["--surface", "clifford", "--metric-file", str(path)]
    code = run_cli(["umbilics", *args, "--grid", "8x8"], tmp_path)
    err = capsys.readouterr().err
    assert code == 2
    # a metric file's error names the entry it comes from
    prefix = "error: g11: " if source == "metric-file" else "error: "
    assert err.startswith(prefix + "cannot parse expression") and "Traceback" not in err


@pytest.mark.parametrize("value, refusal", [("1_000", "g11: unexpected '1_000'"),
                                            ("1e400", "singular or not finite")],
                         ids=["1_000", "1e400"])
def test_cli_reads_a_metric_file_number_as_written(tmp_path, capsys, value, refusal):
    # the grammar refuses 1_000 and reads 1e400 as inf, a metric that is
    # not finite; neither is read as a number first and written back
    path = tmp_path / "number.kv"
    path.write_text(f"chart = hopf\ng11 = {value}\ng22 = sin(rho)^2\ng33 = cos(rho)^2\n")
    code = run_cli(["umbilics", "--surface", "clifford", "--grid", "8x8",
                    "--metric-file", str(path)], tmp_path)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and refusal in err and "Traceback" not in err


def test_cli_umbilics_names_a_degenerate_rho_only_metric(tmp_path, capsys):
    # g11 = 0 leaves the torus's first form intact; the refusal comes from
    # the orbit-reduced Christoffel pass
    path = tmp_path / "degenerate.kv"
    path.write_text("chart = hopf\ng11 = 0\ng22 = sin(rho)^2\ng33 = cos(rho)^2\n")
    code = run_cli(["umbilics", "--surface", "clifford", "--grid", "8x8",
                    "--metric-file", str(path)], tmp_path)
    assert code == 2
    assert "singular or not finite at point" in capsys.readouterr().err


def test_cli_umbilics_names_a_non_finite_metric(tmp_path, capsys):
    # 1/0 on constants and a log of zero give inf or NaN, named as the metric's
    for entry in ("g11 = 1/0", "g23 = log(0)", "g23 = log(rho - rho)"):
        key = entry.split()[0]
        lines = {"g11": "g11 = 1", "g22": "g22 = sin(rho)^2", "g33": "g33 = cos(rho)^2",
                 key: entry}
        path = tmp_path / "nonfinite.kv"
        path.write_text("chart = hopf\n" + "\n".join(lines.values()) + "\n")
        code = run_cli(["umbilics", "--surface", "clifford", "--grid", "8x8",
                        "--metric-file", str(path)], tmp_path)
        err = capsys.readouterr().err
        assert code == 2, entry
        assert "is singular or not finite at point" in err, entry


def test_cli_umbilics_names_a_near_singular_metric(tmp_path, capsys):
    # det g = 1.1e-16 is positive, but singular to working precision
    code = run_cli(["umbilics", "--surface", "clifford", "--grid", "8x8",
                    "--metric", "hopf-eps", "--eps-val", "0.9999999999999998"], tmp_path)
    assert code == 2
    assert "metric hopf-eps is numerically singular at point" in capsys.readouterr().err


def test_cli_maslov_refuses_a_constant_gauss_map(tmp_path, capsys):
    code = run_cli(["maslov", "--surface", "plane", "--enclose", "0",
                    "--grid", "32x32"], tmp_path)
    assert code == 2
    assert "Gauss map" in capsys.readouterr().err


def test_cli_linespace_audit(tmp_path):
    assert run_cli(["linespace-audit", "--samples", "50"], tmp_path) == 0
    payload = json.loads((tmp_path / "linespace_audit.json").read_text())
    assert payload["samples"] == 50 and payload["passed"] is True
    assert all(v is True for v in payload["checks"].values())


def test_linespace_audit_fails_when_j_drops_its_vertical_term(tmp_path, monkeypatch):
    # without its c u term, J X breaks the tangency constraint u.dV + V.du = 0
    apply_j = ls.apply_j

    def without_cu(u, V, du, dV):
        ju, jv = apply_j(u, V, du, dV)
        c = -np.einsum("...i,...i->...", V, ju)  # c = -V.(u x du)
        return ju, jv - c[..., None] * u

    monkeypatch.setattr(ls, "apply_j", without_cu)
    audit = ls.structure_audit(np.random.default_rng(0), 50)
    assert audit["checks"]["constraint"] is False and audit["passed"] is False
    assert run_cli(["linespace-audit", "--samples", "50"], tmp_path) == 1
    payload = json.loads((tmp_path / "linespace_audit.json").read_text())
    assert payload["checks"]["constraint"] is False and payload["passed"] is False


def test_enclosing_loop_names_missing_umbilics():
    phi = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    with pytest.raises(ConfigError, match="no isolated umbilics"):
        ut.enclosing_loop([], 1, phi)
    with pytest.raises(ConfigError, match="fewer than two"):
        ut.enclosing_loop([object()], 2, phi)
    with pytest.raises(ConfigError, match="counts 0, 1, 2"):
        ut.enclosing_loop([], 3, phi)


def _umbilic_normal_loop():
    """Directions on a small circle around one umbilic normal of the
    ellipsoid."""
    x_u = 2.0 * np.sqrt(1.75 / 3.0)
    z_u = np.sqrt(1.25 / 3.0)
    n = np.array([x_u / 4.0, 0.0, z_u])
    n /= np.linalg.norm(n)
    e1 = np.cross(n, [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    phi = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    return (np.cos(0.1) * n[None, :]
            + np.sin(0.1) * (np.cos(phi)[:, None] * e1[None, :]
                             + np.sin(phi)[:, None] * e2[None, :]))


def test_cli_maslov_loop_file(tmp_path, monkeypatch):
    # only --enclose places its loops around scanned umbilics: a loop file
    # is inverted directly, with no scan
    def no_scan(*args, **kwargs):
        raise AssertionError("maslov --loop-file ran umbilic_scan")
    monkeypatch.setattr(ut, "umbilic_scan", no_scan)
    loop_path = tmp_path / "loop.txt"
    np.savetxt(loop_path, _umbilic_normal_loop(), header="u_x u_y u_z")
    code = run_cli(["maslov", "--loop-file", str(loop_path),
                    "--grid", "128x96"], tmp_path)
    assert code == 0
    csv = (tmp_path / "maslov.csv").read_text()
    # one umbilic enclosed, mu = 4i
    assert csv.splitlines()[1].split(",") == ["file", "2", "0.5", "4", "1", "0.5"]
    # the reversed loop gives the same row: both sides are oriented
    np.savetxt(loop_path, _umbilic_normal_loop()[::-1], header="u_x u_y u_z")
    assert run_cli(["maslov", "--loop-file", str(loop_path), "--grid", "128x96"],
                   tmp_path) == 0
    assert (tmp_path / "maslov.csv").read_text() == csv


def test_example_loop_file_is_the_umbilic_normal_loop():
    # docs/examples/ellipsoid_loop.txt, which CI runs through maslov
    path = Path(__file__).resolve().parents[1] / "docs" / "examples" / "ellipsoid_loop.txt"
    assert np.array_equal(np.loadtxt(path, comments="#"), _umbilic_normal_loop())


MASLOV_AXES = [(2.0, 1.5, 1.0), (3.0, 2.0, 0.5), (2.0, 1.05, 1.0), (2.2, 1.35, 1.1)]


def _maslov_csv(out, axes, extra):
    """maslov.csv of ``geomlab maslov`` on the ellipsoid ``axes``, written to ``out``."""
    argv = ["maslov", *(x for k, v in zip("abc", axes) for x in (f"--{k}", repr(v))), *extra]
    assert run_cli(argv, out) == 0
    return (out / "maslov.csv").read_text()


@pytest.mark.parametrize("axes", MASLOV_AXES)
def test_cli_maslov_default_grid_encloses_as_the_fine_grid(tmp_path, axes):
    # the enclosing loops are fixed-size ellipses about the scanned
    # umbilics, so the default 64x48 scan places them as 256x192 does
    enclose = ["--enclose", "0,1,2"]
    coarse = _maslov_csv(tmp_path / "default", axes, enclose)
    assert coarse == _maslov_csv(tmp_path / "fine", axes, enclose + ["--grid", "256x192"])
    assert [line.split(",")[:2] for line in coarse.splitlines()[1:]] == [
        ["0", "0"], ["1", "2"], ["2", "4"]]


def test_cli_maslov_takes_its_enclosing_loops_in_one_call(tmp_path, monkeypatch):
    shapes, angle_shapes = [], []
    congruence_eval, principal_angles = ls.CongruenceMap.eval, ls.principal_angles

    def counting_eval(self, s, t, out=None):
        shapes.append(np.broadcast_shapes(np.shape(s), np.shape(t)))
        return congruence_eval(self, s, t, out=out)

    def counting_angles(rep):
        angle_shapes.append(np.shape(rep.k1))
        return principal_angles(rep)
    monkeypatch.setattr(ls.CongruenceMap, "eval", counting_eval)
    monkeypatch.setattr(ls, "principal_angles", counting_angles)
    enclose = ["--enclose", "0,1,2"]
    together = _maslov_csv(tmp_path / "together", MASLOV_AXES[0], enclose)
    # one defect evaluation and one principal-angle pass for the three loops
    # of 2048 samples
    assert [shape for shape in shapes if shape[-1] == 2048] == [(3, 2048)]
    assert angle_shapes == [(3 * 2048,)]
    # the same file, byte for byte, with each loop taken on its own
    mirror = ls.maslov_mirror
    monkeypatch.setattr(ls, "maslov_mirror", lambda surface, metric, section, s, t: [
        mirror(surface, metric, section, *loop) for loop in zip(s, t)])
    assert _maslov_csv(tmp_path / "alone", MASLOV_AXES[0], enclose) == together


@pytest.mark.parametrize("axes", [MASLOV_AXES[0], MASLOV_AXES[3]])
def test_cli_maslov_loop_file_on_the_default_grid(tmp_path, axes):
    # the Gauss-map inversion seeds from the nearest sample of a coarser
    # grid and converges to the same preimages, to rounding: the loop holds
    # the normal of one umbilic of (2, 1.5, 1) and none of (2.2, 1.35, 1.1)
    loop_path = tmp_path / "loop.txt"
    np.savetxt(loop_path, _umbilic_normal_loop()[::4], header="u_x u_y u_z")
    loop = ["--loop-file", str(loop_path)]
    default, fine = (_maslov_csv(tmp_path / name, axes, loop + grid).splitlines()[1].split(",")
                     for name, grid in (("default", []), ("fine", ["--grid", "256x192"])))
    assert default[:5] == fine[:5]
    assert abs(float(default[5]) - float(fine[5])) <= 1e-12


@pytest.mark.parametrize("grid", [[], ["--grid", "16x12"]])
def test_cli_maslov_on_random_ellipsoids(tmp_path, grid):
    # 60 ellipsoids from the ranges of the benchmark's umbilic audit; at
    # 16x12 the grid minima alone failed 12 and 16 of 60 such draws (two
    # seeds), with fewer than two umbilics to enclose or halting at a pole
    rng = np.random.default_rng(22)
    for k in range(60):
        axes = (rng.uniform(1.8, 2.2), rng.uniform(1.35, 1.65), rng.uniform(0.85, 1.1))
        csv = _maslov_csv(tmp_path / str(k), axes, ["--enclose", "0,1,2"] + grid)
        assert [line.split(",")[:2] for line in csv.splitlines()[1:]] == [
            ["0", "0"], ["1", "2"], ["2", "4"]], axes


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0]])
def test_cli_maslov_names_a_loop_row_that_is_not_a_direction(tmp_path, capsys, row):
    # refused before the row is normalised, so no division warns
    loop = _umbilic_normal_loop()[:16]
    loop[2] = row
    loop_path = tmp_path / "loop.txt"
    np.savetxt(loop_path, loop)
    code = run_cli(["maslov", "--loop-file", str(loop_path), "--grid", "32x24"], tmp_path)
    assert code == 2
    assert "row 2 is not a direction" in capsys.readouterr().err
