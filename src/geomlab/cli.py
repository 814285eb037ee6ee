"""Command-line front end.

Subcommands: willmore-sweep, distance-check, umbilics, linespace-audit,
maslov, flow-run, report.  Outputs are CSV/JSON files written with 17
significant digits under --out (or $GEOMLAB_OUTPUT_DIR, or the working
directory).  Exit codes: 0 all assertions pass, 1 an assertion failed,
2 usage/config error, 3 numerical failure.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone

import numpy as np

from . import chart_tensor as ct
from . import kvdoc
from . import line_space as ls
from . import neutral_flow as nf
from . import scenarios as sc
from . import surface_geom as sg
from . import umbilic_topology as ut
from .errors import (ChartDomainError, ConfigError, ImmersionError,
                     MetricParameterError, SignatureLossError,
                     UnreliableLoopError)

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_NUMERIC = 0, 1, 2, 3


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _out_dir(args):
    out = args.out or os.environ.get("GEOMLAB_OUTPUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_csv(path, header, rows, timestamp):
    with open(path, "w", encoding="utf-8") as fh:
        if timestamp:
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, payload, timestamp):
    if timestamp:
        payload = {"generated": datetime.now(timezone.utc).isoformat(), **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _load_config(args, valid_keys):
    cfg = {}
    if args.config:
        cfg = kvdoc.load(args.config)
        unknown = set(cfg) - set(valid_keys)
        if unknown:
            raise ConfigError(
                f"unknown config keys {sorted(unknown)}; valid keys: "
                f"{sorted(valid_keys)}")
    return cfg


def _sizes(value, name, count):
    """``count`` positive integer sizes from ``value``: an int, a list of
    them (a config value) or text of them joined by 'x' ("256x192")."""
    parts = value if isinstance(value, list) else str(value).split("x")
    text = [str(p).strip() for p in parts]
    if len(text) != count or not all(t.isdecimal() and int(t) > 0 for t in text):
        what = "a positive integer" if count == 1 else f"{count} positive integers"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return tuple(int(t) for t in text)


def _eps_list(text):
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"could not parse eps list {text!r}")
    for eps in values:
        if not (0.0 <= eps < 1.0):
            raise ConfigError(
                f"eps={eps} outside the valid range [0, 1)")
    return values


def _report_to_disk(report, out, stem, timestamp):
    _write_json(os.path.join(out, f"{stem}.json"), report.to_dict(), timestamp)
    _write_csv(os.path.join(out, f"{stem}.csv"), sc.FLAT_ROW_HEADER,
               report.flat_rows(), timestamp)


# -- subcommands ---------------------------------------------------------------

def cmd_willmore_sweep(args):
    cfg = _load_config(args, {"eps", "grid"})
    eps = _eps_list(args.eps) if args.eps else cfg.get("eps", None)
    if isinstance(eps, (int, float)):
        eps = [float(eps)]
    value = cfg.get("grid", [192, 192]) if args.grid is None else args.grid
    # one size, from --grid or the config, is a square grid
    grid = (_sizes(value, "grid", 2) if isinstance(value, list)
            else _sizes(value, "grid", 1) * 2)
    report = (sc.willmore_sweep(eps_list=eps, grid=grid) if eps
              else sc.willmore_sweep(grid=grid))
    out = _out_dir(args)
    rows = [[r["eps"], r["W_quadrature"], r["W_closed_form"], r["maxH"],
             "pass" if abs(r["W_quadrature"] - r["W_closed_form"])
             <= 1e-8 * r["W_closed_form"] else "FAIL"]
            for r in report.values["rows"]]
    _write_csv(os.path.join(out, "willmore_sweep.csv"),
               ["eps", "W_quadrature", "W_closed_form", "maxH", "verdict"],
               rows, not args.no_timestamp)
    _report_to_disk(report, out, "willmore_sweep_report", not args.no_timestamp)
    print(f"willmore-sweep: {'pass' if report.passed else 'FAIL'} "
          f"({len(report.assertions)} assertions, {report.runtime:.2f}s)")
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_distance_check(args):
    cfg = _load_config(args, {"eps", "rho_points", "theta_points"})
    eps = _eps_list(args.eps) if args.eps else cfg.get("eps", [0.1, 0.2, 0.4])
    report = sc.distance_bound_check(
        eps_list=eps, rho_points=_sizes(cfg.get("rho_points", 576), "rho_points", 1)[0],
        theta_points=_sizes(cfg.get("theta_points", 32), "theta_points", 1)[0])
    out = _out_dir(args)
    _report_to_disk(report, out, "distance_check", not args.no_timestamp)
    print(f"distance-check: {'pass' if report.passed else 'FAIL'} "
          f"({report.runtime:.2f}s)")
    return EXIT_PASS if report.passed else EXIT_FAIL


def _surface_from_args(args):
    params = {}
    for key in ("a", "b", "c", "r", "R", "d", "expr", "half_width"):
        value = getattr(args, key.lower() if key != "R" else "big_r", None)
        if value is not None:
            params[key] = value
    return sg.surface_by_name(args.surface, **params)


def cmd_umbilics(args):
    surface = _surface_from_args(args)
    metric = (ct.load_metric(args.metric_file) if args.metric_file
              else ct.metric_by_name(args.metric, eps=args.eps_val))
    grid = _sizes(args.grid, "--grid", 2)
    audit = ut.conjecture_audit(surface, metric, grid=grid)
    out = _out_dir(args)
    rows = [[r.s, r.t, r.disc_min,
             r.index_num if r.index_num is not None else "",
             r.isolated] for r in audit["records"]]
    _write_csv(os.path.join(out, "umbilics.csv"),
               ["s", "t", "discriminant", "index_num", "isolated"],
               rows, not args.no_timestamp)
    payload = sc._audit_values(audit)
    _write_json(os.path.join(out, "umbilics_audit.json"), payload,
                not args.no_timestamp)
    ok = all(audit[k] in (True, None) for k in
             ("hamburger_ok", "local_bound_ok", "poincare_hopf_ok"))
    print(f"umbilics: {audit['umbilic_count']} isolated, "
          f"index sum {audit['index_sum']}, audit {'pass' if ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_linespace_audit(args):
    samples = _sizes(args.samples, "--samples", 1)[0]
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    payload = {"samples": samples, "seed": args.seed,
               **ls.structure_audit(np.random.default_rng(args.seed), samples)}
    out = _out_dir(args)
    _write_json(os.path.join(out, "linespace_audit.json"), payload,
                not args.no_timestamp)
    print(f"linespace-audit: {'pass' if payload['passed'] else 'FAIL'} "
          f"(worst wirtinger {payload['residuals']['wirtinger']:.2e})")
    return EXIT_PASS if payload["passed"] else EXIT_FAIL


def cmd_maslov(args):
    surface = _surface_from_args(args)
    metric = ct.metric_by_name("flat-r3")
    grid = _sizes(args.grid, "--grid", 2)
    loop_samples = _sizes(args.loop_samples, "--loop-samples", 1)[0]
    try:
        counts = [int(x) for x in args.enclose.split(",")]
    except ValueError:
        raise ConfigError(f"--enclose must be a comma list of counts, got "
                          f"{args.enclose!r}") from None
    section = ls.normal_congruence(surface, grid=grid)
    if args.loop_file:
        loop_u = np.loadtxt(args.loop_file, comments="#")
        loops = [("file", *ls.invert_gauss_map(loop_u, section))]
    else:
        # only the enclosing loops are placed around the scanned umbilics
        iso = [r for r in ut.umbilic_scan(surface, metric, grid=grid) if r.isolated]
        phi = np.linspace(0.0, 2 * np.pi, loop_samples, endpoint=False)
        loops = [(count, *sc.enclosing_loop(iso, count, phi)) for count in counts]
    mirrors = sc._maslov_mirror(surface, metric, section, np.array([s for _, s, _ in loops]),
                                np.array([t for _, _, t in loops]))
    rows = [[label, mas["mu"], mas["index_sum"], mas["operator_index"],
             mas["unparameterized_dim"], winding]
            for (label, _, _), (mas, winding) in zip(loops, mirrors)]
    out = _out_dir(args)
    _write_csv(os.path.join(out, "maslov.csv"),
               ["enclosed", "mu", "index_sum", "operator_index",
                "unparameterized_dim", "principal_winding"],
               rows, not args.no_timestamp)
    ok = all(abs(row[1] - 4 * row[5]) < 1e-9 for row in rows)
    print(f"maslov: {'pass' if ok else 'FAIL'} ({len(rows)} loops)")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_flow_run(args):
    cfg = _load_config(args, set(nf.FLOW_CONFIG_KEYS))
    for key in ("grid_n", "steps", "snapshot_every", "h", "twist_strength",
                "perturbation", "angle_target", "dbar_c", "angle_rate", "chart_radius"):
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    if args.disc:
        cfg["disc"] = args.disc
    state, snapshots = nf.run_flow(cfg)
    out = _out_dir(args)
    rows = [d.as_row() for d in state.diagnostics]
    _write_csv(os.path.join(out, "flow_diagnostics.csv"),
               [f.name for f in fields(nf.FlowDiagnostics)], rows, not args.no_timestamp)
    for k, (t, f) in enumerate(snapshots):
        np.savetxt(os.path.join(out, f"flow_state_{k:04d}.txt"),
                   f.reshape(-1, 4), header=f"t={t:.17g} chart x,y,w1,w2")
    if state.halted and "stagnation" not in state.halted:
        print(f"flow-run: halted ({state.halted})")
        return EXIT_NUMERIC
    areas = np.array([d.area for d in state.diagnostics])
    margin_ok = all(d.margin > 0 for d in state.diagnostics)
    area_ok = bool(np.all(np.diff(areas) >= -1e-10))
    print(f"flow-run: {len(state.diagnostics) - 1} steps, "
          f"area {'non-decreasing' if area_ok else 'NOT monotone'}, "
          f"margin {'positive' if margin_ok else 'LOST'}")
    return EXIT_PASS if (margin_ok and area_ok) else EXIT_FAIL


def cmd_report(args):
    reports = sc.run_all()
    out = _out_dir(args)
    payload = {"schema_version": sc.SCHEMA_VERSION,
               "reports": [r.to_dict() for r in reports],
               "passed": all(r.passed for r in reports)}
    _write_json(os.path.join(out, "report.json"), payload,
                not args.no_timestamp)
    rows = []
    for r in reports:
        rows.extend(r.flat_rows())
    _write_csv(os.path.join(out, "report_summary.csv"), sc.FLAT_ROW_HEADER,
               rows, not args.no_timestamp)
    for r in reports:
        print(f"  {r.scenario}: {'pass' if r.passed else 'FAIL'} "
              f"({r.runtime:.2f}s)")
    print(f"report: {'pass' if payload['passed'] else 'FAIL'}")
    return EXIT_PASS if payload["passed"] else EXIT_FAIL


# -- parser ---------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argparse tree, built on the first call and shared by every later
    one in the process.  Sharing is safe: ``parse_args`` returns a fresh
    Namespace per call, no argument has a mutable default or an append
    action, and each ``func`` is a ``cmd_*`` function that looks up the
    library names it calls when it runs (so patching those names works;
    patching a ``cmd_*`` itself does not reach a tree already built)."""
    parser = argparse.ArgumentParser(
        prog="geomlab",
        description="Numerical differential geometry experiments: metric "
                    "deformations, umbilics, the oriented-line space, and "
                    "codimension-two mean curvature flow.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=False):
        p.add_argument("--out", default=None,
                       help="output directory (default $GEOMLAB_OUTPUT_DIR or .)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="suppress the timestamp header line in outputs")
        if config:
            p.add_argument("--config", default=None,
                           help="key-value config file overriding defaults")

    p = sub.add_parser("willmore-sweep", help="torus energy across the deformation")
    p.add_argument("--eps", default=None, help="comma list in [0,1)")
    p.add_argument("--grid", type=int, default=None)
    common(p, config=True)
    p.set_defaults(func=cmd_willmore_sweep)

    p = sub.add_parser("distance-check", help="L2 bound for the bumped metric")
    p.add_argument("--eps", default=None)
    common(p, config=True)
    p.set_defaults(func=cmd_distance_check)

    p = sub.add_parser("umbilics", help="scan a surface for umbilic points")
    p.add_argument("--surface", default="ellipsoid")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--big-r", dest="big_r", type=float, default=None,
                   help="major radius for torus-revolution")
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--expr", default=None)
    p.add_argument("--half-width", dest="half_width", type=float, default=None)
    p.add_argument("--metric", default="flat-r3")
    p.add_argument("--metric-file", dest="metric_file", default=None,
                   help="custom metric definition (key-value expressions)")
    p.add_argument("--eps-val", dest="eps_val", type=float, default=0.0)
    p.add_argument("--grid", default="512x384")
    common(p)
    p.set_defaults(func=cmd_umbilics)

    p = sub.add_parser("linespace-audit", help="structure identities on random data")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_linespace_audit)

    p = sub.add_parser("maslov", help="Keller-Maslov index on congruence loops")
    p.add_argument("--surface", default="ellipsoid")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--enclose", default="0,1,2",
                   help="comma list of enclosed-umbilic counts")
    p.add_argument("--loop-file", default=None,
                   help="polyline of directions (columns u_x u_y u_z)")
    p.add_argument("--grid", default="64x48")
    p.add_argument("--loop-samples", type=int, default=2048)
    common(p)
    p.set_defaults(func=cmd_maslov)

    p = sub.add_parser("flow-run", help="mean curvature flow of a graphical disc")
    p.add_argument("--grid-n", dest="grid_n", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--twist-strength", dest="twist_strength", type=float,
                   default=None)
    p.add_argument("--perturbation", type=float, default=None)
    p.add_argument("--angle-target", dest="angle_target", type=float, default=None)
    p.add_argument("--dbar-c", dest="dbar_c", type=float, default=None)
    p.add_argument("--angle-rate", dest="angle_rate", type=float, default=None)
    p.add_argument("--chart-radius", dest="chart_radius", type=float, default=None)
    p.add_argument("--disc", default=None,
                   help="twisted-hemisphere or holomorphic-affine")
    p.add_argument("--snapshot-every", dest="snapshot_every", type=int,
                   default=None)
    common(p, config=True)
    p.set_defaults(func=cmd_flow_run)

    p = sub.add_parser("report", help="run all scenarios and emit reports")
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, MetricParameterError, ChartDomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (SignatureLossError, UnreliableLoopError, ImmersionError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
