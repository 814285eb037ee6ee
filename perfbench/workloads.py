"""The benchmark's three workloads: seeded inputs, one timed pass, and the
independent checks of what the pass wrote.

A pass drives geomlab the way its users do, through ``geomlab.cli.main``
with a fresh ``--out`` directory and ``--no-timestamp``, and through the
public library where no subcommand exists.  The checks read the output
files back and compare them with values computed here, apart from the
program: closed forms, a one-dimensional reduction of the L2 distance,
and plain inequalities.  They never read the program's own pass/fail
flags.
"""

import contextlib
import csv
import functools
import io
import json
import math
import os
import shutil

import numpy as np

from geomlab import cli
from geomlab import line_space as ls
from geomlab import surface_geom as sg

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLOW_CONFIG = os.path.join(REPO, "docs", "examples", "flow.kv")
TWO_PI_SQ = 2.0 * math.pi ** 2


def _num(x):
    """Float rendered so that the CLI parses back the identical value."""
    return f"{x:.17g}"


def _geomlab(argv, out):
    """One CLI invocation; True when it exits 0.  Its stdout is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv + ["--out", out, "--no-timestamp"]) == 0


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """One workload: ``draw`` parameters, ``prepare`` input files, run
    ``operations`` (the timed pass) and ``check`` their outputs."""

    name = ""

    def draw(self, rng):
        raise NotImplementedError

    def prepare(self, params, work):
        """Write the pass's input files under ``work`` (untimed)."""

    def operations(self, params, work):
        """List of (label, zero-argument callable returning True on success)."""
        raise NotImplementedError

    def check(self, params, work, ok):
        """Messages for every check that fails; ``ok`` maps label -> success.
        Outputs of failed operations are not checked."""
        raise NotImplementedError


# -- willmore-drop -------------------------------------------------------------

def bump(rho, eps):
    """The exp(-1/x) cutoff: 1 within eps/4 of pi/4, 0 beyond eps/2."""
    r = np.abs(np.asarray(rho, dtype=float) - math.pi / 4)
    x = np.clip((0.5 * eps - r) / (0.25 * eps), 0.0, 1.0)

    def glue(z):
        return np.where(z > 0.0, np.exp(-1.0 / np.where(z > 0.0, z, 1.0)), 0.0)

    step = glue(x) / (glue(x) + glue(1.0 - x))
    return np.where(r <= 0.25 * eps, 1.0, np.where(r >= 0.5 * eps, 0.0, step))


def distance_sq_reduction(eps, panels=64, order=64):
    """4 eps^2 (2 pi)^2 * integral of Psi(rho)^2 sin(rho) cos(rho) d rho.

    The squared L2 distance of the bumped Hopf deformation from the round
    metric: the only nonzero entries are g23 = g32 = eps Psi sin cos, so
    |delta|^2 = 2 eps^2 Psi^2 and dV = sin cos d rho d theta1 d theta2.
    Composite Gauss-Legendre over the support of Psi.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(math.pi / 4 - eps / 2, math.pi / 4 + eps / 2, panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    rho = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
    dens = bump(rho, eps) ** 2 * np.sin(rho) * np.cos(rho)
    integral = float(np.sum(0.5 * (hi - lo) * w * dens))
    return 4.0 * eps ** 2 * (2.0 * math.pi) ** 2 * integral


class WillmoreDrop(Workload):
    name = "willmore-drop"
    W_REL_TOL = 1e-8
    MAX_H = 1e-10
    # the program's rho grid (576 points) does not align with the bump
    # edges; on eps in [0.1, 0.45] it agrees with the reduction to 5.3e-5
    DIST_REL_TOL = 2e-4

    def draw(self, rng):
        return {
            "sweep_eps": [float(rng.uniform(lo, hi)) for lo, hi in
                          ((0.05, 0.3), (0.3, 0.6), (0.6, 0.9))],
            "distance_eps": [float(rng.uniform(lo, hi)) for lo, hi in
                             ((0.1, 0.2), (0.2, 0.3), (0.3, 0.45))],
        }

    def prepare(self, params, work):
        # the integrand does not depend on theta1, theta2, so 16 trapezoid
        # nodes per angle give the same sum as the default 32
        with open(os.path.join(work, "distance.kv"), "w", encoding="utf-8") as fh:
            fh.write("rho_points = 576\ntheta_points = 16\n")

    def operations(self, params, work):
        cfg = os.path.join(work, "distance.kv")
        ops = []
        for i, eps in enumerate(params["sweep_eps"]):
            ops.append((f"willmore-sweep-{i}", functools.partial(
                _geomlab, ["willmore-sweep", "--eps", _num(eps)],
                os.path.join(work, f"willmore-sweep-{i}"))))
        for i, eps in enumerate(params["distance_eps"]):
            ops.append((f"distance-check-{i}", functools.partial(
                _geomlab, ["distance-check", "--eps", _num(eps), "--config", cfg],
                os.path.join(work, f"distance-check-{i}"))))
        return ops

    def check(self, params, work, ok):
        bad = []
        for i, eps in enumerate(params["sweep_eps"]):
            if not ok[f"willmore-sweep-{i}"]:
                continue
            rows = _read_csv(os.path.join(work, f"willmore-sweep-{i}", "willmore_sweep.csv"))
            if [float(r["eps"]) for r in rows] != [eps]:
                bad.append(f"willmore-sweep eps {[r['eps'] for r in rows]}, asked {eps!r}")
                continue
            w = float(rows[0]["W_quadrature"])
            closed = 2.0 * math.sqrt(1.0 - eps ** 2) * math.pi ** 2
            if not abs(w - closed) <= self.W_REL_TOL * closed:
                bad.append(f"W({eps!r}) = {w!r}, closed form {closed!r}")
            if not w < TWO_PI_SQ:
                bad.append(f"W({eps!r}) = {w!r} not below 2 pi^2")
            if not abs(float(rows[0]["maxH"])) <= self.MAX_H:
                bad.append(f"max|H|({eps!r}) = {rows[0]['maxH']}")
        for i, eps in enumerate(params["distance_eps"]):
            if not ok[f"distance-check-{i}"]:
                continue
            rows = _read_json(os.path.join(work, f"distance-check-{i}", "distance_check.json"))
            rows = rows["values"]["rows"]
            if [r["eps"] for r in rows] != [eps]:
                bad.append(f"distance-check eps {[r['eps'] for r in rows]}, asked {eps!r}")
                continue
            d = rows[0]["distance_sq"]
            ref = distance_sq_reduction(eps)
            if not abs(d - ref) <= self.DIST_REL_TOL * ref:
                bad.append(f"distance^2({eps!r}) = {d!r}, reduction {ref!r}")
            if not d <= 16.0 * math.pi ** 2 * eps ** 3:
                bad.append(f"distance^2({eps!r}) = {d!r} above 16 pi^2 eps^3")
        return bad


# -- umbilic-audit -------------------------------------------------------------

def ellipsoid_umbilics(a, b, c):
    """The four umbilics of x = a cos u sin v, y = b sin u sin v, z = c cos v
    (a > b > c): u in {0, pi}, v = arccos(+-sqrt((b^2-c^2)/(a^2-c^2)))."""
    v0 = math.acos(math.sqrt((b * b - c * c) / (a * a - c * c)))
    return [(u, v) for u in (0.0, math.pi) for v in (v0, math.pi - v0)]


def _match_points(found, expected, tol):
    """Messages unless ``found`` and ``expected`` (s, t) points pair up one
    to one within ``tol`` (s is periodic with period 2 pi)."""
    if len(found) != len(expected):
        return [f"{len(found)} points, expected {len(expected)}"]
    bad = []
    unmatched = list(expected)
    for s, t in found:
        def gap(p):
            ds = abs(s - p[0]) % (2 * math.pi)
            return max(min(ds, 2 * math.pi - ds), abs(t - p[1]))
        best = min(unmatched, key=gap)
        if gap(best) > tol:
            bad.append(f"point ({float(s)!r}, {float(t)!r}) is {gap(best):.3g} "
                       "from the closed form")
        unmatched.remove(best)
    return bad


class UmbilicAudit(Workload):
    name = "umbilic-audit"
    ELLIPSOID_GRID = (256, 192)   # for the scans and the congruence
    CLIFFORD_GRID = (8, 8)
    # refined positions land within 3e-7 of the closed form on this grid,
    # whose cells are 2.5e-2 by 1.6e-2
    POS_TOL = 1e-5

    def draw(self, rng):
        return {"a": float(rng.uniform(1.8, 2.2)),
                "b": float(rng.uniform(1.35, 1.65)),
                "c": float(rng.uniform(0.85, 1.1)),
                "hopf_eps": [float(rng.uniform(0.1, 0.6)) for _ in range(2)]}

    def prepare(self, params, work):
        # Hopf metrics with seeded off-diagonal terms, compiled by the
        # expression grammar when the CLI loads them
        for i, eps in enumerate(params["hopf_eps"]):
            with open(os.path.join(work, f"clifford-{i}.kv"), "w", encoding="utf-8") as fh:
                fh.write("chart = hopf\ng11 = 1\ng22 = sin(rho)^2\ng33 = cos(rho)^2\n"
                         f"g23 = {_num(eps)}*sin(rho)*cos(rho)\n")

    def operations(self, params, work):
        axes = ["--a", _num(params["a"]), "--b", _num(params["b"]),
                "--c", _num(params["c"])]

        def congruence():
            ell = sg.surface_by_name("ellipsoid", a=params["a"], b=params["b"],
                                     c=params["c"])
            section = ls.normal_congruence(ell, grid=self.ELLIPSOID_GRID)
            # a library call writes no file: its records go to the check
            # through the pass's parameters
            params["complex_points"] = ls.complex_point_scan(section)
            return True

        def grid(shape):
            return "x".join(map(str, shape))

        ops = [("umbilics-ellipsoid", functools.partial(
            _geomlab, ["umbilics", "--surface", "ellipsoid", *axes,
                       "--grid", grid(self.ELLIPSOID_GRID)], os.path.join(work, "ellipsoid")))]
        for i in range(len(params["hopf_eps"])):
            ops.append((f"umbilics-clifford-{i}", functools.partial(
                _geomlab, ["umbilics", "--surface", "clifford", "--metric-file",
                           os.path.join(work, f"clifford-{i}.kv"),
                           "--grid", grid(self.CLIFFORD_GRID)],
                os.path.join(work, f"clifford-{i}"))))
        ops.append(("maslov", functools.partial(
            _geomlab, ["maslov", *axes, "--enclose", "0,1,2"], os.path.join(work, "maslov"))))
        ops.append(("complex-points", congruence))
        return ops

    def check(self, params, work, ok):
        bad = []
        expected = ellipsoid_umbilics(params["a"], params["b"], params["c"])
        if ok["umbilics-ellipsoid"]:
            out = os.path.join(work, "ellipsoid")
            rows = _read_csv(os.path.join(out, "umbilics.csv"))
            audit = _read_json(os.path.join(out, "umbilics_audit.json"))
            if any(r["isolated"] != "true" or r["index_num"] != "1" for r in rows):
                bad.append("ellipsoid umbilic not isolated with index 1/2: "
                           f"{[(r['isolated'], r['index_num']) for r in rows]}")
            if sum(int(r["index_num"] or 0) for r in rows) != 4 or audit["index_sum"] != 2.0:
                bad.append(f"ellipsoid index sum {audit['index_sum']}")
            bad += ["ellipsoid umbilics: " + m for m in _match_points(
                [(float(r["s"]), float(r["t"])) for r in rows], expected, self.POS_TOL)]
        if ok["complex-points"]:
            recs = params["complex_points"]
            if any(not r.isolated or r.index != 0.5 for r in recs):
                bad.append("complex point not isolated with index 1/2")
            bad += ["complex points: " + m for m in _match_points(
                [(r.s, r.t) for r in recs], expected, self.POS_TOL)]
        if ok["maslov"]:
            rows = _read_csv(os.path.join(work, "maslov", "maslov.csv"))
            got = [(int(r["enclosed"]), int(r["mu"])) for r in rows]
            if got != [(0, 0), (1, 2), (2, 4)]:
                bad.append(f"maslov (enclosed, mu) = {got}")
        for i, eps in enumerate(params["hopf_eps"]):
            if not ok[f"umbilics-clifford-{i}"]:
                continue
            out = os.path.join(work, f"clifford-{i}")
            rows = _read_csv(os.path.join(out, "umbilics.csv"))
            audit = _read_json(os.path.join(out, "umbilics_audit.json"))
            # the gap is the constant 2/sqrt(1 - eps^2): no umbilic anywhere
            if rows or audit["umbilic_count"] != 0 or audit["index_sum"] != 0.0:
                bad.append(f"clifford torus (eps {eps!r}): {len(rows)} umbilics, "
                           f"index sum {audit['index_sum']}")
        return bad


# -- neutral-flow --------------------------------------------------------------

class NeutralFlow(Workload):
    name = "neutral-flow"
    FLOW_STEPS = 20      # per perturbed-hemisphere run; two runs per pass
    ANGLE_STEPS = 6      # with --angle-rate 0.2
    AFFINE_STEPS = 12
    AREA_SLACK = 1e-12   # relative; steps raise the area by 1e-5 or more
    MAX_H = 1e-10

    def draw(self, rng):
        return {"perturbation": [float(rng.uniform(0.03, 0.07)) for _ in range(3)],
                "affine_twist": float(rng.uniform(0.8, 1.2))}

    def _runs(self, params):
        """label -> (steps, extra flow-run arguments)"""
        pert = [["--perturbation", _num(p)] for p in params["perturbation"]]
        return {
            "flow-0": (self.FLOW_STEPS, pert[0]),
            "flow-1": (self.FLOW_STEPS, pert[1]),
            "angle-penalty": (self.ANGLE_STEPS, pert[2] + ["--angle-rate", "0.2"]),
            "affine": (self.AFFINE_STEPS, ["--disc", "holomorphic-affine",
                                           "--twist-strength", _num(params["affine_twist"])]),
        }

    def operations(self, params, work):
        return [(label, functools.partial(
            _geomlab, ["flow-run", "--config", FLOW_CONFIG, "--steps", str(steps), *extra],
            os.path.join(work, label)))
            for label, (steps, extra) in self._runs(params).items()]

    def check(self, params, work, ok):
        bad = []
        for label, (steps, _) in self._runs(params).items():
            if not ok[label]:
                continue
            rows = _read_csv(os.path.join(work, label, "flow_diagnostics.csv"))
            if [int(r["step"]) for r in rows] != list(range(steps + 1)):
                bad.append(f"{label}: {len(rows) - 1} of {steps} steps")
                continue
            area = np.array([float(r["area"]) for r in rows])
            if not np.all(np.diff(area) >= -self.AREA_SLACK * area[0]):
                bad.append(f"{label}: area decreased by {-np.min(np.diff(area))!r}")
            if not all(float(r["margin"]) > 0.0 for r in rows):
                bad.append(f"{label}: definiteness margin lost")
            if label == "affine":
                max_h = max(float(r["max_h"]) for r in rows)
                if not max_h <= self.MAX_H:
                    bad.append(f"affine disc not stationary: max|H| = {max_h!r}")
                if not np.max(np.abs(area - area[0])) <= self.AREA_SLACK * area[0]:
                    bad.append("affine disc area changed by "
                               f"{np.max(np.abs(area - area[0]))!r}")
        return bad


WORKLOADS = {w.name: w for w in (WillmoreDrop(), UmbilicAudit(), NeutralFlow())}


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
