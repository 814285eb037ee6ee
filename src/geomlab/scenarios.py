"""Packaged experiments with deterministic pass/fail reports.

Each scenario fixes its grids and seeds, computes the quantities of
interest, and emits a ScenarioReport whose assertions carry their numeric
tolerance and a provenance tag for the reference value.  Reports are
reproducible bit-for-bit for a fixed configuration (runtime excluded).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import chart_tensor as ct
from . import line_space as ls
from . import surface_geom as sg
from . import umbilic_topology as ut
from .errors import ConfigError, UnreliableLoopError

SCHEMA_VERSION = "1"
TWO_PI_SQ = 2.0 * np.pi ** 2


@dataclass
class Assertion:
    name: str
    computed: float
    reference: float
    tolerance: float
    kind: str          # "abs" | "rel" | "le" | "lt" | "eq"
    provenance: str
    passed: bool = None

    def __post_init__(self):
        if self.passed is None:
            self.passed = self.check()

    def check(self):
        c, r = self.computed, self.reference
        if self.kind == "abs":
            return abs(c - r) <= self.tolerance
        if self.kind == "rel":
            return abs(c - r) <= self.tolerance * max(abs(r), 1e-300)
        if self.kind == "le":
            return c <= r + self.tolerance
        if self.kind == "lt":
            return c < r - self.tolerance
        if self.kind == "eq":
            return c == r
        raise ValueError(f"unknown assertion kind {self.kind!r}")

    def to_dict(self):
        return {"name": self.name, "computed": self.computed,
                "reference": self.reference, "tolerance": self.tolerance,
                "kind": self.kind, "provenance": self.provenance,
                "passed": bool(self.passed)}


@dataclass
class ScenarioReport:
    scenario: str
    params: dict
    values: dict = field(default_factory=dict)
    assertions: list = field(default_factory=list)
    runtime: float = 0.0
    schema_version: str = SCHEMA_VERSION

    @property
    def passed(self):
        return all(a.passed for a in self.assertions)

    def to_dict(self):
        return {"schema_version": self.schema_version,
                "scenario": self.scenario,
                "params": self.params,
                "values": self.values,
                "assertions": [a.to_dict() for a in self.assertions],
                "passed": bool(self.passed),
                "runtime_s": self.runtime}

    def flat_rows(self):
        return [[self.scenario, a.name, a.computed, a.reference, a.tolerance,
                 a.kind, a.provenance, "pass" if a.passed else "FAIL"]
                for a in self.assertions]


FLAT_ROW_HEADER = ["scenario", "assertion", "computed", "reference",
                   "tolerance", "kind", "provenance", "verdict"]


def willmore_sweep(eps_list=tuple(np.round(np.arange(0.0, 0.91, 0.1), 10)),
                   grid=(192, 192), h_samples=2000):
    """Willmore energy of the Clifford torus across the deformation family.

    For each eps: quadrature energy against the closed form
    2 sqrt(1-eps^2) pi^2, strict drop below 2 pi^2 for eps > 0, and the
    minimality check max|H| ~ 0, H = (k1 + k2)/2 (the ``maxH`` column).
    """
    t0 = time.perf_counter()
    report = ScenarioReport("willmore-sweep",
                            {"eps": list(map(float, eps_list)), "grid": list(grid)})
    torus = sg.surface_by_name("clifford")
    rows = []
    for eps in eps_list:
        metric = ct.metric_by_name("hopf-eps", eps=float(eps))
        w_quad, area = sg.willmore_and_area(torus, metric, grid=grid)
        w_closed = 2.0 * np.sqrt(1.0 - eps ** 2) * np.pi ** 2
        max_h = sg.max_abs_mean_curvature(torus, metric, n_samples=h_samples, seed=11)
        rows.append({"eps": float(eps), "W_quadrature": w_quad,
                     "W_closed_form": w_closed, "maxH": max_h, "area": area})
        report.assertions.append(Assertion(
            f"W_matches_closed_form[eps={eps}]", w_quad, w_closed,
            1e-8, "rel", "closed-form"))
        if eps > 0:
            report.assertions.append(Assertion(
                f"W_below_round_bound[eps={eps}]", w_quad, TWO_PI_SQ,
                0.0, "lt", "strict-inequality"))
        else:
            report.assertions.append(Assertion(
                "W_attains_round_bound[eps=0]", w_quad, TWO_PI_SQ,
                1e-8, "rel", "closed-form"))
        report.assertions.append(Assertion(
            f"torus_minimal[eps={eps}]", max_h, 0.0, 1e-10, "abs",
            "derived:trace-free-second-form"))
    report.values["rows"] = rows
    report.runtime = time.perf_counter() - t0
    return report


def distance_bound_check(eps_list=(0.1, 0.2, 0.4), rho_points=576,
                         theta_points=32, willmore_grid=(192, 192)):
    """L2 distance of the bumped deformation from the round metric.

    Checks the cubic bound 16 pi^2 eps^3, that the bump leaves the torus
    energy unchanged, and that the measured distances scale cubically.
    """
    t0 = time.perf_counter()
    report = ScenarioReport("distance-bound",
                            {"eps": list(map(float, eps_list)),
                             "rho_points": rho_points, "theta_points": theta_points})
    round_metric = ct.metric_by_name("round-s3")
    torus = sg.surface_by_name("clifford")
    rows = []
    for eps in eps_list:
        bumped = ct.metric_by_name("hopf-eps-bumped", eps=float(eps))
        dist_sq = ct.l2_metric_distance(round_metric, bumped, round_metric,
                                        grid=(rho_points, theta_points, theta_points),
                                        gl_order=6)
        bound = 16.0 * np.pi ** 2 * eps ** 3
        w_bumped = sg.willmore_energy(torus, bumped, grid=willmore_grid)
        w_closed = 2.0 * np.sqrt(1.0 - eps ** 2) * np.pi ** 2
        rows.append({"eps": float(eps), "distance_sq": dist_sq, "bound": bound,
                     "W_bumped": w_bumped, "W_closed_form": w_closed})
        report.assertions.append(Assertion(
            f"distance_within_cubic_bound[eps={eps}]", dist_sq, bound,
            0.0, "le", "bound"))
        report.assertions.append(Assertion(
            f"bump_preserves_torus_energy[eps={eps}]", w_bumped, w_closed,
            1e-10, "abs", "closed-form"))
    if len(eps_list) >= 3:
        eps_arr = np.asarray([r["eps"] for r in rows])
        d_arr = np.asarray([r["distance_sq"] for r in rows])
        slope = np.polyfit(np.log(eps_arr), np.log(d_arr), 1)[0]
        report.values["loglog_slope"] = float(slope)
        report.assertions.append(Assertion(
            "distance_scales_cubically", float(slope), 3.0, 0.2, "abs",
            "derived:regression"))
    report.values["rows"] = rows
    report.runtime = time.perf_counter() - t0
    return report


def enclosing_loop(iso, count, phi):
    """Parameter loop (s, t) at angles ``phi`` enclosing ``count`` of the
    isolated umbilics ``iso`` on a surface whose s-axis has period 2 pi.

    0: a small circle at (pi/2, pi/2); 1: a circle around ``iso[0]``;
    2: an ellipse around ``iso[0]`` and the record nearest it in s.
    """
    if count == 0:
        return np.pi / 2 + 0.2 * np.cos(phi), np.pi / 2 + 0.2 * np.sin(phi)
    if count == 1:
        if not iso:
            raise ConfigError("surface has no isolated umbilics to enclose")
        return iso[0].s + 0.15 * np.cos(phi), iso[0].t + 0.15 * np.sin(phi)
    if count == 2:
        if len(iso) < 2:
            raise ConfigError("surface has fewer than two umbilics")
        period = 2 * np.pi
        partner = min(iso[1:], key=lambda r: min(
            abs(r.s - iso[0].s) % period,
            period - abs(r.s - iso[0].s) % period))
        t_mid = 0.5 * (iso[0].t + partner.t)
        t_rad = 0.35 + 0.5 * abs(partner.t - iso[0].t)
        return iso[0].s + 0.35 * np.cos(phi), t_mid + t_rad * np.sin(phi)
    raise ConfigError("--enclose supports counts 0, 1, 2")


def _maslov_mirror(surface, metric, section, loop_s, loop_t):
    """The Keller-Maslov index of a parameter loop on the normal-line
    ``section`` of ``surface``, and its mirror: the winding i of the
    surface's principal line field on the same loop, with mu = 4i.

    i is taken for the loop traversed counterclockwise in the parameters,
    by the sign of its shoelace area with s unwrapped by the surface's s
    period, so a loop and its reverse give the same pair (mu is oriented
    by the direction chart already).  A stack of loops (k, n) takes one
    ``maslov_index`` and one principal-angle pass for all of them and
    gives a list of k pairs.  Raises ``UnreliableLoopError`` when a loop
    is too coarse to resolve the principal winding.
    """
    one = np.ndim(loop_s) == 1
    loop_s, loop_t = np.atleast_2d(np.asarray(loop_s, float), np.asarray(loop_t, float))
    mas = ls.maslov_index(section.source, loop_s, loop_t, section.center)
    angles = ut.principal_angles(surface, metric, loop_s, loop_t).reshape(loop_s.shape)
    (s0, s1), _ = surface.domain
    s = np.unwrap(loop_s, period=s1 - s0) if surface.periodic[0] else loop_s
    area = np.sum(s * np.roll(loop_t, -1, axis=1) - np.roll(s, -1, axis=1) * loop_t, axis=1)
    pairs = []
    for m, a, ccw in zip(mas, angles, area >= 0):
        winding = ut._loop_winding(a, np.pi)
        if winding is None:
            raise UnreliableLoopError("principal line field winding is not resolved; "
                                      "densify the loop")
        pairs.append((m, (winding if ccw else -winding) / 2.0))
    return pairs[0] if one else pairs


def caratheodory_suite(grid=(256, 192), loop_samples=2048):
    """Umbilic topology and its line-space mirror on the worked examples.

    Ellipsoid: four isolated umbilics of index 1/2 matching the complex
    points of the normal congruence, with mu = 4i on loops enclosing 0, 1
    and 2 of them.  Round sphere: everything degenerate.  Torus of
    revolution: no umbilics, index sum 0.
    """
    t0 = time.perf_counter()
    report = ScenarioReport("caratheodory-suite",
                            {"grid": list(grid), "loop_samples": loop_samples})
    flat = ct.metric_by_name("flat-r3")

    # -- triaxial ellipsoid
    ell = sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0)
    audit = ut.conjecture_audit(ell, flat, grid=grid)
    report.values["ellipsoid_audit"] = _audit_values(audit)
    report.assertions.append(Assertion(
        "ellipsoid_umbilic_count", audit["umbilic_count"], 4, 0.0, "eq",
        "derived:grid-scan"))
    report.assertions.append(Assertion(
        "ellipsoid_index_sum", audit["index_sum"], 2.0, 1e-12, "abs",
        "poincare-hopf"))
    for k, rec in enumerate(r for r in audit["records"] if r.isolated):
        report.assertions.append(Assertion(
            f"ellipsoid_index_{k}", rec.index, 0.5, 0.0, "eq",
            "derived:principal-winding"))

    section = ls.normal_congruence(ell, grid=grid)
    complex_pts = ls.complex_point_scan(section)
    report.values["complex_points"] = [
        {"s": r.s, "t": r.t, "direction": list(r.direction),
         "winding": r.winding, "index": r.index} for r in complex_pts]
    report.assertions.append(Assertion(
        "complex_point_count", len(complex_pts), 4, 0.0, "eq", "cross-module"))
    # bijection with umbilics within two grid cells (s-axis is periodic)
    cell = (section.s_axis[1] - section.s_axis[0], section.t_axis[1] - section.t_axis[0])
    worst = 0.0
    for rec in (r for r in audit["records"] if r.isolated):
        gaps = [np.max(ut._param_distance(ell.domain, ell.periodic, (cp.s, cp.t),
                                          (rec.s, rec.t)) / cell) for cp in complex_pts]
        worst = max(worst, min(gaps)) if gaps else np.inf
    report.assertions.append(Assertion(
        "complex_points_match_umbilics_cells", worst, 2.0, 0.0, "le",
        "cross-module"))

    # Maslov loops around 0, 1, 2 umbilics with the principal-winding mirror
    phi = np.linspace(0.0, 2 * np.pi, loop_samples, endpoint=False)
    iso = [r for r in audit["records"] if r.isolated]
    loops = np.array([enclosing_loop(iso, count, phi) for count in (0, 1, 2)])
    mirrors = _maslov_mirror(ell, flat, section, loops[:, 0], loops[:, 1])
    for count, (mas, i_surface) in enumerate(mirrors):
        report.values[f"maslov_enclosing_{count}"] = mas
        report.values[f"principal_index_enclosing_{count}"] = i_surface
        report.assertions.append(Assertion(
            f"maslov_value_enclosing_{count}", mas["mu"], 2 * count, 0.0, "eq",
            "derived:defect-winding"))
        report.assertions.append(Assertion(
            f"maslov_equals_4i_enclosing_{count}", mas["mu"], 4.0 * i_surface,
            1e-12, "abs", "cross-module"))

    # -- round sphere: degenerate everywhere
    sph = sg.surface_by_name("round-sphere", r=1.0)
    sph_audit = ut.conjecture_audit(sph, flat, grid=(128, 96))
    report.values["sphere_audit"] = _audit_values(sph_audit)
    report.assertions.append(Assertion(
        "sphere_non_isolated", float(sph_audit["non_isolated_present"]), 1.0,
        0.0, "eq", "degenerate-case"))
    zsec = ls.normal_congruence(sph, grid=(96, 64))
    zrec = ls.complex_point_scan(zsec)
    report.assertions.append(Assertion(
        "sphere_congruence_all_complex", float(any(not r.isolated for r in zrec)),
        1.0, 0.0, "eq", "degenerate-case"))

    # -- torus of revolution: no umbilics
    torus = sg.surface_by_name("torus-revolution", R=2.0, r=1.0)
    tor_audit = ut.conjecture_audit(torus, flat, grid=(192, 192))
    report.values["torus_audit"] = _audit_values(tor_audit)
    report.assertions.append(Assertion(
        "torus_umbilic_count", tor_audit["umbilic_count"], 0, 0.0, "eq",
        "derived:grid-scan"))
    report.assertions.append(Assertion(
        "torus_index_sum", tor_audit["index_sum"], 0.0, 0.0, "abs",
        "poincare-hopf"))
    report.runtime = time.perf_counter() - t0
    return report


def _audit_values(audit):
    out = {k: v for k, v in audit.items() if k != "records"}
    out["records"] = [
        {"s": r.s, "t": r.t, "disc": r.disc_min, "index": r.index,
         "isolated": r.isolated} for r in audit["records"]]
    return out


def run_all():
    return [willmore_sweep(), distance_bound_check(), caratheodory_suite()]
