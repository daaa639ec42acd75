"""Named demo pipelines binding the library modules into reproducible runs.

Every scenario is a pure function of (config, seed): artifacts are written
with fixed float formatting and sorted keys so re-runs are byte-identical.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import branched_integration as bi
from . import germs as germs_mod
from . import groupoids as gpd
from . import perturbation as pert
from ._text import csv_text, dat_text, float_text, json_text
from .errors import ConfigError, check_keys, read_config
from .retracts import (
    bump_splicing,
    retract_tangent_basis,
    retraction_check,
    splicing_to_retraction,
    broken_path_demo,
)
from .sc_calculus import ScDomain, sc1_probe, shift_map, shift_point
from .sc_core import (
    FiniteDimScale,
    PartialQuadrant,
    WeightedGridScale,
)


@dataclass
class Check:
    name: str
    passed: bool
    value: object
    tolerance: object

    def row(self):
        value = self.value
        if isinstance(value, (np.floating, np.integer)):
            value = float(value)
        return {"name": self.name, "pass": bool(self.passed),
                "value": value, "tolerance": self.tolerance}


@dataclass
class ScenarioResult:
    name: str
    seed: int
    checks: list
    artifacts: dict  # filename -> text content

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def summary_json(self):
        return json_text({
            "scenario": self.name,
            "seed": self.seed,
            "checks": [c.row() for c in self.checks],
        })


# ---------------------------------------------------------------------------
# scenario: shiftmap


def run_shiftmap(params, seed):
    scale = WeightedGridScale(params["R"], params["h"], tuple(params["deltas"]))
    phi = shift_map(scale)
    g = np.exp(-scale.grid ** 2 / 2)
    x = shift_point(scale, 0.0, g, level=1)
    v = 0.3 * np.exp(-(scale.grid - 1.0) ** 2)
    d = np.concatenate([[1.0], v])
    hs = [1e-1, 1e-2, 1e-3, 1e-4]
    sc_rep = sc1_probe(phi, x, d, hs)

    saw = np.mod(scale.grid, 1.0) - 0.5
    xs = shift_point(scale, 0.0, saw, level=1)
    ds = np.concatenate([[1.0], np.zeros(scale.n)])
    cl_rep = sc1_probe(phi, xs, ds, hs, denominator_level=0)

    checks = [
        Check("sc1_slope_ge_0.9", sc_rep.slope is not None and sc_rep.slope >= 0.9,
              sc_rep.slope, 0.9),
        Check("classical_sawtooth_stagnates",
              bool(np.all(cl_rep.residuals() > 0.1)),
              float(cl_rep.residuals().min()), 0.1),
    ]
    rows = [(h, r.residual, sc_rep.slope) for h, r in zip(hs, sc_rep.rows)]
    rows += [(h, r.residual, cl_rep.slope) for h, r in zip(hs, cl_rep.rows)]
    artifacts = {
        "shiftmap_probes.csv": csv_text(
            ["h", "residual", "fitted_slope"],
            [(h, r, s or "") for h, r, s in rows]),
        "shiftmap_sc_residuals.dat": dat_text(
            [(h, r.residual) for h, r in zip(hs, sc_rep.rows)]),
        "shiftmap_classical_residuals.dat": dat_text(
            [(h, r.residual) for h, r in zip(hs, cl_rep.rows)]),
    }
    return checks, artifacts


# ---------------------------------------------------------------------------
# scenario: porkbarrel


def _bump_setup(params):
    scale = WeightedGridScale(params["R"], params["h"], tuple(params["deltas"]))
    sp = bump_splicing(scale)
    r = splicing_to_retraction(sp, name="bump")
    return scale, sp, r


def _porkbarrel_bundle():
    """Bundle over the two strata of the varying-rank demo.

    The spanned chart (two base dimensions, one fiber dimension) carries a
    trough section t^2 + ramp(s)^2 whose zero set is a compact degenerate
    segment; small shifts open it into a transversal oval. The collapsed chart
    has an empty fiber, so its whole stratum solves the equation.
    """
    base = FiniteDimScale(2, max_level=3)
    dom_a = ScDomain(PartialQuadrant(base), center=np.array([0.8, 0.0]),
                     radii=(0.55,) * 4)
    chart_a = pert.BundleChart("spanned", dom_a, FiniteDimScale(1, max_level=3))
    base_b = FiniteDimScale(1, max_level=3)
    dom_b = ScDomain(PartialQuadrant(base_b), center=np.array([-0.6]),
                     radii=(0.6,) * 4)
    chart_b = pert.BundleChart("collapsed", dom_b, FiniteDimScale(0, max_level=3))
    model = pert.StrongBundleModel([chart_a, chart_b], name="porkbarrel")

    def ramp(s):
        return np.maximum(0.0, np.abs(s - 0.8) - 0.25)

    def fn(cid, x):
        if cid != "spanned":
            return np.zeros(x.shape[:-1] + (0,))
        return x[..., 1:] ** 2 + ramp(x[..., :1]) ** 2

    def jac(cid, x):
        if cid != "spanned":
            return np.zeros(x.shape[:-1] + (0, x.shape[-1]))
        g = ramp(x[..., 0])
        gp = np.where(g > 0, 2.0 * g * np.sign(x[..., 0] - 0.8), 0.0)
        return np.stack([gp, 2 * x[..., 1]], axis=-1)[..., None, :]

    section = pert.BundleSection(model, fn, jac=jac, name="trough")
    return model, section


def run_porkbarrel(params, seed):
    scale, sp, r = _bump_setup(params)
    s_values = list(params["profile_negative"]) + list(params["profile_positive"])
    rows = []
    dims = set()
    for s in s_values:
        if s > 0:
            x = np.concatenate([[s], 0.6 * sp.f_s(s)])
        else:
            x = np.concatenate([[s], np.zeros(scale.n)])
        tb = retract_tangent_basis(r, x)
        dims.add(tb.dimension)
        rows.append({"sample": {"s": float(s)}, "level": scale.max_level,
                     "local_dimension": tb.dimension, "degeneracy_index": 0})
    idem_samples = [np.concatenate([[1.0], 0.6 * sp.f_s(1.0)]),
                    np.concatenate([[-0.5], np.zeros(scale.n)])]
    idem = retraction_check(r, idem_samples, levels=range(4))

    bundle_model, section = _porkbarrel_bundle()
    aux = pert.AuxiliaryNorm(bundle_model,
                             norm_fn=lambda cid, v: float(np.linalg.norm(v)) / 0.02)
    cp = pert.control_pair_build(section, aux, margin=0.5, seed=seed)
    tau = pert.perturb_to_transversal(section, cp, 0.1, seed=seed)
    sols = pert.solution_set(section, tau, seed=seed + 1)
    rep = pert.transversal_check(section, tau, sols)
    min_sv = min((row[3] for row in rep.rows), default=np.inf)
    strata = {b.chart_id for b in sols}

    checks = [
        Check("dimension_profile_{1,2}_jump_at_0", dims == {1, 2},
              sorted(dims), "{1, 2}"),
        Check("idempotence_levels_0_3", idem <= 1e-9, idem, 1e-9),
        Check("perturbation_found", not tau.is_zero(), tau.name, "nonzero"),
        Check("solutions_on_both_strata", strata == {"spanned", "collapsed"},
              sorted(strata), "two strata"),
        Check("perturbed_min_singular", min_sv > 1e-8, float(min_sv), 1e-8),
    ]
    sol_rows = []
    for b in sols:
        for p in b.points:
            sol_rows.append((b.chart_id, " ".join(float_text(c) for c in p),
                             b.branch_index, str(b.weight)))
    artifacts = {
        "porkbarrel_profile.json": json_text(rows),
        "porkbarrel_profile.dat": dat_text(
            [(s, row["local_dimension"]) for s, row in zip(s_values, rows)]),
        "porkbarrel_solutions.csv": csv_text(
            ["chart", "coordinates", "branch", "weight"], sol_rows),
    }
    return checks, artifacts


# ---------------------------------------------------------------------------
# scenario: brokenpath


def run_brokenpath(params, seed):
    demo = broken_path_demo(np.asarray(params["a"], dtype=float),
                            np.asarray(params["b"], dtype=float),
                            np.asarray(params["c"], dtype=float),
                            glue_values=tuple(params["glue_values"]))
    rows = demo.rows()
    broken_d = {r["degeneracy_index"] for r in rows if r["sample"]["kind"] == "broken"}
    unbroken_d = {r["degeneracy_index"] for r in rows if r["sample"]["kind"] == "unbroken"}
    checks = [
        Check("broken_stratum_d_1", broken_d == {1}, sorted(broken_d), "{1}"),
        Check("unbroken_interior_d_0", unbroken_d == {0}, sorted(unbroken_d), "{0}"),
    ]
    artifacts = {
        "brokenpath_rows.json": json_text(rows),
        "brokenpath_profile.dat": dat_text(demo.degeneracy_profile()),
    }
    return checks, artifacts


# ---------------------------------------------------------------------------
# scenario: germ


def run_germ(params, seed):
    rng = np.random.default_rng(seed)
    dim = params["fiber_dim"]
    # scaled random orthogonal matrix: operator norm and observed iteration
    # rate both equal the requested value for every seed
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= params["operator_norm"]
    gvec = rng.standard_normal(dim)
    fiber = FiniteDimScale(dim, max_level=3)
    germ = germs_mod.BasicGerm(
        1, 0, 0, fiber,
        lambda a, w, m: (q @ w[..., None])[..., 0] + gvec * a[..., :1],
        eps=(params["operator_norm"] + 1e-9,), radii=(5.0,))
    grid = np.linspace(-1.0, 1.0, params["nodes"])[:, None]
    sheet = germs_mod.solution_sheet(germ, grid, m_max=3, tol=1e-12)
    worst = 0.0
    rates = []
    solve_mat = np.eye(dim) - q
    for node in sheet.nodes:
        oracle = np.linalg.solve(solve_mat, gvec * node.a[0])
        for m in range(4):
            worst = max(worst, float(np.linalg.norm(node.deltas[m] - oracle)))
        rates.extend(max(r) for r in node.rates if r)
    rate_lo, rate_hi = min(rates), max(rates)
    checks = [
        Check("sheet_matches_direct_solve", worst <= 1e-10, worst, 1e-10),
        Check("contraction_rate_window",
              0.35 <= rate_lo and rate_hi <= 0.45,
              [rate_lo, rate_hi], "[0.35, 0.45]"),
        Check("level_coherence", sheet.max_coherence() <= 2e-12,
              sheet.max_coherence(), 2e-12),
    ]
    artifacts = {"germ_sheet.csv": sheet.to_csv()}
    return checks, artifacts


# ---------------------------------------------------------------------------
# scenario: stokes


def run_stokes(params, seed):
    disk = bi.disk_branch()
    fam = bi.BranchedFamily([disk], effective_order=1)
    omega = bi.PolynomialForm(2, 1, {(1,): bi.Polynomial.coordinate(2, 0)})
    disk_res = bi.stokes_residual(fam, omega, order=params["order"])

    two = bi.BranchedFamily(
        [bi.half_disk_branch(+1), bi.half_disk_branch(-1)], effective_order=2)
    area = bi.PolynomialForm(2, 2, {(0, 1): bi.Polynomial.constant(2, 1.0)})
    measure = bi.integrate(two, area, order=params["order"])
    brute = measure.formula_value([b.weight for b in two.branches],
                                  two.effective_order)
    rich = bi.PolynomialForm(2, 1, {
        (1,): bi.Polynomial(2, {(3, 0): 1.0, (1, 1): 0.5}),
        (0,): bi.Polynomial(2, {(0, 2): -0.25}),
    })
    orders = list(params["order_sweep"])
    residuals = [bi.stokes_residual(two, rich, order=o) for o in orders]
    monotone = all(b <= a * 1.5 for a, b in zip(residuals, residuals[1:]))

    checks = [
        Check("disk_stokes_residual", disk_res <= 1e-8, disk_res, 1e-8),
        Check("two_branch_measure_formula",
              abs(measure.value - brute) <= 1e-10,
              abs(measure.value - brute), 1e-10),
        Check("residual_decay_monotone", monotone,
              residuals, "monotone"),
        Check("final_residual", residuals[-1] <= 1e-6, residuals[-1], 1e-6),
    ]
    artifacts = {
        "stokes_residuals.csv": csv_text(
            ["order", "residual"], zip(orders, residuals)),
        "stokes_residuals.dat": dat_text(list(zip(orders, residuals))),
    }
    return checks, artifacts


# ---------------------------------------------------------------------------
# scenario: perturb


def _fold_model():
    base = FiniteDimScale(1, max_level=3)
    dom = ScDomain(PartialQuadrant(base), center=np.zeros(1), radii=(1.5,) * 4)
    chart = pert.BundleChart("main", dom, FiniteDimScale(1, max_level=3))
    model = pert.StrongBundleModel([chart], name="fold")
    f = pert.BundleSection(model, lambda cid, x: x ** 2,
                           jac=lambda cid, x: 2 * x[..., None],
                           name="fold")
    aux = pert.AuxiliaryNorm(model,
                             norm_fn=lambda cid, v: float(np.linalg.norm(v)) / 0.04)
    return model, f, aux


def run_perturb(params, seed):
    _, f, aux = _fold_model()
    cp = pert.control_pair_build(f, aux, margin=0.5, seed=seed)
    tau0 = pert.perturb_to_transversal(f, cp, params["epsilon"], seed=seed)
    tau1 = pert.perturb_to_transversal(f, cp, params["epsilon"], seed=seed + 100)
    sols0 = pert.solution_set(f, tau0, seed=seed + 1)
    rep0 = pert.transversal_check(f, tau0, sols0)
    min_sv = min((row[3] for row in rep0.rows), default=np.inf)
    norm_ok = all(tau0.norm(aux, b.chart_id, p) < params["epsilon"]
                  for b in sols0 for p in b.points)
    cob = pert.cobordism_compare(f, tau0, tau1, cp)

    bundle_model, section = _porkbarrel_bundle()
    aux_pb = pert.AuxiliaryNorm(bundle_model,
                                norm_fn=lambda cid, v: float(np.linalg.norm(v)) / 0.02)
    cp_pb = pert.control_pair_build(section, aux_pb, margin=0.5, seed=seed)
    tau_pb = pert.perturb_to_transversal(section, cp_pb, params["epsilon"],
                                         seed=seed)
    sols_pb = pert.solution_set(section, tau_pb, seed=seed + 2)
    rep_pb = pert.transversal_check(section, tau_pb, sols_pb)
    min_sv_pb = min((row[3] for row in rep_pb.rows), default=np.inf)

    checks = [
        Check("fold_perturbation_norm", norm_ok, params["epsilon"],
              f"< {params['epsilon']}"),
        Check("fold_min_singular", min_sv > 1e-8, float(min_sv), 1e-8),
        Check("fold_cobordism_counts_equal",
              cob.checks["counts_equal"],
              [str(cob.count0), str(cob.count1)], "equal"),
        Check("fold_family_transversal", cob.checks["family_transversal"],
              len(cob.family_failures), 0),
        Check("porkbarrel_min_singular", min_sv_pb > 1e-8,
              float(min_sv_pb), 1e-8),
        Check("porkbarrel_transversal", rep_pb.passed,
              len(rep_pb.failures), 0),
    ]
    artifacts = {
        "perturb_counts.json": json_text(
            {"count0": str(cob.count0), "count1": str(cob.count1)}),
    }
    return checks, artifacts


# ---------------------------------------------------------------------------
# scenario: groupoid


def run_groupoid(params, seed):
    group2 = gpd.FiniteGroup.cyclic(2)

    def reflect(g, cid, c):
        return cid, (-1.0) ** g * np.asarray(c, dtype=float)

    seeds2 = [("line", np.array([p])) for p in params["line_samples"]]
    x2 = gpd.EpGroupoid.from_translation_action(group2, seeds2, reflect)

    group3 = gpd.FiniteGroup.cyclic(3)
    ang = 2 * np.pi / 3

    def rotate(g, cid, c):
        th = ang * g
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        out = rot @ np.asarray(c, dtype=float)
        return cid, np.where(np.abs(out) < 1e-12, 0.0, out)

    seeds3 = [("plane", np.array([r, 0.0])) for r in params["plane_radii"]]
    x3 = gpd.EpGroupoid.from_translation_action(group3, seeds3, rotate)

    zero2 = x2.find_object("line", np.array([0.0]))
    iso2 = gpd.isotropy(x2, zero2)
    nat2 = gpd.natural_representation(x2, zero2)
    origin3 = x3.find_object("plane", np.array([0.0, 0.0]))
    iso3 = gpd.isotropy(x3, origin3)
    nat3 = gpd.natural_representation(x3, origin3)

    d2 = gpd.Diagram.from_functor(gpd.Functor.identity(x2))
    h = gpd.Functor.identity(x2)
    refine = gpd.refinement_check(
        d2, d2, h, lambda oi: x2.identity(oi), lambda oi: x2.identity(oi))
    comp = gpd.compose_generalized(d2, d2)
    comp_ok = comp.orbit_map() == d2.orbit_map()
    effective_divides = all(
        gpd.isotropy(x, oi).order % gpd.isotropy(x, oi).effective_order == 0
        for x in (x2, x3) for oi in range(len(x.objects)))

    checks = [
        Check("z2_isotropy_order_at_0", iso2.order == 2, iso2.order, 2),
        Check("z2_effective_part", iso2.effective_order == 2,
              iso2.effective_order, 2),
        Check("z3_isotropy_order_at_origin", iso3.order == 3, iso3.order, 3),
        Check("natural_representation_unique",
              nat2.passed and nat3.passed,
              [nat2.passed, nat3.passed], "both pass"),
        Check("refinement_reflexive", refine.passed, refine.passed, True),
        Check("generalized_composition", comp_ok, comp_ok, True),
        Check("effective_order_divides", effective_divides,
              effective_divides, True),
    ]
    report = {
        "z2_orbits": gpd.orbit_space(x2).orbit_count(),
        "z3_orbits": gpd.orbit_space(x3).orbit_count(),
        "z2_isotropy_at_0": iso2.order,
        "z3_isotropy_at_origin": iso3.order,
    }
    artifacts = {
        "groupoid_report.json": json_text(report),
    }
    return checks, artifacts


# ---------------------------------------------------------------------------
# scenario: pairing


def run_pairing(params, seed):
    _, f, aux = _fold_model()
    cp = pert.control_pair_build(f, aux, margin=0.5, seed=seed)
    one = bi.PolynomialForm(1, 0, {(): bi.Polynomial.constant(1, 1.0)})
    rep = bi.de_rham_pairing(f, cp, one, trials=params["trials"], seed=seed)
    mismatch = bi.PolynomialForm(1, 1, {(0,): bi.Polynomial.constant(1, 1.0)})
    rep_mismatch = bi.de_rham_pairing(f, cp, mismatch, trials=2, seed=seed)
    values = [str(v) for v in rep.values]
    checks = [
        Check("pairing_identical_across_trials",
              rep.stable and len(set(values)) == 1, values, "identical"),
        Check("dimension_mismatch_exactly_zero",
              all(v == 0 for v in rep_mismatch.values),
              [str(v) for v in rep_mismatch.values], "0"),
    ]
    artifacts = {
        "pairing_values.json": json_text(
            {"values": values, "mismatch": [str(v) for v in rep_mismatch.values]}),
    }
    return checks, artifacts


# ---------------------------------------------------------------------------
# registry


SCENARIOS = {
    "shiftmap": (run_shiftmap, "level-shifted versus classical difference-quotient tables for the translation map",
                 {"R": 8.0, "h": 1 / 128, "deltas": [0.0, 0.1, 0.2, 0.3]}),
    "porkbarrel": (run_porkbarrel, "dimension profile of the bump-projection retract and a transversal section over the two strata",
                   {"R": 64.0, "h": 1 / 16, "deltas": [0.0, 0.01, 0.02, 0.03],
                    "profile_negative": [-1.0, -0.75, -0.5, -0.25, -0.05],
                    "profile_positive": [0.25, 0.5, 0.75, 1.0, 1.25]}),
    "brokenpath": (run_brokenpath, "gluing-parameter chart of once-breakable paths with its degeneracy profile",
                   {"a": [0.0, 0.0], "b": [1.0, 1.0], "c": [2.0, 0.0],
                    "glue_values": [0.0, 0.08, 0.15, 0.4, 1.0]}),
    "germ": (run_germ, "parameterized fixed-point sheets with rates and level coherence",
             {"fiber_dim": 3, "operator_norm": 0.4, "nodes": 100}),
    "stokes": (run_stokes, "weighted branch measures with boundary pairing and residual-versus-order curves",
               {"order": 12, "order_sweep": [2, 4, 6, 8, 10, 12]}),
    "perturb": (run_perturb, "transversal perturbation search plus endpoint count comparison",
                {"epsilon": 0.1}),
    "groupoid": (run_groupoid, "finite symmetry orbit, isotropy, representation and composition reports",
                 {"line_samples": [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5],
                  "plane_radii": [0.0, 1.0, 2.0]}),
    "pairing": (run_pairing, "weighted count stability across seeded perturbations",
                {"trials": 5}),
}


_TOP_KEYS = {"schema", "seed", "params"}
SCHEMA = "scenario-config/1"


def load_config(name, text=None, seed_override=None):
    """Merge a strict JSON config over the scenario defaults."""
    if name not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}")
    _, _, defaults = SCENARIOS[name]
    params = copy.deepcopy(defaults)
    seed = 0
    if text is not None:
        cfg = read_config(text, _TOP_KEYS, "config keys")
        if cfg.get("schema", SCHEMA) != SCHEMA:
            raise ConfigError(
                f"unsupported schema {cfg.get('schema')!r}; expected {SCHEMA!r}")
        seed = int(cfg.get("seed", 0))
        check_keys(cfg.get("params", {}), params, f"params for scenario {name!r}")
        params.update(cfg.get("params", {}))
    if seed_override is not None:
        seed = int(seed_override)
    return params, seed


def run_scenario(name, params, seed):
    fn, _, _ = SCENARIOS[name]
    checks, artifacts = fn(params, seed)
    return ScenarioResult(name, seed, checks, artifacts)


def catalog():
    lines = []
    for name in sorted(SCENARIOS):
        _, description, _ = SCENARIOS[name]
        lines.append(f"{name:12s} {description}")
    return "\n".join(lines) + "\n"
