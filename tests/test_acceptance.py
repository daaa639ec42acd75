"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from scfold import branched_integration as bi
from scfold import germs as germs_mod
from scfold import groupoids as gpd
from scfold import perturbation as pert
from scfold.retracts import (
    bump_splicing,
    corner_invariance_check,
    retract_tangent_basis,
    retraction_check,
    splicing_to_retraction,
    tangent_independence_check,
)
from scfold.sc_calculus import ScDomain, sc1_probe, shift_map, shift_point
from scfold.sc_core import (
    FiniteDimScale,
    PartialQuadrant,
    WeightedGridScale,
    degeneracy_index,
)


def report(num, name, passed, detail=""):
    status = "pass" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name} {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


# -------------------------------------------------------------- criterion 1

def test_criterion_01_degeneracy_suite():
    start = time.perf_counter()
    scale = FiniteDimScale(5)
    quadrant = PartialQuadrant(scale, (0, 1, 2))
    rng = np.random.default_rng(101)
    tol = 1e-12
    ok = True
    for _ in range(1000):
        pt = np.empty(5)
        pt[:3] = rng.uniform(0.0, 3.0, 3)
        pt[3:] = rng.uniform(-3.0, 3.0, 2)
        zero_mask = rng.random(3) < 0.3
        pt[:3][zero_mask] = 0.0
        got = degeneracy_index(quadrant, pt, tol=tol)
        brute = sum(1 for v in pt[:3] if v <= tol)  # brute-force coordinate count
        if got != brute:
            ok = False
            break
    corner = degeneracy_index(quadrant, np.array([0.0, 0.0, 0.0, 1.0, -1.0]))
    elapsed = time.perf_counter() - start
    report(1, "degeneracy-index suite",
           ok and corner == 3 and elapsed < 1.0,
           f"corner={corner} elapsed={elapsed:.3f}s")


# -------------------------------------------------------------- criterion 2

def test_criterion_02_shift_map_dichotomy():
    start = time.perf_counter()
    scale = WeightedGridScale(8.0, 1 / 128, (0.0, 0.1, 0.2, 0.3))
    phi = shift_map(scale)
    hs = [1e-1, 1e-2, 1e-3, 1e-4]

    g = np.exp(-scale.grid ** 2 / 2)
    x = shift_point(scale, 0.0, g, level=1)
    v = 0.3 * np.exp(-(scale.grid - 1.0) ** 2)
    sc_rep = sc1_probe(phi, x, np.concatenate([[1.0], v]), hs)

    saw = np.mod(scale.grid, 1.0) - 0.5
    xs = shift_point(scale, 0.0, saw, level=1)
    cl_rep = sc1_probe(phi, xs, np.concatenate([[1.0], np.zeros(scale.n)]),
                       hs, denominator_level=0)
    elapsed = time.perf_counter() - start
    report(2, "shift-map dichotomy",
           sc_rep.slope >= 0.9 and bool(np.all(cl_rep.residuals() > 0.1))
           and elapsed < 10.0,
           f"slope={sc_rep.slope:.3f} classical_min={cl_rep.residuals().min():.3f} "
           f"elapsed={elapsed:.1f}s")


# -------------------------------------------------------------- criterion 3

def _fd_rank_oracle(r, x, probes=10, seed=0, step=1e-6):
    rng = np.random.default_rng(seed)
    cols = []
    e0 = np.zeros_like(x)
    e0[0] = 1.0
    cols.append((r(x + step * e0) - r(x - step * e0)) / (2 * step))
    for _ in range(probes):
        v = rng.standard_normal(x.size)
        v[0] = 0.0
        v /= np.linalg.norm(v)
        cols.append((r(x + step * v) - r(x - step * v)) / (2 * step))
    sing = np.linalg.svd(np.array(cols).T, compute_uv=False)
    return int(np.sum(sing / sing[0] > 1e-8))


def test_criterion_03_retraction_suite():
    scale = WeightedGridScale(64.0, 1 / 16, (0.0, 0.01, 0.02, 0.03))
    sp = bump_splicing(scale)
    r = splicing_to_retraction(sp, name="bump")

    def pt(s, t):
        fiber = t * sp.f_s(s) if s > 0 else np.zeros(scale.n)
        return np.concatenate([[s], fiber])

    rng = np.random.default_rng(3)
    noisy = []
    for s, t in ((-1.0, 0.0), (0.25, 0.5), (1.0, 0.7)):
        noise = 0.05 * rng.standard_normal(scale.n + 1)
        noise[0] = 0.0
        noisy.append(pt(s, t) + noise / np.linalg.norm(noise))
    idem = retraction_check(r, noisy, levels=range(4))

    dims = {}
    oracle = {}
    for s, t, expected in ((-1.0, 0.0, 1), (-0.25, 0.0, 1),
                           (0.25, 0.7, 2), (1.0, 0.7, 2)):
        dims[s] = retract_tangent_basis(r, pt(s, t)).dimension
        oracle[s] = _fd_rank_oracle(r, pt(s, t), seed=7)
    dims_ok = (dims[-1.0] == dims[-0.25] == 1 and dims[0.25] == dims[1.0] == 2
               and all(oracle[s] == dims[s] for s in dims))

    gap = _conjugate_gap(sp, r)
    report(3, "retraction suite",
           idem <= 1e-9 and dims_ok and gap <= 1e-8,
           f"idem={idem:.2e} dims={dims} gap={gap:.2e}")


def _conjugate_gap(sp, base_r, alpha=0.1):
    conj = _conjugate_retraction(sp, base_r, alpha)
    scale = sp.fiber

    def pt(s, t):
        fiber = t * sp.f_s(s) if s > 0 else np.zeros(scale.n)
        return np.concatenate([[s], fiber])

    samples = [pt(1.0, 0.7), pt(0.25, 0.4)]
    return tangent_independence_check(base_r, conj, samples)


def _conjugate_retraction(sp, base_r, alpha):
    scale = sp.fiber
    from scfold.retracts import Retraction

    def rescale(x):
        s, u = x[0], x[1:]
        n2 = scale.inner0(u, u)
        return np.concatenate([[s], u * (1.0 + alpha * n2)])

    def drescale(x, h):
        u, w = x[1:], h[..., 1:]
        n2 = scale.inner0(u, u)
        return np.concatenate([
            h[..., :1],
            w * (1.0 + alpha * n2) + np.multiply.outer(2.0 * alpha * scale.inner0(u, w), u)
        ], axis=-1)

    def rescale_inv(x):
        s, y = x[0], x[1:]
        n2y = scale.inner0(y, y)
        gamma = 1.0
        for _ in range(60):
            gfun = gamma * (1.0 + alpha * gamma ** 2 * n2y) - 1.0
            dg = 1.0 + 3.0 * alpha * gamma ** 2 * n2y
            step = gfun / dg
            gamma -= step
            if abs(step) < 1e-16:
                break
        return np.concatenate([[s], gamma * y])

    def drescale_inv(x, h):
        pre = rescale_inv(x)
        u = pre[1:]
        z = h[..., 1:]
        n2 = scale.inner0(u, u)
        uw = scale.inner0(u, z) / (1.0 + 3.0 * alpha * n2)
        w = (z - np.multiply.outer(2.0 * alpha * uw, u)) / (1.0 + alpha * n2)
        return np.concatenate([h[..., :1], w], axis=-1)

    return Retraction(
        base_r.domain,
        lambda x: rescale(base_r(rescale_inv(x))),
        lambda x, h: drescale(base_r(rescale_inv(x)),
                              base_r.derivative(rescale_inv(x), drescale_inv(x, h))),
        name="conjugate")


# -------------------------------------------------------------- criterion 4

def test_criterion_04_corner_recognition():
    quadrant = PartialQuadrant(FiniteDimScale(2), (0, 1))
    rng = np.random.default_rng(404)
    worst = 0
    for _ in range(20):
        a, b = rng.uniform(0.5, 2.0, 2)
        eps = rng.uniform(-0.4, 0.4)
        swap = rng.random() < 0.5

        def fwd(x, a=a, b=b, eps=eps, swap=swap):
            u = np.array([a * x[0] * (1.0 + eps * np.tanh(x[1])), b * x[1]])
            return u[::-1] if swap else u

        def inv(y, a=a, b=b, eps=eps, swap=swap):
            y = y[::-1] if swap else y
            x1 = y[1] / b
            return np.array([y[0] / (a * (1.0 + eps * np.tanh(x1))), x1])

        dst = PartialQuadrant(FiniteDimScale(2), (0, 1))
        pts = [np.array([0.0, 0.0]), np.array([1.3, 0.0]), np.array([0.0, 0.7]),
               np.array([rng.uniform(0.1, 2), rng.uniform(0.1, 2)])]
        w, _ = corner_invariance_check(fwd, inv, quadrant, dst, pts)
        worst = max(worst, w)
    report(4, "corner recognition", worst == 0, f"max_discrepancy={worst}")


# -------------------------------------------------------------- criterion 5

def test_criterion_05_germ_solver():
    rng = np.random.default_rng(505)
    dim = 3
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= 0.4
    gvec = rng.standard_normal(dim)
    fiber = FiniteDimScale(dim, max_level=3)
    germ = germs_mod.BasicGerm(
        1, 0, 0, fiber,
        lambda a, w, m: (q @ w[..., None])[..., 0] + gvec * a[..., :1],
        eps=(0.4 + 1e-9,), radii=(5.0,))
    grid = np.linspace(-1.0, 1.0, 100)[:, None]
    start = time.perf_counter()
    sheet = germs_mod.solution_sheet(germ, grid, m_max=3, tol=1e-12)
    elapsed = time.perf_counter() - start
    solve_mat = np.eye(dim) - q
    worst = 0.0
    rates = []
    for node in sheet.nodes:
        oracle = np.linalg.solve(solve_mat, gvec * node.a[0])
        for m in range(4):
            worst = max(worst, float(np.linalg.norm(node.deltas[m] - oracle)))
        rates.extend(max(rr) for rr in node.rates if rr)
    coh = sheet.max_coherence()
    rate_ok = min(rates) >= 0.35 and max(rates) <= 0.45
    report(5, "germ solver",
           worst <= 1e-10 and rate_ok and coh <= 2e-12 and elapsed < 1.0,
           f"err={worst:.2e} rates=[{min(rates):.3f},{max(rates):.3f}] "
           f"coherence={coh:.2e} elapsed={elapsed:.2f}s")


# -------------------------------------------------------------- criterion 6

def test_criterion_06_multisection_algebra():
    base = FiniteDimScale(1, max_level=3)
    dom = ScDomain(PartialQuadrant(base), center=np.zeros(1), radii=(1.5,) * 4)
    chart = pert.BundleChart("main", dom, FiniteDimScale(1, max_level=3))
    model = pert.StrongBundleModel([chart])
    aux = pert.AuxiliaryNorm(model)
    rng = np.random.default_rng(606)

    def random_multisection():
        k = int(rng.integers(1, 5))
        raw = rng.integers(1, 6, size=k)
        total = int(raw.sum())
        branches = []
        for i in range(k):
            val = float(np.round(rng.uniform(-1, 1), 3))
            sec = pert.BundleSection(
                model, lambda cid, x, v=val: np.array([v]), tag="sc_plus",
                jac=lambda cid, x: np.zeros((1, x.size)), name=f"c{val}")
            branches.append((sec, Fraction(int(raw[i]), total)))
        return pert.Multisection(model, branches)

    ok = True
    for _ in range(10):
        l1, l2 = random_multisection(), random_multisection()
        total = pert.multisection_sum(l1, l2)
        if sum(w for _, w in total.branches) != 1:
            ok = False
            break
        x = np.zeros(1)
        targets = {round(float(s1("main", x)[0] + s2("main", x)[0]), 9)
                   for s1, _ in l1.branches for s2, _ in l2.branches}
        targets |= {0.123, -0.5}
        for tval in targets:
            e = model.element("main", x, 1, np.array([tval]), 1)
            brute = Fraction(0)
            for s1, w1 in l1.branches:
                h2 = np.array([tval]) - s1("main", x)
                e2 = model.element("main", x, 1, h2, 1)
                brute += w1 * l2.eval(e2)
            if total.eval(e) != brute:
                ok = False
                break
        if not ok:
            break

    sub_ok = True
    l1, l2 = random_multisection(), random_multisection()
    total = pert.multisection_sum(l1, l2)
    for _ in range(1000):
        z = rng.uniform(-1.4, 1.4, size=1)
        lhs = pert.multisection_norm(total, aux, "main", z)
        rhs = (pert.multisection_norm(l1, aux, "main", z)
               + pert.multisection_norm(l2, aux, "main", z))
        if lhs > rhs + 1e-12:
            sub_ok = False
            break
    report(6, "multisection algebra", ok and sub_ok,
           f"convolution_exact={ok} subadditive={sub_ok}")


# -------------------------------------------------------------- criterion 7

def test_criterion_07_transversal_perturbation():
    start = time.perf_counter()
    base = FiniteDimScale(1, max_level=3)
    dom = ScDomain(PartialQuadrant(base), center=np.zeros(1), radii=(1.5,) * 4)
    chart = pert.BundleChart("main", dom, FiniteDimScale(1, max_level=3))
    model = pert.StrongBundleModel([chart])
    f = pert.BundleSection(model, lambda cid, x: x ** 2,
                           jac=lambda cid, x: 2 * x[..., None],
                           name="fold")
    aux = pert.AuxiliaryNorm(model,
                             norm_fn=lambda cid, v: float(np.linalg.norm(v)) / 0.04)
    cp = pert.control_pair_build(f, aux, margin=0.5, seed=70)
    # seeds chosen so both perturbed problems have nonempty solution sets
    tau0 = pert.perturb_to_transversal(f, cp, 0.1, seed=72)
    tau1 = pert.perturb_to_transversal(f, cp, 0.1, seed=77)
    sols = pert.solution_set(f, tau0, seed=73)
    assert sum(len(b.points) for b in sols) == 2
    rep = pert.transversal_check(f, tau0, sols)
    min_sv = min(row[3] for row in rep.rows)
    norm_ok = all(tau0.norm(aux, b.chart_id, p) < 0.1
                  for b in sols for p in b.points)
    support_ok = all(cp.region.contains(b.chart_id, p)
                     for b in sols for p in b.points)
    cob = pert.cobordism_compare(f, tau0, tau1, cp)

    from scfold.scenarios import _porkbarrel_bundle

    pb_model, section = _porkbarrel_bundle()
    aux_pb = pert.AuxiliaryNorm(pb_model,
                                norm_fn=lambda cid, v: float(np.linalg.norm(v)) / 0.02)
    cp_pb = pert.control_pair_build(section, aux_pb, margin=0.5, seed=74)
    tau_pb = pert.perturb_to_transversal(section, cp_pb, 0.1, seed=74)
    sols_pb = pert.solution_set(section, tau_pb, seed=75)
    rep_pb = pert.transversal_check(section, tau_pb, sols_pb)
    min_sv_pb = min(row[3] for row in rep_pb.rows)
    elapsed = time.perf_counter() - start
    report(7, "transversal perturbation",
           min_sv > 1e-8 and norm_ok and support_ok
           and cob.checks["counts_equal"] and cob.count0 == cob.count1
           and min_sv_pb > 1e-8 and rep_pb.passed and elapsed < 30.0,
           f"min_sv={min_sv:.2e} counts=({cob.count0},{cob.count1}) "
           f"pb_min_sv={min_sv_pb:.2e} elapsed={elapsed:.1f}s")


# -------------------------------------------------------------- criterion 8

def test_criterion_08_weighted_stokes():
    start = time.perf_counter()
    disk = bi.BranchedFamily([bi.disk_branch()], effective_order=1)
    omega = bi.PolynomialForm(2, 1, {(1,): bi.Polynomial.coordinate(2, 0)})
    disk_res = bi.stokes_residual(disk, omega, order=12)

    two = bi.BranchedFamily([bi.half_disk_branch(+1), bi.half_disk_branch(-1)],
                            effective_order=2)
    area = bi.PolynomialForm(2, 2, {(0, 1): bi.Polynomial.constant(2, 1.0)})
    measure = bi.integrate(two, area, order=12)
    brute = sum(float(b.weight) * raw
                for b, (_, raw) in zip(two.branches, measure.per_branch)) / 2.0
    formula_ok = abs(measure.value - brute) <= 1e-10

    rich = bi.PolynomialForm(2, 1, {
        (1,): bi.Polynomial(2, {(3, 0): 1.0, (1, 1): 0.5}),
        (0,): bi.Polynomial(2, {(0, 2): -0.25}),
    })
    orders = [2, 4, 6, 8, 10, 12]
    residuals = [bi.stokes_residual(two, rich, order=o) for o in orders]
    monotone = all(b <= a for a, b in zip(residuals, residuals[1:]))
    elapsed = time.perf_counter() - start
    report(8, "weighted Stokes",
           disk_res <= 1e-8 and formula_ok and monotone
           and residuals[-1] <= 1e-6 and elapsed < 5.0,
           f"disk={disk_res:.2e} final={residuals[-1]:.2e} elapsed={elapsed:.1f}s")


# -------------------------------------------------------------- criterion 9

def test_criterion_09_groupoid_suite():
    start = time.perf_counter()
    group2 = gpd.FiniteGroup.cyclic(2)

    def reflect(g, cid, c):
        return cid, (-1.0) ** g * np.asarray(c, dtype=float)

    x2 = gpd.EpGroupoid.from_translation_action(
        group2, [("line", np.array([p])) for p in (-1.0, -0.5, 0.0, 0.5, 1.0)],
        reflect)
    zero = x2.find_object("line", np.array([0.0]))
    iso2 = gpd.isotropy(x2, zero)
    nat2 = gpd.natural_representation(x2, zero)

    group3 = gpd.FiniteGroup.cyclic(3)
    ang = 2 * np.pi / 3

    def rotate(g, cid, c):
        th = ang * g
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        out = rot @ np.asarray(c, dtype=float)
        return cid, np.where(np.abs(out) < 1e-12, 0.0, out)

    x3 = gpd.EpGroupoid.from_translation_action(
        group3, [("plane", np.array([r, 0.0])) for r in (0.0, 1.0)], rotate)
    origin = x3.find_object("plane", np.array([0.0, 0.0]))
    iso3 = gpd.isotropy(x3, origin)
    nat3 = gpd.natural_representation(x3, origin)

    # trivial Z2 action: fully non-effective isotropy
    def still(g, cid, c):
        return cid, np.asarray(c, dtype=float)

    xt = gpd.EpGroupoid.from_translation_action(
        group2, [("line", np.array([0.0])), ("line", np.array([1.0]))], still)
    isot = gpd.isotropy(xt, 0)

    d = gpd.Diagram.from_functor(gpd.Functor.identity(x2))
    h = gpd.Functor.identity(x2)
    tau = lambda oi: x2.identity(oi)
    r1 = gpd.refinement_check(d, d, h, tau, tau)
    r2 = gpd.refinement_check(d, d, gpd.compose_functors(h, h), tau, tau)
    comp = gpd.compose_generalized(d, d)
    comp_ok = comp.orbit_map() == d.orbit_map()
    elapsed = time.perf_counter() - start
    passed = (iso2.order == 2 and iso2.effective_order == 2
              and iso3.order == 3 and isot.order == 2
              and isot.effective_order == 1
              and nat2.passed and nat3.passed
              and r1.passed and r2.passed and comp_ok and elapsed < 1.0)
    report(9, "groupoid suite", passed,
           f"iso=({iso2.order},{iso3.order},{isot.order}) elapsed={elapsed:.2f}s")


# ------------------------------------------------------------- criterion 10

def test_criterion_10_pairing_stability():
    base = FiniteDimScale(1, max_level=3)
    dom = ScDomain(PartialQuadrant(base), center=np.zeros(1), radii=(1.5,) * 4)
    chart = pert.BundleChart("main", dom, FiniteDimScale(1, max_level=3))
    model = pert.StrongBundleModel([chart])
    f = pert.BundleSection(model, lambda cid, x: x ** 2,
                           jac=lambda cid, x: 2 * x[..., None],
                           name="fold")
    aux = pert.AuxiliaryNorm(model,
                             norm_fn=lambda cid, v: float(np.linalg.norm(v)) / 0.04)
    cp = pert.control_pair_build(f, aux, margin=0.5, seed=100)
    one = bi.PolynomialForm(1, 0, {(): bi.Polynomial.constant(1, 1.0)})
    rep = bi.de_rham_pairing(f, cp, one, trials=5, seed=100)
    identical = len({str(v) for v in rep.values}) == 1
    all_rational = all(isinstance(v, Fraction) for v in rep.values)

    mism = bi.PolynomialForm(1, 1, {(0,): bi.Polynomial.constant(1, 1.0)})
    rep_m = bi.de_rham_pairing(f, cp, mism, trials=2, seed=101)
    zero_exact = all(v == 0 for v in rep_m.values)

    # degree one: x^3 has weighted count 1 under every small perturbation, so
    # a pairing that loses or doubles a solution shows here (x^2 counts 0)
    g = pert.BundleSection(model, lambda cid, x: x ** 3,
                           jac=lambda cid, x: 3 * x[..., None] ** 2,
                           name="cubic")
    cp_g = pert.control_pair_build(g, aux, margin=0.5, seed=100)
    rep_g = bi.de_rham_pairing(g, cp_g, one, trials=5, seed=100)
    degree_one = ([str(v) for v in rep_g.values] == ["1"] * 5
                  and rep_g.stable and rep_g.dimension_matched)
    report(10, "deRham pairing stability",
           identical and all_rational and rep.dimension_matched and zero_exact
           and degree_one,
           f"values={[str(v) for v in rep.values]} mismatch_zero={zero_exact} "
           f"cubic_values={[str(v) for v in rep_g.values]}")
