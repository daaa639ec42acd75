#!/usr/bin/env python3
"""Integration over weighted branch families and the boundary pairing.

The measure of a region is the weighted sum of per-branch pull-back
integrals divided by the effective symmetry order. With exact exterior
derivatives on polynomial forms, the Stokes identity holds to quadrature
precision, and integrating over perturbed solution sets yields counts that
do not depend on the perturbation.
"""

from fractions import Fraction

import numpy as np

from scfold import branched_integration as bi

# a unit disk assembled from four polar cells
disk = bi.BranchedFamily([bi.disk_branch()], effective_order=1)
x_dy = bi.PolynomialForm(2, 1, {(1,): bi.Polynomial.coordinate(2, 0)})
area = bi.PolynomialForm(2, 2, {(0, 1): bi.Polynomial.constant(2, 1.0)})

inner = bi.integrate(disk, bi.exterior_derivative(x_dy), order=12)
outer = bi.integrate_boundary(disk, x_dy, order=12)
print(f"area integral of d(x dy): {inner.value:.12f}")
print(f"boundary integral of x dy: {outer.value:.12f}")
print(f"Stokes residual: {abs(inner.value - outer.value):.2e}   (pi = {np.pi:.12f})")

# two half disks at weight 1/2 with a symmetry of order two: the diameter
# contributions cancel, the normalization halves everything again
halves = bi.BranchedFamily([bi.half_disk_branch(+1), bi.half_disk_branch(-1)],
                           effective_order=2)
measure = bi.integrate(halves, area, order=12)
print("\ntwo-branch weighted measure:", round(measure.value, 10),
      "= pi/4 =", round(np.pi / 4, 10))
print("per-branch raw integrals:",
      [(n, round(float(v), 6)) for n, v in measure.per_branch])

residuals = [bi.stokes_residual(halves, x_dy, order=o) for o in (2, 4, 8, 12)]
print("Stokes residuals by quadrature order:",
      ["%.1e" % r for r in residuals])

# membership-weighted evaluation: the weight function of the support
theta = bi.theta_eval(halves, np.array([0.3, 0.2]))
print("weight at an interior point:", theta)

# pairing a 0-form against perturbed fold solutions: the signed count is
# perturbation independent, exactly
from scfold import perturbation as pert
from scfold.sc_calculus import ScDomain
from scfold.sc_core import FiniteDimScale, PartialQuadrant

base = FiniteDimScale(1, max_level=3)
domain = ScDomain(PartialQuadrant(base), center=np.zeros(1), radii=(1.5,) * 4)
chart = pert.BundleChart("main", domain, FiniteDimScale(1, max_level=3))
model = pert.StrongBundleModel([chart])
fold = pert.BundleSection(model, lambda cid, x: x ** 2,
                          jac=lambda cid, x: 2 * x[..., None],
                          name="fold")
aux = pert.AuxiliaryNorm(model,
                         norm_fn=lambda cid, v: float(np.linalg.norm(v)) / 0.04)
cp = pert.control_pair_build(fold, aux, margin=0.5, seed=9)

one = bi.PolynomialForm(1, 0, {(): bi.Polynomial.constant(1, 1.0)})
report = bi.de_rham_pairing(fold, cp, one, trials=5, seed=11)
print("\npairing values across five perturbations:",
      [str(v) for v in report.values], "| stable:", report.stable)

mismatch = bi.PolynomialForm(1, 1, {(0,): bi.Polynomial.constant(1, 1.0)})
rep2 = bi.de_rham_pairing(fold, cp, mismatch, trials=1, seed=12)
print("degree mismatch returns exactly:", rep2.values[0])
assert rep2.values[0] == 0
