#!/usr/bin/env python3
"""Weighted branch perturbations that unfold degenerate zero sets.

The fold x^2 has a double root that no honest linearization survives. A
one-level-up perturbation below a norm budget, supported in a certified
neighborhood of the zero set, shifts the problem into general position; the
signed weighted count of solutions is then independent of which admissible
perturbation was drawn, checked here by an interpolating family.
"""

from fractions import Fraction

import numpy as np

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

cp = pert.control_pair_build(fold, aux, margin=0.5, seed=5)
print("compactness certificate:", cp.report["surrogate"],
      "| certified:", cp.certified)

# the unperturbed fold fails the (strict) transversality screen at its root
sols0 = pert.solution_set(fold, pert.Multisection.zero(model), seed=6)
screen = pert.transversal_check(fold, pert.Multisection.zero(model), sols0,
                                floor=1e-4)
print("unperturbed fold transversal:", screen.passed)

tau0 = pert.perturb_to_transversal(fold, cp, epsilon=0.1, seed=72)
tau1 = pert.perturb_to_transversal(fold, cp, epsilon=0.1, seed=77)
print("perturbations drawn:", tau0.name, "and", tau1.name)

sols = pert.solution_set(fold, tau0, seed=8)
for b in sols:
    for p in b.points:
        print(f"  solution x={p[0]:+.4f} at branch weight {b.weight}")

count0 = pert.weighted_count(fold, sols, tau0)
print("signed weighted count:", count0, "(the two roots carry opposite signs)")

report = pert.cobordism_compare(fold, tau0, tau1, cp)
print("interpolating family transversal:",
      report.checks["family_transversal"],
      "| endpoint counts:", report.count0, "=", report.count1)
assert report.count0 == report.count1 == Fraction(0)

# exact rational weights under the convolution sum
l1 = pert.Multisection(model, [
    (pert.constant_branch_section(model, 0.1), Fraction(1, 3)),
    (pert.constant_branch_section(model, 0.2), Fraction(2, 3)),
])
l2 = pert.Multisection(model, [
    (pert.constant_branch_section(model, 1.0), Fraction(1, 4)),
    (pert.constant_branch_section(model, 2.0), Fraction(3, 4)),
])
total = pert.multisection_sum(l1, l2)
print("\nconvolution weights:", sorted(str(w) for _, w in total.branches),
      "| sum:", sum(w for _, w in total.branches))
