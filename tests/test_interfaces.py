"""Serialization surfaces: structured text loaders and JSON report emitters."""

import json
from fractions import Fraction

import numpy as np
import pytest

from scfold import branched_integration as bi
from scfold import perturbation as pert
from scfold.errors import ConfigError
from scfold.groupoids import (
    EpGroupoid,
    FiniteGroup,
    Functor,
    groupoid_from_config,
    is_equivalence,
    report_json,
)
from scfold.sc_calculus import ScDomain
from scfold.sc_core import CircleGridScale, FiniteDimScale, PartialQuadrant, scale_from_config
from scfold.scenarios import load_config


def small_model():
    base = FiniteDimScale(1, max_level=2)
    dom = ScDomain(PartialQuadrant(base), center=np.zeros(1), radii=(1.0,) * 3)
    chart = pert.BundleChart("main", dom, FiniteDimScale(1, max_level=2))
    return pert.StrongBundleModel([chart])


def test_multisection_roundtrip():
    model = small_model()
    lam = pert.Multisection(model, [
        (pert.constant_branch_section(model, [0.25]), Fraction(1, 3)),
        (pert.constant_branch_section(model, [-0.5]), Fraction(2, 3)),
    ])
    text = lam.describe()
    loaded = pert.multisection_from_config(model, text_to_cfg(text))
    for v in (0.25, -0.5, 0.1):
        e = model.element("main", np.zeros(1), 1, np.array([v]), 1)
        assert loaded.eval(e) == lam.eval(e)


def text_to_cfg(text):
    cfg = json.loads(text)
    for row in cfg["branches"]:
        row.pop("name", None)
    return cfg


def test_multisection_config_rejects_unknown_kind():
    model = small_model()
    with pytest.raises(ConfigError, match="kind"):
        pert.multisection_from_config(model, {
            "schema": "multisection/1",
            "branches": [{"kind": "mystery", "weight": "1"}],
        })


def test_multisection_eval_alias():
    model = small_model()
    lam = pert.Multisection.zero(model)
    e = model.element("main", np.zeros(1), 1, np.zeros(1), 1)
    assert pert.multisection_eval(lam, e) == Fraction(1)


def test_form_from_config_matches_direct():
    cfg = {
        "schema": "form/1",
        "n_vars": 2,
        "degree": 1,
        "terms": {"1": {"1,0": 1.0}},  # x dy
    }
    form = bi.form_from_config(cfg)
    direct = bi.PolynomialForm(2, 1, {(1,): bi.Polynomial.coordinate(2, 0)})
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(2)
        v = rng.standard_normal(2)
        assert form(x, v) == pytest.approx(direct(x, v), abs=1e-14)


def test_form_config_unknown_key():
    with pytest.raises(ConfigError):
        bi.form_from_config({"n_vars": 2, "degree": 1, "terms": {}, "junk": 1})


def test_groupoid_report_json():
    group = FiniteGroup.cyclic(2)

    def reflect(g, cid, c):
        return cid, (-1.0) ** g * np.asarray(c, dtype=float)

    x = EpGroupoid.from_translation_action(
        group, [("line", np.array([0.0])), ("line", np.array([1.0]))], reflect)
    rep = is_equivalence(Functor.identity(x))
    payload = json.loads(report_json(rep))
    assert payload["passed"] is True
    assert "orbit_bijection_ok" in payload


def test_morphism_invariance_of_rotation_symmetric_form():
    # the area form is invariant under rotations; a generic 1-form is not
    area = bi.PolynomialForm(2, 2, {(0, 1): bi.Polynomial.constant(2, 1.0)})
    th = 2 * np.pi / 3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(10):
        x = rng.standard_normal(2)
        vs = [rng.standard_normal(2) for _ in range(2)]
        pairs.append((x, vs, rot @ x, [rot @ v for v in vs]))
    assert bi.morphism_invariance_residual(area, pairs) <= 1e-12

    skew = bi.PolynomialForm(2, 1, {(0,): bi.Polynomial.constant(2, 1.0)})
    pairs1 = []
    for _ in range(10):
        x = rng.standard_normal(2)
        v = rng.standard_normal(2)
        pairs1.append((x, [v], rot @ x, [rot @ v]))
    assert bi.morphism_invariance_residual(skew, pairs1) > 1e-3


# one entry per config loader, each called on JSON text
LOADERS = {
    "scale": scale_from_config,
    "multisection": lambda text: pert.multisection_from_config(small_model(), text),
    "family": bi.family_from_config,
    "form": bi.form_from_config,
    "groupoid": groupoid_from_config,
    "scenario": lambda text: load_config("germ", text),
}

_TRIVIAL_GROUPOID = {"group": {"kind": "trivial"}, "action": {"kind": "trivial"}}


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_config_parse_error_gives_line_and_column(loader):
    with pytest.raises(ConfigError) as info:
        LOADERS[loader]('{"schema": }')
    assert str(info.value) == "config parse error at line 1, column 12: Expecting value"


@pytest.mark.parametrize("loader, cfg, message", [
    ("scale", {"bogus": 1}, "unknown scale config keys: ['bogus']"),
    ("multisection", {"bogus": 1}, "unknown multisection keys: ['bogus']"),
    ("family", {"bogus": 1}, "unknown family config keys: ['bogus']"),
    ("form", {"bogus": 1}, "unknown form config keys: ['bogus']"),
    ("groupoid", {"bogus": 1}, "unknown groupoid config keys: ['bogus']"),
    ("scenario", {"bogus": 1}, "unknown config keys: ['bogus']"),
    ("multisection", {"branches": [{"kind": "zero", "weight": "1", "bogus": 1}]},
     "unknown branch keys: ['bogus']"),
    ("family", {"branches": [{"weight": "1", "cells": [], "bogus": 1}]},
     "unknown branch keys: ['bogus']"),
    ("family", {"branches": [{"weight": "1", "cells": [{"dim": 1, "map": [], "bogus": 1}]}]},
     "unknown cell keys: ['bogus']"),
    ("groupoid", {**_TRIVIAL_GROUPOID,
                  "charts": [{"name": "a", "dim": 1, "samples": [], "bogus": 1}]},
     "unknown chart keys: ['bogus']"),
    ("scenario", {"params": {"bogus": 1}}, "unknown params for scenario 'germ': ['bogus']"),
])
def test_config_unknown_key_message(loader, cfg, message):
    with pytest.raises(ConfigError) as info:
        LOADERS[loader](json.dumps(cfg))
    assert str(info.value) == message


@pytest.mark.parametrize("loader, cfg, message", [
    ("scale", {"backend": "spectral"}, "unknown backend 'spectral'"),
    ("scale", {"backend": "weighted_grid", "grid": [4.0, 0.0625], "deltas": [0.0]},
     "weighted_grid needs grid = {R, h}"),
    ("scale", {"backend": "weighted_grid", "grid": {"R": 4.0, "h": 0.0625, "n": 9},
               "deltas": [0.0]},
     "weighted_grid needs grid = {R, h}"),
    ("groupoid", {"group": {"kind": "dihedral", "order": 4}, "action": {"kind": "trivial"}},
     "unknown group kind 'dihedral'"),
    ("groupoid", {"group": {"kind": "cyclic", "order": 2}, "action": {"kind": "shear"}},
     "unknown action kind 'shear'"),
    ("groupoid", {"group": {"kind": "cyclic", "order": 2},
                  "action": {"kind": "linear", "matrices": [[[1.0]]]}},
     "need one matrix per group element"),
    ("scenario", {"schema": "scenario-config/2"},
     "unsupported schema 'scenario-config/2'; expected 'scenario-config/1'"),
])
def test_config_rejection_message(loader, cfg, message):
    with pytest.raises(ConfigError) as info:
        LOADERS[loader](json.dumps(cfg))
    assert str(info.value) == message


def test_scale_from_config_circle_grid_matches_direct():
    s = scale_from_config('{"backend": "circle_grid", "n": 32, "max_level": 2,'
                          ' "orders": [1, 2, 3]}')
    direct = CircleGridScale(32, 2, [1, 2, 3])
    assert (s.n, s.max_level, s.orders) == (direct.n, direct.max_level, direct.orders)
    u = np.sin(direct.grid)
    for m in range(3):
        assert s.norm(u, m) == direct.norm(u, m)


def _rotation(g, cid, c):
    th = 2 * np.pi / 3 * g
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return cid, rot @ np.asarray(c, dtype=float)


def _swap(g, cid, c):
    mats = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]
    return cid, mats[g] @ np.asarray(c, dtype=float)


def _fixed(g, cid, c):
    return cid, np.asarray(c, dtype=float)


@pytest.mark.parametrize("group, action, direct", [
    ({"kind": "cyclic", "order": 3}, {"kind": "rotation"},
     (FiniteGroup.cyclic(3), _rotation)),
    ({"kind": "trivial"}, {"kind": "trivial"}, (FiniteGroup.trivial(), _fixed)),
    ({"kind": "cyclic", "order": 2},
     {"kind": "linear", "matrices": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]},
     (FiniteGroup.cyclic(2), _swap)),
])
def test_groupoid_from_config_matches_direct(group, action, direct):
    samples = [[1.0, 0.0], [0.5, 2.0]]
    x = groupoid_from_config({"schema": "groupoid/1", "group": group, "action": action,
                              "charts": [{"name": "plane", "dim": 2, "samples": samples}]})
    y = EpGroupoid.from_translation_action(
        direct[0], [("plane", np.array(s)) for s in samples], direct[1])
    assert x.translation["group"].table == y.translation["group"].table
    assert [cid for cid, _ in x.objects] == [cid for cid, _ in y.objects]
    for (_, a), (_, b) in zip(x.objects, y.objects):
        assert np.array_equal(a, b)
    assert ([(m.src, m.tgt, m.label) for m in x.morphisms]
            == [(m.src, m.tgt, m.label) for m in y.morphisms])


def test_multisection_config_zero_branch_matches_zero():
    model = small_model()
    loaded = pert.multisection_from_config(model, {
        "schema": "multisection/1", "branches": [{"kind": "zero", "weight": "1"}]})
    zero = pert.Multisection.zero(model)
    assert loaded.is_zero()
    assert [w for _, w in loaded.branches] == [w for _, w in zero.branches]
    for x in (np.zeros(1), np.array([0.4])):
        for (s, _), (t, _) in zip(loaded.branches, zero.branches):
            assert np.array_equal(s("main", x), t("main", x))
            assert np.array_equal(s.jac("main", x), t.jac("main", x))


def test_multisection_zero_round_trips_through_its_description():
    model = small_model()
    zero = pert.Multisection.zero(model)
    loaded = pert.multisection_from_config(model, zero.describe())
    assert loaded.is_zero()
    assert loaded.describe() == zero.describe()


def test_constant_branch_named_zero_is_not_zero():
    model = small_model()
    branch = pert.constant_branch_section(model, [1.0], name="zero")
    assert not pert.Multisection(model, [(branch, 1)]).is_zero()
