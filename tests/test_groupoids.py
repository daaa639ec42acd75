import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scfold.errors import BackendUnsupportedError, ConfigError
from scfold.groupoids import (
    Diagram,
    EpGroupoid,
    FiniteGroup,
    Functor,
    compose_functors,
    compose_generalized,
    groupoid_from_config,
    is_equivalence,
    isotropy,
    natural_representation,
    natural_transformation_check,
    orbit_space,
    refinement_check,
)


def reflection_groupoid(points=(-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)):
    group = FiniteGroup.cyclic(2)

    def action(g, cid, c):
        return cid, (-1.0) ** g * np.asarray(c, dtype=float)

    seeds = [("line", np.array([p])) for p in points]
    return EpGroupoid.from_translation_action(group, seeds, action)


def rotation_groupoid(radii=(0.0, 1.0, 2.0)):
    group = FiniteGroup.cyclic(3)
    angle = 2 * np.pi / 3

    def action(g, cid, c):
        th = angle * g
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        out = rot @ np.asarray(c, dtype=float)
        return cid, np.where(np.abs(out) < 1e-12, 0.0, out)

    seeds = [("plane", np.array([r, 0.0])) for r in radii]
    return EpGroupoid.from_translation_action(group, seeds, action)


def trivial_action_groupoid(points=(-1.0, 0.0, 1.0)):
    group = FiniteGroup.cyclic(2)

    def action(g, cid, c):
        return cid, np.asarray(c, dtype=float)

    seeds = [("line", np.array([p])) for p in points]
    return EpGroupoid.from_translation_action(group, seeds, action)


def identity_only_groupoid(points=(0.0, 1.0)):
    group = FiniteGroup.trivial()

    def action(g, cid, c):
        return cid, np.asarray(c, dtype=float)

    return EpGroupoid.from_translation_action(
        group, [("line", np.array([p])) for p in points], action)


def full_subgroupoid(x, object_indices):
    """Full subgroupoid on the given objects, relabelled to fresh indices."""
    keep = sorted(object_indices)
    old_to_new = {o: i for i, o in enumerate(keep)}
    objects = [x.objects[o] for o in keep]
    specs = []
    for m in x.morphisms:
        if m.src in old_to_new and m.tgt in old_to_new:
            specs.append((old_to_new[m.src], old_to_new[m.tgt], m.label))
    sub = EpGroupoid(objects, specs,
                     compose_label=x._compose_label,
                     inverse_label=x._inverse_label,
                     identity_label=lambda oi: x._identity_label(keep[oi]),
                     translation=x.translation, name="sub")
    sub._parent_objects = keep
    return sub


def inclusion_functor(sub, x):
    keep = sub._parent_objects
    mor_map = {}
    for m in sub.morphisms:
        target_idx = x._lookup[(keep[m.src], keep[m.tgt], m.label)]
        mor_map[m.idx] = target_idx
    return Functor(sub, x, lambda oi: keep[oi], lambda mi: mor_map[mi],
                   coordinate_map=lambda cid, c: (cid, c), name="incl")


# ----------------------------------------------------------------- orbit space

def test_orbits_identity_groupoid_singletons():
    x = identity_only_groupoid()
    os = orbit_space(x)
    assert os.orbit_count() == 2
    assert all(len(v) == 1 for v in os.members.values())


def test_orbits_reflection():
    x = reflection_groupoid()
    os = orbit_space(x)
    zero = x.find_object("line", np.array([0.0]))
    assert len(os.members[os.orbit_of(zero)]) == 1
    one = x.find_object("line", np.array([1.0]))
    assert len(os.members[os.orbit_of(one)]) == 2
    assert os.orbit_count() == 4  # 0 and three +- pairs


def test_orbits_rotation_free_off_origin():
    x = rotation_groupoid()
    os = orbit_space(x)
    origin = x.find_object("plane", np.array([0.0, 0.0]))
    for rep in os.representatives:
        size = len(os.members[rep])
        assert size == (1 if rep == origin else 3)


# ------------------------------------------------------------------- isotropy

def test_isotropy_reflection_at_zero():
    x = reflection_groupoid()
    zero = x.find_object("line", np.array([0.0]))
    iso = isotropy(x, zero)
    assert iso.order == 2
    assert len(iso.non_effective) == 1  # the reflection moves nearby points
    assert iso.effective_order == 2


def test_isotropy_reflection_off_zero():
    x = reflection_groupoid()
    one = x.find_object("line", np.array([1.0]))
    iso = isotropy(x, one)
    assert iso.order == 1


def test_isotropy_trivial_action_fully_noneffective():
    x = trivial_action_groupoid()
    zero = x.find_object("line", np.array([0.0]))
    iso = isotropy(x, zero)
    assert iso.order == 2
    assert len(iso.non_effective) == 2
    assert iso.effective_order == 1


def test_effective_order_divides_isotropy_order():
    for x in (reflection_groupoid(), rotation_groupoid(), trivial_action_groupoid()):
        for oi in range(len(x.objects)):
            iso = isotropy(x, oi)
            assert iso.order % iso.effective_order == 0


# ------------------------------------------------------- natural representation

def test_natural_representation_trivial_isotropy():
    x = reflection_groupoid()
    one = x.find_object("line", np.array([1.0]))
    rep = natural_representation(x, one, radius=0.4)
    assert rep.passed


def test_natural_representation_reflection_at_zero():
    x = reflection_groupoid()
    zero = x.find_object("line", np.array([0.0]))
    rep = natural_representation(x, zero)
    assert rep.passed
    assert len(rep.neighborhood) == len([o for o in x.objects if o[0] == "line"])


def test_natural_representation_rotation_origin():
    x = rotation_groupoid()
    origin = x.find_object("plane", np.array([0.0, 0.0]))
    rep = natural_representation(x, origin)
    assert rep.passed
    # enumeration oracle: between members of an orbit of size k there are
    # exactly |G| / k morphisms per ordered pair
    os = orbit_space(x)
    for r in os.representatives:
        members = os.members[r]
        for a in members:
            for b in members:
                assert len(x.morphisms_between(a, b)) == 3 // len(members)


def test_natural_representation_needs_translation_backend():
    x = reflection_groupoid()
    sub = full_subgroupoid(x, range(len(x.objects)))
    sub.translation = None
    with pytest.raises(BackendUnsupportedError):
        natural_representation(sub, 0)


# --------------------------------------------------------------- is_equivalence

def test_identity_functor_is_equivalence():
    x = reflection_groupoid()
    rep = is_equivalence(Functor.identity(x))
    assert rep.passed


@pytest.mark.parametrize("scale", [1.0, 1e-9])
def test_scaled_coordinate_map_is_a_local_diffeomorphism(scale):
    # the rank is relative to the Jacobian's own scale, not an absolute cutoff
    f = Functor.identity(reflection_groupoid())
    f.coordinate_map = lambda cid, z: (cid, scale * z)
    rep = is_equivalence(f)
    assert rep.passed and rep.jacobian_checked


def test_coordinate_map_with_zero_jacobian_is_singular():
    f = Functor.identity(reflection_groupoid())
    f.coordinate_map = lambda cid, z: (cid, 0.0 * z)
    rep = is_equivalence(f)
    assert not rep.passed
    assert {w[0] for w in rep.witnesses} == {"singular-jacobian"}


def test_coordinate_map_of_undecidable_rank_is_a_witness():
    x = rotation_groupoid()
    f = Functor.identity(x)
    f.coordinate_map = lambda cid, z: (cid, np.array([1.0, 1e-9]) * z)
    rep = is_equivalence(f)
    assert not rep.passed
    assert rep.witnesses == [("ambiguous-rank", oi)
                             for oi in range(len(x.objects))]


def test_full_subgroupoid_inclusion_is_equivalence():
    x = reflection_groupoid()
    # keep one representative pair per orbit plus the fixed point
    keep = set()
    os = orbit_space(x)
    for r in os.representatives:
        keep.update(os.members[r])
    sub = full_subgroupoid(x, keep)
    rep = is_equivalence(inclusion_functor(sub, x))
    assert rep.passed and rep.jacobian_checked


def test_collapsing_functor_fails_orbit_bijectivity():
    x = identity_only_groupoid(points=(0.0, 1.0))
    collapse = Functor(x, x, lambda oi: 0,
                       lambda mi: x.identity(0), name="collapse")
    rep = is_equivalence(collapse)
    assert not rep.passed
    assert any(w[0] in ("orbit-collapse", "orbit-missed") for w in rep.witnesses)


# ------------------------------------------------- natural transformation check

def test_natural_transformation_identity():
    x = reflection_groupoid()
    f = Functor.identity(x)
    assert natural_transformation_check(f, f, lambda oi: x.identity(oi)) == 0


def test_natural_transformation_conjugation():
    x = rotation_groupoid(radii=(1.0,))
    g_elt = 1  # rotate by one step

    def conj_obj(oi):
        m = next(mi for mi in x.morphisms_from(oi)
                 if x.morphisms[mi].label == g_elt)
        return x.morphisms[m].tgt

    def conj_mor(mi):
        m = x.morphisms[mi]
        pre = next(k for k in x.morphisms_from(m.src) if x.morphisms[k].label == g_elt)
        post = next(k for k in x.morphisms_from(m.tgt) if x.morphisms[k].label == g_elt)
        return x.compose(post, x.compose(mi, x.inverse(pre)))

    f = Functor.identity(x)
    g = Functor(x, x, conj_obj, conj_mor, name="conj")

    def tau(oi):
        return next(mi for mi in x.morphisms_from(oi)
                    if x.morphisms[mi].label == g_elt)

    assert natural_transformation_check(f, g, tau) == 0
    # a deliberately wrong morphism at one object breaks naturality
    def tau_bad(oi):
        if oi == 0:
            return x.identity(0)
        return tau(oi)

    with pytest.raises(ValueError):
        natural_transformation_check(f, g, tau_bad)


def test_naturally_equivalent_functors_same_orbit_maps():
    x = rotation_groupoid(radii=(1.0,))
    d1 = Diagram.from_functor(Functor.identity(x))
    assert d1.orbit_map() == {k: k for k in d1.orbit_map()}


# ------------------------------------------------------------ refinement_check

def test_refinement_reflexive():
    x = reflection_groupoid()
    d = Diagram.from_functor(Functor.identity(x))
    h = Functor.identity(x)
    rep = refinement_check(d, d, h,
                           tau_left=lambda oi: x.identity(oi),
                           tau_right=lambda oi: x.identity(oi))
    assert rep.passed


def test_refinement_with_equivalent_sub_apex():
    x = reflection_groupoid()
    os = orbit_space(x)
    keep = set()
    for r in os.representatives:
        keep.update(os.members[r])
    sub = full_subgroupoid(x, keep)
    incl = inclusion_functor(sub, x)
    d = Diagram.from_functor(Functor.identity(x))
    d_prime = Diagram(incl, incl)
    rep = refinement_check(d, d_prime, incl,
                           tau_left=lambda oi: x.identity(incl.on_object(oi)),
                           tau_right=lambda oi: x.identity(incl.on_object(oi)))
    assert rep.passed


def test_refinement_transitive_on_fixture():
    x = reflection_groupoid()
    d = Diagram.from_functor(Functor.identity(x))
    h = Functor.identity(x)
    tau = lambda oi: x.identity(oi)
    r1 = refinement_check(d, d, h, tau, tau)
    r2 = refinement_check(d, d, h, tau, tau)
    assert r1.passed and r2.passed
    r3 = refinement_check(d, d, compose_functors(h, h), tau, tau)
    assert r3.passed


def test_refinement_not_essentially_surjective():
    x = identity_only_groupoid(points=(0.0, 1.0))
    sub = full_subgroupoid(x, [0])
    incl = inclusion_functor(sub, x)
    rep = is_equivalence(incl)
    assert not rep.passed
    assert any(w[0] == "orbit-missed" for w in rep.witnesses)


# -------------------------------------------------------- compose_generalized

def test_compose_identity_legs_is_functor_composition():
    x = reflection_groupoid(points=(0.0, 1.0))
    f = Functor.identity(x)
    d1 = Diagram.from_functor(f)
    d2 = Diagram.from_functor(f)
    comp = compose_generalized(d1, d2)
    assert comp.orbit_map() == d1.orbit_map()


def test_compose_with_reversal_refines_identity():
    x = reflection_groupoid(points=(0.0, 1.0))
    os = orbit_space(x)
    keep = set()
    for r in os.representatives:
        keep.update(os.members[r])
    sub = full_subgroupoid(x, keep)
    incl = inclusion_functor(sub, x)
    d_f = Diagram(Functor.identity(sub), incl)     # sub -> x
    d_rev = Diagram(incl, Functor.identity(sub))   # x -> sub
    comp = compose_generalized(d_f, d_rev)
    ident_map = Diagram.from_functor(Functor.identity(sub)).orbit_map()
    assert comp.orbit_map() == ident_map


def test_compose_generic_orbit_maps_by_enumeration():
    x = reflection_groupoid(points=(0.0, 1.0, 2.0))
    f = Functor.identity(x)
    comp = compose_generalized(Diagram.from_functor(f), Diagram.from_functor(f))
    # brute-force oracle: composition of the two induced orbit maps
    m1 = Diagram.from_functor(f).orbit_map()
    expected = {k: m1[v] for k, v in m1.items()}
    assert comp.orbit_map() == expected


def test_compose_mismatched_middle_rejected():
    x = reflection_groupoid(points=(0.0, 1.0))
    y = rotation_groupoid(radii=(1.0,))
    with pytest.raises(ValueError, match="middle"):
        compose_generalized(Diagram.from_functor(Functor.identity(x)),
                            Diagram.from_functor(Functor.identity(y)))


# ------------------------------------------------------------------ config

def test_groupoid_from_config_reflection():
    cfg = {
        "schema": "groupoid/1",
        "charts": [{"name": "line", "dim": 1, "samples": [[0.0], [1.0]]}],
        "group": {"kind": "cyclic", "order": 2},
        "action": {"kind": "reflection"},
    }
    x = groupoid_from_config(cfg)
    assert len(x.objects) == 3  # closure adds -1
    zero = x.find_object("line", np.array([0.0]))
    assert isotropy(x, zero).order == 2


def test_groupoid_from_config_unknown_key():
    with pytest.raises(ConfigError):
        groupoid_from_config({"schema": "groupoid/1", "bogus": 1})


# ------------------------------------------------------------ axioms property

def test_axioms_checked_under_optimized_python():
    # python -O strips assert statements; the groupoid axioms and
    # functoriality must still be checked there. The one-object table's
    # composition ignores its second argument, so compose(identity, m1) is
    # the identity; the functor sends both objects to object 0 but keeps
    # the identity of object 1, whose source is 1
    script = (
        "import numpy as np\n"
        "from scfold.groupoids import EpGroupoid, Functor\n"
        "def attempt(build):\n"
        "    try:\n"
        "        build()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "    else:\n"
        "        print('accepted')\n"
        "attempt(lambda: EpGroupoid([('pt', np.zeros(1))], [(0, 0, 0), (0, 0, 1)],\n"
        "                           compose_label=lambda a, b: a,\n"
        "                           inverse_label=lambda a: a,\n"
        "                           identity_label=lambda oi: 0))\n"
        "two = EpGroupoid([('pt', np.zeros(1)), ('pt', np.ones(1))],\n"
        "                 [(0, 0, 0), (1, 1, 0)], compose_label=lambda a, b: 0,\n"
        "                 inverse_label=lambda a: 0, identity_label=lambda oi: 0)\n"
        "attempt(lambda: Functor(two, two, lambda oi: 0, lambda mi: mi,\n"
        "                        name='collapse'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "left unit fails at morphism 1",
        "collapse: source not preserved at morphism 1",
    ]


def test_axioms_checked_exhaustively():
    # a deliberately broken table (identity missing) must be rejected
    with pytest.raises((AssertionError, KeyError)):
        EpGroupoid(
            objects=[("pt", np.zeros(1))],
            morphism_specs=[(0, 0, 1)],  # label 1, but identity label is 0
            compose_label=lambda a, b: (a + b) % 2,
            inverse_label=lambda a: a,
            identity_label=lambda oi: 0,
        )


# ------------------------------------------------------------------ guards

def _table(objects, specs, compose_label):
    """Groupoid of the given morphism labels with label 0 as every identity
    and every label its own inverse."""
    return EpGroupoid(objects, specs, compose_label=compose_label,
                      inverse_label=lambda a: a, identity_label=lambda oi: 0)


def _two_points():
    return _table([("pt", np.zeros(1)), ("pt", np.ones(1))], [(0, 0, 0), (1, 1, 0)],
                  lambda a, b: 0)


def _diagram_of_collapse():
    x = identity_only_groupoid()
    collapse = Functor(x, x, lambda oi: 0, lambda mi: x.identity(0), name="collapse")
    return Diagram(collapse, Functor.identity(x))


def _compose_on_empty_apex():
    d = Diagram.from_functor(Functor.identity(_table([], [], lambda a, b: 0)))
    return compose_generalized(d, d)


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: FiniteGroup([[1, 0], [0, 1]]),
                 "element 0 must act as the identity", id="identity element"),
    pytest.param(lambda: FiniteGroup([[0, 1, 2], [1, 0, 0], [2, 0, 0]]),
                 "every element needs a unique inverse", id="inverse"),
    pytest.param(lambda: _table([("pt", np.zeros(1))], [(0, 0, 0), (0, 0, 0)],
                                lambda a, b: 0),
                 "duplicate morphism", id="duplicate morphism"),
    pytest.param(lambda: _two_points().compose(1, 0),
                 "morphisms are not composable", id="not composable"),
    pytest.param(lambda: _table([("pt", np.zeros(1))], [(0, 0, 0), (0, 0, 1)],
                                lambda a, b: a),
                 "left unit fails at morphism 1", id="axiom"),
    pytest.param(lambda: Functor(_two_points(), _two_points(), lambda oi: 0,
                                 lambda mi: mi, name="collapse"),
                 "collapse: source not preserved at morphism 1", id="functoriality"),
    pytest.param(lambda: natural_transformation_check(
        Functor.identity(_two_points()), Functor.identity(_two_points()), lambda oi: 0),
                 "functors must share source and target", id="transformation legs"),
    pytest.param(lambda: Diagram(Functor.identity(_two_points()),
                                 Functor.identity(_two_points())),
                 "diagram legs must share their apex", id="apex"),
    pytest.param(_diagram_of_collapse, "left leg is not an equivalence",
                 id="left leg"),
    pytest.param(_compose_on_empty_apex, "empty fibered product", id="empty apex"),
])
def test_groupoid_guards_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()
