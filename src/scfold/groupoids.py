"""Finite symmetry groupoids over sampled charts, equivalences and diagram calculus.

The translation backend enumerates a finite group acting by diffeomorphisms on
sampled chart points into an explicit morphism table; an explicit backend
accepts arbitrary finite tables. All category axioms are verified exhaustively
at construction. Point equality uses chart-coordinate distance <= 1e-9.
Properness is replaced, exactly for this finite backend, by finiteness of
isotropy and of the morphism table.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, is_dataclass

import numpy as np

from . import _fd
from .errors import (
    AmbiguousRankError,
    BackendUnsupportedError,
    ConfigError,
    check_keys,
    read_config,
)

POINT_TOL = 1e-9


class FiniteGroup:
    """Multiplication table group; element 0 is the identity."""

    def __init__(self, table):
        self.table = [list(map(int, row)) for row in table]
        self.order = len(self.table)
        for i in range(self.order):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValueError("element 0 must act as the identity")
        self._inv = []
        for i in range(self.order):
            inv = [j for j in range(self.order) if self.table[i][j] == 0]
            if len(inv) != 1:
                raise ValueError("every element needs a unique inverse")
            self._inv.append(inv[0])

    def mul(self, i, j):
        return self.table[i][j]

    def inv(self, i):
        return self._inv[i]

    @classmethod
    def cyclic(cls, k):
        table = [[(i + j) % k for j in range(k)] for i in range(k)]
        return cls(table)

    @classmethod
    def trivial(cls):
        return cls([[0]])


@dataclass(frozen=True)
class Morphism:
    idx: int
    src: int
    tgt: int
    label: object


class EpGroupoid:
    """Finite groupoid over sampled objects with an explicit morphism table."""

    def __init__(self, objects, morphism_specs, compose_label, inverse_label,
                 identity_label, translation=None, name="groupoid"):
        self.name = name
        self.objects = list(objects)  # (chart_id, coords ndarray)
        self.translation = translation
        self._compose_label = compose_label
        self._inverse_label = inverse_label
        self._identity_label = identity_label
        self.morphisms = [Morphism(i, s, t, lab)
                          for i, (s, t, lab) in enumerate(morphism_specs)]
        self._lookup = {}
        for m in self.morphisms:
            key = (m.src, m.tgt, m.label)
            if key in self._lookup:
                raise ValueError(f"duplicate morphism {key}")
            self._lookup[key] = m.idx
        self._by_src = {}
        for m in self.morphisms:
            self._by_src.setdefault(m.src, []).append(m.idx)
        self.verify_axioms()

    # -- structure maps ------------------------------------------------------

    def identity(self, obj_idx):
        return self._lookup[(obj_idx, obj_idx, self._identity_label(obj_idx))]

    def inverse(self, mor_idx):
        m = self.morphisms[mor_idx]
        return self._lookup[(m.tgt, m.src, self._inverse_label(m.label))]

    def compose(self, m2_idx, m1_idx):
        """Composite m2 after m1; the target of m1 must be the source of m2."""
        m1, m2 = self.morphisms[m1_idx], self.morphisms[m2_idx]
        if m1.tgt != m2.src:
            raise ValueError("morphisms are not composable")
        label = self._compose_label(m2.label, m1.label)
        return self._lookup[(m1.src, m2.tgt, label)]

    def morphisms_from(self, obj_idx):
        return list(self._by_src.get(obj_idx, []))

    def morphisms_between(self, src_idx, tgt_idx):
        return [i for i in self._by_src.get(src_idx, [])
                if self.morphisms[i].tgt == tgt_idx]

    def verify_axioms(self):
        """Check the unit, inverse and associativity axioms on the whole
        table; a failure raises ValueError naming the axiom and the morphism."""
        def require(ok, axiom, mor_idx):
            if not ok:
                raise ValueError(f"{axiom} fails at morphism {mor_idx}")

        for m in self.morphisms:
            i_src = self.identity(m.src)
            i_tgt = self.identity(m.tgt)
            require(self.compose(m.idx, i_src) == m.idx, "right unit", m.idx)
            require(self.compose(i_tgt, m.idx) == m.idx, "left unit", m.idx)
            inv = self.inverse(m.idx)
            require(self.compose(inv, m.idx) == i_src, "left inverse", m.idx)
            require(self.compose(m.idx, inv) == i_tgt, "right inverse", m.idx)
        for m1 in self.morphisms:
            for i2 in self._by_src.get(m1.tgt, []):
                for i3 in self._by_src.get(self.morphisms[i2].tgt, []):
                    left = self.compose(i3, self.compose(i2, m1.idx))
                    right = self.compose(self.compose(i3, i2), m1.idx)
                    require(left == right, "associativity", m1.idx)

    # -- orbits and isotropy -------------------------------------------------

    def orbit(self, obj_idx):
        seen = {obj_idx}
        frontier = [obj_idx]
        while frontier:
            nxt = []
            for o in frontier:
                for mi in self.morphisms_from(o):
                    t = self.morphisms[mi].tgt
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        return sorted(seen)

    def find_object(self, chart_id, coords):
        """Index of the object at coords in the chart, within POINT_TOL; None
        when there is none."""
        coords = np.asarray(coords, dtype=float)
        for i, (cid, c) in enumerate(self.objects):
            if cid == chart_id and np.linalg.norm(c - coords) <= POINT_TOL:
                return i
        return None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_translation_action(cls, group, seeds, action,
                                name="translation-groupoid"):
        """Enumerate the translation groupoid of a finite group action.

        seeds: list of (chart_id, coords); the object list is the closure of
        the seeds under the action, deduplicated by coordinate distance
        POINT_TOL. action(g, chart_id, coords) -> (chart_id, coords).
        """
        objects = []

        def find(cid, c):
            for i, (ocid, oc) in enumerate(objects):
                if ocid == cid and np.linalg.norm(oc - c) <= POINT_TOL:
                    return i
            return None

        frontier = []
        for cid, c in seeds:
            c = np.asarray(c, dtype=float)
            if find(cid, c) is None:
                objects.append((cid, c))
                frontier.append(len(objects) - 1)
        while frontier:
            nxt = []
            for oi in frontier:
                cid, c = objects[oi]
                for g in range(group.order):
                    tcid, tc = action(g, cid, c)
                    tc = np.asarray(tc, dtype=float)
                    if find(tcid, tc) is None:
                        objects.append((tcid, tc))
                        nxt.append(len(objects) - 1)
            frontier = nxt

        specs = []
        for oi, (cid, c) in enumerate(objects):
            for g in range(group.order):
                tcid, tc = action(g, cid, c)
                ti = find(tcid, np.asarray(tc, dtype=float))
                specs.append((oi, ti, g))
        payload = {"group": group, "action": action}
        return cls(objects, specs,
                   compose_label=group.mul,
                   inverse_label=group.inv,
                   identity_label=lambda oi: 0,
                   translation=payload, name=name)


# ---------------------------------------------------------------------------
# orbit space


@dataclass
class OrbitSpace:
    groupoid: EpGroupoid
    representatives: list
    members: dict
    projection: list

    def orbit_count(self):
        return len(self.representatives)

    def orbit_of(self, obj_idx):
        return self.projection[obj_idx]


def orbit_space(x):
    """Orbit representatives, member lists and the quotient projection."""
    reps = []
    members = {}
    projection = [None] * len(x.objects)
    for oi in range(len(x.objects)):
        if projection[oi] is not None:
            continue
        orb = x.orbit(oi)
        rep = orb[0]
        reps.append(rep)
        members[rep] = orb
        for o in orb:
            projection[o] = rep
    return OrbitSpace(x, reps, members, projection)


# ---------------------------------------------------------------------------
# isotropy


@dataclass
class IsotropyGroup:
    base: int
    elements: list  # morphism indices
    table: np.ndarray
    non_effective: list
    effective_order: int

    @property
    def order(self):
        return len(self.elements)


def isotropy(x, obj_idx):
    """All self-morphisms at an object with their multiplication table and the
    effective quotient data.

    A self-morphism is non-effective when its underlying action fixes every
    sampled object in the base point's chart; without geometric action data
    only the identity is counted as non-effective.
    """
    elems = x.morphisms_between(obj_idx, obj_idx)
    k = len(elems)
    pos = {mi: i for i, mi in enumerate(elems)}
    table = np.zeros((k, k), dtype=int)
    for i, mi in enumerate(elems):
        for j, mj in enumerate(elems):
            table[i, j] = pos[x.compose(mi, mj)]
    non_eff = []
    if x.translation is not None:
        action = x.translation["action"]
        cid = x.objects[obj_idx][0]
        same_chart = [oc for ocid, oc in x.objects if ocid == cid]
        for mi in elems:
            g = x.morphisms[mi].label
            fixes_all = True
            for oc in same_chart:
                tcid, tc = action(g, cid, oc)
                if tcid != cid or np.linalg.norm(np.asarray(tc) - oc) > POINT_TOL:
                    fixes_all = False
                    break
            if fixes_all:
                non_eff.append(mi)
    else:
        non_eff = [mi for mi in elems if mi == x.identity(obj_idx)]
    effective_order = k // len(non_eff)
    return IsotropyGroup(obj_idx, elems, table, non_eff, effective_order)


# ---------------------------------------------------------------------------
# natural representation


@dataclass
class NaturalRepresentationReport:
    base: int
    neighborhood: list
    anchored: bool
    covering_ok: bool
    violations: list

    @property
    def passed(self):
        return self.anchored and self.covering_ok


def natural_representation(x, obj_idx, radius=None):
    """Local action of the isotropy group capturing nearby morphisms uniquely.

    Verifies on the sampled neighborhood that the assignment (g, y) -> the
    g-labelled morphism at y hits the isotropy at the base point, has the
    correct endpoints, and that every sampled morphism between neighborhood
    points arises from an isotropy element. That element is unique by
    construction: a morphism is determined by its source, target and label,
    and EpGroupoid rejects a table with two morphisms sharing all three.
    """
    if x.translation is None:
        raise BackendUnsupportedError(
            "natural representation needs the translation backend"
        )
    iso = isotropy(x, obj_idx)
    iso_labels = {x.morphisms[mi].label for mi in iso.elements}
    cid, c = x.objects[obj_idx]
    if radius is None:
        orbit_pts = [np.linalg.norm(x.objects[o][1] - c)
                     for o in x.orbit(obj_idx) if o != obj_idx]
        radius = 0.5 * min(orbit_pts) if orbit_pts else np.inf
    hood = [i for i, (ocid, oc) in enumerate(x.objects)
            if ocid == cid and np.linalg.norm(oc - c) <= radius]

    anchored = all(
        x.morphisms[mi].src == obj_idx and x.morphisms[mi].tgt == obj_idx
        for mi in iso.elements
    )
    covering_ok = True
    violations = []
    hood_set = set(hood)
    for y in hood:
        for mi in x.morphisms_from(y):
            m = x.morphisms[mi]
            if m.tgt not in hood_set:
                continue
            if m.label not in iso_labels:
                covering_ok = False
                violations.append(("uncovered", mi))
    for g in iso_labels:
        for y in hood:
            key_found = any(
                x.morphisms[mi].label == g for mi in x.morphisms_from(y)
            )
            if not key_found:
                covering_ok = False
                violations.append(("missing-section", g, y))
    return NaturalRepresentationReport(obj_idx, hood, anchored, covering_ok,
                                       violations)


# ---------------------------------------------------------------------------
# functors


class Functor:
    def __init__(self, source, target, object_map, morphism_map,
                 coordinate_map=None, name="functor"):
        self.source = source
        self.target = target
        self.object_map = object_map
        self.morphism_map = morphism_map
        self.coordinate_map = coordinate_map
        self.name = name
        self.verify_functoriality()

    def on_object(self, oi):
        return self.object_map(oi)

    def on_morphism(self, mi):
        return self.morphism_map(mi)

    def verify_functoriality(self):
        """Check that sources, targets, identities and composition are
        preserved; a failure raises ValueError naming the axiom and the
        source morphism."""
        x, y = self.source, self.target

        def require(ok, axiom, mor_idx):
            if not ok:
                raise ValueError(f"{self.name}: {axiom} not preserved at morphism {mor_idx}")

        for m in x.morphisms:
            fm = y.morphisms[self.on_morphism(m.idx)]
            require(fm.src == self.on_object(m.src), "source", m.idx)
            require(fm.tgt == self.on_object(m.tgt), "target", m.idx)
        for oi in range(len(x.objects)):
            i_oi = x.identity(oi)
            require(self.on_morphism(i_oi) == y.identity(self.on_object(oi)),
                    "identity", i_oi)
        for m1 in x.morphisms:
            for m2i in x.morphisms_from(m1.tgt):
                lhs = self.on_morphism(x.compose(m2i, m1.idx))
                rhs = y.compose(self.on_morphism(m2i), self.on_morphism(m1.idx))
                require(lhs == rhs, "composition", m1.idx)

    @classmethod
    def identity(cls, x):
        return cls(x, x, lambda oi: oi, lambda mi: mi, name="id")


def compose_functors(g, f, name=None):
    return Functor(f.source, g.target,
                   lambda oi: g.on_object(f.on_object(oi)),
                   lambda mi: g.on_morphism(f.on_morphism(mi)),
                   name=name or f"{g.name}∘{f.name}")


@dataclass
class EquivalenceReport:
    local_diffeo_ok: bool
    jacobian_checked: bool
    orbit_bijection_ok: bool
    isotropy_bijection_ok: bool
    witnesses: list

    @property
    def passed(self):
        return (self.local_diffeo_ok and self.orbit_bijection_ok
                and self.isotropy_bijection_ok)


def is_equivalence(f):
    """Three-part equivalence check: local diffeomorphism on objects, orbit
    bijectivity in both directions, and isotropy bijections at samples.

    The coordinate map's Jacobian rank is decided by _fd.numerical_rank: a
    rank below the dimension is the witness "singular-jacobian", a rank the
    guard band cannot decide the witness "ambiguous-rank"."""
    witnesses = []
    jac_checked = False
    local_ok = True
    if f.coordinate_map is not None:
        jac_checked = True
        for oi, (cid, c) in enumerate(f.source.objects):
            d = c.size
            if d == 0:
                continue
            jac = _fd.jacobian(lambda z: f.coordinate_map(cid, z)[1], c, d,
                               _fd.JACOBIAN_STEP)
            try:
                rank = _fd.numerical_rank(np.linalg.svd(jac, compute_uv=False))
            except AmbiguousRankError:
                local_ok = False
                witnesses.append(("ambiguous-rank", oi))
                continue
            if rank < d:
                local_ok = False
                witnesses.append(("singular-jacobian", oi))
    src_orbits = orbit_space(f.source)
    tgt_orbits = orbit_space(f.target)
    induced = {}
    orbit_ok = True
    for rep in src_orbits.representatives:
        img_rep = tgt_orbits.orbit_of(f.on_object(rep))
        for member in src_orbits.members[rep]:
            if tgt_orbits.orbit_of(f.on_object(member)) != img_rep:
                orbit_ok = False
                witnesses.append(("orbit-splitting", rep, member))
        if rep in induced:
            orbit_ok = False
        induced[rep] = img_rep
    image_orbits = set(induced.values())
    if len(image_orbits) != len(induced):
        orbit_ok = False
        seen = {}
        for rep, img in induced.items():
            if img in seen:
                witnesses.append(("orbit-collapse", seen[img], rep))
            seen[img] = rep
    if image_orbits != set(tgt_orbits.representatives):
        orbit_ok = False
        witnesses.append(("orbit-missed",
                          sorted(set(tgt_orbits.representatives) - image_orbits)))
    iso_ok = True
    for oi in range(len(f.source.objects)):
        src_iso = f.source.morphisms_between(oi, oi)
        img = f.on_object(oi)
        tgt_iso = set(f.target.morphisms_between(img, img))
        mapped = [f.on_morphism(mi) for mi in src_iso]
        if len(set(mapped)) != len(mapped) or set(mapped) != tgt_iso:
            iso_ok = False
            witnesses.append(("isotropy-mismatch", oi))
    return EquivalenceReport(local_ok, jac_checked, orbit_ok, iso_ok, witnesses)


def natural_transformation_check(f, g, tau):
    """Count of sampled morphisms violating the naturality square.

    tau maps each object index of the common source to a morphism index in the
    target from f(x) to g(x)."""
    if f.source is not g.source or f.target is not g.target:
        raise ValueError("functors must share source and target")
    y = f.target
    violations = 0
    for oi in range(len(f.source.objects)):
        t = y.morphisms[tau(oi)]
        if t.src != f.on_object(oi) or t.tgt != g.on_object(oi):
            raise ValueError(f"transformation at object {oi} has wrong endpoints")
    for m in f.source.morphisms:
        lhs = y.compose(tau(m.tgt), f.on_morphism(m.idx))
        rhs = y.compose(g.on_morphism(m.idx), tau(m.src))
        if lhs != rhs:
            violations += 1
    return violations


# ---------------------------------------------------------------------------
# diagrams and generalized maps


@dataclass
class Diagram:
    """Left leg an equivalence into the source, right leg a functor into the
    target; the pair represents a generalized map between the outer groupoids."""

    left: Functor
    right: Functor

    def __post_init__(self):
        if self.left.source is not self.right.source:
            raise ValueError("diagram legs must share their apex")
        rep = is_equivalence(self.left)
        if not rep.passed:
            raise ValueError(f"left leg is not an equivalence: {rep.witnesses}")

    @property
    def apex(self):
        return self.left.source

    def orbit_map(self):
        """Induced map on orbit representatives of the outer groupoids."""
        src_orbits = orbit_space(self.left.target)
        tgt_orbits = orbit_space(self.right.target)
        apex_orbits = orbit_space(self.apex)
        out = {}
        for rep in apex_orbits.representatives:
            key = src_orbits.orbit_of(self.left.on_object(rep))
            val = tgt_orbits.orbit_of(self.right.on_object(rep))
            if key in out and out[key] != val:
                raise ValueError("orbit map is not well defined")
            out[key] = val
        return out

    @classmethod
    def from_functor(cls, phi):
        return cls(Functor.identity(phi.source), phi)


@dataclass
class RefinementReport:
    equivalence: EquivalenceReport
    left_violations: int
    right_violations: int
    orbit_maps_equal: bool

    @property
    def passed(self):
        return (self.equivalence.passed and self.left_violations == 0
                and self.right_violations == 0 and self.orbit_maps_equal)


def refinement_check(d, d_prime, h, tau_left, tau_right):
    """Verify that d_prime refines d through the apex functor h.

    h must be an equivalence, the two leg composites must be naturally
    equivalent to d's legs via the supplied transformations, and the induced
    orbit maps must agree.
    """
    eq = is_equivalence(h)
    lv = natural_transformation_check(compose_functors(d.left, h), d_prime.left, tau_left)
    rv = natural_transformation_check(compose_functors(d.right, h), d_prime.right, tau_right)
    same = d.orbit_map() == d_prime.orbit_map()
    return RefinementReport(eq, lv, rv, same)


def compose_generalized(d1, d2):
    """Composite of generalized maps through the finite weak fibered product.

    Apex objects are triples (a, phi, b) with phi a morphism from the image of
    a under d1's right leg to the image of b under d2's left leg; morphisms
    act componentwise and transport phi by conjugation.
    """
    if d1.right.target is not d2.left.target:
        raise ValueError("diagrams do not share the middle groupoid")
    a_gpd, b_gpd = d1.apex, d2.apex
    y = d1.right.target

    triples = []
    triple_index = {}
    for ai in range(len(a_gpd.objects)):
        for bi in range(len(b_gpd.objects)):
            ya = d1.right.on_object(ai)
            yb = d2.left.on_object(bi)
            for phi in y.morphisms_between(ya, yb):
                triple_index[(ai, phi, bi)] = len(triples)
                triples.append((ai, phi, bi))
    if not triples:
        raise ValueError("empty fibered product: no composable samples")

    specs = []
    for src_idx, (ai, phi, bi) in enumerate(triples):
        for alpha in a_gpd.morphisms_from(ai):
            for beta in b_gpd.morphisms_from(bi):
                f_alpha = d1.right.on_morphism(alpha)
                f_beta = d2.left.on_morphism(beta)
                phi_new = y.compose(y.compose(f_beta, phi), y.inverse(f_alpha))
                tgt = triple_index[(a_gpd.morphisms[alpha].tgt, phi_new,
                                    b_gpd.morphisms[beta].tgt)]
                specs.append((src_idx, tgt, (alpha, beta)))

    objects = [("fp", np.concatenate([
        a_gpd.objects[ai][1], [float(phi)], b_gpd.objects[bi][1]
    ])) for (ai, phi, bi) in triples]

    apex = EpGroupoid(
        objects, specs,
        compose_label=lambda l2, l1: (a_gpd.compose(l2[0], l1[0]),
                                      b_gpd.compose(l2[1], l1[1])),
        inverse_label=lambda l: (a_gpd.inverse(l[0]), b_gpd.inverse(l[1])),
        identity_label=lambda oi: (a_gpd.identity(triples[oi][0]),
                                   b_gpd.identity(triples[oi][2])),
        name="fibered-product",
    )

    def left_obj(oi):
        return d1.left.on_object(triples[oi][0])

    def left_mor(mi):
        alpha, _ = apex.morphisms[mi].label
        return d1.left.on_morphism(alpha)

    def right_obj(oi):
        return d2.right.on_object(triples[oi][2])

    def right_mor(mi):
        _, beta = apex.morphisms[mi].label
        return d2.right.on_morphism(beta)

    left = Functor(apex, d1.left.target, left_obj, left_mor, name="composite-left")
    right = Functor(apex, d2.right.target, right_obj, right_mor, name="composite-right")
    composite = Diagram(left, right)

    expected = {}
    m1 = d1.orbit_map()
    m2 = d2.orbit_map()
    mid_orbits = orbit_space(y)
    for k, v in m1.items():
        expected[k] = m2[mid_orbits.orbit_of(v)] if v in m2 else m2[v]
    if composite.orbit_map() != expected:
        raise ValueError("composite orbit map disagrees with the composition")
    return composite


# ---------------------------------------------------------------------------
# config loading


def report_json(report):
    """Serialize any of the module's report dataclasses to JSON text."""
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.integer, np.floating)):
            return o.item()
        if is_dataclass(o):
            return asdict(o)
        if isinstance(o, tuple):
            return list(o)
        return str(o)

    payload = asdict(report)
    payload["passed"] = bool(report.passed)
    return json.dumps(payload, sort_keys=True, indent=2, default=default) + "\n"


_GROUPOID_KEYS = {"schema", "charts", "group", "action"}


def groupoid_from_config(text_or_dict):
    """Build a translation groupoid from a structured text description.

    Schema: {"schema": "groupoid/1", "charts": [{"name", "dim", "samples"}],
    "group": {"kind": "cyclic"|"trivial", "order"}, "action": {"kind":
    "reflection"|"rotation"|"trivial"|"linear", ...}}. Unknown keys are errors.
    """
    cfg = read_config(text_or_dict, _GROUPOID_KEYS, "groupoid config keys")
    gspec = cfg.get("group", {})
    if gspec.get("kind") == "cyclic":
        group = FiniteGroup.cyclic(int(gspec["order"]))
    elif gspec.get("kind") == "trivial":
        group = FiniteGroup.trivial()
    else:
        raise ConfigError(f"unknown group kind {gspec.get('kind')!r}")
    aspec = cfg.get("action", {})
    kind = aspec.get("kind")
    if kind == "reflection":
        def action(g, cid, c):
            return cid, (-1.0) ** g * np.asarray(c, dtype=float)
    elif kind == "rotation":
        angle = 2 * np.pi / group.order

        def action(g, cid, c):
            th = angle * g
            rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            return cid, rot @ np.asarray(c, dtype=float)
    elif kind == "trivial":
        def action(g, cid, c):
            return cid, np.asarray(c, dtype=float)
    elif kind == "linear":
        mats = [np.asarray(m, dtype=float) for m in aspec["matrices"]]
        if len(mats) != group.order:
            raise ConfigError("need one matrix per group element")

        def action(g, cid, c):
            return cid, mats[g] @ np.asarray(c, dtype=float)
    else:
        raise ConfigError(f"unknown action kind {kind!r}")
    seeds = []
    for chart in cfg.get("charts", []):
        check_keys(chart, {"name", "dim", "samples"}, "chart keys")
        for s in chart["samples"]:
            seeds.append((chart["name"], np.asarray(s, dtype=float)))
    return EpGroupoid.from_translation_action(group, seeds, action)
