"""Built-in worked examples: the systems, coverings, judges, section pairs,
rectangle unions, and metric instances that the checkers are sharpest on.

Every fixture is available both as live objects (the ``*_objects`` helpers)
and as a canonical JSON document (:func:`all_fixtures`), so the command
line, the test suite, and golden files all read the same data.

The landscape summary at the bottom runs one separation check and one
gluing check per section-identity resolution and tabulates the verdicts;
each cell cites the fixture evidence it was computed from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import jsonio
from .epshelly import EpsilonInstance, epsilon_instance
from .errors import CheckerError
from .explain import (
    Judge,
    Section,
    identity_judge,
    is_j_full,
    judge,
    judged_section,
    restrict_section,
    section,
    validate_judge,
)
from .localglobal import (
    ObstructionReport,
    check_separation,
    glue_behavioral,
    glue_cogerm,
    glue_stateless,
    glue_strict,
    search_bounded_behavioral_glue,
)
from .systems import (
    Covering,
    MealySystem,
    covering,
    identity_morphism,
    identity_patch,
    make_system,
    subsystem,
)
from .tame import (
    Interval,
    ProjectionJudge,
    Rect,
    RectUnion,
    TameCounterexample,
    rect_union,
    robustly_disconnected,
    sheaf_verdict,
    two_patch_counterexample,
)

DOT = "•"  # the single judged input letter used by collapsing judges


@dataclass(frozen=True)
class Fixture:
    name: str
    kind: str  # system | covering | judge | sections | rect-union | epsilon
    provenance: str
    payload: dict


@dataclass(frozen=True)
class SectionsFixture:
    system: MealySystem
    judge: Judge
    covering: Covering
    sections: tuple[Section, ...]
    scope: str  # "global": sections over the whole system; "local": one per patch


def _identity_section(system: MealySystem) -> Section:
    return section(identity_patch(system), system, identity_morphism(system))


# --------------------------------------------------- separation under splitting

def ri_separation_objects() -> SectionsFixture:
    """Two-state system with an input-splitting covering.  The identity
    explanation and a rerouted three-state one agree on each single-letter
    patch but part ways on the mixed word (a, b)."""
    sys2 = make_system(
        ["s1", "s2"], ["s1", "s2"], ["a", "b"], ["0", "1"],
        {
            ("s1", "a"): ("s1", "0"),
            ("s1", "b"): ("s2", "0"),
            ("s2", "a"): ("s1", "1"),
            ("s2", "b"): ("s2", "1"),
        },
    )
    j = identity_judge(sys2)
    c = covering(sys2, [subsystem(sys2, inputs=["a"]), subsystem(sys2, inputs=["b"])])
    alt = make_system(
        ["t1", "t2", "u"], ["t1", "t2", "u"], ["a", "b"], ["0", "1"],
        {
            ("t1", "a"): ("u", "0"),
            ("t1", "b"): ("t2", "0"),
            ("t2", "a"): ("u", "1"),
            ("t2", "b"): ("t2", "1"),
            ("u", "a"): ("u", "0"),
            ("u", "b"): ("t2", "1"),
        },
    )
    s_id = _identity_section(sys2)
    s_alt = judged_section(
        identity_patch(sys2), alt, j,
        {"s1": "t1", "s2": "t2"},
        {"s1": "u", "s2": "t2"},
    )
    return SectionsFixture(sys2, j, c, (s_id, s_alt), "global")


# ------------------------------------------------------- gluing obstruction

def _gluing_system(repaired: bool) -> MealySystem:
    dyn = {
        ("s0", "a"): ("s0", "0"),
        ("s0", "b"): ("s2", "0"),
        ("s1", "a"): ("s1", "1"),
        ("s1", "b"): ("s1", "1"),
        ("s2", "a"): ("s1", "1"),
        ("s2", "b"): ("s1", "1"),
        ("s3", "a"): ("s3", "1"),
        ("s3", "b"): ("s1", "1") if repaired else ("s2", "1"),
    }
    states = ["s0", "s1", "s2", "s3"]
    return make_system(states, states, ["a", "b"], ["0", "1"], dyn)


def _gluing_judge() -> Judge:
    return judge({"a": DOT, "b": DOT}, {"0": "0", "1": "1"})


def beh_gluing_objects(repaired: bool = False) -> SectionsFixture:
    """Four-state system under an input-collapsing judge with a data-local
    two-patch covering.  The constant-0 and constant-1 local explanations
    are compatible on the overlap, yet the transitions out of both patches
    land on a shared after-state and force it into both behavior classes.
    The repaired variant reroutes one transition so the conflict vanishes."""
    sys4 = _gluing_system(repaired)
    j = _gluing_judge()
    p1 = subsystem(sys4, before=["s0", "s1", "s2"], after=["s0", "s1", "s2"])
    p2 = subsystem(sys4, before=["s1", "s2", "s3"], after=["s1", "s2", "s3"])
    c = covering(sys4, [p1, p2])
    m1 = make_system(
        ["p0", "p1"], ["p0", "p1"], [DOT], ["0", "1"],
        {("p0", DOT): ("p0", "0"), ("p1", DOT): ("p1", "1")},
    )
    m2 = make_system(["q"], ["q"], [DOT], ["0", "1"], {("q", DOT): ("q", "1")})
    s1 = judged_section(
        p1, m1, j,
        {"s0": "p0", "s1": "p1", "s2": "p1"},
        {"s0": "p0", "s1": "p1", "s2": "p0"},
    )
    s2 = judged_section(
        p2, m2, j,
        {"s1": "q", "s2": "q", "s3": "q"},
        {"s1": "q", "s2": "q", "s3": "q"},
    )
    return SectionsFixture(sys4, j, c, (s1, s2), "local")


# --------------------------------------------- common-core separation failure

def extra_states_objects() -> SectionsFixture:
    """Two fixed points with the same output, one patch around each.  A
    one-state explanation and a two-state one pair up fine on either patch
    alone, but a shared core would need two states embedding injectively
    into the one-state machine, so the global sections stay inequivalent."""
    es = make_system(
        ["v", "w"], ["v", "w"], ["i"], ["0"],
        {("v", "i"): ("v", "0"), ("w", "i"): ("w", "0")},
    )
    j = identity_judge(es)
    p1 = subsystem(es, before=["v"], after=["v"])
    p2 = subsystem(es, before=["w"], after=["w"])
    c = covering(es, [p1, p2])
    one = make_system(["m"], ["m"], ["i"], ["0"], {("m", "i"): ("m", "0")})
    pair = make_system(
        ["m0", "m1"], ["m0", "m1"], ["i"], ["0"],
        {("m0", "i"): ("m0", "0"), ("m1", "i"): ("m1", "0")},
    )
    s_one = judged_section(identity_patch(es), one, j, {"v": "m", "w": "m"}, {"v": "m", "w": "m"})
    s_pair = judged_section(identity_patch(es), pair, j, {"v": "m0", "w": "m1"},
                            {"v": "m0", "w": "m1"})
    return SectionsFixture(es, j, c, (s_one, s_pair), "global")


# --------------------------------------------------------- j-full global pair

def _three_state_global(sys4: MealySystem, j: Judge, junk: bool) -> Section:
    states = ["x0", "x12", "x3"] + (["x9"] if junk else [])
    dyn = {
        ("x0", DOT): ("x12", "0"),
        ("x12", DOT): ("x12", "1"),
        ("x3", DOT): ("x12", "1"),
    }
    if junk:
        dyn[("x9", DOT)] = ("x9", "0")
    m = make_system(states, states, [DOT], ["0", "1"], dyn)
    psi_b = {"s0": "x0", "s1": "x12", "s2": "x12", "s3": "x3"}
    psi_a = {"s0": "x12", "s1": "x12", "s2": "x12", "s3": "x12"}
    return judged_section(identity_patch(sys4), m, j, psi_b, psi_a)


def jfull_pair_objects() -> SectionsFixture:
    """A global explanation of the gluing fixture's system and a copy
    decorated with an unreachable state, over the data-local covering.
    Data-local coverings have every patch's judged range full, so the
    range-restricted comparison coincides with the full behavioral one."""
    base = beh_gluing_objects()
    s = _three_state_global(base.system, base.judge, junk=False)
    t = _three_state_global(base.system, base.judge, junk=True)
    return SectionsFixture(base.system, base.judge, base.covering, (s, t), "global")


# -------------------------------------------------------------- rect unions

def punctured_square_objects() -> tuple[RectUnion, ProjectionJudge]:
    """Four open rectangles tiling the open unit square minus the center
    point.  The fiber over 1/2 is disconnected, but every nearby fiber is
    connected, so the disconnection is not robust."""
    h = Fraction(1, 2)
    one = Fraction(1)
    rects = [
        Rect(Interval(0, one, True, True), Interval(0, h, True, True)),
        Rect(Interval(0, one, True, True), Interval(h, one, True, True)),
        Rect(Interval(0, h, True, True), Interval(0, one, True, True)),
        Rect(Interval(h, one, True, True), Interval(0, one, True, True)),
    ]
    return rect_union(2, rects), ProjectionJudge(0)


def two_band_objects() -> tuple[RectUnion, ProjectionJudge]:
    """Two horizontal closed bands over a common footprint: every fiber is
    split by the gap, and the split persists across each whole strip."""
    one = Fraction(1)
    rects = [
        Rect(Interval(0, one), Interval(0, Fraction(2, 5))),
        Rect(Interval(0, one), Interval(Fraction(3, 5), one)),
    ]
    return rect_union(2, rects), ProjectionJudge(0)


def two_band_cut_objects() -> TameCounterexample:
    """The two-patch stateless covering discretized from the two-band
    domain's robust disconnection at 1/2: both patches force constant
    assignments that disagree, and the overlap never judges the cut value,
    so the disagreement is invisible locally."""
    u, pj = two_band_objects()
    cert = robustly_disconnected(u, pj, Fraction(1, 2))
    if cert is None:
        raise CheckerError("two-band domain lost its disconnection")
    return two_patch_counterexample(u, pj, cert)


# ------------------------------------------------------------ metric fixtures

def triangle_objects() -> tuple[EpsilonInstance, list[list[str]], float]:
    """Equilateral triangle with side 2: any two vertices fit in a radius-1
    ball, all three need 2/sqrt(3), and 1.08 sits strictly between."""
    values = {
        "va": (0.0, 0.0),
        "vb": (2.0, 0.0),
        "vc": (1.0, math.sqrt(3.0)),
    }
    i_map = {k: "cls" for k in values}
    inst = epsilon_instance(2, "euclidean", values, i_map)
    return inst, [["va"], ["vb"], ["vc"]], 1.08


def simplex_vertices(d: int) -> list[tuple[float, ...]]:
    """Vertices of a regular d-simplex with side sqrt(2) in d coordinates."""
    pts = [tuple(1.0 if k == m else 0.0 for k in range(d)) for m in range(d)]
    alpha = (1.0 - math.sqrt(d + 1.0)) / d
    pts.append(tuple(alpha for _ in range(d)))
    return pts


def sharp_simplex_objects(d: int) -> tuple[EpsilonInstance, list[list[str]], float]:
    """Regular d-simplex vertices, one per patch, at the tolerance halfway
    between the facet radius and the full circumradius: every d of them are
    jointly feasible, all d+1 are not, so the obstruction depth is d+1."""
    if d < 1:
        raise CheckerError("the simplex family starts at dimension 1")
    pts = simplex_vertices(d)
    values = {f"v{k}": p for k, p in enumerate(pts)}
    i_map = {k: "cls" for k in values}
    inst = epsilon_instance(d, "euclidean", values, i_map)
    r_face = math.sqrt((d - 1.0) / d) if d > 1 else 0.0
    r_full = math.sqrt(d / (d + 1.0))
    eps = (r_face + r_full) / 2.0
    return inst, [[f"v{k}"] for k in range(d + 1)], eps


# ---------------------------------------------------------------- registry

def _sections_payload(fx: SectionsFixture) -> dict:
    key = "global_sections" if fx.scope == "global" else "local_sections"
    return {
        "system": jsonio.system_payload(fx.system),
        "judge": jsonio.judge_payload(fx.judge),
        "patches": [jsonio.immersion_payload(p) for p in fx.covering.patches],
        key: [jsonio.section_payload(s) for s in fx.sections],
    }


def sections_from_payload(payload: dict) -> SectionsFixture:
    """A sections document read whole.  The judge must judge every raw
    letter of the system, each patch must be listed once, and local
    sections must match the patches one for one: the covering collapses
    repeats, and the gluers need one local section per covering patch."""
    what = "a sections document"
    jsonio.require(payload, what, "system", "judge", "patches", objects=("system",),
                   lists=("patches", "local_sections", "global_sections"))
    if payload.get("global_sections") is None:
        jsonio.require(payload, what, "local_sections")
    sys_ = jsonio.system_from_payload(payload["system"])
    j = jsonio.judge_from_payload(payload["judge"])
    validate_judge(j, sys_)
    patches = [jsonio.immersion_from_payload(sys_, p) for p in payload["patches"]]
    for k, p in enumerate(patches):
        if p in patches[:k]:
            raise CheckerError(
                f"patches {patches.index(p)} and {k} are the same patch; "
                "list each patch once"
            )
    c = covering(sys_, patches)
    if payload.get("global_sections") is not None:
        whole = identity_patch(sys_)
        secs = tuple(
            jsonio.section_from_payload(whole, j, p)
            for p in payload["global_sections"]
        )
        return SectionsFixture(sys_, j, c, secs, "global")
    if len(payload["local_sections"]) != len(patches):
        raise CheckerError("one section per covering patch is required")
    secs = tuple(
        jsonio.section_from_payload(patch, j, p)
        for patch, p in zip(patches, payload["local_sections"])
    )
    return SectionsFixture(sys_, j, c, secs, "local")


def _two_band_cut_payload() -> dict:
    cut = two_band_cut_objects()
    return {
        "system": jsonio.system_payload(cut.system),
        "judge": jsonio.judge_payload(cut.judge),
    }


_SIMPLEX_PROVENANCE = ("regular simplex vertices at the tolerance where only the full "
                       "family is infeasible")

# Name -> (kind, provenance, payload builder), in listing order.
_REGISTRY: dict[str, tuple[str, str, Callable[[], dict]]] = {
    "cex-ri-separation": (
        "sections",
        "input-splitting covering where range-restricted separation fails "
        "on the mixed word (a, b)",
        lambda: _sections_payload(ri_separation_objects()),
    ),
    "cex-beh-gluing": (
        "sections",
        "data-local covering whose compatible constant explanations force "
        "one after-state into two behavior classes",
        lambda: _sections_payload(beh_gluing_objects()),
    ),
    "cex-beh-gluing-repaired": (
        "sections",
        "the gluing conflict dissolved by rerouting one transition",
        lambda: _sections_payload(beh_gluing_objects(repaired=True)),
    ),
    "cogerm-extra-states": (
        "sections",
        "two fixed points explained by one state or two; the sections "
        "agree on every patch but share no common core globally",
        lambda: _sections_payload(extra_states_objects()),
    ),
    "jfull-global-pair": (
        "sections",
        "a three-state global explanation and a junk-decorated copy over a "
        "covering whose patches all see the full judged range",
        lambda: _sections_payload(jfull_pair_objects()),
    ),
    "punctured-square": (
        "rect-union",
        "open unit square minus its center: a momentary disconnection that "
        "heals in every nearby fiber",
        lambda: jsonio.union_payload(*punctured_square_objects()),
    ),
    "two-band": (
        "rect-union",
        "two horizontal bands: every fiber splits and the split persists "
        "across whole strips",
        lambda: jsonio.union_payload(*two_band_objects()),
    ),
    "two-band-cut": (
        "judge",
        "stateless system discretized from the two-band split: locally "
        "forced assignments that disagree only at the cut",
        _two_band_cut_payload,
    ),
    "triangle": (
        "epsilon",
        "equilateral sample points: pairs fit radius 1, the triple needs "
        "2/sqrt(3)",
        lambda: jsonio.epsilon_payload(*triangle_objects()),
    ),
    "simplex-sharp-1": (
        "epsilon", _SIMPLEX_PROVENANCE,
        lambda: jsonio.epsilon_payload(*sharp_simplex_objects(1)),
    ),
    "simplex-sharp-2": (
        "epsilon", _SIMPLEX_PROVENANCE,
        lambda: jsonio.epsilon_payload(*sharp_simplex_objects(2)),
    ),
    "simplex-sharp-3": (
        "epsilon", _SIMPLEX_PROVENANCE,
        lambda: jsonio.epsilon_payload(*sharp_simplex_objects(3)),
    ),
}


def _build(name: str) -> Fixture:
    kind, provenance, payload = _REGISTRY[name]
    return Fixture(name, kind, provenance, payload())


def all_fixtures() -> tuple[Fixture, ...]:
    return tuple(_build(name) for name in _REGISTRY)


def get_fixture(name: str) -> Fixture:
    """Build the named fixture, and only that one."""
    if name not in _REGISTRY:
        raise CheckerError(f"no fixture named {name!r}")
    return _build(name)


# ---------------------------------------------------------------- landscape

@dataclass(frozen=True)
class LandscapeRow:
    presheaf: str
    separation: str
    gluing: str
    evidence: tuple[tuple[str, bool], ...]


def landscape() -> tuple[LandscapeRow, ...]:
    """Separation and gluing verdicts for the five section-identity
    resolutions, each cell recomputed from the shipped fixtures."""
    rows: list[LandscapeRow] = []

    ri = ri_separation_objects()
    beh = beh_gluing_objects()
    repaired = beh_gluing_objects(repaired=True)
    extra = extra_states_objects()
    jfp = jfull_pair_objects()

    # Unquotiented: literal identity of sections.  Agreement on a jointly
    # surjective covering pins every value of the morphism, and compatible
    # strict families paste pointwise.
    s_global = jfp.sections[0]
    strict_sep = check_separation("strict", jfp.covering, s_global, s_global, jfp.judge)
    strict_family = [restrict_section(s_global, p) for p in jfp.covering.patches]
    strict_glue = glue_strict(jfp.covering, strict_family, jfp.judge)
    rows.append(LandscapeRow(
        "unquotiented", "yes", "yes (sheaf)",
        (
            ("identical sections stay identical patchwise and globally",
             all(strict_sep.locally_equal) and strict_sep.globally_equal
             and not strict_sep.separation_violated),
            ("restrictions of a global section glue back strictly",
             strict_glue.conflict is None and strict_glue.section is not None),
        ),
    ))

    # Common core: gluing always assembles by amalgamation, separation dies
    # on the extra-states pair.
    cog_sep = check_separation("cogerm", extra.covering,
                               extra.sections[0], extra.sections[1], extra.judge)
    cog_glued = glue_cogerm(
        extra.covering,
        [restrict_section(extra.sections[1], p) for p in extra.covering.patches],
        extra.judge,
    )
    rows.append(LandscapeRow(
        "cogerm", "no", "yes",
        (
            ("extra-states pair agrees on patches, no common core globally",
             cog_sep.separation_violated),
            ("compatible family amalgamates into a global section",
             cog_glued is not None),
        ),
    ))

    # Behavioral: separation holds pointwise, gluing breaks on the shipped
    # conflict and is repaired by the rerouted variant.
    beh_sep = check_separation("beh", extra.covering,
                               extra.sections[0], extra.sections[1], extra.judge)
    beh_glue = glue_behavioral(beh.covering, list(beh.sections), beh.judge)
    beh_search = search_bounded_behavioral_glue(
        beh.covering, list(beh.sections), beh.judge, max_states=4
    )
    beh_repaired = glue_behavioral(repaired.covering, list(repaired.sections),
                                   repaired.judge)
    rows.append(LandscapeRow(
        "behavioral", "yes", "no",
        (
            ("patchwise equal behavior forces global equality on the "
             "extra-states pair", all(beh_sep.locally_equal)
             and beh_sep.globally_equal and not beh_sep.separation_violated),
            ("compatible family obstructs at a shared after-state",
             isinstance(beh_glue, ObstructionReport)),
            ("no explanatory machine with at most 4 states glues the family",
             beh_search is None),
            ("rerouting one transition makes the same family glue",
             isinstance(beh_repaired, Section)),
        ),
    ))

    # Restricted interface: separation needs every patch to see the full
    # judged range; the input-splitting pair breaks it, the j-full fixtures
    # keep it; gluing inherits the behavioral obstruction on data-local
    # coverings, where the two notions coincide.
    ri_sep = check_separation("ri", ri.covering, ri.sections[0], ri.sections[1], ri.judge)
    jfull_ok = []
    for fx in (jfp, extra):
        rep = check_separation("ri", fx.covering, fx.sections[0], fx.sections[1],
                               fx.judge)
        jfull_ok.append(is_j_full(fx.covering, fx.judge)
                        and not rep.separation_violated)
    rows.append(LandscapeRow(
        "restricted-interface", "j-full only", "no in general",
        (
            ("input-splitting pair agrees on each patch's range, splits on "
             "the mixed word", ri_sep.separation_violated
             and ri_sep.global_witness is not None
             and ri_sep.global_witness[1] == ("a", "b")),
            ("every shipped j-full covering keeps separation", all(jfull_ok)),
            ("on data-local coverings the behavioral obstruction applies "
             "verbatim", is_j_full(beh.covering, beh.judge)
             and isinstance(beh_glue, ObstructionReport)),
        ),
    ))

    # Stateless: gluing is governed by robust disconnection of the judged
    # input domain; the punctured square glues, the two-band cut does not.
    u_ps, pj_ps = punctured_square_objects()
    v_ps = sheaf_verdict(u_ps, pj_ps)
    u_tb, pj_tb = two_band_objects()
    v_tb = sheaf_verdict(u_tb, pj_tb)
    cut = two_band_cut_objects()
    glue_cut = glue_stateless(cut.covering, cut.judge)
    rows.append(LandscapeRow(
        "stateless", "j-full only", "iff no robust disconnection",
        (
            ("punctured square: no robust disconnection, verdict sheaf",
             v_ps.is_sheaf),
            ("two-band: certificate found, verdict not sheaf",
             (not v_tb.is_sheaf) and len(v_tb.certificates) > 0),
            ("discretized cut covering is compatible but unglueable",
             cut.obstruction is not None and not glue_cut.ok),
            ("stateless sections agreeing on every patch agree globally "
             "here, since patch inputs jointly cover the raw inputs",
             set().union(*(p.i_image for p in cut.covering.patches))
             == set(cut.system.inputs)),
        ),
    ))
    return tuple(rows)
