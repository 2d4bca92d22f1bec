"""Canonical JSON encoding for every object the command line touches.

One serialization convention throughout: keys sorted, compact separators,
exact rationals as strings ("1/2", "3"), never floats in rectangle-union
payloads.  Writing is deterministic, so serialize, parse, serialize is
byte-identical; golden files can be compared directly.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any

from .epshelly import (
    DepthReport,
    EpsilonInstance,
    _check_eps,
    _patch_targets,
    epsilon_instance,
)
from .errors import CheckerError, MalformedDocument
from .explain import Judge, Section, judge, judged_section
from .localglobal import ObstructionReport, SeparationReport
from .systems import (
    Covering,
    MealySystem,
    OpenImmersion,
    check_morphism,
    covering,
    morphism,
    open_immersion,
    validate_system,
)
from .tame import (
    SIDE_KEYS,
    ProjectionJudge,
    Rect,
    RectUnion,
    RobustDisconnectionCertificate,
    SheafVerdict,
    _integer,
    union_from_payload,
)


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_bytes(obj: Any) -> bytes:
    return (canonical_dumps(obj) + "\n").encode("utf-8")


def loads(text: str | bytes) -> Any:
    return json.loads(text)


def require(payload: Any, what: str, *keys: str, objects: tuple[str, ...] = (),
            lists: tuple[str, ...] = ()) -> None:
    """Raise :class:`MalformedDocument` when the document is no object,
    lacks one of ``keys``, or holds something other than an object under a
    name in ``objects`` or a list under a name in ``lists``.  A null field
    counts as absent."""
    if not isinstance(payload, Mapping):
        raise MalformedDocument(f"{what} must be an object, got {payload!r}")
    missing = [k for k in keys if payload.get(k) is None]
    if missing:
        raise MalformedDocument(f"{what} lacks {', '.join(map(repr, missing))}")
    for names, kind, name in ((objects, Mapping, "an object"), (lists, list, "a list")):
        for key in names:
            if payload.get(key) is not None and not isinstance(payload[key], kind):
                raise MalformedDocument(f"{what}: {key} must be {name}, got {payload[key]!r}")


# ---------------------------------------------------------------- systems

def system_payload(s: MealySystem) -> dict:
    rows = []
    for st in s.before:
        for c in s.inputs:
            s2, o = s.transition(st, c)
            rows.append({"s": st, "i": c, "s2": s2, "o": o})
    return {
        "before_states": list(s.before),
        "after_states": list(s.after),
        "inputs": list(s.inputs),
        "outputs": list(s.outputs),
        "dynamics": rows,
    }


def system_from_payload(payload: Mapping) -> MealySystem:
    return validate_system(payload)


# ----------------------------------------------------------------- judges

def judge_payload(j: Judge) -> dict:
    return {
        "interp_inputs": list(j.interp_inputs),
        "interp_outputs": list(j.interp_outputs),
        "i_map": {k: v for k, v in j.i_map},
        "o_map": {k: v for k, v in j.o_map},
    }


def judge_from_payload(payload: Mapping) -> Judge:
    require(payload, "a judge", "i_map", "o_map", objects=("i_map", "o_map"),
            lists=("interp_inputs", "interp_outputs"))
    return judge(
        payload["i_map"],
        payload["o_map"],
        payload.get("interp_inputs"),
        payload.get("interp_outputs"),
    )


# ------------------------------------------------------------- immersions

def immersion_payload(p: OpenImmersion) -> dict:
    m = p.morphism
    src = m.source
    return {
        "source": system_payload(src),
        "f_b": {u: m.map_b(u) for u in src.before},
        "f_a": {u: m.map_a(u) for u in src.after},
        "f_i": {u: m.map_i(u) for u in src.inputs},
        "f_o": {u: m.map_o(u) for u in src.outputs},
    }


def immersion_from_payload(target: MealySystem, payload: Mapping) -> OpenImmersion:
    """A patch read from a document.  Its maps must form a morphism, so the
    dynamics square is checked here: the checkers rely on patches, and so
    on their overlaps, being closed under the target's dynamics."""
    maps = ("f_b", "f_a", "f_i", "f_o")
    require(payload, "a patch", "source", *maps, objects=("source", *maps))
    src = validate_system(payload["source"])
    m = morphism(src, target, payload["f_b"], payload["f_a"],
                 payload["f_i"], payload["f_o"])
    chk = check_morphism(m)
    if not chk.ok:
        raise CheckerError(f"patch does not commute with the dynamics at {chk.witness!r}")
    return open_immersion(m)


def covering_payload(c: Covering) -> dict:
    return {
        "system": system_payload(c.target),
        "patches": [immersion_payload(p) for p in c.patches],
    }


def covering_from_payload(payload: Mapping) -> Covering:
    require(payload, "a covering", "system", "patches", objects=("system",), lists=("patches",))
    tgt = validate_system(payload["system"])
    patches = [immersion_from_payload(tgt, p) for p in payload["patches"]]
    return covering(tgt, patches)


# ---------------------------------------------------------------- sections

def section_payload(s: Section) -> dict:
    """The machine and the state components of the morphism; the interface
    components are forced by the judge and the patch, so they are derived
    on read rather than stored."""
    m = s.psi
    src = s.patch.source
    return {
        "machine": system_payload(s.explanatory),
        "psi_b": {u: m.map_b(u) for u in src.before},
        "psi_a": {u: m.map_a(u) for u in src.after},
    }


def section_from_payload(patch: OpenImmersion, j: Judge, payload: Mapping) -> Section:
    require(payload, "a section", "machine", "psi_b", "psi_a",
            objects=("machine", "psi_b", "psi_a"))
    machine = validate_system(payload["machine"])
    return judged_section(patch, machine, j, payload["psi_b"], payload["psi_a"])


# -------------------------------------------------------------- rect unions

def _rect_payload(r: Rect) -> dict:
    out: dict[str, Any] = {key: [str(s.lo), str(s.hi)] for key, s in zip(SIDE_KEYS, r)}
    out["open"] = [flag for s in r for flag in (s.lo_open, s.hi_open)]
    return out


def union_payload(u: RectUnion, pj: ProjectionJudge) -> dict:
    return {
        "dim": u.dim,
        "axis": pj.axis,
        "rects": [_rect_payload(r) for r in u.rects],
    }


def union_from_json(payload: Mapping) -> tuple[RectUnion, ProjectionJudge]:
    require(payload, "a rectangle union")
    return union_from_payload(payload)


def certificate_payload(cert: RobustDisconnectionCertificate) -> dict:
    return {
        "t0": str(cert.t0),
        "band": [str(cert.n_lo), str(cert.n_hi)],
        "components": [
            {"rects": [_rect_payload(r) for r in comp.rects], "dim": comp.dim}
            for comp in cert.components
        ],
        "fiber_points": [None if p is None else [str(x) for x in p]
                         for p in cert.fiber_points],
        "component_of_first_point": cert.v_index,
    }


def sheaf_verdict_payload(v: SheafVerdict) -> dict:
    return {
        "is_sheaf": v.is_sheaf,
        "candidates": [str(t) for t in v.candidates],
        "certificates": [certificate_payload(c) for c in v.certificates],
        "notes": list(v.notes),
    }


# ------------------------------------------------------------ epsilon data

def epsilon_payload(inst: EpsilonInstance, patches: list[list[str]],
                    eps: float | None = None) -> dict:
    out: dict[str, Any] = {
        "dim": inst.dim,
        "domain": inst.domain,
        "values": {k: list(v) for k, v in inst.values},
        "i_map": {k: v for k, v in inst.i_map},
        "interp_inputs": list(inst.interp_inputs),
        "patches": patches,
    }
    if inst.box is not None:
        out["box"] = [list(b) for b in inst.box]
    if eps is not None:
        out["eps"] = eps
    return out


def epsilon_from_payload(payload: Mapping) -> tuple[EpsilonInstance, list[list[str]], float | None]:
    """An epsilon instance, its patches and its tolerance.  A missing field,
    ``values`` or ``i_map`` that is no object, ``patches``, ``box`` or
    ``interp_inputs`` that is no list, an input name that is no string, a
    ``dim`` that is no JSON integer, or a coordinate, box bound or ``eps``
    that is no JSON number in float range (a string or boolean is none)
    raises :class:`MalformedDocument`; a patch input without a judged value
    or point raises :class:`CheckerError`, and a negative, NaN or infinite
    ``eps`` :class:`NegativeEpsilon`, as the checks themselves would."""
    what = "an epsilon document"
    require(payload, what, "dim", "domain", "values", "i_map", objects=("values", "i_map"),
            lists=("patches", "box", "interp_inputs"))
    patches = payload.get("patches") or []
    if not all(isinstance(p, list) for p in patches):
        raise MalformedDocument(f"{what}: each patch must be a list of raw inputs")
    names = [*payload["i_map"].values(), *(payload.get("interp_inputs") or []),
             *(raw for p in patches for raw in p)]
    if not all(isinstance(x, str) for x in names):
        raise MalformedDocument(f"{what}: raw and judged inputs must be strings")
    dim = _integer(payload, "dim")
    try:
        values = {raw: [_number(x) for x in v] for raw, v in payload["values"].items()}
        box = None if payload.get("box") is None else [
            (_number(lo), _number(hi)) for lo, hi in payload["box"]
        ]
        eps = None if payload.get("eps") is None else _number(payload["eps"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedDocument(
            f"{what} needs an integer dim and numeric values, box bounds and eps ({exc})"
        ) from exc
    inst = epsilon_instance(dim, payload["domain"], values, payload["i_map"],
                            payload.get("interp_inputs"), box)
    patches = [list(p) for p in patches]
    _patch_targets(inst, patches)
    if eps is not None:
        _check_eps(eps)
    return inst, patches, eps


def _number(x: Any) -> float:
    """``x`` as a float if it is a JSON number; a string or a boolean is
    refused, not coerced.  ``float`` runs first, so that what it cannot read
    at all is refused with its own message."""
    value = float(x)
    if isinstance(x, (str, bool)):
        raise TypeError(f"{x!r} is not a JSON number")
    return value


# ---------------------------------------------------------------- reports

def obstruction_payload(rep: ObstructionReport) -> dict:
    return {
        "kind": rep.kind,
        "site": list(rep.site),
        "word": None if rep.word is None else list(rep.word),
        "forced": [
            {
                "label": f.label,
                "machine": system_payload(f.machine),
                "state": f.state,
                "outputs": list(f.outputs),
            }
            for f in rep.forced
        ],
        "narrative": rep.narrative,
    }


def separation_payload(rep: SeparationReport) -> dict:
    out: dict[str, Any] = {
        "kind": rep.kind,
        "locally_equal": rep.locally_equal,
        "globally_equal": rep.globally_equal,
        "separation_violated": rep.separation_violated,
        "local_witnesses": [
            None if w is None else {"state": w[0], "word": list(w[1])}
            for w in rep.local_witnesses
        ],
    }
    if rep.global_witness is not None:
        out["global_witness"] = {
            "state": rep.global_witness[0],
            "word": list(rep.global_witness[1]),
        }
    if rep.obstruction is not None:
        out["obstruction"] = obstruction_payload(rep.obstruction)
    return out


def depth_payload(rep: DepthReport) -> dict:
    return {
        "feasible": rep.feasible,
        "depth": rep.depth,
        "subfamily": None if rep.subfamily is None else list(rep.subfamily),
        "i_prime": rep.i_prime,
        "marginal": rep.marginal,
    }
