"""cli-docs: ``sheafmealy.cli.main`` over a fixed stream of verbs and documents.

Each check runs one command line with ``--format json`` in a child forked
from this process right after import and set-up, and is timed inside the
child, so no verb inherits caches warmed by an earlier one.  Interpreter
start and import are not timed per check (the traced run reports them
once, as ``cli.import_ms`` and ``cli.import_modules``).

The stream covers every verb on every shipped fixture, documents
generated during set-up (system documents of 1,000 to 4,000 states,
covering, sections, rect-union and epsilon documents), readable but
invalid documents that should exit 1, and five malformed documents that
should exit 2 with a ``malformed input:`` line (fault F1: today an
exception escapes instead).
"""

from __future__ import annotations

import json
import math
import os
import random

from sheafmealy import cli

import wl_chain
import wl_eps
import wl_rect
from harness import Check
from oracles import float_boxes, sheaf_reference, shortest_split

FORKED = True
ALPHA, OUTS = wl_chain.ALPHA, wl_chain.OUTS

# What the README states about the shipped fixtures.
KINDS = {
    "cex-ri-separation": "sections", "cex-beh-gluing": "sections",
    "cex-beh-gluing-repaired": "sections", "cogerm-extra-states": "sections",
    "jfull-global-pair": "sections", "punctured-square": "rect-union",
    "two-band": "rect-union", "two-band-cut": "judge", "triangle": "epsilon",
    "simplex-sharp-1": "epsilon", "simplex-sharp-2": "epsilon", "simplex-sharp-3": "epsilon",
}
GLOBAL_PAIRS = ("cex-ri-separation", "cogerm-extra-states", "jfull-global-pair")
SEPARATION_FACTS = {
    # (fixture, kind): separation_violated, plus fields the README names
    ("cex-ri-separation", "ri"): (True, {"locally_equal": [True, True], "globally_equal": False,
                                         "global_witness": {"state": "s1", "word": ["a", "b"]}}),
    ("cex-ri-separation", "beh"): (False, {}),
    ("cogerm-extra-states", "cogerm"): (True, {"locally_equal": [True, True]}),
    ("cogerm-extra-states", "beh"): (False, {"globally_equal": True}),
    ("jfull-global-pair", "ri"): (False, {}),
    ("jfull-global-pair", "beh"): (False, {}),
}
DEPTHS = {"triangle": 3, "simplex-sharp-1": 2, "simplex-sharp-2": 3, "simplex-sharp-3": 4}
LANDSCAPE = [
    ("unquotiented", "yes", "yes (sheaf)"),
    ("cogerm", "no", "yes"),
    ("behavioral", "yes", "no"),
    ("restricted-interface", "j-full only", "no in general"),
    ("stateless", "j-full only", "iff no robust disconnection"),
]
SYSTEM_SIZES = (1000, 2000, 4000)

JUDGE_DOC = {"interp_inputs": list(ALPHA), "interp_outputs": list(OUTS),
             "i_map": {c: c for c in ALPHA}, "o_map": {o: o for o in OUTS}}

# F1: documents the README says should exit 2; each raises inside cli.main today.
MALFORMED = {
    "system-row-without-s2": {"before_states": ["p"], "after_states": ["p"], "inputs": ["i"],
                              "outputs": ["o"], "dynamics": [{"s": "p", "i": "i", "o": "o"}]},
    "rect-endpoint-1-over-0": {"dim": 2, "axis": 0,
                               "rects": [{"x": ["0", "1/0"], "y": ["0", "1"]}]},
    "rect-without-y": {"dim": 2, "axis": 0, "rects": [{"x": ["0", "1"]}]},
    "epsilon-without-dim": {"domain": "euclidean", "values": {"v": [0.0, 0.0]},
                            "i_map": {"v": "c"}},
    "sections-without-system": {"judge": JUDGE_DOC, "patches": [], "global_sections": []},
}


# ------------------------------------------------------------- documents


def system_doc(states, d, inputs=ALPHA, after=None) -> dict:
    """The system document shape, written without the library."""
    return {"before_states": sorted(states), "after_states": sorted(after or states),
            "inputs": list(inputs), "outputs": list(OUTS),
            "dynamics": [{"s": s, "i": c, "s2": d[(s, c)][0], "o": d[(s, c)][1]}
                         for s in sorted(states) for c in inputs]}


def patch_doc(d, before, after=None, inputs=ALPHA) -> dict:
    after = after or before
    return {"source": system_doc(before, d, inputs, after),
            "f_b": {s: s for s in before}, "f_a": {s: s for s in after},
            "f_i": {c: c for c in inputs}, "f_o": {o: o for o in OUTS}}


def section_doc(states, d, psi_b, psi_a) -> dict:
    return {"machine": system_doc(states, d), "psi_b": psi_b, "psi_a": psi_a}


def local_sections_doc(t: dict) -> dict:
    return {"system": system_doc(t["states"], t["table"]), "judge": JUDGE_DOC,
            "patches": [patch_doc(t["table"], t["b1"]), patch_doc(t["table"], t["b2"])],
            "local_sections": [section_doc(st, d, pb, pa) for d, st, pb, pa in t["local"]]}


def random_system(rng, n):
    states = [f"q{k}" for k in range(n)]
    return states, wl_chain.random_table(states, rng)


# ------------------------------------------------------------------ checks


def _argv(*args) -> list[str]:
    return ["--format", "json", *args]


def _cli_check(tag, argv, expect_rc, judge=None, fault=None):
    """A command line, its expected exit code, and a judge of its JSON output."""

    def verify(res):
        if res["exc"] is not None:
            return f"exception escaped cli.main: {res['exc']}"
        if res["rc"] != expect_rc:
            return f"exit {res['rc']}, expected {expect_rc} ({res['stderr'].strip()[:120]})"
        if expect_rc == 2 and not res["stderr"].startswith("malformed input:"):
            return "exit 2 without a 'malformed input:' line"
        if judge is None:
            return None
        doc = json.loads(res["stdout"]) if expect_rc in (0, 1) and res["stdout"] else None
        return judge(doc, res)

    return Check(tag, lambda: cli.main(argv), verify, fault)


def _fields(doc, want: dict) -> str | None:
    for k, v in want.items():
        if doc.get(k) != v:
            return f"{k} is {doc.get(k)!r}, expected {v!r}"
    return None


def _fixture_checks() -> list[Check]:
    out = []
    for name, kind in KINDS.items():
        out.append(_cli_check(f"validate-{name}", _argv("validate", name), 0,
                              lambda doc, _, k=kind: _fields(doc, {"valid": True, "kind": k})))
    for name, kind in KINDS.items():
        out.append(_cli_check(f"dump-{name}", _argv("fixtures", "dump", name), 0,
                              _dump_judge(name, kind)))
    out.append(_cli_check("fixtures-list", _argv("fixtures", "list"), 0, _list_judge))
    for name in GLOBAL_PAIRS:
        for kind in ("strict", "cogerm", "beh", "ri"):
            out.append(_cli_check(f"separation-{kind}-{name}",
                                  _argv("check", "separation", name, "--kind", kind), 0,
                                  _separation_judge(SEPARATION_FACTS.get((name, kind)))))
    for name, kind in KINDS.items():
        if kind == "sections":
            out.append(_cli_check(f"glue-cogerm-{name}", _argv("check", "glue-cogerm", name), 0,
                                  _glued_judge(None)))
    for name, kind in KINDS.items():
        if kind == "sections":
            want = {"cex-beh-gluing": False, "cex-beh-gluing-repaired": True}.get(name)
            out.append(_cli_check(f"glue-beh-{name}", _argv("check", "glue-beh", name), 0,
                                  _glued_judge(want, bounded=4 if want is False else None)))
    out.append(_cli_check("tame-check-punctured-square",
                          _argv("check", "tame-check", "punctured-square"), 0,
                          lambda doc, _: _fields(doc, {"is_sheaf": True})))
    out.append(_cli_check("tame-check-two-band", _argv("check", "tame-check", "two-band"), 0,
                          lambda doc, _: _fields(doc, {"is_sheaf": False,
                                                       "counterexample_obstructed": True})))
    for name, depth in DEPTHS.items():
        out.append(_cli_check(f"eps-depth-{name}", _argv("check", "eps-depth", name), 0,
                              lambda doc, _, k=depth: _fields(
                                  doc, {"feasible": False, "depth": k,
                                        "subfamily": list(range(k))})))
    out.append(_cli_check("landscape", _argv("check", "landscape"), 0, _landscape_judge))
    return out


def _dump_judge(name, kind):
    def judge(doc, res):
        text = res["stdout"]
        again = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
        if again != text:
            return "dump does not re-serialize to identical bytes"
        return _fields(doc, {"name": name, "kind": kind})
    return judge


def _list_judge(doc, _):
    got = {f["name"]: f["kind"] for f in doc["fixtures"]}
    return None if got == KINDS else f"fixture list {sorted(got)} differs from the README"


def _separation_judge(fact):
    def judge(doc, _):
        consistent = all(doc["locally_equal"]) and not doc["globally_equal"]
        if doc["separation_violated"] != consistent:
            return "separation_violated disagrees with the local and global verdicts"
        if doc["separation_violated"] != ("obstruction" in doc):
            return "obstruction report present exactly when separation is violated"
        if fact is None:
            return None
        violated, fields = fact
        if doc["separation_violated"] != violated:
            return f"separation_violated is {doc['separation_violated']}, README says {violated}"
        return _fields(doc, fields)
    return judge


def _glued_judge(want, bounded=None):
    def judge(doc, _):
        if doc["glued"] != ("machine" in doc):
            return "a glued result comes with its machine, and only then"
        if want is not None and doc["glued"] != want:
            return f"glued is {doc['glued']}, expected {want}"
        if bounded is not None and doc.get("bounded_search") != {"max_states": bounded,
                                                                 "found": False}:
            return f"bounded search {doc.get('bounded_search')}, expected none found"
        return None
    return judge


def _landscape_judge(doc, _):
    rows = [(r["presheaf"], r["separation"], r["gluing"]) for r in doc["rows"]]
    if rows != LANDSCAPE:
        return "landscape rows differ from the README table"
    return _fields(doc, {"all_evidence_ok": True})


def _write(workdir, name, doc) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _generated_checks(rng: random.Random, workdir: str) -> list[Check]:
    out = []
    for n in SYSTEM_SIZES:
        states, d = random_system(rng, n)
        path = _write(workdir, f"system-{n}", system_doc(states, d))
        out.append(_cli_check(f"validate-system-{n}", _argv("validate", path), 0,
                              lambda doc, _: _fields(doc, {"valid": True, "kind": "system"})))
    states, d = random_system(rng, 1000)
    doc = system_doc(states, d)
    gone = doc["dynamics"].pop(rng.randrange(len(doc["dynamics"])))
    path = _write(workdir, "system-missing-row", doc)
    want = [{"kind": "PartialDynamics",
             "detail": f"dynamics missing at ({gone['s']!r}, {gone['i']!r})"}]
    out.append(_cli_check("validate-system-missing-row", _argv("validate", path), 1,
                          lambda doc, _: _fields(doc, {"valid": False, "violations": want})))
    doc = system_doc(states, d)
    row = doc["dynamics"][rng.randrange(len(doc["dynamics"]))]
    row["s2"] = "ghost"
    path = _write(workdir, "system-foreign-successor", doc)
    out.append(_cli_check("validate-system-foreign-successor", _argv("validate", path), 1,
                          lambda doc, _: None if [v["kind"] for v in doc["violations"]]
                          == ["ForeignElement"] else "expected one ForeignElement violation"))

    for plant in ("glue", "obstruct"):
        t = wl_chain.data_local_tables(24, rng, plant == "obstruct")
        path = _write(workdir, f"sections-{plant}", local_sections_doc(t))
        out.append(_cli_check(f"validate-sections-{plant}", _argv("validate", path), 0,
                              lambda doc, _: _fields(doc, {"valid": True, "kind": "sections"})))
        out.append(_cli_check(f"glue-cogerm-{plant}", _argv("check", "glue-cogerm", path), 0,
                              _glued_judge(plant == "glue")))
        out.append(_cli_check(f"glue-beh-{plant}",
                              _argv("check", "glue-beh", path, "--max-states", "1"), 0,
                              _beh_doc_judge(plant, t["x2"])))
        cov = {"system": system_doc(t["states"], t["table"]),
               "patches": [patch_doc(t["table"], t["b1"]), patch_doc(t["table"], t["b2"])]}
        if plant == "obstruct":
            cov["patches"].pop()
        path = _write(workdir, f"covering-{plant}", cov)
        out.append(_cli_check(f"validate-covering-{plant}", _argv("validate", path),
                              0 if plant == "glue" else 1,
                              lambda doc, _, ok=plant == "glue": _fields(doc, {"valid": ok})))

    states, d = random_system(rng, 16)
    d2, st2, ren = wl_chain.mixed_copy(d, states, "mixed")
    whole = {s: s for s in states}
    doc = {"system": system_doc(states, d), "judge": JUDGE_DOC,
           "patches": [patch_doc(d, states, inputs=("a",)), patch_doc(d, states, inputs=("b",))],
           "global_sections": [section_doc(states, d, whole, whole),
                               section_doc(st2, d2, ren, ren)]}
    path = _write(workdir, "sections-separation", doc)
    for kind in ("beh", "ri"):
        out.append(_cli_check(f"separation-{kind}-generated",
                              _argv("check", "separation", path, "--kind", kind), 0,
                              _generated_separation_judge(kind, states, d, st2, d2, ren)))

    # Closed edges only: with an open edge at a robust abscissa, a band
    # component can miss the fiber, and tame-check then crashes while
    # writing the certificate (a None fiber point), on some seeds only.
    for name, boxes in (("rect-random", wl_rect.random_boxes(rng, 30, 4, 4, open_share=0.0)),
                        ("rect-staircase", wl_rect.staircase(rng, 10))):
        path = _write(workdir, name, wl_rect.payload(boxes, 0))
        out.append(_cli_check(f"validate-{name}", _argv("validate", path), 0,
                              lambda doc, _: _fields(doc, {"valid": True, "kind": "rect-union"})))
        out.append(_cli_check(f"tame-check-{name}", _argv("check", "tame-check", path), 0,
                              _tame_doc_judge(boxes)))

    for name, planted in (("eps-hidden", (1, 4, 7)), ("eps-feasible", None)):
        doc, depth = _epsilon_doc(rng, planted)
        path = _write(workdir, name, doc)
        out.append(_cli_check(f"eps-depth-{name}", _argv("check", "eps-depth", path), 0,
                              lambda doc, _, p=planted: _fields(
                                  doc, {"feasible": p is None,
                                        "depth": None if p is None else 3,
                                        "subfamily": None if p is None else list(p)})))
    doc, _ = _epsilon_doc(rng, None)
    doc.update(domain="box", box=[[0.0, 1.0], [0.0, 1.0]])
    path = _write(workdir, "eps-outside-box", doc)
    out.append(_cli_check("validate-eps-outside-box", _argv("validate", path), 1))

    for name, doc in MALFORMED.items():
        path = _write(workdir, f"malformed-{name}", doc)
        out.append(_cli_check(f"malformed-{name}", _argv("validate", path), 2, fault="F1"))
    return out


def _beh_doc_judge(plant, x2):
    def judge(doc, _):
        if plant == "glue":
            return _fields(doc, {"glued": True})
        if doc["glued"] or doc["obstruction"]["site"] != [x2]:
            return f"expected an obstruction at {x2}"
        return _fields(doc, {"bounded_search": {"max_states": 1, "found": False}})
    return judge


def _generated_separation_judge(kind, states, d, st2, d2, ren):
    starts = [(s, ren[s]) for s in states]

    def judge(doc, _):
        alphas = [ALPHA, ALPHA] if kind == "beh" else [("a",), ("b",)]
        local = [shortest_split(d, states, d2, st2, a, starts) is None for a in alphas]
        glob = shortest_split(d, states, d2, st2, ALPHA, starts) is None
        return _fields(doc, {"locally_equal": local, "globally_equal": glob,
                             "separation_violated": all(local) and not glob})
    return judge


def _tame_doc_judge(boxes):
    def judge(doc, _):
        _, robust = sheaf_reference(float_boxes(boxes), 0)
        want = {"is_sheaf": not robust}
        if robust:
            want["counterexample_obstructed"] = True
        return _fields(doc, want)
    return judge


def _epsilon_doc(rng, planted):
    """An 8-patch plane family: a hidden regular triangle at the planted
    patches among distractors near its centroid, or a feasible family."""
    r_face, r_full = math.sqrt(0.5), math.sqrt(2.0 / 3.0)
    eps = (r_face + r_full) / 2
    verts = wl_eps.simplex_vertices(2)
    values = {}
    for k in range(8):
        if planted is not None and k in planted:
            p = verts[planted.index(k)]
        else:
            p = wl_eps.ball_point(rng, 2, 0.05 if planted else 0.9 * eps)
        values[f"p{k}"] = [p[0] + 3.0, p[1] - 1.0]
    doc = {"dim": 2, "domain": "euclidean", "values": values,
           "i_map": {k: "cls" for k in values}, "interp_inputs": ["cls"],
           "patches": [[k] for k in sorted(values)], "eps": eps}
    return doc, None if planted is None else 3


def setup(seed: int, workdir: str) -> list[Check]:
    rng = random.Random(seed)
    return _fixture_checks() + _generated_checks(rng, workdir)
