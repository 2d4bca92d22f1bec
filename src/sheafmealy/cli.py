"""Command line driver: validate documents, run checks, dump fixtures.

Exit codes: 0 when the requested check ran (negative verdicts such as a
gluing obstruction are results, not errors), 1 when the input is readable
but invalid (a validator rejected it), 2 when the input cannot be read or
parsed at all, or when an output file cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from . import fixtures as fx
from . import jsonio
from .epshelly import obstruction_depth
from .errors import CheckerError, IncompatibleFamily, MalformedDocument
from .explain import Section, validate_section
from .localglobal import (
    ObstructionReport,
    check_separation,
    compatible_family,
    glue_behavioral,
    glue_cogerm,
)
from .systems import check_covering, system_violations, validate_system
from .tame import fiber, sheaf_verdict, two_patch_counterexample

def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(jsonio.canonical_dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _load_document(target: str) -> tuple[str, dict]:
    """A built-in fixture name, or a path to a JSON document.  Files may be
    fixture wrappers or bare payloads; bare ones are classified by shape."""
    if os.path.exists(target):
        try:
            with open(target, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise MalformedDocument(f"cannot read {target}: {exc}") from exc
        if not isinstance(doc, dict):
            raise MalformedDocument("top-level JSON value must be an object")
        if "kind" in doc and "payload" in doc:
            return doc["kind"], doc["payload"]
        if "global_sections" in doc or "local_sections" in doc:
            return "sections", doc
        if "before_states" in doc:
            return "system", doc
        if "rects" in doc:
            return "rect-union", doc
        if "values" in doc and "domain" in doc:
            return "epsilon", doc
        if "judge" in doc and "system" in doc:
            return "judge", doc
        if "patches" in doc and "system" in doc:
            return "covering", doc
        raise MalformedDocument("document shape not recognized")
    fixture = fx.get_fixture(target)
    return fixture.kind, fixture.payload


def _validate(args: argparse.Namespace) -> int:
    kind, payload = _load_document(args.path)
    if kind == "system":
        violations = system_violations(payload)
        if violations:
            _emit(args,
                  {"valid": False,
                   "violations": [{"kind": v.kind, "detail": v.detail}
                                  for v in violations]},
                  [f"invalid: {v.kind}: {v.detail}" for v in violations])
            return 1
        validate_system(payload)
    elif kind == "sections":
        sf = fx.sections_from_payload(payload)
        cov = check_covering(sf.covering)
        if not cov.ok:
            _emit(args, {"valid": False, "violations": [f"covering not jointly surjective on {cov.side}"]},
                  [f"invalid: covering not jointly surjective on {cov.side}"])
            return 1
        for k, s in enumerate(sf.sections):
            rep = validate_section(sf.judge, s)
            if not rep.ok:
                _emit(args, {"valid": False, "violations": [f"section {k}: {rep.reason}"]},
                      [f"invalid: section {k}: {rep.reason}"])
                return 1
    elif kind == "covering":
        c = jsonio.covering_from_payload(payload)
        cov = check_covering(c)
        if not cov.ok:
            _emit(args, {"valid": False, "violations": [f"not jointly surjective on {cov.side}"]},
                  [f"invalid: not jointly surjective on {cov.side}"])
            return 1
    elif kind == "judge":
        jsonio.require(payload, "a judge document", "system", "judge", objects=("system",))
        sys_ = validate_system(payload["system"])
        j = jsonio.judge_from_payload(payload["judge"])
        from .explain import validate_judge

        validate_judge(j, sys_)
    elif kind == "rect-union":
        jsonio.union_from_json(payload)
    elif kind == "epsilon":
        jsonio.epsilon_from_payload(payload)
    else:
        raise MalformedDocument(f"unknown fixture kind {kind!r}")
    _emit(args, {"valid": True, "kind": kind}, [f"valid {kind}"])
    return 0


def _sections_for_check(target: str) -> fx.SectionsFixture:
    kind, payload = _load_document(target)
    if kind != "sections":
        raise CheckerError(f"this check needs a sections fixture, got {kind!r}")
    return fx.sections_from_payload(payload)


def _check_separation(args: argparse.Namespace) -> int:
    sf = _sections_for_check(args.target)
    if sf.scope != "global" or len(sf.sections) < 2:
        raise CheckerError("separation compares two global sections")
    rep = check_separation(args.kind, sf.covering, sf.sections[0], sf.sections[1],
                           sf.judge)
    lines = [f"kind: {args.kind}"]
    for k, ok in enumerate(rep.locally_equal):
        lines.append(f"patch {k}: {'locally equal' if ok else 'locally unequal'}")
    lines.append(f"global: {'equal' if rep.globally_equal else 'unequal'}")
    if rep.global_witness is not None:
        st, word = rep.global_witness
        lines.append(f"distinguishing word from {st}: ({', '.join(word)})")
    lines.append(f"separation violated: {'yes' if rep.separation_violated else 'no'}")
    if rep.obstruction is not None:
        lines.append(rep.obstruction.narrative)
    _emit(args, jsonio.separation_payload(rep), lines)
    return 0


def _family(sf: fx.SectionsFixture) -> list[Section]:
    from .explain import restrict_section

    if sf.scope == "local":
        return list(sf.sections)
    return [restrict_section(sf.sections[0], p) for p in sf.covering.patches]


def _check_glue_cogerm(args: argparse.Namespace) -> int:
    sf = _sections_for_check(args.target)
    secs = _family(sf)
    try:
        fam = compatible_family(sf.covering, sf.judge, secs)
        glued = glue_cogerm(fam)
    except IncompatibleFamily as exc:
        _emit(args, {"glued": False, "reason": str(exc)},
              [f"incompatible family: {exc}"])
        return 0
    _emit(args,
          {"glued": True, "machine": jsonio.system_payload(glued.explanatory)},
          [f"glued: machine with {len(glued.explanatory.before)} states"])
    return 0


def _check_glue_beh(args: argparse.Namespace) -> int:
    sf = _sections_for_check(args.target)
    secs = _family(sf)
    try:
        result = glue_behavioral(sf.covering, secs, sf.judge)
    except IncompatibleFamily as exc:
        _emit(args, {"glued": False, "reason": str(exc)},
              [f"incompatible family: {exc}"])
        return 0
    if isinstance(result, ObstructionReport):
        payload: dict[str, Any] = {"glued": False,
                                   "obstruction": jsonio.obstruction_payload(result)}
        lines = [result.narrative]
        for f in result.forced:
            lines.append(f"{f.label}: outputs ({', '.join(f.outputs)})")
        if args.max_states > 0:
            # An obstruction rules out every machine, whatever its size.
            payload["bounded_search"] = {"max_states": args.max_states, "found": False}
            lines.append(f"no explanatory machine with at most {args.max_states} "
                         f"states glues the family")
        _emit(args, payload, lines)
        return 0
    _emit(args,
          {"glued": True, "machine": jsonio.system_payload(result.explanatory)},
          [f"glued: machine with {len(result.explanatory.before)} states"])
    return 0


def _check_tame(args: argparse.Namespace) -> int:
    kind, payload = _load_document(args.target)
    if kind != "rect-union":
        raise CheckerError(f"tame-check needs a rect-union fixture, got {kind!r}")
    u, pj = jsonio.union_from_json(payload)
    verdict = sheaf_verdict(u, pj)
    robust = {cert.t0 for cert in verdict.certificates}
    lines = [f"sheaf: {'yes' if verdict.is_sheaf else 'no'}"]
    for t in verdict.candidates:
        pieces = fiber(u, pj, t)
        lines.append(
            f"disconnected fiber at {t}: {'yes' if len(pieces) > 1 else 'no'}; "
            f"robust: {'yes' if t in robust else 'no'}"
        )
    doc = jsonio.sheaf_verdict_payload(verdict)
    if not verdict.is_sheaf:
        cex = two_patch_counterexample(u, pj, verdict.certificates[0])
        ok = cex.obstruction is not None
        lines.append(
            "two-patch covering from the certificate: compatible patches, "
            + ("gluing obstructed" if ok else "gluing unexpectedly succeeded")
        )
        doc["counterexample_obstructed"] = ok
    _emit(args, doc, lines)
    return 0


def _check_eps_depth(args: argparse.Namespace) -> int:
    kind, payload = _load_document(args.target)
    if kind != "epsilon":
        raise CheckerError(f"eps-depth needs an epsilon fixture, got {kind!r}")
    inst, patches, eps = jsonio.epsilon_from_payload(payload)
    if args.eps is not None:
        eps = args.eps
    if eps is None:
        raise CheckerError("no tolerance: fixture has none and --eps not given")
    rep = obstruction_depth(inst, patches, eps)
    lines = []
    if rep.feasible:
        lines.append(f"feasible at eps={eps}")
    else:
        lines.append(f"depth {rep.depth}")
        lines.append(
            f"smallest infeasible subfamily {list(rep.subfamily)} "
            f"at judged input {rep.i_prime}"
        )
    if rep.marginal:
        lines.append("warning: some comparison fell within tolerance of eps")
    doc = jsonio.depth_payload(rep)
    doc["eps"] = eps
    _emit(args, doc, lines)
    return 0


def _check_landscape(args: argparse.Namespace) -> int:
    rows = fx.landscape()
    lines = [f"{'presheaf':<22} {'separated?':<14} gluing?"]
    for row in rows:
        lines.append(f"{row.presheaf:<22} {row.separation:<14} {row.gluing}")
    lines.append("")
    ok_all = True
    for row in rows:
        for desc, ok in row.evidence:
            ok_all = ok_all and ok
            lines.append(f"[{'ok' if ok else 'FAIL'}] {row.presheaf}: {desc}")
    doc = {
        "rows": [
            {
                "presheaf": r.presheaf,
                "separation": r.separation,
                "gluing": r.gluing,
                "evidence": [{"check": d, "ok": o} for d, o in r.evidence],
            }
            for r in rows
        ],
        "all_evidence_ok": ok_all,
    }
    _emit(args, doc, lines)
    return 0 if ok_all else 1


def _fixtures_list(args: argparse.Namespace) -> int:
    rows = fx.all_fixtures()
    doc = {"fixtures": [{"name": f.name, "kind": f.kind, "provenance": f.provenance}
                        for f in rows]}
    lines = [f"{f.name:<24} {f.kind:<12} {f.provenance}" for f in rows]
    _emit(args, doc, lines)
    return 0


def _fixtures_dump(args: argparse.Namespace) -> int:
    fixture = fx.get_fixture(args.name)
    doc = {
        "name": fixture.name,
        "kind": fixture.kind,
        "provenance": fixture.provenance,
        "payload": fixture.payload,
    }
    data = jsonio.canonical_bytes(doc)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheafmealy",
        description="checkers for local-to-global consistency of judged "
                    "explanations of finite transducers",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_val = sub.add_parser("validate", help="validate a JSON document or fixture")
    p_val.add_argument("path")

    p_chk = sub.add_parser("check", help="run one of the named checks")
    chk = p_chk.add_subparsers(dest="what", required=True)

    p_sep = chk.add_parser("separation")
    p_sep.add_argument("target")
    p_sep.add_argument("--kind", choices=("strict", "cogerm", "beh", "ri"),
                       default="ri")

    p_gc = chk.add_parser("glue-cogerm")
    p_gc.add_argument("target")

    p_gb = chk.add_parser("glue-beh")
    p_gb.add_argument("target")
    p_gb.add_argument("--max-states", type=int, default=4,
                      help="state bound of the bounded search after an obstruction; 0 skips")

    p_tc = chk.add_parser("tame-check")
    p_tc.add_argument("target")

    p_ed = chk.add_parser("eps-depth")
    p_ed.add_argument("target")
    p_ed.add_argument("--eps", type=float, default=None)

    chk.add_parser("landscape")

    p_fx = sub.add_parser("fixtures", help="list or dump built-in fixtures")
    fxs = p_fx.add_subparsers(dest="what", required=True)
    fxs.add_parser("list")
    p_dump = fxs.add_parser("dump")
    p_dump.add_argument("name")
    p_dump.add_argument("--out", default=None)

    return parser


_CHECKS = {
    "separation": _check_separation,
    "glue-cogerm": _check_glue_cogerm,
    "glue-beh": _check_glue_beh,
    "tame-check": _check_tame,
    "eps-depth": _check_eps_depth,
    "landscape": _check_landscape,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "validate":
            return _validate(args)
        if args.verb == "check":
            return _CHECKS[args.what](args)
        if args.verb == "fixtures":
            return _fixtures_list(args) if args.what == "list" else _fixtures_dump(args)
        raise MalformedDocument(f"unknown verb {args.verb!r}")
    except MalformedDocument as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    except CheckerError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("ScaleExceeded: the check ran out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
