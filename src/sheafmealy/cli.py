"""Command line driver: validate documents, run checks, dump fixtures.

Exit codes: 0 when the requested check ran (negative verdicts such as a
gluing obstruction are results, not errors), 1 when the input is readable
but invalid (a validator rejected it), 2 when the input cannot be read or
parsed at all, when an output file cannot be written, or when the command
line is wrong.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, NoReturn

from . import fixtures as fx
from . import jsonio
from .epshelly import obstruction_depth
from .errors import CheckerError, IncompatibleFamily, MalformedDocument
from .explain import Section, restrict_section, validate_judge, validate_section
from .localglobal import (
    ObstructionReport,
    check_separation,
    glue_behavioral,
    glue_cogerm,
)
from .systems import check_covering, system_violations, validate_system
from .tame import fiber, sheaf_verdict, two_patch_counterexample

def _emit(args: SimpleNamespace, payload: dict, text_lines: list[str]) -> None:
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
        except (OSError, ValueError, RecursionError) as exc:
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


def _invalid(args: SimpleNamespace, violations: list, lines: list[str]) -> int:
    _emit(args, {"valid": False, "violations": violations}, [f"invalid: {x}" for x in lines])
    return 1


def _validate(args: SimpleNamespace) -> int:
    kind, payload = _load_document(args.path)
    if kind == "system":
        violations = system_violations(payload)
        if violations:
            return _invalid(args, [{"kind": v.kind, "detail": v.detail} for v in violations],
                            [f"{v.kind}: {v.detail}" for v in violations])
    elif kind == "sections":
        sf = fx.sections_from_payload(payload)
        cov = check_covering(sf.covering)
        if not cov.ok:
            why = f"covering not jointly surjective on {cov.side}"
            return _invalid(args, [why], [why])
        for k, s in enumerate(sf.sections):
            rep = validate_section(sf.judge, s)
            if not rep.ok:
                why = f"section {k}: {rep.reason}"
                return _invalid(args, [why], [why])
    elif kind == "covering":
        c = jsonio.covering_from_payload(payload)
        cov = check_covering(c)
        if not cov.ok:
            why = f"not jointly surjective on {cov.side}"
            return _invalid(args, [why], [why])
    elif kind == "judge":
        jsonio.require(payload, "a judge document", "system", "judge", objects=("system",))
        sys_ = validate_system(payload["system"])
        j = jsonio.judge_from_payload(payload["judge"])
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


def _check_separation(args: SimpleNamespace) -> int:
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
    if sf.scope == "local":
        return list(sf.sections)
    if not sf.sections:
        raise CheckerError("gluing needs a global section to restrict to the patches")
    return [restrict_section(sf.sections[0], p) for p in sf.covering.patches]


def _check_glue(args: SimpleNamespace, gluer: Callable[..., Any]) -> int:
    sf = _sections_for_check(args.target)
    secs = _family(sf)
    try:
        result = gluer(sf.covering, secs, sf.judge)
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


def _check_tame(args: SimpleNamespace) -> int:
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
        # Run for its check: it raises on a covering that glues.
        two_patch_counterexample(u, pj, verdict.certificates[0])
        lines.append("two-patch covering from the certificate: compatible patches, "
                     "gluing obstructed")
        doc["counterexample_obstructed"] = True
    _emit(args, doc, lines)
    return 0


def _check_eps_depth(args: SimpleNamespace) -> int:
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


def _check_landscape(args: SimpleNamespace) -> int:
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


def _fixtures_list(args: SimpleNamespace) -> int:
    rows = [(name, kind, provenance) for name, (kind, provenance, _) in fx._REGISTRY.items()]
    doc = {"fixtures": [{"name": name, "kind": kind, "provenance": provenance}
                        for name, kind, provenance in rows]}
    lines = [f"{name:<24} {kind:<12} {provenance}" for name, kind, provenance in rows]
    _emit(args, doc, lines)
    return 0


def _fixtures_dump(args: SimpleNamespace) -> int:
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


# ------------------------------------------------------------ command line

class _Option(NamedTuple):
    name: str
    type: Callable[[str], Any]
    choices: tuple[str, ...] | None
    default: Any
    help: str

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


class _Command(NamedTuple):
    handler: Callable[[SimpleNamespace], int]
    positional: str | None
    options: tuple[_Option, ...]
    help: str


_FORMAT = _Option("--format", str, ("text", "json"), "text", "report format")

# The whole command line, one row per command; the verbs and what each
# verb offers are read off the keys.
_COMMANDS: dict[tuple[str, ...], _Command] = {
    ("validate",): _Command(_validate, "path", (), "validate a JSON document or fixture"),
    ("check", "separation"): _Command(_check_separation, "target", (
        _Option("--kind", str, ("strict", "cogerm", "beh", "ri"), "ri",
                "which separation to compare"),),
        "compare two global sections on every patch and on the whole system"),
    # A gluer is looked up when its command runs, so a wrapper bound in its
    # place (as the benchmark's tracer binds one) is the one called.
    ("check", "glue-cogerm"): _Command(lambda args: _check_glue(args, glue_cogerm), "target",
                                       (), "glue a compatible family along common cores"),
    ("check", "glue-beh"): _Command(lambda args: _check_glue(args, glue_behavioral), "target", (
        _Option("--max-states", int, None, 4,
                "state bound of the bounded search after an obstruction; 0 skips"),),
        "glue a family up to behavior, or report the obstruction"),
    ("check", "tame-check"): _Command(_check_tame, "target", (),
                                      "sheaf verdict of a rectangle union"),
    ("check", "eps-depth"): _Command(_check_eps_depth, "target", (
        _Option("--eps", float, None, None, "tolerance, in place of the document's"),),
        "obstruction depth of an epsilon instance"),
    ("check", "landscape"): _Command(_check_landscape, None, (),
                                     "the separation and gluing landscape with its evidence"),
    ("fixtures", "list"): _Command(_fixtures_list, None, (), "list the built-in fixtures"),
    ("fixtures", "dump"): _Command(_fixtures_dump, "name", (
        _Option("--out", str, None, None, "file to write instead of stdout"),),
        "write one fixture as canonical JSON"),
}

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _choices(key: tuple[str, ...]) -> list[str]:
    return list(dict.fromkeys(k[len(key)] for k in _COMMANDS
                              if len(k) > len(key) and k[:len(key)] == key))


def _synopsis(option: _Option) -> str:
    if option.choices:
        return f"{option.name} {{{','.join(option.choices)}}}"
    return f"{option.name} {option.dest.upper()}"


def _usage(key: tuple[str, ...]) -> str:
    command = _COMMANDS.get(key)
    words = ["usage: sheafmealy", *key, "[-h]"]
    if not key:
        words.append(f"[{_synopsis(_FORMAT)}]")
    if command is None:
        words.append(f"{{{','.join(_choices(key))}}} ...")
    else:
        words.extend(f"[{_synopsis(o)}]" for o in command.options)
        words.extend([command.positional] if command.positional else [])
    return " ".join(words)


def _help(key: tuple[str, ...]) -> str:
    """Usage of ``key``, then every command under it with its options."""
    lines = [_usage(key), "", "checkers for local-to-global consistency of judged explanations "
             "of finite transducers", "", "options:",
             "  -h, --help  show this help message and exit"]
    if not key:
        lines.append(f"  {_synopsis(_FORMAT)}  {_FORMAT.help} (default: {_FORMAT.default})")
    lines += ["", "commands:"]
    for k, command in _COMMANDS.items():
        if k[:len(key)] == key:
            lines += [f"  {_usage(k)[len('usage: '):]}", f"      {command.help}"]
            for o in command.options:
                default = "" if o.default is None else f" (default: {o.default})"
                lines.append(f"      {_synopsis(o)}  {o.help}{default}")
    return "\n".join(lines)


def _fail(key: tuple[str, ...], message: str) -> NoReturn:
    print(_usage(key), file=sys.stderr)
    print(f"sheafmealy: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _as_option(key: tuple[str, ...], token: str,
               options: tuple[_Option, ...]) -> tuple[str | None, str | None] | None:
    """How ``token`` reads where ``options`` and help are offered: None for
    a positional, else the option and its ``=`` value, the option None
    when none here matches.  A long option may be shortened to a unique
    prefix; ``-1``, ``-.5`` and tokens with a space are positionals."""
    if not token.startswith("-"):
        return None
    names = ["-h", "--help", *(o.name for o in options)]
    if token in names:
        return token, None
    if len(token) == 1:
        return None
    head, eq, attached = token.partition("=")
    if eq and head in names:
        return head, attached
    hits = ([(n, attached if eq else None) for n in names if n.startswith(head)]
            if token.startswith("--") else [])
    if len(hits) > 1:
        _fail(key, f"ambiguous option: {token} could match {', '.join(n for n, _ in hits)}")
    if hits:
        return hits[0]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _parse(argv: list[str]) -> tuple[_Command, SimpleNamespace]:
    """Read ``argv`` against :data:`_COMMANDS`.

    ``--format`` comes before the verb; a command's options come before
    or after its positional, the last one given wins.  A ``--`` makes
    every later token a positional."""
    key: tuple[str, ...] = ()
    command: _Command | None = None
    options: tuple[_Option, ...] = (_FORMAT,)
    values: dict[str, Any] = {"format": _FORMAT.default}
    filled = literal = False
    extras: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--" and not literal:
            literal = True
            continue
        found = None if literal else _as_option(key, token, options)
        if found is None and command is None:
            choices = _choices(key)
            if token not in choices:
                _fail(key, f"argument {'what' if key else 'verb'}: invalid choice: {token!r} "
                           f"(choose from {', '.join(map(repr, choices))})")
            key += (token,)
            command = _COMMANDS.get(key)
            options = command.options if command is not None else ()
            values.update((o.dest, o.default) for o in options)
        elif found is None and command.positional is not None and not filled:
            values[command.positional] = token
            filled = True
        elif found is None or found[0] is None:
            extras.append(token)
        elif found[0] in ("-h", "--help"):
            if found[1] is not None:
                _fail(key, f"argument -h/--help: ignored explicit argument {found[1]!r}")
            print(_help(key))
            raise SystemExit(0)
        else:
            name, text = found
            if text is None:
                if i == len(argv) or argv[i] == "--" or _as_option(key, argv[i], options):
                    _fail(key, f"argument {name}: expected one argument")
                text = argv[i]
                i += 1
            option = next(o for o in options if o.name == name)
            try:
                value = option.type(text)
            except ValueError:
                _fail(key, f"argument {name}: invalid {option.type.__name__} value: {text!r}")
            if option.choices and value not in option.choices:
                _fail(key, f"argument {name}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, option.choices))})")
            values[option.dest] = value
    if command is None:
        _fail(key, f"the following arguments are required: {'what' if key else 'verb'}")
    if command.positional is not None and not filled:
        _fail(key, f"the following arguments are required: {command.positional}")
    if extras:
        _fail(key, f"unrecognized arguments: {' '.join(extras)}")
    return command, SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    command, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return command.handler(args)
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
