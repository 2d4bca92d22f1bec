"""Driver behavior: exit codes, report formats, canonical round-trips."""

import json
import os
import subprocess
import sys

import pytest
import randgen as rg

from sheafmealy import covering, restrict_section, subsystem
from sheafmealy import fixtures as fx
from sheafmealy import jsonio
from sheafmealy.cli import main
from test_localglobal import _off_range_conflict_family

ALL_FIXTURES = [f.name for f in fx.all_fixtures()]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _json_run(capsys, argv):
    code, out, err = _run(capsys, ["--format", "json", *argv])
    doc = json.loads(out)
    # emitted JSON is canonical: reserializing changes nothing
    assert out == jsonio.canonical_dumps(doc) + "\n"
    return code, doc, err


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_validate_every_builtin_fixture(capsys, name):
    code, doc, err = _json_run(capsys, ["validate", name])
    assert code == 0 and err == ""
    assert doc["valid"] is True


def test_validate_reads_wrapped_and_bare_documents(capsys, tmp_path):
    fixture = fx.get_fixture("triangle")
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_bytes(
        jsonio.canonical_bytes(
            {"kind": fixture.kind, "payload": fixture.payload}
        )
    )
    code, out, _ = _run(capsys, ["validate", str(wrapped)])
    assert code == 0 and "valid epsilon" in out

    bare = tmp_path / "bare.json"
    bare.write_bytes(jsonio.canonical_bytes(fixture.payload))
    code, out, _ = _run(capsys, ["validate", str(bare)])
    assert code == 0 and "valid epsilon" in out


def test_validate_exit_one_on_invalid_document(capsys, tmp_path):
    doc = {
        "before_states": ["p"],
        "after_states": ["p"],
        "inputs": [],
        "outputs": ["0"],
        "dynamics": [{"s": "p", "i": "i", "s2": "p", "o": "0"}],
    }
    path = tmp_path / "bad-system.json"
    path.write_text(json.dumps(doc))
    code, report, _ = _json_run(capsys, ["validate", str(path)])
    assert code == 1
    assert report["valid"] is False
    kinds = {v["kind"] for v in report["violations"]}
    assert "EmptyInterface" in kinds


def test_validate_exit_one_on_list_valued_carrier(capsys, tmp_path):
    # JSON lists are no identifiers: a state written as ["p"] belongs to no
    # carrier, so its dynamics row is foreign and its own row is missing.
    doc = {"before_states": [["p"]], "after_states": ["p"], "inputs": ["a"],
           "outputs": ["0"], "dynamics": [{"s": ["p"], "i": "a", "s2": "p", "o": "0"}]}
    path = tmp_path / "list-state.json"
    path.write_text(json.dumps(doc))
    code, report, err = _json_run(capsys, ["validate", str(path)])
    assert code == 1 and err == ""
    assert report["violations"] == [
        {"kind": "ForeignElement", "detail": "dynamics at foreign pair (['p'], 'a')"},
        {"kind": "PartialDynamics", "detail": "dynamics missing at (['p'], 'a')"},
    ]
    doc["before_states"] = [["p"], "q"]
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["validate", str(path)])
    assert code == 1 and err == ""
    assert out.startswith("invalid: ForeignElement: carriers must hold comparable identifiers")


def test_validate_refuses_a_duplicate_that_sorting_hides(capsys, tmp_path):
    # NaN compares false both ways, so after sorting 1 and 1.0 are no
    # neighbours; the carrier still holds the identifier 1 twice.
    path = tmp_path / "nan-carrier.json"
    path.write_text('{"before_states": ["p"], "after_states": ["p"], "inputs": ["a"], '
                    '"outputs": [1, NaN, 1.0], '
                    '"dynamics": [{"s": "p", "i": "a", "s2": "p", "o": 1}]}')
    assert _run(capsys, ["validate", str(path)]) == (
        1, "invalid: ForeignElement: duplicate identifier 1.0\n", "")
    code, report, err = _json_run(capsys, ["validate", str(path)])
    assert (code, err, report["valid"]) == (1, "", False)
    assert report["violations"] == [
        {"kind": "ForeignElement", "detail": "duplicate identifier 1.0"}]
    # JSON's NaN parses to one shared float, so this carrier holds it twice.
    path.write_text(path.read_text().replace("[1, NaN, 1.0]", "[1, NaN, NaN]"))
    assert _run(capsys, ["validate", str(path)]) == (
        1, "invalid: ForeignElement: duplicate identifier nan\n", "")


@pytest.mark.parametrize("key", ["after_states", "inputs", "outputs"])
def test_unused_carrier_element_that_is_no_identifier_is_invalid(capsys, tmp_path, key):
    # With no before-states there are no rows, so nothing else flags it.
    doc = {"before_states": [], "after_states": ["p"], "inputs": ["a"], "outputs": ["0"],
           "dynamics": []}
    doc[key] = [["p"]]
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    assert _run(capsys, ["validate", str(path)]) == (
        1, "invalid: ForeignElement: ['p'] is no identifier\n", "")
    path.write_text(json.dumps({"system": doc, "judge": {"i_map": {"a": "a"}, "o_map": {}}}))
    assert _run(capsys, ["validate", str(path)]) == (
        1, "", "ForeignElement: ['p'] is no identifier\n")


def test_patch_that_breaks_the_dynamics_is_invalid(capsys, tmp_path):
    # The first patch sends its after-state s1 to s3: its maps are no
    # morphism, and its overlap with the second patch is not closed.
    doc = fx.get_fixture("cex-beh-gluing").payload
    doc["patches"][0]["f_a"] = {"s0": "s0", "s1": "s3", "s2": "s2"}
    path = tmp_path / "broken-patch.json"
    path.write_text(json.dumps(doc))
    for verb in (["validate"], ["check", "glue-beh"], ["check", "glue-cogerm"]):
        code, out, err = _run(capsys, [*verb, str(path)])
        assert (code, out) == (1, "")
        assert err == "CheckerError: patch does not commute with the dynamics at ('s1', 'a')\n"


def test_validate_exit_two_on_malformed_input(capsys, tmp_path):
    truncated = tmp_path / "broken.json"
    truncated.write_text('{"before_states": ["p", ')
    code, _, err = _run(capsys, ["validate", str(truncated)])
    assert code == 2 and "malformed" in err

    top_level_list = tmp_path / "list.json"
    top_level_list.write_text("[1, 2]")
    code, _, err = _run(capsys, ["validate", str(top_level_list)])
    assert code == 2 and "malformed" in err

    shapeless = tmp_path / "shapeless.json"
    shapeless.write_text('{"x": 1}')
    code, _, err = _run(capsys, ["validate", str(shapeless)])
    assert code == 2 and "not recognized" in err


@pytest.mark.parametrize("content", [b'{"before_states": ["\xff"]}', b'{"n": ' + b"1" * 5000 + b"}"],
                         ids=["not-utf-8", "integer-of-5000-digits"])
def test_unreadable_document_is_malformed(capsys, tmp_path, content):
    """Bytes that are no UTF-8, and an integer longer than the reader's
    digit limit, are refused on one line like any other unreadable file."""
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    for verb in (["validate"], ["check", "glue-beh"]):
        code, out, err = _run(capsys, [*verb, str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"malformed input: cannot read {path}: ") and err.count("\n") == 1


_JUDGE_DOC = {"interp_inputs": ["a"], "interp_outputs": ["0"],
              "i_map": {"a": "a"}, "o_map": {"0": "0"}}
_EPS_DOC = {"dim": 2, "domain": "euclidean", "values": {"v": [0.0, 0.0]}, "i_map": {"v": "c"}}
_SECTIONS_DOC = fx.get_fixture("cex-beh-gluing").payload


def _sections_with(*path, value=None):
    """The gluing fixture's document with one field replaced, or dropped
    when no value is given."""
    doc = json.loads(json.dumps(_SECTIONS_DOC))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


_MALFORMED_LINES = {
    "unknown-kind": "unknown fixture kind 'bogus'",
    "epsilon-patch-not-a-list": "an epsilon document: each patch must be a list of raw inputs",
}


@pytest.mark.parametrize("doc", [
    {"before_states": ["p"], "after_states": ["p"], "inputs": ["i"], "outputs": ["o"],
     "dynamics": [{"s": "p", "i": "i", "o": "o"}]},
    {"dim": 2, "axis": 0, "rects": [{"x": ["0", "1/0"], "y": ["0", "1"]}]},
    {"dim": 2, "axis": 0, "rects": [{"x": ["0", "1"]}]},
    {"dim": 1, "axis": 0, "rects": [{"x": ["0", "one"]}]},
    {"dim": 2, "axis": 0, "rects": [{"x": ["0", "1"], "y": ["0", "1"], "open": [True, False]}]},
    {"dim": "two", "axis": 0, "rects": []},
    {"dim": 1, "axis": 0, "rects": [["0", "1"]]},
    {"domain": "euclidean", "values": {"v": [0.0, 0.0]}, "i_map": {"v": "c"}},
    {"judge": _JUDGE_DOC, "patches": [], "global_sections": []},
    {"before_states": ["p"], "after_states": ["p"], "inputs": ["i"], "outputs": ["o"],
     "dynamics": 5},
    {**_EPS_DOC, "dim": "x"},
    {**_EPS_DOC, "values": 5},
    {**_EPS_DOC, "patches": 5},
    {**_EPS_DOC, "eps": "big"},
    {**_EPS_DOC, "domain": "box", "box": [[0, "a"], [0, 1]]},
    {**_EPS_DOC, "i_map": {"v": 5}},
    _sections_with("judge", "i_map"),
    _sections_with("judge", value=["a"]),
    _sections_with("patches", 0, "f_b"),
    _sections_with("patches", 0, "f_b", value=["s0"]),
    _sections_with("local_sections", 0, "psi_b"),
    _sections_with("local_sections", 0, "psi_b", value=7),
    _sections_with("patches", value=5),
    _sections_with("local_sections", value=5),
    {"kind": "judge", "payload": {"judge": _JUDGE_DOC}},
    {"kind": "covering", "payload": {"system": _SECTIONS_DOC["system"]}},
    {**_EPS_DOC, "values": {"v": "12"}},
    {**_EPS_DOC, "values": {"v": [True, 0.0]}},
    {**_EPS_DOC, "domain": "box", "box": ["01", [0, 1]]},
    {**_EPS_DOC, "eps": "0.5"},
    {**_EPS_DOC, "eps": True},
    {"dim": 2, "axis": 0, "rects": [{"x": [True, 2], "y": ["0", "1"]}]},
    {"dim": 1, "axis": 0, "rects": [{"x": ["0", "1"], "open": ["no", 0]}]},
    {"kind": "system", "payload": 5},
    {**_EPS_DOC, "values": {"v": [10 ** 400, 0.0]}},
    {"kind": "bogus", "payload": {}},
    {**_EPS_DOC, "patches": ["v"]},
    "[" * 200000 + "]" * 200000,
    '{"a":' * 200000 + "1" + "}" * 200000,
], ids=["row-without-s2", "endpoint-1-over-0", "rect-without-y", "endpoint-not-a-number",
        "open-flags-too-few", "dim-not-an-integer", "rectangle-not-an-object",
        "epsilon-without-dim", "sections-without-system", "dynamics-not-a-list",
        "epsilon-dim-not-an-integer", "epsilon-values-not-an-object",
        "epsilon-patches-not-a-list", "epsilon-eps-not-a-number", "epsilon-box-not-numbers",
        "epsilon-judged-input-not-a-string", "judge-without-i-map", "judge-a-list",
        "patch-without-f-b", "patch-f-b-a-list", "section-without-psi-b", "section-psi-b-7",
        "patches-5", "local-sections-5", "wrapped-judge-without-system",
        "wrapped-covering-without-patches", "epsilon-point-a-string", "epsilon-coordinate-boolean",
        "epsilon-box-bound-a-string", "epsilon-eps-a-numeric-string", "epsilon-eps-boolean",
        "endpoint-boolean", "open-flags-not-booleans", "wrapped-system-payload-5",
        "epsilon-coordinate-past-float-range", "unknown-kind", "epsilon-patch-not-a-list",
        "nested-200000-arrays", "nested-200000-objects"])
def test_validate_exit_two_on_malformed_document(capsys, tmp_path, doc, request):
    """Documents given as text are written as they are: JSON too deep for
    the reader, which either verb must refuse as malformed.  Some refusals
    are pinned to their whole line."""
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    verbs = [["validate"]]
    if isinstance(doc, str) or "local_sections" in doc:
        verbs.append(["check", "glue-beh"])
    for verb in verbs:
        code, out, err = _run(capsys, [*verb, str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("malformed input:") and "Traceback" not in err
        want = _MALFORMED_LINES.get(request.node.callspec.id)
        assert want is None or err == f"malformed input: {want}\n"


@pytest.mark.parametrize("path, value, named", [
    (("local_sections", 0, "psi_b", "s0"), ["p0"],
     "before map sends 's0' to foreign element ['p0']"),
    (("local_sections", 0, "psi_a", "s0"), ["p0"],
     "after map sends 's0' to foreign element ['p0']"),
    (("patches", 0, "f_b", "s0"), ["s0"], "before map sends 's0' to foreign element ['s0']"),
    (("patches", 0, "f_i", "a"), ["a"], "input map sends 'a' to foreign element ['a']"),
    (("patches", 0, "f_o", "0"), {"o": 1}, "output map sends '0' to foreign element {'o': 1}"),
    (("judge", "i_map", "a"), ["x"], "judge names ['x'], which is no identifier"),
    (("judge", "o_map", "0"), {"k": 1}, "judge names {'k': 1}, which is no identifier"),
    (("judge", "interp_inputs"), ["\u2022", ["x"]], "judge names ['x'], which is no identifier"),
    (("judge", "interp_inputs"), ["\u2022", 5], "judge names 5, which is no identifier"),
    (("judge", "interp_outputs"), ["0", "1", {"k": 1}],
     "judge names {'k': 1}, which is no identifier"),
    (("judge",), {"interp_inputs": [7], "interp_outputs": [0, 1, [2]],
                  "i_map": {"a": 7, "b": 7}, "o_map": {"0": 0, "1": 1}},
     "judge names [2], which is no identifier"),
], ids=["psi-b-list", "psi-a-list", "f-b-list", "f-i-list", "f-o-object", "i-map-list",
        "o-map-object", "interp-inputs-list", "interp-inputs-number", "interp-outputs-object",
        "integer-judge-with-a-list"])
def test_identifier_that_is_no_string_is_invalid(capsys, tmp_path, path, value, named):
    """A list, object or stray number where an identifier belongs is refused
    with one line naming it, as the number 5 is, by every verb."""
    doc = _sections_with(*path, value=value)
    file = tmp_path / "sections.json"
    file.write_text(json.dumps(doc))
    for verb in (["validate"], ["check", "glue-beh"], ["check", "glue-cogerm"]):
        assert _run(capsys, [*verb, str(file)]) == (1, "", f"CheckerError: {named}\n")


_RECT_ROWS = [{"x": ["0", "1"], "y": ["0", "1"]}]


@pytest.mark.parametrize("doc, err", [
    ({"dim": 0, "axis": 0, "rects": [{"x": ["0", "1"]}]},
     "CheckerError: only dimensions 1 and 2 are supported\n"),
    ({"dim": -1, "axis": 0, "rects": [{"x": ["0", "1"]}]},
     "CheckerError: only dimensions 1 and 2 are supported\n"),
    ({"dim": 3, "axis": 0, "rects": _RECT_ROWS},
     "CheckerError: only dimensions 1 and 2 are supported\n"),
    ({"dim": 2, "axis": 5, "rects": _RECT_ROWS}, "CheckerError: axis 5 out of range\n"),
    ({"dim": 2, "axis": -1, "rects": _RECT_ROWS}, "CheckerError: axis -1 out of range\n"),
    ({"dim": 1, "axis": 1, "rects": [{"x": ["0", "1"]}]},
     "CheckerError: axis 1 out of range\n"),
], ids=["dim-0", "dim-negative", "dim-3", "axis-5", "axis-negative", "axis-1-on-the-line"])
def test_rect_union_outside_its_dimensions_is_invalid(capsys, tmp_path, doc, err):
    """Both verbs read the document the same way and refuse it with exit 1."""
    path = tmp_path / "rects.json"
    path.write_text(json.dumps(doc))
    for verb in (["validate"], ["check", "tame-check"]):
        assert _run(capsys, [*verb, str(path)]) == (1, "", err)


@pytest.mark.parametrize("change, err", [
    ({"patches": [["zz"]]}, "CheckerError: raw input 'zz' has no judged value\n"),
    ({"eps": -1}, "NegativeEpsilon: tolerances must be non-negative\n"),
    ({"eps": float("nan")}, "NegativeEpsilon: tolerances must be non-negative\n"),
    ({"eps": float("inf")}, "NegativeEpsilon: tolerances must be finite\n"),
    ({"dim": 0}, "CheckerError: dimension must be positive\n"),
    ({"values": {**fx.get_fixture("triangle").payload["values"], "va": [float("nan"), 0.0]}},
     "CheckerError: value of 'va' is not finite\n"),
    ({"dim": 1, "domain": "box", "box": [[1, 0]],
      "values": {v: [0.5] for v in ("va", "vb", "vc")}},
     "CheckerError: box bounds must be finite and ordered\n"),
], ids=["unknown-raw-input", "negative-eps", "nan-eps", "infinite-eps", "dim-0", "nan-coordinate",
        "unordered-box"])
def test_epsilon_document_the_check_refuses_is_invalid(capsys, tmp_path, change, err):
    """What ``check eps-depth`` refuses, ``validate`` refuses too."""
    path = tmp_path / "eps.json"
    path.write_text(json.dumps({**fx.get_fixture("triangle").payload, **change}))
    for verb in (["validate"], ["check", "eps-depth"]):
        assert _run(capsys, [*verb, str(path)]) == (1, "", err)


@pytest.mark.parametrize("eps", ["inf", "1e400"])
def test_infinite_eps_flag_is_refused(capsys, eps):
    """An infinite tolerance would print as ``"eps":Infinity``, which is no
    JSON; ``--eps`` refuses it as the document reader does."""
    argv = ["--format", "json", "check", "eps-depth", "triangle", "--eps", eps]
    assert _run(capsys, argv) == (1, "", "NegativeEpsilon: tolerances must be finite\n")


@pytest.mark.parametrize("value", ["ab", {"a": 1, "b": 2}], ids=["string", "object"])
def test_carrier_that_is_no_list_is_malformed(capsys, tmp_path, value):
    """A string carrier is not read as its letters, nor an object as its
    keys: a top-level system, the covered system, a patch source and a
    section machine refuse it alike."""
    system = {"before_states": ["a", "b"], "after_states": ["a", "b"], "inputs": ["x"],
              "outputs": ["0"], "dynamics": [{"s": s, "i": "x", "s2": s, "o": "0"}
                                             for s in ("a", "b")]}
    cases = [({**system, "before_states": value}, "before_states", [["validate"]])]
    for where, key in ((("system",), "inputs"), (("patches", 0, "source"), "after_states"),
                       (("local_sections", 0, "machine"), "outputs")):
        cases.append((_sections_with(*where, key, value=value), key,
                      [["validate"], ["check", "glue-beh"], ["check", "glue-cogerm"]]))
    path = tmp_path / "doc.json"
    for doc, key, verbs in cases:
        path.write_text(json.dumps(doc))
        for verb in verbs:
            assert _run(capsys, [*verb, str(path)]) == (
                2, "", f"malformed input: a system: {key} must be a list, got {value!r}\n")


_JUDGE = {"i_map": {"x": "x"}, "o_map": {"0": "0"}}


@pytest.mark.parametrize("what, make, verbs", [
    ("a covering", lambda v: {"system": v, "patches": []}, [["validate"]]),
    ("a sections document", lambda v: _sections_with("system", value=v),
     [["validate"], ["check", "glue-beh"]]),
    ("a judge document", lambda v: {"system": v, "judge": _JUDGE}, [["validate"]]),
], ids=["covering", "sections", "judge"])
@pytest.mark.parametrize("value", [5, "ab", ["a", "b"]], ids=["number", "string", "list"])
def test_top_level_system_that_is_no_object_is_malformed(capsys, tmp_path, what, make, verbs,
                                                         value):
    """A document whose ``system`` is no object is refused as malformed, not
    read as a carrier fault."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make(value)))
    for verb in verbs:
        assert _run(capsys, [*verb, str(path)]) == (
            2, "", f"malformed input: {what}: system must be an object, got {value!r}\n")


_TRIANGLE_DOC = fx.get_fixture("triangle").payload


@pytest.mark.parametrize("doc, verb, err", [
    ({"dim": 2.7, "axis": 0, "rects": _RECT_ROWS}, "tame-check", "dim must be an integer, got 2.7"),
    ({"dim": 2, "axis": 0.9, "rects": _RECT_ROWS}, "tame-check", "axis must be an integer, got 0.9"),
    ({"dim": "2", "axis": 0, "rects": _RECT_ROWS}, "tame-check", "dim must be an integer, got '2'"),
    ({"dim": 2, "axis": False, "rects": _RECT_ROWS}, "tame-check",
     "axis must be an integer, got False"),
    ({**_TRIANGLE_DOC, "dim": 2.9}, "eps-depth", "dim must be an integer, got 2.9"),
    ({**_TRIANGLE_DOC, "dim": 2.0}, "eps-depth", "dim must be an integer, got 2.0"),
    ({**_TRIANGLE_DOC, "dim": "2"}, "eps-depth", "dim must be an integer, got '2'"),
    ({**_TRIANGLE_DOC, "dim": True}, "eps-depth", "dim must be an integer, got True"),
], ids=["rect-dim-float", "rect-axis-float", "rect-dim-string", "rect-axis-boolean",
        "epsilon-dim-float", "epsilon-dim-integral-float", "epsilon-dim-string",
        "epsilon-dim-boolean"])
def test_integer_field_that_is_no_json_integer_is_malformed(capsys, tmp_path, doc, verb, err):
    """``dim`` and ``axis`` are not truncated or coerced to integers."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate"], ["check", verb]):
        assert _run(capsys, [*argv, str(path)]) == (2, "", f"malformed input: {err}\n")


def test_sections_listing_a_patch_twice_are_invalid(capsys, tmp_path):
    doc = fx.get_fixture("cex-beh-gluing").payload
    doc["patches"].append(doc["patches"][0])
    doc["local_sections"].append(doc["local_sections"][0])
    path = tmp_path / "repeated-patch.json"
    path.write_text(json.dumps(doc))
    for verb in (["validate"], ["check", "glue-beh"], ["check", "glue-cogerm"]):
        code, out, err = _run(capsys, [*verb, str(path)])
        assert (code, out) == (1, "")
        assert err == "CheckerError: patches 0 and 2 are the same patch; list each patch once\n"


@pytest.mark.parametrize("count", [1, 3], ids=["one-fewer", "one-more"])
def test_sections_not_one_per_patch_are_invalid(capsys, tmp_path, count):
    """``validate`` and the checks refuse a section count that differs from
    the patch count alike, rather than dropping the difference."""
    doc = fx.get_fixture("cex-beh-gluing").payload
    doc["local_sections"] = (doc["local_sections"] * 2)[:count]
    path = tmp_path / "sections.json"
    path.write_text(json.dumps(doc))
    for verb in (["validate"], ["check", "glue-beh"], ["check", "glue-cogerm"]):
        assert _run(capsys, [*verb, str(path)]) == (
            1, "", "CheckerError: one section per covering patch is required\n")


def test_glue_beh_refuses_a_covering_that_misses_a_step(capsys, tmp_path):
    """One patch sees input a only, and its valid local machine emits 1 on
    b where the system emits 0: both gluing checks name the uncovered step
    instead of failing inside the gluer."""
    c, j, locals_ = rg.uncovered_step_family()
    doc = {"system": jsonio.system_payload(c.target), "judge": jsonio.judge_payload(j),
           "patches": [jsonio.immersion_payload(p) for p in c.patches],
           "local_sections": [jsonio.section_payload(s) for s in locals_]}
    path = tmp_path / "uncovered.json"
    path.write_text(json.dumps(doc))
    for verb in (["check", "glue-beh"], ["check", "glue-cogerm"]):
        assert _run(capsys, [*verb, str(path)]) == (
            1, "", "CheckerError: family covering leaves ('s1', 'b') uncovered "
                   "on the before side\n")


def _text_and_json(capsys, argv):
    return _run(capsys, argv), _run(capsys, ["--format", "json", *argv])


@pytest.mark.parametrize("table, letter", [("i_map", "a"), ("o_map", "0")])
def test_sections_whose_judge_misses_a_raw_letter_are_invalid(capsys, tmp_path, table, letter):
    """A judge that leaves a raw letter of the system unjudged is refused
    where the document is read, before any section is built on it."""
    doc = fx.get_fixture("cex-beh-gluing").payload
    del doc["judge"][table][letter]
    path = tmp_path / "partial-judge.json"
    path.write_text(json.dumps(doc))
    what = "input" if table == "i_map" else "output"
    refused = (1, "", f"CheckerError: judge undefined on {what} {letter!r}\n")
    for verb in (["validate"], ["check", "separation"], ["check", "glue-beh"],
                 ["check", "glue-cogerm"]):
        assert _text_and_json(capsys, [*verb, str(path)]) == (refused, refused)


@pytest.mark.parametrize("table, letter", [("i_map", "c0"), ("o_map", "0")])
def test_judge_document_missing_a_raw_letter_is_invalid(capsys, tmp_path, table, letter):
    doc = fx.get_fixture("two-band-cut").payload
    del doc["judge"][table][letter]
    path = tmp_path / "judge.json"
    path.write_text(json.dumps(doc))
    what = "input" if table == "i_map" else "output"
    refused = (1, "", f"CheckerError: judge undefined on {what} {letter!r}\n")
    assert _text_and_json(capsys, ["validate", str(path)]) == (refused, refused)


def test_gluing_a_document_without_global_sections_is_refused(capsys, tmp_path):
    """An empty global family is a valid document, with nothing to glue."""
    doc = fx.get_fixture("jfull-global-pair").payload
    doc["global_sections"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert _text_and_json(capsys, ["validate", str(path)]) == (
        (0, "valid sections\n", ""), (0, '{"kind":"sections","valid":true}\n', ""))
    refused = (1, "", "CheckerError: gluing needs a global section to restrict to the patches\n")
    for verb in (["check", "glue-beh"], ["check", "glue-cogerm"]):
        assert _text_and_json(capsys, [*verb, str(path)]) == (refused, refused)


def test_gluing_an_incompatible_family_is_a_result(capsys, tmp_path):
    """Two input-split patches whose valid locals disagree off their own
    ranges: both gluing checks report the incompatible family with exit 0,
    as a verdict and not as an error."""
    _, j, c, locals_ = _off_range_conflict_family()
    path = tmp_path / "off-range.json"
    path.write_text(json.dumps({
        "system": jsonio.system_payload(c.target), "judge": jsonio.judge_payload(j),
        "patches": [jsonio.immersion_payload(p) for p in c.patches],
        "local_sections": [jsonio.section_payload(s) for s in locals_]}))
    assert _run(capsys, ["validate", str(path)]) == (0, "valid sections\n", "")
    for verb, reason in (
            ("glue-beh", "patches 0 and 1 disagree behaviorally at state 'u' on word a"),
            ("glue-cogerm", "patches 0 and 1 admit no common core on their overlap")):
        assert _text_and_json(capsys, ["check", verb, str(path)]) == (
            (0, f"incompatible family: {reason}\n", ""),
            (0, jsonio.canonical_dumps({"glued": False, "reason": reason}) + "\n", ""))


def test_validate_covering_document(capsys, tmp_path):
    """A covering document is the system and its patches; one patch of an
    input-splitting covering leaves a step uncovered."""
    payload = fx.get_fixture("cex-ri-separation").payload
    path = tmp_path / "covering.json"
    for patches, expected in (
        (payload["patches"], ((0, "valid covering\n", ""),
                              (0, '{"kind":"covering","valid":true}\n', ""))),
        (payload["patches"][:1], (
            (1, "invalid: not jointly surjective on before\n", ""),
            (1, '{"valid":false,"violations":["not jointly surjective on before"]}\n', ""))),
    ):
        path.write_text(json.dumps({"system": payload["system"], "patches": patches}))
        assert _text_and_json(capsys, ["validate", str(path)]) == expected


def test_sections_refused_by_the_covering_and_the_family_checks(capsys, tmp_path):
    """Each refusal of a sections document, from ``validate`` with its
    report and from the checks with the family check's words: a family that
    is no covering, also when its sections disagree on an overlap, an
    invalid local section, and a machine on a patch's judged range where
    gluing needs the full interface."""
    j, whole, c, family, narrow, broken = rg.input_split_family()
    system = c.target
    only_a = covering(system, [c.patches[0]])
    half = covering(system, [subsystem(system, before=["s0"], after=["s0", "s1"])])
    gluing = (["check", "glue-beh"], ["check", "glue-cogerm"])
    inc_c, inc_j, disagreeing = rg.uncovered_incompatible_family()
    uncovered = "covering not jointly surjective on before"
    cases = [
        (only_a, j, "global_sections", [whole, whole], uncovered,
         [*gluing, ["check", "separation"]],
         "family covering leaves ('s0', 'b') uncovered on the before side"),
        (inc_c, inc_j, "local_sections", disagreeing, uncovered, gluing,
         "family covering leaves ('s1', 'b') uncovered on the before side"),
        (half, j, "local_sections", [restrict_section(whole, half.patches[0])], uncovered,
         gluing, "covering leaves states unexplained: ['s1']"),
        (c, j, "local_sections", [broken, family[1]],
         "section 0: psi does not commute with the dynamics", gluing,
         "local section 0 invalid: psi does not commute with the dynamics"),
        (c, j, "local_sections", [narrow, family[1]], None, gluing,
         "local machine 0 is not on the full interpretable interface"),
    ]
    for cov, jdg, key, secs, violation, checks, message in cases:
        path = tmp_path / "family.json"
        path.write_text(json.dumps({
            "system": jsonio.system_payload(cov.target), "judge": jsonio.judge_payload(jdg),
            "patches": [jsonio.immersion_payload(p) for p in cov.patches],
            key: [jsonio.section_payload(s) for s in secs]}))
        if violation is None:
            expected = ((0, "valid sections\n", ""),
                        (0, '{"kind":"sections","valid":true}\n', ""))
        else:
            expected = ((1, f"invalid: {violation}\n", ""),
                        (1, json.dumps({"valid": False, "violations": [violation]},
                                       separators=(",", ":")) + "\n", ""))
        assert _text_and_json(capsys, ["validate", str(path)]) == expected
        refused = (1, "", f"CheckerError: {message}\n")
        for verb in checks:
            assert _text_and_json(capsys, [*verb, str(path)]) == (refused, refused)


def test_unknown_fixture_name_is_invalid_not_a_crash(capsys):
    code, _, err = _run(capsys, ["validate", "no-such-fixture"])
    assert code == 1 and "no fixture named" in err


def test_fixtures_list(capsys):
    code, doc, _ = _json_run(capsys, ["fixtures", "list"])
    assert code == 0
    rows = doc["fixtures"]
    assert sorted(r["name"] for r in rows) == sorted(ALL_FIXTURES)
    assert all(r["kind"] and r["provenance"] for r in rows)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_dump_round_trips_to_identical_bytes(capsys, tmp_path, name):
    out_path = tmp_path / f"{name}.json"
    code, _, _ = _run(capsys, ["fixtures", "dump", name, "--out",
                               str(out_path)])
    assert code == 0
    first = out_path.read_bytes()
    reparsed = json.loads(first)
    assert jsonio.canonical_bytes(reparsed) == first
    # stdout dump matches the file byte for byte
    code, out, _ = _run(capsys, ["fixtures", "dump", name])
    assert code == 0 and out.encode("utf-8") == first


def test_dump_to_a_path_that_cannot_be_written_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = _run(capsys, ["fixtures", "dump", "triangle", "--out", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot write {target}: ") and err.count("\n") == 1
    assert "Traceback" not in err and not target.exists()


def test_dumps_equal_the_fixture_list(capsys):
    for fixture in fx.all_fixtures():
        assert fx.get_fixture(fixture.name) == fixture
        code, out, _ = _run(capsys, ["fixtures", "dump", fixture.name])
        assert code == 0
        assert out.encode("utf-8") == jsonio.canonical_bytes({
            "name": fixture.name, "kind": fixture.kind,
            "provenance": fixture.provenance, "payload": fixture.payload,
        })


def test_get_fixture_builds_only_the_named_fixture(monkeypatch):
    def broken():
        raise AssertionError("built a fixture nobody asked for")

    monkeypatch.setattr(fx, "two_band_cut_objects", broken)
    assert fx.get_fixture("triangle").kind == "epsilon"
    with pytest.raises(AssertionError):
        fx.get_fixture("two-band-cut")


def test_cli_import_loads_no_numpy():
    probe = "import sys, sheafmealy.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"


def test_typed_round_trips_reproduce_payloads():
    tri = fx.get_fixture("triangle").payload
    inst, patches, eps = jsonio.epsilon_from_payload(tri)
    assert jsonio.canonical_bytes(
        jsonio.epsilon_payload(inst, patches, eps)
    ) == jsonio.canonical_bytes(tri)
    band = fx.get_fixture("two-band").payload
    u, pj = jsonio.union_from_json(band)
    assert jsonio.canonical_bytes(
        jsonio.union_payload(u, pj)
    ) == jsonio.canonical_bytes(band)


def test_separation_verb_reports_violation(capsys):
    code, doc, _ = _json_run(
        capsys, ["check", "separation", "cex-ri-separation", "--kind", "ri"]
    )
    assert code == 0
    assert doc["locally_equal"] == [True, True]
    assert doc["globally_equal"] is False
    assert doc["separation_violated"] is True
    code, out, _ = _run(capsys, ["check", "separation", "cex-ri-separation"])
    assert code == 0
    assert "separation violated: yes" in out
    assert "distinguishing word from s1: (a, b)" in out


def test_separation_verb_negative_kinds(capsys):
    for kind in ("strict", "beh", "cogerm"):
        code, doc, _ = _json_run(
            capsys,
            ["check", "separation", "jfull-global-pair", "--kind", kind],
        )
        assert code == 0
        assert doc["separation_violated"] is False


def test_glue_beh_verb_obstruction_and_repair(capsys):
    code, out, _ = _run(capsys, ["check", "glue-beh", "cex-beh-gluing"])
    assert code == 0
    assert "'s2'" in out and "two behavior classes" in out
    assert "no explanatory machine with at most 4 states" in out
    code, doc, _ = _json_run(capsys, ["check", "glue-beh", "cex-beh-gluing"])
    assert doc["glued"] is False
    assert doc["obstruction"]["site"] == ["s2"]
    assert doc["bounded_search"] == {"max_states": 4, "found": False}
    code, doc, _ = _json_run(
        capsys, ["check", "glue-beh", "cex-beh-gluing-repaired"]
    )
    assert code == 0 and doc["glued"] is True
    code, doc, _ = _json_run(
        capsys,
        ["check", "glue-beh", "cex-beh-gluing", "--max-states", "0"],
    )
    assert doc["glued"] is False and "bounded_search" not in doc


def test_glue_cogerm_verb(capsys):
    # the locally compatible constant explanations share no cogerm overlap
    code, doc, _ = _json_run(capsys, ["check", "glue-cogerm", "cex-beh-gluing"])
    assert code == 0
    assert doc["glued"] is False and "no common core" in doc["reason"]
    # restrictions of one global section always reglue
    for name in ("cogerm-extra-states", "jfull-global-pair"):
        code, doc, _ = _json_run(capsys, ["check", "glue-cogerm", name])
        assert code == 0 and doc["glued"] is True


def test_tame_check_verb(capsys):
    code, out, _ = _run(capsys, ["check", "tame-check", "punctured-square"])
    assert code == 0
    assert "sheaf: yes" in out
    assert "disconnected fiber at 1/2: yes; robust: no" in out
    code, doc, _ = _json_run(capsys, ["check", "tame-check", "two-band"])
    assert code == 0
    assert doc["is_sheaf"] is False
    assert doc["counterexample_obstructed"] is True
    code, out, _ = _run(capsys, ["check", "tame-check", "two-band"])
    assert "sheaf: no" in out and "gluing obstructed" in out


TWO_BAND_TEXT = """\
sheaf: no
disconnected fiber at 0: yes; robust: yes
disconnected fiber at 1/2: yes; robust: yes
disconnected fiber at 1: yes; robust: yes
two-patch covering from the certificate: compatible patches, gluing obstructed
"""

TWO_BAND_JSON = (
    '{"candidates":["0","1/2","1"],"certificates":['
    '{"band":["-1/2","1/2"],"component_of_first_point":0,"components":['
    '{"dim":2,"rects":[{"open":[false,true,false,false],"x":["0","1/2"],"y":["0","2/5"]}]},'
    '{"dim":2,"rects":[{"open":[false,true,false,false],"x":["0","1/2"],"y":["3/5","1"]}]}],'
    '"fiber_points":[["0","1/5"],["0","4/5"]],"t0":"0"},'
    '{"band":["1/4","3/4"],"component_of_first_point":0,"components":['
    '{"dim":2,"rects":[{"open":[true,true,false,false],"x":["1/4","3/4"],"y":["0","2/5"]}]},'
    '{"dim":2,"rects":[{"open":[true,true,false,false],"x":["1/4","3/4"],"y":["3/5","1"]}]}],'
    '"fiber_points":[["1/2","1/5"],["1/2","4/5"]],"t0":"1/2"},'
    '{"band":["1/2","3/2"],"component_of_first_point":0,"components":['
    '{"dim":2,"rects":[{"open":[true,false,false,false],"x":["1/2","1"],"y":["0","2/5"]}]},'
    '{"dim":2,"rects":[{"open":[true,false,false,false],"x":["1/2","1"],"y":["3/5","1"]}]}],'
    '"fiber_points":[["1","1/5"],["1","4/5"]],"t0":"1"}],'
    '"counterexample_obstructed":true,"is_sheaf":false,'
    '"notes":["output side assumed connected with at least two values; '
    'the verdict covers the topological condition only"]}\n'
)

PUNCTURED_SQUARE_TEXT = """\
sheaf: yes
disconnected fiber at 0: no; robust: no
disconnected fiber at 1/4: no; robust: no
disconnected fiber at 1/2: yes; robust: no
disconnected fiber at 3/4: no; robust: no
disconnected fiber at 1: no; robust: no
"""

PUNCTURED_SQUARE_JSON = (
    '{"candidates":["0","1/4","1/2","3/4","1"],"certificates":[],"is_sheaf":true,'
    '"notes":["domain has open edges: the compactness hypothesis of the '
    'characterization was not verified","output side assumed connected with at '
    'least two values; the verdict covers the topological condition only"]}\n'
)


def test_tame_check_reads_a_fiber_joined_at_a_tie_as_connected(capsys, tmp_path):
    """[0,3]x[3,4), [0,1]x(4,6] and [0,2]x[4,7): over x in [0,1] the fiber
    is [3,7), one piece, although two of its parts start at 4."""
    rows = [{"x": ["0", "3"], "y": ["3", "4"], "open": [False, False, False, True]},
            {"x": ["0", "1"], "y": ["4", "6"], "open": [False, False, True, False]},
            {"x": ["0", "2"], "y": ["4", "7"], "open": [False, False, False, True]}]
    path = tmp_path / "abc.json"
    path.write_text(json.dumps({"dim": 2, "axis": 0, "rects": rows}))
    text = "".join(f"disconnected fiber at {t}: no; robust: no\n"
                   for t in ("0", "1/2", "1", "3/2", "2", "5/2", "3"))
    assert _run(capsys, ["check", "tame-check", str(path)]) == (0, "sheaf: yes\n" + text, "")


@pytest.mark.parametrize("name,text,doc", [
    ("two-band", TWO_BAND_TEXT, TWO_BAND_JSON),
    ("punctured-square", PUNCTURED_SQUARE_TEXT, PUNCTURED_SQUARE_JSON),
])
def test_tame_check_full_output(capsys, name, text, doc):
    assert _run(capsys, ["check", "tame-check", name]) == (0, text, "")
    assert _run(capsys, ["--format", "json", "check", "tame-check", name]) == (0, doc, "")


def test_tame_check_band_component_missing_the_fiber(capsys, tmp_path):
    # The half-open box [0,1)x[5,6] enters the band around x=1 but misses
    # the fiber there, so the certificate holds a component without a
    # fiber point; it is written as null.
    doc = {"dim": 2, "axis": 0, "rects": [
        {"x": ["1", "2"], "y": ["0", "1"]},
        {"x": ["1", "2"], "y": ["2", "3"]},
        {"x": ["0", "1"], "y": ["5", "6"], "open": [False, True, False, False]},
    ]}
    path = tmp_path / "band.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["check", "tame-check", str(path)])
    assert code in (0, 1) and "Traceback" not in err
    assert "sheaf: no" in out
    code, report, err = _json_run(capsys, ["check", "tame-check", str(path)])
    assert code in (0, 1) and "Traceback" not in err
    cert = report["certificates"][0]
    assert cert["t0"] == "1"
    assert cert["fiber_points"] == [None, ["1", "1/2"], ["1", "5/2"]]


def test_eps_depth_verb(capsys):
    code, out, _ = _run(capsys, ["check", "eps-depth", "triangle"])
    assert code == 0
    assert "depth 3" in out
    assert "smallest infeasible subfamily [0, 1, 2]" in out
    code, doc, _ = _json_run(capsys, ["check", "eps-depth", "triangle"])
    assert doc["depth"] == 3 and doc["eps"] == 1.08
    code, doc, _ = _json_run(
        capsys, ["check", "eps-depth", "triangle", "--eps", "1.2"]
    )
    assert doc["feasible"] is True and doc["depth"] is None
    for dim in (1, 2, 3):
        code, doc, _ = _json_run(
            capsys, ["check", "eps-depth", f"simplex-sharp-{dim}"]
        )
        assert code == 0 and doc["depth"] == dim + 1


def test_eps_depth_on_targets_whose_squares_overflow(capsys, tmp_path):
    """Offsets of 1e160 square past float range; the solver rescales them
    by a power of two and finds the radius 1e160 / sqrt(2), well within
    eps 1e200, instead of refusing the document."""
    doc = {"dim": 2, "domain": "euclidean",
           "values": {"a": [1e160, 0.0], "b": [0.0, 1e160], "c": [0.0, 0.0]},
           "i_map": {"a": "x", "b": "x", "c": "x"}, "patches": [["a"], ["b"], ["c"]],
           "eps": 1e200}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert _run(capsys, ["check", "eps-depth", str(path)]) == (0, "feasible at eps=1e+200\n", "")


def test_eps_depth_on_a_box_with_far_bounds(capsys, tmp_path):
    """Box bounds of 1e300 do not scale the targets down: 0 and 1 are a
    radius 1/2 apart, so eps 0.1 fails on the pair, not on either alone."""
    doc = {"dim": 1, "domain": "box", "box": [[-1e300, 1e300]],
           "values": {"a": [0.0], "b": [1.0]}, "i_map": {"a": "x", "b": "x"},
           "patches": [["a"], ["b"]], "eps": 0.1}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    assert _run(capsys, ["check", "eps-depth", str(path)]) == (
        0, "depth 2\nsmallest infeasible subfamily [0, 1] at judged input x\n", "")


def test_eps_depth_wrong_kind_is_an_error(capsys):
    code, _, err = _run(capsys, ["check", "eps-depth", "two-band"])
    assert code == 1 and "needs an epsilon fixture" in err


def test_landscape_verb(capsys):
    code, doc, _ = _json_run(capsys, ["check", "landscape"])
    assert code == 0
    assert doc["all_evidence_ok"] is True
    assert len(doc["rows"]) == 5
    assert all(r["evidence"] for r in doc["rows"])
    code, out, _ = _run(capsys, ["check", "landscape"])
    assert code == 0
    assert "presheaf" in out and "[ok]" in out and "FAIL" not in out


def test_seed_flag_is_refused_and_seed_env_is_ignored(capsys, monkeypatch):
    # The solver visits points in one fixed order, which nothing sets.
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1", "check", "eps-depth", "triangle"])
    assert exc.value.code == 2
    assert "sheafmealy: error" in capsys.readouterr().err
    argv = ["--format", "json", "check", "eps-depth", "triangle"]
    code, plain, _ = _run(capsys, argv)
    monkeypatch.setenv("SHEAFMEALY_SEED", "987")
    assert _run(capsys, argv) == (code, plain, "")
    assert code == 0 and json.loads(plain)["depth"] == 3


def test_console_script_entry_point(tmp_path):
    env = dict(os.environ, SHEAFMEALY_SEED="555")
    proc = subprocess.run(
        [sys.executable, "-m", "sheafmealy.cli", "--format", "json",
         "check", "eps-depth", "triangle"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["depth"] == 3
    missing = subprocess.run(
        [sys.executable, "-m", "sheafmealy.cli", "validate",
         str(tmp_path / "absent.json")],
        capture_output=True, text=True,
    )
    assert missing.returncode == 1


def test_memory_error_is_reported_as_scale_exceeded(capsys, monkeypatch):
    """A check that runs out of memory exits 1 with one ScaleExceeded line;
    the error is raised by a stand-in checker, nothing is allocated."""
    from sheafmealy import cli

    def exhausted(args):
        raise MemoryError

    key = ("check", "tame-check")
    monkeypatch.setitem(cli._COMMANDS, key, cli._COMMANDS[key]._replace(handler=exhausted))
    code, out, err = _run(capsys, ["check", "tame-check", "two-band"])
    assert code == 1 and out == ""
    assert err.splitlines() == ["ScaleExceeded: the check ran out of memory"]


_BEH_TEXT = ("kind: beh\npatch 0: locally unequal\npatch 1: locally unequal\nglobal: unequal\n"
             "distinguishing word from s1: (a, b)\nseparation violated: no\n")
_OBSTRUCTION_TEXT = ("after-state 's2' is forced into two behavior classes; they diverge on the "
                     "word \u2022\nforced by the step at ('s0', 'b'): outputs (0)\n"
                     "forced by the step at ('s3', 'b'): outputs (1)\n")
_BOUND_2_TEXT = "no explanatory machine with at most 2 states glues the family\n"
_EPS_2_JSON = ('{"depth":null,"eps":2.0,"feasible":true,"i_prime":null,"marginal":false,'
               '"subfamily":null}\n')
_NEGATIVE = "NegativeEpsilon: tolerances must be non-negative\n"
_INFINITE = "NegativeEpsilon: tolerances must be finite\n"
_SEP = ["check", "separation"]
_GLUE = ["check", "glue-beh"]
_EPS = ["check", "eps-depth"]


@pytest.mark.parametrize("argv, expected", [
    (["--format", "json", *_EPS, "triangle", "--eps", "2"], (0, _EPS_2_JSON, "")),
    (["--format=json", *_EPS, "triangle", "--eps", "2"], (0, _EPS_2_JSON, "")),
    (["--f", "json", *_EPS, "triangle", "--eps=2"], (0, _EPS_2_JSON, "")),
    (["--form=json", *_EPS, "--eps", "2", "triangle"], (0, _EPS_2_JSON, "")),
    (["--format", "text", "--format", "json", *_EPS, "triangle", "--eps", "2"],
     (0, _EPS_2_JSON, "")),
    ([*_SEP, "cex-ri-separation", "--kind", "beh"], (0, _BEH_TEXT, "")),
    ([*_SEP, "cex-ri-separation", "--kind=beh"], (0, _BEH_TEXT, "")),
    ([*_SEP, "--kind", "beh", "cex-ri-separation"], (0, _BEH_TEXT, "")),
    ([*_SEP, "--kind=strict", "cex-ri-separation", "--kind", "beh"], (0, _BEH_TEXT, "")),
    ([*_SEP, "cex-ri-separation", "--k", "beh"], (0, _BEH_TEXT, "")),
    ([*_SEP, "--ki=beh", "cex-ri-separation"], (0, _BEH_TEXT, "")),
    ([*_GLUE, "cex-beh-gluing", "--max-states", "2"], (0, _OBSTRUCTION_TEXT + _BOUND_2_TEXT, "")),
    ([*_GLUE, "cex-beh-gluing", "--max-states=2"], (0, _OBSTRUCTION_TEXT + _BOUND_2_TEXT, "")),
    ([*_GLUE, "--max=2", "cex-beh-gluing"], (0, _OBSTRUCTION_TEXT + _BOUND_2_TEXT, "")),
    ([*_GLUE, "--m", "0", "cex-beh-gluing", "--max-states", "2"],
     (0, _OBSTRUCTION_TEXT + _BOUND_2_TEXT, "")),
    ([*_GLUE, "cex-beh-gluing", "--max-states", "-1"], (0, _OBSTRUCTION_TEXT, "")),
    ([*_GLUE, "cex-beh-gluing", "--max-states=0"], (0, _OBSTRUCTION_TEXT, "")),
    ([*_EPS, "triangle", "--eps", "-1"], (1, "", _NEGATIVE)),
    ([*_EPS, "triangle", "--eps", "-.5"], (1, "", _NEGATIVE)),
    ([*_EPS, "--eps=-1", "triangle"], (1, "", _NEGATIVE)),
    ([*_EPS, "triangle", "--eps", "nan"], (1, "", _NEGATIVE)),
    ([*_EPS, "triangle", "--eps", "inf"], (1, "", _INFINITE)),
    ([*_EPS, "triangle", "--eps=1e400"], (1, "", _INFINITE)),
    ([*_EPS, "triangle", "--eps", "1.2"], (0, "feasible at eps=1.2\n", "")),
    ([*_EPS, "--e", "1.2", "--", "triangle"], (0, "feasible at eps=1.2\n", "")),
    ([*_EPS, "triangle", "--"],
     (0, "depth 3\nsmallest infeasible subfamily [0, 1, 2] at judged input cls\n", "")),
], ids=["format-before-verb", "format-equals", "format-prefix", "format-prefix-equals",
        "format-last-wins", "kind", "kind-equals", "kind-first", "kind-last-wins", "kind-prefix",
        "kind-prefix-equals", "max-states", "max-states-equals", "max-states-prefix-equals",
        "max-states-last-wins", "max-states-negative", "max-states-zero", "eps-negative",
        "eps-negative-fraction", "eps-negative-equals", "eps-nan", "eps-inf", "eps-1e400",
        "eps", "eps-prefix-then-separator", "separator-after-target"])
def test_command_line_forms(capsys, argv, expected):
    """Each accepted form of the command line, with the output it had when
    the command line was read by ``argparse``."""
    assert _run(capsys, argv) == expected


def test_out_option_forms(capsys, tmp_path):
    path = tmp_path / "triangle.json"
    expected = fx.get_fixture("triangle")
    for argv in (["triangle", "--out", str(path)], [f"--out={path}", "triangle"],
                 ["--o", str(path), "triangle"], ["triangle", f"--o={path}"]):
        assert _run(capsys, ["fixtures", "dump", *argv]) == (0, f"wrote {path}\n", "")
        assert json.loads(path.read_text())["payload"] == expected.payload
        path.unlink()


_NAMED = {
    (): ["validate", "check", "fixtures", "separation", "glue-cogerm", "glue-beh", "tame-check",
         "eps-depth", "landscape", "list", "dump", "--format", "--kind", "--max-states", "--eps",
         "--out"],
    ("validate",): ["validate", "path"],
    ("check",): ["separation", "glue-cogerm", "glue-beh", "tame-check", "eps-depth", "landscape",
                 "--kind", "--max-states", "--eps"],
    ("fixtures",): ["list", "dump", "--out"],
    ("check", "separation"): ["target", "--kind", "strict", "cogerm", "beh", "ri"],
    ("check", "glue-beh"): ["target", "--max-states"],
    ("check", "eps-depth"): ["target", "--eps"],
    ("fixtures", "dump"): ["name", "--out"],
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("where", list(_NAMED), ids=lambda key: " ".join(key) or "top")
def test_help_names_every_verb_and_option(capsys, where, flag):
    with pytest.raises(SystemExit) as exc:
        main([*where, flag])
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert out.err == "" and out.out.startswith("usage: sheafmealy")
    for word in _NAMED[where]:
        assert word in out.out


@pytest.mark.parametrize("argv", [
    [],
    ["verify", "triangle"],
    ["check", "bogus", "triangle"],
    ["check", "separation"],
    ["fixtures", "dump"],
    [*_SEP, "cex-ri-separation", "--kind", "bogus"],
    [*_GLUE, "cex-beh-gluing", "--max-states", "x"],
    [*_EPS, "triangle", "--eps", "x"],
    [*_EPS, "triangle", "--eps", "-x"],
    ["validate", "triangle", "two-band"],
    [*_EPS, "triangle", "--eps"],
    ["fixtures", "dump", "triangle", "--out"],
    ["--format"],
    ["--format", "yaml", "check", "landscape"],
    ["validate", "triangle", "--format", "json"],
    ["check", "landscape", "--bogus"],
    ["--help=x"],
], ids=["nothing", "unknown-verb", "unknown-check", "missing-target", "missing-name",
        "kind-bogus", "max-states-x", "eps-x", "eps-dash-x", "extra-positional",
        "eps-without-value", "out-without-value", "format-without-value", "format-yaml",
        "format-after-verb", "unknown-option", "help-with-a-value"])
def test_bad_command_line_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    lines = out.err.splitlines()
    assert out.out == "" and len(lines) == 2 and "Traceback" not in out.err
    assert lines[0].startswith("usage: sheafmealy") and lines[1].startswith("sheafmealy: error: ")



def test_an_empty_option_name_is_ambiguous(capsys):
    """``--=1`` names no option, so every long option is a prefix match."""
    with pytest.raises(SystemExit) as exc:
        main([*_GLUE, "cex-beh-gluing", "--=1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.splitlines() == [
        "usage: sheafmealy check glue-beh [-h] [--max-states MAX_STATES] target",
        "sheafmealy: error: ambiguous option: --=1 could match --help, --max-states"]


def test_a_lone_dash_is_a_positional(capsys):
    """``-`` is no option: ``validate`` reads it as a fixture name."""
    refused = (1, "", "CheckerError: no fixture named '-'\n")
    assert _run(capsys, ["validate", "-"]) == refused


def test_cli_call_loads_no_argparse():
    probe = ("import sys\nfrom sheafmealy.cli import main\n"
             "main(['--format', 'json', 'fixtures', 'list'])\n"
             "print('argparse' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines()[-1] == "False"


def test_fixtures_list_builds_no_fixture(capsys, monkeypatch):
    def broken():
        raise AssertionError("built a fixture to list it")

    for name, (kind, provenance, _) in list(fx._REGISTRY.items()):
        monkeypatch.setitem(fx._REGISTRY, name, (kind, provenance, broken))
    code, doc, err = _json_run(capsys, ["fixtures", "list"])
    assert (code, err) == (0, "")
    assert [row["name"] for row in doc["fixtures"]] == ALL_FIXTURES


def test_validate_scans_a_system_once(capsys, monkeypatch, tmp_path):
    from sheafmealy import cli, systems

    scans = []
    scan = systems.system_violations

    def counted(candidate):
        scans.append(candidate)
        return scan(candidate)

    monkeypatch.setattr(systems, "system_violations", counted)
    monkeypatch.setattr(cli, "system_violations", counted)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(fx.get_fixture("cex-beh-gluing").payload["system"]))
    assert _run(capsys, ["validate", str(path)]) == (0, "valid system\n", "")
    assert len(scans) == 1
