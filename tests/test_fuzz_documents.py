"""Seeded fuzzing of documents through the command line.

Hypothesis draws rectangle-union documents of one to eight boxes on a small
grid, with open and closed ends and with starts that tie, and runs
``validate`` and ``check tame-check`` on each in-process, as text and as
JSON; every ``disconnected fiber at t`` line must agree with the fiber that
``tame_oracle`` computes from the boxes as drawn.  It also mutates every
shipped fixture and runs ``validate`` and each check of the fixture's kind.
Every run must end in a documented exit code with no exception escaping
``main``.  System documents, the ones inside the fixtures and generated
50-state ones with dropped, duplicated and conflicting rows and odd values,
go through ``validate`` mutated, bare and wrapped, with text and JSON
telling the same story.  Unions of up to thirty boxes, and a few fixed ones, must
round-trip: normalization is idempotent, and a normalized union's document
reads back into the same canonical bytes.  Valid euclidean, box and
simplex epsilon documents round-trip too, and ``check eps-depth`` prints
the same bytes on a document and on its round trip.  The examples are
derived from the test's name, and nothing is stored between runs.
"""

import copy
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tame_oracle as oracle
from sheafmealy import fixtures as fx
from sheafmealy import jsonio, tame
from sheafmealy.tame import Interval, ProjectionJudge, Rect, RectUnion

from test_golden_cli import run

_POINTS = [Fraction(k, 2) for k in range(7)]


def _sides(dim: int):
    side = st.tuples(st.sampled_from(_POINTS), st.sampled_from(_POINTS),
                     st.booleans(), st.booleans())
    return st.tuples(*[side] * dim)


@st.composite
def documents(draw, max_boxes: int = 8):
    dim = draw(st.sampled_from((1, 2)))
    boxes = draw(st.lists(_sides(dim), min_size=1, max_size=max_boxes))
    rows = [{**{key: [str(lo), str(hi)] for key, (lo, hi, _, _) in zip("xy", box)},
             "open": [flag for _, _, *flags in box for flag in flags]} for box in boxes]
    return {"dim": dim, "axis": draw(st.integers(0, dim - 1)), "rects": rows}, boxes


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(documents())
def test_rect_union_documents_through_the_command_line(tmp_path_factory, drawn):
    doc, boxes = drawn
    path = tmp_path_factory.getbasetemp() / "fuzzed-union.json"
    path.write_text(json.dumps(doc))
    for verb in (["validate"], ["check", "tame-check"]):
        text, as_json = run([*verb, str(path)]), run(["--format", "json", *verb, str(path)])
        assert text["exit"] == as_json["exit"] in (0, 1, 2)
        if as_json["exit"] == 0:
            json.loads(as_json["stdout"])
    assert text["exit"] == 0
    u = RectUnion(doc["dim"], tuple(Rect.of(Interval(*side) for side in box) for box in boxes))
    pj = ProjectionJudge(doc["axis"])
    lines = [line for line in text["stdout"].splitlines() if line.startswith("disconnected")]
    for line in lines:
        t, verdict = line[len("disconnected fiber at "):].split(";")[0].split(": ")
        assert verdict == ("yes" if len(oracle.fiber(u, pj, Fraction(t))) > 1 else "no"), line


def _row(n: int) -> dict:
    """``n`` unit squares in a row along axis 0, open and closed in turn
    where they meet, and the first one twice more."""
    rows = [{"x": [str(k), str(k + 1)], "y": ["0", "1"], "open": [k % 2 == 1, False, False, False]}
            for k in range(n)]
    return {"dim": 2, "axis": 1, "rects": rows + rows[:1] * 2}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(doc=documents(max_boxes=30).map(lambda drawn: drawn[0]))
@example(doc=fx.get_fixture("punctured-square").payload)
@example(doc=fx.get_fixture("two-band").payload)
@example(doc=_row(6))
@example(doc={"dim": 1, "axis": 0, "rects": [{"x": ["0", "1"], "open": [False, True]},
                                             {"x": ["1", "2"], "open": [True, False]},
                                             {"x": ["2", "3"]}]})
def test_rect_union_documents_round_trip(doc):
    """Normalization is idempotent on its own output, and a normalized
    union's document, written as canonical JSON and read back, gives the
    same bytes again."""
    u, pj = jsonio.union_from_json(doc)
    assert tame.rect_union(u.dim, u.rects) == u
    first = jsonio.canonical_bytes(jsonio.union_payload(u, pj))
    again = jsonio.union_payload(*jsonio.union_from_json(json.loads(first)))
    assert jsonio.canonical_bytes(again) == first


_COORDS = st.floats(-4.0, 4.0) | st.integers(-3, 3).map(float)


@st.composite
def epsilon_documents(draw):
    """Valid epsilon documents: one to three dimensions, a euclidean, box or
    simplex domain, one to six raw inputs over one to three judged inputs,
    one to four patches and a tolerance."""
    dim = draw(st.integers(1, 3))
    domain = draw(st.sampled_from(("euclidean", "box", "simplex")))
    raws = [f"r{k}" for k in range(draw(st.integers(1, 6)))]
    judged = [f"c{k}" for k in range(draw(st.integers(1, 3)))]
    doc = {"dim": dim, "domain": domain}
    if domain == "box":
        doc["box"] = [sorted(draw(st.tuples(_COORDS, _COORDS))) for _ in range(dim)]
        doc["values"] = {r: [draw(st.floats(lo, hi)) for lo, hi in doc["box"]] for r in raws}
    elif domain == "simplex":
        weights = {r: draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim)
                           .filter(any)) for r in raws}
        doc["values"] = {r: [w / sum(ws) for w in ws] for r, ws in weights.items()}
    else:
        doc["values"] = {r: draw(st.lists(_COORDS, min_size=dim, max_size=dim)) for r in raws}
    doc["i_map"] = {r: draw(st.sampled_from(judged)) for r in raws}
    doc["interp_inputs"] = judged
    doc["patches"] = draw(st.lists(st.lists(st.sampled_from(raws), min_size=1, max_size=3,
                                            unique=True), min_size=1, max_size=4))
    doc["eps"] = draw(st.floats(0.0, 4.0))
    return doc


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(epsilon_documents())
def test_epsilon_documents_round_trip(tmp_path_factory, doc):
    """An epsilon document read and written once is a fixed point of its
    canonical bytes, and ``check eps-depth`` prints the same bytes on the
    document as drawn and on its round trip, as text and as JSON."""
    once = jsonio.canonical_bytes(jsonio.epsilon_payload(*jsonio.epsilon_from_payload(doc)))
    again = jsonio.epsilon_payload(*jsonio.epsilon_from_payload(json.loads(once)))
    assert jsonio.canonical_bytes(again) == once
    drawn, written = (tmp_path_factory.getbasetemp() / f"eps-{k}.json" for k in range(2))
    drawn.write_text(json.dumps(doc))
    written.write_bytes(once)
    for fmt in ([], ["--format", "json"]):
        first, second = (run([*fmt, "check", "eps-depth", str(p)]) for p in (drawn, written))
        assert first["exit"] == 0 and first["stderr"] == ""
        assert (first["stdout"], second["exit"], second["stderr"]) == (
            second["stdout"], 0, "")


# Values put in place of a node of a shipped document: every JSON type,
# a NaN, an integer past float range and a string that is no rational.
_REPLACEMENTS = (None, True, False, 0, -1, 2.5, float("nan"), 10**30, "", "x", "1/0",
                 [], ["x"], {}, {"x": 1})

# The checks that read each kind of document, separation in each of its kinds.
_CHECKS = {
    "sections": [*(["check", "separation", "--kind", k] for k in ("strict", "cogerm", "beh", "ri")),
                 ["check", "glue-cogerm"], ["check", "glue-beh"]],
    "rect-union": [["check", "tame-check"]],
    "epsilon": [["check", "eps-depth"]],
    "judge": [],
}


@st.composite
def _mutant(draw, payload):
    """A copy of ``payload`` with one to three nodes changed.  Each change
    walks down from the top to a drawn depth, entering one child per level,
    so shallow fields are hit as often as deep ones; it then drops the node,
    replaces it, or duplicates it in its list (an object's entry is
    replaced instead)."""
    doc = copy.deepcopy(payload)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        for _ in range(draw(st.integers(1, 4))):
            if not (isinstance(node, (dict, list)) and node):
                break
            parent, key = node, draw(st.sampled_from(list(node) if isinstance(node, dict)
                                                     else range(len(node))))
            node = parent[key]
        if parent is None:
            continue
        op = draw(st.sampled_from(("drop", "replace", "duplicate")))
        if op == "drop":
            del parent[key]
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(node))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(_REPLACEMENTS)))
    return doc


@pytest.mark.parametrize("name", [f.name for f in fx.all_fixtures()])
def test_mutated_fixture_documents_through_the_command_line(tmp_path_factory, name):
    """Every shipped fixture, mutated, bare or wrapped: ``validate`` and each
    check of its kind end in a documented exit code, as text and as JSON,
    and no exception escapes ``main``."""
    fixture = fx.get_fixture(name)
    path = tmp_path_factory.getbasetemp() / f"mutated-{name}.json"

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(_mutant(fixture.payload), st.booleans())
    def check(doc, wrapped):
        path.write_text(json.dumps({"kind": fixture.kind, "payload": doc} if wrapped else doc))
        for verb in (["validate"], *_CHECKS[fixture.kind]):
            text = run([*verb[:2], str(path), *verb[2:]])
            as_json = run(["--format", "json", *verb[:2], str(path), *verb[2:]])
            assert text["exit"] == as_json["exit"] in (0, 1, 2), (verb, text, as_json)

    check()


def _system_payloads(node) -> list:
    """Every system document inside a fixture payload: its target system,
    patch sources and section machines."""
    if isinstance(node, list):
        return [doc for child in node for doc in _system_payloads(child)]
    if not isinstance(node, dict):
        return []
    found = [node] if "dynamics" in node else []
    return found + [doc for child in node.values() for doc in _system_payloads(child)]


# The system documents inside the shipped fixtures, each once.
FIXTURE_SYSTEMS = list({jsonio.canonical_dumps(doc): doc for f in fx.all_fixtures()
                        for doc in _system_payloads(f.payload)}.values())

_NAN = float("nan")
# Values put in place of a row's field: a foreign identifier, unhashable
# values, a NaN that is an output of some systems and one that is none,
# and True, which names the output 1 where outputs are integers.
_ODD = ("zz", [], ["s0"], {}, _NAN, float("nan"), True, 1, None)


@st.composite
def generated_systems(draw, n: int = 50):
    """An ``n``-state system over two inputs, with string or integer
    outputs (and sometimes a NaN output), after up to eight edits: a row
    dropped, duplicated as is or with a changed step, or given an odd
    value in one field."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    states = [f"s{k}" for k in range(n)]
    outputs = rng.choice((["0", "1"], [0, 1], [0, 1, _NAN]))
    rows = [{"s": s, "i": c, "s2": rng.choice(states), "o": rng.choice(outputs)}
            for s in states for c in ("a", "b")]
    for _ in range(rng.randrange(9)):
        edit, k = rng.choice(("drop", "copy", "conflict", "odd")), rng.randrange(len(rows))
        if edit == "drop":
            del rows[k]
        elif edit == "odd":
            rows[k] = {**rows[k], rng.choice("s i s2 o".split()): rng.choice(_ODD)}
        else:
            row = dict(rows[k])
            if edit == "conflict":
                row["s2" if rng.random() < 0.5 else "o"] = rng.choice(
                    states if rng.random() < 0.5 else outputs)
            rows.insert(rng.randrange(len(rows) + 1), row)
    return {"before_states": states, "after_states": states, "inputs": ["a", "b"],
            "outputs": outputs, "dynamics": rows}


def system_mutants():
    """The fixtures' system documents and generated systems, each left as
    it is or changed by :func:`_mutant`."""
    docs = st.sampled_from(FIXTURE_SYSTEMS) | generated_systems()
    return docs.flatmap(lambda doc: st.just(doc) | _mutant(doc))


def _told_the_same(text: dict, as_json: dict) -> bool:
    """Whether a ``validate`` run printed the same outcome as text and as JSON."""
    if (text["exit"], text["stderr"]) != (as_json["exit"], as_json["stderr"]):
        return False
    if not as_json["stdout"]:
        return text["stdout"] == ""
    doc = json.loads(as_json["stdout"])
    lines = ([f"valid {doc['kind']}"] if doc["valid"] else
             [f"invalid: {v['kind']}: {v['detail']}" for v in doc["violations"]])
    return text["stdout"].splitlines() == lines


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(system_mutants(), st.booleans())
def test_system_documents_through_validate(tmp_path_factory, doc, wrapped):
    """A mutated system document, bare or wrapped, ends ``validate`` in a
    documented exit code with no exception escaping ``main``, and text and
    JSON report the same outcome."""
    path = tmp_path_factory.getbasetemp() / "mutated-system.json"
    path.write_text(json.dumps({"kind": "system", "payload": doc} if wrapped else doc))
    text, as_json = run(["validate", str(path)]), run(["--format", "json", "validate", str(path)])
    assert text["exit"] in (0, 1, 2), text
    assert _told_the_same(text, as_json), (text, as_json)
