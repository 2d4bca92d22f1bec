"""Seeded fuzzing of rectangle-union documents through the command line.

Hypothesis draws one to eight boxes on a small grid, with open and closed
ends and with starts that tie, and runs ``validate`` and ``check
tame-check`` on the document in-process, as text and as JSON.  Every run
must end in a documented exit code with no exception escaping ``main``, and
every ``disconnected fiber at t`` line must agree with the fiber that
``tame_oracle`` computes from the boxes as drawn.  The examples are derived
from the test's name, and nothing is stored between runs.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import tame_oracle as oracle
from sheafmealy.tame import Interval, ProjectionJudge, Rect, RectUnion

from test_golden_cli import run

_POINTS = [Fraction(k, 2) for k in range(7)]


def _sides(dim: int):
    side = st.tuples(st.sampled_from(_POINTS), st.sampled_from(_POINTS),
                     st.booleans(), st.booleans())
    return st.tuples(*[side] * dim)


@st.composite
def documents(draw):
    dim = draw(st.sampled_from((1, 2)))
    boxes = draw(st.lists(_sides(dim), min_size=1, max_size=8))
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
