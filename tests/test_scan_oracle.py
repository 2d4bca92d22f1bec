"""The one-pass system scan against the scan it replaced.

``scan_oracle._scan`` is the former scan, kept verbatim.  On every
document drawn here, :func:`system_violations` must return the oracle's
violations and :func:`validate_system` its machine, or both must raise the
same error type with the same message.  The documents are the system
documents inside the shipped fixtures, each mutated on its own, the mix of
those and generated 50-state systems that ``test_fuzz_documents`` feeds to
``validate``, and a fixed case for each branch of the scan.  The examples are derived from the test's name,
and nothing is stored between runs.
"""

import pytest
from hypothesis import given, settings

from scan_oracle import _scan, oracle_validate
from sheafmealy import system_violations, validate_system

from test_fuzz_documents import FIXTURE_SYSTEMS, _mutant, system_mutants


def _outcome(f, doc):
    try:
        return f(doc)
    except Exception as exc:  # compared, not hidden: both sides must raise alike
        return type(exc), str(exc)


def _assert_same_as_oracle(doc) -> None:
    assert _outcome(system_violations, doc) == _outcome(lambda d: _scan(d)[0], doc)
    assert _outcome(validate_system, doc) == _outcome(oracle_validate, doc)


@pytest.mark.parametrize("k", range(len(FIXTURE_SYSTEMS)))
def test_fixture_system_mutants_scan_as_the_oracle(k):
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(_mutant(FIXTURE_SYSTEMS[k]))
    def check(doc):
        _assert_same_as_oracle(doc)

    _assert_same_as_oracle(FIXTURE_SYSTEMS[k])
    check()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(system_mutants())
def test_system_mutants_scan_as_the_oracle(doc):
    _assert_same_as_oracle(doc)


def _system(*rows, outputs=("0", "1")) -> dict:
    """States p and q, inputs a and b, the full table ``(s, c) -> (s,
    outputs[0])`` and then ``rows``."""
    full = [{"s": s, "i": c, "s2": s, "o": outputs[0]} for s in ("p", "q") for c in ("a", "b")]
    return {"before_states": ["p", "q"], "after_states": ["p", "q"], "inputs": ["a", "b"],
            "outputs": list(outputs), "dynamics": full + list(rows)}


def _row(s="p", i="a", s2="p", o="0") -> dict:
    return {"s": s, "i": i, "s2": s2, "o": o}


_NAN = float("nan")
_CONFLICT = "conflicting dynamics entries at ('p', 'a')"


def _foreign_output(o: str) -> str:
    return f"output {o} at ('p', 'a') not in output set"


# One document per branch of the scan, with the violations the oracle
# reports on it.
BRANCHES = {
    "foreign pair": (_system(_row(s="r")), ["dynamics at foreign pair ('r', 'a')"]),
    "unhashable pair": (_system(_row(i=["a"])), ["dynamics at foreign pair ('p', ['a'])"]),
    "foreign successor": (_system(_row(s2="r")),
                          ["successor 'r' at ('p', 'a') not an after-state", _CONFLICT]),
    "foreign output": (_system(_row(o={})), [_foreign_output("{}"), _CONFLICT]),
    "foreign row, then a valid one": (
        {**_system(), "dynamics": [_row(s2="r"), *_system()["dynamics"]]},
        ["successor 'r' at ('p', 'a') not an after-state", _CONFLICT]),
    "valid row, then a foreign one": (_system(_row(o="2")), [_foreign_output("'2'"), _CONFLICT]),
    "two different foreign rows": (_system(_row(o="2"), _row(o="3")), [
        _foreign_output("'2'"), _CONFLICT, _foreign_output("'3'"), _CONFLICT]),
    "one foreign row twice": (_system(_row(o="2"), _row(o="2")), [
        _foreign_output("'2'"), _CONFLICT, _foreign_output("'2'")]),
    "valid rows in conflict": (_system(_row(s2="q")), [_CONFLICT]),
    "missing rows": ({**_system(), "dynamics": _system()["dynamics"][1:3]},
                     ["dynamics missing at ('p', 'a')", "dynamics missing at ('q', 'b')"]),
    "non-identifier carrier element": (
        {"before_states": [], "after_states": [], "inputs": [["a"]], "outputs": ["0"],
         "dynamics": []}, ["['a'] is no identifier"]),
    "True names the output 1": (_system(_row(o=True), outputs=(1, 0)), []),
    "a NaN output, named by itself": (_system(_row(o=_NAN), outputs=(_NAN, 0)), []),
    "a NaN output, named by another NaN": (_system(_row(o=float("nan")), outputs=(_NAN, 0)),
                                           [_foreign_output("nan"), _CONFLICT]),
}


@pytest.mark.parametrize("name", BRANCHES)
def test_each_branch_scans_as_the_oracle(name):
    doc, details = BRANCHES[name]
    violations, machine = _scan(doc)
    assert [v.detail for v in violations] == details
    assert (machine is None) == bool(details)
    _assert_same_as_oracle(doc)
