"""Reference for the document scan behind :func:`sheafmealy.system_violations`
and :func:`sheafmealy.validate_system`.

``_scan`` is the scan the library's one-pass scan replaced, kept verbatim:
it looks every value of a dynamics row up through a ``_position`` closure,
keys the rows it has read by tuples of positions in a ``seen`` dict, compares
the raw ``(s2, o)`` values of two rows at one pair, and sweeps every pair
of the carriers for missing rows.  ``oracle_validate`` raises its first
violation as :func:`sheafmealy.validate_system` does.  The seeded tests
require the same violations, machine, or error type and message from both.
"""

from __future__ import annotations

from typing import Callable, Mapping

from sheafmealy.errors import CheckerError, MalformedDocument
from sheafmealy.systems import _VIOLATION_ERRORS, Ident, MealySystem, Violation, finset


def _position(carrier: tuple) -> Callable[[object], int | None]:
    """Position of a value in a carrier, or None.  Documents may hold
    unhashable values (JSON lists and objects); those are no identifiers,
    so they belong to no carrier."""
    index: dict[object, int] = {}
    for k, x in enumerate(carrier):
        try:
            index[x] = k
        except TypeError:
            pass

    def position(x: object) -> int | None:
        try:
            return index.get(x)
        except TypeError:
            return None

    return position


def _scan(candidate: Mapping) -> tuple[list[Violation], MealySystem | None]:
    """The violations of :func:`system_violations` and, when there are
    none, the machine, its step table filled as the rows are read."""
    if not isinstance(candidate, Mapping):
        raise MalformedDocument(f"a system must be an object, got {candidate!r}")
    for key in ("before_states", "after_states", "inputs", "outputs"):
        if not isinstance(candidate.get(key, []), list):
            raise MalformedDocument(f"a system: {key} must be a list, got {candidate[key]!r}")
    out: list[Violation] = []
    try:
        b = finset(candidate["before_states"])
        a = finset(candidate["after_states"])
        i = finset(candidate["inputs"])
        o = finset(candidate["outputs"])
    except KeyError as exc:
        return [Violation("ForeignElement", f"missing field {exc.args[0]!r}")], None
    except CheckerError as exc:
        return [Violation("ForeignElement", str(exc))], None
    except TypeError as exc:
        return [Violation("ForeignElement", f"carriers must hold comparable identifiers ({exc})")], None
    if not i or not o:
        out.append(Violation("EmptyInterface", "inputs and outputs must be non-empty"))
    pos_b, pos_a, pos_i, pos_o = (_position(x) for x in (b, a, i, o))
    seen: dict[tuple[int, int], tuple[Ident, Ident]] = {}
    table: list[list[tuple[int, int] | None]] = [[None] * len(i) for _ in b]
    dynamics = candidate.get("dynamics", [])
    if not isinstance(dynamics, list):
        raise MalformedDocument(f"dynamics must be a list of rows, got {dynamics!r}")
    for k, row in enumerate(dynamics):
        try:
            s, c, s2, emit = row["s"], row["i"], row["s2"], row["o"]
        except (KeyError, TypeError) as exc:
            raise MalformedDocument(f"dynamics row {k} needs the fields s, i, s2 and o") from exc
        key = (pos_b(s), pos_i(c))
        if None in key:
            out.append(Violation("ForeignElement", f"dynamics at foreign pair ({s!r}, {c!r})"))
            continue
        step = (pos_a(s2), pos_o(emit))
        if step[0] is None:
            out.append(Violation("ForeignElement", f"successor {s2!r} at ({s!r}, {c!r}) not an after-state"))
        if step[1] is None:
            out.append(Violation("ForeignElement", f"output {emit!r} at ({s!r}, {c!r}) not in output set"))
        if key in seen and seen[key] != (s2, emit):
            out.append(Violation("ForeignElement", f"conflicting dynamics entries at ({s!r}, {c!r})"))
        seen[key] = (s2, emit)
        table[key[0]][key[1]] = step
    for kb, s in enumerate(b):
        for ki, c in enumerate(i):
            if (kb, ki) not in seen:
                out.append(Violation("PartialDynamics", f"dynamics missing at ({s!r}, {c!r})"))
    if not out:
        # Every carrier element must be an identifier, also one that no
        # dynamics row names (say an input when there are no before-states).
        out = [Violation("ForeignElement", f"{x!r} is no identifier")
               for x in (*b, *a, *i, *o) if type(x).__hash__ is None]
    return out, None if out else MealySystem(b, a, i, o, tuple(map(tuple, table)))


def oracle_validate(candidate: Mapping) -> MealySystem:
    violations, machine = _scan(candidate)
    if violations:
        raise _VIOLATION_ERRORS[violations[0].kind](violations[0].detail)
    return machine
