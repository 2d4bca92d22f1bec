"""The behavior kernels of ``explain`` against the direct algorithms.

``minimize`` and ``pooled_behavior`` share one partition-refinement
kernel.  On seeded random machines, chain machines, one-letter and
reordered alphabets, and machines with different output sets, their
results and those of ``behavioral_equiv`` must equal those of the
pair-level scan and the index-ranked Moore loop in ``explain_oracles``:
the same witnesses, the same quotient tables and the same block numbers.

``behavioral_equiv`` decides an equal pair with a union-find and names the
witness of an unequal one with a walk over image pairs; neither refines.
Its reports must also equal those of the same call with the union-find
made to report a mismatch, so that the walk decides every pair, and those
of the refinement path it replaced, ``refined_behavioral_equiv``; no
comparison may reach the refinement.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from explain_oracles import (
    moore_minimize,
    moore_pooled,
    pair_level_behavioral_equiv,
    refined_behavioral_equiv,
)
from sheafmealy import (
    BehEquivReport,
    CheckerError,
    HeterogeneousInput,
    behavioral_equiv,
    check_separation,
    covering,
    explain,
    judge,
    localglobal,
    make_system,
    minimize,
    morphism,
    pooled_behavior,
    section,
    subsystem,
)
from sheafmealy import fixtures as fx
from test_golden_cli import _golden, run

OUTS = ("0", "1", "2")


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    # Seeded tags, so carrier order differs from construction order.
    return [f"{prefix}{t}" for t in rng.sample(range(10 * n), n)]


def _random_table(rng, states, inputs, outputs) -> dict:
    return {(s, c): (rng.choice(states), rng.choice(outputs))
            for s in states for c in inputs}


def _chain_table(states, inputs) -> dict:
    # ``a`` advances and only the last state emits 1 on it; every other
    # letter resets, so refinement takes one round per chain position.
    n = len(states)
    d = {}
    for k, s in enumerate(states):
        for c in inputs:
            if c == "a":
                d[(s, c)] = (states[min(k + 1, n - 1)], "1" if k == n - 1 else "0")
            else:
                d[(s, c)] = (states[0], "0")
    return d


def _machine(d: dict, outputs=OUTS):
    states = sorted({s for s, _ in d})
    inputs = sorted({c for _, c in d})
    return make_system(states, states, inputs, outputs, d)


def _renamed(d: dict, prefix: str) -> dict:
    return {(prefix + s, c): (prefix + s2, o) for (s, c), (s2, o) in d.items()}


def _mutated(rng, d: dict, outputs) -> dict:
    d = dict(d)
    key = rng.choice(sorted(d))
    s2, o = d[key]
    if rng.random() < 0.5:
        d[key] = (s2, rng.choice([x for x in outputs if x != o] or [o]))
    else:
        d[key] = (rng.choice(sorted({s for s, _ in d})), o)
    return d


def _table(rng, kind: str, prefix: str, inputs) -> dict:
    if kind == "chain":
        return _chain_table(_names(rng, prefix, rng.randint(3, 24)), inputs)
    return _random_table(rng, _names(rng, prefix, rng.randint(1, 16)), inputs, OUTS[:2])


def _sections(rng, m1, m2, n_patch: int):
    # A patch of self-looping states mapped at random into both machines;
    # behavioral comparison reads only the before-images.
    states = [f"u{k}" for k in range(n_patch)]
    u = make_system(states, states, ["x"], ["y"],
                    {(s, "x"): (s, "y") for s in states})
    patch = subsystem(u)

    def sec(m):
        f_b = {s: rng.choice(m.before) for s in states}
        psi = morphism(u, m, f_b, f_b, {"x": m.inputs[0]}, {"y": m.outputs[0]})
        return section(patch, m, psi)

    return sec(m1), sec(m2)


def _report(rep) -> tuple:
    return (rep.ok, rep.state, rep.word)


def test_behavioral_equiv_matches_pair_level_oracle(rng):
    seen = {"equal": 0, "unequal": 0, "deep": 0}
    for _ in range(160):
        kind = rng.choice(("random", "chain"))
        inputs = ["a", "b", "c"][: rng.randint(1, 3)]
        d1 = _table(rng, kind, "p", inputs)
        how = rng.choice(("copy", "mutate", "fresh"))
        if how == "copy":
            d2 = _renamed(d1, "q")
        elif how == "mutate":
            d2 = _renamed(_mutated(rng, d1, OUTS), "q")
        else:
            d2 = _table(rng, kind, "q", inputs)
        outs2 = rng.choice((OUTS, OUTS + ("3",)))
        if rng.random() < 0.3:
            # A second machine with one more letter than the alphabet.
            d2 = dict(d2)
            for s in {s for s, _ in d2}:
                d2[(s, "z")] = (s, outs2[-1])
        m1, m2 = _machine(d1), _machine(d2, outs2)
        shape = rng.choice(("full", "one", "reversed"))
        alphabet = tuple(inputs)
        if shape == "one":
            alphabet = (rng.choice(inputs),)
        elif shape == "reversed":
            alphabet = alphabet[::-1]
        s1, s2 = _sections(rng, m1, m2, rng.randint(1, 5))
        got = _report(behavioral_equiv(s1, s2, alphabet))
        assert got == pair_level_behavioral_equiv(s1, s2, alphabet)
        if got[0]:
            seen["equal"] += 1
        else:
            seen["unequal"] += 1
            seen["deep"] += len(got[2]) > 3
    assert min(seen.values()) > 0, seen


def test_behavioral_equiv_checks_match_oracle(rng):
    d = _random_table(rng, _names(rng, "p", 5), ["a", "b"], OUTS)
    m_ab = _machine(d)
    m_abz = _machine({**d, **{(s, "z"): (s, "0") for s, _ in d}})
    s1, s2 = _sections(rng, m_ab, m_abz, 3)
    other, _ = _sections(rng, m_ab, m_ab, 2)
    for args in ((s1, other), (s1, s2), (s1, s2, ("a", "z"))):
        with pytest.raises(CheckerError) as new:
            behavioral_equiv(*args)
        with pytest.raises(CheckerError) as old:
            pair_level_behavioral_equiv(*args)
        assert str(new.value) == str(old.value)
    # Output sets may differ, which pooled_behavior refuses.
    m_other = _machine({k: (s2, "9") for k, (s2, _) in d.items()}, ("9",))
    t1, t2 = _sections(rng, m_ab, m_other, 3)
    assert _report(behavioral_equiv(t1, t2)) == pair_level_behavioral_equiv(t1, t2)
    with pytest.raises(CheckerError):
        pooled_behavior([m_ab, m_other], ("a", "b"))


def test_minimize_matches_moore_oracle(rng):
    for _ in range(120):
        kind = rng.choice(("random", "chain"))
        inputs = ["a", "b", "c"][: rng.randint(1, 3)]
        d = _table(rng, kind, "s", inputs)
        # Planted duplicates: copies of existing rows under new names.
        states = sorted({s for s, _ in d})
        for k in range(rng.randint(0, 4)):
            src = rng.choice(states)
            for c in inputs:
                d[(f"dup{k}", c)] = d[(src, c)]
        m = _machine(d)
        j = None
        if rng.random() < 0.4:
            j = judge({c: c for c in inputs}, {o: rng.choice("XY") for o in OUTS},
                      interp_outputs=["X", "Y"])
        res = minimize(m, j)
        assert (res.machine, res.state_map) == moore_minimize(m, j)


def test_pooled_behavior_matches_moore_oracle(rng):
    for _ in range(120):
        inputs = ["a", "b", "c"][: rng.randint(1, 3)]
        machines = []
        for k in range(rng.randint(1, 3)):
            kind = rng.choice(("random", "chain"))
            d = _table(rng, kind, f"m{k}_", inputs)
            if machines and rng.random() < 0.5:
                d = _renamed(_mutated(rng, d, OUTS), f"r{k}_")
            machines.append(_machine(d))
        alphabet = tuple(inputs)
        if rng.random() < 0.4:
            alphabet = (rng.choice(inputs),)
        elif rng.random() < 0.3:
            alphabet = alphabet[::-1]
        part = pooled_behavior(machines, alphabet)
        assert (part.blocks, part.out_table, part.succ_table) == moore_pooled(machines, alphabet)


def _pooled_matches(machines, alphabet) -> None:
    part = pooled_behavior(machines, alphabet)
    assert (part.blocks, part.out_table, part.succ_table) == moore_pooled(machines, alphabet)


def test_empty_carriers_and_empty_alphabet_match_oracle(rng):
    empty = make_system([], [], ["a", "b"], OUTS, {})
    no_letters = make_system(["p", "q", "r"], ["p", "q", "r"], [], OUTS, {})
    for machine in (empty, no_letters):
        res = minimize(machine)
        assert (res.machine, res.state_map) == moore_minimize(machine)
    m = _machine(_table(rng, "random", "s", ["a", "b"]))
    chain = _machine(_table(rng, "chain", "c", ["a", "b"]))
    for machines in ([empty], [empty, m], [m, empty], [m, chain]):
        # Over no letters every state behaves alike: one block.
        for alphabet in (("a", "b"), ()):
            _pooled_matches(machines, alphabet)
    s1, s2 = _sections(rng, m, chain, 4)
    assert (_report(behavioral_equiv(s1, s2, ())) == pair_level_behavioral_equiv(s1, s2, ())
            == (True, None, None))


def _shift_table(base: int, digits: int, prefix: str) -> dict:
    # States are the words of ``digits`` digits; each letter emits the
    # leading digit and shifts a digit in.  Round r splits every block by
    # its (r+1)-th digit into ``base`` children of equal size, so every
    # split ties for the largest child.
    n = base ** digits
    name = [f"{prefix}{x:04d}" for x in range(n)]
    return {(name[x], c): (name[(base * x + k) % n], str(x * base // n))
            for x in range(n) for k, c in enumerate("ab")}


def test_splits_with_tied_largest_children_match_oracle(rng):
    for base, digits in ((2, 5), (3, 3)):
        d = _shift_table(base, digits, "s")
        m = _machine(d)
        res = minimize(m)
        assert (res.machine, res.state_map) == moore_minimize(m)
        assert len(res.machine.before) == len(m.before)
        copy = _machine(_renamed(d, "q"))
        _pooled_matches([m, copy], ("a", "b"))
        _pooled_matches([m, copy], ("b",))
        _pooled_matches([m, _machine(_renamed(_mutated(rng, d, OUTS), "r"))], ("a", "b"))


def _with_duplicates(rng, d: dict, inputs, k: int) -> dict:
    d = dict(d)
    states = sorted({s for s, _ in d})
    for j in range(k):
        src = rng.choice(states)
        for c in inputs:
            d[(f"dup{j}", c)] = d[(src, c)]
    return d


def test_long_chains_match_moore_oracle(rng):
    inputs = ("a", "b")
    for n in (60, rng.randint(61, 149), 150):
        d = _chain_table(_names(rng, "s", n), inputs)
        m = _machine(d)
        dup = _machine(_with_duplicates(rng, d, inputs, rng.randint(1, 8)))
        for machine in (m, dup):
            res = minimize(machine)
            assert (res.machine, res.state_map) == moore_minimize(machine)
            assert len(res.machine.before) == n
        _pooled_matches([m, _machine(_renamed(d, "q"))], inputs)
        _pooled_matches([dup, _machine(_renamed(_mutated(rng, d, OUTS), "r"))], inputs)


def test_minimize_of_a_3000_state_chain_keeps_every_class():
    n = 3000
    d = _chain_table([f"s{k:04d}" for k in range(n)], ["a", "b"])
    for k in range(0, n, 3):
        # A duplicate of every third chain state adds no class.
        for c in "ab":
            d[(f"t{k:04d}", c)] = d[(f"s{k:04d}", c)]
    res = minimize(_machine(d))
    assert len(res.machine.before) == n
    block = dict(res.state_map)
    assert block["t0003"] == block["s0003"] != block["s0004"]


def _sections_at(m1, m2, pairs):
    # One self-looping patch state per pair of before-images.
    states = [f"u{k}" for k in range(len(pairs))]
    u = make_system(states, states, ["x"], ["y"], {(s, "x"): (s, "y") for s in states})

    def sec(m, images):
        f = dict(zip(states, images))
        return section(subsystem(u), m,
                       morphism(u, m, f, f, {"x": m.inputs[0]}, {"y": m.outputs[0]}))

    return sec(m1, [x for x, _ in pairs]), sec(m2, [y for _, y in pairs])


def _mismatch(*args):
    return False


def _both_paths(monkeypatch, s1, s2, alphabet=None) -> tuple:
    """The report of ``behavioral_equiv``, required to equal the report of
    the same call with the union-find made to report a mismatch."""
    got = _report(behavioral_equiv(s1, s2, alphabet))
    with monkeypatch.context() as mp:
        mp.setattr(explain, "_same_behavior", _mismatch)
        assert _report(behavioral_equiv(s1, s2, alphabet)) == got
    return got


def test_union_find_exit_matches_refinement_and_oracle(rng, monkeypatch):
    seen = {True: 0, False: 0}
    for _ in range(160):
        kind = rng.choice(("random", "chain"))
        inputs = ["a", "b", "c"][: rng.randint(1, 3)]
        d1 = _table(rng, kind, "p", inputs)
        how = rng.choice(("copy", "mutate", "outputs"))
        d2 = _renamed(_mutated(rng, d1, OUTS) if how == "mutate" else d1, "q")
        # A renamed copy with a larger output set behaves alike.
        m1, m2 = _machine(d1), _machine(d2, OUTS + ("3",) if how == "outputs" else OUTS)
        picked = rng.sample(m1.before, rng.randint(1, min(4, len(m1.before))))
        pairs = [(x, "q" + x) for x in picked]
        if rng.random() < 0.3:
            pairs.append((rng.choice(m1.before), rng.choice(m2.before)))
        shape = rng.choice(("full", "one", "reversed", "empty"))
        alphabet = {"full": tuple(inputs), "one": (rng.choice(inputs),),
                    "reversed": tuple(inputs[::-1]), "empty": ()}[shape]
        s1, s2 = _sections_at(m1, m2, pairs)
        got = _both_paths(monkeypatch, s1, s2, alphabet)
        assert got == pair_level_behavioral_equiv(s1, s2, alphabet)
        seen[got[0]] += 1
    assert min(seen.values()) > 0, seen


def test_union_find_exit_on_empty_carriers_and_other_outputs(rng, monkeypatch):
    empty = make_system([], [], ["a", "b"], OUTS, {})
    m = _machine(_table(rng, "random", "s", ["a", "b"]))
    nines = _machine(_random_table(rng, _names(rng, "n", 4), ["a", "b"], ("9",)), ("9",))
    for m1, m2 in ((empty, empty), (empty, m), (m, empty)):
        s1, s2 = _sections_at(m1, m2, [])
        for alphabet in (("a", "b"), ()):
            assert (_both_paths(monkeypatch, s1, s2, alphabet)
                    == pair_level_behavioral_equiv(s1, s2, alphabet) == (True, None, None))
    for alphabet in (("a", "b"), ("b",), ()):
        s1, s2 = _sections_at(m, nines, [(x, nines.before[0]) for x in m.before])
        assert (_both_paths(monkeypatch, s1, s2, alphabet)
                == pair_level_behavioral_equiv(s1, s2, alphabet))


def test_outputs_that_do_not_compare_are_told_apart_by_equality(monkeypatch):
    """One machine emits "0" and the other 0.  The pooled rows number the
    outputs, so the refinement never orders a str against an int, and the
    report is the pair-level oracle's."""
    u = make_system(["u"], ["u"], ["x"], ["y"], {("u", "x"): ("u", "y")})

    def sec(out):
        m = make_system(["m"], ["m"], ["a"], [out], {("m", "a"): ("m", out)})
        return section(subsystem(u), m,
                       morphism(u, m, {"u": "m"}, {"u": "m"}, {"x": "a"}, {"y": out}))

    for s1, s2 in ((sec("0"), sec(0)), (sec(0), sec("0"))):
        assert behavioral_equiv(s1, s2) == BehEquivReport(False, "u", ("a",))
        assert _both_paths(monkeypatch, s1, s2) == pair_level_behavioral_equiv(s1, s2)


def test_union_find_exit_on_long_chains_flipped_at_the_far_end(rng, monkeypatch):
    # The union-find walks the whole chain pair before the flipped output
    # shows, then the refinement must give the word a^(n-1) b.
    for n in (60, rng.randint(61, 149), 150):
        states = _names(rng, "s", n)
        d = _chain_table(states, ("a", "b"))
        flipped = _renamed(d, "q")
        flipped[("q" + states[-1], "b")] = ("q" + states[0], "2")
        m1 = _machine(d)
        for d2, expect in ((_renamed(d, "q"), (True, None, None)),
                           (flipped, (False, "u0", ("a",) * (n - 1) + ("b",)))):
            s1, s2 = _sections_at(m1, _machine(d2), [(states[0], "q" + states[0])])
            assert _both_paths(monkeypatch, s1, s2, ("a", "b")) == expect
            if n == 60:
                # The pair-level oracle is cubic; one chain length suffices.
                assert pair_level_behavioral_equiv(s1, s2, ("a", "b")) == expect


def test_heterogeneous_machines_are_refused_as_before(monkeypatch):
    homo = _machine(_chain_table(["p0", "p1"], ["a"]))
    hetero = make_system(["h"], ["h", "k"], ["a"], OUTS, {("h", "a"): ("k", "0")})
    u = make_system(["u"], ["u"], ["x"], ["y"], {("u", "x"): ("u", "y")})

    def sec(m, b, a):
        return section(subsystem(u), m,
                       morphism(u, m, {"u": b}, {"u": a}, {"x": "a"}, {"y": "0"}))

    h, p = sec(hetero, "h", "k"), sec(homo, "p0", "p0")
    for s1, s2 in ((h, p), (p, h), (h, h)):
        for patched in (False, True):
            with monkeypatch.context() as mp:
                if patched:
                    mp.setattr(explain, "_same_behavior", _mismatch)
                with pytest.raises(HeterogeneousInput) as err:
                    behavioral_equiv(s1, s2)
            assert type(err.value) is HeterogeneousInput
            assert str(err.value) == "behavior is defined for homogeneous machines"


def _refuse_refinement(mp) -> None:
    def refuse(*args):
        raise AssertionError("an equal comparison reached the refinement")

    mp.setattr(explain, "_refine", refuse)
    mp.setattr(explain, "_pool", refuse)


def _mixed_copy(d: dict, states) -> dict:
    """Four renamed copies X, A, B, Z of ``d`` over a and b: X is entered
    first, a keeps to A and b to B, and a mixed word ends in Z, so ``X.s``
    behaves as ``s`` on every word."""
    goes = {"X": "AB", "A": "AZ", "B": "ZB", "Z": "ZZ"}
    return {(f"{tag}.{s}", c): (f"{goes[tag][k]}.{d[(s, c)][0]}", d[(s, c)][1])
            for tag in goes for s in states for k, c in enumerate("ab")}


def test_equal_comparisons_never_refine(rng, monkeypatch):
    j = judge({"a": "a", "b": "b"}, {o: o for o in OUTS})
    for trial in range(40):
        d = _table(rng, ("random", "chain")[trial % 2], "p", ["a", "b"])
        m = _machine(d)
        copy, mixed = _machine(_renamed(d, "q")), _machine(_mixed_copy(d, m.before))
        s1, s2 = _sections_at(m, copy, [(x, "q" + x) for x in m.before])
        cov = covering(m, [subsystem(m, inputs=["a"]), subsystem(m, inputs=["b"])])
        s, t = (section(subsystem(m), target, morphism(m, target, f, f, j.j_i, j.j_o))
                for target, f in ((m, {x: x for x in m.before}),
                                  (mixed, {x: f"X.{x}" for x in m.before})))
        with monkeypatch.context() as mp:
            _refuse_refinement(mp)
            assert behavioral_equiv(s1, s2).ok
            for kind in ("beh", "ri"):
                rep = check_separation(kind, cov, s, t, j)
                assert rep.locally_equal == (True, True) and rep.globally_equal


def test_fixture_separation_checks_never_refine(monkeypatch):
    """Every comparison that ``check separation --kind beh`` and ``--kind ri``
    make on the shipped fixtures answers as before with the refinement, the
    pool and the class walk made to raise: each command prints its golden
    bytes, and each report is the refined path's."""
    real_equiv = explain.behavioral_equiv
    calls = []

    def recording_equiv(*args):
        rep = real_equiv(*args)
        calls.append((args, _report(rep)))
        return rep

    def refuse(*args):
        raise AssertionError("a behavioral comparison reached the refinement")

    with monkeypatch.context() as mp:
        for name in ("_refine", "_pool", "_class_word"):
            mp.setattr(explain, name, refuse)
        mp.setattr(localglobal, "behavioral_equiv", recording_equiv)
        for f in fx.all_fixtures():
            if f.kind == "sections":
                for kind in ("beh", "ri"):
                    argv = ["check", "separation", f.name, "--kind", kind]
                    assert run(argv) == next(e for e in _golden() if e["argv"] == argv)
    assert {rep[0] for _, rep in calls} == {True, False}
    for args, rep in calls:
        assert rep == refined_behavioral_equiv(*args)


def _walk_and_refined(monkeypatch, s1, s2, alphabet=None) -> tuple:
    """The report of ``behavioral_equiv``, required to equal its report with
    the union-find made to report a mismatch, so that the walk decides,
    and the refined path's."""
    got = _both_paths(monkeypatch, s1, s2, alphabet)
    assert got == refined_behavioral_equiv(s1, s2, alphabet)
    return got


def test_walk_matches_refined_path_and_oracle_on_small_machines(rng, monkeypatch):
    seen: Counter = Counter()
    for _ in range(200):
        kind = rng.choice(("random", "chain"))
        inputs = ["a", "b", "c"][: rng.randint(1, 3)]
        d1 = _table(rng, kind, "p", inputs)
        how = rng.choice(("copy", "mutate", "fresh"))
        d2 = (_table(rng, kind, "q", inputs) if how == "fresh"
              else _renamed(_mutated(rng, d1, OUTS) if how == "mutate" else d1, "q"))
        m1, m2 = _machine(d1), _machine(d2)
        pairs = [(rng.choice(m1.before), rng.choice(m2.before)) for _ in range(rng.randint(0, 2))]
        if how != "fresh":
            pairs += [(x, "q" + x) for x in rng.sample(m1.before, min(3, len(m1.before)))]
        # Repeated pairs: patch states whose images are one start pair.
        pairs += rng.sample(pairs, rng.randint(0, len(pairs)))
        rng.shuffle(pairs)
        shape = rng.choice(("full", "one", "reversed", "empty"))
        alphabet = {"full": tuple(inputs), "one": (rng.choice(inputs),),
                    "reversed": tuple(inputs[::-1]), "empty": ()}[shape]
        s1, s2 = _sections_at(m1, m2, pairs)
        got = _walk_and_refined(monkeypatch, s1, s2, alphabet)
        assert got == pair_level_behavioral_equiv(s1, s2, alphabet)
        seen[shape, got[0]] += 1
        seen["deep"] += not got[0] and len(got[2]) > 3
    assert all(seen[shape, False] for shape in ("full", "one", "reversed")), seen
    assert seen["empty", True] and seen["deep"], seen


def test_walk_matches_refined_path_on_large_machines(rng, monkeypatch):
    seen: Counter = Counter()
    for trial in range(18):
        kind = ("random", "chain", "four-copy")[trial % 3]
        states = _names(rng, "p", rng.randint(30, 200))
        d = (_chain_table(states, ("a", "b")) if kind == "chain"
             else _random_table(rng, states, ("a", "b"), OUTS[:2]))
        if kind == "four-copy":
            d2, image = _mixed_copy(d, states), (lambda x: f"X.{x}")
            # A flip in Z shows only on words that mix both letters.
            flip = (f"Z.{rng.choice(states)}", "a")
        else:
            d2, image = _renamed(d, "q"), (lambda x: "q" + x)
            flip = ("q" + states[-rng.randint(1, 6)], rng.choice("ab"))
        if trial // 3 % 3:
            d2[flip] = (d2[flip][0], "2")
        m1, m2 = _machine(d), _machine(d2)
        for starts in (states, [states[0]], rng.sample(states, 5)):
            s1, s2 = _sections_at(m1, m2, [(x, image(x)) for x in starts])
            got = _walk_and_refined(monkeypatch, s1, s2, ("a", "b"))
            seen[kind, got[0]] += 1
            seen["deep"] += not got[0] and len(got[2]) > 20
    assert all(seen[kind, ok] for kind in ("random", "chain", "four-copy")
               for ok in (True, False)), seen
    assert seen["deep"], seen


def test_walk_tells_outputs_apart_by_equality(rng, monkeypatch):
    """One machine emits "0" and "1", the other 0 and 1: no pair of states
    agrees on a letter, and the walk, the refined path and the pair-level
    oracle name the same least state and letter."""
    states = _names(rng, "p", 6)
    d = _random_table(rng, states, ("a", "b"), OUTS[:2])
    ints = {(s, c): (s2, int(o)) for (s, c), (s2, o) in _renamed(d, "q").items()}
    m1, m2 = _machine(d), _machine(ints, (0, 1))
    s1, s2 = _sections_at(m1, m2, [(x, "q" + x) for x in states])
    for alphabet in (("a", "b"), ("b", "a"), ("b",)):
        got = _walk_and_refined(monkeypatch, s1, s2, alphabet)
        assert got == pair_level_behavioral_equiv(s1, s2, alphabet)
        assert got == (False, "u0", alphabet[:1])
