"""One test per advertised guarantee, each printing a PASS/FAIL line.

Budgets are wall-clock seconds; a test fails when its criterion fails or
when it runs over budget.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
import randgen as rg
from eps_oracle import discrete_feasible, discrete_obstruction_depth, target_set
from test_systems import run_vk_trials

from sheafmealy import (
    ObstructionReport,
    check_cogerm_witness,
    check_separation,
    cogerm_equiv,
    feasibility,
    epsilon_instance,
    fiber,
    glue_behavioral,
    glue_cogerm,
    glue_stateless,
    is_j_full,
    min_enclosing_ball,
    minimize,
    obstruction_depth,
    restrict_section,
    robustly_disconnected,
    search_bounded_behavioral_glue,
    sheaf_verdict,
    stateless_ri_section,
    two_patch_counterexample,
    validate_section,
)
from sheafmealy import fixtures as fx
from sheafmealy.cli import main as cli_main

HALF = Fraction(1, 2)


@pytest.fixture
def verdict(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def write(line: str) -> None:
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)

    @contextmanager
    def block(label: str, budget: float | None = None):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            write(f"FAIL  {label}")
            raise
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            write(f"FAIL  {label}: {elapsed:.2f}s over the {budget:.0f}s budget")
            raise AssertionError(
                f"{label}: runtime {elapsed:.2f}s exceeds {budget}s"
            )
        write(f"PASS  {label} ({elapsed:.2f}s)")

    return block


def test_c01_restricted_interface_separation_fixture(verdict):
    with verdict("range-restricted separation splits a locally equal pair",
                 budget=1.0):
        f = fx.ri_separation_objects()
        rep = check_separation("ri", f.covering, f.sections[0],
                               f.sections[1], f.judge)
        assert list(rep.locally_equal) == [True, True]
        assert not rep.globally_equal
        assert rep.separation_violated
        state, word = rep.global_witness
        assert word == ("a", "b")


def test_c02_behavioral_gluing_obstruction_fixture(verdict):
    with verdict("forced behavior classes obstruct gluing, even bounded",
                 budget=10.0):
        f = fx.beh_gluing_objects()
        res = glue_behavioral(f.covering, list(f.sections), f.judge)
        assert isinstance(res, ObstructionReport)
        assert res.site == ("s2",)
        assert sorted(step.outputs for step in res.forced) == [("0",), ("1",)]
        found = search_bounded_behavioral_glue(
            f.covering, list(f.sections), f.judge, max_states=4
        )
        assert found is None


def test_c03_minimal_realisation_of_first_patch(verdict):
    with verdict("minimizing the first patch collapses to two classes"):
        f = fx.beh_gluing_objects()
        res = minimize(f.covering.patches[0].source, f.judge)
        assert len(res.machine.before) == 2
        groups: dict[str, set] = {}
        for state, cls in res.state_map:
            groups.setdefault(cls, set()).add(state)
        assert sorted(groups.values(), key=len) == [{"s0"}, {"s1", "s2"}]


def test_c04_pointwise_behavioral_separation_property(rng, verdict):
    with verdict("500 random section pairs: local behavioral equality is "
                 "global", budget=30.0):
        violations = 0
        for _ in range(500):
            _, jdg, cov, s1, s2 = rg.rand_section_pair(rng)
            rep = check_separation("beh", cov, s1, s2, jdg)
            if rep.separation_violated:
                violations += 1
        assert violations == 0


def test_c05_cogerm_families_glue_and_restrict_back(rng, verdict):
    with verdict("200 random compatible cogerm families glue exactly"):
        for _ in range(200):
            _, jdg, cov, locals_, _ = rg.rand_cogerm_family(rng)
            glued = glue_cogerm(cov, locals_, jdg)
            assert validate_section(jdg, glued).ok
            for patch, local in zip(cov.patches, locals_):
                back = restrict_section(glued, patch)
                witness = cogerm_equiv(back, local)
                assert witness is not None
                ok, reason = check_cogerm_witness(back, local, witness)
                assert ok, reason


def test_c06_exact_rectangle_unions(verdict):
    with verdict("momentary splits pass, persistent splits certify and cut"):
        u, pj = fx.punctured_square_objects()
        assert len(fiber(u, pj, HALF)) == 2
        v = sheaf_verdict(u, pj)
        assert v.is_sheaf
        for t in v.candidates:
            assert robustly_disconnected(u, pj, t) is None
        bu, bpj = fx.two_band_objects()
        bv = sheaf_verdict(bu, bpj)
        assert not bv.is_sheaf and bv.certificates
        cut = two_patch_counterexample(bu, bpj, bv.certificates[0])
        # compatible: each patch alone forces a consistent assignment
        for patch, assignment in zip(cut.covering.patches, cut.assignments):
            rep = stateless_ri_section(patch, cut.judge)
            assert rep.ok and rep.assignment == assignment
        # unglueable: the family as a whole has no section
        glue = glue_stateless(cut.covering, cut.judge)
        assert not glue.ok
        assert cut.obstruction is not None


def test_c07_triangle_numbers(verdict):
    with verdict("triangle: pairs at radius 1, triple at 2/sqrt(3), depth 3",
                 budget=1.0):
        inst, patches, eps = fx.triangle_objects()
        assert eps == 1.08
        names = [p[0] for p in patches]
        for i in range(3):
            for j in range(i + 1, 3):
                pts = target_set(inst, "cls", [names[i], names[j]])
                assert abs(min_enclosing_ball(pts).radius - 1.0) <= 1e-9
                assert feasibility(inst, pts, eps).feasible
        all_pts = target_set(inst, "cls", names)
        full = min_enclosing_ball(all_pts).radius
        assert abs(full - 2.0 / math.sqrt(3.0)) <= 1e-9
        assert not feasibility(inst, all_pts, eps).feasible
        rep = obstruction_depth(inst, patches, eps)
        assert not rep.feasible and rep.depth == 3


def test_c08_helly_property_and_sharpness(rng, verdict):
    with verdict("3000 random families: (d+1)-wise feasible implies "
                 "feasible; simplices are sharp", budget=60.0):
        for dim in (1, 2, 3):
            probe = epsilon_instance(
                dim, "euclidean", {"z": (0.0,) * dim}, {"z": "cls"}
            )
            for _ in range(1000):
                family = rg.rand_point_family(rng, dim)
                union = [p for part in family for p in part]
                r_small = 0.0
                for combo in rg.subfamilies(len(family), dim + 1):
                    pts = [p for k in combo for p in family[k]]
                    r_small = max(r_small,
                                  min_enclosing_ball(pts).radius)
                res = feasibility(probe, union, r_small + 1e-6)
                assert res.feasible
                assert res.radius <= r_small + 1e-7
            inst, patches, eps = fx.sharp_simplex_objects(dim)
            rep = obstruction_depth(inst, patches, eps)
            assert not rep.feasible and rep.depth == dim + 1


def test_c09_discrete_helly_number_two(rng, verdict):
    with verdict("500 discrete instances: pairwise labels force a global "
                 "label"):
        grid = [(0.0,), (1.0,)]
        premise_held = 0
        for _ in range(500):
            n = rng.randint(2, 4)
            family = [
                tuple(rng.choice(grid) for _ in range(rng.randint(1, 2)))
                for _ in range(n)
            ]
            eps = rng.choice([0.0, 0.5, 0.99])
            pairwise = all(
                discrete_feasible(list(family[i]) + list(family[j]), eps)
                for i in range(n)
                for j in range(i, n)
            )
            union = [p for part in family for p in part]
            if pairwise:
                premise_held += 1
                assert discrete_feasible(union, eps)
            depth = discrete_obstruction_depth(family, eps)
            assert depth is None or depth <= 2
        assert premise_held > 20


def test_c10_landscape_table(capsys, verdict):
    with verdict("landscape verb reproduces the separation/gluing matrix"):
        code = cli_main(["--format", "json", "check", "landscape"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["all_evidence_ok"] is True
        rows = {r["presheaf"]: r for r in doc["rows"]}
        assert rows["unquotiented"]["separation"] == "yes"
        assert rows["unquotiented"]["gluing"] == "yes (sheaf)"
        assert rows["cogerm"]["separation"] == "no"
        assert rows["cogerm"]["gluing"] == "yes"
        assert rows["behavioral"]["separation"] == "yes"
        assert rows["behavioral"]["gluing"] == "no"
        assert rows["restricted-interface"]["separation"] == "j-full only"
        assert all(r["evidence"] for r in doc["rows"])
        # the qualified cell: splits on the mixed-word fixture, holds on
        # every shipped j-full pair of global sections
        bad = fx.ri_separation_objects()
        assert not is_j_full(bad.covering, bad.judge)
        rep = check_separation("ri", bad.covering, bad.sections[0],
                               bad.sections[1], bad.judge)
        assert rep.separation_violated
        for f in (fx.jfull_pair_objects(), fx.extra_states_objects()):
            assert is_j_full(f.covering, f.judge)
            rep = check_separation("ri", f.covering, f.sections[0],
                                   f.sections[1], f.judge)
            assert not rep.separation_violated


def test_c11_pushout_cube_brute_force(seed, verdict):
    with verdict("200 random pushout cubes verify; canonical maps stay "
                 "injective"):
        stats = run_vk_trials(seed + 11, 200)
        assert stats["trials"] == 200
