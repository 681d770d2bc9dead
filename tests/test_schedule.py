"""The evaluator's schedule against the recursive evaluator it replaced
(support.oracle_evaluate): the same bits at every position a program
reads, one call of each map per program, the space checks, and every other
value dropped after its last reader."""
import numpy as np
import pytest

import cstar_jensen as cj
from cstar_jensen import algebra as alg
from cstar_jensen import catalog, harness
from cstar_jensen import hilbert as hb
from cstar_jensen import identities as idn
from cstar_jensen.errors import SpaceMismatch
from support import oracle_evaluate, values

D0 = idn._DRAW[0]


def bits(value):
    """What a value is, bit for bit: a vector's type, space and blocks, or
    a residual's array."""
    if isinstance(value, alg.ModuleVector):
        return type(value), value.space, [(b.shape, b.tobytes()) for b in value.blocks]
    value = np.asarray(value)
    return value.shape, value.tobytes()


def counting(maps, calls):
    """maps, each call counted by name in calls."""

    def counted(name, m):
        def call(x):
            calls[name] = calls.get(name, 0) + 1
            return m(x)

        return call

    return {name: counted(name, m) for name, m in maps.items()}


def recorded_programs(monkeypatch) -> dict:
    """{id(schedule): program} of every program identities._program gives
    while the test runs."""
    seen, build = {}, idn._program

    def recording(ids):
        program = build(ids)
        seen[id(program.schedule)] = program
        return program

    monkeypatch.setattr(idn, "_program", recording)
    return seen


@pytest.mark.parametrize("name", catalog.SCENARIO_NAMES)
def test_every_family_reads_the_bits_of_the_recursive_oracle(name, monkeypatch):
    """Every mapping of the scenario, all of its families as one program,
    through both evaluators on the same draws: each position the program
    reads is byte equal, and each evaluator calls each map once."""
    evaluate, ran, programs = idn._evaluate, [], recorded_programs(monkeypatch)

    def both(schedule, draws, space, coefficients, maps):
        program = programs[id(schedule)]
        new, old = {}, {}
        got = evaluate(schedule, draws, space, coefficients, counting(maps, new))
        want = oracle_evaluate(program.nodes, program.calls, draws, space, coefficients, counting(maps, old))
        assert new == old == {m: 1 for m in program.calls}
        for k, _ in schedule.reads:
            assert bits(got[k]) == bits(want[k]), program.nodes[k]
        ran.extend(idn.FAMILY_OF[identity.id].name for identity, *_ in program.compiled)
        return got

    monkeypatch.setattr(idn, "_evaluate", both)
    scenario = harness.load_scenario(catalog.bundled_scenario_path(name))
    for mi in range(len(scenario.mappings)):
        harness._mapping_entries(scenario, mi, set(idn.CHECK_IDS))
    # every family that reaches the program: the rows that need a pair,
    # and the scalar row off a scalar coefficient, refuse before it
    assert {"jensen", "scaling"} <= set(ran)
    if scenario.pair is not None:
        assert set(ran) >= {f.name for f in idn.FAMILIES} - {"scalar"}


def test_only_the_read_positions_are_kept():
    scenario = harness.load_scenario(catalog.bundled_scenario_path("affine_roundtrip"))
    _, f = scenario.mappings[0]
    family = idn.FAMILY_OF["thm2.7-reconstruct"]
    program = idn._program(family.ids)
    drawn = family.draw(scenario.space_e, scenario.pair, None, 0, 9, np.random.default_rng([3]))
    draws = dict(enumerate(drawn, family.first))
    maps = {"f": f, "phi": scenario.pair.phi, "psi": scenario.pair.psi}
    coefficients = {"a": scenario.coefficient, "pair": scenario.pair.coefficient}
    got = idn._evaluate(program.schedule, draws, scenario.space_e, coefficients, maps)
    read = {k for k, _ in program.schedule.reads}
    assert [k for k, v in enumerate(got) if v is not None] == sorted(read)
    # each value but the read ones is freed by the last step that reads it
    freed = [k for *_, free in program.schedule.steps for k in free]
    assert sorted(freed) == sorted(set(range(len(program.nodes))) - read)


class TestSpaceChecks:
    """A step that adds or subtracts values of two spaces refuses, as the
    recursive evaluator's vec_add and vec_sub did, whatever the maps are."""

    shape = cj.AlgebraShape((2, 1))
    space_e = cj.ModuleSpace(shape, 2)
    space_g = cj.ModuleSpace(shape, 3)

    def f(self, x):
        """A plain callable from E to G: its images are in another space
        than its arguments."""
        blocks = tuple(np.concatenate([b, b[..., :n]], axis=-1) for b, n in zip(x.blocks, (2, 1)))
        return alg.ModuleVector._wrap(self.space_g, blocks)

    def stack(self, n=4):
        (xs,) = hb.sample_stacks(self.space_e, [2], n)
        return xs

    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_an_image_against_its_argument_is_refused(self, op):
        side = idn._f(D0) + D0 if op == "add" else idn._f(D0) - D0
        with pytest.raises(SpaceMismatch, match="vectors from different spaces"):
            values([side], self.f, (self.stack(),), space=self.space_e)
        # the oracle refuses it too
        _, nodes, calls, _ = idn._compile([side])
        with pytest.raises(SpaceMismatch, match="vectors from different spaces"):
            oracle_evaluate(nodes, calls, (self.stack(),), self.space_e, None, {"f": self.f})

    def test_images_of_one_map_add(self):
        xs = self.stack()
        (got,) = values([idn._f(D0) + idn._f(-D0)], self.f, (xs,), space=self.space_e)
        want = alg.vec_add(self.f(xs), self.f(alg.vec_neg(xs)))
        assert got.space == self.space_g
        assert [b.tobytes() for b in got.blocks] == [b.tobytes() for b in want.blocks]

    def test_an_image_of_another_algebra_is_not_acted_on(self):
        a = alg.validate_coefficient(alg.vec_scale(alg.unit(cj.AlgebraShape((2,))), 0.5))
        with pytest.raises(SpaceMismatch, match="not an element"):
            values([idn._A @ idn._f(D0)], self.f, (self.stack(),), space=self.space_e, a=a)

    def test_each_pair_of_sources_is_checked_once(self):
        # f(x) + x and f(x) - x read the same two sources: the first checks
        _, _, _, schedule = idn._compile([idn._f(D0) + D0, idn._f(D0) - D0, D0 + D0])
        checks = [step for step in schedule.steps if step[0] in ("add", "sub") and step[4]]
        assert [step[0] for step in checks] == ["add"]
