"""Registry shape, per-law classification, determinism, and replay."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

from ivhfss import _kernels_py as kernels
from ivhfss.elements import IVHFE
from ivhfss.errors import BudgetExceeded, SchemaError
from ivhfss.laws import CheckConfig, check_law, checker, generators, registry, replay, run_suite, suite_to_json
from ivhfss.laws.registry import _anything
from ivhfss.softsets import IVHFSoftSet

LAWS = {law.law_id: law for law in registry()}

SMALL = CheckConfig(random_trials=50)


def get(law_id):
    return LAWS[law_id]


class TestRegistry:
    def test_count_and_uniqueness(self):
        assert len(LAWS) == 54

    @pytest.mark.parametrize(
        "prefix,count",
        [
            ("P2.12.", 2),
            ("P3.5.", 6),
            ("P3.6.", 2),
            ("P3.7.", 4),
            ("P3.8.", 4),
            ("P3.9.", 4),
            ("P3.10.", 2),
            ("P3.11.", 2),
            ("P3.16.", 2),
            ("P3.17.", 2),
            ("P4.2.", 6),
            ("P4.3.", 6),
            ("P4.4.", 6),
            ("P4.5.", 6),
        ],
    )
    def test_per_group_counts(self, prefix, count):
        assert sum(1 for i in LAWS if i.startswith(prefix)) == count

    def test_element_laws_take_any_operands(self):
        # check_law does not re-validate random operands, and the random
        # stream validates soft operands only
        assert all(law.constraint is _anything for law in LAWS.values() if law.level == "element")

    def test_operand_counts(self):
        family = {law_id for law_id, law in LAWS.items() if law.operand_counts == (1, 2, 3)}
        assert family == {"P3.16.i", "P3.16.ii", "P3.17.i", "P3.17.ii"}
        assert all(law.operand_counts == (law.arity,) for law_id, law in LAWS.items() if law_id not in family)

    def test_private_regimes(self):
        private = {law_id for law_id, law in LAWS.items() if law.private_regime}
        assert private == {law_id for law_id, law in LAWS.items() if law.mode in ("sequence", "synchronized")}
        assert len(private) == 22

    def test_synchronized_sides_are_unsorted_elements(self):
        # the per-pair list as it is: 4 pairs, out of rank order, one repeated
        a, b = IVHFE(((0.1, 0.2), (0.7, 0.9))), IVHFE(((0.5, 0.5), (0.5, 0.5)))
        lhs, rhs = get("P4.2.i").build_raw((a, b))
        assert isinstance(lhs, IVHFE) and isinstance(rhs, IVHFE)
        assert rhs.pairs == kernels.operator_pairs("O1", a.pairs, b.pairs)
        assert len(rhs.pairs) == 4 and rhs.pairs != kernels.sort_element(rhs.pairs)

    def test_builders_are_replaceable_fields(self):
        # a profiler swaps both builders with dataclasses.replace
        config = CheckConfig(grid_step=1.0, random_trials=5)
        for law in LAWS.values():
            calls = []

            def spy(builder):
                def spied(ops):
                    calls.append(builder)
                    return builder(ops)

                return spied

            swapped = dataclasses.replace(law, build_raw=spy(law.build_raw), build_public=spy(law.build_public))
            report = check_law(swapped, config, allow_partial=True)
            assert law.build_raw in calls, law.law_id
            assert report == check_law(law, config, allow_partial=True), law.law_id

    def test_registered_predicates(self):
        assert get("P3.6.i").equality == "strict"
        assert get("P3.6.i").parameter_mode == "shared"
        assert get("P3.7.i").equality == "subset"
        assert get("P3.7.i").parameter_mode == "mixed"
        assert get("P3.10.i").equality == "equivalent"
        assert get("P3.11.i").equality == "strict"
        assert get("P3.11.i").parameter_mode == "mixed"


class TestIndividualLaws:
    @pytest.mark.parametrize(
        "law_id",
        ["P2.12.i", "P2.12.ii", "P3.6.i", "P3.6.ii", "P3.7.i", "P3.7.ii", "P3.17.i"],
    )
    def test_de_morgan_family_holds(self, law_id):
        assert check_law(get(law_id), SMALL).status == "holds"

    @pytest.mark.parametrize("i", ["i", "ii", "iii", "iv", "v", "vi"])
    def test_idempotence_and_bounds_hold(self, i):
        assert check_law(get(f"P3.5.{i}"), SMALL).status == "holds"

    @pytest.mark.parametrize("law_id", ["P3.8.iii", "P3.9.iii", "P3.10.i", "P3.10.ii"])
    def test_chained_lattice_laws_hold(self, law_id):
        assert check_law(get(law_id), SMALL).status == "holds"

    @pytest.mark.parametrize("law_id", ["P3.11.i", "P3.11.ii", "P3.7.iii", "P3.7.iv"])
    def test_refuted_inclusion_and_distributivity(self, law_id):
        report = check_law(get(law_id), SMALL)
        assert report.status == "violated"
        assert report.counterexample is not None

    @pytest.mark.parametrize("prop", ["P4.2", "P4.3", "P4.4", "P4.5"])
    def test_operator_props(self, prop):
        assert check_law(get(f"{prop}.i"), SMALL).status == "holds"
        assert check_law(get(f"{prop}.ii"), SMALL).status == "holds"
        for i in ("iii", "iv", "v", "vi"):
            report = check_law(get(f"{prop}.{i}"), SMALL)
            assert report.status == "violated", f"{prop}.{i}"


class TestCounterexamples:
    def test_all_violations_replay(self):
        for report in run_suite(SMALL):
            if report.counterexample is not None:
                assert replay(get(report.law_id), report.counterexample), report.law_id

    def test_known_operator_counterexample_replays(self):
        # the classic single-point refutation of ring-product absorption
        counterexample = {"operands": [[[0.5, 0.5]], [[0.0, 0.0]]]}
        assert replay(get("P4.2.iii"), counterexample)

    @pytest.mark.parametrize(
        "law_id,operands,message",
        [
            ("P4.2.iii", [[[0.5]], [[0.0, 0.0]]], "operand 1: element: malformed"),
            ("P3.5.i", [{"universe": ["h1"], "parameters": ["e1"], "values": {"e1": {"h1": 5}}}], "operand 1: cell e1/h1"),
            ("P3.5.i", [{"universe": ["h1"], "parameters": ["e1"]}], "operand 1: missing key 'values'"),
            ("P4.2.iii", [[[0.0, 0.0]], [[0.5, 1.5]]], "operand 2: element: endpoints"),
            ("P4.2.iii", [[[0.5, 0.5]]], "P4.2.iii needs a list of 2 operands"),
            ("P3.16.i", [], "1 or 2 or 3 operands"),
        ],
    )
    def test_malformed_counterexample_is_a_schema_error(self, law_id, operands, message):
        with pytest.raises(SchemaError, match=message):
            replay(get(law_id), {"operands": operands})

    def test_distributivity_counterexample_structure(self):
        report = check_law(get("P3.11.i"), SMALL)
        ce = report.counterexample
        assert set(ce) == {"operands", "lhs", "rhs"}
        assert len(ce["operands"]) == 3
        for op in ce["operands"]:
            assert {"universe", "parameters", "values"} <= set(op)

    def test_shrinking_reduces_seed_instance(self):
        report = check_law(get("P3.11.i"), SMALL)
        assert report.shrink_steps > 0
        # shrunk counterexample is much smaller than the seed triple
        sizes = [
            sum(len(cell) for row in op["values"].values() for cell in row.values())
            for op in report.counterexample["operands"]
        ]
        assert sum(sizes) <= 8


def _fraction_cell(cell):
    return tuple((Fraction(lo), Fraction(up)) for lo, up in cell)


def _as_fractions(op):
    """The operand with every endpoint an exact ``Fraction`` of its float."""
    if isinstance(op, IVHFE):
        return IVHFE(_fraction_cell(op.pairs))
    return IVHFSoftSet(op.universe, op.parameters, {key: _fraction_cell(cell) for key, cell in op.pairs.items()})


def _endpoint_types(side):
    """The endpoint types of a law side: an element or a soft set."""
    cells = side.pairs.values() if isinstance(side, IVHFSoftSet) else [side.pairs]
    return {type(x) for cell in cells for pair in cell for x in pair}


class TestExactCounterexamples:
    def test_counterexamples_violate_in_exact_arithmetic(self):
        # The element kernels hold no float constant, so on Fraction
        # endpoints every side is computed exactly and tolerance 0 compares
        # true values: a reported violation is not a rounding artefact.
        reports = run_suite(CheckConfig(grid_step=0.5, random_trials=300, seed=9001))
        found = [r for r in reports if r.counterexample is not None]
        assert len(found) == 20
        for report in found:
            law = get(report.law_id)
            ops = tuple(_as_fractions(o) for o in checker._operands_from_json(law, report.counterexample))
            for lhs, rhs in (law.build_raw(ops), law.build_public(ops)):
                assert _endpoint_types(lhs) | _endpoint_types(rhs) == {Fraction}, report.law_id
            assert checker._violates(law, ops, 0.0), report.law_id
            assert checker._public_violates(law, ops, 0.0), report.law_id


class TestDeterminism:
    def test_same_config_same_reports(self):
        cfg = CheckConfig(random_trials=30, seed=99)
        a = json.dumps(suite_to_json(run_suite(cfg)), sort_keys=True)
        b = json.dumps(suite_to_json(run_suite(cfg)), sort_keys=True)
        assert a == b

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CheckConfig(grid_step=0.0)
        with pytest.raises(ValueError):
            CheckConfig(random_trials=0)
        with pytest.raises(ValueError):
            CheckConfig(grid_step=0.3)  # the grid would stop at 0.9
        for step in (1e-310, 5e-324):  # 1/step overflows to inf
            with pytest.raises(ValueError, match="too small"):
                CheckConfig(grid_step=step)
        for step in (0.1, 0.2, 1 / 3, 1.0):
            CheckConfig(grid_step=step)


class TestEnumerationBudget:
    @pytest.mark.parametrize("step,size", [(0.25, 2), (0.5, 3), (1.0, 3), (0.1, 2)])
    def test_count_matches_grid(self, step, size):
        assert generators.grid_element_count(step, size) == len(generators.grid_elements(step, size))

    @pytest.fixture
    def no_grid(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(generators, "grid_elements", refuse)
        monkeypatch.setattr(generators, "grid_intervals", refuse)

    @pytest.mark.parametrize("law_id", ["P2.12.i", "P3.5.i"])  # element, one-operand soft
    def test_fine_step_is_refused_before_any_element_is_built(self, no_grid, law_id):
        # 13,274,127 elements at step 0.01
        with pytest.raises(BudgetExceeded):
            check_law(get(law_id), CheckConfig(grid_step=0.01, random_trials=1))

    def test_tiny_step_skips_the_grid_when_partial(self, no_grid):
        config = CheckConfig(grid_step=1e-300, random_trials=1)
        assert check_law(get("P2.12.i"), config, allow_partial=True).trials_run == 1


class TestOneAlgebra:
    def test_sorted_sequence_ops_equal_public_aligned(self):
        # the sequence regime is the aligned one without the final re-sort
        import random

        from ivhfss import _kernels_py as kernels
        from ivhfss import soft_intersection, soft_union
        from ivhfss.laws.evaluate import SequenceSoftSets
        from ivhfss.laws.generators import random_soft, snap_points

        sequence = SequenceSoftSets()
        rng = random.Random(7)
        points = snap_points(0.25)
        for _ in range(50):
            f = random_soft(rng, ("e1", "e2"), ("h1", "h2"), 0.25, 2, points if rng.random() < 0.5 else None)
            g = random_soft(rng, ("e2", "e3"), ("h1", "h2"), 0.25, 2, points if rng.random() < 0.5 else None)
            for regime, public in (
                (sequence.union, soft_union),
                (sequence.intersection, soft_intersection),
            ):
                got, want = regime(f, g), public(f, g)
                assert got.parameters == want.parameters
                assert {k: kernels.sort_element(v) for k, v in got.pairs.items()} == want.pairs

    def test_element_canonicalization(self):
        from ivhfss import canonicalize, construct_interval, element_of

        mu = element_of((0.5, 0.6), (0.1, 0.9))
        assert mu.pairs == ((0.1, 0.9), (0.5, 0.6))
        assert canonicalize([construct_interval(0.5, 0.6), construct_interval(0.1, 0.9)]) == mu
        assert [iv.as_tuple() for iv in mu.intervals] == list(mu.pairs)


# The random stream as it was first written, with the public Random methods
# (randint, sample, random).  The generators draw from getrandbits directly;
# these oracles pin that they make exactly the same draws.

_rng_for = generators.rng_for


def _oracle_pairs(rng, step, max_size, snap):
    def interval():
        a, b = rng.random(), rng.random()
        if a > b:
            a, b = b, a
        if snap:
            a = min(1.0, round(round(a / step) * step, 12))
            b = min(1.0, round(round(b / step) * step, 12))
            if a > b:
                a, b = b, a
        return (a, b)

    size = rng.randint(1, max_size)
    return kernels.sort_element([interval() for _ in range(size)])


def _oracle_param_sets(rng, count, max_parameters, shared):
    pool = tuple(f"e{i + 1}" for i in range(max_parameters))
    if shared:
        size = rng.randint(1, len(pool))
        chosen = tuple(sorted(rng.sample(pool, size)))
        return [chosen] * count
    out = []
    for _ in range(count):
        size = rng.randint(1, len(pool))
        out.append(tuple(sorted(rng.sample(pool, size))))
    return out


def _oracle_stream(law, rng, step):
    max_size, max_parameters, max_objects = checker.MAX_ELEMENT_SIZE, checker.MAX_PARAMETERS, checker.MAX_OBJECTS
    while True:
        snap = rng.random() < 0.5
        if law.level == "element":
            yield tuple(IVHFE(_oracle_pairs(rng, step, max_size, snap)) for _ in range(law.arity))
            continue
        count = rng.randint(1, law.arity) if law.law_id.startswith(("P3.16", "P3.17")) else law.arity
        universe = tuple(f"h{i + 1}" for i in range(rng.randint(1, max_objects)))
        for _ in range(50):
            param_sets = _oracle_param_sets(rng, count, max_parameters, law.parameter_mode == "shared")
            candidate = tuple(
                IVHFSoftSet(
                    universe,
                    ps,
                    {(e, h): _oracle_pairs(rng, step, max_size, snap) for e in ps for h in universe},
                )
                for ps in param_sets
            )
            if checker._valid(law, candidate):
                yield candidate
                break


def _exact(ops):
    # repr tells -0.0 from 0.0; the cell order of a soft set is compared too
    return repr([
        o.pairs if isinstance(o, IVHFE) else (o.universe, o.parameters, list(o.pairs.items()))
        for o in ops
    ])


class TestRandomDraws:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_below_is_randrange(self, n):
        ours, public = random.Random(n), random.Random(n)
        for _ in range(200):
            assert generators.below(ours, n) == public.randrange(n)
        assert ours.getstate() == public.getstate()

    @staticmethod
    def assert_stream_is_the_oracle(config, monkeypatch):
        rngs = []

        def recording_rng_for(*args):
            rngs.append(_rng_for(*args))
            return rngs[-1]

        monkeypatch.setattr(generators, "rng_for", recording_rng_for)
        for law in LAWS.values():
            got = itertools.islice(checker._random_stream(law, config), 300)
            oracle_rng = _rng_for(config.seed, law.law_id)
            want = itertools.islice(_oracle_stream(law, oracle_rng, config.grid_step), 300)
            for i, (a, b) in enumerate(itertools.zip_longest(got, want)):
                assert a is not None and b is not None and _exact(a) == _exact(b), (law.law_id, i)
            assert rngs[-1].getstate() == oracle_rng.getstate(), law.law_id

    @pytest.mark.parametrize("seed", [52417, 9001, 1, 7])
    def test_random_stream_matches_public_draws(self, seed, monkeypatch):
        self.assert_stream_is_the_oracle(CheckConfig(seed=seed), monkeypatch)

    # the default step is 0.25; these pin the snap table on other grids
    @pytest.mark.parametrize("step", [0.5, 1 / 3, 0.1, 1.0])
    def test_random_stream_matches_public_draws_at_grid_step(self, step, monkeypatch):
        self.assert_stream_is_the_oracle(CheckConfig(grid_step=step), monkeypatch)

    @pytest.mark.parametrize("step", [0.1, 1 / 3, 0.25, 1 / (generators.SNAP_TABLE_MAX - 1)])
    def test_snap_table_is_the_arithmetic_snap(self, step):
        points = generators.snap_points(step)
        assert isinstance(points, list) and points[-1] == 1.0
        rng = random.Random(7)
        for x in [0.0, step / 2, 1 - step / 2, 1 - 1e-16] + [rng.random() for _ in range(2000)]:
            assert points[round(x / step)] == min(1.0, round(round(x / step) * step, 12)), x

    @pytest.mark.parametrize("step", [1e-300, 1 / generators.SNAP_TABLE_MAX])
    def test_fine_step_builds_no_snap_table(self, step):
        # at 1e-300 a table would hold 1e300 points
        points = generators.snap_points(step)
        assert not isinstance(points, list)
        for i in (0, 1, 3, 12345, round(1.0 / step)):
            assert points[i] == min(1.0, round(i * step, 12))


class TestGridCoveredTrials:
    """A holding element law's snapped random trials repeat grid tuples."""

    @pytest.mark.parametrize("step", [0.25, 0.5])
    def test_snapped_operands_are_grid_elements(self, step):
        law = get("P4.2.i")
        config = CheckConfig(grid_step=step, random_trials=20_000)
        grid = {e.pairs for e in generators.grid_elements(step, checker.MAX_ELEMENT_SIZE)}
        marked = checker._random_stream(law, config, grid_checked=True)
        drawn = checker._random_stream(law, config)
        covered = 0
        for mark, ops in zip(marked, drawn, strict=True):
            if mark is None:
                covered += 1
                assert all(o.pairs in grid for o in ops), ops
            else:
                assert _exact(mark) == _exact(ops)
        assert 9_000 < covered < 11_000

    def test_covered_trials_are_counted_not_evaluated(self, monkeypatch):
        law = get("P2.12.i")
        config = CheckConfig(grid_step=0.5, random_trials=400)
        covered = sum(ops is None for ops in checker._random_stream(law, config, grid_checked=True))
        evaluated = []
        violates = checker._violates

        def counting(*args):
            evaluated.append(args)
            return violates(*args)

        monkeypatch.setattr(checker, "_violates", counting)
        report = check_law(law, config)
        grid = generators.grid_element_count(0.5, checker.MAX_ELEMENT_SIZE) ** 2
        assert report.status == "holds" and report.exhaustive
        assert report.trials_run == grid + 400
        assert len(evaluated) == grid + 400 - covered and covered > 100
