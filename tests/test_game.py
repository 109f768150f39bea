import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from honeyflow.errors import ShapeError, ValidationError
from honeyflow.game import (
    MAX_HONEY_FLOW_BOUND,
    MAX_STRATEGY_SIZE,
    MAX_TYPES,
    NO_ATTACK,
    TIE_TOL,
    AttackerAction,
    DefenderStrategy,
    GameSpec,
    VulnerabilityType,
    attacker_utility,
    defender_utility,
    first_best,
    spec_from_dict,
    spec_to_dict,
    summarize,
    to_json,
    utilities,
)
from honeyflow.strategies import AttackerModel, evaluate_matchup

ATTACK_0 = AttackerAction.attack(0)
ATTACK_1 = AttackerAction.attack(1)


def _random_spec(rng: np.random.Generator, max_types: int = 3) -> GameSpec:
    n = int(rng.integers(1, max_types + 1))
    types = []
    for i in range(n):
        real_v = float(rng.uniform(-1.0, 2.0))
        honey_v = float(rng.uniform(-2.0, real_v))
        types.append(
            VulnerabilityType(
                id=i,
                attacker_real_value=real_v,
                attacker_honey_value=honey_v,
                real_flow_count=int(rng.integers(0, 8)),
                honey_flow_bound=int(rng.integers(0, 5)),
                honey_flow_cost=float(rng.uniform(0.0, 0.3)),
            )
        )
    return GameSpec(tuple(types))


def _random_strategy(rng: np.random.Generator, spec: GameSpec) -> DefenderStrategy:
    marginals = []
    for t in spec.types:
        w = rng.random(t.honey_flow_bound + 1) + 1e-3
        marginals.append(w / w.sum())
    return DefenderStrategy(tuple(marginals))


class TestValidation:
    """A GameSpec checks its types when it is built."""

    def test_worked_example_accepted(self, worked_example):
        assert GameSpec(worked_example.types) == worked_example

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError, match="type 0.*cost"):
            GameSpec((VulnerabilityType(0, 1.0, 0.0, 1, 1, -1.0),))

    def test_honey_value_above_real_rejected(self):
        with pytest.raises(ValidationError, match="honey value"):
            GameSpec((VulnerabilityType(0, 1.0, 2.0, 1, 1, 0.1),))

    def test_nonconsecutive_ids_rejected(self):
        with pytest.raises(ValidationError, match="consecutive"):
            GameSpec(
                (
                    VulnerabilityType(0, 1.0, 0.0, 1, 1, 0.1),
                    VulnerabilityType(2, 1.0, 0.0, 1, 1, 0.1),
                )
            )

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError, match="real_flow_count"):
            GameSpec((VulnerabilityType(0, 1.0, 0.0, -1, 1, 0.1),))
        with pytest.raises(ValidationError, match="honey_flow_bound"):
            GameSpec((VulnerabilityType(0, 1.0, 0.0, 1, -1, 0.1),))

    def test_real_flow_count_must_convert_to_a_float(self):
        with pytest.raises(ValidationError, match="type 0: real_flow_count is too large"):
            GameSpec((VulnerabilityType(0, 1.0, 0.0, 10**400, 1, 0.1),))
        for count in (10**20, 10**300):  # beyond int64, still a finite float
            GameSpec((VulnerabilityType(0, 1.0, 0.0, count, 1, 0.1),))

    def test_empty_game_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            GameSpec(())

    def test_replace_checks_the_new_types(self, worked_example):
        bad = dataclasses.replace(worked_example.types[0], honey_flow_cost=-1.0)
        with pytest.raises(ValidationError, match="type 0: honey_flow_cost"):
            dataclasses.replace(worked_example, types=(bad,) + worked_example.types[1:])

    @pytest.mark.parametrize(
        "bad, named",
        [
            (VulnerabilityType(0, 10.0, -5.0, 5, 2, math.nan), "honey_flow_cost must be finite"),
            (VulnerabilityType(0, 1.0, 1.25, 5, 2, 1.0), "honey value 1.25 exceeds real value"),
        ],
        ids=["nan-cost", "honey-above-real"],
    )
    def test_invalid_type_never_reaches_a_utility(self, worked_example, bad, named):
        with pytest.raises(ValidationError, match=named):
            spec = GameSpec((bad,) + worked_example.types[1:])
            strategy = DefenderStrategy.from_counts(spec, [1, 1])
            defender_utility(spec, strategy, ATTACK_0)
            attacker_utility(spec, strategy, ATTACK_0)

    def test_strategy_shape_not_checked_at_construction(self, worked_example):
        # Length mismatches surface later, in the utility operations.
        bad = DefenderStrategy((np.array([1.0]), np.array([1.0])))
        with pytest.raises(ShapeError):
            summarize(worked_example, bad)

    def test_attackable_set_excludes_flowless_types(self):
        spec = GameSpec(
            (
                VulnerabilityType(0, 1.0, 0.0, 0, 0, 0.1),
                VulnerabilityType(1, 1.0, 0.0, 3, 0, 0.1),
            )
        )
        assert spec.attackable_ids == (1,)


# Gaps below a best value: just under, at and just over TIE_TOL, and wider.
_GAPS = st.sampled_from(
    [0.0, -0.0, math.nextafter(TIE_TOL, 0.0), TIE_TOL, math.nextafter(TIE_TOL, 1.0),
     TIE_TOL / 2, 2 * TIE_TOL, 1.0]
)
_TIE_VALUES = st.lists(
    st.one_of(
        st.tuples(st.floats(-1e300, 1e300, allow_nan=False), _GAPS).map(lambda bg: bg[0] - bg[1]),
        st.builds(lambda g: 1.0 - g, _GAPS),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, TIE_TOL, -TIE_TOL]),
    ),
    min_size=1,
    max_size=7,
)


class TestAttackerChoices:
    """GameSpec.actions orders the attacker's choices and first_best breaks
    ties in that order."""

    SPEC = GameSpec(
        (
            VulnerabilityType(0, 1.0, 0.0, 2, 1, 0.1),
            VulnerabilityType(1, 1.0, 0.0, 0, 0, 0.1),
            VulnerabilityType(2, 1.0, 0.0, 0, 3, 0.1),
        )
    )

    def test_actions_skip_unattackable_types_and_end_with_no_attack(self):
        spec = self.SPEC
        assert spec.actions == (AttackerAction.attack(0), AttackerAction.attack(2), NO_ATTACK)

    def test_actions_are_built_once_with_the_spec(self):
        """The solver and the attackers read them many times per game."""
        spec = self.SPEC
        assert spec.attackable_ids is spec.attackable_ids and spec.attackable_ids == (0, 2)
        assert spec.actions is spec.actions
        assert "actions" not in repr(spec)
        assert spec == GameSpec(spec.types) and hash(spec) == hash(GameSpec(spec.types))

    @given(values=_TIE_VALUES, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_first_best_matches_the_former_tie_rules(self, values, data):
        """Equal to the zip form the rational attacker used and to the
        filtered form the solver used over its feasible actions."""
        actions = [AttackerAction.attack(i) for i in range(len(values) - 1)] + [NO_ATTACK]
        best = max(values)
        zipped = next(a for a, v in zip(actions, values) if v >= best - TIE_TOL)
        assert first_best(actions, values) == zipped

        keep = data.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
        feasible = {a: v for a, v, k in zip(actions, values, keep) if k}
        if feasible:
            best = max(feasible.values())
            filtered = next(
                a for a in actions if a in feasible and feasible[a] >= best - TIE_TOL
            )
            assert first_best(list(feasible), list(feasible.values())) == filtered


class TestRealAttackProbability:
    def test_point_mass_three_honey_flows(self, worked_example):
        strategy = DefenderStrategy(
            (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0]))
        )
        assert summarize(worked_example, strategy)[0][1] == pytest.approx(
            5 / 8, abs=1e-12
        )

    def test_no_honey_flows_gives_one(self, worked_example):
        strategy = DefenderStrategy(
            (np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))
        )
        assert summarize(worked_example, strategy)[0][0] == 1.0

    def test_hand_built_mixture(self, worked_example, worked_example_strategy):
        # 0.5 * 5/6 + 0.5 * 5/7 = 65/84
        hit, _ = summarize(worked_example, worked_example_strategy)
        assert hit[0] == pytest.approx(65 / 84, abs=1e-12)

    def test_zero_real_flows_gives_zero(self):
        spec = GameSpec((VulnerabilityType(0, 1.0, 0.0, 0, 2, 0.1),))
        strategy = DefenderStrategy((np.array([0.2, 0.3, 0.5]),))
        assert summarize(spec, strategy)[0][0] == 0.0

    def test_shape_error(self, worked_example):
        bad = DefenderStrategy((np.array([1.0]), np.array([1.0, 0.0, 0.0, 0.0])))
        with pytest.raises(ShapeError, match="type 0"):
            summarize(worked_example, bad)


class TestTables:
    """Each type's p(j) and u(j), and the counts 0..max H, tabulated once
    when the spec is built."""

    @pytest.mark.parametrize(
        "vt, hit",
        [
            (VulnerabilityType(0, 3.0, -2.0, 0, 3, 0.1), [0.0, 0.0, 0.0, 0.0]),
            (VulnerabilityType(0, 3.0, -2.0, 7, 0, 0.1), [1.0]),
            (VulnerabilityType(0, 3.0, -2.0, 4, 2, 0.1), [1.0, 4 / 5, 4 / 6]),
            (VulnerabilityType(0, 3.0, -2.0, 10**300, 2, 0.1), [1.0, 1.0, 1.0]),
        ],
        ids=["no-real-flows", "no-honey-bound", "small", "huge-real-count"],
    )
    def test_tables_equal_the_closed_forms(self, vt, hit):
        spec = GameSpec((vt,))
        p = np.array(hit)
        assert spec.hit_probabilities[0].tolist() == hit
        assert spec.attack_values[0].tolist() == (p * 3.0 + (1.0 - p) * -2.0).tolist()
        assert spec.honey_counts.tolist() == list(range(vt.honey_flow_bound + 1))

    def test_counts_reach_the_largest_bound(self, worked_example):
        assert worked_example.honey_counts.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert worked_example.honey_counts.dtype == np.float64

    def test_tables_are_read_only(self, worked_example):
        tables = (*worked_example.hit_probabilities, *worked_example.attack_values)
        for table in (*tables, worked_example.honey_counts):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.5

    def test_equal_specs_compare_and_hash_equal(self, worked_example):
        twin = GameSpec(tuple(worked_example.types))
        assert twin == worked_example
        assert hash(twin) == hash(worked_example)
        assert repr(twin) == f"GameSpec(types={worked_example.types!r})"

    def test_replace_rebuilds_the_tables(self, worked_example):
        dearer = dataclasses.replace(worked_example.types[0], attacker_real_value=20.0)
        spec = dataclasses.replace(worked_example, types=(dearer,) + worked_example.types[1:])
        p = spec.hit_probabilities[0]
        assert spec.attack_values[0].tolist() == (p * 20.0 + (1.0 - p) * -5.0).tolist()
        assert spec.attack_values[0].tolist() != worked_example.attack_values[0].tolist()
        assert spec.attack_values[1] is not worked_example.attack_values[1]

    def test_replace_rebuilds_the_counts(self, worked_example):
        wider = dataclasses.replace(worked_example.types[0], honey_flow_bound=5)
        spec = dataclasses.replace(worked_example, types=(wider,) + worked_example.types[1:])
        assert spec.honey_counts.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert spec == GameSpec((wider,) + worked_example.types[1:])
        assert spec != worked_example

    @pytest.mark.parametrize("cost", [0.0, 1e-4, 2.5, 1e300])
    def test_with_cost_sets_every_cost_and_shares_the_tables(self, worked_example, cost):
        spec = worked_example.with_cost(cost)
        rebuilt = GameSpec(
            tuple(dataclasses.replace(t, honey_flow_cost=cost) for t in worked_example.types)
        )
        assert spec == rebuilt and repr(spec) == repr(rebuilt)
        for name in ("hit_probabilities", "attack_values", "honey_counts",
                     "attackable_ids", "actions"):
            assert getattr(spec, name) is getattr(worked_example, name), name
        assert [a.tolist() for a in spec.attack_values] == [
            a.tolist() for a in rebuilt.attack_values
        ]

    @pytest.mark.parametrize(
        "cost, message",
        [
            (math.nan, "type 0: honey_flow_cost must be finite, got nan"),
            (math.inf, "type 0: honey_flow_cost must be finite, got inf"),
            (-1.0, "type 0: honey_flow_cost must be nonnegative, got -1.0"),
        ],
    )
    def test_with_cost_rejects_what_building_rejects(self, worked_example, cost, message):
        types = tuple(dataclasses.replace(t, honey_flow_cost=cost) for t in worked_example.types)
        with pytest.raises(ValidationError) as built:
            GameSpec(types)
        with pytest.raises(ValidationError) as replaced:
            worked_example.with_cost(cost)
        assert str(replaced.value) == str(built.value) == message

    def test_summarize_builds_no_count_array(
        self, monkeypatch, worked_example, worked_example_strategy
    ):
        """The expected honey count reads the spec's counts; summarize
        builds no np.arange of its own."""
        calls = []
        arange = np.arange

        def counted(*args, **kwargs):
            calls.append(args)
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", counted)
        assert summarize(worked_example, worked_example_strategy)[1] == 3.0
        assert calls == []


class TestHoneyCost:
    def test_hand_built_strategy_costs_three(self, worked_example, worked_example_strategy):
        # 0.5*1 + 0.5*2 for type 0 at cost 1, plus 3 flows at cost 0.5
        assert summarize(worked_example, worked_example_strategy)[1] == pytest.approx(
            3.0, abs=1e-12
        )

    def test_no_honey_flows_free(self, worked_example):
        strategy = DefenderStrategy.from_counts(worked_example, [0, 0])
        assert summarize(worked_example, strategy)[1] == 0.0

    def test_single_flow_unit_cost(self):
        spec = GameSpec((VulnerabilityType(0, 1.0, 0.0, 1, 1, 0.1),))
        strategy = DefenderStrategy((np.array([0.0, 1.0]),))
        assert summarize(spec, strategy)[1] == pytest.approx(0.1, abs=1e-12)


class TestUtilities:
    def test_hand_built_defender_value(self, worked_example, worked_example_strategy):
        assert defender_utility(
            worked_example, worked_example_strategy, ATTACK_1
        ) == pytest.approx(-11.75, abs=1e-9)

    def test_hand_built_attacker_value(self, worked_example, worked_example_strategy):
        assert attacker_utility(
            worked_example, worked_example_strategy, ATTACK_1
        ) == pytest.approx(8.75, abs=1e-9)

    def test_attack_on_type_one(self, worked_example, worked_example_strategy):
        # 65/84 * 10 + 19/84 * (-5) = 555/84
        assert attacker_utility(
            worked_example, worked_example_strategy, ATTACK_0
        ) == pytest.approx(555 / 84, abs=1e-9)

    def test_no_attack_pays_attacker_nothing(self, worked_example, worked_example_strategy):
        assert attacker_utility(worked_example, worked_example_strategy, NO_ATTACK) == 0.0

    def test_no_attack_still_costs_defender(self, worked_example, worked_example_strategy):
        assert defender_utility(
            worked_example, worked_example_strategy, NO_ATTACK
        ) == pytest.approx(-3.0, abs=1e-12)

    def test_no_deception_defender_pays_full_real_value(self, worked_example):
        strategy = DefenderStrategy.from_counts(worked_example, [0, 0])
        assert defender_utility(worked_example, strategy, ATTACK_1) == pytest.approx(
            -20.0, abs=1e-12
        )

    def test_zero_defender_value_is_positive_zero(self):
        """The defender's value negates each attack value before the cost
        is taken off. Negating the attacker's sum would give -0.0 here:
        one honey flow beside one real flow makes p = 1/2, and 1/2 * 1 +
        1/2 * -1 is +0.0."""
        spec = GameSpec((VulnerabilityType(0, 1.0, -1.0, 1, 1, 0.0),))
        summary = summarize(spec, DefenderStrategy.from_counts(spec, [1]))
        assert summary == ((0.5,), 0.0)
        defender, attacker = utilities(spec, summary, ATTACK_0)
        assert (repr(defender), repr(attacker)) == ("0.0", "0.0")


class TestMixedAttacker:
    """The uniform attacker of ``evaluate_matchup``: a mix of pure attacks."""

    def test_point_mass_reduces_to_pure(self):
        """With one attackable type the uniform attacker plays it for sure."""
        spec = GameSpec(
            (
                VulnerabilityType(0, 10.0, -5.0, 0, 0, 1.0),
                VulnerabilityType(1, 20.0, -10.0, 5, 3, 0.5),
            )
        )
        summary = summarize(spec, DefenderStrategy.from_counts(spec, [0, 3]))
        result = evaluate_matchup(spec, summary, AttackerModel.UNIFORM_RANDOM)
        assert result.attacker_behavior == {ATTACK_1: 1.0}
        assert (result.defender_value, result.attacker_value) == utilities(
            spec, summary, ATTACK_1
        )
        assert result.defender_value == pytest.approx(-10.25, abs=1e-9)
        assert result.attacker_value == pytest.approx(8.75, abs=1e-9)

    def test_uniform_matches_mean_of_pure_values(
        self, worked_example, worked_example_strategy
    ):
        summary = summarize(worked_example, worked_example_strategy)
        result = evaluate_matchup(worked_example, summary, AttackerModel.UNIFORM_RANDOM)
        d0 = defender_utility(worked_example, worked_example_strategy, ATTACK_0)
        d1 = defender_utility(worked_example, worked_example_strategy, ATTACK_1)
        a0 = attacker_utility(worked_example, worked_example_strategy, ATTACK_0)
        a1 = attacker_utility(worked_example, worked_example_strategy, ATTACK_1)
        assert result.defender_value == pytest.approx((d0 + d1) / 2, abs=1e-9)
        assert result.attacker_value == pytest.approx((a0 + a1) / 2, abs=1e-9)


class TestInvariants:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_attack_component_zero_sum(self, seed):
        rng = np.random.default_rng(seed)
        spec = _random_spec(rng)
        strategy = _random_strategy(rng, spec)
        cost = summarize(spec, strategy)[1]
        for i in spec.attackable_ids:
            action = AttackerAction.attack(i)
            total = defender_utility(spec, strategy, action) + attacker_utility(
                spec, strategy, action
            )
            assert total == pytest.approx(-cost, abs=1e-9)

    @given(st.integers(0, 10**6), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_utilities_linear_in_strategy(self, seed, alpha):
        rng = np.random.default_rng(seed)
        spec = _random_spec(rng)
        s1 = _random_strategy(rng, spec)
        s2 = _random_strategy(rng, spec)
        blended = DefenderStrategy(
            tuple(alpha * a + (1 - alpha) * b for a, b in zip(s1.marginals, s2.marginals))
        )
        actions = [AttackerAction.attack(i) for i in spec.attackable_ids] + [NO_ATTACK]
        for action in actions:
            for utility in (defender_utility, attacker_utility):
                expected = alpha * utility(spec, s1, action) + (1 - alpha) * utility(
                    spec, s2, action
                )
                assert utility(spec, blended, action) == pytest.approx(
                    expected, abs=1e-9
                )

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_hit_probability_decreases_with_honey_count(self, seed):
        rng = np.random.default_rng(seed)
        real = int(rng.integers(1, 10))
        bound = int(rng.integers(1, 6))
        spec = GameSpec((VulnerabilityType(0, 1.0, 0.0, real, bound, 0.1),))
        probs = [
            summarize(spec, DefenderStrategy.from_counts(spec, [j]))[0][0]
            for j in range(bound + 1)
        ]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_honey_cost_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        spec = _random_spec(rng, max_types=3)
        strategy = _random_strategy(rng, spec)
        perm = rng.permutation(len(spec.types))
        permuted_spec = GameSpec(
            tuple(
                VulnerabilityType(
                    id=pos,
                    attacker_real_value=spec.types[i].attacker_real_value,
                    attacker_honey_value=spec.types[i].attacker_honey_value,
                    real_flow_count=spec.types[i].real_flow_count,
                    honey_flow_bound=spec.types[i].honey_flow_bound,
                    honey_flow_cost=spec.types[i].honey_flow_cost,
                )
                for pos, i in enumerate(perm)
            )
        )
        permuted_strategy = DefenderStrategy(
            tuple(strategy.marginals[i] for i in perm)
        )
        assert summarize(permuted_spec, permuted_strategy)[1] == pytest.approx(
            summarize(spec, strategy)[1], abs=1e-9
        )


class TestJsonSchema:
    def test_round_trip(self, worked_example):
        assert spec_from_dict(spec_to_dict(worked_example)) == worked_example

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown top-level"):
            spec_from_dict({"types": [], "extra": 1})

    def test_types_object_rejected(self, worked_example):
        """A JSON object of valid types is a collection but not a list."""
        payload = {"types": {"x": spec_to_dict(worked_example)["types"][0]}}
        with pytest.raises(ValidationError, match='"types" must be a list of type objects'):
            spec_from_dict(payload)

    def test_unknown_type_field_rejected(self, worked_example):
        payload = spec_to_dict(worked_example)
        payload["types"][0]["surprise"] = True
        with pytest.raises(ValidationError, match="unknown fields"):
            spec_from_dict(payload)

    def test_missing_field_rejected(self, worked_example):
        payload = spec_to_dict(worked_example)
        del payload["types"][0]["cost_per_flow"]
        with pytest.raises(ValidationError, match="missing fields"):
            spec_from_dict(payload)

    def test_non_integer_flows_rejected(self, worked_example):
        payload = spec_to_dict(worked_example)
        payload["types"][0]["real_flows"] = 5.5
        with pytest.raises(ValidationError, match="integer"):
            spec_from_dict(payload)

    def test_invariants_enforced_on_load(self, worked_example):
        payload = spec_to_dict(worked_example)
        payload["types"][0]["cost_per_flow"] = -2.0
        with pytest.raises(ValidationError):
            spec_from_dict(payload)

    def test_type_count_capped_before_types_are_built(self, worked_example):
        payload = spec_to_dict(worked_example)
        payload["types"] = [payload["types"][0]] * MAX_TYPES + [{"bad": 1}]
        with pytest.raises(ValidationError, match=f"{MAX_TYPES + 1} types, more than the cap"):
            spec_from_dict(payload)

    def test_strategy_size_capped(self, worked_example):
        """The honey bounds + 1 may add up to MAX_STRATEGY_SIZE, no more;
        a single type at MAX_HONEY_FLOW_BOUND stays far below it."""
        base = spec_to_dict(worked_example)["types"][0]
        spec_from_dict({"types": [dict(base, honey_flow_bound=MAX_HONEY_FLOW_BOUND)]})
        eighth = dict(base, honey_flow_bound=MAX_STRATEGY_SIZE // 8 - 1)
        spec_from_dict({"types": [eighth] * 8})
        over = dict(base, honey_flow_bound=MAX_STRATEGY_SIZE // 8)
        with pytest.raises(
            ValidationError,
            match=f"add up to {MAX_STRATEGY_SIZE + 1}, more than the cap of {MAX_STRATEGY_SIZE}",
        ):
            spec_from_dict({"types": [eighth] * 7 + [over]})


# Finite floats, with the edge cases of float repr named explicitly.
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308, 3.0, -2.0**60, 1e16]
)
TEXT = st.text(max_size=6) | st.sampled_from(
    ["é", "\u2028", "\ud800", '"\\/', "\n\t\x00", "日本"]
)
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | TEXT
PAYLOADS = st.recursive(
    SCALARS | st.lists(FLOATS, max_size=6),
    lambda kids: (
        st.lists(kids, max_size=4)
        | st.lists(kids, max_size=3).map(tuple)
        | st.dictionaries(TEXT, kids, max_size=4)
    ),
    max_leaves=20,
)

# 1-D float64 rows shaped like a strategy's marginals: mostly +0.0 (the
# fill), with a few entries drawn from FLOATS, including -0.0.
ARRAYS = hnp.arrays(np.float64, st.integers(0, 40), elements=FLOATS, fill=st.just(0.0))
ARRAY_PAYLOADS = st.recursive(
    SCALARS | ARRAYS,
    lambda kids: (
        st.lists(kids, max_size=4)
        | st.lists(kids, max_size=3).map(tuple)
        | st.dictionaries(TEXT, kids, max_size=4)
    ),
    max_leaves=12,
)


def _as_lists(payload):
    """``payload`` with every array replaced by its ``tolist()``."""
    if isinstance(payload, np.ndarray):
        return payload.tolist()
    if isinstance(payload, dict):
        return {k: _as_lists(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_as_lists(v) for v in payload]
    return payload


class TestToJson:
    @settings(max_examples=200, deadline=None)
    @given(payload=PAYLOADS)
    @example(payload={})
    @example(payload=[])
    @example(payload={"a": [], "b": {}, "c": ()})
    @example(payload=[1.0, "x", 2.0])
    @example(payload=[True, None, 3, -0.0])
    @example(payload=[[0.25, 0.75], [1.0]])
    @example(payload={"types": [{"k": 1e308, "é": 5e-324}]})
    def test_bytes_match_json_dumps(self, payload):
        assert to_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(payload=ARRAY_PAYLOADS)
    @example(payload=np.zeros(0))
    @example(payload=np.zeros(1))
    @example(payload=np.zeros(7))
    @example(payload=np.array([-0.0]))
    @example(payload=np.array([0.0, 5e-324, 0.0, 0.0, 1e308, -0.0]))
    @example(payload=[1.0, np.array([0.0, 0.5, 0.5])])
    @example(payload={"strategy": (np.array([0.25, 0.75, 0.0]), np.array([0.0, 0.0, 1.0]))})
    def test_arrays_match_their_lists(self, payload):
        expected = json.dumps(_as_lists(payload), indent=2, sort_keys=True) + "\n"
        assert to_json(payload) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda x: x,
            lambda x: [1.0, x],
            lambda x: {"a": {"b": x}},
            lambda x: np.array([0.0, x, 0.0]),
            lambda x: {"strategy": (np.zeros(2), np.array([0.5, x]))},
        ],
    )
    def test_non_finite_floats_raise(self, bad, wrap):
        with pytest.raises(ValueError, match="not JSON compliant"):
            to_json(wrap(bad))

    @pytest.mark.parametrize("array", [np.zeros(3, dtype=np.int64), np.zeros((2, 2))])
    @pytest.mark.parametrize("wrap", [lambda x: x, lambda x: [x], lambda x: [0.0, x]])
    def test_other_arrays_raise(self, array, wrap):
        with pytest.raises(TypeError, match="only 1-D float64 arrays"):
            to_json(wrap(array))
