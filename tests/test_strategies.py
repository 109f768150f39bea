import numpy as np
import pytest

from honeyflow.errors import EmptyActionSet
from honeyflow.game import (
    NO_ATTACK,
    AttackerAction,
    DefenderStrategy,
    GameSpec,
    VulnerabilityType,
    summarize,
    utilities,
)
from honeyflow.strategies import (
    AttackerModel,
    evaluate_matchup,
    greedy_attacker,
    no_deception_strategy,
    rational_attacker,
    uniform_attacker,
    uniform_random_strategy,
)

ATTACK_0 = AttackerAction.attack(0)
ATTACK_1 = AttackerAction.attack(1)


class TestBaselines:
    def test_no_deception_is_free(self, worked_example):
        strategy = no_deception_strategy(worked_example)
        assert summarize(worked_example, strategy)[1] == 0.0

    def test_no_deception_invites_biggest_real_value(self, worked_example):
        strategy = no_deception_strategy(worked_example)
        response = rational_attacker(worked_example, strategy)
        assert response == ATTACK_1
        assert utilities(
            worked_example, summarize(worked_example, strategy), response
        )[1] == pytest.approx(20.0)
        result = evaluate_matchup(
            worked_example, summarize(worked_example, strategy), AttackerModel.RATIONAL
        )
        assert result.defender_value == pytest.approx(-20.0)

    def test_uniform_marginals(self):
        spec = GameSpec((VulnerabilityType(0, 1.0, 0.0, 3, 2, 0.1),))
        strategy = uniform_random_strategy(spec)
        assert strategy.marginals[0] == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_uniform_expected_cost_second_type(self, worked_example):
        strategy = uniform_random_strategy(worked_example)
        # type 1: mean count (0+1+2+3)/4 at cost 0.5 -> 0.75
        js = np.arange(4)
        contribution = float(strategy.marginals[1] @ js) * 0.5
        assert contribution == pytest.approx(0.75, abs=1e-12)

    def test_uniform_with_zero_bound_equals_no_deception(self):
        spec = GameSpec((VulnerabilityType(0, 1.0, 0.0, 3, 0, 0.1),))
        assert uniform_random_strategy(spec).marginals[0] == pytest.approx([1.0])


class TestGreedyAttacker:
    def test_worked_example_pessimistic_estimates(self, worked_example):
        # u0 = (5/7)*10 + (2/7)*(-5) = 40/7; u1 = (5/8)*20 + (3/8)*(-10) = 8.75
        assert greedy_attacker(worked_example) == ATTACK_1

    def test_all_real_values_negative_declines(self):
        spec = GameSpec(
            (
                VulnerabilityType(0, -1.0, -2.0, 3, 1, 0.1),
                VulnerabilityType(1, -0.5, -0.5, 3, 1, 0.1),
            )
        )
        assert greedy_attacker(spec) == NO_ATTACK

    def test_zero_bounds_reduce_to_argmax_real_value(self):
        spec = GameSpec(
            (
                VulnerabilityType(0, 1.0, 0.0, 3, 0, 0.1),
                VulnerabilityType(1, 2.0, 0.0, 3, 0, 0.1),
            )
        )
        assert greedy_attacker(spec) == ATTACK_1

    def test_tie_prefers_lowest_id(self):
        t = VulnerabilityType(0, 1.0, 0.0, 3, 1, 0.1)
        spec = GameSpec((t, VulnerabilityType(1, 1.0, 0.0, 3, 1, 0.1)))
        assert greedy_attacker(spec) == ATTACK_0

    def test_pessimistic_estimate_vs_truth_under_no_deception(self, worked_example):
        """Greedy prices its target assuming the full honey bound; against
        a defender who actually deploys nothing, the realized value is the
        raw real value instead. Both numbers are worth recording."""
        strategy = no_deception_strategy(worked_example)
        choice = greedy_attacker(worked_example)
        assert choice == ATTACK_1
        t = worked_example.types[1]
        pessimistic = (
            t.real_flow_count / (t.honey_flow_bound + t.real_flow_count)
        ) * t.attacker_real_value + (
            t.honey_flow_bound / (t.honey_flow_bound + t.real_flow_count)
        ) * t.attacker_honey_value
        actual = utilities(worked_example, summarize(worked_example, strategy), choice)[1]
        assert pessimistic == pytest.approx(8.75, abs=1e-12)
        assert actual == pytest.approx(20.0, abs=1e-12)
        assert actual > pessimistic


class TestUniformAttacker:
    def test_five_types(self):
        spec = GameSpec(
            tuple(VulnerabilityType(i, 1.0, 0.0, 3, 1, 0.1) for i in range(5))
        )
        dist = uniform_attacker(spec)
        assert len(dist) == 5
        assert all(p == pytest.approx(0.2) for p in dist.values())
        assert NO_ATTACK not in dist

    def test_single_attackable_type(self):
        spec = GameSpec(
            (
                VulnerabilityType(0, 1.0, 0.0, 0, 0, 0.1),
                VulnerabilityType(1, 1.0, 0.0, 3, 1, 0.1),
            )
        )
        assert uniform_attacker(spec) == {ATTACK_1: 1.0}

    def test_no_attackable_types(self):
        spec = GameSpec((VulnerabilityType(0, 1.0, 0.0, 0, 0, 0.1),))
        with pytest.raises(EmptyActionSet):
            uniform_attacker(spec)


class TestRationalAttacker:
    def test_worked_example_best_response(self, worked_example, worked_example_strategy):
        assert rational_attacker(worked_example, worked_example_strategy) == ATTACK_1

    def test_declines_when_everything_is_bad(self):
        spec = GameSpec(
            (
                VulnerabilityType(0, -0.5, -1.0, 3, 1, 0.1),
                VulnerabilityType(1, 0.0, 0.0, 3, 1, 0.1),
            )
        )
        strategy = no_deception_strategy(spec)
        # type 1 yields exactly 0; ties with no-attack resolve toward the
        # defender, who is indifferent, then by order (types first).
        choice = rational_attacker(spec, strategy)
        assert utilities(spec, summarize(spec, strategy), choice)[1] == pytest.approx(0.0)

    def test_strictly_negative_options_decline(self):
        spec = GameSpec(
            (
                VulnerabilityType(0, -0.5, -1.0, 3, 1, 0.1),
                VulnerabilityType(1, -0.1, -0.2, 3, 1, 0.1),
            )
        )
        assert rational_attacker(spec, no_deception_strategy(spec)) == NO_ATTACK

    def test_identical_types_pick_lowest_id(self):
        t0 = VulnerabilityType(0, 1.0, -1.0, 3, 2, 0.1)
        t1 = VulnerabilityType(1, 1.0, -1.0, 3, 2, 0.1)
        spec = GameSpec((t0, t1))
        assert rational_attacker(spec, uniform_random_strategy(spec)) == ATTACK_0

    def test_chosen_action_attains_argmax_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            types = tuple(
                VulnerabilityType(
                    i,
                    float(rng.uniform(-1, 2)),
                    float(rng.uniform(-2, 0)),
                    int(rng.integers(1, 6)),
                    int(rng.integers(0, 4)),
                    float(rng.uniform(0, 0.2)),
                )
                for i in range(n)
            )
            types = tuple(
                t if t.attacker_honey_value <= t.attacker_real_value
                else VulnerabilityType(
                    t.id, t.attacker_real_value, t.attacker_real_value,
                    t.real_flow_count, t.honey_flow_bound, t.honey_flow_cost,
                )
                for t in types
            )
            spec = GameSpec(types)
            marginals = []
            for t in spec.types:
                w = rng.random(t.honey_flow_bound + 1) + 1e-6
                marginals.append(w / w.sum())
            strategy = DefenderStrategy(tuple(marginals))
            choice = rational_attacker(spec, strategy)
            chosen_value = utilities(spec, summarize(spec, strategy), choice)[1]
            all_values = [
                utilities(spec, summarize(spec, strategy), AttackerAction.attack(i))[1]
                for i in spec.attackable_ids
            ] + [0.0]
            assert chosen_value == max(all_values)


class TestEvaluateMatchup:
    def test_hand_built_strategy_vs_rational(self, worked_example, worked_example_strategy):
        result = evaluate_matchup(
            worked_example,
            summarize(worked_example, worked_example_strategy),
            AttackerModel.RATIONAL,
        )
        assert result.defender_value == pytest.approx(-11.75, abs=1e-9)
        assert result.attacker_value == pytest.approx(8.75, abs=1e-9)
        assert result.attacker_behavior == ATTACK_1

    def test_greedy_and_rational_both_recorded_for_optimum(self, worked_example):
        from honeyflow.equilibrium import solve_stackelberg

        summary = summarize(worked_example, solve_stackelberg(worked_example).strategy)
        vs_rational = evaluate_matchup(worked_example, summary, AttackerModel.RATIONAL)
        vs_greedy = evaluate_matchup(worked_example, summary, AttackerModel.GREEDY)
        # No ordering is promised between the two; both must simply be
        # finite, reproducible numbers.
        again = evaluate_matchup(worked_example, summary, AttackerModel.GREEDY)
        assert vs_greedy == again
        assert np.isfinite(vs_rational.defender_value)
        assert np.isfinite(vs_greedy.defender_value)

    def test_pure_function_identical_outputs(self, worked_example, worked_example_strategy):
        summary = summarize(worked_example, worked_example_strategy)
        first = evaluate_matchup(worked_example, summary, AttackerModel.UNIFORM_RANDOM)
        second = evaluate_matchup(worked_example, summary, AttackerModel.UNIFORM_RANDOM)
        assert first == second
