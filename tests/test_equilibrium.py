import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeyflow import equilibrium
from honeyflow.equilibrium import (
    build_best_response_lp,
    solve_lp,
    solve_stackelberg,
    verify_equilibrium,
)
from honeyflow.errors import ValidationError
from honeyflow.experiments import (
    DEFAULT_COST_SWEEP,
    MODE_FAKE_EQUALS_REAL,
    MODE_FAKE_ZERO,
    GeneratorParams,
    random_game,
)
from honeyflow.game import (
    BEST_RESPONSE_TOL,
    MAX_TYPES,
    NO_ATTACK,
    TIE_TOL,
    AttackerAction,
    DefenderStrategy,
    GameSpec,
    VulnerabilityType,
    defender_utility,
    summarize,
)
from honeyflow.strategies import (
    AttackerModel,
    evaluate_matchup,
    no_deception_strategy,
    uniform_random_strategy,
)
from oracles import exact_stackelberg_value


def _random_spec(rng: np.random.Generator, max_types=3, max_bound=5) -> GameSpec:
    n = int(rng.integers(1, max_types + 1))
    types = []
    for i in range(n):
        real_v = float(rng.uniform(0.1, 1.5))
        honey_v = float(rng.uniform(-1.5, real_v))
        types.append(
            VulnerabilityType(
                id=i,
                attacker_real_value=real_v,
                attacker_honey_value=honey_v,
                real_flow_count=int(rng.integers(1, 11)),
                honey_flow_bound=int(rng.integers(0, max_bound + 1)),
                honey_flow_cost=float(rng.uniform(0.001, 0.1)),
            )
        )
    return GameSpec(tuple(types))


class TestLpConstruction:
    def test_worked_example_shape(self, worked_example):
        lp = build_best_response_lp(worked_example, AttackerAction.attack(1))
        assert lp.num_vars == 7  # 3 + 4 probabilities
        assert lp.eq_rows.shape == (2, 7)
        assert lp.ineq_rows.shape == (2, 7)  # vs attack(0), vs no-attack
        assert np.all(lp.upper == 1.0)

    def test_single_type_reduces_to_no_attack_row(self):
        spec = GameSpec((VulnerabilityType(0, 1.0, -1.0, 3, 2, 0.1),))
        lp = build_best_response_lp(spec, AttackerAction.attack(0))
        assert lp.ineq_rows.shape == (1, 3)

    def test_no_attack_objective_is_pure_cost(self, worked_example):
        lp = build_best_response_lp(worked_example, NO_ATTACK)
        # objective = -j * cost per block
        expected = -np.array([0.0, 1.0, 2.0, 0.0, 0.5, 1.0, 1.5])
        assert lp.objective == pytest.approx(expected)
        assert lp.ineq_rows.shape == (2, 7)  # each attack must be unattractive

    def test_unattackable_fixed_action_rejected(self):
        spec = GameSpec(
            (
                VulnerabilityType(0, 1.0, 0.0, 0, 0, 0.1),
                VulnerabilityType(1, 1.0, 0.0, 3, 1, 0.1),
            )
        )
        with pytest.raises(ValidationError, match="unattackable"):
            build_best_response_lp(spec, AttackerAction.attack(0))


class TestSolveStackelberg:
    def test_worked_example_beats_hand_built_strategy(
        self, worked_example, worked_example_strategy
    ):
        eq = solve_stackelberg(worked_example)
        hand = defender_utility(
            worked_example, worked_example_strategy, AttackerAction.attack(1)
        )
        assert hand == pytest.approx(-11.75, abs=1e-9)
        assert eq.defender_value >= hand - 1e-9

    def test_worked_example_matches_oracle(self, worked_example):
        eq = solve_stackelberg(worked_example)
        assert eq.defender_value == pytest.approx(
            exact_stackelberg_value(worked_example), abs=1e-3
        )

    def test_single_type_no_deception_possible(self):
        spec = GameSpec((VulnerabilityType(0, 1.0, 0.0, 4, 0, 0.1),))
        eq = solve_stackelberg(spec)
        assert eq.attacker_action == AttackerAction.attack(0)
        assert eq.defender_value == pytest.approx(-1.0, abs=1e-9)

    def test_infeasible_actions_skipped_silently(self, worked_example):
        eq = solve_stackelberg(worked_example)
        status, value = eq.per_action_values[NO_ATTACK]
        assert status == "infeasible"
        assert value is None

    def test_near_tied_actions_go_to_lowest_type_id(self):
        # random_game(GeneratorParams(type_count=2, real_flows=(50, 500),
        # honey_bound_range=(100, 100)), [20200207, 4]): both attacks reach
        # the same optimum, and a last-bit difference between their values
        # must not beat the lowest-id rule.
        spec = GameSpec(
            (
                VulnerabilityType(0, 1.0, 0.0, 441, 100, 1e-4),
                VulnerabilityType(1, 1.0, 0.0, 373, 100, 1e-4),
            )
        )
        eq = solve_stackelberg(spec)
        v0 = eq.per_action_values[AttackerAction.attack(0)][1]
        v1 = eq.per_action_values[AttackerAction.attack(1)][1]
        assert v0 == pytest.approx(v1, abs=1e-12)
        assert eq.attacker_action == AttackerAction.attack(0)

    def test_large_equal_values_still_leave_the_attack_feasible(self):
        # u(j) = p*v + (1-p)*v is v only up to rounding, and at this size
        # the rounding (~1e-7) is out of order by more than TIE_TOL: the
        # curve must still read as nonincreasing, or no action is feasible.
        v = 770831828.9072918
        spec = GameSpec((VulnerabilityType(0, v, v, 123, 44, 0.8312748346644612),))
        eq = solve_stackelberg(spec)
        assert eq.attacker_action == AttackerAction.attack(0)
        assert eq.attacker_value == pytest.approx(v, rel=1e-12)
        assert verify_equilibrium(spec, eq).all_passed

    def test_game_with_no_attackable_types(self):
        spec = GameSpec(
            (
                VulnerabilityType(0, 1.0, 0.0, 0, 0, 0.1),
                VulnerabilityType(1, 2.0, 0.0, 0, 0, 0.1),
            )
        )
        eq = solve_stackelberg(spec)
        assert eq.attacker_action == NO_ATTACK
        assert eq.defender_value == pytest.approx(0.0, abs=1e-12)
        assert all(m[0] == pytest.approx(1.0) for m in eq.strategy.marginals)

    def test_water_level_value_computed_once(self, monkeypatch):
        """Every attack held at tau* shares one V(tau*): a fake-zero game of
        MAX_TYPES identical types needs a single evaluation, not one per type."""
        params = GeneratorParams(
            type_count=MAX_TYPES, real_flows=5, honey_bound_range=(5, 5), cost=0.1
        )
        spec = random_game(params, 1)
        calls = []
        value = equilibrium._value

        def counted(curve, costs, tau):
            calls.append(tau)
            return value(curve, costs, tau)

        monkeypatch.setattr(equilibrium, "_value", counted)
        eq = solve_stackelberg(spec)
        assert 1 <= len(calls) <= 2
        feasible = [v for status, v in eq.per_action_values.values() if status == "optimal"]
        assert len(feasible) == MAX_TYPES and len(set(feasible)) == 1


@st.composite
def _curves(draw):
    """A nonincreasing curve of finite values within 1e300 of zero: flat
    runs, one-ulp steps, steps just under TIE_TOL, and jumps of any size."""
    u = [draw(st.one_of(st.floats(-1e300, 1e300), st.floats(-10.0, 10.0)))]
    moves = draw(st.lists(st.sampled_from(["flat", "ulp", "tol", "jump"]), max_size=12))
    for move in moves:
        last = u[-1]
        if move == "flat":
            step = 0.0
        elif move == "ulp":
            step = last - math.nextafter(last, -math.inf)
        elif move == "tol":
            step = math.nextafter(TIE_TOL, 0.0)
        else:
            step = draw(st.floats(0.0, 1e300))
        u.append(max(last - step, -1e300))
    return np.array(u)


class TestHold:
    @settings(max_examples=300, deadline=None)
    @given(u=_curves(), extra=st.lists(st.floats(-1e300, 1e300), max_size=3))
    def test_search_matches_the_negated_curve_search(self, u, extra):
        """The reversed-view search finds the same count j as a search of
        -u, at every kink and one ulp and one TIE_TOL either side,
        wherever the caller's condition holds (some u(j) <= tau + TIE_TOL),
        and the width of the segment it ends, or inf at j = 0."""
        taus = list(extra)
        for kink in set(u.tolist()):
            taus += [kink, math.nextafter(kink, -math.inf), math.nextafter(kink, math.inf)]
            taus += [kink - TIE_TOL, kink + TIE_TOL]
        for tau in taus:
            parent_j = int(np.searchsorted(-u, -(tau + TIE_TOL)))
            if parent_j < u.size:
                with np.errstate(over="ignore"):  # a weight may overflow; it caps at 1
                    j, _, width = equilibrium._hold(u, tau)
                assert j == parent_j, tau
                assert width == (float(u[j - 1] - u[j]) if j else math.inf), tau


def _ladder_games():
    """Games shaped like the benchmark's solve ladder, in both value modes:
    2 to 16 types at honey bound 100, and 5 types at bounds 50 to 500."""
    shapes = [(2, 100), (4, 100), (8, 100), (16, 100), (5, 50), (5, 500)]
    for mode in (MODE_FAKE_ZERO, MODE_FAKE_EQUALS_REAL):
        for index, (types, bound) in enumerate(shapes):
            params = GeneratorParams(
                type_count=types,
                real_flows=(50, 500),
                honey_bound_range=(bound, bound),
                value_mode=mode,
            )
            yield random_game(params, [20200207, index])


class TestLpReference:
    """The per-action best-response LPs, solved by the package's simplex,
    are the reference the water-level search must reproduce."""

    def test_per_action_values_match_the_lps(self):
        for spec in _ladder_games():
            eq = solve_stackelberg(spec)
            for action, (status, value) in eq.per_action_values.items():
                sol = solve_lp(build_best_response_lp(spec, action))
                assert status == sol.status, (spec, action)
                if status == "optimal":
                    assert value == pytest.approx(sol.objective_value, abs=1e-9)
                else:
                    assert value is None

    def test_marginals_mix_two_adjacent_counts(self):
        rng = np.random.default_rng(11)
        games = list(_ladder_games()) + [_random_spec(rng) for _ in range(30)]
        for spec in games:
            for m in solve_stackelberg(spec).strategy.marginals:
                support = np.flatnonzero(m)
                assert 1 <= support.size <= 2
                assert support[-1] - support[0] <= 1

    def test_layers_on_the_worked_example(self, worked_example):
        # u_0 = 10, 7.5, 40/7 and u_1 = 20, 15, 80/7, 8.75, so L = 8.75.
        # There V's right slope is -1 + 1/2.5 + 0.5/(80/7 - 8.75) < 0, so the
        # water level is L itself: type 0 mixes zero and one honey flow
        # half and half to reach it, and type 1 needs all three.
        curve = equilibrium.cost_curve(worked_example)
        assert [k for k, _ in curve.curves] == [0, 1]
        assert curve.curves[0][1] == pytest.approx([10.0, 7.5, 40 / 7], abs=1e-12)
        assert curve.curves[1][1] == pytest.approx([20.0, 15.0, 80 / 7, 8.75], abs=1e-12)
        assert [t.honey_flow_cost for t in worked_example.types] == [1.0, 0.5]
        tau = curve.water_level([1.0, 0.5])
        assert tau == 8.75
        strategy = equilibrium.strategy_at(worked_example, curve, tau)
        assert strategy.marginals[0] == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
        assert strategy.marginals[1] == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-12)


_COSTS = st.one_of(
    st.sampled_from([0.0, 1e300]), st.floats(0.0, 10.0), st.floats(0.0, 1e300)
)


@st.composite
def _priced_specs(draw):
    """1 to 4 types with their own costs, values of either sign up to 1e300
    (equal real and honey values too), and zero real flows or honey bounds."""
    types = []
    for i in range(draw(st.integers(1, 4))):
        scale = draw(st.sampled_from([1.0, 1e6, 1e300]))
        real = draw(st.floats(-scale, scale))
        honey = draw(st.one_of(st.just(real), st.floats(-scale, real)))
        types.append(
            VulnerabilityType(
                id=i,
                attacker_real_value=real,
                attacker_honey_value=honey,
                real_flow_count=draw(st.integers(0, 40)),
                honey_flow_bound=draw(st.integers(0, 30)),
                honey_flow_cost=draw(_COSTS),
            )
        )
    return GameSpec(tuple(types))


def _assert_same_equilibrium(got, want):
    """Bit for bit: the action, both values, every action's value and the
    strategy's bytes."""
    assert got.attacker_action == want.attacker_action
    assert repr((got.defender_value, got.attacker_value)) == repr(
        (want.defender_value, want.attacker_value)
    )
    assert repr(got.per_action_values) == repr(want.per_action_values)
    assert [m.tobytes() for m in got.strategy.marginals] == [
        m.tobytes() for m in want.strategy.marginals
    ]


class TestCostCurve:
    @settings(max_examples=300, deadline=None)
    @given(spec=_priced_specs(), common=_COSTS)
    def test_curve_agrees_with_the_probe_search(self, spec, common):
        """One curve, solved first at the spec's own per-type costs and then
        at one common cost, gives at each cost the equilibrium of a fresh
        solve with its own curve, with no warning on the way: the width
        memo the two searches share holds nothing that depends on a cost."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = equilibrium.cost_curve(spec)
            for priced in (spec, spec.with_cost(common)):
                _assert_same_equilibrium(
                    solve_stackelberg(priced, curve), solve_stackelberg(priced)
                )

    def test_a_slope_that_rounding_makes_rise_keeps_the_binary_search(self):
        """Rounding makes this nearly flat curve's right slope rise again
        after its first level <= 0. tau* is where the binary search stops,
        not that first level."""
        kind = VulnerabilityType(0, 1000000.0000000048, 1e6, 26, 19, 2.1031720729211948e-10)
        spec = GameSpec((kind,))
        curve = equilibrium.cost_curve(spec)
        [(_, u)] = curve.curves
        cost = spec.types[0].honey_flow_cost
        slope = []
        for tau in curve.levels.tolist():
            j = int(np.argmax(u <= tau + TIE_TOL))  # the first count held at tau
            slope.append(-1.0 + (cost / float(u[j - 1] - u[j]) if j else 0.0))
        first = float(curve.levels[np.argmax(np.array(slope) <= 0.0)])
        tau = curve.water_level([cost])
        assert repr(tau) == "1000000.0000000035" and tau != first
        _assert_same_equilibrium(solve_stackelberg(spec, curve), solve_stackelberg(spec))

    def test_sweep_games_agree_with_the_probe_search(self):
        """Default-sized games in both value modes, solved on one curve per
        game at every default cost, equal fresh solves."""
        for mode in (MODE_FAKE_ZERO, MODE_FAKE_EQUALS_REAL):
            for seed in range(4):
                spec = random_game(GeneratorParams(type_count=5, value_mode=mode), seed)
                curve = equilibrium.cost_curve(spec)
                for cost in DEFAULT_COST_SWEEP:
                    priced = spec.with_cost(cost)
                    _assert_same_equilibrium(
                        solve_stackelberg(priced, curve), solve_stackelberg(priced)
                    )

    def test_a_probed_level_is_looked_up_once(self, monkeypatch):
        """A second search on the same curve at the same costs probes the
        same levels and reads every width from the memo: it calls no
        ``_hold``."""
        spec = random_game(GeneratorParams(type_count=5), 3)
        curve = equilibrium.cost_curve(spec)
        costs = [1e-3] * len(curve.curves)
        tau = curve.water_level(costs)
        assert 1 <= len(curve.widths) <= curve.levels.size
        probed = dict(curve.widths)

        def fail(u, tau):
            raise AssertionError("a memoized level was looked up again")

        monkeypatch.setattr(equilibrium, "_hold", fail)
        assert curve.water_level(costs) == tau
        assert curve.widths == probed


class TestVerification:
    def test_solver_output_verifies(self, worked_example):
        eq = solve_stackelberg(worked_example)
        report = verify_equilibrium(worked_example, eq)
        assert report.all_passed
        assert not report.failures()

    def test_perturbed_marginal_fails_normalization(self, worked_example):
        eq = solve_stackelberg(worked_example)
        bumped = list(eq.strategy.marginals)
        bad0 = bumped[0].copy()
        bad0[0] += 0.1
        bumped[0] = bad0
        broken = dataclasses.replace(eq, strategy=DefenderStrategy(tuple(bumped)))
        report = verify_equilibrium(worked_example, broken)
        failed = {c.name for c in report.failures()}
        assert "strategy-normalization" in failed
        norm = next(c for c in report.checks if c.name == "strategy-normalization")
        assert norm.residual == pytest.approx(0.1, abs=1e-9)

    @staticmethod
    def _bounds(spec, marginals):
        """The strategy-bounds check of ``marginals`` put in for the solved
        strategy of ``spec``."""
        eq = solve_stackelberg(spec)
        broken = dataclasses.replace(eq, strategy=DefenderStrategy(tuple(marginals)))
        report = verify_equilibrium(spec, broken)
        return next(c for c in report.checks if c.name == "strategy-bounds")

    @staticmethod
    def _per_row_bound_residual(marginals) -> float:
        """The reference: the bound residual taken row by row, NaN if any
        row holds a NaN."""
        residual = 0.0
        for m in marginals:
            if np.isnan(m).any():
                return math.nan
            residual = max(
                residual, float(np.max(-m, initial=0.0)), float(np.max(m - 1.0, initial=0.0))
            )
        return residual

    @pytest.mark.parametrize(
        "rows",
        [
            ([0.0, 0.5, 0.5], [0.0, 0.0, 0.0, 1.0]),
            ([-0.25, 1.25, 0.0], [0.0, 0.0, 0.0, 1.0]),
            ([0.0, 0.5, 0.5], [0.0, 0.0, -1e-3, 1.001]),
            ([0.0, 1.5, -0.5], [0.0, 0.0, 0.0, 1.0]),
            ([-0.0, 1.0, 0.0], [0.0, -0.0, 0.0, 1.0]),
            ([math.nan, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]),
            ([math.nan, 1.0, 0.0], [-0.5, 0.0, 0.0, 1.5]),
            ([0.0, 1.0, 1e-7], [-1e-7, 0.0, 0.0, 1.0]),
        ],
    )
    def test_bounds_check_matches_per_row_loop(self, worked_example, rows):
        marginals = [np.array(r) for r in rows]
        check = self._bounds(worked_example, marginals)
        expected = self._per_row_bound_residual(marginals)
        assert check.residual.hex() == expected.hex()
        assert check.passed == (expected <= BEST_RESPONSE_TOL)

    def test_bounds_check_fails_just_past_tolerance(self, worked_example):
        rows = (np.array([-2 * BEST_RESPONSE_TOL, 1.0, 2 * BEST_RESPONSE_TOL]),
                np.array([0.0, 0.0, 0.0, 1.0]))
        check = self._bounds(worked_example, rows)
        assert not check.passed
        assert check.residual == 2 * BEST_RESPONSE_TOL

    def test_nan_does_not_hide_a_bound_in_its_row(self, worked_example):
        """A NaN entry fails the check with a NaN residual, whatever the
        rest of its row holds."""
        rows = (np.array([math.nan, -0.5, 1.5]), np.array([0.0, 0.0, 0.0, 1.0]))
        check = self._bounds(worked_example, rows)
        assert check.passed is False
        assert math.isnan(check.residual)

    @pytest.mark.parametrize("nan_type", [0, 1])
    def test_nan_entry_fails_normalization(self, worked_example, nan_type):
        """A NaN in any type's row makes the normalization residual NaN,
        not only in the first row."""
        eq = solve_stackelberg(worked_example)
        rows = list(eq.strategy.marginals)
        rows[nan_type] = np.array([math.nan, *([0.0] * (len(rows[nan_type]) - 2)), 1.0])
        broken = dataclasses.replace(eq, strategy=DefenderStrategy(tuple(rows)))
        report = verify_equilibrium(worked_example, broken)
        norm = next(c for c in report.checks if c.name == "strategy-normalization")
        assert not norm.passed and math.isnan(norm.residual)
        assert not report.all_passed

    def test_dominated_action_fails_best_response(
        self, worked_example, worked_example_strategy
    ):
        eq = solve_stackelberg(worked_example)
        # Under the hand-built strategy the second type strictly dominates
        # (8.75 vs 555/84), so claiming the attacker picks the first fails.
        broken = dataclasses.replace(
            eq,
            strategy=worked_example_strategy,
            attacker_action=AttackerAction.attack(0),
            defender_value=defender_utility(
                worked_example, worked_example_strategy, AttackerAction.attack(0)
            ),
        )
        report = verify_equilibrium(worked_example, broken)
        failed = {c.name for c in report.failures()}
        assert "attacker-best-response" in failed


class TestEquilibriumProperties:
    def test_dominates_baselines_on_seeded_games(self):
        rng = np.random.default_rng(77)
        for _ in range(12):
            spec = _random_spec(rng)
            eq = solve_stackelberg(spec)
            for baseline in (no_deception_strategy(spec), uniform_random_strategy(spec)):
                result = evaluate_matchup(spec, summarize(spec, baseline), AttackerModel.RATIONAL)
                assert eq.defender_value >= result.defender_value - 1e-6

    def test_scaling_covariance(self):
        rng = np.random.default_rng(42)
        lam = 3.0
        for _ in range(8):
            spec = _random_spec(rng)
            eq = solve_stackelberg(spec)
            scaled = GameSpec(
                tuple(
                    dataclasses.replace(
                        t,
                        attacker_real_value=lam * t.attacker_real_value,
                        attacker_honey_value=lam * t.attacker_honey_value,
                        honey_flow_cost=lam * t.honey_flow_cost,
                    )
                    for t in spec.types
                )
            )
            carried = evaluate_matchup(
                scaled, summarize(scaled, eq.strategy), AttackerModel.RATIONAL
            )
            assert carried.defender_value == pytest.approx(
                lam * eq.defender_value, abs=1e-6
            )
            assert solve_stackelberg(scaled).defender_value == pytest.approx(
                lam * eq.defender_value, abs=1e-6
            )

    def test_raising_a_honey_bound_never_hurts(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            spec = _random_spec(rng, max_bound=3)
            base = solve_stackelberg(spec).defender_value
            grow = int(rng.integers(0, len(spec.types)))
            bigger = GameSpec(
                tuple(
                    dataclasses.replace(t, honey_flow_bound=t.honey_flow_bound + 1)
                    if t.id == grow
                    else t
                    for t in spec.types
                )
            )
            assert solve_stackelberg(bigger).defender_value >= base - 1e-6

    def test_permuting_types_keeps_the_defender_value(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec = _random_spec(rng)
            perm = rng.permutation(len(spec.types))
            permuted = GameSpec(
                tuple(dataclasses.replace(spec.types[i], id=pos) for pos, i in enumerate(perm))
            )
            assert solve_stackelberg(permuted).defender_value == pytest.approx(
                solve_stackelberg(spec).defender_value, abs=1e-9
            )

    def test_dearer_honey_never_raises_the_defender_value(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            spec = _random_spec(rng)
            dearer = GameSpec(
                tuple(
                    dataclasses.replace(t, honey_flow_cost=1.5 * t.honey_flow_cost)
                    for t in spec.types
                )
            )
            base = solve_stackelberg(spec).defender_value
            assert solve_stackelberg(dearer).defender_value <= base + 1e-9

    def test_unattackable_type_changes_nothing(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            spec = _random_spec(rng)
            extra = VulnerabilityType(len(spec.types), 1.0, 0.0, 0, 0, 0.1)
            eq = solve_stackelberg(spec)
            grown = solve_stackelberg(GameSpec(spec.types + (extra,)))
            assert grown.attacker_action == eq.attacker_action
            assert grown.defender_value == pytest.approx(eq.defender_value, abs=1e-9)
            assert grown.attacker_value == pytest.approx(eq.attacker_value, abs=1e-9)

    def test_zero_cost_games_match_oracle(self):
        # Free honey flows: degenerate cost structure deserves its own
        # oracle spot check (ties everywhere, bounds saturate).
        rng = np.random.default_rng(13)
        for _ in range(10):
            spec = _random_spec(rng)
            free = GameSpec(
                tuple(dataclasses.replace(t, honey_flow_cost=0.0) for t in spec.types)
            )
            eq = solve_stackelberg(free)
            assert eq.defender_value == pytest.approx(
                exact_stackelberg_value(free), abs=1e-6
            )
