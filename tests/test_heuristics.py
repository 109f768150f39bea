import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeyflow.errors import ValidationError
from honeyflow.heuristics import (
    HeuristicInput,
    exactness_gap,
    game_from_heuristic_input,
    recommend_honey_flows,
)


def _inp(rv, fv, nr) -> HeuristicInput:
    return HeuristicInput(
        real_values=np.atleast_1d(np.asarray(rv, float)),
        fake_values=np.atleast_1d(np.asarray(fv, float)),
        real_flow_counts=np.atleast_1d(np.asarray(nr, int)),
    )


class TestBranchTable:
    def test_high_fake_value_adds_thirty_percent(self):
        assert recommend_honey_flows(_inp(10, 9, 10)).tolist() == [13]

    def test_low_fake_value_doubles(self):
        # ratio exactly 0.3 falls through to the bottom branch
        assert recommend_honey_flows(_inp(10, 3, 10)).tolist() == [20]

    def test_no_real_flows_means_no_honey(self):
        assert recommend_honey_flows(_inp(10, 10, 0)).tolist() == [0]

    def test_boundary_085_inclusive(self):
        assert recommend_honey_flows(_inp(100, 85, 10)).tolist() == [13]

    def test_boundary_05_inclusive(self):
        assert recommend_honey_flows(_inp(100, 50, 10)).tolist() == [15]

    def test_between_03_and_05(self):
        assert recommend_honey_flows(_inp(100, 40, 10)).tolist() == [17]  # 16.5 rounds up

    def test_fake_above_real_takes_bottom_branch(self):
        # fv > rv misses every band, landing in the final 2x branch
        assert recommend_honey_flows(_inp(10, 11, 10)).tolist() == [20]

    def test_vector_input(self):
        counts = recommend_honey_flows(_inp([10, 10, 10], [9, 5, 3], [10, 10, 10]))
        assert counts.tolist() == [13, 15, 20]


def _branch_chain(rv: float, fv: float, nr: int) -> int:
    """The ratio rule as an if/elif chain over one type."""
    if 0.85 * rv <= fv <= rv:
        mult = 1.30
    elif 0.5 * rv <= fv < 0.85 * rv:
        mult = 1.50
    elif 0.3 * rv < fv < 0.5 * rv:
        mult = 1.65
    else:
        mult = 2.0
    return math.floor(mult * nr + 0.5)


# (real, fake) at, one ulp below and one ulp above every band edge, and
# fake values above the real value.
_EDGES = [
    (rv, fv)
    for rv in (10.0, 100.0, 7.3)
    for at in (0.3 * rv, 0.5 * rv, 0.85 * rv, rv)
    for fv in (at, math.nextafter(at, 0.0), math.nextafter(at, math.inf), 1.5 * rv)
]


class TestBandEdges:
    @pytest.mark.parametrize("nr", [0, 1, 3, 10, 500_000])
    def test_edges_match_the_branch_chain(self, nr):
        real, fake = zip(*_EDGES)
        counts = recommend_honey_flows(_inp(real, fake, [nr] * len(_EDGES)))
        assert counts.dtype == np.dtype(int)
        assert counts.tolist() == [_branch_chain(rv, fv, nr) for rv, fv in _EDGES]


class TestValidation:
    def test_nonpositive_real_value(self):
        with pytest.raises(ValidationError, match="real values"):
            _inp(0, 0, 1)

    def test_negative_fake_value(self):
        with pytest.raises(ValidationError, match="fake values"):
            _inp(10, -1, 1)

    def test_negative_counts(self):
        with pytest.raises(ValidationError, match="counts"):
            _inp(10, 1, -1)

    def test_counts_checked_before_numpy_converts_them(self):
        """2**63 would wrap negative and 5e18 overflow once doubled."""
        for n in (500_001, 5 * 10**18, 2**63):
            with pytest.raises(ValidationError, match=rf"\[0, 500000\], got {n}$"):
                HeuristicInput([10.0], [1.0], [n])
        with pytest.raises(ValidationError, match="integers"):
            HeuristicInput([10.0], [1.0], [1.5])
        assert recommend_honey_flows(HeuristicInput([10.0], [1.0], [500_000])).tolist() == [
            1_000_000
        ]

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="equal length"):
            HeuristicInput(
                real_values=np.array([1.0, 2.0]),
                fake_values=np.array([1.0]),
                real_flow_counts=np.array([1]),
            )


class TestProperties:
    @given(
        st.floats(0.01, 100.0),
        st.floats(0.0, 1.2),
        st.integers(0, 500),
    )
    @settings(max_examples=200, deadline=None)
    def test_output_at_least_real_count(self, rv, ratio, nr):
        counts = recommend_honey_flows(_inp(rv, ratio * rv, nr))
        assert counts[0] >= nr

    @given(st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_multiplier_grows_as_fake_value_falls(self, nr):
        ratios = [0.95, 0.7, 0.4, 0.1]
        counts = [
            recommend_honey_flows(_inp(10.0, 10.0 * r, nr))[0] for r in ratios
        ]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestGapHarness:
    def test_gap_is_never_negative(self):
        # The exact optimum dominates any fixed strategy by construction.
        inp = _inp([10.0, 20.0], [9.0, 18.0], [8, 8])
        result = exactness_gap(inp, cost=0.05)
        assert result.gap >= -1e-9
        assert np.isfinite(result.heuristic_value)
        assert result.heuristic_counts.tolist() == [10, 10]

    def test_game_mapping_uses_fake_values_as_losses(self):
        inp = _inp([10.0], [9.0], [5])
        spec = game_from_heuristic_input(inp, cost=0.1)
        t = spec.types[0]
        assert t.attacker_real_value == 10.0
        assert t.attacker_honey_value == -9.0
        assert t.real_flow_count == 5
        assert t.honey_flow_bound == 10  # twice the real count: all branches playable
        assert t.honey_flow_cost == 0.1
