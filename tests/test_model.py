import math

import numpy as np
import pytest

from aoi_erasure.model import AnalyticSolution, Epochs, Feedback, Regime, SimConfig, SimResult
from trace_oracle import BatteryState  # the battery of the literal reference event loop


def _config(q=0.3, setting=Feedback.NOFB, gamma=0.1):
    return SimConfig(q, 1, setting, gamma, target_epochs=1)


class TestChannelSpec:
    """SimConfig's checks of the channel input q."""

    def test_accepts_zero_and_interior_q(self):
        assert _config(q=0.0).q == 0.0
        assert _config(q=0.3).q == 0.3

    def test_rejects_q_one_and_negative(self):
        with pytest.raises(ValueError):
            _config(q=1.0)
        with pytest.raises(ValueError):
            _config(q=-0.01)


class TestStoppingRule:
    """SimConfig's checks of the stopping rule: an integer epoch target or a finite horizon."""

    CELL = (0.2, 1, Feedback.NOFB, 0.0)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, "10"])
    def test_target_epochs_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match=f"target_epochs must be an integer, got {value!r}"):
            SimConfig(*self.CELL, target_epochs=value)

    def test_integer_targets_accepted(self):
        assert SimConfig(*self.CELL, target_epochs=np.int64(3)).target_epochs == 3
        assert SimConfig(*self.CELL, target_epochs=1).target_epochs == 1

    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf, 0.0, -1.0])
    def test_horizon_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match=f"horizon must be finite and positive, got {value!r}"):
            SimConfig(*self.CELL, horizon=value)

    def test_finite_horizons_accepted(self):
        assert SimConfig(*self.CELL, horizon=1e9).horizon == 1e9
        assert SimConfig(*self.CELL, horizon=3).horizon == 3


class TestBatteryState:
    def test_harvest_then_discharge(self):
        b = BatteryState()
        assert b.level == 0
        assert b.harvest() is True
        assert b.level == 1
        b.discharge()
        assert b.level == 0

    def test_overflow_is_reported(self):
        b = BatteryState(level=1)
        assert b.harvest() is False
        assert b.level == 1

    def test_discharge_needs_energy(self):
        with pytest.raises(RuntimeError):
            BatteryState().discharge()

    def test_level_domain(self):
        with pytest.raises(ValueError):
            BatteryState(level=2)


class TestPolicySpec:
    """SimConfig's checks of the policy inputs: the feedback setting and gamma."""

    def test_valid_pairings(self):
        _config(setting=Feedback.NOFB, gamma=0.5)
        _config(setting=Feedback.NOFB, gamma=0.0)
        _config(setting=Feedback.WFB, gamma=1.0)
        _config(setting=Feedback.WFB, gamma=0.2)

    def test_accepts_plain_strings(self):
        p = _config(setting="nofb")
        assert p.setting is Feedback.NOFB

    @pytest.mark.parametrize("text", ["wfb", "WFB", " wfb\n"])
    def test_feedback_coerces_case_and_whitespace(self, text):
        assert Feedback(text) is Feedback.WFB
        assert _config(setting=text).setting is Feedback.WFB

    @pytest.mark.parametrize("value", ["fancy", "", 1, None])
    def test_feedback_rejects_unknown_values(self, value):
        with pytest.raises(ValueError):
            Feedback(value)
        with pytest.raises(ValueError):
            _config(setting=value)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            _config(gamma=-0.1)
        with pytest.raises(ValueError):
            _config(gamma=math.nan)


class TestEpochs:
    def test_columns_and_derived_area(self):
        e = Epochs(np.array([2, 1]), np.array([2.0, 0.5, 1.0]), np.array([1, 3, 2]))
        assert len(e) == 3
        assert e.R.tolist() == [2.0, 0.125, 0.5]
        assert e.source_id.tolist() == [1, 1, 2]
        assert e.source_id.dtype == np.int64

    def test_domains(self):
        with pytest.raises(ValueError):
            Epochs(np.array([1]), np.array([0.0]), np.array([1]))
        with pytest.raises(ValueError):
            Epochs(np.array([1]), np.array([1.0]), np.array([0]))
        with pytest.raises(ValueError):
            Epochs(np.array([1, 1]), np.array([1.0]), np.array([1]))


class TestAnalyticSolution:
    def test_greedy_iff_zero_threshold(self):
        AnalyticSolution(Regime.GREEDY, 2.5, 0.0, q=0.6)
        AnalyticSolution(Regime.THRESHOLD, 0.9, 0.9, q=0.0)
        with pytest.raises(ValueError):
            AnalyticSolution(Regime.GREEDY, 2.5, 0.3, q=0.6)
        with pytest.raises(ValueError):
            AnalyticSolution(Regime.THRESHOLD, 2.5, 0.0, q=0.6)


class TestSimResult:
    def _mk(self, **kw):
        base = dict(
            per_source_mean=(1.0,),
            mean_aoi=1.0,
            ci_half_width=0.1,
            arrivals=10,
            overflows=2,
            attempts=8,
            successes=6,
            epochs_per_source=5,
            seed=1,
        )
        base.update(kw)
        return SimResult(**base)

    def test_counter_chain_enforced(self):
        self._mk()
        with pytest.raises(ValueError):
            self._mk(successes=9)
        with pytest.raises(ValueError):
            self._mk(attempts=9)

    def test_nonnegative_means(self):
        with pytest.raises(ValueError):
            self._mk(per_source_mean=(-0.1,))
