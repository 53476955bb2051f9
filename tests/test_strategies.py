"""Tests for the strategy profiles and config factories."""

import pytest

from repro.core.config import AdaptationConfig, StrategyName
from repro.core.strategies import (
    STRATEGIES,
    active_disk_config,
    baseline_config,
    lazy_disk_config,
    profile_of,
)


class TestProfiles:
    def test_every_strategy_has_a_profile(self):
        assert set(STRATEGIES) == set(StrategyName)

    def test_only_all_memory_is_unbounded(self):
        unbounded = [n for n, p in STRATEGIES.items() if p.unbounded_memory]
        assert unbounded == [StrategyName.ALL_MEMORY]

    def test_profile_of(self):
        config = AdaptationConfig(strategy=StrategyName.ACTIVE_DISK)
        assert profile_of(config).name is StrategyName.ACTIVE_DISK

    def test_descriptions_nonempty(self):
        for profile in STRATEGIES.values():
            assert profile.description


class TestFactories:
    def test_lazy_disk_config(self):
        config = lazy_disk_config(theta_r=0.7)
        assert config.strategy is StrategyName.LAZY_DISK
        assert config.theta_r == 0.7

    def test_active_disk_config(self):
        config = active_disk_config(lambda_productivity=3.0)
        assert config.strategy is StrategyName.ACTIVE_DISK
        assert config.lambda_productivity == 3.0

    def test_baseline_config_from_string(self):
        config = baseline_config("no_relocation")
        assert config.strategy is StrategyName.NO_RELOCATION

    def test_baseline_config_rejects_unknown(self):
        with pytest.raises(ValueError):
            baseline_config("turbo_disk")
