"""Tests for configuration validation and derived flags."""

import pytest

from repro.core.config import (
    AdaptationConfig,
    CostModel,
    SpillPolicyName,
    StrategyName,
)

NAN = float("nan")


class TestAdaptationConfig:
    def test_defaults_valid(self):
        config = AdaptationConfig()
        assert config.strategy is StrategyName.LAZY_DISK
        assert config.spill_policy is SpillPolicyName.LESS_PRODUCTIVE

    @pytest.mark.parametrize(
        "field,value",
        [
            ("memory_threshold", 0),
            ("spill_fraction", 0.0),
            ("spill_fraction", 1.5),
            ("theta_r", 0.0),
            ("theta_r", 1.5),
            ("tau_m", -1.0),
            ("lambda_productivity", 1.0),
            ("forced_spill_cap", -1),
            ("forced_spill_fraction", 0.0),
            ("forced_spill_pressure", 1.5),
            ("min_relocation_bytes", -1),
            ("ss_interval", 0.0),
            ("stats_interval", 0.0),
            ("coordinator_interval", 0.0),
            # NaN fails every comparison, so each check must reject it
            ("memory_threshold", NAN),
            ("tau_m", NAN),
            ("min_relocation_bytes", NAN),
            ("ss_interval", NAN),
            ("stats_interval", NAN),
            ("coordinator_interval", NAN),
            ("lambda_productivity", NAN),
            ("forced_spill_cap", NAN),
            ("split_skew_factor", NAN),
            ("split_min_bytes", NAN),
            ("merge_max_bytes", NAN),
            ("tau_p", NAN),
            ("checkpoint_interval", NAN),
            ("failure_timeout", NAN),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            AdaptationConfig(**{field: value})

    def test_with_returns_modified_copy(self):
        base = AdaptationConfig()
        changed = base.with_(theta_r=0.5)
        assert changed.theta_r == 0.5
        assert base.theta_r == 0.8
        assert changed.memory_threshold == base.memory_threshold

    @pytest.mark.parametrize(
        "strategy,spill,reloc,forced",
        [
            (StrategyName.ALL_MEMORY, False, False, False),
            (StrategyName.NO_RELOCATION, True, False, False),
            (StrategyName.RELOCATION_ONLY, False, True, False),
            (StrategyName.LAZY_DISK, True, True, False),
            (StrategyName.ACTIVE_DISK, True, True, True),
        ],
    )
    def test_derived_flags(self, strategy, spill, reloc, forced):
        config = AdaptationConfig(strategy=strategy)
        assert config.spill_enabled is spill
        assert config.relocation_enabled is reloc
        assert config.forced_spill_enabled is forced

    def test_enum_from_string(self):
        assert StrategyName("lazy_disk") is StrategyName.LAZY_DISK
        assert SpillPolicyName("largest") is SpillPolicyName.LARGEST


class TestCostModel:
    def test_defaults_valid(self):
        cost = CostModel()
        # the paper's cost ordering: probe << result building dominates at
        # high fan-out; network transfer of a byte is cheaper than disk
        assert 1 / cost.network_bandwidth < 1 / cost.disk_write_bandwidth

    @pytest.mark.parametrize(
        "field",
        ["route_cost", "probe_cost", "result_cost",
         "disk_write_bandwidth", "disk_read_bandwidth", "network_bandwidth"],
    )
    def test_positive_required(self, field):
        with pytest.raises(ValueError):
            CostModel(**{field: 0})

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            CostModel(network_latency=-1)
        with pytest.raises(ValueError):
            CostModel(disk_seek_time=-1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("route_cost", NAN),
            ("probe_cost", NAN),
            ("result_cost", NAN),
            ("disk_write_bandwidth", NAN),
            ("disk_read_bandwidth", NAN),
            ("disk_seek_time", NAN),
            ("network_latency", NAN),
            ("network_bandwidth", NAN),
            ("serialize_cost_per_byte", NAN),
            ("serialize_cost_per_byte", -1e-3),
            ("control_message_bytes", NAN),
            ("control_message_bytes", 0),
            ("control_message_bytes", -10_000_000),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        # each of these used to be accepted and broke the run mid-way
        with pytest.raises(ValueError):
            CostModel(**{field: value})

    def test_frozen(self):
        cost = CostModel()
        with pytest.raises(AttributeError):
            cost.probe_cost = 1.0  # type: ignore[misc]
