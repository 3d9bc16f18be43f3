"""Unit tests for the production-shaped traffic models."""

import random

import pytest

from repro.errors import ScenarioError
from repro.types import FileClass
from repro.workload.models import (
    PRESETS,
    ParetoSampler,
    UniformSampler,
    WorkloadSpec,
    ZipfSampler,
    generate_trace,
    preset,
    sample_events,
    scenario_ops,
    with_capacity_ratio,
)


class TestSamplers:
    def test_zipf_weights_are_rank_ordered(self):
        sampler = ZipfSampler(8, alpha=1.2)
        assert sampler.weights == sorted(sampler.weights, reverse=True)
        assert sum(sampler.weights) == pytest.approx(1.0)

    def test_zipf_skew_grows_with_alpha(self):
        flat = ZipfSampler(16, alpha=0.5).weights[0]
        steep = ZipfSampler(16, alpha=2.0).weights[0]
        assert steep > flat

    def test_pareto_hot_set_carries_hot_mass(self):
        sampler = ParetoSampler(10, hot_fraction=0.2, hot_mass=0.8)
        assert sampler.hot_keys == 2
        assert sum(sampler.weights[:2]) == pytest.approx(0.8)
        assert sum(sampler.weights) == pytest.approx(1.0)

    def test_pareto_degenerates_to_uniform_with_one_key(self):
        sampler = ParetoSampler(1)
        assert sampler.weights == [1.0]
        assert sampler.sample(random.Random(0)) == 0

    def test_uniform_weights(self):
        assert UniformSampler(4).weights == [0.25] * 4

    def test_samples_stay_in_range(self):
        rng = random.Random(42)
        for sampler in (ZipfSampler(5), ParetoSampler(5), UniformSampler(5)):
            for _ in range(200):
                assert 0 <= sampler.sample(rng) < 5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(4, alpha=0.0)
        with pytest.raises(ValueError):
            ParetoSampler(4, hot_fraction=0.0)
        with pytest.raises(ValueError):
            ParetoSampler(4, hot_mass=1.0)
        with pytest.raises(ValueError):
            UniformSampler(0)

    def test_inverted_hot_set_rejected(self):
        """A "hot" set lighter per key than the tail is a misconfiguration."""
        with pytest.raises(ValueError, match="inverted hot set"):
            ParetoSampler(10, hot_fraction=0.9, hot_mass=0.2)


class TestWorkloadSpec:
    def test_presets_all_validate(self):
        for name, spec in PRESETS.items():
            spec.validate()
            assert preset(name) == spec

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown workload preset"):
            preset("tsunami")

    def test_default_spec_serializes_empty(self):
        """The digest-stability contract: a default spec adds no bytes."""
        assert WorkloadSpec().to_json() == {}

    def test_json_round_trip_is_identity(self):
        for spec in PRESETS.values():
            assert WorkloadSpec.from_json(spec.to_json()) == spec

    def test_unknown_field_rejected_not_dropped(self):
        """Satellite fix: silently dropping a field would replay a
        different workload than the artifact claims to describe."""
        data = preset("zipf").to_json()
        data["burstiness"] = 3.0
        with pytest.raises(ScenarioError, match="burstiness"):
            WorkloadSpec.from_json(data)

    def test_non_dict_rejected(self):
        with pytest.raises(ScenarioError, match="must be an object"):
            WorkloadSpec.from_json(["zipf"])

    def test_invalid_values_raise_scenario_error(self):
        with pytest.raises(ScenarioError, match="invalid workload"):
            WorkloadSpec.from_json({"kind": "zipf", "alpha": -1.0})

    def test_validation_catches_bad_fields(self):
        for bad in (
            WorkloadSpec(kind="gaussian"),
            WorkloadSpec(n_files=0),
            WorkloadSpec(rate=0.0),
            WorkloadSpec(p_write=1.5),
            WorkloadSpec(diurnal_depth=1.0),
            WorkloadSpec(flash_at=0.5, flash_width=0.0),
            WorkloadSpec(flash_at=0.5, flash_file=99),
        ):
            with pytest.raises(ValueError):
                bad.validate()

    def test_mix_shift_is_linear(self):
        spec = WorkloadSpec(p_write=0.0, p_write_end=1.0)
        assert spec.p_write_at(0.0, 100.0) == 0.0
        assert spec.p_write_at(50.0, 100.0) == pytest.approx(0.5)
        assert spec.p_write_at(100.0, 100.0) == 1.0

    def test_constant_mix_without_end(self):
        spec = WorkloadSpec(p_write=0.3)
        assert spec.p_write_at(77.0, 100.0) == 0.3

    def test_diurnal_trough_at_start(self):
        spec = WorkloadSpec(diurnal_depth=0.8, diurnal_periods=1.0)
        assert spec.rate_factor(0.0, 100.0) == pytest.approx(0.2)
        assert spec.rate_factor(50.0, 100.0) == pytest.approx(1.0)

    def test_no_diurnal_means_full_rate(self):
        assert WorkloadSpec().rate_factor(12.0, 100.0) == 1.0


class TestSampleEvents:
    def test_events_sorted_and_in_bounds(self):
        spec = preset("flash-crowd")
        events = sample_events(spec, 3, 60.0, seed=5)
        assert events == sorted(events)
        for at, client, kind, file in events:
            assert 0.0 <= at < 60.0
            assert 0 <= client < 3
            assert kind in ("read", "write")
            assert 0 <= file < spec.n_files

    def test_client_streams_independent_of_client_count(self):
        """Client i's stream is identical with 2 or 20 clients."""
        spec = preset("zipf")
        few = [e for e in sample_events(spec, 2, 30.0, seed=9) if e[1] == 1]
        many = [e for e in sample_events(spec, 20, 30.0, seed=9) if e[1] == 1]
        assert few == many

    def test_seed_changes_stream(self):
        spec = preset("pareto")
        assert sample_events(spec, 2, 30.0, seed=1) != sample_events(
            spec, 2, 30.0, seed=2
        )

    def test_flash_window_is_read_heavy_on_flash_file(self):
        spec = preset("flash-crowd")
        duration = 40.0
        events = sample_events(spec, 4, duration, seed=3)
        start = spec.flash_at * duration
        end = start + spec.flash_width * duration
        in_window = [e for e in events if start <= e[0] < end]
        on_target = [e for e in in_window if e[3] == spec.flash_file]
        # The boosted read stream dominates the window.
        assert len(on_target) > 0.8 * len(in_window)

    def test_diurnal_thins_the_trough(self):
        spec = WorkloadSpec(diurnal_depth=0.9, diurnal_periods=1.0, rate=5.0)
        events = sample_events(spec, 4, 100.0, seed=7)
        trough = sum(1 for e in events if e[0] < 25.0)
        peak = sum(1 for e in events if 37.5 <= e[0] < 62.5)
        assert peak > 2 * trough

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            sample_events(WorkloadSpec(), 0, 10.0, seed=0)
        with pytest.raises(ValueError):
            sample_events(WorkloadSpec(), 1, 0.0, seed=0)

    def test_scenario_ops_matches_sample_events(self):
        spec = preset("diurnal")
        assert scenario_ops(spec, 3, 25.0, seed=4) == sample_events(
            spec, 3, 25.0, seed=4
        )


class TestTraceAdapter:
    def test_flash_file_tagged_installed(self):
        spec = preset("flash-crowd")
        records = generate_trace(spec, 2, 30.0, seed=1)
        classes = {r.path: r.file_class for r in records}
        assert classes[f"/wl/f{spec.flash_file}"] is FileClass.INSTALLED
        normal = [p for p, c in classes.items() if c is FileClass.NORMAL]
        assert normal  # background keys stay normal

    def test_no_flash_means_all_normal(self):
        records = generate_trace(preset("zipf"), 2, 30.0, seed=1)
        assert all(r.file_class is FileClass.NORMAL for r in records)

    def test_client_and_path_naming(self):
        records = generate_trace(WorkloadSpec(n_files=4), 2, 20.0, seed=0)
        assert all(r.client in ("c0", "c1") for r in records)
        assert all(r.path.startswith("/wl/f") for r in records)


class TestCapacityRatio:
    def test_ratio_maps_to_capacity(self):
        assert with_capacity_ratio(WorkloadSpec(n_files=48), 4.0) == 12
        assert with_capacity_ratio(WorkloadSpec(n_files=8), 4.0) == 2

    def test_capacity_never_below_one(self):
        assert with_capacity_ratio(WorkloadSpec(n_files=2), 10.0) == 1

    def test_ratio_validated(self):
        with pytest.raises(ValueError):
            with_capacity_ratio(WorkloadSpec(), 0.0)
