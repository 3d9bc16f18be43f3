"""Scenario model: validation, JSON round-trips, replay identity."""

import io
import json

import pytest

from repro.check import Scenario, demo_clock_fault_scenario, run_scenario
from repro.check.scenario import FORMAT_VERSION, Fault, Op


def small_scenario() -> Scenario:
    return Scenario(
        name="unit",
        seed=11,
        n_clients=2,
        n_files=2,
        duration=10.0,
        drain=30.0,
        term=2.0,
        ops=(
            Op(at=0.5, client=0, kind="read", file=0),
            Op(at=1.0, client=1, kind="write", file=0),
            Op(at=2.0, client=0, kind="read", file=1),
        ),
        faults=(
            Fault("crash", at=3.0, host="c1", duration=2.0),
            Fault("partition", at=6.0, hosts=("c0",), duration=1.0),
        ),
    )


class TestSerialization:
    def test_json_round_trip_is_identity(self):
        scenario = small_scenario()
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_string_round_trip_is_identity(self):
        scenario = small_scenario()
        assert Scenario.loads(scenario.dumps()) == scenario

    def test_save_load_round_trip(self, tmp_path):
        scenario = small_scenario()
        path = str(tmp_path / "scenario.json")
        scenario.save(path)
        assert Scenario.load(path) == scenario

    def test_save_to_file_object(self):
        scenario = small_scenario()
        buffer = io.StringIO()
        scenario.save(buffer)
        assert Scenario.load(io.StringIO(buffer.getvalue())) == scenario

    def test_dumps_is_canonical(self):
        """Sorted keys: equal scenarios produce byte-equal files."""
        a, b = small_scenario(), small_scenario()
        assert a.dumps() == b.dumps()
        assert a.digest() == b.digest()

    def test_format_version_embedded(self):
        data = small_scenario().to_json()
        assert data["format"] == FORMAT_VERSION

    def test_newer_format_rejected(self):
        data = small_scenario().to_json()
        data["format"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            Scenario.from_json(data)

    def test_fault_defaults_pruned_from_json(self):
        fault = Fault("crash", at=1.0, host="c0", duration=2.0)
        data = fault.to_json()
        assert "delta" not in data and "drift" not in data and "rate" not in data
        assert Fault.from_json(json.loads(json.dumps(data))) == fault

    def test_default_scenario_json_has_no_workload_keys(self):
        """Digest-stability contract: pre-existing scenarios keep their
        digests, so the new fields must be pruned at their defaults."""
        data = small_scenario().to_json()
        assert "cache_capacity" not in data
        assert "eviction" not in data
        assert "workload" not in data

    def test_workload_fields_round_trip(self):
        import dataclasses

        from repro.workload.models import preset

        scenario = dataclasses.replace(
            small_scenario(),
            cache_capacity=8,
            eviction="lru-lfu",
            workload=preset("flash-crowd"),
        )
        again = Scenario.loads(scenario.dumps())
        assert again == scenario
        assert again.workload == preset("flash-crowd")
        assert again.digest() == scenario.digest()

    def test_unknown_workload_field_rejected_via_loads(self):
        """Satellite fix: an unknown workload field must raise, not be
        silently dropped (the replayed scenario would differ from what
        the artifact claims)."""
        import dataclasses

        from repro.errors import ScenarioError
        from repro.workload.models import preset

        scenario = dataclasses.replace(small_scenario(), workload=preset("zipf"))
        data = json.loads(scenario.dumps())
        data["workload"]["burstiness"] = 2.0
        with pytest.raises(ScenarioError, match="burstiness"):
            Scenario.loads(json.dumps(data))

    def test_non_object_workload_rejected(self):
        from repro.errors import ScenarioError

        data = small_scenario().to_json()
        data["workload"] = "zipf"
        with pytest.raises(ScenarioError, match="must be an object"):
            Scenario.from_json(data)

    def test_replay_from_file_reproduces_oracle_history(self, tmp_path):
        """The acceptance property: serialize -> load -> replay is identical."""
        scenario = demo_clock_fault_scenario()
        path = str(tmp_path / "demo.json")
        scenario.save(path)
        original = run_scenario(scenario)
        replayed = run_scenario(Scenario.load(path))
        assert replayed.fingerprint == original.fingerprint
        assert replayed.violations == original.violations


class TestValidation:
    def test_unknown_op_kind_rejected(self):
        scenario = small_scenario().with_events(
            [Op(at=1.0, client=0, kind="append", file=0)], []
        )
        with pytest.raises(ValueError, match="op kind"):
            scenario.validate()

    def test_op_client_out_of_range_rejected(self):
        scenario = small_scenario().with_events(
            [Op(at=1.0, client=9, kind="read", file=0)], []
        )
        with pytest.raises(ValueError, match="unknown client"):
            scenario.validate()

    def test_op_file_out_of_range_rejected(self):
        scenario = small_scenario().with_events(
            [Op(at=1.0, client=0, kind="read", file=9)], []
        )
        with pytest.raises(ValueError, match="unknown file"):
            scenario.validate()

    def test_unknown_fault_kind_rejected(self):
        scenario = small_scenario().with_events([], [Fault("meteor", at=1.0)])
        with pytest.raises(ValueError, match="fault kind"):
            scenario.validate()

    def test_partition_with_unknown_host_rejected(self):
        scenario = small_scenario().with_events(
            [], [Fault("partition", at=1.0, hosts=("c7",), duration=1.0)]
        )
        with pytest.raises(ValueError, match="unknown hosts"):
            scenario.validate()

    def test_crash_without_host_rejected(self):
        scenario = small_scenario().with_events([], [Fault("crash", at=1.0, duration=1.0)])
        with pytest.raises(ValueError, match="needs a host"):
            scenario.validate()

    def test_loss_rate_out_of_range_rejected(self):
        scenario = small_scenario().with_events(
            [], [Fault("loss", at=1.0, rate=1.5, duration=1.0)]
        )
        with pytest.raises(ValueError, match="out of range"):
            scenario.validate()

    @pytest.mark.parametrize(
        "fault, field",
        [
            # each of these used to pass validation and then crash the run
            # (or, for the crash, silently never restart the host)
            (Fault("partition", at=5.0, hosts=("c0",), duration=-2.0), "duration"),
            (Fault("loss", at=5.0, rate=0.5, duration=-2.0), "duration"),
            (Fault("crash", at=5.0, host="c1", duration=-2.0), "duration"),
            (Fault("clock_drift", at=1.0, host="c0", drift=-1.0), "drift"),
            (Fault("crash", at=float("nan"), host="c1", duration=1.0), "at"),
            (Fault("crash", at=-0.5, host="c1", duration=1.0), "at"),
            (Fault("partition", at=float("inf"), hosts=("c0",), duration=1.0), "at"),
            (Fault("crash", at=1.0, host="c1", duration=float("inf")), "duration"),
            (Fault("clock_drift", at=1.0, host="c0", drift=float("nan")), "drift"),
            (Fault("clock_step", at=1.0, host="c0", delta=float("-inf")), "delta"),
        ],
        ids=[
            "partition-negative-duration", "loss-negative-duration",
            "crash-negative-duration", "drift-stops-clock", "nan-at",
            "negative-at", "infinite-at", "infinite-duration", "nan-drift",
            "infinite-delta",
        ],
    )
    def test_unrunnable_fault_number_rejected(self, fault, field):
        scenario = small_scenario().with_events([], [fault])
        with pytest.raises(ValueError, match=f"{fault.kind} fault .*: {field} must be"):
            scenario.validate()

    def test_runnable_fault_numbers_accepted(self):
        small_scenario().with_events([], [
            Fault("crash", at=0.0, host="c1", duration=0.0),
            Fault("clock_drift", at=1.0, host="c0", drift=-0.99),
            Fault("clock_step", at=1.0, host="server", delta=-30.0),
        ]).validate()

    def test_bad_cache_capacity_rejected(self):
        import dataclasses

        scenario = dataclasses.replace(small_scenario(), cache_capacity=0)
        with pytest.raises(ValueError, match="cache_capacity"):
            scenario.validate()

    def test_unknown_eviction_rejected(self):
        import dataclasses

        scenario = dataclasses.replace(small_scenario(), eviction="clock")
        with pytest.raises(ValueError, match="eviction"):
            scenario.validate()

    def test_invalid_embedded_workload_rejected(self):
        import dataclasses

        from repro.workload.models import WorkloadSpec

        scenario = dataclasses.replace(
            small_scenario(), workload=WorkloadSpec(rate=0.0)
        )
        with pytest.raises(ValueError, match="rate"):
            scenario.validate()


class TestDangerDirections:
    """The §5 taxonomy is encoded on the Fault itself."""

    @pytest.mark.parametrize(
        "fault",
        [
            Fault("clock_step", at=1.0, host="c0", delta=-3.0),
            Fault("clock_drift", at=1.0, host="c1", drift=-0.3),
            Fault("clock_step", at=1.0, host="server", delta=3.0),
            Fault("clock_drift", at=1.0, host="server", drift=0.3),
        ],
    )
    def test_dangerous_directions(self, fault):
        assert fault.dangerous

    @pytest.mark.parametrize(
        "fault",
        [
            Fault("clock_step", at=1.0, host="c0", delta=3.0),
            Fault("clock_drift", at=1.0, host="c1", drift=0.3),
            Fault("clock_step", at=1.0, host="server", delta=-3.0),
            Fault("clock_drift", at=1.0, host="server", drift=-0.3),
            Fault("crash", at=1.0, host="c0", duration=1.0),
        ],
    )
    def test_safe_directions(self, fault):
        assert not fault.dangerous

    def test_scenario_surfaces_dangerous_fault(self):
        scenario = small_scenario().with_events(
            [], [Fault("clock_step", at=1.0, host="c0", delta=-3.0)]
        )
        assert scenario.has_dangerous_clock_fault
