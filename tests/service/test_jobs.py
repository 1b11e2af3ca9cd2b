"""Job model: validation, round-trips, and the idempotency contract."""

from __future__ import annotations

import pytest

from repro.errors import JobError
from repro.service import (
    JOB_TERMINAL_PHASES,
    JobRecord,
    JobSpec,
    JobState,
    device_spec_from_dict,
    new_job_id,
)


def make_spec(**overrides) -> JobSpec:
    kwargs = dict(
        base={"$spec": "unit-test", "knob": 1, "nested": {"a": [1, 2]}},
        path="cantilever.length_um",
        values=(100.0, 200.0),
        duration=0.01,
    )
    kwargs.update(overrides)
    return JobSpec(**kwargs)


class TestJobSpec:
    def test_round_trips_through_json(self):
        spec = make_spec(tenant="alice", priority=3, chunk_size=2)
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_values_normalize_to_float_tuple(self):
        spec = make_spec(values=[100, 200])
        assert spec.values == (100.0, 200.0)
        assert isinstance(spec.values, tuple)

    def test_base_is_immutable(self):
        spec = make_spec()
        with pytest.raises(TypeError):
            spec.base["knob"] = 2
        with pytest.raises(TypeError):
            spec.base["nested"].update({"b": 1})

    @pytest.mark.parametrize("overrides, path_fragment", [
        (dict(base={"no": "kind"}), "base"),
        (dict(path=""), "path"),
        (dict(values=()), "values"),
        (dict(values=("abc",)), "values"),
        (dict(values=(float("nan"),)), "values"),
        (dict(duration=0.0), "duration"),
        (dict(duration=float("inf")), "duration"),
        (dict(tenant="  "), "tenant"),
        (dict(priority="high"), "priority"),
        # fields deleted when every job became a chunked job: a spec
        # still carrying one is refused by name
        (dict(backend="quantum"), "backend"),
        (dict(workers=-1), "workers"),
        (dict(retries=-2), "retries"),
        (dict(timeout=0.0), "timeout"),
    ])
    def test_validation_names_the_field(self, overrides, path_fragment):
        with pytest.raises(JobError) as excinfo:
            JobSpec.from_dict({**make_spec().to_dict(), **overrides})
        assert path_fragment in str(excinfo.value)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(JobError, match="deadline"):
            JobSpec.from_dict({**make_spec().to_dict(), "deadline": 5})

    def test_from_json_rejects_garbage(self):
        with pytest.raises(JobError, match="invalid JSON"):
            JobSpec.from_json("{not json")


class TestWorkHash:
    """work_hash keys the *computation*, not the requester or the executor."""

    def test_ignores_tenant_priority_and_executor_knobs(self):
        reference = make_spec().work_hash()
        for overrides in (
            dict(tenant="someone-else"),
            dict(priority=9),
            dict(chunk_size=1),
        ):
            assert make_spec(**overrides).work_hash() == reference

    @pytest.mark.parametrize("overrides", [
        dict(values=(100.0, 201.0)),
        dict(path="cantilever.width_um"),
        dict(duration=0.02),
        dict(base={"$spec": "unit-test", "knob": 2}),
    ])
    def test_changes_with_the_work(self, overrides):
        assert make_spec(**overrides).work_hash() != make_spec().work_hash()

    def test_stable_across_processes_shape(self):
        # dict key order must not matter (JSON from a client is unordered)
        a = make_spec(base={"$spec": "k", "x": 1, "y": 2})
        b = make_spec(base={"$spec": "k", "y": 2, "x": 1})
        assert a.work_hash() == b.work_hash()


class TestJobState:
    def test_defaults_and_terminal(self):
        state = JobState()
        assert state.phase == "queued"
        assert not state.terminal
        for phase in JOB_TERMINAL_PHASES:
            assert JobState(phase=phase).terminal

    def test_advanced_returns_new_snapshot(self):
        state = JobState(total=4)
        later = state.advanced(phase="running", completed=2)
        assert (later.phase, later.completed) == ("running", 2)
        assert (state.phase, state.completed) == ("queued", 0)

    def test_rejects_unknown_phase_and_negative_counters(self):
        with pytest.raises(JobError, match="phase"):
            JobState(phase="paused")
        with pytest.raises(JobError, match="completed"):
            JobState(completed=-1)


class TestJobRecord:
    def test_work_hash_autofilled_from_spec(self):
        spec = make_spec()
        record = JobRecord(job_id=new_job_id(), spec=spec)
        assert record.work_hash == spec.work_hash()

    def test_round_trips_through_json(self):
        record = JobRecord(
            job_id=new_job_id(),
            spec=make_spec(tenant="bob"),
            state=JobState(phase="done", total=2, completed=2,
                           submitted_at=1.5, finished_at=2.5),
            dedup_of="job-000000000000",
            result_key="abc123",
            resilience={"fallbacks": 0, "breakers": {}},
        )
        assert JobRecord.from_json(record.to_json()) == record

    def test_advanced_touches_only_state(self):
        record = JobRecord(job_id=new_job_id(), spec=make_spec())
        later = record.advanced(phase="running", started_at=1.0)
        assert later.state.phase == "running"
        assert later.spec == record.spec
        assert later.work_hash == record.work_hash
        assert record.state.phase == "queued"


class TestDeviceSpecFromDict:
    def test_rebuilds_reference_sensor(self):
        from repro.config import REFERENCE_RESONANT_SENSOR

        data = REFERENCE_RESONANT_SENSOR.to_dict()
        assert device_spec_from_dict(data) == REFERENCE_RESONANT_SENSOR

    def test_rejects_missing_and_unknown_kinds(self):
        with pytest.raises(JobError, match=r"\$spec"):
            device_spec_from_dict({"no": "kind"})
        with pytest.raises(JobError, match="unknown device spec kind"):
            device_spec_from_dict({"$spec": "not-a-device"})


def test_new_job_ids_are_unique_and_prefixed():
    ids = {new_job_id() for _ in range(64)}
    assert len(ids) == 64
    assert all(i.startswith("job-") for i in ids)
