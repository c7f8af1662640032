import pytest

from gridcosim.kernel import (
    Kernel,
    KernelError,
    RunReport,
    SimulatorDescriptor,
    SimulatorFault,
)


def null_sim(t, values):
    return {}


def make(sid="sim"):
    return SimulatorDescriptor(id=sid)


def seen_by(kernel, sid, sources, step=null_sim):
    """Register `sid` with `step`, recording per step what it reads of each
    simulator in `sources`; returns the list of records."""
    seen = []

    def recording(t, values):
        seen.append({src: dict(values[src]) for src in sources})
        return step(t, values)

    kernel.register_simulator(make(sid), recording)
    return seen


class TestRegistration:
    def test_first_registration_accepted(self):
        kernel = Kernel(60)
        assert kernel.register_simulator(make(sid="grid"), null_sim) == "grid"


class TestScheduling:
    def test_single_sim_step_times(self):
        kernel = Kernel(60)
        times = []
        kernel.register_simulator(
            make(sid="a"), lambda t, _values: times.append(t) or {}
        )
        report = kernel.run(300)
        assert times == [0, 60, 120, 180, 240]
        assert report.step_counts["a"] == 5

    def test_every_sim_steps_once_per_step_in_registration_order(self):
        kernel = Kernel(60)
        steps = []
        for sid in ("c", "a", "b"):
            kernel.register_simulator(
                make(sid), lambda t, _values, sid=sid: steps.append((t, sid)) or {}
            )
        report = kernel.run(150)  # a partial last step is still a step
        assert steps == [(t, sid) for t in (0, 60, 120) for sid in ("c", "a", "b")]
        assert report.until == 150
        assert list(report.step_counts.items()) == [("c", 3), ("a", 3), ("b", 3)]

    @pytest.mark.parametrize("until", [0, -60])
    def test_non_positive_until_rejected(self, until):
        kernel = Kernel(60)
        kernel.register_simulator(make(), null_sim)
        with pytest.raises(KernelError, match="until must be > 0"):
            kernel.run(until)

    def test_simulator_fault_aborts(self):
        kernel = Kernel(60)
        after = []

        def boom(t, _values):
            if t == 120:
                raise ValueError("broken")
            return {}

        kernel.register_simulator(make(sid="f"), boom)
        kernel.register_simulator(make(sid="g"), lambda t, _v: after.append(t) or {})
        with pytest.raises(SimulatorFault) as err:
            kernel.run(300)
        assert err.value.sim_id == "f"
        assert err.value.step_time == 120
        assert isinstance(err.value.cause, ValueError)
        assert err.value.__cause__ is err.value.cause
        assert str(err.value) == "simulator 'f' failed at t=120: ValueError('broken')"
        assert after == [0, 60]  # the rest of the faulted step does not run


class TestValues:
    def test_earlier_sim_read_at_this_step_later_one_a_step_before(self):
        # a emits its step time; b, registered after it, echoes what it saw
        # of a: b reads a's value of this step, a reads b's of the step before
        kernel = Kernel(60)
        a_seen = seen_by(kernel, "a", ["b"], lambda t, _values: {("e", "v"): t})
        b_seen = seen_by(kernel, "b", ["a"], lambda t, values: dict(values["a"]))
        kernel.run(180)
        assert b_seen == [{"a": {("e", "v"): t}} for t in (0, 60, 120)]
        assert a_seen == [{"b": {}}, {"b": {("e", "v"): 0}}, {"b": {("e", "v"): 60}}]

    def test_own_outputs_read_a_step_late(self):
        kernel = Kernel(60)
        seen = seen_by(kernel, "s", ["s"], lambda t, _values: {("e", "v"): t})
        kernel.run(180)
        assert seen == [{"s": {}}, {"s": {("e", "v"): 0}}, {"s": {("e", "v"): 60}}]

    def test_last_emitted_value_kept_per_attribute(self):
        # p emits x at t=0 only and y at every step: x keeps its value, y
        # moves on, and each of p's emissions updates only what it names
        kernel = Kernel(60)
        kernel.register_simulator(
            make("p"),
            lambda t, _values: {("e", "y"): t} if t else {("e", "x"): -1, ("e", "y"): t},
        )
        seen = seen_by(kernel, "c", ["p"])
        kernel.run(180)
        assert seen == [
            {"p": {("e", "x"): -1, ("e", "y"): t}} for t in (0, 60, 120)
        ]

    def test_no_entry_before_first_emission(self):
        # an attribute has no entry until its simulator first emits it, and a
        # simulator that never emits reads as empty
        kernel = Kernel(60)
        kernel.register_simulator(
            make("p"), lambda t, _values: {("e", "v"): t} if t >= 120 else None
        )
        kernel.register_simulator(make("quiet"), null_sim)
        seen = seen_by(kernel, "c", ["p", "quiet"])
        kernel.run(240)
        assert seen == [
            {"p": {}, "quiet": {}},
            {"p": {}, "quiet": {}},
            {"p": {("e", "v"): 120}, "quiet": {}},
            {"p": {("e", "v"): 180}, "quiet": {}},
        ]


def test_report_text_format():
    kernel = Kernel(60)
    kernel.register_simulator(make(sid="only"), null_sim)
    report = kernel.run(120)
    text = report.to_text()
    assert "until_s: 120" in text
    assert "steps.only: 2" in text
    assert "wall_seconds:" in text
    report = RunReport(until=180, step_counts={"grid": 3, "mtu": 3}, wall_seconds=0.0123)
    assert report.to_text() == (
        "until_s: 180\nsimulators: 2\nsteps.grid: 3\nsteps.mtu: 3\nwall_seconds: 0.012\n"
    )
