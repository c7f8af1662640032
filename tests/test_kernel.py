import pytest

from gridcosim.kernel import (
    CycleWithoutTimeShift,
    DuplicateId,
    Kernel,
    KernelError,
    SimulatorDescriptor,
    SimulatorFault,
    UnknownEndpoint,
)


def null_sim(t, inputs):
    return {}


def recorder(steps, sid):
    """A step function that appends (t, sid) to `steps` on every call."""
    def step(t, _inputs):
        steps.append((t, sid))
        return {}
    return step


def make(sid="sim", provides=(), consumes=()):
    return SimulatorDescriptor(id=sid, provides=tuple(provides), consumes=tuple(consumes))


class TestRegistration:
    def test_first_registration_accepted(self):
        kernel = Kernel(60)
        assert kernel.register_simulator(make(sid="grid"), null_sim) == "grid"

    def test_duplicate_id_rejected(self):
        kernel = Kernel(60)
        kernel.register_simulator(make(sid="grid"), null_sim)
        with pytest.raises(DuplicateId):
            kernel.register_simulator(make(sid="grid"), null_sim)

    def test_non_positive_step_rejected(self):
        # with a step of 0 the clock would never advance
        with pytest.raises(KernelError):
            Kernel(0)


class TestScheduling:
    def test_single_sim_step_times(self):
        kernel = Kernel(60)
        times = []
        kernel.register_simulator(
            make(sid="a"), lambda t, _i: times.append(t) or {}
        )
        report = kernel.run(300)
        assert times == [0, 60, 120, 180, 240]
        assert report.step_counts["a"] == 5

    def test_chain_topological_order(self):
        kernel = Kernel(60)
        steps = []
        for sid in ("c", "b", "a"):  # registered backwards on purpose
            kernel.register_simulator(
                make(sid=sid, provides=[("e", "v")], consumes=[("e", "v")]),
                recorder(steps, sid),
            )
        kernel.connect(("a", "e", "v"), ("b", "e", "v"))
        kernel.connect(("b", "e", "v"), ("c", "e", "v"))
        kernel.run(120)
        per_step = [sid for (_t, sid) in steps]
        assert per_step == ["a", "b", "c", "a", "b", "c"]

    def test_diamond_ties_broken_by_registration(self):
        kernel = Kernel(60)
        steps = []
        for sid in ("a", "b", "c", "d"):
            kernel.register_simulator(
                make(sid=sid, provides=[("e", "v")], consumes=[("e", "v")]),
                recorder(steps, sid),
            )
        kernel.connect(("a", "e", "v"), ("b", "e", "v"))
        # c gets its input from a as well, via a second attribute name
        with pytest.raises(Exception):
            kernel.connect(("a", "e", "v"), ("b", "e", "v"))  # dst already wired
        kernel.connect(("a", "e", "v"), ("c", "e", "v"))
        kernel.connect(("b", "e", "v"), ("d", "e", "v"))
        kernel.run(60)
        assert [sid for (_t, sid) in steps] == ["a", "b", "c", "d"]

    def test_simulator_fault_aborts(self):
        kernel = Kernel(60)

        def boom(t, _i):
            if t == 120:
                raise ValueError("broken")
            return {}

        kernel.register_simulator(make(sid="f"), boom)
        with pytest.raises(SimulatorFault) as err:
            kernel.run(300)
        assert err.value.sim_id == "f"
        assert err.value.step_time == 120


class TestLinks:
    def test_unknown_endpoint(self):
        kernel = Kernel(60)
        kernel.register_simulator(make(sid="a", provides=[("e", "v")]), null_sim)
        kernel.register_simulator(make(sid="b", consumes=[("e", "v")]), null_sim)
        with pytest.raises(UnknownEndpoint):
            kernel.connect(("a", "e", "nope"), ("b", "e", "v"))
        with pytest.raises(UnknownEndpoint):
            kernel.connect(("zz", "e", "v"), ("b", "e", "v"))

    def test_cycle_without_time_shift_rejected(self):
        kernel = Kernel(60)
        for sid in ("a", "b"):
            kernel.register_simulator(
                make(sid=sid, provides=[("e", "v")], consumes=[("e", "v")]), null_sim
            )
        kernel.connect(("a", "e", "v"), ("b", "e", "v"))
        with pytest.raises(CycleWithoutTimeShift):
            kernel.connect(("b", "e", "v"), ("a", "e", "v"))

    def test_time_shifted_cycle_offsets(self):
        # a counts its own steps; b echoes what it saw from a.
        # a -> b unshifted (same step), b -> a shifted (previous step).
        kernel = Kernel(60)
        a_inputs, b_inputs = [], []

        def sim_a(t, inputs):
            a_inputs.append(inputs[("e", "fromb")])
            return {("e", "v"): t}

        def sim_b(t, inputs):
            b_inputs.append(inputs[("e", "froma")])
            return {("e", "v"): inputs[("e", "froma")]}

        kernel.register_simulator(
            make(sid="a", provides=[("e", "v")], consumes=[("e", "fromb")]), sim_a
        )
        kernel.register_simulator(
            make(sid="b", provides=[("e", "v")], consumes=[("e", "froma")]), sim_b
        )
        kernel.connect(("a", "e", "v"), ("b", "e", "froma"))
        kernel.connect(("b", "e", "v"), ("a", "e", "fromb"), time_shifted=True)
        kernel.run(180)
        # b sees a's value of the same step
        assert b_inputs == [0, 60, 120]
        # a sees b's value of the previous step; nothing yet at t=0
        assert a_inputs == [None, 0, 60]

    def test_time_shifted_input_keeps_last_earlier_value(self):
        # p emits only at t=0; over a time-shifted link c reads nothing at
        # t=0, then the value p last emitted at an earlier step
        kernel = Kernel(60)
        seen = []
        kernel.register_simulator(
            make(sid="p", provides=[("e", "v")]),
            lambda t, _i: {("e", "v"): t} if t == 0 else {},
        )
        kernel.register_simulator(
            make(sid="c", consumes=[("e", "v")]),
            lambda t, inputs: seen.append(inputs[("e", "v")]) or {},
        )
        kernel.connect(("p", "e", "v"), ("c", "e", "v"), time_shifted=True)
        kernel.run(180)
        assert seen == [None, 0, 0]

    def test_wired_input_never_emitted_reads_default(self):
        # an input with no value yet reads None, the one default
        kernel = Kernel(60)
        seen = []
        kernel.register_simulator(make(sid="p", provides=[("e", "v")]), null_sim)
        kernel.register_simulator(
            make(sid="c", consumes=[("e", "v")]),
            lambda t, inputs: seen.append(inputs[("e", "v")]) or {},
        )
        kernel.connect(("p", "e", "v"), ("c", "e", "v"))
        kernel.run(180)
        assert seen == [None, None, None]

    def test_second_link_into_one_input_rejected(self):
        kernel = Kernel(60)
        for sid in ("a", "b", "c"):
            kernel.register_simulator(
                make(sid=sid, provides=[("e", "v")], consumes=[("e", "v")]), null_sim
            )
        kernel.connect(("a", "e", "v"), ("c", "e", "v"))
        for src, shifted in ((("a", "e", "v"), False), (("b", "e", "v"), True)):
            with pytest.raises(KernelError, match="already wired"):
                kernel.connect(src, ("c", "e", "v"), time_shifted=shifted)

def test_report_text_format():
    kernel = Kernel(60)
    kernel.register_simulator(make(sid="only"), null_sim)
    report = kernel.run(120)
    text = report.to_text()
    assert "until_s: 120" in text
    assert "steps.only: 2" in text
    assert "wall_seconds:" in text
