import pytest

from gridcosim.kernel import (
    CycleWithoutTimeShift,
    DuplicateId,
    InvalidStepSize,
    Kernel,
    KernelError,
    SimulatorDescriptor,
    SimulatorFault,
    UnknownEndpoint,
    UnwiredInput,
)


def null_sim(t, inputs):
    return {}


def recorder(steps, sid):
    """A step function that appends (t, sid) to `steps` on every call."""
    def step(t, _inputs):
        steps.append((t, sid))
        return {}
    return step


def make(step=60, sid="sim", provides=(), consumes=(), defaults=()):
    return SimulatorDescriptor(
        id=sid, step_size=step, provides=tuple(provides), consumes=tuple(consumes),
        input_defaults=tuple(defaults),
    )


class TestRegistration:
    def test_first_registration_accepted(self):
        kernel = Kernel()
        assert kernel.register_simulator(make(sid="grid"), null_sim) == "grid"

    def test_duplicate_id_rejected(self):
        kernel = Kernel()
        kernel.register_simulator(make(sid="grid"), null_sim)
        with pytest.raises(DuplicateId):
            kernel.register_simulator(make(sid="grid"), null_sim)

    def test_non_positive_step_rejected(self):
        kernel = Kernel()
        with pytest.raises(InvalidStepSize):
            kernel.register_simulator(make(step=0), null_sim)


class TestScheduling:
    def test_single_sim_step_times(self):
        kernel = Kernel()
        times = []
        kernel.register_simulator(
            make(step=60, sid="a"), lambda t, _i: times.append(t) or {}
        )
        report = kernel.run(300)
        assert times == [0, 60, 120, 180, 240]
        assert report.step_counts["a"] == 5

    def test_mixed_step_sizes_match_hand_enumeration(self):
        kernel = Kernel()
        seen = {sid: [] for sid in "abcd"}
        for sid, step in (("a", 60), ("b", 60), ("c", 1), ("d", 900)):
            kernel.register_simulator(
                make(step=step, sid=sid),
                lambda t, _i, s=sid: seen[s].append(t) or {},
            )
        kernel.run(900)
        assert seen["a"] == list(range(0, 900, 60))
        assert seen["b"] == list(range(0, 900, 60))
        assert seen["c"] == list(range(0, 900, 1))
        assert seen["d"] == [0]

    def test_no_step_off_multiple(self):
        kernel = Kernel()
        times = []
        kernel.register_simulator(make(step=7, sid="x"), lambda t, _i: times.append(t) or {})
        kernel.register_simulator(make(step=5, sid="y"), null_sim)
        kernel.run(70)
        assert all(t % 7 == 0 for t in times)

    def test_chain_topological_order(self):
        kernel = Kernel()
        steps = []
        for sid in ("c", "b", "a"):  # registered backwards on purpose
            kernel.register_simulator(
                make(sid=sid, provides=[("e", "v")], consumes=[("e", "v")],
                     defaults=[(("e", "v"), 0)]),
                recorder(steps, sid),
            )
        kernel.connect(("a", "e", "v"), ("b", "e", "v"))
        kernel.connect(("b", "e", "v"), ("c", "e", "v"))
        kernel.run(120)
        per_step = [sid for (_t, sid) in steps]
        assert per_step == ["a", "b", "c", "a", "b", "c"]

    def test_diamond_ties_broken_by_registration(self):
        kernel = Kernel()
        steps = []
        for sid in ("a", "b", "c", "d"):
            kernel.register_simulator(
                make(sid=sid, provides=[("e", "v")], consumes=[("e", "v")],
                     defaults=[(("e", "v"), 0)]),
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
        kernel = Kernel()

        def boom(t, _i):
            if t == 120:
                raise ValueError("broken")
            return {}

        kernel.register_simulator(make(sid="f", step=60), boom)
        with pytest.raises(SimulatorFault) as err:
            kernel.run(300)
        assert err.value.sim_id == "f"
        assert err.value.step_time == 120


class TestLinks:
    def test_unknown_endpoint(self):
        kernel = Kernel()
        kernel.register_simulator(make(sid="a", provides=[("e", "v")]), null_sim)
        kernel.register_simulator(make(sid="b", consumes=[("e", "v")]), null_sim)
        with pytest.raises(UnknownEndpoint):
            kernel.connect(("a", "e", "nope"), ("b", "e", "v"))
        with pytest.raises(UnknownEndpoint):
            kernel.connect(("zz", "e", "v"), ("b", "e", "v"))

    def test_cycle_without_time_shift_rejected(self):
        kernel = Kernel()
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
        kernel = Kernel()
        a_inputs, b_inputs = [], []

        def sim_a(t, inputs):
            a_inputs.append(inputs[("e", "fromb")])
            return {("e", "v"): t}

        def sim_b(t, inputs):
            b_inputs.append(inputs[("e", "froma")])
            return {("e", "v"): inputs[("e", "froma")]}

        kernel.register_simulator(
            make(sid="a", provides=[("e", "v")], consumes=[("e", "fromb")],
                 defaults=[(("e", "fromb"), -1)]),
            sim_a,
        )
        kernel.register_simulator(
            make(sid="b", provides=[("e", "v")], consumes=[("e", "froma")]), sim_b
        )
        kernel.connect(("a", "e", "v"), ("b", "e", "froma"))
        kernel.connect(("b", "e", "v"), ("a", "e", "fromb"), time_shifted=True)
        kernel.run(180)
        # b sees a's value of the same step
        assert b_inputs == [0, 60, 120]
        # a sees b's value of the previous step; declared default at t=0
        assert a_inputs == [-1, 0, 60]

    def test_faster_consumer_reads_latest_value_then_default(self):
        # p steps every 60 s, c every 20 s over a time-shifted link: c reads
        # the default until p's first value arrives, then p's latest value
        kernel = Kernel()
        seen = []
        kernel.register_simulator(
            make(sid="p", step=60, provides=[("e", "v")]), lambda t, _i: {("e", "v"): t}
        )
        kernel.register_simulator(
            make(sid="c", step=20, consumes=[("e", "v")], defaults=[(("e", "v"), -1)]),
            lambda t, inputs: seen.append((t, inputs[("e", "v")])) or {},
        )
        kernel.connect(("p", "e", "v"), ("c", "e", "v"), time_shifted=True)
        kernel.run(180)
        assert seen == [
            (0, -1), (20, 0), (40, 0), (60, 0),
            (80, 60), (100, 60), (120, 60), (140, 120), (160, 120),
        ]

    def test_wired_input_never_emitted_reads_default(self):
        kernel = Kernel()
        seen = []
        kernel.register_simulator(make(sid="p", provides=[("e", "v")]), null_sim)
        kernel.register_simulator(
            make(sid="c", consumes=[("e", "v")], defaults=[(("e", "v"), 7)]),
            lambda t, inputs: seen.append(inputs[("e", "v")]) or {},
        )
        kernel.connect(("p", "e", "v"), ("c", "e", "v"))
        kernel.run(180)
        assert seen == [7, 7, 7]

    def test_second_link_into_one_input_rejected(self):
        kernel = Kernel()
        for sid in ("a", "b", "c"):
            kernel.register_simulator(
                make(sid=sid, provides=[("e", "v")], consumes=[("e", "v")]), null_sim
            )
        kernel.connect(("a", "e", "v"), ("c", "e", "v"))
        for src, shifted in ((("a", "e", "v"), False), (("b", "e", "v"), True)):
            with pytest.raises(KernelError, match="already wired"):
                kernel.connect(src, ("c", "e", "v"), time_shifted=shifted)

    def test_unwired_input_rejected(self):
        kernel = Kernel()
        kernel.register_simulator(make(sid="a", consumes=[("e", "v")]), null_sim)
        with pytest.raises(UnwiredInput):
            kernel.run(60)

    def test_monotone_step_times(self):
        kernel = Kernel()
        steps = []
        kernel.register_simulator(make(sid="a", step=30), recorder(steps, "a"))
        kernel.register_simulator(make(sid="b", step=45), recorder(steps, "b"))
        kernel.run(450)
        per_sim = {}
        for t, sid in steps:
            per_sim.setdefault(sid, []).append(t)
        for times in per_sim.values():
            assert all(b > a for a, b in zip(times, times[1:]))


def test_report_text_format():
    kernel = Kernel()
    kernel.register_simulator(make(sid="only", step=60), null_sim)
    report = kernel.run(120)
    text = report.to_text()
    assert "until_s: 120" in text
    assert "steps.only: 2" in text
    assert "wall_seconds:" in text
