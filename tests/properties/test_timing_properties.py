"""Property-based tests for the latency model and selection invariants."""

from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONSTANTS
from repro.core import IntensityGuidedABFT
from repro.gemm import GemmProblem
from repro.gpu import T4, time_kernel
from repro.gpu.timing import KernelWork


def _work(tc, alu, mem, issue, blocks):
    return KernelWork(
        matmul_flops=tc, alu_ops=alu, dram_bytes=mem, issue_slots=issue,
        blocks=blocks, threads_per_block=128, registers_per_thread=64,
    )


work_floats = st.floats(min_value=1.0, max_value=1e12, allow_nan=False)
blocks_ints = st.integers(min_value=1, max_value=10000)


class TestTimingMonotonicity:
    @given(tc=work_floats, alu=work_floats, mem=work_floats,
           issue=work_floats, blocks=blocks_ints, factor=st.floats(1.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_more_tensor_work_never_faster(self, tc, alu, mem, issue, blocks, factor):
        base = time_kernel(T4, _work(tc, alu, mem, issue, blocks)).total_s
        more = time_kernel(T4, _work(tc * factor, alu, mem, issue, blocks)).total_s
        assert more >= base - 1e-15

    @given(tc=work_floats, alu=work_floats, mem=work_floats,
           issue=work_floats, blocks=blocks_ints)
    @settings(max_examples=60, deadline=None)
    def test_time_at_least_launch_plus_roofline(self, tc, alu, mem, issue, blocks):
        timing = time_kernel(T4, _work(tc, alu, mem, issue, blocks))
        assert timing.total_s >= timing.launch_s
        assert timing.total_s >= timing.pipe_times.bound

    @given(tc=work_floats, alu=work_floats, mem=work_floats,
           issue=work_floats, blocks=blocks_ints)
    @settings(max_examples=60, deadline=None)
    def test_critical_pipe_is_max(self, tc, alu, mem, issue, blocks):
        timing = time_kernel(T4, _work(tc, alu, mem, issue, blocks))
        times = timing.pipe_times
        assert times.bound == max(times.tensor, times.alu, times.memory, times.issue)


class TestSelectionInvariants:
    @given(m=st.integers(1, 3000), n=st.integers(1, 3000), k=st.integers(1, 3000))
    @settings(max_examples=25, deadline=None)
    def test_guided_is_argmin_of_candidates(self, m, n, k):
        guided = IntensityGuidedABFT(T4)
        sel = guided.select_for_problem(GemmProblem(m, n, k))
        assert sel.chosen_time_s == min(sel.scheme_times_s.values())
        assert sel.baseline_s <= sel.chosen_time_s + 1e-15

    @given(m=st.integers(8, 2048))
    @settings(max_examples=20, deadline=None)
    def test_square_selection_follows_roofline_broadly(self, m):
        """Far from the CMR boundary the profiler must agree with the
        AI-vs-CMR rule (near the boundary either answer is legitimate)."""
        problem = GemmProblem(m, m, m)
        ai = problem.arithmetic_intensity()
        guided = IntensityGuidedABFT(T4)
        chosen = guided.select_for_problem(problem).scheme
        if ai < T4.cmr / 2:
            assert chosen == "thread_onesided"
        elif ai > T4.cmr * 2:
            assert chosen == "global"


class TestConstantsRobustness:
    @given(
        launch=st.floats(1e-6, 6e-6),
        overlap=st.floats(0.0, 0.9),
        traffic=st.floats(0.1, 0.8),
    )
    @settings(max_examples=15, deadline=None)
    def test_guided_never_loses_under_perturbed_constants(
        self, launch, overlap, traffic
    ):
        """The by-design guarantee must hold for any reasonable
        calibration, not just the shipped one."""
        constants = DEFAULT_CONSTANTS.with_overrides(
            launch_overhead_s=launch,
            check_kernel_overlap=overlap,
            global_epilogue_c_traffic=traffic,
        )
        guided = IntensityGuidedABFT(T4, constants=constants)
        for size in (64, 512, 2048):
            sel = guided.select_for_problem(GemmProblem(size, size, size))
            assert sel.chosen_time_s <= min(sel.scheme_times_s.values()) + 1e-15
