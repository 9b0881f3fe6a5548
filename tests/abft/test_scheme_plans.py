"""Tests for scheme cost plans — pinning the paper's Table 1 ratios."""

import pytest

from repro.abft import get_scheme, list_schemes
from repro.config import DEFAULT_CONSTANTS
from repro.gemm import GemmProblem, TileConfig, mainloop_cost
from repro.gpu import T4


@pytest.fixture
def tile():
    return TileConfig(mb=128, nb=128, kb=32, mw=64, nw=64, mt=16, nt=8)


@pytest.fixture
def problem():
    return GemmProblem(512, 512, 512)


def _extra_tc(scheme_name, problem, tile):
    base = mainloop_cost(problem, tile).tc_flops
    plan = get_scheme(scheme_name).plan(problem, tile)
    return plan.kernels[0].work.matmul_flops - base


class TestTable1TensorCoreRatios:
    """Table 1: extra MMAs per K-step are Mt*Nt/2 (replication), 1
    (two-sided), Mt/2 (one-sided) against a mainloop of Mt*Nt/2."""

    def test_one_sided_ratio_is_one_over_nt(self, problem, tile):
        base = mainloop_cost(problem, tile).tc_flops
        assert _extra_tc("thread_onesided", problem, tile) == pytest.approx(
            base / tile.nt
        )

    def test_two_sided_ratio_is_two_over_mtnt(self, problem, tile):
        base = mainloop_cost(problem, tile).tc_flops
        assert _extra_tc("thread_twosided", problem, tile) == pytest.approx(
            base * 2.0 / (tile.mt * tile.nt)
        )

    def test_replication_doubles_tensor_work(self, problem, tile):
        base = mainloop_cost(problem, tile).tc_flops
        for name in ("replication_single", "replication_traditional"):
            assert _extra_tc(name, problem, tile) == pytest.approx(base)

    def test_table1_ordering(self, problem, tile):
        # two-sided < one-sided < replication in extra Tensor-Core work.
        two = _extra_tc("thread_twosided", problem, tile)
        one = _extra_tc("thread_onesided", problem, tile)
        rep = _extra_tc("replication_single", problem, tile)
        assert two < one < rep

    def test_global_adds_no_mainloop_tensor_work(self, problem, tile):
        assert _extra_tc("global", problem, tile) == pytest.approx(0.0)


class TestTable1ChecksumOps:
    def test_checksum_alu_ordering(self, problem, tile):
        """Table 1: checksum ops are 0 (replication), O(Nt) (one-sided),
        O(Mt+Nt) (two-sided) per K-step."""
        base = mainloop_cost(problem, tile).alu_lane_ops

        def extra_alu(name):
            plan = get_scheme(name).plan(problem, tile)
            return plan.kernels[0].work.alu_ops - base

        rep = extra_alu("replication_single")
        one = extra_alu("thread_onesided")
        two = extra_alu("thread_twosided")
        # Replication's only ALU cost is the final compare (no per-step
        # checksum work), so per-step ordering shows up at large K.
        assert rep < one < two


class TestStructuralProperties:
    def test_thread_schemes_add_no_bytes(self, problem, tile):
        """The §3.5 design principle: thread-level ABFT performs zero
        additional loads/stores."""
        base = mainloop_cost(problem, tile).dram_bytes
        for name in ("thread_onesided", "thread_twosided",
                     "replication_single", "replication_traditional"):
            plan = get_scheme(name).plan(problem, tile)
            assert plan.kernels[0].work.dram_bytes == pytest.approx(base)

    def test_thread_schemes_single_kernel(self, problem, tile):
        for name in ("thread_onesided", "thread_twosided"):
            plan = get_scheme(name).plan(problem, tile)
            assert len(plan.kernels) == 1
            assert plan.kernels[0].work.launches == 1

    def test_global_launches_check_kernel(self, problem, tile):
        plan = get_scheme("global").plan(problem, tile)
        assert len(plan.kernels) == 2
        labels = [k.label for k in plan.kernels]
        assert "abft-check" in labels

    def test_global_check_kernel_partially_hidden(self, problem, tile):
        plan = get_scheme("global").plan(problem, tile)
        check = next(k for k in plan.kernels if k.label == "abft-check")
        assert check.visible_fraction == pytest.approx(
            1.0 - DEFAULT_CONSTANTS.check_kernel_overlap
        )

    def test_traditional_replication_doubles_accumulator_registers(
        self, problem, tile
    ):
        base_regs = mainloop_cost(problem, tile).registers_per_thread
        plan = get_scheme("replication_traditional").plan(problem, tile)
        assert (
            plan.kernels[0].work.registers_per_thread
            == base_regs + tile.mt * tile.nt
        )

    def test_single_accumulator_keeps_registers_lean(self, problem, tile):
        base_regs = mainloop_cost(problem, tile).registers_per_thread
        plan = get_scheme("replication_single").plan(problem, tile)
        assert plan.kernels[0].work.registers_per_thread <= base_regs + 4

    def test_modeled_time_positive_for_all_schemes(self, problem, tile):
        from repro.errors import OccupancyError

        for name in list_schemes():
            plan = get_scheme(name).plan(problem, tile)
            try:
                assert plan.modeled_time(T4) > 0
            except OccupancyError:
                # Traditional replication's doubled accumulators exceed
                # the 255-register cap on the 16x8 thread tile — the
                # very limitation §4 describes; the profiler falls back
                # to smaller tiles for it.
                assert name == "replication_traditional"

    @pytest.mark.parametrize("name", list_schemes())
    @pytest.mark.parametrize("dtype", ["fp16", "int8"])
    def test_shared_mainloop_cost_gives_the_same_plan(self, name, dtype, problem, tile):
        constants = DEFAULT_CONSTANTS.with_overrides(fp16_bytes=1 if dtype == "int8" else 2)
        scheme = get_scheme(name, dtype=dtype)
        cost = mainloop_cost(problem, tile, constants)
        assert scheme.plan(problem, tile, constants, cost=cost) == scheme.plan(
            problem, tile, constants
        )

    def test_kernel_timings_labels(self, problem, tile):
        plan = get_scheme("global").plan(problem, tile)
        timings = plan.kernel_timings(T4)
        assert set(timings) == {"mainloop+fused-epilogue", "abft-check"}
        assert timings["abft-check"] < timings["mainloop+fused-epilogue"]


class TestOccupancyDrivenSlowdown:
    def test_traditional_replication_slower_than_single_under_profiler(self):
        """Paper §4: traditional replication's register doubling limits
        occupancy/tile choices and slows execution; the single-
        accumulation variant 'alleviates the occupancy-related
        slowdowns'.  Compared at each scheme's best configuration."""
        from repro.core import PredeploymentProfiler

        prof = PredeploymentProfiler(
            T4, schemes=("replication_single", "replication_traditional")
        )
        entries = prof.profile(GemmProblem(1024, 1024, 1024))
        assert (
            entries["replication_traditional"].time_s
            > entries["replication_single"].time_s
        )

    def test_big_tile_traditional_replication_unschedulable(self):
        """On the 16x8 thread tile, doubling the 128 accumulators blows
        the 255-register cap entirely — the extreme form of §4."""
        from repro.errors import OccupancyError

        problem = GemmProblem(2048, 2048, 2048)
        tile = TileConfig(mb=128, nb=128, kb=32, mw=64, nw=64, mt=16, nt=8)
        plan = get_scheme("replication_traditional").plan(problem, tile)
        with pytest.raises(OccupancyError):
            plan.modeled_time(T4)
