"""Tests for the kernel latency model."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.config import DEFAULT_CONSTANTS
from repro.errors import ConfigurationError, OccupancyError
from repro.gpu import A100, T4, DeviceTable, time_kernel
from repro.gpu.timing import KernelWork


def _work(**overrides):
    base = dict(
        matmul_flops=1e9,
        alu_ops=1e8,
        dram_bytes=1e6,
        issue_slots=1e6,
        blocks=40,
        threads_per_block=128,
        registers_per_thread=64,
        launches=1,
    )
    base.update(overrides)
    return KernelWork(**base)


class TestRooflineBehaviour:
    def test_compute_bound_kernel_is_tensor_critical(self):
        t = time_kernel(T4, _work(matmul_flops=1e12, dram_bytes=1e3))
        assert t.critical_pipe == "tensor"

    def test_bandwidth_bound_kernel_is_memory_critical(self):
        t = time_kernel(T4, _work(matmul_flops=1e6, dram_bytes=1e9))
        assert t.critical_pipe == "memory"

    def test_time_includes_launch_overhead(self):
        t = time_kernel(T4, _work())
        assert t.total_s >= t.launch_s
        assert t.launch_s == pytest.approx(DEFAULT_CONSTANTS.launch_overhead_s)

    def test_multiple_launches_scale_overhead(self):
        one = time_kernel(T4, _work(launches=1))
        two = time_kernel(T4, _work(launches=2))
        assert two.launch_s == pytest.approx(2 * one.launch_s)

    def test_tiny_kernel_is_launch_dominated(self):
        # The DLRM batch-1 regime: microseconds of work behind a 3us launch.
        t = time_kernel(T4, _work(matmul_flops=1e5, alu_ops=1e4,
                                  dram_bytes=1e4, issue_slots=1e3, blocks=1))
        assert t.launch_s / t.total_s > 0.5


class TestUtilization:
    def test_partial_wave_penalizes_throughput(self):
        few_blocks = time_kernel(T4, _work(blocks=4))
        many_blocks = time_kernel(T4, _work(blocks=40))
        assert few_blocks.utilization == pytest.approx(0.1)
        assert many_blocks.utilization == pytest.approx(1.0)
        assert few_blocks.total_s > many_blocks.total_s

    def test_wave_quantization_kicks_in_above_one_wave(self):
        # 40 SMs and >= 2 blocks/SM resident: 700 blocks of this kernel
        # leave a tail wave.
        t = time_kernel(T4, _work(blocks=700))
        assert t.wave_quantization > 1.0

    def test_single_wave_not_quantized(self):
        t = time_kernel(T4, _work(blocks=40))
        assert t.wave_quantization == 1.0


class TestOccupancyCoupling:
    def test_low_occupancy_derates_memory(self):
        # Same memory-bound work, but a huge shared-memory footprint
        # leaves one resident block (4 warps, occupancy 0.125 < knee
        # 0.25), stretching memory-bound time.
        lean = time_kernel(T4, _work(dram_bytes=1e9))
        fat = time_kernel(T4, _work(dram_bytes=1e9, smem_per_block=40 * 1024))
        assert fat.occupancy.occupancy < lean.occupancy.occupancy
        assert fat.occupancy.occupancy < DEFAULT_CONSTANTS.mem_latency_occupancy_knee
        assert fat.total_s > lean.total_s

    def test_unschedulable_kernel_raises(self):
        with pytest.raises(OccupancyError):
            time_kernel(T4, _work(registers_per_thread=1000))


class TestDeviceTable:
    def test_table_gives_bit_identical_timings(self):
        table = DeviceTable(T4)
        works = [_work(), _work(blocks=700), _work(dram_bytes=1e9, smem_per_block=40 * 1024)]
        for work in works * 2:
            assert time_kernel(T4, work, table=table) == time_kernel(T4, work)

    def test_table_memoizes_per_launch_shape(self):
        table = DeviceTable(T4)
        first = time_kernel(T4, _work(blocks=4), table=table).occupancy
        again = time_kernel(T4, _work(blocks=400), table=table).occupancy
        assert again is first
        assert list(table._occupancy) == [(128, 64, 0)]

    def test_unschedulable_shape_raises_on_every_lookup(self):
        table = DeviceTable(T4)
        for _ in range(2):
            with pytest.raises(OccupancyError):
                time_kernel(T4, _work(registers_per_thread=1000), table=table)
        assert table._occupancy == {}

    def test_racing_threads_agree_with_serial_pricing(self):
        works = [
            _work(registers_per_thread=r, smem_per_block=s)
            for r in range(32, 160, 8)
            for s in (0, 8 * 1024, 40 * 1024)
        ]
        expected = [time_kernel(T4, w) for w in works]
        table = DeviceTable(T4)
        start = threading.Barrier(6)

        def price():
            start.wait(timeout=10)
            return [time_kernel(T4, w, table=table) for w in works]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                results = [f.result(timeout=30) for f in [pool.submit(price) for _ in range(6)]]
        finally:
            sys.setswitchinterval(interval)
        assert all(result == expected for result in results)
        assert len(table._occupancy) == len(works)

    def test_table_for_another_device_rejected(self):
        with pytest.raises(ConfigurationError):
            time_kernel(T4, _work(), table=DeviceTable(A100))

    def test_table_for_other_constants_rejected(self):
        slow_launch = DEFAULT_CONSTANTS.with_overrides(launch_overhead_s=1e-3)
        with pytest.raises(ConfigurationError):
            time_kernel(T4, _work(), table=DeviceTable(T4, slow_launch))


class TestValidation:
    def test_rejects_negative_work(self):
        with pytest.raises(ConfigurationError):
            KernelWork(
                matmul_flops=-1.0, alu_ops=0, dram_bytes=0, issue_slots=0,
                blocks=1, threads_per_block=32, registers_per_thread=32,
            )

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigurationError):
            KernelWork(
                matmul_flops=0, alu_ops=0, dram_bytes=0, issue_slots=0,
                blocks=0, threads_per_block=32, registers_per_thread=32,
            )
