"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.gemm import GemmProblem, TileConfig


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for reproducible tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_operands(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A modest 96x40 @ 40x48 FP16 operand pair with benign magnitudes."""
    a = (rng.standard_normal((96, 40)) * 0.5).astype(np.float16)
    b = (rng.standard_normal((40, 48)) * 0.5).astype(np.float16)
    return a, b


@pytest.fixture
def small_problem() -> GemmProblem:
    """The GemmProblem matching ``small_operands``."""
    return GemmProblem(96, 48, 40)


@pytest.fixture
def small_tile() -> TileConfig:
    """A small tile configuration legal for any problem."""
    return TileConfig(mb=64, nb=32, kb=32, mw=32, nw=16, mt=4, nt=4)


def os_threads() -> int:
    """This process's OS thread count (0 where ``/proc`` is absent)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@pytest.fixture(autouse=True)
def fork_single_threaded(monkeypatch):
    """Fail a test that forks while its process runs another OS thread.

    A lock another thread holds at the fork stays held in the child,
    and CPython 3.12 warns on such a fork.  This wraps ``os.fork`` (the
    ``fork`` start method of ``multiprocessing`` calls it) and reads
    the parent's ``Threads:`` right after each fork, the count CPython
    3.12 checks before it warns.
    """
    fork = os.fork
    crowded: list[int] = []

    def probed_fork() -> int:
        pid = fork()
        if pid:
            threads = os_threads()
            if threads > 1:
                crowded.append(threads)
        return pid

    monkeypatch.setattr(os, "fork", probed_fork)
    yield
    if crowded:
        pytest.fail(
            f"forked while the process ran {crowded} OS threads", pytrace=False
        )
