"""Property tests: the batched injection engine equals sequential injection.

The contract pinned here is the batched engine's whole reason to be
trusted: for every scheme, every fault kind, both fault paths, and any
mix of trials, ``PreparedExecution.inject_batch`` must be bit-identical
— element for element — to running the same trials through sequential
``inject`` calls.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.abft import MultiChecksumGlobalABFT, get_scheme, list_schemes
from repro.faults import FaultKind, FaultPath, FaultSpec
from repro.gemm import TileConfig

TILE = TileConfig(mb=32, nb=32, kb=32, mw=16, nw=16, mt=4, nt=2)

ALL_SCHEMES = list_schemes() + ["global_multi"]

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)
kinds = st.sampled_from(list(FaultKind))
paths = st.sampled_from(list(FaultPath))
values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def make_scheme(name):
    if name == "global_multi":
        return MultiChecksumGlobalABFT(num_checksums=2)
    return get_scheme(name)


def _operands(seed, m=24, n=20, k=16):
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((m, k)) * 0.5).astype(np.float16)
    b = (rng.standard_normal((k, n)) * 0.5).astype(np.float16)
    return a, b


def _draw_spec(data, rows, cols):
    kind = data.draw(kinds)
    row = data.draw(st.integers(0, rows - 1))
    col = data.draw(st.integers(0, cols - 1))
    path = data.draw(paths)
    if kind in (FaultKind.ADD, FaultKind.SET):
        return FaultSpec(
            row=row, col=col, kind=kind, value=data.draw(values), path=path
        )
    bits = 16 if kind is FaultKind.BITFLIP_FP16 else 32
    bit = data.draw(st.integers(0, bits - 1))
    return FaultSpec(row=row, col=col, kind=kind, bit=bit, path=path)


def _floats_identical(x, y):
    return x == y or (np.isnan(x) and np.isnan(y))


def assert_verdicts_identical(v1, v2):
    """Field-wise CheckVerdict equality treating NaN == NaN.

    A fault can poison the magnitude bound itself (replication bounds
    by |C|), making the reported tolerance NaN on both paths; dataclass
    ``==`` would call that a mismatch.
    """
    if v1 is None or v2 is None:
        assert v1 is None and v2 is None
        return
    assert v1.detected == v2.detected
    assert v1.violations == v2.violations
    assert v1.checks == v2.checks
    assert _floats_identical(v1.max_residual, v2.max_residual)
    assert _floats_identical(v1.tolerance, v2.tolerance)


def assert_outcomes_identical(sequential, batched):
    assert sequential.scheme == batched.scheme
    assert sequential.injected == batched.injected
    assert np.array_equal(
        sequential.c_accumulator, batched.c_accumulator, equal_nan=True
    )
    assert np.array_equal(sequential.c, batched.c, equal_nan=True)
    assert_verdicts_identical(sequential.verdict, batched.verdict)


class TestInjectBatchEquivalence:
    @given(name=st.sampled_from(ALL_SCHEMES), seed=seeds, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_sequential_injects(self, name, seed, data):
        """Any mix of trials: batch slice i == sequential inject i."""
        a, b = _operands(seed)
        prepared = make_scheme(name).prepare(a, b, tile=TILE)
        rows, cols = prepared.c_clean.shape
        trials = [
            tuple(
                _draw_spec(data, rows, cols)
                for _ in range(data.draw(st.integers(0, 2)))
            )
            for _ in range(data.draw(st.integers(1, 5)))
        ]
        batched = prepared.inject_batch(trials)
        for faults, outcome in zip(trials, batched):
            assert_outcomes_identical(prepared.inject(faults), outcome)

    @given(name=st.sampled_from(ALL_SCHEMES), seed=seeds, data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_batch_equals_execute(self, name, seed, data):
        """Transitively: batch trials match from-scratch execute calls."""
        a, b = _operands(seed)
        scheme = make_scheme(name)
        prepared = scheme.prepare(a, b, tile=TILE)
        rows, cols = prepared.c_clean.shape
        trials = [
            (_draw_spec(data, rows, cols),)
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        batched = prepared.inject_batch(trials)
        for faults, outcome in zip(trials, batched):
            direct = make_scheme(name).execute(a, b, tile=TILE, faults=faults)
            assert_outcomes_identical(direct, outcome)
