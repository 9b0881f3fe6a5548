"""Property tests: struck-check re-reduction equals the dense oracle.

The bit-exactness contract of DESIGN.md §1.3, pinned element-wise: for
every scheme, every fault kind, both fault paths, and any mix of
trials — including multiple faults landing in the *same* reduction
slice — ``inject_batch`` must produce outcomes bit-identical to the
dense stacked oracle (``tests/dense_oracle.py``), which materializes
every trial's accumulator and reduces it in full: same verdict fields,
same check residuals, same lazily materialized accumulators, same FP16
outputs.  A second family pins the fault→site valuation
(:func:`repro.faults.injector.faulted_site_values`) against reading
the struck elements out of the oracle's stacked accumulator.
"""

import math

import numpy as np
import pytest
from dense_oracle import oracle_accumulators, oracle_inject_batch
from hypothesis import given, settings, strategies as st

from repro.abft import list_schemes, scheme_from_token
from repro.faults import FaultKind, FaultPath, FaultSpec, SpecArrays
from repro.faults.injector import faulted_site_values
from repro.gemm import TileConfig

from test_batch_equivalence import (
    assert_outcomes_identical,
    make_scheme,
    _draw_spec,
    _operands,
)

TILE = TileConfig(mb=32, nb=32, kb=32, mw=16, nw=16, mt=4, nt=2)

#: Every scheme: the unprotected one renders ``None`` verdicts over the
#: same lazily built accumulators.
SPARSE_SCHEMES = list_schemes() + ["global_multi"]

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


def _scheme(name, dtype):
    return scheme_from_token(name if dtype == "fp16" else f"{name}@{dtype}")


class TestSparseMatchesDense:
    @given(name=st.sampled_from(SPARSE_SCHEMES), seed=seeds, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sparse_batch_matches_dense_batch(self, name, seed, data):
        """Any trial mix: sparse outcome i == dense outcome i, bit for bit."""
        a, b = _operands(seed)
        prepared = make_scheme(name).prepare(a, b, tile=TILE)
        rows, cols = prepared.c_clean.shape
        trials = [
            tuple(
                _draw_spec(data, rows, cols)
                for _ in range(data.draw(st.integers(0, 3)))
            )
            for _ in range(data.draw(st.integers(1, 5)))
        ]
        dense = oracle_inject_batch(prepared, trials)
        sparse = prepared.inject_batch(trials)
        for d, s in zip(dense, sparse):
            assert_outcomes_identical(d, s)

    @given(name=st.sampled_from(SPARSE_SCHEMES), seed=seeds, data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_sparse_matches_sequential_inject(self, name, seed, data):
        """Transitively: batched trials match one-at-a-time oracle runs."""
        a, b = _operands(seed)
        prepared = make_scheme(name).prepare(a, b, tile=TILE)
        rows, cols = prepared.c_clean.shape
        trials = [
            (_draw_spec(data, rows, cols),)
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        sparse = prepared.inject_batch(trials)
        for faults, outcome in zip(trials, sparse):
            assert_outcomes_identical(
                oracle_inject_batch(prepared, [faults])[0], outcome
            )

    @given(name=st.sampled_from(SPARSE_SCHEMES), seed=seeds, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_multi_fault_trials_sparse_matches_dense(self, name, seed, data):
        """Campaign-sized fault sets (every trial strictly multi-fault,
        the §2.4 workload): sparse outcome i == dense outcome i, bit
        for bit, including checksum-path faults in the mix."""
        a, b = _operands(seed)
        prepared = make_scheme(name).prepare(a, b, tile=TILE)
        rows, cols = prepared.c_clean.shape
        trials = [
            tuple(
                _draw_spec(data, rows, cols)
                for _ in range(data.draw(st.integers(2, 6)))
            )
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        dense = oracle_inject_batch(prepared, trials)
        sparse = prepared.inject_batch(trials)
        for d, s in zip(dense, sparse):
            assert_outcomes_identical(d, s)

    @pytest.mark.parametrize("name", SPARSE_SCHEMES)
    def test_multiple_faults_in_one_slice(self, name):
        """Two faults in the same reduction slice — and the same element
        twice — must re-reduce that slice once with both applied, in
        spec order, exactly like the dense path."""
        a, b = _operands(7)
        prepared = make_scheme(name).prepare(a, b, tile=TILE)
        same_slice = (
            # TILE has nt=2, mt=4: (1, 0) and (1, 1) share the one-sided
            # row-sum slice; all three sites share the (0, 0) thread tile.
            FaultSpec(row=1, col=0, kind=FaultKind.ADD, value=5.0),
            FaultSpec(row=1, col=1, kind=FaultKind.ADD, value=-9.0),
            FaultSpec(row=1, col=0, kind=FaultKind.SET, value=2.5),
        )
        ordered = (
            FaultSpec(row=2, col=3, kind=FaultKind.SET, value=8.0),
            FaultSpec(row=2, col=3, kind=FaultKind.BITFLIP_FP32, bit=30),
        )
        trials = [same_slice, ordered, (), same_slice + ordered]
        dense = oracle_inject_batch(prepared, trials)
        sparse = prepared.inject_batch(trials)
        for d, s in zip(dense, sparse):
            assert_outcomes_identical(d, s)


class TestReplicationTraditionalStruck:
    """The elementwise replica compare: a fault site is its struck check,
    and the magnitude bound ``max(|replica|, |C|)`` moves with it."""

    def _prepared(self, dtype="fp16"):
        a, b = _operands(5)
        return _scheme("replication_traditional", dtype).prepare(a, b, tile=TILE)

    def test_nan_poisons_the_tolerance_on_both_paths(self):
        prepared = self._prepared()
        ck = FaultPath.CHECKSUM
        trials = [
            (FaultSpec(row=1, col=2, kind=FaultKind.SET, value=math.nan),),
            (FaultSpec(row=3, col=0, kind=FaultKind.SET, value=math.nan, path=ck),),
            # A flip of the top exponent bit of a value in [1, 2) lands
            # in the inf/NaN space.
            (FaultSpec(row=0, col=0, kind=FaultKind.SET, value=1.5),
             FaultSpec(row=0, col=0, kind=FaultKind.BITFLIP_FP32, bit=30)),
        ]
        engine = prepared.inject_batch(trials)
        for d, s in zip(oracle_inject_batch(prepared, trials), engine):
            assert_outcomes_identical(d, s)
        assert all(math.isnan(v.tolerance) for v in engine.verdicts[:2])
        assert all(v.detected for v in engine.verdicts)

    @pytest.mark.parametrize("dtype", ["fp16", "int8"])
    def test_bound_below_the_clean_maximum(self, dtype):
        """An original- and a checksum-path fault on the largest clean
        element shrink its bound below every other: the trial's
        tolerance is the largest *untouched* one, not the clean max.
        (INT8's half-ULP tolerance ignores magnitudes; it must still
        match the oracle.)"""
        prepared = self._prepared(dtype)
        clean = np.abs(prepared.c_clean.astype(np.float64))
        row, col = np.unravel_index(int(np.argmax(clean)), clean.shape)
        trial = (
            FaultSpec(row=int(row), col=int(col), kind=FaultKind.SET, value=0.0),
            FaultSpec(row=int(row), col=int(col), kind=FaultKind.SET, value=0.0,
                      path=FaultPath.CHECKSUM),
        )
        (dense,) = oracle_inject_batch(prepared, [trial])
        (engine,) = prepared.inject_batch([trial])
        assert_outcomes_identical(dense, engine)
        clean_tolerance = prepared.inject(()).verdict.tolerance
        if dtype == "fp16":
            assert engine.verdict.tolerance < clean_tolerance
        assert not engine.detected


class TestNoneScheme:
    @pytest.mark.parametrize("dtype", ["fp16", "int8"])
    def test_none_verdicts_over_lazy_accumulators(self, dtype):
        a, b = _operands(9)
        prepared = _scheme("none", dtype).prepare(a, b, tile=TILE)
        trials = [
            (FaultSpec(row=1, col=1, kind=FaultKind.ADD, value=3.0),
             FaultSpec(row=1, col=1, kind=FaultKind.BITFLIP_FP32, bit=4)),
            (FaultSpec(row=2, col=5, kind=FaultKind.ADD, value=9.0,
                       path=FaultPath.CHECKSUM),),
            (),
        ]
        engine = prepared.inject_batch(trials)
        assert list(engine.verdicts) == [None, None, None]
        assert all(o._acc is None for o in engine)  # not yet built
        for d, s in zip(oracle_inject_batch(prepared, trials), engine):
            assert_outcomes_identical(d, s)
        assert not np.array_equal(engine[0].c_accumulator, prepared.c_clean)
        assert np.array_equal(engine[1].c_accumulator, prepared.c_clean)


class TestFaultedSiteValues:
    @given(seed=seeds, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_site_values_match_dense_accumulator(self, seed, data):
        """Site valuation == reading the struck elements of the dense
        stacked accumulator, for any kind/path mix and repeat strikes."""
        rng = np.random.default_rng(seed)
        clean = (rng.standard_normal((12, 10)) * 10.0).astype(np.float32)
        trials = [
            tuple(
                _draw_spec(data, *clean.shape)
                for _ in range(data.draw(st.integers(0, 4)))
            )
            for _ in range(data.draw(st.integers(1, 6)))
        ]
        sites = faulted_site_values(clean, SpecArrays.from_trials(trials))
        c_batch = oracle_accumulators(clean, trials)
        # Bit-level equality against the dense batch, NaN patterns included.
        gathered = c_batch[sites.trials, sites.rows, sites.cols]
        assert np.array_equal(
            sites.values.view(np.uint32), gathered.view(np.uint32)
        )
        # Completeness: zeroing the sites back to clean recovers c_clean.
        c_batch[sites.trials, sites.rows, sites.cols] = clean[
            sites.rows, sites.cols
        ]
        assert np.array_equal(
            c_batch, np.broadcast_to(clean, c_batch.shape), equal_nan=True
        )

    def test_sites_are_unique_and_counted(self):
        clean = np.zeros((4, 4), dtype=np.float32)
        trials = [
            (
                FaultSpec(row=1, col=1, kind=FaultKind.ADD, value=1.0),
                FaultSpec(row=1, col=1, kind=FaultKind.ADD, value=2.0),
                FaultSpec(row=2, col=0, kind=FaultKind.SET, value=5.0,
                          path=FaultPath.CHECKSUM),
            ),
            (),
        ]
        sites = faulted_site_values(clean, SpecArrays.from_trials(trials))
        assert sites.n_trials == 2
        # One unique site: the checksum-path fault never touches the
        # output, and the repeated element collapses to one entry.
        assert len(sites) == 1
        assert (sites.trials[0], sites.rows[0], sites.cols[0]) == (0, 1, 1)
        assert sites.values[0] == np.float32(3.0)
