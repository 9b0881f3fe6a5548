"""Property tests: the INT8 pipeline's struck==dense bit-identity.

The quantized executor accumulates INT8 products exactly in INT32 and
reduces checksums in a working dtype where every reachable value is an
exact integer, so the struck-check contract of DESIGN.md §1.3 holds
with *no* tolerance at all: for every scheme, every fault kind, both
fault paths, and any trial mix, ``inject_batch`` on an ``@int8``
scheme must be bit-identical to the dense stacked oracle
(``tests/dense_oracle.py``) — verdicts, residuals, accumulators, and
dequantized FP16 outputs alike.  A second family pins worker-count
invariance: sharding an INT8 campaign across processes may change
*when* a trial runs, never what it reports.
"""

import pytest
from dense_oracle import oracle_inject_batch
from hypothesis import given, settings, strategies as st

from repro.abft import list_schemes, scheme_from_token
from repro.faults import FaultCampaign

from test_batch_equivalence import (
    TILE,
    _draw_spec,
    _operands,
    assert_outcomes_identical,
)

INT8_SPARSE_SCHEMES = list_schemes() + ["global_multi"]

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


def _int8_scheme(name):
    if name == "global_multi":
        return scheme_from_token("global_multi:2@int8")
    return scheme_from_token(f"{name}@int8")


class TestInt8SparseMatchesDense:
    @given(name=st.sampled_from(INT8_SPARSE_SCHEMES), seed=seeds, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sparse_batch_matches_dense_batch(self, name, seed, data):
        """Any trial mix on the quantized executor: outcome i == outcome i."""
        a, b = _operands(seed)
        scheme = _int8_scheme(name)
        assert scheme.dtype == "int8"
        prepared = scheme.prepare(a, b, tile=TILE)
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

    @given(name=st.sampled_from(INT8_SPARSE_SCHEMES), seed=seeds, data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_sparse_matches_sequential_inject(self, name, seed, data):
        """Transitively: INT8 batched trials match one-at-a-time oracle runs."""
        a, b = _operands(seed)
        prepared = _int8_scheme(name).prepare(a, b, tile=TILE)
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


class TestInt8WorkerInvariance:
    @pytest.mark.parametrize("scheme_name", ["global", "thread_onesided"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_sharded_int8_campaign_matches_in_process(self, scheme_name, workers):
        """INT8 campaign verdicts are identical at any worker count."""
        a, b = _operands(31, m=48, n=40, k=32)
        drawn = FaultCampaign(
            _int8_scheme(scheme_name), a, b, seed=5
        ).draw_faults(24)

        def run(n_workers=None):
            return FaultCampaign(
                _int8_scheme(scheme_name), a, b, seed=5
            ).run(0, specs=drawn, workers=n_workers)

        single = run()
        sharded = run(workers)
        assert [t.detected for t in sharded.trials] == [
            t.detected for t in single.trials
        ]
        assert [t.significant for t in sharded.trials] == [
            t.significant for t in single.trials
        ]
        assert sharded.coverage == single.coverage
