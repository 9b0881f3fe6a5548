"""The dense stacked oracle for ``PreparedExecution.inject_batch``.

The engine renders every verdict from the checks a trial's faults
struck, recomputing only those slices.  This module is the reference
it must reproduce bit for bit, built the long way round: it
materializes each trial's accumulator (a clean copy plus
``apply_fault_to_accumulator`` for each original-path fault, in spec
order), reduces the whole stack with the ``*_batch`` reducers of
``repro.abft.checksums``, applies each trial's checksum-path faults to
its own copy of the clean checksum side, and compares everything with
``compare_checksums_batch``.  Checksum side, reduction length and
magnitude bounds come from the scheme's clean comparison inputs;
traditional replication bounds each trial by ``max(|replica|, |C|)``.

Import it from any test (``tests/`` is on the import path through the
suite's root ``conftest.py``)::

    from dense_oracle import oracle_inject_batch
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from repro.abft import (
    ExecutionOutcome,
    GlobalABFT,
    MultiChecksumGlobalABFT,
    ReplicationSingleAccumulator,
    ReplicationTraditional,
    ThreadLevelOneSided,
    ThreadLevelTwoSided,
    compare_checksums_batch,
)
from repro.abft.checksums import (
    multi_weighted_output_sums,
    one_sided_output_rowsums_batch,
    output_summation_batch,
    thread_tile_sums_batch,
)
from repro.faults import FaultPath, FaultSpec, apply_fault_to_accumulator


def oracle_accumulators(
    c_clean: np.ndarray, trials: Sequence[Sequence[FaultSpec]]
) -> np.ndarray:
    """``(N, m_full, n_full)``: every trial's faulted accumulator."""
    stacked = np.broadcast_to(c_clean, (len(trials), *c_clean.shape)).copy()
    for acc, faults in zip(stacked, trials):
        for spec in faults:
            if spec.path is FaultPath.ORIGINAL:
                apply_fault_to_accumulator(acc, spec)
    return stacked


def _output_side(prepared, c_batch: np.ndarray) -> np.ndarray:
    """Each trial's full output-side check array."""
    scheme, executor = prepared.scheme, prepared.executor
    if isinstance(scheme, GlobalABFT):
        return output_summation_batch(c_batch)[:, None]
    if isinstance(scheme, MultiChecksumGlobalABFT):
        state = prepared.state
        return multi_weighted_output_sums(c_batch, state.weights_m, state.weights_n)
    if isinstance(scheme, ThreadLevelOneSided):
        return one_sided_output_rowsums_batch(executor, c_batch)
    if isinstance(scheme, (ThreadLevelTwoSided, ReplicationSingleAccumulator)):
        return thread_tile_sums_batch(executor, c_batch)
    if isinstance(scheme, ReplicationTraditional):
        return c_batch
    raise TypeError(f"no dense oracle for scheme {scheme.name!r}")


def _checksum_element(prepared, spec: FaultSpec) -> tuple[int, int]:
    """The checksum-side element a checksum-path spec corrupts."""
    scheme, tile = prepared.scheme, prepared.tile
    if isinstance(scheme, GlobalABFT):
        return 0, 0
    if isinstance(scheme, MultiChecksumGlobalABFT):
        return 0, spec.row % scheme.num_checksums
    if isinstance(scheme, ThreadLevelOneSided):
        return spec.row, spec.col // tile.nt
    if isinstance(scheme, (ThreadLevelTwoSided, ReplicationSingleAccumulator)):
        return spec.row // tile.mt, spec.col // tile.nt
    return spec.row, spec.col


def oracle_inject_batch(
    prepared, trials: Sequence[Sequence[FaultSpec]], *, detection=None
) -> list[ExecutionOutcome]:
    """What ``prepared.inject_batch(trials)`` must return, outcome for outcome."""
    trials = [tuple(faults) for faults in trials]
    scheme = prepared.scheme
    c_batch = oracle_accumulators(prepared.c_clean, trials)
    verdicts = [None] * len(trials)
    if scheme.protects and trials:
        lhs, _, n_terms, magnitudes = scheme._clean_comparison_inputs(prepared)
        out = _output_side(prepared, c_batch)
        references = np.broadcast_to(lhs, out.shape).copy()
        for ref, faults in zip(references, trials):
            grid = ref.reshape(-1, ref.shape[-1])
            for spec in faults:
                if spec.path is FaultPath.CHECKSUM:
                    row, col = _checksum_element(prepared, spec)
                    apply_fault_to_accumulator(grid, replace(spec, row=row, col=col))
        if isinstance(scheme, ReplicationTraditional):
            magnitudes = np.maximum(np.abs(references), np.abs(c_batch))
        verdicts = compare_checksums_batch(
            references,
            out,
            n_terms=n_terms,
            magnitudes=magnitudes,
            constants=detection or scheme.default_detection,
        )
    m, n = prepared.problem.m, prepared.problem.n
    return [
        ExecutionOutcome(
            scheme.name,
            acc,
            verdict,
            faults,
            crop=(m, n),
            epilogue=prepared.epilogue,
        )
        for acc, verdict, faults in zip(c_batch, verdicts, trials)
    ]
