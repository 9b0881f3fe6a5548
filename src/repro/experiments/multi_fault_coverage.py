"""Multi-fault detection coverage (the paper's §2.4 extension).

The paper notes that ABFT extends to detecting up to ``r`` simultaneous
faults via ``r`` independent weighted checksums.  This experiment
exercises that claim end to end on the batched struck-check engine: for
``global_multi`` at several checksum counts ``r`` (with plain ``global``
as the 1-check baseline), it runs multi-fault campaigns sweeping the
per-trial simultaneous-fault count and reports detection coverage as a
function of it — the §2.4 guarantee being 100% coverage of significant
faults whenever the fault count stays within ``r``.

The sweep doubles as the prepared-cache acceptance proof: every
campaign of a variant (one per fault count) draws its prepared state
from one shared :class:`~repro.abft.PreparedCache`, so the whole
experiment runs exactly one clean GEMM per scheme variant — asserted
via ``EXECUTION_STATS`` rather than inferred from timings.
"""

from __future__ import annotations

import numpy as np

from ..abft import PreparedCache, scheme_from_token
from ..errors import ReproError
from ..faults import CampaignOptions, FaultCampaign
from ..gemm import EXECUTION_STATS
from ..utils import Table


def multi_fault_coverage_experiment(
    *,
    m: int = 96,
    n: int = 64,
    k: int = 80,
    trials: int = 40,
    max_faults: int = 6,
    checksum_counts: tuple[int, ...] = (1, 2, 4),
    seed: int = 29,
) -> Table:
    """Coverage vs. simultaneous-fault count for multi-checksum ABFT.

    One row per (scheme variant, per-trial fault count): ``global`` as
    the single-check baseline, then ``global_multi`` at each ``r`` in
    ``checksum_counts``, each swept over fault counts ``1..max_faults``
    through one shared :class:`~repro.abft.PreparedCache`.
    """
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((m, k)) * 0.5).astype(np.float16)
    b = (rng.standard_normal((k, n)) * 0.5).astype(np.float16)

    tokens = ["global"] + [f"global_multi:{r}" for r in checksum_counts]
    variants = [
        (token, scheme_from_token(token), r)
        for token, r in zip(tokens, (1, *checksum_counts))
    ]

    table = Table(
        [
            "scheme",
            "checks r",
            "faults/trial",
            "trials",
            "significant",
            "coverage",
            "benign alarms",
        ],
        title=(
            f"Multi-fault detection coverage ({m}x{n}x{k}, {trials} trials "
            f"per fault count; §2.4 guarantee: 100% for counts <= r)"
        ),
    )

    cache = PreparedCache()
    EXECUTION_STATS.reset()
    for label, scheme, r in variants:
        for faults_per_trial in range(1, max_faults + 1):
            campaign = FaultCampaign(
                scheme, a, b, options=CampaignOptions(seed=seed, cache=cache)
            )
            result = campaign.run_batch(
                trials, faults_per_trial=faults_per_trial
            )
            table.add_row(
                [
                    label,
                    r,
                    faults_per_trial,
                    result.n_trials,
                    result.n_significant,
                    result.coverage,
                    result.n_benign_alarms,
                ]
            )
            if faults_per_trial <= r and result.coverage < 1.0:
                raise ReproError(
                    f"{label}: coverage {result.coverage:.3f} < 1.0 at "
                    f"{faults_per_trial} faults/trial — the §2.4 "
                    f"r-simultaneous-fault guarantee is violated"
                )
    if EXECUTION_STATS.gemms != len(variants):
        raise ReproError(
            f"prepared-cache amortization failed: {EXECUTION_STATS.gemms} "
            f"clean GEMMs for {len(variants)} scheme variants (expected "
            f"exactly one per variant across the whole sweep)"
        )
    return table
