"""End-to-end SDC propagation and recovery across the runnable zoo.

GEMM-level coverage (``fault_coverage``) scores detection at the struck
layer; this experiment asks the paper's system-level question: does an
undetected fault *silently corrupt the model output*?  For each
(model, struck layer, scheme, faults-per-trial) cell it runs a
:class:`~repro.faults.PropagationCampaign` — inject into the layer's
GEMM, carry corruption through the remaining layers, classify every
trial masked / detected / benign-alarm / undetected-SDC — under a
transient :class:`~repro.faults.RecoveryPolicy`, and reports the
cross-tabulation with the undetected-SDC and residual-SDC rates.

Two contracts are asserted per cell, not just reported:

* every detected trial recovers under the transient fault model
  (retries re-execute fault-free, so recovery is deterministic), and
* every recovered trial is bit-identical to the clean pass — at the
  layer boundary per trial, and end to end through
  ``verify_recovery=True``, which replays the clean struck-layer output
  once per campaign (a recovered trial's struck output byte-equals
  it) — enforced inside the campaign, which raises on violation.
"""

from __future__ import annotations

import numpy as np

from ..api import deploy
from ..faults import RecoveryPolicy
from ..nn import build_model, build_runnable, runnable_input_shape
from ..utils import Table

#: (model, scheme-policy) cells; ≥3 zoo models per the PR 6 contract.
MODELS: tuple[str, ...] = ("mlp_bottom", "mlp_top", "coral")
SCHEMES: tuple[str, ...] = ("global", "thread_onesided")
FAULTS_PER_TRIAL: tuple[int, ...] = (1, 2)


def _depth_layers(layer_names: list[str]) -> list[str]:
    """First / middle / last layer of a plan (deduplicated, in order)."""
    picks = [
        layer_names[0],
        layer_names[len(layer_names) // 2],
        layer_names[-1],
    ]
    seen: list[str] = []
    for name in picks:
        if name not in seen:
            seen.append(name)
    return seen


def sdc_propagation_experiment(
    *, trials: int = 24, seed: int = 7, batch: int = 1
) -> Table:
    """SDC propagation sweep: model x layer depth x scheme x fault count."""
    table = Table(
        [
            "model",
            "layer",
            "scheme",
            "f/trial",
            "trials",
            "masked",
            "benign",
            "detected",
            "sdc",
            "sdc rate",
            "recovered",
            "retries",
            "residual",
        ],
        title=(
            f"End-to-end SDC propagation with transient recovery "
            f"({trials} trials/cell, batch {batch}; every recovered "
            f"trial asserted bit-identical to clean)"
        ),
    )
    policy = RecoveryPolicy(max_retries=2, fault_model="transient")
    for model_name in MODELS:
        x = (
            np.random.default_rng([seed, len(model_name)])
            .standard_normal(runnable_input_shape(model_name, batch=batch))
            * 0.5
        ).astype(np.float16)
        for scheme in SCHEMES:
            session = deploy(
                build_model(model_name, batch=batch),
                "T4",
                policy=scheme,
                runnable=build_runnable(model_name, batch=batch, seed=seed),
                recovery=policy,
            )
            for layer in _depth_layers(session.plan.layer_names):
                for fpt in FAULTS_PER_TRIAL:
                    campaign = session.propagation_campaign(
                        layer, x=x, seed=seed
                    )
                    result = campaign.run_batch(trials, faults_per_trial=fpt)
                    crosstab = result.crosstab()
                    # Transient retries re-execute fault-free, so every
                    # detection must recover (and nothing may degrade);
                    # residual SDC is then exactly the undetected kind.
                    assert result.n_recovered == result.n_detected, (
                        model_name, layer, scheme, fpt,
                    )
                    assert result.n_degraded == 0
                    assert result.n_residual_sdc == result.n_undetected_sdc
                    table.add_row(
                        [
                            model_name,
                            layer,
                            scheme,
                            fpt,
                            result.n_trials,
                            crosstab[(False, False)],
                            crosstab[(True, False)],
                            crosstab[(True, True)],
                            crosstab[(False, True)],
                            result.undetected_sdc_rate,
                            result.n_recovered,
                            result.total_retries,
                            result.n_residual_sdc,
                        ]
                    )
    return table
