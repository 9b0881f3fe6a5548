"""The benchmark's five workloads.

Each workload builds its inputs from the seed, runs an untimed warm-up,
then repeats a fixed *sweep* (one pass over its operation set) as often
as the run length allows.  A sweep reports how many work items it
processed — layers planned, fault trials run, or requests served — and
:class:`Ops` records the host latency and any failure of each user-level
call inside it.  Oracles run after the timed sweeps and check outputs
against an independent path; every check counts as one attempted
operation.

Calls into ``repro`` go through module attributes (``repro.deploy``,
not a name imported here) so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import asyncio
import math
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import repro
from repro.faults import FaultKind, FaultSpec, RecoveryPolicy
from repro.nn import build_runnable, runnable_input_shape
from repro.nn.graph import GraphBuilder
from repro.nn.inference import Conv2d, Flatten, GlobalAvgPool, Linear, ReLU
from repro.nn.layers import Conv2dSpec, LinearSpec

#: The device every numeric workload deploys on (the paper's T4).
DEVICE = "T4"


class Ops:
    """Latency and failure log of the user-level calls of one run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0

    def call(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Time one call; a raised exception counts as a failed operation."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.fail()
            return None
        self.latencies.append(time.perf_counter() - start)
        return result

    async def acall(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """:meth:`call` for a coroutine function."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = await fn(*args, **kwargs)
        except Exception:
            self.fail()
            return None
        self.latencies.append(time.perf_counter() - start)
        return result

    def check(self, ok: bool, what: str) -> None:
        """Record one oracle comparison."""
        self.tally(1, 0 if ok else 1, what)

    def tally(self, compared: int, mismatched: int, what: str) -> None:
        """Record ``compared`` oracle comparisons, ``mismatched`` of them failed."""
        self.attempted += compared
        if mismatched:
            self.failed += mismatched
            print(f"oracle mismatch ({mismatched}/{compared}): {what}", file=sys.stderr)

    def fail(self) -> None:
        """Count one failed operation and log its traceback."""
        self.failed += 1
        traceback.print_exc(file=sys.stderr)


def _operands(seed: int, index: int, shape: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    m, n, k = shape
    rng = np.random.default_rng([seed, index])
    a = (rng.standard_normal((m, k)) * 0.5).astype(np.float16)
    b = (rng.standard_normal((k, n)) * 0.5).astype(np.float16)
    return a, b


def _global_token(scheme_token: str) -> str:
    """The uniform global-ABFT token on the same pipeline as ``scheme_token``."""
    dtype = repro.split_dtype_token(scheme_token)[1]
    return "global" if dtype == "fp16" else f"global@{dtype}"


def _layer_modeled(layer: Any) -> tuple[float, float, float]:
    """``(baseline, guided, global)`` modeled seconds of one layer plan."""
    global_s = layer.scheme_times_s[_global_token(layer.scheme)]
    return layer.baseline_s, layer.chosen_time_s, global_s


def _plan_modeled(plan: Any) -> tuple[float, float, float]:
    """``(baseline, guided, global)`` modeled seconds of a whole plan."""
    rows = [_layer_modeled(layer) for layer in plan]
    return tuple(sum(col) for col in zip(*rows))


def _gemm_modeled(token: str, shape: tuple[int, int, int]) -> tuple[float, float, float]:
    """What intensity-guided selection models for one campaigned GEMM."""
    dtype = repro.split_dtype_token(token)[1]
    guided = repro.IntensityGuidedABFT(repro.get_gpu(DEVICE), dtype=dtype)
    sel = guided.select_for_problem(repro.GemmProblem(*shape))
    return sel.baseline_s, sel.chosen_time_s, sel.scheme_times_s[_global_token(token)]


def _record_mismatches(left: list, right: list) -> int:
    """Records that differ position by position (NaN deltas compare equal)."""

    def key(record: Any) -> tuple:
        delta = "nan" if math.isnan(record.delta) else record.delta
        return (record.faults, delta, record.detected, record.significant, record.benign_alarm)

    paired = sum(key(a) != key(b) for a, b in zip(left, right))
    return paired + abs(len(left) - len(right))


class Workload:
    """One set of inputs the benchmark runs; subclasses fill the hooks."""

    name = ""
    #: What one throughput item is.
    item = ""
    #: Per-scale sizes; ``smoke`` keeps the tier-1 smoke test fast.
    SIZES: dict[str, dict[str, Any]] = {}

    def __init__(self, seed: int, scale: str, workers: int) -> None:
        self.seed = seed
        self.workers = workers
        self.size = self.SIZES[scale]
        self.outcomes: dict[str, float] = {}

    def setup(self) -> None:
        """Build inputs and every fault-invariant state (untimed)."""

    def warmup(self, ops: Ops) -> None:
        """Touch every code path once so lazy state is built (untimed)."""

    def sweep(self, ops: Ops) -> int:
        """One timed pass over the operation set; returns items processed."""
        raise NotImplementedError

    def oracles(self, ops: Ops) -> None:
        """Check outputs against an independent path (untimed)."""

    def modeled(self) -> list[tuple[float, float, float]]:
        """``(baseline, guided, global)`` modeled GPU seconds per deployed unit."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started."""


class PlanWorkload(Workload):
    """``repro.deploy`` over the model zoo x devices: the decision path."""

    name = "plan"
    item = "layer"
    SIZES = {"full": {"cells": None}, "smoke": {"cells": 6}}
    INT8_DEVICES = ("T4", "A100", "Jetson-AGX-Xavier")

    def setup(self) -> None:
        models = repro.list_models()
        cells = [(m, g, "guided") for m in models for g in repro.list_gpus()]
        cells += [(m, g, "guided@int8") for m in models for g in self.INT8_DEVICES]
        order = np.random.default_rng(self.seed).permutation(len(cells))
        self.cells = [cells[i] for i in order][: self.size["cells"]]
        self.plans: list = []

    def warmup(self, ops: Ops) -> None:
        for gpu in repro.list_gpus():
            ops.call(repro.deploy, "mlp_bottom", gpu)
        for gpu in self.INT8_DEVICES:
            ops.call(repro.deploy, "mlp_bottom", gpu, policy="guided@int8")

    def sweep(self, ops: Ops) -> int:
        plans = []
        for model, gpu, policy in self.cells:
            session = ops.call(repro.deploy, model, gpu, policy=policy)
            if session is not None:
                plans.append(session.plan)
        self.plans = plans
        return sum(len(plan) for plan in plans)

    def oracles(self, ops: Ops) -> None:
        for plan in self.plans:
            same = repro.DeploymentPlan.from_json(plan.to_json()) == plan
            ops.check(same, f"{plan.model} JSON round trip")
            _, guided, global_s = _plan_modeled(plan)
            ops.check(guided <= global_s, f"{plan.model}/{plan.device}: guided > global")

    def modeled(self) -> list[tuple[float, float, float]]:
        return [_plan_modeled(plan) for plan in self.plans]


@dataclass
class CampaignRow:
    """One campaigned GEMM: its scheme, operands and per-sweep trial count."""

    token: str
    campaign: Any
    a: np.ndarray
    b: np.ndarray
    trials: int
    faults_per_trial: int = 1
    #: ``(M, N, K)`` of a synthetic row; ``None`` for a deployed layer.
    shape: tuple[int, int, int] | None = None


class _RowsWorkload(Workload):
    """The campaign workloads: ``run_batch`` on every row of :meth:`_rows`."""

    item = "trial"
    #: Shard each ``run_batch`` over ``workers`` processes.
    sharded = False

    def _rows(self) -> list[CampaignRow]:
        raise NotImplementedError

    def _run(self, ops: Ops, row: CampaignRow, trials: int) -> Any:
        return ops.call(
            row.campaign.run_batch,
            trials,
            faults_per_trial=row.faults_per_trial,
            workers=self.workers if self.sharded else None,
        )

    def setup(self) -> None:
        self.rows = self._rows()
        self.significant = self.covered = 0

    def warmup(self, ops: Ops) -> None:
        for row in self.rows:
            self._run(ops, row, min(row.trials, 200))

    def sweep(self, ops: Ops) -> int:
        items = 0
        for row in self.rows:
            result = self._run(ops, row, row.trials)
            if result is not None:
                items += result.n_trials
                self.significant += result.n_significant
                self.covered += result.n_significant - len(result.false_negatives)
        self.outcomes["coverage"] = self.covered / max(1, self.significant)
        return items


#: Campaign row mix: (scheme token, (M, N, K), trials per sweep, faults
#: per trial).  ``replication_traditional`` is the only dense-path row.
CAMPAIGN_SHAPE = (192, 160, 256)
CAMPAIGN_ROWS = (
    ("global", CAMPAIGN_SHAPE, 10_000, 1),
    ("thread_onesided", CAMPAIGN_SHAPE, 10_000, 1),
    ("thread_twosided", CAMPAIGN_SHAPE, 10_000, 1),
    ("global_multi:2", CAMPAIGN_SHAPE, 4_000, 4),
    ("replication_traditional", CAMPAIGN_SHAPE, 1_000, 1),
    ("thread_onesided@int8", (192, 192, 32), 10_000, 1),
    ("global@int8", (192, 512, 128), 10_000, 1),
)
RESNET_LAYER = "layer4.2.conv2"


class CampaignWorkload(_RowsWorkload):
    """In-process ``FaultCampaign.run_batch`` over a fixed row mix."""

    name = "campaign"
    # ``scale`` multiplies each row's trials; ``oracle*`` are per-row
    # samples checked against direct ``scheme.execute``.
    SIZES = {
        "full": {
            "scale": 1.0,
            "resolution": 224,
            "resnet_trials": 10_000,
            "oracle": 64,
            "oracle_resnet": 4,
        },
        "smoke": {
            "scale": 0.01,
            "resolution": 64,
            "resnet_trials": 100,
            "oracle": 8,
            "oracle_resnet": 1,
        },
    }

    def _rows(self) -> list[CampaignRow]:
        rows = []
        for index, (token, shape, trials, fpt) in enumerate(CAMPAIGN_ROWS):
            a, b = _operands(self.seed, index, shape)
            scheme = repro.scheme_from_token(token)
            campaign = repro.FaultCampaign(scheme, a, b, seed=self.seed * 100 + index)
            n = max(1, int(trials * self.size["scale"]))
            rows.append(CampaignRow(token, campaign, a, b, n, fpt, shape))
        res = self.size["resolution"]
        session = repro.deploy("resnet50", DEVICE, h=res, w=res, seed=self.seed)
        campaign = session.campaign(RESNET_LAYER, seed=self.seed * 100 + 99)
        a, b, _ = session.layer_operands(RESNET_LAYER)
        self.resnet_layer = session.plan.layer(RESNET_LAYER)
        token = self.resnet_layer.scheme
        return rows + [CampaignRow(token, campaign, a, b, self.size["resnet_trials"])]

    def oracles(self, ops: Ops) -> None:
        for row in self.rows:
            n = self.size["oracle"] if row.shape else self.size["oracle_resnet"]
            drawn = row.campaign.draw_faults(n, faults_per_trial=row.faults_per_trial)
            trials = [t if isinstance(t, tuple) else (t,) for t in drawn]
            batched = row.campaign.run(0, specs=trials).trials
            scheme = repro.scheme_from_token(row.token)
            tile = row.campaign.prepared.tile
            for trial, record in zip(trials, batched):
                direct = scheme.execute(row.a, row.b, tile=tile, faults=list(trial))
                ops.check(direct.detected == record.detected, f"{row.token} verdict {trial}")

    def modeled(self) -> list[tuple[float, float, float]]:
        rows = [_gemm_modeled(row.token, row.shape) for row in self.rows if row.shape]
        return rows + [_layer_modeled(self.resnet_layer)]


SHARDED_TOKENS = (
    ("global", CAMPAIGN_SHAPE),
    ("thread_onesided", CAMPAIGN_SHAPE),
    ("global@int8", (192, 512, 128)),
)


class ShardedCampaignWorkload(_RowsWorkload):
    """``run_batch`` sharded over ``workers`` processes (shm export, fork, merge)."""

    name = "campaign_sharded"
    sharded = True
    SIZES = {
        "full": {"trials": 20_000, "oracle": 4_000},
        "smoke": {"trials": 400, "oracle": 100},
    }

    def _rows(self) -> list[CampaignRow]:
        rows = []
        for index, (token, shape) in enumerate(SHARDED_TOKENS):
            a, b = _operands(self.seed, index, shape)
            scheme = repro.scheme_from_token(token)
            campaign = repro.FaultCampaign(scheme, a, b, seed=self.seed * 100 + index)
            rows.append(CampaignRow(token, campaign, a, b, self.size["trials"], shape=shape))
        return rows

    def oracles(self, ops: Ops) -> None:
        n = self.size["oracle"]
        for index, row in enumerate(self.rows):
            seed = self.seed * 100 + 50 + index
            scheme = repro.scheme_from_token(row.token)
            sharded = repro.FaultCampaign(scheme, row.a, row.b, seed=seed)
            local = repro.FaultCampaign(scheme, row.a, row.b, seed=seed)
            left = sharded.run_batch(n, workers=self.workers).trials
            right = local.run_batch(n).trials
            what = f"{row.token}: sharded records differ"
            ops.tally(n, _record_mismatches(left, right), what)

    def modeled(self) -> list[tuple[float, float, float]]:
        return [_gemm_modeled(row.token, row.shape) for row in self.rows]


def resnet_tail(rng: np.random.Generator, channels: int = 512) -> tuple:
    """Shape graph + numeric surrogate of the ResNet-50 tail.

    The last bottleneck's 3x3 conv (a 49x512x4608 GEMM at 7x7 and the
    default width), its 1x1 expansion, global average pooling and the
    1000-way classifier: the smallest model on which a top-1 flip is a
    real question.  ``channels`` narrows it for smoke runs.
    """
    wide = 4 * channels
    builder = GraphBuilder("resnet50_tail", batch=1, channels=channels, h=7, w=7)
    builder.conv(channels, 3, padding=1, name=RESNET_LAYER)
    builder.conv(wide, 1, name="layer4.2.conv3")
    builder.adaptive_pool(1, 1)
    builder.linear(1000, name="fc")
    graph = builder.build(f"1x{channels}x7x7 layer4 activations")
    c2 = Conv2dSpec(channels, channels, kernel=3, padding=1)
    c3 = Conv2dSpec(channels, wide, kernel=1)
    fc = LinearSpec(wide, 1000)
    model = repro.SequentialModel
    ops = [
        Conv2d(c2, model.random_weights_conv(c2, rng), name=RESNET_LAYER),
        ReLU(),
        Conv2d(c3, model.random_weights_conv(c3, rng), name="layer4.2.conv3"),
        ReLU(),
        GlobalAvgPool(),
        Flatten(),
        Linear(fc, model.random_weights_linear(fc, rng), name="fc"),
    ]
    return graph, model(ops, name="resnet50_tail")


DECODER = "transformer_decoder"
DECODER_BATCH = 8
DECODER_LAYERS = ("qkv", "attn.h0.scores", "ffn.fc1")


class SdcWorkload(Workload):
    """``PropagationCampaign`` with transient recovery over pre-drawn specs.

    Each sweep runs its own pre-drawn spec set (cycling through
    :attr:`SPEC_SETS`), so a run averages over many fault outcomes —
    masked trials skip the replay, detected ones recover — instead of
    timing one small draw again and again.
    """

    name = "sdc"
    item = "trial"
    SIZES = {
        "full": {"channels": 512, "tail_trials": 30, "decoder_trials": 50, "oracle": 20},
        "smoke": {"channels": 64, "tail_trials": 4, "decoder_trials": 6, "oracle": 2},
    }
    SPEC_SETS = 8

    def setup(self) -> None:
        policy = RecoveryPolicy(max_retries=2, fault_model="transient")
        rng = np.random.default_rng([self.seed, 1])
        channels = self.size["channels"]
        graph, runnable = resnet_tail(rng, channels)
        tail = repro.deploy(graph, DEVICE, runnable=runnable, seed=self.seed)
        tail_x = (rng.standard_normal((1, channels, 7, 7)) * 0.5).astype(np.float16)
        decoder = repro.deploy(
            DECODER,
            DEVICE,
            batch=DECODER_BATCH,
            runnable=build_runnable(DECODER, batch=DECODER_BATCH, seed=self.seed),
            seed=self.seed,
        )
        shape = runnable_input_shape(DECODER, batch=DECODER_BATCH)
        decoder_x = (rng.standard_normal(shape) * 0.5).astype(np.float16)
        targets = [(tail, tail_x, RESNET_LAYER, self.size["tail_trials"])]
        for layer in DECODER_LAYERS:
            targets.append((decoder, decoder_x, layer, self.size["decoder_trials"]))
        self.sessions = (tail, decoder)
        self.campaigns = []
        for index, (session, x, layer, n) in enumerate(targets):
            session.run(x)  # record operands so draws target the real GEMM
            seed = self.seed * 100 + index
            drawn = session.campaign(layer, seed=seed).draw_faults(n * self.SPEC_SETS)
            spec_sets = [drawn[i * n : (i + 1) * n] for i in range(self.SPEC_SETS)]
            campaign = session.propagation_campaign(layer, x=x, seed=seed, recovery=policy)
            self.campaigns.append((session, x, layer, campaign, spec_sets))
        self.sweeps = self.trials = self.sdc = 0

    def warmup(self, ops: Ops) -> None:
        for *_, campaign, spec_sets in self.campaigns:
            ops.call(campaign.run, 0, specs=spec_sets[0][:2])

    def sweep(self, ops: Ops) -> int:
        items = 0
        for *_, campaign, spec_sets in self.campaigns:
            specs = spec_sets[self.sweeps % self.SPEC_SETS]
            result = ops.call(campaign.run, 0, specs=specs)
            if result is not None:
                items += result.n_trials
                self.trials += result.n_trials
                self.sdc += result.n_undetected_sdc
        self.sweeps += 1
        self.outcomes["sdc_rate"] = self.sdc / max(1, self.trials)
        return items

    def oracles(self, ops: Ops) -> None:
        n = self.size["oracle"]
        for session, x, layer, campaign, spec_sets in self.campaigns:
            specs = spec_sets[0][:n]
            records = campaign.run(0, specs=specs).records
            for spec, record in zip(specs, records):
                full = session.run(x, faults={layer: [spec]})
                ops.check(full.detected == record.detected, f"{layer} verdict {spec}")

    def modeled(self) -> list[tuple[float, float, float]]:
        return [_plan_modeled(session.plan) for session in self.sessions]


class ServeWorkload(Workload):
    """Closed-loop requests to ``SessionServer``; clients = pool threads."""

    name = "serve"
    item = "request"
    SIZES = {
        "full": {"requests": 200, "oracle": 50},
        "smoke": {"requests": 12, "oracle": 4},
    }
    FAULTED_SHARE = 0.10

    def setup(self) -> None:
        policy = RecoveryPolicy(max_retries=2, fault_model="transient")
        self.session = repro.deploy(
            DECODER,
            DEVICE,
            batch=DECODER_BATCH,
            runnable=build_runnable(DECODER, batch=DECODER_BATCH, seed=self.seed),
            seed=self.seed,
            recovery=policy,
        )
        rng = np.random.default_rng([self.seed, 2])
        shape = runnable_input_shape(DECODER, batch=DECODER_BATCH)
        n = self.size["requests"]
        self.inputs = [(rng.standard_normal(shape) * 0.5).astype(np.float16) for _ in range(n)]
        self.faults: dict[int, dict] = {}
        plan = self.session.plan
        for i in np.flatnonzero(rng.random(n) < self.FAULTED_SHARE):
            layer = plan.layer(plan.layer_names[int(rng.integers(len(plan)))])
            sign = 1.0 if rng.random() < 0.5 else -1.0
            spec = FaultSpec(
                row=int(rng.integers(layer.m)),
                col=int(rng.integers(layer.n)),
                kind=FaultKind.ADD,
                value=sign * float(rng.uniform(64.0, 256.0)),
            )
            self.faults[int(i)] = {layer.name: [spec]}
        # request -> (output, recovered, retries) of its latest serving
        self.results: dict[int, tuple] = {}
        self.server = repro.SessionServer(self.session, max_workers=self.workers)

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.close()

    async def _drive(self, ops: Ops, indices: list[int]) -> None:
        pending = iter(indices)

        async def client() -> None:
            for i in pending:
                result = await ops.acall(
                    self.server.handle, self.inputs[i], faults=self.faults.get(i)
                )
                if result is not None:
                    self.results[i] = (result.output, result.recovered, result.total_retries)

        await asyncio.gather(*(client() for _ in range(self.workers)))

    def warmup(self, ops: Ops) -> None:
        clean = [i for i in range(len(self.inputs)) if i not in self.faults]
        asyncio.run(self._drive(ops, clean[: 2 * self.workers]))

    def sweep(self, ops: Ops) -> int:
        before = len(ops.latencies)
        asyncio.run(self._drive(ops, list(range(len(self.inputs)))))
        return len(ops.latencies) - before

    def oracles(self, ops: Ops) -> None:
        rng = np.random.default_rng([self.seed, 3])
        sample = rng.choice(len(self.inputs), size=self.size["oracle"], replace=False)
        for i in sorted(int(j) for j in sample):
            output, _, _ = self.results.get(i, (None, False, 0))
            serial = self.session.run(self.inputs[i]).output
            ok = output is not None and output.tobytes() == serial.tobytes()
            ops.check(ok, f"request {i}: served output differs from serial run")
        for i in sorted(self.faults):
            _, recovered, retries = self.results.get(i, (None, False, 0))
            ops.check(recovered and retries >= 1, f"request {i}: fault not detected and recovered")

    def modeled(self) -> list[tuple[float, float, float]]:
        return [_plan_modeled(self.session.plan)]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        PlanWorkload,
        CampaignWorkload,
        ShardedCampaignWorkload,
        SdcWorkload,
        ServeWorkload,
    )
}
