"""Command-line interface: ``python -m repro ...``.

Subcommands mirror the deployment workflow:

* ``models`` / ``devices`` — list what is available.
* ``intensity MODEL`` — per-layer and aggregate arithmetic intensity.
* ``select MODEL`` — run the intensity-guided selection on a device and
  print (or ``--json``-export) the per-layer result.
* ``deploy MODEL`` — produce the policy's deployment plan (table or
  ``--json``; the JSON loads back via ``DeploymentPlan.from_json`` and
  feeds ``campaign --plan``).
* ``campaign MODEL`` — deploy and run a fault-injection campaign
  against one linear layer through a protected session.
* ``sdc MODEL`` — end-to-end SDC propagation campaign: inject into one
  layer of a *runnable* zoo model, carry corruption to the output, and
  cross-tabulate ABFT verdicts against output corruption, with
  detection-triggered recovery.
* ``fleet deploy|list|diff`` — fleet-scale deployment: sweep models ×
  devices into a persisted plan registry, list its contents, and diff
  plans (scheme and overhead deltas) across devices or versions.
* ``sweep`` — the Fig. 12 square-GEMM sweep on a device.
* ``experiments [NAME...]`` — regenerate paper artifacts.
* ``lint [PATHS...]`` — statically check the repo's own invariants
  (seeded RNG, lock discipline, shm lifecycle, read-only prepared
  state, deterministic records, ``__all__`` drift) — the CI gate.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .api import (
    DeploymentPlan,
    IntensityGuidedPolicy,
    ProtectedSession,
    as_policy,
    layer_plan_table,
)
from .core import layer_selection_table
from .errors import ConfigurationError, ReproError
from .faults.options import CampaignOptions
from .gpu import get_gpu, list_gpus
from .nn import build_model, list_models
from .roofline import layer_intensities
from .utils import Table
from .utils.serde import model_selection_to_json


def _cmd_models(_: argparse.Namespace) -> int:
    for name in list_models():
        print(name)
    return 0


def _cmd_devices(_: argparse.Namespace) -> int:
    for name in list_gpus():
        spec = get_gpu(name)
        print(f"{spec.name}: CMR {spec.cmr:.0f} "
              f"({spec.matmul_flops / 1e12:.0f} TFLOPs/s, "
              f"{spec.mem_bandwidth / 1e9:.0f} GB/s)")
    return 0


def _build_graph(args: argparse.Namespace):
    """Model-zoo build for the subcommand's geometry arguments."""
    return build_model(
        args.model,
        batch=args.batch,
        h=args.height if args.height is not None else 1080,
        w=args.width if args.width is not None else 1920,
    )


def _cmd_intensity(args: argparse.Namespace) -> int:
    model = _build_graph(args)
    table = Table(
        ["layer", "M", "N", "K", "AI"],
        title=f"{model.name} ({model.input_desc}, batch {model.batch}) — "
              f"aggregate AI {model.aggregate_intensity():.1f}",
    )
    for layer, brk in zip(model, layer_intensities(model.problems)):
        table.add_row([layer.name, layer.problem.m, layer.problem.n,
                       layer.problem.k, brk.intensity])
    print(table.render())
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    spec = get_gpu(args.device)
    selection = IntensityGuidedPolicy().select(_build_graph(args), spec)
    if args.json:
        # This export is loadable deployment input: DeploymentPlan.
        # from_json accepts the selection schema directly.
        print(model_selection_to_json(selection))
        return 0
    print(layer_selection_table(selection).render())
    print()
    print(f"thread-level overhead : "
          f"{selection.scheme_overhead_percent('thread_onesided'):6.2f}%")
    print(f"global overhead       : "
          f"{selection.scheme_overhead_percent('global'):6.2f}%")
    print(f"intensity-guided      : {selection.guided_overhead_percent:6.2f}%")
    return 0


def _policy_token(args: argparse.Namespace) -> str:
    """Combine ``--policy`` and ``--dtype`` into one policy string.

    ``--dtype int8`` suffixes the policy with ``@int8`` — ``guided`` →
    ``guided@int8``, ``fixed:global`` → ``fixed:global@int8`` — so the
    flag is sugar over the token grammar, not a second mechanism.
    """
    token = args.policy or "guided"
    dtype = getattr(args, "dtype", None)
    if dtype is not None and dtype != "fp16":
        if "@" in token:
            raise ConfigurationError(
                f"--dtype {dtype} conflicts with the explicit @dtype in "
                f"--policy {token!r}; pass one or the other"
            )
        token = f"{token}@{dtype}"
    return token


def _build_plan(args: argparse.Namespace) -> DeploymentPlan:
    """Policy → plan for the subcommand's model/device arguments."""
    spec = get_gpu(args.device or "T4")
    return as_policy(_policy_token(args)).assign(_build_graph(args), spec)


def _cmd_deploy(args: argparse.Namespace) -> int:
    plan = _build_plan(args)
    if args.json:
        print(plan.to_json())
        return 0
    print(layer_plan_table(plan).render())
    if plan.has_predictions:
        print()
        for token in sorted(
            {t for layer in plan for t in layer.scheme_times_s}
        ):
            print(f"uniform {token:<16s}: "
                  f"{plan.scheme_overhead_percent(token):6.2f}% overhead")
        print(f"deployed plan           : "
              f"{plan.guided_overhead_percent:6.2f}% overhead")
    return 0


def _load_plan(path: str) -> DeploymentPlan:
    """Read a plan JSON file (``-`` for stdin)."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read plan file: {exc}") from None
    return DeploymentPlan.from_json(text)


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.trials <= 0:
        print(f"--trials must be positive, got {args.trials}", file=sys.stderr)
        return 2
    if args.plan is not None:
        plan = _load_plan(args.plan)
        # The plan fully determines the deployment.  The positional
        # model must agree, the device (which every plan records) must
        # agree when given explicitly, and the flags that pick a
        # different deployment outright — geometry and policy — are
        # rejected, so the user cannot believe they campaigned one
        # configuration while the plan fixes another.
        if plan.model != args.model:
            raise ConfigurationError(
                f"plan file deploys {plan.model!r} but the command names "
                f"{args.model!r}; pass the plan's model"
            )
        if args.device is not None and plan.device != args.device:
            raise ConfigurationError(
                f"plan was built for device {plan.device!r}, command asked "
                f"for --device {args.device}; drop --device or rebuild the "
                f"plan"
            )
        fixed = [
            flag
            for flag, given in (
                ("--batch", args.batch),
                ("--height", args.height),
                ("--width", args.width),
                ("--policy", args.policy),
                ("--dtype", args.dtype),
            )
            if given is not None
        ]
        if fixed:
            raise ConfigurationError(
                f"{', '.join(fixed)}: not allowed with --plan (the plan "
                f"already fixes the deployment); drop them or rebuild the "
                f"plan"
            )
    else:
        plan = _build_plan(args)
    session = ProtectedSession(plan, seed=args.seed)
    layer = args.layer if args.layer is not None else plan.layer_names[0]
    with session.campaign(
        layer, options=CampaignOptions(seed=args.seed, workers=args.workers)
    ) as campaign:
        result = campaign.run_batch(
            args.trials, faults_per_trial=args.faults_per_trial
        )
    entry = plan.layer(layer)
    print(f"model {plan.model} on {plan.device} "
          f"(policy {plan.policy or 'from plan'})")
    print(f"layer {layer}: {entry.m}x{entry.n}x{entry.k} GEMM under "
          f"{entry.scheme}")
    print(f"trials              : {result.n_trials} "
          f"({args.faults_per_trial} fault(s) each)")
    print(f"significant         : {result.n_significant}")
    print(f"detected            : {result.n_detected}")
    print(f"benign alarms       : {result.n_benign_alarms}")
    print(f"coverage            : {result.coverage * 100:.1f}%")
    if result.false_negatives:
        print(f"false negatives     : {len(result.false_negatives)}")
        return 1
    return 0


def _cmd_sdc(args: argparse.Namespace) -> int:
    import numpy as np

    from .faults.recovery import RecoveryPolicy
    from .nn import build_runnable, runnable_input_shape, runnable_models

    if args.trials <= 0:
        print(f"--trials must be positive, got {args.trials}", file=sys.stderr)
        return 2
    if args.model not in runnable_models():
        raise ConfigurationError(
            f"model {args.model!r} has no runnable numeric realization "
            f"(branching architectures are shape-only); runnable models "
            f"are {runnable_models()}"
        )
    batch = args.batch if args.batch is not None else 1
    if args.plan is not None:
        plan = _load_plan(args.plan)
        # Same contract as `campaign --plan`: the plan fixes the
        # deployment, so the named model must agree, an explicit
        # --device must agree, and deployment-picking flags are
        # rejected outright.
        if plan.model != args.model:
            raise ConfigurationError(
                f"plan file deploys {plan.model!r} but the command names "
                f"{args.model!r}; pass the plan's model"
            )
        if args.device is not None and plan.device != args.device:
            raise ConfigurationError(
                f"plan was built for device {plan.device!r}, command asked "
                f"for --device {args.device}; drop --device or rebuild the "
                f"plan"
            )
        fixed = [
            flag
            for flag, given in (
                ("--batch", args.batch),
                ("--height", args.height),
                ("--width", args.width),
                ("--policy", args.policy),
                ("--dtype", args.dtype),
            )
            if given is not None
        ]
        if fixed:
            raise ConfigurationError(
                f"{', '.join(fixed)}: not allowed with --plan (the plan "
                f"already fixes the deployment); drop them or rebuild the "
                f"plan"
            )
    else:
        spec = get_gpu(args.device or "T4")
        graph = build_model(args.model, batch=batch)
        plan = as_policy(_policy_token(args)).assign(graph, spec)
    recovery = None
    if not args.no_recovery:
        recovery = RecoveryPolicy(
            max_retries=args.retries,
            fault_model=args.fault_model,
            on_exhausted=args.on_exhausted,
        )
    runnable = build_runnable(args.model, batch=batch, seed=args.seed)
    session = ProtectedSession(plan, model=runnable, recovery=recovery)
    x = (
        np.random.default_rng([args.seed, 1])
        .standard_normal(runnable_input_shape(args.model, batch=batch))
        * 0.5
    ).astype(np.float16)
    layer = args.layer if args.layer is not None else plan.layer_names[0]
    with session.propagation_campaign(
        layer,
        x=x,
        options=CampaignOptions(seed=args.seed, workers=args.workers),
    ) as campaign:
        result = campaign.run_batch(
            args.trials, faults_per_trial=args.faults_per_trial
        )
    entry = plan.layer(layer)
    print(f"model {plan.model} on {plan.device} "
          f"(policy {plan.policy or 'from plan'})")
    print(f"struck layer {layer}: {entry.m}x{entry.n}x{entry.k} GEMM under "
          f"{entry.scheme}; corruption propagated through "
          f"{len(campaign.downstream_ops)} downstream op(s)")
    print(f"trials              : {result.n_trials} "
          f"({args.faults_per_trial} fault(s) each)")
    crosstab = result.crosstab()
    print(f"masked              : {crosstab[(False, False)]}")
    print(f"benign alarm        : {crosstab[(True, False)]}")
    print(f"detected corruption : {crosstab[(True, True)]}")
    print(f"undetected SDC      : {crosstab[(False, True)]} "
          f"({result.undetected_sdc_rate * 100:.1f}%)")
    if recovery is not None:
        print(f"recovered           : {result.n_recovered} "
              f"({result.total_retries} retries, bit-identity verified)")
        print(f"degraded            : {result.n_degraded}")
        print(f"residual SDC        : {result.n_residual_sdc}")
    return 0


def _cmd_fleet_deploy(args: argparse.Namespace) -> int:
    import os

    from .fleet import PlanRegistry, deploy_fleet

    registry = None
    if args.registry is not None and os.path.exists(args.registry):
        registry = PlanRegistry.load(args.registry)
    fleet = deploy_fleet(
        args.models,
        args.devices,
        policy=_policy_token(args),
        registry=registry,
        batch=args.batch,
        h=args.height if args.height is not None else 1080,
        w=args.width if args.width is not None else 1920,
    )
    print(fleet.summary().render())
    if args.registry is not None:
        fleet.registry.save(args.registry)
        print(f"\nregistry: {len(fleet.registry)} plan version(s) "
              f"across {len(fleet.registry.keys())} slot(s) "
              f"-> {args.registry}")
    return 0


def _cmd_fleet_list(args: argparse.Namespace) -> int:
    from .fleet import PlanRegistry

    registry = PlanRegistry.load(args.registry)
    table = Table(
        ["model", "device", "policy", "versions", "layers", "overhead (%)"],
        title=f"plan registry {args.registry}",
    )
    for key in registry.keys():
        plan = registry.get(key.model, key.device, key.policy)
        table.add_row([
            key.model,
            key.device,
            key.policy,
            registry.versions(key.model, key.device, key.policy),
            len(plan),
            plan.guided_overhead_percent if plan.has_predictions else "-",
        ])
    print(table.render())
    return 0


def _cmd_fleet_diff(args: argparse.Namespace) -> int:
    from .fleet import PlanRegistry, plan_diff

    registry = PlanRegistry.load(args.registry)
    old = registry.get(
        args.model, args.device_a, args.policy, version=args.version_a
    )
    new = registry.get(
        args.model, args.device_b, args.policy, version=args.version_b
    )
    diff = plan_diff(old, new)
    print(diff.render())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        AnalysisConfig,
        lint_paths,
        list_rules,
        render_json,
        render_text,
        write_step_summary,
    )

    if args.list_rules:
        print(list_rules(), end="")
        return 0
    # Config discovery starts at the first linted path, so the gate
    # reads the repo's own [tool.repro.analysis] wherever it runs from.
    try:
        config = AnalysisConfig.load(args.paths[0]).with_overrides(
            select=args.select.split(",") if args.select else None,
            ignore=args.ignore.split(",") if args.ignore else None,
        )
        result = lint_paths(args.paths, config)
    except ConfigurationError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    write_step_summary(result)
    print(render_json(result) if args.json else render_text(result), end="")
    return 0 if result.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import fig12_square_sweep

    print(fig12_square_sweep(get_gpu(args.device)).render())
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.runner import EXPERIMENTS

    if args.list:
        if args.names:
            print("--list takes no experiment names", file=sys.stderr)
            return 2
        for name in EXPERIMENTS:
            print(name)
        return 0
    names = args.names or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; known: {sorted(EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    for name in names:
        print(f"\n===== {name} =====")
        print(EXPERIMENTS[name]().render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Arithmetic-intensity-guided ABFT reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list evaluation models").set_defaults(fn=_cmd_models)
    sub.add_parser("devices", help="list device specs").set_defaults(fn=_cmd_devices)

    def _model_args(p: argparse.ArgumentParser) -> None:
        # Geometry flags stay None until given so `campaign --plan` can
        # tell an explicit flag from the default.
        p.add_argument("model", choices=list_models())
        p.add_argument("--batch", type=int, default=None,
                       help="batch size (model-specific default)")
        p.add_argument("--height", type=int, default=None,
                       help="input height (default 1080)")
        p.add_argument("--width", type=int, default=None,
                       help="input width (default 1920)")

    def _deploy_args(p: argparse.ArgumentParser) -> None:
        # None-until-given so `campaign --plan` can tell an explicit
        # flag (which must agree with the plan) from the default.
        _model_args(p)
        p.add_argument("--device", default=None, choices=list_gpus(),
                       help="target device (default T4)")
        p.add_argument("--policy", default=None,
                       help="'guided' (default), 'fixed:TOKEN', or a bare "
                            "scheme token, e.g. fixed:global_multi:2")
        p.add_argument("--dtype", default=None, choices=["fp16", "int8"],
                       help="numeric pipeline to deploy (default fp16); "
                            "int8 prices the quantized executor and "
                            "suffixes the policy token with @int8")

    p_int = sub.add_parser("intensity", help="per-layer arithmetic intensity")
    _model_args(p_int)
    p_int.set_defaults(fn=_cmd_intensity)

    p_sel = sub.add_parser("select", help="intensity-guided per-layer selection")
    _model_args(p_sel)
    p_sel.add_argument("--device", default="T4", choices=list_gpus())
    p_sel.add_argument("--json", action="store_true",
                       help="emit the machine-readable selection (loadable "
                            "via DeploymentPlan.from_json)")
    p_sel.set_defaults(fn=_cmd_select)

    p_dep = sub.add_parser(
        "deploy", help="produce a policy's per-layer deployment plan"
    )
    _deploy_args(p_dep)
    p_dep.add_argument("--json", action="store_true",
                       help="emit the plan JSON (round-trips through "
                            "DeploymentPlan.from_json / campaign --plan)")
    p_dep.set_defaults(fn=_cmd_deploy)

    p_camp = sub.add_parser(
        "campaign",
        help="fault-injection campaign on one layer of a deployed model",
    )
    _deploy_args(p_camp)
    p_camp.add_argument("--plan", default=None, metavar="FILE",
                        help="load a deployment-plan JSON ('-' for stdin) "
                             "instead of running the policy")
    p_camp.add_argument("--layer", default=None,
                        help="linear layer to attack (default: first)")
    p_camp.add_argument("--trials", type=int, default=100)
    p_camp.add_argument("--faults-per-trial", type=int, default=1)
    p_camp.add_argument("--seed", type=int, default=0)
    p_camp.add_argument("--workers", type=int, default=None,
                        help="shard trials across N worker processes "
                             "(same records as one process; default: "
                             "in-process)")
    p_camp.set_defaults(fn=_cmd_campaign)

    p_sdc = sub.add_parser(
        "sdc",
        help="end-to-end SDC propagation campaign with recovery on a "
             "runnable zoo model",
    )
    _deploy_args(p_sdc)
    p_sdc.add_argument("--plan", default=None, metavar="FILE",
                       help="load a deployment-plan JSON ('-' for stdin) "
                            "instead of running the policy")
    p_sdc.add_argument("--layer", default=None,
                       help="linear layer to inject into (default: first)")
    p_sdc.add_argument("--trials", type=int, default=100)
    p_sdc.add_argument("--faults-per-trial", type=int, default=1)
    p_sdc.add_argument("--seed", type=int, default=0)
    p_sdc.add_argument("--retries", type=int, default=2,
                       help="recovery retry budget per detection (default 2)")
    p_sdc.add_argument("--fault-model", default="transient",
                       choices=["transient", "sticky"],
                       help="whether retries re-encounter the fault")
    p_sdc.add_argument("--on-exhausted", default="flag-and-propagate",
                       choices=["raise", "flag-and-propagate"],
                       help="behavior when the retry budget is exhausted")
    p_sdc.add_argument("--workers", type=int, default=None,
                       help="shard trials across N worker processes "
                            "(same records as one process; default: "
                            "in-process)")
    p_sdc.add_argument("--no-recovery", action="store_true",
                       help="disable detection-triggered recovery")
    p_sdc.set_defaults(fn=_cmd_sdc)

    p_fleet = sub.add_parser(
        "fleet", help="fleet-scale deployment: registry, sweep, diff"
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)

    p_fdep = fleet_sub.add_parser(
        "deploy",
        help="deploy every model on every device, amortized per device "
             "family, recording plans in a registry",
    )
    p_fdep.add_argument("--models", nargs="+", required=True,
                        choices=list_models(), metavar="MODEL",
                        help="model-zoo names to deploy")
    p_fdep.add_argument("--devices", nargs="+", required=True,
                        choices=list_gpus(), metavar="DEVICE",
                        help="target devices")
    p_fdep.add_argument("--policy", default=None,
                        help="'guided' (default), 'fixed:TOKEN', or a bare "
                             "scheme token")
    p_fdep.add_argument("--dtype", default=None, choices=["fp16", "int8"],
                        help="numeric pipeline to deploy (default fp16)")
    p_fdep.add_argument("--batch", type=int, default=None,
                        help="batch size (model-specific default)")
    p_fdep.add_argument("--height", type=int, default=None,
                        help="input height (default 1080)")
    p_fdep.add_argument("--width", type=int, default=None,
                        help="input width (default 1920)")
    p_fdep.add_argument("--registry", default=None, metavar="FILE",
                        help="plan-registry JSON to merge into and save "
                             "(created if absent; identical re-deploys do "
                             "not add versions)")
    p_fdep.set_defaults(fn=_cmd_fleet_deploy)

    p_flist = fleet_sub.add_parser(
        "list", help="list a plan registry's slots and versions"
    )
    p_flist.add_argument("--registry", required=True, metavar="FILE")
    p_flist.set_defaults(fn=_cmd_fleet_list)

    p_fdiff = fleet_sub.add_parser(
        "diff",
        help="diff two registered plans for one model (across devices "
             "or versions): scheme and overhead deltas",
    )
    p_fdiff.add_argument("model", help="model whose plans to compare")
    p_fdiff.add_argument("device_a", help="device of the old plan")
    p_fdiff.add_argument("device_b", help="device of the new plan")
    p_fdiff.add_argument("--registry", required=True, metavar="FILE")
    p_fdiff.add_argument("--policy", default=None,
                         help="disambiguate when a (model, device) slot is "
                              "registered under several policies")
    p_fdiff.add_argument("--version-a", type=int, default=None,
                         help="old plan version (default: latest)")
    p_fdiff.add_argument("--version-b", type=int, default=None,
                         help="new plan version (default: latest)")
    p_fdiff.set_defaults(fn=_cmd_fleet_diff)

    p_lint = sub.add_parser(
        "lint",
        help="statically check determinism/lock/shm invariants (RL001-RL006)",
    )
    p_lint.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable report")
    p_lint.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all registered)")
    p_lint.add_argument("--ignore", default=None, metavar="CODES",
                        help="comma-separated rule codes to skip")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print each rule's contract and exit")
    p_lint.set_defaults(fn=_cmd_lint)

    p_sweep = sub.add_parser("sweep", help="Fig. 12 square-GEMM sweep")
    p_sweep.add_argument("--device", default="T4", choices=list_gpus())
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_exp = sub.add_parser("experiments", help="regenerate paper artifacts")
    p_exp.add_argument("names", nargs="*",
                       help="artifact names (default: all)")
    p_exp.add_argument("--list", action="store_true",
                       help="list registered experiment names and exit")
    p_exp.set_defaults(fn=_cmd_experiments)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
