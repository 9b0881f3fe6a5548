#!/usr/bin/env python3
"""How the intensity-guided selection moves with the device (paper §7.1).

The same NN splits differently between global and thread-level ABFT
depending on the device's compute-to-memory-bandwidth ratio: high-CMR
inference GPUs (T4, A100, Jetson) leave more layers bandwidth bound,
shifting the selection toward thread-level ABFT; the Tensor-Core-less
P4 (CMR 57) pushes almost everything to global.
"""

import repro
from repro.utils import Table


def main() -> None:
    for model_name in ("resnet50", "mlp_bottom", "coral"):
        model = repro.build_model(model_name)
        table = Table(
            ["device", "CMR", "thread layers", "global layers",
             "global (%)", "guided (%)", "reduction"],
            title=f"{model_name} (aggregate AI {model.aggregate_intensity():.1f})",
        )
        for device in repro.list_gpus():
            spec = repro.get_gpu(device)
            plan = repro.IntensityGuidedABFT(spec).select_for_model(model)
            counts = plan.selection_counts
            global_pct = plan.scheme_overhead_percent("global")
            guided_pct = plan.guided_overhead_percent
            table.add_row([
                spec.name, spec.cmr,
                counts.get("thread_onesided", 0), counts.get("global", 0),
                global_pct, guided_pct,
                global_pct / guided_pct if guided_pct > 0 else float("inf"),
            ])
        print(table.render())
        print()


if __name__ == "__main__":
    main()
