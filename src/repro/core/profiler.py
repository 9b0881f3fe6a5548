"""Pre-deployment profiler: configurations x schemes -> fastest (paper §5.3).

Frameworks like TensorRT/TVM/cuDNN/CUTLASS enumerate and execute all
configurations of each layer before deployment and keep the fastest.
Intensity-guided ABFT rides that workflow: the enumeration additionally
spans ABFT schemes, and the per-layer winner is whichever (tile, scheme)
pair has the lowest execution time.

Here the stopwatch is the analytic latency model (DESIGN.md §6's
documented substitution); the workflow — including the baseline's
freedom to pick a *different* tile than the protected kernels — is
preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..abft import get_scheme
from ..abft.base import Scheme, SchemePlan
from ..config import DEFAULT_CONSTANTS, ModelConstants
from ..errors import OccupancyError, ProfilingError
from ..gemm.counters import MainloopCost, mainloop_cost
from ..gemm.problem import GemmProblem
from ..gemm.tiles import DEFAULT_TILE_CONFIGS, TileConfig
from ..gpu.specs import GPUSpec
from ..gpu.timing import DeviceTable


@dataclass(frozen=True)
class ProfileEntry:
    """The winning configuration of one scheme for one problem."""

    scheme: str
    tile: TileConfig
    time_s: float
    plan: SchemePlan


class PredeploymentProfiler:
    """Rank (tile, scheme) pairs for GEMM problems on one device.

    Parameters
    ----------
    spec:
        Target device.
    schemes:
        Scheme instances (or registry names) to enumerate.  The
        unprotected baseline is always profiled as well.
    tiles:
        Tile-configuration candidates.
    constants:
        Latency-model constants.
    """

    def __init__(
        self,
        spec: GPUSpec,
        *,
        schemes: Sequence[Scheme | str] = ("global", "thread_onesided"),
        tiles: Sequence[TileConfig] = DEFAULT_TILE_CONFIGS,
        constants: ModelConstants = DEFAULT_CONSTANTS,
    ) -> None:
        if not schemes:
            raise ProfilingError("profiler needs at least one scheme")
        if not tiles:
            raise ProfilingError("profiler needs at least one tile candidate")
        self.spec = spec
        self.schemes: list[Scheme] = [
            get_scheme(s) if isinstance(s, str) else s for s in schemes
        ]
        self.tiles = list(tiles)
        self.constants = constants
        self._baseline = get_scheme("none")
        # Per profiler, not process-global: each deploy prices against
        # its own spec and constants, and the table dies with it.
        self._device = DeviceTable(spec, constants)
        self._cache: dict[tuple[int, int, int], dict[str, ProfileEntry]] = {}

    # ------------------------------------------------------------------
    def _best_for_scheme(
        self, problem: GemmProblem, scheme: Scheme, costs: Sequence[MainloopCost]
    ) -> ProfileEntry:
        best: ProfileEntry | None = None
        for tile, cost in zip(self.tiles, costs):
            try:
                plan = scheme.plan(problem, tile, self.constants, cost=cost)
                time_s = plan.modeled_time(self.spec, self.constants, table=self._device)
            except OccupancyError:
                continue  # configuration cannot be scheduled on this device
            if best is None or time_s < best.time_s:
                best = ProfileEntry(scheme=scheme.name, tile=tile, time_s=time_s, plan=plan)
        if best is None:
            raise ProfilingError(
                f"no tile configuration of scheme {scheme.name!r} is schedulable "
                f"for {problem} on {self.spec.name}"
            )
        return best

    def profile(self, problem: GemmProblem) -> Mapping[str, ProfileEntry]:
        """Best configuration per scheme (plus the ``"none"`` baseline).

        Results are cached by (M, N, K): identical layer shapes — common
        inside NNs — are profiled once, as a real pre-deployment
        optimizer would.
        """
        key = (problem.m, problem.n, problem.k)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        # Every scheme adds its work to the same unprotected mainloop, so
        # each tile is costed once per problem, not once per scheme.
        costs = [mainloop_cost(problem, tile, self.constants) for tile in self.tiles]
        entries: dict[str, ProfileEntry] = {
            self._baseline.name: self._best_for_scheme(problem, self._baseline, costs)
        }
        for scheme in self.schemes:
            entries[scheme.name] = self._best_for_scheme(problem, scheme, costs)
        self._cache[key] = entries
        return entries

    def baseline_time(self, problem: GemmProblem) -> float:
        """Modeled time of the fastest unprotected configuration."""
        return self.profile(problem)["none"].time_s

    def scheme_time(self, problem: GemmProblem, scheme_name: str) -> float:
        """Modeled time of the fastest configuration of one scheme."""
        entries = self.profile(problem)
        if scheme_name not in entries:
            raise ProfilingError(
                f"scheme {scheme_name!r} was not enumerated; "
                f"have {sorted(entries)}"
            )
        return entries[scheme_name].time_s
