"""One options object for every campaign entry point.

:class:`CampaignOptions` collapses the execution knobs that were
duplicated — with drifting subsets — across :class:`~repro.faults.
FaultCampaign`, :class:`~repro.faults.PropagationCampaign`, and the
:class:`~repro.api.ProtectedSession` campaign methods into a single
frozen dataclass accepted everywhere as ``options=``.

Every field defaults to ``None``, meaning "the consumer's own default",
so a partially filled options object composes with per-consumer
defaults exactly like the individual kwargs did.  The trial-shaping
knobs (``seed`` / ``significance_factor`` / ``batch_size``) may be
given either through ``options=`` or through the corresponding
keyword, never both; ``detection`` / ``cache`` /
``workers`` travel only on the options object (their keyword aliases
were removed after one deprecated release).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any

from ..errors import FaultInjectionError

if TYPE_CHECKING:  # pragma: no cover
    from ..abft.base import PreparedCache
    from ..config import DetectionConstants


@dataclass(frozen=True)
class CampaignOptions:
    """Execution knobs shared by every campaign entry point.

    Attributes
    ----------
    seed:
        Fault-draw RNG seed (effective default ``0``).
    detection:
        Detection constants.  GEMM-level campaigns default to the
        scheme's own :attr:`~repro.abft.Scheme.default_detection`
        (sessions to their own constants); a
        :class:`~repro.faults.PropagationCampaign` inherits its
        engine's constants and rejects a conflicting value.
    significance_factor:
        Significance threshold multiplier (effective default ``4.0``).
    batch_size:
        Trials per chunked ``inject_batch`` call (default:
        :attr:`~repro.faults.FaultCampaign.BATCH_SIZE`).
    cache:
        Shared :class:`~repro.abft.base.PreparedCache`.  A propagation
        campaign inherits its engine's cache and rejects a conflicting
        value.
    workers:
        Default worker-process count for every run of the campaign.

    Example
    -------
    >>> from repro.faults import CampaignOptions
    >>> opts = CampaignOptions(seed=7, workers=2)
    >>> opts.with_defaults(seed=0, batch_size=64)
    CampaignOptions(seed=7, detection=None, significance_factor=None, \
batch_size=64, cache=None, workers=2)
    """

    seed: int | None = None
    detection: "DetectionConstants | None" = None
    significance_factor: float | None = None
    batch_size: int | None = None
    cache: "PreparedCache | None" = None
    workers: int | None = None

    def with_defaults(self, **defaults: Any) -> "CampaignOptions":
        """A copy with every still-``None`` field filled from ``defaults``."""
        known = {field.name for field in fields(self)}
        unknown = set(defaults) - known
        if unknown:
            raise TypeError(
                f"unknown CampaignOptions fields: {sorted(unknown)}"
            )
        updates = {
            name: value
            for name, value in defaults.items()
            if getattr(self, name) is None
        }
        return replace(self, **updates) if updates else self


def resolve_option(
    options: CampaignOptions | None, owner: str, name: str, value: Any
) -> Any:
    """The effective value of a knob settable as a keyword or via options.

    ``None`` means "not given" on both sides; giving both raises (which
    side wins would otherwise be a silent guess).
    """
    from_options = getattr(options, name) if options is not None else None
    if value is not None and from_options is not None:
        raise FaultInjectionError(
            f"{owner}: {name!r} given both directly and via options="
        )
    return value if value is not None else from_options
