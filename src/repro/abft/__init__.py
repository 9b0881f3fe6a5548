"""ABFT schemes: global, thread-level (one/two-sided), replication.

Every scheme implements the :class:`~repro.abft.base.Scheme` interface:

* ``plan`` — the scheme's resource footprint (kernels with extra
  Tensor-Core FLOPs, ALU ops, bytes, registers, launches) used by the
  latency model to price execution-time overhead;
* ``execute`` — numeric protected GEMM over real data, applying injected
  faults and evaluating the scheme's consistency checks.

Numeric execution is backed by the prepared-execution engine:
``scheme.prepare(a, b)`` does the fault-invariant work once and the
returned :class:`~repro.abft.base.PreparedExecution` runs whole
batches of fault trials per NumPy dispatch (``inject_batch``, with
``inject`` as the single-trial wrapper); ``scheme.prepare_weights(b,
m=...)`` additionally caches the m-independent weight-side state
across activations of any row count.
"""

from .base import (
    ExecutionOutcome,
    OutcomeBatch,
    PlannedKernel,
    PreparedCache,
    PreparedExecution,
    PreparedWeights,
    Scheme,
    SchemePlan,
)
from .detection import (
    CheckVerdict,
    VerdictColumns,
    compare_checksums_batch,
)
from .none import NoProtection
from .global_abft import GlobalABFT
from .thread_onesided import ThreadLevelOneSided
from .thread_twosided import ThreadLevelTwoSided
from .replication import ReplicationSingleAccumulator, ReplicationTraditional
from .multi_fault import MultiChecksumGlobalABFT

_SCHEME_CLASSES = (
    NoProtection,
    GlobalABFT,
    ThreadLevelOneSided,
    ThreadLevelTwoSided,
    ReplicationTraditional,
    ReplicationSingleAccumulator,
)


def get_scheme(name: str, *, dtype: str = "fp16") -> Scheme:
    """Instantiate a scheme by its registry name (on either pipeline)."""
    from ..errors import ConfigurationError

    table = {cls.name: cls for cls in _SCHEME_CLASSES}
    try:
        cls = table[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown ABFT scheme {name!r}; known: {sorted(table)}"
        ) from None
    return cls(dtype=dtype)


def split_dtype_token(token: str) -> tuple[str, str]:
    """Split a deployment token into ``(scheme_part, dtype)``.

    The ``@dtype`` suffix selects the numeric pipeline:
    ``"global@int8"`` is global ABFT over the INT8 quantized executor;
    no suffix means FP16.

    Examples
    --------
    >>> from repro.abft import split_dtype_token
    >>> split_dtype_token("global_multi:2@int8")
    ('global_multi:2', 'int8')
    >>> split_dtype_token("thread_onesided")
    ('thread_onesided', 'fp16')
    """
    from ..errors import ConfigurationError

    base, sep, dtype = token.partition("@")
    if not sep:
        return token, "fp16"
    if dtype not in ("fp16", "int8"):
        raise ConfigurationError(
            f"malformed scheme token {token!r}: unknown dtype {dtype!r} "
            f"(expected fp16|int8)"
        )
    return base, dtype


def list_schemes() -> list[str]:
    """Registry names of all concrete schemes."""
    return sorted(cls.name for cls in _SCHEME_CLASSES)


def scheme_from_token(token: str) -> Scheme:
    """Instantiate a scheme from its deployment token.

    A token is the registry name, optionally followed by ``:`` and the
    scheme's constructor argument, optionally followed by ``@`` and the
    pipeline dtype — the serialized form deployment plans and the CLI
    use, e.g. ``"global"``, ``"thread_onesided@int8"``,
    ``"global_multi:4"`` (four independent checksums).  The single
    place that turns scheme *names* into scheme *instances*: the policy
    layer, the CLI, and the experiment drivers all route through it.

    Examples
    --------
    >>> from repro.abft import scheme_from_token
    >>> scheme_from_token("global@int8").dtype
    'int8'
    >>> scheme_from_token("global_multi:3").num_checksums
    3
    """
    from ..errors import ConfigurationError

    base, dtype = split_dtype_token(token)
    name, sep, arg = base.partition(":")
    if name == MultiChecksumGlobalABFT.name:
        if not sep:
            return MultiChecksumGlobalABFT(dtype=dtype)
        try:
            checksums = int(arg)
        except ValueError:
            raise ConfigurationError(
                f"malformed scheme token {token!r}: {name!r} takes an "
                f"integer checksum count, e.g. '{name}:2'"
            ) from None
        return MultiChecksumGlobalABFT(checksums, dtype=dtype)
    if name not in set(list_schemes()):
        # The token namespace is the registry plus global_multi;
        # get_scheme's error would omit the latter and steer a typo'd
        # user away from the scheme they meant.
        raise ConfigurationError(
            f"unknown ABFT scheme {name!r}; known: "
            f"{sorted([*list_schemes(), MultiChecksumGlobalABFT.name])}"
        )
    if sep:
        raise ConfigurationError(
            f"malformed scheme token {token!r}: scheme {name!r} takes no "
            f"constructor argument"
        )
    return get_scheme(name, dtype=dtype)


def scheme_token(scheme: Scheme) -> str:
    """The deployment token that round-trips ``scheme``.

    Inverse of :func:`scheme_from_token`: folds constructor arguments
    that change the scheme's prepared state (the same ones
    :attr:`Scheme.cache_token` commits to) into the serialized name,
    including the ``@int8`` pipeline suffix.
    """
    if isinstance(scheme, MultiChecksumGlobalABFT):
        base = f"{scheme.name}:{scheme.num_checksums}"
    else:
        base = scheme.name
    if scheme.dtype != "fp16":
        return f"{base}@{scheme.dtype}"
    return base


__all__ = [
    "Scheme",
    "SchemePlan",
    "PlannedKernel",
    "ExecutionOutcome",
    "OutcomeBatch",
    "PreparedCache",
    "PreparedExecution",
    "PreparedWeights",
    "CheckVerdict",
    "VerdictColumns",
    "compare_checksums_batch",
    "NoProtection",
    "GlobalABFT",
    "ThreadLevelOneSided",
    "ThreadLevelTwoSided",
    "ReplicationTraditional",
    "ReplicationSingleAccumulator",
    "MultiChecksumGlobalABFT",
    "get_scheme",
    "list_schemes",
    "scheme_from_token",
    "scheme_token",
    "split_dtype_token",
]
