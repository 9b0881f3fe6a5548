"""RL003 — shared-memory segment lifecycle.

Contract guarded (DESIGN.md §9): every ``SharedMemory(create=True)``
segment is eventually both ``close()``d and ``unlink()``ed, on success
*and* failure paths — otherwise the process leaks ``/dev/shm`` space
(bounded by the kernel, so leaks eventually fail unrelated runs).  No
module in ``src/`` creates a segment since shard workers fork from
their campaign (DESIGN.md §4); the rule keeps a new one honest.  The
resource-tracker asymmetry (cpython#82300 — attachments registered as
if owned) is exactly this bug class.

Two checks per function:

* **creation** — a name assigned from ``SharedMemory(create=True, ...)``
  must either *escape* the function (returned/yielded, stored on an
  object or into a container, or handed to another call — ownership
  transfer to the caller, as in ``return payload, shm``) or be closed
  *and* unlinked in a ``finally`` block so exception paths clean up
  too;
* **pairing** — for any shm-like name (a parameter named ``shm`` /
  ``*_shm`` / ``shm_*``, or a local bound from a ``SharedMemory(...)``
  call), a ``finally`` that ``close()``s it while the function never
  ``unlink()``s it leaks the segment (and unlink-without-close leaks
  the mapping).  Attach-only handles that are merely closed outside a
  ``finally`` — worker-side caches — are not flagged.

Backstops: the synthetic sources of ``tests/analysis/test_rules.py``,
and ``tests/faults`` sharded-campaign leak assertions over ``/dev/shm``
before/after.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, ImportMap, ModuleContext, Rule, register, walk_functions


def _is_shm_like_name(name: str) -> bool:
    return name == "shm" or name.startswith("shm_") or name.endswith("_shm")


def _method_calls(tree: ast.AST, name: str) -> set[str]:
    """Method names called on the bare name (``name.close()`` → close)."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        ):
            out.add(node.func.attr)
    return out


def _finally_calls(func: ast.AST, name: str) -> dict[str, ast.Call]:
    """Calls on ``name`` reachable inside any ``finally`` block."""
    out: dict[str, ast.Call] = {}
    for node in ast.walk(func):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for stmt in node.finalbody:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == name
                ):
                    out.setdefault(sub.func.attr, sub)
    return out


def _escapes(func: ast.AST, name: str) -> bool:
    """Whether the bare name leaves the function (ownership transfer)."""
    for node in ast.walk(func):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None and _contains_bare(value, name):
                return True
        elif isinstance(node, ast.Assign):
            if _contains_bare(node.value, name) and any(
                isinstance(t, (ast.Attribute, ast.Subscript)) for t in node.targets
            ):
                return True
        elif isinstance(node, ast.Call):
            receiver = (
                node.func.value.id
                if isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                else None
            )
            if receiver == name:  # its own methods do not transfer it
                continue
            args = [*node.args, *(kw.value for kw in node.keywords)]
            if any(isinstance(a, ast.Name) and a.id == name for a in args):
                return True
    return False


def _contains_bare(tree: ast.expr, name: str) -> bool:
    """Whether the expression carries the handle itself.

    ``shm`` inside a tuple/list/call does; ``shm.name`` / ``shm.buf[...]``
    expose data *derived from* the handle, not the handle, so attribute
    and subscript bases do not count as escapes.
    """
    if isinstance(tree, ast.Name):
        return tree.id == name
    if isinstance(tree, (ast.Attribute, ast.Subscript)):
        return False
    return any(
        _contains_bare(child, name) for child in ast.iter_child_nodes(tree)
    )


@register
class ShmLifecycle(Rule):
    code = "RL003"
    name = "shm-lifecycle"
    contract = (
        "every SharedMemory(create=True) segment is closed and "
        "unlinked on all exception paths (or ownership escapes)"
    )
    backstops = "tests/faults /dev/shm leak checks around sharded campaigns"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for func in walk_functions(ctx.tree):
            yield from self._check_function(ctx, func, imports)

    def _check_function(
        self, ctx: ModuleContext, func: ast.AST, imports: ImportMap
    ) -> Iterator[Finding]:
        created: dict[str, ast.Call] = {}
        shm_like: set[str] = set()

        args = getattr(func, "args", None)
        if args is not None:
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *filter(None, (args.vararg, args.kwarg)),
            ):
                if _is_shm_like_name(arg.arg):
                    shm_like.add(arg.arg)

        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            dotted = imports.resolve(node.value.func)
            if not (dotted and dotted.endswith(".SharedMemory")):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    shm_like.add(target.id)
                    if any(
                        kw.arg == "create"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in node.value.keywords
                    ):
                        created[target.id] = node.value

        for name, call in created.items():
            cleanup = _finally_calls(func, name)
            if "close" in cleanup and "unlink" in cleanup:
                continue
            if _escapes(func, name):
                continue
            yield self.finding(
                ctx,
                call,
                f"SharedMemory(create=True) bound to {name!r} is neither "
                f"closed+unlinked in a finally block nor handed off; "
                f"exception paths leak the /dev/shm segment",
            )

        for name in sorted(shm_like):
            cleanup = _finally_calls(func, name)
            everywhere = _method_calls(func, name)
            if "close" in cleanup and "unlink" not in everywhere:
                yield self.finding(
                    ctx,
                    cleanup["close"],
                    f"finally closes shared segment {name!r} but the "
                    f"function never unlink()s it; the segment outlives "
                    f"every mapping",
                )
            elif "unlink" in cleanup and "close" not in everywhere:
                yield self.finding(
                    ctx,
                    cleanup["unlink"],
                    f"finally unlinks shared segment {name!r} without "
                    f"close(); the mapping (and its pages) leak",
                )
