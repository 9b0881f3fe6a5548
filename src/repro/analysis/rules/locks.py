"""RL002 — lock discipline around shared mutable state.

Contract guarded (DESIGN.md §1/§5): classes that create a lock
(``self._lock = threading.Lock()`` and friends) do so because their
mutable state is shared across threads — ``PreparedCache`` entries and
hit counters, ``PreparedExecution``'s lazily built clean-comparison caches,
``ProtectedSession``'s synthesized-operand memo, the serving layer's
latency stats, worker set, idle workers and waiting requests.  Every
access to that state must happen inside a ``with self.<lock>`` block,
or a racing reader can observe a half-built entry.

The *guarded* attribute set is inferred, deliberately redundantly, as
the union of

* attributes write-accessed inside any ``with self.<lock>`` block, and
* attributes written in **any** ordinary method of the class
  (constructors and pickle plumbing — ``__init__``, ``__setstate__``,
  ... — are exempt: the object is not yet shared there).

The second clause is what makes the rule robust to the very bug it
hunts: deleting the only ``with self._lock:`` guard around a write
does not shrink the guarded set, so the now-naked access is still
flagged.  Deliberate lock-free fast paths (double-checked reads of
GIL-atomic dict gets) are annotated ``# repro: ignore[RL002]`` at the
exact line, so the suppression never outlives the pattern.

Backstops: ``tests/abft`` threaded PreparedCache stress tests and the
threaded session stress tests in ``tests/properties``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from ..core import Finding, ImportMap, ModuleContext, Rule, register

#: Calls whose result is a lock when assigned to a self attribute.
_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "multiprocessing.Lock",
    "multiprocessing.RLock",
}

#: Attribute names treated as locks regardless of how they were built.
_LOCK_NAMES = {"_lock", "_lazy_lock"}

#: Methods where the instance is not yet (or no longer) shared.
_EXEMPT_METHODS = {
    "__init__",
    "__new__",
    "__post_init__",
    "__getstate__",
    "__setstate__",
    "__reduce__",
    "__reduce_ex__",
    "__del__",
    "__copy__",
    "__deepcopy__",
}

#: Method calls that mutate their receiver in place.
_MUTATORS = {
    "append",
    "extend",
    "insert",
    "add",
    "discard",
    "remove",
    "clear",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "move_to_end",
    "sort",
    "reverse",
    "fill",
    "put",
}

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class _Access:
    """One ``self.<attr>`` touch inside a method."""

    attr: str
    node: ast.Attribute
    is_write: bool
    under_lock: bool


@register
class LockDiscipline(Rule):
    code = "RL002"
    name = "lock-discipline"
    contract = (
        "state written by methods of a lock-owning class is only "
        "touched inside `with self.<lock>` blocks"
    )
    backstops = "tests/abft threaded-cache and tests/properties concurrent-session stress tests"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for klass in ast.walk(ctx.tree):
            if isinstance(klass, ast.ClassDef):
                yield from self._check_class(ctx, klass, imports)

    def _check_class(
        self, ctx: ModuleContext, klass: ast.ClassDef, imports: ImportMap
    ) -> Iterator[Finding]:
        methods = [n for n in klass.body if isinstance(n, _FUNC_NODES)]
        lock_names = _lock_attributes(methods, imports)
        if not lock_names:
            return
        accesses = {m.name: list(_self_accesses(m, lock_names)) for m in methods}

        locked_writes = {
            a.attr
            for per_method in accesses.values()
            for a in per_method
            if a.is_write and a.under_lock
        }
        method_writes = {
            a.attr
            for method in methods
            if method.name not in _EXEMPT_METHODS
            for a in accesses[method.name]
            if a.is_write
        }
        guarded = (locked_writes | method_writes) - lock_names
        if not guarded:
            return

        for method in methods:
            if method.name in _EXEMPT_METHODS:
                continue
            for access in accesses[method.name]:
                if access.attr in guarded and not access.under_lock:
                    lock = sorted(lock_names)[0]
                    verb = "written" if access.is_write else "read"
                    yield self.finding(
                        ctx,
                        access.node,
                        f"self.{access.attr} is lock-guarded state of "
                        f"{klass.name} but is {verb} outside "
                        f"`with self.{lock}`",
                    )


def _lock_attributes(methods: list, imports: ImportMap) -> set[str]:
    """Attributes of ``self`` holding locks, across every method."""
    names: set[str] = set()
    for method in methods:
        for node in ast.walk(method):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                dotted = imports.resolve(node.value.func)
                if dotted in _LOCK_FACTORIES or attr in _LOCK_NAMES:
                    names.add(attr)
    return names


def _self_attr(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _self_accesses(method: ast.AST, lock_names: set[str]) -> Iterator[_Access]:
    """Classify every ``self.<attr>`` node in one method."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(method):
        for child in ast.iter_child_nodes(node):
            parents[child] = node

    for node in ast.walk(method):
        attr = _self_attr(node)
        if attr is None:
            continue
        yield _Access(
            attr=attr,
            node=node,  # type: ignore[arg-type]
            is_write=_is_write(node, parents),
            under_lock=_under_lock(node, parents, lock_names),
        )


def _is_write(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """Whether this attribute access mutates the attribute's value.

    Covers plain/augmented/annotated assignment and deletion
    (``self.x = ...``, ``self.x += ...``), stores through a subscript
    (``self.x[k] = ...``), stores through a sub-attribute
    (``self.x.flag = ...``), and in-place mutator calls
    (``self.x.append(...)``).
    """
    if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
        return True
    parent = parents.get(node)
    if (
        isinstance(parent, ast.Subscript)
        and parent.value is node
        and isinstance(parent.ctx, (ast.Store, ast.Del))
    ):
        return True
    if isinstance(parent, ast.Attribute) and parent.value is node:
        if isinstance(parent.ctx, (ast.Store, ast.Del)):
            return True
        grandparent = parents.get(parent)
        if (
            isinstance(grandparent, ast.Call)
            and grandparent.func is parent
            and parent.attr in _MUTATORS
        ):
            return True
    return False


def _under_lock(
    node: ast.AST, parents: dict[ast.AST, ast.AST], lock_names: set[str]
) -> bool:
    """Whether the node sits lexically inside ``with self.<lock>``."""
    current = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.With, ast.AsyncWith)):
            for item in current.items:
                attr = _self_attr(item.context_expr)
                if attr in lock_names:
                    return True
        current = parents.get(current)
    return False
