"""Cross-module exhaustiveness rules: wire protocol and dispatch tables.

``wire-exhaustive``
    Every request message type declared in a ``wire.py`` (an ``MSG_X``
    with a matching ``MSG_X_OK`` reply) must be handled by the sibling
    ``server.py`` (both the request and its reply type referenced) and
    encodable by the sibling ``client.py`` (the request type referenced).
    Every declared ``MSG_*`` must also be registered in
    ``MESSAGE_NAMES``.  A message type added to the protocol but wired
    into only one side fails here instead of at runtime on a live
    connection.

``sweep-kernel``
    The ``SWEEP_KERNELS`` dispatch table maps sweep-scheduled ops to
    single-chunk kernel method names.  Every class implementing one of
    those kernels is an executor and must provide the ``_sweep`` seam —
    defined locally, inherited from a scanned base, or delegated via
    ``__getattr__``.  Every kernel name in the table must be implemented
    by at least one scanned class, and every table key must have a
    partition axis in ``SWEEP_AXIS``.
"""

from __future__ import annotations

import ast
import posixpath
from dataclasses import dataclass, field

from .findings import Finding

__all__ = ["WireExhaustiveRule", "SweepKernelRule"]


def _referenced_names(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


class WireExhaustiveRule:
    """Every wire message type must have a server handler + client encoder."""

    id = "wire-exhaustive"

    def run(self, modules):
        by_rel = {mod.rel: mod for mod in modules}
        for mod in modules:
            if posixpath.basename(mod.rel) != "wire.py":
                continue
            msgs = self._message_constants(mod.tree)
            if len(msgs) < 2:
                continue
            yield from self._check_protocol(mod, msgs, by_rel)

    @staticmethod
    def _message_constants(tree: ast.Module) -> dict[str, int]:
        msgs: dict[str, int] = {}
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.startswith("MSG_")
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, int)
            ):
                msgs[node.targets[0].id] = node.lineno
        return msgs

    def _check_protocol(self, mod, msgs: dict[str, int], by_rel):
        dirname = posixpath.dirname(mod.rel)
        server = by_rel.get(posixpath.join(dirname, "server.py"))
        client = by_rel.get(posixpath.join(dirname, "client.py"))
        server_names = _referenced_names(server.tree) if server else set()
        client_names = _referenced_names(client.tree) if client else set()
        registered = self._message_names_keys(mod.tree)

        for name, line in sorted(msgs.items(), key=lambda kv: kv[1]):
            if registered is not None and name not in registered:
                yield Finding(
                    rule=self.id, path=mod.rel, line=line, col=0,
                    message=f"{name} is not registered in MESSAGE_NAMES",
                )
            if name.endswith("_OK") or f"{name}_OK" not in msgs:
                continue  # replies/notifications are checked via their request
            reply = f"{name}_OK"
            if server is not None and (
                name not in server_names or reply not in server_names
            ):
                missing = name if name not in server_names else reply
                yield Finding(
                    rule=self.id, path=mod.rel, line=line, col=0,
                    message=(
                        f"request {name} has no server handler — {missing} is "
                        f"never referenced in {server.rel}"
                    ),
                )
            if client is not None and name not in client_names:
                yield Finding(
                    rule=self.id, path=mod.rel, line=line, col=0,
                    message=(
                        f"request {name} has no client encoder — never "
                        f"referenced in {client.rel}"
                    ),
                )

    @staticmethod
    def _message_names_keys(tree: ast.Module) -> set[str] | None:
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "MESSAGE_NAMES"
                and isinstance(node.value, ast.Dict)
            ):
                return {
                    k.id for k in node.value.keys if isinstance(k, ast.Name)
                }
        return None


@dataclass
class _ClassInfo:
    name: str
    rel: str
    line: int
    bases: list[str] = field(default_factory=list)
    methods: set[str] = field(default_factory=set)


class SweepKernelRule:
    """Every SWEEP_KERNELS executor must implement the _sweep seam."""

    id = "sweep-kernel"

    SEAM = "_sweep"

    def run(self, modules):
        classes: list[_ClassInfo] = []
        by_name: dict[str, list[_ClassInfo]] = {}
        tables: list[tuple[object, int, dict[str, str], set[str] | None]] = []
        for mod in modules:
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.ClassDef):
                    info = _ClassInfo(
                        name=node.name,
                        rel=mod.rel,
                        line=node.lineno,
                        bases=[self._base_name(b) for b in node.bases],
                        methods={
                            s.name
                            for s in node.body
                            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                        },
                    )
                    classes.append(info)
                    by_name.setdefault(info.name, []).append(info)
            table = self._dispatch_table(mod.tree, "SWEEP_KERNELS")
            if table is not None:
                axis = self._dispatch_table(mod.tree, "SWEEP_AXIS")
                tables.append(
                    (mod, table[1], table[0], set(axis[0]) if axis else None)
                )

        for mod, line, kernels, axis_ops in tables:
            implemented: set[str] = set()
            for info in classes:
                hit = set(kernels.values()) & info.methods
                if not hit:
                    continue
                implemented |= hit
                if not self._has_seam(info, by_name):
                    yield Finding(
                        rule=self.id,
                        path=info.rel,
                        line=info.line,
                        col=0,
                        message=(
                            f"class {info.name} implements SWEEP_KERNELS "
                            f"kernel(s) {sorted(hit)} but neither defines nor "
                            f"inherits the '{self.SEAM}' seam (and has no "
                            "__getattr__ delegation) — it cannot run a chunk "
                            "sweep"
                        ),
                    )
            for op, kernel in sorted(kernels.items()):
                if kernel not in implemented:
                    yield Finding(
                        rule=self.id, path=mod.rel, line=line, col=0,
                        message=(
                            f"SWEEP_KERNELS[{op!r}] names kernel method "
                            f"{kernel!r}, which no scanned class implements"
                        ),
                    )
                if axis_ops is not None and op not in axis_ops:
                    yield Finding(
                        rule=self.id, path=mod.rel, line=line, col=0,
                        message=(
                            f"op {op!r} is in SWEEP_KERNELS but has no "
                            "partition axis in SWEEP_AXIS"
                        ),
                    )

    @staticmethod
    def _base_name(node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return ""

    @staticmethod
    def _dispatch_table(
        tree: ast.Module, name: str
    ) -> tuple[dict[str, str], int] | None:
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name
                and isinstance(node.value, ast.Dict)
            ):
                table: dict[str, str] = {}
                for k, v in zip(node.value.keys, node.value.values):
                    if isinstance(k, ast.Constant) and isinstance(v, ast.Constant):
                        table[str(k.value)] = str(v.value)
                return table, node.lineno
        return None

    def _has_seam(self, info: _ClassInfo, by_name) -> bool:
        seen: set[str] = set()
        stack = [info]
        while stack:
            cls = stack.pop()
            if cls.name in seen:
                continue
            seen.add(cls.name)
            if self.SEAM in cls.methods or "__getattr__" in cls.methods:
                return True
            for base in cls.bases:
                for candidate in by_name.get(base, []):
                    stack.append(candidate)
        return False
