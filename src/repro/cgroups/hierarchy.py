"""The cgroup v2 tree.

Implements the structural rules the paper describes in §IV-A:

* every process lives in exactly one group; the root always exists;
* a group is either a *management group* (has controllers enabled in
  ``cgroup.subtree_control``, may not hold processes) or a *process
  group* (holds processes, may not delegate controllers) -- the "no
  internal processes" rule;
* I/O knob files are only writable when the parent delegates the ``io``
  controller (the "+io" marks in the paper's Fig. 1);
* ``io.cost.qos`` / ``io.cost.model`` are root-only;
* ``io.prio.class`` is not inheritable: controllers read it from the
  process's own group only.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.cgroups.errors import DelegationError, InvalidKnobValue
from repro.cgroups.knobs import (
    IO_WEIGHT_DEFAULT,
    BFQ_WEIGHT_DEFAULT,
    KNOB_SPECS,
    PrioClass,
)

_VALID_CONTROLLERS = {"io", "cpu", "memory"}


class Cgroup:
    """One node of the cgroup v2 tree."""

    def __init__(self, name: str, parent: Optional["Cgroup"]):
        if parent is not None:
            if not name or "/" in name or name in (".", ".."):
                raise DelegationError(f"invalid cgroup name {name!r}")
        self.name = name
        self.parent = parent
        # name/parent never change after construction, so the absolute
        # path is computed once; controllers key per-group state by it on
        # every request.
        if parent is None:
            self._path = "/"
        else:
            parent_path = parent._path
            self._path = parent_path + name if parent_path == "/" else f"{parent_path}/{name}"
        self.children: dict[str, Cgroup] = {}
        self.processes: set[str] = set()
        self.subtree_control: set[str] = set()
        # Parsed knob state. Scalar knobs store a single value; per-device
        # knobs store {device_id: params}.
        self._scalar_knobs: dict[str, object] = {}
        self._device_knobs: dict[str, dict[str, object]] = {}

    # ------------------------------------------------------------------
    # Tree structure
    # ------------------------------------------------------------------
    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def path(self) -> str:
        return self._path

    def create_child(self, name: str) -> "Cgroup":
        """Create a child group (mkdir)."""
        if name in self.children:
            raise DelegationError(f"cgroup {self.path}/{name} already exists")
        child = Cgroup(name, self)
        self.children[name] = child
        return child

    def remove_child(self, name: str) -> None:
        """Remove an empty child group (rmdir)."""
        child = self.children.get(name)
        if child is None:
            raise DelegationError(f"no child {name!r} under {self.path}")
        if child.processes or child.children:
            raise DelegationError(f"cgroup {child.path} is not empty")
        del self.children[name]

    def enable_subtree_control(self, controller: str) -> None:
        """Write ``+controller`` to cgroup.subtree_control."""
        if controller not in _VALID_CONTROLLERS:
            raise DelegationError(f"unknown controller {controller!r}")
        if self.processes:
            raise DelegationError(
                f"cannot enable +{controller} on {self.path}: group has processes "
                "(no-internal-processes rule)"
            )
        if not self.is_root and controller not in self.parent.subtree_control:
            raise DelegationError(
                f"cannot enable +{controller} on {self.path}: parent does not delegate it"
            )
        self.subtree_control.add(controller)

    def disable_subtree_control(self, controller: str) -> None:
        """Write ``-controller`` to cgroup.subtree_control."""
        for child in self.children.values():
            if controller in child.subtree_control:
                raise DelegationError(
                    f"cannot disable +{controller} on {self.path}: child {child.path} uses it"
                )
        self.subtree_control.discard(controller)

    def add_process(self, proc_name: str) -> None:
        """Attach a process (write to cgroup.procs)."""
        if self.subtree_control:
            raise DelegationError(
                f"cannot add process to management group {self.path} "
                "(no-internal-processes rule)"
            )
        self.processes.add(proc_name)

    @property
    def is_management_group(self) -> bool:
        return bool(self.subtree_control)

    @property
    def is_process_group(self) -> bool:
        return bool(self.processes)

    def walk(self) -> Iterator["Cgroup"]:
        """Depth-first traversal including self."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    def ancestors(self) -> Iterator["Cgroup"]:
        """From parent up to (and including) the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    # ------------------------------------------------------------------
    # Knob files
    # ------------------------------------------------------------------
    def _check_io_writable(self, knob_name: str) -> None:
        spec = KNOB_SPECS[knob_name]
        if spec.root_only and not self.is_root:
            raise DelegationError(f"{knob_name} can only be set in the root cgroup")
        if spec.root_only:
            return
        # io.prio.class exists in every group (it is a hint, not an io
        # controller file); other knobs need the parent to delegate io.
        if knob_name == "io.prio.class":
            return
        if self.is_root:
            return
        if "io" not in self.parent.subtree_control:
            raise DelegationError(
                f"cannot write {knob_name} on {self.path}: parent {self.parent.path} "
                "does not enable +io in cgroup.subtree_control"
            )

    def write(self, knob_name: str, raw: str) -> None:
        """Write a string to a knob file, with kernel-style validation."""
        spec = KNOB_SPECS.get(knob_name)
        if spec is None:
            raise InvalidKnobValue(
                f"unknown knob file {knob_name!r}; options: {sorted(KNOB_SPECS)}"
            )
        self._check_io_writable(knob_name)
        if spec.per_device:
            device, params = spec.parse(raw)
            self._device_knobs.setdefault(knob_name, {})[device] = params
        else:
            self._scalar_knobs[knob_name] = spec.parse(raw)

    def read_parsed(self, knob_name: str, device: Optional[str] = None):
        """Read back parsed knob state (None when unset)."""
        spec = KNOB_SPECS.get(knob_name)
        if spec is None:
            raise InvalidKnobValue(f"unknown knob file {knob_name!r}")
        if spec.per_device:
            table = self._device_knobs.get(knob_name, {})
            return table.get(device) if device is not None else dict(table)
        return self._scalar_knobs.get(knob_name)

    # Convenience accessors used by the controllers ---------------------
    def io_weight(self) -> int:
        """Effective io.weight (default 100 when unset)."""
        value = self._scalar_knobs.get("io.weight")
        return value if value is not None else IO_WEIGHT_DEFAULT

    def bfq_weight(self) -> int:
        """Effective io.bfq.weight (default 100 when unset)."""
        value = self._scalar_knobs.get("io.bfq.weight")
        return value if value is not None else BFQ_WEIGHT_DEFAULT

    def prio_class(self) -> PrioClass:
        """io.prio.class of *this* group only (not inheritable, §IV-B)."""
        value = self._scalar_knobs.get("io.prio.class")
        return value if value is not None else PrioClass.NONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "mgmt" if self.is_management_group else "proc" if self.is_process_group else "empty"
        return f"Cgroup({self.path}, {kind})"


class CgroupHierarchy:
    """The mounted cgroup v2 tree with path lookup helpers."""

    def __init__(self) -> None:
        self.root = Cgroup("", None)
        # The root implicitly has every controller available to delegate.
        self.root.subtree_control.update(_VALID_CONTROLLERS)

    def find(self, path: str) -> Cgroup:
        """Resolve an absolute path like ``/tenants/a.service``."""
        if not path.startswith("/"):
            raise DelegationError(f"cgroup paths are absolute, got {path!r}")
        node = self.root
        for part in path.strip("/").split("/"):
            if not part:
                continue
            child = node.children.get(part)
            if child is None:
                raise DelegationError(f"no such cgroup: {path!r} (missing {part!r})")
            node = child
        return node

    def create(self, path: str, processes: bool = False) -> Cgroup:
        """Create all groups along ``path``; intermediate groups get +io.

        ``processes=True`` marks the leaf as a process group (it will hold
        apps); intermediate nodes become management groups so the leaf's
        io knob files are writable, matching the paper's Fig. 1 layout.
        """
        if not path.startswith("/"):
            raise DelegationError(f"cgroup paths are absolute, got {path!r}")
        node = self.root
        parts = [part for part in path.strip("/").split("/") if part]
        for i, part in enumerate(parts):
            child = node.children.get(part)
            if child is None:
                child = node.create_child(part)
            is_leaf = i == len(parts) - 1
            if not is_leaf and "io" not in child.subtree_control:
                child.enable_subtree_control("io")
            node = child
        if processes and node.subtree_control:
            raise DelegationError(f"{path} is a management group; cannot hold processes")
        return node

    def groups(self) -> Iterator[Cgroup]:
        """All groups, depth-first from the root."""
        return self.root.walk()

    def leaf_for_process(self, proc_name: str) -> Optional[Cgroup]:
        """Find the group holding ``proc_name`` (None if not attached)."""
        for group in self.root.walk():
            if proc_name in group.processes:
                return group
        return None
