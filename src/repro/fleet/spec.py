"""Fleet and tenant descriptions for placement.

The paper configures one host and one device; a fleet is N hosts x M
devices serving K tenants with heterogeneous SLOs. :class:`TenantSpec`
describes one tenant — a workload archetype (the paper's LC/batch/BE
app classes) plus a per-tenant SLO written in the exact grammar
``isol-bench tune --slo`` uses (:func:`repro.tune.slo.parse_group_terms`)
— and :class:`FleetSpec` describes the hardware: hosts, devices per
host, the device preset, and the per-device tenant capacity the
placement strategies must respect.

Device slots are named ``h<host>d<device>`` (``h0d0``, ``h0d1``, ...)
and ordered host-major; every placement artifact keys on those slot
names so reports stay byte-stable across worker counts.

Specs are plain frozen dataclasses with lossless JSON round-trips:
``isol-bench place --fleet my-fleet.json`` loads one with
:func:`load_fleet`, and :func:`demo_fleet` is the pinned golden fleet
the D7 experiment and CI smoke run against.
"""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, dataclass, fields, replace

from repro.ssd.model import SsdModel
from repro.ssd.presets import get_preset
from repro.tune.slo import GroupSlo, SloSpec, parse_group_terms
from repro.workloads.apps import batch_app, be_app, lc_app
from repro.workloads.spec import JobSpec

#: Tenant workload archetypes (the paper's §II-A app classes).
TENANT_KINDS = ("lc", "batch", "be")

#: Default queue depth per archetype. LC tenants are QD=1 by definition;
#: batch/BE tenants run a moderate depth (not the paper's saturating 256)
#: so a single tenant does not monopolize a device by construction.
DEFAULT_QUEUE_DEPTH = {"lc": 1, "batch": 64, "be": 64}

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9\-]*$")


def _check_keys(cls, doc, what: str) -> None:
    """Raise ValueError unless ``doc`` is an object with ``cls``'s keys.

    Names every unknown key and every missing required one, so a typo
    in a ``--fleet`` file reads as a message, not a constructor error.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    known = {f.name for f in fields(cls)}
    required = {
        f.name
        for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING
    }
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"{what}: unknown key(s) {', '.join(unknown)}")
    missing = sorted(required - set(doc))
    if missing:
        raise ValueError(f"{what}: missing key(s) {', '.join(missing)}")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a workload archetype plus its service-level objective."""

    #: Tenant name; doubles as the cgroup leaf (``/tenants/<name>``).
    name: str
    #: Workload archetype: ``lc`` | ``batch`` | ``be``.
    kind: str = "batch"
    #: Request size in KiB.
    size_kib: int = 4
    #: Closed-loop queue depth; None uses the archetype default.
    queue_depth: int | None = None
    #: Fraction of requests that are reads (1.0 = read-only).
    read_fraction: float = 1.0
    #: SLO terms in the ``tune --slo`` per-group grammar, e.g.
    #: ``"p99<=150,bw>=5"``; empty = no objective (best-effort tenant).
    slo: str = ""

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(
                f"tenant name {self.name!r} must be lowercase [a-z0-9-]"
            )
        if self.kind not in TENANT_KINDS:
            raise ValueError(
                f"tenant {self.name!r}: kind must be one of {TENANT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.size_kib < 1:
            raise ValueError(f"tenant {self.name!r}: size_kib must be >= 1")
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError(f"tenant {self.name!r}: queue_depth must be >= 1")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"tenant {self.name!r}: read_fraction in [0, 1]")
        # Validate the SLO text eagerly so a bad spec fails at parse
        # time, not in the middle of a placement run.
        parse_group_terms(self.slo)

    @property
    def cgroup(self) -> str:
        """The tenant's cgroup path (one cgroup per tenant)."""
        return f"/tenants/{self.name}"

    @property
    def effective_queue_depth(self) -> int:
        """The configured queue depth, or the archetype default."""
        return (
            self.queue_depth
            if self.queue_depth is not None
            else DEFAULT_QUEUE_DEPTH[self.kind]
        )

    def job_spec(self) -> JobSpec:
        """The tenant's workload as a :class:`~repro.workloads.spec.JobSpec`."""
        size = self.size_kib * 1024
        if self.kind == "lc":
            return lc_app(self.name, self.cgroup, size=size)
        builder = batch_app if self.kind == "batch" else be_app
        return builder(
            self.name,
            self.cgroup,
            size=size,
            read_fraction=self.read_fraction,
            queue_depth=self.effective_queue_depth,
        )

    def group_slo(self) -> GroupSlo | None:
        """The tenant's objective as a :class:`~repro.tune.slo.GroupSlo`."""
        p99, bandwidth = parse_group_terms(self.slo)
        if p99 is None and bandwidth is None:
            return None
        return GroupSlo(
            cgroup=self.cgroup, p99_latency_us=p99, min_bandwidth_mib_s=bandwidth
        )

    @property
    def p99_target_us(self) -> float | None:
        """The p99 ceiling (full-speed us), if the tenant declares one."""
        p99, _ = parse_group_terms(self.slo)
        return p99

    @property
    def objective_count(self) -> int:
        """How many SLO terms the tenant declares (eviction penalty unit)."""
        p99, bandwidth = parse_group_terms(self.slo)
        return int(p99 is not None) + int(bandwidth is not None)

    def to_json_dict(self) -> dict:
        """Lossless plain-dict form."""
        return {
            "name": self.name,
            "kind": self.kind,
            "size_kib": self.size_kib,
            "queue_depth": self.queue_depth,
            "read_fraction": self.read_fraction,
            "slo": self.slo,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TenantSpec":
        """Rebuild from a :meth:`to_json_dict` document."""
        _check_keys(cls, doc, "tenant")
        return cls(**doc)


@dataclass(frozen=True)
class FleetSpec:
    """The hardware substrate plus the tenants to place on it."""

    #: Fleet name (report titles, golden files).
    name: str
    #: Number of hosts in the fleet.
    hosts: int
    #: Identical NVMe devices per host.
    devices_per_host: int
    #: The tenants to place.
    tenants: tuple[TenantSpec, ...]
    #: Device preset every slot runs (``flash`` | ``optane``).
    device: str = "flash"
    #: Hard per-device tenant count the strategies must respect.
    max_tenants_per_device: int = 2
    #: Predicted per-device SLO-violation score beyond which the
    #: migration/eviction pass treats the device as saturated. The
    #: default sits just above one fully-capped term
    #: (:data:`~repro.tune.slo.VIOLATION_CAP`), so a single blown
    #: objective is tolerated (the strategy comparison stays visible)
    #: but a device drowning multiple objectives gets shed.
    saturation_threshold: float = 12.0

    def __post_init__(self) -> None:
        if self.hosts < 1:
            raise ValueError("a fleet needs at least one host")
        if self.devices_per_host < 1:
            raise ValueError("a fleet needs at least one device per host")
        if not self.tenants:
            raise ValueError("a fleet needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {sorted(names)}")
        if self.max_tenants_per_device < 1:
            raise ValueError("max_tenants_per_device must be >= 1")
        if self.saturation_threshold <= 0:
            raise ValueError("saturation_threshold must be positive")
        try:
            get_preset(self.device)  # fail fast on unknown presets
        except KeyError as exc:
            raise ValueError(str(exc)) from None

    @property
    def num_devices(self) -> int:
        """Total device slots across the fleet."""
        return self.hosts * self.devices_per_host

    def slots(self) -> tuple[str, ...]:
        """Ordered device-slot names, host-major (``h0d0``, ``h0d1``, ...)."""
        return tuple(
            f"h{host}d{device}"
            for host in range(self.hosts)
            for device in range(self.devices_per_host)
        )

    def ssd_model(self) -> SsdModel:
        """The device preset every slot runs."""
        return get_preset(self.device)

    def tenant(self, name: str) -> TenantSpec:
        """Look one tenant up by name."""
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise KeyError(f"no tenant {name!r} in fleet {self.name!r}")

    def tenant_names(self) -> tuple[str, ...]:
        """Tenant names in declaration order."""
        return tuple(tenant.name for tenant in self.tenants)

    def to_json_dict(self) -> dict:
        """Lossless plain-dict form (the ``--fleet`` file format)."""
        return {
            "name": self.name,
            "hosts": self.hosts,
            "devices_per_host": self.devices_per_host,
            "device": self.device,
            "max_tenants_per_device": self.max_tenants_per_device,
            "saturation_threshold": self.saturation_threshold,
            "tenants": [tenant.to_json_dict() for tenant in self.tenants],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FleetSpec":
        """Rebuild from a :meth:`to_json_dict` document."""
        _check_keys(cls, doc, "fleet")
        if not isinstance(doc["tenants"], list):
            raise ValueError("fleet: tenants must be a list of objects")
        doc = dict(doc)
        doc["tenants"] = tuple(
            TenantSpec.from_json_dict(tenant) for tenant in doc["tenants"]
        )
        return cls(**doc)


def load_fleet(path: str) -> FleetSpec:
    """Load a fleet description from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return FleetSpec.from_json_dict(json.load(handle))


def save_fleet(fleet: FleetSpec, path: str) -> None:
    """Write a fleet description as (sorted, indented) JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(fleet.to_json_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def apply_slo_overrides(fleet: FleetSpec, spec: SloSpec) -> FleetSpec:
    """Override tenant SLOs from a full ``parse_slo`` spec.

    Each group clause whose cgroup is ``/tenants/<name>`` of a fleet
    tenant replaces that tenant's SLO terms; clauses naming unknown
    tenants are an error (a typo would otherwise silently drop the
    objective). The utilization floor, if present, does not apply to
    placement and is rejected for the same reason.
    """
    if spec.utilization_floor is not None:
        raise ValueError(
            "util>= clauses do not apply to fleet placement; "
            "declare per-tenant p99<=/bw>= objectives instead"
        )
    by_cgroup = {tenant.cgroup: tenant for tenant in fleet.tenants}
    overrides: dict[str, str] = {}
    for group in spec.groups:
        if group.cgroup not in by_cgroup:
            known = sorted(by_cgroup)
            raise ValueError(
                f"--slo names {group.cgroup!r}, which is no fleet tenant; "
                f"tenant cgroups: {known}"
            )
        terms = []
        if group.p99_latency_us is not None:
            terms.append(f"p99<={group.p99_latency_us:g}")
        if group.min_bandwidth_mib_s is not None:
            terms.append(f"bw>={group.min_bandwidth_mib_s:g}")
        overrides[group.cgroup] = ",".join(terms)
    tenants = tuple(
        replace(tenant, slo=overrides[tenant.cgroup])
        if tenant.cgroup in overrides
        else tenant
        for tenant in fleet.tenants
    )
    return replace(fleet, tenants=tenants)


def demo_fleet() -> FleetSpec:
    """The pinned golden fleet (D7, CI smoke, `place` default).

    Two hosts x two devices, five tenants: two latency-critical tenants
    with tight p99 ceilings and three saturating batch tenants with
    bandwidth floors. Sized so the placement problem has real structure:
    with at most two tenants per device, an interference-aware strategy
    can keep the LC tenants away from the batch aggressors, while naive
    strategies co-locate them and blow the p99 ceilings.
    """
    return FleetSpec(
        name="demo-fleet",
        hosts=2,
        devices_per_host=2,
        device="flash",
        max_tenants_per_device=2,
        tenants=(
            TenantSpec("lc-api", kind="lc", slo="p99<=120,bw>=4"),
            TenantSpec("lc-kv", kind="lc", slo="p99<=140,bw>=4"),
            TenantSpec("batch-etl", kind="batch", size_kib=64, slo="bw>=1500"),
            TenantSpec("batch-scan", kind="batch", size_kib=256, slo="bw>=1500"),
            TenantSpec(
                "batch-log",
                kind="batch",
                size_kib=64,
                read_fraction=0.0,
                slo="bw>=600",
            ),
        ),
    )
