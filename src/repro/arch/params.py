"""Architecture parameter descriptions.

These dataclasses capture everything the paper's analytic machinery consumes:
cache geometry (size, associativity, line size, replacement policy, sharing),
core resources (issue width, FMA pipes, register file), and chip topology
(cores grouped into dual-core modules sharing an L2, modules sharing an L3).

Every formula in Sections III and IV of the paper — the compute-to-memory
ratios (7)/(8)/(14)/(16) and the block-size constraints (9)-(11), (15),
(17)-(20) — is a pure function of these parameters, which is what makes the
block-size engine architecture-agnostic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.errors import ArchitectureError


class ReplacementPolicy(enum.Enum):
    """Cache replacement policies supported by the simulator."""

    LRU = "lru"
    RANDOM = "random"
    PLRU = "plru"  # tree pseudo-LRU


class WritePolicy(enum.Enum):
    """Cache write policies supported by the simulator."""

    WRITE_BACK = "write-back"
    WRITE_THROUGH = "write-through"


@dataclass(frozen=True)
class CacheParams:
    """Geometry and behaviour of one cache level.

    Attributes:
        name: Human-readable level name ("L1D", "L2", "L3").
        size_bytes: Total capacity in bytes.
        line_bytes: Cache line size in bytes.
        ways: Set associativity (number of ways).
        latency_cycles: Load-to-use latency on a hit, in core cycles.
        replacement: Replacement policy.
        write_policy: Write policy (the paper's caches are write-back).
        shared_by: Number of cores that share one instance of this cache.
        miss_energy_pj: Energy in picojoules charged per miss at this level
            (the cost of filling one line from the level below). Feeds the
            simple energy model on timed/simulated results.
    """

    name: str
    size_bytes: int
    line_bytes: int
    ways: int
    latency_cycles: int
    replacement: ReplacementPolicy = ReplacementPolicy.LRU
    write_policy: WritePolicy = WritePolicy.WRITE_BACK
    shared_by: int = 1
    miss_energy_pj: float = 200.0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ArchitectureError(
                f"{self.name}: size, line size and ways must be positive"
            )
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ArchitectureError(
                f"{self.name}: size {self.size_bytes} is not divisible by "
                f"line_bytes*ways = {self.line_bytes * self.ways}"
            )
        if self.latency_cycles < 0:
            raise ArchitectureError(f"{self.name}: negative latency")
        if self.shared_by < 1:
            raise ArchitectureError(f"{self.name}: shared_by must be >= 1")
        if self.miss_energy_pj < 0:
            raise ArchitectureError(
                f"{self.name}: miss_energy_pj must be non-negative"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets: size / (line * ways)."""
        return self.size_bytes // (self.line_bytes * self.ways)

    @property
    def way_bytes(self) -> int:
        """Capacity of a single way in bytes (= size / ways)."""
        return self.size_bytes // self.ways


@dataclass(frozen=True)
class CoreParams:
    """Resources of one core.

    Attributes:
        issue_width: Instructions issued per cycle (X-Gene: 4).
        fma_pipes: Number of FP pipelines supporting FMA (X-Gene: 1).
        load_ports: Number of load/store ports usable per cycle.
        fma_latency: FMA result latency in cycles.
        fma_throughput_cycles: Inverse throughput of one vector FMLA — a new
            FMLA starts on a pipe every this many cycles. The X-Gene core
            peaks at 4.8 Gflops at 2.4 GHz (paper Sec. II-A), i.e. 2 flops
            per cycle, so a 4-flop vector FMLA issues every 2 cycles.
        load_latency: L1-hit load-to-use latency in cycles.
        fp_registers: Number of architectural FP/SIMD registers (A64: 32).
        fp_register_bytes: Width of each FP register in bytes (NEON: 16).
        rename_registers: Physical FP registers available for renaming beyond
            the architectural file. The paper stresses ARMv8 has fewer than
            x86, motivating software register rotation.
        frequency_hz: Core clock (X-Gene: 2.4 GHz).
        flops_per_fma: FLOPs counted per scalar FMA lane (mul+add = 2).
        fma_energy_pj: Energy per vector FMA instruction, in picojoules.
        load_energy_pj: Energy per L1 load access, in picojoules.
        idle_energy_pj: Energy per cycle a core spends waiting (load
            imbalance, barriers), in picojoules. Big out-of-order cores
            burn more static power per idle cycle than LITTLE in-order
            ones, which is what makes the energy frontier interesting.
    """

    issue_width: int = 4
    fma_pipes: int = 1
    load_ports: int = 1
    fma_latency: int = 5
    fma_throughput_cycles: int = 2
    load_latency: int = 4
    fp_registers: int = 32
    fp_register_bytes: int = 16
    rename_registers: int = 8
    frequency_hz: float = 2.4e9
    flops_per_fma: int = 2
    fma_energy_pj: float = 40.0
    load_energy_pj: float = 20.0
    idle_energy_pj: float = 100.0

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ArchitectureError("issue_width must be >= 1")
        if self.fma_throughput_cycles < 1:
            raise ArchitectureError("fma_throughput_cycles must be >= 1")
        if self.fma_pipes < 1 or self.load_ports < 1:
            raise ArchitectureError("fma_pipes and load_ports must be >= 1")
        if self.fp_registers < 2:
            raise ArchitectureError("need at least 2 FP registers")
        if self.fp_register_bytes not in (8, 16, 32, 64):
            raise ArchitectureError(
                f"unsupported FP register width {self.fp_register_bytes}"
            )
        if self.frequency_hz <= 0:
            raise ArchitectureError("frequency must be positive")
        if min(self.fma_energy_pj, self.load_energy_pj,
               self.idle_energy_pj) < 0:
            raise ArchitectureError("per-event energies must be non-negative")

    @property
    def doubles_per_register(self) -> int:
        """How many float64 values fit in one FP register (NEON 128-bit: 2)."""
        return self.fp_register_bytes // 8

    @property
    def flops_per_cycle(self) -> float:
        """Peak double-precision FLOPs per cycle of one core."""
        lanes = self.doubles_per_register
        return (
            self.fma_pipes * lanes * self.flops_per_fma
            / self.fma_throughput_cycles
        )

    @property
    def peak_flops(self) -> float:
        """Peak double-precision FLOP/s of one core.

        One vector FMA every ``fma_throughput_cycles`` on each FMA pipe,
        each operating on a full register of float64 lanes, two FLOPs per
        lane. For the X-Gene parameters this is 4.8 Gflops.
        """
        return self.frequency_hz * self.flops_per_cycle


@dataclass(frozen=True)
class DramParams:
    """Main-memory timing.

    Attributes:
        latency_cycles: Access latency seen by a core, in core cycles.
        bandwidth_bytes_per_cycle: Sustainable bandwidth per memory bridge.
        bridges: Number of memory bridges (X-Gene: 2, Fig. 1).
    """

    latency_cycles: int = 180
    bandwidth_bytes_per_cycle: float = 16.0
    bridges: int = 2

    def __post_init__(self) -> None:
        if self.latency_cycles <= 0 or self.bandwidth_bytes_per_cycle <= 0:
            raise ArchitectureError("DRAM latency/bandwidth must be positive")
        if self.bridges < 1:
            raise ArchitectureError("need at least one memory bridge")


@dataclass(frozen=True)
class TlbParams:
    """TLB geometry (the paper's future-work item, modeled here).

    Attributes:
        entries: Number of TLB entries.
        page_bytes: Page size in bytes.
        miss_penalty_cycles: Cycles charged per TLB miss (walk cost).
    """

    entries: int = 512
    page_bytes: int = 4096
    miss_penalty_cycles: int = 30

    def __post_init__(self) -> None:
        if self.entries < 1 or self.page_bytes < 1:
            raise ArchitectureError("TLB entries/page size must be positive")


@dataclass(frozen=True)
class CoreClusterParams:
    """One homogeneous core class inside a (possibly asymmetric) chip.

    A cluster bundles a core description with the cache geometry that is
    private to the class: per-core L1D and the per-module L2 its modules
    share. A symmetric chip is the trivial special case of one cluster
    covering every core; a big.LITTLE chip declares one cluster per class.

    Attributes:
        name: Class name ("big", "LITTLE", ...).
        cores: Number of cores in this class.
        cores_per_module: Cores per L2-sharing module within the class.
        core: Core resources of this class.
        l1d: Per-core L1 data cache of this class.
        l2: Per-module L2 cache of this class.
    """

    name: str
    cores: int
    cores_per_module: int
    core: CoreParams
    l1d: CacheParams
    l2: CacheParams

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ArchitectureError(f"cluster {self.name}: needs >= 1 core")
        if self.cores_per_module < 1 or self.cores % self.cores_per_module:
            raise ArchitectureError(
                f"cluster {self.name}: {self.cores} cores do not divide "
                f"into modules of {self.cores_per_module}"
            )
        if self.l1d.shared_by != 1:
            raise ArchitectureError(
                f"cluster {self.name}: L1D must be private to a core"
            )
        if self.l2.shared_by != self.cores_per_module:
            raise ArchitectureError(
                f"cluster {self.name}: L2 shared_by must equal "
                "cores_per_module"
            )

    @property
    def modules(self) -> int:
        """Number of L2-sharing modules in this class."""
        return self.cores // self.cores_per_module

    @property
    def peak_flops(self) -> float:
        """Peak double-precision FLOP/s of the whole class."""
        return self.core.peak_flops * self.cores


@dataclass(frozen=True)
class ChipParams:
    """A whole multi-core chip.

    Attributes:
        name: Chip name.
        cores: Total number of cores.
        cores_per_module: Cores per dual-core module sharing an L2.
        core: Core resource description.
        l1d: Per-core L1 data cache.
        l2: Per-module L2 cache.
        l3: Chip-wide L3 cache (``None`` for two-level hierarchies).
        dram: Main-memory timing.
        tlb: Optional TLB description.
        clusters: Optional core classes for asymmetric (big.LITTLE) chips.
            Empty means the chip is symmetric and fully described by the
            flat fields above — the historical form, unchanged. When set,
            the flat ``core``/``l1d``/``l2``/``cores_per_module`` fields
            must mirror the first (fastest) cluster so that every existing
            symmetric consumer keeps working against the lead class.
    """

    name: str
    cores: int
    cores_per_module: int
    core: CoreParams
    l1d: CacheParams
    l2: CacheParams
    l3: Optional[CacheParams]
    dram: DramParams = field(default_factory=DramParams)
    tlb: Optional[TlbParams] = None
    clusters: Tuple[CoreClusterParams, ...] = ()

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ArchitectureError("chip needs at least one core")
        if self.clusters:
            total = sum(c.cores for c in self.clusters)
            if total != self.cores:
                raise ArchitectureError(
                    f"cluster cores sum to {total}, chip declares "
                    f"{self.cores}"
                )
            lead = self.clusters[0]
            if (self.core != lead.core or self.l1d != lead.l1d
                    or self.l2 != lead.l2
                    or self.cores_per_module != lead.cores_per_module):
                raise ArchitectureError(
                    "flat core/l1d/l2/cores_per_module fields must mirror "
                    "the first cluster"
                )
        elif self.cores_per_module < 1 or self.cores % self.cores_per_module:
            raise ArchitectureError(
                f"{self.cores} cores do not divide into modules of "
                f"{self.cores_per_module}"
            )
        if self.l1d.shared_by != 1:
            raise ArchitectureError("L1D must be private to a core")
        if self.l2.shared_by != self.cores_per_module:
            raise ArchitectureError(
                "L2 shared_by must equal cores_per_module"
            )
        if self.l3 is not None and self.l3.shared_by != self.cores:
            raise ArchitectureError("L3 must be shared by all cores")

    @property
    def is_asymmetric(self) -> bool:
        """Whether the chip declares more than one core class."""
        return len(self.clusters) > 1

    @property
    def core_clusters(self) -> Tuple[CoreClusterParams, ...]:
        """The core classes; a symmetric chip synthesizes a single one."""
        if self.clusters:
            return self.clusters
        return (
            CoreClusterParams(
                name="all",
                cores=self.cores,
                cores_per_module=self.cores_per_module,
                core=self.core,
                l1d=self.l1d,
                l2=self.l2,
            ),
        )

    def thread_clusters(self, threads: int) -> Tuple[int, ...]:
        """Cluster index for each of ``threads`` logical threads.

        Threads fill the clusters in declaration order (fastest class
        first), one thread per core, matching how an asymmetry-aware
        runtime would pin them.
        """
        if not 1 <= threads <= self.cores:
            raise ArchitectureError(
                f"thread count {threads} out of range 1..{self.cores}"
            )
        mapping = []
        for index, cluster in enumerate(self.core_clusters):
            take = min(cluster.cores, threads - len(mapping))
            mapping.extend([index] * take)
            if len(mapping) == threads:
                break
        return tuple(mapping)

    def cluster_view(self, index: int) -> "ChipParams":
        """A symmetric chip describing only cluster ``index``.

        The shared L3 (if any) is re-declared as shared by just this
        cluster's cores so the view passes the symmetric invariants; the
        analytic machinery can then price one class in isolation.
        """
        clusters = self.core_clusters
        if not 0 <= index < len(clusters):
            raise ArchitectureError(
                f"cluster index {index} out of range 0..{len(clusters) - 1}"
            )
        cluster = clusters[index]
        l3 = None
        if self.l3 is not None:
            l3 = replace(self.l3, shared_by=cluster.cores)
        return ChipParams(
            name=f"{self.name}:{cluster.name}",
            cores=cluster.cores,
            cores_per_module=cluster.cores_per_module,
            core=cluster.core,
            l1d=cluster.l1d,
            l2=cluster.l2,
            l3=l3,
            dram=self.dram,
            tlb=self.tlb,
        )

    def with_replacement(
        self, policy: ReplacementPolicy,
        l3: Optional[ReplacementPolicy] = None,
    ) -> "ChipParams":
        """A copy with every cache level using ``policy``; ``l3``, when
        given, for the L3 alone (e.g. an LRU L3 behind RANDOM inner
        levels)."""

        def level(cache, rule=policy):
            return replace(cache, replacement=rule)

        return replace(
            self,
            name=f"{self.name}-{policy.value}",
            l1d=level(self.l1d),
            l2=level(self.l2),
            l3=None if self.l3 is None else level(self.l3, l3 or policy),
            clusters=tuple(
                replace(c, l1d=level(c.l1d), l2=level(c.l2))
                for c in self.clusters
            ),
        )

    @property
    def modules(self) -> int:
        """Number of dual-core (in general, multi-core) modules."""
        if self.clusters:
            return sum(c.modules for c in self.clusters)
        return self.cores // self.cores_per_module

    @property
    def cache_levels(self) -> Tuple[CacheParams, ...]:
        """The cache levels from fastest to slowest, omitting a missing L3."""
        levels = [self.l1d, self.l2]
        if self.l3 is not None:
            levels.append(self.l3)
        return tuple(levels)

    @property
    def peak_flops(self) -> float:
        """Peak double-precision FLOP/s of the whole chip."""
        if self.clusters:
            return sum(c.peak_flops for c in self.clusters)
        return self.core.peak_flops * self.cores

    def peak_flops_for(self, threads: int) -> float:
        """Peak double-precision FLOP/s for ``threads`` single-thread cores.

        On an asymmetric chip threads occupy the fastest class first (the
        same placement as :meth:`thread_clusters`), so the peak is the sum
        of the occupied cores' individual peaks.
        """
        if not 1 <= threads <= self.cores:
            raise ArchitectureError(
                f"thread count {threads} out of range 1..{self.cores}"
            )
        if self.clusters:
            clusters = self.core_clusters
            return sum(
                clusters[index].core.peak_flops
                for index in self.thread_clusters(threads)
            )
        return self.core.peak_flops * threads
