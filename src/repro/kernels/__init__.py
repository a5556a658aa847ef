"""Register-kernel generation: specs, rotation, scheduling, codegen."""

from repro.kernels.atlas import (
    AtlasKernel,
    build_atlas_kernel,
    build_kvec_variant,
)
from repro.kernels.codegen import (
    A_POINTER,
    B_POINTER,
    C_POINTER,
    GeneratedKernel,
    c_register,
    generate_kernel,
)
from repro.kernels.compiled import (
    CompiledKernel,
    compilability,
    compile_kernel,
)
from repro.kernels.kernel_spec import (
    KernelStyle,
    KERNEL_4X4,
    KERNEL_5X5_ATLAS,
    KERNEL_8X4,
    KERNEL_8X6,
    KERNEL_8X6_NO_ROTATION,
    LANES,
    PAPER_KERNELS,
    KernelSpec,
)
from repro.kernels.rotation import (
    PAPER_SIGMA_8X6,
    RotationPlan,
    SlotReads,
    paper_plan,
    plan_from_cycle,
    slot_read_positions,
    solve_rotation,
    static_plan,
)
from repro.kernels.scheduling import BodySchedule, ScheduledOp, schedule_body
from repro.kernels.variants import PAPER_COMPARISON, VARIANTS, get_variant

__all__ = [
    "AtlasKernel",
    "build_atlas_kernel",
    "build_kvec_variant",
    "KernelSpec",
    "KernelStyle",
    "KERNEL_8X6",
    "KERNEL_8X4",
    "KERNEL_4X4",
    "KERNEL_5X5_ATLAS",
    "KERNEL_8X6_NO_ROTATION",
    "PAPER_KERNELS",
    "LANES",
    "RotationPlan",
    "SlotReads",
    "solve_rotation",
    "static_plan",
    "paper_plan",
    "plan_from_cycle",
    "slot_read_positions",
    "PAPER_SIGMA_8X6",
    "BodySchedule",
    "ScheduledOp",
    "schedule_body",
    "GeneratedKernel",
    "generate_kernel",
    "CompiledKernel",
    "compile_kernel",
    "compilability",
    "c_register",
    "A_POINTER",
    "B_POINTER",
    "C_POINTER",
    "VARIANTS",
    "PAPER_COMPARISON",
    "get_variant",
]
