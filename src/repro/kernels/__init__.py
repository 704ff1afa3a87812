"""The kernel tier: pluggable array backends under the hot loops.

Importing this package registers every kernel's ``numpy`` fast path
and its ``reference`` executable spec; each pipeline stage's arithmetic
is one of them. See :mod:`repro.kernels.backend` for the selection
rules (``REPRO_BACKEND=numpy|reference``), :mod:`repro.kernels.tick`
for the tick plans that match a pipeline's stage chain
(``REPRO_FUSED=0|1``), and :mod:`repro.kernels.profile` for the
per-stage profiling hooks (``REPRO_PROFILE=1``).
"""

from . import (  # noqa: F401  (register kernels)
    cancellation,
    contour,
    gate,
    kalman,
    synthesis,
    tick,
)
from .backend import (
    active_backend,
    available_backends,
    backend_name,
    kernel,
    register,
    set_backend,
    synthesis_workers,
    use_backend,
)
from .cancellation import successive_cancel
from .contour import (
    background_power,
    contour_tick,
    first_local_max_above,
    row_median,
)
from .gate import outlier_gate
from .kalman import kalman_tick
from .profile import (
    StageProfiler,
    enable_profiling,
    profiling_enabled,
    reset_profiling_override,
)
from .synthesis import accumulate_spectra
from .tick import (
    TickPlan,
    compile_tick_plan,
    enable_fusion,
    fused_enabled,
    fusion_active,
    reset_fusion_override,
)

__all__ = [
    "StageProfiler",
    "TickPlan",
    "accumulate_spectra",
    "active_backend",
    "available_backends",
    "backend_name",
    "background_power",
    "compile_tick_plan",
    "contour_tick",
    "enable_fusion",
    "enable_profiling",
    "first_local_max_above",
    "fused_enabled",
    "fusion_active",
    "kalman_tick",
    "kernel",
    "outlier_gate",
    "profiling_enabled",
    "register",
    "reset_fusion_override",
    "reset_profiling_override",
    "row_median",
    "set_backend",
    "successive_cancel",
    "synthesis_workers",
    "use_backend",
]
