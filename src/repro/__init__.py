"""repro — reproduction of the ICPP 2015 ARMv8 DGEMM paper.

The package implements, in pure Python + numpy:

- the Goto-algorithm DGEMM (blocking, packing, GEBP) of the paper
  (:mod:`repro.gemm`);
- the layer compute-to-memory ratios and the block-size engine of
  Sec. IV (:mod:`repro.model`, :mod:`repro.blocking`);
- the register-kernel generator with software register rotation and
  instruction scheduling (:mod:`repro.kernels`);
- a simulated ARMv8 machine — A64 ISA subset, scoreboard pipeline, and
  set-associative cache hierarchy — used to evaluate kernels the way the
  paper evaluates them on silicon (:mod:`repro.isa`, :mod:`repro.pipeline`,
  :mod:`repro.memory`, :mod:`repro.sim`).

See DESIGN.md for the substitution rationale and the per-experiment index.
"""

from repro._version import __version__

__all__ = ["__version__"]
