"""Machine simulators: the CYBER 203/205 and the Finite Element Machine.

Both 1983 machines are gone, so both are simulated the same way: the
numerics execute for real (NumPy, Algorithm 1 as
:func:`repro.core.pcg.block_pcg`) while a calibrated cost model charges
time to every primitive the paper's implementation performs — vector
pipelines, control-vector masking and matvec-by-diagonals on the CYBER
(§3.1); local-link record exchanges, the signal-flag network and global
reductions on the Finite Element Machine (§3.2).
:mod:`repro.machines.timing` documents the calibration.  Each machine
records its charge stream once per segment (:mod:`repro.machines.charges`)
and replays it per solve; the model's A and B are read off the same
recordings.  Both run every solve, one cell (:meth:`ChargedMachine.solve`)
or a schedule, through one pass (:meth:`ChargedMachine.solve_schedule`)
over the same compiled merged sweep
(:class:`~repro.multicolor.sor.MStepSSOR`).
"""

from repro.machines.cells import normalize_cell
from repro.machines.charges import ChargedMachine, ChargeLog, ChargeStream, Recording
from repro.machines.comm import CommLog
from repro.machines.cyber import CyberMachine, CyberResult
from repro.machines.diagonals import DiagonalStorage
from repro.machines.fem_machine import FEMResult, FiniteElementMachine, speedup_table
from repro.machines.spmd import MessageLedger, SPMDResult, SPMDSolver
from repro.machines.timing import (
    CYBER_203,
    CYBER_205,
    FEM_1983,
    ArrayTimingModel,
    VectorTimingModel,
)
from repro.machines.topology import LINK_DIRECTIONS, Assignment, ProcessorGrid

__all__ = [
    "normalize_cell",
    "ChargedMachine",
    "ChargeLog",
    "ChargeStream",
    "Recording",
    "CommLog",
    "CyberMachine",
    "CyberResult",
    "DiagonalStorage",
    "FEMResult",
    "FiniteElementMachine",
    "speedup_table",
    "MessageLedger",
    "SPMDResult",
    "SPMDSolver",
    "CYBER_203",
    "CYBER_205",
    "FEM_1983",
    "ArrayTimingModel",
    "VectorTimingModel",
    "LINK_DIRECTIONS",
    "Assignment",
    "ProcessorGrid",
]
