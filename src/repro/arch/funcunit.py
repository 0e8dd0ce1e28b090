"""Functional units and their operation set.

Paper §2: "Every functional unit can perform floating-point operations, and
some of them can also perform either integer/logical operations or max/min
computations."  §3 adds that within each ALS "only a single unit can perform
integer operations, and another unit has circuitry for min/max computations"
— the asymmetry that complicates compilation and that the checker must know
about.

Operations are two-input / one-output (or one-input with the B port unused);
``PASS`` is the identity used when a doublet is configured as a singlet by
bypassing one of its units (Fig. 4).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, NamedTuple

import numpy as np


class FUCapability(enum.Flag):
    """Capability circuitry present in a functional unit."""

    FP = enum.auto()           # floating point (all units)
    INT_LOGICAL = enum.auto()  # integer / logical ("double box" in Fig. 4)
    MINMAX = enum.auto()       # max/min circuitry

    @property
    def label(self) -> str:
        parts = []
        if FUCapability.FP in self:
            parts.append("fp")
        if FUCapability.INT_LOGICAL in self:
            parts.append("int")
        if FUCapability.MINMAX in self:
            parts.append("minmax")
        return "+".join(parts)


class Opcode(enum.Enum):
    """Operations selectable from the function-unit pop-up menu (Fig. 10)."""

    # Hashed by identity.  Members are singletons, so ``object.__hash__``
    # (a C slot) agrees with equality, where ``Enum.__hash__`` is a Python
    # call (``hash(self._name_)``) on every dict or set lookup keyed by a
    # member, hundreds per compile.  The same holds for the other plain
    # enums on the compile path (DeviceKind, InputModKind, ALSKind,
    # Direction, Severity, InterruptKind).  A set's iteration order was
    # already per-process (str hashes are salted), so identity hashing
    # adds no order dependence; pickles carry members by value.
    __hash__ = object.__hash__

    # floating point (capability FP)
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    FABS = "fabs"
    FSQRT = "fsqrt"
    FRECIP = "frecip"
    FSCALE = "fscale"    # multiply by a register-file constant
    FADDC = "faddc"      # add a register-file constant
    PASS = "pass"        # identity / bypass
    # comparisons produce 0.0 / 1.0 flags usable by the interrupt scheme
    FCMP_LT = "fcmp_lt"
    FCMP_LE = "fcmp_le"
    FCMP_GT = "fcmp_gt"
    FCMP_GE = "fcmp_ge"
    FCMP_EQ = "fcmp_eq"
    # integer / logical (capability INT_LOGICAL)
    IADD = "iadd"
    ISUB = "isub"
    IMUL = "imul"
    IAND = "iand"
    IOR = "ior"
    IXOR = "ixor"
    INOT = "inot"
    ISHL = "ishl"
    ISHR = "ishr"
    # max / min (capability MINMAX)
    MAX = "max"
    MIN = "min"
    MAXABS = "maxabs"
    MINABS = "minabs"


class OpInfo(NamedTuple):
    """Static description of one opcode.

    ``flops`` counts floating-point operations per element for MFLOPS
    accounting; ``arity`` is the number of stream inputs consumed; ``kernel``
    is the NumPy implementation used by the simulator (vectorized over whole
    streams, per the performance guidance for Python HPC code).
    """

    opcode: Opcode
    capability: FUCapability
    arity: int
    flops: int
    latency_key: str  # which NSCParameters latency field applies
    kernel: Callable[..., np.ndarray]
    uses_constant: bool = False

    @property
    def mnemonic(self) -> str:
        return self.opcode.value


def _as_int(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).astype(np.int64)


def _k_fdiv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(a, b)


def _k_frecip(a: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(1.0, a)


def _k_fsqrt(a: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.sqrt(a)


_KERNELS: Dict[Opcode, OpInfo] = {}


def _register(
    opcode: Opcode,
    capability: FUCapability,
    arity: int,
    flops: int,
    latency_key: str,
    kernel: Callable[..., np.ndarray],
    uses_constant: bool = False,
) -> None:
    _KERNELS[opcode] = OpInfo(
        opcode=opcode,
        capability=capability,
        arity=arity,
        flops=flops,
        latency_key=latency_key,
        kernel=kernel,
        uses_constant=uses_constant,
    )


_FP = FUCapability.FP
_INT = FUCapability.INT_LOGICAL
_MM = FUCapability.MINMAX

_register(Opcode.FADD, _FP, 2, 1, "fu_latency_fp", np.add)
_register(Opcode.FSUB, _FP, 2, 1, "fu_latency_fp", np.subtract)
_register(Opcode.FMUL, _FP, 2, 1, "fu_latency_fp", np.multiply)
_register(Opcode.FDIV, _FP, 2, 1, "fu_latency_div", _k_fdiv)
_register(Opcode.FNEG, _FP, 1, 1, "fu_latency_fp", np.negative)
_register(Opcode.FABS, _FP, 1, 1, "fu_latency_fp", np.abs)
_register(Opcode.FSQRT, _FP, 1, 1, "fu_latency_div", _k_fsqrt)
_register(Opcode.FRECIP, _FP, 1, 1, "fu_latency_div", _k_frecip)
_register(
    Opcode.FSCALE, _FP, 1, 1, "fu_latency_fp",
    lambda a, c=1.0: np.multiply(a, c), uses_constant=True,
)
_register(
    Opcode.FADDC, _FP, 1, 1, "fu_latency_fp",
    lambda a, c=0.0: np.add(a, c), uses_constant=True,
)
_register(Opcode.PASS, _FP, 1, 0, "fu_latency_int", lambda a: np.asarray(a))
_register(
    Opcode.FCMP_LT, _FP, 2, 1, "fu_latency_fp",
    lambda a, b: np.less(a, b).astype(np.float64),
)
_register(
    Opcode.FCMP_LE, _FP, 2, 1, "fu_latency_fp",
    lambda a, b: np.less_equal(a, b).astype(np.float64),
)
_register(
    Opcode.FCMP_GT, _FP, 2, 1, "fu_latency_fp",
    lambda a, b: np.greater(a, b).astype(np.float64),
)
_register(
    Opcode.FCMP_GE, _FP, 2, 1, "fu_latency_fp",
    lambda a, b: np.greater_equal(a, b).astype(np.float64),
)
_register(
    Opcode.FCMP_EQ, _FP, 2, 1, "fu_latency_fp",
    lambda a, b: np.equal(a, b).astype(np.float64),
)
_register(
    Opcode.IADD, _INT, 2, 0, "fu_latency_int",
    lambda a, b: (_as_int(a) + _as_int(b)).astype(np.float64),
)
_register(
    Opcode.ISUB, _INT, 2, 0, "fu_latency_int",
    lambda a, b: (_as_int(a) - _as_int(b)).astype(np.float64),
)
_register(
    Opcode.IMUL, _INT, 2, 0, "fu_latency_int",
    lambda a, b: (_as_int(a) * _as_int(b)).astype(np.float64),
)
_register(
    Opcode.IAND, _INT, 2, 0, "fu_latency_int",
    lambda a, b: (_as_int(a) & _as_int(b)).astype(np.float64),
)
_register(
    Opcode.IOR, _INT, 2, 0, "fu_latency_int",
    lambda a, b: (_as_int(a) | _as_int(b)).astype(np.float64),
)
_register(
    Opcode.IXOR, _INT, 2, 0, "fu_latency_int",
    lambda a, b: (_as_int(a) ^ _as_int(b)).astype(np.float64),
)
_register(
    Opcode.INOT, _INT, 1, 0, "fu_latency_int",
    lambda a: (~_as_int(a)).astype(np.float64),
)
_register(
    Opcode.ISHL, _INT, 2, 0, "fu_latency_int",
    lambda a, b: (_as_int(a) << np.clip(_as_int(b), 0, 62)).astype(np.float64),
)
_register(
    Opcode.ISHR, _INT, 2, 0, "fu_latency_int",
    lambda a, b: (_as_int(a) >> np.clip(_as_int(b), 0, 62)).astype(np.float64),
)
_register(Opcode.MAX, _MM, 2, 1, "fu_latency_minmax", np.maximum)
_register(Opcode.MIN, _MM, 2, 1, "fu_latency_minmax", np.minimum)
_register(
    Opcode.MAXABS, _MM, 2, 1, "fu_latency_minmax",
    lambda a, b: np.maximum(np.abs(a), np.abs(b)),
)
_register(
    Opcode.MINABS, _MM, 2, 1, "fu_latency_minmax",
    lambda a, b: np.minimum(np.abs(a), np.abs(b)),
)

#: Registry of every opcode's static description.
OPCODES: Dict[Opcode, OpInfo] = dict(_KERNELS)


def opinfo(opcode: Opcode) -> OpInfo:
    """Look up the :class:`OpInfo` for *opcode*."""
    return OPCODES[opcode]


def ops_for_capability(capability: FUCapability) -> list[Opcode]:
    """All opcodes executable by a unit with *capability*.

    This is exactly the filtering the editor applies when building the
    function-unit pop-up menu (Fig. 10): units without integer circuitry
    never see integer entries.
    """
    return [op for op, info in OPCODES.items() if info.capability in capability]


def scalar_eval(opcode: Opcode, a: float, b: float = 0.0, constant: float = 0.0) -> float:
    """Evaluate *opcode* on scalars; reference semantics for tests."""
    info = OPCODES[opcode]
    if info.uses_constant:
        out = info.kernel(np.float64(a), constant)
    elif info.arity == 1:
        out = info.kernel(np.float64(a))
    else:
        out = info.kernel(np.float64(a), np.float64(b))
    result = float(np.asarray(out))
    return result


__all__ = [
    "FUCapability",
    "Opcode",
    "OpInfo",
    "OPCODES",
    "opinfo",
    "ops_for_capability",
    "scalar_eval",
]
