"""Settling a sweep's convergence test from two elements per row.

A sweep image whose condition unit folds its whole stream into one value
(a *reduced* condition: :attr:`~repro.sim.progplan.ImageKernel.reduce_fus`)
ends in steps that exist only to decide the exit test — for the Jacobi
sweep ``max|u_new - u| < eps``: the subtraction, the ``abs`` and the
max-reduce.  One element that fails the test already decides it.  Under
``lt``/``le`` the folded maximum is at least the value at any position,
so a value ``v`` with ``not v < eps`` proves the condition does not fire;
a nan there proves it too, since the fold is then nan.  Under ``gt``/``ge``
the folded minimum is at most the value at any position, likewise.

So each row keeps *witnesses*: the last two positions where its reduce's
input was largest (smallest, for a minimum) at a full reduction.  On the
script walk (:class:`~repro.sim.batchplan.BatchProgramRun`) an issue
runs its runner, then evaluates the chain at each active row's witnesses
in Python floats.  When every active row has a witness that fails the
exit test, the issue logs ``False`` for its rows and skips the chain.
Otherwise the chain and the reduction run, and the rows that did not
fire refresh their witnesses from the reduce's input.  Where the
witnesses point only decides how often an issue settles, never a value:
the test reads the chain's own operands, and Python's float ``+``, ``-``,
``*``, unary minus and ``abs`` give the ufuncs' bits (maximum and minimum
propagate nan as NumPy does).  Near convergence the largest residual of a
Jacobi sweep alternates between two points from one sweep to the next,
which is why one witness per row is not enough.

The *chain* (:func:`condition_chain`, at kernel build) is the trailing
run of :attr:`~repro.sim.progplan.ImageKernel.runs` that ends in the
condition's reduce: ``out=`` ufunc steps (binary, constant, unary) whose
rows only chain steps read — no write source, in-place unit, skew-padded
row or the condition row.  Each chain shape gets one generated condition
entry of the kernel's runner (:func:`condition_text`), cached with the
runner code, whose defaults a bound image gathers per storage
arrangement with the runner's own.
"""

from __future__ import annotations

import functools
from typing import (
    AbstractSet, Any, Dict, List, NamedTuple, Optional, Tuple,
)

import numpy as np

from repro.sim.progplan import (
    RUNNER_CODE_SIZE,
    _M_BINARY,
    _M_CONST,
    _M_REDUCE,
    _M_UNARY,
    _OPERANDS,
    _STEP_TEXT,
)

#: the Python float expression of each chain step's ufunc, per mode
_TEXT = {
    _M_BINARY: {np.add: "{} + {}", np.subtract: "{} - {}",
                np.multiply: "{} * {}", np.maximum: "_max({}, {})",
                np.minimum: "_min({}, {})"},
    _M_CONST: {np.add: "{} + {}", np.multiply: "{} * {}"},
    _M_UNARY: {np.negative: "-{}", np.absolute: "_abs({})"},
}

#: comparison -> (the fold a witness can refute it for, its operator)
_TESTS = {
    "lt": (np.maximum, "<"),
    "le": (np.maximum, "<="),
    "gt": (np.minimum, ">"),
    "ge": (np.minimum, ">="),
}


def _max(a: float, b: float) -> float:
    """``np.maximum`` of two floats, nan from either operand."""
    return a if a != a or a > b else b


def _min(a: float, b: float) -> float:
    """``np.minimum`` of two floats, nan from either operand."""
    return a if a != a or a < b else b


#: the globals of every runner: the chain texts' float helpers
GLOBALS = {"_abs": abs, "_max": _max, "_min": _min}


class Chain(NamedTuple):
    """The steps of one kernel that only feed its reduced condition."""

    #: their indices in ``kernel.steps``, in run order, the reduce last
    steps: Tuple[int, ...]
    #: the bound ops' operands the test reads at a witness, as ``(step
    #: index, position)``: floats (``_s0, _s1, ...``), then arrays read
    #: with ``.item(j, w)`` (``_l0, _l1, ...``)
    operands: Tuple[Tuple[int, int], ...]
    #: what the condition's text depends on (:func:`condition_text`)
    shape: Tuple[Tuple[str, ...], str, str, int, int, str, bool]


def condition_chain(kernel: Any, forms: List[str], pinned: AbstractSet[int],
                    padded: AbstractSet[int]) -> Optional[Chain]:
    """The chain of *kernel*, whose condition unit is reduced, or None
    when its condition cannot be settled from witnesses.  *forms* are
    the ``_STEP_TEXT`` forms of ``kernel.runs``; *pinned* and *padded*
    hold the units whose rows are read after the runner (write sources
    among them) and through a skew pad."""
    cond = kernel.condition
    steps, runs = kernel.steps, kernel.runs
    reduce = steps[runs[-1]]
    if reduce[0] != _M_REDUCE or reduce[5] != cond.fu \
            or _TESTS[cond.comparison][0] is not reduce[1]:
        return None
    # a step after the chain's first is a chain step or a hoisted one,
    # and hoisted steps read only hoisted rows: so a chain row is read by
    # chain steps alone unless something reads it after the runner or
    # through a pad
    start = len(runs) - 1
    while start:
        step = steps[runs[start - 1]]
        texts = _TEXT.get(step[0])
        if texts is None or step[1] not in texts or step[-1] in pinned \
                or step[-1] in padded:
            break
        start -= 1
    chain = runs[start:]
    return _chain(cond.comparison, chain, tuple([steps[i] for i in chain]),
                  "".join(forms[start:]))


@functools.lru_cache(maxsize=RUNNER_CODE_SIZE)
def _chain(comparison: str, chain: Tuple[int, ...], steps: Tuple[Tuple, ...],
           forms: str) -> Chain:
    """The :class:`Chain` of steps *chain* (step tuples *steps*, runner
    forms *forms*) under *comparison*.  Kernels of one solver share it
    whatever their grid or tolerance: it holds positions, never a
    value."""
    scalars: List[Tuple[int, int]] = []
    arrays: List[Tuple[int, int]] = []
    leaf_of: Dict[Any, str] = {}
    local: Dict[int, str] = {}  # unit -> the chain local holding its value
    lines: List[str] = []
    for i, step in zip(chain, steps):
        mode = step[0]
        operands = []
        for pos in _OPERANDS[mode]:
            ref = step[pos]
            kind, key = ref
            if kind == "row" and key in local:
                operands.append(local[key])
                continue
            # a constant is read off its own op: 0.0 and -0.0 are equal
            # refs, so refs are never shared
            text = None if kind == "const" else leaf_of.get(ref)
            if text is None:
                arrays.append((i, pos))
                text = f"_l{len(arrays) - 1}.item(j, w)"
                if kind != "const":
                    leaf_of[ref] = text
            operands.append(text)
        if mode == _M_REDUCE:
            break
        if mode == _M_CONST:
            scalars.append((i, 3))
            operands.append(f"_s{len(scalars) - 1}")
        local[step[-1]] = name = f"r{len(lines)}"
        lines.append(f"{name} = " + _TEXT[mode][step[1]].format(*operands))
    value = operands[0]
    if steps[-1][2]:  # the ABS variants reduce |x|
        value = f"_abs({value})"
    shape = (tuple(lines), value, _TESTS[comparison][1], len(scalars),
             len(arrays), forms, steps[-1][1] is np.maximum)
    return Chain(chain, tuple(scalars + arrays), shape)


def condition_text(shape: Tuple[Tuple[str, ...], str, str, int, int, str,
                                 bool], first: int
                   ) -> Tuple[List[str], List[str]]:
    """The parameters and statements of one chain shape's condition, the
    runner's second entry (see :func:`~repro.sim.progplan._runner_code`,
    which caches the code per kernel shape and declares the chain's
    step operands with the runner's); the chain's steps are numbered
    from *first*, after the runner's own.

    *shape* is ``(lines, value, op, scalars, arrays, forms, maximum)``:
    the chain's Python float statements at a witness and the expression
    of the reduce's input there, the exit test's operator, the counts of
    float and array operands the test reads, the ``_STEP_TEXT`` forms of
    the chain's steps and whether the fold is a maximum.  The entry is
    called as ``(rows, witnesses)``.  Its parameters are the threshold,
    the condition unit, the bound image's finals dict, the witness
    source (the reduce's input as reduced: the ``|x|`` scratch for the
    ABS variants), then :attr:`Chain.operands`; ``abs``, :func:`_max`
    and :func:`_min` are :data:`GLOBALS`.
    """
    lines, value, op, n_scalars, n_arrays, forms, maximum = shape
    params = ["_t", "_fu", "_fin", "_src"]
    params += (f"_s{k}" for k in range(n_scalars))
    params += (f"_l{k}" for k in range(n_arrays))
    chain = [_STEP_TEXT[form][1].format(i=i)
             for i, form in enumerate(forms, first)]
    return params, [
        # settled: every row has a witness that fails the exit test
        "if _rows is not None:",
        "    for j in _rows:",
        "        for w in _wit[j]:",
        *(f"            {line}" for line in lines),
        f"            if not {value} {op} _t:",
        "                break",
        "        else:",
        "            break",
        "    else:",
        "        return True",
        *chain,
        # the rows that did not fire refresh their witnesses
        "if _rows is not None:",
        f"    _best = _src.{'argmax' if maximum else 'argmin'}(-1).tolist()",
        "    _out = _fin[_fu]",
        "    for j in _rows:",
        f"        if not _out[j] {op} _t:",
        "            w = _best[j]",
        "            held = _wit[j]",
        "            _wit[j] = (w,) if not held or held[0] == w "
        "else (w, held[0])",
        "return False",
    ]


__all__ = ["Chain", "GLOBALS", "condition_chain", "condition_text"]
