"""Multi-node simulation: the hypercube system of §2.

The paper scopes its environment to single-node programming and quotes the
system-level numbers (64 nodes, 40 GFLOPS, 128 GB) without evaluation; this
layer supplies the substrate to measure them.  A 3-D grid is decomposed
into z-slabs, one per node; slabs map to hypercube nodes by Gray code so
adjacent slabs are physical neighbours; each node runs the *same* Jacobi
update program on its slab (SPMD); ghost planes are exchanged through the
hyperspace router between sweeps, with compute and communication cycle
counts tracked separately.

Node state lives in one stack, a row per node, laid out from the
compiled program's variable homes
(:func:`~repro.sim.progplan.stacked_storage`): a fast run never builds an
:class:`NSCMachine`.  ``MultiNodeStencil(..., backend="fast")`` drives the
whole sweep/halo/convergence loop from one compiled schedule over that
stack (see ``docs/BACKENDS.md``); per-node machines exist only once
:attr:`MultiNodeStencil.machines` is read, as the reference walk does.
Multi-node runs are schedulable as service jobs via
``SimJob(hypercube_dim=...)`` (see ``docs/SERVICE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.arch.node import node_config
from repro.arch.memsys import AllocationError
from repro.arch.params import NSCParameters
from repro.arch.router import HyperspaceRouter, Message
from repro.codegen.generator import MachineProgram, MicrocodeGenerator
from repro.compose.jacobi import grid_shape
from repro.obs import tracer as obs
from repro.sim.machine import NSCMachine
from repro.sim.pipeline_exec import execute_image

if TYPE_CHECKING:  # pragma: no cover
    from repro.arch.node import NodeConfig
    from repro.sim.batchplan import BatchProgramRun
    from repro.sim.progplan import _HomeVar, _Storage


class DecompositionError(Exception):
    """The grid cannot be split across the requested node count."""


def local_shape(shape: Tuple[int, int, int],
                n_nodes: int) -> Tuple[int, int, int]:
    """Each node's grid when ``(nx, ny, nz)`` *shape* is cut into
    *n_nodes* z-slabs: ``(nx, ny, nz // n_nodes + 2)``, two ghost
    z-planes included.  Raises :class:`DecompositionError` unless every
    node gets the same whole number of z-planes, at least one."""
    nx, ny, nz = shape
    if nz % n_nodes != 0:
        raise DecompositionError(
            f"nz={nz} does not divide across {n_nodes} nodes"
        )
    if nz // n_nodes < 1:
        raise DecompositionError("fewer than one z-plane per node")
    return (nx, ny, nz // n_nodes + 2)


def compile_node_program(
    node_cfg: "NodeConfig", shape: Tuple[int, int, int], eps: float,
    **generator_options: Any,
) -> Tuple[Any, MachineProgram]:
    """``(setup, machine program)`` of the single-sweep Jacobi program
    every node runs on its *shape* local grid (:func:`local_shape`);
    *generator_options* go to :class:`MicrocodeGenerator`."""
    # looked up at call time: a tracer that wraps the builder sees it
    from repro.compose import jacobi

    setup = jacobi.build_jacobi_program(node_cfg, shape, eps=eps, loop=False)
    program = MicrocodeGenerator(node_cfg, **generator_options).generate(
        setup.program)
    return setup, program


def global_residual(values: Iterable[float]) -> float:
    """Fold per-node residuals into the hypercube's: the largest, at
    least 0.0, and NaN once any node's is NaN.  Python's ``max`` would
    drop a NaN, and the run would then "converge" on a grid of NaNs;
    both backends' sweeps fold here, so a NaN residual never converges,
    as a single node's ``LoopUntil`` never fires on one."""
    residual = 0.0
    for value in values:
        if value != value:
            return value
        if value > residual:
            residual = value
    return residual


def gray_code(i: int) -> int:
    """Gray encoding: consecutive integers differ in one bit, so adjacent
    slabs land on neighbouring hypercube nodes."""
    return i ^ (i >> 1)


@dataclass
class MultiNodeResult:
    """Aggregate outcome of a multi-node stencil run."""

    n_nodes: int
    iterations: int
    converged: bool
    compute_cycles: int
    comm_cycles: int
    words_exchanged: int
    flops: int
    clock_mhz: float
    peak_gflops: float
    residual_history: List[float] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.comm_cycles

    @property
    def elapsed_us(self) -> float:
        return self.total_cycles / self.clock_mhz

    @property
    def achieved_gflops(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.flops / self.elapsed_us / 1000.0

    @property
    def comm_fraction(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.comm_cycles / self.total_cycles

    @property
    def efficiency(self) -> float:
        if self.peak_gflops == 0:
            return 0.0
        return self.achieved_gflops / self.peak_gflops


class MultiNodeStencil:
    """Domain-decomposed Jacobi across a simulated hypercube.

    The global grid is ``(nx, ny, nz)``; ``nz`` must divide evenly by the
    node count.  Every node's local grid carries two ghost z-planes.

    Per-node state starts stacked — :attr:`stack`, zeroed
    ``(n_nodes, extent)`` rows over the program's variable layout, no
    machine behind them — and the fast backend
    runs it as a slab on :class:`~repro.sim.batchplan.BatchProgramRun`
    (:attr:`fused` keeps the run for its log).  :attr:`machines` builds
    the per-node :class:`NSCMachine` objects on first access; from then
    on they own the state, and the reference walk (the reference
    backend, or a declined fused run) drives them.
    """

    def __init__(
        self,
        params: Optional[NSCParameters] = None,
        hypercube_dim: Optional[int] = None,
        shape: Tuple[int, int, int] = (8, 8, 8),
        eps: float = 1e-6,
        precompiled: Optional[tuple] = None,
        backend: str = "reference",
    ) -> None:
        from repro.sim.fastpath import validate_backend

        self.backend = validate_backend(backend)
        self.params = params if params is not None else NSCParameters()
        dim = (
            hypercube_dim
            if hypercube_dim is not None
            else self.params.hypercube_dim
        )
        self.params = self.params.subset(hypercube_dim=dim)
        self.n_nodes = 1 << dim
        self.shape = shape
        self.eps = eps
        self.local_shape = local_shape(shape, self.n_nodes)
        self.nz_local = self.local_shape[2] - 2  # less the ghost planes
        self.router = HyperspaceRouter(self.params)
        self.node_of_slab: List[int] = [gray_code(i) for i in range(self.n_nodes)]
        self._precompiled = precompiled
        self._machines: Optional[List[NSCMachine]] = None
        #: the last fused run, bound images released: its log is what
        #: the fast backend charged every node
        self.fused: Optional["BatchProgramRun"] = None
        self._setup_nodes()

    # ------------------------------------------------------------------
    def _setup_nodes(self) -> None:
        from repro.sim.progplan import home_variables, stacked_storage

        self._node_cfg = node_cfg = node_config(self.params)
        if self._precompiled is not None:
            # a (JacobiSetup, MachineProgram) pair from the service's
            # ProgramCache — every node runs the same SPMD program, so one
            # compile serves arbitrarily many stencil instances
            setup, machine_program = self._precompiled
            if tuple(setup.shape) != self.local_shape:
                raise DecompositionError(
                    f"precompiled program targets local shape {setup.shape}, "
                    f"decomposition needs {self.local_shape}"
                )
            self.setup = setup
            self.machine_program = machine_program
        else:
            self.setup, self.machine_program = compile_node_program(
                node_cfg, self.local_shape, self.eps)
        # every node runs the same program: one row per node over its
        # variable layout (u, f and u_new read as zeros until scatter()
        # writes them)
        self.variables: Dict[str, "_HomeVar"] = home_variables(
            self.machine_program)
        plane_extent: Dict[int, int] = {}
        for var in self.variables.values():
            plane_extent[var.plane] = max(plane_extent.get(var.plane, 0),
                                          var.end)
        self.stack: Optional["_Storage"] = stacked_storage(
            self.variables, self.n_nodes, plane_extent, {}
        )
        mask, invmask = self._slab_masks()
        self._set_rows("mask", mask)
        self._set_rows("invmask", invmask)

    @property
    def machines(self) -> List[NSCMachine]:
        """One loaded :class:`NSCMachine` per node, built on first access
        from the stacked state (which they own from then on)."""
        if self._machines is None:
            self._machines = self._build_machines()
            self.stack = None
            self.fused = None
        return self._machines

    def _build_machines(self) -> List[NSCMachine]:
        """One loaded machine per node holding its row of the stack.

        Every node runs the same schedule, so one fold of the fused
        run's log (:meth:`~repro.sim.batchplan.BatchProgramRun.job`)
        gives every node's DMA charges, written by
        :func:`~repro.sim.batchplan.write_back`.  Only the interrupts
        are multi-node specific: posted in issue order with each node's
        own condition value, as the reference walk posts them (it never
        advances a node's cycle, so each fires at its issue's cycle
        count), with no replay or drain.
        """
        from repro.arch.interrupts import InterruptKind
        from repro.sim.batchplan import JobRun, write_back

        assert self.stack is not None
        run = self.fused
        totals = run.job(0) if run is not None else JobRun()
        issues = [] if run is None else [
            (run.plan.kernels[index].consts, values, conds)
            for index, values, conds, _active in run.log if index >= 0
        ]
        complete = InterruptKind.PIPELINE_COMPLETE
        machines = []
        for i in range(self.n_nodes):
            machine = NSCMachine(self._node_cfg)
            machine.load_program(self.machine_program)
            write_back(machine, self.stack, i, totals)
            irq = machine.interrupts
            for consts, values, conds in issues:
                irq.post(complete, consts.cycles, source=consts.source)
                if conds is not None:
                    irq.post(
                        InterruptKind.CONDITION_TRUE if conds[i]
                        else InterruptKind.CONDITION_FALSE,
                        consts.cycles,
                        source=consts.source,
                        payload=values[i],
                    )
            machines.append(machine)
        return machines

    def _slab_masks(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-slab interior masks, one row per slab: ghost planes and
        global boundaries are never updated; interior z-planes adjacent
        to another slab are."""
        nx, ny, nz = self.shape
        m = np.zeros((self.n_nodes, self.nz_local + 2, ny, nx))
        # global index of each slab's real planes
        gk = (np.arange(self.n_nodes)[:, None] * self.nz_local
              + np.arange(self.nz_local)[None, :])
        interior = ((gk > 0) & (gk < nz - 1)).astype(np.float64)
        m[:, 1:-1, 1:-1, 1:-1] = interior[:, :, None, None]
        flat = m.reshape(self.n_nodes, -1)
        return flat, 1.0 - flat

    # ------------------------------------------------------------------
    # data distribution
    # ------------------------------------------------------------------
    def _lookup(self, name: str) -> "_HomeVar":
        var = self.variables.get(name)
        if var is None:
            raise AllocationError(f"undeclared variable {name!r}")
        return var

    def _set_rows(self, name: str, rows: np.ndarray) -> None:
        """Write one ``(n_nodes, length)`` row per node into *name*."""
        var = self._lookup(name)
        if self.stack is not None:
            self.stack.planes[var.plane][:, var.offset : var.end] = rows
        else:
            for machine, row in zip(self.machines, rows):
                machine.set_variable(name, row)

    def _rows(self, name: str) -> np.ndarray:
        """*name*'s ``(n_nodes, length)`` rows (a view while stacked)."""
        var = self._lookup(name)
        if self.stack is not None:
            return self.stack.planes[var.plane][:, var.offset : var.end]
        return np.stack([m.get_variable(name) for m in self.machines])

    def scatter(self, name: str, grid: np.ndarray) -> None:
        """Distribute a global ``(nz, ny, nx)`` grid into slab variables,
        filling ghost planes from neighbouring slabs."""
        nx, ny, nz = self.shape
        nzl = self.nz_local
        g = np.asarray(grid, dtype=np.float64).reshape(grid_shape(self.shape))
        local = np.zeros((self.n_nodes, nzl + 2, ny, nx))
        local[:, 1:-1] = g.reshape(self.n_nodes, nzl, ny, nx)
        # low ghost <- the last plane of the slab below; high ghost <- the
        # first plane of the slab above (global boundaries stay zero)
        local[1:, 0] = g[nzl - 1 : nz - 1 : nzl]
        local[:-1, -1] = g[nzl:nz:nzl]
        self._set_rows(name, local.reshape(self.n_nodes, -1))

    def gather(self, name: str = "u") -> np.ndarray:
        """Reassemble the global grid from slab variables (ghosts dropped)."""
        nx, ny, _nz = self.shape
        local = self._rows(name).reshape(
            self.n_nodes, self.nz_local + 2, ny, nx
        )
        out = np.empty(grid_shape(self.shape))
        out.reshape(self.n_nodes, self.nz_local, ny, nx)[...] = local[:, 1:-1]
        return out

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _load_caches(self) -> int:
        """Run the mask-cache load pipeline on every node (and swap the
        double buffers to expose the loaded masks); returns cycles."""
        worst = 0
        for machine in self.machines:
            res = execute_image(self.machine_program.images[0], machine)
            machine.caches[0].swap()
            machine.caches[1].swap()
            worst = max(worst, res.cycles)
        return worst

    def _sweep(self) -> Tuple[int, float, int, int, int]:
        """One Jacobi sweep on every node plus the halo exchange.

        Returns the stepper tuple: (cycles, global residual, comm cycles,
        words exchanged, flops) for this sweep."""
        compute = 0
        values = []
        flops = 0
        for machine in self.machines:
            res = execute_image(self.machine_program.images[1], machine)
            machine.swap_vars("u", "u_new")
            compute = max(compute, res.cycles)
            if res.condition_value is not None:
                values.append(res.condition_value)
            flops += res.flops
        comm, words = self._exchange_halos()
        return compute, global_residual(values), comm, words, flops

    def _halo_messages(self) -> List[Message]:
        """Router messages for one ghost-plane exchange (both directions)."""
        nx, ny, _nz = self.shape
        plane_words = nx * ny
        messages: List[Message] = []
        for slab in range(self.n_nodes - 1):
            lo, hi = self.node_of_slab[slab], self.node_of_slab[slab + 1]
            messages.append(Message(src=lo, dst=hi, words=plane_words, tag="up"))
            messages.append(Message(src=hi, dst=lo, words=plane_words, tag="down"))
        return messages

    def _exchange_halos(self) -> Tuple[int, int]:
        """Ghost-plane exchange between adjacent slabs through the router;
        returns (comm cycles, words exchanged)."""
        nx, ny, _nz = self.shape
        plane_words = nx * ny
        messages = self._halo_messages()
        comm = self.router.exchange(messages) if messages else 0
        # move the actual data
        for slab in range(self.n_nodes - 1):
            left = self.machines[slab]
            right = self.machines[slab + 1]
            u_left = left.get_variable("u").reshape(self.nz_local + 2, ny, nx)
            u_right = right.get_variable("u").reshape(self.nz_local + 2, ny, nx)
            u_right[0] = u_left[-2]   # left's last real plane -> right's low ghost
            u_left[-1] = u_right[1]   # right's first real plane -> left's high ghost
            left.set_variable("u", u_left.reshape(-1))
            right.set_variable("u", u_right.reshape(-1))
        return comm, 2 * (self.n_nodes - 1) * plane_words

    def _stepper(self):
        """(load, sweep, finish) callables for this run's tier.

        The fast backend runs the nodes as one slab on
        :class:`~repro.sim.batchplan.BatchProgramRun`
        (:func:`~repro.sim.progplan.fused_stepper`).  A program the
        compiler declines (rare: residual-skew ablation builds fuse too)
        falls back to the reference interpreter's node-by-node walk, as
        does the reference backend.  Either way the selected tier (and
        any decline's reason) lands in the active tracer."""
        if self.backend == "fast":
            from repro.sim.progplan import FusionUnsupported, fused_stepper

            try:
                stepper = fused_stepper(self)
            except FusionUnsupported as exc:
                obs.count("fusion.fallback")
                obs.annotate("fallback_reason", str(exc))
                obs.event("fusion_fallback", scope="multinode",
                          reason=str(exc))
            else:
                obs.count("tier.fused")
                obs.annotate("tier", "fused")
                return stepper
        obs.count("tier.reference")
        obs.annotate("tier", "reference")
        return self._load_caches, self._sweep, lambda: None

    def run(self, max_iterations: int = 1000) -> MultiNodeResult:
        """Iterate to convergence (or the bound); returns aggregate results.

        With ``backend="fast"`` the whole system executes as one slab
        over the stacked node state — mask load and fused compute sweeps
        on :class:`~repro.sim.batchplan.BatchProgramRun`, plus the
        route-once halo replay.  Both
        backends share this one accumulation loop, so they cannot drift
        apart in accounting; only the three stepper callables differ.
        """
        load, sweep, finish = self._stepper()
        compute_cycles = load()
        comm_cycles = 0
        words = 0
        flops = 0
        history: List[float] = []
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            sweep_cycles, residual, comm, sweep_words, sweep_flops = sweep()
            compute_cycles += sweep_cycles
            comm_cycles += comm
            words += sweep_words
            flops += sweep_flops
            history.append(residual)
            if residual < self.eps:
                converged = True
                break
        finish()
        return MultiNodeResult(
            n_nodes=self.n_nodes,
            iterations=iterations,
            converged=converged,
            compute_cycles=compute_cycles,
            comm_cycles=comm_cycles,
            words_exchanged=words,
            flops=flops,
            clock_mhz=self.params.clock_mhz,
            peak_gflops=self.params.peak_mflops_per_node * self.n_nodes / 1000.0,
            residual_history=history,
        )


__all__ = [
    "MultiNodeStencil",
    "compile_node_program",
    "local_shape",
    "global_residual",
    "MultiNodeResult",
    "DecompositionError",
    "gray_code",
]
