"""Job specifications for the batch simulation service.

A :class:`SimJob` names everything a run depends on — solver (or a saved
visual-program file), grid shape, convergence settings, and machine
parameterization — and hashes it stably so the service can recognise
"same program on the same machine" across batches, processes, and
sessions.  Two hashes matter:

- :meth:`SimJob.program_key` covers exactly the inputs that determine the
  *compiled microcode* (solver, shape, eps, iteration bound, omega, or the
  saved file's bytes);
- :meth:`SimJob.params_key` covers the resolved :class:`NSCParameters`.

Their concatenation, :meth:`SimJob.cache_key`, keys the
:class:`~repro.service.cache.ProgramCache`.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple

from repro._records import checked
from repro.arch.params import DEFAULT_PARAMS, NSCParameters, SUBSET_PARAMS
from repro.choices import BACKENDS

#: Solvers the service can build itself, plus "program" for saved diagrams.
METHODS = ("jacobi", "rb-gs", "rb-sor", "program")

#: Design-rule-checker gating modes for compilation (see ``run_checker``).
CHECKER_MODES = ("auto", "always", "never", "static")


class JobSpecError(ValueError):
    """The job specification is malformed or self-contradictory."""


#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, with one
#: encoder built once
_compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _sha256(payload: Any) -> str:
    return hashlib.sha256(_compact_json(payload).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=16)
def _params_digest(params: NSCParameters) -> str:
    """:meth:`SimJob.params_key` by value: re-parsed jobs (the runner's
    spec round trip, pool workers) hash each machine once."""
    return _sha256(params._asdict())


class _SimJobFields(NamedTuple):
    method: str = "jacobi"
    shape: Tuple[int, int, int] = (7, 7, 7)
    eps: float = 1e-4
    max_sweeps: int = 10_000
    omega: float = 1.5
    subset: bool = False
    hypercube_dim: int = 0
    program_path: Optional[str] = None
    param_overrides: Tuple[Tuple[str, Any], ...] = ()
    backend: str = "reference"
    run_checker: str = "auto"
    keep_fields: bool = False
    u0_seed: Optional[int] = None
    max_attempts: int = 1
    backoff_base: float = 0.0
    label: str = ""


@checked
class SimJob(_SimJobFields):
    """One schedulable simulation.

    ``hypercube_dim > 0`` selects the multi-node SPMD path
    (:class:`repro.sim.multinode.MultiNodeStencil`, Jacobi only); zero runs
    a single simulated node.  ``param_overrides`` is a tuple of
    ``(field, value)`` pairs applied to the base parameters via
    :meth:`NSCParameters.subset` — a tuple rather than a dict so the spec
    stays hashable and canonically ordered.

    ``backend`` picks the execution backend (``"reference"`` or ``"fast"``,
    see :mod:`repro.sim.fastpath` and ``docs/BACKENDS.md``).  The backend
    changes how streams are evaluated, never what they produce, so it is
    deliberately excluded from :meth:`program_key`/:meth:`cache_key` —
    both backends share one compiled program.

    ``run_checker`` gates :meth:`repro.checker.checker.Checker.check_program`
    at compile time.  This is the one place the modes are described:

    - ``"always"`` — validate the visual program on every compile;
    - ``"auto"`` (default) and ``"static"`` — the same as ``"always"``;
      both names are kept so stored specs and scripts still parse;
    - ``"never"``  — skip validation entirely (for programs already
      vetted out of band).

    A cache hit compiles nothing and so checks nothing, whatever the
    mode.  A record whose job compiled carries ``checker="ran"``, or
    ``"skipped"`` under ``"never"``.  The static analyzer is not a
    compile gate; it runs as ``nsc-vpe analyze`` (``docs/ANALYSIS.md``).

    Like ``backend``, neither ``run_checker`` nor ``keep_fields`` changes
    the compiled microcode, so both are excluded from
    :meth:`program_key`/:meth:`cache_key`.

    ``keep_fields=True`` asks the run to return its final grids: the
    record gains a ``"fields"`` mapping — currently the solution ``"u"``
    in grid layout ``(nz, ny, nx)``, the same orientation
    ``manufactured_solution`` and the multinode gather use (the reverse
    of this spec's ``(nx, ny, nz)`` shape).  Builder solvers only — a
    saved program file
    has no canonical output field.

    ``u0_seed`` seeds a reproducible random initial guess for builder
    solvers (``numpy.random.default_rng(u0_seed).random(shape)``) in
    place of the default all-zeros start.  Single-node builder runs only.
    It changes the run's trajectory, so it is part of the job identity
    (:attr:`job_id`), but not of :meth:`program_key`/:meth:`cache_key`,
    which cover only the compiled microcode — same-program jobs with
    different seeds share one compile, which is exactly what batch
    fusion slabs exploit.

    ``max_attempts``/``backoff_base`` give the job a per-job
    :class:`~repro.service.retry.RetryPolicy` (transient failures only;
    a runner-level policy overrides them).  Retry configuration can
    never change what a job computes, so — like ``label`` — both are
    excluded from :attr:`job_id` and from the cache keys, and they enter
    :meth:`to_dict` only when non-default so pre-existing specs hash
    exactly as they always did.

    The fields live on a NamedTuple base; this subclass keeps an
    instance ``__dict__`` for the key memos and a pinned file's bytes.
    """

    def _checked(self) -> "SimJob":
        if self.method not in METHODS:
            raise JobSpecError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        if self.backend not in BACKENDS:
            raise JobSpecError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.run_checker not in CHECKER_MODES:
            raise JobSpecError(
                f"unknown run_checker {self.run_checker!r}; "
                f"expected one of {CHECKER_MODES}"
            )
        if self.keep_fields and self.method == "program":
            raise JobSpecError(
                "keep_fields requires a builder solver (saved programs "
                "have no canonical output field)"
            )
        if self.u0_seed is not None:
            if self.method == "program":
                raise JobSpecError(
                    "u0_seed requires a builder solver (saved programs load "
                    "their own inputs)"
                )
            if self.hypercube_dim > 0:
                raise JobSpecError(
                    "u0_seed applies to single-node runs only (the "
                    "multi-node path starts from the manufactured field)"
                )
            if int(self.u0_seed) < 0:
                raise JobSpecError("u0_seed must be a non-negative integer")
        if int(self.max_attempts) < 1:
            raise JobSpecError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if float(self.backoff_base) < 0:
            raise JobSpecError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.method == "program" and not self.program_path:
            raise JobSpecError("method 'program' requires program_path")
        if self.method != "program" and self.program_path:
            raise JobSpecError(
                f"program_path only applies to method 'program', "
                f"not {self.method!r}"
            )
        if len(self.shape) != 3 or any(int(s) < 1 for s in self.shape):
            raise JobSpecError(f"shape must be 3 positive ints, got {self.shape}")
        if self.hypercube_dim < 0:
            raise JobSpecError("hypercube_dim must be >= 0")
        if self.hypercube_dim > 0 and self.method != "jacobi":
            raise JobSpecError(
                "multi-node runs (hypercube_dim > 0) support only 'jacobi'"
            )
        return self._replace(
            shape=tuple(int(s) for s in self.shape),
            param_overrides=tuple(
                (str(k), v) for k, v in self.param_overrides
            ),
            u0_seed=None if self.u0_seed is None else int(self.u0_seed),
            max_attempts=int(self.max_attempts),
            backoff_base=float(self.backoff_base),
        )

    # ------------------------------------------------------------------
    # machine parameterization
    # ------------------------------------------------------------------
    def params(self) -> NSCParameters:
        """Resolve the machine parameters this job targets."""
        base = SUBSET_PARAMS if self.subset else DEFAULT_PARAMS
        if self.param_overrides:
            base = base.subset(**dict(self.param_overrides))
        return base

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------
    def program_key(self) -> str:
        """Hash of everything that determines the compiled microcode.

        Builder-solver keys are pure functions of this frozen spec, so
        they memoize on the instance (slab grouping and record assembly
        hash every job several times per batch).  ``method="program"``
        keys hash the saved file's bytes (:meth:`program_source`): the
        *current* bytes, never cached, unless the job is :meth:`pinned`.
        """
        if self.method == "program":
            return hashlib.sha256(self.program_source()).hexdigest()
        cached = self.__dict__.get("_program_key")
        if cached is None:
            cached = _sha256(
                {
                    "method": self.method,
                    "shape": list(self.shape),
                    "eps": self.eps,
                    "max_sweeps": self.max_sweeps,
                    "omega": self.omega if self.method == "rb-sor" else None,
                    "hypercube_dim": self.hypercube_dim,
                }
            )
            self.__dict__["_program_key"] = cached
        return cached

    def program_source(self) -> bytes:
        """A saved program's file bytes: those :meth:`pinned` read, else
        the file's current bytes."""
        source = self.__dict__.get("_program_source")
        if source is None:
            with open(self.program_path, "rb") as fh:  # type: ignore[arg-type]
                source = fh.read()
        return source

    def pinned(self) -> "SimJob":
        """This job for one execution: a saved program's file is read
        here, once, and the copy's keys and compile all use those bytes,
        so a file replaced mid-job cannot stamp a record with the key of
        bytes the job did not compile.  Builder jobs, and a file that
        cannot be read (its failure surfaces where the job first keys
        it), come back as they are."""
        if self.method != "program":
            return self
        try:
            source = self.program_source()
        except OSError:
            return self
        job = copy.copy(self)
        job.__dict__["_program_source"] = source
        return job

    def params_key(self) -> str:
        """Hash of the fully resolved machine parameters (memoized on the
        instance and, across instances, by parameter value)."""
        cached = self.__dict__.get("_params_key")
        if cached is None:
            cached = _params_digest(self.params())
            self.__dict__["_params_key"] = cached
        return cached

    def cache_key(self) -> str:
        """(program hash, params hash) — the :class:`ProgramCache` key."""
        return f"{self.program_key()[:20]}-{self.params_key()[:20]}"

    @property
    def job_id(self) -> str:
        """Short stable identifier for the complete spec.  Excluded:
        ``label`` (renaming a job does not change its identity), the
        retry settings (how often a job may be *attempted* does not
        change what it computes — resume matching and store digests
        depend on this), and ``run_checker`` (how a compile is
        *validated* does not change it either: the checker-gate tests
        pin store-digest identity across all four modes on exactly
        this).  ``run_checker`` is normalized rather than dropped so
        default-mode specs keep the job_ids they have always had.  A
        pure function of this frozen spec, so it memoizes on the
        instance, as :meth:`program_key` does."""
        cached = self.__dict__.get("_job_id")
        if cached is None:
            payload = self.to_dict()
            for key in ("label", "max_attempts", "backoff_base"):
                payload.pop(key, None)
            payload["run_checker"] = "auto"
            cached = self.__dict__["_job_id"] = _sha256(payload)[:12]
        return cached

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "method": self.method,
            "shape": list(self.shape),
            "eps": self.eps,
            "max_sweeps": self.max_sweeps,
            "omega": self.omega,
            "subset": self.subset,
            "hypercube_dim": self.hypercube_dim,
            "program_path": self.program_path,
            "param_overrides": [list(p) for p in self.param_overrides],
            "backend": self.backend,
            "run_checker": self.run_checker,
            "keep_fields": self.keep_fields,
            "label": self.label,
        }
        # only present when set/non-default, so pre-existing specs (and
        # their job_ids) hash exactly as they did before the fields existed
        if self.u0_seed is not None:
            payload["u0_seed"] = self.u0_seed
        if self.max_attempts != 1:
            payload["max_attempts"] = self.max_attempts
        if self.backoff_base != 0.0:
            payload["backoff_base"] = self.backoff_base
        return payload

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "SimJob":
        """Build a job from a plain mapping (e.g. one entry of a JSON jobs
        file).  ``"n": 7`` is accepted as shorthand for a cubic shape."""
        known = set(cls._fields)
        data = dict(spec)
        n = data.pop("n", None)
        if n is not None and "shape" not in data:
            data["shape"] = (int(n),) * 3
        unknown = set(data) - known
        if unknown:
            raise JobSpecError(f"unknown job fields: {sorted(unknown)}")
        if "shape" in data:
            data["shape"] = tuple(int(s) for s in data["shape"])
        if "param_overrides" in data:
            data["param_overrides"] = tuple(
                (str(k), v) for k, v in data["param_overrides"]
            )
        return cls(**data)

    def describe(self) -> str:
        """One-line human name: the label if given, else a synthesis."""
        if self.label:
            return self.label
        tag = f"{self.method}-n{'x'.join(str(s) for s in self.shape)}"
        if self.hypercube_dim:
            tag += f"-d{self.hypercube_dim}"
        if self.subset:
            tag += "-subset"
        if self.backend != "reference":
            tag += f"-{self.backend}"
        if self.u0_seed is not None:
            tag += f"-s{self.u0_seed}"
        return tag


__all__ = ["SimJob", "JobSpecError", "METHODS", "BACKENDS", "CHECKER_MODES"]
