"""Deterministic fault injection for chaos-testing the service layer.

Reliability code is only trustworthy if its failure paths actually run,
so this module lets tests (and CI) inject faults into the *real*
pool/store paths — no mocks, no monkeypatching — while keeping
every run reproducible:

- a :class:`FaultPlan` is a pure value: a seed plus a tuple of
  :class:`FaultRule`.  Whether a fault fires is a deterministic function
  of ``(seed, site, key, attempt)`` where ``key`` is the job's content
  hash (:attr:`SimJob.job_id`) and ``attempt`` the 1-based retry
  attempt.  Same plan + same jobs -> same faults, in any process.
- faults fire at **named sites** threaded through the service layer
  (:data:`SITES`): ``worker.exec`` (inside
  :func:`~repro.service.runner.execute_job`, before compilation),
  ``pool.submit`` (parent-side, before an item is handed to the pool),
  and ``store.append`` (parent-side, before a record is checkpointed —
  crashing here simulates a run killed mid-sweep).
- ``worker.exec`` supports three *kinds*: ``"transient"`` raises
  :class:`FaultInjected` (captured like any job failure and classified
  transient by :mod:`repro.service.retry`), ``"kill"`` hard-kills the
  worker process with ``os._exit`` (the pool sees a
  ``BrokenProcessPool``), and ``"hang"`` sleeps past the pool timeout.
  Kills and hangs are demoted to transient exceptions when they would
  fire in the parent process (a serial run must not kill the caller).
- ``once=True`` rules fire at most once per plan activation, across
  *all* processes, via an exclusive-create latch file in the plan's
  ``latch_dir`` — how a test arranges "this job kills its worker, but
  completes when the pool resubmits it".

Activation is either in-process (:func:`install` / the :func:`active`
context manager) or via the :data:`ENV_VAR` environment variable
holding :meth:`FaultPlan.to_json` — pool workers inherit the parent's
environment, so one exported plan drives parent and children alike.
``BatchRunner(fault_plan=...)`` exports it for the duration of the run
(:func:`exported`).

With no plan active, :func:`check` costs one module-global read and one
``os.environ.get(ENV_VAR)`` (about a microsecond: the environment is
re-read on every call, so a plan exported at run time takes effect).
See ``docs/RELIABILITY.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, NamedTuple, Optional, Tuple

from repro._records import checked
from repro.obs import tracer as obs

#: Named injection sites, in the order a job meets them.
SITES = ("pool.submit", "worker.exec", "store.append")

#: Fault kinds for ``worker.exec`` (other sites are always transient
#: exceptions — there is nothing to kill or hang at a parent-side site).
KINDS = ("transient", "kill", "hang")

#: Environment hook: a JSON-serialized plan here activates injection in
#: every process that inherits the environment (pool workers included).
ENV_VAR = "NSC_VPE_FAULTS"


class FaultInjected(RuntimeError):
    """An injected fault.  Classified *transient* by the retry layer."""

    def __init__(self, site: str, key: str, attempt: int,
                 kind: str = "transient") -> None:
        super().__init__(
            f"injected {kind} fault at {site} "
            f"(key={key}, attempt={attempt})"
        )
        self.site = site
        self.key = key
        self.attempt = attempt
        self.kind = kind

    def __reduce__(self):
        # default exception pickling replays args=(message,), which does
        # not match this __init__ — and the timeout pool path re-raises
        # worker exceptions across the process boundary
        return (FaultInjected, (self.site, self.key, self.attempt, self.kind))


class FaultConfigError(ValueError):
    """The fault plan is malformed (bad site/kind/rate/JSON)."""


@checked
class FaultRule(NamedTuple):
    """One injection rule.

    ``rate`` is the firing probability, decided deterministically from
    the plan seed and the ``(site, key, attempt)`` triple — ``1.0``
    always fires, ``0.0`` never.  ``attempts`` limits eligibility to
    specific attempt numbers (default: first attempt only, so a retried
    job succeeds deterministically; empty tuple = every attempt).
    ``match`` restricts the rule to one exact key (one job's content
    hash) — how a test targets a single victim.  ``once=True`` fires at
    most one time per plan activation across all processes (requires the
    plan's ``latch_dir``).  ``hang_s`` is the sleep length for
    ``kind="hang"``.
    """

    site: str
    kind: str = "transient"
    rate: float = 1.0
    attempts: Tuple[int, ...] = (1,)
    match: Optional[str] = None
    once: bool = False
    hang_s: float = 60.0

    def _checked(self) -> "FaultRule":
        if self.site not in SITES:
            raise FaultConfigError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        if self.kind not in KINDS:
            raise FaultConfigError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.kind != "transient" and self.site != "worker.exec":
            raise FaultConfigError(
                f"kind {self.kind!r} applies to the worker.exec site only"
            )
        if not 0.0 <= float(self.rate) <= 1.0:
            raise FaultConfigError(
                f"rate must be in [0, 1], got {self.rate}"
            )
        if self.hang_s <= 0:
            raise FaultConfigError("hang_s must be positive")
        rule = self._replace(attempts=tuple(int(a) for a in self.attempts))
        if any(a < 1 for a in rule.attempts):
            raise FaultConfigError("attempt numbers are 1-based")
        return rule


@checked
class FaultPlan(NamedTuple):
    """A seeded, deterministic schedule of faults.

    Pure value semantics: :meth:`decide` is a function of the plan and
    the ``(site, key, attempt)`` triple, so the same plan injects the
    same faults wherever (and in whichever process) it is evaluated.
    ``latch_dir`` is the directory for ``once=True`` latch files; it
    must be shared by every process the plan reaches.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0
    latch_dir: Optional[str] = None

    def _checked(self) -> "FaultPlan":
        rules = tuple(
            rule if isinstance(rule, FaultRule) else FaultRule(**rule)
            for rule in self.rules
        )
        if any(rule.once for rule in rules) and not self.latch_dir:
            raise FaultConfigError(
                "once=True rules need the plan's latch_dir (a directory "
                "shared by every process the plan reaches)"
            )
        return self._replace(rules=rules)

    # ------------------------------------------------------------------
    def decide(self, site: str, key: str,
               attempt: int = 1) -> Optional[FaultRule]:
        """The rule that fires at ``(site, key, attempt)``, or None.

        Deterministic: the probability draw is a hash of the seed and
        the triple, not a random number.  ``once`` latches are *not*
        consulted here (decide is side-effect free); :func:`check`
        claims them.
        """
        for rule in self.rules:
            if rule.site != site:
                continue
            if rule.attempts and attempt not in rule.attempts:
                continue
            if rule.match is not None and rule.match != key:
                continue
            if rule.rate < 1.0 and \
                    _fraction(self.seed, site, key, attempt) >= rule.rate:
                continue
            return rule
        return None

    # ------------------------------------------------------------------
    # (de)serialization — the env hook carries plans as JSON
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "rules": [
                {k: (list(v) if isinstance(v, tuple) else v)
                 for k, v in rule._asdict().items()}
                for rule in self.rules
            ],
        }
        if self.latch_dir:
            payload["latch_dir"] = self.latch_dir
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_mapping(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        try:
            rules = tuple(
                FaultRule(**{str(k): (tuple(v) if isinstance(v, list)
                                      else v)
                             for k, v in rule.items()})
                for rule in payload.get("rules", ())
            )
            return cls(
                rules=rules,
                seed=int(payload.get("seed", 0)),
                latch_dir=payload.get("latch_dir"),
            )
        except FaultConfigError:
            raise
        except (TypeError, ValueError, AttributeError) as exc:
            raise FaultConfigError(f"bad fault plan: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultConfigError(
                f"{ENV_VAR} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise FaultConfigError(f"{ENV_VAR} must be a JSON object")
        return cls.from_mapping(payload)


def _fraction(seed: int, site: str, key: str, attempt: int) -> float:
    """Deterministic draw in [0, 1) for one (seed, site, key, attempt)."""
    digest = hashlib.sha256(
        f"{seed}|{site}|{key}|{attempt}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


# ----------------------------------------------------------------------
# activation (in-process, or inherited through the environment)
# ----------------------------------------------------------------------
_INSTALLED: Optional[FaultPlan] = None
#: memoized env parse: (raw string, parsed plan) — the env hook is read
#: on every check() call, so parsing must be one string compare
_ENV_CACHE: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def install(plan: Optional[FaultPlan]) -> None:
    """Activate *plan* for this process (None deactivates).  The
    in-process plan wins over the environment hook."""
    global _INSTALLED
    _INSTALLED = plan


@contextmanager
def active(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate *plan* in-process for the ``with`` body only."""
    previous = _INSTALLED
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


@contextmanager
def exported(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate *plan* through :data:`ENV_VAR` for the ``with`` body.

    The environment is what pool workers inherit, so this one export
    drives the parent's serial paths *and* every child process spawned
    inside the body.  The previous value is restored on exit.
    """
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = plan.to_json()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous


def active_plan() -> Optional[FaultPlan]:
    """The plan governing this process: installed, else from the env."""
    global _ENV_CACHE
    if _INSTALLED is not None:
        return _INSTALLED
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    if _ENV_CACHE[0] != raw:
        _ENV_CACHE = (raw, FaultPlan.from_json(raw))
    return _ENV_CACHE[1]


# ----------------------------------------------------------------------
# firing
# ----------------------------------------------------------------------
def _claim_latch(plan: FaultPlan, site: str, key: str,
                 attempt: int) -> bool:
    """Atomically claim a once-rule's single firing (exclusive create).

    The latch file is named by the firing triple, so "once" means once
    per (site, key, attempt) per plan activation — exactly one process
    wins the O_EXCL race, everyone else skips the fault.
    """
    name = hashlib.sha256(
        f"{site}|{key}|{attempt}".encode("utf-8")
    ).hexdigest()[:24]
    path = Path(plan.latch_dir) / f"{name}.fired"  # type: ignore[arg-type]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "x", encoding="utf-8") as fh:
            fh.write(f"{site} {key} attempt={attempt} pid={os.getpid()}\n")
        return True
    except FileExistsError:
        return False
    except OSError:
        return False  # an unclaimable latch must not crash the worker


def _in_worker_process() -> bool:
    import multiprocessing

    return multiprocessing.current_process().name != "MainProcess"


def check(site: str, key: str, attempt: int = 1) -> None:
    """Fire the configured fault at this site, if any.

    No active plan (the production case) costs one global read and
    one :data:`ENV_VAR` lookup in ``os.environ``.  A
    firing rule raises :class:`FaultInjected` (``transient``), calls
    ``os._exit`` (``kill``), or sleeps past the pool timeout and then
    raises (``hang``).  Kill/hang demote to transient in the parent
    process — injection must never take down the orchestrator itself.
    """
    plan = active_plan()
    if plan is None:
        return
    rule = plan.decide(site, key, attempt)
    if rule is None:
        return
    if rule.once and not _claim_latch(plan, site, key, attempt):
        return
    kind = rule.kind
    if kind != "transient" and not _in_worker_process():
        kind = "transient"
    obs.count(f"fault.{site}")
    obs.event("fault", site=site, key=key, attempt=attempt, fault=kind)
    if kind == "kill":
        os._exit(3)
    if kind == "hang":
        time.sleep(rule.hang_s)
    raise FaultInjected(site, key, attempt, kind)


__all__ = [
    "ENV_VAR",
    "KINDS",
    "SITES",
    "FaultConfigError",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "active",
    "active_plan",
    "check",
    "exported",
    "install",
]
