"""JSONL result store.

Every executed job appends one self-describing record: the job's identity
(``job_id``, label, method, shape), its outcome (converged, sweeps, cycle
counts, error), the :class:`~repro.sim.metrics.RunMetrics` summary, the
observability stamps (``timings``, ``tier``, ``duration_s``), and whether
its program came from the cache.  Records are written with sorted keys so
identical runs produce byte-identical lines — *after* projecting out the
:data:`VOLATILE_KEYS`, the wall-clock measurements that legitimately vary
run to run.  Re-running a sweep and comparing the stores' canonical
projections (:meth:`ResultStore.canonical_lines` /
:meth:`ResultStore.digest`) is the reproducibility check.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

try:  # POSIX advisory locking; absent on some platforms (see extend)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

#: no newline translation where the platform has a text mode
_O_BINARY = getattr(os, "O_BINARY", 0)

#: Record keys that legitimately vary between runs of the same sweep, so
#: the reproducibility compare drops them.  ``duration_s``/``timings``
#: are wall-clock measurements; the reliability stamps record *how* a
#: record got here, not *what* the job computed: ``attempts`` and
#: ``retry_reasons`` depend on which faults a run met, ``resumed`` on
#: whether ``--resume`` filled the record in, and ``transport_fallback``
#: (written by older builds only) on whether a run changed how grids
#: moved between processes — none of which may change
#: the simulation's output (the chaos suite asserts exactly that), and
#: ``checker`` on whether this record's job compiled and ran the
#: design-rule checker (absent on a cache hit, ``"skipped"`` under
#: ``run_checker="never"``) — the checker-gate tests pin digest
#: identity across every ``run_checker`` mode through this exclusion.
#: (``tier`` is *not* volatile — which tier runs is deterministic for a
#: given job and backend.)
VOLATILE_KEYS = (
    "duration_s",
    "timings",
    "attempts",
    "retry_reasons",
    "resumed",
    "transport_fallback",
    "checker",
)


#: ``json.dumps(obj, sort_keys=True)``, with one encoder built once
_sorted_json = json.JSONEncoder(sort_keys=True).encode


def canonical_record(record: Mapping[str, Any]) -> Dict[str, Any]:
    """The record minus its :data:`VOLATILE_KEYS` — what two runs of the
    same job must agree on, byte for byte."""
    return {k: v for k, v in record.items() if k not in VOLATILE_KEYS}


def canonical_line(record: Mapping[str, Any]) -> str:
    """The sorted-keys JSON line of :func:`canonical_record`."""
    return _sorted_json(canonical_record(record))


class ResultStore:
    """Append-only JSONL file of job records.

    Appends are *newline-atomic*: each :meth:`extend` call is a single
    ``write`` of complete ``line\\n`` units followed by a flush, so a
    process killed mid-append can leave at most one partial trailing
    line — never an interleaved or headless one.  :meth:`load` tolerates
    that partial tail (and any undecodable line) by skipping it with a
    warning, remembering the most recent partial tail in
    :attr:`truncated_tail`, and the next append starts on a fresh line
    even after a torn tail.  This is what makes the store a safe
    checkpoint target for ``BatchRunner(resume=True)``.
    """

    def __init__(self, path: str) -> None:
        self.path = Path(path)
        #: the partial trailing line the most recent :meth:`load` skipped
        #: (evidence of a crash mid-append), or None when the file was
        #: clean
        self.truncated_tail: Optional[str] = None

    def append(self, record: Mapping[str, Any]) -> None:
        self.extend([record])

    def extend(self, records: List[Mapping[str, Any]]) -> None:
        """Append a batch in one write, so its records land contiguously
        and a kill between calls can never tear an individual line.

        Appends take an exclusive advisory lock (``flock``) on the store
        file for the duration of the write: a payload larger than the io
        buffer flushes as several ``write(2)`` calls, which two
        concurrent unlocked appenders could interleave into a torn line.
        The lock serializes whole appends instead, so independent
        writers — two sweeps sharing a store, the serve daemon next to
        an offline batch — can never corrupt each other's records.  On
        platforms without ``fcntl`` the store falls back to the old
        single-write behavior (same-process writers remain safe; the
        serve daemon additionally serializes all appends through its
        single runner thread).
        """
        if not records:
            return
        payload = "".join(
            _sorted_json(dict(record)) + "\n"
            for record in records
        ).encode("utf-8")
        # an unbuffered descriptor: the probe and the write are a few
        # system calls, with no file object built per append
        flags = os.O_RDWR | os.O_APPEND | os.O_CREAT | _O_BINARY
        try:
            fd = os.open(self.path, flags, 0o666)
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, flags, 0o666)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            # the torn-tail probe must run under the lock: another
            # writer may have healed (or torn) the tail since this
            # process last looked.  Reads on an append-mode file may
            # seek; writes still land at the end.
            end = os.lseek(fd, 0, os.SEEK_END)
            if end:
                os.lseek(fd, end - 1, os.SEEK_SET)
                if os.read(fd, 1) != b"\n":
                    # a previous writer died mid-line: terminate its
                    # partial tail so our records start on a line of
                    # their own
                    payload = b"\n" + payload
            view = memoryview(payload)
            while view:  # a short write leaves the rest to write
                view = view[os.write(fd, view):]
        finally:
            # closing the descriptor releases the lock too
            os.close(fd)

    # ------------------------------------------------------------------
    def load(self) -> List[Dict[str, Any]]:
        """All records in append order; missing file reads as empty.

        Undecodable lines are skipped with a warning rather than sinking
        the load — a partial trailing line is the signature of a writer
        killed mid-append and is additionally remembered in
        :attr:`truncated_tail` so resume logic can report it.
        """
        self.truncated_tail = None
        if not self.path.exists():
            return []
        with open(self.path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        lines = raw.split("\n")
        records: List[Dict[str, Any]] = []
        for position, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if position == len(lines) - 1:
                    # no trailing newline: a write died mid-record
                    self.truncated_tail = line
                    warnings.warn(
                        f"{self.path}: skipping truncated trailing "
                        f"record ({len(line)} bytes) — a writer was "
                        f"killed mid-append",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                else:
                    warnings.warn(
                        f"{self.path}: skipping undecodable line "
                        f"{position + 1}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        return records

    def records_for(self, job_id: str) -> List[Dict[str, Any]]:
        return [r for r in self.load() if r.get("job_id") == job_id]

    def latest_by_job(self) -> Dict[str, Dict[str, Any]]:
        """Most recent record per job_id (later lines win)."""
        latest: Dict[str, Dict[str, Any]] = {}
        for record in self.load():
            job_id = record.get("job_id")
            if job_id:
                latest[job_id] = record
        return latest

    # ------------------------------------------------------------------
    # reproducibility projection
    # ------------------------------------------------------------------
    def canonical_lines(self) -> List[str]:
        """Every record as its volatile-free sorted-keys JSON line."""
        return [canonical_line(record) for record in self.load()]

    def digest(self) -> str:
        """SHA-256 over the canonical lines — two runs of the same sweep
        must produce equal digests, whatever their timings measured."""
        h = hashlib.sha256()
        for line in self.canonical_lines():
            h.update(line.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()

    def __len__(self) -> int:
        return len(self.load())


__all__ = [
    "ResultStore",
    "VOLATILE_KEYS",
    "canonical_record",
    "canonical_line",
]
