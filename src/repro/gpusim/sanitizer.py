"""A ``compute-sanitizer`` analogue for the simulated GPU runtime.

NVIDIA ships ``compute-sanitizer`` with three tools — *racecheck*,
*memcheck* and *synccheck* — because stream/barrier discipline bugs are
the dominant failure mode of CUDA code.  The paper's throughput comes
from exactly the constructs those tools police: three streams overlap
kernel, device sort and transfer over shared staging buffers (Section
VI), and the shared-memory kernel is only correct under block-barrier
discipline (Alg. 3).  This module is the simulated runtime's equivalent,
an opt-in instrumentation layer enabled with ``Device(sanitize=True)``,
the ``GPUSAN=1`` environment variable, or the CLI's ``--sanitize`` flag.

What it checks
--------------

**racecheck**
    Every buffer access at the :class:`~repro.gpusim.device.Device` /
    :func:`~repro.gpusim.launch.launch` / :mod:`~repro.gpusim.thrust`
    boundaries is recorded as an :class:`AccessRecord` — buffer id, byte
    range, read/write, stream, and the operation's simulated timeline
    interval.  Two accesses to overlapping byte ranges of one buffer
    from *different* streams, at least one of them a write, whose
    timeline intervals overlap and which are not ordered by the
    happens-before relation, are a race.  Happens-before is tracked with
    per-stream vector clocks built from the CUDA-style ordering
    primitives: program order within a stream,
    :meth:`~repro.gpusim.streams.Stream.record_event` →
    :meth:`~repro.gpusim.streams.Stream.wait_event` edges, and
    :meth:`~repro.gpusim.streams.Timeline.synchronize` barriers.

**memcheck**
    Use-after-free (touching a freed :class:`DeviceBuffer` through any
    instrumented API), double-free, reads/writes past the allocation
    (e.g. ``from_device(..., count=n)`` beyond capacity, or a
    :class:`ResultBuffer` overflow — raised as :class:`OutOfBoundsError`,
    which still ``isinstance``-matches :class:`ResultBufferOverflow` so
    recovery paths keep working under the sanitizer), and a pool leak
    report at device teardown (:meth:`Sanitizer.check_leaks`, fed by
    :meth:`GlobalMemoryPool.leaked_buffers`).

**synccheck**
    Block-barrier divergence in interpreted kernels
    (:class:`~repro.gpusim.kernelapi.BarrierDivergenceError` is a
    :class:`SynccheckError`), waits on unrecorded events, and waits on
    events recorded on a different timeline (or a pre-``reset`` epoch of
    the same timeline).

Violations either raise immediately (``mode="raise"``, the default — the
two conflicting :class:`AccessRecord`\\ s ride on the exception) or
accumulate into a JSON-able :class:`SanitizerReport` (``mode="record"``,
what the CLI prints).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from repro.gpusim.memory import ResultBufferOverflow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.gpusim.memory import GlobalMemoryPool

__all__ = [
    "SanitizerError",
    "RaceError",
    "MemcheckError",
    "UseAfterFreeError",
    "DoubleFreeError",
    "OutOfBoundsError",
    "LeakError",
    "SynccheckError",
    "AccessRecord",
    "Violation",
    "SanitizerReport",
    "Sanitizer",
]


# ----------------------------------------------------------------------
# structured errors
# ----------------------------------------------------------------------
class SanitizerError(RuntimeError):
    """Base class of all sanitizer-detected violations.

    ``violation`` carries the structured :class:`Violation` (including
    the conflicting :class:`AccessRecord` pair for races).
    """

    kind = "sanitizer"

    def __init__(self, message: str, violation: Optional["Violation"] = None):
        super().__init__(message)
        self.violation = violation


class RaceError(SanitizerError):
    """racecheck: unordered conflicting accesses from different streams."""

    kind = "race"


class MemcheckError(SanitizerError):
    """Base of the memcheck violation family."""

    kind = "memcheck"


class UseAfterFreeError(MemcheckError):
    kind = "use-after-free"


class DoubleFreeError(MemcheckError):
    kind = "double-free"


class OutOfBoundsError(MemcheckError, ResultBufferOverflow):
    """Write/read past an allocation.

    Also raised for :class:`ResultBuffer` overflows under the sanitizer;
    subclassing :class:`ResultBufferOverflow` keeps the batching
    scheme's overflow-recovery ``except`` clauses working unchanged.
    """

    kind = "oob"


class LeakError(MemcheckError):
    kind = "leak"


class SynccheckError(SanitizerError):
    """synccheck: barrier divergence or event misuse."""

    kind = "sync"


_ERROR_BY_KIND = {
    cls.kind: cls
    for cls in (
        RaceError,
        UseAfterFreeError,
        DoubleFreeError,
        OutOfBoundsError,
        LeakError,
        SynccheckError,
    )
}


# ----------------------------------------------------------------------
# access records and violations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AccessRecord:
    """One instrumented access to one buffer.

    ``seq`` is the issuing stream's operation sequence number and
    ``clock`` the stream's vector clock *at issue time* (own entry
    included), so ``a`` happens-before ``b`` iff
    ``b.clock[a.stream_id] >= a.seq``.
    """

    buffer_id: int
    buffer_name: str
    kind: str  # "read" | "write"
    op_name: str
    stream_id: int
    stream_name: str
    seq: int
    epoch: int
    start_ms: float
    end_ms: float
    byte_start: int
    byte_end: int
    clock: Mapping[int, int]

    def happens_before(self, other: "AccessRecord") -> bool:
        return other.clock.get(self.stream_id, 0) >= self.seq

    def ordered_with(self, other: "AccessRecord") -> bool:
        return self.happens_before(other) or other.happens_before(self)

    def overlaps_time(self, other: "AccessRecord") -> bool:
        return self.start_ms < other.end_ms and other.start_ms < self.end_ms

    def overlaps_bytes(self, other: "AccessRecord") -> bool:
        return self.byte_start < other.byte_end and other.byte_start < self.byte_end

    def conflicts_with(self, other: "AccessRecord") -> bool:
        return (
            self.stream_id != other.stream_id
            and self.epoch == other.epoch
            and ("write" in (self.kind, other.kind))
            and self.overlaps_bytes(other)
        )

    def describe(self) -> str:
        return (
            f"{self.kind} of buffer {self.buffer_id} "
            f"('{self.buffer_name}') bytes [{self.byte_start}, {self.byte_end}) "
            f"by op '{self.op_name}' on stream '{self.stream_name}' "
            f"during [{self.start_ms:.4f}, {self.end_ms:.4f}] ms"
        )

    def as_dict(self) -> dict:
        return {
            "buffer_id": self.buffer_id,
            "buffer_name": self.buffer_name,
            "kind": self.kind,
            "op": self.op_name,
            "stream": self.stream_name,
            "interval_ms": [round(self.start_ms, 6), round(self.end_ms, 6)],
            "bytes": [self.byte_start, self.byte_end],
        }


@dataclass(frozen=True)
class Violation:
    """One detected violation; races carry both conflicting accesses."""

    kind: str
    message: str
    first: Optional[AccessRecord] = None
    second: Optional[AccessRecord] = None

    def as_dict(self) -> dict:
        d = {"kind": self.kind, "message": self.message}
        if self.first is not None:
            d["first"] = self.first.as_dict()
        if self.second is not None:
            d["second"] = self.second.as_dict()
        return d


@dataclass
class SanitizerReport:
    """Accumulated violations of one device's sanitized lifetime."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.violations)
        return sum(1 for v in self.violations if v.kind == kind)

    def kinds(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.kind] = out.get(v.kind, 0) + 1
        return out

    def as_dict(self) -> dict:
        return {
            "clean": self.clean,
            "counts": self.kinds(),
            "violations": [v.as_dict() for v in self.violations],
        }

    def render(self) -> str:
        if self.clean:
            return "gpusanitizer: no violations detected"
        lines = [f"gpusanitizer: {len(self.violations)} violation(s)"]
        for v in self.violations:
            lines.append(f"  [{v.kind}] {v.message}")
            if v.first is not None:
                lines.append(f"      first:  {v.first.describe()}")
            if v.second is not None:
                lines.append(f"      second: {v.second.describe()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the sanitizer
# ----------------------------------------------------------------------
class Sanitizer:
    """Instrumentation engine attached to a sanitized device.

    ``mode="raise"`` (default) raises the structured error at the point
    of detection; ``mode="record"`` accumulates violations into
    :attr:`report` and lets execution continue (leaks are always
    record-only — they are detected at teardown).
    """

    def __init__(self, *, mode: str = "raise"):
        if mode not in ("raise", "record"):
            raise ValueError(f"unknown sanitizer mode {mode!r}")
        self.mode = mode
        self.report = SanitizerReport()
        self._accesses: dict[int, list[AccessRecord]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # violation plumbing
    # ------------------------------------------------------------------
    def _violation(
        self,
        kind: str,
        message: str,
        first: Optional[AccessRecord] = None,
        second: Optional[AccessRecord] = None,
        *,
        raisable: bool = True,
    ) -> None:
        v = Violation(kind=kind, message=message, first=first, second=second)
        with self._lock:
            self.report.violations.append(v)
        if raisable and self.mode == "raise":
            raise _ERROR_BY_KIND[kind](message, v)

    # ------------------------------------------------------------------
    # memcheck
    # ------------------------------------------------------------------
    def check_use(self, buf, context: str = "") -> None:
        """Flag any instrumented touch of a freed device buffer."""
        if getattr(buf, "freed", False):
            where = f" in {context}" if context else ""
            self._violation(
                "use-after-free",
                f"use of freed buffer {buf.buffer_id} ('{buf.name}'){where}",
            )

    def check_bounds(self, buf, count: int, context: str = "") -> None:
        """Flag element counts addressing past a buffer's allocation."""
        if count > len(buf.data):
            where = f" in {context}" if context else ""
            self._violation(
                "oob",
                f"access of {count} elements exceeds allocation of "
                f"{len(buf.data)} in buffer {buf.buffer_id} "
                f"('{buf.name}'){where}",
            )

    def on_overflow(self, message: str) -> None:
        """Result-buffer overflow observed by the memory layer.

        In raise mode this raises :class:`OutOfBoundsError` (which is
        also a :class:`ResultBufferOverflow`, so batching recovery still
        catches it).  Unlike every other check, the violation is *not*
        added to the report: the simulated runtime detects the overflow
        at the reservation bound and unwinds before any out-of-bounds
        write happens, and the batching scheme recovers from it by
        design (Section VI) — a recovered overflow on the report would
        be a false positive for an otherwise clean run.
        """
        if self.mode == "raise":
            raise OutOfBoundsError(message, Violation(kind="oob", message=message))

    def on_double_free(self, buf) -> None:
        self._violation(
            "double-free",
            f"free() of already-freed buffer {buf.buffer_id} ('{buf.name}')",
        )

    def on_free(self, buf) -> None:
        """First (legitimate) free: drop the buffer's access history —
        any later touch is a use-after-free, not a race candidate."""
        with self._lock:
            self._accesses.pop(buf.buffer_id, None)

    def check_leaks(self, buffers) -> None:
        """Record a leak violation per live allocation (teardown report;
        never raises — leaks are reported, not fatal).

        ``buffers`` are the live allocations a pool's
        ``leaked_buffers()`` names: the device's
        :class:`~repro.gpusim.memory.GlobalMemoryPool`'s, or its own
        checkouts from the :class:`~repro.gpusim.memory.PinnedMemoryPool`
        it borrows.
        """
        for buf in buffers:
            self._violation(
                "leak",
                f"buffer {buf.buffer_id} ('{buf.name}', {buf.nbytes} B) "
                f"still allocated at device teardown",
                raisable=False,
            )

    # ------------------------------------------------------------------
    # synccheck
    # ------------------------------------------------------------------
    def on_sync_violation(self, message: str, *, raisable: bool = True) -> None:
        self._violation("sync", message, raisable=raisable)

    # ------------------------------------------------------------------
    # racecheck
    # ------------------------------------------------------------------
    def record_access(
        self,
        buf,
        kind: str,
        stream,
        op,
        *,
        byte_start: int = 0,
        byte_end: Optional[int] = None,
    ) -> None:
        """Record one access and check it against the buffer's history.

        ``op`` is the scheduled :class:`~repro.gpusim.streams.TimelineOp`
        whose interval the access spans; ``stream`` supplies the vector
        clock.  Byte range defaults to the whole allocation.
        """
        self.check_use(buf)
        nbytes = buf.nbytes
        end = nbytes if byte_end is None else byte_end
        if byte_start < 0 or end > nbytes:
            self._violation(
                "oob",
                f"access bytes [{byte_start}, {end}) outside allocation "
                f"[0, {nbytes}) of buffer {buf.buffer_id} ('{buf.name}')",
            )
        rec = AccessRecord(
            buffer_id=buf.buffer_id,
            buffer_name=buf.name,
            kind=kind,
            op_name=op.name,
            stream_id=stream.stream_id,
            stream_name=stream.name,
            seq=stream.seq,
            epoch=stream.epoch,
            start_ms=op.start_ms,
            end_ms=op.end_ms,
            byte_start=byte_start,
            byte_end=end,
            clock=dict(stream.clock),
        )
        race: Optional[tuple[AccessRecord, AccessRecord]] = None
        with self._lock:
            history = self._accesses.setdefault(rec.buffer_id, [])
            for prev in history:
                # R/W conflicts race when their engine intervals overlap;
                # W/W conflicts are a hazard even when one engine
                # serialized them — the *order* (hence final contents)
                # is unguaranteed without a happens-before edge
                both_write = prev.kind == "write" and rec.kind == "write"
                if (
                    prev.conflicts_with(rec)
                    and (both_write or prev.overlaps_time(rec))
                    and not prev.ordered_with(rec)
                ):
                    race = (prev, rec)
                    break
            history.append(rec)
        if race is not None:
            self._violation(
                "race",
                f"unsynchronized {race[0].kind}/{race[1].kind} of buffer "
                f"{rec.buffer_id} ('{rec.buffer_name}') from streams "
                f"'{race[0].stream_name}' and '{race[1].stream_name}' "
                f"with overlapping timeline intervals and no ordering "
                f"event edge",
                first=race[0],
                second=race[1],
            )

    def clear_accesses(self) -> None:
        """Drop all access history (timeline reset starts a new epoch)."""
        with self._lock:
            self._accesses.clear()
