"""Fluid data: versioned values that may be consumed before they are final.

A :class:`FluidData` cell is the unit of dataflow between Fluid tasks
(``#pragma data``).  While a producer is still running, the cell holds a
*partial* value; consumers whose start valves are satisfied may read it
anyway.  Three orthogonal pieces of state drive the runtime semantics of
Section 6.1 of the paper:

``version``
    Bumped on every write.  A task records the versions of its inputs when
    a run starts; "more accurate input is available" means the current
    version is greater than the recorded one.

``final``
    Set when the producing task finishes a run: no more updates will come
    from *that run*.  (A later re-execution of the producer clears and
    re-sets it.)

``precise``
    Set when the producing task finishes a run that itself started with
    all-precise inputs.  Precise data is exactly what a conservative,
    non-Fluid execution would have produced; the end-quality check is
    overridden for tasks that consumed only precise inputs (condition (ii)
    of the CE state).

Region inputs are non-Fluid and therefore born final and precise.

Granularity note: in the simulator backend, the Python-level writes of a
work chunk are applied when the chunk's code runs, but observers (valves,
waiting guards) only learn of them at the chunk's virtual completion time.
A concurrent reader can therefore see at most one chunk of "extra" data,
which only ever makes the consumed value *more* complete.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Sequence

#: Numpy payloads at or above this many bytes cross process boundaries
#: through a :class:`PayloadArena` slot instead of pickling through a
#: pipe (see :func:`export_payload`).
PAYLOAD_SHM_MIN_BYTES = 1 << 16


class FluidData:
    """Base class for a unit of (possibly partial) dataflow.

    Parameters
    ----------
    name:
        Identifier used in traces, graphs and diagnostics.
    value:
        Initial payload.  For region inputs pass the finished value and
        call :meth:`mark_input`.
    """

    def __init__(self, name: str, value: Any = None):
        self.name = name
        self._value = value
        self.version = 0
        self.final = False
        self.precise = False
        self.producer = None  # type: Optional[object]  # FluidTask, set by graph
        self.region = None  # type: Optional[object]  # FluidRegion backref
        self._watchers: List[Callable[["FluidData"], None]] = []
        self._update_watchers: List[Callable[["FluidData"], None]] = []

    # -- lifecycle ---------------------------------------------------------

    def init(self, value: Any) -> None:
        """(Re)initialize the payload; mirrors ``d->init(...)`` in Fig. 3."""
        self._value = value
        self.version = 0
        self.final = False
        self.precise = False

    def mark_input(self) -> "FluidData":
        """Declare this cell a non-Fluid region input: final and precise."""
        self.final = True
        self.precise = True
        return self

    # -- producer-side API ---------------------------------------------------

    def write(self, value: Any) -> None:
        """Replace the whole payload with a newer partial value."""
        self._value = value
        self._bump()

    def touch(self) -> None:
        """Record an in-place mutation of the payload (arrays, graphs...)."""
        self._bump()

    def _bump(self) -> None:
        self.version += 1
        self.final = False
        self.precise = False
        if self._update_watchers:
            for watcher in list(self._update_watchers):
                watcher(self)

    def mark_final(self, precise: bool) -> None:
        """Called by the runtime when the producing run completes."""
        self.final = True
        self.precise = precise
        for watcher in list(self._watchers):
            watcher(self)

    # -- consumer-side API ---------------------------------------------------

    def read(self) -> Any:
        """Return the current (possibly partial) payload.

        Only Fluid methods may call this before :attr:`final` is set; the
        framework does not police the convention at runtime (tasks created
        through a region only ever receive the data cells listed in their
        ``inputs``), but :meth:`read_final` is provided for non-Fluid code.
        """
        return self._value

    def read_final(self) -> Any:
        """Read for non-Fluid consumers: requires the value to be final."""
        from .errors import DataError

        if not self.final:
            raise DataError(
                f"non-Fluid read of {self.name!r} while still partial "
                f"(version={self.version})")
        return self._value

    # -- observation ---------------------------------------------------------

    def on_final(self, watcher: Callable[["FluidData"], None]) -> None:
        self._watchers.append(watcher)

    def on_update(self, watcher: Callable[["FluidData"], None]) -> None:
        """Register ``watcher(data)`` for every version bump.

        Fires on each :meth:`write`/:meth:`touch`/element write, *before*
        the producing run completes — the wakeup hook for event-driven
        backends (``on_final`` only fires at run completion).
        """
        self._update_watchers.append(watcher)

    def snapshot(self) -> "DataSnapshot":
        """Capture version/precision for run-start bookkeeping."""
        return DataSnapshot(self.version, self.final, self.precise)

    # -- cross-process payload exchange --------------------------------------

    def export_payload(self, arena: Optional["PayloadArena"] = None,
                       key: Any = None) -> "PayloadHandle":
        """Capture the current payload as a picklable handle.

        The handle can cross a process boundary; a large numpy payload
        goes through ``arena``'s slot for ``key`` instead of the pickle
        stream (see :func:`export_payload`).
        """
        return export_payload(self._value, arena, key)

    def apply_payload(self, value: Any, bump: bool = True) -> None:
        """Install a payload received from another process.

        Mutates the existing payload object *in place* whenever possible
        (same-shape arrays, lists, bytearrays) so that closures holding a
        direct reference to the payload — task bodies, end-valve
        predicates, app-side output accessors — keep observing updates.
        Falls back to rebinding for scalars and shape changes.

        Rebinding a *container* payload (array/list/bytearray whose shape
        or type changed) is a contract hazard: closures holding the old
        object keep observing the stale payload.  Such rebinds emit a
        ``payload``/``rebound`` telemetry event on the owning region's
        bus so the hazard is diagnosable; see ``docs/api.md``.
        """
        current = self._value
        if not _copy_in_place(current, value):
            self._value = value
            if _is_aliasable(current):
                self._note_rebound(current, value)
        if bump:
            self._bump()

    def _note_rebound(self, old: Any, new: Any) -> None:
        """Report that an aliasable payload was rebound, not copied into."""
        telemetry = getattr(self.region, "telemetry", None)
        if telemetry is not None:
            telemetry.emit("payload", getattr(self.region, "name", ""), "",
                           "rebound",
                           data={"cell": self.name,
                                 "version": self.version,
                                 "from_type": type(old).__name__,
                                 "to_type": type(new).__name__,
                                 "from_shape": _shape_of(old),
                                 "to_shape": _shape_of(new)})

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = "".join(flag for flag, on in
                        (("F", self.final), ("P", self.precise)) if on)
        return f"FluidData({self.name}, v{self.version}{',' + flags if flags else ''})"


class DataSnapshot:
    """Immutable record of a data cell's state at a task's run start."""

    __slots__ = ("version", "final", "precise")

    def __init__(self, version: int, final: bool, precise: bool):
        self.version = version
        self.final = final
        self.precise = precise

    def advanced_in(self, data: FluidData) -> bool:
        """Has ``data`` gained information since this snapshot was taken?"""
        return data.version > self.version or (data.precise and not self.precise)


class FluidScalar(FluidData):
    """A single approximable value (e.g. a running minimum)."""


class FluidArray(FluidData):
    """A 1-D array of Fluid elements (the paper's only aggregate type).

    Multi-dimensional data is expressed by user-side index arithmetic, as
    in the paper (Section 3.3, limitation five).  The payload may be any
    mutable sequence, including a :class:`numpy.ndarray`.
    """

    def __init__(self, name: str, value: Optional[Sequence] = None):
        super().__init__(name, value)

    def __len__(self) -> int:
        return 0 if self._value is None else len(self._value)

    def __getitem__(self, index):
        return self._value[index]

    def __setitem__(self, index, value) -> None:
        self._value[index] = value
        self._bump()

    def fill_slice(self, start: int, stop: int, values) -> None:
        """Bulk-update ``payload[start:stop]`` as one versioned write."""
        self._value[start:stop] = values
        self._bump()


# --------------------------------------------------------------------------
# Cross-process payload exchange (the process backend's data protocol).
#
# A payload crosses a process boundary as a PayloadHandle: a small
# picklable object that either embeds the value in the pickle stream or,
# for large numpy arrays, references a slot of the exporter's
# PayloadArena (below).  No handle owns a segment: the arena's owner
# unlinks it, so dropping an unread handle releases nothing.


def _numpy():
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        return None
    return numpy


def _is_aliasable(value: Any) -> bool:
    """Whether closures could hold a live reference to ``value``'s storage
    (mutable containers); scalars/None rebind without a hazard."""
    np = _numpy()
    if np is not None and isinstance(value, np.ndarray):
        return True
    return isinstance(value, (list, bytearray))


def _shape_of(value: Any) -> Any:
    shape = getattr(value, "shape", None)
    if shape is not None:
        return tuple(shape)
    try:
        return (len(value),)
    except TypeError:
        return None


def _copy_in_place(current: Any, value: Any) -> bool:
    """Copy ``value`` into the object ``current`` if types allow."""
    np = _numpy()
    if np is not None and isinstance(current, np.ndarray) \
            and isinstance(value, np.ndarray):
        if current.shape == value.shape and current.dtype == value.dtype:
            np.copyto(current, value)
            return True
        return False
    if isinstance(current, (list, bytearray)) and type(current) is type(value):
        current[:] = value
        return True
    return False


class PayloadHandle:
    """Base class: a picklable carrier for one payload value."""

    def load(self) -> Any:
        """Materialize the payload."""
        raise NotImplementedError


class InlinePayload(PayloadHandle):
    """The common case: the value rides in the pickle stream itself."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def load(self) -> Any:
        return self.value


def export_payload(value: Any, arena: Optional["PayloadArena"] = None,
                   key: Any = None) -> PayloadHandle:
    """Wrap ``value`` for transport to another process.

    A large numpy array is written into ``arena``'s slot for ``key`` and
    shipped by reference (:meth:`PayloadArena.export`); everything else,
    and everything when no arena is given, is carried inline (pickled
    with the handle).
    """
    if arena is not None:
        handle = arena.export(key, value)
        if handle is not None:
            return handle
    return InlinePayload(value)


def import_payload(handle: PayloadHandle) -> Any:
    """Materialize a payload exported by another process."""
    return handle.load()


# --------------------------------------------------------------------------
# Payload arena: versioned shared-memory slots for recurring payloads.
#
# A fresh segment per payload (shm_open, ftruncate, mmap, unlink, page
# faults, resource-tracker messages) costs far more than copying the
# bytes.  A PayloadArena parks each recurring cell in one *versioned
# slot* of long-lived segments, rewritten in place; importers copy out
# through attachments they keep.  Each arena has one writer, its owner:
# the pool's dispatch arena (parent -> workers) or a worker's result
# arena (worker -> parent).  recycle() (slots forgotten, segments kept)
# runs only at a pool-lease boundary, where no reader holds a handle.
#
# Concurrency contract (seqlock): each slot carries a 16-byte header
# (uint64 generation, uint64 nbytes).  The writer sets the generation odd
# before copying bytes in and even after; a reader retries while it
# observes an odd or changing generation.  If retries are exhausted under
# sustained writes the reader *accepts the possibly-torn copy*: a Fluid
# consumer is licensed to observe any partial prefix of its producer's
# progress (PAPER.md §3), and a torn arena read only ever mixes two
# adjacent versions of the same approximable cell.  Final reads never
# race: a worker writes a cell's slot only while running that cell's
# producer, and the parent re-dispatches the producer only after it has
# applied the run's terminal message, so nothing rewrites the slot
# between the final flush and the parent's read of it.

#: Slot header size and slot alignment, bytes.
_ARENA_ALIGN = 16

#: Minimum size of one arena segment (slots for several cells share it).
_ARENA_SEGMENT_MIN = 1 << 22

#: Importer-side cache of attached arena segments, by shm name.  An
#: attachment is reused for every read from that segment until
#: :func:`arena_detach_all` or :func:`arena_sweep` closes it.
_ARENA_SEGMENTS: dict = {}


class _Segment:
    """A POSIX shared-memory segment mapped without the resource tracker
    (``size > 0`` creates it, ``0`` attaches).

    ``SharedMemory`` registers attachments too (opt-out needs 3.13).  A
    worker forked after its parent's tracker started shares it, so
    unregistering an attachment would drop the *owner's* registration;
    left registered in a private tracker, the worker's exit would unlink
    the owner's live segment.
    """

    __slots__ = ("name", "size", "buf", "_mmap")

    def __init__(self, name: str, size: int = 0):
        import mmap

        import _posixshmem

        flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if size else 0)
        fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
        try:
            if size:
                os.ftruncate(fd, size)
            else:
                size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, size)
        finally:
            os.close(fd)
        self.name = name
        self.size = size
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        self.buf.release()
        self._mmap.close()

    def unlink(self) -> None:
        _shm_unlink(self.name)


def _shm_unlink(name: str) -> None:
    import _posixshmem

    _posixshmem.shm_unlink("/" + name)


def _arena_attach(name: str):
    segment = _ARENA_SEGMENTS.get(name)
    if segment is None:
        segment = _ARENA_SEGMENTS[name] = _Segment(name)
    return segment


def arena_detach_all(prefix: str = "") -> None:
    """Close this process's cached arena attachments whose segment names
    start with ``prefix`` (all of them by default); never unlinks."""
    # list() snapshots the keys in one step: another pool's control
    # thread may attach its own segments meanwhile.
    for name in list(_ARENA_SEGMENTS):
        if name.startswith(prefix):
            _ARENA_SEGMENTS.pop(name).close()


def arena_sweep(prefix: str) -> None:
    """Unlink every segment ``PayloadArena(prefix=prefix)`` created and
    close this process's attachments to them — without having seen a
    handle, e.g. after the arena's process was killed.  Such an arena
    never unlinks a segment itself, so its names have no gaps."""
    arena_detach_all(prefix)
    index = 0
    while True:
        try:
            _shm_unlink(f"{prefix}{index}")
        except FileNotFoundError:
            return
        index += 1


class _ArenaSlot:
    """Writer-side bookkeeping for one cell's slot in the arena."""

    __slots__ = ("segment", "offset", "capacity", "generation")

    def __init__(self, segment, offset: int, capacity: int):
        self.segment = segment
        self.offset = offset
        self.capacity = capacity
        self.generation = 0


class PayloadArena:
    """Versioned shared-memory slots for recurring payloads.

    Owned and written by one process; importers copy out under the
    seqlock protocol described above.  :meth:`close` unlinks every
    segment.  Without ``prefix`` segments get random names and the
    owner's resource tracker reclaims them if the owner dies; with one
    they are ``prefix + "0"``, ``prefix + "1"``, ..., untracked, and
    reclaimed by :func:`arena_sweep`.
    """

    def __init__(self, min_segment_bytes: int = _ARENA_SEGMENT_MIN,
                 prefix: Optional[str] = None):
        self._min_segment = min_segment_bytes
        self._prefix = prefix
        self._segments: list = []
        #: Allocation point: segment index and byte offset within it.
        self._active = 0
        self._cursor = 0
        self._slots: dict = {}
        self._closed = False

    def export(self, key: Any, value: Any) -> "Optional[ArenaSlotPayload]":
        """Write ``value`` into ``key``'s slot and return a handle.

        Returns None unless ``value`` is worth a slot — a non-object
        numpy array of at least ``PAYLOAD_SHM_MIN_BYTES`` — (the caller
        ships it inline, see :func:`export_payload`), or once closed.
        """
        np = _numpy()
        if self._closed or not isinstance(value, np.ndarray) or \
                value.dtype == object or value.nbytes < PAYLOAD_SHM_MIN_BYTES:
            return None
        contiguous = np.ascontiguousarray(value)
        slot = self._slots.get(key)
        if slot is None or slot.capacity < contiguous.nbytes:
            # A regrown key gets a fresh slot; the old one is left
            # untouched so in-flight handles keep reading stable bytes.
            slot = self._allocate(key, contiguous.nbytes)
        header = np.ndarray((2,), dtype=np.uint64,
                            buffer=slot.segment.buf, offset=slot.offset)
        generation = slot.generation + 1
        header[0] = 2 * generation - 1  # odd: write in progress
        destination = np.ndarray(contiguous.shape, dtype=contiguous.dtype,
                                 buffer=slot.segment.buf,
                                 offset=slot.offset + _ARENA_ALIGN)
        np.copyto(destination, contiguous)
        header[1] = contiguous.nbytes
        header[0] = 2 * generation  # even: settled
        slot.generation = generation
        return ArenaSlotPayload(slot.segment.name, slot.offset,
                                contiguous.shape, contiguous.dtype.str)

    def _allocate(self, key: Any, nbytes: int) -> _ArenaSlot:
        capacity = _ARENA_ALIGN
        while capacity < nbytes:
            capacity <<= 1
        total = _ARENA_ALIGN + capacity
        # First fit from the allocation point on: after recycle() the
        # kept segments are refilled in order before a new one is made.
        while self._active < len(self._segments) and \
                self._cursor + total > self._segments[self._active].size:
            self._active += 1
            self._cursor = 0
        if self._active == len(self._segments):
            self._segments.append(
                self._create(max(self._min_segment, total)))
        slot = _ArenaSlot(self._segments[self._active], self._cursor,
                          capacity)
        self._cursor += total
        self._slots[key] = slot
        return slot

    def _create(self, size: int):
        if self._prefix is None:
            from multiprocessing import shared_memory

            return shared_memory.SharedMemory(create=True, size=size)
        return _Segment(f"{self._prefix}{len(self._segments)}", size)

    def recycle(self) -> None:
        """Forget every slot and reuse the segments from the start.

        Only safe where no reader can still hold a handle this arena
        exported (a pool-lease boundary): the next export may overwrite
        any slot.
        """
        self._slots = {}
        self._active = 0
        self._cursor = 0

    def close(self) -> None:
        """Unlink every segment; outstanding handles become unreadable."""
        if self._closed:
            return
        self._closed = True
        self._slots = {}
        for segment in self._segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already swept
                pass
        self._segments = []

    @property
    def segment_count(self) -> int:
        return len(self._segments)


class ArenaSlotPayload(PayloadHandle):
    """A numpy array parked in a :class:`PayloadArena` slot.

    :meth:`load` copies the bytes out of the (owner-held, reusable) slot
    through an attachment this process keeps; it never unlinks.
    """

    __slots__ = ("shm_name", "offset", "shape", "dtype_str")

    #: Seqlock read attempts before accepting a possibly-torn copy.
    _READ_RETRIES = 4

    def __init__(self, shm_name: str, offset: int, shape, dtype_str: str):
        self.shm_name = shm_name
        self.offset = offset
        self.shape = tuple(shape)
        self.dtype_str = dtype_str

    def load(self) -> Any:
        np = _numpy()
        segment = _arena_attach(self.shm_name)
        header = np.ndarray((2,), dtype=np.uint64, buffer=segment.buf,
                            offset=self.offset)
        view = np.ndarray(self.shape, dtype=np.dtype(self.dtype_str),
                          buffer=segment.buf,
                          offset=self.offset + _ARENA_ALIGN)
        value = None
        for _attempt in range(self._READ_RETRIES):
            before = int(header[0])
            value = view.copy()
            if int(header[0]) == before and before % 2 == 0:
                return value
        # Sustained writes exhausted the retries: accept the
        # possibly-torn (or fresher-than-exported) copy — exactly the
        # relaxation Fluid licenses for non-final cells.
        return value


def payload_nbytes(handle: PayloadHandle) -> int:
    """Approximate transport size of a payload handle, in bytes.

    Used by process-backend telemetry to account payload traffic without
    materializing the payload.
    """
    import math
    import sys

    if isinstance(handle, ArenaSlotPayload):
        itemsize = _numpy().dtype(handle.dtype_str).itemsize
        return math.prod(handle.shape) * itemsize
    if isinstance(handle, InlinePayload):
        value = handle.value
        nbytes = getattr(value, "nbytes", None)
        if isinstance(nbytes, int):
            return nbytes
        if isinstance(value, (bytes, bytearray, memoryview)):
            return len(value)
        return sys.getsizeof(value)
    return 0
