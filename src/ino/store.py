"""Durable object store: one append-only log of commits, a gap-free
change-event feed, and tombstones.

A purge writes a tombstone as the object's last version, in Fedora's Deleted
state: ``modified`` is the purge time, inline datastream bytes are emptied,
and the rest is kept, so what the object was can be derived from the store.

The log, ``journal.log``, is a run of frames: a ``J <len> <sha256>`` line,
the payload and a newline. A commit is one frame, appended with one write
and, when durable, one fsync. Its payload is a JSON line (the commit's events,
and the id and size of each new version) followed by the raw canonical XML
of those versions. Opening the store reads the frames in order, keeps the
last version of each id and stops at the first frame that is incomplete or
fails its checksum. The file is cut there before anything is appended, so
an interrupted commit either fully applies or vanishes.

Compaction rewrites the log as one frame that holds every event and the last
version of every id: into a temporary file, fsynced, then renamed over the
log. Commits and ``close`` run it once superseded versions outnumber live
objects plus tombstones and the log is past ``COMPACT_BYTES``, so a log with
no superseded version is never rewritten.

A commit or compaction that fails at or after its write stops the store:
further commits raise ``StoreFailed`` and ``close`` skips compaction.
Reopening keeps a failed commit exactly when its whole frame reached the log.

``export`` writes Fedora's layout, one canonical XML file per object under
``objects/<xx>/<yy>/<id>.xml``. A data directory in that layout, as older
versions kept it (``objects/`` or ``events.log``), is refused at open.
"""

from __future__ import annotations

import fcntl
import json
import hashlib
import os
import threading
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterator

from .errors import (
    DuplicateId,
    InvalidObject,
    NotFound,
    OldStoreLayout,
    SeqOutOfRange,
    StoreFailed,
    StoreLocked,
)
from .model import (
    ACTIVE,
    DELETED,
    Clock,
    DigitalObject,
    format_ts,
    parse_ts,
    serialize_object,
    deserialize_object,
    shard_path,
    validate_object,
)

CREATED = "Created"
MODIFIED = "Modified"
PURGED = "Purged"
_EVENT_KIND = {"create": CREATED, "modify": MODIFIED, "purge": PURGED}

_LOG = "journal.log"
_COMPACTING = "journal.tmp"

# Log size below which superseded versions are kept: compaction reads and
# rewrites the whole log, so it waits until that work is worth doing.
COMPACT_BYTES = 8 << 20


@dataclass(frozen=True)
class ChangeEvent:
    seq: int
    kind: str  # Created | Modified | Purged
    object_id: str
    timestamp: datetime


@dataclass(frozen=True)
class BatchOp:
    """One step of an atomic multi-object commit. A create or a modify
    carries the whole new version as ``draft``; a modify without one commits
    the object as it is, with new ``modified`` and ``seq``."""

    kind: str  # "create" | "modify" | "purge"
    object_id: str
    draft: DigitalObject | None = None


class ObjectStore:
    """Single-writer, multi-reader store rooted at a directory.

    ``durable=False`` skips fsync calls (bulk loads, benchmarks); the log and
    its frames are the same.
    """

    def __init__(self, root, clock: Clock | None = None, durable: bool = True):
        self.root = Path(root)
        self.clock = clock or Clock()
        self.durable = durable
        self._lock = threading.RLock()
        self._objects: dict[str, DigitalObject] = {}
        self._tombstones: dict[str, DigitalObject] = {}  # purged id -> last version
        self._events: list[ChangeEvent] = []
        self._crash_point: Callable[[str], None] = lambda name: None
        self._commit_listeners: list[Callable[[list], None]] = []
        self._log_bytes = 0
        self._versions = 0  # versions in the log, superseded ones included
        self._stopped: str | None = None  # why writes are refused, if they are

        self.root.mkdir(parents=True, exist_ok=True)
        self._lock_fd = os.open(self.root / "store.lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(self._lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(self._lock_fd)
            raise StoreLocked(f"data directory already in use: {self.root}")
        self._fds = (self._lock_fd,)
        try:
            self._open_log()
        except BaseException:
            self.abandon()
            raise

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Compact the log if it is due, and release the store. After a failed
        commit the log is left as it is."""
        with self._lock:
            try:
                if self._stopped is None and self._compaction_due():
                    self._compact()
            finally:
                self.abandon()

    def abandon(self) -> None:
        """Release the store without compacting; simulates a crashed process.
        Each descriptor is closed once: its number may then go to another file."""
        self._stopped = self._stopped or "the store is closed"
        fds, self._fds = self._fds, ()
        for fd in fds:  # closing the lock file's descriptor drops its flock
            try:
                os.close(fd)
            except OSError:
                pass

    def on_commit(self, listener: Callable[[list], None]) -> None:
        """Register a callback invoked inside the commit critical section with
        the list of (kind, old_object_or_None, new_object_or_None) applied."""
        self._commit_listeners.append(listener)

    def export(self, dest) -> int:
        """Write every live object and tombstone as its own canonical XML file
        under ``dest``, at ``shard_path``; return how many were written."""
        with self._lock:
            versions = [*self._objects.values(), *self._tombstones.values()]
        for obj in versions:
            path = Path(dest) / shard_path(obj.id)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(serialize_object(obj))
        return len(versions)

    # ------------------------------------------------------------------- log

    def _open_log(self) -> None:
        old = [name for name in ("objects", "events.log") if (self.root / name).exists()]
        if old:
            raise OldStoreLayout(
                f"{self.root} holds the one-file-per-object layout of an older "
                f"version ({', '.join(old)}), which this version does not read")
        # left by a compaction that stopped before its rename
        (self.root / _COMPACTING).unlink(missing_ok=True)
        path = self.root / _LOG
        self._log_fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        self._fds = (self._log_fd, self._lock_fd)
        data = path.read_bytes()
        rows, spans, self._versions, self._log_bytes = _read_log(data)
        if self._log_bytes < len(data):
            os.ftruncate(self._log_fd, self._log_bytes)  # a torn tail

        stamps: dict[str, datetime] = {}
        for i, (seq, kind, oid, stamp) in enumerate(rows):
            if seq != i + 1:
                raise InvalidObject(f"journal corrupt: expected seq {i + 1}, found {seq}")
            if stamp not in stamps:
                stamps[stamp] = parse_ts(stamp)
            self._events.append(ChangeEvent(seq, kind, oid, stamps[stamp]))
        obj_seq = {ev.object_id: ev.seq for ev in self._events}
        for oid, (start, end) in spans.items():
            obj = deserialize_object(data[start:end]).with_seq(obj_seq.get(oid, 0))
            if obj.state == DELETED:
                self._tombstones[obj.id] = obj
            else:
                self._objects[obj.id] = obj

    def _compaction_due(self) -> bool:
        ids = len(self._objects) + len(self._tombstones)
        return self._log_bytes > COMPACT_BYTES and self._versions - ids > ids

    def _compact(self) -> None:
        """Rewrite the log as one frame: every event and each id's last version."""
        path, tmp = self.root / _LOG, self.root / _COMPACTING
        data = path.read_bytes()
        rows, spans, _versions, _end = _read_log(data)
        view = memoryview(data)
        frame = _frame(rows, [(oid, view[a:b]) for oid, (a, b) in spans.items()])
        try:
            tmp.write_bytes(frame)
            if self.durable:
                _fsync_path(tmp)
            self._crash_point("compact-written")
            os.replace(tmp, path)
            self._crash_point("compact-renamed")
            if self.durable:
                _fsync_path(self.root)
            fd = os.open(path, os.O_RDWR | os.O_APPEND)
        except BaseException:
            self._stopped = "a compaction failed; reopen the store"
            raise
        old, self._log_fd = self._log_fd, fd
        self._fds = (fd, self._lock_fd)
        os.close(old)
        self._log_bytes, self._versions = len(frame), len(spans)

    @property
    def current_seq(self) -> int:
        return self._events[-1].seq if self._events else 0

    # ------------------------------------------------------------ operations

    def create(self, draft: DigitalObject) -> DigitalObject:
        return self.commit_batch([BatchOp("create", draft.id, draft=draft)])[0]

    def modify(
        self,
        object_id: str,
        *,
        types=None,
        datastreams=None,
        relationships=None,
    ) -> DigitalObject:
        """Commit the live object with each field given here replaced."""
        fields = {"types": types, "datastreams": datastreams,
                  "relationships": relationships}
        with self._lock:
            draft = replace(self.get(object_id), **{
                name: tuple(value) for name, value in fields.items()
                if value is not None})
            return self.commit_batch([BatchOp("modify", object_id, draft)])[0]

    def purge(self, object_id: str) -> None:
        self.commit_batch([BatchOp("purge", object_id)])

    def get(self, object_id: str) -> DigitalObject:
        with self._lock:
            obj = self._objects.get(object_id)
        if obj is None:
            raise NotFound(object_id)
        return obj

    def exists(self, object_id: str) -> bool:
        with self._lock:
            return object_id in self._objects

    def latest(self, object_id: str) -> DigitalObject | None:
        """The live object or, once purged, its tombstone; else None."""
        with self._lock:
            return self._objects.get(object_id) or self._tombstones.get(object_id)

    def ids(self) -> list[str]:
        with self._lock:
            return sorted(self._objects)

    def objects(self) -> Iterator[DigitalObject]:
        with self._lock:
            snapshot = list(self._objects.values())
        return iter(snapshot)

    def tombstones(self) -> Iterator[DigitalObject]:
        with self._lock:
            snapshot = list(self._tombstones.values())
        return iter(snapshot)

    def count(self) -> int:
        with self._lock:
            return len(self._objects)

    def changes_since(self, seq: int) -> list[ChangeEvent]:
        with self._lock:
            if seq > self.current_seq:
                raise SeqOutOfRange(
                    f"seq {seq} beyond current max {self.current_seq}"
                )
            # _open_log's gap check guarantees event seq == list index + 1
            return self._events[max(seq, 0):]

    # ----------------------------------------------------------- commit path

    def commit_batch(self, ops: list[BatchOp]) -> list[DigitalObject]:
        """Apply a list of ops as one atomic commit; all-or-nothing."""
        with self._lock:
            if self._stopped:
                raise StoreFailed(self._stopped)
            now = self.clock.now()
            seq = self.current_seq
            staged: dict[str, DigitalObject] = {}  # new versions within batch
            applied: list[tuple[str, DigitalObject | None, DigitalObject]] = []
            events: list[ChangeEvent] = []

            for op in ops:
                if op.kind not in _EVENT_KIND:
                    raise ValueError(f"unknown op kind {op.kind!r}")
                seq += 1
                oid = op.object_id
                old = staged[oid] if oid in staged else self._objects.get(oid)
                if op.kind == "create":
                    if oid in staged or oid in self._objects or oid in self._tombstones:
                        raise DuplicateId(oid)
                elif old is None or old.state == DELETED:
                    raise NotFound(oid)
                if op.kind == "purge":
                    streams = tuple(ds if ds.is_surrogate else replace(ds, content=b"")
                                    for ds in old.datastreams)
                    obj = replace(old, state=DELETED, datastreams=streams,
                                  modified=now, seq=seq)
                else:  # the caller's whole version; the store owns the rest
                    obj = replace(op.draft or old, id=oid, state=ACTIVE,
                                  created=old.created if old else now,
                                  modified=now, seq=seq)
                validate_object(obj)
                staged[oid] = obj
                applied.append((op.kind, old, obj))
                events.append(ChangeEvent(seq, _EVENT_KIND[op.kind], oid, now))

            stamp = format_ts(now)
            frame = _frame([[e.seq, e.kind, e.object_id, stamp] for e in events],
                           [(oid, serialize_object(obj)) for oid, obj in staged.items()])
            try:
                if os.write(self._log_fd, frame) != len(frame):
                    raise OSError("short write to the journal")
                self._crash_point("journal-written")
                if self.durable:
                    os.fsync(self._log_fd)
                self._crash_point("journal-synced")
            except BaseException:
                # the log may hold the whole frame, part of it or none of it;
                # reopening reads which
                self._stopped = ("a commit failed at its journal write; "
                                 "reopen the store to learn whether it applied")
                raise
            self._log_bytes += len(frame)
            self._versions += len(staged)

            # publish in memory
            for oid, obj in staged.items():
                if obj.state == DELETED:
                    self._objects.pop(oid, None)
                    self._tombstones[oid] = obj
                else:
                    self._objects[oid] = obj
            self._events.extend(events)

            for listener in self._commit_listeners:
                listener(applied)
            if self._compaction_due():
                self._compact()
            self._crash_point("committed")
            return [obj for _kind, _old, obj in applied]


def _frame(rows: list, versions: list[tuple[str, bytes]]) -> bytes:
    """One log frame holding event rows ``[seq, kind, id, timestamp]`` and
    each version's canonical XML, in order."""
    head = json.dumps({"events": rows, "versions": [[oid, len(content)]
                                                    for oid, content in versions]},
                      separators=(",", ":")).encode("utf-8") + b"\n"
    digest = hashlib.sha256(head)
    for _oid, content in versions:
        digest.update(content)
    size = len(head) + sum(len(content) for _oid, content in versions)
    return b"".join([b"J %d %s\n" % (size, digest.hexdigest().encode()), head,
                     *(content for _oid, content in versions), b"\n"])


def _read_log(data: bytes) -> tuple[list, dict[str, tuple[int, int]], int, int]:
    """Read the frames of a log in order and stop at the first torn one.
    Returns the event rows, the span of each id's last version in ``data``,
    the number of versions read and where the last whole frame ends."""
    rows: list = []
    spans: dict[str, tuple[int, int]] = {}
    versions = pos = 0
    while (nl := data.find(b"\n", pos)) >= 0:
        header = data[pos:nl].split(b" ")
        if len(header) != 3 or header[0] != b"J" or not header[1].isdigit():
            break
        end = nl + 1 + int(header[1])
        if (data[end:end + 1] != b"\n"
                or hashlib.sha256(memoryview(data)[nl + 1:end]).hexdigest().encode()
                != header[2]):
            break
        at = data.index(b"\n", nl + 1) + 1
        head = json.loads(data[nl + 1:at])
        rows += head["events"]
        for oid, size in head["versions"]:
            spans[oid] = (at, at + size)
            at += size
        versions += len(head["versions"])
        pos = end + 1
    return rows, spans, versions, pos


def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
