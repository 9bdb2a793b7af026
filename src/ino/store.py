"""Durable object store: one canonical XML file per object, sharded directories,
a redo journal for atomic multi-object commits, and a gap-free change-event
feed.

A purge writes a tombstone as the object's last version, in Fedora's Deleted
state: ``modified`` is the purge time, inline datastream bytes are emptied,
and the rest is kept, so what the object was can be derived from the store.

Commit protocol: frame one redo record (the new file bytes and the events)
into the journal and fsync it; then replace the object files and append the
events, with no fsync. Recovery redoes every complete record in the journal
and drops a torn tail, so an interrupted commit either fully applies or
vanishes. Files are replaced whole and events already in the log are skipped,
so redoing a record twice is harmless.

A checkpoint (at open, at close, and whenever the journal passes
``CHECKPOINT_BYTES``) fsyncs the object files written since the last one, the
shard directories that hold them and the event log, then empties the journal.
A commit that fails after its journal write stops the store: further commits
raise ``StoreFailed``, ``close`` skips the checkpoint, and reopening redoes the
failed record.
"""

from __future__ import annotations

import base64
import fcntl
import json
import hashlib
import os
import threading
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import (
    DuplicateId,
    InvalidObject,
    NotFound,
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

# Journal size past which a commit ends with a checkpoint. It bounds both the
# redo work at open and the set of object files waiting for their fsync.
CHECKPOINT_BYTES = 8 << 20


@dataclass(frozen=True)
class ChangeEvent:
    seq: int
    kind: str  # Created | Modified | Purged
    object_id: str
    timestamp: datetime

    def to_json(self) -> str:
        return json.dumps(
            {
                "seq": self.seq,
                "kind": self.kind,
                "objectId": self.object_id,
                "timestamp": format_ts(self.timestamp),
            },
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(line: str) -> "ChangeEvent":
        d = json.loads(line)
        return ChangeEvent(d["seq"], d["kind"], d["objectId"],
                           parse_ts(d["timestamp"]))


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

    ``durable=False`` skips fsync calls (bulk loads, benchmarks); the commit
    protocol and file layout are unchanged.
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
        self._unsynced: set[str] = set()  # durable writes since the checkpoint
        self._journal_bytes = 0
        self._stopped: str | None = None  # why writes are refused, if they are

        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "objects").mkdir(exist_ok=True)
        self._lock_fd = os.open(self.root / "store.lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(self._lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(self._lock_fd)
            raise StoreLocked(f"data directory already in use: {self.root}")
        self._journal_fd = os.open(
            self.root / "journal.log", os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._events_fd = os.open(
            self.root / "events.log", os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._fds = (self._journal_fd, self._events_fd, self._lock_fd)
        try:
            self._recover()
            self._checkpoint()
        except BaseException:
            self.abandon()
            raise

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Checkpoint and release the store. After a failed commit the journal
        is kept, so the next open redoes that commit."""
        with self._lock:
            try:
                if self._stopped is None:
                    self._checkpoint()
            finally:
                self.abandon()

    def abandon(self) -> None:
        """Release the store without a checkpoint; simulates a crashed process.
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

    # -------------------------------------------------------------- recovery

    def _recover(self) -> None:
        raw = (self.root / "events.log").read_bytes()
        pos = 0
        while (nl := raw.find(b"\n", pos)) >= 0:
            try:
                self._events.append(ChangeEvent.from_json(raw[pos:nl].decode("utf-8")))
            except (ValueError, KeyError, TypeError):
                break  # torn tail
            pos = nl + 1
        if pos < len(raw):
            os.ftruncate(self._events_fd, pos)  # keep the log parseable

        # redo every complete record; files are replaced whole, and events
        # already in the log are skipped
        for rec in self._read_journal((self.root / "journal.log").read_bytes()):
            for w in rec["writes"]:
                self._write_file(w["path"], base64.b64decode(w["content"]))
            events = [ev for ev in map(ChangeEvent.from_json, rec["events"])
                      if ev.seq > self.current_seq]
            self._append_events(events)
            self._events.extend(events)

        # gap check
        for i, ev in enumerate(self._events):
            if ev.seq != i + 1:
                raise InvalidObject(
                    f"event log corrupt: expected seq {i + 1}, found {ev.seq}"
                )

        # load all object files
        obj_seq = {ev.object_id: ev.seq for ev in self._events}
        for path in sorted((self.root / "objects").rglob("*.xml")):
            obj = deserialize_object(path.read_bytes())
            obj = obj.with_seq(obj_seq.get(obj.id, 0))
            if obj.state == DELETED:
                self._tombstones[obj.id] = obj
            else:
                self._objects[obj.id] = obj

    @staticmethod
    def _read_journal(data: bytes) -> list[dict]:
        """Parse framed ``J <len> <sha256>`` records; stop at the first torn one."""
        records: list[dict] = []
        pos = 0
        while (nl := data.find(b"\n", pos)) >= 0:
            header = data[pos:nl].split(b" ")
            if header[0] == b"C":  # a commit marker of the older journal format
                pos = nl + 1
                continue
            if len(header) != 3 or header[0] != b"J" or not header[1].isdigit():
                break
            end = nl + 1 + int(header[1])
            payload = data[nl + 1 : end]
            if end > len(data) or hashlib.sha256(payload).hexdigest().encode() != header[2]:
                break
            records.append(json.loads(payload))
            pos = end + 1  # the newline after the payload
        return records

    def _checkpoint(self) -> None:
        """Make the files written since the last checkpoint durable, then empty
        the journal, whose records are no longer needed for redo."""
        if self.durable:
            dirs: set[Path] = set()
            for rel in self._unsynced:
                path = self.root / rel
                dirs.update(path.parents[i] for i in range(3))  # yy, xx, objects
                _fsync_path(path)
            for d in dirs:
                _fsync_path(d)
            os.fsync(self._events_fd)
        self._unsynced.clear()
        os.ftruncate(self._journal_fd, 0)
        self._journal_bytes = 0

    # --------------------------------------------------------------- helpers

    def _write_file(self, rel: str, content: bytes) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(content)
        os.replace(tmp, path)
        if self.durable:
            self._unsynced.add(rel)

    def _append_events(self, events: Iterable[ChangeEvent]) -> None:
        os.write(self._events_fd,
                 "".join(e.to_json() + "\n" for e in events).encode("utf-8"))

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
            # _recover's gap check guarantees event seq == list index + 1
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

            files = {shard_path(oid): serialize_object(obj) for oid, obj in staged.items()}
            record = {
                "writes": [{"path": path, "content": base64.b64encode(content).decode("ascii")}
                           for path, content in files.items()],
                "events": [e.to_json() for e in events],
            }
            payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
            frame = b"J %d %s\n%s\n" % (
                len(payload), hashlib.sha256(payload).hexdigest().encode(), payload)
            try:
                os.write(self._journal_fd, frame)
                self._journal_bytes += len(frame)
                self._crash_point("journal-written")
                if self.durable:
                    os.fsync(self._journal_fd)
                self._crash_point("journal-synced")

                for i, (path, content) in enumerate(files.items()):
                    self._write_file(path, content)
                    if i == 0:
                        self._crash_point("first-file-written")
                self._crash_point("files-written")

                self._append_events(events)
                self._crash_point("events-written")
                if self._journal_bytes > CHECKPOINT_BYTES:
                    self._checkpoint()
                self._crash_point("committed")
            except BaseException:
                # memory no longer matches the disk; the journal still holds
                # the record, so reopening redoes it
                self._stopped = ("a commit failed after its journal write; "
                                 "reopen the store to redo it")
                raise

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
            return [obj for _kind, _old, obj in applied]


def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
