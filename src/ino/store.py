"""Durable object store: one canonical XML file per object, sharded directories,
an append-only intent journal for atomic multi-object commits, and a gap-free
change-event feed.

Commit protocol: frame the full intent (new file bytes + events) into the
journal, fsync, apply the file writes, append the events, then write a commit
marker. Recovery replays forward any complete intent record past the last
marker and discards torn records, so interrupted commits either fully apply
or vanish.
"""

from __future__ import annotations

import base64
import fcntl
import json
import hashlib
import os
import threading
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Callable, Iterator

from .errors import (
    DuplicateId,
    InvalidObject,
    NotFound,
    SeqOutOfRange,
    StoreLocked,
)
from .model import (
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
    """One step of an atomic multi-object commit."""

    kind: str  # "create" | "modify" | "purge"
    object_id: str
    draft: DigitalObject | None = None  # create
    types: tuple | None = None  # modify replacements (None = keep)
    datastreams: tuple | None = None
    relationships: tuple | None = None


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
        self._tombstones: dict[str, DigitalObject] = {}
        self._events: list[ChangeEvent] = []
        self._crash_point: Callable[[str], None] = lambda name: None
        self._commit_listeners: list[Callable[[list], None]] = []

        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "objects").mkdir(exist_ok=True)
        self._lock_fd = os.open(self.root / "store.lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(self._lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(self._lock_fd)
            raise StoreLocked(f"data directory already in use: {self.root}")
        self._recover()
        self._journal_fd = os.open(
            self.root / "journal.log", os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._events_fd = os.open(
            self.root / "events.log", os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
        )

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        for fd in (self._journal_fd, self._events_fd):
            try:
                os.close(fd)
            except OSError:
                pass
        try:
            fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
            os.close(self._lock_fd)
        except OSError:
            pass

    def abandon(self) -> None:
        """Drop file handles without cleanup; simulates a crashed process."""
        self.close()

    def on_commit(self, listener: Callable[[list], None]) -> None:
        """Register a callback invoked inside the commit critical section with
        the list of (kind, old_object_or_None, new_object_or_None) applied."""
        self._commit_listeners.append(listener)

    # -------------------------------------------------------------- recovery

    def _recover(self) -> None:
        events_path = self.root / "events.log"
        journal_path = self.root / "journal.log"

        events: list[ChangeEvent] = []
        if events_path.exists():
            raw = events_path.read_bytes()
            good = 0
            for line in raw.split(b"\n"):
                if not line:
                    good += 1
                    continue
                try:
                    events.append(ChangeEvent.from_json(line.decode("utf-8")))
                    good += 1
                except Exception:
                    break  # torn tail
            # truncate a torn tail so the log stays parseable
            kept = b"\n".join(e.to_json().encode("utf-8") for e in events)
            if kept:
                kept += b"\n"
            if kept != raw:
                events_path.write_bytes(kept)

        # replay complete intent records past the last commit marker
        if journal_path.exists():
            records, _ = self._read_journal(journal_path.read_bytes())
            last_seq = events[-1].seq if events else 0
            for rec in records:
                if rec["committed"]:
                    continue
                self._apply_record_files(rec)
                for ev_line in rec["events"]:
                    ev = ChangeEvent.from_json(ev_line)
                    if ev.seq > last_seq:
                        with open(events_path, "ab") as fh:
                            fh.write(ev.to_json().encode("utf-8") + b"\n")
                        events.append(ev)
                        last_seq = ev.seq
            journal_path.write_bytes(b"")

        # gap check
        for i, ev in enumerate(events):
            if ev.seq != i + 1:
                raise InvalidObject(
                    f"event log corrupt: expected seq {i + 1}, found {ev.seq}"
                )
        self._events = events

        # load all object files
        obj_seq: dict[str, int] = {}
        for ev in events:
            obj_seq[ev.object_id] = ev.seq
        for path in sorted((self.root / "objects").rglob("*.xml")):
            obj = deserialize_object(path.read_bytes())
            obj = obj.with_seq(obj_seq.get(obj.id, 0))
            if obj.state == DELETED:
                self._tombstones[obj.id] = obj
            else:
                self._objects[obj.id] = obj

    @staticmethod
    def _read_journal(data: bytes) -> tuple[list[dict], int]:
        """Parse framed journal records; stop at the first torn record."""
        records: list[dict] = []
        pos = 0
        while pos < len(data):
            nl = data.find(b"\n", pos)
            if nl < 0:
                break
            header = data[pos:nl].decode("utf-8", "replace").split(" ")
            if header[0] == "C" and len(header) == 2:
                for rec in records:
                    if str(rec["seq_start"]) == header[1]:
                        rec["committed"] = True
                pos = nl + 1
                continue
            if header[0] != "J" or len(header) != 3:
                break
            try:
                length = int(header[1])
            except ValueError:
                break
            payload = data[nl + 1 : nl + 1 + length]
            if len(payload) < length:
                break
            if hashlib.sha256(payload).hexdigest() != header[2]:
                break
            rec = json.loads(payload.decode("utf-8"))
            rec["committed"] = False
            records.append(rec)
            pos = nl + 1 + length
            if data[pos : pos + 1] == b"\n":
                pos += 1
        return records, pos

    def _apply_record_files(self, rec: dict) -> None:
        for w in rec["writes"]:
            path = self.root / w["path"]
            path.parent.mkdir(parents=True, exist_ok=True)
            content = base64.b64decode(w["content"])
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(content)
            os.replace(tmp, path)

    # --------------------------------------------------------------- helpers

    def _fsync(self, fd: int) -> None:
        if self.durable:
            os.fsync(fd)

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
        op = BatchOp(
            "modify",
            object_id,
            types=tuple(types) if types is not None else None,
            datastreams=tuple(datastreams) if datastreams is not None else None,
            relationships=tuple(relationships) if relationships is not None else None,
        )
        return self.commit_batch([op])[0]

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

    def ids(self) -> list[str]:
        with self._lock:
            return sorted(self._objects)

    def objects(self) -> Iterator[DigitalObject]:
        with self._lock:
            snapshot = list(self._objects.values())
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
            now = self.clock.now()
            seq = self.current_seq
            staged: dict[str, DigitalObject] = {}  # new versions within batch
            purged: set[str] = set()
            results: list[DigitalObject] = []
            applied: list[tuple[str, DigitalObject | None, DigitalObject | None]] = []
            events: list[ChangeEvent] = []
            writes: list[dict] = []

            def live(oid: str) -> DigitalObject | None:
                if oid in purged:
                    return None
                return staged.get(oid) or self._objects.get(oid)

            for op in ops:
                seq += 1
                if op.kind == "create":
                    draft = op.draft
                    if (
                        live(draft.id) is not None
                        or draft.id in self._tombstones
                        or draft.id in purged
                    ):
                        raise DuplicateId(draft.id)
                    obj = DigitalObject(
                        id=draft.id,
                        types=draft.types,
                        created=now,
                        modified=now,
                        datastreams=draft.datastreams,
                        relationships=draft.relationships,
                        seq=seq,
                    )
                    validate_object(obj)
                    staged[obj.id] = obj
                    results.append(obj)
                    applied.append(("create", None, obj))
                    events.append(ChangeEvent(seq, CREATED, obj.id, now))
                elif op.kind == "modify":
                    old = live(op.object_id)
                    if old is None:
                        raise NotFound(op.object_id)
                    from dataclasses import replace as _replace

                    obj = _replace(
                        old,
                        types=op.types if op.types is not None else old.types,
                        datastreams=(
                            op.datastreams
                            if op.datastreams is not None
                            else old.datastreams
                        ),
                        relationships=(
                            op.relationships
                            if op.relationships is not None
                            else old.relationships
                        ),
                        modified=now,
                        seq=seq,
                    )
                    validate_object(obj)
                    staged[obj.id] = obj
                    results.append(obj)
                    applied.append(("modify", old, obj))
                    events.append(ChangeEvent(seq, MODIFIED, obj.id, now))
                elif op.kind == "purge":
                    old = live(op.object_id)
                    if old is None:
                        raise NotFound(op.object_id)
                    tomb = DigitalObject(
                        id=old.id,
                        types=(),
                        state=DELETED,
                        created=old.created,
                        modified=now,
                        seq=seq,
                    )
                    staged.pop(old.id, None)
                    purged.add(old.id)
                    staged[old.id] = tomb
                    results.append(tomb)
                    applied.append(("purge", old, tomb))
                    events.append(ChangeEvent(seq, PURGED, old.id, now))
                else:
                    raise ValueError(f"unknown op kind {op.kind!r}")

            for oid, obj in staged.items():
                writes.append(
                    {
                        "path": shard_path(oid),
                        "content": base64.b64encode(serialize_object(obj)).decode(
                            "ascii"
                        ),
                    }
                )

            record = {
                "seq_start": self.current_seq + 1,
                "writes": writes,
                "events": [e.to_json() for e in events],
            }
            payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
            frame = (
                b"J %d %s\n" % (len(payload), hashlib.sha256(payload).hexdigest().encode())
                + payload
                + b"\n"
            )
            os.write(self._journal_fd, frame)
            self._crash_point("journal-written")
            self._fsync(self._journal_fd)
            self._crash_point("journal-synced")

            first = True
            for w in writes:
                path = self.root / w["path"]
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_suffix(".tmp")
                tmp.write_bytes(base64.b64decode(w["content"]))
                os.replace(tmp, path)
                if first:
                    self._crash_point("first-file-written")
                    first = False
            self._crash_point("files-written")

            for e in events:
                os.write(self._events_fd, e.to_json().encode("utf-8") + b"\n")
            self._fsync(self._events_fd)
            self._crash_point("events-written")

            os.write(
                self._journal_fd, b"C %d\n" % (self.current_seq + 1)
            )
            self._fsync(self._journal_fd)
            self._crash_point("committed")

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
            return results
