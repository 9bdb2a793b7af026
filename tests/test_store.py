import json
import os
import random
import shutil
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from ino.errors import (
    DuplicateId,
    InvalidObject,
    NotFound,
    OldStoreLayout,
    SeqOutOfRange,
    StoreFailed,
    StoreLocked,
)
from ino import store as store_module
from ino.model import (INO_NS, METADATA_FOR, Datastream, DigitalObject, Term,
                       Triple, VirtualClock, canonical_xml, deserialize_object,
                       make_draft, serialize_object)
from ino.store import CREATED, MODIFIED, PURGED, BatchOp, ObjectStore
from util import SteppedClock, random_object


def draft(local, types=("Resource",), **kw):
    return make_draft(f"info:ino/{local}", types, **kw)


def test_create_minimal(store):
    obj = store.create(draft("r1"))
    assert obj.created == obj.modified
    assert obj.seq == 1
    assert store.get("info:ino/r1") == obj


def test_create_duplicate(store):
    store.create(draft("r1"))
    with pytest.raises(DuplicateId):
        store.create(draft("r1"))


def test_create_duplicate_ds_id(store):
    bad = draft("r1", datastreams=[
        Datastream("content", "text/plain", content=b"a"),
        Datastream("content", "text/plain", content=b"b"),
    ])
    with pytest.raises(InvalidObject):
        store.create(bad)
    assert store.count() == 0


def test_get_read_your_write_bytes(store, tmp_path):
    """The log holds the version's record; export writes its canonical XML."""
    store.create(draft("r1"))
    obj = store.get("info:ino/r1")
    assert serialize_object(obj) in (tmp_path / "data" / "journal.log").read_bytes()
    assert store.export(tmp_path / "out") == 1
    assert (tmp_path / "out" / "objects/21/d0/r1.xml").read_bytes() == canonical_xml(obj)


def test_get_unknown_and_purged(store):
    with pytest.raises(NotFound):
        store.get("info:ino/nope")
    store.create(draft("r1"))
    store.purge("info:ino/r1")
    with pytest.raises(NotFound):
        store.get("info:ino/r1")


def test_modify_adds_relationship(store):
    obj = store.create(draft("r1"))
    t = Triple("info:ino/r1", "info:ino/def#memberOf", Term.iri("info:ino/a"))
    new = store.modify("info:ino/r1", relationships=[t])
    assert len(new.relationships) == 1
    assert new.modified > obj.modified
    assert new.seq == obj.seq + 1


def test_empty_mutation_is_a_touch(store):
    obj = store.create(draft("r1"))
    new = store.modify("info:ino/r1")
    assert new.types == obj.types
    assert new.datastreams == obj.datastreams
    assert new.modified > obj.modified and new.seq == obj.seq + 1


def test_modify_wrong_subject(store):
    store.create(draft("r1"))
    bad = Triple("info:ino/other", "p", Term.iri("x"))
    with pytest.raises(InvalidObject):
        store.modify("info:ino/r1", relationships=[bad])


def test_purge_semantics(store):
    store.create(draft("r1"))
    store.purge("info:ino/r1")
    with pytest.raises(NotFound):
        store.purge("info:ino/r1")
    with pytest.raises(DuplicateId):
        store.create(draft("r1"))


def test_tombstone_is_the_last_version(tmp_path):
    """A purge keeps all but the inline bytes, in state Deleted at the purge
    time, and a reopened store reads the same tombstone."""
    store = ObjectStore(tmp_path / "d", clock=VirtualClock())
    oid = "info:ino/m1"
    obj = store.create(draft("m1", ("Metadata",), datastreams=[
        Datastream("format_x", "text/xml", content=b"<x/>"),
        Datastream("link", "text/html", surrogate="http://example.org/")],
        relationships=[Triple(oid, "info:ino/def#memberOf",
                              Term.iri("info:ino/a"))]))
    store.purge(oid)
    tombstone = store.latest(oid)
    assert not store.exists(oid)
    assert tombstone.state == "Deleted"
    assert tombstone.modified == store.changes_since(0)[-1].timestamp
    assert (tombstone.types, tombstone.created, tombstone.relationships) == (
        obj.types, obj.created, obj.relationships)
    assert tombstone.datastreams == (
        Datastream("format_x", "text/xml", content=b""), obj.datastreams[1])
    store.close()
    reopened = ObjectStore(tmp_path / "d", clock=VirtualClock())
    try:
        assert reopened.latest(oid) == tombstone
        assert list(reopened.tombstones()) == [tombstone]
        assert reopened.latest("info:ino/never") is None
    finally:
        reopened.close()


def test_changes_since(store):
    for n in ("a", "b", "c"):
        store.create(draft(n))
    events = store.changes_since(0)
    assert [e.seq for e in events] == [1, 2, 3]
    assert all(e.kind == CREATED for e in events)
    assert store.changes_since(3) == []
    with pytest.raises(SeqOutOfRange):
        store.changes_since(4)


def test_change_lifecycle_kinds(store):
    store.create(draft("x"))
    store.modify("info:ino/x")
    store.purge("info:ino/x")
    kinds = [e.kind for e in store.changes_since(0) if e.object_id == "info:ino/x"]
    assert kinds == [CREATED, MODIFIED, PURGED]


def test_store_keeps_one_commit_listener(store):
    seen = []
    store.on_commit(seen.append)
    with pytest.raises(RuntimeError):
        store.on_commit(lambda applied: None)
    created = store.create(draft("x"))
    store.purge("info:ino/x")
    tombstone = store.latest("info:ino/x")
    assert seen == [[created], [tombstone]]
    assert (created.state, tombstone.state) == ("Active", "Deleted")
    # a batch that touches an id twice hands over its last version only
    seen.clear()
    store.commit_batch([BatchOp("create", "info:ino/y", draft=draft("y")),
                        BatchOp("modify", "info:ino/y")])
    assert seen == [[store.get("info:ino/y")]] and seen[0][0].seq == 4


def test_event_log_soundness_random_ops(tmp_path):
    rng = random.Random(7)
    store = ObjectStore(tmp_path / "d", clock=VirtualClock())
    live, dead = set(), set()
    for i in range(300):
        roll = rng.random()
        if roll < 0.5 or not live:
            obj = random_object(rng, object_id=f"info:ino/o{i}")
            store.create(obj)
            live.add(obj.id)
        elif roll < 0.8:
            store.modify(rng.choice(sorted(live)))
        else:
            victim = rng.choice(sorted(live))
            store.purge(victim)
            live.remove(victim)
            dead.add(victim)
    # an id created and purged in one commit is a tombstone at once
    store.commit_batch([BatchOp("create", "info:ino/brief", draft=draft("brief")),
                        BatchOp("purge", "info:ino/brief")])
    dead.add("info:ino/brief")
    created = {e.object_id for e in store.changes_since(0) if e.kind == CREATED}
    purged = {e.object_id for e in store.changes_since(0) if e.kind == PURGED}
    assert created - purged == set(store.ids()) == live and purged == dead
    for reopen in (False, True):
        if reopen:
            store.close()
            store = ObjectStore(tmp_path / "d", clock=VirtualClock())
        assert store.count() == len(live) and store.ids() == sorted(live)
        assert {t.id for t in store.tombstones()} == dead
        assert all(store.latest(oid).state == "Deleted" for oid in dead)
        assert all(store.latest(oid) == store.get(oid) for oid in live)
        assert store.latest("info:ino/never") is None
    store.close()


def test_reopen_restores_state(tmp_path):
    clock = VirtualClock()
    store = ObjectStore(tmp_path / "d", clock=clock)
    store.create(draft("r1"))
    store.create(draft("r2"))
    store.purge("info:ino/r2")
    objs = {o.id: o for o in store.objects()}
    store.close()

    store2 = ObjectStore(tmp_path / "d", clock=clock)
    assert {o.id: o for o in store2.objects()} == objs
    assert store2.current_seq == 3
    assert store2.get("info:ino/r1").seq == 1
    with pytest.raises(DuplicateId):
        store2.create(draft("r2"))
    store2.create(draft("r3"))
    assert store2.current_seq == 4
    store2.close()


def test_second_open_is_locked(tmp_path):
    store = ObjectStore(tmp_path / "d")
    with pytest.raises(StoreLocked):
        ObjectStore(tmp_path / "d")
    store.close()


def test_failed_open_releases_the_lock(tmp_path):
    store = ObjectStore(tmp_path / "d")
    store.create(draft("r1"))
    store.close()
    # a whole frame whose event skips seq 2
    with open(tmp_path / "d" / "journal.log", "ab") as log:
        log.write(store_module._frame(
            [[3, "Created", "info:ino/r3", "2006-01-01T00:00:00Z"]], []))
    for _ in range(2):  # not StoreLocked the second time
        with pytest.raises(InvalidObject, match="journal corrupt"):
            ObjectStore(tmp_path / "d")


@pytest.mark.parametrize("old", ["objects", "events.log"])
def test_old_layout_is_refused(tmp_path, old):
    """A directory in the one-file-per-object layout is not read, and not
    written to: the refusal leaves it as it was and releases the lock."""
    (tmp_path / "d").mkdir()
    if old == "objects":
        (tmp_path / "d" / old).mkdir()
    else:
        (tmp_path / "d" / old).write_text("")
    for _ in range(2):  # not StoreLocked the second time
        with pytest.raises(OldStoreLayout, match=old):
            ObjectStore(tmp_path / "d")
    assert not (tmp_path / "d" / "journal.log").exists()


def test_a_log_of_xml_versions_is_refused(tmp_path):
    """A log whose versions are XML documents, as older versions wrote them,
    is not read and not written to, a torn tail included: the refusal leaves
    it byte for byte and releases the lock."""
    root = tmp_path / "d"
    root.mkdir()
    obj = DigitalObject(id="info:ino/r1", types=("Resource",),
                        created=datetime(2006, 1, 1, tzinfo=timezone.utc),
                        modified=datetime(2006, 1, 1, tzinfo=timezone.utc))
    frame = store_module._frame([[1, "Created", obj.id, "2006-01-01T00:00:00Z"]],
                                [(obj.id, canonical_xml(obj))])
    log = frame + frame[:40]
    (root / "journal.log").write_bytes(log)
    for _ in range(2):  # not StoreLocked the second time
        with pytest.raises(OldStoreLayout, match="as an XML document"):
            ObjectStore(root)
        assert (root / "journal.log").read_bytes() == log


FIXTURE = Path(__file__).parent / "data" / "journal.log"


def fixture_versions():
    """Every version in the fixture log, in order: r1 created with a
    surrogate and inline bytes, m1 created, r1 modified with a non-ASCII
    literal, and m1 purged to a tombstone."""
    t = [datetime(2006, 1, 1, 0, 0, n, tzinfo=timezone.utc) for n in range(4)]
    r1, m1 = "info:ino/r1", "info:ino/m1"
    streams = (Datastream("content", "text/html", surrogate="http://example.org/page"),
               Datastream("note", "text/plain", content=b"hi\x00\xff"))
    link = (Triple(m1, METADATA_FOR, Term.iri(r1)),)
    title = (Triple(r1, INO_NS + "title", Term.literal('caf\u00e9 \u2615 \u65e5\u672c "q"')),)
    return [
        DigitalObject(id=r1, types=("Resource",), created=t[0], modified=t[0],
                      datastreams=streams, seq=1),
        DigitalObject(id=m1, types=("Metadata",), created=t[1], modified=t[1],
                      datastreams=(Datastream("format_x", "text/xml",
                                              content="<x>caf\u00e9</x>".encode()),),
                      relationships=link, seq=2),
        DigitalObject(id=r1, types=("Resource",), created=t[0], modified=t[2],
                      datastreams=streams, relationships=title, seq=3),
        DigitalObject(id=m1, types=("Metadata",), created=t[1], modified=t[3],
                      state="Deleted", relationships=link, seq=4,
                      datastreams=(Datastream("format_x", "text/xml", content=b""),)),
    ]


def test_fixture_log_reads_and_reencodes_byte_for_byte(tmp_path):
    """A log checked in as the codec wrote it reads into the expected
    objects, and each version re-encodes to its stored bytes."""
    data = FIXTURE.read_bytes()
    expected = fixture_versions()
    stored, pos = [], 0
    while (frame := store_module._FRAME_HEAD.match(data, pos)) is not None:
        at = data.index(b"\n", frame.end()) + 1
        for _oid, size in json.loads(data[frame.end():at])["versions"]:
            stored.append(data[at:at + size])
            at += size
        pos = frame.end() + int(frame[1]) + 1
    assert pos == len(data) and len(stored) == len(expected)
    for blob, obj in zip(stored, expected):
        assert deserialize_object(blob, seq=obj.seq) == obj
        assert serialize_object(obj) == blob

    shutil.copy(FIXTURE, tmp_path / "journal.log")
    store = ObjectStore(tmp_path, durable=False)
    try:
        last = [store.latest(obj.id) for obj in expected[2:]]
        assert last == expected[2:] and [obj.seq for obj in last] == [3, 4]
        assert [(e.seq, e.kind, e.object_id) for e in store.changes_since(0)] == [
            (1, CREATED, "info:ino/r1"), (2, CREATED, "info:ino/m1"),
            (3, MODIFIED, "info:ino/r1"), (4, PURGED, "info:ino/m1")]
    finally:
        store.close()
    assert (tmp_path / "journal.log").read_bytes() == data


GOOD_RECORD = (b'["info:ino/r1","Active","2006-01-01T00:00:00Z","2006-01-01T00:00:00Z",'
               b'["Resource"],[["content","text/html","http://example.org/page",null],'
               b'["note","text/plain",null,"aGk="]],'
               b'[["info:ino/def#memberOf","iri","info:ino/agg1"]]]')


@pytest.mark.parametrize("old, new, message", [
    (b'"Active",', b"", "not a record"),
    (GOOD_RECORD, b'{"id":"info:ino/r1"}', "not a record"),
    (b'"2006-01-01T00:00:00Z",[', b'"2006-13-01T00:00:00Z",[',
     "bad timestamp '2006-13-01T00:00:00Z'"),
    (b'null,"aGk="', b'"http://example.org/","aGk="',
     "datastreams: note must be exactly one of inline/surrogate"),
    (b'"aGk="]', b'"aGk=",null]', "not a datastream"),
    (b'["Resource"]', b'["Resource",7]', "not a list of types"),
    (b'"aGk="', b"7", "not a datastream"),
    (b'"aGk="', b'"a!k="', "Only base64 data is allowed"),
    (b'"iri"', b'"uri"', "bad triple kind 'uri'"),
    (b'"info:ino/agg1"]', b'"info:ino/agg1"],["info:ino/def#memberOf","uri","x"]',
     "bad triple kind 'uri'"),
    (b"]]]", b"]]", "Expecting ',' delimiter"),
    (GOOD_RECORD, b"[" * 100_000, "maximum recursion depth exceeded"),
], ids=["wrong-arity", "not-an-array", "bad-timestamp", "two-contents",
        "extra-field", "non-string-type", "inline-not-a-string", "bad-base64",
        "kind-uri", "second-kind-uri", "malformed-json", "nested-too-deep"])
def test_a_bad_record_is_refused_naming_its_seq(tmp_path, old, new, message):
    """A version whose frame checksum holds but whose record is not one the
    codec writes is refused at open, naming its seq; the log is left as it
    is and the lock released."""
    bad = GOOD_RECORD.replace(old, new, 1)
    assert bad != GOOD_RECORD
    stamp = "2006-01-01T00:00:00Z"
    log = (store_module._frame([[1, CREATED, "info:ino/r1", stamp]],
                               [("info:ino/r1", GOOD_RECORD)])
           + store_module._frame([[2, MODIFIED, "info:ino/r1", stamp]],
                                 [("info:ino/r1", bad)]))
    root = tmp_path / "d"
    root.mkdir()
    (root / "journal.log").write_bytes(log)
    for _ in range(2):  # not StoreLocked the second time
        with pytest.raises(InvalidObject, match="^seq 2: bad record: ") as exc:
            ObjectStore(root)
        assert message in str(exc.value)
        assert (root / "journal.log").read_bytes() == log


def test_a_literal_xml_forbids_is_refused_and_the_store_reopens(tmp_path):
    """A literal holding U+0001 is refused at commit, so no acknowledged
    write leaves a version that export could not write as XML."""
    store = ObjectStore(tmp_path / "d", clock=VirtualClock())
    bad = draft("r1", relationships=[
        Triple("info:ino/r1", INO_NS + "title", Term.literal("a\u0001b"))])
    with pytest.raises(InvalidObject, match="^relationships: a character XML 1.0 forbids"):
        store.create(bad)
    store.create(draft("r2"))
    store.close()
    reopened = ObjectStore(tmp_path / "d", clock=VirtualClock())
    try:
        assert reopened.ids() == ["info:ino/r2"]
        assert reopened.export(tmp_path / "out") == 1
    finally:
        reopened.close()


class Boom(Exception):
    pass


CRASH_POINTS = ["journal-written", "journal-synced", "committed"]


@pytest.mark.parametrize("crash_at", CRASH_POINTS)
def test_crash_atomicity_single(tmp_path, crash_at):
    _run_crash_scenario(tmp_path, crash_at, batch=False)


@pytest.mark.parametrize("crash_at", CRASH_POINTS)
def test_crash_atomicity_batch(tmp_path, crash_at):
    _run_crash_scenario(tmp_path, crash_at, batch=True)


def _run_crash_scenario(tmp_path, crash_at, batch):
    from ino.store import BatchOp

    clock = VirtualClock()
    store = ObjectStore(tmp_path / "d", clock=clock)
    store.create(draft("base"))
    pre_ids = set(store.ids())

    def crash(name):
        if name == crash_at:
            raise Boom(name)

    store._crash_point = crash
    ops = [BatchOp("create", "info:ino/n1", draft=draft("n1")),
           BatchOp("modify", "info:ino/base")]
    if not batch:
        ops = ops[:1]
    with pytest.raises(Boom):
        store.commit_batch(ops)
    store.abandon()

    recovered = ObjectStore(tmp_path / "d", clock=clock)
    # every version in the log parses (open would fail otherwise); events gap-free
    events = recovered.changes_since(0)
    assert [e.seq for e in events] == list(range(1, len(events) + 1))
    ids = set(recovered.ids())
    post_ids = pre_ids | {"info:ino/n1"}
    assert ids in (pre_ids, post_ids)
    if ids == post_ids and batch:
        # replay is all-or-nothing: the modify landed too
        assert recovered.get("info:ino/base").seq > 1
    # store remains writable after recovery
    recovered.create(draft("after"))
    recovered.close()


def test_failed_commit_stops_writes_until_reopen(tmp_path):
    clock = VirtualClock()
    store = ObjectStore(tmp_path / "d", clock=clock)

    def fail(name):
        if name == "journal-written":
            raise OSError("simulated fsync failure")

    store._crash_point = fail
    with pytest.raises(OSError):
        store.create(draft("r1"))
    store._crash_point = lambda name: None
    with pytest.raises(StoreFailed):
        store.create(draft("r2"))
    store.close()

    reopened = ObjectStore(tmp_path / "d", clock=clock)
    assert reopened.ids() == ["info:ino/r1"]
    assert reopened.get("info:ino/r1").seq == 1
    assert [(e.seq, e.kind, e.object_id) for e in reopened.changes_since(0)] == [
        (1, CREATED, "info:ino/r1")]
    reopened.create(draft("r2"))
    reopened.close()


def _state(store):
    """Objects, their seqs, tombstones and events: what a reopen must keep."""
    return ({o.id: (o, o.seq) for o in store.objects()},
            {t.id: (t, t.seq) for t in store.tombstones()},
            store.changes_since(0))


def test_torn_tail_sweep(tmp_path):
    """Cut the log at every byte of its last frame, or extend it with zeros
    that never held data, as a lost unsynced write can leave it. A reopen
    gives the state before that commit, cuts the tail, and takes new commits
    that survive the next reopen."""
    clock = VirtualClock()
    root = tmp_path / "d"
    store = ObjectStore(root, clock=clock)
    store.create(draft("r1"))
    store.create(draft("r2"))
    store.modify("info:ino/r1")
    store.purge("info:ino/r2")
    before = _state(store)
    prefix = (root / "journal.log").read_bytes()
    store.create(draft("r3", datastreams=[
        Datastream("content", "text/plain", content=b"x" * 40)]))
    after = _state(store)
    store.abandon()
    full = (root / "journal.log").read_bytes()
    frame = len(full) - len(prefix)
    assert 200 < frame < 1000
    zeros = b"\0" * frame
    cases = [(full[:cut], before) for cut in range(len(prefix), len(full))]
    cases += [(prefix + zeros, before),
              (full[:len(prefix) + frame // 2] + zeros, before),
              (full + zeros, after)]
    for data, expected in cases:
        (root / "journal.log").write_bytes(data)
        reopened = ObjectStore(root, clock=clock)
        assert _state(reopened) == expected
        added = reopened.create(draft("later"))
        reopened.close()
        again = ObjectStore(root, clock=clock)
        try:
            assert again.get("info:ino/later") == added
            assert again.get("info:ino/later").seq == len(expected[2]) + 1
            objects, tombstones, events = _state(again)
            assert (objects.keys() - {"info:ino/later"}, tombstones,
                    events[:-1]) == (expected[0].keys(), expected[1], expected[2])
        finally:
            again.close()


@pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
@pytest.mark.parametrize("length", ["9" * 5000, "9" * 20, "1" + "0" * 19],
                         ids=["5000-digits", "20-nines", "10**19"])
def test_frame_header_with_an_overlong_length_is_a_torn_tail(
        tmp_path, durable, length):
    """A frame length of more digits than any log holds is a torn tail,
    also past int()'s 4300 digits: the reopen cuts it."""
    root = tmp_path / "d"
    store = ObjectStore(root, clock=VirtualClock(), durable=durable)
    store.create(draft("r1"))
    before = _state(store)
    store.close()
    log = (root / "journal.log").read_bytes()
    (root / "journal.log").write_bytes(
        log + f"J {length} {'0' * 64}\n".encode() + b"x" * 100)
    reopened = ObjectStore(root, clock=VirtualClock(), durable=durable)
    try:
        assert _state(reopened) == before
        assert (root / "journal.log").read_bytes() == log
    finally:
        reopened.close()


def test_durable_store_refuses_a_log_with_a_bad_frame_before_whole_ones(tmp_path):
    """A flipped bit in the first of three durable commits is corruption, not
    a torn tail, since the two frames after it are whole: open refuses the
    log, leaves it as it is, and releases the lock."""
    root = tmp_path / "d"
    store = ObjectStore(root, clock=VirtualClock(), durable=True)
    for name in ("r1", "r2", "r3"):
        store.create(draft(name))
    store.close()
    log = bytearray((root / "journal.log").read_bytes())
    log[60] ^= 1
    (root / "journal.log").write_bytes(log)
    for _ in range(2):
        with pytest.raises(InvalidObject,
                           match="journal corrupt: a whole frame follows byte 0"):
            ObjectStore(root, clock=VirtualClock(), durable=True)
        assert (root / "journal.log").read_bytes() == log


def test_compaction_refuses_a_log_with_a_bad_frame(tmp_path, monkeypatch):
    """A frame spoiled on disk after its commit is not compacted away: the
    compaction that close runs stops the store and leaves the log as it is,
    so the next open refuses it as corrupt."""
    root = tmp_path / "d"
    store = ObjectStore(root, clock=VirtualClock(), durable=True)
    names = ("r1", "r2", "r3")
    for name in names:
        store.create(draft(name))
    for name in names * 2:
        store.modify(f"info:ino/{name}")
    log = bytearray((root / "journal.log").read_bytes())
    log[log.index(b'["info:ino/r1","Active"') + 5] ^= 1  # inside the first version
    (root / "journal.log").write_bytes(log)
    monkeypatch.setattr(store_module, "COMPACT_BYTES", 0)
    with pytest.raises(StoreFailed, match="journal corrupt: a bad frame at byte 0"):
        store.close()
    assert (root / "journal.log").read_bytes() == log
    with pytest.raises(StoreFailed):
        store.create(draft("r4"))
    with pytest.raises(InvalidObject,
                       match="journal corrupt: a whole frame follows byte 0"):
        ObjectStore(root, clock=VirtualClock(), durable=True)


def test_a_failed_compaction_does_not_fail_the_commit_before_it(
        tmp_path, monkeypatch, caplog):
    """A commit that makes compaction due stands when the compaction fails:
    its caller gets the new version, the failure is logged and stops the
    store, and the log is left for the next open to refuse."""
    root = tmp_path / "d"
    store = ObjectStore(root, clock=VirtualClock(), durable=True)
    for name in ("r1", "r2"):
        store.create(draft(name))
    store.modify("info:ino/r1")
    store.modify("info:ino/r1")
    log = bytearray((root / "journal.log").read_bytes())
    log[log.index(b'["info:ino/r1","Active"') + 5] ^= 1  # inside the first version
    (root / "journal.log").write_bytes(log)
    monkeypatch.setattr(store_module, "COMPACT_BYTES", 0)
    modified = store.modify("info:ino/r2")  # five versions over two ids: due
    assert modified.seq == 5 == store.current_seq
    assert store.get("info:ino/r2") == modified
    assert "compaction failed" in caplog.text
    assert "journal corrupt: a bad frame at byte 0" in caplog.text
    assert (root / "journal.log").read_bytes().startswith(log)
    with pytest.raises(StoreFailed, match="a bad frame at byte 0"):
        store.create(draft("r3"))
    store.abandon()
    with pytest.raises(InvalidObject,
                       match="journal corrupt: a whole frame follows byte 0"):
        ObjectStore(root, clock=VirtualClock(), durable=True)


def test_durable_commit_does_one_fsync(store, monkeypatch):
    calls = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    store.commit_batch([BatchOp("create", "info:ino/a", draft=draft("a")),
                        BatchOp("create", "info:ino/b", draft=draft("b"))])
    assert len(calls) == 1


def test_durable_run_makes_one_fsync_per_commit(tmp_path, monkeypatch):
    calls = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    store = ObjectStore(tmp_path / "d", clock=VirtualClock(), durable=True)
    for i in range(200):
        if i % 4 == 3:
            store.modify(f"info:ino/o{i - 3}")
        elif i % 8 == 6:
            store.purge(f"info:ino/o{i - 5}")
        else:
            store.create(draft(f"o{i}"))
    store.close()
    assert store.current_seq == 200
    assert len(calls) <= 1.05 * 200


def test_close_compacts_only_a_log_with_dead_versions(tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "COMPACT_BYTES", 0)
    clock = VirtualClock()
    log = tmp_path / "d" / "journal.log"
    store = ObjectStore(tmp_path / "d", clock=clock)
    store.create(draft("r1"))
    store.create(draft("r2"))
    written = log.read_bytes()
    store.close()
    assert log.read_bytes() == written  # no dead version: not rewritten

    store = ObjectStore(tmp_path / "d", clock=clock)
    store.modify("info:ino/r1")
    store.modify("info:ino/r2")
    written = log.read_bytes()
    store.close()
    assert log.read_bytes() == written  # two dead versions over two ids

    monkeypatch.setattr(store_module, "COMPACT_BYTES", 1 << 30)
    store = ObjectStore(tmp_path / "d", clock=clock)
    store.purge("info:ino/r2")  # three dead versions, but a short log
    state = _state(store)
    size = log.stat().st_size
    assert store._versions == 5
    monkeypatch.setattr(store_module, "COMPACT_BYTES", 0)
    store.close()
    assert log.stat().st_size < size
    reopened = ObjectStore(tmp_path / "d", clock=clock)
    assert _state(reopened) == state and reopened._versions == 2
    reopened.close()


def _dead_versions(path):
    """(dead versions, ids) in a log file, counted from its frames."""
    data = path.read_bytes()
    _rows, spans, versions, end = store_module._read_log(data)
    assert end == len(data)
    return versions - len(spans), len(spans)


def test_compaction_bounds_the_log_and_abandon_recovers(tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "COMPACT_BYTES", 2000)
    clock = VirtualClock()
    store = ObjectStore(tmp_path / "d", clock=clock)
    log = tmp_path / "d" / "journal.log"
    sizes = []
    for i in range(50):
        store.create(draft(f"o{i}"))
        for _ in range(i % 4):
            store.modify(f"info:ino/o{2 * (i // 4)}")
        if i % 10 == 9:
            store.purge(f"info:ino/o{i - 2}")
        sizes.append(log.stat().st_size)
        dead, ids = _dead_versions(log)
        assert sizes[-1] <= 2000 or dead <= ids
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # it was rewritten
    state = _state(store)
    objects = {o.id: o for o in store.objects()}
    events = store.changes_since(0)
    store.abandon()

    reopened = ObjectStore(tmp_path / "d", clock=clock)
    assert _state(reopened) == state
    assert {o.id: o for o in reopened.objects()} == objects
    assert reopened.changes_since(0) == events
    with pytest.raises(DuplicateId):
        reopened.create(draft("o7"))
    reopened.close()


def test_close_after_abandon_leaves_a_newer_store_alone(tmp_path):
    """Each descriptor is closed once, so closing an abandoned store cannot
    close the numbers that a store opened since has been given."""
    clock = VirtualClock()
    a = ObjectStore(tmp_path / "a", clock=clock)
    a_fds = {a._lock_fd, a._log_fd}
    a.abandon()
    b = ObjectStore(tmp_path / "b", clock=clock)
    try:
        assert {b._lock_fd, b._log_fd} == a_fds  # reused
        a.close()
        b.create(draft("r1"))
    finally:
        b.close()
    reopened = ObjectStore(tmp_path / "b", clock=clock)
    assert reopened.exists("info:ino/r1")
    reopened.close()


@pytest.mark.parametrize("crash_at", ["compact-written", "compact-renamed"])
def test_compaction_crash_keeps_the_state(tmp_path, monkeypatch, crash_at):
    """A crash before or after the compacted log's rename loses nothing: a
    reopen gives the same objects, tombstones and events, and removes a
    compacted file that was never renamed."""
    monkeypatch.setattr(store_module, "COMPACT_BYTES", 0)
    clock = VirtualClock()
    root = tmp_path / "d"
    store = ObjectStore(root, clock=clock)
    store.create(draft("r1"))
    store.create(draft("r2"))
    store.purge("info:ino/r2")
    store.modify("info:ino/r1")

    def crash(name):
        if name == crash_at:
            raise Boom(name)

    store._crash_point = crash
    with pytest.raises(Boom):
        store.modify("info:ino/r1")  # three dead versions over two ids: due
    state = _state(store)
    assert state[2][-1].seq == 5
    with pytest.raises(StoreFailed):
        store.create(draft("r3"))
    store.abandon()
    assert (root / "journal.tmp").exists() == (crash_at == "compact-written")

    reopened = ObjectStore(root, clock=clock)
    assert not (root / "journal.tmp").exists()
    assert _state(reopened) == state
    assert reopened._versions == (5 if crash_at == "compact-written" else 2)
    reopened.create(draft("r3"))
    reopened.close()
    again = ObjectStore(root, clock=clock)
    assert again.exists("info:ino/r3") and again.current_seq == 6
    again.close()


def test_lookup_latency_size_independent(tmp_path):
    def build(n):
        s = ObjectStore(tmp_path / f"d{n}", clock=VirtualClock(), durable=False)
        for i in range(n):
            s.create(draft(f"o{i}"))
        return s

    def median_lookup(s, n):
        times = []
        for _ in range(200):
            t0 = time.perf_counter()
            s.get(f"info:ino/o{n // 2}")
            times.append(time.perf_counter() - t0)
        times.sort()
        return times[len(times) // 2]

    small = build(200)
    big = build(5000)
    t_small = median_lookup(small, 200)
    t_big = median_lookup(big, 5000)
    small.close()
    big.close()
    assert t_big < max(3 * t_small, 50e-6)


def test_commit_time_never_goes_back_across_a_reopen(tmp_path):
    """A store reopened on a clock behind its log's last stamp dates its next
    commit at that stamp, not before it."""
    noon = datetime(2026, 1, 1, 12, tzinfo=timezone.utc)
    store = ObjectStore(tmp_path / "d", clock=SteppedClock(noon))
    store.create(draft("r1"))
    store.close()
    clock = SteppedClock(noon - timedelta(minutes=5))
    store = ObjectStore(tmp_path / "d", clock=clock)
    try:
        assert store.create(draft("r2")).modified == noon
        clock.at = noon + timedelta(seconds=1)
        assert store.create(draft("r3")).modified == clock.at
        stamps = [e.timestamp for e in store.changes_since(0)]
        assert stamps == [noon, noon, clock.at]
    finally:
        store.close()
