import os
import random
import time

import pytest

from ino.errors import (
    DuplicateId,
    InvalidObject,
    NotFound,
    SeqOutOfRange,
    StoreFailed,
    StoreLocked,
)
from ino import store as store_module
from ino.model import (Datastream, Term, Triple, VirtualClock, make_draft,
                       serialize_object, shard_path)
from ino.store import CREATED, MODIFIED, PURGED, BatchOp, ObjectStore
from util import random_object


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
    obj = store.create(draft("r1"))
    on_disk = (tmp_path / "data" / "objects/21/d0/r1.xml").read_bytes()
    assert serialize_object(store.get("info:ino/r1")) == on_disk


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


def test_event_log_soundness_random_ops(tmp_path):
    rng = random.Random(7)
    store = ObjectStore(tmp_path / "d", clock=VirtualClock())
    live = set()
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
    created = {e.object_id for e in store.changes_since(0) if e.kind == CREATED}
    purged = {e.object_id for e in store.changes_since(0) if e.kind == PURGED}
    assert created - purged == set(store.ids()) == live
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
    (tmp_path / "d" / "events.log").write_text(
        '{"seq":2,"kind":"Created","objectId":"info:ino/r1",'
        '"timestamp":"2006-01-01T00:00:00Z"}\n')
    for _ in range(2):  # not StoreLocked the second time
        with pytest.raises(InvalidObject, match="event log corrupt"):
            ObjectStore(tmp_path / "d")


class Boom(Exception):
    pass


CRASH_POINTS = [
    "journal-written", "journal-synced", "first-file-written",
    "files-written", "events-written", "committed",
]


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
    # every object file parses (open would fail otherwise); events gap-free
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
        if name == "files-written":
            raise OSError("simulated write failure")

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


def test_torn_object_file_is_redone_at_open(tmp_path):
    clock = VirtualClock()
    store = ObjectStore(tmp_path / "d", clock=clock, durable=True)
    store.create(draft("r1"))
    store.create(draft("r2"))
    store.abandon()
    # a power loss may tear a file whose writes were never fsynced
    path = tmp_path / "d" / shard_path("info:ino/r2")
    path.write_bytes(path.read_bytes()[:20])

    reopened = ObjectStore(tmp_path / "d", clock=clock)
    assert reopened.ids() == ["info:ino/r1", "info:ino/r2"]
    assert reopened.get("info:ino/r2").seq == 2
    reopened.close()


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


def test_close_empties_the_journal(tmp_path):
    store = ObjectStore(tmp_path / "d", clock=VirtualClock())
    store.create(draft("r1"))
    journal = tmp_path / "d" / "journal.log"
    assert journal.stat().st_size > 0
    store.close()
    assert journal.stat().st_size == 0


def test_checkpoint_bounds_the_journal_and_abandon_recovers(tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "CHECKPOINT_BYTES", 2000)
    clock = VirtualClock()
    store = ObjectStore(tmp_path / "d", clock=clock)
    journal = tmp_path / "d" / "journal.log"
    sizes = []
    for i in range(50):
        store.create(draft(f"o{i}"))
        if i % 3 == 2:
            store.modify(f"info:ino/o{i - 1}")
        if i % 10 == 9:
            store.purge(f"info:ino/o{i - 2}")
        sizes.append(journal.stat().st_size)
    assert 0 < max(sizes) <= 2000 and 0 in sizes
    objects = {o.id: o for o in store.objects()}
    events = store.changes_since(0)
    store.abandon()

    reopened = ObjectStore(tmp_path / "d", clock=clock)
    assert {o.id: o for o in reopened.objects()} == objects
    assert reopened.changes_since(0) == events
    with pytest.raises(DuplicateId):
        reopened.create(draft("o7"))
    reopened.close()


def test_journal_with_commit_markers_of_the_older_format(tmp_path):
    clock = VirtualClock()
    store = ObjectStore(tmp_path / "d", clock=clock)
    store.create(draft("r1"))
    rel = Triple("info:ino/r1", "info:ino/def#memberOf", Term.iri("info:ino/a"))
    final = store.modify("info:ino/r1", relationships=[rel])
    store.abandon()
    # each frame is a header line and a payload line; add a marker after each
    journal = tmp_path / "d" / "journal.log"
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(b"".join(
        line + (b"C %d\n" % (i // 2 + 1) if i % 2 else b"")
        for i, line in enumerate(lines)))

    reopened = ObjectStore(tmp_path / "d", clock=clock)
    assert reopened.get("info:ino/r1") == final
    assert reopened.current_seq == 2
    reopened.close()


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
