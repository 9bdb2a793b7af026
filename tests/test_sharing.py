"""One copy of each repeated value: objects, events, the index and the OAI
cache share equal ids, Terms and stamps, after an API load and after a
reopen, and the sharing changes no stored byte."""

import gc
import tracemalloc

from ino.api import Repository
from ino.corpus import CorpusProfile, generate_corpus
from ino.model import (MEMBER_OF, METADATA_FOR, OBJECT_TYPE, Term, VirtualClock,
                       serialize_object, type_iri)
from ino.oai import OaiProvider
from ino.store import ObjectStore, _read_log

# Bytes that a store or repository reopened over a 500-resource corpus holds,
# by tracemalloc, on Python 3.10, 3.11 and 3.13: 802-821 per object with its
# events left out, 72 per event, and 350-355 per triple for a repository with
# its OAI cache. Where every object held its own copy of each value, they
# were 1,546-1,738, 270-327 and 485-526.
OBJECT_BYTES = 1000
EVENT_BYTES = 120
REPOSITORY_BYTES_PER_TRIPLE = 400


def load(root, resources):
    repo = Repository(root, clock=VirtualClock(), durable=False)
    generate_corpus(repo, CorpusProfile(resources=resources, seed=1))
    return repo


def test_reopened_store_and_repository_memory(tmp_path):
    load(tmp_path, 500).close()
    gc.collect()
    tracemalloc.start()
    try:
        store = ObjectStore(tmp_path, durable=False)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        events = store.current_seq
        store._events.clear()  # the events' share is what this frees
        event_bytes = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    objects = store.count() + len(list(store.tombstones()))
    store.abandon()
    assert objects > 800 and events >= objects
    assert (held - event_bytes) / objects <= OBJECT_BYTES
    assert event_bytes / events <= EVENT_BYTES

    tracemalloc.start()
    try:
        repo = Repository(tmp_path, durable=False)
        provider = OaiProvider(repo)
        provider.rebuild_cache()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    try:
        assert len(provider.records) == 750
        assert held / repo.index.size() <= REPOSITORY_BYTES_PER_TRIPLE
    finally:
        repo.close()


def targets(obj, predicate):
    return [t.object for t in obj.relationships if t.predicate == predicate]


def check_shared(repo):
    """Objects, events and the index hold one copy of each target and id."""
    agg = min(repo.subjects(OBJECT_TYPE, Term.iri(type_iri("Aggregation"))))
    members = sorted(repo.members_of(agg))
    assert len(members) >= 2
    own = repo.index.term(Term.iri(agg))
    for oid in members:
        (term,) = [t for t in targets(repo.get_object(oid), MEMBER_OF)
                   if t.value == agg]
        assert term is own
    for obj in repo.store.objects():
        for term in targets(obj, METADATA_FOR):
            assert term is repo.index.term(Term.iri(term.value))
    latest = {event.object_id: event for event in repo.changes_since(0)}
    for obj in repo.store.objects():
        assert latest[obj.id].object_id is obj.id
        assert latest[obj.id].timestamp is obj.modified


def test_equal_values_are_one_object_and_bytes_are_unchanged(tmp_path):
    repo = load(tmp_path, 40)
    try:
        check_shared(repo)
    finally:
        repo.close()

    repo = Repository(tmp_path, durable=False)
    try:
        check_shared(repo)
        data = (tmp_path / "journal.log").read_bytes()
        _rows, spans, _versions, _end = _read_log(data)
        assert len(spans) == repo.store.count()
        for oid, (start, end) in spans.items():
            assert serialize_object(repo.store.latest(oid)) == data[start:end]
    finally:
        repo.close()
