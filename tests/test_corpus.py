import hashlib

import pytest

from ino.api import Repository
from ino.cli import main
from ino.corpus import CorpusProfile, generate_corpus, nsdl_dc_document
from ino.errors import NotEmpty
from ino.index import TriplePattern, Var
from ino.model import MEMBER_OF, OBJECT_TYPE, Term, VirtualClock, type_iri

PROFILE = CorpusProfile(resources=40, aggregations=3, agents=4, seed=9)


def type_count(repo, type_name):
    return len(repo.match(TriplePattern(
        Var("?s"), Term.iri(OBJECT_TYPE), Term.iri(type_iri(type_name)))))


def build(path, profile=PROFILE):
    repo = Repository(path, clock=VirtualClock())
    stats = generate_corpus(repo, profile)
    return repo, stats


def tree_bytes(path):
    """The object files that ``ino export`` writes for the closed store at
    ``path``, by path relative to the export directory."""
    out = path.parent / (path.name + "-export")
    assert main(["export", "--data-dir", str(path), "--dir", str(out)]) == 0
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*.xml"))
    }


def test_counts_match_profile(tmp_path):
    repo, stats = build(tmp_path / "a")
    try:
        assert stats.resources == 40
        assert stats.metadata == 30  # int(40 * 0.75)
        assert stats.aggregations == 3 and stats.agents == 4
        # independent oracle over the triple index
        assert type_count(repo, "Agent") == 4
        assert type_count(repo, "Aggregation") == 3
        # resources = 40 generated + 3 aggregation proxies
        assert type_count(repo, "Resource") == 43
        assert type_count(repo, "Metadata") == 30
        assert repo.store.count() == 40 + 30 + 3 + 3 + 4
    finally:
        repo.close()


def test_default_aggregation_count():
    assert CorpusProfile(resources=500).aggregation_count == 1
    assert CorpusProfile(resources=2500).aggregation_count == 2


def test_every_resource_in_an_aggregation(tmp_path):
    repo, _stats = build(tmp_path / "a")
    try:
        members = {t.subject for t in repo.match(
            TriplePattern(Var("?s"), Term.iri(MEMBER_OF), Var("?o")))}
        resources = {t.subject for t in repo.match(TriplePattern(
            Var("?s"), Term.iri(OBJECT_TYPE), Term.iri(type_iri("Resource"))))}
        proxies = {t.object.value for o in repo.store.objects()
                   for t in o.relationships
                   if t.predicate.endswith("representedBy")}
        assert resources - proxies <= members
    finally:
        repo.close()


def test_generated_corpus_is_audit_clean(tmp_path):
    repo, _stats = build(tmp_path / "a")
    try:
        assert repo.audit() == []
    finally:
        repo.close()


def test_byte_identical_across_fresh_stores(tmp_path):
    ra, _ = build(tmp_path / "a")
    rb, _ = build(tmp_path / "b")
    ra.close()
    rb.close()
    a = tree_bytes(tmp_path / "a")
    b = tree_bytes(tmp_path / "b")
    assert a and a == b


def test_export_matches_the_object_files_of_the_per_file_store(tmp_path):
    """The store that kept one file per object wrote, for this profile, the
    tree pinned here: sha256 over each sorted path's ``<path> <size>\n`` and
    bytes. The export must reproduce it byte for byte."""
    repo, _ = build(tmp_path / "a")
    repo.close()
    digest = hashlib.sha256()
    tree = tree_bytes(tmp_path / "a")
    for path, data in sorted(tree.items()):
        digest.update(b"%s %d\n" % (path.encode(), len(data)))
        digest.update(data)
    assert len(tree) == 80 and all(p.startswith("objects/") for p in tree)
    assert digest.hexdigest() == (
        "9d1e6d75740c64ba61fdf81c289dbc4fd5347889730a13c9c8f86216b4c3a7eb")


def test_seed_changes_output(tmp_path):
    ra, _ = build(tmp_path / "a")
    rb, _ = build(tmp_path / "b", CorpusProfile(resources=40, aggregations=3,
                                                agents=4, seed=10))
    ra.close()
    rb.close()
    assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "b")


def test_documents_carry_resource_identifier():
    import random
    data = nsdl_dc_document(random.Random(0), "http://corpus.local/9/5", 5)
    assert b"<identifier>http://corpus.local/9/5</identifier>" in data
    assert data.startswith(b"<nsdl_dc>")


def test_requires_empty_repository(repo):
    repo.add_agent("someone", "Person")
    with pytest.raises(NotEmpty):
        generate_corpus(repo, PROFILE)
