import pytest

from ino.api import MetadataSpec, Repository, ResourceSpec, normalize_url
from ino.errors import (
    CardinalityViolation,
    HasDependents,
    InvalidObject,
    NotFound,
    UnknownAgent,
    UnknownAggregation,
    UnknownMember,
    UnknownPredicate,
    UnknownResource,
)
from ino.index import TriplePattern, Var
from ino.model import (
    AGGREGATOR_FOR,
    MEMBER_OF,
    METADATA_FOR,
    REPRESENTED_BY,
    Term,
)
from ino.ontology import OntologyRegistry

PAYLOAD = b"<nsdl_dc><title>T</title></nsdl_dc>"


@pytest.fixture
def fixture(repo):
    agent = repo.add_agent("NSDL", "Organization")
    agg = repo.create_aggregation(
        agent, ResourceSpec(content_url="http://example.org/collection-home")
    )
    resource = repo.add_resource(
        ResourceSpec(content_url="http://example.org/a",
                     initial_aggregations=frozenset({agg}))
    )
    return repo, agent, agg, resource


def snapshot(repo):
    return (repo.store.count(), repo.store.current_seq, repo.index.size())


# ----------------------------------------------------------------- normalize

def test_normalize_url():
    assert normalize_url("HTTP://Example.ORG:80/Path?q=1#frag") == \
        "http://example.org/Path?q=1"
    assert normalize_url("https://example.org:8443/x") == \
        "https://example.org:8443/x"
    n = normalize_url("http://example.org/a")
    assert normalize_url(n) == n  # idempotent


# -------------------------------------------------------------------- agents

def test_add_agent(repo):
    oid = repo.add_agent("NSDL", "Organization")
    obj = repo.get_object(oid)
    assert obj.types == ("Agent",)
    props = obj.datastream("properties")
    assert props.content == b"name=NSDL\nkind=Organization\n"


def test_add_agent_invalid(repo):
    with pytest.raises(InvalidObject):
        repo.add_agent("", "Person")
    with pytest.raises(InvalidObject):
        repo.add_agent("x", "Robot")


def test_agent_names_not_identities(repo):
    assert repo.add_agent("dup", "Person") != repo.add_agent("dup", "Person")


# ----------------------------------------------------------------- resources

def test_add_resource_idempotent_by_url(fixture):
    repo, _agent, agg, resource = fixture
    again = repo.add_resource(
        ResourceSpec(content_url="http://EXAMPLE.org:80/a")
    )
    assert again == resource
    # independent oracle: scan all stored objects for that surrogate URL
    matches = [
        o.id for o in repo.store.objects()
        if any(ds.surrogate == "http://example.org/a" for ds in o.datastreams)
    ]
    assert matches == [resource]


def test_add_resource_no_aggregations(repo):
    oid = repo.add_resource(ResourceSpec(content_url="http://example.org/z"))
    assert not repo.get_object(oid).relationships


def test_add_resource_with_a_character_xml_forbids_is_refused(tmp_path):
    """A content URL holding U+0001 is refused with nothing written, and
    the data directory still opens."""
    repo = Repository(tmp_path / "d")
    try:
        before = snapshot(repo)
        with pytest.raises(InvalidObject, match="a character XML 1.0 forbids"):
            repo.add_resource(ResourceSpec(content_url="http://a.org/\u0001"))
        assert snapshot(repo) == before
    finally:
        repo.close()
    Repository(tmp_path / "d").close()


def test_add_resource_unknown_aggregation_atomic(repo):
    before = snapshot(repo)
    with pytest.raises(UnknownAggregation):
        repo.add_resource(
            ResourceSpec(content_url="http://example.org/z",
                         initial_aggregations=frozenset({"info:ino/nope"}))
        )
    assert snapshot(repo) == before


def test_inline_resources_never_deduped(repo):
    a = repo.add_resource(ResourceSpec(content=b"same", media_type="text/plain"))
    b = repo.add_resource(ResourceSpec(content=b"same", media_type="text/plain"))
    assert a != b


def test_resource_spec_exclusivity():
    with pytest.raises(InvalidObject):
        ResourceSpec(content_url="http://x.org/", content=b"y",
                     media_type="text/plain")
    with pytest.raises(InvalidObject):
        ResourceSpec()


# ------------------------------------------------------------------ metadata

def test_add_metadata(fixture):
    repo, agent, agg, resource = fixture
    m = repo.add_metadata(MetadataSpec(
        target=resource, format_id="nsdl_dc", payload=PAYLOAD, provider=agent,
        initial_aggregations=frozenset({agg}),
    ))
    obj = repo.get_object(m)
    mf = [t for t in obj.relationships if t.predicate == METADATA_FOR]
    assert len(mf) == 1 and mf[0].object == Term.iri(resource)
    assert obj.datastream("format_nsdl_dc").content == PAYLOAD


def test_add_metadata_type_checked_target(fixture):
    repo, agent, _agg, _resource = fixture
    before = snapshot(repo)
    with pytest.raises(UnknownResource):
        repo.add_metadata(MetadataSpec(
            target=agent, format_id="nsdl_dc", payload=PAYLOAD, provider=agent,
        ))
    assert snapshot(repo) == before


def test_add_metadata_invalid(fixture):
    repo, agent, _agg, resource = fixture
    with pytest.raises(InvalidObject):
        repo.add_metadata(MetadataSpec(
            target=resource, format_id="nsdl_dc", payload=b"", provider=agent,
        ))
    with pytest.raises(InvalidObject):
        repo.add_metadata(MetadataSpec(
            target=resource, format_id="BAD FORMAT", payload=PAYLOAD,
            provider=agent,
        ))
    with pytest.raises(UnknownAgent):
        repo.add_metadata(MetadataSpec(
            target=resource, format_id="nsdl_dc", payload=PAYLOAD,
            provider=resource,
        ))


@pytest.mark.parametrize("payload", [
    b"not xml at all",
    b"<nsdl_dc><title>T</nsdl_dc>",
    b"<dc:title>unbound prefix</dc:title>",
    # passes expat, which skips an entity an external DTD may declare, but
    # not ElementTree, which re-serializes a payload with a DOCTYPE
    pytest.param(b'<!DOCTYPE nsdl_dc SYSTEM "nsdl.dtd"><nsdl_dc>&ext;</nsdl_dc>',
                 id="doctype-external-entity"),
])
def test_malformed_payload_rejected(fixture, payload):
    """A payload that no OAI response can carry is refused on create and on
    update, and leaves the store as it was."""
    repo, agent, _agg, resource = fixture
    mid = repo.add_metadata(MetadataSpec(
        target=resource, format_id="nsdl_dc", payload=PAYLOAD, provider=agent))
    before = snapshot(repo)
    with pytest.raises(InvalidObject, match="payload: not well-formed XML"):
        repo.add_metadata(MetadataSpec(
            target=resource, format_id="nsdl_dc", payload=payload,
            provider=agent))
    with pytest.raises(InvalidObject, match="payload: not well-formed XML"):
        repo.update_metadata_payload(mid, "nsdl_dc", payload)
    assert snapshot(repo) == before
    assert repo.get_dissemination(mid, "nsdl_dc")[0] == PAYLOAD


@pytest.mark.parametrize("format_id", [
    pytest.param("ABC", id="uppercase"),
    # "format_" and 26 characters overrun the 32-character datastream id
    pytest.param("f" * 26, id="too-long"),
])
def test_update_metadata_payload_checks_the_format_id(fixture, format_id):
    """Both metadata writes refuse a malformed format id with a ``formatId``
    message, so no object gets a format that ``add_metadata`` would not take."""
    repo, agent, _agg, resource = fixture
    mid = repo.add_metadata(MetadataSpec(
        target=resource, format_id="nsdl_dc", payload=PAYLOAD, provider=agent))
    before = snapshot(repo)
    message = f"formatId: malformed '{format_id}'"
    with pytest.raises(InvalidObject, match=message):
        repo.add_metadata(MetadataSpec(target=resource, format_id=format_id,
                                       payload=PAYLOAD, provider=agent))
    with pytest.raises(InvalidObject, match=message):
        repo.update_metadata_payload(mid, format_id, PAYLOAD)
    assert snapshot(repo) == before
    assert repo.list_formats(mid) == {"nsdl_dc", "oai_dc"}


def count_commits(repo):
    commit = repo.store.commit_batch
    calls = []

    def counting(ops):
        calls.append(ops)
        return commit(ops)
    repo.store.commit_batch = counting
    return calls


def test_add_metadata_creates_resource_target_in_one_commit(fixture):
    repo, agent, agg, _resource = fixture
    calls = count_commits(repo)
    seq = repo.store.current_seq
    m = repo.add_metadata(MetadataSpec(
        target=ResourceSpec(content_url="http://example.org/new",
                            initial_aggregations=frozenset({agg})),
        format_id="nsdl_dc", payload=PAYLOAD, provider=agent,
    ))
    assert len(calls) == 1
    events = repo.changes_since(seq)
    assert [e.seq for e in events] == [seq + 1, seq + 2]
    resource = repo.find_resource_by_url("http://example.org/new")
    assert [e.object_id for e in events] == [resource, m]
    assert [t.object for t in repo.get_object(m).relationships
            if t.predicate == METADATA_FOR] == [Term.iri(resource)]
    assert repo.members_of(agg) >= {resource}
    assert repo.audit() == []


def test_add_metadata_resource_target_reuses_url(fixture):
    repo, agent, _agg, resource = fixture
    count = repo.store.count()
    m = repo.add_metadata(MetadataSpec(
        target=ResourceSpec(content_url="http://EXAMPLE.org:80/a"),
        format_id="nsdl_dc", payload=PAYLOAD, provider=agent,
    ))
    assert repo.store.count() == count + 1
    assert [t.object for t in repo.get_object(m).relationships
            if t.predicate == METADATA_FOR] == [Term.iri(resource)]


def test_rejected_metadata_leaves_no_resource_target(fixture):
    repo, agent, _agg, resource = fixture
    before = snapshot(repo)
    url = "http://example.org/never"
    with pytest.raises(InvalidObject):
        repo.add_metadata(MetadataSpec(
            target=ResourceSpec(content_url=url),
            format_id="nsdl_dc", payload=b"", provider=agent,
        ))
    with pytest.raises(UnknownAgent):
        repo.add_metadata(MetadataSpec(
            target=ResourceSpec(content_url=url),
            format_id="nsdl_dc", payload=PAYLOAD, provider=resource,
        ))
    assert snapshot(repo) == before
    assert repo.find_resource_by_url(url) is None


# -------------------------------------------------------------- aggregations

def test_create_aggregation(fixture):
    repo, agent, agg, _resource = fixture
    obj = repo.get_object(agg)
    rb = [t for t in obj.relationships if t.predicate == REPRESENTED_BY]
    assert len(rb) == 1
    agent_rels = [t for t in repo.get_object(agent).relationships
                  if t.predicate == AGGREGATOR_FOR]
    assert [t.object.value for t in agent_rels] == [agg]


def test_create_aggregation_unknown_agent_atomic(repo):
    before = snapshot(repo)
    with pytest.raises(UnknownAgent):
        repo.create_aggregation(
            "info:ino/ghost", ResourceSpec(content_url="http://x.org/p")
        )
    assert snapshot(repo) == before


def test_aggregations_may_share_proxy(fixture):
    repo, agent, _agg, _resource = fixture
    proxy_url = "http://example.org/shared-proxy"
    a1 = repo.create_aggregation(agent, ResourceSpec(content_url=proxy_url))
    a2 = repo.create_aggregation(agent, ResourceSpec(content_url=proxy_url))
    targets = {
        t.object.value
        for a in (a1, a2)
        for t in repo.get_object(a).relationships
        if t.predicate == REPRESENTED_BY
    }
    assert len(targets) == 1


def test_create_aggregation_checks_proxy_aggregations_first(fixture):
    # an existing proxy URL does not let an unknown aggregation through,
    # and the rejected proxy takes no id
    repo, agent, _agg, _resource = fixture
    before = snapshot(repo)
    for url in ("http://example.org/collection-home", "http://example.org/p"):
        with pytest.raises(UnknownAggregation):
            repo.create_aggregation(agent, ResourceSpec(
                content_url=url,
                initial_aggregations=frozenset({"info:ino/nope"})))
    assert snapshot(repo) == before
    assert repo.add_resource(ResourceSpec(content_url="http://example.org/q")) \
        == "info:ino/resource-5"


# ---------------------------------------------------------------- membership

def test_set_membership_reconciles(fixture):
    repo, agent, agg, r1 = fixture
    r2 = repo.add_resource(ResourceSpec(content_url="http://example.org/b"))
    r3 = repo.add_resource(ResourceSpec(content_url="http://example.org/c"))
    repo.set_aggregation_membership(agg, {r1, r2})
    delta = repo.set_aggregation_membership(agg, {r2, r3})
    assert delta.added == {r3} and delta.removed == {r1}
    rows = repo.match(TriplePattern(Var("?x"), Term.iri(MEMBER_OF),
                                    Term.iri(agg)))
    assert {t.subject for t in rows} == {r2, r3}


def test_set_membership_idempotent(fixture):
    repo, _agent, agg, r1 = fixture
    repo.set_aggregation_membership(agg, {r1})
    before = repo.get_object(r1).modified
    seq_before = repo.store.current_seq
    delta = repo.set_aggregation_membership(agg, {r1})
    assert delta.added == frozenset() and delta.removed == frozenset()
    assert repo.get_object(r1).modified == before
    assert repo.store.current_seq == seq_before


def test_set_membership_untouched_members_unchanged(fixture):
    repo, _agent, agg, r1 = fixture
    r2 = repo.add_resource(ResourceSpec(content_url="http://example.org/b"))
    repo.set_aggregation_membership(agg, {r1})
    r1_modified = repo.get_object(r1).modified
    repo.set_aggregation_membership(agg, {r1, r2})
    assert repo.get_object(r1).modified == r1_modified


def test_set_membership_rejects_bad_members(fixture):
    repo, agent, agg, r1 = fixture
    with pytest.raises(UnknownMember):
        repo.set_aggregation_membership(agg, {r1, "info:ino/ghost"})
    with pytest.raises(UnknownMember):
        repo.set_aggregation_membership(agg, {agent})  # wrong type
    purged = repo.add_resource(ResourceSpec(content_url="http://example.org/p"))
    repo.purge_resource(purged)
    with pytest.raises(UnknownMember):
        repo.set_aggregation_membership(agg, {purged})


# ------------------------------------------------------------- relationships

def test_add_relationship_cardinality(fixture):
    repo, agent, _agg, r1 = fixture
    r2 = repo.add_resource(ResourceSpec(content_url="http://example.org/b"))
    m = repo.add_metadata(MetadataSpec(
        target=r1, format_id="nsdl_dc", payload=PAYLOAD, provider=agent,
    ))
    with pytest.raises(CardinalityViolation):
        repo.add_relationship(m, METADATA_FOR, r2)
    with pytest.raises(CardinalityViolation):
        repo.remove_relationship(m, METADATA_FOR, r1)


def test_extension_predicate_relationship(tmp_path, vclock):
    annotates = "info:ino/def#annotates"
    ontology = OntologyRegistry.load(
        f"predicate <{annotates}> domain Resource range Resource card 0..*"
    )
    repo = Repository(tmp_path / "ext", ontology=ontology, clock=vclock)
    try:
        r = repo.add_resource(ResourceSpec(content_url="http://example.org/r"))
        s = repo.add_resource(ResourceSpec(content_url="http://example.org/s"))
        repo.add_relationship(r, annotates, s)
        assert repo.audit() == []
    finally:
        repo.close()


def test_only_a_modify_that_relinks_is_checked_again(tmp_path, vclock):
    """A write checks an object's whole relationship list only when it
    changes that list: a triple whose predicate the ontology no longer
    registers does not block a payload update, but blocks a new link."""
    rating = "info:ino/def#rating"
    ontology = OntologyRegistry.load(
        f"predicate <{rating}> domain Metadata range Literal card 0..*")
    repo = Repository(tmp_path / "d", ontology=ontology, clock=vclock)
    agent = repo.add_agent("NSDL", "Organization")
    agg = repo.create_aggregation(
        agent, ResourceSpec(content_url="http://example.org/collection-home"))
    resource = repo.add_resource(ResourceSpec(content_url="http://example.org/a"))
    m = repo.add_metadata(
        MetadataSpec(target=resource, format_id="nsdl_dc", payload=PAYLOAD,
                     provider=agent),
        extra_relationships=[(rating, Term.literal("5"))])
    repo.close()
    repo = Repository(tmp_path / "d", clock=vclock)
    try:
        repo.update_metadata_payload(m, "nsdl_dc", b"<nsdl_dc/>")
        assert repo.get_dissemination(m, "nsdl_dc")[0] == b"<nsdl_dc/>"
        with pytest.raises(UnknownPredicate):
            repo.add_relationship(m, MEMBER_OF, agg)
        assert repo.members_of(agg) == set()
    finally:
        repo.close()


def test_dangling_target_is_not_found_on_every_path(fixture):
    repo, agent, _agg, r1 = fixture
    with pytest.raises(NotFound):
        repo.add_relationship(r1, MEMBER_OF, "info:ino/ghost")
    with pytest.raises(NotFound):
        repo.add_metadata(
            MetadataSpec(target=r1, format_id="nsdl_dc", payload=PAYLOAD,
                         provider=agent),
            extra_relationships=[(MEMBER_OF, Term.iri("http://example.org/x"))])
    from ino.model import Triple
    repo.store.modify(r1, relationships=[
        Triple(r1, MEMBER_OF, Term.iri("info:ino/ghost")),
    ])
    assert repo.audit() == [
        f"{r1}: dangling target info:ino/ghost of {MEMBER_OF}"]


def test_remove_nonexistent_relationship(fixture):
    repo, _agent, agg, r1 = fixture
    with pytest.raises(NotFound):
        repo.remove_relationship(r1, MEMBER_OF, "info:ino/ghost")


# --------------------------------------------------------------------- purge

def test_purge_ordering(fixture):
    repo, agent, _agg, r1 = fixture
    m = repo.add_metadata(MetadataSpec(
        target=r1, format_id="nsdl_dc", payload=PAYLOAD, provider=agent,
    ))
    with pytest.raises(HasDependents) as exc:
        repo.purge_resource(r1)
    assert exc.value.dependents == [m]
    repo.purge_metadata(m)
    assert not repo.match(TriplePattern(Var("?m"), Term.iri(METADATA_FOR),
                                        Term.iri(r1)))
    repo.purge_resource(r1)
    with pytest.raises(NotFound):
        repo.get_object(r1)


def test_purge_represented_proxy_refused(fixture):
    repo, _agent, agg, _r1 = fixture
    proxy = next(
        t.object.value for t in repo.get_object(agg).relationships
        if t.predicate == REPRESENTED_BY
    )
    with pytest.raises(HasDependents):
        repo.purge_resource(proxy)


def test_ids_are_not_reused_after_a_reopen(tmp_path, vclock):
    """The next id follows the largest id in the store, tombstones included,
    so purging the newest object and reopening does not hand its id out."""
    def number(oid):
        return int(oid.rsplit("-", 1)[1])

    repo = Repository(tmp_path / "d", clock=vclock)
    repo.add_agent("NSDL", "Organization")
    newest = repo.add_resource(ResourceSpec(content_url="http://example.org/a"))
    repo.purge_resource(newest)
    repo.close()
    repo = Repository(tmp_path / "d", clock=vclock)
    try:
        fresh = repo.add_resource(ResourceSpec(content_url="http://example.org/a"))
        assert number(fresh) > number(newest)
        assert number(repo.add_agent("x", "Person")) > number(fresh)
    finally:
        repo.close()


def test_purge_type_mismatch(fixture):
    repo, agent, _agg, r1 = fixture
    with pytest.raises(NotFound):
        repo.purge_metadata(r1)
    with pytest.raises(NotFound):
        repo.purge_resource(agent)


@pytest.mark.parametrize("kind", ["Resource", "Metadata"])
def test_purge_of_a_target_of_an_extension_predicate_is_refused(
        tmp_path, vclock, kind):
    """Every purge passes the dependents check, whatever the predicate that
    targets the object: neither a cited resource nor a cited metadata object
    can be purged, so the API leaves no dangling target for audit to find."""
    cites = "x:cites"
    ontology = OntologyRegistry.load(
        f"predicate <{cites}> domain Metadata range Resource,Metadata card 0..*")
    repo = Repository(tmp_path / "d", ontology=ontology, clock=vclock)
    try:
        agent = repo.add_agent("NSDL", "Organization")
        resource = repo.add_resource(ResourceSpec(content_url="http://example.org/a"))
        victim = repo.add_resource(ResourceSpec(content_url="http://example.org/b"))
        purge = repo.purge_resource
        if kind == "Metadata":
            victim = repo.add_metadata(MetadataSpec(
                target=resource, format_id="nsdl_dc", payload=PAYLOAD,
                provider=agent))
            purge = repo.purge_metadata
        citing = repo.add_metadata(
            MetadataSpec(target=resource, format_id="nsdl_dc", payload=PAYLOAD,
                         provider=agent),
            extra_relationships=[(cites, Term.iri(victim))])
        before = snapshot(repo)
        with pytest.raises(HasDependents) as exc:
            purge(victim)
        assert exc.value.dependents == [citing]
        assert snapshot(repo) == before and repo.audit() == []
        repo.remove_relationship(citing, cites, victim)
        purge(victim)
        assert repo.audit() == []
    finally:
        repo.close()


def test_an_object_that_targets_itself_is_no_dependent(tmp_path, vclock):
    see_also = "x:seeAlso"
    ontology = OntologyRegistry.load(
        f"predicate <{see_also}> domain Resource range Resource card 0..*")
    repo = Repository(tmp_path / "d", ontology=ontology, clock=vclock)
    try:
        r = repo.add_resource(ResourceSpec(content_url="http://example.org/r"))
        repo.add_relationship(r, see_also, r)
        repo.purge_resource(r)
        with pytest.raises(NotFound):
            repo.get_object(r)
    finally:
        repo.close()


def test_audit_clean_after_fixture(fixture):
    repo = fixture[0]
    assert repo.audit() == []


def test_audit_detects_direct_store_damage(fixture):
    repo, agent, _agg, r1 = fixture
    # bypass the API: write an invalid metadataFor arc straight to the store
    from ino.model import Triple
    repo.store.modify(agent, relationships=[
        Triple(agent, METADATA_FOR, Term.iri(r1)),
    ])
    violations = repo.audit()
    assert any("domain violation" in v for v in violations)
