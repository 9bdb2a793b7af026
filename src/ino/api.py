"""High-level repository API. Every operation is an atomic composition of
store and index primitives: it validates against the ontology first, then
commits all touched objects in one batch, so a failing call leaves the
object count, event log, and triple count unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import chain
from urllib.parse import urlsplit, urlunsplit

from .dissemination import Disseminator, format_stream
from .errors import (
    HasDependents,
    InvalidObject,
    NotFound,
    UnknownAgent,
    UnknownAggregation,
    UnknownMember,
    UnknownResource,
)
from .index import ConjunctiveQuery, TripleIndex, TriplePattern, Var, parse_query
from .model import (
    AGGREGATOR_FOR,
    DELETED,
    ID_PREFIX,
    LOCATION,
    MEMBER_OF,
    METADATA_FOR,
    PROVIDED_BY,
    REPRESENTED_BY,
    Clock,
    Datastream,
    DigitalObject,
    Term,
    Triple,
    make_draft,
)
from .ontology import OntologyRegistry
from .store import BatchOp, ObjectStore

AGENT_KINDS = ("Person", "Organization", "Service")

_ID_SUFFIX_RE = re.compile(r"^[a-z]+-(\d+)$")


@dataclass(frozen=True)
class ResourceSpec:
    content_url: str | None = None
    content: bytes | None = None
    media_type: str | None = None
    initial_aggregations: frozenset[str] = frozenset()

    def __post_init__(self):
        if (self.content_url is None) == (self.content is None):
            raise InvalidObject("spec: exactly one of contentUrl/inline required")
        if self.content is not None and not self.media_type:
            raise InvalidObject("spec: inline content requires mediaType")


@dataclass(frozen=True)
class MetadataSpec:
    # a resource id, or a ResourceSpec found by URL or made in the same commit
    target: str | ResourceSpec
    format_id: str
    payload: bytes
    provider: str
    initial_aggregations: frozenset[str] = frozenset()


@dataclass(frozen=True)
class MembershipDelta:
    added: frozenset[str]
    removed: frozenset[str]


def normalize_url(url: str) -> str:
    """Lowercase scheme and host, strip default port and fragment."""
    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    host = (parts.hostname or "").lower()
    port = parts.port
    if port is not None and not (
        (scheme == "http" and port == 80) or (scheme == "https" and port == 443)
    ):
        host = f"{host}:{port}"
    return urlunsplit((scheme, host, parts.path, parts.query, ""))


class Repository:
    """Single-writer, multi-reader facade over store + index + ontology."""

    def __init__(self, root, ontology: OntologyRegistry | None = None,
                 clock: Clock | None = None, durable: bool = True):
        self.ontology = ontology or OntologyRegistry.load()
        self.store = ObjectStore(root, clock=clock, durable=durable)
        self.index = TripleIndex()
        self.index.rebuild(self.store.objects())
        self.store.on_commit(self._on_commit)
        self.disseminator = Disseminator(self.store.get)
        self._lock = self.store._lock  # one atomicity domain
        # ids are never reused and every object ever committed keeps its
        # last version, live or a tombstone, so the next id follows the
        # largest of those
        self._next_id = 1 + max(
            (int(m.group(1)) for obj in chain(self.store.objects(),
                                               self.store.tombstones())
             if (m := _ID_SUFFIX_RE.match(obj.id[len(ID_PREFIX):]))),
            default=0)

    def close(self) -> None:
        self.store.close()

    def _on_commit(self, versions) -> None:
        for obj in versions:
            if obj.state == DELETED:
                self.index.deindex_object(obj.id)
            else:
                self.index.index_object(obj)

    def _new_id(self, prefix: str) -> str:
        oid = f"{ID_PREFIX}{prefix}-{self._next_id}"
        self._next_id += 1
        return oid

    # --------------------------------------------------------------- lookups

    def get_object(self, object_id: str) -> DigitalObject:
        return self.store.get(object_id)

    def _live_types(self, object_id: str):
        try:
            return self.store.get(object_id).types
        except NotFound:
            return None

    def _require_type(self, object_id: str, predicate: str, error_cls,
                      subject: bool = False) -> None:
        """``error_cls`` unless ``object_id`` is live with a type that the
        rule of ``predicate`` allows at its target, or at its ``subject``."""
        rule = self.ontology.rule(predicate)
        if not (rule.domain if subject else rule.range_types).intersection(
                self._live_types(object_id) or ()):
            raise error_cls(object_id)

    def _commit(self, ops: list[BatchOp]) -> list[DigitalObject]:
        """The gate of every write batch: check the final relationship list
        of every object the batch creates or relinks against the ontology,
        refuse to purge an object that another live object targets, raise
        the first violation, then commit the batch all-or-nothing.
        Relationship targets may be objects that the same batch creates."""
        created = {op.object_id: op.draft.types for op in ops if op.kind == "create"}

        def types_of(object_id):
            return created.get(object_id) or self._live_types(object_id)

        for op in ops:
            if op.kind == "purge":  # one OSP lookup, whatever the predicate
                dependents = {t.subject for t in self.index.match(TriplePattern(
                    Var("?s"), Var("?p"), Term.iri(op.object_id)))} - {op.object_id}
                if dependents:
                    raise HasDependents(sorted(dependents))
                continue
            new = op.draft
            if new is None or (op.kind == "modify" and new.relationships
                               == self.store.get(op.object_id).relationships):
                continue
            for exc in self.ontology.violations(new.types, new.relationships,
                                                types_of):
                raise exc
        return self.store.commit_batch(ops)

    def find_resource_by_url(self, url: str) -> str | None:
        for ds in self.subjects(LOCATION, Term.literal(normalize_url(url))):
            oid = ds.removesuffix("/content")
            if oid != ds and "Resource" in self.store.get(oid).types:
                return oid
        return None

    # ------------------------------------------------------------ operations

    def add_agent(self, name: str, kind: str, extra_relationships=()) -> str:
        if not name:
            raise InvalidObject("name: must be non-empty")
        if kind not in AGENT_KINDS:
            raise InvalidObject(f"kind: unknown agent kind {kind!r}")
        with self._lock:
            oid = self._new_id("agent")
            props = f"name={name}\nkind={kind}\n".encode("utf-8")
            draft = make_draft(
                oid, ("Agent",),
                datastreams=[Datastream("properties", "text/plain", content=props)],
                relationships=[Triple(oid, p, o) for p, o in extra_relationships],
            )
            self._commit([BatchOp("create", oid, draft=draft)])
            return oid

    def add_resource(self, spec: ResourceSpec) -> str:
        with self._lock:
            oid, ops = self._resource_ops(spec)
            if ops:
                self._commit(ops)
            return oid

    def _resource_ops(self, spec: ResourceSpec) -> tuple[str, list[BatchOp]]:
        """The live resource at ``spec``'s URL and no ops, else a new id
        and the op that creates the resource."""
        for agg in spec.initial_aggregations:
            self._require_type(agg, MEMBER_OF, UnknownAggregation)
        if spec.content_url is not None:
            existing = self.find_resource_by_url(spec.content_url)
            if existing is not None:
                return existing, []
        oid = self._new_id("resource")
        if spec.content_url is not None:
            ds = Datastream("content", "application/octet-stream",
                            surrogate=normalize_url(spec.content_url))
        else:
            ds = Datastream("content", spec.media_type, content=spec.content)
        rels = tuple(
            Triple(oid, MEMBER_OF, self._iri(a))
            for a in sorted(spec.initial_aggregations)
        )
        draft = make_draft(oid, ("Resource",), datastreams=[ds], relationships=rels)
        return oid, [BatchOp("create", oid, draft=draft)]

    def add_metadata(self, spec: MetadataSpec, extra_relationships=()) -> str:
        """One commit: the metadata object and, when ``spec.target`` is a
        ResourceSpec with no live resource at its URL, that resource."""
        with self._lock:
            if isinstance(spec.target, str):
                self._require_type(spec.target, METADATA_FOR, UnknownResource)
            self._require_type(spec.provider, PROVIDED_BY, UnknownAgent)
            for agg in spec.initial_aggregations:
                self._require_type(agg, MEMBER_OF, UnknownAggregation)
            stream = format_stream(spec.format_id, spec.payload)
            target, ops = ((spec.target, []) if isinstance(spec.target, str)
                           else self._resource_ops(spec.target))
            oid = self._new_id("metadata")
            rels = [
                Triple(oid, METADATA_FOR, self._iri(target)),
                Triple(oid, PROVIDED_BY, self._iri(spec.provider)),
            ]
            rels += [
                Triple(oid, MEMBER_OF, self._iri(a))
                for a in sorted(spec.initial_aggregations)
            ]
            rels += [Triple(oid, p, o) for p, o in extra_relationships]
            draft = make_draft(oid, ("Metadata",), datastreams=[stream],
                               relationships=rels)
            self._commit(ops + [BatchOp("create", oid, draft=draft)])
            return oid

    def update_metadata_payload(self, object_id: str, format_id: str,
                                payload: bytes) -> None:
        with self._lock:
            obj = self.store.get(object_id)
            if "Metadata" not in obj.types:
                raise UnknownResource(f"{object_id} is not a Metadata object")
            stream = format_stream(format_id, payload)
            streams = {ds.ds_id: ds for ds in obj.datastreams}
            streams[stream.ds_id] = stream  # a replaced stream keeps its place
            self._commit([BatchOp("modify", object_id,
                                  replace(obj, datastreams=tuple(streams.values())))])

    def create_aggregation(self, agent: str, proxy: ResourceSpec,
                           extra_relationships=()) -> str:
        with self._lock:
            self._require_type(agent, AGGREGATOR_FOR, UnknownAgent, subject=True)
            proxy_id, ops = self._resource_ops(proxy)
            agg_id = self._new_id("agg")
            rels = [Triple(agg_id, REPRESENTED_BY, self._iri(proxy_id))]
            rels += [Triple(agg_id, p, o) for p, o in extra_relationships]
            agg_draft = make_draft(agg_id, ("Aggregation",), relationships=rels)
            ops.append(BatchOp("create", agg_id, draft=agg_draft))
            ops.append(self._relink(Triple(agent, AGGREGATOR_FOR, Term.iri(agg_id)),
                                    add=True))
            self._commit(ops)
            return agg_id

    def members_of(self, agg: str) -> set[str]:
        return self.subjects(MEMBER_OF, Term.iri(agg))

    def set_aggregation_membership(self, agg: str, members) -> MembershipDelta:
        with self._lock:
            self._require_type(agg, MEMBER_OF, UnknownAggregation)
            members = set(members)
            for m in members:
                self._require_type(m, MEMBER_OF, UnknownMember, subject=True)
            current = self.members_of(agg)
            added = members - current
            removed = current - members
            agg_term = self._iri(agg)
            ops = [self._relink(Triple(m, MEMBER_OF, agg_term), add)
                   for add, ids in ((True, added), (False, removed))
                   for m in sorted(ids)]
            if ops:
                self._commit(ops)
            return MembershipDelta(frozenset(added), frozenset(removed))

    def add_relationship(self, subj: str, predicate: str, obj) -> None:
        """obj: an object id (str) or a literal Term."""
        with self._lock:
            op = self._relink(Triple(subj, predicate, self._relationship_term(obj)),
                              add=True)
            if op is not None:  # relationships are a set; re-asserting is a no-op
                self._commit([op])

    def remove_relationship(self, subj: str, predicate: str, obj) -> None:
        with self._lock:
            op = self._relink(Triple(subj, predicate, self._relationship_term(obj)),
                              add=False)
            if op is None:
                raise NotFound(f"no such relationship on {subj}")
            self._commit([op])

    def _relink(self, triple: Triple, add: bool) -> BatchOp | None:
        """The modify op that appends ``triple`` to its subject's
        relationships, or drops it from them unless ``add``; None when they
        already hold it, or lack it. NotFound unless the subject is live."""
        obj = self.store.get(triple.subject)
        if (triple in obj.relationships) == add:
            return None
        rels = (obj.relationships + (triple,) if add
                else tuple(t for t in obj.relationships if t != triple))
        return BatchOp("modify", obj.id, replace(obj, relationships=rels))

    def _relationship_term(self, obj) -> Term:
        return self.index.term(obj if isinstance(obj, Term) else Term.iri(obj))

    def _iri(self, object_id: str) -> Term:
        """The ``Term`` of ``object_id`` as a relationship target: the
        index's own where it has one, so that equal targets are one object."""
        return self.index.term(Term.iri(object_id))

    def purge_metadata(self, object_id: str) -> None:
        self._purge(object_id, "Metadata")

    def purge_resource(self, object_id: str) -> None:
        self._purge(object_id, "Resource")

    def _purge(self, object_id: str, kind: str) -> None:
        with self._lock:
            if kind not in self.store.get(object_id).types:
                raise NotFound(f"{object_id} is not a {kind} object")
            self._commit([BatchOp("purge", object_id)])

    # ---------------------------------------------------------------- queries

    def match(self, pattern: TriplePattern):
        with self._lock:
            return self.index.match(pattern)

    def subjects(self, predicate: str, obj_term: Term) -> set[str]:
        """The subjects of the triples (?s, ``predicate``, ``obj_term``): live
        objects or their datastreams, as the index holds live objects only."""
        return {t.subject for t in self.match(
            TriplePattern(Var("?s"), Term.iri(predicate), obj_term))}

    def query(self, q: ConjunctiveQuery | str):
        if isinstance(q, str):
            q = parse_query(q)
        with self._lock:
            return self.index.evaluate(q)

    def explain(self, q: ConjunctiveQuery | str) -> list[dict]:
        """The join steps ``query`` runs for ``q``: each pattern, its
        estimate when planned and the rows after it."""
        if isinstance(q, str):
            q = parse_query(q)
        with self._lock:
            return self.index.explain(q)

    def changes_since(self, seq: int):
        return self.store.changes_since(seq)

    # ------------------------------------------------------------------ audit

    def audit(self) -> list[str]:
        """Full-scan ontology audit with the checker every write uses;
        returns one "{id}: {violation}" line per broken rule."""
        objects = list(self.store.objects())  # a snapshot taken under the lock
        live = {obj.id: obj.types for obj in objects}
        return [
            f"{obj.id}: {exc}" for obj in objects
            for exc in self.ontology.violations(obj.types, obj.relationships, live.get)
        ]

    # --------------------------------------------------------- disseminations

    def list_formats(self, object_id: str) -> set[str]:
        return self.disseminator.list_formats(object_id)

    def get_dissemination(self, object_id: str, format_id: str):
        return self.disseminator.get(object_id, format_id)
