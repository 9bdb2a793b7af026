"""High-level repository API. Every operation is an atomic composition of
store and index primitives: it validates against the ontology first, then
commits all touched objects in one batch, so a failing call leaves the
object count, event log, and triple count unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from urllib.parse import urlsplit, urlunsplit
from xml.parsers.expat import ExpatError

from .dissemination import (
    FORMAT_DS_PREFIX,
    CrosswalkRegistry,
    Disseminator,
    check_xml,
    is_format_id,
)
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


def _check_payload(payload: bytes) -> None:
    """``InvalidObject`` unless ``payload`` is a well-formed XML document."""
    if not payload:
        raise InvalidObject("payload: must be non-empty")
    try:
        check_xml(payload)
    except ExpatError as exc:
        raise InvalidObject(f"payload: not well-formed XML ({exc})") from exc


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
                 clock: Clock | None = None, durable: bool = True,
                 crosswalks: CrosswalkRegistry | None = None):
        self.ontology = ontology or OntologyRegistry.load()
        self.store = ObjectStore(root, clock=clock, durable=durable)
        self.index = TripleIndex()
        self.index.rebuild(self.store.objects())
        self.store.on_commit(self._on_commit)
        self.disseminator = Disseminator(self.store.get, crosswalks)
        self._lock = self.store._lock  # one atomicity domain
        self._next_id = self._scan_next_id()

    def close(self) -> None:
        self.store.close()

    def _on_commit(self, applied) -> None:
        for kind, _old, new in applied:
            if kind == "purge":
                self.index.deindex_object(new.id)
            else:
                self.index.index_object(new)

    def _scan_next_id(self) -> int:
        top = 0
        for ev in self.store.changes_since(0):
            m = _ID_SUFFIX_RE.match(ev.object_id[len(ID_PREFIX):])
            if m:
                top = max(top, int(m.group(1)))
        return top + 1

    def _new_id(self, prefix: str) -> str:
        oid = f"{ID_PREFIX}{prefix}-{self._next_id}"
        self._next_id += 1
        return oid

    # --------------------------------------------------------------- lookups

    def get_object(self, object_id: str) -> DigitalObject:
        return self.store.get(object_id)

    def _live_types(self, object_id: str):
        if self.store.exists(object_id):
            return self.store.get(object_id).types
        return None

    def _require_type(self, object_id: str, type_name: str, error_cls) -> None:
        types = self._live_types(object_id)
        if types is None or type_name not in types:
            raise error_cls(object_id)

    def _commit(self, ops: list[BatchOp]) -> list[DigitalObject]:
        """Check the final relationship list of every object the batch
        creates or relinks against the ontology, raise the first violation,
        then commit the batch all-or-nothing. Relationship targets may be
        objects that the same batch creates."""
        created = {op.object_id: op.draft.types for op in ops if op.kind == "create"}

        def types_of(object_id):
            return created.get(object_id) or self._live_types(object_id)

        for op in ops:
            if op.kind == "create":
                types, triples = op.draft.types, op.draft.relationships
            elif op.relationships is not None:
                types, triples = self.store.get(op.object_id).types, op.relationships
            else:
                continue
            for exc in self.ontology.violations(types, triples, types_of):
                raise exc
        return self.store.commit_batch(ops)

    def find_resource_by_url(self, url: str) -> str | None:
        norm = normalize_url(url)
        hits = self.index.match(
            TriplePattern(Var("?ds"), Term.iri(LOCATION), Term.literal(norm))
        )
        for t in hits:
            if t.subject.endswith("/content"):
                oid = t.subject[: -len("/content")]
                if self.store.exists(oid) and "Resource" in self.store.get(oid).types:
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
            self._require_type(agg, "Aggregation", UnknownAggregation)
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
            Triple(oid, MEMBER_OF, Term.iri(a))
            for a in sorted(spec.initial_aggregations)
        )
        draft = make_draft(oid, ("Resource",), datastreams=[ds], relationships=rels)
        return oid, [BatchOp("create", oid, draft=draft)]

    def add_metadata(self, spec: MetadataSpec, extra_relationships=()) -> str:
        """One commit: the metadata object and, when ``spec.target`` is a
        ResourceSpec with no live resource at its URL, that resource."""
        with self._lock:
            if isinstance(spec.target, str):
                self._require_type(spec.target, "Resource", UnknownResource)
            self._require_type(spec.provider, "Agent", UnknownAgent)
            for agg in spec.initial_aggregations:
                self._require_type(agg, "Aggregation", UnknownAggregation)
            _check_payload(spec.payload)
            if not is_format_id(spec.format_id):
                raise InvalidObject(f"formatId: malformed {spec.format_id!r}")
            target, ops = ((spec.target, []) if isinstance(spec.target, str)
                           else self._resource_ops(spec.target))
            oid = self._new_id("metadata")
            rels = [
                Triple(oid, METADATA_FOR, Term.iri(target)),
                Triple(oid, PROVIDED_BY, Term.iri(spec.provider)),
            ]
            rels += [
                Triple(oid, MEMBER_OF, Term.iri(a))
                for a in sorted(spec.initial_aggregations)
            ]
            rels += [Triple(oid, p, o) for p, o in extra_relationships]
            draft = make_draft(
                oid, ("Metadata",),
                datastreams=[
                    Datastream(FORMAT_DS_PREFIX + spec.format_id, "text/xml",
                               content=spec.payload)
                ],
                relationships=rels,
            )
            self._commit(ops + [BatchOp("create", oid, draft=draft)])
            return oid

    def update_metadata_payload(self, object_id: str, format_id: str,
                                payload: bytes) -> None:
        with self._lock:
            obj = self.store.get(object_id)
            if "Metadata" not in obj.types:
                raise UnknownResource(f"{object_id} is not a Metadata object")
            _check_payload(payload)
            ds_id = FORMAT_DS_PREFIX + format_id
            replaced = False
            streams = []
            for ds in obj.datastreams:
                if ds.ds_id == ds_id:
                    streams.append(Datastream(ds_id, ds.media_type, content=payload))
                    replaced = True
                else:
                    streams.append(ds)
            if not replaced:
                streams.append(Datastream(ds_id, "text/xml", content=payload))
            self._commit([BatchOp("modify", object_id, datastreams=tuple(streams))])

    def create_aggregation(self, agent: str, proxy: ResourceSpec,
                           extra_relationships=()) -> str:
        with self._lock:
            self._require_type(agent, "Agent", UnknownAgent)
            proxy_id, ops = self._resource_ops(proxy)
            agg_id = self._new_id("agg")
            rels = [Triple(agg_id, REPRESENTED_BY, Term.iri(proxy_id))]
            rels += [Triple(agg_id, p, o) for p, o in extra_relationships]
            agg_draft = make_draft(agg_id, ("Aggregation",), relationships=rels)
            ops.append(BatchOp("create", agg_id, draft=agg_draft))
            agent_rels = self.store.get(agent).relationships + (
                Triple(agent, AGGREGATOR_FOR, Term.iri(agg_id)),
            )
            ops.append(BatchOp("modify", agent, relationships=agent_rels))
            self._commit(ops)
            return agg_id

    def members_of(self, agg: str) -> set[str]:
        hits = self.index.match(
            TriplePattern(Var("?x"), Term.iri(MEMBER_OF), Term.iri(agg))
        )
        return {t.subject for t in hits}

    def set_aggregation_membership(self, agg: str, members) -> MembershipDelta:
        with self._lock:
            self._require_type(agg, "Aggregation", UnknownAggregation)
            members = set(members)
            for m in members:
                types = self._live_types(m)
                if types is None or not ({"Resource", "Metadata"} & set(types)):
                    raise UnknownMember(m)
            current = self.members_of(agg)
            added = members - current
            removed = current - members
            ops = []
            agg_term = Term.iri(agg)
            for m in sorted(added):
                obj = self.store.get(m)
                rels = obj.relationships + (Triple(m, MEMBER_OF, agg_term),)
                ops.append(BatchOp("modify", m, relationships=rels))
            for m in sorted(removed):
                obj = self.store.get(m)
                rels = tuple(
                    t for t in obj.relationships
                    if not (t.predicate == MEMBER_OF and t.object == agg_term)
                )
                ops.append(BatchOp("modify", m, relationships=rels))
            if ops:
                self._commit(ops)
            return MembershipDelta(frozenset(added), frozenset(removed))

    def add_relationship(self, subj: str, predicate: str, obj) -> None:
        """obj: an object id (str) or a literal Term."""
        with self._lock:
            subject = self.store.get(subj)  # NotFound if not live
            triple = Triple(subj, predicate, self._relationship_term(obj))
            if triple in subject.relationships:
                return  # relationships are a set; re-asserting is a no-op
            rels = subject.relationships + (triple,)
            self._commit([BatchOp("modify", subj, relationships=rels)])

    def remove_relationship(self, subj: str, predicate: str, obj) -> None:
        with self._lock:
            subject = self.store.get(subj)
            term = self._relationship_term(obj)
            triple = Triple(subj, predicate, term)
            if triple not in subject.relationships:
                raise NotFound(f"no such relationship on {subj}")
            rels = tuple(t for t in subject.relationships if t != triple)
            self._commit([BatchOp("modify", subj, relationships=rels)])

    @staticmethod
    def _relationship_term(obj) -> Term:
        if isinstance(obj, Term):
            return obj
        return Term.iri(obj)

    def purge_metadata(self, object_id: str) -> None:
        with self._lock:
            obj = self.store.get(object_id)
            if "Metadata" not in obj.types:
                raise NotFound(f"{object_id} is not a Metadata object")
            self._commit([BatchOp("purge", object_id)])

    def purge_resource(self, object_id: str) -> None:
        with self._lock:
            obj = self.store.get(object_id)
            if "Resource" not in obj.types:
                raise NotFound(f"{object_id} is not a Resource object")
            dependents = []
            for t in self.index.match(
                TriplePattern(Var("?m"), Term.iri(METADATA_FOR), Term.iri(object_id))
            ):
                if self.store.exists(t.subject):
                    dependents.append(t.subject)
            for t in self.index.match(
                TriplePattern(Var("?a"), Term.iri(REPRESENTED_BY), Term.iri(object_id))
            ):
                if self.store.exists(t.subject):
                    dependents.append(t.subject)
            if dependents:
                raise HasDependents(dependents)
            self._commit([BatchOp("purge", object_id)])

    # ---------------------------------------------------------------- queries

    def match(self, pattern: TriplePattern):
        with self._lock:
            return self.index.match(pattern)

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
