"""OAI-PMH 2.0 harvester client: ingests an external provider's records into
the repository through the high-level API, following resumption tokens.

Each harvested record is one addMetadata commit, its target the resource at
its first http(s) dc:identifier, found by URL or created in that commit;
provenance triples (sourceRecordId, sourceBaseUrl, sourceSet) make re-harvests
idempotent. A record deleted upstream purges the live metadata object
harvested from it, and leaves its resource in place.
"""

from __future__ import annotations

import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from xml.etree import ElementTree as ET

from .api import MetadataSpec, Repository, ResourceSpec
from .errors import InoError, RemoteProtocolError
from .model import (
    SOURCE_BASE_URL,
    SOURCE_RECORD_ID,
    SOURCE_SET,
    Term,
)
from .oai import OAI_NS

_BENIGN_ERRORS = {"noRecordsMatch"}


@dataclass
class IngestStats:
    records: int = 0
    created_resources: int = 0
    created_metadata: int = 0
    updated: int = 0
    unchanged: int = 0
    skipped: int = 0  # records nothing was ingested from, deleted ones too
    deleted: int = 0  # of the skipped deleted records, those that purged a copy
    failures: list[str] = field(default_factory=list)


def _q(tag: str) -> str:
    return f"{{{OAI_NS}}}{tag}"


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[1] if tag.startswith("{") else tag


class Harvester:
    def __init__(self, repo: Repository, fetch=None):
        self.repo = repo
        # fetch(url) -> bytes; injectable for tests and loopback harvests
        self._fetch = fetch or self._http_fetch

    @staticmethod
    def _http_fetch(url: str) -> bytes:
        with urllib.request.urlopen(url, timeout=60) as resp:
            return resp.read()

    def harvest(self, base_url: str, metadata_prefix: str,
                set_spec: str | None = None,
                from_ts: str | None = None) -> IngestStats:
        stats = IngestStats()
        agent = self._source_agent(base_url)
        agg = self._source_aggregation(base_url, set_spec, agent)

        params = {"verb": "ListRecords", "metadataPrefix": metadata_prefix}
        if set_spec:
            params["set"] = set_spec
        if from_ts:
            params["from"] = from_ts
        while True:
            url = base_url + "?" + urllib.parse.urlencode(params)
            root = self._request(url, "ListRecords")
            if root is None:  # noRecordsMatch
                break
            list_el = root.find(_q("ListRecords"))
            if list_el is None:
                raise RemoteProtocolError("ListRecords: missing result element")
            for record in list_el.findall(_q("record")):
                self._ingest_record(record, metadata_prefix, agent, agg, stats)
            token_el = list_el.find(_q("resumptionToken"))
            if token_el is None or not (token_el.text or "").strip():
                break
            params = {"verb": "ListRecords",
                      "resumptionToken": token_el.text.strip()}
        return stats

    # ------------------------------------------------------------- internals

    def _request(self, url: str, verb: str):
        try:
            data = self._fetch(url)
        except OSError as exc:
            raise RemoteProtocolError(f"{verb}: transport failure: {exc}") from exc
        try:
            root = ET.fromstring(data)
        except ET.ParseError as exc:
            raise RemoteProtocolError(f"{verb}: unparseable response") from exc
        error = root.find(_q("error"))
        if error is not None:
            code = error.get("code", "unknown")
            if code in _BENIGN_ERRORS:
                return None
            raise RemoteProtocolError(f"{verb}: OAI error {code}")
        return root

    def _ingest_record(self, record, metadata_prefix, agent, agg, stats):
        stats.records += 1
        header = record.find(_q("header"))
        if header is None:
            stats.failures.append("record without header")
            return
        oai_id = (header.findtext(_q("identifier")) or "").strip()
        if header.get("status") == "deleted":
            stats.skipped += 1
            self._purge_deleted(oai_id, stats)
            return
        metadata_el = record.find(_q("metadata"))
        if metadata_el is None or len(metadata_el) == 0:
            stats.skipped += 1
            return
        payload_root = metadata_el[0]
        payload = ET.tostring(payload_root, encoding="unicode").encode("utf-8")

        content_url = self._first_http_identifier(payload_root)
        if content_url is None:
            stats.skipped += 1
            return
        try:
            existing = self._live_subject(SOURCE_RECORD_ID, oai_id)
            if existing is not None:
                current = self.repo.get_dissemination(existing, metadata_prefix)[0]
                if current == payload:
                    stats.unchanged += 1
                else:
                    self.repo.update_metadata_payload(existing, metadata_prefix,
                                                      payload)
                    stats.updated += 1
                return
            before = self.repo.store.count()
            self.repo.add_metadata(
                MetadataSpec(
                    target=ResourceSpec(content_url=content_url,
                                        initial_aggregations=frozenset({agg})),
                    format_id=metadata_prefix,
                    payload=payload,
                    provider=agent,
                    initial_aggregations=frozenset({agg}),
                ),
                extra_relationships=[(SOURCE_RECORD_ID, Term.literal(oai_id))],
            )
            stats.created_metadata += 1
            if self.repo.store.count() - before == 2:  # the resource is new
                stats.created_resources += 1
        except InoError as exc:
            stats.failures.append(f"{oai_id}: {exc}")

    def _purge_deleted(self, oai_id: str, stats: IngestStats) -> None:
        """Purge the live metadata object harvested from ``oai_id``, if any.
        Its resource stays: other metadata may describe it, and resources are
        deduplicated by URL."""
        try:
            existing = self._live_subject(SOURCE_RECORD_ID, oai_id)
            if existing is not None:
                self.repo.purge_metadata(existing)
                stats.deleted += 1
        except InoError as exc:
            stats.failures.append(f"{oai_id}: {exc}")

    @staticmethod
    def _first_http_identifier(payload_root) -> str | None:
        for el in payload_root.iter():
            if _localname(el.tag) == "identifier":
                text = (el.text or "").strip()
                if text.startswith(("http://", "https://")):
                    return text
        return None

    def _live_subject(self, predicate: str, literal: str) -> str | None:
        """A live object with ``literal`` as its ``predicate``, if any."""
        return min(self.repo.subjects(predicate, Term.literal(literal)),
                   default=None)

    def _source_agent(self, base_url: str) -> str:
        return self._live_subject(SOURCE_BASE_URL, base_url) or self.repo.add_agent(
            base_url, "Service",
            extra_relationships=[(SOURCE_BASE_URL, Term.literal(base_url))],
        )

    def _source_aggregation(self, base_url: str, set_spec: str | None,
                            agent: str) -> str:
        key = f"{base_url}|{set_spec or ''}"
        return self._live_subject(SOURCE_SET, key) or self.repo.create_aggregation(
            agent, ResourceSpec(content_url=base_url),
            extra_relationships=[(SOURCE_SET, Term.literal(key))],
        )
