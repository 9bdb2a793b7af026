"""HTTP service binding: REST admin/query routes plus the mounted OAI-PMH
endpoint at /oai. Mutating routes require the static API key header X-INO-Key.
"""

from __future__ import annotations

import base64
import json
import logging
import secrets
import sys
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from .api import MetadataSpec, Repository, ResourceSpec
from .errors import (
    CardinalityViolation,
    ConfigError,
    DomainViolation,
    DuplicateId,
    FormatUnavailable,
    HasDependents,
    InoError,
    InvalidObject,
    NotFound,
    QuerySyntaxError,
    QueryTooLarge,
    RangeViolation,
    UnknownAgent,
    UnknownAggregation,
    UnknownMember,
    UnknownPredicate,
    UnknownResource,
)
from .model import ID_PREFIX, format_ts, local_id, parse_int
from .oai import OaiProvider
from .ontology import OntologyRegistry

_STATUS_BY_ERROR = (
    ((NotFound, FormatUnavailable), 404),
    (DuplicateId, 409),
    (HasDependents, 409),
    ((UnknownAggregation, UnknownResource, UnknownAgent, UnknownMember), 422),
    ((DomainViolation, RangeViolation, CardinalityViolation, UnknownPredicate,
      QueryTooLarge), 422),
    ((InvalidObject, QuerySyntaxError), 400),
)

DEFAULT_CONFIG = {
    "dataDir": "data",
    "port": "8080",
    "apiKey": "",
    "ontologyPath": "",
    "pageSize": "100",
}

# the largest request body read; a longer Content-Length is answered 413
MAX_BODY_BYTES = 16 * 1024 * 1024

# seconds a connection may stay silent, between requests or inside one,
# before the server closes it and frees its handler thread
IDLE_TIMEOUT_S = 60

# one JSON line per request at INFO; ``ino serve`` sends it to stderr
_ACCESS_LOG = logging.getLogger("ino.access")


def load_config(path) -> dict:
    config = dict(DEFAULT_CONFIG)
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        # a value may hold '#' (an apiKey may), so comments are whole lines
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in DEFAULT_CONFIG:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        config[key] = value.strip()
    return config


class Service:
    """Owns the repository, the OAI provider, and their HTTP binding."""

    def __init__(self, config: dict, clock=None):
        # a page takes islice(records, page_size + 1), which stops at maxsize
        text = str(config.get("pageSize", "100"))
        page_size = parse_int(text, sys.maxsize - 1)
        if not (page_size and page_size < sys.maxsize):
            raise ConfigError(f"pageSize: expected a positive integer below "
                              f"{sys.maxsize}, got {text!r}")
        text = str(config.get("port", DEFAULT_CONFIG["port"]))
        self.port = parse_int(text, 65535)  # 0: any free port
        if self.port is None or self.port > 65535:
            raise ConfigError(f"port: expected an integer in 0..65535, got {text!r}")
        ontology = None
        if config.get("ontologyPath"):
            ontology = OntologyRegistry.load(
                Path(config["ontologyPath"]).read_text()
            )
        self.repo = Repository(config["dataDir"], ontology=ontology, clock=clock)
        self.api_key = config.get("apiKey", "")
        self.provider = OaiProvider(self.repo, page_size=page_size)
        self.provider.rebuild_cache()

    def close(self) -> None:
        self.repo.close()

    # ------------------------------------------------------------- http glue

    def serve(self, port: int, host: str = "127.0.0.1") -> ThreadingHTTPServer:
        service = self

        class Handler(_Handler):
            pass

        Handler.service = service
        Handler.timeout = IDLE_TIMEOUT_S  # the socket timeout of each connection
        return ThreadingHTTPServer((host, port), Handler)

    def serve_forever(self, port: int, host: str = "127.0.0.1") -> None:
        server = self.serve(port, host)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
            self.close()

    # -------------------------------------------------------------- handlers

    def handle(self, method: str, path: str, query: dict, body: bytes,
               headers, repeated: frozenset[str] = frozenset()
               ) -> tuple[int, str, bytes]:
        """The status, media type and body that answer a request;
        ``repeated`` names the arguments its query gives more than once."""
        parts = [p for p in path.split("/") if p]
        if path == "/oai":
            if method == "POST":  # OAI-PMH allows form-encoded arguments
                query, repeated = _arguments(body.decode("utf-8"))
            return 200, "text/xml", self.provider.handle_request(query, repeated)

        if method == "GET" and len(parts) == 2 and parts[0] == "objects":
            obj = self.repo.get_object(ID_PREFIX + parts[1])
            return 200, "application/json", _object_json(obj)
        if (method == "GET" and len(parts) == 4 and parts[0] == "objects"
                and parts[2] == "datastreams"):
            obj = self.repo.get_object(ID_PREFIX + parts[1])
            ds = obj.datastream(parts[3])
            if ds is None:
                raise NotFound(f"datastream {parts[3]}")
            if ds.is_surrogate:
                return 302, ds.surrogate, b""
            return 200, ds.media_type, ds.content
        if method == "GET" and len(parts) == 3 and parts[0] == "disseminations":
            data, media, _ = self.repo.get_dissemination(
                ID_PREFIX + parts[1], parts[2]
            )
            return 200, media, data
        if method == "POST" and path == "/query" and query.get("explain") == "1":
            plan = self.repo.explain(body.decode("utf-8"))
            return 200, "application/json", json.dumps({"plan": plan}).encode()
        if method == "POST" and path == "/query":
            rows = self.repo.query(body.decode("utf-8"))
            out = [
                {var: {"kind": term.kind, "value": term.value}
                 for var, term in row.items}
                for row in sorted(rows, key=lambda r: r.items)
            ]
            return 200, "application/json", json.dumps({"rows": out}).encode()

        # mutating routes
        if method == "POST" and len(parts) == 2 and parts[0] == "objects":
            self._check_key(headers)
            doc = json.loads(body or b"{}")
            if not isinstance(doc, dict):
                raise InvalidObject("body: expected a JSON object")
            oid = self._create_object(parts[1], doc)
            return 201, "application/json", json.dumps({"id": oid}).encode()
        if (method == "PUT" and len(parts) == 3 and parts[0] == "aggregations"
                and parts[2] == "members"):
            self._check_key(headers)
            doc = json.loads(body)
            if not (isinstance(doc, list) and all(isinstance(m, str) for m in doc)):
                raise InvalidObject("body: expected a JSON array of member ids")
            members = {ID_PREFIX + m for m in doc}
            delta = self.repo.set_aggregation_membership(
                ID_PREFIX + parts[1], members
            )
            return 200, "application/json", json.dumps(
                {"added": sorted(local_id(m) for m in delta.added),
                 "removed": sorted(local_id(m) for m in delta.removed)}
            ).encode()
        raise NotFound(path)

    def _check_key(self, headers) -> None:
        if self.api_key and headers.get("X-INO-Key") != self.api_key:
            raise PermissionError("bad or missing X-INO-Key")

    def _create_object(self, kind: str, body: dict) -> str:
        if kind == "agent":
            oid = self.repo.add_agent(_field(body, "name"), _field(body, "kind"))
        elif kind == "resource":
            oid = self.repo.add_resource(_resource_spec(body))
        elif kind == "metadata":
            payload = _field(body, "payload")
            if _field(body, "payloadEncoding", default=None) == "base64":
                payload = base64.b64decode(payload, validate=True)
            else:
                payload = payload.encode("utf-8")
            oid = self.repo.add_metadata(
                MetadataSpec(
                    target=ID_PREFIX + _field(body, "target"),
                    format_id=_field(body, "formatId"),
                    payload=payload,
                    provider=ID_PREFIX + _field(body, "provider"),
                    initial_aggregations=_id_set(body, "initialAggregations"),
                )
            )
        elif kind == "aggregation":
            oid = self.repo.create_aggregation(
                ID_PREFIX + _field(body, "agent"),
                _resource_spec(_field(body, "proxy", dict, {})),
            )
        else:
            raise NotFound(f"object kind {kind!r}")
        return local_id(oid)


def _arguments(text: str) -> tuple[dict[str, str], frozenset[str]]:
    """The form-encoded arguments in ``text`` that have a value, the last
    value of each, and the names it gives more than once, blank or not."""
    pairs = parse_qsl(text, keep_blank_values=True)
    counts = Counter(name for name, _ in pairs)
    return ({name: value for name, value in pairs if value},
            frozenset(name for name, n in counts.items() if n > 1))


def _resource_spec(body: dict) -> ResourceSpec:
    content = _field(body, "content", default=None)
    if content is not None:
        content = base64.b64decode(content, validate=True)
    return ResourceSpec(
        content_url=_field(body, "contentUrl", default=None),
        content=content,
        media_type=_field(body, "mediaType", default=None),
        initial_aggregations=_id_set(body, "initialAggregations"),
    )


def _field(body: dict, key: str, kind: type = str, default=""):
    """``body[key]``, which must be a ``kind`` (or null where ``default`` is
    None); ``default`` when the key is absent."""
    value = body.get(key, default)
    if not isinstance(value, kind) and value is not default:
        raise InvalidObject(
            f"{key}: expected a JSON {'string' if kind is str else 'object'}")
    return value


def _id_set(body: dict, key: str) -> frozenset:
    value = body.get(key, [])
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise InvalidObject(f"{key}: expected a JSON array of ids")
    return frozenset(ID_PREFIX + v for v in value)


def _object_json(obj) -> bytes:
    streams = []
    for ds in obj.datastreams:
        d = {"dsId": ds.ds_id, "mediaType": ds.media_type}
        if ds.is_surrogate:
            d["surrogate"] = ds.surrogate
        else:
            d["contentBase64"] = base64.b64encode(ds.content).decode("ascii")
        streams.append(d)
    return json.dumps(
        {
            "id": local_id(obj.id),
            "types": list(obj.types),
            "state": obj.state,
            "created": format_ts(obj.created),
            "modified": format_ts(obj.modified),
            "seq": obj.seq,
            "datastreams": streams,
            "relationships": [
                {"predicate": t.predicate, "object": t.object.value,
                 "kind": t.object.kind}
                for t in obj.relationships
            ],
        }
    ).encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    service: Service = None
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):  # quiet test output
        pass

    def _dispatch(self, method: str):
        self._started = time.perf_counter()
        split = urlsplit(self.path)
        query, repeated = _arguments(split.query)
        length = self.headers.get("Content-Length", "0")
        size = parse_int(length, MAX_BODY_BYTES)
        if size is None or size > MAX_BODY_BYTES:
            # the body's end is unknown, or the body is left unread: nothing
            # more on this connection can be read as a request
            self.close_connection = True
            if size is None:
                return self._send_error(400, error=f"bad Content-Length: {length!r}")
            return self._send_error(413, error=f"body over {MAX_BODY_BYTES} bytes")
        # a body that stalls past the timeout raises TimeoutError, which
        # closes the connection (BaseHTTPRequestHandler.handle_one_request)
        body = self.rfile.read(size)
        try:
            status, media, data = self.service.handle(
                method, split.path, query, body, self.headers, repeated
            )
        except PermissionError as exc:
            return self._send_error(403, error=str(exc))
        except InoError as exc:
            return self._send_error(_status_for(exc), error=type(exc).__name__,
                                    message=str(exc))
        except ValueError as exc:  # bad JSON, UTF-8 or base64
            return self._send_error(400, error=f"bad request body: {exc}")
        except Exception as exc:  # every request gets a response
            # the id ties the answer the client saw to the logged traceback
            error_id = secrets.token_hex(4)
            logging.getLogger(__name__).exception(
                "%s %s failed (errorId %s)", method, self.path, error_id)
            return self._send_error(500, error=type(exc).__name__,
                                    message=str(exc), errorId=error_id)
        self._send(status, media, data)

    def _send_error(self, status, **body):
        """Answer with ``body`` as the JSON error document, its keys in the
        order given; an ``errorId`` also goes to the access log."""
        self._send(status, "application/json", json.dumps(body).encode(),
                   error_id=body.get("errorId"))

    def _send(self, status, media, data, error_id=None):
        """Answer the request: ``media`` is the Content-Type, or the Location
        of a 302. The status line, headers and body go out in one write: a
        body sent after the headers would wait for the client's delayed ACK
        under Nagle's algorithm, about 40 ms on every keep-alive request."""
        if _ACCESS_LOG.isEnabledFor(logging.INFO):
            entry = {"method": self.command, "route": urlsplit(self.path).path,
                     "status": status,
                     "ms": round(1000 * (time.perf_counter() - self._started), 3),
                     "bytes": len(data)}
            if error_id is not None:
                entry["errorId"] = error_id
            _ACCESS_LOG.info(json.dumps(entry))
        self.send_response(status)
        self.send_header("Location" if status == 302 else "Content-Type", media)
        self.send_header("Content-Length", str(len(data)))
        # end_headers() would send the buffered header lines on their own;
        # like it, send none to an HTTP/0.9 request
        if self.request_version != "HTTP/0.9":
            data = b"".join(self._headers_buffer) + b"\r\n" + data
            self._headers_buffer = []
        self.wfile.write(data)

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

    def do_PUT(self):
        self._dispatch("PUT")


def _status_for(exc: InoError) -> int:
    for types, status in _STATUS_BY_ERROR:
        if isinstance(exc, types):
            return status
    return 500
