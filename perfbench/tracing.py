"""Span tracer for the traced benchmark run.

The tracer wraps public entry points of the ``ino.*`` modules from outside
(by replacing class and module attributes) and restores them afterwards; the
program's source is never edited. Spans (name, start, end, parent, request
id) are kept in flat arrays in memory and written out once, at the end.

Parent links follow a per-thread stack. A span opened on a thread with an
empty stack (the HTTP handler thread) is attached to the client request that
is open at that moment: every workload is a closed loop with one client, so
at most one request is in flight.
"""

from __future__ import annotations

import array
import functools
import gzip
import os
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.rid = array.array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.windows: dict[str, tuple[float, float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request = -1
        self._next_rid = 0
        self._current_rid = 0
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------------- spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._request
        with self._lock:
            idx = len(self.start)
            self.name.append(self._name_id(name))
            self.start.append(time.perf_counter())
            self.end.append(0.0)
            self.parent.append(parent)
            self.rid.append(self._current_rid)
        stack.append(idx)
        return idx

    def finish(self, idx: int, rename: str | None = None) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()
        if rename is not None:
            with self._lock:
                self.name[idx] = self._name_id(rename)

    def span(self, name: str):
        return _Span(self, name)

    def request(self, name: str):
        """Span for one client operation; spans it causes share its id."""
        return _Span(self, name, request=True)

    # -------------------------------------------------------------- wrapping

    def _traced(self, fn, name, after=None):
        """``name`` is a span name or a function of the call's arguments;
        ``after(tracer, args, result)`` may count work and return a new name."""
        tracer = self
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name_of(args) if name_of else name)
            rename = None
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    rename = after(tracer, args, result)
            finally:
                tracer.finish(idx, rename)
            return result

        return traced

    def wrap_callable(self, fn, name: str):
        return self._traced(fn, name)

    def wrap_attr(self, owner, attr: str, name, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self._traced(original, name, after))
        self._patches.append((owner, attr, original))

    def wrap_function(self, fn, name: str, after=None) -> None:
        """Replace ``fn`` in every ``ino.*`` module namespace that binds it."""
        traced = self._traced(fn, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ino" or mod_name.startswith("ino.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
                    self._patches.append((mod, attr, fn))

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- output

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("idx,name,start,end,parent,rid\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write("%d,%s,%.9f,%.9f,%d,%d\n" % (
                    i, names[self.name[i]], self.start[i], self.end[i],
                    self.parent[i], self.rid[i]))


class _Span:
    def __init__(self, tracer: Tracer, name: str, request: bool = False):
        self.tracer = tracer
        self.name = name
        self.request = request

    def __enter__(self):
        t = self.tracer
        if self.request:
            t._next_rid += 1
            t._current_rid = t._next_rid
        self.idx = t.begin(self.name)
        if self.request:
            t._request = self.idx
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.finish(self.idx)
        if self.request:
            t._request = -1
            t._current_rid = 0
        return False


class Analysis:
    """Self and busy times per span name, derived from the recorded spans."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.start)
        names = [tracer.names[i] for i in tracer.name]
        start, end, parent = tracer.start, tracer.end, tracer.parent
        children: dict[int, list[int]] = defaultdict(list)
        for i in range(n):
            if parent[i] >= 0:
                children[parent[i]].append(i)
        self.count: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.self_by_span = [0.0] * n
        for i in range(n):
            name = names[i]
            dur = end[i] - start[i]
            covered = _union(
                (max(start[c], start[i]), min(end[c], end[i]))
                for c in children.get(i, ())
            )
            own = max(0.0, dur - covered)
            self.self_by_span[i] = own
            self.count[name] += 1
            self.self_time[name] += own
            p = parent[i]
            if p < 0 or names[p] != name:  # outermost of a same-name nest
                self.busy[name] += dur
        self.names = names
        self.start = start
        self.end = end
        self.parent = parent
        self.n = n

    def self_prefix(self, prefix: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))

    def count_in_window(self, name: str, t0: float, t1: float) -> int:
        return sum(
            1 for i in range(self.n)
            if self.names[i] == name and t0 <= self.start[i] <= t1
        )

    def under(self, root_names: set[str]) -> list[bool]:
        """For each span, whether it or an ancestor has one of ``root_names``."""
        flags = [False] * self.n
        for i in range(self.n):  # parents always precede their children
            p = self.parent[i]
            flags[i] = self.names[i] in root_names or (p >= 0 and flags[p])
        return flags


def _union(intervals) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


# ---------------------------------------------------------------- ino layers

LAYERS = ("api", "ontology", "model", "store", "index", "dissemination",
          "oai", "harvest", "service")

_API_WRITES = ("add_agent", "add_resource", "add_metadata", "create_aggregation",
               "update_metadata_payload", "add_relationship",
               "remove_relationship", "set_aggregation_membership",
               "purge_metadata", "purge_resource")
_API_READS = ("find_resource_by_url", "get_object", "query", "match",
              "members_of", "changes_since", "get_dissemination",
              "list_formats", "audit")
_LIST_VERBS = ("ListRecords", "ListIdentifiers")

# Per-layer metrics reported by every traced run, in BENCHMARK.json order.
PER_LAYER = (
    ("api.write.self_s", "s"),
    ("api.find_resource_by_url.busy_s", "s"),
    ("ontology.validate.calls", "count"),
    ("ontology.validate.busy_s", "s"),
    ("model.serialize.busy_s", "s"),
    ("model.serialize.bytes", "B"),
    ("model.deserialize.busy_s", "s"),
    ("store.commit.calls", "count"),
    ("store.commit.self_s", "s"),
    ("store.fsync_per_commit", "ratio"),
    ("store.open.busy_s", "s"),
    ("store.journal_bytes_per_object_byte", "ratio"),
    ("store.changes_since.busy_s", "s"),
    ("store.changes_since.events_scanned", "count"),
    ("index.index_object.busy_s", "s"),
    ("index.rebuild.busy_s", "s"),
    ("index.evaluate.busy_s", "s"),
    ("index.evaluate.rows_out", "count"),
    ("index.match.busy_s", "s"),
    ("index.triples", "count"),
    ("dissemination.get.literal.busy_s", "s"),
    ("dissemination.get.transformed.busy_s", "s"),
    ("dissemination.metrics_len", "count"),
    ("oai.select.busy_s", "s"),
    ("oai.select.scanned_per_returned", "ratio"),
    ("oai.render.self_s", "s"),
    ("oai.rebuild_cache.busy_s", "s"),
    ("oai.catch_up.busy_s", "s"),
    ("harvest.fetch.busy_s", "s"),
    ("harvest.ingest.busy_s", "s"),
    ("harvest.commits_per_record", "ratio"),
    ("harvest.fsyncs_per_record", "ratio"),
    ("service.handle.oai.busy_s", "s"),
    ("service.handle.object.busy_s", "s"),
    ("service.handle.dissemination.busy_s", "s"),
    ("service.handle.query.busy_s", "s"),
    ("service.handle.write_resource.busy_s", "s"),
    ("service.handle.write_metadata.busy_s", "s"),
    ("service.wire_ms", "ms"),
) + tuple((f"layer.{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.wall_s", "s"),
    ("trace.layer_self_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def _route(args) -> str:
    _svc, method, path = args[0], args[1], args[2]
    parts = [p for p in path.split("/") if p]
    if path == "/oai":
        route = "oai"
    elif parts[:1] == ["objects"] and method == "GET":
        route = "object" if len(parts) == 2 else "datastream"
    elif parts[:1] == ["objects"]:
        route = "write_" + (parts[1] if len(parts) > 1 else "")
    elif parts[:1] == ["disseminations"]:
        route = "dissemination"
    elif path == "/query":
        route = "query"
    else:
        route = "other"
    return "service.handle." + route


def _count(key, measure):
    def after(tracer, args, result):
        tracer.counts[key] += measure(args, result)
    return after


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every ino layer; undo with unwrap()."""
    from ino import api, dissemination, harvest, index, model, oai, ontology, service, store

    t = tracer
    repo = api.Repository
    t.wrap_attr(repo, "__init__", "api.open")
    for m in _API_WRITES:
        t.wrap_attr(repo, m, "api.write." + m)
    for m in _API_READS:
        t.wrap_attr(repo, m, "api." + m)

    t.wrap_attr(ontology.OntologyRegistry, "validate_relationship", "ontology.validate")
    t.wrap_attr(ontology.OntologyRegistry, "check_cardinality", "ontology.validate")

    t.wrap_function(model.serialize_object, "model.serialize",
                    _count("model.serialize.bytes", lambda a, r: len(r)))
    t.wrap_function(model.deserialize_object, "model.deserialize")
    t.wrap_function(model.validate_object, "model.validate")

    st = store.ObjectStore
    t.wrap_attr(st, "__init__", "store.open")
    t.wrap_attr(st, "commit_batch", "store.commit")
    t.wrap_attr(st, "changes_since", "store.changes_since",
                _count("store.events_scanned", lambda a, r: a[0].current_seq))
    t.wrap_attr(st, "close", "store.close")
    t.wrap_attr(os, "fsync", "store.fsync")

    ix = index.TripleIndex
    t.wrap_attr(ix, "index_object", "index.index_object")
    t.wrap_attr(ix, "deindex_object", "index.deindex_object")
    t.wrap_attr(ix, "rebuild", "index.rebuild")
    t.wrap_attr(ix, "evaluate", "index.evaluate",
                _count("index.rows_out", lambda a, r: len(r)))
    t.wrap_attr(ix, "match", "index.match")

    def dissemination_path(tracer, args, result):
        return ("dissemination.get.literal" if result[2] == dissemination.LITERAL
                else "dissemination.get.transformed")

    t.wrap_attr(dissemination.Disseminator, "get", "dissemination.get",
                dissemination_path)
    t.wrap_attr(dissemination.Disseminator, "list_formats",
                "dissemination.list_formats")

    def returned(args, result):
        return result.count(b"<header") if args[1].get("verb") in _LIST_VERBS else 0

    prov = oai.OaiProvider
    t.wrap_attr(prov, "handle_request", "oai.handle_request",
                _count("oai.returned", returned))
    t.wrap_attr(prov, "select", "oai.select",
                _count("oai.scanned", lambda a, r: len(a[0].records)))
    t.wrap_attr(prov, "rebuild_cache", "oai.rebuild_cache")
    t.wrap_attr(prov, "catch_up", "oai.catch_up")
    t.wrap_attr(prov, "save_cache", "oai.save_cache")
    t.wrap_attr(prov, "load_cache", "oai.load_cache")

    t.wrap_attr(harvest.Harvester, "harvest", "harvest.harvest")

    t.wrap_attr(service.Service, "__init__", "service.open")
    t.wrap_attr(service.Service, "handle", _route)
    t.wrap_attr(service.Service, "close", "service.close")


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Derive the per-layer metrics from the spans and counters.

    The traced wall time is the set-up and measured-block spans minus the
    correctness checks inside them; ``trace.layer_self_share`` is the summed
    self time of the ino layer spans inside that window over the window.
    """
    a = Analysis(tracer)
    c = tracer.counts
    # the harvest that loads a fresh repository; re-harvests commit nothing
    load_harvest = tracer.windows.get("harvest.load", (0.0, -1.0))

    def ratio(num, den):
        return num / den if den else 0.0

    roots = {"bench.setup", "bench.measure"}
    in_run = a.under(roots)
    in_check = a.under({"bench.check"})
    wall = 0.0
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i in range(a.n):
        name, p = a.names[i], a.parent[i]
        if name in roots and p < 0:
            wall += a.end[i] - a.start[i]
        elif name == "bench.check" and in_run[i] and not (p >= 0 and in_check[p]):
            wall -= a.end[i] - a.start[i]
        layer = name.split(".", 1)[0]
        if in_run[i] and not in_check[i] and layer in layer_self:
            layer_self[layer] += a.self_by_span[i]

    m = {
        "api.write.self_s": a.self_prefix("api.write."),
        "api.find_resource_by_url.busy_s": a.busy["api.find_resource_by_url"],
        "ontology.validate.calls": a.count["ontology.validate"],
        "ontology.validate.busy_s": a.busy["ontology.validate"],
        "model.serialize.busy_s": a.busy["model.serialize"],
        "model.serialize.bytes": c["model.serialize.bytes"],
        "model.deserialize.busy_s": a.busy["model.deserialize"],
        "store.commit.calls": a.count["store.commit"],
        "store.commit.self_s": a.self_time["store.commit"],
        "store.fsync_per_commit": ratio(a.count["store.fsync"], a.count["store.commit"]),
        "store.open.busy_s": a.busy["store.open"],
        "store.journal_bytes_per_object_byte": ratio(c["store.journal_bytes"],
                                                     c["store.object_bytes"]),
        "store.changes_since.busy_s": a.busy["store.changes_since"],
        "store.changes_since.events_scanned": c["store.events_scanned"],
        "index.index_object.busy_s": a.busy["index.index_object"],
        "index.rebuild.busy_s": a.busy["index.rebuild"],
        "index.evaluate.busy_s": a.busy["index.evaluate"],
        "index.evaluate.rows_out": c["index.rows_out"],
        "index.match.busy_s": a.busy["index.match"],
        "index.triples": c["index.triples"],
        "dissemination.get.literal.busy_s": a.busy["dissemination.get.literal"],
        "dissemination.get.transformed.busy_s": a.busy["dissemination.get.transformed"],
        "dissemination.metrics_len": c["dissemination.metrics_len"],
        "oai.select.busy_s": a.busy["oai.select"],
        "oai.select.scanned_per_returned": ratio(c["oai.scanned"], c["oai.returned"]),
        "oai.render.self_s": a.self_time["oai.handle_request"],
        "oai.rebuild_cache.busy_s": a.busy["oai.rebuild_cache"],
        "oai.catch_up.busy_s": a.busy["oai.catch_up"],
        "harvest.fetch.busy_s": a.busy["harvest.fetch"],
        "harvest.ingest.busy_s": a.busy["harvest.harvest"] - a.busy["harvest.fetch"],
        "harvest.commits_per_record": ratio(
            a.count_in_window("store.commit", *load_harvest), c["harvest.load_records"]),
        "harvest.fsyncs_per_record": ratio(
            a.count_in_window("store.fsync", *load_harvest), c["harvest.load_records"]),
        "service.wire_ms": 1000.0 * ratio(a.self_time["service.wire"],
                                          a.count["service.wire"]),
        "trace.wall_s": wall,
        "trace.layer_self_share": ratio(sum(layer_self.values()), wall),
        "trace.overhead_s": overhead_s,
        "trace.spans": a.n,
    }
    for route in ("oai", "object", "dissemination", "query",
                  "write_resource", "write_metadata"):
        m[f"service.handle.{route}.busy_s"] = a.busy["service.handle." + route]
    for layer, value in layer_self.items():
        m[f"layer.{layer}.self_s"] = value
    return m
