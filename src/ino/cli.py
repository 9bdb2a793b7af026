"""Command-line entry point: serve, harvest, generate, bench, audit,
rebuild-index, rebuild-oai-cache, export.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from itertools import chain
from pathlib import Path

from .api import Repository
from .bench import bench_all
from .corpus import CorpusProfile, generate_corpus
from .errors import InoError
from .harvest import Harvester
from .index import extract_triples
from .model import VirtualClock
from .oai import OaiProvider
from .service import Service, load_config
from .store import LOG_FILE, ObjectStore


def _add_data_dir(parser):
    parser.add_argument("--data-dir", default="data", help="repository root")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ino")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the HTTP service")
    p.add_argument("--config", required=True)
    p.add_argument("--host", default="127.0.0.1")

    p = sub.add_parser("harvest", help="ingest from an external OAI-PMH provider")
    _add_data_dir(p)
    p.add_argument("base_url")
    p.add_argument("metadata_prefix")
    p.add_argument("--set", dest="set_spec")
    p.add_argument("--from", dest="from_ts")

    p = sub.add_parser("generate", help="generate a deterministic synthetic corpus")
    _add_data_dir(p)
    p.add_argument("--resources", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="run the benchmark suite")
    _add_data_dir(p)
    p.add_argument("--resources", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("audit", help="full-scan ontology audit")
    _add_data_dir(p)

    p = sub.add_parser("rebuild-index",
                       help="check the index against the stored objects' triples")
    _add_data_dir(p)

    p = sub.add_parser("rebuild-oai-cache",
                       help="check the OAI record cache against an event replay")
    _add_data_dir(p)

    p = sub.add_parser("export", help="write one XML file per object, Fedora's "
                                      "objects/<xx>/<yy>/<id>.xml layout")
    _add_data_dir(p)
    p.add_argument("--dir", required=True, help="directory to write into")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (InoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# the commands that read an existing store: each refuses a directory that
# holds none, rather than create an empty store there
_READ_ONLY = frozenset({"audit", "rebuild-index", "rebuild-oai-cache", "export"})


def _run(args) -> int:
    if args.command in _READ_ONLY and not (Path(args.data_dir) / LOG_FILE).is_file():
        print(f"error: no store in {args.data_dir} (no {LOG_FILE})", file=sys.stderr)
        return 1

    if args.command == "serve":
        config = load_config(args.config)
        # the access log (logger "ino.access") and failures, to stderr
        logging.basicConfig(level=logging.INFO,
                            format="%(asctime)s %(name)s %(message)s")
        service = Service(config)
        service.serve_forever(service.port, args.host)
        return 0

    if args.command == "harvest":
        repo = Repository(args.data_dir)
        try:
            stats = Harvester(repo).harvest(
                args.base_url, args.metadata_prefix,
                set_spec=args.set_spec, from_ts=args.from_ts,
            )
            print(json.dumps(stats.__dict__, indent=2))
        finally:
            repo.close()
        return 0

    if args.command == "generate":
        repo = Repository(args.data_dir, clock=VirtualClock())
        try:
            stats = generate_corpus(
                repo,
                CorpusProfile(resources=args.resources, seed=args.seed),
            )
            print(json.dumps(stats.__dict__, indent=2))
        finally:
            repo.close()
        return 0

    if args.command == "bench":
        report = bench_all(
            args.data_dir, CorpusProfile(resources=args.resources, seed=args.seed)
        )
        print(json.dumps(report, indent=2))
        return 0

    if args.command == "audit":
        repo = Repository(args.data_dir)
        try:
            violations = repo.audit()
            for v in violations:
                print(v)
            print(f"{len(violations)} violation(s) over {repo.store.count()} objects")
            return 0 if not violations else 2
        finally:
            repo.close()

    if args.command == "rebuild-index":
        repo = Repository(args.data_dir)
        try:
            # the index built at open against the stored objects' own triples
            indexed = repo.index.triple_set()
            expected = {t for obj in repo.store.objects()
                        for t in extract_triples(obj)}
            same = indexed == expected and repo.index.size() == len(expected)
            status = "identical" if same else "DIVERGED"
            print(f"rebuilt {len(expected)} triples ({status})")
            return 0 if same else 2
        finally:
            repo.close()

    if args.command == "rebuild-oai-cache":
        repo = Repository(args.data_dir)
        try:
            # the cache a start builds, against one that replays every event
            provider, replay = OaiProvider(repo), OaiProvider(repo)
            records = provider.rebuild_cache()
            replay.catch_up()
            listed = [{f: [*chain.from_iterable(seq.chunks)]
                       for f, seq in p.sequences.items()}
                      for p in (provider, replay)]
            same = provider.records == replay.records and listed[0] == listed[1]
            deleted = sum(r.deleted for r in provider.records.values())
            status = "identical" if same else "DIVERGED"
            print(f"{records} records ({deleted} deleted) ({status})")
            return 0 if same else 2
        finally:
            repo.close()

    if args.command == "export":
        if Path(args.dir).resolve() == Path(args.data_dir).resolve():
            print("error: export into the data directory itself", file=sys.stderr)
            return 1
        store = ObjectStore(args.data_dir)
        try:
            print(f"exported {store.export(args.dir)} objects to {args.dir}")
            return 0
        finally:
            store.close()

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
