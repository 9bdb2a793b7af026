import json
import threading

import pytest

from ino.api import Repository
from ino.cli import main
from ino.index import TripleIndex
from ino.model import METADATA_FOR, Term, Triple, VirtualClock
from ino.oai import RecordSequence
from ino.service import Service


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_generate_then_audit_and_rebuild(tmp_path, capsys):
    data = str(tmp_path / "d")
    code, out = run(capsys, "generate", "--data-dir", data,
                    "--resources", "20", "--seed", "3")
    assert code == 0
    stats = json.loads(out)
    assert stats["resources"] == 20 and stats["metadata"] == 15

    code, out = run(capsys, "audit", "--data-dir", data)
    assert code == 0 and "0 violation(s)" in out

    code, out = run(capsys, "rebuild-index", "--data-dir", data)
    assert code == 0 and "identical" in out

    code, out = run(capsys, "rebuild-oai-cache", "--data-dir", data)
    assert code == 0 and out == "30 records (0 deleted) (identical)\n"
    assert not (tmp_path / "d" / "oai_cache.json").exists()


def test_rebuild_index_reports_an_index_that_misses_triples(
        tmp_path, capsys, monkeypatch):
    data = str(tmp_path / "d")
    assert run(capsys, "generate", "--data-dir", data,
               "--resources", "20", "--seed", "3")[0] == 0
    add = TripleIndex._add

    def drop_metadata_for(self, t):
        if t.predicate != METADATA_FOR:
            add(self, t)

    monkeypatch.setattr(TripleIndex, "_add", drop_metadata_for)
    code, out = run(capsys, "rebuild-index", "--data-dir", data)
    assert code == 2 and "DIVERGED" in out


def test_rebuild_oai_cache_keeps_deleted_records(tmp_path, capsys):
    data = tmp_path / "d"
    assert run(capsys, "generate", "--data-dir", str(data),
               "--resources", "20", "--seed", "3")[0] == 0
    repo = Repository(data)
    try:
        metadata = next(o.id for o in repo.store.objects()
                        if "Metadata" in o.types)
        repo.purge_metadata(metadata)
    finally:
        repo.close()
    code, out = run(capsys, "rebuild-oai-cache", "--data-dir", str(data))
    assert code == 0 and out == "30 records (2 deleted) (identical)\n"

    # a cache file of an older version, torn or not, is neither read nor written
    (data / "oai_cache.json").write_text('{"records": [')
    code, out = run(capsys, "rebuild-oai-cache", "--data-dir", str(data))
    assert code == 0 and out == "30 records (2 deleted) (identical)\n"
    assert (data / "oai_cache.json").read_text() == '{"records": ['


def test_rebuild_oai_cache_reports_a_replay_that_differs(
        tmp_path, capsys, monkeypatch):
    data = str(tmp_path / "d")
    assert run(capsys, "generate", "--data-dir", data,
               "--resources", "20", "--seed", "3")[0] == 0
    updated = RecordSequence.updated

    def drop_one(self, removed, added):
        return updated(self, removed, added[1:])

    # the replay's lists lose a record that its record map keeps
    monkeypatch.setattr(RecordSequence, "updated", drop_one)
    code, out = run(capsys, "rebuild-oai-cache", "--data-dir", data)
    assert code == 2 and out == "30 records (0 deleted) (DIVERGED)\n"


def test_generate_into_nonempty_store_fails(tmp_path, capsys):
    data = str(tmp_path / "d")
    assert run(capsys, "generate", "--data-dir", data, "--resources", "5")[0] == 0
    code, _out = run(capsys, "generate", "--data-dir", data, "--resources", "5")
    assert code == 1  # InoError -> exit 1


def test_audit_exit_code_on_violation(tmp_path, capsys):
    data = str(tmp_path / "d")
    repo = Repository(data, clock=VirtualClock())
    agent = repo.add_agent("a", "Person")
    repo.store.modify(agent, relationships=[
        Triple(agent, METADATA_FOR, Term.iri(agent)),
    ])
    repo.close()
    code, out = run(capsys, "audit", "--data-dir", data)
    assert code == 2 and "violation" in out


def test_bench_report_shape(tmp_path, capsys):
    code, out = run(capsys, "bench", "--data-dir", str(tmp_path / "d"),
                    "--resources", "40")
    assert code == 0
    report = json.loads(out)
    for key in ("ingestSecPerObject", "simpleQueryMsP50", "complexQueryMsP50",
                "listRecordsPerSec", "disseminationLiteralMs",
                "disseminationTransformedMs", "harvestedRecords"):
        assert key in report, key
    # 30 metadata objects served in both stored and crosswalked formats
    assert report["harvestedRecords"] == 60


def test_harvest_over_real_http(tmp_path, capsys):
    source_dir = tmp_path / "source"
    assert run(capsys, "generate", "--data-dir", str(source_dir),
               "--resources", "10", "--seed", "1")[0] == 0
    svc = Service({"dataDir": str(source_dir), "apiKey": "", "pageSize": "4",
                   "ontologyPath": ""}, clock=VirtualClock())
    server = svc.serve(0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base_url = "http://127.0.0.1:%d/oai" % server.server_address[1]
        code, out = run(capsys, "harvest", "--data-dir",
                        str(tmp_path / "target"), base_url, "nsdl_dc")
        assert code == 0
        stats = json.loads(out)
        assert stats["created_metadata"] == 7  # int(10 * 0.75)
        assert stats["failures"] == []
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
        svc.close()


@pytest.mark.parametrize("line", ["port=" + "9" * 5000, "pageSize=" + "9" * 5000],
                         ids=["port", "page-size"])
def test_serve_refuses_an_overlong_number_with_an_error_line(tmp_path, capsys, line):
    config = tmp_path / "bad.conf"
    config.write_text(f"dataDir={tmp_path / 'data'}\n{line}\n")
    assert main(["serve", "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "data").exists()


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
