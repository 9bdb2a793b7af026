import json
import socket
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


def error_line(capsys):
    """What the command wrote to stderr, asserted to be one `error:` line,
    with nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, \
        captured.err
    return captured.err


def test_serve_with_a_missing_config_file_is_an_error_line(tmp_path, capsys):
    assert main(["serve", "--config", str(tmp_path / "missing.conf")]) == 1
    assert "missing.conf" in error_line(capsys)


def test_serve_with_a_missing_ontology_is_an_error_line(tmp_path, capsys):
    config = tmp_path / "serve.conf"
    config.write_text(f"dataDir={tmp_path / 'data'}\n"
                      f"ontologyPath={tmp_path / 'missing.ontology'}\n")
    assert main(["serve", "--config", str(config)]) == 1
    assert "missing.ontology" in error_line(capsys)
    assert not (tmp_path / "data").exists()


def test_a_data_dir_that_names_a_file_is_an_error_line(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert main(["audit", "--data-dir", str(tmp_path / "file")]) == 1
    error_line(capsys)


@pytest.mark.parametrize("argv", [["audit"], ["rebuild-index"], ["rebuild-oai-cache"],
                                  ["export", "--dir", "out"]],
                         ids=["audit", "rebuild-index", "rebuild-oai-cache", "export"])
def test_a_read_only_command_refuses_a_missing_store(tmp_path, capsys, monkeypatch, argv):
    """A mistyped --data-dir, or a directory with no store, is one error
    line, and no store is made there."""
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--data-dir", str(tmp_path / "missing")]) == 1
    assert "missing" in error_line(capsys)
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "empty").mkdir()
    assert main([*argv, "--data-dir", str(tmp_path / "empty")]) == 1
    assert "empty" in error_line(capsys)
    assert list(tmp_path.iterdir()) == [tmp_path / "empty"]
    assert list((tmp_path / "empty").iterdir()) == []


def test_serve_on_a_port_in_use_is_an_error_line_and_frees_the_store(
        tmp_path, capsys):
    """The bind comes before the announcement, and a failed bind closes the
    repository, so an in-process caller keeps no store lock."""
    data = tmp_path / "data"
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        config = tmp_path / "serve.conf"
        config.write_text(f"dataDir={data}\nport={held.getsockname()[1]}\n")
        assert main(["serve", "--config", str(config)]) == 1
    assert "Address already in use" in error_line(capsys)  # and no "serving on"
    Repository(data).close()  # the store lock was let go


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
