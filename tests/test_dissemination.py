import pytest

from ino.api import MetadataSpec, ResourceSpec
from ino.dissemination import (
    CROSSWALKS,
    LITERAL,
    METRICS_MAXLEN,
    TRANSFORMED,
    is_format_id,
    nsdl_dc_to_oai_dc,
)
from ino.errors import (
    FormatUnavailable,
    NotFound,
    TransformError,
)
from ino.model import Datastream

NSDL_DC = b"""<nsdl_dc xmlns:dc="http://purl.org/dc/elements/1.1/">
  <dc:title>Physics 101</dc:title>
  <dc:creator>Doe</dc:creator>
  <audience>grade 9</audience>
  <dc:identifier>http://example.org/a</dc:identifier>
</nsdl_dc>"""

# pinned by hand from the crosswalk contract: DC-15 localnames, input order,
# everything else dropped
EXPECTED_OAI_DC = b"""<oai_dc:dc xmlns:oai_dc="http://www.openarchives.org/OAI/2.0/oai_dc/" xmlns:dc="http://purl.org/dc/elements/1.1/">
  <dc:title>Physics 101</dc:title>
  <dc:creator>Doe</dc:creator>
  <dc:identifier>http://example.org/a</dc:identifier>
</oai_dc:dc>
"""


def test_crosswalk_pinned_output():
    assert nsdl_dc_to_oai_dc(NSDL_DC) == EXPECTED_OAI_DC


def test_crosswalk_deterministic():
    assert nsdl_dc_to_oai_dc(NSDL_DC) == nsdl_dc_to_oai_dc(NSDL_DC)


def test_crosswalk_escapes_text():
    src = b"<nsdl_dc><title>a &amp; b &lt;c&gt;</title></nsdl_dc>"
    out = nsdl_dc_to_oai_dc(src)
    assert b"<dc:title>a &amp; b &lt;c&gt;</dc:title>" in out


def test_crosswalk_empty_source():
    out = nsdl_dc_to_oai_dc(b"<nsdl_dc><audience>x</audience></nsdl_dc>")
    assert b"<dc:" not in out


def test_crosswalk_malformed_source():
    with pytest.raises(TransformError):
        nsdl_dc_to_oai_dc(b"<nsdl_dc>")


def test_crosswalks_are_one_hop():
    targets = {to for by_target in CROSSWALKS.values() for to in by_target}
    assert not targets & CROSSWALKS.keys()


def test_format_id_validation():
    assert is_format_id("oai_dc") and is_format_id("marc21")
    # "format_" and the id make a datastream id of at most 32 characters
    assert is_format_id("f" * 25) and not is_format_id("f" * 26)
    assert not is_format_id("Bad-Format") and not is_format_id("")


@pytest.fixture
def metadata_repo(repo):
    agent = repo.add_agent("prov", "Organization")
    resource = repo.add_resource(ResourceSpec(content_url="http://example.org/a"))
    m = repo.add_metadata(MetadataSpec(
        target=resource, format_id="nsdl_dc", payload=NSDL_DC, provider=agent,
    ))
    return repo, m


def test_list_formats_includes_crosswalk_targets(metadata_repo):
    repo, m = metadata_repo
    assert repo.list_formats(m) == {"nsdl_dc", "oai_dc"}


def test_literal_dissemination(metadata_repo):
    repo, m = metadata_repo
    data, media, path = repo.get_dissemination(m, "nsdl_dc")
    assert (data, path) == (NSDL_DC, LITERAL)
    assert media == "text/xml"


def test_transformed_dissemination(metadata_repo):
    repo, m = metadata_repo
    data, media, path = repo.get_dissemination(m, "oai_dc")
    assert (data, path) == (EXPECTED_OAI_DC, TRANSFORMED)
    assert media == "text/xml"


def test_stored_format_wins_over_transform(metadata_repo):
    repo, m = metadata_repo
    canned = b"<oai_dc:dc xmlns:oai_dc='x'/>"
    from ino.model import Datastream
    obj = repo.get_object(m)
    repo.store.modify(m, datastreams=list(obj.datastreams) + [
        Datastream("format_oai_dc", "text/xml", content=canned),
    ])
    data, _media, path = repo.get_dissemination(m, "oai_dc")
    assert (data, path) == (canned, LITERAL)


def test_unavailable_and_missing(metadata_repo):
    repo, m = metadata_repo
    with pytest.raises(FormatUnavailable):
        repo.get_dissemination(m, "marc21")
    with pytest.raises(NotFound):
        repo.get_dissemination("info:ino/ghost", "nsdl_dc")


def test_metrics_record_both_paths(metadata_repo):
    repo, m = metadata_repo
    repo.get_dissemination(m, "nsdl_dc")
    repo.get_dissemination(m, "oai_dc")
    metrics = repo.disseminator.metrics
    assert len(metrics[LITERAL]) == 1 and len(metrics[TRANSFORMED]) == 1
    assert all(v >= 0 for v in metrics[LITERAL] + metrics[TRANSFORMED])


def test_metrics_are_bounded(metadata_repo):
    repo, m = metadata_repo
    for _ in range(METRICS_MAXLEN + 5):
        repo.get_dissemination(m, "nsdl_dc")
    assert len(repo.disseminator.metrics[LITERAL]) == METRICS_MAXLEN
