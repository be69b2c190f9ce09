"""``POST /v1/profile`` on a single MaoServer instance."""

import pytest

from repro.pgo import PROFILE_SCHEMA, ProfileStore, build_profile
from repro.server import Client, ServerConfig, ServerThread
from repro.workloads.kernels import fig4_loop


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServerConfig(
        port=0, cache=False,
        profile_dir=str(tmp_path_factory.mktemp("profiles")))
    with ServerThread(config) as handle:
        yield handle


@pytest.fixture(scope="module")
def client(server):
    with Client(port=server.port) as handle:
        yield handle


def make_doc(weight=None):
    return build_profile(fig4_loop(), period=97, seed=2, weight=weight)


class TestIngest:
    def test_ingest_returns_the_stored_entry(self, client):
        out = client.profile(make_doc(weight=111.0))
        assert out["schema"] == "pymao.server/1"
        assert out["found"] is True
        stored = out["profile"]
        assert stored["schema"] == PROFILE_SCHEMA
        assert stored["weight"] == 111.0
        assert stored["epoch"] >= 1

    def test_reingest_same_weight_keeps_the_epoch(self, client):
        doc = make_doc(weight=222.0)
        first = client.profile(doc)["profile"]["epoch"]
        second = client.profile(doc)["profile"]["epoch"]
        assert second == first

    def test_weight_change_bumps_the_epoch_over_http(self, client):
        before = client.profile(make_doc(weight=333.0))["profile"]["epoch"]
        after = client.profile(make_doc(weight=444.0))["profile"]["epoch"]
        assert after == before + 1

    def test_ingest_lands_in_the_configured_store(self, server, client):
        doc = make_doc(weight=555.0)
        client.profile(doc)
        store = ProfileStore(server.config.profile_dir)
        assert store.get(doc["digest"]).weight == 555.0


class TestLookup:
    def test_lookup_by_digest(self, client):
        doc = make_doc(weight=666.0)
        client.profile(doc)
        out = client.profile(digest=doc["digest"])
        assert out["found"] is True
        assert out["profile"]["weight"] == 666.0

    def test_absent_digest_reports_not_found(self, client):
        out = client.profile(digest="0" * 64)
        assert out["found"] is False
        assert out["profile"] is None


class TestValidation:
    def test_neither_field_is_a_400(self, client):
        from repro.server.client import ServerError

        with pytest.raises(ServerError):
            client.request("POST", "/v1/profile", {})

    def test_both_fields_is_a_400(self, client):
        from repro.server.client import ServerError

        doc = make_doc()
        with pytest.raises(ServerError):
            client.request("POST", "/v1/profile",
                           {"profile": doc, "digest": doc["digest"]})

    def test_malformed_document_is_a_400_not_a_500(self, client):
        from repro.server.client import ServerError

        with pytest.raises(ServerError) as excinfo:
            client.profile({"schema": PROFILE_SCHEMA, "digest": "nope",
                            "weight": 1})
        assert excinfo.value.status == 400


class TestRestartPersistence:
    def test_restart_preserves_the_profile_store(self, tmp_path):
        """Ingest, drain, then read back from a fresh server (fresh pool
        processes) over the same directory: a restart keeps the store."""
        config = ServerConfig(port=0, cache=False, parallel_backend="process",
                              max_inflight=1, profile_dir=str(tmp_path))
        document = make_doc(weight=987.0)
        with ServerThread(config) as first:
            with Client(port=first.port) as handle:
                stored = handle.profile(document)["profile"]
        with ServerThread(config) as second:
            with Client(port=second.port) as handle:
                after = handle.profile(digest=document["digest"])
        assert after["found"] is True
        assert after["profile"]["weight"] == 987.0
        assert after["profile"]["epoch"] == stored["epoch"]
