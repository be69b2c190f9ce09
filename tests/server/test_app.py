"""End-to-end tests for the asyncio service (repro.server.app)."""

import http.client
import json
import os
import threading
import uuid

import pytest

from repro import obs
from repro.server import (
    Client,
    ServerConfig,
    ServerError,
    ServerThread,
)
from repro.server.work import ENDPOINTS

SOURCE = """
.text
.globl f
.type f, @function
f:
    andl $255, %eax
    mov %eax, %eax
    subl $16, %r15d
    testl %r15d, %r15d
    ret
"""

BAD_SOURCE = """
.text
h:
    movq (((, %rax
"""


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("server-cache"))
    config = ServerConfig(port=0, cache_dir=cache_dir, max_inflight=4)
    with ServerThread(config) as handle:
        yield handle


@pytest.fixture
def client(server):
    with Client(port=server.port, retries=2) as c:
        yield c


class TestEndpoints:
    def test_healthz(self, client, server):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["max_inflight"] == 4
        assert payload["cache"] is True

    def test_optimize_roundtrip(self, client):
        result = client.optimize(SOURCE, "REDTEST", filename="in.s")
        assert result["schema"] == "pymao.server/1"
        assert "testl" not in result["asm"]
        assert result["pipeline"]["schema"] == "pymao.pipeline/1"
        assert result["cache"] in ("miss", "hit")

    def test_second_identical_request_replays(self, client):
        first = client.optimize(SOURCE, "REDTEST:LOOP16")
        again = client.optimize(SOURCE, "REDTEST:LOOP16")
        assert again["cache"] == "hit"
        assert again["asm"] == first["asm"]
        assert again["pipeline"] == first["pipeline"]

    def test_cache_shared_between_optimize_and_batch(self, client):
        """One store serves every endpoint: a source optimized via
        /v1/optimize must replay as a hit inside /v1/batch."""
        source = SOURCE.replace("f", "shared")
        client.optimize(source, "REDTEST")
        batch = client.batch([("shared.s", source)], "REDTEST")
        rows = batch["summary"]["files"]
        assert rows[0]["cache"] == "hit"

    def test_batch_summary_schema_and_failure_isolation(self, client):
        batch = client.batch(
            [("good.s", SOURCE.replace("f", "g")), ("bad.s", BAD_SOURCE)],
            "REDTEST")
        summary = batch["summary"]
        assert summary["schema"] == "pymao.batch/1"
        assert summary["totals"]["ok"] == 1
        assert summary["totals"]["errors"] == 1
        assert "good.s" in batch["asm"]
        assert "bad.s" not in batch["asm"]

    def test_simulate_workload(self, client):
        result = client.simulate(workload="hash_bench", core="core2",
                                 max_steps=200_000)
        assert result["cycles"] > 0
        assert result["steps"] > 0
        assert result["counters"]

    def test_predict_workload(self, client):
        result = client.predict(workload="hash_bench", core="core2")
        assert result["schema"] == "pymao.server/1"
        assert result["core"] == "core2"
        prediction = result["prediction"]
        assert prediction["schema"] == "pymao.predict/1"
        assert prediction["cycles"] > 0
        assert prediction["bottleneck"] in ("ports", "latency", "frontend")
        assert set(prediction["bounds"]) == {"ports", "latency",
                                             "frontend"}

    def test_predict_source_counted_in_metrics(self, client):
        source = SOURCE.replace("ret", "jmp f\n    ret")
        result = client.predict(source, "opteron")
        assert result["prediction"]["model"] == "opteron"
        values = client.metrics()["values"]
        assert values["server.predict.requests"] >= 1
        assert values["predict.requests"] >= 1

    def test_tune_workload(self, client):
        result = client.tune(workload="fig4_loop", core="core2",
                             budget=16)
        assert result["schema"] == "pymao.server/1"
        doc = result["tune"]
        assert doc["schema"] == "pymao.tune/1"
        assert doc["winner"]["cycles"] > 0
        assert doc["early_stop"]["reason"] in ("lower_bound", "budget",
                                               "rounds", "exhausted")
        assert result["asm"]
        # The winner is never worse than the default spec when the
        # default got scored, and never worse than any leaderboard row.
        for row in doc["leaderboard"]:
            assert doc["winner"]["cycles"] <= row["cycles"]
        values = client.metrics()["values"]
        assert values["server.tune.requests"] >= 1
        assert values["tune.requests"] >= 1

    def test_tune_warm_retune_replays_from_shared_cache(self, client):
        from repro.workloads.kernels import mcf_fig1

        cold = client.tune(workload="mcf_fig1", core="opteron")
        warm = client.tune(workload="mcf_fig1", core="opteron")
        assert warm["tune"]["pass_runs"]["executed"] == 0
        assert warm["tune"]["winner"] == cold["tune"]["winner"]
        # By text, the same kernel replays the prefixes stored by name.
        by_text = client.tune(source=mcf_fig1(), core="opteron")
        assert by_text["tune"]["pass_runs"]["executed"] == 0
        assert by_text["tune"]["winner"] == cold["tune"]["winner"]

    def test_metrics_is_trace_event(self, client):
        client.optimize(SOURCE, "REDTEST")
        payload = client.metrics()
        assert payload["schema"] == "pymao.trace/1"
        assert payload["type"] == "metrics"
        values = payload["values"]
        assert values["server.requests"] >= 1
        assert any(name.startswith("server.optimize.")
                   for name in values)

    def test_request_id_echoed(self, client):
        result = client.optimize(SOURCE, None, request_id="my-req-42")
        assert result["request_id"] == "my-req-42"

    def test_keep_alive_connection_reused(self, client):
        for _ in range(3):
            assert client.healthz()["status"] == "ok"
        assert client.retries_on_transport == 0


class TestClientErrors:
    def test_missing_source_is_400(self, client):
        with pytest.raises(ServerError) as exc_info:
            client.request("POST", "/v1/optimize", {"spec": "REDTEST"})
        assert exc_info.value.status == 400

    def test_parse_failure_is_400(self, client):
        with pytest.raises(ServerError) as exc_info:
            client.optimize(BAD_SOURCE, "REDTEST")
        assert exc_info.value.status == 400
        assert "Error" in str(exc_info.value) or "error" in str(exc_info.value)

    def test_bad_spec_is_400(self, client):
        with pytest.raises(ServerError) as exc_info:
            client.optimize(SOURCE, "NOT!A%SPEC[[[")
        assert exc_info.value.status == 400

    def test_side_effecting_spec_rejected(self, client):
        with pytest.raises(ServerError) as exc_info:
            client.optimize(SOURCE, "REDTEST:ASM=o[/tmp/evil.s]")
        assert exc_info.value.status == 400
        assert "side-effecting" in str(exc_info.value)

    def test_unknown_core_is_400(self, client):
        with pytest.raises(ServerError) as exc_info:
            client.simulate(SOURCE, core="itanium")
        assert exc_info.value.status == 400

    def test_predict_unknown_core_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.predict(SOURCE, "z80")
        assert excinfo.value.status == 400

    def test_predict_needs_exactly_one_input(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.predict(SOURCE, "core2", workload="hash_bench")
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client.predict(core="core2")
        assert excinfo.value.status == 400

    def test_predict_unanalyzable_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.predict(BAD_SOURCE, "core2")
        assert excinfo.value.status == 400

    def test_tune_unknown_core_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.tune(SOURCE, "z80")
        assert excinfo.value.status == 400

    def test_tune_needs_exactly_one_input(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.tune(SOURCE, "core2", workload="hash_bench")
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client.tune(core="core2")
        assert excinfo.value.status == 400

    def test_tune_rejects_bad_search_params(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.tune(workload="mcf_fig1", core="core2", budget=-1)
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client.tune(workload="mcf_fig1", core="core2",
                        n_select=0)
        assert excinfo.value.status == 400

    def test_tune_unanalyzable_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.tune(BAD_SOURCE, "core2")
        assert excinfo.value.status == 400

    def test_simulate_needs_exactly_one_input(self, client):
        with pytest.raises(ServerError) as exc_info:
            client.simulate(SOURCE, core="core2", workload="hash_bench")
        assert exc_info.value.status == 400

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServerError) as exc_info:
            client.request("GET", "/v1/nonsense")
        assert exc_info.value.status == 404

    def test_bad_batch_inputs_is_400(self, client):
        with pytest.raises(ServerError) as exc_info:
            client.request("POST", "/v1/batch", {"inputs": "not-a-list"})
        assert exc_info.value.status == 400

    @pytest.mark.parametrize("max_steps", [True, "7", -3, 2.9])
    def test_simulate_rejects_bad_max_steps(self, client, max_steps):
        with pytest.raises(ServerError) as exc_info:
            client.simulate(workload="hash_bench", core="core2",
                            max_steps=max_steps)
        assert exc_info.value.status == 400
        assert "max_steps" in str(exc_info.value)

    def test_malformed_spec_item_is_400(self, client):
        with pytest.raises(ServerError) as exc_info:
            client.optimize(SOURCE, [5])
        assert exc_info.value.status == 400
        assert "bad pass spec" in str(exc_info.value)


def _post_raw(port, path, body):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


class TestEndpointContract:
    """Every row of the endpoint table answers a body that is not a JSON
    object with the 400 error envelope, never with a 500."""

    @pytest.mark.parametrize("body", [b"[1, 2]", b'"text"', b"\xff\xfe"],
                             ids=["array", "string", "undecodable"])
    @pytest.mark.parametrize("path", sorted(ENDPOINTS))
    def test_non_object_body_is_400(self, server, client, path, body):
        errors = client.metrics()["values"].get("server.errors", 0)
        status, payload = _post_raw(server.port, path, body)
        assert status == 400
        assert set(payload) == {"error", "status", "request_id"}
        assert payload["status"] == 400
        assert client.metrics()["values"].get("server.errors", 0) == errors


class TestLimitsAndBackends:
    def test_body_size_cap_is_413(self, tmp_path):
        config = ServerConfig(port=0, cache=False, max_body_bytes=512)
        with ServerThread(config) as handle:
            with Client(port=handle.port, retries=0) as client:
                with pytest.raises(ServerError) as exc_info:
                    client.optimize("x" * 4096, None)
                assert exc_info.value.status == 413

    def test_request_timeout_is_504(self, tmp_path):
        config = ServerConfig(port=0, cache=False,
                              request_timeout_s=0.2, test_delay_s=1.0)
        with ServerThread(config) as handle:
            with Client(port=handle.port, retries=0) as client:
                with pytest.raises(ServerError) as exc_info:
                    client.optimize(SOURCE, "REDTEST")
                assert exc_info.value.status == 504
                # The server must stay healthy after a timeout.
                assert client.healthz()["status"] == "ok"

    def test_process_backend_roundtrip(self, tmp_path):
        config = ServerConfig(port=0, parallel_backend="process",
                              max_inflight=2,
                              cache_dir=str(tmp_path / "cache"))
        with ServerThread(config) as handle:
            with Client(port=handle.port) as client:
                cold = client.optimize(SOURCE, "REDTEST")
                warm = client.optimize(SOURCE, "REDTEST")
                assert cold["cache"] == "miss"
                assert warm["cache"] == "hit"
                assert "testl" not in warm["asm"]

    def test_singleflight_coalesces_identical_requests(self, tmp_path):
        source = SOURCE.replace("f", "coalesce_me")
        config = ServerConfig(port=0, max_inflight=4, test_delay_s=0.4,
                              cache_dir=str(tmp_path / "cache"))
        results = []

        def worker():
            with Client(port=handle.port, retries=0) as client:
                results.append(client.optimize(source, "REDTEST"))

        with ServerThread(config) as handle:
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        states = sorted(result["cache"] for result in results)
        assert states == ["coalesced", "miss"]
        assert results[0]["asm"] == results[1]["asm"]


class TestCrossInstanceCoherence:
    def test_two_servers_sharing_a_store_share_artifacts(self, tmp_path):
        """A put by server A is a hit for server B over the same store,
        so a restarted server replays what its predecessor stored."""
        shared = dict(cache_dir=str(tmp_path / "store"),
                      cache_salt="coherence-%s" % uuid.uuid4().hex)
        with ServerThread(ServerConfig(port=0, **shared)) as a:
            with Client(port=a.port) as client:
                first = client.optimize(SOURCE, "LOOP16")
        with ServerThread(ServerConfig(port=0, **shared)) as b:
            with Client(port=b.port) as client:
                second = client.optimize(SOURCE, "LOOP16")
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert second["asm"] == first["asm"]


class TestWorkerCounters:
    """Counters a worker moves reach the server's registry on both pool
    kinds: a process-pool reply carries its worker's counter deltas."""

    @staticmethod
    def _worker_counters():
        return {name: value for name, value
                in obs.REGISTRY.snapshot(collectors=False).items()
                if name.startswith(("batch.", "pass."))}

    @classmethod
    def _moved(cls, backend, cache_dir):
        config = ServerConfig(port=0, parallel_backend=backend,
                              max_inflight=2, cache_dir=cache_dir)
        before = cls._worker_counters()
        with ServerThread(config) as handle:
            with Client(port=handle.port, retries=0) as client:
                client.optimize(SOURCE, "REDTEST")
                client.optimize(SOURCE, "REDTEST")
                client.batch([("a.s", SOURCE), ("b.s", BAD_SOURCE)],
                             "REDZEE:REDTEST")
                with pytest.raises(ServerError):
                    client.optimize(BAD_SOURCE, "REDTEST")
        after = cls._worker_counters()
        return {name: value - before.get(name, 0)
                for name, value in after.items()
                if value != before.get(name, 0)}

    def test_both_pool_kinds_move_the_same_counters(self, tmp_path):
        thread = self._moved("thread", str(tmp_path / "thread"))
        process = self._moved("process", str(tmp_path / "process"))
        assert process == thread
        # Optimize miss, optimize hit, two batch misses (one stored, one
        # unparsable) and an unparsable optimize.
        assert thread["batch.cache.miss"] == 4
        assert thread["batch.cache.hit"] == 1
        assert thread["batch.cache.store"] == 2
        assert thread["pass.REDTEST.runs"] == 2
        assert thread["pass.REDZEE.runs"] == 1

    @staticmethod
    def _predictions_observed(backend):
        name = "predict.seconds.count"
        before = obs.REGISTRY.snapshot(collectors=False).get(name, 0)
        config = ServerConfig(port=0, parallel_backend=backend,
                              max_inflight=2, cache=False)
        with ServerThread(config) as handle:
            with Client(port=handle.port, retries=0) as client:
                client.predict(SOURCE, "core2")
                seen = client.metrics()["values"].get(name, 0)
        return seen - before

    def test_both_pool_kinds_observe_the_same_histograms(self):
        # A process-pool reply carries its worker's histogram
        # observations, not only its counter deltas.
        thread = self._predictions_observed("thread")
        process = self._predictions_observed("process")
        assert thread == 1
        assert process == thread


class TestTracing:
    def test_request_spans_flushed_on_drain(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        config = ServerConfig(port=0, cache_dir=str(tmp_path / "cache"),
                              trace_out=trace_path)
        was_enabled = obs.set_enabled(True)
        obs.reset_tracer()
        try:
            with ServerThread(config) as handle:
                with Client(port=handle.port) as client:
                    client.optimize(SOURCE, "REDTEST",
                                    request_id="traced-1")
        finally:
            obs.set_enabled(was_enabled)
            obs.reset_tracer()
        assert os.path.exists(trace_path)
        with open(trace_path) as handle_:
            events = [json.loads(line) for line in handle_]
        spans = [e for e in events if e.get("type") == "span"
                 and e["name"] == "request:/v1/optimize"]
        assert spans, "no request span in the drained trace"
        span = next(s for s in spans
                    if s["attrs"].get("request_id") == "traced-1")
        assert span["attrs"]["status"] == 200
        assert span["attrs"]["cache"] in ("miss", "hit")
        # The worker's optimize subtree is adopted under the request.
        assert any(child["name"].startswith("optimize:")
                   for child in span["children"])
