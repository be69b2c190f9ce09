"""The backpressure and drain contract, verified end to end.

Acceptance criteria: under overload (admitted > max_inflight +
max_queue) the server answers 503 with a ``Retry-After`` header and
**never drops an accepted request** — every admitted request ends in a
real response, including across a graceful drain.
"""

import http.client
import json
import threading
import time

import pytest

from repro.server import Client, ServerBusy, ServerConfig, ServerThread

SOURCE_TMPL = """
.text
.globl f%d
f%d:
    subl $16, %%r15d
    testl %%r15d, %%r15d
    ret
"""


def occupy(port, index):
    """One request that holds a server slot; the client is closed after."""
    with Client(port=port, retries=0) as client:
        client.optimize(SOURCE_TMPL % (index, index), "REDTEST")


def join(thread):
    thread.join(timeout=10)
    assert not thread.is_alive(), "blocking request never finished"


def overload_config(**overrides):
    defaults = dict(port=0, cache=False, max_inflight=1, max_queue=1,
                    test_delay_s=0.5, retry_after_s=0.05)
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestBackpressure:
    def test_overload_rejects_with_retry_after_and_drops_nothing(self):
        """Four distinct concurrent requests against capacity 2: the
        overflow is shed with 503 + Retry-After, and every admitted
        request completes with its correct result."""
        outcomes = {}

        def worker(index, port):
            with Client(port=port, retries=0) as client:
                try:
                    result = client.optimize(SOURCE_TMPL % (index, index),
                                             "REDTEST")
                    outcomes[index] = ("ok", result)
                except ServerBusy as exc:
                    outcomes[index] = ("busy", exc.payload)

        with ServerThread(overload_config()) as handle:
            threads = [threading.Thread(target=worker,
                                        args=(i, handle.port))
                       for i in range(4)]
            for thread in threads:
                thread.start()
                time.sleep(0.02)   # deterministic arrival order
            for thread in threads:
                thread.join()

        statuses = [status for status, _ in outcomes.values()]
        assert statuses.count("busy") >= 1, "overload never shed load"
        assert statuses.count("ok") >= 2, "admitted requests were lost"
        for index, (status, payload) in outcomes.items():
            if status == "ok":
                # The response is the right one, not another request's.
                assert ("f%d" % index) in payload["asm"]
                assert "testl" not in payload["asm"]
            else:
                assert payload.get("status") == 503

    def test_503_carries_retry_after_header(self):
        with ServerThread(overload_config(max_queue=0)) as handle:
            blocker = threading.Thread(target=occupy,
                                       args=(handle.port, 0))
            blocker.start()
            time.sleep(0.1)        # let the blocker occupy the only slot
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=10)
            body = json.dumps({"source": SOURCE_TMPL % (1, 1),
                               "spec": "REDTEST"})
            conn.request("POST", "/v1/optimize", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            try:
                assert response.status == 503
                assert response.headers.get("Retry-After") is not None
                assert json.loads(raw)["status"] == 503
            finally:
                conn.close()
                join(blocker)

    def test_healthz_and_metrics_still_served_under_overload(self):
        """Observability must not sit behind the admission queue: a
        saturated worker pool cannot blind the operator."""
        with ServerThread(overload_config(max_queue=0)) as handle:
            blocker = threading.Thread(target=occupy,
                                       args=(handle.port, 7))
            blocker.start()
            time.sleep(0.1)
            try:
                with Client(port=handle.port, retries=0) as client:
                    health = client.healthz()
                    assert health["status"] == "ok"
                    assert health["inflight"] == 1
                    assert health["queue_depth"] == 0
                    metrics = client.metrics()
                    assert metrics["type"] == "metrics"
                    # The registry gauges mirror the live admission
                    # numbers.
                    assert metrics["values"]["server.inflight"] == 1
                    assert metrics["values"]["server.queue_depth"] == 0
            finally:
                join(blocker)

    def test_client_retry_rides_out_backpressure(self):
        """With a retry budget, a shed client eventually lands: the
        jittered-backoff loop turns 503s into a delayed success."""
        with ServerThread(overload_config(max_queue=0,
                                          test_delay_s=0.2)) as handle:
            results = []

            def worker(index):
                with Client(port=handle.port, retries=8,
                            backoff_s=0.05) as client:
                    results.append(
                        client.optimize(SOURCE_TMPL % (index, index),
                                        "REDTEST"))

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(results) == 3
            assert all("testl" not in r["asm"] for r in results)


class TestDrain:
    def test_inflight_request_survives_drain(self):
        """SIGTERM semantics: an admitted request finishes with a real
        response while the server refuses new work and shuts down."""
        outcome = {}

        def slow_request(port):
            with Client(port=port, retries=0) as client:
                outcome["result"] = client.optimize(
                    SOURCE_TMPL % (3, 3), "REDTEST")

        handle = ServerThread(overload_config(test_delay_s=0.6))
        with handle:
            worker = threading.Thread(target=slow_request,
                                      args=(handle.port,))
            worker.start()
            time.sleep(0.2)        # request is admitted and executing
            handle.stop()          # drain: finish inflight, then exit
            worker.join()
        assert "result" in outcome, "inflight request was dropped on drain"
        assert "testl" not in outcome["result"]["asm"]

    def test_draining_server_rejects_new_work_with_503(self):
        handle = ServerThread(overload_config(test_delay_s=0.8))
        with handle:
            blocker = threading.Thread(target=occupy,
                                       args=(handle.port, 5))
            blocker.start()
            time.sleep(0.2)
            # Trigger the drain without waiting for it to finish, then
            # race a new request in over the still-open connection.
            handle._loop.call_soon_threadsafe(
                handle.server.request_drain)
            time.sleep(0.05)
            with Client(port=handle.port, retries=0) as client:
                with pytest.raises((ServerBusy, Exception)) as exc_info:
                    client.optimize(SOURCE_TMPL % (6, 6), "REDTEST")
            join(blocker)
        # Depending on timing the listener may already be closed
        # (connection refused) or the request is answered 503 draining;
        # both satisfy "stop accepting new work".
        if isinstance(exc_info.value, ServerBusy):
            assert exc_info.value.payload.get("error") == "draining"
