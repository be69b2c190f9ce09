"""The reply memo: repeated ``/v1/predict`` and ``/v1/simulate`` requests
answered from the front process (repro.server.app.ReplyMemo)."""

import asyncio
import copy
import json
import shutil

import pytest

from repro import api, obs
from repro.server import Client, ServerConfig, ServerError, ServerThread
from repro.server.app import ReplyMemo
from repro.server.http import ProtocolError
from repro.server.work import ENDPOINTS
from repro.uarch import tables

PREDICT = "/v1/predict"
SIMULATE = "/v1/simulate"

SOURCE = """
.text
.globl f
.type f, @function
f:
    andl $255, %eax
    testl %eax, %eax
    ret
"""

BAD_SOURCE = """
.text
h:
    movq (((, %rax
"""


def _payload(path, **fields):
    data = {"workload": "hash_bench", "core": "core2"}
    data.update(fields)
    return ENDPOINTS[path].prepare(data, ServerConfig())


def _key(path, **fields):
    return ENDPOINTS[path].coalesce(_payload(path, **fields))


def _core2_doc():
    with open(tables.profile_path("core2")) as handle:
        return json.load(handle)


def _slower(doc):
    """*doc* with a slower ALU, which lengthens hash_bench's chain."""
    doc = copy.deepcopy(doc)
    doc["instructions"]["alu"]["latency"] = 3
    return doc


def _memo_counts(client):
    values = client.metrics()["values"]
    return {name: values.get("server.memo." + name, 0)
            for name in ("hit", "miss", "evict", "bytes")}


def _moved(before, after):
    """Counter deltas; ``bytes`` is a gauge, so it is read as it is."""
    moved = {name: after[name] - before[name] for name in before}
    moved["bytes"] = after["bytes"]
    return moved


class TestKey:
    @pytest.mark.parametrize("path, option, value", [
        (PREDICT, "function", "main"),
        (PREDICT, "loop", ".Lloop"),
        (PREDICT, "assume_lsd", True),
        (PREDICT, "workload", "fig4_loop"),
        (PREDICT, "core", "opteron"),
        (SIMULATE, "entry_symbol", "start"),
        (SIMULATE, "max_steps", 1000),
        (SIMULATE, "workload", "fig4_loop"),
        (SIMULATE, "core", "opteron"),
    ])
    def test_every_option_is_in_the_key(self, path, option, value):
        assert _key(path, **{option: value}) != _key(path)

    @pytest.mark.parametrize("path", [PREDICT, SIMULATE])
    def test_source_is_keyed_by_its_hash(self, path):
        key = _key(path, workload=None, source=SOURCE)
        assert key == _key(path, workload=None, source=SOURCE)
        assert key != _key(path, workload=None, source=SOURCE + "\n")
        assert SOURCE not in key

    @pytest.mark.parametrize("path", [PREDICT, SIMULATE])
    def test_tracing_is_not_in_the_key(self, path):
        payload = _payload(path)
        key = ENDPOINTS[path].coalesce(payload)
        payload.update(want_spans=True, want_counters=True)
        assert ENDPOINTS[path].coalesce(payload) == key

    def test_unreadable_profile_is_400(self, tmp_path, monkeypatch):
        assert tables.is_profile_name("core2")
        monkeypatch.setattr(tables, "DATA_DIR", str(tmp_path))
        with pytest.raises(ProtocolError) as excinfo:
            _key(PREDICT)
        assert excinfo.value.status == 400


class TestReplyMemo:
    def test_budget_evicts_the_least_recently_used(self):
        registry = obs.Registry()
        fields = {"cycles": 1}
        size = len("k0") + len(json.dumps(fields))
        memo = ReplyMemo(registry, max_bytes=3 * size)
        for key in ("k0", "k1", "k2"):
            memo.put(key, fields)
        assert memo.get("k0") is fields          # k1 is now the oldest
        memo.put("k3", fields)
        assert memo.get("k1") is None
        assert [memo.get(key) for key in ("k0", "k2", "k3")] \
            == [fields] * 3
        values = registry.snapshot()
        assert values["server.memo.evict"] == 1
        assert values["server.memo.hit"] == 4
        assert values["server.memo.miss"] == 1
        assert values["server.memo.bytes"] == memo.bytes == 3 * size

    def test_replacing_an_entry_keeps_the_byte_count(self):
        memo = ReplyMemo(obs.Registry(), max_bytes=1 << 20)
        memo.put("k", {"cycles": 1})
        memo.put("k", {"cycles": 1})
        assert memo.bytes == len("k") + len(json.dumps({"cycles": 1}))


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServerConfig(port=0, max_inflight=1,
                          cache_dir=str(tmp_path_factory.mktemp("memo")))
    with ServerThread(config) as handle:
        yield handle


@pytest.fixture
def client(server):
    with Client(port=server.port, retries=0, timeout=60) as c:
        yield c


class TestServer:
    def test_repeat_is_a_hit_with_the_same_reply(self, client):
        before = _memo_counts(client)
        requests_before = client.metrics()["values"].get(
            "server.predict.requests", 0)
        first = client.predict(workload="eon_loop", core="core2")
        again = client.predict(workload="eon_loop", core="core2")
        moved = _moved(before, _memo_counts(client))
        assert (moved["hit"], moved["miss"], moved["evict"]) == (1, 1, 0)
        assert moved["bytes"] > 0
        assert first.pop("request_id") != again.pop("request_id")
        assert json.dumps(first) == json.dumps(again)
        assert client.metrics()["values"]["server.predict.requests"] \
            == requests_before + 2

    def test_simulate_repeat_is_a_hit(self, client):
        before = _memo_counts(client)
        first = client.simulate(workload="fig4_loop", core="opteron",
                                max_steps=5000)
        again = client.simulate(workload="fig4_loop", core="opteron",
                                max_steps=5000)
        moved = _moved(before, _memo_counts(client))
        assert (moved["hit"], moved["miss"]) == (1, 1)
        first.pop("request_id")
        again.pop("request_id")
        assert first == again
        assert first["counters"]["INSTRUCTIONS"] == first["steps"]

    def test_inline_core_edit_misses(self, client):
        doc = _core2_doc()
        first = client.predict(workload="hash_bench", core=doc)
        before = _memo_counts(client)
        again = client.predict(workload="hash_bench", core=doc)
        slower = client.predict(workload="hash_bench", core=_slower(doc))
        moved = _moved(before, _memo_counts(client))
        assert (moved["hit"], moved["miss"]) == (1, 1)
        assert again["prediction"] == first["prediction"]
        assert slower["prediction"]["cycles"] \
            > first["prediction"]["cycles"]

    def test_errors_are_not_stored(self, client):
        before = _memo_counts(client)
        for _ in range(2):
            with pytest.raises(ServerError) as excinfo:
                client.predict(BAD_SOURCE, "core2")
            assert excinfo.value.status == 400
        moved = _moved(before, _memo_counts(client))
        assert (moved["hit"], moved["miss"]) == (0, 2)
        assert moved["bytes"] == before["bytes"]

    def test_hit_takes_no_execution_slot(self, server, client):
        client.predict(workload="fig4_loop", core="core2")
        # Hold the only slot: a miss would now wait for it.
        asyncio.run_coroutine_threadsafe(server.server._slots.acquire(),
                                         server._loop).result(timeout=10)
        try:
            with Client(port=server.port, retries=0, timeout=10) as other:
                reply = other.predict(workload="fig4_loop", core="core2")
        finally:
            server._loop.call_soon_threadsafe(server.server._slots.release)
        assert reply["prediction"]["cycles"] > 0


def test_profile_file_edit_misses(tmp_path, monkeypatch):
    shutil.copy(tables.profile_path("core2"), str(tmp_path))
    monkeypatch.setattr(tables, "DATA_DIR", str(tmp_path))
    config = ServerConfig(port=0, cache_dir=str(tmp_path / "cache"))
    with ServerThread(config) as handle:
        with Client(port=handle.port, retries=0) as client:
            first = client.predict(workload="hash_bench", core="core2")
            before = _memo_counts(client)
            again = client.predict(workload="hash_bench", core="core2")
            slower = _slower(_core2_doc())
            with open(tables.profile_path("core2"), "w") as out:
                json.dump(slower, out)
            edited = client.predict(workload="hash_bench", core="core2")
            moved = _moved(before, _memo_counts(client))
    assert (moved["hit"], moved["miss"]) == (1, 1)
    assert again["prediction"] == first["prediction"]
    assert edited["prediction"] == api.predict(
        None, "core2", workload="hash_bench").to_dict()
    assert edited["prediction"]["cycles"] > first["prediction"]["cycles"]


def test_no_cache_computes_every_request():
    name = "predict.requests"
    before = obs.REGISTRY.counter_value(name)
    config = ServerConfig(port=0, cache=False)
    with ServerThread(config) as handle:
        with Client(port=handle.port, retries=0) as client:
            memo_before = _memo_counts(client)
            for _ in range(2):
                client.predict(workload="fig4_loop", core="opteron")
            moved = _moved(memo_before, _memo_counts(client))
    assert obs.REGISTRY.counter_value(name) - before == 2
    assert (moved["hit"], moved["miss"], moved["evict"]) == (0, 0, 0)


def test_request_span_carries_memo_state(tmp_path):
    trace_path = str(tmp_path / "trace.jsonl")
    config = ServerConfig(port=0, cache_dir=str(tmp_path / "cache"),
                          trace_out=trace_path)
    was_enabled = obs.set_enabled(True)
    obs.reset_tracer()
    try:
        with ServerThread(config) as handle:
            with Client(port=handle.port, retries=0) as client:
                for rid in ("memo-1", "memo-2"):
                    client.simulate(workload="hash_bench", core="core2",
                                    max_steps=2000, request_id=rid)
    finally:
        obs.set_enabled(was_enabled)
        obs.reset_tracer()
    with open(trace_path) as handle_:
        spans = {event["attrs"]["request_id"]: event["attrs"]
                 for event in map(json.loads, handle_)
                 if event.get("type") == "span"
                 and event["name"] == "request:/v1/simulate"}
    assert spans["memo-1"]["memo"] == "miss"
    assert spans["memo-2"]["memo"] == "hit"
    assert spans["memo-2"]["cycles"] == spans["memo-1"]["cycles"]
    assert spans["memo-2"]["status"] == 200
