"""``repro.server`` — the asyncio optimization service.

The network layer over :mod:`repro.api`: a long-lived HTTP server
(``mao serve``) exposing ``/v1/optimize``, ``/v1/batch``,
``/v1/simulate``, ``/v1/predict``, ``/v1/tune`` and ``/v1/profile``
behind bounded admission control on one worker pool, plus ``/healthz``
and ``/metrics`` views over :mod:`repro.obs`.  Optimize, batch and tune
share one persistent artifact cache.  :data:`repro.server.work.ENDPOINTS`
is the one list of the ``/v1`` endpoints; the server and its pool read
each endpoint's row from it.  The blocking
:class:`~repro.server.client.Client` (and the ``mao remote`` verb) is
the supported way to talk to it.

On N cores, run ``mao serve --parallel-backend process --max-inflight
N``: N worker processes behind one front process that keeps one
admission queue, one singleflight table and one artifact cache.

In-process use::

    from repro.server import ServerConfig, ServerThread, Client

    config = ServerConfig(port=0, cache_dir="/tmp/pymao-cache")
    with ServerThread(config) as handle:
        with Client(port=handle.port) as client:
            result = client.optimize(source, "REDTEST:LOOP16")
            result["asm"], result["pipeline"], result["cache"]
"""

from repro.server.app import (
    MaoServer,
    SERVER_SCHEMA,
    ServerConfig,
    ServerThread,
)
from repro.server.client import (
    Client,
    DEFAULT_PORT,
    ServerBusy,
    ServerError,
    ServerUnavailable,
)

__all__ = [
    "MaoServer",
    "ServerConfig",
    "ServerThread",
    "SERVER_SCHEMA",
    "Client",
    "DEFAULT_PORT",
    "ServerError",
    "ServerBusy",
    "ServerUnavailable",
]
