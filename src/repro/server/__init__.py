"""``repro.server`` — the asyncio optimization service.

The network layer over :mod:`repro.api`: a long-lived HTTP server
(``mao serve``) exposing ``/v1/optimize``, ``/v1/batch``,
``/v1/simulate``, ``/v1/predict``, ``/v1/tune`` and ``/v1/profile``
behind bounded admission control on one worker pool, plus ``/healthz``
and ``/metrics`` views over :mod:`repro.obs`.  Optimize, batch and tune
share one persistent artifact cache.  :data:`repro.server.work.ENDPOINTS`
is the one list of the ``/v1`` endpoints; the server, the fleet and the
pool read each endpoint's row from it.  The blocking
:class:`~repro.server.client.Client` (and the ``mao remote`` verb) is
the supported way to talk to it.

``mao fleet`` (:mod:`repro.server.fleet`) scales the same service
horizontally: a front-door process routes to N ``mao serve`` worker
subprocesses over a consistent-hash ring (:mod:`repro.server.ring`)
keyed by the artifact cache key, with aggregated health/metrics and
rolling restarts.

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
from repro.server.fleet import (
    FLEET_SCHEMA,
    FleetConfig,
    FleetServer,
    FleetThread,
)
from repro.server.ring import HashRing

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
    "FleetConfig",
    "FleetServer",
    "FleetThread",
    "FLEET_SCHEMA",
    "HashRing",
]
