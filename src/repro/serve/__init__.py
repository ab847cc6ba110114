"""``repro.serve`` — the simulation engine as a network service.

Seven pieces (see ``docs/serve.md`` and ``docs/gateway.md``):

* :mod:`repro.serve.protocol` — length-prefixed JSON framing with a
  sans-IO incremental decoder and asyncio stream helpers;
* :mod:`repro.serve.workers` — persistent sharded worker processes with
  trace-affinity routing, restart-on-crash and in-process fallback;
* :mod:`repro.serve.batcher` — the micro-batching coalescer that turns
  many concurrent ``simulate`` requests into few worker round-trips,
  with cross-window singleflight on identical jobs, and the
  :class:`Singleflight` request collapser the server runs in front of
  the result cache (:class:`repro.engine.results.ResultCache`);
* :mod:`repro.serve.admission` — per-client token-bucket rate limiting
  and weighted fair queueing in front of the in-flight budget;
* :mod:`repro.serve.server` — the ``bcache-serve`` asyncio TCP/Unix
  server: admission control, load shedding, graceful SIGTERM drain;
* :mod:`repro.serve.gateway` — the ``bcache-gateway`` HTTP/1.1 + JSON
  front end (NDJSON-streamed sweeps, ``Retry-After`` on overload);
* :mod:`repro.serve.client` / :mod:`repro.serve.loadgen` — blocking and
  asyncio clients, plus the ``bcache-loadgen`` benchmark harness behind
  ``BENCH_serve.json``.

Served statistics are **bit-identical** to a local
``Cache.access_trace`` replay of the same job: the shards run the very
:func:`repro.engine.runner.execute_job` path every CLI tool uses.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionOverload,
    RateLimited,
    TokenBucket,
)
from repro.engine.results import ResultCache, engine_fingerprint, job_hash
from repro.serve.batcher import (
    BatchMetrics,
    MicroBatcher,
    SimulationError,
    Singleflight,
)
from repro.serve.client import (
    AsyncServeClient,
    DrainingError,
    OverloadedError,
    RateLimitedError,
    ServeClient,
    ServeError,
    parse_address,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameTooLarge,
    ProtocolError,
    decode_payload,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.serve.server import ServeConfig, SimServer
from repro.serve.workers import ShardPool

#: Gateway exports resolved lazily so ``python -m repro.serve.gateway``
#: does not import the module twice (runpy would warn and the CLI ready
#: line would no longer be the first stdout line).
_GATEWAY_EXPORTS = ("Gateway", "GatewayConfig", "RequestDecoder")


def __getattr__(name: str) -> object:
    if name in _GATEWAY_EXPORTS:
        from repro.serve import gateway

        return getattr(gateway, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdmissionController",
    "AdmissionOverload",
    "AsyncServeClient",
    "BatchMetrics",
    "DrainingError",
    "FrameDecoder",
    "FrameTooLarge",
    "Gateway",
    "GatewayConfig",
    "MAX_FRAME_BYTES",
    "MicroBatcher",
    "OverloadedError",
    "ProtocolError",
    "RateLimited",
    "RateLimitedError",
    "RequestDecoder",
    "ResultCache",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ShardPool",
    "SimServer",
    "SimulationError",
    "Singleflight",
    "TokenBucket",
    "decode_payload",
    "encode_frame",
    "engine_fingerprint",
    "job_hash",
    "parse_address",
    "read_frame",
    "write_frame",
]
