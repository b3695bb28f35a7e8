"""The long-lived skyline query service.

Everything below :mod:`repro.server` turns the library-call-shaped
engine stack (contexts, compiled-preference cache, warm worker pool,
sharded MVCC relations) into a network service:

* :mod:`repro.server.protocol` -- the length-prefixed JSON wire format
  shared by server, client and load generator;
* :class:`ResultCache` -- an LRU of fully-serialised answers keyed on
  (relation identity + write version, compiled-preference key, query
  shape), invalidated by :class:`~repro.core.sharding.ShardedRelation`
  write listeners and version-checked on every hit so a stale entry can
  never be served;
* :class:`SkylineServer` -- the asyncio front-end: statements are
  parsed once, executed on a bounded thread pool through the existing
  planner/engine paths, per-request deadlines and client disconnects
  propagate through :class:`~repro.engine.ExecutionContext`
  cancellation, and queue-depth admission control sheds load by
  returning a ``≻ext``-sorted progressive *prefix* of the answer
  (flagged ``"partial": true``) instead of erroring;
* :class:`SkylineClient` -- a small blocking client used by the tests,
  the CLI and the load generator;
* :mod:`repro.server.loadgen` -- a concurrent multi-client load
  generator whose correlated p-expression workloads come from the
  elicitation model (:mod:`repro.elicitation.greedy`), driving the
  ``server`` tier of ``repro-skyline gate``.
"""

from .cache import ResultCache
from .client import ServerError, SkylineClient
from .protocol import (MAX_FRAME, ProtocolError, decode_frame,
                       encode_frame, read_frame, write_frame)
from .service import ServerHandle, SkylineServer, serve_in_thread

__all__ = [
    "ResultCache",
    "SkylineServer",
    "ServerHandle",
    "serve_in_thread",
    "SkylineClient",
    "ServerError",
    "ProtocolError",
    "MAX_FRAME",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "write_frame",
]
