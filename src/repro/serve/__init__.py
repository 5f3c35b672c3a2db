"""XSQ as a service: persistent subscriptions over streaming documents.

The paper positions streaming XPath as the matching core of a data
*dissemination* service — many standing queries, documents arriving as
byte streams, results pushed to subscribers as soon as the buffering
discipline determines them.  This package is that service, in two
transport-independent layers:

* :class:`SubscriptionBroker` / :class:`BrokerStream`
  (:mod:`repro.serve.broker`) — the synchronous core: a hot
  subscribe/unsubscribe registry with per-tenant quotas and metrics,
  compiling the distinct standing queries into one shared-dispatch
  grouped engine (kernel-capable members on their generated kernels),
  evaluated incrementally per document and fanned out to every
  subscription that holds each query.
* :class:`XsqServer` / :func:`serve` (:mod:`repro.serve.server`) — the
  asyncio JSON-lines front-end behind ``xsq serve``: per-connection
  tenants, result fan-out to each subscription's owner, bounded
  outbound queues with block-or-drop overflow, and an optional
  ``/metrics`` endpoint.
"""

from repro.serve.broker import (
    DEFAULT_TENANT,
    BrokerStream,
    Subscription,
    SubscriptionBroker,
)
from repro.serve.server import DEFAULT_QUEUE_SIZE, XsqServer, serve

__all__ = [
    "SubscriptionBroker",
    "BrokerStream",
    "Subscription",
    "XsqServer",
    "serve",
    "DEFAULT_TENANT",
    "DEFAULT_QUEUE_SIZE",
]
