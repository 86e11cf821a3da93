"""A small blocking HTTP client for the gateway, plus the replay driver.

Tests, the differential oracle and ``bench_service`` talk to the gateway
through this module — stdlib ``http.client`` only.  A :class:`ServiceClient`
keeps one persistent connection per calling thread, as any HTTP/1.1 client
does, and opens a new one only when the gateway has closed the old.  It
never re-sends a request: ``POST /tx`` is not idempotent, so a connection
that dies after a request went out is the caller's error to see.

:func:`replay_through_gateway` is the service half of the differential
oracle: it takes a :class:`~repro.workloads.generator.WorkloadReplay`
(a recorded workload) and pushes every entry through ``POST /tx?wait=1``
one at a time.  Serial submission makes the committed set and the final
balances timing-independent — the same recorded invocations applied in the
same order abort/commit on state alone — which is exactly what lets the
wall-clock run be compared bit-for-bit against the simulated one.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
from typing import Any, Dict, List, Optional, Tuple


class ServiceHTTPError(Exception):
    """A non-2xx gateway answer, carrying the status and decoded body."""

    def __init__(self, status: int, body: Dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {body.get('error', body)}")
        self.status = status
        self.body = body


class ServiceClient:
    """Blocking JSON client for one gateway endpoint, safe to share between
    threads (each thread gets its own keep-alive connection)."""

    def __init__(self, endpoint: str, timeout: float = 60.0) -> None:
        endpoint = endpoint.rstrip("/")
        if endpoint.startswith("http://"):
            endpoint = endpoint[len("http://"):]
        self.host, _, port = endpoint.partition(":")
        self.port = int(port or 80)
        self.timeout = timeout
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, replaced if the gateway has closed it."""
        connection = getattr(self._local, "connection", None)
        if connection is not None and connection.sock is not None:
            # An idle keep-alive socket with anything to read — EOF, most
            # likely — is one the gateway has hung up; closing it makes
            # http.client connect afresh on the next request.
            poller = select.poll()
            poller.register(connection.sock, select.POLLIN)
            if poller.poll(0):
                connection.close()
        if connection is None:
            connection = http.client.HTTPConnection(self.host, self.port,
                                                    timeout=self.timeout)
            self._local.connection = connection
        return connection

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None) -> Tuple[int, Dict[str, Any]]:
        connection = self._connection()
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        decoded = json.loads(raw.decode()) if raw else {}
        return response.status, decoded

    # ------------------------------------------------------------ endpoints
    def submit(self, function: str, args: Dict[str, Any],
               client_id: str = "client", wait: bool = False,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        path = "/tx"
        if wait:
            path += f"?wait=1&timeout={timeout if timeout is not None else self.timeout}"
        status, body = self.request("POST", path, {
            "function": function, "args": args, "client_id": client_id})
        if status not in (200, 202):
            raise ServiceHTTPError(status, body)
        return body

    def tx_status(self, tx_id: str) -> Tuple[int, Dict[str, Any]]:
        return self.request("GET", f"/tx/{tx_id}")

    def balance(self, key: str) -> Any:
        status, body = self.request("GET", f"/balance/{key}")
        if status != 200:
            raise ServiceHTTPError(status, body)
        return body["balance"]

    def health(self) -> Dict[str, Any]:
        status, body = self.request("GET", "/health")
        if status != 200:
            raise ServiceHTTPError(status, body)
        return body


def replay_through_gateway(client: ServiceClient, replay: Any,
                           wait: bool = True,
                           retry_overload: bool = True) -> List[Dict[str, Any]]:
    """Push a recorded workload through the gateway, one entry at a time.

    Returns one result dict per entry (the gateway's JSON answer).  A 429
    (window full — only possible with ``wait=False``) is retried after the
    advertised backoff rather than dropped, so the replayed history stays
    complete.
    """
    results: List[Dict[str, Any]] = []
    for entry in replay.entries:
        while True:
            try:
                result = client.submit(entry["function"], entry["args"],
                                       client_id=entry.get("client_id", "replay"),
                                       wait=wait)
                break
            except ServiceHTTPError as exc:
                if retry_overload and exc.status == 429:
                    time.sleep(float(exc.body.get("retry_after", 1)) if
                               isinstance(exc.body, dict) and
                               "retry_after" in exc.body else 0.5)
                    continue
                raise
        results.append(result)
    return results
