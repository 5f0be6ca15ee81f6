"""The one HTTP client behind the explorer and the search provider.

Request starts are spaced to at most `rate_limit` per second; 429, 5xx and
transport errors are retried with exponential backoff, or after the wait a
429 or 503 asks for in `Retry-After` (seconds, at most RETRY_AFTER_MAX_S, so
a server cannot stall a run). `requests` is
imported only when no session is passed in, so fixture replays never load
it. This module imports nothing from onionforge.
"""

from __future__ import annotations

import time

MAX_RETRIES = 3
BACKOFF_S = 0.5  # the wait before retry k (from 0) is BACKOFF_S * 2**k
RETRY_AFTER_MAX_S = 30.0
TIMEOUT_S = 30.0

NOT_FOUND = object()  # what `Client.get_json` returns for a 404


class FetchError(Exception):
    pass


def _retry_after(resp) -> float | None:
    """The capped delta-seconds of a 429/503 `Retry-After`; None if absent or not one."""
    if resp.status_code not in (429, 503):
        return None
    value = (resp.headers.get("Retry-After") or "").strip()
    if not (value.isascii() and value.isdigit()):
        return None  # an HTTP-date is not honoured: the backoff applies
    return min(float(value), RETRY_AFTER_MAX_S)


class Client:
    def __init__(self, session=None, rate_limit: float | None = None):
        if session is None:
            import requests
            session = requests.Session()
        self.session = session
        self._min_interval = 1.0 / rate_limit if rate_limit else 0.0
        self._last_start = None

    def _throttle(self):
        if not self._min_interval:
            return
        if self._last_start is not None:
            wait = self._last_start + self._min_interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
        self._last_start = time.monotonic()

    def get_json(self, url: str, params: dict | None = None):
        """The JSON body of GET `url`, or NOT_FOUND for a 404; any other 4xx,
        or running out of retries, raises FetchError."""
        last = None
        for attempt in range(MAX_RETRIES + 1):
            self._throttle()
            wait = None
            try:
                resp = self.session.get(url, params=params, timeout=TIMEOUT_S)
            except Exception as exc:
                last = exc
            else:
                if resp.status_code == 404:
                    return NOT_FOUND
                if resp.status_code < 400:
                    return resp.json()
                last = FetchError("HTTP %d from %s" % (resp.status_code, url))
                if resp.status_code < 500 and resp.status_code != 429:
                    raise last
                wait = _retry_after(resp)
            if attempt < MAX_RETRIES:
                time.sleep(BACKOFF_S * (2 ** attempt) if wait is None else wait)
        raise FetchError("giving up on %s: %s" % (url, last))
