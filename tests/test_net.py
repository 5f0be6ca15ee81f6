"""`net.Client`'s waits between attempts, recorded instead of slept."""

import pytest

from onionforge import net

from fakehttp import FakeResponse, FakeSession

OK = FakeResponse(200, {"ok": True})


@pytest.fixture
def waits(monkeypatch):
    recorded = []
    monkeypatch.setattr(net.time, "sleep", recorded.append)
    return recorded


def get(script):
    return net.Client(session=FakeSession(script)).get_json("http://x/")


@pytest.mark.parametrize("status", [429, 503])
def test_retry_after_replaces_the_backoff(waits, status):
    assert get([FakeResponse(status, headers={"Retry-After": "7"}), OK]) == {"ok": True}
    assert waits == [7.0]


def test_retry_after_is_capped(waits):
    assert get([FakeResponse(429, headers={"Retry-After": "86400"}), OK]) == {"ok": True}
    assert waits == [net.RETRY_AFTER_MAX_S]


@pytest.mark.parametrize("value", [None, "", "soon", "Wed, 21 Oct 2015 07:28:00 GMT",
                                   "-5", "1.5", "nan", "inf", "٣"])
def test_unusable_retry_after_falls_back_to_the_backoff(waits, value):
    headers = {} if value is None else {"Retry-After": value}
    get([FakeResponse(503, headers=headers)] * 3 + [OK])
    assert waits == [net.BACKOFF_S, net.BACKOFF_S * 2, net.BACKOFF_S * 4]


def test_retry_after_counts_only_on_429_and_503(waits):
    get([FakeResponse(500, headers={"Retry-After": "7"}),
         FakeResponse(429, headers={"Retry-After": "2"}), FakeResponse(502), OK])
    assert waits == [net.BACKOFF_S, 2.0, net.BACKOFF_S * 4]


def test_retry_after_past_the_last_attempt_is_not_waited(waits):
    with pytest.raises(net.FetchError):
        get([FakeResponse(429, headers={"Retry-After": "1"})] * (net.MAX_RETRIES + 1))
    assert waits == [1.0] * net.MAX_RETRIES
