import itertools
import json
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from onionforge import chain, net, report
from onionforge.chain import (
    ChainError, FetchError, FixtureExplorer,
    HttpExplorer, Transaction, TxIO, active_period,
    dormant_addresses, estimate_income, fetch_all,
    filter_illicit_addresses, is_internal, ledger_json, load_annotations,
    multi_category, parse_transaction, unique_transactions,
)
from onionforge.classify import CATEGORIES

from fakehttp import FakeResponse, FakeSession, http_response, serve
from rows import illicit_of, input_from, output_to

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)


def txid(n):
    return "%064x" % n


def mktx(n, ins, outs, when=None, coinbase=False):
    return Transaction(
        txid=txid(n), timestamp=when or (T0 + timedelta(hours=n)),
        inputs=tuple(TxIO(a, v) for a, v in ins),
        outputs=tuple(TxIO(a, v) for a, v in outs),
        coinbase=coinbase)


def transaction_to_dict(tx):
    """One transaction as a ledger file's JSON object: the oracle for `ledger_json`."""
    return {
        "txid": tx.txid,
        "timestamp": tx.timestamp.isoformat().replace("+00:00", "Z"),
        "coinbase": tx.coinbase,
        "inputs": [{"address": i.address, "value": i.value} for i in tx.inputs],
        "outputs": [{"address": o.address, "value": o.value} for o in tx.outputs],
    }


class TestTransaction:
    GOOD = {"txid": txid(1), "timestamp": "2020-01-01T00:00:00Z",
            "inputs": [{"address": "a", "value": 1}], "outputs": []}

    def test_txid_must_be_hex64(self):
        with pytest.raises(ChainError, match="txid"):
            parse_transaction(dict(self.GOOD, txid="zz"))

    def test_negative_value_rejected(self):
        with pytest.raises(ChainError, match="satoshis"):
            parse_transaction(dict(self.GOOD, inputs=[{"address": "a", "value": -5}]))

    def test_coinbase_may_lack_inputs(self):
        tx = mktx(1, [], [("a", 50)], coinbase=True)
        assert tx.coinbase

    def test_non_coinbase_needs_inputs(self):
        with pytest.raises(ChainError, match="no inputs"):
            parse_transaction(dict(self.GOOD, inputs=[], outputs=[{"address": "a",
                                                                   "value": 50}]))

    def test_serialization_roundtrip(self):
        tx = mktx(7, [("in1", 10), ("in2", 5)], [("out1", 14)])
        assert parse_transaction(transaction_to_dict(tx)) == tx

    def test_non_string_address_rejected(self):
        with pytest.raises(ChainError, match="not a string"):
            parse_transaction(dict(self.GOOD, inputs=[{"address": 5, "value": 1}]))

    def test_epoch_timestamps_accepted(self):
        tx = parse_transaction({"txid": txid(1), "time": 1577836800,
                                "inputs": [{"address": "a", "value": 1}],
                                "outputs": []})
        assert tx.timestamp == T0


class TestLedger:
    def test_fixture_sums(self, tmp_path):
        txs = [
            {"txid": txid(1), "timestamp": "2020-01-01T00:00:00Z",
             "inputs": [{"address": "ext1", "value": 300}],
             "outputs": [{"address": "addr", "value": 300}]},
            {"txid": txid(2), "timestamp": "2020-01-02T00:00:00Z",
             "inputs": [{"address": "ext2", "value": 450}],
             "outputs": [{"address": "addr", "value": 400},
                         {"address": "ext2", "value": 50}]},
            {"txid": txid(3), "timestamp": "2020-01-03T00:00:00Z",
             "inputs": [{"address": "addr", "value": 250}],
             "outputs": [{"address": "ext3", "value": 250}]},
        ]
        (tmp_path / "fixtures").mkdir()
        (tmp_path / "fixtures" / "addr.json").write_text(json.dumps(txs))
        ledgers, _ = fetch_all(["addr"], FixtureExplorer(tmp_path / "fixtures"))
        assert len(ledgers["addr"]) == 3
        # hand sums: received 300 + 400, sent 250
        assert index_row(tmp_path, ledgers, "addr") == {
            "v": 1, "address": "addr", "transactions": 3, "received": 700, "sent": 250,
            "balance": 450, "active_days": 3}

    def test_unknown_address_empty(self, tmp_path):
        ledgers, failures = fetch_all(["missing"], FixtureExplorer(tmp_path))
        assert ledgers == {"missing": ()} and not failures
        assert active_period(ledgers["missing"]) is None

    @pytest.mark.parametrize("kind", ["directory", "broken link", "looping link"])
    def test_fixture_that_is_no_file_is_an_unknown_address(self, tmp_path, kind):
        path = tmp_path / "a.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.symlink_to(path if kind == "looping link" else tmp_path / "absent.json")
        assert fetch_all(["a"], FixtureExplorer(tmp_path)) == ({"a": ()}, {})

    def test_fetch_idempotent(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps([transaction_to_dict(
            mktx(1, [("x", 5)], [("a", 5)]))]))
        assert fetch_all(["a"], FixtureExplorer(tmp_path)) == \
            fetch_all(["a"], FixtureExplorer(tmp_path))

    def test_duplicate_txids_collapsed(self):
        tx = mktx(1, [("x", 5)], [("a", 5)])
        assert chain.ledger("a", [tx, tx, tx]) == (tx,)

    def test_time_ordering(self):
        t2 = mktx(2, [("x", 1)], [("a", 1)], when=T0 + timedelta(days=2))
        t1 = mktx(1, [("x", 1)], [("a", 1)], when=T0)
        assert chain.ledger("a", [t2, t1]) == (t1, t2)

    def test_overdrawn_history_rejected(self):
        tx = mktx(1, [("a", 100)], [("x", 100)])
        with pytest.raises(ChainError, match="spends more"):
            chain.ledger("a", [tx])

    def test_recomputed_fields_match(self, tmp_path):
        rng = random.Random(5)
        txs = []
        funded = 0
        for i in range(20):
            v = rng.randint(1, 1000)
            txs.append(mktx(i, [("ext", v)], [("a", v)]))
            funded += v
        spend = rng.randint(0, funded)
        txs.append(mktx(99, [("a", spend)], [("ext", spend)]))
        row = index_row(tmp_path, {"a": chain.ledger("a", txs)}, "a")
        assert row["received"] == sum(output_to(t, "a") for t in txs) == funded
        assert row["sent"] == sum(input_from(t, "a") for t in txs) == spend
        assert row["balance"] == row["received"] - row["sent"] >= 0


def index_row(tmp_path, ledgers, address):
    """`address`'s row of the `_index.jsonl` that `report.write_ledgers` writes for `ledgers`."""
    report.write_ledgers(tmp_path, report.Ledgers(ledgers))
    rows = [json.loads(line) for line in (tmp_path / "_index.jsonl").read_text().splitlines()]
    return next(row for row in rows if row["address"] == address)


def tx_rows(start, count):
    return [transaction_to_dict(mktx(n, [("x", 1)], [("a", 1)]))
            for n in range(start, start + count)]


class TestMalformedLedgerRows:
    GOOD = transaction_to_dict(mktx(1, [("x", 5)], [("good", 5)]))

    @pytest.mark.parametrize("bad_row", [
        {k: v for k, v in GOOD.items() if k != "txid"},
        dict(GOOD, inputs=[{"value": 5}]),
        dict(GOOD, inputs=[{"address": "x"}]),
        dict(GOOD, outputs=[{"value": 5}]),
        dict(GOOD, outputs=[{"address": "good"}]),
        dict(GOOD, outputs=[{"address": "good", "value": None}]),
        dict(GOOD, outputs=["a"]),
        dict(GOOD, outputs=[{"address": 5, "value": 5}]),
        dict(GOOD, outputs=[{"address": "good", "value": float("inf")}]),  # Infinity
        dict(GOOD, timestamp=1e20),  # epoch seconds past datetime's range
        ["not", "an", "object"],
        "not an object",
        dict(GOOD, outputs=[{"address": "good", "value": 0.5}]),  # not cut down to 0
        dict(GOOD, outputs=[{"address": "good", "value": 1.9}]),  # not cut down to 1
        dict(GOOD, inputs=[{"address": "x", "value": True}]),  # not read as 1
        dict(GOOD, txid=GOOD["txid"] + "\n"),  # a txid with a trailing newline
        dict(GOOD, coinbase="false", inputs=[]),  # not read as a coinbase
        dict(GOOD, coinbase=1, inputs=[]),
        dict(GOOD, timestamp=True),  # not read as epoch second 1
        {k: v for k, v in GOOD.items() if k != "timestamp"},
        dict(GOOD, outputs=[{"address": "good", "value": "5"}]),  # not read as 5
        dict(GOOD, timestamp=1e17),  # past gmtime's range: OSError, not ValueError
    ])
    def test_is_a_per_address_failure(self, tmp_path, bad_row):
        (tmp_path / "bad.json").write_text(json.dumps([self.GOOD, bad_row]))
        (tmp_path / "good.json").write_text(json.dumps([self.GOOD]))
        ledgers, failures = fetch_all(["bad", "good"], FixtureExplorer(tmp_path))
        assert list(ledgers) == ["good"] and ledgers["good"] == (parse_transaction(self.GOOD),)
        assert list(failures) == ["bad"]
        with pytest.raises(ChainError):
            parse_transaction(bad_row)

    def test_fixture_not_json_is_a_per_address_failure(self, tmp_path):
        (tmp_path / "bad.json").write_text("[{not json")
        (tmp_path / "good.json").write_text(json.dumps([self.GOOD]))
        ledgers, failures = fetch_all(["bad", "good"], FixtureExplorer(tmp_path))
        assert list(ledgers) == ["good"] and list(failures) == ["bad"]

    @pytest.mark.parametrize("payload", [5, None, GOOD])
    def test_fixture_not_an_array_is_a_per_address_failure(self, tmp_path, payload):
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        (tmp_path / "good.json").write_text(json.dumps([self.GOOD]))
        ledgers, failures = fetch_all(["bad", "good"], FixtureExplorer(tmp_path))
        assert list(ledgers) == ["good"] and ledgers["good"] == (parse_transaction(self.GOOD),)
        assert list(failures) == ["bad"]
        assert "not a JSON array" in failures["bad"]

    def test_whole_float_value_is_kept(self, tmp_path):
        row = dict(self.GOOD, outputs=[{"address": "good", "value": 5.0}])
        (tmp_path / "good.json").write_text(json.dumps([row]))
        ledgers, failures = fetch_all(["good"], FixtureExplorer(tmp_path))
        assert not failures and output_to(ledgers["good"][0], "good") == 5

    def test_parse_raises_chain_error(self):
        with pytest.raises(ChainError, match="txid"):
            parse_transaction({"timestamp": 0, "inputs": [], "coinbase": True})


@pytest.fixture
def no_backoff(monkeypatch):
    monkeypatch.setattr(net, "BACKOFF_S", 0.0)


@pytest.mark.usefixtures("no_backoff")
class TestHttpExplorer:
    def test_pagination_no_duplicates(self):
        session = FakeSession([
            FakeResponse(200, {"page": 1, "total_pages": 2, "transactions": tx_rows(0, 50)}),
            FakeResponse(200, {"page": 2, "total_pages": 2, "transactions": tx_rows(50, 50)}),
        ])
        explorer = HttpExplorer("http://x", session=session)
        txs = chain.ledger("a", explorer.transactions("a"))
        assert len(txs) == 100
        assert len({t.txid for t in txs}) == 100

    def test_retry_then_success(self):
        session = FakeSession([
            FakeResponse(500),
            FakeResponse(503),
            FakeResponse(200, {"page": 1, "total_pages": 1, "transactions": tx_rows(0, 3)}),
        ])
        explorer = HttpExplorer("http://x", session=session)
        assert len(explorer.transactions("a")) == 3

    def test_transport_error_is_retried(self):
        session = FakeSession([
            ConnectionError("connection reset"),
            FakeResponse(200, {"page": 1, "total_pages": 1, "transactions": tx_rows(0, 3)}),
        ])
        explorer = HttpExplorer("http://x", session=session)
        assert len(explorer.transactions("a")) == 3
        assert len(session.calls) == 2

    def test_bounded_retries_then_failure(self):
        session = FakeSession([FakeResponse(500)] * 10)
        explorer = HttpExplorer("http://x", session=session)
        with pytest.raises(FetchError):
            explorer.transactions("a")
        assert len(session.calls) == net.MAX_RETRIES + 1  # initial + retries

    def test_404_is_empty(self):
        explorer = HttpExplorer("http://x", session=FakeSession([FakeResponse(404)]))
        assert explorer.transactions("a") == []

    def test_fetch_all_records_failures(self):
        session = FakeSession([FakeResponse(500)] * (net.MAX_RETRIES + 1)
                              + [FakeResponse(200, {"page": 1, "total_pages": 1,
                                                    "transactions": []})])
        explorer = HttpExplorer("http://x", session=session)
        ledgers, failures = fetch_all(["bad", "good"], explorer)
        assert "bad" in failures and "good" in ledgers

    @pytest.mark.parametrize("payload", [
        [], "transactions", {"transactions": 5},
        {"transactions": [], "total_pages": None}, None,
        {"error": "rate limited"}, {"total_pages": 1},
        # total_pages is a whole, non-bool number, as a value is: not 2, 1 and 2
        {"transactions": [], "total_pages": "2"},
        {"transactions": [], "total_pages": True},
        {"transactions": [], "total_pages": 2.5},
    ])
    def test_malformed_page_is_a_per_address_failure(self, payload):
        session = FakeSession([FakeResponse(200, payload),
                               FakeResponse(200, {"page": 1, "total_pages": 1,
                                                  "transactions": tx_rows(0, 2)})])
        ledgers, failures = fetch_all(["bad", "good"], HttpExplorer("http://x", session=session))
        assert list(ledgers) == ["good"] and len(ledgers["good"]) == 2
        assert list(failures) == ["bad"]
        assert "malformed page" in failures["bad"]

    def test_body_not_json_is_a_per_address_failure(self):
        not_json = http_response(200)
        not_json._content = b"<html>busy</html>"
        session = FakeSession([not_json,
                               FakeResponse(200, {"page": 1, "total_pages": 1,
                                                  "transactions": tx_rows(0, 2)})])
        ledgers, failures = fetch_all(["bad", "good"], HttpExplorer("http://x", session=session))
        assert list(ledgers) == ["good"] and len(ledgers["good"]) == 2
        assert list(failures) == ["bad"]

    @pytest.mark.parametrize("second_page, reason", [
        (FakeResponse(404), "page 2 of 2 not found"),
        (FakeResponse(200, None), "malformed page"),
    ], ids=["404", "null"])
    def test_unusable_later_page_fails_the_address(self, second_page, reason):
        # page 1 must not be silently lost behind an empty ledger
        session = FakeSession([
            FakeResponse(200, {"page": 1, "total_pages": 2, "transactions": tx_rows(0, 3)}),
            second_page,
            FakeResponse(200, {"page": 1, "total_pages": 1, "transactions": tx_rows(3, 2)}),
        ])
        ledgers, failures = fetch_all(["bad", "good"], HttpExplorer("http://x", session=session))
        assert list(ledgers) == ["good"] and len(ledgers["good"]) == 2
        assert list(failures) == ["bad"] and reason in failures["bad"]

    def test_429_is_retried(self):
        session = FakeSession([
            http_response(429), http_response(429),
            http_response(200, {"page": 1, "total_pages": 1, "transactions": tx_rows(0, 3)}),
        ])
        explorer = HttpExplorer("http://x", session=session)
        assert len(explorer.transactions("a")) == 3
        assert len(session.calls) == 3

    def test_429_without_end_is_a_per_address_failure(self):
        session = FakeSession([http_response(429)] * (net.MAX_RETRIES + 1)
                              + [http_response(200, {"page": 1, "total_pages": 1,
                                                     "transactions": tx_rows(0, 2)})])
        explorer = HttpExplorer("http://x", session=session)
        ledgers, failures = fetch_all(["busy", "good"], explorer)
        assert "429" in failures["busy"]
        assert list(ledgers) == ["good"] and len(ledgers["good"]) == 2
        assert len(session.calls) == net.MAX_RETRIES + 2

    @pytest.mark.parametrize("status", [400, 401, 403, 410])
    def test_other_4xx_fails_without_retry(self, status):
        session = FakeSession([http_response(status)] * 4)
        explorer = HttpExplorer("http://x", session=session)
        with pytest.raises(FetchError, match=str(status)):
            explorer.transactions("a")
        assert len(session.calls) == 1

    def test_against_real_http_server(self):
        to_serve = {
            1: {"page": 1, "total_pages": 2, "transactions": tx_rows(0, 2)},
            2: {"page": 2, "total_pages": 2, "transactions": tx_rows(2, 2)},
        }

        def respond(path):
            if "/address/known/" in path:
                return 200, to_serve[int(path.rsplit("page=", 1)[1])]
            return 404, None

        with serve(respond) as base:
            explorer = HttpExplorer(base)  # default requests session
            assert len(explorer.transactions("known")) == 4
            assert explorer.transactions("unknown") == []

    def test_endless_pages_hit_the_page_cap(self, monkeypatch):
        class OneMorePage:
            def __init__(self):
                self.calls = []

            def get(self, url, params=None, timeout=None):
                self.calls.append(url)
                page = len(self.calls)  # one more page each time, up to page 20
                return FakeResponse(200, {"page": page, "total_pages": min(page + 1, 20),
                                          "transactions": tx_rows(page, 1)})

        monkeypatch.setattr(chain, "MAX_PAGES", 3)
        session = OneMorePage()
        ledgers, failures = fetch_all(["a"], HttpExplorer("http://x", session=session))
        assert ledgers == {} and "more than 3 pages" in failures["a"]
        assert len(session.calls) == 3

    def test_rate_limit_spaces_request_starts(self, monkeypatch):
        clock = {"now": 0.0}
        naps = []
        monkeypatch.setattr("onionforge.net.time.monotonic", lambda: clock["now"])

        def fake_sleep(seconds):
            naps.append(seconds)
            clock["now"] += seconds
        monkeypatch.setattr("onionforge.net.time.sleep", fake_sleep)
        pages = [FakeResponse(200, {"page": 1, "total_pages": 1, "transactions": []})
                 for _ in range(3)]
        explorer = HttpExplorer("http://x", session=FakeSession(pages), rate_limit=2.0)
        for addr in ("a", "b", "c"):
            explorer.transactions(addr)
        # 2 req/s -> second and third starts wait ~0.5s each
        assert len(naps) == 2
        assert all(abs(n - 0.5) < 1e-9 for n in naps)


class TestInternal:
    def test_all_membership_combinations(self):
        illicit = illicit_of(("i1", "s.onion", "Drugs"),
                             ("i2", "s.onion", "Drugs"))
        for in_has, out_has, multi_in, multi_out in itertools.product(
                (False, True), repeat=4):
            ins = [("i1" if in_has else "e1", 5)]
            outs = [("i2" if out_has else "e2", 5)]
            if multi_in:
                ins.append(("e3", 1))
            if multi_out:
                outs.append(("e4", 1))
            tx = mktx(1, ins, outs)
            assert is_internal(tx, illicit) is (in_has and out_has)

    def test_symmetry(self):
        illicit = illicit_of(("a", "s.onion", "Drugs"),
                             ("b", "s.onion", "Drugs"))
        fwd = mktx(1, [("a", 5)], [("b", 5)])
        rev = mktx(2, [("b", 5)], [("a", 5)])
        assert is_internal(fwd, illicit) and is_internal(rev, illicit)


def brute_force_income(illicit, ledgers):
    """Oracle: walk every distinct output and test the internality rule."""
    seen = set()
    total = 0
    for txs in ledgers.values():
        for tx in txs:
            if tx.txid in seen:
                continue
            seen.add(tx.txid)
            internal = (any(i.address in illicit for i in tx.inputs)
                        and any(o.address in illicit for o in tx.outputs))
            if internal:
                continue
            for out in tx.outputs:
                if out.address in illicit:
                    total += out.value
    return total


def random_ledger_set(rng, n_addresses=6, n_txs=20):
    pool = ["a%d" % i for i in range(n_addresses)] + ["e%d" % i for i in range(4)]
    cats = list(CATEGORIES)
    illicit = illicit_of(*(("a%d" % i, "site%d.onion" % i, rng.choice(cats))
                           for i in range(n_addresses)))
    txs = []
    for n in range(n_txs):
        ins = [(rng.choice(pool), rng.randint(1, 500)) for _ in range(rng.randint(1, 3))]
        outs = [(rng.choice(pool), rng.randint(1, 500)) for _ in range(rng.randint(1, 3))]
        txs.append(mktx(n, ins, outs))
    ledgers = {}
    for k, addr in enumerate(illicit):
        mine = [t for t in txs
                if output_to(t, addr) or input_from(t, addr)]
        received = sum(output_to(t, addr) for t in mine)
        spent = sum(input_from(t, addr) for t in mine)
        if spent > received:   # keep the ledger invariant satisfiable
            mine.append(mktx(1000 + k, [("efund", spent)],
                             [(addr, spent)]))
        ledgers[addr] = chain.ledger(addr, mine)
    return illicit, ledgers


class TestIncome:
    def test_internal_transfer_not_double_counted(self):
        illicit = illicit_of(("A", "s.onion", "Drugs"),
                             ("B", "t.onion", "Drugs"))
        btc = 10 ** 8
        ledgers = {
            "A": chain.ledger("A", [
                mktx(1, [("ext", btc)], [("A", btc)]),
                mktx(2, [("A", 9 * btc // 10)], [("B", 9 * btc // 10)]),
            ]),
            "B": chain.ledger("B", [
                mktx(2, [("A", 9 * btc // 10)], [("B", 9 * btc // 10)]),
            ]),
        }
        report = estimate_income(illicit, ledgers)
        assert report.total == btc
        assert report.internal_txids == {txid(2)}

    def test_no_transactions(self):
        illicit = illicit_of(("A", "s.onion", "Drugs"))
        assert estimate_income(illicit, {}).total == 0

    def test_matches_brute_force_oracle(self):
        rng = random.Random(7)
        for trial in range(30):
            illicit, ledgers = random_ledger_set(rng)
            report = estimate_income(illicit, ledgers)
            assert report.total == brute_force_income(illicit, ledgers), trial

    def test_total_bounded_by_gross(self):
        rng = random.Random(11)
        for _ in range(15):
            illicit, ledgers = random_ledger_set(rng)
            report = estimate_income(illicit, ledgers)
            gross = sum(output_to(tx, a) for a, txs in ledgers.items() for tx in txs)
            assert report.total <= gross
            if not report.internal_txids:
                assert report.total == gross

    def test_order_permutation_invariant(self):
        rng = random.Random(13)
        illicit, ledgers = random_ledger_set(rng)
        base = estimate_income(illicit, ledgers).total
        shuffled = {}
        for addr, led in ledgers.items():
            txs = list(led)
            rng.shuffle(txs)
            shuffled[addr] = chain.ledger(addr, txs)
        assert estimate_income(illicit, shuffled).total == base

    def test_split_attribution_preserves_total(self):
        illicit = illicit_of(("A", "s.onion", "CloneCard"),
                             ("A", "t.onion", "SexualAbuse"),
                             ("A", "u.onion", "Memberships"))
        ledgers = {"A": chain.ledger("A", [
            mktx(1, [("e", 100)], [("A", 100)])])}
        report = estimate_income(illicit, ledgers)
        assert sum(report.by_category_split.values()) == report.total == 100
        assert report.by_category_split["CloneCard"] == 34  # remainder goes first
        assert report.by_category_full["Memberships"] == 100


class TestActivePeriod:
    def test_same_moment_is_one_day(self):
        txs = chain.ledger("a", [
            mktx(1, [("x", 1)], [("a", 1)], when=T0),
            mktx(2, [("x", 1)], [("a", 1)], when=T0),
        ])
        assert active_period(txs) == 1

    def test_inclusive_day_count(self):
        txs = chain.ledger("a", [
            mktx(1, [("x", 1)], [("a", 1)], when=T0),
            mktx(2, [("x", 1)], [("a", 1)], when=T0 + timedelta(days=365)),
        ])
        assert active_period(txs) == 366

    def test_empty_is_none(self):
        assert active_period(()) is None


class TestMultiCategory:
    def test_three_category_address(self):
        illicit = illicit_of(("A", "s.onion", "CloneCard"),
                             ("A", "t.onion", "SexualAbuse"),
                             ("A", "u.onion", "Memberships"),
                             ("B", "v.onion", "Drugs"))
        assert multi_category(illicit) == 1

    def test_all_single_category(self):
        illicit = illicit_of(("A", "s.onion", "Drugs"),
                             ("B", "t.onion", "Weapons"))
        assert multi_category(illicit) == 0


ANNOTATED = "dannotatedsite23.onion"  # a valid v2 onion name


def annotation(domain, address, zone, **fields):
    """One checked chain-annotation row, keyed as `load_annotations` keys it."""
    return {(domain, address): dict(fields, domain=domain, address=address, zone=zone)}


def verdicts(audit_rows):
    """({address: flag} retained, {address: reason} removed) of a site's audit rows."""
    retained = {r["address"]: r["flag"] for r in audit_rows if r["action"] == "retained"}
    removed = {r["address"]: r["reason"] for r in audit_rows if r["action"] == "removed"}
    return retained, removed


class TestFilter:
    def test_private_key_listings_removed(self):
        listed = ["w%d" % i for i in range(10)]
        anns = {}
        for w in listed:
            anns |= annotation("pk.onion", w, "listing")
        anns |= annotation("pk.onion", "pay", "payment")
        retained, removed = verdicts(
            filter_illicit_addresses("pk.onion", "PrivateKey", listed + ["pay"], anns))
        assert list(retained) == ["pay"]
        assert all(reason == "sold-wallet" for reason in removed.values())

    def test_forum_address_removed(self):
        anns = annotation("f.onion", "visitor", "forum")
        _, removed = verdicts(filter_illicit_addresses("f.onion", "Drugs", ["visitor"], anns))
        assert removed == {"visitor": "forum-visitor"}

    def test_listing_with_prior_tx_removed(self):
        anns = annotation("inv.onion", "shill", "listing", prior_tx_with_payment=True)
        _, removed = verdicts(
            filter_illicit_addresses("inv.onion", "InvestmentScams", ["shill"], anns))
        assert removed == {"shill": "prior-tx-with-payment"}

    def test_flagged_hash_removed(self):
        anns = annotation("x.onion", "hash", "other")
        _, removed = verdicts(filter_illicit_addresses("x.onion", "Hacker", ["hash"], anns))
        assert removed == {"hash": "non-payment-hash"}

    def test_unannotated_retained_unreviewed(self):
        retained, _ = verdicts(filter_illicit_addresses("y.onion", "Drugs", ["addr"], {}))
        assert retained == {"addr": "unreviewed"}

    def test_annotation_file_roundtrip(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({"domain": ANNOTATED, "address": "a",
                                    "zone": "forum", "note": "visitor"}) + "\n")
        anns = load_annotations(path)
        assert anns[(ANNOTATED, "a")]["zone"] == "forum"

    def test_annotation_domain_is_read_as_an_onion_name(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({"domain": " %s " % ANNOTATED.upper(),
                                    "address": "visitor", "zone": "forum"}) + "\n")
        anns = load_annotations(path)
        _, removed = verdicts(filter_illicit_addresses(ANNOTATED, "Drugs", ["visitor"], anns))
        assert removed == {"visitor": "forum-visitor"}

    def test_annotation_domain_that_is_no_onion_name_names_the_row(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({"domain": ANNOTATED, "address": "a", "zone": "payment"})
                        + "\n" + json.dumps({"domain": "d.onion", "address": "b",
                                             "zone": "forum"}) + "\n")
        with pytest.raises(ChainError, match="'address': 'b'.*not an onion name"):
            load_annotations(path)

    @pytest.mark.parametrize("bad", [
        {"zone": "listing", "prior_tx_with_payment": "false"},  # not read as true
        {"zone": "listing", "prior_tx_with_payment": 1},
        {"zone": "lobby"},
        {},
    ])
    def test_malformed_annotation_names_the_row(self, tmp_path, bad):
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({"domain": ANNOTATED, "address": "a", "zone": "payment"})
                        + "\n" + json.dumps(dict(bad, domain=ANNOTATED, address="b")) + "\n")
        with pytest.raises(ChainError, match="'address': 'b'"):
            load_annotations(path)

    @pytest.mark.parametrize("bad", ['[1]', '"x"', '{"address": "b", "zone": "payment"}',
                                     '{"domain": "%s", "zone": "payment"}' % ANNOTATED,
                                     '{"domain": 5, "address": "b", "zone": "payment"}'])
    def test_annotation_without_text_domain_and_address_names_the_row(self, tmp_path, bad):
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({"domain": ANNOTATED, "address": "a", "zone": "payment"})
                        + "\n" + bad + "\n")
        with pytest.raises(ChainError) as err:
            load_annotations(path)
        assert repr(json.loads(bad)) in str(err.value)

    def test_line_that_is_not_json_names_its_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({"domain": ANNOTATED, "address": "a", "zone": "payment"})
                        + '\n\n{"domain": "d\n')
        with pytest.raises(ChainError, match="line 3 is not JSON"):
            load_annotations(path)

    def test_line_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_bytes(json.dumps({"domain": ANNOTATED, "address": "a",
                                     "zone": "payment"}).encode() + b"\n\xff\n")
        with pytest.raises(ChainError, match=r"line 2 is not JSON: '\\\\xff'"):
            load_annotations(path)

    def test_illicit_set_rejects_other(self):
        # the filter stage keeps no address of a site labelled Other
        address_rows = [{"v": 1, "domain": site, "path": "/", "kind": "btc", "value": value,
                         "valid": True}
                        for site, value in (("s.onion", "a"), ("t.onion", "a"),
                                            ("t.onion", "b"))]
        labels = [{"domain": "s.onion", "category": "Other"},
                  {"domain": "t.onion", "category": "Drugs"}]
        illicit = report.stage_filter(report.PipelineConfig(), {
            "labels.jsonl": labels, "addresses.jsonl": address_rows})["illicit.jsonl"]
        assert {a: row["sites"] for a, row in illicit.items()} == {
            "a": ["t.onion"], "b": ["t.onion"]}


class TestDormant:
    def test_disabled_by_default(self):
        assert dormant_addresses({}, 0) == []

    def test_threshold(self):
        ledgers = {
            "low": chain.ledger("low", [
                mktx(1, [("x", 10)], [("low", 10)])]),
            "high": chain.ledger("high", [
                mktx(2, [("x", 1000)], [("high", 1000)])]),
        }
        assert dormant_addresses(ledgers, 100) == ["low"]


def test_unique_transactions_dedups_and_orders_by_time():
    tx1 = mktx(1, [("a", 1)], [("b", 1)])
    tx2 = mktx(2, [("b", 1)], [("a", 1)])
    l1 = chain.ledger("a", [
        mktx(0, [("x", 2)], [("a", 2)]), tx1, tx2])
    l2 = chain.ledger("b", [
        mktx(3, [("x", 2)], [("b", 2)]), tx1, tx2])
    merged = unique_transactions({"a": l1, "b": l2})
    assert len(merged) == 4  # tx1/tx2 shared between ledgers appear once
    stamps = [t.timestamp for t in merged]
    assert stamps == sorted(stamps)


# any text, lone surrogates included, so escaping is exercised
addresses = st.text(st.characters(codec=None, exclude_categories=()), max_size=12) | \
    st.sampled_from(["", '"', "\\", "\n\t\x00\x1f\x7f", "é€😀", "</a>&"])
tx_ios = st.lists(st.builds(TxIO, addresses, st.integers(0, 2 ** 70) | st.integers(0, 9)),
                  max_size=3)


@st.composite
def transactions(draw):
    inputs = draw(tx_ios)
    return Transaction(
        txid="%064x" % draw(st.integers(0, 2 ** 256 - 1)),
        timestamp=draw(st.datetimes(timezones=st.just(timezone.utc))),
        inputs=tuple(inputs), outputs=tuple(draw(tx_ios)),
        coinbase=not inputs or draw(st.booleans()))


class TestLedgerJson:
    @settings(max_examples=300)
    @given(st.lists(transactions(), max_size=4))
    def test_equals_indented_sorted_json(self, txs):
        rows = [transaction_to_dict(tx) for tx in txs]
        assert ledger_json(txs) == json.dumps(rows, indent=2, sort_keys=True)

    @settings(max_examples=100)
    @given(st.lists(transactions(), max_size=4))
    def test_parses_back(self, txs):
        assert [parse_transaction(row) for row in json.loads(ledger_json(txs))] == txs

    def test_fixed_example(self):
        tx = mktx(1, [], [("a", 50)], when=T0.replace(microsecond=7), coinbase=True)
        assert ledger_json([tx]) == (
            '[\n  {\n    "coinbase": true,\n    "inputs": [],\n    "outputs": [\n'
            '      {\n        "address": "a",\n        "value": 50\n      }\n    ],\n'
            '    "timestamp": "2020-01-01T00:00:00.000007Z",\n    "txid": "%s"\n  }\n]'
            % txid(1))
        assert ledger_json([]) == "[]"

    def test_every_shape_to_20_ios_and_shapes_that_come_back(self):
        # shapes on both sides of the 16-IO bound of the template cache, and
        # each met again in the same ledger with other addresses and values
        rng = random.Random(28)

        def tx(n, n_in, n_out):
            def ios(prefix, count):
                return [('%s"%d\u00e9' % (prefix, rng.randrange(10 ** 6)),
                         rng.choice([0, rng.randrange(2 ** 70)])) for _ in range(count)]
            return mktx(n, ios("in", n_in), ios("out", n_out),
                        coinbase=not n_in or rng.random() < 0.5)
        shapes = [(n_in, n_out) for n_in in range(21) for n_out in range(21)]
        first = [tx(n, *shape) for n, shape in enumerate(shapes)]
        again = [tx(len(shapes) + n, *shape)
                 for n, shape in enumerate(rng.sample(shapes, len(shapes)))]
        mixed = [tx(1000 + n, *shape) for n, shape in enumerate([(1, 1), (1, 4), (1, 1), (3, 1),
                                                                 (1, 4), (17, 0), (1, 1)])]
        for txs in (first, first[::-1] + again, mixed):
            rows = [transaction_to_dict(t) for t in txs]
            assert ledger_json(txs) == json.dumps(rows, indent=2, sort_keys=True)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=30)
    | st.sampled_from(["2020-01-01T00:00:00Z", "0001-01-01T00:00:00+01:00", txid(7)]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["address", "value", "txid", "x"]) | st.text(max_size=5),
                      inner, max_size=3),
    max_leaves=8)
# a top-level field, or the address or value of the first input or output
FIELDS = [("txid",), ("timestamp",), ("time",), ("coinbase",), ("inputs",), ("outputs",),
          ("inputs", 0, "address"), ("inputs", 0, "value"),
          ("outputs", 0, "address"), ("outputs", 0, "value")]


@st.composite
def rows_with_one_field_replaced(draw):
    row = transaction_to_dict(draw(transactions()))
    path = draw(st.sampled_from(FIELDS))
    value = draw(json_values)
    if len(path) == 1:
        row[path[0]] = value
    elif row[path[0]]:
        row[path[0]][0][path[2]] = value
    return row


class TestParseTransactionProperty:
    """A row is either a Transaction that writes and reads back as itself,
    or a ChainError; nothing else escapes `parse_transaction`."""

    @settings(max_examples=400)
    @given(json_values | rows_with_one_field_replaced())
    @example({"txid": txid(1), "inputs": [{"address": "a", "value": 1}], "outputs": []})
    @example({"txid": txid(1), "timestamp": 0, "coinbase": "false", "inputs": [],
              "outputs": [{"address": "a", "value": 1}]})
    def test_transaction_or_chain_error(self, row):
        try:
            tx = parse_transaction(row)
        except ChainError:
            return
        assert (tx.txid, tx.coinbase) == (row["txid"], row.get("coinbase", False))
        for key in ("inputs", "outputs"):
            assert [(io.address, io.value) for io in getattr(tx, key)] == \
                [(io["address"], io["value"]) for io in row.get(key, [])]
        assert [parse_transaction(r) for r in json.loads(ledger_json([tx]))] == [tx]
