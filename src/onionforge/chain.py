"""Transaction ledgers and income analytics for owner-linked addresses.

All money is integer satoshis; BTC formatting happens only at the
reporting edge. Transactions arrive from a provider, either a directory of
per-address JSON fixtures or a paginated HTTP endpoint.
"""

from __future__ import annotations

import logging
import re
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import NamedTuple

from .artifacts import NotJson, format_utc, parse_utc, read_jsonl, read_replay
from .classify import CATEGORIES, OTHER, parse_category
from .net import NOT_FOUND, Client, FetchError

log = logging.getLogger("onionforge.chain")

_TXID_RE = re.compile(r"[0-9a-f]{64}")

SECONDS_PER_DAY = 86400

# builds a NamedTuple without the Python-level `__new__` its class defines
_new = tuple.__new__


class ChainError(Exception):
    pass


class TxIO(NamedTuple):
    address: str
    value: int  # satoshis


class Transaction(NamedTuple):
    txid: str
    timestamp: datetime
    inputs: tuple[TxIO, ...]
    outputs: tuple[TxIO, ...]
    coinbase: bool = False


def _timestamp(ts) -> datetime:
    """An epoch number or an ISO 8601 string as an aware UTC datetime."""
    if isinstance(ts, bool) or not isinstance(ts, (str, int, float)):
        raise ChainError("timestamp is not a number or an ISO string: %r" % (ts,))
    try:
        return parse_utc(ts) if isinstance(ts, str) else datetime.fromtimestamp(ts, timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        # NaN, or a time out of datetime's range (OSError: out of gmtime's range)
        raise ChainError("timestamp %r unusable: %s" % (ts, exc)) from exc


def _tx_ios(items, key: str) -> tuple[TxIO, ...]:
    """`inputs` or `outputs`: objects with a string address and a whole, non-negative value."""
    if not isinstance(items, list):
        raise ChainError("%s is not a JSON array: %r" % (key, items))
    out = []
    for item in items:
        if not isinstance(item, dict):
            raise ChainError("%s entry is not an object: %r" % (key, item))
        address, value = item.get("address"), item.get("value")
        if not isinstance(address, str):
            raise ChainError("address is not a string: %r" % (address,))
        if type(value) is float and value.is_integer():
            value = int(value)
        if type(value) is not int or value < 0:
            raise ChainError("value is not a whole number of satoshis: %r" % (value,))
        out.append(_new(TxIO, (address, value)))
    return tuple(out)


def parse_transaction(row) -> Transaction:
    """One explorer row as a Transaction: the one place a ledger row is
    checked, so any malformed row raises ChainError."""
    if not isinstance(row, dict):
        raise ChainError("transaction row is not an object: %r" % (row,))
    txid = row.get("txid")
    if not isinstance(txid, str) or not _TXID_RE.fullmatch(txid):
        raise ChainError("txid must be 64 lowercase hex chars: %r" % (txid,))
    coinbase = row.get("coinbase", False)
    if not isinstance(coinbase, bool):
        raise ChainError("coinbase of %s is not a JSON bool: %r" % (txid, coinbase))
    inputs = _tx_ios(row.get("inputs", []), "inputs")
    if not inputs and not coinbase:
        raise ChainError("non-coinbase transaction %s has no inputs" % txid)
    timestamp = _timestamp(row["timestamp"] if "timestamp" in row else row.get("time"))
    return _new(Transaction, (txid, timestamp, inputs,
                              _tx_ios(row.get("outputs", []), "outputs"), coinbase))


_IO_JSON = '      {\n        "address": %s,\n        "value": %d\n      }'
_TEMPLATES: dict[tuple[int, int], str] = {}
_TEMPLATE_IOS = 16  # the most inputs plus outputs of a cached template, so the cache stays small


def _ios_template(count: int) -> str:
    return "[\n%s\n    ]" % ",\n".join([_IO_JSON] * count) if count else "[]"


def _template(shape: tuple[int, int]) -> str:
    """The text of a transaction with `shape`, its (inputs, outputs) count,
    with a placeholder for each value: coinbase, each input's and then each
    output's address and value, timestamp and txid."""
    template = ('  {\n    "coinbase": %s,\n    "inputs": ' + _ios_template(shape[0])
                + ',\n    "outputs": ' + _ios_template(shape[1])
                + ',\n    "timestamp": "%s",\n    "txid": %s\n  }')
    if sum(shape) <= _TEMPLATE_IOS:
        _TEMPLATES[shape] = template
    return template


def ledger_json(transactions) -> str:
    """A ledger file's text: `transactions` as one JSON array, read by `parse_transaction`.

    Each transaction is an object with the keys coinbase, inputs, outputs,
    timestamp (ISO 8601 in UTC, "Z"-suffixed) and txid, and each input or
    output one with address and value. The text is byte for byte what
    `json.dumps(rows, indent=2, sort_keys=True)` makes of those objects, built
    in one pass because the stdlib's indenting encoder is pure Python: each
    transaction is one `%` of the template of its shape. An ISO 8601 time
    needs no JSON escape, so its text goes between the quotes as it is.
    """
    if not transactions:
        return "[]"
    texts = []
    for txid, timestamp, inputs, outputs, coinbase in transactions:
        values = ["true" if coinbase else "false"]
        for address, value in inputs:
            values += encode_basestring_ascii(address), value
        for address, value in outputs:
            values += encode_basestring_ascii(address), value
        values += format_utc(timestamp), encode_basestring_ascii(txid)
        shape = len(inputs), len(outputs)
        texts.append((_TEMPLATES.get(shape) or _template(shape)) % tuple(values))
    return "[\n%s\n]" % ",\n".join(texts)


class Ledger(tuple):
    """An address's ledger (see `ledger`), with the satoshis the address
    `received` and `sent` over it."""

    received: int
    sent: int


def ledger(address: str, txs) -> Ledger:
    """An address's ledger: `txs` deduplicated by txid and in (timestamp, txid)
    order, the rows of its ledger file. A ledger that spends more than it
    received raises ChainError."""
    ordered = Ledger(_in_time_order(txs))
    ordered.received, ordered.sent = received_and_sent(address, ordered)
    if ordered.sent > ordered.received:
        raise ChainError("ledger for %s spends more than it received "
                         "(history incomplete?)" % address)
    return ordered


def received_and_sent(address: str, txs) -> tuple[int, int]:
    """The satoshis `address` received and sent over `txs`."""
    return (sum(o.value for tx in txs for o in tx.outputs if o.address == address),
            sum(i.value for tx in txs for i in tx.inputs if i.address == address))


_TIME_ORDER = attrgetter("timestamp", "txid")


def _in_time_order(txs) -> tuple[Transaction, ...]:
    """The first transaction of each txid, in (timestamp, txid) order."""
    unique: dict[str, Transaction] = {}
    for tx in txs:
        unique.setdefault(tx.txid, tx)
    return tuple(sorted(unique.values(), key=_TIME_ORDER))


class FixtureExplorer:
    """Replay mode: <fixtures>/<address>.json holds an array of transactions;
    with no fixtures directory, every ledger is empty."""

    def __init__(self, fixtures_dir):
        self.fixtures_dir = fixtures_dir

    def transactions(self, address: str) -> list[Transaction]:
        return [parse_transaction(row) for row in read_replay(self.fixtures_dir, address)]


MAX_PAGES = 10_000  # so a server whose total_pages keeps growing cannot page forever


class HttpExplorer:
    """Paginated JSON explorer, fetched through `net.Client`.

    Expects GET {base_url}/address/{addr}/transactions?page=N to return
    {"page": N, "total_pages": M, "transactions": [...]}. A 404 on page 1 is
    an unknown (empty) address. A 404 on a later page, a page of another
    shape (`null` or `{"error": ...}` too), a `total_pages` that is not a
    whole, non-bool number or more than MAX_PAGES pages raises ChainError;
    other failed requests raise FetchError.
    """

    def __init__(self, base_url: str, session=None, rate_limit: float | None = None):
        self.base_url = base_url.rstrip("/")
        self.client = Client(session, rate_limit)

    def transactions(self, address: str) -> list[Transaction]:
        out = []
        page = 1
        while True:
            url = "%s/address/%s/transactions?page=%d" % (self.base_url, address, page)
            payload = self.client.get_json(url)
            if payload is NOT_FOUND:
                if page == 1:
                    return []
                raise ChainError("page %d of %d not found: HTTP 404 from %s" % (page, last, url))
            rows = payload.get("transactions") if isinstance(payload, dict) else None
            if not isinstance(rows, list):
                raise ChainError("malformed page from %s: no transactions array" % url)
            out.extend(parse_transaction(row) for row in rows)
            last = payload.get("total_pages", 1)
            if type(last) is float and last.is_integer():
                last = int(last)
            if type(last) is not int:
                raise ChainError("malformed page from %s: total_pages %r is not a whole number"
                                 % (url, last))
            if page >= last:
                return out
            if page >= MAX_PAGES:
                raise ChainError("more than %d pages from %s" % (MAX_PAGES, url))
            page += 1


def fetch_all(addresses, provider):
    """The `ledger` of every address, empty when the provider does not know
    it, recording per-address failures instead of dying."""
    ledgers: dict[str, Ledger] = {}
    failures: dict[str, str] = {}
    for address in sorted(set(addresses)):
        try:
            ledgers[address] = ledger(address, provider.transactions(address))
        except (FetchError, ChainError, ValueError) as exc:
            failures[address] = str(exc)
            log.warning("fetch failed for %s: %s", address, failures[address])
    return ledgers, failures


# --- illicit address set and filtering ---

ZONES = ("listing", "forum", "payment", "other")


def load_annotations(path) -> dict[tuple[str, str], dict]:
    """Analyst rows {domain, address, zone, prior_tx_with_payment?, note?} by
    (domain, address). A row that is not an object with text domain and
    address, an unknown zone, or a flag that is not a JSON bool (the string
    "false" is not false) raises ChainError naming the row, and a line that
    is not JSON one naming its line number."""
    out = {}
    try:
        rows = list(read_jsonl(path))
    except NotJson as exc:
        raise ChainError("chain annotations %s" % exc) from None
    for row in rows:
        if not (isinstance(row, dict) and isinstance(row.get("domain"), str)
                and isinstance(row.get("address"), str)):
            raise ChainError("annotation %r: not an object with text domain and address"
                             % (row,))
        if row.get("zone") not in ZONES:
            raise ChainError("annotation %r: unknown zone" % (row,))
        if not isinstance(row.get("prior_tx_with_payment", False), bool):
            raise ChainError("annotation %r: prior_tx_with_payment is not a JSON bool" % (row,))
        out[(row["domain"], row["address"])] = row
    return out


def filter_illicit_addresses(domain: str, category: str, addresses,
                             annotations: dict[tuple[str, str], dict]) -> list[dict]:
    """Keep only addresses plausibly owned by the site operator.

    Returns one site's filter_audit.jsonl rows: the retained rows by
    address, flagged reviewed or unreviewed, then the removed rows by
    address with their reason. Removal reasons map to the four retention
    criteria: wallet addresses sold on PrivateKey sites, listed addresses
    already transacting with the payment address, visitor addresses on
    forum pages, and flagged non-payment hash strings. Unannotated
    addresses stay, flagged unreviewed.
    """
    retained, removed = [], []
    for address in sorted(addresses):
        ann = annotations.get((domain, address))
        zone = ann["zone"] if ann else None
        if zone == "forum":
            reason = "forum-visitor"
        elif zone == "other":
            reason = "non-payment-hash"
        elif zone == "listing" and category == "PrivateKey":
            reason = "sold-wallet"
        elif zone == "listing" and ann.get("prior_tx_with_payment"):
            reason = "prior-tx-with-payment"
        else:
            retained.append({"v": 1, "domain": domain, "address": address,
                             "action": "retained", "flag": "reviewed" if ann else "unreviewed"})
            continue
        removed.append({"v": 1, "domain": domain, "address": address,
                        "action": "removed", "reason": reason})
    return retained + removed


_address = attrgetter("address")


def is_internal(tx: Transaction, illicit) -> bool:
    """True iff some input address and some output address are both illicit.

    `illicit` is keyed by address (the illicit.jsonl value)."""
    keys = illicit.keys()
    return not (keys.isdisjoint(map(_address, tx.inputs))
                or keys.isdisjoint(map(_address, tx.outputs)))


def unique_transactions(ledgers: dict[str, tuple[Transaction, ...]]) -> tuple[Transaction, ...]:
    """All distinct transactions across ledgers, deterministic order."""
    return _in_time_order(tx for address in sorted(ledgers) for tx in ledgers[address])


_TABLE_ORDER = CATEGORIES + (OTHER,)


def _apportion(value: int, categories) -> dict[str, int]:
    """Equal integer split, remainder to the earliest table entries."""
    cats = sorted(categories, key=_TABLE_ORDER.index)
    share, rem = divmod(value, len(cats))
    return {c: share + (1 if i < rem else 0) for i, c in enumerate(cats)}


class IncomeReport(NamedTuple):
    total: int
    per_address: dict[str, int]
    incoming: dict[str, int]  # address -> counted transactions paying it
    by_category_split: dict[str, int]  # by category label
    by_category_full: dict[str, int]
    internal_txids: set[str]


def estimate_income(illicit: dict[str, dict],
                    ledgers: dict[str, tuple[Transaction, ...]]) -> IncomeReport:
    """Sum outputs received by illicit addresses in non-internal transactions.

    `illicit` is the illicit.jsonl value, {address: row}. Internal
    transactions move money between illicit addresses and would
    double-count; they are excluded wholesale. Multi-category addresses are
    apportioned equally across their categories (full attribution is also
    reported).
    """
    per_address: dict[str, int] = {}
    incoming: dict[str, int] = {}
    internal: set[str] = set()
    for address in illicit:
        income = count = 0
        for tx in ledgers.get(address, ()):
            if is_internal(tx, illicit):
                internal.add(tx.txid)
                continue
            received = 0
            for output in tx.outputs:
                if output.address == address:
                    received += output.value
            income += received
            count += received > 0
        per_address[address] = income
        incoming[address] = count

    split: dict[str, int] = {}
    full: dict[str, int] = {}
    for address, income in per_address.items():
        cats = [parse_category(label) for label in illicit[address]["categories"]]
        if not cats:
            continue
        for cat, share in _apportion(income, cats).items():
            split[cat] = split.get(cat, 0) + share
        for cat in cats:
            full[cat] = full.get(cat, 0) + income
    return IncomeReport(total=sum(per_address.values()), per_address=per_address,
                        incoming=incoming, by_category_split=split,
                        by_category_full=full, internal_txids=internal)


def active_period(txs: tuple[Transaction, ...]) -> int | None:
    """Inclusive whole-day span of a ledger's activity; a one-shot address is 1 day."""
    if not txs:
        return None
    delta = txs[-1].timestamp - txs[0].timestamp
    return int(delta.total_seconds() // SECONDS_PER_DAY) + 1


def multi_category(illicit: dict[str, dict]) -> int:
    """The number of illicit.jsonl rows whose address serves sites across >= 2 categories."""
    return sum(len(row["categories"]) >= 2 for row in illicit.values())


def dormant_addresses(ledgers: dict[str, Ledger], min_received: int = 0) -> list[str]:
    """Reporting flag: addresses whose cumulative received is below a floor."""
    if min_received <= 0:
        return []
    return sorted(a for a, txs in ledgers.items() if txs and txs.received < min_received)

