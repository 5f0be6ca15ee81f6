"""Transaction ledgers and income analytics for owner-linked addresses.

All money is integer satoshis; BTC formatting happens only at the
reporting edge. Transactions arrive from a provider, either a directory of
per-address JSON fixtures or a paginated HTTP endpoint.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .artifacts import read_jsonl, write_jsonl
from .classify import Category
from .net import NOT_FOUND, Client, FetchError

log = logging.getLogger("onionforge.chain")

_TXID_RE = re.compile(r"^[0-9a-f]{64}$")

SECONDS_PER_DAY = 86400


class ChainError(Exception):
    pass


@dataclass(frozen=True)
class TxIO:
    address: str
    value: int  # satoshis

    def __post_init__(self):
        if not isinstance(self.address, str):
            raise ChainError("address is not a string: %r" % (self.address,))
        if self.value < 0:
            raise ChainError("negative value for %s" % self.address)


@dataclass(frozen=True)
class Transaction:
    txid: str
    timestamp: datetime
    inputs: tuple[TxIO, ...]
    outputs: tuple[TxIO, ...]
    coinbase: bool = False

    def __post_init__(self):
        if not _TXID_RE.match(self.txid):
            raise ChainError("txid must be 64 lowercase hex chars: %r" % self.txid)
        if not self.inputs and not self.coinbase:
            raise ChainError("non-coinbase transaction %s has no inputs" % self.txid)

    def output_to(self, address: str) -> int:
        return sum(o.value for o in self.outputs if o.address == address)

    def input_from(self, address: str) -> int:
        return sum(i.value for i in self.inputs if i.address == address)


def parse_transaction(row: dict) -> Transaction:
    """One explorer row as a Transaction; a malformed row raises ChainError."""
    if not isinstance(row, dict):
        raise ChainError("transaction row is not an object: %r" % (row,))
    ts = row.get("timestamp", row.get("time"))
    try:
        if isinstance(ts, (int, float)):
            when = datetime.fromtimestamp(ts, tz=timezone.utc)
        else:
            when = datetime.fromisoformat(str(ts).replace("Z", "+00:00"))
            if when.tzinfo is None:
                when = when.replace(tzinfo=timezone.utc)
            when = when.astimezone(timezone.utc)
        return Transaction(
            txid=row["txid"],
            timestamp=when,
            inputs=tuple(TxIO(i["address"], int(i["value"])) for i in row.get("inputs", [])),
            outputs=tuple(TxIO(o["address"], int(o["value"]))
                          for o in row.get("outputs", [])),
            coinbase=bool(row.get("coinbase", False)),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        # a missing txid, address or value, an input/output that is not an
        # object, or a value or epoch timestamp too large to represent
        raise ChainError("malformed transaction row %r: %s %s"
                         % (row.get("txid"), type(exc).__name__, exc)) from exc


def _io_json(items) -> str:
    if not items:
        return "[]"
    return "[\n%s\n    ]" % ",\n".join(
        '      {\n        "address": %s,\n        "value": %d\n      }'
        % (encode_basestring_ascii(io.address), io.value) for io in items)


def ledger_json(transactions) -> str:
    """A ledger file's text: `transactions` as one JSON array, read by `parse_transaction`.

    Each transaction is an object with the keys coinbase, inputs, outputs,
    timestamp (ISO 8601 in UTC, "Z"-suffixed) and txid, and each input or
    output one with address and value. The text is byte for byte what
    `json.dumps(rows, indent=2, sort_keys=True)` makes of those objects, built
    in one pass because the stdlib's indenting encoder is pure Python.
    """
    if not transactions:
        return "[]"
    return "[\n%s\n]" % ",\n".join(
        '  {\n    "coinbase": %s,\n    "inputs": %s,\n    "outputs": %s,\n'
        '    "timestamp": %s,\n    "txid": %s\n  }'
        % ("true" if tx.coinbase else "false", _io_json(tx.inputs), _io_json(tx.outputs),
           encode_basestring_ascii(tx.timestamp.isoformat().replace("+00:00", "Z")),
           encode_basestring_ascii(tx.txid))
        for tx in transactions)


@dataclass
class AddressLedger:
    address: str
    transactions: list[Transaction] = field(default_factory=list)
    received: int = 0
    sent: int = 0

    @property
    def balance(self) -> int:
        return self.received - self.sent

    @property
    def first_seen(self) -> datetime | None:
        return self.transactions[0].timestamp if self.transactions else None

    @property
    def last_seen(self) -> datetime | None:
        return self.transactions[-1].timestamp if self.transactions else None

    @classmethod
    def from_transactions(cls, address: str, txs) -> "AddressLedger":
        """Build a ledger: txid-deduplicated, time-ordered, sums recomputed."""
        unique: dict[str, Transaction] = {}
        for tx in txs:
            unique.setdefault(tx.txid, tx)
        ordered = sorted(unique.values(), key=lambda t: (t.timestamp, t.txid))
        ledger = cls(address=address, transactions=ordered)
        for tx in ordered:
            ledger.received += tx.output_to(address)
            ledger.sent += tx.input_from(address)
        if ledger.balance < 0:
            raise ChainError("ledger for %s spends more than it received "
                             "(history incomplete?)" % address)
        return ledger


class FixtureExplorer:
    """Replay mode: <fixtures>/<address>.json holds an array of transactions."""

    def __init__(self, fixtures_dir):
        self.fixtures_dir = Path(fixtures_dir)

    def transactions(self, address: str) -> list[Transaction]:
        path = self.fixtures_dir / (address + ".json")
        if not path.is_file():
            return []
        rows = json.loads(path.read_text())
        if not isinstance(rows, list):
            raise ChainError("%s is not a JSON array" % path.name)
        return [parse_transaction(row) for row in rows]


MAX_PAGES = 10_000  # so a server whose total_pages keeps growing cannot page forever


class HttpExplorer:
    """Paginated JSON explorer, fetched through `net.Client`.

    Expects GET {base_url}/address/{addr}/transactions?page=N to return
    {"page": N, "total_pages": M, "transactions": [...]}. A 404 on page 1 is
    an unknown (empty) address. A 404 on a later page, a page of another
    shape (`null` or `{"error": ...}` too), a bad `total_pages` or more than
    MAX_PAGES pages raises ChainError; other failed requests raise FetchError.
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
            try:
                last = int(payload.get("total_pages", 1))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ChainError("malformed page from %s: total_pages %s" % (url, exc)) from exc
            if page >= last:
                return out
            if page >= MAX_PAGES:
                raise ChainError("more than %d pages from %s" % (MAX_PAGES, url))
            page += 1


def fetch_transactions(address: str, provider) -> AddressLedger:
    """Full normalized history for one address; empty ledger when unknown."""
    return AddressLedger.from_transactions(address, provider.transactions(address))


def fetch_all(addresses, provider):
    """Fetch every address, recording per-address failures instead of dying."""
    ledgers: dict[str, AddressLedger] = {}
    failures: dict[str, str] = {}
    for address in sorted(set(addresses)):
        try:
            ledgers[address] = fetch_transactions(address, provider)
        except (FetchError, ChainError, ValueError) as exc:
            failures[address] = str(exc)
            log.warning("fetch failed for %s: %s", address, exc)
    return ledgers, failures


# --- illicit address set and filtering ---

ZONES = ("listing", "forum", "payment", "other")


@dataclass
class AddressAnnotation:
    domain: str
    address: str
    zone: str
    prior_tx_with_payment: bool = False
    note: str = ""

    def __post_init__(self):
        if self.zone not in ZONES:
            raise ChainError("unknown zone %r" % self.zone)


def load_annotations(path) -> dict[tuple[str, str], AddressAnnotation]:
    out = {}
    for row in read_jsonl(path):
        ann = AddressAnnotation(
            domain=row["domain"], address=row["address"], zone=row["zone"],
            prior_tx_with_payment=bool(row.get("prior_tx_with_payment", False)),
            note=row.get("note", ""))
        out[(ann.domain, ann.address)] = ann
    return out


@dataclass
class FilterResult:
    retained: dict[str, str] = field(default_factory=dict)   # address -> reviewed|unreviewed
    removed: dict[str, str] = field(default_factory=dict)    # address -> reason


def filter_illicit_addresses(site, addresses,
                             annotations: dict[tuple[str, str], AddressAnnotation]) -> FilterResult:
    """Keep only addresses plausibly owned by the site operator.

    Removal reasons map to the four retention criteria: wallet addresses
    sold on PrivateKey sites, listed addresses already transacting with the
    payment address, visitor addresses on forum pages, and flagged
    non-payment hash strings. Unannotated addresses stay, flagged unreviewed.
    """
    category = getattr(site, "category", None)
    domain = str(getattr(site, "domain", site))
    result = FilterResult()
    for address in addresses:
        ann = annotations.get((domain, address))
        if ann is None:
            result.retained[address] = "unreviewed"
        elif ann.zone == "payment":
            result.retained[address] = "reviewed"
        elif ann.zone == "forum":
            result.removed[address] = "forum-visitor"
        elif ann.zone == "other":
            result.removed[address] = "non-payment-hash"
        elif ann.zone == "listing":
            if category is Category.PRIVATE_KEY:
                result.removed[address] = "sold-wallet"
            elif ann.prior_tx_with_payment:
                result.removed[address] = "prior-tx-with-payment"
            else:
                result.retained[address] = "reviewed"
    return result


@dataclass
class IllicitEntry:
    address: str
    sites: set[str] = field(default_factory=set)
    categories: set[Category] = field(default_factory=set)
    flags: set[str] = field(default_factory=set)


class IllicitAddressSet:
    """Retained owner-linked addresses with their sites and categories."""

    def __init__(self):
        self.entries: dict[str, IllicitEntry] = {}

    def add(self, address: str, site: str, category: Category, flag: str = "reviewed"):
        if category is Category.OTHER:
            raise ChainError("illicit set requires a non-Other site label")
        entry = self.entries.setdefault(address, IllicitEntry(address))
        entry.sites.add(site)
        entry.categories.add(category)
        entry.flags.add(flag)

    def __contains__(self, address: str) -> bool:
        return address in self.entries

    def __len__(self):
        return len(self.entries)

    def addresses(self) -> list[str]:
        return sorted(self.entries)

    def categories_of(self, address: str) -> set[Category]:
        return set(self.entries[address].categories)

    def sites_of(self, address: str) -> set[str]:
        return set(self.entries[address].sites)


def is_internal(tx: Transaction, illicit) -> bool:
    """True iff some input address and some output address are both illicit."""
    return (any(i.address in illicit for i in tx.inputs)
            and any(o.address in illicit for o in tx.outputs))


def unique_transactions(ledgers: dict[str, AddressLedger]) -> list[Transaction]:
    """All distinct transactions across ledgers, deterministic order."""
    seen: dict[str, Transaction] = {}
    for address in sorted(ledgers):
        for tx in ledgers[address].transactions:
            seen.setdefault(tx.txid, tx)
    return sorted(seen.values(), key=lambda t: (t.timestamp, t.txid))


def _apportion(value: int, categories) -> dict[Category, int]:
    """Equal integer split, remainder to the earliest table entries."""
    cats = sorted(categories, key=lambda c: c.value)
    share, rem = divmod(value, len(cats))
    return {c: share + (1 if i < rem else 0) for i, c in enumerate(cats)}


@dataclass
class IncomeReport:
    total: int
    per_address: dict[str, int]
    by_category_split: dict[Category, int]
    by_category_full: dict[Category, int]
    internal_txids: set[str]


def estimate_income(illicit: IllicitAddressSet,
                    ledgers: dict[str, AddressLedger]) -> IncomeReport:
    """Sum outputs received by illicit addresses in non-internal transactions.

    Internal transactions move money between illicit addresses and would
    double-count; they are excluded wholesale. Multi-category addresses are
    apportioned equally across their categories (full attribution is also
    reported).
    """
    per_address: dict[str, int] = {}
    internal: set[str] = set()
    for address in illicit.addresses():
        ledger = ledgers.get(address)
        if ledger is None:
            per_address[address] = 0
            continue
        income = 0
        for tx in ledger.transactions:
            if is_internal(tx, illicit):
                internal.add(tx.txid)
                continue
            income += tx.output_to(address)
        per_address[address] = income

    split: dict[Category, int] = {}
    full: dict[Category, int] = {}
    for address, income in per_address.items():
        cats = illicit.categories_of(address)
        if not cats:
            continue
        for cat, share in _apportion(income, cats).items():
            split[cat] = split.get(cat, 0) + share
        for cat in cats:
            full[cat] = full.get(cat, 0) + income
    return IncomeReport(total=sum(per_address.values()), per_address=per_address,
                        by_category_split=split, by_category_full=full,
                        internal_txids=internal)


def active_period(ledger: AddressLedger) -> int | None:
    """Inclusive whole-day span of activity; a one-shot address is 1 day."""
    if not ledger.transactions:
        return None
    delta = ledger.last_seen - ledger.first_seen
    return int(delta.total_seconds() // SECONDS_PER_DAY) + 1


def multi_category(illicit: IllicitAddressSet,
                   ledgers: dict[str, AddressLedger] | None = None) -> list[IllicitEntry]:
    """Addresses serving sites across >= 2 categories, most categories first."""
    ledgers = ledgers or {}

    def received(addr):
        ledger = ledgers.get(addr)
        return ledger.received if ledger else 0

    picked = [illicit.entries[a] for a in illicit.addresses()
              if len(illicit.entries[a].categories) >= 2]
    picked.sort(key=lambda e: (-len(e.categories), -received(e.address), e.address))
    return picked


def dormant_addresses(ledgers: dict[str, AddressLedger], min_received: int = 0) -> list[str]:
    """Reporting flag: addresses whose cumulative received is below a floor."""
    if min_received <= 0:
        return []
    return sorted(a for a, led in ledgers.items()
                  if led.transactions and led.received < min_received)


# --- illicit.jsonl inter-stage format ---

def write_illicit_jsonl(out_path, illicit: IllicitAddressSet):
    write_jsonl(out_path, ({
        "v": 1,
        "address": e.address,
        "sites": sorted(e.sites),
        "categories": sorted(c.label for c in e.categories),
        "flags": sorted(e.flags),
    } for e in (illicit.entries[a] for a in illicit.addresses())))


def read_illicit_jsonl(path) -> IllicitAddressSet:
    illicit = IllicitAddressSet()
    for row in read_jsonl(path):
        entry = illicit.entries.setdefault(row["address"], IllicitEntry(row["address"]))
        entry.sites.update(row["sites"])
        entry.categories.update(Category.parse(c) for c in row["categories"])
        entry.flags.update(row.get("flags", ["reviewed"]))
    return illicit
