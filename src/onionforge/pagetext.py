"""Tolerant HTML text extraction built on the stdlib parser.

Gives downstream scanners two views of a page: the visible text with
script/style bodies dropped, and the attribute values (payment addresses
frequently hide in href/src/value attributes).

A run asks for both views of every page, the second one stage later, so
the parse behind the first also yields the second: see `handoff`.
"""

from contextlib import contextmanager
from hashlib import blake2b
from html.parser import HTMLParser

_SKIP_CONTENT = {"script", "style", "noscript"}


class _TextCollector(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.chunks = []
        self.attrs = []  # (name, value) pairs in document order
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_CONTENT:
            self._skip_depth += 1
        for name, value in attrs:
            if value:
                self.attrs.append((name, value))

    def handle_endtag(self, tag):
        if tag in _SKIP_CONTENT and self._skip_depth:
            self._skip_depth -= 1

    def handle_startendtag(self, tag, attrs):
        for name, value in attrs:
            if value:
                self.attrs.append((name, value))

    def handle_data(self, data):
        if not self._skip_depth and data:
            self.chunks.append(data)


def _decode(html: bytes) -> str:
    try:
        return html.decode("utf-8")
    except UnicodeDecodeError:
        return html.decode("latin-1")


def _collect(html: bytes) -> _TextCollector:
    parser = _TextCollector()
    try:
        parser.feed(_decode(html))
        parser.close()
    except Exception:
        # malformed markup must never take the pipeline down; keep whatever
        # the parser managed to emit before choking
        pass
    return parser


def _normalize(pieces) -> str:
    return " ".join(" ".join(pieces).split())


def _key(html: bytes) -> bytes:
    return blake2b(html, digest_size=16).digest()


# visible text that `page_text_and_attrs` already parsed, for the `page_text`
# call that follows on the same page: content digest -> [text, pending uses].
# Keyed by digest, not bytes, so the hand-off does not keep pages alive; None
# outside a `handoff` block, so nothing is recorded that no run will take.
_handoff: dict[bytes, list] | None = None


@contextmanager
def handoff():
    """Inside the block, `page_text` reuses the text `page_text_and_attrs` parsed.

    `report.run_pipeline` holds one block open for the whole run; when it
    ends, every text not taken yet is dropped.
    """
    global _handoff
    _handoff = {}
    try:
        yield
    finally:
        _handoff = None


def page_text(html: bytes) -> str:
    """Visible text of a page, whitespace-normalized."""
    if _handoff:
        key = _key(html)
        entry = _handoff.get(key)
        if entry is not None:
            entry[1] -= 1
            if not entry[1]:
                del _handoff[key]
            return entry[0]
    return _normalize(_collect(html).chunks)


def page_text_and_attrs(html: bytes) -> str:
    """Visible text plus all attribute values, for address/email scanning.

    Inside a `handoff` block, leaves the page's visible text for the next
    `page_text(html)`, so a page that is scanned and then classified is
    parsed once.
    """
    parser = _collect(html)
    if _handoff is not None:
        entry = _handoff.setdefault(_key(html), [_normalize(parser.chunks), 0])
        entry[1] += 1
    return _normalize(parser.chunks + [v for _, v in parser.attrs])
