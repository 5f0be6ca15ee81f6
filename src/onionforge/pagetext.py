"""Tolerant HTML text extraction built on the stdlib parser.

Gives downstream scanners two views of a page: the visible text with
script/style bodies dropped, and the attribute values (payment addresses
frequently hide in href/src/value attributes).
"""

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


def page_text(html: bytes) -> str:
    """Visible text of a page, whitespace-normalized."""
    parser = _collect(html)
    return " ".join(" ".join(parser.chunks).split())


def page_text_and_attrs(html: bytes) -> str:
    """Visible text plus all attribute values, for address/email scanning."""
    parser = _collect(html)
    pieces = parser.chunks + [v for _, v in parser.attrs]
    return " ".join(" ".join(pieces).split())

