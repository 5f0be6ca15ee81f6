"""Tolerant, linear-time HTML text extraction.

Gives downstream scanners two views of a page: the visible text with
script/style/noscript bodies dropped, and the attribute values (payment
addresses frequently hide in href/src/value attributes).

Both views come from one forward scan pinned to the semantics of CPython
3.11.7's `html.parser.HTMLParser` (`convert_charrefs=True`, the page fed
whole, then closed): the same text chunks and the same attribute values,
quirks included, whatever the interpreter's patch level. Pages come from
hostile sites, so where that parser rescans the rest of the page for every
unterminated construct (`"<a " * n` takes quadratic time), the scan
remembers what each rescan would find: its run time is linear in the page.

A run needs both views of each page, extract first and classify next:
`page_text_and_attrs` gives both from one scan, and extract hands the
visible text on to classify.
"""

import re
from html import unescape

_SKIP_CONTENT = {"script", "style", "noscript"}
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

# The fast path, one step a match: the text up to "<" (group 1, maybe empty),
# then the tag there if it is a plain one: a start tag whose attributes are
# separated by ASCII whitespace, each bare value followed by whitespace or ">",
# where names and values that `html.parser` would split otherwise never match
# (name 2, attributes 3, "/" if self-closing 4), or an end tag (name 5). The
# empty alternative takes the text alone when no plain tag follows it, with
# no backtracking into the text; an empty match means `_markup`'s turn.
_TOKEN = re.compile(r"""
    ([^<]*)
    (?: <([a-zA-Z][^\s/>\x00<]*)
        ((?:[ \t\n\r\f]+[^\s/>="'<]+(?:=(?:"[^"]*"|'[^']*'|[^\s>"'=][^\s>]*))?)*)
        [ \t\n\r\f]*(/?)>
      | </\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>
      |
    )
""", re.X)
# an attribute value of a fast-path start tag: double-quoted, single-quoted or bare
_VALUE = re.compile(r"""=(?:"([^"]*)"|'([^']*)'|([^\s>"'=][^\s>]*))""")

# `html.parser` and `_markupbase`, CPython 3.11.7
_TAGFIND = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRFIND = re.compile(
    r"""((?<=['"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"""
    r"""('[^']*'|"[^"]*"|(?!['"])[^>\s]*))?(?:\s|/(?!>))*""")
_ENDTAGFIND = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_COMMENT_CLOSE = re.compile(r"--\s*>")
_DECLNAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
_MARKED_CLOSE = {  # marked-section keyword -> the pattern that closes the section
    **dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"), re.compile(r"]\s*]\s*>")),
    **dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>")),
}
_RAW_END = {tag: re.compile(r"</\s*%s\s*>" % tag, re.I) for tag in ("script", "style")}

# `locatestarttagend_tolerant`, cut into the pieces it is made of: the tag
# name and the gap after it, then per attribute its start, name and rest. A
# `_RUN` pattern matches a maximal run of characters, so it ends at the same
# place from anywhere inside the run: `_Scanner._run` looks each run up once.
_TAG_NAME_AND_GAP = re.compile(r"([^\t\n\r\f />\x00]*)[\s/]*")
_ATTR_START = re.compile(r"""(?<=['"\s/])[^\s/>]""")
_ATTR_NAME_RUN = re.compile(r"[^\s/=>]*")
_ATTR_REST = re.compile(
    r"""(?:\s*=+\s*(?:'[^']*'|"[^"]*"|(?!['"])[^>\s]*)\s*)?(?:\s|/(?!>))*""")
# `_ATTR_REST` when the value is bare: the equals sign, the value, the gap after
_EQUALS = re.compile(r"\s*=+\s*")
_BARE_RUN = re.compile(r"[^>\s]*")
_TRAIL_RUN = re.compile(r"(?:\s|/(?!>))*")


class _Stop(Exception):
    """An unknown `<![...` marked section: `html.parser` raises there."""


class _Scanner:
    """Text chunks and attribute values of one page, in document order.

    The loop takes plain tokens with `_TOKEN`; everything else goes through
    `_markup`, a port of one turn of `HTMLParser.goahead`. An unterminated
    construct makes `html.parser` emit a little text and search the rest of
    the page again from the next "<"; the searches here are memoized instead:
    every construct but a start tag needs a ">", so none starting after the
    last ">" can end, and a failed search for a closing pattern stays failed
    further on (`_search`). Where an unterminated start tag ends is looked up
    once per attribute chain (`_tag_end`).
    """

    def __init__(self, s: str):
        self.s = s
        self.chunks: list[str] = []
        self.values: list[str] = []
        self.skip = 0            # open script/style/noscript elements
        self.raw = None          # "script" or "style" while inside one
        self.last_gt = s.rfind(">")
        self.searches = {}       # pattern -> (from, match) of its last search
        self.runs = {}           # run pattern -> (from, end) of its last lookup
        self.tag_head = (1, 0, 0)  # (from, name end, gap end) of the last tag name
        self.chain_ends = {}     # attribute-chain start -> where the start tag ends
        self.name_ends = {}      # attribute-name end -> where the start tag ends
        self.failed_to = 0       # end of the furthest unterminated start tag

    def scan(self):
        """Fill `chunks` and `values`; raises `_Stop` where `html.parser` gives up."""
        s, n = self.s, len(self.s)
        chunks, values, token, findall = self.chunks, self.values, _TOKEN.match, _VALUE.findall
        i = 0
        while i < n:
            if self.raw is not None:
                m = _RAW_END[self.raw].search(s, i)
                if m is None:
                    return  # unterminated raw text is dropped, as all raw text is
                i = self._end_tag(m.start())
                continue
            # inside an unterminated start tag the fast path could rescan it;
            # an empty match has neither text nor a plain tag at i
            m = token(s, i) if i >= self.failed_to else None
            j = m.end() if m else i
            if j == i:
                i = self._markup(i)
                continue
            i = j
            text, tag, attrs, closed, end_tag = m.groups()
            # `unescape` returns a text without "&" as it is: skip the call
            if text and not self.skip:
                if "&" in text:
                    text = unescape(text)
                if text:
                    chunks.append(text)
            if end_tag:
                end_tag = end_tag.lower()
                if end_tag in _SKIP_CONTENT:
                    self._end(end_tag)
            elif tag:
                if attrs:
                    for double, single, bare in findall(attrs):
                        value = double or single or bare
                        if "&" in value:
                            value = unescape(value)
                        if value:
                            values.append(value)
                if not closed:
                    tag = tag.lower()
                    if tag in _SKIP_CONTENT:
                        self._start(tag)

    def _text(self, data):
        if not self.skip and data:
            self.chunks.append(data)

    def _start(self, tag):
        if tag in _SKIP_CONTENT:
            self.skip += 1
            if tag in _RAW_END:
                self.raw = tag

    def _end(self, tag):
        if tag in _SKIP_CONTENT and self.skip:
            self.skip -= 1

    def _gt(self, pos):
        """Index past the first ">" at or after `pos`, or -1."""
        return self.s.find(">", pos) + 1 if pos <= self.last_gt else -1

    def _search(self, pattern, pos):
        """End of `pattern`'s first match at or after `pos`, or -1."""
        start, m = self.searches.get(pattern, (len(self.s) + 1, None))
        if not (start <= pos and (m is None or pos <= m.start())):
            m = pattern.search(self.s, pos)
            self.searches[pattern] = (pos, m)
        return m.end() if m else -1

    def _run(self, pattern, pos):
        """End of the maximal run of `pattern` from `pos`."""
        start, end = self.runs.get(pattern, (1, 0))
        if not start <= pos <= end:
            end = pattern.match(self.s, pos).end()
            self.runs[pattern] = (pos, end)
        return end

    def _markup(self, i):
        """One turn of `goahead(end=1)` from `i`, outside raw text; the next index."""
        s = self.s
        n = len(s)
        j = s.find("<", i)
        if j < 0:
            j = n
        if i < j:
            self._text(unescape(s[i:j]))
        if j == n:
            return n
        i = j
        c = s[i + 1:i + 2]
        if c in _LETTERS:
            k = self._start_tag(i)
        elif c == "/":
            k = self._end_tag(i)
        elif s.startswith("<!--", i):
            k = self._search(_COMMENT_CLOSE, i + 4)
        elif c == "?":
            k = self._gt(i + 2)
        elif c == "!":
            k = self._declaration(i)
        else:
            self._text("<")
            return i + 1
        if k < 0:
            # unterminated: text up to the next ">", else up to the next "<"
            k = self._gt(i + 1)
            if k < 0:
                k = s.find("<", i + 1)
                if k < 0:
                    k = i + 1
            self._text(unescape(s[i:k]))
        return k

    def _declaration(self, i):
        """`parse_html_declaration` at `i`: the index past it, or -1."""
        s = self.s
        if s.startswith("<![", i):
            j = i + 3
            if j == len(s):
                return -1
            m = _DECLNAME.match(s, j)
            if m is None:
                raise _Stop
            if m.end() == len(s):
                return -1
            close = _MARKED_CLOSE.get(m.group().strip().lower())
            if close is None:
                raise _Stop
            return self._search(close, j)
        if s[i:i + 9].lower() == "<!doctype":
            return self._gt(i + 9)
        return self._gt(i + 2)  # bogus comment

    def _end_tag(self, i):
        """`parse_endtag` at `i`: the index past the tag, or -1."""
        s = self.s
        gtpos = self._gt(i + 1)
        if gtpos < 0:
            return -1
        m = _ENDTAGFIND.match(s, i)
        if m is None:  # never in raw text, whose end tag `scan` has just matched
            name = _TAGFIND.match(s, i + 2)
            if name is None:
                return i + 3 if s.startswith("</>", i) else self._gt(i + 2)
            self._end(name.group(1).lower())
            return s.find(">", name.end()) + 1
        self.raw = None
        self._end(m.group(1).lower())
        return gtpos

    def _start_tag(self, i):
        """`parse_starttag` at `i`: the index past the tag, or -1."""
        s = self.s
        e = self._tag_end(i)
        c = s[e:e + 1]
        if c == ">":
            endpos = e + 1
        elif c == "/" and s.startswith("/>", e):
            endpos = e + 2
        elif not c or c in _LETTERS or c in "=/":
            if e > self.failed_to:
                self.failed_to = e
            return -1
        else:
            endpos = e
        m = _TAGFIND.match(s, i + 1)
        k = m.end()
        tag = m.group(1).lower()
        found = []
        while k < endpos:
            m = _ATTRFIND.match(s, k)
            if m is None:
                break
            rest, value = m.group(2, 3)
            if not rest:
                value = None
            elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
                value = value[1:-1]
            if value:
                value = unescape(value)
                if value:
                    found.append(value)
            k = m.end()
        end = s[k:endpos].strip()
        if end not in (">", "/>"):
            self._text(s[i:endpos])
            return endpos
        self.values.extend(found)
        if end == ">":
            self._start(tag)
        return endpos

    def _tag_end(self, i):
        """Where `locatestarttagend_tolerant` stops matching from `i`.

        Past the tag name and the gap after it, the match has no memory: it
        is a chain of attributes, and where the chain ends depends only on
        where it starts, and on where each attribute's name ends. A start tag
        inside an earlier one (`"<a " * n`) starts at, or reaches, a point the
        earlier chain passed, and stops looking there.
        """
        s = self.s
        start, name_end, b = self.tag_head
        if not start <= i + 2 <= name_end:
            # a tag name that ends where the last one did has the same gap after it
            m = _TAG_NAME_AND_GAP.match(s, i + 2)
            b = m.end()
            self.tag_head = (i + 2, m.end(1), b)
        e = self.chain_ends.get(b)
        if e is not None:
            return e
        starts, name_ends = [b], []
        while _ATTR_START.match(s, b):
            name_end = self._run(_ATTR_NAME_RUN, b + 1)
            e = self.name_ends.get(name_end)
            if e is not None:
                break
            name_ends.append(name_end)
            m = _EQUALS.match(s, name_end)
            if m is None or s[m.end():m.end() + 1] in ("'", '"'):
                b = _ATTR_REST.match(s, name_end).end()
            else:
                # a bare value: many start tags can end inside the same one
                b = self._run(_TRAIL_RUN, self._run(_BARE_RUN, m.end()))
            starts.append(b)
        else:
            e = b
        self.chain_ends.update(dict.fromkeys(starts, e))
        self.name_ends.update(dict.fromkeys(name_ends, e))
        return e


def _decode(html: bytes) -> str:
    try:
        return html.decode("utf-8")
    except UnicodeDecodeError:
        return html.decode("latin-1")


def _scan(html: bytes) -> tuple[list[str], list[str]]:
    """The page's visible text chunks and its non-empty attribute values."""
    scanner = _Scanner(_decode(html))
    try:
        scanner.scan()
    except _Stop:
        pass  # like `html.parser`, keep what came before the bad section
    return scanner.chunks, scanner.values


def _normalize(pieces) -> str:
    return " ".join(" ".join(pieces).split())


def page_text(html: bytes) -> str:
    """Visible text of a page, whitespace-normalized."""
    return _normalize(_scan(html)[0])


def page_text_and_attrs(html: bytes) -> tuple[str, str]:
    """`page_text(html)`, and the visible text plus all attribute values for
    address/email scanning, from one scan of the page."""
    chunks, values = _scan(html)
    text = _normalize(chunks)
    # `_normalize(chunks + values)`: str.split never joins words across the
    # space between the two parts, so each part is normalized on its own
    return text, " ".join(filter(None, (text, _normalize(values))))
