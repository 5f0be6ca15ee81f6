import os
import subprocess
import sys
from html.parser import HTMLParser
from pathlib import Path
from unittest import mock

import pytest
from growth import growth
from hypothesis import given, settings, strategies as st

import onionforge
from onionforge import pagetext
from onionforge.pagetext import page_text, page_text_and_attrs

# markup fragments, so that generated pages exercise the scanner's states and
# not only its decoder
FRAGMENTS = ["<p>", "</p>", "<script>", "</script>", "</ script >", "<style>x{}</style>",
             "<!--", "-->", "<a href=\"", "\">", "<img src='x' alt=q/>", "<a x=y/>", "&amp;",
             "&#", "&#x1F;", "href=\"&#x1F;\"", "<![CDATA[", "]]>", "<![if x]>", "<![foo",
             "<?x", "<!DOCTYPE", "<noscript>", "</noscript>", "<", ">", "\"", "'", " ", "\n",
             "\x0b", "\xa0", "=", "/", "1CHvWk36MR5aCz72jViS7jSub9utJf3jii", "café", "ÿ",
             # a text run then a tag, taken in one step of the scan or not
             "x<p>", "x</p>", "&amp;<b>", "x<noscript>", "x</noscript>", "x<script>", "x<!--",
             "x<a b=c>"]


class StdlibCollector(HTMLParser):
    """The oracle: what `html.parser` reports to a text-and-attributes collector."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.chunks, self.values, self.skip = [], [], 0

    def handle_starttag(self, tag, attrs):
        if tag in ("script", "style", "noscript"):
            self.skip += 1
        self.values.extend(value for _, value in attrs if value)

    def handle_startendtag(self, tag, attrs):  # opens nothing: no skip
        self.values.extend(value for _, value in attrs if value)

    def handle_endtag(self, tag):
        if tag in ("script", "style", "noscript") and self.skip:
            self.skip -= 1

    def handle_data(self, data):
        if not self.skip and data:
            self.chunks.append(data)


def stdlib_scan(html: bytes):
    parser = StdlibCollector()
    try:
        parser.feed(pagetext._decode(html))
        parser.close()
    except AssertionError:
        pass  # an unknown <![...: keep what came before it
    return parser.chunks, parser.values

pages = st.one_of(
    st.binary(max_size=400),
    st.lists(st.sampled_from(FRAGMENTS) | st.text(max_size=6), max_size=40)
    .map(lambda parts: "".join(parts).encode("utf-8")),
    st.lists(st.sampled_from(FRAGMENTS), max_size=40)
    .map(lambda parts: "".join(parts).encode("latin-1", "replace")),
)


@settings(max_examples=300)
@given(pages)
def test_never_raises(html):
    assert isinstance(page_text(html), str)
    text, text_and_attrs = page_text_and_attrs(html)
    assert isinstance(text, str) and isinstance(text_and_attrs, str)


@settings(max_examples=300)
@given(pages)
def test_handed_off_text_equals_a_fresh_parse(html):
    # the visible text that extract hands on to classify
    assert page_text_and_attrs(html)[0] == page_text(html)


def test_text_and_attrs():
    html = (b"<html><head><style>p{}</style><script>var a='hidden';</script></head>"
            b"<body><p>pay  to</p>\n<a href=\"bitcoin:addr\">here</a></body></html>")
    assert page_text_and_attrs(html) == ("pay to here", "pay to here bitcoin:addr")
    assert page_text(html) == "pay to here"


# text pieces as the scanner may give them: empty, whitespace-only, and with
# whitespace that str.split knows beyond ASCII
pieces = st.lists(st.text(st.sampled_from("ab \t\n\xa0\u2003\x1c")) | st.text(max_size=4),
                  max_size=6)


@settings(max_examples=500)
@given(pieces, pieces)
def test_text_and_attrs_is_all_pieces_normalized_as_one(chunks, values):
    with mock.patch.object(pagetext, "_scan", lambda html: (chunks, values)):
        text, text_and_attrs = page_text_and_attrs(b"page")
    assert text == " ".join(" ".join(chunks).split())
    assert text_and_attrs == " ".join(" ".join(chunks + values).split())


# the oracle is the installed html.parser, and the scanner is pinned to 3.11.7's
stdlib_is_the_oracle = pytest.mark.skipif(sys.version_info[:3] != (3, 11, 7),
                                          reason="html.parser differs from CPython 3.11.7's")


@stdlib_is_the_oracle
@settings(max_examples=600)
@given(pages)
def test_same_chunks_and_values_as_the_stdlib_parser(html):
    assert pagetext._scan(html) == stdlib_scan(html)


# (page, text chunks, attribute values), as CPython 3.11.7's html.parser gives them
GOLDEN = [
    ("<script>a</ script >b", ["b"], []),
    ("<SCRIPT>a</script x>b</Script\n>c", ["c"], []),
    ("<style>a</style >b", ["b"], []),
    ("<noscript>a<b>c</b></noscript>d", ["d"], []),
    ("<noscript x=y/>a</noscript>b", ["b"], ["y/"]),  # a start tag, not self-closing
    ("<p x=\"y\"/>a", ["a"], ["y"]),
    ("<br/>a<br />b", ["a", "b"], []),
    ("a<![if x]>b<![endif]>c", ["a", "b", "c"], []),
    ("a<![CDATA[b]]>c", ["a", "c"], []),
    ("a<![foo]>b", ["a"], []),  # an unknown marked section ends the scan
    ("a<![", ["a", "<", "!["], []),
    ("a<?x", ["a", "<", "?x"], []),
    ("a<?x>b", ["a", "b"], []),
    ("a<!DOCTYPE html>b", ["a", "b"], []),
    ("a<!x>b", ["a", "b"], []),
    ("a<!-- b -->c", ["a", "c"], []),
    ("a<!--b", ["a", "<", "!--b"], []),
    ("a<!--b>c", ["a", "<!--b>", "c"], []),
    ("a<b c=\"d", ["a", "<", "b c=\"d"], []),
    ("a<b c=\"d>e", ["a", "<b c=\"d>", "e"], []),
    ("a < b", ["a ", "<", " b"], []),
    ("a<", ["a", "<"], []),
    ("a</>b", ["a", "b"], []),
    ("a</ b>c", ["a", "c"], []),
    ("<a\x0bhref=\"x\">t</a>", ["t"], []),  # \x0b and \xa0 belong to the tag name
    ("<a\xa0href=\"x\">t</a>", ["t"], []),
    ("<a href=\"x\"\x0bid=\"y\">t</a>", ["t"], ["x", "y"]),
    ("<a href=\"&#x1F;\">t</a>", ["t"], []),  # empty once unescaped
    ("<a href=\"&amp;x\" title=''>t &amp; u</a>", ["t & u"], ["&x"]),
    ("<a x=\"1\"y='2'>t</a>", ["t"], ["1", "2"]),
    ("<img src=x alt=\"y\">", [], ["x", "y"]),
    ("<a =b>t</a>", ["t"], []),
    ("<a b==c>t</a>", ["t"], ["c"]),
    ("<a \"x\"=y>t</a>", ["t"], ["y"]),
    ("<a x='1>t", ["<a x='1>", "t"], []),
    # scanner branches that only a lucky draw of the property above enters
    ("a<![1]>b", ["a"], []),  # a marked section with no name ends the scan
    ("a</b", ["a", "<", "/b"], []),  # an end tag with no ">" after it
    ("a</b c>d", ["a", "d"], []),  # junk before an end tag's ">"
    ("x<a\x00>y", ["x", "<a", "\x00>y"], []),  # a start tag cut at a NUL is text
    ("<F\n\"/>", [], []),  # a slow-path start tag that ends in "/>"
    ("<a <a =\"\"x", ["<a ", "<", "a =\"\"x"], []),  # an earlier chain's name end, reused
]


@pytest.mark.parametrize("page, chunks, values", GOLDEN)
def test_golden_table(page, chunks, values):
    assert pagetext._scan(page.encode("utf-8")) == (chunks, values)


@stdlib_is_the_oracle
def test_golden_table_is_what_the_stdlib_parser_gives():
    for page, chunks, values in GOLDEN:
        assert stdlib_scan(page.encode("utf-8")) == (chunks, values), page


# n is large enough that html.parser's rescans dominate its run time there;
# in the last two a text run comes before a "<" that the fast path rejects
@pytest.mark.parametrize("unit, n", [("<a ", 1000), ("<!--x", 1000), ("x<", 4000),
                                     ("xyz<!", 4000), ("abc<a ", 1000)])
def test_scan_time_grows_linearly(unit, n):
    assert growth(page_text_and_attrs, lambda k: (unit * k).encode(), n) < 8


def test_src_imports_neither_html_parser_nor_requests():
    # requests is loaded only by an HTTP client made without a session; every
    # other module that importing the package loads is its own or stdlib
    code = ("import importlib, pkgutil, sys\n"
            "before = set(sys.modules)\n"
            "import onionforge\n"
            "for module in pkgutil.iter_modules(onionforge.__path__):\n"
            "    importlib.import_module('onionforge.' + module.name)\n"
            "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "foreign = loaded - set(sys.stdlib_module_names) - {'onionforge'}\n"
            "sys.exit(sorted(foreign | ({'html.parser', 'requests'} & set(sys.modules)))"
            " or None)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(onionforge.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_src_imports_no_dataclasses():
    # each record type is a NamedTuple or a plain class: `dataclasses` and the
    # modules it pulls in (`inspect`, `ast`, `dis`) would double the import time.
    # `importlib.resources` loads `inspect` itself on CPython 3.12 and later, so
    # packaged data files are read by path. -S keeps site hooks from loading any
    # of them first
    code = ("import importlib, pathlib, sys\n"
            "names = sorted(p.stem for p in pathlib.Path(sys.argv[1]).glob('[!_]*.py'))\n"
            "before = set(sys.modules)\n"
            "for name in names:\n"
            "    importlib.import_module('onionforge.' + name)\n"
            "heavy = {'dataclasses', 'inspect', 'ast', 'dis', 'importlib.resources'}\n"
            "sys.exit(sorted(heavy & (set(sys.modules) - before)) or None)\n")
    package = Path(onionforge.__file__).parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    assert subprocess.run([sys.executable, "-S", "-c", code, str(package)],
                          env=env).returncode == 0
