from hypothesis import given, settings, strategies as st

from onionforge import pagetext
from onionforge.pagetext import page_text, page_text_and_attrs

# markup fragments, so that generated pages exercise the parser's states and
# not only its decoder
FRAGMENTS = ["<p>", "</p>", "<script>", "</script>", "<style>x{}</style>", "<!--",
             "-->", "<a href=\"", "\">", "<img src='x' alt=q/>", "&amp;", "&#",
             "&#x1F;", "<![CDATA[", "]]>", "<!DOCTYPE", "<", ">", "\"", "'", " ", "\n",
             "1CHvWk36MR5aCz72jViS7jSub9utJf3jii", "café", "ÿ"]

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
    with pagetext.handoff():
        assert isinstance(page_text(html), str)
        assert isinstance(page_text_and_attrs(html), str)


@settings(max_examples=300)
@given(pages)
def test_handed_off_text_equals_a_fresh_parse(html):
    with pagetext.handoff():
        fresh = page_text(html)
        page_text_and_attrs(html)
        assert page_text(html) == fresh
        assert pagetext._handoff == {}  # an entry is removed when it is used


def test_identical_pages_each_take_their_own_entry(monkeypatch):
    html = b"<p>same mirror page</p><a href='x'>pay</a>"
    with pagetext.handoff():
        page_text_and_attrs(html)
        page_text_and_attrs(html)
        parsed = []
        monkeypatch.setattr(pagetext, "_collect",
                            lambda h: parsed.append(h) or pagetext._TextCollector())
        assert page_text(html) == page_text(html) == "same mirror page pay"
        assert parsed == [] and pagetext._handoff == {}
        page_text(html)
        assert parsed == [html]  # nothing handed off any more: parsed again


def test_untaken_text_ends_with_the_block():
    with pagetext.handoff():
        page_text_and_attrs(b"<p>scanned, never classified</p>")
        assert len(pagetext._handoff) == 1
    assert pagetext._handoff is None


def test_text_and_attrs():
    html = (b"<html><head><style>p{}</style><script>var a='hidden';</script></head>"
            b"<body><p>pay  to</p>\n<a href=\"bitcoin:addr\">here</a></body></html>")
    assert page_text_and_attrs(html) == "pay to here bitcoin:addr"
    assert page_text(html) == "pay to here"
