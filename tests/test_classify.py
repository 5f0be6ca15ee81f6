import contextlib
import json
import math
import random
import re
from datetime import datetime, timezone
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from onionforge import classify
from onionforge.classify import (
    CATEGORIES, OTHER, TOP_KEYWORDS, ClassifyConfigError, FeatureSet, PageIndex,
    _best_category, _label_row, _similarity_label, _tfidf_label, aggregate_site_label,
    build_feature_set, classify_corpus, cosine, ground_truth_index, load_ground_truth,
    load_stopwords, parse_category, term_vector, tfidf_vectors, tokenize,
)
from onionforge.corpus import Corpus, PageRecord, onion_name
from onionforge.pagetext import page_text

from planted import TEMPLATES

NOW = datetime(2022, 3, 1, tzinfo=timezone.utc)
STOPWORDS = load_stopwords()


def page(domain, path, text):
    html = ("<html><body><p>%s</p></body></html>" % text).encode()
    return PageRecord(domain=onion_name(domain), path=path, html=html, fetched_at=NOW)


def dom(i):
    return "t%s%s%s.onion" % (chr(97 + i // 26), chr(97 + i % 26), "a" * 13)


def tokens(p, stopwords):
    """A page's filtered token sequence, as classify_corpus derives it."""
    return tokenize(page_text(p.html), stopwords)


def similarity_label(site_pages, gt, threshold):
    """Phase-2 label of a site, from the same vectors classify_corpus builds."""
    site_vectors = [term_vector(tokens(p, STOPWORDS)) for p in site_pages]
    return _similarity_label(site_vectors, ground_truth_index(gt, STOPWORDS), threshold)[0]


def by_domain(rows):
    """labels.jsonl rows, keyed by domain."""
    return {row["domain"]: row for row in rows}


def tfidf_label(site_pages, fs, threshold):
    """Phase-3 label of a site, from its summed page counts."""
    counts = term_vector([t for p in site_pages for t in tokens(p, STOPWORDS)])
    return _tfidf_label(counts, fs, threshold)[0]


TOKEN_RE = re.compile(r"[a-z0-9]+")


def reference_tokenize(text, stopwords):
    """The definition `tokenize` must agree with: the filtered `[a-z0-9]+` runs."""
    out = []
    for token in TOKEN_RE.findall(text.lower()):
        if token.isalpha() and len(token) >= 3 and token not in stopwords:
            out.append(token)
    return out


# characters whose case mapping, class or encoding differs between ASCII and
# Unicode: KELVIN SIGN lowers to "k", I WITH DOT ABOVE to "i" + a combining
# dot; NBSP, LINE SEPARATOR and IDEOGRAPHIC SPACE are Unicode-only whitespace
EDGE_PIECES = ["\u212a", "\u0130", "\xa0", "\u2028", "\u3000", "\ud800", "\xe9",
               "a" * 25 + "\xe9", "0X", "0x", "the", "Fox", "b2b", "42", " ", "-", "_"]


def edge_texts():
    return st.lists(st.one_of(st.sampled_from(EDGE_PIECES), st.text(max_size=8)),
                    max_size=30).map("".join)


class TestTokenize:
    def test_rule_application(self):
        p = page(dom(0), "/", "Buy CLONED cards, 100% safe!")
        assert tokens(p, {"a", "the", "and"}) == ["buy", "cloned", "cards", "safe"]

    def test_numbers_and_punctuation_only(self):
        p = page(dom(0), "/", "123 456 !!! ... 9.99")
        assert tokens(p, STOPWORDS) == []

    def test_hand_tokenized_fixture(self):
        html = (b"<html><head><title>Best Wallet Shop</title>"
                b"<style>p{color:red}</style></head>"
                b"<body><h1>Private KEYS for sale</h1>"
                b"<p>We sell 100 wallets; price from 0.01 BTC.</p>"
                b"<script>var x=1;</script></body></html>")
        p = PageRecord(domain=onion_name(dom(0)), path="/", html=html, fetched_at=NOW)
        # manual walk: title + h1 + paragraph, minus stopwords/short/numeric
        assert tokens(p, STOPWORDS) == [
            "best", "wallet", "shop", "private", "keys", "sale", "sell",
            "wallets", "price", "btc"]

    def test_stopwords_and_short_removed(self):
        assert tokenize("it is an ox and the fox", STOPWORDS) == ["fox"]

    @settings(max_examples=500)
    @given(edge_texts())
    @example("\u212aey \u0130stanbul caf\xe9s" + "a" * 25 + "\xe9 0Xdead\ud800beef")
    def test_agrees_with_the_regex_definition(self, text):
        assert tokenize(text, STOPWORDS) == reference_tokenize(text, STOPWORDS)

    def test_stopwords_file_is_case_insensitive(self, tmp_path):
        # tokens are lowercased, so an upper-case entry must match its lowercase token
        path = tmp_path / "stopwords.txt"
        path.write_text("# custom list\nBitcoin\n")
        assert tokenize("Send bitcoin wallet", load_stopwords(path)) == ["send", "wallet"]


class TestCosine:
    def test_self_similarity(self):
        v = {"a": 3, "b": 1}
        assert abs(cosine(v, v) - 1.0) < 1e-12

    def test_disjoint(self):
        assert cosine({"a": 1}, {"b": 2}) == 0.0

    def test_hand_computed(self):
        assert abs(cosine({"a": 1, "b": 2}, {"a": 2, "b": 1}) - 0.8) < 1e-12

    def test_zero_norm(self):
        assert cosine({}, {"a": 1}) == 0.0

    @settings(max_examples=200)
    @given(st.dictionaries(st.sampled_from("abcdefgh"),
                           st.floats(0.001, 100), max_size=6),
           st.dictionaries(st.sampled_from("abcdefgh"),
                           st.floats(0.001, 100), max_size=6),
           st.floats(0.01, 50))
    def test_properties(self, v1, v2, k):
        s = cosine(v1, v2)
        assert 0.0 <= s <= 1.0 + 1e-12
        assert abs(s - cosine(v2, v1)) < 1e-12
        scaled = {t: k * w for t, w in v1.items()}
        assert abs(cosine(scaled, v2) - s) < 1e-9


class TestTfidf:
    def test_toy_corpus_hand_computed(self):
        docs = [term_vector(["apple", "banana", "apple"]),
                term_vector(["banana", "cherry"]),
                term_vector(["cherry", "durian", "apple"])]
        weighted, idf = tfidf_vectors(docs)
        # ln(3/2)+1 = 1.4054651081081644, ln(3)+1 = 2.09861228866811
        assert abs(weighted[0]["apple"] - 2.8109302162163288) < 1e-9
        assert abs(weighted[0]["banana"] - 1.4054651081081644) < 1e-9
        assert abs(weighted[1]["banana"] - 1.4054651081081644) < 1e-9
        assert abs(weighted[1]["cherry"] - 1.4054651081081644) < 1e-9
        assert abs(weighted[2]["cherry"] - 1.4054651081081644) < 1e-9
        assert abs(weighted[2]["durian"] - 2.09861228866811) < 1e-9
        assert abs(weighted[2]["apple"] - 1.4054651081081644) < 1e-9
        assert abs(idf["durian"] - 2.09861228866811) < 1e-9

    def test_identical_docs_degenerate_idf(self):
        docs = [term_vector(["one", "two", "two"])] * 3
        weighted, idf = tfidf_vectors(docs)
        assert all(abs(v - 1.0) < 1e-12 for v in idf.values())  # ln(1)+1
        assert weighted[0]["two"] == 2.0


def make_gt(extra_rows=()):
    """Ground truth with one template page per category."""
    gt = [(page(dom(i), "/", " ".join(words * 3)), cat)
          for i, (cat, words) in enumerate(TEMPLATES.items())]
    gt.extend(extra_rows)
    return gt


class TestFeatureSet:
    def test_template_keywords_rank_top(self):
        fs = build_feature_set(ground_truth_index(make_gt(), STOPWORDS))
        for word in TEMPLATES["Hitmen"]:
            assert word in fs.top_keywords["Hitmen"]

    def test_identical_documents_rank_by_frequency(self):
        # same text for every category: idf degenerates to 1, so the top-20
        # must be exactly the 20 most frequent words
        vocab = ["word%s%s" % (chr(97 + i // 26), chr(97 + i % 26)) for i in range(30)]
        text = " ".join(w for i, w in enumerate(vocab) for _ in range(30 - i))
        gt = [(page(dom(i), "/", text), cat) for i, cat in enumerate(CATEGORIES)]
        fs = build_feature_set(ground_truth_index(gt, STOPWORDS))
        assert all(abs(v - 1.0) < 1e-12 for v in fs.idf.values())
        for cat in CATEGORIES:
            assert fs.top_keywords[cat] == vocab[:20]
        assert fs.keywords == vocab[:20]  # merged set collapses to one list

    def test_merged_set_bounds(self):
        fs = build_feature_set(ground_truth_index(make_gt(), STOPWORDS))
        assert len(fs.keywords) <= 240
        union = set()
        for cat in CATEGORIES:
            union |= set(fs.top_keywords[cat])
        assert set(fs.keywords) == union

    def test_missing_category_fatal(self):
        gt = make_gt()
        gt = [r for r in gt if r[1] != "Drugs"]
        with pytest.raises(ClassifyConfigError, match="Drugs"):
            build_feature_set(ground_truth_index(gt, STOPWORDS))


class TestSimilarityClassifier:
    def test_byte_identical_page_scores_one(self):
        gt = make_gt()
        clone_text = " ".join(TEMPLATES["CloneCard"] * 3)
        site = [page(dom(40), "/", clone_text)]
        assert similarity_label(site, gt, 0.5) == "CloneCard"

    def test_below_threshold_stays_other(self):
        gt = make_gt()
        site = [page(dom(41), "/", "rutabaga parsnip turnip")]
        assert similarity_label(site, gt, 0.5) == "Other"

    def test_highest_score_wins(self):
        gt = []
        gt.append((page(dom(0), "/", "alpha beta"), "CloneCard"))
        gt.append((page(dom(1), "/", "alpha gamma"), "Shop"))
        site = [page(dom(42), "/", "alpha beta beta")]
        assert similarity_label(site, gt, 0.5) == "CloneCard"

    def test_tie_breaks_by_table_order(self):
        gt = []
        gt.append((page(dom(0), "/", "xray yankee"), "Weapons"))
        gt.append((page(dom(1), "/", "xray zulu"), "Hacker"))
        site = [page(dom(43), "/", "xray")]
        # both score 1/sqrt(2); Hacker comes earlier in table order
        assert similarity_label(site, gt, 0.5) == "Hacker"

    def test_score_exactly_at_threshold_assigns(self):
        # cos({x},{x,y,z,w}) = 1/(1*2) = 0.5 with no float error
        gt = []
        gt.append((page(dom(0), "/", "xray yankee zulu whiskey"), "Drugs"))
        site = [page(dom(47), "/", "xray")]
        assert similarity_label(site, gt, 0.5) == "Drugs"
        assert similarity_label(site, gt, 0.5000001) == "Other"


def count_vectors(vocab):
    counts = st.integers(1, 3) | st.integers(1, 1000)  # small counts are the common case
    return st.dictionaries(st.sampled_from(vocab), counts, max_size=6)


@st.composite
def phase2_cases(draw):
    """Site page vectors, ground-truth page vectors by category, a threshold.

    A ground-truth page may repeat under other categories, which gives exact
    ties; a site page may copy a ground-truth page, which scores 1.0; and the
    threshold may equal a score that occurs.
    """
    # the second site vocabulary shares no term with the ground truth
    site_vocab = draw(st.sampled_from(["abcdefgh", "uvwxyz"]))
    site_vectors = draw(st.lists(count_vectors(site_vocab), max_size=4))
    # a category may be absent or present with no pages
    gt_vectors = draw(st.dictionaries(st.sampled_from(CATEGORIES),
                                      st.lists(count_vectors("abcdefgh"), max_size=3),
                                      max_size=12))
    drawn = [vec for vectors in gt_vectors.values() for vec in vectors]
    if drawn:
        for cat in draw(st.lists(st.sampled_from(CATEGORIES), max_size=3)):
            gt_vectors.setdefault(cat, []).append(dict(draw(st.sampled_from(drawn))))
        for _ in range(draw(st.integers(0, 2))):
            site_vectors.insert(draw(st.integers(0, len(site_vectors))),
                                dict(draw(st.sampled_from(drawn))))
    scores = sorted({cosine(sv, gv) for sv in site_vectors
                     for vectors in gt_vectors.values() for gv in vectors})
    fixed = st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0])
    threshold = draw(st.sampled_from(scores) if scores and draw(st.booleans()) else fixed)
    return site_vectors, gt_vectors, threshold


# a copied page scores exactly 1.0, but its term bounds sum to 1 - 2**-53:
# only the margin keeps it from being skipped at threshold 1.0
COPIED = {"a": 997, "b": 2, "c": 3, "d": 602, "e": 867, "f": 1}


class TestPageIndex:
    @settings(max_examples=300)
    @given(phase2_cases())
    @example(([COPIED], {"Drugs": [COPIED]}, 1.0))
    def test_matches_brute_force_cosine(self, case):
        site_vectors, gt_vectors, threshold = case
        index = PageIndex()
        for cat, vectors in gt_vectors.items():
            for vec in vectors:
                index.add(vec, cat)
        # brute force: the best cosine of every (site page, GT page) pair
        scores = {cat: max([cosine(sv, gv) for sv in site_vectors for gv in vectors],
                           default=0.0)
                  for cat, vectors in gt_vectors.items()}
        want, want_score = _best_category(scores, threshold)
        label, score = _similarity_label(site_vectors, index, threshold)
        assert label == want
        if label == "Other":
            # the score below the threshold is not computed; no pair reached it
            assert want_score < threshold or want_score == 0.0
        else:
            assert score.hex() == want_score.hex()

    def test_empty_index_labels_other(self):
        label, score = _similarity_label([{"alpha": 2}], PageIndex(), 0.5)
        assert label == "Other" and score < 0.5


class TestTfidfClassifier:
    def test_zero_overlap_is_other(self):
        fs = build_feature_set(ground_truth_index(make_gt(), STOPWORDS))
        site = [page(dom(44), "/", "quokka wombat dingo")]
        assert tfidf_label(site, fs, 0.5) == "Other"

    def test_keyword_list_maps_to_its_category(self):
        fs = build_feature_set(ground_truth_index(make_gt(), STOPWORDS))
        for cat, words in TEMPLATES.items():
            site = [page(dom(45), "/", " ".join(words))]
            assert tfidf_label(site, fs, 0.5) == cat, cat

    def test_twelve_planted_sites_brute_force_verified(self):
        gt = make_gt()
        fs = build_feature_set(ground_truth_index(gt, STOPWORDS))
        keep = set(fs.keywords)
        for cat, words in TEMPLATES.items():
            site_tokens = words * 2
            site = [page(dom(46), "/", " ".join(site_tokens))]
            got = tfidf_label(site, fs, 0.5)
            # brute-force best cosine over projected vectors, recomputed here
            counts = term_vector([t for t in site_tokens])
            site_vec = {t: c * fs.idf[t] for t, c in counts.items() if t in keep}
            best, best_score = None, -1.0
            for other in CATEGORIES:
                proj = {t: w for t, w in fs.category_vectors[other].items() if t in keep}
                dot = sum(w * proj.get(t, 0.0) for t, w in site_vec.items())
                n1 = math.sqrt(sum(w * w for w in site_vec.values()))
                n2 = math.sqrt(sum(w * w for w in proj.values()))
                score = dot / (n1 * n2) if n1 and n2 else 0.0
                if score > best_score:
                    best, best_score = other, score
            assert got == best == cat


class TestAggregate:
    def test_majority_single(self):
        assert aggregate_site_label(["Drugs", "Drugs", "Other"]) == "Drugs"

    def test_multi_label_collapses_to_shop(self):
        assert aggregate_site_label(["Drugs", "Weapons"]) == "Shop"

    def test_empty_is_other(self):
        assert aggregate_site_label([]) == "Other"


class TestLanguageGate:
    def test_flagged_page_still_classified(self):
        rows = [(page(dom(i), "/", " ".join(words * 3)), cat)
                for i, (cat, words) in enumerate(TEMPLATES.items())]
        corpus = Corpus([p for p, _ in rows] + [page(dom(50), "/", "кошелёк оплата товар")])
        results = by_domain(classify_corpus(corpus, rows, 0.5, STOPWORDS))
        assert results[dom(50)]["category"] == "Other"


class TestCategoryParse:
    def test_spaced_variants(self):
        assert parse_category("Investment Scams") == "InvestmentScams"
        assert parse_category("investment-scams") == "InvestmentScams"
        assert parse_category("Cloned Card") == "CloneCard"
        assert parse_category("Sexual Abuses") == "SexualAbuse"

    def test_every_table_label_parses_to_itself(self):
        labels = CATEGORIES + (OTHER,)
        assert len(set(labels)) == 13
        for label in labels:
            assert parse_category(label) == label

    def test_unknown_fatal(self):
        with pytest.raises(ClassifyConfigError, match="Jaywalking"):
            parse_category("Jaywalking")


class TestLoadGroundTruth:
    def test_rows_resolve_against_the_corpus(self, tmp_path):
        corpus = Corpus([page(dom(0), "/", "pills")])
        path = tmp_path / "gt.jsonl"
        path.write_text(json.dumps({"domain": dom(0), "path": "/", "category": "Drugs"})
                        + "\n\n")
        rows = load_ground_truth(path, corpus)
        assert rows == [(corpus[0], "Drugs")]
        assert rows[0][0] is corpus[0]

    @pytest.mark.parametrize("bad", [
        '[1]', '"x"', 'null', '{"domain": "d', '{"path": "/", "category": "Drugs"}',
        '{"domain": "d.onion", "category": "Drugs"}', '{"domain": "d.onion", "path": "/"}',
        '{"domain": "d.onion", "path": "/", "category": 7}',
        '{"domain": 5, "path": "/", "category": "Drugs"}'])
    def test_row_that_is_not_an_object_with_text_fields_names_its_line(self, tmp_path, bad):
        corpus = Corpus([page(dom(0), "/", "pills")])
        path = tmp_path / "gt.jsonl"
        path.write_text(json.dumps({"domain": dom(0), "path": "/", "category": "Drugs"})
                        + "\n\n" + bad + "\n")
        with pytest.raises(ClassifyConfigError, match="line 3") as err:
            load_ground_truth(path, corpus)
        assert repr(bad) in str(err.value)

    def test_row_names_its_page_by_onion_name(self, tmp_path):
        corpus = Corpus([page(dom(0), "/", "pills")])
        path = tmp_path / "gt.jsonl"
        path.write_text(json.dumps({"domain": " %s " % dom(0).upper(), "path": "/",
                                    "category": "Drugs"}) + "\n")
        assert load_ground_truth(path, corpus) == [(corpus[0], "Drugs")]

    def test_domain_that_is_no_onion_name_names_its_line(self, tmp_path):
        corpus = Corpus([page(dom(0), "/", "pills")])
        path = tmp_path / "gt.jsonl"
        path.write_text(json.dumps({"domain": dom(0), "path": "/", "category": "Drugs"})
                        + "\n" + json.dumps({"domain": "missing.onion", "path": "/",
                                             "category": "Drugs"}) + "\n")
        with pytest.raises(ClassifyConfigError,
                           match="line 2: domain is not an onion name: 'missing.onion'"):
            load_ground_truth(path, corpus)

    def test_page_missing_from_corpus_names_its_line(self, tmp_path):
        corpus = Corpus([page(dom(0), "/", "pills")])
        path = tmp_path / "gt.jsonl"
        path.write_text(json.dumps({"domain": dom(0), "path": "/", "category": "Drugs"})
                        + "\n" + json.dumps({"domain": dom(1), "path": "/",
                                             "category": "Drugs"}) + "\n")
        with pytest.raises(ClassifyConfigError, match="missing from corpus: %s / \\(line 2\\)"
                           % re.escape(dom(1))):
            load_ground_truth(path, corpus)

    def test_line_that_is_not_utf8_names_its_line(self, tmp_path):
        corpus = Corpus([page(dom(0), "/", "pills")])
        path = tmp_path / "gt.jsonl"
        path.write_bytes(json.dumps({"domain": dom(0), "path": "/", "category": "Drugs"})
                         .encode() + b"\n\xff\n")
        with pytest.raises(ClassifyConfigError, match="ground truth line 2 is not JSON"):
            load_ground_truth(path, corpus)


def build_corpus_and_gt(*extra_pages):
    gt = [(page(dom(i), "/", " ".join(words * 3)), cat)
          for i, (cat, words) in enumerate(TEMPLATES.items())]
    pages = [p for p, _ in gt] + list(extra_pages)
    rng = random.Random(99)
    noise_words = ["banana", "orange", "melon", "grape", "kiwi"]
    site_truth = {}
    idx = 20
    for cat, words in TEMPLATES.items():
        for _ in range(2):
            body = words * 3 + [rng.choice(noise_words) for _ in range(2)]
            pages.append(page(dom(idx), "/", " ".join(body)))
            site_truth[dom(idx)] = cat
            idx += 1
    for _ in range(4):
        pages.append(page(dom(idx), "/", " ".join(
            rng.choice(noise_words) for _ in range(12))))
        site_truth[dom(idx)] = "Other"
        idx += 1
    return Corpus(pages), gt, site_truth


class TestThreePhase:
    def test_planted_accuracy_and_phases(self):
        corpus, gt, truth = build_corpus_and_gt()
        results = by_domain(classify_corpus(corpus, gt, 0.5, STOPWORDS))
        hits = sum(1 for d, cat in truth.items()
                   if results[d]["category"] == cat)
        assert hits == len(truth)
        for d, cat in truth.items():
            r = results[d]
            assert r["phase"] == ("none" if cat == "Other" else "cosine")

    def test_cosine_labels_never_overwritten(self):
        corpus, gt, truth = build_corpus_and_gt()
        results = classify_corpus(corpus, gt, 0.5, STOPWORDS)
        cosine_labeled = {r["domain"]: r["category"] for r in results if r["phase"] == "cosine"}
        assert cosine_labeled  # phase 2 did something
        again = by_domain(classify_corpus(corpus, gt, 0.5, STOPWORDS))
        for d, cat in cosine_labeled.items():
            assert again[d]["category"] == cat
            assert again[d]["phase"] == "cosine"

    def test_deterministic(self):
        corpus, gt, _ = build_corpus_and_gt()
        with unrounded_scores():
            r1 = classify_corpus(corpus, gt, 0.5, STOPWORDS)
            r2 = classify_corpus(corpus, gt, 0.5, STOPWORDS)
        assert r1 == r2

    def test_rows_are_by_domain_and_round_the_score(self):
        corpus, gt, _ = build_corpus_and_gt()
        rows = classify_corpus(corpus, gt, 0.5, STOPWORDS)
        assert [r["domain"] for r in rows] == sorted(d for d, _ in corpus.sites())
        with unrounded_scores():
            raw = classify_corpus(corpus, gt, 0.5, STOPWORDS)
        for row, raw_row in zip(rows, raw):
            assert set(row) == {"v", "domain", "category", "phase"} | (
                set() if row["phase"] == "ground-truth" else {"score"})
            if "score" in row:
                assert row["score"] == round(raw_row["score"], 12)


@contextlib.contextmanager
def unrounded_scores():
    """Inside the block, labels rows carry the score at full precision."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "round", lambda score, digits: score, raising=False)
        yield


def reference_classify(corpus, gt, threshold, stopwords):
    """Phases 2 and 3 as counted before page vectors were summed.

    Phase 3 and the feature set count the concatenated tokens of a site's
    pages and of a category's ground-truth pages, and the index groups the
    ground-truth pages by category.
    """
    site_labels = {}
    for page, cat in gt:
        site_labels.setdefault(page.domain, []).append(cat)
    results = {d: _label_row(d, aggregate_site_label(labels), "ground-truth")
               for d, labels in site_labels.items()}
    grouped = {}
    for page, cat in gt:
        if cat != "Other":
            grouped.setdefault(cat, []).append(page)
    index = PageIndex()
    for cat, pages in grouped.items():
        for p in pages:
            index.add(term_vector(tokens(p, stopwords)), cat)
    docs = [term_vector([t for p in grouped.get(cat, []) for t in tokens(p, stopwords)])
            for cat in CATEGORIES]
    weighted, idf = tfidf_vectors(docs)
    cat_vectors = dict(zip(CATEGORIES, weighted))
    top, merged = {}, []
    for cat in CATEGORIES:
        ranked = sorted(cat_vectors[cat].items(), key=lambda kv: (-kv[1], kv[0]))
        top[cat] = [t for t, _ in ranked[:TOP_KEYWORDS]]
        merged.extend(t for t in top[cat] if t not in merged)
    fs = FeatureSet(keywords=merged, category_vectors=cat_vectors, idf=idf,
                    top_keywords=top)
    for domain, pages in corpus.sites():
        if domain in results:
            continue
        pages = list(pages)
        label, score = _similarity_label([term_vector(tokens(p, stopwords)) for p in pages],
                                         index, threshold)
        if label != "Other":
            results[domain] = _label_row(domain, label, "cosine", score)
            continue
        counts = term_vector([t for p in pages for t in tokens(p, stopwords)])
        label, score = _tfidf_label(counts, fs, threshold)
        results[domain] = _label_row(domain, label,
                                     "none" if label == "Other" else "tfidf", score)
    return [results[d] for d in sorted(results)], fs


VOCAB = ["wallet", "escrow", "vendor", "powder", "pistol", "forged", "passport",
         "exploit", "invest", "profit", "clone", "card", "mixer", "shipping"]
words = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=10)


@st.composite
def corpora(draw):
    """A corpus whose ground truth covers every category, one shared page among them."""
    pages, rows = [], []
    for i, cat in enumerate(CATEGORIES):
        p = page(dom(i), "/", " ".join(draw(words)))
        pages.append(p)
        rows.append((p, cat))
    shared = page(dom(12), "/", " ".join(draw(words)))
    pages.append(shared)
    for cat in draw(st.lists(st.sampled_from(CATEGORIES), min_size=2, max_size=2,
                             unique=True)):
        rows.append((shared, cat))
    for i in range(draw(st.integers(1, 5))):
        first = draw(words)
        texts = [first, draw(st.permutations(first))] + draw(st.lists(words, max_size=2))
        for j, text in enumerate(texts[:draw(st.integers(1, len(texts)))]):
            pages.append(page(dom(20 + i), "/p%d" % j, " ".join(text)))
    return Corpus(pages), rows, draw(st.sampled_from([0.2, 0.5, 0.8]))


class TestSummedVectors:
    @settings(max_examples=150, deadline=None)
    @given(corpora())
    def test_matches_concatenated_token_counts(self, case):
        corpus, gt, threshold = case
        with unrounded_scores():
            got = classify_corpus(corpus, gt, threshold, STOPWORDS)
            want, want_fs = reference_classify(corpus, gt, threshold, STOPWORDS)
        assert got == want
        fs = build_feature_set(ground_truth_index(gt, STOPWORDS))
        for cat in CATEGORIES:  # same weights, in the same key order
            assert list(fs.category_vectors[cat].items()) == \
                list(want_fs.category_vectors[cat].items())
        assert list(fs.idf.items()) == list(want_fs.idf.items())
        assert fs.keywords == want_fs.keywords

    @settings(max_examples=100, deadline=None)
    @given(corpora())
    def test_handed_texts_give_the_rows_a_scan_gives(self, case):
        corpus, gt, threshold = case
        texts = [page_text(p.html) for p in corpus]
        scanned = classify_corpus(corpus, gt, threshold, STOPWORDS)
        with mock.patch.object(classify, "page_text", side_effect=AssertionError("scanned")):
            assert classify_corpus(corpus, gt, threshold, STOPWORDS, texts) == scanned

    def test_each_classified_page_is_tokenized_once(self, monkeypatch):
        corpus, gt, _ = build_corpus_and_gt(
            page(dom(0), "/about", "escrow vendor"),  # a second page of a phase 1 site
            page(dom(20), "/more", "powder pistol"))  # a second page, unlabelled site
        first_gt_page = gt[0][0]
        gt.append((first_gt_page, "Shop"))        # listed under two categories
        texts = []
        real = classify.tokenize

        def counting(text, stopwords):
            texts.append(text)
            return real(text, stopwords)
        monkeypatch.setattr(classify, "tokenize", counting)
        results = by_domain(classify_corpus(corpus, gt, 0.5, STOPWORDS))

        gt_pages = {id(p) for p, _ in gt}
        unlabeled = [d for d, _ in corpus.sites() if results[d]["phase"] != "ground-truth"]
        assert {results[d]["phase"] for d in unlabeled} >= {"cosine", "none"}
        assert len(texts) == len(gt_pages) + sum(1 for p in corpus if p.domain in unlabeled)
