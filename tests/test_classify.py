import math
import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from onionforge.classify import (
    CATEGORIES, Category, ClassifyConfigError, GroundTruth, _similarity_label,
    _tfidf_label, aggregate_site_label, build_feature_set, classify_corpus, cosine,
    load_stopwords, term_vector, tfidf_vectors, tokenize,
)
from onionforge.corpus import Corpus, OnionDomain, PageRecord
from onionforge.pagetext import page_text

from planted import TEMPLATES

NOW = datetime(2022, 3, 1, tzinfo=timezone.utc)
STOPWORDS = load_stopwords()


def page(domain, path, text):
    html = ("<html><body><p>%s</p></body></html>" % text).encode()
    return PageRecord(domain=OnionDomain(domain), path=path, html=html, fetched_at=NOW)


def dom(i):
    return "t%s%s%s.onion" % (chr(97 + i // 26), chr(97 + i % 26), "a" * 13)


def tokens(p, stopwords):
    """A page's filtered token sequence, as classify_corpus derives it."""
    return tokenize(page_text(p.html), stopwords)


def similarity_label(site_pages, gt, threshold):
    """Phase-2 label of a site, from the same vectors classify_corpus builds."""
    site_vectors = [term_vector(tokens(p, STOPWORDS)) for p in site_pages]
    gt_vectors = {cat: [term_vector(tokens(p, STOPWORDS)) for p in pages]
                  for cat, pages in gt.pages_by_category().items()
                  if cat is not Category.OTHER}
    return _similarity_label(site_vectors, gt_vectors, threshold)[0]


def tfidf_label(site_pages, fs, threshold):
    """Phase-3 label of a site, from its summed page counts."""
    counts = term_vector([t for p in site_pages for t in tokens(p, STOPWORDS)])
    return _tfidf_label(counts, fs, threshold)[0]


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
        p = PageRecord(domain=OnionDomain(dom(0)), path="/", html=html, fetched_at=NOW)
        # manual walk: title + h1 + paragraph, minus stopwords/short/numeric
        assert tokens(p, STOPWORDS) == [
            "best", "wallet", "shop", "private", "keys", "sale", "sell",
            "wallets", "price", "btc"]

    def test_stopwords_and_short_removed(self):
        assert tokenize("it is an ox and the fox", STOPWORDS) == ["fox"]


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
    gt = GroundTruth()
    for i, (cat, words) in enumerate(TEMPLATES.items()):
        gt.rows.append((page(dom(i), "/", " ".join(words * 3)), cat))
    gt.rows.extend(extra_rows)
    return gt


class TestFeatureSet:
    def test_template_keywords_rank_top(self):
        fs = build_feature_set(make_gt(), STOPWORDS)
        for word in TEMPLATES[Category.HITMEN]:
            assert word in fs.top_keywords[Category.HITMEN]

    def test_identical_documents_rank_by_frequency(self):
        # same text for every category: idf degenerates to 1, so the top-20
        # must be exactly the 20 most frequent words
        vocab = ["word%s%s" % (chr(97 + i // 26), chr(97 + i % 26)) for i in range(30)]
        text = " ".join(w for i, w in enumerate(vocab) for _ in range(30 - i))
        gt = GroundTruth()
        for i, cat in enumerate(CATEGORIES):
            gt.rows.append((page(dom(i), "/", text), cat))
        fs = build_feature_set(gt, STOPWORDS)
        assert all(abs(v - 1.0) < 1e-12 for v in fs.idf.values())
        for cat in CATEGORIES:
            assert fs.top_keywords[cat] == vocab[:20]
        assert fs.keywords == vocab[:20]  # merged set collapses to one list

    def test_merged_set_bounds(self):
        fs = build_feature_set(make_gt(), STOPWORDS)
        assert len(fs.keywords) <= 240
        union = set()
        for cat in CATEGORIES:
            union |= set(fs.top_keywords[cat])
        assert set(fs.keywords) == union

    def test_missing_category_fatal(self):
        gt = make_gt()
        gt.rows = [r for r in gt.rows if r[1] is not Category.DRUGS]
        with pytest.raises(ClassifyConfigError, match="Drugs"):
            build_feature_set(gt, STOPWORDS)


class TestSimilarityClassifier:
    def test_byte_identical_page_scores_one(self):
        gt = make_gt()
        clone_text = " ".join(TEMPLATES[Category.CLONE_CARD] * 3)
        site = [page(dom(40), "/", clone_text)]
        assert similarity_label(site, gt, 0.5) is Category.CLONE_CARD

    def test_below_threshold_stays_other(self):
        gt = make_gt()
        site = [page(dom(41), "/", "rutabaga parsnip turnip")]
        assert similarity_label(site, gt, 0.5) is Category.OTHER

    def test_highest_score_wins(self):
        gt = GroundTruth()
        gt.rows.append((page(dom(0), "/", "alpha beta"), Category.CLONE_CARD))
        gt.rows.append((page(dom(1), "/", "alpha gamma"), Category.SHOP))
        site = [page(dom(42), "/", "alpha beta beta")]
        assert similarity_label(site, gt, 0.5) is Category.CLONE_CARD

    def test_tie_breaks_by_table_order(self):
        gt = GroundTruth()
        gt.rows.append((page(dom(0), "/", "xray yankee"), Category.WEAPONS))
        gt.rows.append((page(dom(1), "/", "xray zulu"), Category.HACKER))
        site = [page(dom(43), "/", "xray")]
        # both score 1/sqrt(2); Hacker has the lower table index
        assert similarity_label(site, gt, 0.5) is Category.HACKER

    def test_score_exactly_at_threshold_assigns(self):
        # cos({x},{x,y,z,w}) = 1/(1*2) = 0.5 with no float error
        gt = GroundTruth()
        gt.rows.append((page(dom(0), "/", "xray yankee zulu whiskey"), Category.DRUGS))
        site = [page(dom(47), "/", "xray")]
        assert similarity_label(site, gt, 0.5) is Category.DRUGS
        assert similarity_label(site, gt, 0.5000001) is Category.OTHER


class TestTfidfClassifier:
    def test_zero_overlap_is_other(self):
        fs = build_feature_set(make_gt(), STOPWORDS)
        site = [page(dom(44), "/", "quokka wombat dingo")]
        assert tfidf_label(site, fs, 0.5) is Category.OTHER

    def test_keyword_list_maps_to_its_category(self):
        fs = build_feature_set(make_gt(), STOPWORDS)
        for cat, words in TEMPLATES.items():
            site = [page(dom(45), "/", " ".join(words))]
            assert tfidf_label(site, fs, 0.5) is cat, cat

    def test_twelve_planted_sites_brute_force_verified(self):
        gt = make_gt()
        fs = build_feature_set(gt, STOPWORDS)
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
            assert got is best is cat


class TestAggregate:
    def test_majority_single(self):
        assert aggregate_site_label(
            [Category.DRUGS, Category.DRUGS, Category.OTHER]) is Category.DRUGS

    def test_multi_label_collapses_to_shop(self):
        assert aggregate_site_label([Category.DRUGS, Category.WEAPONS]) is Category.SHOP

    def test_empty_is_other(self):
        assert aggregate_site_label([]) is Category.OTHER


class TestLanguageGate:
    def test_flagged_page_still_classified(self):
        corpus = Corpus()
        rows = []
        for i, (cat, words) in enumerate(TEMPLATES.items()):
            p = page(dom(i), "/", " ".join(words * 3))
            corpus.add(p)
            rows.append((p, cat))
        corpus.add(page(dom(50), "/", "кошелёк оплата товар"))
        results = classify_corpus(corpus, GroundTruth(rows=rows), 0.5, STOPWORDS)
        assert results[OnionDomain(dom(50))].category is Category.OTHER


class TestCategoryParse:
    def test_spaced_variants(self):
        assert Category.parse("Investment Scams") is Category.INVESTMENT_SCAMS
        assert Category.parse("investment-scams") is Category.INVESTMENT_SCAMS
        assert Category.parse("Cloned Card") is Category.CLONE_CARD
        assert Category.parse("Sexual Abuses") is Category.SEXUAL_ABUSE

    def test_unknown_fatal(self):
        with pytest.raises(ClassifyConfigError):
            Category.parse("Jaywalking")


def build_corpus_and_gt():
    corpus = Corpus()
    rows = []
    for i, (cat, words) in enumerate(TEMPLATES.items()):
        p = page(dom(i), "/", " ".join(words * 3))
        corpus.add(p)
        rows.append((p, cat))
    gt = GroundTruth(rows=rows)
    rng = random.Random(99)
    noise_words = ["banana", "orange", "melon", "grape", "kiwi"]
    site_truth = {}
    idx = 20
    for cat, words in TEMPLATES.items():
        for _ in range(2):
            body = words * 3 + [rng.choice(noise_words) for _ in range(2)]
            corpus.add(page(dom(idx), "/", " ".join(body)))
            site_truth[dom(idx)] = cat
            idx += 1
    for _ in range(4):
        corpus.add(page(dom(idx), "/", " ".join(
            rng.choice(noise_words) for _ in range(12))))
        site_truth[dom(idx)] = Category.OTHER
        idx += 1
    return corpus, gt, site_truth


class TestThreePhase:
    def test_planted_accuracy_and_phases(self):
        corpus, gt, truth = build_corpus_and_gt()
        results = classify_corpus(corpus, gt, 0.5, STOPWORDS)
        hits = sum(1 for d, cat in truth.items()
                   if results[OnionDomain(d)].category is cat)
        assert hits == len(truth)
        for d, cat in truth.items():
            r = results[OnionDomain(d)]
            assert r.phase == ("none" if cat is Category.OTHER else "cosine")

    def test_cosine_labels_never_overwritten(self):
        corpus, gt, truth = build_corpus_and_gt()
        results = classify_corpus(corpus, gt, 0.5, STOPWORDS)
        cosine_labeled = {d: r.category for d, r in results.items() if r.phase == "cosine"}
        assert cosine_labeled  # phase 2 did something
        again = classify_corpus(corpus, gt, 0.5, STOPWORDS)
        for d, cat in cosine_labeled.items():
            assert again[d].category is cat
            assert again[d].phase == "cosine"

    def test_deterministic(self):
        corpus, gt, _ = build_corpus_and_gt()
        r1 = classify_corpus(corpus, gt, 0.5, STOPWORDS)
        r2 = classify_corpus(corpus, gt, 0.5, STOPWORDS)
        assert {d: (r.category, r.phase, r.score) for d, r in r1.items()} == \
               {d: (r.category, r.phase, r.score) for d, r in r2.items()}
