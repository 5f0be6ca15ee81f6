"""Three-phase illicit-site classification.

Phase 1 takes labels straight from the annotated ground truth. Phase 2
labels sites whose pages are cosine-similar (>= threshold) to a ground
truth page. It searches an inverted index of the ground-truth pages for
the best page pair only, and skips every page that a per-term bound shows
cannot reach the threshold or the best pair found so far. Phase 3 projects
TF-IDF vectors onto a per-category keyword feature set and applies the
same cosine rule to whatever is still unlabeled. Later phases never
relabel earlier ones.
"""

from __future__ import annotations

import json
import math
import re

from .artifacts import NotJson, jsonl_rows, word_list
from .corpus import Corpus, PageRecord
from .pagetext import page_text

MIN_TOKEN_LEN = 3
_WORD_BYTES = b"0123456789abcdefghijklmnopqrstuvwxyz"
_NON_WORD_TO_SPACE = bytes(b if b in _WORD_BYTES else 0x20 for b in range(256))
TOP_KEYWORDS = 20


class ClassifyConfigError(Exception):
    pass


CATEGORIES = ("InvestmentScams", "PrivateKey", "CloneCard", "CounterfeitBills",
              "Citizenship", "Drugs", "Hacker", "Hitmen", "SexualAbuse", "Memberships",
              "Weapons", "Shop")  # the twelve illicit categories, in table order
OTHER = "Other"


def _alias_key(text: str) -> str:
    return re.sub(r"[\s_-]+", "", text).lower()


_ALIASES = {_alias_key(label): label for label in CATEGORIES + (OTHER,)}
_ALIASES.update({
    "investmentscam": "InvestmentScams",
    "privatekeys": "PrivateKey",
    "clonedcard": "CloneCard",
    "clonedcards": "CloneCard",
    "hacking": "Hacker",
    "sexualabuses": "SexualAbuse",
    "shops": "Shop",
})


def parse_category(text: str) -> str:
    """The table label `text` names, ignoring case, spaces, `_` and `-`, or an alias."""
    try:
        return _ALIASES[_alias_key(text)]
    except KeyError:
        raise ClassifyConfigError("unknown category %r" % text) from None


TermVector = dict               # word -> count or weight, no zero entries
GroundTruthRows = list          # (PageRecord, category) pairs, each page the corpus's own
PageTexts = dict                # id(page) -> its visible text, for the pages of one corpus


def load_stopwords(path=None) -> set[str]:
    return word_list(path, "stopwords.txt")


def tokenize(text: str, stopwords: set[str]) -> list[str]:
    """Lowercase word tokens, minus punctuation, numerics, stopwords, short words.

    The words are the `[a-z0-9]+` runs of `text.lower()`: every non-ASCII
    code point becomes "?" and every other byte outside `[0-9a-z]` a space.
    """
    words = text.lower().encode("ascii", "replace").translate(_NON_WORD_TO_SPACE)
    return [w for w in words.decode("ascii").split()
            if len(w) >= MIN_TOKEN_LEN and w.isalpha() and w not in stopwords]


def term_vector(tokens: list[str]) -> TermVector:
    vec: TermVector = {}
    for t in tokens:
        vec[t] = vec.get(t, 0) + 1
    return vec


def page_vector(page: PageRecord, stopwords: set[str],
                texts: PageTexts | None = None) -> TermVector:
    """The page's term counts, from its text in `texts`, or else from a scan."""
    text = page_text(page.html) if texts is None else texts[id(page)]
    return term_vector(tokenize(text, stopwords))


def add_counts(total: TermVector, vec: TermVector):
    """Add `vec`'s counts into `total`.

    Summed in page order, page vectors give the counts that `term_vector`
    gives the pages' joined tokens, in the same key order; float sums run in
    key order, so a summed vector scores bit for bit as the joined text.
    """
    for t, c in vec.items():
        total[t] = total.get(t, 0) + c


def cosine(v1: TermVector, v2: TermVector) -> float:
    """Cosine similarity of two non-negative sparse vectors; 0 if either is zero."""
    if len(v2) < len(v1):
        v1, v2 = v2, v1
    dot = sum(w * v2[t] for t, w in v1.items() if t in v2)
    if not dot:
        return 0.0
    n1 = math.sqrt(sum(w * w for w in v1.values()))
    n2 = math.sqrt(sum(w * w for w in v2.values()))
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return dot / (n1 * n2)


def tfidf_vectors(count_vectors: list[TermVector]) -> tuple[list[TermVector], dict[str, float]]:
    """Weight raw counts by ln(N/df) + 1 over the given document corpus.

    Returns the weighted vectors plus the idf table used.
    """
    n = len(count_vectors)
    df: dict[str, int] = {}
    for vec in count_vectors:
        for term in vec:
            df[term] = df.get(term, 0) + 1
    idf = {term: math.log(n / d) + 1.0 for term, d in df.items()}
    return [{term: count * idf[term] for term, count in vec.items()}
            for vec in count_vectors], idf


def load_ground_truth(path, corpus: Corpus) -> GroundTruthRows:
    """Read {domain, path, category} JSONL, resolving every row against the corpus.

    A line that is not a JSON object with text domain, path and category
    raises ClassifyConfigError naming the line.
    """
    by_key = {(p.domain, p.path): p for p in corpus}
    gt = []
    missing = []
    with open(path, "rb") as fh:
        for lineno, row in jsonl_rows(fh, keep_bad_lines=True):
            if isinstance(row, NotJson):
                raise ClassifyConfigError("ground truth %s" % row)
            if not (isinstance(row, dict) and all(
                    isinstance(row.get(key), str) for key in ("domain", "path", "category"))):
                raise ClassifyConfigError(
                    "ground truth line %d: not a JSON object with text domain, path and "
                    "category: %r" % (lineno, json.dumps(row)))
            cat = parse_category(row["category"])
            page = by_key.get((row["domain"], row["path"]))
            if page is None:
                missing.append("%s %s (line %d)" % (row["domain"], row["path"], lineno))
                continue
            gt.append((page, cat))
    if missing:
        raise ClassifyConfigError("ground truth references pages missing from corpus: "
                                  + "; ".join(missing))
    return gt


def aggregate_site_label(page_labels: list[str]) -> str:
    """Zero distinct non-Other labels -> Other; one -> itself; several -> Shop."""
    distinct = {c for c in page_labels if c != OTHER}
    if not distinct:
        return OTHER
    if len(distinct) == 1:
        return distinct.pop()
    return "Shop"


def _best_category(scores: dict[str, float], threshold: float) -> tuple[str, float]:
    """Highest score wins if it clears the threshold; ties fall to table order."""
    best, best_score = OTHER, 0.0
    for cat in CATEGORIES:
        score = scores.get(cat, 0.0)
        if score > best_score:
            best, best_score = cat, score
    if best_score >= threshold and best != OTHER:
        return best, best_score
    return OTHER, best_score


class PageIndex:
    """Inverted index of the ground-truth page vectors that phase 2 searches.

    `postings` maps each term to the numbers of the pages that hold it; the
    count is read from the page's vector, which keeps the postings small.
    `max_weight` holds each term's largest normalised weight over the pages,
    `max(g[t] / |g|)`, which bounds what the term adds to any page's cosine.
    `ranks` holds each page's category as its position in `CATEGORIES`.
    """

    def __init__(self):
        self.postings: dict[str, list[int]] = {}
        self.max_weight: dict[str, float] = {}
        self.vectors: list[TermVector] = []
        self.norms: list[float] = []
        self.ranks: list[int] = []

    def add(self, vector: TermVector, category: str):
        page = len(self.vectors)
        norm = math.sqrt(sum(w * w for w in vector.values()))
        for term, w in vector.items():
            self.postings.setdefault(term, []).append(page)
            weight = w / norm
            if weight > self.max_weight.get(term, 0.0):
                self.max_weight[term] = weight
        self.vectors.append(vector)
        self.norms.append(norm)
        self.ranks.append(CATEGORIES.index(category))


# A page is skipped when the bounds of the terms it shares sum below
# max(threshold, best) * (1 - _MARGIN). A bound and a cosine each round with a
# relative error of a few units of 2**-53, and a sum of n bounds adds at most
# about n more. So for a page whose computed cosine reaches max(threshold,
# best), the computed bound sum stays above that times (1 - (n + 6) * 2**-53),
# which is above the margin's factor for any site page under a million terms:
# no pair that could set the label is skipped.
_MARGIN = 1e-9


def _similarity_label(site_vectors, index: PageIndex, threshold):
    """Phase-2 rule: the category of the best page-pair cosine, if >= threshold.

    The search keeps the best pair so far over all of the site's pages; a
    tie goes to the category earlier in table order. For each site page,
    term t adds at most `s[t] / |s| * max_weight[t]` to a cosine. The terms
    with the lowest such bounds, while their bounds sum below the floor
    `max(threshold, best)`, are non-essential: a ground-truth page that
    shares only those cannot reach the floor, so only pages holding another
    term are scored. Each is scored in full with the exact integer dot
    product and `dot / (n1 * n2)`, the expression `cosine` evaluates, so the
    stored score is bit-for-bit the one `cosine` returns.

    Returns (category, score). When the category is Other, the score is
    only the best found before the floor pruned the rest, not the exact
    best: phase 3 replaces it.
    """
    postings, max_weight = index.postings, index.max_weight
    vectors, norms, ranks = index.vectors, index.norms, index.ranks
    best, best_rank = 0.0, len(CATEGORIES)
    for sv in site_vectors:
        n1 = math.sqrt(sum(w * w for w in sv.values()))
        bounds = sorted((w / n1 * max_weight[t], t, w) for t, w in sv.items()
                        if t in max_weight)
        floor = max(threshold, best) * (1.0 - _MARGIN)
        skip, total = 0, 0.0
        while skip < len(bounds) and total + bounds[skip][0] < floor:
            total += bounds[skip][0]
            skip += 1
        dots: dict[int, int] = {}
        for _, term, w in bounds[skip:]:
            for page in postings[term]:
                dots[page] = dots.get(page, 0) + w * vectors[page][term]
        rest = bounds[:skip]
        for page, dot in dots.items():
            vector = vectors[page]
            for _, term, w in rest:
                if term in vector:
                    dot += w * vector[term]
            sim = dot / (n1 * norms[page])
            if sim > best or (sim == best and ranks[page] < best_rank):
                best, best_rank = sim, ranks[page]
    if best_rank < len(CATEGORIES) and best >= threshold:
        return CATEGORIES[best_rank], best
    return OTHER, best


class FeatureSet:
    """Merged top-TF-IDF keywords with the vectors needed for projection."""

    def __init__(self, keywords: list[str], category_vectors: dict[str, TermVector],
                 idf: dict[str, float], top_keywords: dict[str, list[str]]):
        self.keywords = keywords
        self.category_vectors = category_vectors  # full TF-IDF vectors
        self.idf = idf
        self.top_keywords = top_keywords
        self.keyword_set = frozenset(keywords)
        self.projected = {cat: {t: w for t, w in vec.items() if t in self.keyword_set}
                          for cat, vec in category_vectors.items()}  # vectors on keywords


def ground_truth_index(gt: GroundTruthRows, stopwords: set[str],
                       texts: PageTexts | None = None) -> PageIndex:
    """Phase 2's index of the ground-truth rows, each distinct page tokenized once."""
    vectors: dict[int, TermVector] = {}
    index = PageIndex()
    for page, cat in gt:
        if cat != OTHER:
            if id(page) not in vectors:
                vectors[id(page)] = page_vector(page, stopwords, texts)
            index.add(vectors[id(page)], cat)
    return index


def build_feature_set(index: PageIndex) -> FeatureSet:
    """Per-category TF-IDF over the 12 category documents.

    A category's document is the sum of its ground-truth page vectors, in
    index order.
    """
    docs: list[TermVector] = [{} for _ in CATEGORIES]
    for vec, rank in zip(index.vectors, index.ranks):
        add_counts(docs[rank], vec)
    empty = [cat for cat, doc in zip(CATEGORIES, docs) if not doc]
    if empty:
        raise ClassifyConfigError("ground truth lacks content for: " + ", ".join(empty))

    weighted, idf = tfidf_vectors(docs)
    cat_vectors = dict(zip(CATEGORIES, weighted))

    top: dict[str, list[str]] = {}
    merged: list[str] = []
    seen = set()
    for cat in CATEGORIES:
        ranked = sorted(cat_vectors[cat].items(), key=lambda kv: (-kv[1], kv[0]))
        top[cat] = [t for t, _ in ranked[:TOP_KEYWORDS]]
        for t in top[cat]:
            if t not in seen:
                seen.add(t)
                merged.append(t)
    return FeatureSet(keywords=merged, category_vectors=cat_vectors, idf=idf,
                      top_keywords=top)


def _tfidf_label(site_counts: TermVector, fs: FeatureSet, threshold):
    """Phase-3 rule: cosine in feature-set space, same threshold and ties."""
    site_vec = {t: c * fs.idf[t] for t, c in site_counts.items() if t in fs.keyword_set}
    if not site_vec:
        return OTHER, 0.0
    scores = {cat: cosine(site_vec, fs.projected[cat]) for cat in CATEGORIES}
    return _best_category(scores, threshold)


def _label_row(domain: str, category: str, phase: str, score: float | None = None) -> dict:
    row = {"v": 1, "domain": domain, "category": category, "phase": phase}
    if score is not None:
        row["score"] = round(score, 12)
    return row


def classify_corpus(corpus: Corpus, gt: GroundTruthRows, threshold: float,
                    stopwords: set[str], texts: list[str] | None = None) -> list[dict]:
    """Run all three phases over a corpus: the labels.jsonl rows, by domain.

    A row's phase is ground-truth, cosine, tfidf or none. Deterministic for
    fixed inputs. Each classified page is tokenized once: the feature set
    sums the vectors of the ground-truth index, and phase 3 those of the
    site phase 2 scored. `texts` holds each page's `page_text`, in corpus
    order; without it, each classified page is scanned here.
    """
    by_id = None if texts is None else dict(zip(map(id, corpus), texts))
    rows: dict[str, dict] = {}

    site_labels: dict[str, list[str]] = {}
    for page, cat in gt:
        site_labels.setdefault(page.domain, []).append(cat)
    for domain, labels in site_labels.items():
        rows[domain] = _label_row(domain, aggregate_site_label(labels), "ground-truth")

    index = ground_truth_index(gt, stopwords, by_id)
    fs = build_feature_set(index)
    for domain, pages in corpus.sites():
        if domain in rows:
            continue
        site_vectors = [page_vector(p, stopwords, by_id) for p in pages]
        label, score = _similarity_label(site_vectors, index, threshold)
        if label != OTHER:
            rows[domain] = _label_row(domain, label, "cosine", score)
            continue  # cosine labels are final
        counts: TermVector = {}
        for vec in site_vectors:
            add_counts(counts, vec)
        label, score = _tfidf_label(counts, fs, threshold)
        rows[domain] = _label_row(domain, label, "none" if label == OTHER else "tfidf", score)

    return [rows[d] for d in sorted(rows)]
