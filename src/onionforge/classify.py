"""Three-phase illicit-site classification.

Phase 1 takes labels straight from the annotated ground truth. Phase 2
labels sites whose pages are cosine-similar (>= threshold) to a ground
truth page, found through an inverted index of the ground-truth pages.
Phase 3 projects TF-IDF vectors onto a per-category keyword feature set
and applies the same cosine rule to whatever is still unlabeled. Later
phases never relabel earlier ones.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass, field

from .artifacts import word_list
from .corpus import Corpus, OnionDomain, PageRecord
from .pagetext import page_text

TOKEN_RE = re.compile(r"[a-z0-9]+")
MIN_TOKEN_LEN = 3
TOP_KEYWORDS = 20
DEFAULT_THRESHOLD = 0.5


class ClassifyConfigError(Exception):
    pass


class Category(enum.Enum):
    """The twelve illicit categories, in ground-truth table order, plus Other."""

    INVESTMENT_SCAMS = 1
    PRIVATE_KEY = 2
    CLONE_CARD = 3
    COUNTERFEIT_BILLS = 4
    CITIZENSHIP = 5
    DRUGS = 6
    HACKER = 7
    HITMEN = 8
    SEXUAL_ABUSE = 9
    MEMBERSHIPS = 10
    WEAPONS = 11
    SHOP = 12
    OTHER = 99

    @property
    def label(self) -> str:
        return _LABELS[self]

    @classmethod
    def parse(cls, text: str) -> "Category":
        key = re.sub(r"[\s_-]+", "", text).lower()
        try:
            return _ALIASES[key]
        except KeyError:
            raise ClassifyConfigError("unknown category %r" % text) from None


_LABELS = {
    Category.INVESTMENT_SCAMS: "InvestmentScams",
    Category.PRIVATE_KEY: "PrivateKey",
    Category.CLONE_CARD: "CloneCard",
    Category.COUNTERFEIT_BILLS: "CounterfeitBills",
    Category.CITIZENSHIP: "Citizenship",
    Category.DRUGS: "Drugs",
    Category.HACKER: "Hacker",
    Category.HITMEN: "Hitmen",
    Category.SEXUAL_ABUSE: "SexualAbuse",
    Category.MEMBERSHIPS: "Memberships",
    Category.WEAPONS: "Weapons",
    Category.SHOP: "Shop",
    Category.OTHER: "Other",
}

_ALIASES = {re.sub(r"[\s_-]+", "", v).lower(): k for k, v in _LABELS.items()}
_ALIASES.update({
    "investmentscam": Category.INVESTMENT_SCAMS,
    "privatekeys": Category.PRIVATE_KEY,
    "clonedcard": Category.CLONE_CARD,
    "clonedcards": Category.CLONE_CARD,
    "hacking": Category.HACKER,
    "sexualabuses": Category.SEXUAL_ABUSE,
    "shops": Category.SHOP,
})

CATEGORIES = tuple(c for c in Category if c is not Category.OTHER)

TermVector = dict               # word -> count or weight, no zero entries


def load_stopwords(path=None) -> set[str]:
    return word_list(path, "stopwords.txt")


def tokenize(text: str, stopwords: set[str]) -> list[str]:
    """Lowercase word tokens, minus punctuation, numerics, stopwords, short words."""
    out = []
    for token in TOKEN_RE.findall(text.lower()):
        if not token.isalpha():
            continue
        if len(token) < MIN_TOKEN_LEN or token in stopwords:
            continue
        out.append(token)
    return out


def term_vector(tokens: list[str]) -> TermVector:
    vec: TermVector = {}
    for t in tokens:
        vec[t] = vec.get(t, 0) + 1
    return vec


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


@dataclass
class GroundTruth:
    """(page, category) annotations with per-site aggregation."""

    rows: list[tuple[PageRecord, Category]] = field(default_factory=list)

    def pages_by_category(self) -> dict[Category, list[PageRecord]]:
        out: dict[Category, list[PageRecord]] = {}
        for page, cat in self.rows:
            out.setdefault(cat, []).append(page)
        return out

    def site_page_labels(self) -> dict[OnionDomain, list[Category]]:
        out: dict[OnionDomain, list[Category]] = {}
        for page, cat in self.rows:
            out.setdefault(page.domain, []).append(cat)
        return out


def load_ground_truth(path, corpus: Corpus) -> GroundTruth:
    """Read {domain, path, category} JSONL, resolving every row against the corpus."""
    by_key = {(p.domain.name, p.path): p for p in corpus.pages}
    gt = GroundTruth()
    missing = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            row = json.loads(line)
            cat = Category.parse(row["category"])
            page = by_key.get((row["domain"], row["path"]))
            if page is None:
                missing.append("%s %s (line %d)" % (row["domain"], row["path"], lineno))
                continue
            gt.rows.append((page, cat))
    if missing:
        raise ClassifyConfigError("ground truth references pages missing from corpus: "
                                  + "; ".join(missing))
    return gt


def aggregate_site_label(page_labels: list[Category]) -> Category:
    """Zero distinct non-Other labels -> Other; one -> itself; several -> Shop."""
    distinct = {c for c in page_labels if c is not Category.OTHER}
    if not distinct:
        return Category.OTHER
    if len(distinct) == 1:
        return distinct.pop()
    return Category.SHOP


def _best_category(scores: dict[Category, float], threshold: float) -> tuple[Category, float]:
    """Highest score wins if it clears the threshold; ties fall to table order."""
    best, best_score = Category.OTHER, 0.0
    for cat in CATEGORIES:
        score = scores.get(cat, 0.0)
        if score > best_score:
            best, best_score = cat, score
    if best_score >= threshold and best is not Category.OTHER:
        return best, best_score
    return Category.OTHER, best_score


@dataclass
class PageIndex:
    """Inverted index of the ground-truth page vectors that phase 2 scores against.

    `postings` maps each term to the numbers of the pages that hold it; the
    count is read from the page's vector, which keeps the postings small.
    """

    postings: dict[str, list[int]] = field(default_factory=dict)
    vectors: list[TermVector] = field(default_factory=list)
    norms: list[float] = field(default_factory=list)
    categories: list[Category] = field(default_factory=list)

    def add(self, vector: TermVector, category: Category):
        page = len(self.vectors)
        for term in vector:
            self.postings.setdefault(term, []).append(page)
        self.vectors.append(vector)
        self.norms.append(math.sqrt(sum(w * w for w in vector.values())))
        self.categories.append(category)


def _similarity_label(site_vectors, index: PageIndex, threshold):
    """Phase-2 rule: max page-pair cosine against each category's ground truth.

    Only pages that share a term with a site page have a non-zero cosine, so
    only those are scored. The integer dot product is exact in any order and
    `dot / (n1 * n2)` is the expression `cosine` evaluates, so every score is
    bit-for-bit the one `cosine` returns.
    """
    postings, vectors = index.postings, index.vectors
    norms, categories = index.norms, index.categories
    scores: dict[Category, float] = {}
    for sv in site_vectors:
        dots: dict[int, int] = {}
        for term, w in sv.items():
            for page in postings.get(term, ()):
                dots[page] = dots.get(page, 0) + w * vectors[page][term]
        if not dots:
            continue
        n1 = math.sqrt(sum(w * w for w in sv.values()))
        for page, dot in dots.items():
            sim = dot / (n1 * norms[page])
            if sim > scores.get(categories[page], 0.0):
                scores[categories[page]] = sim
    return _best_category(scores, threshold)


@dataclass
class FeatureSet:
    """Merged top-TF-IDF keywords with the vectors needed for projection."""

    keywords: list[str]
    category_vectors: dict[Category, TermVector]   # full TF-IDF vectors
    idf: dict[str, float]
    top_keywords: dict[Category, list[str]]
    keyword_set: frozenset[str] = field(init=False)
    projected: dict[Category, TermVector] = field(init=False)  # vectors on keywords

    def __post_init__(self):
        self.keyword_set = frozenset(self.keywords)
        self.projected = {cat: {t: w for t, w in vec.items() if t in self.keyword_set}
                          for cat, vec in self.category_vectors.items()}


def build_feature_set(gt: GroundTruth, stopwords: set[str], *,
                      page_tokens=None) -> FeatureSet:
    """Per-category TF-IDF over the 12 concatenated category documents.

    `page_tokens(page)` gives a page's tokens; by default the page is parsed.
    """
    if page_tokens is None:
        page_tokens = lambda page: tokenize(page_text(page.html), stopwords)
    docs: dict[Category, list[str]] = {cat: [] for cat in CATEGORIES}
    for page, cat in gt.rows:
        if cat is Category.OTHER:
            continue
        docs[cat].extend(page_tokens(page))
    empty = [cat.label for cat in CATEGORIES if not docs[cat]]
    if empty:
        raise ClassifyConfigError("ground truth lacks content for: " + ", ".join(empty))

    counts = [term_vector(docs[cat]) for cat in CATEGORIES]
    weighted, idf = tfidf_vectors(counts)
    cat_vectors = dict(zip(CATEGORIES, weighted))

    top: dict[Category, list[str]] = {}
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
        return Category.OTHER, 0.0
    scores = {cat: cosine(site_vec, fs.projected[cat]) for cat in CATEGORIES}
    return _best_category(scores, threshold)


@dataclass
class LabelResult:
    domain: OnionDomain
    category: Category
    phase: str          # ground-truth | cosine | tfidf | none
    score: float | None = None


def classify_corpus(corpus: Corpus, gt: GroundTruth, threshold: float,
                    stopwords: set[str]) -> dict[OnionDomain, LabelResult]:
    """Run all three phases over a corpus. Deterministic for fixed inputs."""
    results: dict[OnionDomain, LabelResult] = {}

    site_labels = gt.site_page_labels()
    for domain in sorted(site_labels):
        label = aggregate_site_label(site_labels[domain])
        results[domain] = LabelResult(domain, label, "ground-truth")

    token_cache: dict[int, list[str]] = {}

    def page_tokens(p):
        key = id(p)
        if key not in token_cache:
            token_cache[key] = tokenize(page_text(p.html), stopwords)
        return token_cache[key]

    index = PageIndex()
    for cat, pages in gt.pages_by_category().items():
        if cat is not Category.OTHER:
            for p in pages:
                index.add(term_vector(page_tokens(p)), cat)

    unlabeled = [d for d in corpus.domains() if d not in results]
    for domain in unlabeled:
        site_vectors = [term_vector(page_tokens(p)) for p in corpus.pages_for(domain)]
        label, score = _similarity_label(site_vectors, index, threshold)
        if label is not Category.OTHER:
            results[domain] = LabelResult(domain, label, "cosine", score)

    fs = build_feature_set(gt, stopwords, page_tokens=page_tokens)
    for domain in unlabeled:
        if domain in results:
            continue  # cosine labels are final
        counts = term_vector([t for p in corpus.pages_for(domain) for t in page_tokens(p)])
        label, score = _tfidf_label(counts, fs, threshold)
        if label is not Category.OTHER:
            results[domain] = LabelResult(domain, label, "tfidf", score)
        else:
            results[domain] = LabelResult(domain, Category.OTHER, "none", score)

    return results


def _label_row(r: LabelResult) -> dict:
    row = {"v": 1, "domain": r.domain.name, "category": r.category.label, "phase": r.phase}
    if r.score is not None:
        row["score"] = round(r.score, 12)
    return row


def label_rows(results: dict[OnionDomain, LabelResult]) -> list[dict]:
    """The labels.jsonl rows of `results`, by domain."""
    return [_label_row(results[d]) for d in sorted(results)]


def label_categories(rows) -> dict[str, Category]:
    """Domain to category, from labels.jsonl rows."""
    return {row["domain"]: Category.parse(row["category"]) for row in rows}
