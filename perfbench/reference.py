#!/usr/bin/env python3
"""A fixed pure-Python task that gauges how fast the machine runs the pipeline.

    python3 perfbench/reference.py

run.py times this script as a child process between pipeline runs, so the
task pays the same process start-up as a pipeline run and then does the
pipeline's kind of work in miniature: parse an HTML page with html.parser,
tokenise its text with a regex, count the tokens in a dict, take a cosine
against a second dict and round-trip the counts through JSON. The work never
changes, so any change in its duration is the machine's.
"""

from __future__ import annotations

import json
import math
import random
import re
from html.parser import HTMLParser

ROUNDS = 6
TOKEN = re.compile(r"[a-z0-9]+")


class _TextOf(HTMLParser):
    def __init__(self):
        super().__init__()
        self.parts: list[str] = []

    def handle_data(self, data):
        self.parts.append(data)


def page() -> str:
    rng = random.Random(2)
    words = ["%s%d" % (w, i) for i in range(4000) for w in ("alpha", "kappa", "sigma")]
    return "".join('<div class="c%d" data-k="%d"><p>%s</p><script>var x%d = "%s";</script></div>'
                   % (i, i, " ".join(rng.choices(words, k=30)), i, "ab" * 20)
                   for i in range(120))


def task(html: str) -> float:
    cos = 0.0
    for _ in range(ROUNDS):
        parser = _TextOf()
        parser.feed(html)
        parser.close()
        counts: dict[str, int] = {}
        for token in TOKEN.findall(" ".join(parser.parts).lower()):
            counts[token] = counts.get(token, 0) + 1
        other = {k: v * 7 % 5 + 1 for k, v in counts.items() if len(k) % 3}
        dot = sum(v * other.get(k, 0) for k, v in counts.items())
        cos = dot / math.sqrt(sum(v * v for v in counts.values())
                              * sum(v * v for v in other.values()))
        json.loads(json.dumps(sorted(counts.items())))
    return cos


if __name__ == "__main__":
    task(page())
