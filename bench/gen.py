"""Seeded synthetic inputs shaped like FNC-1.

FNC-1 itself cannot be bundled, so the benchmark writes its own corpus:
stance and body CSVs in the FNC-1 layout plus a word2vec/GloVe-style text
embedding file. The same seed always yields byte-identical files.

Shape of the data:

- a Zipf-distributed vocabulary whose most frequent ranks are English
  stopwords, large enough that the 5,000-term headline, body and shared
  vocabularies fill on the FNC-shaped workloads;
- every body belongs to a topic and mixes topic words into background
  Zipf text; related headlines draw words from their body's topic plus a
  stance cue word, unrelated headlines from another topic, and a quarter
  of the unrelated headlines reuse a headline written for another body, as
  FNC-1 pairs one claim with many bodies;
- the FNC-1 stance mix (73.1% unrelated, 17.8% discuss, 7.4% agree,
  1.7% disagree) as exact quotas, so every class is present in both the
  training and the test files;
- one headline in fifty (and at least one per file) consists of
  unembedded words only, so its similarity features degenerate to 0.0;
- every fourth body carries one of the MICC theme words (hoax, fraud,
  scam), so the theme partition is never empty;
- bodies contain commas, doubled quotes and line breaks, which the CSV
  writer must quote per RFC 4180;
- the embedding file holds many more terms than the corpus uses and
  omits every twentieth content word (unembedded words).
"""

from __future__ import annotations

import csv
import random
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

#: Canonical stance order and the FNC-1 training-set shares.
STANCE_MIX = (("agree", 0.0736), ("disagree", 0.0168), ("discuss", 0.1783),
              ("unrelated", 0.7313))

STOPWORDS = (
    "the to of and a in that is for on it with was as he said by at from his "
    "be have has are an not but this they who were had been their its which "
    "after would will about more one we also there than up out all she her "
    "or when can into new over some other"
).split()

#: Stance cue words in related headlines, a few per class.
CUES = {
    "agree": ("confirms", "confirmed"),
    "disagree": ("hoax", "fake"),
    "discuss": ("reportedly", "allegedly"),
}
THEMES = ("hoax", "fraud", "scam")

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


HEAD_TOKENS = 11  # FNC-1 headlines average about 11 tokens
ZIPF_S = 0.9
TOPIC_SHARE = 0.3  # share of body tokens drawn from the body's topic
EMBED_DIM = 50


@dataclass(frozen=True)
class Shape:
    """Corpus and embedding-file shape of one workload."""

    train_bodies: int
    test_bodies: int
    heads_per_body: int
    body_tokens: int
    vocab_size: int = 25_000
    embed_extra: int = 25_000  # terms in the embedding file beyond the corpus


def _word(rank: int) -> str:
    # distinct pronounceable word per rank: base-70 digits as syllables
    parts = []
    rank += 70  # at least two syllables
    while rank:
        rank, digit = divmod(rank, len(_SYLLABLES))
        parts.append(_SYLLABLES[digit])
    return "".join(reversed(parts))


def vocabulary(size: int) -> list[str]:
    """Zipf-ranked word list: stopwords first, then synthetic words."""
    reserved = set(STOPWORDS) | set(THEMES) | {w for ws in CUES.values() for w in ws}
    words = list(STOPWORDS)
    rank = 0
    while len(words) < size:
        w = _word(rank)
        rank += 1
        if w not in reserved:
            words.append(w)
    return words


def _quota(n: int) -> list[str]:
    """Largest-remainder stance counts for n pairs, every class at least 1."""
    exact = [(name, share * n) for name, share in STANCE_MIX]
    counts = {name: max(1, int(x)) for name, x in exact}
    order = sorted(exact, key=lambda kv: -(kv[1] - int(kv[1])))
    i = 0
    while sum(counts.values()) < n:
        counts[order[i % len(order)][0]] += 1
        i += 1
    while sum(counts.values()) > n:
        counts["unrelated"] -= 1
    # rarest first, so the dealing below puts rare stances on distinct bodies
    out: list[str] = []
    for name in ("disagree", "agree", "discuss", "unrelated"):
        out.extend([name] * counts[name])
    return out


class _Writer:
    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.rng = random.Random(seed)
        self.np_rng = np.random.default_rng(seed)
        self.words = vocabulary(shape.vocab_size)
        ranks = np.arange(1, shape.vocab_size + 1, dtype=np.float64)
        p = ranks ** -ZIPF_S
        self.cum = np.cumsum(p / p.sum())
        head = p[len(STOPWORDS):]
        self.head_cum = np.cumsum(head / head.sum())
        # content words carry topics; every 20th content word has no vector
        content = list(range(len(STOPWORDS), shape.vocab_size))
        self.unembedded = [i for i in content if i % 20 == 7]
        n_topics = max(4, (shape.train_bodies + shape.test_bodies) // 3)
        self.topics = [self.rng.sample(range(200, shape.vocab_size), 12)
                       for _ in range(n_topics)]

    def background(self, k: int) -> list[str]:
        idx = np.searchsorted(self.cum, self.np_rng.random(k))
        return [self.words[int(i)] for i in idx]

    def headline_background(self, k: int) -> list[str]:
        # headlines are terse: content words from the same Zipf law
        idx = np.searchsorted(self.head_cum, self.np_rng.random(k)) + len(STOPWORDS)
        return [self.words[int(i)] for i in idx]

    def topic_words(self, topic: int, k: int) -> list[str]:
        return [self.words[i] for i in self.rng.choices(self.topics[topic], k=k)]

    def body(self, body_no: int, topic: int) -> str:
        n = self.shape.body_tokens
        n_topic = int(n * TOPIC_SHARE)
        tokens = self.background(n - n_topic) + self.topic_words(topic, n_topic)
        self.rng.shuffle(tokens)
        if body_no % 4 == 0:
            theme = THEMES[(body_no // 4) % len(THEMES)]
            for _ in range(3):
                tokens[self.rng.randrange(n)] = theme
        return _punctuate(tokens, self.rng)

    def headline(self, stance: str, topic: int, degenerate: bool) -> str:
        n = HEAD_TOKENS
        if degenerate:
            picks = self.rng.sample(self.unembedded, 4)
            return " ".join(self.words[i] for i in picks).capitalize()
        if stance == "unrelated":
            other = (topic + 1 + self.rng.randrange(len(self.topics) - 1)) % len(self.topics)
            tokens = self.topic_words(other, 3) + self.headline_background(n - 3)
        else:
            tokens = self.topic_words(topic, 3) + self.headline_background(n - 4)
            # a tenth of the cues come from a wrong class: label noise
            cue_class = stance
            if self.rng.random() < 0.1:
                cue_class = self.rng.choice(sorted(CUES))
            tokens.append(self.rng.choice(CUES[cue_class]))
        self.rng.shuffle(tokens)
        text = " ".join(tokens).capitalize()
        if self.rng.random() < 0.1:
            text = f'"{text}", sources say'
        return text

    def corpus(self, first_id: int, n_bodies: int):
        """(bodies, pairs) for one split; pairs are (headline, body id, stance)."""
        shape = self.shape
        topics = {first_id + b: self.rng.randrange(len(self.topics))
                  for b in range(n_bodies)}
        bodies = {bid: self.body(bid, t) for bid, t in topics.items()}
        stances = _quota(n_bodies * shape.heads_per_body)
        deal = list(bodies)
        self.rng.shuffle(deal)
        pairs = []
        written: list[str] = []  # related headlines, for reuse by unrelated pairs
        for i, stance in enumerate(stances):
            bid = deal[i % n_bodies]
            if stance == "unrelated" and written and self.rng.random() < 0.25:
                headline = self.rng.choice(written)
            else:
                headline = self.headline(stance, topics[bid], i % 50 == 0)
                if stance != "unrelated":
                    written.append(headline)
            pairs.append((headline, bid, stance))
        self.rng.shuffle(pairs)
        return bodies, pairs

    def embeddings(self, path: Path, corpus_words: list[str]) -> int:
        """Write the text embedding file; returns the number of lines."""
        shape = self.shape
        unembedded = {self.words[i] for i in self.unembedded}
        terms = [w for w in corpus_words if w not in unembedded]
        wanted = len(terms) + shape.embed_extra
        extra_rank = shape.vocab_size * 3  # past every corpus word's rank
        while len(terms) < wanted:
            terms.append(_word(extra_rank))
            extra_rank += 1
        vectors = self.np_rng.normal(0.0, 1.0, size=(len(terms), EMBED_DIM))
        # topic words share a direction, so similarity features carry signal
        row = {t: i for i, t in enumerate(terms)}
        for topic in self.topics:
            centre = self.np_rng.normal(0.0, 1.0, size=EMBED_DIM)
            for i in topic:
                r = row.get(self.words[i])
                if r is not None:
                    vectors[r] += 1.5 * centre
        fmt = " ".join(["%.5f"] * EMBED_DIM)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{len(terms)} {EMBED_DIM}\n")
            for term, vec in zip(terms, vectors):
                handle.write(term + " " + fmt % tuple(vec) + "\n")
        return len(terms) + 1


def _punctuate(tokens: list[str], rng: random.Random) -> str:
    """Sentences with commas, a quoted phrase with doubled quotes, paragraphs."""
    out = []
    sentence: list[str] = []
    for i, tok in enumerate(tokens):
        sentence.append(tok)
        if len(sentence) > 3 and rng.random() < 0.08:
            sentence[-1] += ","
        if len(sentence) >= 14 or i == len(tokens) - 1:
            if len(sentence) > 2 and rng.random() < 0.15:
                sentence[1] = '"' + sentence[1]
                sentence[-1] += '"'
            out.append(" ".join(sentence).capitalize() + ".")
            out.append("\n\n" if rng.random() < 0.2 else " ")
            sentence = []
    return "".join(out).strip()


def _write_stances(path: Path, pairs) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Headline", "Body ID", "Stance"])
        writer.writerows(pairs)


def _write_bodies(path: Path, bodies) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Body ID", "articleBody"])
        writer.writerows(sorted(bodies.items()))


def generate(out_dir: Path, seed: int, shape: Shape, embeddings: bool) -> dict:
    """Write the four FNC-layout CSVs (and the embedding file) under out_dir.

    Returns the generated sizes: pairs, bodies, headlines per body, distinct
    terms, and embedding lines against corpus terms with a vector.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    w = _Writer(shape, seed)
    train_bodies, train_pairs = w.corpus(1, shape.train_bodies)
    test_bodies, test_pairs = w.corpus(100_001, shape.test_bodies)
    _write_stances(out_dir / "train_stances.csv", train_pairs)
    _write_bodies(out_dir / "train_bodies.csv", train_bodies)
    _write_stances(out_dir / "test_stances.csv", test_pairs)
    _write_bodies(out_dir / "test_bodies.csv", test_bodies)

    token_re = re.compile(r"[^\W_]+")
    terms: set[str] = set()
    for text in list(train_bodies.values()) + list(test_bodies.values()):
        terms.update(token_re.findall(text.lower()))
    headlines = {h for h, _, _ in train_pairs} | {h for h, _, _ in test_pairs}
    for h in headlines:
        terms.update(token_re.findall(h.lower()))
    sizes = {
        "shape": asdict(shape),
        "train_pairs": len(train_pairs),
        "test_pairs": len(test_pairs),
        "train_bodies": len(train_bodies),
        "test_bodies": len(test_bodies),
        "headlines_per_body": len(train_pairs) / len(train_bodies),
        "distinct_headlines": len(headlines),
        "distinct_terms": len(terms),
    }
    if embeddings:
        lines = w.embeddings(out_dir / "vectors.txt", sorted(terms))
        unembedded = {w.words[i] for i in w.unembedded}
        sizes["embedding_lines"] = lines
        sizes["embedded_corpus_terms"] = len(terms - unembedded)
    return sizes
