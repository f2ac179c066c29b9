"""Per-instance reference formulas that the batched code is compared with.

The package featurizes whole corpora at once (one row per distinct
headline and body, then a gather) and fuses whole probability stacks at
once. The functions here compute the same values one instance or one row
at a time, straight from their definitions, so tests can pin the batched
paths to them exactly.
"""

import math

import numpy as np

from stancekit.corpus import STANCES
from stancekit.embeddings import similarity_block
from stancekit.mlp import softmax
from stancekit.pipeline import BASELINE, INDICATOR
from stancekit.text import tokenize


def tf_counts(tokens, vocab):
    """Raw counts of in-vocabulary tokens, keyed by vocabulary position."""
    out = {}
    for tok in tokens:
        if tok in vocab.index:
            i = vocab.index[tok]
            out[i] = out.get(i, 0) + 1
    return out


def tfidf_cosine(head_tokens, body_tokens, vocab, idf):
    """Cosine of the two TF-IDF vectors; 0.0 when either norm is zero.

    Sums run in first-occurrence order and the dot product over the smaller
    side, which is the summation order the feature values are defined by.
    """
    a = {i: c * idf.values[i] for i, c in tf_counts(head_tokens, vocab).items()}
    b = {i: c * idf.values[i] for i, c in tf_counts(body_tokens, vocab).items()}
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(v * b[i] for i, v in a.items() if i in b)
    return dot / (norm_a * norm_b)


def indicator_bits(head_tokens, body_tokens, terms):
    """Two bits per keyword: [present in headline, present in body]."""
    bits = np.zeros(2 * len(terms))
    for i, term in enumerate(terms):
        bits[2 * i] = float(term in head_tokens)
        bits[2 * i + 1] = float(term in body_tokens)
    return bits


def feature_row(fitted, instance, corpus):
    """Dense feature row of one instance under a fitted pipeline."""
    head = tokenize(instance.headline)
    body = tokenize(corpus.body_text(instance.body_id))

    def tf(tokens, vocab):
        vec = np.zeros(len(vocab))
        for i, c in tf_counts(tokens, vocab).items():
            vec[i] = float(np.log1p(c)) if fitted.tf_log1p else float(c)
        return vec

    parts = []
    for block in fitted.spec.blocks:
        if block.kind == BASELINE:
            parts.append(tf(head, fitted.headline_vocab))
            parts.append(tf(body, fitted.body_vocab))
            parts.append([tfidf_cosine(head, body, fitted.shared_vocab, fitted.idf)])
        elif block.kind == INDICATOR:
            terms = fitted.keyword_sets[block.keywords].terms
            parts.append(indicator_bits(set(head), set(body), terms))
        else:
            parts.append([similarity_block(head, body, fitted.embeddings, block.mode)])
    return np.concatenate(parts).astype(np.float64)


def fuse_summation_row(member_probs):
    """Mean of one row's member probability vectors, and its decision."""
    fused = np.stack(member_probs).mean(axis=0)
    return fused, STANCES[int(np.argmax(fused))]


def fuse_concatenation_row(member_probs, combiner):
    """Combiner softmax of one row's flattened member vector, and its decision."""
    flat = np.stack(member_probs).reshape(-1)
    fused = softmax(flat @ combiner.weights.T + combiner.bias)
    return fused, STANCES[int(np.argmax(fused))]
