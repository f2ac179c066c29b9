"""Per-instance reference formulas that the batched code is compared with.

The package featurizes whole corpora at once (one row per distinct
headline and body, then a gather), fuses whole probability stacks at once,
and fits vocabularies, IDF and keywords by column arithmetic on one
interned document-by-term count matrix per corpus side. The functions here
compute the same values one instance, row, document, token or candidate at
a time, straight from their definitions, so tests can pin the batched paths
to them exactly: vocabulary, count_matrix, presence and idf_values read
token lists one token at a time. gradient_check compares backprop, through
the step train takes on its scaled w1, with central finite differences.
pair_train is SGD over one example row per instance, as train ran before
it projected each document once per batch; eager_train is plain SGD with
the l2 gradient added to the cross-entropy gradient, which train applies
as weight decay. ssp_transport solves the integer transport problem by
successive shortest paths, independently of the package's transportation
simplex. wmd is the one door through which tests reach the package's own
WMD kernels.
"""

import math
from collections import Counter

import numpy as np
import scipy.sparse as sp

import stancekit.mlp as mlp
from stancekit.corpus import STANCES, stance_indices
from stancekit.embeddings import (
    CENTROID,
    MASS_SCALE,
    SIMILARITY_MODES,
    WMD_EXACT,
    WMD_TERM_CAP,
    _WMD,
    _apportion,
    _cost_matrix,
    _transport_min_cost,
)
from stancekit.keywords import mutual_information
from stancekit.mlp import softmax
from stancekit.pipeline import BASELINE, INDICATOR
from stancekit.text import Vocabulary, tokenize


def vocabulary(token_lists, capacity, stopwords=frozenset()):
    """The `capacity` most frequent non-stopword tokens, ties lexicographic,
    counted one document at a time."""
    counts = Counter()
    for tokens in token_lists:
        counts.update(tokens)
    ranked = sorted((t for t in counts if t not in stopwords), key=lambda t: (-counts[t], t))
    return Vocabulary(terms=tuple(ranked[:capacity]))


def scipy_csr(mat) -> sp.csr_matrix:
    """The scipy CSR matrix of a text.Csr's arrays, as they are: no entry
    is sorted, summed or dropped, so scipy's methods read what the package
    built."""
    return sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)


def count_matrix(token_lists, vocab):
    """One CSR row of raw in-vocabulary token counts per document, built
    token by token, indices sorted."""
    index = vocab.index
    indptr, indices = [0], []
    for tokens in token_lists:
        indices += [i for i in map(index.get, tokens) if i is not None]
        indptr.append(len(indices))
    mat = sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                        shape=(len(indptr) - 1, len(vocab)))
    mat.sum_duplicates()
    return mat


def presence(token_lists, terms):
    """count_matrix over the distinct terms with every stored value 1.0."""
    mat = count_matrix(token_lists, Vocabulary(tuple(terms)))
    mat.data[:] = 1.0
    return mat


def idf_values(documents, vocab):
    """(IDF values, document count) of vocab's terms over the token lists,
    one document frequency per term from its presence column."""
    df = np.bincount(presence(documents, vocab.terms).indices, minlength=len(vocab))
    return np.maximum(0.0, np.log(len(documents) / (1.0 + df))), len(documents)


def tf_counts(tokens, vocab):
    """Raw counts of in-vocabulary tokens, keyed by vocabulary position."""
    out = {}
    for tok in tokens:
        if tok in vocab.index:
            i = vocab.index[tok]
            out[i] = out.get(i, 0) + 1
    return out


def running_sum(values):
    """Left-to-right float sum; `sum` compensates its rounding from Python
    3.12 on, so it would not give the same bits on every interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total


def tfidf_cosine(head_tokens, body_tokens, vocab, idf):
    """Cosine of the two TF-IDF vectors; 0.0 when either norm is zero.

    Squares and products are added one at a time in ascending vocabulary
    order, which is the summation order the feature values are defined by.
    """
    a = {i: c * idf.values[i] for i, c in sorted(tf_counts(head_tokens, vocab).items())}
    b = {i: c * idf.values[i] for i, c in sorted(tf_counts(body_tokens, vocab).items())}
    norm_a = math.sqrt(running_sum(v * v for v in a.values()))
    norm_b = math.sqrt(running_sum(v * v for v in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    dot = running_sum(v * b[i] for i, v in a.items() if i in b)
    return dot / (norm_a * norm_b)


def indicator_bits(head_tokens, body_tokens, terms):
    """Two bits per keyword: [present in headline, present in body]."""
    bits = np.zeros(2 * len(terms))
    for i, term in enumerate(terms):
        bits[2 * i] = float(term in head_tokens)
        bits[2 * i + 1] = float(term in body_tokens)
    return bits


def nbow(tokens, table, max_terms=None):
    """(terms, weights) of the embedded tokens: normalized counts, most
    frequent first (ties lexicographic), cut to max_terms before
    normalizing. None when no token is embedded."""
    counts = Counter(t for t in tokens if t in table.index)
    if not counts:
        return None
    items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:max_terms]
    raw = np.array([count for _, count in items], dtype=np.float64)
    return tuple(term for term, _ in items), raw / raw.sum()


def centroid_cosine(tokens_a, tokens_b, table):
    """Cosine between per-occurrence mean vectors; 0.0 when degenerate."""
    vecs_a = [table.matrix[table.index[t]] for t in tokens_a if t in table.index]
    vecs_b = [table.matrix[table.index[t]] for t in tokens_b if t in table.index]
    if not vecs_a or not vecs_b:
        return 0.0
    ca = np.mean(vecs_a, axis=0)
    cb = np.mean(vecs_b, axis=0)
    na = float(np.linalg.norm(ca))
    nb = float(np.linalg.norm(cb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(ca, cb) / (na * nb))


def similarity_block(head_tokens, body_tokens, table, mode):
    """Similarity block value of one pair, straight from both token lists:
    the centroid cosine, or 1/(1 + d) for a word mover's distance d over
    the two capped nBOW distributions; 0.0 when a side has no embedded token."""
    assert mode in SIMILARITY_MODES
    if mode == CENTROID:
        return centroid_cosine(head_tokens, body_tokens, table)
    dist_a = nbow(head_tokens, table, WMD_TERM_CAP)
    dist_b = nbow(body_tokens, table, WMD_TERM_CAP)
    if dist_a is None or dist_b is None:
        return 0.0
    va = table.matrix[[table.index[t] for t in dist_a[0]]]
    vb = table.matrix[[table.index[t] for t in dist_b[0]]]
    diff = va[:, None, :] - vb[None, :, :]
    cost = np.sqrt((diff * diff).sum(axis=2))
    supply, demand = _apportion(dist_a[1]), _apportion(dist_b[1])
    if mode == WMD_EXACT:
        mass_flow = _transport_min_cost(supply, demand, cost) / MASS_SCALE
        distance = float((mass_flow * cost).sum())
    else:
        forward = float(supply / MASS_SCALE @ cost.min(axis=1))
        backward = float(demand / MASS_SCALE @ cost.min(axis=0))
        distance = max(forward, backward)
    return 1.0 / (1.0 + distance)


def wmd(a, b, mode=WMD_EXACT):
    """Word mover's distance of two EmbeddedDocs as similarities computes
    it: the mode's kernel, _wmd_exact or _wmd_relaxed, on their _cost_matrix."""
    return _WMD[mode](a, b, _cost_matrix(a, b))


def ssp_transport(supply, demand, cost):
    """Exact min-cost transport plan via successive shortest paths, as the
    package solved it before its transportation simplex.

    Integer supply and demand must balance. Each round labels the residual
    graph from every source with supply left, alternating whole-array
    relaxations of sinks (forward edges, cost c) and sources (backward
    edges along cells carrying flow, cost -c) until no label improves.
    The cheapest sink with demand left then receives the bottleneck flow
    along its path.
    """
    m, n = cost.shape
    if int(supply.sum()) != int(demand.sum()):
        raise ValueError("supply and demand must balance")
    flow = np.zeros((m, n), dtype=np.int64)
    left = supply.astype(np.int64).copy()
    need = demand.astype(np.int64).copy()
    rows, cols = np.arange(m), np.arange(n)
    # labels improve only by more than this: rounding in a path sum stays
    # far below it at any cost scale, so a zero-cost tie cannot close a
    # parent cycle that would keep the path walk below from ending
    tie = 1e-12 * float(cost.max())
    rounds = 0
    max_rounds = 64 * (m + n) + 256
    while left.any():
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("transport solver exceeded its iteration budget")
        src = np.where(left > 0, 0.0, np.inf)
        src_parent = np.full(m, -1)
        sink = np.full(n, np.inf)
        sink_parent = np.full(n, -1)
        backward = np.where(flow > 0, -cost, np.inf)
        while True:
            via = src[:, None] + cost
            best = via.argmin(axis=0)
            length = via[best, cols]
            better = length < sink - tie
            sink[better] = length[better]
            sink_parent[better] = best[better]
            via = sink + backward
            best = via.argmin(axis=1)
            length = via[rows, best]
            better = length < src - tie
            if not better.any():
                break
            src[better] = length[better]
            src_parent[better] = best[better]

        target = int(np.argmin(np.where(need > 0, sink, np.inf)))
        push = need[target]
        forward_i, forward_j, backward_i, backward_j = [], [], [], []
        j = target
        while True:
            i = sink_parent[j]
            forward_i.append(i)
            forward_j.append(j)
            j = src_parent[i]
            if j < 0:
                break
            backward_i.append(i)
            backward_j.append(j)
            push = min(push, flow[i, j])
        push = min(push, left[i])
        flow[forward_i, forward_j] += push
        flow[backward_i, backward_j] -= push
        left[i] -= push
        need[target] -= push
    return flow


def feature_row(fitted, instance, corpus):
    """Dense feature row of one instance under a fitted pipeline."""
    head = tokenize(instance.headline)
    body = tokenize(corpus.bodies[instance.body_id])

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


def presence_counts(documents, positive_ids, candidates):
    """Per-candidate document frequencies split by class membership, one
    set intersection per document."""
    cand = set(candidates)
    pos_df, neg_df = Counter(), Counter()
    n_pos = n_neg = 0
    positive = set(positive_ids)
    for doc_id, tokens in documents.items():
        hit = cand.intersection(tokens)
        if doc_id in positive:
            n_pos += 1
            pos_df.update(hit)
        else:
            n_neg += 1
            neg_df.update(hit)
    return pos_df, neg_df, n_pos, n_neg


def select_mi(documents, positive_ids, candidates, k):
    """Top-k candidate terms by MI, one 2x2 table per candidate, ties
    lexicographic."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    pos_df, neg_df, n_pos, n_neg = presence_counts(documents, positive_ids, candidates)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both document classes must be non-empty")
    scores = {}
    for term in candidates:
        n11, n10 = pos_df[term], neg_df[term]
        scores[term] = mutual_information(n11, n10, n_pos - n11, n_neg - n10)
    return tuple(sorted(scores, key=lambda t: (-scores[t], t))[:k])


def partition_by_theme(documents, theme_terms):
    """{theme: ids} of the documents whose first contained theme word it is."""
    classes = {t: set() for t in theme_terms}
    for doc_id, tokens in documents.items():
        token_set = set(tokens)
        for theme in theme_terms:
            if theme in token_set:
                classes[theme].add(doc_id)
                break
    return classes


def select_micc(documents, theme_terms, candidates, k):
    """{theme: top-k terms} against "in this theme class vs not", the
    theme word excluded; empty for an empty or all-document class."""
    classes = partition_by_theme(documents, theme_terms)
    if all(not ids for ids in classes.values()):
        raise ValueError("no document matched any theme")
    groups = {}
    for theme, members in classes.items():
        groups[theme] = ()
        if members and len(members) != len(documents):
            cand = [t for t in candidates if t != theme]
            groups[theme] = select_mi(documents, members, cand, k)
    return groups


def _with_l2(steps, model, l2_lambda):
    """Cross-entropy gradients plus the l2 gradient 2 * lambda * w."""
    return {name: g + 2.0 * l2_lambda * getattr(model, name) if name in ("w1", "w2") else g
            for name, g in steps.items()}


def one_batch(x):
    """x, dense rows or a FeatureMatrix, as the one mini-batch of all its
    rows that train would make of it: a FeatureMatrix of those rows whose
    docs hold only the documents they use (x itself when it has no rows)."""
    if not isinstance(x, mlp.FeatureMatrix):
        x = mlp.FeatureMatrix.of(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    return next(mlp._batches(x, np.arange(n), max(n, 1)), (None, x))[1]


def gradient_check(model, x, labels, config, sample_size=60, seed=0, step=1e-5, scale=1.0):
    """Max relative error between backprop and central finite differences
    on the batch x with its labels: dense rows, or a FeatureMatrix taken as
    one mini-batch of all its rows, under the weights scale * model.w1.

    Both sides come from mlp._batch_gradients, the code train runs, given
    a fresh mlp._ScaledW1 of model.w1 at scale for each evaluation: the
    objective it returns, and its cross-entropy gradients plus the l2
    gradient. Its w1 step is read as _ScaledW1.take, which train runs,
    subtracts it from zeros held at scale (0 - step is exact), so the step
    is g_pre's divided by scale and d objective / d model.w1 = scale**2 *
    (step + 2 * l2_lambda * model.w1). Dropout must be disabled (keep = 1); the sampled
    parameter set always covers at least min(sample_size, #params) distinct
    coordinates.
    """
    if config.dropout_keep != 1.0:
        raise ValueError("gradient_check requires dropout_keep == 1")
    x = one_batch(x)
    y = stance_indices(labels)

    def batch_gradients():
        w1 = mlp._ScaledW1(model.w1, 1.0)
        w1.scale = scale
        return mlp._batch_gradients(model, w1, x, y, config.l2_lambda)

    steps = batch_gradients()[1]
    taken = mlp._ScaledW1(np.zeros_like(model.w1), 1.0)
    taken.scale = scale
    taken.take(x, steps["w1"])
    steps["w1"] = -taken.w
    grads = _with_l2(steps, model, config.l2_lambda)
    grads["w1"] *= scale * scale
    params = [(model.w1, grads["w1"]), (model.b1, grads["b1"]),
              (model.w2, grads["w2"]), (model.b2, grads["b2"])]
    sizes = [p.size for p, _ in params]
    total = sum(sizes)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(total, size=min(sample_size, total), replace=False)

    worst = 0.0
    for flat in sorted(int(c) for c in chosen):
        for (param, grad), size in zip(params, sizes):
            if flat < size:
                break
            flat -= size
        view = param.reshape(-1)
        original = view[flat]
        view[flat] = original + step
        up = batch_gradients()[0]
        view[flat] = original - step
        down = batch_gradients()[0]
        view[flat] = original
        numeric = (up - down) / (2.0 * step)
        analytic = grad.reshape(-1)[flat]
        denom = max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def _pair_forward(model, x, mask=None, keep=1.0):
    """(hidden_pre, hidden, probs, logits, lse) of the example rows x, from
    x @ w1 itself."""
    hidden_pre = np.asarray(x @ model.w1) + model.b1
    hidden = np.maximum(0.0, hidden_pre)
    if mask is not None:
        hidden = hidden * mask / keep
    logits = hidden @ model.w2.T + model.b2
    lse = np.log(np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1))
    return hidden_pre, hidden, softmax(logits), logits, lse + logits.max(axis=1)


#: how far train's weights may lie from pair_train's: about ten ulps of a
#: weight of 0.5; the differences seen are one or two
PAIR_ATOL = 1e-15


def pair_train(features, labels, config, hidden_dim=100):
    """(model, epoch losses) of train over features.matrix, one example row
    per instance: each mini-batch gathers its rows, multiplies them by w1 and
    takes w1's step as their transpose times g_pre, so a body is multiplied
    once per instance that uses it, and decays w1 in place. Same random
    numbers and the same update as train, which decays a scale of w1 and
    carries its squared norm; only the order and rounding of operations
    differ."""
    x = features.matrix
    y = stance_indices(labels)
    n = x.shape[0]
    rng = np.random.default_rng(config.seed)
    model = mlp.init_model(x.shape[1], hidden_dim, tuple(features.layout), seed=config.seed)
    keep, rate = config.dropout_keep, config.learning_rate
    decay = 1.0 - 2.0 * rate * config.l2_lambda
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            mask = None
            if keep < 1.0:
                mask = (rng.random((len(idx), hidden_dim)) < keep).astype(np.float64)
            xb, yb = x[idx], y[idx]
            hidden_pre, hidden, probs, logits, lse = _pair_forward(model, xb, mask, keep)
            m = len(yb)
            ce = float(np.mean(lse - logits[np.arange(m), yb]))
            g_logits = probs
            g_logits[np.arange(m), yb] -= 1.0
            g_logits *= rate / m
            g_hidden = g_logits @ model.w2
            if mask is not None:
                g_hidden = g_hidden * mask / keep
            g_pre = g_hidden * (hidden_pre > 0.0)
            l2 = config.l2_lambda * (float(np.sum(model.w1**2)) + float(np.sum(model.w2**2)))
            model.w1 *= decay
            model.w2 *= decay
            model.w1 -= np.asarray(xb.T @ g_pre)
            model.b1 -= g_pre.sum(axis=0)
            model.w2 -= g_logits.T @ hidden
            model.b2 -= g_logits.sum(axis=0)
            epoch_loss += (ce + l2) * m
        losses.append(epoch_loss / n)
    return model, losses


def eager_train(features, labels, config, hidden_dim=100):
    """(model, epoch losses) of mini-batch SGD that steps each weight by
    rate * (cross-entropy gradient + 2 * lambda * w) and sums the l2 term
    hidden-major: the same update as train in exact arithmetic, drawing the
    same random numbers in the same order."""
    x, layout = features.matrix, tuple(features.layout)
    y = stance_indices(labels)
    n = x.shape[0]
    rng = np.random.default_rng(config.seed)
    model = mlp.init_model(x.shape[1], hidden_dim, layout, seed=config.seed)
    keep, lam = config.dropout_keep, config.l2_lambda
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            mask = None
            if keep < 1.0:
                mask = (rng.random((len(idx), hidden_dim)) < keep).astype(np.float64)
            xb, yb = x[idx], y[idx]
            hidden_pre, hidden, probs, logits, lse = _pair_forward(model, xb, mask, keep)
            m = len(yb)
            ce = float(np.mean(lse - logits[np.arange(m), yb]))
            g_logits = probs.copy()
            g_logits[np.arange(m), yb] -= 1.0
            g_logits /= m
            g_hidden = g_logits @ model.w2
            if mask is not None:
                g_hidden = g_hidden * mask / keep
            g_pre = g_hidden * (hidden_pre > 0.0)
            grads = _with_l2({
                "w1": np.asarray(xb.T @ g_pre), "b1": g_pre.sum(axis=0),
                "w2": g_logits.T @ hidden, "b2": g_logits.sum(axis=0),
            }, model, lam)
            w1_sq = np.square(model.w1.T, order="C")  # hidden-major
            l2 = lam * (float(np.sum(w1_sq)) + float(np.sum(model.w2**2)))
            for name, grad in grads.items():
                setattr(model, name, getattr(model, name) - config.learning_rate * grad)
            epoch_loss += (ce + l2) * m
        losses.append(epoch_loss / n)
    return model, losses
