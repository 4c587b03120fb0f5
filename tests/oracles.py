"""Independent brute-force reference implementations.

Everything here recomputes quantities from first principles with plain
dict/loop code and no shared tables with the package internals: joint
laws by explicit tuple enumeration, the stationary law by a dense linear
solve, conditional informations from their definitional sums, greedy
parsing by string slicing against a set.  Tests compare package outputs
against these.  The sequential sampling and parsing loops, the capped
power iteration for the stationary law, the exact predictor's dense
table over every length-w context, the transferred predictor's
next-token distribution, the grouping of rows on their raw bytes and the
sorted n-gram count are the package's own earlier code, kept here as the
references for its faster replacements; so are the reshape step of the
context chain and its direct solve, which the package now runs on one
sparse chain matrix, and the token losses and log-loss total read from
an (n, A) table of probability rows, which the package now reads from
the flat table one entry per position.  The lockstep run that read each
block of inputs whole, the sampler's uniforms read in stream order and
the span statistics read off sorted span arrays are kept for the tiled
reads, positioned draws and span histograms that replaced them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
# At module level on purpose: perfbench/worker.py loads this module after its
# timed section and then reads scipy's version from sys.modules, and a run
# that solves no stationary law (`span-cdf --text`) has not loaded scipy.
from scipy.sparse import coo_matrix, identity
from scipy.sparse.linalg import spsolve

import recoding.lockstep as lockstep
from recoding.ngram import ContextPredictor
from recoding.rng import SEQUENCE_STREAM, generator
from recoding.sources import stationary_law, window_law
from recoding.tokenizer import expand


def oracle_stationary(kernel) -> dict[tuple, float]:
    """Stationary law of the context chain via a dense least-squares solve."""
    a = kernel.alphabet_size
    k = kernel.order
    contexts = list(itertools.product(range(a), repeat=k))
    index = {c: i for i, c in enumerate(contexts)}
    n = len(contexts)
    mat = np.zeros((n + 1, n))
    for c in contexts:
        for y in range(a):
            nxt = tuple(list(c[1:]) + [y]) if k > 0 else ()
            p = kernel.probs[index[c], y] if k > 0 else kernel.probs[0, y]
            mat[index[nxt], index[c]] += p
    mat[:n, :] -= np.eye(n)
    mat[n, :] = 1.0
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    pi, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    return {c: float(pi[index[c]]) for c in contexts}


def oracle_window_law(kernel, length: int) -> dict[tuple, float]:
    """Joint law of `length` consecutive symbols as a tuple-keyed dict."""
    a = kernel.alphabet_size
    k = kernel.order
    pi = oracle_stationary(kernel)
    if length == 0:
        return {(): 1.0}
    ctx_index = {c: i for i, c in enumerate(itertools.product(range(a), repeat=k))}
    out: dict[tuple, float] = {}
    for word in itertools.product(range(a), repeat=max(length, k)):
        p = pi[word[:k]]
        for t in range(k, len(word)):
            p *= kernel.probs[ctx_index[word[t - k : t]], word[t]]
        key = word[-length:]
        out[key] = out.get(key, 0.0) + p
    return out


def _cond_entropy(joint: dict[tuple, float], ctx_len: int) -> float:
    """H(last symbol | first ctx_len symbols) from a tuple-joint."""
    marg: dict[tuple, float] = {}
    for word, p in joint.items():
        marg[word[:ctx_len]] = marg.get(word[:ctx_len], 0.0) + p
    total = 0.0
    for word, p in joint.items():
        if p > 0:
            total += p * math.log2(marg[word[:ctx_len]] / p)
    return total


def oracle_conditional_entropy(kernel, w: int) -> float:
    return _cond_entropy(oracle_window_law(kernel, w + 1), w)


def oracle_entropy_rate(kernel) -> float:
    """Direct summation of stationary-weighted row entropies."""
    pi = oracle_stationary(kernel)
    a = kernel.alphabet_size
    ctx_index = {c: i for i, c in enumerate(itertools.product(range(a), repeat=kernel.order))}
    total = 0.0
    for c, w_c in pi.items():
        row = kernel.probs[ctx_index[c]]
        h = sum(-p * math.log2(p) for p in row if p > 0)
        total += w_c * h
    return total


def oracle_fragmentation(kernel, fmap, w: int) -> dict[str, float]:
    """Fragmented loss, phase ambiguity, and context deficit by explicit
    enumeration; the deficit uses the conditional mutual information sum
    directly."""
    m = fmap.block_length
    joint = oracle_window_law(kernel, w + 1)
    code = {i: tuple(int(v) for v in fmap.codebook[i]) for i in range(fmap.source_alphabet.size)}

    def frag_string(word):
        out = []
        for sym in word:
            out.extend(code[sym])
        return tuple(out)

    mw = m * w
    # pooled and per-phase joint of (length-mw context, target)
    pooled: dict[tuple, float] = {}
    per_phase: list[dict[tuple, float]] = [dict() for _ in range(m)]
    # per-phase joint of (full window-start context, target)
    full_phase: list[dict[tuple, float]] = [dict() for _ in range(m)]
    for word, p in joint.items():
        if p == 0:
            continue
        f = frag_string(word)
        for theta in range(1, m + 1):
            tpos = mw + theta - 1
            target = f[tpos]
            own = f[theta - 1 : tpos]
            fullc = f[:tpos]
            pooled[own + (target,)] = pooled.get(own + (target,), 0.0) + p / m
            d = per_phase[theta - 1]
            d[own + (target,)] = d.get(own + (target,), 0.0) + p
            d2 = full_phase[theta - 1]
            d2[fullc + (target,)] = d2.get(fullc + (target,), 0.0) + p

    h_pooled = _cond_entropy(pooled, mw)
    frag_loss = m * h_pooled
    h_phases = [_cond_entropy(per_phase[t], mw) for t in range(m)]
    ambiguity = frag_loss - sum(h_phases)

    # deficit: sum over theta >= 2 of I(target ; missing prefix | own context)
    deficit = 0.0
    for theta in range(2, m + 1):
        tpos = mw + theta - 1
        own_len = mw
        miss_len = theta - 1
        tri = full_phase[theta - 1]  # keys: missing + own + target
        p_co: dict[tuple, float] = {}  # (own, target)
        p_cz: dict[tuple, float] = {}  # (own, missing)
        p_c: dict[tuple, float] = {}  # own
        for key, p in tri.items():
            miss, own, target = key[:miss_len], key[miss_len : miss_len + own_len], key[-1]
            p_co[own + (target,)] = p_co.get(own + (target,), 0.0) + p
            p_cz[own + miss] = p_cz.get(own + miss, 0.0) + p
            p_c[own] = p_c.get(own, 0.0) + p
        info = 0.0
        for key, p in tri.items():
            if p <= 0:
                continue
            miss, own, target = key[:miss_len], key[miss_len : miss_len + own_len], key[-1]
            info += p * math.log2(
                (p * p_c[own]) / (p_co[own + (target,)] * p_cz[own + miss])
            )
        deficit += info
    return {
        "fragmented_loss": frag_loss,
        "phase_ambiguity": ambiguity,
        "context_deficit": deficit,
        "source_loss": oracle_conditional_entropy(kernel, w),
    }


def oracle_p_max(kernel, symbols) -> float:
    """Max over every initial context of the explicit transition product."""
    a = kernel.alphabet_size
    k = kernel.order
    ctx_index = {c: i for i, c in enumerate(itertools.product(range(a), repeat=k))}
    best = 0.0
    for c in itertools.product(range(a), repeat=k):
        state = list(c)
        p = 1.0
        for sym in symbols:
            p *= kernel.probs[ctx_index[tuple(state)], sym]
            state = (state + [sym])[-k:] if k > 0 else []
        best = max(best, p)
    return best


def oracle_dense_predictor(kernel, w: int) -> ContextPredictor:
    """The exact predictor as one dense row per length-w context, from the
    (w+1)-symbol joint: zero-probability contexts get the uniform row."""
    joint = window_law(kernel, w + 1)
    a = kernel.alphabet_size
    table = joint.reshape(a**w, a)
    totals = table.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    dense = np.where(totals > 0, table / safe, 1.0 / a)
    return ContextPredictor(kernel.alphabet, w, dense)


def oracle_fit(seq, w: int, alpha: float, alphabet_size: int) -> dict[int, np.ndarray]:
    """The n-gram fit as a dict from each context code the sequence holds
    to its row (count(c,y) + alpha) / (count(c) + alpha*A), plain
    frequencies when alpha is 0; absent contexts are uniform."""
    a = alphabet_size
    seq = [int(v) for v in seq]
    counts: dict[int, np.ndarray] = {}
    for t in range(w, len(seq)):
        code = 0
        for sym in seq[t - w : t]:
            code = code * a + sym
        counts.setdefault(code, np.zeros(a, dtype=np.int64))[seq[t]] += 1
    rows = {}
    for code, cnt in counts.items():
        tot = cnt.sum()
        rows[code] = (cnt + alpha) / (tot + alpha * a) if alpha > 0 else cnt / tot
    return rows


def oracle_count_table(seq, w: int, alphabet_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct codes context * A + symbol of every position
    after the first w of an index sequence, and their counts, from a sort
    (`np.unique`)."""
    a = alphabet_size
    seq = np.asarray(seq, dtype=np.int64)
    m = max(len(seq) - w, 0)
    codes = np.zeros(m, dtype=np.int64)
    for j in range(w + 1):
        codes = codes * a + seq[j : j + m]
    return np.unique(codes, return_counts=True)


def oracle_row_ids(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ids of the rows of a 2-D integer array, and how many differ,
    from a sort of each row's raw bytes (a void view)."""
    if rows.shape[1] == 0:
        return np.zeros(rows.shape[0], dtype=np.intp), 1
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    uniq, ids = np.unique(keys, return_inverse=True)
    return ids.ravel(), uniq.size


def oracle_log_loss(rows: dict[int, np.ndarray], seq, w: int, alphabet_size: int) -> float:
    """Mean -log2 q(y_t | context) over t >= w for a dict table as
    `oracle_fit` returns it."""
    a = alphabet_size
    seq = [int(v) for v in seq]
    total = 0.0
    for t in range(w, len(seq)):
        code = 0
        for sym in seq[t - w : t]:
            code = code * a + sym
        p = rows[code][seq[t]] if code in rows else 1.0 / a
        total += -math.log2(p) if p > 0 else math.inf
    return total / (len(seq) - w)


def oracle_greedy_parse(entry_set: set[tuple], seq) -> list[tuple]:
    """Longest-match parsing by slicing against a plain set of strings."""
    seq = [int(v) for v in seq]
    max_len = max(len(e) for e in entry_set)
    out = []
    pos = 0
    while pos < len(seq):
        for length in range(min(max_len, len(seq) - pos), 0, -1):
            cand = tuple(seq[pos : pos + length])
            if cand in entry_set:
                out.append(cand)
                pos += length
                break
        else:
            raise AssertionError("single symbols must always match")
    return out


def oracle_token_losses(q_row, entry_set: set[tuple], alphabet_size: int,
                        tokens: list[tuple], w: int, ws: int) -> list[float]:
    """Per-token transferred losses computed from the defining formula.

    q_row(context tuple) -> list of next-symbol probabilities.  Evaluates
    tokens w .. len(tokens)-2, assuming every window spans >= ws.
    """
    ext = {}
    for e in entry_set:
        ext[e] = {a for a in range(alphabet_size) if e + (a,) in entry_set}
    losses = []
    for i in range(w, len(tokens) - 1):
        history = tuple(s for t in tokens[i - w : i] for s in t)
        assert len(history) >= ws
        prev = tokens[i - 1]
        target = tokens[i]
        assert target[0] not in ext[prev]
        denom = 1.0 - sum(q_row(history[-ws:] if ws else ())[a] for a in ext[prev])
        p = 1.0
        run = history
        for sym in target:
            ctx = run[-ws:] if ws else ()
            p *= q_row(ctx)[sym]
            run = run + (sym,)
        stop = 1.0 - sum(q_row(run[-ws:] if ws else ())[a] for a in ext[target])
        losses.append(-math.log2(p * stop / denom))
    return losses


def oracle_next_token_distribution(tp, context_ids) -> np.ndarray:
    """The transferred predictor's distribution over next tokens given a
    w-token context, from its definition: the q-probability that the
    source continues with each token's string and then stops, over the
    probability that the previous token stopped.  Uniform when the context
    spans fewer than q.w symbols.  Positive only on tokens whose first
    symbol does not extend the previous token; those sum to one."""
    ids = np.asarray(context_ids, dtype=np.int64)
    assert len(ids) == tp.w, f"context must contain exactly {tp.w} tokens"
    vocab, q = tp.vocab, tp.q
    history = tuple(expand(vocab, ids).tolist())
    if len(history) < q.w:
        return np.full(vocab.size, 1.0 / vocab.size)
    a = vocab.alphabet.size
    m = q.m  # the table reads the last m symbols

    def row(symbols: tuple) -> np.ndarray:
        code = 0
        for s in symbols[len(symbols) - m :]:
            code = code * a + s
        return q.rows_for(np.array([code]))[0]

    ext = vocab.ext_mask
    prev = int(ids[-1])
    denom = 1.0 - float(np.dot(row(history), ext[prev]))
    prob = np.empty(vocab.size)
    stop = np.empty(vocab.size)
    for i in range(vocab.size):
        # the contexts before each of the token's symbols and after its last
        run, prob[i] = history, 1.0
        for sym in expand(vocab, [i]).tolist():
            prob[i] *= row(run)[sym]
            run += (sym,)
        stop[i] = 1.0 - float(np.dot(row(run), ext[i]))
    out = prob * np.maximum(stop, 0.0) / denom
    out[ext[prev, vocab.first_symbols]] = 0.0
    return out


def _thin_overlaps(pos: np.ndarray) -> np.ndarray:
    """Keep alternating positions inside each run of adjacent matches."""
    if pos.size == 0:
        return pos
    starts = np.empty(pos.size, dtype=bool)
    starts[0] = True
    starts[1:] = np.diff(pos) > 1
    run_start = pos[starts][np.cumsum(starts) - 1]
    return pos[((pos - run_start) % 2) == 0]


def _pair_counts(ids: np.ndarray, big: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping adjacent-pair counts via run-length encoding.

    A run of m equal units contributes floor(m/2) mergeable (v, v) pairs;
    pairs across run boundaries are automatically non-overlapping.
    Returns (codes, counts) for pairs with a positive count.
    """
    boundaries = np.flatnonzero(np.diff(ids) != 0)
    run_ends = np.append(boundaries, len(ids) - 1)
    run_values = ids[run_ends]
    run_lengths = np.diff(np.append(-1, run_ends))

    diag_counts = np.bincount(run_values, weights=run_lengths // 2, minlength=big)
    diag_values = np.flatnonzero(diag_counts)
    diag_codes = diag_values * big + diag_values

    cross_codes, cross_counts = (
        np.unique(run_values[:-1] * big + run_values[1:], return_counts=True)
        if run_values.size > 1
        else (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    )
    codes = np.concatenate([cross_codes, diag_codes])
    counts = np.concatenate([cross_counts, diag_counts[diag_values]]).astype(np.int64)
    return codes, counts


def oracle_bpe_units(seq, target_size: int, alphabet_size: int) -> list[tuple]:
    """BPE unit inventory in merge order, recounting every pair of the
    whole unit sequence after every merge.

    The single symbols come first, then one merged unit per round: the
    pair with the most non-overlapping occurrences (floor(m/2) per run of
    m equal units), ties broken on the smallest (left, right) pair of unit
    strings and then on the first of the candidate codes (pairs of two
    different units by ids, then pairs of equal units).
    """
    unit_str: list[tuple[int, ...]] = [(i,) for i in range(alphabet_size)]
    ids = np.array(seq, dtype=np.int64)

    while len(unit_str) < target_size and len(ids) >= 2:
        big = len(unit_str)
        codes, counts = _pair_counts(ids, big)
        best = int(counts.max())
        cands = codes[counts == best]
        pick = min(cands.tolist(), key=lambda c: (unit_str[c // big], unit_str[c % big]))
        left, right = divmod(int(pick), big)

        new_id = len(unit_str)
        unit_str.append(unit_str[left] + unit_str[right])
        match = (ids[:-1] == left) & (ids[1:] == right)
        pos = np.flatnonzero(match)
        if left == right:
            pos = _thin_overlaps(pos)
        ids[pos] = new_id
        keep = np.ones(len(ids), dtype=bool)
        keep[pos + 1] = False
        ids = ids[keep]

    return unit_str


def oracle_lzw_units(seq, budget: int, alphabet_size: int) -> list[tuple]:
    """LZW dictionary in insertion order, longest matches found by slicing
    against a set: the single symbols, then each scan step's longest match
    extended by the next symbol, until `budget` units or the end of seq."""
    seq = [int(s) for s in seq]
    units = [(i,) for i in range(alphabet_size)]
    known = set(units)
    pos = 0
    while pos < len(seq) and len(units) < budget:
        end = pos + 1  # single symbols always match
        while end < len(seq) and tuple(seq[pos : end + 1]) in known:
            end += 1
        if end < len(seq):
            units.append(tuple(seq[pos : end + 1]))
            known.add(units[-1])
        pos = end
    return units


def oracle_context_step(kernel, pi: np.ndarray) -> np.ndarray:
    """One update of the context chain, by the reshape identity: the new
    context drops the oldest symbol."""
    a = kernel.alphabet_size
    k = kernel.order
    t = pi[:, None] * kernel.probs  # (A^k, A)
    if k == 0:
        return np.array([t.sum()])
    # context code = oldest * A^(k-1) + rest; next code = rest * A + y
    return t.reshape(a, a ** (k - 1), a).sum(axis=0).reshape(-1)


def oracle_solve_stationary(kernel) -> np.ndarray:
    """Direct sparse solve of pi = pi P, the last equation replaced by the
    normalization row."""
    a = kernel.alphabet_size
    states = kernel.context_count
    src = np.repeat(np.arange(states, dtype=np.int64), a)
    dst = (np.arange(states, dtype=np.int64)[:, None] * a + np.arange(a)) % states
    chain = coo_matrix((kernel.probs.ravel(), (src, dst.ravel())),
                       shape=(states, states)).tocsr()
    system = (chain.T - identity(states, format="csr")).tolil()
    system[states - 1, :] = 1.0
    rhs = np.zeros(states)
    rhs[-1] = 1.0
    return spsolve(system.tocsr(), rhs)


def oracle_capped_stationary(kernel) -> tuple[bool, np.ndarray]:
    """(whether the direct solve gave pi, pi) for an irreducible kernel, by
    power iteration on the half-lazy chain for up to 4096 steps, then the
    sparse solve."""
    states = kernel.context_count
    pi = np.full(states, 1.0 / states)
    prev_residual = math.inf
    converged = False
    for _ in range(4096):
        stepped = oracle_context_step(kernel, pi)
        residual = 0.5 * np.abs(stepped - pi).sum()
        if residual < 1e-15 or (residual >= prev_residual and residual < 1e-12):
            converged = True
            break
        prev_residual = residual
        pi = 0.5 * (pi + stepped)
    if not converged:
        pi = oracle_solve_stationary(kernel)
    pi = np.maximum(pi, 0.0)
    return not converged, pi / pi.sum()


def oracle_sample_loop(kernel, n: int, seed: int) -> np.ndarray:
    """`sample_sequence` one symbol at a time, uniforms drawn in blocks of
    2^17."""
    law = stationary_law(kernel)
    rng = generator(seed, SEQUENCE_STREAM)
    a = kernel.alphabet_size
    k = kernel.order

    pi_cum = np.cumsum(law.pi)
    pi_cum[-1] = 1.0
    ctx = int(np.searchsorted(pi_cum, rng.random(), side="right"))

    cum = np.cumsum(kernel.probs, axis=1)
    cum[:, -1] = 1.0

    if k == 0:
        return np.searchsorted(cum[0], rng.random(n), side="right").astype(np.int32)

    out = np.empty(n, dtype=np.int32)
    rows = cum.tolist()
    states = a**k
    pos = 0
    while pos < n:
        block = min(1 << 17, n - pos)
        us = rng.random(block).tolist()
        buf = []
        append = buf.append
        for u in us:
            row = rows[ctx]
            y = 0
            while u >= row[y]:
                y += 1
            append(y)
            ctx = (ctx * a + y) % states
        out[pos : pos + block] = buf
        pos += block
    return out


def oracle_parse_loop(vocab, y_sequence) -> np.ndarray:
    """`greedy_parse` ids by one walk down the trie table per symbol."""
    seq = vocab.alphabet.encode(y_sequence)
    trans = vocab.trans.tolist()
    root = row = trans[0]
    node = 0
    out = []  # the node at which each token ends
    append = out.append
    for sym in memoryview(seq):
        nxt = row[sym]
        if nxt:
            node = nxt
        else:  # the token ends before sym
            append(node)
            node = root[sym]
        row = trans[node]
    if len(seq):
        append(node)
    return np.array(out, dtype=np.int32) - 1


def oracle_row_evaluate(tp, stream, gate: int) -> dict:
    """`transfer._evaluate`'s per-token losses, stops, valid mask and alpha,
    from the (n, A) rows of every context of the expanded stream."""
    vocab = tp.vocab
    q = tp.q
    w = tp.w
    ws = q.w
    ids = stream.ids.astype(np.int64)
    m = len(ids)
    y = expand(vocab, ids)
    n = len(y)

    ii = np.arange(w, m - 1)
    valid = stream.window_spans(w)[: m - 1 - w] >= gate
    ext = vocab.ext_mask
    assert not np.any(ext[ids[ii - 1], vocab.first_symbols[ids[ii]]])

    losses = np.full(ii.size, math.log2(vocab.size))
    stops = np.full(ii.size, np.nan)
    if np.any(valid) and n >= ws:
        rows = q.rows_for(q.context_codes(y))
        pos_probs = rows[np.arange(n - ws), y[ws:]]
        cum = np.concatenate([[0.0], np.cumsum(np.log2(pos_probs))])

        vi = ii[valid]
        s_idx = stream.offsets[vi] - ws
        e_idx = stream.offsets[vi + 1] - ws
        seqlog = cum[e_idx] - cum[s_idx]
        stop = 1.0 - np.einsum("ij,ij->i", rows[e_idx], ext[ids[vi]].astype(np.float64))
        den = 1.0 - np.einsum("ij,ij->i", rows[s_idx], ext[ids[vi - 1]].astype(np.float64))
        losses[valid] = -(seqlog + np.log2(stop) - np.log2(den))
        stops[valid] = stop
    return {"losses": losses, "valid": valid, "stops": stops,
            "alpha": float(stream.offsets[-1] / m)}


def oracle_row_log_loss_total(predictor, seq) -> float:
    """`ngram.log_loss_total` from the (n - w, A) rows of the scored
    positions' contexts."""
    w, n = predictor.w, len(seq)
    rows = predictor.rows_for(predictor.context_codes(seq)[: n - w])
    probs = rows[np.arange(n - w), seq[w:]]
    if np.any(probs <= 0):
        return math.inf
    return float(-np.sum(np.log2(probs)))


def oracle_whole_block_lockstep(read, pos: int, size: int, state: int, length: int, advance,
                                run, guesses: tuple, dtype, warm: int):
    """`lockstep._lockstep` as it read a block: all its whole chunks in one
    read, from which the warm-up and the seam reruns take their inputs, and
    the answer laid out apart from every guess's runs."""
    chunks = size // length
    whole = chunks * length
    grid = read(pos, whole).reshape(chunks, length)
    spec = np.empty((length, len(guesses), chunks), dtype=dtype)
    cur = np.repeat(np.array(guesses, dtype=np.int64)[:, None], chunks, axis=1)
    later = cur[:, 1:]
    for t in range(length - warm, length):
        later = advance(later, grid[:-1, t])
    cur[:, 1:] = later
    cur[:, 0] = state
    start = cur.T.tolist()
    for t in range(length):
        cur = advance(cur, grid[:, t])
        spec[t] = cur

    rerun = 0
    for c in range(1, chunks):
        own = spec[:, :, c]
        state = int(spec[-1, 0, c - 1])
        met = start[c].index(state) if state in start[c] else -1
        lo, width = 0, lockstep._FIRST_SLICE
        while met < 0 and lo < length:
            end = min(lo + width, length)
            true = run(state, grid[c, lo:end])
            rerun += end - lo
            state = true[-1]
            held = own[end - 1].tolist()
            met = held.index(state) if state in held else -1
            own[lo:end, 0] = true
            lo = end
            width *= 2
        if met > 0:
            own[lo:, 0] = own[lo:, met]
    del grid
    tail = lockstep._run_through(read, pos + whole, size - whole, int(spec[-1, 0, -1]), run,
                                 dtype)
    states = np.empty(size, dtype=dtype)
    states[:whole].reshape(chunks, length)[...] = spec[:, 0].T
    states[whole:] = tail
    return states, rerun + tail.size


def oracle_in_order_draws(seed: int):
    """`sample_sequence`'s reads of symbol uniforms as it made them: from
    one generator of the sequence stream, past the initial context's
    uniform, in stream order only."""
    rng = generator(seed, SEQUENCE_STREAM)
    rng.random()
    reached = [0]

    def draw(pos: int, size: int) -> np.ndarray:
        assert pos == reached[0], f"uniforms from {pos} read before those from {reached[0]}"
        reached[0] = pos + size
        return rng.random(size)

    return draw


def oracle_sorted_span_stats(stream, w: int, w_s_values, threshold: int) -> dict:
    """The span statistics of w-token windows, the first w tokens dropped,
    read off the span array: the histogram by `np.unique`, the worst case
    by its minimum, epsilon by searching the sorted spans, and the
    fraction below `threshold` by a mean over a mask."""
    spans = stream.window_spans(w)[w:]
    values, counts = np.unique(spans, return_counts=True)
    total = counts.sum()
    ordered = np.sort(spans)
    return {
        "histogram": {int(v): float(c) / total for v, c in zip(values, counts)},
        "worst": int(spans.min()),
        "epsilon": [float(np.searchsorted(ordered, ws, side="left")) / ordered.size
                    for ws in w_s_values],
        "below_threshold": float(np.mean(spans < threshold)),
        "windows": spans.size,
    }
