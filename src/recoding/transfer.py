"""Constructive transfer of source predictors to token predictors.

Given a strictly positive source predictor q with context length w_s and
a prefix-closed vocabulary, the transferred predictor assigns to a
candidate next token the q-probability that the source continuation
spells the token and then stops (the following symbol does not extend
the token inside the vocabulary), renormalized by the probability that
the previous token really ended.  Along a greedy parse the stop factors
telescope, so the cumulative token loss tracks the cumulative source
loss up to a constant bounded via the positivity floor of q.

Evaluation needs only the last w_s source symbols of the expanded token
window, so `TransferredPredictor` predicts uniformly over tokens on
windows that span fewer than w_s symbols.  The typical predictor
(`TypicalPredictor`) moves that gate to any span threshold at or above
w_s; gated above every span it is the uniform token predictor, whose
loss per source symbol is the uniform-code rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, PositivityError
from .ngram import ContextPredictor, log_loss_total
from .tokenizer import PrefixVocabulary, TokenSequence, expand, greedy_parse

# `_evaluate` takes tokens of about this many source symbols at a time.
_SLICE = 1 << 16


@dataclass
class TokenLossBreakdown:
    """Per-token losses for tokens w .. m-2 of a stream (the initial w
    tokens and the terminal token are boundary artifacts)."""

    losses: np.ndarray
    valid: np.ndarray
    stops: np.ndarray
    alpha: float

    def total(self) -> float:
        return float(self.losses.sum())

    def mean(self) -> float:
        return float(self.losses.mean())

    def per_source_symbol(self) -> float:
        return self.mean() / self.alpha

    def bad_window_fraction(self) -> float:
        return float(1.0 - self.valid.mean())

    def per_source_symbol_se(self) -> float:
        n = self.losses.size
        if n < 2:
            return math.inf
        return float(self.losses.std(ddof=1) / math.sqrt(n) / self.alpha)


class TransferredPredictor:
    """Token-level predictor induced by a source predictor on a prefix
    vocabulary, evaluated over w-token contexts."""

    def __init__(self, q: ContextPredictor, vocab: PrefixVocabulary, w: int):
        if w < 1:
            raise ParameterError("token window length must be >= 1")
        if q.alphabet.size != vocab.alphabet.size:
            raise ParameterError("predictor and vocabulary alphabets differ")
        floor = q.positivity_floor()
        if floor <= 0:
            raise PositivityError(
                "the source predictor must be strictly positive; smooth it first"
            )
        self.q = q
        self.vocab = vocab
        self.w = w
        self.lambda_q = floor

    def token_log_losses(self, stream: TokenSequence) -> TokenLossBreakdown:
        return _evaluate(self, stream, self.q.w)


class TypicalPredictor:
    """Span-gated wrapper: transferred prediction on windows spanning at
    least w_s source symbols, uniform over the vocabulary otherwise."""

    def __init__(self, transferred: TransferredPredictor, span_threshold: int):
        if span_threshold < transferred.q.w:
            raise ParameterError(
                "span threshold must cover the source context length"
            )
        self.transferred = transferred
        self.span_threshold = span_threshold

    def token_log_losses(self, stream: TokenSequence) -> TokenLossBreakdown:
        return _evaluate(self.transferred, stream, self.span_threshold)


def _evaluate(tp: TransferredPredictor, stream: TokenSequence, gate: int) -> TokenLossBreakdown:
    """Vectorized per-token losses of the transferred rule along a parse.

    For each evaluated token, the loss decomposes as the summed source
    log-loss over the token's symbols plus the log of a stop-probability
    ratio; both pieces read the source context from the global sequence,
    which is legitimate exactly when the window span reaches the
    predictor's context length (guaranteed by the gate).  A symbol's q is
    one entry of the flat table, at context * A + symbol; the stop terms
    read whole rows.

    The summed log-loss is a difference of the cumulative log-loss over the
    source.  The tokens are taken in slices of about `_SLICE` source
    symbols, and each slice expands its tokens, codes their contexts and
    extends the cumulative log-loss from the last value of the slice
    before, so the additions are the sequential ones of a single pass.
    """
    vocab = tp.vocab
    if stream.vocab is not vocab and not np.array_equal(stream.vocab.trans, vocab.trans):
        raise ParameterError("stream was parsed with a different vocabulary")
    q = tp.q
    w = tp.w
    ws = q.w
    ids = stream.ids
    m = len(ids)
    if m - 1 <= w:
        raise DataError("token stream too short to evaluate")
    offsets = stream.offsets
    n = int(offsets[-1])

    # tokens w .. m-2 are evaluated, each after the span of the w before it
    valid = stream.window_spans(w)[: m - 1 - w] >= gate
    evaluated = bool(np.any(valid))
    losses = np.full(m - 1 - w, math.log2(vocab.size))
    stops = np.full(m - 1 - w, np.nan)
    ext = vocab.ext_mask
    flat = q.table.ravel()
    vanished = False
    total = 0.0  # the cumulative log-loss up to context index `done`
    done = 0  # context index j serves source position j + ws
    step = max(_SLICE * m // n, 1)  # tokens per slice
    for lo in range(w, m - 1, step):
        hi = min(lo + step, m - 1)
        # greedy maximality: the first symbol of a token never extends its
        # predecessor, otherwise the parse would have kept growing
        if np.any(ext[ids[lo - 1 : hi - 1], vocab.first_symbols[ids[lo:hi]]]):
            raise ParameterError("stream is not a greedy parse under this vocabulary")
        end = int(offsets[hi]) - ws  # the context index after the slice's last token
        if not evaluated or end <= done:
            continue
        # source positions done .. end + ws - 1, from the token that holds
        # the first (a key of the offsets' dtype keeps them from being copied)
        first = int(np.searchsorted(offsets, offsets.dtype.type(done), side="right")) - 1
        y = expand(vocab, ids[first:hi])[done - int(offsets[first]) :]
        codes = q.context_codes(y)  # entry j: the context of index done + j
        logq = flat[codes[:-1] * q.alphabet.size + y[ws:]]
        np.log2(logq, out=logq)
        logq[0] += total
        cum = np.empty(end - done + 1)
        cum[0] = total
        np.cumsum(logq, out=cum[1:])
        total = cum[-1]

        vi = np.flatnonzero(valid[lo - w : hi - w]) + lo
        s_idx = offsets[vi] - ws - done
        e_idx = offsets[vi + 1] - ws - done
        done = end
        stop = 1.0 - np.einsum("ij,ij->i", q.table[codes[e_idx]],
                               ext[ids[vi]].astype(np.float64))
        den = 1.0 - np.einsum("ij,ij->i", q.table[codes[s_idx]],
                              ext[ids[vi - 1]].astype(np.float64))
        if np.any(stop <= 0) or np.any(den <= 0):
            vanished = True
            continue
        losses[vi - w] = -(cum[e_idx] - cum[s_idx] + np.log2(stop) - np.log2(den))
        stops[vi - w] = stop
    if vanished:
        raise PositivityError("stop probability vanished on an interior token")

    return TokenLossBreakdown(
        losses=losses,
        valid=valid,
        stops=stops,
        alpha=float(offsets[-1] / m),
    )


def loss_comparison(
    q: ContextPredictor, vocab: PrefixVocabulary, y_sequence, w: int
) -> dict:
    """Cumulative source loss vs cumulative transferred token loss on one
    sequence, with the telescoping constant 2*log2(1/lambda_q)."""
    seq = vocab.alphabet.encode(y_sequence)
    tp = TransferredPredictor(q, vocab, w)
    return compare_losses(tp, seq, tp.token_log_losses(greedy_parse(vocab, seq)))


def compare_losses(tp: TransferredPredictor, seq: np.ndarray, breakdown: TokenLossBreakdown) -> dict:
    """`loss_comparison` for a sequence already parsed and evaluated:
    `breakdown` holds tp's per-token losses, gated at its predictor's
    context length, along the greedy parse of the index sequence seq."""
    q = tp.q
    source_total = log_loss_total(q, seq)
    token_total = breakdown.total()
    return {
        "n": int(len(seq)),
        "source_loss_bits": source_total,
        "token_loss_bits": token_total,
        "difference": token_total - source_total,
        "bound_2log_1_over_lambda": 2.0 * math.log2(1.0 / tp.lambda_q),
        "per_symbol_losses": {
            "source": source_total / max(len(seq) - q.w, 1),
            "token": breakdown.per_source_symbol(),
        },
    }
