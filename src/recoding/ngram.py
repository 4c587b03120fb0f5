"""Finite-context conditional tables and the log-losses read from them.

A `ContextPredictor` over w-symbol contexts stores q(y|c) as one dense
(A**m, A) float table, m <= w: the predictor reads only the last m
symbols of each context, and row c is the law after the length-m context
whose base-A code is c.  Exact predictors derived from an order-k kernel
have m = min(w, k); fitted ones have m = w, and a context the training
sequence never holds gets the uniform row.  Context codes follow the
same convention as `sources`: oldest symbol most significant.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, DataError, ParameterError
from .sources import DEFAULT_TABLE_BUDGET, Alphabet, TransitionKernel, encode_corpus, window_law

_CODE_LIMIT = 1 << 62


def window_codes(seq: np.ndarray, w: int, alphabet_size: int) -> np.ndarray:
    """Base-A codes of every length-w window of seq (w=0 gives all zeros).

    Entry j is the code of seq[j:j+w]; the context of position t is entry
    t - w.  Raises CapacityError when A**w would overflow the code space.
    """
    n = len(seq)
    if w == 0:
        return np.zeros(n + 1, dtype=np.int64)
    if alphabet_size**w > _CODE_LIMIT:
        raise CapacityError(f"context space {alphabet_size}**{w} exceeds code limit")
    if n < w:
        return np.zeros(0, dtype=np.int64)
    seq = np.asarray(seq)
    m = n - w + 1
    code = seq[:m].astype(np.int64)
    for j in range(1, w):
        code *= alphabet_size
        code += seq[j : j + m]
    return code


class ContextPredictor:
    """Conditional model q(y|c) for contexts of a fixed length w: row c of
    the dense (A**m, A) `table`, m <= w, is the law after the last m
    symbols of a context, whose base-A code is c."""

    def __init__(self, alphabet: Alphabet, w: int, table: np.ndarray):
        if w < 0:
            raise ParameterError("context length must be >= 0")
        a = alphabet.size
        self.m = next((m for m in range(w) if a**m >= len(table)), w)
        if table.shape != (a**self.m, a):
            raise ParameterError(f"table of shape {table.shape} is not (A**m, A) with m <= {w}")
        self.alphabet = alphabet
        self.w = w
        self.table = table

    def context_codes(self, seq) -> np.ndarray:
        """The code of the context each position after the first w reads,
        n - w + 1 entries for an n-symbol seq: entry j codes the symbols of
        seq[j : j + w] the table reads, so it serves position j + w (the
        last entry, the position after seq).  `rows_for` takes these codes."""
        return window_codes(seq[self.w - self.m :], self.m, self.alphabet.size)

    def rows_for(self, codes: np.ndarray) -> np.ndarray:
        """Probability rows for an array of context codes, shape (len, A)."""
        return self.table[np.asarray(codes, dtype=np.int64)]

    def positivity_floor(self) -> float:
        """Smallest probability the predictor can ever emit."""
        return float(self.table.min())

    def smoothed(self, eta: float) -> "ContextPredictor":
        """Every row mixed with the uniform distribution:
        q_eta(y|c) = (1-eta) q(y|c) + eta/|Y|."""
        if not 0 < eta < 1:
            raise ParameterError("eta must lie in (0, 1)")
        table = (1.0 - eta) * self.table + eta / self.alphabet.size
        return ContextPredictor(self.alphabet, self.w, table)


def rank_codes(codes: np.ndarray, space: int, index: bool = False):
    """Group the non-negative int64 `codes`, each below `space`: (their
    sorted distinct values, each code's position among them or None
    unless `index`, how often each value occurs).  Counts over the whole
    code space when it is at most twice the number of codes, and sorts
    otherwise."""
    if space <= 2 * codes.size:
        counts = np.bincount(codes, minlength=space)
        distinct = np.flatnonzero(counts)
        pos = (np.cumsum(counts > 0) - 1)[codes] if index else None
        return distinct, pos, counts[distinct]
    if index:
        return np.unique(codes, return_inverse=True, return_counts=True)
    distinct, counts = np.unique(codes, return_counts=True)
    return distinct, None, counts


def _count_table(sequence, w: int, laplace_alpha: float, alphabet: Alphabet | None):
    """Validate `fit`'s arguments and count every (context, next symbol):
    (alphabet, sequence length, sorted distinct codes context * A + symbol,
    their counts)."""
    if w < 0:
        raise ParameterError("w must be >= 0")
    if laplace_alpha < 0:
        raise ParameterError("laplace_alpha must be >= 0")
    alphabet, seq = encode_corpus(sequence, alphabet)
    a = alphabet.size
    # a (w+1)-window's code is its context's code times A plus its symbol
    codes, _, counts = rank_codes(window_codes(seq, w + 1, a), a ** (w + 1))
    return alphabet, len(seq), codes, counts


def _conditional(mass: np.ndarray, laplace_alpha: float) -> np.ndarray:
    """Rows of q(y|c) = (mass(c,y) + a) / (mass(c) + a*|Y|) from a (contexts,
    A) table of masses; a context of zero mass gets the uniform row."""
    totals = mass.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0, totals + laplace_alpha * mass.shape[1], 1.0)
    return np.where(totals > 0, (mass + laplace_alpha) / safe, 1.0 / mass.shape[1])


def fit(sequence, w: int, laplace_alpha: float, alphabet: Alphabet | None = None) -> ContextPredictor:
    """Fit q(y|c) = (count(c,y) + a) / (count(c) + a*|Y|) from one pass over
    all A**w contexts, those the sequence never holds uniform.  A table of
    more than `DEFAULT_TABLE_BUDGET` entries is a CapacityError."""
    alphabet, _, codes, counts = _count_table(sequence, w, laplace_alpha, alphabet)
    a = alphabet.size
    if a ** (w + 1) > DEFAULT_TABLE_BUDGET:
        raise CapacityError(f"a {w}-symbol context table over {a} symbols needs "
                            f"{a ** (w + 1)} entries (budget {DEFAULT_TABLE_BUDGET})")
    mass = np.zeros(a ** (w + 1))
    mass[codes] = counts
    return ContextPredictor(alphabet, w, _conditional(mass.reshape(-1, a), laplace_alpha))


def in_sample_log_loss(sequence, w: int, laplace_alpha: float,
                       alphabet: Alphabet | None = None) -> float:
    """Mean log-loss, bits, of the fitted model on its own training data.

    Equals ``log_loss(fit(sequence, w, laplace_alpha, alphabet), sequence)``
    but is read straight off the count table, as
    -sum count(c,y) * log2 q(y|c) / (n - w), without building a predictor.
    """
    alphabet, n, codes, cnt = _count_table(sequence, w, laplace_alpha, alphabet)
    if n <= w:
        raise DataError("sequence must be longer than the context length")
    a = alphabet.size
    row = np.unique(codes // a, return_inverse=True)[1]
    totals = np.bincount(row, weights=cnt)[row]
    q = (cnt + laplace_alpha) / (totals + laplace_alpha * a)
    return float(-np.sum(cnt * np.log2(q)) / (n - w))


def log_loss(predictor: ContextPredictor, sequence) -> float:
    """Mean per-symbol log-loss, bits: `log_loss_total` over the n - w
    scored positions.  Infinite when a zero-probability event occurs
    (possible only for unsmoothed fits)."""
    seq = predictor.alphabet.encode(sequence)
    return log_loss_total(predictor, seq) / (len(seq) - predictor.w)


def log_loss_total(predictor: ContextPredictor, sequence) -> float:
    """Cumulative (unnormalized) log-loss over positions after the first w.
    Each position's q is one entry of the flat table, at context * A +
    symbol."""
    seq = predictor.alphabet.encode(sequence)
    w, n = predictor.w, len(seq)
    if n <= w:
        raise DataError("sequence must be longer than the context length")
    at = predictor.context_codes(seq)[: n - w]
    at *= predictor.alphabet.size
    at += seq[w:]
    probs = predictor.table.ravel()[at]
    if np.any(probs <= 0):
        return math.inf
    return float(-np.sum(np.log2(probs)))


def optimal_predictor(kernel: TransitionKernel, w: int) -> ContextPredictor:
    """Exact conditional law of the next symbol given each length-w context.

    The law depends only on the last m = min(w, k) symbols, so the table
    has one dense row per length-m context, from the (m+1)-symbol joint.
    Zero-probability contexts get the uniform row (they are never visited
    by the stationary process).
    """
    a = kernel.alphabet_size
    mass = window_law(kernel, min(w, kernel.order) + 1).reshape(-1, a)
    return ContextPredictor(kernel.alphabet, w, _conditional(mass, 0.0))
