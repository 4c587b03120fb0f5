"""Count-based finite-context predictors with Laplace smoothing.

Fitted predictors keep a sparse context table (hash map keyed by the
base-A context code) with a uniform fallback for unseen contexts; exact
predictors derived from a kernel use a dense table.  Context codes follow
the same convention as `sources`: oldest symbol most significant.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import CapacityError, DataError, FormatError, ParameterError
from .sources import Alphabet, TransitionKernel, window_law, DEFAULT_TABLE_BUDGET

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
    """Conditional model q(y|c) for contexts of a fixed length w."""

    def __init__(
        self,
        alphabet: Alphabet,
        w: int,
        *,
        alpha: float | None = None,
        counts: dict[int, np.ndarray] | None = None,
        rows: dict[int, np.ndarray] | None = None,
        dense: np.ndarray | None = None,
    ):
        if w < 0:
            raise ParameterError("context length must be >= 0")
        self.alphabet = alphabet
        self.w = w
        self.alpha = alpha
        self._counts = counts
        self._dense = dense
        a = alphabet.size
        self._uniform = np.full(a, 1.0 / a)
        if dense is not None:
            self._rows = None
        elif rows is not None:
            self._rows = rows
        else:
            self._rows = {}
            if counts:
                aa = 0.0 if alpha is None else alpha
                for code, cnt in counts.items():
                    tot = cnt.sum()
                    if aa > 0:
                        self._rows[code] = (cnt + aa) / (tot + aa * a)
                    elif tot > 0:
                        self._rows[code] = cnt / tot
                    else:
                        self._rows[code] = self._uniform.copy()

    @property
    def context_space(self) -> int:
        return self.alphabet.size**self.w

    def row(self, code: int) -> np.ndarray:
        if self._dense is not None:
            return self._dense[code]
        return self._rows.get(int(code), self._uniform)

    def rows_for(self, codes: np.ndarray) -> np.ndarray:
        """Probability rows for an array of context codes, shape (len, A)."""
        codes = np.asarray(codes, dtype=np.int64)
        if self._dense is not None:
            return self._dense[codes]
        uniq, inverse = np.unique(codes, return_inverse=True)
        mat = np.empty((uniq.size, self.alphabet.size))
        for i, code in enumerate(uniq.tolist()):
            mat[i] = self._rows.get(code, self._uniform)
        return mat[inverse]

    def positivity_floor(self) -> float:
        """Smallest probability the predictor can ever emit."""
        a = self.alphabet.size
        if self._dense is not None:
            return float(self._dense.min())
        floor = math.inf
        for r in self._rows.values():
            floor = min(floor, float(r.min()))
        if len(self._rows) < self.context_space:
            floor = min(floor, 1.0 / a)
        return 0.0 if floor is math.inf else floor

    def smoothed(self, eta: float) -> "ContextPredictor":
        if not 0 < eta < 1:
            raise ParameterError("eta must lie in (0, 1)")
        a = self.alphabet.size
        if self._dense is not None:
            dense = (1.0 - eta) * self._dense + eta / a
            return ContextPredictor(self.alphabet, self.w, dense=dense)
        rows = {c: (1.0 - eta) * r + eta / a for c, r in self._rows.items()}
        return ContextPredictor(self.alphabet, self.w, rows=rows)

    def to_json(self) -> dict:
        if self._counts is None:
            raise FormatError("only count-based predictors can be serialized")
        symbols = self.alphabet.symbols
        a = self.alphabet.size
        entries = []
        for code in sorted(self._counts):
            digits = []
            c = code
            for _ in range(self.w):
                digits.append(symbols[c % a])
                c //= a
            digits.reverse()
            entries.append([digits, [int(x) for x in self._counts[code]]])
        return {
            "alphabet": list(symbols),
            "w": self.w,
            "alpha": self.alpha,
            "counts": entries,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ContextPredictor":
        alphabet = Alphabet(tuple(obj["alphabet"]))
        w = int(obj["w"])
        a = alphabet.size
        counts = {}
        for labels, cnt in obj["counts"]:
            code = 0
            for lab in labels:
                code = code * a + alphabet.index(lab)
            counts[code] = np.asarray(cnt, dtype=np.int64)
        return cls(alphabet, w, alpha=obj["alpha"], counts=counts)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True))

    @classmethod
    def load(cls, path) -> "ContextPredictor":
        return cls.from_json(json.loads(Path(path).read_text()))


def _count_table(sequence, w: int, laplace_alpha: float, alphabet: Alphabet | None):
    """Validate `fit`'s arguments and count every (context, next symbol):
    (alphabet, sequence length, sorted distinct codes context * A + symbol,
    their counts)."""
    if w < 0:
        raise ParameterError("w must be >= 0")
    if laplace_alpha < 0:
        raise ParameterError("laplace_alpha must be >= 0")
    if alphabet is None:
        if isinstance(sequence, str):
            alphabet = Alphabet.from_text(sequence)
        else:
            raise ParameterError("alphabet is required for index sequences")
    seq = alphabet.encode(sequence)
    a = alphabet.size
    if a ** (w + 1) > _CODE_LIMIT:
        raise CapacityError("context table space exceeds the code limit")
    n = len(seq)
    ctx = window_codes(seq, w, a)[: n - w]
    codes, counts = np.unique(ctx * a + seq[w:], return_counts=True)
    return alphabet, n, codes, counts


def fit(sequence, w: int, laplace_alpha: float, alphabet: Alphabet | None = None) -> ContextPredictor:
    """Fit q(y|c) = (count(c,y) + a) / (count(c) + a*|Y|) from one pass."""
    alphabet, _, codes, cnt = _count_table(sequence, w, laplace_alpha, alphabet)
    a = alphabet.size
    ctx_codes = codes // a
    syms = codes % a
    counts: dict[int, np.ndarray] = {}
    bounds = np.flatnonzero(np.diff(ctx_codes, prepend=-1))
    for b, e in zip(bounds, np.append(bounds[1:], codes.size)):
        vec = np.zeros(a, dtype=np.int64)
        vec[syms[b:e]] = cnt[b:e]
        counts[int(ctx_codes[b])] = vec
    return ContextPredictor(alphabet, w, alpha=laplace_alpha, counts=counts)


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
    _, ctx = np.unique(codes // a, return_inverse=True)
    totals = np.bincount(ctx, weights=cnt)[ctx]
    q = (cnt + laplace_alpha) / (totals + laplace_alpha * a)
    return float(-np.sum(cnt * np.log2(q)) / (n - w))


def log_loss(predictor: ContextPredictor, sequence) -> float:
    """Mean per-symbol log-loss, bits: `log_loss_total` over the n - w
    scored positions.  Infinite when a zero-probability event occurs
    (possible only for unsmoothed fits)."""
    seq = predictor.alphabet.encode(sequence)
    return log_loss_total(predictor, seq) / (len(seq) - predictor.w)


def log_loss_total(predictor: ContextPredictor, sequence) -> float:
    """Cumulative (unnormalized) log-loss over positions after the first w."""
    seq = predictor.alphabet.encode(sequence)
    w, n = predictor.w, len(seq)
    if n <= w:
        raise DataError("sequence must be longer than the context length")
    rows = predictor.rows_for(window_codes(seq, w, predictor.alphabet.size)[: n - w])
    probs = rows[np.arange(n - w), seq[w:]]
    if np.any(probs <= 0):
        return math.inf
    return float(-np.sum(np.log2(probs)))


def optimal_predictor(
    kernel: TransitionKernel, w: int, table_budget: int = DEFAULT_TABLE_BUDGET
) -> ContextPredictor:
    """Exact conditional law of the next symbol given each length-w context.

    Zero-probability contexts get the uniform row (they are never visited
    by the stationary process).
    """
    joint = window_law(kernel, w + 1, table_budget)
    a = kernel.alphabet_size
    table = joint.reshape(a**w, a)
    totals = table.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    dense = np.where(totals > 0, table / safe, 1.0 / a)
    return ContextPredictor(kernel.alphabet, w, dense=dense)
