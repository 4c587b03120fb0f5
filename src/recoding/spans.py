"""Source-span statistics of token windows and heavy-hitting diagnostics.

The source span of a token window is the number of source symbols its
expansion covers.  Sliding-window statistics drop the first w tokens of a
stream so the forced start-of-parse boundary does not contaminate the
stationary picture; `worst_case_span` documents the same convention.
The fraction of w-token windows spanning fewer than w_s symbols,
epsilon(w, w_s), is the second column of `slack_curve`.

Every statistic of one stream and one w is read off one histogram of the
window spans (`_span_counts`), which counts the spans a slice of windows
at a time: the worst case is its least nonzero bin and epsilon a sum of
its bins below w_s, so no span array is held and none is sorted.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import AssumptionViolationError, DataError, ParameterError
from .sources import TransitionKernel, _successors, min_transition_prob
from .tokenizer import TokenSequence, expand

# `_span_counts` takes the spans of this many windows at a time.
_SLICE = 1 << 16


def _span_counts(stream: TokenSequence, w: int) -> np.ndarray:
    """counts[s]: how many length-w sliding windows, the first w tokens
    dropped, span s source symbols; int64, up to the longest span."""
    m = len(stream)
    if m < 2 * w:
        raise DataError(f"stream too short for {w}-token windows")
    if w < 1:
        raise ParameterError("window length must be >= 1")
    offsets = stream.offsets
    counts = np.zeros(0, dtype=np.int64)
    # window j covers tokens j .. j + w - 1; windows w .. m - w are counted
    for lo in range(w, m - w + 1, _SLICE):
        hi = min(lo + _SLICE, m - w + 1)
        part = np.bincount(offsets[lo + w : hi + w] - offsets[lo:hi], minlength=counts.size)
        part[: counts.size] += counts
        counts = part
    return counts


def _fractions_below(counts: np.ndarray, w_s_values) -> list[float]:
    """For each w_s, the fraction of the windows `counts` tallies that span
    fewer than w_s symbols."""
    below = [0, *np.cumsum(counts).tolist()]
    return [below[min(max(math.ceil(ws), 0), counts.size)] / below[-1] for ws in w_s_values]


@dataclass
class SpanReport:
    """Span statistics of w-token windows over one parsed stream."""

    w: int
    span_histogram: dict[int, float]
    worst_case_span: int
    alpha: float
    rate: float
    token_count: int
    slack_curve: list[tuple[int, float, float]] = field(default_factory=list)
    # the histogram's counts (`_span_counts`) and epsilon's weight in the
    # slack column, R * log2|Y|; `slack` reads them, `to_json` does not
    counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64),
                               repr=False, compare=False)
    slack_scale: float = field(default=0.0, repr=False, compare=False)

    def slack(self, w_s_values) -> list[tuple[int, float, float]]:
        """Rows (w_s, epsilon, epsilon * R * log2|Y|) over a span target
        sweep, from this report's histogram."""
        return [(int(ws), eps, eps * self.slack_scale)
                for ws, eps in zip(w_s_values, _fractions_below(self.counts, w_s_values))]

    def to_json(self) -> dict:
        return {
            "w": self.w,
            "span_histogram": {str(k): v for k, v in sorted(self.span_histogram.items())},
            "worst_case_span": self.worst_case_span,
            "alpha": self.alpha,
            "rate": self.rate,
            "token_count": self.token_count,
            "slack_curve": [
                {"w_s": ws, "epsilon": eps, "slack_bits": slack}
                for ws, eps, slack in self.slack_curve
            ],
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True))


def compression_stats(stream: TokenSequence) -> tuple[float, float]:
    """(alpha, R): mean source symbols per token and the uniform-code rate
    log2|Z| / (alpha * log2|Y|) of the stream's vocabulary."""
    if len(stream.ids) == 0:
        raise DataError("empty token stream")
    vocab = stream.vocab
    alpha = float(stream.offsets[-1] / len(stream))
    rate = math.log2(vocab.size) / (alpha * math.log2(vocab.alphabet.size))
    return alpha, rate


def span_distribution(stream: TokenSequence, w: int) -> SpanReport:
    """Empirical span histogram over sliding windows of w tokens; its
    `slack` method reads the slack curve off the same histogram."""
    counts = _span_counts(stream, w)
    spans = np.flatnonzero(counts)
    total = counts.sum()
    hist = {int(v): float(c) / total for v, c in zip(spans, counts[spans])}
    alpha, rate = compression_stats(stream)
    return SpanReport(
        w=w,
        span_histogram=hist,
        worst_case_span=int(spans[0]),
        alpha=alpha,
        rate=rate,
        token_count=len(stream.ids),
        counts=counts,
        slack_scale=rate * math.log2(stream.vocab.alphabet.size),
    )


def worst_case_span(stream: TokenSequence, w: int) -> int:
    """Minimum source span of the w-token windows of a greedy parse, the
    first w tokens dropped."""
    return int(np.flatnonzero(_span_counts(stream, w))[0])


def slack_curve(stream: TokenSequence, w: int, w_s_values) -> list[tuple[int, float, float]]:
    """Rows (w_s, epsilon, epsilon * R * log2|Y|) over a span target sweep."""
    return span_distribution(stream, w).slack(w_s_values)


def p_max(kernel: TransitionKernel, t) -> float:
    """Largest probability of generating string t from any initial context,
    by a max-product sweep over context states."""
    seq = kernel.alphabet.encode(t)
    if len(seq) == 0:
        return 1.0
    successors = _successors(kernel)
    best = np.ones(kernel.context_count)
    for sym in seq.tolist():
        nxt = np.zeros_like(best)
        np.maximum.at(nxt, successors[:, sym], best * kernel.probs[:, sym])
        best = nxt
    return float(best.max())


def positive_delta(kernel: TransitionKernel) -> float:
    """The source's least transition probability delta, which the
    heavy-hitting scale divides by; an AssumptionViolationError when it is
    zero."""
    delta = min_transition_prob(kernel)
    if delta <= 0:
        raise AssumptionViolationError("source has a zero transition probability")
    return delta


@dataclass
class HeavyHitReport:
    """Token-length diagnostics for a budget-d greedy vocabulary on a
    delta-positive source."""

    beta: float
    d: int
    delta: float
    ell_d: float
    miss_prob: float
    miss_se: float
    short_token_prob: float
    short_se: float
    w: int
    window_span_threshold: int
    window_fail_prob: float
    window_fail_se: float
    alpha: float
    rate: float
    token_count: int
    degenerate: bool
    length_inclusion_holds: bool

    @property
    def window_bound_ok(self) -> bool:
        return self.window_fail_prob <= 4 * self.miss_prob + 3 * self._window_sigma()

    @property
    def alpha_bound_ok(self) -> bool:
        target = (1 - self.miss_prob) * self.ell_d + self.miss_prob
        return self.alpha >= target - 3 * self.miss_se * abs(self.ell_d - 1)

    def _window_sigma(self) -> float:
        return math.sqrt(self.window_fail_se**2 + 16 * self.miss_se**2)

    def to_json(self) -> dict:
        return {**asdict(self), "window_bound_ok": self.window_bound_ok,
                "alpha_bound_ok": self.alpha_bound_ok}


def _bernoulli_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1 - p), 0.0) / max(n, 1))


def heavy_hitting_report(
    kernel: TransitionKernel, stream: TokenSequence, beta: float, d: int, w: int
) -> HeavyHitReport:
    """Measure the token-length scale ell_d = beta*log2(d)/log2(1/delta)
    and the related tail probabilities over an emitted-token stream.

    Checked facts: a token shorter than ell_d always has
    p_max > d**(-beta) (exact per-token inclusion); the fraction of
    w-token windows spanning under floor(3/4 * w * ell_d) is at most four
    times the miss probability; and the mean token length is at least
    (1-eta)*ell_d + eta.
    """
    if not 0 < beta < 1:
        raise ParameterError("beta must lie in (0, 1)")
    delta = positive_delta(kernel)
    ell_d = beta * math.log2(d) / math.log2(1.0 / delta)
    threshold = d ** (-beta)

    alpha, rate = compression_stats(stream)  # DataError on an empty stream
    vocab = stream.vocab
    ids = stream.ids
    m = len(ids)
    uniq, counts = np.unique(ids, return_counts=True)
    freq = counts / m
    pmax_by_entry = np.array([p_max(kernel, expand(vocab, [i])) for i in uniq.tolist()])
    lengths = vocab.lengths[uniq]

    miss_mask = pmax_by_entry > threshold
    short_mask = lengths < ell_d
    miss_prob = float(freq[miss_mask].sum())
    short_prob = float(freq[short_mask].sum())
    inclusion = bool(np.all(miss_mask[short_mask])) if short_mask.any() else True

    window_threshold = math.floor(0.75 * w * ell_d)
    counts = _span_counts(stream, w)
    window_fail = _fractions_below(counts, [window_threshold])[0]

    return HeavyHitReport(
        beta=beta,
        d=d,
        delta=delta,
        ell_d=ell_d,
        miss_prob=miss_prob,
        miss_se=_bernoulli_se(miss_prob, m),
        short_token_prob=short_prob,
        short_se=_bernoulli_se(short_prob, m),
        w=w,
        window_span_threshold=window_threshold,
        window_fail_prob=window_fail,
        window_fail_se=_bernoulli_se(window_fail, int(counts.sum())),
        alpha=alpha,
        rate=rate,
        token_count=m,
        degenerate=ell_d <= 1.0,
        length_inclusion_holds=inclusion,
    )
