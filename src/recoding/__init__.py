"""Finite-context prediction under lossless re-representations.

Tools to measure, exactly and empirically, how recoding a stationary
finite-order Markov source changes the best loss any fixed-window
predictor can achieve: fragmenting symbols into finer units incurs a
penalty that splits into context deficit and phase ambiguity, while
greedy tokenization into coarser units can stretch a short token window
to cover a long stretch of source history.
"""

__version__ = "0.1.0"

from .errors import (
    AlphabetError,
    AssumptionViolationError,
    CapacityError,
    DataError,
    ErgodicityError,
    FormatError,
    InjectivityError,
    ParameterError,
    PositivityError,
    RecodingError,
)
from .sources import (
    Alphabet,
    StationaryLaw,
    TransitionKernel,
    conditional_entropy,
    entropy_rate,
    min_transition_prob,
    read_sequence,
    sample_kernel,
    sample_sequence,
    stationary_law,
    window_law,
    write_sequence,
)
from .fragmentation import (
    DecompositionReport,
    FragmentationMap,
    decompose,
    defragment,
    empirical_fragmented_loss,
    fragment,
    make_map,
)
from .ngram import (ContextPredictor, fit, in_sample_log_loss, log_loss, log_loss_total,
                    optimal_predictor)
from .tokenizer import (
    PrefixVocabulary,
    TokenSequence,
    expand,
    greedy_parse,
    train_bpe,
    train_lzw,
    train_vocabularies,
)
from .spans import (
    HeavyHitReport,
    SpanReport,
    compression_stats,
    heavy_hitting_report,
    p_max,
    slack_curve,
    span_distribution,
    worst_case_span,
)
from .transfer import (
    TokenLossBreakdown,
    TransferredPredictor,
    TypicalPredictor,
    loss_comparison,
)
