"""Fixed-length fragmentation maps and the exact loss decomposition.

A fragmentation map replaces every source symbol by a block of M fragment
symbols.  For a source-context length w (in source symbols, i.e. Mw
fragments), the optimal fragmented loss exceeds the optimal source loss
by two non-negative terms:

  * context deficit: source history cut off by block misalignment, which
    vanishes once w exceeds the Markov order;
  * phase ambiguity: the position of the target fragment inside its block
    is hidden from a sliding fragment window.

Everything here is computed by enumerating source tuples and projecting
to fragment strings; fragment tuples are never enumerated directly, so
the tables stay exactly consistent with the source law.  Each table is a
(distinct contexts, |X|) mass matrix built with array operations: contexts
are grouped on their fragment rows packed into integer codes, ranked
before a code could overflow, which is exact for any alphabet and window,
and masses are summed in tuple order.
Conditional entropies are one compensated sum over a table's nonzero
entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphabetError, FormatError, InjectivityError, ParameterError
from .ngram import _CODE_LIMIT, in_sample_log_loss, rank_codes
from .sources import (Alphabet, TransitionKernel, cond_entropy_bits, conditional_entropy,
                      window_law)


@dataclass(frozen=True)
class FragmentationMap:
    """Injective map from source symbols to length-M fragment blocks."""

    source_alphabet: Alphabet
    fragment_alphabet: Alphabet
    block_length: int
    codebook: np.ndarray  # (|Y|, M) fragment indices


@dataclass(frozen=True)
class DecompositionReport:
    """Exact loss accounting at source-context length w (Mw fragments)."""

    w: int
    source_loss: float
    fragmented_loss: float
    context_deficit: float
    phase_ambiguity: float

    @property
    def gap(self) -> float:
        return self.fragmented_loss - self.source_loss

    def to_json(self) -> dict:
        return {
            "w": self.w,
            "source_loss_bits": self.source_loss,
            "fragmented_loss_bits": self.fragmented_loss,
            "context_deficit_bits": self.context_deficit,
            "phase_ambiguity_bits": self.phase_ambiguity,
            "gap_bits": self.gap,
        }


def default_code(source_size: int, fragment_size: int, block_length: int) -> list[tuple[int, ...]]:
    """Symbol index written in block_length base-|X| digits, MSB first."""
    if source_size > fragment_size**block_length:
        raise ParameterError(
            f"{source_size} symbols do not fit in {block_length} digits base {fragment_size}"
        )
    words = []
    for i in range(source_size):
        digits = []
        v = i
        for _ in range(block_length):
            digits.append(v % fragment_size)
            v //= fragment_size
        words.append(tuple(reversed(digits)))
    return words


def make_map(
    source_alphabet: Alphabet,
    fragment_alphabet: Alphabet,
    block_length: int,
    codewords=None,
) -> FragmentationMap:
    """Validate codewords (distinct, exact length) and build the map.

    When codewords is None the default base-|X| index code is used.
    block_length = 1 is allowed and is a plain relabeling.
    """
    if block_length < 1:
        raise ParameterError("block length must be >= 1")
    y, x = source_alphabet, fragment_alphabet
    if y.size > x.size**block_length:
        raise ParameterError("source alphabet does not fit in the fragment code space")
    if codewords is None:
        words = default_code(y.size, x.size, block_length)
    else:
        if len(codewords) != y.size:
            raise FormatError("one codeword per source symbol is required")
        words = []
        for word in codewords:
            idx = x.encode(word)
            if len(idx) != block_length:
                raise FormatError(
                    f"codeword {word!r} has length {len(idx)}, expected {block_length}"
                )
            words.append(tuple(int(v) for v in idx))
    if len(set(words)) != len(words):
        raise InjectivityError("codewords must be distinct")
    codebook = np.asarray(words, dtype=np.int32).reshape(y.size, block_length)
    codebook.flags.writeable = False
    return FragmentationMap(y, x, block_length, codebook)


def fragment(fmap: FragmentationMap, y_sequence) -> np.ndarray:
    """Concatenate the codewords of a source sequence."""
    seq = fmap.source_alphabet.encode(y_sequence)
    return fmap.codebook[seq].reshape(-1).astype(np.int32, copy=False)


def _append_column(codes: np.ndarray, space: int, column: np.ndarray,
                   base: int) -> tuple[np.ndarray, int]:
    """Codes of rows one base-`base` digit wider, the new digit `column`
    least significant, and the new code space; codes below `space` are
    ranked first when the wider space could pass the code limit, so every
    code stays exact."""
    if space * base > _CODE_LIMIT:
        distinct, codes, _ = rank_codes(codes, space, index=True)
        space = distinct.size
    return codes * base + column, space * base


def _row_ids(rows: np.ndarray, base: int) -> tuple[np.ndarray, int]:
    """Dense ids of the rows of a 2-D array of base-`base` digits, and how
    many differ.  Rows are packed into int64 codes, first column most
    significant, and ranked whenever one more column could overflow, so
    ids are exact for any alphabet and row width and follow the rows'
    lexicographic order."""
    codes, space = np.zeros(rows.shape[0], dtype=np.int64), 1
    for column in rows.T:
        codes, space = _append_column(codes, space, column, base)
    distinct, ids, _ = rank_codes(codes, space, index=True)
    return ids, distinct.size


def defragment(fmap: FragmentationMap, x_sequence) -> np.ndarray:
    """Invert `fragment`; blocks not in the code raise AlphabetError."""
    seq = fmap.fragment_alphabet.encode(x_sequence)
    m = fmap.block_length
    if len(seq) % m:
        raise FormatError("fragment sequence length is not a multiple of the block length")
    blocks = seq.reshape(-1, m)
    ysize = fmap.source_alphabet.size
    # group codewords and blocks together; a block's id names its codeword
    ids, n_ids = _row_ids(np.vstack([fmap.codebook, blocks]), fmap.fragment_alphabet.size)
    source_of = np.full(n_ids, -1, dtype=np.int32)
    source_of[ids[:ysize]] = np.arange(ysize, dtype=np.int32)
    out = source_of[ids[ysize:]]
    bad = np.flatnonzero(out < 0)
    if bad.size:
        key = tuple(int(v) for v in blocks[bad[0]])
        raise AlphabetError(f"block {key} is not a codeword")
    return out


def _mass_table(ids: np.ndarray, n_ids: int, targets: np.ndarray, weights: np.ndarray,
                n_targets: int) -> np.ndarray:
    """(n_ids, n_targets) matrix of the weights summed per (id, target).
    `bincount` adds weights in input order, so each entry is summed in
    the order of the rows."""
    flat = np.bincount(ids * n_targets + targets, weights=weights, minlength=n_ids * n_targets)
    return flat.reshape(n_ids, n_targets)


def _phase_tables(kernel: TransitionKernel, fmap: FragmentationMap, w: int):
    """Joint tables of (fragment context, target fragment) per phase.

    Enumerates the stationary joint over w+1 source symbols, maps each
    tuple of positive mass to its fragment string, and reads off for each
    phase the length-Mw context, the full context back to the window
    start, and the target fragment.  Each table is a (distinct contexts,
    |X|) mass matrix: contexts are grouped on their fragment rows packed
    into codes (see `_row_ids`), so keys are exact for every map, and each
    entry sums its tuples' masses in tuple order, phase after phase, as a
    loop over tuples would.  Each fragment string is decoded once, and
    phase t's full context is phase t-1's plus one column.  Returns (own,
    full, pooled): own/full are per-phase lists and pooled mixes the
    phases with weight 1/M.
    """
    a = kernel.alphabet_size
    m = fmap.block_length
    xa = fmap.fragment_alphabet.size
    length = w + 1
    joint = window_law(kernel, length)  # CapacityError beyond the table budget
    live = np.flatnonzero(joint > 0)
    probs = joint[live]
    # fragment string of each tuple, decoding its symbols newest first
    codebook = fmap.codebook.astype(np.min_scalar_type(xa - 1))
    frag = np.empty((live.size, length * m), dtype=codebook.dtype)
    codes = live
    for pos in range(length - 1, -1, -1):
        codes, digit = np.divmod(codes, a)
        frag[:, pos * m : (pos + 1) * m] = codebook[digit]

    mw = m * w
    targets = frag[:, mw:].T  # (phase, tuple)
    # one grouping of every phase's own context also serves the pooled table
    own_ids, n_own = _row_ids(np.concatenate([frag[:, t : mw + t] for t in range(m)]), xa)
    own_ids = own_ids.reshape(m, live.size)
    own = [_mass_table(own_ids[t], n_own, targets[t], probs, xa) for t in range(m)]
    pooled = _mass_table(own_ids.ravel(), n_own, targets.ravel(),
                         np.tile(probs * (1.0 / m), m), xa)
    # phase 1's full context is its own context, and each later phase's is
    # the one before it plus one column
    full = own[:1]
    codes, space = own_ids[0], n_own
    for t in range(1, m):
        codes, space = _append_column(codes, space, frag[:, mw + t - 1], xa)
        distinct, ids, _ = rank_codes(codes, space, index=True)
        full.append(_mass_table(ids, distinct.size, targets[t], probs, xa))
    return own, full, pooled


def decompose(kernel: TransitionKernel, fmap: FragmentationMap, w: int) -> DecompositionReport:
    """Exact source loss, fragmented loss, and the two penalty terms, bits
    per source symbol, from one set of phase tables.

    The fragmented loss is M times the phase-pooled conditional entropy of
    the target fragment.  Phase ambiguity, the bits lost because the window
    hides the target's block position, is M * [H(target | pooled context)
    - mean over phases of H(target | context)].  Context deficit, the
    source history the misaligned window cuts off, is the summed
    conditional information the missing prefix carries about each target
    fragment; it is zero whenever w exceeds the Markov order.
    """
    own, full, pooled = _phase_tables(kernel, fmap, w)
    h_own = [cond_entropy_bits(t) for t in own]
    frag_loss = fmap.block_length * cond_entropy_bits(pooled)
    return DecompositionReport(
        w=w,
        source_loss=conditional_entropy(kernel, w),
        fragmented_loss=frag_loss,
        context_deficit=math.fsum(h_own[t] - cond_entropy_bits(full[t])
                                  for t in range(1, len(full))),
        phase_ambiguity=frag_loss - math.fsum(h_own),
    )


def empirical_fragmented_loss(
    fmap: FragmentationMap, y_sequence, w: int, laplace_alpha: float, *, fragments=None
) -> float:
    """Laplace n-gram loss on the fragmented stream, bits per source symbol.

    Scores an (Mw)-context model fitted on the fragmented sequence on
    that same sequence and scales the per-fragment loss by M, so the value
    is comparable to `decompose`'s fragmented loss.  `fragments` is that
    sequence, ``fragment(fmap, y_sequence)``, for a caller that scores
    several windows of one source sequence and fragments it once.
    """
    x = fragment(fmap, y_sequence) if fragments is None else fragments
    m = fmap.block_length
    return m * in_sample_log_loss(x, m * w, laplace_alpha, fmap.fragment_alphabet)
