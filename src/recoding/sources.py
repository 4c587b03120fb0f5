"""Stationary ergodic k-th order Markov sources over finite alphabets.

Kernels are dense tables P(y|c) indexed by context code.  A context
(c_1, ..., c_k), with c_k the most recent symbol, is encoded as the base-A
integer with c_1 most significant, so the update after observing y is
``code = (code * A + y) % A**k``.  All entropies are in bits and obey the
0*log(0) = 0 convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AlphabetError,
    CapacityError,
    ErgodicityError,
    FormatError,
    ParameterError,
)
from .lockstep import run_states
from .rng import KERNEL_STREAM, SEQUENCE_STREAM, generator

# Exact-enumeration budget, in table entries, shared by every operation
# that materializes a joint law.
DEFAULT_TABLE_BUDGET = 10**8

# Power iteration for the stationary law: its invariance tolerance, the
# step cap after which it falls back to a direct solve, and the window over
# which its residual's recent decay rate is measured.
_STATIONARY_TOL = 1e-12
_POWER_STEPS = 4096
_DECAY_WINDOW = 256

# The sampler's guide table holds at most this many cells (contexts times
# buckets), 512 kB per column: tables of up to 2^20 cells made `frag-decompose`
# slower and larger, not faster.
_GUIDE_CELLS = 1 << 16

_LABEL_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of distinct symbol labels."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise ParameterError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ParameterError("alphabet labels must be distinct")

    @classmethod
    def of_size(cls, n: int) -> "Alphabet":
        if n <= len(_LABEL_CHARS):
            return cls(tuple(_LABEL_CHARS[:n]))
        return cls(tuple(f"s{i}" for i in range(n)))

    @classmethod
    def from_text(cls, text: str) -> "Alphabet":
        return cls(tuple(sorted(set(text))))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def encode(self, data) -> np.ndarray:
        """The symbol indices of a string, a label sequence, or an index
        array: an integer array whose items take at most 4 bytes as it is,
        anything else as int32."""
        if isinstance(data, np.ndarray) and data.dtype.kind in "iu":
            idx = data
        else:
            seq = data if isinstance(data, str) else list(data)
            if isinstance(seq, str) or (seq and isinstance(seq[0], str)):
                lut = {s: i for i, s in enumerate(self.symbols)}
                try:
                    idx = np.fromiter((lut[x] for x in seq), dtype=np.int32, count=len(seq))
                except KeyError as e:
                    raise AlphabetError(f"unknown symbol {e.args[0]!r}") from None
            else:
                idx = np.asarray(seq, dtype=np.int32)
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            raise AlphabetError("symbol index out of range")
        return idx if idx.dtype.itemsize <= 4 else idx.astype(np.int32)

    def decode(self, indices) -> str:
        idx = np.asarray(indices)
        return "".join(self.symbols[i] for i in idx)


def encode_corpus(corpus, alphabet: Alphabet | None) -> tuple[Alphabet, np.ndarray]:
    """`alphabet`, or a text corpus's own when None, and the corpus as indices."""
    if alphabet is None:
        if not isinstance(corpus, str):
            raise ParameterError("alphabet is required for index sequences")
        alphabet = Alphabet.from_text(corpus)
    return alphabet, alphabet.encode(corpus)


class TransitionKernel:
    """k-th order conditional law P(y|c), one row per context code."""

    def __init__(self, alphabet: Alphabet, order: int, probs: np.ndarray):
        if order < 0:
            raise ParameterError("order must be non-negative")
        if alphabet.size < 2:
            raise ParameterError("source alphabet must have at least 2 symbols")
        probs = np.asarray(probs, dtype=np.float64)
        rows = alphabet.size**order
        if probs.shape != (rows, alphabet.size):
            raise FormatError(
                f"probs must have shape ({rows}, {alphabet.size}), got {probs.shape}"
            )
        if not (probs >= 0).all():  # so written that NaN fails too
            raise FormatError("transition probabilities must be non-negative numbers")
        if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-12):  # non-negative rows never sum to NaN
            raise FormatError("each kernel row must sum to 1 within 1e-12")
        self.alphabet = alphabet
        self.order = order
        self.probs = probs
        self.probs.flags.writeable = False
        self._stationary: StationaryLaw | None = None

    @property
    def alphabet_size(self) -> int:
        return self.alphabet.size

    @property
    def context_count(self) -> int:
        return self.alphabet.size**self.order

    def to_json(self) -> dict:
        return {
            "alphabet": list(self.alphabet.symbols),
            "order": self.order,
            "probs": [float(x) for x in self.probs.ravel()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TransitionKernel":
        labels, order, probs = json_fields(obj, "kernel", "alphabet", "order", "probs")
        alphabet = json_alphabet(labels, "kernel")
        if type(order) is not int:
            raise FormatError("kernel JSON key 'order' must hold an integer")
        try:
            flat = np.asarray(probs)
            numeric = flat.dtype.kind in "iuf"
        except ValueError:  # ragged nesting
            numeric = False
        if not numeric:
            raise FormatError("kernel JSON key 'probs' must hold numbers")
        flat = flat.astype(np.float64)
        rows = alphabet.size**order
        if flat.size != rows * alphabet.size:
            raise FormatError("probs array has the wrong number of entries")
        return cls(alphabet, order, flat.reshape(rows, alphabet.size))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True))

    @classmethod
    def load(cls, path) -> "TransitionKernel":
        return cls.from_json(read_json(path))


def read_json(path):
    """The JSON value stored in a file; FormatError if the file does not
    hold JSON text or an object in it repeats a key."""
    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except FormatError as exc:
        raise FormatError(f"{path} {exc}") from None
    except ValueError as exc:  # also undecodable bytes
        raise FormatError(f"{path} does not hold JSON: {exc}") from None


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; FormatError naming a key it repeats, which
    a plain dict would resolve silently to its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise FormatError(f"repeats the key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def json_fields(obj, what: str, *keys: str) -> list:
    """The values of `keys` in the JSON object `obj` describing a `what`;
    FormatError naming the first key it lacks."""
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise FormatError(f"{what} JSON lacks the key {key!r}")
    return [obj[key] for key in keys]


def json_alphabet(labels, what: str) -> Alphabet:
    """The alphabet of a `what` JSON object from its 'alphabet' value;
    FormatError unless that is a list of strings."""
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise FormatError(f"{what} JSON key 'alphabet' must hold a list of strings")
    return Alphabet(tuple(labels))


@dataclass(frozen=True)
class StationaryLaw:
    """Stationary distribution over a chain's states: for a kernel's context
    chain, over its context codes."""

    pi: np.ndarray
    solved: bool  # pi came from the direct solve, not from power iteration


def sample_kernel(
    alphabet_size: int, order: int, dirichlet_alpha: float, seed: int
) -> TransitionKernel:
    """Draw each context row independently from symmetric Dirichlet(alpha).

    Rows are normalized Gamma(alpha, 1) variates on the kernel stream of
    ``seed``, so the table is a deterministic function of its arguments.
    A table of more than `DEFAULT_TABLE_BUDGET` entries is a CapacityError,
    raised before anything is drawn.
    """
    if alphabet_size < 2:
        raise ParameterError("alphabet_size must be >= 2")
    if order < 0:
        raise ParameterError("order must be >= 0")
    if not dirichlet_alpha > 0:
        raise ParameterError("dirichlet_alpha must be positive")
    rows = alphabet_size**order
    if rows * alphabet_size > DEFAULT_TABLE_BUDGET:
        raise CapacityError(
            f"an order-{order} kernel over {alphabet_size} symbols needs "
            f"{rows * alphabet_size} entries (budget {DEFAULT_TABLE_BUDGET})"
        )
    rng = generator(seed, KERNEL_STREAM)
    g = rng.gamma(shape=dirichlet_alpha, scale=1.0, size=(rows, alphabet_size))
    totals = g.sum(axis=1, keepdims=True)
    if np.any(totals == 0):
        raise ParameterError("degenerate Dirichlet draw (alpha too small)")
    return TransitionKernel(Alphabet.of_size(alphabet_size), order, g / totals)


def _successors(kernel: TransitionKernel) -> np.ndarray:
    """(A^k, A) table of the context that follows context c on symbol y:
    (c * A + y) mod A^k, laid out like `kernel.probs`."""
    a = kernel.alphabet_size
    states = kernel.context_count
    return (np.arange(states, dtype=np.int64)[:, None] * a + np.arange(a)) % states


def _chain(kernel: TransitionKernel):
    """The context chain as its transposed transition matrix in CSR: entry
    (c', c) is P(c -> c'), so one step of a law pi is `chain @ pi`.  Zero
    probabilities are not stored, so they are not edges of the chain."""
    from scipy.sparse import csr_matrix  # scipy loads only where a law is solved

    states = kernel.context_count
    src = np.repeat(np.arange(states, dtype=np.int64), kernel.alphabet_size)
    chain = csr_matrix((kernel.probs.ravel(), (_successors(kernel).ravel(), src)),
                       shape=(states, states))
    chain.eliminate_zeros()
    return chain


def stationary_law(kernel: TransitionKernel) -> StationaryLaw:
    """Stationary law of the kernel's context chain (`_stationary`),
    computed once per kernel."""
    if kernel._stationary is None:
        kernel._stationary = _stationary(_chain(kernel))
    return kernel._stationary


def _stationary(chain) -> StationaryLaw:
    """Stationary law of an irreducible chain given as its transposed
    transition matrix (`_chain`): power iteration, with a sparse direct
    solve for slowly mixing chains.

    Power iteration runs on the half-lazy chain (pi + pi P)/2, whose fixed
    point is the same but which also converges for periodic chains, until
    the true invariance residual TV(pi, pi P) drops below 1e-12 or the
    floating-point floor, for at most 4096 steps.  Chains with a tiny
    spectral gap (seen in practice for high-order, low-concentration
    Dirichlet kernels) cannot reach the tolerance by iteration alone; those
    fall back to solving pi (P - I) = 0 directly, with the last equation
    replaced by the normalization row, and the result is still checked
    against the invariance tolerance.  The fallback comes as soon as the
    residual, decaying at its rate over the last 256 steps, would still be
    100 times the tolerance at the cap: the decay tends only to slow as the
    slowest mode takes over, so such a chain would reach the cap.
    """
    # scipy loads only where a law is solved
    from scipy.sparse import identity
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import spsolve

    states = chain.shape[0]
    n_comp, _ = connected_components(chain, directed=True, connection="strong")
    if n_comp != 1:
        raise ErgodicityError(f"chain is reducible ({n_comp} strongly connected components)")
    pi = np.full(states, 1.0 / states)
    prev_residual = math.inf
    logs = []  # log residual per step
    converged = False
    for step in range(_POWER_STEPS):
        stepped = chain @ pi
        residual = 0.5 * np.abs(stepped - pi).sum()
        if residual < 1e-15 or (residual >= prev_residual and residual < _STATIONARY_TOL):
            converged = True
            break
        prev_residual = residual
        logs.append(math.log(residual))
        if step >= _DECAY_WINDOW:
            rate = (logs[-1] - logs[-1 - _DECAY_WINDOW]) / _DECAY_WINDOW
            if logs[-1] + rate * (_POWER_STEPS - 1 - step) > math.log(100 * _STATIONARY_TOL):
                break
        pi = 0.5 * (pi + stepped)
    if not converged:
        system = (chain - identity(states, format="csr")).tolil()
        system[states - 1, :] = 1.0
        rhs = np.zeros(states)
        rhs[-1] = 1.0
        pi = spsolve(system.tocsr(), rhs)
        residual = 0.5 * np.abs(chain @ pi - pi).sum()
        if not residual < max(_STATIONARY_TOL, 1e-10):
            raise ErgodicityError(
                f"stationary solve left invariance residual {residual:.3e}"
            )
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum()
    pi.flags.writeable = False
    return StationaryLaw(pi, not converged)


def sample_sequence(kernel: TransitionKernel, n: int, seed: int) -> np.ndarray:
    """Sample n symbols, starting from a stationary initial context.

    The sequence stream of `seed` supplies one uniform for the initial
    context and then one per symbol, in order, and each symbol is the
    first y with u < P(0|c) + ... + P(y|c) for the current context c.  The
    output is a function of (kernel, n, seed) alone: it does not depend on
    how the uniforms are drawn in blocks or how the run is cut into chunks
    (`lockstep.run_states`).

    A lockstep step finds each run's symbol through a guide table (Chen &
    Asau 1974): the uniform's bucket of [0, 1) fixes the symbol up to the
    few cumulative bounds inside that bucket, so a step compares against
    those alone rather than against all A - 1 bounds.  The bucket count
    is read off the kernel (`_guide_buckets`).

    Speculative chunks start from the two most probable contexts and meet
    the true run where two chains that share uniforms couple.  Slowly
    mixing chains can linger near the most probable context, even for
    whole chunks, and the second start covers the rest of the time.

    The symbols come in the smallest unsigned dtype that holds A - 1,
    uint8 for up to 256 symbols.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    law = stationary_law(kernel)
    rng = generator(seed, SEQUENCE_STREAM)
    a = kernel.alphabet_size
    k = kernel.order

    pi_cum = np.cumsum(law.pi)
    pi_cum[-1] = 1.0
    ctx = int(np.searchsorted(pi_cum, rng.random(), side="right"))

    cum = np.cumsum(kernel.probs, axis=1)
    cum[:, -1] = 1.0

    dtype = np.min_scalar_type(a - 1)
    if k == 0:
        return np.searchsorted(cum[0], rng.random(n), side="right").astype(dtype)

    states = a**k
    rows = cum.tolist()
    buckets = _guide_buckets(cum)
    nextlo, inside = _guide_table(cum, buckets)
    # each cell's successor on its least symbol; the symbol u draws adds
    # the number of bounds inside the cell at or below u
    nextlo += np.repeat(_successors(kernel)[:, 0], buckets)

    def advance(ctx: np.ndarray, us: np.ndarray) -> np.ndarray:
        if buckets > 1:
            ctx = ctx * buckets
            ctx += (us * buckets).astype(np.int64)  # exact: a power of two
        nxt = nextlo[ctx]
        for bound in inside:
            nxt += bound[ctx] <= us
        return nxt

    def run(ctx: int, us: np.ndarray) -> list[int]:
        out = []
        append = out.append
        for u in us.tolist():
            row = rows[ctx]
            y = 0
            while u >= row[y]:
                y += 1
            ctx = (ctx * a + y) % states
            append(ctx)
        return out

    def draw(pos: int, size: int) -> np.ndarray:
        return rng.random(size)  # the stream is read in order

    out = np.empty(n, dtype=dtype)
    pos = 0
    guesses = tuple(np.argsort(-law.pi, kind="stable")[:2].tolist())
    # chains that share uniforms take longer to couple the more contexts there are
    for block in run_states(n, draw, ctx, advance, run, guesses, 4 * states, states):
        # a signed loop: A itself need not fit the blocks' unsigned dtype
        np.remainder(block, a, out=out[pos : pos + len(block)], dtype=np.int64, casting="unsafe")
        pos += len(block)
    return out


def _guide_buckets(cum: np.ndarray) -> int:
    """The guide table's bucket count B for a (contexts, A) table of
    cumulative rows: the power of two whose lockstep step makes the fewest
    numpy calls.  With B = 1 a step is a gather and three calls per bound,
    3(A - 1); with B > 1 it is three calls to find the cell and three per
    bound in the fullest cell.  Only alphabets of 4 or more symbols can
    gain, and B stays within 8A and within `_GUIDE_CELLS` cells."""
    contexts, a = cum.shape
    best, fewest = 1, 3 * (a - 1)
    buckets = 2
    while a >= 4 and buckets <= 8 * a and contexts * buckets <= _GUIDE_CELLS:
        cells = _inner_bounds(cum, buckets)[2]
        calls = 3 * np.bincount(cells).max(initial=0) + 3
        if calls < fewest:
            best, fewest = buckets, calls
        buckets *= 2
    return best


def _inner_bounds(cum: np.ndarray, buckets: int):
    """The bounds cum[:, :-1] that lie strictly inside a bucket
    (b/B, (b + 1)/B) of [0, 1): their rows, their columns, and their
    cells, row * B + b."""
    scaled = cum[:, :-1] * buckets  # exact: B is a power of two
    low = np.floor(scaled)
    rows, cols = np.nonzero((scaled > low) & (low < buckets))
    return rows, cols, rows * buckets + low[rows, cols].astype(np.int64)


def _guide_table(cum: np.ndarray, buckets: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The guide table of a (contexts, A) table of cumulative rows, with
    `buckets` (a power of two, B) buckets of [0, 1) per row.

    For row c and bucket b, cell c * B + b: lo[cell] is the number of the
    row's bounds cum[c, :-1] at or below b/B, and inside[j][cell] its j-th
    bound strictly inside the bucket, inf where there are fewer.  For u in
    the bucket, the number of bounds at or below u, which is the symbol u
    draws, is lo[cell] plus the number of inside[j][cell] <= u: the bounds
    at or above (b + 1)/B are all above u.  With B = 1 and no bound at 0
    or 1, lo is 0 and inside holds the columns of cum[:, :-1].
    """
    contexts = len(cum)
    # the first bucket whose low edge is at or above each bound; the bound
    # counts in lo from there on
    first = np.minimum(np.ceil(cum[:, :-1] * buckets), buckets).astype(np.int64)
    first += np.arange(contexts)[:, None] * (buckets + 1)
    lo = np.bincount(first.ravel(), minlength=contexts * (buckets + 1))
    lo = lo.reshape(contexts, buckets + 1)[:, :buckets].cumsum(axis=1).ravel()
    rows, cols, cells = _inner_bounds(cum, buckets)
    # a row's bounds ascend, so a bucket's inner bounds follow the lo below it
    rank = cols - lo[cells]
    inside = np.full((rank.max(initial=-1) + 1, contexts * buckets), np.inf)
    inside[rank, cells] = cum[rows, cols]
    return lo, list(inside)


def window_law(kernel: TransitionKernel, length: int) -> np.ndarray:
    """Exact stationary joint of `length` consecutive symbols, flat base-A
    (oldest symbol most significant)."""
    a = kernel.alphabet_size
    k = kernel.order
    if length < 0:
        raise ParameterError("window length must be >= 0")
    if a**max(length, 1) > DEFAULT_TABLE_BUDGET:
        raise CapacityError(
            f"joint over {length} symbols needs {a**length} entries "
            f"(budget {DEFAULT_TABLE_BUDGET})"
        )
    pi = stationary_law(kernel).pi
    if length == 0:
        return np.array([1.0])
    if length <= k:
        return pi.reshape(a ** (k - length), a**length).sum(axis=0)
    joint = pi.copy()
    for _ in range(k, length):
        # suffix context = least-significant k digits = second reshape axis
        joint = (joint.reshape(-1, a**k)[:, :, None] * kernel.probs[None, :, :]).reshape(-1)
    return joint


def conditional_entropy(kernel: TransitionKernel, w: int) -> float:
    """H(Y_0 | previous w symbols) in bits, from the exact stationary joint.

    Symbols beyond the order k carry no information about the next one,
    so only the last m = min(w, k) are read: one compensated pass over
    the (m+1)-symbol joint.  The w >= k plateau is therefore exactly flat,
    every value equal to `entropy_rate(kernel)`.
    """
    if w < 0:
        raise ParameterError("w must be >= 0")
    m = min(w, kernel.order)
    return cond_entropy_bits(window_law(kernel, m + 1).reshape(-1, kernel.alphabet_size))


def cond_entropy_bits(table: np.ndarray) -> float:
    """H(target | context) in bits from a (contexts, targets) joint mass
    matrix, as one compensated sum over its nonzero entries."""
    totals = table.sum(axis=1)
    rows, cols = np.nonzero(table)
    p = table[rows, cols]
    terms = p * (np.log2(totals[rows]) - np.log2(p))
    return math.fsum(terms.tolist())


def entropy_rate(kernel: TransitionKernel) -> float:
    """Minimum per-symbol loss once the context covers the order."""
    return conditional_entropy(kernel, kernel.order)


def min_transition_prob(kernel: TransitionKernel) -> float:
    """The positivity floor delta = min over (context, symbol) of P(y|c)."""
    return float(kernel.probs.min())


def write_sequence(path, seq: np.ndarray, alphabet: Alphabet) -> None:
    """Raw bytes of symbol indices plus a JSON sidecar naming the alphabet."""
    if alphabet.size > 256:
        raise FormatError("raw sequence files support at most 256 symbols")
    seq = alphabet.encode(seq)
    Path(path).write_bytes(seq.astype(np.uint8, copy=False).tobytes())
    sidecar = {"alphabet": list(alphabet.symbols), "length": int(seq.size)}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True))


def read_sequence(path) -> tuple[np.ndarray, Alphabet]:
    """The symbol indices and alphabet that `write_sequence` stored;
    FormatError when the sidecar is not such JSON or does not match."""
    labels, length = json_fields(read_json(str(path) + ".json"), "sequence sidecar",
                                 "alphabet", "length")
    alphabet = json_alphabet(labels, "sequence sidecar")
    raw = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8)
    if raw.size != length:
        raise FormatError("sequence file length does not match sidecar")
    seq = raw.copy()  # writable, and uint8 as `sample_sequence` returns it
    if seq.size and seq.max() >= alphabet.size:
        raise FormatError("sequence contains indices outside the alphabet")
    return seq, alphabet
