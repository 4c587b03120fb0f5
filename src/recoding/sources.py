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
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

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

    def index(self, label: str) -> int:
        try:
            return self.symbols.index(label)
        except ValueError:
            raise AlphabetError(f"unknown symbol {label!r}") from None

    def encode(self, data) -> np.ndarray:
        """Coerce a string, label sequence, or index array to int32 indices."""
        if isinstance(data, np.ndarray) and data.dtype.kind in "iu":
            idx = data.astype(np.int32, copy=False)
        elif isinstance(data, str):
            lut = {s: i for i, s in enumerate(self.symbols)}
            try:
                idx = np.fromiter((lut[ch] for ch in data), dtype=np.int32, count=len(data))
            except KeyError as e:
                raise AlphabetError(f"unknown symbol {e.args[0]!r}") from None
        else:
            seq = list(data)
            if seq and isinstance(seq[0], str):
                lut = {s: i for i, s in enumerate(self.symbols)}
                try:
                    idx = np.fromiter((lut[x] for x in seq), dtype=np.int32, count=len(seq))
                except KeyError as e:
                    raise AlphabetError(f"unknown symbol {e.args[0]!r}") from None
            else:
                idx = np.asarray(seq, dtype=np.int32)
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            raise AlphabetError("symbol index out of range")
        return idx

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
        if np.any(probs < 0):
            raise FormatError("transition probabilities must be non-negative")
        if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-12):
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
    hold JSON text."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # also undecodable bytes
        raise FormatError(f"{path} does not hold JSON: {exc}") from None


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
    """Stationary distribution over length-k contexts."""

    kernel: TransitionKernel
    pi: np.ndarray
    solved: bool  # pi came from the direct solve, not from power iteration


def sample_kernel(
    alphabet_size: int, order: int, dirichlet_alpha: float, seed: int
) -> TransitionKernel:
    """Draw each context row independently from symmetric Dirichlet(alpha).

    Rows are normalized Gamma(alpha, 1) variates on the kernel stream of
    ``seed``, so the table is a deterministic function of its arguments.
    """
    if alphabet_size < 2:
        raise ParameterError("alphabet_size must be >= 2")
    if order < 0:
        raise ParameterError("order must be >= 0")
    if not dirichlet_alpha > 0:
        raise ParameterError("dirichlet_alpha must be positive")
    rng = generator(seed, KERNEL_STREAM)
    rows = alphabet_size**order
    g = rng.gamma(shape=dirichlet_alpha, scale=1.0, size=(rows, alphabet_size))
    totals = g.sum(axis=1, keepdims=True)
    if np.any(totals == 0):
        raise ParameterError("degenerate Dirichlet draw (alpha too small)")
    return TransitionKernel(Alphabet.of_size(alphabet_size), order, g / totals)


def _context_step(kernel: TransitionKernel, pi: np.ndarray) -> np.ndarray:
    """One update of the context chain: new state drops the oldest symbol."""
    a = kernel.alphabet_size
    k = kernel.order
    t = pi[:, None] * kernel.probs  # (A^k, A)
    if k == 0:
        return np.array([t.sum()])
    # context code = oldest * A^(k-1) + rest; next code = rest * A + y
    return t.reshape(a, a ** (k - 1), a).sum(axis=0).reshape(-1)


def _check_irreducible(kernel: TransitionKernel) -> None:
    a = kernel.alphabet_size
    k = kernel.order
    states = a**k
    if states == 1:
        return
    src = np.repeat(np.arange(states, dtype=np.int64), a)
    sym = np.tile(np.arange(a, dtype=np.int64), states)
    dst = (src * a + sym) % states
    weight = kernel.probs.ravel()
    keep = weight > 0
    graph = coo_matrix(
        (np.ones(int(keep.sum())), (src[keep], dst[keep])), shape=(states, states)
    )
    n_comp, _ = connected_components(graph, directed=True, connection="strong")
    if n_comp != 1:
        raise ErgodicityError(
            f"context chain is reducible ({n_comp} strongly connected components)"
        )


def _solve_stationary(kernel: TransitionKernel) -> np.ndarray:
    """Direct sparse solve of pi = pi P with the normalization row."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import spsolve

    a = kernel.alphabet_size
    states = kernel.context_count
    src = np.repeat(np.arange(states, dtype=np.int64), a)
    sym = np.tile(np.arange(a, dtype=np.int64), states)
    dst = (src * a + sym) % states
    chain = coo_matrix((kernel.probs.ravel(), (src, dst)), shape=(states, states)).tocsr()
    system = (chain.T - identity(states, format="csr")).tolil()
    system[states - 1, :] = 1.0
    rhs = np.zeros(states)
    rhs[-1] = 1.0
    pi = spsolve(system.tocsr(), rhs)
    return pi


def stationary_law(kernel: TransitionKernel) -> StationaryLaw:
    """Stationary context law: power iteration, with a sparse direct solve
    for slowly mixing chains.

    Power iteration runs on the half-lazy chain (pi + pi P)/2, whose fixed
    point is the same but which also converges for periodic chains, until
    the true invariance residual TV(pi, pi P) drops below 1e-12 or the
    floating-point floor, for at most 4096 steps.  Chains with a tiny
    spectral gap (seen in practice for high-order, low-concentration
    Dirichlet kernels) cannot reach the tolerance by iteration alone; those
    fall back to solving pi (P - I) = 0 directly, and the result is still
    checked against the invariance tolerance.  The fallback comes as soon
    as the residual, decaying at its rate over the last 256 steps, would
    still be 100 times the tolerance at the cap: the decay tends only to
    slow as the slowest mode takes over, so such a chain would reach the
    cap.
    """
    if kernel._stationary is not None:
        return kernel._stationary
    _check_irreducible(kernel)
    states = kernel.context_count
    pi = np.full(states, 1.0 / states)
    prev_residual = math.inf
    logs = []  # log residual per step
    converged = False
    for step in range(_POWER_STEPS):
        stepped = _context_step(kernel, pi)
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
        pi = _solve_stationary(kernel)
        residual = 0.5 * np.abs(_context_step(kernel, pi) - pi).sum()
        if not residual < max(_STATIONARY_TOL, 1e-10):
            raise ErgodicityError(
                f"stationary solve left invariance residual {residual:.3e}"
            )
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum()
    pi.flags.writeable = False
    law = StationaryLaw(kernel, pi, not converged)
    kernel._stationary = law
    return law


def sample_sequence(kernel: TransitionKernel, n: int, seed: int) -> np.ndarray:
    """Sample n symbols, starting from a stationary initial context.

    The sequence stream of `seed` supplies one uniform for the initial
    context and then one per symbol, in order, and each symbol is the
    first y with u < P(0|c) + ... + P(y|c) for the current context c.  The
    output is a function of (kernel, n, seed) alone: it does not depend on
    how the uniforms are drawn in blocks or how the run is cut into chunks
    (`lockstep.run_states`).  Speculative chunks start from the two most
    probable contexts and meet the true run where two chains that share
    uniforms couple; slowly mixing chains can linger near the most
    probable context, and the second start covers the rest of the time.
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

    if k == 0:
        return np.searchsorted(cum[0], rng.random(n), side="right").astype(np.int32)

    states = a**k
    rows = cum.tolist()
    # a context's successor on symbol 0; symbol y adds y, the number of
    # cumulative probabilities at or below u other than the last
    shifted = np.arange(states) % (states // a) * a
    bounds = [np.ascontiguousarray(col) for col in cum.T[:-1]]

    def advance(ctx: np.ndarray, us: np.ndarray) -> np.ndarray:
        nxt = shifted[ctx]
        for bound in bounds:
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

    out = np.empty(n, dtype=np.int32)
    pos = 0
    guesses = tuple(np.argsort(-law.pi, kind="stable")[:2].tolist())
    # chains that share uniforms take longer to couple the more contexts there are
    for block in run_states(n, draw, ctx, advance, run, guesses, 4 * states):
        np.remainder(block, a, out=out[pos : pos + len(block)], casting="unsafe")
        pos += len(block)
    return out


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

    Computed in a single compensated pass over the (w+1)-symbol joint
    rather than as a difference of entropies, to keep the w >= k plateau
    flat to within 1e-12.
    """
    if w < 0:
        raise ParameterError("w must be >= 0")
    a = kernel.alphabet_size
    needed = a ** (max(w, kernel.order) + 1)
    if needed > DEFAULT_TABLE_BUDGET:
        raise CapacityError(
            f"conditional entropy at w={w} needs {needed} table entries "
            f"(budget {DEFAULT_TABLE_BUDGET})"
        )
    return cond_entropy_bits(window_law(kernel, w + 1).reshape(-1, a))


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
    Path(path).write_bytes(seq.astype(np.uint8).tobytes())
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
    seq = raw.astype(np.int32)
    if seq.size and seq.max() >= alphabet.size:
        raise FormatError("sequence contains indices outside the alphabet")
    return seq, alphabet
