"""Data-parallel runs of a deterministic finite-state machine over an input
fixed in advance (Mytkowicz, Musuvathi & Schulte, "Data-Parallel
Finite-State Machines", ASPLOS 2014).

The input is read in blocks of about 2^20 positions.  A block is cut into
chunks of one length, and every chunk advances at once, one numpy step per
position, from each of a few guessed start states.  The seams are then
repaired in order.  A chunk whose true start state is a guess is already
right.  Otherwise it reruns with the exact per-position loop from its true
start state, over slices of doubling width, until a slice ends in a state
that a speculative run of the chunk holds at that index.  From there both
runs read the same input from the same state, so that run is right for
the rest of the chunk.  The states are therefore exactly those of one
sequential run, whatever the chunk length.

A seam whose runs never meet costs its whole chunk twice.  So after each
block the chunk length grows fourfold when more than half of the block
was rerun, and once a block would hold fewer than `_MIN_CHUNKS` chunks it
runs as one chunk, which is the sequential loop.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK = 1 << 20
# Below this many chunks a lockstep step costs more than the positions it
# advances would cost one at a time.
_MIN_CHUNKS = 32
# The first rerun slice at a seam; each further slice is twice as wide.
_FIRST_SLICE = 8
# The longest slice run one position at a time in one call: its states are
# a list of Python ints.
_SLICE = 1 << 14


def run_states(n: int, read, state: int, advance, run, guesses: tuple, coupling: int):
    """Yield, one block at a time, the state after every one of n input
    positions as an int64 array, starting from `state`.

    read(pos, size) returns inputs pos .. pos + size - 1 as an array, and is
    called for consecutive ranges in order; run(state, xs) returns the
    state after each input of xs as a list, one position at a time;
    advance(states, xs) does one step of many runs at once: it maps a
    (guesses, chunks) array of states and the chunks' next inputs to their
    next states.  `guesses` are the speculative start states, and
    `coupling` a first guess at how many positions two runs from
    different states take to meet.
    """
    length = _first_length(min(n, _BLOCK), coupling)
    pos = 0
    while pos < n:
        # whole chunks, or a plain block once a chunk outgrows one
        size = min(n - pos, _BLOCK // length * length or _BLOCK)
        xs = read(pos, size)
        if size // length < _MIN_CHUNKS:
            states = _run_through(xs, state, run)
        else:
            states, rerun = _lockstep(xs, state, length, advance, run, guesses)
            if 2 * rerun > size:
                length *= 4
        yield states
        state = int(states[-1])
        pos += size


def _run_through(xs: np.ndarray, state: int, run) -> np.ndarray:
    """The state after every position of xs from `state`, one position at
    a time, in slices that keep run's lists short."""
    states = np.empty(len(xs), dtype=np.int64)
    for lo in range(0, len(xs), _SLICE):
        part = run(state, xs[lo : lo + _SLICE])
        states[lo : lo + len(part)] = part
        state = part[-1]
    return states


def _first_length(size: int, coupling: int) -> int:
    """The first block's chunk length: at least `coupling`, and at least
    the square root of the block size, where the per-step cost of the
    lockstep run and the per-seam cost of the repair balance."""
    return max(coupling, math.isqrt(size))


def _lockstep(xs: np.ndarray, state: int, length: int, advance, run, guesses: tuple):
    """The state after every position of xs from `state`, and the number of
    positions rerun at seams."""
    n = len(xs)
    chunks = n // length
    spec_end = chunks * length
    # spec[g]: every chunk's run from guess g; spec[0] becomes the answer
    spec = np.empty((len(guesses), n), dtype=np.int64)
    grid = xs[:spec_end].reshape(chunks, length)
    runs = spec[:, :spec_end].reshape(len(guesses), chunks, length)
    cur = np.repeat(np.array(guesses, dtype=np.int64)[:, None], chunks, axis=1)
    cur[:, 0] = state
    for t in range(length):
        cur = advance(cur, grid[:, t])
        runs[:, :, t] = cur

    # the positions past the last whole chunk have no speculative state
    states = spec[0]
    rerun = 0
    for lo in range(length, n, length):
        hi = min(lo + length, n)
        state = int(states[lo - 1])
        met = guesses.index(state) if lo < spec_end and state in guesses else -1
        width = _FIRST_SLICE
        while met < 0 and lo < hi:
            end = min(lo + width, hi)
            true = run(state, xs[lo:end])
            rerun += end - lo
            state = true[-1]
            if end <= spec_end:
                held = spec[:, end - 1].tolist()
                met = held.index(state) if state in held else -1
            states[lo:end] = true
            lo = end
            width *= 2
        if met > 0:
            states[lo:hi] = spec[met, lo:hi]
    return states, rerun
