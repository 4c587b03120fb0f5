"""Data-parallel runs of a deterministic finite-state machine over an input
fixed in advance (Mytkowicz, Musuvathi & Schulte, "Data-Parallel
Finite-State Machines", ASPLOS 2014).

The input is read in blocks of about 2^22 positions.  A block is cut into
chunks of one length, and every chunk advances at once, one numpy step per
position, from each of a few guessed start states.  Every chunk but the
first starts its guesses' runs a few positions early, over the last inputs
of the chunk before it, so that runs which couple within those positions
reach the chunk start in the true state already (warm-up).  A block whose
chunks are at most `_TILE` positions long is read at once; a block of
longer chunks is read in tiles, `_TILE` positions of every chunk at a
time, so that the inputs held at once do not grow with the chunks.  The
speculative runs are stored time-major, step t of every chunk in one
contiguous row per guess, in the smallest unsigned dtype that holds the
machine's state count; the live states and the caller's tables stay int64.
The seams are then repaired in order.  A chunk whose true start state is
the state one of its runs holds at the chunk start is already right.
Otherwise it reruns with the exact per-position loop from its true start
state, over slices of doubling width, until a slice ends in a state that a
speculative run of the chunk holds at that index.  From there both runs
read the same input from the same state, so that run is right for the
rest of the chunk.  The states are therefore exactly those of one
sequential run, whatever the chunk length, the warm-up and the tiles.
With two guesses or more, the repaired states are laid out in input order
over the last guess's runs, which the repair no longer needs.

A seam whose runs never meet costs its whole chunk twice.  So after each
block the chunk length grows fourfold when more than half of the block
was rerun, and once a block would hold fewer than `_MIN_CHUNKS` chunks it
runs as one chunk, which is the sequential loop.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK = 1 << 22
# Chunks up to this long are read with their whole block; longer ones in
# tiles of this many positions per chunk.
_TILE = 1 << 11
# Below this many chunks a lockstep step costs more than the positions it
# advances would cost one at a time.
_MIN_CHUNKS = 32
# The first rerun slice at a seam; each further slice is twice as wide, up
# to `_TILE`.
_FIRST_SLICE = 8
# The longest slice run one position at a time in one call: its states are
# a list of Python ints.
_SLICE = 1 << 14


def run_states(n: int, read, state: int, advance, run, guesses: tuple, coupling: int,
               states: int):
    """Yield, one block of up to 2^22 positions at a time, the state after
    every one of n input positions, starting from `state`, as an array of
    the smallest unsigned dtype that holds `states`, the machine's state
    count (states are 0 .. states - 1).

    read(pos, size) returns inputs pos .. pos + size - 1 as an array, for
    any range and in any order; a block of chunks longer than `_TILE` asks
    for at most `_TILE` positions of one chunk per call, and reads each
    chunk's tiles in order.  run(state, xs) returns the state after each
    input of xs as a list, one position at a time; advance(states, xs)
    does one step of many runs at once: it maps a (guesses, chunks) int64
    array of states and the chunks' next inputs to their next states.
    `guesses` are the speculative start states, and `coupling` a first
    guess at how many positions two runs from different states take to
    meet.
    """
    dtype = np.min_scalar_type(states - 1)
    length = _first_length(min(n, _BLOCK), coupling)
    pos = 0
    while pos < n:
        # whole chunks, or a plain block once a chunk outgrows one
        size = min(n - pos, _BLOCK // length * length or _BLOCK)
        if size // length < _MIN_CHUNKS:
            out = _run_through(read, pos, size, state, run, dtype)
        else:
            warm = min(coupling, length // 4)
            out, rerun = _lockstep(read, pos, size, state, length, advance, run, guesses, dtype,
                                   warm)
            if 2 * rerun > size:
                length *= 4
        yield out
        state = int(out[-1])
        pos += size
        del out  # before the next block is run


def _run_through(read, pos: int, size: int, state: int, run, dtype) -> np.ndarray:
    """The state after every one of the `size` positions from `pos` on,
    from `state`, one position at a time.  The inputs are read and run one
    slice at a time, which keeps both run's lists and the inputs held at
    once short."""
    states = np.empty(size, dtype=dtype)
    for lo in range(0, size, _SLICE):
        part = run(state, read(pos + lo, min(_SLICE, size - lo)))
        states[lo : lo + len(part)] = part
        state = part[-1]
    return states


def _first_length(size: int, coupling: int) -> int:
    """The first block's chunk length: at least `coupling`, and at least
    the square root of the block size, where the per-step cost of the
    lockstep run and the per-seam cost of the repair balance.  The
    warm-up before each chunk is then `coupling` steps, or a quarter of
    the chunk when that is shorter."""
    return max(coupling, math.isqrt(size))


def _tile(read, starts: range, lo: int, hi: int) -> np.ndarray:
    """Inputs lo .. hi - 1 of each chunk that starts at one of `starts`,
    one row per chunk."""
    tile = None
    for row, start in enumerate(starts):
        xs = read(start + lo, hi - lo)
        if tile is None:
            tile = np.empty((len(starts), hi - lo), dtype=xs.dtype)
        tile[row] = xs
    return tile


def _lockstep(read, pos: int, size: int, state: int, length: int, advance, run,
              guesses: tuple, dtype, warm: int):
    """The state after every one of the `size` positions from `pos` on,
    from `state`, and the number of positions rerun at seams.  The runs of
    every chunk but the first start `warm` (< length) positions early."""
    chunks = size // length
    whole = chunks * length
    starts = range(pos, pos + whole, length)
    grid = read(pos, whole).reshape(chunks, length) if length <= _TILE else None

    def inputs(rows: slice, lo: int, hi: int) -> np.ndarray:
        """Inputs lo .. hi - 1 of the chunks `rows`, one row per chunk."""
        return _tile(read, starts[rows], lo, hi) if grid is None else grid[rows, lo:hi]

    # runs[g, t, c]: chunk c's state after its position t in the run from
    # guess g; the repair makes runs[0] the answer.  Room for the block's
    # tail follows the last guess's runs.
    guessed = len(guesses)
    buf = np.empty((guessed - 1) * whole + size, dtype=dtype)
    runs = buf[: guessed * whole].reshape(guessed, length, chunks)
    cur = np.repeat(np.array(guesses, dtype=np.int64)[:, None], chunks, axis=1)
    later = cur[:, 1:]
    for lo in range(length - warm, length, _TILE) if chunks > 1 else ():
        tile = inputs(slice(0, chunks - 1), lo, min(lo + _TILE, length))
        for t in range(tile.shape[1]):
            later = advance(later, tile[:, t])
        del tile  # before the next one is read
    cur[:, 1:] = later
    cur[:, 0] = state
    # start[c][g]: the state chunk c's run from guess g starts the chunk in
    start = cur.T.tolist()
    for lo in range(0, length, _TILE):
        tile = inputs(slice(None), lo, min(lo + _TILE, length))
        for t in range(tile.shape[1]):
            cur = advance(cur, tile[:, t])
            runs[:, lo + t] = cur
        del tile

    rerun = 0
    for c in range(1, chunks):
        own = runs[:, :, c]  # the chunk's runs, (guess, position in the chunk)
        state = int(runs[0, -1, c - 1])
        met = start[c].index(state) if state in start[c] else -1
        lo, width = 0, _FIRST_SLICE
        while met < 0 and lo < length:
            end = min(lo + width, length)
            true = run(state, inputs(slice(c, c + 1), lo, end)[0])
            rerun += end - lo
            state = true[-1]
            held = own[:, end - 1].tolist()
            met = held.index(state) if state in held else -1
            own[0, lo:end] = true
            lo = end
            width = min(2 * width, _TILE)
        if met > 0:
            own[0, lo:] = own[met, lo:]
    del grid  # the inputs go before the answer is laid out
    # the positions past the last whole chunk have no speculative state
    tail = _run_through(read, pos + whole, size - whole, int(runs[0, -1, -1]), run, dtype)
    # in input order, over the last guess's runs, which the repair no
    # longer reads, unless they are the answer's
    states = buf[(guessed - 1) * whole :] if guessed > 1 else np.empty(size, dtype=dtype)
    states[:whole].reshape(chunks, length)[...] = runs[0].T
    states[whole:] = tail
    return states, rerun + tail.size
