"""Working memory of the token path, in traced bytes per symbol.

tracemalloc sees numpy's array buffers, so a call's traced peak is the
most its arrays held at once.  The budgets sit between the bounded
working sets and the whole-array ones they replaced: the sampler read
every uniform of a lockstep block at once (about 13.4 bytes per symbol
here) and the transfer evaluation held a dozen arrays the length of the
stream (about 101).
"""

import tracemalloc

import recoding as r

N = 2**21


def traced_peak(fn, *args) -> int:
    """The traced peak of fn(*args), in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampler_holds_a_few_bytes_per_symbol():
    """Order 12, binary: a lockstep block holds two guesses' uint16 states
    and a tile of uniforms, and the uint8 symbols."""
    kernel = r.sample_kernel(2, 12, 0.4, 3)
    r.stationary_law(kernel)  # cached on the kernel, outside the budget
    assert traced_peak(r.sample_sequence, kernel, N, 3) < 8 * N


def test_evaluation_holds_its_outputs_and_a_slice():
    """The identity parse of 2^19 symbols: the losses, stops and valid
    mask (17 bytes per token) and one slice's working arrays."""
    n = 2**19
    kernel = r.sample_kernel(2, 2, 0.5, 3)
    seq = r.sample_sequence(kernel, n, 3)
    vocab = r.PrefixVocabulary(kernel.alphabet, [])
    stream = r.greedy_parse(vocab, seq)
    stream.offsets  # cached on the stream, outside the budget
    tp = r.TransferredPredictor(r.optimal_predictor(kernel, 4).smoothed(1e-6), vocab, 4)
    assert traced_peak(tp.token_log_losses, stream) < 40 * n
