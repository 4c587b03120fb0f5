import hashlib

import pytest

from recoding.demo_text import synthesize_corpus


@pytest.mark.parametrize("seed, digest", [
    (0, "f3099c0b5bc7e2aaf87fea797d7ddcd8527189efc5ebb719c1da13f089c7f49b"),
    (1, "e25f8970a85028aeab35e19baa9b397b9bf3b5783f69ea9bf60f6406190993dd"),
    (2, "0f23ffea3fbe920241d8fbe1477974d04aba846de342995dc6695d0f44e2c7c8"),
])
def test_corpus_is_pinned(seed, digest):
    """The corpus is a pure function of (n_chars, seed): these digests were
    taken when every word was drawn with Generator.choice."""
    text = synthesize_corpus(20_000, seed)
    assert len(text) == 20_000
    assert hashlib.sha256(text.encode()).hexdigest() == digest
