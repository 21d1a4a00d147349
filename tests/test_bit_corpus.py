"""Every output of the bit-identity corpus holds to the bit, and each regime reaches its branch."""

import json

import pytest

import bit_corpus

RECORD = json.loads(bit_corpus.PATH.read_text())


def test_record_names_every_regime():
    assert list(RECORD) == list(bit_corpus.REGIMES)


@pytest.mark.parametrize("name", list(bit_corpus.REGIMES))
def test_regime_holds_its_bits(name):
    count, reached, blocks = bit_corpus.run(name)
    want = RECORD[name]
    assert count == want["count"] and len(blocks) == len(want["blocks"])
    moved = [i for i, (got, old) in enumerate(zip(blocks, want["blocks"])) if got != old]
    assert not moved, f"{name}: blocks {moved} of {bit_corpus.BLOCK} outputs each changed"
    assert reached == want["reached"] > 0, f"{name}: {reached} inputs reached its branch"
