"""Key folding: `fold` continues a `mix` from a folded prefix, and `mix`
keeps the SplitMix64 chain every stored stream key was made with."""

from hypothesis import given, settings
from hypothesis import strategies as st

from steprouter import seeds

MASK64 = (1 << 64) - 1

PARTS = st.lists(st.one_of(st.integers(-(1 << 70), 1 << 70), st.text(max_size=6)), max_size=5)


def reference_mix(*parts):
    """The chain written out: one SplitMix64 step of h ^ part per part."""
    h = 0x243F6A8885A308D3
    for part in parts:
        if isinstance(part, str):
            part = seeds._fold_str(part)
        x = ((h ^ (int(part) & MASK64)) + 0x9E3779B97F4A7C15) & MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
        h = x ^ (x >> 31)
    return h


@settings(max_examples=400, deadline=None)
@given(prefix=PARTS, rest=PARTS)
def test_fold_continues_mix(prefix, rest):
    h = seeds.mix(*prefix)
    assert seeds.fold(h, *rest) == seeds.mix(*prefix, *rest)
    assert seeds.fold_uniform(h, *rest) == seeds.unit_uniform(*prefix, *rest)


@settings(max_examples=400, deadline=None)
@given(parts=PARTS)
def test_mix_is_the_splitmix_chain(parts):
    assert seeds.mix(*parts) == reference_mix(*parts)
    assert seeds.fold(seeds.mix(*parts)) == seeds.mix(*parts)


def test_pinned_keys():
    # values the chain gave before fold existed; every stored key depends on them
    assert seeds.mix() == 0x243F6A8885A308D3
    assert seeds.mix(0) == 0x2CB0F69F4ABEA221
    assert seeds.mix(7, "PartialObs", 3) == 0x3F5BA4191B7A3E64
    assert seeds.mix(1 << 63, -5, "filler") == 0x85063A1E14B7E05E
