"""One address identity for every registered mapping kind.

The plan cache, the program memo, the machine's plan check and the
memory's module reuse all share work between two mappings with the same
:meth:`~repro.mappings.base.AddressMapping.address_key`, so the key must
be exact for every kind a spec can name: two mappings built from the
same params share it and map every address alike, and two mappings that
send some address to different modules never share it.  A ``dynamic``
mapping is the concrete mapping it resolves to for a stride.
"""

from __future__ import annotations

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.mappings.dynamic import DynamicSchemeSelector
from repro.scenarios.registry import MAPPING, build, kinds
from repro.scenarios.spec import ComponentSpec

#: Every address bit a drawn mapping reads lies below bit 16.
ADDRESSES = st.lists(st.integers(0, (1 << 16) - 1), min_size=1, max_size=48)


def _field(low: int, high: int):
    """``m`` in ``low..high`` and a field position ``s >= m``."""
    return st.integers(low, high).flatmap(
        lambda m: st.integers(m, m + 4).map(lambda s: {"m": m, "s": s})
    )


def _matched():
    return st.integers(1, 4).flatmap(
        lambda t: st.integers(t, t + 4).map(lambda s: {"t": t, "s": s})
    )


def _section():
    return _matched().filter(lambda p: p["t"] <= 3).flatmap(
        lambda p: st.integers(p["s"] + p["t"], p["s"] + p["t"] + 3).map(
            lambda y: {**p, "y": y}
        )
    )


def _skewed():
    return _field(1, 3).flatmap(
        lambda p: st.sampled_from([1, 3, 5]).map(lambda d: {**p, "distance": d})
    )


def _pseudo_random():
    return st.integers(1, 3).flatmap(
        lambda m: st.fixed_dictionaries(
            {
                "m": st.just(m),
                "window_bits": st.integers(m, 8),
                "seed": st.integers(0, 2),
            }
        )
    )


#: kind -> strategy of its spec params.  Small ranges, so that two
#: independent draws often differ in one parameter only.
PARAMS = {
    "dynamic": st.fixed_dictionaries({"m": st.integers(0, 3)}),
    "field-interleaved": _field(0, 3),
    "interleaved": st.fixed_dictionaries({"m": st.integers(0, 4)}),
    "matched-xor": _matched(),
    "pseudo-random": _pseudo_random(),
    "section-xor": _section(),
    "skewed": _skewed(),
}


@st.composite
def designs(draw, kind: str | None = None):
    """A mapping design: kind, params, address bits and the stride a
    ``dynamic`` mapping resolves through."""
    kind = kind or draw(st.sampled_from(sorted(PARAMS)))
    return (
        kind,
        draw(PARAMS[kind]),
        draw(st.sampled_from([16, 32])),
        draw(st.integers(1, 1 << 10)),
    )


@st.composite
def pairs(draw):
    """Two designs, of one kind three times in four."""
    first = draw(designs())
    same_kind = draw(st.integers(0, 3)) > 0
    return first, draw(designs(first[0] if same_kind else None))


def make(kind: str, params: dict, address_bits: int, stride: int):
    mapping = build(
        MAPPING, ComponentSpec.of(kind, **params), address_bits=address_bits
    )
    if isinstance(mapping, DynamicSchemeSelector):
        mapping = mapping.mapping_for_stride(stride)
    return mapping


def test_every_registered_kind_has_a_strategy():
    assert sorted(PARAMS) == kinds(MAPPING)


def test_the_same_params_give_one_key_and_one_address_function():
    @seed(30)
    @settings(max_examples=300, deadline=None, database=None)
    @given(designs(), ADDRESSES)
    def check(design, addresses):
        first, second = make(*design), make(*design)
        assert first is not second
        key = first.address_key()
        assert key is not None and key == second.address_key()
        assert hash(key) == hash(second.address_key())
        assert first.same_address_function(second)
        assert [first.module_of(a) for a in addresses] == [
            second.module_of(a) for a in addresses
        ]

    check()


def test_mappings_that_map_an_address_apart_never_share_a_key():
    apart = shared = 0

    @seed(30)
    @settings(max_examples=600, deadline=None, database=None)
    @given(pairs(), ADDRESSES)
    def check(pair, addresses):
        nonlocal apart, shared
        left, right = (make(*design) for design in pair)
        if any(left.module_of(a) != right.module_of(a) for a in addresses):
            apart += 1
            assert left.address_key() != right.address_key(), pair
            assert not left.same_address_function(right)
            assert not right.same_address_function(left)
        elif left.address_key() == right.address_key():
            shared += 1
            assert left.same_address_function(right)

    check()
    # Both branches ran: some pairs mapped apart, and some distinct
    # objects (a dynamic mapping resolved through two strides of one
    # family, or a repeated draw) shared a key.
    assert apart > 0 and shared > 0
