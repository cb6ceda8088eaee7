"""Tests for canonical hashing and the artifact cell codecs."""

from __future__ import annotations

import json
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lab.hashing import (
    ArtifactCodingError,
    canonical_json,
    config_hash,
    decode_cell,
    decode_rows,
    encode_cell,
    encode_rows,
)


def reference_json(value) -> str:
    """The canonical spelling, as ``json.dumps`` writes it."""
    return json.dumps(
        value,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
        ensure_ascii=True,
    )


TEXT = st.text() | st.text(st.characters(max_codepoint=0x7F)) | st.text(
    st.characters(max_codepoint=0x1F)
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63 - 2, max_value=2**80)
    | st.integers(min_value=-(2**80), max_value=-(2**63) + 2)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e308])
    | TEXT
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(TEXT, children, max_size=5),
    max_leaves=20,
)


def raised(encode, value) -> tuple[type, str]:
    with pytest.raises((TypeError, ValueError)) as error:
        encode(value)
    return type(error.value), str(error.value)


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_compact_and_ascii(self):
        assert canonical_json({"a": [1, 2]}) == '{"a":[1,2]}'

    def test_one_definition_shared_with_the_spec_layer(self):
        import repro.lab
        from repro.scenarios.spec import canonical_json as spec_canonical_json

        assert canonical_json is spec_canonical_json
        assert repro.lab.canonical_json is spec_canonical_json

    def test_hash_is_stable_and_sensitive(self):
        base = {"job_id": "E01", "kind": "experiment", "params": {}}
        assert config_hash(base) == config_hash(dict(base))
        changed = dict(base, params={"t": 4})
        assert config_hash(changed) != config_hash(base)

    def test_version_changes_the_hash(self):
        one = config_hash({"job_id": "E01", "package_version": "1.0.0"})
        two = config_hash({"job_id": "E01", "package_version": "1.0.1"})
        assert one != two

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_spelling_is_json_dumps_with_the_four_flags(self, value):
        assert canonical_json(value) == reference_json(value)

    @settings(max_examples=60, deadline=None)
    @given(
        JSON_VALUES,
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    )
    def test_nan_and_infinity_raise_json_dumps_error(self, value, special):
        for document in ([value, special], {"a": value, "b": special}):
            kind, message = raised(canonical_json, document)
            assert kind is ValueError
            assert (kind, message) == raised(reference_json, document)

    @pytest.mark.parametrize(
        "document", [{1: "a", "b": 2}, {"x": [{None: 1, "y": 2}]}]
    )
    def test_mixed_key_types_raise_json_dumps_error(self, document):
        kind, message = raised(canonical_json, document)
        assert kind is TypeError
        assert (kind, message) == raised(reference_json, document)

    def test_threads_share_the_encoder(self):
        """Serve's handler threads encode through the one encoder at
        once; each gets what it would get alone."""
        values = [
            {
                "job_id": f"SC-{index}\u00e9\x01",
                "rows": [[index, index / 7, -0.0, 2**64 + index]],
                "params": {"z": [True, None], "a": 5e-324 * index},
            }
            for index in range(200)
        ]
        expected = [reference_json(value) for value in values]
        threads_count = 8
        results: list[list[str] | None] = [None] * threads_count
        barrier = threading.Barrier(threads_count)

        def encode(slot: int) -> None:
            barrier.wait(timeout=30)
            results[slot] = [canonical_json(value) for value in values]

        threads = [
            threading.Thread(target=encode, args=(slot,))
            for slot in range(threads_count)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * threads_count


class TestCellCodec:
    @pytest.mark.parametrize(
        "value", [0, -3, 1.5, True, False, "text", None, 0.9140625]
    )
    def test_primitives_round_trip(self, value):
        encoded = encode_cell(value)
        assert decode_cell(encoded) == value
        assert type(decode_cell(encoded)) is type(value)

    def test_fraction_round_trips(self):
        value = Fraction(31, 32)
        assert decode_cell(encode_cell(value)) == value

    def test_tuple_round_trips(self):
        value = (2, 5, "x", Fraction(1, 2))
        assert decode_cell(encode_cell(value)) == value

    def test_rows_round_trip(self):
        rows = [[1, 2.5, True, "s"], [Fraction(3, 4), (1, 2)]]
        assert decode_rows(encode_rows(rows)) == rows

    def test_unknown_type_is_rejected(self):
        with pytest.raises(ArtifactCodingError):
            encode_cell(object())

    def test_non_finite_float_is_rejected(self):
        with pytest.raises(ArtifactCodingError):
            encode_cell(float("nan"))

    def test_unknown_tag_is_rejected(self):
        with pytest.raises(ArtifactCodingError):
            decode_cell({"__mystery__": 1})
