"""Tests for canonical hashing and the artifact cell codecs."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.lab.hashing import (
    ArtifactCodingError,
    canonical_json,
    config_hash,
    decode_cell,
    decode_rows,
    encode_cell,
    encode_rows,
)


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
