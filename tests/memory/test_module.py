"""Tests for the per-request timing records."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.memory.module import (
    InFlightRequest,
    RequestRecords,
    count_waits,
    results_held,
)


def make_request(element: int = 0, module: int = 0) -> InFlightRequest:
    return InFlightRequest(element_index=element, address=element, module=module)


def make_records(**overrides) -> RequestRecords:
    """Three requests, T = 4: the second waits, the third is held."""
    fields = dict(
        requests=((0, 100), (1, 101), (2, 102)),
        modules=(0, 0, 1),
        arrival=(2, 3, 4),
        start=(2, 6, 4),
        delivery=(6, 10, 9),
        service_time=4,
    )
    fields.update(overrides)
    fields.setdefault(
        "wait_count", count_waits(fields["arrival"], fields["start"])
    )
    fields.setdefault(
        "result_held",
        results_held(
            fields["start"], fields["delivery"], fields["service_time"]
        ),
    )
    return RequestRecords(**fields)


class TestRequestRecord:
    def test_waited_property(self):
        request = make_request()
        request.arrival_cycle = 3
        request.start_cycle = 3
        assert not request.waited
        request.start_cycle = 5
        assert request.waited

    def test_incomplete_timing_raises(self):
        request = make_request()
        with pytest.raises(SimulationError):
            _ = request.waited
        with pytest.raises(SimulationError):
            _ = request.latency

    def test_latency(self):
        request = make_request()
        request.issue_cycle = 2
        request.delivery_cycle = 12
        assert request.latency == 11


class TestRequestRecords:
    def test_records_derive_issue_and_finish(self):
        records = make_records()
        assert list(records) == [
            InFlightRequest(0, 100, 0, False, 1, 2, 2, 5, 6),
            InFlightRequest(1, 101, 0, False, 2, 3, 6, 9, 10),
            InFlightRequest(2, 102, 1, False, 3, 4, 4, 7, 9),
        ]

    def test_aggregates_need_no_records(self):
        records = make_records()
        assert len(records) == 3
        assert records.wait_count == 1
        assert records.result_held
        assert records._records is None

    def test_results_held_finds_a_late_delivery(self):
        # T = 4: the third result, started at 4, is delivered at 9 > 8.
        assert results_held((2, 6, 4), (6, 10, 9), 4)
        assert results_held(range(2, 5), range(7, 10), 4)

    def test_not_held_when_every_delivery_is_prompt(self):
        assert not results_held((2, 6, 4), (6, 10, 8), 4)
        assert not results_held(range(2, 5), range(6, 9), 4)

    def test_delivery_cycles_are_the_stored_sequence(self):
        delivery = range(6, 9)
        records = make_records(start=range(2, 5), delivery=delivery)
        assert records.delivery_cycles is delivery

    def test_count_waits_counts_requests_that_started_late(self):
        assert count_waits((2, 3, 4), (2, 6, 4)) == 1
        assert count_waits((2, 3, 4), (5, 6, 7)) == 3
        assert count_waits(range(2, 6), range(2, 6)) == 0
        assert count_waits((), ()) == 0

    def test_materialised_once(self):
        records = make_records()
        assert records[0] is records[0]
        assert records[-1].element_index == 2
        assert records[1:][0].element_index == 1

    def test_stores_and_reduction(self):
        records = make_records(
            stores=frozenset({1}), reduce=lambda address: address & 0xF
        )
        assert [r.is_store for r in records] == [False, True, False]
        assert [r.address for r in records] == [4, 5, 6]

    def test_equality_compares_the_records(self):
        assert make_records() == make_records()
        assert make_records() != make_records(delivery=(6, 10, 8))
        assert make_records() != list(make_records())
