"""The Figure 6 out-of-order access engine, cycle by cycle.

Structure (Section 3.2 / 4.2 and Figure 6):

* **two address generators** — generator 1 produces the first
  subsequence (used only during the first ``2**t`` cycles); generator 2
  produces every later subsequence in natural order, one address per
  cycle;
* an **order queue** that records the alignment key (module /
  within-section module field / section) of each first-subsequence
  request;
* a ``2 * 2**t`` **latch file**, modelled as two banks of ``2**t``
  latches that swap roles every subsequence: while the current
  subsequence is issued from one bank (in the order-queue order), the
  other bank fills with generator 2's next subsequence;
* the issue **arbiter** that picks the latch named by the order queue.

Every structural budget is enforced (one add per generator per cycle,
bank occupancy, queue capacity); the emitted stream is asserted — in
tests and in experiment E15 — to equal the abstract conflict-free plan
request for request.

The cycle loop runs once, inside :class:`Figure6Engine`'s constructor,
and keeps only what the model needs: the issued ``(element_index,
address)`` pairs and the :class:`EngineReport`.  Each generator step
still opens a new cycle on both of the generator's budgeted adders and
adds through them, so the one-add-per-cycle budget is checked, not
assumed.
:meth:`Figure6Engine.run` builds the per-cycle
:class:`~repro.hardware.sequencer.GeneratedRequest` records only when
asked; :meth:`Figure6Engine.request_stream`, which the scenario drive
reads, builds none.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.planner import AccessPlanner
from repro.core.subsequences import build_subsequences
from repro.core.vector import VectorAccess
from repro.errors import HardwareModelError
from repro.hardware.datapath import LatchFile, OrderQueue
from repro.hardware.sequencer import Figure5AddressGenerator, GeneratedRequest


@dataclass(frozen=True)
class EngineReport:
    """Resource usage of one engine run (the Section 5-D cost audit)."""

    total_cycles: int
    generator1_adds: int
    generator2_adds: int
    latch_peak_occupancy: int
    latch_capacity: int
    order_queue_depth: int


class Figure6Engine:
    """Drives one conflict-free vector access with Figure 6's resources.

    Construction runs the access: ``__init__`` steps the cycle loop once
    and keeps the issued ``(element_index, address)`` pairs and the
    :class:`EngineReport`, so a structural fault raises
    :class:`~repro.errors.HardwareModelError` from the constructor.

    Parameters
    ----------
    planner:
        Supplies the mapping, ``t`` and the reorder-key selection logic
        (identical to the abstract planner so the two stay in lockstep).
    vector:
        The access to perform; must lie inside the conflict-free window
        (the engine raises :class:`~repro.errors.OrderingError` through
        the decomposition otherwise, exactly like the planner).
    """

    def __init__(self, planner: AccessPlanner, vector: VectorAccess):
        self.planner = planner
        self.vector = vector
        w, key_of = planner._reorder_parameters(vector)
        self.key_of = key_of
        self.plan = build_subsequences(vector, w, planner.t)
        self.slots = self.plan.elements_per_subsequence  # 2**t
        self.total_subsequences = (
            self.plan.chunks * self.plan.subsequences_per_chunk
        )
        self.order_queue = OrderQueue(self.slots)
        self.bank_a = LatchFile("bank-a", self.slots)
        self.bank_b = LatchFile("bank-b", self.slots)
        self._records: list[GeneratedRequest] | None = None

        generator1 = Figure5AddressGenerator(self.plan, start_subsequence=0)
        generator2 = (
            Figure5AddressGenerator(self.plan, start_subsequence=1)
            if self.total_subsequences > 1
            else None
        )
        # One (element_index, address) pair is issued per cycle.
        stream: list[tuple[int, int]] = []

        # Phase 1 — first subsequence: issue straight from generator 1,
        # record the key order, and fill bank A with the second
        # subsequence from generator 2.
        for _ in range(self.slots):
            produced = generator1.advance()
            self.order_queue.push(self._key(produced[1]))
            stream.append(produced)
            if generator2 is not None and not generator2.done:
                element_index, address = generator2.advance()
                self.bank_a.write(self._key(address), element_index, address)
        self.order_queue.seal()

        # Phase 2 — every later subsequence: issue from the full bank in
        # the recorded key order while the other bank fills.
        banks = (self.bank_a, self.bank_b)
        for subsequence in range(1, self.total_subsequences):
            issue_bank = banks[(subsequence - 1) % 2]
            fill_bank = banks[subsequence % 2]
            for position in range(self.slots):
                stream.append(issue_bank.read(self.order_queue.key_at(position)))
                if generator2 is not None and not generator2.done:
                    element_index, address = generator2.advance()
                    fill_bank.write(self._key(address), element_index, address)
            if not issue_bank.is_empty():
                raise HardwareModelError(
                    f"bank not drained after subsequence {subsequence}"
                )

        if len(stream) != self.vector.length:
            raise HardwareModelError(
                f"engine produced {len(stream)} requests for a vector of "
                f"length {self.vector.length}"
            )
        self._stream = stream
        self._report = EngineReport(
            total_cycles=len(stream),
            generator1_adds=generator1.adder.total_operations
            + generator1.reg_adder.total_operations,
            generator2_adds=(
                generator2.adder.total_operations
                + generator2.reg_adder.total_operations
                if generator2 is not None
                else 0
            ),
            latch_peak_occupancy=max(
                self.bank_a.peak_occupancy, self.bank_b.peak_occupancy
            ),
            latch_capacity=2 * self.slots,
            order_queue_depth=self.slots,
        )

    def run(self) -> list[GeneratedRequest]:
        """The issue stream as records, one request per cycle from cycle 1.

        The records are built on the first call and kept, so ``run() is
        run()``; the drive path reads :meth:`request_stream` and builds
        none.
        """
        if self._records is None:
            self._records = [
                GeneratedRequest(cycle, element_index, address)
                for cycle, (element_index, address) in enumerate(self._stream, 1)
            ]
        return self._records

    def report(self) -> EngineReport:
        """Resource audit of the run."""
        return self._report

    def request_stream(self) -> list[tuple[int, int]]:
        """Adapter matching :class:`~repro.core.planner.AccessPlan`."""
        return list(self._stream)

    def _key(self, address: int) -> int:
        key = self.key_of(address)
        if not 0 <= key < self.slots:
            raise HardwareModelError(
                f"alignment key {key} outside the {self.slots}-slot latch "
                "bank — this mapping/stride pair is not supported by the "
                "Figure 6 engine"
            )
        return key
