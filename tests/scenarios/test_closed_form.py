"""simulate()'s closed form against the memory kernel, field for field.

An untraced planner-drive call whose every access is strided and
conflict-free answers with the ``T + L + 1`` arithmetic and runs no
kernel; a traced call always runs the kernel.  So the traced result is
the reference here: every spec must give identical ``to_dict()``
payloads (or raise the identical error) both ways.  The fixed sweep
spans every mapping kind, conflict-free and conflict-prone strides,
forced and tolerant plan modes, indexed workloads, multi-access kernels
and the other drives; the hypothesis strategy draws planner-drive specs
over the whole geometry, ``T = 1`` included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OrderingError, ReproError
from repro.memory.kernel import MemoryKernel
from repro.obs import Tracer
from repro.scenarios import ScenarioSpec, simulate


def spec_of(name, mapping, workload, *, memory=None, drive=None):
    data = {"name": name, "mapping": mapping, "workload": workload}
    if memory:
        data["memory"] = memory
    if drive:
        data["drive"] = drive
    return ScenarioSpec.from_dict(data)


def strided(base=0, stride=1, length=64):
    return {
        "kind": "strided",
        "params": {"base": base, "stride": stride, "length": length},
    }


MATCHED = {"kind": "matched-xor", "params": {"t": 3, "s": 4}}
SECTION = {"kind": "section-xor", "params": {"t": 2, "s": 3, "y": 7}}
INTERLEAVED = {"kind": "interleaved", "params": {"m": 3}}
SKEWED = {"kind": "skewed", "params": {"m": 3, "s": 4}}
PSEUDO = {"kind": "pseudo-random", "params": {"m": 3}}


def equivalence_specs():
    """Closed-form and kernel points across every mapping and drive."""
    specs = []
    for label, mapping, t in [
        ("matched", MATCHED, 3),
        ("section", SECTION, 2),
        ("interleaved", INTERLEAVED, 3),
        ("skewed", SKEWED, 3),
        ("pseudo", PSEUDO, 3),
    ]:
        for stride in (1, 3, 8, 12):
            for mode in ("auto", "ordered"):
                for q in (1, 2):
                    specs.append(
                        spec_of(
                            f"{label}-s{stride}-{mode}-q{q}",
                            mapping,
                            strided(stride=stride, length=64),
                            memory={"t": t, "q": q},
                            drive={
                                "kind": "planner",
                                "params": {"mode": mode},
                            },
                        )
                    )
    specs.append(
        spec_of(
            "forced-subsequence",
            MATCHED,
            strided(stride=2, length=128),
            memory={"t": 3},
            drive={"kind": "planner", "params": {"mode": "subsequence"}},
        )
    )
    specs.append(
        spec_of(
            "gather",
            MATCHED,
            {
                "kind": "gather",
                "params": {"indices": [3, 1, 4, 1, 5, 9, 2, 6], "base": 0},
            },
            memory={"t": 3},
        )
    )
    specs.append(
        spec_of(
            "bitrev",
            MATCHED,
            {"kind": "bit-reversal", "params": {"bits": 6}},
            memory={"t": 3},
        )
    )
    # Multi-access kernels: column sweeps, conflict-prone butterfly
    # stages, and a last stage of one-element accesses whose canonical
    # plans are conflict-free (closed form from the plans' modules).
    specs.append(
        spec_of(
            "columns",
            MATCHED,
            {"kind": "matrix-columns", "params": {"rows": 32, "cols": 4}},
            memory={"t": 3},
        )
    )
    for stage in (4, 7):
        specs.append(
            spec_of(
                f"fft-stage{stage}",
                MATCHED,
                {"kind": "fft-stage", "params": {"n": 256, "stage": stage}},
                memory={"t": 3},
            )
        )
    specs.append(
        spec_of(
            "figure6",
            MATCHED,
            strided(stride=8, length=64),
            memory={"t": 3, "q": 2},
            drive={"kind": "figure6", "params": {}},
        )
    )
    specs.append(
        ScenarioSpec.from_dict(
            {
                "name": "program",
                "mapping": MATCHED,
                "memory": {"t": 3, "q": 2},
                "program": {
                    "kind": "daxpy",
                    "params": {"alpha": 2.0, "n": 64},
                },
                "drive": {"kind": "decoupled", "params": {}},
            }
        )
    )
    return specs


@pytest.fixture
def kernel_runs(monkeypatch):
    """A live count of :meth:`MemoryKernel.run` calls."""
    calls = []
    original = MemoryKernel.run

    def counting(self, streams):
        calls.append(1)
        return original(self, streams)

    monkeypatch.setattr(MemoryKernel, "run", counting)
    return calls


def outcome(spec, **kwargs):
    """The result payload, or the error a build/plan raised."""
    try:
        return simulate(spec, **kwargs).to_dict()
    except ReproError as error:
        return f"{type(error).__name__}: {error}"


class TestEquivalence:
    @pytest.mark.parametrize(
        "spec", equivalence_specs(), ids=lambda spec: spec.name
    )
    def test_matches_the_traced_kernel(self, spec):
        assert simulate(spec).to_dict() == (
            simulate(spec, tracer=Tracer()).to_dict()
        )

    def test_closed_form_claims_only_exact_conflict_free_points(
        self, kernel_runs
    ):
        closed = kernel = 0
        for spec in equivalence_specs():
            before = len(kernel_runs)
            result = simulate(spec)
            if len(kernel_runs) > before:
                kernel += 1
                continue
            closed += 1
            assert result.conflict_free is True, spec.name
            assert result.issue_stalls == 0, spec.name
            assert result.wait_count == 0, spec.name
            assert result.latency == result.minimum_latency, spec.name
        # The sweep exercises both sides.
        assert closed > 0
        assert kernel > 0

    def test_traced_calls_always_run_the_kernel(self, kernel_runs):
        spec = spec_of(
            "cf", MATCHED, strided(stride=8, length=64), memory={"t": 3}
        )
        simulate(spec)
        assert kernel_runs == []
        simulate(spec, tracer=Tracer())
        assert kernel_runs == [1]


class TestUnitServiceTime:
    """``T = 1``: every order is conflict-free by the Section 2
    definition, but with ``q = 1`` back-to-back requests to one module
    stall on the input register, so only ``q >= 2`` is closed-form."""

    single_module = {"kind": "interleaved", "params": {"m": 0}}

    def spec(self, q):
        return spec_of(
            f"unit-q{q}",
            self.single_module,
            strided(stride=1, length=8),
            memory={"t": 0, "q": q},
        )

    def test_one_slot_queue_runs_the_kernel(self, kernel_runs):
        result = simulate(self.spec(1))
        assert kernel_runs == [1]
        assert (result.latency, result.minimum_latency) == (17, 10)
        assert result.to_dict() == simulate(self.spec(1), tracer=Tracer()).to_dict()

    def test_two_slot_queue_is_closed_form_and_exact(self, kernel_runs):
        result = simulate(self.spec(2))
        assert kernel_runs == []
        assert result.latency == result.minimum_latency == 10
        assert result.to_dict() == simulate(self.spec(2), tracer=Tracer()).to_dict()


class TestErrors:
    def test_forced_mode_raises_the_same_error_both_ways(self):
        # Family x=0 (odd stride) with L=8 < chunk 2**(4+3-0).
        spec = spec_of(
            "infeasible",
            MATCHED,
            strided(stride=3, length=8),
            memory={"t": 3},
            drive={"kind": "planner", "params": {"mode": "conflict_free"}},
        )
        with pytest.raises(OrderingError) as untraced:
            simulate(spec)
        with pytest.raises(OrderingError) as traced:
            simulate(spec, tracer=Tracer())
        assert str(untraced.value) == str(traced.value)


@st.composite
def planner_specs(draw):
    """Planner-drive specs over mappings, geometry, strides and modes."""
    kind = draw(
        st.sampled_from(
            [
                "matched-xor",
                "section-xor",
                "interleaved",
                "field-interleaved",
                "skewed",
                "pseudo-random",
            ]
        )
    )
    if kind == "matched-xor":
        m = draw(st.integers(1, 3))
        params = {"t": m, "s": m + draw(st.integers(0, 2))}
    elif kind == "section-xor":
        half = draw(st.integers(1, 2))
        s = half + draw(st.integers(0, 1))
        params = {"t": half, "s": s, "y": s + half + draw(st.integers(0, 2))}
        m = 2 * half
    elif kind in ("field-interleaved", "skewed"):
        m = draw(st.integers(1, 3))
        params = {"m": m, "s": m + draw(st.integers(0, 2))}
    else:
        m = draw(st.integers(0, 3))
        params = {"m": m}
    memory = {
        "t": draw(st.integers(0, m)),
        "q": draw(st.sampled_from([1, 2, 4])),
        "qp": draw(st.sampled_from([1, 2])),
        "ports": draw(st.sampled_from([p for p in (1, 2) if p <= 1 << m])),
    }
    base = draw(st.integers(0, 64))
    # Mostly strided, mostly tolerant modes and chunk-sized lengths, so
    # a good share of draws reaches the closed form.
    if draw(st.sampled_from([True, True, True, False])):
        sigma = draw(st.sampled_from([1, 3, 5, -1, -3]))
        stride = sigma << draw(st.integers(0, 5))
        length = draw(
            st.sampled_from([1, 3, 8, 16, 24, 32, 64, 64, 128, 128])
        )
        workload = strided(base=base, stride=stride, length=length)
    else:
        indices = draw(st.lists(st.integers(0, 255), min_size=1, max_size=48))
        workload = {
            "kind": "gather",
            "params": {"indices": indices, "base": base},
        }
    drive = {
        "kind": "planner",
        "params": {
            "mode": draw(
                st.sampled_from(
                    ["auto", "auto", "ordered", "subsequence", "conflict_free"]
                )
            ),
            "indexed_mode": draw(st.sampled_from(["ordered", "scheduled"])),
        },
    }
    return spec_of(
        "drawn",
        {"kind": kind, "params": params},
        workload,
        memory=memory,
        drive=drive,
    )


@settings(max_examples=300, deadline=None)
@given(planner_specs())
def test_drawn_specs_match_the_traced_kernel(spec):
    assert outcome(spec) == outcome(spec, tracer=Tracer())
