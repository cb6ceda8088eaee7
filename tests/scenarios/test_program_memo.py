"""The program memo: design points that differ only in how the machine
times a program share one value pass, and a chaining point's baseline
reuses a non-chaining sibling's cycles.

Every test starts and ends with an empty memo.  A hit must never change
a result, a trace or an error, whatever order, thread or grid the
points come in.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.mappings.linear import MatchedXorMapping
from repro.obs.tracer import Tracer
from repro.processor.decoupled import DecoupledVectorMachine
from repro.scenarios import ScenarioSpec, load_scenarios, simulate
from repro.scenarios import facade
from repro.scenarios.facade import PROGRAM_MEMO_SIZE, clear_program_memo
from repro.scenarios.registry import PROGRAM, example_params, kinds

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def grid(name: str) -> list[ScenarioSpec]:
    return load_scenarios((EXAMPLES / name).read_text())


@pytest.fixture(autouse=True)
def empty_memo():
    clear_program_memo()
    yield
    clear_program_memo()


@pytest.fixture
def passes(monkeypatch):
    """Counts of value passes (``resolve``) and timing passes (``time``)
    from here on."""
    counts = {"resolve": 0, "time": 0}
    for name in counts:
        original = getattr(DecoupledVectorMachine, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(DecoupledVectorMachine, name, counted)
    return counts


def outcome(spec: ScenarioSpec):
    """A point's result as data, or its error as type and message."""
    try:
        return simulate(spec).to_dict()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error).__name__, str(error)


def cold(spec: ScenarioSpec):
    clear_program_memo()
    return outcome(spec)


def program_sweep(
    mapping: dict, memory: dict, program: dict, axes: dict
) -> list[ScenarioSpec]:
    """One program on the decoupled machine, swept over ``axes``."""
    document = {
        "base": {
            "mapping": mapping,
            "memory": memory,
            "program": program,
            "drive": {"kind": "decoupled"},
        },
        "axes": axes,
    }
    return load_scenarios(json.dumps(document))


class TestWorkSaved:
    def test_grid_64_resolves_each_program_once(self, passes):
        """x_stride x alpha make 8 programs; q and memory_streams only
        time them."""
        for spec in grid("scenario_program_grid_64.json"):
            simulate(spec)
        assert passes == {"resolve": 8, "time": 64}

    def test_chaining_baselines_are_the_siblings_cycles(self, passes):
        """Three programs (n), each run without and then with chaining:
        the three chaining baselines run no timing pass."""
        specs = grid("scenario_program_grid.json")
        assert [spec.drive.param_dict()["chaining"] for spec in specs] == [
            False
        ] * 3 + [True] * 3
        for spec in specs:
            simulate(spec)
        assert passes == {"resolve": 3, "time": 6}

    def test_a_lone_chaining_point_times_its_baseline_once(self, passes):
        chained = grid("scenario_program_grid.json")[-1]
        first = simulate(chained)
        assert passes == {"resolve": 1, "time": 2}
        assert simulate(chained) == first
        assert passes == {"resolve": 1, "time": 3}

    def test_a_mapping_without_a_token_is_never_shared(
        self, passes, monkeypatch
    ):
        monkeypatch.setattr(MatchedXorMapping, "cache_token", lambda self: None)
        specs = grid("scenario_program_grid.json")
        results = [simulate(spec) for spec in specs]
        assert passes == {"resolve": 6, "time": 9}
        assert len(facade._PROGRAM_MEMO) == 0
        monkeypatch.undo()
        assert [simulate(spec) for spec in specs] == results


class TestHitsChangeNothing:
    @pytest.mark.parametrize(
        "name", ["scenario_program_grid.json", "scenario_program_grid_64.json"]
    )
    def test_committed_grid_points_equal_cold_runs(self, name):
        specs = grid(name)
        warm = [outcome(spec) for spec in specs]
        assert warm == [cold(spec) for spec in specs]

    @pytest.mark.parametrize("kind", kinds(PROGRAM))
    def test_generated_grids_equal_cold_runs(self, kind, passes):
        hits = 0

        @seed(29)
        @settings(max_examples=8, deadline=None, database=None)
        @given(program_grids(kind))
        def check(specs):
            nonlocal hits
            clear_program_memo()
            resolved = passes["resolve"]
            warm = [outcome(spec) for spec in specs]
            hits += len(specs) - (passes["resolve"] - resolved)
            assert warm == [cold(spec) for spec in specs]

        check()
        assert hits > 0

    def test_value_axes_each_resolve_their_own_program(self, passes):
        """Two address functions of one mapping type, two ``t``, two
        register lengths and two plan modes make 16 programs; q only
        times them."""
        specs = program_sweep(
            {"kind": "pseudo-random", "params": {"m": 3, "seed": 0}},
            {"t": 3},
            {"kind": "daxpy", "params": {"n": 96}},
            {
                "mapping.params.seed": [0, 1],
                "memory.t": [2, 3],
                "drive.params.register_length": [32, 64],
                "drive.params.plan_mode": ["auto", "ordered"],
                "memory.q": [1, 2],
            }
        )
        warm = [outcome(spec) for spec in specs]
        assert passes == {"resolve": 16, "time": 32}
        assert warm == [cold(spec) for spec in specs]

    @pytest.mark.parametrize(
        "mapping, memory, program, axes",
        [
            # The loads (stride 4) chain; the stores (stride 1)
            # conflict, so q moves the cycles too.
            (
                {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
                {"t": 3},
                {"kind": "saxpy-chain", "params": {"n": 96, "out_stride": 1}},
                {
                    "drive.params.chaining": [False, True],
                    "drive.params.execute_startup": [1, 8],
                    "drive.params.memory_streams": [1, 2],
                    "memory.ports": [1, 2],
                    "memory.q": [1, 4],
                },
            ),
            # One-cycle modules on two ports: results queue for the
            # result buses, so q' moves the cycles.
            (
                {"kind": "pseudo-random", "params": {"m": 3}},
                {"t": 0, "q": 4, "ports": 2},
                {"kind": "daxpy", "params": {"n": 96, "x_stride": 1, "y_stride": 3}},
                {"drive.params.chaining": [False, True], "memory.qp": [1, 2]},
            ),
        ],
        ids=["startup-streams-ports-q", "qp"],
    )
    def test_timing_axes_keep_their_own_baselines(
        self, passes, mapping, memory, program, axes
    ):
        """Every non-chaining point runs before the chaining points, so
        each chaining point finds the cycles of the sibling that shares
        all five of its timing parameters, and no other's."""
        specs = program_sweep(mapping, memory, program, axes)
        half = len(specs) // 2
        warm = [outcome(spec) for spec in specs]
        assert passes == {"resolve": 1, "time": len(specs)}
        assert warm == [cold(spec) for spec in specs]
        baselines = [result["extras"]["total_cycles"] for result in warm[:half]]
        assert len(set(baselines)) > half // 4

    def test_params_equal_only_in_value_are_not_shared(self):
        """``alpha`` 2 and 2.0 compare equal but label the program
        differently."""
        specs = [
            ScenarioSpec.from_dict(
                {
                    "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
                    "memory": {"t": 3},
                    "program": {"kind": "daxpy", "params": {"n": 64, "alpha": alpha}},
                    "drive": {"kind": "decoupled"},
                }
            )
            for alpha in (2, 2.0)
        ]
        assert specs[0].program == specs[1].program
        labels = [dict(simulate(spec).extras)["program"] for spec in specs]
        assert labels == ["daxpy(n=64, alpha=2)", "daxpy(n=64, alpha=2.0)"]

    def test_a_warm_traced_run_records_a_cold_runs_events(self):
        """The chaining point's program and baseline come from its
        sibling; its own timing pass is still traced in full."""
        specs = grid("scenario_program_grid.json")
        sibling, chained = specs[2], specs[5]
        simulate(sibling)
        warm_tracer, cold_tracer = Tracer(), Tracer()
        warm = simulate(chained, tracer=warm_tracer)
        clear_program_memo()
        fresh = simulate(chained, tracer=cold_tracer)
        assert warm_tracer.spans("memory/"), "no kernel events were recorded"
        assert warm_tracer.events == cold_tracer.events
        assert warm == fresh

    def test_a_failing_value_pass_fails_every_point_and_is_not_kept(
        self, passes
    ):
        """The load reads memory nothing wrote: every q raises the same
        error from the value pass, and nothing is remembered."""
        document = {
            "base": {
                "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
                "memory": {"t": 3},
                "program": {
                    "kind": "instructions",
                    "params": {"lines": ["vload v1, base=0, stride=4, length=8"]},
                },
                "drive": {"kind": "decoupled", "params": {"chaining": True}},
            },
            "axes": {"memory.q": [1, 2, 4]},
        }
        specs = load_scenarios(json.dumps(document))
        errors = {outcome(spec) for spec in specs}
        assert len(errors) == 1
        [(kind, message)] = errors
        assert kind == "SimulationError" and "uninitialised" in message
        assert passes == {"resolve": 3, "time": 0}
        assert len(facade._PROGRAM_MEMO) == 0


    @pytest.mark.parametrize("warm", [False, True])
    def test_a_miss_raises_the_programs_error_before_the_machines(
        self, warm
    ):
        """A spec whose program and drive are both invalid fails with
        the program's error, and a valid program with the drive's,
        whether or not the memo holds the valid program already."""

        def spec(program: dict, drive: dict) -> ScenarioSpec:
            return ScenarioSpec.from_dict(
                {
                    "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
                    "memory": {"t": 3},
                    "program": program,
                    "drive": {"kind": "decoupled", "params": drive},
                }
            )

        daxpy = {"kind": "daxpy", "params": {"n": 64}}
        bogus = {"kind": "instructions", "params": {"lines": ["bogus v1"]}}
        if warm:
            simulate(spec(daxpy, {}))
        assert outcome(spec(bogus, {"execute_startup": 0})) == (
            "ProgramError",
            "line 1: 'bogus v1': unknown mnemonic 'bogus'",
        )
        assert outcome(spec(daxpy, {"execute_startup": 0})) == (
            "ProgramError",
            "execute_startup must be >= 1, got 0",
        )


class TestBounds:
    def test_memo_stays_within_its_bound(self):
        for n in range(1, PROGRAM_MEMO_SIZE + 6):
            simulate(
                ScenarioSpec.from_dict(
                    {
                        "mapping": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
                        "memory": {"t": 3},
                        "program": {"kind": "load-store-copy", "params": {"n": n}},
                        "drive": {
                            "kind": "decoupled",
                            "params": {"register_length": 8},
                        },
                    }
                )
            )
            assert len(facade._PROGRAM_MEMO) == min(n, PROGRAM_MEMO_SIZE)

    def test_two_threads_get_the_serial_results(self):
        specs = grid("scenario_program_grid_64.json")
        serial = [simulate(spec).to_dict() for spec in specs]
        clear_program_memo()
        start = threading.Barrier(2)
        results: dict[int, list] = {}

        def sweep(index: int) -> None:
            start.wait()
            results[index] = [outcome(spec) for spec in specs]

        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == {0: serial, 1: serial}


#: Mappings with eight modules, each as (kind, params).  The two
#: pseudo-random seeds have different address functions.
MAPPINGS = [
    ("matched-xor", {"t": 3, "s": 4}),
    ("interleaved", {"m": 3}),
    ("field-interleaved", {"m": 3, "s": 4}),
    ("skewed", {"m": 3, "s": 4}),
    ("pseudo-random", {"m": 3, "seed": 0}),
    ("pseudo-random", {"m": 3, "seed": 1}),
]


@st.composite
def program_grids(draw, kind: str):
    """A few design points of one program kind.  The value axes
    (mapping, t, register length, plan mode) draw from two values each,
    so points often share a program; the timing axes draw freely."""
    mappings = draw(
        st.lists(st.sampled_from(MAPPINGS), min_size=1, max_size=2, unique_by=repr)
    )
    lengths = draw(st.sampled_from([(64,), (32, 64)]))
    modes = draw(
        st.sampled_from([("auto",), ("auto", "ordered"), ("conflict_free",)])
    )
    specs = []
    for _ in range(draw(st.integers(2, 6))):
        mapping_kind, mapping_params = draw(st.sampled_from(mappings))
        drive = {
            "chaining": draw(st.booleans()),
            "plan_mode": draw(st.sampled_from(modes)),
            "execute_startup": draw(st.sampled_from([1, 4])),
            "register_length": draw(st.sampled_from(lengths)),
            "memory_streams": draw(st.sampled_from([None, 1, 2])),
        }
        specs.append(
            ScenarioSpec.from_dict(
                {
                    "mapping": {"kind": mapping_kind, "params": mapping_params},
                    "memory": {
                        "t": draw(st.sampled_from([2, 3])),
                        "q": draw(st.sampled_from([1, 2, 4])),
                        "qp": draw(st.sampled_from([1, 2])),
                        "ports": draw(st.sampled_from([1, 2])),
                    },
                    "program": {
                        "kind": kind,
                        "params": example_params(PROGRAM, kind),
                    },
                    "drive": {"kind": "decoupled", "params": drive},
                }
            )
        )
    return specs
