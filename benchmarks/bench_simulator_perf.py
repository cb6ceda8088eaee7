"""Performance benchmarks of the library's own machinery.

Not a paper artifact — these measure the simulator, planner and hardware
engine throughput so performance regressions in the substrate are caught
by ``pytest benchmarks/ --benchmark-only`` alongside the reproduction
benches.  The CI perf-smoke job runs this file on a fixed design point
and uploads the ``--benchmark-json`` timings as a ``BENCH_*.json``
artifact, so the kernel's throughput trajectory is recorded per commit.

Every bench runs through ``benchmark.pedantic`` with :func:`cold` as
its ``setup``: the shared plan cache, the kernel's timing memo and the
scenario facade's program memo are emptied before each round, so a
round pays what a cold call pays rather than timing a cache hit.
"""

from repro.core.planner import AccessPlanner, clear_plan_cache
from repro.core.vector import VectorAccess
from repro.hardware.oos_engine import Figure6Engine
from repro.memory.config import MemoryConfig
from repro.memory.kernel import MemoryKernel, kernel_timing
from repro.memory.system import MemorySystem
from repro.processor.decoupled import DecoupledVectorMachine
from repro.processor.stripmine import daxpy_program
from repro.scenarios.facade import clear_program_memo

CONFIG = MemoryConfig.matched(t=3, s=4)
PLANNER = AccessPlanner(CONFIG.mapping, 3)
SYSTEM = MemorySystem(CONFIG)
VECTOR = VectorAccess(16, 12, 128)
UNMATCHED = MemoryConfig.unmatched(t=3, s=4, y=9, input_capacity=2)
UNMATCHED_PLANNER = AccessPlanner(UNMATCHED.mapping, 3)
ROUNDS = 20


def cold():
    """Empty the plan cache, the kernel's timing memo and the program
    memo."""
    clear_plan_cache()
    kernel_timing.cache_clear()
    clear_program_memo()


def bench_cold(benchmark, target, *args, rounds=ROUNDS):
    """Time ``target(*args)`` over ``rounds`` cold rounds."""
    return benchmark.pedantic(target, args=args, setup=cold, rounds=rounds)


def test_plan_conflict_free(benchmark):
    plan = bench_cold(benchmark, PLANNER.plan, VECTOR, "conflict_free")
    assert plan.conflict_free


def test_simulate_conflict_free_access(benchmark):
    plan = PLANNER.plan(VECTOR, mode="conflict_free")
    result = bench_cold(benchmark, SYSTEM.run_plan, plan)
    assert result.latency == 137


def test_simulate_conflicting_access(benchmark):
    plan = PLANNER.plan(VectorAccess(0, 1 << 6, 128), mode="ordered")
    result = bench_cold(benchmark, SYSTEM.run_plan, plan)
    assert not result.conflict_free


def test_figure6_engine(benchmark):
    def build_and_run():
        return Figure6Engine(PLANNER, VECTOR).run()

    stream = bench_cold(benchmark, build_and_run)
    assert len(stream) == 128


def test_full_machine_daxpy(benchmark):
    program = daxpy_program(256, 128, 2.0, 0, 3, 10**6, 1)

    def run_machine():
        machine = DecoupledVectorMachine(CONFIG, register_length=128)
        machine.store.write_vector(0, 3, [1.0] * 256)
        machine.store.write_vector(10**6, 1, [2.0] * 256)
        return machine.run(program)

    result = bench_cold(benchmark, run_machine)
    assert result.total_cycles > 0


def test_kernel_two_streams_one_bus(benchmark):
    """The unified kernel on the classic shared-bus interference case."""
    config = MemoryConfig.matched(t=3, s=4, input_capacity=2)
    planner = AccessPlanner(config.mapping, 3)
    streams = [
        planner.plan(VectorAccess(0, 12, 128)).request_stream(),
        planner.plan(VectorAccess(1, 12, 128)).request_stream(),
    ]
    kernel = MemoryKernel(config)

    run = bench_cold(benchmark, kernel.run, streams)
    assert run.aggregate_elements == 256


def test_kernel_two_streams_traced(benchmark):
    """The same case with a live tracer: post-hoc event derivation only.

    Compare against ``test_kernel_two_streams_one_bus`` to see the
    tracing overhead; the disabled-tracing path must stay within noise
    of the seed (the cycle loop is byte-identical either way).
    """
    from repro.obs import Tracer

    config = MemoryConfig.matched(t=3, s=4, input_capacity=2)
    planner = AccessPlanner(config.mapping, 3)
    streams = [
        planner.plan(VectorAccess(0, 12, 128)).request_stream(),
        planner.plan(VectorAccess(1, 12, 128)).request_stream(),
    ]

    def run_traced():
        kernel = MemoryKernel(config, tracer=Tracer())
        return kernel.run(streams)

    run = bench_cold(benchmark, run_traced)
    assert run.aggregate_elements == 256


def test_kernel_two_ports(benchmark):
    """Two section-disjoint streams over two address/result ports."""
    streams = [
        UNMATCHED_PLANNER.plan(VectorAccess(0, 16, 64)).request_stream(),
        UNMATCHED_PLANNER.plan(
            VectorAccess(1 << 9, 16, 64)
        ).request_stream(),
    ]
    kernel = MemoryKernel(
        MemoryConfig.unmatched(t=3, s=4, y=9, input_capacity=2, ports=2)
    )

    run = bench_cold(benchmark, kernel.run, streams)
    assert run.total_cycles <= 64 + 8 + 1 + 8


def test_full_machine_daxpy_two_ports(benchmark):
    """The program path with concurrent in-flight memory instructions."""
    config = MemoryConfig.unmatched(
        t=3, s=4, y=9, input_capacity=2, ports=2
    )
    program = daxpy_program(256, 128, 2.0, 0, 3, 10**6, 1)

    def run_machine():
        machine = DecoupledVectorMachine(config, register_length=128)
        machine.store.write_vector(0, 3, [1.0] * 256)
        machine.store.write_vector(10**6, 1, [2.0] * 256)
        return machine.run(program)

    result = bench_cold(benchmark, run_machine)
    assert result.stream_concurrency_peak == 2


# -- grid evaluation through simulate() ------------------------------------
#
# Per-point simulate() is the one evaluation path.  The 1000-cell grid
# mixes strides whose accesses plan conflict-free under the matched XOR
# mapping (answered by the closed-form T + L + 1, no kernel run) with
# conflict-prone ones (run through the kernel); the 64-point program
# grid always runs the decoupled machine.  Both keep their historical
# names so their `lab history` series continue.


def _batch_grid():
    from repro.scenarios import (
        ComponentSpec,
        MemorySpec,
        ScenarioGrid,
        ScenarioSpec,
    )

    base = ScenarioSpec(
        mapping=ComponentSpec.of("matched-xor", t=3, s=4),
        memory=MemorySpec(t=3),
        workload=ComponentSpec.of("strided", base=0, stride=1, length=64),
        name="batch-perf",
    )
    return ScenarioGrid.of(
        base,
        workload__params__stride=(1, 2, 3, 4, 5, 7, 8, 12, 16, 96),
        workload__params__length=(32, 64, 128, 256, 512),
        workload__params__base=(0, 8, 64, 128),
        memory__q=(1, 2, 4, 8, 16),
    )


_BATCH_SPECS = _batch_grid().expand()


def test_kernel_grid_1000_cells_baseline(benchmark):
    """Per-point simulate() over the 1000-cell grid."""
    from repro.scenarios import simulate

    def run_all():
        return [simulate(spec) for spec in _BATCH_SPECS]

    results = bench_cold(benchmark, run_all, rounds=3)
    assert len(results) == 1000


def _program_grid_specs():
    from pathlib import Path

    from repro.scenarios import load_scenarios

    path = (
        Path(__file__).resolve().parent.parent
        / "examples"
        / "scenario_program_grid_64.json"
    )
    return load_scenarios(path.read_text())


_PROGRAM_SPECS = _program_grid_specs()


def test_program_grid_64_kernel_baseline(benchmark):
    """Per-point simulate() over the committed 64-point program grid."""
    from repro.scenarios import simulate

    def run_all():
        return [simulate(spec) for spec in _PROGRAM_SPECS]

    results = bench_cold(benchmark, run_all, rounds=2)
    assert len(results) == 64
