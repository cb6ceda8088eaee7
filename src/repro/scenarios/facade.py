"""The scenario facade: spec in, normalised metrics out.

Entry points:

* :func:`simulate` — build the design point, generate the workload (or
  the program), drive the memory, and normalise the metrics (latency,
  stalls, conflict-freedom, efficiency, per-module utilisation) into
  one JSON-safe :class:`ScenarioResult`;
* :func:`simulate_access` — :func:`simulate` for one strided access on
  a machine-only spec, the way the paper's tables, ``repro survey`` and
  the Section 5-B validation measure an access;
* :func:`build_point` — spec to :class:`DesignPoint`, which
  :func:`simulate` runs and ``repro check`` judges, then
  :func:`resolved_program` — a program point's machine and value pass —
  and :func:`figure6_run` — a ``figure6`` point's engine run, shared
  through the plan cache — which both run before the first memory
  cycle;
* :func:`build_machine` — spec to live ``(MemoryConfig, AccessPlanner,
  MemorySystem)``, for callers that need the planner's own facts or a
  request's timing record rather than a measured result.

Under the planner drive, a workload whose every access is strided and
conflict-free is answered in closed form — ``T + L + 1`` cycles per
access, the paper's Section 2 minimum — without a kernel run; a traced
call always runs the kernel, which is what the tests compare against.

A spec with a ``program`` section runs a whole vector program on the
decoupled machine — the machine the workload-driven ``decoupled`` drive
runs — and the result additionally carries the per-instruction
``timeline``, total machine cycles, the overlap fraction, the
measured-vs-analytic chaining speedup, and the end-to-end
numerical-correctness verdict.  A program's value pass depends only on
the program and the machine's
:class:`~repro.processor.decoupled.PlanKey` (the mapping's address key,
``t``, the register length and the plan modes), so design points that
differ only in how the machine times it (its timing key and chaining)
share one resolved program through a bounded memo
(:func:`clear_program_memo` empties it, :func:`program_memo_stats`
counts its traffic).

Both entry points build the spec with :func:`build_point`, which raises
:class:`~repro.errors.ConfigurationError` for infeasible combinations
(a dynamic mapping without a strided workload, the Figure 6 engine on
a gather, a register shorter than the vector, a program under a
non-decoupled drive), so a bad spec fails loudly before any simulation
starts; ``repro check`` builds the same point, resolves the same
program and reports their refusals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.gather import IndexedAccess, plan_indexed
from repro.core.planner import (
    AccessPlanner,
    BoundedLRU,
    cf_order_feasible,
    plan_cache_entry,
)
from repro.core.vector import VectorAccess
from repro.errors import ConfigurationError
from repro.mappings.base import AddressMapping
from repro.mappings.dynamic import DynamicSchemeSelector
from repro.mappings.linear import MatchedXorMapping
from repro.memory.config import MemoryConfig
from repro.memory.system import AccessResult, MemorySystem
from repro.obs.tracer import resolve_tracer
from repro.result_schema import CORE_METRICS, TIMELINE_FIELDS, extra_metric
from repro.scenarios import components as _components  # registers kinds
from repro.scenarios.components import (
    DEFAULT_PROGRAM_REGISTER_LENGTH,
    DecoupledDrive,
    Figure6Drive,
    PlannerDrive,
    ScenarioProgram,
    Workload,
)
from repro.scenarios.registry import DRIVE, MAPPING, PROGRAM, WORKLOAD, build
from repro.scenarios.spec import ComponentSpec, ScenarioSpec

if TYPE_CHECKING:
    from repro.hardware.oos_engine import EngineReport
    from repro.processor.decoupled import (
        DecoupledVectorMachine,
        ResolvedProgram,
    )

__unused = _components  # imported for its registration side effect


def _jsonify(value):
    """Extras values to their JSON-facing form (tuples become lists)."""
    if isinstance(value, tuple):
        return [_jsonify(item) for item in value]
    return value


@dataclass(frozen=True)
class ScenarioResult:
    """Normalised outcome of simulating one scenario.

    All fields are JSON scalars or lists thereof, so a result can be
    stored as a lab artifact or printed by the CLI without any custom
    encoding.  ``extras`` carries drive-specific observations (total
    machine cycles, chained instruction count, latch occupancy...).
    ``timeline`` — per-instruction cycle accounting, one row of
    :data:`~repro.result_schema.TIMELINE_FIELDS` values per executed
    instruction — is only populated by the decoupled-machine paths
    (empty for planner and figure6 drives, which simulate accesses, not
    instructions).
    """

    name: str
    drive: str
    schemes: tuple[str, ...]
    access_count: int
    element_count: int
    latency: int
    minimum_latency: int
    conflict_free: bool
    issue_stalls: int
    wait_count: int
    service_ratio: int
    module_count: int
    module_busy_cycles: tuple[int, ...]
    extras: tuple[tuple[str, object], ...] = field(default_factory=tuple)
    timeline: tuple[tuple, ...] = field(default_factory=tuple)

    @property
    def cycles_per_element(self) -> float:
        return self.latency / self.element_count

    @property
    def excess_latency(self) -> int:
        """Cycles above the conflict-free minimum."""
        return self.latency - self.minimum_latency

    @property
    def efficiency(self) -> float:
        """Delivered elements per cycle, against the minimum-latency ideal."""
        return self.minimum_latency / self.latency

    @property
    def module_utilisation(self) -> float:
        """Mean fraction of the run each module spent busy."""
        if not self.module_busy_cycles or self.latency == 0:
            return 0.0
        return sum(self.module_busy_cycles) / (
            len(self.module_busy_cycles) * self.latency
        )

    def to_dict(self) -> dict:
        """The result as JSON-safe data: its name, every core metric
        unrounded (the schemes as a list), the geometry, the busy cycles
        per module, the extras and one dict per timeline row."""
        record = {"name": self.name}
        record.update(
            (name, _jsonify(getattr(self, name))) for name in CORE_METRICS
        )
        record.update(
            service_ratio=self.service_ratio,
            module_count=self.module_count,
            module_busy_cycles=list(self.module_busy_cycles),
            extras={key: _jsonify(value) for key, value in self.extras},
            timeline=[
                dict(zip(TIMELINE_FIELDS, row)) for row in self.timeline
            ],
        )
        return record

    def metric_rows(self) -> list[list]:
        """``[metric, value]`` rows for tables and lab records: the core
        metrics in :data:`~repro.result_schema.CORE_METRICS` order
        (floats to six places, the schemes as one label), then the
        extras."""
        rows = []
        for name in CORE_METRICS:
            value = getattr(self, name)
            if isinstance(value, float):
                value = round(value, 6)
            elif isinstance(value, tuple):
                value = " ".join(value)
            rows.append([name, value])
        rows.extend([extra_metric(key), value] for key, value in self.extras)
        return rows


def build_workload(spec: ScenarioSpec) -> Workload:
    """The live workload of a spec (which must declare one)."""
    if spec.workload is None:
        raise ConfigurationError(
            f"scenario {spec.name or spec.describe()!r} declares no workload; "
            "add a 'workload' (or 'program') section to simulate it"
        )
    return build(WORKLOAD, spec.workload)


def resolve_mapping(
    spec: ScenarioSpec, workload: Workload | None = None
) -> AddressMapping:
    """The concrete mapping of a spec.

    A ``dynamic`` mapping is a per-stride *selector*, not a mapping; it
    needs a single strided workload to resolve against (exactly the
    restriction the paper's Section 1 draws against dynamic schemes).
    """
    mapping = build(
        MAPPING, spec.mapping, address_bits=spec.memory.address_bits
    )
    if isinstance(mapping, DynamicSchemeSelector):
        if workload is None and spec.workload is not None:
            workload = build_workload(spec)
        if workload is None:
            raise ConfigurationError(
                "a dynamic mapping needs a strided workload to select the "
                "per-stride scheme; this spec has no workload"
            )
        vector = workload.single_vector()
        return mapping.mapping_for_stride(vector.stride)
    return mapping


def build_config(
    spec: ScenarioSpec, workload: Workload | None = None
) -> MemoryConfig:
    """The memory configuration of a spec (geometry validation included).

    A :class:`DesignPoint` holds it (the decoupled machine plans and
    simulates its own accesses), and :func:`build_machine` layers the
    planner and memory system on top.
    """
    mapping = resolve_mapping(spec, workload)
    if spec.memory.ports > mapping.module_count:
        raise ConfigurationError(
            f"scenario field 'memory.ports' ({spec.memory.ports}) exceeds "
            f"the module count M={mapping.module_count} of mapping "
            f"{spec.mapping.kind!r}: each port needs at least one module "
            "to talk to"
        )
    return MemoryConfig(
        mapping,
        spec.memory.t,
        input_capacity=spec.memory.q,
        output_capacity=spec.memory.qp,
        ports=spec.memory.ports,
    )


def build_machine(
    spec: ScenarioSpec, workload: Workload | None = None
) -> tuple[MemoryConfig, AccessPlanner, MemorySystem]:
    """Materialise the machine layer of a spec.

    Returns the memory configuration, the access planner and the
    cycle-accurate memory system, for what a :class:`ScenarioResult`
    does not carry (a plan's layout or subsequences, per-request timing
    records, a composite request stream no planner mode produces);
    :func:`simulate` runs a :func:`build_point` design point instead.
    """
    config = build_config(spec, workload)
    planner = AccessPlanner(config.mapping, config.t)
    return config, planner, MemorySystem(config)


@dataclass(frozen=True)
class DesignPoint:
    """What a spec fixes before its first simulated cycle.

    ``vector`` is the one strided vector a ``figure6`` or ``decoupled``
    drive runs and ``register_length`` the decoupled machine's L, both
    ``None`` where the drive has none.  The program and the machine are
    built on request, program first, as a program point builds them.
    """

    spec: ScenarioSpec
    drive: PlannerDrive | Figure6Drive | DecoupledDrive
    config: MemoryConfig
    workload: Workload | None = None
    vector: VectorAccess | None = None
    register_length: int | None = None

    def program(self) -> ScenarioProgram:
        """The spec's program, built for this point's register length."""
        return build(
            PROGRAM, self.spec.program, register_length=self.register_length
        )

    def machine(
        self, tracer=None, *, chaining: bool | None = None
    ) -> DecoupledVectorMachine:
        """A fresh decoupled machine for this point; ``chaining=False``
        gives a chaining point's otherwise-identical baseline machine."""
        from repro.processor.decoupled import DecoupledVectorMachine

        return DecoupledVectorMachine(
            self.config,
            self.register_length,
            execute_startup=self.drive.execute_startup,
            chaining=self.drive.chaining if chaining is None else chaining,
            plan_mode=self.drive.plan_mode,
            memory_streams=self.drive.memory_streams,
            tracer=tracer,
        )


def program_drive_refusal(spec: ScenarioSpec) -> str | None:
    """Why a program spec's drive cannot run it (only the decoupled
    machine runs programs), or ``None``.  :func:`build_point` raises the
    sentence and ``repro check`` reports it as ``SL306``, both from the
    spec alone."""
    if spec.program is None or spec.drive.kind == "decoupled":
        return None
    return (
        f"scenario programs run on the decoupled machine; set drive kind "
        f"to 'decoupled' (got {spec.drive.kind!r})"
    )


def build_point(spec: ScenarioSpec) -> DesignPoint:
    """The design point of a spec: its drive, workload, memory
    configuration, strided vector and register length, built in that
    order.  A ``null`` register length defaults to the vector's length,
    or to ``DEFAULT_PROGRAM_REGISTER_LENGTH`` for a program; the
    registry has refused one that is not an integer, and the program's
    strip-miner or the machine refuses one below 1."""
    refusal = program_drive_refusal(spec)
    if refusal is not None:
        raise ConfigurationError(refusal)
    drive = build(DRIVE, spec.drive)
    if spec.program is not None:
        config = build_config(spec)
        register_length = drive.register_length
        if register_length is None:
            register_length = DEFAULT_PROGRAM_REGISTER_LENGTH
        return DesignPoint(spec, drive, config, register_length=register_length)
    workload = build_workload(spec)
    config = build_config(spec, workload)
    if isinstance(drive, PlannerDrive):
        return DesignPoint(spec, drive, config, workload)
    vector = workload.single_vector()
    if not isinstance(drive, DecoupledDrive):
        return DesignPoint(spec, drive, config, workload, vector)
    register_length = drive.register_length
    if register_length is None:
        register_length = vector.length
    elif register_length < vector.length:
        raise ConfigurationError(
            f"register_length {register_length} is shorter than the "
            f"workload vector ({vector.length} elements)"
        )
    return DesignPoint(spec, drive, config, workload, vector, register_length)


def simulate(spec: ScenarioSpec, tracer=None) -> ScenarioResult:
    """Run one scenario end to end and normalise its metrics.

    ``tracer`` (an :class:`repro.obs.tracer.Tracer`) collects the
    cycle-level event timeline of whichever drive runs — kernel
    module/port/stream events for the access-driven paths, plus
    machine-unit instruction spans for the program paths — for export
    as Chrome trace JSON (``repro scenario run --trace``).  A traced
    call always runs the kernel; an untraced planner-drive call may
    answer in closed form (see :func:`_simulate_planner`) with
    identical fields.
    """
    tracer = resolve_tracer(tracer)
    point = build_point(spec)
    drive = point.drive
    if spec.program is not None:
        return _simulate_program(point, tracer)
    if isinstance(drive, PlannerDrive):
        return _simulate_planner(point, tracer)
    if isinstance(drive, Figure6Drive):
        return _simulate_figure6(point, tracer)
    if isinstance(drive, DecoupledDrive):
        return _simulate_decoupled(point, tracer)
    raise ConfigurationError(  # pragma: no cover - registry emits the three
        f"drive kind {spec.drive.kind!r} returned an unknown descriptor"
    )


def simulate_access(
    design: ScenarioSpec, vector: VectorAccess, mode: str = "auto"
) -> ScenarioResult:
    """Simulate one strided access on the machine-only spec ``design``.

    ``vector`` becomes a ``strided`` workload and ``mode`` a ``planner``
    drive, so a conflict-free access on a memory that honours the
    ``T + L + 1`` bound is answered in closed form.
    """
    return simulate(
        replace(
            design,
            workload=ComponentSpec.of(
                "strided",
                base=vector.base,
                stride=vector.stride,
                length=vector.length,
            ),
            drive=ComponentSpec.of("planner", mode=mode),
        )
    )


def _aggregate(
    point: DesignPoint,
    runs: list[tuple[str, AccessResult]],
    extras: tuple[tuple[str, object], ...] = (),
    timeline: tuple[tuple, ...] = (),
) -> ScenarioResult:
    """Fold per-access results into one scenario-level record.

    Multi-access workloads (kernels) are simulated back to back, so
    totals add and conflict-freedom is the conjunction.
    """
    config = point.config
    schemes = []
    for scheme, _run in runs:
        if scheme not in schemes:
            schemes.append(scheme)
    elements = sum(run.element_count for _scheme, run in runs)
    busy = [0] * config.module_count
    for _scheme, run in runs:
        for module, cycles in enumerate(run.module_busy_cycles):
            busy[module] += cycles
    minimum = sum(
        config.service_ratio + run.element_count + 1 for _scheme, run in runs
    )
    return ScenarioResult(
        name=point.spec.name,
        drive=point.spec.drive.kind,
        schemes=tuple(schemes),
        access_count=len(runs),
        element_count=elements,
        latency=sum(run.latency for _scheme, run in runs),
        minimum_latency=minimum,
        conflict_free=all(run.conflict_free for _scheme, run in runs),
        issue_stalls=sum(run.issue_stall_cycles for _scheme, run in runs),
        wait_count=sum(run.wait_count for _scheme, run in runs),
        service_ratio=config.service_ratio,
        module_count=config.module_count,
        module_busy_cycles=tuple(busy),
        extras=extras,
        timeline=timeline,
    )


def _closed_form(
    point: DesignPoint, accesses: list, plans: list
) -> ScenarioResult:
    """What the kernel would measure for an all-conflict-free strided
    workload, computed without running it.

    Each access takes exactly ``T + L + 1`` cycles with no stall, wait
    or held result (Section 2), and busy cycles are ``T`` per request
    per module.  A module histogram is order-free, so an access decided
    conflict-free by :func:`cf_order_feasible` (``plan`` is ``None``)
    counts its canonical module sequence; a truly matched memory
    (``M = T``) is exactly uniform, ``L / T`` requests per module.
    """
    config = point.config
    mapping = config.mapping
    service = config.service_ratio
    module_count = config.module_count
    schemes: list[str] = []
    busy = [0] * module_count
    latency = 0
    elements = 0
    uniform = type(mapping) is MatchedXorMapping and module_count == service
    for access, plan in zip(accesses, plans):
        scheme = "conflict_free" if plan is None else plan.scheme
        if scheme not in schemes:
            schemes.append(scheme)
        if plan is None and uniform:
            for module in range(module_count):
                busy[module] += access.length
        else:
            modules = plan.modules if plan is not None else (
                mapping.module_sequence(
                    access.base, access.stride, access.length
                )
            )
            for module in modules:
                busy[module] += service
        latency += service + access.length + 1
        elements += access.length
    return ScenarioResult(
        name=point.spec.name,
        drive=point.spec.drive.kind,
        schemes=tuple(schemes),
        access_count=len(accesses),
        element_count=elements,
        latency=latency,
        minimum_latency=latency,
        conflict_free=True,
        issue_stalls=0,
        wait_count=0,
        service_ratio=service,
        module_count=module_count,
        module_busy_cycles=tuple(busy),
    )


def _simulate_planner(point: DesignPoint, tracer=None) -> ScenarioResult:
    """Classify each access once, then answer in closed form or run it.

    Indexed accesses plan through :func:`plan_indexed`; strided ones ask
    the Lemma-1 arithmetic (:func:`cf_order_feasible`) first and the
    planner only when it does not prove a conflict-free order.  If every
    access is strided and conflict-free, the memory honours the bound
    (:attr:`MemoryConfig.conflict_free_is_minimal`) and nothing is
    traced, the result is :func:`_closed_form`; otherwise the missing
    plans are built and every plan runs through the kernel.
    """
    tracer = resolve_tracer(tracer)
    config, drive = point.config, point.drive
    planner = AccessPlanner(config.mapping, config.t)
    accesses = point.workload.accesses()
    closed_form = not tracer.enabled and config.conflict_free_is_minimal
    plans: list = []
    for access in accesses:
        if isinstance(access, IndexedAccess):
            plan = plan_indexed(
                config.mapping, config.t, access, mode=drive.indexed_mode
            )
            closed_form = False
        elif (
            closed_form
            and drive.mode in ("auto", "conflict_free")
            and cf_order_feasible(config.mapping, config.t, access)
        ):
            plan = None  # conflict-free; its order is built only if run
        else:
            plan = planner.plan(access, mode=drive.mode)
            closed_form = closed_form and plan.conflict_free
        plans.append(plan)
    if closed_form:
        return _closed_form(point, accesses, plans)
    runs: list[tuple[str, AccessResult]] = []
    # Accesses run back to back, so each one's kernel events are shifted
    # by the latency accumulated before it — the exported timeline shows
    # the workload as one continuous run.
    system = MemorySystem(config)
    offset = 0
    for access, plan in zip(accesses, plans):
        if plan is None:
            plan = planner.plan(access, mode=drive.mode)
        run = system.run_plan(plan, tracer=tracer.shifted(offset))
        offset += run.latency
        runs.append((plan.scheme, run))
    return _aggregate(point, runs)


@dataclass(frozen=True)
class Figure6Run:
    """The Figure 6 engine's run of a design point's vector, as the
    drive reads it: the issued ``(element_index, address)`` pairs, each
    request's module under the memory's mapping, and the engine's
    resource report."""

    stream: tuple[tuple[int, int], ...]
    modules: tuple[int, ...]
    report: EngineReport


def figure6_run(point: DesignPoint) -> Figure6Run:
    """The Figure 6 engine's run of a ``figure6`` point's vector: what
    :func:`simulate` issues to the memory, and what ``repro check``
    judges.

    The engine's order, like the planner's, reads only the mapping, ``t``
    and the vector, so the run is the plan cache's entry for them under
    mode ``"figure6"`` (:func:`~repro.core.planner.plan_cache_entry`):
    points that differ only in ``q``, ``q'`` or ports run the engine
    once.  An engine that refuses the vector raises its
    :class:`~repro.errors.OrderingError` or
    :class:`~repro.errors.HardwareModelError` and stores nothing.
    """
    from repro.hardware.oos_engine import Figure6Engine

    config, vector = point.config, point.vector
    mapping, t = config.mapping, config.t

    def build() -> Figure6Run:
        engine = Figure6Engine(AccessPlanner(mapping, t), vector)
        stream = tuple(engine.request_stream())
        modules = mapping.modules_of(address for _element, address in stream)
        return Figure6Run(stream, tuple(modules), engine.report())

    return plan_cache_entry(mapping, t, "figure6", vector, build)


def _simulate_figure6(point: DesignPoint, tracer=None) -> ScenarioResult:
    run = figure6_run(point)
    system = MemorySystem(point.config)
    result = system.run_stream(run.stream, modules=run.modules, tracer=tracer)
    report = run.report
    extras = (
        ("latch_peak_occupancy", report.latch_peak_occupancy),
        ("latch_capacity", report.latch_capacity),
        ("generator_adds", report.generator1_adds + report.generator2_adds),
    )
    return _aggregate(point, [("conflict_free", result)], extras)


def _simulate_decoupled(point: DesignPoint, tracer=None) -> ScenarioResult:
    from repro.processor.decoupled import single_load_program

    vector = point.vector
    # The implicit program: one VLOAD (plus a dependent VADD when
    # chaining, which makes the chained overlap observable).
    program = single_load_program(vector, point.drive.chaining)
    inputs = (
        (
            vector.base,
            vector.stride,
            tuple(float(i) for i in range(vector.length)),
        ),
    )
    run = point.machine(tracer).run(program, inputs)
    load_scheme = run.memory_runs[0][0]
    extras = (
        ("total_cycles", run.total_cycles),
        ("chained_instructions", run.chained_count()),
        ("conflict_free_loads", run.conflict_free_loads()),
        ("load_scheme", load_scheme),
        ("overlap_fraction", run.overlap_fraction),
    )
    return _aggregate(
        point, list(run.memory_runs), extras, timeline=run.timeline
    )


#: Programs the program memo holds before evicting the least recently
#: used one.  A grid shares value passes when no more than this many
#: programs alternate in its point order: the committed 64-point daxpy
#: grid cycles through its 8 programs (x_stride x alpha) at every q and
#: stream count, and each seed-1 program-grid benchmark grid sweeps one
#: program.  An entry holds the built program (inputs and expected
#: values) and its resolved accesses (request streams, and plans the
#: plan cache mostly shares): 0.05-0.26 MB for the benchmark's
#: 256/512-element programs (0.13 MB for a 256-element daxpy, 2.0 MB at
#: n = 4096; tracemalloc, CPython 3.11).  The in-process peak RSS of a
#: seed-1 program-grid pass is 24.4 MB without the memo, 24.5 MB at 1
#: entry, 25.6 MB at 8 and 26.1 MB at 16 (two passes each, 2-CPU host).
PROGRAM_MEMO_SIZE = 8


@dataclass
class _ResolvedEntry:
    """A built program and its value pass, shared by every design point
    that only times it differently.

    ``baselines`` maps a machine's
    :attr:`~repro.processor.decoupled.DecoupledVectorMachine.timing_key`
    to the program's total cycles on a non-chaining machine with that
    key, once a point has measured them.  Threads share it through
    ``get`` and ``setdefault``, each one atomic on a dict.
    """

    program: ScenarioProgram
    resolved: ResolvedProgram
    baselines: dict[tuple, int] = field(default_factory=dict)


#: The process-wide memo every program design point shares: built and
#: resolved programs keyed by the program spec and the machine's
#: :class:`~repro.processor.decoupled.PlanKey`.  A hit is exact: the
#: value pass is a function of that key (a fresh machine's registers
#: and store are empty), its output is immutable and the timing pass
#: reads nothing else of the machine that made it.
#: :data:`PROGRAM_MEMO_SIZE` gives the bound and what an entry costs.
_PROGRAM_MEMO = BoundedLRU(PROGRAM_MEMO_SIZE, "program_memo")


def clear_program_memo() -> None:
    """Empty the program memo and reset its counters (tests,
    benchmarks)."""
    _PROGRAM_MEMO.clear()


def program_memo_stats() -> dict[str, int]:
    """Hit/miss/occupancy counters of the program memo."""
    return _PROGRAM_MEMO.stats()


def resolved_program(
    point: DesignPoint, tracer=None
) -> tuple[DecoupledVectorMachine, _ResolvedEntry]:
    """One program design point's machine and its built, resolved
    program, from the memo when a point with the same program spec and
    plan key resolved it: everything :func:`simulate` does to a program
    point before its first cycle, which ``repro check`` runs too.

    A miss builds the program before the machine, so a spec whose
    program and drive are both invalid fails with the program's error,
    and runs :meth:`resolve`; an error there propagates and stores
    nothing.  A mapping without an address key is never shared.  The
    program spec enters the key as its ``repr``, which tells ``2`` from
    ``2.0`` and ``True`` where equality does not.
    """
    from repro.processor.decoupled import PlanKey

    key = entry = None
    config = point.config
    if config.mapping.address_key() is not None:
        key = (
            repr(point.spec.program),
            PlanKey.of(config, point.register_length, point.drive.plan_mode),
        )
        entry = _PROGRAM_MEMO.lookup(key)
    if entry is not None:
        return point.machine(tracer), entry
    scenario_program = point.program()
    machine = point.machine(tracer)
    entry = _ResolvedEntry(
        scenario_program,
        machine.resolve(
            scenario_program.program,
            scenario_program.inputs,
            scenario_program.expected,
        ),
    )
    if key is not None:
        entry = _PROGRAM_MEMO.store(key, entry)
    return machine, entry


def _simulate_program(point: DesignPoint, tracer=None) -> ScenarioResult:
    """Run a whole-program scenario on the decoupled machine.

    Memory metrics (latency, stalls, conflict-freedom...) aggregate over
    every LOAD/STORE the program issued; machine-level observations land
    in ``extras`` and the per-instruction ``timeline``.  The program is
    built and resolved once per program spec and plan key
    (:func:`resolved_program`); each point runs its own timing pass,
    traced when ``tracer`` is, so every kernel and machine event is
    recorded.  When the drive enables
    chaining, the measured decoupled/chained speedup is reported next
    to the analytic
    :func:`repro.processor.chaining.program_chaining_speedup` prediction
    with the model's stated tolerance.  Its baseline is the resolved
    program's total cycles on an otherwise-identical non-chaining
    machine: a non-chaining point with the same timing key records
    them, and a chaining point times them only when none has.
    """
    from repro.processor.chaining import (
        CHAINING_MODEL_TOLERANCE,
        program_chaining_speedup,
    )

    config, drive = point.config, point.drive
    machine, entry = resolved_program(point, tracer)
    scenario_program = entry.program
    run = machine.time(entry.resolved)
    timing = machine.timing_key
    if not drive.chaining:
        entry.baselines.setdefault(timing, run.total_cycles)
    extras: list[tuple[str, object]] = [
        ("program", scenario_program.label),
        ("instruction_count", len(scenario_program.program)),
        ("memory_instructions",
         scenario_program.program.memory_instruction_count()),
        ("register_length", point.register_length),
        ("total_cycles", run.total_cycles),
        ("chained_instructions", run.chained_count()),
        ("conflict_free_loads", run.conflict_free_loads()),
        ("overlap_fraction", run.overlap_fraction),
        ("memory_ports", config.ports),
        ("memory_streams", machine.memory_streams),
        ("stream_concurrency_peak", run.stream_concurrency_peak),
    ]
    if run.outputs_correct is not None:
        extras.append(("numerically_correct", run.outputs_correct))
        if run.output_errors:
            extras.append(("output_errors", run.output_errors[:5]))
    if drive.chaining:
        # The Section 5-F measurement for whole kernels: the same
        # accesses timed on an otherwise-identical machine that does not
        # chain.  Values do not depend on timing, so only the timing pass
        # runs, untraced so its events do not overlay this run's.
        decoupled_cycles = entry.baselines.get(timing)
        if decoupled_cycles is None:
            decoupled_cycles = (
                point.machine(chaining=False).time(entry.resolved).total_cycles
            )
            entry.baselines.setdefault(timing, decoupled_cycles)
        measured = (
            decoupled_cycles / run.total_cycles if run.total_cycles else 1.0
        )
        extras.append(("chaining_speedup", measured))
        # The analytic model assumes every access is conflict-free and
        # a serial memory unit (one in-flight access); only report it
        # (and its acceptance tolerance) when both premises hold, so
        # consumers never compare against an inapplicable prediction.
        model_applicable = machine.memory_streams == 1 and all(
            access.conflict_free for _scheme, access in run.memory_runs
        )
        extras.append(("chaining_model_applicable", model_applicable))
        if model_applicable:
            extras.extend(
                (
                    (
                        "chaining_speedup_model",
                        program_chaining_speedup(
                            scenario_program.program,
                            point.register_length,
                            config.service_ratio,
                            drive.execute_startup,
                        ),
                    ),
                    ("chaining_model_tolerance", CHAINING_MODEL_TOLERANCE),
                )
            )
    return _aggregate(
        point, list(run.memory_runs), tuple(extras), timeline=run.timeline
    )
