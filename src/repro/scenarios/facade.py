"""The scenario facade: spec in, normalised metrics out.

Entry points:

* :func:`simulate` — build the machine, generate the workload (or the
  program), drive the memory, and normalise the metrics (latency,
  stalls, conflict-freedom, efficiency, per-module utilisation) into
  one JSON-safe :class:`ScenarioResult`;
* :func:`simulate_access` — :func:`simulate` for one strided access on
  a machine-only spec, the way the paper's tables, ``repro survey`` and
  the Section 5-B validation measure an access;
* :func:`build_machine` — spec to live ``(MemoryConfig, AccessPlanner,
  MemorySystem)``, for callers that need the planner's own facts or a
  request's timing record rather than a measured result.

Under the planner drive, a workload whose every access is strided and
conflict-free is answered in closed form — ``T + L + 1`` cycles per
access, the paper's Section 2 minimum — without a kernel run; a traced
call always runs the kernel, which is what the tests compare against.

A spec with a ``program`` section runs a whole vector program through
:meth:`~repro.processor.decoupled.DecoupledVectorMachine.run` — the
same path the workload-driven ``decoupled`` drive uses — and the result
additionally carries the per-instruction ``timeline``, total machine
cycles, the overlap fraction, the measured-vs-analytic chaining
speedup, and the end-to-end numerical-correctness verdict.

Both entry points raise :class:`~repro.errors.ConfigurationError` for
infeasible combinations (a dynamic mapping without a strided workload,
the Figure 6 engine on a gather, a register shorter than the vector, a
program under a non-decoupled drive), so a bad spec fails loudly before
any simulation starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.gather import IndexedAccess, plan_indexed
from repro.core.planner import AccessPlanner, cf_order_feasible
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
    DecoupledDrive,
    Figure6Drive,
    PlannerDrive,
    Workload,
)
from repro.scenarios.registry import DRIVE, MAPPING, PROGRAM, WORKLOAD, build
from repro.scenarios.spec import ComponentSpec, ScenarioSpec

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

    The program path needs only this — the decoupled machine plans and
    simulates its own accesses — while :func:`build_machine` layers the
    planner and memory system on top for the access-driven paths.
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
    cycle-accurate memory system.  :func:`simulate` measures through
    it; other callers use it for what a :class:`ScenarioResult` does
    not carry (a plan's layout or subsequences, per-request timing
    records, a composite request stream no planner mode produces).
    """
    config = build_config(spec, workload)
    planner = AccessPlanner(config.mapping, config.t)
    return config, planner, MemorySystem(config)


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
    drive = build(DRIVE, spec.drive)
    if spec.program is not None:
        if not isinstance(drive, DecoupledDrive):
            raise ConfigurationError(
                f"scenario programs run on the decoupled machine; set "
                f"drive kind to 'decoupled' (got {spec.drive.kind!r})"
            )
        return _simulate_program(spec, build_config(spec), drive, tracer)
    workload = build_workload(spec)
    config, planner, system = build_machine(spec, workload)
    if isinstance(drive, PlannerDrive):
        return _simulate_planner(
            spec, workload, config, planner, system, drive, tracer
        )
    if isinstance(drive, Figure6Drive):
        return _simulate_figure6(
            spec, workload, config, planner, system, tracer
        )
    if isinstance(drive, DecoupledDrive):
        return _simulate_decoupled(spec, workload, config, drive, tracer)
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
    spec: ScenarioSpec,
    config: MemoryConfig,
    runs: list[tuple[str, AccessResult]],
    extras: tuple[tuple[str, object], ...] = (),
    timeline: tuple[tuple, ...] = (),
) -> ScenarioResult:
    """Fold per-access results into one scenario-level record.

    Multi-access workloads (kernels) are simulated back to back, so
    totals add and conflict-freedom is the conjunction.
    """
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
        name=spec.name,
        drive=spec.drive.kind,
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
    spec: ScenarioSpec,
    config: MemoryConfig,
    accesses: list,
    plans: list,
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
        name=spec.name,
        drive=spec.drive.kind,
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


def _simulate_planner(
    spec: ScenarioSpec,
    workload: Workload,
    config: MemoryConfig,
    planner: AccessPlanner,
    system: MemorySystem,
    drive: PlannerDrive,
    tracer=None,
) -> ScenarioResult:
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
    accesses = workload.accesses()
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
        return _closed_form(spec, config, accesses, plans)
    runs: list[tuple[str, AccessResult]] = []
    # Accesses run back to back, so each one's kernel events are shifted
    # by the latency accumulated before it — the exported timeline shows
    # the workload as one continuous run.
    offset = 0
    for access, plan in zip(accesses, plans):
        if plan is None:
            plan = planner.plan(access, mode=drive.mode)
        run = system.run_plan(plan, tracer=tracer.shifted(offset))
        offset += run.latency
        runs.append((plan.scheme, run))
    return _aggregate(spec, config, runs)


def _simulate_figure6(
    spec: ScenarioSpec,
    workload: Workload,
    config: MemoryConfig,
    planner: AccessPlanner,
    system: MemorySystem,
    tracer=None,
) -> ScenarioResult:
    from repro.hardware.oos_engine import Figure6Engine

    vector = workload.single_vector()
    engine = Figure6Engine(planner, vector)
    run = system.run_stream(engine.request_stream(), tracer=tracer)
    report = engine.report()
    extras = (
        ("latch_peak_occupancy", report.latch_peak_occupancy),
        ("latch_capacity", report.latch_capacity),
        ("generator_adds", report.generator1_adds + report.generator2_adds),
    )
    return _aggregate(spec, config, [("conflict_free", run)], extras)


def _machine(
    config: MemoryConfig,
    register_length: int,
    drive: DecoupledDrive,
    tracer=None,
):
    """The decoupled machine of one design point and drive."""
    from repro.processor.decoupled import DecoupledVectorMachine

    return DecoupledVectorMachine(
        config,
        register_length,
        execute_startup=drive.execute_startup,
        chaining=drive.chaining,
        plan_mode=drive.plan_mode,  # type: ignore[arg-type]
        memory_streams=drive.memory_streams,
        tracer=tracer,
    )


def _simulate_decoupled(
    spec: ScenarioSpec,
    workload: Workload,
    config: MemoryConfig,
    drive: DecoupledDrive,
    tracer=None,
) -> ScenarioResult:
    from repro.processor.decoupled import single_load_program

    vector = workload.single_vector()
    register_length = drive.register_length or vector.length
    if register_length < vector.length:
        raise ConfigurationError(
            f"register_length {register_length} is shorter than the "
            f"workload vector ({vector.length} elements)"
        )
    # The implicit program: one VLOAD (plus a dependent VADD when
    # chaining, which makes the chained overlap observable).
    program = single_load_program(vector, drive.chaining)
    inputs = (
        (
            vector.base,
            vector.stride,
            tuple(float(i) for i in range(vector.length)),
        ),
    )
    run = _machine(config, register_length, drive, tracer).run(
        program, inputs
    )
    load_scheme = run.memory_runs[0][0]
    extras = (
        ("total_cycles", run.total_cycles),
        ("chained_instructions", run.chained_count()),
        ("conflict_free_loads", run.conflict_free_loads()),
        ("load_scheme", load_scheme),
        ("overlap_fraction", run.overlap_fraction),
    )
    return _aggregate(
        spec, config, list(run.memory_runs), extras, timeline=run.timeline
    )


def _simulate_program(
    spec: ScenarioSpec,
    config: MemoryConfig,
    drive: DecoupledDrive,
    tracer=None,
) -> ScenarioResult:
    """Run a whole-program scenario on the decoupled machine.

    Memory metrics (latency, stalls, conflict-freedom...) aggregate over
    every LOAD/STORE the program issued; machine-level observations land
    in ``extras`` and the per-instruction ``timeline``.  When the drive
    enables chaining, the run's resolved accesses are also timed on an
    otherwise-identical non-chaining machine, and the measured
    decoupled/chained speedup is reported next to the analytic
    :func:`repro.processor.chaining.program_chaining_speedup` prediction
    with the model's stated tolerance.
    """
    from repro.processor.chaining import (
        CHAINING_MODEL_TOLERANCE,
        program_chaining_speedup,
    )
    from repro.scenarios.components import DEFAULT_PROGRAM_REGISTER_LENGTH

    register_length = drive.register_length or DEFAULT_PROGRAM_REGISTER_LENGTH
    scenario_program = build(
        PROGRAM, spec.program, register_length=register_length
    )
    machine = _machine(config, register_length, drive, tracer)
    run = machine.run(
        scenario_program.program,
        scenario_program.inputs,
        scenario_program.expected,
    )
    extras: list[tuple[str, object]] = [
        ("program", scenario_program.label),
        ("instruction_count", len(scenario_program.program)),
        ("memory_instructions",
         scenario_program.program.memory_instruction_count()),
        ("register_length", register_length),
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
        # runs.  Untraced, so its events do not overlay this run's.
        decoupled = _machine(
            config, register_length, replace(drive, chaining=False)
        ).time(run.resolved)
        measured = (
            decoupled.total_cycles / run.total_cycles
            if run.total_cycles
            else 1.0
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
                            register_length,
                            config.service_ratio,
                            drive.execute_startup,
                        ),
                    ),
                    ("chaining_model_tolerance", CHAINING_MODEL_TOLERANCE),
                )
            )
    return _aggregate(
        spec,
        config,
        list(run.memory_runs),
        tuple(extras),
        timeline=run.timeline,
    )
