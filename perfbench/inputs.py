"""Seeded workload inputs for the benchmark.

Every spec file a benchmark run feeds the program comes from here, as a
pure function of ``(workload, seed)``: the same seed writes the same
bytes.  The program under test only ever sees these files — grid files
handed to ``repro lab sweep`` and grid documents POSTed to ``repro lab
serve`` — never this module.

The grids are stratified so that every seed asks for the same amount of
work: the seed picks strides, queue depths, base addresses and index
sets inside fixed cells (mapping kind x ports x length set x stride
family class), so throughput differences between seeds stay small next
to the differences between commits the benchmark must resolve.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

#: The seed the stored digests (``digests.json``) were recorded under.
DEFAULT_SEED = 1

WORKLOADS = ("access-sweep", "program-grid", "serve-mix")

MAPPINGS = {
    "matched-xor": {"kind": "matched-xor", "params": {"t": 3, "s": 4}},
    "section-xor": {"kind": "section-xor", "params": {"t": 3, "s": 4, "y": 9}},
    "interleaved": {"kind": "interleaved", "params": {"m": 3}},
}

#: Stride families ``x`` of ``stride = sigma * 2**x`` (sigma odd).  With
#: ``s = 4`` the planner's conflict-free window covers x <= 4; larger
#: families are conflict-prone on every mapping used here.
CONFLICT_FREE_FAMILIES = (0, 1, 2, 3, 4)
CONFLICT_PRONE_FAMILIES = (5, 6, 7)
ODD_FACTORS = (1, 3, 5, 7, 9, 11, 13, 15)
QUEUE_DEPTHS = (1, 2, 3, 4, 6, 8, 12, 16)

#: Every access-sweep batch draws its four lengths from one of these
#: sets (cycled over batches), so the total element count of a pass does
#: not depend on the seed.
LENGTH_SETS = ((32, 96, 384, 1024), (48, 128, 512, 768), (64, 256, 640, 1000))
#: The Figure 6 engine needs lengths that are whole multiples of its
#: largest subsequence chunk (2**(w+t-x) <= 128 here).
FIGURE6_LENGTHS = (128, 256, 512, 1024)

#: Whole-program kinds and the stride parameters each one accepts.
PROGRAM_STRIDES = {
    "daxpy": ("x_stride", "y_stride"),
    "saxpy-chain": ("x_stride", "out_stride"),
    "elementwise-product": ("a_stride", "b_stride", "out_stride"),
    "load-store-copy": ("src_stride", "dst_stride"),
    "fft-butterfly": (),
    "vsum": ("src_stride",),
    "gather": ("index_stride", "out_stride"),
    "scatter": ("index_stride", "src_stride"),
}
PROGRAM_LENGTHS = (256, 512)

#: serve-mix: new grids per client written up front.  A 20 s closed-loop
#: run uses about 300 today, so a server several times faster still
#: does not run out.
SERVE_CLIENTS = 2
SERVE_GRIDS_PER_CLIENT = 1000
SERVE_REPEAT_SHARE = 0.5


def _stride(rng: random.Random, families: tuple[int, ...]) -> int:
    return rng.choice(ODD_FACTORS) << rng.choice(families)


def _strides(rng: random.Random, free: int, prone: int) -> list[int]:
    """Distinct strides: ``free`` conflict-free-family, ``prone`` not."""
    chosen: list[int] = []
    for count, families in (
        (free, CONFLICT_FREE_FAMILIES),
        (prone, CONFLICT_PRONE_FAMILIES),
    ):
        picked = 0
        while picked < count:
            stride = _stride(rng, families)
            if stride not in chosen:
                chosen.append(stride)
                picked += 1
    return chosen


def _queue_depths(rng: random.Random, count: int) -> list[int]:
    return sorted(rng.sample(QUEUE_DEPTHS, count))


def _memory(q: int = 1, ports: int = 1) -> dict:
    return {"t": 3, "q": q, "ports": ports}


def _grid(name: str, mapping: str, memory: dict, section: tuple[str, dict],
          drive: dict, axes: dict) -> dict:
    key, value = section
    return {
        "base": {
            "name": name,
            "mapping": MAPPINGS[mapping],
            "memory": memory,
            key: value,
            "drive": drive,
        },
        "axes": axes,
    }


def access_sweep_grids(seed: int) -> list[dict]:
    """24 grids of 48 planner-drive points (1152 points).

    20 strided grids cycle over mapping kind x ports x length set, each
    sweeping two conflict-free-family and two conflict-prone strides;
    two grids hold indexed accesses (bit reversal, explicit gather) and
    two run the Figure 6 engine on conflict-free-family strides.
    """
    rng = random.Random(f"access-sweep:{seed}")
    planner = {"kind": "planner", "params": {"mode": "auto"}}
    kinds = tuple(MAPPINGS)
    grids = []
    for index in range(20):
        grids.append(
            _grid(
                f"as{index:02d}",
                kinds[index % 3],
                _memory(ports=1 + (index // 3) % 2),
                (
                    "workload",
                    {
                        "kind": "strided",
                        "params": {
                            "base": rng.randrange(4096),
                            "stride": 1,
                            "length": 32,
                        },
                    },
                ),
                planner,
                {
                    "workload.params.stride": _strides(rng, 2, 2),
                    "workload.params.length": list(LENGTH_SETS[index % 3]),
                    "memory.q": _queue_depths(rng, 3),
                },
            )
        )
    grids.append(
        _grid(
            "as20-bitrev",
            kinds[rng.randrange(2)],
            _memory(),
            ("workload", {"kind": "bit-reversal", "params": {"bits": 5}}),
            planner,
            {
                "workload.params.bits": [5, 7, 8, 10],
                "workload.params.base": sorted(
                    rng.sample(range(0, 4096, 32), 4)
                ),
                "memory.q": _queue_depths(rng, 3),
            },
        )
    )
    grids.append(
        _grid(
            "as21-gather",
            kinds[rng.randrange(2)],
            _memory(),
            (
                "workload",
                {
                    "kind": "csr-gather",
                    "params": {"row_length": 32, "column_count": 4096},
                },
            ),
            planner,
            {
                "workload.params.row_length": [32, 128, 256, 1024],
                "workload.params.seed": sorted(rng.sample(range(1 << 16), 4)),
                "memory.q": _queue_depths(rng, 3),
            },
        )
    )
    for index, mapping in ((22, "matched-xor"), (23, "section-xor")):
        grids.append(
            _grid(
                f"as{index}-figure6",
                mapping,
                _memory(),
                (
                    "workload",
                    {
                        "kind": "strided",
                        "params": {
                            "base": rng.randrange(4096),
                            "stride": 1,
                            "length": 32,
                        },
                    },
                ),
                {"kind": "figure6", "params": {}},
                {
                    "workload.params.stride": _strides(rng, 4, 0),
                    "workload.params.length": list(FIGURE6_LENGTHS),
                    "memory.q": _queue_depths(rng, 3),
                },
            )
        )
    return grids


def program_grids(seed: int) -> list[dict]:
    """16 grids of 8 whole-program points (128 points).

    Each registered program kind appears once per program length.  The
    seed picks its odd stride factors and two queue depths, and every
    grid sweeps chaining x ``memory_streams`` 1/2 on a two-port memory.
    """
    rng = random.Random(f"program-grid:{seed}")
    grids = []
    for index, (length, kind) in enumerate(
        (length, kind) for length in PROGRAM_LENGTHS for kind in PROGRAM_STRIDES
    ):
        params: dict = {"n": length}
        # Each stride's family is fixed by its position, so every seed
        # asks for the same mix of unit, even and multiple-of-4 strides.
        for position, name in enumerate(PROGRAM_STRIDES[kind]):
            params[name] = rng.choice(ODD_FACTORS) << (index + position) % 3
        grids.append(
            _grid(
                f"pg{index:02d}-{kind}",
                "matched-xor",
                _memory(ports=2),
                ("program", {"kind": kind, "params": params}),
                {
                    "kind": "decoupled",
                    "params": {"chaining": False, "memory_streams": 1},
                },
                {
                    "drive.params.chaining": [False, True],
                    "drive.params.memory_streams": [1, 2],
                    "memory.q": _queue_depths(rng, 2),
                },
            )
        )
    return grids


def serve_grid(rng: random.Random, name: str) -> dict:
    """One small serve-mix grid: 4, 6 or 8 short planner points."""
    lengths = sorted(rng.sample((32, 48, 64, 96, 128), rng.choice((2, 3, 4))))
    return _grid(
        name,
        rng.choice(("matched-xor", "interleaved")),
        _memory(q=rng.choice((1, 2, 4))),
        (
            "workload",
            {
                "kind": "strided",
                "params": {"base": rng.randrange(4096), "stride": 1, "length": 32},
            },
        ),
        {"kind": "planner", "params": {"mode": "auto"}},
        {
            "workload.params.stride": _strides(rng, 1, 1),
            "workload.params.length": lengths,
        },
    )


def serve_schedule(rng: random.Random, grids: int) -> list[int]:
    """A client's submission order, as indices into its grid files.

    Roughly half the submissions resubmit a grid the same client already
    ran (all cache hits); the rest take the next new grid.  The schedule
    is fixed by the seed, not by timing, so a closed loop replays it
    identically however fast the server answers.
    """
    schedule: list[int] = []
    fresh = 0
    while fresh < grids:
        if fresh and rng.random() < SERVE_REPEAT_SHARE:
            schedule.append(rng.randrange(fresh))
        else:
            schedule.append(fresh)
            fresh += 1
    return schedule


def _dump(path: Path, document) -> None:
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def write_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Write one workload's spec files under ``directory``.

    Returns a plan of the files: ``{"grids": [paths...]}`` for the lab
    workloads, ``{"clients": [{"grids": [...], "points": [...],
    "schedule": [...]}]}`` for serve-mix.
    """
    directory.mkdir(parents=True, exist_ok=True)
    if workload in ("access-sweep", "program-grid"):
        grids = (
            access_sweep_grids(seed)
            if workload == "access-sweep"
            else program_grids(seed)
        )
        paths = []
        for index, grid in enumerate(grids):
            path = directory / f"grid-{index:02d}.json"
            _dump(path, grid)
            paths.append(str(path))
        return {"grids": paths}
    if workload == "serve-mix":
        clients = []
        for client in range(SERVE_CLIENTS):
            rng = random.Random(f"serve-mix:{seed}:{client}")
            client_dir = directory / f"client-{client}"
            client_dir.mkdir(exist_ok=True)
            paths, points = [], []
            for index in range(SERVE_GRIDS_PER_CLIENT):
                path = client_dir / f"grid-{index:04d}.json"
                grid = serve_grid(rng, f"sm-c{client}-g{index:04d}")
                _dump(path, grid)
                paths.append(str(path))
                points.append(math.prod(len(values) for values in grid["axes"].values()))
            clients.append(
                {
                    "grids": paths,
                    "points": points,
                    "schedule": serve_schedule(rng, len(paths)),
                }
            )
        return {"clients": clients}
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
