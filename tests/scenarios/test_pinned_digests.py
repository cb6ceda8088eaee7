"""Pinned digests of whole-program and Figure 6 results.

Each digest is the SHA-256 of every field of every result in a spec set,
serialised as canonical JSON.  The sets are the committed 64-point daxpy
grid, the committed 40-point Figure 6 grid, and the example of each
registered program kind on eight machines: chaining off and on,
``memory_streams`` 1 and 2, and ports 1 and 2 (``matched-xor`` for one
port, ``section-xor`` for two).  A change to how the program path moves
data or times its memory batches, or to how the Figure 6 engine issues
its stream, must leave them all unchanged; a new program kind adds its
own entry.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.scenarios import (
    ComponentSpec,
    MemorySpec,
    ScenarioSpec,
    load_scenarios,
    simulate,
)
from repro.scenarios.registry import PROGRAM, example_params, kinds

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

GRID_64_DIGEST = (
    "c4349913289064b647e3e550429b0480487275803649da119ac04446ef073746"
)

FIGURE6_GRID_DIGEST = (
    "5494f00cd215fb3382c56792591009df1214a76c989531745d065db506ee07d4"
)

KIND_DIGESTS = {
    "asm": "71a017fbd55a9541eab18f374f592a8bfc46444da45d02393631ca31332ff605",
    "daxpy": "72714dfe03a3f32a9f1de2771a74ef427a1b75e63effdad635a9e537dd39f637",
    "elementwise-product": "77ec0e4ae0f1493bedfd3c1c596e26540a28b15f237b7818c29b872f108bded4",
    "fft-butterfly": "e6cb8bded147259aeea1decaea7adaea8af2aea82a39bfa11f359bf1dba07d1f",
    "gather": "f7f8b712312d94025440a00f5b39e306e028b41153452bac9d5671fb10ad805c",
    "instructions": "37340fda738f626480dcda00dc7833bb9a83906ce08d802289663b6b0f9ba87b",
    "load-store-copy": "8b1a16f488499a14e53dfdec4ba66d6584e87375e91d9d6092b189c518883ade",
    "saxpy-chain": "952e964a5331356347bd0880d0566ec1e00557caa9b69e748f74a8ae7a433547",
    "scatter": "40f5f39864b261f43468d9c5202f4418aaf27c537ca2448b06ffd8bcaf1cf16c",
    "vsum": "c324ee3ff864a60a0569ac6231a090a202f5a9874cd9d0e96b1e68e29bb55fb1",
}


def digest(results) -> str:
    body = json.dumps(
        [result.to_dict() for result in results],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode()).hexdigest()


def kind_specs(kind: str) -> list[ScenarioSpec]:
    specs = []
    for chaining in (False, True):
        for streams in (1, 2):
            for ports in (1, 2):
                mapping = (
                    ComponentSpec.of("matched-xor", t=3, s=4)
                    if ports == 1
                    else ComponentSpec.of("section-xor", t=3, s=4, y=9)
                )
                specs.append(
                    ScenarioSpec(
                        mapping=mapping,
                        memory=MemorySpec(t=3, q=2, ports=ports),
                        program=ComponentSpec.of(
                            kind, **example_params(PROGRAM, kind)
                        ),
                        drive=ComponentSpec.of(
                            "decoupled",
                            chaining=chaining,
                            memory_streams=streams,
                        ),
                    )
                )
    return specs


def test_program_grid_64_digest():
    specs = load_scenarios(
        (EXAMPLES / "scenario_program_grid_64.json").read_text()
    )
    assert len(specs) == 64
    assert digest(simulate(spec) for spec in specs) == GRID_64_DIGEST


def test_figure6_grid_digest():
    specs = load_scenarios(
        (EXAMPLES / "scenario_figure6_grid.json").read_text()
    )
    assert len(specs) == 40
    assert digest(simulate(spec) for spec in specs) == FIGURE6_GRID_DIGEST


def test_every_program_kind_is_pinned():
    assert sorted(KIND_DIGESTS) == kinds(PROGRAM)


@pytest.mark.parametrize("kind", sorted(KIND_DIGESTS))
def test_program_kind_digest(kind):
    results = [simulate(spec) for spec in kind_specs(kind)]
    for result in results:
        assert dict(result.extras).get("numerically_correct") is not False
    assert digest(results) == KIND_DIGESTS[kind]
