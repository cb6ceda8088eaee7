"""Vector programs: validation, pretty-printing and a tiny assembler.

A :class:`Program` is an ordered list of ISA instructions plus the
register-count/length context it expects.  The assembler accepts the
obvious textual form, one instruction per line::

    vload  v1, base=100, stride=3
    vload  v2, base=4096, stride=1
    vscale v3, v1, scalar=2.5
    vadd   v4, v3, v2
    vstore v4, base=8192, stride=1

Blank lines and ``#`` comments are ignored.  The assembler exists for the
examples and tests — programs can equally be built from the dataclasses
directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import ProgramError
from repro.processor.isa import (
    Instruction,
    VAdd,
    VGather,
    VLoad,
    VMul,
    VSAdd,
    VScale,
    VScatter,
    VStore,
    VSub,
    VSum,
)


@dataclass
class Program:
    """A straight-line vector program."""

    instructions: list[Instruction] = field(default_factory=list)

    def append(self, instruction: Instruction) -> "Program":
        self.instructions.append(instruction)
        return self

    def validate(
        self, register_count: int, predefined: set[int] | None = None
    ) -> None:
        """Check register numbers and def-before-use.

        ``predefined`` lists registers that already hold values (for
        machines that run several programs against one register file).
        Raises :class:`~repro.errors.ProgramError` with the offending
        instruction index on the first violation.
        """
        defined: set[int] = set(predefined or ())
        for position, instruction in enumerate(self.instructions):
            for register in (*instruction.reads(), *instruction.writes()):
                if not 0 <= register < register_count:
                    raise ProgramError(
                        f"instruction {position} ({instruction.mnemonic}): "
                        f"register V{register} out of range "
                        f"[0, {register_count})"
                    )
            for register in instruction.reads():
                if register not in defined:
                    raise ProgramError(
                        f"instruction {position} ({instruction.mnemonic}): "
                        f"register V{register} read before any definition"
                    )
            defined.update(instruction.writes())

    def memory_instruction_count(self) -> int:
        return sum(1 for i in self.instructions if i.is_memory)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)


_REGISTER = re.compile(r"^v(\d+)$", re.IGNORECASE)

#: One memory preload: ``(base, stride, values)`` — the form both the
#: CLI and the scenario program components feed to ``store.write_vector``.
MemoryInit = tuple[int, int, tuple[float, ...]]


def _parse_register(token: str) -> int:
    match = _REGISTER.match(token.strip())
    if match is None:
        raise ProgramError(
            f"expected a register like 'v1', got {token.strip()!r}"
        )
    return int(match.group(1))


def _parse_keywords(tokens: list[str]) -> dict[str, float]:
    values: dict[str, float] = {}
    for token in tokens:
        token = token.strip()
        if "=" not in token:
            raise ProgramError(f"expected key=value, got {token!r}")
        key, _, raw = token.partition("=")
        try:
            values[key.strip()] = float(raw)
        except ValueError:
            raise ProgramError(f"bad numeric value {raw!r}") from None
    return values


def _require(keywords: dict[str, float], mnemonic: str, *names: str) -> None:
    missing = [name for name in names if name not in keywords]
    if missing:
        raise ProgramError(
            f"{mnemonic} needs {', '.join(f'{name}=<value>' for name in missing)}"
        )


def _optional_length(keywords: dict[str, float]) -> int | None:
    return int(keywords["length"]) if "length" in keywords else None


def _parse_instruction(line: str) -> Instruction:
    """One statement to one instruction; errors carry no location (the
    :func:`assemble` loop attaches line number and source text)."""
    mnemonic, _, rest = line.partition(" ")
    mnemonic = mnemonic.lower()
    operands = [part for part in rest.split(",") if part.strip()]
    if mnemonic in ("vload", "vstore"):
        if len(operands) < 3:
            raise ProgramError(f"{mnemonic} needs 3+ operands")
        register = _parse_register(operands[0])
        keywords = _parse_keywords(operands[1:])
        _require(keywords, mnemonic, "base", "stride")
        kind = VLoad if mnemonic == "vload" else VStore
        return kind(
            register,
            int(keywords["base"]),
            int(keywords["stride"]),
            _optional_length(keywords),
        )
    if mnemonic in ("vadd", "vsub", "vmul"):
        if len(operands) < 3:
            raise ProgramError(f"{mnemonic} needs dst, a, b")
        dst, a, b = (_parse_register(operand) for operand in operands[:3])
        keywords = _parse_keywords(operands[3:])
        kind = {"vadd": VAdd, "vsub": VSub, "vmul": VMul}[mnemonic]
        return kind(dst, a, b, _optional_length(keywords))
    if mnemonic in ("vgather", "vscatter"):
        if len(operands) < 3:
            raise ProgramError(f"{mnemonic} needs reg, index-reg, base=")
        data_register = _parse_register(operands[0])
        index_register = _parse_register(operands[1])
        keywords = _parse_keywords(operands[2:])
        _require(keywords, mnemonic, "base")
        kind = VGather if mnemonic == "vgather" else VScatter
        return kind(
            data_register,
            int(keywords["base"]),
            index_register,
            _optional_length(keywords),
        )
    if mnemonic == "vsum":
        if len(operands) < 2:
            raise ProgramError("vsum needs dst, src")
        dst = _parse_register(operands[0])
        src = _parse_register(operands[1])
        keywords = _parse_keywords(operands[2:])
        return VSum(dst, src, _optional_length(keywords))
    if mnemonic in ("vscale", "vsadd"):
        if len(operands) < 3:
            raise ProgramError(f"{mnemonic} needs dst, src, scalar=")
        dst = _parse_register(operands[0])
        src = _parse_register(operands[1])
        keywords = _parse_keywords(operands[2:])
        _require(keywords, mnemonic, "scalar")
        kind = {"vscale": VScale, "vsadd": VSAdd}[mnemonic]
        return kind(dst, src, keywords["scalar"], _optional_length(keywords))
    raise ProgramError(f"unknown mnemonic {mnemonic!r}")


def parse_directive(line: str) -> MemoryInit:
    """One ``.init``/``.fill`` memory directive to ``(base, stride, values)``.

    * ``.init base=<int>, stride=<int>, values=<v;v;...>`` — the listed
      values as a constant-stride vector;
    * ``.fill base=<int>, stride=<int>, count=<int>, value=<float>`` —
      ``count`` copies of one value.
    """
    name, _, rest = line.partition(" ")
    fields: dict[str, str] = {}
    for part in rest.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ProgramError(f"bad directive field {part!r}")
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    try:
        if name == ".init":
            values = tuple(float(v) for v in fields["values"].split(";") if v)
            return int(fields["base"]), int(fields["stride"]), values
        if name == ".fill":
            return (
                int(fields["base"]),
                int(fields["stride"]),
                (float(fields["value"]),) * int(fields["count"]),
            )
    except KeyError as error:
        raise ProgramError(
            f"directive {name} needs {error.args[0]}=<value>"
        ) from None
    except ValueError as error:
        raise ProgramError(f"bad directive value: {error}") from None
    raise ProgramError(f"unknown directive {name!r}")


def parse_source(
    text: str, *, allow_directives: bool = True
) -> tuple[Program, tuple[MemoryInit, ...]]:
    """Parse a full program source: directives plus instructions.

    Directive lines start with ``.`` and may appear anywhere; blank
    lines and ``#`` comments are ignored.  Every parse failure is a
    :class:`~repro.errors.ProgramError` locating the offending statement
    by line number and source text (also available structurally as
    ``error.line_number`` / ``error.source_line``).
    """
    program = Program()
    inits: list[MemoryInit] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("."):
                if not allow_directives:
                    raise ProgramError(
                        f"directive {line.split(None, 1)[0]!r} is not "
                        "allowed in instruction-only sources"
                    )
                inits.append(parse_directive(line))
            else:
                program.append(_parse_instruction(line))
        except ProgramError as error:
            if error.line_number is not None:
                raise  # already located (nested sources don't re-wrap)
            raise ProgramError(
                f"line {line_number}: {line!r}: {error}",
                line_number=line_number,
                source_line=line,
            ) from None
    return program, tuple(inits)


def assemble(text: str) -> Program:
    """Assemble the textual (instruction-only) form into a :class:`Program`."""
    program, _inits = parse_source(text, allow_directives=False)
    return program


def disassemble(program: Program) -> str:
    """Textual form of a program (inverse of :func:`assemble`)."""
    lines: list[str] = []
    for instruction in program:
        if isinstance(instruction, VLoad):
            suffix = (
                f", length={instruction.length}"
                if instruction.length is not None
                else ""
            )
            lines.append(
                f"vload v{instruction.dst}, base={instruction.base}, "
                f"stride={instruction.stride}{suffix}"
            )
        elif isinstance(instruction, VStore):
            suffix = (
                f", length={instruction.length}"
                if instruction.length is not None
                else ""
            )
            lines.append(
                f"vstore v{instruction.src}, base={instruction.base}, "
                f"stride={instruction.stride}{suffix}"
            )
        elif isinstance(instruction, (VAdd, VSub, VMul)):
            name = f"v{instruction.mnemonic.lower()}"
            suffix = (
                f", length={instruction.length}"
                if instruction.length is not None
                else ""
            )
            lines.append(
                f"{name} v{instruction.dst}, v{instruction.a}, "
                f"v{instruction.b}{suffix}"
            )
        elif isinstance(instruction, (VScale, VSAdd)):
            name = "vscale" if isinstance(instruction, VScale) else "vsadd"
            suffix = (
                f", length={instruction.length}"
                if instruction.length is not None
                else ""
            )
            lines.append(
                f"{name} v{instruction.dst}, v{instruction.src}, "
                f"scalar={instruction.scalar}{suffix}"
            )
        elif isinstance(instruction, VGather):
            suffix = (
                f", length={instruction.length}"
                if instruction.length is not None
                else ""
            )
            lines.append(
                f"vgather v{instruction.dst}, v{instruction.index}, "
                f"base={instruction.base}{suffix}"
            )
        elif isinstance(instruction, VScatter):
            suffix = (
                f", length={instruction.length}"
                if instruction.length is not None
                else ""
            )
            lines.append(
                f"vscatter v{instruction.src}, v{instruction.index}, "
                f"base={instruction.base}{suffix}"
            )
        elif isinstance(instruction, VSum):
            suffix = (
                f", length={instruction.length}"
                if instruction.length is not None
                else ""
            )
            lines.append(
                f"vsum v{instruction.dst}, v{instruction.src}{suffix}"
            )
        else:  # pragma: no cover - defensive
            raise ProgramError(f"cannot disassemble {instruction!r}")
    return "\n".join(lines)
