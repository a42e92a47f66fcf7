"""Counter machines as concrete r.e. indices, bounded halting answers,
Cantor pairing, and the witness-race sets Z / B / B-perp / C with the
Turing reduction through any r.e. separator.

Machine format: instructions over registers ``r0..rk``, one per line,
line numbers implicit from 0::

    INC r1
    DECJZ r0 4      # if r0 == 0 jump to line 4, else decrement
    HALT            # '#' starts a comment

Input is placed in ``r0``; all other registers start at 0.  The halting
step count (number of executed instructions, including the HALT) is the
unique computation witness for a halting pair (machine, input).  A program
that runs off its last line halts there, at the number of instructions it
executed.

Each program is compiled once into flat int tuples (opcode, register,
jump target) and carries a halting memo from input value to what is known
about that run: the halting step, proven divergence (a jump to itself on a
zero register), or the open state after the furthest bound explored (steps
done, pc, registers).  ``run`` answers from the memo when it covers the
bound and otherwise resumes from the stored state, so the bounded queries
on one (program, input) pair step each instruction of its run once between
them.  A memo holds at most ``MEMO_CAP`` inputs; past that the oldest
entry goes, and a later query on it starts again from step 0.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path
from typing import Callable, Sequence


class MachineError(Exception):
    pass


class OracleContractError(Exception):
    """An oracle or machine table violated its stated obligations."""


@dataclass(frozen=True)
class Inc:
    reg: int


@dataclass(frozen=True)
class DecJz:
    reg: int
    target: int


@dataclass(frozen=True)
class Halt:
    pass


Instruction = Inc | DecJz | Halt


# Opcodes of the compiled form; _END sits one past the last line.
_HALT, _INC, _DECJZ, _END = range(4)

MEMO_CAP = 4096  # inputs remembered per program
_DIVERGES = -1  # memo value of a run proven never to halt


@dataclass(frozen=True)
class MachineProgram:
    instructions: tuple[Instruction, ...]
    # (opcodes, registers, targets, register count): derived, not compared
    code: tuple = field(init=False, compare=False, repr=False)
    # input -> halting step | _DIVERGES | [steps, pc, registers]
    memo: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.instructions:
            raise MachineError("a program needs at least one instruction")
        rows = []
        for k, ins in enumerate(self.instructions):
            match ins:
                case Halt():
                    rows.append((_HALT, 0, 0))
                case Inc(r):
                    rows.append((_INC, r, 0))
                case DecJz(r, t):
                    if not 0 <= t < len(self.instructions):
                        raise MachineError(f"line {k}: jump target {t} out of range")
                    rows.append((_DECJZ, r, t))
        rows.append((_END, 0, 0))
        ops, regs, targets = zip(*rows)
        object.__setattr__(self, "code", (ops, regs, targets, max(regs) + 1))

    def __str__(self) -> str:
        out = []
        for ins in self.instructions:
            match ins:
                case Inc(r):
                    out.append(f"INC r{r}")
                case DecJz(r, t):
                    out.append(f"DECJZ r{r} {t}")
                case Halt():
                    out.append("HALT")
        return "\n".join(out)


_REG = re.compile(r"r(\d+)\Z")


def parse_program(text: str) -> MachineProgram:
    instructions: list[Instruction] = []
    for lineno, raw in enumerate(text.splitlines()):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            match parts:
                case ["HALT"]:
                    instructions.append(Halt())
                case ["INC", reg]:
                    instructions.append(Inc(_parse_reg(reg)))
                case ["DECJZ", reg, target]:
                    instructions.append(DecJz(_parse_reg(reg), int(target)))
                case _:
                    raise MachineError(f"unrecognised instruction {line!r}")
        except (ValueError, MachineError) as exc:
            raise MachineError(f"line {lineno}: {exc}") from None
    return MachineProgram(tuple(instructions))


def _parse_reg(text: str) -> int:
    m = _REG.match(text)
    if not m:
        raise MachineError(f"bad register {text!r}")
    return int(m.group(1))


def load_program(path: str | Path) -> MachineProgram:
    return parse_program(Path(path).read_text())


def load_table(directory: str | Path) -> list[MachineProgram]:
    """Machine table from a directory of ``*.cm`` files, sorted by name."""
    paths = sorted(Path(directory).glob("*.cm"))
    if not paths:
        raise MachineError(f"no *.cm files in {directory}")
    return [load_program(p) for p in paths]


# ---------------------------------------------------------------------------
# Bounded answers


@dataclass(frozen=True)
class Yes:
    witness: int


@dataclass(frozen=True)
class No:
    pass


@dataclass(frozen=True)
class Unknown:
    bound: int


BoundedAnswer = Yes | No | Unknown

NO = No()


# ---------------------------------------------------------------------------
# Execution


def run(program: MachineProgram, value: int, max_steps: int) -> BoundedAnswer:
    """Yes(s) iff the program halts on ``value`` at exactly step s <= max_steps.

    Reads and extends the program's halting memo (module docstring)."""
    if max_steps < 1:
        raise MachineError("max_steps must be >= 1")
    memo = program.memo
    state = memo.get(value)
    if state is None:
        ops, reg_of, target_of, width = program.code
        steps, pc, regs = 0, 0, [0] * width
        regs[0] = value
        if len(memo) >= MEMO_CAP:
            del memo[next(iter(memo))]
    elif isinstance(state, int):
        return Yes(state) if 0 < state <= max_steps else Unknown(max_steps)
    else:
        steps, pc, regs = state
        if steps >= max_steps:
            return Unknown(max_steps)
        ops, reg_of, target_of, _ = program.code
    while steps < max_steps:
        op = ops[pc]
        if op == _INC:
            regs[reg_of[pc]] += 1
            pc += 1
        elif op == _DECJZ:
            r = reg_of[pc]
            if regs[r]:
                regs[r] -= 1
                pc += 1
            elif target_of[pc] == pc:
                # self-loop on a zero register: provably divergent, no
                # need to burn the remaining budget
                memo[value] = _DIVERGES
                return Unknown(max_steps)
            else:
                pc = target_of[pc]
        elif op == _HALT:
            memo[value] = steps + 1
            return Yes(steps + 1)
        else:
            break  # ran off the last line
        steps += 1
    if ops[pc] == _END:
        memo[value] = steps
        return Yes(steps)
    memo[value] = [steps, pc, regs]
    return Unknown(max_steps)


def halting_step(program: MachineProgram, value: int, bound: int) -> int | None:
    answer = run(program, value, bound)
    return answer.witness if isinstance(answer, Yes) else None


def t1(program: MachineProgram, value: int, steps: int) -> bool:
    """The unique-computation predicate: the program on ``value`` halts at
    exactly step ``steps``."""
    if steps < 1:
        return False
    return run(program, value, steps) == Yes(steps)


# ---------------------------------------------------------------------------
# Cantor pairing


def pair(x: int, y: int) -> int:
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(z: int) -> tuple[int, int]:
    if z < 0:
        raise MachineError(f"cannot unpair a negative number {z}")
    s = (isqrt(8 * z + 1) - 1) // 2
    y = z - s * (s + 1) // 2
    return s - y, y


def proj0(z: int) -> int:
    return unpair(z)[0]


def proj1(z: int) -> int:
    return unpair(z)[1]


# ---------------------------------------------------------------------------
# Shoenfield's witness-race sets


DIVERGER = MachineProgram((DecJz(1, 0),))


class PaddedTable(Sequence):
    """View of a finite machine table extended by divergers, so every
    pair-projection index names a machine (of the empty r.e. set)."""

    def __init__(self, table: Sequence[MachineProgram]):
        self._table = list(table)

    def __getitem__(self, idx):
        return self._table[idx] if idx < len(self._table) else DIVERGER

    def __len__(self):
        return len(self._table)


def member_Z(x: int, table: Sequence[MachineProgram], bound: int) -> BoundedAnswer:
    """x is in Z iff the machine indexed by the second projection of x halts
    on x itself; Yes carries the halting step."""
    idx = proj1(x)
    try:
        program = table[idx]
    except IndexError:
        raise MachineError(f"machine index {idx} outside the table (size {len(table)})") from None
    return run(program, x, bound)


def member_B(a: MachineProgram, x: int, table: Sequence[MachineProgram],
             bound: int) -> BoundedAnswer:
    """Strict witness race: some halting step ya of ``a`` on the first
    projection of x, with no Z-halt at any step <= ya.

    No is only emitted when logically forced: either both witnesses are in
    hand and the race resolves against B, or the Z-witness is known and
    every step it dominates has been exhausted.
    """
    ya = halting_step(a, proj0(x), bound)
    z = _z_step(x, table, bound)
    if ya is not None:
        return Yes(ya) if z is None or z > ya else NO
    if z is not None:
        # any A-witness would exceed the bound and hence z: the strict
        # comparison can no longer come out true
        return NO
    return Unknown(bound)


def member_Bbot(a: MachineProgram, x: int, table: Sequence[MachineProgram],
                bound: int) -> BoundedAnswer:
    """Non-strict mirror race: a Z-halt at step z with no halt of ``a`` on
    the first projection at any step < z; ties go to this side."""
    ya = halting_step(a, proj0(x), bound)
    z = _z_step(x, table, bound)
    if z is not None:
        return Yes(z) if ya is None or ya >= z else NO
    if ya is not None:
        return NO
    return Unknown(bound)


def member_C(a: MachineProgram, x: int, table: Sequence[MachineProgram],
             bound: int) -> BoundedAnswer:
    """Conjunction of membership of the first projection in the base set
    with the non-strict race: three-valued, No dominating Unknown."""
    ya = halting_step(a, proj0(x), bound)
    race = member_Bbot(a, x, table, bound)
    if isinstance(race, No):
        return NO
    if ya is not None and isinstance(race, Yes):
        return Yes(max(ya, race.witness))
    return Unknown(bound)


def _z_step(x: int, table: Sequence[MachineProgram], bound: int) -> int | None:
    answer = member_Z(x, table, bound)
    return answer.witness if isinstance(answer, Yes) else None


# ---------------------------------------------------------------------------
# The Turing reduction through a separator


def turing_reduce(w: int, a: MachineProgram, d_index: int,
                  d_oracle: Callable[[int], bool],
                  table: Sequence[MachineProgram], bound: int) -> str:
    """Decide membership of ``w`` in the halting set of ``a`` using one
    query to an oracle for an r.e. set separating B from C.

    Returns ``"in_A"``, ``"not_in_A"`` or ``"unknown"``.  If the oracle
    answers positively but the indexed machine refuses to produce the
    promised halting witness within the bound, that is a contract violation,
    not an unknown.
    """
    if not 0 <= d_index < len(table):
        raise MachineError(f"machine index {d_index} outside the table")
    x = pair(w, d_index)
    if not d_oracle(x):
        return "not_in_A"
    z = halting_step(table[d_index], x, bound)
    if z is None:
        raise OracleContractError(
            f"oracle asserts membership of {x} but machine {d_index} "
            f"does not halt within {bound} steps")
    if z == 1:
        return "not_in_A"  # no room for a strictly earlier witness
    ya = halting_step(a, w, z - 1)
    return "in_A" if ya is not None else "not_in_A"
