"""Golden digests over seeded random programs: every rollback, pinned.

A transient window closes in one of three ways -- a branch squash, a
TSX abort or a flush after a signal-suppressed fault -- and each must
put registers, flags, readiness and memory back exactly.  The
decode-plan property suite compares the two decode paths with each
other; this module pins both to one digest over many programs, so a
change to the rollback machinery that shifts any byte fails here even
when both paths shift together.

Three generators feed it:

* the decode-plan suite's ``random_program_text`` (straight-line blocks,
  forward branches, bare TSX-suppressed faulting loads);
* :func:`rich_program_text`, which puts architectural stores, ALU ops,
  calls and branches inside ``xbegin`` regions *before* a faulting
  ``load [r13]``, uses the forwarded byte in the transient window (a
  dependent load, a Jcc, a store, a call), nests transactions, and adds
  bare faulting loads suppressed by a signal handler that halts.
  Only it reaches the state a TSX abort must roll back past the fault
  (to its ``xbegin``), and only it makes the forwarded MDS byte -- so
  the line fill buffer -- visible in the result;
* :func:`nested_program_text`, whose transactions nest one or two deep
  and whose inner transactions abort one after another before the
  enclosing one faults: each abort must leave the TSX stack and the undo
  state exactly as an enclosing abort rolls back past them.

Each program runs on ``Machine("i7-7700", seed=7)`` from boot timing
state (``reset_uarch(noise_seed=99)``), with the program assembled at
one fixed, already-mapped code page and the first 1 KiB of the data
page rewritten (``PAGE_IMAGE``).  The rest of the page is not: calls
push their return address near its end (``rsp`` starts 64 bytes below
it), so that stack slot carries over from one program to the next and
each digest depends on program order.  The digest covers cycles,
retired and issued counts, all registers and flags, faults, the whole
PMU bank, ``events.resolutions`` and the whole data page after the run.
"""

import hashlib
import random

import pytest

from repro.isa.assembler import assemble
from repro.isa.program import INSTRUCTION_SIZE
from repro.isa.registers import FLAGS, GPRS
from repro.memory.paging import PageSize
from repro.sim.machine import Machine
from tests.test_decode_plan_properties import PAGE_IMAGE, REGS, random_program_text

PAGE = int(PageSize.SIZE_4K)

#: Programs per generator: the six cases take about 9 s together on a
#: 2-CPU x86-64 host, most of it in the rich programs' longer runs.
PROGRAMS = {"plain": 400, "rich": 1000, "nested": 300}

#: sha256 over every program's observation, identical on both decode
#: paths.  Captured before the run engine's three undo structures
#: became one journal.
GOLDEN = {
    "plain": "aac92229e834b84cd08e331ee1c7f20d7f138e911564e5014ab0ff055b4a7711",
    "rich": "f4156169b81c2914f8ce456941c50ed2ee5969dc53e4cf34470555f55af88be4",
    "nested": "3733876e052721273a3a7cd94634e180d7b5542cb7fc736dfa943b6b7cc32c84",
}


def _rich_op(rng: random.Random) -> str:
    reg = rng.choice(REGS)
    other = rng.choice(REGS)
    disp = rng.randrange(0, 128) * 8
    pick = rng.randrange(7)
    if pick == 0:
        return f"store [r12 + {disp}], {other}"
    if pick == 1:
        return f"mov {reg}, {rng.randrange(0, 1 << 16)}"
    if pick == 2:
        op = rng.choice(("add", "sub", "xor", "and", "or"))
        return f"{op} {reg}, {other}"
    if pick == 3:
        return f"load {reg}, [r12 + {disp}]"
    if pick == 4:
        return f"{rng.choice(('shl', 'shr'))} {reg}, {rng.randrange(1, 8)}"
    if pick == 5:
        return f"add {reg}, {rng.randrange(0, 256)}"
    return f"cmp {reg}, {rng.randrange(0, 4)}"


def _rich_ops(rng: random.Random, low: int, high: int) -> list:
    return [f"    {_rich_op(rng)}" for _ in range(rng.randint(low, high))]


def _branch_over(rng: random.Random, label: str) -> list:
    """A forward Jcc around one or two ops (mispredicts now and then)."""
    lines = [f"    cmp {rng.choice(REGS)}, {rng.randrange(0, 4)}"]
    lines.append(f"    {rng.choice(('jz', 'jnz', 'jb', 'jae'))} {label}")
    lines += _rich_ops(rng, 1, 2)
    lines.append(f"{label}:")
    return lines


def _transient_window(rng: random.Random, tag: str, functions: list) -> list:
    """A faulting ``load [r13]`` and what runs after it: the forwarded
    byte picks a line to touch, steers a Jcc and is stored; maybe a call."""
    reg = rng.choice(REGS)
    probe = rng.choice(REGS)
    lines = [
        f"    load {reg}, [r13]",
        f"    and {reg}, 63",
        f"    shl {reg}, 6",
        f"    load {probe}, [r12 + {reg}]",
        f"    test {reg}, {reg}",
        f"    {rng.choice(('jz', 'jnz'))} skip{tag}",
        f"    store [r12 + {rng.randrange(0, 128) * 8}], {reg}",
    ]
    lines += _rich_ops(rng, 0, 2)
    lines.append(f"skip{tag}:")
    if rng.random() < 0.3:
        lines.append(f"    call fn{len(functions)}")
        functions.append(tag)
    return lines


def rich_program_text(rng: random.Random) -> str:
    """A random, always-terminating gadget whose transient windows write
    registers, flags, readiness, memory and the TSX stack, before and
    after the fault, and close by branch squash, TSX abort or signal."""
    lines = []
    functions: list = []
    blocks = rng.randint(2, 4)
    for block in range(blocks):
        lines.append(f"block{block}:")
        lines += _rich_ops(rng, 1, 4)
        if rng.random() < 0.2:
            lines.append(f"    call fn{len(functions)}")
            functions.append(f"a{block}")
        shape = rng.random()
        if shape < 0.55:
            # Architectural work inside the transaction, then the fault:
            # the abort must undo both halves back to the xbegin.
            lines.append(f"    xbegin abort{block}")
            lines += _rich_ops(rng, 1, 4)
            if rng.random() < 0.5:
                lines += _branch_over(rng, f"pre{block}")
            lines += _transient_window(rng, f"t{block}", functions)
            lines += ["    xend", f"abort{block}:"]
        elif shape < 0.7:
            # Nested: the inner abort leaves the outer transaction open,
            # and the outer one commits.
            lines.append(f"    xbegin outer{block}")
            lines += _rich_ops(rng, 1, 3)
            lines.append(f"    xbegin inner{block}")
            lines += _rich_ops(rng, 0, 2)
            lines += _transient_window(rng, f"n{block}", functions)
            lines += ["    xend", f"inner{block}:"]
            lines += _rich_ops(rng, 1, 2)
            lines += ["    xend", f"outer{block}:"]
        elif shape < 0.85:
            # A bare faulting load: the signal handler ends the run.
            lines += _transient_window(rng, f"s{block}", functions)
        if block < blocks - 1 and rng.random() < 0.5:
            lines += _branch_over(rng, f"post{block}")
    lines.append("    hlt")
    for index in range(len(functions)):
        lines += [f"fn{index}:", f"    add {rng.choice(REGS)}, 1", "    ret"]
    lines += ["handler:", "    hlt"]
    return "\n".join(lines)


def nested_program_text(rng: random.Random) -> str:
    """Transactions nested one or two deep: one to three inner
    transactions each abort (or commit), then the innermost enclosing one
    faults (or commits) and any outer one commits."""
    lines = []
    functions: list = []
    depth = rng.randint(1, 2)
    for level in range(depth):
        lines.append(f"    xbegin out{level}")
        lines += _rich_ops(rng, 1, 3)
    for inner in range(rng.randint(1, 3)):
        lines.append(f"    xbegin in{inner}")
        lines += _rich_ops(rng, 0, 2)
        if rng.random() < 0.8:
            lines += _transient_window(rng, f"i{inner}", functions)
        lines += ["    xend", f"in{inner}:"]
        lines += _rich_ops(rng, 0, 2)
    if rng.random() < 0.8:
        lines += _transient_window(rng, "o", functions)
    for level in reversed(range(depth)):
        lines += ["    xend", f"out{level}:"]
        lines += _rich_ops(rng, 0, 2)
    lines.append("    hlt")
    for index in range(len(functions)):
        lines += [f"fn{index}:", f"    add {rng.choice(REGS)}, 1", "    ret"]
    return "\n".join(lines)


GENERATORS = {
    "plain": random_program_text,
    "rich": rich_program_text,
    "nested": nested_program_text,
}


def speculation_digest(kind: str, decode_plan: bool) -> str:
    """sha256 over ``PROGRAMS[kind]`` seeded programs from ``GENERATORS[kind]``."""
    machine = Machine("i7-7700", seed=7)
    page = machine.alloc_data()
    code_base = machine.load_program("hlt").base
    regs = {"r12": page, "r13": 0, "rsp": page + PAGE - 64}
    generate = GENERATORS[kind]
    digest = hashlib.sha256()
    for seed in range(PROGRAMS[kind]):
        program = assemble(generate(random.Random(seed)), base=code_base)
        assert len(program) * INSTRUCTION_SIZE <= PAGE
        machine.reset_uarch(noise_seed=99)
        machine.write_data(page, PAGE_IMAGE)
        if "handler" in program.labels:
            # Core.run leaves the handler alone; Machine.run installs it.
            machine.core.signal_handler_pc = program.label_address("handler")
        result = machine.core.run(program, regs=dict(regs), decode_plan=decode_plan)
        observation = (
            seed,
            result.cycles,
            result.instructions_retired,
            result.uops_issued,
            tuple(result.regs.read(name) for name in GPRS),
            tuple(result.regs.read_flag(name) for name in FLAGS),
            tuple((fault.kind.value, fault.va) for fault in result.faults),
            tuple(sorted(machine.core.pmu.counts.items())),
            tuple(result.events.resolutions),
            machine.read_data(page, PAGE),
        )
        digest.update(repr(observation).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("decode_plan", [True, False], ids=["plan", "legacy"])
@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_speculation_digest(kind, decode_plan):
    assert speculation_digest(kind, decode_plan) == GOLDEN[kind]
