"""Edge cases of the speculation machinery: nesting, faulting stores,
back-to-back windows, and interactions between suppression mechanisms."""

import pytest

from repro.sim.machine import Machine
from repro.uarch.core import SimulationError
from tests.conftest import run_source


class TestNestedTsx:
    def test_nested_transactions_commit(self, machine):
        data = machine.alloc_data()
        run_source(machine, f"""
    mov rbx, {hex(data)}
    xbegin outer_out
    mov rax, 1
    xbegin inner_out
    mov rax, 2
    mov [rbx], rax
    xend
inner_out:
    xend
outer_out:
    hlt
""")
        assert machine.read_data(data, 1) == b"\x02"

    def test_fault_in_inner_transaction_aborts_to_inner_fallback(self, machine):
        program = machine.load_program("""
    xbegin outer_out
    mov rax, 1
    xbegin inner_out
    mov rbx, [r13]       ; faults
    xend
inner_out:
    mov rcx, 7           ; inner fallback path
    xend
outer_out:
    hlt
""")
        result = machine.run(program, regs={"r13": 0})
        assert result.regs.read("rcx") == 7
        # The abort rolled back to the *inner* xbegin: the outer
        # transaction's rax write (before the inner xbegin) survives.
        assert result.regs.read("rax") == 1

    def test_two_inner_aborts_then_outer_fault(self, machine):
        # Each inner abort must leave nothing behind for the outer one to
        # undo: the outer abort pops exactly its own transaction.
        program = machine.load_program("""
    xbegin outer_out
    mov rax, 1
    xbegin first_out
    mov rbx, [r13]       ; faults: aborts to first_out
    xend
first_out:
    add rsi, 1
    xbegin second_out
    mov rbx, [r13]       ; faults: aborts to second_out
    xend
second_out:
    add rsi, 1
    mov rbx, [r13]       ; faults: aborts the outer transaction
    xend
outer_out:
    mov rcx, 7
    hlt
""")
        result = machine.run(program, regs={"r13": 0}, record_trace=True)
        assert result.halted
        # The outer abort undoes everything since its xbegin, the inner
        # fallbacks' increments included.
        assert [result.regs.read(r) for r in ("rax", "rcx", "rsi")] == [0, 7, 0]
        assert [f.suppression for f in result.events.flushes] == ["tsx"] * 3
        assert [tuple(r) for r in result.events.resolutions] == [
            ("tsx", 3, 14, 2),
            ("tsx", 16, 23, 15),
            ("tsx", 24, 28, 0),
        ]
        assert (result.cycles, result.instructions_retired) == (1646, 8)

    def test_two_inner_aborts_then_middle_fault_keeps_outermost(self, machine):
        # One level deeper: the middle transaction's abort must leave the
        # outermost one open for its own xend.
        program = machine.load_program("""
    xbegin top_out
    mov rdx, 3
    xbegin outer_out
    mov rax, 1
    xbegin first_out
    mov rbx, [r13]
    xend
first_out:
    add rsi, 1
    xbegin second_out
    mov rbx, [r13]
    xend
second_out:
    add rsi, 1
    mov rbx, [r13]       ; aborts the middle transaction only
    xend
outer_out:
    mov rcx, 7
    xend                 ; commits the outermost transaction
top_out:
    add rdi, 1
    hlt
""")
        result = machine.run(program, regs={"r13": 0}, record_trace=True)
        assert result.halted
        assert [result.regs.read(r) for r in ("rax", "rcx", "rdx", "rsi", "rdi")] == [
            0, 7, 3, 0, 1,
        ]
        assert [tuple(r) for r in result.events.resolutions] == [
            ("tsx", 5, 16, 4),
            ("tsx", 18, 27, 17),
            ("tsx", 28, 34, 2),
        ]
        assert (result.cycles, result.instructions_retired) == (1668, 12)

    def test_back_to_back_windows(self, machine):
        program = machine.load_program("""
    xbegin first_out
    mov rax, [r13]
    xend
first_out:
    add rsi, 1
    xbegin second_out
    mov rbx, [r13]
    xend
second_out:
    add rsi, 1
    hlt
""")
        result = machine.run(program, regs={"r13": 0}, record_trace=True)
        assert result.regs.read("rsi") == 2
        assert len(result.events.flushes) == 2


class TestFaultingNonLoads:
    def test_faulting_store_is_suppressed(self, machine):
        program = machine.load_program("""
    xbegin out
    mov rax, 5
    mov [r13], rax       ; store to the null page: faults
    xend
out:
    hlt
""")
        result = machine.run(program, regs={"r13": 0})
        assert result.halted
        assert result.faults[0].kind.value == "not_present"

    def test_store_to_kernel_page_is_protection_fault(self, machine):
        program = machine.load_program("""
    xbegin out
    mov rax, 5
    mov [r13], rax
    xend
out:
    hlt
""")
        result = machine.run(
            program, regs={"r13": machine.kernel.layout.base}
        )
        assert result.faults[0].kind.value == "protection"
        # Nothing reached kernel memory.
        pte = machine.kernel.kernel_space.lookup(machine.kernel.layout.base)
        assert machine.physical.read_u8(pte.physical_address(machine.kernel.layout.base)) == 0

    def test_faulting_call_push(self, machine):
        """A call with rsp pointing at an unmapped page faults on the push."""
        program = machine.load_program("""
    xbegin out
    call fn
fn:
    nop
    xend
out:
    hlt
""")
        result = machine.run(program, regs={"rsp": 0x10})  # null page
        assert result.halted
        assert result.faults


class TestSignalAndTsxInteraction:
    def test_tsx_takes_precedence_over_handler(self, machine):
        program = machine.load_program("""
    xbegin fallback
    mov rax, [r13]
    xend
fallback:
    mov rbx, 1
    hlt
handler:
    mov rbx, 2
    hlt
""")
        machine.set_signal_handler(program, "handler")
        result = machine.run(program, regs={"r13": 0})
        assert result.regs.read("rbx") == 1  # the transaction fallback won

    def test_handler_used_outside_transactions(self, machine):
        program = machine.load_program("""
    mov rax, [r13]
    nop
handler:
    mov rbx, 2
    hlt
""")
        machine.set_signal_handler(program, "handler")
        result = machine.run(program, regs={"r13": 0})
        assert result.regs.read("rbx") == 2

    def test_repeated_faults_through_one_handler(self, machine):
        program = machine.load_program("""
    add rcx, 1
    mov rax, [r13]       ; faults every pass
    nop
handler:
    cmp rcx, 3
    jne again
    hlt
again:
    add rcx, 1
    mov rax, [r13]
    nop
    hlt
""")
        machine.set_signal_handler(program, "handler")
        result = machine.run(program, regs={"r13": 0})
        assert result.halted
        assert len(result.faults) >= 2


class TestWindowInteractions:
    def test_mispredict_before_the_window_does_not_leak_into_it(self, machine):
        """An architectural mispredict resolved before xbegin must not
        change the fault context's nested-clear count."""
        program = machine.load_program("""
    mov rax, r9
    cmp rax, 1
    je taken
    nop
taken:
    xbegin out
    mov rbx, [r13]
    nop
out:
    hlt
""")
        machine.run(program, regs={"r13": 0, "r9": 0})
        machine.run(program, regs={"r13": 0, "r9": 0})
        result = machine.run(program, regs={"r13": 0, "r9": 1}, record_trace=True)
        assert result.events.flushes[0].nested_clears == 0

    def test_two_nested_clears_in_one_window(self, machine):
        data = machine.alloc_data()
        machine.write_data(data, b"\x05")
        program = machine.load_program(f"""
    mov rbx, {hex(data)}
    loadb rdi, [rbx]
    xbegin out
    mov rax, [r13]
    cmp rdi, r9
    je first_target
    nop
first_target:
    cmp rdi, r10
    je second_target
    nop
second_target:
    nop
out:
    hlt
""")
        for _ in range(4):
            machine.run(program, regs={"r13": 0, "r9": 1, "r10": 1})
        result = machine.run(
            program, regs={"r13": 0, "r9": 5, "r10": 5}, record_trace=True
        )
        assert result.events.flushes[0].nested_clears == 2

    def test_deeper_nesting_lengthens_the_window(self, machine):
        """Each nested clear adds its serialisation penalty to the ToTE."""
        data = machine.alloc_data()
        machine.write_data(data, b"\x05")
        source = f"""
    mov rbx, {hex(data)}
    loadb rdi, [rbx]
    rdtsc
    mov r14, rax
    xbegin out
    mov rax, [r13]
    cmp rdi, r9
    je t1
    nop
t1:
    cmp rdi, r10
    je t2
    nop
t2:
    nop
out:
    rdtsc
    mov r15, rax
    hlt
"""
        program = machine.load_program(source)
        tote = lambda r: r.regs.read("r15") - r.regs.read("r14")
        for _ in range(6):
            machine.run(program, regs={"r13": 0, "r9": 1, "r10": 1})
        zero = tote(machine.run(program, regs={"r13": 0, "r9": 1, "r10": 1}))
        for _ in range(3):
            machine.run(program, regs={"r13": 0, "r9": 1, "r10": 1})
        one = tote(machine.run(program, regs={"r13": 0, "r9": 5, "r10": 1}))
        for _ in range(3):
            machine.run(program, regs={"r13": 0, "r9": 1, "r10": 1})
        two = tote(machine.run(program, regs={"r13": 0, "r9": 5, "r10": 5}))
        assert zero < one < two
