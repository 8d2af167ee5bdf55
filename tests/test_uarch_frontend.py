"""Unit tests for the frontend's DSB/MITE/MS delivery model."""

from repro.isa.assembler import assemble
from repro.memory.mmu import Mmu
from repro.memory.paging import AddressSpace
from repro.memory.physical import PhysicalMemory
from repro.uarch.config import cpu_model
from repro.uarch.frontend import Frontend
from repro.uarch.pmu import PmuCounters
from tests.conftest import small_hierarchy


def make_frontend():
    model = cpu_model("i7-7700")
    physical = PhysicalMemory()
    hierarchy = small_hierarchy()
    space = AddressSpace("f")
    space.map_page(0x400000, 0x10000, user=True)
    mmu = Mmu(physical, hierarchy)
    mmu.set_address_space(space)
    pmu = PmuCounters()
    return Frontend(model, mmu, pmu), pmu, model


def instr(text):
    return assemble(text).instructions[0]


class TestDelivery:
    def test_cold_line_is_mite(self):
        frontend, pmu, _ = make_frontend()
        _, source = frontend.deliver(0x400000, instr("nop"), 0)
        assert source == "mite"

    def test_second_visit_is_dsb(self):
        frontend, _, _ = make_frontend()
        frontend.deliver(0x400000, instr("nop"), 0)
        frontend.reset_clock(0)
        _, source = frontend.deliver(0x400000, instr("nop"), 0)
        assert source == "dsb"

    def test_same_line_keeps_source(self):
        frontend, _, _ = make_frontend()
        _, first = frontend.deliver(0x400000, instr("nop"), 0)
        _, second = frontend.deliver(0x400004, instr("nop"), 0)
        assert second == first

    def test_microcoded_goes_to_ms(self):
        frontend, pmu, _ = make_frontend()
        frontend.deliver(0x400000, instr("nop"), 0)
        _, source = frontend.deliver(0x400004, instr("mfence"), 0)
        assert source == "ms"
        assert pmu.read("IDQ.MS_UOPS") >= 1

    def test_dsb_uops_counted(self):
        frontend, pmu, _ = make_frontend()
        frontend.deliver(0x400000, instr("nop"), 0)
        frontend.reset_clock(0)
        frontend.deliver(0x400000, instr("nop"), 0)
        assert pmu.read("IDQ.DSB_UOPS") >= 1

    def test_width_limit_advances_clock(self):
        frontend, _, model = make_frontend()
        cycles = [
            frontend.deliver(0x400000, instr("nop"), 0)[0]
            for _ in range(model.issue_width * 3)
        ]
        assert cycles[-1] > cycles[0]

    def test_monotone_delivery(self):
        frontend, _, _ = make_frontend()
        last = -1
        for index in range(32):
            cycle, _ = frontend.deliver(0x400000 + index * 4, instr("nop"), 0)
            assert cycle >= last
            last = cycle

    def test_earliest_respected(self):
        frontend, _, _ = make_frontend()
        cycle, _ = frontend.deliver(0x400000, instr("nop"), 500)
        assert cycle >= 500


class TestResteerAndStalls:
    def test_block_until_delays_delivery(self):
        frontend, _, _ = make_frontend()
        frontend.block_until(1000)
        cycle, _ = frontend.deliver(0x400000, instr("nop"), 0)
        assert cycle >= 1000

    def test_resteer_clear_cycles_counted_by_core(self, machine=None):
        """CLEAR_RESTEER accounting lives at the core's resolution sites."""
        from repro.sim.machine import Machine
        from tests.conftest import run_source

        machine = Machine("i7-7700", seed=13)
        source = """
    mov rax, r9
    cmp rax, 1
    je one
    mov rbx, 2
one:
    hlt
"""
        program = machine.load_program(source)
        machine.run(program, regs={"r9": 0})
        before = machine.pmu.read("INT_MISC.CLEAR_RESTEER_CYCLES")
        machine.run(program, regs={"r9": 1})  # flips direction: mispredict
        after = machine.pmu.read("INT_MISC.CLEAR_RESTEER_CYCLES")
        assert after - before >= machine.model.mispredict_resteer

    def test_resteer_forces_line_refetch(self):
        frontend, _, _ = make_frontend()
        frontend.deliver(0x400000, instr("nop"), 0)
        frontend.prime_dsb(0x400000)
        frontend.block_until(frontend.delivery_floor, resteer=True)
        # After a resteer the line is re-looked-up (DSB hit, but a fetch).
        _, source = frontend.deliver(0x400004, instr("nop"), 0)
        assert source in ("dsb", "mite")

    def test_icache_stall_counted_for_cold_fetch(self):
        frontend, pmu, _ = make_frontend()
        frontend.deliver(0x400000, instr("nop"), 0)
        assert pmu.read("ICACHE_16B.IFDATA_STALL") > 0


class TestDsbCapacity:
    def test_dsb_eviction(self):
        frontend, _, model = make_frontend()
        # Touch more lines than the DSB holds.
        for line in range(model.dsb_lines + 8):
            frontend.deliver(0x400000 + line * 16, instr("nop"), 0)
        assert not frontend.dsb_contains(0x400000)
        assert frontend.dsb_contains(0x400000 + (model.dsb_lines + 7) * 16)

    def test_prime_dsb(self):
        frontend, _, _ = make_frontend()
        frontend.prime_dsb(0x400000)
        assert frontend.dsb_contains(0x400004)
