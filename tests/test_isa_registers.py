"""Unit tests for the architectural register file."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.registers import FLAGS, GPRS, MASK64, RegisterFile


class TestRegisterFile:
    def test_all_registers_start_at_zero(self):
        regs = RegisterFile()
        for name in GPRS:
            assert regs.read(name) == 0

    def test_all_flags_start_clear(self):
        regs = RegisterFile()
        for name in FLAGS:
            assert regs.read_flag(name) is False

    def test_write_read_roundtrip(self):
        regs = RegisterFile()
        regs.write("rax", 0xDEADBEEF)
        assert regs.read("rax") == 0xDEADBEEF

    def test_write_wraps_to_64_bits(self):
        regs = RegisterFile()
        regs.write("rbx", (1 << 64) + 5)
        assert regs.read("rbx") == 5

    def test_negative_value_wraps(self):
        regs = RegisterFile()
        regs.write("rcx", -1)
        assert regs.read("rcx") == MASK64

    def test_unknown_register_read_raises(self):
        with pytest.raises(KeyError):
            RegisterFile().read("eax")

    def test_unknown_register_write_raises(self):
        with pytest.raises(KeyError):
            RegisterFile().write("xmm0", 1)

    def test_unknown_flag_raises(self):
        with pytest.raises(KeyError):
            RegisterFile().write_flag("pf", True)

    def test_flag_write_coerces_to_bool(self):
        regs = RegisterFile()
        regs.write_flag("zf", 1)
        assert regs.read_flag("zf") is True


class TestAluFlags:
    def test_zero_result_sets_zf(self):
        regs = RegisterFile()
        regs.set_alu_flags(0)
        assert regs.read_flag("zf") is True
        assert regs.read_flag("sf") is False

    def test_negative_result_sets_sf(self):
        regs = RegisterFile()
        regs.set_alu_flags(1 << 63)
        assert regs.read_flag("sf") is True
        assert regs.read_flag("zf") is False

    def test_carry_and_overflow_recorded(self):
        regs = RegisterFile()
        regs.set_alu_flags(1, carry=True, overflow=True)
        assert regs.read_flag("cf") is True
        assert regs.read_flag("of") is True

    def test_flags_cleared_on_next_result(self):
        regs = RegisterFile()
        regs.set_alu_flags(0, carry=True)
        regs.set_alu_flags(7)
        assert regs.read_flag("zf") is False
        assert regs.read_flag("cf") is False


@given(st.sampled_from(GPRS), st.integers(min_value=-(2**70), max_value=2**70))
def test_any_write_reads_back_masked(name, value):
    regs = RegisterFile()
    regs.write(name, value)
    assert regs.read(name) == value & MASK64


def _state(regs):
    return [regs.read(name) for name in GPRS], [regs.read_flag(name) for name in FLAGS]


@given(
    st.dictionaries(st.sampled_from(GPRS), st.integers(0, MASK64), min_size=1),
    st.dictionaries(st.sampled_from(GPRS), st.integers(0, MASK64), min_size=1),
    st.lists(st.integers(0, MASK64), max_size=3),
)
def test_journal_undo_is_exact(first, second, alu_results):
    """Undoing a journal newest-first restores every register and flag,
    and nothing records once the journal has ended."""
    regs = RegisterFile()
    for name, value in first.items():
        regs.write(name, value)
    regs.set_alu_flags(1 << 63, carry=True)
    before = _state(regs)
    journal = []
    regs.begin_journal(journal)
    for name, value in second.items():
        regs.write(name, value)
    regs.write_flag("of", True)
    for result in alu_results:
        regs.set_alu_flags(result)
    regs.end_journal()
    assert len(journal) == len(second) + 1 + len(alu_results)
    while journal:
        regs.undo(*journal.pop())
    assert _state(regs) == before
    regs.write("rax", 7)
    assert journal == []
