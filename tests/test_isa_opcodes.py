"""Unit tests for opcode metadata and condition-code evaluation."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.isa.opcodes import COND_ALIASES, OP_INFO, Cond, Op, UopClass

#: Every opcode with ALU semantics (``OpInfo.alu``), shared by the core's
#: ``_op_alu`` and the batch shadow.
ALU_OPS = (Op.ADD, Op.SUB, Op.CMP, Op.AND, Op.TEST, Op.OR, Op.XOR, Op.SHL, Op.SHR)

#: Operand edges: zero, the sign bit, all ones, and shift counts >= 64.
EDGES = (0, 1, 63, 64, 65, 127, 2**63 - 1, 2**63, 2**64 - 1)


def _alu_reference(op, left, right):
    """x86 ALU semantics on unbounded ints, reduced mod 2**64 at the end:
    ``(result, carry)``.  CF is the carry out of ADD and the borrow of
    SUB/CMP; the logic ops and shifts leave it clear, and shift counts
    are taken mod 64."""
    modulus = 2**64
    if op is Op.ADD:
        return (left + right) % modulus, left + right >= modulus
    if op in (Op.SUB, Op.CMP):
        return (left - right) % modulus, right > left
    if op in (Op.AND, Op.TEST):
        return left & right, False
    if op is Op.OR:
        return left | right, False
    if op is Op.XOR:
        return left ^ right, False
    if op is Op.SHL:
        return (left * 2 ** (right % 64)) % modulus, False
    return left // 2 ** (right % 64), False  # SHR


class TestOpInfoTable:
    def test_every_opcode_has_info(self):
        for op in Op:
            assert op in OP_INFO, f"{op} missing from OP_INFO"

    def test_loads_are_marked(self):
        assert OP_INFO[Op.LOAD].is_load
        assert OP_INFO[Op.LOAD_BYTE].is_load
        assert OP_INFO[Op.RET].is_load  # ret pops the return address

    def test_stores_are_marked(self):
        assert OP_INFO[Op.STORE].is_store
        assert OP_INFO[Op.CALL].is_store  # call pushes the return address

    def test_branches_are_marked(self):
        for op in (Op.JMP, Op.JCC, Op.CALL, Op.RET):
            assert OP_INFO[op].is_branch

    def test_fences_serialise(self):
        for op in (Op.MFENCE, Op.LFENCE, Op.SFENCE):
            assert OP_INFO[op].serialising

    def test_microcoded_ops(self):
        for op in (Op.MFENCE, Op.CLFLUSH, Op.RDTSC, Op.SYSCALL):
            assert OP_INFO[op].microcoded

    def test_uop_counts_positive(self):
        for op, info in OP_INFO.items():
            assert info.uop_count >= 1, f"{op} has no uops"

    def test_latencies_positive(self):
        for op, info in OP_INFO.items():
            assert info.base_latency >= 1

    def test_port_classes_are_sane(self):
        assert OP_INFO[Op.ADD].uop_class is UopClass.ALU
        assert OP_INFO[Op.LOAD].uop_class is UopClass.LOAD
        assert OP_INFO[Op.JCC].uop_class is UopClass.BRANCH


class TestConditions:
    def test_e_is_zf(self):
        assert Cond.E.evaluate(True, False, False, False)
        assert not Cond.E.evaluate(False, False, False, False)

    def test_ne_is_not_zf(self):
        assert Cond.NE.evaluate(False, False, False, False)

    def test_c_is_cf(self):
        assert Cond.C.evaluate(False, True, False, False)
        assert not Cond.NC.evaluate(False, True, False, False)

    def test_signed_less(self):
        assert Cond.L.evaluate(False, False, True, False)  # SF != OF
        assert not Cond.L.evaluate(False, False, True, True)

    def test_signed_greater(self):
        assert Cond.G.evaluate(False, False, False, False)
        assert not Cond.G.evaluate(True, False, False, False)  # ZF kills G

    def test_le_is_complement_of_g(self):
        for zf, sf, of in itertools.product([False, True], repeat=3):
            g = Cond.G.evaluate(zf, False, sf, of)
            le = Cond.LE.evaluate(zf, False, sf, of)
            assert g != le

    def test_ge_is_complement_of_l(self):
        for zf, sf, of in itertools.product([False, True], repeat=3):
            assert Cond.GE.evaluate(zf, False, sf, of) != Cond.L.evaluate(zf, False, sf, of)

    def test_aliases_point_at_real_conditions(self):
        assert COND_ALIASES["z"] is Cond.E
        assert COND_ALIASES["nz"] is Cond.NE
        assert COND_ALIASES["b"] is Cond.C


@given(
    st.sampled_from(list(Cond)),
    st.booleans(), st.booleans(), st.booleans(), st.booleans(),
)
def test_every_condition_evaluates_to_bool(cond, zf, cf, sf, of):
    assert isinstance(cond.evaluate(zf, cf, sf, of), bool)


@given(st.booleans(), st.booleans(), st.booleans(), st.booleans())
def test_complementary_pairs_disagree(zf, cf, sf, of):
    pairs = [
        (Cond.E, Cond.NE), (Cond.C, Cond.NC), (Cond.S, Cond.NS),
        (Cond.O, Cond.NO), (Cond.L, Cond.GE), (Cond.LE, Cond.G),
    ]
    for positive, negative in pairs:
        assert positive.evaluate(zf, cf, sf, of) != negative.evaluate(zf, cf, sf, of)


class TestAluTable:
    def test_alu_table_covers_exactly_the_alu_ops(self):
        assert {op for op, info in OP_INFO.items() if info.alu} == set(ALU_OPS)
        flags_only = {op for op, info in OP_INFO.items() if info.flags_only}
        assert flags_only == {Op.CMP, Op.TEST}  # they write no destination

    @pytest.mark.parametrize("op", ALU_OPS, ids=lambda op: op.value)
    def test_every_edge_pair_matches_reference(self, op):
        for left, right in itertools.product(EDGES, EDGES):
            result, carry = OP_INFO[op].alu(left, right)
            assert isinstance(carry, bool)
            assert (result, carry) == _alu_reference(op, left, right), (left, right)


_operand = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**64 - 1))


@given(st.sampled_from(ALU_OPS), _operand, _operand)
def test_alu_table_matches_big_int_reference(op, left, right):
    result, carry = OP_INFO[op].alu(left, right)
    assert 0 <= result < 2**64
    assert (result, carry) == _alu_reference(op, left, right)


@given(
    st.sampled_from(list(Cond)),
    st.booleans(), st.booleans(), st.booleans(), st.booleans(),
)
def test_resolved_condition_matches_evaluate(cond, zf, cf, sf, of):
    """``Instruction.cond_eval`` (resolved once per Jcc) is ``Cond.evaluate``."""
    jcc = assemble(f"j{cond.value} done\ndone:\n    hlt").instructions[0]
    assert jcc.cond is cond
    assert jcc.cond_eval(zf, cf, sf, of) == cond.evaluate(zf, cf, sf, of)
