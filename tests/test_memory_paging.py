"""Unit and property tests for the 4-level page tables."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.paging import AddressSpace, PageSize

KERNEL_VA = 0xFFFF_FFFF_8000_0000


class TestMapping:
    def test_lookup_unmapped_is_none(self):
        space = AddressSpace()
        assert space.lookup(0x1000) is None

    def test_map_and_lookup_4k(self):
        space = AddressSpace()
        space.map_page(0x5000, 0x9000)
        pte = space.lookup(0x5123)
        assert pte is not None
        assert pte.physical_address(0x5123) == 0x9123

    def test_map_and_lookup_2m(self):
        space = AddressSpace()
        space.map_page(KERNEL_VA, 0x4000_0000, size=PageSize.SIZE_2M)
        pte = space.lookup(KERNEL_VA + 0x12_3456)
        assert pte is not None
        assert pte.page_size == PageSize.SIZE_2M
        assert pte.physical_address(KERNEL_VA + 0x12_3456) == 0x4012_3456

    def test_va_truncated_to_page_boundary(self):
        space = AddressSpace()
        space.map_page(0x5FFF, 0x9000)
        assert space.lookup(0x5000) is not None

    def test_unmap(self):
        space = AddressSpace()
        space.map_page(0x5000, 0x9000)
        assert space.unmap(0x5000) is True
        assert space.lookup(0x5000) is None
        assert space.unmap(0x5000) is False

    def test_flags_preserved(self):
        space = AddressSpace()
        space.map_page(0x7000, 0xA000, writable=False, user=True, global_=True, nx=True, tag="x")
        pte = space.lookup(0x7000)
        assert (pte.writable, pte.user, pte.global_, pte.nx, pte.tag) == (
            False, True, True, True, "x",
        )

    def test_remap_replaces(self):
        space = AddressSpace()
        space.map_page(0x5000, 0x9000)
        space.map_page(0x5000, 0xB000)
        assert space.lookup(0x5000).physical_address(0x5000) == 0xB000

    def test_adjacent_pages_do_not_collide(self):
        space = AddressSpace()
        space.map_page(0x5000, 0x9000)
        space.map_page(0x6000, 0xC000)
        assert space.lookup(0x5000).physical_address(0x5000) == 0x9000
        assert space.lookup(0x6000).physical_address(0x6000) == 0xC000

    def test_mapped_ranges_count(self):
        space = AddressSpace()
        for index in range(5):
            space.map_page(0x10000 + index * 0x1000, 0x20000)
        assert space.mapped_ranges_count() == 5


class TestWalkPath:
    def test_full_walk_for_4k_page(self):
        space = AddressSpace()
        space.map_page(0x5000, 0x9000)
        steps, pte = space.walk_path(0x5000)
        assert pte is not None
        assert len(steps) == 4
        assert steps[-1].is_leaf and steps[-1].present

    def test_three_level_walk_for_2m_page(self):
        space = AddressSpace()
        space.map_page(KERNEL_VA, 0x4000_0000, size=PageSize.SIZE_2M)
        steps, pte = space.walk_path(KERNEL_VA)
        assert pte is not None
        assert len(steps) == 3

    def test_unmapped_walk_terminates_at_missing_level(self):
        space = AddressSpace()
        steps, pte = space.walk_path(0x5000)
        assert pte is None
        assert len(steps) == 1  # PML4 entry absent

    def test_unmapped_sibling_walks_deep(self):
        space = AddressSpace()
        space.map_page(KERNEL_VA, 0x4000_0000, size=PageSize.SIZE_2M)
        # Same PD, different entry: the walk descends to the PD level.
        steps, pte = space.walk_path(KERNEL_VA + 0x20_0000)
        assert pte is None
        assert len(steps) == 3

    def test_entry_paddrs_are_unique_per_level(self):
        space = AddressSpace()
        space.map_page(0x5000, 0x9000)
        steps, _ = space.walk_path(0x5000)
        assert len({step.entry_paddr for step in steps}) == len(steps)


class TestClone:
    def test_clone_preserves_mappings(self):
        space = AddressSpace()
        space.map_page(0x5000, 0x9000, tag="orig")
        clone = space.clone_shared()
        assert clone.lookup(0x5000).tag == "orig"

    def test_clone_is_independent(self):
        space = AddressSpace()
        space.map_page(0x5000, 0x9000)
        clone = space.clone_shared()
        clone.unmap(0x5000)
        assert space.lookup(0x5000) is not None
        assert clone.lookup(0x5000) is None

    def test_clone_new_mappings_do_not_leak_back(self):
        space = AddressSpace()
        clone = space.clone_shared()
        clone.map_page(0x8000, 0xF000)
        assert space.lookup(0x8000) is None


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2**35), st.integers(0, 2**30)),
        min_size=1,
        max_size=24,
        unique_by=lambda pair: pair[0] >> 12,
    )
)
def test_many_mappings_all_resolve(pairs):
    space = AddressSpace()
    for va, pa in pairs:
        space.map_page(va, pa)
    for va, pa in pairs:
        pte = space.lookup(va)
        assert pte is not None
        page_va = va & ~0xFFF
        assert pte.physical_address(page_va) == pa & ~0xFFF


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**40))
def test_walk_path_agrees_with_lookup(va):
    space = AddressSpace()
    space.map_page(0x12345000, 0x400000)
    steps, walk_pte = space.walk_path(va)
    assert walk_pte == space.lookup(va)
    assert 1 <= len(steps) <= 4


# -- the per-page walk memo ------------------------------------------------------


def _reference_walk(space, va):
    """The walk straight off the radix tree, memo-free: (level, entry
    address, present, is_leaf) per step, and the present leaf or None."""
    va &= (1 << 48) - 1
    node, steps = space.root, []
    for level, shift in enumerate((39, 30, 21, 12)):
        index = (va >> shift) & 0x1FF
        paddr = node.table_paddr + index * 8
        child = node.entries.get(index)
        if child is None:
            return steps + [(level, paddr, False, True)], None
        if not hasattr(child, "entries"):
            steps.append((level, paddr, child.present, True))
            return steps, (child if child.present else None)
        steps.append((level, paddr, True, False))
        node = child
    raise AssertionError("walk descended past PT level")


def _memo_walk(space, va):
    steps, pte = space.walk_path(va)
    return [(s.level, s.entry_paddr, s.present, s.is_leaf) for s in steps], pte


class TestWalkMemo:
    VA = 0x7000_0000

    def test_map_and_unmap_reach_a_memoized_walk(self):
        space = AddressSpace()
        assert space.walk_path(self.VA)[1] is None
        pte = space.map_page(self.VA, 0x9000, user=True)
        steps, found = space.walk_path(self.VA)
        assert found is pte and len(steps) == 4
        assert space.unmap(self.VA)
        steps, found = space.walk_path(self.VA)
        assert found is None and not steps[-1].present
        assert space.lookup(self.VA) is None

    def test_pte_presence_change_is_seen(self):
        """A Pte is a mutable dataclass: flipping ``present`` after a walk
        was memoized must show in the next walk and lookup."""
        space = AddressSpace()
        pte = space.map_page(self.VA, 0x9000)
        assert space.lookup(self.VA) is pte
        pte.present = False
        steps, found = space.walk_path(self.VA)
        assert found is None and not steps[-1].present
        assert space.lookup(self.VA) is None
        pte.present = True
        assert space.walk_path(self.VA) == (steps[:-1] + (steps[-1]._replace(present=True),), pte)

    def test_huge_page_over_a_walked_table(self):
        """Mapping a 2 MiB page where 4 KiB tables were walked turns a
        deep walk into a three-level one."""
        space = AddressSpace()
        space.map_page(KERNEL_VA + 0x5000, 0x9000)
        assert len(space.walk_path(KERNEL_VA + 0x5000)[0]) == 4
        space.map_page(KERNEL_VA, 0x4000_0000, size=PageSize.SIZE_2M)
        steps, pte = space.walk_path(KERNEL_VA + 0x5000)
        assert len(steps) == 3 and pte.page_size == PageSize.SIZE_2M
        assert _memo_walk(space, KERNEL_VA + 0x5000) == _reference_walk(space, KERNEL_VA + 0x5000)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["map4k", "map2m", "unmap", "flip", "walk"]),
                st.integers(0, 7),
            ),
            max_size=40,
        )
    )
    def test_memo_matches_a_fresh_walk_after_any_writes(self, ops):
        space = AddressSpace()
        vas = [KERNEL_VA + slot * 0x10_0000 + 0x3000 for slot in range(8)]
        for op, slot in ops:
            va = vas[slot]
            if op == "map4k":
                space.map_page(va, 0x9000 + slot * 0x1000)
            elif op == "map2m":
                space.map_page(va, 0x4000_0000, size=PageSize.SIZE_2M)
            elif op == "unmap":
                space.unmap(va)
            elif op == "flip":
                pte = _leaf(space, va)
                if pte is not None:
                    pte.present = not pte.present
            for probe in vas:
                assert _memo_walk(space, probe) == _reference_walk(space, probe)
                assert space.lookup(probe) == _reference_walk(space, probe)[1]


def _leaf(space, va):
    """The leaf Pte covering *va* even when it is not present."""
    node = space.root
    for shift in (39, 30, 21, 12):
        child = node.entries.get((va >> shift) & 0x1FF)
        if child is None or not hasattr(child, "entries"):
            return child
        node = child
    return None
