"""The :class:`Machine`: one simulated computer, ready to run gadgets.

A machine is a CPU model + memory subsystem + booted kernel + one
(attacker) process.  It provides the primitives every attack in the paper
assumes: loading and running code, allocating user memory, registering a
SIGSEGV handler, evicting the TLB, and making a victim touch kernel data
so it is cache-hot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.isa.assembler import assemble
from repro.isa.program import INSTRUCTION_SIZE, Program
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.memory.cache import CacheHierarchy
from repro.memory.mmu import Mmu
from repro.memory.paging import PageSize
from repro.memory.physical import PhysicalMemory
from repro.memory.tlb import SplitTlb
from repro.uarch.config import CpuModel, cpu_model
from repro.uarch.core import Core, RunResult
from repro.uarch.smt import SmtCore

PAGE = int(PageSize.SIZE_4K)


class Machine:
    """A full simulated machine with one attacker process installed."""

    def __init__(
        self,
        model: Union[str, CpuModel] = "i7-7700",
        kaslr: bool = True,
        kpti: bool = False,
        flare: bool = False,
        fgkaslr: bool = False,
        seed: Optional[int] = None,
        flare_coverage: str = "probe-offsets",
        secret: Optional[bytes] = None,
        container: bool = False,
        noise_amplitude: int = 0,
    ) -> None:
        self.model = cpu_model(model) if isinstance(model, str) else model
        #: The resolved constructor arguments, kept so a picklable
        #: :class:`repro.runtime.MachineSpec` can be recovered from a live
        #: machine (``MachineSpec.of(machine)``) and rebuilt in a worker.
        self.init_args = dict(
            model=self.model.name,
            kaslr=kaslr,
            kpti=kpti,
            flare=flare,
            fgkaslr=fgkaslr,
            seed=seed,
            flare_coverage=flare_coverage,
            secret=secret,
            container=container,
            noise_amplitude=noise_amplitude,
        )
        self.physical = PhysicalMemory()
        l1d, l1i, l2, llc = self.model.cache_geometries()
        self.hierarchy = CacheHierarchy(l1d, l1i, l2, llc, dram_latency=self.model.dram_latency)
        kernel_args = dict(
            kaslr=kaslr, kpti=kpti, flare=flare, fgkaslr=fgkaslr,
            seed=seed, flare_coverage=flare_coverage,
        )
        if secret is not None:
            kernel_args["secret"] = secret
        self.kernel = Kernel(self.physical, **kernel_args)
        self.mmu = Mmu(
            self.physical,
            self.hierarchy,
            fill_tlb_on_faulting_access=self.model.fill_tlb_on_fault,
            dtlb=SplitTlb(
                "DTLB",
                entries_4k=self.model.dtlb_entries_4k,
                ways_4k=4,
                entries_2m=self.model.dtlb_entries_2m,
                ways_2m=4,
            ),
        )
        self._noise_seed = (seed or 0) ^ 0x5EED
        self.process: Process = self.kernel.create_process("attacker", container=container)
        self.mmu.set_address_space(self.process.space)
        self.core = Core(self.model, self.mmu)
        self._smt: Optional[SmtCore] = None
        self._eviction_pages_4k: list = []
        self._eviction_pages_2m: list = []
        #: The just-booted timing state :meth:`reset_uarch` loads.  It is
        #: saved before the noise stream exists, so loading it leaves the
        #: stream alone: every reset reseeds it anyway.
        self._boot_uarch = self.save_uarch()
        if noise_amplitude:
            # Ambient OS noise: seeded, so noisy experiments still replay.
            self.mmu.set_noise(noise_amplitude, seed=self._noise_seed)

    # -- program loading -------------------------------------------------------

    def load_program(self, source: Union[str, Program], base: Optional[int] = None) -> Program:
        """Assemble (if needed) and map a program into the process.

        Code pages are mapped user-executable at *base* (or the next free
        code address).  Returns the bound :class:`Program`.
        """
        if isinstance(source, Program):
            program = source
            base = program.base
            pages = (len(program) * INSTRUCTION_SIZE + PAGE - 1) // PAGE or 1
        else:
            if base is None:
                # Reserve after assembling once to know the size.
                probe = assemble(source, base=0)
                pages = (len(probe) * INSTRUCTION_SIZE + PAGE - 1) // PAGE or 1
                base = self.process.take_code_va(pages)
            else:
                probe = assemble(source, base=base)
                pages = (len(probe) * INSTRUCTION_SIZE + PAGE - 1) // PAGE or 1
            program = assemble(source, base=base)
        self.kernel.map_user_code(self.process, pages, base & ~(PAGE - 1))
        return program

    def run(
        self,
        program: Program,
        regs: Optional[Dict[str, int]] = None,
        entry: Optional[int] = None,
        record_trace: bool = False,
        max_instructions: int = 200_000,
    ) -> RunResult:
        """Run *program* on the attacker core (user mode)."""
        handler_pc = getattr(program, "signal_handler_pc", None)
        if handler_pc is not None:
            self.core.signal_handler_pc = handler_pc
        return self.core.run(program, regs, entry, True, max_instructions, record_trace)

    def run_many(
        self,
        program: Program,
        reg_sets: Sequence[Dict[str, int]],
        entry: Optional[int] = None,
        max_instructions: int = 200_000,
    ) -> List[RunResult]:
        """Run *program* once per register set, in order.

        The signal handler is installed once, then the core runs
        back-to-back on one continuing cycle timeline -- exactly
        equivalent to calling :meth:`run` in a loop.  The handler lookup
        is the only per-call work it saves: every run still pays
        :meth:`Core.run`'s own setup (decode-plan lookup, run engine,
        PMU epilogue).
        """
        handler_pc = getattr(program, "signal_handler_pc", None)
        if handler_pc is not None:
            self.core.signal_handler_pc = handler_pc
        run = self.core.run
        return [run(program, regs, entry, True, max_instructions) for regs in reg_sets]

    def save_uarch(self) -> tuple:
        """The machine's timing state as a value.

        Caches, TLBs, paging-structure cache, page-walker backlog, LFBs,
        branch predictor, frontend (DSB), PMU counters, cycle counter,
        signal handler, noise-stream position -- everything
        microarchitectural, in LRU order where it has one.  Architectural
        state (kernel, page tables, mapped programs, memory contents) is
        not in it.  :meth:`load_uarch` puts it back and leaves it
        reusable, so one saved state can start any number of runs.
        """
        return self.core.snapshot(), self.mmu.snapshot()

    def load_uarch(self, state: tuple) -> None:
        """Put back a :meth:`save_uarch` state (and drop the SMT view).

        The machine then times every run exactly as it would have right
        after the state was saved, whatever ran in between -- provided
        memory contents are the same, since the state does not carry
        them.
        """
        core, mmu = state
        self.core.restore(core)
        self.mmu.restore(mmu)
        self._smt = None

    def reset_uarch(self, noise_seed: Optional[int] = None) -> None:
        """Load the timing state saved at boot, then reseed the noise.

        Architectural state (kernel, page tables, mapped programs, memory
        contents) survives, so a pooled worker can reuse one machine
        across independent trials instead of re-booting a kernel per
        trial.  *noise_seed* reseeds the ambient noise stream (defaults to
        the boot-time seed), giving each trial a jitter sequence that
        depends only on the seed handed to it.
        """
        self.load_uarch(self._boot_uarch)
        self.mmu.reseed_noise(self._noise_seed if noise_seed is None else noise_seed)

    # -- memory helpers -----------------------------------------------------------

    def alloc_data(self, pages: int = 1) -> int:
        """Map fresh user data pages; return the base virtual address."""
        return self.kernel.map_user_memory(self.process, pages)

    def write_data(self, va: int, data: bytes) -> None:
        """Architecturally write *data* at user address *va* (setup poke)."""
        self.mmu.poke_raw_bytes(va, data)

    def read_data(self, va: int, length: int) -> bytes:
        """Architecturally read *length* bytes at *va*."""
        data = self.mmu.peek_raw_bytes(va, length)
        if data is None:
            raise ValueError(f"read of unmapped address {va:#x}")
        return data

    # -- attacker primitives ---------------------------------------------------------

    def set_signal_handler(self, program: Program, label: str) -> None:
        """Register the instruction at *label* as the SIGSEGV landing pad.

        The handler is also remembered on *program* so :meth:`run`
        re-installs it automatically -- each gadget carries its own
        ``sigsetjmp`` recovery point, as the real attacks do.
        """
        pc = program.label_address(label)
        self.process.register_signal_handler("SIGSEGV", pc)
        program.signal_handler_pc = pc
        self.core.signal_handler_pc = pc

    def clear_signal_handler(self) -> None:
        """Remove the SIGSEGV handler."""
        self.core.signal_handler_pc = None

    def flush_tlb(self, charge_cycles: bool = True) -> None:
        """Evict the whole TLB (the unprivileged eviction-set primitive the
        paper assumes: "the TLB can be evicted or invalid[ated] by other
        methods", §4.2).  Global entries are evicted too -- eviction works
        by conflict, not by privilege.

        With ``charge_cycles`` the attacker pays for touching one page per
        TLB entry, so KASLR break times include the eviction work."""
        self.mmu.flush_tlb(keep_global=False)
        if charge_cycles:
            entries = self.model.dtlb_entries_4k + self.model.dtlb_entries_2m
            self.core.global_cycle += entries * (self.model.l2.latency + 4)

    def build_tlb_eviction_sets(self) -> None:
        """Allocate the eviction working set: enough distinct 4 KiB and
        2 MiB pages to conflict every way of every TLB set (x2 margin)."""
        from repro.memory.paging import PageSize

        if self._eviction_pages_4k:
            return
        count_4k = 2 * self.model.dtlb_entries_4k
        for _ in range(count_4k):
            self._eviction_pages_4k.append(self.kernel.map_user_memory(self.process, 1))
        count_2m = 2 * self.model.dtlb_entries_2m
        for _ in range(count_2m):
            self._eviction_pages_2m.append(
                self.kernel.map_user_memory(self.process, 1, size=PageSize.SIZE_2M)
            )

    def evict_tlb_realistic(self) -> int:
        """Evict the TLBs the way an unprivileged attacker actually can:
        by touching an eviction working set until every victim entry has
        been conflicted out.  Charges every access's true latency and
        returns the cycles spent -- this is the cost the paper's 0.88 s
        KASLR break is mostly made of."""
        self.build_tlb_eviction_sets()
        spent = 0
        now = self.core.global_cycle
        for va in self._eviction_pages_4k + self._eviction_pages_2m:
            access = self.mmu.data_access(va, user=True, now=now + spent)
            spent += access.latency
        self.core.global_cycle += spent
        return spent

    def syscall_roundtrip(self) -> None:
        """Enter and leave the kernel (two CR3 writes).

        Non-global TLB entries are flushed on the way, global ones (the
        KPTI trampoline) survive -- the asymmetry the FLARE bypass of
        §4.5 measures."""
        self.mmu.set_address_space(self.kernel.kernel_space)
        self.mmu.set_address_space(self.process.space)

    def do_syscall(self) -> None:
        """Issue a (no-op) syscall: the kernel entry path *executes the
        KPTI trampoline*, refilling its TLB entry -- the residue
        EntryBleed measures.  Charges the syscall's cycles."""
        trampoline = self.kernel.layout.trampoline_va
        if self.process.space.lookup(trampoline) is not None:
            # Kernel entry touches the trampoline page (supervisor mode).
            self.mmu.data_access(trampoline, user=False, now=self.core.global_cycle)
        self.syscall_roundtrip()
        self.core.global_cycle += 400  # entry + exit path

    def flush_caches(self) -> None:
        """Empty the cache hierarchy (cold-cache experiment setup)."""
        self.hierarchy.flush_all()

    # -- victim / kernel activity ------------------------------------------------------

    def victim_touch(self, va: int, thread_id: int = 1) -> None:
        """Simulate privileged/victim code touching *va* (warms caches,
        fills LFBs) without running attacker-visible instructions."""
        space = self.mmu.space
        switched = False
        if self.process.space.lookup(va) is None and self.kernel.kernel_space.lookup(va):
            self.mmu.space = self.kernel.kernel_space
            switched = True
        self.mmu.data_access(va, write=False, user=False, thread_id=thread_id)
        if switched:
            self.mmu.space = space

    def victim_store(self, va: int, data: bytes, thread_id: int = 1) -> None:
        """Victim writes *data* at *va* through the hierarchy.

        Stores allocate fill buffers (read-for-ownership) even on cache
        hits, so every round of victim activity refreshes the stale data
        ZombieLoad samples."""
        self.mmu.poke_raw_bytes(va, data)
        for offset in range(0, len(data), 64):
            self.mmu.data_access(va + offset, write=False, user=False, thread_id=thread_id)
            paddr = self.mmu.translate_peek(va + offset)
            if paddr is not None:
                line = paddr & ~63
                self.mmu.lfb.record_fill(
                    line, self.physical.read_bytes(line, 64), thread_id
                )

    def warm_kernel_secret(self) -> None:
        """The victim syscall path touches the kernel secret (Meltdown's
        precondition: the target line must be in the cache)."""
        for offset in range(0, max(64, len(self.kernel.secret)), 64):
            self.victim_touch(self.kernel.secret_va + offset)

    # -- conveniences ---------------------------------------------------------------

    def seconds(self, cycles: int) -> float:
        """Simulated wall-clock seconds for *cycles* on this model."""
        return self.model.seconds(cycles)

    def smt(self) -> SmtCore:
        """The SMT view of this machine (Trojan = thread 0, spy = thread 1)."""
        if self._smt is None:
            self._smt = SmtCore(self.model, self.mmu)
        return self._smt

    @property
    def pmu(self):
        """The core's PMU counter bank."""
        return self.core.pmu
