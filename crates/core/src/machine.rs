//! The simulated machine: tagged memory + cache hierarchy + out-of-order
//! pipeline, with memory forwarding wired into every demand reference.

use crate::config::SimConfig;
use crate::demand::{Live, Observers, Timing};
use crate::fault::{record_last_fault, MachineFault};
use crate::inject::{Corruption, InjectKind, Injector};
use crate::paging::PageCache;
use crate::stats::{EpochStats, FwdStats, RunStats};
use crate::trace::{Trace, TraceRecord};
use crate::trap::{FaultHandler, TrapInfo, TrapOutcome, MAX_FAULT_RETRIES};
use memfwd_cache::AccessKind;
use memfwd_cpu::{OpClass, Token};
use memfwd_tagmem::{
    Addr, Heap, PageCursor, Pool, TaggedMemory, WalkGuard, WalkPolicy, WORD_BYTES,
};

/// The execution-driven simulator.
///
/// Applications run *functionally* in program order by calling the machine's
/// load/store/compute operations; the machine derives cycle-level timing
/// from an out-of-order pipeline model, a two-level cache hierarchy, and
/// the memory-forwarding mechanism. Pointer-chasing code threads [`Token`]s
/// through dependent loads so that serialization is modelled faithfully.
///
/// # Example
///
/// ```
/// use memfwd::{Machine, SimConfig};
///
/// let mut m = Machine::new(SimConfig::default());
/// let a = m.malloc(16);
/// m.store(a, 8, 7);
/// assert_eq!(m.load(a, 8), 7);
/// let stats = m.finish();
/// assert!(stats.cycles() > 0);
/// ```
pub struct Machine {
    pub(crate) cfg: SimConfig,
    pub(crate) mem: TaggedMemory,
    pub(crate) heap: Heap,
    pub(crate) timing: Timing,
    pub(crate) obs: Observers,
    pub(crate) fault_handler: Option<FaultHandler>,
    pub(crate) injector: Option<Injector>,
    /// True when no observer (injector, pager, tracer, traps, handler,
    /// store buffer, watchdog) is attached, so demand references run the
    /// unobserved instance of the demand body and task groups may
    /// speculate. Recomputed by [`Machine::recompute_fast_ok`] at every
    /// toggle site.
    pub(crate) fast_ok: bool,
    /// Page-run translation cache of the demand chain walk.
    pub(crate) ref_cursor: PageCursor,
    /// Accounting for the epoch-parallel engine ([`crate::epoch`]).
    pub(crate) epoch_stats: EpochStats,
}

impl Machine {
    /// Builds a machine from a configuration.
    pub fn new(cfg: SimConfig) -> Machine {
        let mut m = Machine {
            mem: TaggedMemory::new(),
            heap: Heap::with_policy(cfg.heap_base, cfg.heap_capacity, cfg.alloc_policy),
            timing: Timing::new(&cfg),
            obs: Observers {
                pages: cfg.paging.map(PageCache::new),
                ..Observers::default()
            },
            fault_handler: None,
            injector: cfg.fault_injection.map(Injector::new),
            fast_ok: false,
            ref_cursor: PageCursor::empty(),
            epoch_stats: EpochStats::default(),
            cfg,
        };
        m.recompute_fast_ok();
        m
    }

    /// The configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Recomputes [`Machine::fast_ok`]: every optional observer the
    /// observed demand body consults must be absent. Called from every site
    /// that attaches or detaches an observer; a stale `false` only costs
    /// speed, never correctness.
    pub(crate) fn recompute_fast_ok(&mut self) {
        self.fast_ok = self.injector.is_none()
            && self.obs.pages.is_none()
            && self.obs.trace.is_none()
            && !self.obs.traps_enabled
            && self.fault_handler.is_none()
            && self.cfg.store_buffer_entries.is_none()
            && self.cfg.watchdog.stall_cycles.is_none()
            && self.cfg.watchdog.walk_hop_budget.is_none();
    }

    /// Cache line size in bytes — applications use this for clustering and
    /// prefetch-distance decisions, exactly as the paper's hand-applied
    /// optimizations do.
    pub fn line_bytes(&self) -> u64 {
        self.cfg.hierarchy.line_bytes
    }

    /// Current front-end cycle (a lower bound on simulated time).
    pub fn now(&self) -> u64 {
        self.timing.pipe.now()
    }

    /// Read-only view of the tagged memory (for inspection and tests).
    pub fn mem(&self) -> &TaggedMemory {
        &self.mem
    }

    /// Read-only view of the heap allocator.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Statistics accumulated so far (pipeline totals appear only in
    /// [`Machine::finish`]).
    pub fn fwd_stats(&self) -> &FwdStats {
        &self.timing.stats
    }

    // ------------------------------------------------------------------
    // Demand references with forwarding.
    // ------------------------------------------------------------------

    /// One demand reference through the full fault machinery. A machine
    /// with no observer attached runs the unobserved instance of the demand
    /// body directly: with no injector and no handler, the fault loop of
    /// [`Machine::try_demand_observed`] would add nothing.
    #[inline]
    fn try_demand(
        &mut self,
        is_store: bool,
        addr: Addr,
        size: u64,
        val: u64,
        dep: Token,
    ) -> Result<(u64, Token), MachineFault> {
        if self.fast_ok {
            self.demand_once::<false>(is_store, addr, size, val, dep)
        } else {
            self.try_demand_observed(is_store, addr, size, val, dep)
        }
    }

    /// The observed demand path: injection at entry, then the observed
    /// instance of the demand body; on fault, delivery to the registered
    /// supervisor handler with bounded retries (paper §3.2 recoverable
    /// traps). Kept out of line so the unobserved path stays small.
    #[inline(never)]
    fn try_demand_observed(
        &mut self,
        is_store: bool,
        addr: Addr,
        size: u64,
        val: u64,
        dep: Token,
    ) -> Result<(u64, Token), MachineFault> {
        self.maybe_inject(addr);
        let mut retries = 0u32;
        loop {
            match self.demand_once::<true>(is_store, addr, size, val, dep) {
                Ok(out) => return Ok(out),
                Err(fault) => match self.deliver_fault(fault) {
                    TrapOutcome::Retry if retries < MAX_FAULT_RETRIES => retries += 1,
                    _ => return Err(fault),
                },
            }
        }
    }

    /// One attempt at a demand reference against the live memory.
    #[inline(never)]
    fn demand_once<const OBSERVED: bool>(
        &mut self,
        is_store: bool,
        addr: Addr,
        size: u64,
        val: u64,
        dep: Token,
    ) -> Result<(u64, Token), MachineFault> {
        let mut chain = Live {
            mem: &mut self.mem,
            cursor: &mut self.ref_cursor,
            word: 0,
        };
        self.timing.demand::<OBSERVED>(
            &self.cfg,
            &mut self.obs,
            &mut chain,
            is_store,
            addr,
            size,
            val,
            dep,
        )
    }

    /// Infallible demand wrapper: records the typed fault for harnesses
    /// (see [`crate::fault::take_last_fault`]) and panics with the crate's
    /// historical message.
    fn demand(
        &mut self,
        is_store: bool,
        addr: Addr,
        size: u64,
        val: u64,
        dep: Token,
    ) -> (u64, Token) {
        match self.try_demand(is_store, addr, size, val, dep) {
            Ok(out) => out,
            Err(fault) => {
                record_last_fault(fault);
                panic!("{fault}");
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection and recoverable supervisor traps.
    // ------------------------------------------------------------------

    /// Consults the injector at the head of a demand access and, if a roll
    /// hits, corrupts the target word. In recovery mode the corruption is
    /// detected and repaired immediately (within the same demand), charging
    /// trap-dispatch plus timed `Unforwarded_Write` repairs — so the access
    /// that follows always sees functionally correct memory.
    fn maybe_inject(&mut self, addr: Addr) {
        let Some(inj) = self.injector.as_mut() else {
            return;
        };
        let scramble = inj.roll_chain_scramble();
        let flip = !scramble && inj.roll_fbit_flip();
        let recover = inj.config().recover;
        if !(scramble || flip) {
            return;
        }
        let word = addr.word_base();
        if word.is_null() {
            return;
        }
        let (saved_value, saved_fbit) = self.mem.unforwarded_read(word);
        let kind = if scramble {
            InjectKind::ChainScramble
        } else {
            InjectKind::FbitFlip
        };
        match kind {
            // A forwarding self-loop: guaranteed to be caught by the
            // accurate cycle check — a typed, never-silent corruption.
            InjectKind::ChainScramble => self.mem.unforwarded_write(word, word.0, true),
            InjectKind::FbitFlip => self.mem.set_fbit(word, true),
        }
        self.timing.stats.injected_faults += 1;
        if let Some(inj) = self.injector.as_mut() {
            inj.record(Corruption {
                word,
                saved_value,
                saved_fbit,
                kind,
            });
        }
        if recover {
            self.repair_injected();
        }
    }

    /// Repairs every corruption in the injector's log with timed
    /// `Unforwarded_Write`s (the §3.2 repair story), charging one
    /// trap-dispatch penalty for the exception that detected it. Returns
    /// whether anything was repaired.
    fn repair_injected(&mut self) -> bool {
        let pending = match self.injector.as_mut() {
            Some(inj) => inj.drain_log(),
            None => return false,
        };
        if pending.is_empty() {
            return false;
        }
        self.compute(self.cfg.trap_penalty);
        for c in pending.iter().rev() {
            self.unforwarded_write(c.word, c.saved_value, c.saved_fbit);
            self.timing.stats.fault_repairs += 1;
        }
        true
    }

    /// Delivers `fault` to the registered supervisor handler, charging the
    /// trap penalty (exception dispatch + handler entry). Without a handler
    /// the fault is not deliverable and the outcome is `Abort`.
    fn deliver_fault(&mut self, fault: MachineFault) -> TrapOutcome {
        let Some(mut handler) = self.fault_handler.take() else {
            return TrapOutcome::Abort;
        };
        self.compute(self.cfg.trap_penalty);
        self.timing.stats.faults_delivered += 1;
        let outcome = handler(self, &fault);
        // The handler may have registered a replacement; keep the newer one.
        if self.fault_handler.is_none() {
            self.fault_handler = Some(handler);
        }
        self.recompute_fast_ok();
        outcome
    }

    /// Registers a recoverable supervisor trap handler (paper §3.2): every
    /// fault raised by a demand access or allocation is delivered to it
    /// before propagating, and the handler may repair the machine (e.g.
    /// break a forwarding cycle with [`Machine::unforwarded_write`]) and
    /// ask for a bounded retry. Replaces any previous handler.
    pub fn set_fault_handler(&mut self, handler: FaultHandler) {
        self.fault_handler = Some(handler);
        self.recompute_fast_ok();
    }

    /// Removes the supervisor trap handler; subsequent faults propagate
    /// directly to the caller.
    pub fn clear_fault_handler(&mut self) {
        self.fault_handler = None;
        self.recompute_fast_ok();
    }

    /// Whether a supervisor trap handler is currently registered.
    pub fn has_fault_handler(&self) -> bool {
        self.fault_handler.is_some()
    }

    // ------------------------------------------------------------------
    // Fallible demand API.
    // ------------------------------------------------------------------

    /// Fallible [`Machine::load`]: returns the typed fault instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// [`MachineFault::NullDeref`], [`MachineFault::Misaligned`],
    /// [`MachineFault::ForwardingCycle`], or (with a configured
    /// [`SimConfig::hard_hop_budget`]) [`MachineFault::HopLimitExceeded`] —
    /// each only after any registered handler declined to recover.
    pub fn try_load(&mut self, addr: Addr, size: u64) -> Result<u64, MachineFault> {
        self.try_demand(false, addr, size, 0, Token::ready())
            .map(|(v, _)| v)
    }

    /// Fallible [`Machine::store`].
    ///
    /// # Errors
    ///
    /// As for [`Machine::try_load`].
    pub fn try_store(&mut self, addr: Addr, size: u64, val: u64) -> Result<(), MachineFault> {
        self.try_demand(true, addr, size, val, Token::ready())
            .map(|_| ())
    }

    /// Fallible [`Machine::load_dep`]: a load with an explicit address
    /// dependence that reports faults instead of panicking.
    ///
    /// # Errors
    ///
    /// As for [`Machine::try_load`].
    pub fn try_load_dep(
        &mut self,
        addr: Addr,
        size: u64,
        dep: Token,
    ) -> Result<(u64, Token), MachineFault> {
        self.try_demand(false, addr, size, 0, dep)
    }

    /// Fallible [`Machine::store_dep`]: a store with an explicit address
    /// dependence that reports faults instead of panicking.
    ///
    /// # Errors
    ///
    /// As for [`Machine::try_load`].
    pub fn try_store_dep(
        &mut self,
        addr: Addr,
        size: u64,
        val: u64,
        dep: Token,
    ) -> Result<Token, MachineFault> {
        self.try_demand(true, addr, size, val, dep).map(|(_, t)| t)
    }

    /// Fallible [`Machine::load_word`].
    ///
    /// # Errors
    ///
    /// As for [`Machine::try_load`].
    pub fn try_load_word(&mut self, addr: Addr) -> Result<u64, MachineFault> {
        self.try_load(addr, WORD_BYTES)
    }

    /// Fallible [`Machine::store_word`].
    ///
    /// # Errors
    ///
    /// As for [`Machine::try_load`].
    pub fn try_store_word(&mut self, addr: Addr, val: u64) -> Result<(), MachineFault> {
        self.try_store(addr, WORD_BYTES, val)
    }

    /// Loads `size` bytes at `addr`, following forwarding chains.
    ///
    /// # Panics
    ///
    /// Panics on a null dereference, a misaligned access, or a genuine
    /// forwarding cycle (the simulated program is aborted, as in §3.2).
    /// The typed fault is recorded for [`crate::fault::take_last_fault`]
    /// before the panic; [`Machine::try_load`] is the non-panicking twin.
    pub fn load(&mut self, addr: Addr, size: u64) -> u64 {
        self.demand(false, addr, size, 0, Token::ready()).0
    }

    /// [`Machine::load`] with an explicit address dependence: the access
    /// cannot issue before `dep` is ready. Returns the value and its token.
    pub fn load_dep(&mut self, addr: Addr, size: u64, dep: Token) -> (u64, Token) {
        self.demand(false, addr, size, 0, dep)
    }

    /// Stores the low `size` bytes of `val` at `addr`, following forwarding.
    ///
    /// # Panics
    ///
    /// As for [`Machine::load`].
    pub fn store(&mut self, addr: Addr, size: u64, val: u64) {
        self.demand(true, addr, size, val, Token::ready());
    }

    /// [`Machine::store`] with an explicit dependence; returns the
    /// completion token.
    pub fn store_dep(&mut self, addr: Addr, size: u64, val: u64, dep: Token) -> Token {
        self.demand(true, addr, size, val, dep).1
    }

    // Word-sized sugar used pervasively by the applications.

    /// Loads one 64-bit word.
    pub fn load_word(&mut self, addr: Addr) -> u64 {
        self.load(addr, WORD_BYTES)
    }

    /// Loads one 64-bit word with a dependence token.
    pub fn load_word_dep(&mut self, addr: Addr, dep: Token) -> (u64, Token) {
        self.load_dep(addr, WORD_BYTES, dep)
    }

    /// Stores one 64-bit word.
    pub fn store_word(&mut self, addr: Addr, val: u64) {
        self.store(addr, WORD_BYTES, val)
    }

    /// Loads a pointer (a word interpreted as an address).
    pub fn load_ptr(&mut self, addr: Addr) -> Addr {
        Addr(self.load_word(addr))
    }

    /// Loads a pointer with a dependence token.
    pub fn load_ptr_dep(&mut self, addr: Addr, dep: Token) -> (Addr, Token) {
        let (v, t) = self.load_word_dep(addr, dep);
        (Addr(v), t)
    }

    /// Stores a pointer.
    pub fn store_ptr(&mut self, addr: Addr, val: Addr) {
        self.store_word(addr, val.0)
    }

    // ------------------------------------------------------------------
    // ISA extensions (paper Fig. 3).
    // ------------------------------------------------------------------

    /// `Read_FBit`: reads the forwarding bit of the word containing `addr`.
    /// This is a memory operation — the bit travels with the cache line.
    pub fn read_fbit(&mut self, addr: Addr) -> bool {
        self.read_fbit_dep(addr, Token::ready()).0
    }

    /// [`Machine::read_fbit`] with an address dependence.
    pub fn read_fbit_dep(&mut self, addr: Addr, dep: Token) -> (bool, Token) {
        let d = self.timing.pipe.dispatch();
        let start = d.max(dep.cycle());
        let acc = self
            .timing
            .hier
            .access(start, addr.word_base().0, AccessKind::Load);
        self.timing.stats.fbit_reads += 1;
        self.timing
            .pipe
            .complete(OpClass::Load, d, acc.complete_at, acc.l1_miss());
        (self.mem.fbit(addr), Token::at(acc.complete_at))
    }

    /// `Unforwarded_Read`: reads a whole word and its forwarding bit with
    /// forwarding disabled.
    pub fn unforwarded_read(&mut self, addr: Addr) -> (u64, bool) {
        let (v, b, _) = self.unforwarded_read_dep(addr, Token::ready());
        (v, b)
    }

    /// [`Machine::unforwarded_read`] with an address dependence.
    pub fn unforwarded_read_dep(&mut self, addr: Addr, dep: Token) -> (u64, bool, Token) {
        let d = self.timing.pipe.dispatch();
        let start = d.max(dep.cycle());
        let acc = self
            .timing
            .hier
            .access(start, addr.word_base().0, AccessKind::Load);
        self.timing.stats.unforwarded_ops += 1;
        self.timing
            .pipe
            .complete(OpClass::Load, d, acc.complete_at, acc.l1_miss());
        let (v, b) = self.mem.unforwarded_read(addr);
        (v, b, Token::at(acc.complete_at))
    }

    /// `Unforwarded_Write`: atomically writes a whole word and its
    /// forwarding bit with forwarding disabled.
    pub fn unforwarded_write(&mut self, addr: Addr, value: u64, fbit: bool) -> Token {
        let d = self.timing.pipe.dispatch();
        let acc = self
            .timing
            .hier
            .access(d, addr.word_base().0, AccessKind::Store);
        self.timing.stats.unforwarded_ops += 1;
        self.mem.unforwarded_write(addr, value, fbit);
        let w = addr.word_base().0;
        self.timing.spec.on_store(w, w, acc.complete_at);
        self.timing.last_store_resolve = self.timing.last_store_resolve.max(acc.complete_at);
        self.timing
            .pipe
            .complete(OpClass::Store, d, acc.complete_at, acc.l1_miss());
        Token::at(acc.complete_at)
    }

    // ------------------------------------------------------------------
    // Prefetch and compute.
    // ------------------------------------------------------------------

    /// Issues one block-prefetch instruction covering `lines` consecutive
    /// cache lines starting at the line containing `addr`. The prefetch
    /// address is assumed available at dispatch (e.g. computed from an
    /// induction variable); use [`Machine::prefetch_dep`] when the address
    /// comes from a load, or the pointer-chasing limit disappears.
    pub fn prefetch(&mut self, addr: Addr, lines: u64) {
        self.prefetch_dep(addr, lines, Token::ready());
    }

    /// [`Machine::prefetch`] with an explicit address dependence: the
    /// prefetch cannot launch before `dep` is ready. This models the
    /// pointer-chasing problem of §2.2 — a prefetch of `p->next->next`
    /// cannot start until `p->next` has been loaded.
    pub fn prefetch_dep(&mut self, addr: Addr, lines: u64, dep: Token) {
        let d = self.timing.pipe.dispatch();
        self.timing
            .hier
            .prefetch_block(d.max(dep.cycle()), addr.0, lines);
        self.timing.stats.prefetches += 1;
        self.timing
            .pipe
            .complete(OpClass::Prefetch, d, d + 1, false);
    }

    /// Executes `n` single-cycle ALU instructions with no data dependences.
    pub fn compute(&mut self, n: u64) {
        for _ in 0..n {
            self.timing.pipe.compute(0);
        }
        self.timing.stats.computes += n;
    }

    /// Executes `n` dependent single-cycle ALU instructions consuming
    /// `dep`; returns the token of the last one.
    pub fn compute_dep(&mut self, n: u64, dep: Token) -> Token {
        let mut t = dep;
        for _ in 0..n {
            t = Token::at(self.timing.pipe.compute(t.cycle()));
        }
        self.timing.stats.computes += n;
        t
    }

    // ------------------------------------------------------------------
    // Heap.
    // ------------------------------------------------------------------

    /// Decides whether an injected allocation failure fires for this
    /// request, and if so either auto-recovers (transient failure: trap
    /// charged, then the real allocation proceeds) or raises a fault for
    /// the delivery loop. Returns the fault to raise, if any.
    fn maybe_inject_alloc_fail(&mut self, requested: u64) -> Option<MachineFault> {
        let inj = self.injector.as_mut()?;
        if !inj.roll_alloc_fail() {
            return None;
        }
        let recover = inj.config().recover;
        self.timing.stats.injected_faults += 1;
        if recover {
            // The supervisor observes the transient failure, releases the
            // pressure (modelled as handler work), and the retry succeeds.
            self.compute(self.cfg.trap_penalty);
            self.timing.stats.fault_repairs += 1;
            None
        } else {
            Some(MachineFault::HeapExhausted { requested })
        }
    }

    /// Fallible [`Machine::malloc`]: returns [`MachineFault::HeapExhausted`]
    /// instead of panicking, after any registered handler declined to
    /// recover (a handler that frees memory and returns `Retry` lets the
    /// allocation succeed).
    ///
    /// # Errors
    ///
    /// [`MachineFault::HeapExhausted`].
    pub fn try_malloc(&mut self, bytes: u64) -> Result<Addr, MachineFault> {
        self.compute(self.cfg.malloc_cost);
        self.timing.stats.mallocs += 1;
        if let Some(fault) = self.maybe_inject_alloc_fail(bytes) {
            match self.deliver_fault(fault) {
                TrapOutcome::Retry => {} // injected failure was transient
                TrapOutcome::Abort => return Err(fault),
            }
        }
        let mut retries = 0u32;
        loop {
            match self.heap.alloc(bytes) {
                Ok(a) => return Ok(a),
                Err(e) => {
                    let fault = MachineFault::from(e);
                    match self.deliver_fault(fault) {
                        TrapOutcome::Retry if retries < MAX_FAULT_RETRIES => retries += 1,
                        _ => return Err(fault),
                    }
                }
            }
        }
    }

    /// Allocates `bytes` of word-aligned heap memory, charging the
    /// allocator's instruction cost.
    ///
    /// # Panics
    ///
    /// Panics if the simulated heap is exhausted. [`Machine::try_malloc`]
    /// is the non-panicking twin.
    pub fn malloc(&mut self, bytes: u64) -> Addr {
        self.try_malloc(bytes).unwrap_or_else(|fault| {
            record_last_fault(fault);
            panic!("{fault}");
        })
    }

    /// Fallible [`Machine::free`]: frees a heap block and everything
    /// reachable through its forwarding chain (§3.3 wrapper deallocation),
    /// reporting corruption as a typed fault instead of panicking.
    ///
    /// # Errors
    ///
    /// [`MachineFault::ForwardingCycle`] if the block's forwarding chain is
    /// cyclic (nothing has been freed when this is returned), or
    /// [`MachineFault::InvalidFree`] if `addr` is not the base of a live
    /// allocation.
    pub fn try_free(&mut self, addr: Addr) -> Result<(), MachineFault> {
        self.compute(self.cfg.free_cost);
        self.timing.stats.frees += 1;
        // Walk the chain of the first word (a software walk), paying one
        // unforwarded read per element, and collect chain targets that are
        // themselves blocks.
        let mut blocks = vec![addr];
        let mut cur = addr.word_base();
        let mut scratch = Vec::new();
        let mut guard = WalkGuard::new(WalkPolicy::SOFTWARE, &mut scratch);
        loop {
            let (val, fbit, _) = self.unforwarded_read_dep(cur, Token::ready());
            if !fbit {
                break;
            }
            let next = Addr(val).word_base();
            guard.hop(cur, next)?;
            cur = next;
            if self.heap.is_live(cur) {
                blocks.push(cur);
            }
        }
        // Counted only once the walk is known to be acyclic: the lazy cycle
        // check may visit a block twice before it faults.
        self.timing.stats.chain_frees += blocks.len() as u64 - 1;
        for b in blocks {
            // Reinitialize the block's forwarding bits before it can be
            // recycled: §3.3 requires every word to start with a clear bit
            // when next handed to the application.
            let words = match self.heap.block_size(b) {
                Some(bytes) => bytes / WORD_BYTES,
                None => return Err(MachineFault::InvalidFree { addr: b }),
            };
            for w in 0..words {
                self.mem.set_fbit(b.add_words(w), false);
            }
            self.compute(1 + words / 8); // amortized clearing cost
            self.heap.free(b).expect("checked live");
        }
        Ok(())
    }

    /// Frees a heap block, first deallocating every block reachable through
    /// its forwarding chain — the wrapper deallocation of paper §3.3.
    ///
    /// Chain targets that are not independently-allocated blocks (e.g.
    /// relocation-pool space) are skipped; pools are reclaimed wholesale.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not the base of a live allocation or its chain
    /// is cyclic. [`Machine::try_free`] is the non-panicking twin.
    pub fn free(&mut self, addr: Addr) {
        if let Err(fault) = self.try_free(addr) {
            record_last_fault(fault);
            match fault {
                MachineFault::ForwardingCycle { .. } => {
                    panic!("forwarding cycle during free({addr}): {fault}")
                }
                _ => panic!("{fault}"),
            }
        }
    }

    /// Fallible [`Machine::pool_alloc`].
    ///
    /// # Errors
    ///
    /// [`MachineFault::PoolExhausted`] when the pool cannot obtain a slab,
    /// after any registered handler declined to recover.
    pub fn try_pool_alloc(&mut self, pool: &mut Pool, bytes: u64) -> Result<Addr, MachineFault> {
        self.compute(6);
        if self.maybe_inject_alloc_fail(bytes).is_some() {
            let fault = MachineFault::PoolExhausted { requested: bytes };
            match self.deliver_fault(fault) {
                TrapOutcome::Retry => {}
                TrapOutcome::Abort => return Err(fault),
            }
        }
        let before = pool.bytes_handed_out();
        let mut retries = 0u32;
        let a = loop {
            match pool.alloc(&mut self.heap, bytes) {
                Ok(a) => break a,
                Err(_) => {
                    let fault = MachineFault::PoolExhausted { requested: bytes };
                    match self.deliver_fault(fault) {
                        TrapOutcome::Retry if retries < MAX_FAULT_RETRIES => retries += 1,
                        _ => return Err(fault),
                    }
                }
            }
        };
        self.timing.stats.relocation_space_bytes += pool.bytes_handed_out() - before;
        Ok(a)
    }

    /// Allocates `bytes` from a relocation pool (contiguous space), charging
    /// a small instruction cost and recording the space overhead that the
    /// paper's Table 1 reports.
    ///
    /// # Panics
    ///
    /// Panics if the simulated heap is exhausted. [`Machine::try_pool_alloc`]
    /// is the non-panicking twin.
    pub fn pool_alloc(&mut self, pool: &mut Pool, bytes: u64) -> Addr {
        self.try_pool_alloc(pool, bytes).unwrap_or_else(|fault| {
            record_last_fault(fault);
            panic!("{fault}");
        })
    }

    /// Fallible [`Machine::pool_alloc_aligned`].
    ///
    /// # Errors
    ///
    /// As for [`Machine::try_pool_alloc`].
    pub fn try_pool_alloc_aligned(
        &mut self,
        pool: &mut Pool,
        bytes: u64,
        align: u64,
    ) -> Result<Addr, MachineFault> {
        self.compute(8);
        if self.maybe_inject_alloc_fail(bytes).is_some() {
            let fault = MachineFault::PoolExhausted { requested: bytes };
            match self.deliver_fault(fault) {
                TrapOutcome::Retry => {}
                TrapOutcome::Abort => return Err(fault),
            }
        }
        let before = pool.bytes_handed_out();
        let mut retries = 0u32;
        let a = loop {
            match pool.alloc_aligned(&mut self.heap, bytes, align) {
                Ok(a) => break a,
                Err(_) => {
                    let fault = MachineFault::PoolExhausted { requested: bytes };
                    match self.deliver_fault(fault) {
                        TrapOutcome::Retry if retries < MAX_FAULT_RETRIES => retries += 1,
                        _ => return Err(fault),
                    }
                }
            }
        };
        self.timing.stats.relocation_space_bytes += pool.bytes_handed_out() - before;
        Ok(a)
    }

    /// Allocates an `align`-aligned chunk from a relocation pool. Used when
    /// relocation targets must respect cache-line boundaries (subtree
    /// clusters, false-sharing separation).
    ///
    /// # Panics
    ///
    /// Panics if the simulated heap is exhausted.
    /// [`Machine::try_pool_alloc_aligned`] is the non-panicking twin.
    pub fn pool_alloc_aligned(&mut self, pool: &mut Pool, bytes: u64, align: u64) -> Addr {
        self.try_pool_alloc_aligned(pool, bytes, align)
            .unwrap_or_else(|fault| {
                record_last_fault(fault);
                panic!("{fault}");
            })
    }

    /// Creates a relocation pool with the configured slab size.
    pub fn new_pool(&self) -> Pool {
        Pool::new(self.cfg.pool_slab_bytes)
    }

    // ------------------------------------------------------------------
    // User-level traps (paper §3.2).
    // ------------------------------------------------------------------

    /// Enables or disables the user-level trap taken on every forwarded
    /// reference. While enabled, each forwarded reference costs
    /// `trap_penalty` extra cycles and is recorded.
    pub fn set_traps_enabled(&mut self, enabled: bool) {
        self.obs.traps_enabled = enabled;
        self.recompute_fast_ok();
    }

    /// Drains the recorded trap events (profiling-tool style: the
    /// application inspects them and may fix stray pointers itself).
    pub fn take_traps(&mut self) -> Vec<TrapInfo> {
        std::mem::take(&mut self.obs.trap_log)
    }

    /// Writes a word functionally WITHOUT any timing effect — no
    /// instruction, no cache access, no trace record. Scenario-building
    /// scaffolding for tests and trace tooling; simulated programs should
    /// use [`Machine::store`].
    pub fn poke_word(&mut self, addr: Addr, value: u64) {
        self.mem.write_data(addr.word_base(), WORD_BYTES, value);
    }

    // ------------------------------------------------------------------
    // Reference tracing.
    // ------------------------------------------------------------------

    /// Starts recording demand references into a trace of at most
    /// `capacity` records (older runs' records are kept until taken).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.obs.trace = Some(Trace::new(capacity));
        self.recompute_fast_ok();
    }

    /// Stops tracing and returns `(records, dropped_count)`.
    pub fn take_trace(&mut self) -> (Vec<TraceRecord>, u64) {
        let out = self
            .obs
            .trace
            .take()
            .map(|mut t| t.take())
            .unwrap_or_default();
        self.recompute_fast_ok();
        out
    }

    // ------------------------------------------------------------------
    // Bookkeeping used by the relocation library (crate-internal).
    // ------------------------------------------------------------------

    pub(crate) fn note_relocation(&mut self, words: u64) {
        self.timing.stats.relocations += 1;
        self.timing.stats.relocated_words += words;
    }

    pub(crate) fn note_ptr_compare(&mut self) {
        self.timing.stats.ptr_compares += 1;
    }

    /// Finishes the run: drains the pipeline and returns all statistics.
    pub fn finish(mut self) -> RunStats {
        self.timing.stats.page_faults = self.obs.pages.as_ref().map(|p| p.faults()).unwrap_or(0);
        RunStats {
            pipeline: self.timing.pipe.finish(),
            cache: self.timing.hier.stats(),
            bytes_l1_l2: self.timing.hier.bytes_l1_l2(),
            bytes_l2_mem: self.timing.hier.bytes_l2_mem(),
            fwd: self.timing.stats,
            mem: self.mem.stats(),
            heap: self.heap.stats(),
            epoch: self.epoch_stats,
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.timing.pipe.now())
            .field("loads", &self.timing.stats.loads)
            .field("stores", &self.timing.stats.stores)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::HOPS_BUCKETS;

    fn machine() -> Machine {
        Machine::new(SimConfig::default())
    }

    #[test]
    fn load_store_roundtrip() {
        let mut m = machine();
        let a = m.malloc(32);
        m.store(a, 8, 0xABCD);
        m.store(a + 8, 4, 7);
        assert_eq!(m.load(a, 8), 0xABCD);
        assert_eq!(m.load(a + 8, 4), 7);
        let s = m.finish();
        assert_eq!(s.fwd.loads, 2);
        assert_eq!(s.fwd.stores, 2);
        assert!(s.cycles() > 0);
    }

    #[test]
    fn forwarded_load_returns_new_value_and_counts_hop() {
        let mut m = machine();
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.store(new, 8, 99);
        m.unforwarded_write(old, new.0, true);
        assert_eq!(m.load(old, 8), 99, "stray access forwarded");
        let s = m.finish();
        assert_eq!(s.fwd.forwarded_loads, 1);
        assert_eq!(s.fwd.load_hops[1], 1);
        assert!(s.fwd.load_fwd_cycles > 0);
    }

    #[test]
    fn forwarded_store_writes_to_final_location() {
        let mut m = machine();
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.unforwarded_write(old, new.0, true);
        m.store(old + 4, 4, 42);
        assert_eq!(m.load(new + 4, 4), 42);
        let s = m.finish();
        assert_eq!(s.fwd.forwarded_stores, 1);
    }

    #[test]
    fn perfect_forwarding_has_zero_fwd_cycles() {
        let mut m = Machine::new(SimConfig::default().with_perfect_forwarding());
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.store(new, 8, 5);
        m.unforwarded_write(old, new.0, true);
        assert_eq!(m.load(old, 8), 5);
        let s = m.finish();
        assert_eq!(s.fwd.load_fwd_cycles, 0);
        assert_eq!(
            s.fwd.forwarded_loads, 0,
            "Perf: as if pointers were updated"
        );
    }

    #[test]
    fn forwarding_slower_than_direct() {
        // Time a forwarded load vs a direct one on identical machines.
        let run = |forwarded: bool| -> u64 {
            let mut m = machine();
            let old = m.malloc(8);
            let new = m.malloc(8);
            m.store(new, 8, 1);
            if forwarded {
                m.unforwarded_write(old, new.0, true);
                m.load(old, 8);
            } else {
                m.load(new, 8);
            }
            m.finish().cycles()
        };
        assert!(run(true) > run(false));
    }

    #[test]
    #[should_panic(expected = "forwarding cycle")]
    fn forwarding_cycle_aborts() {
        let mut m = machine();
        let a = m.malloc(8);
        let b = m.malloc(8);
        m.unforwarded_write(a, b.0, true);
        m.unforwarded_write(b, a.0, true);
        let _ = m.load(a, 8);
    }

    #[test]
    fn long_chain_is_false_alarm_not_cycle() {
        let mut m = machine();
        let blocks: Vec<Addr> = (0..20).map(|_| m.malloc(8)).collect();
        m.store(blocks[19], 8, 777);
        for w in blocks.windows(2) {
            m.unforwarded_write(w[0], w[1].0, true);
        }
        assert_eq!(m.load(blocks[0], 8), 777);
        let s = m.finish();
        assert_eq!(
            s.fwd.load_hops[HOPS_BUCKETS - 1],
            1,
            "19 hops in top bucket"
        );
    }

    #[test]
    #[should_panic(expected = "null dereference")]
    fn null_deref_panics() {
        let mut m = machine();
        let _ = m.load(Addr::NULL, 8);
    }

    #[test]
    fn unforwarded_ops_bypass_forwarding() {
        let mut m = machine();
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.unforwarded_write(old, new.0, true);
        let (v, b) = m.unforwarded_read(old);
        assert_eq!((v, b), (new.0, true), "sees the forwarding address itself");
        assert!(m.read_fbit(old));
        assert!(!m.read_fbit(new));
    }

    #[test]
    fn dependent_loads_serialize() {
        // A chain of dependent loads must take at least the sum of miss
        // latencies; independent loads overlap.
        let run = |dependent: bool| -> u64 {
            let mut m = machine();
            let addrs: Vec<Addr> = (0..8).map(|_| m.malloc(4096)).collect();
            let mut tok = Token::ready();
            for a in &addrs {
                if dependent {
                    let (_, t) = m.load_word_dep(*a, tok);
                    tok = t;
                } else {
                    m.load_word(*a);
                }
            }
            m.finish().cycles()
        };
        let dep = run(true);
        let indep = run(false);
        assert!(
            dep > indep * 2,
            "dependent {dep} vs independent {indep}: pointer chasing must serialize"
        );
    }

    #[test]
    fn prefetch_hides_latency() {
        let run = |prefetch: bool| -> u64 {
            let mut m = machine();
            let a = m.malloc(4096);
            if prefetch {
                m.prefetch(a, 1);
                m.compute(200); // give the prefetch time to complete
            } else {
                m.compute(200);
            }
            m.load_word(a);
            m.finish().cycles()
        };
        assert!(run(true) < run(false));
    }

    #[test]
    fn free_follows_chain() {
        let mut m = machine();
        let old = m.malloc(16);
        let new = m.malloc(16);
        m.unforwarded_write(old, new.0, true);
        m.free(old);
        let s = m.heap().stats();
        assert_eq!(s.frees, 2, "both old and relocated block freed");
        let rs = m.finish();
        assert_eq!(rs.fwd.chain_frees, 1);
    }

    #[test]
    fn traps_record_forwarded_references() {
        let mut m = machine();
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.unforwarded_write(old, new.0, true);
        m.set_traps_enabled(true);
        m.load(old, 8);
        let traps = m.take_traps();
        assert_eq!(traps.len(), 1);
        assert_eq!(traps[0].initial, old);
        assert_eq!(traps[0].final_addr, new);
        assert_eq!(traps[0].hops, 1);
        assert!(!traps[0].is_store);
        assert!(m.take_traps().is_empty(), "drained");
        let s = m.finish();
        assert_eq!(s.fwd.traps_taken, 1);
    }

    #[test]
    fn dependence_speculation_violation_detected() {
        let mut m = machine();
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.unforwarded_write(old, new.0, true);
        // A store through the OLD address resolves late to `new`...
        m.store(old, 8, 1);
        // ...while a load directly to `new` issues immediately (no dep).
        m.load(new, 8);
        let s = m.finish();
        assert_eq!(s.fwd.misspeculations, 1);
        assert_eq!(s.pipeline.replays, 1);
    }

    #[test]
    fn no_speculation_mode_is_slower() {
        let run = |speculate: bool| -> u64 {
            let mut m = Machine::new(SimConfig {
                dependence_speculation: speculate,
                ..SimConfig::default()
            });
            let a = m.malloc(1 << 16);
            for i in 0..64u64 {
                m.store(a + i * 512, 8, i);
                m.load(a + 32768 + i * 512, 8);
            }
            m.finish().cycles()
        };
        assert!(run(false) > run(true));
    }

    #[test]
    fn compute_dep_chains_latency() {
        let mut m = machine();
        let t = m.compute_dep(10, Token::at(100));
        assert!(t.cycle() >= 110);
    }

    #[test]
    fn store_buffer_hides_store_miss_latency() {
        let run = |entries: Option<usize>| -> (u64, u64) {
            let mut m = Machine::new(SimConfig {
                store_buffer_entries: entries,
                ..SimConfig::default()
            });
            let a = m.malloc(1 << 20);
            for i in 0..64u64 {
                m.store_word(a + i * 4096, i);
                m.compute(4);
            }
            let s = m.finish();
            (s.cycles(), s.pipeline.slots.store_stall)
        };
        let (no_buf_cycles, no_buf_stall) = run(None);
        let (buf_cycles, buf_stall) = run(Some(8));
        assert!(
            buf_cycles < no_buf_cycles,
            "{buf_cycles} !< {no_buf_cycles}"
        );
        assert!(buf_stall < no_buf_stall, "{buf_stall} !< {no_buf_stall}");
    }

    #[test]
    fn store_buffer_preserves_values_and_ordering() {
        let mut m = Machine::new(SimConfig {
            store_buffer_entries: Some(4),
            ..SimConfig::default()
        });
        let a = m.malloc(256);
        for i in 0..32u64 {
            m.store_word(a.add_words(i % 8), i);
        }
        for i in 24..32u64 {
            assert_eq!(m.load_word(a.add_words(i % 8)), i);
        }
    }

    #[test]
    fn paging_layer_counts_faults_and_slows_misses() {
        let cfg = SimConfig {
            paging: Some(crate::paging::PagingConfig {
                page_bytes: 4096,
                resident_pages: 4,
                fault_penalty: 10_000,
            }),
            ..SimConfig::default()
        };
        let mut m = Machine::new(cfg);
        let a = m.malloc(1 << 20);
        let mut tok = Token::ready();
        for i in 0..16u64 {
            let (_, t) = m.load_word_dep(a + i * 65536, tok);
            tok = t;
        }
        let s = m.finish();
        assert_eq!(s.fwd.page_faults, 16);
        assert!(s.cycles() > 16 * 10_000, "dependent faults serialize");
    }

    #[test]
    fn trace_records_references_with_forwarding_detail() {
        let mut m = machine();
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.store_word(new, 1);
        m.unforwarded_write(old, new.0, true);
        m.enable_trace(16);
        m.load_word(old);
        m.store_word(new, 2);
        let (records, dropped) = m.take_trace();
        assert_eq!(dropped, 0);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, crate::trace::TraceKind::Load);
        assert_eq!(records[0].initial, old);
        assert_eq!(records[0].final_addr, new);
        assert_eq!(records[0].hops, 1);
        assert_eq!(records[1].kind, crate::trace::TraceKind::Store);
        assert_eq!(records[1].hops, 0);
        // Tracing is off after take_trace.
        m.load_word(new);
        assert!(m.take_trace().0.is_empty());
    }

    #[test]
    fn try_load_reports_typed_cycle() {
        let mut m = machine();
        let a = m.malloc(8);
        let b = m.malloc(8);
        m.unforwarded_write(a, b.0, true);
        m.unforwarded_write(b, a.0, true);
        match m.try_load(a, 8) {
            Err(MachineFault::ForwardingCycle { hops, .. }) => assert!(hops >= 2),
            other => panic!("expected ForwardingCycle, got {other:?}"),
        }
        // The machine is still usable after a typed fault.
        let c = m.malloc(8);
        m.store_word(c, 9);
        assert_eq!(m.try_load_word(c), Ok(9));
    }

    #[test]
    fn handler_repairs_cycle_and_access_retries() {
        let mut m = machine();
        let a = m.malloc(8);
        let b = m.malloc(8);
        m.unforwarded_write(a, b.0, true);
        m.unforwarded_write(b, a.0, true);
        m.set_fault_handler(Box::new(move |m, fault| {
            assert!(matches!(fault, MachineFault::ForwardingCycle { .. }));
            m.unforwarded_write(b, 4242, false);
            TrapOutcome::Retry
        }));
        assert_eq!(m.try_load_word(a), Ok(4242));
        let s = m.finish();
        assert_eq!(s.fwd.faults_delivered, 1);
    }

    #[test]
    fn handler_that_never_repairs_cannot_livelock() {
        let mut m = machine();
        let a = m.malloc(8);
        m.unforwarded_write(a, a.0, true); // self-loop
        m.set_fault_handler(Box::new(|_, _| TrapOutcome::Retry));
        assert!(matches!(
            m.try_load_word(a),
            Err(MachineFault::ForwardingCycle { .. })
        ));
        let s = m.finish();
        assert_eq!(s.fwd.faults_delivered, u64::from(MAX_FAULT_RETRIES) + 1);
    }

    #[test]
    fn handler_abort_propagates_fault() {
        let mut m = machine();
        let a = m.malloc(8);
        m.unforwarded_write(a, a.0, true);
        m.set_fault_handler(Box::new(|_, _| TrapOutcome::Abort));
        assert!(m.try_load_word(a).is_err());
        let s = m.finish();
        assert_eq!(s.fwd.faults_delivered, 1);
    }

    #[test]
    fn hard_hop_budget_rejects_long_acyclic_chain() {
        let mut m = Machine::new(SimConfig {
            hard_hop_budget: Some(4),
            ..SimConfig::default()
        });
        let blocks: Vec<Addr> = (0..8).map(|_| m.malloc(8)).collect();
        m.poke_word(blocks[7], 1);
        for w in blocks.windows(2) {
            m.unforwarded_write(w[0], w[1].0, true);
        }
        assert!(matches!(
            m.try_load_word(blocks[0]),
            Err(MachineFault::HopLimitExceeded { hops: 5, .. })
        ));
        // A short chain is still fine under the budget.
        assert_eq!(m.try_load_word(blocks[4]), Ok(1));
    }

    #[test]
    fn try_demand_validates_before_timing() {
        let mut m = machine();
        assert_eq!(
            m.try_load(Addr::NULL, 8),
            Err(MachineFault::NullDeref { is_store: false })
        );
        let a = m.malloc(16);
        assert_eq!(
            m.try_store(a + 1, 4, 0),
            Err(MachineFault::Misaligned {
                addr: a + 1,
                size: 4
            })
        );
        assert_eq!(
            m.try_load(a, 3),
            Err(MachineFault::Misaligned { addr: a, size: 3 })
        );
    }

    #[test]
    fn try_free_reports_cycle_without_freeing() {
        let mut m = machine();
        let a = m.malloc(16);
        let b = m.malloc(16);
        m.unforwarded_write(a, b.0, true);
        m.unforwarded_write(b, a.0, true);
        assert!(matches!(
            m.try_free(a),
            Err(MachineFault::ForwardingCycle { .. })
        ));
        assert!(m.heap().is_live(a) && m.heap().is_live(b), "nothing freed");
        assert_eq!(m.fwd_stats().chain_frees, 0, "nothing counted");
        assert_eq!(
            m.try_free(m.config().heap_base + 8),
            Err(MachineFault::InvalidFree {
                addr: SimConfig::default().heap_base + 8
            })
        );
    }

    #[test]
    fn try_malloc_reports_exhaustion_and_handler_can_rescue() {
        let mut m = Machine::new(SimConfig {
            heap_capacity: 64,
            ..SimConfig::default()
        });
        let a = m.try_malloc(64).expect("fits");
        assert_eq!(
            m.try_malloc(64),
            Err(MachineFault::HeapExhausted { requested: 64 })
        );
        // A handler that frees memory rescues the allocation.
        m.set_fault_handler(Box::new(move |m, fault| {
            assert!(matches!(fault, MachineFault::HeapExhausted { .. }));
            m.free(a);
            TrapOutcome::Retry
        }));
        assert!(m.try_malloc(64).is_ok());
    }

    #[test]
    fn injection_with_recovery_preserves_values() {
        let mut m = Machine::new(SimConfig {
            fault_injection: Some(crate::inject::InjectConfig {
                seed: 7,
                fbit_flip_ppm: 250_000,
                chain_scramble_ppm: 250_000,
                recover: true,
                ..crate::inject::InjectConfig::default()
            }),
            ..SimConfig::default()
        });
        let a = m.malloc(256);
        for i in 0..32u64 {
            m.store_word(a.add_words(i % 8), i);
            assert_eq!(m.load_word(a.add_words(i % 8)), i);
        }
        let s = m.finish();
        assert!(s.fwd.injected_faults > 0, "campaign must actually inject");
        assert_eq!(
            s.fwd.fault_repairs, s.fwd.injected_faults,
            "recovery mode repairs every injection"
        );
    }

    #[test]
    fn injection_without_recovery_is_typed_never_silent() {
        let mut m = Machine::new(SimConfig {
            fault_injection: Some(crate::inject::InjectConfig {
                seed: 11,
                chain_scramble_ppm: 500_000,
                recover: false,
                ..crate::inject::InjectConfig::default()
            }),
            ..SimConfig::default()
        });
        let a = m.malloc(64);
        let mut faulted = false;
        for i in 0..16u64 {
            match m.try_store_word(a.add_words(i % 4), i) {
                Ok(()) => {}
                Err(MachineFault::ForwardingCycle { .. }) => {
                    faulted = true;
                    break;
                }
                Err(other) => panic!("unexpected fault {other:?}"),
            }
        }
        assert!(faulted, "p=0.5 scramble per access must fire within 16");
    }

    #[test]
    fn stats_instruction_mix() {
        let mut m = machine();
        let a = m.malloc(64);
        m.store_word(a, 1);
        m.load_word(a);
        m.prefetch(a, 2);
        m.compute(5);
        m.read_fbit(a);
        m.unforwarded_read(a);
        let s = m.finish();
        assert_eq!(s.fwd.stores, 1);
        assert_eq!(s.fwd.loads, 1);
        assert_eq!(s.fwd.prefetches, 1);
        assert!(s.fwd.computes >= 5);
        assert_eq!(s.fwd.fbit_reads, 1);
        assert_eq!(s.fwd.unforwarded_ops, 1);
        assert_eq!(s.fwd.mallocs, 1);
    }
}
