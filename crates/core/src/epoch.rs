//! Epoch-based speculative parallel execution.
//!
//! The demand path saturates one host core; this module uses the rest. An
//! application hands the machine a group of *tasks* — closures
//! issuing demand references through the [`Demand`] trait — via
//! [`Machine::run_tasks`]. With `SimConfig::epoch_threads > 0`, worker
//! threads execute future tasks **speculatively** against a frozen
//! copy-on-write view of the tagged memory while the calling thread
//! *commits* finished tasks strictly in task order:
//!
//! - Each worker runs a task through `SpecExec`, a purely *functional*
//!   interpreter: it resolves forwarding chains and reads/writes data
//!   through a [`SpecView`] page overlay, recording an **op log** (every
//!   demand reference with its resolved final address and the exact hop
//!   words its walk touched) plus **word-granular** read/write bitmaps.
//! - The committer retires tasks in order. A task is **clean** when its
//!   speculation did not abort and no *word* it read was written by an
//!   earlier task in the group — write/write overlap on distinct words
//!   needs no serialization, because the committer merges each clean
//!   task's writes by patching exactly its written words, in task order
//!   (serial last-writer-wins falls out). A clean task's op log is
//!   **replayed** through the pipeline / cache / dependence-speculation
//!   models by the machine's own demand body ([`crate::demand`]), fed the
//!   chain the interpreter walked, so every counter and cycle comes out
//!   exactly as direct execution would have produced.
//! - A **dirty** task (conflict or abort) is discarded and re-executed
//!   directly on the real machine at its program-order position, which also
//!   re-raises any genuine machine fault exactly as direct execution would.
//!
//! Commit decisions depend only on the task order and each task's
//! deterministic footprint — never on worker scheduling — so the engine is
//! **bit-identical** at every thread count; only the [`EpochStats`] block
//! distinguishes `epoch_threads == 0` (all zero) from `>= 1`.
//!
//! Tasks must be *token-local*: every [`Token`] consumed by a task must
//! have been produced inside the same task (speculative tokens are
//! symbolic op-log indices). A foreign token makes the interpreter abort
//! the task conservatively, which costs a serial replay but never
//! correctness.

use crate::config::SimConfig;
use crate::demand::{Chain, Observers, Timing};
use crate::fault::MachineFault;
use crate::machine::Machine;
use memfwd_cpu::{OpClass, Token};
use memfwd_tagmem::{
    merge_mask, validate_access, Addr, FxHashMap, Page, PageMask, SpecBase, SpecView, WalkGuard,
    WORD_BYTES,
};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// The demand-reference interface a task executes against: either the real
/// [`Machine`] (direct execution, conflict replays) or the speculative
/// interpreter (`SpecExec`) on a worker thread.
///
/// The surface is deliberately the timing-relevant subset of the machine's
/// API — demand loads/stores, prefetch, compute. Allocation,
/// relocation and the ISA extensions stay on [`Machine`]: task bodies do
/// the memory-access work, the host code around [`Machine::run_tasks`]
/// does the structural work.
pub trait Demand {
    /// A demand load with an explicit address dependence; returns the value
    /// and its completion token.
    fn load_dep(&mut self, addr: Addr, size: u64, dep: Token) -> (u64, Token);

    /// A demand store with an explicit dependence; returns the completion
    /// token.
    fn store_dep(&mut self, addr: Addr, size: u64, val: u64, dep: Token) -> Token;

    /// Issues a block prefetch of `lines` cache lines at `addr`.
    fn prefetch(&mut self, addr: Addr, lines: u64);

    /// [`Demand::prefetch`] with an explicit address dependence.
    fn prefetch_dep(&mut self, addr: Addr, lines: u64, dep: Token);

    /// Executes `n` independent single-cycle ALU instructions.
    fn compute(&mut self, n: u64);

    /// Executes `n` dependent ALU instructions consuming `dep`; returns the
    /// last one's token.
    fn compute_dep(&mut self, n: u64, dep: Token) -> Token;

    /// Cache line size in bytes.
    fn line_bytes(&self) -> u64;

    /// Loads one 64-bit word with a dependence token.
    fn load_word_dep(&mut self, addr: Addr, dep: Token) -> (u64, Token) {
        self.load_dep(addr, WORD_BYTES, dep)
    }

    /// Loads a pointer with a dependence token.
    fn load_ptr_dep(&mut self, addr: Addr, dep: Token) -> (Addr, Token) {
        let (v, t) = self.load_dep(addr, WORD_BYTES, dep);
        (Addr(v), t)
    }

    /// Loads one 64-bit word.
    fn load_word(&mut self, addr: Addr) -> u64 {
        self.load_dep(addr, WORD_BYTES, Token::ready()).0
    }

    /// Stores one 64-bit word.
    fn store_word(&mut self, addr: Addr, val: u64) {
        self.store_dep(addr, WORD_BYTES, val, Token::ready());
    }

    /// Stores a pointer.
    fn store_ptr(&mut self, addr: Addr, val: Addr) {
        self.store_dep(addr, WORD_BYTES, val.0, Token::ready());
    }
}

impl Demand for Machine {
    fn load_dep(&mut self, addr: Addr, size: u64, dep: Token) -> (u64, Token) {
        Machine::load_dep(self, addr, size, dep)
    }

    fn store_dep(&mut self, addr: Addr, size: u64, val: u64, dep: Token) -> Token {
        Machine::store_dep(self, addr, size, val, dep)
    }

    fn prefetch(&mut self, addr: Addr, lines: u64) {
        Machine::prefetch(self, addr, lines)
    }

    fn prefetch_dep(&mut self, addr: Addr, lines: u64, dep: Token) {
        Machine::prefetch_dep(self, addr, lines, dep)
    }

    fn compute(&mut self, n: u64) {
        Machine::compute(self, n)
    }

    fn compute_dep(&mut self, n: u64, dep: Token) -> Token {
        Machine::compute_dep(self, n, dep)
    }

    fn line_bytes(&self) -> u64 {
        Machine::line_bytes(self)
    }
}

/// One logged operation of a speculative task. Dependences are symbolic:
/// `dep == 0` means ready-at-dispatch, `dep == k > 0` means "the completion
/// of op `k-1`" — resolved to real cycles during commit replay.
enum Op {
    /// A demand reference, functionally resolved: `final_addr` is where the
    /// forwarding chain ended, `hop_lo..hop_lo+hops` indexes the task's hop
    /// word list (empty under perfect forwarding).
    Demand {
        is_store: bool,
        initial: Addr,
        size: u64,
        final_addr: Addr,
        dep: u32,
        hop_lo: u32,
        hops: u32,
    },
    /// `n` independent ALU instructions.
    Compute { n: u64 },
    /// `n` chained ALU instructions consuming `dep`.
    ComputeDep { n: u64, dep: u32 },
    /// A block prefetch.
    Prefetch { addr: Addr, lines: u64, dep: u32 },
}

/// Everything a finished speculative task hands to the committer.
struct SpecResult<R> {
    /// The closure's return value (`None` when the task panicked).
    value: Option<R>,
    /// Word-granular footprint + written page copies.
    delta: memfwd_tagmem::SpecDelta,
    /// The op log, in program order.
    ops: Vec<Op>,
    /// Hop words of all forwarding walks, indexed by [`Op::Demand`].
    hop_words: Vec<u64>,
    /// The interpreter bailed out (fault path, hop budget, foreign token,
    /// panic): the task must be re-executed directly.
    aborted: bool,
}

/// The speculative functional interpreter: executes one task against a
/// [`SpecView`] overlay, logging ops for commit-time timing replay.
struct SpecExec<'a> {
    cfg: &'a SimConfig,
    view: SpecView<'a>,
    ops: Vec<Op>,
    hop_words: Vec<u64>,
    aborted: bool,
}

impl<'a> SpecExec<'a> {
    fn new(cfg: &'a SimConfig, base: SpecBase<'a>) -> SpecExec<'a> {
        SpecExec {
            cfg,
            view: SpecView::new(base),
            ops: Vec::new(),
            hop_words: Vec::new(),
            aborted: false,
        }
    }

    /// Decodes a task-local token into a symbolic op index (0 = ready).
    /// Foreign tokens — cycles that cannot name an op this task logged —
    /// abort the task.
    fn dep_of(&mut self, dep: Token) -> u32 {
        let c = dep.cycle();
        if c > self.ops.len() as u64 {
            self.aborted = true;
            return 0;
        }
        c as u32
    }

    fn abort(&mut self, hop_lo: usize) -> (u64, Token) {
        self.aborted = true;
        self.hop_words.truncate(hop_lo);
        (0, Token::ready())
    }

    /// The speculative demand reference: functional chain walk through the
    /// overlay, data movement, op logging. Any condition the commit replay
    /// does not run (faults, cycle checks, budget overruns) aborts the task
    /// instead.
    fn demand(
        &mut self,
        is_store: bool,
        addr: Addr,
        size: u64,
        val: u64,
        dep: Token,
    ) -> (u64, Token) {
        if self.aborted {
            return (0, Token::ready());
        }
        let dep = self.dep_of(dep);
        let hop_lo = self.hop_words.len();
        if addr.is_null() || validate_access(addr, size).is_err() {
            return self.abort(hop_lo);
        }
        // A walk the hardware would hand to the accurate cycle check (past
        // `hop_limit`) or fault (past `hard_hop_budget`) aborts to the
        // direct path, so no replayed walk reaches either.
        let mut scratch = Vec::new();
        let mut guard = WalkGuard::new(self.cfg.walk_policy(), &mut scratch);
        let mut cur = addr;
        let final_word;
        loop {
            // Hops and a full-word store's final probe are peeks, not value
            // reads: their outcome depends only on forwarding bits and
            // fbit-set words, both epoch-immutable (tasks write only
            // fbit-clear words and never touch fbits), so recording them
            // would only manufacture false conflicts. Loads and subword
            // stores (which byte-merge into the word) mark the dependence.
            let (word, fbit) = self.view.peek_word_tagged(cur);
            if !fbit {
                if !is_store || size < WORD_BYTES {
                    self.view.mark_read(cur);
                }
                final_word = word;
                break;
            }
            if !self.cfg.perfect_forwarding {
                self.hop_words.push(cur.word_base().0);
            }
            let next = Addr(word) + cur.word_offset();
            if guard.hop(cur, next) != Ok(false) {
                return self.abort(hop_lo);
            }
            cur = next;
        }
        let hops = guard.hops();
        let final_addr = cur;
        if final_addr != addr
            && (final_addr.is_null() || validate_access(final_addr, size).is_err())
        {
            return self.abort(hop_lo);
        }
        let out = if is_store {
            self.view.write_data(final_addr, size, val);
            0
        } else if size == WORD_BYTES {
            final_word
        } else {
            (final_word >> (8 * (final_addr.0 & 7))) & ((1u64 << (8 * size)) - 1)
        };
        let hops_logged = if self.cfg.perfect_forwarding { 0 } else { hops };
        self.ops.push(Op::Demand {
            is_store,
            initial: addr,
            size,
            final_addr,
            dep,
            hop_lo: hop_lo as u32,
            hops: hops_logged,
        });
        (out, Token::at(self.ops.len() as u64))
    }

    fn into_result<R>(self, value: Option<R>) -> SpecResult<R> {
        SpecResult {
            value,
            delta: self.view.into_delta(),
            ops: self.ops,
            hop_words: self.hop_words,
            aborted: self.aborted,
        }
    }
}

impl Demand for SpecExec<'_> {
    fn load_dep(&mut self, addr: Addr, size: u64, dep: Token) -> (u64, Token) {
        self.demand(false, addr, size, 0, dep)
    }

    fn store_dep(&mut self, addr: Addr, size: u64, val: u64, dep: Token) -> Token {
        self.demand(true, addr, size, val, dep).1
    }

    fn prefetch(&mut self, addr: Addr, lines: u64) {
        Demand::prefetch_dep(self, addr, lines, Token::ready());
    }

    fn prefetch_dep(&mut self, addr: Addr, lines: u64, dep: Token) {
        if self.aborted {
            return;
        }
        let dep = self.dep_of(dep);
        self.ops.push(Op::Prefetch { addr, lines, dep });
    }

    fn compute(&mut self, n: u64) {
        if self.aborted {
            return;
        }
        self.ops.push(Op::Compute { n });
    }

    fn compute_dep(&mut self, n: u64, dep: Token) -> Token {
        if self.aborted {
            return Token::ready();
        }
        let dep = self.dep_of(dep);
        self.ops.push(Op::ComputeDep { n, dep });
        Token::at(self.ops.len() as u64)
    }

    fn line_bytes(&self) -> u64 {
        self.cfg.hierarchy.line_bytes
    }
}

/// A logged forwarding chain: the hop words a speculative walk touched and
/// where it ended. The data moved during speculation, so the access half
/// is a no-op.
struct Logged<'a> {
    hop_words: &'a [u64],
    next: usize,
    final_addr: Addr,
}

impl Chain for Logged<'_> {
    fn follow(&mut self, _cur: Addr) -> Option<Addr> {
        if self.next == self.hop_words.len() {
            return None;
        }
        self.next += 1;
        Some(
            self.hop_words
                .get(self.next)
                .map_or(self.final_addr, |&w| Addr(w)),
        )
    }

    fn resolve(&mut self, _: Addr, _: u32, _: &mut Vec<Addr>) -> Result<Addr, MachineFault> {
        Ok(self.final_addr)
    }

    fn access(&mut self, _is_store: bool, _final_addr: Addr, _size: u64, _val: u64) -> u64 {
        0
    }
}

/// Replays one clean task's op log through the timing models. Demand
/// references run the machine's own unobserved demand body over the logged
/// chain; the interpreter aborted every walk that could fault or reach the
/// cycle check, so none of them faults here.
fn replay_task(
    cfg: &SimConfig,
    timing: &mut Timing,
    obs: &mut Observers,
    ops: &[Op],
    hop_words: &[u64],
    completions: &mut Vec<u64>,
) {
    completions.clear();
    let cycle_of = |completions: &[u64], dep: u32| -> u64 {
        if dep == 0 {
            0
        } else {
            completions[dep as usize - 1]
        }
    };
    for op in ops {
        match *op {
            Op::Demand {
                is_store,
                initial,
                size,
                final_addr,
                dep,
                hop_lo,
                hops,
            } => {
                let mut chain = Logged {
                    hop_words: &hop_words[hop_lo as usize..(hop_lo + hops) as usize],
                    next: 0,
                    final_addr,
                };
                let dep = Token::at(cycle_of(completions, dep));
                let (_, tok) = timing
                    .demand::<false>(cfg, obs, &mut chain, is_store, initial, size, 0, dep)
                    .expect("speculation aborts every walk that can fault");
                completions.push(tok.cycle());
            }
            Op::Compute { n } => {
                for _ in 0..n {
                    timing.pipe.compute(0);
                }
                timing.stats.computes += n;
                completions.push(0);
            }
            Op::ComputeDep { n, dep } => {
                let mut t = cycle_of(completions, dep);
                for _ in 0..n {
                    t = timing.pipe.compute(t);
                }
                timing.stats.computes += n;
                completions.push(t);
            }
            Op::Prefetch { addr, lines, dep } => {
                let d = timing.pipe.dispatch();
                timing
                    .hier
                    .prefetch_block(d.max(cycle_of(completions, dep)), addr.0, lines);
                timing.stats.prefetches += 1;
                timing.pipe.complete(OpClass::Prefetch, d, d + 1, false);
                completions.push(d + 1);
            }
        }
    }
}

impl Machine {
    /// Executes `n` independent tasks, in task order as far as any observer
    /// can tell, using up to `SimConfig::epoch_threads` speculation workers.
    ///
    /// Each task receives its index and a [`Demand`] handle; it must confine
    /// itself to that handle (no captured machine access) and to tokens it
    /// produced itself. Tasks need **not** be data-independent — word-level
    /// conflicts are detected and the losing task is transparently
    /// re-executed serially — but conflict-free tasks are what buys
    /// parallel speedup. (Tasks that merely share 4 KiB pages, e.g. nodes
    /// carved from one pool slab, are *not* conflicts: detection and merge
    /// are word-granular.)
    ///
    /// With `epoch_threads == 0` this is exactly a serial loop over
    /// `f(i, self)`; with any thread count ≥ 1 the observable machine state
    /// (memory, heap, every statistic except [`crate::EpochStats`], which
    /// is itself identical across all counts ≥ 1) is bit-identical to the
    /// serial loop.
    ///
    /// # Panics
    ///
    /// A task that panics deterministically (e.g. a demand reference
    /// faulting through the panicking API) is re-executed directly and the
    /// panic propagates from its program-order position, exactly as in the
    /// serial loop.
    pub fn run_tasks<R, F>(&mut self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut dyn Demand) -> R + Sync,
    {
        let threads = self.cfg.epoch_threads.min(n);
        if threads == 0 {
            return (0..n).map(|i| f(i, self)).collect();
        }
        self.epoch_stats.epochs += 1;
        // The speculative interpreter models none of the optional
        // observers: any attached one sends every task down the direct path.
        if !self.fast_ok {
            self.epoch_stats.direct += n as u64;
            return (0..n).map(|i| f(i, self)).collect();
        }

        let mut parked: Vec<Option<SpecResult<R>>> = (0..n).map(|_| None).collect();
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut committed_writes: FxHashMap<u64, PageMask> = FxHashMap::default();
        let mut pending: Vec<(u64, Box<Page>, PageMask)> = Vec::new();
        let mut completions: Vec<u64> = Vec::new();
        let mut next_commit = 0usize;

        {
            // Split borrows: workers share the memory immutably (the
            // `SpecBase` projection); the committer owns the timing models.
            let m = &mut *self;
            let cfg = &m.cfg;
            let base = m.mem.spec_base();
            let timing = &mut m.timing;
            let obs = &mut m.obs;
            let epoch_stats = &mut m.epoch_stats;

            let next_task = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let next = &next_task;
                let f = &f;
                let (tx, rx) = mpsc::channel::<(usize, SpecResult<R>)>();
                for _ in 0..threads {
                    let tx = tx.clone();
                    s.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return;
                        }
                        let mut ex = SpecExec::new(cfg, base);
                        // A panic inside speculation (stale data steering
                        // the task into an assertion, or the panicking
                        // demand API) is contained: the result is discarded
                        // and the task re-runs directly, where a genuine
                        // panic reproduces at its program-order position.
                        let value =
                            std::panic::catch_unwind(AssertUnwindSafe(|| f(i, &mut ex))).ok();
                        let mut res = ex.into_result(value);
                        res.aborted |= res.value.is_none();
                        if tx.send((i, res)).is_err() {
                            return;
                        }
                    });
                }
                drop(tx);

                // Round 1: retire in task order, eagerly overlapping commit
                // replay with still-running workers. The first dirty task
                // stalls retirement (its serial re-execution needs the real
                // memory, which workers still share) but the channel keeps
                // draining so every worker runs to completion.
                let mut stalled = false;
                for (i, res) in rx {
                    parked[i] = Some(res);
                    if stalled {
                        continue;
                    }
                    while next_commit < n {
                        let Some(r) = parked[next_commit].as_ref() else {
                            break;
                        };
                        if r.aborted || !r.delta.disjoint_from(&committed_writes) {
                            stalled = true;
                            break;
                        }
                        let mut r = parked[next_commit].take().expect("probed above");
                        r.delta.record_writes(&mut committed_writes);
                        pending.append(&mut r.delta.pages);
                        replay_task(cfg, timing, obs, &r.ops, &r.hop_words, &mut completions);
                        epoch_stats.committed += 1;
                        results[next_commit] = Some(r.value.expect("clean task has a value"));
                        next_commit += 1;
                    }
                }
            });
        }

        // The workers are gone; the memory is ours again. Install the words
        // committed so far (later commits appended later, so same-word
        // installs land in commit order), then finish the tail serially.
        for (pno, pg, mask) in pending.drain(..) {
            self.mem.install_words(pno, &pg, &mask);
        }
        for i in next_commit..n {
            let r = parked[i].take().expect("every task sends a result");
            if !r.aborted && r.delta.disjoint_from(&committed_writes) {
                r.delta.record_writes(&mut committed_writes);
                for (pno, pg, mask) in &r.delta.pages {
                    self.mem.install_words(*pno, pg, mask);
                }
                replay_task(
                    &self.cfg,
                    &mut self.timing,
                    &mut self.obs,
                    &r.ops,
                    &r.hop_words,
                    &mut completions,
                );
                self.epoch_stats.committed += 1;
                results[i] = Some(r.value.expect("clean task has a value"));
            } else {
                if r.aborted {
                    self.epoch_stats.aborts += 1;
                } else if r.delta.pure_reads_overlap(&committed_writes) {
                    self.epoch_stats.conflicts_rw += 1;
                } else {
                    self.epoch_stats.conflicts_ww += 1;
                }
                self.epoch_stats.replayed += 1;
                self.mem.set_write_log(true);
                let v = f(i, self);
                for (pno, mask) in self.mem.take_write_log() {
                    merge_mask(&mut committed_writes, pno, &mask);
                }
                results[i] = Some(v);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("all tasks resolved"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunStats;

    /// Zeroes the epoch block so a threaded run can be compared field-for-
    /// field against a `threads == 0` run (their only legitimate delta).
    fn sans_epoch(mut s: RunStats) -> RunStats {
        s.epoch = Default::default();
        s
    }

    /// A workload with conflict-free tasks: each task initializes, links
    /// and walks its own region (pages are 4 KiB; regions are page-spaced).
    fn disjoint_workload(m: &mut Machine) -> u64 {
        let bases: Vec<Addr> = (0..8).map(|_| m.malloc(8192)).collect();
        let sums = m.run_tasks(bases.len(), |i, d| {
            let b = bases[i];
            for w in 0..16u64 {
                d.store_word(b.add_words(w), (i as u64) * 100 + w);
            }
            let mut acc = 0u64;
            let mut tok = Token::ready();
            for w in 0..16u64 {
                let (v, t) = d.load_word_dep(b.add_words(w), tok);
                acc = acc.wrapping_add(v);
                tok = t;
            }
            d.compute_dep(3, tok);
            d.prefetch(b, 2);
            acc
        });
        sums.iter().fold(0u64, |a, &s| a.rotate_left(7) ^ s)
    }

    /// Same ops at any thread count — full `RunStats` equality (epoch block
    /// zeroed on the threaded side).
    #[test]
    fn threaded_matches_direct_bit_for_bit() {
        let run = |threads: usize| {
            let mut m = Machine::new(SimConfig::default().with_epoch_threads(threads));
            let sum = disjoint_workload(&mut m);
            (sum, m.finish())
        };
        let (sum0, direct) = run(0);
        for threads in [1, 2, 4] {
            let (sum, stats) = run(threads);
            assert_eq!(sum, sum0, "threads {threads}");
            assert_eq!(sans_epoch(stats), direct, "threads {threads}");
            assert_eq!(stats.epoch.epochs, 1);
            assert_eq!(stats.epoch.committed, 8);
            assert_eq!(stats.epoch.replayed, 0);
        }
    }

    /// Epoch counters are identical at every worker count ≥ 1: the commit
    /// protocol's decisions depend on task order, not scheduling.
    #[test]
    fn epoch_stats_independent_of_thread_count() {
        let run = |threads: usize| {
            let mut m = Machine::new(SimConfig::default().with_epoch_threads(threads));
            let b = m.malloc(4096);
            // Every task read-modify-writes the *same word*: task 0
            // commits, the rest misread the value an earlier task wrote
            // (and rewrote the word themselves → write/write collision)
            // and replay.
            m.run_tasks(6, |i, d| {
                let v = d.load_word(b);
                d.store_word(b, v + 10 * (i as u64 + 1));
                v
            });
            m.finish()
        };
        let direct = {
            let mut m = Machine::new(SimConfig::default());
            let b = m.malloc(4096);
            m.run_tasks(6, |i, d| {
                let v = d.load_word(b);
                d.store_word(b, v + 10 * (i as u64 + 1));
                v
            });
            m.finish()
        };
        let one = run(1);
        for threads in [2, 4] {
            assert_eq!(run(threads), one, "threads {threads}");
        }
        assert_eq!(sans_epoch(one), direct);
        assert_eq!(one.epoch.committed, 1);
        assert_eq!(one.epoch.replayed, 5);
        assert_eq!(one.epoch.conflicts_ww, 5);
        assert_eq!(one.epoch.conflicts_rw, 0);
    }

    /// Full-word stores carry no value dependence: even same-word
    /// store/store sequences commit cleanly, because in-order masked
    /// installs reproduce the serial last-writer-wins state and a store's
    /// forwarding-bit probe depends only on epoch-immutable state.
    #[test]
    fn same_word_stores_commit_without_conflict() {
        let run = |threads: usize| {
            let mut m = Machine::new(SimConfig::default().with_epoch_threads(threads));
            let b = m.malloc(4096);
            m.run_tasks(6, |i, d| {
                d.store_word(b, 100 + i as u64);
                i
            });
            let last = m.load_word(b);
            (last, m.finish())
        };
        let (last4, s4) = run(4);
        let (last0, s0) = run(0);
        assert_eq!(last4, 105, "last writer wins");
        assert_eq!(last4, last0);
        assert_eq!(sans_epoch(s4), s0);
        assert_eq!(s4.epoch.committed, 6);
        assert_eq!(s4.epoch.replayed, 0);
    }

    /// Tasks that share a 4 KiB page but touch disjoint *words* — the
    /// false-sharing pattern of list nodes carved from one pool slab — all
    /// commit cleanly: conflict detection and merge are word-granular.
    #[test]
    fn shared_page_disjoint_words_all_commit() {
        let run = |threads: usize| {
            let mut m = Machine::new(SimConfig::default().with_epoch_threads(threads));
            let b = m.malloc(4096);
            let vals = m.run_tasks(6, |i, d| {
                let a = b.add_words(2 * i as u64);
                d.store_word(a, 10 + i as u64);
                d.load_word(a.add_words(1)) + 100 * i as u64
            });
            let mem: Vec<u64> = (0..12).map(|w| m.load_word(b.add_words(w))).collect();
            (vals, mem, m.finish())
        };
        let (vals4, mem4, s4) = run(4);
        let (vals0, mem0, s0) = run(0);
        assert_eq!(vals4, vals0);
        assert_eq!(mem4, mem0);
        assert_eq!(sans_epoch(s4), s0);
        assert_eq!(
            s4.epoch.committed, 6,
            "page sharing alone is not a conflict"
        );
        assert_eq!(s4.epoch.replayed, 0);
    }

    /// A read of a word an earlier task wrote is a true-dependence conflict.
    #[test]
    fn read_after_write_conflicts_and_value_is_correct() {
        let run = |threads: usize| {
            let mut m = Machine::new(SimConfig::default().with_epoch_threads(threads));
            let b = m.malloc(4096);
            let vals = m.run_tasks(2, |i, d| {
                if i == 0 {
                    d.store_word(b, 99);
                    0
                } else {
                    d.load_word(b)
                }
            });
            (vals, m.finish())
        };
        let (vals, stats) = run(4);
        assert_eq!(
            vals,
            vec![0, 99],
            "replayed reader sees the committed store"
        );
        assert_eq!(stats.epoch.replayed, 1);
        assert_eq!(stats.epoch.conflicts_rw, 1);
        let (vals1, stats1) = run(1);
        assert_eq!(vals, vals1);
        assert_eq!(stats, stats1);
    }

    /// Foreign (non-task-local) tokens abort speculation conservatively;
    /// the direct re-run handles them fine and results stay identical.
    #[test]
    fn foreign_token_aborts_to_direct() {
        let run = |threads: usize| {
            let mut m = Machine::new(SimConfig::default().with_epoch_threads(threads));
            let b = m.malloc(8192);
            let outside = Token::at(1_000_000);
            let vals = m.run_tasks(2, |i, d| {
                let a = b.add_words(512 * i as u64);
                d.store_word(a, 7 + i as u64);
                d.load_word_dep(a, outside).0
            });
            (vals, m.finish())
        };
        let (vals, stats) = run(2);
        assert_eq!(vals, vec![7, 8]);
        assert_eq!(stats.epoch.aborts, 2);
        assert_eq!(stats.epoch.replayed, 2);
        let mut m = Machine::new(SimConfig::default());
        let b = m.malloc(8192);
        let outside = Token::at(1_000_000);
        let vals0: Vec<u64> = (0..2usize)
            .map(|i| {
                let a = b.add_words(512 * i as u64);
                Demand::store_word(&mut m, a, 7 + i as u64);
                Demand::load_word_dep(&mut m, a, outside).0
            })
            .collect();
        assert_eq!(vals, vals0);
        assert_eq!(sans_epoch(stats), m.finish());
    }

    /// Forwarded references speculate correctly: the interpreter walks the
    /// chain through the overlay and the replay charges the same hops.
    #[test]
    fn forwarding_chains_replay_identically() {
        let run = |threads: usize| {
            let mut m = Machine::new(SimConfig::default().with_epoch_threads(threads));
            let old = m.malloc(4096);
            let new = m.malloc(4096);
            for w in 0..8u64 {
                m.store_word(new.add_words(w), 1000 + w);
                m.unforwarded_write(old.add_words(w), new.add_words(w).0, true);
            }
            let vals = m.run_tasks(1, |_, d| {
                (0..8u64)
                    .map(|w| d.load_word(old.add_words(w)))
                    .sum::<u64>()
            });
            (vals[0], m.finish())
        };
        let (v4, s4) = run(4);
        let (v0, s0) = run(0);
        assert_eq!(v4, v0);
        assert_eq!(v4, (1000..1008).sum::<u64>());
        assert_eq!(sans_epoch(s4), s0);
        assert_eq!(s4.fwd.forwarded_loads, 8);
        assert_eq!(s4.epoch.committed, 1);
    }

    /// An attached observer (user-level traps) routes tasks down the direct
    /// path — still correct, counted as direct.
    #[test]
    fn ineligible_machine_runs_direct() {
        let mut m = Machine::new(SimConfig::default().with_epoch_threads(4));
        m.set_traps_enabled(true);
        let b = m.malloc(4096);
        let vals = m.run_tasks(3, |i, d| {
            d.store_word(b.add_words(i as u64), i as u64);
            d.load_word(b.add_words(i as u64))
        });
        assert_eq!(vals, vec![0, 1, 2]);
        let s = m.finish();
        assert_eq!(s.epoch.direct, 3);
        assert_eq!(s.epoch.committed, 0);
    }
}
