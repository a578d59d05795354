//! The demand reference, written once.
//!
//! Every load and store does what the paper's hardware does (§3.2): probe
//! the forwarding bit of the addressed word and, while it is set, follow the
//! chain; then access the final word. [`Timing::demand`] is the only copy of
//! the timing that goes with it — dispatch, issue, hop timing, final cache
//! access, dependence-speculation check or store resolve, statistics,
//! graduation — and it runs in three places:
//!
//! - a [`crate::Machine`] with no observer attached runs the
//!   `OBSERVED = false` instance directly, forwarded references and faults
//!   included;
//! - a machine with any observer (pager, store buffer, traps, tracer,
//!   watchdog, injector, fault handler) runs the `OBSERVED = true` instance
//!   under its inject/deliver/retry loop;
//! - the epoch committer replays a speculative task's op log through the
//!   `OBSERVED = false` instance, with the chain the interpreter walked.
//!
//! The functional half — where the chain leads and the data at its end —
//! comes from a [`Chain`]: live memory for the machine, the logged hops for
//! the replay. Nothing else differs, so the three agree by construction.

use crate::config::SimConfig;
use crate::fault::MachineFault;
use crate::paging::PageCache;
use crate::stats::{FwdStats, HOPS_BUCKETS};
use crate::trace::{Trace, TraceKind, TraceRecord};
use crate::trap::TrapInfo;
use memfwd_cache::{AccessKind, Hierarchy};
use memfwd_cpu::{OpClass, Pipeline, SpecQueue, Token};
use memfwd_tagmem::{
    resolve_with_scratch, validate_access, Addr, PageCursor, TaggedMemory, WalkGuard, WORD_BYTES,
};
use std::collections::VecDeque;

/// The timing models and counters a demand reference drives. Kept apart
/// from the memory so the epoch committer can replay into them while
/// speculation workers still share the memory.
pub(crate) struct Timing {
    pub(crate) pipe: Pipeline,
    pub(crate) hier: Hierarchy,
    pub(crate) spec: SpecQueue,
    pub(crate) stats: FwdStats,
    /// Latest resolve cycle of any store: a load on a machine without
    /// dependence speculation may not issue before it.
    pub(crate) last_store_resolve: u64,
    /// Reusable scratch for the chain walk's accurate cycle check, so even
    /// walks that trip the hop limit allocate nothing in steady state.
    pub(crate) walk_scratch: Vec<Addr>,
}

/// The optional observers of demand references. Only the
/// `OBSERVED = true` instance of [`Timing::demand`] consults them.
#[derive(Default)]
pub(crate) struct Observers {
    pub(crate) pages: Option<PageCache>,
    pub(crate) store_buf: VecDeque<u64>,
    pub(crate) trace: Option<Trace>,
    pub(crate) traps_enabled: bool,
    pub(crate) trap_log: Vec<TrapInfo>,
    /// Sliding window of forwarding-hop counts of the most recent demand
    /// references, for the watchdog's walk-storm check.
    pub(crate) walk_hops_window: VecDeque<u64>,
    pub(crate) walk_hops_sum: u64,
}

/// The functional half of a demand reference: where its forwarding chain
/// leads and the data at the end.
pub(crate) trait Chain {
    /// Reads the word at `cur`: the next address of the chain when its
    /// forwarding bit is set, `None` when `cur` holds the data.
    fn follow(&mut self, cur: Addr) -> Option<Addr>;

    /// Perfect forwarding: the final address of `addr`'s chain, as if every
    /// pointer had been updated.
    fn resolve(
        &mut self,
        addr: Addr,
        hop_limit: u32,
        scratch: &mut Vec<Addr>,
    ) -> Result<Addr, MachineFault>;

    /// The data half of the access at `final_addr`: writes a store's value
    /// or returns a load's.
    fn access(&mut self, is_store: bool, final_addr: Addr, size: u64, val: u64) -> u64;
}

/// The machine's chain: the live tagged memory.
pub(crate) struct Live<'a> {
    pub(crate) mem: &'a mut TaggedMemory,
    /// Page-run translation cache: consecutive references to one page pay
    /// a single page-table lookup.
    pub(crate) cursor: &'a mut PageCursor,
    /// The word the last probe read with a clear forwarding bit — the data
    /// at the final address, so a load needs no second page lookup.
    pub(crate) word: u64,
}

impl Chain for Live<'_> {
    #[inline]
    fn follow(&mut self, cur: Addr) -> Option<Addr> {
        let (word, fbit) = self.mem.read_word_tagged_run(cur, self.cursor);
        if fbit {
            Some(Addr(word) + cur.word_offset())
        } else {
            self.word = word;
            None
        }
    }

    fn resolve(
        &mut self,
        addr: Addr,
        hop_limit: u32,
        scratch: &mut Vec<Addr>,
    ) -> Result<Addr, MachineFault> {
        let r = resolve_with_scratch(self.mem, addr, hop_limit, scratch)?;
        self.word = self.mem.read_word_tagged(r.final_addr).0;
        Ok(r.final_addr)
    }

    #[inline]
    fn access(&mut self, is_store: bool, final_addr: Addr, size: u64, val: u64) -> u64 {
        if is_store {
            self.mem.write_data(final_addr, size, val);
            return 0;
        }
        let out = if size == WORD_BYTES {
            self.word
        } else {
            (self.word >> (8 * (final_addr.0 & 7))) & ((1u64 << (8 * size)) - 1)
        };
        debug_assert_eq!(out, self.mem.read_data(final_addr, size));
        out
    }
}

/// Outcome of a timed forwarding-chain walk.
struct Walk {
    /// Where the chain ended.
    final_addr: Addr,
    /// Simulated time after the walk.
    t: u64,
    /// Hops taken (0 = unforwarded).
    hops: u32,
    /// Whether any hop missed L1.
    l1_miss: bool,
}

impl Timing {
    /// Builds the timing models for `cfg`.
    pub(crate) fn new(cfg: &SimConfig) -> Timing {
        Timing {
            pipe: Pipeline::new(cfg.pipeline),
            hier: Hierarchy::new(cfg.hierarchy),
            spec: SpecQueue::new(),
            stats: FwdStats::default(),
            last_store_resolve: 0,
            walk_scratch: Vec::new(),
        }
    }

    /// Walks the forwarding chain from `addr`, whose word forwards to
    /// `next`, with full timing: each hop reads the old word through the
    /// cache (polluting it) and pays the exception-dispatch penalty. On a
    /// genuine cycle or an exceeded [`SimConfig::hard_hop_budget`], returns
    /// the typed fault plus the time already spent walking, so the caller
    /// can retire the dispatched slot honestly. Out of line: most
    /// references are unforwarded and never get here.
    #[inline(never)]
    fn walk<const OBSERVED: bool>(
        &mut self,
        cfg: &SimConfig,
        obs: &mut Observers,
        chain: &mut impl Chain,
        addr: Addr,
        mut next: Addr,
        mut t: u64,
    ) -> Result<Walk, (MachineFault, u64)> {
        let mut guard = WalkGuard::new(cfg.walk_policy(), &mut self.walk_scratch);
        let mut cur = addr;
        let mut l1_miss = false;
        loop {
            if OBSERVED {
                if let Some(p) = obs.pages.as_mut() {
                    t += p.touch(cur);
                }
            }
            let acc = self.hier.access(t, cur.word_base().0, AccessKind::Load);
            l1_miss |= acc.l1_miss();
            t = acc.complete_at + cfg.fwd_hop_penalty;
            match guard.hop(cur, next) {
                // Hop-limit exception: accurate software cycle check.
                Ok(true) => t += cfg.cycle_check_penalty,
                Ok(false) => {}
                Err(fault) => return Err((fault.into(), t)),
            }
            cur = next;
            match chain.follow(cur) {
                Some(n) => next = n,
                None => break,
            }
        }
        Ok(Walk {
            final_addr: cur,
            t,
            hops: guard.hops(),
            l1_miss,
        })
    }

    /// One demand reference: validates, walks the forwarding chain,
    /// performs the access and retires it. Returns the loaded value (0 for
    /// stores) and the completion token. A raised fault is returned as is;
    /// delivery and retry belong to the caller.
    ///
    /// With `OBSERVED = false` every observer hook is compiled out, which
    /// is exact whenever no observer is attached.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn demand<const OBSERVED: bool>(
        &mut self,
        cfg: &SimConfig,
        obs: &mut Observers,
        chain: &mut impl Chain,
        is_store: bool,
        addr: Addr,
        size: u64,
        val: u64,
        dep: Token,
    ) -> Result<(u64, Token), MachineFault> {
        if addr.is_null() {
            return Err(MachineFault::NullDeref { is_store });
        }
        validate_access(addr, size)?;
        let class = if is_store {
            OpClass::Store
        } else {
            OpClass::Load
        };
        let d = self.pipe.dispatch();
        let mut start = d.max(dep.cycle());
        if !cfg.dependence_speculation && !is_store {
            // Conservative machine: a load may not issue until every earlier
            // store's final address is known.
            start = start.max(self.last_store_resolve);
        }

        let unforwarded = |final_addr| Walk {
            final_addr,
            t: start,
            hops: 0,
            l1_miss: false,
        };
        let walk = if cfg.perfect_forwarding {
            chain
                .resolve(addr, cfg.hop_limit, &mut self.walk_scratch)
                .map(unforwarded)
                .map_err(|fault| (fault, start))
        } else if let Some(next) = chain.follow(addr) {
            self.walk::<OBSERVED>(cfg, obs, chain, addr, next, start)
        } else {
            Ok(unforwarded(addr))
        };
        let Walk {
            final_addr,
            t: mut t_walk,
            hops,
            l1_miss: walk_miss,
        } = match walk {
            Ok(w) => w,
            Err((fault, t)) => {
                // Retire the dispatched slot as completing when the walk
                // aborted, so the pipeline stays consistent across a fault.
                self.pipe.complete(class, d, t.max(start) + 1, false);
                return Err(fault);
            }
        };
        // A healthy chain preserves the access offset, so the final address
        // is aligned iff the (already validated) initial address was. A
        // corrupted forwarding word can land anywhere: re-validate so the
        // data access below cannot trip on an unchecked address.
        if final_addr != addr {
            let fault = if final_addr.is_null() {
                Some(MachineFault::NullDeref { is_store })
            } else {
                validate_access(final_addr, size)
                    .err()
                    .map(MachineFault::from)
            };
            if let Some(fault) = fault {
                self.pipe.complete(class, d, t_walk.max(start) + 1, false);
                return Err(fault);
            }
        }
        let fwd_cycles = t_walk - start;

        let mut buffered_store = false;
        if OBSERVED {
            // Watchdog: account this walk in the sliding hop window and
            // raise a typed fault when the window's hop volume explodes — a
            // forwarding livelock signature per-access checks cannot see.
            if let Some(budget) = cfg.watchdog.walk_hop_budget {
                let window = cfg.watchdog.walk_window.max(1);
                obs.walk_hops_window.push_back(u64::from(hops));
                obs.walk_hops_sum += u64::from(hops);
                while obs.walk_hops_window.len() as u64 > window {
                    let oldest = obs.walk_hops_window.pop_front().unwrap_or(0);
                    obs.walk_hops_sum -= oldest;
                }
                if obs.walk_hops_sum > budget {
                    self.pipe.complete(class, d, t_walk.max(start) + 1, false);
                    return Err(MachineFault::WalkStorm {
                        hops: obs.walk_hops_sum,
                        window,
                    });
                }
            }
            if let Some(p) = obs.pages.as_mut() {
                t_walk += p.touch(final_addr);
            }
            // Optional store buffer: a store is admitted as soon as a
            // buffer entry frees up and graduates on admission; the cache
            // access drains in the background.
            if is_store {
                if let Some(cap) = cfg.store_buffer_entries {
                    buffered_store = true;
                    while obs.store_buf.front().is_some_and(|&d| d <= t_walk) {
                        obs.store_buf.pop_front();
                    }
                    if obs.store_buf.len() >= cap {
                        let earliest = obs.store_buf.pop_front().expect("non-empty");
                        t_walk = t_walk.max(earliest);
                    }
                }
            }
        }

        let kind = if is_store {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let acc = self.hier.access(t_walk, final_addr.0, kind);
        // Graduation does not wait for a buffered store's miss.
        let l1_miss = !buffered_store && (walk_miss || acc.l1_miss());
        let mut complete = if buffered_store {
            obs.store_buf.push_back(acc.complete_at);
            t_walk + 1
        } else {
            acc.complete_at
        };

        let out = chain.access(is_store, final_addr, size, val);
        if is_store {
            self.spec.on_store(
                addr.word_base().0,
                final_addr.word_base().0,
                acc.complete_at,
            );
            self.last_store_resolve = self.last_store_resolve.max(acc.complete_at);
        } else if cfg.dependence_speculation {
            if let Some(v) =
                self.spec
                    .check_load(start, addr.word_base().0, final_addr.word_base().0)
            {
                self.stats.misspeculations += 1;
                self.pipe.replay(v.store_resolved_at);
                complete = complete.max(v.store_resolved_at + cfg.pipeline.replay_penalty);
            }
        }

        if OBSERVED {
            if hops > 0 && obs.traps_enabled {
                complete += cfg.trap_penalty;
                self.stats.traps_taken += 1;
                if obs.trap_log.len() < 1 << 20 {
                    obs.trap_log.push(TrapInfo {
                        initial: addr,
                        final_addr,
                        hops,
                        is_store,
                    });
                }
            }
            // Watchdog: a reference stalled past the configured bound
            // raises a typed fault instead of silently absorbing an
            // unbounded latency.
            if let Some(stall) = cfg.watchdog.stall_cycles {
                if complete.saturating_sub(start) > stall {
                    self.pipe.complete(class, d, complete, l1_miss);
                    return Err(MachineFault::NoProgress {
                        at: addr,
                        stalled: complete - start,
                    });
                }
            }
            if let Some(tr) = obs.trace.as_mut() {
                tr.push(TraceRecord {
                    cycle: start,
                    kind: if is_store {
                        TraceKind::Store
                    } else {
                        TraceKind::Load
                    },
                    initial: addr,
                    final_addr,
                    hops,
                    l1_miss,
                    dep_cycle: dep.cycle(),
                    complete_cycle: complete,
                });
            }
        }

        let bucket = (hops as usize).min(HOPS_BUCKETS - 1);
        let s = &mut self.stats;
        if is_store {
            s.stores += 1;
            s.store_cycles += complete - start;
            s.store_fwd_cycles += fwd_cycles;
            s.store_hops[bucket] += 1;
            s.forwarded_stores += u64::from(hops > 0);
        } else {
            s.loads += 1;
            s.load_cycles += complete - start;
            s.load_fwd_cycles += fwd_cycles;
            s.load_hops[bucket] += 1;
            s.forwarded_loads += u64::from(hops > 0);
        }
        self.pipe.complete(class, d, complete, l1_miss);
        Ok((out, Token::at(complete)))
    }
}
