//! Forwarding-chain walks, and the one policy every walk obeys.
//!
//! When a memory word is accessed, its forwarding bit is tested; if set, the
//! word's contents replace the access address (plus the byte offset within
//! the word) and the access is relaunched, until a clear forwarding bit is
//! found (paper §3.2). A hop counter raises an exception once a walk passes
//! a hop limit, and an accurate software cycle check then takes over.
//!
//! [`WalkGuard`] is that rule, written once: every forwarding walk of the
//! simulator reads and charges for its own chain words and hands each hop to
//! a guard. The guard is allocation-free until the check engages; it then
//! records visited words in a caller-held scratch `Vec` (chains that pass
//! the check are short, so a linear `contains` beats hashing).

use crate::error::CycleError;
use crate::memory::TaggedMemory;
use crate::word::Addr;

/// Default hardware hop-limit: how many forwarding hops an access may take
/// before the hop counter raises an exception and the accurate software
/// cycle check engages (paper §3.2). Used by [`WalkPolicy::SOFTWARE`] and
/// the core simulator's `SimConfig::hop_limit` default. The limit never
/// changes the *result* of a walk — only when the cycle check switches on —
/// so any value is functionally equivalent.
pub const DEFAULT_HOP_LIMIT: u32 = 8;

/// When a forwarding walk's cycle check engages, and whether the walk has a
/// hard cap on its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkPolicy {
    /// Hops a walk may take before the accurate cycle check engages.
    pub hop_limit: u32,
    /// Hops after which the walk faults, cycle or not (`None`: unbounded).
    pub hard_budget: Option<u32>,
}

impl WalkPolicy {
    /// A software walk (an `Unforwarded_Read` loop): the default hop limit
    /// and no hard budget, so only a genuine cycle stops it.
    pub const SOFTWARE: WalkPolicy = WalkPolicy {
        hop_limit: DEFAULT_HOP_LIMIT,
        hard_budget: None,
    };
}

/// Why a [`WalkGuard`] stopped a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkFault {
    /// The accurate check found the chain revisiting a word.
    Cycle(CycleError),
    /// The walk took more hops than [`WalkPolicy::hard_budget`].
    OverBudget {
        /// The word whose forwarding address was one hop too many.
        at: Addr,
        /// Hops taken, including the one over budget.
        hops: u32,
    },
}

/// Enforces a [`WalkPolicy`] over one walk, hop by hop.
#[derive(Debug)]
pub struct WalkGuard<'s> {
    policy: WalkPolicy,
    hops: u32,
    checking: bool,
    scratch: &'s mut Vec<Addr>,
}

impl<'s> WalkGuard<'s> {
    /// A guard for one walk. `scratch` is only cleared and written once the
    /// cycle check engages, so its contents between walks are meaningless.
    #[inline]
    pub fn new(policy: WalkPolicy, scratch: &'s mut Vec<Addr>) -> WalkGuard<'s> {
        WalkGuard {
            policy,
            hops: 0,
            checking: false,
            scratch,
        }
    }

    /// Judges the hop from the word at `cur` to the word at `next` (byte
    /// offsets are ignored). Returns `Ok(true)` on the hop whose hop-limit
    /// exception engages the accurate cycle check, where a hardware walk
    /// charges the check's cost, and `Ok(false)` on every other hop.
    ///
    /// # Errors
    ///
    /// [`WalkFault::OverBudget`] at `cur` once the walk exceeds the hard
    /// budget (checked first), and [`WalkFault::Cycle`] at `next` once the
    /// engaged check sees `next` revisited.
    #[inline]
    pub fn hop(&mut self, cur: Addr, next: Addr) -> Result<bool, WalkFault> {
        self.hops += 1;
        if self.policy.hard_budget.is_some_and(|b| self.hops > b) {
            return Err(WalkFault::OverBudget {
                at: cur.word_base(),
                hops: self.hops,
            });
        }
        let next = next.word_base();
        if self.checking {
            if self.scratch.contains(&next) {
                return Err(WalkFault::Cycle(CycleError {
                    at: next,
                    hops: self.hops,
                }));
            }
            self.scratch.push(next);
        } else if self.hops > self.policy.hop_limit {
            // No re-walk is needed: from here on every visited word is
            // remembered, and a cycle must revisit one of them.
            self.scratch.clear();
            self.scratch.extend([cur.word_base(), next]);
            self.checking = true;
            return Ok(true);
        }
        Ok(false)
    }

    /// Hops judged so far.
    #[inline]
    pub fn hops(&self) -> u32 {
        self.hops
    }
}

/// Outcome of resolving an initial address to its final address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// The final address: where the data actually lives.
    pub final_addr: Addr,
    /// Number of forwarding hops performed (0 for a non-forwarded access).
    pub hops: u32,
}

impl Resolution {
    /// True if the access was forwarded at least once.
    pub fn forwarded(&self) -> bool {
        self.hops > 0
    }
}

/// Resolves `addr` through any forwarding chain to its final address.
///
/// `hop_limit` models the hardware hop counter: when the number of hops
/// exceeds the limit, an exception is raised and an accurate cycle check is
/// performed in software. A false alarm (a genuinely long chain) resumes
/// the walk; a real cycle aborts with [`CycleError`].
///
/// # Errors
///
/// Returns [`CycleError`] if the chain revisits a word it already traversed.
///
/// # Example
///
/// ```
/// use memfwd_tagmem::{Addr, TaggedMemory, resolve};
/// let mut mem = TaggedMemory::new();
/// mem.unforwarded_write(Addr(0x10), 0x20, true);
/// mem.unforwarded_write(Addr(0x20), 0x30, true);
/// let r = resolve(&mem, Addr(0x14), 64)?;
/// assert_eq!(r.final_addr, Addr(0x34));
/// assert_eq!(r.hops, 2);
/// # Ok::<(), memfwd_tagmem::CycleError>(())
/// ```
pub fn resolve(mem: &TaggedMemory, addr: Addr, hop_limit: u32) -> Result<Resolution, CycleError> {
    let mut scratch = Vec::new();
    resolve_with_scratch(mem, addr, hop_limit, &mut scratch)
}

/// [`resolve`] with a caller-held scratch buffer for the cycle check, so hot
/// loops resolving many addresses perform no heap allocation at all.
///
/// # Errors
///
/// Returns [`CycleError`] if the chain revisits a word it already traversed.
pub fn resolve_with_scratch(
    mem: &TaggedMemory,
    addr: Addr,
    hop_limit: u32,
    scratch: &mut Vec<Addr>,
) -> Result<Resolution, CycleError> {
    let (word, hops) = walk_words(mem, addr, hop_limit, scratch, |_| {})?;
    Ok(Resolution {
        final_addr: word + addr.word_offset(),
        hops,
    })
}

/// Returns every word address on the forwarding chain starting at (and
/// including) the word containing `addr`, ending at the terminal word.
///
/// Used by the memory-deallocation wrapper (paper §3.3): when an object is
/// deallocated, all memory reachable via its forwarding chain must be
/// deallocated as well.
///
/// # Errors
///
/// Returns [`CycleError`] on a genuine forwarding cycle.
pub fn chain_words(mem: &TaggedMemory, addr: Addr) -> Result<Vec<Addr>, CycleError> {
    let mut out = vec![addr.word_base()];
    walk_words(mem, addr, DEFAULT_HOP_LIMIT, &mut Vec::new(), |w| {
        out.push(w)
    })?;
    Ok(out)
}

/// The untimed, budget-free walk from `addr`'s word, passing each word it
/// hops to to `visit`. Returns the terminal word and the hop count.
fn walk_words(
    mem: &TaggedMemory,
    addr: Addr,
    hop_limit: u32,
    scratch: &mut Vec<Addr>,
    mut visit: impl FnMut(Addr),
) -> Result<(Addr, u32), CycleError> {
    let policy = WalkPolicy {
        hop_limit,
        hard_budget: None,
    };
    let mut guard = WalkGuard::new(policy, scratch);
    let mut word = addr.word_base();
    loop {
        let (fwd, fbit) = mem.read_word_tagged(word);
        if !fbit {
            return Ok((word, guard.hops()));
        }
        let next = Addr(fwd).word_base();
        if let Err(WalkFault::Cycle(c)) = guard.hop(word, next) {
            return Err(c);
        }
        visit(next);
        word = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(mem: &mut TaggedMemory, hops: &[u64]) {
        // hops = [a, b, c] builds a -> b -> c (c terminal).
        for w in hops.windows(2) {
            mem.unforwarded_write(Addr(w[0]), w[1], true);
        }
    }

    #[test]
    fn non_forwarded_is_identity() {
        let mem = TaggedMemory::new();
        let r = resolve(&mem, Addr(0x1004), 8).unwrap();
        assert_eq!(r.final_addr, Addr(0x1004));
        assert_eq!(r.hops, 0);
        assert!(!r.forwarded());
    }

    #[test]
    fn single_hop_preserves_offset() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x800, 0x5800]);
        let r = resolve(&mem, Addr(0x804), 8).unwrap();
        assert_eq!(r.final_addr, Addr(0x5804));
        assert_eq!(r.hops, 1);
        assert!(r.forwarded());
    }

    #[test]
    fn multi_hop_chain() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x100, 0x200, 0x300, 0x400]);
        let r = resolve(&mem, Addr(0x101), 8).unwrap();
        assert_eq!(r.final_addr, Addr(0x401));
        assert_eq!(r.hops, 3);
    }

    #[test]
    fn long_chain_past_hop_limit_is_false_alarm() {
        let mut mem = TaggedMemory::new();
        let nodes: Vec<u64> = (0..50).map(|i| 0x1000 + i * 8).collect();
        chain(&mut mem, &nodes);
        // Limit of 4 forces the accurate check, which finds no cycle.
        let r = resolve(&mem, Addr(0x1000), 4).unwrap();
        assert_eq!(r.final_addr, Addr(0x1000 + 49 * 8));
        assert_eq!(r.hops, 49);
    }

    #[test]
    fn two_node_cycle_detected() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x100, 0x200, 0x100]);
        let err = resolve(&mem, Addr(0x100), 8).unwrap_err();
        assert!(err.hops >= 2);
    }

    #[test]
    fn self_cycle_detected() {
        let mut mem = TaggedMemory::new();
        mem.unforwarded_write(Addr(0x100), 0x100, true);
        assert!(resolve(&mem, Addr(0x104), 16).is_err());
        assert!(resolve(&mem, Addr(0x104), DEFAULT_HOP_LIMIT).is_err());
    }

    #[test]
    fn cycle_not_at_head_detected() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x100, 0x200, 0x300, 0x200]);
        assert!(resolve(&mem, Addr(0x100), 2).is_err());
    }

    #[test]
    fn scratch_reuse_across_resolutions() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x100, 0x200, 0x300, 0x400]);
        chain(&mut mem, &[0x900, 0xA00]);
        let mut scratch = Vec::new();
        // Force the accurate check on the first walk so scratch is dirty.
        let r = resolve_with_scratch(&mem, Addr(0x100), 1, &mut scratch).unwrap();
        assert_eq!(r.final_addr, Addr(0x400));
        assert!(!scratch.is_empty());
        // Second walk must not be confused by leftovers.
        let r = resolve_with_scratch(&mem, Addr(0x900), 1, &mut scratch).unwrap();
        assert_eq!(r.final_addr, Addr(0xA00));
        assert_eq!(r.hops, 1);
    }

    #[test]
    fn scratch_untouched_within_hop_limit() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x100, 0x200, 0x300]);
        let mut scratch = Vec::new();
        let r = resolve_with_scratch(&mem, Addr(0x100), 8, &mut scratch).unwrap();
        assert_eq!(r.hops, 2);
        assert!(scratch.is_empty(), "accurate check never engaged");
    }

    #[test]
    fn chain_words_lists_whole_chain() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x100, 0x200, 0x300]);
        let words = chain_words(&mem, Addr(0x104)).unwrap();
        assert_eq!(words, vec![Addr(0x100), Addr(0x200), Addr(0x300)]);
    }

    #[test]
    fn chain_words_cycle() {
        let mut mem = TaggedMemory::new();
        chain(&mut mem, &[0x100, 0x200, 0x100]);
        assert!(chain_words(&mem, Addr(0x100)).is_err());
    }

    #[test]
    fn chain_words_long_chain_no_false_cycle() {
        let mut mem = TaggedMemory::new();
        let nodes: Vec<u64> = (0..40).map(|i| 0x2000 + i * 8).collect();
        chain(&mut mem, &nodes);
        let words = chain_words(&mem, Addr(0x2000)).unwrap();
        assert_eq!(words.len(), 40);
    }

    #[test]
    fn guard_engages_the_check_once_past_the_hop_limit() {
        let mut scratch = vec![Addr(0xdead)];
        let policy = WalkPolicy {
            hop_limit: 2,
            hard_budget: None,
        };
        let mut guard = WalkGuard::new(policy, &mut scratch);
        let engaged: Vec<bool> = (0..5u64)
            .map(|i| guard.hop(Addr(0x100 + i * 8), Addr(0x108 + i * 8)).unwrap())
            .collect();
        assert_eq!(engaged, [false, false, true, false, false]);
        assert_eq!(guard.hops(), 5);
        assert!(!scratch.contains(&Addr(0xdead)), "stale scratch cleared");
    }

    #[test]
    fn guard_budget_fault_comes_before_the_cycle_check() {
        // A self-cycle: hop 1 engages the check; hop 2 both closes the cycle
        // and exceeds the budget, and the budget fault wins.
        let policy = WalkPolicy {
            hop_limit: 0,
            hard_budget: Some(1),
        };
        let mut scratch = Vec::new();
        let mut guard = WalkGuard::new(policy, &mut scratch);
        assert_eq!(guard.hop(Addr(0x304), Addr(0x300)), Ok(true));
        let over = WalkFault::OverBudget {
            at: Addr(0x300),
            hops: 2,
        };
        assert_eq!(guard.hop(Addr(0x304), Addr(0x300)), Err(over));
    }

    #[test]
    fn forwarding_address_mid_word_offsets() {
        // A 4-byte access at offset 4 of a forwarded word lands at
        // final word + 4 (paper Fig. 1: load of 0804 returns value at 5804).
        let mut mem = TaggedMemory::new();
        mem.unforwarded_write(Addr(0x800), 0x5800, true);
        mem.write_data(Addr(0x5804), 4, 47);
        let r = resolve(&mem, Addr(0x804), 8).unwrap();
        assert_eq!(mem.read_data(r.final_addr, 4), 47);
    }
}
