//! Typed machine faults (the recoverable-exception story of paper §3.2).
//!
//! The paper's safety argument is that every stray access to relocated data
//! is either forwarded transparently or raised as a *recoverable* exception
//! that software can repair (hop-limit exceptions with an accurate cycle
//! check, user-level traps that fix stray pointers on the fly). This module
//! gives that story a first-class type: every abnormal condition the
//! simulated machine can encounter is a [`MachineFault`], produced by the
//! fallible `try_*` operations on [`crate::Machine`] (and
//! [`crate::SmpMachine`]), deliverable to a registered supervisor handler
//! (see `Machine::set_fault_handler`), and reportable by the CLI with a distinct exit
//! code.
//!
//! The original infallible API (`load`, `store`, `malloc`, ...) remains and
//! panics with the same messages as before; each such panic first records
//! the typed fault in a thread-local slot so that a harness catching the
//! unwind (e.g. `memfwd_apps::run`) can recover the precise
//! [`MachineFault`] via [`take_last_fault`].
//!
//! # Worked example: repairing a forwarding cycle
//!
//! Mirrors `tests/failure_injection.rs::unforwarded_write_can_repair_a_cycle`,
//! but through the typed API — the supervisor handler receives the fault,
//! repairs the chain with `Unforwarded_Write`, and execution resumes:
//!
//! ```
//! use memfwd::{Machine, MachineFault, SimConfig, TrapOutcome};
//!
//! let mut m = Machine::new(SimConfig::default());
//! let a = m.malloc(8);
//! let b = m.malloc(8);
//! m.unforwarded_write(a, b.0, true);
//! m.unforwarded_write(b, a.0, true); // corrupt: a <-> b
//!
//! // Register a supervisor: make `b` the terminal again, give it the data.
//! m.set_fault_handler(Box::new(move |m, fault| {
//!     assert!(matches!(fault, MachineFault::ForwardingCycle { .. }));
//!     m.unforwarded_write(b, 4242, false);
//!     TrapOutcome::Retry
//! }));
//!
//! // The access faults, the handler repairs, the access retries: no abort.
//! assert_eq!(m.try_load_word(a).unwrap(), 4242);
//! ```

use crate::snapshot::SnapshotError;
use memfwd_tagmem::{Addr, CycleError, TagMemError, WalkFault};
use std::cell::Cell;
use std::error::Error;
use std::fmt;

/// Every abnormal condition the simulated machine can raise, typed.
///
/// Display strings deliberately match the panic messages of the legacy
/// infallible API, so `should_panic(expected = ...)` tests and log scrapers
/// keep working unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MachineFault {
    /// A genuine forwarding cycle: the accurate software check (§3.2)
    /// revisited a chain word. Recoverable by a supervisor that breaks the
    /// cycle with `Unforwarded_Write`.
    ForwardingCycle {
        /// The word whose resolution revisited an earlier chain element.
        at: Addr,
        /// Hops performed before the cycle closed.
        hops: u32,
    },
    /// The simulated heap cannot satisfy an allocation request.
    HeapExhausted {
        /// Size of the failed request in bytes.
        requested: u64,
    },
    /// A relocation pool cannot obtain a new slab from the heap.
    PoolExhausted {
        /// Size of the failed request in bytes.
        requested: u64,
    },
    /// A data access that is not naturally aligned (or of an unsupported
    /// size) — a bug in the simulated program, as on the paper's MIPS
    /// target.
    Misaligned {
        /// The offending address.
        addr: Addr,
        /// The access size in bytes.
        size: u64,
    },
    /// The simulated program dereferenced the null address.
    NullDeref {
        /// Whether the faulting reference was a store.
        is_store: bool,
    },
    /// `free` of an address that is not the base of a live allocation.
    InvalidFree {
        /// The offending address.
        addr: Addr,
    },
    /// A forwarding chain exceeded the configured hard hop budget
    /// ([`crate::SimConfig::hard_hop_budget`]) without terminating. Unlike
    /// [`MachineFault::ForwardingCycle`] the chain may be acyclic — the
    /// machine refuses pathological chains outright (graceful degradation
    /// under corruption).
    HopLimitExceeded {
        /// The last chain word reached before the budget ran out.
        at: Addr,
        /// Hops performed, including the one over budget.
        hops: u32,
    },
    /// A checkpoint snapshot could not be restored: truncated, bit-flipped,
    /// version-skewed, or written under a different configuration. The
    /// snapshot is rejected wholesale — never partially applied.
    CorruptSnapshot {
        /// Why the snapshot was rejected.
        error: SnapshotError,
    },
    /// The progress watchdog observed a demand reference stalled past
    /// [`crate::WatchdogConfig::stall_cycles`] cycles without graduating.
    NoProgress {
        /// The initial address of the stalled reference.
        at: Addr,
        /// Cycles the reference spent from issue to (would-be) completion.
        stalled: u64,
    },
    /// The progress watchdog observed more forwarding-walk hops within its
    /// sliding window than [`crate::WatchdogConfig::walk_hop_budget`]
    /// allows — the signature of a forwarding livelock.
    WalkStorm {
        /// Total hops walked within the window.
        hops: u64,
        /// Window length in demand references.
        window: u64,
    },
}

impl fmt::Display for MachineFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MachineFault::ForwardingCycle { at, hops } => {
                write!(
                    f,
                    "forwarding cycle at {at} after {hops} hops: execution aborted"
                )
            }
            MachineFault::HeapExhausted { requested } => {
                write!(f, "simulated heap exhausted by {requested}-byte request")
            }
            MachineFault::PoolExhausted { requested } => {
                write!(
                    f,
                    "simulated heap exhausted by {requested}-byte relocation-pool request"
                )
            }
            MachineFault::Misaligned { addr, size } => {
                if matches!(size, 1 | 2 | 4 | 8) {
                    write!(f, "misaligned {size}-byte access at {addr}")
                } else {
                    write!(f, "unsupported access size {size} at {addr}")
                }
            }
            MachineFault::NullDeref { is_store: _ } => {
                write!(f, "null dereference in simulated program")
            }
            MachineFault::InvalidFree { addr } => {
                write!(f, "free of non-allocated address {addr}")
            }
            MachineFault::HopLimitExceeded { at, hops } => {
                write!(
                    f,
                    "forwarding hop budget exceeded at {at} after {hops} hops"
                )
            }
            MachineFault::CorruptSnapshot { error } => {
                write!(f, "corrupt snapshot rejected: {error}")
            }
            MachineFault::NoProgress { at, stalled } => {
                write!(
                    f,
                    "watchdog: no progress at {at} after {stalled} stalled cycles"
                )
            }
            MachineFault::WalkStorm { hops, window } => {
                write!(
                    f,
                    "watchdog: forwarding walk storm ({hops} hops within {window} references)"
                )
            }
        }
    }
}

impl Error for MachineFault {}

impl From<CycleError> for MachineFault {
    fn from(c: CycleError) -> Self {
        MachineFault::ForwardingCycle {
            at: c.at,
            hops: c.hops,
        }
    }
}

impl From<WalkFault> for MachineFault {
    fn from(f: WalkFault) -> Self {
        match f {
            WalkFault::Cycle(c) => c.into(),
            WalkFault::OverBudget { at, hops } => MachineFault::HopLimitExceeded { at, hops },
        }
    }
}

impl From<TagMemError> for MachineFault {
    fn from(e: TagMemError) -> Self {
        match e {
            TagMemError::Cycle(c) => c.into(),
            TagMemError::OutOfMemory { requested } => MachineFault::HeapExhausted { requested },
            TagMemError::InvalidFree { addr } => MachineFault::InvalidFree { addr },
            TagMemError::Misaligned { addr, size } => MachineFault::Misaligned { addr, size },
            _ => MachineFault::HeapExhausted { requested: 0 },
        }
    }
}

impl MachineFault {
    /// A short stable name for the fault kind (used by the CLI report).
    pub fn kind(&self) -> &'static str {
        match self {
            MachineFault::ForwardingCycle { .. } => "forwarding-cycle",
            MachineFault::HeapExhausted { .. } => "heap-exhausted",
            MachineFault::PoolExhausted { .. } => "pool-exhausted",
            MachineFault::Misaligned { .. } => "misaligned",
            MachineFault::NullDeref { .. } => "null-deref",
            MachineFault::InvalidFree { .. } => "invalid-free",
            MachineFault::HopLimitExceeded { .. } => "hop-limit-exceeded",
            MachineFault::CorruptSnapshot { .. } => "corrupt-snapshot",
            MachineFault::NoProgress { .. } => "no-progress",
            MachineFault::WalkStorm { .. } => "walk-storm",
        }
    }

    /// A distinct, stable process exit code per fault kind (the `memfwd_sim`
    /// CLI exits with this when a run faults). Codes start at 10 to stay
    /// clear of conventional codes 0–2.
    pub fn exit_code(&self) -> i32 {
        match self {
            MachineFault::ForwardingCycle { .. } => 10,
            MachineFault::HeapExhausted { .. } => 11,
            MachineFault::PoolExhausted { .. } => 12,
            MachineFault::Misaligned { .. } => 13,
            MachineFault::NullDeref { .. } => 14,
            MachineFault::InvalidFree { .. } => 15,
            MachineFault::HopLimitExceeded { .. } => 16,
            MachineFault::CorruptSnapshot { .. } => 17,
            MachineFault::NoProgress { .. } => 18,
            MachineFault::WalkStorm { .. } => 19,
        }
    }
}

impl From<SnapshotError> for MachineFault {
    fn from(error: SnapshotError) -> Self {
        MachineFault::CorruptSnapshot { error }
    }
}

thread_local! {
    static LAST_FAULT: Cell<Option<MachineFault>> = const { Cell::new(None) };
}

/// Records `fault` in the thread-local last-fault slot. Called by the
/// infallible API wrappers immediately before they panic, so a harness that
/// catches the unwind can recover the typed fault with [`take_last_fault`].
pub fn record_last_fault(fault: MachineFault) {
    LAST_FAULT.with(|c| c.set(Some(fault)));
}

/// Takes (and clears) the most recently recorded fault on this thread.
///
/// Returns `None` if no machine fault has been recorded since the last
/// take — in particular, a caught panic with no recorded fault did *not*
/// originate from the machine's fault paths and should be re-raised.
pub fn take_last_fault() -> Option<MachineFault> {
    LAST_FAULT.with(|c| c.take())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_panic_messages() {
        assert_eq!(
            MachineFault::ForwardingCycle {
                at: Addr(0x100),
                hops: 3
            }
            .to_string(),
            "forwarding cycle at 0x100 after 3 hops: execution aborted"
        );
        assert_eq!(
            MachineFault::HeapExhausted { requested: 64 }.to_string(),
            "simulated heap exhausted by 64-byte request"
        );
        assert!(MachineFault::PoolExhausted { requested: 8 }
            .to_string()
            .contains("simulated heap exhausted"));
        assert_eq!(
            MachineFault::Misaligned {
                addr: Addr(0x1001),
                size: 4
            }
            .to_string(),
            "misaligned 4-byte access at 0x1001"
        );
        assert_eq!(
            MachineFault::Misaligned {
                addr: Addr(0x1000),
                size: 3
            }
            .to_string(),
            "unsupported access size 3 at 0x1000"
        );
        assert_eq!(
            MachineFault::NullDeref { is_store: false }.to_string(),
            "null dereference in simulated program"
        );
        assert_eq!(
            MachineFault::InvalidFree { addr: Addr(8) }.to_string(),
            "free of non-allocated address 0x8"
        );
        assert!(MachineFault::HopLimitExceeded {
            at: Addr(1),
            hops: 9
        }
        .to_string()
        .contains("hop budget"));
    }

    #[test]
    fn conversions() {
        let c = CycleError {
            at: Addr(0x10),
            hops: 2,
        };
        assert_eq!(
            MachineFault::from(c),
            MachineFault::ForwardingCycle {
                at: Addr(0x10),
                hops: 2
            }
        );
        assert_eq!(
            MachineFault::from(TagMemError::OutOfMemory { requested: 9 }),
            MachineFault::HeapExhausted { requested: 9 }
        );
        assert_eq!(
            MachineFault::from(TagMemError::InvalidFree { addr: Addr(4) }),
            MachineFault::InvalidFree { addr: Addr(4) }
        );
    }

    #[test]
    fn exit_codes_are_distinct() {
        let faults = [
            MachineFault::ForwardingCycle {
                at: Addr(0),
                hops: 0,
            },
            MachineFault::HeapExhausted { requested: 0 },
            MachineFault::PoolExhausted { requested: 0 },
            MachineFault::Misaligned {
                addr: Addr(0),
                size: 0,
            },
            MachineFault::NullDeref { is_store: false },
            MachineFault::InvalidFree { addr: Addr(0) },
            MachineFault::HopLimitExceeded {
                at: Addr(0),
                hops: 0,
            },
            MachineFault::CorruptSnapshot {
                error: SnapshotError::Truncated,
            },
            MachineFault::NoProgress {
                at: Addr(0),
                stalled: 0,
            },
            MachineFault::WalkStorm { hops: 0, window: 0 },
        ];
        let mut codes: Vec<i32> = faults.iter().map(|f| f.exit_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), faults.len());
        for f in &faults {
            assert!(!f.kind().is_empty());
        }
    }

    #[test]
    fn last_fault_slot_records_and_clears() {
        assert_eq!(take_last_fault(), None);
        record_last_fault(MachineFault::NullDeref { is_store: true });
        assert_eq!(
            take_last_fault(),
            Some(MachineFault::NullDeref { is_store: true })
        );
        assert_eq!(take_last_fault(), None, "taking clears the slot");
    }
}
