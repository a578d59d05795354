//! Final-address pointer comparison (paper §2.1 / §3.3).
//!
//! With forwarding, two pointers with distinct initial addresses may refer
//! to the same object. The compiler therefore replaces pointer comparisons
//! that could involve relocated objects with explicit code that looks up
//! and compares *final* addresses. These functions are that compiler-
//! generated sequence, with its instruction cost charged to the machine —
//! the software overhead the paper includes in its results.

use crate::machine::Machine;
use memfwd_cpu::Token;
use memfwd_tagmem::{resolve, Addr, WalkGuard, WalkPolicy, DEFAULT_HOP_LIMIT};

/// Computes the final address of `a` in software, via `Read_FBit` and
/// `Unforwarded_Read` instructions (all costed).
///
/// # Panics
///
/// Panics if the forwarding chain is cyclic.
pub fn final_address(m: &mut Machine, a: Addr) -> Addr {
    if a.is_null() {
        return a;
    }
    if m.config().perfect_forwarding {
        // Under the Perf bound every pointer already holds its target's
        // final address, so the comparison needs no chain walk.
        m.compute(1);
        return resolve(m.mem(), a, DEFAULT_HOP_LIMIT)
            .expect("forwarding cycle during pointer comparison")
            .final_addr;
    }
    let mut scratch = Vec::new();
    let mut guard = WalkGuard::new(WalkPolicy::SOFTWARE, &mut scratch);
    let mut cur = a;
    let mut tok = Token::ready();
    loop {
        let (fbit, t1) = m.read_fbit_dep(cur, tok);
        m.compute(1); // branch
        if !fbit {
            return cur;
        }
        let (val, _, t2) = m.unforwarded_read_dep(cur, t1);
        let next = Addr(val) + cur.word_offset();
        guard
            .hop(cur, next)
            .unwrap_or_else(|_| panic!("forwarding cycle during pointer comparison"));
        cur = next;
        tok = t2;
    }
}

/// Compares two pointers by final address — the semantics-preserving
/// replacement for `p == q` on pointers that may reference relocated
/// objects.
pub fn ptr_eq(m: &mut Machine, a: Addr, b: Addr) -> bool {
    m.note_ptr_compare();
    m.compute(1); // raw comparison first: equal initial addresses always
    if a == b {
        // share a final address, so the chain walk is skipped.
        return true;
    }
    let fa = final_address(m, a);
    let fb = final_address(m, b);
    m.compute(1); // the comparison itself
    fa == fb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::reloc::relocate;

    #[test]
    fn distinct_initials_same_final() {
        let mut m = Machine::new(SimConfig::default());
        let old = m.malloc(8);
        let new = m.malloc(8);
        m.store_word(old, 5);
        relocate(&mut m, old, new, 1);
        assert!(ptr_eq(&mut m, old, new), "same object after relocation");
        assert_eq!(final_address(&mut m, old), new);
        let s = m.finish();
        assert_eq!(s.fwd.ptr_compares, 1);
        assert!(s.fwd.fbit_reads >= 2);
    }

    #[test]
    fn different_objects_stay_different() {
        let mut m = Machine::new(SimConfig::default());
        let a = m.malloc(8);
        let b = m.malloc(8);
        assert!(!ptr_eq(&mut m, a, b));
        assert!(ptr_eq(&mut m, a, a));
    }

    #[test]
    fn null_compares() {
        let mut m = Machine::new(SimConfig::default());
        let a = m.malloc(8);
        assert!(!ptr_eq(&mut m, a, Addr::NULL));
        assert!(ptr_eq(&mut m, Addr::NULL, Addr::NULL));
    }

    #[test]
    fn interior_pointers_compare_by_offset() {
        let mut m = Machine::new(SimConfig::default());
        let old = m.malloc(16);
        let new = m.malloc(16);
        relocate(&mut m, old, new, 2);
        assert!(ptr_eq(&mut m, old + 8, new + 8));
        assert!(!ptr_eq(&mut m, old + 8, new));
    }
}
