//! Property-based checks of the tagged memory against reference models.

use memfwd_tagmem::{chain_words, resolve, Addr, Heap, Pool, TaggedMemory, DEFAULT_HOP_LIMIT};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The data plane behaves like a flat byte map, for arbitrary aligned
    /// access-size mixes, independent of forwarding-bit changes.
    #[test]
    fn data_plane_matches_byte_map(
        ops in proptest::collection::vec(
            (0u64..512, prop_oneof![Just(1u64), Just(2), Just(4), Just(8)], any::<u64>(), any::<bool>()),
            1..300,
        )
    ) {
        let mut mem = TaggedMemory::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (slot, size, value, flip_fbit) in ops {
            let addr = Addr(0x4000 + (slot / size * size) * 8 % 4096);
            let addr = Addr(addr.0 / size * size);
            mem.write_data(addr, size, value);
            for b in 0..size {
                model.insert(addr.0 + b, value.to_le_bytes()[b as usize]);
            }
            if flip_fbit {
                mem.set_fbit(addr, slot % 2 == 0);
            }
            // Read back through every containing size.
            let got = mem.read_data(addr, size);
            let mut want = [0u8; 8];
            for b in 0..size {
                want[b as usize] = model.get(&(addr.0 + b)).copied().unwrap_or(0);
            }
            prop_assert_eq!(got, u64::from_le_bytes(want));
        }
    }

    /// Forwarding bits are per-word and survive any data writes.
    #[test]
    fn fbits_are_word_granular(words in proptest::collection::vec((0u64..64, any::<bool>()), 1..200)) {
        let mut mem = TaggedMemory::new();
        let mut model: HashMap<u64, bool> = HashMap::new();
        for (w, set) in words {
            let addr = Addr(0x8000 + w * 8);
            mem.set_fbit(addr + (w % 8), set); // any byte of the word
            model.insert(addr.0, set);
            mem.write_data(addr, 8, w); // data writes never touch fbits
        }
        for (a, want) in model {
            prop_assert_eq!(mem.fbit(Addr(a)), want);
            prop_assert_eq!(mem.fbit(Addr(a + 7)), want);
        }
    }

    /// `resolve` with any hop limit agrees with the default hop limit on
    /// acyclic chains, and both reject cyclic ones.
    #[test]
    fn hop_limit_is_semantics_free(len in 0usize..20, limit in 1u32..16, cyclic in any::<bool>()) {
        let mut mem = TaggedMemory::new();
        let nodes: Vec<u64> = (0..=len as u64).map(|i| 0x1000 + i * 64).collect();
        for w in nodes.windows(2) {
            mem.unforwarded_write(Addr(w[0]), w[1], true);
        }
        if cyclic && len > 0 {
            mem.unforwarded_write(Addr(*nodes.last().unwrap()), nodes[len / 2], true);
        }
        let bounded = resolve(&mem, Addr(nodes[0] + 4), limit);
        let default = resolve(&mem, Addr(nodes[0] + 4), DEFAULT_HOP_LIMIT);
        match (bounded, default) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a, b);
                prop_assert!(!cyclic || len == 0);
            }
            (Err(_), Err(_)) => prop_assert!(cyclic && len > 0),
            (a, b) => prop_assert!(false, "disagreement: {a:?} vs {b:?}"),
        }
    }

    /// `chain_words` lists exactly the words `resolve` walks through.
    #[test]
    fn chain_words_consistent_with_resolve(len in 0usize..16) {
        let mut mem = TaggedMemory::new();
        let nodes: Vec<u64> = (0..=len as u64).map(|i| 0x2000 + i * 32).collect();
        for w in nodes.windows(2) {
            mem.unforwarded_write(Addr(w[0]), w[1], true);
        }
        let words = chain_words(&mem, Addr(nodes[0])).unwrap();
        prop_assert_eq!(words.len(), len + 1);
        let r = resolve(&mem, Addr(nodes[0]), DEFAULT_HOP_LIMIT).unwrap();
        prop_assert_eq!(*words.last().unwrap(), r.final_addr);
        prop_assert_eq!(r.hops as usize, len);
    }

    /// Pools never overlap heap blocks or one another, even with mixed
    /// aligned/unaligned and oversize requests.
    #[test]
    fn pool_chunks_disjoint(
        reqs in proptest::collection::vec((1u64..600, prop_oneof![Just(8u64), Just(64), Just(128)]), 1..60)
    ) {
        let mut heap = Heap::new(Addr(0x1_0000), 1 << 22);
        let mut pool = Pool::new(1024);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for (bytes, align) in reqs {
            let a = pool.alloc_aligned(&mut heap, bytes, align).unwrap();
            prop_assert!(a.is_aligned(align));
            let rounded = bytes.div_ceil(8) * 8;
            for &(b, len) in &spans {
                let disjoint = a.0 + rounded <= b || b + len <= a.0;
                prop_assert!(disjoint, "chunk {a:?}+{rounded} overlaps {b:#x}+{len}");
            }
            spans.push((a.0, rounded));
        }
    }

    /// Heap blocks returned by interleaved alloc/free/alloc never alias a
    /// pool slab.
    #[test]
    fn heap_and_pool_share_arena_safely(seq in proptest::collection::vec(any::<bool>(), 1..80)) {
        let mut heap = Heap::new(Addr(0x1_0000), 1 << 22);
        let mut pool = Pool::new(256);
        let mut blocks: Vec<(u64, u64)> = Vec::new();
        for (i, pool_side) in seq.into_iter().enumerate() {
            let bytes = (i as u64 % 5 + 1) * 16;
            let a = if pool_side {
                pool.alloc(&mut heap, bytes).unwrap()
            } else {
                heap.alloc(bytes).unwrap()
            };
            let rounded = bytes.div_ceil(8) * 8;
            for &(b, len) in &blocks {
                let disjoint = a.0 + rounded <= b || b + len <= a.0;
                prop_assert!(disjoint, "{a:?} overlaps {b:#x}");
            }
            blocks.push((a.0, rounded));
        }
    }
}
