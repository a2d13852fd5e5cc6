//! Deterministic hot-path hashing for per-access maps.
//!
//! Every per-access data structure in the simulation stack — the
//! software cache's line map, the lazy policy's dirty set, the Mattson
//! oracle's last-access map, reuse-interval extraction — keys on small
//! `u64` cache-line ids, yet `std`'s default SipHash is built to resist
//! adversarial collisions the simulator never faces. This module
//! provides an Fx-style hasher (the rustc strategy: rotate, xor, then
//! multiply by a 64-bit odd constant) that hashes a `u64` in a couple
//! of arithmetic ops.
//!
//! Two properties matter here beyond speed:
//!
//! * **Determinism** — the hash of a key is a pure function of its
//!   bytes, with no per-process randomness, so any iteration-order
//!   dependent result is reproducible run-to-run (the default hasher's
//!   random keys would make such a bug flaky instead of visible).
//! * **Statistics-neutrality** — callers must not let map iteration
//!   order reach simulated statistics; the swap from SipHash is then
//!   observable only as wall-clock speed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from FxHash (`0x51_7c_c1_b7_27_22_0a_95`): a 64-bit odd
/// constant chosen so multiplication diffuses low-entropy integer keys
/// across the high bits `HashMap` uses for bucket selection.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// Fx-style streaming hasher: `state = (state.rol(5) ^ word) * SEED`
/// per 8-byte word (narrower writes widen first).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (stateless, zero-sized).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// An empty [`FxHashMap`] with room for `cap` entries.
pub fn fx_map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        for k in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            assert_eq!(hash_of(k), hash_of(k));
        }
        // a pinned value: the hash is a pure function of the key, so a
        // change to the mixing constants is a visible, reviewed event
        assert_eq!(hash_of(1u64), SEED);
    }

    #[test]
    fn narrow_writes_widen() {
        // The same numeric value hashes identically at every width —
        // each write_* mixes one 64-bit word.
        assert_eq!(hash_of(7u8), {
            let mut h = FxHasher::default();
            h.write_u64(7);
            h.finish()
        });
    }

    #[test]
    fn byte_slices_chunk_into_words() {
        let mut a = FxHasher::default();
        a.write(&42u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
        // trailing partial word is zero-padded, not dropped
        let mut c = FxHasher::default();
        c.write(&[1, 2, 3]);
        let mut d = FxHasher::default();
        d.write(&[1, 2, 3, 0, 0]);
        assert_ne!(c.finish(), FxHasher::default().finish());
        // same padded word → same hash only when the padded words agree
        let mut e = FxHasher::default();
        e.write(&[1, 2, 3, 0, 0, 0, 0, 0]);
        assert_eq!(c.finish(), e.finish());
        let _ = d;
    }

    #[test]
    fn low_bit_keys_spread_over_buckets() {
        // Sequential line ids (the common case) must not collide in the
        // high bits hashbrown uses for its control bytes.
        let hashes: Vec<u64> = (0u64..1024).map(hash_of).collect();
        let mut top7: Vec<u8> = hashes.iter().map(|h| (h >> 57) as u8).collect();
        top7.sort_unstable();
        top7.dedup();
        assert!(top7.len() > 100, "only {} distinct top-bytes", top7.len());
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m = fx_map_with_capacity::<u64, u32>(16);
        assert!(m.capacity() >= 16);
        for i in 0..100u64 {
            m.insert(i, (i * 2) as u32);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m[&7], 14);
    }
}
