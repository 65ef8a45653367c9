//! A fast multiply-rotate hasher (the `FxHash` construction used by rustc)
//! and 128-bit fingerprints built from two independent passes.
//!
//! Constraint systems on stencil kernels run to tens of kilobytes and get
//! hashed on every engine query ([`crate::cache`]) and every projection
//! round ([`crate::fm`]'s structural dedup) — SipHash there costs more than
//! the work it guards. Fx quality is weaker per 64-bit pass, which is why
//! [`fingerprint`] combines two passes with different seeds and multipliers
//! into a 128-bit value: at ~10⁶ distinct keys the collision probability is
//! ~2⁻⁸⁸.

use std::hash::{Hash, Hasher};

/// One 64-bit multiply-rotate hash pass with a fixed seed and multiplier
/// (deterministic within and across runs of the same binary).
pub struct FxHasher64 {
    state: u64,
    mult: u64,
}

impl FxHasher64 {
    /// Creates a pass with the given seed and (odd) multiplier.
    pub fn with_seed(seed: u64, mult: u64) -> Self {
        FxHasher64 { state: seed, mult }
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(self.mult);
    }
}

impl Default for FxHasher64 {
    /// The first [`Fingerprint`] pass's seed and multiplier.
    fn default() -> Self {
        FxHasher64::with_seed(0x243F_6A88_85A3_08D3, 0x9E37_79B9_7F4A_7C15)
    }
}

/// `BuildHasher` for a default-seeded [`FxHasher64`]: cheap hashing for maps
/// keyed by small integers (the tightness walker's packed cell keys).
pub type BuildFx = std::hash::BuildHasherDefault<FxHasher64>;

impl Hasher for FxHasher64 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(buf) ^ (rem.len() as u64));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.mix(i as u64);
        self.mix((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }

    fn finish(&self) -> u64 {
        // A final avalanche so low-entropy tails still spread over all bits.
        let mut x = self.state;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x
    }
}

/// A 128-bit fingerprint builder: two independent [`FxHasher64`] passes fed
/// the same values.
pub struct Fingerprint {
    a: FxHasher64,
    b: FxHasher64,
}

impl Fingerprint {
    /// Starts a fingerprint, mixing in a caller-chosen domain tag so that
    /// different key kinds can never alias.
    pub fn new(tag: u64) -> Self {
        let mut a = FxHasher64::with_seed(0x243F_6A88_85A3_08D3, 0x9E37_79B9_7F4A_7C15);
        let mut b = FxHasher64::with_seed(0x1319_8A2E_0370_7344, 0xC2B2_AE3D_27D4_EB4F);
        a.write_u64(tag);
        b.write_u64(tag);
        Fingerprint { a, b }
    }

    /// Mixes a value into both passes.
    pub fn add(&mut self, value: &impl Hash) {
        value.hash(&mut self.a);
        value.hash(&mut self.b);
    }

    /// The combined 128-bit fingerprint.
    pub fn finish(self) -> u128 {
        ((self.a.finish() as u128) << 64) | self.b.finish() as u128
    }
}

/// Fingerprints a single hashable value (no domain tag).
pub fn fingerprint(value: &impl Hash) -> u128 {
    let mut fp = Fingerprint::new(0);
    fp.add(value);
    fp.finish()
}

/// Renders a 128-bit fingerprint as 32 lowercase hex digits — the canonical
/// wire and on-disk spelling (content-addressed cache keys, entry file
/// names).
pub fn to_hex(fp: u128) -> String {
    format!("{fp:032x}")
}

/// Parses the canonical 32-digit hex spelling back to a fingerprint.
/// Anything else (wrong length, uppercase, stray characters) is rejected,
/// so foreign files can never alias a cache key.
pub fn from_hex(s: &str) -> Option<u128> {
    if s.len() != 32
        || !s
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

/// A pass-through hasher for maps and sets whose keys are already
/// [`fingerprint`]s: the key's low 64 bits are uniform, so re-hashing them
/// with SipHash (the `HashMap` default) is pure overhead.
#[derive(Default)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    #[inline]
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher is only for u128 fingerprint keys");
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.0 = i as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for [`IdentityHasher`].
pub type BuildIdentity = std::hash::BuildHasherDefault<IdentityHasher>;

/// A hash set of 128-bit fingerprints with pass-through hashing.
pub type FingerprintSet = std::collections::HashSet<u128, BuildIdentity>;

/// A hash map keyed by 128-bit fingerprints with pass-through hashing.
pub type FingerprintMap<V> = std::collections::HashMap<u128, V, BuildIdentity>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinct() {
        assert_eq!(fingerprint(&42u64), fingerprint(&42u64));
        assert_ne!(fingerprint(&42u64), fingerprint(&43u64));
        assert_ne!(fingerprint(&[1u8, 2]), fingerprint(&[2u8, 1]));
    }

    #[test]
    fn tags_separate_domains() {
        let mut a = Fingerprint::new(1);
        a.add(&7u64);
        let mut b = Fingerprint::new(2);
        b.add(&7u64);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn short_writes_depend_on_length() {
        assert_ne!(fingerprint(&[0u8; 3]), fingerprint(&[0u8; 4]));
    }

    #[test]
    fn hex_spelling_is_canonical() {
        let fp = 0xdead_beef_u128;
        let hex = to_hex(fp);
        assert_eq!(hex.len(), 32);
        assert_eq!(from_hex(&hex), Some(fp));
        assert_eq!(from_hex(&hex.to_uppercase()), None, "uppercase rejected");
        assert_eq!(from_hex(&hex[1..]), None, "short strings rejected");
        assert_eq!(from_hex(&format!("{hex}0")), None, "long strings rejected");
    }
}
