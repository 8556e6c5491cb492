//! Word-folding FNV-1a: the content hash behind
//! [`CsrMatrix::content_hash`](crate::CsrMatrix::content_hash) and the
//! service's fingerprints.
//!
//! One multiply per 64-bit word (an `f64` as its bits, a `usize` widened),
//! not per byte, so hashing a matrix is a single streaming pass. Not
//! cryptographic, and 64 bits can collide: fine for a performance cache
//! over a handful of resident operators, not for deciding that two objects
//! are the same — the proc backend names matrices by
//! [`CsrMatrix::instance_id`](crate::CsrMatrix::instance_id) for that.

/// A running FNV-1a hash over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(Self::OFFSET)
    }
}

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The empty hash.
    pub fn new() -> Self {
        Fnv::default()
    }

    /// The hash of everything folded in so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// Folds in one word.
    pub fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Folds in a `usize`, widened.
    pub fn usize(&mut self, v: usize) {
        self.word(v as u64);
    }

    /// Folds in a length, then the elements.
    pub fn usizes(&mut self, vs: &[usize]) {
        self.usize(vs.len());
        vs.iter().for_each(|&v| self.usize(v));
    }

    /// Folds in a length, then the elements' bit patterns.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        vs.iter().for_each(|&v| self.word(v.to_bits()));
    }

    /// Folds in a length, then the bytes eight at a time, then the
    /// zero-padded tail.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        let (words, tail) = bytes.split_at(bytes.len() / 8 * 8);
        for w in words.chunks_exact(8) {
            self.word(u64::from_le_bytes(w.try_into().expect("chunks of 8")));
        }
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        self.word(u64::from_le_bytes(last));
    }
}
