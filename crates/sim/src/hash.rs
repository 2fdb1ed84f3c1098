//! The workspace's map hasher for detector-index keys.

use std::hash::Hasher;

/// A deterministic multiply/rotate hasher (rustc's Fx hash) that takes
/// its input a 32-bit word at a time.
///
/// The maps it keys — the DEM's footprint tables and the lookup-table
/// decoder's syndromes — hold short lists of small detector indices
/// built offline, so SipHash's flooding resistance costs most of a
/// lookup and buys nothing: a circuit crafted to collide its keys could
/// already make the DEM's greedy split exponential. A `[u32]` key
/// reaches [`Hasher::write`] as one byte slice of its words, after its
/// length, and hashes in one step per word. No per-process keys, so
/// map layouts repeat from run to run.
#[derive(Debug, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(4);
        for w in &mut words {
            self.add(u64::from(u32::from_ne_bytes([w[0], w[1], w[2], w[3]])));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The multiply carries mixing upward; the rotation brings the
    /// mixed high bits down to the bucket index.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}
