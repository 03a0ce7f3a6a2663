//! Durable checkpoint images with in-tree integrity verification.
//!
//! A backup operation serializes the volatile [`ArchState`] into a word
//! vector and seals it with a CRC-32 written *after* the payload — the
//! same commit-record discipline real intermittent-computing runtimes
//! (Mementos, Hibernus, Freezer) use so that a torn write is detectable:
//! if power fails mid-backup the payload prefix is new but the CRC still
//! describes the old image (or nothing), and verification fails on the
//! next restore. Retention bit-flips during off-time likewise break the
//! CRC. The fault-injection layer in `nvp-core` mutates checkpoints only
//! through [`Checkpoint::words_mut`], so every corruption path funnels
//! into the one [`Checkpoint::verify`] gate.

use serde::{Deserialize, Serialize};

use crate::machine::ArchState;

/// Number of 16-bit payload words in a sealed checkpoint: 16 registers
/// plus the 32-bit program counter split into two halves.
pub const CHECKPOINT_WORDS: usize = 18;

/// The reflected CRC-32 (IEEE 802.3) polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 CRC-32 tables, generated at compile time so the checkpoint
/// path stays dependency-free. `CRC32_TABLES[0]` is the classic bytewise
/// table; `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight lookups fold eight input bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC32_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Folds eight input bytes, packed little-endian into `chunk`, into a
/// running (pre-inverted) CRC-32 accumulator.
fn crc32_fold8(c: u32, chunk: u64) -> u32 {
    let v = chunk ^ u64::from(c);
    let byte = |k: u32| usize::from((v >> (8 * k)) as u8);
    CRC32_TABLES[7][byte(0)]
        ^ CRC32_TABLES[6][byte(1)]
        ^ CRC32_TABLES[5][byte(2)]
        ^ CRC32_TABLES[4][byte(3)]
        ^ CRC32_TABLES[3][byte(4)]
        ^ CRC32_TABLES[2][byte(5)]
        ^ CRC32_TABLES[1][byte(6)]
        ^ CRC32_TABLES[0][byte(7)]
}

/// Folds `bytes` into a running (pre-inverted) CRC-32 accumulator: eight
/// bytes per step, then the last seven or fewer one at a time.
fn crc32_accum(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        c = crc32_fold8(c, u64::from_le_bytes(chunk.try_into().expect("eight-byte chunk")));
    }
    for &b in chunks.remainder() {
        c = CRC32_TABLES[0][usize::from(c as u8 ^ b)] ^ (c >> 8);
    }
    c
}

/// CRC-32 over a byte slice — the same polynomial and tables as
/// [`crc32_words`]. The persistent simulation-result cache
/// (`nvp-experiments`) frames its on-disk records with this, so cache
/// integrity and checkpoint integrity share one checksum
/// implementation.
#[must_use]
pub fn crc32_bytes(bytes: &[u8]) -> u32 {
    !crc32_accum(0xFFFF_FFFF, bytes)
}

/// CRC-32 over a word slice, feeding each word little-endian byte first.
#[must_use]
pub fn crc32_words(words: &[u16]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = words.chunks_exact(4);
    for chunk in &mut chunks {
        let packed = chunk.iter().rev().fold(0u64, |acc, &w| (acc << 16) | u64::from(w));
        c = crc32_fold8(c, packed);
    }
    for &w in chunks.remainder() {
        c = crc32_accum(c, &w.to_le_bytes());
    }
    !c
}

/// How many leading payload words a torn backup managed to write durably
/// before the energy ran out, given the fraction of the backup's energy
/// budget that was actually delivered. Clamped to `[0, total_words]`;
/// the quantization is deliberately floor-like (a partially written word
/// does not count as written).
#[must_use]
pub fn torn_prefix_words(total_words: usize, backup_energy_fraction: f64) -> usize {
    let f = backup_energy_fraction.clamp(0.0, 1.0);
    let written = (f * total_words as f64) as usize;
    written.min(total_words)
}

/// A sealed (or torn) checkpoint image: the serialized [`ArchState`]
/// payload plus the CRC-32 commit record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Checkpoint {
    words: [u16; CHECKPOINT_WORDS],
    crc: u32,
}

impl Checkpoint {
    /// Serializes `state` and seals it with a matching CRC. A freshly
    /// sealed checkpoint always [`verify`](Self::verify)s.
    #[must_use]
    pub fn seal(state: &ArchState) -> Self {
        let words = encode(state);
        Checkpoint { crc: crc32_words(&words), words }
    }

    /// Models a torn backup: only the first `written_words` payload words
    /// of `state` landed; the rest of the image keeps whatever `prev`
    /// held in that slot (erased `0xFFFF` when the slot was empty), and
    /// the CRC commit record — written last — was never updated.
    #[must_use]
    pub fn torn(state: &ArchState, prev: Option<&Checkpoint>, written_words: usize) -> Self {
        let new = encode(state);
        let (mut words, crc) = match prev {
            Some(p) => (p.words, p.crc),
            None => ([0xFFFFu16; CHECKPOINT_WORDS], 0),
        };
        let n = written_words.min(CHECKPOINT_WORDS);
        words[..n].copy_from_slice(&new[..n]);
        Checkpoint { words, crc }
    }

    /// `true` iff the CRC commit record matches the payload.
    #[must_use]
    pub fn verify(&self) -> bool {
        crc32_words(&self.words) == self.crc
    }

    /// Decodes the payload back into an [`ArchState`]. Only meaningful
    /// when [`verify`](Self::verify) holds; callers gate on it.
    #[must_use]
    pub fn state(&self) -> ArchState {
        let mut regs = [0u16; 16];
        regs.copy_from_slice(&self.words[..16]);
        let pc = (u32::from(self.words[16]) << 16) | u32::from(self.words[17]);
        ArchState { regs, pc }
    }

    /// Read access to the payload words.
    #[must_use]
    pub fn words(&self) -> &[u16; CHECKPOINT_WORDS] {
        &self.words
    }

    /// Mutable payload access for fault injection (retention bit-flips).
    /// The CRC is *not* recomputed: any real change makes
    /// [`verify`](Self::verify) fail, which is the point.
    pub fn words_mut(&mut self) -> &mut [u16; CHECKPOINT_WORDS] {
        &mut self.words
    }
}

fn encode(state: &ArchState) -> [u16; CHECKPOINT_WORDS] {
    let mut words = [0u16; CHECKPOINT_WORDS];
    words[..16].copy_from_slice(&state.regs);
    words[16] = (state.pc >> 16) as u16;
    words[17] = (state.pc & 0xFFFF) as u16;
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ArchState {
        let mut regs = [0u16; 16];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = (i as u16) * 0x1111;
        }
        ArchState { regs, pc: 0x0001_2345 }
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // CRC-32 (IEEE) of the bytes "12345678" is 0x9AE0DAAF; fed as
        // little-endian word pairs ("12" = [0x31, 0x32] → word 0x3231).
        let words: Vec<u16> =
            b"12345678".chunks(2).map(|c| u16::from(c[0]) | (u16::from(c[1]) << 8)).collect();
        assert_eq!(crc32_words(&words), 0x9AE0_DAAF);
        assert_eq!(crc32_words(&[]), 0);
        // The byte-slice form is the same checksum without the word
        // framing: identical on the same byte stream.
        assert_eq!(crc32_bytes(b"12345678"), 0x9AE0_DAAF);
        assert_eq!(crc32_bytes(b"123456789"), 0xCBF4_3926, "CRC-32 check value");
        assert_eq!(crc32_bytes(&[]), 0);
    }

    /// Table-free CRC-32: shift and xor the polynomial one bit at a time.
    fn crc32_bitwise(bytes: impl IntoIterator<Item = u8>) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ CRC32_POLY } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn sliced_crc32_matches_the_bitwise_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xC0C0);
        let bytes: Vec<u8> = (0..256 + 8).map(|_| rng.random::<u8>()).collect();
        let words: Vec<u16> = (0..256 + 8).map(|_| rng.random::<u16>()).collect();
        // Every length through two hundred and fifty-six, at every
        // alignment: the eight-byte body, the bytewise tail and the
        // chunk boundary between them all meet the reference.
        for start in 0..8 {
            for len in 0..=256 {
                let b = &bytes[start..start + len];
                assert_eq!(crc32_bytes(b), crc32_bitwise(b.iter().copied()), "bytes {start}+{len}");
                let w = &words[start..start + len];
                let expanded = w.iter().flat_map(|w| w.to_le_bytes());
                assert_eq!(crc32_words(w), crc32_bitwise(expanded), "words {start}+{len}");
            }
        }
    }

    #[test]
    fn sealed_checkpoint_roundtrips_and_verifies() {
        let s = state();
        let ckpt = Checkpoint::seal(&s);
        assert!(ckpt.verify());
        assert_eq!(ckpt.state(), s);
    }

    #[test]
    fn any_single_bit_flip_fails_verification() {
        let ckpt = Checkpoint::seal(&state());
        for word in 0..CHECKPOINT_WORDS {
            for bit in 0..16 {
                let mut c = ckpt;
                c.words_mut()[word] ^= 1 << bit;
                assert!(!c.verify(), "flip at word {word} bit {bit} went undetected");
            }
        }
    }

    #[test]
    fn torn_checkpoint_fails_verification() {
        let old = Checkpoint::seal(&state());
        let mut next = state();
        next.pc = 0x9999;
        next.regs[3] = 0xDEAD;
        for written in 0..CHECKPOINT_WORDS {
            let torn = Checkpoint::torn(&next, Some(&old), written);
            // Identical prefixes can leave the old (valid) image intact;
            // any actually-changed prefix must break the commit record.
            if torn.words() != old.words() {
                assert!(!torn.verify(), "torn at {written} words went undetected");
            }
        }
        let torn_fresh = Checkpoint::torn(&next, None, 5);
        assert!(!torn_fresh.verify());
    }

    #[test]
    fn fully_written_torn_image_still_lacks_commit_record() {
        // Even a 100%-payload tear is invalid: the CRC write never ran.
        let old = Checkpoint::seal(&state());
        let mut next = state();
        next.regs[1] = 7;
        let torn = Checkpoint::torn(&next, Some(&old), CHECKPOINT_WORDS);
        assert!(!torn.verify());
    }

    #[test]
    fn torn_prefix_quantizes_and_clamps() {
        assert_eq!(torn_prefix_words(18, 0.0), 0);
        assert_eq!(torn_prefix_words(18, 1.0), 18);
        assert_eq!(torn_prefix_words(18, 0.5), 9);
        assert_eq!(torn_prefix_words(18, 0.99), 17, "partial word does not count");
        assert_eq!(torn_prefix_words(18, -3.0), 0);
        assert_eq!(torn_prefix_words(18, 42.0), 18);
    }

    #[test]
    fn pc_halves_encode_msb_first() {
        let s = ArchState { regs: [0; 16], pc: 0x00AB_CDEF };
        let ckpt = Checkpoint::seal(&s);
        assert_eq!(ckpt.words()[16], 0x00AB);
        assert_eq!(ckpt.words()[17], 0xCDEF);
    }
}
