//! Zero-dependency CRC64 (ECMA-182, reflected — the `CRC-64/XZ`
//! parametrisation) for end-to-end integrity of persisted index
//! images and manifests.
//!
//! The persistence layer seals every index image, filter sidecar and
//! ingest log with a CRC64 trailer ([`seal`]) and records per-file
//! checksums in the wave manifest, so a torn write, a bit flip, or a
//! swapped file is detected at load time instead of silently
//! corrupting query results.
//!
//! # Kernel
//!
//! [`Crc64::update`] is slicing-by-8: eight 256-entry tables, built
//! once, fold eight input bytes per step with eight independent
//! lookups instead of eight dependent ones. It computes exactly the
//! bytewise CRC-64/XZ, so every value it returns — and every file
//! written with it — is unchanged.
//!
//! # One pass per file
//!
//! A sealed file is `body ‖ crc64(body)` (little-endian). [`seal`]
//! and [`unseal`] checksum the body once and fold the 8 trailer bytes
//! into that same state to get the whole-file CRC the manifest
//! records, so writing or verifying a sealed file reads each byte
//! once. Because appending a CRC-64/XZ to its own input always yields
//! the same checksum, the whole-file CRC of *every* intact sealed
//! file is the residue `0xB66A73654282CAC0`: the manifest's CRC column
//! confirms a sealed file is intact, and a swapped (but intact)
//! sealed file is caught by its length and label instead.

use std::fmt;

/// Reflected form of the ECMA-182 polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Length of the CRC64 trailer [`seal`] appends.
pub const TRAILER_LEN: usize = 8;

/// The slicing-by-8 tables: `T[0]` is the classic bytewise table and
/// `T[k][i]` is the CRC contribution of byte `i` followed by `k`
/// zero bytes.
type Tables = [[u64; 256]; 8];

/// The lookup tables, built once at first use.
fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let t0: [u64; 256] = std::array::from_fn(|i| {
            (0..8).fold(i as u64, |crc, _| {
                if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                }
            })
        });
        let next = |prev: &[u64; 256]| prev.map(|v| (v >> 8) ^ lookup(&t0, v as u8));
        let t1 = next(&t0);
        let t2 = next(&t1);
        let t3 = next(&t2);
        let t4 = next(&t3);
        let t5 = next(&t4);
        let t6 = next(&t5);
        let t7 = next(&t6);
        [t0, t1, t2, t3, t4, t5, t6, t7]
    })
}

/// `table[byte]`; a `u8` always lands inside a 256-entry table, so the
/// fallback is dead code the optimiser removes.
#[inline(always)]
fn lookup(table: &[u64; 256], byte: u8) -> u64 {
    table.get(usize::from(byte)).copied().unwrap_or(0)
}

/// Incremental CRC64 state, for checksumming data produced in pieces.
///
/// ```
/// use wave_storage::checksum::{crc64, Crc64};
///
/// let mut c = Crc64::new();
/// c.update(b"hello ");
/// c.update(b"world");
/// assert_eq!(c.finish(), crc64(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc64 {
    state: u64,
}

impl Crc64 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Crc64 { state: !0 }
    }

    /// Folds `bytes` into the checksum, eight bytes per step.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = tables();
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let w = <[u8; 8]>::try_from(word).map_or(0, u64::from_le_bytes) ^ crc;
            let [b0, b1, b2, b3, b4, b5, b6, b7] = w.to_le_bytes();
            crc = lookup(t7, b0)
                ^ lookup(t6, b1)
                ^ lookup(t5, b2)
                ^ lookup(t4, b3)
                ^ lookup(t3, b4)
                ^ lookup(t2, b5)
                ^ lookup(t1, b6)
                ^ lookup(t0, b7);
        }
        for &b in words.remainder() {
            crc = lookup(t0, crc as u8 ^ b) ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Final checksum value.
    pub fn finish(&self) -> u64 {
        !self.state
    }
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC64 of a whole byte slice in one call.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut c = Crc64::new();
    c.update(bytes);
    c.finish()
}

/// Why [`unseal`] refused a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// The buffer is shorter than the 8-byte trailer.
    Truncated,
    /// The trailer disagrees with the body's CRC64.
    Mismatch {
        /// CRC64 the trailer records.
        stored: u64,
        /// CRC64 the body actually has.
        computed: u64,
    },
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealError::Truncated => write!(f, "truncated before the checksum trailer"),
            SealError::Mismatch { stored, computed } => write!(
                f,
                "checksum mismatch: trailer {stored:016x}, body {computed:016x}"
            ),
        }
    }
}

impl std::error::Error for SealError {}

/// Appends the CRC64 trailer of `buf` to it and returns the CRC64 of
/// the whole sealed buffer — the value a manifest records for the
/// file — from a single pass over the body.
///
/// ```
/// use wave_storage::checksum::{crc64, seal, unseal};
///
/// let mut file = b"body".to_vec();
/// let file_crc = seal(&mut file);
/// assert_eq!(file_crc, crc64(&file));
/// assert_eq!(unseal(&file), Ok((&b"body"[..], file_crc)));
/// ```
pub fn seal(buf: &mut Vec<u8>) -> u64 {
    let mut c = Crc64::new();
    c.update(buf);
    let trailer = c.finish().to_le_bytes();
    buf.extend_from_slice(&trailer);
    c.update(&trailer);
    c.finish()
}

/// Verifies a buffer written by [`seal`] in one pass, returning the
/// body (trailer stripped) and the CRC64 of the whole buffer for the
/// caller to compare with its manifest.
pub fn unseal(bytes: &[u8]) -> Result<(&[u8], u64), SealError> {
    let (body, trailer) = bytes
        .split_last_chunk::<TRAILER_LEN>()
        .ok_or(SealError::Truncated)?;
    let mut c = Crc64::new();
    c.update(body);
    let stored = u64::from_le_bytes(*trailer);
    let computed = c.finish();
    if stored != computed {
        return Err(SealError::Mismatch { stored, computed });
    }
    c.update(trailer);
    Ok((body, c.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_obs::SplitMix64;

    /// Whole-file CRC64 of every intact sealed buffer (the CRC-64/XZ
    /// residue).
    const SEALED_RESIDUE: u64 = 0xB66A_7365_4282_CAC0;

    /// The textbook one-lookup-per-byte loop, with its own table built
    /// bit by bit: the oracle the sliced kernel must match exactly.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        let mut t = [0u64; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut crc = i as u64;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        let mut state = !0u64;
        for &b in bytes {
            state = t[((state ^ b as u64) & 0xFF) as usize] ^ (state >> 8);
        }
        !state
    }

    fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn known_answer() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_bytewise(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_short_length() {
        let mut rng = SplitMix64::new(0x51_1CE8);
        let data = random_bytes(&mut rng, 257);
        for len in 0..=data.len() {
            assert_eq!(
                crc64(&data[..len]),
                crc64_bytewise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_random_buffers() {
        let mut rng = SplitMix64::new(0xC4C6_4B0F);
        for _ in 0..48 {
            let len = (rng.next_u64() % (64 * 1024 + 1)) as usize;
            let data = random_bytes(&mut rng, len);
            assert_eq!(crc64(&data), crc64_bytewise(&data), "len {len}");
        }
    }

    #[test]
    fn incremental_matches_bytewise_at_every_split() {
        let mut rng = SplitMix64::new(0x5B117);
        let data = random_bytes(&mut rng, 100);
        let want = crc64_bytewise(&data);
        // Starting offsets 0..8 put the first word at every alignment.
        for start in 0..8 {
            let want_tail = crc64_bytewise(&data[start..]);
            for split in start..=data.len() {
                let mut c = Crc64::new();
                c.update(&data[start..split]);
                c.update(&data[split..]);
                assert_eq!(c.finish(), want_tail, "start {start} split {split}");
            }
        }
        // Three-way splits over the whole buffer.
        for a in 0..=data.len() {
            let b = (a + 13).min(data.len());
            let mut c = Crc64::new();
            c.update(&data[..a]);
            c.update(&data[a..b]);
            c.update(&data[b..]);
            assert_eq!(c.finish(), want, "splits {a},{b}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = vec![0xA5u8; 512];
        let base = crc64(&data);
        for pos in [0usize, 17, 255, 511] {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[pos] ^= 1 << bit;
                assert_ne!(crc64(&corrupt), base, "flip at {pos}:{bit} undetected");
            }
        }
    }

    #[test]
    fn truncation_changes_the_checksum() {
        let data: Vec<u8> = (0..200u8).collect();
        let base = crc64(&data);
        for cut in 1..data.len() {
            assert_ne!(crc64(&data[..cut]), base, "truncation to {cut} undetected");
        }
    }

    #[test]
    fn seal_round_trips_and_pins_the_residue() {
        let mut rng = SplitMix64::new(0x5EA1);
        for len in [0usize, 1, 7, 8, 9, 63, 64, 1000] {
            let body = random_bytes(&mut rng, len);
            let mut file = body.clone();
            let file_crc = seal(&mut file);
            assert_eq!(file.len(), len + TRAILER_LEN);
            assert_eq!(file[len..], crc64(&body).to_le_bytes());
            assert_eq!(file_crc, crc64(&file), "len {len}");
            assert_eq!(file_crc, SEALED_RESIDUE, "len {len}");
            assert_eq!(unseal(&file), Ok((&body[..], file_crc)));
        }
    }

    #[test]
    fn unseal_rejects_every_bit_flip_and_truncation() {
        let mut file = b"a small sealed buffer".to_vec();
        seal(&mut file);
        for pos in 0..file.len() {
            for bit in 0..8 {
                let mut bad = file.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    matches!(unseal(&bad), Err(SealError::Mismatch { .. })),
                    "flip at {pos}:{bit} accepted"
                );
            }
        }
        for cut in 0..file.len() {
            let got = unseal(&file[..cut]);
            if cut < TRAILER_LEN {
                assert_eq!(got, Err(SealError::Truncated), "cut {cut}");
            } else {
                assert!(got.is_err(), "truncation to {cut} accepted");
            }
        }
    }
}
