//! Checksums for the durable layer.
//!
//! Two polynomials, two jobs:
//!
//! * [`crc64`] (ECMA-182) guards **pages**: an 8-byte trailer at
//!   `PAGE_SIZE - 8` over the content area, stamped by the disk on every
//!   page write and verified on every buffer-pool miss. CRC64's minimum
//!   distance guarantees every single-bit flip (and every burst ≤ 64
//!   bits) in an 8 KiB page changes the checksum.
//! * [`crc32`] (IEEE 802.3) guards **WAL records**: a 4-byte field in
//!   each record frame over `payload ++ LSN`, verified during scan and
//!   replay. Embedding the record's LSN means a record that was shifted
//!   within the stream (a lying fsync dropped its predecessor) fails
//!   verification even though its bytes are individually intact.
//!
//! Both run the same slicing-by-8 kernel (`update`): eight 256-entry
//! tables per polynomial fold one little-endian 8-byte word per step, so
//! a restart that verifies megabytes of log and every page it reads
//! pays one table lookup per byte with no loop-carried dependency
//! between the lookups of a word. The tables are built in `const`
//! context: no lazy init, no locks, no first-use latency on the
//! recovery path.

/// Reflected CRC-64/ECMA-182 polynomial (normal form 0x42F0E1EBA9EA3693).
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Reflected CRC-32/IEEE polynomial (normal form 0x04C11DB7).
const CRC32_POLY: u64 = 0xEDB8_8320;

/// Slicing-by-8 tables for a reflected polynomial. `t[0]` is the classic
/// one-byte table; `t[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so byte `j` of an 8-byte word is folded by `t[7 - j]`. A
/// 32-bit polynomial yields entries below 2^32, so one `u64` kernel
/// serves both widths.
const fn slice8_tables(poly: u64) -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ poly
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC64_TABLES: [[u64; 256]; 8] = slice8_tables(CRC64_POLY);
static CRC32_TABLES: [[u64; 256]; 8] = slice8_tables(CRC32_POLY);

/// Fold `data` into the running (pre-inversion) register `crc`.
fn update(t: &[[u64; 256]; 8], mut crc: u64, data: &[u8]) -> u64 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let mut word = [0u8; 8];
        word.copy_from_slice(w);
        let x = u64::from_le_bytes(word) ^ crc;
        let b = |j: u32| ((x >> (8 * j)) & 0xFF) as usize;
        crc = t[7][b(0)]
            ^ t[6][b(1)]
            ^ t[5][b(2)]
            ^ t[4][b(3)]
            ^ t[3][b(4)]
            ^ t[2][b(5)]
            ^ t[1][b(6)]
            ^ t[0][b(7)];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u64) & 0xFF) as usize];
    }
    crc
}

/// CRC-64/ECMA-182 over `data` (init/xorout all-ones).
pub fn crc64(data: &[u8]) -> u64 {
    !update(&CRC64_TABLES, u64::MAX, data)
}

/// CRC-32/IEEE over `data` (init/xorout all-ones).
pub fn crc32(data: &[u8]) -> u32 {
    !(update(&CRC32_TABLES, u32::MAX.into(), data) as u32)
}

/// CRC-32 of a WAL record: `payload ++ lsn.to_le_bytes()`. The LSN is
/// folded in *after* the payload so verification needs no copy.
pub fn wal_record_crc(payload: &[u8], lsn: u64) -> u32 {
    let crc = update(&CRC32_TABLES, u32::MAX.into(), payload);
    !(update(&CRC32_TABLES, crc, &lsn.to_le_bytes()) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook byte-at-a-time loop over the one-byte table: the
    /// oracle the sliced kernel must match bit for bit.
    fn bytewise(t: &[[u64; 256]; 8], mut crc: u64, data: &[u8]) -> u64 {
        for &b in data {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u64) & 0xFF) as usize];
        }
        crc
    }

    fn crc32_oracle(data: &[u8]) -> u32 {
        !(bytewise(&CRC32_TABLES, u32::MAX.into(), data) as u32)
    }

    fn crc64_oracle(data: &[u8]) -> u64 {
        !bytewise(&CRC64_TABLES, u64::MAX, data)
    }

    fn wal_oracle(payload: &[u8], lsn: u64) -> u32 {
        let mut concat = payload.to_vec();
        concat.extend_from_slice(&lsn.to_le_bytes());
        crc32_oracle(&concat)
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed >> 12;
                seed ^= seed << 25;
                seed ^= seed >> 27;
                (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    fn assert_matches_oracle(data: &[u8], what: &str) {
        assert_eq!(crc32(data), crc32_oracle(data), "crc32 {what}");
        assert_eq!(crc64(data), crc64_oracle(data), "crc64 {what}");
        let lsn = 0x0123_4567_89AB_CDEF ^ data.len() as u64;
        assert_eq!(
            wal_record_crc(data, lsn),
            wal_oracle(data, lsn),
            "wal_record_crc {what}"
        );
    }

    #[test]
    fn crc32_known_answer() {
        // CRC-32/IEEE of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc64_known_answer() {
        // CRC-64/XZ (reflected ECMA-182) of "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn single_bit_flips_change_both_crcs() {
        let data = vec![0xA5u8; 512];
        let base32 = crc32(&data);
        let base64 = crc64(&data);
        for byte in [0usize, 100, 511] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base32, "crc32 missed {byte}:{bit}");
                assert_ne!(crc64(&flipped), base64, "crc64 missed {byte}:{bit}");
            }
        }
    }

    #[test]
    fn wal_record_crc_binds_the_lsn() {
        let payload = b"record payload";
        let a = wal_record_crc(payload, 10);
        let b = wal_record_crc(payload, 11);
        assert_ne!(a, b);
        // Equivalent to hashing the concatenation explicitly.
        let mut concat = payload.to_vec();
        concat.extend_from_slice(&10u64.to_le_bytes());
        assert_eq!(a, crc32(&concat));
    }

    #[test]
    fn sliced_kernels_match_the_bytewise_oracle_at_every_short_length() {
        let data = noise(64, 1);
        for len in 0..=64 {
            assert_matches_oracle(&data[..len], &format!("len {len}"));
        }
    }

    #[test]
    fn sliced_kernels_match_the_bytewise_oracle_on_a_page_image() {
        let page = noise(crate::storage::disk::PAGE_SIZE, 2);
        assert_matches_oracle(&page, "8 KiB page");
        assert_matches_oracle(&[0u8; crate::storage::disk::PAGE_SIZE], "zero page");
    }

    #[test]
    fn sliced_kernels_do_not_depend_on_alignment() {
        let data = noise(1024 + 16, 3);
        for start in [1usize, 3, 5, 7, 9, 13] {
            for len in [0usize, 7, 8, 9, 63, 1024] {
                let slice = &data[start..start + len];
                assert_matches_oracle(slice, &format!("offset {start} len {len}"));
            }
        }
    }
}
