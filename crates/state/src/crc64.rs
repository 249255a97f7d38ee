//! CRC-64/XZ (ECMA-182 polynomial, reflected), by slicing-by-8.
//!
//! Guards every checkpoint file against bit rot and torn writes. The
//! implementation matches the widely deployed `xz` CRC-64 so external
//! tooling can cross-check files. It folds eight bytes per step through
//! eight 256-entry tables built at compile time: table 0 is the bytewise
//! table, and table `k` advances a byte's remainder `k` more bytes.

const POLY: u64 = 0xC96C_5795_D787_0F42;

const TABLES: [[u64; 256]; 8] = tables();

const fn tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The CRC-64/XZ checksum of `data`.
#[must_use]
pub fn checksum(data: &[u8]) -> u64 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut crc = u64::MAX;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let x = crc ^ u64::from_le_bytes(word.try_into().expect("8 bytes"));
        let byte = |shift: u32| ((x >> shift) & 0xFF) as usize;
        crc = t7[byte(0)]
            ^ t6[byte(8)]
            ^ t5[byte(16)]
            ^ t4[byte(24)]
            ^ t3[byte(32)]
            ^ t2[byte(40)]
            ^ t1[byte(48)]
            ^ t0[byte(56)];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t0[((crc ^ u64::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain table-driven loop, one byte at a time.
    fn bytewise(data: &[u8]) -> u64 {
        let mut crc = u64::MAX;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u64::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vector() {
        // The standard CRC-64/XZ check value for "123456789".
        assert_eq!(checksum(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(bytewise(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn empty_input() {
        assert_eq!(checksum(b""), 0);
    }

    #[test]
    fn single_bit_flip_changes_the_sum() {
        let base = checksum(b"checkpoint payload");
        let mut flipped = b"checkpoint payload".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(checksum(&flipped), base);
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_loop_at_every_length_and_start() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4_096 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for len in 0..=4_096 {
            for start in [0, 1 + len % 7] {
                let slice = &data[start..start + len];
                assert_eq!(checksum(slice), bytewise(slice), "len {len} at {start}");
            }
        }
    }
}
