//! DEC-TED ECC: Double-Error-Correction, Triple-Error-Detection via a
//! shortened binary BCH code over GF(2^10) plus an overall parity bit.
//!
//! The paper's §5.2 notes that "DECTED ECC for 64B data requires only 21
//! bits for checkbits": a designed-distance-5 BCH code needs 20 checkbits
//! (two degree-10 minimal polynomials), and the 21st bit is the overall
//! parity that upgrades detection to triple errors.
//!
//! Codeword layout (bit positions are polynomial degrees):
//! - degrees `0..20`: the 20 BCH remainder checkbits,
//! - degrees `20..532`: the 512 data bits (data bit `i` at degree `i + 20`),
//! - one overall-parity cell outside the polynomial.

use std::sync::OnceLock;

use crate::bits::{Line512, LINE_BITS};
use crate::gf1024::{minimal_polynomial, Gf10};

/// Number of BCH remainder checkbits.
pub const BCH_BITS: usize = 20;
/// Total stored checkbits including the overall parity.
pub const CHECK_BITS: usize = 21;
/// Codeword length in polynomial positions (data + BCH checkbits).
pub const CODE_LEN: usize = LINE_BITS + BCH_BITS; // 532

/// The 21 stored checkbits of a DEC-TED codeword.
///
/// Bits `0..20` are the BCH remainder; bit 20 is the overall parity of the
/// 532 codeword bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DectedCode(pub u32);

impl DectedCode {
    /// Flips stored checkbit `i` (models a faulty checkbit cell).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 21`.
    pub fn flip_bit(&mut self, i: usize) {
        assert!(i < CHECK_BITS, "checkbit index {i} out of range");
        self.0 ^= 1 << i;
    }
}

/// Decode verdict of the DEC-TED codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DectedDecode {
    /// No error detected.
    Clean,
    /// Up to two errors corrected; the listed data-bit indices must be
    /// flipped (checkbit-only errors contribute no entries).
    Corrected { bits: [Option<usize>; 2] },
    /// Three or more errors detected; not correctable.
    Detected,
}

impl DectedDecode {
    /// True when the data cannot be recovered.
    pub fn is_uncorrectable(&self) -> bool {
        matches!(self, DectedDecode::Detected)
    }
}

/// The DEC-TED(533, 512) codec.
#[derive(Debug)]
pub struct Dected {
    /// Encoder remainder table: entry `x` is the 20-bit LFSR register
    /// after eight zero-input steps from `x << 12`, so one lookup
    /// advances the division by `m1(x) * m3(x)` a whole data byte.
    remainder_table: [u32; 256],
    /// Per-byte syndrome tables: `s1_table[byte_idx][byte]` is the XOR of
    /// `alpha^degree` over the set bits, and likewise for `alpha^(3*degree)`.
    s1_table: Vec<[u16; 256]>,
    s3_table: Vec<[u16; 256]>,
}

/// Raw syndrome observation, exposed for schemes that branch on
/// syndrome-zero vs parity like Killi's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DectedObservation {
    /// Syndrome S1 = r(alpha).
    pub s1: Gf10,
    /// Syndrome S3 = r(alpha^3).
    pub s3: Gf10,
    /// True when the overall parity over all 533 cells mismatched.
    pub parity_mismatch: bool,
}

impl DectedObservation {
    /// True when both syndromes are zero.
    pub fn syndrome_zero(&self) -> bool {
        self.s1.is_zero() && self.s3.is_zero()
    }
}

impl Dected {
    /// Builds the codec (generator polynomial and syndrome tables).
    pub fn new() -> Self {
        let m1 = minimal_polynomial(1) as u64;
        let m3 = minimal_polynomial(3) as u64;
        // Carry-less multiply m1 * m3 over GF(2).
        let mut generator = 0u64;
        for i in 0..=10 {
            if (m1 >> i) & 1 == 1 {
                generator ^= m3 << i;
            }
        }
        debug_assert_eq!(64 - generator.leading_zeros() as usize - 1, BCH_BITS);
        let mask = (1u32 << BCH_BITS) - 1;
        let feedback = generator as u32 & mask;
        let mut remainder_table = [0u32; 256];
        for (x, entry) in remainder_table.iter_mut().enumerate() {
            let mut reg = (x as u32) << (BCH_BITS - 8);
            for _ in 0..8 {
                let top = (reg >> (BCH_BITS - 1)) & 1;
                reg = (reg << 1) & mask;
                if top == 1 {
                    reg ^= feedback;
                }
            }
            *entry = reg;
        }

        let nbytes = CODE_LEN.div_ceil(8);
        let mut s1_table = vec![[0u16; 256]; nbytes];
        let mut s3_table = vec![[0u16; 256]; nbytes];
        for (byte_idx, (t1, t3)) in s1_table.iter_mut().zip(s3_table.iter_mut()).enumerate() {
            for byte in 0u16..256 {
                let mut a1 = Gf10::ZERO;
                let mut a3 = Gf10::ZERO;
                for bit in 0..8 {
                    if (byte >> bit) & 1 == 1 {
                        let degree = byte_idx * 8 + bit;
                        if degree < CODE_LEN {
                            a1 = a1.add(Gf10::alpha_pow(degree));
                            a3 = a3.add(Gf10::alpha_pow(3 * degree));
                        }
                    }
                }
                t1[byte as usize] = a1.0;
                t3[byte as usize] = a3.0;
            }
        }
        Dected {
            remainder_table,
            s1_table,
            s3_table,
        }
    }

    /// Encodes `data`, returning the 21 checkbits.
    pub fn encode(&self, data: &Line512) -> DectedCode {
        // d(x) * x^20 mod g(x), highest degree first: the data bytes from
        // the top, each most-significant bit first, one table step each
        // (the byte enters the register's top 8 bits, where the bit-serial
        // LFSR would have fed it back one bit at a time).
        let mask = (1u32 << BCH_BITS) - 1;
        let mut reg = 0u32;
        for word in data.words().iter().rev() {
            for byte in word.to_be_bytes() {
                let top = (reg >> (BCH_BITS - 8)) as u8 ^ byte;
                reg = ((reg << 8) & mask) ^ self.remainder_table[top as usize];
            }
        }
        // Overall parity over all 532 codeword bits.
        let parity = data.parity() ^ (reg.count_ones() % 2 == 1);
        DectedCode(reg | u32::from(parity) << BCH_BITS)
    }

    /// Computes the raw syndromes for a received (data, checkbits) pair.
    pub fn observe(&self, data: &Line512, stored: DectedCode) -> DectedObservation {
        let mut s1 = Gf10::ZERO;
        let mut s3 = Gf10::ZERO;
        // Checkbits occupy degrees 0..20: bytes 0..2 plus low nibble of byte 2.
        let check = stored.0 & ((1 << BCH_BITS) - 1);
        let mut buf = [0u8; CODE_LEN / 8 + 1];
        buf[0] = (check & 0xFF) as u8;
        buf[1] = ((check >> 8) & 0xFF) as u8;
        buf[2] = ((check >> 16) & 0x0F) as u8;
        // Data bit i at degree i + 20: starts mid-byte 2.
        for (w_idx, w) in data.words().iter().enumerate() {
            for b in 0..8 {
                let byte = ((w >> (8 * b)) & 0xFF) as u8;
                let bit_base = w_idx * 64 + b * 8 + BCH_BITS;
                buf[bit_base / 8] |= byte << (bit_base % 8);
                if !bit_base.is_multiple_of(8) && bit_base / 8 + 1 < buf.len() {
                    buf[bit_base / 8 + 1] |= byte >> (8 - bit_base % 8);
                }
            }
        }
        let mut ones = 0u32;
        for (i, &byte) in buf.iter().enumerate() {
            if byte != 0 {
                s1 = s1.add(Gf10(self.s1_table[i][byte as usize]));
                s3 = s3.add(Gf10(self.s3_table[i][byte as usize]));
                ones += byte.count_ones();
            }
        }
        let stored_overall = (stored.0 >> BCH_BITS) & 1 == 1;
        let parity_mismatch = (ones % 2 == 1) != stored_overall;
        DectedObservation {
            s1,
            s3,
            parity_mismatch,
        }
    }

    /// Interprets an observation, running a Chien search when two errors are
    /// hypothesized.
    pub fn interpret(&self, obs: DectedObservation) -> DectedDecode {
        let DectedObservation {
            s1,
            s3,
            parity_mismatch,
        } = obs;
        if parity_mismatch {
            // Odd number of errors: hypothesize exactly one.
            if s1.is_zero() && s3.is_zero() {
                // Only the overall-parity cell flipped; data intact.
                return DectedDecode::Corrected { bits: [None, None] };
            }
            if !s1.is_zero() && s3 == s1.pow(3) {
                let degree = s1.log();
                if degree < CODE_LEN {
                    return DectedDecode::Corrected {
                        bits: [Self::degree_to_data_bit(degree), None],
                    };
                }
            }
            DectedDecode::Detected
        } else {
            // Even number of errors: zero or two.
            if s1.is_zero() && s3.is_zero() {
                return DectedDecode::Clean;
            }
            if s1.is_zero() {
                // Two errors always give s1 != 0 (distinct locators XOR).
                return DectedDecode::Detected;
            }
            // sigma(x) = x^2 + s1*x + (s3 + s1^3)/s1, roots are the locators.
            let prod = s3.add(s1.pow(3)).mul(s1.inv());
            if prod.is_zero() {
                return DectedDecode::Detected;
            }
            let mut found: [Option<usize>; 2] = [None, None];
            let mut count = 0;
            for degree in 0..CODE_LEN {
                let x = Gf10::alpha_pow(degree);
                // x^2 + s1 x + prod == 0 ?
                if x.mul(x).add(s1.mul(x)).add(prod).is_zero() {
                    if count == 2 {
                        return DectedDecode::Detected;
                    }
                    found[count] = Some(degree);
                    count += 1;
                }
            }
            if count == 2 {
                DectedDecode::Corrected {
                    bits: [
                        Self::degree_to_data_bit(found[0].unwrap()),
                        Self::degree_to_data_bit(found[1].unwrap()),
                    ],
                }
            } else {
                DectedDecode::Detected
            }
        }
    }

    /// One-shot decode: observe then interpret.
    pub fn decode(&self, data: &Line512, stored: DectedCode) -> DectedDecode {
        self.interpret(self.observe(data, stored))
    }

    /// Applies a correction verdict to `data`, returning `true` if the data
    /// is now (believed) clean.
    pub fn apply(&self, data: &mut Line512, decode: DectedDecode) -> bool {
        match decode {
            DectedDecode::Clean => true,
            DectedDecode::Corrected { bits } => {
                for bit in bits.into_iter().flatten() {
                    data.flip_bit(bit);
                }
                true
            }
            DectedDecode::Detected => false,
        }
    }

    /// Maps a codeword degree to a data-bit index (`None` for checkbits).
    fn degree_to_data_bit(degree: usize) -> Option<usize> {
        (degree >= BCH_BITS).then(|| degree - BCH_BITS)
    }
}

impl Default for Dected {
    fn default() -> Self {
        Self::new()
    }
}

/// Returns the process-wide shared codec instance.
pub fn dected() -> &'static Dected {
    static INSTANCE: OnceLock<Dected> = OnceLock::new();
    INSTANCE.get_or_init(Dected::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_roundtrip() {
        let codec = dected();
        for seed in 0..16u64 {
            let data = Line512::from_seed(seed);
            let code = codec.encode(&data);
            assert_eq!(codec.decode(&data, code), DectedDecode::Clean);
        }
    }

    #[test]
    fn corrects_every_single_data_bit_error() {
        let codec = dected();
        let data = Line512::from_seed(31);
        let code = codec.encode(&data);
        for bit in 0..LINE_BITS {
            let mut corrupted = data;
            corrupted.flip_bit(bit);
            let d = codec.decode(&corrupted, code);
            let mut fixed = corrupted;
            assert!(codec.apply(&mut fixed, d), "bit {bit}: {d:?}");
            assert_eq!(fixed, data, "bit {bit}");
        }
    }

    #[test]
    fn corrects_every_single_checkbit_error() {
        let codec = dected();
        let data = Line512::from_seed(32);
        let code = codec.encode(&data);
        for cb in 0..CHECK_BITS {
            let mut bad = code;
            bad.flip_bit(cb);
            let d = codec.decode(&data, bad);
            let mut fixed = data;
            assert!(codec.apply(&mut fixed, d), "checkbit {cb}: {d:?}");
            assert_eq!(fixed, data, "checkbit {cb}");
        }
    }

    #[test]
    fn corrects_double_data_bit_errors() {
        let codec = dected();
        let data = Line512::from_seed(33);
        let code = codec.encode(&data);
        for (a, b) in [
            (0usize, 1usize),
            (0, 511),
            (17, 33),
            (100, 101),
            (250, 400),
            (5, 300),
        ] {
            let mut corrupted = data;
            corrupted.flip_bit(a);
            corrupted.flip_bit(b);
            let d = codec.decode(&corrupted, code);
            let mut fixed = corrupted;
            assert!(codec.apply(&mut fixed, d), "bits {a},{b}: {d:?}");
            assert_eq!(fixed, data, "bits {a},{b}");
        }
    }

    #[test]
    fn corrects_data_plus_checkbit_double_error() {
        let codec = dected();
        let data = Line512::from_seed(34);
        let code = codec.encode(&data);
        let mut corrupted = data;
        corrupted.flip_bit(42);
        let mut bad = code;
        bad.flip_bit(3);
        let d = codec.decode(&corrupted, bad);
        let mut fixed = corrupted;
        assert!(codec.apply(&mut fixed, d), "{d:?}");
        assert_eq!(fixed, data);
    }

    #[test]
    fn triple_errors_detected_never_clean() {
        let codec = dected();
        let data = Line512::from_seed(35);
        let code = codec.encode(&data);
        let mut detected = 0usize;
        let mut total = 0usize;
        for t in 0..100usize {
            let b0 = (t * 7) % LINE_BITS;
            let b1 = (t * 13 + 1) % LINE_BITS;
            let b2 = (t * 29 + 2) % LINE_BITS;
            if b0 == b1 || b1 == b2 || b0 == b2 {
                continue;
            }
            total += 1;
            let mut corrupted = data;
            corrupted.flip_bit(b0);
            corrupted.flip_bit(b1);
            corrupted.flip_bit(b2);
            match codec.decode(&corrupted, code) {
                DectedDecode::Clean => panic!("triple error decoded clean ({b0},{b1},{b2})"),
                DectedDecode::Detected => detected += 1,
                DectedDecode::Corrected { .. } => {} // rare aliasing allowed
            }
        }
        // TED should catch the overwhelming majority of triples.
        assert!(detected * 100 >= total * 95, "{detected}/{total}");
    }

    #[test]
    fn overall_parity_cell_flip_is_correctable() {
        let codec = dected();
        let data = Line512::from_seed(36);
        let mut code = codec.encode(&data);
        code.flip_bit(BCH_BITS); // the overall-parity cell
        let d = codec.decode(&data, code);
        assert_eq!(d, DectedDecode::Corrected { bits: [None, None] });
    }

    #[test]
    fn observation_reports_syndromes() {
        let codec = dected();
        let data = Line512::from_seed(37);
        let code = codec.encode(&data);
        let clean = codec.observe(&data, code);
        assert!(clean.syndrome_zero());
        assert!(!clean.parity_mismatch);

        let mut one = data;
        one.flip_bit(9);
        let obs = codec.observe(&one, code);
        assert!(!obs.syndrome_zero());
        assert!(obs.parity_mismatch);
        assert_eq!(obs.s1.log(), 9 + BCH_BITS);
    }
}
