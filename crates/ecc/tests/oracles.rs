//! Brute-force oracles for the correcting codecs.
//!
//! Each fast codec is checked against a slow reference written straight
//! from the code's definition, over every 1- and 2-bit error pattern of
//! its cells:
//!
//! - OLSC: the word-parallel decoder against a per-bit majority vote over
//!   an explicit `class_of` table, for six `(m, t)` geometries, plus
//!   random patterns with more than `t` errors and whole-line decodes;
//! - DEC-TED: the byte-table encoder against the bit-serial LFSR, and
//!   exact correction of every 1- and 2-bit pattern over the 533 cells;
//! - SECDED: every 1-bit pattern over the 523 cells corrected, every
//!   2-bit pattern detected.

use killi_check::Gen;
use killi_ecc::bch::{dected, DectedCode, DectedDecode, BCH_BITS, CHECK_BITS as DECTED_CHECK_BITS};
use killi_ecc::bits::{Line512, LINE_BITS};
use killi_ecc::gf1024::minimal_polynomial;
use killi_ecc::olsc::{Olsc, OlscBlock, OlscChecks, OlscDecode, OlscLine};
use killi_ecc::secded::{secded, SecdedDecode, CHECK_BITS as SECDED_CHECK_BITS};

/// The OLSC definition: an explicit class table and a per-bit majority
/// vote over it (the codec as first written, before the word-parallel
/// rewrite). Checkbits are one `bool` per (group, class), group-major.
mod reference {
    use super::OlscDecode;

    /// GF(2^e) multiply for m = 4, 8, 16.
    fn gf_mul(m: usize, a: usize, b: usize) -> usize {
        let poly = match m {
            4 => 0b111,
            8 => 0b1011,
            _ => 0b10011,
        };
        let (mut acc, mut a, mut b) = (0, a, b);
        while b != 0 {
            if b & 1 == 1 {
                acc ^= a;
            }
            a <<= 1;
            if a & m != 0 {
                a ^= poly;
            }
            b >>= 1;
        }
        acc
    }

    pub struct Olsc {
        pub m: usize,
        pub t: usize,
        /// `class_of[g][cell]`: rows, columns, then Latin squares
        /// `L_{g-1}(i, j) = (g - 1) * i + j` over GF(m).
        pub class_of: Vec<Vec<usize>>,
    }

    impl Olsc {
        pub fn new(m: usize, t: usize) -> Self {
            let class_of = (0..2 * t)
                .map(|g| {
                    (0..m * m)
                        .map(|cell| {
                            let (i, j) = (cell / m, cell % m);
                            match g {
                                0 => i,
                                1 => j,
                                _ => gf_mul(m, g - 1, i) ^ j,
                            }
                        })
                        .collect()
                })
                .collect();
            Olsc { m, t, class_of }
        }

        pub fn encode(&self, data: &[bool]) -> Vec<bool> {
            let mut out = vec![false; 2 * self.t * self.m];
            for (g, classes) in self.class_of.iter().enumerate() {
                for (cell, &class) in classes.iter().enumerate() {
                    out[g * self.m + class] ^= data[cell];
                }
            }
            out
        }

        pub fn decode(&self, data: &mut [bool], stored: &[bool]) -> OlscDecode {
            let sums: Vec<bool> = self
                .encode(data)
                .iter()
                .zip(stored)
                .map(|(a, b)| a != b)
                .collect();
            if !sums.contains(&true) {
                return OlscDecode::Clean;
            }
            let flipped: Vec<usize> = (0..self.m * self.m)
                .filter(|&cell| {
                    let votes = (0..2 * self.t)
                        .filter(|&g| sums[g * self.m + self.class_of[g][cell]])
                        .count();
                    votes > self.t
                })
                .collect();
            for &cell in &flipped {
                data[cell] = !data[cell];
            }
            let residual = self
                .encode(data)
                .iter()
                .zip(stored)
                .filter(|(a, b)| a != b)
                .count();
            if residual > self.t {
                OlscDecode::Detected
            } else if flipped.is_empty() {
                OlscDecode::Clean
            } else {
                OlscDecode::Corrected { bits: flipped }
            }
        }
    }
}

const OLSC_GEOMETRIES: [(usize, usize); 6] = [(4, 1), (4, 2), (8, 2), (8, 4), (16, 3), (16, 4)];

fn block_to_bools(block: &OlscBlock, k: usize) -> Vec<bool> {
    (0..k)
        .map(|i| (block[i / 64] >> (i % 64)) & 1 == 1)
        .collect()
}

fn checks_to_bools(checks: &OlscChecks, n: usize) -> Vec<bool> {
    (0..n)
        .map(|i| (checks[i / 64] >> (i % 64)) & 1 == 1)
        .collect()
}

fn random_block(g: &mut Gen, k: usize) -> OlscBlock {
    let mut block = [g.u64(), g.u64(), g.u64(), g.u64()];
    for (w, word) in block.iter_mut().enumerate() {
        let live = k.saturating_sub(w * 64).min(64);
        *word &= if live == 64 { !0 } else { (1 << live) - 1 };
    }
    block
}

/// Flips cell `cell` of a block's data (`cell < k`) or checkbits.
fn flip_cell(data: &mut OlscBlock, checks: &mut OlscChecks, k: usize, cell: usize) {
    if cell < k {
        data[cell / 64] ^= 1 << (cell % 64);
    } else {
        let c = cell - k;
        checks[c / 64] ^= 1 << (c % 64);
    }
}

/// Decodes one received block with both codecs and demands the same
/// verdict and the same corrected data.
fn assert_olsc_agrees(
    fast: &Olsc,
    slow: &reference::Olsc,
    data: OlscBlock,
    checks: OlscChecks,
    what: &str,
) {
    let k = fast.data_bits();
    let mut fast_data = data;
    let fast_verdict = fast.decode(&mut fast_data, &checks);
    let mut slow_data = block_to_bools(&data, k);
    let slow_verdict = slow.decode(&mut slow_data, &checks_to_bools(&checks, fast.check_bits()));
    let (m, t) = (slow.m, slow.t);
    assert_eq!(fast_verdict, slow_verdict, "OLSC({m}, {t}) {what}");
    if !fast_verdict.is_uncorrectable() {
        assert_eq!(
            block_to_bools(&fast_data, k),
            slow_data,
            "OLSC({m}, {t}) {what}"
        );
    }
}

#[test]
fn olsc_encode_matches_the_class_table() {
    let mut g = Gen::new(1);
    for (m, t) in OLSC_GEOMETRIES {
        let (fast, slow) = (Olsc::new(m, t), reference::Olsc::new(m, t));
        for _ in 0..64 {
            let data = random_block(&mut g, m * m);
            let packed = fast.encode(&data);
            assert_eq!(
                checks_to_bools(&packed, fast.check_bits()),
                slow.encode(&block_to_bools(&data, m * m)),
                "OLSC({m}, {t})"
            );
            // Nothing is written past the block's checkbits.
            let n = fast.check_bits();
            assert_eq!(checks_to_bools(&packed, 256)[n..], vec![false; 256 - n][..]);
        }
    }
}

#[test]
fn olsc_decodes_every_one_and_two_cell_pattern_like_the_definition() {
    let mut g = Gen::new(2);
    for (m, t) in OLSC_GEOMETRIES {
        let (fast, slow) = (Olsc::new(m, t), reference::Olsc::new(m, t));
        let k = fast.data_bits();
        let cells = k + fast.check_bits();
        let data = random_block(&mut g, k);
        let checks = fast.encode(&data);
        for a in 0..cells {
            let (mut d, mut c) = (data, checks);
            flip_cell(&mut d, &mut c, k, a);
            assert_olsc_agrees(&fast, &slow, d, c, &format!("cell {a}"));
            for b in a + 1..cells {
                let (mut d2, mut c2) = (d, c);
                flip_cell(&mut d2, &mut c2, k, b);
                assert_olsc_agrees(&fast, &slow, d2, c2, &format!("cells {a},{b}"));
            }
        }
    }
}

#[test]
fn olsc_agrees_with_the_definition_beyond_t_errors() {
    let mut g = Gen::new(3);
    for (m, t) in OLSC_GEOMETRIES {
        let (fast, slow) = (Olsc::new(m, t), reference::Olsc::new(m, t));
        let k = fast.data_bits();
        let cells = k + fast.check_bits();
        for case in 0..300 {
            let data = random_block(&mut g, k);
            let (mut d, mut c) = (data, fast.encode(&data));
            let errors = g.usize_in(t + 1, (3 * t + 2).min(cells));
            for cell in g.distinct(cells, errors, errors) {
                flip_cell(&mut d, &mut c, k, cell);
            }
            assert_olsc_agrees(&fast, &slow, d, c, &format!("case {case}"));
        }
    }
}

#[test]
fn olsc_two_cells_share_at_most_one_class() {
    for (m, t) in [(4usize, 2usize), (8, 4), (16, 8)] {
        let slow = reference::Olsc::new(m, t);
        for a in 0..m * m {
            for b in a + 1..m * m {
                let shared = slow
                    .class_of
                    .iter()
                    .filter(|classes| classes[a] == classes[b])
                    .count();
                assert!(shared <= 1, "m={m}: cells {a},{b} share {shared} classes");
            }
        }
    }
}

/// The line decoder is the block decoder applied block by block, in
/// order, stopping at the first detected block.
fn reference_line_decode(
    slow: &reference::Olsc,
    line: &mut Line512,
    stored: &[bool],
) -> OlscDecode {
    let (k, per_block) = (slow.m * slow.m, 2 * slow.t * slow.m);
    let mut all = Vec::new();
    for b in 0..LINE_BITS / k {
        let mut block: Vec<bool> = (0..k).map(|i| line.bit(b * k + i)).collect();
        match slow.decode(&mut block, &stored[b * per_block..(b + 1) * per_block]) {
            OlscDecode::Clean => {}
            OlscDecode::Corrected { bits } => {
                for bit in bits {
                    line.flip_bit(b * k + bit);
                    all.push(b * k + bit);
                }
            }
            OlscDecode::Detected => return OlscDecode::Detected,
        }
    }
    if all.is_empty() {
        OlscDecode::Clean
    } else {
        OlscDecode::Corrected { bits: all }
    }
}

#[test]
fn olsc_line_decode_matches_the_blockwise_definition() {
    let mut g = Gen::new(4);
    for (m, t) in [(4usize, 1usize), (8, 2), (16, 3), (16, 4)] {
        let (fast, slow) = (OlscLine::new(m, t), reference::Olsc::new(m, t));
        let n = fast.check_bits();
        for case in 0..400 {
            let original = Line512::from_seed(g.u64());
            let mut checks = fast.encode_packed(&original);
            let mut line = original;
            let errors = g.usize_in(1, 12);
            for cell in g.distinct(LINE_BITS + n, errors, errors) {
                if cell < LINE_BITS {
                    line.flip_bit(cell);
                } else {
                    let c = cell - LINE_BITS;
                    checks[c / 64] ^= 1 << (c % 64);
                }
            }
            let mut slow_line = line;
            let expected =
                reference_line_decode(&slow, &mut slow_line, &checks_to_bools(&checks, n));
            let mut fast_line = line;
            let got = fast.decode_packed(&mut fast_line, &checks);
            assert_eq!(got, expected, "OLSC({m}, {t}) case {case}");
            assert_eq!(fast_line, slow_line, "OLSC({m}, {t}) case {case}");
        }
    }
}

/// The DEC-TED encoder as first written: a bit-serial LFSR dividing
/// `d(x) * x^20` by the generator `m1(x) * m3(x)`, highest degree first.
fn dected_reference_encode(data: &Line512) -> DectedCode {
    let (m1, m3) = (minimal_polynomial(1) as u64, minimal_polynomial(3) as u64);
    let generator = (0..=10)
        .filter(|i| (m1 >> i) & 1 == 1)
        .fold(0u64, |acc, i| acc ^ (m3 << i));
    let mask = (1u64 << BCH_BITS) - 1;
    let mut reg = 0u64;
    for i in (0..LINE_BITS).rev() {
        let feedback = ((reg >> (BCH_BITS - 1)) & 1) ^ u64::from(data.bit(i));
        reg = (reg << 1) & mask;
        if feedback == 1 {
            reg ^= generator & mask;
        }
    }
    let parity = data.parity() ^ (reg.count_ones() % 2 == 1);
    DectedCode(reg as u32 | u32::from(parity) << BCH_BITS)
}

#[test]
fn dected_encode_matches_the_bit_serial_lfsr() {
    let mut g = Gen::new(5);
    for case in 0..500 {
        let data = match case {
            0 => Line512::zero(),
            1 => Line512::from_words([!0; 8]),
            _ => Line512::from_seed(g.u64()),
        };
        assert_eq!(
            dected().encode(&data),
            dected_reference_encode(&data),
            "case {case}"
        );
    }
}

/// Cell `c` of a DEC-TED line: data bits first, then the 21 checkbits.
fn flip_dected_cell(data: &mut Line512, code: &mut DectedCode, cell: usize) {
    if cell < LINE_BITS {
        data.flip_bit(cell);
    } else {
        code.flip_bit(cell - LINE_BITS);
    }
}

#[test]
fn dected_corrects_every_one_and_two_cell_pattern() {
    const CELLS: usize = LINE_BITS + DECTED_CHECK_BITS;
    const PARITY_CELL: usize = LINE_BITS + BCH_BITS;
    let codec = dected();
    for seed in [11u64, 12, 13, 14] {
        let data = Line512::from_seed(seed);
        let code = codec.encode(&data);
        for a in 0..CELLS {
            let (mut d, mut c) = (data, code);
            flip_dected_cell(&mut d, &mut c, a);
            let verdict = codec.decode(&d, c);
            assert!(codec.apply(&mut d, verdict), "cell {a}: {verdict:?}");
            assert_eq!(d, data, "cell {a}");
            for b in a + 1..CELLS {
                let (mut d, mut c) = (data, code);
                flip_dected_cell(&mut d, &mut c, a);
                flip_dected_cell(&mut d, &mut c, b);
                let verdict = codec.decode(&d, c);
                if b == PARITY_CELL {
                    // A flipped overall-parity cell makes a double error
                    // look like an even-weight single error, which this
                    // decoder reports rather than repairs.
                    assert_eq!(verdict, DectedDecode::Detected, "cells {a},{b}");
                    continue;
                }
                assert!(codec.apply(&mut d, verdict), "cells {a},{b}: {verdict:?}");
                assert_eq!(d, data, "cells {a},{b}");
            }
        }
    }
}

#[test]
fn secded_corrects_every_single_and_detects_every_double_cell_error() {
    const CELLS: usize = LINE_BITS + SECDED_CHECK_BITS;
    let codec = secded();
    let data = Line512::from_seed(21);
    let code = codec.encode(&data);
    let flip = |d: &mut Line512, c: &mut killi_ecc::secded::SecdedCode, cell: usize| {
        if cell < LINE_BITS {
            d.flip_bit(cell);
        } else {
            c.flip_bit(cell - LINE_BITS);
        }
    };
    for a in 0..CELLS {
        let (mut d, mut c) = (data, code);
        flip(&mut d, &mut c, a);
        let verdict = codec.decode(&d, c);
        assert!(codec.apply(&mut d, verdict), "cell {a}: {verdict:?}");
        assert_eq!(d, data, "cell {a}");
        for b in a + 1..CELLS {
            let (mut d2, mut c2) = (data, code);
            flip(&mut d2, &mut c2, a);
            flip(&mut d2, &mut c2, b);
            let verdict = codec.decode(&d2, c2);
            assert!(
                matches!(verdict, SecdedDecode::DetectedDouble),
                "cells {a},{b}: {verdict:?}"
            );
        }
    }
}
