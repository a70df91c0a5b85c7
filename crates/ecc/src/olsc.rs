//! Orthogonal Latin Square Codes (OLSC) with one-step majority-logic
//! decoding.
//!
//! MS-ECC [Chishti et al., MICRO'09] and the low-Vmin Killi variant (§5.5)
//! protect lines with OLSC because the code strength scales smoothly: for an
//! `m x m` data block (`k = m^2` bits), a `t`-error-correcting OLSC uses
//! `2*t*m` checkbits organized as `2t` *groups* of `m` parity classes each
//! (rows, columns, and `2t - 2` Latin-square diagonals). Any two data cells
//! share at most one class across all groups, so a single pass of majority
//! voting over the `2t` check sums corrects up to `t` errors.
//!
//! The codec is word-parallel (SWAR). Cell `(i, j)` of a block is bit
//! `i * m + j`, so a block is `m` rows of `m` bits, packed into 64-bit
//! lanes: row parities fold each lane, column parities XOR the lanes
//! together, and Latin-square group `g` puts cell `(i, j)` in class
//! `a_i ^ j` with `a_i = gf_mul(g - 1, i)`, so XOR-permuting each row by
//! `a_i` (`log2(m)` delta swaps with masks precomputed in [`Olsc::new`])
//! turns that group into columns too. Decoding expands each group's fired
//! classes back into a cell mask with the same swaps (the permutation is
//! its own inverse), takes a bit-sliced `> t` of `2t` majority, and
//! recomputes the syndrome for the residual check. Checkbits travel
//! packed ([`OlscChecks`]): bit `g * m + c` of a block's checkbits is
//! the parity of class `c` of group `g`, and a line's blocks follow each
//! other, block `b` starting at bit `b * 2 * t * m`.

use crate::bits::Line512;

/// Maximum words backing an OLSC data block (`k <= 256` bits).
const DATA_WORDS: usize = 4;

/// Maximum parity groups per block (`2t <= m <= 16`).
const MAX_GROUPS: usize = 16;

/// Bit-sliced vote counter width: up to `2t <= 16` votes per cell.
const COUNTER_BITS: usize = 5;

/// A `k = m^2`-bit OLSC data block (bits beyond `k` must stay zero).
pub type OlscBlock = [u64; DATA_WORDS];

/// Packed OLSC checkbits, group-major (see the module docs). Holds one
/// block's checkbits or a whole line's, up to 256 bits.
pub type OlscChecks = [u64; 4];

/// GF(2^e) multiply for tiny fields (m = 4, 8, 16), used to build the
/// mutually orthogonal Latin squares.
fn gf_mul_small(m: usize, a: usize, b: usize) -> usize {
    let poly = match m {
        4 => 0b111,    // x^2 + x + 1
        8 => 0b1011,   // x^3 + x + 1
        16 => 0b10011, // x^4 + x + 1
        _ => unreachable!(),
    };
    let bits = m.trailing_zeros() as usize;
    let mut acc = 0usize;
    let mut aa = a;
    let mut bb = b;
    while bb != 0 {
        if bb & 1 == 1 {
            acc ^= aa;
        }
        aa <<= 1;
        if aa & m != 0 {
            aa ^= poly;
        }
        bb >>= 1;
    }
    debug_assert!(acc < (1 << bits));
    acc
}

/// Words a block of width `m` spans.
const fn block_words(m: usize) -> usize {
    if m == 16 {
        4
    } else {
        1
    }
}

/// Rows of a block of width `m` held per word.
const fn rows_per_word(m: usize) -> usize {
    if m == 16 {
        4
    } else {
        m
    }
}

/// The low `width` bits set.
const fn low_bits(width: usize) -> u64 {
    (1 << width) - 1
}

/// Bit 0 of every row lane in a block word.
const fn lane_ones(m: usize) -> u64 {
    let mut ones = 0;
    let mut lane = 0;
    while lane < rows_per_word(m) {
        ones |= 1 << (lane * m);
        lane += 1;
    }
    ones
}

/// XORs every `m`-bit lane of `x` into the low lane.
#[inline(always)]
fn fold_lanes<const M: usize>(mut x: u64) -> u64 {
    let mut shift = (M * M).min(64) / 2;
    while shift >= M {
        x ^= x >> shift;
        shift /= 2;
    }
    x & low_bits(M)
}

/// Parity of each row lane of a block word, row `l` of the word at bit
/// `l`: fold every lane onto its bit 0, then gather those bits with one
/// multiply (every partial product lands on its own bit, so no carries).
#[inline(always)]
fn row_parities<const M: usize>(mut x: u64) -> u64 {
    let mut shift = M / 2;
    while shift >= 1 {
        x ^= x >> shift;
        shift /= 2;
    }
    let (gather, at): (u64, u32) = match M {
        4 => (0x1248, 12),
        8 => (0x0102_0408_1020_4080, 56),
        _ => (0x0001_0002_0004_0008, 48),
    };
    ((x & lane_ones(M)).wrapping_mul(gather) >> at) & low_bits(rows_per_word(M))
}

/// Bit `l` of row lane `l`, for every row lane in a block word.
const fn lane_diagonal(m: usize) -> u64 {
    let mut diagonal = 0;
    let mut lane = 0;
    while lane < rows_per_word(m) {
        diagonal |= 1 << (lane * m + lane);
        lane += 1;
    }
    diagonal
}

/// Widens bit `l` of `rows` to all of row lane `l` (the inverse of
/// [`row_parities`]): replicate `rows` into every lane, keep bit `l` in
/// lane `l`, and turn each non-zero lane into all ones.
#[inline(always)]
fn spread_rows<const M: usize>(rows: u64) -> u64 {
    let ones = lane_ones(M);
    let picked = rows.wrapping_mul(ones) & lane_diagonal(M);
    let nonzero = picked.wrapping_add(ones * low_bits(M - 1)) & (ones << (M - 1));
    (nonzero >> (M - 1)) * low_bits(M)
}

/// One delta swap per bit of the row offsets: exchanges bit `p` and bit
/// `p + 2^k` wherever `masks[k]` selects `p`.
#[inline(always)]
fn permute<const M: usize>(mut x: u64, masks: &[u64; 4]) -> u64 {
    let mut k = 0;
    while (1 << k) < M {
        let d = ((x >> (1 << k)) ^ x) & masks[k];
        x ^= d ^ (d << (1 << k));
        k += 1;
    }
    x
}

/// Cells with more than `t` votes, from a bit-sliced vote count.
fn exceeds(count: &[u64; COUNTER_BITS], t: usize) -> u64 {
    let mut greater = 0;
    let mut equal = !0;
    for k in (0..COUNTER_BITS).rev() {
        if (t >> k) & 1 == 1 {
            equal &= count[k];
        } else {
            greater |= equal & count[k];
            equal &= !count[k];
        }
    }
    greater
}

/// Writes an `m`-bit group value at bit `at` (never straddles words:
/// `at` is a multiple of `m`, which divides 64).
fn put(checks: &mut OlscChecks, at: usize, value: u64) {
    checks[at / 64] |= value << (at % 64);
}

/// Reads the `width`-bit group value at bit `at`.
fn get(checks: &OlscChecks, at: usize, width: usize) -> u64 {
    (checks[at / 64] >> (at % 64)) & low_bits(width)
}

/// Decode verdict of the OLSC codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OlscDecode {
    /// No error detected.
    Clean,
    /// Errors corrected at the listed data-bit indices, ascending
    /// (checkbit-cell errors are absorbed silently).
    Corrected { bits: Vec<usize> },
    /// Residual inconsistency after majority voting: more than `t` errors.
    Detected,
}

impl OlscDecode {
    /// True when the data cannot be recovered.
    pub fn is_uncorrectable(&self) -> bool {
        matches!(self, OlscDecode::Detected)
    }
}

/// Majority-logic outcome for one block.
enum BlockFix {
    /// Only checkbit cells disagree, and no more than `t` of them.
    Clean,
    /// Flip these data bits.
    Corrected(OlscBlock),
    /// More than `t` check sums still disagree after voting.
    Detected,
}

/// A `t`-error-correcting OLSC over an `m x m` data block.
#[derive(Debug, Clone)]
pub struct Olsc {
    m: usize,
    t: usize,
    /// `swaps[g - 2][w][k]`: the delta-swap mask that XOR-permutes the
    /// rows held in block word `w` by bit `k` of their Latin-square
    /// offsets in group `g`.
    swaps: Vec<[[u64; 4]; DATA_WORDS]>,
}

impl Olsc {
    /// Builds a codec for an `m x m` block correcting `t` errors.
    ///
    /// # Panics
    ///
    /// Panics unless `m` is 4, 8 or 16 and `1 <= t <= (m + 1) / 2` (the
    /// field supplies only `m - 1` Latin squares plus rows and columns).
    pub fn new(m: usize, t: usize) -> Self {
        assert!(
            matches!(m, 4 | 8 | 16),
            "OLSC block width {m} unsupported (use 4, 8 or 16)"
        );
        assert!(t >= 1 && 2 * t <= m + 1, "t = {t} out of range for m = {m}");
        let swaps = (2..2 * t)
            .map(|g| {
                let mut masks = [[0u64; 4]; DATA_WORDS];
                for i in 0..m {
                    let offset = gf_mul_small(m, g - 1, i);
                    let lane = (i % rows_per_word(m)) * m;
                    for (k, mask) in masks[i / rows_per_word(m)].iter_mut().enumerate() {
                        if (offset >> k) & 1 == 1 {
                            for p in (0..m).filter(|p| (p >> k) & 1 == 0) {
                                *mask |= 1 << (lane + p);
                            }
                        }
                    }
                }
                masks
            })
            .collect();
        Olsc { m, t, swaps }
    }

    /// Number of data bits per block (`m^2`).
    pub fn data_bits(&self) -> usize {
        self.m * self.m
    }

    /// Number of checkbits per block (`2 * t * m`).
    pub fn check_bits(&self) -> usize {
        2 * self.t * self.m
    }

    /// Class parities of every group, group `g` in `out[g]` (bit `c` is
    /// class `c`).
    #[inline(always)]
    fn parities<const M: usize>(&self, block: &OlscBlock, out: &mut [u64; MAX_GROUPS]) {
        let words = &block[..block_words(M)];
        let mut rows = 0;
        let mut columns = 0;
        for (w, &word) in words.iter().enumerate() {
            rows |= row_parities::<M>(word) << (w * rows_per_word(M));
            columns ^= word;
        }
        out[0] = rows;
        out[1] = fold_lanes::<M>(columns);
        for (g, masks) in self.swaps.iter().enumerate() {
            let mut permuted = 0;
            for (&word, masks) in words.iter().zip(masks) {
                permuted ^= permute::<M>(word, masks);
            }
            out[g + 2] = fold_lanes::<M>(permuted);
        }
    }

    /// Majority-logic correction of a block given its per-group syndrome
    /// (recomputed XOR stored class parities; at least one non-zero).
    fn fix<const M: usize>(&self, syndrome: &[u64; MAX_GROUPS]) -> BlockFix {
        let mut flips = [0u64; DATA_WORDS];
        for (w, flip) in flips.iter_mut().enumerate().take(block_words(M)) {
            let shift = w * rows_per_word(M);
            let mut count = [0u64; COUNTER_BITS];
            let mut vote = |cells: u64| {
                let mut carry = cells;
                for bit in &mut count {
                    let next = *bit & carry;
                    *bit ^= carry;
                    carry = next;
                }
            };
            if syndrome[0] != 0 {
                vote(spread_rows::<M>(
                    (syndrome[0] >> shift) & low_bits(rows_per_word(M)),
                ));
            }
            if syndrome[1] != 0 {
                vote(syndrome[1] * lane_ones(M));
            }
            for (masks, &fired) in self.swaps.iter().zip(&syndrome[2..]) {
                if fired != 0 {
                    vote(permute::<M>(fired * lane_ones(M), &masks[w]));
                }
            }
            *flip = exceeds(&count, self.t);
        }
        // The code is linear, so the syndrome after flipping is the old
        // one XOR the class parities of the flips.
        let mut flipped = [0u64; MAX_GROUPS];
        self.parities::<M>(&flips, &mut flipped);
        let residual: u32 = (0..2 * self.t)
            .map(|g| (syndrome[g] ^ flipped[g]).count_ones())
            .sum();
        if residual as usize > self.t {
            BlockFix::Detected
        } else if flips == [0; DATA_WORDS] {
            BlockFix::Clean
        } else {
            BlockFix::Corrected(flips)
        }
    }

    /// Encodes a data block into its packed checkbits.
    pub fn encode(&self, data: &OlscBlock) -> OlscChecks {
        self.encode_words(data, 1)
    }

    /// Decodes a received (data, packed checkbits) pair, correcting `data`
    /// in place; corrected bits are block bit indices.
    pub fn decode(&self, data: &mut OlscBlock, stored: &OlscChecks) -> OlscDecode {
        self.decode_words(data, 1, stored)
    }

    /// Packed checkbits of the first `blocks` blocks packed in `words`.
    fn encode_words(&self, words: &[u64], blocks: usize) -> OlscChecks {
        match self.m {
            4 => self.encode_blocks::<4>(words, blocks),
            8 => self.encode_blocks::<8>(words, blocks),
            _ => self.encode_blocks::<16>(words, blocks),
        }
    }

    /// Decodes the first `blocks` blocks packed in `words` in order; a
    /// block with more than `t` errors stops the decode with
    /// [`OlscDecode::Detected`], leaving the corrections of earlier
    /// blocks applied and its own data untouched.
    fn decode_words(&self, words: &mut [u64], blocks: usize, stored: &OlscChecks) -> OlscDecode {
        match self.m {
            4 => self.decode_blocks::<4>(words, blocks, stored),
            8 => self.decode_blocks::<8>(words, blocks, stored),
            _ => self.decode_blocks::<16>(words, blocks, stored),
        }
    }

    fn encode_blocks<const M: usize>(&self, words: &[u64], blocks: usize) -> OlscChecks {
        let groups = 2 * self.t;
        let mut out = [0; 4];
        let mut parities = [0; MAX_GROUPS];
        for b in 0..blocks {
            self.parities::<M>(&block::<M>(words, b), &mut parities);
            for (g, &value) in parities[..groups].iter().enumerate() {
                put(&mut out, (b * groups + g) * M, value);
            }
        }
        out
    }

    fn decode_blocks<const M: usize>(
        &self,
        words: &mut [u64],
        blocks: usize,
        stored: &OlscChecks,
    ) -> OlscDecode {
        let groups = 2 * self.t;
        let mut syndrome = self.encode_blocks::<M>(words, blocks);
        let used = blocks * groups * M;
        for (w, (s, &c)) in syndrome.iter_mut().zip(stored).enumerate() {
            let width = used.saturating_sub(w * 64).min(64);
            *s = (*s ^ c) & if width == 64 { !0 } else { low_bits(width) };
        }
        if syndrome == [0; 4] {
            return OlscDecode::Clean;
        }
        let mut bits = Vec::new();
        for b in 0..blocks {
            let mut block_syndrome = [0; MAX_GROUPS];
            for (g, s) in block_syndrome[..groups].iter_mut().enumerate() {
                *s = get(&syndrome, (b * groups + g) * M, M);
            }
            if block_syndrome == [0; MAX_GROUPS] {
                continue;
            }
            match self.fix::<M>(&block_syndrome) {
                BlockFix::Clean => {}
                BlockFix::Detected => return OlscDecode::Detected,
                BlockFix::Corrected(flips) => {
                    flip_block::<M>(words, b, &flips);
                    for (w, &flip) in flips.iter().enumerate() {
                        push_bits(&mut bits, b * M * M + w * 64, flip);
                    }
                }
            }
        }
        if bits.is_empty() {
            OlscDecode::Clean
        } else {
            OlscDecode::Corrected { bits }
        }
    }
}

/// Block `b` of the width-`M` blocks packed in `words`.
fn block<const M: usize>(words: &[u64], b: usize) -> OlscBlock {
    match M {
        4 => [(words[b / 4] >> (16 * (b % 4))) & 0xFFFF, 0, 0, 0],
        8 => [words[b], 0, 0, 0],
        _ => [
            words[4 * b],
            words[4 * b + 1],
            words[4 * b + 2],
            words[4 * b + 3],
        ],
    }
}

/// Flips the bits `flips` selects in block `b` of `words`.
fn flip_block<const M: usize>(words: &mut [u64], b: usize, flips: &OlscBlock) {
    match M {
        4 => words[b / 4] ^= flips[0] << (16 * (b % 4)),
        8 => words[b] ^= flips[0],
        _ => {
            for (word, flip) in words[4 * b..4 * b + 4].iter_mut().zip(flips) {
                *word ^= flip;
            }
        }
    }
}

/// Appends the set bits of `word`, ascending, offset by `base`.
fn push_bits(bits: &mut Vec<usize>, base: usize, mut word: u64) {
    while word != 0 {
        bits.push(base + word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

/// OLSC protection for a whole 512-bit cache line, built from
/// `512 / m^2` independent blocks.
#[derive(Debug, Clone)]
pub struct OlscLine {
    codec: Olsc,
    blocks: usize,
}

impl OlscLine {
    /// Builds a line codec from per-block parameters.
    ///
    /// # Panics
    ///
    /// Panics if `m^2` does not divide 512 or the line's checkbits exceed
    /// the 256 bits of [`OlscChecks`].
    pub fn new(m: usize, t: usize) -> Self {
        let codec = Olsc::new(m, t);
        assert_eq!(
            512 % codec.data_bits(),
            0,
            "block size {} does not divide the line",
            codec.data_bits()
        );
        let blocks = 512 / codec.data_bits();
        assert!(
            blocks * codec.check_bits() <= 256,
            "OLSC({m}, {t}) checkbits exceed the 256-bit payload"
        );
        OlscLine { codec, blocks }
    }

    /// Total checkbits per line.
    pub fn check_bits(&self) -> usize {
        self.blocks * self.codec.check_bits()
    }

    /// Encodes a line into its packed checkbits.
    pub fn encode_packed(&self, line: &Line512) -> OlscChecks {
        self.codec.encode_words(line.words(), self.blocks)
    }

    /// Decodes a line in place against packed checkbits. Blocks are
    /// decoded in order; a block with more than `t` errors stops the
    /// decode with [`OlscDecode::Detected`], leaving the corrections of
    /// earlier blocks applied and its own data untouched.
    pub fn decode_packed(&self, line: &mut Line512, stored: &OlscChecks) -> OlscDecode {
        self.codec.decode_words(&mut line.0, self.blocks, stored)
    }

    /// Encodes a line into one `bool` per checkbit, in packed bit order.
    ///
    /// An adapter over [`OlscLine::encode_packed`] kept for callers that
    /// predate the packed form (the benchmark's codec timings); a later
    /// benchmark change can move them to the packed form and drop it.
    pub fn encode(&self, line: &Line512) -> Vec<bool> {
        let packed = self.encode_packed(line);
        (0..self.check_bits())
            .map(|i| (packed[i / 64] >> (i % 64)) & 1 == 1)
            .collect()
    }

    /// Decodes a line in place against one `bool` per checkbit.
    ///
    /// An adapter over [`OlscLine::decode_packed`], kept (like
    /// [`OlscLine::encode`]) only for callers that predate the packed form.
    ///
    /// # Panics
    ///
    /// Panics if `stored.len() != self.check_bits()`.
    pub fn decode(&self, line: &mut Line512, stored: &[bool]) -> OlscDecode {
        assert_eq!(stored.len(), self.check_bits(), "checkbit count mismatch");
        let mut packed = [0u64; 4];
        for (word, bits) in packed.iter_mut().zip(stored.chunks(64)) {
            *word = bits
                .iter()
                .rev()
                .fold(0, |acc, &bit| acc << 1 | u64::from(bit));
        }
        self.decode_packed(line, &packed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_block(seed: u64, k: usize) -> OlscBlock {
        let line = Line512::from_seed(seed);
        let mut block = [0u64; DATA_WORDS];
        for bit in 0..k {
            if line.bit(bit) {
                block[bit / 64] |= 1 << (bit % 64);
            }
        }
        block
    }

    #[test]
    fn check_bit_counts() {
        assert_eq!(Olsc::new(8, 2).check_bits(), 32);
        assert_eq!(Olsc::new(8, 4).check_bits(), 64);
        assert_eq!(Olsc::new(16, 3).check_bits(), 96);
        assert_eq!(OlscLine::new(8, 2).check_bits(), 256); // 8 blocks x 32
        assert_eq!(OlscLine::new(16, 3).check_bits(), 192); // 2 blocks x 96
    }

    #[test]
    fn row_gather_and_spread_agree_with_a_per_lane_loop() {
        fn check<const M: usize>() {
            for rows in 0..1u64 << rows_per_word(M) {
                let (mut lsbs, mut lanes) = (0, 0);
                for l in (0..rows_per_word(M)).filter(|l| (rows >> l) & 1 == 1) {
                    lsbs |= 1 << (l * M);
                    lanes |= low_bits(M) << (l * M);
                }
                assert_eq!(row_parities::<M>(lsbs), rows, "m={M} rows={rows:b}");
                assert_eq!(spread_rows::<M>(rows), lanes, "m={M} rows={rows:b}");
            }
        }
        check::<4>();
        check::<8>();
        check::<16>();
    }

    #[test]
    fn clean_roundtrip() {
        for (m, t) in [(4usize, 2usize), (8, 2), (8, 4), (16, 3)] {
            let codec = Olsc::new(m, t);
            let mut data = random_block(99, codec.data_bits());
            let check = codec.encode(&data);
            assert_eq!(codec.decode(&mut data, &check), OlscDecode::Clean);
        }
    }

    #[test]
    fn corrects_up_to_t_errors_per_block() {
        for (m, t) in [(8usize, 2usize), (8, 4), (16, 3)] {
            let codec = Olsc::new(m, t);
            let k = codec.data_bits();
            let original = random_block(7, k);
            let check = codec.encode(&original);
            for ne in 1..=t {
                let mut data = original;
                for e in 0..ne {
                    let bit = (e * 37 + 5) % k;
                    data[bit / 64] ^= 1 << (bit % 64);
                }
                let d = codec.decode(&mut data, &check);
                assert!(
                    matches!(d, OlscDecode::Corrected { .. }),
                    "m={m} t={t} ne={ne}: {d:?}"
                );
                assert_eq!(data, original, "m={m} t={t} ne={ne}");
            }
        }
    }

    #[test]
    fn line_codec_corrects_spread_errors() {
        let codec = OlscLine::new(8, 2); // 2 per 64-bit block
        let original = Line512::from_seed(123);
        let check = codec.encode_packed(&original);
        let mut line = original;
        // 11 errors spread across blocks with <= 2 per block.
        let bits = [3usize, 40, 70, 100, 140, 180, 210, 260, 330, 400, 480];
        for bit in bits {
            line.flip_bit(bit);
        }
        let d = codec.decode_packed(&mut line, &check);
        assert_eq!(
            d,
            OlscDecode::Corrected {
                bits: bits.to_vec()
            }
        );
        assert_eq!(line, original);
    }

    #[test]
    fn bool_adapters_match_the_packed_form() {
        for (m, t) in [(4usize, 1usize), (8, 2), (16, 4)] {
            let codec = OlscLine::new(m, t);
            let original = Line512::from_seed(m as u64);
            let packed = codec.encode_packed(&original);
            let bools = codec.encode(&original);
            assert_eq!(bools.len(), codec.check_bits());
            for (i, &bit) in bools.iter().enumerate() {
                assert_eq!(bit, (packed[i / 64] >> (i % 64)) & 1 == 1, "m={m} bit {i}");
            }
            let mut a = original;
            let mut b = original;
            a.flip_bit(5);
            b.flip_bit(5);
            assert_eq!(
                codec.decode(&mut a, &bools),
                codec.decode_packed(&mut b, &packed)
            );
            assert_eq!(a, original);
            assert_eq!(b, original);
        }
    }

    #[test]
    fn too_many_errors_in_one_block_detected() {
        let codec = OlscLine::new(8, 2);
        let original = Line512::from_seed(124);
        let check = codec.encode_packed(&original);
        let mut line = original;
        // 5 errors inside block 0 exceed t = 2.
        for bit in [0usize, 9, 18, 27, 36] {
            line.flip_bit(bit);
        }
        let d = codec.decode_packed(&mut line, &check);
        // Majority logic must not silently "succeed" with wrong data: either
        // it detects, or any claimed correction must be wrong and caught here.
        match d {
            OlscDecode::Detected => {}
            _ => assert_ne!(line, original, "silent miscorrection to clean data"),
        }
    }

    #[test]
    fn checkbit_cell_errors_tolerated() {
        let codec = Olsc::new(8, 2);
        let original = random_block(55, codec.data_bits());
        let mut check = codec.encode(&original);
        check[0] ^= 1 << 5; // one faulty checkbit cell
        let mut data = original;
        let d = codec.decode(&mut data, &check);
        assert_eq!(d, OlscDecode::Clean);
        assert_eq!(data, original);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_oversized_t() {
        Olsc::new(8, 5);
    }

    #[test]
    #[should_panic(expected = "exceed the 256-bit payload")]
    fn line_rejects_checkbits_beyond_the_payload() {
        OlscLine::new(8, 4);
    }
}
