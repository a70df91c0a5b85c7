//! Property-based tests for the error-coding substrate (killi-check
//! harness).

use killi_check::{check, Gen};
use killi_ecc::bch::{dected, DectedDecode};
use killi_ecc::bits::{Line512, LINE_BITS};
use killi_ecc::olsc::{OlscDecode, OlscLine};
use killi_ecc::parity::{seg16, seg4, SegObservation};
use killi_ecc::secded::{secded, SecdedDecode};

fn gen_line(g: &mut Gen) -> Line512 {
    Line512::from_seed(g.u64())
}

#[test]
fn secded_corrects_any_single_bit() {
    check("secded_corrects_any_single_bit", |g| {
        let data = gen_line(g);
        let bit = g.usize_in(0, LINE_BITS);
        let code = secded().encode(&data);
        let mut corrupted = data;
        corrupted.flip_bit(bit);
        let d = secded().decode(&corrupted, code);
        assert_eq!(d, SecdedDecode::CorrectedData { bit });
        let mut fixed = corrupted;
        assert!(secded().apply(&mut fixed, d));
        assert_eq!(fixed, data);
    });
}

#[test]
fn secded_detects_any_double_bit() {
    check("secded_detects_any_double_bit", |g| {
        let data = gen_line(g);
        let bits: Vec<usize> = g.distinct(LINE_BITS, 2, 2).into_iter().collect();
        let code = secded().encode(&data);
        let mut corrupted = data;
        corrupted.flip_bit(bits[0]);
        corrupted.flip_bit(bits[1]);
        assert_eq!(
            secded().decode(&corrupted, code),
            SecdedDecode::DetectedDouble
        );
    });
}

#[test]
fn dected_corrects_any_double_bit() {
    check("dected_corrects_any_double_bit", |g| {
        let data = gen_line(g);
        let bits: Vec<usize> = g.distinct(LINE_BITS, 2, 2).into_iter().collect();
        let code = dected().encode(&data);
        let mut corrupted = data;
        corrupted.flip_bit(bits[0]);
        corrupted.flip_bit(bits[1]);
        let d = dected().decode(&corrupted, code);
        let mut fixed = corrupted;
        assert!(dected().apply(&mut fixed, d), "{d:?}");
        assert_eq!(fixed, data);
    });
}

#[test]
fn dected_never_reports_triple_as_clean() {
    check("dected_never_reports_triple_as_clean", |g| {
        let data = gen_line(g);
        let bits = g.distinct(LINE_BITS, 3, 3);
        let code = dected().encode(&data);
        let mut corrupted = data;
        for &b in &bits {
            corrupted.flip_bit(b);
        }
        assert_ne!(dected().decode(&corrupted, code), DectedDecode::Clean);
    });
}

#[test]
fn seg16_flags_every_single_flip() {
    check("seg16_flags_every_single_flip", |g| {
        let data = gen_line(g);
        let bit = g.usize_in(0, LINE_BITS);
        let stored = seg16(&data);
        let mut corrupted = data;
        corrupted.flip_bit(bit);
        assert_eq!(
            SegObservation::observe16(stored, seg16(&corrupted)),
            SegObservation::OneSegment((bit % 16) as u8)
        );
    });
}

#[test]
fn seg4_flags_every_single_flip() {
    check("seg4_flags_every_single_flip", |g| {
        let data = gen_line(g);
        let bit = g.usize_in(0, LINE_BITS);
        let stored = seg4(&data);
        let mut corrupted = data;
        corrupted.flip_bit(bit);
        assert_eq!(
            SegObservation::observe4(stored, seg4(&corrupted)),
            SegObservation::OneSegment((bit % 4) as u8)
        );
    });
}

#[test]
fn parity_mismatch_count_equals_odd_residue_classes() {
    check("parity_mismatch_count_equals_odd_residue_classes", |g| {
        let data = gen_line(g);
        let bits = g.distinct(LINE_BITS, 0, 7);
        let stored = seg16(&data);
        let mut corrupted = data;
        let mut per_class = [0usize; 16];
        for &b in &bits {
            corrupted.flip_bit(b);
            per_class[b % 16] += 1;
        }
        let odd_classes = per_class.iter().filter(|&&n| n % 2 == 1).count();
        let diff = (stored ^ seg16(&corrupted)).count_ones() as usize;
        assert_eq!(diff, odd_classes);
    });
}

#[test]
fn olsc_corrects_up_to_t_spread_errors() {
    check("olsc_corrects_up_to_t_spread_errors", |g| {
        // At most t=2 errors per 64-bit block: distinct blocks, one flip
        // in each.
        let codec = OlscLine::new(8, 2);
        let data = gen_line(g);
        let offsets = g.vec(1, 7, |g| g.usize_in(0, 64));
        let check = codec.encode(&data);
        let mut corrupted = data;
        for (i, &off) in offsets.iter().enumerate().take(8) {
            let block = i % 8;
            corrupted.flip_bit(block * 64 + off);
        }
        let mut fixed = corrupted;
        let d = codec.decode(&mut fixed, &check);
        assert!(!matches!(d, OlscDecode::Detected), "{d:?}");
        assert_eq!(fixed, data);
    });
}

#[test]
fn line_xor_roundtrip() {
    check("line_xor_roundtrip", |g| {
        let a = gen_line(g);
        let b = gen_line(g);
        assert_eq!((a ^ b) ^ b, a);
    });
}

#[test]
fn inversion_preserves_segment_parity_of_even_segments() {
    check("inversion_preserves_segment_parity_of_even_segments", |g| {
        // Every interleaved segment has an even bit count, so inversion
        // never changes segment parity — the §5.6.2 analysis relies on it.
        let l = gen_line(g);
        assert_eq!(seg16(&l), seg16(&l.inverted()));
        assert_eq!(seg4(&l), seg4(&l.inverted()));
    });
}
