//! MS-ECC baseline: Orthogonal-Latin-Square-coded lines (Chishti et al.,
//! MICRO'09, as configured in the Killi paper's §5).
//!
//! MS-ECC protects every line with OLSC strong enough to correct ~11 faults
//! per 64B line, offering the highest usable capacity of all baselines at a
//! ~18x SECDED area cost (Table 5). We realize it with OLSC(m = 8, t = 2):
//! 2 corrections per 64-bit block, 256 checkbits per line. The MBIST oracle
//! disables the (vanishingly rare) lines exceeding per-block capability.
//! Checkbits are modelled as protected storage (not stuck-at corrupted) —
//! the paper likewise credits MS-ECC with full-strength correction; this
//! slightly favours MS-ECC and is recorded in EXPERIMENTS.md.
//!
//! The scheme is the pipeline composition [`OlscBlockCodec`] +
//! [`LineStore`] + [`OracleClassifier`] + [`PassthroughPolicy`].

use std::sync::Arc;

use killi::pipeline::{
    LineStore, OlscBlockCodec, OracleClassifier, PassthroughPolicy, ProtectionPipeline,
};
use killi_fault::map::FaultMap;

/// The MS-ECC protection scheme.
pub type MsEcc = ProtectionPipeline<OlscBlockCodec, LineStore, OracleClassifier, PassthroughPolicy>;

/// Builds MS-ECC over `l2_lines` lines with OLSC block width `m` and
/// per-block correction `t` (the paper's configuration is `m = 8`,
/// `t = 2`). Validates the OLSC geometry and map coverage.
pub fn build(map: Arc<FaultMap>, l2_lines: usize, m: usize, t: usize) -> Result<MsEcc, String> {
    if map.lines() < l2_lines {
        return Err("fault map too small".to_string());
    }
    if !matches!(m, 4 | 8 | 16) {
        return Err(format!("OLSC block width m={m} is not one of 4, 8, 16"));
    }
    if t == 0 || 2 * t > m + 1 {
        return Err(format!(
            "OLSC t={t} out of range for m={m} (need 1 <= t, 2t <= m+1)"
        ));
    }
    if 2 * t * m > 256 {
        return Err(format!(
            "OLSC({m}, {t}) checkbits ({}) exceed the 256-bit payload",
            2 * t * m
        ));
    }
    // Oracle: disable lines with more than `t` data faults in any block.
    let oracle = OracleClassifier::from_block_budget(&map, l2_lines, m * m, t);
    Ok(ProtectionPipeline::new(
        "ms-ecc",
        OlscBlockCodec::new(m, t),
        LineStore::new(l2_lines),
        oracle,
        PassthroughPolicy,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use killi_ecc::bits::Line512;
    use killi_fault::map::CellFault;
    use killi_sim::protection::{LineProtection, ReadOutcome};

    fn fault(cell: u16) -> CellFault {
        CellFault { cell, stuck: true }
    }

    fn map_with(faults: Vec<(usize, Vec<CellFault>)>) -> Arc<FaultMap> {
        let mut per_line = vec![Vec::new(); 16];
        for (line, fs) in faults {
            per_line[line] = fs;
        }
        Arc::new(FaultMap::from_faults(per_line))
    }

    /// MS-ECC with the paper's OLSC(8, 2) over a 16-line map.
    fn paper(map: Arc<FaultMap>) -> MsEcc {
        build(map, 16, 8, 2).unwrap()
    }

    #[test]
    fn corrects_many_spread_faults() {
        // 8 faults, one per 64-bit block: all correctable.
        let cells: Vec<CellFault> = (0..8).map(|b| fault(b * 64 + 3)).collect();
        let map = map_with(vec![(0, cells)]);
        let mut s = paper(Arc::clone(&map));
        assert_eq!(s.classifier().disabled_count(), 0);
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut arr = data;
        map.corrupt_data(0, &mut arr);
        assert_eq!(arr.count_ones(), 8);
        match s.on_read_hit(0, &mut arr) {
            ReadOutcome::Clean { corrected, .. } => assert!(corrected),
            other => panic!("{other:?}"),
        }
        assert_eq!(arr, data);
    }

    #[test]
    fn oracle_disables_overloaded_blocks() {
        // 3 faults in one 64-bit block exceed t = 2.
        let map = map_with(vec![(0, vec![fault(1), fault(9), fault(17)])]);
        let s = paper(map);
        assert_eq!(s.classifier().disabled_count(), 1);
        assert_eq!(s.victim_class(0), None);
    }

    #[test]
    fn eleven_fault_line_usable() {
        // The paper's "corrects up to 11 errors in a 64B line" scenario,
        // spread <= 2 per block.
        let cells: Vec<CellFault> = [3u16, 40, 70, 100, 140, 180, 210, 260, 330, 400, 480]
            .iter()
            .map(|&c| fault(c))
            .collect();
        let map = map_with(vec![(0, cells)]);
        let mut s = paper(Arc::clone(&map));
        assert_eq!(s.classifier().disabled_count(), 0);
        let data = Line512::from_seed(9);
        s.on_fill(0, &data);
        let mut arr = data;
        map.corrupt_data(0, &mut arr);
        if arr != data {
            match s.on_read_hit(0, &mut arr) {
                ReadOutcome::Clean { .. } => {}
                other => panic!("{other:?}"),
            }
            assert_eq!(arr, data);
        }
    }

    #[test]
    fn clean_lines_pass_through() {
        let map = map_with(vec![]);
        let mut s = paper(map);
        let data = Line512::from_seed(5);
        s.on_fill(0, &data);
        let mut arr = data;
        match s.on_read_hit(0, &mut arr) {
            ReadOutcome::Clean { corrected, .. } => assert!(!corrected),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn check_bit_budget_matches_paper_scale() {
        let map = map_with(vec![]);
        let s = paper(map);
        // 256 checkbits per 512-bit line: the ~18x-SECDED area class.
        assert_eq!(s.codec().check_bits(), 256);
    }

    #[test]
    fn build_reports_bad_geometry() {
        let map = map_with(vec![]);
        let err = build(Arc::clone(&map), 16, 5, 2).unwrap_err();
        assert!(err.contains("block width"), "{err}");
        let err = build(Arc::clone(&map), 16, 8, 5).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = build(map, 64, 8, 2).unwrap_err();
        assert_eq!(err, "fault map too small");
    }
}
