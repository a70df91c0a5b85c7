//! Per-line ECC baselines: SECDED (FLAIR after training) and DEC-TED.
//!
//! These schemes follow the paper's evaluation methodology (§5.1): "we
//! assume a pre-characterization phase (MBIST) where each line in the cache
//! is bitmapped and flagged either as enabled or disabled". The oracle
//! disable map comes straight from the injected fault population — exactly
//! the information MBIST would produce — and the reported runtime excludes
//! the characterization cost, as in the paper.
//!
//! FLAIR's steady state is SECDED per line with >= 2-fault lines disabled;
//! the DECTED baseline disables >= 3-fault lines. Checkbits live in the
//! low-voltage array, so they are subject to stuck-at corruption like the
//! data.
//!
//! Both are pure pipeline compositions: a per-line codec + [`LineStore`] +
//! [`OracleClassifier`] + [`PassthroughPolicy`].

use std::sync::Arc;

use killi::pipeline::{
    CodecVerdict, DectedLineCodec, DetectionCodec, LineStore, OracleClassifier, PassthroughPolicy,
    ProtectionPipeline, SecdedLineCodec,
};
use killi_ecc::bits::Line512;
use killi_fault::map::{layout, FaultMap, LineId};

use killi::ecc_cache::EccPayload;

/// Which per-line code a [`PerLineEcc`] baseline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccStrength {
    /// SECDED(523, 512): corrects 1, detects 2; disable at >= 2 faults.
    Secded,
    /// DEC-TED BCH: corrects 2, detects 3; disable at >= 3 faults.
    Dected,
}

impl EccStrength {
    fn disable_threshold(self) -> usize {
        match self {
            EccStrength::Secded => 2,
            EccStrength::Dected => 3,
        }
    }

    fn checkbit_cells(self) -> std::ops::Range<u16> {
        match self {
            EccStrength::Secded => layout::SECDED,
            EccStrength::Dected => layout::DECTED,
        }
    }
}

/// Either per-line codec, selected by [`EccStrength`].
#[derive(Debug, Clone)]
pub enum PerLineCodec {
    /// SECDED(523, 512).
    Secded(SecdedLineCodec),
    /// DEC-TED BCH.
    Dected(DectedLineCodec),
}

impl DetectionCodec for PerLineCodec {
    fn check_latency(&self) -> u32 {
        match self {
            PerLineCodec::Secded(c) => c.check_latency(),
            PerLineCodec::Dected(c) => c.check_latency(),
        }
    }

    fn encode(&mut self, line: LineId, data: &Line512) -> EccPayload {
        match self {
            PerLineCodec::Secded(c) => c.encode(line, data),
            PerLineCodec::Dected(c) => c.encode(line, data),
        }
    }

    fn check(&mut self, line: LineId, stored: &mut Line512, payload: &EccPayload) -> CodecVerdict {
        match self {
            PerLineCodec::Secded(c) => c.check(line, stored, payload),
            PerLineCodec::Dected(c) => c.check(line, stored, payload),
        }
    }
}

/// A pre-characterized per-line ECC baseline scheme.
pub type PerLineEcc =
    ProtectionPipeline<PerLineCodec, LineStore, OracleClassifier, PassthroughPolicy>;

/// Builds a per-line baseline named `name` over `l2_lines` lines; the
/// MBIST oracle disables every line whose protected region (data +
/// checkbits) has at least the strength's threshold of faults. FLAIR's
/// post-training steady state is `("flair", EccStrength::Secded)` (its
/// online characterization cost is excluded, as in the paper's own
/// simulations).
pub fn build(
    name: &'static str,
    strength: EccStrength,
    map: Arc<FaultMap>,
    l2_lines: usize,
) -> Result<PerLineEcc, String> {
    if map.lines() < l2_lines {
        return Err("fault map too small".to_string());
    }
    let oracle = OracleClassifier::from_threshold(
        &map,
        l2_lines,
        strength.checkbit_cells(),
        strength.disable_threshold(),
    );
    let codec = match strength {
        EccStrength::Secded => PerLineCodec::Secded(SecdedLineCodec::new(map)),
        EccStrength::Dected => PerLineCodec::Dected(DectedLineCodec::new(map)),
    };
    Ok(ProtectionPipeline::new(
        name,
        codec,
        LineStore::new(l2_lines),
        oracle,
        PassthroughPolicy,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use killi_fault::map::CellFault;
    use killi_sim::protection::{LineProtection, ReadOutcome};

    fn fault(cell: u16, stuck: bool) -> CellFault {
        CellFault { cell, stuck }
    }

    fn map_with(faults: Vec<(usize, Vec<CellFault>)>) -> Arc<FaultMap> {
        let mut per_line = vec![Vec::new(); 16];
        for (line, fs) in faults {
            per_line[line] = fs;
        }
        Arc::new(FaultMap::from_faults(per_line))
    }

    fn flair(map: Arc<FaultMap>) -> PerLineEcc {
        build("flair", EccStrength::Secded, map, 16).unwrap()
    }

    fn dected(map: Arc<FaultMap>) -> PerLineEcc {
        build("dected", EccStrength::Dected, map, 16).unwrap()
    }

    #[test]
    fn oracle_disables_by_threshold() {
        let map = map_with(vec![
            (0, vec![fault(1, true)]),
            (1, vec![fault(1, true), fault(2, true)]),
            (2, vec![fault(1, true), fault(2, true), fault(3, true)]),
        ]);
        let flair = flair(Arc::clone(&map));
        assert_eq!(
            flair.classifier().disabled_count(),
            2,
            "2 and 3 faults disabled"
        );
        assert_eq!(flair.victim_class(0), Some(0));
        assert_eq!(flair.victim_class(1), None);

        let dected = dected(map);
        assert_eq!(
            dected.classifier().disabled_count(),
            1,
            "only >= 3 faults disabled"
        );
        assert_eq!(dected.victim_class(1), Some(0));
        assert_eq!(dected.victim_class(2), None);
    }

    #[test]
    fn checkbit_cell_faults_count_toward_disable() {
        let map = map_with(vec![(
            0,
            vec![fault(layout::SECDED.start, true), fault(5, true)],
        )]);
        let flair = flair(map);
        assert_eq!(flair.classifier().disabled_count(), 1);
    }

    #[test]
    fn secded_corrects_single_fault() {
        let map = map_with(vec![(0, vec![fault(10, true)])]);
        let mut s = flair(Arc::clone(&map));
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut arr = data;
        map.corrupt_data(0, &mut arr);
        match s.on_read_hit(0, &mut arr) {
            ReadOutcome::Clean { corrected, .. } => assert!(corrected),
            other => panic!("{other:?}"),
        }
        assert_eq!(arr, data);
    }

    #[test]
    fn dected_corrects_double_fault() {
        let map = map_with(vec![(0, vec![fault(10, true), fault(200, true)])]);
        let mut s = dected(Arc::clone(&map));
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut arr = data;
        map.corrupt_data(0, &mut arr);
        match s.on_read_hit(0, &mut arr) {
            ReadOutcome::Clean { corrected, .. } => assert!(corrected),
            other => panic!("{other:?}"),
        }
        assert_eq!(arr, data);
        assert_eq!(s.protection_stats().corrections, 1);
    }

    #[test]
    fn soft_error_on_top_of_fault_detected_not_silent() {
        // FLAIR's known weakness (§2.3): SECDED alone on a line with one LV
        // fault plus one soft error can only *detect*.
        let map = map_with(vec![(0, vec![fault(10, true)])]);
        let mut s = flair(Arc::clone(&map));
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut arr = data;
        map.corrupt_data(0, &mut arr);
        arr.flip_bit(300); // soft error
        match s.on_read_hit(0, &mut arr) {
            ReadOutcome::ErrorMiss { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(s.protection_stats().detections, 1);
    }

    #[test]
    fn corrupted_checkbit_cells_still_handled() {
        // A fault in a SECDED checkbit cell alone: correctable, data clean.
        let map = map_with(vec![(0, vec![fault(layout::SECDED.start + 2, true)])]);
        let mut s = flair(Arc::clone(&map));
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut arr = data;
        map.corrupt_data(0, &mut arr);
        match s.on_read_hit(0, &mut arr) {
            ReadOutcome::Clean { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(arr, data);
    }

    #[test]
    fn eviction_clears_code_and_reset_keeps_oracle() {
        let map = map_with(vec![(1, vec![fault(1, true), fault(2, true)])]);
        let mut s = flair(map);
        let data = Line512::from_seed(3);
        s.on_fill(0, &data);
        s.on_evict(0, &data);
        s.reset();
        assert_eq!(
            s.classifier().disabled_count(),
            1,
            "oracle map survives reset"
        );
    }

    #[test]
    fn build_reports_undersized_map() {
        let map = map_with(vec![]);
        let err = build("flair", EccStrength::Secded, map, 64).unwrap_err();
        assert_eq!(err, "fault map too small");
    }
}
