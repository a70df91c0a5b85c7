//! FLAIR's *online* training mode (Qureshi & Chishti, DSN'13), modelled as
//! an ablation.
//!
//! The paper's headline comparisons pre-train FLAIR and exclude this cost;
//! §5.3 describes what is being excluded: FLAIR tests two ways of the
//! 16-way cache with MBIST while the remaining 14 ways run under Dual
//! Modular Redundancy (DMR), leaving an effective capacity of 7/16 until
//! every way pair has been characterized. This module implements that
//! training dynamic so its cost can be quantified against Killi's
//! always-on-full-bandwidth learning.
//!
//! Structurally this is the pipeline with a stateful classifier: the
//! [`SecdedLineCodec`] and [`LineStore`] layers are the plain FLAIR ones,
//! while [`PairTestClassifier`] carries the rotating-MBIST phase machine
//! (its `on_access` hook is the training clock, and `observe` feedback
//! counts the DMR rescues).

use std::sync::Arc;

use killi::pipeline::{
    CodecVerdict, FaultClassifier, LineStore, PassthroughPolicy, ProtectionPipeline,
    SecdedLineCodec,
};
use killi_fault::map::{FaultMap, LineId};
use killi_obs::MetricSet;

/// Training progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Way pair `pair` is under MBIST; untested ways run DMR.
    Training { pair: usize },
    /// All ways characterized: plain per-line SECDED with the learned
    /// disable map.
    Steady,
}

/// FLAIR's online classifier: a rotating MBIST over way pairs that learns
/// the per-line disable map the offline oracle would have provided.
pub struct PairTestClassifier {
    map: Arc<FaultMap>,
    l2_ways: usize,
    /// L2 accesses spent testing one way pair.
    accesses_per_pair: u64,
    phase: Phase,
    accesses: u64,
    tested: Vec<bool>,
    disabled: Vec<bool>,
    dmr_saves: u64,
}

impl PairTestClassifier {
    /// A classifier for `l2_lines` lines of `l2_ways` associativity;
    /// `accesses_per_pair` controls how long each MBIST round lasts.
    pub fn new(
        map: Arc<FaultMap>,
        l2_lines: usize,
        l2_ways: usize,
        accesses_per_pair: u64,
    ) -> Self {
        PairTestClassifier {
            map,
            l2_ways,
            accesses_per_pair: accesses_per_pair.max(1),
            phase: Phase::Training { pair: 0 },
            accesses: 0,
            tested: vec![false; l2_lines],
            disabled: vec![false; l2_lines],
            dmr_saves: 0,
        }
    }

    /// True once every way pair has been characterized.
    pub fn steady(&self) -> bool {
        self.phase == Phase::Steady
    }

    /// Times the DMR path rescued data that SECDED alone could not.
    pub fn dmr_saves(&self) -> u64 {
        self.dmr_saves
    }

    fn way_of(&self, line: LineId) -> usize {
        line % self.l2_ways
    }

    /// Advances the training clock by one L2 access.
    fn tick(&mut self) {
        let Phase::Training { pair } = self.phase else {
            return;
        };
        self.accesses += 1;
        if !self.accesses.is_multiple_of(self.accesses_per_pair) {
            return;
        }
        // MBIST finished this pair: characterize its lines like the oracle.
        for line in 0..self.tested.len() {
            let way = self.way_of(line);
            if way / 2 == pair {
                self.tested[line] = true;
                let faults = self.map.data_fault_count(line)
                    + self.map.count_in(line, killi_fault::map::layout::SECDED);
                self.disabled[line] = faults >= 2;
            }
        }
        let next = pair + 1;
        self.phase = if next < self.l2_ways / 2 {
            Phase::Training { pair: next }
        } else {
            Phase::Steady
        };
    }
}

impl FaultClassifier for PairTestClassifier {
    fn victim_class(&self, line: LineId) -> Option<u8> {
        match self.phase {
            Phase::Training { pair } => {
                let way = self.way_of(line);
                if way / 2 == pair {
                    return None; // under MBIST test
                }
                if self.tested[line] {
                    return (!self.disabled[line]).then_some(0);
                }
                // Untested ways run DMR: odd ways mirror their even partner,
                // halving capacity (effective 7/16 of the cache).
                way.is_multiple_of(2).then_some(0)
            }
            Phase::Steady => (!self.disabled[line]).then_some(0),
        }
    }

    fn disabled_lines(&self) -> u64 {
        self.disabled.iter().filter(|&&d| d).count() as u64
    }

    fn on_access(&mut self) {
        self.tick();
    }

    fn observe(&mut self, line: LineId, verdict: CodecVerdict) {
        // A detected-uncorrectable pattern on an untested (DMR'd) line is
        // repaired by the duplicate copy; the pipeline still refreshes the
        // array content via an error miss, we just count the rescue.
        if verdict == CodecVerdict::Uncorrectable
            && matches!(self.phase, Phase::Training { .. })
            && !self.tested[line]
        {
            self.dmr_saves += 1;
        }
    }

    fn reset(&mut self) {
        self.phase = Phase::Training { pair: 0 };
        self.accesses = 0;
        for t in &mut self.tested {
            *t = false;
        }
        for d in &mut self.disabled {
            *d = false;
        }
    }

    fn fill_metrics(&self, _m: &mut MetricSet) {}
}

/// FLAIR with its online DMR + rotating-MBIST characterization phase.
pub type FlairOnline =
    ProtectionPipeline<SecdedLineCodec, LineStore, PairTestClassifier, PassthroughPolicy>;

/// Builds the scheme; `accesses_per_pair` controls how long each MBIST
/// round lasts in L2 accesses. Fails if the fault map is too small or
/// `l2_ways` is odd.
pub fn build(
    map: Arc<FaultMap>,
    l2_lines: usize,
    l2_ways: usize,
    accesses_per_pair: u64,
) -> Result<FlairOnline, String> {
    if map.lines() < l2_lines {
        return Err("fault map too small".to_string());
    }
    if !l2_ways.is_multiple_of(2) {
        return Err("way pairs need an even way count".to_string());
    }
    let classifier =
        PairTestClassifier::new(Arc::clone(&map), l2_lines, l2_ways, accesses_per_pair);
    Ok(ProtectionPipeline::new(
        "flair-online",
        SecdedLineCodec::new(map),
        LineStore::new(l2_lines),
        classifier,
        PassthroughPolicy,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use killi_ecc::bits::Line512;
    use killi_fault::map::CellFault;
    use killi_sim::protection::{LineProtection, ReadOutcome};

    fn map_with(faults: Vec<(usize, Vec<CellFault>)>, lines: usize) -> Arc<FaultMap> {
        let mut per_line = vec![Vec::new(); lines];
        for (line, fs) in faults {
            per_line[line] = fs;
        }
        Arc::new(FaultMap::from_faults(per_line))
    }

    #[test]
    fn training_reduces_capacity_to_7_of_16() {
        let map = map_with(vec![], 32);
        let s = build(map, 32, 16, 1000).unwrap();
        // Set 0: ways 0..16. Pair 0 (ways 0,1) under test; odd untested
        // ways mirror even ones.
        let usable: Vec<usize> = (0..16).filter(|&w| s.victim_class(w).is_some()).collect();
        assert_eq!(usable, vec![2, 4, 6, 8, 10, 12, 14], "7 usable ways");
    }

    #[test]
    fn training_completes_after_all_pairs() {
        let map = map_with(
            vec![(
                0,
                vec![
                    CellFault {
                        cell: 1,
                        stuck: true,
                    },
                    CellFault {
                        cell: 2,
                        stuck: true,
                    },
                ],
            )],
            32,
        );
        let mut s = build(map, 32, 16, 2).unwrap();
        let data = Line512::zero();
        // 8 pairs x 2 accesses each.
        for i in 0..16 {
            s.on_fill((i % 8) as usize + 2, &data); // avoid untestable ways
        }
        assert!(s.classifier().steady(), "{s:?}");
        // Learned disable map matches the oracle: line 0 has 2 faults.
        assert_eq!(s.victim_class(0), None);
        assert_eq!(s.victim_class(1), Some(0));
        assert_eq!(s.protection_stats().disabled_lines, 1);
    }

    #[test]
    fn steady_state_corrects_single_faults() {
        let map = map_with(
            vec![(
                2,
                vec![CellFault {
                    cell: 9,
                    stuck: true,
                }],
            )],
            32,
        );
        let mut s = build(Arc::clone(&map), 32, 16, 1).unwrap();
        let data = Line512::zero();
        for i in 0..16 {
            s.on_fill(4 + (i % 4) as usize, &data);
        }
        assert!(s.classifier().steady());
        s.on_fill(2, &data);
        let mut arr = data;
        map.corrupt_data(2, &mut arr);
        match s.on_read_hit(2, &mut arr) {
            ReadOutcome::Clean { corrected, .. } => assert!(corrected),
            other => panic!("{other:?}"),
        }
        assert_eq!(arr, data);
    }

    #[test]
    fn dmr_rescues_uncorrectable_untested_lines() {
        let stuck = |cell| CellFault { cell, stuck: true };
        let map = map_with(vec![(2, vec![stuck(1), stuck(2)])], 32);
        let mut s = build(Arc::clone(&map), 32, 16, 1000).unwrap();
        let data = Line512::zero();
        s.on_fill(2, &data);
        let mut arr = data;
        map.corrupt_data(2, &mut arr);
        match s.on_read_hit(2, &mut arr) {
            ReadOutcome::ErrorMiss { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(s.classifier().dmr_saves(), 1);
    }

    #[test]
    fn reset_restarts_training() {
        let map = map_with(vec![], 32);
        let mut s = build(map, 32, 16, 1).unwrap();
        let data = Line512::zero();
        for i in 0..8 {
            s.on_fill(2 + (i % 4) as usize, &data);
        }
        assert!(s.classifier().steady());
        s.reset();
        assert!(!s.classifier().steady());
    }

    #[test]
    fn build_reports_odd_way_count() {
        let map = map_with(vec![], 32);
        let err = build(map, 32, 15, 1).unwrap_err();
        assert_eq!(err, "way pairs need an even way count");
    }
}
