//! The four-layer protection pipeline.
//!
//! Killi's central observation is that low-voltage cache protection
//! decomposes into orthogonal concerns, each answering one question:
//!
//! 1. [`DetectionCodec`] — *is this read corrupted, and can I fix it?*
//!    (segmented interleaved parity, SECDED, DEC-TED, OLSC)
//! 2. [`CorrectionStore`] — *where do the checkbits live?* (per-line
//!    metadata columns, or Killi's decoupled set-associative [`EccCache`])
//! 3. [`FaultClassifier`] — *which lines are trustworthy?* (the 2-bit DFH
//!    state machine, an MBIST-style oracle, FLAIR's online way-pair test)
//! 4. [`VictimPolicy`] — *which line should the replacement policy spend
//!    on faulty hardware?* (the paper's `b'01 > b'00 > b'10` priority)
//!
//! [`ProtectionPipeline`] composes one implementation of each layer into a
//! [`LineProtection`] scheme. The three baselines (per-line SECDED/DEC-TED,
//! MS-ECC, FLAIR-online) are pure compositions; [`crate::KilliScheme`] is
//! built from the same layer components (its [`DfhClassifier`],
//! [`SegmentedParity`], [`EccCache`] and [`DfhPriorityPolicy`]) with glue
//! for the per-DFH-state dispatch the generic driver cannot express.
//!
//! Schemes are *instantiated* from declarative configs by the
//! [`crate::registry::SchemeRegistry`].

use std::sync::Arc;

use killi_ecc::bch::{dected, DectedDecode};
use killi_ecc::bits::Line512;
use killi_ecc::olsc::{OlscDecode, OlscLine};
use killi_ecc::parity::{seg16, seg4, SegObservation};
use killi_ecc::secded::{secded, SecdedCode, SecdedDecode, SecdedObservation};
use killi_fault::map::{FaultMap, LineId};
use killi_obs::{Counter, Histogram, KilliEvent, MetricSet, Sink};
use killi_sim::protection::{FillOutcome, LineProtection, ReadOutcome};

use crate::classify::{classify_unknown, Verdict};
use crate::dfh::{Dfh, DfhArray};
use crate::ecc_cache::{EccCache, EccPayload, SetProbe};

/// Outcome of a [`DetectionCodec::check`], the only signal the generic
/// pipeline driver needs: deliver, deliver-after-correction, or refetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecVerdict {
    /// The stored data matched its checkbits.
    Clean,
    /// Errors were corrected in place; the data is now good.
    Corrected,
    /// The error exceeds the code's strength; the read must miss.
    Uncorrectable,
}

/// Layer 1: a detection/correction code over one cache line.
///
/// `encode` produces the checkbit payload written alongside a fill (already
/// passed through the fault map when the checkbit cells themselves are
/// low-voltage); `check` validates a read against that payload, correcting
/// `stored` in place when the code allows it.
pub trait DetectionCodec {
    /// Cycles the check adds to every hit.
    fn check_latency(&self) -> u32;
    /// Encodes `data` into the payload stored for `line`.
    fn encode(&mut self, line: LineId, data: &Line512) -> EccPayload;
    /// Checks (and possibly corrects) `stored` against `payload`.
    fn check(&mut self, line: LineId, stored: &mut Line512, payload: &EccPayload) -> CodecVerdict;
}

/// Layer 2: where checkbit payloads live.
///
/// Killi's [`EccCache`] implements this with bounded, set-associative,
/// LRU-displaced capacity; [`LineStore`] models conventional per-line
/// metadata columns (always room, never displaces).
pub trait CorrectionStore {
    /// Capacity probe for `line`'s set (no LRU side effects).
    fn probe(&self, line: LineId) -> SetProbe;
    /// Payload stored for `line`, if any.
    fn lookup(&mut self, line: LineId) -> Option<EccPayload>;
    /// Stores a payload; returns a displaced `(line, payload)` entry when
    /// capacity forced an eviction.
    fn insert(&mut self, line: LineId, payload: EccPayload) -> Option<(LineId, EccPayload)>;
    /// Replaces the payload of an existing entry in place.
    fn update(&mut self, line: LineId, payload: EccPayload) -> bool;
    /// Drops `line`'s entry.
    fn invalidate(&mut self, line: LineId);
    /// Marks `line`'s entry recently used.
    fn promote(&mut self, line: LineId);
    /// Drops every entry.
    fn clear(&mut self);
    /// Connects the store to an event sink.
    fn attach_sink(&mut self, sink: Sink) {
        let _ = sink;
    }
    /// Contributes store counters to a [`MetricSet`].
    fn fill_metrics(&self, m: &mut MetricSet) {
        let _ = m;
    }
}

impl CorrectionStore for EccCache {
    fn probe(&self, line: LineId) -> SetProbe {
        EccCache::probe(self, line)
    }

    fn lookup(&mut self, line: LineId) -> Option<EccPayload> {
        EccCache::lookup(self, line)
    }

    fn insert(&mut self, line: LineId, payload: EccPayload) -> Option<(LineId, EccPayload)> {
        EccCache::insert(self, line, payload)
    }

    fn update(&mut self, line: LineId, payload: EccPayload) -> bool {
        EccCache::update(self, line, payload)
    }

    fn invalidate(&mut self, line: LineId) {
        EccCache::invalidate(self, line);
    }

    fn promote(&mut self, line: LineId) {
        EccCache::promote(self, line);
    }

    fn clear(&mut self) {
        EccCache::clear(self);
    }

    fn attach_sink(&mut self, sink: Sink) {
        EccCache::attach_sink(self, sink);
    }

    fn fill_metrics(&self, m: &mut MetricSet) {
        m.set(Counter::EccCacheAccesses, self.accesses());
        m.set(Counter::EccCacheDisplacements, self.evictions());
        m.ecc_occupancy = *self.occupancy_histogram();
    }
}

/// A conventional per-line checkbit store: one dedicated slot per cache
/// line, so capacity never displaces anything (the baselines' layout).
#[derive(Debug, Clone)]
pub struct LineStore {
    codes: Vec<Option<EccPayload>>,
}

impl LineStore {
    /// A store with one (empty) slot per L2 line.
    pub fn new(lines: usize) -> Self {
        LineStore {
            codes: vec![None; lines],
        }
    }
}

impl CorrectionStore for LineStore {
    fn probe(&self, line: LineId) -> SetProbe {
        SetProbe {
            has_entry: self.codes[line].is_some(),
            has_free_way: true,
        }
    }

    fn lookup(&mut self, line: LineId) -> Option<EccPayload> {
        self.codes[line]
    }

    fn insert(&mut self, line: LineId, payload: EccPayload) -> Option<(LineId, EccPayload)> {
        self.codes[line] = Some(payload);
        None
    }

    fn update(&mut self, line: LineId, payload: EccPayload) -> bool {
        match &mut self.codes[line] {
            Some(slot) => {
                *slot = payload;
                true
            }
            None => false,
        }
    }

    fn invalidate(&mut self, line: LineId) {
        self.codes[line] = None;
    }

    fn promote(&mut self, _line: LineId) {}

    fn clear(&mut self) {
        self.codes.fill(None);
    }
}

/// Layer 3: runtime (or oracle) knowledge of which lines are faulty.
pub trait FaultClassifier {
    /// Raw victim class for `line` (`None` = never allocate), before the
    /// [`VictimPolicy`] layer has its say.
    fn victim_class(&self, line: LineId) -> Option<u8>;
    /// Number of lines currently ruled unusable.
    fn disabled_lines(&self) -> u64;
    /// One protection operation (fill/hit/evict) is happening: advance any
    /// internal clock.
    fn on_access(&mut self) {}
    /// Feedback from the codec layer after a checked read of `line`.
    fn observe(&mut self, line: LineId, verdict: CodecVerdict) {
        let _ = (line, verdict);
    }
    /// Forget learned state (voltage change / reboot).
    fn reset(&mut self);
    /// Connects the classifier to an event sink.
    fn attach_sink(&mut self, sink: Sink) {
        let _ = sink;
    }
    /// Contributes classifier counters to a [`MetricSet`].
    fn fill_metrics(&self, m: &mut MetricSet) {
        let _ = m;
    }
}

/// An MBIST-style classifier: line health is decided up front from the
/// fault map (exactly what Killi exists to avoid, and exactly what the
/// per-line SECDED/DEC-TED and MS-ECC baselines assume).
#[derive(Debug, Clone)]
pub struct OracleClassifier {
    disabled: Vec<bool>,
}

impl OracleClassifier {
    /// A classifier from an explicit disabled set.
    pub fn new(disabled: Vec<bool>) -> Self {
        OracleClassifier { disabled }
    }

    /// Disables every line whose data-cell faults plus faults in the given
    /// checkbit-cell range reach `threshold` (the per-line ECC rule: 2 for
    /// SECDED, 3 for DEC-TED).
    pub fn from_threshold(
        map: &FaultMap,
        lines: usize,
        checkbit_cells: std::ops::Range<u16>,
        threshold: usize,
    ) -> Self {
        let disabled = (0..lines)
            .map(|line| {
                map.data_fault_count(line) + map.count_in(line, checkbit_cells.clone()) >= threshold
            })
            .collect();
        OracleClassifier { disabled }
    }

    /// Disables every line with more than `budget` data faults in any
    /// single `block_bits`-bit block (the MS-ECC rule for OLSC(m, t):
    /// `block_bits = m*m`, `budget = t`).
    pub fn from_block_budget(
        map: &FaultMap,
        lines: usize,
        block_bits: usize,
        budget: usize,
    ) -> Self {
        let blocks = 512usize.div_ceil(block_bits);
        let disabled = (0..lines)
            .map(|line| {
                let mut per_block = vec![0usize; blocks];
                for f in map.line(line) {
                    if (f.cell as usize) < 512 {
                        per_block[f.cell as usize / block_bits] += 1;
                    }
                }
                per_block.iter().any(|&n| n > budget)
            })
            .collect();
        OracleClassifier { disabled }
    }

    /// Whether `line` is disabled.
    pub fn is_disabled(&self, line: LineId) -> bool {
        self.disabled[line]
    }

    /// Number of disabled lines.
    pub fn disabled_count(&self) -> usize {
        self.disabled.iter().filter(|&&d| d).count()
    }
}

impl FaultClassifier for OracleClassifier {
    fn victim_class(&self, line: LineId) -> Option<u8> {
        (!self.disabled[line]).then_some(0)
    }

    fn disabled_lines(&self) -> u64 {
        self.disabled_count() as u64
    }

    fn reset(&mut self) {
        // Oracle knowledge is not learned, so nothing is forgotten.
    }
}

/// Killi's runtime classifier: the packed 2-bit DFH array plus its
/// transition statistics and the scheme-op clock used to measure how long
/// lines spend in training.
#[derive(Debug)]
pub struct DfhClassifier {
    dfh: DfhArray,
    /// DFH transitions observed, `transitions[from][to]` by `Dfh::bits()`.
    transitions: [[u64; 4]; 4],
    /// Scheme-op index at which each line last entered `b'01`.
    training_since: Vec<u64>,
    /// Ops spent in `b'01` before classification (log2 buckets).
    training_hist: Histogram,
    /// Scheme-op clock: one tick per fill/read-hit/evict hook.
    ops: u64,
    sink: Sink,
}

impl DfhClassifier {
    /// All lines start in the initial `b'01` state at op 0.
    pub fn new(lines: usize) -> Self {
        DfhClassifier {
            dfh: DfhArray::new(lines),
            transitions: [[0; 4]; 4],
            training_since: vec![0; lines],
            training_hist: Histogram::new(),
            ops: 0,
            sink: Sink::none(),
        }
    }

    /// Advances the scheme-op clock by one.
    pub fn tick(&mut self) {
        self.ops += 1;
    }

    /// Current DFH state of `line`.
    pub fn get(&self, line: LineId) -> Dfh {
        self.dfh.get(line)
    }

    /// Number of lines tracked.
    pub fn lines(&self) -> usize {
        self.training_since.len()
    }

    /// Census of lines per DFH state, indexed by `Dfh::bits()`.
    pub fn census(&self) -> [u64; 4] {
        self.dfh.census()
    }

    /// DFH transition counts, `[from][to]` indexed by `Dfh::bits()`.
    pub fn transitions(&self) -> &[[u64; 4]; 4] {
        &self.transitions
    }

    /// Moves `line` to `next`, bumping the transition matrix, closing the
    /// training-latency measurement when leaving `b'01` (and opening one
    /// when entering it), and emitting a [`KilliEvent::DfhTransition`].
    pub fn transition(&mut self, line: LineId, next: Dfh) {
        let cur = self.dfh.get(line);
        if cur != next {
            self.transitions[cur.bits() as usize][next.bits() as usize] += 1;
            self.dfh.set(line, next);
            if cur == Dfh::Unknown {
                let since = self.training_since[line];
                self.training_hist.observe_log2(self.ops - since);
            }
            if next == Dfh::Unknown {
                self.training_since[line] = self.ops;
            }
            self.sink.emit(|| KilliEvent::DfhTransition {
                line: line as u32,
                from: cur.bits(),
                to: next.bits(),
            });
        }
    }
}

impl FaultClassifier for DfhClassifier {
    fn victim_class(&self, line: LineId) -> Option<u8> {
        self.dfh.get(line).victim_class()
    }

    fn disabled_lines(&self) -> u64 {
        self.dfh.census()[Dfh::Disabled.bits() as usize]
    }

    fn on_access(&mut self) {
        self.tick();
    }

    fn reset(&mut self) {
        // Voltage change / reboot: relearn everything (§2.4). Transition
        // statistics and the op clock survive — they describe the run, not
        // the learned state.
        let now = self.ops;
        self.dfh.reset();
        self.training_since.fill(now);
    }

    fn attach_sink(&mut self, sink: Sink) {
        self.sink = sink;
    }

    fn fill_metrics(&self, m: &mut MetricSet) {
        m.dfh_transitions = self.transitions;
        m.set(Counter::DfhTransitions, m.total_transitions());
        m.dfh_census = Some(self.dfh.census());
        m.training_latency_ops = self.training_hist;
    }
}

/// Layer 4: how the raw classifier verdict becomes a replacement-policy
/// victim class, with visibility into the correction store's capacity.
///
/// The method is generic over the store so implementations can probe
/// lazily (the common fast path never touches the store).
pub trait VictimPolicy {
    /// Final victim class for `line` given the classifier's `raw` class.
    fn victim_class<S: CorrectionStore + ?Sized>(
        &self,
        line: LineId,
        raw: Option<u8>,
        store: &S,
    ) -> Option<u8>;
}

/// Uses the classifier's verdict unchanged (all baselines).
#[derive(Debug, Clone, Copy, Default)]
pub struct PassthroughPolicy;

impl VictimPolicy for PassthroughPolicy {
    fn victim_class<S: CorrectionStore + ?Sized>(
        &self,
        _line: LineId,
        raw: Option<u8>,
        _store: &S,
    ) -> Option<u8> {
        raw
    }
}

/// Killi's §4.4 policy: prefer `b'01 > b'00 > b'10` victims (when
/// `priority` is set; the ablation flattens every usable line to one
/// class), and never allocate a `b'10` line whose ECC-cache set has no
/// room for its checkbits (§5.2's "cannot be protected" subset).
#[derive(Debug, Clone, Copy)]
pub struct DfhPriorityPolicy {
    /// §4.4 victim-priority switch (`false` = the ablation).
    pub priority: bool,
}

impl VictimPolicy for DfhPriorityPolicy {
    fn victim_class<S: CorrectionStore + ?Sized>(
        &self,
        line: LineId,
        raw: Option<u8>,
        store: &S,
    ) -> Option<u8> {
        // `raw` is `Dfh::victim_class()`: only a `b'10` line maps to
        // class 2, so the (lazy) capacity probe runs exactly for those.
        if raw == Dfh::Stable1.victim_class() && !store.probe(line).protectable() {
            return None;
        }
        if self.priority {
            raw
        } else {
            raw.map(|_| 0)
        }
    }
}

/// Per-line SECDED stored in (faulty) low-voltage metadata cells — the
/// FLAIR / conventional-SECDED baseline codec.
#[derive(Debug, Clone)]
pub struct SecdedLineCodec {
    map: Arc<FaultMap>,
}

impl SecdedLineCodec {
    /// A codec whose stored checkbits are corrupted by `map`.
    pub fn new(map: Arc<FaultMap>) -> Self {
        SecdedLineCodec { map }
    }
}

impl DetectionCodec for SecdedLineCodec {
    fn check_latency(&self) -> u32 {
        1
    }

    fn encode(&mut self, line: LineId, data: &Line512) -> EccPayload {
        EccPayload::Secded {
            code: self.map.corrupt_secded(line, secded().encode(data)),
            parity_hi: 0,
        }
    }

    fn check(&mut self, line: LineId, stored: &mut Line512, payload: &EccPayload) -> CodecVerdict {
        let _ = line;
        let EccPayload::Secded { code, .. } = *payload else {
            debug_assert!(false, "SECDED codec given a non-SECDED payload");
            return CodecVerdict::Uncorrectable;
        };
        match secded().decode(stored, code) {
            SecdedDecode::Clean | SecdedDecode::CorrectedCheck => CodecVerdict::Clean,
            SecdedDecode::CorrectedData { bit } => {
                stored.flip_bit(bit);
                CodecVerdict::Corrected
            }
            SecdedDecode::DetectedDouble | SecdedDecode::DetectedUncorrectable => {
                CodecVerdict::Uncorrectable
            }
        }
    }
}

/// Per-line DEC-TED stored in (faulty) low-voltage metadata cells.
#[derive(Debug, Clone)]
pub struct DectedLineCodec {
    map: Arc<FaultMap>,
}

impl DectedLineCodec {
    /// A codec whose stored checkbits are corrupted by `map`.
    pub fn new(map: Arc<FaultMap>) -> Self {
        DectedLineCodec { map }
    }
}

impl DetectionCodec for DectedLineCodec {
    fn check_latency(&self) -> u32 {
        2
    }

    fn encode(&mut self, line: LineId, data: &Line512) -> EccPayload {
        EccPayload::Dected(self.map.corrupt_dected(line, dected().encode(data)))
    }

    fn check(&mut self, line: LineId, stored: &mut Line512, payload: &EccPayload) -> CodecVerdict {
        let _ = line;
        let EccPayload::Dected(code) = *payload else {
            debug_assert!(false, "DEC-TED codec given a non-DEC-TED payload");
            return CodecVerdict::Uncorrectable;
        };
        match dected().decode(stored, code) {
            DectedDecode::Clean => CodecVerdict::Clean,
            DectedDecode::Corrected { bits } => {
                let mut any = false;
                for bit in bits.into_iter().flatten() {
                    stored.flip_bit(bit);
                    any = true;
                }
                if any {
                    CodecVerdict::Corrected
                } else {
                    CodecVerdict::Clean
                }
            }
            DectedDecode::Detected => CodecVerdict::Uncorrectable,
        }
    }
}

/// OLSC over 64-bit blocks (MS-ECC's codec; checkbits live in nominal-
/// voltage storage, so they are stored uncorrupted).
#[derive(Debug, Clone)]
pub struct OlscBlockCodec {
    codec: OlscLine,
}

impl OlscBlockCodec {
    /// An OLSC(m, t) codec.
    ///
    /// # Panics
    ///
    /// Panics if the line-wide checkbit count exceeds the 256-bit payload
    /// (use [`crate::registry`] configs for a checked build).
    pub fn new(m: usize, t: usize) -> Self {
        OlscBlockCodec {
            codec: OlscLine::new(m, t),
        }
    }

    /// Line-wide checkbit count.
    pub fn check_bits(&self) -> usize {
        self.codec.check_bits()
    }
}

impl DetectionCodec for OlscBlockCodec {
    fn check_latency(&self) -> u32 {
        1
    }

    fn encode(&mut self, line: LineId, data: &Line512) -> EccPayload {
        let _ = line;
        EccPayload::Olsc(self.codec.encode_packed(data))
    }

    fn check(&mut self, line: LineId, stored: &mut Line512, payload: &EccPayload) -> CodecVerdict {
        let _ = line;
        let EccPayload::Olsc(words) = payload else {
            debug_assert!(false, "OLSC codec given a non-OLSC payload");
            return CodecVerdict::Uncorrectable;
        };
        match self.codec.decode_packed(stored, words) {
            OlscDecode::Clean => CodecVerdict::Clean,
            OlscDecode::Corrected { .. } => CodecVerdict::Corrected,
            OlscDecode::Detected => CodecVerdict::Uncorrectable,
        }
    }
}

/// Killi's detection layer: 4 low-voltage segment-parity cells per line
/// (stuck-at corrupted by the fault map) plus, during training, 12 more
/// parity bits and a SECDED code held in the [`EccCache`].
///
/// The inherent methods expose the exact observation primitives the
/// per-DFH-state Killi control flow needs; the [`DetectionCodec`] impl
/// packages the training-mode observe/classify step for generic pipelines.
#[derive(Debug)]
pub struct SegmentedParity {
    map: Arc<FaultMap>,
    /// Content of the 4 low-voltage parity cells per line (already
    /// stuck-at corrupted). For `b'01` lines these are bits 0..4 of the
    /// 16-bit training parity; for stable lines the 4 quarter parities.
    parity4: Vec<u8>,
    check_latency: u32,
    sink: Sink,
}

impl SegmentedParity {
    /// Parity storage for `lines` L2 lines corrupted by `map`.
    pub fn new(map: Arc<FaultMap>, lines: usize, check_latency: u32) -> Self {
        SegmentedParity {
            map,
            parity4: vec![0; lines],
            check_latency,
            sink: Sink::none(),
        }
    }

    /// Installs the 4-bit stable parity of `data` (corrupted in storage).
    pub fn install4(&mut self, line: LineId, data: &Line512) {
        self.parity4[line] = self.map.corrupt_parity4(line, seg4(data));
    }

    /// Installs the low nibble of the 16-bit training parity of `data` and
    /// returns the full 16 bits (the high 12 go to the ECC cache).
    pub fn install16(&mut self, line: LineId, data: &Line512) -> u16 {
        let p16 = seg16(data);
        self.parity4[line] = self.map.corrupt_parity4(line, (p16 & 0xF) as u8);
        p16
    }

    /// Checks a stable (`b'00`/`b'10`) line's 4 quarter parities against
    /// `stored`, emitting the [`KilliEvent::ParityObservation`].
    pub fn observe_stable(&self, line: LineId, stored: &Line512) -> SegObservation {
        let obs = SegObservation::observe4(self.parity4[line], seg4(stored));
        self.sink.emit(|| KilliEvent::ParityObservation {
            line: line as u32,
            mismatch: !matches!(obs, SegObservation::Match),
        });
        obs
    }

    /// Observables of a training (`b'01`) line: 16-bit segment parity
    /// (4 LV cells + 12 nominal bits from the ECC-cache payload) plus the
    /// SECDED syndrome/parity, with both observation events emitted.
    pub fn observe_training(
        &self,
        line: LineId,
        stored: &Line512,
        code: SecdedCode,
        parity_hi: u16,
    ) -> (SegObservation, SecdedObservation, SecdedDecode) {
        let stored_p16 = (parity_hi << 4) | u16::from(self.parity4[line] & 0xF);
        let seg = SegObservation::observe16(stored_p16, seg16(stored));
        let ecc = secded().observe(stored, code);
        let dec = secded().interpret(ecc);
        self.sink.emit(|| KilliEvent::ParityObservation {
            line: line as u32,
            mismatch: !matches!(seg, SegObservation::Match),
        });
        self.sink.emit(|| KilliEvent::SyndromeObservation {
            line: line as u32,
            corrected: matches!(
                dec,
                SecdedDecode::CorrectedData { .. } | SecdedDecode::CorrectedCheck
            ),
            detected: matches!(
                dec,
                SecdedDecode::DetectedDouble | SecdedDecode::DetectedUncorrectable
            ),
        });
        (seg, ecc, dec)
    }

    /// Forgets all stored parity (voltage change / reboot).
    pub fn reset(&mut self) {
        self.parity4.fill(0);
    }

    /// Connects the parity layer to an event sink.
    pub fn attach_sink(&mut self, sink: Sink) {
        self.sink = sink;
    }
}

impl DetectionCodec for SegmentedParity {
    fn check_latency(&self) -> u32 {
        self.check_latency
    }

    fn encode(&mut self, line: LineId, data: &Line512) -> EccPayload {
        let p16 = self.install16(line, data);
        EccPayload::Secded {
            code: secded().encode(data),
            parity_hi: p16 >> 4,
        }
    }

    fn check(&mut self, line: LineId, stored: &mut Line512, payload: &EccPayload) -> CodecVerdict {
        let EccPayload::Secded { code, parity_hi } = *payload else {
            debug_assert!(false, "segmented parity given a non-SECDED payload");
            return CodecVerdict::Uncorrectable;
        };
        let (seg, ecc, dec) = self.observe_training(line, stored, code, parity_hi);
        match classify_unknown(seg, ecc, dec) {
            Verdict::SendClean {
                correct_bit: None, ..
            } => CodecVerdict::Clean,
            Verdict::SendClean {
                correct_bit: Some(bit),
                ..
            } => {
                stored.flip_bit(bit);
                CodecVerdict::Corrected
            }
            Verdict::ErrorMiss { .. } => CodecVerdict::Uncorrectable,
        }
    }
}

/// A [`LineProtection`] scheme assembled from one implementation of each
/// pipeline layer.
///
/// The driver is deliberately small: every hook ticks the classifier,
/// routes data through the codec/store pair, feeds codec verdicts back to
/// the classifier, and lets the policy veto victims. Schemes needing
/// richer coupling between the layers (Killi's per-DFH-state dispatch)
/// compose the same layer types with custom glue instead.
pub struct ProtectionPipeline<D, S, C, V> {
    name: &'static str,
    codec: D,
    store: S,
    classifier: C,
    policy: V,
    corrections: u64,
    detections: u64,
    sink: Sink,
}

impl<D, S, C, V> ProtectionPipeline<D, S, C, V>
where
    D: DetectionCodec,
    S: CorrectionStore,
    C: FaultClassifier,
    V: VictimPolicy,
{
    /// Composes the four layers under a scheme name.
    pub fn new(name: &'static str, codec: D, store: S, classifier: C, policy: V) -> Self {
        ProtectionPipeline {
            name,
            codec,
            store,
            classifier,
            policy,
            corrections: 0,
            detections: 0,
            sink: Sink::none(),
        }
    }

    /// The classifier layer (scheme-specific introspection).
    pub fn classifier(&self) -> &C {
        &self.classifier
    }

    /// The codec layer.
    pub fn codec(&self) -> &D {
        &self.codec
    }

    /// The store layer.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Single-bit (or block) corrections delivered so far.
    pub fn corrections(&self) -> u64 {
        self.corrections
    }

    /// Uncorrectable detections so far.
    pub fn detections(&self) -> u64 {
        self.detections
    }
}

impl<D, S, C, V> LineProtection for ProtectionPipeline<D, S, C, V>
where
    D: DetectionCodec,
    S: CorrectionStore,
    C: FaultClassifier,
    V: VictimPolicy,
{
    fn name(&self) -> &str {
        self.name
    }

    fn reset(&mut self) {
        self.classifier.reset();
        self.store.clear();
    }

    fn victim_class(&self, line: LineId) -> Option<u8> {
        self.policy
            .victim_class(line, self.classifier.victim_class(line), &self.store)
    }

    fn on_fill(&mut self, line: LineId, data: &Line512) -> FillOutcome {
        self.classifier.on_access();
        let payload = self.codec.encode(line, data);
        let mut outcome = FillOutcome::default();
        if let Some((displaced, _)) = self.store.insert(line, payload) {
            outcome.invalidate.push(displaced);
        }
        outcome
    }

    fn on_read_hit(&mut self, line: LineId, stored: &mut Line512) -> ReadOutcome {
        self.classifier.on_access();
        let Some(payload) = self.store.lookup(line) else {
            // Valid lines always carry checkbits; refetch conservatively.
            debug_assert!(false, "read hit without stored checkbits");
            return ReadOutcome::ErrorMiss { extra_cycles: 0 };
        };
        let verdict = self.codec.check(line, stored, &payload);
        let outcome = match verdict {
            CodecVerdict::Clean => ReadOutcome::Clean {
                extra_cycles: 0,
                corrected: false,
            },
            CodecVerdict::Corrected => {
                self.corrections += 1;
                ReadOutcome::Clean {
                    extra_cycles: 0,
                    corrected: true,
                }
            }
            CodecVerdict::Uncorrectable => {
                self.detections += 1;
                self.store.invalidate(line);
                ReadOutcome::ErrorMiss { extra_cycles: 0 }
            }
        };
        self.classifier.observe(line, verdict);
        self.sink.emit(|| KilliEvent::SyndromeObservation {
            line: line as u32,
            corrected: matches!(verdict, CodecVerdict::Corrected),
            detected: matches!(verdict, CodecVerdict::Uncorrectable),
        });
        outcome
    }

    fn on_evict(&mut self, line: LineId, _stored: &Line512) {
        self.store.invalidate(line);
    }

    fn hit_latency_extra(&self) -> u32 {
        self.codec.check_latency()
    }

    fn attach_sink(&mut self, sink: Sink) {
        self.store.attach_sink(sink.clone());
        self.classifier.attach_sink(sink.clone());
        self.sink = sink;
    }

    fn metrics(&self) -> MetricSet {
        let mut m = MetricSet::new();
        m.set(Counter::DisabledLines, self.classifier.disabled_lines());
        m.set(Counter::Corrections, self.corrections);
        m.set(Counter::Detections, self.detections);
        self.classifier.fill_metrics(&mut m);
        self.store.fill_metrics(&mut m);
        m
    }
}

impl<D, S, C, V> std::fmt::Debug for ProtectionPipeline<D, S, C, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtectionPipeline")
            .field("name", &self.name)
            .field("corrections", &self.corrections)
            .field("detections", &self.detections)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use killi_fault::map::CellFault;

    #[test]
    fn line_store_never_displaces() {
        let mut s = LineStore::new(4);
        assert!(!CorrectionStore::probe(&s, 0).has_entry);
        assert!(CorrectionStore::probe(&s, 0).has_free_way);
        for line in 0..4 {
            assert!(s
                .insert(
                    line,
                    EccPayload::Secded {
                        code: secded().encode(&Line512::zero()),
                        parity_hi: 0,
                    },
                )
                .is_none());
        }
        assert!(CorrectionStore::probe(&s, 0).has_entry);
        assert!(s.lookup(1).is_some());
        s.invalidate(1);
        assert!(s.lookup(1).is_none());
        s.clear();
        assert!(s.lookup(0).is_none());
    }

    #[test]
    fn priority_policy_vetoes_unprotectable_stable1() {
        let map = Arc::new(FaultMap::fault_free(16));
        let mut store = EccCache::new(
            crate::ecc_cache::EccCacheConfig { ratio: 4, ways: 4 },
            16,
            4,
        );
        // Fill the single set with other lines' entries.
        for line in 0..4 {
            CorrectionStore::insert(
                &mut store,
                line,
                EccPayload::Secded {
                    code: secded().encode(&Line512::zero()),
                    parity_hi: 0,
                },
            );
        }
        let _ = map;
        let policy = DfhPriorityPolicy { priority: true };
        let raw = Dfh::Stable1.victim_class();
        assert_eq!(policy.victim_class(5, raw, &store), None, "set full");
        store.invalidate(0);
        assert_eq!(policy.victim_class(5, raw, &store), raw);
        // The ablation flattens classes but keeps the capacity veto.
        let flat = DfhPriorityPolicy { priority: false };
        assert_eq!(flat.victim_class(5, raw, &store), Some(0));
        assert_eq!(
            flat.victim_class(5, Dfh::Disabled.victim_class(), &store),
            None
        );
    }

    #[test]
    fn secded_line_codec_roundtrip_and_correction() {
        let map = Arc::new(FaultMap::from_faults(vec![
            vec![CellFault {
                cell: 10,
                stuck: true,
            }],
            Vec::new(),
        ]));
        let mut codec = SecdedLineCodec::new(Arc::clone(&map));
        let data = Line512::zero();
        let payload = codec.encode(0, &data);
        let mut arr = data;
        map.corrupt_data(0, &mut arr);
        assert!(arr.bit(10));
        assert_eq!(codec.check(0, &mut arr, &payload), CodecVerdict::Corrected);
        assert_eq!(arr, data);

        let payload = codec.encode(1, &data);
        let mut clean = data;
        assert_eq!(codec.check(1, &mut clean, &payload), CodecVerdict::Clean);
    }

    #[test]
    fn oracle_block_budget_matches_msecc_rule() {
        // Three faults in one 64-bit block exceed t = 2; three spread
        // faults do not.
        let clustered = vec![
            CellFault {
                cell: 1,
                stuck: true,
            },
            CellFault {
                cell: 9,
                stuck: true,
            },
            CellFault {
                cell: 17,
                stuck: true,
            },
        ];
        let spread = vec![
            CellFault {
                cell: 1,
                stuck: true,
            },
            CellFault {
                cell: 70,
                stuck: true,
            },
            CellFault {
                cell: 140,
                stuck: true,
            },
        ];
        let map = FaultMap::from_faults(vec![clustered, spread]);
        let oracle = OracleClassifier::from_block_budget(&map, 2, 64, 2);
        assert!(oracle.is_disabled(0));
        assert!(!oracle.is_disabled(1));
        assert_eq!(oracle.disabled_lines(), 1);
        assert_eq!(FaultClassifier::victim_class(&oracle, 0), None);
        assert_eq!(FaultClassifier::victim_class(&oracle, 1), Some(0));
    }

    #[test]
    fn generic_pipeline_counts_and_invalidates() {
        let map = Arc::new(FaultMap::from_faults(vec![
            vec![
                CellFault {
                    cell: 3,
                    stuck: true,
                },
                CellFault {
                    cell: 40,
                    stuck: true,
                },
            ],
            Vec::new(),
        ]));
        let mut pipe = ProtectionPipeline::new(
            "secded",
            SecdedLineCodec::new(Arc::clone(&map)),
            LineStore::new(2),
            OracleClassifier::from_threshold(&map, 2, killi_fault::map::layout::SECDED, 2),
            PassthroughPolicy,
        );
        assert_eq!(pipe.victim_class(0), None, "two-fault line disabled");
        assert_eq!(pipe.victim_class(1), Some(0));
        let data = Line512::zero();
        pipe.on_fill(1, &data);
        let mut arr = data;
        assert!(matches!(
            pipe.on_read_hit(1, &mut arr),
            ReadOutcome::Clean {
                corrected: false,
                ..
            }
        ));
        pipe.on_evict(1, &arr);
        let m = pipe.metrics();
        assert_eq!(m.get(Counter::DisabledLines), 1);
        assert_eq!(m.get(Counter::Corrections), 0);
    }
}
