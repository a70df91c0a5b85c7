//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer's public function; nothing inside the program is
//! instrumented. A span names the layer call, its interval, the span
//! that caused it, the run (iteration or job) it belongs to, and how
//! many calls it covers — a span may time a batch of nanosecond-scale
//! calls (codec checks, cache probes) that would be lost in timer
//! resolution one by one.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the parent of later spans.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, `<crate>.<function>` (for example `fault.die`).
    pub name: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Identifier shared by every span of one iteration or job.
    pub run: u64,
    /// Layer calls the span covers.
    pub calls: u64,
}

/// Collects spans from any number of threads; written out once at the end.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span that encloses later ones; close it with [`Self::close`].
    pub fn open(&self, name: &str, parent: Option<SpanId>, run: u64) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            run,
            calls: 1,
        })
    }

    /// Ends a span opened with [`Self::open`].
    pub fn close(&self, id: SpanId) {
        let now = self.now_ns();
        self.spans.lock().expect("span recorder poisoned")[id].end_ns = now;
    }

    /// Times `f` as one span covering a single layer call.
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let mut out = None;
        self.time_calls(name, parent, run, || {
            out = Some(f());
            1
        });
        out.expect("closure ran")
    }

    /// Times `f` as one span covering as many layer calls as `f` returns.
    pub fn time_calls(
        &self,
        name: &str,
        parent: Option<SpanId>,
        run: u64,
        f: impl FnOnce() -> u64,
    ) {
        let start_ns = self.now_ns();
        let calls = f();
        let end_ns = self.now_ns();
        self.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            run,
            calls,
        });
    }

    /// Calls `f` `calls` times as one span and returns the last result.
    pub fn time_repeated<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        run: u64,
        calls: u64,
        mut f: impl FnMut() -> R,
    ) -> R {
        assert!(calls > 0, "a span covers at least one call");
        let mut out = None;
        self.time_calls(name, parent, run, || {
            for _ in 0..calls {
                out = Some(f());
            }
            calls
        });
        out.expect("closure ran")
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Self time per span name: `(summed self nanoseconds, summed calls)`.
    /// A span's self time is its duration minus the part of its interval
    /// that the union of its children covers.
    pub fn self_times(&self) -> BTreeMap<String, (u64, u64)> {
        let spans = self.spans();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in &spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (span, kids) in spans.iter().zip(children.iter_mut()) {
            let covered = covered_ns(span.start_ns, span.end_ns, kids);
            let entry = out.entry(span.name.clone()).or_default();
            entry.0 += (span.end_ns - span.start_ns).saturating_sub(covered);
            entry.1 += span.calls;
        }
        out
    }

    /// Mean self time per call of the spans named `name`, in nanoseconds.
    pub fn per_call_ns(&self, name: &str) -> Option<f64> {
        let (ns, calls) = *self.self_times().get(name)?;
        (calls > 0).then(|| ns as f64 / calls as f64)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{},\"calls\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.run,
                s.calls
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut kids = vec![(10, 30), (20, 40), (50, 60), (90, 120)];
        assert_eq!(covered_ns(0, 100, &mut kids), 30 + 10 + 10);
    }

    #[test]
    fn self_time_subtracts_children() {
        let rec = Recorder::new();
        let root = rec.open("root", None, 0);
        rec.time_calls("leaf", Some(root), 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            4
        });
        rec.close(root);
        let times = rec.self_times();
        let (leaf_ns, leaf_calls) = times["leaf"];
        let (root_ns, _) = times["root"];
        assert_eq!(leaf_calls, 4);
        assert!(leaf_ns >= 2_000_000);
        let spans = rec.spans();
        assert_eq!(root_ns + leaf_ns, spans[0].end_ns - spans[0].start_ns);
    }
}
