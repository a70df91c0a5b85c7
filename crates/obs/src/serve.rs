//! Observability for the `killi-serve` daemon.
//!
//! The service records [`ServeEvent`]s and counts them in
//! [`ServeMetrics`], the crate's one [`CounterSet`] instantiated over
//! [`ServeCounter`]. The counters stay apart from the simulator's
//! [`crate::MetricSet`]: those are part of the byte-stable
//! `killi-sweep/v2` report schema, while these describe the daemon's
//! lifecycle (accepts, queue churn, cache behaviour) and are served
//! under their own `killi-serve-metrics/v1` schema from `/v1/metrics`.
//! [`ServeMetrics::apply`] is the single place an event increments its
//! counters.

use crate::metrics::{counter_kind, CounterSet};

/// Job identifiers are 128-bit content hashes, rendered as 32 hex chars.
pub type JobId = u128;

/// Formats a [`JobId`] the way the service spells it on the wire.
pub fn format_job_id(id: JobId) -> String {
    format!("{id:032x}")
}

/// Parses a 32-hex-char job id as produced by [`format_job_id`].
pub fn parse_job_id(text: &str) -> Option<JobId> {
    if text.len() != 32 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    JobId::from_str_radix(text, 16).ok()
}

/// Everything observable that happens inside the sweep service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeEvent {
    /// A syntactically valid job was accepted (new or duplicate).
    JobAccepted { job: JobId },
    /// A new job entered the FIFO queue; `depth` is the queue length
    /// after the push.
    JobEnqueued { job: JobId, depth: usize },
    /// A worker pulled the job off the queue and started executing it.
    JobDequeued { job: JobId, worker: usize },
    /// The sweep finished and its report was stored.
    JobCompleted { job: JobId },
    /// The sweep panicked or was otherwise lost; the job is terminal.
    JobFailed { job: JobId },
    /// A submission matched an already-known job (any state) and was
    /// answered from the content-addressed store without re-running.
    CacheHit { job: JobId },
    /// A completed report was inserted into the result cache.
    CacheInsert { job: JobId },
    /// A completed report was evicted to honour the cache capacity.
    CacheEvict { job: JobId },
    /// A submission was rejected with 429 because the queue was full.
    QueueFull { depth: usize },
    /// A submission was rejected with 503 because shutdown has begun
    /// and the service no longer accepts new jobs.
    Draining,
    /// A request failed validation (bad JSON, bad config, oversize...).
    BadRequest,
}

counter_kind! {
    /// Every monotonic counter the service taxonomy can increment.
    pub enum ServeCounter {
        JobsAccepted => "jobs_accepted",
        JobsEnqueued => "jobs_enqueued",
        JobsDequeued => "jobs_dequeued",
        JobsCompleted => "jobs_completed",
        JobsFailed => "jobs_failed",
        SweepExecutions => "sweep_executions",
        CacheHits => "cache_hits",
        CacheInserts => "cache_inserts",
        CacheEvictions => "cache_evictions",
        RejectedQueueFull => "rejected_queue_full",
        RejectedDraining => "rejected_draining",
        BadRequests => "bad_requests",
    }
}

/// Aggregate counter state for the daemon.
pub type ServeMetrics = CounterSet<ServeCounter, { ServeCounter::COUNT }>;

impl ServeMetrics {
    /// Routes an event to the counters it implies — the single place
    /// the service taxonomy maps onto the registry.
    pub fn apply(&mut self, event: &ServeEvent) {
        match event {
            ServeEvent::JobAccepted { .. } => self.add(ServeCounter::JobsAccepted, 1),
            ServeEvent::JobEnqueued { .. } => self.add(ServeCounter::JobsEnqueued, 1),
            ServeEvent::JobDequeued { .. } => {
                self.add(ServeCounter::JobsDequeued, 1);
                self.add(ServeCounter::SweepExecutions, 1);
            }
            ServeEvent::JobCompleted { .. } => self.add(ServeCounter::JobsCompleted, 1),
            ServeEvent::JobFailed { .. } => self.add(ServeCounter::JobsFailed, 1),
            ServeEvent::CacheHit { .. } => self.add(ServeCounter::CacheHits, 1),
            ServeEvent::CacheInsert { .. } => self.add(ServeCounter::CacheInserts, 1),
            ServeEvent::CacheEvict { .. } => self.add(ServeCounter::CacheEvictions, 1),
            ServeEvent::QueueFull { .. } => self.add(ServeCounter::RejectedQueueFull, 1),
            ServeEvent::Draining => self.add(ServeCounter::RejectedDraining, 1),
            ServeEvent::BadRequest => self.add(ServeCounter::BadRequests, 1),
        }
    }

    /// Serialises the set under the `killi-serve-metrics/v1` schema.
    /// Field order is fixed, so equal snapshots produce identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"killi-serve-metrics/v1\",\"counters\":");
        self.write_json(&mut out);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_round_trips_through_hex() {
        for id in [0u128, 1, u128::MAX, 0xdead_beef_cafe] {
            let text = format_job_id(id);
            assert_eq!(text.len(), 32);
            assert_eq!(parse_job_id(&text), Some(id));
        }
        assert_eq!(parse_job_id("xyz"), None);
        assert_eq!(parse_job_id(&"f".repeat(33)), None);
        assert_eq!(parse_job_id("00000000000000000000000000000g00"), None);
    }

    #[test]
    fn apply_routes_every_event_kind() {
        let mut m = ServeMetrics::new();
        let events = [
            ServeEvent::JobAccepted { job: 1 },
            ServeEvent::JobEnqueued { job: 1, depth: 1 },
            ServeEvent::JobDequeued { job: 1, worker: 0 },
            ServeEvent::JobCompleted { job: 1 },
            ServeEvent::JobFailed { job: 2 },
            ServeEvent::CacheHit { job: 1 },
            ServeEvent::CacheInsert { job: 1 },
            ServeEvent::CacheEvict { job: 1 },
            ServeEvent::QueueFull { depth: 4 },
            ServeEvent::Draining,
            ServeEvent::BadRequest,
        ];
        for e in &events {
            m.apply(e);
        }
        let v = crate::json::parse(&m.to_json()).expect("serve metrics JSON parses");
        let Some(crate::JsonValue::Object(counters)) = v.get("counters") else {
            panic!("no counters object");
        };
        for (name, value) in counters {
            assert!(value.as_u64() >= Some(1), "counter {name} untouched");
        }
        // JobDequeued implies one sweep execution.
        assert_eq!(m.get(ServeCounter::SweepExecutions), 1);
    }

    #[test]
    fn json_bytes_are_pinned() {
        // `/v1/metrics` serves these bytes and clients parse them by
        // name; pin both the field order and the name-to-counter map.
        let mut m = ServeMetrics::new();
        let counters = [
            ServeCounter::JobsAccepted,
            ServeCounter::JobsEnqueued,
            ServeCounter::JobsDequeued,
            ServeCounter::JobsCompleted,
            ServeCounter::JobsFailed,
            ServeCounter::SweepExecutions,
            ServeCounter::CacheHits,
            ServeCounter::CacheInserts,
            ServeCounter::CacheEvictions,
            ServeCounter::RejectedQueueFull,
            ServeCounter::RejectedDraining,
            ServeCounter::BadRequests,
        ];
        for (i, c) in counters.into_iter().enumerate() {
            m.add(c, 10 + i as u64);
        }
        m.apply(&ServeEvent::JobDequeued { job: 7, worker: 0 });
        assert_eq!(
            m.to_json(),
            "{\"schema\":\"killi-serve-metrics/v1\",\"counters\":{\
             \"jobs_accepted\":10,\"jobs_enqueued\":11,\"jobs_dequeued\":13,\
             \"jobs_completed\":13,\"jobs_failed\":14,\"sweep_executions\":16,\
             \"cache_hits\":16,\"cache_inserts\":17,\"cache_evictions\":18,\
             \"rejected_queue_full\":19,\"rejected_draining\":20,\"bad_requests\":21}}"
        );
    }
}
