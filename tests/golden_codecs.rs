//! Golden-bytes regression test for the correcting codecs: a sweep over
//! every scheme whose cells run DEC-TED or OLSC — `dected`,
//! `killi-dected`, MS-ECC at three OLSC geometries and Killi-OLSC at two
//! ECC-cache sizes — must emit the recorded `killi-sweep/v2` report and
//! `killi-obs/v1` event trace at every thread count.
//!
//! The two voltages are where these codecs both correct and detect, so
//! a codec rewrite that changes any verdict, corrected bit or
//! checkbit layout shows up as a byte difference. `golden_sweep.rs` pins
//! plain Killi; this file pins the codecs it does not run.
//!
//! To re-bless after an *intentional* output change, run:
//!
//! ```sh
//! KILLI_BLESS=1 cargo test --test golden_codecs
//! ```

use std::path::PathBuf;

use killi_repro::bench::schemes::SchemeConfig;
use killi_repro::bench::sweep::{run_sweep, SweepConfig, SweepReport};
use killi_repro::obs::Counter;
use killi_repro::sim::cache::CacheGeometry;
use killi_repro::sim::gpu::GpuConfig;
use killi_repro::workloads::Workload;

fn codec_sweep(threads: usize) -> SweepConfig {
    let schemes = [
        "dected",
        "killi-dected",
        "ms-ecc",
        "ms-ecc:m=16,t=4",
        "ms-ecc:m=4,t=1",
        "killi-olsc:ratio=8",
        "killi-olsc:ratio=4",
    ];
    SweepConfig {
        root_seed: 2025,
        replications: 1,
        vdds: vec![0.6, 0.575],
        schemes: schemes
            .iter()
            .map(|s| SchemeConfig::parse(s).unwrap())
            .collect(),
        fault_model: killi_repro::bench::fault_models::stuck_at(),
        workloads: vec![Workload::Xsbench],
        ops_per_cu: 2500,
        gpu: GpuConfig {
            cus: 2,
            l2: CacheGeometry {
                size_bytes: 64 * 1024,
                ways: 8,
                line_bytes: 64,
            },
            l2_banks: 4,
            mem_latency: 100,
            ..GpuConfig::default()
        },
        threads,
        progress_every: 0,
        trace_capacity: Some(256),
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn check_or_bless(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("KILLI_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with KILLI_BLESS=1", name));
    assert_eq!(
        actual, golden,
        "{name} diverged from the recorded codec bytes"
    );
}

#[test]
fn codec_sweep_matches_recorded_bytes_across_thread_counts() {
    for threads in [1usize, 2, 8] {
        let report = run_sweep(&codec_sweep(threads));
        check_or_bless("codec_report.json", &report.to_json());
        check_or_bless(
            "codec_trace.jsonl",
            report.trace.as_deref().expect("tracing was on"),
        );
        if threads == 1 {
            assert_exercises_the_codecs(&report);
        }
    }
}

/// The golden is only worth its bytes if the codecs actually correct and
/// detect at these voltages, and if every geometry has its own label: a
/// report of clean reads or merged rows pins nothing.
fn assert_exercises_the_codecs(report: &SweepReport) {
    let total = |counter: Counter| -> u64 { report.cells.iter().map(|c| c.obs.get(counter)).sum() };
    assert!(total(Counter::Corrections) > 0, "no corrections");
    assert!(total(Counter::Detections) > 0, "no detections");
    let labels: Vec<&str> = report.schemes.iter().map(String::as_str).collect();
    for label in ["ms-ecc", "ms-ecc-m16t4", "ms-ecc-m4t1", "killi-olsc-1:8"] {
        assert!(labels.contains(&label), "{label} missing from {labels:?}");
    }
}
