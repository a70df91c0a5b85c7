//! §5.6.1 write-back experiment: dirty-data survival under low voltage.
//!
//! In write-back mode a detected-uncorrectable error on a dirty line is
//! unrecoverable (memory is stale). The paper proposes escalating dirty
//! lines' protection — SECDED for dirty b'00, DEC-TED for dirty b'10 — to
//! match a safe-voltage SECDED cache. This experiment counts actual
//! data-loss events for plain Killi, Killi with §5.6.1 escalation, and a
//! FLAIR-style per-line SECDED cache, all in write-back mode.

use std::sync::Arc;

use killi::scheme::{KilliConfig, KilliScheme};
use killi_baselines::per_line::{self, EccStrength};
use killi_bench::fault_models::{build_fault_model, stuck_at};
use killi_bench::report::{emit, Table};
use killi_fault::cell_model::{FreqGhz, NormVdd};
use killi_sim::cache::WritePolicy;
use killi_sim::gpu::{GpuConfig, GpuSim};
use killi_sim::protection::LineProtection;
use killi_workloads::{TraceParams, Workload};

fn main() {
    let config = GpuConfig {
        write_policy: WritePolicy::WriteBack,
        ..GpuConfig::default()
    };
    let fault_model = build_fault_model(&stuck_at()).expect("stuck-at always builds");
    let ops = killi_bench::ops_from_env();
    let mut t = Table::new(vec![
        "workload",
        "scheme",
        "writebacks",
        "dirty data loss",
        "SDC",
    ]);
    for w in [Workload::Fft, Workload::Lulesh] {
        let map =
            Arc::new(fault_model.map(config.l2.lines(), NormVdd::LV_0_625, FreqGhz::PEAK, 42));
        let schemes: Vec<(&str, Box<dyn LineProtection>)> = vec![
            (
                "killi (plain)",
                Box::new(KilliScheme::new(
                    KilliConfig::with_ratio(64),
                    Arc::clone(&map),
                    config.l2.lines(),
                    config.l2.ways,
                )),
            ),
            (
                "killi + 5.6.1",
                Box::new(KilliScheme::new(
                    KilliConfig {
                        write_back_protection: true,
                        ..KilliConfig::with_ratio(64)
                    },
                    Arc::clone(&map),
                    config.l2.lines(),
                    config.l2.ways,
                )),
            ),
            (
                "flair (secded/line)",
                Box::new(
                    per_line::build(
                        "flair",
                        EccStrength::Secded,
                        Arc::clone(&map),
                        config.l2.lines(),
                    )
                    .expect("the default GPU's fault map covers its L2"),
                ),
            ),
        ];
        for (name, protection) in schemes {
            let mut sim = GpuSim::new(config, Arc::clone(&map), protection, 42);
            let params = TraceParams {
                cus: config.cus,
                ops_per_cu: ops,
                seed: 42,
                l2_bytes: config.l2.size_bytes,
            };
            let stats = sim.run(w.trace(&params));
            t.row(vec![
                w.name().to_string(),
                name.to_string(),
                stats.writebacks.to_string(),
                stats.dirty_data_loss.to_string(),
                stats.sdc_events.to_string(),
            ]);
        }
    }
    emit(
        "writeback",
        &format!(
            "Section 5.6.1: dirty-data protection in write-back mode at \
             0.625 x VDD\n\n{}",
            t.render()
        ),
    );
}
