//! One function per figure/table of the paper. Each returns the rendered
//! report so binaries and `repro` can compose them.

use killi_fault::cell_model::{FailureKind, FreqGhz, NormVdd};
use killi_fault::line_stats::LineFaultDistribution;
use killi_model::area::{checkbits, AreaModel};
use killi_model::coverage::coverage_at;
use killi_model::power::{PowerModel, SchemePower};
use killi_workloads::Workload;

use crate::fault_models::{build_fault_model, stuck_at, stuck_at_cell_model};
use crate::report::{pct, Table};
use crate::runner::{baseline_of, run_matrix, MatrixConfig, RunResult};
use crate::schemes::{KilliAblation, SchemeSpec};

/// Figure 1: SRAM cell failure probability vs normalized VDD at 1 GHz.
pub fn fig1() -> String {
    let model = stuck_at_cell_model();
    let mut t = Table::new(vec![
        "vdd",
        "p_read_disturb",
        "p_writeability",
        "p_combined",
        "p_median_line",
    ]);
    let mut v = 0.50;
    while v <= 1.001 {
        let vdd = NormVdd(v);
        t.row(vec![
            format!("{v:.3}"),
            format!(
                "{:.3e}",
                model.p_cell_mean(vdd, FreqGhz::PEAK, FailureKind::ReadDisturb)
            ),
            format!(
                "{:.3e}",
                model.p_cell_mean(vdd, FreqGhz::PEAK, FailureKind::Writeability)
            ),
            format!(
                "{:.3e}",
                model.p_cell_mean(vdd, FreqGhz::PEAK, FailureKind::Combined)
            ),
            format!(
                "{:.3e}",
                model.p_cell_median(vdd, FreqGhz::PEAK, FailureKind::Combined)
            ),
        ]);
        v += 0.025;
    }
    format!(
        "Figure 1: SRAM cell failure probability vs normalized VDD (1 GHz)\n\
         (model calibrated to the paper's 14nm FinFET aggregates)\n\n{}",
        t.render()
    )
}

/// Figure 2: fraction of 64B lines with 0 / 1 / >= 2 failures vs VDD,
/// analytic and sampled from an actual fault map.
pub fn fig2(seed: u64) -> String {
    let model = stuck_at_cell_model();
    let fault_model = build_fault_model(&stuck_at()).expect("stuck-at always builds");
    let mut t = Table::new(vec![
        "vdd",
        "zero",
        "one",
        "two_plus",
        "zero(map)",
        "one(map)",
        "two_plus(map)",
    ]);
    for v in [0.70, 0.675, 0.65, 0.625, 0.60, 0.575, 0.55] {
        let vdd = NormVdd(v);
        let ana = LineFaultDistribution::at(&model, vdd, FreqGhz::PEAK);
        let map = fault_model.map(32768, vdd, FreqGhz::PEAK, seed);
        let meas = LineFaultDistribution::measured(&map);
        t.row(vec![
            format!("{v:.3}"),
            pct(ana.zero, 2),
            pct(ana.one, 2),
            pct(ana.two_plus, 2),
            pct(meas.zero, 2),
            pct(meas.one, 2),
            pct(meas.two_plus, 2),
        ]);
    }
    format!(
        "Figure 2: lines with 0, 1, and >= 2 failures (523-cell analytic /\n\
         512-data-cell sampled 2MB map)\n\n{}",
        t.render()
    )
}

/// Runs the Figure 4/5 simulation matrix once; both figures and Table 6
/// are derived from the result set.
pub fn perf_matrix(config: &MatrixConfig) -> Vec<RunResult> {
    let schemes: Vec<_> = SchemeSpec::figure4_set()
        .iter()
        .map(SchemeSpec::config)
        .collect();
    run_matrix(&Workload::ALL, &schemes, config)
}

/// Figure 4: kernel execution time normalized to the fault-free baseline.
pub fn fig4(results: &[RunResult]) -> String {
    let schemes: Vec<String> = SchemeSpec::figure4_set()
        .iter()
        .map(SchemeSpec::label)
        .collect();
    let mut header = vec!["workload".to_string()];
    header.extend(schemes.iter().cloned());
    let mut t = Table::new(header);
    let mut geo: Vec<f64> = vec![0.0; schemes.len()];
    for w in Workload::ALL {
        let base = baseline_of(results, w.name());
        let mut row = vec![w.name().to_string()];
        for (i, s) in schemes.iter().enumerate() {
            let r = results
                .iter()
                .find(|r| r.workload == w.name() && &r.scheme == s)
                .expect("matrix cell");
            let norm = r.stats.normalized_time(&base.stats);
            geo[i] += norm.ln();
            row.push(format!("{norm:.4}"));
        }
        t.row(row);
    }
    let mut gm = vec!["geomean".to_string()];
    for g in &geo {
        gm.push(format!("{:.4}", (g / Workload::ALL.len() as f64).exp()));
    }
    t.row(gm);
    format!(
        "Figure 4: GPU kernel execution time at 0.625 x VDD, normalized to a\n\
         fault-free system at 1.0 x VDD (paper: Killi <= 1.008 except FFT/XSBench\n\
         at small ECC caches, max 1.05)\n\n{}",
        t.render()
    )
}

/// Figure 5: L2 MPKI per workload and scheme, split into the paper's
/// compute-bound (< 50) and memory-bound (> 100) plots.
pub fn fig5(results: &[RunResult]) -> String {
    let schemes: Vec<String> = std::iter::once("baseline".to_string())
        .chain(SchemeSpec::figure4_set().iter().map(SchemeSpec::label))
        .collect();
    let render_bucket = |memory_bound: bool| -> String {
        let mut header = vec!["workload".to_string()];
        header.extend(schemes.iter().cloned());
        let mut t = Table::new(header);
        for w in Workload::ALL {
            if w.is_memory_bound() != memory_bound {
                continue;
            }
            let mut row = vec![w.name().to_string()];
            for s in &schemes {
                let r = results
                    .iter()
                    .find(|r| r.workload == w.name() && &r.scheme == s)
                    .expect("matrix cell");
                row.push(format!("{:.2}", r.stats.mpki()));
            }
            t.row(row);
        }
        t.render()
    };
    format!(
        "Figure 5: L2 misses per kilo-instruction at 0.625 x VDD\n\n\
         Compute-bound workloads (paper bucket: MPKI < 50):\n{}\n\
         Memory-bound workloads (paper bucket: MPKI > 100):\n{}",
        render_bucket(false),
        render_bucket(true)
    )
}

/// Figure 6: percentage of lines whose fault count each technique
/// classifies correctly, across voltage. The analytic §5.3 columns are
/// cross-validated by Monte-Carlo runs of the *actual* codecs and Table 2
/// classifier (columns suffixed `(mc)`).
pub fn fig6() -> String {
    let model = stuck_at_cell_model();
    let mut t = Table::new(vec![
        "vdd",
        "parity16",
        "secded",
        "dected",
        "ms-ecc",
        "flair",
        "killi",
        "secded(mc)",
        "dected(mc)",
        "killi(mc)",
    ]);
    for v in [0.675, 0.65, 0.625, 0.60, 0.575, 0.55, 0.525, 0.50] {
        let c = coverage_at(&model, NormVdd(v));
        let mc = crate::empirical::measure(&model, NormVdd(v), 20_000, 42);
        t.row(vec![
            format!("{v:.3}"),
            pct(c.parity16, 4),
            pct(c.secded, 4),
            pct(c.dected, 4),
            pct(c.msecc, 4),
            pct(c.flair, 4),
            pct(c.killi, 4),
            pct(mc.secded, 2),
            pct(mc.dected, 2),
            pct(mc.killi, 2),
        ]);
    }
    format!(
        "Figure 6: correct fault-classification coverage without MBIST\n\
         (paper: all techniques 100% down to 0.6 x VDD; below that only Killi\n\
         and FLAIR stay near 100%; (mc) columns = Monte-Carlo over the real\n\
         codecs and Table 2 classifier, 20k lines each)\n\n{}",
        t.render()
    )
}

/// Table 4: Killi storage area with stronger ECC-cache codes, normalized
/// to per-line SECDED.
pub fn table4() -> String {
    let m = AreaModel::paper();
    let ratios = [256usize, 128, 64, 32, 16];
    let mut header = vec!["code".to_string()];
    header.extend(ratios.iter().map(|r| format!("1:{r}")));
    let mut t = Table::new(header);
    for (name, code) in [
        ("DECTED", checkbits::DECTED),
        ("TECQED", checkbits::TECQED),
        ("6EC7ED", checkbits::SIX_EC),
    ] {
        let mut row = vec![name.to_string()];
        for &r in &ratios {
            row.push(format!("{:.2}", m.ratio_to_secded(m.killi_bits(r, code))));
        }
        t.row(row);
    }
    format!(
        "Table 4: Killi storage area with DECTED/TECQED/6EC7ED ECC-cache codes,\n\
         normalized to per-line SECDED (paper row DECTED: 0.51..0.71, TECQED:\n\
         0.52..0.82, 6EC7ED: 0.53..0.97)\n\n{}",
        t.render()
    )
}

/// Table 5: area comparison across protection schemes.
pub fn table5() -> String {
    let m = AreaModel::paper();
    let mut t = Table::new(vec!["scheme", "added KiB", "ratio vs SECDED", "% over L2"]);
    let mut push = |name: &str, bits: usize| {
        t.row(vec![
            name.to_string(),
            format!("{:.2}", AreaModel::kib(bits)),
            format!("{:.2}", m.ratio_to_secded(bits)),
            pct(m.fraction_of_l2(bits), 2),
        ]);
    };
    push("DECTED", m.per_line_bits(checkbits::DECTED));
    push("MS-ECC (paper cfg)", m.per_line_bits(checkbits::OLSC_PAPER));
    push("MS-ECC (our OLSC)", m.per_line_bits(checkbits::OLSC_IMPL));
    push("SECDED", m.per_line_bits(checkbits::SECDED));
    for r in [256usize, 128, 64, 32, 16] {
        push(&format!("Killi 1:{r}"), m.killi_bits(r, checkbits::SECDED));
    }
    format!(
        "Table 5: error-protection area (paper: DECTED 1.9x / 4.3%, MS-ECC 18x /\n\
         38.6%, SECDED 1x / 2.3%, Killi 0.51x-0.71x / 1.2%-1.67%)\n\n{}",
        t.render()
    )
}

/// Table 6: L2 power normalized to the fault-free nominal-VDD baseline,
/// using measured access counts from the Figure 4 matrix.
pub fn table6(results: &[RunResult]) -> String {
    let pm = PowerModel::paper();
    let entries: Vec<(String, SchemePower)> = vec![
        ("dected".into(), SchemePower::dected()),
        ("flair".into(), SchemePower::flair()),
        ("ms-ecc".into(), SchemePower::msecc()),
        ("killi-1:256".into(), SchemePower::killi(256)),
        ("killi-1:128".into(), SchemePower::killi(128)),
        ("killi-1:64".into(), SchemePower::killi(64)),
        ("killi-1:32".into(), SchemePower::killi(32)),
        ("killi-1:16".into(), SchemePower::killi(16)),
    ];
    let mut t = Table::new(vec!["scheme", "normalized power"]);
    for (label, sp) in entries {
        // Average the model over all workloads that have this scheme.
        let mut acc = 0.0;
        let mut n = 0usize;
        for w in Workload::ALL {
            let Some(base) = crate::runner::try_baseline_of(results, w.name()) else {
                continue; // `run_matrix` over a subset of the workloads
            };
            if let Some(r) = results
                .iter()
                .find(|r| r.workload == w.name() && r.scheme == label)
            {
                acc += pm.normalized(sp, &r.stats, &base.stats);
                n += 1;
            }
        }
        if n > 0 {
            t.row(vec![label, pct(acc / n as f64, 1)]);
        }
    }
    format!(
        "Table 6: L2 power at 0.625 x VDD, normalized to fault-free nominal\n\
         (paper: DECTED 43.7, MS-ECC 55.3, FLAIR 42.6, Killi 40.3..42.4)\n\n{}",
        t.render()
    )
}

/// Table 7: Killi-with-OLSC storage vs MS-ECC at matched capacity for
/// lower-Vmin operation.
pub fn table7() -> String {
    let model = stuck_at_cell_model();
    let m = AreaModel::paper();
    let mut t = Table::new(vec![
        "vdd",
        "L2 capacity target",
        "Killi ECC-cache ratio",
        "Killi area / MS-ECC",
    ]);
    for (v, ratio) in [(0.600, 8usize), (0.575, 2)] {
        let capacity =
            LineFaultDistribution::enabled_fraction_at(&model, NormVdd(v), FreqGhz::PEAK, 523, 11);
        t.row(vec![
            format!("{v:.3}"),
            pct(capacity, 1),
            format!("1:{ratio}"),
            pct(m.killi_olsc_vs_msecc(ratio), 1),
        ]);
    }
    format!(
        "Table 7: Killi (with OLSC in the ECC cache) vs MS-ECC at matched\n\
         capacity (paper: 99.8% target -> 17%, 69.6% target -> 65%)\n\n{}",
        t.render()
    )
}

/// Ablation study: the §4.4 optimizations plus the §5.2 / §5.6.2
/// extensions, on the capacity-sensitive workloads.
pub fn ablations(config: &MatrixConfig) -> String {
    let workloads = [Workload::Xsbench, Workload::Fft, Workload::Pennant];
    let specs = [
        SchemeSpec::Killi(64),
        SchemeSpec::KilliAblation(KilliAblation::NoVictimPriority),
        SchemeSpec::KilliAblation(KilliAblation::NoEvictionTraining),
        SchemeSpec::KilliAblation(KilliAblation::NoPromotion),
        SchemeSpec::KilliDected(64),
        SchemeSpec::KilliInverted(64),
        SchemeSpec::FlairOnline,
    ];
    let configs: Vec<_> = specs.iter().map(SchemeSpec::config).collect();
    let results = run_matrix(&workloads, &configs, config);
    let mut header = vec!["scheme".to_string()];
    for w in workloads {
        header.push(format!("{} time", w.name()));
        header.push(format!("{} mpki", w.name()));
    }
    let mut t = Table::new(header);
    for s in specs {
        let label = s.label();
        let mut row = vec![label.clone()];
        for w in workloads {
            let base = baseline_of(&results, w.name());
            let r = results
                .iter()
                .find(|r| r.workload == w.name() && r.scheme == label)
                .expect("cell");
            row.push(format!("{:.4}", r.stats.normalized_time(&base.stats)));
            row.push(format!("{:.2}", r.stats.mpki()));
        }
        t.row(row);
    }
    format!(
        "Ablations: Killi §4.4 optimizations, §5.2 DECTED upgrade, §5.6.2\n\
         inverted-write check, and FLAIR's online training (normalized time\n\
         and MPKI on the capacity-sensitive workloads)\n\n{}",
        t.render()
    )
}

/// §5.5: Killi-with-OLSC vs MS-ECC below 0.625 x VDD (the paper claims
/// matched capacity and performance at 17 % / 65 % of MS-ECC's area).
pub fn lowvmin(base_config: &MatrixConfig) -> String {
    let mut out = String::from(
        "Section 5.5: Killi with OLSC vs MS-ECC below 0.625 x VDD\n\
         (paper: same capacity and performance at 17% / 65% of the area)\n\n",
    );
    for (vdd, ratio) in [(0.600, 8usize), (0.575, 2)] {
        let mut config = base_config.clone();
        config.vdd = NormVdd(vdd);
        let results = run_matrix(
            &[Workload::Xsbench, Workload::Pennant],
            &[
                SchemeSpec::MsEcc.config(),
                SchemeSpec::KilliOlsc(ratio).config(),
            ],
            &config,
        );
        let mut t = Table::new(vec![
            "workload",
            "scheme",
            "norm.time",
            "mpki",
            "disabled lines",
        ]);
        for r in results.iter().filter(|r| r.scheme != "baseline") {
            let base = baseline_of(&results, r.workload);
            t.row(vec![
                r.workload.to_string(),
                r.scheme.clone(),
                format!("{:.4}", r.stats.normalized_time(&base.stats)),
                format!("{:.2}", r.stats.mpki()),
                r.disabled_lines.to_string(),
            ]);
        }
        out.push_str(&format!("VDD = {vdd} (Killi-OLSC at 1:{ratio}):\n"));
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_reports_render() {
        for s in [fig1(), fig6(), table4(), table5(), table7()] {
            assert!(s.lines().count() > 5, "{s}");
        }
    }

    #[test]
    fn fig2_renders_with_sampled_map() {
        let s = fig2(3);
        assert!(s.contains("0.625"));
    }

    /// The `table6` row value of `label`, e.g. `"41.2%"`.
    fn table6_value<'a>(table: &'a str, label: &str) -> Option<&'a str> {
        table.lines().find_map(|line| {
            let mut cells = line.split_whitespace();
            cells.next().filter(|&c| c == label).and(cells.next())
        })
    }

    #[test]
    fn matrix_reports_render_every_workload_and_scheme() {
        let mut config = MatrixConfig::paper(300, 42);
        config.threads = 2;
        config.gpu.cus = 2;
        config.gpu.l2.size_bytes = 64 * 1024;
        let results = perf_matrix(&config);
        let labels: Vec<String> = SchemeSpec::figure4_set()
            .iter()
            .map(SchemeSpec::label)
            .collect();
        assert_eq!(results.len(), Workload::ALL.len() * (1 + labels.len()));
        let (f4, f5, t6) = (fig4(&results), fig5(&results), table6(&results));
        assert!(f4.contains("geomean"), "{f4}");
        assert!(f5.contains("Compute-bound") && f5.contains("Memory-bound"));
        assert!(Workload::ALL
            .iter()
            .all(|w| f4.contains(w.name()) && f5.contains(w.name())));
        for label in &labels {
            assert!(f4.contains(label.as_str()) && f5.contains(label.as_str()));
            assert!(table6_value(&t6, label).is_some_and(|v| v.ends_with('%')));
        }

        // A one-workload result set: table6 skips the workloads without
        // a baseline run and averages over the one that has it.
        let hacc: Vec<RunResult> = results
            .into_iter()
            .filter(|r| r.workload == Workload::Hacc.name())
            .collect();
        let base = baseline_of(&hacc, Workload::Hacc.name());
        let killi = hacc.iter().find(|r| r.scheme == "killi-1:64").unwrap();
        let power = PowerModel::paper();
        let expected = power.normalized(SchemePower::killi(64), &killi.stats, &base.stats);
        let partial = table6(&hacc);
        let value = table6_value(&partial, "killi-1:64");
        assert_eq!(value, Some(pct(expected, 1).as_str()), "{partial}");
        assert!(labels.iter().all(|l| table6_value(&partial, l).is_some()));
    }
}
