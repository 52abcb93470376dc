//! Observability bench: runs the supervised LCC phase with the flight
//! recorder at `full`, replays the measured trace on the simulated Encore,
//! and writes `BENCH_obs.json` — the metrics-registry snapshot with
//! per-phase queue-wait / service-time / match-fraction histograms plus
//! recorder volume counters. `EXPERIMENTS.md` records a reference run.
//!
//! ```sh
//! cargo run --release --bin bench_obs [-- out.json]
//! ```

use spam::lcc::Level;
use spam_psm::trace::{lcc_trace, record_phase_metrics, record_sim_metrics};
use tlp_bench::{header, Prepared};
use tlp_fault::{FaultPlan, SupervisorConfig};
use tlp_obs::{Live, Metric, MetricsRegistry, ObsLevel, Recorder};

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_obs.json".into());
    header("Observability bench — flight recorder + metrics registry (LCC Level 3, DC)");
    let p = Prepared::new(spam::datasets::dc());

    let rec = Recorder::new(ObsLevel::Full);
    let phase = spam_psm::tlp::run_parallel_lcc_scene(
        &p.sp,
        &p.scene,
        &p.fragments,
        Level::L3,
        4,
        &SupervisorConfig::default(),
        &FaultPlan::none(),
        &rec,
        &Live::off(),
        None,
        None,
    )
    .expect("supervised LCC");
    let trace = lcc_trace(&phase);

    let reg = MetricsRegistry::new();
    record_phase_metrics(&reg, "lcc", &trace, Some(&phase.report));
    for n in [1u32, 8, 14] {
        let sim = multimax_sim::simulate(&multimax_sim::SimConfig::encore(n), &trace.tasks.tasks);
        record_sim_metrics(&reg, &format!("lcc.n{n}"), &sim);
    }
    reg.count("recorder.events", rec.len() as u64);
    reg.count("recorder.threads", rec.threads().len() as u64);

    let snap = reg.snapshot();
    println!("{} metrics recorded; highlights:", snap.len());
    for key in [
        "lcc.service_time_s",
        "lcc.queue_wait_s",
        "lcc.n14.sim_queue_wait_s",
    ] {
        if let Some(Metric::Histogram(h)) = snap.get(key) {
            println!(
                "  {key}: n={} mean={:.4}s p50={:.4}s p99={:.4}s",
                h.count(),
                h.mean(),
                h.quantile(0.5).unwrap_or(0.0),
                h.quantile(0.99).unwrap_or(0.0),
            );
        }
    }
    println!(
        "recorder: {} events across {} threads",
        rec.len(),
        rec.threads().len()
    );

    std::fs::write(&out, reg.to_json().write()).expect("write metrics json");
    println!("wrote {out}");
}
