//! Rete bench: runs the SPAM LCC phase (DC, coarse Level 4 — the
//! decomposition where one engine holds a whole kind's working memory and
//! the unshared network's linear scans dominate) under both network
//! configurations and writes `BENCH_rete.json` with the shared vs unshared
//! match work, wall time, network statistics, and the headline reduction.
//!
//! ```sh
//! cargo run --release --bin bench_rete [-- out.json] [--check-reduction PCT]
//! ```
//!
//! Each side's `wall_ms` is the median over `REPS` repetitions that
//! alternate the two configurations, so slow host drift hits both alike;
//! `host` records the cores and build profile it was measured with. CI
//! compares the output against `crates/bench/baselines/BENCH_rete.json`
//! with `benchdiff --ignore shared.wall_ms --ignore unshared.wall_ms
//! --ignore host` (work units are deterministic; wall time is not) and
//! gates the headline with `--check-reduction 25`.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use ops5::profile::NetStats;
use spam::lcc::{run_lcc_profiled, LccPhaseResult, Level};
use spam::rules::SpamProgram;
use tlp_bench::{header, median, Host};
use tlp_obs::json::Json;

/// Timed repetitions per configuration.
const REPS: usize = 9;

/// One configuration's measurement: the LCC result, its aggregated
/// network statistics, and the median wall time of its runs.
struct Measured {
    lcc: LccPhaseResult,
    net: NetStats,
    wall_ms: f64,
}

/// One profiled LCC Level 4 run and its wall time in milliseconds.
fn run_once(
    sp: &SpamProgram,
    scene: &Arc<spam::scene::Scene>,
    frags: &Arc<Vec<spam::fragments::FragmentHypothesis>>,
) -> (LccPhaseResult, NetStats, f64) {
    let start = Instant::now();
    let (lcc, profile) = run_lcc_profiled(sp, scene, frags, Level::L4);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    (lcc, profile.map(|p| p.net).unwrap_or_default(), wall_ms)
}

/// Runs every configuration `REPS` times, alternating between them each
/// repetition, and returns one [`Measured`] per configuration. Every
/// repetition of a configuration must compute the same work and network
/// statistics; only the wall times differ.
fn measure(
    sps: &[&SpamProgram],
    scene: &Arc<spam::scene::Scene>,
    frags: &Arc<Vec<spam::fragments::FragmentHypothesis>>,
) -> Vec<Measured> {
    let mut first: Vec<Option<(LccPhaseResult, NetStats)>> = sps.iter().map(|_| None).collect();
    let mut walls: Vec<Vec<f64>> = vec![Vec::with_capacity(REPS); sps.len()];
    for _ in 0..REPS {
        for (i, sp) in sps.iter().enumerate() {
            let (lcc, net, wall_ms) = run_once(sp, scene, frags);
            walls[i].push(wall_ms);
            match &first[i] {
                Some((l, n)) => {
                    assert_eq!(l.work, lcc.work, "repetitions must compute the same work");
                    assert_eq!(*n, net, "repetitions must match on the same network");
                }
                None => first[i] = Some((lcc, net)),
            }
        }
    }
    first
        .into_iter()
        .zip(&walls)
        .map(|(f, w)| {
            let (lcc, net) = f.expect("at least one repetition");
            Measured {
                lcc,
                net,
                wall_ms: median(w),
            }
        })
        .collect()
}

fn side_json(m: &Measured) -> Json {
    Json::obj(vec![
        ("match_units", Json::Num(m.lcc.work.match_units as f64)),
        ("resolve_units", Json::Num(m.lcc.work.resolve_units as f64)),
        ("act_units", Json::Num(m.lcc.work.act_units as f64)),
        ("firings", Json::Num(m.lcc.firings as f64)),
        ("wall_ms", Json::Num(m.wall_ms)),
        (
            "net",
            Json::obj(vec![
                ("beta_nodes", Json::Num(m.net.beta_nodes as f64)),
                (
                    "unshared_beta_nodes",
                    Json::Num(m.net.unshared_beta_nodes as f64),
                ),
                ("shared_node_hits", Json::Num(m.net.shared_node_hits as f64)),
                ("index_probes", Json::Num(m.net.index_probes as f64)),
                ("linear_scans", Json::Num(m.net.linear_scans as f64)),
                ("shared_test_hits", Json::Num(m.net.shared_test_hits as f64)),
            ]),
        ),
    ])
}

fn main() -> ExitCode {
    let mut out = "BENCH_rete.json".to_string();
    let mut check_reduction: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check-reduction" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<f64>() {
                    Ok(t) if t >= 0.0 => check_reduction = Some(t),
                    _ => {
                        eprintln!("bad --check-reduction '{v}' (want a percentage >= 0)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!("usage: bench_rete [OUT.json] [--check-reduction PCT]");
                return ExitCode::FAILURE;
            }
            _ => out = a,
        }
    }

    header("Rete bench — shared+indexed vs unshared network (LCC Level 4, DC)");
    let dataset = spam::datasets::dc();
    let sp_shared = SpamProgram::build();
    let sp_unshared = sp_shared.clone().with_config(ops5::ReteConfig::unshared());
    let scene = Arc::new(spam::generate_scene(&dataset.spec));
    let frags = Arc::new(spam::rtf::run_rtf(&sp_shared, &scene).fragments);
    let host = Host::detect();
    println!("host: {host}, {REPS} interleaved repetitions per configuration");

    let mut measured = measure(&[&sp_shared, &sp_unshared], &scene, &frags).into_iter();
    let (shared, unshared) = (measured.next().unwrap(), measured.next().unwrap());

    // The network configuration must not change what the phase computes.
    assert_eq!(shared.lcc.fragments, unshared.lcc.fragments);
    assert_eq!(shared.lcc.firings, unshared.lcc.firings);

    let reduction_pct = 100.0
        * (unshared.lcc.work.match_units - shared.lcc.work.match_units) as f64
        / unshared.lcc.work.match_units as f64;
    println!(
        "shared:   {:>10} match units  ({} beta nodes, {} index probes, {:.0} ms)",
        shared.lcc.work.match_units, shared.net.beta_nodes, shared.net.index_probes, shared.wall_ms
    );
    println!(
        "unshared: {:>10} match units  ({} beta nodes, {} linear scans, {:.0} ms)",
        unshared.lcc.work.match_units,
        unshared.net.beta_nodes,
        unshared.net.linear_scans,
        unshared.wall_ms
    );
    println!("match work reduction: {reduction_pct:.1}%");

    let doc = Json::obj(vec![
        ("bench", Json::str("rete")),
        ("dataset", Json::str(dataset.spec.name)),
        ("phase", Json::str("LCC Level 4")),
        ("host", host.json()),
        ("shared", side_json(&shared)),
        ("unshared", side_json(&unshared)),
        ("reduction_pct", Json::Num(reduction_pct)),
    ]);
    std::fs::write(&out, doc.write()).expect("write bench json");
    println!("wrote {out}");

    if let Some(min) = check_reduction {
        if reduction_pct < min {
            eprintln!(
                "bench_rete: match work reduction {reduction_pct:.1}% below the {min:.1}% gate"
            );
            return ExitCode::FAILURE;
        }
        println!("reduction gate: {reduction_pct:.1}% >= {min:.1}% — ok");
    }
    ExitCode::SUCCESS
}
