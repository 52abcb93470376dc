//! `scenebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Interprets whole scenes in a closed loop (one client: the next scene
//! starts when the previous one finishes) with the LCC phase on
//! [`WORKERS`] threads, interleaving each scene with the same scene's LCC
//! phase on one worker. Every scene is checked against the sequential
//! pipeline. With `--trace 1` each loop step also runs one traced scene
//! and the run reports per-layer metrics instead of end-to-end ones. The
//! last stdout line is the JSON result. Every reported timing but
//! `setup_s` is net of the time the hypervisor stole ([`Clocks`]); the
//! wall-clock medians are printed beside them.

use scenebench::host::{peak_rss_mb, probe_ms, Clocks};
use scenebench::scenes::{self, check, Bench, Oracle, SchedReport, SCENES, WORKERS};
use scenebench::spans::{layer_metrics, scene_spans, span_json, Span};
use scenebench::stats::{median, quartiles, tail, Tally};
use spam_psm::attribution::GapAttribution;
use spam_psm::exec::ExecReport;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tlp_fault::TaskReport;
use tlp_obs::json::Json;

const USAGE: &str =
    "usage: scenebench --workload <coarse-l4|fine-l2|fifo-l3> [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups per run; `setup_s` is their median. Each is timed by wall
/// clock: a set-up lasts about one 10 ms tick of the steal counter, too
/// short to take steal out of, and the median drops the ones a burst hit.
const SETUP_REPS: usize = 9;

/// Where the traced run writes the span tree of its slowest traced scene.
const SPAN_DIR: &str = ".bench_out";

/// Per-layer metrics reported with `--trace 1`, with units.
const PER_LAYER: [(&str, &str); 40] = [
    ("ops5.build.self_ms", "ms"),
    ("ops5.build.calls", "count"),
    ("ops5.load.self_ms", "ms"),
    ("ops5.load.wme_adds", "count"),
    ("ops5.load.match_units", "count"),
    ("ops5.run.self_ms", "ms"),
    ("ops5.run.match_units", "count"),
    ("ops5.run.resolve_units", "count"),
    ("ops5.run.act_units", "count"),
    ("ops5.run.external_units", "count"),
    ("ops5.run.firings", "count"),
    ("ops5.run.ns_per_unit", "ns"),
    ("spam.harvest.self_ms", "ms"),
    ("lcc.task.ms", "ms"),
    ("lcc.task.residual_ms", "ms"),
    ("lcc.phase.self_ms", "ms"),
    ("core.exec.wall_ms", "ms"),
    ("core.exec.busy_ms", "ms"),
    ("core.exec.queue_wait_ms", "ms"),
    ("core.exec.fork_ms", "ms"),
    ("core.exec.idle_ms", "ms"),
    ("core.exec.utilization", "ratio"),
    ("core.exec.steals", "count"),
    ("core.exec.overflow", "count"),
    ("core.exec.steal_misses", "count"),
    ("core.exec.chunks", "count"),
    ("core.exec.speedup_1w", "x"),
    ("core.supervise.wall_ms", "ms"),
    ("core.supervise.queue_wait_ms", "ms"),
    ("core.supervise.attempts", "count"),
    ("core.supervise.failed_attempts", "count"),
    ("core.supervise.useful_ratio", "ratio"),
    ("spam.rtf.ms", "ms"),
    ("spam.rtf.firings", "count"),
    ("spam.fa.ms", "ms"),
    ("spam.model.ms", "ms"),
    ("scene.traced_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("lcc.task.residual_pct", "%"),
    ("lcc.tasks", "count"),
];

struct Args {
    workload: &'static scenes::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(scenes::workload(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Everything one run measures. Times are net of steal, except the
/// `*_wall_ms` ones.
#[derive(Default)]
struct Samples {
    scene_ms: Vec<f64>,
    lcc_ms: Vec<f64>,
    scene_wall_ms: Vec<f64>,
    lcc_wall_ms: Vec<f64>,
    lcc_1w_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    probe_ms: Vec<f64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
    tally: Tally,
    problems: Vec<String>,
    /// Slowest traced scene: (ms, scene index, spans).
    slowest: Option<(f64, usize, Vec<Span>)>,
}

impl Samples {
    fn record(&mut self, outcome: Result<(), String>) {
        self.tally.record(outcome.is_ok());
        if let Err(e) = outcome {
            if self.problems.len() < 5 {
                self.problems.push(e);
            }
        }
    }

    fn layer(&mut self, metrics: Vec<(&'static str, f64)>) {
        for (k, v) in metrics {
            self.layers.entry(k).or_default().push(v);
        }
    }
}

/// Work-stealing pool metrics of one scene: the 2-worker schedule, with
/// the same scene's 1-worker phase as the speed-up base. Zeros when the
/// workload does not use the pool.
fn exec_metrics(r: Option<(&ExecReport, &ExecReport)>) -> Vec<(&'static str, f64)> {
    const KEYS: [&str; 11] = [
        "core.exec.wall_ms",
        "core.exec.busy_ms",
        "core.exec.queue_wait_ms",
        "core.exec.fork_ms",
        "core.exec.idle_ms",
        "core.exec.utilization",
        "core.exec.steals",
        "core.exec.overflow",
        "core.exec.steal_misses",
        "core.exec.chunks",
        "core.exec.speedup_1w",
    ];
    let values = r.map_or([0.0; 11], |(two, one)| {
        let g =
            GapAttribution::attribute(one.wall_s, &two.to_sim_result(), two.workers.len() as u32);
        [
            two.wall_s * 1e3,
            g.busy * 1e3,
            g.queue_wait * 1e3,
            g.fork * 1e3,
            g.idle * 1e3,
            two.utilization(),
            two.steals() as f64,
            two.overflow_taken() as f64,
            two.workers.iter().map(|w| w.steal_misses).sum::<u64>() as f64,
            two.chunks as f64,
            one.wall_s / two.wall_s,
        ]
    });
    KEYS.into_iter().zip(values).collect()
}

/// Central-queue supervisor metrics of one scene's 2-worker LCC phase.
/// Zeros when the workload does not use that scheduler.
fn supervise_metrics(r: Option<(f64, &TaskReport)>) -> Vec<(&'static str, f64)> {
    const KEYS: [&str; 5] = [
        "core.supervise.wall_ms",
        "core.supervise.queue_wait_ms",
        "core.supervise.attempts",
        "core.supervise.failed_attempts",
        "core.supervise.useful_ratio",
    ];
    let values = r.map_or([0.0; 5], |(wall_ms, rep)| {
        let attempts: u32 = rep.outcomes.iter().map(|o| o.attempts).sum();
        let ok = rep.succeeded() as f64;
        let wait: Duration = rep.outcomes.iter().map(|o| o.queue_wait).sum();
        [
            wall_ms,
            wait.as_secs_f64() * 1e3,
            f64::from(attempts),
            f64::from(attempts) - ok,
            ok / f64::from(attempts.max(1)),
        ]
    });
    KEYS.into_iter().zip(values).collect()
}

/// One closed-loop step: scene `i` at [`WORKERS`] workers, then (with
/// `one_worker`) the same scene's LCC phase on one worker; with `trace`,
/// also one traced scene.
fn step(bench: &Bench, oracle: &Oracle, i: usize, one_worker: bool, trace: bool, s: &mut Samples) {
    let start = Clocks::now();
    let (phases, lcc_ms, two) = bench.timed_scene(i, WORKERS);
    s.scene_ms.push(start.run_ms(&Clocks::now()));
    s.lcc_ms.push(lcc_ms);
    s.scene_wall_ms.push(phases.scene_ms());
    s.lcc_wall_ms.push(phases.lcc_ms());
    let two_ok = check(&two, &oracle.digest);
    if !one_worker {
        s.record(two_ok);
        return;
    }
    let start = Clocks::now();
    let one = bench.lcc_phase(i, &oracle.fragments, 1);
    s.lcc_1w_ms.push(start.run_ms(&Clocks::now()));
    let one_ok = match &one {
        Err(e) => Err(format!("1-worker LCC: {e}")),
        Ok((p, _)) if !p.report.dead_letters().is_empty() => {
            Err("1-worker LCC dead-lettered a task".to_string())
        }
        Ok((p, _)) => scenes::lcc_mismatch(&scenes::LccDigest::of(p), &oracle.digest.lcc)
            .map_or(Ok(()), |m| Err(format!("1-worker LCC: {m}"))),
    };
    s.record(two_ok.and(one_ok));
    if !trace {
        return;
    }
    if let (Ok((_, two)), Ok((_, one))) = (&two, &one) {
        let (exec, fifo) = match (two, one) {
            (SchedReport::Exec(a), SchedReport::Exec(b)) => (Some((a, b)), None),
            (SchedReport::Fifo(a), _) => (None, Some((phases.lcc_ms(), a))),
            _ => (None, None),
        };
        s.layer(exec_metrics(exec));
        s.layer(supervise_metrics(fifo));
    }
    let start = Clocks::now();
    let (phases, traced) = bench.traced_scene(i);
    let traced_ms = start.run_ms(&Clocks::now());
    let outcome = check(&traced, &oracle.digest).and_then(|()| {
        let (_, (units, _)) = traced.as_ref().expect("checked");
        let same = units.len() == oracle.units.len()
            && units
                .iter()
                .zip(&oracle.units)
                .all(|(a, b)| scenes::same_unit(a, b));
        if same {
            Ok(())
        } else {
            Err("traced task results differ from run_lcc_unit's".to_string())
        }
    });
    s.record(outcome);
    s.traced_ms.push(traced_ms);
    if let Ok((_, (_, tasks))) = &traced {
        let mut m = layer_metrics(&phases, tasks);
        m.push(("lcc.tasks", oracle.tasks as f64));
        m.push(("scene.traced_ms", traced_ms));
        s.layer(m);
        if s.slowest
            .as_ref()
            .is_none_or(|(ms, _, _)| phases.scene_ms() > *ms)
        {
            s.slowest = Some((phases.scene_ms(), i, scene_spans(&phases, tasks)));
        }
    }
}

/// Closed-loop throughput: scenes completed over the time spent in them
/// (the interleaved 1-worker phases and the checks are not scene time).
fn scenes_per_s(scene_ms: &[f64]) -> f64 {
    scene_ms.len() as f64 / (scene_ms.iter().sum::<f64>() / 1e3)
}

fn write_spans(path: &str, scene: usize, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(SPAN_DIR)?;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        writeln!(f, "{}", span_json(scene, id, s).write())?;
    }
    f.flush()
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };

    // Set-up, several times; the last one is kept (and the previous one
    // dropped outside the timed region).
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let b = Bench::setup(w, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");

    // The oracle, outside every timed region.
    let oracles: Vec<Oracle> = (0..SCENES).map(|i| bench.oracle(i, args.trace)).collect();
    let mut s = Samples::default();
    let (lo, hi) = (
        oracles.iter().map(|o| o.tasks).min().expect("scenes"),
        oracles.iter().map(|o| o.tasks).max().expect("scenes"),
    );
    if lo < w.tasks.0 || hi > w.tasks.1 {
        s.problems.push(format!(
            "LCC tasks per scene {lo}..{hi} outside the workload's band {}..{}",
            w.tasks.0, w.tasks.1
        ));
    }

    // Warm-up: one untimed step (thread spawn, page faults, allocator).
    step(
        &bench,
        &oracles[0],
        0,
        true,
        args.trace,
        &mut Samples::default(),
    );

    let clocks_before = Clocks::now();
    let start = Instant::now();
    let mut k = 0;
    while k < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let i = k % SCENES;
        // The 1-worker phase runs on every other step, alternating parity
        // with each pass over the set so every scene gets both; the traced
        // run needs it on every step for the speed-up.
        let one_worker = args.trace || (k + k / SCENES).is_multiple_of(2);
        if k.is_multiple_of(8) {
            s.probe_ms.push(probe_ms());
        }
        step(&bench, &oracles[i], i, one_worker, args.trace, &mut s);
        k += 1;
    }
    let stolen_share = {
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        1.0 - clocks_before.run_ms(&Clocks::now()) / wall_ms
    };
    let rss = peak_rss_mb();
    if let Err(e) = &rss {
        s.problems.push(format!("peak RSS: {e}"));
    }
    let correct = s.problems.is_empty() && s.tally.failed == 0;

    let comparable = if cores >= WORKERS {
        "comparable across hosts with the same core count"
    } else {
        "NOT comparable across hosts: fewer cores than workers"
    };
    println!(
        "host: cores={cores} profile={profile} workers={WORKERS} ({comparable}) seed={} workload={}",
        args.seed, w.name
    );
    println!(
        "host speed: probe {:.3} ms (median of {}; higher is a slower host)",
        median(&s.probe_ms),
        s.probe_ms.len()
    );
    println!(
        "timings are net of steal: the most-stolen CPU lost {:.1}% of the loop's wall time; wall clock, steal included: scene p50 {:.3} ms, LCC p50 {:.3} ms",
        stolen_share * 100.0,
        median(&s.scene_wall_ms),
        median(&s.lcc_wall_ms)
    );
    println!(
        "scene set: {} scenes, {lo}..{hi} LCC tasks each (band {}..{}), {:.0} LCC work units per scene; samples: {} scenes, {} 1-worker LCC phases, {} traced scenes",
        SCENES,
        w.tasks.0,
        w.tasks.1,
        oracles.iter().map(|o| o.digest.lcc.work_units as f64).sum::<f64>() / SCENES as f64,
        s.scene_ms.len(),
        s.lcc_1w_ms.len(),
        s.traced_ms.len()
    );
    println!(
        "failed_frac {} ({} failed of {} attempted)",
        s.tally.failed_frac(),
        s.tally.failed,
        s.tally.attempted
    );
    for p in &s.problems {
        println!("FAILED: {p}");
    }

    let mut metrics: Vec<(&str, Json)> = Vec::new();
    if args.trace {
        let untraced = median(&s.scene_ms);
        if !s.traced_ms.is_empty() {
            let overhead = (median(&s.traced_ms) - untraced) / untraced * 100.0;
            s.layers.insert("trace.overhead_pct", vec![overhead]);
        }
        for (name, unit) in PER_LAYER {
            let v = s.layers.get(name).map_or(0.0, |xs| median(xs));
            println!("{name:<32} {v:>14.4} {unit}");
            metrics.push((name, metric(v, unit)));
        }
        if let Some((ms, scene, spans)) = &s.slowest {
            let path = format!("{SPAN_DIR}/spans-{}-seed{}.jsonl", w.name, args.seed);
            match write_spans(&path, *scene, spans) {
                Ok(()) => println!("spans of the slowest traced scene ({ms:.1} ms): {path}"),
                Err(e) => println!("could not write spans to {path}: {e}"),
            }
        }
    } else {
        let t = tail(&s.scene_ms);
        let (q1, q3) = quartiles(&s.scene_ms);
        let end_to_end = [
            ("scenes_per_s", scenes_per_s(&s.scene_ms), "1/s"),
            ("scene_ms_p50", median(&s.scene_ms), "ms"),
            ("scene_ms_tail", t.value, "ms"),
            ("lcc_ms_p50", median(&s.lcc_ms), "ms"),
            ("lcc_1w_ms_p50", median(&s.lcc_1w_ms), "ms"),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", rss.unwrap_or(0.0), "MB"),
        ];
        for (name, v, unit) in end_to_end {
            println!("{name:<16} {v:>12.4} {unit}");
            metrics.push((name, metric(v, unit)));
        }
        println!(
            "scene_ms_tail is p{} of {} scenes ({} beyond it); scene_ms quartiles {q1:.3} / {q3:.3}",
            t.percentile, t.samples, t.beyond
        );
    }

    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(s.tally.attempted as f64)),
        ("failed", Json::Num(s.tally.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.write());
    ExitCode::SUCCESS
}
