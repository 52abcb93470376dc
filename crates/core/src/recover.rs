//! Crash-consistent checkpointed execution and deterministic replay
//! recovery for LCC task processes.
//!
//! The paper's runs restarted a whole phase when a task process died; the
//! supervisor (PR 3) improved on that by retrying the dead task *from
//! scratch*. This module closes the loop with real crash recovery:
//!
//! * every task attempt persists a **write-ahead log** of its initial
//!   working-memory load (cycle-0 assert records) into the shared
//!   [`CheckpointStore`] *before* its run loop starts;
//! * every `interval` recognize–act cycles the attempt saves a versioned,
//!   checksummed **engine snapshot** ([`ops5::Engine::snapshot`]);
//! * when the supervisor retries a dead task, the retry *resumes*: it
//!   restores the last snapshot, replays any WAL records past the
//!   checkpoint cycle, and continues — re-executing only the cycles since
//!   the last checkpoint instead of the whole task.
//!
//! Recovery is deterministic: the restored engine is byte-identical to the
//! never-crashed engine at the checkpoint cycle (the ops5 snapshot tests
//! prove this), and OPS5 conflict resolution is deterministic, so the
//! resumed attempt produces exactly the results of a fault-free run —
//! including the work counters, which the snapshot carries across the
//! crash boundary.
//!
//! Fault tolerance of the recovery machinery itself:
//!
//! * the store's mutex is poison-tolerant ([`PoisonError::into_inner`]):
//!   a worker dying *while holding* the checkpoint lock (the
//!   `checkpoint_hold_kill` chaos fault) does not wedge later checkpoints
//!   or recoveries — the saved state is a plain value, never left
//!   half-updated;
//! * a torn WAL tail (crash mid-append) is truncated, not fatal: with a
//!   checkpoint the torn records are subsumed by the snapshot; without
//!   one, the tear means the crash happened before the run loop started,
//!   so a from-scratch rebuild loses nothing.

use crate::exec::ExecConfig;
use ops5::snapshot::apply_record;
use ops5::{Value, Wal, WalOp, WalRecord};
use spam::fragments::FragmentHypothesis;
use spam::lcc::{
    harvest_lcc_unit, lcc_engine, load_unit_wm, restore_lcc_engine, LccPhaseResult, LccUnit,
    LccUnitResult, Level,
};
use spam::rules::SpamProgram;
use spam::scene::Scene;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use tlp_fault::{FaultPlan, SuperviseError, SupervisorConfig};
use tlp_obs::{
    Category, Live, MetricsRegistry, ObsLevel, Recorder, SceneSpan, SloMonitor, SpanSink,
};

/// Checkpoint policy for a recoverable phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Cycles between snapshots; `0` disables checkpointing (recovery then
    /// falls back to WAL replay from cycle 0).
    pub interval: u64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig { interval: 8 }
    }
}

impl CheckpointConfig {
    /// Policy checkpointing every `interval` cycles.
    pub fn every(interval: u64) -> CheckpointConfig {
        CheckpointConfig { interval }
    }
}

/// A checkpoint as stored: the cycle it was taken at plus the snapshot
/// bytes.
pub type Checkpoint = (u64, Vec<u8>);

/// Persisted crash-recovery state of one task: its write-ahead log and the
/// most recent snapshot (with the cycle it was taken at).
#[derive(Clone, Debug, Default)]
struct TaskState {
    wal: Vec<u8>,
    checkpoint: Option<Checkpoint>,
}

/// The durable store checkpoints and WALs survive worker death in.
///
/// Lives on the control process, *outside* the workers'
/// `catch_unwind` boundary, so a dead attempt's last checkpoint is intact
/// when the supervisor schedules the retry. Every lock acquisition
/// recovers from poisoning: the stored state is a plain value that is
/// never left half-updated, so a holder dying mid-save (the
/// `checkpoint_hold_kill` chaos fault) invalidates nothing.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    state: Mutex<HashMap<usize, TaskState>>,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> CheckpointStore {
        CheckpointStore::default()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<usize, TaskState>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Persists `task`'s write-ahead log (replacing any previous one).
    pub fn save_wal(&self, task: usize, wal: Vec<u8>) {
        self.lock().entry(task).or_default().wal = wal;
    }

    /// Persists `task`'s snapshot taken at `cycle` (replacing any older
    /// checkpoint).
    pub fn save_checkpoint(&self, task: usize, cycle: u64, snapshot: Vec<u8>) {
        self.save_checkpoint_with(task, cycle, snapshot, || {});
    }

    /// [`save_checkpoint`](CheckpointStore::save_checkpoint), then runs
    /// `and_then` *while still holding the store lock*. The chaos harness
    /// injects its kill-while-holding-checkpoint fault here; the data is
    /// inserted before the hook runs, so a panicking hook poisons the
    /// mutex but never loses the checkpoint.
    pub fn save_checkpoint_with(
        &self,
        task: usize,
        cycle: u64,
        snapshot: Vec<u8>,
        and_then: impl FnOnce(),
    ) {
        let mut st = self.lock();
        st.entry(task).or_default().checkpoint = Some((cycle, snapshot));
        and_then();
    }

    /// `task`'s persisted `(wal, checkpoint)` state, if any attempt got far
    /// enough to save one.
    pub fn load(&self, task: usize) -> Option<(Vec<u8>, Option<Checkpoint>)> {
        self.lock()
            .get(&task)
            .map(|s| (s.wal.clone(), s.checkpoint.clone()))
    }

    /// The cycle of `task`'s most recent checkpoint, if any.
    pub fn checkpoint_cycle(&self, task: usize) -> Option<u64> {
        self.lock()
            .get(&task)
            .and_then(|s| s.checkpoint.as_ref().map(|c| c.0))
    }

    /// Drops all persisted state (between phases).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Has a lock holder died while holding the store mutex? Recovery
    /// still works when true — the accessors recover the guard.
    pub fn is_poisoned(&self) -> bool {
        self.state.is_poisoned()
    }
}

/// How one task attempt started: from scratch, or resumed from persisted
/// crash-recovery state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Task index within the phase.
    pub task: usize,
    /// Which execution of the task this was (0 = first).
    pub attempt: u32,
    /// Cycle of the snapshot this attempt resumed from; `None` when it
    /// (re)built working memory from the WAL or from scratch.
    pub recovered_from_cycle: Option<u64>,
    /// Recognize–act cycles this attempt executed (for a resumed attempt:
    /// only the cycles since the checkpoint).
    pub cycles_replayed: u64,
    /// Cycles the checkpoint saved this attempt from re-executing.
    pub cycles_saved: u64,
    /// WAL records replayed into the engine by this attempt.
    pub wal_records_replayed: u64,
    /// Bytes dropped from a torn WAL tail during this attempt's replay.
    pub wal_bytes_dropped: u64,
}

/// Aggregated recovery accounting for one phase: every successful attempt
/// that resumed (or rebuilt) a previously crashed task.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Final (successful) attempt info for each task that crashed at
    /// least once, in completion order.
    pub recoveries: Vec<RecoveryInfo>,
    /// Total cycles re-executed by recovery attempts.
    pub cycles_replayed: u64,
    /// Total cycles checkpoints saved from re-execution.
    pub cycles_saved: u64,
    /// Total WAL records replayed.
    pub wal_records_replayed: u64,
    /// Total torn-tail bytes dropped.
    pub wal_bytes_dropped: u64,
}

impl RecoveryReport {
    fn add(&mut self, info: RecoveryInfo) {
        self.cycles_replayed += info.cycles_replayed;
        self.cycles_saved += info.cycles_saved;
        self.wal_records_replayed += info.wal_records_replayed;
        self.wal_bytes_dropped += info.wal_bytes_dropped;
        self.recoveries.push(info);
    }

    /// Tasks that crashed and were recovered.
    pub fn recovered_tasks(&self) -> usize {
        self.recoveries.len()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "recovered {} task(s): {} cycles replayed, {} cycles saved by checkpoints, \
             {} WAL records replayed, {} torn bytes dropped",
            self.recovered_tasks(),
            self.cycles_replayed,
            self.cycles_saved,
            self.wal_records_replayed,
            self.wal_bytes_dropped,
        )
    }
}

/// Builds a fresh LCC task engine with its full working memory loaded, and
/// persists the WAL of that load into `store` *before* returning — so a
/// crash at any later point can rebuild the task's inputs from the log.
fn fresh_engine_with_wal(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    unit: &LccUnit,
    task: usize,
    store: &CheckpointStore,
) -> ops5::Engine {
    let mut e = lcc_engine(sp, scene, fragments);
    e.enable_cycle_log();
    e.make_wme(
        "control",
        &[
            ("phase", Value::symbol("lcc")),
            ("status", Value::symbol("running")),
        ],
    )
    .expect("control");
    load_unit_wm(&mut e, scene, fragments, unit);
    // All of an LCC task's inputs are loaded up front, so the whole WAL is
    // cycle-0 assert records; replaying them through `insert_fields`
    // reproduces the identical ids and time tags.
    let mut wal = Wal::new();
    for (_, w) in e.wm().iter() {
        wal.append(&WalRecord {
            cycle: 0,
            op: WalOp::Assert {
                class: w.class,
                fields: w.fields.to_vec(),
            },
        });
    }
    store.save_wal(task, wal.into_bytes());
    e
}

/// Executes one LCC task attempt under the checkpoint protocol.
///
/// Attempt 0 runs fresh (persisting its WAL first, then checkpointing
/// every [`CheckpointConfig::interval`] cycles). A retry attempt resumes
/// from the persisted state: last snapshot + WAL records past the
/// checkpoint cycle; WAL-only rebuild when no checkpoint exists; clean
/// from-scratch rebuild when the WAL is torn and there is no checkpoint.
///
/// Chaos faults from `plan` are honoured: `cycle_kill` panics the attempt
/// once the engine reaches the fated cycle; `checkpoint_hold_kill` panics
/// it inside the store lock at its first checkpoint; `torn_log` chops
/// bytes off the WAL as read by recovery.
///
/// Results are identical to an uninterrupted [`spam::lcc::run_lcc_unit`]
/// run: the snapshot carries working memory, the conflict set, *and* the
/// work counters across the crash, and the match network rebuild resets
/// its counters to the recorded values.
#[allow(clippy::too_many_arguments)]
pub fn run_lcc_unit_checkpointed(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    unit: &LccUnit,
    task: usize,
    attempt: u32,
    store: &CheckpointStore,
    ckpt: &CheckpointConfig,
    plan: &FaultPlan,
    rec: &Arc<Recorder>,
    metrics: Option<&MetricsRegistry>,
    mut trace: Option<SpanSink>,
) -> (LccUnitResult, RecoveryInfo) {
    let mut sink = rec.sink(format!("recover-t{task}"));
    let mut info = RecoveryInfo {
        task,
        attempt,
        ..RecoveryInfo::default()
    };

    let saved = if attempt > 0 { store.load(task) } else { None };
    let restore_start_us = trace.as_ref().map(|t| t.now_us());
    let (mut e, start_cycle) = match saved {
        Some((mut wal_bytes, checkpoint)) => {
            let t0 = Instant::now();
            if sink.enabled(ObsLevel::Summary) {
                sink.begin(
                    Category::Recovery,
                    "recover.restore",
                    vec![
                        ("task", (task as u64).into()),
                        ("attempt", u64::from(attempt).into()),
                    ],
                );
            }
            // The torn-log fault models a crash mid-append: the tail of
            // the log as recovery reads it is incomplete.
            if let Some(torn) = plan.torn_log(task) {
                let keep = wal_bytes.len().saturating_sub(torn as usize);
                wal_bytes.truncate(keep);
            }
            let replay = Wal::replay(&wal_bytes).ok();
            let built = match (&checkpoint, &replay) {
                (Some((cycle, snap)), Some(rep)) => {
                    match restore_lcc_engine(sp, scene, fragments, snap) {
                        Ok(mut e) => {
                            e.enable_cycle_log();
                            info.recovered_from_cycle = Some(*cycle);
                            info.cycles_saved = *cycle;
                            info.wal_bytes_dropped = rep.dropped_bytes as u64;
                            // Records at or before the checkpoint cycle are
                            // subsumed by the snapshot; replay the rest.
                            for r in rep.records.iter().filter(|r| r.cycle > *cycle) {
                                apply_record(&mut e, r);
                                info.wal_records_replayed += 1;
                            }
                            Some((e, *cycle))
                        }
                        // Corrupt snapshot: recovery must degrade to a
                        // from-scratch rebuild, never wedge the retry.
                        Err(_) => None,
                    }
                }
                (None, Some(rep)) if !rep.torn() => {
                    // No checkpoint yet, intact WAL: rebuild the initial
                    // working memory from the log.
                    let mut e = lcc_engine(sp, scene, fragments);
                    e.enable_cycle_log();
                    for r in &rep.records {
                        apply_record(&mut e, r);
                    }
                    info.wal_records_replayed = rep.records.len() as u64;
                    Some((e, 0))
                }
                // Torn WAL and no checkpoint: the crash happened while the
                // log itself was being persisted, before the run loop ever
                // started — a fresh rebuild loses nothing.
                _ => None,
            };
            let pair = match built {
                Some(pair) => pair,
                None => (
                    fresh_engine_with_wal(sp, scene, fragments, unit, task, store),
                    0,
                ),
            };
            if let Some(m) = metrics {
                m.record("lcc.recovery_latency_ms", t0.elapsed().as_secs_f64() * 1e3);
            }
            if sink.enabled(ObsLevel::Summary) {
                sink.end(
                    Category::Recovery,
                    "recover.restore",
                    vec![
                        ("from_cycle", info.recovered_from_cycle.unwrap_or(0).into()),
                        ("wal_records", info.wal_records_replayed.into()),
                        ("torn_bytes", info.wal_bytes_dropped.into()),
                    ],
                );
            }
            if let (Some(tr), Some(start_us)) = (trace.as_mut(), restore_start_us) {
                // Restore cost shows up in the retained span tree as an aux
                // leaf under the recovering attempt.
                let end_us = tr.now_us();
                tr.record_aux(
                    &format!(
                        "recover.restore from_cycle={} wal_records={}",
                        info.recovered_from_cycle.unwrap_or(0),
                        info.wal_records_replayed
                    ),
                    start_us,
                    end_us,
                    None,
                );
            }
            pair
        }
        None => (
            fresh_engine_with_wal(sp, scene, fragments, unit, task, store),
            0,
        ),
    };
    if let Some(tr) = trace.take() {
        e.set_trace(tr);
    }

    // The run loop: step, checkpointing every `interval` cycles. Injected
    // kills fire exactly where the plan fates them.
    let kill_at = plan.cycle_kill(task, attempt);
    let hold_kill = plan.checkpoint_hold_kill(task, attempt);
    let mut last_ckpt = start_cycle;
    let mut steps: u64 = 0;
    loop {
        let cycles = e.work().firings;
        if let Some(k) = kill_at {
            if cycles >= k {
                panic!("injected mid-cycle kill: task {task} attempt {attempt} at cycle {cycles}");
            }
        }
        if ckpt.interval > 0 && cycles > last_ckpt && cycles % ckpt.interval == 0 {
            let snap = e.snapshot();
            if sink.enabled(ObsLevel::Full) {
                sink.instant(
                    Category::Recovery,
                    "checkpoint.save",
                    vec![
                        ("task", (task as u64).into()),
                        ("cycle", cycles.into()),
                        ("bytes", (snap.len() as u64).into()),
                    ],
                );
            }
            if hold_kill {
                store.save_checkpoint_with(task, cycles, snap, || {
                    panic!(
                        "injected kill while holding the checkpoint lock: \
                         task {task} attempt {attempt} at cycle {cycles}"
                    );
                });
            } else {
                store.save_checkpoint(task, cycles, snap);
            }
            last_ckpt = cycles;
        }
        match e.step() {
            Ok(Some(_)) => {
                steps += 1;
                assert!(steps <= 1_000_000, "LCC task exceeded its cycle budget");
            }
            Ok(None) => break,
            Err(err) => panic!("LCC task engine error: {err}"),
        }
    }

    let firings = e.work().firings;
    info.cycles_replayed = firings - start_cycle;
    if attempt > 0 {
        if sink.enabled(ObsLevel::Summary) {
            sink.instant(
                Category::Recovery,
                "recover.complete",
                vec![
                    ("task", (task as u64).into()),
                    ("cycles_replayed", info.cycles_replayed.into()),
                    ("cycles_saved", info.cycles_saved.into()),
                ],
            );
        }
        if let Some(m) = metrics {
            m.count("lcc.recover.cycles_replayed", info.cycles_replayed);
            m.count("lcc.recover.cycles_saved", info.cycles_saved);
        }
    }
    sink.flush();
    e.publish_trace();
    (harvest_lcc_unit(&mut e, firings), info)
}

/// Runs the LCC phase in parallel under the checkpoint/recovery protocol:
/// [`run_parallel_lcc_scene`](crate::tlp::run_parallel_lcc_scene) where a
/// retried task *resumes from its last checkpoint* instead of starting
/// over. Returns the phase result plus the recovery accounting.
///
/// The phase's results are identical to the fault-free sequential run for
/// every plan the retry budget can absorb — including chaos plans that
/// kill workers mid-cycle, kill them while they hold the checkpoint-store
/// lock, and tear WAL tails.
#[allow(clippy::too_many_arguments)]
pub fn run_parallel_lcc_recoverable(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
    n_workers: usize,
    cfg: &SupervisorConfig,
    plan: &FaultPlan,
    rec: &Arc<Recorder>,
    ckpt: &CheckpointConfig,
    metrics: Option<&MetricsRegistry>,
) -> Result<(LccPhaseResult, RecoveryReport), SuperviseError> {
    run_parallel_lcc_recoverable_live(
        sp,
        scene,
        fragments,
        level,
        n_workers,
        cfg,
        plan,
        rec,
        ckpt,
        metrics,
        &Live::off(),
        None,
        None,
    )
}

/// [`run_parallel_lcc_recoverable`] with live telemetry attached: on top of
/// the supervisor's task/queue series (see
/// [`crate::supervise::supervise_observed`]), every successful attempt that
/// recovered a previously crashed task publishes `spam_live_recoveries` and
/// a `spam_live_recovery_latency_seconds` sample (the recovering attempt's
/// wall time: restore + replay + remaining cycles). When an [`SloMonitor`]
/// is attached it is told about each recovery ([`SloMonitor::on_recovery`]
/// pins the health ladder at *recovering* until enough clean epochs pass)
/// and fed each completed unit's simulated latency. Results are identical
/// at every telemetry setting.
#[allow(clippy::too_many_arguments)]
pub fn run_parallel_lcc_recoverable_live(
    sp: &SpamProgram,
    scene: &Arc<Scene>,
    fragments: &Arc<Vec<FragmentHypothesis>>,
    level: Level,
    n_workers: usize,
    cfg: &SupervisorConfig,
    plan: &FaultPlan,
    rec: &Arc<Recorder>,
    ckpt: &CheckpointConfig,
    metrics: Option<&MetricsRegistry>,
    live: &Arc<Live>,
    slo: Option<&Arc<SloMonitor>>,
    span: Option<&SceneSpan>,
) -> Result<(LccPhaseResult, RecoveryReport), SuperviseError> {
    let store = CheckpointStore::new();
    let lh = live.handle();
    let (phase, infos, _) = crate::tlp::lcc_phase(
        scene,
        fragments,
        level,
        &ExecConfig::central_queue(n_workers),
        cfg,
        plan,
        rec,
        live,
        slo,
        span,
        |(info, attempt_s): &(RecoveryInfo, f64)| {
            if info.attempt > 0 {
                lh.inc("spam_live_recoveries", 1);
                lh.observe("spam_live_recovery_latency_seconds", *attempt_s);
                if let Some(slo) = slo {
                    slo.on_recovery();
                }
            }
        },
        |unit, a| {
            let t0 = Instant::now();
            let (r, info) = run_lcc_unit_checkpointed(
                sp, scene, fragments, unit, a.task, a.attempt, &store, ckpt, plan, rec, metrics,
                a.trace,
            );
            (r, (info, t0.elapsed().as_secs_f64()))
        },
    )?;
    let mut recovery = RecoveryReport::default();
    for (info, _) in infos.into_iter().filter(|(info, _)| info.attempt > 0) {
        recovery.add(info);
    }
    Ok((phase, recovery))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spam::lcc::{run_lcc, ConsistentRec};
    use spam::rtf::run_rtf;
    use std::time::Duration;

    fn setup() -> (SpamProgram, Arc<Scene>, Arc<Vec<FragmentHypothesis>>) {
        let sp = SpamProgram::build();
        let scene = Arc::new(spam::generate_scene(&spam::datasets::dc().spec));
        let rtf = run_rtf(&sp, &scene);
        (sp, scene, Arc::new(rtf.fragments))
    }

    fn canonical(c: &[ConsistentRec]) -> Vec<(u32, u32, &'static str)> {
        let mut v: Vec<_> = c.iter().map(|r| (r.a, r.b, r.rel.name())).collect();
        v.sort();
        v
    }

    fn assert_phase_equal(a: &LccPhaseResult, b: &LccPhaseResult) {
        assert_eq!(a.firings, b.firings, "firings");
        for (i, (ua, ub)) in a.units.iter().zip(b.units.iter()).enumerate() {
            assert_eq!(ua.work, ub.work, "unit {i} work counters");
        }
        assert_eq!(a.work, b.work, "work counters");
        assert_eq!(canonical(&a.consistents), canonical(&b.consistents));
        let sa: Vec<i64> = a.fragments.iter().map(|f| f.support).collect();
        let sb: Vec<i64> = b.fragments.iter().map(|f| f.support).collect();
        assert_eq!(sa, sb, "supports");
    }

    #[test]
    fn checkpointed_fault_free_run_equals_sequential() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        let (par, recovery) = run_parallel_lcc_recoverable(
            &sp,
            &scene,
            &frags,
            Level::L3,
            3,
            &SupervisorConfig::default(),
            &FaultPlan::none(),
            &Recorder::off(),
            &CheckpointConfig::every(4),
            None,
        )
        .unwrap();
        assert!(par.report.is_clean());
        assert_eq!(recovery.recovered_tasks(), 0);
        assert_phase_equal(&par, &seq);
    }

    #[test]
    fn mid_cycle_kill_resumes_from_checkpoint_with_fewer_cycles() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        // Pick the unit with the most cycles so the kill lands well past
        // several checkpoints.
        let (victim, span) = seq
            .units
            .iter()
            .enumerate()
            .map(|(i, u)| (i, u.firings))
            .max_by_key(|&(_, f)| f)
            .unwrap();
        assert!(span >= 8, "need a long unit for this scenario: {span}");
        let kill_cycle = span - 1;
        let plan = FaultPlan::seeded(5).with_cycle_kill(victim, 0, kill_cycle);
        let cfg = SupervisorConfig::default()
            .with_retries(2)
            .with_backoff(Duration::from_millis(1));
        let metrics = MetricsRegistry::new();
        let (par, recovery) = run_parallel_lcc_recoverable(
            &sp,
            &scene,
            &frags,
            Level::L3,
            3,
            &cfg,
            &plan,
            &Recorder::off(),
            &CheckpointConfig::every(2),
            Some(&metrics),
        )
        .unwrap();
        // Every scene unit completed, with results equal to fault-free.
        assert_eq!(par.report.dead_letters().len(), 0);
        assert_phase_equal(&par, &seq);
        // The victim recovered from a checkpoint, replaying strictly fewer
        // cycles than a from-scratch retry would have.
        assert_eq!(recovery.recovered_tasks(), 1);
        let info = &recovery.recoveries[0];
        assert_eq!(info.task, victim);
        assert!(info.recovered_from_cycle.is_some(), "{info:?}");
        assert!(info.cycles_saved > 0, "{info:?}");
        assert!(
            info.cycles_replayed < span,
            "resume must replay fewer than the full {span} cycles: {info:?}"
        );
        assert_eq!(info.cycles_saved + info.cycles_replayed, span);
        // The recovery latency metric was recorded.
        let snap = metrics.snapshot();
        assert!(
            matches!(
                snap.get("lcc.recovery_latency_ms"),
                Some(tlp_obs::Metric::Histogram(h)) if h.count() == 1
            ),
            "recovery_latency_ms must be recorded once"
        );
    }

    #[test]
    fn live_recoverable_runner_publishes_recovery_series() {
        use tlp_obs::{Health, LiveValue, SloConfig};
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        let (victim, span) = seq
            .units
            .iter()
            .enumerate()
            .map(|(i, u)| (i, u.firings))
            .max_by_key(|&(_, f)| f)
            .unwrap();
        assert!(span >= 4, "need a non-trivial unit: {span}");
        let plan = FaultPlan::seeded(11).with_cycle_kill(victim, 0, span - 1);
        let cfg = SupervisorConfig::default()
            .with_retries(2)
            .with_backoff(Duration::from_millis(1));
        let live = Live::new(8);
        let slo = Arc::new(SloMonitor::new(SloConfig::for_scene("dc"), live.handle()));
        let (par, recovery) = run_parallel_lcc_recoverable_live(
            &sp,
            &scene,
            &frags,
            Level::L3,
            3,
            &cfg,
            &plan,
            &Recorder::off(),
            &CheckpointConfig::every(2),
            None,
            &live,
            Some(&slo),
            None,
        )
        .unwrap();
        assert_phase_equal(&par, &seq);
        assert_eq!(recovery.recovered_tasks(), 1);
        let snap = live.snapshot();
        match snap.series.get("spam_live_recoveries") {
            Some(LiveValue::Counter { total, .. }) => assert_eq!(*total, 1),
            other => panic!("recoveries counter missing: {other:?}"),
        }
        match snap.series.get("spam_live_recovery_latency_seconds") {
            Some(LiveValue::Histogram(h)) => assert!(h.count() >= 1),
            other => panic!("recovery latency histogram missing: {other:?}"),
        }
        // The supervisor's retry of the killed attempt is also visible.
        match snap.series.get("spam_live_task_retries") {
            Some(LiveValue::Counter { total, .. }) => assert_eq!(*total, 1),
            other => panic!("retry counter missing: {other:?}"),
        }
        // One crash absorbed by recovery must never read as degraded; it
        // either healed (enough clean epochs followed) or is recovering.
        assert_ne!(slo.health(), Health::Degraded);
    }

    #[test]
    fn recovery_emits_flight_recorder_spans() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        let (victim, span) = seq
            .units
            .iter()
            .enumerate()
            .map(|(i, u)| (i, u.firings))
            .max_by_key(|&(_, f)| f)
            .unwrap();
        let plan = FaultPlan::seeded(6).with_cycle_kill(victim, 0, span - 1);
        let cfg = SupervisorConfig::default()
            .with_retries(2)
            .with_backoff(Duration::from_millis(1));
        let rec = Recorder::new(ObsLevel::Full);
        let (par, _) = run_parallel_lcc_recoverable(
            &sp,
            &scene,
            &frags,
            Level::L3,
            2,
            &cfg,
            &plan,
            &rec,
            &CheckpointConfig::every(2),
            None,
        )
        .unwrap();
        assert_phase_equal(&par, &seq);
        let events = rec.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"checkpoint.save"), "{names:?}");
        assert!(names.contains(&"recover.restore"), "{names:?}");
        assert!(names.contains(&"recover.complete"), "{names:?}");
        assert!(events
            .iter()
            .any(|e| e.cat == Category::Recovery && e.name == "recover.restore"));
    }

    #[test]
    fn torn_wal_without_checkpoint_falls_back_to_scratch() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        // Kill at cycle 1 with checkpointing effectively disabled: the
        // retry finds only a WAL — and a torn one at that.
        let victim = 0usize;
        let plan = FaultPlan::seeded(7)
            .with_cycle_kill(victim, 0, 1)
            .with_torn_log(victim, 5);
        let cfg = SupervisorConfig::default()
            .with_retries(2)
            .with_backoff(Duration::from_millis(1));
        let (par, recovery) = run_parallel_lcc_recoverable(
            &sp,
            &scene,
            &frags,
            Level::L3,
            2,
            &cfg,
            &plan,
            &Recorder::off(),
            &CheckpointConfig::every(1_000_000),
            None,
        )
        .unwrap();
        assert_eq!(par.report.dead_letters().len(), 0);
        assert_phase_equal(&par, &seq);
        assert_eq!(recovery.recovered_tasks(), 1);
        let info = &recovery.recoveries[0];
        assert_eq!(info.recovered_from_cycle, None);
        assert_eq!(info.cycles_saved, 0);
        assert_eq!(
            info.wal_records_replayed, 0,
            "a torn log with no checkpoint must be discarded, not replayed"
        );
    }

    #[test]
    fn intact_wal_without_checkpoint_rebuilds_from_the_log() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        let victim = 1usize;
        let plan = FaultPlan::seeded(8).with_cycle_kill(victim, 0, 1);
        let cfg = SupervisorConfig::default()
            .with_retries(1)
            .with_backoff(Duration::from_millis(1));
        let (par, recovery) = run_parallel_lcc_recoverable(
            &sp,
            &scene,
            &frags,
            Level::L3,
            2,
            &cfg,
            &plan,
            &Recorder::off(),
            &CheckpointConfig::every(1_000_000),
            None,
        )
        .unwrap();
        assert_phase_equal(&par, &seq);
        assert_eq!(recovery.recovered_tasks(), 1);
        let info = &recovery.recoveries[0];
        assert_eq!(info.recovered_from_cycle, None);
        assert!(
            info.wal_records_replayed > 0,
            "the intact WAL must drive the rebuild: {info:?}"
        );
    }

    #[test]
    fn hold_kill_poisons_the_store_but_the_phase_still_completes() {
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        let (victim, span) = seq
            .units
            .iter()
            .enumerate()
            .map(|(i, u)| (i, u.firings))
            .max_by_key(|&(_, f)| f)
            .unwrap();
        assert!(span >= 6, "need room for two checkpoints: {span}");
        // Attempt 0 dies mid-cycle; attempt 1 dies at its first checkpoint
        // *while holding the store lock*; attempt 2 must recover from the
        // checkpoint that hold-kill still managed to save.
        let plan = FaultPlan::seeded(9)
            .with_cycle_kill(victim, 0, span - 1)
            .with_checkpoint_hold_kill(victim, 1);
        let cfg = SupervisorConfig::default()
            .with_retries(3)
            .with_backoff(Duration::from_millis(1));
        let (par, recovery) = run_parallel_lcc_recoverable(
            &sp,
            &scene,
            &frags,
            Level::L3,
            2,
            &cfg,
            &plan,
            &Recorder::off(),
            &CheckpointConfig::every(2),
            None,
        )
        .unwrap();
        assert_eq!(par.report.dead_letters().len(), 0);
        assert_phase_equal(&par, &seq);
        assert_eq!(recovery.recovered_tasks(), 1);
        let info = &recovery.recoveries[0];
        assert_eq!(info.attempt, 2, "two crashes, third execution succeeds");
        assert!(info.recovered_from_cycle.is_some());
        assert_eq!(par.report.outcomes[victim].attempts, 3);
    }

    #[test]
    fn checkpoint_store_is_poison_tolerant() {
        crate::exec::install_quiet_hook();
        let store = Arc::new(CheckpointStore::new());
        let s = Arc::clone(&store);
        let _ = std::thread::Builder::new()
            .name("psm-task-poison".into())
            .spawn(move || {
                s.save_checkpoint_with(3, 8, vec![1, 2, 3], || {
                    panic!("injected: die holding the checkpoint store lock");
                });
            })
            .unwrap()
            .join();
        assert!(store.is_poisoned(), "setup must actually poison the store");
        // The checkpoint inserted before the hook panicked is intact, and
        // the store keeps accepting saves and loads.
        assert_eq!(store.checkpoint_cycle(3), Some(8));
        let (wal, ckpt) = {
            store.save_wal(3, vec![9]);
            store.load(3).unwrap()
        };
        assert_eq!(wal, vec![9]);
        assert_eq!(ckpt, Some((8, vec![1, 2, 3])));
        store.save_checkpoint(4, 16, vec![7]);
        assert_eq!(store.checkpoint_cycle(4), Some(16));
        store.clear();
        assert!(store.load(3).is_none());
    }

    #[test]
    fn chaos_schedule_with_three_kills_loses_no_scene_results() {
        // The module-level chaos acceptance scenario (the CI job and
        // `spamctl chaos` run bigger variants): three distinct victims
        // killed mid-cycle, one torn log, equal results, and strictly
        // fewer replayed cycles than from-scratch retries would cost.
        let (sp, scene, frags) = setup();
        let seq = run_lcc(&sp, &scene, &frags, Level::L3);
        let task_cycles: Vec<u64> = seq.units.iter().map(|u| u.firings).collect();
        let interval = 2;
        let plan = tlp_fault::chaos_schedule(42, 3, &task_cycles, interval);
        let victims: Vec<usize> = (0..task_cycles.len())
            .filter(|&t| plan.cycle_kill(t, 0).is_some())
            .collect();
        assert_eq!(victims.len(), 3, "{}", plan.describe());
        let cfg = SupervisorConfig::default()
            .with_retries(3)
            .with_backoff(Duration::from_millis(1));
        let (par, recovery) = run_parallel_lcc_recoverable(
            &sp,
            &scene,
            &frags,
            Level::L3,
            3,
            &cfg,
            &plan,
            &Recorder::off(),
            &CheckpointConfig::every(interval),
            None,
        )
        .unwrap();
        assert_eq!(
            par.report.dead_letters().len(),
            0,
            "no scene may be lost\n{}",
            plan.describe()
        );
        assert_phase_equal(&par, &seq);
        assert_eq!(recovery.recovered_tasks(), 3, "{}", plan.describe());
        let scratch_cost: u64 = victims.iter().map(|&t| task_cycles[t]).sum();
        assert!(
            recovery.cycles_replayed < scratch_cost,
            "recovery must replay strictly fewer cycles ({}) than from-scratch \
             retries ({scratch_cost})\n{}",
            recovery.cycles_replayed,
            plan.describe()
        );
        assert_eq!(
            recovery.cycles_saved + recovery.cycles_replayed,
            scratch_cost
        );
    }
}
