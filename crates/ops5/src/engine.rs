//! The OPS5 interpreter: working memory + Rete + recognize–act cycle.

use crate::ast::{Action, Expr};
use crate::conflict::{ConflictSet, Instantiation, Strategy};
use crate::fxhash::FxHashMap;
use crate::instrument::{cost, CycleStats, WorkCounters};
use crate::matcher::{Matcher, NaiveMatcher};
use crate::profile::{MatchProfile, ProductionProfile};
use crate::program::Program;
use crate::rete::compile::{compile_production, CompiledProduction, VarSource};
use crate::rete::{MatchEvent, Rete, ReteConfig};
use crate::rhs::eval_expr;
use crate::symbol::{sym, Symbol};
use crate::value::Value;
use crate::wme::{TimeTag, WmStore, Wme, WmeId};
use crate::{Error, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use tlp_obs::{Category, ObsLevel, ThreadSink};

/// Side effects collected from an external-function call.
///
/// SPAM's RHS runs geometric computations outside OPS5 (forked Lisp
/// processes originally, C function calls in the ported baseline). External
/// functions in this engine mirror that: they receive argument values and
/// may report simulated cost, queue WMEs to create, produce output, or halt.
#[derive(Debug, Default)]
pub struct Effects {
    /// Work units the external computation consumed (task-related cost,
    /// counted separately from match cost — the paper's key distinction).
    pub cost: u64,
    /// WMEs to create after the call returns: `(class, [(attr, value)])`.
    pub makes: Vec<(Symbol, Vec<(Symbol, Value)>)>,
    /// Text to append to the engine output.
    pub output: String,
    /// Halt the engine after this firing.
    pub halt: bool,
}

/// An external (RHS) function.
pub type ExternalFn = Arc<dyn Fn(&[Value], &mut Effects) -> Option<Value> + Send + Sync>;

/// Outcome of a [`Engine::run`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Number of productions fired.
    pub firings: u64,
    /// True when a `(halt)` was executed.
    pub halted: bool,
    /// True when the firing limit stopped the run.
    pub limit_reached: bool,
    /// Runtime error, if one stopped the run.
    pub error: Option<String>,
}

impl RunOutcome {
    /// True when the run ended because the conflict set emptied.
    pub fn quiescent(&self) -> bool {
        !self.halted && !self.limit_reached && self.error.is_none()
    }
}

/// An OPS5 engine instance: one complete production system.
///
/// SPAM/PSM runs many of these concurrently — each task process owns a full
/// engine with its own working memory, conflict set, and Rete state, sharing
/// only the immutable compiled program (working-memory distribution, §5.1).
pub struct Engine {
    program: Arc<Program>,
    compiled: Arc<Vec<CompiledProduction>>,
    matcher: Box<dyn Matcher>,
    wm: WmStore,
    conflict: ConflictSet,
    time: TimeTag,
    /// Accumulated interpreter work (match work lives in the matcher; use
    /// [`Engine::work`] for the merged view).
    base_work: WorkCounters,
    externals: FxHashMap<Symbol, ExternalFn>,
    /// Named counters behind stateful external functions (id allocators),
    /// registered via [`Engine::external_counter`]. They are engine state in
    /// disguise — snapshots carry their values so a restored run allocates
    /// the same ids the uninterrupted run would have. Each keeps its
    /// registration `init`, the value [`Engine::reset`] restores.
    ext_counters: Vec<(String, i64, Arc<AtomicI64>)>,
    /// Counter values stashed by [`Engine::restore`]; consumed when the
    /// external environment re-registers its counters (restore necessarily
    /// runs before the caller can re-attach external functions).
    restored_counters: HashMap<String, i64>,
    halted: bool,
    /// Accumulated `write` output.
    pub output: String,
    /// Reused buffers of the recognize–act cycle: the match events of one
    /// WME change, and one firing's variable bindings.
    events: Vec<MatchEvent>,
    vals: Vec<Value>,
    cycle_log: Option<Vec<CycleStats>>,
    /// Matcher-work snapshot at the start of the cycle being logged (WM
    /// changes made outside the recognize–act loop — e.g. task set-up —
    /// charge to the next cycle, as they would run on the match processes).
    log_snapshot: WorkCounters,
    gensym: u64,
    strategy: Strategy,
    /// Builtin symbols, resolved once at construction so the
    /// recognize–act cycle never takes the interner lock for them.
    builtins: Builtins,
    /// Optional flight-recorder sink. Deterministic work accounting
    /// (`base_work`, the cycle log) never flows through this — it only adds
    /// trace events, so work totals are identical with or without it.
    obs: Option<ThreadSink>,
    /// Optional live-telemetry mirror. Like `obs`, strictly read-only with
    /// respect to the deterministic counters: results are bit-identical
    /// with the mirror attached or not.
    live: Option<LiveMirror>,
    /// Optional scene-trace mirror. Groups recognize–act cycles into aux
    /// spans under the owning task attempt. Read-only with respect to the
    /// deterministic counters, like `obs` and `live`.
    trace: Option<TraceMirror>,
    /// Interpreter-side profiling state (per-production firings and RHS
    /// cost, conflict-set sizes); `Some` only while profiling. Like `obs`,
    /// it only reads the deterministic counters — work totals are identical
    /// with profiling on or off.
    profile: Option<EngineProfile>,
}

/// Symbols the interpreter itself compares against.
struct Builtins {
    genatom: Symbol,
    crlf: Symbol,
}

/// Publish the live mirror every this many recognize–act cycles (and once
/// more at [`Engine::publish_live`]): frequent enough that `spamctl top`
/// sees the conflict set and WM move mid-task, rare enough that the mirror
/// stays off the hot path.
const LIVE_MIRROR_EVERY: u32 = 16;

/// State behind [`Engine::set_live`]: the handle plus the work counters
/// already published, so counter series are mirrored as deltas.
struct LiveMirror {
    handle: tlp_obs::LiveHandle,
    published: WorkCounters,
    cycles: u32,
}

impl LiveMirror {
    fn publish(&mut self, work: WorkCounters, conflict_len: usize, wm_size: usize) {
        let d = work.since(&self.published);
        self.published = work;
        self.cycles = 0;
        self.handle.inc("spam_live_match_units", d.match_units);
        self.handle.inc("spam_live_firings", d.firings);
        self.handle.inc("spam_live_rhs_actions", d.rhs_actions);
        self.handle
            .gauge("spam_live_conflict_set_depth", conflict_len as f64);
        self.handle.gauge("spam_live_wm_size", wm_size as f64);
    }
}

/// Close the scene-trace cycle window every this many recognize–act
/// cycles (and once more at [`Engine::publish_trace`]). Coarser than the
/// live mirror on purpose: each window closure takes the tracer's shared
/// mutex and allocates a span, and the tail sampler's per-trace span cap
/// means finer windows would only be evicted anyway — 256 keeps the
/// traced arm inside the 2 % overhead budget while still splitting a
/// task's wall time into enough windows to see where the engine spent it.
const TRACE_WINDOW_EVERY: u32 = 256;

/// State behind [`Engine::set_trace`]: a span sink parented under the
/// owning task-attempt span, plus the current cycle window. Every
/// [`TRACE_WINDOW_EVERY`] cycles the window closes into one
/// `engine.cycles` aux span, so a retained trace shows where inside the
/// task the engine spent its wall time without paying one span per cycle.
struct TraceMirror {
    sink: tlp_obs::SpanSink,
    window_start_us: u64,
    cycles: u32,
}

impl TraceMirror {
    fn flush(&mut self) {
        if self.cycles == 0 {
            return;
        }
        let end = self.sink.now_us();
        self.sink.record_aux(
            &format!("engine.cycles x{}", self.cycles),
            self.window_start_us,
            end,
            None,
        );
        self.window_start_us = end;
        self.cycles = 0;
    }
}

/// Interpreter-side collection state behind [`Engine::enable_profile`].
#[derive(Debug, Default)]
struct EngineProfile {
    /// `(firings, act_units, external_units)` per production index.
    per_prod: Vec<(u64, u64, u64)>,
    conflict_sizes: Vec<u32>,
    cycles: u64,
}

impl Engine {
    /// Compiles `program` into sharable chain specifications.
    pub fn compile(program: &Program) -> Result<Arc<Vec<CompiledProduction>>> {
        let compiled: Vec<CompiledProduction> = program
            .productions
            .iter()
            .enumerate()
            .map(|(i, p)| compile_production(i as u32, p))
            .collect::<Result<_>>()?;
        Ok(Arc::new(compiled))
    }

    /// Creates an engine for `program`.
    ///
    /// # Panics
    /// Panics if the program fails to compile (the parser rejects all such
    /// programs already, so this only fires on hand-built ASTs).
    pub fn new(program: Arc<Program>) -> Engine {
        let compiled = Self::compile(&program).expect("program compiles");
        Self::with_compiled(program, compiled)
    }

    /// Creates an engine sharing pre-compiled chains (cheap: used to spawn
    /// the hundreds of task-process engines in a SPAM/PSM run).
    pub fn with_compiled(program: Arc<Program>, compiled: Arc<Vec<CompiledProduction>>) -> Engine {
        Self::with_compiled_config(program, compiled, ReteConfig::default())
    }

    /// Creates an engine with an explicit Rete sharing/indexing
    /// configuration ([`ReteConfig::unshared()`] rebuilds the historical
    /// one-chain-per-production network for baseline comparisons).
    pub fn with_compiled_config(
        program: Arc<Program>,
        compiled: Arc<Vec<CompiledProduction>>,
        config: ReteConfig,
    ) -> Engine {
        let rete = Rete::from_compiled_with(&compiled, &program, config);
        Self::with_matcher(program, compiled, Box::new(rete))
    }

    /// Creates an engine around an arbitrary match backend (how ParaOPS5's
    /// threaded parallel matcher plugs in).
    pub fn with_matcher(
        program: Arc<Program>,
        compiled: Arc<Vec<CompiledProduction>>,
        matcher: Box<dyn Matcher>,
    ) -> Engine {
        let strategy = program.strategy;
        Engine {
            program,
            compiled,
            matcher,
            wm: WmStore::new(),
            conflict: ConflictSet::new(),
            time: 0,
            base_work: WorkCounters::default(),
            externals: FxHashMap::default(),
            ext_counters: Vec::new(),
            restored_counters: HashMap::new(),
            halted: false,
            output: String::new(),
            events: Vec::new(),
            vals: Vec::new(),
            cycle_log: None,
            log_snapshot: WorkCounters::default(),
            gensym: 0,
            strategy,
            builtins: Builtins {
                genatom: sym("genatom"),
                crlf: sym("crlf"),
            },
            obs: None,
            live: None,
            trace: None,
            profile: None,
        }
    }

    /// Creates an engine using the naive (non-Rete) matcher — the
    /// unoptimised-baseline configuration standing in for the original Lisp
    /// OPS5 of §6 ("approximately a 10-20 fold speed-up over the original
    /// Lisp-based implementation").
    pub fn new_naive(program: Arc<Program>) -> Engine {
        let compiled = Self::compile(&program).expect("program compiles");
        let naive = NaiveMatcher::new(Arc::clone(&program), Arc::clone(&compiled));
        Self::with_matcher(program, compiled, Box::new(naive))
    }

    /// The program this engine runs.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The shared compiled chains (pass to [`Engine::with_compiled`]).
    pub fn compiled(&self) -> Arc<Vec<CompiledProduction>> {
        Arc::clone(&self.compiled)
    }

    /// Registers an external function callable from the RHS.
    pub fn register_external(&mut self, name: &str, f: ExternalFn) {
        self.externals.insert(sym(name), f);
    }

    /// Returns a named shared counter for stateful external functions (id
    /// allocators), creating it at `init` on first registration.
    ///
    /// Idempotent by name: re-registering returns the existing counter.
    /// Counter values travel in snapshots, so on an engine built by
    /// [`Engine::restore`] the first registration of a name the snapshot
    /// knew resumes from the snapshotted value, not `init` — without this,
    /// a recovered run would re-allocate ids from the base and its
    /// intermediate working memory (and match work) would diverge from the
    /// uninterrupted run's.
    pub fn external_counter(&mut self, name: &str, init: i64) -> Arc<AtomicI64> {
        if let Some((_, _, c)) = self.ext_counters.iter().find(|(n, _, _)| n == name) {
            return Arc::clone(c);
        }
        let start = self.restored_counters.remove(name).unwrap_or(init);
        let c = Arc::new(AtomicI64::new(start));
        self.ext_counters
            .push((name.to_string(), init, Arc::clone(&c)));
        c
    }

    /// Returns the engine to the state of a freshly built one, ready for
    /// another task: working memory, conflict set, time tags, gensym, work
    /// counters, halt flag and output are cleared; the match backend
    /// empties its memories but keeps its network; external counters go
    /// back to their registration `init`; the cycle log, profiler and
    /// every observer are detached. Registered external functions stay.
    ///
    /// A reset engine's [`Engine::snapshot`] bytes equal a new engine's,
    /// and it replays any input with the same firings, work and output.
    /// Fails, changing nothing, when the match backend cannot reset (see
    /// [`Matcher::reset`]); such an engine is not reusable.
    pub fn reset(&mut self) -> Result<()> {
        self.matcher.reset()?;
        self.wm = WmStore::new();
        self.conflict = ConflictSet::new();
        self.time = 0;
        self.base_work = WorkCounters::default();
        for (_, init, c) in &self.ext_counters {
            c.store(*init, Ordering::Relaxed);
        }
        self.restored_counters.clear();
        self.halted = false;
        self.output.clear();
        self.cycle_log = None;
        self.log_snapshot = WorkCounters::default();
        self.gensym = 0;
        self.strategy = self.program.strategy;
        self.obs = None;
        self.live = None;
        self.trace = None;
        self.profile = None;
        Ok(())
    }

    /// Overrides the program's conflict-resolution strategy.
    pub fn set_strategy(&mut self, s: Strategy) {
        self.strategy = s;
    }

    /// Attaches a flight-recorder sink. At [`ObsLevel::Summary`] each
    /// [`Engine::run`] becomes one span; at [`ObsLevel::Full`] every
    /// recognize–act cycle additionally emits a `cycle.fire` instant event.
    /// Trace-only: work counters are unaffected at any level.
    pub fn set_obs(&mut self, sink: ThreadSink) {
        self.obs = Some(sink);
    }

    /// Detaches the flight-recorder sink (flushing is the caller's /
    /// drop's job).
    pub fn take_obs(&mut self) -> Option<ThreadSink> {
        self.obs.take()
    }

    /// Attaches a live-telemetry handle. While attached, the engine mirrors
    /// its deterministic counters into the sliding-window registry every
    /// few recognize–act cycles: `spam_live_match_units` /
    /// `spam_live_firings` / `spam_live_rhs_actions` as counter deltas,
    /// `spam_live_conflict_set_depth` / `spam_live_wm_size` as gauges.
    /// Mirror-only: work counters and run results are unaffected. A handle
    /// from a disabled registry is dropped here, keeping the per-cycle cost
    /// at a single `Option` check.
    pub fn set_live(&mut self, handle: tlp_obs::LiveHandle) {
        self.live = handle.enabled().then_some(LiveMirror {
            handle,
            published: WorkCounters::default(),
            cycles: 0,
        });
    }

    /// Forces a live-mirror publish of the counters accumulated since the
    /// last one (task runners call this at task end so the tail of the run
    /// is not lost to the every-N-cycles cadence). No-op without
    /// [`Engine::set_live`].
    pub fn publish_live(&mut self) {
        if self.live.is_some() {
            let work = self.work();
            let conflict_len = self.conflict.len();
            let wm_size = self.wm.len();
            if let Some(lm) = &mut self.live {
                lm.publish(work, conflict_len, wm_size);
            }
        }
    }

    /// Attaches a scene-trace span sink (normally parented under this
    /// task's attempt span). While attached, every [`TRACE_WINDOW_EVERY`]
    /// recognize–act cycles close into one `engine.cycles` aux span;
    /// [`Engine::publish_trace`] flushes the tail. A sink from a disabled
    /// tracer is dropped here, keeping the per-cycle cost at one `Option`
    /// check. Trace-only: work counters and results are unaffected.
    pub fn set_trace(&mut self, sink: tlp_obs::SpanSink) {
        self.trace = sink.enabled().then(|| TraceMirror {
            window_start_us: sink.now_us(),
            sink,
            cycles: 0,
        });
    }

    /// Closes the trace mirror's open cycle window into a final
    /// `engine.cycles` span (task runners call this at task end). No-op
    /// without [`Engine::set_trace`].
    pub fn publish_trace(&mut self) {
        if let Some(tm) = &mut self.trace {
            tm.flush();
        }
    }

    /// Starts match-level profiling: per-production match cost and firing
    /// counts, alpha-memory heat, token totals, and conflict-set sizes.
    /// A no-op when the `profiler` feature is compiled out. The profiler
    /// only *reads* the deterministic work counters, so work-unit totals
    /// are bit-identical with profiling enabled, disabled, or compiled out.
    pub fn enable_profile(&mut self) {
        #[cfg(feature = "profiler")]
        {
            self.matcher.enable_profile();
            self.profile = Some(EngineProfile {
                per_prod: vec![(0, 0, 0); self.program.productions.len()],
                ..Default::default()
            });
        }
    }

    /// Takes the accumulated match profile (profiling continues with fresh
    /// counters). `None` unless [`Engine::enable_profile`] was called and
    /// the `profiler` feature is compiled in. Production names are resolved
    /// from the program; `work` carries the engine's merged counters.
    pub fn take_profile(&mut self) -> Option<MatchProfile> {
        let eng = self.profile.take()?;
        self.profile = Some(EngineProfile {
            per_prod: vec![(0, 0, 0); self.program.productions.len()],
            ..Default::default()
        });
        let mut mp = self.matcher.take_profile().unwrap_or_default();
        if mp.productions.len() < self.program.productions.len() {
            mp.productions
                .resize(self.program.productions.len(), ProductionProfile::default());
        }
        for (i, p) in mp.productions.iter_mut().enumerate() {
            p.name = self.program.productions[i].name.to_string();
            if let Some(&(firings, act, ext)) = eng.per_prod.get(i) {
                p.firings += firings;
                p.act_units += act;
                p.external_units += ext;
            }
        }
        mp.conflict_sizes = eng.conflict_sizes;
        mp.cycles = eng.cycles;
        mp.work = self.work();
        Some(mp)
    }

    /// Starts recording per-cycle statistics. Match work done between this
    /// call and the first cycle (initial WM loading) is charged to the
    /// first cycle.
    pub fn enable_cycle_log(&mut self) {
        self.cycle_log = Some(Vec::new());
        self.log_snapshot = self.matcher.work();
        self.matcher.take_chunks();
    }

    /// Takes the recorded per-cycle statistics (logging stays enabled).
    pub fn take_cycle_log(&mut self) -> Vec<CycleStats> {
        match &mut self.cycle_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Merged work counters (interpreter + match).
    pub fn work(&self) -> WorkCounters {
        let mut w = self.base_work;
        w.add(&self.matcher.work());
        w
    }

    /// Working-memory view.
    pub fn wm(&self) -> &WmStore {
        &self.wm
    }

    /// Network sharing/indexing statistics of the match backend (all-zero
    /// for the naive matcher).
    pub fn net_stats(&self) -> crate::profile::NetStats {
        self.matcher.net_stats()
    }

    /// Current conflict-set size.
    pub fn conflict_len(&self) -> usize {
        self.conflict.len()
    }

    /// True when a `(halt)` has been executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Creates a WME by class and attribute names.
    pub fn make_wme(&mut self, class: &str, sets: &[(&str, Value)]) -> Result<WmeId> {
        let class_sym = sym(class);
        let n = self
            .program
            .n_slots(class_sym)
            .ok_or_else(|| Error::Runtime(format!("make: unknown class '{class}'")))?;
        let mut fields = vec![Value::Nil; n];
        for (attr, v) in sets {
            let slot = self.program.slot_of(class_sym, sym(attr)).ok_or_else(|| {
                Error::Runtime(format!("class '{class}' has no attribute '{attr}'"))
            })?;
            fields[slot as usize] = *v;
        }
        Ok(self.insert_fields(class_sym, fields))
    }

    /// Inserts a WME from raw slot values (working-memory distribution path:
    /// the PSM control process copies WMEs into task engines this way).
    /// A fresh local time tag is assigned.
    pub fn insert_fields(&mut self, class: Symbol, fields: Vec<Value>) -> WmeId {
        self.act().insert_fields(class, fields)
    }

    /// Removes a WME by id (no-op on dead ids).
    pub fn remove_wme_id(&mut self, id: WmeId) {
        self.act().remove_wme(id)
    }

    /// Borrows the state a firing changes, field by field, beside the
    /// shared program it only reads.
    fn act(&mut self) -> Act<'_> {
        Act {
            program: &self.program,
            compiled: &self.compiled,
            matcher: &mut *self.matcher,
            wm: &mut self.wm,
            conflict: &mut self.conflict,
            events: &mut self.events,
            vals: &mut self.vals,
            time: &mut self.time,
            base_work: &mut self.base_work,
            externals: &self.externals,
            gensym: &mut self.gensym,
            builtins: &self.builtins,
            output: &mut self.output,
            halted: &mut self.halted,
        }
    }

    /// Runs the recognize–act cycle for at most `limit` firings.
    pub fn run(&mut self, limit: u64) -> RunOutcome {
        let tracing = self
            .obs
            .as_mut()
            .filter(|s| s.enabled(ObsLevel::Summary))
            .map(|s| s.begin(Category::Cycle, "engine.run", vec![("limit", limit.into())]))
            .is_some();
        let outcome = self.run_inner(limit);
        if tracing {
            if let Some(sink) = &mut self.obs {
                sink.end(
                    Category::Cycle,
                    "engine.run",
                    vec![
                        ("firings", outcome.firings.into()),
                        ("halted", u64::from(outcome.halted).into()),
                    ],
                );
            }
        }
        outcome
    }

    fn run_inner(&mut self, limit: u64) -> RunOutcome {
        let mut firings = 0;
        while firings < limit {
            match self.step() {
                Ok(Some(_)) => firings += 1,
                Ok(None) => {
                    return RunOutcome {
                        firings,
                        halted: self.halted,
                        limit_reached: false,
                        error: None,
                    }
                }
                Err(e) => {
                    return RunOutcome {
                        firings,
                        halted: self.halted,
                        limit_reached: false,
                        error: Some(e.to_string()),
                    }
                }
            }
        }
        RunOutcome {
            firings,
            halted: self.halted,
            limit_reached: true,
            error: None,
        }
    }

    /// Executes one recognize–act cycle. Returns the fired production index,
    /// or `None` at quiescence / after halt.
    pub fn step(&mut self) -> Result<Option<u32>> {
        if self.halted {
            return Ok(None);
        }
        if let Some(err) = self.matcher.failure() {
            return Err(Error::Runtime(format!("match backend failed: {err}")));
        }
        // Resolve.
        let match_before = if self.cycle_log.is_some() {
            self.log_snapshot
        } else {
            self.matcher.work()
        };
        let conflict_len = self.conflict.len();
        self.base_work.resolve_units += cost::resolve_cost(conflict_len);
        let Some(inst) = self.conflict.select(self.strategy) else {
            return Ok(None);
        };
        let prod_idx = inst.production;
        let act_before = self.base_work;
        // Act.
        self.act().fire(&inst)?;
        self.base_work.firings += 1;
        if let Some(p) = &mut self.profile {
            let d = self.base_work.since(&act_before);
            if let Some(slot) = p.per_prod.get_mut(prod_idx as usize) {
                slot.0 += 1;
                slot.1 += d.act_units;
                slot.2 += d.external_units;
            }
            p.conflict_sizes.push(conflict_len as u32);
            p.cycles += 1;
        }
        if self.cycle_log.is_some() {
            self.log_snapshot = self.matcher.work();
        }
        if let Some(log) = &mut self.cycle_log {
            let match_delta = self.log_snapshot.since(&match_before);
            let act_delta = self.base_work.since(&act_before);
            let chunks = self.matcher.take_chunks();
            log.push(CycleStats {
                production: prod_idx,
                match_units: match_delta.match_units,
                match_chunks: chunks,
                resolve_units: cost::resolve_cost(conflict_len),
                act_units: act_delta.act_units,
                external_units: act_delta.external_units,
            });
        }
        // Mirror counters into the live registry every few cycles. One
        // Option check when detached; never feeds back into the counters.
        if let Some(lm) = &mut self.live {
            lm.cycles += 1;
            if lm.cycles >= LIVE_MIRROR_EVERY {
                self.publish_live();
            }
        }
        // Scene-trace mirror, at its own coarser cadence: close the cycle
        // window into one aux span. One Option check when detached.
        if let Some(tm) = &mut self.trace {
            tm.cycles += 1;
            if tm.cycles >= TRACE_WINDOW_EVERY {
                tm.flush();
            }
        }
        // Trace the cycle at Full. One Option check + one relaxed load when
        // disabled; the deterministic counters above never depend on this.
        if let Some(sink) = &mut self.obs {
            if sink.enabled(ObsLevel::Full) {
                sink.instant(
                    Category::Cycle,
                    "cycle.fire",
                    vec![
                        ("production", u64::from(prod_idx).into()),
                        ("conflict_len", (self.conflict.len() as u64).into()),
                    ],
                );
            }
        }
        Ok(Some(prod_idx))
    }

    /// Serializes the complete engine state — working memory (exact slot
    /// layout, time tags), conflict-set entry keys, recency/gensym counters,
    /// work counters, halt flag, and accumulated output — into the
    /// versioned, checksummed [`crate::snapshot`] format.
    ///
    /// Restoring via [`Engine::restore`] with the same program yields an
    /// engine whose re-snapshot is byte-identical and whose continuation
    /// (firing sequence, work counters, output) matches a run that never
    /// stopped. The snapshot does *not* carry registered external functions
    /// or the obs/profile/cycle-log attachments; callers re-attach those
    /// after restore.
    pub fn snapshot(&self) -> Vec<u8> {
        let conflict = self
            .conflict
            .iter()
            .map(|i| (i.production, i.wmes.clone()))
            .collect();
        crate::snapshot::EngineImage {
            fingerprint: crate::snapshot::program_fingerprint(&self.program),
            strategy: self.strategy,
            halted: self.halted,
            time: self.time,
            gensym: self.gensym,
            output: self.output.clone(),
            base_work: self.base_work,
            match_work: self.matcher.work(),
            slots: self.wm.raw_slots().to_vec(),
            conflict,
            // Live counters, plus any restored values whose counter has not
            // been re-registered yet — dropping those would make a
            // restore-then-resnapshot lose state.
            counters: self
                .ext_counters
                .iter()
                .map(|(n, _, c)| (n.clone(), c.load(Ordering::Relaxed)))
                .chain(self.restored_counters.iter().map(|(n, v)| (n.clone(), *v)))
                .collect(),
        }
        .encode()
    }

    /// Rebuilds an engine from [`Engine::snapshot`] bytes.
    ///
    /// The Rete network is not serialized; it is re-derived by feeding the
    /// restored WMEs through a fresh network. That rebuild resurrects
    /// instantiations that had already fired (OPS5 refraction removes them
    /// from the conflict set on selection), so the rebuilt conflict set is
    /// pruned down to the snapshot's recorded key set. Match work done by
    /// the rebuild is then reset to the recorded counters, making the
    /// restored engine's [`Engine::work`] — and its re-snapshot bytes —
    /// identical to the uninterrupted run's.
    ///
    /// Fails on checksum/format damage, on a program whose
    /// [`crate::snapshot::program_fingerprint`] differs from the embedded
    /// one, on a WME whose class or slot count the program does not
    /// declare, and on a snapshot whose conflict keys the rebuild cannot
    /// reproduce (which indicates corruption that the checksum cannot see,
    /// e.g. a program recompiled with different semantics but equal shape).
    pub fn restore(
        program: Arc<Program>,
        compiled: Arc<Vec<CompiledProduction>>,
        config: ReteConfig,
        bytes: &[u8],
    ) -> Result<Engine> {
        use std::collections::HashSet;
        let img = crate::snapshot::EngineImage::decode(bytes)?;
        let expected = crate::snapshot::program_fingerprint(&program);
        if img.fingerprint != expected {
            return Err(crate::snapshot::SnapshotError::ProgramMismatch {
                expected,
                found: img.fingerprint,
            }
            .into());
        }
        // Every live WME must fit the program's class layout: the match
        // reads slots by the program's declarations.
        for (i, w) in img.slots.iter().enumerate() {
            let Some(w) = w else { continue };
            if program.n_slots(w.class) != Some(w.fields.len()) {
                return Err(crate::snapshot::SnapshotError::Corrupt(format!(
                    "WME {i} ({}, {} slots) does not fit the program's classes",
                    w.class,
                    w.fields.len()
                ))
                .into());
            }
        }
        let mut e = Engine::with_compiled_config(program, compiled, config);
        e.strategy = img.strategy;
        e.wm = WmStore::from_slots(img.slots);
        let ids: Vec<WmeId> = e.wm.iter().map(|(id, _)| id).collect();
        for id in ids {
            e.matcher.add_wme(id, &e.wm);
        }
        e.act().sync_conflict();
        // Refraction pruning: drop rebuilt entries the snapshot no longer
        // held (they fired before the snapshot was taken).
        let keep: HashSet<(u32, Box<[WmeId]>)> = img.conflict.iter().cloned().collect();
        let fired: Vec<(u32, Box<[WmeId]>)> = e
            .conflict
            .iter()
            .filter(|i| !keep.contains(&(i.production, i.wmes.clone())))
            .map(|i| (i.production, i.wmes.clone()))
            .collect();
        for (production, wmes) in fired {
            e.conflict.remove(production, &wmes);
        }
        if e.conflict.len() != keep.len() {
            return Err(crate::snapshot::SnapshotError::Corrupt(
                "recorded conflict entries missing after Rete rebuild".into(),
            )
            .into());
        }
        e.time = img.time;
        e.gensym = img.gensym;
        e.halted = img.halted;
        e.output = img.output;
        e.base_work = img.base_work;
        e.restored_counters = img.counters.into_iter().collect();
        e.matcher.set_work(img.match_work);
        e.matcher.take_chunks();
        Ok(e)
    }
}

/// The engine state one firing reads and changes, borrowed field by field
/// from [`Engine`]: the shared program and its compiled productions are
/// read in place — never cloned per firing — while the RHS changes
/// working memory, the match and the conflict set.
struct Act<'a> {
    program: &'a Program,
    compiled: &'a [CompiledProduction],
    matcher: &'a mut dyn Matcher,
    wm: &'a mut WmStore,
    conflict: &'a mut ConflictSet,
    events: &'a mut Vec<MatchEvent>,
    vals: &'a mut Vec<Value>,
    time: &'a mut TimeTag,
    base_work: &'a mut WorkCounters,
    externals: &'a FxHashMap<Symbol, ExternalFn>,
    gensym: &'a mut u64,
    builtins: &'a Builtins,
    output: &'a mut String,
    halted: &'a mut bool,
}

impl Act<'_> {
    /// See [`Engine::insert_fields`].
    fn insert_fields(&mut self, class: Symbol, fields: Vec<Value>) -> WmeId {
        *self.time += 1;
        let wme = Wme {
            class,
            fields: fields.into_boxed_slice(),
            time_tag: *self.time,
        };
        let id = self.wm.add(wme);
        self.base_work.wme_adds += 1;
        self.matcher.add_wme(id, self.wm);
        self.sync_conflict();
        id
    }

    /// See [`Engine::remove_wme_id`].
    fn remove_wme(&mut self, id: WmeId) {
        if self.wm.get(id).is_none() {
            return;
        }
        self.matcher.remove_wme(id, self.wm);
        self.wm.remove(id);
        self.base_work.wme_removes += 1;
        self.sync_conflict();
    }

    /// Applies the matcher's pending events to the conflict set.
    fn sync_conflict(&mut self) {
        self.matcher.drain_events_into(self.wm, self.events);
        for e in self.events.drain(..) {
            match e {
                MatchEvent::Insert(i) => self.conflict.insert(i),
                MatchEvent::Retract { production, wmes } => {
                    self.conflict.remove(production, &wmes);
                }
            }
        }
    }

    /// Executes the RHS of `inst`.
    fn fire(&mut self, inst: &Instantiation) -> Result<()> {
        let compiled = self.compiled;
        let program = self.program;
        let cp = &compiled[inst.production as usize];
        let prod = &program.productions[inst.production as usize];

        // Extract variable bindings from the matched WMEs.
        let mut vals = std::mem::take(self.vals);
        vals.clear();
        vals.resize(prod.n_vars as usize, Value::Nil);
        for (vid, src) in cp.var_sources.iter().enumerate() {
            if let VarSource::Lhs { level, slot } = src {
                let pos = cp
                    .positive_levels
                    .iter()
                    .position(|l| l == level)
                    .expect("binding level is positive");
                if let Some(w) = self.wm.get(inst.wmes[pos]) {
                    vals[vid] = w.get(*slot as usize);
                }
            }
        }
        for action in &prod.actions {
            self.base_work.rhs_actions += 1;
            self.base_work.act_units += cost::RHS_ACTION;
            match action {
                Action::Make { class, sets } => {
                    let n = program
                        .n_slots(*class)
                        .expect("make class checked at parse time");
                    let mut fields = vec![Value::Nil; n];
                    for (slot, e) in sets {
                        fields[*slot as usize] = self.eval(e, &vals)?;
                    }
                    self.insert_fields(*class, fields);
                }
                Action::Modify { ce, sets } => {
                    let pos = cp.ce_to_positive[(*ce - 1) as usize]
                        .expect("modify target is positive") as usize;
                    let id = inst.wmes[pos];
                    // OPS5 modify = remove + make with changed slots.
                    let Some(old) = self.wm.get(id) else {
                        // Already removed earlier in this RHS; OPS5 would
                        // signal an error — we skip, deterministically.
                        continue;
                    };
                    let class = old.class;
                    let mut fields: Vec<Value> = old.fields.to_vec();
                    // Evaluate first (expressions may read the old values
                    // via variables), then swap.
                    let mut newvals = Vec::with_capacity(sets.len());
                    for (slot, e) in sets {
                        newvals.push((*slot, self.eval(e, &vals)?));
                    }
                    for (slot, v) in newvals {
                        fields[slot as usize] = v;
                    }
                    self.remove_wme(id);
                    self.insert_fields(class, fields);
                }
                Action::Remove { ce } => {
                    let pos = cp.ce_to_positive[(*ce - 1) as usize]
                        .expect("remove target is positive") as usize;
                    self.remove_wme(inst.wmes[pos]);
                }
                Action::Bind { var, expr } => {
                    let v = self.eval(expr, &vals)?;
                    vals[*var as usize] = v;
                }
                Action::Write { parts } => {
                    let crlf = self.builtins.crlf;
                    let mut first = true;
                    let mut line = String::new();
                    for p in parts {
                        let v = self.eval(p, &vals)?;
                        if v.as_sym() == Some(crlf) {
                            line.push('\n');
                            first = true;
                            continue;
                        }
                        if !first {
                            line.push(' ');
                        }
                        line.push_str(&v.to_string());
                        first = false;
                    }
                    self.output.push_str(&line);
                }
                Action::Call { name, args } => {
                    let mut argv = Vec::with_capacity(args.len());
                    for a in args {
                        argv.push(self.eval(a, &vals)?);
                    }
                    self.call_external(*name, &argv)?;
                }
                Action::Halt => {
                    *self.halted = true;
                }
            }
        }
        // The buffer goes back for the next firing (an error path drops
        // it; the next firing then allocates a new one).
        *self.vals = vals;
        Ok(())
    }

    /// Evaluates an RHS expression, dispatching `(call ...)` sub-expressions
    /// to the external registry.
    fn eval(&mut self, expr: &Expr, vals: &[Value]) -> Result<Value> {
        self.base_work.act_units += cost::RHS_EXPR;
        match expr {
            Expr::Call(name, args) => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, vals)?);
                }
                self.call_external(*name, &argv)
            }
            Expr::Compute(first, rest) => {
                let mut acc = self.eval(first, vals)?;
                for (op, e) in rest {
                    let rhs = self.eval(e, vals)?;
                    acc = crate::rhs::arith(*op, acc, rhs)?;
                }
                Ok(acc)
            }
            other => {
                let mut nocall = |n: Symbol, _: &[Value]| -> Result<Value> {
                    Err(Error::Runtime(format!("unexpected call {n}")))
                };
                let mut work = 0;
                let v = eval_expr(other, vals, &mut nocall, &mut work);
                self.base_work.act_units += work;
                v
            }
        }
    }

    fn call_external(&mut self, name: Symbol, args: &[Value]) -> Result<Value> {
        // Builtin: genatom — a fresh unique symbol.
        if name == self.builtins.genatom {
            *self.gensym += 1;
            return Ok(Value::Sym(sym(&format!("g#{}", self.gensym))));
        }
        let externals = self.externals;
        let Some(f) = externals.get(&name) else {
            return Err(Error::Runtime(format!(
                "unknown external function '{name}'"
            )));
        };
        let mut eff = Effects::default();
        let ret = f(args, &mut eff);
        self.base_work.external_units += eff.cost;
        if !eff.output.is_empty() {
            self.output.push_str(&eff.output);
        }
        let program = self.program;
        for (class, sets) in eff.makes {
            let n = program
                .n_slots(class)
                .ok_or_else(|| Error::Runtime(format!("external make: unknown class '{class}'")))?;
            let mut fields = vec![Value::Nil; n];
            for (attr, v) in sets {
                let slot = program.slot_of(class, attr).ok_or_else(|| {
                    Error::Runtime(format!("external make: no attribute '{attr}' on '{class}'"))
                })?;
                fields[slot as usize] = v;
            }
            self.insert_fields(class, fields);
        }
        if eff.halt {
            *self.halted = true;
        }
        Ok(ret.unwrap_or(Value::Nil))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(src: &str) -> Engine {
        Engine::new(Arc::new(Program::parse(src).unwrap()))
    }

    #[test]
    fn counter_runs_to_quiescence() {
        let mut e = engine(
            "(literalize count n)
             (p up (count ^n { <n> <= 3 }) --> (modify 1 ^n (compute <n> + 1)))",
        );
        e.make_wme("count", &[("n", 0.into())]).unwrap();
        let out = e.run(100);
        assert_eq!(out.firings, 4);
        assert!(out.quiescent());
        let (_, w) = e.wm().iter().next().unwrap();
        assert_eq!(w.get(0), Value::Int(4));
    }

    #[test]
    fn halt_stops_the_run() {
        let mut e = engine(
            "(literalize tick n)
             (p stop (tick ^n 2) --> (halt))
             (p up (tick ^n <n>) --> (modify 1 ^n (compute <n> + 1)))",
        );
        e.make_wme("tick", &[("n", 0.into())]).unwrap();
        let out = e.run(100);
        assert!(out.halted);
        // n reaches 2, `stop` wins on specificity... both match at n=2;
        // `stop` has specificity 1 (const test) vs `up` 1 (binding) — tie
        // broken by recency (same wme) then production order. `stop` is
        // production 0 → wins the final tie-break.
        assert!(out.firings >= 3);
    }

    #[test]
    fn make_and_remove_track_wm() {
        let mut e = engine(
            "(literalize seed n)
             (literalize out n)
             (p expand (seed ^n <n>) --> (make out ^n <n>) (remove 1))",
        );
        e.make_wme("seed", &[("n", 7.into())]).unwrap();
        let out = e.run(10);
        assert_eq!(out.firings, 1);
        let classes: Vec<String> = e.wm().iter().map(|(_, w)| w.class.to_string()).collect();
        assert_eq!(classes, vec!["out"]);
    }

    #[test]
    fn write_produces_output() {
        let mut e = engine(
            "(literalize msg text)
             (p say (msg ^text <t>) --> (write |hello| <t> (crlf)) (remove 1))",
        );
        e.make_wme("msg", &[("text", Value::symbol("world"))])
            .unwrap();
        e.run(10);
        assert_eq!(e.output, "hello world\n");
    }

    #[test]
    fn external_function_called_with_args() {
        let mut e = engine(
            "(literalize region id)
             (literalize fragment region kind)
             (p classify (region ^id <r>)
                -->
                (make fragment ^region <r> ^kind (call classify-region <r>))
                (remove 1))",
        );
        e.register_external(
            "classify-region",
            Arc::new(|args, eff| {
                eff.cost = 1000;
                let id = args[0].as_int().unwrap();
                Some(if id % 2 == 0 {
                    Value::symbol("runway")
                } else {
                    Value::symbol("taxiway")
                })
            }),
        );
        e.make_wme("region", &[("id", 4.into())]).unwrap();
        e.make_wme("region", &[("id", 5.into())]).unwrap();
        let out = e.run(10);
        assert_eq!(out.firings, 2);
        assert_eq!(e.work().external_units, 2000);
        let kinds: Vec<String> = e.wm().iter().map(|(_, w)| w.get(1).to_string()).collect();
        assert!(kinds.contains(&"runway".to_string()));
        assert!(kinds.contains(&"taxiway".to_string()));
    }

    #[test]
    fn external_effects_make_wmes() {
        let mut e = engine(
            "(literalize trigger x)
             (literalize result v)
             (p go (trigger) --> (call emit) (remove 1))",
        );
        e.register_external(
            "emit",
            Arc::new(|_, eff| {
                eff.makes
                    .push((sym("result"), vec![(sym("v"), Value::Int(42))]));
                None
            }),
        );
        e.make_wme("trigger", &[]).unwrap();
        e.run(10);
        let (_, w) = e.wm().iter().next().unwrap();
        assert_eq!(w.class, sym("result"));
        assert_eq!(w.get(0), Value::Int(42));
    }

    #[test]
    fn unknown_external_is_a_run_error() {
        let mut e = engine(
            "(literalize t x)
             (p go (t) --> (call no-such-fn))",
        );
        e.make_wme("t", &[]).unwrap();
        let out = e.run(10);
        assert!(out.error.is_some());
        assert!(out.error.unwrap().contains("no-such-fn"));
    }

    #[test]
    fn bind_and_genatom() {
        let mut e = engine(
            "(literalize t x)
             (literalize named id copy)
             (p go (t ^x <x>)
                -->
                (bind <g>)
                (make named ^id <g> ^copy <x>)
                (remove 1))",
        );
        e.make_wme("t", &[("x", 3.into())]).unwrap();
        e.run(10);
        let (_, w) = e.wm().iter().next().unwrap();
        assert!(w.get(0).as_sym().is_some(), "gensym bound");
        assert_eq!(w.get(1), Value::Int(3));
    }

    #[test]
    fn negation_driven_loop_terminates() {
        // Fires once per region lacking a fragment; creating the fragment
        // retracts the instantiation.
        let mut e = engine(
            "(literalize region id)
             (literalize fragment region)
             (p cover (region ^id <r>) -(fragment ^region <r>)
                -->
                (make fragment ^region <r>))",
        );
        for i in 0..5 {
            e.make_wme("region", &[("id", i.into())]).unwrap();
        }
        let out = e.run(100);
        assert_eq!(out.firings, 5);
        assert!(out.quiescent());
        assert_eq!(e.wm().len(), 10);
    }

    #[test]
    fn refraction_prevents_refiring() {
        // A production whose RHS does not change its own match must fire
        // exactly once per instantiation, not loop.
        let mut e = engine(
            "(literalize a x)
             (literalize log n)
             (p note (a ^x <x>) --> (make log ^n <x>))",
        );
        e.make_wme("a", &[("x", 1.into())]).unwrap();
        let out = e.run(100);
        assert_eq!(out.firings, 1);
    }

    #[test]
    fn lex_prefers_recent_wmes() {
        let mut e = engine(
            "(literalize a x)
             (literalize pick x)
             (p choose (a ^x <x>) --> (make pick ^x <x>) (remove 1))",
        );
        e.make_wme("a", &[("x", 1.into())]).unwrap();
        e.make_wme("a", &[("x", 2.into())]).unwrap();
        e.step().unwrap();
        // The more recent (x=2) fires first under LEX.
        let picks: Vec<Value> = e
            .wm()
            .iter()
            .filter(|(_, w)| w.class == sym("pick"))
            .map(|(_, w)| w.get(0))
            .collect();
        assert_eq!(picks, vec![Value::Int(2)]);
    }

    #[test]
    fn cycle_log_records_work() {
        let mut e = engine(
            "(literalize count n)
             (p up (count ^n { <n> <= 2 }) --> (modify 1 ^n (compute <n> + 1)))",
        );
        e.enable_cycle_log();
        e.make_wme("count", &[("n", 0.into())]).unwrap();
        e.run(100);
        let log = e.take_cycle_log();
        assert_eq!(log.len(), 3);
        assert!(log.iter().all(|c| c.match_units > 0));
        assert!(log.iter().all(|c| c.match_chunks > 0));
        assert!(log.iter().all(|c| c.act_units > 0));
    }

    #[test]
    fn work_counters_accumulate() {
        let mut e = engine(
            "(literalize count n)
             (p up (count ^n { <n> <= 9 }) --> (modify 1 ^n (compute <n> + 1)))",
        );
        e.make_wme("count", &[("n", 0.into())]).unwrap();
        e.run(100);
        let w = e.work();
        assert_eq!(w.firings, 10);
        assert!(w.match_units > 0);
        assert!(w.act_units > 0);
        assert!(w.resolve_units > 0);
        assert!(w.total_units() > 0);
        assert!(w.match_fraction() > 0.0 && w.match_fraction() < 1.0);
    }

    #[test]
    fn obs_sink_traces_without_touching_work() {
        let src = "(literalize count n)
             (p up (count ^n { <n> <= 5 }) --> (modify 1 ^n (compute <n> + 1)))";

        let mut plain = engine(src);
        plain.make_wme("count", &[("n", 0.into())]).unwrap();
        let out_plain = plain.run(100);

        let rec = tlp_obs::Recorder::new(tlp_obs::ObsLevel::Full);
        let mut traced = engine(src);
        traced.set_obs(rec.sink("engine"));
        traced.make_wme("count", &[("n", 0.into())]).unwrap();
        let out_traced = traced.run(100);

        // Work accounting is identical with the recorder attached.
        assert_eq!(out_plain, out_traced);
        assert_eq!(plain.work(), traced.work());

        drop(traced.take_obs()); // flush
        let events = rec.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"engine.run"));
        assert_eq!(
            names.iter().filter(|n| **n == "cycle.fire").count() as u64,
            out_traced.firings
        );
    }

    #[test]
    fn live_mirror_publishes_counters_without_touching_work() {
        use tlp_obs::{Live, LiveValue};
        let src = "(literalize count n)
             (p up (count ^n { <n> <= 39 }) --> (modify 1 ^n (compute <n> + 1)))";

        let mut plain = engine(src);
        plain.make_wme("count", &[("n", 0.into())]).unwrap();
        let out_plain = plain.run(100);

        let live = Live::new(8);
        let mut mirrored = engine(src);
        mirrored.set_live(live.handle());
        mirrored.make_wme("count", &[("n", 0.into())]).unwrap();
        let out_mirrored = mirrored.run(100);

        // Results and work accounting are identical with the mirror on.
        assert_eq!(out_plain, out_mirrored);
        assert_eq!(plain.work(), mirrored.work());

        // 40 firings crosses the every-16-cycles cadence, so counters are
        // already partially published; the final flush accounts the rest.
        mirrored.publish_live();
        let snap = live.snapshot();
        let total = |name: &str| match snap.series.get(name) {
            Some(LiveValue::Counter { total, .. }) => *total,
            other => panic!("{name}: expected counter, got {other:?}"),
        };
        let w = mirrored.work();
        assert_eq!(total("spam_live_match_units"), w.match_units);
        assert_eq!(total("spam_live_firings"), w.firings);
        assert_eq!(total("spam_live_rhs_actions"), w.rhs_actions);
        assert_eq!(
            snap.series.get("spam_live_wm_size"),
            Some(&LiveValue::Gauge(mirrored.wm().len() as f64))
        );
        assert!(snap.series.contains_key("spam_live_conflict_set_depth"));
    }

    #[test]
    fn disabled_live_handle_is_dropped() {
        use tlp_obs::Live;
        let live = Live::off();
        let mut e = engine(
            "(literalize count n)
             (p up (count ^n { <n> <= 5 }) --> (modify 1 ^n (compute <n> + 1)))",
        );
        e.set_live(live.handle());
        e.make_wme("count", &[("n", 0.into())]).unwrap();
        e.run(100);
        e.publish_live();
        assert!(live.snapshot().series.is_empty());
    }

    #[cfg(feature = "profiler")]
    #[test]
    fn profiler_never_touches_work_counters() {
        let src = "(literalize count n)
             (p up (count ^n { <n> <= 5 }) --> (modify 1 ^n (compute <n> + 1)))";

        let mut plain = engine(src);
        plain.make_wme("count", &[("n", 0.into())]).unwrap();
        let out_plain = plain.run(100);

        let mut profiled = engine(src);
        profiled.enable_profile();
        profiled.make_wme("count", &[("n", 0.into())]).unwrap();
        let out_profiled = profiled.run(100);

        // Work accounting is bit-identical with the profiler collecting.
        assert_eq!(out_plain, out_profiled);
        assert_eq!(plain.work(), profiled.work());

        let p = profiled.take_profile().expect("profiling was enabled");
        assert_eq!(p.cycles, out_profiled.firings);
        assert_eq!(p.conflict_sizes.len() as u64, p.cycles);
        assert_eq!(p.productions.len(), 1);
        assert_eq!(p.productions[0].name, "up");
        assert_eq!(p.productions[0].firings, out_profiled.firings);
        assert!(p.productions[0].match_units > 0);
        assert!(p.productions[0].act_units > 0);
        assert!(p.tokens_created > 0);
        assert!(p.tokens_deleted > 0, "modify removes old tokens");
        assert!(!p.alpha_mems.is_empty());
        assert!(p.alpha_mems.iter().any(|a| a.activations > 0));
        assert_eq!(p.work, profiled.work());
        // Attribution is conservative: attributed match work never exceeds
        // the measured total.
        assert!(p.beta_units() + p.alpha_units() <= p.work.match_units);
    }

    #[cfg(feature = "profiler")]
    #[test]
    fn take_profile_without_enable_is_none() {
        let mut e = engine(
            "(literalize count n)
             (p up (count ^n { <n> <= 2 }) --> (modify 1 ^n (compute <n> + 1)))",
        );
        e.make_wme("count", &[("n", 0.into())]).unwrap();
        e.run(100);
        assert!(e.take_profile().is_none());
    }

    #[cfg(feature = "profiler")]
    #[test]
    fn profile_attributes_cost_to_hot_productions() {
        // `busy` joins two classes and fires repeatedly; `quiet` never can.
        let src = "
            (literalize a x)
            (literalize b y)
            (literalize done n)
            (literalize never z)
            (p busy (a ^x <v>) (b ^y <v>) --> (make done ^n <v>) (remove 2))
            (p quiet (never ^z 1) --> (halt))
        ";
        let mut e = engine(src);
        e.enable_profile();
        for i in 0..4 {
            e.make_wme("a", &[("x", i.into())]).unwrap();
            e.make_wme("b", &[("y", i.into())]).unwrap();
        }
        let out = e.run(100);
        assert_eq!(out.firings, 4);
        let p = e.take_profile().unwrap();
        let hot = p.hot_productions(10);
        assert_eq!(hot[0].1.name, "busy");
        assert_eq!(hot[0].1.firings, 4);
        assert!(hot[0].1.match_units > 0);
        // `quiet` never fired and its chain never activated.
        let quiet = p.productions.iter().find(|q| q.name == "quiet").unwrap();
        assert_eq!(quiet.firings, 0);
        // Alpha heat is labelled by class.
        let hot_alpha = p.hot_alpha_mems(10);
        assert!(!hot_alpha.is_empty());
        assert!(hot_alpha.iter().any(|(_, a)| a.label.starts_with('a')
            || a.label.starts_with('b')
            || a.label.starts_with("done")));
    }

    #[test]
    fn obs_off_emits_nothing() {
        let rec = tlp_obs::Recorder::off();
        let mut e = engine(
            "(literalize count n)
             (p up (count ^n { <n> <= 5 }) --> (modify 1 ^n (compute <n> + 1)))",
        );
        e.set_obs(rec.sink("engine"));
        e.make_wme("count", &[("n", 0.into())]).unwrap();
        e.run(100);
        drop(e.take_obs());
        assert!(rec.is_empty());
    }

    #[test]
    fn snapshot_restore_mid_run_continues_identically() {
        let src = "(literalize count n)
             (literalize log n)
             (p up (count ^n { <n> <= 6 })
                -->
                (modify 1 ^n (compute <n> + 1))
                (make log ^n <n>)
                (write |tick| <n> (crlf)))";
        // Reference: never interrupted.
        let mut a = engine(src);
        a.make_wme("count", &[("n", 0.into())]).unwrap();
        let out_a = a.run(100);
        assert!(out_a.quiescent());

        // Interrupted: 3 cycles, snapshot, restore, continue.
        let mut b = engine(src);
        b.make_wme("count", &[("n", 0.into())]).unwrap();
        for _ in 0..3 {
            b.step().unwrap().expect("mid-run cycle fires");
        }
        let snap = b.snapshot();
        let mut c = Engine::restore(
            Arc::clone(b.program()),
            b.compiled(),
            ReteConfig::default(),
            &snap,
        )
        .unwrap();
        // Byte-identical under re-snapshot.
        assert_eq!(c.snapshot(), snap);
        let out_c = c.run(100);
        assert_eq!(out_a.firings, 3 + out_c.firings);
        assert_eq!(a.work(), c.work(), "work counters continue identically");
        assert_eq!(a.output, c.output, "output continues identically");
        let wm = |e: &Engine| -> Vec<(WmeId, Wme)> {
            e.wm().iter().map(|(id, w)| (id, w.clone())).collect()
        };
        assert_eq!(wm(&a), wm(&c), "final WM identical, time tags included");
    }

    #[test]
    fn external_counters_survive_snapshot_restore() {
        let src = "(literalize item id)
             (literalize seed n)
             (p alloc (seed ^n { <n> > 0 })
                -->
                (modify 1 ^n (compute <n> - 1))
                (make item ^id (call next-id)))";
        let register = |e: &mut Engine| {
            let c = e.external_counter("next-id", 100);
            e.register_external(
                "next-id",
                Arc::new(move |_, _: &mut crate::engine::Effects| {
                    Some(Value::Int(
                        c.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                    ))
                }),
            );
        };
        // Reference: never interrupted.
        let mut a = engine(src);
        register(&mut a);
        a.make_wme("seed", &[("n", 5.into())]).unwrap();
        assert!(a.run(100).quiescent());

        // Interrupted after two allocations.
        let mut b = engine(src);
        register(&mut b);
        b.make_wme("seed", &[("n", 5.into())]).unwrap();
        for _ in 0..2 {
            b.step().unwrap().unwrap();
        }
        let snap = b.snapshot();
        let mut c = Engine::restore(
            Arc::clone(b.program()),
            b.compiled(),
            ReteConfig::default(),
            &snap,
        )
        .unwrap();
        // Stashed counters keep re-snapshot byte-identical even before the
        // external environment re-registers.
        assert_eq!(c.snapshot(), snap);
        register(&mut c);
        assert_eq!(c.snapshot(), snap, "registration consumes the stash");
        assert!(c.run(100).quiescent());
        let ids = |e: &Engine| -> Vec<Value> {
            e.wm()
                .iter()
                .filter(|(_, w)| w.class == sym("item"))
                .map(|(_, w)| w.get(0))
                .collect()
        };
        assert_eq!(
            ids(&a),
            vec![
                Value::Int(100),
                Value::Int(101),
                Value::Int(102),
                Value::Int(103),
                Value::Int(104)
            ]
        );
        assert_eq!(ids(&a), ids(&c), "restored run allocates the same ids");
        assert_eq!(a.work(), c.work());
        // Re-registering by name returns the same counter, not a reset one.
        let again = c.external_counter("next-id", 100);
        assert_eq!(again.load(std::sync::atomic::Ordering::Relaxed), 105);
    }

    #[test]
    fn restore_preserves_refraction() {
        // `note` has fired; a naive Rete rebuild would resurrect its
        // instantiation and fire it again. Restore must prune it.
        let mut e = engine(
            "(literalize a x)
             (literalize log n)
             (p note (a ^x <x>) --> (make log ^n <x>))",
        );
        e.make_wme("a", &[("x", 1.into())]).unwrap();
        assert_eq!(e.run(100).firings, 1);
        let snap = e.snapshot();
        let mut r = Engine::restore(
            Arc::clone(e.program()),
            e.compiled(),
            ReteConfig::default(),
            &snap,
        )
        .unwrap();
        assert_eq!(r.conflict_len(), 0, "fired instantiation stays fired");
        assert_eq!(r.run(100).firings, 0);
    }

    #[test]
    fn restore_rejects_a_different_program() {
        let mut e = engine(
            "(literalize a x)
             (p one (a ^x <x>) --> (make a ^x 0))",
        );
        e.make_wme("a", &[("x", 1.into())]).unwrap();
        let snap = e.snapshot();
        let other = Arc::new(
            Program::parse(
                "(literalize a x y)
                 (p one (a ^x <x>) --> (make a ^x 0))",
            )
            .unwrap(),
        );
        let compiled = Engine::compile(&other).unwrap();
        let Err(err) = Engine::restore(other, compiled, ReteConfig::default(), &snap) else {
            panic!("restore against a different program must fail");
        };
        assert!(err.to_string().contains("different program"), "got: {err}");
    }

    #[test]
    fn restore_works_on_the_unshared_network_too() {
        let src = "(literalize count n)
             (p up (count ^n { <n> <= 4 }) --> (modify 1 ^n (compute <n> + 1)))";
        let program = Arc::new(Program::parse(src).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let mut e = Engine::with_compiled_config(
            Arc::clone(&program),
            Arc::clone(&compiled),
            ReteConfig::unshared(),
        );
        e.make_wme("count", &[("n", 0.into())]).unwrap();
        e.step().unwrap();
        let snap = e.snapshot();
        let mut r = Engine::restore(program, compiled, ReteConfig::unshared(), &snap).unwrap();
        assert_eq!(r.snapshot(), snap);
        let out = r.run(100);
        assert_eq!(out.firings, 4);
        // Work equals the uninterrupted unshared run's.
        let program2 = Arc::new(Program::parse(src).unwrap());
        let compiled2 = Engine::compile(&program2).unwrap();
        let mut g = Engine::with_compiled_config(program2, compiled2, ReteConfig::unshared());
        g.make_wme("count", &[("n", 0.into())]).unwrap();
        g.run(100);
        assert_eq!(r.work(), g.work());
    }

    #[test]
    fn shared_compiled_engines_are_independent() {
        let program = Arc::new(
            Program::parse(
                "(literalize a x)
                 (literalize b x)
                 (p copy (a ^x <x>) --> (make b ^x <x>) (remove 1))",
            )
            .unwrap(),
        );
        let compiled = Engine::compile(&program).unwrap();
        let mut e1 = Engine::with_compiled(Arc::clone(&program), Arc::clone(&compiled));
        let mut e2 = Engine::with_compiled(Arc::clone(&program), compiled);
        e1.make_wme("a", &[("x", 1.into())]).unwrap();
        e2.make_wme("a", &[("x", 2.into())]).unwrap();
        assert_eq!(e1.run(10).firings, 1);
        assert_eq!(e2.run(10).firings, 1);
        let v1 = e1.wm().iter().next().unwrap().1.get(0);
        let v2 = e2.wm().iter().next().unwrap().1.get(0);
        assert_eq!(v1, Value::Int(1));
        assert_eq!(v2, Value::Int(2));
    }
}
