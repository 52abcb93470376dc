//! The traced scene as a span tree (scene → phases → LCC tasks → task
//! layers), the per-layer metrics derived from it, and its JSON-lines
//! export.

use crate::scenes::{Phases, TaskTrace, PHASES, TASK_LAYERS};
use crate::stats::self_time;
use std::collections::BTreeMap;
use tlp_obs::json::Json;

/// One recorded interval. Times are seconds from scene start.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name (`scene`, a phase, `lcc.task`, or a task layer).
    pub name: &'static str,
    /// Index of the enclosing span in the scene's span list.
    pub parent: Option<usize>,
    /// Start.
    pub start: f64,
    /// End.
    pub end: f64,
    /// LCC task index, for task and task-layer spans.
    pub task: Option<usize>,
    /// Thread that ran it (the worker, for task spans).
    pub thread: String,
}

/// Builds the span tree of one traced scene.
pub fn scene_spans(phases: &Phases, tasks: &[TaskTrace]) -> Vec<Span> {
    let span = |name, parent, (start, end): (f64, f64), task, thread: &str| Span {
        name,
        parent,
        start,
        end,
        task,
        thread: thread.to_string(),
    };
    let mut out = vec![span("scene", None, (0.0, phases.end), None, "control")];
    for (name, &iv) in PHASES.iter().zip(&phases.spans) {
        out.push(span(name, Some(0), iv, None, "control"));
    }
    let lcc = 1 + PHASES
        .iter()
        .position(|&p| p == "lcc.phase")
        .expect("lcc phase");
    for t in tasks {
        let parent = out.len();
        out.push(span("lcc.task", Some(lcc), t.span, Some(t.task), &t.thread));
        for (name, &iv) in TASK_LAYERS.iter().zip(&t.layers) {
            out.push(span(name, Some(parent), iv, Some(t.task), &t.thread));
        }
    }
    out
}

/// Self time per span name, summed over the spans of that name: each
/// span's duration minus the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&children) {
        *out.entry(s.name).or_insert(0.0) += self_time((s.start, s.end), kids);
    }
    out
}

/// The per-layer metrics of one traced scene, in milliseconds and counts.
/// Task-layer times are self time summed over the scene's tasks.
pub fn layer_metrics(phases: &Phases, tasks: &[TaskTrace]) -> Vec<(&'static str, f64)> {
    let spans = scene_spans(phases, tasks);
    let own = self_times(&spans);
    let ms = |name: &str| own.get(name).copied().unwrap_or(0.0) * 1e3;
    let sum = |f: &dyn Fn(&TaskTrace) -> u64| tasks.iter().map(f).sum::<u64>() as f64;
    let run_units = sum(&|t| t.ran.total_units() - t.loaded.total_units());
    let task_ms: f64 = tasks.iter().map(|t| t.span.1 - t.span.0).sum::<f64>() * 1e3;
    vec![
        ("ops5.build.self_ms", ms("ops5.build")),
        ("ops5.build.calls", tasks.len() as f64),
        ("ops5.load.self_ms", ms("ops5.load")),
        ("ops5.load.wme_adds", sum(&|t| t.loaded.wme_adds)),
        ("ops5.load.match_units", sum(&|t| t.loaded.match_units)),
        ("ops5.run.self_ms", ms("ops5.run")),
        (
            "ops5.run.match_units",
            sum(&|t| t.ran.match_units - t.loaded.match_units),
        ),
        (
            "ops5.run.resolve_units",
            sum(&|t| t.ran.resolve_units - t.loaded.resolve_units),
        ),
        (
            "ops5.run.act_units",
            sum(&|t| t.ran.act_units - t.loaded.act_units),
        ),
        (
            "ops5.run.external_units",
            sum(&|t| t.ran.external_units - t.loaded.external_units),
        ),
        (
            "ops5.run.firings",
            sum(&|t| t.ran.firings - t.loaded.firings),
        ),
        (
            "ops5.run.ns_per_unit",
            if run_units > 0.0 {
                ms("ops5.run") * 1e6 / run_units
            } else {
                0.0
            },
        ),
        ("spam.harvest.self_ms", ms("spam.harvest")),
        ("lcc.task.ms", task_ms),
        ("lcc.task.residual_ms", ms("lcc.task")),
        (
            "lcc.task.residual_pct",
            100.0 * ms("lcc.task") / task_ms.max(f64::MIN_POSITIVE),
        ),
        ("lcc.phase.self_ms", ms("lcc.phase")),
        ("spam.rtf.ms", ms("spam.rtf")),
        ("spam.rtf.firings", phases.rtf_firings as f64),
        ("spam.fa.ms", ms("spam.fa")),
        ("spam.model.ms", ms("spam.model")),
    ]
}

/// One span as a JSON object (a line of the span export).
pub fn span_json(scene: usize, index: usize, s: &Span) -> Json {
    let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Num(v as f64));
    Json::obj(vec![
        ("scene", Json::Num(scene as f64)),
        ("id", Json::Num(index as f64)),
        ("parent", opt(s.parent)),
        ("name", Json::str(s.name)),
        ("task", opt(s.task)),
        ("thread", Json::str(s.thread.clone())),
        ("start_us", Json::Num((s.start * 1e6).round())),
        ("end_us", Json::Num((s.end * 1e6).round())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::WorkCounters;

    fn task(task: usize, thread: &str, start: f64, cuts: [f64; 4], end: f64) -> TaskTrace {
        TaskTrace {
            task,
            thread: thread.to_string(),
            span: (start, end),
            layers: [
                (start, cuts[0]),
                (cuts[0], cuts[1]),
                (cuts[1], cuts[2]),
                (cuts[2], cuts[3]),
            ],
            loaded: WorkCounters {
                wme_adds: 5,
                match_units: 10,
                ..WorkCounters::default()
            },
            ran: WorkCounters {
                wme_adds: 7,
                match_units: 40,
                resolve_units: 10,
                firings: 3,
                ..WorkCounters::default()
            },
        }
    }

    #[test]
    fn lcc_phase_self_time_subtracts_overlapping_tasks_once() {
        // LCC runs 0.1..0.9 s; two workers run tasks 0.2..0.6 and
        // 0.3..0.7 at the same time. The union of the tasks is 0.5 s, so
        // the phase's own time is 0.3 s; the sum (0.8 s) would leave -0.
        let phases = Phases {
            spans: [(0.0, 0.1), (0.1, 0.9), (0.9, 0.95), (0.95, 1.0)],
            end: 1.0,
            rtf_firings: 4,
        };
        let tasks = [
            task(0, "w0", 0.2, [0.3, 0.4, 0.5, 0.55], 0.6),
            task(1, "w1", 0.3, [0.35, 0.45, 0.65, 0.7], 0.7),
        ];
        let m: BTreeMap<_, _> = layer_metrics(&phases, &tasks).into_iter().collect();
        let close = |k: &str, v: f64| assert!((m[k] - v).abs() < 1e-9, "{k} = {} != {v}", m[k]);
        close("lcc.phase.self_ms", 300.0);
        close("ops5.build.self_ms", 100.0 + 50.0);
        close("ops5.run.self_ms", 100.0 + 200.0);
        close("lcc.task.ms", 400.0 + 400.0);
        // Task 0 ends 50 ms after its harvest: that gap is residual.
        close("lcc.task.residual_ms", 50.0);
        close("lcc.task.residual_pct", 100.0 * 50.0 / 800.0);
        close("ops5.load.wme_adds", 10.0);
        close("ops5.run.match_units", 60.0);
        close("ops5.run.firings", 6.0);
        // 300 ms of run over 80 units.
        close("ops5.run.ns_per_unit", 300.0 * 1e6 / 80.0);
        close("spam.rtf.ms", 100.0);
        // Every span's self time plus its children's union is its length:
        // the phases tile the scene, so the scene has no self time.
        let own = self_times(&scene_spans(&phases, &tasks));
        assert!(own["scene"].abs() < 1e-12);
    }
}
