//! Shared plumbing for the experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it and prints the paper's published values next to the
//! measured ones. See `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for recorded runs.

use spam::datasets::Dataset;
use spam::fragments::FragmentHypothesis;
use spam::lcc::{run_lcc, LccPhaseResult, Level};
use spam::rtf::{run_rtf, RtfResult};
use spam::rules::SpamProgram;
use spam::scene::Scene;
use std::sync::Arc;

/// A dataset prepared for experiments: scene generated, RTF executed.
pub struct Prepared {
    /// The dataset (spec + paper numbers).
    pub dataset: Dataset,
    /// The generated scene.
    pub scene: Arc<Scene>,
    /// The shared compiled program.
    pub sp: SpamProgram,
    /// RTF result.
    pub rtf: RtfResult,
    /// RTF fragments (input to LCC).
    pub fragments: Arc<Vec<FragmentHypothesis>>,
}

impl Prepared {
    /// Generates the scene and runs RTF for a dataset.
    pub fn new(dataset: Dataset) -> Prepared {
        let sp = SpamProgram::build();
        let scene = Arc::new(spam::generate_scene(&dataset.spec));
        let rtf = run_rtf(&sp, &scene);
        let fragments = Arc::new(rtf.fragments.clone());
        Prepared {
            dataset,
            scene,
            sp,
            rtf,
            fragments,
        }
    }

    /// Runs the LCC phase at `level`.
    pub fn lcc(&self, level: Level) -> LccPhaseResult {
        run_lcc(&self.sp, &self.scene, &self.fragments, level)
    }
}

/// Median of a sample. Sorts a copy; the input order is the interleaved
/// measurement order.
///
/// # Panics
/// On an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The host a wall-clock section was measured on. A measured speed-up is
/// bounded by min(workers, cores), and a debug build is no measure of a
/// release one, so every bench that reports wall time records both.
#[derive(Clone, Copy, Debug)]
pub struct Host {
    /// Cores available to the process (`available_parallelism`).
    pub cores: usize,
    /// `"release"` or `"debug"`.
    pub profile: &'static str,
}

impl Host {
    /// The host this process runs on.
    pub fn detect() -> Host {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// The `host: {cores, profile}` object of a bench JSON.
    pub fn json(&self) -> tlp_obs::json::Json {
        tlp_obs::json::Json::obj(vec![
            ("cores", tlp_obs::json::Json::Num(self.cores as f64)),
            ("profile", tlp_obs::json::Json::str(self.profile)),
        ])
    }
}

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cores={} profile={}", self.cores, self.profile)
    }
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Formats an `Option<f64>` paper value.
pub fn paper_f(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "n/a".into())
}

/// Formats an `Option<u64>`-ish paper value.
pub fn paper_u(v: Option<u64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "n/a".into())
}

/// Renders a speed-up curve as `p: s` pairs on one line.
pub fn curve_line(curve: &[(u32, f64)]) -> String {
    curve
        .iter()
        .map(|(p, s)| format!("{p}:{s:.2}"))
        .collect::<Vec<_>>()
        .join("  ")
}

pub mod plot;
