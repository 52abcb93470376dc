//! The pluggable match-backend interface.
//!
//! The paper layers three match configurations over one interpreter: the
//! unoptimised (Lisp) matcher, the optimised sequential Rete, and ParaOPS5's
//! parallel Rete with dedicated match processes. This trait is that seam:
//! the engine drives any matcher through WME deltas and reads back
//! conflict-set change events.

use crate::conflict::Instantiation;
use crate::instrument::WorkCounters;
use crate::naive::match_all;
use crate::profile::MatchProfile;
use crate::program::Program;
use crate::rete::compile::CompiledProduction;
use crate::rete::{MatchEvent, Rete};
use crate::wme::{WmStore, WmeId};
use crate::{Error, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// A match backend: maintains the conflict set incrementally as working
/// memory changes.
pub trait Matcher: Send {
    /// Processes a WME addition (`id` is live in `wm`).
    fn add_wme(&mut self, id: WmeId, wm: &WmStore);
    /// Processes a WME removal (`id` is still live in `wm`; the store drops
    /// it afterwards).
    fn remove_wme(&mut self, id: WmeId, wm: &WmStore);
    /// Returns conflict-set changes accumulated since the last call.
    fn drain_events(&mut self, wm: &WmStore) -> Vec<MatchEvent>;
    /// Like [`drain_events`](Self::drain_events), but appends the changes
    /// to `out`, so the engine can drain every WME change into one reused
    /// buffer. Backends that keep their own event buffer override it to
    /// hand the events over without allocating.
    fn drain_events_into(&mut self, wm: &WmStore, out: &mut Vec<MatchEvent>) {
        out.append(&mut self.drain_events(wm));
    }
    /// Number of independently schedulable match activations since the last
    /// call (the ParaOPS5 subtask count).
    fn take_chunks(&mut self) -> u32;
    /// Accumulated match work.
    fn work(&self) -> WorkCounters;
    /// Overwrites the accumulated match-work counters. Snapshot restore
    /// rebuilds the network from the restored WM — re-doing match work the
    /// original run already paid for — then resets the counters to the
    /// recorded value so [`crate::Engine::work`] stays identical to an
    /// uninterrupted run. Backends that do not support restore ignore it.
    fn set_work(&mut self, _work: WorkCounters) {}
    /// Returns the backend to the state it was built in — every memory,
    /// token, index and dynamic counter emptied, the network kept — so
    /// [`crate::Engine::reset`] can reuse the engine for another task.
    /// Backends that cannot do that keep this default, which refuses.
    fn reset(&mut self) -> Result<()> {
        Err(Error::Runtime(
            "this match backend cannot be reset; build a new engine".into(),
        ))
    }
    /// A terminal failure inside the match backend (e.g. a parallel pool
    /// that lost workers under a fail-fast policy). The engine checks this
    /// each cycle and stops with `RunOutcome::error` instead of panicking.
    /// In-process matchers never fail.
    fn failure(&self) -> Option<String> {
        None
    }
    /// Network sharing/indexing statistics. Backends without a Rete
    /// network (the naive matcher) report all-zero stats.
    fn net_stats(&self) -> crate::profile::NetStats {
        crate::profile::NetStats::default()
    }
    /// Starts match-level profiling. Backends without profiling support
    /// (and builds without the `profiler` feature) treat this as a no-op.
    fn enable_profile(&mut self) {}
    /// Takes the accumulated match profile; `None` for backends that do not
    /// collect one (or when profiling was never enabled).
    fn take_profile(&mut self) -> Option<MatchProfile> {
        None
    }
}

impl Matcher for Rete {
    fn add_wme(&mut self, id: WmeId, wm: &WmStore) {
        Rete::add_wme(self, id, wm)
    }
    fn remove_wme(&mut self, id: WmeId, wm: &WmStore) {
        Rete::remove_wme(self, id, wm)
    }
    fn drain_events(&mut self, _wm: &WmStore) -> Vec<MatchEvent> {
        Rete::drain_events(self)
    }
    fn drain_events_into(&mut self, _wm: &WmStore, out: &mut Vec<MatchEvent>) {
        Rete::drain_events_into(self, out)
    }
    fn take_chunks(&mut self) -> u32 {
        Rete::take_chunks(self)
    }
    fn work(&self) -> WorkCounters {
        self.work
    }
    fn set_work(&mut self, work: WorkCounters) {
        self.work = work;
    }
    fn reset(&mut self) -> Result<()> {
        Rete::reset(self);
        Ok(())
    }
    fn net_stats(&self) -> crate::profile::NetStats {
        Rete::net_stats(self)
    }
    fn enable_profile(&mut self) {
        Rete::enable_profile(self)
    }
    fn take_profile(&mut self) -> Option<MatchProfile> {
        Rete::take_profile(self)
    }
}

/// The naive matcher as a backend: re-matches everything on demand and
/// emits the difference against its previous result. Functionally identical
/// to the Rete (the property tests assert this); the cost profile is that
/// of the paper's unoptimised Lisp baseline.
pub struct NaiveMatcher {
    program: Arc<Program>,
    compiled: Arc<Vec<CompiledProduction>>,
    prev: HashMap<(u32, Box<[WmeId]>), Instantiation>,
    dirty: bool,
    work: WorkCounters,
}

impl NaiveMatcher {
    /// Creates a naive matcher for `program`.
    pub fn new(program: Arc<Program>, compiled: Arc<Vec<CompiledProduction>>) -> NaiveMatcher {
        NaiveMatcher {
            program,
            compiled,
            prev: HashMap::new(),
            dirty: false,
            work: WorkCounters::default(),
        }
    }
}

impl Matcher for NaiveMatcher {
    fn add_wme(&mut self, _id: WmeId, _wm: &WmStore) {
        self.dirty = true;
    }

    fn remove_wme(&mut self, _id: WmeId, _wm: &WmStore) {
        self.dirty = true;
    }

    fn drain_events(&mut self, wm: &WmStore) -> Vec<MatchEvent> {
        if !self.dirty {
            return Vec::new();
        }
        self.dirty = false;
        let matches = match_all(
            &self.program,
            &self.compiled,
            wm,
            &mut self.work.match_units,
        );
        let mut next: HashMap<(u32, Box<[WmeId]>), Instantiation> = HashMap::new();
        for i in matches {
            next.insert((i.production, i.wmes.clone()), i);
        }
        let mut events = Vec::new();
        // Deterministic order for reproducibility of any downstream logs.
        let mut removed: Vec<_> = self
            .prev
            .keys()
            .filter(|k| !next.contains_key(*k))
            .cloned()
            .collect();
        removed.sort();
        for (production, wmes) in removed {
            events.push(MatchEvent::Retract { production, wmes });
        }
        let mut added: Vec<_> = next
            .keys()
            .filter(|k| !self.prev.contains_key(*k))
            .cloned()
            .collect();
        added.sort();
        for k in added {
            events.push(MatchEvent::Insert(next[&k].clone()));
        }
        self.prev = next;
        events
    }

    fn take_chunks(&mut self) -> u32 {
        1 // the naive matcher is one indivisible unit of match work
    }

    fn work(&self) -> WorkCounters {
        self.work
    }

    fn set_work(&mut self, work: WorkCounters) {
        self.work = work;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;
    use crate::value::Value;
    use crate::wme::Wme;

    #[test]
    fn naive_matcher_emits_diffs() {
        let program = Arc::new(
            Program::parse(
                "(literalize a x)
                 (literalize b x)
                 (p j (a ^x <v>) (b ^x <v>) --> (halt))",
            )
            .unwrap(),
        );
        let compiled = crate::engine::Engine::compile(&program).unwrap();
        let mut m = NaiveMatcher::new(Arc::clone(&program), compiled);
        let mut wm = WmStore::new();

        let mut w1 = Wme::new(sym("a"), 1, 1);
        w1.set(0, Value::Int(1));
        let id1 = wm.add(w1);
        m.add_wme(id1, &wm);
        assert!(m.drain_events(&wm).is_empty(), "no join partner yet");

        let mut w2 = Wme::new(sym("b"), 1, 2);
        w2.set(0, Value::Int(1));
        let id2 = wm.add(w2);
        m.add_wme(id2, &wm);
        let ev = m.drain_events(&wm);
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0], MatchEvent::Insert(_)));

        m.remove_wme(id1, &wm);
        wm.remove(id1);
        let ev = m.drain_events(&wm);
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0], MatchEvent::Retract { .. }));

        // No change → no events.
        assert!(m.drain_events(&wm).is_empty());
    }
}
