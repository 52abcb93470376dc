//! The conflict set and OPS5's conflict-resolution strategies.
//!
//! OPS5's recognize–act cycle requires a *resolve* step that picks one
//! instantiation from the set of all satisfied productions. This global
//! synchronisation is the first reason the paper gives for the limits of
//! match parallelism (§3.1): match can be parallelised *within* a cycle, but
//! resolution serialises the cycle boundary. SPAM/PSM escapes it by running
//! many independent engines, each with its own conflict set.
//!
//! Each instantiation is stored once, in one shared allocation (an
//! `Arc`), and two indexes refer to it:
//!
//! - an entry set keyed by `(production, wmes)`, probed with a borrowed
//!   key, so `remove` builds no boxed key;
//! - a `BTreeSet` rank index ordered under the active strategy exactly as
//!   `compare` orders, so `select`/`peek` are a tree lookup, not a full
//!   scan.
//!
//! Each instantiation caches its descending time-tag key at construction,
//! so rank comparisons are slice compares with no allocation. An insert
//! costs the one shared allocation plus the rank tree's own nodes. The
//! matcher reports retractions one instantiation at a time, so the set
//! keeps no WME→instantiation index.

use crate::ast::Production;
use crate::fxhash::FxHashSet;
use crate::wme::{TimeTag, WmeId};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Conflict-resolution strategy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// LEX: refraction, then recency over all time tags, then specificity.
    #[default]
    Lex,
    /// MEA: like LEX but the recency of the WME matching the *first*
    /// condition element dominates (suits goal-directed programs).
    Mea,
}

/// An instantiation: a production plus the WMEs matching its positive
/// condition elements, in condition-element order.
///
/// Construct through [`Instantiation::new`] (or
/// [`make_instantiation`]), which caches the descending time-tag key the
/// resolution order compares — the cache is what keeps `select` free of
/// per-comparison sorting and allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instantiation {
    /// Index of the production in the program.
    pub production: u32,
    /// Matched WMEs (positive condition elements, in order).
    pub wmes: Box<[WmeId]>,
    /// Time tags of `wmes`, same order.
    pub time_tags: Box<[TimeTag]>,
    /// The production's specificity (number of LHS tests).
    pub specificity: u32,
    /// `time_tags` sorted descending — the LEX recency key, cached at
    /// construction so comparisons are slice compares.
    sorted_tags: Box<[TimeTag]>,
}

impl Instantiation {
    /// Builds an instantiation, caching its descending-tag recency key.
    pub fn new(
        production: u32,
        wmes: Box<[WmeId]>,
        time_tags: Box<[TimeTag]>,
        specificity: u32,
    ) -> Instantiation {
        let mut sorted_tags = time_tags.clone();
        sorted_tags.sort_unstable_by(|a, b| b.cmp(a));
        Instantiation {
            production,
            wmes,
            time_tags,
            specificity,
            sorted_tags,
        }
    }

    /// Time tags sorted descending (the LEX comparison key).
    pub fn sorted_tags(&self) -> &[TimeTag] {
        &self.sorted_tags
    }

    /// The MEA dominance key: the time tag of the WME matching the first
    /// condition element. A tagless instantiation (a production whose LHS
    /// binds no positive WMEs) uses tag 0, which is *older than every real
    /// WME* — live time tags start at 1 — so under MEA it loses recency to
    /// any tagged rival and competes with other tagless instantiations on
    /// the remaining criteria (specificity, then the deterministic
    /// tie-breaks). This matches LEX, where its empty tag list loses the
    /// length comparison the same way.
    fn mea_tag(&self) -> TimeTag {
        self.time_tags.first().copied().unwrap_or(0)
    }
}

/// Anything that names a conflict-set entry: a production plus the WMEs
/// of its match. The entry set hashes and compares through this view, so
/// a lookup can pass a borrowed `(production, &[WmeId])` instead of
/// building an owned key.
trait Keyed {
    fn key(&self) -> (u32, &[WmeId]);
}

impl Keyed for (u32, &[WmeId]) {
    fn key(&self) -> (u32, &[WmeId]) {
        *self
    }
}

impl Hash for dyn Keyed + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl PartialEq for dyn Keyed + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn Keyed + '_ {}

/// An entry-set member: the shared instantiation, hashed and compared by
/// its key alone, exactly as its borrowed `dyn Keyed` view is.
#[derive(Clone, Debug)]
struct Entry(Arc<Instantiation>);

impl Keyed for Entry {
    fn key(&self) -> (u32, &[WmeId]) {
        (self.0.production, &self.0.wmes)
    }
}

impl<'a> Borrow<dyn Keyed + 'a> for Entry {
    fn borrow(&self) -> &(dyn Keyed + 'a) {
        self
    }
}

impl Hash for Entry {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

/// A rank-index member: the shared instantiation plus its MEA first-CE
/// tag (0 under LEX). Ordered exactly like [`compare`] under the strategy
/// the tag was taken for, so the *maximum* is the dominant instantiation.
#[derive(Clone, Debug)]
struct Ranked {
    mea: TimeTag,
    inst: Arc<Instantiation>,
}

impl Ranked {
    fn new(strategy: Strategy, inst: Arc<Instantiation>) -> Ranked {
        let mea = match strategy {
            Strategy::Mea => inst.mea_tag(),
            Strategy::Lex => 0,
        };
        Ranked { mea, inst }
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.mea
            .cmp(&other.mea)
            .then_with(|| compare(Strategy::Lex, &self.inst, &other.inst))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// The conflict set: all currently satisfied, unfired instantiations.
#[derive(Clone, Debug, Default)]
pub struct ConflictSet {
    entries: FxHashSet<Entry>,
    /// Rank index under `rank_strategy`; rebuilt lazily when a different
    /// strategy is requested (engines use one strategy for a whole run).
    rank: BTreeSet<Ranked>,
    rank_strategy: Strategy,
}

impl ConflictSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instantiations present.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no instantiation is present (quiescence).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds an instantiation (idempotent for identical keys).
    pub fn insert(&mut self, inst: Instantiation) {
        let inst = Arc::new(inst);
        if let Some(Entry(old)) = self.entries.replace(Entry(Arc::clone(&inst))) {
            self.rank.remove(&Ranked::new(self.rank_strategy, old));
        }
        self.rank.insert(Ranked::new(self.rank_strategy, inst));
    }

    /// Removes an instantiation by key; returns true when present.
    pub fn remove(&mut self, production: u32, wmes: &[WmeId]) -> bool {
        match self.entries.take(&(production, wmes) as &dyn Keyed) {
            Some(Entry(inst)) => {
                self.rank.remove(&Ranked::new(self.rank_strategy, inst));
                true
            }
            None => false,
        }
    }

    /// Iterates over the instantiations (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Instantiation> {
        self.entries.iter().map(|e| &*e.0)
    }

    /// Selects the dominant instantiation under `strategy` and removes it
    /// from the set (OPS5 refraction). Returns `None` at quiescence.
    pub fn select(&mut self, strategy: Strategy) -> Option<Instantiation> {
        self.ensure_rank(strategy);
        let top = self.rank.pop_last()?.inst;
        let entry = self
            .entries
            .take(&(top.production, &*top.wmes) as &dyn Keyed)
            .expect("rank index entry has a backing instantiation");
        drop(entry);
        Some(Arc::try_unwrap(top).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Like [`select`](Self::select) but leaves the instantiation in place.
    /// When `strategy` differs from the one the rank index currently uses,
    /// this falls back to a linear maximum (still allocation-free thanks to
    /// the cached tag keys); `select` re-keys the index instead.
    pub fn peek(&self, strategy: Strategy) -> Option<&Instantiation> {
        if strategy == self.rank_strategy {
            return self.rank.last().map(|r| &*r.inst);
        }
        self.iter().max_by(|a, b| compare(strategy, a, b))
    }

    /// Rebuilds the rank index when the requested strategy changed.
    fn ensure_rank(&mut self, strategy: Strategy) {
        if strategy == self.rank_strategy {
            return;
        }
        self.rank_strategy = strategy;
        self.rank = self
            .entries
            .iter()
            .map(|e| Ranked::new(strategy, Arc::clone(&e.0)))
            .collect();
    }
}

/// Total order used for resolution; `Greater` means "dominates". The rank
/// index orders through it (under LEX, after the MEA tag), so this function
/// is the executable specification; it also serves strategy-mismatched
/// `peek`s.
fn compare(strategy: Strategy, a: &Instantiation, b: &Instantiation) -> Ordering {
    if strategy == Strategy::Mea {
        match a.mea_tag().cmp(&b.mea_tag()) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    // LEX recency: compare the cached sorted-descending tag slices. Slice
    // ordering is lexicographic with length as the final criterion, which
    // is exactly the LEX rule (an equal prefix with more tags dominates).
    match a.sorted_tags().cmp(b.sorted_tags()) {
        Ordering::Equal => {}
        other => return other,
    }
    match a.specificity.cmp(&b.specificity) {
        Ordering::Equal => {}
        other => return other,
    }
    // Deterministic final tie-break: lower production index, then wmes.
    match b.production.cmp(&a.production) {
        Ordering::Equal => {}
        other => return other,
    }
    b.wmes.cmp(&a.wmes)
}

/// Builds an instantiation given the matched WME ids + tags and production
/// metadata (convenience for the matchers).
pub fn make_instantiation(
    production: u32,
    prod: &Production,
    wmes: Vec<WmeId>,
    tags: Vec<TimeTag>,
) -> Instantiation {
    debug_assert_eq!(wmes.len(), prod.n_positive());
    Instantiation::new(
        production,
        wmes.into_boxed_slice(),
        tags.into_boxed_slice(),
        prod.specificity,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::Strategy as _;

    fn inst(prod: u32, tags: &[TimeTag], spec: u32) -> Instantiation {
        Instantiation::new(
            prod,
            tags.iter().map(|&t| WmeId(t as u32)).collect(),
            tags.into(),
            spec,
        )
    }

    #[test]
    fn lex_prefers_recency() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[1, 2], 1));
        cs.insert(inst(1, &[1, 5], 1));
        let w = cs.select(Strategy::Lex).unwrap();
        assert_eq!(w.production, 1);
        assert_eq!(cs.len(), 1, "selection removes (refraction)");
    }

    #[test]
    fn lex_ties_break_on_length_then_specificity() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[5], 1));
        cs.insert(inst(1, &[5, 3], 1)); // longer with equal prefix wins
        assert_eq!(cs.peek(Strategy::Lex).unwrap().production, 1);

        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[5, 3], 1));
        cs.insert(inst(1, &[5, 3], 9)); // higher specificity wins
        assert_eq!(cs.peek(Strategy::Lex).unwrap().production, 1);
    }

    #[test]
    fn mea_dominates_on_first_ce_tag() {
        let a = inst(0, &[9, 1], 1); // first CE tag 9
        let b = inst(1, &[2, 100], 1); // more recent overall, older first CE
        let mut cs = ConflictSet::new();
        cs.insert(a);
        cs.insert(b);
        assert_eq!(cs.peek(Strategy::Mea).unwrap().production, 0);
        assert_eq!(cs.peek(Strategy::Lex).unwrap().production, 1);
    }

    #[test]
    fn mea_treats_tagless_as_oldest() {
        // Regression for the `first().unwrap_or(0)` edge: a tagless
        // instantiation ranks as first-CE tag 0, older than every live WME
        // (tags start at 1) — it must lose to ANY tagged rival, even one
        // with tag 1, under both strategies.
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[], 9)); // tagless, more specific
        cs.insert(inst(1, &[1], 1)); // oldest possible real tag
        assert_eq!(cs.peek(Strategy::Mea).unwrap().production, 1);
        assert_eq!(cs.peek(Strategy::Lex).unwrap().production, 1);

        // Two tagless instantiations fall through to specificity and the
        // production-index tie-break, deterministically.
        let mut cs = ConflictSet::new();
        cs.insert(inst(3, &[], 2));
        cs.insert(inst(4, &[], 5));
        assert_eq!(cs.select(Strategy::Mea).unwrap().production, 4);
        assert_eq!(cs.select(Strategy::Mea).unwrap().production, 3);
    }

    #[test]
    fn selection_is_deterministic_under_full_ties() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(2, &[5, 3], 4));
        cs.insert(inst(1, &[5, 3], 4));
        // Lower production index dominates as the final tie-break.
        assert_eq!(cs.select(Strategy::Lex).unwrap().production, 1);
        assert_eq!(cs.select(Strategy::Lex).unwrap().production, 2);
        assert!(cs.select(Strategy::Lex).is_none());
    }

    #[test]
    fn insert_is_idempotent() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[1], 1));
        cs.insert(inst(0, &[1], 1));
        assert_eq!(cs.len(), 1);
        assert!(cs.remove(0, &[WmeId(1)]));
        assert!(!cs.remove(0, &[WmeId(1)]));
    }

    #[test]
    fn strategy_switch_rekeys_the_rank_index() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[9, 1], 1));
        cs.insert(inst(1, &[2, 100], 1));
        // LEX first (default index), then MEA (forces a rebuild), then LEX.
        assert_eq!(cs.peek(Strategy::Lex).unwrap().production, 1);
        assert_eq!(cs.select(Strategy::Mea).unwrap().production, 0);
        assert_eq!(cs.select(Strategy::Lex).unwrap().production, 1);
        assert!(cs.is_empty());
    }

    /// The rank index must order exactly like `compare` — drain via
    /// `select` and check each winner against a linear max over the rest.
    #[test]
    fn rank_index_agrees_with_linear_compare() {
        for strategy in [Strategy::Lex, Strategy::Mea] {
            // A mix of lengths, duplicate tags, ties and tagless entries.
            let pool = [
                inst(0, &[4, 9], 3),
                inst(1, &[9, 4], 3),
                inst(2, &[9], 1),
                inst(3, &[9, 4, 1], 3),
                inst(4, &[], 7),
                inst(5, &[4, 9], 3),
                inst(6, &[2, 100], 2),
                inst(7, &[100, 2], 2),
            ];
            let mut cs = ConflictSet::new();
            let mut model: Vec<Instantiation> = pool.to_vec();
            for i in pool {
                cs.insert(i);
            }
            while let Some(winner) = cs.select(strategy) {
                let (best_at, _) = model
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| compare(strategy, a, b))
                    .unwrap();
                let expect = model.swap_remove(best_at);
                assert_eq!(winner, expect, "strategy {strategy:?}");
            }
            assert!(model.is_empty());
        }
    }
    /// One step of the model test; pool indexes wrap around the pool.
    #[derive(Clone, Debug)]
    enum Op {
        /// Insert a pool entry (re-inserting a present key replaces it).
        Insert(usize),
        /// Remove by a pool entry's key (absent keys are a no-op).
        Remove(usize),
        Select(Strategy),
        Peek(Strategy),
    }

    fn strategy_of(mea: u8) -> Strategy {
        if mea == 1 {
            Strategy::Mea
        } else {
            Strategy::Lex
        }
    }

    /// Instantiations over few productions, WMEs and specificities, so
    /// keys collide, ties reach every tie-break, one WME can fill several
    /// CEs and some instantiations bind no WME at all.
    fn pool_strategy() -> impl proptest::Strategy<Value = Vec<Instantiation>> {
        proptest::prop::collection::vec(
            (
                0u32..4,
                proptest::prop::collection::vec(1u32..6, 0..4),
                0u32..3,
            ),
            1..12,
        )
        .prop_map(|specs| {
            specs
                .into_iter()
                .map(|(prod, ids, spec)| {
                    let wmes: Box<[WmeId]> = ids.iter().map(|&i| WmeId(i)).collect();
                    // A WME's tag is a function of its id, as in a store.
                    let tags: Box<[TimeTag]> = ids.iter().map(|&i| u64::from(i) * 10).collect();
                    Instantiation::new(prod, wmes, tags, spec)
                })
                .collect()
        })
    }

    fn op_strategy() -> impl proptest::Strategy<Value = Op> {
        proptest::prop_oneof![
            4 => (0usize..64).prop_map(Op::Insert),
            2 => (0usize..64).prop_map(Op::Remove),
            2 => (0u8..2).prop_map(|m| Op::Select(strategy_of(m))),
            1 => (0u8..2).prop_map(|m| Op::Peek(strategy_of(m))),
        ]
    }

    proptest::proptest! {
        /// Random insert/remove/select/peek sequences that switch strategy
        /// as they go: every answer equals a linear maximum under
        /// [`compare`] over a plain list of the present entries.
        #[test]
        fn conflict_set_matches_a_linear_model(
            pool in pool_strategy(),
            ops in proptest::prop::collection::vec(op_strategy(), 0..80),
        ) {
            let mut cs = ConflictSet::new();
            let mut model: Vec<Instantiation> = Vec::new();
            let key = |i: &Instantiation| (i.production, i.wmes.clone());
            for op in ops {
                match op {
                    Op::Insert(i) => {
                        let inst = pool[i % pool.len()].clone();
                        model.retain(|m| key(m) != key(&inst));
                        model.push(inst.clone());
                        cs.insert(inst);
                    }
                    Op::Remove(i) => {
                        let k = key(&pool[i % pool.len()]);
                        let present = model.iter().any(|m| key(m) == k);
                        model.retain(|m| key(m) != k);
                        proptest::prop_assert_eq!(cs.remove(k.0, &k.1), present);
                    }
                    Op::Select(s) => {
                        let best = model
                            .iter()
                            .enumerate()
                            .max_by(|(_, a), (_, b)| compare(s, a, b))
                            .map(|(at, _)| at);
                        let want = best.map(|at| model.swap_remove(at));
                        proptest::prop_assert_eq!(cs.select(s), want);
                    }
                    Op::Peek(s) => {
                        let want = model.iter().max_by(|a, b| compare(s, a, b));
                        proptest::prop_assert_eq!(cs.peek(s), want);
                    }
                }
                proptest::prop_assert_eq!(cs.len(), model.len());
                let mut got: Vec<_> = cs.iter().map(key).collect();
                let mut want: Vec<_> = model.iter().map(key).collect();
                got.sort();
                want.sort();
                proptest::prop_assert_eq!(got, want);
            }
        }
    }
}
