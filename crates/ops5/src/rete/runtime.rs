//! The beta network: incremental token maintenance.
//!
//! The implementation follows the token-tree formulation (Doorenbos 1995) of
//! Forgy's Rete. Productions compile to linear chains of join / negative
//! nodes; the runtime folds those chains into a *trie*: productions whose
//! chain prefixes are structurally identical share the prefix nodes and
//! their token memories (Doorenbos-style node sharing), and a node where
//! several chains end carries one terminal entry per production. Tokens form
//! a tree rooted at a per-root dummy; WME removal deletes token subtrees
//! through a WME→token index; negative nodes keep, per token, the list of
//! WMEs currently blocking it, plus a blocker→tokens map so removals
//! unblock without scanning.
//!
//! With [`ReteConfig::index`] the equality joins stop scanning: each alpha
//! memory keeps hash indexes over the slots its successors join on, and
//! each beta node keeps a hash index over the token population its right
//! activations pair against, keyed by the token-side value of its first
//! equality test. Probes are charged [`cost::INDEX_PROBE`]; retrieved
//! candidates still pay the full per-candidate join-test cost (the index is
//! a prefilter — `Value::hash_key` collides exactly where `ops_eq` demands,
//! and every candidate is re-verified).
//!
//! [`ReteConfig::unshared()`] rebuilds the seed network — one private chain
//! per production, linear scans, identical work-unit accounting — which is
//! the baseline `bench_rete` and the differential tests compare against.
//!
//! Every activation (alpha classification, right/left activation of a node)
//! is counted as one *match chunk* — the unit of parallelism ParaOPS5
//! schedules across dedicated match processes (§3.1 of the paper: "subtasks
//! execute only about 100 instructions").

use super::alpha::{AlphaMemId, AlphaNetwork, Successor};
use super::compile::{compile_production, ChainNodeSpec, CompiledProduction, JoinTest};
use crate::ast::Predicate;
use crate::conflict::Instantiation;
use crate::fxhash::FxHashMap;
use crate::instrument::{cost, WorkCounters};
use crate::profile::{AlphaMemProfile, ChainCounters, MatchProfile, NetStats, ProductionProfile};
use crate::program::Program;
use crate::wme::{WmStore, WmeId};
use crate::Result;
use std::sync::Arc;

const DUMMY: u32 = u32::MAX;

/// Minimum population of a memory before an equality join probes its hash
/// index instead of scanning. Below this, a linear scan is at most one
/// join-test evaluation per resident — no dearer than the probe itself —
/// so small memories stay on the scan path (the classic list-vs-hashed
/// memory trade-off; most memories in a production system hold zero or one
/// entries at any instant, and probing those would be pure overhead).
const INDEX_MIN_POPULATION: usize = 2;

/// Build-time configuration of the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReteConfig {
    /// Share join-chain prefixes between productions and memoise alpha
    /// constant tests across memories.
    pub share: bool,
    /// Hash-index alpha and beta memories on equality-join slot values.
    pub index: bool,
}

impl ReteConfig {
    /// The default production network: shared and indexed.
    pub fn shared() -> ReteConfig {
        ReteConfig {
            share: true,
            index: true,
        }
    }

    /// The seed-equivalent baseline: one private chain per production,
    /// linear scans, seed-identical work accounting.
    pub fn unshared() -> ReteConfig {
        ReteConfig {
            share: false,
            index: false,
        }
    }
}

impl Default for ReteConfig {
    fn default() -> Self {
        Self::shared()
    }
}

/// An event produced by the match: the conflict set changed.
#[derive(Clone, Debug)]
pub enum MatchEvent {
    /// A production instantiation became satisfied.
    Insert(Instantiation),
    /// A previously satisfied instantiation is no longer satisfied.
    Retract {
        /// Production index.
        production: u32,
        /// The WMEs of the retracted instantiation.
        wmes: Box<[WmeId]>,
    },
}

#[derive(Clone, Debug)]
struct TokenData {
    parent: u32,
    wme: Option<WmeId>,
    /// Beta node the token is resident at.
    node: u32,
    /// Chain level of `node` (cached for `ancestors`).
    level: u16,
    children: Vec<u32>,
    /// For tokens resident at a negative node: WMEs currently blocking.
    neg_results: Vec<WmeId>,
    /// Right-index registrations `(node, key)` to undo on deletion.
    index_keys: Vec<(u32, u64)>,
    emitted: bool,
    alive: bool,
}

/// Chain depth whose ancestry fits on the stack; deeper chains spill to
/// the heap, so chain depth has no limit. (The SPAM rule base is at most
/// five condition elements deep.)
const INLINE_DEPTH: usize = 8;

/// The WME ids of a token's chain, indexed by node level (`None` at
/// negative-node levels): a stack buffer up to [`INLINE_DEPTH`] levels, a
/// `Vec` beyond.
enum Ancestry {
    Inline {
        len: usize,
        slots: [Option<WmeId>; INLINE_DEPTH],
    },
    Spilled(Vec<Option<WmeId>>),
}

impl Ancestry {
    fn with_depth(len: usize) -> Ancestry {
        if len <= INLINE_DEPTH {
            Ancestry::Inline {
                len,
                slots: [None; INLINE_DEPTH],
            }
        } else {
            Ancestry::Spilled(vec![None; len])
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Option<WmeId>] {
        match self {
            Ancestry::Inline { len, slots } => &mut slots[..*len],
            Ancestry::Spilled(v) => v,
        }
    }
}

impl std::ops::Deref for Ancestry {
    type Target = [Option<WmeId>];

    fn deref(&self) -> &[Option<WmeId>] {
        match self {
            Ancestry::Inline { len, slots } => &slots[..*len],
            Ancestry::Spilled(v) => v,
        }
    }
}

/// One beta node of the (possibly shared) network trie.
#[derive(Clone, Debug)]
struct BetaNode {
    negated: bool,
    level: u16,
    /// Parent node; `None` for level-0 roots.
    parent: Option<u32>,
    alpha_mem: AlphaMemId,
    join_tests: Vec<JoinTest>,
    /// Index into `join_tests` of the equality test the hash indexes key
    /// on; `None` without an equality test or with indexing disabled.
    key_test: Option<usize>,
    children: Vec<u32>,
    /// Productions whose chain ends here: `(production, specificity)`.
    terminals: Vec<(u32, u32)>,
    /// Number of productions whose chain passes through this node.
    n_prods: u32,
    /// Lowest production index through this node (profile attribution).
    rep_prod: u32,
    /// Tokens resident at this node (for negative nodes, including blocked).
    tokens: Vec<u32>,
    /// Hash index over the token population this node's *right* activations
    /// pair against (the parent's residents for positive nodes, this node's
    /// own residents for negative nodes), keyed by the token-side value of
    /// `join_tests[key_test]`.
    right_index: FxHashMap<u64, Vec<u32>>,
    /// For negative nodes: blocker WME → tokens it currently blocks.
    blocked_by: FxHashMap<WmeId, Vec<u32>>,
}

/// The Rete network of one engine instance.
#[derive(Clone, Debug)]
pub struct Rete {
    config: ReteConfig,
    alpha: AlphaNetwork,
    nodes: Vec<BetaNode>,
    /// Level-0 nodes (children of the virtual root).
    roots: Vec<u32>,
    n_productions: usize,
    tokens: Vec<TokenData>,
    free: Vec<u32>,
    /// WME → tokens carrying it, indexed by [`WmeId`] (store ids are dense
    /// and never reused within a run).
    wme_tokens: Vec<Vec<u32>>,
    events: Vec<MatchEvent>,
    /// Reused buffers: the alpha memories one WME activates, and stacks of
    /// token-id and WME-id candidate lists (activations nest, so each
    /// level takes its own and gives it back).
    mem_buf: Vec<AlphaMemId>,
    token_bufs: Vec<Vec<u32>>,
    wme_bufs: Vec<Vec<WmeId>>,
    /// Accumulated match work.
    pub work: WorkCounters,
    chunks: u32,
    /// Always-on sharing/indexing statistics (not part of the work model).
    stats: NetStats,
    /// Per-node profiling counters plus token totals; `Some` only while
    /// profiling. Hooks read `work` deltas — they never write counters.
    profile: Option<ReteProfile>,
}

/// Collection state for match-level profiling of one Rete instance.
#[derive(Clone, Debug, Default)]
struct ReteProfile {
    nodes: Vec<ChainCounters>,
    tokens_created: u64,
    tokens_deleted: u64,
}

impl Rete {
    /// Builds a shared+indexed network for `program`, compiling every
    /// production.
    pub fn new(program: &Program) -> Result<Rete> {
        let compiled: Vec<CompiledProduction> = program
            .productions
            .iter()
            .enumerate()
            .map(|(i, p)| compile_production(i as u32, p))
            .collect::<Result<_>>()?;
        Ok(Self::from_compiled(&Arc::new(compiled), program))
    }

    /// Builds a shared+indexed network from pre-compiled chains (shared
    /// across the many task-process engines of a SPAM/PSM run).
    pub fn from_compiled(compiled: &Arc<Vec<CompiledProduction>>, program: &Program) -> Rete {
        Self::from_compiled_with(compiled, program, ReteConfig::default())
    }

    /// Builds a network with an explicit sharing/indexing configuration.
    pub fn from_compiled_with(
        compiled: &Arc<Vec<CompiledProduction>>,
        program: &Program,
        config: ReteConfig,
    ) -> Rete {
        let mut rete = Rete {
            config,
            alpha: AlphaNetwork::with_sharing(config.share),
            nodes: Vec::new(),
            roots: Vec::new(),
            n_productions: compiled
                .iter()
                .map(|s| s.prod as usize + 1)
                .max()
                .unwrap_or(0),
            tokens: Vec::new(),
            free: Vec::new(),
            wme_tokens: Vec::new(),
            events: Vec::new(),
            mem_buf: Vec::new(),
            token_bufs: Vec::new(),
            wme_bufs: Vec::new(),
            work: WorkCounters::default(),
            chunks: 0,
            stats: NetStats::default(),
            profile: None,
        };
        for spec in compiled.iter() {
            let specificity = program.productions[spec.prod as usize].specificity;
            let mut parent: Option<u32> = None;
            for n in &spec.nodes {
                let id = rete.get_or_build_node(parent, n, spec.prod);
                parent = Some(id);
            }
            let terminal = parent.expect("productions have at least one condition element");
            rete.nodes[terminal as usize]
                .terminals
                .push((spec.prod, specificity));
        }
        rete.stats.beta_nodes = rete.nodes.len() as u32;
        rete
    }

    /// Finds a shareable sibling matching `spec` under `parent`, or builds a
    /// new node there, registering it with the alpha network.
    fn get_or_build_node(&mut self, parent: Option<u32>, spec: &ChainNodeSpec, prod: u32) -> u32 {
        self.stats.unshared_beta_nodes += 1;
        if self.config.share {
            let siblings = match parent {
                Some(p) => &self.nodes[p as usize].children,
                None => &self.roots,
            };
            let found = siblings.iter().copied().find(|&c| {
                let node = &self.nodes[c as usize];
                let mem = self.alpha.mem(node.alpha_mem);
                node.negated == spec.negated
                    && mem.class == spec.class
                    && mem.tests == spec.alpha_tests
                    && node.join_tests == spec.join_tests
            });
            if let Some(c) = found {
                self.nodes[c as usize].n_prods += 1;
                // rep_prod stays the minimum: productions build in index
                // order, so the creator is already the lowest.
                return c;
            }
        }
        let id = self.nodes.len() as u32;
        let level = match parent {
            Some(p) => self.nodes[p as usize].level + 1,
            None => 0,
        };
        let key_test = if self.config.index {
            spec.join_tests
                .iter()
                .position(|t| t.predicate == Predicate::Eq)
        } else {
            None
        };
        self.nodes.push(BetaNode {
            negated: spec.negated,
            level,
            parent,
            alpha_mem: 0,
            join_tests: spec.join_tests.clone(),
            key_test,
            children: Vec::new(),
            terminals: Vec::new(),
            n_prods: 1,
            rep_prod: prod,
            tokens: Vec::new(),
            right_index: FxHashMap::default(),
            blocked_by: FxHashMap::default(),
        });
        let am = self
            .alpha
            .get_or_create(spec.class, &spec.alpha_tests, Successor { node: id });
        self.nodes[id as usize].alpha_mem = am;
        if let Some(kt) = key_test {
            self.alpha.ensure_index(am, spec.join_tests[kt].my_slot);
        }
        match parent {
            Some(p) => self.nodes[p as usize].children.push(id),
            None => self.roots.push(id),
        }
        id
    }

    /// The build configuration of this network.
    pub fn config(&self) -> ReteConfig {
        self.config
    }

    /// Number of alpha memories (shared constant-test patterns).
    pub fn alpha_memories(&self) -> usize {
        self.alpha.len()
    }

    /// Number of beta nodes after prefix sharing.
    pub fn beta_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Sharing/indexing statistics, cumulative since construction. Counted
    /// unconditionally (no profiler needed) and outside the work-unit
    /// model, so work totals are unaffected.
    pub fn net_stats(&self) -> NetStats {
        let mut s = self.stats;
        s.shared_test_hits = self.alpha.shared_test_hits;
        s
    }

    /// Returns the network to its freshly built state: every token, memory
    /// and index is emptied and the work, chunk and dynamic [`NetStats`]
    /// counters are zeroed, while the nodes, alpha memories and index
    /// declarations stay. Token ids restart at zero, so a reset network
    /// replays any input exactly as a new one does.
    pub fn reset(&mut self) {
        self.alpha.reset();
        for node in &mut self.nodes {
            node.tokens.clear();
            node.right_index.clear();
            node.blocked_by.clear();
        }
        self.tokens.clear();
        self.free.clear();
        self.wme_tokens.clear();
        self.events.clear();
        self.work = WorkCounters::default();
        self.chunks = 0;
        self.stats = NetStats {
            beta_nodes: self.stats.beta_nodes,
            unshared_beta_nodes: self.stats.unshared_beta_nodes,
            ..NetStats::default()
        };
        self.profile = None;
    }

    /// Drains the pending conflict-set events.
    pub fn drain_events(&mut self) -> Vec<MatchEvent> {
        std::mem::take(&mut self.events)
    }

    /// Moves the pending conflict-set events onto the end of `out`, keeping
    /// this network's event buffer (and its capacity) for the next batch.
    pub(crate) fn drain_events_into(&mut self, out: &mut Vec<MatchEvent>) {
        out.append(&mut self.events);
    }

    /// Number of independently schedulable match activations since the last
    /// call (feeds the ParaOPS5 match-parallelism cost model).
    pub fn take_chunks(&mut self) -> u32 {
        std::mem::take(&mut self.chunks)
    }

    /// Starts collecting a match-level profile (per-node cost attribution,
    /// alpha-memory heat, token totals), resetting any previous collection.
    /// A no-op when the `profiler` feature is compiled out.
    pub fn enable_profile(&mut self) {
        #[cfg(feature = "profiler")]
        {
            self.alpha.enable_profile();
            self.profile = Some(ReteProfile {
                nodes: vec![ChainCounters::default(); self.nodes.len()],
                ..Default::default()
            });
        }
    }

    /// Takes the collected profile, if profiling was enabled; collection
    /// continues with fresh counters. Per-node counters are folded into
    /// per-production entries: a node shared by several productions
    /// attributes its whole cost to the lowest-indexed one (the
    /// [`NetStats::shared_node_hits`] counter records how much activation
    /// traffic ran on shared nodes). Alpha memories receive their labels.
    pub fn take_profile(&mut self) -> Option<MatchProfile> {
        let p = self.profile.take()?;
        self.profile = Some(ReteProfile {
            nodes: vec![ChainCounters::default(); self.nodes.len()],
            ..Default::default()
        });
        let alpha = self.alpha.take_profile().unwrap_or_default();
        let mut productions = vec![ProductionProfile::default(); self.n_productions];
        for (node, c) in self.nodes.iter().zip(&p.nodes) {
            let pp = &mut productions[node.rep_prod as usize];
            pp.match_units += c.match_units;
            pp.activations += c.activations;
            pp.tokens += c.tokens;
        }
        let alpha_mems = alpha
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let mem = self.alpha.mem(i as AlphaMemId);
                AlphaMemProfile {
                    label: format!("{} ({} tests)", mem.class, mem.tests.len()),
                    tests: mem.tests.len() as u32,
                    activations: a.activations,
                    match_units: a.match_units,
                    peak_wmes: a.peak_wmes,
                }
            })
            .collect();
        Some(MatchProfile {
            productions,
            alpha_mems,
            tokens_created: p.tokens_created,
            tokens_deleted: p.tokens_deleted,
            net: self.net_stats(),
            ..Default::default()
        })
    }

    /// Processes a WME addition. `id` must already be live in `wm`.
    pub fn add_wme(&mut self, id: WmeId, wm: &WmStore) {
        let wme = wm.get(id).expect("add_wme: wme must be live");
        self.chunks += 1;
        let mut mems = std::mem::take(&mut self.mem_buf);
        self.alpha
            .classify_add(id, wme, &mut self.work.match_units, &mut mems);
        for &m in &mems {
            for si in 0..self.alpha.mem(m).successors.len() {
                let s = self.alpha.mem(m).successors[si];
                let before = self.work.match_units;
                self.right_activate_add(s.node, id, wm);
                if let Some(p) = &mut self.profile {
                    p.nodes[s.node as usize].match_units += self.work.match_units - before;
                }
            }
        }
        mems.clear();
        self.mem_buf = mems;
    }

    /// Processes a WME removal. Must be called while `id` is still live in
    /// `wm` (the engine removes it from the store afterwards).
    pub fn remove_wme(&mut self, id: WmeId, wm: &WmStore) {
        let wme = wm.get(id).expect("remove_wme: wme must still be live");
        self.chunks += 1;
        let mut mems = std::mem::take(&mut self.mem_buf);
        self.alpha
            .classify_remove(id, wme, &mut self.work.match_units, &mut mems);
        // Negative nodes first: unblock tokens whose blocker disappeared
        // (found through the blocker→tokens map, not a token scan).
        for &m in &mems {
            for si in 0..self.alpha.mem(m).successors.len() {
                let s = self.alpha.mem(m).successors[si];
                if !self.nodes[s.node as usize].negated {
                    continue;
                }
                self.chunks += 1;
                let before = self.work.match_units;
                if let Some(p) = &mut self.profile {
                    p.nodes[s.node as usize].activations += 1;
                }
                let toks = self.nodes[s.node as usize]
                    .blocked_by
                    .remove(&id)
                    .unwrap_or_default();
                for t in toks {
                    if !self.tokens[t as usize].alive {
                        continue;
                    }
                    let nr = &mut self.tokens[t as usize].neg_results;
                    if let Some(pos) = nr.iter().position(|&w| w == id) {
                        nr.remove(pos);
                        self.work.match_units += cost::TOKEN_OP;
                        if self.tokens[t as usize].neg_results.is_empty() {
                            self.propagate(s.node, t, wm);
                        }
                    }
                }
                if let Some(p) = &mut self.profile {
                    p.nodes[s.node as usize].match_units += self.work.match_units - before;
                }
            }
        }
        mems.clear();
        self.mem_buf = mems;
        // Then delete every token whose own WME is the removed one.
        let toks = self
            .wme_tokens
            .get_mut(id.0 as usize)
            .map(std::mem::take)
            .unwrap_or_default();
        for t in toks {
            let node = self.tokens[t as usize].node;
            let before = self.work.match_units;
            self.delete_token(t);
            if let Some(p) = &mut self.profile {
                p.nodes[node as usize].match_units += self.work.match_units - before;
            }
        }
    }

    // -- internals ---------------------------------------------------------

    /// Fills `out` with the token population a right activation of `n`
    /// pairs against: the parent's residents for positive nodes, `n`'s own
    /// for negative nodes. Takes the indexed candidates (charging the
    /// probe) when `n` has a key test, else the whole population (counted
    /// as a scan).
    fn right_candidates(&mut self, n: u32, w: WmeId, wm: &WmStore, out: &mut Vec<u32>) {
        let node = &self.nodes[n as usize];
        let population = if node.negated {
            &node.tokens
        } else {
            match node.parent {
                Some(p) => &self.nodes[p as usize].tokens,
                None => return,
            }
        };
        if let (Some(kt), true) = (node.key_test, population.len() >= INDEX_MIN_POPULATION) {
            let my_slot = node.join_tests[kt].my_slot;
            let key = wm
                .get(w)
                .map(|wme| wme.get(my_slot as usize).hash_key())
                .unwrap_or_default();
            self.work.match_units += cost::INDEX_PROBE;
            self.stats.index_probes += 1;
            if let Some(bucket) = node.right_index.get(&key) {
                out.extend_from_slice(bucket);
            }
            return;
        }
        self.stats.linear_scans += 1;
        out.extend_from_slice(population);
    }

    /// Fills `out` with the candidate WMEs for pairing a token (ancestry
    /// `anc`) against node `n`'s alpha memory: an indexed probe when
    /// possible, else the full memory (counted as a scan).
    fn left_candidates(
        &mut self,
        n: u32,
        anc: &[Option<WmeId>],
        wm: &WmStore,
        out: &mut Vec<WmeId>,
    ) {
        let node = &self.nodes[n as usize];
        let population = self.alpha.mem(node.alpha_mem).wmes.len();
        if let Some(kt) = node.key_test {
            if population >= INDEX_MIN_POPULATION {
                let test = node.join_tests[kt];
                self.work.match_units += cost::INDEX_PROBE;
                self.stats.index_probes += 1;
                // An unavailable referenced ancestor yields no key; no
                // candidate could pass the full tests either.
                if let Some(key) = token_side_key(anc, &test, wm) {
                    out.extend_from_slice(self.alpha.probe(node.alpha_mem, test.my_slot, key));
                }
                return;
            }
        }
        self.stats.linear_scans += 1;
        out.extend_from_slice(&self.alpha.mem(node.alpha_mem).wmes);
    }

    fn right_activate_add(&mut self, n: u32, w: WmeId, wm: &WmStore) {
        self.chunks += 1;
        if self.nodes[n as usize].n_prods > 1 {
            self.stats.shared_node_hits += 1;
        }
        if let Some(p) = &mut self.profile {
            p.nodes[n as usize].activations += 1;
        }
        let negated = self.nodes[n as usize].negated;
        let test_units = self.nodes[n as usize].join_tests.len() as u64 * cost::JOIN_TEST;
        if negated {
            let mut toks = self.token_bufs.pop().unwrap_or_default();
            self.right_candidates(n, w, wm, &mut toks);
            for &t in &toks {
                if !self.tokens[t as usize].alive {
                    continue;
                }
                let anc = self.ancestors(t);
                self.work.match_units += test_units;
                if eval_tests(&self.nodes[n as usize].join_tests, &anc, w, wm) {
                    let nr = &mut self.tokens[t as usize].neg_results;
                    // The token may already hold `w` when it was created
                    // during this very addition (its initial blocker scan
                    // saw the memory with `w` inside); blockers are a set.
                    if !nr.contains(&w) {
                        nr.push(w);
                        let first = nr.len() == 1;
                        self.nodes[n as usize]
                            .blocked_by
                            .entry(w)
                            .or_default()
                            .push(t);
                        if first {
                            self.block_token(t);
                        }
                    }
                }
            }
            toks.clear();
            self.token_bufs.push(toks);
        } else if self.nodes[n as usize].level == 0 {
            debug_assert_eq!(test_units, 0, "first node has no join tests");
            self.new_token(n, DUMMY, Some(w), wm);
        } else {
            let parent_negated = self.nodes[n as usize]
                .parent
                .map(|p| self.nodes[p as usize].negated)
                .unwrap_or(false);
            let mut parents = self.token_bufs.pop().unwrap_or_default();
            self.right_candidates(n, w, wm, &mut parents);
            for &t in &parents {
                if !self.tokens[t as usize].alive {
                    continue;
                }
                if parent_negated && !self.tokens[t as usize].neg_results.is_empty() {
                    continue; // blocked parents have no output
                }
                let anc = self.ancestors(t);
                self.work.match_units += test_units;
                if eval_tests(&self.nodes[n as usize].join_tests, &anc, w, wm) {
                    self.new_token(n, t, Some(w), wm);
                }
            }
            parents.clear();
            self.token_bufs.push(parents);
        }
    }

    /// Creates a token at node `n` and, when it is active (positive, or
    /// negative with no blockers), propagates it down the trie.
    fn new_token(&mut self, n: u32, parent: u32, wme: Option<WmeId>, wm: &WmStore) {
        let id = self.alloc_token(n, parent, wme);
        self.work.match_units += cost::TOKEN_OP;
        if let Some(p) = &mut self.profile {
            p.tokens_created += 1;
            p.nodes[n as usize].tokens += 1;
        }
        self.nodes[n as usize].tokens.push(id);
        if let Some(w) = wme {
            let at = w.0 as usize;
            if at >= self.wme_tokens.len() {
                self.wme_tokens.resize_with(at + 1, Vec::new);
            }
            self.wme_tokens[at].push(id);
        }
        if parent != DUMMY {
            self.tokens[parent as usize].children.push(id);
        }
        let anc = self.ancestors(id);
        if self.config.index {
            self.register_token_indexes(id, n, &anc, wm);
        }
        if self.nodes[n as usize].negated {
            // Compute the initial blocker set.
            let mut cands = self.wme_bufs.pop().unwrap_or_default();
            self.left_candidates(n, &anc, wm, &mut cands);
            let tests = self.nodes[n as usize].join_tests.len().max(1);
            self.work.match_units += (cands.len() * tests) as u64 * cost::JOIN_TEST;
            for &w in &cands {
                if eval_tests(&self.nodes[n as usize].join_tests, &anc, w, wm) {
                    self.nodes[n as usize]
                        .blocked_by
                        .entry(w)
                        .or_default()
                        .push(id);
                    self.tokens[id as usize].neg_results.push(w);
                }
            }
            cands.clear();
            self.wme_bufs.push(cands);
            if !self.tokens[id as usize].neg_results.is_empty() {
                return;
            }
        }
        self.propagate(n, id, wm);
    }

    /// Registers a fresh token at `n` into the right-activation hash
    /// indexes that cover `n`'s resident population: `n`'s own index when
    /// `n` is negative, and the index of every positive keyed child.
    fn register_token_indexes(&mut self, id: u32, n: u32, anc: &[Option<WmeId>], wm: &WmStore) {
        let node = &self.nodes[n as usize];
        if node.negated {
            if let Some(kt) = node.key_test {
                if let Some(key) = token_side_key(anc, &node.join_tests[kt], wm) {
                    self.register_index(n, key, id);
                }
            }
        }
        for ci in 0..self.nodes[n as usize].children.len() {
            let c = self.nodes[n as usize].children[ci];
            let cn = &self.nodes[c as usize];
            if cn.negated {
                continue;
            }
            if let Some(kt) = cn.key_test {
                if let Some(key) = token_side_key(anc, &cn.join_tests[kt], wm) {
                    self.register_index(c, key, id);
                }
            }
        }
    }

    /// Files token `id` under `key` in node `nd`'s right index, recording
    /// the registration on the token so deletion can undo it.
    fn register_index(&mut self, nd: u32, key: u64, id: u32) {
        self.nodes[nd as usize]
            .right_index
            .entry(key)
            .or_default()
            .push(id);
        self.tokens[id as usize].index_keys.push((nd, key));
    }

    /// Token `t` is active at node `n`: emit its terminals and feed the
    /// children. (A shared node can be terminal for one production *and*
    /// a prefix of another's chain.)
    fn propagate(&mut self, n: u32, t: u32, wm: &WmStore) {
        if !self.nodes[n as usize].terminals.is_empty() {
            self.emit_insert(n, t, wm);
        }
        if self.nodes[n as usize].children.is_empty() {
            return;
        }
        // Left activations create tokens below `n` only, so `t`'s chain —
        // and with it its ancestry — is fixed for the whole loop.
        let anc = self.ancestors(t);
        let mut cands = self.wme_bufs.pop().unwrap_or_default();
        for ci in 0..self.nodes[n as usize].children.len() {
            let c = self.nodes[n as usize].children[ci];
            self.chunks += 1;
            if self.nodes[c as usize].n_prods > 1 {
                self.stats.shared_node_hits += 1;
            }
            if let Some(p) = &mut self.profile {
                p.nodes[c as usize].activations += 1;
            }
            if self.nodes[c as usize].negated {
                self.new_token(c, t, None, wm);
            } else {
                let test_units = self.nodes[c as usize].join_tests.len() as u64 * cost::JOIN_TEST;
                self.left_candidates(c, &anc, wm, &mut cands);
                for &w in &cands {
                    self.work.match_units += test_units;
                    if eval_tests(&self.nodes[c as usize].join_tests, &anc, w, wm) {
                        self.new_token(c, t, Some(w), wm);
                    }
                }
                cands.clear();
            }
        }
        self.wme_bufs.push(cands);
    }

    /// A negative token became blocked: delete its descendants and retract
    /// its instantiations if it reached a terminal.
    fn block_token(&mut self, t: u32) {
        // Deleting descendants creates no token, so nothing is added to
        // `t`'s children meanwhile; the emptied list goes back with its
        // capacity.
        let mut children = std::mem::take(&mut self.tokens[t as usize].children);
        for &ch in &children {
            self.delete_token(ch);
        }
        children.clear();
        self.tokens[t as usize].children = children;
        if self.tokens[t as usize].emitted {
            self.tokens[t as usize].emitted = false;
            self.emit_retract(t);
        }
    }

    fn delete_token(&mut self, t: u32) {
        if !self.tokens[t as usize].alive {
            return;
        }
        self.tokens[t as usize].alive = false;
        if let Some(p) = &mut self.profile {
            p.tokens_deleted += 1;
        }
        let mut children = std::mem::take(&mut self.tokens[t as usize].children);
        for &ch in &children {
            self.delete_token(ch);
        }
        children.clear();
        self.tokens[t as usize].children = children;
        if self.tokens[t as usize].emitted {
            self.tokens[t as usize].emitted = false;
            self.emit_retract(t);
        }
        let n = self.tokens[t as usize].node;
        // Removals here (and in every memory below) must preserve order:
        // snapshot restore rebuilds the network by re-inserting live WMEs
        // in id order, so surviving entries have to sit in arrival order or
        // order-sensitive scans would cost different match work after a
        // crash recovery than in the uninterrupted run.
        let toks = &mut self.nodes[n as usize].tokens;
        if let Some(pos) = toks.iter().position(|&x| x == t) {
            toks.remove(pos);
        }
        // Undo index and blocker registrations. The token's lists are
        // emptied in place so a reused slot keeps their capacity.
        let td = &mut self.tokens[t as usize];
        for &(nd, key) in &td.index_keys {
            let index = &mut self.nodes[nd as usize].right_index;
            if let Some(bucket) = index.get_mut(&key) {
                if let Some(pos) = bucket.iter().position(|&x| x == t) {
                    bucket.remove(pos);
                }
                if bucket.is_empty() {
                    index.remove(&key);
                }
            }
        }
        td.index_keys.clear();
        let blocked_by = &mut self.nodes[n as usize].blocked_by;
        for &w in &td.neg_results {
            if let Some(bucket) = blocked_by.get_mut(&w) {
                if let Some(pos) = bucket.iter().position(|&x| x == t) {
                    bucket.remove(pos);
                }
                if bucket.is_empty() {
                    blocked_by.remove(&w);
                }
            }
        }
        td.neg_results.clear();
        if let Some(w) = td.wme {
            if let Some(v) = self.wme_tokens.get_mut(w.0 as usize) {
                if let Some(pos) = v.iter().position(|&x| x == t) {
                    v.remove(pos);
                }
            }
        }
        let p = td.parent;
        if p != DUMMY && self.tokens[p as usize].alive {
            let pc = &mut self.tokens[p as usize].children;
            if let Some(pos) = pc.iter().position(|&x| x == t) {
                pc.remove(pos);
            }
        }
        self.work.match_units += cost::TOKEN_OP;
        self.free.push(t);
    }

    /// Takes a token slot, reusing a freed one (and the capacity of its
    /// emptied lists) when there is one.
    fn alloc_token(&mut self, n: u32, parent: u32, wme: Option<WmeId>) -> u32 {
        let level = self.nodes[n as usize].level;
        if let Some(id) = self.free.pop() {
            let td = &mut self.tokens[id as usize];
            debug_assert!(td.children.is_empty() && td.neg_results.is_empty());
            debug_assert!(td.index_keys.is_empty());
            td.parent = parent;
            td.wme = wme;
            td.node = n;
            td.level = level;
            td.emitted = false;
            td.alive = true;
            id
        } else {
            self.tokens.push(TokenData {
                parent,
                wme,
                node: n,
                level,
                children: Vec::new(),
                neg_results: Vec::new(),
                index_keys: Vec::new(),
                emitted: false,
                alive: true,
            });
            (self.tokens.len() - 1) as u32
        }
    }

    /// WME ids of the token's chain, indexed by node level (`None` at
    /// negative-node levels).
    fn ancestors(&self, t: u32) -> Ancestry {
        let mut anc = Ancestry::with_depth(self.tokens[t as usize].level as usize + 1);
        let slots = anc.as_mut_slice();
        let mut cur = t;
        loop {
            let td = &self.tokens[cur as usize];
            slots[td.level as usize] = td.wme;
            if td.parent == DUMMY {
                break;
            }
            cur = td.parent;
        }
        anc
    }

    /// The positive WMEs of `t`'s chain in condition-element order: the
    /// key of the instantiations it satisfies.
    fn chain_wmes(&self, t: u32) -> Box<[WmeId]> {
        let anc = self.ancestors(t);
        let mut wmes = Vec::with_capacity(anc.iter().flatten().count());
        wmes.extend(anc.iter().flatten());
        wmes.into_boxed_slice()
    }

    fn emit_insert(&mut self, n: u32, t: u32, wm: &WmStore) {
        self.tokens[t as usize].emitted = true;
        let mut wmes = self.chain_wmes(t);
        let mut time_tags: Box<[u64]> = wmes.iter().map(|&w| wm.time_tag(w)).collect();
        let n_terminals = self.nodes[n as usize].terminals.len();
        for i in 0..n_terminals {
            let (prod, specificity) = self.nodes[n as usize].terminals[i];
            self.work.match_units += cost::CONFLICT_OP;
            // The last terminal takes the buffers; earlier ones copy them.
            let (w, tags) = if i + 1 == n_terminals {
                (std::mem::take(&mut wmes), std::mem::take(&mut time_tags))
            } else {
                (wmes.clone(), time_tags.clone())
            };
            self.events.push(MatchEvent::Insert(Instantiation::new(
                prod,
                w,
                tags,
                specificity,
            )));
        }
    }

    fn emit_retract(&mut self, t: u32) {
        let mut wmes = self.chain_wmes(t);
        let n = self.tokens[t as usize].node;
        let n_terminals = self.nodes[n as usize].terminals.len();
        for i in 0..n_terminals {
            let (prod, _) = self.nodes[n as usize].terminals[i];
            self.work.match_units += cost::CONFLICT_OP;
            let wmes = if i + 1 == n_terminals {
                std::mem::take(&mut wmes)
            } else {
                wmes.clone()
            };
            self.events.push(MatchEvent::Retract {
                production: prod,
                wmes,
            });
        }
    }
}

/// The token-side index key for `test`: the hash key of the value at
/// `(their_level, their_slot)` in the token's ancestry. `None` when the
/// referenced ancestor is unavailable (the full tests would reject every
/// candidate anyway).
fn token_side_key(anc: &[Option<WmeId>], test: &JoinTest, wm: &WmStore) -> Option<u64> {
    let their = anc.get(test.their_level as usize).copied().flatten()?;
    let wme = wm.get(their)?;
    Some(wme.get(test.their_slot as usize).hash_key())
}

fn eval_tests(tests: &[JoinTest], anc: &[Option<WmeId>], w: WmeId, wm: &WmStore) -> bool {
    let Some(wme) = wm.get(w) else { return false };
    for t in tests {
        let their = anc.get(t.their_level as usize).copied().flatten();
        let Some(their_wme) = their.and_then(|id| wm.get(id)) else {
            return false;
        };
        let left = wme.get(t.my_slot as usize);
        let right = their_wme.get(t.their_slot as usize);
        if !t.predicate.eval(&left, &right) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;
    use crate::value::Value;
    use crate::wme::Wme;

    /// Test fixture: program + store + rete, with WMEs added through both.
    struct Fix {
        rete: Rete,
        wm: WmStore,
        tag: u64,
        program: Program,
    }

    impl Fix {
        fn new(src: &str) -> Fix {
            Self::with_config(src, ReteConfig::default())
        }

        fn with_config(src: &str, config: ReteConfig) -> Fix {
            let program = Program::parse(src).unwrap();
            let compiled: Vec<CompiledProduction> = program
                .productions
                .iter()
                .enumerate()
                .map(|(i, p)| compile_production(i as u32, p).unwrap())
                .collect();
            let rete = Rete::from_compiled_with(&Arc::new(compiled), &program, config);
            Fix {
                rete,
                wm: WmStore::new(),
                tag: 0,
                program,
            }
        }

        fn add(&mut self, class: &str, fields: &[(usize, Value)]) -> WmeId {
            self.tag += 1;
            let n = self.program.n_slots(sym(class)).unwrap();
            let mut w = Wme::new(sym(class), n, self.tag);
            for &(i, v) in fields {
                w.set(i, v);
            }
            let id = self.wm.add(w);
            self.rete.add_wme(id, &self.wm);
            id
        }

        fn remove(&mut self, id: WmeId) {
            self.rete.remove_wme(id, &self.wm);
            self.wm.remove(id);
        }

        /// Net conflict-set size after applying all events.
        fn apply_events(&mut self, cs: &mut crate::conflict::ConflictSet) {
            for e in self.rete.drain_events() {
                match e {
                    MatchEvent::Insert(i) => cs.insert(i),
                    MatchEvent::Retract { production, wmes } => {
                        cs.remove(production, &wmes);
                    }
                }
            }
        }
    }

    const TWO_CE: &str = "
        (literalize a x)
        (literalize b y)
        (p join (a ^x <v>) (b ^y <v>) --> (halt))
    ";

    #[test]
    fn join_on_shared_variable() {
        let mut f = Fix::new(TWO_CE);
        let mut cs = crate::conflict::ConflictSet::new();
        f.add("a", &[(0, Value::Int(1))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 0);
        f.add("b", &[(0, Value::Int(1))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1);
        f.add("b", &[(0, Value::Int(2))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1, "non-matching b adds nothing");
        f.add("a", &[(0, Value::Int(2))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn removal_retracts_instantiations() {
        let mut f = Fix::new(TWO_CE);
        let mut cs = crate::conflict::ConflictSet::new();
        let a = f.add("a", &[(0, Value::Int(1))]);
        let _b = f.add("b", &[(0, Value::Int(1))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1);
        f.remove(a);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 0);
    }

    const NEGATED: &str = "
        (literalize goal status)
        (literalize blocker tag)
        (p fire-unless-blocked (goal ^status open) -(blocker) --> (halt))
    ";

    #[test]
    fn negation_blocks_and_unblocks() {
        let mut f = Fix::new(NEGATED);
        let mut cs = crate::conflict::ConflictSet::new();
        f.add("goal", &[(0, Value::symbol("open"))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1, "no blocker yet");

        let blk = f.add("blocker", &[]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 0, "blocker retracts the instantiation");

        f.remove(blk);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1, "removing the blocker re-satisfies");
    }

    #[test]
    fn negation_with_join_variable() {
        let src = "
            (literalize region id)
            (literalize fragment region)
            (p unclaimed (region ^id <r>) -(fragment ^region <r>) --> (halt))
        ";
        let mut f = Fix::new(src);
        let mut cs = crate::conflict::ConflictSet::new();
        f.add("region", &[(0, Value::Int(1))]);
        f.add("region", &[(0, Value::Int(2))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 2);

        let fr = f.add("fragment", &[(0, Value::Int(1))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1, "only region 1 is claimed");

        f.remove(fr);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn wme_matching_multiple_ces_of_same_production() {
        let src = "
            (literalize a x)
            (p pair (a ^x <v>) (a ^x <v>) --> (halt))
        ";
        let mut f = Fix::new(src);
        let mut cs = crate::conflict::ConflictSet::new();
        let w = f.add("a", &[(0, Value::Int(7))]);
        f.apply_events(&mut cs);
        // The single WME matches both CEs → one instantiation (w, w).
        assert_eq!(cs.len(), 1);
        f.remove(w);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 0);
    }

    #[test]
    fn predicate_join_tests() {
        let src = "
            (literalize a x)
            (literalize b y)
            (p bigger (a ^x <v>) (b ^y > <v>) --> (halt))
        ";
        let mut f = Fix::new(src);
        let mut cs = crate::conflict::ConflictSet::new();
        f.add("a", &[(0, Value::Int(10))]);
        f.add("b", &[(0, Value::Int(5))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 0);
        f.add("b", &[(0, Value::Int(15))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn alpha_memory_sharing_across_productions() {
        let src = "
            (literalize a x)
            (p p1 (a ^x 1) --> (halt))
            (p p2 (a ^x 1) --> (halt))
            (p p3 (a ^x 2) --> (halt))
        ";
        let f = Fix::new(src);
        // p1/p2 share one memory; p3 has its own.
        assert_eq!(f.rete.alpha_memories(), 2);
    }

    #[test]
    fn chunks_are_counted() {
        let mut f = Fix::new(TWO_CE);
        assert_eq!(f.rete.take_chunks(), 0);
        f.add("a", &[(0, Value::Int(1))]);
        assert!(f.rete.take_chunks() > 0);
        assert_eq!(f.rete.take_chunks(), 0, "take resets");
    }

    #[test]
    fn three_way_join_ordering_independent() {
        let src = "
            (literalize a x)
            (literalize b y)
            (literalize c z)
            (p tri (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))
        ";
        // Add in all 6 orders; always exactly one instantiation.
        let orders: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let mut f = Fix::new(src);
            let mut cs = crate::conflict::ConflictSet::new();
            for &which in &order {
                match which {
                    0 => f.add("a", &[(0, Value::Int(4))]),
                    1 => f.add("b", &[(0, Value::Int(4))]),
                    _ => f.add("c", &[(0, Value::Int(4))]),
                };
            }
            f.apply_events(&mut cs);
            assert_eq!(cs.len(), 1, "order {order:?}");
        }
    }

    // -- sharing & indexing ------------------------------------------------

    /// Three productions with a common 2-node prefix; p3 terminates *at*
    /// the shared prefix node.
    const SHARED_PREFIX: &str = "
        (literalize a x)
        (literalize b y)
        (literalize c z)
        (p p1 (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))
        (p p2 (a ^x <v>) (b ^y <v>) (c ^z > <v>) --> (halt))
        (p p3 (a ^x <v>) (b ^y <v>) --> (halt))
    ";

    #[test]
    fn prefix_sharing_builds_a_trie() {
        let shared = Fix::new(SHARED_PREFIX);
        // Chains are 3+3+2 = 8 specs; the trie folds the (a)(b) prefix:
        // [a], [b], [c =], [c >].
        assert_eq!(shared.rete.beta_nodes(), 4);
        assert_eq!(shared.rete.net_stats().unshared_beta_nodes, 8);

        let unshared = Fix::with_config(SHARED_PREFIX, ReteConfig::unshared());
        assert_eq!(unshared.rete.beta_nodes(), 8);
        assert_eq!(unshared.rete.net_stats().unshared_beta_nodes, 8);
    }

    #[test]
    fn terminal_at_shared_interior_node_fires() {
        let mut f = Fix::new(SHARED_PREFIX);
        let mut cs = crate::conflict::ConflictSet::new();
        f.add("a", &[(0, Value::Int(1))]);
        f.add("b", &[(0, Value::Int(1))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 1, "p3 satisfied at the interior node");
        f.add("c", &[(0, Value::Int(1))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 2, "p1 joins c = v");
        f.add("c", &[(0, Value::Int(5))]);
        f.apply_events(&mut cs);
        assert_eq!(cs.len(), 3, "p2 joins c > v");
    }

    #[test]
    fn shared_nodes_and_index_probes_are_counted() {
        // Two (a, b) token pairs put the c-join's left memory above
        // INDEX_MIN_POPULATION, so adding `c` probes the token index
        // instead of scanning.
        let mut f = Fix::new(SHARED_PREFIX);
        f.add("a", &[(0, Value::Int(1))]);
        f.add("b", &[(0, Value::Int(1))]);
        f.add("a", &[(0, Value::Int(2))]);
        f.add("b", &[(0, Value::Int(2))]);
        f.add("c", &[(0, Value::Int(1))]);
        let stats = f.rete.net_stats();
        assert!(stats.shared_node_hits > 0, "prefix nodes serve 3 prods");
        assert!(stats.index_probes > 0, "equality joins probe the index");

        let mut u = Fix::with_config(SHARED_PREFIX, ReteConfig::unshared());
        u.add("a", &[(0, Value::Int(1))]);
        u.add("b", &[(0, Value::Int(1))]);
        u.add("a", &[(0, Value::Int(2))]);
        u.add("b", &[(0, Value::Int(2))]);
        u.add("c", &[(0, Value::Int(1))]);
        let ustats = u.rete.net_stats();
        assert_eq!(ustats.shared_node_hits, 0);
        assert_eq!(ustats.index_probes, 0);
        assert!(ustats.linear_scans > 0);
        assert_eq!(ustats.shared_test_hits, 0);
    }

    /// Canonical form of one operation's event batch: order within a batch
    /// is unspecified (trie traversal vs per-chain traversal), so compare
    /// as sorted multisets. The engine's conflict resolution is
    /// insertion-order independent, so firing sequences are unaffected.
    fn canon(events: Vec<MatchEvent>) -> Vec<(u8, u32, Vec<WmeId>, Vec<u64>)> {
        let mut v: Vec<_> = events
            .into_iter()
            .map(|e| match e {
                MatchEvent::Insert(i) => (0, i.production, i.wmes.to_vec(), i.time_tags.to_vec()),
                MatchEvent::Retract { production, wmes } => {
                    (1, production, wmes.to_vec(), Vec::new())
                }
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn shared_and_unshared_agree_and_sharing_saves_work() {
        let src = "
            (literalize a x)
            (literalize b y)
            (literalize c z)
            (p p1 (a ^x <v>) (b ^y <v>) (c ^z <v>) --> (halt))
            (p p2 (a ^x <v>) (b ^y <v>) -(c ^z <v>) --> (halt))
            (p p3 (a ^x <v>) (b ^y <v>) --> (halt))
            (p p4 (a ^x <v>) (c ^z > <v>) --> (halt))
        ";
        let mut s = Fix::new(src);
        let mut u = Fix::with_config(src, ReteConfig::unshared());

        let mut s_ids = Vec::new();
        let mut u_ids = Vec::new();
        let script: &[(usize, i64)] = &[
            (0, 1),
            (1, 1),
            (2, 1),
            (0, 2),
            (2, 0),
            (1, 2),
            (0, 1),
            (2, 1),
        ];
        for &(class, v) in script {
            let name = ["a", "b", "c"][class];
            s_ids.push(s.add(name, &[(0, Value::Int(v))]));
            u_ids.push(u.add(name, &[(0, Value::Int(v))]));
            assert_eq!(
                canon(s.rete.drain_events()),
                canon(u.rete.drain_events()),
                "add {name} {v}"
            );
        }
        // Remove in an order that exercises unblocking and subtree deletion.
        for i in [2, 0, 5, 7, 1, 3, 4, 6] {
            s.remove(s_ids[i]);
            u.remove(u_ids[i]);
            assert_eq!(
                canon(s.rete.drain_events()),
                canon(u.rete.drain_events()),
                "remove #{i}"
            );
        }
        assert!(
            s.rete.work.match_units <= u.rete.work.match_units,
            "sharing+indexing may not cost more work ({} vs {})",
            s.rete.work.match_units,
            u.rete.work.match_units
        );
    }

    #[test]
    fn self_blocking_token_is_consistent() {
        // A WME that matches both the positive and the negated CE of the
        // same production: the token created during the add sees the WME in
        // its initial blocker scan, and the subsequent right activation of
        // the negative node must not double-register the blocker.
        let src = "
            (literalize a x)
            (p self (a ^x <v>) -(a ^x <v>) --> (halt))
        ";
        for config in [ReteConfig::shared(), ReteConfig::unshared()] {
            let mut f = Fix::with_config(src, config);
            let mut cs = crate::conflict::ConflictSet::new();
            let w1 = f.add("a", &[(0, Value::Int(1))]);
            let w2 = f.add("a", &[(0, Value::Int(1))]);
            f.apply_events(&mut cs);
            assert_eq!(cs.len(), 0, "every token blocked by its own WME");
            f.remove(w2);
            f.apply_events(&mut cs);
            assert_eq!(cs.len(), 0, "w1's token still blocked by w1");
            f.remove(w1);
            f.apply_events(&mut cs);
            assert_eq!(cs.len(), 0);
        }
    }
}
