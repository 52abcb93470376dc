//! Property-based differential tests: the incremental Rete must agree with
//! the naive full re-match after any sequence of WM additions and removals,
//! and the full engine must behave identically on both backends.

use ops5::conflict::ConflictSet;
use ops5::naive::{canonical, match_all};
use ops5::rete::{MatchEvent, Rete, ReteConfig};
use ops5::wme::{WmStore, Wme};
use ops5::{sym, Engine, Program, Value, WmeId};
use proptest::prelude::*;
use std::sync::Arc;

/// Programs exercising joins, predicates, disjunctions, intra-element
/// consistency, and negation.
const PROGRAMS: &[&str] = &[
    // 1: simple two-way join
    "(literalize a x y)
     (literalize b x y)
     (p j (a ^x <v>) (b ^x <v>) --> (halt))",
    // 2: three-way join with predicate test
    "(literalize a x y)
     (literalize b x y)
     (literalize c x y)
     (p t (a ^x <v>) (b ^x <v> ^y > <v>) (c ^y <> <v>) --> (halt))",
    // 3: negation with join variable
    "(literalize a x y)
     (literalize b x y)
     (p n (a ^x <v>) -(b ^x <v>) --> (halt))",
    // 4: two negations and an intra-element test
    "(literalize a x y)
     (literalize b x y)
     (literalize c x y)
     (p m (a ^x <v> ^y <v>) -(b ^y <v>) -(c ^x <v>) --> (halt))",
    // 5: disjunction and same-type test
    "(literalize a x y)
     (literalize b x y)
     (p d (a ^x << 1 2 water >>) (b ^y <=> 0) --> (halt))",
    // 6: negation sandwiched between positives
    "(literalize a x y)
     (literalize b x y)
     (literalize c x y)
     (p s (a ^x <v>) -(b ^x <v> ^y > 1) (c ^y <v>) --> (halt))",
];

/// A WM mutation.
#[derive(Clone, Debug)]
enum Op {
    Add { class: u8, x: i8, y: i8 },
    Remove(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..3, -2i8..3, -2i8..3).prop_map(|(class, x, y)| Op::Add { class, x, y }),
        1 => (0u8..64).prop_map(Op::Remove),
    ]
}

/// Applies events to a conflict set.
fn apply(cs: &mut ConflictSet, events: Vec<MatchEvent>) {
    for e in events {
        match e {
            MatchEvent::Insert(i) => cs.insert(i),
            MatchEvent::Retract { production, wmes } => {
                cs.remove(production, &wmes);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rete_equals_naive_rematch(
        prog_idx in 0usize..PROGRAMS.len(),
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let program = Program::parse(PROGRAMS[prog_idx]).unwrap();
        let compiled = Engine::compile(&program).unwrap();
        let mut rete = Rete::new(&program).unwrap();
        let mut wm = WmStore::new();
        let mut cs = ConflictSet::new();
        let mut live: Vec<WmeId> = Vec::new();
        let mut tag = 0u64;
        let classes = [sym("a"), sym("b"), sym("c")];

        for op in ops {
            match op {
                Op::Add { class, x, y } => {
                    tag += 1;
                    let cls = classes[class as usize % 3];
                    if program.class(cls).is_none() { continue; }
                    let mut w = Wme::new(cls, 2, tag);
                    // Mix types: negative x becomes a symbol to exercise
                    // symbol/number comparisons.
                    w.set(0, if x < 0 { Value::symbol("water") } else { Value::Int(x as i64) });
                    w.set(1, Value::Int(y as i64));
                    let id = wm.add(w);
                    live.push(id);
                    rete.add_wme(id, &wm);
                }
                Op::Remove(k) => {
                    if live.is_empty() { continue; }
                    let id = live.swap_remove(k as usize % live.len());
                    rete.remove_wme(id, &wm);
                    wm.remove(id);
                }
            }
            apply(&mut cs, rete.drain_events());
            let mut work = 0;
            let expected = match_all(&program, &compiled, &wm, &mut work);
            let got: Vec<_> = cs.iter().cloned().collect();
            prop_assert_eq!(canonical(&got), canonical(&expected));
        }
    }

    #[test]
    fn naive_backend_engine_equals_rete_engine(
        seeds in prop::collection::vec((0u8..3, 0i8..4), 1..12),
    ) {
        // A program that fires, modifies, and removes — both backends must
        // produce identical firing sequences and final WM.
        let src = "
            (literalize item kind count)
            (literalize done kind)
            (p consume (item ^kind <k> ^count { <n> > 0 })
               -->
               (modify 1 ^count (compute <n> - 1)))
            (p finish (item ^kind <k> ^count 0) -(done ^kind <k>)
               -->
               (make done ^kind <k>)
               (remove 1))
        ";
        let program = Arc::new(Program::parse(src).unwrap());
        let mut fast = Engine::new(Arc::clone(&program));
        let mut slow = Engine::new_naive(Arc::clone(&program));
        for &(k, n) in &seeds {
            let kind = Value::symbol(&format!("k{k}"));
            fast.make_wme("item", &[("kind", kind), ("count", (n as i64).into())]).unwrap();
            slow.make_wme("item", &[("kind", kind), ("count", (n as i64).into())]).unwrap();
        }
        let fo = fast.run(10_000);
        let so = slow.run(10_000);
        prop_assert_eq!(fo.firings, so.firings);
        prop_assert!(fo.quiescent() && so.quiescent());

        let mut fwm: Vec<String> = fast.wm().iter().map(|(_, w)| w.to_string()).collect();
        let mut swm: Vec<String> = slow.wm().iter().map(|(_, w)| w.to_string()).collect();
        fwm.sort();
        swm.sort();
        prop_assert_eq!(fwm, swm);
    }

    #[test]
    fn engine_is_deterministic(
        seeds in prop::collection::vec((0u8..4, 0i8..5), 1..10),
    ) {
        let src = "
            (literalize n v)
            (literalize sum v)
            (p fold (n ^v <a>) (sum ^v <s>)
               -->
               (modify 2 ^v (compute <s> + <a>))
               (remove 1))
        ";
        let program = Arc::new(Program::parse(src).unwrap());
        let run = || {
            let mut e = Engine::new(Arc::clone(&program));
            e.make_wme("sum", &[("v", 0.into())]).unwrap();
            for &(_, n) in &seeds {
                e.make_wme("n", &[("v", (n as i64).into())]).unwrap();
            }
            let out = e.run(10_000);
            let mut wm: Vec<String> = e.wm().iter().map(|(_, w)| w.to_string()).collect();
            wm.sort();
            (out.firings, wm, e.work())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
        // The fold must actually sum all items.
        prop_assert_eq!(a.0 as usize, seeds.len());
    }
}

/// Multi-production programs whose condition chains overlap — the shared
/// network folds the common prefixes, so these exercise trie terminals at
/// interior nodes, shared join work, and per-production divergence.
const SHARING_PROGRAMS: &[&str] = &[
    // 1: three productions over one (a)(b) prefix, diverging on c
    "(literalize a x y)
     (literalize b x y)
     (literalize c x y)
     (p p1 (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))
     (p p2 (a ^x <v>) (b ^x <v>) (c ^x > <v>) --> (halt))
     (p p3 (a ^x <v>) (b ^x <v>) --> (halt))",
    // 2: shared prefix with a negation split
    "(literalize a x y)
     (literalize b x y)
     (literalize c x y)
     (p n1 (a ^x <v>) -(b ^x <v>) --> (halt))
     (p n2 (a ^x <v>) -(b ^x <v>) (c ^y <v>) --> (halt))
     (p n3 (a ^x <v>) (b ^x <v>) --> (halt))",
    // 3: identical chains (full sharing) plus an unrelated production
    "(literalize a x y)
     (literalize b x y)
     (p t1 (a ^x <v> ^y <w>) (b ^x <w>) --> (halt))
     (p t2 (a ^x <v> ^y <w>) (b ^x <w>) --> (halt))
     (p t3 (b ^y < 2) --> (halt))",
];

/// Canonical multiset form of one operation's event batch. Order *within*
/// a batch is unspecified between the shared (trie traversal) and unshared
/// (per-chain traversal) networks, so batches compare as sorted multisets;
/// the conflict set's resolution order is insertion-order independent, so
/// firing behaviour is unaffected (the engine property below proves it).
fn canon_events(events: &[MatchEvent]) -> Vec<(u8, u32, Vec<WmeId>, Vec<u64>)> {
    let mut v: Vec<_> = events
        .iter()
        .map(|e| match e {
            MatchEvent::Insert(i) => (0u8, i.production, i.wmes.to_vec(), i.time_tags.to_vec()),
            MatchEvent::Retract { production, wmes } => {
                (1u8, *production, wmes.to_vec(), Vec::new())
            }
        })
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole's differential guarantee: the shared + indexed network
    /// and the historical one-chain-per-production network produce the same
    /// match — identical event multisets after every single WM operation —
    /// while the shared network does no more work than the unshared one
    /// (modulo the bounded probe overhead: a hash probe whose bucket turns
    /// out to be the entire population saves nothing over the scan it
    /// replaced yet still costs `INDEX_PROBE`).
    #[test]
    fn shared_and_unshared_networks_agree(
        prog_idx in 0usize..(PROGRAMS.len() + SHARING_PROGRAMS.len()),
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let src = if prog_idx < PROGRAMS.len() {
            PROGRAMS[prog_idx]
        } else {
            SHARING_PROGRAMS[prog_idx - PROGRAMS.len()]
        };
        let program = Program::parse(src).unwrap();
        let compiled = Engine::compile(&program).unwrap();
        let mut shared = Rete::from_compiled_with(&compiled, &program, ReteConfig::shared());
        let mut unshared = Rete::from_compiled_with(&compiled, &program, ReteConfig::unshared());
        let mut wm = WmStore::new();
        let mut live: Vec<WmeId> = Vec::new();
        let mut tag = 0u64;
        let classes = [sym("a"), sym("b"), sym("c")];

        for op in ops {
            match op {
                Op::Add { class, x, y } => {
                    tag += 1;
                    let cls = classes[class as usize % 3];
                    if program.class(cls).is_none() { continue; }
                    let mut w = Wme::new(cls, 2, tag);
                    w.set(0, if x < 0 { Value::symbol("water") } else { Value::Int(x as i64) });
                    w.set(1, Value::Int(y as i64));
                    let id = wm.add(w);
                    live.push(id);
                    shared.add_wme(id, &wm);
                    unshared.add_wme(id, &wm);
                }
                Op::Remove(k) => {
                    if live.is_empty() { continue; }
                    let id = live.swap_remove(k as usize % live.len());
                    shared.remove_wme(id, &wm);
                    unshared.remove_wme(id, &wm);
                    wm.remove(id);
                }
            }
            prop_assert_eq!(
                canon_events(&shared.drain_events()),
                canon_events(&unshared.drain_events())
            );
        }
        let slack = ops5::instrument::cost::INDEX_PROBE * shared.net_stats().index_probes;
        prop_assert!(
            shared.work.match_units <= unshared.work.match_units + slack,
            "shared {} > unshared {} + probe slack {}",
            shared.work.match_units, unshared.work.match_units, slack
        );
    }

    /// Full-engine differential: identical firing sequences (which
    /// production fired at every cycle), identical final WM, and identical
    /// serial-side work under both LEX and MEA, whichever network runs the
    /// match. Only `match_units` may differ — and only downward (plus the
    /// bounded probe slack).
    #[test]
    fn shared_and_unshared_engines_fire_identically(
        prog_idx in 0usize..SHARING_PROGRAMS.len(),
        strategy_mea in (0u8..2).prop_map(|b| b == 1),
        seeds in prop::collection::vec((0u8..3, 0i8..4, 0i8..4), 1..10),
    ) {
        let src = SHARING_PROGRAMS[prog_idx].replace("(halt)", "(remove 1)");
        let program = Arc::new(Program::parse(&src).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let strategy = if strategy_mea { ops5::Strategy::Mea } else { ops5::Strategy::Lex };
        let classes = ["a", "b", "c"];
        let run = |config: ReteConfig| {
            let mut e = Engine::with_compiled_config(
                Arc::clone(&program), Arc::clone(&compiled), config);
            e.set_strategy(strategy);
            e.enable_cycle_log();
            for &(c, x, y) in &seeds {
                let cls = classes[c as usize % 3];
                if program.class(sym(cls)).is_none() { continue; }
                e.make_wme(
                    cls,
                    &[("x", (x as i64).into()), ("y", (y as i64).into())],
                ).unwrap();
            }
            let out = e.run(10_000);
            let firing_seq: Vec<u32> = e.take_cycle_log().iter().map(|c| c.production).collect();
            let mut wm: Vec<String> = e.wm().iter().map(|(_, w)| w.to_string()).collect();
            wm.sort();
            (out.firings, firing_seq, wm, e.work(), e.net_stats())
        };
        let s = run(ReteConfig::shared());
        let u = run(ReteConfig::unshared());
        prop_assert_eq!(s.0, u.0, "firing counts diverge");
        prop_assert_eq!(&s.1, &u.1, "firing sequences diverge under {:?}", strategy);
        prop_assert_eq!(&s.2, &u.2, "final WM diverges");
        prop_assert_eq!(s.3.resolve_units, u.3.resolve_units);
        prop_assert_eq!(s.3.act_units, u.3.act_units);
        prop_assert_eq!(s.3.external_units, u.3.external_units);
        let slack = ops5::instrument::cost::INDEX_PROBE * s.4.index_probes;
        prop_assert!(s.3.match_units <= u.3.match_units + slack);
    }
}

/// Non-halting programs (they run to quiescence) for the crash-recovery
/// differential below: firing work, modifies, removes, makes, negation.
const RECOVERY_PROGRAMS: &[&str] = &[
    "(literalize item kind count)
     (literalize done kind)
     (p consume (item ^kind <k> ^count { <n> > 0 })
        -->
        (modify 1 ^count (compute <n> - 1)))
     (p finish (item ^kind <k> ^count 0) -(done ^kind <k>)
        -->
        (make done ^kind <k>)
        (remove 1))",
    "(literalize item kind count)
     (literalize sum v)
     (p fold (item ^kind <k> ^count <a>) (sum ^v <s>)
        -->
        (modify 2 ^v (compute <s> + <a>))
        (remove 1))",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The crash-recovery differential: for any seed working memory and any
    /// crash point, (initial-load WAL → snapshot at cycle k → crash →
    /// restore + continue) produces *exactly* the uninterrupted run — same
    /// firing sequence, same final WM (time tags included), same work
    /// counters, same output — and the restored engine's re-snapshot is
    /// byte-identical. Recovery with no checkpoint (WAL replay from the
    /// cycle-0 records alone) must reach the same end state too.
    #[test]
    fn snapshot_restore_replay_equals_uninterrupted_run(
        prog_idx in 0usize..RECOVERY_PROGRAMS.len(),
        seeds in prop::collection::vec((0u8..3, 0i8..4), 1..10),
        crash_at in 0u64..24,
    ) {
        use ops5::snapshot::{apply_record, Wal, WalOp, WalRecord};

        let program = Arc::new(Program::parse(RECOVERY_PROGRAMS[prog_idx]).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let needs_sum = prog_idx == 1;
        let seed_engine = |e: &mut Engine, wal: Option<&mut Wal>| {
            e.enable_cycle_log();
            let mut recs = Vec::new();
            if needs_sum {
                e.make_wme("sum", &[("v", 0.into())]).unwrap();
                recs.push((sym("sum"), vec![Value::Int(0)]));
            }
            for &(k, n) in &seeds {
                let kind = Value::symbol(&format!("k{k}"));
                e.make_wme("item", &[("kind", kind), ("count", (n as i64).into())]).unwrap();
                recs.push((sym("item"), vec![kind, Value::Int(n as i64)]));
            }
            if let Some(wal) = wal {
                for (class, fields) in recs {
                    wal.append(&WalRecord { cycle: 0, op: WalOp::Assert { class, fields } });
                }
            }
        };
        let finish = |mut e: Engine| {
            let out = e.run(10_000);
            prop_assert!(out.quiescent());
            let seq: Vec<u32> = e.take_cycle_log().iter().map(|c| c.production).collect();
            let wm: Vec<(WmeId, String)> =
                e.wm().iter().map(|(id, w)| (id, format!("{w} @{}", w.time_tag))).collect();
            Ok((seq, wm, e.work(), e.output.clone()))
        };

        // Reference: never interrupted.
        let mut a = Engine::with_compiled(Arc::clone(&program), Arc::clone(&compiled));
        seed_engine(&mut a, None);
        let (ref_seq, ref_wm, ref_work, ref_out) = finish(a)?;

        // Interrupted: initial load goes to a WAL, `crash_at` cycles run,
        // a snapshot is taken, then the engine is dropped on the floor.
        let mut wal = Wal::new();
        let mut b = Engine::with_compiled(Arc::clone(&program), Arc::clone(&compiled));
        seed_engine(&mut b, Some(&mut wal));
        let mut pre_seq: Vec<u32> = Vec::new();
        for _ in 0..crash_at {
            // Stop *before* a quiescent step: stepping an empty conflict
            // set charges an extra resolve check that the uninterrupted
            // run only pays once, inside its own final `run` call.
            if b.conflict_len() == 0 {
                break;
            }
            match b.step().unwrap() {
                Some(production) => pre_seq.push(production),
                None => break,
            }
        }
        b.take_cycle_log();
        let snap = b.snapshot();
        drop(b);

        // Recover from checkpoint: restore, re-snapshot byte-identity,
        // continue to quiescence. (Records with cycle > checkpoint would
        // replay here; the initial load is cycle 0, so none apply.)
        let mut c = Engine::restore(
            Arc::clone(&program), Arc::clone(&compiled), ReteConfig::default(), &snap).unwrap();
        prop_assert_eq!(c.snapshot(), snap, "re-snapshot must be byte-identical");
        c.enable_cycle_log();
        let (post_seq, c_wm, c_work, c_out) = finish(c)?;
        let mut full_seq = pre_seq;
        full_seq.extend(post_seq);
        prop_assert_eq!(&full_seq, &ref_seq, "firing sequence diverged after restore");
        prop_assert_eq!(&c_wm, &ref_wm, "final WM diverged after restore");
        prop_assert_eq!(c_work, ref_work, "work counters diverged after restore");
        prop_assert_eq!(&c_out, &ref_out, "output diverged after restore");

        // Recover with no checkpoint at all: round-trip the WAL through its
        // framed byte format and rebuild from the cycle-0 records alone.
        let replay = ops5::snapshot::Wal::replay(wal.as_bytes()).unwrap();
        prop_assert!(!replay.torn());
        let mut d = Engine::with_compiled(Arc::clone(&program), Arc::clone(&compiled));
        d.enable_cycle_log();
        for rec in &replay.records {
            apply_record(&mut d, rec);
        }
        let (d_seq, d_wm, _, d_out) = finish(d)?;
        prop_assert_eq!(&d_seq, &ref_seq, "firing sequence diverged after WAL rebuild");
        prop_assert_eq!(&d_wm, &ref_wm, "final WM diverged after WAL rebuild");
        prop_assert_eq!(&d_out, &ref_out, "output diverged after WAL rebuild");
    }
}

/// Chains deeper than the Rete's inline ancestry buffer (eight levels), so
/// every activation below level 7 takes the heap spill path: `deep` has 11
/// condition elements with negations at levels 4 and 8, and `sibling`
/// shares its first eight nodes, ending in a negation at level 9.
const DEEP_PROGRAM: &str = "
    (literalize a x y)
    (literalize b x y)
    (literalize c x y)
    (p deep
       (a ^x <v> ^y <w>) (b ^x <v>) (c ^y <w>) (a ^x <v> ^y <w>)
       -(b ^x <v> ^y 2)
       (b ^x <v> ^y <w>) (c ^x <v>) (a ^y <w>)
       -(c ^x <v> ^y 2)
       (b ^y <w>) (c ^x <v> ^y <w>)
       -->
       (halt))
    (p sibling
       (a ^x <v> ^y <w>) (b ^x <v>) (c ^y <w>) (a ^x <v> ^y <w>)
       -(b ^x <v> ^y 2)
       (b ^x <v> ^y <w>) (c ^x <v>) (a ^y <w>)
       (b ^y <> <w>) -(a ^x <> <v> ^y <w>)
       -->
       (halt))
";

/// The shared and unshared networks of [`DEEP_PROGRAM`] over one store,
/// fed the same WME changes.
struct DeepFix {
    program: Program,
    compiled: Arc<Vec<ops5::rete::CompiledProduction>>,
    shared: Rete,
    unshared: Rete,
    wm: WmStore,
    tag: u64,
}

impl DeepFix {
    fn new() -> DeepFix {
        let program = Program::parse(DEEP_PROGRAM).unwrap();
        let compiled = Engine::compile(&program).unwrap();
        let shared = Rete::from_compiled_with(&compiled, &program, ReteConfig::shared());
        let unshared = Rete::from_compiled_with(&compiled, &program, ReteConfig::unshared());
        DeepFix {
            program,
            compiled,
            shared,
            unshared,
            wm: WmStore::new(),
            tag: 0,
        }
    }

    fn add(&mut self, class: u8, x: i64, y: i64) -> WmeId {
        self.tag += 1;
        let mut w = Wme::new(sym(["a", "b", "c"][class as usize % 3]), 2, self.tag);
        w.set(0, Value::Int(x));
        w.set(1, Value::Int(y));
        let id = self.wm.add(w);
        self.shared.add_wme(id, &self.wm);
        self.unshared.add_wme(id, &self.wm);
        id
    }

    fn remove(&mut self, id: WmeId) {
        self.shared.remove_wme(id, &self.wm);
        self.unshared.remove_wme(id, &self.wm);
        self.wm.remove(id);
    }

    /// Applies both networks' pending events to their conflict sets,
    /// checking the batches agree and the shared result equals a naive
    /// re-match of the store.
    fn sync(
        &mut self,
        shared_cs: &mut ConflictSet,
        unshared_cs: &mut ConflictSet,
    ) -> Result<(), TestCaseError> {
        let (s, u) = (self.shared.drain_events(), self.unshared.drain_events());
        prop_assert_eq!(canon_events(&s), canon_events(&u));
        apply(shared_cs, s);
        apply(unshared_cs, u);
        let mut work = 0;
        let expected = canonical(&match_all(
            &self.program,
            &self.compiled,
            &self.wm,
            &mut work,
        ));
        let got: Vec<_> = shared_cs.iter().cloned().collect();
        prop_assert_eq!(canonical(&got), expected);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Deep chains: after every WM change the shared network's conflict
    /// set equals a naive re-match, and its events equal the unshared
    /// network's.
    #[test]
    fn deep_chains_match_naive_and_unshared(
        ops in prop::collection::vec(
            prop_oneof![
                3 => (0u8..3, 0i64..2, 0i64..3).prop_map(|(c, x, y)| Op::Add { class: c, x: x as i8, y: y as i8 }),
                1 => (0u8..64).prop_map(Op::Remove),
            ],
            1..30,
        ),
    ) {
        let mut f = DeepFix::new();
        let (mut scs, mut ucs) = (ConflictSet::new(), ConflictSet::new());
        let mut live = Vec::new();
        for op in ops {
            match op {
                Op::Add { class, x, y } => live.push(f.add(class, x.into(), y.into())),
                Op::Remove(k) => {
                    if live.is_empty() { continue; }
                    let id = live.swap_remove(k as usize % live.len());
                    f.remove(id);
                }
            }
            f.sync(&mut scs, &mut ucs)?;
        }
    }
}

/// A working memory that satisfies the 11-element `deep` chain and the
/// 10-element `sibling`, then a blocker at level 8 and its removal: the
/// spilled ancestry must carry the bindings the deep negation joins on.
#[test]
fn deep_chain_spills_and_blocks_at_depth() {
    // Instantiations per production: (deep, sibling).
    let per_prod = |cs: &ConflictSet| {
        let deep = cs.iter().filter(|i| i.production == 0).count();
        (deep, cs.len() - deep)
    };
    let run = || -> Result<(), TestCaseError> {
        let mut f = DeepFix::new();
        let (mut scs, mut ucs) = (ConflictSet::new(), ConflictSet::new());
        for class in 0..3 {
            f.add(class, 0, 0);
        }
        f.sync(&mut scs, &mut ucs)?;
        prop_assert_eq!(per_prod(&scs), (1, 0), "one WME per class satisfies deep");
        f.add(1, 5, 1);
        f.sync(&mut scs, &mut ucs)?;
        prop_assert_eq!(
            per_prod(&scs),
            (1, 1),
            "sibling joins b ^y 1 <> 0 at level 8"
        );
        // c(0 2) blocks deep at level 8, and gives sibling a second match
        // for its (c ^x <v>) at level 6.
        let blocker = f.add(2, 0, 2);
        f.sync(&mut scs, &mut ucs)?;
        prop_assert_eq!(per_prod(&scs), (0, 2));
        f.remove(blocker);
        f.sync(&mut scs, &mut ucs)?;
        prop_assert_eq!(
            per_prod(&scs),
            (1, 1),
            "removing the blocker re-satisfies deep"
        );
        prop_assert_eq!(per_prod(&ucs), (1, 1));
        Ok(())
    };
    run().unwrap();
}

/// At realistic working-memory sizes the incremental Rete does far less
/// match work than naive re-matching — the substance of the paper's 10–20×
/// "port to C + ParaOPS5" baseline speed-up (§6).
#[test]
fn rete_beats_naive_at_scale() {
    let src = "
        (literalize item kind count)
        (literalize done kind)
        (p consume (item ^kind <k> ^count { <n> > 0 })
           -->
           (modify 1 ^count (compute <n> - 1)))
        (p finish (item ^kind <k> ^count 0) -(done ^kind <k>)
           -->
           (make done ^kind <k>)
           (remove 1))
    ";
    let program = Arc::new(Program::parse(src).unwrap());
    let mut fast = Engine::new(Arc::clone(&program));
    let mut slow = Engine::new_naive(Arc::clone(&program));
    for e in [&mut fast, &mut slow] {
        for i in 0..60 {
            let kind = Value::symbol(&format!("k{i}"));
            e.make_wme("item", &[("kind", kind), ("count", 8.into())])
                .unwrap();
        }
    }
    let fo = fast.run(100_000);
    let so = slow.run(100_000);
    assert_eq!(fo.firings, so.firings);
    let ratio = slow.work().match_units as f64 / fast.work().match_units as f64;
    assert!(
        ratio > 5.0,
        "expected a large Rete advantage at scale, got {ratio:.2}x"
    );
}

/// A program for the reset oracle: indexed equality joins, negation,
/// `modify`/`remove`, `genatom`, `write` and a stateful external counter,
/// so every piece of state [`Engine::reset`] must clear is exercised.
const RESET_PROGRAM: &str = "
    (literalize item kind count)
    (literalize sum v)
    (literalize tag id name of)
    (p fold (item ^kind <k> ^count <a>) (sum ^v <s>)
       -->
       (modify 2 ^v (compute <s> + <a>))
       (remove 1))
    (p label (sum ^v { <v> > 3 }) -(tag ^of <v>)
       -->
       (bind <g>)
       (make tag ^id (call next-id) ^name <g> ^of <v>)
       (write tagged <v> (crlf)))
    (p twin (item ^kind <k> ^count <a>) (item ^kind <k> ^count { <b> > <a> })
            -(tag ^of <k>)
       -->
       (make tag ^id (call next-id) ^name <k> ^of <k>))
";

/// One step of an engine history.
#[derive(Clone, Debug)]
enum HistOp {
    Item(u8, i8),
    Sum(i8),
    Remove(u8),
    Run(u8),
}

fn hist_strategy() -> impl Strategy<Value = HistOp> {
    prop_oneof![
        4 => (0u8..3, 0i8..4).prop_map(|(k, n)| HistOp::Item(k, n)),
        1 => (0i8..3).prop_map(HistOp::Sum),
        2 => (0u8..32).prop_map(HistOp::Remove),
        2 => (0u8..6).prop_map(HistOp::Run),
    ]
}

/// An engine for [`RESET_PROGRAM`] with its `next-id` external wired to a
/// registered counter, as task engines wire theirs.
fn reset_engine(
    program: &Arc<Program>,
    compiled: &Arc<Vec<ops5::rete::compile::CompiledProduction>>,
) -> Engine {
    let mut e = Engine::with_compiled(Arc::clone(program), Arc::clone(compiled));
    let c = e.external_counter("next-id", 100);
    e.register_external(
        "next-id",
        Arc::new(move |_, eff| {
            eff.cost = 7;
            Some(Value::Int(
                c.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            ))
        }),
    );
    e
}

fn apply_history(e: &mut Engine, ops: &[HistOp]) {
    for op in ops {
        match *op {
            HistOp::Item(k, n) => {
                let kind = Value::symbol(&format!("k{k}"));
                e.make_wme("item", &[("kind", kind), ("count", (n as i64).into())])
                    .unwrap();
            }
            HistOp::Sum(v) => {
                e.make_wme("sum", &[("v", (v as i64).into())]).unwrap();
            }
            HistOp::Remove(i) => {
                let ids: Vec<WmeId> = e.wm().iter().map(|(id, _)| id).collect();
                if !ids.is_empty() {
                    e.remove_wme_id(ids[i as usize % ids.len()]);
                }
            }
            HistOp::Run(n) => {
                e.run(n as u64);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reset oracle: after any make/remove/run history, a reset engine
    /// is indistinguishable from a freshly built one — equal snapshot
    /// bytes and network statistics — and continuing both with the same
    /// input gives identical firings, work, working memory (ids and time
    /// tags included), output and final snapshot.
    #[test]
    fn reset_engine_equals_fresh_engine(
        history in prop::collection::vec(hist_strategy(), 0..30),
        cont in prop::collection::vec(hist_strategy(), 0..20),
        observe in (0u8..2).prop_map(|b| b == 1),
    ) {
        let program = Arc::new(Program::parse(RESET_PROGRAM).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let mut reused = reset_engine(&program, &compiled);
        if observe {
            reused.enable_cycle_log();
            reused.enable_profile();
        }
        apply_history(&mut reused, &history);
        reused.reset().unwrap();
        let mut fresh = reset_engine(&program, &compiled);
        prop_assert_eq!(reused.snapshot(), fresh.snapshot(), "reset snapshot differs");
        prop_assert_eq!(reused.net_stats(), fresh.net_stats());

        let finish = |e: &mut Engine| {
            e.enable_cycle_log();
            apply_history(e, &cont);
            let out = e.run(10_000);
            let seq: Vec<u32> = e.take_cycle_log().iter().map(|c| c.production).collect();
            let wm: Vec<(WmeId, String)> =
                e.wm().iter().map(|(id, w)| (id, format!("{w} @{}", w.time_tag))).collect();
            (out, seq, wm, e.work(), e.output.clone(), e.net_stats(), e.snapshot())
        };
        let a = finish(&mut reused);
        let b = finish(&mut fresh);
        prop_assert!(a.0.quiescent());
        prop_assert_eq!(a, b);
    }
}

/// A backend that cannot reset refuses loudly instead of leaving a
/// half-cleared engine behind.
#[test]
fn reset_fails_on_a_backend_without_reset() {
    let program = Arc::new(Program::parse(RESET_PROGRAM).unwrap());
    let mut e = Engine::new_naive(program);
    let err = e.reset().unwrap_err();
    assert!(err.to_string().contains("cannot be reset"), "{err}");
}
