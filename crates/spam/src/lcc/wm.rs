//! The LCC phase's working memory, encoded once per phase: the class and
//! slot layout resolved against the program, every fragment and constraint
//! record as a ready slot vector, and each fragment's memoised spatial
//! neighbourhood. Task engines receive their share through
//! [`ops5::Engine::insert_fields`], so neither loading nor harvesting a
//! task takes the symbol interner's lock.

use super::{neighbourhood, ConsistentRec, LccUnit, LccUnitResult};
use crate::constraints::{Relation, CONSTRAINTS};
use crate::fragments::{FragmentHypothesis, FragmentKind, ALL_KINDS};
use crate::scene::Scene;
use ops5::{Engine, Program, Symbol, Value};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// A working-memory class with the slots of the attributes the task path
/// writes or reads, in the order they were named.
struct Class<const N: usize> {
    sym: Symbol,
    n_slots: usize,
    slots: [usize; N],
}

impl<const N: usize> Class<N> {
    fn resolve(program: &Program, class: &str, attrs: [&str; N]) -> Self {
        let sym = ops5::sym(class);
        let n_slots = program
            .n_slots(sym)
            .unwrap_or_else(|| panic!("the SPAM program declares no class '{class}'"));
        let slots = attrs.map(|a| {
            program
                .slot_of(sym, ops5::sym(a))
                .unwrap_or_else(|| panic!("class '{class}' has no attribute '{a}'"))
                as usize
        });
        Class {
            sym,
            n_slots,
            slots,
        }
    }

    /// A WME slot vector holding `values` at the named attributes and nil
    /// elsewhere (what [`ops5::Engine::make_wme`] builds from names).
    fn fields(&self, values: [Value; N]) -> Vec<Value> {
        let mut f = vec![Value::Nil; self.n_slots];
        for (&s, v) in self.slots.iter().zip(values) {
            f[s] = v;
        }
        f
    }
}

/// The classes, slots and symbols of the LCC working memory, resolved
/// once against the program so that loading and harvesting a task never
/// take the interner lock.
struct Layout {
    control: Class<2>,
    fragment: Class<6>,
    near: Class<3>,
    constraint: Class<6>,
    task: Class<4>,
    check: Class<5>,
    pair: Class<5>,
    /// The status every task element starts in.
    pending: Value,
    /// Each kind's symbol, indexed by `FragmentKind as usize`.
    kinds: Vec<Value>,
    harvest: Harvest,
}

impl Layout {
    fn new(p: &Program) -> Layout {
        Layout {
            control: Class::resolve(p, "control", ["phase", "status"]),
            fragment: Class::resolve(
                p,
                "fragment",
                ["id", "region", "kind", "conf", "support", "status"],
            ),
            near: Class::resolve(p, "near", ["a", "b", "kind"]),
            constraint: Class::resolve(
                p,
                "constraint",
                ["id", "subject", "object", "rel", "param", "weight"],
            ),
            task: Class::resolve(p, "lcc-task", ["id", "frag", "kind", "status"]),
            check: Class::resolve(
                p,
                "lcc-check",
                ["id", "task", "frag", "constraint", "status"],
            ),
            pair: Class::resolve(
                p,
                "lcc-pair",
                ["check", "frag", "other", "constraint", "status"],
            ),
            pending: Value::symbol("pending"),
            kinds: {
                let mut kinds = vec![Value::Nil; ALL_KINDS.len()];
                for k in ALL_KINDS {
                    kinds[k as usize] = k.value();
                }
                kinds
            },
            harvest: Harvest::new(p),
        }
    }

    fn kind(&self, k: FragmentKind) -> Value {
        self.kinds[k as usize]
    }
}

/// The classes, slots and relation symbols a finished task's results are
/// read through.
pub(super) struct Harvest {
    consistent: Class<4>,
    fragment: Class<2>,
    relations: Vec<(Symbol, Relation)>,
}

impl Harvest {
    pub(super) fn new(p: &Program) -> Harvest {
        Harvest {
            consistent: Class::resolve(p, "consistent", ["a", "b", "rel", "weight"]),
            fragment: Class::resolve(p, "fragment", ["id", "support"]),
            relations: Relation::ALL
                .iter()
                .map(|&r| (ops5::sym(r.name()), r))
                .collect(),
        }
    }

    fn relation_value(&self, r: Relation) -> Value {
        let (s, _) = self
            .relations
            .iter()
            .find(|&&(_, x)| x == r)
            .expect("every relation");
        Value::Sym(*s)
    }

    /// Harvests one finished task (see [`super::harvest_lcc_unit`]).
    pub(super) fn harvest(&self, e: &mut Engine, firings: u64) -> LccUnitResult {
        let [ca, cb, crel, cw] = self.consistent.slots;
        let relation = |s: Symbol| {
            self.relations
                .iter()
                .find(|&&(r, _)| r == s)
                .map(|&(_, r)| r)
        };
        let consistents: Vec<ConsistentRec> = e
            .wm()
            .iter()
            .filter(|(_, w)| w.class == self.consistent.sym)
            .map(|(_, w)| ConsistentRec {
                a: w.get(ca).as_int().unwrap_or(0) as u32,
                b: w.get(cb).as_int().unwrap_or(0) as u32,
                rel: w
                    .get(crel)
                    .as_sym()
                    .and_then(relation)
                    .unwrap_or(Relation::Near),
                weight: w.get(cw).as_int().unwrap_or(0),
            })
            .collect();

        let [fid, fsup] = self.fragment.slots;
        let supports: Vec<(u32, i64)> = e
            .wm()
            .iter()
            .filter(|(_, w)| w.class == self.fragment.sym)
            .filter_map(|(_, w)| {
                let s = w.get(fsup).as_int()?;
                if s > 0 {
                    Some((w.get(fid).as_int()? as u32, s))
                } else {
                    None
                }
            })
            .collect();

        let work = e.work();
        LccUnitResult {
            consistents,
            supports,
            rhs_actions: work.rhs_actions,
            work,
            firings,
            cycle_log: e.take_cycle_log(),
        }
    }
}

/// The working memory of one LCC phase, encoded once for all of its tasks
/// (working-memory distribution, §5.1): the `control` element and every
/// fragment and constraint record as ready slot vectors, plus each
/// fragment's spatial neighbourhood, computed by the first task that needs
/// it and shared by the rest. Tasks copy their share into an engine with
/// [`ops5::Engine::insert_fields`].
pub(super) struct LccWm {
    pub(super) scene: Arc<Scene>,
    pub(super) fragments: Arc<Vec<FragmentHypothesis>>,
    layout: Layout,
    control: Vec<Value>,
    fragment_wmes: Vec<Vec<Value>>,
    constraint_wmes: Vec<Vec<Value>>,
    neighbourhoods: Vec<OnceLock<Vec<u32>>>,
}

impl LccWm {
    pub(super) fn new(
        program: &Program,
        scene: &Arc<Scene>,
        fragments: &Arc<Vec<FragmentHypothesis>>,
    ) -> LccWm {
        let layout = Layout::new(program);
        let hypothesised = Value::symbol("hypothesised");
        let fragment_wmes = fragments
            .iter()
            .map(|f| {
                layout.fragment.fields([
                    Value::Int(f.id as i64),
                    Value::Int(f.region as i64),
                    layout.kind(f.kind),
                    Value::Float(f.confidence),
                    Value::Int(0),
                    hypothesised,
                ])
            })
            .collect();
        let constraint_wmes = CONSTRAINTS
            .iter()
            .map(|c| {
                layout.constraint.fields([
                    Value::Int(c.id as i64),
                    layout.kind(c.subject),
                    layout.kind(c.object),
                    layout.harvest.relation_value(c.relation),
                    Value::Float(c.param),
                    Value::Int(c.weight),
                ])
            })
            .collect();
        LccWm {
            scene: Arc::clone(scene),
            fragments: Arc::clone(fragments),
            control: layout
                .control
                .fields([Value::symbol("lcc"), Value::symbol("running")]),
            layout,
            fragment_wmes,
            constraint_wmes,
            neighbourhoods: fragments.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// Harvests one finished task (see [`super::harvest_lcc_unit`]).
    pub(super) fn harvest(&self, e: &mut Engine, firings: u64) -> LccUnitResult {
        self.layout.harvest.harvest(e, firings)
    }

    fn neighbourhood(&self, f: u32) -> &[u32] {
        self.neighbourhoods[f as usize].get_or_init(|| {
            neighbourhood(&self.scene, &self.fragments, &self.fragments[f as usize])
        })
    }

    /// Loads the `control` element every task starts from.
    pub(super) fn load_control(&self, e: &mut Engine) {
        e.insert_fields(self.layout.control.sym, self.control.clone());
    }

    /// Loads one task's working memory (see [`super::load_unit_wm`]),
    /// element for element in the order the task has always received it,
    /// so time tags and therefore firing order are unchanged.
    pub(super) fn load(&self, e: &mut Engine, unit: &LccUnit) {
        let l = &self.layout;
        let fragments = &self.fragments;
        let int = |x: u32| Value::Int(x as i64);
        // Subjects of this task + the constraint ids it may apply.
        let subjects: Vec<u32> = match unit {
            LccUnit::Class(k) => fragments
                .iter()
                .filter(|f| f.kind == *k)
                .map(|f| f.id)
                .collect(),
            LccUnit::Object(f) => vec![*f],
            LccUnit::ObjectConstraint(f, _) => vec![*f],
            LccUnit::Pair { frag, .. } => vec![*frag],
        };

        // Working-memory distribution: subjects + their spatial neighbourhoods.
        let mut wm_frags: BTreeSet<u32> = subjects.iter().copied().collect();
        match unit {
            LccUnit::Pair { other, .. } => {
                wm_frags.insert(*other);
            }
            _ => {
                for &s in &subjects {
                    wm_frags.extend(self.neighbourhood(s));
                }
            }
        }
        for &fid in &wm_frags {
            e.insert_fields(l.fragment.sym, self.fragment_wmes[fid as usize].clone());
        }

        // Spatial windows: the control process precomputes which partners lie
        // in each subject's neighbourhood ("near" elements), so pair generation
        // stays local no matter how many subjects share the task's WM (this is
        // what bounds the Level-4 class tasks).
        let near = |e: &mut Engine, a: u32, b: u32| {
            let kind = l.kind(fragments[b as usize].kind);
            e.insert_fields(l.near.sym, l.near.fields([int(a), int(b), kind]));
        };
        match unit {
            LccUnit::Pair { frag, other, .. } => near(e, *frag, *other),
            _ => {
                for &s in &subjects {
                    for &g in self.neighbourhood(s) {
                        near(e, s, g);
                    }
                }
            }
        }

        // Task elements + constraint records, per level.
        match unit {
            LccUnit::Class(_) | LccUnit::Object(_) => {
                for c in &self.constraint_wmes {
                    e.insert_fields(l.constraint.sym, c.clone());
                }
                for &s in &subjects {
                    let kind = l.kind(fragments[s as usize].kind);
                    let task = l.task.fields([int(s), int(s), kind, l.pending]);
                    e.insert_fields(l.task.sym, task);
                }
            }
            LccUnit::ObjectConstraint(f, c) => {
                e.insert_fields(l.constraint.sym, self.constraint_wmes[*c as usize].clone());
                let id = Value::Int(((*f as i64) << 8) | *c as i64);
                let check = l
                    .check
                    .fields([id, Value::Int(-1), int(*f), int(*c), l.pending]);
                e.insert_fields(l.check.sym, check);
            }
            LccUnit::Pair {
                frag,
                constraint,
                other,
            } => {
                let pair = l.pair.fields([
                    Value::Int(-1),
                    int(*frag),
                    int(*other),
                    int(*constraint),
                    l.pending,
                ]);
                e.insert_fields(l.pair.sym, pair);
            }
        }
    }
}
