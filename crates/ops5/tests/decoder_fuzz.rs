//! Decoder fuzz: corrupted snapshot, engine-image and WAL bytes must come
//! back as typed errors (or as a decoded value), never as a panic.
//!
//! Flipping bytes alone only exercises the checksum checks, so every
//! mutation here is re-sealed: the snapshot's trailing FNV-1a is recomputed
//! over the mutated body, and a mutated WAL record gets a fresh length
//! frame and checksum. The parsers behind the checksums — and, for
//! snapshots, the Rete rebuild and conflict-set pruning of
//! [`Engine::restore`] — then see the damaged content itself.

use ops5::snapshot::{fnv1a, EngineImage, Wal, WalOp, WalRecord};
use ops5::{sym, Engine, Program, ReteConfig, Value};
use proptest::prelude::*;
use std::sync::Arc;

const PROGRAM: &str = "
    (literalize item kind count weight)
    (literalize done kind)
    (p consume (item ^kind <k> ^count { <n> > 0 })
       -->
       (modify 1 ^count (compute <n> - 1)))
    (p finish (item ^kind <k> ^count 0) -(done ^kind <k>)
       -->
       (make done ^kind <k>)
       (remove 1))
    (p pair (item ^kind <k> ^count <n>) (item ^kind <k> ^count > <n>)
       -->
       (write pair <k>))";

/// One byte-level damage to a buffer.
#[derive(Clone, Debug)]
enum Damage {
    /// Overwrite the byte at `at` (modulo the length) with `with`.
    Set { at: usize, with: u8 },
    /// Flip one bit.
    Flip { at: usize, bit: u8 },
    /// Drop `len` bytes starting at `at`.
    Cut { at: usize, len: usize },
    /// Insert `len` copies of `with` at `at`.
    Grow { at: usize, len: usize, with: u8 },
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        4 => (0usize..4096, 0u8..255).prop_map(|(at, with)| Damage::Set { at, with }),
        3 => (0usize..4096, 0u8..8).prop_map(|(at, bit)| Damage::Flip { at, bit }),
        1 => (0usize..4096, 1usize..9).prop_map(|(at, len)| Damage::Cut { at, len }),
        1 => (0usize..4096, 1usize..9, 0u8..255)
            .prop_map(|(at, len, with)| Damage::Grow { at, len, with }),
    ]
}

/// Applies `damage` to `buf` from byte `from` on (the bytes before it —
/// a header the test means to keep — are never touched).
fn apply(buf: &mut Vec<u8>, from: usize, damage: &[Damage]) {
    for d in damage {
        let span = buf.len().saturating_sub(from);
        if span == 0 {
            return;
        }
        match *d {
            Damage::Set { at, with } => buf[from + at % span] = with,
            Damage::Flip { at, bit } => buf[from + at % span] ^= 1 << bit,
            Damage::Cut { at, len } => {
                let start = from + at % span;
                let end = (start + len).min(buf.len());
                buf.drain(start..end);
            }
            Damage::Grow { at, len, with } => {
                let start = from + at % span;
                buf.splice(start..start, std::iter::repeat_n(with, len));
            }
        }
    }
}

/// An engine part-way through a run, so its snapshot holds dead slots,
/// live WMEs of both classes, symbols, floats and conflict keys.
fn engine(program: &Arc<Program>, counts: &[(u8, i8)], steps: usize) -> Engine {
    let mut e = Engine::new(Arc::clone(program));
    for &(k, n) in counts {
        e.make_wme(
            "item",
            &[
                ("kind", Value::symbol(&format!("k{k}"))),
                ("count", i64::from(n).into()),
                ("weight", Value::Float(f64::from(n) * 0.5)),
            ],
        )
        .unwrap();
    }
    for _ in 0..steps {
        if e.step().unwrap().is_none() {
            break;
        }
    }
    e
}

/// Re-seals a damaged snapshot: the last 8 bytes become the FNV-1a of the
/// rest, so the decoder gets past the checksum to the content.
fn reseal_snapshot(bytes: &mut [u8]) {
    if bytes.len() < 8 {
        return;
    }
    let body = bytes.len() - 8;
    let sum = fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

/// A WAL built from `payloads`, each framed with its own length and
/// checksum the way [`Wal::append`] frames them.
fn framed_wal(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = Wal::new().into_bytes();
    for p in payloads {
        bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
        bytes.extend_from_slice(p);
        bytes.extend_from_slice(&fnv1a(p).to_le_bytes());
    }
    bytes
}

/// The payloads of a well-formed log (header 6 bytes, then frames of
/// `len:u32` + payload + `fnv1a:u64`).
fn payloads(wal: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut at = 6;
    while at < wal.len() {
        let len = u32::from_le_bytes(wal[at..at + 4].try_into().unwrap()) as usize;
        out.push(wal[at + 4..at + 4 + len].to_vec());
        at += 4 + len + 8;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A damaged, re-sealed snapshot decodes to an image or a typed error,
    /// and restoring it gives an engine or a typed error — no panic. A
    /// restored engine can also run: whatever restore accepts is an engine
    /// the interpreter can drive.
    #[test]
    fn resealed_snapshot_damage_never_panics(
        counts in prop::collection::vec((0u8..3, 0i8..4), 1..8),
        steps in 0usize..6,
        damage in prop::collection::vec(damage_strategy(), 1..4),
        past_header in 0u8..2,
    ) {
        let program = Arc::new(Program::parse(PROGRAM).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let mut bytes = engine(&program, &counts, steps).snapshot();
        // Half the cases keep magic, version, strategy, halt flag and the
        // program fingerprint (16 bytes), so damage lands in the body the
        // rebuild consumes instead of failing the header checks.
        let from = if past_header == 1 { 16 } else { 0 };
        apply(&mut bytes, from, &damage);
        reseal_snapshot(&mut bytes);

        let decoded = EngineImage::decode(&bytes);
        let restored = Engine::restore(
            Arc::clone(&program),
            compiled,
            ReteConfig::default(),
            &bytes,
        );
        if decoded.is_err() {
            prop_assert!(restored.is_err(), "restore accepted bytes decode refused");
        }
        if let Ok(mut e) = restored {
            let _ = e.run(200);
            let _ = e.snapshot();
        }
    }

    /// A WAL with one damaged, re-framed record replays to the records
    /// before it plus (when it still parses) the damaged one — never a
    /// panic — and damage anywhere in the raw bytes, header included, is at
    /// worst a typed error.
    #[test]
    fn reframed_wal_damage_never_panics(
        counts in prop::collection::vec((0u8..3, 0i8..4), 1..8),
        victim in 0usize..16,
        damage in prop::collection::vec(damage_strategy(), 1..4),
        raw in prop::collection::vec(damage_strategy(), 1..3),
    ) {
        let mut wal = Wal::new();
        for (i, &(k, n)) in counts.iter().enumerate() {
            let op = match i % 3 {
                0 => WalOp::Assert {
                    class: sym("item"),
                    fields: vec![Value::symbol(&format!("k{k}")), i64::from(n).into(), Value::Float(0.5)],
                },
                1 => WalOp::Retract(ops5::WmeId(u32::from(k))),
                _ => WalOp::Modify {
                    id: ops5::WmeId(u32::from(k)),
                    class: sym("done"),
                    fields: vec![Value::Nil],
                },
            };
            wal.append(&WalRecord { cycle: i as u64, op });
        }
        let mut records = payloads(wal.as_bytes());
        let victim = victim % records.len();
        apply(&mut records[victim], 0, &damage);
        let replay = Wal::replay(&framed_wal(&records)).expect("the header is intact");
        prop_assert!(replay.records.len() >= victim, "records before the damage survive");
        prop_assert_eq!(replay.valid_len + replay.dropped_bytes, framed_wal(&records).len());

        let mut bytes = wal.into_bytes();
        apply(&mut bytes, 0, &raw);
        let _ = Wal::replay(&bytes);
    }

    /// Structural damage: a decoded image is changed field by field and
    /// re-encoded (which seals it), so `restore` sees well-formed bytes
    /// whose content contradicts the program — WMEs with too few or too
    /// many slots or of an unknown class, conflict keys naming missing
    /// WMEs or productions. It must refuse them with an error, or accept
    /// an engine that runs; it must not panic.
    #[test]
    fn contradictory_images_never_panic(
        counts in prop::collection::vec((0u8..3, 0i8..4), 1..8),
        steps in 0usize..6,
        edits in prop::collection::vec((0u8..6, 0usize..64), 1..4),
    ) {
        let program = Arc::new(Program::parse(PROGRAM).unwrap());
        let compiled = Engine::compile(&program).unwrap();
        let snap = engine(&program, &counts, steps).snapshot();
        let mut img = EngineImage::decode(&snap).unwrap();
        for (kind, at) in edits {
            let live: Vec<usize> =
                (0..img.slots.len()).filter(|&i| img.slots[i].is_some()).collect();
            match kind {
                0..=2 if !live.is_empty() => {
                    let w = img.slots[live[at % live.len()]].as_mut().unwrap();
                    let mut fields = w.fields.to_vec();
                    match kind {
                        0 => {
                            fields.pop();
                        }
                        1 => fields.push(Value::Int(7)),
                        _ => w.class = sym(["done", "item", "no-such-class"][at % 3]),
                    }
                    w.fields = fields.into_boxed_slice();
                }
                3 if !img.conflict.is_empty() => {
                    let n = img.conflict.len();
                    img.conflict[at % n].0 = (at % 5) as u32;
                }
                4 if !img.conflict.is_empty() => {
                    let n = img.conflict.len();
                    let key = &mut img.conflict[at % n].1;
                    if let Some(w) = key.first_mut() {
                        *w = ops5::WmeId(at as u32);
                    }
                }
                _ => img.time = at as u64,
            }
        }
        let restored = Engine::restore(
            Arc::clone(&program),
            compiled,
            ReteConfig::default(),
            &img.encode(),
        );
        if let Ok(mut e) = restored {
            let _ = e.run(200);
            let _ = e.snapshot();
        }
    }
}
