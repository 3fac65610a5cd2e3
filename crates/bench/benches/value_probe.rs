//! Micro-bench: index-probe and value-comparison cost versus string
//! length.
//!
//! With globally interned values, an index probe hashes and compares a
//! `u32` symbol id — the timings across the `strlen_*` series must be
//! flat (the headline claim of the interning PR; `BENCH_2.json` records
//! the series). Before interning, probe cost grew with the length of the
//! string constants because every hash and equality walked the bytes.

use cqa_bench::harness::Harness;
use cqa_relational::{ColsKey, Instance, RelId, Schema, Tuple, Value};
use std::hint::black_box;
use std::sync::Arc;

const ROWS: usize = 1024;
const PROBES: usize = 256;
const LENGTHS: [usize; 4] = [8, 64, 512, 4096];

fn schema() -> Arc<Schema> {
    Schema::builder()
        .relation("R", ["k", "g", "v"])
        .finish()
        .expect("static schema")
        .into_shared()
}

/// A key of exactly `len` bytes whose distinguishing suffix forces a full
/// walk for content-based comparison (shared long prefix).
fn key(len: usize, i: usize) -> String {
    format!("{:x>width$}-{i:06}", "", width = len.saturating_sub(7))
}

fn build(len: usize) -> Instance {
    let mut d = Instance::empty(schema());
    for i in 0..ROWS {
        d.insert_named(
            "R",
            [
                Value::str(key(len, i)),
                Value::str(key(len, i % 16)),
                Value::Int(i as i64),
            ],
        )
        .expect("arity");
    }
    d
}

/// Single-column probes: value → bucket, one hash of an interned id.
fn single_column_probes() {
    let mut group = Harness::new("value_probe");
    for len in LENGTHS {
        let d = build(len);
        let r = RelId(0);
        let ix = d.index_on(r, 0);
        let probes: Vec<Value> = (0..PROBES)
            .map(|i| Value::str(key(len, (i * 7) % (ROWS + 64)))) // ~6% misses
            .collect();
        group.bench(format!("probe/strlen_{len}"), || {
            let mut hits = 0usize;
            for v in &probes {
                hits += ix.probe(black_box(v)).len();
            }
            black_box(hits)
        });
    }
    group.finish();
}

/// Composite probes: packed two-column keys, still id-only work.
fn composite_probes() {
    let mut group = Harness::new("value_probe_composite");
    for len in LENGTHS {
        let d = build(len);
        let r = RelId(0);
        let ix = d.index_on_cols(r, &[0, 1]);
        let keys: Vec<ColsKey> = (0..PROBES)
            .map(|i| {
                let j = (i * 7) % (ROWS + 64);
                ColsKey::new(&[Value::str(key(len, j)), Value::str(key(len, j % 16))])
            })
            .collect();
        group.bench(format!("probe_cols/strlen_{len}"), || {
            let mut hits = 0usize;
            for k in &keys {
                hits += ix.probe(black_box(k)).len();
            }
            black_box(hits)
        });
    }
    group.finish();
}

/// Tuple equality sweeps: comparing interned tuples is id-only too.
fn tuple_equality() {
    let mut group = Harness::new("value_probe_eq");
    for len in LENGTHS {
        let a: Vec<Tuple> = (0..ROWS)
            .map(|i| Tuple::new(vec![Value::str(key(len, i)), Value::Int(i as i64)]))
            .collect();
        let b = a.clone();
        group.bench(format!("tuple_eq/strlen_{len}"), || {
            let mut eq = 0usize;
            for (x, y) in a.iter().zip(&b) {
                if black_box(x) == black_box(y) {
                    eq += 1;
                }
            }
            black_box(eq)
        });
    }
    group.finish();
}

/// `Ord` on symbols: the id fast path versus the lexicographic slow path.
///
/// Documents exactly when string content is still touched (the ordering
/// table in `cqa_relational::symbol`): comparing a symbol with *itself*
/// (equal ids — the dominant case in `BTreeSet` probes of values that are
/// already present) short-circuits to `Equal` without resolving, so the
/// `ord_eq_ids/*` series must be flat across string lengths. *Distinct*
/// symbols are ordered by their 8-byte order prefix; these keys share
/// every byte but their 7-byte suffix, so from `strlen_64` on the
/// prefixes tie and the comparison resolves both strings and walks their
/// shared prefix (enumeration order is pinned to lexicographic order
/// workspace-wide): `ord_neq_ids/*` grows with the prefix length — the
/// residual cost id-ordered B-trees (ROADMAP, deferred "id-ordered
/// secondary indexes") would remove.
fn symbol_ordering() {
    let mut group = Harness::new("symbol_ord");
    for len in LENGTHS {
        let values: Vec<Value> = (0..ROWS).map(|i| Value::str(key(len, i))).collect();
        let same = values.clone();
        group.bench(format!("ord_eq_ids/strlen_{len}"), || {
            let mut eq = 0usize;
            for (a, b) in values.iter().zip(&same) {
                if black_box(a).cmp(black_box(b)) == std::cmp::Ordering::Equal {
                    eq += 1;
                }
            }
            black_box(eq)
        });
        // Distinct ids with a shared `len`-byte prefix: every comparison
        // takes the slow path and walks the common prefix.
        let shifted: Vec<Value> = (0..ROWS).map(|i| Value::str(key(len, i + 1))).collect();
        group.bench(format!("ord_neq_ids/strlen_{len}"), || {
            let mut less = 0usize;
            for (a, b) in values.iter().zip(&shifted) {
                if black_box(a).cmp(black_box(b)) == std::cmp::Ordering::Less {
                    less += 1;
                }
            }
            black_box(less)
        });
    }
    group.finish();
}

fn main() {
    single_column_probes();
    composite_probes();
    tuple_equality();
    symbol_ordering();
}
