//! Secondary hash indexes over relation columns — single-column and
//! composite (column-set).
//!
//! A [`ColumnIndex`] maps the value at one column of a relation to the
//! (ordered) set of tuples holding that value — `R.c → {t ∈ R | t[c] = v}`.
//! A [`CompositeIndex`] generalises this to a *set* of columns with a
//! packed key ([`ColsKey`]), so a probe determined on several attributes —
//! a multi-column FD/key, a composite foreign key, a join pinned on two
//! variables — is one exact hash lookup instead of a best-single-column
//! bucket plus residual filtering. Since [`Value`] is interned and `Copy`,
//! hashing and comparing a key is a few integer operations regardless of
//! string lengths.
//!
//! Indexes are built lazily on first request ([`crate::Instance::index_on`],
//! [`crate::Instance::index_on_cols`]) and maintained incrementally on every
//! subsequent insert/remove, so constraint checking can replace full
//! relation scans with O(1) hash probes while mutating search code (the
//! repair engine) pays only O(#registered indexes of the touched relation)
//! per change.
//!
//! Design notes:
//!
//! * **Derived data.** Index state never affects instance *identity*:
//!   `Instance::eq` compares schemas and tuple sets only. Two instances
//!   with the same atoms but different registered indexes are equal.
//! * **Cheap forks.** The store holds `Arc`s to per-column(-set) maps and
//!   the instance holds `Arc`s to per-relation tuple sets, so cloning an
//!   instance is a handful of reference-count bumps; copy-on-write kicks
//!   in at the first mutation of a fork (`Arc::make_mut`).
//! * **Determinism.** Probe results are `BTreeSet<Tuple>`, so iterating a
//!   probe result is in the same deterministic order as scanning the
//!   relation — swapping a scan for a probe never changes enumeration
//!   order of matches.
//! * **Snapshot semantics.** [`crate::Instance::index_on`] returns an
//!   `Arc`-backed snapshot. It is detached from future mutations of the
//!   instance: re-fetch after mutating (probing a stale snapshot yields
//!   the tuples of the instance *at fetch time*).
//! * **Key encoding.** [`ColsKey`] stores up to [`INLINE_KEY_COLS`] values
//!   inline (`Copy` array, no allocation — the SmallVec idea in plain std)
//!   and spills wider keys to a boxed slice. Equality/hash/order are on
//!   the logical value sequence, so inline and spilled keys of the same
//!   values are interchangeable.

use crate::instance::Relation;
use crate::schema::RelId;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

/// A hash index over one column of one relation: value → tuple set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnIndex {
    map: HashMap<Value, BTreeSet<Tuple>>,
}

/// An empty, shared tuple set returned for probes that miss.
fn empty_set() -> &'static BTreeSet<Tuple> {
    static EMPTY: std::sync::OnceLock<BTreeSet<Tuple>> = std::sync::OnceLock::new();
    EMPTY.get_or_init(BTreeSet::new)
}

impl ColumnIndex {
    /// Build the index for `col` over an existing relation extension.
    pub(crate) fn build(col: usize, rel: &Relation) -> Self {
        let mut map: HashMap<Value, BTreeSet<Tuple>> = HashMap::new();
        for t in rel {
            map.entry(*t.get(col)).or_default().insert(t.clone());
        }
        ColumnIndex { map }
    }

    pub(crate) fn insert(&mut self, col: usize, t: &Tuple) {
        self.map.entry(*t.get(col)).or_default().insert(t.clone());
    }

    pub(crate) fn remove(&mut self, col: usize, t: &Tuple) {
        if let Some(set) = self.map.get_mut(t.get(col)) {
            set.remove(t);
            if set.is_empty() {
                self.map.remove(t.get(col));
            }
        }
    }

    /// The tuples whose indexed column holds `value`, in tuple order.
    pub fn probe(&self, value: &Value) -> &BTreeSet<Tuple> {
        self.map.get(value).unwrap_or_else(|| empty_set())
    }

    /// Number of tuples matching `value` (0 on a miss).
    pub fn selectivity(&self, value: &Value) -> usize {
        self.map.get(value).map_or(0, BTreeSet::len)
    }

    /// Number of distinct values in the indexed column.
    pub fn distinct_values(&self) -> usize {
        self.map.len()
    }

    /// Total tuples indexed (for consistency checks in tests).
    pub fn len(&self) -> usize {
        self.map.values().map(BTreeSet::len).sum()
    }

    /// `true` iff no tuples are indexed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Number of key values a [`ColsKey`] stores inline before spilling to the
/// heap. Covers every composite key and FD of the paper's examples and the
/// generated workloads.
pub const INLINE_KEY_COLS: usize = 4;

#[derive(Debug, Clone)]
enum KeyRepr {
    /// Up to [`INLINE_KEY_COLS`] values in a `Copy` array (padding beyond
    /// `len` is `Value::Null` and not part of the logical key).
    Inline {
        len: u8,
        vals: [Value; INLINE_KEY_COLS],
    },
    /// Wider keys, boxed.
    Spilled(Box<[Value]>),
}

/// A packed composite-index key: the values of one tuple at an ordered
/// column set. Equality, hashing and ordering are on the logical value
/// sequence — with interned values, all integer work.
#[derive(Debug, Clone)]
pub struct ColsKey(KeyRepr);

impl ColsKey {
    /// Pack a key from a value sequence (in index column order).
    pub fn new(values: &[Value]) -> ColsKey {
        if values.len() <= INLINE_KEY_COLS {
            let mut vals = [Value::Null; INLINE_KEY_COLS];
            vals[..values.len()].copy_from_slice(values);
            ColsKey(KeyRepr::Inline {
                len: values.len() as u8,
                vals,
            })
        } else {
            ColsKey(KeyRepr::Spilled(values.into()))
        }
    }

    /// Pack the key of `tuple` at `cols` (the index's canonical,
    /// ascending column order).
    pub fn of_tuple(tuple: &Tuple, cols: &[u32]) -> ColsKey {
        if cols.len() <= INLINE_KEY_COLS {
            let mut vals = [Value::Null; INLINE_KEY_COLS];
            for (slot, &c) in cols.iter().enumerate() {
                vals[slot] = *tuple.get(c as usize);
            }
            ColsKey(KeyRepr::Inline {
                len: cols.len() as u8,
                vals,
            })
        } else {
            ColsKey(KeyRepr::Spilled(
                cols.iter().map(|&c| *tuple.get(c as usize)).collect(),
            ))
        }
    }

    /// The key values, in index column order.
    pub fn values(&self) -> &[Value] {
        match &self.0 {
            KeyRepr::Inline { len, vals } => &vals[..*len as usize],
            KeyRepr::Spilled(vals) => vals,
        }
    }
}

impl PartialEq for ColsKey {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for ColsKey {}

impl Hash for ColsKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl PartialOrd for ColsKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ColsKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.values().cmp(other.values())
    }
}

/// A hash index over a *set* of columns of one relation:
/// packed key → tuple set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositeIndex {
    /// Indexed columns, strictly ascending (the canonical order probes
    /// must supply values in).
    cols: Box<[u32]>,
    map: HashMap<ColsKey, BTreeSet<Tuple>>,
}

impl CompositeIndex {
    /// Build the index for `cols` (ascending) over a relation extension.
    pub(crate) fn build(cols: Box<[u32]>, rel: &Relation) -> Self {
        let mut map: HashMap<ColsKey, BTreeSet<Tuple>> = HashMap::new();
        for t in rel {
            map.entry(ColsKey::of_tuple(t, &cols))
                .or_default()
                .insert(t.clone());
        }
        CompositeIndex { cols, map }
    }

    pub(crate) fn insert(&mut self, t: &Tuple) {
        self.map
            .entry(ColsKey::of_tuple(t, &self.cols))
            .or_default()
            .insert(t.clone());
    }

    pub(crate) fn remove(&mut self, t: &Tuple) {
        let key = ColsKey::of_tuple(t, &self.cols);
        if let Some(set) = self.map.get_mut(&key) {
            set.remove(t);
            if set.is_empty() {
                self.map.remove(&key);
            }
        }
    }

    /// The indexed columns, ascending.
    pub fn cols(&self) -> &[u32] {
        &self.cols
    }

    /// The tuples matching `key` exactly on every indexed column, in
    /// tuple order.
    pub fn probe(&self, key: &ColsKey) -> &BTreeSet<Tuple> {
        self.map.get(key).unwrap_or_else(|| empty_set())
    }

    /// Probe with unpacked values (in [`CompositeIndex::cols`] order).
    pub fn probe_values(&self, values: &[Value]) -> &BTreeSet<Tuple> {
        debug_assert_eq!(values.len(), self.cols.len());
        self.probe(&ColsKey::new(values))
    }

    /// Number of tuples matching `key` (0 on a miss).
    pub fn selectivity(&self, key: &ColsKey) -> usize {
        self.map.get(key).map_or(0, BTreeSet::len)
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Total tuples indexed (for consistency checks in tests).
    pub fn len(&self) -> usize {
        self.map.values().map(BTreeSet::len).sum()
    }

    /// `true` iff no tuples are indexed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The registered secondary indexes of one [`crate::Instance`].
///
/// Interior mutability (`RwLock`) lets read-only consistency checks build
/// indexes lazily through `&Instance`; the lock is uncontended in the
/// single-threaded search paths and keeps `Instance: Send + Sync`.
#[derive(Debug, Default)]
pub(crate) struct IndexStore {
    by_col: RwLock<HashMap<(u32, u32), Arc<ColumnIndex>>>,
    /// Composite indexes, keyed by relation with the (few) registered
    /// column sets scanned linearly — probes look an index up without
    /// allocating a key.
    by_cols: RwLock<HashMap<u32, RelCompositeIndexes>>,
}

/// The registered composite indexes of one relation, by column set.
type RelCompositeIndexes = Vec<(Box<[u32]>, Arc<CompositeIndex>)>;

impl IndexStore {
    /// Fetch (building if absent) the index for `(rel, col)`.
    pub(crate) fn get_or_build(
        &self,
        rel: RelId,
        col: usize,
        relation: &Relation,
    ) -> Arc<ColumnIndex> {
        let key = (rel.0, col as u32);
        if let Some(ix) = self.by_col.read().expect("index lock").get(&key) {
            return ix.clone();
        }
        let built = Arc::new(ColumnIndex::build(col, relation));
        let mut w = self.by_col.write().expect("index lock");
        w.entry(key).or_insert_with(|| built.clone());
        w[&key].clone()
    }

    /// Fetch (building if absent) the composite index for `(rel, cols)`;
    /// `cols` must be strictly ascending.
    pub(crate) fn get_or_build_cols(
        &self,
        rel: RelId,
        cols: &[u32],
        relation: &Relation,
    ) -> Arc<CompositeIndex> {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "cols must ascend");
        if let Some(list) = self.by_cols.read().expect("index lock").get(&rel.0) {
            if let Some((_, ix)) = list.iter().find(|(cs, _)| &**cs == cols) {
                return ix.clone();
            }
        }
        let mut w = self.by_cols.write().expect("index lock");
        let list = w.entry(rel.0).or_default();
        if let Some((_, ix)) = list.iter().find(|(cs, _)| &**cs == cols) {
            return ix.clone();
        }
        let built = Arc::new(CompositeIndex::build(Box::from(cols), relation));
        list.push((Box::from(cols), built.clone()));
        built
    }

    /// Registered column list for a relation (for maintenance and tests).
    pub(crate) fn registered_cols(&self, rel: RelId) -> Vec<u32> {
        let mut cols: Vec<u32> = self
            .by_col
            .read()
            .expect("index lock")
            .keys()
            .filter(|(r, _)| *r == rel.0)
            .map(|&(_, c)| c)
            .collect();
        cols.sort_unstable();
        cols
    }

    /// Registered composite column sets for a relation (tests).
    pub(crate) fn registered_col_sets(&self, rel: RelId) -> Vec<Vec<u32>> {
        let mut sets: Vec<Vec<u32>> = self
            .by_cols
            .read()
            .expect("index lock")
            .get(&rel.0)
            .map(|list| list.iter().map(|(cs, _)| cs.to_vec()).collect())
            .unwrap_or_default();
        sets.sort();
        sets
    }

    /// Maintain all indexes of `rel` after `t` was inserted.
    pub(crate) fn note_insert(&mut self, rel: RelId, t: &Tuple) {
        let by_col = self.by_col.get_mut().expect("index lock");
        for ((r, col), ix) in by_col.iter_mut() {
            if *r == rel.0 {
                Arc::make_mut(ix).insert(*col as usize, t);
            }
        }
        if let Some(list) = self.by_cols.get_mut().expect("index lock").get_mut(&rel.0) {
            for (_, ix) in list.iter_mut() {
                Arc::make_mut(ix).insert(t);
            }
        }
    }

    /// Maintain all indexes of `rel` after `t` was removed.
    pub(crate) fn note_remove(&mut self, rel: RelId, t: &Tuple) {
        let by_col = self.by_col.get_mut().expect("index lock");
        for ((r, col), ix) in by_col.iter_mut() {
            if *r == rel.0 {
                Arc::make_mut(ix).remove(*col as usize, t);
            }
        }
        if let Some(list) = self.by_cols.get_mut().expect("index lock").get_mut(&rel.0) {
            for (_, ix) in list.iter_mut() {
                Arc::make_mut(ix).remove(t);
            }
        }
    }
}

impl Clone for IndexStore {
    fn clone(&self) -> Self {
        IndexStore {
            by_col: RwLock::new(self.by_col.read().expect("index lock").clone()),
            by_cols: RwLock::new(self.by_cols.read().expect("index lock").clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{i, null, s, Instance, Schema};

    fn schema() -> std::sync::Arc<Schema> {
        Schema::builder()
            .relation("P", ["a", "b"])
            .finish()
            .unwrap()
            .into_shared()
    }

    fn schema3() -> std::sync::Arc<Schema> {
        Schema::builder()
            .relation("T", ["a", "b", "c"])
            .finish()
            .unwrap()
            .into_shared()
    }

    #[test]
    fn probe_finds_matching_tuples_only() {
        let mut d = Instance::empty(schema());
        d.insert_named("P", [s("x"), i(1)]).unwrap();
        d.insert_named("P", [s("x"), i(2)]).unwrap();
        d.insert_named("P", [s("y"), i(3)]).unwrap();
        let p = d.schema().rel_id("P").unwrap();
        let ix = d.index_on(p, 0);
        assert_eq!(ix.probe(&s("x")).len(), 2);
        assert_eq!(ix.probe(&s("y")).len(), 1);
        assert!(ix.probe(&s("z")).is_empty());
        assert_eq!(ix.distinct_values(), 2);
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn index_maintained_across_insert_and_remove() {
        let mut d = Instance::empty(schema());
        let p = d.schema().rel_id("P").unwrap();
        let _ = d.index_on(p, 1); // register before any data exists
        d.insert_named("P", [s("x"), null()]).unwrap();
        d.insert_named("P", [s("y"), null()]).unwrap();
        assert_eq!(d.index_on(p, 1).probe(&null()).len(), 2);
        let t = Tuple::new(vec![s("x"), null()]);
        d.remove(p, &t);
        assert_eq!(d.index_on(p, 1).probe(&null()).len(), 1);
        d.remove(p, &Tuple::new(vec![s("y"), null()]));
        assert!(d.index_on(p, 1).probe(&null()).is_empty());
    }

    #[test]
    fn snapshots_are_detached_from_later_mutations() {
        let mut d = Instance::empty(schema());
        d.insert_named("P", [s("x"), i(1)]).unwrap();
        let p = d.schema().rel_id("P").unwrap();
        let snapshot = d.index_on(p, 0);
        d.insert_named("P", [s("x"), i(2)]).unwrap();
        assert_eq!(snapshot.probe(&s("x")).len(), 1); // fetch-time view
        assert_eq!(d.index_on(p, 0).probe(&s("x")).len(), 2);
    }

    #[test]
    fn forked_instances_maintain_independent_indexes() {
        let mut d = Instance::empty(schema());
        d.insert_named("P", [s("x"), i(1)]).unwrap();
        let p = d.schema().rel_id("P").unwrap();
        let _ = d.index_on(p, 0);
        let mut fork = d.clone();
        fork.insert_named("P", [s("x"), i(2)]).unwrap();
        assert_eq!(d.index_on(p, 0).probe(&s("x")).len(), 1);
        assert_eq!(fork.index_on(p, 0).probe(&s("x")).len(), 2);
    }

    #[test]
    fn index_state_does_not_affect_equality() {
        let mut a = Instance::empty(schema());
        a.insert_named("P", [s("x"), i(1)]).unwrap();
        let b = a.clone();
        let p = a.schema().rel_id("P").unwrap();
        let _ = a.index_on(p, 0);
        let _ = a.index_on_cols(p, &[0, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn cols_key_inline_and_spilled_agree() {
        let small = [s("a"), i(1), null()];
        let wide: Vec<Value> = (0..7).map(i).collect();
        assert_eq!(ColsKey::new(&small), ColsKey::new(&small));
        assert_eq!(ColsKey::new(&small).values(), &small);
        assert_eq!(ColsKey::new(&wide).values(), wide.as_slice());
        // Prefix keys of different lengths are distinct.
        assert_ne!(ColsKey::new(&small), ColsKey::new(&small[..2]));
        // Boundary: exactly INLINE_KEY_COLS stays inline-equal to itself.
        let edge: Vec<Value> = (0..INLINE_KEY_COLS as i64).map(i).collect();
        assert_eq!(ColsKey::new(&edge), ColsKey::new(&edge));
        assert_eq!(ColsKey::new(&edge).values(), edge.as_slice());
    }

    #[test]
    fn composite_probe_matches_all_columns_exactly() {
        let mut d = Instance::empty(schema3());
        d.insert_named("T", [s("x"), i(1), s("p")]).unwrap();
        d.insert_named("T", [s("x"), i(1), s("q")]).unwrap();
        d.insert_named("T", [s("x"), i(2), s("p")]).unwrap();
        d.insert_named("T", [s("y"), i(1), s("p")]).unwrap();
        let t = d.schema().rel_id("T").unwrap();
        let ix = d.index_on_cols(t, &[0, 1]);
        assert_eq!(ix.cols(), &[0, 1]);
        assert_eq!(ix.probe_values(&[s("x"), i(1)]).len(), 2);
        assert_eq!(ix.probe_values(&[s("x"), i(2)]).len(), 1);
        assert!(ix.probe_values(&[s("y"), i(2)]).is_empty());
        assert_eq!(ix.distinct_keys(), 3);
        assert_eq!(ix.len(), 4);
    }

    #[test]
    fn composite_index_maintained_across_mutations() {
        let mut d = Instance::empty(schema3());
        let t = d.schema().rel_id("T").unwrap();
        let _ = d.index_on_cols(t, &[0, 2]); // register before data
        d.insert_named("T", [s("x"), i(1), null()]).unwrap();
        d.insert_named("T", [s("x"), i(2), null()]).unwrap();
        assert_eq!(
            d.index_on_cols(t, &[0, 2])
                .probe_values(&[s("x"), null()])
                .len(),
            2
        );
        d.remove(t, &Tuple::new(vec![s("x"), i(1), null()]));
        assert_eq!(
            d.index_on_cols(t, &[0, 2])
                .probe_values(&[s("x"), null()])
                .len(),
            1
        );
    }

    #[test]
    fn index_on_cols_canonicalises_column_order() {
        let mut d = Instance::empty(schema3());
        d.insert_named("T", [s("x"), i(1), s("p")]).unwrap();
        let t = d.schema().rel_id("T").unwrap();
        // Unsorted and duplicated requests resolve to the same index.
        let a = d.index_on_cols(t, &[2, 0]);
        let b = d.index_on_cols(t, &[0, 2, 0]);
        assert_eq!(a.cols(), &[0, 2]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(d.indexed_column_sets(t), vec![vec![0, 2]]);
    }

    #[test]
    fn composite_probe_equals_naive_filter() {
        let mut d = Instance::empty(schema3());
        for a in 0..4i64 {
            for b in 0..3i64 {
                d.insert_named("T", [i(a), i(b), i(a + b)]).unwrap();
            }
        }
        let t = d.schema().rel_id("T").unwrap();
        let ix = d.index_on_cols(t, &[1, 2]);
        for b in 0..4i64 {
            for c in 0..7i64 {
                let probed: Vec<&Tuple> = ix.probe_values(&[i(b), i(c)]).iter().collect();
                let naive: Vec<&Tuple> = d
                    .relation(t)
                    .iter()
                    .filter(|tp| *tp.get(1) == i(b) && *tp.get(2) == i(c))
                    .collect();
                assert_eq!(probed, naive, "b={b} c={c}");
            }
        }
    }
}
