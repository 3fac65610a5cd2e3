//! Database instances: finite sets of ground atoms over a schema.

use crate::atom::DatabaseAtom;
use crate::diff::Delta;
use crate::error::RelationalError;
use crate::index::{ColumnIndex, CompositeIndex, IndexStore};
use crate::schema::{RelId, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Global source of content-version stamps (see [`Instance::version`]).
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn fresh_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// The extension of one relation: a *set* of tuples.
///
/// Sets, not bags: the paper explicitly works with set semantics and
/// discusses the divergence from SQL's bag semantics in Example 7.
pub type Relation = BTreeSet<Tuple>;

/// A database instance `D` over a fixed [`Schema`].
///
/// Instances are ordinary values. Relation extensions are shared behind
/// `Arc`s with copy-on-write mutation, so *forking* an instance (the repair
/// engine's branch step) is a handful of reference-count bumps and a fork
/// pays only for the relations it actually touches. All iteration is in
/// deterministic (B-tree) order.
///
/// Secondary hash indexes ([`crate::index`]) are registered lazily via
/// [`Instance::index_on`] and maintained on every insert/remove. Index
/// state is derived data: it participates in neither equality nor ordering.
#[derive(Debug, Clone)]
pub struct Instance {
    schema: Arc<Schema>,
    relations: Vec<Arc<Relation>>,
    indexes: IndexStore,
    /// Content-version stamp: reassigned (from a global counter) on every
    /// content mutation, copied on clone. Equal stamps imply equal atom
    /// sets — a clone shares its original's stamp until either mutates,
    /// and no two mutation events ever receive the same stamp.
    version: u64,
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.relations == other.relations
    }
}

impl Eq for Instance {}

impl Instance {
    /// An empty instance over `schema`.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let relations = (0..schema.len())
            .map(|_| Arc::new(Relation::new()))
            .collect();
        Instance {
            schema,
            relations,
            indexes: IndexStore::default(),
            version: fresh_version(),
        }
    }

    /// The content-version stamp. Two instances with equal stamps hold
    /// equal atom sets (the converse does not hold: equal content rebuilt
    /// independently gets distinct stamps). Derived caches — e.g. the
    /// repair engine's root-violation worklist — key on this to detect
    /// mutation between calls.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Build an instance from atoms.
    pub fn from_atoms(
        schema: Arc<Schema>,
        atoms: impl IntoIterator<Item = DatabaseAtom>,
    ) -> Result<Self, RelationalError> {
        let mut inst = Instance::empty(schema);
        for a in atoms {
            inst.insert(a.rel, a.tuple)?;
        }
        Ok(inst)
    }

    /// Build an instance directly from per-relation tuple sets, in schema
    /// declaration order — the bulk-load hook deserializers use. Unlike
    /// [`Instance::from_atoms`] this skips the per-insert copy-on-write
    /// and version churn; arity is still validated for every tuple, so a
    /// hand-edited snapshot cannot smuggle malformed rows in.
    pub fn from_relations(
        schema: Arc<Schema>,
        relations: Vec<Relation>,
    ) -> Result<Self, RelationalError> {
        if relations.len() != schema.len() {
            return Err(RelationalError::SchemaMismatch);
        }
        for (id, decl) in schema.iter() {
            for tuple in &relations[id.index()] {
                if tuple.arity() != decl.arity() {
                    return Err(RelationalError::ArityMismatch {
                        relation: decl.name().to_string(),
                        expected: decl.arity(),
                        actual: tuple.arity(),
                    });
                }
            }
        }
        Ok(Instance {
            schema,
            relations: relations.into_iter().map(Arc::new).collect(),
            indexes: IndexStore::default(),
            version: fresh_version(),
        })
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Insert a tuple into a relation; `Ok(true)` if it was new.
    pub fn insert(&mut self, rel: RelId, tuple: Tuple) -> Result<bool, RelationalError> {
        let decl = self.schema.relation(rel);
        if decl.arity() != tuple.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: decl.name().to_string(),
                expected: decl.arity(),
                actual: tuple.arity(),
            });
        }
        let added = Arc::make_mut(&mut self.relations[rel.index()]).insert(tuple.clone());
        if added {
            self.indexes.note_insert(rel, &tuple);
            self.version = fresh_version();
        }
        Ok(added)
    }

    /// Insert by relation name.
    pub fn insert_named(
        &mut self,
        relation: &str,
        tuple: impl Into<Tuple>,
    ) -> Result<bool, RelationalError> {
        let rel = self.schema.require(relation)?;
        self.insert(rel, tuple.into())
    }

    /// Remove a tuple; `true` if it was present.
    pub fn remove(&mut self, rel: RelId, tuple: &Tuple) -> bool {
        let removed = Arc::make_mut(&mut self.relations[rel.index()]).remove(tuple);
        if removed {
            self.indexes.note_remove(rel, tuple);
            self.version = fresh_version();
        }
        removed
    }

    /// Membership test for an atom.
    pub fn contains(&self, atom: &DatabaseAtom) -> bool {
        self.relations[atom.rel.index()].contains(&atom.tuple)
    }

    /// The extension of a relation.
    pub fn relation(&self, rel: RelId) -> &Relation {
        &self.relations[rel.index()]
    }

    /// The secondary hash index over `col` of `rel`, building it on first
    /// request and maintaining it on later mutations.
    ///
    /// The returned handle is an `Arc` snapshot detached from future
    /// mutations of `self`: re-fetch after mutating. See [`crate::index`].
    pub fn index_on(&self, rel: RelId, col: usize) -> Arc<ColumnIndex> {
        self.indexes
            .get_or_build(rel, col, &self.relations[rel.index()])
    }

    /// The registered indexes, for [`crate::Candidates`].
    pub(crate) fn index_store(&self) -> &IndexStore {
        &self.indexes
    }

    /// The registered index columns of `rel` (diagnostics and tests).
    pub fn indexed_columns(&self, rel: RelId) -> Vec<u32> {
        self.indexes.registered_cols(rel)
    }

    /// The composite (column-set) hash index over `cols` of `rel`,
    /// building it on first request and maintaining it on later
    /// mutations. `cols` is canonicalised (sorted ascending, de-duplicated)
    /// before lookup, so `&[1, 0]` and `&[0, 1]` name the same index; the
    /// returned handle's [`CompositeIndex::cols`] gives the canonical
    /// order probe values must be supplied in.
    ///
    /// Same snapshot semantics as [`Instance::index_on`]: the handle is
    /// detached from future mutations of `self`.
    ///
    /// Panics if `cols` is empty or mentions a column out of range for
    /// `rel` — column sets are always driven by validated constraints.
    pub fn index_on_cols(&self, rel: RelId, cols: &[usize]) -> Arc<CompositeIndex> {
        assert!(!cols.is_empty(), "composite index needs at least 1 column");
        let arity = self.schema.relation(rel).arity();
        let mut canonical: Vec<u32> = cols
            .iter()
            .map(|&c| {
                assert!(c < arity, "column {c} out of range for arity {arity}");
                c as u32
            })
            .collect();
        // The hot caller (probe planning) supplies strictly ascending
        // columns by construction; only canonicalise when it must.
        if !canonical.windows(2).all(|w| w[0] < w[1]) {
            canonical.sort_unstable();
            canonical.dedup();
        }
        self.indexes
            .get_or_build_cols(rel, &canonical, &self.relations[rel.index()])
    }

    /// The registered composite column sets of `rel` (diagnostics and
    /// tests).
    pub fn indexed_column_sets(&self, rel: RelId) -> Vec<Vec<u32>> {
        self.indexes.registered_col_sets(rel)
    }

    /// Apply an atom-level [`Delta`]: remove `delta.removed`, insert
    /// `delta.inserted`. Atoms already absent/present are skipped (set
    /// semantics). Indexes are maintained.
    pub fn apply_delta(&mut self, delta: &Delta) {
        self.apply(
            delta.inserted.iter().cloned(),
            delta.removed.iter().cloned(),
        );
    }

    /// Undo [`Instance::apply_delta`]: re-insert `delta.removed`, remove
    /// `delta.inserted`. Only exact (apply, revert) pairs round-trip: the
    /// caller must not interleave other mutations of the same atoms.
    pub fn revert_delta(&mut self, delta: &Delta) {
        self.apply(
            delta.removed.iter().cloned(),
            delta.inserted.iter().cloned(),
        );
    }

    /// `self` with `delta` applied, as a new instance: how a repair is
    /// built from its Δ. Every relation `delta` leaves alone is shared with
    /// `self`, and each one it touches is copied once. Unlike a clone
    /// followed by [`Instance::apply_delta`], the result registers no
    /// index, so none of `self`'s indexes is copied. `delta` must be over
    /// `self` (see [`crate::diff::repair_order`]).
    pub fn with_delta(&self, delta: &Delta) -> Instance {
        let mut relations = self.relations.clone();
        let mut changed = false;
        for a in &delta.removed {
            changed |= Arc::make_mut(&mut relations[a.rel.index()]).remove(&a.tuple);
        }
        for a in &delta.inserted {
            changed |= Arc::make_mut(&mut relations[a.rel.index()]).insert(a.tuple.clone());
        }
        Instance {
            schema: self.schema.clone(),
            relations,
            indexes: IndexStore::default(),
            version: if changed {
                fresh_version()
            } else {
                self.version
            },
        }
    }

    /// The extension of a relation, by name.
    pub fn relation_named(&self, name: &str) -> Result<&Relation, RelationalError> {
        Ok(self.relation(self.schema.require(name)?))
    }

    /// Total number of tuples across all relations.
    pub fn len(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// `true` iff the instance holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.relations.iter().all(|r| r.is_empty())
    }

    /// Iterate over every atom, relation by relation, in deterministic order.
    pub fn atoms(&self) -> impl Iterator<Item = DatabaseAtom> + '_ {
        self.relations.iter().enumerate().flat_map(|(i, rel)| {
            rel.iter()
                .map(move |t| DatabaseAtom::new(RelId(i as u32), t.clone()))
        })
    }

    /// The active domain `adom(D)`: every constant occurring in the
    /// instance, including `null` if present (Proposition 1 adds `null`
    /// explicitly, so callers that need it add it themselves).
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for rel in self.relations.iter() {
            for t in rel.iter() {
                for v in t.values() {
                    dom.insert(*v);
                }
            }
        }
        dom
    }

    /// Functional update: a copy with `atom` added.
    pub fn with_atom(&self, atom: &DatabaseAtom) -> Instance {
        let mut next = self.clone();
        if Arc::make_mut(&mut next.relations[atom.rel.index()]).insert(atom.tuple.clone()) {
            next.indexes.note_insert(atom.rel, &atom.tuple);
            next.version = fresh_version();
        }
        next
    }

    /// Functional update: a copy with `atom` removed.
    pub fn without_atom(&self, atom: &DatabaseAtom) -> Instance {
        let mut next = self.clone();
        if Arc::make_mut(&mut next.relations[atom.rel.index()]).remove(&atom.tuple) {
            next.indexes.note_remove(atom.rel, &atom.tuple);
            next.version = fresh_version();
        }
        next
    }

    /// Apply a batch of insertions and deletions in place.
    pub fn apply(
        &mut self,
        insert: impl IntoIterator<Item = DatabaseAtom>,
        delete: impl IntoIterator<Item = DatabaseAtom>,
    ) {
        for a in delete {
            self.remove(a.rel, &a.tuple);
        }
        for a in insert {
            let _ = self.insert(a.rel, a.tuple);
        }
    }

    /// `true` iff both instances share (pointer- or value-) equal schemas.
    pub fn same_schema(&self, other: &Instance) -> bool {
        Arc::ptr_eq(&self.schema, &other.schema) || self.schema == other.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{i, null, s};

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .relation("P", ["a", "b"])
            .relation("R", ["x"])
            .finish()
            .unwrap()
            .into_shared()
    }

    fn p(inst: &Instance) -> RelId {
        inst.schema().rel_id("P").unwrap()
    }

    #[test]
    fn insert_and_contains() {
        let mut d = Instance::empty(schema());
        assert!(d.insert_named("P", [s("a"), null()]).unwrap());
        assert!(!d.insert_named("P", [s("a"), null()]).unwrap()); // set semantics
        let atom = DatabaseAtom::new(p(&d), Tuple::new(vec![s("a"), null()]));
        assert!(d.contains(&atom));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn arity_checked_on_insert() {
        let mut d = Instance::empty(schema());
        let err = d.insert_named("P", [s("a")]).unwrap_err();
        assert!(matches!(err, RelationalError::ArityMismatch { .. }));
    }

    #[test]
    fn unknown_relation_rejected() {
        let mut d = Instance::empty(schema());
        assert!(d.insert_named("Z", [s("a")]).is_err());
    }

    #[test]
    fn active_domain_collects_all_constants_including_null() {
        let mut d = Instance::empty(schema());
        d.insert_named("P", [s("a"), null()]).unwrap();
        d.insert_named("R", [i(7)]).unwrap();
        let dom = d.active_domain();
        assert!(dom.contains(&null()));
        assert!(dom.contains(&s("a")));
        assert!(dom.contains(&i(7)));
        assert_eq!(dom.len(), 3);
    }

    #[test]
    fn functional_updates_do_not_mutate() {
        let mut d = Instance::empty(schema());
        d.insert_named("R", [i(1)]).unwrap();
        let a = DatabaseAtom::new(d.schema().rel_id("R").unwrap(), Tuple::new(vec![i(2)]));
        let d2 = d.with_atom(&a);
        assert_eq!(d.len(), 1);
        assert_eq!(d2.len(), 2);
        let d3 = d2.without_atom(&a);
        assert_eq!(d3, d);
    }

    #[test]
    fn atoms_iterates_in_deterministic_order() {
        let mut d = Instance::empty(schema());
        d.insert_named("P", [s("b"), s("c")]).unwrap();
        d.insert_named("P", [s("a"), s("z")]).unwrap();
        d.insert_named("R", [i(1)]).unwrap();
        let atoms: Vec<String> = d
            .atoms()
            .map(|a| a.display(d.schema()).to_string())
            .collect();
        assert_eq!(atoms, vec!["P(a, z)", "P(b, c)", "R(1)"]);
    }

    #[test]
    fn from_atoms_roundtrip() {
        let mut d = Instance::empty(schema());
        d.insert_named("P", [s("a"), s("b")]).unwrap();
        d.insert_named("R", [i(3)]).unwrap();
        let rebuilt = Instance::from_atoms(d.schema().clone(), d.atoms()).unwrap();
        assert_eq!(rebuilt, d);
    }

    #[test]
    fn from_relations_bulk_loads_and_validates() {
        let sc = schema();
        let mut d = Instance::empty(sc.clone());
        d.insert_named("P", [s("a"), s("b")]).unwrap();
        d.insert_named("R", [i(3)]).unwrap();
        // Rebuilding from the raw relation sets reproduces the instance.
        let rels: Vec<Relation> = sc.rel_ids().map(|id| d.relation(id).clone()).collect();
        let bulk = Instance::from_relations(sc.clone(), rels).unwrap();
        assert_eq!(bulk, d);
        // Wrong relation count and wrong arity are rejected.
        assert!(matches!(
            Instance::from_relations(sc.clone(), vec![Relation::new()]),
            Err(RelationalError::SchemaMismatch)
        ));
        let bad: Vec<Relation> = vec![
            [Tuple::new(vec![s("only-one")])].into_iter().collect(),
            Relation::new(),
        ];
        assert!(matches!(
            Instance::from_relations(sc, bad),
            Err(RelationalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn version_stamps_track_content_mutation() {
        let mut d = Instance::empty(schema());
        let v0 = d.version();
        let fork = d.clone();
        assert_eq!(fork.version(), v0); // clones share the stamp…
        d.insert_named("R", [i(1)]).unwrap();
        assert_ne!(d.version(), v0); // …until a mutation
        assert_eq!(fork.version(), v0);
        let v1 = d.version();
        assert!(!d.insert_named("R", [i(1)]).unwrap());
        assert_eq!(d.version(), v1); // content no-ops keep the stamp
        let r = d.schema().rel_id("R").unwrap();
        assert!(!d.remove(r, &Tuple::new(vec![i(9)])));
        assert_eq!(d.version(), v1);
        d.remove(r, &Tuple::new(vec![i(1)]));
        assert_ne!(d.version(), v1);
        // Functional updates stamp the copy, not the original.
        let a = DatabaseAtom::new(r, Tuple::new(vec![i(2)]));
        let v2 = d.version();
        let with = d.with_atom(&a);
        assert_eq!(d.version(), v2);
        assert_ne!(with.version(), v2);
        assert_ne!(with.without_atom(&a).version(), with.version());
        // Distinct instances never share a stamp, even when content-equal.
        assert_ne!(
            Instance::empty(schema()).version(),
            Instance::empty(schema()).version()
        );
    }

    #[test]
    fn with_delta_shares_untouched_relations_and_registers_no_index() {
        let mut d = Instance::empty(schema());
        d.insert_named("P", [s("a"), s("b")]).unwrap();
        d.insert_named("R", [i(1)]).unwrap();
        let (p, r) = (p(&d), d.schema().rel_id("R").unwrap());
        d.index_on(r, 0);
        let mut delta = Delta::deletion(DatabaseAtom::new(r, Tuple::new(vec![i(1)])));
        delta
            .inserted
            .insert(DatabaseAtom::new(r, Tuple::new(vec![i(2)])));
        let repair = d.with_delta(&delta);
        let mut oracle = d.clone();
        oracle.apply_delta(&delta);
        assert_eq!(repair, oracle);
        assert!(std::ptr::eq(repair.relation(p), d.relation(p)));
        assert!(repair.indexed_columns(r).is_empty());
        assert_ne!(repair.version(), d.version());
        // An empty Δ changes nothing, so the stamp may stay.
        assert_eq!(d.with_delta(&Delta::default()).version(), d.version());
    }

    #[test]
    fn apply_batches_insertions_and_deletions() {
        let mut d = Instance::empty(schema());
        d.insert_named("R", [i(1)]).unwrap();
        let r = d.schema().rel_id("R").unwrap();
        let del = DatabaseAtom::new(r, Tuple::new(vec![i(1)]));
        let ins = DatabaseAtom::new(r, Tuple::new(vec![i(2)]));
        d.apply([ins.clone()], [del.clone()]);
        assert!(d.contains(&ins));
        assert!(!d.contains(&del));
    }
}
