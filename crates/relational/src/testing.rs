//! Deterministic pseudo-random generators for cross-crate tests and
//! benchmarks.
//!
//! Kept dependency-free (a small xorshift PRNG) so that downstream crates
//! can generate reproducible instances in unit tests without pulling `rand`
//! into their non-dev dependency graph. Property-based tests use `proptest`
//! strategies built on top of these primitives in each crate's own test
//! code.

use crate::atom::DatabaseAtom;
use crate::diff::Delta;
use crate::instance::Instance;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::sync::Arc;

/// Compile-time witness that `T` may cross a thread boundary. Used in
/// `const` blocks so a type losing `Send` fails the *build*, not a test:
/// callers move a `Database` (and the `Instance` and `IcSet` inside it)
/// to another thread, as `tests/cancellation.rs` does.
pub const fn assert_send<T: Send>() {}

/// Compile-time witness that `&T` may be shared across threads: callers
/// share a `Database`'s `Instance` and `IcSet` between threads by
/// reference.
pub const fn assert_sync<T: Sync>() {}

// The relational substrate must stay thread-safe: callers share
// instances across threads, and every clone probes its (lazily built,
// `RwLock`-guarded) index registries.
const _: () = {
    assert_send::<Delta>();
    assert_sync::<Delta>();
    assert_send::<Instance>();
    assert_sync::<Instance>();
    assert_send::<DatabaseAtom>();
    assert_sync::<DatabaseAtom>();
    assert_send::<Tuple>();
    assert_sync::<Tuple>();
    assert_send::<Value>();
    assert_sync::<Value>();
};

/// A tiny deterministic xorshift64* PRNG.
#[derive(Debug, Clone)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// Seeded constructor; seed 0 is remapped to a fixed non-zero value.
    pub fn new(seed: u64) -> Self {
        XorShift {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `0..bound` (`bound` must be > 0).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Bernoulli draw with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

/// A small constant pool: `k` string constants `c0..c{k-1}` plus `null` with
/// the given per-position probability (as a percentage).
#[derive(Debug, Clone)]
pub struct DomainSpec {
    /// Number of distinct non-null constants.
    pub constants: usize,
    /// Percentage (0–100) of positions that receive `null`.
    pub null_percent: u64,
}

impl Default for DomainSpec {
    fn default() -> Self {
        DomainSpec {
            constants: 4,
            null_percent: 15,
        }
    }
}

impl DomainSpec {
    /// Draw one value.
    pub fn draw(&self, rng: &mut XorShift) -> Value {
        if self.null_percent > 0 && rng.chance(self.null_percent, 100) {
            Value::Null
        } else {
            Value::str(format!("c{}", rng.below(self.constants.max(1))))
        }
    }
}

/// Generate a random instance with up to `tuples_per_relation` tuples in
/// each relation (duplicates collapse under set semantics, so relations may
/// end up smaller).
pub fn random_instance(
    schema: &Arc<Schema>,
    seed: u64,
    tuples_per_relation: usize,
    domain: &DomainSpec,
) -> Instance {
    let mut rng = XorShift::new(seed);
    let mut inst = Instance::empty(schema.clone());
    for (rel, decl) in schema.iter() {
        for _ in 0..tuples_per_relation {
            let tuple: Tuple = (0..decl.arity()).map(|_| domain.draw(&mut rng)).collect();
            inst.insert(rel, tuple)
                .expect("generated arity matches schema");
        }
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    #[test]
    fn prng_is_deterministic() {
        let mut a = XorShift::new(7);
        let mut b = XorShift::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = XorShift::new(1);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn random_instance_is_reproducible_and_bounded() {
        let schema = Schema::builder()
            .relation("P", ["a", "b"])
            .relation("R", ["x"])
            .finish()
            .unwrap()
            .into_shared();
        let spec = DomainSpec::default();
        let d1 = random_instance(&schema, 42, 10, &spec);
        let d2 = random_instance(&schema, 42, 10, &spec);
        assert_eq!(d1, d2);
        for rel in schema.rel_ids() {
            assert!(d1.relation(rel).len() <= 10);
        }
    }

    #[test]
    fn null_percent_zero_never_draws_null() {
        let schema = Schema::builder()
            .relation("P", ["a", "b", "c"])
            .finish()
            .unwrap()
            .into_shared();
        let spec = DomainSpec {
            constants: 3,
            null_percent: 0,
        };
        let d = random_instance(&schema, 5, 50, &spec);
        assert!(d.atoms().all(|a| !a.has_null()));
    }

    #[test]
    fn null_percent_hundred_draws_only_null() {
        let schema = Schema::builder()
            .relation("P", ["a"])
            .finish()
            .unwrap()
            .into_shared();
        let spec = DomainSpec {
            constants: 3,
            null_percent: 100,
        };
        let d = random_instance(&schema, 5, 10, &spec);
        assert!(d.atoms().all(|a| a.tuple.all_null()));
    }
}
