//! Global string interning: `Symbol` ids behind a sharded, append-only
//! table.
//!
//! Every string constant of the domain is interned exactly once for the
//! lifetime of the process and identified by a dense `u32` id. This is
//! what makes the workspace's hot paths integer-only:
//!
//! * **Equality and hashing are id operations.** `Symbol: Copy + Eq +
//!   Hash` compares and hashes the `u32`, never the characters — an index
//!   probe on an interned value costs the same whether the constant is 3
//!   or 3000 bytes long (pinned by the `value_probe` bench group).
//! * **Ordering stays lexicographic.** The repair machinery iterates
//!   `BTreeSet`s everywhere and the whole test suite pins enumeration
//!   order to string order, so `Ord` is exactly `str` order. Total order
//!   consistency with `Eq` holds because the interner never assigns two
//!   ids to one string.
//!
//!   Each symbol carries an *order prefix*: its first 8 bytes, read as a
//!   big-endian integer, zero-padded past the end of a shorter string.
//!   Two prefixes that differ order their strings the way `str` does —
//!   the first differing byte decides, and a padded zero sorts below any
//!   real byte it meets, exactly as a shorter string sorts before its
//!   extensions. Only a tie (equal first 8 bytes, or a shorter string
//!   whose padding meets NUL bytes) falls back to the text. When does a
//!   comparison still touch string content? The ordering table (pinned by
//!   the `symbol_ord` micro-benchmark):
//!
//!   | case                            | cost                                  |
//!   |---------------------------------|---------------------------------------|
//!   | equal ids                       | one `u32` compare — no table access   |
//!   | distinct ids, prefixes differ   | two lock-free prefix loads + one `u64` compare |
//!   | distinct ids, prefixes tie      | the above + two lock-free resolves + a walk of the shared bytes |
//!
//!   Equal ids dominate B-tree *probes* (searching for a value that is
//!   present ends on the equal fast path), and distinct constants of
//!   realistic data usually differ within their first 8 bytes, so
//!   relations, index buckets, grounder maps and Δ/answer sets rarely
//!   read string bytes. Constants that share a long common prefix still
//!   walk it. Id-ordered B-trees would drop even those touches (ROADMAP,
//!   deferred "id-ordered secondary indexes") — as long as enumeration
//!   order is pinned to string order, lexicographic order is part of the
//!   workspace's observable semantics and this residual is a deliberate
//!   cost.
//!
//! Layout: lookups go through `SHARD_COUNT` independently locked
//! `str → Symbol` maps (the write path is only taken the *first* time a
//! string is seen); comparison and resolution go through a lock-free
//! chunked table whose slots hold each string's order prefix beside a
//! pointer to its text, both published with release stores before the id
//! becomes observable, so `Symbol::cmp` and `Symbol::as_str` never touch
//! a lock. Interned strings are intentionally leaked: the table is
//! global, append-only and lives for the whole process, exactly like the
//! symbol tables of the dictionary-encoded CQA evaluators this design
//! follows.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// An interned string constant: a dense id into the global symbol table.
///
/// `Eq`/`Hash` are id comparisons; `Ord` is exactly `str` order on the
/// text, decided by the 8-byte order prefix unless two prefixes tie
/// (equal ids short-circuit to `Equal` without touching the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Intern `text`, returning its unique id (allocating one on first
    /// sight, O(1) lock-free-read afterwards).
    pub fn intern(text: &str) -> Symbol {
        interner().intern(text)
    }

    /// The interned text. `'static`: the table is append-only and
    /// process-lived.
    pub fn as_str(self) -> &'static str {
        interner().resolve(self)
    }

    /// The raw id (diagnostics; dense from 0 in interning order).
    pub fn id(self) -> u32 {
        self.0
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        let table = interner();
        let (a, b) = (table.slot(*self), table.slot(*other));
        match a.prefix().cmp(&b.prefix()) {
            std::cmp::Ordering::Equal => a.text().cmp(b.text()),
            decided => decided,
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Number of lookup shards (a power of two; the shard of a string is the
/// low bits of its hash).
const SHARD_COUNT: usize = 16;
/// Entries per resolution chunk.
const CHUNK_SIZE: usize = 1 << 12;
/// Maximum number of chunks (caps the table at ~16.7M symbols).
const MAX_CHUNKS: usize = 1 << 12;

/// One resolution slot: a string's order prefix beside a thin pointer to
/// its leaked `String` (a fat `*mut str` cannot be stored atomically).
/// Both are written once, before the id is published, and never change.
struct Slot {
    prefix: AtomicU64,
    text: AtomicPtr<String>,
}

impl Slot {
    /// The order prefix (see the module docs).
    fn prefix(&self) -> u64 {
        // Acquire pairs with the Release store in `Interner::intern`.
        self.prefix.load(Ordering::Acquire)
    }

    fn text(&self) -> &'static str {
        // Acquire pairs with the Release store in `Interner::intern`, so
        // the leaked `String` it points to is fully written.
        let entry = self.text.load(Ordering::Acquire);
        assert!(!entry.is_null(), "resolve of unknown symbol");
        // SAFETY: a non-null entry points to a `String` leaked by
        // `Interner::intern` (never freed, never mutated after the store).
        unsafe { (*entry).as_str() }
    }
}

/// The first 8 bytes of `text` as a big-endian integer, zero-padded:
/// distinct prefixes order their strings exactly as `str::cmp` does.
fn order_prefix(text: &str) -> u64 {
    let mut bytes = [0u8; 8];
    let n = text.len().min(8);
    bytes[..n].copy_from_slice(&text.as_bytes()[..n]);
    u64::from_be_bytes(bytes)
}

type Chunk = [Slot; CHUNK_SIZE];

struct Interner {
    /// `str → Symbol` lookup, sharded by string hash. Only interning of a
    /// *new* string takes a write lock.
    shards: [RwLock<HashMap<&'static str, Symbol>>; SHARD_COUNT],
    /// Append lock: serialises id allocation and chunk creation.
    append: Mutex<u32>,
    /// Resolution table: chunked array of slots (order prefix + leaked
    /// string pointer), published with release stores and read with
    /// acquire loads — no lock on the compare or resolve path.
    chunks: Box<[AtomicPtr<Chunk>]>,
}

fn interner() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        append: Mutex::new(0),
        chunks: (0..MAX_CHUNKS)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect(),
    })
}

/// Deterministic shard choice (`DefaultHasher` is keyless SipHash).
fn shard_of(text: &str) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    (h.finish() as usize) & (SHARD_COUNT - 1)
}

impl Interner {
    fn intern(&self, text: &str) -> Symbol {
        let shard = &self.shards[shard_of(text)];
        if let Some(&sym) = shard.read().expect("interner shard").get(text) {
            return sym;
        }
        let mut map = shard.write().expect("interner shard");
        if let Some(&sym) = map.get(text) {
            return sym; // raced: someone else interned it first
        }
        let leaked: &'static mut String = Box::leak(Box::new(text.to_owned()));
        let mut next = self.append.lock().expect("interner append");
        let id = *next;
        let (chunk_ix, slot) = (id as usize / CHUNK_SIZE, id as usize % CHUNK_SIZE);
        assert!(chunk_ix < MAX_CHUNKS, "symbol table full");
        let mut chunk = self.chunks[chunk_ix].load(Ordering::Acquire);
        if chunk.is_null() {
            let fresh: Box<Chunk> = Box::new(std::array::from_fn(|_| Slot {
                prefix: AtomicU64::new(0),
                text: AtomicPtr::new(std::ptr::null_mut()),
            }));
            chunk = Box::into_raw(fresh);
            self.chunks[chunk_ix].store(chunk, Ordering::Release);
        }
        // SAFETY: `chunk` is non-null and came from `Box::into_raw` above
        // or in an earlier call; chunks are never freed, so the reference
        // is valid for the process lifetime.
        let entry = unsafe { &(*chunk)[slot] };
        // Publish prefix and text before the id becomes observable.
        entry
            .prefix
            .store(order_prefix(leaked.as_str()), Ordering::Release);
        entry.text.store(leaked as *mut String, Ordering::Release);
        *next = id.checked_add(1).expect("symbol ids exhausted");
        drop(next);
        map.insert(leaked.as_str(), Symbol(id));
        Symbol(id)
    }

    /// The slot of an interned symbol.
    fn slot(&self, sym: Symbol) -> &'static Slot {
        let (chunk_ix, slot) = (sym.0 as usize / CHUNK_SIZE, sym.0 as usize % CHUNK_SIZE);
        let chunk = self.chunks[chunk_ix].load(Ordering::Acquire);
        assert!(!chunk.is_null(), "resolve of unknown symbol");
        // SAFETY: a non-null chunk pointer came from `Box::into_raw` in
        // `intern` and is never freed; `slot < CHUNK_SIZE` by construction.
        unsafe { &(*chunk)[slot] }
    }

    fn resolve(&self, sym: Symbol) -> &'static str {
        self.slot(sym).text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("idempotent-check");
        let b = Symbol::intern("idempotent-check");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "idempotent-check");
    }

    #[test]
    fn distinct_strings_get_distinct_ids() {
        let a = Symbol::intern("distinct-a");
        let b = Symbol::intern("distinct-b");
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn order_is_lexicographic_not_id_order() {
        // Intern in reverse lexicographic order: ids go up while the
        // lexicographic order goes the other way.
        let z = Symbol::intern("zzz-order-check");
        let a = Symbol::intern("aaa-order-check");
        assert!(a < z);
        assert!(z > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn empty_and_long_strings_roundtrip() {
        let empty = Symbol::intern("");
        assert_eq!(empty.as_str(), "");
        let long = "x".repeat(10_000);
        let sym = Symbol::intern(&long);
        assert_eq!(sym.as_str(), long);
    }

    /// Strings that stress the order prefix: the empty string, NUL bytes
    /// (which the prefix's zero padding must not confuse with the end of
    /// a shorter string), multi-byte UTF-8, shared prefixes of 0–16 bytes,
    /// and equal first 8 bytes with different lengths.
    fn prefix_corpus(tag: &str) -> Vec<String> {
        let mut out: Vec<String> = vec![
            String::new(),
            "\0".into(),
            "\0\0".into(),
            "\0a".into(),
            "a".into(),
            "a\0".into(),
            "a\0\0\0\0\0\0\0".into(),
            "a\0\0\0\0\0\0\0\0".into(),
            "a\0\0\0\0\0\0\0b".into(),
            "\u{7f}".into(),
            "é".into(),
            "éa".into(),
            "ü\0".into(),
            "日本".into(),
            "日本語".into(),
            "\u{10FFFF}".into(),
            "\u{FFFF}x".into(),
        ];
        let stems = ["", "k", "ab", "abcdefg", "abcdefgh", "abcdefghij", "é日"];
        let tails = ["", "\0", "a", "b", "é", "zz", "\0\0z"];
        for len in 0..=16 {
            let shared: String = format!("{tag}{}", "p".repeat(len));
            for t in tails {
                out.push(format!("{shared}{t}"));
            }
        }
        for stem in stems {
            for t in tails {
                out.push(format!("{stem}{t}"));
                out.push(format!("{stem}{stem}{t}"));
            }
        }
        // Equal first 8 bytes, lengths 8..=20.
        for len in 8..=20 {
            out.push(format!("{:q<len$}", "eightbyt"));
        }
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn prefix_order_equals_str_order() {
        use crate::testing::XorShift;
        for seed in 1..=4u64 {
            let mut corpus = prefix_corpus(&format!("pfx{seed}"));
            // Shuffle, so interning order is unrelated to string order.
            let mut rng = XorShift::new(seed);
            for i in (1..corpus.len()).rev() {
                corpus.swap(i, rng.below(i + 1));
            }
            let syms: Vec<Symbol> = corpus.iter().map(|t| Symbol::intern(t)).collect();
            for (a, ta) in syms.iter().zip(&corpus) {
                assert_eq!(a.as_str(), ta);
                for (b, tb) in syms.iter().zip(&corpus) {
                    assert_eq!(
                        a.cmp(b),
                        ta.as_str().cmp(tb),
                        "seed {seed}: {ta:?} vs {tb:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_interning_agrees() {
        // Every thread interns the same strings, each in its own rotation,
        // released together by a barrier so the interning races.
        const THREADS: usize = 8;
        let corpus = prefix_corpus("concurrent-");
        let barrier = std::sync::Barrier::new(THREADS);
        let results: Vec<Vec<Symbol>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (corpus, barrier) = (&corpus, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let n = corpus.len();
                        (0..n)
                            .map(|i| Symbol::intern(&corpus[(i + t * 7) % n]))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Same string always resolves to the same id across threads.
        let again: Vec<Symbol> = corpus.iter().map(|t| Symbol::intern(t)).collect();
        for (t, syms) in results.iter().enumerate() {
            let n = corpus.len();
            for (i, s) in syms.iter().enumerate() {
                assert_eq!(*s, again[(i + t * 7) % n]);
                assert_eq!(s.as_str(), corpus[(i + t * 7) % n]);
            }
        }
        // Symbols interned on different threads order as their text, and
        // every thread's symbols sort into the same (string) order.
        for (ta, a) in results[0].iter().zip(&results[THREADS - 1]) {
            for b in &results[1] {
                assert_eq!(ta.cmp(b), ta.as_str().cmp(b.as_str()));
                assert_eq!(a.cmp(b), a.as_str().cmp(b.as_str()));
            }
        }
        for syms in &results {
            let mut sorted = syms.clone();
            sorted.sort();
            let texts: Vec<&str> = sorted.iter().map(|s| s.as_str()).collect();
            assert_eq!(texts, corpus.iter().map(String::as_str).collect::<Vec<_>>());
        }
    }
}
