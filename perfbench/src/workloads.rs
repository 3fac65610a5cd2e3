//! The three workloads: how each builds its database, which operations it
//! issues, and the independent oracle its answers are checked against.
//!
//! Every workload is a seeded generator over a model of the data it has
//! written, so the same seed gives the same database and the same
//! operation stream. Operations are dealt in a fixed order per block, so
//! every block issues the mix exactly instead of drifting with the draws.

use cqa::core::query::{AnswerSemantics, QueryNullSemantics};
use cqa::core::{CqaCaches, ProgramStyle, RepairConfig};
use cqa::relational::testing::XorShift;
use cqa::relational::{Instance, Tuple, Value};
use cqa::{CancelToken, Database};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One operation issued through the `Database` facade.
#[derive(Debug, Clone)]
pub enum Op {
    /// `consistent_answers(query)`; `shape` says how the oracle checks it.
    Read {
        query: String,
        shape: Shape,
    },
    /// `repairs()` — the repair search.
    Repairs,
    /// `repairs_via_program()` — the Π(D, IC) route.
    ProgramRepairs,
    Insert(&'static str, Tuple),
    Delete(&'static str, Tuple),
}

/// What a read asks, for the workloads whose oracle works from the
/// generator's own state rather than from another answer route.
#[derive(Debug, Clone)]
pub enum Shape {
    /// `q(v) :- R('key', v).`
    Point(String),
    /// `q(k) :- R(k, 'value').`
    Select(String),
    /// `q(k, v) :- R(k, v).`
    Scan,
    /// Checked against another answer route.
    Query,
}

/// Latency class of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Repairs,
    Write,
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Read { .. } => Class::Read,
            Op::Repairs | Op::ProgramRepairs => Class::Repairs,
            Op::Insert(..) | Op::Delete(..) => Class::Write,
        }
    }

    fn read(query: String, shape: Shape) -> Op {
        Op::Read { query, shape }
    }
}

/// What an operation returned.
#[derive(Debug)]
pub enum Outcome {
    Answers(BTreeSet<Tuple>),
    Repairs(Vec<Instance>),
    Written(bool),
}

/// Where the timed set-up builds the database from.
#[derive(Debug, Clone)]
pub enum Source {
    /// A durable store directory, reopened with `Database::open`.
    Store(PathBuf),
    /// A SQL script, loaded with `Database::from_script`.
    Script(String),
}

impl Source {
    /// The timed part of set-up: build or open a database that can serve.
    pub fn open(&self) -> Result<Database, cqa::Error> {
        match self {
            Source::Store(dir) => Database::open(dir),
            Source::Script(script) => Database::from_script(script),
        }
    }
}

/// A workload ready to run: the untimed artefacts (a template store or a
/// script) plus the generator state that matches them.
pub struct Prepared {
    pub name: &'static str,
    template: Source,
    pub model: Model,
    /// Most timed set-ups per run; `setup_s` is the median of the quiet
    /// ones.
    pub setup_reps: usize,
    /// Length of the fixed operation script of the traced run.
    pub trace_ops: u64,
}

impl Prepared {
    /// A fresh copy of the template to open: stores are copied into their
    /// own directory under `work` (untimed), so every set-up replays the
    /// same WAL tail and a run's writes never reach the template.
    pub fn stage(&self, work: &Path, slot: &str) -> std::io::Result<Source> {
        match &self.template {
            Source::Store(template) => {
                let dir = work.join(slot);
                let _ = std::fs::remove_dir_all(&dir);
                copy_dir(template, &dir)?;
                Ok(Source::Store(dir))
            }
            Source::Script(_) => Ok(self.template.clone()),
        }
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Bytes of every file under `dir` (WAL plus manifest and segments).
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

pub const NAMES: [&str; 3] = ["register", "fk_nulls", "churn"];

/// Every operation of every `CHECK_EVERY`-th block (the first included) is
/// checked against the oracle, so each run checks every kind of operation.
pub const CHECK_EVERY: usize = 16;

/// Build workload `name` from `seed`, writing any template store under
/// `work`. `None` for an unknown name.
pub fn prepare(name: &str, seed: u64, work: &Path) -> Option<Result<Prepared, String>> {
    Some(match name {
        "register" => Register::prepare(seed, work),
        "fk_nulls" => FkNulls::prepare(seed),
        "churn" => Churn::prepare(seed, work),
        _ => return None,
    })
}

/// Write `tail` generated write operations through a fresh durable
/// database, so the template store ends with a WAL tail of that length.
fn write_template(
    dir: &Path,
    instance: Instance,
    constraints: cqa::constraints::IcSet,
    model: &mut Model,
    rng: &mut XorShift,
    tail: usize,
) -> Result<Source, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut db = Database::persistent(dir, instance, constraints).map_err(|e| e.to_string())?;
    for _ in 0..tail {
        let op = model.write_op(rng);
        match execute(&mut db, &op).map_err(|e| e.to_string())? {
            Outcome::Written(true) => {}
            other => return Err(format!("template write {op:?} returned {other:?}")),
        }
    }
    Ok(Source::Store(dir.to_path_buf()))
}

/// Run one operation through the facade: the only calls the untraced run
/// makes.
pub fn execute(db: &mut Database, op: &Op) -> Result<Outcome, cqa::Error> {
    Ok(match op {
        Op::Read { query, .. } => Outcome::Answers(db.consistent_answers(query)?),
        Op::Repairs => Outcome::Repairs(db.repairs()?),
        Op::ProgramRepairs => Outcome::Repairs(db.repairs_via_program()?),
        Op::Insert(rel, tuple) => Outcome::Written(db.insert(rel, tuple.clone())?),
        Op::Delete(rel, tuple) => Outcome::Written(db.delete(rel, tuple.clone())?),
    })
}

/// The fixed order of operation kinds in a block, as runs of
/// `(kind, count)`, dealt over and over. Every block issues the same kinds
/// in the same order; only the rows and keys they touch come from the seed.
/// A shuffled order would change from seed to seed how many reads follow a
/// write (and find the caches cold) and how many writes follow a read (and
/// copy the instance the caches still share), and the percentiles would
/// move with it.
#[derive(Debug, Clone)]
struct Deck<K: Copy + 'static> {
    spec: &'static [(K, usize)],
    /// Position in `spec` and within its run.
    run: usize,
    dealt: usize,
}

impl<K: Copy + 'static> Deck<K> {
    fn new(spec: &'static [(K, usize)]) -> Self {
        Deck {
            spec,
            run: 0,
            dealt: 0,
        }
    }

    fn draw(&mut self) -> K {
        let (kind, count) = self.spec[self.run];
        self.dealt += 1;
        if self.dealt == count {
            self.dealt = 0;
            self.run = (self.run + 1) % self.spec.len();
        }
        kind
    }

    fn at_block_start(&self) -> bool {
        self.run == 0 && self.dealt == 0
    }
}

/// The generator state of one workload.
#[derive(Debug, Clone)]
pub enum Model {
    Register(Register),
    FkNulls(FkNulls),
    Churn(Churn),
}

impl Model {
    pub fn next_op(&mut self, rng: &mut XorShift) -> Op {
        match self {
            Model::Register(m) => m.next_op(rng),
            Model::FkNulls(m) => m.next_op(),
            Model::Churn(m) => m.next_op(rng),
        }
    }

    /// Is the next operation the first of a block? Timed runs stop only
    /// there, so every run issues the mix exactly.
    pub fn at_block_start(&self) -> bool {
        match self {
            Model::Register(m) => m.deck.at_block_start(),
            Model::FkNulls(m) => m.deck.at_block_start(),
            Model::Churn(m) => m.deck.at_block_start(),
        }
    }

    fn write_op(&mut self, rng: &mut XorShift) -> Op {
        match self {
            Model::Register(m) => m.write_op(rng),
            Model::FkNulls(m) => m.write_op(),
            Model::Churn(m) => m.write_op(rng),
        }
    }

    /// Check `outcome` of `op` against this workload's oracle. Write
    /// operations are generated to change the database, so they must
    /// report `true`. `oracle` is a cache bundle of the checker's own, so
    /// checking never warms the caches the measured calls use.
    pub fn check(
        &self,
        db: &Database,
        op: &Op,
        outcome: &Outcome,
        oracle: &CqaCaches,
    ) -> Result<(), String> {
        match (self, op, outcome) {
            (_, Op::Insert(..) | Op::Delete(..), Outcome::Written(true)) => return Ok(()),
            (Model::Register(m), Op::Read { query, shape }, Outcome::Answers(got)) => {
                return agree(query, got, &m.answers(shape))
            }
            _ => {}
        }
        // The other oracles answer through another route, on a copy that
        // shares no storage with the measured database: a clone cached by
        // the oracle would make the next measured write pay a copy-on-write
        // that the workload never asked for.
        let copy = Instance::from_atoms(db.schema().clone(), db.instance().atoms())
            .map_err(|e| e.to_string())?;
        let db = &Database::new(copy, db.constraints().clone());
        match (op, outcome) {
            (Op::Read { query, .. }, Outcome::Answers(got)) => {
                let want = match self {
                    Model::Churn(_) => intersected_program_answers(db, query, oracle)?,
                    _ => program_answers(db, query, oracle)?,
                };
                agree(query, got, &want)
            }
            (Op::Repairs, Outcome::Repairs(got)) => {
                let want = program_repairs(db, oracle)?;
                if sorted_repairs(got) == sorted_repairs(&want) {
                    Ok(())
                } else {
                    Err(format!(
                        "repairs(): {} repairs, the program route finds {}",
                        got.len(),
                        want.len()
                    ))
                }
            }
            (Op::ProgramRepairs, Outcome::Repairs(got)) => match self {
                Model::Churn(m) => m.check_program_repairs(db, got, oracle),
                _ => Err("program repairs outside churn".to_string()),
            },
            (op, outcome) => Err(format!("{op:?} returned {outcome:?}")),
        }
    }
}

fn agree(query: &str, got: &BTreeSet<Tuple>, want: &BTreeSet<Tuple>) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{query}: {} answers, the oracle has {}",
            got.len(),
            want.len()
        ))
    }
}

/// Consistent answers by cautious reasoning over Π(D, IC) (Theorem 4).
fn program_answers(
    db: &Database,
    query: &str,
    oracle: &CqaCaches,
) -> Result<BTreeSet<Tuple>, String> {
    let q = cqa::sql::parse_query(db.schema(), query).map_err(|e| e.to_string())?;
    cqa::core::consistent_answers_via_program_governed(
        db.instance(),
        db.constraints(),
        &q,
        ProgramStyle::default(),
        AnswerSemantics::IncludeNullAnswers,
        oracle,
        &CancelToken::never(),
    )
    .map(|a| a.tuples)
    .map_err(|e| e.to_string())
}

fn program_repairs(db: &Database, oracle: &CqaCaches) -> Result<Vec<Instance>, String> {
    cqa::core::repairs_via_program_governed(
        db.instance(),
        db.constraints(),
        ProgramStyle::default(),
        false,
        oracle,
        &CancelToken::never(),
    )
    .map_err(|e| e.to_string())
}

/// Consistent answers as the intersection of the query over every repair
/// the program route finds.
fn intersected_program_answers(
    db: &Database,
    query: &str,
    oracle: &CqaCaches,
) -> Result<BTreeSet<Tuple>, String> {
    let q = cqa::sql::parse_query(db.schema(), query).map_err(|e| e.to_string())?;
    Ok(intersect(
        program_repairs(db, oracle)?
            .iter()
            .map(|r| q.eval_with(r, QueryNullSemantics::NullAsValue)),
    ))
}

fn intersect(mut sets: impl Iterator<Item = BTreeSet<Tuple>>) -> BTreeSet<Tuple> {
    let mut acc = sets.next().unwrap_or_default();
    for set in sets {
        acc.retain(|t| set.contains(t));
    }
    acc
}

fn sorted_repairs(repairs: &[Instance]) -> BTreeSet<Vec<cqa::relational::DatabaseAtom>> {
    repairs.iter().map(|r| r.atoms().collect()).collect()
}

fn s(text: &str) -> Value {
    Value::str(text)
}

fn text(v: &Value) -> String {
    v.as_str()
        .expect("generated values are strings")
        .to_string()
}

fn row(a: &str, b: &str) -> Tuple {
    Tuple::new([s(a), s(b)])
}

// ---------------------------------------------------------------- register

#[derive(Debug, Clone, Copy)]
enum RegKind {
    Point,
    Select,
    Scan,
    Write,
}

/// Persistent key-FD register `R(k, v)`: the FO-rewrite route plus durable
/// writes. The oracle is the generator's own key → values map.
#[derive(Debug, Clone)]
pub struct Register {
    deck: Deck<RegKind>,
    rows: Vec<(String, String)>,
    pos: BTreeMap<(String, String), usize>,
    by_key: BTreeMap<String, BTreeSet<String>>,
    by_value: BTreeMap<String, BTreeSet<String>>,
    conflicted: BTreeSet<String>,
    fresh: u64,
    points: u64,
}

impl Register {
    /// The open-time warm grows superlinearly with rows (0.5 s at 5k, 2.3 s
    /// at 10k): at 5k rows a run fits a dozen set-ups, enough for several
    /// of them to fall in quiet stretches of a shared host.
    const ROWS: usize = 5_000;
    const CONFLICTS: usize = 64;
    const WAL_TAIL: usize = 200;
    /// 11 point reads, 6 selections, 1 scan and 2 writes, spread out.
    const DECK: &'static [(RegKind, usize)] = &[
        (RegKind::Point, 2),
        (RegKind::Select, 1),
        (RegKind::Point, 2),
        (RegKind::Select, 1),
        (RegKind::Write, 1),
        (RegKind::Point, 2),
        (RegKind::Select, 1),
        (RegKind::Scan, 1),
        (RegKind::Point, 2),
        (RegKind::Select, 1),
        (RegKind::Point, 2),
        (RegKind::Select, 1),
        (RegKind::Write, 1),
        (RegKind::Point, 1),
        (RegKind::Select, 1),
    ];

    fn prepare(seed: u64, work: &Path) -> Result<Prepared, String> {
        let w = cqa_bench::fd_workload(Self::ROWS, Self::CONFLICTS, seed);
        let mut reg = Register {
            deck: Deck::new(Self::DECK),
            rows: Vec::new(),
            pos: BTreeMap::new(),
            by_key: BTreeMap::new(),
            by_value: BTreeMap::new(),
            conflicted: BTreeSet::new(),
            fresh: 0,
            points: 0,
        };
        for atom in w.instance.atoms() {
            let vals = atom.tuple.values();
            reg.add(text(&vals[0]), text(&vals[1]));
        }
        let mut model = Model::Register(reg);
        let mut rng = XorShift::new(seed ^ 0x7e61_5732);
        let template = write_template(
            &work.join("register-template"),
            w.instance,
            w.ics,
            &mut model,
            &mut rng,
            Self::WAL_TAIL,
        )?;
        Ok(Prepared {
            name: "register",
            template,
            model,
            setup_reps: 12,
            trace_ops: 4000,
        })
    }

    fn add(&mut self, k: String, v: String) {
        self.pos.insert((k.clone(), v.clone()), self.rows.len());
        self.rows.push((k.clone(), v.clone()));
        self.by_value
            .entry(v.clone())
            .or_default()
            .insert(k.clone());
        let values = self.by_key.entry(k.clone()).or_default();
        values.insert(v);
        if values.len() > 1 {
            self.conflicted.insert(k);
        }
    }

    fn remove(&mut self, index: usize) -> (String, String) {
        let (k, v) = self.rows.swap_remove(index);
        self.pos.remove(&(k.clone(), v.clone()));
        if let Some(moved) = self.rows.get(index) {
            self.pos.insert(moved.clone(), index);
        }
        if let Some(keys) = self.by_value.get_mut(&v) {
            keys.remove(&k);
        }
        let values = self.by_key.get_mut(&k).expect("live key");
        values.remove(&v);
        if values.len() < 2 {
            self.conflicted.remove(&k);
        }
        if values.is_empty() {
            self.by_key.remove(&k);
        }
        (k, v)
    }

    fn next_op(&mut self, rng: &mut XorShift) -> Op {
        match self.deck.draw() {
            RegKind::Point => {
                // Every eighth point read asks for a key in conflict.
                self.points += 1;
                let key = if self.points.is_multiple_of(8) && !self.conflicted.is_empty() {
                    let n = rng.below(self.conflicted.len());
                    self.conflicted.iter().nth(n).expect("in range").clone()
                } else {
                    self.rows[rng.below(self.rows.len())].0.clone()
                };
                Op::read(format!("q(v) :- R('{key}', v)."), Shape::Point(key))
            }
            RegKind::Select => {
                let value = self.rows[rng.below(self.rows.len())].1.clone();
                Op::read(format!("q(k) :- R(k, '{value}')."), Shape::Select(value))
            }
            RegKind::Scan => Op::read("q(k, v) :- R(k, v).".to_string(), Shape::Scan),
            RegKind::Write => self.write_op(rng),
        }
    }

    /// 45% a row under a new key, 45% deleting a live row, 10% a second
    /// value for a live key (a new key conflict).
    fn write_op(&mut self, rng: &mut XorShift) -> Op {
        self.fresh += 1;
        let roll = rng.below(100);
        if roll < 45 {
            let (k, v) = (format!("w{}", self.fresh), format!("v{}", rng.below(65536)));
            self.add(k.clone(), v.clone());
            Op::Insert("R", row(&k, &v))
        } else if roll < 90 {
            let (k, v) = self.remove(rng.below(self.rows.len()));
            Op::Delete("R", row(&k, &v))
        } else {
            let k = self.rows[rng.below(self.rows.len())].0.clone();
            let v = format!("x{}", self.fresh);
            self.add(k.clone(), v.clone());
            Op::Insert("R", row(&k, &v))
        }
    }

    /// Consistent answers under a key FD with no nulls: a row is in every
    /// repair iff its key has exactly one value.
    fn answers(&self, shape: &Shape) -> BTreeSet<Tuple> {
        let sole = |k: &str| -> Option<&String> {
            let values = self.by_key.get(k)?;
            (values.len() == 1).then(|| values.first().expect("non-empty"))
        };
        match shape {
            Shape::Point(k) => sole(k).map(|v| Tuple::new([s(v)])).into_iter().collect(),
            Shape::Select(v) => self.by_value.get(v).map_or_else(BTreeSet::new, |keys| {
                keys.iter()
                    .filter(|k| sole(k) == Some(v))
                    .map(|k| Tuple::new([s(k)]))
                    .collect()
            }),
            Shape::Scan => self
                .by_key
                .keys()
                .filter_map(|k| sole(k).map(|v| row(k, v)))
                .collect(),
            Shape::Query => unreachable!("register reads all have an oracle shape"),
        }
    }
}

// ---------------------------------------------------------------- fk_nulls

#[derive(Debug, Clone, Copy)]
enum FkKind {
    /// `q(x, y) :- R(x, y).` (quantifier-free)
    ScanR,
    /// `q(u, v) :- S(u, v).` (quantifier-free)
    ScanS,
    /// `q(x) :- R(x, y).` (existential)
    ProjectR,
    /// `q(u) :- S(u, v).` (existential)
    ProjectS,
    Join,
    Repairs,
    Write,
}

/// The paper's Example 19 scaled up, in memory: key + FK + NOT NULL, so
/// every read enumerates repairs, some of which insert nulls. Checked
/// against the program route (Theorem 4).
#[derive(Debug, Clone)]
pub struct FkNulls {
    deck: Deck<FkKind>,
    /// The row this generator inserted and has not deleted yet.
    written: Option<Tuple>,
    fresh: u64,
}

impl FkNulls {
    const CLEAN: usize = 800;
    /// 4 `ScanR`, 3 `ScanS`, 3 `ProjectR`, 3 `ProjectS`, 3 joins and 3
    /// `repairs()`, and 24 writes in four runs of six, each after a
    /// `ScanR`. Joins cost several times any other read, and three of
    /// sixteen reads put `read_p90_ms` well inside them. In-memory writes
    /// cost microseconds, so they barely move the run time. Each run of
    /// writes alternates insert and delete, starting with an insert. The
    /// first write after a read finds the caches cold and costs several
    /// times the next ones, and a warm insert costs less than a warm
    /// delete. So a sixth of the writes are cold inserts, all after the
    /// same read, a third warm inserts and a half warm deletes:
    /// `write_p50_ms` lies a third into the warm deletes and `write_p90_ms`
    /// well inside the cold inserts.
    const DECK: &'static [(FkKind, usize)] = &[
        (FkKind::ScanS, 1),
        (FkKind::ProjectR, 1),
        (FkKind::Repairs, 1),
        (FkKind::ScanR, 1),
        (FkKind::Write, 6),
        (FkKind::ProjectS, 1),
        (FkKind::Join, 1),
        (FkKind::ScanS, 1),
        (FkKind::ScanR, 1),
        (FkKind::Write, 6),
        (FkKind::ProjectR, 1),
        (FkKind::Repairs, 1),
        (FkKind::ProjectS, 1),
        (FkKind::ScanR, 1),
        (FkKind::Write, 6),
        (FkKind::Join, 1),
        (FkKind::ScanS, 1),
        (FkKind::ProjectR, 1),
        (FkKind::Repairs, 1),
        (FkKind::ProjectS, 1),
        (FkKind::Join, 1),
        (FkKind::ScanR, 1),
        (FkKind::Write, 6),
    ];

    fn prepare(seed: u64) -> Result<Prepared, String> {
        let w = cqa_bench::example19_scaled(Self::CLEAN, 4, 2, seed);
        // The same instance and constraints as a script, so set-up is the
        // facade's own load path.
        let mut script = String::from(
            "CREATE TABLE R (x TEXT PRIMARY KEY, y TEXT);\n\
             CREATE TABLE S (u TEXT, v TEXT, FOREIGN KEY (v) REFERENCES R(x));\n",
        );
        let schema = w.instance.schema().clone();
        for atom in w.instance.atoms() {
            let vals: Vec<String> = atom
                .tuple
                .values()
                .iter()
                .map(|v| match v.as_str() {
                    Some(t) => format!("'{t}'"),
                    None => "NULL".to_string(),
                })
                .collect();
            script.push_str(&format!(
                "INSERT INTO {} VALUES ({});\n",
                schema.relation(atom.rel).name(),
                vals.join(", ")
            ));
        }
        Ok(Prepared {
            name: "fk_nulls",
            template: Source::Script(script),
            model: Model::FkNulls(FkNulls {
                deck: Deck::new(Self::DECK),
                written: None,
                fresh: 0,
            }),
            setup_reps: 61,
            trace_ops: 86,
        })
    }

    fn next_op(&mut self) -> Op {
        // Whole-relation reads only, each template its own kind in the deck:
        // every block then holds the same reads, so the percentiles do not
        // hinge on which templates a run happened to draw.
        let query = match self.deck.draw() {
            FkKind::ScanR => "q(x, y) :- R(x, y).",
            FkKind::ScanS => "q(u, v) :- S(u, v).",
            FkKind::ProjectR => "q(x) :- R(x, y).",
            FkKind::ProjectS => "q(u) :- S(u, v).",
            FkKind::Join => "q(u, y) :- S(u, v), R(v, y).",
            FkKind::Repairs => return Op::Repairs,
            FkKind::Write => return self.write_op(),
        };
        Op::read(query.to_string(), Shape::Query)
    }

    /// Insert a clean `R` row, then delete it again, so the conflict
    /// structure (and the repair count) never changes. A run of writes
    /// of even length starts with an insert.
    fn write_op(&mut self) -> Op {
        match self.written.take() {
            Some(tuple) => Op::Delete("R", tuple),
            None => {
                self.fresh += 1;
                let tuple = row(&format!("w{}", self.fresh), "wy");
                self.written = Some(tuple.clone());
                Op::Insert("R", tuple)
            }
        }
    }
}

// ------------------------------------------------------------------- churn

#[derive(Debug, Clone, Copy)]
enum ChurnKind {
    Write,
    Program,
    Scan,
    Point,
}

/// Persistent deletion-only register: `r(k, v)` with a primary key, a
/// blocklist `b(v)` and the denial `r(k, v), b(v) -> false`. Writes touch
/// clean rows only, so the repairs stay fixed while every write makes the
/// next chase read and the next program call work on a new version.
/// Checked against the program route.
#[derive(Debug, Clone)]
pub struct Churn {
    deck: Deck<ChurnKind>,
    clean: Vec<(String, String)>,
    blocked_keys: Vec<String>,
    fresh: u64,
    points: u64,
}

impl Churn {
    const ROWS: usize = 2000;
    /// Blocked values that some row carries: 2^4 = 16 repairs.
    const HIT_BLOCKS: usize = 4;
    const KEYS_PER_BLOCK: usize = 2;
    const IDLE_BLOCKS: usize = 12;
    const WAL_TAIL: usize = 100;
    /// 10 writes, 5 `repairs_via_program()`, 3 scans and 2 point reads:
    /// three runs of writes, each followed by a chase read that finds the
    /// worklist cold.
    const DECK: &'static [(ChurnKind, usize)] = &[
        (ChurnKind::Write, 4),
        (ChurnKind::Scan, 1),
        (ChurnKind::Program, 1),
        (ChurnKind::Point, 1),
        (ChurnKind::Program, 1),
        (ChurnKind::Write, 3),
        (ChurnKind::Scan, 1),
        (ChurnKind::Program, 2),
        (ChurnKind::Write, 3),
        (ChurnKind::Point, 1),
        (ChurnKind::Program, 1),
        (ChurnKind::Scan, 1),
    ];
    pub const SCAN: &'static str = "q(k, v) :- r(k, v), not b(v).";

    fn prepare(seed: u64, work: &Path) -> Result<Prepared, String> {
        let mut db = Database::from_script(
            "CREATE TABLE r (k TEXT PRIMARY KEY, v TEXT);
             CREATE TABLE b (v TEXT);",
        )
        .map_err(|e| e.to_string())?;
        db.add_constraint("blocked", "r(k, v), b(v) -> false")
            .map_err(|e| e.to_string())?;
        let mut rng = XorShift::new(seed);
        let mut churn = Churn {
            deck: Deck::new(Self::DECK),
            clean: Vec::new(),
            blocked_keys: Vec::new(),
            fresh: 0,
            points: 0,
        };
        let mut rows = Vec::new();
        for block in 0..Self::HIT_BLOCKS {
            for i in 0..Self::KEYS_PER_BLOCK {
                let key = format!("x{block}_{i}");
                rows.push(row(&key, &format!("bad{block}")));
                churn.blocked_keys.push(key);
            }
        }
        for i in rows.len()..Self::ROWS {
            let (k, v) = (format!("k{i}"), format!("v{}", rng.below(500)));
            rows.push(row(&k, &v));
            churn.clean.push((k, v));
        }
        let blocks = (0..Self::HIT_BLOCKS + Self::IDLE_BLOCKS).map(|i| [s(&format!("bad{i}"))]);
        db.insert_many("r", rows).map_err(|e| e.to_string())?;
        db.insert_many("b", blocks).map_err(|e| e.to_string())?;
        let mut model = Model::Churn(churn);
        let template = write_template(
            &work.join("churn-template"),
            db.instance().clone(),
            db.constraints().clone(),
            &mut model,
            &mut rng,
            Self::WAL_TAIL,
        )?;
        Ok(Prepared {
            name: "churn",
            template,
            model,
            setup_reps: 25,
            trace_ops: 300,
        })
    }

    fn next_op(&mut self, rng: &mut XorShift) -> Op {
        match self.deck.draw() {
            ChurnKind::Write => self.write_op(rng),
            ChurnKind::Program => Op::ProgramRepairs,
            ChurnKind::Scan => Op::read(Self::SCAN.to_string(), Shape::Query),
            ChurnKind::Point => {
                // Every fourth point read asks for a blocked key.
                self.points += 1;
                let key = if self.points.is_multiple_of(4) {
                    self.blocked_keys[rng.below(self.blocked_keys.len())].clone()
                } else {
                    self.clean[rng.below(self.clean.len())].0.clone()
                };
                Op::read(format!("q(v) :- r('{key}', v), not b(v)."), Shape::Query)
            }
        }
    }

    /// Insert a clean row under a new key or delete a random clean row,
    /// with equal odds.
    fn write_op(&mut self, rng: &mut XorShift) -> Op {
        if rng.below(2) == 0 {
            self.fresh += 1;
            let (k, v) = (format!("c{}", self.fresh), format!("v{}", rng.below(500)));
            self.clean.push((k.clone(), v.clone()));
            Op::Insert("r", row(&k, &v))
        } else {
            let (k, v) = self.clean.swap_remove(rng.below(self.clean.len()));
            Op::Delete("r", row(&k, &v))
        }
    }

    /// The program route must find one repair per choice of keeping or
    /// dropping each hit block, and the rows they all keep must be exactly
    /// the rows the chase calls sure.
    fn check_program_repairs(
        &self,
        db: &Database,
        got: &[Instance],
        oracle: &CqaCaches,
    ) -> Result<(), String> {
        let want = 1 << Self::HIT_BLOCKS;
        if got.len() != want {
            return Err(format!(
                "repairs_via_program(): {} repairs, expected {want}",
                got.len()
            ));
        }
        let all_rows = "q(k, v) :- r(k, v).";
        let q = cqa::sql::parse_query(db.schema(), all_rows).map_err(|e| e.to_string())?;
        let chase = cqa::core::consistent_answers_governed(
            db.instance(),
            db.constraints(),
            &q,
            RepairConfig::default(),
            AnswerSemantics::IncludeNullAnswers,
            QueryNullSemantics::NullAsValue,
            oracle,
            &CancelToken::never(),
        )
        .map_err(|e| e.to_string())?;
        let kept = intersect(
            got.iter()
                .map(|r| q.eval_with(r, QueryNullSemantics::NullAsValue)),
        );
        agree(all_rows, &chase.tuples, &kept)
    }
}
