//! Byte-level encoding shared by the WAL and the snapshot: fixed-width
//! little-endian primitives, length-prefixed strings, CRC32, and the
//! symbol-remapping value codec.
//!
//! ## Symbol remapping
//!
//! [`Symbol`] ids are *process-local*: the global
//! interner assigns dense `u32`s in first-sight order, so the id of
//! `"alice"` in the process that wrote a file tells the process that
//! reads it nothing. Every serialized section that contains values
//! therefore carries its own **symbol table** — the strings of the
//! symbols it references, in *file-local* dense id order — and values
//! encode file-local ids. The writer side is [`SymbolSink`] (assigns
//! local ids in first-use order); the reader side is [`SymbolSource`]
//! (re-interns each string through the *current* process's interner and
//! maps local id → live [`Symbol`]). Ordering is unaffected by the
//! remap because `Symbol`'s `Ord` is lexicographic on the resolved text,
//! never on the id — the `symbol_roundtrip` property suite pins this.

use crate::error::StorageError;
use cqa_constraints::{CmpOp, Constraint, Ic, IcAtom, IcSet, Nnc, Term, TermSpec};
use cqa_relational::{DatabaseAtom, InstanceDelta, RelId, Schema, Symbol, Tuple, Value};
use std::collections::HashMap;

/// Sanity cap on any single length-prefixed section (strings, frames,
/// tuple arities). A corrupted length field must never drive a
/// multi-gigabyte allocation; real payloads are orders of magnitude
/// smaller.
pub const MAX_SECTION_LEN: u32 = 1 << 30;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------

/// The 256-entry CRC32 lookup table, computed at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------

/// An append-only byte buffer with fixed-width little-endian primitives.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append raw bytes (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// A checked cursor over encoded bytes. Every read is bounds-checked and
/// returns [`StorageError::Corrupt`] on over-run — decoding attacker- or
/// crash-mangled bytes must never panic.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Which artifact is being decoded, for error context.
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A cursor over `buf`; `what` names the artifact in error messages.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { buf, pos: 0, what }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` iff the cursor consumed every byte.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.remaining() < n {
            return Err(StorageError::corrupt(
                self.what,
                format!(
                    "section truncated: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.remaining()
                ),
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a little-endian `u32` used as a count/length, enforcing the
    /// [`MAX_SECTION_LEN`] sanity cap.
    pub fn len_u32(&mut self) -> Result<u32, StorageError> {
        let v = self.u32()?;
        if v > MAX_SECTION_LEN {
            return Err(StorageError::corrupt(
                self.what,
                format!("implausible length {v} (cap {MAX_SECTION_LEN})"),
            ));
        }
        Ok(v)
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, StorageError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, StorageError> {
        let len = self.len_u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|e| StorageError::corrupt(self.what, format!("invalid UTF-8: {e}")))
    }
}

// ---------------------------------------------------------------------
// Symbol table: file-local dense ids ↔ live process symbols
// ---------------------------------------------------------------------

/// Writer-side symbol table: assigns *file-local* dense ids in first-use
/// order. Encode values against the sink first, then emit the table with
/// [`SymbolSink::encode_table`] — the table must precede the values in
/// the final layout, so sections are assembled table-first from two
/// buffers.
#[derive(Debug, Default)]
pub struct SymbolSink {
    ids: HashMap<Symbol, u32>,
    order: Vec<Symbol>,
}

impl SymbolSink {
    /// A fresh, empty table.
    pub fn new() -> Self {
        SymbolSink::default()
    }

    /// The file-local id of `sym`, assigning the next dense id on first
    /// use.
    pub fn local_id(&mut self, sym: Symbol) -> u32 {
        *self.ids.entry(sym).or_insert_with(|| {
            let id = self.order.len() as u32;
            self.order.push(sym);
            id
        })
    }

    /// Emit the table: count, then each symbol's string in local-id
    /// order (the id is implicit in the position).
    pub fn encode_table(&self, w: &mut Writer) {
        w.u32(self.order.len() as u32);
        for sym in &self.order {
            w.str(sym.as_str());
        }
    }

    /// Encode a value, interning strings into this table.
    pub fn value(&mut self, w: &mut Writer, v: &Value) {
        match v {
            Value::Null => w.u8(0),
            Value::Int(i) => {
                w.u8(1);
                w.i64(*i);
            }
            Value::Sym(s) => {
                let id = self.local_id(*s);
                w.u8(2);
                w.u32(id);
            }
        }
    }

    /// Encode a tuple: arity, then values.
    pub fn tuple(&mut self, w: &mut Writer, t: &Tuple) {
        w.u32(t.arity() as u32);
        for v in t.values() {
            self.value(w, v);
        }
    }

    /// Encode a database atom: relation index, then tuple.
    pub fn atom(&mut self, w: &mut Writer, a: &DatabaseAtom) {
        w.u32(a.rel.0);
        self.tuple(w, &a.tuple);
    }
}

/// Reader-side symbol table: re-interns every persisted string through
/// the *current* process's interner, mapping file-local ids to live
/// [`Symbol`]s. This is the remap step that makes persisted `Sym` values
/// meaningful across processes.
#[derive(Debug)]
pub struct SymbolSource {
    symbols: Vec<Symbol>,
}

impl SymbolSource {
    /// Decode a table emitted by [`SymbolSink::encode_table`].
    pub fn decode_table(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        let count = r.len_u32()? as usize;
        let mut symbols = Vec::with_capacity(count);
        for _ in 0..count {
            symbols.push(Symbol::intern(r.str()?));
        }
        Ok(SymbolSource { symbols })
    }

    /// The live symbol for a file-local id.
    pub fn resolve(&self, local: u32, what: &'static str) -> Result<Symbol, StorageError> {
        self.symbols.get(local as usize).copied().ok_or_else(|| {
            StorageError::corrupt(
                what,
                format!(
                    "symbol id {local} out of range (table has {})",
                    self.symbols.len()
                ),
            )
        })
    }

    /// Decode a value.
    pub fn value(&self, r: &mut Reader<'_>) -> Result<Value, StorageError> {
        match r.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(r.i64()?)),
            2 => {
                let local = r.u32()?;
                Ok(Value::Sym(self.resolve(local, "value")?))
            }
            tag => Err(StorageError::corrupt(
                "value",
                format!("unknown value tag {tag}"),
            )),
        }
    }

    /// Decode a tuple.
    pub fn tuple(&self, r: &mut Reader<'_>) -> Result<Tuple, StorageError> {
        let arity = r.len_u32()? as usize;
        let mut values = Vec::with_capacity(arity.min(64));
        for _ in 0..arity {
            values.push(self.value(r)?);
        }
        Ok(Tuple::new(values))
    }

    /// Decode a database atom.
    pub fn atom(&self, r: &mut Reader<'_>) -> Result<DatabaseAtom, StorageError> {
        let rel = RelId(r.u32()?);
        let tuple = self.tuple(r)?;
        Ok(DatabaseAtom::new(rel, tuple))
    }
}

// ---------------------------------------------------------------------
// InstanceDelta payloads (the WAL frame body)
// ---------------------------------------------------------------------

/// Encode an [`InstanceDelta`] as a self-describing payload: its own
/// symbol table, then removed atoms, then added atoms. Self-describing
/// frames are what let a *new process* replay a WAL written by a dead
/// one.
pub fn encode_delta(delta: &InstanceDelta) -> Vec<u8> {
    let mut sink = SymbolSink::new();
    let mut body = Writer::new();
    body.u32(delta.removed.len() as u32);
    for a in &delta.removed {
        sink.atom(&mut body, a);
    }
    body.u32(delta.added.len() as u32);
    for a in &delta.added {
        sink.atom(&mut body, a);
    }
    let mut out = Writer::new();
    sink.encode_table(&mut out);
    out.raw(&body.into_bytes());
    out.into_bytes()
}

/// Decode a payload produced by [`encode_delta`], remapping symbols into
/// the current process.
pub fn decode_delta(bytes: &[u8]) -> Result<InstanceDelta, StorageError> {
    let mut r = Reader::new(bytes, "wal frame payload");
    let source = SymbolSource::decode_table(&mut r)?;
    let mut delta = InstanceDelta::default();
    let removed = r.len_u32()?;
    for _ in 0..removed {
        delta.removed.insert(source.atom(&mut r)?);
    }
    let added = r.len_u32()?;
    for _ in 0..added {
        delta.added.insert(source.atom(&mut r)?);
    }
    if !r.is_exhausted() {
        return Err(StorageError::corrupt(
            "wal frame payload",
            format!("{} trailing bytes after delta", r.remaining()),
        ));
    }
    Ok(delta)
}

// ---------------------------------------------------------------------
// Constraint payloads (structural encoding, shared by the manifest and
// constraint WAL frames)
// ---------------------------------------------------------------------

fn encode_term(sink: &mut SymbolSink, w: &mut Writer, term: &Term) {
    match term {
        Term::Var(v) => {
            w.u8(0);
            w.u32(v.0);
        }
        Term::Const(val) => {
            w.u8(1);
            sink.value(w, val);
        }
    }
}

fn encode_ic_atoms(sink: &mut SymbolSink, w: &mut Writer, atoms: &[IcAtom]) {
    w.u32(atoms.len() as u32);
    for atom in atoms {
        w.u32(atom.rel.0);
        w.u32(atom.terms.len() as u32);
        for t in &atom.terms {
            encode_term(sink, w, t);
        }
    }
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Neq => 1,
        CmpOp::Lt => 2,
        CmpOp::Leq => 3,
        CmpOp::Gt => 4,
        CmpOp::Geq => 5,
    }
}

/// Encode one constraint structurally (atoms, terms, builtin
/// comparisons, variable names), interning constants through `sink`.
pub fn encode_constraint(sink: &mut SymbolSink, w: &mut Writer, con: &Constraint) {
    match con {
        Constraint::Tgd(ic) => {
            w.u8(0);
            w.str(ic.name());
            w.u32(ic.var_count() as u32);
            for v in 0..ic.var_count() {
                w.str(ic.var_name(cqa_constraints::VarId(v as u32)));
            }
            encode_ic_atoms(sink, w, ic.body());
            encode_ic_atoms(sink, w, ic.head());
            w.u32(ic.builtins().len() as u32);
            for b in ic.builtins() {
                w.u8(cmp_tag(b.op));
                encode_term(sink, w, &b.lhs);
                encode_term(sink, w, &b.rhs);
            }
        }
        Constraint::NotNull(nnc) => {
            w.u8(1);
            w.str(&nnc.name);
            w.u32(nnc.rel.0);
            w.u32(nnc.position as u32);
        }
    }
}

/// Encode a whole constraint set: count, then each constraint.
pub fn encode_constraints(sink: &mut SymbolSink, w: &mut Writer, ics: &IcSet) {
    w.u32(ics.len() as u32);
    for con in ics.constraints() {
        encode_constraint(sink, w, con);
    }
}

fn decode_term(
    source: &SymbolSource,
    r: &mut Reader<'_>,
    var_names: &[String],
) -> Result<TermSpec, StorageError> {
    match r.u8()? {
        0 => {
            let idx = r.u32()? as usize;
            let name = var_names.get(idx).ok_or_else(|| {
                StorageError::corrupt(
                    "persisted constraint",
                    format!("variable id {idx} out of range ({} names)", var_names.len()),
                )
            })?;
            Ok(TermSpec::Var(name.clone()))
        }
        1 => Ok(TermSpec::Const(source.value(r)?)),
        tag => Err(StorageError::corrupt(
            "persisted constraint",
            format!("unknown term tag {tag}"),
        )),
    }
}

fn decode_ic_atoms(
    source: &SymbolSource,
    r: &mut Reader<'_>,
    var_names: &[String],
    schema: &Schema,
) -> Result<Vec<(String, Vec<TermSpec>)>, StorageError> {
    let count = r.len_u32()? as usize;
    let mut atoms = Vec::with_capacity(count);
    for _ in 0..count {
        let rel = RelId(r.u32()?);
        if rel.index() >= schema.len() {
            return Err(StorageError::corrupt(
                "persisted constraint",
                format!("relation id {rel} out of range"),
            ));
        }
        let name = schema.relation(rel).name().to_string();
        let arity = r.len_u32()? as usize;
        let mut terms = Vec::with_capacity(arity);
        for _ in 0..arity {
            terms.push(decode_term(source, r, var_names)?);
        }
        atoms.push((name, terms));
    }
    Ok(atoms)
}

fn decode_cmp(tag: u8) -> Result<CmpOp, StorageError> {
    Ok(match tag {
        0 => CmpOp::Eq,
        1 => CmpOp::Neq,
        2 => CmpOp::Lt,
        3 => CmpOp::Leq,
        4 => CmpOp::Gt,
        5 => CmpOp::Geq,
        other => {
            return Err(StorageError::corrupt(
                "persisted constraint",
                format!("unknown comparison tag {other}"),
            ))
        }
    })
}

/// Decode one constraint written by [`encode_constraint`], rebuilding it
/// through [`Ic::builder`] / [`Nnc::new`] so the result is `Eq`-equal to
/// the saved value (the builder replays atoms and terms in their
/// original order, re-deriving the same first-occurrence variable ids
/// and all derived metadata).
pub fn decode_constraint(
    source: &SymbolSource,
    r: &mut Reader<'_>,
    schema: &Schema,
) -> Result<Constraint, StorageError> {
    match r.u8()? {
        0 => {
            let name = r.str()?.to_string();
            let var_count = r.len_u32()? as usize;
            let mut var_names = Vec::with_capacity(var_count);
            for _ in 0..var_count {
                var_names.push(r.str()?.to_string());
            }
            let body = decode_ic_atoms(source, r, &var_names, schema)?;
            let head = decode_ic_atoms(source, r, &var_names, schema)?;
            let builtin_count = r.len_u32()? as usize;
            let mut builtins = Vec::with_capacity(builtin_count);
            for _ in 0..builtin_count {
                let op = decode_cmp(r.u8()?)?;
                let lhs = decode_term(source, r, &var_names)?;
                let rhs = decode_term(source, r, &var_names)?;
                builtins.push((op, lhs, rhs));
            }
            let mut builder = Ic::builder(schema, name);
            for (rel, terms) in body {
                builder = builder.body_atom(&rel, terms);
            }
            for (rel, terms) in head {
                builder = builder.head_atom(&rel, terms);
            }
            for (op, lhs, rhs) in builtins {
                builder = builder.builtin(lhs, op, rhs);
            }
            Ok(builder.finish()?.into())
        }
        1 => {
            let name = r.str()?.to_string();
            let rel = RelId(r.u32()?);
            if rel.index() >= schema.len() {
                return Err(StorageError::corrupt(
                    "persisted constraint",
                    format!("relation id {rel} out of range"),
                ));
            }
            let position = r.u32()? as usize;
            let rel_name = schema.relation(rel).name().to_string();
            Ok(Nnc::new(schema, name, &rel_name, position)?.into())
        }
        tag => Err(StorageError::corrupt(
            "persisted constraint",
            format!("unknown constraint tag {tag}"),
        )),
    }
}

/// Decode a constraint set written by [`encode_constraints`].
pub fn decode_constraints(
    source: &SymbolSource,
    r: &mut Reader<'_>,
    schema: &Schema,
) -> Result<IcSet, StorageError> {
    let count = r.len_u32()? as usize;
    let mut ics = IcSet::default();
    for _ in 0..count {
        ics.push(decode_constraint(source, r, schema)?);
    }
    Ok(ics)
}

// ---------------------------------------------------------------------
// Tagged WAL operations (the frame payload, format v2)
// ---------------------------------------------------------------------

/// Payload tag of an instance-delta frame.
const OP_DELTA: u8 = 0;
/// Payload tag of an added-constraint frame.
const OP_CONSTRAINT: u8 = 1;

/// One decoded WAL operation: what a recovered frame asks the caller to
/// replay.
#[derive(Debug)]
pub enum WalOp {
    /// Apply an instance delta.
    Delta(InstanceDelta),
    /// Add a constraint to the set. Constraint changes ride the WAL as
    /// O(delta) appends — recovery replays them in sequence order with
    /// the deltas — instead of forcing a full snapshot rewrite.
    Constraint(Constraint),
}

/// Encode a delta as a tagged WAL frame payload.
pub fn encode_delta_op(delta: &InstanceDelta) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(OP_DELTA);
    out.extend_from_slice(&encode_delta(delta));
    out
}

/// Encode an added constraint as a tagged WAL frame payload. The
/// payload is self-describing (it carries its own symbol table for any
/// constant values), like every other frame.
pub fn encode_constraint_op(con: &Constraint) -> Vec<u8> {
    let mut sink = SymbolSink::new();
    let mut staged = Writer::new();
    encode_constraint(&mut sink, &mut staged, con);
    let mut w = Writer::new();
    w.u8(OP_CONSTRAINT);
    sink.encode_table(&mut w);
    w.raw(&staged.into_bytes());
    w.into_bytes()
}

/// Decode a tagged frame payload produced by [`encode_delta_op`] or
/// [`encode_constraint_op`]. Constraint frames need the schema (from
/// the snapshot manifest) to re-validate relation ids.
pub fn decode_op(bytes: &[u8], schema: &Schema) -> Result<WalOp, StorageError> {
    let mut r = Reader::new(bytes, "wal frame payload");
    match r.u8()? {
        OP_DELTA => Ok(WalOp::Delta(decode_delta(&bytes[1..])?)),
        OP_CONSTRAINT => {
            let source = SymbolSource::decode_table(&mut r)?;
            let con = decode_constraint(&source, &mut r, schema)?;
            if !r.is_exhausted() {
                return Err(StorageError::corrupt(
                    "wal frame payload",
                    format!("{} trailing bytes after constraint", r.remaining()),
                ));
            }
            Ok(WalOp::Constraint(con))
        }
        tag => Err(StorageError::corrupt(
            "wal frame payload",
            format!("unknown operation tag {tag}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_relational::{i, null, s};
    use std::collections::BTreeSet;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    #[test]
    fn reader_overrun_is_an_error_not_a_panic() {
        let mut r = Reader::new(&[1, 2], "test");
        assert!(r.u32().is_err());
        let mut r = Reader::new(&[255, 255, 255, 255], "test");
        assert!(r.len_u32().is_err(), "implausible length rejected");
    }

    #[test]
    fn delta_payload_roundtrips() {
        let mut delta = InstanceDelta::default();
        delta.added.insert(DatabaseAtom::new(
            RelId(0),
            Tuple::new(vec![s("alice"), null(), i(3)]),
        ));
        delta
            .added
            .insert(DatabaseAtom::new(RelId(1), Tuple::new(vec![s("bob")])));
        delta.removed.insert(DatabaseAtom::new(
            RelId(0),
            Tuple::new(vec![s("alice"), s("bob"), i(-9)]),
        ));
        let bytes = encode_delta(&delta);
        let back = decode_delta(&bytes).unwrap();
        assert_eq!(back, delta);
    }

    #[test]
    fn empty_delta_roundtrips() {
        let delta = InstanceDelta::default();
        let back = decode_delta(&encode_delta(&delta)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn corrupt_payload_is_detected() {
        let mut delta = InstanceDelta::default();
        delta
            .added
            .insert(DatabaseAtom::new(RelId(0), Tuple::new(vec![s("x")])));
        let mut bytes = encode_delta(&delta);
        // Truncation.
        bytes.pop();
        assert!(decode_delta(&bytes).is_err());
        // Trailing garbage.
        let mut bytes = encode_delta(&delta);
        bytes.push(0);
        assert!(decode_delta(&bytes).is_err());
    }

    #[test]
    fn symbol_sink_assigns_dense_first_use_ids() {
        let mut sink = SymbolSink::new();
        let a = Symbol::intern("codec-sink-a");
        let b = Symbol::intern("codec-sink-b");
        assert_eq!(sink.local_id(b), 0); // first use wins id 0
        assert_eq!(sink.local_id(a), 1);
        assert_eq!(sink.local_id(b), 0); // stable on re-use
        let mut w = Writer::new();
        sink.encode_table(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        let source = SymbolSource::decode_table(&mut r).unwrap();
        assert_eq!(source.resolve(0, "test").unwrap(), b);
        assert_eq!(source.resolve(1, "test").unwrap(), a);
        assert!(source.resolve(2, "test").is_err());
    }

    #[test]
    fn tagged_ops_roundtrip() {
        use cqa_constraints::{c, v};
        let schema = Schema::builder()
            .relation("r", ["x", "y"])
            .relation("s", ["u", "v"])
            .finish()
            .unwrap()
            .into_shared();
        // Constraint ops: a Tgd with a constant (exercises the symbol
        // table) and an Nnc, both Eq-equal after the roundtrip.
        let tgd: Constraint = Ic::builder(&schema, "key_r")
            .body_atom("r", [v("x"), v("y")])
            .body_atom("r", [v("x"), v("z")])
            .builtin(v("y"), CmpOp::Eq, v("z"))
            .builtin(v("x"), CmpOp::Neq, c(s("op-roundtrip-const")))
            .finish()
            .unwrap()
            .into();
        let nnc: Constraint = Nnc::new(&schema, "nn_s_u", "s", 0).unwrap().into();
        for con in [tgd, nnc] {
            let bytes = encode_constraint_op(&con);
            match decode_op(&bytes, &schema).unwrap() {
                WalOp::Constraint(back) => assert_eq!(back, con),
                other => panic!("expected a constraint op, got {other:?}"),
            }
        }
        // Delta ops carry the untagged delta payload behind tag 0.
        let mut delta = InstanceDelta::default();
        delta.added.insert(DatabaseAtom::new(
            RelId(0),
            Tuple::new(vec![s("x"), null()]),
        ));
        match decode_op(&encode_delta_op(&delta), &schema).unwrap() {
            WalOp::Delta(back) => assert_eq!(back, delta),
            other => panic!("expected a delta op, got {other:?}"),
        }
        // Unknown tags and trailing bytes are corruption, not panics.
        assert!(decode_op(&[9], &schema).is_err());
        let mut trailing = encode_constraint_op(&Nnc::new(&schema, "t", "s", 1).unwrap().into());
        trailing.push(0);
        assert!(decode_op(&trailing, &schema).is_err());
    }

    #[test]
    fn delta_sets_stay_ordered_after_roundtrip() {
        // BTreeSet iteration order survives encode/decode (order is
        // textual, never id-based).
        let mut delta = InstanceDelta::default();
        for name in ["zeta", "alpha", "mid"] {
            delta
                .added
                .insert(DatabaseAtom::new(RelId(0), Tuple::new(vec![s(name)])));
        }
        let back = decode_delta(&encode_delta(&delta)).unwrap();
        let order: Vec<_> = back
            .added
            .iter()
            .map(|a| a.tuple.get(0).as_str().unwrap())
            .collect();
        assert_eq!(order, vec!["alpha", "mid", "zeta"]);
        let expected: BTreeSet<_> = delta.added.iter().cloned().collect();
        assert_eq!(back.added, expected);
    }
}
