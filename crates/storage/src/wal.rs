//! The write-ahead log: a checksummed, length-prefixed append-only file
//! of serialized operation frames (instance deltas and constraint
//! additions — see [`codec::encode_delta_op`](crate::codec) and
//! friends).
//!
//! ## On-disk layout
//!
//! ```text
//! [ magic "CQAWAL02" : 8 bytes ]
//! [ frame ]*
//!
//! frame := [ payload_len : u32 LE ]
//!          [ seq         : u64 LE ]   monotonic, never reused
//!          [ crc32       : u32 LE ]   over seq_LE || payload
//!          [ payload     : payload_len bytes ]  (a tagged codec op)
//! ```
//!
//! The CRC covers the sequence number *and* the payload, so a frame
//! whose header survived a crash but whose body did not — or a frame
//! spliced from another log — fails verification as a unit.
//!
//! ## Torn-tail semantics
//!
//! A crash mid-append leaves a short or corrupt final frame. That is the
//! *expected* steady state of a WAL, not an error: [`Wal::open`] scans
//! frames until the first one that is short, fails its checksum, or
//! regresses the sequence number, **truncates the file at the last good
//! frame boundary**, and reports the dropped bytes. Everything before
//! the tear is intact by CRC; everything after it was never
//! acknowledged. Corruption *before* the tail is indistinguishable from
//! a tear and handled the same way — the log simply ends earlier, and
//! the caller's [`RecoveryReport`](crate::RecoveryReport) says so.
//!
//! A file *shorter than the magic* is the [`Wal::create`] crash window
//! (the store's snapshot is durably written first, so nothing is lost)
//! and is rebuilt as an empty log; a full-length but *wrong* magic is a
//! foreign file and a hard [`StorageError::Corrupt`].

use crate::codec::{crc32, MAX_SECTION_LEN};
use crate::error::StorageError;
use crate::vfs::{RealVfs, Vfs, VfsFile};
use std::io::SeekFrom;
use std::path::Path;

/// File magic: identifies a WAL and its format version. Version 02
/// carries *tagged* operation payloads (delta or constraint) instead of
/// bare delta payloads.
pub const WAL_MAGIC: &[u8; 8] = b"CQAWAL02";

/// Per-frame header size: payload_len (4) + seq (8) + crc (4).
const FRAME_HEADER: usize = 16;

/// When the store asks the OS to flush appended frames to stable
/// storage.
///
/// The knob trades acknowledged-write durability for append latency:
/// `Always` survives power loss at every acknowledged write; `Never`
/// leaves flushing to the OS page cache (process crashes — the
/// crash-harness scenario — still lose nothing, because the page cache
/// survives the process).
///
/// The policy is interpreted by [`DurableStore`](crate::DurableStore),
/// not by [`Wal`] itself: `Wal::append` only writes, and the store
/// calls [`Wal::sync`] after each append under `Always`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended frame, before the append returns.
    Always,
    /// Never `fsync` from the store; the OS decides.
    Never,
}

/// One recovered frame: its sequence number and decoded-payload bytes.
#[derive(Debug)]
pub struct Frame {
    /// The frame's monotonic sequence number.
    pub seq: u64,
    /// The frame payload (a `codec::encode_delta` body).
    pub payload: Vec<u8>,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Every intact frame, in file (= sequence) order.
    pub frames: Vec<Frame>,
    /// Bytes dropped from the tail (0 for a clean shutdown).
    pub bytes_truncated: u64,
}

/// An open, append-position log file.
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn VfsFile>,
    next_seq: u64,
}

impl Wal {
    /// Create a fresh, empty WAL at `path` (truncating any existing
    /// file), write the magic, and sync it — on the real filesystem.
    pub fn create(path: &Path) -> Result<Wal, StorageError> {
        Wal::create_with(&RealVfs, path)
    }

    /// [`Wal::create`] against an explicit [`Vfs`].
    pub fn create_with(vfs: &dyn Vfs, path: &Path) -> Result<Wal, StorageError> {
        let mut file = vfs.create_truncate(path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_all()?;
        Ok(Wal { file, next_seq: 1 })
    }

    /// Open an existing WAL on the real filesystem: scan every frame,
    /// truncate the torn tail (if any), and leave the file positioned
    /// for appending. Returns the scan alongside the ready-to-append
    /// handle.
    ///
    /// Never panics on mangled bytes: a short frame, a failed checksum,
    /// an implausible length, or a sequence regression all end the scan
    /// at the last good frame boundary.
    pub fn open(path: &Path) -> Result<(Wal, WalScan), StorageError> {
        Wal::open_with(&RealVfs, path)
    }

    /// [`Wal::open`] against an explicit [`Vfs`].
    pub fn open_with(vfs: &dyn Vfs, path: &Path) -> Result<(Wal, WalScan), StorageError> {
        let mut file = vfs.open_rw(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if bytes.len() < WAL_MAGIC.len() {
            // Shorter than the magic: the crash window in [`Wal::create`]
            // between file creation and the magic's fsync. The store
            // writes its snapshot *before* creating the WAL, so nothing
            // durable can live here — rebuild an empty log and report
            // the dropped bytes as a (zero-frame) torn tail.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
            file.sync_all()?;
            return Ok((
                Wal { file, next_seq: 1 },
                WalScan {
                    frames: Vec::new(),
                    bytes_truncated: bytes.len() as u64,
                },
            ));
        }
        if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(StorageError::corrupt(
                "wal",
                "missing or wrong magic (not a WAL file)",
            ));
        }

        let mut frames = Vec::new();
        let mut good_end = WAL_MAGIC.len();
        let mut pos = WAL_MAGIC.len();
        let mut last_seq = 0u64;
        loop {
            if bytes.len() - pos < FRAME_HEADER {
                break; // short header: torn tail
            }
            let payload_len =
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4")) as usize;
            if payload_len as u32 > MAX_SECTION_LEN {
                break; // implausible length: corrupt header
            }
            let seq = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8"));
            let crc = u32::from_le_bytes(bytes[pos + 12..pos + 16].try_into().expect("4"));
            let body_start = pos + FRAME_HEADER;
            if bytes.len() - body_start < payload_len {
                break; // short body: torn tail
            }
            let payload = &bytes[body_start..body_start + payload_len];
            let mut checked = Vec::with_capacity(8 + payload_len);
            checked.extend_from_slice(&seq.to_le_bytes());
            checked.extend_from_slice(payload);
            if crc32(&checked) != crc {
                break; // bit rot or torn write inside the frame
            }
            if seq <= last_seq {
                break; // sequence regression: frame from a stale epoch
            }
            last_seq = seq;
            frames.push(Frame {
                seq,
                payload: payload.to_vec(),
            });
            pos = body_start + payload_len;
            good_end = pos;
        }

        let bytes_truncated = (bytes.len() - good_end) as u64;
        if bytes_truncated > 0 {
            file.set_len(good_end as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(good_end as u64))?;

        let next_seq = frames.last().map(|f| f.seq + 1).unwrap_or(1);
        Ok((
            Wal { file, next_seq },
            WalScan {
                frames,
                bytes_truncated,
            },
        ))
    }

    /// The sequence number the *next* append will be stamped with.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes currently in the log (including the magic).
    pub fn len_bytes(&self) -> Result<u64, StorageError> {
        Ok(self.file.len()?)
    }

    /// Append one payload as a frame; returns its sequence number. The
    /// frame is *written, not synced* — durability is the caller's move
    /// ([`Wal::sync`]). Callers must not acknowledge the write (mutate
    /// in-memory state and return to their caller) until that sync has
    /// succeeded, when their fsync policy requires one.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StorageError> {
        let seq = self.next_seq;
        let mut checked = Vec::with_capacity(8 + payload.len());
        checked.extend_from_slice(&seq.to_le_bytes());
        checked.extend_from_slice(payload);
        let crc = crc32(&checked);

        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;

        self.next_seq += 1;
        Ok(seq)
    }

    /// Flush everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Reset the log to empty after a snapshot compaction, carrying the
    /// sequence counter forward (sequence numbers are never reused, so a
    /// frame surviving from a pre-compaction epoch is detectable as a
    /// regression).
    pub fn reset(&mut self) -> Result<(), StorageError> {
        // Truncate down *to* the magic instead of rewriting it: the
        // header never leaves the file, so there is no instant at which
        // a crash can leave a header-less log. A kill before the
        // `set_len` lands keeps the old epoch (its frames are ≤ the
        // just-written snapshot's horizon and skipped on recovery); a
        // kill after it leaves a valid empty log.
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.seek(SeekFrom::Start(WAL_MAGIC.len() as u64))?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Raise the next sequence number to at least `seq`. The store calls
    /// this with its snapshot horizon + 1 after recovery, so that even a
    /// WAL rebuilt from a crash window (or lost entirely) can never
    /// stamp a fresh frame with a sequence number the snapshot already
    /// covers — such a frame would be silently skipped on the *next*
    /// recovery.
    pub fn ensure_seq_at_least(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::{self, OpenOptions};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cqa-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_then_open_roundtrips() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal");
        let mut wal = Wal::create(&path).unwrap();
        assert_eq!(wal.append(b"first").unwrap(), 1);
        assert_eq!(wal.append(b"second").unwrap(), 2);
        drop(wal);

        let (wal, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.bytes_truncated, 0);
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[0].payload, b"first");
        assert_eq!(scan.frames[1].seq, 2);
        assert_eq!(wal.next_seq(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmpdir("torn");
        let path = dir.join("wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(b"keep-me").unwrap();
        wal.append(b"will-be-torn").unwrap();
        drop(wal);

        // Tear the last frame: chop 3 bytes off the file.
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (mut wal, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.frames[0].payload, b"keep-me");
        assert!(scan.bytes_truncated > 0);
        // The file is clean again: appends resume at seq 2 and reopen
        // sees both frames.
        assert_eq!(wal.append(b"after-recovery").unwrap(), 2);
        drop(wal);
        let (_, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.bytes_truncated, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_fails_checksum_and_drops_the_tail() {
        let dir = tmpdir("flip");
        let path = dir.join("wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(b"good-frame").unwrap();
        wal.append(b"flipped-frame").unwrap();
        drop(wal);

        // Flip one bit inside the second frame's payload.
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let (_, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.frames.len(), 1, "flipped frame dropped by CRC");
        assert_eq!(scan.frames[0].payload, b"good-frame");
        assert!(scan.bytes_truncated > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shorter_than_magic_is_the_create_window_not_corruption() {
        // 0-byte and partial-magic files are what a kill inside
        // `Wal::create` (before the magic fsync) leaves behind; both
        // must open as an empty log that accepts appends.
        let dir = tmpdir("shortfile");
        for (k, stub) in [&b""[..], &b"CQA"[..], &b"CQAWAL0"[..]].iter().enumerate() {
            let path = dir.join(format!("wal{k}"));
            fs::write(&path, stub).unwrap();
            let (mut wal, scan) = Wal::open(&path).unwrap();
            assert!(scan.frames.is_empty());
            assert_eq!(scan.bytes_truncated, stub.len() as u64);
            assert_eq!(wal.append(b"alive").unwrap(), 1);
            drop(wal);
            let (_, scan) = Wal::open(&path).unwrap();
            assert_eq!(scan.frames.len(), 1);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ensure_seq_floor_only_raises() {
        let dir = tmpdir("seqfloor");
        let path = dir.join("wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.ensure_seq_at_least(7);
        assert_eq!(wal.next_seq(), 7);
        wal.ensure_seq_at_least(3);
        assert_eq!(wal.next_seq(), 7, "the floor never lowers");
        assert_eq!(wal.append(b"x").unwrap(), 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_is_corrupt_not_a_panic() {
        let dir = tmpdir("magic");
        let path = dir.join("wal");
        fs::write(&path, b"NOTAWAL!rest").unwrap();
        let err = Wal::open(&path).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_carries_sequence_numbers_forward() {
        let dir = tmpdir("reset");
        let path = dir.join("wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.append(b"c").unwrap(), 3, "seq never reused");
        drop(wal);
        let (_, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.frames[0].seq, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_payloads_and_large_frames_roundtrip() {
        let dir = tmpdir("sizes");
        let path = dir.join("wal");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(b"").unwrap();
        let big = vec![0xABu8; 100_000];
        wal.append(&big).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.frames.len(), 2);
        assert!(scan.frames[0].payload.is_empty());
        assert_eq!(scan.frames[1].payload, big);
        fs::remove_dir_all(&dir).unwrap();
    }
}
