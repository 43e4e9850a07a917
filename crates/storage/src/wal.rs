//! Durable write-ahead log for the §4.1 update log.
//!
//! The in-memory [`crate::UpdateLog`] scopes undo to one transaction; the
//! WAL makes the *committed* suffix of history durable. Each committed
//! transaction (or autocommitted single update) becomes one **batch**:
//!
//! ```text
//! file    := magic "AMOSWAL1" batch*
//! batch   := seq:u64 len:u32 payload crc:u32     (crc over seq‖len‖payload)
//! payload := record*
//! record  := op:u8 name_len:u16 name:utf8 tuple
//! tuple   := arity:u16 value*
//! value   := tag:u8 data        (0 bool, 1 int, 2 real, 3 str, 4 oid)
//! ```
//!
//! All integers are little-endian. Records address relations by *name*,
//! not [`crate::RelId`] — ids are assigned per-process in DDL order and
//! need not coincide between the run that wrote the log and the run that
//! replays it.
//!
//! Recovery invariants (proved by the crash-offset sweep in
//! `tests/wal_recovery.rs`):
//!
//! * **Prefix durability** — a crash at any byte offset preserves exactly
//!   the batches whose frames fit entirely in the surviving prefix; the
//!   CRC rejects the torn tail, which is truncated on reopen.
//! * **Atomic commit** — a batch is either replayed whole or not at all;
//!   no recovered state ever reflects half a transaction.
//! * **Idempotent replay** — records are logical (§4.1) and relations
//!   have set semantics, so replaying a batch over a snapshot that
//!   already contains its effects is a no-op.
//!
//! Embedded group commit: with [`WalConfig::group_commit`] > 1,
//! [`WalWriter::append`] buffers framed batches and writes + syncs them
//! with one syscall when the group fills (or on [`WalWriter::flush`]/drop).
//! This trades a bounded durability window (the buffered batches) for
//! fewer fsyncs; the default of 1 makes every commit durable before
//! `commit()` returns.
//!
//! Cross-session commit pipeline: [`WalWriter::append_buffered`] frames a
//! batch into the shared group buffer *without* flushing and hands back a
//! [`CommitWaiter`]. The committing session releases the engine lock and
//! then blocks in [`CommitWaiter::wait`], where the first waiter becomes
//! the **leader**: it drains every pending framed batch at once — it never
//! parks for stragglers — issues one `write + fsync` for the whole group,
//! and wakes every covered waiter; followers never touch the file. Groups
//! form from the batches appended while the previous flush was writing.
//! Because batches enter the buffer in `commit_seq` order under the engine
//! lock and the leader writes them in that order, the on-disk log is
//! always a sequence-ordered prefix of the acknowledged commits (the
//! ack-prefix recovery invariant).

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use amos_types::{Oid, Tuple, Value};

use crate::error::StorageError;
use crate::log::LogOp;

#[cfg(feature = "fault-injection")]
use crate::fault::{FaultPlan, WalFault};

/// File name of the log inside a WAL directory.
pub const WAL_FILE: &str = "wal.log";
/// Magic bytes opening a WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"AMOSWAL1";

/// CRC-32 (IEEE 802.3), bitwise — WAL batches are small and this keeps
/// the codec dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

// ----------------------------------------------------------------------
// Value / tuple codec (shared with the snapshot module)
// ----------------------------------------------------------------------

const TAG_BOOL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_REAL: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_OID: u8 = 4;

pub(crate) fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Bool(b) => {
            buf.push(TAG_BOOL);
            buf.push(*b as u8);
        }
        Value::Int(i) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Real(r) => {
            buf.push(TAG_REAL);
            buf.extend_from_slice(&r.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Oid(o) => {
            buf.push(TAG_OID);
            buf.extend_from_slice(&o.raw().to_le_bytes());
        }
    }
}

pub(crate) fn encode_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    buf.extend_from_slice(&(t.arity() as u16).to_le_bytes());
    for v in t.iter() {
        encode_value(buf, v);
    }
}

fn corrupt(what: impl Into<String>) -> StorageError {
    StorageError::Corrupt(what.into())
}

/// A byte cursor with bounds-checked little-endian reads.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("record truncated inside a CRC-valid batch"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, StorageError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn str(&mut self, len: usize) -> Result<&'a str, StorageError> {
        std::str::from_utf8(self.take(len)?).map_err(|_| corrupt("invalid UTF-8 in WAL string"))
    }

    pub(crate) fn value(&mut self) -> Result<Value, StorageError> {
        match self.u8()? {
            TAG_BOOL => Ok(Value::Bool(self.u8()? != 0)),
            TAG_INT => Ok(Value::Int(i64::from_le_bytes(
                self.take(8)?.try_into().unwrap(),
            ))),
            TAG_REAL => {
                Value::real(f64::from_bits(self.u64()?)).map_err(|_| corrupt("NaN real in WAL"))
            }
            TAG_STR => {
                let len = self.u32()? as usize;
                Ok(Value::str(self.str(len)?))
            }
            TAG_OID => Ok(Value::Oid(Oid::from_raw(self.u64()?))),
            tag => Err(corrupt(format!("unknown value tag {tag}"))),
        }
    }

    pub(crate) fn tuple(&mut self) -> Result<Tuple, StorageError> {
        let arity = self.u16()? as usize;
        let mut vals = Vec::with_capacity(arity);
        for _ in 0..arity {
            vals.push(self.value()?);
        }
        Ok(Tuple::new(vals))
    }
}

// ----------------------------------------------------------------------
// Records and batches
// ----------------------------------------------------------------------

/// One durable update event, addressed by relation name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Name of the updated relation.
    pub rel: String,
    /// Insert or delete.
    pub op: LogOp,
    /// The affected tuple.
    pub tuple: Tuple,
}

/// One committed transaction's records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalBatch {
    /// Monotonically increasing commit sequence number.
    pub seq: u64,
    /// The records, in original apply order.
    pub records: Vec<WalRecord>,
}

fn encode_record(buf: &mut Vec<u8>, rec: &WalRecord) {
    buf.push(match rec.op {
        LogOp::Insert => 0,
        LogOp::Delete => 1,
    });
    buf.extend_from_slice(&(rec.rel.len() as u16).to_le_bytes());
    buf.extend_from_slice(rec.rel.as_bytes());
    encode_tuple(buf, &rec.tuple);
}

fn decode_record(cur: &mut Cursor<'_>) -> Result<WalRecord, StorageError> {
    let op = match cur.u8()? {
        0 => LogOp::Insert,
        1 => LogOp::Delete,
        other => return Err(corrupt(format!("unknown op tag {other}"))),
    };
    let name_len = cur.u16()? as usize;
    let rel = cur.str(name_len)?.to_string();
    let tuple = cur.tuple()?;
    Ok(WalRecord { rel, op, tuple })
}

/// Frame a batch: `seq ‖ len ‖ payload ‖ crc(seq‖len‖payload)`, plus the
/// byte offset (within the frame) at which each record's encoding ends —
/// the fault injector uses these to tear a write at a record boundary.
fn frame_batch(seq: u64, records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut payload = Vec::new();
    let mut rec_ends = Vec::with_capacity(records.len());
    for rec in records {
        encode_record(&mut payload, rec);
        rec_ends.push(12 + payload.len());
    }
    let mut frame = Vec::with_capacity(16 + payload.len());
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    (frame, rec_ends)
}

// ----------------------------------------------------------------------
// Reading
// ----------------------------------------------------------------------

/// Outcome of scanning a WAL file.
#[derive(Debug)]
pub struct WalReadResult {
    /// The CRC-valid batches, in sequence order.
    pub batches: Vec<WalBatch>,
    /// Byte length of the valid prefix (magic + whole batches). Reopening
    /// for append truncates the file to this length.
    pub valid_bytes: u64,
    /// Total file length found on disk.
    pub total_bytes: u64,
    /// Whether a torn tail (bytes past the valid prefix) was found.
    pub torn_tail: bool,
}

impl WalReadResult {
    fn empty() -> Self {
        WalReadResult {
            batches: Vec::new(),
            valid_bytes: WAL_MAGIC.len() as u64,
            total_bytes: 0,
            torn_tail: false,
        }
    }

    /// Sequence number of the last valid batch (0 if none).
    pub fn last_seq(&self) -> u64 {
        self.batches.last().map_or(0, |b| b.seq)
    }
}

/// Scan `path`, returning every batch in the longest CRC-valid prefix.
///
/// A missing file reads as empty. Damage *at the tail* (short header,
/// short payload, CRC mismatch on the final frame) is expected — that is
/// what a crash mid-write leaves behind — and simply ends the scan.
/// Violations that a torn write cannot produce (bad magic, non-monotonic
/// sequence numbers, undecodable payload under a valid CRC) are reported
/// as [`StorageError::Corrupt`].
pub fn read_wal(path: &Path) -> Result<WalReadResult, StorageError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalReadResult::empty());
        }
        Err(e) => return Err(e.into()),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    read_wal_bytes(&bytes)
}

/// [`read_wal`] over an in-memory image (used by the crash-offset sweep
/// to scan arbitrary prefixes without touching the filesystem).
pub fn read_wal_bytes(bytes: &[u8]) -> Result<WalReadResult, StorageError> {
    let total = bytes.len() as u64;
    if bytes.is_empty() {
        return Ok(WalReadResult {
            valid_bytes: 0,
            ..WalReadResult::empty()
        });
    }
    if bytes.len() < WAL_MAGIC.len() {
        // A crash during file creation can tear even the magic.
        return Ok(WalReadResult {
            total_bytes: total,
            torn_tail: true,
            valid_bytes: 0,
            batches: Vec::new(),
        });
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(corrupt("bad WAL magic"));
    }
    let mut batches = Vec::new();
    let mut pos = WAL_MAGIC.len();
    let mut last_seq = 0u64;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break;
        }
        if rest.len() < 12 {
            break; // torn header
        }
        let seq = u64::from_le_bytes(rest[0..8].try_into().unwrap());
        let len = u32::from_le_bytes(rest[8..12].try_into().unwrap()) as usize;
        let frame_len = match len.checked_add(16) {
            Some(l) if l <= rest.len() => l,
            _ => break, // torn payload or absurd length in a torn header
        };
        let stored_crc = u32::from_le_bytes(rest[12 + len..frame_len].try_into().unwrap());
        if crc32(&rest[..12 + len]) != stored_crc {
            break; // torn tail
        }
        if seq <= last_seq {
            return Err(corrupt(format!(
                "non-monotonic WAL sequence {seq} after {last_seq}"
            )));
        }
        let mut cur = Cursor::new(&rest[12..12 + len]);
        let mut records = Vec::new();
        while !cur.is_at_end() {
            records.push(decode_record(&mut cur)?);
        }
        batches.push(WalBatch { seq, records });
        last_seq = seq;
        pos += frame_len;
    }
    Ok(WalReadResult {
        batches,
        valid_bytes: pos as u64,
        total_bytes: total,
        torn_tail: (pos as u64) < total,
    })
}

// ----------------------------------------------------------------------
// Writing
// ----------------------------------------------------------------------

/// Writer configuration.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Durability window of the embedded [`WalWriter::append`] path:
    /// batches buffered before a physical write + sync. 1 (the default)
    /// makes every commit durable before it returns. The pipelined path
    /// ([`WalWriter::append_buffered`] + [`CommitWaiter::wait`]) ignores
    /// it: a flush leader writes whatever is pending at once.
    pub group_commit: usize,
    /// Read by nothing: flush leaders never wait for stragglers. Kept
    /// only because the benchmark builds `WalConfig` field by field;
    /// it goes when the benchmark stops naming it.
    pub max_delay_us: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            group_commit: 1,
            max_delay_us: 0,
        }
    }
}

impl WalConfig {
    /// A config with the given embedded group size.
    pub fn grouped(group_commit: usize) -> Self {
        WalConfig {
            group_commit,
            max_delay_us: 0,
        }
    }
}

/// Number of buckets in the group-size histogram: group sizes 1, 2,
/// 3–4, 5–8, 9–16, 17+.
pub const GROUP_HIST_BUCKETS: usize = 6;

fn hist_bucket(group: u64) -> usize {
    match group {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        _ => 5,
    }
}

/// Durability-side counters of a WAL writer, snapshot by
/// [`WalWriter::metrics`]. All counters are cumulative since the writer
/// was opened.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WalMetrics {
    /// Successful `fsync` calls.
    pub fsyncs: u64,
    /// Batches made durable (across all fsyncs).
    pub batches: u64,
    /// Largest batch group covered by one fsync.
    pub max_group: u64,
    /// Histogram of batches-per-fsync: buckets 1, 2, 3–4, 5–8, 9–16,
    /// 17+.
    pub group_hist: [u64; GROUP_HIST_BUCKETS],
    /// Commit waiters acknowledged by *another* session's flush (group
    /// commit followers — they never touched the file).
    pub waiters_woken: u64,
}

#[derive(Debug, Default)]
struct WalCounters {
    fsyncs: AtomicU64,
    batches: AtomicU64,
    max_group: AtomicU64,
    group_hist: [AtomicU64; GROUP_HIST_BUCKETS],
    waiters_woken: AtomicU64,
}

impl WalCounters {
    fn record_sync(&self, group: u64) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.batches.fetch_add(group, Ordering::Relaxed);
        self.max_group.fetch_max(group, Ordering::Relaxed);
        self.group_hist[hist_bucket(group)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> WalMetrics {
        let mut group_hist = [0u64; GROUP_HIST_BUCKETS];
        for (out, bucket) in group_hist.iter_mut().zip(&self.group_hist) {
            *out = bucket.load(Ordering::Relaxed);
        }
        WalMetrics {
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            max_group: self.max_group.load(Ordering::Relaxed),
            group_hist,
            waiters_woken: self.waiters_woken.load(Ordering::Relaxed),
        }
    }
}

/// One framed batch awaiting the group write.
#[derive(Debug)]
struct PendingBatch {
    seq: u64,
    frame: Vec<u8>,
    rec_ends: Vec<usize>,
}

/// The physical file and its torn-tail bookkeeping. Only one thread
/// touches the disk at a time (the flush leader, or the writer itself
/// under the engine lock), serialized by the mutex around this.
#[derive(Debug)]
struct DiskCore {
    file: File,
    /// File length up to the last fully-written frame. A failed
    /// `write_all` (ENOSPC, EIO) can leave torn bytes past this point;
    /// `repair_torn_tail` truncates back to it so a retried append lands
    /// on a clean boundary instead of after unreadable debris.
    good_len: u64,
    /// Set when a failed write may have left torn bytes past `good_len`.
    needs_repair: bool,
    /// Set when frames were written but not yet `sync_data`ed (a failed
    /// group flush); the next flush syncs even with nothing pending.
    dirty: bool,
    /// Highest sequence number whose frame was fully handed to the file
    /// (or logically dropped by a crashed fault plan).
    written_seq: u64,
    /// Frames physically written since the last successful sync — the
    /// group size the next fsync will cover.
    unsynced: u64,
    #[cfg(feature = "fault-injection")]
    faults: Option<Arc<FaultPlan>>,
}

/// Leader/follower coordination state for the group buffer.
#[derive(Debug, Default)]
struct GroupState {
    /// Framed batches awaiting the group write, in sequence order.
    pending: Vec<PendingBatch>,
    /// Highest sequence number acknowledged durable (covered by a
    /// completed flush round).
    durable_seq: u64,
    /// A leader is currently flushing off-lock.
    leader: bool,
    /// The last failed flush round: the highest sequence it took and
    /// its error, cleared by the next successful round. Waiters it
    /// covered fail their durability wait instead of spinning on a dead
    /// disk; a waiter appended after it leads a retry, so one transient
    /// error does not fail every later commit.
    error: Option<(u64, String)>,
}

/// State shared between the [`WalWriter`] (owned by storage, used under
/// the engine lock) and the off-lock [`CommitWaiter`]s.
#[derive(Debug)]
struct WalShared {
    group: Mutex<GroupState>,
    cv: Condvar,
    disk: Mutex<DiskCore>,
    counters: WalCounters,
}

/// Append-only WAL writer with group commit.
#[derive(Debug)]
pub struct WalWriter {
    shared: Arc<WalShared>,
    path: PathBuf,
    next_seq: u64,
    config: WalConfig,
}

impl WalWriter {
    /// Open (or create) the WAL in `dir`, scanning any existing log,
    /// truncating a torn tail, and positioning for append. Returns the
    /// writer plus what was read — the caller replays the batches.
    pub fn open(dir: &Path, config: WalConfig) -> Result<(WalWriter, WalReadResult), StorageError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let read = read_wal(&path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if read.total_bytes == 0 {
            file.write_all(WAL_MAGIC)?;
            file.sync_all()?;
        } else {
            // Drop the torn tail (and a torn magic: rewrite it whole).
            if read.valid_bytes < WAL_MAGIC.len() as u64 {
                file.set_len(0)?;
                file.write_all(WAL_MAGIC)?;
                file.sync_all()?;
            } else if read.torn_tail {
                file.set_len(read.valid_bytes)?;
                file.sync_all()?;
            }
        }
        let good_len = file.seek(SeekFrom::End(0))?;
        let last_seq = read.last_seq();
        let shared = Arc::new(WalShared {
            group: Mutex::new(GroupState {
                durable_seq: last_seq,
                ..GroupState::default()
            }),
            cv: Condvar::new(),
            disk: Mutex::new(DiskCore {
                file,
                good_len,
                needs_repair: false,
                dirty: false,
                written_seq: last_seq,
                unsynced: 0,
                #[cfg(feature = "fault-injection")]
                faults: None,
            }),
            counters: WalCounters::default(),
        });
        let writer = WalWriter {
            shared,
            path,
            next_seq: last_seq + 1,
            config,
        };
        Ok((writer, read))
    }

    /// Raise the next sequence number above `seq`. Recovery calls this
    /// with the snapshot's `last_seq`: after a checkpoint the truncated
    /// log no longer shows the sequence numbers the snapshot covers, so
    /// a freshly opened writer would otherwise restart at 1 and its
    /// batches would be skipped (as `<= snapshot_seq`) at the *next*
    /// recovery.
    pub fn ensure_seq_above(&mut self, seq: u64) {
        if self.next_seq <= seq {
            self.next_seq = seq + 1;
        }
    }

    /// Attach a fault plan; subsequent writes consult it.
    #[cfg(feature = "fault-injection")]
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.shared.disk.lock().expect("wal disk lock").faults = Some(plan);
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Sequence number the next appended batch will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Snapshot of the durability counters (fsyncs, group sizes, woken
    /// waiters) since this writer was opened.
    pub fn metrics(&self) -> WalMetrics {
        self.shared.counters.snapshot()
    }

    /// Append one committed batch. With `group_commit` = 1 the batch is
    /// on disk (synced) when this returns; otherwise it may sit in the
    /// group buffer until the group fills or [`WalWriter::flush`] runs.
    ///
    /// On error *this* batch is withdrawn — its commit is failing, and
    /// the caller decides whether to retry (re-append) or roll back, in
    /// which case its records must never surface in the log. Earlier
    /// group-buffered batches already returned `Ok` to their commits and
    /// stay queued for the next flush.
    pub fn append(&mut self, records: &[WalRecord]) -> Result<u64, StorageError> {
        let seq = self.next_seq;
        let (frame, rec_ends) = frame_batch(seq, records);
        self.next_seq += 1;
        let filled = {
            let mut st = self.shared.group.lock().expect("wal group lock");
            st.pending.push(PendingBatch {
                seq,
                frame,
                rec_ends,
            });
            st.pending.len() >= self.config.group_commit
        };
        if filled {
            if let Err(e) = self.flush() {
                self.shared
                    .group
                    .lock()
                    .expect("wal group lock")
                    .pending
                    .retain(|b| b.seq != seq);
                return Err(e);
            }
        }
        Ok(seq)
    }

    /// Frame one committed batch into the shared group buffer *without*
    /// flushing, and return a [`CommitWaiter`] for the off-lock
    /// durability wait. Called under the engine lock, so batches enter
    /// the buffer in commit order; the caller releases the lock and then
    /// blocks in [`CommitWaiter::wait`].
    pub fn append_buffered(&mut self, records: &[WalRecord]) -> CommitWaiter {
        let seq = self.next_seq;
        let (frame, rec_ends) = frame_batch(seq, records);
        self.next_seq += 1;
        {
            let mut st = self.shared.group.lock().expect("wal group lock");
            st.pending.push(PendingBatch {
                seq,
                frame,
                rec_ends,
            });
        }
        CommitWaiter {
            shared: Arc::clone(&self.shared),
            seq,
        }
    }

    /// Write and sync every buffered batch.
    ///
    /// On error the unwritten batches stay in the group buffer and any
    /// torn bytes from a partial write are marked for repair, so a
    /// retried flush (or the next append) first restores a clean file
    /// tail and then re-attempts the writes — a retried commit is
    /// recoverable, not silently lost behind an unreadable frame.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        loop {
            let st = self.shared.group.lock().expect("wal group lock");
            if st.leader {
                // An off-lock commit waiter is mid-flush; let it finish,
                // then re-check what is left.
                let _unused = self.shared.cv.wait(st).expect("wal group lock");
                continue;
            }
            return run_leader_round(&self.shared, st);
        }
    }

    /// Truncate the log after a checkpoint: every batch up to and
    /// including `last_seq` is captured by the snapshot, so the log
    /// restarts empty (sequence numbering continues).
    pub fn truncate_after_checkpoint(&mut self) -> Result<(), StorageError> {
        self.flush()?;
        let mut disk = self.shared.disk.lock().expect("wal disk lock");
        disk.file.set_len(WAL_MAGIC.len() as u64)?;
        disk.file.sync_all()?;
        disk.file.seek(SeekFrom::End(0))?;
        disk.good_len = WAL_MAGIC.len() as u64;
        disk.needs_repair = false;
        disk.dirty = false;
        Ok(())
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl DiskCore {
    /// Truncate torn bytes a failed write left past the last complete
    /// frame, repositioning for append. No-op unless a write failed.
    fn repair_torn_tail(&mut self) -> Result<(), StorageError> {
        if !self.needs_repair {
            return Ok(());
        }
        self.file.set_len(self.good_len)?;
        self.file.seek(SeekFrom::Start(self.good_len))?;
        self.needs_repair = false;
        Ok(())
    }

    /// Physically write one framed batch, honoring any fault plan.
    #[allow(unused_variables)]
    fn write_batch(&mut self, batch: &PendingBatch) -> Result<(), StorageError> {
        let (seq, frame, rec_ends) = (batch.seq, &batch.frame, &batch.rec_ends);
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = self.faults.clone() {
            if plan.is_crashed() {
                self.written_seq = seq;
                return Ok(()); // writes after the crash vanish
            }
            if plan.take_io_error(seq) {
                return Err(StorageError::Io("injected I/O error".into()));
            }
            if let Some(keep) = plan.take_torn_write(seq) {
                // A partial `write_all` (e.g. ENOSPC): some frame bytes
                // land, then the write fails — exactly the debris
                // `repair_torn_tail` exists to clean up.
                let keep = keep.min(frame.len());
                let _ = self.file.write_all(&frame[..keep]);
                self.needs_repair = true;
                return Err(StorageError::Io("injected torn write".into()));
            }
            match plan.wal_fault() {
                Some(&WalFault::CrashAfterRecords(n)) => {
                    let start = plan.records_written();
                    let nrecs = rec_ends.len() as u64;
                    if start + nrecs > n {
                        // Tear the frame at the crash record's boundary:
                        // records before it survive as a torn (CRC-less)
                        // frame the reader will reject whole.
                        let keep_records = n.saturating_sub(start) as usize;
                        let keep = if keep_records == 0 {
                            frame.len().min(4) // only part of the header lands
                        } else {
                            rec_ends[keep_records - 1]
                        };
                        self.file.write_all(&frame[..keep])?;
                        self.file.sync_data()?;
                        plan.mark_crashed();
                        self.written_seq = seq;
                        return Ok(());
                    }
                    plan.note_records_written(nrecs);
                }
                Some(&WalFault::ShortWrite { batch, keep }) if batch == seq => {
                    let keep = keep.min(frame.len());
                    self.file.write_all(&frame[..keep])?;
                    self.file.sync_data()?;
                    plan.mark_crashed();
                    self.written_seq = seq;
                    return Ok(());
                }
                _ => {}
            }
        }
        if let Err(e) = self.file.write_all(frame) {
            // Torn bytes may now sit past `good_len` at an arbitrary
            // offset; repair before the next append.
            self.needs_repair = true;
            return Err(e.into());
        }
        self.good_len += frame.len() as u64;
        self.written_seq = seq;
        self.unsynced += 1;
        self.dirty = true;
        Ok(())
    }
}

/// One leader flush round over the group buffer. The caller holds the
/// group lock with no other leader active; the round drains the pending
/// batches, releases the group lock, performs the write + fsync under
/// the disk lock, then re-acquires the group lock to publish the new
/// durable sequence (or the error) and wake every waiter. The leader
/// never waits for stragglers: batches appended while it writes form
/// the next round's group.
fn run_leader_round(
    shared: &WalShared,
    mut st: MutexGuard<'_, GroupState>,
) -> Result<(), StorageError> {
    st.leader = true;
    let batch: Vec<PendingBatch> = std::mem::take(&mut st.pending);
    let covered = batch.last().map_or(st.durable_seq, |b| b.seq);
    drop(st);

    let mut disk = shared.disk.lock().expect("wal disk lock");
    let mut failed: Option<(usize, StorageError)> = None;
    if let Err(e) = disk.repair_torn_tail() {
        failed = Some((0, e));
    }
    if failed.is_none() {
        for (i, b) in batch.iter().enumerate() {
            if let Err(e) = disk.write_batch(b) {
                failed = Some((i, e));
                break;
            }
        }
    }
    if failed.is_none() && disk.dirty {
        match disk.file.sync_data() {
            Ok(()) => {
                shared.counters.record_sync(disk.unsynced);
                disk.unsynced = 0;
                disk.dirty = false;
            }
            Err(e) => failed = Some((batch.len(), e.into())),
        }
    }
    let synced_seq = if failed.is_none() {
        disk.written_seq
    } else {
        0 // unused on the error path
    };
    drop(disk);

    let mut st = shared.group.lock().expect("wal group lock");
    st.leader = false;
    let result = match failed {
        None => {
            st.durable_seq = st.durable_seq.max(synced_seq);
            st.error = None;
            Ok(())
        }
        Some((written, e)) => {
            // Batches from the failed one onward go back to the front of
            // the buffer (appends that raced in have higher sequence
            // numbers), preserving write order for the retry.
            let mut rest: Vec<PendingBatch> = batch.into_iter().skip(written).collect();
            rest.append(&mut st.pending);
            st.pending = rest;
            st.error = Some((covered, e.to_string()));
            Err(e)
        }
    };
    drop(st);
    shared.cv.notify_all();
    result
}

/// The durability half of a pipelined commit: a handle on one appended
/// batch, blocked on until that batch's sequence is covered by a group
/// flush. The first waiter to arrive becomes the flush leader (one
/// `write + fsync` for every pending batch); the rest are followers and
/// never touch the file.
#[derive(Debug)]
pub struct CommitWaiter {
    shared: Arc<WalShared>,
    seq: u64,
}

impl CommitWaiter {
    /// The commit sequence this waiter acknowledges.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Block until this commit's batch is durable (covered by a group
    /// fsync). Must be called *after* releasing the engine lock — that
    /// is the point of the split.
    ///
    /// On `Err` the batch's durability is unknown: the flush round
    /// covering it failed, the batch stays queued, and a later retry (or
    /// shutdown flush) may still land it — the same at-least-once
    /// ambiguity any group-commit log has on a mid-group I/O error.
    pub fn wait(self) -> Result<(), StorageError> {
        let mut led = false;
        let mut st = self.shared.group.lock().expect("wal group lock");
        loop {
            if st.durable_seq >= self.seq {
                if !led {
                    self.shared
                        .counters
                        .waiters_woken
                        .fetch_add(1, Ordering::Relaxed);
                }
                return Ok(());
            }
            if let Some((_, msg)) = st
                .error
                .as_ref()
                .filter(|(covered, _)| self.seq <= *covered)
            {
                return Err(StorageError::Io(format!(
                    "group commit flush failed (durability unknown): {msg}"
                )));
            }
            if st.leader {
                st = self.shared.cv.wait(st).expect("wal group lock");
                continue;
            }
            led = true;
            run_leader_round(&self.shared, st)?;
            st = self.shared.group.lock().expect("wal group lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_types::tuple;

    fn rec(rel: &str, op: LogOp, t: Tuple) -> WalRecord {
        WalRecord {
            rel: rel.into(),
            op,
            tuple: t,
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amos-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn roundtrip_batches() {
        let dir = tmpdir("roundtrip");
        let records = vec![
            rec("q", LogOp::Insert, tuple![1, "abc"]),
            rec(
                "q",
                LogOp::Delete,
                Tuple::new(vec![Value::Bool(true), Value::real(2.5).unwrap()]),
            ),
            rec(
                "r",
                LogOp::Insert,
                Tuple::new(vec![Value::Oid(Oid::from_raw(9))]),
            ),
        ];
        {
            let (mut w, read) = WalWriter::open(&dir, WalConfig::default()).unwrap();
            assert_eq!(read.batches.len(), 0);
            w.append(&records).unwrap();
            w.append(&records[..1]).unwrap();
        }
        let read = read_wal(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(read.batches.len(), 2);
        assert_eq!(read.batches[0].seq, 1);
        assert_eq!(read.batches[0].records, records);
        assert_eq!(read.batches[1].seq, 2);
        assert!(!read.torn_tail);
        // Reopen continues the sequence.
        let (w, read) = WalWriter::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(w.next_seq(), 3);
        assert_eq!(read.batches.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_yields_a_valid_prefix() {
        let dir = tmpdir("prefix");
        {
            let (mut w, _) = WalWriter::open(&dir, WalConfig::default()).unwrap();
            for i in 0..5i64 {
                w.append(&[rec("q", LogOp::Insert, tuple![i, "payload"])])
                    .unwrap();
            }
        }
        let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let full = read_wal_bytes(&bytes).unwrap();
        assert_eq!(full.batches.len(), 5);
        // End offset of each frame, by re-framing in order.
        let mut ends = Vec::new();
        let mut off = WAL_MAGIC.len();
        for b in &full.batches {
            off += frame_batch(b.seq, &b.records).0.len();
            ends.push(off);
        }
        for cut in 0..=bytes.len() {
            let read = read_wal_bytes(&bytes[..cut]).unwrap();
            // The valid prefix is exactly the batches whose frames fit.
            let expect = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(read.batches.len(), expect, "cut at {cut}");
            assert!(read.valid_bytes as usize <= cut);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_truncates_torn_tail() {
        let dir = tmpdir("torn");
        {
            let (mut w, _) = WalWriter::open(&dir, WalConfig::default()).unwrap();
            w.append(&[rec("q", LogOp::Insert, tuple![1])]).unwrap();
            w.append(&[rec("q", LogOp::Insert, tuple![2])]).unwrap();
        }
        // Tear the last batch by chopping 3 bytes.
        let path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let (mut w, read) = WalWriter::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(read.batches.len(), 1);
        assert!(read.torn_tail);
        assert_eq!(w.next_seq(), 2);
        w.append(&[rec("q", LogOp::Insert, tuple![3])]).unwrap();
        drop(w);
        let read = read_wal(&path).unwrap();
        assert_eq!(read.batches.len(), 2);
        assert_eq!(read.batches[1].seq, 2);
        assert!(!read.torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_buffers_until_full() {
        let dir = tmpdir("group");
        let path = dir.join(WAL_FILE);
        {
            let (mut w, _) = WalWriter::open(&dir, WalConfig::grouped(3)).unwrap();
            w.append(&[rec("q", LogOp::Insert, tuple![1])]).unwrap();
            w.append(&[rec("q", LogOp::Insert, tuple![2])]).unwrap();
            assert_eq!(
                read_wal(&path).unwrap().batches.len(),
                0,
                "buffered, not yet on disk"
            );
            w.append(&[rec("q", LogOp::Insert, tuple![3])]).unwrap();
            assert_eq!(read_wal(&path).unwrap().batches.len(), 3, "group flushed");
            w.append(&[rec("q", LogOp::Insert, tuple![4])]).unwrap();
        }
        // Drop flushes the partial group.
        assert_eq!(read_wal(&path).unwrap().batches.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_is_corrupt_not_torn() {
        assert!(matches!(
            read_wal_bytes(b"NOTAWAL!rest"),
            Err(StorageError::Corrupt(_))
        ));
    }
}
