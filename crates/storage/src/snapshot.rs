//! Checkpoint snapshots: a full image of the base relations, so the WAL
//! can be truncated and recovery time stays bounded by the work since the
//! last checkpoint rather than the life of the database.
//!
//! ```text
//! file := magic "AMOSSNP2" body crc:u32      (crc over body)
//! body := last_seq:u64 next_oid:u64 n_rels:u32 relation*
//! relation := name_len:u16 name:utf8 arity:u16 n_runs:u32 run*
//! run := count:u64 tuple*                    (tuples in value order)
//! ```
//!
//! A relation's image is its **sorted runs** as they sit in memory
//! (tombstones already reconciled, the mutable head sealed as a final
//! run) — checkpointing streams runs out and recovery adopts them back
//! verbatim, with no rehydration through hash maps on either side. The
//! previous `AMOSSNP1` format (one flat, unordered tuple list per
//! relation) is still read, as a single run that gets defensively
//! sorted on load.
//!
//! Snapshots are written to a temporary file and atomically renamed into
//! place, so a crash mid-checkpoint leaves the previous snapshot (or
//! none) intact — there is no torn-snapshot state to repair, and a CRC
//! mismatch is reported as [`StorageError::Corrupt`] rather than
//! silently ignored.

use std::io::Write as _;
use std::path::Path;

use amos_types::Tuple;

use crate::error::StorageError;
use crate::wal::{crc32, encode_tuple, Cursor};

/// File name of the snapshot inside a WAL directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Magic bytes opening a snapshot file (run-structured format).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"AMOSSNP2";
/// Magic of the legacy flat-tuple-list format, still readable.
pub const SNAPSHOT_MAGIC_V1: &[u8; 8] = b"AMOSSNP1";

/// One relation's image inside a snapshot: its sorted runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRelation {
    /// Relation name (ids are per-process; names are durable).
    pub name: String,
    /// Declared arity (kept even when the relation is empty).
    pub arity: usize,
    /// The tombstone-free sorted runs (a v1 snapshot decodes as one
    /// possibly-unordered run).
    pub runs: Vec<Vec<Tuple>>,
}

/// A decoded snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// WAL sequence number up to which this snapshot is complete;
    /// recovery replays only batches with larger sequence numbers.
    pub last_seq: u64,
    /// The oid allocator's next value at checkpoint time.
    pub next_oid: u64,
    /// Every base relation.
    pub relations: Vec<SnapshotRelation>,
}

/// Serialize and atomically install a snapshot at `path`.
pub fn write_snapshot(path: &Path, snap: &Snapshot) -> Result<(), StorageError> {
    let mut body = Vec::new();
    body.extend_from_slice(&snap.last_seq.to_le_bytes());
    body.extend_from_slice(&snap.next_oid.to_le_bytes());
    body.extend_from_slice(&(snap.relations.len() as u32).to_le_bytes());
    for rel in &snap.relations {
        body.extend_from_slice(&(rel.name.len() as u16).to_le_bytes());
        body.extend_from_slice(rel.name.as_bytes());
        body.extend_from_slice(&(rel.arity as u16).to_le_bytes());
        body.extend_from_slice(&(rel.runs.len() as u32).to_le_bytes());
        for run in &rel.runs {
            body.extend_from_slice(&(run.len() as u64).to_le_bytes());
            for t in run {
                encode_tuple(&mut body, t);
            }
        }
    }
    let crc = crc32(&body);

    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(SNAPSHOT_MAGIC)?;
        file.write_all(&body)?;
        file.write_all(&crc.to_le_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Load the snapshot at `path`; `Ok(None)` if none exists.
pub fn read_snapshot(path: &Path) -> Result<Option<Snapshot>, StorageError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let corrupt = |what: &str| StorageError::Corrupt(format!("snapshot: {what}"));
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 {
        return Err(corrupt("bad magic or truncated"));
    }
    let magic = &bytes[..SNAPSHOT_MAGIC.len()];
    let v1 = magic == SNAPSHOT_MAGIC_V1;
    if !v1 && magic != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic or truncated"));
    }
    let body = &bytes[SNAPSHOT_MAGIC.len()..bytes.len() - 4];
    let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if crc32(body) != stored_crc {
        return Err(corrupt("CRC mismatch"));
    }
    let mut cur = Cursor::new(body);
    let last_seq = cur.u64()?;
    let next_oid = cur.u64()?;
    let n_rels = cur.u32()? as usize;
    let mut relations = Vec::with_capacity(n_rels);
    for _ in 0..n_rels {
        let name_len = cur.u16()? as usize;
        let name = cur.str(name_len)?.to_string();
        let arity = cur.u16()? as usize;
        let n_runs = if v1 { 1 } else { cur.u32()? as usize };
        let mut runs = Vec::with_capacity(n_runs);
        for _ in 0..n_runs {
            let count = cur.u64()? as usize;
            let mut tuples = Vec::with_capacity(count);
            for _ in 0..count {
                let t = cur.tuple()?;
                if t.arity() != arity {
                    return Err(corrupt("tuple arity disagrees with relation header"));
                }
                tuples.push(t);
            }
            runs.push(tuples);
        }
        if v1 && runs.len() == 1 && runs[0].is_empty() {
            runs.clear(); // empty v1 relation: no runs, not one empty run
        }
        relations.push(SnapshotRelation { name, arity, runs });
    }
    if !cur.is_at_end() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(Some(Snapshot {
        last_seq,
        next_oid,
        relations,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_types::tuple;

    fn sample() -> Snapshot {
        Snapshot {
            last_seq: 42,
            next_oid: 17,
            relations: vec![
                SnapshotRelation {
                    name: "q".into(),
                    arity: 2,
                    runs: vec![vec![tuple![1, "a"], tuple![2, "b"]], vec![tuple![3, "c"]]],
                },
                SnapshotRelation {
                    name: "empty".into(),
                    arity: 3,
                    runs: vec![],
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let dir = std::env::temp_dir().join(format!("amos-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        assert_eq!(read_snapshot(&path).unwrap(), None);
        let snap = sample();
        write_snapshot(&path, &snap).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), Some(snap));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let dir = std::env::temp_dir().join(format!("amos-snapc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        write_snapshot(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A legacy `AMOSSNP1` file (flat tuple list per relation) still
    /// decodes, as one run per relation.
    #[test]
    fn v1_snapshot_still_readable() {
        use crate::wal::{crc32, encode_tuple};
        let mut body = Vec::new();
        body.extend_from_slice(&7u64.to_le_bytes()); // last_seq
        body.extend_from_slice(&3u64.to_le_bytes()); // next_oid
        body.extend_from_slice(&1u32.to_le_bytes()); // n_rels
        body.extend_from_slice(&1u16.to_le_bytes());
        body.extend_from_slice(b"q");
        body.extend_from_slice(&2u16.to_le_bytes()); // arity
        body.extend_from_slice(&2u64.to_le_bytes()); // count (v1: no n_runs)
        encode_tuple(&mut body, &tuple![2, "b"]);
        encode_tuple(&mut body, &tuple![1, "a"]);
        let crc = crc32(&body);

        let dir = std::env::temp_dir().join(format!("amos-snapv1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAPSHOT_MAGIC_V1);
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let snap = read_snapshot(&path).unwrap().unwrap();
        assert_eq!(snap.last_seq, 7);
        assert_eq!(snap.relations.len(), 1);
        assert_eq!(
            snap.relations[0].runs,
            vec![vec![tuple![2, "b"], tuple![1, "a"]]],
            "v1 decodes as one (possibly unordered) run"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
