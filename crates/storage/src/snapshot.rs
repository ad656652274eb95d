//! The on-disk snapshot container: versioned, checksummed, fingerprinted.
//!
//! A snapshot file materializes one built index so later sessions reload it
//! instead of rebuilding — the paper's "pay the build cost once, amortize it
//! over query workloads" assumption made real. The container wraps the
//! method-specific payload (serialized through the [`hydra_core::persist`]
//! traits) in an envelope that makes every failure mode a *typed error*:
//!
//! ```text
//! magic        8  b"HYSNAPv1"
//! version      u16 (little-endian)        CONTAINER_VERSION
//! kind         u16 length + UTF-8 bytes   PersistentIndex::snapshot_kind()
//! dataset_fp   u64                        fingerprint of the raw dataset
//! options_fp   u64                        fingerprint of the BuildOptions
//! payload_len  u64
//! payload      payload_len bytes          method-specific structure
//! checksum     u64                        FNV-1a over everything above
//! ```
//!
//! Save and load go through **real `std::fs` file I/O**, and both directions
//! are charged to the instrumented store ([`DatasetStore::record_index_write`]
//! on save, [`DatasetStore::record_index_read`] on load), so measured
//! snapshot traffic replaces part of the modelled index I/O in every
//! experiment that runs with an index directory.

use crate::store::DatasetStore;
use hydra_core::hash::Fnv1a;
use hydra_core::persist::{PersistentIndex, SliceSource, SnapshotSink, SnapshotSource};
use hydra_core::{BuildOptions, Dataset, Error, Result};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// The 8-byte magic prefix of every snapshot file.
pub const MAGIC: [u8; 8] = *b"HYSNAPv1";

/// The container format version. Bump when the envelope layout changes;
/// payload evolution is the method's business (via its `snapshot_kind`).
pub const CONTAINER_VERSION: u16 = 1;

/// Fingerprint of a dataset: series count, series length, and every value's
/// bit pattern. Two datasets fingerprint equal iff they are bit-identical,
/// which is exactly the condition under which a snapshot built over one is
/// valid for the other.
pub fn dataset_fingerprint(dataset: &Dataset) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(dataset.len() as u64);
    h.write_u64(dataset.series_length() as u64);
    for &v in dataset.flat_values() {
        h.write_bytes(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

/// Fingerprint of the build options that shape an index.
///
/// `build_threads` is deliberately excluded: the tree builds are proven to
/// produce the identical index for every thread count, so a snapshot built at
/// one parallelism is valid at any other.
pub fn options_fingerprint(options: &BuildOptions) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(options.leaf_capacity as u64);
    h.write_u64(options.segments as u64);
    h.write_u64(options.alphabet_size as u64);
    h.write_u64(options.train_samples as u64);
    h.finish()
}

/// The canonical file name of a snapshot: a slug of the payload kind plus
/// both fingerprints, so indexes of different methods, datasets, or options
/// never collide inside one index directory.
pub fn snapshot_file_name(kind: &str, dataset_fp: u64, options_fp: u64) -> String {
    let slug: String = kind
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    format!("{slug}-{dataset_fp:016x}-{options_fp:016x}.snapshot")
}

/// Accumulates a snapshot in memory; [`SnapshotWriter::write_to`] then emits
/// the envelope + payload + checksum to disk in one `std::fs` write.
#[derive(Debug)]
pub struct SnapshotWriter {
    kind: String,
    dataset_fp: u64,
    options_fp: u64,
    payload: Vec<u8>,
}

impl SnapshotSink for SnapshotWriter {
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.payload.extend_from_slice(bytes);
        Ok(())
    }
}

impl SnapshotWriter {
    /// Starts a snapshot for the given payload kind and fingerprints.
    pub fn new(kind: &str, dataset_fp: u64, options_fp: u64) -> Self {
        Self {
            kind: kind.to_string(),
            dataset_fp,
            options_fp,
            payload: Vec::new(),
        }
    }

    /// The number of payload bytes buffered so far.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Serializes the envelope and payload to `path`, returning the total
    /// file size in bytes. The file is written atomically enough for the
    /// cache's purposes: a torn write is caught by the checksum on load.
    pub fn write_to(self, path: &Path) -> Result<u64> {
        let mut bytes = Vec::with_capacity(self.payload.len() + 64);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
        let kind_bytes = self.kind.as_bytes();
        bytes.extend_from_slice(&(kind_bytes.len() as u16).to_le_bytes());
        bytes.extend_from_slice(kind_bytes);
        bytes.extend_from_slice(&self.dataset_fp.to_le_bytes());
        bytes.extend_from_slice(&self.options_fp.to_le_bytes());
        bytes.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&self.payload);
        let mut h = Fnv1a::new();
        h.write_bytes(&bytes);
        bytes.extend_from_slice(&h.finish().to_le_bytes());

        let mut file = std::fs::File::create(path)?;
        file.write_all(&bytes)?;
        file.flush()?;
        Ok(bytes.len() as u64)
    }
}

/// A validated, checksum-verified snapshot file, positioned at the start of
/// the payload.
#[derive(Debug)]
pub struct SnapshotReader {
    data: Vec<u8>,
    /// Offset one past the last payload byte.
    payload_end: usize,
    /// Read cursor, starting at the first payload byte.
    pos: usize,
    kind: String,
    dataset_fp: u64,
    options_fp: u64,
}

fn invalid(msg: impl Into<String>) -> Error {
    Error::InvalidSnapshot(msg.into())
}

impl SnapshotReader {
    /// Reads `path` in full, verifies magic, version, checksum, and the
    /// payload length, and returns a reader positioned at the payload.
    ///
    /// Every malformation is an [`Error::InvalidSnapshot`]; a missing file
    /// surfaces as [`Error::Io`].
    pub fn open(path: &Path) -> Result<Self> {
        let data = std::fs::read(path)?;
        // Envelope floor: magic + version + kind len + fps + payload len + checksum.
        let min_len = MAGIC.len() + 2 + 2 + 8 + 8 + 8 + 8;
        if data.len() < min_len {
            return Err(invalid(format!(
                "file is {} bytes, smaller than the smallest valid snapshot ({min_len})",
                data.len()
            )));
        }
        if data[..MAGIC.len()] != MAGIC {
            return Err(invalid("bad magic: not a hydra snapshot file"));
        }
        let trailer_at = data.len() - 8;
        let stored_checksum = u64::from_le_bytes(data[trailer_at..].try_into().unwrap());
        let mut h = Fnv1a::new();
        h.write_bytes(&data[..trailer_at]);
        if h.finish() != stored_checksum {
            return Err(invalid("checksum mismatch: the file is damaged"));
        }
        let mut cursor = SliceSource::new(&data[MAGIC.len()..trailer_at]);
        let version = cursor.get_u16()?;
        if version != CONTAINER_VERSION {
            return Err(invalid(format!(
                "unsupported container version {version} (this build reads {CONTAINER_VERSION})"
            )));
        }
        let kind_len = cursor.get_u16()? as usize;
        let mut kind_bytes = vec![0u8; kind_len];
        cursor.read_bytes(&mut kind_bytes)?;
        let kind = String::from_utf8(kind_bytes)
            .map_err(|_| invalid("payload kind is not valid UTF-8"))?;
        let dataset_fp = cursor.get_u64()?;
        let options_fp = cursor.get_u64()?;
        let payload_len = cursor.get_u64()? as usize;
        let payload_start = MAGIC.len() + cursor.consumed();
        let payload_end = payload_start
            .checked_add(payload_len)
            .ok_or_else(|| invalid("payload length overflows"))?;
        if payload_end != trailer_at {
            return Err(invalid(format!(
                "payload length {payload_len} does not match the file size"
            )));
        }
        Ok(Self {
            data,
            payload_end,
            pos: payload_start,
            kind,
            dataset_fp,
            options_fp,
        })
    }

    /// The payload kind recorded in the header.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The dataset fingerprint recorded in the header.
    pub fn dataset_fingerprint(&self) -> u64 {
        self.dataset_fp
    }

    /// The options fingerprint recorded in the header.
    pub fn options_fingerprint(&self) -> u64 {
        self.options_fp
    }

    /// The total file size in bytes (what one load physically reads).
    pub fn file_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Errors with [`Error::StaleSnapshot`] unless the header matches the
    /// expected kind and fingerprints.
    pub fn expect(&self, kind: &str, dataset_fp: u64, options_fp: u64) -> Result<()> {
        if self.kind != kind {
            return Err(Error::StaleSnapshot(format!(
                "payload kind is {:?}, expected {kind:?}",
                self.kind
            )));
        }
        if self.dataset_fp != dataset_fp {
            return Err(Error::StaleSnapshot(format!(
                "dataset fingerprint {:016x} does not match the store's {dataset_fp:016x} \
                 (the dataset changed since the snapshot was built)",
                self.dataset_fp
            )));
        }
        if self.options_fp != options_fp {
            return Err(Error::StaleSnapshot(format!(
                "build-options fingerprint {:016x} does not match the requested {options_fp:016x}",
                self.options_fp
            )));
        }
        Ok(())
    }

    /// Errors with [`Error::InvalidSnapshot`] if payload bytes are left over
    /// (a payload/parser mismatch that would otherwise pass silently).
    pub fn finish(&self) -> Result<()> {
        let left = self.payload_end - self.pos;
        if left != 0 {
            return Err(invalid(format!(
                "payload has {left} undecoded trailing bytes"
            )));
        }
        Ok(())
    }
}

impl SnapshotSource for SnapshotReader {
    fn read_bytes(&mut self, buf: &mut [u8]) -> Result<()> {
        let remaining = self.payload_end - self.pos;
        if remaining < buf.len() {
            return Err(invalid(format!(
                "truncated payload: needed {} bytes, {remaining} left",
                buf.len()
            )));
        }
        buf.copy_from_slice(&self.data[self.pos..self.pos + buf.len()]);
        self.pos += buf.len();
        Ok(())
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some((self.payload_end - self.pos) as u64)
    }
}

/// Saves a built index as a snapshot at `path`, charging the written bytes to
/// the store's counters. Returns the file size.
pub fn save_index<I>(
    index: &I,
    store: &DatasetStore,
    options: &BuildOptions,
    path: &Path,
) -> Result<u64>
where
    I: PersistentIndex<Context = Arc<DatasetStore>>,
{
    save_index_with(
        index,
        store,
        dataset_fingerprint(store.dataset()),
        options_fingerprint(options),
        path,
    )
}

/// [`save_index`] with precomputed fingerprints, so a caller that already
/// hashed the dataset (e.g. to derive the file name) does not hash it again.
pub fn save_index_with<I>(
    index: &I,
    store: &DatasetStore,
    dataset_fp: u64,
    options_fp: u64,
    path: &Path,
) -> Result<u64>
where
    I: PersistentIndex<Context = Arc<DatasetStore>>,
{
    let mut writer = SnapshotWriter::new(I::snapshot_kind(), dataset_fp, options_fp);
    index.save_payload(&mut writer)?;
    let bytes = writer.write_to(path)?;
    store.record_index_write(bytes);
    corrupt_if_planned(store, path)?;
    Ok(bytes)
}

/// The snapshot-corruption fault: when the store's [`crate::fault::FaultPlan`]
/// selects this file (keyed deterministically on its name), flip one byte in
/// the middle of the just-written snapshot. The checksum catches it on the
/// next load, exercising the quarantine-and-rebuild recovery path.
fn corrupt_if_planned(store: &DatasetStore, path: &Path) -> Result<()> {
    let name = path
        .file_name()
        .map(|n| n.as_encoded_bytes())
        .unwrap_or(&[]);
    let key = crate::fault::key_for_bytes(name);
    if !store.fault_plan().corrupt_snapshot(key) {
        return Ok(());
    }
    let mut data = std::fs::read(path)?;
    if !data.is_empty() {
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        std::fs::write(path, data)?;
    }
    Ok(())
}

/// Moves a damaged or stale snapshot aside as `<path>.corrupt` so the caller
/// can rebuild and re-save a clean one under the original name. Returns the
/// quarantine path.
pub fn quarantine(path: &Path) -> Result<std::path::PathBuf> {
    let mut quarantined = path.as_os_str().to_owned();
    quarantined.push(".corrupt");
    let quarantined = std::path::PathBuf::from(quarantined);
    std::fs::rename(path, &quarantined)?;
    Ok(quarantined)
}

/// Loads a snapshot from `path` and reattaches it to `store`, charging the
/// read bytes to the store's counters.
///
/// Validation order: container integrity first (magic, version, checksum,
/// length) with [`Error::InvalidSnapshot`], then header agreement (kind and
/// both fingerprints) with [`Error::StaleSnapshot`], then payload decoding.
/// The physical read is charged as soon as the container is open, whether or
/// not the snapshot turns out to be usable — the I/O happened either way.
pub fn load_index<I>(store: Arc<DatasetStore>, options: &BuildOptions, path: &Path) -> Result<I>
where
    I: PersistentIndex<Context = Arc<DatasetStore>>,
{
    let dataset_fp = dataset_fingerprint(store.dataset());
    let options_fp = options_fingerprint(options);
    Ok(load_index_with(store, dataset_fp, options_fp, path)?.0)
}

/// [`load_index`] with precomputed fingerprints; also returns the snapshot's
/// file size (what the counted read charged), saving the caller a re-stat.
pub fn load_index_with<I>(
    store: Arc<DatasetStore>,
    dataset_fp: u64,
    options_fp: u64,
    path: &Path,
) -> Result<(I, u64)>
where
    I: PersistentIndex<Context = Arc<DatasetStore>>,
{
    let mut reader = SnapshotReader::open(path)?;
    let bytes = reader.file_bytes();
    store.record_index_read(bytes);
    reader.expect(I::snapshot_kind(), dataset_fp, options_fp)?;
    let index = I::load_payload(store, &mut reader)?;
    reader.finish()?;
    Ok((index, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("hydra-snapshot-unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.snapshot", std::process::id()))
    }

    #[test]
    fn container_round_trips_payload_and_header() {
        let path = temp_path("roundtrip");
        let mut w = SnapshotWriter::new("test/v1", 0xAA, 0xBB);
        w.put_u64(7).unwrap();
        w.put_f64(2.5).unwrap();
        assert_eq!(w.payload_len(), 16);
        let written = w.write_to(&path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());

        let mut r = SnapshotReader::open(&path).unwrap();
        assert_eq!(r.kind(), "test/v1");
        assert_eq!(r.dataset_fingerprint(), 0xAA);
        assert_eq!(r.options_fingerprint(), 0xBB);
        assert_eq!(r.file_bytes(), written);
        r.expect("test/v1", 0xAA, 0xBB).unwrap();
        assert_eq!(r.get_u64().unwrap(), 7);
        assert_eq!(r.get_f64().unwrap(), 2.5);
        r.finish().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatches_are_stale_errors() {
        let path = temp_path("stale");
        SnapshotWriter::new("kindA", 1, 2).write_to(&path).unwrap();
        let r = SnapshotReader::open(&path).unwrap();
        assert!(matches!(
            r.expect("kindB", 1, 2),
            Err(Error::StaleSnapshot(_))
        ));
        assert!(matches!(
            r.expect("kindA", 9, 2),
            Err(Error::StaleSnapshot(_))
        ));
        assert!(matches!(
            r.expect("kindA", 1, 9),
            Err(Error::StaleSnapshot(_))
        ));
        r.expect("kindA", 1, 2).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damage_is_an_invalid_snapshot_error() {
        let path = temp_path("damage");
        let mut w = SnapshotWriter::new("k", 0, 0);
        w.write_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        w.write_to(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncation.
        std::fs::write(&path, &good[..good.len() - 5]).unwrap();
        assert!(matches!(
            SnapshotReader::open(&path),
            Err(Error::InvalidSnapshot(_))
        ));
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            SnapshotReader::open(&path),
            Err(Error::InvalidSnapshot(_))
        ));
        // Wrong version (re-checksummed, so only the version check fires).
        let mut versioned = good.clone();
        versioned[8] = 0xEE;
        versioned[9] = 0x7F;
        let trailer = versioned.len() - 8;
        let mut h = Fnv1a::new();
        h.write_bytes(&versioned[..trailer]);
        let sum = h.finish().to_le_bytes();
        versioned[trailer..].copy_from_slice(&sum);
        std::fs::write(&path, &versioned).unwrap();
        let err = SnapshotReader::open(&path).unwrap_err();
        assert!(
            matches!(&err, Error::InvalidSnapshot(m) if m.contains("version")),
            "{err}"
        );
        // A payload bit-flip fails the checksum.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        let err = SnapshotReader::open(&path).unwrap_err();
        assert!(
            matches!(&err, Error::InvalidSnapshot(m) if m.contains("checksum")),
            "{err}"
        );
        // An empty file is too small to be a snapshot.
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(
            SnapshotReader::open(&path),
            Err(Error::InvalidSnapshot(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = temp_path("never-written-such-file-missing");
        std::fs::remove_file(&path).ok();
        assert!(matches!(SnapshotReader::open(&path), Err(Error::Io { .. })));
    }

    #[test]
    fn quarantine_renames_to_dot_corrupt() {
        let path = temp_path("quarantine");
        SnapshotWriter::new("k", 0, 0).write_to(&path).unwrap();
        let moved = quarantine(&path).unwrap();
        assert_eq!(moved.extension().unwrap(), "corrupt");
        assert!(!path.exists());
        assert!(moved.exists());
        // Quarantining a missing file is a (non-retriable) I/O error.
        assert!(matches!(quarantine(&path), Err(Error::Io { .. })));
        std::fs::remove_file(&moved).ok();
    }

    #[test]
    fn fingerprints_detect_any_change() {
        let a = Dataset::from_flat(vec![0.0, 1.0, 2.0, 3.0], 2);
        let mut b = Dataset::from_flat(vec![0.0, 1.0, 2.0, 3.0], 2);
        assert_eq!(dataset_fingerprint(&a), dataset_fingerprint(&b));
        b.push(&[4.0, 5.0]);
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&b));
        let c = Dataset::from_flat(vec![0.0, 1.0, 2.0, 3.5], 2);
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&c));
        // Same values, different geometry.
        let d = Dataset::from_flat(vec![0.0, 1.0, 2.0, 3.0], 4);
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&d));

        let base = BuildOptions::default();
        assert_eq!(options_fingerprint(&base), options_fingerprint(&base));
        assert_ne!(
            options_fingerprint(&base),
            options_fingerprint(&base.clone().with_leaf_capacity(7))
        );
        assert_ne!(
            options_fingerprint(&base),
            options_fingerprint(&base.clone().with_segments(8))
        );
        // Thread count must NOT invalidate a snapshot: builds are identical
        // for every thread count.
        assert_eq!(
            options_fingerprint(&base),
            options_fingerprint(&base.clone().with_build_threads(8))
        );
    }

    #[test]
    fn file_names_are_unique_per_kind_and_fingerprint() {
        let a = snapshot_file_name("VA+file/v1", 1, 2);
        let b = snapshot_file_name("VA+file/v1", 1, 3);
        let c = snapshot_file_name("DSTree/v1", 1, 2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(a
            .chars()
            .all(|ch| ch.is_ascii_alphanumeric() || ch == '_' || ch == '-' || ch == '.'));
    }
}
