//! The codec kit every on-disk format in the workspace is read and written
//! with, and the only module that mutates the filesystem. A format is owned
//! by the module that knows what its fields mean (`docs/FORMATS.md`, "Codec
//! kit and ownership", has the table); this module owns the rules all of
//! them share:
//!
//! * a file starts with an 8-byte magic and the little-endian
//!   [`FORMAT_VERSION`] — [`MetaWriter::new`] writes them,
//!   [`MetaReader::open`] checks them;
//! * every integer is little-endian and every read is bounds-checked: a
//!   read past the end is [`StorageError::Truncated`], never a panic;
//! * a count or length taken from the file is validated against the bytes
//!   actually left ([`MetaReader::rows`]) *before* anything is allocated
//!   or looped over;
//! * bytes after the last field are corruption ([`MetaReader::finish`]);
//! * a file is committed by writing a `.tmp` sibling and renaming it over
//!   the target ([`MetaWriter::commit`], and the same helper underneath
//!   for streamed shard and run files);
//! * every create, rename, append, copy and removal in the workspace is one
//!   of the plain functions at the bottom of this module. Each call is one
//!   *op* and passes one gate — the **crash seam** — which a test arms for
//!   its own temp root ([`arm_crash`]) to log a scenario's ops and to kill
//!   the "process" at any one of them.
//!
//! The kit is for headers and small metadata files. Bulk bodies — a shard's
//! label directory, an owner payload's entry table — are validated as one
//! length through the reader and then walked with `chunks_exact`.

use crate::storage::StorageError;
use std::ffi::OsStr;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Current serialization format version, shared by every format.
pub const FORMAT_VERSION: u32 = 1;

/// Attaches a path to a raw I/O error.
pub fn io_err(path: &Path, error: io::Error) -> StorageError {
    StorageError::Io {
        path: path.to_path_buf(),
        error,
    }
}

/// A bounds-checked little-endian cursor over a file's bytes: the one way
/// file bytes become fields. `path` only names the file in errors.
pub struct MetaReader<'a> {
    path: &'a Path,
    bytes: &'a [u8],
    at: usize,
}

impl<'a> MetaReader<'a> {
    /// The one header check: the 8-byte `magic`, a minimum length of
    /// `min_len` (the format's fixed part) and the [`FORMAT_VERSION`] at
    /// bytes 8..12, each with its standard typed error. Leaves the cursor
    /// on the first field after the version.
    pub fn open(
        path: &'a Path,
        bytes: &'a [u8],
        magic: &[u8; 8],
        min_len: u64,
    ) -> Result<Self, StorageError> {
        if bytes.len() < 8 || &bytes[..8] != magic {
            let mut found = [0u8; 8];
            let take = bytes.len().min(8);
            found[..take].copy_from_slice(&bytes[..take]);
            return Err(StorageError::BadMagic {
                path: path.to_path_buf(),
                found,
            });
        }
        if (bytes.len() as u64) < min_len {
            return Err(StorageError::Truncated {
                path: path.to_path_buf(),
                expected: min_len,
                actual: bytes.len() as u64,
            });
        }
        let mut reader = Self { path, bytes, at: 8 };
        match reader.u32()? {
            FORMAT_VERSION => Ok(reader),
            version => Err(StorageError::UnsupportedVersion {
                path: path.to_path_buf(),
                version,
            }),
        }
    }

    /// A cursor over a headerless body (the decrypted owner payload).
    pub fn body(path: &'a Path, bytes: &'a [u8]) -> Self {
        Self { path, bytes, at: 0 }
    }

    /// The next `len` bytes.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], StorageError> {
        let end = self.at.checked_add(len).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.at..end];
                self.at = end;
                Ok(slice)
            }
            None => Err(StorageError::Truncated {
                path: self.path.to_path_buf(),
                expected: (self.at as u64).saturating_add(len as u64),
                actual: self.bytes.len() as u64,
            }),
        }
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], StorageError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.array::<1>()?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StorageError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StorageError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A reserved `u32`: encoders write 0, anything else is corruption.
    pub fn reserved(&mut self) -> Result<(), StorageError> {
        match self.u32()? {
            0 => Ok(()),
            other => Err(self.corrupt(format!("reserved field holds {other}, expected 0"))),
        }
    }

    fn remaining(&self) -> u64 {
        (self.bytes.len() - self.at) as u64
    }

    /// Validates an untrusted `count` of rows of at least `row_len` bytes
    /// each against the bytes left, consuming nothing. The returned count
    /// is safe to allocate for and loop over: at most `remaining / row_len`.
    pub fn rows(&self, count: u64, row_len: usize) -> Result<usize, StorageError> {
        match count.checked_mul(row_len as u64) {
            Some(need) if need <= self.remaining() => Ok(count as usize),
            need => Err(StorageError::Truncated {
                path: self.path.to_path_buf(),
                expected: (self.at as u64).saturating_add(need.unwrap_or(u64::MAX)),
                actual: self.bytes.len() as u64,
            }),
        }
    }

    /// Ends the decode: bytes after the last field are corruption.
    pub fn finish(&self) -> Result<(), StorageError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(self.corrupt(format!("{extra} trailing bytes after the last field"))),
        }
    }

    /// A [`StorageError::CorruptDirectory`] naming this file.
    pub fn corrupt(&self, detail: String) -> StorageError {
        StorageError::CorruptDirectory {
            path: self.path.to_path_buf(),
            detail,
        }
    }
}

/// The encoder matching [`MetaReader`]: little-endian fields appended to a
/// buffer that starts with `magic ‖ FORMAT_VERSION`.
pub struct MetaWriter {
    bytes: Vec<u8>,
}

impl MetaWriter {
    /// Starts a file: `magic` and the format version.
    pub fn new(magic: &[u8; 8]) -> Self {
        let mut writer = Self::body();
        writer.bytes(magic).u32(FORMAT_VERSION);
        writer
    }

    /// Starts a headerless body (the owner payload's plaintext).
    pub fn body() -> Self {
        Self { bytes: Vec::new() }
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.bytes.extend_from_slice(bytes);
        self
    }

    /// Appends one byte.
    pub fn u8(&mut self, value: u8) -> &mut Self {
        self.bytes(&[value])
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, value: u32) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Writes the encoded bytes to `path` atomically (tmp + rename).
    pub fn commit(&self, path: &Path) -> Result<(), StorageError> {
        write_file_atomic(path, |writer| writer.write_all(&self.bytes))
    }
}

/// The scratch name `path` is written under before the atomic rename.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `path` atomically: content goes to a `.tmp` sibling first and is
/// renamed over the target only once fully flushed. This makes re-saving
/// an index into the directory it is currently being served from safe —
/// open `FileShard` handles keep reading the old inode while the new file
/// is written, so the serializer's own read-back never sees a truncated
/// file — and a failed write can never destroy an existing good file.
/// One op; torn, the `.tmp` is written and never renamed.
pub(crate) fn write_file_atomic(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), StorageError> {
    let torn = gate("write", path, true)?;
    let tmp = tmp_path(path);
    let file = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    let mut writer = BufWriter::new(file);
    match write(&mut writer).and_then(|()| writer.flush()) {
        Ok(()) if torn.is_some() => Err(crashed(path)),
        Ok(()) => fs::rename(&tmp, path).map_err(|e| io_err(path, e)),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(io_err(path, e))
        }
    }
}

/// Creates `path` and its missing parents.
pub fn create_dir_all(path: &Path) -> Result<(), StorageError> {
    gate("create_dir_all", path, false)?;
    fs::create_dir_all(path).map_err(|e| io_err(path, e))
}

/// Renames `from` to `to`.
pub fn rename(from: &Path, to: &Path) -> Result<(), StorageError> {
    gate("rename", to, false)?;
    fs::rename(from, to).map_err(|e| io_err(to, e))
}

/// Copies the file `from` to `to`.
pub fn copy(from: &Path, to: &Path) -> Result<(), StorageError> {
    gate("copy", to, false)?;
    fs::copy(from, to).map(drop).map_err(|e| io_err(from, e))
}

/// Appends `bytes` to `path`, creating it if missing.
pub fn append(path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    gate("append", path, false)?;
    let file = OpenOptions::new().create(true).append(true).open(path);
    file.and_then(|mut file| file.write_all(bytes))
        .map_err(|e| io_err(path, e))
}

/// Removes the file `path`.
pub fn remove_file(path: &Path) -> Result<(), StorageError> {
    gate("remove_file", path, false)?;
    fs::remove_file(path).map_err(|e| io_err(path, e))
}

/// Removes the directory `path` if it is empty.
pub fn remove_dir(path: &Path) -> Result<(), StorageError> {
    gate("remove_dir", path, false)?;
    fs::remove_dir(path).map_err(|e| io_err(path, e))
}

/// Removes the directory `path` and everything under it. One op; torn,
/// only the direct entries [`Crash::torn`] accepts go and `path` stays.
pub fn remove_dir_all(path: &Path) -> Result<(), StorageError> {
    let Some(picks) = gate("remove_dir_all", path, true)? else {
        return fs::remove_dir_all(path).map_err(|e| io_err(path, e));
    };
    for entry in fs::read_dir(path).into_iter().flatten().flatten() {
        if picks(&entry.file_name()) {
            let _ = fs::remove_dir_all(entry.path()).or_else(|_| fs::remove_file(entry.path()));
        }
    }
    Err(crashed(path))
}

type Picks = fn(&OsStr) -> bool;

/// Where an armed scope kills the process: op number `at`, in gate order,
/// does not happen — or, with `torn` set and the op tearable, happens torn
/// (`write`, `remove_dir_all`; on any other op `torn` is ignored).
#[doc(hidden)]
#[derive(Clone, Copy)]
pub struct Crash {
    pub at: usize,
    pub torn: Option<Picks>,
}

/// An armed crash scope, named by its prefix; disarmed on drop.
#[doc(hidden)]
pub struct CrashScope(PathBuf);

struct Scope {
    prefix: PathBuf,
    crash: Option<Crash>,
    log: Vec<(&'static str, PathBuf)>,
    dead: bool,
}

/// The number of armed scopes: an unarmed gate is one relaxed load of it.
/// Relaxed suffices — the scopes are published by their mutex, and a thread
/// handed work after `arm_crash` returned synchronizes through that hand-off.
static ARMED: AtomicUsize = AtomicUsize::new(0);
static SCOPES: Mutex<Vec<Scope>> = Mutex::new(Vec::new());
const LOCK: &str = "the gate never panics under its lock";

fn crashed(path: &Path) -> StorageError {
    io_err(path, io::Error::other("crash gate: the process is dead"))
}

/// Arms the gate for every op whose path lies under `prefix`: each is
/// logged, the op `crash` names fails, and from then on every mutation
/// under `prefix`, from any thread, is refused — a dead process, whose
/// error paths clean nothing up. `None` only records.
#[doc(hidden)]
pub fn arm_crash(prefix: &Path, crash: Option<Crash>) -> CrashScope {
    SCOPES.lock().expect(LOCK).push(Scope {
        prefix: prefix.to_path_buf(),
        crash,
        log: Vec::new(),
        dead: false,
    });
    ARMED.fetch_add(1, Ordering::Relaxed);
    CrashScope(prefix.to_path_buf())
}

impl CrashScope {
    /// The `(op, path)` log so far, in gate order; a crash is its last row.
    pub fn trace(&self) -> Vec<(&'static str, PathBuf)> {
        let scopes = SCOPES.lock().expect(LOCK);
        let scope = scopes.iter().find(|scope| scope.prefix == self.0);
        scope.expect("armed until dropped").log.clone()
    }
}

impl Drop for CrashScope {
    fn drop(&mut self) {
        ARMED.fetch_sub(1, Ordering::Relaxed);
        SCOPES
            .lock()
            .expect(LOCK)
            .retain(|scope| scope.prefix != self.0);
    }
}

/// The one gate every mutation passes. `Ok(Some(picks))` tells a tearable
/// op to do its torn half and then fail.
fn gate(op: &'static str, path: &Path, tearable: bool) -> Result<Option<Picks>, StorageError> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return Ok(None);
    }
    let mut scopes = SCOPES.lock().expect(LOCK);
    let Some(scope) = scopes.iter_mut().find(|s| path.starts_with(&s.prefix)) else {
        return Ok(None);
    };
    if scope.dead {
        return Err(crashed(path));
    }
    scope.log.push((op, path.to_path_buf()));
    match scope.crash {
        Some(Crash { at, torn }) if at + 1 == scope.log.len() => {
            scope.dead = true;
            let torn = torn.filter(|_| tearable);
            torn.map(Some).ok_or_else(|| crashed(path))
        }
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::test_support::TempDir;
    use rayon::prelude::*;

    const MAGIC: [u8; 8] = *b"RSSE-TST";

    fn file(fields: impl FnOnce(&mut MetaWriter)) -> Vec<u8> {
        let mut writer = MetaWriter::new(&MAGIC);
        fields(&mut writer);
        writer.into_bytes()
    }

    #[test]
    fn fields_round_trip_in_order() {
        let bytes = file(|w| {
            w.u8(7).u32(0).u32(9).u64(1 << 40).bytes(b"abc");
        });
        let mut r = MetaReader::open(Path::new("f"), &bytes, &MAGIC, 12).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        r.reserved().unwrap();
        assert_eq!(r.u32().unwrap(), 9);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.array::<3>().unwrap(), *b"abc");
        r.finish().unwrap();
    }

    #[test]
    fn header_errors_are_typed() {
        let path = Path::new("f");
        let valid = file(|w| {
            w.u64(1);
        });
        let open = |bytes: &[u8], min_len| MetaReader::open(path, bytes, &MAGIC, min_len).err();
        assert!(matches!(
            open(b"RSSE", 20),
            Some(StorageError::BadMagic { .. })
        ));
        assert!(matches!(
            open(&valid[..10], 8),
            Some(StorageError::Truncated { .. })
        ));
        assert!(matches!(
            open(&valid, 21),
            Some(StorageError::Truncated { expected: 21, .. })
        ));
        let mut versioned = valid.clone();
        versioned[8] = 9;
        assert!(matches!(
            open(&versioned, 20),
            Some(StorageError::UnsupportedVersion { version: 9, .. })
        ));
        assert!(open(&valid, 20).is_none());
    }

    #[test]
    fn rows_bound_a_count_by_the_bytes_left() {
        let bytes = file(|w| {
            w.bytes(&[0u8; 32]);
        });
        let r = MetaReader::open(Path::new("f"), &bytes, &MAGIC, 12).unwrap();
        assert_eq!(r.rows(2, 16).unwrap(), 2);
        assert_eq!(r.rows(0, 16).unwrap(), 0);
        for absurd in [3, 1 << 60, u64::MAX] {
            assert!(matches!(
                r.rows(absurd, 16),
                Err(StorageError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn trailing_bytes_and_nonzero_reserved_are_corruption() {
        let bytes = file(|w| {
            w.u32(5);
        });
        let mut r = MetaReader::open(Path::new("f"), &bytes, &MAGIC, 12).unwrap();
        assert!(matches!(
            r.finish(),
            Err(StorageError::CorruptDirectory { .. })
        ));
        assert!(matches!(
            r.reserved(),
            Err(StorageError::CorruptDirectory { .. })
        ));
        assert!(matches!(r.u8(), Err(StorageError::Truncated { .. })));
    }

    #[test]
    fn an_unarmed_gate_is_inert() {
        let dir = TempDir::new("gate-unarmed");
        let file = dir.path().join("a");
        create_dir_all(&dir.path().join("sub")).unwrap();
        append(&file, b"x").unwrap();
        copy(&file, &dir.path().join("b")).unwrap();
        rename(&dir.path().join("b"), &dir.path().join("sub/c")).unwrap();
        MetaWriter::new(&MAGIC).commit(&file).unwrap();
        remove_file(&file).unwrap();
        assert!(remove_dir(&dir.path().join("sub")).is_err(), "not empty");
        remove_dir_all(&dir.path().join("sub")).unwrap();
        assert_eq!(dir.subdir_count(), 0);
    }

    #[test]
    fn an_armed_scope_leaves_other_roots_alone() {
        // Root B stands for a test running in parallel: its ops interleave
        // with A's, before and after A's crash, and never notice.
        let (a, b) = (TempDir::new("gate-a"), TempDir::new("gate-b"));
        let crash = Crash { at: 1, torn: None };
        let scope = arm_crash(a.path(), Some(crash));
        append(&b.path().join("f"), b"1").unwrap();
        append(&a.path().join("f"), b"1").unwrap();
        append(&b.path().join("f"), b"2").unwrap();
        assert!(append(&a.path().join("f"), b"2").is_err(), "op 1 crashes");
        assert!(remove_file(&a.path().join("f")).is_err(), "A is dead");
        append(&b.path().join("f"), b"3").unwrap();
        assert_eq!(fs::read(b.path().join("f")).unwrap(), b"123");
        assert_eq!(fs::read(a.path().join("f")).unwrap(), b"1");
        let log = scope.trace();
        assert_eq!(log.len(), 2, "the crash is the last row: {log:?}");
        assert!(log.iter().all(|(_, path)| path.starts_with(a.path())));
        drop(scope);
        remove_file(&a.path().join("f")).unwrap();
    }

    #[test]
    fn torn_ops_do_their_half() {
        let dir = TempDir::new("gate-torn");
        let victim = dir.path().join("victim");
        create_dir_all(&victim.join("sub")).unwrap();
        append(&victim.join("keep.shd"), b"k").unwrap();
        append(&victim.join("owner.meta"), b"m").unwrap();
        let is_meta: Picks = |name| name == "owner.meta";
        let torn = |at| {
            Some(Crash {
                at,
                torn: Some(is_meta),
            })
        };

        let scope = arm_crash(dir.path(), torn(0));
        assert!(remove_dir_all(&victim).is_err());
        drop(scope);
        assert!(victim.join("keep.shd").exists() && victim.join("sub").exists());
        assert!(!victim.join("owner.meta").exists());

        let scope = arm_crash(dir.path(), torn(0));
        let target = victim.join("owner.meta");
        assert!(MetaWriter::new(&MAGIC).commit(&target).is_err());
        drop(scope);
        assert!(tmp_path(&target).exists() && !target.exists());

        // On an op with no torn variant the crash is a clean one.
        let scope = arm_crash(dir.path(), torn(0));
        assert!(remove_file(&victim.join("keep.shd")).is_err());
        drop(scope);
        assert!(victim.join("keep.shd").exists());
    }

    #[test]
    fn ops_on_rayon_workers_are_counted_and_refused_after_the_crash() {
        let dir = TempDir::new("gate-rayon");
        let write = |i: usize| append(&dir.path().join(format!("f{i}")), b"x");
        let recording = arm_crash(dir.path(), None);
        let jobs: Vec<usize> = (0..16).collect();
        let results: Vec<_> = jobs.into_par_iter().map(write).collect();
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(recording.trace().len(), 16);
        drop(recording);

        let crash = Crash { at: 4, torn: None };
        let scope = arm_crash(dir.path(), Some(crash));
        let jobs: Vec<usize> = (16..32).collect();
        let results: Vec<_> = jobs.into_par_iter().map(write).collect();
        assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 4);
        assert_eq!(scope.trace().len(), 5, "refused ops are not logged");
        assert_eq!(dir.subdir_count(), 16 + 4);
    }
}
