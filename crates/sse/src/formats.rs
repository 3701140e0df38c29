//! The codec kit every on-disk format in the workspace is read and written
//! with. A format is owned by the module that knows what its fields mean
//! (`docs/FORMATS.md`, "Codec kit and ownership", has the table); this
//! module owns only the rules all of them share:
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
//!   for streamed shard and run files).
//!
//! The kit is for headers and small metadata files. Bulk bodies — a shard's
//! label directory, an owner payload's entry table — are validated as one
//! length through the reader and then walked with `chunks_exact`.

use crate::storage::StorageError;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

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
pub(crate) fn write_file_atomic(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), StorageError> {
    let tmp = tmp_path(path);
    let file = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    let mut writer = BufWriter::new(file);
    match write(&mut writer).and_then(|()| writer.flush()) {
        Ok(()) => fs::rename(&tmp, path).map_err(|e| io_err(path, e)),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(io_err(path, e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
