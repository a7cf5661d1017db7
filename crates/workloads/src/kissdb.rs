//! From-scratch Rust port of kissdb ("keep it simple stupid database").
//!
//! kissdb stores fixed-size key/value pairs in a single file: a header,
//! then a chain of hash-table pages interleaved with entries. Each hash
//! table is `hash_table_size + 1` little-endian `u64` slots — slot `h`
//! holds the file offset of an entry whose key hashed to `h` (0 = empty),
//! and the final slot links to the next hash-table page (0 = none).
//! Collisions cascade into later tables. Like the original C, all hash
//! tables are mirrored in memory and written through to disk.
//!
//! All file accesses go through [`EnclaveIo`], producing exactly the
//! paper's §V-A ocall mix: `fseeko` (most frequent, shortest), `fread`
//! and `fwrite`.

use crate::efile::{EnclaveIo, IoError};
use sgx_sim::hostfs::{OpenMode, Whence};

const MAGIC: &[u8; 8] = b"KISSDB2\0";

/// Errors from kissdb operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Underlying file I/O failed.
    Io(IoError),
    /// Key or value length does not match the database parameters.
    BadLength {
        /// Bytes supplied.
        got: usize,
        /// Bytes required.
        want: usize,
    },
    /// The file exists but is not a kissdb database (bad magic/params).
    Corrupt,
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "kissdb i/o error: {e}"),
            DbError::BadLength { got, want } => {
                write!(f, "kissdb length mismatch: got {got} bytes, want {want}")
            }
            DbError::Corrupt => write!(f, "not a kissdb database"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<IoError> for DbError {
    fn from(e: IoError) -> Self {
        DbError::Io(e)
    }
}

/// A key/value pair returned by [`KissDb::iter_all`].
pub type Entry = (Vec<u8>, Vec<u8>);

/// An open kissdb database.
pub struct KissDb<'a> {
    io: EnclaveIo<'a>,
    fd: u64,
    hash_table_size: u64,
    key_size: usize,
    value_size: usize,
    /// In-memory mirror of all hash-table pages, one `Vec` per page
    /// (`hash_table_size + 1` slots each, last = next-page offset).
    tables: Vec<Vec<u64>>,
    /// File offset of each hash-table page.
    table_offsets: Vec<u64>,
}

impl std::fmt::Debug for KissDb<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KissDb")
            .field("hash_table_size", &self.hash_table_size)
            .field("key_size", &self.key_size)
            .field("value_size", &self.value_size)
            .field("tables", &self.tables.len())
            .finish()
    }
}

/// The djb2-style hash the original kissdb uses.
fn kissdb_hash(key: &[u8]) -> u64 {
    let mut h: u64 = 5381;
    for &b in key {
        h = h.wrapping_mul(33).wrapping_add(u64::from(b));
    }
    h
}

impl<'a> KissDb<'a> {
    /// Open (or create) a database at `path`.
    ///
    /// For an existing file the stored parameters must match.
    ///
    /// # Errors
    ///
    /// [`DbError::Corrupt`] on magic/parameter mismatch; [`DbError::Io`]
    /// on file errors.
    pub fn open(
        io: EnclaveIo<'a>,
        path: &str,
        hash_table_size: u64,
        key_size: usize,
        value_size: usize,
    ) -> Result<Self, DbError> {
        assert!(hash_table_size > 0, "hash table size must be positive");
        assert!(
            key_size > 0 && value_size > 0,
            "key/value sizes must be positive"
        );
        // Try to open existing; create otherwise.
        let existing = io.open(path, OpenMode::ReadWrite)?;
        let mut db = KissDb {
            io,
            fd: existing,
            hash_table_size,
            key_size,
            value_size,
            tables: Vec::new(),
            table_offsets: Vec::new(),
        };
        let end = db.io.seek(db.fd, 0, Whence::End)?;
        if end == 0 {
            db.write_header()?;
            db.append_table()?;
        } else {
            db.load()?;
        }
        Ok(db)
    }

    fn header_len() -> u64 {
        8 + 3 * 8
    }

    fn table_bytes(&self) -> u64 {
        (self.hash_table_size + 1) * 8
    }

    fn entry_bytes(&self) -> u64 {
        (self.key_size + self.value_size) as u64
    }

    fn write_header(&mut self) -> Result<(), DbError> {
        let mut hdr = Vec::with_capacity(Self::header_len() as usize);
        hdr.extend_from_slice(MAGIC);
        hdr.extend_from_slice(&self.hash_table_size.to_le_bytes());
        hdr.extend_from_slice(&(self.key_size as u64).to_le_bytes());
        hdr.extend_from_slice(&(self.value_size as u64).to_le_bytes());
        self.io.seek(self.fd, 0, Whence::Set)?;
        self.io.write(self.fd, &hdr)?;
        Ok(())
    }

    /// Append a zeroed hash-table page at EOF, linking it from the
    /// previous page (on disk and in memory).
    fn append_table(&mut self) -> Result<(), DbError> {
        let pos = self.io.seek(self.fd, 0, Whence::End)?;
        let zeros = vec![0u8; self.table_bytes() as usize];
        self.io.write(self.fd, &zeros)?;
        if let Some(last_off) = self.table_offsets.last().copied() {
            let link_pos = last_off + self.hash_table_size * 8;
            self.io.seek(self.fd, link_pos as i64, Whence::Set)?;
            self.io.write(self.fd, &pos.to_le_bytes())?;
            let n = self.tables.len();
            self.tables[n - 1][self.hash_table_size as usize] = pos;
        }
        self.tables
            .push(vec![0u64; (self.hash_table_size + 1) as usize]);
        self.table_offsets.push(pos);
        Ok(())
    }

    /// Load header and hash-table pages of an existing database.
    fn load(&mut self) -> Result<(), DbError> {
        let mut buf = Vec::new();
        self.io.seek(self.fd, 0, Whence::Set)?;
        self.io
            .read_exact(self.fd, Self::header_len() as usize, &mut buf)
            .map_err(|_| DbError::Corrupt)?;
        if &buf[..8] != MAGIC {
            return Err(DbError::Corrupt);
        }
        let u = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().expect("8 bytes"));
        if u(8) != self.hash_table_size
            || u(16) != self.key_size as u64
            || u(24) != self.value_size as u64
        {
            return Err(DbError::Corrupt);
        }
        // Walk the table chain.
        let mut off = Self::header_len();
        loop {
            self.io.seek(self.fd, off as i64, Whence::Set)?;
            let mut raw = Vec::new();
            self.io
                .read_exact(self.fd, self.table_bytes() as usize, &mut raw)
                .map_err(|_| DbError::Corrupt)?;
            let table: Vec<u64> = raw
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            let next = table[self.hash_table_size as usize];
            self.tables.push(table);
            self.table_offsets.push(off);
            if next == 0 {
                break;
            }
            off = next;
        }
        Ok(())
    }

    fn check_key(&self, key: &[u8]) -> Result<(), DbError> {
        if key.len() != self.key_size {
            return Err(DbError::BadLength {
                got: key.len(),
                want: self.key_size,
            });
        }
        Ok(())
    }

    /// Insert or update a key/value pair.
    ///
    /// # Errors
    ///
    /// [`DbError::BadLength`] on size mismatch, [`DbError::Io`] on file
    /// errors.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), DbError> {
        self.check_key(key)?;
        if value.len() != self.value_size {
            return Err(DbError::BadLength {
                got: value.len(),
                want: self.value_size,
            });
        }
        let h = (kissdb_hash(key) % self.hash_table_size) as usize;
        let mut buf = Vec::new();
        for t in 0..self.tables.len() {
            let slot = self.tables[t][h];
            if slot == 0 {
                // Free slot: append the entry, then point the slot at it.
                let pos = self.io.seek(self.fd, 0, Whence::End)?;
                let mut entry = Vec::with_capacity(self.entry_bytes() as usize);
                entry.extend_from_slice(key);
                entry.extend_from_slice(value);
                self.io.write(self.fd, &entry)?;
                let slot_pos = self.table_offsets[t] + (h as u64) * 8;
                self.io.seek(self.fd, slot_pos as i64, Whence::Set)?;
                self.io.write(self.fd, &pos.to_le_bytes())?;
                self.tables[t][h] = pos;
                return Ok(());
            }
            // Occupied: compare the stored key.
            self.io.seek(self.fd, slot as i64, Whence::Set)?;
            self.io.read_exact(self.fd, self.key_size, &mut buf)?;
            if buf == key {
                // Same key: overwrite the value in place (the seek left
                // the position right after the key).
                self.io.write(self.fd, value)?;
                return Ok(());
            }
            // Collision: try the next table.
        }
        // All tables collided: grow the chain and retry (the new table's
        // slot h is guaranteed free).
        self.append_table()?;
        self.put(key, value)
    }

    /// Look up a key, returning its value if present.
    ///
    /// # Errors
    ///
    /// [`DbError::BadLength`] for a wrong-size key, [`DbError::Io`] on
    /// file errors.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        self.check_key(key)?;
        let h = (kissdb_hash(key) % self.hash_table_size) as usize;
        let mut buf = Vec::new();
        for t in 0..self.tables.len() {
            let slot = self.tables[t][h];
            if slot == 0 {
                return Ok(None);
            }
            self.io.seek(self.fd, slot as i64, Whence::Set)?;
            self.io.read_exact(self.fd, self.key_size, &mut buf)?;
            if buf == key {
                let mut val = Vec::new();
                self.io.read_exact(self.fd, self.value_size, &mut val)?;
                return Ok(Some(val));
            }
        }
        Ok(None)
    }

    /// Iterate over all stored key/value pairs, in hash-table order
    /// (the C kissdb's `KISSDB_Iterator`). Pairs are read through the
    /// ocall layer like every other access.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on file errors while walking the tables.
    pub fn iter_all(&mut self) -> Result<Vec<Entry>, DbError> {
        let mut out = Vec::new();
        for t in 0..self.tables.len() {
            for h in 0..self.hash_table_size as usize {
                let slot = self.tables[t][h];
                if slot == 0 {
                    continue;
                }
                self.io.seek(self.fd, slot as i64, Whence::Set)?;
                let mut key = Vec::new();
                self.io.read_exact(self.fd, self.key_size, &mut key)?;
                let mut val = Vec::new();
                self.io.read_exact(self.fd, self.value_size, &mut val)?;
                out.push((key, val));
            }
        }
        Ok(out)
    }

    /// Number of live entries (slots in use across all table pages).
    #[must_use]
    pub fn len(&self) -> usize {
        self.tables
            .iter()
            .map(|t| {
                t[..self.hash_table_size as usize]
                    .iter()
                    .filter(|&&s| s != 0)
                    .count()
            })
            .sum()
    }

    /// `true` if no entries are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the database file.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] if the descriptor is already gone.
    pub fn close(self) -> Result<(), DbError> {
        self.io.close(self.fd)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efile::regular_fixture;

    fn key8(i: u64) -> Vec<u8> {
        i.to_le_bytes().to_vec()
    }

    #[test]
    fn put_get_roundtrip() {
        let (_fs, disp, funcs) = regular_fixture();
        let io = EnclaveIo::new(&disp, funcs);
        let mut db = KissDb::open(io, "/db", 64, 8, 8).unwrap();
        for i in 0..100u64 {
            db.put(&key8(i), &key8(i * 7)).unwrap();
        }
        for i in 0..100u64 {
            assert_eq!(db.get(&key8(i)).unwrap(), Some(key8(i * 7)), "key {i}");
        }
        assert_eq!(db.get(&key8(999)).unwrap(), None);
        db.close().unwrap();
    }

    #[test]
    fn overwrite_updates_in_place() {
        let (fs, disp, funcs) = regular_fixture();
        let io = EnclaveIo::new(&disp, funcs);
        let mut db = KissDb::open(io, "/db", 16, 8, 8).unwrap();
        db.put(&key8(1), &key8(10)).unwrap();
        let size_before = fs.file_size("/db").unwrap();
        db.put(&key8(1), &key8(20)).unwrap();
        let size_after = fs.file_size("/db").unwrap();
        assert_eq!(size_before, size_after, "overwrite must not grow the file");
        assert_eq!(db.get(&key8(1)).unwrap(), Some(key8(20)));
    }

    #[test]
    fn collisions_cascade_into_new_tables() {
        let (_fs, disp, funcs) = regular_fixture();
        let io = EnclaveIo::new(&disp, funcs);
        // Tiny table: 2 slots forces chains quickly.
        let mut db = KissDb::open(io, "/db", 2, 8, 8).unwrap();
        for i in 0..20u64 {
            db.put(&key8(i), &key8(i + 100)).unwrap();
        }
        assert!(db.tables.len() > 1, "collisions must grow the chain");
        for i in 0..20u64 {
            assert_eq!(db.get(&key8(i)).unwrap(), Some(key8(i + 100)));
        }
    }

    #[test]
    fn reopen_preserves_data() {
        let (_fs, disp, funcs) = regular_fixture();
        {
            let io = EnclaveIo::new(&disp, funcs);
            let mut db = KissDb::open(io, "/db", 8, 8, 8).unwrap();
            for i in 0..50u64 {
                db.put(&key8(i), &key8(i * 3)).unwrap();
            }
            db.close().unwrap();
        }
        let io = EnclaveIo::new(&disp, funcs);
        let mut db = KissDb::open(io, "/db", 8, 8, 8).unwrap();
        for i in 0..50u64 {
            assert_eq!(db.get(&key8(i)).unwrap(), Some(key8(i * 3)));
        }
    }

    #[test]
    fn reopen_with_wrong_params_is_corrupt() {
        let (_fs, disp, funcs) = regular_fixture();
        {
            let io = EnclaveIo::new(&disp, funcs);
            KissDb::open(io, "/db", 8, 8, 8).unwrap().close().unwrap();
        }
        let io = EnclaveIo::new(&disp, funcs);
        assert_eq!(
            KissDb::open(io, "/db", 16, 8, 8).unwrap_err(),
            DbError::Corrupt
        );
    }

    #[test]
    fn wrong_sizes_are_rejected() {
        let (_fs, disp, funcs) = regular_fixture();
        let io = EnclaveIo::new(&disp, funcs);
        let mut db = KissDb::open(io, "/db", 8, 8, 8).unwrap();
        assert!(matches!(
            db.put(b"short", &key8(0)),
            Err(DbError::BadLength { got: 5, want: 8 })
        ));
        assert!(matches!(
            db.put(&key8(0), b"bad"),
            Err(DbError::BadLength { got: 3, want: 8 })
        ));
        assert!(matches!(db.get(b"xx"), Err(DbError::BadLength { .. })));
    }

    #[test]
    fn ocall_mix_matches_the_paper() {
        // The paper (§V-A): fseeko is the most frequent ocall, invoked
        // almost twice as often as fread and fwrite.
        let (fs, disp, funcs) = regular_fixture();
        let io = EnclaveIo::new(&disp, funcs);
        let mut db = KissDb::open(io, "/db", 512, 8, 8).unwrap();
        let (r0, w0, s0) = fs.op_counts();
        for i in 0..1_000u64 {
            db.put(&key8(i), &key8(i)).unwrap();
        }
        let (r1, w1, s1) = fs.op_counts();
        let (reads, writes, seeks) = (r1 - r0, w1 - w0, s1 - s0);
        assert!(
            seeks > reads && seeks > writes,
            "fseeko must dominate: seeks={seeks} reads={reads} writes={writes}"
        );
        assert!(
            (seeks as f64) / (writes as f64) > 1.2,
            "seeks ≈ 2x writes expected: seeks={seeks} writes={writes}"
        );
    }

    #[test]
    fn iter_all_returns_every_pair_exactly_once() {
        let (_fs, disp, funcs) = regular_fixture();
        let io = EnclaveIo::new(&disp, funcs);
        let mut db = KissDb::open(io, "/db", 4, 8, 8).unwrap();
        assert!(db.is_empty());
        for i in 0..40u64 {
            db.put(&key8(i), &key8(i + 1)).unwrap();
        }
        assert_eq!(db.len(), 40);
        let mut all = db.iter_all().unwrap();
        all.sort();
        assert_eq!(all.len(), 40);
        for i in 0..40u64 {
            assert!(
                all.binary_search(&(key8(i), key8(i + 1))).is_ok(),
                "pair {i} missing"
            );
        }
        // Overwrites must not duplicate entries.
        db.put(&key8(3), &key8(99)).unwrap();
        assert_eq!(db.len(), 40);
        assert_eq!(db.iter_all().unwrap().len(), 40);
    }

    #[test]
    fn model_check_against_btreemap() {
        use std::collections::BTreeMap;
        let (_fs, disp, funcs) = regular_fixture();
        let io = EnclaveIo::new(&disp, funcs);
        let mut db = KissDb::open(io, "/db", 4, 8, 8).unwrap();
        let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        // Deterministic mixed workload with overwrites and misses.
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        for step in 0..500u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = key8(x % 64);
            match step % 3 {
                0 | 1 => {
                    let v = key8(x);
                    db.put(&k, &v).unwrap();
                    oracle.insert(k, v);
                }
                _ => {
                    assert_eq!(db.get(&k).unwrap(), oracle.get(&k).cloned(), "step {step}");
                }
            }
        }
        for (k, v) in &oracle {
            assert_eq!(db.get(k).unwrap().as_ref(), Some(v));
        }
    }
}
