//! The framed log: the one implementation of the `[len][crc][payload]`
//! discipline the answer journal is built on.
//!
//! What a payload *means* — the tag table and field codec — is
//! `crate::record`. Everything about *bytes on disk* lives here, once:
//!
//! * [`encode_frame`] — record → frame, refusing a payload no reader
//!   would accept back ([`WalError::RecordTooLarge`]);
//! * [`decode`] — the single decode loop: maximum-length check,
//!   header-first rule, version check, second-header rejection, and the
//!   torn-tail vs mid-file classification of the crate docs;
//! * [`Journal`] — the single appender: create-under-lock, refuse a
//!   non-empty file, [`append`](Journal::append) vs
//!   [`append_durable`](Journal::append_durable), and the
//!   truncate-and-seek resume.

use crate::record::{JobHeader, Record, FORMAT_VERSION, MAX_RECORD_LEN};
use crate::WalError;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

/// Bytes of frame prelude before the payload (`len: u32`, `crc: u32`).
const PRELUDE: usize = 8;

/// IEEE CRC-32 (the zlib/gzip polynomial), bitwise implementation — the
/// per-frame payload checksum.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Little-endian field writer over a payload buffer.
pub(crate) struct Writer<'a>(pub(crate) &'a mut Vec<u8>);

impl Writer<'_> {
    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub(crate) fn bool(&mut self, v: bool) {
        self.0.push(u8::from(v));
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
}

/// Cursor over one frame's payload; every read is bounds-checked and the
/// caller asserts exhaustion at the end.
pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.bytes.len() - self.pos {
            return Err(format!(
                "payload too short: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("invalid bool byte {v}")),
        }
    }
    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    pub(crate) fn done(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("{} trailing payload bytes", self.bytes.len() - self.pos))
        }
    }
}

/// Appends `record`'s complete frame (`len` + `crc` + payload) to `out`.
///
/// # Errors
///
/// [`WalError::RecordTooLarge`] if the payload exceeds [`MAX_RECORD_LEN`]
/// — the reader would drop such a frame as a torn tail, so writing it would
/// lose the record silently. `out` is left as it was.
pub fn encode_frame(record: &Record, out: &mut Vec<u8>) -> Result<(), WalError> {
    let start = out.len();
    out.extend_from_slice(&[0; PRELUDE]);
    record.encode_payload(out);
    let len = out.len() - start - PRELUDE;
    if len > MAX_RECORD_LEN as usize {
        out.truncate(start);
        return Err(WalError::RecordTooLarge { bytes: len as u64, max: MAX_RECORD_LEN });
    }
    let crc = crc32(&out[start + PRELUDE..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + PRELUDE].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// A decoded journal: header, records (header frame excluded), and how the
/// byte stream ended.
#[derive(Debug, Clone)]
pub struct JournalContents {
    /// The job's identity header.
    pub header: JobHeader,
    /// Every valid record after the header, in append order.
    pub records: Vec<Record>,
    /// Byte offset at which each record's frame starts (parallel to
    /// `records`) — lets tooling and tests cut a journal at exact record
    /// boundaries, and lets replay errors name the offending frame.
    pub offsets: Vec<u64>,
    /// Byte length of the valid frame prefix.
    pub valid_len: u64,
    /// Bytes after `valid_len` dropped as a torn tail (0 for a clean file).
    pub torn_bytes: u64,
}

/// Decodes a journal's byte image into its header and records, applying
/// the crate-level truncation rule.
///
/// # Errors
///
/// [`WalError::NotAJournal`] if the bytes do not start with a valid header
/// frame, [`WalError::VersionMismatch`] for an unknown format version, and
/// [`WalError::Corrupt`] for damage that is not a torn tail (see the crate
/// docs for the exact classification).
pub fn decode(bytes: &[u8]) -> Result<JournalContents, WalError> {
    let mut records = Vec::new();
    let mut offsets = Vec::new();
    let mut header: Option<JobHeader> = None;
    let mut pos: usize = 0;
    // Fewer than PRELUDE bytes left is either a clean end or a torn prelude.
    while bytes.len() - pos >= PRELUDE {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_RECORD_LEN as usize {
            if header.is_none() {
                return Err(WalError::NotAJournal(format!(
                    "first frame has implausible length {len}"
                )));
            }
            // An absurd length cannot frame anything after it; everything
            // from here is unreadable either way. Only accept it as a torn
            // tail; an absurd length mid-file with plausible data after it
            // is indistinguishable from one that eats the rest, so the
            // prefix rule still holds.
            break;
        }
        let end = pos + PRELUDE + len;
        if end > bytes.len() {
            break; // torn: payload extends past end-of-file
        }
        let payload = &bytes[pos + PRELUDE..end];
        if crc32(payload) != crc {
            if header.is_none() {
                return Err(WalError::NotAJournal("header frame fails its CRC".to_string()));
            }
            if end == bytes.len() {
                break; // torn: final payload partially persisted
            }
            return Err(WalError::Corrupt {
                offset: pos as u64,
                reason: "frame payload fails its CRC".to_string(),
            });
        }
        let record = match Record::decode_payload(payload) {
            Ok(r) => r,
            Err(reason) if header.is_none() => {
                return Err(WalError::NotAJournal(format!("header frame invalid: {reason}")));
            }
            Err(reason) => return Err(WalError::Corrupt { offset: pos as u64, reason }),
        };
        match (header.is_some(), record) {
            (false, Record::Header(h)) => {
                if h.version != FORMAT_VERSION {
                    return Err(WalError::VersionMismatch { found: h.version });
                }
                header = Some(h);
            }
            (false, _) => {
                return Err(WalError::NotAJournal("first frame is not a job header".to_string()));
            }
            (true, Record::Header(_)) => {
                return Err(WalError::Corrupt {
                    offset: pos as u64,
                    reason: "second job header frame".to_string(),
                });
            }
            (true, _) => {
                offsets.push(pos as u64);
                records.push(record);
            }
        }
        pos = end;
    }
    let Some(header) = header else {
        return Err(WalError::NotAJournal("no complete job header frame".to_string()));
    };
    let valid_len = pos as u64;
    Ok(JournalContents {
        header,
        records,
        offsets,
        valid_len,
        torn_bytes: bytes.len() as u64 - valid_len,
    })
}

/// Takes the journal's exclusive advisory lock, distinguishing "someone
/// else holds it" from real I/O failure. Advisory locks are per open file
/// description and released when the file closes, i.e. when the
/// [`Journal`] drops.
fn lock_exclusive(file: &File, path: &Path) -> Result<(), WalError> {
    match file.try_lock() {
        Ok(()) => Ok(()),
        Err(std::fs::TryLockError::WouldBlock) => Err(WalError::Locked(path.to_path_buf())),
        Err(std::fs::TryLockError::Error(e)) => Err(WalError::Io(e)),
    }
}

/// An answer journal open for appending. Clone-free and thread-safe: the
/// engine's event-loop workers share one handle behind an `Arc` and appends
/// are serialized by an internal mutex (per-shard record order is preserved
/// because a shard's records are only ever appended by the worker currently
/// holding its task).
#[derive(Debug)]
pub struct Journal {
    inner: Mutex<BufWriter<File>>,
}

impl Journal {
    fn over(file: File) -> Self {
        Self { inner: Mutex::new(BufWriter::new(file)) }
    }

    /// Creates a fresh journal at `path`, takes an exclusive advisory lock
    /// (held for the journal's lifetime), and writes its header frame
    /// durably.
    ///
    /// # Errors
    ///
    /// [`WalError::AlreadyExists`] if `path` holds a non-empty file — an
    /// existing journal may hold paid-for answers, so starting over
    /// requires an explicit resume or delete (checked under the lock, so
    /// two racing creates cannot both win). [`WalError::Locked`] if
    /// another process holds the journal. [`WalError::Io`] on I/O failure.
    pub fn create(path: &Path, header: &JobHeader) -> Result<Self, WalError> {
        // Deliberately no truncation here: an existing file's contents are
        // inspected (and refused) under the lock below.
        let file = OpenOptions::new().create(true).write(true).truncate(false).open(path)?;
        lock_exclusive(&file, path)?;
        if file.metadata()?.len() > 0 {
            return Err(WalError::AlreadyExists(path.to_path_buf()));
        }
        let journal = Self::over(file);
        journal.append_durable(&Record::Header(*header))?;
        Ok(journal)
    }

    /// Opens a journal for resuming: takes its exclusive lock, reads and
    /// validates it, truncates any torn tail **on disk**, and returns the
    /// contents together with a journal positioned to append immediately after
    /// the last valid record. The whole read–repair–append sequence
    /// happens under the lock, so two racing resumes cannot interleave
    /// writes and corrupt the paid-for history — the loser fails with
    /// [`WalError::Locked`].
    ///
    /// # Errors
    ///
    /// Everything [`decode`] raises, plus [`WalError::Locked`] if another
    /// process holds the journal and [`WalError::Io`] on the read/truncate/seek.
    pub fn open_resume(path: &Path) -> Result<(JournalContents, Self), WalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        lock_exclusive(&file, path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let contents = decode(&bytes)?;
        file.set_len(contents.valid_len)?;
        file.sync_data()?;
        file.seek(SeekFrom::Start(contents.valid_len))?;
        Ok((contents, Self::over(file)))
    }

    fn append_inner(&self, record: &Record, sync: bool) -> Result<(), WalError> {
        let mut frame = Vec::with_capacity(128);
        encode_frame(record, &mut frame)?;
        let mut w = self.inner.lock().expect("journal mutex poisoned");
        w.write_all(&frame)?;
        // Always hand the frame to the OS so it survives a process crash;
        // `sync` additionally makes it survive a power failure.
        w.flush()?;
        if sync {
            w.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// Appends one record and flushes it to the OS (survives a process
    /// crash).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on write failure — callers must treat this as
    /// fatal for the job (continuing without durability would betray a
    /// later resume). [`WalError::RecordTooLarge`] for a record no frame
    /// can carry; nothing is written.
    pub fn append(&self, record: &Record) -> Result<(), WalError> {
        self.append_inner(record, false)
    }

    /// Appends one record and `fsync`s it (survives a power failure). Used
    /// for the header, round barriers and completion markers.
    ///
    /// # Errors
    ///
    /// As [`append`](Self::append), plus [`WalError::Io`] on sync failure.
    pub fn append_durable(&self, record: &Record) -> Result<(), WalError> {
        self.append_inner(record, true)
    }

    /// Forces everything appended so far to stable storage.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on sync failure.
    pub fn sync(&self) -> Result<(), WalError> {
        let mut w = self.inner.lock().expect("journal mutex poisoned");
        w.flush()?;
        w.get_ref().sync_data()?;
        Ok(())
    }
}

/// "Format unchanged", pinned: `header` + `records` must encode to exactly
/// `frames_hex` (captured from the pre-`frame` encoders) and decode back.
#[cfg(test)]
pub(crate) fn assert_golden(header: JobHeader, records: &[Record], frames_hex: &[&str]) {
    let mut bytes = Vec::new();
    encode_frame(&Record::Header(header), &mut bytes).expect("header fits");
    for r in records {
        encode_frame(r, &mut bytes).expect("record fits");
    }
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, frames_hex.concat());
    let contents = decode(&bytes).expect("golden bytes decode");
    assert_eq!(contents.header, header);
    assert_eq!(contents.records, records);
    assert_eq!((contents.valid_len, contents.torn_bytes), (bytes.len() as u64, 0));
}
