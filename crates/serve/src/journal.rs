//! Durable state for the serve engine: a write-ahead delta journal and
//! model-description snapshots.
//!
//! # Journal
//!
//! An append-only file of length-prefixed, checksummed records:
//!
//! ```text
//! [8-byte magic "MCNKJRNL"][u32 version = 3]        — file header
//! [u32 len][u64 fnv1a64(payload)][u32 check][payload]…  — records
//! ```
//!
//! `check` is the low half of `fnv1a64` over the 12 bytes before it, so
//! a frame header vouches for its own length: a damaged length field is
//! caught by the header it sits in rather than obeyed.
//!
//! The journal is redo-only: every whole record is committed. A mutating
//! engine operation first runs its only fallible work (the compile, for
//! a load or an apply), then appends **one** record ([`Record::Load`] /
//! [`Record::Apply`] / [`Record::Unload`]) with one `fsync`, then swaps
//! the result into memory, which is infallible map surgery. A failed
//! compile writes nothing; a crash before the record leaves nothing to
//! replay, as the survivor never swapped; a crash after it replays the
//! record, as the survivor would have swapped. No undo records, no
//! commit markers, no double-apply.
//!
//! # Torn tails vs interior corruption
//!
//! A crash mid-append leaves a *prefix* of one record at the end of the
//! file. [`scan`] distinguishes the two failure shapes the way the
//! recovery contract demands:
//!
//! * **torn tail** — the file ends inside a frame header, inside the
//!   payload a checked header announces, or with a checksum-failing
//!   *final* frame: tolerated, the journal is truncated to the last whole
//!   record;
//! * **interior corruption** — a frame header failing its check, or a
//!   payload failing its checksum or decode, with bytes after it, or an
//!   impossible length field: rejected with [`RecoveryError::Corrupt`],
//!   because bytes *behind* a valid suffix cannot be explained by a
//!   partial write.
//!
//! # Snapshots
//!
//! A snapshot ([`Snapshot`]) is a checksummed checkpoint of the loaded
//! models' *descriptions* ([`ModelDescription`] — never FDDs;
//! recompilation is the source of truth), the id counter, the engine's
//! delta accounting, and the journal offset it was taken at. Recovery
//! rebuilds the snapshot models, then replays only the journal records
//! past that offset. Snapshots are written to a temp file and
//! `rename`d into place, so a crash mid-snapshot leaves the previous
//! snapshot intact.

use crate::Delta;
use mcnetkat_net::{Codec, CodecError, ModelDescription, Reader};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// Journal file name inside an engine's durability directory.
pub const JOURNAL_FILE: &str = "journal.log";
/// Snapshot file name inside an engine's durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

const JOURNAL_MAGIC: [u8; 8] = *b"MCNKJRNL";
const SNAPSHOT_MAGIC: [u8; 8] = *b"MCNKSNAP";
const VERSION: u32 = 3;
/// Header: magic then version, little-endian.
const HEADER_LEN: usize = 12;
/// Frame header: u32 length, u64 payload checksum, u32 check over those
/// 12 bytes, before the payload.
const FRAME_LEN: usize = 16;
/// Cap on a single record's payload. A length field past this cannot be
/// a real record (the largest topology we serve encodes far below it),
/// so it is diagnosed as corruption rather than obeyed.
const MAX_RECORD_LEN: usize = 1 << 28;

fn header(magic: [u8; 8]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&magic);
    h[8..].copy_from_slice(&VERSION.to_le_bytes());
    h
}

/// Appends the frame of `payload` (frame header, then the payload) to
/// `out`.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let start = out.len();
    (payload.len() as u32).encode(out);
    fnv1a64(payload).encode(out);
    let check = fnv1a64(&out[start..]) as u32;
    check.encode(out);
    out.extend_from_slice(payload);
}

/// The payload length and checksum of a frame header, or `None` when the
/// header fails its own check.
fn read_frame_header(h: &[u8]) -> Option<(usize, u64)> {
    let check = u32::from_le_bytes(h[12..FRAME_LEN].try_into().expect("4 bytes"));
    if fnv1a64(&h[..12]) as u32 != check {
        return None;
    }
    let len = u32::from_le_bytes(h[..4].try_into().expect("4 bytes")) as usize;
    let sum = u64::from_le_bytes(h[4..12].try_into().expect("8 bytes"));
    Some((len, sum))
}

/// FNV-1a, 64-bit — the in-repo checksum (the build environment is
/// offline; no external CRC crates). Not cryptographic: it detects the
/// torn writes and bit rot the journal cares about, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why journaling failed. A fatal append ([`JournalError::Io`],
/// [`JournalError::Torn`]) poisons the writer: the on-disk suffix is no
/// longer trusted, so further appends refuse with
/// [`JournalError::Poisoned`] until the operator recovers
/// ([`crate::Engine::recover`] truncates the torn tail and resumes).
#[derive(Clone, Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(String),
    /// An injected fault tore the append partway through the record.
    Torn(String),
    /// An injected fault cancelled the append before any byte was
    /// written — the journal file is still clean.
    Cancelled,
    /// A previous append failed; the writer refuses further records.
    Poisoned,
    /// The record is larger than the format allows.
    TooLarge(usize),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io: {e}"),
            JournalError::Torn(why) => write!(f, "torn journal append: {why}"),
            JournalError::Cancelled => write!(f, "journal append cancelled"),
            JournalError::Poisoned => write!(f, "journal poisoned by an earlier failure"),
            JournalError::TooLarge(n) => write!(f, "record of {n} bytes exceeds journal cap"),
        }
    }
}

impl std::error::Error for JournalError {}

/// Why recovery failed. Torn tails are *not* errors (they are truncated
/// and reported in [`crate::RecoveryReport`]); these are the shapes
/// recovery refuses to guess about.
#[derive(Clone, Debug)]
pub enum RecoveryError {
    /// Filesystem failure reading or resuming the durable state.
    Io(String),
    /// The journal file exists but does not start with this format's
    /// header (and is not a bare torn prefix of it).
    BadHeader(String),
    /// A record *before* the journal's tail fails its checksum or
    /// decodes to garbage — interior corruption, not a partial write.
    Corrupt {
        /// Byte offset of the bad record's frame.
        offset: u64,
        /// What was wrong with it.
        why: String,
    },
    /// The snapshot file is unreadable, corrupt, or inconsistent with
    /// the journal (e.g. taken at an offset the journal never reached).
    Snapshot(String),
    /// A committed record failed to re-apply (a description that no
    /// longer builds, a delta the rebuilt model rejects, a compile
    /// failure under the recovery budget).
    Replay {
        /// Index of the failing record in replay order.
        index: u64,
        /// The underlying failure.
        why: String,
    },
    /// A recovered model's diagram did not verify against a cold
    /// compile — the recovered state would be lying.
    Verify(String),
    /// Neither a snapshot nor a journal exists in the directory.
    NothingToRecover,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "recovery io: {e}"),
            RecoveryError::BadHeader(why) => write!(f, "bad journal header: {why}"),
            RecoveryError::Corrupt { offset, why } => {
                write!(f, "journal corrupt at byte {offset}: {why}")
            }
            RecoveryError::Snapshot(why) => write!(f, "bad snapshot: {why}"),
            RecoveryError::Replay { index, why } => {
                write!(f, "replay failed at record {index}: {why}")
            }
            RecoveryError::Verify(why) => write!(f, "recovered state failed verification: {why}"),
            RecoveryError::NothingToRecover => {
                write!(f, "no snapshot or journal to recover from")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

fn io_err(e: std::io::Error) -> JournalError {
    JournalError::Io(e.to_string())
}

/// One journal record: an operation whose compile has already succeeded,
/// appended just before the engine swaps its result in. Replay applies
/// every whole record in file order.
#[derive(Clone, Debug)]
pub enum Record {
    /// A model was loaded under this id (ids are engine-assigned and
    /// replay-stable).
    Load {
        /// The id the engine assigned.
        id: u64,
        /// The loaded model's full description.
        desc: ModelDescription,
    },
    /// A delta was applied to the identified model.
    Apply {
        /// The target model.
        id: u64,
        /// The edit.
        delta: Delta,
    },
    /// The identified model was unloaded.
    Unload {
        /// The unloaded model.
        id: u64,
    },
    /// A commit marker from the two-record protocol. No engine path
    /// writes it and replay skips it; it stays decodable (tag 3) only
    /// because the `serve-churn` benchmark's shadow journal still appends
    /// it.
    Commit,
}

impl Codec for Delta {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Delta::SetScheme(s) => {
                out.push(0);
                s.encode(out);
            }
            Delta::SetSwitchScheme(n, s) => {
                out.push(1);
                n.encode(out);
                s.encode(out);
            }
            Delta::ClearSwitchScheme(n) => {
                out.push(2);
                n.encode(out);
            }
            Delta::SetUniformPr(pr) => {
                out.push(3);
                pr.encode(out);
            }
            Delta::SetLinkPr(port, pr) => {
                out.push(4);
                port.encode(out);
                pr.encode(out);
            }
            Delta::ClearLinkPr(port) => {
                out.push(5);
                port.encode(out);
            }
            Delta::SetBudget(k) => {
                out.push(6);
                k.encode(out);
            }
            Delta::AddGroup(g) => {
                out.push(7);
                g.encode(out);
            }
            Delta::RemoveGroup(name) => {
                out.push(8);
                name.encode(out);
            }
            Delta::SetGroupPr(name, pr) => {
                out.push(9);
                name.encode(out);
                pr.encode(out);
            }
            Delta::SetGroupMembers(name, members) => {
                out.push(10);
                name.encode(out);
                members.encode(out);
            }
            Delta::SetHopCap(cap) => {
                out.push(11);
                cap.encode(out);
            }
            Delta::SetTopology(t) => {
                out.push(12);
                t.encode(out);
            }
            Delta::SetDst(n) => {
                out.push(13);
                n.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Delta, CodecError> {
        use mcnetkat_net::RoutingScheme;
        use mcnetkat_num::Ratio;
        use mcnetkat_topo::{NodeId, Topology};
        Ok(match u8::decode(r)? {
            0 => Delta::SetScheme(RoutingScheme::decode(r)?),
            1 => Delta::SetSwitchScheme(NodeId::decode(r)?, RoutingScheme::decode(r)?),
            2 => Delta::ClearSwitchScheme(NodeId::decode(r)?),
            3 => Delta::SetUniformPr(Ratio::decode(r)?),
            4 => Delta::SetLinkPr(u32::decode(r)?, Ratio::decode(r)?),
            5 => Delta::ClearLinkPr(u32::decode(r)?),
            6 => Delta::SetBudget(Option::<u32>::decode(r)?),
            7 => Delta::AddGroup(mcnetkat_net::Srlg::decode(r)?),
            8 => Delta::RemoveGroup(String::decode(r)?),
            9 => Delta::SetGroupPr(String::decode(r)?, Ratio::decode(r)?),
            10 => Delta::SetGroupMembers(String::decode(r)?, Vec::<(u32, u32)>::decode(r)?),
            11 => Delta::SetHopCap(Option::<u32>::decode(r)?),
            12 => Delta::SetTopology(Topology::decode(r)?),
            13 => Delta::SetDst(NodeId::decode(r)?),
            tag => return Err(CodecError::BadTag { what: "Delta", tag }),
        })
    }
}

impl Codec for Record {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Record::Load { id, desc } => {
                out.push(0);
                id.encode(out);
                desc.encode(out);
            }
            Record::Apply { id, delta } => {
                out.push(1);
                id.encode(out);
                delta.encode(out);
            }
            Record::Unload { id } => {
                out.push(2);
                id.encode(out);
            }
            Record::Commit => out.push(3),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Record, CodecError> {
        Ok(match u8::decode(r)? {
            0 => Record::Load {
                id: u64::decode(r)?,
                desc: ModelDescription::decode(r)?,
            },
            1 => Record::Apply {
                id: u64::decode(r)?,
                delta: Delta::decode(r)?,
            },
            2 => Record::Unload {
                id: u64::decode(r)?,
            },
            3 => Record::Commit,
            tag => {
                return Err(CodecError::BadTag {
                    what: "Record",
                    tag,
                })
            }
        })
    }
}

/// What [`scan`] found: the decodable records (with the byte offset each
/// frame starts at), the length of the valid prefix, and how many
/// trailing bytes a torn write left behind it.
#[derive(Debug)]
pub struct ScanResult {
    /// Every whole, checksummed, decodable record in file order.
    pub records: Vec<(u64, Record)>,
    /// Bytes of valid journal (header + whole records). Recovery
    /// truncates the file here before resuming appends.
    pub valid_len: u64,
    /// Torn-tail bytes past `valid_len` (0 for a clean journal).
    pub truncated_bytes: u64,
}

/// Reads and validates a journal file, applying the torn-tail rule from
/// the module docs. A missing-at-zero-bytes file is a valid empty
/// journal (a crash between `create` and the header write).
///
/// # Errors
///
/// [`RecoveryError::Io`] on read failure, [`RecoveryError::BadHeader`]
/// when the file is not this format, [`RecoveryError::Corrupt`] on
/// interior (non-tail) corruption.
pub fn scan(path: &Path) -> Result<ScanResult, RecoveryError> {
    let bytes = std::fs::read(path).map_err(|e| RecoveryError::Io(e.to_string()))?;
    let expect = header(JOURNAL_MAGIC);
    if bytes.len() < HEADER_LEN {
        return if expect.starts_with(&bytes) {
            // A torn header write: nothing durable yet.
            Ok(ScanResult {
                records: Vec::new(),
                valid_len: 0,
                truncated_bytes: bytes.len() as u64,
            })
        } else {
            Err(RecoveryError::BadHeader(format!(
                "{} bytes that are not a journal header prefix",
                bytes.len()
            )))
        };
    }
    if bytes[..HEADER_LEN] != expect {
        return Err(RecoveryError::BadHeader(
            "magic or version mismatch".to_string(),
        ));
    }

    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let rem = bytes.len() - pos;
        if rem < FRAME_LEN {
            break; // torn inside a frame header
        }
        let Some((len, sum)) = read_frame_header(&bytes[pos..pos + FRAME_LEN]) else {
            if rem == FRAME_LEN {
                break; // a damaged final header: nothing behind it is lost
            }
            // Its length cannot be trusted, so neither can the position
            // of anything behind it.
            return Err(RecoveryError::Corrupt {
                offset: pos as u64,
                why: "frame header fails its check".to_string(),
            });
        };
        if len > MAX_RECORD_LEN {
            return Err(RecoveryError::Corrupt {
                offset: pos as u64,
                why: format!("record length {len} exceeds format cap"),
            });
        }
        if FRAME_LEN + len > rem {
            break; // torn inside the payload
        }
        let payload = &bytes[pos + FRAME_LEN..pos + FRAME_LEN + len];
        let last = pos + FRAME_LEN + len == bytes.len();
        if fnv1a64(payload) != sum {
            if last {
                break; // checksum-failing final record: torn payload
            }
            return Err(RecoveryError::Corrupt {
                offset: pos as u64,
                why: "checksum mismatch on an interior record".to_string(),
            });
        }
        let rec = Record::from_bytes(payload).map_err(|e| RecoveryError::Corrupt {
            offset: pos as u64,
            why: format!("checksummed record failed to decode: {e}"),
        })?;
        records.push((pos as u64, rec));
        pos += FRAME_LEN + len;
    }
    Ok(ScanResult {
        records,
        valid_len: pos as u64,
        truncated_bytes: (bytes.len() - pos) as u64,
    })
}

/// The appending half of the journal. One writer per engine; appends are
/// serialized by the engine's `&mut self` mutating API.
pub struct JournalWriter {
    file: File,
    offset: u64,
    records: u64,
    poisoned: bool,
}

impl JournalWriter {
    /// Creates (or truncates) a journal file and writes its header.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`].
    pub fn create(path: &Path) -> Result<JournalWriter, JournalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(io_err)?;
        file.write_all(&header(JOURNAL_MAGIC)).map_err(io_err)?;
        file.sync_data().map_err(io_err)?;
        Ok(JournalWriter {
            file,
            offset: HEADER_LEN as u64,
            records: 0,
            poisoned: false,
        })
    }

    /// Resumes appending to an existing journal at `valid_len` (from a
    /// [`scan`]), truncating any torn tail first. `records` seeds the
    /// record counter (the records already in the valid prefix).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`].
    pub fn open_at(
        path: &Path,
        valid_len: u64,
        records: u64,
    ) -> Result<JournalWriter, JournalError> {
        if valid_len < HEADER_LEN as u64 {
            // Nothing durable (empty or torn-header file): start fresh.
            return Ok(JournalWriter {
                records,
                ..JournalWriter::create(path)?
            });
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(io_err)?;
        file.set_len(valid_len).map_err(io_err)?;
        file.sync_data().map_err(io_err)?;
        file.seek(SeekFrom::End(0)).map_err(io_err)?;
        Ok(JournalWriter {
            file,
            offset: valid_len,
            records,
            poisoned: false,
        })
    }

    /// Bytes of journal written (header + whole records).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Records appended (including those in a resumed prefix).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Whether an earlier failure poisoned the writer.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Appends one record: frame, checksum, payload, then `fsync`.
    ///
    /// # Errors
    ///
    /// [`JournalError`] — `Io`/`Torn` failures poison the writer (the
    /// on-disk tail is untrusted until a recovery truncates it);
    /// `Cancelled` (injected) leaves it clean.
    pub fn append(&mut self, rec: &Record) -> Result<(), JournalError> {
        if self.poisoned {
            return Err(JournalError::Poisoned);
        }
        let payload = rec.to_bytes();
        if payload.len() > MAX_RECORD_LEN {
            return Err(JournalError::TooLarge(payload.len()));
        }
        let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
        push_frame(&mut frame, &payload);

        if let Some(fault) = journal_failpoint() {
            match fault {
                // `Cancel`: fail cleanly before any byte hits the file.
                InjectedJournalFault::Clean => return Err(JournalError::Cancelled),
                // `Singular` doubles as "the write tore partway": flush a
                // strict prefix of the frame and poison the writer, so
                // recovery must exercise the torn-tail truncation rule.
                InjectedJournalFault::Torn => {
                    let cut = FRAME_LEN + payload.len() / 2;
                    let r = self
                        .file
                        .write_all(&frame[..cut])
                        .and_then(|()| self.file.sync_data());
                    self.poisoned = true;
                    return Err(match r {
                        Ok(()) => JournalError::Torn("injected torn write".to_string()),
                        Err(e) => io_err(e),
                    });
                }
            }
        }

        if let Err(e) = self
            .file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data())
        {
            // How much reached the disk is unknown: poison.
            self.poisoned = true;
            return Err(io_err(e));
        }
        self.offset += frame.len() as u64;
        self.records += 1;
        Ok(())
    }
}

/// What the `serve::journal::append` failpoint asked for, translated
/// into journal terms.
// Only constructed under the `failpoints` feature; the match in
// `append` still names the variants either way.
#[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
enum InjectedJournalFault {
    /// Fail without writing anything.
    Clean,
    /// Write a strict prefix of the record, then fail.
    Torn,
}

/// Polls the `serve::journal::append` failpoint. Compiles away without
/// the `failpoints` feature.
fn journal_failpoint() -> Option<InjectedJournalFault> {
    #[cfg(feature = "failpoints")]
    {
        use mcnetkat_fdd::failpoints::{check, InjectedFault};
        match check("serve::journal::append") {
            None => None,
            Some(InjectedFault::Cancelled) => Some(InjectedJournalFault::Clean),
            Some(InjectedFault::Singular) => Some(InjectedJournalFault::Torn),
        }
    }
    #[cfg(not(feature = "failpoints"))]
    None
}

/// The engine's delta accounting, carried in a snapshot so recovery can
/// seed its counters and replay only the journal tail. (Cache-dependent
/// gauges — recompile counts, hit rates — are deliberately absent: they
/// describe a cache that died with the process.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotCounters {
    /// Deltas applied before the snapshot.
    pub deltas_applied: u64,
    /// Structural rebuilds before the snapshot.
    pub full_rebuilds: u64,
    /// Switches whose inputs changed, summed, before the snapshot.
    pub switches_changed: u64,
}

impl Codec for SnapshotCounters {
    fn encode(&self, out: &mut Vec<u8>) {
        self.deltas_applied.encode(out);
        self.full_rebuilds.encode(out);
        self.switches_changed.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<SnapshotCounters, CodecError> {
        Ok(SnapshotCounters {
            deltas_applied: u64::decode(r)?,
            full_rebuilds: u64::decode(r)?,
            switches_changed: u64::decode(r)?,
        })
    }
}

/// A point-in-time checkpoint of the engine's durable state.
#[derive(Debug)]
pub struct Snapshot {
    /// The journal's [`JournalWriter::offset`] when the snapshot was
    /// taken: recovery replays only records at or past this offset.
    pub journal_offset: u64,
    /// The engine's next unassigned model id.
    pub next_id: u64,
    /// Every loaded model: engine-assigned id and full description.
    pub models: Vec<(u64, ModelDescription)>,
    /// Delta accounting up to the snapshot.
    pub counters: SnapshotCounters,
}

impl Codec for Snapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.journal_offset.encode(out);
        self.next_id.encode(out);
        self.models.encode(out);
        self.counters.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Snapshot, CodecError> {
        Ok(Snapshot {
            journal_offset: u64::decode(r)?,
            next_id: u64::decode(r)?,
            models: Vec::<(u64, ModelDescription)>::decode(r)?,
            counters: SnapshotCounters::decode(r)?,
        })
    }
}

/// Writes a snapshot: header, checksummed payload, to a temp file
/// `rename`d over `path` — a crash mid-write never damages the previous
/// snapshot.
///
/// # Errors
///
/// [`JournalError::Io`].
pub fn write_snapshot(path: &Path, snap: &Snapshot) -> Result<(), JournalError> {
    let payload = snap.to_bytes();
    let mut bytes = Vec::with_capacity(HEADER_LEN + FRAME_LEN + payload.len());
    bytes.extend_from_slice(&header(SNAPSHOT_MAGIC));
    push_frame(&mut bytes, &payload);

    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp).map_err(io_err)?;
    file.write_all(&bytes).map_err(io_err)?;
    file.sync_data().map_err(io_err)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io_err)?;
    Ok(())
}

/// Reads and validates a snapshot written by [`write_snapshot`].
///
/// # Errors
///
/// [`RecoveryError::Io`] when the file is unreadable,
/// [`RecoveryError::Snapshot`] when it is not a whole, checksummed,
/// decodable snapshot (snapshots are written atomically, so *any*
/// damage here is corruption — there is no torn tail to tolerate).
pub fn read_snapshot(path: &Path) -> Result<Snapshot, RecoveryError> {
    let bytes = std::fs::read(path).map_err(|e| RecoveryError::Io(e.to_string()))?;
    let bad = |why: &str| RecoveryError::Snapshot(why.to_string());
    if bytes.len() < HEADER_LEN + FRAME_LEN {
        return Err(bad("file too short"));
    }
    if bytes[..HEADER_LEN] != header(SNAPSHOT_MAGIC) {
        return Err(bad("magic or version mismatch"));
    }
    let Some((len, sum)) = read_frame_header(&bytes[HEADER_LEN..HEADER_LEN + FRAME_LEN]) else {
        return Err(bad("frame header fails its check"));
    };
    let body = &bytes[HEADER_LEN + FRAME_LEN..];
    if body.len() != len {
        return Err(bad("payload length mismatch"));
    }
    if fnv1a64(body) != sum {
        return Err(bad("checksum mismatch"));
    }
    Snapshot::from_bytes(body).map_err(|e| bad(&format!("payload failed to decode: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnetkat_net::{FailureSpec, NetworkModel, RoutingScheme};
    use mcnetkat_num::Ratio;
    use mcnetkat_topo::ab_fattree;
    use std::path::PathBuf;

    fn tmp_path(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "mcnetkat-journal-{}-{tag}-{n}.bin",
            std::process::id()
        ))
    }

    fn sample_desc() -> ModelDescription {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        ModelDescription::of(&NetworkModel::new(
            topo,
            dst,
            RoutingScheme::Ecmp,
            FailureSpec::independent(Ratio::new(1, 100)),
        ))
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Load {
                id: 0,
                desc: sample_desc(),
            },
            Record::Apply {
                id: 0,
                delta: Delta::SetUniformPr(Ratio::new(1, 10)),
            },
            Record::Unload { id: 0 },
        ]
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn append_scan_roundtrip() {
        let path = tmp_path("roundtrip");
        let mut w = JournalWriter::create(&path).unwrap();
        for rec in &sample_records() {
            w.append(rec).unwrap();
        }
        assert_eq!(w.records(), 3);
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records.len(), 3);
        assert_eq!(scanned.valid_len, w.offset());
        assert_eq!(scanned.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut() {
        let path = tmp_path("torn");
        let mut w = JournalWriter::create(&path).unwrap();
        let recs = sample_records();
        for rec in &recs[..2] {
            w.append(rec).unwrap();
        }
        let clean_len = w.offset();
        w.append(&recs[2]).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Chop the final record at every possible byte boundary: the scan
        // must recover exactly the first two records every time.
        for cut in clean_len as usize..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let s = scan(&path).unwrap();
            assert_eq!(s.records.len(), 2, "cut at {cut}");
            assert_eq!(s.valid_len, clean_len, "cut at {cut}");
            assert_eq!(s.truncated_bytes as usize, cut - clean_len as usize);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_failing_final_record_is_torn() {
        let path = tmp_path("badsum-tail");
        let mut w = JournalWriter::create(&path).unwrap();
        let recs = sample_records();
        for rec in &recs[..3] {
            w.append(rec).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 2);
        assert!(s.truncated_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_corruption_is_rejected_not_truncated() {
        let path = tmp_path("interior");
        let mut w = JournalWriter::create(&path).unwrap();
        for rec in &sample_records() {
            w.append(rec).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the middle of the file — inside some interior
        // record's payload, with valid records after it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match scan(&path) {
            Err(RecoveryError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_at_truncates_and_resumes() {
        let path = tmp_path("resume");
        let mut w = JournalWriter::create(&path).unwrap();
        let recs = sample_records();
        w.append(&recs[0]).unwrap();
        let clean = w.offset();
        // Simulate a torn second record.
        w.append(&recs[1]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();

        let s = scan(&path).unwrap();
        assert_eq!(s.valid_len, clean);
        let mut w = JournalWriter::open_at(&path, s.valid_len, s.records.len() as u64).unwrap();
        w.append(&recs[1]).unwrap();
        w.append(&recs[2]).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 3);
        assert_eq!(s.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_roundtrip_and_corruption() {
        let path = tmp_path("snapshot");
        let snap = Snapshot {
            journal_offset: 1234,
            next_id: 7,
            models: vec![(3, sample_desc())],
            counters: SnapshotCounters {
                deltas_applied: 41,
                full_rebuilds: 2,
                switches_changed: 99,
            },
        };
        write_snapshot(&path, &snap).unwrap();
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back.journal_offset, 1234);
        assert_eq!(back.next_id, 7);
        assert_eq!(back.models.len(), 1);
        assert_eq!(back.models[0].0, 3);
        assert_eq!(back.counters, snap.counters);

        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(RecoveryError::Snapshot(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn delta_codec_roundtrips_every_variant() {
        let topo = ab_fattree(4);
        let deltas = vec![
            Delta::SetScheme(RoutingScheme::F10_3),
            Delta::SetSwitchScheme(topo.switches()[0], RoutingScheme::F10_3_5),
            Delta::ClearSwitchScheme(topo.switches()[1]),
            Delta::SetUniformPr(Ratio::new(1, 7)),
            Delta::SetLinkPr(3, Ratio::new(2, 5)),
            Delta::ClearLinkPr(3),
            Delta::SetBudget(Some(2)),
            Delta::AddGroup(mcnetkat_net::Srlg::new(
                "g",
                Ratio::new(1, 9),
                vec![(1, 2), (1, 3)],
            )),
            Delta::RemoveGroup("g".to_string()),
            Delta::SetGroupPr("g".to_string(), Ratio::zero()),
            Delta::SetGroupMembers("g".to_string(), vec![(4, 1)]),
            Delta::SetHopCap(None),
            Delta::SetTopology(topo.clone()),
            Delta::SetDst(topo.switches()[2]),
        ];
        for d in deltas {
            let bytes = d.to_bytes();
            let back = Delta::from_bytes(&bytes).unwrap();
            // Delta lacks PartialEq (Topology doesn't compare); byte
            // equality of re-encodings is the identity that matters.
            assert_eq!(back.to_bytes(), bytes, "{d:?}");
        }
    }
}
