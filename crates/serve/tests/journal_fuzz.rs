//! Fuzzes the journal and snapshot readers over valid files written by a
//! real journaling engine. Random bit flips, truncations, re-sealed
//! payload edits and overwritten frame lengths must come back from
//! `journal::scan` and `journal::read_snapshot` as `Ok` or a typed
//! `RecoveryError` — never a panic — and the shapes the recovery contract
//! names must get the verdict it names: a truncated journal is a torn
//! tail, a damaged interior frame (header or payload) is `Corrupt`, a
//! damaged snapshot is `Snapshot`.

use mcnetkat_net::{FailureSpec, NetworkModel, RoutingScheme, Srlg};
use mcnetkat_num::Ratio;
use mcnetkat_serve::journal::{self, fnv1a64, RecoveryError};
use mcnetkat_serve::{Delta, Engine, EngineConfig};
use mcnetkat_topo::ab_fattree;
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Header bytes: magic then a little-endian `u32` version.
const HEADER_LEN: usize = 12;
/// Frame bytes before a payload: `u32` length, `u64` payload checksum,
/// then a `u32` check over those 12 bytes.
const FRAME_LEN: usize = 16;
/// The readers' cap on one record's payload.
const MAX_RECORD_LEN: u32 = 1 << 28;

/// A journal and a snapshot written by a real engine.
struct Fixture {
    journal: Vec<u8>,
    /// Byte offset of every record frame, then the journal's length.
    frames: Vec<usize>,
    snapshot: Vec<u8>,
}

impl Fixture {
    fn records(&self) -> usize {
        self.frames.len() - 1
    }
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mcnetkat-journal-fuzz-{}-{tag}.bin",
        std::process::id()
    ))
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = tmp_path("fixture");
        let mut engine = Engine::with_journal(EngineConfig::default(), &dir).unwrap();
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let core = topo.find("core0").unwrap();
        let model = NetworkModel::new(
            topo,
            dst,
            RoutingScheme::Ecmp,
            FailureSpec::independent(Ratio::new(1, 100)),
        );
        let id = engine.load(model.clone()).unwrap();
        let other = engine.load(model.clone()).unwrap();
        let card = Srlg::down_links_of(&model.topo, core, Ratio::new(1, 50));
        for delta in [
            Delta::SetSwitchScheme(core, RoutingScheme::F10_3),
            Delta::SetLinkPr(model.prone_ports(core)[0], Ratio::new(1, 7)),
            Delta::AddGroup(card),
            Delta::SetBudget(Some(1)),
            Delta::SetHopCap(Some(12)),
        ] {
            engine.apply(id, delta).unwrap();
        }
        let snapshot_path = dir.join(journal::SNAPSHOT_FILE);
        engine.snapshot(&snapshot_path).unwrap();
        engine.unload(other).unwrap();
        drop(engine);

        let journal_path = dir.join(journal::JOURNAL_FILE);
        let scanned = journal::scan(&journal_path).unwrap();
        let journal = std::fs::read(&journal_path).unwrap();
        assert_eq!(
            scanned.records.len(),
            8,
            "two loads, five applies, an unload"
        );
        assert_eq!(scanned.valid_len, journal.len() as u64);
        let mut frames: Vec<usize> = scanned
            .records
            .iter()
            .map(|(off, _)| *off as usize)
            .collect();
        frames.push(journal.len());
        let snapshot = std::fs::read(&snapshot_path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        Fixture {
            journal,
            frames,
            snapshot,
        }
    })
}

/// `journal::scan` over `bytes`, through a file of its own.
fn scan_bytes(tag: &str, bytes: &[u8]) -> Result<journal::ScanResult, RecoveryError> {
    let path = tmp_path(tag);
    std::fs::write(&path, bytes).unwrap();
    let result = journal::scan(&path);
    std::fs::remove_file(&path).ok();
    result
}

/// `journal::read_snapshot` over `bytes`, through a file of its own.
fn read_snapshot_bytes(tag: &str, bytes: &[u8]) -> Result<journal::Snapshot, RecoveryError> {
    let path = tmp_path(tag);
    std::fs::write(&path, bytes).unwrap();
    let result = journal::read_snapshot(&path);
    std::fs::remove_file(&path).ok();
    result
}

/// Flips bit `bit % (8 * bytes.len())` of `bytes`.
fn flip(bytes: &mut [u8], bit: usize) {
    let bit = bit % (bytes.len() * 8);
    bytes[bit / 8] ^= 1 << (bit % 8);
}

/// Whether a scan verdict is one of the typed outcomes a damaged file
/// may produce.
fn typed(result: &Result<journal::ScanResult, RecoveryError>) -> bool {
    matches!(
        result,
        Ok(_) | Err(RecoveryError::BadHeader(_) | RecoveryError::Corrupt { .. })
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Flipping random bits anywhere gives `Ok` or a typed error.
    #[test]
    fn random_bit_flips_never_panic(bits in vec(any::<usize>(), 1..6)) {
        let f = fixture();
        let mut bytes = f.journal.clone();
        for b in &bits {
            flip(&mut bytes, *b);
        }
        let result = scan_bytes("flips", &bytes);
        prop_assert!(typed(&result), "{:?}", result.err());
    }

    /// One flip anywhere in the frame of a record with records after it
    /// (its length, either check or its payload) is interior corruption,
    /// never a torn tail.
    #[test]
    fn interior_flip_is_corrupt(pick in any::<usize>(), bit in 0..8usize) {
        let f = fixture();
        let record = pick % (f.records() - 1);
        let sealed = f.frames[record]..f.frames[record + 1];
        let pos = sealed.start + pick % sealed.len();
        let mut bytes = f.journal.clone();
        flip(&mut bytes, pos * 8 + bit);
        match scan_bytes("interior", &bytes) {
            Err(RecoveryError::Corrupt { offset, .. }) => {
                prop_assert_eq!(offset as usize, f.frames[record]);
            }
            other => prop_assert!(false, "flip at {pos}: {:?}", other.map(|s| s.records.len())),
        }
    }

    /// Any flip in the snapshot is refused as a bad snapshot.
    #[test]
    fn snapshot_flip_is_refused(bits in vec(any::<usize>(), 1..4)) {
        let f = fixture();
        let mut bytes = f.snapshot.clone();
        flip(&mut bytes, bits[0]);
        let result = read_snapshot_bytes("snapshot-flip", &bytes);
        prop_assert!(matches!(result, Err(RecoveryError::Snapshot(_))));
        // More flips may cancel out; they still may not panic.
        for b in &bits[1..] {
            flip(&mut bytes, *b);
        }
        let result = read_snapshot_bytes("snapshot-flips", &bytes);
        prop_assert!(matches!(result, Ok(_) | Err(RecoveryError::Snapshot(_))));
    }

    /// A journal cut at any byte is a torn tail: the scan keeps exactly
    /// the whole records before the cut. A cut snapshot is refused.
    #[test]
    fn truncation_keeps_the_whole_records(cut in any::<usize>()) {
        let f = fixture();
        let cut = cut % f.journal.len();
        let s = scan_bytes("truncate", &f.journal[..cut])
            .map_err(|e| TestCaseError::Fail(format!("cut at {cut}: {e}")))?;
        let whole = f.frames[1..].iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(s.records.len(), whole);
        // The first frame starts right after the header.
        let valid = if cut < HEADER_LEN { 0 } else { f.frames[whole] };
        prop_assert_eq!(s.valid_len as usize, valid);
        prop_assert_eq!(s.truncated_bytes as usize, cut - valid);

        let cut = cut % f.snapshot.len();
        let result = read_snapshot_bytes("snapshot-truncate", &f.snapshot[..cut]);
        prop_assert!(matches!(result, Err(RecoveryError::Snapshot(_))));
    }

    /// A frame length overwritten past the remaining input, within the
    /// format cap or past it, is corruption at that frame: its header
    /// fails its check, and the records behind it are acknowledged
    /// history, not a torn tail.
    #[test]
    fn overwritten_frame_length(record in any::<usize>(), over in any::<u32>(), past_cap in any::<bool>()) {
        let f = fixture();
        let record = record % f.records();
        let at = f.frames[record];
        let remaining = (f.journal.len() - at - FRAME_LEN) as u32;
        let len = if past_cap {
            MAX_RECORD_LEN + 1 + over % (u32::MAX - MAX_RECORD_LEN)
        } else {
            remaining + 1 + over % (MAX_RECORD_LEN - remaining)
        };
        let mut bytes = f.journal.clone();
        bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
        match scan_bytes("length", &bytes) {
            Err(RecoveryError::Corrupt { offset, .. }) => {
                prop_assert_eq!(offset as usize, at);
            }
            other => prop_assert!(false, "length {len} at record {record}: {:?}", other.map(|s| s.records.len())),
        }

        // The snapshot's one frame: any length but the true one is refused.
        let mut bytes = f.snapshot.clone();
        let true_len = u32::from_le_bytes(bytes[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap());
        let len = if len == true_len { len + 1 } else { len };
        bytes[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&len.to_le_bytes());
        let result = read_snapshot_bytes("snapshot-length", &bytes);
        prop_assert!(matches!(result, Err(RecoveryError::Snapshot(_))));
    }

    /// Bits flipped inside a payload whose checksum and frame check are
    /// then re-sealed: the decoder sees hostile bytes behind a valid
    /// frame. It must decode them or refuse them as corruption at that
    /// record.
    #[test]
    fn resealed_payload_edits_decode_or_are_corrupt(pick in any::<usize>(), bits in vec(0..64usize, 1..4)) {
        let f = fixture();
        let record = pick % f.records();
        let (start, end) = (f.frames[record] + FRAME_LEN, f.frames[record + 1]);
        let mut bytes = f.journal.clone();
        for b in &bits {
            let pos = start + (pick / 7 + b / 8) % (end - start);
            flip(&mut bytes, pos * 8 + b % 8);
        }
        let at = f.frames[record];
        let sum = fnv1a64(&bytes[start..end]);
        bytes[at + 4..at + 12].copy_from_slice(&sum.to_le_bytes());
        let check = fnv1a64(&bytes[at..at + 12]) as u32;
        bytes[at + 12..start].copy_from_slice(&check.to_le_bytes());
        match scan_bytes("reseal", &bytes) {
            Ok(s) => prop_assert_eq!(s.records.len(), f.records()),
            Err(RecoveryError::Corrupt { offset, .. }) => {
                prop_assert_eq!(offset as usize, f.frames[record]);
            }
            Err(e) => prop_assert!(false, "{e}"),
        }
    }
}

/// The header a file of `version` carries.
fn versioned_header(magic: &[u8; 8], version: u32) -> Vec<u8> {
    let mut h = magic.to_vec();
    h.extend_from_slice(&version.to_le_bytes());
    h
}

/// The fixture's records behind a `version` header are refused by that
/// header; there is no second reader.
fn assert_version_refused(version: u32) {
    let f = fixture();
    let mut journal = versioned_header(b"MCNKJRNL", version);
    journal.extend_from_slice(&f.journal[HEADER_LEN..]);
    assert!(matches!(
        scan_bytes(&format!("v{version}-journal"), &journal),
        Err(RecoveryError::BadHeader(_))
    ));
    let mut snapshot = versioned_header(b"MCNKSNAP", version);
    snapshot.extend_from_slice(&f.snapshot[HEADER_LEN..]);
    assert!(matches!(
        read_snapshot_bytes(&format!("v{version}-snapshot"), &snapshot),
        Err(RecoveryError::Snapshot(why)) if why == "magic or version mismatch"
    ));
    // The fixture itself carries version 3.
    assert_eq!(f.journal[8..HEADER_LEN], 3u32.to_le_bytes());
    assert_eq!(f.snapshot[8..HEADER_LEN], 3u32.to_le_bytes());
}

/// A file written by the two-record (intent + commit marker) protocol is
/// refused by its header.
#[test]
fn version_1_files_are_refused() {
    assert_version_refused(1);
}

/// A file whose frame headers carry no check of their own is refused by
/// its header.
#[test]
fn version_2_files_are_refused() {
    assert_version_refused(2);
}

/// A v1 journal refuses recovery as a whole, and nothing is rewritten.
#[test]
fn version_1_journal_refuses_recovery() {
    let dir = tmp_path("v1-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let path: &Path = &dir.join(journal::JOURNAL_FILE);
    let mut bytes = versioned_header(b"MCNKJRNL", 1);
    bytes.extend_from_slice(&fixture().journal[HEADER_LEN..]);
    std::fs::write(path, &bytes).unwrap();
    assert!(matches!(
        Engine::recover(EngineConfig::default(), &dir),
        Err(RecoveryError::BadHeader(_))
    ));
    assert_eq!(std::fs::read(path).unwrap(), bytes);
    std::fs::remove_dir_all(&dir).ok();
}
