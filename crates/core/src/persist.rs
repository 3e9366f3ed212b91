//! Crash-consistent persistence: serialising constituent indexes to
//! checksummed byte images and committing whole wave indexes to an
//! [`IndexStore`] under a manifest.
//!
//! One file per constituent index mirrors how the paper's schemes map
//! onto commodity systems: `DropIndex` is a file unlink, shadow
//! updating is write-new-then-rename. Reloading rebuilds a packed
//! index (the image stores logical contents, not raw extents, so a
//! load also acts as a reorganisation — the "better structured index"
//! benefit of rebuild-based schemes).
//!
//! # On-disk format (WVIX v2)
//!
//! An image is the v1 layout — magic, version, label, time-set,
//! value→entries map — followed by an 8-byte little-endian CRC64
//! trailer over everything before it. v1 images (no trailer) still
//! load; their [`ImageInfo::verified`] provenance is `false`.
//!
//! Images, `.filt` sidecars and `.ing` logs share one trailer codec,
//! [`wave_storage::seal`]/[`wave_storage::unseal`]: committing or
//! loading a file checksums each of its bytes once, and that pass
//! yields both the trailer check and the whole-file CRC64 the
//! manifest records (for an intact sealed file, always the CRC-64/XZ
//! residue — see DESIGN.md §9).
//!
//! # Manifest and two-phase commit
//!
//! The committed state of a wave is defined by a single `MANIFEST`
//! file naming the epoch, the window coverage, and the exact
//! constituent file set with lengths and checksums (self-checksummed
//! with its own CRC64 line). [`commit_wave`] makes a transition
//! durable in two phases:
//!
//! 1. write the image of every constituent that changed since the
//!    wave's last commit under an epoch-suffixed name (`slot3.e17`),
//!    and reference an unchanged one's earlier files again — old epoch
//!    files are untouched;
//! 2. atomically flip `MANIFEST` to reference the new file set, then
//!    garbage-collect files no manifest references.
//!
//! Because the manifest flip is a single atomic rename, a crash at
//! any instant leaves the store describing either the pre- or the
//! post-transition wave; anything else on disk is an orphan that
//! [`crate::recovery::recover`] (or the next commit) sweeps up.
//!
//! # Incremental commit
//!
//! A wave's daily maintenance touches one or two of its `n`
//! constituents, so phase 1 writes only those. The [`WaveIndex`]
//! remembers, per slot, the manifest entry it was last committed as
//! and the length and trailer of each file written for it; any `&mut`
//! access to the slot clears that memo. A slot's files are reused only
//! when the previous manifest holds exactly its remembered entry and
//! every file, fetched from the store, has the remembered length,
//! passes [`unseal`], and ends with the remembered trailer. The
//! trailer (the body's CRC64) identifies the content; the manifest's
//! CRC column cannot, as it is the same residue for every sealed file.
//! A file that went missing or was damaged is therefore rewritten,
//! never referenced again, and one wave can alternate between stores.
//! A reused file keeps the epoch of the commit that wrote it, so a
//! manifest may name files of several epochs.
//!
//! # Filter sidecars
//!
//! When a constituent carries a [`MembershipFilter`], phase 1 also
//! writes it as a checksummed sidecar (`slot3.e17.filt`) and the
//! manifest records it on a `filter` line ([`FilterRef`]). Sidecars
//! are part of the referenced file set — GC keeps them, [`fsck`]
//! checks them, and a damaged sidecar is rebuilt by
//! [`crate::recovery::recover`] from the constituent image rather
//! than failing the wave (the image is the source of truth; the
//! filter is derived data). Manifests written before sidecars existed
//! simply have no `filter` lines: loading such an epoch rebuilds the
//! filter for free during image decode.
//!
//! # Ingest-log sidecars
//!
//! When a constituent is committed with a dirty ingest buffer
//! (DESIGN.md §15), phase 1 also serializes the buffer as a
//! checksummed `.ing` sidecar recorded on an `ingest` manifest line
//! ([`IngestRef`]); loading replays it over the decoded image. The
//! log is *not* derived data — unlike a `.filt` sidecar, a damaged
//! `.ing` costs a constituent rebuild from the archive during
//! [`crate::recovery::recover`].
//!
//! [`fsck`]: crate::recovery::fsck

use std::collections::{BTreeMap, BTreeSet};

use wave_storage::checksum::TRAILER_LEN;
use wave_storage::{crc64, seal, unseal, IndexStore, RetryPolicy, Volume};

use crate::entry::{Entry, ENTRY_BYTES};
use crate::error::{IndexError, IndexResult};
use crate::filter::MembershipFilter;
use crate::index::{ConstituentIndex, IndexConfig};
use crate::record::{Day, SearchValue};
use crate::wave::WaveIndex;

const MAGIC: &[u8; 4] = b"WVIX";
/// Current image version (checksummed).
pub const VERSION: u16 = 2;
/// Legacy checksum-less image version, still readable.
pub const VERSION_V1: u16 = 1;
/// Name of the committed-wave manifest file.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// Suffix recovery gives quarantined (corrupt but preserved) files.
pub const QUARANTINE_SUFFIX: &str = ".quar";

/// Provenance of a decoded image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageInfo {
    /// Format version the image was written with.
    pub version: u16,
    /// Whether the bytes were covered by a verified checksum. `false`
    /// for v1 images, which predate the CRC64 trailer.
    pub verified: bool,
}

/// Serialises an index's logical contents (label, time-set, buckets)
/// as a WVIX v2 image with a CRC64 trailer.
pub fn index_to_bytes(idx: &ConstituentIndex, vol: &mut Volume) -> IndexResult<Vec<u8>> {
    encode_image(idx, vol).map(|(image, _)| image)
}

/// [`index_to_bytes`] plus the image's whole-file CRC64 (what the
/// manifest records), from the one checksum pass that seals it.
pub(crate) fn encode_image(
    idx: &ConstituentIndex,
    vol: &mut Volume,
) -> IndexResult<(Vec<u8>, u64)> {
    let map = idx.read_all(vol)?;
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    write_bytes(&mut out, idx.label().as_bytes());
    // The image captures the physical layer: with buffered mutations
    // in flight its time-set is the *physical* days (pending-delete
    // days still present, buffer-only days absent); the `.ing` sidecar
    // carries the delta back to the logical state.
    let days = idx.physical_days();
    out.extend_from_slice(&(days.len() as u32).to_le_bytes());
    for day in &days {
        out.extend_from_slice(&day.0.to_le_bytes());
    }
    out.extend_from_slice(&(map.len() as u32).to_le_bytes());
    for (value, entries) in &map {
        write_bytes(&mut out, value.as_bytes());
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for e in entries {
            e.encode_into(&mut out);
        }
    }
    let crc = seal(&mut out);
    Ok((out, crc))
}

/// Rebuilds a (packed) index from a serialised image, reporting its
/// format version and whether a checksum verified the bytes.
pub fn decode_index(
    cfg: IndexConfig,
    vol: &mut Volume,
    bytes: &[u8],
) -> IndexResult<(ConstituentIndex, ImageInfo)> {
    let (body, info, _) = open_image("index image", bytes)?;
    let idx = decode_body(cfg, vol, body)?;
    Ok((idx, info))
}

/// Checks an image's header and checksum in one pass over its bytes,
/// returning the body to decode, its provenance, and the whole-file
/// CRC64 for the caller to compare with its manifest. A v2 image is
/// unsealed (its trailer verified); a v1 image has no trailer, so its
/// whole-file CRC is all that vouches for it. `what` names the image
/// in a checksum error.
pub(crate) fn open_image<'a>(
    what: &str,
    bytes: &'a [u8],
) -> IndexResult<(&'a [u8], ImageInfo, u64)> {
    let version = match bytes.split_first_chunk::<6>() {
        Some((&[m0, m1, m2, m3, v0, v1], _)) if [m0, m1, m2, m3] == *MAGIC => {
            u16::from_le_bytes([v0, v1])
        }
        _ => return Err(IndexError::Corrupt("bad persistence magic".into())),
    };
    match version {
        VERSION_V1 => Ok((
            bytes,
            ImageInfo {
                version,
                verified: false,
            },
            crc64(bytes),
        )),
        VERSION => {
            if bytes.len() < 6 + TRAILER_LEN {
                return Err(IndexError::Corrupt("v2 image too short for trailer".into()));
            }
            let (body, file_crc) = unseal(bytes).map_err(|e| IndexError::unsealed(what, e))?;
            Ok((
                body,
                ImageInfo {
                    version,
                    verified: true,
                },
                file_crc,
            ))
        }
        other => Err(IndexError::Corrupt(format!(
            "unsupported persistence version {other}"
        ))),
    }
}

/// Rebuilds a (packed) index from a serialised image.
pub fn index_from_bytes(
    cfg: IndexConfig,
    vol: &mut Volume,
    bytes: &[u8],
) -> IndexResult<ConstituentIndex> {
    decode_index(cfg, vol, bytes).map(|(idx, _)| idx)
}

/// Parses the version-independent image body (after magic + version
/// and before any trailer).
pub(crate) fn decode_body(
    cfg: IndexConfig,
    vol: &mut Volume,
    body: &[u8],
) -> IndexResult<ConstituentIndex> {
    let mut r = Reader::new(body);
    r.take(6)?; // magic + version, validated by the caller
    let label = String::from_utf8(r.bytes()?.to_vec())
        .map_err(|_| IndexError::Corrupt("label is not UTF-8".into()))?;
    let day_count = r.u32()? as usize;
    let mut days = BTreeSet::new();
    for _ in 0..day_count {
        days.insert(Day(r.u32()?));
    }
    let value_count = r.u32()? as usize;
    let mut map: BTreeMap<SearchValue, Vec<Entry>> = BTreeMap::new();
    for _ in 0..value_count {
        let value = SearchValue::from_bytes(r.bytes()?.to_vec());
        let entry_count = r.u32()? as usize;
        let mut entries = Vec::with_capacity(entry_count);
        for _ in 0..entry_count {
            let raw = r.take(ENTRY_BYTES)?;
            let e = Entry::decode(raw);
            if !days.contains(&e.day) {
                return Err(IndexError::Corrupt(format!(
                    "persisted entry day {} outside time-set",
                    e.day
                )));
            }
            entries.push(e);
        }
        map.insert(value, entries);
    }
    if !r.at_end() {
        return Err(IndexError::Corrupt(
            "trailing bytes after persistence image".into(),
        ));
    }
    ConstituentIndex::build_from_map(label, cfg, vol, map, days)
}

/// A membership-filter sidecar file as the manifest records it.
///
/// The sidecar is derived data — losing it costs a rebuild during
/// [`crate::recovery::recover`], never any answers — but while it is
/// referenced it is held to the same standard as a constituent image:
/// exact length and whole-file CRC64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterRef {
    /// Sidecar file name inside the store (`slot{j}.e{epoch}.filt`).
    pub file: String,
    /// Exact file length in bytes.
    pub len: u64,
    /// CRC64 of the whole file.
    pub crc64: u64,
}

/// An ingest-log sidecar file as the manifest records it.
///
/// Written when a constituent is committed with a dirty ingest buffer
/// (`slot{j}.e{epoch}.ing`): the serialized memtable that
/// [`load_committed`] and [`crate::recovery::recover`] replay over
/// the decoded physical image. Unlike a filter sidecar the log is
/// **not** derived data — the buffered entries exist nowhere else in
/// the store — so a torn log costs a constituent rebuild from the
/// archive instead of a cheap in-memory rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestRef {
    /// Sidecar file name inside the store (`slot{j}.e{epoch}.ing`).
    pub file: String,
    /// Exact file length in bytes.
    pub len: u64,
    /// CRC64 of the whole file.
    pub crc64: u64,
}

/// One constituent file as the manifest records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Wave slot the file belongs to.
    pub slot: usize,
    /// File name inside the store.
    pub file: String,
    /// Exact file length in bytes.
    pub len: u64,
    /// CRC64 of the whole file.
    pub crc64: u64,
    /// Label of the constituent index.
    pub label: String,
    /// Days the constituent covers (for archive-based rebuilds).
    pub days: Vec<Day>,
    /// Membership-filter sidecar, if the constituent carried a
    /// filter when committed. `None` for filter-less constituents
    /// and for manifests written before sidecars existed.
    pub filter: Option<FilterRef>,
    /// Ingest-log sidecar, if the constituent was committed with a
    /// dirty ingest buffer. `None` for clean buffers and manifests
    /// written before the buffered tier existed.
    pub ingest: Option<IngestRef>,
}

/// The committed state of a wave index: which epoch is live, what it
/// covers, and the exact file set (with checksums) forming it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic commit counter; each [`commit_wave`] bumps it.
    pub epoch: u64,
    /// `[oldest, newest]` days the wave covers (`None` if empty).
    pub window: Option<(Day, Day)>,
    /// Number of wave slots (including empty ones).
    pub slots: usize,
    /// One entry per non-empty slot, ascending by slot.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Serialises the manifest, ending with its own `crc` line.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut text = String::from("wave-manifest 1\n");
        text.push_str(&format!("epoch {}\n", self.epoch));
        match self.window {
            Some((lo, hi)) => text.push_str(&format!("window {} {}\n", lo.0, hi.0)),
            None => text.push_str("window - -\n"),
        }
        text.push_str(&format!("slots {}\n", self.slots));
        for e in &self.entries {
            let days = if e.days.is_empty() {
                "-".to_string()
            } else {
                e.days
                    .iter()
                    .map(|d| d.0.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            text.push_str(&format!(
                "slot {} {} {} {:016x} {} {}\n",
                e.slot,
                e.file,
                e.len,
                e.crc64,
                hex_encode(e.label.as_bytes()),
                days
            ));
            if let Some(f) = &e.filter {
                text.push_str(&format!(
                    "filter {} {} {} {:016x}\n",
                    e.slot, f.file, f.len, f.crc64
                ));
            }
            if let Some(l) = &e.ingest {
                text.push_str(&format!(
                    "ingest {} {} {} {:016x}\n",
                    e.slot, l.file, l.len, l.crc64
                ));
            }
        }
        let mut out = text.into_bytes();
        let crc = crc64(&out);
        out.extend_from_slice(format!("crc {crc:016x}\n").as_bytes());
        out
    }

    /// Parses and checksum-verifies a manifest.
    pub fn from_bytes(bytes: &[u8]) -> IndexResult<Manifest> {
        // The crc line is fixed-width: "crc " + 16 hex digits + "\n".
        const CRC_LINE: usize = 4 + 16 + 1;
        let (body, crc_line) = bytes
            .len()
            .checked_sub(CRC_LINE)
            .and_then(|split| bytes.split_at_checked(split))
            .ok_or_else(|| IndexError::Corrupt("manifest truncated".into()))?;
        let trailer = std::str::from_utf8(crc_line)
            .map_err(|_| IndexError::Corrupt("manifest crc line is not UTF-8".into()))?;
        let expected = trailer
            .strip_prefix("crc ")
            .and_then(|s| s.strip_suffix('\n'))
            // Strict lowercase hex: the trailer is the one line its own
            // checksum cannot cover, so no byte of it may have two
            // accepted spellings.
            .filter(|s| s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| IndexError::Corrupt("manifest missing crc line".into()))?;
        let got = crc64(body);
        if got != expected {
            return Err(IndexError::ChecksumMismatch {
                what: "manifest".into(),
                expected,
                got,
            });
        }
        let text = std::str::from_utf8(body)
            .map_err(|_| IndexError::Corrupt("manifest is not UTF-8".into()))?;
        let corrupt = |msg: &str| IndexError::Corrupt(format!("manifest: {msg}"));
        let mut lines = text.lines();
        if lines.next() != Some("wave-manifest 1") {
            return Err(corrupt("bad header"));
        }
        let mut epoch = None;
        let mut window = None;
        let mut slots = None;
        let mut entries: Vec<ManifestEntry> = Vec::new();
        for line in lines {
            let mut parts = line.split(' ');
            match parts.next() {
                Some("epoch") => {
                    let v = parts.next().ok_or_else(|| corrupt("epoch missing value"))?;
                    epoch = Some(v.parse().map_err(|_| corrupt("bad epoch"))?);
                }
                Some("window") => {
                    let lo = parts.next().ok_or_else(|| corrupt("window missing lo"))?;
                    let hi = parts.next().ok_or_else(|| corrupt("window missing hi"))?;
                    window = Some(if lo == "-" {
                        None
                    } else {
                        Some((
                            Day(lo.parse().map_err(|_| corrupt("bad window lo"))?),
                            Day(hi.parse().map_err(|_| corrupt("bad window hi"))?),
                        ))
                    });
                }
                Some("slots") => {
                    let v = parts.next().ok_or_else(|| corrupt("slots missing value"))?;
                    slots = Some(v.parse().map_err(|_| corrupt("bad slots"))?);
                }
                Some("slot") => {
                    let mut field = |what: &str| {
                        parts
                            .next()
                            .map(str::to_string)
                            .ok_or_else(|| corrupt(&format!("slot entry missing {what}")))
                    };
                    let slot = field("slot")?.parse().map_err(|_| corrupt("bad slot"))?;
                    let file = field("file")?;
                    let len = field("len")?.parse().map_err(|_| corrupt("bad len"))?;
                    let crc = u64::from_str_radix(&field("crc")?, 16)
                        .map_err(|_| corrupt("bad entry crc"))?;
                    let label = String::from_utf8(
                        hex_decode(&field("label")?).ok_or_else(|| corrupt("bad label hex"))?,
                    )
                    .map_err(|_| corrupt("label is not UTF-8"))?;
                    let days_field = field("days")?;
                    let days = if days_field == "-" {
                        Vec::new()
                    } else {
                        days_field
                            .split(',')
                            .map(|d| d.parse().map(Day).map_err(|_| corrupt("bad day")))
                            .collect::<IndexResult<Vec<Day>>>()?
                    };
                    entries.push(ManifestEntry {
                        slot,
                        file,
                        len,
                        crc64: crc,
                        label,
                        days,
                        filter: None,
                        ingest: None,
                    });
                }
                Some("filter") => {
                    let mut field = |what: &str| {
                        parts
                            .next()
                            .map(str::to_string)
                            .ok_or_else(|| corrupt(&format!("filter entry missing {what}")))
                    };
                    let slot: usize = field("slot")?
                        .parse()
                        .map_err(|_| corrupt("bad filter slot"))?;
                    let file = field("file")?;
                    let len = field("len")?
                        .parse()
                        .map_err(|_| corrupt("bad filter len"))?;
                    let crc = u64::from_str_radix(&field("crc")?, 16)
                        .map_err(|_| corrupt("bad filter crc"))?;
                    let entry = entries
                        .iter_mut()
                        .find(|e| e.slot == slot)
                        .ok_or_else(|| corrupt(&format!("filter line for unknown slot {slot}")))?;
                    if entry.filter.is_some() {
                        return Err(corrupt(&format!("duplicate filter line for slot {slot}")));
                    }
                    entry.filter = Some(FilterRef {
                        file,
                        len,
                        crc64: crc,
                    });
                }
                Some("ingest") => {
                    let mut field = |what: &str| {
                        parts
                            .next()
                            .map(str::to_string)
                            .ok_or_else(|| corrupt(&format!("ingest entry missing {what}")))
                    };
                    let slot: usize = field("slot")?
                        .parse()
                        .map_err(|_| corrupt("bad ingest slot"))?;
                    let file = field("file")?;
                    let len = field("len")?
                        .parse()
                        .map_err(|_| corrupt("bad ingest len"))?;
                    let crc = u64::from_str_radix(&field("crc")?, 16)
                        .map_err(|_| corrupt("bad ingest crc"))?;
                    let entry = entries
                        .iter_mut()
                        .find(|e| e.slot == slot)
                        .ok_or_else(|| corrupt(&format!("ingest line for unknown slot {slot}")))?;
                    if entry.ingest.is_some() {
                        return Err(corrupt(&format!("duplicate ingest line for slot {slot}")));
                    }
                    entry.ingest = Some(IngestRef {
                        file,
                        len,
                        crc64: crc,
                    });
                }
                Some("") | None => {}
                Some(other) => return Err(corrupt(&format!("unknown line kind {other:?}"))),
            }
        }
        let manifest = Manifest {
            epoch: epoch.ok_or_else(|| corrupt("no epoch"))?,
            window: window.ok_or_else(|| corrupt("no window"))?,
            slots: slots.ok_or_else(|| corrupt("no slots"))?,
            entries,
        };
        let mut seen = BTreeSet::new();
        for e in &manifest.entries {
            if e.slot >= manifest.slots {
                return Err(corrupt(&format!(
                    "entry slot {} out of range 0..{}",
                    e.slot, manifest.slots
                )));
            }
            if !seen.insert(e.slot) {
                return Err(corrupt(&format!("duplicate slot {}", e.slot)));
            }
        }
        Ok(manifest)
    }
}

/// Reads and verifies the committed manifest, or `None` if the store
/// has never committed one.
pub fn read_manifest(store: &mut dyn IndexStore) -> IndexResult<Option<Manifest>> {
    match store.get(MANIFEST_NAME)? {
        None => Ok(None),
        Some(bytes) => Manifest::from_bytes(&bytes).map(Some),
    }
}

/// What one [`commit_wave`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReport {
    /// Epoch the commit published.
    pub epoch: u64,
    /// Constituent images this commit wrote (sidecars not counted).
    pub files_written: usize,
    /// Constituents whose files from an earlier commit the new
    /// manifest references again, unchanged and unwritten.
    pub files_reused: usize,
    /// Image, filter-sidecar and ingest-log bytes written (manifest
    /// excluded).
    pub bytes_written: u64,
    /// Superseded or stray files garbage-collected after the flip.
    pub orphans_removed: usize,
}

/// One file [`commit_wave`] wrote for a slot: its exact length and the
/// trailer sealed into it. The trailer (the CRC64 of the file's body)
/// is the file's content identity; the manifest's CRC column cannot
/// be, since it is the same residue for every intact sealed file
/// (DESIGN.md §9).
#[derive(Debug, Clone, PartialEq, Eq)]
struct SealedFile {
    name: String,
    len: u64,
    trailer: [u8; TRAILER_LEN],
}

impl SealedFile {
    fn of(name: String, sealed: &[u8]) -> Self {
        SealedFile {
            name,
            len: sealed.len() as u64,
            // A sealed buffer always ends with a trailer.
            trailer: sealed
                .last_chunk::<TRAILER_LEN>()
                .copied()
                .unwrap_or_default(),
        }
    }

    /// Whether `bytes` is still this file exactly as it was sealed:
    /// same length, an intact seal, and the same trailer.
    fn matches(&self, bytes: &[u8]) -> bool {
        bytes.len() as u64 == self.len
            && unseal(bytes).is_ok()
            && bytes.last_chunk::<TRAILER_LEN>() == Some(&self.trailer)
    }
}

/// What [`commit_wave`] last committed one wave slot as: the manifest
/// entry and every file written for it (image, `.filt`, `.ing`). The
/// wave keeps one per slot and clears it whenever the slot is borrowed
/// mutably.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CommittedSlot {
    entry: ManifestEntry,
    files: Vec<SealedFile>,
}

/// Durably commits the wave's current state to `store` as a new
/// epoch, using the two-phase protocol described in the module docs.
/// Transient store errors are retried under `retry`; every retry
/// increments the `store.retry_attempts` counter on the volume's
/// observability handle.
pub fn commit_wave(
    wave: &WaveIndex,
    vol: &mut Volume,
    store: &mut dyn IndexStore,
    retry: &RetryPolicy,
) -> IndexResult<CommitReport> {
    let obs = vol.obs().clone();
    let mut span = obs.root_span(
        "commit_wave",
        wave_obs::fields![("slots", wave.slot_count() as u64)],
    );
    let ctx = span.ctx();
    vol.set_trace_ctx(ctx);
    let before = vol.stats();
    let result = commit_wave_inner(wave, vol, store, retry, &obs);
    vol.set_trace_ctx(wave_obs::TraceCtx::NONE);
    match &result {
        Ok(report) => {
            let us = (vol.stats().since(&before).sim_seconds * 1e6)
                .round()
                .max(0.0) as u64;
            span.set_end_field("epoch", report.epoch);
            span.set_end_field("files", report.files_written as u64);
            span.set_end_field("reused", report.files_reused as u64);
            span.set_end_field("latency_us", us);
            obs.slo().record("commit_wave", None, us, ctx.trace_id);
        }
        Err(e) => span.set_end_field("error", e.to_string()),
    }
    result
}

fn commit_wave_inner(
    wave: &WaveIndex,
    vol: &mut Volume,
    store: &mut dyn IndexStore,
    retry: &RetryPolicy,
    obs: &wave_obs::Obs,
) -> IndexResult<CommitReport> {
    let retries = obs.counter("store.retry_attempts");
    // A corrupt previous manifest means the store needs recovery, not
    // a blind overwrite that would orphan every live file.
    let prev = retry
        .run(&retries, || store.get(MANIFEST_NAME))?
        .map(|bytes| Manifest::from_bytes(&bytes))
        .transpose()?;
    let epoch = prev.as_ref().map_or(1, |m| m.epoch + 1);

    // Phase 1: write the new epoch's constituent files (and their
    // sidecars) for every slot that changed since the wave's last
    // commit. An unchanged slot whose files the previous manifest
    // still references, intact, is referenced again instead. Old
    // epoch files remain untouched and referenced by the old manifest.
    let mut memo = wave.committed_slots();
    let mut next: Vec<Option<CommittedSlot>> = vec![None; wave.slot_count()];
    let mut entries = Vec::new();
    let mut bytes_written = 0u64;
    let mut files_reused = 0usize;
    for (j, idx) in wave.iter() {
        let reusable = memo
            .get_mut(j)
            .and_then(Option::take)
            .filter(|c| prev.as_ref().is_some_and(|m| m.entries.contains(&c.entry)));
        let committed = match reusable {
            Some(c) if still_sealed(store, retry, &retries, &c.files)? => {
                files_reused += 1;
                c
            }
            _ => {
                let written = write_slot(j, idx, epoch, vol, store, retry, obs)?;
                bytes_written += written.files.iter().map(|f| f.len).sum::<u64>();
                written
            }
        };
        entries.push(committed.entry.clone());
        if let Some(n) = next.get_mut(j) {
            *n = Some(committed);
        }
    }
    let covered = wave.covered_days();
    let manifest = Manifest {
        epoch,
        window: covered
            .iter()
            .next()
            .copied()
            .zip(covered.iter().next_back().copied()),
        slots: wave.slot_count(),
        entries,
    };

    // Phase 2: flip the manifest (single atomic rename inside put) …
    retry.run(&retries, || store.put(MANIFEST_NAME, &manifest.to_bytes()))?;
    wave.set_committed_slots(next);

    // … then garbage-collect everything no longer referenced
    // (sidecars are referenced files like any other).
    let referenced: BTreeSet<&str> = manifest
        .entries
        .iter()
        .flat_map(|e| {
            std::iter::once(e.file.as_str())
                .chain(e.filter.as_ref().map(|f| f.file.as_str()))
                .chain(e.ingest.as_ref().map(|l| l.file.as_str()))
        })
        .collect();
    let mut orphans_removed = 0usize;
    for name in retry.run(&retries, || store.list())? {
        if name == MANIFEST_NAME
            || name.ends_with(QUARANTINE_SUFFIX)
            || referenced.contains(name.as_str())
        {
            continue;
        }
        retry.run(&retries, || store.remove(&name))?;
        orphans_removed += 1;
    }

    let files_written = manifest.entries.len() - files_reused;
    obs.counter("persist.commits").inc();
    obs.counter("persist.slots_reused").add(files_reused as u64);
    obs.event(
        "commit",
        wave_obs::fields![
            ("epoch", epoch),
            ("files", files_written as u64),
            ("reused", files_reused as u64),
            ("bytes", bytes_written),
            ("orphans_removed", orphans_removed as u64)
        ],
    );
    Ok(CommitReport {
        epoch,
        files_written,
        files_reused,
        bytes_written,
        orphans_removed,
    })
}

/// Whether every file of a slot's commit memo is still in `store`
/// exactly as the wave sealed it. A missing, truncated or damaged file
/// fails the check, so the slot is rewritten rather than referenced
/// again.
fn still_sealed(
    store: &mut dyn IndexStore,
    retry: &RetryPolicy,
    retries: &wave_obs::Counter,
    files: &[SealedFile],
) -> IndexResult<bool> {
    for f in files {
        let bytes = retry.run(retries, || store.get(&f.name))?;
        if !bytes.is_some_and(|b| f.matches(&b)) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Phase 1 for one slot: encodes its image, filter sidecar and ingest
/// log and writes them under this epoch's names.
fn write_slot(
    j: usize,
    idx: &ConstituentIndex,
    epoch: u64,
    vol: &mut Volume,
    store: &mut dyn IndexStore,
    retry: &RetryPolicy,
    obs: &wave_obs::Obs,
) -> IndexResult<CommittedSlot> {
    let retries = obs.counter("store.retry_attempts");
    let mut files = Vec::new();
    let mut put = |name: String, sealed: &[u8]| -> IndexResult<String> {
        retry.run(&retries, || store.put(&name, sealed))?;
        files.push(SealedFile::of(name.clone(), sealed));
        Ok(name)
    };
    let (image, image_crc) = encode_image(idx, vol)?;
    let name = put(format!("slot{j}.e{epoch}"), &image)?;
    let filter = match idx.membership_filter() {
        Some(f) => {
            let (sidecar, crc) = f.to_sealed_bytes();
            Some(FilterRef {
                file: put(format!("{name}.filt"), &sidecar)?,
                len: sidecar.len() as u64,
                crc64: crc,
            })
        }
        None => None,
    };
    // A dirty ingest buffer rides along as a `.ing` sidecar in phase
    // 1, so the atomic manifest flip publishes image + log together: a
    // crash at any instant recovers either the whole pre-commit state
    // or the whole post-commit state, buffered entries included.
    let ingest = if idx.ingest().is_empty() {
        None
    } else {
        let (log, crc) = idx.ingest().to_sealed_bytes();
        let file = put(format!("{name}.ing"), &log)?;
        obs.counter("ingest.log_writes").inc();
        Some(IngestRef {
            file,
            len: log.len() as u64,
            crc64: crc,
        })
    };
    let entry = ManifestEntry {
        slot: j,
        file: name,
        len: image.len() as u64,
        crc64: image_crc,
        label: idx.label().to_string(),
        days: idx.days().iter().copied().collect(),
        filter,
        ingest,
    };
    Ok(CommittedSlot { entry, files })
}

/// Provenance of one loaded wave slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotProvenance {
    /// Wave slot.
    pub slot: usize,
    /// Constituent label.
    pub label: String,
    /// Image format version on disk.
    pub version: u16,
    /// Whether checksums (manifest and image trailer) verified the
    /// bytes end to end.
    pub verified: bool,
}

/// A wave loaded from a committed store.
#[derive(Debug)]
pub struct LoadedWave {
    /// The reconstructed (packed) wave index.
    pub wave: WaveIndex,
    /// The manifest that defined it.
    pub manifest: Manifest,
    /// Per-slot provenance, ascending by slot.
    pub provenance: Vec<SlotProvenance>,
}

/// Loads the committed wave, verifying every checksum on the way. A
/// store without a manifest yields `Ok(None)`; any referenced file
/// that is missing or corrupt fails the load (use
/// [`crate::recovery::recover`] for a best-effort load instead).
pub fn load_committed(
    cfg: IndexConfig,
    vol: &mut Volume,
    store: &mut dyn IndexStore,
) -> IndexResult<Option<LoadedWave>> {
    let Some(manifest) = read_manifest(store)? else {
        return Ok(None);
    };
    let mut wave = WaveIndex::with_slots(manifest.slots);
    let mut provenance = Vec::new();
    let mut load = || -> IndexResult<()> {
        for e in &manifest.entries {
            let bytes = fetch_ref(store, "file", &e.file, e.len)?;
            let (body, info, got) = open_image(&e.file, &bytes)?;
            check_crc(&e.file, e.crc64, got)?;
            let mut idx = decode_body(cfg, vol, body)?;
            if idx.label() != e.label {
                let msg = format!(
                    "{}: label {:?} != manifest {:?}",
                    e.file,
                    idx.label(),
                    e.label
                );
                idx.release(vol)?;
                return Err(IndexError::Corrupt(msg));
            }
            // Replay the ingest log before installing the filter
            // sidecar: replay may rebuild the filter from metadata,
            // and the persisted sidecar (serialized from the logical
            // filter at commit) must win for fidelity.
            if let Some(iref) = &e.ingest {
                match load_ingest_log(store, iref) {
                    Ok((deletes, pending_days, adds)) => {
                        idx.replay_ingest(vol, &deletes, &pending_days, adds);
                        vol.obs().counter("ingest.log_replays").inc();
                    }
                    Err(err) => {
                        idx.release(vol)?;
                        return Err(err);
                    }
                }
            }
            if let Some(fref) = &e.filter {
                // The strict loader verifies every referenced byte,
                // sidecars included; only recover() tolerates damage
                // (by rebuilding the filter from the image).
                match load_filter_sidecar(store, fref) {
                    Ok(f) => {
                        // Install only when this config runs filters:
                        // the sidecar may carry stale bits from
                        // in-place deletes that a fresh rebuild would
                        // not, and callers that disabled filtering
                        // should not get a filter smuggled back in.
                        if cfg.filter.enabled {
                            idx.install_filter(f);
                        }
                    }
                    Err(err) => {
                        idx.release(vol)?;
                        return Err(err);
                    }
                }
            }
            provenance.push(SlotProvenance {
                slot: e.slot,
                label: e.label.clone(),
                version: info.version,
                verified: info.verified,
            });
            wave.install(e.slot, idx);
        }
        Ok(())
    };
    match load() {
        Ok(()) => Ok(Some(LoadedWave {
            wave,
            manifest,
            provenance,
        })),
        Err(e) => {
            // Release whatever was installed before the failure so the
            // caller's volume does not leak blocks.
            wave.release_all(vol)?;
            Err(e)
        }
    }
}

/// Fetches a filter sidecar and verifies it against its manifest
/// reference (exact length; trailer and whole-file CRC64 in one pass)
/// before decoding it.
pub(crate) fn load_filter_sidecar(
    store: &mut dyn IndexStore,
    fref: &FilterRef,
) -> IndexResult<MembershipFilter> {
    let bytes = fetch_ref(store, "sidecar", &fref.file, fref.len)?;
    let (body, got) = unseal(&bytes).map_err(|e| IndexError::unsealed(&fref.file, e))?;
    check_crc(&fref.file, fref.crc64, got)?;
    MembershipFilter::decode_body(body)
}

/// Fetches an ingest-log sidecar and verifies it against its manifest
/// reference (exact length; trailer and whole-file CRC64 in one pass)
/// before decoding it.
#[allow(clippy::type_complexity)]
pub(crate) fn load_ingest_log(
    store: &mut dyn IndexStore,
    iref: &IngestRef,
) -> IndexResult<(Vec<Day>, Vec<Day>, BTreeMap<SearchValue, Vec<Entry>>)> {
    let bytes = fetch_ref(store, "ingest log", &iref.file, iref.len)?;
    let (body, got) = unseal(&bytes).map_err(|e| IndexError::unsealed(&iref.file, e))?;
    check_crc(&iref.file, iref.crc64, got)?;
    crate::ingest::IngestBuffer::decode_log_body(body)
}

/// Fetches the `kind` file `file` a manifest references and checks
/// its exact length.
fn fetch_ref(store: &mut dyn IndexStore, kind: &str, file: &str, len: u64) -> IndexResult<Vec<u8>> {
    let bytes = store
        .get(file)?
        .ok_or_else(|| IndexError::Corrupt(format!("manifest references missing {kind} {file}")))?;
    if bytes.len() as u64 != len {
        return Err(IndexError::Corrupt(format!(
            "{file}: length {} != manifest {len}",
            bytes.len()
        )));
    }
    Ok(bytes)
}

/// Compares a file's whole-file CRC64, as its one verify pass
/// computed it, with the manifest's record.
fn check_crc(file: &str, expected: u64, got: u64) -> IndexResult<()> {
    if got == expected {
        Ok(())
    } else {
        Err(IndexError::ChecksumMismatch {
            what: file.to_string(),
            expected,
            got,
        })
    }
}

fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn hex_encode(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "-".to_string();
    }
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s == "-" {
        return Some(Vec::new());
    }
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> IndexResult<&'a [u8]> {
        let end = self.pos.saturating_add(n);
        let out = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| IndexError::Corrupt("persistence image truncated".into()))?;
        self.pos = end;
        Ok(out)
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn u32(&mut self) -> IndexResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().map_err(
            |_| IndexError::Corrupt("persistence image truncated".into()),
        )?))
    }

    fn bytes(&mut self) -> IndexResult<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::TimeRange;
    use crate::record::{DayBatch, Record, RecordId};
    use wave_storage::FileStore;

    fn sample_index(vol: &mut Volume) -> ConstituentIndex {
        let b1 = DayBatch::new(
            Day(1),
            vec![
                Record::with_values(
                    RecordId(1),
                    [SearchValue::from("war"), SearchValue::from("x")],
                ),
                Record::with_values(RecordId(2), [SearchValue::from("war")]),
            ],
        );
        let b2 = DayBatch::empty(Day(2));
        ConstituentIndex::build_packed("I1", IndexConfig::default(), vol, &[&b1, &b2]).unwrap()
    }

    fn sample_wave(vol: &mut Volume) -> WaveIndex {
        let mut wave = WaveIndex::with_slots(3);
        wave.install(0, sample_index(vol));
        // Slot 1 left empty on purpose.
        wave.install(2, sample_index(vol));
        wave
    }

    #[test]
    fn image_roundtrip_preserves_contents() {
        let mut vol = Volume::default();
        let idx = sample_index(&mut vol);
        let image = index_to_bytes(&idx, &mut vol).unwrap();
        let (loaded, info) = decode_index(IndexConfig::default(), &mut vol, &image).unwrap();
        assert_eq!(
            info,
            ImageInfo {
                version: 2,
                verified: true
            }
        );
        assert_eq!(loaded.label(), "I1");
        assert_eq!(loaded.days(), idx.days());
        assert_eq!(loaded.entry_count(), idx.entry_count());
        assert!(loaded.is_packed(), "reload reorganises into packed form");
        let mut a = idx.scan(&mut vol).unwrap();
        let mut b = loaded.scan(&mut vol).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        idx.release(&mut vol).unwrap();
        loaded.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn unpacked_index_roundtrips_too() {
        let mut vol = Volume::default();
        let mut idx = sample_index(&mut vol);
        let b3 = DayBatch::new(
            Day(3),
            vec![Record::with_values(RecordId(9), [SearchValue::from("war")])],
        );
        idx.add_batches_in_place(&mut vol, &[&b3]).unwrap();
        assert!(!idx.is_packed());
        let image = index_to_bytes(&idx, &mut vol).unwrap();
        let loaded = index_from_bytes(IndexConfig::default(), &mut vol, &image).unwrap();
        assert_eq!(loaded.entry_count(), 4);
        assert!(loaded.days().contains(&Day(3)));
        loaded.check_consistency(&mut vol).unwrap();
        idx.release(&mut vol).unwrap();
        loaded.release(&mut vol).unwrap();
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let mut vol = Volume::default();
        let idx = sample_index(&mut vol);
        let image = index_to_bytes(&idx, &mut vol).unwrap();
        // Bad magic.
        let mut bad = image.clone();
        bad[0] = b'X';
        assert!(index_from_bytes(IndexConfig::default(), &mut vol, &bad).is_err());
        // Truncated.
        let truncated = &image[..image.len() - 5];
        assert!(index_from_bytes(IndexConfig::default(), &mut vol, truncated).is_err());
        // Single bit flip anywhere trips the checksum.
        let mut flipped = image.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        let err = index_from_bytes(IndexConfig::default(), &mut vol, &flipped).unwrap_err();
        assert!(
            matches!(err, IndexError::ChecksumMismatch { .. })
                || matches!(err, IndexError::Corrupt(_)),
            "{err}"
        );
        idx.release(&mut vol).unwrap();
    }

    #[test]
    fn manifest_roundtrips_and_rejects_corruption() {
        let m = Manifest {
            epoch: 7,
            window: Some((Day(3), Day(9))),
            slots: 4,
            entries: vec![
                ManifestEntry {
                    slot: 1,
                    file: "slot1.e7".into(),
                    len: 88,
                    crc64: 0x0123_4567_89AB_CDEF,
                    label: "I1".into(),
                    days: vec![Day(5)],
                    filter: None,
                    ingest: None,
                },
                ManifestEntry {
                    slot: 2,
                    file: "slot2.e7".into(),
                    len: 1234,
                    crc64: 0xDEAD_BEEF_0123_4567,
                    label: "I2'".into(),
                    days: vec![Day(3), Day(4)],
                    filter: Some(FilterRef {
                        file: "slot2.e7.filt".into(),
                        len: 96,
                        crc64: 0xFEED_FACE_CAFE_F00D,
                    }),
                    ingest: Some(IngestRef {
                        file: "slot2.e7.ing".into(),
                        len: 64,
                        crc64: 0x0F1E_2D3C_4B5A_6978,
                    }),
                },
            ],
        };
        let bytes = m.to_bytes();
        assert_eq!(Manifest::from_bytes(&bytes).unwrap(), m);
        // Any bit flip is detected.
        for pos in [0usize, bytes.len() / 2, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            assert!(Manifest::from_bytes(&bad).is_err(), "flip at {pos}");
        }
        assert!(Manifest::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn empty_window_manifest_roundtrips() {
        let m = Manifest {
            epoch: 1,
            window: None,
            slots: 2,
            entries: vec![],
        };
        assert_eq!(Manifest::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn commit_then_load_roundtrips_through_the_filesystem() {
        let mut vol = Volume::default();
        let mut wave = sample_wave(&mut vol);
        let mut store = FileStore::open_temp().unwrap();
        let report = commit_wave(&wave, &mut vol, &mut store, &RetryPolicy::no_backoff(1)).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.files_written, 2);

        // Reload through a fresh store over the same directory so the
        // loader proves everything really hit disk.
        let root = store.root().to_path_buf();
        let mut store2 = FileStore::open(&root).unwrap();
        let mut vol2 = Volume::default();
        let loaded = load_committed(IndexConfig::default(), &mut vol2, &mut store2)
            .unwrap()
            .unwrap();
        assert_eq!(loaded.manifest.epoch, 1);
        assert_eq!(loaded.manifest.window, Some((Day(1), Day(2))));
        assert!(loaded.wave.slot(0).is_some());
        assert!(loaded.wave.slot(1).is_none());
        assert!(loaded.wave.slot(2).is_some());
        assert_eq!(loaded.wave.entry_count(), wave.entry_count());
        assert!(loaded
            .provenance
            .iter()
            .all(|p| p.verified && p.version == 2));

        wave.release_all(&mut vol).unwrap();
        let mut loaded = loaded;
        loaded.wave.release_all(&mut vol2).unwrap();
        store.destroy().unwrap();
    }

    /// A batch of one record per word, all on `day`.
    fn words_batch(day: u32, words: &[&str]) -> DayBatch {
        DayBatch::new(
            Day(day),
            words
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    Record::with_values(
                        RecordId(day as u64 * 10 + i as u64),
                        [SearchValue::from(*w)],
                    )
                })
                .collect(),
        )
    }

    /// Adds a day to slot `j` in place, through `slot_mut`.
    fn mutate_slot(wave: &mut WaveIndex, vol: &mut Volume, j: usize, day: u32) {
        let b = words_batch(day, &["war"]);
        wave.slot_mut(j)
            .unwrap()
            .add_batches_in_place(vol, &[&b])
            .unwrap();
    }

    /// A [`FileStore`] that logs the name of every `put`.
    struct PutLog {
        inner: FileStore,
        puts: Vec<String>,
    }

    impl IndexStore for PutLog {
        fn put(&mut self, name: &str, contents: &[u8]) -> wave_storage::StorageResult<()> {
            self.puts.push(name.to_string());
            self.inner.put(name, contents)
        }
        fn get(&mut self, name: &str) -> wave_storage::StorageResult<Option<Vec<u8>>> {
            self.inner.get(name)
        }
        fn remove(&mut self, name: &str) -> wave_storage::StorageResult<()> {
            self.inner.remove(name)
        }
        fn rename(&mut self, from: &str, to: &str) -> wave_storage::StorageResult<()> {
            self.inner.rename(from, to)
        }
        fn list(&mut self) -> wave_storage::StorageResult<Vec<String>> {
            self.inner.list()
        }
    }

    impl PutLog {
        fn open_temp() -> Self {
            PutLog {
                inner: FileStore::open_temp().unwrap(),
                puts: Vec::new(),
            }
        }

        /// Commits `wave`, returning the report and the names it put.
        fn commit(&mut self, wave: &WaveIndex, vol: &mut Volume) -> (CommitReport, Vec<String>) {
            self.puts.clear();
            let report = commit_wave(wave, vol, self, &RetryPolicy::no_backoff(1)).unwrap();
            (report, std::mem::take(&mut self.puts))
        }
    }

    fn manifest_files(store: &mut dyn IndexStore) -> Vec<String> {
        read_manifest(store)
            .unwrap()
            .unwrap()
            .entries
            .iter()
            .flat_map(|e| {
                std::iter::once(e.file.clone())
                    .chain(e.filter.as_ref().map(|f| f.file.clone()))
                    .chain(e.ingest.as_ref().map(|l| l.file.clone()))
            })
            .collect()
    }

    fn strings(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn recommit_bumps_epoch_and_collects_old_files() {
        let mut vol = Volume::default();
        let mut wave = sample_wave(&mut vol);
        let mut store = FileStore::open_temp().unwrap();
        let retry = RetryPolicy::no_backoff(1);
        commit_wave(&wave, &mut vol, &mut store, &retry).unwrap();
        mutate_slot(&mut wave, &mut vol, 0, 3);
        let second = commit_wave(&wave, &mut vol, &mut store, &retry).unwrap();
        assert_eq!(second.epoch, 2);
        assert_eq!(
            second.orphans_removed, 2,
            "slot 0's epoch-1 file and its sidecar collected"
        );
        let names = store.list().unwrap();
        assert_eq!(
            names,
            strings(&[
                MANIFEST_NAME,
                "slot0.e2",
                "slot0.e2.filt",
                "slot2.e1",
                "slot2.e1.filt"
            ])
        );
        wave.release_all(&mut vol).unwrap();
        store.destroy().unwrap();
    }

    #[test]
    fn unchanged_recommit_writes_only_the_manifest() {
        let mut vol = Volume::default();
        let mut wave = sample_wave(&mut vol);
        let mut store = PutLog::open_temp();
        let (first, _) = store.commit(&wave, &mut vol);
        assert_eq!((first.files_written, first.files_reused), (2, 0));
        let (second, puts) = store.commit(&wave, &mut vol);
        assert_eq!(puts, strings(&[MANIFEST_NAME]));
        assert_eq!(second.epoch, 2);
        assert_eq!((second.files_written, second.files_reused), (0, 2));
        assert_eq!((second.bytes_written, second.orphans_removed), (0, 0));
        assert_eq!(
            manifest_files(&mut store),
            strings(&["slot0.e1", "slot0.e1.filt", "slot2.e1", "slot2.e1.filt"])
        );
        let mut vol2 = Volume::default();
        let mut loaded = load_committed(IndexConfig::default(), &mut vol2, &mut store)
            .unwrap()
            .unwrap();
        assert_eq!(loaded.manifest.epoch, 2);
        assert_eq!(loaded.wave.entry_count(), wave.entry_count());
        loaded.wave.release_all(&mut vol2).unwrap();
        wave.release_all(&mut vol).unwrap();
        store.inner.destroy().unwrap();
    }

    #[test]
    fn mutating_one_slot_rewrites_only_that_slot() {
        let mut vol = Volume::default();
        let mut wave = sample_wave(&mut vol);
        let mut store = PutLog::open_temp();
        store.commit(&wave, &mut vol);
        mutate_slot(&mut wave, &mut vol, 0, 3);
        let (report, puts) = store.commit(&wave, &mut vol);
        assert_eq!(puts, strings(&["slot0.e2", "slot0.e2.filt", MANIFEST_NAME]));
        assert_eq!((report.files_written, report.files_reused), (1, 1));
        assert_eq!(
            manifest_files(&mut store),
            strings(&["slot0.e2", "slot0.e2.filt", "slot2.e1", "slot2.e1.filt"])
        );
        // A borrow that changes nothing still forgets the slot: the
        // memo cannot tell, so the slot is rewritten.
        let _ = wave.slot_mut(2);
        let (_, puts) = store.commit(&wave, &mut vol);
        assert_eq!(puts, strings(&["slot2.e3", "slot2.e3.filt", MANIFEST_NAME]));
        wave.release_all(&mut vol).unwrap();
        store.inner.destroy().unwrap();
    }

    /// Alternating one wave between two stores: the second commit to
    /// store A finds an entry identical to its memo (same name, length,
    /// label, days, sidecar) naming a file of different content, and
    /// only the trailer tells them apart.
    #[test]
    fn alternating_stores_never_reference_stale_files() {
        let index = |vol: &mut Volume, word: &str, days: [u32; 2], label: &str| {
            let batches = days.map(|d| words_batch(d, &[word, "x"]));
            let refs: Vec<&DayBatch> = batches.iter().collect();
            ConstituentIndex::build_packed(label, IndexConfig::default(), vol, &refs).unwrap()
        };
        let mut vol = Volume::default();
        let mut wave = WaveIndex::with_slots(2);
        wave.install(0, index(&mut vol, "war", [1, 2], "I1"));
        wave.install(1, index(&mut vol, "tea", [3, 4], "I2"));
        let mut a = FileStore::open_temp().unwrap();
        let mut b = FileStore::open_temp().unwrap();
        let retry = RetryPolicy::no_backoff(1);
        commit_wave(&wave, &mut vol, &mut a, &retry).unwrap();
        let old = wave
            .install(0, index(&mut vol, "sun", [1, 2], "I1"))
            .unwrap();
        old.release(&mut vol).unwrap();
        commit_wave(&wave, &mut vol, &mut b, &retry).unwrap();
        let entry0 = |s: &mut FileStore| read_manifest(s).unwrap().unwrap().entries[0].clone();
        assert_eq!(entry0(&mut a), entry0(&mut b), "only the trailers differ");
        let report = commit_wave(&wave, &mut vol, &mut a, &retry).unwrap();
        assert_eq!((report.files_written, report.files_reused), (1, 1));

        let mut oracle = crate::verify::Oracle::new();
        for (word, day) in [("sun", 1), ("sun", 2), ("tea", 3), ("tea", 4)] {
            oracle.insert(&words_batch(day, &[word, "x"]));
        }
        let mut vol2 = Volume::default();
        let mut loaded = load_committed(IndexConfig::default(), &mut vol2, &mut a)
            .unwrap()
            .unwrap();
        let window = (Day(1), Day(4));
        let mut got = loaded.wave.segment_scan(&mut vol2).unwrap().entries;
        let mut want = oracle.scan(TimeRange::all(), window);
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        for word in ["war", "sun", "tea", "x"] {
            let value = SearchValue::from(word);
            let mut got = loaded.wave.index_probe(&mut vol2, &value).unwrap().entries;
            let mut want = oracle.probe(&value, TimeRange::all(), window);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "probe {word}");
        }
        loaded.wave.release_all(&mut vol2).unwrap();
        wave.release_all(&mut vol).unwrap();
        a.destroy().unwrap();
        b.destroy().unwrap();
    }

    #[test]
    fn damaged_reusable_files_are_rewritten() {
        type Damage = fn(&mut FileStore, &str);
        let damages: [(&str, Damage); 3] = [
            ("removed", |s, f| s.remove(f).unwrap()),
            ("bit-flipped", |s, f| {
                let mut bytes = s.get(f).unwrap().unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x08;
                s.put(f, &bytes).unwrap();
            }),
            ("truncated", |s, f| {
                let bytes = s.get(f).unwrap().unwrap();
                s.put(f, &bytes[..bytes.len() - 3]).unwrap();
            }),
        ];
        for (what, damage) in damages {
            for target in ["slot2.e1", "slot2.e1.filt"] {
                let ctx = format!("{target} {what}");
                let mut vol = Volume::default();
                let mut wave = sample_wave(&mut vol);
                let mut store = FileStore::open_temp().unwrap();
                let retry = RetryPolicy::no_backoff(1);
                commit_wave(&wave, &mut vol, &mut store, &retry).unwrap();
                damage(&mut store, target);
                let report = commit_wave(&wave, &mut vol, &mut store, &retry).unwrap();
                assert_eq!((report.files_written, report.files_reused), (1, 1), "{ctx}");
                assert_eq!(
                    manifest_files(&mut store),
                    strings(&["slot0.e1", "slot0.e1.filt", "slot2.e2", "slot2.e2.filt"]),
                    "{ctx}"
                );
                let mut vol2 = Volume::default();
                let mut loaded = load_committed(IndexConfig::default(), &mut vol2, &mut store)
                    .unwrap_or_else(|e| panic!("{ctx}: strict load failed: {e}"))
                    .unwrap();
                assert_eq!(loaded.wave.entry_count(), wave.entry_count(), "{ctx}");
                loaded.wave.release_all(&mut vol2).unwrap();
                wave.release_all(&mut vol).unwrap();
                store.destroy().unwrap();
            }
        }
    }

    #[test]
    fn commit_records_sidecars_and_load_installs_them() {
        let mut vol = Volume::default();
        let mut wave = sample_wave(&mut vol);
        let mut store = FileStore::open_temp().unwrap();
        commit_wave(&wave, &mut vol, &mut store, &RetryPolicy::no_backoff(1)).unwrap();
        let manifest = read_manifest(&mut store).unwrap().unwrap();
        assert!(
            manifest.entries.iter().all(|e| e.filter.is_some()),
            "every committed constituent records its sidecar"
        );
        let mut vol2 = Volume::default();
        let mut loaded = load_committed(IndexConfig::default(), &mut vol2, &mut store)
            .unwrap()
            .unwrap();
        for (slot, idx) in loaded.wave.iter() {
            let sidecar = idx
                .membership_filter()
                .expect("filter installed from sidecar");
            assert_eq!(
                Some(sidecar),
                wave.slot(slot).unwrap().membership_filter(),
                "sidecar filter is bit-identical to the committed one"
            );
        }
        wave.release_all(&mut vol).unwrap();
        loaded.wave.release_all(&mut vol2).unwrap();
        store.destroy().unwrap();
    }

    #[test]
    fn strict_load_rejects_a_torn_sidecar() {
        let mut vol = Volume::default();
        let mut wave = sample_wave(&mut vol);
        let mut store = FileStore::open_temp().unwrap();
        commit_wave(&wave, &mut vol, &mut store, &RetryPolicy::no_backoff(1)).unwrap();
        let mut bytes = store.get("slot0.e1.filt").unwrap().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        store.put("slot0.e1.filt", &bytes).unwrap();
        let mut vol2 = Volume::default();
        let err = load_committed(IndexConfig::default(), &mut vol2, &mut store).unwrap_err();
        assert!(err.to_string().contains("slot0.e1.filt"), "{err}");
        assert_eq!(vol2.live_blocks(), 0, "partial load released its blocks");
        wave.release_all(&mut vol).unwrap();
        store.destroy().unwrap();
    }

    #[test]
    fn disabled_filter_config_does_not_install_sidecars() {
        let mut vol = Volume::default();
        let mut wave = sample_wave(&mut vol);
        let mut store = FileStore::open_temp().unwrap();
        commit_wave(&wave, &mut vol, &mut store, &RetryPolicy::no_backoff(1)).unwrap();
        let cfg = IndexConfig {
            filter: crate::filter::FilterConfig::disabled(),
            ..IndexConfig::default()
        };
        let mut vol2 = Volume::default();
        let mut loaded = load_committed(cfg, &mut vol2, &mut store).unwrap().unwrap();
        assert!(
            loaded
                .wave
                .iter()
                .all(|(_, idx)| idx.membership_filter().is_none()),
            "a filter-disabled config loads filterless constituents"
        );
        wave.release_all(&mut vol).unwrap();
        loaded.wave.release_all(&mut vol2).unwrap();
        store.destroy().unwrap();
    }

    #[test]
    fn load_fails_cleanly_on_missing_constituent() {
        let mut vol = Volume::default();
        let mut wave = sample_wave(&mut vol);
        let mut store = FileStore::open_temp().unwrap();
        commit_wave(&wave, &mut vol, &mut store, &RetryPolicy::no_backoff(1)).unwrap();
        store.remove("slot2.e1").unwrap();
        let mut vol2 = Volume::default();
        let err = load_committed(IndexConfig::default(), &mut vol2, &mut store).unwrap_err();
        assert!(err.to_string().contains("slot2.e1"), "{err}");
        assert_eq!(vol2.live_blocks(), 0, "partial load released its blocks");
        wave.release_all(&mut vol).unwrap();
        store.destroy().unwrap();
    }

    #[test]
    fn loading_an_empty_store_is_none() {
        let mut store = FileStore::open_temp().unwrap();
        let mut vol = Volume::default();
        assert!(load_committed(IndexConfig::default(), &mut vol, &mut store)
            .unwrap()
            .is_none());
        store.destroy().unwrap();
    }

    #[test]
    fn hex_roundtrip() {
        for label in ["", "I1", "T3'", "weird label"] {
            let enc = hex_encode(label.as_bytes());
            assert!(!enc.contains(' '));
            assert_eq!(hex_decode(&enc).unwrap(), label.as_bytes());
        }
        assert!(hex_decode("xyz").is_none());
        assert!(hex_decode("abc").is_none(), "odd length rejected");
    }
}
