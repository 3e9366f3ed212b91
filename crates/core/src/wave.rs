//! The wave index Θ: a set of constituent indexes queried together.
//!
//! Θ is held as positional slots `I_1 … I_n` because the algorithms of
//! Appendix A address constituents by position ("let `I_j` be the
//! index containing day `new − W`"). Queries run over every live slot
//! whose time-set intersects the requested range, exactly as
//! `TimedIndexProbe`/`TimedSegmentScan` prescribe.

use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

use wave_storage::{IoScheduler, ReadRequest, Volume};

use crate::entry::{decode_entries, Entry, ENTRY_BYTES};
use crate::error::{IndexError, IndexResult};
use crate::index::{ConstituentIndex, ProbeOutcome};
use crate::persist::CommittedSlot;
use crate::query::TimeRange;
use crate::record::{Day, SearchValue};

/// The constituents a query over `range` accesses: every live slot
/// whose day span intersects it, in the order given (ascending slot
/// order on every caller). Empty constituents hold nothing and are
/// never accessed. This is the one slot-selection step of every read
/// path, on one volume or on an arm of a
/// [`WaveServer`](crate::server::WaveServer).
fn slots_in<'a>(
    slots: impl Iterator<Item = (usize, &'a ConstituentIndex)>,
    range: TimeRange,
) -> impl Iterator<Item = (usize, &'a ConstituentIndex)> {
    slots.filter(move |(_, idx)| {
        idx.day_span()
            .is_some_and(|(lo, hi)| range.intersects_span(lo, hi))
    })
}

/// The slot loop: `read`s each constituent `range` selects, returning
/// `(slot, answer)` per accessed constituent. Callers pass the
/// per-constituent read (`probe_in`, `scan_in`), wrapped in their own
/// retry where they serve under faults.
pub(crate) fn read_slots<'a, T>(
    slots: impl Iterator<Item = (usize, &'a ConstituentIndex)>,
    range: TimeRange,
    mut read: impl FnMut(&'a ConstituentIndex) -> IndexResult<T>,
) -> IndexResult<Vec<(usize, T)>> {
    slots_in(slots, range)
        .map(|(slot, idx)| Ok((slot, read(idx)?)))
        .collect()
}

/// One pruned (slot, value) hit of the batch loop.
enum Hit {
    /// Consumes the next buffer of the scheduled sweep (`count`
    /// entries).
    Read(u32),
    /// Covered in memory — exactly the entries the bucket read would
    /// have produced, already logical.
    Covered(Vec<Entry>),
}

/// The batch loop: answers every value over the constituents `range`
/// selects with at most one scheduled device pass.
///
/// Phase 1 prunes in memory (filter, covering set, directory) per
/// constituent; phase 2 hands *all* hit buckets to `sweep` as one
/// batch, so the scheduler sorts them by block address, merges
/// adjacent buckets and reads shared blocks once; phase 3 pairs each
/// scheduled read with its buffer, applies the ingest overlay and
/// calls `emit(slot, answers)` per accessed slot, in slot order, with
/// one entry list per value (indexed like `values`) — byte-identical
/// to a `probe_in` per (slot, value); only the device schedule
/// differs. Emitting slot by slot lets callers drop each slot's
/// decoded buckets before the next is decoded.
pub(crate) fn read_slots_batched<'a>(
    vol: &mut Volume,
    slots: impl Iterator<Item = (usize, &'a ConstituentIndex)>,
    values: &[SearchValue],
    range: TimeRange,
    sweep: impl FnOnce(&mut Volume, &[ReadRequest]) -> IndexResult<Vec<Vec<u8>>>,
    mut emit: impl FnMut(usize, Vec<Vec<Entry>>),
) -> IndexResult<()> {
    let mut accessed = Vec::new();
    let mut requests: Vec<ReadRequest> = Vec::new();
    // The constituent and value ride along so bucket reads can apply
    // the ingest overlay when they resolve.
    let mut hits: Vec<(usize, usize, &ConstituentIndex, &SearchValue, Hit)> = Vec::new();
    for (slot, idx) in slots_in(slots, range) {
        accessed.push(slot);
        for (vi, value) in values.iter().enumerate() {
            match idx.prune_probe(vol, value) {
                ProbeOutcome::Skipped | ProbeOutcome::Absent => {}
                ProbeOutcome::Covered(entries) => {
                    hits.push((slot, vi, idx, value, Hit::Covered(entries)));
                }
                ProbeOutcome::Bucket(bucket) if bucket.count > 0 => {
                    requests.push(ReadRequest::new(
                        bucket.extent,
                        bucket.offset,
                        bucket.count as usize * ENTRY_BYTES,
                    ));
                    hits.push((slot, vi, idx, value, Hit::Read(bucket.count)));
                }
                ProbeOutcome::Bucket(_) => {}
            }
        }
    }
    // The scheduler treats an empty batch as a caller error; a batch
    // that happens to hit no bucket is not one.
    let buffers = if requests.is_empty() {
        Vec::new()
    } else {
        sweep(vol, &requests)?
    };
    let short_sweep = || {
        IndexError::Corrupt(format!(
            "scheduled sweep returned {} buffers for {} bucket reads",
            buffers.len(),
            requests.len()
        ))
    };
    if buffers.len() != requests.len() {
        return Err(short_sweep());
    }
    // Hits and buffers are both in (slot, value) order.
    let mut next_buffer = buffers.iter();
    let mut hits = hits.into_iter().peekable();
    for slot in accessed {
        let mut answers = vec![Vec::new(); values.len()];
        while let Some((_, vi, idx, value, hit)) = hits.next_if(|h| h.0 == slot) {
            let mut entries = match hit {
                Hit::Covered(entries) => entries,
                Hit::Read(count) => {
                    let buf = next_buffer.next().ok_or_else(short_sweep)?;
                    idx.overlay_pending(value, decode_entries(buf, count as usize))
                }
            };
            entries.retain(|e| range.contains(e.day));
            if let Some(answer) = answers.get_mut(vi) {
                *answer = entries;
            }
        }
        emit(slot, answers);
    }
    Ok(())
}

/// Appends one slot's per-value answers to the per-value results, so
/// answers appended in slot order concatenate exactly as per-value
/// probes would.
pub(crate) fn append_per_value(per_value: &mut [Vec<Entry>], answers: Vec<Vec<Entry>>) {
    for (entries, slot_entries) in per_value.iter_mut().zip(answers) {
        entries.extend(slot_entries);
    }
}

/// Result of a wave-index query, carrying the access count the cost
/// model calls `Probe_idx`/`Scan_idx`.
#[derive(Debug)]
pub struct QueryResult {
    /// Matching entries across all accessed constituents.
    pub entries: Vec<Entry>,
    /// Number of constituent indexes actually accessed.
    pub indexes_accessed: usize,
}

impl QueryResult {
    /// Concatenates per-slot answers (in slot order), one access each.
    fn from_slots(per_slot: Vec<(usize, Vec<Entry>)>) -> Self {
        let mut entries = Vec::with_capacity(per_slot.iter().map(|(_, e)| e.len()).sum());
        let indexes_accessed = per_slot.len();
        for (_, slot_entries) in per_slot {
            entries.extend(slot_entries);
        }
        QueryResult {
            entries,
            indexes_accessed,
        }
    }
}

/// A wave index: `n` positional constituent slots.
#[derive(Default)]
pub struct WaveIndex {
    slots: Vec<Option<ConstituentIndex>>,
    /// Per slot, what [`commit_wave`](crate::persist::commit_wave)
    /// last committed it as, or `None` once the slot may have changed.
    /// Every `&mut` slot accessor clears its slot's memo, and a
    /// constituent has no interior mutability, so a memo that is still
    /// set describes the slot's current contents. The lock exists only
    /// so a commit through `&self` can replace the memo; it is held
    /// just long enough to copy entries in or out.
    committed: Mutex<Vec<Option<CommittedSlot>>>,
}

impl std::fmt::Debug for WaveIndex {
    /// The slots only: the commit memo is a cache of what a store
    /// holds, not part of the wave's state.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaveIndex")
            .field("slots", &self.slots)
            .finish()
    }
}

impl WaveIndex {
    /// Creates a wave index with `n` empty slots.
    pub fn with_slots(n: usize) -> Self {
        WaveIndex {
            slots: (0..n).map(|_| None).collect(),
            committed: Mutex::new(vec![None; n]),
        }
    }

    /// Number of slots (the scheme's `n`).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The constituent in slot `j` (0-based), if present.
    pub fn slot(&self, j: usize) -> Option<&ConstituentIndex> {
        self.slots.get(j).and_then(Option::as_ref)
    }

    /// Mutable access to slot `j`.
    pub fn slot_mut(&mut self, j: usize) -> Option<&mut ConstituentIndex> {
        self.forget_commit(j);
        self.slots.get_mut(j).and_then(Option::as_mut)
    }

    /// `AddIndex`: installs `idx` in slot `j`, returning any previous
    /// occupant (which the caller must release).
    pub fn install(&mut self, j: usize, idx: ConstituentIndex) -> Option<ConstituentIndex> {
        self.forget_commit(j);
        self.slots[j].replace(idx)
    }

    /// Removes and returns the occupant of slot `j`.
    pub fn take(&mut self, j: usize) -> Option<ConstituentIndex> {
        self.forget_commit(j);
        self.slots[j].take()
    }

    /// `DropIndex`: removes the occupant of slot `j` and reclaims its
    /// space.
    pub fn drop_index(&mut self, vol: &mut Volume, j: usize) -> IndexResult<()> {
        self.forget_commit(j);
        if let Some(idx) = self.slots[j].take() {
            idx.release(vol)?;
        }
        Ok(())
    }

    /// Iterates the live constituents with their slot numbers.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &ConstituentIndex)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(j, s)| s.as_ref().map(|idx| (j, idx)))
    }

    /// Slot of the constituent whose time-set contains `day`.
    pub fn slot_containing(&self, day: Day) -> Option<usize> {
        self.iter()
            .find(|(_, idx)| idx.days().contains(&day))
            .map(|(j, _)| j)
    }

    /// `TimedIndexProbe(Θ, T1, T2, s)`.
    pub fn timed_index_probe(
        &self,
        vol: &mut Volume,
        value: &SearchValue,
        range: TimeRange,
    ) -> IndexResult<QueryResult> {
        read_slots(self.iter(), range, |idx| idx.probe_in(vol, value, range))
            .map(QueryResult::from_slots)
    }

    /// `IndexProbe(Θ, s)`: probe with an unbounded range.
    pub fn index_probe(&self, vol: &mut Volume, value: &SearchValue) -> IndexResult<QueryResult> {
        self.timed_index_probe(vol, value, TimeRange::all())
    }

    /// Batched `TimedIndexProbe`: answers every value in one
    /// elevator-ordered device sweep.
    ///
    /// Directory probes are grouped per constituent (the directories
    /// live in memory, so this costs no I/O), then *all* hit buckets
    /// across all values and constituents are submitted to the
    /// [`IoScheduler`] as one batch: sorted by block address, adjacent
    /// buckets merged into single transfers, shared blocks read once.
    /// Answers are byte-identical to calling
    /// [`WaveIndex::timed_index_probe`] per value — same entries, same
    /// order, same `indexes_accessed` — only the device schedule (and
    /// therefore the simulated cost) differs.
    pub fn query_batch(
        &self,
        vol: &mut Volume,
        values: &[SearchValue],
        range: TimeRange,
    ) -> IndexResult<Vec<QueryResult>> {
        let mut per_value = vec![Vec::new(); values.len()];
        // Every value pays the same `indexes_accessed` as a solo probe
        // would: the count reflects which constituents intersect the
        // range, not which buckets hit — a filter skip still counts as
        // an access, it just costs no I/O.
        let mut accessed = 0;
        read_slots_batched(
            vol,
            self.iter(),
            values,
            range,
            |vol, requests| Ok(IoScheduler::read_batch(vol, requests)?),
            |_, answers| {
                accessed += 1;
                append_per_value(&mut per_value, answers);
            },
        )?;
        Ok(per_value
            .into_iter()
            .map(|entries| QueryResult {
                entries,
                indexes_accessed: accessed,
            })
            .collect())
    }

    /// `TimedSegmentScan(Θ, T1, T2)`.
    pub fn timed_segment_scan(
        &self,
        vol: &mut Volume,
        range: TimeRange,
    ) -> IndexResult<QueryResult> {
        read_slots(self.iter(), range, |idx| idx.scan_in(vol, range)).map(QueryResult::from_slots)
    }

    /// `SegmentScan(Θ)`: scan with an unbounded range.
    pub fn segment_scan(&self, vol: &mut Volume) -> IndexResult<QueryResult> {
        self.timed_segment_scan(vol, TimeRange::all())
    }

    /// Union of the constituents' time-sets.
    pub fn covered_days(&self) -> BTreeSet<Day> {
        let mut days = BTreeSet::new();
        for (_, idx) in self.iter() {
            days.extend(idx.days().iter().copied());
        }
        days
    }

    /// The paper's *length* measure: total days indexed across
    /// constituents (Section 3.3 / Appendix B).
    pub fn length(&self) -> usize {
        self.iter().map(|(_, idx)| idx.len_days()).sum()
    }

    /// Total blocks occupied by the constituents.
    pub fn blocks(&self) -> u64 {
        self.iter().map(|(_, idx)| idx.blocks()).sum()
    }

    /// Total live entries across constituents.
    pub fn entry_count(&self) -> u64 {
        self.iter().map(|(_, idx)| idx.entry_count()).sum()
    }

    /// Checks that the constituents' time-sets are pairwise disjoint
    /// (a day indexed twice would duplicate query results).
    pub fn check_disjoint(&self) -> IndexResult<()> {
        let mut seen: BTreeSet<Day> = BTreeSet::new();
        for (j, idx) in self.iter() {
            for day in idx.days() {
                if !seen.insert(*day) {
                    return Err(IndexError::Corrupt(format!(
                        "day {day} appears in more than one constituent (slot {j})"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Releases every constituent's storage.
    pub fn release_all(&mut self, vol: &mut Volume) -> IndexResult<()> {
        for j in 0..self.slots.len() {
            self.forget_commit(j);
        }
        for slot in &mut self.slots {
            if let Some(idx) = slot.take() {
                idx.release(vol)?;
            }
        }
        Ok(())
    }

    /// Clears slot `j`'s commit memo: its contents may be about to
    /// change.
    fn forget_commit(&mut self, j: usize) {
        let memo = self
            .committed
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(m) = memo.get_mut(j) {
            *m = None;
        }
    }

    /// A copy of the per-slot commit memo (see
    /// [`crate::persist::commit_wave`]). Every update of the memo is a
    /// single assignment, so even a poisoned lock holds a whole one.
    pub(crate) fn committed_slots(&self) -> Vec<Option<CommittedSlot>> {
        self.committed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Replaces the commit memo after a manifest flip succeeded.
    pub(crate) fn set_committed_slots(&self, memo: Vec<Option<CommittedSlot>>) {
        *self
            .committed
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = memo;
    }

    /// Labels and time-sets of the live constituents, for transition
    /// logs and the Tables 1–7 golden tests.
    pub fn snapshot(&self) -> Vec<(String, Vec<Day>)> {
        self.iter()
            .map(|(_, idx)| {
                (
                    idx.label().to_string(),
                    idx.days().iter().copied().collect(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use crate::record::{DayBatch, Record, RecordId};

    fn batch(day: u32, words: &[&str]) -> DayBatch {
        DayBatch::new(
            Day(day),
            vec![Record::with_values(
                RecordId(day as u64),
                words.iter().map(|w| SearchValue::from(*w)),
            )],
        )
    }

    fn two_slot_wave(vol: &mut Volume) -> WaveIndex {
        let mut wave = WaveIndex::with_slots(2);
        let b1 = batch(1, &["war"]);
        let b2 = batch(2, &["war", "tea"]);
        let b3 = batch(3, &["tea"]);
        let b4 = batch(4, &["war"]);
        wave.install(
            0,
            ConstituentIndex::build_packed("I1", IndexConfig::default(), vol, &[&b1, &b2]).unwrap(),
        );
        wave.install(
            1,
            ConstituentIndex::build_packed("I2", IndexConfig::default(), vol, &[&b3, &b4]).unwrap(),
        );
        wave
    }

    #[test]
    fn probe_spans_constituents() {
        let mut vol = Volume::default();
        let wave = two_slot_wave(&mut vol);
        let r = wave
            .index_probe(&mut vol, &SearchValue::from("war"))
            .unwrap();
        assert_eq!(r.entries.len(), 3);
        assert_eq!(r.indexes_accessed, 2);
    }

    #[test]
    fn timed_probe_skips_irrelevant_constituents() {
        let mut vol = Volume::default();
        let wave = two_slot_wave(&mut vol);
        let r = wave
            .timed_index_probe(
                &mut vol,
                &SearchValue::from("war"),
                TimeRange::between(Day(3), Day(4)),
            )
            .unwrap();
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.indexes_accessed, 1, "I1 covers only days 1-2");
    }

    #[test]
    fn segment_scan_counts_and_filters() {
        let mut vol = Volume::default();
        let wave = two_slot_wave(&mut vol);
        let all = wave.segment_scan(&mut vol).unwrap();
        assert_eq!(all.entries.len(), 5);
        let timed = wave
            .timed_segment_scan(&mut vol, TimeRange::between(Day(2), Day(3)))
            .unwrap();
        assert_eq!(timed.entries.len(), 3);
        assert_eq!(timed.indexes_accessed, 2);
    }

    #[test]
    fn coverage_and_length() {
        let mut vol = Volume::default();
        let mut wave = two_slot_wave(&mut vol);
        assert_eq!(wave.length(), 4);
        let covered: Vec<u32> = wave.covered_days().iter().map(|d| d.0).collect();
        assert_eq!(covered, vec![1, 2, 3, 4]);
        assert_eq!(wave.slot_containing(Day(3)), Some(1));
        assert_eq!(wave.slot_containing(Day(9)), None);
        wave.check_disjoint().unwrap();
        wave.release_all(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn overlapping_constituents_detected() {
        let mut vol = Volume::default();
        let mut wave = WaveIndex::with_slots(2);
        let b = batch(1, &["x"]);
        wave.install(
            0,
            ConstituentIndex::build_packed("I1", IndexConfig::default(), &mut vol, &[&b]).unwrap(),
        );
        wave.install(
            1,
            ConstituentIndex::build_packed("I2", IndexConfig::default(), &mut vol, &[&b]).unwrap(),
        );
        assert!(wave.check_disjoint().is_err());
        wave.release_all(&mut vol).unwrap();
    }

    #[test]
    fn drop_index_reclaims_space() {
        let mut vol = Volume::default();
        let mut wave = two_slot_wave(&mut vol);
        let before = vol.live_blocks();
        wave.drop_index(&mut vol, 0).unwrap();
        assert!(vol.live_blocks() < before);
        assert!(wave.slot(0).is_none());
        assert_eq!(wave.iter().count(), 1);
        wave.release_all(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn query_batch_is_byte_identical_and_never_costlier() {
        // Twin volumes so the per-value path and the batched path
        // start from identical head positions and cache states.
        let mut vol_solo = Volume::default();
        let mut vol_batch = Volume::default();
        let wave_solo = two_slot_wave(&mut vol_solo);
        let wave_batch = two_slot_wave(&mut vol_batch);
        let values = [
            SearchValue::from("war"),
            SearchValue::from("tea"),
            SearchValue::from("absent"),
            SearchValue::from("war"), // duplicates are legal
        ];
        for range in [
            TimeRange::all(),
            TimeRange::between(Day(2), Day(3)),
            TimeRange::between(Day(9), Day(9)),
        ] {
            let solo_before = vol_solo.stats();
            let solo: Vec<QueryResult> = values
                .iter()
                .map(|v| {
                    wave_solo
                        .timed_index_probe(&mut vol_solo, v, range)
                        .unwrap()
                })
                .collect();
            let solo_delta = vol_solo.stats().since(&solo_before);

            let batch_before = vol_batch.stats();
            let batch = wave_batch
                .query_batch(&mut vol_batch, &values, range)
                .unwrap();
            let batch_delta = vol_batch.stats().since(&batch_before);

            assert_eq!(batch.len(), solo.len());
            for (b, s) in batch.iter().zip(&solo) {
                assert_eq!(b.entries, s.entries, "range {range:?}");
                assert_eq!(b.indexes_accessed, s.indexes_accessed);
            }
            assert!(
                batch_delta.sim_seconds <= solo_delta.sim_seconds + 1e-12,
                "range {range:?}: batch {} vs solo {}",
                batch_delta.sim_seconds,
                solo_delta.sim_seconds
            );
        }
    }

    #[test]
    fn batch_loop_refuses_a_sweep_short_of_buffers() {
        let mut vol = Volume::default();
        let mut wave = two_slot_wave(&mut vol);
        let values = [SearchValue::from("war")];
        let got = read_slots_batched(
            &mut vol,
            wave.iter(),
            &values,
            TimeRange::all(),
            |_, _| Ok(Vec::new()),
            |_, _| {},
        );
        assert!(matches!(got, Err(IndexError::Corrupt(_))), "{got:?}");
        wave.release_all(&mut vol).unwrap();
    }

    #[test]
    fn query_batch_of_no_values_is_empty() {
        let mut vol = Volume::default();
        let wave = two_slot_wave(&mut vol);
        assert!(wave
            .query_batch(&mut vol, &[], TimeRange::all())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn empty_wave_queries_are_empty() {
        let mut vol = Volume::default();
        let wave = WaveIndex::with_slots(3);
        let r = wave.index_probe(&mut vol, &SearchValue::from("x")).unwrap();
        assert!(r.entries.is_empty());
        assert_eq!(r.indexes_accessed, 0);
        assert_eq!(wave.length(), 0);
        assert_eq!(wave.blocks(), 0);
    }
}
