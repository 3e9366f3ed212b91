//! A *cell*: one scheme × technique running day by day on its own
//! volume, what `Driver` does, plus the queries, commits and
//! recoveries the benchmark times around it.
//!
//! The cell calls the scheme directly instead of going through
//! `Driver`: `Driver::step` with an empty `QueryLoad` is exactly
//! `WaveScheme::transition` plus bookkeeping, but `Driver` offers no
//! scan or batch on its wave and no way to borrow the wave and the
//! volume together. Every answer is checked against
//! `wave_index::verify::Oracle` outside the timed region.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

use wave_index::entry::{decode_entries, Entry, ENTRY_BYTES};
use wave_index::index::ProbeOutcome;
use wave_index::persist::{commit_wave, index_from_bytes, index_to_bytes, read_manifest};
use wave_index::prelude::*;
use wave_index::recovery::{fsck, recover};
use wave_index::verify::Oracle;
use wave_index::IndexResult;
use wave_obs::Obs;
use wave_storage::{FileStore, IndexStore, IoScheduler, ReadRequest, RetryPolicy};

use crate::record::Recorder;
use crate::store::TimedStore;
use crate::trace::Tracer;

/// Window size `W` of every workload, in days.
pub const WINDOW: u32 = 30;

/// What a cell runs.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    pub kind: SchemeKind,
    pub tech: UpdateTechnique,
    pub fan: usize,
    pub ingest: bool,
    pub cache_blocks: usize,
}

impl CellSpec {
    pub fn index_config(&self) -> IndexConfig {
        IndexConfig {
            ingest: if self.ingest {
                IngestConfig::buffered()
            } else {
                IngestConfig::default()
            },
            ..Default::default()
        }
    }
}

/// Metric-name form of a scheme (names allow only `[A-Za-z0-9_.-]`).
pub fn scheme_key(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::Del => "del",
        SchemeKind::Reindex => "reindex",
        SchemeKind::ReindexPlus => "reindex_plus",
        SchemeKind::ReindexPlusPlus => "reindex_pp",
        SchemeKind::WataStar => "wata_star",
        SchemeKind::RataStar => "rata_star",
    }
}

/// Metric-name form of an update technique.
pub fn tech_key(tech: UpdateTechnique) -> &'static str {
    match tech {
        UpdateTechnique::InPlace => "in_place",
        UpdateTechnique::SimpleShadow => "simple_shadow",
        UpdateTechnique::PackedShadow => "packed_shadow",
    }
}

/// Key of a cached whole-range oracle answer: value and window.
type AnswerKey = (SearchValue, Day, Day);

/// The day-by-day record stream every cell of a workload shares, and
/// the oracle that mirrors it.
pub struct Stream {
    oracle: Oracle,
    /// Entries per day still inside the oracle's horizon.
    day_entries: BTreeMap<Day, u64>,
    /// Whole-range probe answers since the last change to the stream:
    /// the cells of a workload ask the same probes of the same data.
    answers: RefCell<HashMap<AnswerKey, Vec<Entry>>>,
}

impl Stream {
    pub fn new() -> Self {
        Stream {
            oracle: Oracle::new(),
            day_entries: BTreeMap::new(),
            answers: RefCell::new(HashMap::new()),
        }
    }

    pub fn insert(&mut self, batch: &DayBatch) {
        self.oracle.insert(batch);
        self.day_entries
            .insert(batch.day, batch.entry_count() as u64);
        self.answers.get_mut().clear();
    }

    pub fn prune(&mut self, newest: Day) {
        let horizon = Day(newest.0.saturating_sub(3 * WINDOW));
        self.oracle.prune_before(horizon);
        self.day_entries = self.day_entries.split_off(&horizon);
        self.answers.get_mut().clear();
    }

    /// Whether `got` holds exactly the oracle's entries for a probe of
    /// `value` over `range` on a wave covering `window`, in any order.
    pub fn probe_agrees(
        &self,
        value: &SearchValue,
        range: TimeRange,
        window: (Day, Day),
        mut got: Vec<Entry>,
    ) -> bool {
        // Each slot's answer is already in entry order, so this sort
        // only merges runs.
        got.sort();
        if range != TimeRange::all() {
            return got == self.oracle.probe(value, range, window);
        }
        let key = (value.clone(), window.0, window.1);
        let mut answers = self.answers.borrow_mut();
        let expect = answers
            .entry(key)
            .or_insert_with(|| self.oracle.probe(value, range, window));
        &got == expect
    }

    /// Whether `got` holds exactly the oracle's entries of a scan.
    pub fn scan_agrees(&self, range: TimeRange, window: (Day, Day), mut got: Vec<Entry>) -> bool {
        got.sort();
        got == self.oracle.scan(range, window)
    }

    /// User bytes of the hard window ending at `newest`.
    pub fn window_bytes(&self, newest: Day) -> u64 {
        let lo = Day(newest.0.saturating_sub(WINDOW - 1).max(1));
        self.day_entries
            .range(lo..=newest)
            .map(|(_, n)| n)
            .sum::<u64>()
            * ENTRY_BYTES as u64
    }
}

pub struct Cell {
    pub spec: CellSpec,
    pub name: String,
    pub scheme: Box<dyn WaveScheme>,
    pub vol: Volume,
    pub archive: DayArchive,
    pub store: TimedStore,
    store_dir: PathBuf,
    /// Oldest and newest covered day, refreshed after each transition.
    window: (Day, Day),
    pub transitions: u64,
}

/// The answers a cell gave on one day, kept for the durability check.
#[derive(Default)]
pub struct DayAnswers {
    pub probes: Vec<(SearchValue, TimeRange, Vec<Entry>)>,
}

impl Cell {
    /// Builds the cell and indexes days `1..=W` (`Start`). Not timed
    /// here: the caller times whole set-ups.
    pub fn start(
        spec: CellSpec,
        obs: &Obs,
        first: &[DayBatch],
        store_dir: PathBuf,
        traced: bool,
    ) -> IndexResult<Cell> {
        let cfg = SchemeConfig::new(WINDOW, spec.fan)
            .with_technique(spec.tech)
            .with_index(spec.index_config());
        let mut scheme = spec.kind.build(cfg)?;
        let mut vol = Volume::new(DiskConfig::default().with_cache(spec.cache_blocks));
        vol.attach_obs(obs.clone());
        let mut archive = DayArchive::new();
        for b in first {
            archive.insert(b.clone());
        }
        scheme.start(&mut vol, &archive)?;
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = TimedStore::new(FileStore::open(&store_dir)?, traced);
        let mut cell = Cell {
            name: format!("{}/{}", spec.kind.name(), tech_key(spec.tech)),
            spec,
            scheme,
            vol,
            archive,
            store,
            store_dir,
            window: (Day(1), Day(WINDOW)),
            transitions: 0,
        };
        cell.refresh_window(Day(WINDOW));
        Ok(cell)
    }

    /// Re-reads the covered days. Hard windows must cover exactly
    /// `(t-W, t]`, soft windows a contiguous superset ending at `t`.
    fn refresh_window(&mut self, t: Day) -> bool {
        let days = self.scheme.wave().covered_days();
        let lo = days.first().copied().unwrap_or(Day(0));
        let hi = days.last().copied().unwrap_or(Day(0));
        self.window = (lo, hi);
        let contiguous = days.len() as u32 == hi.0 + 1 - lo.0;
        let oldest = Day(t.0 + 1 - WINDOW);
        let hard = self.scheme.window_kind() == WindowKind::Hard;
        contiguous && hi == t && (lo == oldest || (!hard && lo < oldest))
    }

    /// One timed day transition on `batch`: what `Driver::step` does
    /// with an empty `QueryLoad`.
    pub fn transition(
        &mut self,
        batch: DayBatch,
        rec: &mut Recorder,
        tracer: &Tracer,
        steady: bool,
    ) {
        let day = batch.day;
        let entries = batch.entry_count() as u64;
        self.archive.insert(batch);
        let before = self.vol.stats();
        let allocs_before = self.vol.obs().counter("alloc.allocs").get();
        let t = Instant::now();
        let result = {
            let _s = tracer.span("schemes.transition");
            self.scheme.transition(&mut self.vol, &self.archive, day)
        };
        let horizon = self.scheme.oldest_needed_day(day.plus(1));
        self.archive.prune_before(horizon);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        rec.attempted += 1;
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                rec.fail(format!("{} day {}: transition: {e}", self.name, day.0));
                return;
            }
        };
        self.transitions += 1;
        if !self.refresh_window(day) {
            rec.fail(format!(
                "{} day {}: window {:?}",
                self.name, day.0, self.window
            ));
        }
        let delta = self.vol.stats().since(&before);
        let sim = r.precomp.sim_seconds + r.transition.sim_seconds + r.post.sim_seconds;
        rec.day_wall_ms.push(wall_ms);
        rec.user_bytes_ingested += entries * ENTRY_BYTES as u64;
        rec.blocks_written += delta.blocks_written;
        rec.day_seeks += delta.seeks;
        rec.day_blocks_written += delta.blocks_written;
        rec.day_allocs += self.vol.obs().counter("alloc.allocs").get() - allocs_before;
        let key = scheme_key(self.spec.kind);
        rec.per_scheme_wall.entry(key).or_default().push(wall_ms);
        rec.per_tech_wall
            .entry(tech_key(self.spec.tech))
            .or_default()
            .push(wall_ms);
        if steady {
            rec.day_sim_s.push(sim);
            rec.precomp_sim_s.push(r.precomp.sim_seconds);
            rec.transition_sim_s.push(r.transition.sim_seconds);
            rec.post_sim_s.push(r.post.sim_seconds);
            rec.per_cell_sim
                .entry((key, tech_key(self.spec.tech)))
                .or_default()
                .push(sim);
        }
        if self.spec.ingest {
            let pending: u64 = self
                .scheme
                .wave()
                .iter()
                .map(|(_, idx)| idx.ingest().pending_entries())
                .sum();
            rec.pending_entries.push(pending as f64);
        }
    }

    /// One `TimedIndexProbe`, timed and checked. Returns the answer
    /// when `keep` is set.
    pub fn probe(
        &mut self,
        value: &SearchValue,
        range: TimeRange,
        stream: &Stream,
        rec: &mut Recorder,
        tracer: &Tracer,
        keep: bool,
    ) -> Option<Vec<Entry>> {
        rec.attempted += 1;
        let before = self.vol.stats();
        let t = Instant::now();
        let result = probe_slots(self.scheme.wave(), &mut self.vol, value, range, tracer);
        let wall_us = t.elapsed().as_secs_f64() * 1e6;
        let delta = self.vol.stats().since(&before);
        let got = match result {
            Ok(q) => q,
            Err(e) => {
                rec.fail(format!("{}: probe {value}: {e}", self.name));
                return None;
            }
        };
        rec.probe_wall_us.push(wall_us);
        rec.probe_sim_ms.push(delta.sim_seconds * 1e3);
        rec.probe_seeks += delta.seeks;
        rec.probe_blocks_read += delta.blocks_read;
        rec.indexes_accessed += got.indexes_accessed as u64;
        if tracer.enabled() {
            replay_lookups(
                self.scheme.wave(),
                value,
                range,
                got.entries.len(),
                rec,
                tracer,
            );
        }
        let kept = keep.then(|| got.entries.clone());
        if !stream.probe_agrees(value, range, self.window, got.entries) {
            rec.fail(format!(
                "{}: probe {value} {range:?} disagrees with the oracle",
                self.name
            ));
        }
        kept
    }

    /// Answers one probe without timing it (the durability check's
    /// reference answers); still checked against the oracle.
    pub fn answer(
        &mut self,
        value: &SearchValue,
        range: TimeRange,
        stream: &Stream,
        rec: &mut Recorder,
    ) -> Option<Vec<Entry>> {
        let got = self
            .scheme
            .wave()
            .timed_index_probe(&mut self.vol, value, range);
        match got {
            Ok(q) => {
                if !stream.probe_agrees(value, range, self.window, q.entries.clone()) {
                    rec.fail(format!(
                        "{}: probe {value} disagrees with the oracle",
                        self.name
                    ));
                }
                Some(q.entries)
            }
            Err(e) => {
                rec.fail(format!("{}: probe: {e}", self.name));
                None
            }
        }
    }

    /// One batched probe of `values` over the whole window.
    pub fn batch(
        &mut self,
        values: &[SearchValue],
        stream: &Stream,
        rec: &mut Recorder,
        tracer: &Tracer,
    ) {
        rec.attempted += 1;
        let range = TimeRange::all();
        let t = Instant::now();
        let result = if tracer.enabled() {
            // `WaveIndex::query_batch`'s phases through their public
            // entry points, each in its own span: same calls, same
            // I/O, same answers.
            let _s = tracer.span("wave.query_batch");
            batch_phases(self.scheme.wave(), &mut self.vol, values, range, tracer)
        } else {
            self.scheme
                .wave()
                .query_batch(&mut self.vol, values, range)
                .map(|r| r.into_iter().map(|q| q.entries).collect())
        };
        let wall_us = t.elapsed().as_secs_f64() * 1e6;
        match result {
            Ok(per_value) => {
                rec.batch_wall_us.push(wall_us);
                for (value, got) in values.iter().zip(per_value) {
                    if !stream.probe_agrees(value, range, self.window, got) {
                        rec.fail(format!("{}: batch value {value} disagrees", self.name));
                    }
                }
            }
            Err(e) => rec.fail(format!("{}: batch: {e}", self.name)),
        }
    }

    /// One scan of the newest day, timed and checked.
    pub fn scan_newest(&mut self, stream: &Stream, rec: &mut Recorder, tracer: &Tracer) {
        rec.attempted += 1;
        let range = TimeRange::between(self.window.1, self.window.1);
        let t = Instant::now();
        let result = {
            let _s = tracer.span("wave.scan");
            self.scheme.wave().timed_segment_scan(&mut self.vol, range)
        };
        let wall_us = t.elapsed().as_secs_f64() * 1e6;
        match result {
            Ok(q) => {
                rec.scan_wall_us.push(wall_us);
                if !stream.scan_agrees(range, self.window, q.entries) {
                    rec.fail(format!("{}: scan disagrees with the oracle", self.name));
                }
            }
            Err(e) => rec.fail(format!("{}: scan: {e}", self.name)),
        }
    }

    /// `Driver::checkpoint` (`commit_wave`) to the cell's `FileStore`,
    /// timed; then `recover` from a freshly re-opened store into a
    /// fresh volume, timed; then the recovered wave must answer the
    /// day's probes byte-identically and release every block.
    pub fn commit_and_recover(
        &mut self,
        answers: &DayAnswers,
        rec: &mut Recorder,
        tracer: &Tracer,
        recover_too: bool,
    ) {
        rec.attempted += 1;
        let before = self.vol.stats();
        let store_busy = self.store.busy_ms;
        let bytes = self.store.put_bytes;
        let logs = self.store.ingest_log_bytes;
        let puts = self.store.puts;
        let t = Instant::now();
        let result = {
            let _s = tracer.span("persist.commit_wave");
            commit_wave(
                self.scheme.wave(),
                &mut self.vol,
                &mut self.store,
                &RetryPolicy::default(),
            )
        };
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                rec.fail(format!("{}: commit: {e}", self.name));
                return;
            }
        };
        rec.commit_wall_ms.push(wall_ms);
        rec.blocks_written += self.vol.stats().since(&before).blocks_written;
        rec.store_bytes += self.store.put_bytes - bytes;
        rec.commit_files.push(report.files_written as f64);
        rec.commit_puts.push((self.store.puts - puts) as f64);
        rec.commit_store_bytes
            .push((self.store.put_bytes - bytes) as f64);
        rec.commit_log_bytes
            .push((self.store.ingest_log_bytes - logs) as f64);
        if tracer.enabled() {
            let in_store = self.store.busy_ms - store_busy;
            rec.commit_store_ms.push(in_store);
            rec.commit_self_ms.push(wall_ms - in_store);
        }
        if recover_too {
            self.recover_and_check(answers, rec, tracer);
        }
    }

    fn recover_and_check(&mut self, answers: &DayAnswers, rec: &mut Recorder, tracer: &Tracer) {
        rec.attempted += 1;
        let cfg = self.spec.index_config();
        let t = Instant::now();
        let opened = {
            let _s = tracer.span("recovery.recover");
            FileStore::open(&self.store_dir)
                .map_err(Into::into)
                .and_then(|store| {
                    let mut store = TimedStore::new(store, tracer.enabled());
                    let mut vol =
                        Volume::new(DiskConfig::default().with_cache(self.spec.cache_blocks));
                    vol.attach_obs(rec.recover_obs.clone());
                    recover(cfg, &mut vol, &mut store, Some(&self.archive))
                        .map(|(loaded, report)| (loaded, report, vol, store))
                })
        };
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let (loaded, report, mut vol, mut store) = match opened {
            Ok(x) => x,
            Err(e) => {
                rec.fail(format!("{}: recover: {e}", self.name));
                return;
            }
        };
        rec.recover_wall_ms.push(wall_ms);
        rec.recover_get_ms.extend(&store.get_ms);
        let Some(mut loaded) = loaded else {
            rec.fail(format!("{}: recover found no committed wave", self.name));
            return;
        };
        if !report.rebuilt.is_empty()
            || !report.dropped_slots.is_empty()
            || !report.quarantined.is_empty()
        {
            rec.fail(format!(
                "{}: recover repaired a clean store: {report:?}",
                self.name
            ));
        }
        for (value, range, expect) in &answers.probes {
            match loaded.wave.timed_index_probe(&mut vol, value, *range) {
                Ok(q) if &q.entries == expect => {}
                Ok(_) => rec.fail(format!(
                    "{}: recovered wave answers {value} differently",
                    self.name
                )),
                Err(e) => rec.fail(format!("{}: recovered probe: {e}", self.name)),
            }
        }
        if tracer.enabled() {
            replay_persistence(&loaded.wave, &mut vol, &mut store, cfg, rec, tracer);
        }
        if let Err(e) = loaded.wave.release_all(&mut vol) {
            rec.fail(format!("{}: releasing the recovered wave: {e}", self.name));
        }
        if vol.live_blocks() != 0 {
            rec.fail(format!(
                "{}: recovered wave leaked {} blocks",
                self.name,
                vol.live_blocks()
            ));
        }
    }

    /// `Driver::finish`: release everything, no block may leak.
    pub fn finish(mut self, rec: &mut Recorder) {
        rec.attempted += 1;
        let result = self.scheme.release(&mut self.vol);
        if let Err(e) = result {
            rec.fail(format!("{}: release: {e}", self.name));
        } else if self.vol.live_blocks() != 0 {
            rec.fail(format!(
                "{}: leaked {} blocks",
                self.name,
                self.vol.live_blocks()
            ));
        }
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }

    /// The first commit, part of set-up (not a timed commit).
    pub fn first_commit(&mut self) -> IndexResult<()> {
        commit_wave(
            self.scheme.wave(),
            &mut self.vol,
            &mut self.store,
            &RetryPolicy::default(),
        )
        .map(|_| ())
    }

    /// Blocks the cell's wave holds, and the volume's peak.
    pub fn blocks(&self) -> (u64, u64) {
        (self.scheme.wave().blocks(), self.vol.peak_blocks())
    }
}

/// `WaveIndex::timed_index_probe`. Traced, it runs slot by slot with
/// a span per constituent (`ConstituentIndex::probe_in`, the same
/// calls the wave makes).
pub fn probe_slots(
    wave: &WaveIndex,
    vol: &mut Volume,
    value: &SearchValue,
    range: TimeRange,
    tracer: &Tracer,
) -> IndexResult<wave_index::QueryResult> {
    if !tracer.enabled() {
        return wave.timed_index_probe(vol, value, range);
    }
    let _s = tracer.span("wave.probe");
    let mut entries = Vec::new();
    let mut accessed = 0;
    for (_, idx) in wave.iter() {
        let Some((lo, hi)) = idx.day_span() else {
            continue;
        };
        if !range.intersects_span(lo, hi) {
            continue;
        }
        accessed += 1;
        let _p = tracer.span("index.probe_in");
        entries.extend(idx.probe_in(vol, value, range)?);
    }
    Ok(wave_index::QueryResult {
        entries,
        indexes_accessed: accessed,
    })
}

/// Directory lookups replayed against the recorder's scratch volume
/// (so the measured registry stays untouched), plus the bucket sizes
/// behind the useful-entry ratio.
pub fn replay_lookups(
    wave: &WaveIndex,
    value: &SearchValue,
    range: TimeRange,
    returned: usize,
    rec: &mut Recorder,
    tracer: &Tracer,
) {
    let mut bucket_entries = 0u64;
    for (_, idx) in wave.iter() {
        let Some((lo, hi)) = idx.day_span() else {
            continue;
        };
        if !range.intersects_span(lo, hi) {
            continue;
        }
        let bucket = {
            let _s = tracer.span("directory.bucket_for");
            idx.bucket_for(&rec.scratch, value)
        };
        bucket_entries += bucket.map_or(0, |b| b.count as u64);
        bucket_entries += idx.ingest().adds_for(value).map_or(0, |a| a.len() as u64);
    }
    rec.useful_entries += returned as u64;
    rec.bucket_entries += bucket_entries;
}

/// The prune → scheduled read → overlay loop of
/// `WaveIndex::query_batch`, with a span per phase call.
pub fn batch_phases(
    wave: &WaveIndex,
    vol: &mut Volume,
    values: &[SearchValue],
    range: TimeRange,
    tracer: &Tracer,
) -> IndexResult<Vec<Vec<Entry>>> {
    /// A pruned probe's answer: in memory, or the next scheduled read
    /// of `count` entries.
    enum Hit {
        Covered(Vec<Entry>),
        Read(u32),
    }
    let mut out: Vec<Vec<Entry>> = vec![Vec::new(); values.len()];
    let mut requests = Vec::new();
    let mut hits: Vec<(usize, &wave_index::ConstituentIndex, Hit)> = Vec::new();
    for (_, idx) in wave.iter() {
        let Some((lo, hi)) = idx.day_span() else {
            continue;
        };
        if !range.intersects_span(lo, hi) {
            continue;
        }
        for (vi, value) in values.iter().enumerate() {
            let outcome = {
                let _p = tracer.span("filter.prune_probe");
                idx.prune_probe(vol, value)
            };
            match outcome {
                ProbeOutcome::Skipped | ProbeOutcome::Absent => {}
                ProbeOutcome::Covered(entries) => hits.push((vi, idx, Hit::Covered(entries))),
                ProbeOutcome::Bucket(b) => {
                    if b.count == 0 {
                        continue;
                    }
                    requests.push(ReadRequest::new(
                        b.extent,
                        b.offset,
                        b.count as usize * ENTRY_BYTES,
                    ));
                    hits.push((vi, idx, Hit::Read(b.count)));
                }
            }
        }
    }
    let buffers = if requests.is_empty() {
        Vec::new()
    } else {
        let _r = tracer.span("sched.read_batch");
        IoScheduler::read_batch(vol, &requests)?
    };
    let mut buffers = buffers.iter();
    for (vi, idx, hit) in hits {
        let mut entries = match hit {
            Hit::Covered(entries) => entries,
            Hit::Read(count) => {
                let raw =
                    decode_entries(buffers.next().expect("one buffer per read"), count as usize);
                let _o = tracer.span("ingest.overlay_pending");
                idx.overlay_pending(&values[vi], raw)
            }
        };
        entries.retain(|e| range.contains(e.day));
        out[vi].extend(entries);
    }
    Ok(out)
}

/// Encoding, decoding and fsck replayed on a recovered copy, so the
/// measured cell's volume and counters stay untouched.
fn replay_persistence(
    wave: &WaveIndex,
    vol: &mut Volume,
    store: &mut TimedStore,
    cfg: IndexConfig,
    rec: &mut Recorder,
    tracer: &Tracer,
) {
    let t = Instant::now();
    {
        let _s = tracer.span("persist.index_to_bytes");
        for (_, idx) in wave.iter() {
            if index_to_bytes(idx, vol).is_err() {
                rec.fail("replay: index_to_bytes failed".into());
            }
        }
    }
    rec.encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let scratch_obs = Obs::noop();
    let t = Instant::now();
    let report = {
        let _s = tracer.span("recovery.fsck");
        fsck(store, &scratch_obs)
    };
    rec.fsck_ms.push(t.elapsed().as_secs_f64() * 1e3);
    if !report.is_ok_and(|r| r.is_clean()) {
        rec.fail("replay: fsck found the committed store unclean".into());
    }
    let Ok(Some(manifest)) = read_manifest(store) else {
        rec.fail("replay: no manifest".into());
        return;
    };
    for entry in &manifest.entries {
        let Ok(Some(bytes)) = store.get(&entry.file) else {
            rec.fail(format!("replay: image {} missing", entry.file));
            continue;
        };
        let mut scratch = Volume::default();
        let t = Instant::now();
        let decoded = {
            let _s = tracer.span("recovery.index_from_bytes");
            index_from_bytes(cfg, &mut scratch, &bytes)
        };
        rec.decode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match decoded {
            Ok(idx) => {
                let _ = idx.release(&mut scratch);
            }
            Err(e) => rec.fail(format!("replay: decoding {}: {e}", entry.file)),
        }
    }
}

/// `BuildIndex` of one day's batch on a scratch volume.
pub fn replay_build(batch: &DayBatch, cfg: IndexConfig, rec: &mut Recorder, tracer: &Tracer) {
    let mut scratch = Volume::default();
    let t = Instant::now();
    let built = {
        let _s = tracer.span("index.build_packed");
        wave_index::ConstituentIndex::build_packed("replay", cfg, &mut scratch, &[batch])
    };
    rec.build_packed_ms.push(t.elapsed().as_secs_f64() * 1e3);
    match built {
        Ok(idx) => {
            let _ = idx.release(&mut scratch);
        }
        Err(e) => rec.fail(format!("replay: build_packed: {e}")),
    }
}
