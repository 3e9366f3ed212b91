//! Query-correctness oracle.
//!
//! A naive, index-free mirror of the record stream: every query a wave
//! index answers can be checked against the oracle's plain
//! `BTreeMap`s. The driver runs it after each transition when
//! verification is enabled; property tests use it directly.

use std::collections::BTreeMap;

use crate::entry::Entry;
use crate::error::{IndexError, IndexResult};
use crate::query::TimeRange;
use crate::record::{Day, DayBatch, SearchValue};
use crate::schemes::{WaveScheme, WindowKind};
use wave_storage::Volume;

/// Reference implementation of the window's contents.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Per day, per value, the entries inserted.
    days: BTreeMap<Day, BTreeMap<SearchValue, Vec<Entry>>>,
}

impl Oracle {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a day's batch.
    pub fn insert(&mut self, batch: &DayBatch) {
        let day_map = self.days.entry(batch.day).or_default();
        for record in &batch.records {
            for (value, aux) in &record.values {
                day_map
                    .entry(value.clone())
                    .or_default()
                    .push(Entry::new(record.id, *aux, batch.day));
            }
        }
        // Ensure empty days are represented too.
        self.days.entry(batch.day).or_default();
    }

    /// Drops history strictly older than `day` (call with the soft
    /// window's oldest possibly-live day).
    pub fn prune_before(&mut self, day: Day) {
        self.days = self.days.split_off(&day);
    }

    /// Entries for `value` with insertion day in `range` and day in
    /// `window` (inclusive day interval), sorted.
    pub fn probe(&self, value: &SearchValue, range: TimeRange, window: (Day, Day)) -> Vec<Entry> {
        let mut out = Vec::new();
        for (day, values) in self.days.range(window.0..=window.1) {
            if !range.contains(*day) {
                continue;
            }
            if let Some(entries) = values.get(value) {
                out.extend_from_slice(entries);
            }
        }
        out.sort_unstable();
        out
    }

    /// All entries with insertion day in `range` and in `window`,
    /// sorted.
    pub fn scan(&self, range: TimeRange, window: (Day, Day)) -> Vec<Entry> {
        let mut out = Vec::new();
        for (day, values) in self.days.range(window.0..=window.1) {
            if !range.contains(*day) {
                continue;
            }
            for entries in values.values() {
                out.extend_from_slice(entries);
            }
        }
        out.sort_unstable();
        out
    }
}

/// Checks a scheme's wave index against the oracle.
///
/// * Window coverage: hard schemes cover exactly `(t−W, t]`; soft
///   schemes a superset of it (with nothing *newer* than `t`).
/// * Probe/scan results: for ranges inside the window, results must
///   match the oracle exactly — for both kinds (a soft window's extra
///   days are all older than the window, so an in-window time filter
///   hides them). Unbounded queries on soft windows must return a
///   superset of the window's entries and a subset of the retained
///   history.
pub fn verify_scheme(
    scheme: &dyn WaveScheme,
    vol: &mut Volume,
    oracle: &Oracle,
    probe_values: &[SearchValue],
) -> IndexResult<()> {
    let t = scheme.current_day().ok_or(IndexError::NotStarted)?;
    let w = scheme.config().window;
    let window = (Day(t.0 - w + 1), t);

    // Coverage.
    let covered = scheme.wave().covered_days();
    for d in window.0 .0..=window.1 .0 {
        if !covered.contains(&Day(d)) {
            return Err(IndexError::Corrupt(format!(
                "{}: window day d{d} not covered on {t}",
                scheme.name()
            )));
        }
    }
    match scheme.window_kind() {
        WindowKind::Hard => {
            if covered.len() != w as usize {
                return Err(IndexError::Corrupt(format!(
                    "{}: hard window covers {} days, want {w}",
                    scheme.name(),
                    covered.len()
                )));
            }
        }
        WindowKind::Soft => {
            if let Some(max) = covered.iter().next_back() {
                if *max > t {
                    return Err(IndexError::Corrupt(format!(
                        "{}: covers future day {max}",
                        scheme.name()
                    )));
                }
            }
        }
    }
    scheme.wave().check_disjoint()?;

    // In-window timed queries must be exact for both window kinds.
    let in_window = TimeRange::between(window.0, window.1);
    for value in probe_values {
        let mut got = scheme
            .wave()
            .timed_index_probe(vol, value, in_window)?
            .entries;
        got.sort_unstable();
        let want = oracle.probe(value, in_window, window);
        if got != want {
            return Err(IndexError::Corrupt(format!(
                "{}: timed probe for {value} returned {} entries, oracle says {}",
                scheme.name(),
                got.len(),
                want.len()
            )));
        }
        // Untimed probes: exact on hard windows, bounded on soft.
        let mut untimed = scheme.wave().index_probe(vol, value)?.entries;
        untimed.sort_unstable();
        match scheme.window_kind() {
            WindowKind::Hard => {
                if untimed != want {
                    return Err(IndexError::Corrupt(format!(
                        "{}: untimed probe for {value} diverges from window contents",
                        scheme.name()
                    )));
                }
            }
            WindowKind::Soft => {
                let history = oracle.probe(value, TimeRange::all(), (Day(0), t));
                if !is_subset(&want, &untimed) || !is_subset(&untimed, &history) {
                    return Err(IndexError::Corrupt(format!(
                        "{}: soft-window probe for {value} out of bounds",
                        scheme.name()
                    )));
                }
            }
        }
    }

    // A timed segment scan over the window must be exact.
    let mut got = scheme.wave().timed_segment_scan(vol, in_window)?.entries;
    got.sort_unstable();
    let want = oracle.scan(in_window, window);
    if got != want {
        return Err(IndexError::Corrupt(format!(
            "{}: timed segment scan returned {} entries, oracle says {}",
            scheme.name(),
            got.len(),
            want.len()
        )));
    }
    Ok(())
}

/// Whether sorted `a` is a multiset subset of sorted `b`.
fn is_subset(a: &[Entry], b: &[Entry]) -> bool {
    let mut it = b.iter();
    'outer: for x in a {
        for y in it.by_ref() {
            if y == x {
                continue 'outer;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, RecordId};
    use crate::schemes::{SchemeConfig, SchemeKind};

    fn batch(day: u32, words: &[(u64, &str)]) -> DayBatch {
        DayBatch::new(
            Day(day),
            words
                .iter()
                .map(|(id, w)| Record::with_values(RecordId(*id), [SearchValue::from(*w)]))
                .collect(),
        )
    }

    #[test]
    fn oracle_probe_and_scan() {
        let mut o = Oracle::new();
        o.insert(&batch(1, &[(1, "a"), (2, "b")]));
        o.insert(&batch(2, &[(3, "a")]));
        o.insert(&batch(3, &[(4, "c")]));
        let window = (Day(1), Day(3));
        assert_eq!(
            o.probe(&SearchValue::from("a"), TimeRange::all(), window)
                .len(),
            2
        );
        assert_eq!(
            o.probe(
                &SearchValue::from("a"),
                TimeRange::between(Day(2), Day(3)),
                window
            )
            .len(),
            1
        );
        assert_eq!(o.scan(TimeRange::all(), window).len(), 4);
        assert_eq!(o.scan(TimeRange::all(), (Day(2), Day(3))).len(), 2);
        o.prune_before(Day(2));
        assert_eq!(o.scan(TimeRange::all(), (Day(0), Day(9))).len(), 2);
    }

    #[test]
    fn verify_passes_on_correct_schemes() {
        let mut vol = Volume::default();
        let mut oracle = Oracle::new();
        let mut archive = crate::record::DayArchive::new();
        for d in 1..=12u32 {
            let b = batch(d, &[(d as u64, "hot"), (100 + d as u64, "cold")]);
            oracle.insert(&b);
            archive.insert(b);
        }
        let values = [SearchValue::from("hot"), SearchValue::from("miss")];
        let mut hard = SchemeKind::Del.build(SchemeConfig::new(6, 2)).unwrap();
        hard.start(&mut vol, &archive).unwrap();
        for d in 7..=12 {
            hard.transition(&mut vol, &archive, Day(d)).unwrap();
            verify_scheme(hard.as_ref(), &mut vol, &oracle, &values).unwrap();
        }
        hard.release(&mut vol).unwrap();

        let mut soft = SchemeKind::WataStar.build(SchemeConfig::new(6, 3)).unwrap();
        soft.start(&mut vol, &archive).unwrap();
        for d in 7..=12 {
            soft.transition(&mut vol, &archive, Day(d)).unwrap();
            verify_scheme(soft.as_ref(), &mut vol, &oracle, &values).unwrap();
        }
        soft.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn subset_check() {
        let e = |d: u32| Entry::new(RecordId(d as u64), 0, Day(d));
        assert!(is_subset(&[e(1), e(2)], &[e(1), e(2), e(3)]));
        assert!(!is_subset(&[e(1), e(4)], &[e(1), e(2), e(3)]));
        assert!(is_subset(&[], &[e(1)]));
    }
}
