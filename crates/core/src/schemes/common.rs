//! Helpers shared by the planners and the executor.

use std::collections::BTreeSet;

use wave_obs::fields;
use wave_storage::{IoStats, StatsDelta, Volume};

use crate::error::{IndexError, IndexResult};
use crate::index::ConstituentIndex;
use crate::record::{Day, DayArchive, DayBatch};
use crate::update::UpdateTechnique;

use super::TransitionRecord;

/// Emits the per-scheme `scheme.transition` trace event and bumps the
/// scheme's transition counter. The executor calls this on every
/// record it returns from `start`/`transition`, so traces carry
/// the paper's worked-example notation (`I3 <- BuildIndex({9})`, …)
/// alongside the phase costs. When the volume carries a request-scoped
/// trace context (the driver sets one per day), the event joins that
/// request's causal tree via `trace_id`/`parent_id` fields.
pub(crate) fn trace_transition(vol: &Volume, scheme: &'static str, rec: &TransitionRecord) {
    let obs = vol.obs();
    obs.counter(&format!("scheme.{scheme}.transitions")).inc();
    if !obs.tracing_enabled() {
        return;
    }
    let ops = rec
        .ops
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("; ");
    let mut f: Vec<(&str, wave_obs::FieldValue)> = Vec::with_capacity(11);
    let ctx = vol.trace_ctx();
    if ctx.is_some() {
        f.push(("trace_id", wave_obs::FieldValue::U64(ctx.trace_id)));
        f.push(("parent_id", wave_obs::FieldValue::U64(ctx.span_id)));
    }
    f.extend_from_slice(fields![
        ("scheme", scheme),
        ("day", rec.day.0),
        ("ops", ops),
        ("op_count", rec.ops.len()),
        ("constituents", rec.constituents.len()),
        ("temps", rec.temps.len()),
        ("precomp_seconds", rec.precomp.sim_seconds),
        ("transition_seconds", rec.transition.sim_seconds),
        ("post_seconds", rec.post.sim_seconds),
    ]);
    obs.event("scheme.transition", &f);
}

/// Splits `count` consecutive days starting at `first` into `k`
/// clusters: the first `count mod k` clusters get `ceil(count / k)`
/// days, the rest `floor(count / k)` (Figure 12's `Start`).
pub(crate) fn split_days(first: u32, count: u32, k: usize) -> Vec<Vec<Day>> {
    assert!(
        k >= 1 && count >= k as u32,
        "need at least one day per cluster"
    );
    let k32 = k as u32;
    let ceil = count.div_ceil(k32);
    let floor = count / k32;
    let big = (count % k32) as usize;
    let mut clusters = Vec::with_capacity(k);
    let mut next = first;
    for i in 0..k {
        let size = if i < big { ceil } else { floor };
        clusters.push((next..next + size).map(Day).collect());
        next += size;
    }
    debug_assert_eq!(next, first + count);
    clusters
}

/// The WATA*/RATA* start partition (Figure 16): days `1..W` split over
/// the first `n-1` indexes, day `W` alone in index `n`.
pub(crate) fn split_wata(window: u32, fan: usize) -> Vec<Vec<Day>> {
    let mut clusters = split_days(1, window - 1, fan - 1);
    clusters.push(vec![Day(window)]);
    clusters
}

/// Fetches the batches for `days` from the archive, in day order.
pub(crate) fn fetch(
    archive: &DayArchive,
    days: impl IntoIterator<Item = Day>,
) -> IndexResult<Vec<&DayBatch>> {
    days.into_iter()
        .map(|d| archive.get(d).ok_or(IndexError::MissingDay(d)))
        .collect()
}

/// Phase accounting: snapshots volume stats around the three phases of
/// a transition (pre-computation / critical transition / post-work).
/// The phase markers are cumulative cursors — work done between
/// `begin` and `enter_transition` is pre-computation, work between
/// `enter_transition` and `enter_post` (or `finish`) is the critical
/// transition, anything after `enter_post` is post-work.
pub(crate) struct Phases {
    start: IoStats,
    current: PhaseKind,
    pre: StatsDelta,
    main: StatsDelta,
    post: StatsDelta,
}

#[derive(Clone, Copy, PartialEq)]
enum PhaseKind {
    Pre,
    Main,
    Post,
}

impl Phases {
    /// Begins accounting; the first phase is pre-computation.
    pub(crate) fn begin(vol: &Volume) -> Self {
        Phases {
            start: vol.stats(),
            current: PhaseKind::Pre,
            pre: StatsDelta::default(),
            main: StatsDelta::default(),
            post: StatsDelta::default(),
        }
    }

    fn close(&mut self, vol: &Volume) {
        let delta = vol.stats().since(&self.start);
        match self.current {
            PhaseKind::Pre => self.pre += delta,
            PhaseKind::Main => self.main += delta,
            PhaseKind::Post => self.post += delta,
        }
        self.start = vol.stats();
    }

    /// Marks the end of pre-computation / start of the transition.
    pub(crate) fn enter_transition(&mut self, vol: &Volume) {
        self.close(vol);
        self.current = PhaseKind::Main;
    }

    /// Marks the end of the transition / start of post-work.
    pub(crate) fn enter_post(&mut self, vol: &Volume) {
        self.close(vol);
        self.current = PhaseKind::Post;
    }

    /// Finishes accounting, returning `(precomp, transition, post)`.
    pub(crate) fn finish(mut self, vol: &Volume) -> (StatsDelta, StatsDelta, StatsDelta) {
        self.close(vol);
        (self.pre, self.main, self.post)
    }
}

/// `AddToIndex` on an index that is *not* live in the wave (a temp or
/// an index under construction). No shadow is needed — queries never
/// see it — so in-place and simple-shadow add directly; packed shadow
/// still smart-copies so the result stays packed (Table 11 charges
/// temp updates at `SMCP + Build` rates under packed shadowing).
pub(crate) fn absorb_offline(
    vol: &mut Volume,
    idx: &mut ConstituentIndex,
    batches: &[&DayBatch],
    technique: UpdateTechnique,
) -> IndexResult<()> {
    if batches.is_empty() {
        return Ok(());
    }
    match technique {
        UpdateTechnique::InPlace | UpdateTechnique::SimpleShadow => {
            idx.add_batches_in_place(vol, batches)
        }
        UpdateTechnique::PackedShadow => {
            let new = idx.smart_copy(vol, idx.label().to_string(), &BTreeSet::new(), batches)?;
            let old = std::mem::replace(idx, new);
            old.release(vol)
        }
    }
}

/// Validates that `new_day` is exactly one past `current`.
pub(crate) fn expect_consecutive(current: Option<Day>, new_day: Day) -> IndexResult<Day> {
    let cur = current.ok_or(IndexError::NotStarted)?;
    let expected = cur.plus(1);
    if new_day != expected {
        return Err(IndexError::NonConsecutiveDay {
            expected,
            got: new_day,
        });
    }
    Ok(new_day)
}

/// Validates that the archive holds exactly days `1..=window` worth of
/// data for `start`.
pub(crate) fn expect_start_archive(archive: &DayArchive, window: u32) -> IndexResult<()> {
    for d in 1..=window {
        if archive.get(Day(d)).is_none() {
            return Err(IndexError::BadStart {
                got: archive.len(),
                want: window as usize,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(clusters: &[Vec<Day>]) -> Vec<usize> {
        clusters.iter().map(Vec::len).collect()
    }

    #[test]
    fn split_even() {
        let c = split_days(1, 10, 2);
        assert_eq!(sizes(&c), vec![5, 5]);
        assert_eq!(c[0][0], Day(1));
        assert_eq!(c[1][4], Day(10));
    }

    #[test]
    fn split_uneven_front_loads_ceil() {
        let c = split_days(1, 10, 3);
        assert_eq!(sizes(&c), vec![4, 3, 3]);
        let c = split_days(1, 7, 4);
        assert_eq!(sizes(&c), vec![2, 2, 2, 1]);
    }

    #[test]
    fn split_one_cluster_and_one_day_each() {
        assert_eq!(sizes(&split_days(1, 7, 1)), vec![7]);
        assert_eq!(sizes(&split_days(1, 5, 5)), vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn split_covers_consecutively() {
        let c = split_days(4, 11, 4);
        let flat: Vec<u32> = c.iter().flatten().map(|d| d.0).collect();
        assert_eq!(flat, (4..15).collect::<Vec<_>>());
    }

    #[test]
    fn wata_partition_matches_table_3() {
        // W = 10, n = 4: {1,2,3}, {4,5,6}, {7,8,9}, {10}.
        let c = split_wata(10, 4);
        assert_eq!(sizes(&c), vec![3, 3, 3, 1]);
        assert_eq!(c[3], vec![Day(10)]);
    }

    #[test]
    fn consecutive_validation() {
        assert!(expect_consecutive(None, Day(5)).is_err());
        assert!(expect_consecutive(Some(Day(4)), Day(5)).is_ok());
        assert!(matches!(
            expect_consecutive(Some(Day(4)), Day(7)),
            Err(IndexError::NonConsecutiveDay { .. })
        ));
    }
}
