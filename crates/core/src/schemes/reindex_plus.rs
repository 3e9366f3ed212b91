//! REINDEX+ (Section 4.1, Figure 14): REINDEX with one temporary
//! index.
//!
//! REINDEX recomputes the entries of recent days over and over (day 11
//! is re-indexed on each of days 11-15 in the Table 2 example).
//! REINDEX+ accumulates the new days of the current cycle in `Temp`
//! and builds each day's constituent as *copy of Temp + the surviving
//! old days*, halving the average re-indexing work at the price of the
//! extra temp storage.

use crate::error::IndexResult;
use crate::record::Day;

use super::plan::{slot_label, ClusterState, TransitionPlan};
use super::WaveOp;

/// REINDEX+'s transition. Everything is on the critical path: the
/// first operation of every branch consumes the new day's data.
///
/// `DaysToAdd` — the old days still to be re-added when rebuilding
/// `I_j` — is the expiring constituent minus `Temp` and minus the
/// expired day, so the state needs no separate record of it.
pub(super) fn plan(
    state: &ClusterState,
    expired: Day,
    new_day: Day,
) -> IndexResult<TransitionPlan> {
    let j = state.expiring_slot(expired)?;
    let label = slot_label(j);
    let temp = state.days("Temp");
    let days_to_add: Vec<Day> = state.slots[j]
        .iter()
        .copied()
        .filter(|d| *d != expired && !temp.is_some_and(|t| t.contains(d)))
        .collect();
    let temp_label = || "Temp".to_string();
    let transition = match temp {
        // Cycle ends: Temp holds all the cluster's new days.
        Some(_) if days_to_add.is_empty() => vec![
            WaveOp::Rename {
                from: temp_label(),
                to: label.clone(),
            },
            WaveOp::Add {
                target: label,
                days: vec![new_day],
            },
        ],
        // Otherwise Temp takes the new day — a new cycle starts it,
        // mid-cycle extends it — and I_j is rebuilt as Temp + the old
        // days. With one-day clusters (n == W) the cycle completes at
        // once, and keeping Temp would seed tomorrow's constituent with
        // today's data.
        _ => {
            let days = vec![new_day];
            let into_temp = match temp {
                None => WaveOp::Build {
                    target: temp_label(),
                    days,
                },
                Some(_) => WaveOp::Add {
                    target: temp_label(),
                    days,
                },
            };
            let copy = WaveOp::Copy {
                from: temp_label(),
                to: label.clone(),
            };
            let finish = if days_to_add.is_empty() {
                WaveOp::Drop {
                    target: temp_label(),
                }
            } else {
                WaveOp::Add {
                    target: label,
                    days: days_to_add,
                }
            };
            vec![into_temp, copy, finish]
        }
    };
    Ok(TransitionPlan {
        transition,
        ..TransitionPlan::default()
    })
}

#[cfg(test)]
mod tests {
    use wave_storage::Volume;

    use super::super::testutil::make_archive;
    use super::super::{SchemeConfig, SchemeKind};
    use super::*;

    /// Reproduces Table 5 (W = 10, n = 2), state by state.
    #[test]
    fn table_5_transitions() {
        let mut vol = Volume::default();
        let mut s = SchemeKind::ReindexPlus
            .build(SchemeConfig::new(10, 2))
            .unwrap();
        let archive = make_archive(16, 2);
        s.start(&mut vol, &archive).unwrap();

        let day = |d: u32| Day(d);
        // Day 11: I1 = {2,3,4,5,11}, Temp = {11}.
        let rec = s.transition(&mut vol, &archive, Day(11)).unwrap();
        assert_eq!(
            rec.constituents[0].1,
            vec![day(2), day(3), day(4), day(5), day(11)]
        );
        assert_eq!(rec.temps, vec![("Temp".into(), vec![day(11)])]);
        // Day 12: I1 = {3,4,5,11,12}, Temp = {11,12}.
        let rec = s.transition(&mut vol, &archive, Day(12)).unwrap();
        assert_eq!(
            rec.constituents[0].1,
            vec![day(3), day(4), day(5), day(11), day(12)]
        );
        assert_eq!(rec.temps[0].1, vec![day(11), day(12)]);
        // Days 13, 14.
        let rec = s.transition(&mut vol, &archive, Day(13)).unwrap();
        assert_eq!(rec.temps[0].1, vec![day(11), day(12), day(13)]);
        let rec = s.transition(&mut vol, &archive, Day(14)).unwrap();
        assert_eq!(
            rec.constituents[0].1,
            vec![day(5), day(11), day(12), day(13), day(14)]
        );
        // Day 15: Temp becomes I1, then clears.
        let rec = s.transition(&mut vol, &archive, Day(15)).unwrap();
        assert_eq!(
            rec.constituents[0].1,
            (11..=15).map(Day).collect::<Vec<_>>()
        );
        assert!(rec.temps.is_empty(), "Temp = φ after the cycle");
        // Day 16: the next cluster (I2) starts its cycle.
        let rec = s.transition(&mut vol, &archive, Day(16)).unwrap();
        assert_eq!(
            rec.constituents[1].1,
            vec![day(7), day(8), day(9), day(10), day(16)]
        );
        assert_eq!(rec.temps[0].1, vec![day(16)]);
        s.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn hard_window_over_long_run() {
        let mut vol = Volume::default();
        let mut s = SchemeKind::ReindexPlus
            .build(SchemeConfig::new(7, 2))
            .unwrap();
        let archive = make_archive(40, 3);
        s.start(&mut vol, &archive).unwrap();
        for d in 8..=40 {
            s.transition(&mut vol, &archive, Day(d)).unwrap();
            let covered: Vec<u32> = s.wave().covered_days().iter().map(|x| x.0).collect();
            assert_eq!(covered, (d - 6..=d).collect::<Vec<u32>>(), "day {d}");
            s.wave().check_disjoint().unwrap();
        }
        s.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn one_day_clusters_degenerate_cleanly() {
        // n == W: every cluster is one day; Temp must not leak data
        // across days.
        let mut vol = Volume::default();
        let mut s = SchemeKind::ReindexPlus
            .build(SchemeConfig::new(4, 4))
            .unwrap();
        let archive = make_archive(12, 2);
        s.start(&mut vol, &archive).unwrap();
        for d in 5..=12 {
            s.transition(&mut vol, &archive, Day(d)).unwrap();
            let covered: Vec<u32> = s.wave().covered_days().iter().map(|x| x.0).collect();
            assert_eq!(covered, (d - 3..=d).collect::<Vec<u32>>(), "day {d}");
            s.wave().check_disjoint().unwrap();
        }
        s.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    /// Days (re-)indexed per op across a transition record.
    fn days_indexed(ops: &[WaveOp]) -> usize {
        ops.iter()
            .map(|op| match op {
                WaveOp::Build { days, .. } | WaveOp::Add { days, .. } => days.len(),
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn average_days_indexed_is_about_half_of_reindex() {
        // Section 4.1: "the average number of days indexed per
        // transition by REINDEX+ during index build is about half that
        // of REINDEX".
        let archive = make_archive(30, 5);
        let mut plus_days = 0usize;
        let mut plain_days = 0usize;
        {
            let mut vol = Volume::default();
            let mut s = SchemeKind::ReindexPlus
                .build(SchemeConfig::new(10, 2))
                .unwrap();
            s.start(&mut vol, &archive).unwrap();
            for d in 11..=30 {
                let rec = s.transition(&mut vol, &archive, Day(d)).unwrap();
                plus_days += days_indexed(&rec.ops);
            }
            s.release(&mut vol).unwrap();
        }
        {
            let mut vol = Volume::default();
            let mut s = SchemeKind::Reindex.build(SchemeConfig::new(10, 2)).unwrap();
            s.start(&mut vol, &archive).unwrap();
            for d in 11..=30 {
                let rec = s.transition(&mut vol, &archive, Day(d)).unwrap();
                plain_days += days_indexed(&rec.ops);
            }
            s.release(&mut vol).unwrap();
        }
        // 20 transitions: REINDEX indexes 5 days each = 100; REINDEX+
        // averages 3 per day (1 new + 2 re-added) = 60.
        assert_eq!(plain_days, 100);
        assert_eq!(plus_days, 60);
    }
}
