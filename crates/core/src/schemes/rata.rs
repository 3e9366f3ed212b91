//! RATA* (Section 4.3, Figure 17): reindex-and-throw-away.
//!
//! WATA* with hard windows: alongside the WATA constituents, a ladder
//! of temporaries holds ever-shorter suffixes of the cluster that is
//! currently expiring. Each *Wait* day, the constituent holding the
//! expired day is dropped and replaced by the next rung — so the wave
//! index covers exactly the window — while the new day is appended to
//! the growing constituent exactly as in WATA*.
//!
//! The pseudocode's `Drop I_1` is a typo for `Drop I_j` (the
//! constituent holding the expired day), as the Table 7 worked example
//! shows; see DESIGN.md.
//!
//! [`RataMode::Spread`] implements the Section 4.3 optimization: the
//! ladder for the *next* cluster is built one rung per day during the
//! current cycle (every rung depends only on old data), so no single
//! day ever indexes more than about two days of data.

use crate::error::{IndexError, IndexResult};
use crate::record::Day;

use super::common::split_wata;
use super::plan::{
    build_clusters, ladder_ops, slot_label, temp_rank, ClusterState, TransitionPlan,
};
use super::wata::{growing_slot, should_throw};
use super::WaveOp;

/// When RATA* builds the temp ladder for an expiring cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RataMode {
    /// Build the whole ladder at each throw-away day (Figure 17 as
    /// written).
    #[default]
    Eager,
    /// Build the next cluster's ladder (`N1`, `N2`, …) one rung per day
    /// during the preceding cycle (the Section 4.3 optimization), then
    /// rename it `T1`, `T2`, … when that cluster starts expiring.
    /// Falls back to eager completion if a rung is still missing when
    /// needed, and to [`RataMode::Eager`] entirely when `n == 2` (with
    /// two indexes the next cluster is still growing at plan time).
    Spread,
}

/// `Start`: WATA*'s partition, then — as post-work — the ladder for the
/// first cluster minus day 1 (and, spreading, the next cluster's first
/// rungs).
pub(super) fn start(window: u32, fan: usize, mode: RataMode) -> TransitionPlan {
    let clusters = split_wata(window, fan);
    let remainder = clusters[0][1..].to_vec();
    let mut plan = build_clusters(clusters);
    let mid = ClusterState::new(fan).after(&plan.transition);
    plan.post = ladder(&mid, &remainder);
    if mode == RataMode::Spread {
        let spread = spread_step(&mid.after(&plan.post), 0);
        plan.post.extend(spread);
    }
    plan
}

/// The ladder `T1 … TL` over `remainder`: the spread-built `N` rungs
/// completed and renamed when they match it, else built from scratch
/// after the stale `N` rungs are dropped.
fn ladder(mid: &ClusterState, remainder: &[Day]) -> Vec<WaveOp> {
    let spread: Vec<_> = mid
        .temps
        .iter()
        .filter(|(label, _)| label.starts_with('N'))
        .map(|(label, days)| (temp_rank(label).1 as usize, days))
        .collect();
    let len = remainder.len();
    let adopt = !spread.is_empty()
        && spread
            .iter()
            .all(|(m, days)| *m <= len && days.iter().eq(&remainder[len - m..]));
    if adopt {
        let mut ops = ladder_ops("N", remainder, spread.len() + 1..=len);
        ops.extend((1..=len).map(|m| WaveOp::Rename {
            from: format!("N{m}"),
            to: format!("T{m}"),
        }));
        ops
    } else {
        let mut ops: Vec<WaveOp> = (1..=spread.len())
            .map(|m| WaveOp::Drop {
                target: format!("N{m}"),
            })
            .collect();
        ops.extend(ladder_ops("T", remainder, 1..=len));
        ops
    }
}

/// Spread mode: up to two more rungs of the ladder for the cluster
/// after the one in slot `expiring` — unless that cluster is still
/// growing (its final membership is unknown) or is the one just
/// restarted.
fn spread_step(state: &ClusterState, expiring: usize) -> Vec<WaveOp> {
    let Some(&last_day) = state.slots[expiring].last() else {
        return Vec::new();
    };
    let oldest = Day(last_day.0 + 1);
    let Some(next) = state.slot_containing(oldest) else {
        return Vec::new();
    };
    if next == growing_slot(state) {
        return Vec::new();
    }
    let target: Vec<Day> = state.slots[next]
        .iter()
        .copied()
        .filter(|d| *d != oldest)
        .collect();
    let built = state
        .temps
        .iter()
        .filter(|(label, _)| label.starts_with('N'))
        .count();
    ladder_ops("N", &target, built + 1..=(built + 2).min(target.len()))
}

/// RATA*'s transition. ThrowAway is exactly WATA*'s, followed by the
/// ladder for the next expiring cluster as post-work. Wait appends the
/// new day to the growing constituent and swaps the top rung in for
/// the cluster that lost a day, so the window stays hard.
pub(super) fn plan(
    window: u32,
    mode: RataMode,
    state: &ClusterState,
    expired: Day,
    new_day: Day,
) -> IndexResult<TransitionPlan> {
    let j = state.expiring_slot(expired)?;
    let label = slot_label(j);
    let mut plan = TransitionPlan::default();
    if should_throw(window, state, j) {
        plan.precomp.push(WaveOp::Drop {
            target: label.clone(),
        });
        plan.transition.push(WaveOp::Build {
            target: label,
            days: vec![new_day],
        });
        let mid = state.after(plan.ops());
        let oldest = Day(expired.0 + 1);
        let next = mid.expiring_slot(oldest)?;
        let remainder: Vec<Day> = mid.slots[next]
            .iter()
            .copied()
            .filter(|d| *d != oldest)
            .collect();
        plan.post = ladder(&mid, &remainder);
        if mode == RataMode::Spread {
            let spread = spread_step(&mid.after(&plan.post), next);
            plan.post.extend(spread);
        }
    } else {
        let (rung, _) = state
            .top_rung()
            .ok_or_else(|| IndexError::Corrupt("RATA ladder exhausted on a Wait day".into()))?;
        plan.transition = vec![
            WaveOp::Add {
                target: slot_label(growing_slot(state)),
                days: vec![new_day],
            },
            WaveOp::Drop {
                target: label.clone(),
            },
            WaveOp::Rename {
                from: rung.to_string(),
                to: label,
            },
        ];
        if mode == RataMode::Spread {
            plan.post = spread_step(&state.after(&plan.transition), j);
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use wave_storage::Volume;

    use super::super::testutil::make_archive;
    use super::super::{Planner, Scheme, SchemeConfig, SchemeKind, WaveScheme};
    use super::*;

    fn spread_or_eager(cfg: SchemeConfig, mode: RataMode) -> Scheme {
        let planner = Planner::new(SchemeKind::RataStar, &cfg).unwrap();
        Scheme::new(cfg, planner.with_rata_mode(mode))
    }

    /// Reproduces the Table 7 flow (W = 10, n = 4).
    #[test]
    fn table_7_transitions() {
        let mut vol = Volume::default();
        let mut s = SchemeKind::RataStar
            .build(SchemeConfig::new(10, 4))
            .unwrap();
        let archive = make_archive(16, 2);
        let day = |d: u32| Day(d);
        let rec = s.start(&mut vol, &archive).unwrap();
        // WATA start plus ladder over {2, 3}.
        assert_eq!(rec.constituents[0].1, vec![day(1), day(2), day(3)]);
        assert_eq!(
            rec.temps,
            vec![
                ("T2".into(), vec![day(2), day(3)]),
                ("T1".into(), vec![day(3)]),
            ]
        );
        // Day 11: add to I4; I1 replaced by {2,3}.
        let rec = s.transition(&mut vol, &archive, Day(11)).unwrap();
        assert_eq!(rec.constituents[0].1, vec![day(2), day(3)]);
        assert_eq!(rec.constituents[3].1, vec![day(10), day(11)]);
        // Day 12: I1 replaced by {3}.
        let rec = s.transition(&mut vol, &archive, Day(12)).unwrap();
        assert_eq!(rec.constituents[0].1, vec![day(3)]);
        // Day 13: throw-away; I1 restarted with {13}; ladder rebuilt
        // over {5, 6} (cluster I2 = {4,5,6} minus day 4).
        let rec = s.transition(&mut vol, &archive, Day(13)).unwrap();
        assert_eq!(rec.constituents[0].1, vec![day(13)]);
        assert_eq!(
            rec.temps,
            vec![
                ("T2".into(), vec![day(5), day(6)]),
                ("T1".into(), vec![day(6)]),
            ]
        );
        s.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn hard_window_always_exact() {
        for mode in [RataMode::Eager, RataMode::Spread] {
            for (w, n) in [(10u32, 4usize), (7, 2), (11, 4), (7, 7), (12, 3)] {
                let mut vol = Volume::default();
                let mut s = spread_or_eager(SchemeConfig::new(w, n), mode);
                let archive = make_archive(w + 40, 2);
                s.start(&mut vol, &archive).unwrap();
                for d in (w + 1)..=(w + 40) {
                    s.transition(&mut vol, &archive, Day(d)).unwrap();
                    let covered: Vec<u32> = s.wave().covered_days().iter().map(|x| x.0).collect();
                    assert_eq!(
                        covered,
                        (d - w + 1..=d).collect::<Vec<u32>>(),
                        "mode {mode:?}, W={w}, n={n}, day {d}"
                    );
                    s.wave().check_disjoint().unwrap();
                }
                s.release(&mut vol).unwrap();
                assert_eq!(vol.live_blocks(), 0, "mode {mode:?} W={w} n={n} leaked");
            }
        }
    }

    #[test]
    fn spread_mode_bounds_daily_indexing() {
        // Section 4.3: with spreading "we would never need to index
        // more than two days of data on any given day" (plus the new
        // day itself and the rung copies).
        let mut vol = Volume::default();
        let mut s = spread_or_eager(SchemeConfig::new(12, 4), RataMode::Spread);
        let archive = make_archive(60, 2);
        s.start(&mut vol, &archive).unwrap();
        for d in 13..=60 {
            let rec = s.transition(&mut vol, &archive, Day(d)).unwrap();
            let days_built: usize = rec
                .ops
                .iter()
                .map(|op| match op {
                    WaveOp::Build { days, .. } | WaveOp::Add { days, .. } => days.len(),
                    _ => 0,
                })
                .sum();
            assert!(
                days_built <= 3,
                "day {d}: indexed {days_built} days of data in one transition"
            );
        }
        s.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn n_2_falls_back_to_eager() {
        let planner = Planner::new(SchemeKind::RataStar, &SchemeConfig::new(10, 2)).unwrap();
        assert_eq!(
            planner.with_rata_mode(RataMode::Spread),
            planner.with_rata_mode(RataMode::Eager)
        );
    }

    #[test]
    fn rejects_single_index() {
        assert!(SchemeKind::RataStar
            .build(SchemeConfig::new(10, 1))
            .is_err());
    }
}
