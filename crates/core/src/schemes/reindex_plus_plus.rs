//! REINDEX++ (Section 4.2, Figure 15): REINDEX+ with a pre-built temp
//! ladder.
//!
//! REINDEX+ still rebuilds `I_j` *after* the new data arrives.
//! REINDEX++ keeps a ladder of temporaries `T_0 … T_{X-1}` prepared
//! ahead of time (each rung already holds the surviving old days plus
//! the cycle's new days so far), so the transition itself is a single
//! `AddToIndex` of the new day followed by a rename — the same
//! transition time as DEL/WATA, at the price of the ladder's storage.

use crate::error::{IndexError, IndexResult};
use crate::record::Day;

use super::common::split_days;
use super::plan::{build_clusters, ladder_ops, slot_label, ClusterState, TransitionPlan};
use super::WaveOp;

/// `Initialize` (Figure 15): the ladder `T1 … TL` over `remainder`
/// (the next expiring cluster minus its oldest day), above an empty
/// `T0`.
fn initialize(plan: &mut TransitionPlan, remainder: &[Day]) {
    plan.post = ladder_ops("T", remainder, 1..=remainder.len());
    plan.empty = vec!["T0".into()];
}

/// `Start`: the clusters, then — as post-work, since it does not gate
/// queryability — the ladder for the first cluster minus day 1.
pub(super) fn start(window: u32, fan: usize) -> TransitionPlan {
    let clusters = split_days(1, window, fan);
    let remainder = clusters[0][1..].to_vec();
    let mut plan = build_clusters(clusters);
    initialize(&mut plan, &remainder);
    plan
}

/// REINDEX++'s transition: on the critical path, add the new day to
/// the top rung and rename it `I_j`; as post-work, add the cycle's new
/// days to the next rung, or re-initialize the ladder when the cycle
/// ends.
///
/// `DaysToAdd`, the cycle's new days so far, is the top rung `T_m`
/// minus its `m` old days (all older than any new day).
pub(super) fn plan(
    state: &ClusterState,
    expired: Day,
    new_day: Day,
) -> IndexResult<TransitionPlan> {
    let j = state.expiring_slot(expired)?;
    let (top, top_days) = state
        .top_rung()
        .ok_or_else(|| IndexError::Corrupt("ladder exhausted".into()))?;
    let m = super::plan::temp_rank(top).1 as usize;
    let mut plan = TransitionPlan {
        transition: vec![
            WaveOp::Add {
                target: top.to_string(),
                days: vec![new_day],
            },
            WaveOp::Rename {
                from: top.to_string(),
                to: slot_label(j),
            },
        ],
        ..TransitionPlan::default()
    };
    if m == 0 {
        // The cycle ends: prepare the ladder for the next cluster.
        let mid = state.after(&plan.transition);
        let oldest = Day(expired.0 + 1);
        let next = mid.expiring_slot(oldest)?;
        let remainder: Vec<Day> = mid.slots[next]
            .iter()
            .copied()
            .filter(|d| *d != oldest)
            .collect();
        initialize(&mut plan, &remainder);
    } else {
        let mut days_to_add: Vec<Day> = top_days.iter().skip(m).copied().collect();
        days_to_add.push(new_day);
        plan.post = vec![WaveOp::Add {
            target: format!("T{}", m - 1),
            days: days_to_add,
        }];
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use wave_storage::Volume;

    use super::super::testutil::make_archive;
    use super::super::{SchemeConfig, SchemeKind};
    use super::*;

    /// Reproduces Table 6 (W = 10, n = 2).
    #[test]
    fn table_6_transitions() {
        let mut vol = Volume::default();
        let mut s = SchemeKind::ReindexPlusPlus
            .build(SchemeConfig::new(10, 2))
            .unwrap();
        let archive = make_archive(16, 2);
        let day = |d: u32| Day(d);

        let rec = s.start(&mut vol, &archive).unwrap();
        // Ladder after start: T4 = {2,3,4,5} … T1 = {5}, T0 = φ.
        assert_eq!(
            rec.temps,
            vec![
                ("T4".into(), vec![day(2), day(3), day(4), day(5)]),
                ("T3".into(), vec![day(3), day(4), day(5)]),
                ("T2".into(), vec![day(4), day(5)]),
                ("T1".into(), vec![day(5)]),
                ("T0".into(), vec![]),
            ]
        );
        // Day 11: T4 + d11 becomes I1.
        let rec = s.transition(&mut vol, &archive, Day(11)).unwrap();
        assert_eq!(
            rec.constituents[0].1,
            vec![day(2), day(3), day(4), day(5), day(11)]
        );
        assert_eq!(
            rec.temps[0],
            ("T3".into(), vec![day(3), day(4), day(5), day(11)])
        );
        // Day 12: T3 + d12 becomes I1.
        let rec = s.transition(&mut vol, &archive, Day(12)).unwrap();
        assert_eq!(
            rec.constituents[0].1,
            vec![day(3), day(4), day(5), day(11), day(12)]
        );
        // Days 13, 14.
        s.transition(&mut vol, &archive, Day(13)).unwrap();
        let rec = s.transition(&mut vol, &archive, Day(14)).unwrap();
        assert_eq!(
            rec.constituents[0].1,
            vec![day(5), day(11), day(12), day(13), day(14)]
        );
        assert_eq!(
            rec.temps.last().unwrap(),
            &("T0".into(), vec![day(11), day(12), day(13), day(14)])
        );
        // Day 15: T0 + d15 becomes I1; ladder re-initialised over
        // {7,8,9,10}.
        let rec = s.transition(&mut vol, &archive, Day(15)).unwrap();
        assert_eq!(
            rec.constituents[0].1,
            (11..=15).map(Day).collect::<Vec<_>>()
        );
        assert_eq!(
            rec.temps[0],
            ("T4".into(), vec![day(7), day(8), day(9), day(10)])
        );
        // Day 16: T4 + d16 becomes I2.
        let rec = s.transition(&mut vol, &archive, Day(16)).unwrap();
        assert_eq!(
            rec.constituents[1].1,
            vec![day(7), day(8), day(9), day(10), day(16)]
        );
        s.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn hard_window_over_long_run() {
        let mut vol = Volume::default();
        let mut s = SchemeKind::ReindexPlusPlus
            .build(SchemeConfig::new(9, 3))
            .unwrap();
        let archive = make_archive(40, 3);
        s.start(&mut vol, &archive).unwrap();
        for d in 10..=40 {
            s.transition(&mut vol, &archive, Day(d)).unwrap();
            let covered: Vec<u32> = s.wave().covered_days().iter().map(|x| x.0).collect();
            assert_eq!(covered, (d - 8..=d).collect::<Vec<u32>>(), "day {d}");
            s.wave().check_disjoint().unwrap();
        }
        s.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn one_day_clusters_work() {
        // n == W: the ladder degenerates to just T0.
        let mut vol = Volume::default();
        let mut s = SchemeKind::ReindexPlusPlus
            .build(SchemeConfig::new(4, 4))
            .unwrap();
        let archive = make_archive(12, 2);
        s.start(&mut vol, &archive).unwrap();
        for d in 5..=12 {
            s.transition(&mut vol, &archive, Day(d)).unwrap();
            let covered: Vec<u32> = s.wave().covered_days().iter().map(|x| x.0).collect();
            assert_eq!(covered, (d - 3..=d).collect::<Vec<u32>>(), "day {d}");
        }
        s.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn mixed_cluster_sizes_work() {
        // W = 10, n = 3: clusters of 4, 3, 3 days.
        let mut vol = Volume::default();
        let mut s = SchemeKind::ReindexPlusPlus
            .build(SchemeConfig::new(10, 3))
            .unwrap();
        let archive = make_archive(35, 2);
        s.start(&mut vol, &archive).unwrap();
        for d in 11..=35 {
            s.transition(&mut vol, &archive, Day(d)).unwrap();
            let covered: Vec<u32> = s.wave().covered_days().iter().map(|x| x.0).collect();
            assert_eq!(covered, (d - 9..=d).collect::<Vec<u32>>(), "day {d}");
        }
        s.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn transition_path_is_one_day_of_work() {
        // The critical path adds a single day regardless of cluster
        // size; the ladder maintenance is post-work.
        let mut vol = Volume::default();
        let mut s = SchemeKind::ReindexPlusPlus
            .build(SchemeConfig::new(10, 2))
            .unwrap();
        let archive = make_archive(14, 10);
        s.start(&mut vol, &archive).unwrap();
        let rec = s.transition(&mut vol, &archive, Day(11)).unwrap();
        assert!(
            rec.transition.blocks_total() < rec.post.blocks_total() + rec.transition.blocks_total(),
            "some work happens off the critical path"
        );
        assert!(rec.post.blocks_total() > 0, "ladder upkeep is post-work");
        s.release(&mut vol).unwrap();
    }
}
