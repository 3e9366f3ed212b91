//! REINDEX (Section 3.2, Figure 13): rebuild the expiring cluster.
//!
//! Every day the constituent holding the expired day is rebuilt from
//! scratch over its surviving days plus the new day. No deletion code
//! is needed, the result is always packed, and — because the rebuild
//! goes into fresh extents and is swapped in atomically — queries never
//! see a half-built index regardless of update technique.

use crate::error::IndexResult;
use crate::record::Day;

use super::plan::{slot_label, ClusterState, TransitionPlan};
use super::WaveOp;

/// REINDEX's transition: rebuild the expiring cluster over its
/// surviving days plus the new day. Everything is on the critical
/// path, because the rebuild includes the new day's data.
pub(super) fn plan(
    state: &ClusterState,
    expired: Day,
    new_day: Day,
) -> IndexResult<TransitionPlan> {
    let j = state.expiring_slot(expired)?;
    let mut days: Vec<Day> = state.slots[j]
        .iter()
        .copied()
        .filter(|d| *d != expired)
        .collect();
    days.push(new_day);
    Ok(TransitionPlan {
        transition: vec![WaveOp::Build {
            target: slot_label(j),
            days,
        }],
        ..TransitionPlan::default()
    })
}

#[cfg(test)]
mod tests {
    use wave_storage::Volume;

    use super::super::testutil::make_archive;
    use super::super::{SchemeConfig, SchemeKind};
    use super::*;
    use crate::error::IndexError;

    #[test]
    fn table_2_transitions() {
        // Table 2: W = 10, n = 2.
        let mut vol = Volume::default();
        let mut s = SchemeKind::Reindex.build(SchemeConfig::new(10, 2)).unwrap();
        let archive = make_archive(12, 2);
        s.start(&mut vol, &archive).unwrap();
        // Day 11: I1 rebuilt over {2,3,4,5,11}.
        let rec = s.transition(&mut vol, &archive, Day(11)).unwrap();
        assert_eq!(
            rec.ops,
            vec![WaveOp::Build {
                target: "I1".into(),
                days: vec![Day(2), Day(3), Day(4), Day(5), Day(11)],
            }]
        );
        assert_eq!(
            rec.constituents[0].1,
            vec![Day(2), Day(3), Day(4), Day(5), Day(11)]
        );
        s.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn always_packed_and_hard() {
        let mut vol = Volume::default();
        let mut s = SchemeKind::Reindex.build(SchemeConfig::new(9, 3)).unwrap();
        let archive = make_archive(25, 4);
        s.start(&mut vol, &archive).unwrap();
        for d in 10..=25 {
            s.transition(&mut vol, &archive, Day(d)).unwrap();
            for (_, idx) in s.wave().iter() {
                assert!(idx.is_packed(), "REINDEX constituents stay packed");
            }
            let covered: Vec<u32> = s.wave().covered_days().iter().map(|x| x.0).collect();
            assert_eq!(covered, (d - 8..=d).collect::<Vec<u32>>());
        }
        s.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn missing_archive_day_is_reported() {
        let mut vol = Volume::default();
        let mut s = SchemeKind::Reindex.build(SchemeConfig::new(5, 1)).unwrap();
        let mut archive = make_archive(5, 1);
        s.start(&mut vol, &archive).unwrap();
        // Provide day 6 but prune day 2, which the rebuild needs.
        archive.insert(crate::record::DayBatch::empty(Day(6)));
        archive.prune_before(Day(3));
        assert!(matches!(
            s.transition(&mut vol, &archive, Day(6)),
            Err(IndexError::MissingDay(_))
        ));
        s.release(&mut vol).unwrap();
    }

    #[test]
    fn rebuild_cost_scales_with_cluster_size() {
        // The n = 1 rebuild re-indexes W days; n = W rebuilds one.
        let archive = make_archive(16, 300);
        let mut costs = Vec::new();
        for n in [1usize, 8] {
            let mut vol = Volume::default();
            let mut s = SchemeKind::Reindex.build(SchemeConfig::new(8, n)).unwrap();
            s.start(&mut vol, &archive).unwrap();
            let rec = s.transition(&mut vol, &archive, Day(9)).unwrap();
            costs.push(rec.transition.blocks_total());
            s.release(&mut vol).unwrap();
        }
        assert!(
            costs[0] > costs[1],
            "full-window rebuild ({}) should out-cost single-day rebuild ({})",
            costs[0],
            costs[1]
        );
    }
}
