//! DEL (Section 3.1, Figure 12): incremental deletion + insertion.
//!
//! Day `new − W` is deleted from the constituent that holds it, and
//! the new day's entries are inserted into the same constituent. DEL
//! maintains hard windows and is the "obvious solution" generalised to
//! `n` indexes. With simple shadowing, both the shadow copy and the
//! deletion are pre-computation; only the final insert needs the new
//! data.

use crate::error::IndexResult;
use crate::record::Day;

use super::plan::{slot_label, ClusterState, TransitionPlan};
use super::WaveOp;

/// DEL's transition: delete the expired day from its constituent and
/// add the new day to the same one.
pub(super) fn plan(
    state: &ClusterState,
    expired: Day,
    new_day: Day,
) -> IndexResult<TransitionPlan> {
    let target = slot_label(state.expiring_slot(expired)?);
    Ok(TransitionPlan {
        transition: vec![
            WaveOp::Delete {
                target: target.clone(),
                days: vec![expired],
            },
            WaveOp::Add {
                target,
                days: vec![new_day],
            },
        ],
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
    use crate::update::UpdateTechnique;

    #[test]
    fn table_1_transitions() {
        // Table 1: W = 10, n = 2.
        let mut vol = Volume::default();
        let mut s = SchemeKind::Del.build(SchemeConfig::new(10, 2)).unwrap();
        let archive = make_archive(13, 2);
        let rec = s.start(&mut vol, &archive).unwrap();
        assert_eq!(
            rec.constituents,
            vec![
                ("I1".into(), (1..=5).map(Day).collect()),
                ("I2".into(), (6..=10).map(Day).collect()),
            ]
        );
        // Day 11: delete d1 from I1, add d11.
        let rec = s.transition(&mut vol, &archive, Day(11)).unwrap();
        assert_eq!(
            rec.constituents[0],
            ("I1".into(), vec![Day(2), Day(3), Day(4), Day(5), Day(11)])
        );
        assert_eq!(rec.ops.len(), 2);
        // Days 12, 13 continue the wave.
        s.transition(&mut vol, &archive, Day(12)).unwrap();
        let rec = s.transition(&mut vol, &archive, Day(13)).unwrap();
        assert_eq!(
            rec.constituents[0],
            ("I1".into(), vec![Day(4), Day(5), Day(11), Day(12), Day(13)])
        );
        assert_eq!(
            rec.constituents[1],
            ("I2".into(), (6..=10).map(Day).collect())
        );
        s.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn hard_window_invariant_many_days() {
        for technique in [
            UpdateTechnique::InPlace,
            UpdateTechnique::SimpleShadow,
            UpdateTechnique::PackedShadow,
        ] {
            let mut vol = Volume::default();
            let mut s = SchemeKind::Del
                .build(SchemeConfig::new(7, 3).with_technique(technique))
                .unwrap();
            let archive = make_archive(30, 3);
            s.start(&mut vol, &archive).unwrap();
            for d in 8..=30 {
                s.transition(&mut vol, &archive, Day(d)).unwrap();
                let covered: Vec<u32> = s.wave().covered_days().iter().map(|x| x.0).collect();
                let expect: Vec<u32> = (d - 6..=d).collect();
                assert_eq!(covered, expect, "{technique:?} day {d}");
                s.wave().check_disjoint().unwrap();
            }
            s.release(&mut vol).unwrap();
            assert_eq!(vol.live_blocks(), 0, "{technique:?} leaked");
        }
    }

    #[test]
    fn n_equals_one_single_index() {
        let mut vol = Volume::default();
        let mut s = SchemeKind::Del.build(SchemeConfig::new(5, 1)).unwrap();
        let archive = make_archive(8, 2);
        s.start(&mut vol, &archive).unwrap();
        for d in 6..=8 {
            s.transition(&mut vol, &archive, Day(d)).unwrap();
        }
        assert_eq!(s.wave().length(), 5);
        assert_eq!(s.wave().iter().count(), 1);
        s.release(&mut vol).unwrap();
    }

    #[test]
    fn non_consecutive_day_rejected() {
        let mut vol = Volume::default();
        let mut s = SchemeKind::Del.build(SchemeConfig::new(5, 1)).unwrap();
        let archive = make_archive(9, 1);
        s.start(&mut vol, &archive).unwrap();
        assert!(matches!(
            s.transition(&mut vol, &archive, Day(9)),
            Err(IndexError::NonConsecutiveDay { .. })
        ));
        s.release(&mut vol).unwrap();
    }

    #[test]
    fn transition_before_start_rejected() {
        let mut vol = Volume::default();
        let mut s = SchemeKind::Del.build(SchemeConfig::new(5, 1)).unwrap();
        let archive = make_archive(6, 1);
        assert!(matches!(
            s.transition(&mut vol, &archive, Day(6)),
            Err(IndexError::NotStarted)
        ));
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(SchemeKind::Del.build(SchemeConfig::new(0, 1)).is_err());
        assert!(SchemeKind::Del.build(SchemeConfig::new(5, 0)).is_err());
        assert!(SchemeKind::Del.build(SchemeConfig::new(5, 6)).is_err());
    }

    #[test]
    fn simple_shadow_precomp_carries_copy_cost() {
        let mut vol = Volume::default();
        let mut s = SchemeKind::Del
            .build(SchemeConfig::new(6, 2).with_technique(UpdateTechnique::SimpleShadow))
            .unwrap();
        let archive = make_archive(7, 50);
        s.start(&mut vol, &archive).unwrap();
        let rec = s.transition(&mut vol, &archive, Day(7)).unwrap();
        assert!(
            rec.precomp.sim_seconds > 0.0,
            "shadow copy + delete charged as pre-computation"
        );
        assert!(rec.transition.sim_seconds > 0.0);
        s.release(&mut vol).unwrap();
    }
}
