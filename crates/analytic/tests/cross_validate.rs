//! Cross-validation of the one scheme engine against its planners.
//!
//! The analytic model prices the plans of `wave-index`'s planners; the
//! executor ([`Scheme`]) runs the same plans against a simulated
//! volume. For every scheme, update technique and several `(W, n)`
//! shapes, after every transition the executed constituents and temps
//! must be exactly the planner's [`ClusterState`], and the operations
//! the executor records must be the plan's, in order. Any divergence
//! means the executor strayed from the plan it was given.

use wave_analytic::model::trace_plan;
use wave_index::prelude::*;
use wave_index::schemes::wata::WataStart;
use wave_index::schemes::{ClusterState, Planner, RataMode, Scheme, TransitionPlan, WaveOp};

fn uniform_archive(days: u32) -> DayArchive {
    let mut archive = DayArchive::new();
    for d in 1..=days {
        archive.insert(DayBatch::new(
            Day(d),
            vec![Record::with_values(
                RecordId(d as u64),
                [SearchValue::from_u64(d as u64 % 5)],
            )],
        ));
    }
    archive
}

/// Every planner of `kind` at `cfg`: the scheme's default plus its
/// start or ladder variants.
fn planners(kind: SchemeKind, cfg: &SchemeConfig) -> Vec<Planner> {
    let planner = Planner::new(kind, cfg).unwrap();
    match kind {
        SchemeKind::WataStar => vec![planner, planner.with_wata_start(WataStart::Table4)],
        SchemeKind::RataStar => vec![planner, planner.with_rata_mode(RataMode::Spread)],
        _ => vec![planner],
    }
}

#[test]
fn traces_match_real_schemes() {
    let shapes = [(10u32, 2usize), (10, 4), (7, 3), (7, 7), (11, 4), (9, 1)];
    let horizon = 25u32;
    for kind in SchemeKind::ALL {
        for technique in [
            UpdateTechnique::InPlace,
            UpdateTechnique::SimpleShadow,
            UpdateTechnique::PackedShadow,
        ] {
            for &(w, n) in &shapes {
                if n < kind.min_fan() || n as u32 > w {
                    continue;
                }
                let cfg = SchemeConfig::new(w, n).with_technique(technique);
                for planner in planners(kind, &cfg) {
                    let archive = uniform_archive(w + horizon);
                    let mut vol = Volume::default();
                    let mut scheme = Scheme::new(cfg, planner);
                    let mut state = ClusterState::new(n);
                    for day in w..=w + horizon {
                        let (plan, rec) = if day == w {
                            (planner.start(), scheme.start(&mut vol, &archive).unwrap())
                        } else {
                            let plan = planner.plan(&state, Day(day)).unwrap();
                            (
                                plan,
                                scheme.transition(&mut vol, &archive, Day(day)).unwrap(),
                            )
                        };
                        state.apply(&plan);
                        let at = format!("{planner:?} {} W={w} n={n} day {day}", technique.name());
                        let planned: Vec<WaveOp> = plan.ops().cloned().collect();
                        assert_eq!(rec.ops, planned, "{at}: ops");
                        assert_eq!(scheme.wave().snapshot(), state.constituents(), "{at}");
                        assert_eq!(rec.constituents, state.constituents(), "{at}");
                        assert_eq!(rec.temps, state.temp_list(), "{at}: temps");
                        assert_eq!(scheme.temp_days(), state.temp_days(), "{at}");
                    }
                    scheme.release(&mut vol).unwrap();
                    assert_eq!(vol.live_blocks(), 0, "{planner:?} leaked");
                }
            }
        }
    }
}

/// The model's `live_update_days` must match the index the executor
/// really shadow-copies: simple-shadow pre-computation writes blocks
/// exactly on the days the priced plan has a live update.
#[test]
fn shadow_precomputation_alignment() {
    let (w, n) = (10u32, 4usize);
    let horizon = 20u32;
    for kind in [SchemeKind::Del, SchemeKind::WataStar, SchemeKind::RataStar] {
        let cfg = SchemeConfig::new(w, n).with_technique(UpdateTechnique::SimpleShadow);
        let planner = Planner::new(kind, &cfg).unwrap();
        let archive = uniform_archive(w + horizon);
        let mut vol = Volume::default();
        let mut scheme = Scheme::new(cfg, planner);
        scheme.start(&mut vol, &archive).unwrap();
        let mut state = ClusterState::new(n);
        state.apply(&planner.start());
        for day in (w + 1..=w + horizon).map(Day) {
            let plan: TransitionPlan = planner.plan(&state, day).unwrap();
            let model = trace_plan(&plan, &mut state);
            let rec = scheme.transition(&mut vol, &archive, day).unwrap();
            assert_eq!(
                rec.precomp.blocks_total() > 0,
                model.live_update_days > 0,
                "{kind} day {day}: shadow copy presence diverges"
            );
        }
        scheme.release(&mut vol).unwrap();
    }
}
