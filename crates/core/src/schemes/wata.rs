//! WATA* (Section 3.3, Figure 16): wait-and-throw-away.
//!
//! The lazy scheme: new days are appended to the most recently started
//! constituent; a whole constituent is discarded only once every day
//! in it has expired (and the remaining constituents cover exactly the
//! last `W − 1` days). No deletion code, bulk O(1) drops, minimal
//! daily work — at the price of a *soft* window that may index up to
//! `ceil((W−1)/(n−1)) − 1` extra expired days.
//!
//! Theorems 1-2 (Appendix B): WATA* is length-optimal among
//! wait-and-throw-away schemes, with maximum length exactly
//! `W + ceil((W−1)/(n−1)) − 1`. Theorem 3: its peak *size* is at most
//! twice that of any scheme, online or offline (competitive ratio 2).
//! Both are checked by tests here and property tests in `tests/`.

use crate::error::IndexResult;
use crate::record::Day;

use super::common::{split_days, split_wata};
use super::plan::{build_clusters, slot_label, ClusterState, Planner, TransitionPlan};
use super::{SchemeConfig, SchemeKind, WaveOp};

/// How WATA* partitions the first `W` days.
///
/// The throw-away rule is identical either way; only the initial
/// clustering differs, which is exactly the comparison the paper draws
/// between Tables 3 and 4: the [`WataStart::Star`] split is
/// length-optimal (Theorem 1), the [`WataStart::Table4`] split indexes
/// one more day at its peak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WataStart {
    /// Figure 16: days `1..W` over the first `n−1` indexes, day `W`
    /// alone in index `n` (Table 3's clustering).
    #[default]
    Star,
    /// Table 4: all `W` days over the first `n−1` indexes, index `n`
    /// starts empty.
    Table4,
}

/// The bound of Theorems 1-2: the most days any WATA* wave index ever
/// stores.
pub fn max_length_bound(window: u32, fan: usize) -> u32 {
    window + (window - 1).div_ceil(fan as u32 - 1) - 1
}

/// `Start` under `variant`'s partition.
pub(super) fn start(window: u32, fan: usize, variant: WataStart) -> TransitionPlan {
    build_clusters(match variant {
        WataStart::Star => split_wata(window, fan),
        WataStart::Table4 => {
            let mut clusters = split_days(1, window, fan - 1);
            clusters.push(Vec::new());
            clusters
        }
    })
}

/// The slot new days are appended to (`last`, the most recently
/// started constituent): the empty slot if one is waiting, else the
/// one holding the newest day.
pub(super) fn growing_slot(state: &ClusterState) -> usize {
    state
        .slots
        .iter()
        .position(|days| days.is_empty())
        .or_else(|| (0..state.slots.len()).max_by_key(|&j| state.slots[j].last().copied()))
        .unwrap_or(0)
}

/// Figure 16's throw-away condition: dropping slot `j` leaves exactly
/// the last `W − 1` days (`Σ_{i≠j} Z_i = W − 1`).
pub(super) fn should_throw(window: u32, state: &ClusterState, j: usize) -> bool {
    (state.length() - state.slots[j].len()) as u32 == window - 1
}

/// WATA*'s transition: throw the expiring constituent away and restart
/// it with the new day (the drop needs no new data: pre-computation),
/// or wait, appending the new day to the growing constituent.
pub(super) fn plan(
    window: u32,
    state: &ClusterState,
    expired: Day,
    new_day: Day,
) -> IndexResult<TransitionPlan> {
    let j = state.expiring_slot(expired)?;
    let mut plan = TransitionPlan::default();
    if should_throw(window, state, j) {
        plan.precomp.push(WaveOp::Drop {
            target: slot_label(j),
        });
        plan.transition.push(WaveOp::Build {
            target: slot_label(j),
            days: vec![new_day],
        });
    } else {
        plan.transition.push(WaveOp::Add {
            target: slot_label(growing_slot(state)),
            days: vec![new_day],
        });
    }
    Ok(plan)
}

/// Outcome of the size-only WATA* simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WataSimOutcome {
    /// Peak total days indexed (the *length* measure).
    pub max_length: u32,
    /// Peak total size in the units of the input series (the *size*
    /// measure of Section 3.3).
    pub max_size: f64,
}

/// Runs WATA*'s planner over a per-day size series, without building
/// real indexes. `sizes[t]` is the index size of day `t + 1`; the
/// simulation runs a start over the first `W` days and a transition
/// for each remaining day.
///
/// This is the engine behind Figure 11 and the Theorem 1-3 property
/// tests; it makes exactly the executed scheme's decisions, because it
/// runs the same planner.
///
/// ```
/// use wave_index::schemes::wata::{max_length_bound, simulate_wata_star_sizes};
///
/// // Uniform day sizes: the peak length meets the Theorem 2 bound.
/// let sizes = vec![1.0; 60];
/// let sim = simulate_wata_star_sizes(&sizes, 10, 4);
/// assert_eq!(sim.max_length, max_length_bound(10, 4));
/// assert_eq!(sim.max_length, 12);
/// ```
pub fn simulate_wata_star_sizes(sizes: &[f64], window: u32, fan: usize) -> WataSimOutcome {
    assert!(fan >= 2, "WATA needs at least two indexes");
    assert!(
        sizes.len() >= window as usize,
        "need at least W days of sizes"
    );
    let planner = Planner::new(SchemeKind::WataStar, &SchemeConfig::new(window, fan))
        .expect("WATA* supports 2 <= n <= W");
    // Summed slot by slot, each in ascending day order.
    let size = |state: &ClusterState| -> f64 {
        state
            .slots
            .iter()
            .map(|days| days.iter().map(|d| sizes[d.0 as usize - 1]).sum::<f64>())
            .sum()
    };
    let mut state = ClusterState::new(fan);
    state.apply(&planner.start());
    let mut max_length = state.length() as u32;
    let mut max_size = size(&state);
    for t in (window + 1)..=sizes.len() as u32 {
        let plan = planner
            .plan(&state, Day(t))
            .expect("WATA* plans follow from its own states");
        state.apply(&plan);
        max_length = max_length.max(state.length() as u32);
        max_size = max_size.max(size(&state));
    }
    WataSimOutcome {
        max_length,
        max_size,
    }
}

#[cfg(test)]
mod tests {
    use wave_storage::Volume;

    use super::super::testutil::make_archive;
    use super::super::{Scheme, WaveScheme};
    use super::*;

    /// Reproduces Table 3 (W = 10, n = 4).
    #[test]
    fn table_3_transitions() {
        let mut vol = Volume::default();
        let mut s = SchemeKind::WataStar
            .build(SchemeConfig::new(10, 4))
            .unwrap();
        let archive = make_archive(16, 2);
        let rec = s.start(&mut vol, &archive).unwrap();
        assert_eq!(
            rec.constituents,
            vec![
                ("I1".into(), vec![Day(1), Day(2), Day(3)]),
                ("I2".into(), vec![Day(4), Day(5), Day(6)]),
                ("I3".into(), vec![Day(7), Day(8), Day(9)]),
                ("I4".into(), vec![Day(10)]),
            ]
        );
        // Days 11, 12: wait, adding to I4.
        let rec = s.transition(&mut vol, &archive, Day(11)).unwrap();
        assert_eq!(rec.constituents[3].1, vec![Day(10), Day(11)]);
        let rec = s.transition(&mut vol, &archive, Day(12)).unwrap();
        assert_eq!(rec.constituents[3].1, vec![Day(10), Day(11), Day(12)]);
        // Day 13: throw I1 away, restart it with d13.
        let rec = s.transition(&mut vol, &archive, Day(13)).unwrap();
        assert_eq!(
            rec.ops[0],
            WaveOp::Drop {
                target: "I1".into()
            }
        );
        assert_eq!(rec.constituents[0], ("I1".into(), vec![Day(13)]));
        // Day 14 adds to the restarted I1.
        let rec = s.transition(&mut vol, &archive, Day(14)).unwrap();
        assert_eq!(rec.constituents[0].1, vec![Day(13), Day(14)]);
        s.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    /// Reproduces Table 4 (the alternative clustering, W = 10, n = 4)
    /// and the length comparison the paper draws from it.
    #[test]
    fn table_4_transitions_and_length() {
        let mut vol = Volume::default();
        let cfg = SchemeConfig::new(10, 4);
        let planner = Planner::new(SchemeKind::WataStar, &cfg).unwrap();
        let mut s = Scheme::new(cfg, planner.with_wata_start(WataStart::Table4));
        let archive = make_archive(16, 2);
        let rec = s.start(&mut vol, &archive).unwrap();
        assert_eq!(
            rec.constituents,
            vec![
                ("I1".into(), vec![Day(1), Day(2), Day(3), Day(4)]),
                ("I2".into(), vec![Day(5), Day(6), Day(7)]),
                ("I3".into(), vec![Day(8), Day(9), Day(10)]),
                ("I4".into(), vec![]),
            ]
        );
        let mut max_len = s.wave().length();
        for d in 11..=16 {
            let rec = s.transition(&mut vol, &archive, Day(d)).unwrap();
            max_len = max_len.max(s.wave().length());
            if d <= 13 {
                // Days 11-13 accumulate in I4.
                assert_eq!(rec.constituents[3].1, (11..=d).map(Day).collect::<Vec<_>>());
            }
            if d == 14 {
                // Day 14 throws I1 away.
                assert_eq!(
                    rec.ops[0],
                    WaveOp::Drop {
                        target: "I1".into()
                    }
                );
                assert_eq!(rec.constituents[0].1, vec![Day(14)]);
            }
        }
        // Table 4's clustering peaks at 13 days; WATA*'s at 12.
        assert_eq!(max_len, 13);
        assert_eq!(max_length_bound(10, 4), 12);
        s.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn soft_window_covers_and_bounds_hold() {
        for (w, n) in [(10u32, 4usize), (7, 2), (7, 3), (12, 5), (5, 5)] {
            let mut vol = Volume::default();
            let mut s = SchemeKind::WataStar.build(SchemeConfig::new(w, n)).unwrap();
            let archive = make_archive(w + 40, 2);
            s.start(&mut vol, &archive).unwrap();
            let bound = max_length_bound(w, n);
            let mut seen_max = w;
            for d in (w + 1)..=(w + 40) {
                s.transition(&mut vol, &archive, Day(d)).unwrap();
                let covered = s.wave().covered_days();
                // Soft window: superset of the hard window…
                for day in (d - w + 1)..=d {
                    assert!(covered.contains(&Day(day)), "W={w},n={n}: {day} missing");
                }
                // …and length never exceeds the Theorem 2 bound.
                let len = s.wave().length() as u32;
                assert!(len <= bound, "W={w},n={n}: length {len} > bound {bound}");
                seen_max = seen_max.max(len);
                s.wave().check_disjoint().unwrap();
            }
            // The bound is tight: it is reached, not just approached.
            assert_eq!(seen_max, bound, "W={w},n={n}");
            s.release(&mut vol).unwrap();
            assert_eq!(vol.live_blocks(), 0);
        }
    }

    #[test]
    fn rejects_single_index() {
        assert!(SchemeKind::WataStar
            .build(SchemeConfig::new(10, 1))
            .is_err());
    }

    #[test]
    fn size_simulator_agrees_with_real_scheme() {
        let w = 10u32;
        let n = 4usize;
        let days = 30u32;
        // Uniform sizes: 1.0 per day; the real scheme's length per day
        // must match the simulator's tracking.
        let sizes = vec![1.0; days as usize];
        let sim = simulate_wata_star_sizes(&sizes, w, n);
        let mut vol = Volume::default();
        let mut s = SchemeKind::WataStar.build(SchemeConfig::new(w, n)).unwrap();
        let archive = make_archive(days, 2);
        s.start(&mut vol, &archive).unwrap();
        let mut real_max = s.wave().length() as u32;
        for d in (w + 1)..=days {
            s.transition(&mut vol, &archive, Day(d)).unwrap();
            real_max = real_max.max(s.wave().length() as u32);
        }
        assert_eq!(sim.max_length, real_max);
        assert_eq!(
            sim.max_size, real_max as f64,
            "uniform sizes: size == length"
        );
        s.release(&mut vol).unwrap();
    }

    #[test]
    fn theorem_2_exact_bound_in_simulator() {
        for (w, n) in [(10u32, 2usize), (10, 4), (30, 3), (7, 7), (100, 10)] {
            let sizes = vec![1.0; 5 * w as usize];
            let sim = simulate_wata_star_sizes(&sizes, w, n);
            assert_eq!(sim.max_length, max_length_bound(w, n), "W={w}, n={n}");
        }
    }

    #[test]
    fn theorem_3_competitive_ratio_under_spiky_sizes() {
        // A spiky series: the optimal peak is the max window sum M;
        // WATA* must stay within 2M.
        let mut sizes = Vec::new();
        for t in 0..120usize {
            sizes.push(if t % 7 == 3 { 10.0 } else { 1.0 });
        }
        for (w, n) in [(7u32, 2usize), (7, 4), (14, 3)] {
            let sim = simulate_wata_star_sizes(&sizes, w, n);
            let w_us = w as usize;
            let max_window: f64 = (0..=(sizes.len() - w_us))
                .map(|i| sizes[i..i + w_us].iter().sum())
                .fold(f64::MIN, f64::max);
            assert!(
                sim.max_size <= 2.0 * max_window + 1e-9,
                "W={w}, n={n}: {} > 2 × {max_window}",
                sim.max_size
            );
        }
    }
}
