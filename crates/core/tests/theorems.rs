//! Randomised tests for the paper's theorems (Section 3.3, Appendix B).
//!
//! Each test sweeps many seeded-random instances (deterministic via
//! [`SplitMix64`]) in place of an external property-testing framework.

use wave_obs::SplitMix64;

use wave_index::schemes::offline::{family_peak_size, max_window_size, offline_optimal_max_size};
use wave_index::schemes::wata::{max_length_bound, simulate_wata_star_sizes, WataSimOutcome};

fn random_sizes(rng: &mut SplitMix64, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| lo + rng.next_f64() * (hi - lo)).collect()
}

/// Theorems 1-2: with uniform day sizes, WATA*'s maximum length is
/// exactly `W + ceil((W-1)/(n-1)) - 1` — the optimum for the
/// wait-and-throw-away family.
#[test]
fn theorem_1_2_max_length_is_tight() {
    let mut rng = SplitMix64::new(0x7E00_0012);
    for _ in 0..128 {
        let window = rng.range_u32(2, 59);
        let fan = 2 + rng.range_usize(0, 9).min(window as usize - 2);
        let sizes = vec![1.0; (6 * window) as usize];
        let WataSimOutcome { max_length, .. } = simulate_wata_star_sizes(&sizes, window, fan);
        assert_eq!(
            max_length,
            max_length_bound(window, fan),
            "W={window} n={fan}"
        );
    }
}

/// Theorem 3: over arbitrary non-negative day sizes, WATA*'s peak
/// index size never exceeds twice the largest W-day window — the
/// floor every scheme (even offline-optimal) must store.
#[test]
fn theorem_3_competitive_ratio_two() {
    let mut rng = SplitMix64::new(0x7E00_0003);
    for _ in 0..96 {
        let window = rng.range_u32(2, 19);
        let fan = 2 + rng.range_usize(0, 5).min(window as usize - 2);
        let len = rng.range_usize(40, 119).max(window as usize);
        let sizes = random_sizes(&mut rng, len, 0.01, 100.0);
        let sim = simulate_wata_star_sizes(&sizes, window, fan);
        let floor = max_window_size(&sizes, window);
        assert!(
            sim.max_size <= 2.0 * floor + 1e-9,
            "W={window} n={fan}: WATA* {} > 2 x {floor}",
            sim.max_size
        );
    }
}

/// Sharper than Theorem 3 on small instances: WATA* stays within
/// twice the *exhaustively computed* offline optimum.
#[test]
fn theorem_3_vs_exhaustive_optimum() {
    let mut rng = SplitMix64::new(0x7E00_0033);
    for _ in 0..48 {
        let window = rng.range_u32(3, 5);
        let fan = 2usize;
        let len = rng.range_usize(10, 14).max(window as usize);
        let sizes = random_sizes(&mut rng, len, 0.1, 50.0);
        let sim = simulate_wata_star_sizes(&sizes, window, fan);
        let opt = offline_optimal_max_size(&sizes, window, fan);
        assert!(
            sim.max_size <= 2.0 * opt + 1e-9,
            "W={window}: WATA* {} > 2 x OPT {opt}",
            sim.max_size
        );
        // And the optimum itself respects the window floor.
        assert!(opt >= max_window_size(&sizes, window) - 1e-9);
    }
}

/// Every schedule in the WATA family stores at least the window:
/// the feasibility checker's peak is never below the floor.
#[test]
fn family_schedules_respect_the_floor() {
    let mut rng = SplitMix64::new(0x7E00_00F1);
    for _ in 0..96 {
        let window = rng.range_u32(2, 7);
        let len = rng.range_usize(12, 19).max(window as usize);
        let sizes = random_sizes(&mut rng, len, 0.1, 10.0);
        let boundaries: Vec<wave_index::Day> = (0..len)
            .filter(|_| rng.gen_bool(0.5))
            .map(|i| wave_index::Day(i as u32 + 1))
            .collect();
        if let Some(peak) = family_peak_size(&sizes, window, 4, &boundaries) {
            assert!(peak >= max_window_size(&sizes, window) - 1e-9);
        }
    }
}

/// The bound formula itself: spot values from the paper.
#[test]
fn max_length_bound_examples() {
    // Table 3's example: W = 10, n = 4 → length 12.
    assert_eq!(max_length_bound(10, 4), 12);
    // W = 10, n = 2 → 10 + 9 - 1 = 18.
    assert_eq!(max_length_bound(10, 2), 18);
    // n = W: one extra day at most… bound = W + 1 - 1 = W.
    assert_eq!(max_length_bound(7, 7), 7);
}

mod budgeted_props {
    use super::random_sizes;
    use wave_index::schemes::budgeted::simulate_budgeted_wata;
    use wave_index::schemes::offline::max_window_size;
    use wave_obs::SplitMix64;

    /// The budgeted (Kleinberg-style) variant keeps its
    /// `M·n/(n−1)` guarantee — up to one day's granularity — on
    /// arbitrary volume series, forced-growth days included.
    #[test]
    fn budgeted_wata_bound_holds() {
        let mut rng = SplitMix64::new(0x7E00_00B1);
        for _ in 0..96 {
            let window = rng.range_u32(3, 11);
            let fan = 2 + rng.range_usize(0, 5).min(window as usize - 2);
            let len = rng.range_usize(30, 89).max(window as usize);
            let sizes = random_sizes(&mut rng, len, 0.05, 30.0);
            let m = max_window_size(&sizes, window);
            let out = simulate_budgeted_wata(&sizes, window, fan, m);
            let max_day = sizes.iter().copied().fold(0.0f64, f64::max);
            let bound = m * fan as f64 / (fan - 1) as f64 + max_day;
            assert!(
                out.sim.max_size <= bound + 1e-9,
                "W={window}, n={fan}: {} > {bound} (forced {})",
                out.sim.max_size,
                out.forced_growth_days
            );
        }
    }
}
