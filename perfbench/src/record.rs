//! Everything a workload run measures, filled in as it goes.

use std::collections::BTreeMap;

use wave_index::prelude::Volume;
use wave_obs::{MetricValue, Obs};

use crate::stats::Samples;

/// Timed end-to-end series (day, probe, batch, scan, commit, recover).
const SERIES: usize = 6;

/// Failures kept verbatim for the report; the rest are only counted.
const KEPT_FAILURES: usize = 20;

/// Counter values of one registry at one moment.
#[derive(Debug, Default, Clone)]
pub struct Counts(pub BTreeMap<String, u64>);

impl Counts {
    pub fn of(obs: &Obs) -> Counts {
        Counts(
            obs.registry()
                .snapshot()
                .into_iter()
                .filter_map(|(name, v)| match v {
                    MetricValue::Counter(c) => Some((name, c)),
                    _ => None,
                })
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k)))
                .collect(),
        )
    }
}

#[derive(Default)]
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,

    // End-to-end series.
    pub setup_s: Samples,
    pub day_wall_ms: Samples,
    /// Simulated maintenance seconds of days after the first `W`
    /// transitions of a cell (steady state).
    pub day_sim_s: Samples,
    pub probe_wall_us: Samples,
    pub probe_sim_ms: Samples,
    pub batch_wall_us: Samples,
    pub scan_wall_us: Samples,
    pub commit_wall_ms: Samples,
    pub recover_wall_ms: Samples,

    // Storage accounting for the amplification ratios.
    pub user_bytes_ingested: u64,
    pub blocks_written: u64,
    pub store_bytes: u64,

    // Per-layer series and tallies.
    pub day_seeks: u64,
    pub day_blocks_written: u64,
    pub day_allocs: u64,
    pub per_scheme_wall: BTreeMap<&'static str, Samples>,
    pub per_tech_wall: BTreeMap<&'static str, Samples>,
    pub per_cell_sim: BTreeMap<(&'static str, &'static str), Samples>,
    pub precomp_sim_s: Samples,
    pub transition_sim_s: Samples,
    pub post_sim_s: Samples,
    pub pending_entries: Samples,
    pub probe_seeks: u64,
    pub probe_blocks_read: u64,
    pub indexes_accessed: u64,
    pub useful_entries: u64,
    pub bucket_entries: u64,
    pub commit_files: Samples,
    pub commit_puts: Samples,
    pub commit_store_bytes: Samples,
    pub commit_log_bytes: Samples,
    pub commit_store_ms: Samples,
    pub commit_self_ms: Samples,
    pub put_ms: Samples,
    pub recover_get_ms: Samples,
    pub encode_ms: Samples,
    pub fsck_ms: Samples,
    pub decode_ms: Samples,
    pub build_packed_ms: Samples,
    pub twin_batch_wall_us: Samples,
    pub server_probe_wall_us: Samples,
    pub fanout_overhead_us: Samples,
    pub batch_overhead_us: Samples,
    pub serial_s: f64,
    pub elapsed_s: f64,
    /// Per timed series, the (sum, count) of samples taken in the
    /// untraced `[0]` and traced `[1]` phases of a traced run.
    pub phase_sums: [[(f64, usize); SERIES]; 2],

    /// A volume nobody measures: lookups replayed against it leave the
    /// workload's registry untouched.
    pub scratch: Volume,
    /// Registry of the volumes recoveries load into.
    pub recover_obs: Obs,
}

impl Recorder {
    /// Counts a failed operation (wrong answer, error, leak).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what);
        }
    }

    /// The timed end-to-end series.
    fn series(&self) -> [&Samples; SERIES] {
        [
            &self.day_wall_ms,
            &self.probe_wall_us,
            &self.batch_wall_us,
            &self.scan_wall_us,
            &self.commit_wall_ms,
            &self.recover_wall_ms,
        ]
    }

    /// (sum, count) of every timed series, to start a phase with.
    pub fn phase_start(&self) -> [(f64, usize); SERIES] {
        self.series().map(|s| (s.sum(), s.len()))
    }

    /// Books the samples taken since `start` to the traced or the
    /// untraced side.
    pub fn book_phase(&mut self, traced: bool, start: [(f64, usize); SERIES]) {
        let now = self.phase_start();
        for (k, ((sum, n), (sum0, n0))) in now.into_iter().zip(start).enumerate() {
            let side = &mut self.phase_sums[traced as usize][k];
            side.0 += sum - sum0;
            side.1 += n - n0;
        }
    }

    /// Tracing overhead: what the run's timed operations would cost if
    /// every one were traced over what they would cost untraced, minus
    /// one. Each series is weighted by its total sample count, so
    /// phases with unequal mixes of operations compare fairly.
    pub fn trace_overhead(&self) -> f64 {
        let (mut on, mut off) = (0.0, 0.0);
        for (k, s) in self.series().iter().enumerate() {
            let [(off_sum, off_n), (on_sum, on_n)] = [self.phase_sums[0][k], self.phase_sums[1][k]];
            if off_n > 0 && on_n > 0 {
                on += s.len() as f64 * on_sum / on_n as f64;
                off += s.len() as f64 * off_sum / off_n as f64;
            }
        }
        crate::stats::ratio(on, off) - 1.0
    }

    /// Total wall seconds of every timed end-to-end operation.
    pub fn timed_s(&self) -> f64 {
        self.day_wall_ms.sum() / 1e3
            + (self.probe_wall_us.sum() + self.batch_wall_us.sum() + self.scan_wall_us.sum()) / 1e6
            + (self.commit_wall_ms.sum() + self.recover_wall_ms.sum()) / 1e3
    }
}
