//! Real wall-clock cost of one daily transition per scheme.
//!
//! Complements the simulated-seconds figures: the relative ordering of
//! the schemes' CPU work (REINDEX rebuilding a whole cluster vs
//! DEL/WATA/RATA touching one day) should mirror the paper's
//! transition-time analysis (Figure 4).

use wave_bench::Group;
use wave_index::prelude::*;
use wave_index::schemes::SchemeKind;
use wave_workloads::ArticleGenerator;

fn archive_for(days: u32) -> DayArchive {
    let mut generator = ArticleGenerator::new(1_000, 40, 10, 77);
    let mut archive = DayArchive::new();
    for d in 1..=days {
        archive.insert(generator.day_batch(Day(d)));
    }
    archive
}

fn bench_transitions() {
    let (w, n) = (10u32, 2usize);
    let mut group = Group::new("transition");
    for kind in SchemeKind::ALL {
        group.bench_batched(
            &format!("W10_n2/{}", kind.name()),
            || {
                // Fresh scheme advanced into steady state.
                let archive = archive_for(w + 6);
                let mut vol = Volume::default();
                let mut scheme = kind.build(SchemeConfig::new(w, n)).unwrap();
                scheme.start(&mut vol, &archive).unwrap();
                for d in (w + 1)..=(w + 5) {
                    scheme.transition(&mut vol, &archive, Day(d)).unwrap();
                }
                (vol, scheme, archive)
            },
            |(mut vol, mut scheme, archive)| {
                scheme.transition(&mut vol, &archive, Day(w + 6)).unwrap();
                (vol, scheme)
            },
        );
    }
}

fn bench_update_techniques() {
    let (w, n) = (8u32, 2usize);
    let mut group = Group::new("technique");
    for technique in [
        UpdateTechnique::InPlace,
        UpdateTechnique::SimpleShadow,
        UpdateTechnique::PackedShadow,
    ] {
        group.bench_batched(
            &format!("DEL_W8_n2/{}", technique.name()),
            || {
                let archive = archive_for(w + 2);
                let mut vol = Volume::default();
                let mut scheme = SchemeKind::Del
                    .build(SchemeConfig::new(w, n).with_technique(technique))
                    .unwrap();
                scheme.start(&mut vol, &archive).unwrap();
                scheme.transition(&mut vol, &archive, Day(w + 1)).unwrap();
                (vol, scheme, archive)
            },
            |(mut vol, mut scheme, archive)| {
                scheme.transition(&mut vol, &archive, Day(w + 2)).unwrap();
                (vol, scheme)
            },
        );
    }
}

fn bench_rata_modes() {
    use wave_index::schemes::{Planner, RataMode, Scheme};
    let (w, n) = (12u32, 4usize);
    let mut group = Group::new("rata_mode");
    for (label, mode) in [("eager", RataMode::Eager), ("spread", RataMode::Spread)] {
        group.bench_batched(
            label,
            || {
                let archive = archive_for(w + 10);
                let mut vol = Volume::default();
                let cfg = SchemeConfig::new(w, n);
                let planner = Planner::new(SchemeKind::RataStar, &cfg).unwrap();
                let mut scheme = Scheme::new(cfg, planner.with_rata_mode(mode));
                scheme.start(&mut vol, &archive).unwrap();
                (vol, scheme, archive)
            },
            |(mut vol, mut scheme, archive)| {
                // A full cycle of transitions: spread mode should
                // show flatter per-day work.
                for d in (w + 1)..=(w + 10) {
                    scheme.transition(&mut vol, &archive, Day(d)).unwrap();
                }
                (vol, scheme)
            },
        );
    }
}

fn main() {
    bench_transitions();
    bench_update_techniques();
    bench_rata_modes();
}
