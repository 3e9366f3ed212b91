//! A Netnews search engine over a 35-day window (the paper's WSE case
//! study): DEL with a single constituent index and packed shadow
//! updating — the Section 6 recommendation when query volume is high.
//!
//! Two-word user queries are answered by intersecting probe results,
//! optionally restricted to "the past week".
//!
//! Run with `cargo run --example news_search_engine`.

use std::collections::BTreeSet;

use wave_indices::prelude::*;
use wave_indices::workloads::ArticleGenerator;

/// AND-query: records containing both words within `range`.
fn search(
    scheme: &dyn WaveScheme,
    vol: &mut Volume,
    w1: &SearchValue,
    w2: &SearchValue,
    range: TimeRange,
) -> Vec<RecordId> {
    let a: BTreeSet<RecordId> = scheme
        .wave()
        .timed_index_probe(vol, w1, range)
        .expect("probe")
        .entries
        .into_iter()
        .map(|e| e.record)
        .collect();
    let b: BTreeSet<RecordId> = scheme
        .wave()
        .timed_index_probe(vol, w2, range)
        .expect("probe")
        .entries
        .into_iter()
        .map(|e| e.record)
        .collect();
    a.intersection(&b).copied().collect()
}

fn main() {
    let window = 35u32;
    let mut generator = ArticleGenerator::new(3_000, 150, 12, 77);
    let mut vol = Volume::default();
    // DEL, n = 1, packed shadowing: one packed index, rebuilt by smart
    // copy each night; best for probe-heavy traffic.
    let mut scheme = SchemeKind::Del
        .build(SchemeConfig::new(window, 1).with_technique(UpdateTechnique::PackedShadow))
        .expect("valid config");

    let mut archive = DayArchive::new();
    for d in 1..=window {
        archive.insert(generator.day_batch(Day(d)));
    }
    scheme.start(&mut vol, &archive).expect("start");
    println!(
        "WSE online: {} articles' entries in one packed index ({} blocks)",
        scheme.wave().entry_count(),
        scheme.wave().blocks()
    );

    // A night of maintenance: the paper's transition.
    archive.insert(generator.day_batch(Day(window + 1)));
    let rec = scheme
        .transition(&mut vol, &archive, Day(window + 1))
        .expect("transition");
    println!(
        "nightly transition (smart copy): {:.2} simulated seconds, index stays packed: {}",
        rec.transition.sim_seconds,
        scheme.wave().iter().all(|(_, idx)| idx.is_packed())
    );

    // Users search. Popular words co-occur often under the Zipf law.
    let w1 = ArticleGenerator::word(1);
    let w2 = ArticleGenerator::word(2);
    let all_time = search(scheme.as_ref(), &mut vol, &w1, &w2, TimeRange::all());
    let now = scheme.current_day().expect("started");
    let past_week = search(
        scheme.as_ref(),
        &mut vol,
        &w1,
        &w2,
        TimeRange::between(Day(now.0 - 6), now),
    );
    println!(
        "query \"{w1} {w2}\": {} hits in the whole window, {} in the past week",
        all_time.len(),
        past_week.len()
    );
    assert!(past_week.len() <= all_time.len());
    assert!(
        past_week.iter().all(|id| all_time.contains(id)),
        "timed results are a subset"
    );

    // A rare word: few or no hits, still a single probe per index.
    let rare = ArticleGenerator::word(2_999);
    let rare_hits = scheme.wave().index_probe(&mut vol, &rare).expect("probe");
    println!(
        "rare word \"{rare}\": {} hits ({} index accessed)",
        rare_hits.entries.len(),
        rare_hits.indexes_accessed
    );

    scheme.release(&mut vol).expect("release");
    assert_eq!(vol.live_blocks(), 0);
    println!("done — simulated disk time {:.2}s", vol.stats().sim_seconds);
}
