//! SCAM-style copy detection over a one-week wave index.
//!
//! SCAM (the paper's own motivating system) indexes a week of Netnews
//! articles; authors submit a document, SCAM probes the index with its
//! word chunks, and articles sharing many chunks are flagged as
//! potential copies. Per the paper's Section 6 recommendation the
//! index is maintained with REINDEX at `n = 4`.
//!
//! Run with `cargo run --example scam_copy_detection`.

use std::collections::BTreeMap;

use wave_indices::prelude::*;
use wave_indices::workloads::ArticleGenerator;

/// Probes the wave index for every word of the query document and
/// scores candidate records by how many words they share.
fn copy_candidates(
    scheme: &dyn WaveScheme,
    vol: &mut Volume,
    words: &[SearchValue],
) -> BTreeMap<RecordId, usize> {
    let mut scores: BTreeMap<RecordId, usize> = BTreeMap::new();
    for word in words {
        let hits = scheme
            .wave()
            .index_probe(vol, word)
            .expect("probe succeeds");
        for entry in hits.entries {
            *scores.entry(entry.record).or_default() += 1;
        }
    }
    scores
}

fn main() {
    let window = 7u32;
    let fan = 4usize;
    let mut generator = ArticleGenerator::new(2_000, 120, 15, 2024);
    let mut vol = Volume::default();
    let mut scheme = SchemeKind::Reindex
        .build(SchemeConfig::new(window, fan))
        .expect("valid config");

    // Index the first week of articles.
    let mut archive = DayArchive::new();
    for d in 1..=window {
        archive.insert(generator.day_batch(Day(d)));
    }

    // Plant a "plagiarised" article on day 5: record 999_999 copies
    // the exact word sequence of a registered document.
    let registered: Vec<SearchValue> = (0..15).map(|i| ArticleGenerator::word(40 + i)).collect();
    {
        let batch = archive.get(Day(5)).expect("day 5 exists").clone();
        let mut records = batch.records;
        records.push(Record::with_values(
            RecordId(999_999),
            registered.iter().cloned(),
        ));
        archive.insert(DayBatch::new(Day(5), records));
    }
    scheme.start(&mut vol, &archive).expect("start");

    println!(
        "SCAM week online: {} entries across {} constituent indexes",
        scheme.wave().entry_count(),
        scheme.wave().iter().count()
    );

    // An author checks their registered document against the window.
    let scores = copy_candidates(scheme.as_ref(), &mut vol, &registered);
    let (&top, &count) = scores
        .iter()
        .max_by_key(|(_, &c)| c)
        .expect("some candidate");
    println!(
        "copy check: best candidate {top} shares {count}/{} chunks",
        registered.len()
    );
    assert_eq!(top, RecordId(999_999), "the planted copy is found");
    assert_eq!(count, registered.len(), "all chunks match");

    // Slide the window forward: after 7 more days the copy expires.
    for d in (window + 1)..=(2 * window) {
        archive.insert(generator.day_batch(Day(d)));
        scheme
            .transition(&mut vol, &archive, Day(d))
            .expect("transition");
    }
    let scores = copy_candidates(scheme.as_ref(), &mut vol, &registered);
    let leaked = scores.get(&RecordId(999_999)).copied().unwrap_or(0);
    println!("after the window slid a week, the copy has expired ({leaked} chunks remain indexed)");
    assert_eq!(leaked, 0, "hard window: expired data is gone");

    // Daily registration scan: check today's articles in one pass.
    let today = scheme.current_day().expect("started");
    let todays = scheme
        .wave()
        .timed_segment_scan(&mut vol, TimeRange::between(today, today))
        .expect("scan");
    println!(
        "registration scan of day {}: {} fresh entries checked",
        today.0,
        todays.entries.len()
    );

    scheme.release(&mut vol).expect("release");
    println!("done — simulated disk time {:.2}s", vol.stats().sim_seconds);
}
