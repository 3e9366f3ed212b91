//! Quickstart: maintain a 10-day sliding window with WATA* and query
//! it as days roll by.
//!
//! Run with `cargo run --example quickstart`.

use wave_indices::prelude::*;

fn day_batch(day: u32) -> DayBatch {
    // A few records per day; each record's search field carries two
    // word values (the paper's multi-valued field F).
    let words = ["walrus", "iceberg", "aurora", "fjord"];
    let records = (0..3u64)
        .map(|i| {
            let id = RecordId(day as u64 * 10 + i);
            let w1 = words[(day as usize + i as usize) % words.len()];
            let w2 = words[(day as usize + i as usize + 1) % words.len()];
            Record::with_values(id, [SearchValue::from(w1), SearchValue::from(w2)])
        })
        .collect();
    DayBatch::new(Day(day), records)
}

fn main() {
    let window = 10;
    let fan = 4;
    let mut vol = Volume::default();
    let mut scheme = SchemeKind::WataStar
        .build(SchemeConfig::new(window, fan))
        .expect("valid config");

    // Start: index the first W days.
    let mut archive = DayArchive::new();
    for d in 1..=window {
        archive.insert(day_batch(d));
    }
    scheme.start(&mut vol, &archive).expect("start");
    println!(
        "started: {} constituent indexes covering {} days",
        scheme.wave().iter().count(),
        scheme.wave().length()
    );

    // Slide the window one day at a time.
    for d in (window + 1)..=(window + 6) {
        archive.insert(day_batch(d));
        let record = scheme
            .transition(&mut vol, &archive, Day(d))
            .expect("transition");
        let ops: Vec<String> = record.ops.iter().map(|op| op.to_string()).collect();
        println!(
            "day {d}: {:<40} window now {} days ({} in soft tail)",
            ops.join("; "),
            scheme.wave().length(),
            scheme.wave().length() as u32 - window
        );
    }

    // IndexProbe: everything for one word.
    let hits = scheme
        .wave()
        .index_probe(&mut vol, &SearchValue::from("aurora"))
        .expect("probe");
    println!(
        "\n'aurora' appears in {} entries across {} constituent indexes",
        hits.entries.len(),
        hits.indexes_accessed
    );

    // TimedIndexProbe: only the last three days.
    let now = scheme.current_day().expect("started");
    let recent = scheme
        .wave()
        .timed_index_probe(
            &mut vol,
            &SearchValue::from("aurora"),
            TimeRange::between(Day(now.0 - 2), now),
        )
        .expect("timed probe");
    println!("…{} of them in the last three days", recent.entries.len());

    // TimedSegmentScan: every entry still inside the hard window.
    let window_scan = scheme
        .wave()
        .timed_segment_scan(&mut vol, TimeRange::between(Day(now.0 - window + 1), now))
        .expect("scan");
    println!(
        "segment scan over the window: {} entries, disk time so far {:.3} simulated seconds",
        window_scan.entries.len(),
        vol.stats().sim_seconds
    );

    scheme.release(&mut vol).expect("release");
    assert_eq!(vol.live_blocks(), 0, "all storage returned");
    println!("released cleanly — no leaked blocks");
}
