//! Tables 1-7: the paper's worked transition examples, regenerated by
//! running the real schemes.
//!
//! Each table shows, for days 10 through 16 (W = 10), the operations a
//! scheme executes and the time-sets of its constituent and temporary
//! indexes afterwards — exactly the format of the paper's examples.
//! The same states are asserted by golden tests inside `wave-index`.

use wave_index::prelude::*;
use wave_index::schemes::wata::{max_length_bound, WataStart};
use wave_index::schemes::{Planner, Scheme, SchemeKind, TransitionRecord};

fn fmt_days(days: &[Day]) -> String {
    let inner: Vec<String> = days.iter().map(|d| format!("d{}", d.0)).collect();
    format!("{{{}}}", inner.join(","))
}

fn print_record(rec: &TransitionRecord) {
    print!("day {:>2} | ", rec.day.0);
    let ops: Vec<String> = rec.ops.iter().map(|op| op.to_string()).collect();
    print!("{:<58} |", ops.join("; "));
    for (label, days) in &rec.constituents {
        print!(" {label}={}", fmt_days(days));
    }
    for (label, days) in &rec.temps {
        print!(" {label}={}", fmt_days(days));
    }
    println!();
}

fn demo_archive(last_day: u32) -> DayArchive {
    let mut archive = DayArchive::new();
    for d in 1..=last_day {
        archive.insert(DayBatch::new(
            Day(d),
            vec![Record::with_values(
                RecordId(d as u64),
                [SearchValue::from_u64(d as u64 % 3)],
            )],
        ));
    }
    archive
}

fn run_scheme(
    title: &str,
    mut scheme: Box<dyn WaveScheme>,
    window: u32,
    fan: usize,
    last_day: u32,
) {
    println!("\n=== {title} (W = {window}, n = {fan}) ===");
    let archive = demo_archive(last_day);
    let mut vol = Volume::default();
    let rec = scheme.start(&mut vol, &archive).expect("start");
    print_record(&rec);
    for d in (window + 1)..=last_day {
        let rec = scheme
            .transition(&mut vol, &archive, Day(d))
            .expect("transition");
        print_record(&rec);
    }
    scheme.release(&mut vol).expect("release");
}

fn run(title: &str, kind: SchemeKind, window: u32, fan: usize, last_day: u32) {
    let scheme = kind
        .build(SchemeConfig::new(window, fan))
        .expect("valid config");
    run_scheme(title, scheme, window, fan, last_day);
}

fn main() {
    run("Table 1: DEL", SchemeKind::Del, 10, 2, 13);
    run("Table 2: REINDEX", SchemeKind::Reindex, 10, 2, 13);
    run("Table 3: WATA", SchemeKind::WataStar, 10, 4, 16);
    let cfg = SchemeConfig::new(10, 4);
    let planner = Planner::new(SchemeKind::WataStar, &cfg).expect("valid config");
    run_scheme(
        "Table 4: WATA (alternative clustering)",
        Box::new(Scheme::new(cfg, planner.with_wata_start(WataStart::Table4))),
        10,
        4,
        16,
    );
    run("Table 5: REINDEX+", SchemeKind::ReindexPlus, 10, 2, 16);
    run("Table 6: REINDEX++", SchemeKind::ReindexPlusPlus, 10, 2, 16);
    run("Table 7: RATA", SchemeKind::RataStar, 10, 4, 16);

    println!("\n=== Length comparison (Section 3.3) ===");
    println!(
        "WATA* (Table 3 clustering) peaks at length {}; the Table 4 clustering at 13.",
        max_length_bound(10, 4)
    );
}
