//! Warehouse analytics over a sliding window (the paper's TPC-D case
//! study): a wave index on `LINEITEM(SUPPKEY)` for the last 30 days,
//! maintained with WATA* (the Section 6 pick when packed shadowing is
//! unavailable), answering the Q1 "Pricing Summary Report" daily.
//!
//! Run with `cargo run --example warehouse_tpcd`.

use wave_indices::prelude::*;
use wave_indices::workloads::{q1_pricing_summary, LineItemStore, TpcdGenerator};

fn main() {
    let window = 30u32;
    let fan = 10usize;
    let mut generator = TpcdGenerator::new(50, 200, 4242);
    let mut store = LineItemStore::new();
    let mut vol = Volume::default();
    let mut scheme = SchemeKind::WataStar
        .build(SchemeConfig::new(window, fan))
        .expect("valid config");

    // Load the first month.
    let mut archive = DayArchive::new();
    for d in 1..=window {
        let (rows, batch) = generator.day(Day(d));
        store.insert_all(&rows);
        archive.insert(batch);
    }
    scheme.start(&mut vol, &archive).expect("start");
    println!(
        "warehouse online: {} LINEITEM rows indexed over {} days",
        store.len(),
        scheme.wave().length()
    );

    // A week of nightly loads, each followed by the Q1 report.
    for d in (window + 1)..=(window + 7) {
        let (rows, batch) = generator.day(Day(d));
        store.insert_all(&rows);
        archive.insert(batch);
        let rec = scheme
            .transition(&mut vol, &archive, Day(d))
            .expect("transition");

        // Q1 over the business window (exactly the last 30 days; the
        // timed scan hides WATA*'s soft tail).
        let report = q1_pricing_summary(
            scheme.wave(),
            &mut vol,
            &store,
            TimeRange::between(Day(d - window + 1), Day(d)),
        )
        .expect("Q1");
        let total_rows: u64 = report.iter().map(|r| r.count).sum();
        println!(
            "day {d}: load {:<28} Q1 over {total_rows} rows, {} groups",
            rec.ops
                .iter()
                .map(|o| o.to_string())
                .collect::<Vec<_>>()
                .join("; "),
            report.len(),
        );

        // Expire base rows older than the soft window.
        store.prune_before(Day(d.saturating_sub(2 * window)));
    }

    // Print the final report like the benchmark does.
    let now = scheme.current_day().expect("started");
    let report = q1_pricing_summary(
        scheme.wave(),
        &mut vol,
        &store,
        TimeRange::between(Day(now.0 - window + 1), now),
    )
    .expect("Q1");
    println!("\nQ1 Pricing Summary Report (last {window} days)");
    println!(
        "{:>4} {:>6} {:>10} {:>16} {:>16} {:>16} {:>8}",
        "flag", "status", "sum_qty", "sum_base_$", "sum_disc_$", "sum_charge_$", "count"
    );
    for row in &report {
        println!(
            "{:>4} {:>6} {:>10} {:>16.2} {:>16.2} {:>16.2} {:>8}",
            row.return_flag,
            row.line_status,
            row.sum_qty,
            row.sum_base_price_cents as f64 / 100.0,
            row.sum_disc_price_dollars(),
            row.sum_charge_dollars(),
            row.count
        );
    }
    let rows: u64 = report.iter().map(|r| r.count).sum();
    assert_eq!(
        rows,
        window as u64 * 200,
        "every window row aggregated once"
    );

    scheme.release(&mut vol).expect("release");
    println!(
        "\ndone — simulated disk time {:.2}s",
        vol.stats().sim_seconds
    );
}
