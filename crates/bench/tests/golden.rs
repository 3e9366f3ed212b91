//! Paper-output golden test: every figure and table binary must print
//! exactly the committed stdout in `tests/golden/<bin>.txt`.
//!
//! The binaries are deterministic (seeded workloads, simulated disk),
//! so any byte of difference means a scheme, the simulator or the
//! analytic model changed behaviour. The `CSV written to …` line is
//! dropped before comparing, and each binary runs in a scratch
//! directory under the target dir so its `results/` CSVs never land in
//! the source tree.

use std::path::PathBuf;
use std::process::Command;

const BINARIES: [(&str, &str); 15] = [
    (
        "tables1_7_transitions",
        env!("CARGO_BIN_EXE_tables1_7_transitions"),
    ),
    ("tables8_11", env!("CARGO_BIN_EXE_tables8_11")),
    ("table12_params", env!("CARGO_BIN_EXE_table12_params")),
    ("fig03_scam_space", env!("CARGO_BIN_EXE_fig03_scam_space")),
    (
        "fig04_scam_transition",
        env!("CARGO_BIN_EXE_fig04_scam_transition"),
    ),
    ("fig05_scam_work", env!("CARGO_BIN_EXE_fig05_scam_work")),
    ("fig06_wse_work", env!("CARGO_BIN_EXE_fig06_wse_work")),
    ("fig07_tpcd_packed", env!("CARGO_BIN_EXE_fig07_tpcd_packed")),
    ("fig08_tpcd_simple", env!("CARGO_BIN_EXE_fig08_tpcd_simple")),
    ("fig09_scam_window", env!("CARGO_BIN_EXE_fig09_scam_window")),
    ("fig10_scam_scale", env!("CARGO_BIN_EXE_fig10_scam_scale")),
    (
        "fig11_wata_size_ratio",
        env!("CARGO_BIN_EXE_fig11_wata_size_ratio"),
    ),
    ("model_vs_sim", env!("CARGO_BIN_EXE_model_vs_sim")),
    ("summary_report", env!("CARGO_BIN_EXE_summary_report")),
    ("ext_budgeted_wata", env!("CARGO_BIN_EXE_ext_budgeted_wata")),
];

#[test]
fn paper_outputs_match_golden() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("paper-golden");
    std::fs::create_dir_all(&scratch).unwrap();
    let mut diverged = Vec::new();
    for (name, exe) in BINARIES {
        let out = Command::new(exe).current_dir(&scratch).output().unwrap();
        assert!(out.status.success(), "{name} failed: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let got: String = stdout
            .split_inclusive('\n')
            .filter(|line| !line.starts_with("CSV written to "))
            .collect();
        let want = std::fs::read_to_string(golden.join(format!("{name}.txt"))).unwrap();
        if got != want {
            diverged.push(format!("{name}:\n--- golden\n{want}\n+++ now\n{got}"));
        }
    }
    assert!(
        diverged.is_empty(),
        "{} paper output(s) changed:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}
