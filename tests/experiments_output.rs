//! Integration checks of the experiment harness: every table regenerates
//! and carries its paper-anchored numbers.

use icnoc_bench::{e1, e10, e11, e12, e13, e2, e3, e4, e5, e6, e7, e8, e9};

#[test]
fn e1_contains_eq4_window() {
    let out = e1();
    assert!(out.contains("-540") && out.contains("380"), "{out}");
}

#[test]
fn e2_contains_eq7_budget_and_wire_band() {
    let out = e2();
    let one_ghz_row = out
        .lines()
        .find(|l| l.starts_with("1.0"))
        .expect("1 GHz row present");
    assert!(one_ghz_row.contains("380"), "{one_ghz_row}");
    assert!(one_ghz_row.contains("190"), "{one_ghz_row}");
}

#[test]
fn e3_fig7_anchors_and_monotone_decline() {
    let out = e3();
    assert!(out.contains("1.800"), "{out}");
    // Parse the frequency column and check strict decline.
    let freqs: Vec<f64> = out
        .lines()
        .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
        .filter_map(|l| l.split_whitespace().nth(1)?.parse().ok())
        .collect();
    assert!(freqs.len() >= 10, "{out}");
    for pair in freqs.windows(2) {
        assert!(pair[1] < pair[0], "curve not declining: {out}");
    }
}

#[test]
fn e4_matches_paper_router_numbers() {
    let out = e4();
    for needle in ["0.022", "0.010", "2.5", "1.5"] {
        assert!(out.contains(needle), "missing {needle}: {out}");
    }
}

#[test]
fn e5_area_is_linear_in_ports() {
    let out = e5();
    // The per-port column converges: last two rows agree to 3 decimals.
    let per_port: Vec<f64> = out
        .lines()
        .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
        .filter_map(|l| l.split_whitespace().last()?.parse().ok())
        .collect();
    let last = per_port.last().expect("rows exist");
    let prev = per_port[per_port.len() - 2];
    assert!((last - prev).abs() < 1e-3, "{out}");
}

#[test]
fn e6_tree_wins_hops_area_energy() {
    let out = e6();
    assert!(out.contains("11") && out.contains("15"), "{out}");
}

#[test]
fn e7_tradeoffs_have_both_router_kinds() {
    let out = e7();
    assert!(out.contains("binary"), "{out}");
    assert!(out.contains("quad"), "{out}");
    assert!(out.contains("16.5"), "binary worst-case 11x1.5: {out}");
    assert!(out.contains("12.5"), "quad worst-case 5x2.5: {out}");
}

#[test]
fn e8_stall_window_blocks_then_recovers() {
    let out = e8();
    assert!(out.contains("lost 0"), "{out}");
    let stalled = out
        .lines()
        .find(|l| l.starts_with("stalled"))
        .expect("stalled row");
    assert!(stalled.contains("0.00"), "{stalled}");
    let resumed = out
        .lines()
        .find(|l| l.starts_with("resumed"))
        .expect("resumed row");
    assert!(resumed.contains("1.00"), "{resumed}");
}

#[test]
fn e9_gating_tracks_idleness() {
    let out = e9();
    let one = out.lines().find(|l| l.starts_with("1 ")).expect("1% row");
    assert!(one.contains("99."), "{one}");
}

#[test]
fn e10_all_rows_verify_at_safe_frequency() {
    let out = e10();
    // Only the worst-case table (before the Monte-Carlo section) carries
    // the verified-at-safe-f column.
    let (worst_case, monte_carlo) = out
        .split_once("E10 (Monte-Carlo)")
        .expect("both sections render");
    let data_rows: Vec<&str> = worst_case
        .lines()
        .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
        .collect();
    assert!(data_rows.len() >= 7);
    for row in data_rows {
        assert!(row.trim_end().ends_with("true"), "{row}");
    }
    // Monte-Carlo rows exist and no die ever drops to zero.
    assert!(monte_carlo.contains("yield"), "{monte_carlo}");
    assert!(monte_carlo.contains("never to zero"), "{monte_carlo}");
}

#[test]
fn e11_demonstrator_is_correct_everywhere() {
    let out = e11();
    assert!(out.contains("64 ports"), "{out}");
    assert!(out.contains("timing safe"), "{out}");
    assert!(!out.contains("false"), "{out}");
}

#[test]
fn e12_icnoc_row_is_overhead_free() {
    let out = e12();
    let row = out
        .lines()
        .find(|l| l.starts_with("IC-NoC"))
        .expect("IC-NoC row");
    assert!(row.contains("0.000"), "{row}");
    assert!(row.contains("tree"), "{row}");
}

#[test]
fn e13_all_four_ablations_render() {
    let out = e13();
    for section in ["E13a", "E13b", "E13c", "E13d"] {
        assert!(out.contains(section), "missing {section}");
    }
    // Staggering must reduce the peak.
    assert!(out.contains("0.06x") || out.contains("0.05x"), "{out}");
}

/// Every table E1–E16, byte for byte, against the committed golden output.
/// Regenerate it only for an intended change to the numbers:
/// `cargo run --release -p icnoc-bench --bin tables > tests/golden/tables.txt`.
#[test]
fn tables_match_the_golden_output() {
    let golden = include_str!("golden/tables.txt");
    let out = icnoc_bench::run_all();
    for (i, (got, want)) in out.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {} of tests/golden/tables.txt", i + 1);
    }
    assert_eq!(out, golden);
}
