//! Table 2 — effectiveness of the freezing method: search-space size, valid
//! ratio and (modelled) search time of MONAS vs FaHaNa under a tight and a
//! relaxed timing constraint.
//!
//! Regenerate with `cargo run -p fahana-bench --bin table2`.

use fahana::{FahanaConfig, FahanaSearch, MonasConfig, MonasSearch, RewardConfig, SearchOutcome};
use fahana_bench::harness_search_config;

fn run_pair(tc_ms: f64, episodes: usize, seed: u64) -> (SearchOutcome, SearchOutcome) {
    let base = FahanaConfig {
        reward: RewardConfig {
            timing_constraint_ms: tc_ms,
            ..RewardConfig::default()
        },
        ..harness_search_config(episodes, seed)
    };
    let monas = MonasSearch::new(MonasConfig::matching(&base))
        .expect("monas config is valid")
        .run()
        .expect("monas search runs");
    let fahana = FahanaSearch::new(base)
        .expect("fahana config is valid")
        .run()
        .expect("fahana search runs");
    (monas, fahana)
}

fn print_block(label: &str, monas: &SearchOutcome, fahana: &SearchOutcome) {
    println!("-- {label} --");
    println!(
        "{:<8} {:>12} {:>9} {:>12} {:>9}",
        "Method", "Space", "Valid", "Time(model)", "Speedup"
    );
    let speedup = monas.modelled_search_hours / fahana.modelled_search_hours.max(1e-9);
    println!(
        "{:<8} {:>12} {:>9.2}% {:>12} {:>9.2}",
        "MONAS",
        format!("10^{:.0}", monas.space_log10_size),
        monas.valid_ratio * 100.0,
        monas.modelled_search_time,
        1.0
    );
    println!(
        "{:<8} {:>12} {:>9.2}% {:>12} {:>9.2}",
        "FaHaNa",
        format!("10^{:.0}", fahana.space_log10_size),
        fahana.valid_ratio * 100.0,
        fahana.modelled_search_time,
        speedup
    );
    println!(
        "  frozen blocks: MONAS {} vs FaHaNa {} (of the MobileNetV2 backbone)",
        monas.frozen_blocks, fahana.frozen_blocks
    );
    println!("Verdicts:");
    verdict(
        "FaHaNa's space is smaller",
        fahana.space_log10_size < monas.space_log10_size,
        format!(
            "10^{:.0} vs 10^{:.0}",
            fahana.space_log10_size, monas.space_log10_size
        ),
    );
    verdict(
        "FaHaNa's valid ratio is higher",
        fahana.valid_ratio > monas.valid_ratio,
        format!(
            "{:.2}% vs {:.2}%",
            fahana.valid_ratio * 100.0,
            monas.valid_ratio * 100.0
        ),
    );
    verdict(
        "FaHaNa's modelled search is faster (speedup > 1)",
        speedup > 1.0,
        format!("{speedup:.2}x"),
    );
}

/// Prints one paper claim with whether this run upholds it.
fn verdict(claim: &str, holds: bool, measured: String) {
    let mark = if holds { "pass" } else { "FAIL" };
    println!("  {mark}  {claim}: {measured}");
}

fn main() {
    let episodes = 150;
    println!("Table 2: effectiveness of the freezing method ({episodes} episodes per run)");
    println!(
        "Paper reference: MONAS 10^19 / 27.50% / 104H45M (tight), 33.33% / 177H15M (relaxed);"
    );
    println!("                 FaHaNa 10^9 / 71.05% / 57H10M / 1.83x (tight), 95.23% / 66H20M / 2.67x (relaxed)");
    println!();

    let (monas_tight, fahana_tight) = run_pair(1500.0, episodes, 41);
    print_block(
        "Tight timing constraint (TC = 1500 ms)",
        &monas_tight,
        &fahana_tight,
    );
    println!();
    let (monas_relaxed, fahana_relaxed) = run_pair(4000.0, episodes, 42);
    print_block(
        "Relaxed timing constraint (TC = 4000 ms)",
        &monas_relaxed,
        &fahana_relaxed,
    );
}
