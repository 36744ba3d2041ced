//! Table 4 — compatibility of FaHaNa with data-balancing techniques
//! (5× more minority data, following the paper's reference \[18\]).
//!
//! Regenerate with `cargo run -p fahana-bench --bin table4`.

use archspace::zoo::{self, ReferenceModel};
use dermsim::{balance_dataset, BalancingConfig, DermatologyConfig, DermatologyGenerator};
use evaluator::{Evaluate, SurrogateEvaluator};
use fahana_bench::{pct, rule, CLASSES, INPUT_SIZE};

fn main() {
    println!("Table 4: accuracy/unfairness without and with 5x minority data balancing");

    // build the unbalanced and balanced datasets so the imbalance ratios fed
    // to the evaluator come from real dataset statistics
    let generator = DermatologyGenerator::new(DermatologyConfig {
        samples: 1200,
        image_size: 8,
        minority_fraction: 0.15,
        ..DermatologyConfig::default()
    });
    let unbalanced = generator.generate();
    let balanced = balance_dataset(&unbalanced, &generator, BalancingConfig::default());
    let ratio_before = unbalanced.stats().imbalance_ratio as f64;
    let ratio_after = balanced.stats().imbalance_ratio as f64;
    println!(
        "dataset imbalance ratio: {ratio_before:.2} (unbalanced) -> {ratio_after:.2} (after 5x minority augmentation)"
    );
    println!();
    println!(
        "{:<18} {:>8} {:>8} | {:>8} {:>9} {:>8} {:>9}",
        "Model", "Acc", "Unfair", "Acc(bal)", "AccImpr", "Unf(bal)", "UnfImpr"
    );
    rule(84);

    let mut archs = vec![
        zoo::reference_architecture(ReferenceModel::MobileNetV2, CLASSES, INPUT_SIZE),
        zoo::reference_architecture(ReferenceModel::ProxylessNasMobile, CLASSES, INPUT_SIZE),
        zoo::reference_architecture(ReferenceModel::MnasNet05, CLASSES, INPUT_SIZE),
        zoo::reference_architecture(ReferenceModel::MobileNetV3Small, CLASSES, INPUT_SIZE),
        zoo::reference_architecture(ReferenceModel::MnasNet10, CLASSES, INPUT_SIZE),
    ];
    archs.push(zoo::paper_fahana_small(CLASSES, INPUT_SIZE));

    let mut fairest_balanced: Option<(String, f64)> = None;
    for arch in &archs {
        let mut before_eval = SurrogateEvaluator::default().with_imbalance_ratio(ratio_before);
        let mut after_eval = SurrogateEvaluator::default().with_imbalance_ratio(ratio_after);
        let before = before_eval.evaluate(arch).expect("evaluates");
        let after = after_eval.evaluate(arch).expect("evaluates");
        println!(
            "{:<18} {:>8} {:>8.4} | {:>8} {:>8.2}% {:>8.4} {:>9.4}",
            arch.name(),
            pct(before.accuracy()),
            before.unfairness(),
            pct(after.accuracy()),
            (after.accuracy() - before.accuracy()) * 100.0,
            after.unfairness(),
            before.unfairness() - after.unfairness(),
        );
        if fairest_balanced
            .as_ref()
            .map(|(_, u)| after.unfairness() < *u)
            .unwrap_or(true)
        {
            fairest_balanced = Some((arch.name().to_string(), after.unfairness()));
        }
    }
    rule(84);
    if let Some((name, unfairness)) = fairest_balanced {
        println!("fairest model after balancing: {name} (unfairness {unfairness:.4})");
    }
    println!(
        "Shape to check (paper): balancing improves fairness for every model and accuracy for"
    );
    println!("almost all of them, and FaHaNa-Small remains the fairest model after balancing.");
}
