//! Cross-crate integration tests: the full FaHaNa pipeline (dataset →
//! freezing → controller → evaluator → hardware constraint → reward) run end
//! to end with the surrogate evaluator.

use dermsim::DermatologyConfig;
use fahana::{FahanaConfig, FahanaSearch, MonasConfig, MonasSearch, RewardConfig};

fn test_config(episodes: usize, seed: u64) -> FahanaConfig {
    FahanaConfig {
        episodes,
        seed,
        dataset: DermatologyConfig {
            samples: 250,
            image_size: 8,
            ..DermatologyConfig::default()
        },
        ..FahanaConfig::default()
    }
}

#[test]
fn fahana_search_respects_hardware_and_accuracy_constraints() {
    let outcome = FahanaSearch::new(test_config(60, 1))
        .expect("config builds")
        .run()
        .expect("search runs");
    assert_eq!(outcome.history.len(), 60);
    for record in outcome.history.iter().filter(|r| r.valid) {
        assert!(
            record.latency_ms <= 1500.0,
            "valid child {} violates the timing constraint ({} ms)",
            record.name,
            record.latency_ms
        );
        assert!(record.accuracy >= 0.81);
        assert!(record.storage_mb <= 30.0);
        assert!(record.reward > -1.0);
    }
}

#[test]
fn fahana_finds_at_least_one_valid_architecture_in_a_moderate_run() {
    let outcome = FahanaSearch::new(test_config(120, 2))
        .expect("config builds")
        .run()
        .expect("search runs");
    assert!(
        outcome.best.is_some(),
        "120 episodes over the frozen-tail space should find a valid child (valid ratio {:.2})",
        outcome.valid_ratio
    );
    let best = outcome.best.unwrap();
    best.architecture
        .validate()
        .expect("discovered architecture is well-formed");
    // the discovered network must chain channels starting from the frozen
    // MobileNetV2 header
    assert_eq!(best.architecture.blocks().len(), 17);
}

#[test]
fn freezing_improves_valid_ratio_and_shrinks_space_versus_monas() {
    // Table 2's shape: same constraints, same episode budget.
    let fahana = FahanaSearch::new(test_config(80, 3))
        .expect("config builds")
        .run()
        .expect("search runs");
    let monas = MonasSearch::new(MonasConfig::matching(&test_config(80, 3)))
        .expect("config builds")
        .run()
        .expect("search runs");
    assert!(fahana.space_log10_size < monas.space_log10_size);
    assert!(
        fahana.valid_ratio >= monas.valid_ratio,
        "FaHaNa valid ratio {:.2} should not be below MONAS {:.2}",
        fahana.valid_ratio,
        monas.valid_ratio
    );
    // Per examined child, FaHaNa is cheaper by construction: its children
    // reuse the frozen pretrained header and train only the searched tail,
    // while every MONAS child trains end to end. (Whole-run time
    // additionally depends on how many children each method gets to train,
    // which is what the paper's Table 2 reports.)
    for record in fahana.history.iter().filter(|r| r.trained_params > 0) {
        assert!(
            record.trained_params < record.params,
            "FaHaNa child {} should train fewer params ({}) than its total ({})",
            record.name,
            record.trained_params,
            record.params
        );
    }
    for record in monas.history.iter().filter(|r| r.trained_params > 0) {
        assert_eq!(
            record.trained_params, record.params,
            "MONAS child {} trains end to end",
            record.name
        );
    }
    assert!(
        fahana.history.iter().any(|r| r.trained_params > 0),
        "the FaHaNa run should evaluate at least one child"
    );
}

#[test]
fn reward_shaping_controls_the_accuracy_fairness_tradeoff() {
    // larger beta should steer the search toward lower unfairness among the
    // discovered best networks (or at least not increase it), mirroring the
    // paper's alpha/beta knobs
    let mut balanced_cfg = test_config(100, 4);
    balanced_cfg.reward = RewardConfig {
        alpha: 1.0,
        beta: 1.0,
        ..RewardConfig::default()
    };
    let mut fairness_heavy_cfg = test_config(100, 4);
    fairness_heavy_cfg.reward = RewardConfig {
        alpha: 1.0,
        beta: 4.0,
        ..RewardConfig::default()
    };
    let balanced = FahanaSearch::new(balanced_cfg).unwrap().run().unwrap();
    let fairness_heavy = FahanaSearch::new(fairness_heavy_cfg)
        .unwrap()
        .run()
        .unwrap();
    if let (Some(a), Some(b)) = (&balanced.best, &fairness_heavy.best) {
        assert!(
            b.record.unfairness <= a.record.unfairness + 0.03,
            "beta=4 best unfairness {:.4} should not exceed beta=1 best {:.4} by much",
            b.record.unfairness,
            a.record.unfairness
        );
    }
}

#[test]
fn controller_learning_improves_reward_over_random_half() {
    // the mean reward of the second half of the search should be at least as
    // good as the first half — evidence the policy gradient is learning
    let outcome = FahanaSearch::new(test_config(160, 5))
        .expect("config builds")
        .run()
        .expect("search runs");
    let rewards: Vec<f64> = outcome.history.iter().map(|r| r.reward).collect();
    let half = rewards.len() / 2;
    let first: f64 = rewards[..half].iter().sum::<f64>() / half as f64;
    let second: f64 = rewards[half..].iter().sum::<f64>() / (rewards.len() - half) as f64;
    assert!(
        second >= first - 0.05,
        "second-half mean reward {second:.3} should not collapse below first-half {first:.3}"
    );
}
