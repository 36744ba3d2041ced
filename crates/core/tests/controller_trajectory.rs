//! Golden trajectory of the RNN controller across policy-gradient updates.
//!
//! The campaign goldens record too few episodes to reach a single update, so
//! this test pins the controller itself: for the full-backbone (85-decision)
//! and the frozen-header (25-decision) search spaces it runs 8 chunks of 5
//! sampled episodes with the default configuration, scores each episode with
//! a deterministic reward computed from its actions, and updates after every
//! chunk. Every episode's actions and `log_prob` bits, plus the final
//! first-step distribution bits, must match the committed fixture exactly.
//! Regenerate deliberately with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p fahana --test controller_trajectory
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use archspace::{SearchSpace, SpaceConfig};
use fahana::controller::{ControllerConfig, RnnController};

const CHUNKS: usize = 8;
const EPISODES_PER_CHUNK: usize = 5;

/// A reward in `[0, 1)` that depends on every action and its position.
fn reward(actions: &[usize]) -> f64 {
    let score: usize = actions
        .iter()
        .enumerate()
        .map(|(t, &a)| (a + 1) * (t % 7 + 1))
        .sum();
    (score % 97) as f64 / 97.0
}

fn trajectory(label: &str, slots: usize, out: &mut String) {
    let cards = SearchSpace::new(SpaceConfig::default(), slots).decision_cardinalities();
    let mut ctrl = RnnController::new(cards.clone(), ControllerConfig::default()).unwrap();
    writeln!(out, "{label} decisions={}", cards.len()).unwrap();
    for chunk in 0..CHUNKS {
        let mut batch = Vec::with_capacity(EPISODES_PER_CHUNK);
        for episode in 0..EPISODES_PER_CHUNK {
            let sample = ctrl.sample_episode().unwrap();
            let actions: Vec<String> = sample.actions.iter().map(|a| a.to_string()).collect();
            writeln!(
                out,
                "{label} chunk={chunk} episode={episode} log_prob={:#018x} actions={}",
                sample.log_prob.to_bits(),
                actions.join(",")
            )
            .unwrap();
            let r = reward(&sample.actions);
            batch.push((sample, r));
        }
        ctrl.update(&batch).unwrap();
    }
    let first: Vec<String> = ctrl
        .first_step_distribution()
        .unwrap()
        .iter()
        .map(|p| format!("{:#010x}", p.to_bits()))
        .collect();
    writeln!(out, "{label} first_step={}", first.join(",")).unwrap();
}

#[test]
fn controller_trajectory_matches_the_golden_file() {
    let mut rendered = String::new();
    trajectory("full", 17, &mut rendered);
    trajectory("frozen", 5, &mut rendered);
    assert!(rendered.starts_with("full decisions=85\n"));
    assert!(rendered.contains("frozen decisions=25\n"));

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/controller_trajectory.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let fixture = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}) — generate it with UPDATE_GOLDEN=1 cargo test -p fahana \
             --test controller_trajectory",
            path.display()
        )
    });
    assert_eq!(
        rendered, fixture,
        "controller trajectory drifted from the golden file"
    );
}
