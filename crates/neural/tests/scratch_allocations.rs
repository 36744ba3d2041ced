//! Steady-state inference through a `Scratch` arena allocates nothing.
//!
//! Once one pass of a Dense/ReLU stack has primed the arena, every later
//! `forward_scratch` pass must take all of its buffers from the pool, so
//! `Scratch::allocations()` stays where priming left it. The stack has the
//! shape `fahana-evalbench` times (64 → 128 → 64 → 8 at batch 32).

use ftensor::{Scratch, SeededRng, Tensor};
use neural::{Dense, Layer, Relu, Sequential};

#[test]
fn primed_forward_scratch_does_not_allocate() {
    let mut rng = SeededRng::new(7);
    let mut stack = Sequential::new();
    stack.push(Box::new(Dense::new(64, 128, &mut rng)));
    stack.push(Box::new(Relu::new()));
    stack.push(Box::new(Dense::new(128, 64, &mut rng)));
    stack.push(Box::new(Relu::new()));
    stack.push(Box::new(Dense::new(64, 8, &mut rng)));
    let values: Vec<f32> = (0..32 * 64).map(|i| (i % 17) as f32 * 0.1 - 0.8).collect();
    let input = Tensor::from_vec(values, &[32, 64]).unwrap();
    let expected = stack.forward(&input, false).unwrap();

    let mut scratch = Scratch::new();
    let primed = stack.forward_scratch(&input, false, &mut scratch).unwrap();
    scratch.release_tensor(primed);
    let after_priming = scratch.allocations();
    assert!(after_priming > 0, "priming must fill the arena");

    for pass in 0..16 {
        let out = stack.forward_scratch(&input, false, &mut scratch).unwrap();
        assert_eq!(out.as_slice(), expected.as_slice(), "pass {pass}");
        scratch.release_tensor(out);
        assert_eq!(
            scratch.allocations(),
            after_priming,
            "pass {pass}: steady-state forward_scratch allocated"
        );
    }
    assert!(scratch.reuses() > 0);
}
