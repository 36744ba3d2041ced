//! `fahana-evalbench` — records the evaluation-hot-path before/after
//! numbers into `BENCH_eval.json`.
//!
//! Two measurement families:
//!
//! 1. **Kernels** — each lane-chunked kernel timed against the retained
//!    scalar reference implementation (`ftensor::kernels::reference`),
//!    which preserves the pre-refactor accumulation order bit for bit, so
//!    the pair is a live before/after of the same computation.
//! 2. **Forward pass** — a FaHaNa-style Dense/ReLU stack timed through the
//!    allocating `forward` path vs the scratch-arena `forward_scratch`
//!    path, with the arena's allocation/reuse counters asserting that the
//!    steady state allocates nothing.
//!
//! Campaign wall clock is fbench's job (`fbench/run.py --workload
//! campaign`), which also breaks the grid down by layer.
//!
//! Usage: `fahana-evalbench [--out BENCH_eval.json] [--iters N]`

use std::time::Instant;

use fahana_runtime::Json;
use ftensor::{kernels, Scratch, SeededRng, Tensor};
use neural::{Dense, Layer, Relu, Sequential};

/// Mean wall-clock nanoseconds per call of `f` over `iters` timed runs
/// (after one untimed warm-up).
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters.max(1))
}

fn values(len: usize, rng: &mut SeededRng) -> Vec<f32> {
    (0..len).map(|_| rng.normal(0.0, 1.0)).collect()
}

fn pair(name: &str, before_ns: f64, after_ns: f64) -> (String, Json) {
    let speedup = if after_ns > 0.0 {
        before_ns / after_ns
    } else {
        0.0
    };
    (
        name.to_string(),
        Json::Obj(vec![
            ("before_ns".into(), Json::Num(before_ns)),
            ("after_ns".into(), Json::Num(after_ns)),
            ("speedup".into(), Json::Num(speedup)),
        ]),
    )
}

fn kernel_pairs(iters: u32) -> Vec<(String, Json)> {
    let mut rng = SeededRng::new(42);
    let mut out = Vec::new();

    let (m, k, n) = (64usize, 64usize, 64usize);
    let a = values(m * k, &mut rng);
    let b = values(k * n, &mut rng);
    let mut buf = vec![0.0f32; m * n];
    let before = time_ns(iters, || {
        buf.iter_mut().for_each(|v| *v = 0.0);
        kernels::reference::matmul_into(&a, &b, &mut buf, m, k, n);
        std::hint::black_box(buf[0]);
    });
    let after = time_ns(iters, || {
        buf.iter_mut().for_each(|v| *v = 0.0);
        kernels::matmul_into(&a, &b, &mut buf, m, k, n);
        std::hint::black_box(buf[0]);
    });
    out.push(pair("matmul_64x64x64", before, after));

    let (rows, cols) = (256usize, 64usize);
    let logits = values(rows * cols, &mut rng);
    let mut probs = vec![0.0f32; rows * cols];
    let before = time_ns(iters, || {
        kernels::reference::softmax_into(&logits, &mut probs, rows, cols);
        std::hint::black_box(probs[0]);
    });
    let after = time_ns(iters, || {
        kernels::softmax_into(&logits, &mut probs, rows, cols);
        std::hint::black_box(probs[0]);
    });
    out.push(pair("softmax_256x64", before, after));

    let x = values(4096, &mut rng);
    let y = values(4096, &mut rng);
    let before = time_ns(iters * 8, || {
        std::hint::black_box(kernels::reference::dot(&x, &y));
    });
    let after = time_ns(iters * 8, || {
        std::hint::black_box(kernels::dot(&x, &y));
    });
    out.push(pair("dot_4096", before, after));

    out
}

/// Times an inference pass of a Dense/ReLU stack through the allocating
/// and the scratch-arena paths, returning the JSON pair plus the arena's
/// steady-state counters.
fn forward_pair(iters: u32) -> ((String, Json), Json) {
    let mut rng = SeededRng::new(7);
    let mut stack = Sequential::new();
    stack.push(Box::new(Dense::new(64, 128, &mut rng)));
    stack.push(Box::new(Relu::new()));
    stack.push(Box::new(Dense::new(128, 64, &mut rng)));
    stack.push(Box::new(Relu::new()));
    stack.push(Box::new(Dense::new(64, 8, &mut rng)));
    let input = Tensor::from_vec(values(32 * 64, &mut rng), &[32, 64]).expect("input");

    let before = time_ns(iters, || {
        std::hint::black_box(stack.forward(&input, false).expect("forward"));
    });

    let mut scratch = Scratch::new();
    // prime the arena so the timed loop is pure steady state
    let primed = stack
        .forward_scratch(&input, false, &mut scratch)
        .expect("forward_scratch");
    scratch.release_tensor(primed);
    let allocations_after_priming = scratch.allocations();
    let after = time_ns(iters, || {
        let out = stack
            .forward_scratch(&input, false, &mut scratch)
            .expect("forward_scratch");
        std::hint::black_box(out.as_slice()[0]);
        scratch.release_tensor(out);
    });
    assert_eq!(
        scratch.allocations(),
        allocations_after_priming,
        "steady-state forward_scratch must not allocate"
    );

    let counters = Json::Obj(vec![
        (
            "allocations".into(),
            Json::Int(scratch.allocations() as i64),
        ),
        ("reuses".into(), Json::Int(scratch.reuses() as i64)),
        ("steady_state_allocations".into(), Json::Int(0)),
    ]);
    (pair("dense_stack_forward_32x64", before, after), counters)
}

fn main() {
    let mut out_path = String::from("BENCH_eval.json");
    let mut iters: u32 = 2000;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--iters" => {
                iters = args
                    .next()
                    .expect("--iters needs a number")
                    .parse()
                    .expect("--iters must be an integer")
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: fahana-evalbench [--out PATH] [--iters N]");
                std::process::exit(2);
            }
        }
    }

    eprintln!("fahana-evalbench: timing kernels ({iters} iters per pair)...");
    let kernels_json = kernel_pairs(iters);
    eprintln!("fahana-evalbench: timing forward pass...");
    let (forward_json, scratch_json) = forward_pair(iters);

    let mut sections = kernels_json;
    sections.push(forward_json);
    let report = Json::Obj(vec![
        ("schema".into(), Json::str("fahana-evalbench/v1")),
        ("iters".into(), Json::Int(i64::from(iters))),
        ("pairs".into(), Json::Obj(sections)),
        ("scratch".into(), scratch_json),
    ]);

    std::fs::write(&out_path, report.render() + "\n").expect("write bench report");
    eprintln!("fahana-evalbench: wrote {out_path}");
    for (name, entry) in match &report {
        Json::Obj(fields) => match fields.iter().find(|(k, _)| k == "pairs") {
            Some((_, Json::Obj(pairs))) => pairs.clone(),
            _ => Vec::new(),
        },
        _ => Vec::new(),
    } {
        eprintln!("  {name}: {}", entry.render());
    }
}
