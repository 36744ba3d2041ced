//! `fahana-lint` — the project's in-repo invariant checker.
//!
//! The compiler cannot see the invariants this reproduction actually
//! rests on: bit-identical artifacts across sharding and caching,
//! fixed-order float reductions, and the reactor's hand-written `poll`
//! FFI layer. This crate enforces them statically, with its own
//! lightweight lexer (no `syn` — the build is offline) and a small rule
//! engine:
//!
//! | rule            | what it enforces                                        |
//! |-----------------|---------------------------------------------------------|
//! | `unsafe-comment`| every `unsafe` needs an adjacent `// SAFETY:` comment   |
//! | `ffi-allowlist` | extern decls restricted to the reviewed syscall list    |
//! | `hash-iter`     | no `HashMap`/`HashSet` in artifact-rendering modules    |
//! | `wall-clock`    | no `Instant::now`/`SystemTime::now` outside telemetry   |
//! | `panic`         | no `unwrap`/`expect`/`panic!` on the request path       |
//! | `lock-order`    | no lock pair acquired in both orders anywhere in tree   |
//! | `lock-blocking` | no blocking call while holding a lock                   |
//! | `stale-waiver`  | waivers that stop matching are errors (list only shrinks)|
//! | `waiver-syntax` | waivers need a known rule and a written reason          |
//!
//! Violations are fatal unless waived inline:
//!
//! ```text
//! // fahana-lint: allow(rule-id) reason the invariant still holds
//! ```
//!
//! Library consumers (the binary, the test suite) use [`lint_sources`]
//! for in-memory fixtures and [`lint_root`] for a directory tree.

pub mod config;
pub mod engine;
pub mod findings;
pub mod lexer;
pub mod rules;
pub mod waiver;

pub use config::Config;
pub use engine::{lint_root, lint_sources};
pub use findings::Report;
