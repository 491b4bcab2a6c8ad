//! Experiment harness reproducing every table and figure of the paper.
//!
//! One binary per artifact (run with `cargo run -p vardelay-bench --bin
//! <name> --release`):
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `fig2`   | Fig. 2(a,b,c): analytical vs Monte-Carlo delay histograms |
//! | `fig3`   | Fig. 3(a,b): modeling error vs #stages and vs correlation |
//! | `fig4`   | Fig. 4: permissible (μ, σ) design space |
//! | `fig5`   | Fig. 5(a,b,c): variability trends |
//! | `fig7`   | Fig. 7(a,b): balanced vs unbalanced ALU–Decoder pipeline |
//! | `fig8`   | Fig. 8: area-vs-delay curves of the three stages |
//! | `table1` | Table I: model vs MC for five pipeline configurations |
//! | `table2` | Table II: ensuring 80% yield with small area penalty |
//! | `table3` | Table III: area reduction at fixed 80% yield |
//!
//! `table2`/`table3` drive the engine's optimization campaigns
//! (`vardelay_engine::optimize`) — the same code path as
//! `vardelay optimize <spec.json>` — so their frontier search, baseline
//! and Monte-Carlo cross-check are the shared, tested implementations.
//!
//! The library half hosts the shared experiment fixtures (the calibrated
//! cell library, the Tables II/III ISCAS pipeline spec, the SSTA-to-core
//! pipeline conversion) and plain-text rendering helpers.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod fixtures;
pub mod render;

pub use fixtures::*;
