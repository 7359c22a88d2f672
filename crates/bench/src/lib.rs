//! # flux-bench
//!
//! Host of the runnable examples in the repository's `examples/`, the
//! cross-crate integration tests in `tests/`, and the `rpc_bench`
//! socket harness ([`rpc`], `BENCH_rpc.json`).
//!
//! The repository measures with two more harnesses, split by clock:
//! the `kap` binary (flux-kap) owns every virtual-time figure and
//! ablation, `flux-perf` (`crates/perf`, `BENCHMARK.json`) everything
//! wall-clock.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod rpc;
