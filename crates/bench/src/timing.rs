//! Minimal std-only micro-benchmark harness.
//!
//! The workspace builds in offline environments with no access to
//! crates.io, so `criterion` is unavailable; the `benches/` targets use
//! this harness instead (`cargo bench` still runs them — each bench is a
//! plain `main` with `harness = false`).
//!
//! Methodology: warm up, then double the iteration count until the
//! measured wall time crosses a target window, and report mean ns/iter
//! over the final window. No statistics beyond the mean — these numbers
//! guide optimization, they are not publication-grade.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Measurement window: long enough to amortize timer noise on fast
/// closures, short enough that a full bench suite stays interactive.
const TARGET: Duration = Duration::from_millis(100);

/// Hard cap on iterations so constant-time closures terminate quickly.
const MAX_ITERS: u64 = 1 << 22;

/// Times `f` and prints one `group/id  mean-ns/iter` line.
///
/// Returns the measured mean nanoseconds per iteration, so callers that
/// want to compare two variants programmatically can.
#[expect(
    clippy::print_stdout,
    reason = "stdout is the micro-benchmark harness's one reporting channel"
)]
pub fn bench<R>(group: &str, id: &str, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..2 {
        black_box(f());
    }
    let mut iters: u64 = 1;
    let per_iter = loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt >= TARGET || iters >= MAX_ITERS {
            break dt.as_nanos() as f64 / iters as f64;
        }
        iters = iters.saturating_mul(2);
    };
    let label = format!("{group}/{id}");
    println!("{label:<48} {per_iter:>14.1} ns/iter");
    per_iter
}
