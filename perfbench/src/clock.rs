//! The harness's single wall-clock source.

use std::time::Instant;

/// The current instant. Every timing in the harness goes through here.
pub fn now() -> Instant {
    // pgmr-lint: allow(wall-clock): a benchmark harness measures wall time by definition
    Instant::now()
}
