//! Fixture: a pool dispatch reachable from inside a pool job closure
//! fires `nested-pool-run` with the origin and the chain to the inner
//! dispatcher; one in the branch after a logical or does not.

pub fn outer(pool: &WorkerPool) {
    let jobs = sources().iter().map(|x| helper(x));
    pool.run(jobs);
}

fn helper(x: u32) {
    nested(x);
}

fn nested(x: u32) {
    crate::pool::global().run(jobs_for(x));
}

/// A logical or is no closure head: the dispatch in the `else` branch runs
/// on the caller's thread.
pub fn either(pool: &WorkerPool, inline: bool, small: bool) {
    if inline || small {
        helper(1);
    } else {
        pool.run(jobs_for(2));
    }
}
