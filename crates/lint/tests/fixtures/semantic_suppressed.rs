//! Fixture: every semantic rule suppressed with a reasoned `allow`,
//! plus a `boundary` placing a documented allocating tier past the
//! hot-path frontier. Must lint clean — each directive consumed.

pub struct Engine;

impl Engine {
    pub fn forward_into(&mut self) {
        // pgmr-lint: allow(hot-path-alloc): fixture — demonstrates a reasoned on-site suppression
        let scratch: Vec<u32> = Vec::new();
        drop(scratch);
        self.marshal();
    }

    // pgmr-lint: boundary(hot-path-alloc): fixture — a documented allocating tier past the frontier
    fn marshal(&self) {
        let out = vec![1u8];
        drop(out);
    }
}

pub fn outer(pool: &WorkerPool) {
    let jobs = sources().iter().map(|x| helper(x));
    pool.run(jobs);
}

fn helper(x: u32) {
    // pgmr-lint: allow(nested-pool-run): fixture — the origin closure is an inline iterator adapter, not a pool job
    crate::pool::global().run(jobs_for(x));
}

impl Engine {
    fn alpha_then_beta(&self) {
        let a = self.alpha.lock().expect("alpha poisoned");
        // pgmr-lint: allow(lock-order): fixture — inverted on purpose to demonstrate suppression
        let b = self.beta.lock().expect("beta poisoned");
        drop((a, b));
    }

    fn beta_then_alpha(&self) {
        let b = self.beta.lock().expect("beta poisoned");
        let a = self.alpha.lock().expect("alpha poisoned");
        drop((a, b));
    }
}
