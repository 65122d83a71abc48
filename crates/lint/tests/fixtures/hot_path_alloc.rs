//! Fixture: an allocating constructor reachable from a zero-alloc
//! root fires `hot-path-alloc` with a witness chain.

pub struct Network;

impl Network {
    pub fn run(&mut self) {
        helper();
    }
}

fn helper() {
    let scratch: Vec<u32> = Vec::new();
    drop(scratch);
}

fn cold() {
    // Unreachable from any root: allocating here is fine.
    let v: Vec<u32> = Vec::new();
    drop(v);
}
