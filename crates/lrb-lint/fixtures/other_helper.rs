//! Fixture: a private `helper` in another file, fed only a scale factor,
//! so no load reaches its product.

pub fn doubled(factor: u64) -> u64 {
    helper(factor)
}

fn helper(scale: u64) -> u64 {
    scale * 2
}
