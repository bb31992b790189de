//! Fixture: a load flows into this file's private `helper`. Another file
//! defines a private `helper` of its own; the bare call here names only
//! this one, as Rust resolves it.

pub fn rebalance(load: u64) -> u64 {
    helper(load)
}

fn helper(amount: u64) -> u64 {
    amount.saturating_add(1)
}
