//! Deterministic per-cell seeding for experiment sweeps.
//!
//! Experiments are embarrassingly parallel — independent (instance, seed)
//! cells, run across threads by `lrb_engine::run_all` — so each cell
//! derives its own seed from the sweep's master seed and never depends on
//! which worker ran it or when.

/// Derive independent per-cell seeds from a master seed (splitmix64 so
/// neighboring cells get uncorrelated streams).
pub fn seed_for(master: u64, cell: u64) -> u64 {
    let mut z = master ^ cell.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|c| seed_for(42, c)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(seed_for(1, 0), seed_for(2, 0));
    }
}
