//! Named fault scenarios for chaos sweeps.
//!
//! Experiments that measure graceful degradation need comparable points:
//! the same fault knobs at the same named intensities, regenerated
//! deterministically from one seed. This module is the scenario table —
//! pure data (`lrb-faults` configs); simulators and CLIs decide what to run
//! against each point.

use lrb_faults::FaultConfig;

/// One named point in a chaos sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    /// Stable display name (table row / JSON key).
    pub name: String,
    /// The fault knobs for this point.
    pub config: FaultConfig,
}

/// The degradation-curve sweep: the base config's crash rate at multiples
/// 0×, ½×, 1×, 2×, and 4× (capped at 0.9 so recovery keeps up), every
/// other knob inherited from `base`. The 0× point is the curve's anchor:
/// with no other fault knobs set it is fault-free, so it reproduces the
/// faultless simulator bit-for-bit.
pub fn crash_sweep(base: &FaultConfig) -> Vec<FaultScenario> {
    [0.0, 0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|&mult| {
            let crash_rate = (base.crash_rate * mult).min(0.9);
            FaultScenario {
                name: format!("crash-{crash_rate:.3}"),
                config: FaultConfig {
                    crash_rate,
                    ..base.clone()
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_faults::FaultPlan;

    #[test]
    fn crash_sweep_anchors_at_fault_free() {
        let sweep = crash_sweep(&FaultConfig::crashes(0.1, 0.5, 7));
        assert_eq!(sweep.len(), 5);
        assert_eq!(sweep[0].config.crash_rate, 0.0);
        assert!(FaultPlan::generate(&sweep[0].config, 4, 20).is_fault_free());
        // Rates ascend and stay capped.
        for w in sweep.windows(2) {
            assert!(w[0].config.crash_rate <= w[1].config.crash_rate);
        }
        assert!(sweep.iter().all(|s| s.config.crash_rate <= 0.9));
    }
}
