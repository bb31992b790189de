//! Fixture: an inline metric-name literal handed to a Tracer call.
//! Linted under the virtual path `crates/lrb-sim/src/fixture.rs`.

use lrb_obs::{names, Tracer};

pub fn emit<T: Tracer>(obs: &T) {
    obs.incr("sim.epochz", 1);
    obs.incr(names::SIM_EPOCHS, 1);
}

pub fn trace<T: Tracer>(tracer: &T) {
    let _g = tracer.span("sim.runz");
    tracer.instant(names::SIM_RUN, 0, false);
}
