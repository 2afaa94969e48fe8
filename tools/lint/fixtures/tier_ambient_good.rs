// Known-good: the stage-or-stay decision is a pure function of the
// region's accumulated density and the configured thresholds — no
// clocks, no machine state — so any tier configuration replays
// identically from the same traversal inputs.
pub fn decide_tiered(cumulative: f64, upcoming: f64, cxl_stage_threshold: f64) -> bool {
    upcoming > 0.0 && cumulative + upcoming >= cxl_stage_threshold
}
