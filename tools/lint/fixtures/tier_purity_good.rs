// Known-good: the tier decision reads only the policy's own accumulated
// densities and configured thresholds; promotions replay from the plan
// round's inputs alone.
pub struct TierPolicy;

impl TierPolicy {
    fn decide_tiered(&self, r: usize, upcoming: f64) -> bool {
        // `false`: serve in place from the external tier.
        upcoming > 0.0 && self.cumulative[r] + upcoming >= self.cxl_stage_threshold
    }
}
