// Known-bad: a kernel step hook that re-captures program state mid-launch
// instead of reading the pre-captured iteration-start context, and a
// program's edge hook reading the simulated machine. Either would make
// results depend on how earlier warp tasks of the *same* iteration
// interleaved — the exact regression that silently breaks
// batched/sharded bit-identity.
pub struct Kern;

impl Kern {
    fn step(&mut self, v: u32) -> u32 {
        let ctx = self.program.source_ctx(v); // live state, not iteration-start
        self.visit(v, ctx)
    }
}

pub struct Prog;

impl Prog {
    fn edge(&mut self, m: &mut Machine) {
        m.now += 1; // hooks must never touch the simulated machine
    }
}
