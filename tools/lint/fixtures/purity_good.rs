// Known-good: the step hook reads only pre-captured contexts (the
// `ctxs` vector filled at kernel construction), capture itself happens
// in the constructor — which is not a hook — and the edge hook works
// from the context it is handed.
pub struct Kern;

impl Kern {
    pub fn new(&mut self, work: &[u32]) {
        self.ctxs = work.iter().map(|&v| self.program.source_ctx(v)).collect();
    }

    fn step(&mut self, i: usize) -> u32 {
        let ctx = self.ctxs[i];
        self.visit(i, ctx)
    }
}

pub struct Prog;

impl Prog {
    fn edge(&mut self, dst: usize, dist_v: u32) -> bool {
        let nd = dist_v.saturating_add(1);
        nd < self.dist[dst]
    }
}
