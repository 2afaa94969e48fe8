//! `emogi_sim`: the event queue, the PCIe tag/queue path, host DRAM, the
//! CXL link, the async copy lane and the inter-device interconnect.

use super::{Inputs, Timing};
use emogi_repro::sim::{
    CopyEngine, CopyEngineConfig, CxlConfig, CxlLink, Dram, DramConfig, EventQueue, Interconnect,
    InterconnectConfig, PcieConfig, PcieLink, PeerLinkConfig, ReadOutcome, TrafficMonitor,
};
use std::hint::black_box;

/// Push `n` events with scattered times, then pop them all.
fn push_pop_ns(timing: Timing, n: u64) -> f64 {
    timing.ns_per_op(|| {
        let mut queue = EventQueue::new();
        for i in 0..n {
            queue.push(i.wrapping_mul(2_654_435_761) % n, i);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = queue.pop() {
            sum = sum.wrapping_add(v);
        }
        black_box(sum);
        n
    })
}

struct Link {
    link: PcieLink,
    dram: Dram,
    monitor: TrafficMonitor,
    released: Vec<(u64, u64)>,
    now: u64,
}

impl Link {
    fn new() -> Self {
        Self {
            link: PcieLink::new(PcieConfig::gen3_x16()),
            dram: Dram::new(DramConfig::ddr4_2933_quad()),
            monitor: TrafficMonitor::new(1 << 20),
            released: Vec::new(),
            now: 0,
        }
    }

    fn read(&mut self) -> ReadOutcome {
        self.now += 10;
        let addr = (self.now * 128) % (1 << 26);
        self.link
            .read(self.now, 0, addr, 128, &mut self.dram, &mut self.monitor)
    }

    fn complete(&mut self, at: u64) {
        self.link.complete(
            at,
            128,
            &mut self.dram,
            &mut self.monitor,
            &mut self.released,
        );
        self.released.clear();
    }
}

pub fn run(timing: Timing, _inputs: &Inputs) -> Vec<(&'static str, f64)> {
    // Unloaded: a tag is free, the read issues and completes at once.
    let read_complete = {
        let mut l = Link::new();
        timing.ns_per_op(|| {
            if let ReadOutcome::Issued { complete_at } = l.read() {
                l.complete(complete_at);
            }
            black_box(l.link.tags_in_use());
            1
        })
    };
    // Saturated: every tag is taken, so each read queues inside the link
    // and each completion re-issues the oldest waiting one.
    let read_queued = {
        let mut l = Link::new();
        while matches!(l.read(), ReadOutcome::Issued { .. }) {}
        timing.ns_per_op(|| {
            let at = l.now;
            l.complete(at);
            black_box(l.read());
            1
        })
    };
    let dram_read = {
        let mut dram = Dram::new(DramConfig::ddr4_2933_quad());
        let mut now = 0u64;
        timing.ns_per_op(|| {
            now += 10;
            black_box(dram.read(now, (now * 128) % (1 << 26), 128));
            1
        })
    };
    let cxl_read = {
        let mut cxl = CxlLink::new(CxlConfig::external_x8());
        let mut now = 0u64;
        timing.ns_per_op(|| {
            now += 10;
            black_box(cxl.read(now, (now * 128) % (1 << 26), 128));
            1
        })
    };
    // One 64 KiB region staged on the async lane and collected.
    let submit_drain = {
        let mut lane = CopyEngine::new(CopyEngineConfig::from_pcie(&PcieConfig::gen3_x16()));
        let mut now = 0u64;
        timing.ns_per_op(|| {
            let ticket = lane.submit(now, 64 << 10);
            now = ticket.done_at;
            black_box(lane.drain_completed(now).len());
            1
        })
    };
    // One device's frontier updates to the three others over the peer
    // links, as at the end of a sharded iteration.
    let broadcast = {
        let mut fabric = Interconnect::new(InterconnectConfig {
            links: 4,
            host_link: PcieConfig::gen3_x16(),
            peer: Some(PeerLinkConfig::default()),
        });
        let mut now = 0u64;
        let mut src = 0usize;
        timing.ns_per_op(|| {
            src = (src + 1) % 4;
            now = fabric.broadcast(src, now, 64 << 10);
            black_box(now);
            1
        })
    };
    vec![
        ("sim.events.push_pop_ns.1k", push_pop_ns(timing, 1_000)),
        ("sim.events.push_pop_ns.100k", push_pop_ns(timing, 100_000)),
        ("sim.pcie.read_complete_ns", read_complete),
        ("sim.pcie.read_queued_ns", read_queued),
        ("sim.dram.read_ns", dram_read),
        ("sim.cxl.read_ns", cxl_read),
        ("sim.pipeline.submit_drain_ns", submit_drain),
        ("sim.interconnect.broadcast_ns", broadcast),
    ]
}
