//! The inter-GPU exchange fabric of a simulated multi-GPU platform.
//!
//! EMOGI's multi-GPU evaluation (§5.7) scales because each GPU reads only
//! the edge-list ranges its own frontier shard needs, over its **own**
//! host link — the links do not share bandwidth. Those host links are the
//! member machines' own [`PcieLink`](crate::pcie::PcieLink)s, which carry
//! all kernel traffic (zero-copy reads, DMA staging). An [`Interconnect`]
//! models the rest: the NVLink-class peer link over which the devices
//! exchange frontier/status updates between iterations, as one egress
//! port per device.
//!
//! The model is deliberately coarser than `PcieLink`: exchange phases are
//! bulk, synchronous transfers between iterations. Each port is a
//! picosecond [`BusyClock`] — back-to-back sends serialize at the port's
//! rated bandwidth, concurrent sends on different ports overlap — which is
//! the occupancy behaviour that matters at barrier granularity.

use crate::pcie::PcieConfig;
use crate::time::{bytes_over_bandwidth_ps, BusyClock, Time, PS_PER_NS};

/// An NVLink-class point-to-point peer link between GPUs.
#[derive(Debug, Clone)]
pub struct PeerLinkConfig {
    /// Per-direction egress bandwidth of one device's peer port, GB/s.
    pub bandwidth_gbps: f64,
    /// One-way propagation latency, ns.
    pub latency_ns: Time,
}

impl PeerLinkConfig {
    /// V100-era NVLink 2.0: three 25 GB/s links ganged per GPU, sub-µs
    /// latency.
    pub fn nvlink2() -> Self {
        Self {
            bandwidth_gbps: 75.0,
            latency_ns: 500,
        }
    }
}

impl Default for PeerLinkConfig {
    fn default() -> Self {
        Self::nvlink2()
    }
}

/// How to build an [`Interconnect`].
#[derive(Debug, Clone)]
pub struct InterconnectConfig {
    /// Number of devices (one peer egress port each).
    pub links: usize,
    /// Unread. Kept, like the `Option` around [`peer`](Self::peer), only
    /// because the benchmark package builds this struct with a literal.
    pub host_link: PcieConfig,
    /// The inter-GPU peer link; must be `Some` (there is no other
    /// exchange route).
    pub peer: Option<PeerLinkConfig>,
}

crate::ledger! {
    /// Lifetime counters of one lane (or an aggregate over lanes).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LinkStats {
        /// Payload bytes carried.
        pub bytes: u64,
        /// Individual transfers carried.
        pub transfers: u64,
        /// Time the lane spent busy, ns (the lane's ps total, rounded up).
        pub busy_ns: u64,
    }
}

/// One busy-until wire resource: a device's peer egress port.
#[derive(Debug, Clone, Default)]
struct Lane {
    busy: BusyClock,
    bytes: u64,
    transfers: u64,
    busy_ps: u64,
}

impl Lane {
    /// Serialize `bytes` on the lane starting no earlier than `now`;
    /// returns the time the last byte leaves the wire.
    fn carry(&mut self, now: Time, bytes: u64, gbps: f64) -> Time {
        let ps = bytes_over_bandwidth_ps(bytes, gbps);
        self.bytes += bytes;
        self.transfers += 1;
        self.busy_ps += ps;
        self.busy.occupy(now, ps)
    }

    fn stats(&self) -> LinkStats {
        LinkStats {
            bytes: self.bytes,
            transfers: self.transfers,
            busy_ns: self.busy_ps.div_ceil(PS_PER_NS),
        }
    }
}

/// One peer egress port per device.
#[derive(Debug, Clone)]
pub struct Interconnect {
    peer: PeerLinkConfig,
    /// Each device's peer-link egress port.
    peer_out: Vec<Lane>,
}

impl Interconnect {
    /// Build one egress port per device. Panics without a peer link:
    /// `InterconnectConfig::peer` is an `Option` only so that the
    /// benchmark's struct literal keeps compiling.
    pub fn new(cfg: InterconnectConfig) -> Self {
        assert!(cfg.links >= 1, "an interconnect needs at least one link");
        let peer = cfg.peer.expect(
            "an interconnect needs a peer link: `InterconnectConfig::peer` is an \
             `Option` only because the benchmark builds it with a struct literal",
        );
        Self {
            peer,
            peer_out: vec![Lane::default(); cfg.links],
        }
    }

    /// Broadcast `bytes` from device `src` to every other device,
    /// starting no earlier than `now`; returns the last delivery time:
    /// `links - 1` unicasts serialized on `src`'s egress port (NVLink has
    /// no multicast), plus the link latency.
    pub fn broadcast(&mut self, src: usize, now: Time, bytes: u64) -> Time {
        let links = self.peer_out.len();
        assert!(src < links, "device oob");
        if bytes == 0 || links == 1 {
            return now;
        }
        let mut last = now;
        for _ in 0..links - 1 {
            last = self.peer_out[src].carry(now, bytes, self.peer.bandwidth_gbps);
        }
        last + self.peer.latency_ns
    }

    /// Lifetime counters of device `d`'s peer egress port.
    pub fn peer_stats(&self, d: usize) -> LinkStats {
        self.peer_out[d].stats()
    }

    /// Aggregate lifetime exchange counters over every egress port.
    pub fn totals(&self) -> LinkStats {
        let mut t = LinkStats::default();
        for l in &self.peer_out {
            t += l.stats();
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcie::PcieConfig;

    fn rig(links: usize) -> Interconnect {
        Interconnect::new(InterconnectConfig {
            links,
            host_link: PcieConfig::gen3_x16(),
            peer: Some(PeerLinkConfig::default()),
        })
    }

    #[test]
    #[should_panic(expected = "an interconnect needs a peer link")]
    fn an_interconnect_without_a_peer_link_is_refused() {
        Interconnect::new(InterconnectConfig {
            links: 2,
            host_link: PcieConfig::gen3_x16(),
            peer: None,
        });
    }

    // On two links a broadcast is one point-to-point transfer.

    #[test]
    fn peer_transfer_achieves_configured_bandwidth() {
        let mut ic = rig(2);
        let bytes = 16 << 20;
        let done = ic.broadcast(0, 0, bytes);
        let gbps = bytes as f64 / done as f64;
        assert!(
            (70.0..76.0).contains(&gbps),
            "peer transfer achieved {gbps} GB/s"
        );
        assert_eq!(ic.peer_stats(0).bytes, bytes);
        assert_eq!(ic.peer_stats(1).bytes, 0, "egress is per-source");
    }

    #[test]
    fn lanes_are_independent_but_serialize_internally() {
        let mut ic = rig(4);
        let bytes = 1 << 20;
        // Different sources overlap fully...
        let a = ic.broadcast(0, 0, bytes);
        let b = ic.broadcast(2, 0, bytes);
        assert_eq!(a, b, "distinct egress lanes do not contend");
        // ...while the same source serializes its broadcasts.
        let c = ic.broadcast(0, 0, bytes);
        assert!(c > a, "same egress lane must serialize");
        let peer = PeerLinkConfig::default();
        // Each broadcast is three unicasts on four links.
        let ps = 3 * bytes_over_bandwidth_ps(bytes, peer.bandwidth_gbps);
        assert_eq!(a - peer.latency_ns, ps.div_ceil(PS_PER_NS));
        assert_eq!(
            c - peer.latency_ns,
            (2 * ps).div_ceil(PS_PER_NS),
            "back-to-back wire times add in ps"
        );
    }

    #[test]
    fn peer_broadcast_serializes_on_the_egress_port() {
        let mut ic = rig(4);
        let bytes = 1 << 20;
        let t = ic.broadcast(0, 0, bytes);
        assert_eq!(ic.peer_stats(0).bytes, 3 * bytes, "three unicasts");
        let peer = PeerLinkConfig::default();
        let ps = bytes_over_bandwidth_ps(bytes, peer.bandwidth_gbps);
        let t1 = rig(2).broadcast(0, 0, bytes);
        assert_eq!(t1 - peer.latency_ns, ps.div_ceil(PS_PER_NS));
        assert_eq!(
            t - peer.latency_ns,
            (3 * ps).div_ceil(PS_PER_NS),
            "egress wire times add in ps"
        );
        assert_eq!(ic.peer_stats(0).busy_ns, (3 * ps).div_ceil(PS_PER_NS));
    }

    #[test]
    fn peer_lane_drains_at_its_rated_bandwidth() {
        const N: u64 = 1_000;
        // Up to 1 ps of rounding per transfer, plus the final whole-ns
        // rounding.
        const SLACK_NS: Time = 1 + N / PS_PER_NS;
        let peer = PeerLinkConfig::default();
        let bytes = 4096;
        for gbps in [peer.bandwidth_gbps, 2.0 * peer.bandwidth_gbps] {
            let mut ic = Interconnect::new(InterconnectConfig {
                links: 2,
                host_link: PcieConfig::gen3_x16(),
                peer: Some(PeerLinkConfig {
                    bandwidth_gbps: gbps,
                    ..peer.clone()
                }),
            });
            let last = (0..N).map(|_| ic.broadcast(0, 0, bytes)).max().unwrap();
            let drain = last - peer.latency_ns;
            let ideal = (N as f64 * bytes as f64 / gbps).ceil() as Time;
            assert!(
                (ideal..=ideal + SLACK_NS).contains(&drain),
                "{N} transfers at {gbps} GB/s drained in {drain} ns, ideal {ideal} ns"
            );
        }
    }

    #[test]
    fn zero_byte_broadcast_is_free() {
        let mut ic = rig(2);
        assert_eq!(ic.broadcast(0, 1234, 0), 1234);
        assert_eq!(ic.totals(), LinkStats::default());
    }

    #[test]
    fn stats_diff_and_accumulate() {
        let mut ic = rig(2);
        ic.broadcast(0, 0, 1000);
        let base = ic.totals();
        ic.broadcast(0, 0, 500);
        let d = ic.totals() - base;
        assert_eq!(d.bytes, 500);
        assert_eq!(d.transfers, 1);
        assert!(d.busy_ns > 0);
    }
}
