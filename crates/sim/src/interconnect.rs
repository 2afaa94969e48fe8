//! Multi-link interconnect model for simulated multi-GPU platforms.
//!
//! EMOGI's multi-GPU evaluation (§5.7) scales because each GPU reads only
//! the edge-list ranges its own frontier shard needs, over its **own**
//! host link — the links do not share bandwidth. An [`Interconnect`]
//! models exactly that: one independent PCIe host link per device (each
//! with its own occupancy and byte accounting) plus an optional
//! NVLink-class inter-GPU peer link for the frontier/status exchange that
//! happens between iterations.
//!
//! The model is deliberately coarser than [`crate::pcie::PcieLink`]: the
//! per-device *kernel* traffic (zero-copy reads, DMA staging) still runs
//! through each device's own `PcieLink` inside its machine; the
//! interconnect accounts for the *inter-device exchange phases*, which
//! are bulk, synchronous transfers between iterations. Each lane is a
//! busy-until wire resource — back-to-back sends serialize, concurrent
//! sends on different lanes overlap — which is the occupancy behaviour
//! that matters at barrier granularity.

use crate::pcie::PcieConfig;
use crate::time::{bytes_over_bandwidth_ns, Time};

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
    /// Number of devices (one host link each).
    pub links: usize,
    /// The per-device host link (only its bandwidth/latency parameters
    /// are used; tag-level modelling stays in each device's own
    /// [`PcieLink`](crate::pcie::PcieLink)).
    pub host_link: PcieConfig,
    /// Optional inter-GPU peer link; `None` routes exchanges through
    /// host memory over two PCIe hops.
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
        /// Time the lane spent busy, ns.
        pub busy_ns: u64,
    }
}

/// One busy-until wire resource.
#[derive(Debug, Clone, Default)]
struct Lane {
    busy_until: Time,
    stats: LinkStats,
}

impl Lane {
    /// Serialize `bytes` on the lane starting no earlier than `now`;
    /// returns the time the last byte leaves the wire.
    fn carry(&mut self, now: Time, bytes: u64, gbps: f64) -> Time {
        let start = now.max(self.busy_until);
        let end = start + bytes_over_bandwidth_ns(bytes, gbps);
        self.busy_until = end;
        self.stats.bytes += bytes;
        self.stats.transfers += 1;
        self.stats.busy_ns += end - start;
        end
    }
}

/// N independent host links plus an optional per-device peer port.
#[derive(Debug, Clone)]
pub struct Interconnect {
    cfg: InterconnectConfig,
    /// Device-to-host direction of each device's host link.
    host_up: Vec<Lane>,
    /// Host-to-device direction of each device's host link.
    host_down: Vec<Lane>,
    /// Each device's peer-link egress port (empty without a peer link).
    peer_out: Vec<Lane>,
}

impl Interconnect {
    /// Build the lane set for `cfg.links` devices.
    pub fn new(cfg: InterconnectConfig) -> Self {
        assert!(cfg.links >= 1, "an interconnect needs at least one link");
        let peer_lanes = if cfg.peer.is_some() { cfg.links } else { 0 };
        Self {
            host_up: vec![Lane::default(); cfg.links],
            host_down: vec![Lane::default(); cfg.links],
            peer_out: vec![Lane::default(); peer_lanes],
            cfg,
        }
    }

    /// Broadcast `bytes` from device `src` to every other device,
    /// starting no earlier than `now`; returns the last delivery time.
    /// With a peer link this is `links - 1` unicasts serialized on
    /// `src`'s peer egress port (NVLink has no multicast). Without one
    /// the payload is staged in host memory **once** — one upload on
    /// `src`'s host link — and each peer then downloads it over its own
    /// host link, concurrently.
    pub fn broadcast(&mut self, src: usize, now: Time, bytes: u64) -> Time {
        assert!(src < self.cfg.links, "device oob");
        if bytes == 0 || self.cfg.links == 1 {
            return now;
        }
        if let Some(peer) = &self.cfg.peer {
            let mut last = now;
            for _ in 0..self.cfg.links - 1 {
                last = self.peer_out[src].carry(now, bytes, peer.bandwidth_gbps);
            }
            last + peer.latency_ns
        } else {
            let usable = self.cfg.host_link.usable_gbps();
            let prop = self.cfg.host_link.propagation_ns;
            let up = self.host_up[src].carry(now, bytes, usable);
            let mut done = up;
            for dst in 0..self.cfg.links {
                if dst != src {
                    done = done.max(self.host_down[dst].carry(up + prop, bytes, usable) + prop);
                }
            }
            done
        }
    }

    /// Lifetime counters of device `d`'s peer egress port (zeros when no
    /// peer link is configured).
    pub fn peer_stats(&self, d: usize) -> LinkStats {
        self.peer_out.get(d).map(|l| l.stats).unwrap_or_default()
    }

    /// Lifetime counters of device `d`'s host link, both directions
    /// summed (exchange traffic only — kernel traffic lives in the
    /// device's own machine).
    pub fn host_stats(&self, d: usize) -> LinkStats {
        let mut s = self.host_up[d].stats;
        s += self.host_down[d].stats;
        s
    }

    /// Aggregate lifetime exchange counters over every lane. Bytes that
    /// hop twice (host-routed exchanges) count once per hop, mirroring
    /// the wire occupancy they cost.
    pub fn totals(&self) -> LinkStats {
        let mut t = LinkStats::default();
        for l in self
            .host_up
            .iter()
            .chain(&self.host_down)
            .chain(&self.peer_out)
        {
            t += l.stats;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcie::PcieConfig;

    fn rig(links: usize, peer: bool) -> Interconnect {
        Interconnect::new(InterconnectConfig {
            links,
            host_link: PcieConfig::gen3_x16(),
            peer: peer.then(PeerLinkConfig::default),
        })
    }

    // On two links a broadcast is one point-to-point transfer.

    #[test]
    fn peer_transfer_achieves_configured_bandwidth() {
        let mut ic = rig(2, true);
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
    fn host_routed_transfer_pays_two_pcie_hops() {
        let mut ic = rig(2, false);
        let bytes = 16 << 20;
        let done = ic.broadcast(0, 0, bytes);
        let gbps = bytes as f64 / done as f64;
        // Two serialized ~14 GB/s hops: end-to-end well under one hop's
        // bandwidth, and both lanes carried the payload.
        assert!(gbps < 12.0, "host-routed exchange too fast: {gbps} GB/s");
        assert_eq!(ic.host_stats(0).bytes, bytes);
        assert_eq!(ic.host_stats(1).bytes, bytes);
        assert_eq!(ic.totals().bytes, 2 * bytes, "one count per hop");
    }

    #[test]
    fn lanes_are_independent_but_serialize_internally() {
        let mut ic = rig(4, true);
        let bytes = 1 << 20;
        // Different sources overlap fully...
        let a = ic.broadcast(0, 0, bytes);
        let b = ic.broadcast(2, 0, bytes);
        assert_eq!(a, b, "distinct egress lanes do not contend");
        // ...while the same source serializes its broadcasts.
        let c = ic.broadcast(0, 0, bytes);
        assert!(c > a, "same egress lane must serialize");
        let lat = PeerLinkConfig::default().latency_ns;
        assert_eq!(c - lat, 2 * (a - lat), "back-to-back wire times add");
    }

    #[test]
    fn host_routed_broadcast_stages_the_upload_once() {
        let mut ic = rig(4, false);
        let bytes = 1 << 20;
        let t = ic.broadcast(0, 0, bytes);
        assert!(t > 0);
        // One upload on the source's host link...
        assert_eq!(ic.host_stats(0).bytes, bytes);
        // ...and one concurrent download per peer.
        for d in 1..4 {
            assert_eq!(ic.host_stats(d).bytes, bytes);
        }
        assert_eq!(ic.totals().bytes, 4 * bytes);
        // The peers download in parallel, so a 3-way broadcast costs
        // barely more than a single point-to-point transfer.
        let t1 = rig(2, false).broadcast(0, 0, bytes);
        assert!(t < t1 + t1 / 4, "broadcast {t} vs unicast {t1}");
    }

    #[test]
    fn peer_broadcast_serializes_on_the_egress_port() {
        let mut ic = rig(4, true);
        let bytes = 1 << 20;
        let t = ic.broadcast(0, 0, bytes);
        assert_eq!(ic.peer_stats(0).bytes, 3 * bytes, "three unicasts");
        let lat = PeerLinkConfig::default().latency_ns;
        let t1 = rig(2, true).broadcast(0, 0, bytes);
        assert_eq!(t - lat, 3 * (t1 - lat), "egress wire times add");
    }

    #[test]
    fn zero_byte_broadcast_is_free() {
        let mut ic = rig(2, true);
        assert_eq!(ic.broadcast(0, 1234, 0), 1234);
        assert_eq!(ic.totals(), LinkStats::default());
    }

    #[test]
    fn stats_diff_and_accumulate() {
        let mut ic = rig(2, true);
        ic.broadcast(0, 0, 1000);
        let base = ic.totals();
        ic.broadcast(0, 0, 500);
        let d = ic.totals() - base;
        assert_eq!(d.bytes, 500);
        assert_eq!(d.transfers, 1);
        assert!(d.busy_ns > 0);
    }
}
