//! The device group: one [`Machine`] per simulated GPU plus the
//! inter-device [`Interconnect`].
//!
//! A [`DeviceGroup`] is the multi-GPU analogue of a single [`Machine`]:
//! each device keeps its own PCIe link, cache, HBM, DMA engine and
//! address spaces (the per-link independence that makes EMOGI's
//! multi-GPU traversal scale), while the group supplies the two
//! primitives sharded execution needs between iterations:
//!
//! * [`barrier`](DeviceGroup::barrier) — align every device's clock to
//!   the group maximum (the iteration-end synchronization point);
//! * [`exchange`](DeviceGroup::exchange) — broadcast each device's
//!   update payload to every peer over the NVLink-class peer link, then
//!   advance all clocks to the last delivery.
//!
//! With one device both primitives are no-ops, which is what lets a
//! one-device sharded run stay tick-for-tick identical to a
//! single-machine run.

use crate::machine::{Machine, MachineConfig};
use emogi_sim::interconnect::{Interconnect, InterconnectConfig, PeerLinkConfig};
use emogi_sim::time::Time;

/// One machine per simulated GPU plus the exchange interconnect.
#[derive(Debug)]
pub struct DeviceGroup {
    /// The member machines, one per device, all built from the same
    /// configuration.
    pub machines: Vec<Machine>,
    /// The inter-device exchange fabric: the NVLink-class peer link.
    pub interconnect: Interconnect,
}

impl DeviceGroup {
    /// Assemble `devices` identical machines built from `machine` (the
    /// paper's DGX nodes are homogeneous) at time 0, joined by an
    /// NVLink-class peer link.
    pub fn new(devices: usize, machine: MachineConfig) -> Self {
        assert!(devices >= 1, "a device group needs at least one GPU");
        let interconnect = Interconnect::new(InterconnectConfig {
            links: devices,
            host_link: machine.pcie.clone(),
            peer: Some(PeerLinkConfig::default()),
        });
        let machines = (0..devices)
            .map(|_| Machine::new(machine.clone()))
            .collect();
        Self {
            machines,
            interconnect,
        }
    }

    /// Devices in the group.
    pub fn num_devices(&self) -> usize {
        self.machines.len()
    }

    /// Align every device's clock to the group maximum and return it.
    /// A single-device group is untouched.
    pub fn barrier(&mut self) -> Time {
        let t = self.machines.iter().map(|m| m.now).max().unwrap_or(0);
        for m in &mut self.machines {
            m.now = t;
        }
        t
    }

    /// Iteration-end exchange: barrier, then every device broadcasts
    /// `bytes[d]` to each of its peers over its own peer egress port
    /// ([`Interconnect::broadcast`]), and all clocks advance to the last
    /// delivery. Returns the post-exchange time. A single-device group is
    /// a no-op (no barrier, no traffic, clocks untouched).
    pub fn exchange(&mut self, bytes: &[u64]) -> Time {
        assert_eq!(bytes.len(), self.machines.len(), "one payload per device");
        if self.machines.len() <= 1 {
            return self.machines[0].now;
        }
        let start = self.barrier();
        let mut done = start;
        for (src, &payload) in bytes.iter().enumerate() {
            done = done.max(self.interconnect.broadcast(src, start, payload));
        }
        for m in &mut self.machines {
            m.now = done;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100s(devices: usize) -> DeviceGroup {
        DeviceGroup::new(devices, MachineConfig::v100_gen3())
    }

    #[test]
    fn group_builds_identical_machines() {
        let g = v100s(4);
        assert_eq!(g.num_devices(), 4);
        for m in &g.machines {
            assert_eq!(m.now, 0);
        }
    }

    #[test]
    fn barrier_aligns_clocks_to_the_maximum() {
        let mut g = v100s(3);
        g.machines[0].now = 100;
        g.machines[1].now = 700;
        g.machines[2].now = 300;
        assert_eq!(g.barrier(), 700);
        assert!(g.machines.iter().all(|m| m.now == 700));
    }

    #[test]
    fn exchange_broadcasts_and_advances_all_clocks() {
        let mut g = v100s(2);
        g.machines[0].now = 1_000;
        let t = g.exchange(&[1 << 20, 0]);
        assert!(t > 1_000, "exchange takes wire time");
        assert!(g.machines.iter().all(|m| m.now == t));
        assert_eq!(g.interconnect.totals().bytes, 1 << 20);
    }

    #[test]
    fn single_device_exchange_is_a_no_op() {
        let mut g = v100s(1);
        g.machines[0].now = 42;
        assert_eq!(g.exchange(&[999]), 42);
        assert_eq!(g.machines[0].now, 42);
        assert_eq!(g.interconnect.totals().bytes, 0);
    }
}
