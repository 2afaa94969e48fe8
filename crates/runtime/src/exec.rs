//! The discrete-event kernel executor.
//!
//! A kernel is a supply of *warp tasks* (one per work item — a vertex for
//! the merged strategies, 32 vertices for the naive one). The executor
//! keeps up to `resident_warps` tasks live. Each warp alternates between
//! `Kernel::step` — which performs the real algorithm work and emits that
//! step's lane accesses — and waiting for the simulated memory system:
//!
//! 1. the coalescing unit merges the lane accesses into 32–128-byte
//!    transactions (Figure 3);
//! 2. device-space transactions probe the cache and fall through to HBM;
//! 3. pinned-host transactions probe the cache, merge onto in-flight
//!    requests (MSHR) or issue PCIe reads, subject to the per-warp
//!    in-flight limit and the link's tag pool;
//! 4. managed-space transactions consult the UVM page table and stall the
//!    warp on page faults, which the driver services in batches.
//!
//! The warp resumes when every load of the step has arrived. Stores
//! retire through a write buffer and never stall.
//!
//! # One cached-load path
//!
//! Three of the four spaces are the same synchronous routine,
//! `cached_load`: probe the L2 (`probe` charges the hit latency and
//! returns the missing sectors), then for every run of missing sectors,
//! ascending (`sector_runs`), read the backing memory, fill the cache and
//! hold the warp until the data arrives. The spaces differ only in the
//! backing read they pass in, and therefore only in latency — far memory
//! is one more backing behind the same load path:
//!
//! | space | backing read | besides |
//! |---|---|---|
//! | `Device` | `hbm.read` | stores bypass the cache into `hbm.write` |
//! | `Managed` | `hbm.read` | only when every touched page is resident; otherwise the warp stalls behind the UVM fault batch |
//! | `Cxl` | `cxl.read` | panics on a machine without a CXL tier |
//! | `HostPinned` | none — asynchronous | shares `probe` and `sector_runs`, then merges onto in-flight requests (MSHR) and issues tagged PCIe reads for the runs left |
//!
//! The backing is a generic closure, monomorphised per call site: no
//! `dyn` call and no allocation per transaction. Read/fill order is part
//! of the model (the DRAM and CXL models are stateful), so the routine is
//! pinned tick for tick by `tests/sim_golden.rs`.
//!
//! # What a step costs the host
//!
//! The simulated clock is the product; the representations below are
//! choices about the *host* clock only, each documented where it lives
//! and each pinned by a differential test against the plainer form it
//! replaced (same events, same order, same simulated nanosecond —
//! `sim_golden` and the benchmark's `compare` never move):
//!
//! * lane *spans* — `LaneAccess::count`, closed by
//!   `WarpWalk::emit_edges` wherever the next address is not contiguous,
//!   so a staged-region or CXL-spill boundary splits a span exactly
//!   where it separated two lanes;
//! * the coalescer's packed `u64` key, whose integer order is the
//!   emission order (`emogi_gpu::coalesce`; the per-lane four-field-key
//!   coalescer survives as its `#[cfg(test)]` oracle);
//! * L2 invalidation by set (`SectoredCache::invalidate_range`);
//! * the MSHR line table below — in-flight requests of one line have
//!   disjoint sector masks, so a line has at most four: a fixed
//!   `[u32; 4]` + length per line, and a freed request keeps its
//!   `waiters` buffer for the next one;
//! * the event queue's payload-in-entry heap, ordered on `(at, seq)`
//!   only (`emogi_sim::events`);
//! * the memoised serialisation-delay tables of `Dram` and `PcieLink` —
//!   never a second definition of a delay: unit tests compare table and
//!   formula for every size 0..=512 on every preset;
//! * `#[inline]` on the per-lane and per-transaction entry points
//!   (`AccessBatch`, `LaneAccess`, `SectoredCache::{probe, fill}`,
//!   `Dram::{read, write}`, `PcieLink::{read, complete}`): the benchmark
//!   is a workspace of its own without LTO, where they were out-of-line
//!   calls per lane.
//!
//! To see where host time goes, profile the benchmark binary (README,
//! "Profiling the simulator"); the root `[profile.release] debug = true`
//! does not reach that workspace.

use crate::machine::Machine;
use crate::report::KernelReport;
use crate::util::FastMap;
use emogi_gpu::access::{AccessBatch, Space};
use emogi_gpu::cache::SECTORS_PER_LINE;
use emogi_gpu::coalesce::{Coalescer, Transaction, SECTOR_BYTES};
use emogi_sim::events::EventQueue;
use emogi_sim::pcie::ReadOutcome;
use emogi_sim::time::Time;
use emogi_uvm::PageState;
use std::collections::VecDeque;

/// Result of stepping a warp task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The task has more steps; call `step` again when this step's loads
    /// have arrived.
    Continue,
    /// The task is finished (a final step may still carry stores).
    Done,
}

/// A kernel: a work-item supply plus the per-step transition function.
///
/// `step` must do the task's *real* computation (updating level arrays,
/// distances, labels — whatever the algorithm needs) and describe the
/// memory traffic of that step in `batch`. The executor prices the traffic;
/// the results stay in the kernel for verification.
pub trait Kernel {
    /// Per-work-item state carried between steps.
    type Task;

    /// Next work item, or `None` when the grid is exhausted.
    fn next_task(&mut self) -> Option<Self::Task>;

    /// Advance `task` by one warp step, pushing its accesses into `batch`
    /// (already cleared).
    fn step(&mut self, task: &mut Self::Task, batch: &mut AccessBatch) -> StepOutcome;
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Warp slot is ready to step again.
    Ready(u32),
    /// PCIe read (slab index) completed.
    Pcie(u32),
    /// The in-flight UVM migration batch has landed.
    UvmBatch,
}

struct Slot<T> {
    task: Option<T>,
    /// Asynchronous waits (PCIe requests, MSHR attaches, page faults,
    /// deferred runs) not yet satisfied.
    outstanding: u32,
    /// Earliest resume time from synchronous work (compute, cache hits,
    /// HBM reads).
    resume_at: Time,
    /// Own PCIe reads currently in flight (per-warp MSHR limit).
    own_inflight: u32,
    /// Requests created but waiting for an MSHR slot (slab indices).
    deferred: VecDeque<u32>,
}

struct ReqState {
    /// The sector run this request reads.
    txn: Transaction,
    owner: u32,
    /// Warp slots to wake on completion (owner included). The buffer
    /// stays with the slab entry when the request is freed.
    waiters: Vec<u32>,
    active: bool,
    /// Deferred requests exist (and merge waiters) before they are put on
    /// the link — the LSU's replay queue merges same-sector loads even
    /// while they wait for an MSHR slot.
    submitted: bool,
}

/// The in-flight requests of one line (slab indices, oldest first). A
/// request is only created for sectors no in-flight request of the line
/// covers, so their sector masks are disjoint and there are at most four.
#[derive(Debug, Clone, Copy, Default)]
struct PendingLine {
    ids: [u32; SECTORS_PER_LINE],
    len: u8,
}

impl PendingLine {
    fn ids(&self) -> &[u32] {
        &self.ids[..usize::from(self.len)]
    }

    fn push(&mut self, r: u32) {
        debug_assert!(
            usize::from(self.len) < SECTORS_PER_LINE,
            "more in-flight requests than sectors in a line"
        );
        self.ids[usize::from(self.len)] = r;
        self.len += 1;
    }

    fn remove(&mut self, r: u32) {
        let n = usize::from(self.len);
        if let Some(i) = self.ids[..n].iter().position(|&x| x == r) {
            self.ids.copy_within(i + 1..n, i);
            self.len -= 1;
        }
    }
}

/// Run `kernel` to completion on `machine`, advancing its clock.
pub fn run_kernel<K: Kernel>(machine: &mut Machine, kernel: &mut K) -> KernelReport {
    if machine.spaces.managed_used() > 0 {
        machine.ensure_uvm();
    }
    machine.kernel_launches += 1;
    let start = machine.now + machine.kernel_launch_ns;
    let mut ex = Executor {
        m: machine,
        kernel,
        events: EventQueue::new(),
        slots: Vec::new(),
        reqs: Vec::new(),
        free_reqs: Vec::new(),
        pending_lines: FastMap::default(),
        page_waiters: FastMap::default(),
        uvm_batch_inflight: false,
        batch: AccessBatch::new(),
        coalescer: Coalescer::new(),
        txns: Vec::new(),
        released: Vec::new(),
        report: KernelReport {
            start,
            end: start,
            ..Default::default()
        },
        now: start,
    };
    ex.seed(start);
    ex.run();
    let report = ex.finish();
    machine.now = report.end;
    report
}

struct Executor<'a, K: Kernel> {
    m: &'a mut Machine,
    kernel: &'a mut K,
    events: EventQueue<Ev>,
    slots: Vec<Slot<K::Task>>,
    reqs: Vec<ReqState>,
    free_reqs: Vec<u32>,
    /// line address -> in-flight requests touching it.
    pending_lines: FastMap<u64, PendingLine>,
    /// page id -> warps stalled on it.
    page_waiters: FastMap<u64, Vec<u32>>,
    uvm_batch_inflight: bool,
    batch: AccessBatch,
    coalescer: Coalescer,
    txns: Vec<Transaction>,
    released: Vec<(u64, Time)>,
    report: KernelReport,
    now: Time,
}

impl<K: Kernel> Executor<'_, K> {
    fn seed(&mut self, start: Time) {
        let max_warps = self.m.cfg.gpu.resident_warps as usize;
        for i in 0..max_warps {
            let Some(task) = self.kernel.next_task() else {
                break;
            };
            self.slots.push(Slot {
                task: Some(task),
                outstanding: 0,
                resume_at: start,
                own_inflight: 0,
                deferred: VecDeque::new(),
            });
            self.events.push(start, Ev::Ready(i as u32));
        }
    }

    fn run(&mut self) {
        while let Some((t, ev)) = self.events.pop() {
            debug_assert!(t >= self.now, "event time went backwards");
            self.now = t;
            match ev {
                Ev::Ready(w) => self.step_warp(w, t),
                Ev::Pcie(r) => self.on_pcie_done(r, t),
                Ev::UvmBatch => self.on_uvm_batch(t),
            }
        }
    }

    fn finish(self) -> KernelReport {
        debug_assert!(
            self.pending_lines.is_empty() && self.page_waiters.is_empty(),
            "kernel drained with requests in flight"
        );
        let mut report = self.report;
        report.end = self.now;
        report
    }

    fn step_warp(&mut self, w: u32, t: Time) {
        let slot = &mut self.slots[w as usize];
        debug_assert_eq!(slot.outstanding, 0, "warp stepped while waiting");
        if slot.task.is_none() {
            slot.task = self.kernel.next_task();
            if slot.task.is_none() {
                return; // warp retires
            }
        }
        self.batch.clear();
        let outcome = self
            .kernel
            .step(slot.task.as_mut().expect("task present"), &mut self.batch);
        self.report.steps += 1;
        let compute_done =
            t + Time::from(self.batch.compute_ns) + self.m.cfg.gpu.step_compute_ns.max(1);
        slot.resume_at = compute_done;
        if outcome == StepOutcome::Done {
            slot.task = None;
            self.report.tasks += 1;
        }

        self.txns.clear();
        self.coalescer.coalesce(self.batch.items(), &mut self.txns);
        // Coalescing-efficiency accounting: bytes the lanes asked for
        // vs bytes the merged transactions move.
        self.m.lane_bytes += self.batch.lane_bytes();
        // Move the transactions out to appease the borrow checker; the
        // buffer is swapped back afterwards so its capacity is reused.
        let mut txns = std::mem::take(&mut self.txns);
        for txn in &txns {
            self.m.txn_bytes += u64::from(txn.size);
            match txn.space {
                Space::Device => self.access_device(w, txn, compute_done),
                Space::HostPinned => self.access_host(w, txn, compute_done),
                Space::Managed => self.access_managed(w, txn, compute_done),
                Space::Cxl => self.access_cxl(w, txn, compute_done),
            }
        }
        txns.clear();
        self.txns = txns;

        let slot = &mut self.slots[w as usize];
        if slot.outstanding == 0 {
            let at = slot.resume_at;
            self.events.push(at, Ev::Ready(w));
        }
    }

    /// Probe the L2 for `txn`'s sectors, charge warp `w` the hit latency
    /// if any hit, and return the mask of sectors that missed.
    fn probe(&mut self, w: u32, txn: &Transaction, at: Time) -> u8 {
        let mask = txn.sector_mask();
        let hit = self.m.cache.probe(txn.line(), mask);
        if hit != 0 {
            let slot = &mut self.slots[w as usize];
            slot.resume_at = slot.resume_at.max(at + self.m.cache.hit_latency_ns);
        }
        mask & !hit
    }

    /// The one synchronous cached-load path: probe the L2, then for each
    /// run of missing sectors, ascending, `read` it from the backing
    /// memory, fill the cache and hold the warp until the data arrives.
    /// The spaces differ only in the backing (and so in latency): HBM for
    /// device loads and resident managed pages, the CXL link for the
    /// external tier.
    fn cached_load(
        &mut self,
        w: u32,
        txn: &Transaction,
        at: Time,
        read: impl Fn(&mut Machine, Time, u64, u32) -> Time,
    ) {
        let line = txn.line();
        for (first, run) in sector_runs(self.probe(w, txn, at)) {
            let addr = line + first * SECTOR_BYTES;
            let done = read(self.m, at, addr, (run * SECTOR_BYTES) as u32);
            self.m.cache.fill(line, run_mask(first, run));
            let slot = &mut self.slots[w as usize];
            slot.resume_at = slot.resume_at.max(done);
        }
    }

    /// Device-space access: cache in front of HBM, fully synchronous.
    fn access_device(&mut self, w: u32, txn: &Transaction, at: Time) {
        self.report.device_txns += 1;
        if txn.store {
            self.m.hbm.write(at, txn.addr, txn.size);
            return;
        }
        self.cached_load(w, txn, at, hbm_read);
    }

    /// CXL external-tier access: cache in front of a synchronous CXL.mem
    /// read. No MSHR and no tag pool — CXL.mem is a load/store protocol,
    /// so the warp simply blocks for the (microsecond-class) round trip;
    /// latency hiding comes from the other warps, exactly the regime the
    /// CXL external-memory paper targets.
    fn access_cxl(&mut self, w: u32, txn: &Transaction, at: Time) {
        debug_assert!(
            !txn.store,
            "the evaluated kernels never store to the CXL tier"
        );
        self.report.cxl_txns += 1;
        self.cached_load(w, txn, at, |m, at, addr, size| {
            m.cxl
                .as_mut()
                .expect("CXL-space access on a machine without a CXL tier")
                .read(at, addr, size)
        });
    }

    /// Pinned-host access: cache, then MSHR merge, then a PCIe read.
    fn access_host(&mut self, w: u32, txn: &Transaction, at: Time) {
        debug_assert!(
            !txn.store,
            "the evaluated kernels never store to host memory"
        );
        self.report.host_txns += 1;
        let line = txn.line();
        let mut miss = self.probe(w, txn, at);
        if miss == 0 {
            return;
        }
        // MSHR: ride along on in-flight requests covering missing sectors.
        if let Some(&pending) = self.pending_lines.get(&line) {
            for &r in pending.ids() {
                let req = &mut self.reqs[r as usize];
                debug_assert!(req.active, "a pending line lists live requests");
                let overlap = req.txn.sector_mask() & miss;
                if overlap != 0 {
                    req.waiters.push(w);
                    self.slots[w as usize].outstanding += 1;
                    self.report.mshr_merges += 1;
                    miss &= !overlap;
                    if miss == 0 {
                        break;
                    }
                }
            }
        }
        // Remaining runs become new PCIe reads. The request is created
        // (and MSHR-visible) immediately; it only goes on the link when
        // the warp has an in-flight slot free.
        for (first, run) in sector_runs(miss) {
            let read = Transaction {
                addr: line + first * SECTOR_BYTES,
                size: (run * SECTOR_BYTES) as u32,
                ..*txn
            };
            let slot = &mut self.slots[w as usize];
            slot.outstanding += 1;
            let r = self.create_request(w, read);
            let slot = &mut self.slots[w as usize];
            if slot.own_inflight >= self.m.cfg.gpu.max_pending_per_warp {
                slot.deferred.push_back(r);
            } else {
                self.submit_request(r, at);
            }
        }
    }

    /// Allocate a request and register it for MSHR merging.
    fn create_request(&mut self, w: u32, txn: Transaction) -> u32 {
        let r = match self.free_reqs.pop() {
            Some(r) => {
                let req = &mut self.reqs[r as usize];
                debug_assert!(!req.active && req.waiters.is_empty());
                req.txn = txn;
                req.owner = w;
                req.waiters.push(w);
                req.active = true;
                req.submitted = false;
                r
            }
            None => {
                self.reqs.push(ReqState {
                    txn,
                    owner: w,
                    waiters: vec![w],
                    active: true,
                    submitted: false,
                });
                (self.reqs.len() - 1) as u32
            }
        };
        self.pending_lines.entry(txn.line()).or_default().push(r);
        r
    }

    /// Put a created request on the link (consumes one of the owner's
    /// in-flight slots).
    fn submit_request(&mut self, r: u32, at: Time) {
        let (txn, owner) = {
            let req = &mut self.reqs[r as usize];
            debug_assert!(!req.submitted);
            req.submitted = true;
            (req.txn, req.owner)
        };
        self.slots[owner as usize].own_inflight += 1;
        match self.m.link.read(
            at,
            u64::from(r),
            txn.addr,
            txn.size,
            &mut self.m.host_dram,
            &mut self.m.monitor,
        ) {
            ReadOutcome::Issued { complete_at } => {
                self.events.push(complete_at, Ev::Pcie(r));
            }
            ReadOutcome::Queued => {
                // The link will hand it back from `complete()`.
            }
        }
    }

    fn on_pcie_done(&mut self, r: u32, t: Time) {
        let (line, mask, size, owner) = {
            let req = &self.reqs[r as usize];
            debug_assert!(req.active);
            (
                req.txn.line(),
                req.txn.sector_mask(),
                req.txn.size,
                req.owner,
            )
        };
        // Retiring the tag may release link-queued reads.
        self.released.clear();
        let mut released = std::mem::take(&mut self.released);
        self.m.link.complete(
            t,
            size,
            &mut self.m.host_dram,
            &mut self.m.monitor,
            &mut released,
        );
        for (id, at) in released.drain(..) {
            self.events.push(at, Ev::Pcie(id as u32));
        }
        self.released = released;

        self.m.cache.fill(line, mask);

        // Unlink from the pending map.
        if let Some(pending) = self.pending_lines.get_mut(&line) {
            pending.remove(r);
            if pending.len == 0 {
                self.pending_lines.remove(&line);
            }
        }

        // Free the owner's MSHR slot and submit its deferred requests.
        self.slots[owner as usize].own_inflight -= 1;
        while self.slots[owner as usize].own_inflight < self.m.cfg.gpu.max_pending_per_warp {
            let Some(r) = self.slots[owner as usize].deferred.pop_front() else {
                break;
            };
            self.submit_request(r, t);
        }

        // Wake the waiters; their buffer goes back to the slab entry.
        let req = &mut self.reqs[r as usize];
        req.active = false;
        let mut waiters = std::mem::take(&mut req.waiters);
        for w in waiters.drain(..) {
            self.complete_wait(w, t);
        }
        self.reqs[r as usize].waiters = waiters;
        self.free_reqs.push(r);
    }

    /// Managed-space access: resident pages behave like device memory;
    /// non-resident pages stall the warp behind the fault handler.
    fn access_managed(&mut self, w: u32, txn: &Transaction, at: Time) {
        debug_assert!(
            !txn.store,
            "the evaluated kernels never store to managed memory"
        );
        self.report.managed_txns += 1;
        let uvm = self
            .m
            .uvm
            .as_mut()
            .expect("managed access without UVM init");
        let first_page = uvm.page_of(txn.addr);
        let last_page = uvm.page_of(txn.addr + u64::from(txn.size) - 1);
        let mut faulted = false;
        for page in first_page..=last_page {
            match uvm.state(page) {
                PageState::Resident => uvm.touch(page),
                _ => {
                    faulted = true;
                    if uvm.record_fault(page) {
                        self.report.page_faults += 1;
                    }
                    self.page_waiters.entry(page).or_default().push(w);
                    self.slots[w as usize].outstanding += 1;
                }
            }
        }
        if faulted {
            self.maybe_start_uvm_batch(at);
            return;
        }
        // Fully resident: normal cached device-side access.
        self.cached_load(w, txn, at, hbm_read);
    }

    fn maybe_start_uvm_batch(&mut self, at: Time) {
        if self.uvm_batch_inflight {
            return;
        }
        let uvm = self.m.uvm.as_mut().expect("UVM driver present");
        if let Some(result) = uvm.start_batch(
            at,
            &mut self.m.link,
            &mut self.m.host_dram,
            &mut self.m.monitor,
        ) {
            for (start, end) in &result.evicted {
                self.m.cache.invalidate_range(*start, *end);
            }
            self.uvm_batch_inflight = true;
            self.events.push(result.done_at, Ev::UvmBatch);
        }
    }

    fn on_uvm_batch(&mut self, t: Time) {
        self.uvm_batch_inflight = false;
        let pages = self
            .m
            .uvm
            .as_mut()
            .expect("UVM driver present")
            .complete_batch();
        for page in pages {
            if let Some(waiters) = self.page_waiters.remove(&page) {
                for w in waiters {
                    self.complete_wait(w, t);
                }
            }
        }
        // More faults may have queued while this batch was in flight.
        self.maybe_start_uvm_batch(t);
    }

    /// One asynchronous wait of warp `w` finished at `t`.
    fn complete_wait(&mut self, w: u32, t: Time) {
        let slot = &mut self.slots[w as usize];
        debug_assert!(slot.outstanding > 0);
        slot.outstanding -= 1;
        if slot.outstanding == 0 {
            let at = slot.resume_at.max(t);
            self.events.push(at, Ev::Ready(w));
        }
    }
}

/// The HBM backing of [`Executor::cached_load`].
#[inline]
fn hbm_read(m: &mut Machine, at: Time, addr: u64, size: u32) -> Time {
    m.hbm.read(at, addr, size)
}

#[inline]
fn run_mask(first: u64, run: u64) -> u8 {
    (((1u16 << run) - 1) << first) as u8
}

/// The runs of consecutive set bits in a sector mask, ascending, as
/// `(first sector, run length)`.
#[inline]
fn sector_runs(mut mask: u8) -> impl Iterator<Item = (u64, u64)> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let first = mask.trailing_zeros() as u64;
            let run = (mask >> first).trailing_ones() as u64;
            mask &= !run_mask(first, run);
            (first, run)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use emogi_gpu::access::WARP_SIZE;
    use emogi_gpu::cache::SectoredCache;
    use emogi_gpu::coalesce::LINE_BYTES;
    use emogi_sim::cxl::CxlConfig;

    /// A kernel whose warps each stream over one contiguous host range,
    /// warp-per-range, coalesced (the "merged" toy pattern).
    struct StreamKernel {
        ranges: Vec<(u64, u64)>, // [start, end) byte addresses
        next: usize,
        elem: u64,
        sum_steps: u64,
    }

    struct StreamTask {
        cursor: u64,
        end: u64,
    }

    impl Kernel for StreamKernel {
        type Task = StreamTask;

        fn next_task(&mut self) -> Option<StreamTask> {
            let (start, end) = *self.ranges.get(self.next)?;
            self.next += 1;
            Some(StreamTask { cursor: start, end })
        }

        fn step(&mut self, task: &mut StreamTask, batch: &mut AccessBatch) -> StepOutcome {
            self.sum_steps += 1;
            for lane in 0..WARP_SIZE as u64 {
                let addr = task.cursor + lane * self.elem;
                if addr < task.end {
                    batch.load(addr, self.elem as u8, Space::HostPinned);
                }
            }
            task.cursor += WARP_SIZE as u64 * self.elem;
            if task.cursor >= task.end {
                StepOutcome::Done
            } else {
                StepOutcome::Continue
            }
        }
    }

    fn machine() -> Machine {
        Machine::new(MachineConfig::v100_gen3())
    }

    #[test]
    fn empty_kernel_costs_only_the_launch() {
        let mut m = machine();
        struct Empty;
        impl Kernel for Empty {
            type Task = ();
            fn next_task(&mut self) -> Option<()> {
                None
            }
            fn step(&mut self, _: &mut (), _: &mut AccessBatch) -> StepOutcome {
                StepOutcome::Done
            }
        }
        let r = run_kernel(&mut m, &mut Empty);
        assert_eq!(r.tasks, 0);
        assert_eq!(r.elapsed(), 0);
        assert_eq!(m.now, m.kernel_launch_ns);
    }

    #[test]
    fn aligned_stream_produces_128_byte_requests() {
        let mut m = machine();
        let base = m.alloc_host_pinned(1 << 20);
        let mut k = StreamKernel {
            ranges: (0..64)
                .map(|i| (base + i * 16384, base + (i + 1) * 16384))
                .collect(),
            next: 0,
            elem: 8,
            sum_steps: 0,
        };
        let r = run_kernel(&mut m, &mut k);
        assert_eq!(r.tasks, 64);
        // 64 ranges x 16384 B / 128 B = 8192 requests, all 128-byte.
        assert_eq!(m.monitor.read_requests, 8192);
        assert_eq!(m.monitor.sizes.buckets[3], 8192);
        assert_eq!(m.monitor.zero_copy_bytes, 1 << 20);
        assert!(r.elapsed() > 0);
    }

    #[test]
    fn misaligned_stream_splits_requests() {
        let mut m = machine();
        let base = m.alloc_host_pinned(1 << 20);
        let mut k = StreamKernel {
            ranges: vec![(base + 32, base + 32 + 4096)],
            next: 0,
            elem: 8,
            sum_steps: 0,
        };
        run_kernel(&mut m, &mut k);
        // Every 256-byte warp window at offset 32 produces 96 + 128 + 32.
        assert!(m.monitor.sizes.buckets[0] > 0, "32-byte requests expected");
        assert!(m.monitor.sizes.buckets[2] > 0, "96-byte requests expected");
        assert!(m.monitor.sizes.buckets[3] > 0);
        assert_eq!(m.monitor.sizes.other, 0);
    }

    #[test]
    fn warp_count_is_bounded_by_resident_warps() {
        let mut m = machine();
        m.cfg.gpu.resident_warps = 4;
        let base = m.alloc_host_pinned(1 << 20);
        let mut k = StreamKernel {
            ranges: (0..16)
                .map(|i| (base + i * 4096, base + (i + 1) * 4096))
                .collect(),
            next: 0,
            elem: 8,
            sum_steps: 0,
        };
        let r = run_kernel(&mut m, &mut k);
        assert_eq!(r.tasks, 16, "all tasks complete despite few warp slots");
    }

    #[test]
    fn repeated_access_hits_cache_second_time() {
        let mut m = machine();
        let base = m.alloc_host_pinned(4096);
        let mk = |b| StreamKernel {
            ranges: vec![(b, b + 4096)],
            next: 0,
            elem: 8,
            sum_steps: 0,
        };
        run_kernel(&mut m, &mut mk(base));
        let first = m.monitor.read_requests;
        run_kernel(&mut m, &mut mk(base));
        let second = m.monitor.read_requests - first;
        assert_eq!(first, 32);
        assert_eq!(second, 0, "4 KiB fits in cache; second pass is all hits");
    }

    #[test]
    fn device_accesses_do_not_touch_the_link() {
        let mut m = machine();
        let base = m.alloc_device(1 << 16);
        struct DevKernel {
            base: u64,
            issued: bool,
        }
        impl Kernel for DevKernel {
            type Task = ();
            fn next_task(&mut self) -> Option<()> {
                (!std::mem::replace(&mut self.issued, true)).then_some(())
            }
            fn step(&mut self, _: &mut (), batch: &mut AccessBatch) -> StepOutcome {
                for lane in 0..32u64 {
                    batch.load(self.base + lane * 8, 8, Space::Device);
                }
                batch.store(self.base + 4096, 8, Space::Device);
                StepOutcome::Done
            }
        }
        run_kernel(
            &mut m,
            &mut DevKernel {
                base,
                issued: false,
            },
        );
        assert_eq!(m.monitor.read_requests, 0);
        assert!(m.hbm.bytes_read > 0);
        assert!(m.hbm.bytes_written > 0);
    }

    #[test]
    fn managed_access_faults_then_hits() {
        let mut m = machine();
        let base = m.alloc_managed(1 << 20);
        let mk = |b| StreamKernel {
            ranges: vec![(b, b + 8192)],
            next: 0,
            elem: 8,
            sum_steps: 0,
        };
        // Managed-space stream kernel: reuse StreamKernel but with the
        // Managed space by remapping — simplest is a dedicated kernel.
        struct ManagedKernel {
            inner: StreamKernel,
        }
        impl Kernel for ManagedKernel {
            type Task = StreamTask;
            fn next_task(&mut self) -> Option<StreamTask> {
                self.inner.next_task()
            }
            fn step(&mut self, task: &mut StreamTask, batch: &mut AccessBatch) -> StepOutcome {
                let out = self.inner.step(task, batch);
                // Rewrite the space of every access to Managed.
                let items: Vec<_> = batch.items().to_vec();
                batch.clear();
                for mut a in items {
                    a.space = Space::Managed;
                    batch.push(a);
                }
                out
            }
        }
        let mut k = ManagedKernel { inner: mk(base) };
        let r = run_kernel(&mut m, &mut k);
        assert!(
            r.page_faults >= 2,
            "two pages must fault, got {}",
            r.page_faults
        );
        let uvm = m.uvm.as_ref().unwrap();
        assert!(uvm.stats.pages_migrated >= 2);
        assert_eq!(
            m.monitor.read_requests, 0,
            "managed reads are migrations, not zero-copy"
        );
        assert!(m.monitor.dma_bytes >= 8192);

        // Second pass: pages resident, no new faults.
        let faults_before = uvm.stats.faults;
        let mut k2 = ManagedKernel { inner: mk(base) };
        let r2 = run_kernel(&mut m, &mut k2);
        assert_eq!(r2.page_faults, 0);
        assert_eq!(m.uvm.as_ref().unwrap().stats.faults, faults_before);
    }

    #[test]
    fn mshr_limit_defers_but_completes() {
        let mut m = machine();
        m.cfg.gpu.max_pending_per_warp = 2;
        let base = m.alloc_host_pinned(1 << 20);
        // One warp strides across 64 different lines in a single step:
        // far beyond the in-flight limit of 2.
        struct WideKernel {
            base: u64,
            issued: bool,
        }
        impl Kernel for WideKernel {
            type Task = ();
            fn next_task(&mut self) -> Option<()> {
                (!std::mem::replace(&mut self.issued, true)).then_some(())
            }
            fn step(&mut self, _: &mut (), batch: &mut AccessBatch) -> StepOutcome {
                for lane in 0..32u64 {
                    batch.load(self.base + lane * 256, 8, Space::HostPinned);
                }
                StepOutcome::Done
            }
        }
        let r = run_kernel(
            &mut m,
            &mut WideKernel {
                base,
                issued: false,
            },
        );
        assert_eq!(m.monitor.read_requests, 32, "all 32 strided reads issued");
        assert_eq!(r.tasks, 1);
    }

    #[test]
    fn uvm_eviction_invalidates_cached_sectors() {
        // A managed working set four times the pool size, swept twice by
        // a single warp: pages must be evicted mid-kernel, and their
        // cached sectors must go with them — the second sweep re-faults
        // and re-reads instead of hitting stale L2 sectors. The 6 MiB L2
        // holds the whole 256 KiB, so only invalidation stands between
        // the second sweep and a hit on every sector.
        const BYTES: u64 = 256 << 10; // 64 pages
        struct Sweep {
            base: u64,
            rounds: u32,
        }
        impl Kernel for Sweep {
            type Task = (u64, u64);
            fn next_task(&mut self) -> Option<(u64, u64)> {
                if self.rounds == 0 {
                    return None;
                }
                self.rounds -= 1;
                Some((self.base, self.base + BYTES))
            }
            fn step(&mut self, t: &mut (u64, u64), batch: &mut AccessBatch) -> StepOutcome {
                for lane in 0..32u64 {
                    batch.load(t.0 + lane * 8, 8, Space::Managed);
                }
                t.0 += 256;
                if t.0 >= t.1 {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue
                }
            }
        }
        // `pool` bytes of device memory left for managed pages.
        let sweep_twice = |pool: u64| {
            let mut m = machine();
            m.cfg.gpu.resident_warps = 1;
            let cap = m.spaces.device_capacity();
            m.alloc_device(cap - pool);
            let base = m.alloc_managed(BYTES);
            let first = run_kernel(&mut m, &mut Sweep { base, rounds: 1 });
            let (second, stats) = m.measure(|m| run_kernel(m, &mut Sweep { base, rounds: 1 }));
            assert_eq!(m.monitor.read_requests, 0, "no zero-copy traffic in UVM");
            (first, second, stats, m.uvm.as_ref().unwrap().stats)
        };

        let (first, second, stats, uvm) = sweep_twice(64 << 10); // 16 pages
        assert!(uvm.pages_evicted > 0, "pool must overflow");
        assert!(
            uvm.pages_migrated > 64,
            "second sweep re-migrates evicted pages (got {})",
            uvm.pages_migrated
        );
        assert!(first.page_faults > 4);
        assert!(second.page_faults > 4, "evicted pages fault again");
        assert_eq!(stats.l2_sector_hits, 0, "a hit here is a stale sector");
        assert!(stats.l2_sector_misses > 0);

        // Control: with room for every page nothing is evicted, and the
        // same second sweep is served from the L2 (bar the sectors of the
        // first sweep's faulting steps, which stalled instead of loading).
        let (_, second, stats, uvm) = sweep_twice(2 * BYTES);
        assert_eq!((uvm.pages_evicted, second.page_faults), (0, 0));
        assert!(stats.l2_sector_hits > stats.l2_sector_misses);
        assert_eq!(
            stats.l2_sector_hits + stats.l2_sector_misses,
            BYTES / SECTOR_BYTES
        );
    }

    #[test]
    fn report_counts_tasks_steps_and_txns() {
        let mut m = machine();
        let base = m.alloc_host_pinned(1 << 16);
        let mut k = StreamKernel {
            ranges: (0..4)
                .map(|i| (base + i * 8192, base + (i + 1) * 8192))
                .collect(),
            next: 0,
            elem: 8,
            sum_steps: 0,
        };
        let r = run_kernel(&mut m, &mut k);
        assert_eq!(r.tasks, 4);
        // 8192 B per task / 256 B per step = 32 steps per task.
        assert_eq!(r.steps, 4 * 32);
        assert_eq!(r.host_txns, 4 * 64, "two 128B txns per step");
        assert_eq!(r.device_txns, 0);
        assert!(r.elapsed() > 0);
    }

    #[test]
    fn mshr_merge_avoids_duplicate_requests() {
        let mut m = machine();
        let base = m.alloc_host_pinned(4096);
        // Two warps read the same line in the same step window.
        struct SameLine {
            base: u64,
            next: u32,
        }
        impl Kernel for SameLine {
            type Task = ();
            fn next_task(&mut self) -> Option<()> {
                if self.next < 2 {
                    self.next += 1;
                    Some(())
                } else {
                    None
                }
            }
            fn step(&mut self, _: &mut (), batch: &mut AccessBatch) -> StepOutcome {
                for lane in 0..16u64 {
                    batch.load(self.base + lane * 8, 8, Space::HostPinned);
                }
                StepOutcome::Done
            }
        }
        let r = run_kernel(&mut m, &mut SameLine { base, next: 0 });
        assert_eq!(
            m.monitor.read_requests, 1,
            "second warp must merge onto the in-flight line"
        );
        assert_eq!(r.mshr_merges, 1);
    }

    /// One task per 128-byte line of `[base, base + lines * 128)`, one
    /// step each, loading 8 bytes from every sector in `sectors`.
    struct SectorKernel {
        base: u64,
        lines: u64,
        sectors: &'static [u64],
        space: Space,
        next: u64,
    }

    impl Kernel for SectorKernel {
        type Task = u64;

        fn next_task(&mut self) -> Option<u64> {
            let line = self.next;
            self.next += 1;
            (line < self.lines).then_some(self.base + line * LINE_BYTES)
        }

        fn step(&mut self, line: &mut u64, batch: &mut AccessBatch) -> StepOutcome {
            for &s in self.sectors {
                batch.load(*line + s * SECTOR_BYTES, 8, self.space);
            }
            StepOutcome::Done
        }
    }

    /// The same sector stream through the one cached-load path, three
    /// backings: identical L2 behaviour, and only the memory that served
    /// the misses differs.
    #[test]
    fn one_sector_stream_three_backings_differ_only_in_who_serves_the_misses() {
        const LINES: u64 = 64;
        let run = |space: Space| {
            let mut m = Machine::new(MachineConfig::v100_gen3().with_cxl(CxlConfig::external_x8()));
            let base = match space {
                Space::Device => m.alloc_device(LINES * LINE_BYTES),
                Space::Cxl => m.alloc_cxl(LINES * LINE_BYTES),
                Space::Managed => m.alloc_managed(LINES * LINE_BYTES),
                Space::HostPinned => unreachable!("zero-copy loads are asynchronous"),
            };
            let sweep = |m: &mut Machine, sectors| {
                let mut k = SectorKernel {
                    base,
                    lines: LINES,
                    sectors,
                    space,
                    next: 0,
                };
                run_kernel(m, &mut k)
            };
            if space == Space::Managed {
                // Fault the pages in, then start from a cold cache like
                // the other two spaces.
                sweep(&mut m, &[0]);
                m.cache = SectoredCache::new(&m.cfg.gpu.cache);
            }
            let hbm_base = m.hbm.bytes_read;
            // Sector 1 misses alone; the full line then hits it and
            // misses around it as two runs (sector 0, then sectors 2-3).
            let ((cold, warm), stats) = m.measure(|m| (sweep(m, &[1]), sweep(m, &[0, 1, 2, 3])));
            let txns = |r: &KernelReport| (r.device_txns, r.cxl_txns, r.managed_txns);
            assert_eq!(txns(&cold), txns(&warm));
            assert_eq!(warm.page_faults, 0, "{space:?}: pages are resident");
            (stats, m.hbm.bytes_read - hbm_base, txns(&warm))
        };
        let (device, device_hbm, device_txns) = run(Space::Device);
        let (cxl, cxl_hbm, cxl_txns) = run(Space::Cxl);
        let (managed, managed_hbm, managed_txns) = run(Space::Managed);

        assert_eq!(device_txns, (LINES, 0, 0));
        assert_eq!(cxl_txns, (0, LINES, 0));
        assert_eq!(managed_txns, (0, 0, LINES));
        for (name, s) in [("device", &device), ("cxl", &cxl), ("managed", &managed)] {
            assert_eq!(s.kernel_launches, 2, "{name}: one launch per run_kernel");
            assert_eq!(s.l2_sector_hits, LINES, "{name}");
            assert_eq!(s.l2_sector_misses, 4 * LINES, "{name}");
            assert_eq!(s.pcie_read_requests, 0, "{name}: nothing crosses PCIe");
        }
        // Every missed sector was read from the backing exactly once, one
        // read per miss run.
        assert_eq!(device_hbm, 4 * SECTOR_BYTES * LINES);
        assert_eq!(managed_hbm, device_hbm);
        assert_eq!((device.cxl_bytes, managed.cxl_bytes), (0, 0));
        assert_eq!(cxl_hbm, 0, "the CXL tier is not HBM");
        assert_eq!(cxl.cxl_bytes, 4 * SECTOR_BYTES * LINES);
        assert_eq!(cxl.cxl_read_requests, 3 * LINES, "one read per miss run");
        assert!(
            cxl.elapsed_ns > device.elapsed_ns,
            "same stream, slower backing"
        );
    }
}
