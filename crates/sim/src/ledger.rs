//! The one counter ledger.
//!
//! Every number the reproduction reports is a monotonically growing
//! counter read before and after a run and diffed — the software twin of
//! the paper's FPGA monitor (§3.2). [`ledger!`](crate::ledger!) declares
//! such a counter struct **once**: the field list it is given becomes the
//! struct, its field-wise `-` (diff two readings) and its field-wise `+=`
//! (fold diffs across iterations, queries, devices). `LinkStats`,
//! `TransferStats`, `PrefetchStats` and `RunStats` are all declared this
//! way; `RunStats` nests the two middle ones and a `SizeHistogram`, and
//! lists its two non-counters (`avg_pcie_gbps`, re-derived from bytes
//! over time after every `-` and `+=`; `shared_fetch`, carried from the
//! left operand) in the macro's `carried { .. } settled by` tail.
//!
//! `Machine::counters()` is the one cumulative reading — every counter
//! since construction, `elapsed_ns` the clock itself, `kernel_launches`
//! bumped by `run_kernel` — and a run's stats are born in exactly two
//! places: the driver's `Meter::close` (N devices, whose
//! `Placement::counters` adds the transfer manager's and prefetcher's
//! lifetime counters, which live outside the machine) and
//! `Machine::measure(|m| ..)`, the bracket every run loop outside the
//! driver goes through (the toy kernels, `compressed.rs`, Subway).
//!
//! # Adding a counter
//!
//! 1. Declare it: one `pub name: u64,` line (with its doc comment) in the
//!    struct's `ledger!` field list. `-`, `+=`, `Default` and `PartialEq`
//!    follow.
//! 2. Increment it where the event happens. For `TransferStats` /
//!    `PrefetchStats` that is all — the planner bumps `self.stats.name`.
//! 3. If the machine owns the source (a monitor, link, cache or clock
//!    field), add one line to `Machine::counters()` mapping it into
//!    `RunStats`.
//! 4. Re-pin `tests/sim_golden.rs`: its `Fnv::stats` destructures
//!    `RunStats`, `TransferStats` and `PrefetchStats` exhaustively, so
//!    the new field is a compile error there until it is hashed. That is
//!    the deliberate pin — a counter cannot be added without entering the
//!    golden digest.

/// Declare a counter struct together with its field-wise `Sub` and
/// `AddAssign` (by value and by reference).
///
/// Every listed field is a counter: its type only needs `Sub` and
/// `AddAssign<&Self>`, so `u64`, [`SizeHistogram`](crate::SizeHistogram)
/// and other ledgers nest freely. Values that are *not* counters (a rate,
/// a flag) go in the optional `carried { .. } settled by <fn>` tail: `-`
/// and `+=` keep the left operand's value for them, then call the
/// `fn(&mut Self)` so anything derived from the counters is re-derived
/// from the new totals.
#[macro_export]
macro_rules! ledger {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)+
        }
        $(carried {
            $($(#[$cmeta:meta])* pub $cfield:ident: $cty:ty,)+
        } settled by $settle:path)?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)+
            $($($(#[$cmeta])* pub $cfield: $cty,)+)?
        }

        impl std::ops::Sub for $name {
            type Output = $name;

            /// Diff two readings of the monotonically growing counters.
            // Without a `carried` tail, `..self` has nothing left to
            // carry and `diff` is never settled.
            #[allow(clippy::needless_update, unused_mut)]
            fn sub(self, base: $name) -> $name {
                let mut diff = $name {
                    $($field: self.$field - base.$field,)+
                    ..self
                };
                $($settle(&mut diff);)?
                diff
            }
        }

        impl std::ops::AddAssign<&$name> for $name {
            /// Fold another reading's counters into this total.
            fn add_assign(&mut self, other: &$name) {
                $(self.$field += &other.$field;)+
                $($settle(self);)?
            }
        }

        impl std::ops::AddAssign for $name {
            fn add_assign(&mut self, other: $name) {
                *self += &other;
            }
        }
    };
}
