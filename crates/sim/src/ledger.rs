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
//! lists its one non-counter (`shared_fetch`, carried from the left
//! operand) in the macro's `carried { .. }` tail. Rates are never stored:
//! `RunStats::avg_pcie_gbps()` divides the bytes by the time of whatever
//! reading or fold it is called on.
//!
//! A diff that would go below zero is a bookkeeping bug, not a value: it
//! panics in every build profile, naming the struct and field
//! (`RunStats::host_bytes`, `TransferStats::staged_bytes`), instead of
//! wrapping.
//!
//! `Machine::counters()` is the one cumulative reading — every counter
//! since construction, `elapsed_ns` the clock itself, `kernel_launches`
//! bumped by `run_kernel` — and a run's stats are born in exactly two
//! places: the driver's running per-device reading, diffed once per
//! iteration (N devices, whose `GraphLayout::counters` adds the transfer
//! manager's and prefetcher's lifetime counters, which live outside the
//! machine), and `Machine::measure(|m| ..)`, the bracket every run loop
//! outside the driver goes through (the toy kernels, `compressed.rs`,
//! Subway).
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

/// A ledger field: diffed against an earlier reading of itself. `field`
/// names it (`Struct::field`) in the panic when the counter went
/// backwards.
#[doc(hidden)]
pub trait Counter {
    fn diff(self, base: Self, field: &str) -> Self;
}

impl Counter for u64 {
    fn diff(self, base: u64, field: &str) -> u64 {
        match self.checked_sub(base) {
            Some(d) => d,
            None => panic!("ledger underflow: {field} went backwards ({base} -> {self})"),
        }
    }
}

/// Declare a counter struct together with its field-wise `Sub` and
/// `AddAssign` (by value and by reference).
///
/// Every listed field is a counter: its type only needs `Counter` and
/// `AddAssign<&Self>`, so `u64`, [`SizeHistogram`](crate::SizeHistogram)
/// and other ledgers nest freely. Values that are *not* counters (a flag)
/// go in the optional `carried { .. }` tail: `-` and `+=` keep the left
/// operand's value for them.
#[macro_export]
macro_rules! ledger {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)+
        }
        $(carried {
            $($(#[$cmeta:meta])* pub $cfield:ident: $cty:ty,)+
        })?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)+
            $($($(#[$cmeta])* pub $cfield: $cty,)+)?
        }

        impl std::ops::Sub for $name {
            type Output = $name;

            /// Diff two readings of the monotonically growing counters;
            /// panics naming the first field that went backwards.
            // Without a `carried` tail, `..self` has nothing left to carry.
            #[allow(clippy::needless_update)]
            fn sub(self, base: $name) -> $name {
                $name {
                    $($field: $crate::ledger::Counter::diff(
                        self.$field,
                        base.$field,
                        concat!(stringify!($name), "::", stringify!($field)),
                    ),)+
                    ..self
                }
            }
        }

        impl $crate::ledger::Counter for $name {
            fn diff(self, base: $name, _field: &str) -> $name {
                self - base
            }
        }

        impl std::ops::AddAssign<&$name> for $name {
            /// Fold another reading's counters into this total.
            fn add_assign(&mut self, other: &$name) {
                $(self.$field += &other.$field;)+
            }
        }

        impl std::ops::AddAssign for $name {
            fn add_assign(&mut self, other: $name) {
                *self += &other;
            }
        }
    };
}
