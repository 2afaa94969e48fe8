//! The one counter ledger.
//!
//! Every number the reproduction reports is a monotonically growing
//! counter read before and after a run and diffed — the software twin of
//! the paper's FPGA monitor (§3.2). [`ledger!`](crate::ledger!) declares
//! such a counter struct **once**: the field list it is given becomes the
//! struct, its field-wise `-` (diff two readings) and its field-wise `+=`
//! (fold diffs across iterations, queries, devices). A new counter is one
//! line in that list plus its increment site.

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
