//! `counter_block!`: one declaration for a process-global block of
//! monotonic counters.
//!
//! A block is a struct of `AtomicU64`s, a `Copy` snapshot with the same
//! fields, a JSON rendering with keys in declaration order, `reset`, and
//! a `static` instance behind an accessor function. Each declared
//! `record_*` method is one relaxed `fetch_add` on the static (by one, or
//! by its single `u64` argument), so recording from a hot path costs one
//! uncontended atomic add and never allocates or locks.
//!
//! ```text
//! counter_block! {
//!     /// The counter block.
//!     pub struct Counters;
//!     /// A point-in-time copy.
//!     pub struct Snapshot;
//!     /// The process-global block.
//!     pub fn counters();
//!
//!     /// Snapshot field doc.
//!     hits: /// Records one hit.
//!         fn record_hit();
//!     /// Bytes moved.
//!     bytes: /// Records `n` bytes.
//!         fn record_bytes(n);
//!     /// A field bumped by a hand-written method.
//!     misses;
//! }
//! ```

/// Declares a counter block; see the module docs for the syntax.
macro_rules! counter_block {
    (
        $(#[$counters_meta:meta])*
        pub struct $counters:ident;
        $(#[$snapshot_meta:meta])*
        pub struct $snapshot:ident;
        $(#[$global_meta:meta])*
        pub fn $global:ident();
        $(
            $(#[$field_meta:meta])*
            $field:ident $(: $(#[$record_meta:meta])* fn $record:ident($($n:ident)?))?;
        )*
    ) => {
        $(#[$counters_meta])*
        #[derive(Debug, Default)]
        pub struct $counters {
            $($field: ::std::sync::atomic::AtomicU64,)*
        }

        impl $counters {
            $($(
                $(#[$record_meta])*
                pub fn $record(&self $(, $n: u64)?) {
                    self.$field.fetch_add(
                        $crate::counter_block::counter_block!(@amount $($n)?),
                        ::std::sync::atomic::Ordering::Relaxed,
                    );
                }
            )?)*

            /// A point-in-time copy.
            pub fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $($field: self.$field.load(::std::sync::atomic::Ordering::Relaxed),)*
                }
            }

            /// Zeroes every counter (test isolation; counters are
            /// process-global).
            pub fn reset(&self) {
                $(self.$field.store(0, ::std::sync::atomic::Ordering::Relaxed);)*
            }
        }

        $(#[$snapshot_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $snapshot {
            $($(#[$field_meta])* pub $field: u64,)*
        }

        impl $snapshot {
            /// JSON rendering: an object whose keys are the field names in
            /// declaration order.
            pub fn to_json(&self) -> String {
                let mut out = String::from("{");
                $(
                    if out.len() > 1 {
                        out.push(',');
                    }
                    out.push_str(concat!("\"", stringify!($field), "\":"));
                    out.push_str(&self.$field.to_string());
                )*
                out.push('}');
                out
            }
        }

        static GLOBAL: $counters = $counters {
            $($field: ::std::sync::atomic::AtomicU64::new(0),)*
        };

        $(#[$global_meta])*
        pub fn $global() -> &'static $counters {
            &GLOBAL
        }
    };
    (@amount) => {
        1
    };
    (@amount $n:ident) => {
        $n
    };
}

pub(crate) use counter_block;
