//! `counter_block!`: one declaration for a block of atomic counters.
//!
//! A block is a struct of `AtomicU64`s with a getter per field, a
//! snapshot struct with the same fields, a JSON rendering with keys in
//! declaration order, `reset`, and `Debug`. Every field has a kind:
//!
//! * `counter` — monotonic, bumped with `fetch_add`;
//! * `gauge` — live state, written with `store`/`swap` (or moved both
//!   ways, like a count of calls in flight);
//! * `peak` — a high-water mark, raised with `fetch_max`.
//!
//! A counter may declare a `record_*` method: one relaxed `fetch_add` (by
//! one, or by its single `u64` argument), so recording from a hot path
//! costs one uncontended atomic add and never allocates or locks. Gauges
//! and peaks move together with other fields, so the block writes them
//! from hand-written recorders beside the declaration.
//!
//! A block is either process-global (a `static` behind an accessor
//! function) or per-instance (`Default` plus `new() -> Arc<Self>`). A
//! per-instance block may carry fields that are not flat atomics (a
//! histogram, a lock-guarded map) and snapshot fields computed from them,
//! placed before or after the counters (`..`) in the snapshot and its
//! JSON. Their types render through [`JsonValue`].
//!
//! ```text
//! counter_block! {
//!     /// The counter block.
//!     pub struct Counters;
//!     /// A point-in-time copy.
//!     #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
//!     pub struct Snapshot;
//!     /// The process-global block (omit for a per-instance block).
//!     pub fn counters();
//!
//!     /// Hits so far.
//!     counter hits: /// Records one hit.
//!         fn record_hit();
//!     /// Bytes moved.
//!     counter bytes: /// Records `n` bytes.
//!         fn record_bytes(n);
//!     /// Bytes buffered right now (written by a hand-written method).
//!     gauge buffered;
//!     /// High-water mark of `buffered`.
//!     peak peak_buffered;
//! }
//!
//! counter_block! {
//!     /// A per-instance block with extra state.
//!     pub struct Timed {
//!         latency: LatencyHistogram,
//!     }
//!     /// A point-in-time copy.
//!     #[derive(Debug, Clone, PartialEq, Eq)]
//!     pub struct TimedSnapshot {
//!         ..,
//!         /// The latency histogram.
//!         latency: LatencySnapshot = |m| m.latency.snapshot()
//!     }
//!
//!     /// Calls so far.
//!     counter calls;
//! }
//! ```

/// A snapshot field's JSON rendering, appended to `out`.
pub(crate) trait JsonValue {
    fn write_json(&self, out: &mut String);
}

impl JsonValue for u64 {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

/// Declares a counter block; see the module docs for the syntax.
macro_rules! counter_block {
    // Process-global: a `static` block behind an accessor function.
    (
        $(#[$counters_meta:meta])*
        pub struct $counters:ident;
        $(#[$snapshot_meta:meta])*
        pub struct $snapshot:ident;
        $(#[$global_meta:meta])*
        pub fn $global:ident();
        $(
            $(#[$field_meta:meta])*
            $kind:ident $field:ident $(: $(#[$record_meta:meta])* fn $record:ident($($n:ident)?))?;
        )*
    ) => {
        $crate::counter_block::counter_block! {
            @block
            $(#[$counters_meta])*
            pub struct $counters {}
            $(#[$snapshot_meta])*
            pub struct $snapshot { .. }
            $(
                $(#[$field_meta])*
                $kind $field $(: $(#[$record_meta])* fn $record($($n)?))?;
            )*
        }

        static GLOBAL: $counters = $counters {
            $($field: ::std::sync::atomic::AtomicU64::new(0),)*
        };

        $(#[$global_meta])*
        pub fn $global() -> &'static $counters {
            &GLOBAL
        }
    };
    // Per-instance, flat atomics only.
    (
        $(#[$counters_meta:meta])*
        pub struct $counters:ident;
        $(#[$snapshot_meta:meta])*
        pub struct $snapshot:ident;
        $($fields:tt)*
    ) => {
        $crate::counter_block::counter_block! {
            $(#[$counters_meta])*
            pub struct $counters {}
            $(#[$snapshot_meta])*
            pub struct $snapshot { .. }
            $($fields)*
        }
    };
    // Per-instance, with extra state.
    (
        $(#[$counters_meta:meta])*
        pub struct $counters:ident { $($extra:tt)* }
        $($rest:tt)*
    ) => {
        $crate::counter_block::counter_block! {
            @block
            $(#[$counters_meta])*
            pub struct $counters { $($extra)* }
            $($rest)*
        }

        impl $counters {
            /// Creates a zeroed block.
            pub fn new() -> ::std::sync::Arc<Self> {
                ::std::sync::Arc::new(Self::default())
            }
        }
    };
    (
        @block
        $(#[$counters_meta:meta])*
        pub struct $counters:ident {
            $($(#[$extra_meta:meta])* $extra:ident: $extra_ty:ty),* $(,)?
        }
        $(#[$snapshot_meta:meta])*
        pub struct $snapshot:ident {
            $($(#[$pre_meta:meta])* $pre:ident: $pre_ty:ty = |$pre_self:ident| $pre_value:expr,)*
            ..
            $(, $(#[$post_meta:meta])* $post:ident: $post_ty:ty = |$post_self:ident| $post_value:expr)*
        }
        $(
            $(#[$field_meta:meta])*
            $kind:ident $field:ident $(: $(#[$record_meta:meta])* fn $record:ident($($n:ident)?))?;
        )*
    ) => {
        $(#[$counters_meta])*
        #[derive(Default)]
        pub struct $counters {
            $($field: ::std::sync::atomic::AtomicU64,)*
            $($(#[$extra_meta])* $extra: $extra_ty,)*
        }

        impl $counters {
            $(
                $(#[$field_meta])*
                pub fn $field(&self) -> u64 {
                    self.$field.load(::std::sync::atomic::Ordering::Relaxed)
                }

                $(
                    $(#[$record_meta])*
                    #[inline]
                    pub fn $record(&self $(, $n: u64)?) {
                        $crate::counter_block::counter_block!(@countable $kind);
                        self.$field.fetch_add(
                            $crate::counter_block::counter_block!(@amount $($n)?),
                            ::std::sync::atomic::Ordering::Relaxed,
                        );
                    }
                )?
            )*

            /// A point-in-time copy.
            pub fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $($pre: {
                        let $pre_self = self;
                        $pre_value
                    },)*
                    $($field: self.$field(),)*
                    $($post: {
                        let $post_self = self;
                        $post_value
                    },)*
                }
            }

            /// Zeroes every counter and peak. Gauges mirror live state
            /// (calls in flight, bytes queued) and keep their values.
            pub fn reset(&self) {
                $($crate::counter_block::counter_block!(@reset $kind self.$field);)*
            }
        }

        impl ::std::fmt::Debug for $counters {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.debug_struct(stringify!($counters))
                    $(.field(stringify!($field), &self.$field()))*
                    .finish()
            }
        }

        $(#[$snapshot_meta])*
        pub struct $snapshot {
            $($(#[$pre_meta])* pub $pre: $pre_ty,)*
            $($(#[$field_meta])* pub $field: u64,)*
            $($(#[$post_meta])* pub $post: $post_ty,)*
        }

        impl $snapshot {
            /// JSON rendering: an object whose keys are the field names in
            /// declaration order.
            pub fn to_json(&self) -> String {
                let mut out = String::from("{");
                $($crate::counter_block::counter_block!(@json out, $pre, self.$pre);)*
                $($crate::counter_block::counter_block!(@json out, $field, self.$field);)*
                $($crate::counter_block::counter_block!(@json out, $post, self.$post);)*
                out.push('}');
                out
            }
        }
    };
    // Appends `"key":value` to the JSON object being built in `out`.
    (@json $out:ident, $key:ident, $value:expr) => {
        if $out.len() > 1 {
            $out.push(',');
        }
        $out.push_str(concat!("\"", stringify!($key), "\":"));
        $crate::counter_block::JsonValue::write_json(&$value, &mut $out);
    };
    // Only counters declare recorders.
    (@countable counter) => {};
    (@amount) => {
        1
    };
    (@amount $n:ident) => {
        $n
    };
    (@reset counter $atomic:expr) => {
        $atomic.store(0, ::std::sync::atomic::Ordering::Relaxed)
    };
    (@reset peak $atomic:expr) => {
        $atomic.store(0, ::std::sync::atomic::Ordering::Relaxed)
    };
    (@reset gauge $atomic:expr) => {};
}

pub(crate) use counter_block;
