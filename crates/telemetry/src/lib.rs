//! Zero-overhead-when-disabled instrumentation for the whole stack:
//! per-thread [`Counter`](recorder::CounterId) shards, fixed-bucket log2
//! [`Histogram`]s, and a bounded [`EventRing`] timeline.
//!
//! Everything funnels through the [`Recorder`] trait. The hot paths
//! (trace replay, policy decisions, machine timing) are generic over
//! `R: Recorder`; with [`NullRecorder`] every instrumentation call is an
//! empty `#[inline(always)]` body guarded by the associated constant
//! `R::ENABLED == false`, so the optimizer removes both the calls and
//! the branches — recorder-off replay compiles to the same machine code
//! as before the telemetry layer existed.
//!
//! With [`ThreadRecorder`] (one per simulated thread, shared-nothing),
//! counters, histograms and events accumulate per thread;
//! [`TelemetrySnapshot::from_threads`] merges the shards **in thread-id
//! order**, so parallel replay produces a bit-identical snapshot to
//! sequential replay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod convergence;
pub mod hist;
pub mod recorder;
pub mod ring;
pub mod series;
pub mod snapshot;
pub mod span;

pub use clock::{Clock, ClockSource, FakeClock, MonoClock};
pub use convergence::{CapacityEvent, Convergence, ConvergenceConfig, ShiftReport};
pub use hist::{Histogram, HIST_BUCKETS};
pub use recorder::{
    CounterId, HistId, NullRecorder, Recorder, TelemetryConfig, ThreadRecorder, NUM_COUNTERS,
    NUM_HISTS,
};
pub use ring::{Event, EventKind, EventRing};
pub use series::{Sample, SeriesRing};
pub use snapshot::TelemetrySnapshot;
pub use span::{SpanGuard, SpanId};
