//! The persistence-policy abstraction shared by all six techniques.

use nvcache_trace::Line;

/// What a policy did with one persistent store — the per-store signal
/// the telemetry layer turns into hit/miss (write-combining) counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The write was combined into state the policy already buffers
    /// (software-cache hit) — no new flush obligation was created.
    Combined,
    /// The write created a new buffered entry (software-cache miss);
    /// any eviction it forced is in the `out` buffer.
    Inserted,
}

/// A per-thread persistence policy: decides which cache lines to flush,
/// and when, in response to the instrumented event stream.
///
/// Contract (matching Atlas semantics):
/// * `on_store` may emit flushes that the runtime issues
///   **asynchronously** — they overlap computation.
/// * `on_fase_end` emits the flushes that must complete before the FASE
///   can commit; the runtime issues them **synchronously** and follows
///   with a fence. Only *outermost* FASE ends reach the policy.
/// * Policies are strictly per-thread; implementations need no
///   synchronization.
pub trait PersistPolicy {
    /// Display name ("ER", "AT", "SC", …).
    fn name(&self) -> &'static str;

    /// A persistent store to `line` happened; push any lines to flush
    /// asynchronously onto `out` and report whether the write was
    /// combined or inserted (telemetry; callers may ignore it).
    fn on_store(&mut self, line: Line, out: &mut Vec<Line>) -> StoreOutcome;

    /// An outermost FASE began.
    fn on_fase_begin(&mut self) {}

    /// An outermost FASE is ending; push the lines that must be flushed
    /// synchronously before the commit fence onto `out`.
    fn on_fase_end(&mut self, out: &mut Vec<Line>);

    /// Bookkeeping instructions the policy executes per persistent store
    /// (table lookup, list update, …). Used by the timing model to charge
    /// instruction overhead (paper Table IV shows SC runs ~8% more
    /// instructions than AT).
    fn store_overhead_instrs(&self) -> u64;

    /// Additional instructions accumulated since the last call (e.g. MRC
    /// analysis at a burst end). Default: none.
    fn drain_extra_instrs(&mut self) -> u64 {
        0
    }

    /// Capacity change performed by the most recent `on_store`, as
    /// `(knee, new_capacity)`, drained once. Only adaptive policies
    /// override this; the telemetry-enabled driver polls it to put
    /// resize events (with the MRC knee that motivated them) on the
    /// timeline.
    fn take_capacity_change(&mut self) -> Option<(usize, usize)> {
        None
    }

    /// Current software-cache capacity in lines; `None` for policies
    /// without a resizable cache. The runtime sampler reads this to put
    /// the live capacity on its time series. Default: no cache.
    fn sc_capacity(&self) -> Option<usize> {
        None
    }

    /// Forget all buffered state (used between runs).
    fn reset(&mut self);
}

/// Factory enumeration of the six techniques, used by the harness to
/// instantiate one policy instance per thread, or per replica group in
/// the replay driver ([`PolicyKind::build_policy`]).
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// ER: flush on every store.
    Eager,
    /// LA: flush everything at FASE end.
    Lazy,
    /// AT: Atlas direct-mapped table of `size` entries (paper: 8).
    Atlas {
        /// Table entries.
        size: usize,
    },
    /// SC with a fixed capacity (the "SC-offline" configuration once the
    /// capacity comes from offline profiling).
    ScFixed {
        /// Cache capacity in lines.
        capacity: usize,
    },
    /// SC with online adaptive capacity selection.
    ScAdaptive(crate::adaptive::AdaptiveConfig),
    /// BEST: never flush (upper bound).
    Best,
}

impl PolicyKind {
    /// Instantiate a fresh per-thread policy as a stack-allocated
    /// [`Policy`] enum — no heap allocation, no vtable. The one place a
    /// kind becomes a policy.
    pub fn build_policy(&self) -> Policy {
        match self {
            PolicyKind::Eager => Policy::Eager(crate::eager::EagerPolicy::new()),
            PolicyKind::Lazy => Policy::Lazy(crate::lazy::LazyPolicy::new()),
            PolicyKind::Atlas { size } => Policy::Atlas(crate::atlas::AtlasPolicy::new(*size)),
            PolicyKind::ScFixed { capacity } => {
                Policy::ScFixed(crate::sc::ScPolicy::new(*capacity))
            }
            PolicyKind::ScAdaptive(cfg) => {
                Policy::ScAdaptive(crate::adaptive::AdaptiveScPolicy::new(cfg.clone()))
            }
            PolicyKind::Best => Policy::Best(crate::best::BestPolicy::new()),
        }
    }

    /// Paper label of the technique.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Eager => "ER",
            PolicyKind::Lazy => "LA",
            PolicyKind::Atlas { .. } => "AT",
            PolicyKind::ScFixed { .. } => "SC-offline",
            PolicyKind::ScAdaptive(_) => "SC",
            PolicyKind::Best => "BEST",
        }
    }
}

/// A concrete, stack-allocated policy instance — one variant per
/// technique, built by [`PolicyKind::build_policy`].
///
/// Every [`PersistPolicy`] method on this enum is an `#[inline]` six-way
/// match: callers that hold a `Policy` across calls (`FaseRuntime`) pay
/// one predictable branch per call, and callers that match on the
/// variant once (the replay drivers in [`crate::driver`]) monomorphize
/// their whole loop per concrete policy type with zero dispatch cost.
// size skew (ScAdaptive carries the burst sampler) is fine: instances
// live one-per-thread on the stack, never in bulk collections, so the
// boxing clippy suggests would only buy back a pointer chase
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Policy {
    /// ER: flush on every store.
    Eager(crate::eager::EagerPolicy),
    /// LA: flush everything at FASE end.
    Lazy(crate::lazy::LazyPolicy),
    /// AT: Atlas direct-mapped table.
    Atlas(crate::atlas::AtlasPolicy),
    /// SC with a fixed capacity.
    ScFixed(crate::sc::ScPolicy),
    /// SC with online adaptive capacity selection.
    ScAdaptive(crate::adaptive::AdaptiveScPolicy),
    /// BEST: never flush.
    Best(crate::best::BestPolicy),
}

/// Evaluate `$e` with `$p` bound to the concrete policy inside a
/// [`Policy`]: `$e` compiles once per variant, so a replay loop called
/// from it is monomorphized per concrete policy type.
macro_rules! each_variant {
    ($self:expr, $p:ident => $e:expr) => {
        match $self {
            $crate::policy::Policy::Eager($p) => $e,
            $crate::policy::Policy::Lazy($p) => $e,
            $crate::policy::Policy::Atlas($p) => $e,
            $crate::policy::Policy::ScFixed($p) => $e,
            $crate::policy::Policy::ScAdaptive($p) => $e,
            $crate::policy::Policy::Best($p) => $e,
        }
    };
}
pub(crate) use each_variant;

impl PersistPolicy for Policy {
    #[inline]
    fn name(&self) -> &'static str {
        each_variant!(self, p => p.name())
    }

    #[inline]
    fn on_store(&mut self, line: Line, out: &mut Vec<Line>) -> StoreOutcome {
        each_variant!(self, p => p.on_store(line, out))
    }

    #[inline]
    fn on_fase_begin(&mut self) {
        each_variant!(self, p => p.on_fase_begin())
    }

    #[inline]
    fn on_fase_end(&mut self, out: &mut Vec<Line>) {
        each_variant!(self, p => p.on_fase_end(out))
    }

    #[inline]
    fn store_overhead_instrs(&self) -> u64 {
        each_variant!(self, p => p.store_overhead_instrs())
    }

    #[inline]
    fn drain_extra_instrs(&mut self) -> u64 {
        each_variant!(self, p => p.drain_extra_instrs())
    }

    #[inline]
    fn take_capacity_change(&mut self) -> Option<(usize, usize)> {
        each_variant!(self, p => p.take_capacity_change())
    }

    #[inline]
    fn sc_capacity(&self) -> Option<usize> {
        each_variant!(self, p => p.sc_capacity())
    }

    #[inline]
    fn reset(&mut self) {
        each_variant!(self, p => p.reset())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_named_policies() {
        let kinds = [
            (PolicyKind::Eager, "ER"),
            (PolicyKind::Lazy, "LA"),
            (PolicyKind::Atlas { size: 8 }, "AT"),
            (PolicyKind::ScFixed { capacity: 8 }, "SC-offline"),
            (
                PolicyKind::ScAdaptive(crate::adaptive::AdaptiveConfig::default()),
                "SC",
            ),
            (PolicyKind::Best, "BEST"),
        ];
        for (kind, label) in kinds {
            assert_eq!(kind.label(), label);
            assert_eq!(kind.build_policy().name(), label);
        }
    }

    #[test]
    fn sc_capacity_covers_only_sc_variants() {
        for kind in [PolicyKind::Eager, PolicyKind::Lazy, PolicyKind::Best] {
            assert_eq!(kind.build_policy().sc_capacity(), None, "{}", kind.label());
        }
        let fixed = PolicyKind::ScFixed { capacity: 4 }.build_policy();
        assert_eq!(fixed.sc_capacity(), Some(4));
        let adaptive = PolicyKind::ScAdaptive(Default::default()).build_policy();
        assert_eq!(adaptive.sc_capacity(), Some(8));
    }

    /// Drive `concrete` and the [`Policy`] `kind` builds through the same
    /// event stream: the enum's forwarding must be invisible.
    fn behaves_like<P: PersistPolicy>(kind: PolicyKind, mut concrete: P) {
        use nvcache_trace::Line;
        let mut inline = kind.build_policy();
        assert_eq!(concrete.name(), inline.name());
        let (mut c_out, mut e_out) = (Vec::new(), Vec::new());
        for i in 0..200u64 {
            let line = Line(i % 7);
            assert_eq!(
                concrete.on_store(line, &mut c_out),
                inline.on_store(line, &mut e_out),
                "{} store {i}",
                kind.label()
            );
            assert_eq!(concrete.drain_extra_instrs(), inline.drain_extra_instrs());
            assert_eq!(
                concrete.take_capacity_change(),
                inline.take_capacity_change()
            );
            assert_eq!(concrete.sc_capacity(), inline.sc_capacity());
            if i % 50 == 49 {
                concrete.on_fase_end(&mut c_out);
                inline.on_fase_end(&mut e_out);
                concrete.on_fase_begin();
                inline.on_fase_begin();
            }
        }
        concrete.on_fase_end(&mut c_out);
        inline.on_fase_end(&mut e_out);
        assert_eq!(c_out, e_out, "{}", kind.label());
        assert_eq!(
            concrete.store_overhead_instrs(),
            inline.store_overhead_instrs()
        );
        inline.reset();
        e_out.clear();
        inline.on_fase_end(&mut e_out);
        assert!(e_out.is_empty(), "{}: reset drops state", kind.label());
    }

    #[test]
    fn enum_policy_behaves_like_its_concrete_policy() {
        use crate::*;
        behaves_like(PolicyKind::Eager, EagerPolicy::new());
        behaves_like(PolicyKind::Lazy, LazyPolicy::new());
        behaves_like(PolicyKind::Atlas { size: 4 }, AtlasPolicy::new(4));
        behaves_like(PolicyKind::ScFixed { capacity: 4 }, ScPolicy::new(4));
        let cfg = AdaptiveConfig {
            burst_len: 64,
            ..Default::default()
        };
        behaves_like(
            PolicyKind::ScAdaptive(cfg.clone()),
            AdaptiveScPolicy::new(cfg),
        );
        behaves_like(PolicyKind::Best, BestPolicy::new());
    }
}
