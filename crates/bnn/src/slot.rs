//! A swap-safe handle to the serving model's compiled state.
//!
//! [`ModelSlot`] holds the compiled `Arc<Cascade>` a long-running
//! service classifies and scans with and lets a background thread
//! replace it atomically: readers grab a cheap `Arc` clone per batch and
//! keep using the cascade they started with, while
//! [`swap`](ModelSlot::swap) publishes a new one — compiled before it is
//! published — for every *subsequent* batch.  Each successful swap bumps
//! a monotonically increasing generation counter so callers can
//! attribute work (and failures) to the exact model that produced it —
//! the hook the serving layer's post-swap rollback monitor hangs off.
//!
//! The slot recovers from lock poisoning by construction: the guarded
//! state is an `Arc` plus a counter, both valid at every instruction
//! boundary, so a panicking reader can never wedge the service.

use crate::cascade::Cascade;
use hotspot_telemetry::{Clock, MonotonicClock};
use std::sync::{Arc, RwLock};

struct Entry {
    model: Arc<Cascade>,
    generation: u64,
    /// Clock reading when this model was published (construction for
    /// generation 1, the `swap` call otherwise) — the anchor for
    /// "how long has this model been serving" observability queries.
    published_at_ns: u64,
}

/// An atomically swappable, generation-counted model handle (see the
/// module docs).
pub struct ModelSlot {
    inner: RwLock<Entry>,
    clock: Arc<dyn Clock>,
}

impl ModelSlot {
    /// Wraps a compiled model as generation 1.
    pub fn new(model: Cascade) -> Self {
        Self::from_arc_with_clock(Arc::new(model), Arc::new(MonotonicClock))
    }

    /// Wraps an already-shared compiled model as generation 1, with an
    /// injected clock so tests can pin the publish timestamps
    /// deterministically.
    pub fn from_arc_with_clock(model: Arc<Cascade>, clock: Arc<dyn Clock>) -> Self {
        let now = clock.now_ns();
        ModelSlot {
            inner: RwLock::new(Entry {
                model,
                generation: 1,
                published_at_ns: now,
            }),
            clock,
        }
    }

    /// The current model and its generation.  The returned `Arc` stays
    /// valid across concurrent swaps — a worker mid-batch keeps the
    /// model it started with.
    pub fn current(&self) -> (Arc<Cascade>, u64) {
        let entry = self.inner.read().unwrap_or_else(|p| p.into_inner());
        (entry.model.clone(), entry.generation)
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.inner
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .generation
    }

    /// Clock reading at which the current model was published:
    /// construction time for generation 1, the most recent
    /// [`swap`](ModelSlot::swap) otherwise.
    pub fn last_swap_ns(&self) -> u64 {
        self.inner
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .published_at_ns
    }

    /// Nanoseconds the current model has been serving, measured on the
    /// slot's own clock.
    pub fn model_age_ns(&self) -> u64 {
        let published = self.last_swap_ns();
        self.clock.now_ns().saturating_sub(published)
    }

    /// Publishes `model` as the new current model, returning
    /// `(previous model, new generation)`.  The previous `Arc` is handed
    /// back so a rollback monitor can restore it without reloading from
    /// disk or recompiling.
    pub fn swap(&self, model: Arc<Cascade>) -> (Arc<Cascade>, u64) {
        let now = self.clock.now_ns();
        let mut entry = self.inner.write().unwrap_or_else(|p| p.into_inner());
        entry.generation += 1;
        entry.published_at_ns = now;
        let prev = std::mem::replace(&mut entry.model, model);
        (prev, entry.generation)
    }
}

impl std::fmt::Debug for ModelSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entry = self.inner.read().unwrap_or_else(|p| p.into_inner());
        f.debug_struct("ModelSlot")
            .field("generation", &entry.generation)
            .field("levels", &entry.model.levels())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BnnResNet, NetConfig};
    use crate::packed::PackedBnn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cascade(seed: u64) -> Cascade {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = PackedBnn::compile(&BnnResNet::new(&NetConfig::tiny(16), &mut rng));
        Cascade::new(&model, 16)
    }

    #[test]
    fn swap_bumps_generation_and_returns_previous() {
        let slot = ModelSlot::new(cascade(1));
        let (first, g1) = slot.current();
        assert_eq!(g1, 1);
        let (prev, g2) = slot.swap(Arc::new(cascade(2)));
        assert_eq!(g2, 2);
        assert!(Arc::ptr_eq(&prev, &first), "swap hands the old model back");
        let (cur, g) = slot.current();
        assert_eq!(g, 2);
        assert!(!Arc::ptr_eq(&cur, &first));
        assert_eq!(slot.generation(), 2);
    }

    #[test]
    fn readers_keep_their_model_across_a_swap() {
        let slot = ModelSlot::new(cascade(3));
        let (held, _) = slot.current();
        let held_fp = held.arch_fingerprint();
        slot.swap(Arc::new(cascade(4)));
        // The held Arc is unaffected by the swap.
        assert_eq!(held.arch_fingerprint(), held_fp);
    }

    #[test]
    fn swap_timestamps_come_from_the_injected_clock() {
        let clock = Arc::new(hotspot_telemetry::MockClock::new());
        clock.advance(1_000);
        let slot = ModelSlot::from_arc_with_clock(Arc::new(cascade(7)), clock.clone());
        assert_eq!(slot.last_swap_ns(), 1_000, "generation 1 stamps creation");
        clock.advance(4_000);
        assert_eq!(slot.model_age_ns(), 4_000);
        slot.swap(Arc::new(cascade(8)));
        assert_eq!(slot.last_swap_ns(), 5_000, "swap re-stamps");
        assert_eq!(slot.model_age_ns(), 0);
        clock.advance(250);
        assert_eq!(slot.model_age_ns(), 250);
    }

    #[test]
    fn slot_recovers_from_poisoned_lock() {
        let slot = std::sync::Arc::new(ModelSlot::new(cascade(5)));
        let s = slot.clone();
        let _ = std::thread::spawn(move || {
            let _guard = s.inner.write().unwrap();
            panic!("poison the slot lock");
        })
        .join();
        assert!(slot.inner.is_poisoned(), "setup: lock must be poisoned");
        let (_, g) = slot.current();
        assert_eq!(g, 1);
        let (_, g) = slot.swap(Arc::new(cascade(6)));
        assert_eq!(g, 2, "swap still works after poisoning");
    }
}
