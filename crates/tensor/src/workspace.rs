//! A scratch-buffer arena for allocation-free steady-state training.
//!
//! Every `conv`/`linear`/pool/batch-norm forward and backward needs
//! temporaries — patch matrices, activation outputs, gradient buffers. Fresh
//! `Tensor::zeros` per call means the inner training loop allocates (and
//! zero-initialises) megabytes per step. A [`Workspace`] instead keeps a pool
//! of previously used `Vec<f32>` buffers: layers check buffers out with
//! [`Workspace::take_tensor`], and return them with [`Workspace::recycle`]
//! once consumed. After one warm-up iteration the pool contains a buffer of
//! every size the network needs, and subsequent iterations perform **zero**
//! heap allocation in the hot loop — a property the stats counters make
//! testable (see `fresh_allocs`/`grows` in [`WorkspaceStats`]).
//!
//! Lifetime rules:
//! * Checked-out buffers have *unspecified contents* — callers must fully
//!   overwrite them (the `_into` kernels and layer code are written to do
//!   exactly that). Use [`Workspace::take_zeroed_tensor`] for scatter-add
//!   targets that genuinely need zeroing.
//! * A buffer may be returned to **any** workspace (or simply dropped); the
//!   pool is a cache, not an ownership ledger. Dropping instead of recycling
//!   is never unsound, merely a future allocation.
//! * The workspace is not thread-safe (`&mut self` everywhere). `spatl-nn`
//!   keeps one per thread, which every network trained on that thread
//!   shares.

use crate::{Shape, Tensor};

/// Counters describing a workspace's allocation behaviour.
///
/// The pair (`fresh_allocs`, `grows`) is the "did the hot loop allocate?"
/// signal: once a training step is in steady state, repeating it must leave
/// both unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Total buffer checkouts over the workspace's lifetime.
    pub checkouts: u64,
    /// Checkouts that had to allocate a brand-new buffer.
    pub fresh_allocs: u64,
    /// Checkouts served by growing a pooled buffer's capacity.
    pub grows: u64,
    /// Maximum number of f32 elements checked out simultaneously.
    pub high_water_elements: usize,
    /// f32 elements checked out and not yet returned: a call path that
    /// gives back everything it takes leaves this where it found it.
    pub outstanding_elements: usize,
}

/// A pool of reusable `f32` scratch buffers. See the module docs for the
/// checkout/return protocol.
#[derive(Default)]
pub struct Workspace {
    /// Returned buffers, unordered; checkout scans for the best capacity fit.
    free: Vec<Vec<f32>>,
    stats: WorkspaceStats,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out a buffer of exactly `len` elements with **unspecified
    /// contents** — the caller must overwrite every element it reads back.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let stats = &mut self.stats;
        stats.checkouts += 1;
        stats.outstanding_elements += len;
        stats.high_water_elements = stats.high_water_elements.max(stats.outstanding_elements);

        // Best fit: the smallest pooled buffer whose capacity suffices, so
        // large buffers stay available for large requests.
        let mut best: Option<usize> = None;
        for (i, buf) in self.free.iter().enumerate() {
            if buf.capacity() >= len
                && best.is_none_or(|b| buf.capacity() < self.free[b].capacity())
            {
                best = Some(i);
            }
        }
        if let Some(i) = best {
            let mut buf = self.free.swap_remove(i);
            buf.resize(len, 0.0); // shrink is free; capacity suffices
            return buf;
        }
        // No pooled buffer is big enough: grow the largest one rather than
        // letting the pool accumulate many never-again-sufficient buffers.
        let largest = (0..self.free.len()).max_by_key(|&i| self.free[i].capacity());
        if let Some(i) = largest {
            self.stats.grows += 1;
            let mut buf = self.free.swap_remove(i);
            buf.resize(len, 0.0);
            return buf;
        }
        self.stats.fresh_allocs += 1;
        vec![0.0; len]
    }

    /// Check out a tensor of `shape` with **unspecified contents**.
    pub fn take_tensor(&mut self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let buf = self.take(shape.numel());
        Tensor::from_vec(shape, buf).expect("workspace buffer length matches shape")
    }

    /// Check out a tensor of `shape` with every element set to `0.0` —
    /// for scatter-add targets.
    pub fn take_zeroed_tensor(&mut self, shape: impl Into<Shape>) -> Tensor {
        let mut t = self.take_tensor(shape);
        t.data_mut().fill(0.0);
        t
    }

    /// Return a raw buffer to the pool.
    pub fn give(&mut self, buf: Vec<f32>) {
        self.stats.outstanding_elements = self.stats.outstanding_elements.saturating_sub(buf.len());
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Return a tensor's buffer to the pool.
    pub fn recycle(&mut self, t: Tensor) {
        self.give(t.into_vec());
    }

    /// Allocation counters accumulated so far.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Drop all pooled buffers (stats are retained).
    pub fn clear(&mut self) {
        self.free.clear();
    }
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace")
            .field("pooled_buffers", &self.free.len())
            .field(
                "pooled_elements",
                &self.free.iter().map(|b| b.capacity()).sum::<usize>(),
            )
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_avoids_fresh_allocs() {
        let mut ws = Workspace::new();
        let a = ws.take(100);
        ws.give(a);
        let b = ws.take(80); // fits in the pooled 100-buffer
        assert_eq!(b.len(), 80);
        let s = ws.stats();
        assert_eq!(s.checkouts, 2);
        assert_eq!(s.fresh_allocs, 1);
        assert_eq!(s.grows, 0);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut ws = Workspace::new();
        let big = ws.take(1000);
        let small = ws.take(10);
        ws.give(big);
        ws.give(small);
        let t = ws.take(8);
        assert!(
            t.capacity() < 1000,
            "picked the big buffer for a tiny request"
        );
        ws.give(t);
        // The 1000-capacity buffer must still be pooled for large requests.
        let big2 = ws.take(900);
        assert_eq!(ws.stats().fresh_allocs, 2);
        assert_eq!(big2.len(), 900);
    }

    #[test]
    fn grows_largest_when_nothing_fits() {
        let mut ws = Workspace::new();
        let a = ws.take(10);
        ws.give(a);
        let b = ws.take(10_000);
        assert_eq!(b.len(), 10_000);
        let s = ws.stats();
        assert_eq!(s.fresh_allocs, 1);
        assert_eq!(s.grows, 1);
    }

    #[test]
    fn high_water_tracks_concurrent_checkouts() {
        let mut ws = Workspace::new();
        let a = ws.take(30);
        let b = ws.take(20);
        ws.give(a);
        let c = ws.take(5);
        assert_eq!(ws.stats().high_water_elements, 50);
        ws.give(b);
        ws.give(c);
    }

    #[test]
    fn tensor_round_trip_and_zeroed() {
        let mut ws = Workspace::new();
        let mut t = ws.take_tensor([2, 3]);
        t.data_mut().fill(7.0);
        ws.recycle(t);
        let z = ws.take_zeroed_tensor([3, 2]);
        assert!(z.data().iter().all(|&v| v == 0.0));
        assert_eq!(ws.stats().fresh_allocs, 1);
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let mut ws = Workspace::new();
        // Warm up: the sizes a "training step" needs.
        for _ in 0..2 {
            let a = ws.take(512);
            let b = ws.take(128);
            let c = ws.take(512);
            ws.give(a);
            ws.give(b);
            ws.give(c);
        }
        let warm = ws.stats();
        for _ in 0..10 {
            let a = ws.take(512);
            let b = ws.take(128);
            let c = ws.take(512);
            ws.give(a);
            ws.give(b);
            ws.give(c);
        }
        let s = ws.stats();
        assert_eq!(s.fresh_allocs, warm.fresh_allocs, "steady state allocated");
        assert_eq!(s.grows, warm.grows, "steady state grew a buffer");
    }
}
