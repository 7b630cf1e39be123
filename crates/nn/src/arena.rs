//! The thread's scratch arena, and the per-batch state layers keep.
//!
//! Only one model trains on a thread at a time, so scratch belongs to the
//! thread: every [`Network`](crate::Network) that runs on a thread draws
//! its temporaries and caches from that thread's one [`Workspace`], and a
//! model between calls holds only what it owns for good — parameters,
//! gradients, batch-norm statistics.
//!
//! A call takes the arena out of its slot and puts it back when done, so
//! no borrow spans layer code. The vendored pool runs a parallel call made
//! inside a pool job inline, so no job runs inside another, and a call
//! finds the slot empty only when a call further up the same thread holds
//! the arena: a nested [`with_arena`], or a thread that, waiting outside
//! any job, helps run a job another thread submitted. Such a call runs on
//! a fresh arena, which the holder's return drops.

use spatl_tensor::{Workspace, WorkspaceStats};
use std::cell::Cell;
use std::ops::{Deref, DerefMut};

thread_local! {
    /// This thread's arena, unless a call on this thread holds it.
    static ARENA: Cell<Option<Workspace>> = const { Cell::new(None) };
}

/// Run `f` on this thread's arena. Layer-level code (`forward_ws`,
/// `backward_ws`) enters here to share the arena [`Network`]s use.
///
/// [`Network`]: crate::Network
pub fn with_arena<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    let mut ws = ARENA.take().unwrap_or_default();
    let out = f(&mut ws);
    ARENA.set(Some(ws));
    out
}

/// Allocation counters of this thread's arena — a steady-state training
/// step leaves `fresh_allocs` and `grows` unchanged.
pub fn arena_stats() -> WorkspaceStats {
    with_arena(|ws| ws.stats())
}

/// Number of buffers pooled in this thread's arena.
pub fn arena_pooled() -> usize {
    with_arena(|ws| ws.pooled())
}

/// A layer's per-batch state (cached activations, masks): dropped by
/// `Clone` and skipped by serde, so a cloned or stored model carries no
/// scratch, and everything `clear_cache` recycles came from an arena.
#[derive(Debug)]
pub(crate) struct Scratch<T>(Option<T>);

impl<T> Default for Scratch<T> {
    fn default() -> Self {
        Scratch(None)
    }
}

impl<T> Clone for Scratch<T> {
    fn clone(&self) -> Self {
        Scratch(None)
    }
}

impl<T> Deref for Scratch<T> {
    type Target = Option<T>;
    fn deref(&self) -> &Option<T> {
        &self.0
    }
}

impl<T> DerefMut for Scratch<T> {
    fn deref_mut(&mut self) -> &mut Option<T> {
        &mut self.0
    }
}
