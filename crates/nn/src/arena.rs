//! The thread's scratch arena, and the per-batch state layers keep.
//!
//! Only one model trains on a thread at a time, so scratch belongs to the
//! thread: every [`Network`](crate::Network) that runs on a thread draws
//! its temporaries and caches from that thread's one [`Workspace`], and a
//! model between calls holds only what it owns for good — parameters,
//! gradients, batch-norm statistics.
//!
//! A call takes the arena out of its slot and puts it back when done, so
//! no borrow spans layer code. That matters because the vendored pool is
//! help-first: a thread waiting inside one model's GEMM may run another
//! queued job — another client's whole update — before the wait returns.
//! The thread therefore keeps one arena per nesting depth, as a stack: a
//! call pops the top arena and pushes it back on return, so a nested call
//! pops the one below, which served the same depth before. Each arena
//! keeps the working set of one call chain at its depth, and repeated
//! nesting reuses it instead of adding to another arena's pool.

use spatl_tensor::{Workspace, WorkspaceStats};
use std::cell::Cell;
use std::ops::{Deref, DerefMut};

thread_local! {
    /// The arenas of the calls not running on this thread, deepest first:
    /// the top is the one the next call takes.
    static ARENAS: Cell<Vec<Workspace>> = const { Cell::new(Vec::new()) };
}

/// Run `f` on this thread's arena. Layer-level code (`forward_ws`,
/// `backward_ws`) enters here to share the arena [`Network`]s use.
///
/// [`Network`]: crate::Network
pub fn with_arena<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    let mut stack = ARENAS.take();
    let mut ws = stack.pop().unwrap_or_default();
    ARENAS.set(stack);
    let out = f(&mut ws);
    let mut stack = ARENAS.take();
    stack.push(ws);
    ARENAS.set(stack);
    out
}

/// Allocation counters of the arena a call on this thread would use — a
/// steady-state training step leaves `fresh_allocs` and `grows`
/// unchanged.
pub fn arena_stats() -> WorkspaceStats {
    with_arena(|ws| ws.stats())
}

/// Number of buffers pooled in each of this thread's idle arenas, the
/// outermost first.
pub fn arena_pooled() -> Vec<usize> {
    let stack = ARENAS.take();
    let pooled = stack.iter().rev().map(Workspace::pooled).collect();
    ARENAS.set(stack);
    pooled
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
