//! Selection layout: the model-architecture metadata both ends of a SPATL
//! session share, mapping *channel ids* (what the upload actually carries)
//! to *flat parameter indices* (what aggregation operates on).
//!
//! SPATL's salient-parameter selection is channel-granular: a client keeps
//! or drops whole output channels of prunable convolutions, plus every
//! parameter of non-prunable layers. The upload therefore only needs to
//! name the surviving channels — 4 bytes each — instead of every surviving
//! flat index, which is exactly the accounting the paper's Eq. 13 uses.
//!
//! The layout is a pure function of the model architecture (shapes, prune
//! points), *not* of any client's mask, so the server builds it once at
//! startup and every client implicitly agrees. This keeps the wire format
//! model-agnostic: the codec moves `(channel ids, values)` and this module
//! alone knows how channels expand to indices.

use crate::error::WireError;

/// One contiguous run of flat parameter indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexRange {
    /// First flat index in the run.
    pub start: u32,
    /// Number of indices in the run.
    pub len: u32,
}

/// Owner tag of a run that is transmitted regardless of selection.
const ALWAYS: u32 = u32::MAX;

/// One registered run and the channel id that owns it ([`ALWAYS`] for
/// the unconditional runs).
#[derive(Debug, Clone, Copy)]
struct OwnedRun {
    range: IndexRange,
    owner: u32,
}

/// Channel-id → flat-index mapping for one model architecture.
#[derive(Debug, Clone, Default)]
pub struct SelectionLayout {
    /// `per_channel[c]` lists the flat-index runs owned by global channel
    /// id `c` (its conv kernel row and its bias entry, typically).
    per_channel: Vec<Vec<IndexRange>>,
    /// Runs always transmitted regardless of selection (non-prunable
    /// layers: classifier heads, batch-norm affine weights, …).
    always: Vec<IndexRange>,
    /// Every run of both kinds, ascending by `start` (ties in
    /// registration order): the order [`expand`](Self::expand) walks, so
    /// its output is born sorted.
    by_start: Vec<OwnedRun>,
    /// Two registered runs share a flat index. No real architecture does
    /// this (an index has one owner); `expand` then falls back to sorting.
    overlapping: bool,
}

impl SelectionLayout {
    /// Start an empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the next channel id; returns the id assigned.
    pub fn push_channel(&mut self, ranges: Vec<IndexRange>) -> u32 {
        let id = self.per_channel.len() as u32;
        for &range in &ranges {
            self.index_run(range, id);
        }
        self.per_channel.push(ranges);
        id
    }

    /// Register flat indices always included in a transfer.
    pub fn push_always(&mut self, range: IndexRange) {
        self.index_run(range, ALWAYS);
        self.always.push(range);
    }

    /// Slot a run into `by_start`, noting whether it touches a neighbour.
    fn index_run(&mut self, range: IndexRange, owner: u32) {
        if range.len == 0 {
            return;
        }
        let end = |r: IndexRange| r.start as u64 + r.len as u64;
        let at = self
            .by_start
            .partition_point(|run| run.range.start <= range.start);
        let before = at.checked_sub(1).map(|i| self.by_start[i].range);
        let after = self.by_start.get(at).map(|run| run.range);
        self.overlapping |= before.is_some_and(|b| end(b) > range.start as u64)
            || after.is_some_and(|a| end(range) > a.start as u64);
        self.by_start.insert(at, OwnedRun { range, owner });
    }

    /// Number of channel ids this layout knows.
    pub fn num_channels(&self) -> usize {
        self.per_channel.len()
    }

    /// Parameters owned by one channel.
    pub fn channel_param_count(&self, channel: u32) -> usize {
        self.per_channel[channel as usize]
            .iter()
            .map(|r| r.len as usize)
            .sum()
    }

    /// Parameters always included.
    pub fn always_param_count(&self) -> usize {
        self.always.iter().map(|r| r.len as usize).sum()
    }

    /// Total selected parameters for a set of channels (without
    /// materializing the index list).
    pub fn selected_param_count(&self, channels: &[u32]) -> usize {
        self.always_param_count()
            + channels
                .iter()
                .map(|&c| self.channel_param_count(c))
                .sum::<usize>()
    }

    /// Expand selected channel ids into the sorted flat-index list the
    /// aggregation rule (Eq. 12) consumes. Errors on unknown channel ids
    /// so a corrupted-but-CRC-valid frame cannot panic the server.
    ///
    /// The runs are walked in ascending `start` order, emitting those the
    /// selection owns, so no sort is needed for any layout whose runs are
    /// disjoint and any selection that names a channel once — which is
    /// every layout a model architecture produces and every selection
    /// the codec accepts (channel ids strictly increasing).
    pub fn expand(&self, channels: &[u32]) -> Result<Vec<u32>, WireError> {
        let mut named = vec![0u32; self.per_channel.len()];
        let mut total = self.always_param_count();
        let mut unsorted = self.overlapping;
        for &c in channels {
            let times = named.get_mut(c as usize).ok_or_else(|| {
                WireError::Malformed(format!(
                    "channel id {c} out of range (layout has {})",
                    self.per_channel.len()
                ))
            })?;
            unsorted |= *times > 0;
            *times += 1;
            total += self.channel_param_count(c);
        }
        let mut out = Vec::with_capacity(total);
        for run in &self.by_start {
            let times = match run.owner {
                ALWAYS => 1,
                c => named[c as usize],
            };
            for _ in 0..times {
                out.extend(run.range.start..run.range.start + run.range.len);
            }
        }
        if unsorted {
            out.sort_unstable();
        }
        Ok(out)
    }

    /// Invert a flat-index selection into channel ids: a channel is
    /// selected iff *all* of its indices appear. Used by the encoding side
    /// to go from a model's salient-index list to the channel ids that
    /// travel on the wire.
    pub fn channels_for(&self, sorted_indices: &[u32]) -> Vec<u32> {
        let contains = |i: u32| sorted_indices.binary_search(&i).is_ok();
        (0..self.per_channel.len() as u32)
            .filter(|&c| {
                let ranges = &self.per_channel[c as usize];
                !ranges.is_empty()
                    && ranges
                        .iter()
                        .all(|r| (r.start..r.start + r.len).all(contains))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_layout() -> SelectionLayout {
        // Two prunable channels (a conv row + bias each) and an
        // always-included classifier tail.
        let mut l = SelectionLayout::new();
        l.push_channel(vec![
            IndexRange { start: 0, len: 3 },
            IndexRange { start: 6, len: 1 },
        ]);
        l.push_channel(vec![
            IndexRange { start: 3, len: 3 },
            IndexRange { start: 7, len: 1 },
        ]);
        l.push_always(IndexRange { start: 8, len: 4 });
        l
    }

    #[test]
    fn expand_produces_sorted_union() {
        let l = toy_layout();
        assert_eq!(l.expand(&[]).unwrap(), vec![8, 9, 10, 11]);
        assert_eq!(l.expand(&[0]).unwrap(), vec![0, 1, 2, 6, 8, 9, 10, 11]);
        assert_eq!(l.expand(&[0, 1]).unwrap(), (0..12).collect::<Vec<u32>>());
    }

    /// The previous `expand`: collect every selected run, then sort.
    fn expand_by_sorting(l: &SelectionLayout, channels: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        let selected = channels.iter().flat_map(|&c| &l.per_channel[c as usize]);
        for r in l.always.iter().chain(selected) {
            out.extend(r.start..r.start + r.len);
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn expand_without_sorting_matches_the_sorting_reference() {
        // Random layouts whose channels own interleaved runs: a "kernel
        // row" in one region and a "bias entry" in another, always-runs
        // scattered between, registered in shuffled order.
        let mut seed = 0x5EED_1A70u64;
        let mut next = move |bound: u32| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as u32) % bound
        };
        for case in 0..200 {
            let n_channels = 1 + next(12);
            let rows = 1 + next(5);
            // Carve the index space into disjoint runs, then deal them out.
            let mut cursor = 0u32;
            let mut carve = |len: u32, gap: u32| {
                let r = IndexRange { start: cursor, len };
                cursor += len + gap;
                r
            };
            let kernels: Vec<IndexRange> = (0..n_channels).map(|_| carve(rows, 0)).collect();
            let mut always: Vec<IndexRange> = (0..next(3)).map(|_| carve(1 + next(4), 1)).collect();
            let biases: Vec<IndexRange> = (0..n_channels).map(|_| carve(1, 0)).collect();
            always.push(carve(next(6), 0)); // possibly empty
            let mut l = SelectionLayout::new();
            let mut order: Vec<u32> = (0..n_channels).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, next(i as u32 + 1) as usize);
            }
            for (k, &c) in order.iter().enumerate() {
                if k == order.len() / 2 {
                    for &a in &always {
                        l.push_always(a);
                    }
                }
                // Bias before kernel on odd cases: run order inside a
                // channel must not matter either.
                let (k_run, b_run) = (kernels[c as usize], biases[c as usize]);
                l.push_channel(if case % 2 == 1 {
                    vec![b_run, k_run]
                } else {
                    vec![k_run, b_run]
                });
            }
            assert!(!l.overlapping, "case {case}: carved runs are disjoint");
            let channels: Vec<u32> = (0..n_channels).filter(|_| next(2) == 0).collect();
            let got = l.expand(&channels).unwrap();
            assert_eq!(got, expand_by_sorting(&l, &channels), "case {case}");
            assert!(got.windows(2).all(|w| w[0] < w[1]), "case {case}: sorted");
        }
    }

    #[test]
    fn overlapping_runs_and_repeated_ids_still_expand_sorted() {
        let mut l = SelectionLayout::new();
        l.push_channel(vec![IndexRange { start: 0, len: 3 }]);
        l.push_channel(vec![IndexRange { start: 1, len: 3 }]);
        assert!(l.overlapping);
        assert_eq!(l.expand(&[0, 1]).unwrap(), vec![0, 1, 1, 2, 2, 3]);
        let l = toy_layout();
        assert_eq!(l.expand(&[1, 1]).unwrap(), expand_by_sorting(&l, &[1, 1]));
    }

    #[test]
    fn counts_match_expansion() {
        let l = toy_layout();
        for channels in [vec![], vec![0], vec![1], vec![0, 1]] {
            assert_eq!(
                l.selected_param_count(&channels),
                l.expand(&channels).unwrap().len()
            );
        }
    }

    #[test]
    fn unknown_channel_is_malformed_not_panic() {
        let l = toy_layout();
        assert!(matches!(l.expand(&[7]), Err(WireError::Malformed(_))));
    }

    #[test]
    fn channels_for_inverts_expand() {
        let l = toy_layout();
        for channels in [vec![], vec![0u32], vec![1], vec![0, 1]] {
            let indices = l.expand(&channels).unwrap();
            assert_eq!(l.channels_for(&indices), channels);
        }
    }

    #[test]
    fn partial_channel_is_not_selected() {
        let l = toy_layout();
        // Channel 0 minus its bias index 6: not fully present.
        assert_eq!(l.channels_for(&[0, 1, 2, 8, 9, 10, 11]), Vec::<u32>::new());
    }
}
