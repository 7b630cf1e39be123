//! Durable write-ahead round log (WAL) for a federated coordinator — the
//! one way a coordinator's state outlives its process.
//!
//! A coordinator appends a `begin` record (round index, sampled cohort,
//! pre-round [`GlobalState`]) before broadcasting, and a `commit` record
//! (post-round state) after aggregating. Every append is `fsync`ed, so a
//! stopped, killed or crashed root that restarts on the same log either
//! finds the round committed — and carries on from the next one — or
//! finds the pending `begin` and replays exactly the round it was killed
//! in, from exactly the state it broadcast. The header's session
//! fingerprint keeps a root from resuming another session's log, and the
//! pending `begin`'s cohort keeps it from replaying the round onto other
//! clients: a round's cohort is a pure function of the session and the
//! round, so the resuming root derives it again and refuses a log that
//! recorded another one.
//! DESIGN.md §11 documents the format and the crash matrix.
//!
//! The log is line-delimited JSON (one record per line). Recovery
//! tolerates a torn trailing write — the partial line is discarded and
//! the file truncated back to the last durable record — and a later
//! `begin` for a round supersedes an uncommitted earlier one (the replay
//! of a round that crashed twice).

use serde::{Deserialize, Serialize};
use spatl_fl::GlobalState;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use crate::CheckpointError;

/// One durable record in the log, externally tagged:
/// `{"Begin":{"round":3,...}}`.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum WalRecord {
    /// First record of every log: identifies the session configuration
    /// so a restarted coordinator cannot resume someone else's run.
    Header {
        /// Session fingerprint (hash of the full `FlConfig`).
        fingerprint: u64,
    },
    /// A round is about to be broadcast.
    Begin {
        /// Absolute round index.
        round: u32,
        /// The sampled cohort, ascending client ids.
        sampled: Vec<u32>,
        /// Global state the round starts from (pre-broadcast).
        global: GlobalState,
    },
    /// A round's aggregation was applied (or the round was a no-op).
    Commit {
        /// Absolute round index.
        round: u32,
        /// Global state after aggregation.
        global: GlobalState,
    },
}

/// A `begin` record with no matching `commit`: the round the coordinator
/// was killed in, to be replayed on restart.
#[derive(Debug, Clone)]
pub struct PendingRound {
    /// Absolute round index to replay.
    pub round: u32,
    /// The cohort the interrupted round had sampled; a resuming
    /// coordinator checks it against the cohort it derives for `round`.
    pub sampled: Vec<usize>,
    /// The pre-round global state the cohort trained against.
    pub global: GlobalState,
}

/// Everything recovery learns from an existing log.
#[derive(Debug, Clone)]
pub struct WalRecovery {
    /// Session fingerprint recorded at log creation; the caller must
    /// verify it matches its own configuration before resuming.
    pub fingerprint: u64,
    /// Number of committed rounds (the next fresh round index when no
    /// round is pending).
    pub completed: u32,
    /// Global state after the last committed round; `None` when no round
    /// ever committed (resume from the initial state).
    pub global: Option<GlobalState>,
    /// The interrupted round to replay, if the log ends in a `begin`.
    pub pending: Option<PendingRound>,
}

/// Append-only, fsync-per-record round log.
#[derive(Debug)]
pub struct RoundLog {
    file: File,
}

impl RoundLog {
    /// Create (truncating any previous log at `path`) and write the
    /// session header durably.
    pub fn create(path: impl AsRef<Path>, fingerprint: u64) -> Result<RoundLog, CheckpointError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        let mut log = RoundLog { file };
        log.append(&WalRecord::Header { fingerprint })?;
        Ok(log)
    }

    /// Durably record that `round` is about to be broadcast to `sampled`
    /// from state `global`. Call *before* the first assignment goes out.
    pub fn begin(
        &mut self,
        round: usize,
        sampled: &[usize],
        global: &GlobalState,
    ) -> Result<(), CheckpointError> {
        self.append(&WalRecord::Begin {
            round: round as u32,
            sampled: sampled.iter().map(|&c| c as u32).collect(),
            global: global.clone(),
        })
    }

    /// Durably record `round`'s post-aggregation state. Call after the
    /// round's bookkeeping is final (no-op rounds commit too — the state
    /// is simply unchanged).
    pub fn commit(&mut self, round: usize, global: &GlobalState) -> Result<(), CheckpointError> {
        self.append(&WalRecord::Commit {
            round: round as u32,
            global: global.clone(),
        })
    }

    fn append(&mut self, record: &WalRecord) -> Result<(), CheckpointError> {
        let mut line = serde_json::to_string(record)?;
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        // One fsync per record: a begin/commit that returned Ok survives
        // `kill -9`. Rounds are seconds-long; the sync is noise.
        self.file.sync_data()?;
        Ok(())
    }

    /// Recover an existing log: parse the durable prefix, truncate any
    /// torn trailing write, and reopen for appending. Returns what was
    /// learned plus the reopened log.
    pub fn recover(path: impl AsRef<Path>) -> Result<(WalRecovery, RoundLog), CheckpointError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        let mut records: Vec<WalRecord> = Vec::new();
        let mut durable = 0usize; // byte length of the valid prefix
        let mut pos = 0usize;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let end = pos + line.len();
            let parsed = std::str::from_utf8(line)
                .ok()
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .and_then(|t| serde_json::from_str::<WalRecord>(t).ok());
            match parsed {
                Some(rec) => {
                    records.push(rec);
                    durable = end;
                    pos = end;
                }
                // Torn or corrupt tail: everything from here on is not
                // durable state — discard it.
                None => break,
            }
        }

        let mut iter = records.into_iter();
        let fingerprint = match iter.next() {
            Some(WalRecord::Header { fingerprint }) => fingerprint,
            _ => {
                return Err(CheckpointError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{} is not a round log (missing header)", path.display()),
                )))
            }
        };
        let mut recovery = WalRecovery {
            fingerprint,
            completed: 0,
            global: None,
            pending: None,
        };
        for rec in iter {
            match rec {
                WalRecord::Header { .. } => {
                    return Err(CheckpointError::Io(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "duplicate round-log header",
                    )))
                }
                WalRecord::Begin {
                    round,
                    sampled,
                    global,
                } => {
                    // A later begin supersedes an uncommitted one: the
                    // round that crashed twice replays from its latest
                    // (identical) broadcast state.
                    recovery.pending = Some(PendingRound {
                        round,
                        sampled: sampled.into_iter().map(|c| c as usize).collect(),
                        global,
                    });
                }
                WalRecord::Commit { round, global } => {
                    recovery.completed = round + 1;
                    recovery.global = Some(global);
                    recovery.pending = None;
                }
            }
        }

        if durable < bytes.len() {
            // Rewrite without the torn tail so the next append starts on
            // a record boundary.
            std::fs::write(path, &bytes[..durable])?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok((recovery, RoundLog { file }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("spatl-roundlog-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn state(x: f32) -> GlobalState {
        GlobalState {
            shared: vec![x, -x, 0.5 * x],
            control: vec![0.1 * x],
            momentum: Vec::new(),
            buffers: vec![x],
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn committed_rounds_recover_bitwise() {
        let path = tmp("commit.waljson");
        let mut log = RoundLog::create(&path, 42).unwrap();
        log.begin(0, &[0, 2], &state(1.0)).unwrap();
        log.commit(0, &state(2.0)).unwrap();
        log.begin(1, &[1, 3], &state(2.0)).unwrap();
        log.commit(1, &state(3.0)).unwrap();
        drop(log);

        let (rec, _log) = RoundLog::recover(&path).unwrap();
        assert_eq!(rec.fingerprint, 42);
        assert_eq!(rec.completed, 2);
        assert!(rec.pending.is_none());
        let g = rec.global.unwrap();
        assert_eq!(bits(&g.shared), bits(&state(3.0).shared));
        assert_eq!(bits(&g.buffers), bits(&state(3.0).buffers));
    }

    #[test]
    fn committed_simulation_state_recovers_bitwise_and_resumes() {
        use crate::experiment::ExperimentBuilder;
        use spatl_fl::Algorithm;

        // SCAFFOLD populates the control variate; the model's batch-norm
        // layers populate `buffers` — the two pieces of server state beyond
        // the shared vector that a resume must not lose.
        let build = || {
            ExperimentBuilder::new(Algorithm::Scaffold)
                .clients(2)
                .samples_per_client(10)
                .rounds(2)
                .local_epochs(1)
                .seed(11)
                .build()
        };
        let mut sim = build();
        let before = sim.global.clone();
        sim.run_round();
        assert!(
            sim.global.control.iter().any(|&c| c != 0.0),
            "round must move the control variate"
        );
        assert!(!sim.global.buffers.is_empty());

        let path = tmp("simulation.waljson");
        let mut log = RoundLog::create(&path, 11).unwrap();
        log.begin(0, &[0, 1], &before).unwrap();
        log.commit(0, &sim.global).unwrap();
        drop(log);
        let (rec, _log) = RoundLog::recover(&path).unwrap();
        assert_eq!(rec.completed, 1);
        assert!(rec.pending.is_none());
        let loaded = rec.global.unwrap();
        assert_eq!(bits(&loaded.shared), bits(&sim.global.shared));
        assert_eq!(bits(&loaded.control), bits(&sim.global.control));
        assert_eq!(bits(&loaded.momentum), bits(&sim.global.momentum));
        assert_eq!(bits(&loaded.buffers), bits(&sim.global.buffers));

        // A fresh simulation that adopts the committed state replays the
        // next round bit-identically to the original continuing
        // in-process. (Client-side state is re-derived: SCAFFOLD client
        // controls are maintained against the broadcast state, and round
        // randomness is seeded by (seed, round).)
        let mut resumed = build();
        resumed.run_round(); // advance client state + round RNG in lockstep
        resumed.global = loaded;
        let a = sim.run_round();
        let b = resumed.run_round();
        assert_eq!(bits(&sim.global.shared), bits(&resumed.global.shared));
        assert_eq!(a.mean_acc.to_bits(), b.mean_acc.to_bits());
    }

    #[test]
    fn uncommitted_begin_is_the_pending_round() {
        let path = tmp("pending.waljson");
        let mut log = RoundLog::create(&path, 7).unwrap();
        log.begin(0, &[0], &state(1.0)).unwrap();
        log.commit(0, &state(2.0)).unwrap();
        log.begin(1, &[0, 1], &state(2.0)).unwrap();
        drop(log); // killed mid-round

        let (rec, _log) = RoundLog::recover(&path).unwrap();
        assert_eq!(rec.completed, 1);
        let pending = rec.pending.unwrap();
        assert_eq!(pending.round, 1);
        assert_eq!(pending.sampled, vec![0, 1]);
        assert_eq!(bits(&pending.global.shared), bits(&state(2.0).shared));
        // The last *committed* state is still round 0's.
        assert_eq!(bits(&rec.global.unwrap().shared), bits(&state(2.0).shared));
    }

    #[test]
    fn replayed_begin_supersedes_the_first() {
        let path = tmp("supersede.waljson");
        let mut log = RoundLog::create(&path, 7).unwrap();
        log.begin(3, &[0], &state(5.0)).unwrap();
        drop(log); // crash during round 3
        let (rec, mut log) = RoundLog::recover(&path).unwrap();
        assert_eq!(rec.pending.as_ref().unwrap().round, 3);
        log.begin(3, &[0], &state(5.0)).unwrap(); // replay begins again
        drop(log); // crash during the replay, too
        let (rec, _log) = RoundLog::recover(&path).unwrap();
        assert_eq!(rec.pending.unwrap().round, 3);
        assert_eq!(rec.completed, 0);
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let path = tmp("torn.waljson");
        let mut log = RoundLog::create(&path, 9).unwrap();
        log.begin(0, &[0], &state(1.0)).unwrap();
        log.commit(0, &state(2.0)).unwrap();
        drop(log);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a write torn by the kill: half a begin record.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"Begin\":{\"round\":1,\"sam").unwrap();
        drop(f);

        let (rec, log) = RoundLog::recover(&path).unwrap();
        assert_eq!(rec.completed, 1);
        assert!(rec.pending.is_none(), "torn begin must not become pending");
        drop(log);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "torn tail truncated"
        );
        // And the truncated log keeps working.
        let (_, mut log) = RoundLog::recover(&path).unwrap();
        log.begin(1, &[0], &state(2.0)).unwrap();
        log.commit(1, &state(3.0)).unwrap();
        drop(log);
        let (rec, _log) = RoundLog::recover(&path).unwrap();
        assert_eq!(rec.completed, 2);
    }

    #[test]
    fn missing_or_headerless_files_are_errors() {
        assert!(matches!(
            RoundLog::recover(tmp("absent.waljson")),
            Err(CheckpointError::Io(_))
        ));
        let path = tmp("headerless.waljson");
        std::fs::write(
            &path,
            b"{\"Commit\":{\"round\":0,\"global\":{\"shared\":[],\"control\":[],\"momentum\":[],\"buffers\":[]}}}\n",
        )
        .unwrap();
        assert!(RoundLog::recover(&path).is_err());
    }
}
