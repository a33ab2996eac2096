//! Clock-RSM stable log records, and the reader over them.

use std::collections::BTreeMap;
use std::ops::RangeBounds;

use rsm_core::batch::Batch;
use rsm_core::checkpoint::Checkpoint;
use rsm_core::config::Epoch;
use rsm_core::id::ReplicaId;
use rsm_core::time::Timestamp;

use crate::msg::LoggedCmd;
use crate::run::stamped;

/// A record in a Clock-RSM replica's stable log.
///
/// As in Section V-B of the paper, entries are of two main types —
/// prepares, appended in *arrival* order (not necessarily timestamp order
/// across originators), and `Commit` marks, always appended in timestamp
/// order, always after the prepare they commit. A prepare is logged as
/// the run it arrived as: one `PrepareBatch` per PREPAREBATCH, its
/// command `i` at timestamp `head + i`. Replay is the same as with one
/// record per command: the order keys are `head + i` by construction, and
/// commit marks stay per command, so replay executes exactly the marked
/// commands in mark order — a run cut mid-way by stability, acks or a
/// checkpoint replays only its marked prefix. `Epoch` records
/// additionally persist reconfiguration decisions so a recovering replica
/// knows the configuration it crashed in. The log is the replica's only
/// record of what it prepared: SUSPENDOK, the fetch's runs and replay
/// all read it through `logged_in`.
#[derive(Debug, Clone)]
pub enum LogRec {
    /// A logged run of commands (Algorithm 1, line 7).
    PrepareBatch {
        /// The timestamp of the run's first command.
        head: Timestamp,
        /// The originating replica.
        origin: ReplicaId,
        /// The commands, command `i` at timestamp `head + i`.
        cmds: Batch,
    },
    /// A commit mark (Algorithm 1, line 15); strictly increasing `ts`.
    Commit {
        /// The committed timestamp.
        ts: Timestamp,
    },
    /// A reconfiguration took effect (Algorithm 3, lines 15 and 21–22).
    Epoch {
        /// The new epoch.
        epoch: Epoch,
        /// The configuration installed with it.
        config: Vec<ReplicaId>,
        /// Line 15's floor: a command logged before this record above it
        /// and without a commit mark missed the decision, and is dropped.
        floor: Timestamp,
    },
    /// A state machine checkpoint (Section V-B: "Checkpointing can be
    /// used to avoid replaying the whole log and speed up the recovery
    /// process"), in the shared [`rsm_core::checkpoint`] shape. The
    /// applied watermark is **inclusive**: every command with a timestamp
    /// ≤ `applied` is reflected in the snapshot. Recovery restores the
    /// snapshot and skips re-executing everything at or below it. Every
    /// checkpoint compacts, so one only ever stands at the head of a log,
    /// which then answers SUSPEND and CATCHUP only from `applied` up.
    Checkpoint(Checkpoint<Timestamp>),
}

rsm_core::checkpoint_record!(LogRec, Timestamp);

pub(crate) type Logged = BTreeMap<Timestamp, LoggedCmd>;

/// Every command of `log` with a timestamp in `range`, by timestamp, less
/// those an `Epoch` record's floor dropped. A command logged twice (a
/// decided one re-logged by reconfiguration) counts once.
pub(crate) fn logged_in(log: &[LogRec], range: impl RangeBounds<Timestamp>) -> Logged {
    let mut logged = BTreeMap::new();
    // Commit marks since the last `Epoch` record: the decided commands.
    let mut marks = Vec::new();
    for rec in log {
        match rec {
            LogRec::PrepareBatch { head, cmds, .. } => {
                for (ts, cmd) in stamped(*head, cmds, 0).filter(|(ts, _)| range.contains(ts)) {
                    let (origin, cmd) = (ts.replica(), cmd.clone());
                    logged.entry(ts).or_insert(LoggedCmd { ts, origin, cmd });
                }
            }
            LogRec::Commit { ts } if range.contains(ts) => marks.push(*ts),
            LogRec::Epoch { floor, .. } => {
                logged.retain(|ts, _| ts <= floor || marks.binary_search(ts).is_ok());
                marks.clear();
            }
            LogRec::Commit { .. } | LogRec::Checkpoint(_) => {}
        }
    }
    logged
}
