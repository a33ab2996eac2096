//! Ordering state by the run. A PREPAREBATCH's commands hold the
//! consecutive timestamps `head + i` of one origin, so the replica keeps
//! each batch as one run — one `Arc` clone of the received [`Batch`] —
//! and derives every timestamp-ordered walk by merging the per-origin
//! lanes of runs.

use std::collections::BTreeMap;

use rsm_core::batch::Batch;
use rsm_core::command::Command;
use rsm_core::time::{Micros, Timestamp};

use crate::msg::LoggedCmd;

/// The timestamp of offset `i` in the run headed by `head`.
pub(crate) fn at(head: Timestamp, i: usize) -> Timestamp {
    Timestamp::new(head.micros() + i as Micros, head.replica())
}

/// The commands of `cmds` from offset `from` on, with their timestamps.
pub(crate) fn stamped(
    head: Timestamp,
    cmds: &Batch,
    from: usize,
) -> impl Iterator<Item = (Timestamp, &Command)> {
    let tail = &cmds.as_slice()[from..];
    (from..).zip(tail).map(move |(i, cmd)| (at(head, i), cmd))
}

/// Merges timestamp-ascending walks, one per origin lane, into one
/// timestamp-ascending walk. Lanes interleave command by command:
/// `(120, r1)` sorts between `(120, r0)` and `(121, r0)`.
pub(crate) fn merge<'a>(
    lanes: Vec<impl Iterator<Item = (Timestamp, &'a Command)>>,
) -> impl Iterator<Item = (Timestamp, &'a Command)> {
    let mut lanes: Vec<_> = lanes.into_iter().map(Iterator::peekable).collect();
    std::iter::from_fn(move || {
        let lane = lanes
            .iter_mut()
            .filter_map(|lane| Some((lane.peek()?.0, lane)))
            .min_by_key(|(ts, _)| *ts)?
            .1;
        lane.next()
    })
}

/// A pending run: the commands `cmds[next..]` of one PREPAREBATCH not
/// yet committed, command `i` at timestamp `head + i`.
#[derive(Debug)]
pub(crate) struct Run {
    pub(crate) head: Timestamp,
    pub(crate) cmds: Batch,
    /// Offset of the first uncommitted command.
    pub(crate) next: usize,
}

impl Run {
    /// The timestamp of the first uncommitted command.
    pub(crate) fn front(&self) -> Timestamp {
        at(self.head, self.next)
    }
}

/// Logged runs per origin lane (indexed like `acked`), keyed by head.
/// Runs of one lane never overlap, so the run holding a timestamp is the
/// one with the greatest head at or below it.
#[derive(Debug)]
pub(crate) struct History(Vec<BTreeMap<Timestamp, Batch>>);

impl History {
    pub(crate) fn new(n: usize) -> Self {
        History(vec![BTreeMap::new(); n])
    }

    /// The logged command at `ts`, if any.
    pub(crate) fn get(&self, ts: Timestamp) -> Option<&Command> {
        let lane = &self.0[ts.replica().index()];
        let (head, cmds) = lane.range(..=ts).next_back()?;
        cmds.as_slice().get((ts.micros() - head.micros()) as usize)
    }

    /// Adds a logged run unless its head is held already. Only a single
    /// command can overlap held runs — one reconfiguration re-logs while
    /// its PREPAREBATCH is still held, since an origin never reuses a
    /// timestamp — so a held head means the whole run is held.
    pub(crate) fn add(&mut self, head: Timestamp, cmds: &Batch) {
        if self.get(head).is_none() {
            self.0[head.replica().index()].insert(head, cmds.clone());
        }
    }

    /// Keeps only the commands `keep` accepts (Algorithm 3, line 15); a
    /// run that loses some keeps the rest as one-command runs.
    pub(crate) fn retain(&mut self, keep: impl Fn(Timestamp) -> bool) {
        for lane in &mut self.0 {
            for (head, cmds) in std::mem::take(lane) {
                if stamped(head, &cmds, 0).all(|(ts, _)| keep(ts)) {
                    lane.insert(head, cmds);
                    continue;
                }
                for (ts, cmd) in stamped(head, &cmds, 0).filter(|&(ts, _)| keep(ts)) {
                    lane.insert(ts, Batch::single(cmd.clone()));
                }
            }
        }
    }

    /// Every logged command above `after`, in timestamp order across
    /// origins; a run straddling `after` contributes its commands above.
    pub(crate) fn after(&self, after: Timestamp) -> impl Iterator<Item = LoggedCmd> + '_ {
        let lanes = self.0.iter().map(|lane| {
            let from = lane
                .range(..=after)
                .next_back()
                .map_or(Timestamp::ZERO, |(&h, _)| h);
            lane.range(from..)
                .flat_map(|(&h, cmds)| stamped(h, cmds, 0))
                .skip_while(move |&(ts, _)| ts <= after)
        });
        merge(lanes.collect()).map(|(ts, cmd)| LoggedCmd {
            ts,
            origin: ts.replica(),
            cmd: cmd.clone(),
        })
    }
}
