//! The linearizable read subsystem (protocol-agnostic parts).
//!
//! Every protocol in this workspace can replicate a read like any other
//! command — always correct, always paying the full WAN commit latency.
//! This module is the shared vocabulary for doing better: serving reads
//! **locally**, at the replica the client is attached to, without giving
//! up linearizability. The per-protocol read paths are built from three
//! pieces:
//!
//! * a [`ReadPath`] capability each protocol reports, naming the
//!   mechanism (and therefore the assumptions) behind its local reads;
//! * the read front of the shared [`Executor`](crate::exec::Executor),
//!   which a protocol plugs into through
//!   [`ReadFront`](crate::exec::ReadFront): reads ride probes, a
//!   completed probe parks its reads at a protocol-chosen mark, and
//!   parked reads are served once the protocol's release cursor passes
//!   their mark;
//! * [`ReadRequest`]/[`ReadReply`] wire shapes for the quorum probes of
//!   Paxos and Mencius.
//!
//! # The release rule
//!
//! **No read is served before a quorum has answered a probe sent after
//! the read arrived** (the Paxos lease fast path alone lets its lease
//! stand in for the probe). A probe carries every read that arrived before it
//! left; at most [`MAX_INFLIGHT_PROBES`] are in flight, and a read past
//! the cap rides the probe that leaves when one completes (or when
//! [`PROBE_FLUSH_US`] runs out). A completed probe parks each read at
//! the mark its answers fold into; the read is served from the local
//! state machine once the release cursor passes that mark. The paths
//! differ only in the probe's quorum, what an answer carries, and what
//! the mark and the cursor are:
//!
//! * **Clock-RSM stable-timestamp reads** ([`ReadPath::LocalStable`])
//!   keep the paper's rule that clocks affect latency only. The probe
//!   is a clock probe to the whole configuration, the sender included,
//!   stamped by the replica's monotonic send-timestamp discipline; each
//!   peer answers at once with an echo that names the probe and carries
//!   a fresh clock reading. A completed probe parks a read at the
//!   probe's own timestamp (a pinned snapshot read at its cut), and the
//!   cursor is the stable timestamp — `min(LatestTV)` over the
//!   configuration, lowered below the first pending command. Any write
//!   whose reply preceded the read's arrival has a smaller timestamp
//!   than the probe: its commit needed this replica's clock evidence
//!   above the write's timestamp, and the probe is stamped above
//!   everything the replica ever sent. So the released prefix contains
//!   it, and skew moves the wait, never the answer.
//!
//!   The quorum is worked out from the configuration:
//!
//!   - *Failure detection on:* a majority of the membership (Spec),
//!     counting only echoes of the replica's current epoch. A
//!     reconfiguration freezes a majority with SUSPEND first, a frozen
//!     replica neither echoes nor probes until it installs the new
//!     epoch, so by quorum intersection no newer epoch existed when the
//!     read arrived. A replica cut off and reconfigured out — a
//!     *castaway* — still holds old-epoch evidence over a state the
//!     survivors have moved past, and however slow its clock, its
//!     probes never complete. An epoch install sends every read the
//!     replica holds round again, under the new epoch.
//!   - *Failure detection off:* the probe's own copy. Configurations
//!     then only grow — a rejoin proposes a superset, and nothing else
//!     reconfigures — so there is no castaway, and the stable timestamp
//!     alone decides.
//!
//!   *Self lane.* `min(LatestTV)` includes the replica's **own** entry,
//!   which moves only when one of its own timestamped messages comes
//!   back through its FIFO self-channel (behind every PREPARE it sent
//!   before). The probe's self-delivered copy is that message, which is
//!   why the probe goes to the sender too.
//! * **Paxos leader-lease reads** ([`ReadPath::LeaderLease`]) import a
//!   genuine bounded-skew *safety* assumption — the one piece of this
//!   workspace where a clock bound is load-bearing. The lease-holding
//!   leader parks reads at once, on its own commit mark, without a
//!   probe: the lease stands in for the quorum, and it is only
//!   linearizable while no newer regime can have committed a write
//!   elsewhere; that in turn holds only if follower suspicion clocks
//!   and the leader's lease clock advance at comparable rates (see the
//!   `paxos` crate docs for the exact margin). Ballot fencing bounds the
//!   blast radius: a deposed leader's *writes* are nacked outright, so
//!   the worst a broken clock can produce is a stale **read** served
//!   inside one lease window — never divergent replicas, never a lost
//!   write.
//! * **Quorum-mark reads** ([`ReadPath::CommitWatermark`] and the
//!   follower fallback of the Paxos path) assume nothing about clocks:
//!   the reader probes a majority for their read marks (commit
//!   watermark raised to the top of the accepted log), parks the read
//!   at the maximum, and serves once its own execution passes it. Any
//!   write that completed before the probe was acknowledged by a
//!   majority, which intersects the probed majority, so some reply's
//!   mark covers it.
//!
//! # Audit of the three paths
//!
//! * Mencius quorum-mark reads are clock- and epoch-free: the quorum is
//!   a majority, the answers are logged-slot bounds, the cursor is the
//!   slot execution cursor, and Mencius never reconfigures.
//! * The Paxos fallback is clock-free: marks bound every instance logged
//!   under any regime, so a fail-over between probe and answer cannot
//!   hide a completed write.
//! * The Paxos lease fast path is the one read that skips the probe. It
//!   keeps its documented bound: stale by at most one lease window, and
//!   only if clock rates drift past the margin.

use std::collections::BTreeMap;

use crate::command::Command;
use crate::id::ReplicaId;
use crate::protocol::{Context, Protocol, TimerToken};
use crate::time::Micros;

/// The local-read mechanism a protocol implements, reported via
/// [`Protocol::read_path`].
///
/// Drivers and harnesses use the capability for routing decisions and
/// reporting; the invariant behind each variant is documented in the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// Reads are served locally at **any** replica once a clock probe
    /// sent after the read has its quorum of echoes and the replica's
    /// stable timestamp passes the probe's (Clock-RSM). Clock skew
    /// affects read latency only (see the [module docs](self)).
    LocalStable,
    /// The lease-holding leader serves reads locally, fenced by ballot
    /// and lease; this introduces a bounded-skew **safety** assumption.
    /// Followers (and a leader whose lease is uncertain) fall back to a
    /// clock-free quorum-mark read.
    LeaderLease,
    /// Reads park at the issuing replica on the all-owners commit
    /// watermark obtained from a majority probe (Mencius). Clock-free.
    CommitWatermark,
    /// No local read path: reads are replicated as ordinary commands
    /// (the default for any protocol that does not override it).
    Replicated,
}

crate::wire_table! {
    /// A quorum-read probe: asks a peer for its current read mark.
    ///
    /// Sent by a replica that cannot serve a read locally (a follower, a
    /// leader with an uncertain lease, or any Mencius replica). The `seq`
    /// number pairs replies with the probe they answer; it is scoped to the
    /// requesting replica.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ReadRequest {
        /// Requester-local probe sequence number, echoed in the reply.
        pub seq: u64,
    }
}

crate::wire_table! {
    /// A peer's answer to a [`ReadRequest`]: its read mark in the protocol's
    /// ordering coordinate (instance for Paxos, slot for Mencius).
    ///
    /// The mark must be an upper bound on every coordinate the responder has
    /// ever **logged** — its commit watermark raised to the top of its
    /// accepted log — not merely on what it has executed. Commitment of a
    /// write requires a majority to log it, and the probe quorum intersects
    /// every commit quorum, so the maximum mark over a majority of replies
    /// covers every write that completed before the probe.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ReadReply {
        /// Echo of the probe's sequence number.
        pub seq: u64,
        /// The responder's read mark (exclusive upper bound: every logged
        /// coordinate is `< mark`).
        pub mark: u64,
    }
}

/// Pending reads parked against a watermark, released in order once the
/// replica's release cursor passes them.
///
/// `W` is the protocol's ordering coordinate (a
/// [`Timestamp`](crate::Timestamp) for Clock-RSM, `u64`
/// instances/slots for Paxos and Mencius). Multiple reads may park at
/// the same watermark (e.g. several reads behind one quorum probe);
/// they release together, in park order.
#[derive(Debug, Clone)]
pub(crate) struct ReadQueue<W: Ord + Copy> {
    parked: BTreeMap<W, Vec<Command>>,
    len: usize,
}

impl<W: Ord + Copy> ReadQueue<W> {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        ReadQueue {
            parked: BTreeMap::new(),
            len: 0,
        }
    }

    /// Parks `cmd` until the release cursor reaches `mark`.
    pub(crate) fn park(&mut self, mark: W, cmd: Command) {
        self.parked.entry(mark).or_default().push(cmd);
        self.len += 1;
    }

    /// Releases every read whose mark is `<= stable`, in mark order
    /// (park order within a mark). Returns an empty vector when nothing
    /// is ready.
    pub(crate) fn release(&mut self, stable: W) -> Vec<Command> {
        self.release_while(|mark| mark <= stable)
    }

    /// Releases every read whose mark is **strictly below** `bound`, in
    /// mark order. The exclusive twin of [`release`](ReadQueue::release):
    /// a replica about to apply a write at coordinate `bound` calls this
    /// first, so every released read is served from state that contains
    /// exactly the writes below its own mark — the *exact-cut* discipline
    /// a sharded snapshot read relies on.
    pub(crate) fn release_before(&mut self, bound: W) -> Vec<Command> {
        self.release_while(|mark| mark < bound)
    }

    /// Releases every parked read, in mark order.
    pub(crate) fn take_all(&mut self) -> Vec<Command> {
        self.release_while(|_| true)
    }

    /// Releases the reads of the leading marks that satisfy `ready`.
    fn release_while(&mut self, ready: impl Fn(W) -> bool) -> Vec<Command> {
        let mut out = Vec::new();
        while let Some(entry) = self.parked.first_entry() {
            if !ready(*entry.key()) {
                break;
            }
            out.extend(entry.remove());
        }
        self.len -= out.len();
        out
    }

    /// Number of parked reads.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no reads are parked.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Concurrency cap on read probes, shared by every protocol's read path
/// (Paxos and Mencius quorum-mark probes, Clock-RSM clock probes).
/// Below it, a read that needs a probe sends one at once — queuing a
/// lone read behind another read's probe costs it a second round trip
/// and saves no message — while a burst that would otherwise broadcast
/// one probe per read rides the probe that leaves when one completes.
pub const MAX_INFLIGHT_PROBES: usize = 4;

/// How long reads queued behind [`MAX_INFLIGHT_PROBES`] probes may wait
/// before the escape timer forces their own probe out. Probes are
/// fire-once (no retransmit): if the gating probes never reach their
/// quorum (crashed or partitioned peers) the queued reads would
/// otherwise be stranded. A compromise between probe traffic (the point
/// of batching) and worst-case read latency when a probe stalls.
pub const PROBE_FLUSH_US: Micros = 5_000;

/// The timer token of the probe escape timer, reserved in every
/// protocol's token space: a protocol hands it to
/// [`ReadFront::flush_read_probes`](crate::exec::ReadFront::flush_read_probes).
pub const PROBE_FLUSH_TOKEN: TimerToken = TimerToken(u64::MAX);

/// Cap on in-flight read probes: beyond this the oldest probe is
/// dropped — its reads are lost and re-issued by client retry, like any
/// command lost to a fault. Bounds memory when probes go unanswered (a
/// crashed or partitioned peer never replies).
pub const MAX_READ_PROBES: usize = 1024;

/// One in-flight read probe: the reads riding it, waiting for its
/// quorum of answers before they can park.
#[derive(Debug)]
struct Probe<A> {
    /// Requester-local probe sequence number, named by every answer.
    seq: u64,
    /// Replicas whose answer has been folded in.
    responders: Vec<ReplicaId>,
    /// The probe's seed with every answer so far folded in.
    folded: A,
    /// The reads riding on this probe.
    cmds: Vec<Command>,
}

/// The requester side of the read front: in-flight probes, the reads
/// queued for the next one, and the escape timer. `A` is what a probe
/// accumulates from its answers (a scalar mark, per-owner marks, or
/// just the probe's own timestamp).
#[derive(Debug)]
pub(crate) struct ReadProbes<A> {
    probes: Vec<Probe<A>>,
    seq: u64,
    /// Reads that arrived while [`MAX_INFLIGHT_PROBES`] were out: they
    /// ride the *next* probe together, cut loose by the completion of a
    /// probe or by the escape timer. (A queued read never joins a probe
    /// already launched: a probe must begin *after* every read it
    /// carries arrived.)
    queued: Vec<Command>,
    /// Whether the escape timer is outstanding.
    flush_armed: bool,
}

impl<A> ReadProbes<A> {
    /// No probes in flight.
    pub(crate) fn new() -> Self {
        ReadProbes {
            probes: Vec::new(),
            seq: 0,
            queued: Vec::new(),
            flush_armed: false,
        }
    }

    /// Admits a read. Below [`MAX_INFLIGHT_PROBES`] it gets its own probe
    /// at once: returns the reads to [`begin`](ReadProbes::begin) one
    /// for. Past the cap it queues to ride the probe launched when one
    /// completes, and `None` comes back; the escape timer
    /// ([`PROBE_FLUSH_US`]) bounds the wait when no in-flight probe
    /// completes.
    pub(crate) fn admit<P: Protocol + ?Sized>(
        &mut self,
        cmd: Command,
        ctx: &mut dyn Context<P>,
    ) -> Option<Vec<Command>> {
        if self.probes.len() < MAX_INFLIGHT_PROBES {
            return Some(vec![cmd]);
        }
        self.queued.push(cmd);
        if !self.flush_armed {
            self.flush_armed = true;
            ctx.set_timer(PROBE_FLUSH_US, PROBE_FLUSH_TOKEN);
        }
        None
    }

    /// The escape timer fired: hands back the queued reads (possibly
    /// none) for a probe of their own, even while the gating probes are
    /// still in flight — a probe always begins after its riders arrived,
    /// so overlapping probes are safe, just extra traffic.
    pub(crate) fn on_flush_timer(&mut self) -> Vec<Command> {
        self.flush_armed = false;
        self.take_queued()
    }

    /// The reads queued behind the cap, for one fresh probe.
    pub(crate) fn take_queued(&mut self) -> Vec<Command> {
        std::mem::take(&mut self.queued)
    }

    /// The sequence number the next [`begin`](ReadProbes::begin) assigns.
    pub(crate) fn next_seq(&self) -> u64 {
        self.seq + 1
    }

    /// Opens probe [`next_seq`](ReadProbes::next_seq) carrying `cmds`,
    /// seeded with `seed`. When [`MAX_READ_PROBES`] are already in
    /// flight the oldest is dropped (client retry re-issues its reads).
    pub(crate) fn begin(&mut self, seed: A, cmds: Vec<Command>) {
        self.seq += 1;
        if self.probes.len() >= MAX_READ_PROBES {
            self.probes.remove(0);
        }
        self.probes.push(Probe {
            seq: self.seq,
            responders: Vec::new(),
            folded: seed,
            cmds,
        });
    }

    /// Folds `from`'s answer to probe `seq` in. A duplicate answer is
    /// ignored, so a retransmitted reply can never double-count toward
    /// the quorum; an answer to a probe no longer in flight is dropped.
    pub(crate) fn on_answer(&mut self, from: ReplicaId, seq: u64, fold: impl FnOnce(&mut A)) {
        if let Some(p) = self.probes.iter_mut().find(|p| p.seq == seq) {
            if !p.responders.contains(&from) {
                p.responders.push(from);
                fold(&mut p.folded);
            }
        }
    }

    /// Removes and returns every probe with at least `quorum` answers, as
    /// `(folded, reads)` pairs in begin order.
    pub(crate) fn take_ready(&mut self, quorum: usize) -> Vec<(A, Vec<Command>)> {
        let done = self.probes.extract_if(.., |p| p.responders.len() >= quorum);
        done.map(|p| (p.folded, p.cmds)).collect()
    }

    /// Drops every in-flight probe and hands back its reads, oldest
    /// first, followed by the queued ones: none of them can complete
    /// any more (Clock-RSM after an epoch install).
    pub(crate) fn abandon(&mut self) -> Vec<Command> {
        let mut cmds: Vec<Command> = self.probes.drain(..).flat_map(|p| p.cmds).collect();
        cmds.append(&mut self.queued);
        cmds
    }

    /// Number of reads riding in-flight probes or queued for the next one.
    pub(crate) fn pending(&self) -> usize {
        self.probes.iter().map(|p| p.cmds.len()).sum::<usize>() + self.queued.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandId;
    use crate::id::{ClientId, ReplicaId};
    use crate::protocol::tests::RecordingCtx;
    use bytes::Bytes;

    fn cmd(seq: u64) -> Command {
        Command::read(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
            Bytes::from_static(b"r"),
        )
    }

    #[test]
    fn releases_in_mark_order_up_to_stable() {
        let mut q: ReadQueue<u64> = ReadQueue::new();
        q.park(10, cmd(1));
        q.park(5, cmd(2));
        q.park(7, cmd(3));
        assert_eq!(q.len(), 3);
        let ready = q.release(7);
        assert_eq!(
            ready.iter().map(|c| c.id.seq).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(q.len(), 1);
        assert!(q.release(9).is_empty());
        assert!(q.release_before(10).is_empty(), "the exact cut excludes 10");
        assert_eq!(q.release_before(11).len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn same_mark_reads_release_together_in_park_order() {
        let mut q: ReadQueue<u64> = ReadQueue::new();
        q.park(4, cmd(1));
        q.park(4, cmd(2));
        let ready = q.release(4);
        assert_eq!(
            ready.iter().map(|c| c.id.seq).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    /// A scalar-mark fold, as Paxos folds its answers.
    fn max_of(mark: u64) -> impl FnOnce(&mut u64) {
        move |m| *m = (*m).max(mark)
    }

    #[test]
    fn probes_complete_on_their_quorum_with_the_folded_mark() {
        let mut probes = ReadProbes::new();
        assert_eq!(probes.next_seq(), 1);
        probes.begin(5, vec![cmd(1), cmd(2)]);
        assert_eq!(probes.pending(), 2);
        assert!(probes.take_ready(1).is_empty(), "no answer yet");
        probes.on_answer(ReplicaId::new(1), 1, max_of(9));
        // A duplicate answer from the same peer never double-counts.
        probes.on_answer(ReplicaId::new(1), 1, max_of(50));
        assert!(probes.take_ready(2).is_empty(), "1 answer is not 2");
        let ready = probes.take_ready(1);
        assert_eq!(
            ready,
            vec![(9, vec![cmd(1), cmd(2)])],
            "max of seed 5 and 9"
        );
        assert_eq!(probes.pending(), 0);
    }

    #[test]
    fn a_zero_quorum_probe_is_immediately_ready() {
        let mut probes = ReadProbes::new();
        probes.begin(3, vec![cmd(1)]);
        assert_eq!(probes.take_ready(0), vec![(3, vec![cmd(1)])]);
    }

    #[test]
    fn probe_cap_drops_the_oldest() {
        let mut probes = ReadProbes::new();
        for i in 0..=MAX_READ_PROBES as u64 {
            probes.begin(0, vec![cmd(i)]);
        }
        assert_eq!(probes.pending(), MAX_READ_PROBES);
        // The first probe (seq 1) was dropped: its answer finds nothing.
        probes.on_answer(ReplicaId::new(1), 1, max_of(9));
        assert!(probes.take_ready(1).is_empty());
    }

    #[test]
    fn reads_past_the_probe_cap_queue_and_ride_the_next_probe() {
        let mut ctx = RecordingCtx::default();
        let mut probes = ReadProbes::new();
        // Below the cap every read gets its own probe at once.
        for seq in 1..=MAX_INFLIGHT_PROBES as u64 {
            let cmds = probes.admit(cmd(seq), &mut ctx).expect("below cap");
            assert_eq!(cmds, vec![cmd(seq)]);
            probes.begin(0, cmds);
        }
        assert!(
            ctx.timers.is_empty(),
            "no escape timer while nothing queues"
        );
        // Past it they queue, and the escape timer is armed exactly once.
        assert!(probes.admit(cmd(10), &mut ctx).is_none());
        assert!(probes.admit(cmd(11), &mut ctx).is_none());
        assert_eq!(ctx.timers, vec![(PROBE_FLUSH_US, PROBE_FLUSH_TOKEN)]);
        assert_eq!(probes.pending(), MAX_INFLIGHT_PROBES + 2);
        // Probe 2 completes; the queued reads come back together.
        probes.on_answer(ReplicaId::new(1), 2, max_of(7));
        assert_eq!(probes.take_ready(1), vec![(7, vec![cmd(2)])]);
        let queued = probes.take_queued();
        assert_eq!(queued, vec![cmd(10), cmd(11)]);
        // The escape timer fires with the queue already drained, then
        // re-arms with the next queued read.
        assert!(probes.on_flush_timer().is_empty());
        probes.begin(0, queued);
        assert!(probes.admit(cmd(12), &mut ctx).is_none());
        assert_eq!(ctx.timers.len(), 2, "re-armed after firing");
        assert_eq!(probes.on_flush_timer(), vec![cmd(12)]);
    }

    #[test]
    fn abandoned_probes_hand_back_riders_then_queued_reads() {
        let mut ctx = RecordingCtx::default();
        let mut probes = ReadProbes::new();
        for seq in 1..=MAX_INFLIGHT_PROBES as u64 + 1 {
            if let Some(cmds) = probes.admit(cmd(seq), &mut ctx) {
                probes.begin(0u64, cmds);
            }
        }
        let all: Vec<u64> = (1..=MAX_INFLIGHT_PROBES as u64 + 1).collect();
        let back = probes.abandon();
        assert_eq!(back.iter().map(|c| c.id.seq).collect::<Vec<_>>(), all);
        assert_eq!(probes.pending(), 0);
        // An answer to an abandoned probe finds nothing.
        probes.on_answer(ReplicaId::new(1), 1, max_of(9));
        assert!(probes.take_ready(0).is_empty());
    }

    #[test]
    fn read_path_is_comparable() {
        assert_eq!(ReadPath::LocalStable, ReadPath::LocalStable);
        assert_ne!(ReadPath::LeaderLease, ReadPath::Replicated);
    }
}
