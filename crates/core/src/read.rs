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
//! * a [`ReadQueue`] that parks pending reads against a protocol-chosen
//!   watermark coordinate and releases them once the replica's **stable
//!   prefix** passes that coordinate;
//! * [`ReadRequest`]/[`ReadReply`] wire shapes for the quorum-probe
//!   fallback used when no local fast path applies.
//!
//! # Where "clocks only affect latency" holds — and where it does not
//!
//! The subsystem deliberately spans both sides of the paper's central
//! design rule, and the split is the most important thing to understand
//! about it:
//!
//! * **Clock-RSM stable-timestamp reads** ([`ReadPath::LocalStable`])
//!   keep the rule intact. A read is stamped with a **fresh reading of
//!   the replica's clock** (through its monotonic send-timestamp
//!   discipline) and released only once the replica's stable timestamp —
//!   `min(LatestTV)` over the configuration, with every smaller pending
//!   command committed — has passed the stamp. Any write whose reply
//!   preceded the read's issue necessarily has a smaller timestamp than
//!   the stamp (its commit required this very replica's clock evidence
//!   to exceed the write's timestamp), so the released prefix always
//!   contains it. For a replica inside the configuration, clock skew
//!   moves the *wait*, not the *answer*: a slow local clock stamps low
//!   and releases sooner; a fast one stamps high and waits for the
//!   cluster to catch up. **Skew is not latency-only at a castaway,**
//!   though: a replica cut off and reconfigured out whose clock is slow
//!   enough stamps its reads *below* the old-epoch evidence it already
//!   holds, and serves them at once from a state the survivors have
//!   moved past. `tests/read_mix.rs::slow_castaway_answers_no_stale_read`
//!   (ignored while the hole is open) is the witness: with a clock 3 s
//!   slow, a read issued at 1.415 s returns the value the survivors
//!   overwrote. The fix is ROADMAP item 1.
//!
//!   *Probe rule.* A fresh stamp is above the evidence in hand, so an
//!   idle replica's read always parks; left to Algorithm 2's periodic
//!   CLOCKTIME it would wait out up to a Δ period. Instead the evidence
//!   is demand-driven: while its newest locally stamped read is parked
//!   above `min(LatestTV)`, the replica sends a clock probe to the
//!   whole configuration and each peer answers at once with a unicast
//!   CLOCKTIME, so the read releases after one round trip to the
//!   slowest peer or at the next periodic CLOCKTIME, whichever lands
//!   first. One probe covers every read stamped before it, and at most
//!   [`MAX_INFLIGHT_PROBES`] are in flight. Only evidence arrives
//!   sooner — stamp and release rule are untouched.
//!
//!   *Self lane.* `min(LatestTV)` includes the replica's **own** entry,
//!   which moves only when one of its own timestamped messages comes
//!   back through its FIFO self-channel (behind every PREPARE it sent
//!   before), so the probe is delivered to the sender too; answering
//!   peers alone would leave the read waiting on the replica itself.
//!
//!   *Why not stamp lower.* Stamping at the last **sent** timestamp
//!   would make most idle reads free, because evidence already in hand
//!   covers it — which is the flaw: a replica partitioned away and
//!   reconfigured out holds exactly such evidence, from the old epoch,
//!   over a state the survivors have moved past. A fresh stamp from a
//!   clock that is not far behind is above all of it, and what could
//!   pass the stamp is epoch-gated (its old-epoch probes are dropped
//!   unanswered), so the castaway parks its reads until it learns the
//!   new epoch and rejoins. A fresh stamp is *not* above all of it when
//!   the castaway's clock is slower than that evidence is old: the
//!   counterexample above, which only a release rule that ignores
//!   old-epoch evidence closes.
//! * **Paxos leader-lease reads** ([`ReadPath::LeaderLease`]) import a
//!   genuine bounded-skew *safety* assumption — the one piece of this
//!   workspace where a clock bound is load-bearing. The lease-holding
//!   leader serves reads from its committed prefix without talking to
//!   anyone, which is only linearizable while no newer regime can have
//!   committed a write elsewhere; that in turn holds only if follower
//!   suspicion clocks and the leader's lease clock advance at
//!   comparable rates (see the `paxos` crate docs for the exact
//!   margin). Ballot fencing bounds the blast radius: a deposed
//!   leader's *writes* are nacked outright, so the worst a broken clock
//!   can produce is a stale **read** served inside one lease window —
//!   never divergent replicas, never a lost write.
//! * **Quorum-mark reads** ([`ReadPath::CommitWatermark`] and the
//!   follower fallback of the Paxos path) assume nothing about clocks:
//!   the reader probes a majority for their read marks (commit
//!   watermark raised to the top of the accepted log), parks the read
//!   at the maximum, and serves once its own execution passes it. Any
//!   write that completed before the probe was acknowledged by a
//!   majority, which intersects the probed majority, so some reply's
//!   mark covers it.

use std::collections::BTreeMap;

use crate::command::Command;
use crate::id::ReplicaId;
use crate::protocol::{Context, Protocol, TimerToken};
use crate::time::Micros;
use crate::wire::{WireSize, MSG_HEADER_BYTES};

/// The local-read mechanism a protocol implements, reported via
/// [`Protocol::read_path`].
///
/// Drivers and harnesses use the capability for routing decisions and
/// reporting; the invariant behind each variant is documented in the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// Reads are served locally at **any** replica once the replica's
    /// stable timestamp passes the read's stamp (Clock-RSM). Clock skew
    /// affects read latency only, except at a reconfigured-out replica
    /// with a slow clock (see the [module docs](self)).
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

impl WireSize for ReadRequest {
    fn wire_size(&self) -> usize {
        MSG_HEADER_BYTES
    }
}

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

impl WireSize for ReadReply {
    fn wire_size(&self) -> usize {
        MSG_HEADER_BYTES
    }
}

/// Pending reads parked against a watermark, released in order once the
/// replica's stable coordinate passes them.
///
/// `W` is the protocol's ordering coordinate (a
/// [`Timestamp`](crate::Timestamp) for Clock-RSM, `u64`
/// instances/slots for Paxos and Mencius). Multiple reads may park at
/// the same watermark (e.g. several reads behind one quorum probe);
/// they release together, in park order.
///
/// # Examples
///
/// ```
/// use rsm_core::read::ReadQueue;
/// use rsm_core::{Command, CommandId, ClientId, ReplicaId};
/// use bytes::Bytes;
///
/// let cmd = |seq| Command::read(
///     CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
///     Bytes::from_static(b"get k"),
/// );
/// let mut q: ReadQueue<u64> = ReadQueue::new();
/// q.park(5, cmd(1));
/// q.park(3, cmd(2));
/// assert_eq!(q.len(), 2);
/// let ready = q.release(4); // stable coordinate reached 4
/// assert_eq!(ready.len(), 1);
/// assert_eq!(ready[0].id.seq, 2);
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ReadQueue<W: Ord + Copy> {
    parked: BTreeMap<W, Vec<Command>>,
    len: usize,
}

impl<W: Ord + Copy> ReadQueue<W> {
    /// An empty queue.
    pub fn new() -> Self {
        ReadQueue {
            parked: BTreeMap::new(),
            len: 0,
        }
    }

    /// Parks `cmd` until the stable coordinate reaches `mark`.
    pub fn park(&mut self, mark: W, cmd: Command) {
        self.parked.entry(mark).or_default().push(cmd);
        self.len += 1;
    }

    /// Releases every read whose mark is `<= stable`, in mark order
    /// (park order within a mark). Returns an empty vector when nothing
    /// is ready.
    pub fn release(&mut self, stable: W) -> Vec<Command> {
        if self
            .parked
            .keys()
            .next()
            .is_none_or(|&first| first > stable)
        {
            return Vec::new();
        }
        let mut ready = Vec::new();
        while let Some(entry) = self.parked.first_entry() {
            if *entry.key() > stable {
                break;
            }
            ready.extend(entry.remove());
        }
        self.len -= ready.len();
        ready
    }

    /// Releases every read whose mark is **strictly below** `bound`, in
    /// mark order. The exclusive twin of [`release`](ReadQueue::release):
    /// a replica about to apply a write at coordinate `bound` calls this
    /// first, so every released read is served from state that contains
    /// exactly the writes below its own mark — the *exact-cut* discipline
    /// a sharded snapshot read relies on.
    pub fn release_before(&mut self, bound: W) -> Vec<Command> {
        if self
            .parked
            .keys()
            .next()
            .is_none_or(|&first| first >= bound)
        {
            return Vec::new();
        }
        let mut ready = Vec::new();
        while let Some(entry) = self.parked.first_entry() {
            if *entry.key() >= bound {
                break;
            }
            ready.extend(entry.remove());
        }
        self.len -= ready.len();
        ready
    }

    /// Whether any read is still parked at exactly `mark`.
    pub fn holds(&self, mark: W) -> bool {
        self.parked.contains_key(&mark)
    }

    /// Number of parked reads.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no reads are parked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<W: Ord + Copy> Default for ReadQueue<W> {
    fn default() -> Self {
        ReadQueue::new()
    }
}

/// Concurrency cap on read probes, shared by every protocol's read path
/// (Paxos and Mencius quorum-mark probes, Clock-RSM clock probes).
/// Below it, a read that needs a probe sends one at once — queuing a
/// lone read behind another read's probe costs it a second round trip
/// and saves no message — while a burst that would otherwise broadcast
/// one probe per read rides the probe that leaves when one completes.
pub const MAX_INFLIGHT_PROBES: usize = 4;

/// How long reads queued behind [`MAX_INFLIGHT_PROBES`] quorum probes may
/// wait before the escape timer forces their own probe out. Probes are
/// fire-once (no retransmit): if the gating probes never reach a majority
/// (crashed or partitioned peers) the queued reads would otherwise be
/// stranded. A compromise between probe traffic (the point of batching)
/// and worst-case read latency when a probe stalls.
pub const PROBE_FLUSH_US: Micros = 5_000;

/// Cap on in-flight quorum-read probes: beyond this the oldest probe is
/// dropped — its reads are lost and re-issued by client retry, like any
/// command lost to a fault. Bounds memory when probes go unanswered (a
/// crashed or partitioned peer never replies).
pub const MAX_READ_PROBES: usize = 1024;

/// One in-flight quorum-read probe: reads waiting for a majority of
/// read marks before they can park.
#[derive(Debug)]
struct Probe {
    /// Requester-local probe sequence number.
    seq: u64,
    /// Peers that have answered (self is counted implicitly).
    responders: Vec<ReplicaId>,
    /// The largest mark reported so far (seeded with the local mark).
    max_mark: u64,
    /// The reads riding on this probe.
    cmds: Vec<Command>,
}

/// The requester side of the quorum-mark read fallback, shared by every
/// protocol that probes (Paxos followers/uncertain leaders, every
/// Mencius replica): tracks in-flight probes, folds peer marks, and
/// hands back the reads of each probe that reached a majority together
/// with the mark to park them at.
///
/// Protocol glue stays thin: pass each arriving read through
/// [`admit`](ReadProbes::admit), wrap [`begin`](ReadProbes::begin)'s
/// [`ReadRequest`] in the protocol's message type and broadcast it, feed
/// incoming [`ReadReply`]s to [`on_reply`](ReadProbes::on_reply), and
/// after either let [`complete`](ReadProbes::complete) park the finished
/// probes' reads in a [`ReadQueue`].
#[derive(Debug, Default)]
pub struct ReadProbes {
    probes: Vec<Probe>,
    seq: u64,
    /// Reads that arrived while [`MAX_INFLIGHT_PROBES`] were out: they
    /// ride the *next* probe together (one [`ReadRequest`] carries many
    /// reads), cut loose by the completion of a probe or by the escape
    /// timer.
    queued: Vec<Command>,
    /// Whether the escape timer is outstanding.
    flush_armed: bool,
}

impl ReadProbes {
    /// No probes in flight.
    pub fn new() -> Self {
        ReadProbes::default()
    }

    /// Admits a read that needs a probe. Below [`MAX_INFLIGHT_PROBES`]
    /// it gets its own at once: returns the reads to
    /// [`begin`](ReadProbes::begin) a probe for. Past the cap it queues
    /// to ride the probe launched when one completes, and `None` comes
    /// back; the escape timer (`flush`, [`PROBE_FLUSH_US`]) bounds the
    /// wait when no in-flight probe reaches a majority.
    pub fn admit<P: Protocol + ?Sized>(
        &mut self,
        cmd: Command,
        flush: TimerToken,
        ctx: &mut dyn Context<P>,
    ) -> Option<Vec<Command>> {
        if self.probes.len() < MAX_INFLIGHT_PROBES {
            return Some(vec![cmd]);
        }
        self.queued.push(cmd);
        if !self.flush_armed {
            self.flush_armed = true;
            ctx.set_timer(PROBE_FLUSH_US, flush);
        }
        None
    }

    /// The escape timer fired: hands back the queued reads (possibly
    /// none) for a probe of their own, even while the gating probes are
    /// still in flight — a probe always begins after its riders arrived,
    /// so overlapping probes are safe, just extra traffic.
    pub fn on_flush_timer(&mut self) -> Vec<Command> {
        self.flush_armed = false;
        std::mem::take(&mut self.queued)
    }

    /// Parks the reads of every probe that reached `majority` (counting
    /// the requester itself — a single-replica configuration is its own
    /// majority, so a probe can complete the moment it is begun) in
    /// `queue`, at the mark `mark_of(seq, folded scalar mark)` chooses.
    /// The probe sequence number lets a protocol that keeps richer
    /// per-probe state on the side (Mencius per-owner marks) join it
    /// back up; one that parks on the folded mark returns it as is.
    /// Returns `None` when no probe completed; otherwise the reads that
    /// queued up behind the cap (possibly none), for the caller to
    /// launch one fresh probe with once it has released what is already
    /// executable — probe traffic scales with probe round trips, not
    /// with read arrivals.
    pub fn complete(
        &mut self,
        majority: usize,
        queue: &mut ReadQueue<u64>,
        mut mark_of: impl FnMut(u64, u64) -> u64,
    ) -> Option<Vec<Command>> {
        let ready = self.take_ready(majority);
        if ready.is_empty() {
            return None;
        }
        for (seq, scalar, cmds) in ready {
            let mark = mark_of(seq, scalar);
            for cmd in cmds {
                queue.park(mark, cmd);
            }
        }
        Some(std::mem::take(&mut self.queued))
    }

    /// Opens a probe carrying `cmds`, seeded with the caller's own read
    /// mark; returns the request to broadcast to the peers. When
    /// [`MAX_READ_PROBES`] are already in flight the oldest is dropped
    /// (client retry re-issues its reads).
    pub fn begin(&mut self, local_mark: u64, cmds: Vec<Command>) -> ReadRequest {
        self.seq += 1;
        if self.probes.len() >= MAX_READ_PROBES {
            self.probes.remove(0);
        }
        self.probes.push(Probe {
            seq: self.seq,
            responders: Vec::new(),
            max_mark: local_mark,
            cmds,
        });
        ReadRequest { seq: self.seq }
    }

    /// Records a peer's answer (duplicate responders are ignored, so a
    /// retransmitted reply can never double-count toward the majority).
    pub fn on_reply(&mut self, from: ReplicaId, reply: ReadReply) {
        if let Some(p) = self.probes.iter_mut().find(|p| p.seq == reply.seq) {
            if !p.responders.contains(&from) {
                p.responders.push(from);
                p.max_mark = p.max_mark.max(reply.mark);
            }
        }
    }

    /// Removes and returns every probe that reached `majority` counting
    /// the requester itself, as `(seq, mark, reads)` triples.
    fn take_ready(&mut self, majority: usize) -> Vec<(u64, u64, Vec<Command>)> {
        let mut ready = Vec::new();
        self.probes.retain_mut(|p| {
            if 1 + p.responders.len() >= majority {
                ready.push((p.seq, p.max_mark, std::mem::take(&mut p.cmds)));
                false
            } else {
                true
            }
        });
        ready
    }

    /// Number of reads riding in-flight probes or queued for the next
    /// one. (A queued read never joins a probe already launched: a probe
    /// must begin *after* every read it carries arrived, or it could park
    /// a read at a mark that predates a write the read must see.)
    pub fn pending(&self) -> usize {
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
        assert!(q.holds(10) && !q.holds(7), "only the mark above 7 is left");
        assert!(q.release(9).is_empty());
        assert_eq!(q.release(10).len(), 1);
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

    #[test]
    fn probes_complete_on_a_majority_with_the_max_mark() {
        let mut probes = ReadProbes::new();
        let req = probes.begin(5, vec![cmd(1), cmd(2)]);
        assert_eq!(req.seq, 1);
        assert_eq!(probes.pending(), 2);
        assert!(probes.take_ready(2).is_empty(), "self alone is not 2");
        probes.on_reply(ReplicaId::new(1), ReadReply { seq: 1, mark: 9 });
        // A duplicate reply from the same peer never double-counts.
        probes.on_reply(ReplicaId::new(1), ReadReply { seq: 1, mark: 50 });
        let ready = probes.take_ready(3);
        assert!(ready.is_empty(), "1 peer + self is not 3");
        let ready = probes.take_ready(2);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].0, 1, "probe seq is echoed back");
        assert_eq!(ready[0].1, 9, "max of local seed (5) and peer mark (9)");
        assert_eq!(ready[0].2.len(), 2);
        assert_eq!(probes.pending(), 0);
    }

    #[test]
    fn single_replica_probe_is_immediately_ready() {
        let mut probes = ReadProbes::new();
        probes.begin(3, vec![cmd(1)]);
        let ready = probes.take_ready(1);
        assert_eq!(ready, vec![(1, 3, vec![cmd(1)])]);
    }

    #[test]
    fn probe_cap_drops_the_oldest() {
        let mut probes = ReadProbes::new();
        for i in 0..=MAX_READ_PROBES as u64 {
            probes.begin(0, vec![cmd(i)]);
        }
        assert_eq!(probes.pending(), MAX_READ_PROBES);
        // The first probe (seq 1) was dropped: its reply finds nothing.
        probes.on_reply(ReplicaId::new(1), ReadReply { seq: 1, mark: 9 });
        assert!(probes.take_ready(2).is_empty());
    }

    #[test]
    fn reads_past_the_probe_cap_queue_and_ride_the_next_probe() {
        let flush = TimerToken(9);
        let mut ctx = RecordingCtx::default();
        let mut probes = ReadProbes::new();
        let mut queue: ReadQueue<u64> = ReadQueue::new();
        // Below the cap every read gets its own probe at once.
        for seq in 1..=MAX_INFLIGHT_PROBES as u64 {
            let cmds = probes.admit(cmd(seq), flush, &mut ctx).expect("below cap");
            assert_eq!(cmds, vec![cmd(seq)]);
            probes.begin(0, cmds);
        }
        assert!(
            ctx.timers.is_empty(),
            "no escape timer while nothing queues"
        );
        // Past it they queue, and the escape timer is armed exactly once.
        assert!(probes.admit(cmd(10), flush, &mut ctx).is_none());
        assert!(probes.admit(cmd(11), flush, &mut ctx).is_none());
        assert_eq!(ctx.timers, vec![(PROBE_FLUSH_US, flush)]);
        assert_eq!(probes.pending(), MAX_INFLIGHT_PROBES + 2);
        // Nothing completed: nothing parks, the queue stays put.
        assert!(probes.complete(2, &mut queue, |_, m| m).is_none());
        // Probe 2 completes: its read parks at the chosen mark and the
        // queued reads come back to ride one fresh probe together.
        probes.on_reply(ReplicaId::new(1), ReadReply { seq: 2, mark: 7 });
        let queued = probes.complete(2, &mut queue, |seq, mark| seq * 100 + mark);
        assert_eq!(queued, Some(vec![cmd(10), cmd(11)]));
        assert!(queue.holds(207) && queue.len() == 1);
        assert_eq!(probes.pending(), MAX_INFLIGHT_PROBES - 1);
        // The escape timer fires with the queue already drained, then
        // re-arms with the next queued read.
        assert!(probes.on_flush_timer().is_empty());
        probes.begin(0, queued.expect("checked above"));
        assert!(probes.admit(cmd(12), flush, &mut ctx).is_none());
        assert_eq!(ctx.timers.len(), 2, "re-armed after firing");
        assert_eq!(probes.on_flush_timer(), vec![cmd(12)]);
    }

    #[test]
    fn wire_shapes_have_header_weight() {
        assert_eq!(ReadRequest { seq: 1 }.wire_size(), MSG_HEADER_BYTES);
        assert_eq!(ReadReply { seq: 1, mark: 9 }.wire_size(), MSG_HEADER_BYTES);
    }

    #[test]
    fn read_path_is_comparable() {
        assert_eq!(ReadPath::LocalStable, ReadPath::LocalStable);
        assert_ne!(ReadPath::LeaderLease, ReadPath::Replicated);
    }
}
