//! Property tests for Mencius-bcast: under random FIFO delivery schedules
//! and proposal placements, all replicas resolve the slot space in the
//! same way (total order) and every command eventually executes
//! everywhere once messages drain.

use bytes::Bytes;
use mencius::MenciusBcast;
use proptest::prelude::*;
use rsm_core::batch::Batch;
use rsm_core::command::{Command, CommandId};
use rsm_core::config::Membership;
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::node::Script;
use rsm_core::protocol::Protocol;

fn cluster(n: usize) -> Script<MenciusBcast> {
    let membership = Membership::uniform(n as u16);
    let replica = |i| MenciusBcast::new(ReplicaId::new(i as u16), membership.clone());
    Script::new((0..n).map(replica).collect())
}

fn submit(s: &mut Script<MenciusBcast>, at: usize, seq: u64) {
    let cmd = Command::new(
        CommandId::new(ClientId::new(ReplicaId::new(at as u16), 0), seq),
        Bytes::from_static(b"m"),
    );
    s.on(at, |p, ctx| p.on_client_batch(Batch::single(cmd), ctx));
    s.flush(at);
}

fn committed_ids(s: &Script<MenciusBcast>, r: usize) -> Vec<CommandId> {
    s[r].executed.iter().map(|c| c.cmd.id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random proposers, random partial deliveries, then a drain: all
    /// replicas execute all commands in the same slot order.
    #[test]
    fn random_schedules_agree(
        n in 3usize..=5,
        submissions in proptest::collection::vec(0usize..5, 1..40),
        partial in proptest::collection::vec((0usize..5, 0usize..5), 0..150),
    ) {
        let mut s = cluster(n);
        let mut seq = 0;
        let mut partial = partial.into_iter();
        for who in submissions {
            seq += 1;
            submit(&mut s, who % n, seq);
            if let Some((f, t)) = partial.next() {
                s.deliver(f % n, t % n);
            }
        }
        s.drain();
        for r in 0..n {
            prop_assert_eq!(
                s[r].executed.len() as u64, seq,
                "replica {} executed {}/{} commands", r, s[r].executed.len(), seq
            );
        }
        let reference = committed_ids(&s, 0);
        for r in 1..n {
            prop_assert_eq!(&committed_ids(&s, r), &reference, "replica {} diverged", r);
        }
        // Slot order strictly increases.
        for r in 0..n {
            let slots: Vec<u64> = s[r].executed.iter().map(|c| c.order_hint).collect();
            prop_assert!(slots.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// A single proposer's commands always execute in submission order —
    /// its own slots are taken in increasing order.
    #[test]
    fn single_proposer_fifo(count in 1u64..30, who in 0usize..3) {
        let mut s = cluster(3);
        for seq in 1..=count {
            submit(&mut s, who, seq);
        }
        s.drain();
        let seqs: Vec<u64> = s[0].executed.iter().map(|c| c.cmd.id.seq).collect();
        prop_assert_eq!(seqs, (1..=count).collect::<Vec<_>>());
    }
}
