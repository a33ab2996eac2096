//! The paper's client workload model (Section VI-B).
//!
//! "There are 40 clients issuing requests of 64 B to a replica at each
//! data center. Clients send requests in a closed loop with a think time
//! selected uniformly randomly between 0 and 80 ms. ... clients send
//! commands to replicas of the key-value store to update the value of a
//! randomly selected key."
//!
//! * **Balanced** workloads put clients at every site; **imbalanced**
//!   workloads put them at a single site (Section VI-B2).
//! * **Saturating** mode (zero think time, many clients) drives the
//!   throughput experiments of Figure 8.

use std::collections::HashMap;
use std::marker::PhantomData;

use rand::Rng;

use kvstore::KvOp;
use rsm_core::command::{Command, CommandId, Committed, Reply};
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::protocol::Protocol;
use rsm_core::time::Micros;
use simnet::sim::{Application, SimApi};

use crate::experiment::ExperimentConfig;
use crate::lin::OpRecord;
use crate::stats::LatencyStats;

/// A scripted fault, applied at an absolute virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Crash a replica (volatile state lost, stable log kept).
    Crash(ReplicaId),
    /// Restart a crashed replica (protocol recovery from its log).
    Recover(ReplicaId),
    /// Cut the link between two replicas (messages park until heal).
    Partition(ReplicaId, ReplicaId),
    /// Heal a previously cut link.
    Heal(ReplicaId, ReplicaId),
    /// Step a replica's physical clock by the given microseconds
    /// (positive or negative).
    ClockJump(ReplicaId, i64),
    /// Freeze a replica's physical clock for the given duration — a VM
    /// pause; the clock resumes permanently behind by the freeze.
    ClockFreeze(ReplicaId, Micros),
    /// Add the given drift (parts per million, positive = faster) to a
    /// replica's clock for the given duration of virtual time; the offset
    /// accumulated during the burst persists.
    ClockDrift(ReplicaId, i64, Micros),
    /// Set an extra fixed one-way delay on a link (both directions);
    /// zero clears it. Per-link FIFO is preserved — messages reorder only
    /// relative to other links.
    LinkDelay(ReplicaId, ReplicaId, Micros),
    /// Set extra uniform per-message jitter on a link (both directions);
    /// zero clears it. Per-link FIFO is preserved regardless.
    LinkJitter(ReplicaId, ReplicaId, Micros),
}

/// Event keys at or above this value are fault-plan entries rather than
/// client indices.
const FAULT_KEY_BASE: u64 = 1 << 32;

/// Event keys at or above this value are client retry checks; they encode
/// the client index (bits 24..48) and the command sequence number being
/// watched (bits 0..24).
const RETRY_KEY_BASE: u64 = 1 << 48;

#[derive(Debug)]
struct ClientState {
    id: ClientId,
    site: ReplicaId,
    seq: u64,
    issued_at: Option<Micros>,
    /// Whether the in-flight command is a local read (classifies the
    /// reply into the read/write latency split).
    reading: bool,
    /// The in-flight command, kept whole so a retry re-submits the
    /// identical (id, payload) pair rather than minting a fresh one.
    pending: Option<Command>,
    /// The last value this client successfully installed at its private
    /// CAS key (`None` = chain not started, the key must be absent).
    cas_value: Option<u64>,
    /// The chain value the in-flight CAS proposes, if the in-flight
    /// command is one.
    pending_cas: Option<u64>,
}

/// The closed-loop client application driving a simulation.
///
/// Implements [`Application`] for any protocol; the per-site latency
/// statistics and the operation log come out at the end of the run.
pub struct WorkloadApp<P> {
    cfg: ExperimentConfig,
    clients: Vec<ClientState>,
    client_index: HashMap<ClientId, usize>,
    site_stats: Vec<LatencyStats>,
    /// Aggregate latency of local reads across every site.
    read_stats: LatencyStats,
    /// Aggregate latency of replicated writes across every site.
    write_stats: LatencyStats,
    ops: Vec<OpRecord>,
    op_index: HashMap<CommandId, usize>,
    /// Commands committed at the observer replica inside the measurement
    /// window (throughput metric — each command counted once).
    observer_commits: u64,
    /// CAS replies observed (success or failure).
    cas_count: usize,
    /// CAS operations on privately-owned keys that came back failed —
    /// always a correctness violation (see
    /// [`ExperimentConfig::cas_fraction`]).
    cas_failures: usize,
    observer: ReplicaId,
    _protocol: PhantomData<fn() -> P>,
}

impl<P> WorkloadApp<P> {
    /// Creates the client population `cfg` describes: its sites, clients,
    /// operation mix, measurement window, retries and fault plan.
    pub fn new(cfg: &ExperimentConfig) -> Self {
        let mut clients = Vec::new();
        let mut client_index = HashMap::new();
        for site in cfg.active() {
            for k in 0..cfg.clients_per_site {
                let id = ClientId::new(site, k as u32);
                client_index.insert(id, clients.len());
                clients.push(ClientState {
                    id,
                    site,
                    seq: 0,
                    issued_at: None,
                    reading: false,
                    pending: None,
                    cas_value: None,
                    pending_cas: None,
                });
            }
        }
        WorkloadApp {
            site_stats: vec![LatencyStats::new(); cfg.n()],
            read_stats: LatencyStats::new(),
            write_stats: LatencyStats::new(),
            clients,
            client_index,
            ops: Vec::new(),
            op_index: HashMap::new(),
            observer_commits: 0,
            cas_count: 0,
            cas_failures: 0,
            observer: ReplicaId::new(0),
            cfg: cfg.clone(),
            _protocol: PhantomData,
        }
    }

    /// Per-site latency statistics (indexed by replica index).
    pub fn site_stats(&self) -> &[LatencyStats] {
        &self.site_stats
    }

    /// The recorded operation intervals for the linearizability checker.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// Aggregate latency of local reads across every site (mutable:
    /// percentile queries sort lazily).
    pub fn read_stats_mut(&mut self) -> &mut LatencyStats {
        &mut self.read_stats
    }

    /// Aggregate latency of replicated writes across every site
    /// (mutable: percentile queries sort lazily).
    pub fn write_stats_mut(&mut self) -> &mut LatencyStats {
        &mut self.write_stats
    }

    /// Commands committed at the observer replica within the window.
    pub fn observer_commits(&self) -> u64 {
        self.observer_commits
    }

    /// CAS replies observed over the whole run.
    pub fn cas_count(&self) -> usize {
        self.cas_count
    }

    /// Failed CASes on privately-owned keys — each one a broken chain,
    /// i.e. a correctness violation (see
    /// [`ExperimentConfig::cas_fraction`]).
    pub fn cas_failures(&self) -> usize {
        self.cas_failures
    }

    fn issue(&mut self, idx: usize, api: &mut SimApi<'_, P>)
    where
        P: Protocol,
    {
        let now = api.now();
        if now >= self.cfg.measure_until() {
            return; // experiment over: stop the closed loop
        }
        let key = api.rng().gen_range(0..self.cfg.key_space);
        let is_read =
            self.cfg.read_fraction > 0.0 && api.rng().gen::<f64>() < self.cfg.read_fraction;
        let is_cas = !is_read
            && self.cfg.cas_fraction > 0.0
            && api.rng().gen::<f64>() < self.cfg.cas_fraction;
        let client = &mut self.clients[idx];
        client.seq += 1;
        let cmd_id = CommandId::new(client.id, client.seq);
        client.issued_at = Some(now);
        client.reading = is_read;
        // A fixed-size update to a random key, like the paper's
        // workload — or, in a read mix, a linearizable local read of
        // one — or, in a CAS mix, the next link of the client's private
        // CAS chain (owned key above the shared key space, so only this
        // client ever writes it and the CAS must succeed).
        let op = if is_read {
            KvOp::get(key.to_be_bytes().to_vec())
        } else if is_cas {
            let own_key = self.cfg.key_space + idx as u64;
            client.pending_cas = Some(client.seq);
            KvOp::cas(
                own_key.to_be_bytes().to_vec(),
                client.cas_value.map(|v| v.to_be_bytes().to_vec().into()),
                client.seq.to_be_bytes().to_vec(),
            )
        } else {
            KvOp::put(
                key.to_be_bytes().to_vec(),
                vec![(client.seq % 251) as u8; self.cfg.value_bytes],
            )
        };
        let payload = op.encode();
        let site = client.site;
        let seq = client.seq;
        if self.cfg.record_ops {
            self.op_index.insert(cmd_id, self.ops.len());
            self.ops.push(OpRecord {
                cmd_id,
                issued: now,
                replied: None,
                payload: payload.clone(),
                result: None,
                read_only: is_read,
            });
        }
        let cmd = if is_read {
            Command::read(cmd_id, payload)
        } else {
            Command::new(cmd_id, payload)
        };
        self.clients[idx].pending = Some(cmd.clone());
        if is_read {
            // Client-side read routing: send the read straight to the
            // site's advertised lease holder (Paxos) instead of paying a
            // quorum probe from the local follower. Symmetric-read
            // protocols advertise no hint and the read stays local. A
            // cross-site submission is charged the one-way WAN hop.
            let target = api.read_target(site);
            api.submit_from(site, target, cmd);
        } else {
            api.submit(site, cmd);
        }
        if let Some(timeout) = self.cfg.client_retry_us {
            let key = RETRY_KEY_BASE | ((idx as u64) << 24) | (seq & 0xFF_FFFF);
            api.schedule(timeout, key);
        }
    }
}

impl<P: Protocol> Application<P> for WorkloadApp<P> {
    fn on_init(&mut self, api: &mut SimApi<'_, P>) {
        // Stagger initial requests over one think-time interval.
        for idx in 0..self.clients.len() {
            let delay = if self.cfg.think_max_us == 0 {
                api.rng().gen_range(0..100)
            } else {
                api.rng().gen_range(0..=self.cfg.think_max_us)
            };
            api.schedule(delay, idx as u64);
        }
        for (i, &(at, _)) in self.cfg.faults.iter().enumerate() {
            api.schedule(at, FAULT_KEY_BASE + i as u64);
        }
    }

    fn on_event(&mut self, key: u64, api: &mut SimApi<'_, P>) {
        if key >= RETRY_KEY_BASE {
            let idx = ((key >> 24) & 0xFF_FFFF) as usize;
            let seq = key & 0xFF_FFFF;
            let stuck =
                self.clients[idx].issued_at.is_some() && self.clients[idx].seq & 0xFF_FFFF == seq;
            if stuck {
                // The command was lost (e.g. flushed by a reconfiguration
                // it did not survive) — or only its reply was. Re-submit
                // the SAME command: if it did commit, the session tables
                // serve the cached reply instead of applying it again.
                let client = &self.clients[idx];
                let cmd = client
                    .pending
                    .clone()
                    .expect("a stuck client holds its pending command");
                let site = client.site;
                if cmd.read_only {
                    let target = api.read_target(site);
                    api.submit_from(site, target, cmd);
                } else {
                    api.submit(site, cmd);
                }
                if let Some(timeout) = self.cfg.client_retry_us {
                    api.schedule(timeout, key);
                }
            }
            return;
        }
        if key >= FAULT_KEY_BASE {
            let (_, fault) = self.cfg.faults[(key - FAULT_KEY_BASE) as usize];
            match fault {
                Fault::Crash(r) => api.crash(r, 0),
                Fault::Recover(r) => api.recover(r, 0),
                Fault::Partition(a, b) => api.partition(a, b, 0),
                Fault::Heal(a, b) => api.heal(a, b, 0),
                Fault::ClockJump(r, delta) => api.clock_jump(r, delta, 0),
                Fault::ClockFreeze(r, dur) => api.clock_freeze(r, dur, 0),
                Fault::ClockDrift(r, ppm, dur) => api.clock_drift_burst(r, ppm as f64, dur, 0),
                Fault::LinkDelay(a, b, extra) => api.link_delay(a, b, extra, 0),
                Fault::LinkJitter(a, b, jitter) => api.link_jitter(a, b, jitter, 0),
            }
            return;
        }
        self.issue(key as usize, api);
    }

    fn on_reply(&mut self, client: ClientId, reply: Reply, api: &mut SimApi<'_, P>) {
        let now = api.now();
        let Some(&idx) = self.client_index.get(&client) else {
            return;
        };
        if reply.id.seq != self.clients[idx].seq {
            return; // duplicate reply for an earlier command's retry
        }
        self.clients[idx].pending = None;
        let Some(issued) = self.clients[idx].issued_at.take() else {
            // A same-id retry can draw two replies (the commit's own and
            // the dedup cache's): the first already advanced the loop,
            // so the second must not schedule another command.
            return;
        };
        if self.cfg.record_ops {
            if let Some(&op_idx) = self.op_index.get(&reply.id) {
                self.ops[op_idx].replied = Some(now);
                self.ops[op_idx].result = Some(reply.result.clone());
            }
        }
        if let Some(proposed) = self.clients[idx].pending_cas.take() {
            // Settle the private CAS chain: on success the new value is
            // the chain head; a failure is unconditionally a violation
            // (nobody else writes this key), surfaced via cas_failures.
            self.cas_count += 1;
            if reply.result.first() == Some(&1) {
                self.clients[idx].cas_value = Some(proposed);
            } else {
                self.cas_failures += 1;
            }
        }
        if issued >= self.cfg.warmup_us && now <= self.cfg.measure_until() {
            let site = self.clients[idx].site;
            self.site_stats[site.index()].record(now - issued);
            if self.clients[idx].reading {
                self.read_stats.record(now - issued);
            } else {
                self.write_stats.record(now - issued);
            }
        }
        // Think, then issue the next command.
        let think = if self.cfg.think_max_us == 0 {
            0
        } else {
            api.rng().gen_range(0..=self.cfg.think_max_us)
        };
        api.schedule(think, idx as u64);
    }

    fn on_commit(&mut self, replica: ReplicaId, _committed: &Committed, at: Micros) {
        if replica == self.observer && at >= self.cfg.warmup_us && at <= self.cfg.measure_until() {
            self.observer_commits += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clock_rsm::{ClockRsm, ClockRsmConfig};
    use kvstore::KvStore;
    use rsm_core::config::Membership;
    use rsm_core::matrix::LatencyMatrix;
    use simnet::{SimConfig, Simulation};

    fn workload(n: usize, clients: usize, until: Micros) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(LatencyMatrix::uniform(n, 5_000))
            .clients_per_site(clients)
            .think_max_us(20_000)
            .warmup_us(50_000)
            .duration_us(until - 50_000);
        cfg.key_space = 1_000;
        cfg
    }

    #[test]
    fn closed_loop_clients_drive_commits_end_to_end() {
        let n = 3;
        let cfg = SimConfig::new(LatencyMatrix::uniform(n, 5_000)).seed(1);
        let app: WorkloadApp<ClockRsm> = WorkloadApp::new(&workload(n, 2, 800_000));
        let mut sim = Simulation::new(
            cfg,
            move |id| ClockRsm::new(id, Membership::uniform(n as u16), ClockRsmConfig::default()),
            || Box::new(KvStore::new()),
            app,
        );
        sim.run_until(1_000_000);
        let app = sim.app();
        // Every site produced measured samples.
        for s in 0..n {
            assert!(
                app.site_stats()[s].count() > 5,
                "site {s} produced {} samples",
                app.site_stats()[s].count()
            );
        }
        // Replies arrived for (almost) all recorded ops.
        let replied = app.ops().iter().filter(|o| o.replied.is_some()).count();
        assert!(replied > app.ops().len() / 2);
        // All replicas executed the same number of commands eventually.
        let c0 = sim.commit_count(ReplicaId::new(0));
        assert!(c0 > 0);
    }

    #[test]
    fn imbalanced_workload_touches_single_site() {
        let n = 3;
        let w = workload(n, 2, 500_000).active_sites(vec![1]);
        let cfg = SimConfig::new(LatencyMatrix::uniform(n, 5_000)).seed(2);
        let app: WorkloadApp<ClockRsm> = WorkloadApp::new(&w);
        let mut sim = Simulation::new(
            cfg,
            move |id| ClockRsm::new(id, Membership::uniform(n as u16), ClockRsmConfig::default()),
            || Box::new(KvStore::new()),
            app,
        );
        sim.run_until(700_000);
        let app = sim.app();
        assert!(app.site_stats()[1].count() > 0);
        assert_eq!(app.site_stats()[0].count(), 0);
        assert_eq!(app.site_stats()[2].count(), 0);
    }
}
