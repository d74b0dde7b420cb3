//! `service_mixed`: a journaled multi-tenant service driven over one
//! in-process wire connection by 64 closed-loop tenants, crashed and
//! recovered at the end of every epoch.
//!
//! Half the tenants run back-to-back adaptive Table I campaigns; the other
//! half stream small batches into long-lived sessions. An epoch is a
//! fresh service plus [`ROUNDS`] waves per tenant; it ends with the
//! service dropped without shutdown, `SessionService::recover` rebuilding
//! it from the journal stores (timed as `recover_s`), and one
//! recovery-fidelity op. Every epoch attempts the same ops, so the failed
//! share is the same in every run.

use crate::common::{stopwatch, Phase};
use crate::trace::{self, Counted, Layer, Traced, TracedStore};
use crate::{run_phases, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relperf_core::{
    ClusterConfig, ClusterSession, ConvergenceCriterion, PairSchedule, Parallelism, ScoreTable,
};
use relperf_measure::compare::BootstrapConfig;
use relperf_measure::{stream_seed, BootstrapComparator, ScratchThreeWayComparator};
use relperf_service::client::{duplex, DuplexPipe};
use relperf_service::{
    wire, ClientError, JournalConfig, JournalStore, MemJournalStore, OpOutcome, RuntimeConfig,
    ServiceError, ServiceLimits, ServiceRuntime, ServiceStats, SessionOp, SessionService,
    SessionSpec, SessionStatus, WireClient,
};
use relperf_workloads::adaptive::{draw_wave, placement_rngs, AdaptiveExperiment, WaveSchedule};
use relperf_workloads::Experiment;
use std::collections::{BTreeMap, VecDeque};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// State builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

const SHARDS: usize = 8;
/// Campaign tenants are `TENANT_BASE + 0..HALF`, streaming tenants
/// `TENANT_BASE + HALF..2·HALF`.
const HALF: usize = 32;
const TENANT_BASE: u64 = 1000;
/// The tenant whose throwaway session carries the set-up warm-up op.
const WARMUP_TENANT: u64 = 1;
/// Waves every tenant sends per epoch.
const ROUNDS: usize = 12;
/// Streaming tenants score every this many batches.
const SCORE_EVERY: usize = 8;
const STREAM_ALGS: usize = 4;
const STREAM_BASE: [f64; STREAM_ALGS] = [1.0, 1.02, 1.10, 1.50];
const AWAIT_TIMEOUT: Duration = Duration::from_secs(120);

/// Resident sessions per shard: 32 in all, well under the 64 tenants, so
/// sessions spill and rehydrate every round. Beyond 16 spilled snapshots
/// per shard the oldest is hard-evicted: with 4 + 16 slots no shard holds
/// more sessions touched in the last round than it has slots (at most 19
/// for this fixed key set), so a live session is never the victim, while
/// the finished campaigns overflow the busiest shards every epoch (shard 1
/// ends an epoch with 31 sessions). See `README.md`.
fn limits() -> ServiceLimits {
    ServiceLimits {
        sessions_per_shard: 4,
        spill_per_shard: 16,
        ..ServiceLimits::default()
    }
}

fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        repetitions: 20,
        parallelism: Parallelism::serial(),
        schedule: PairSchedule::OnDemand,
    }
}

/// Campaigns stop at 20 measurements per placement: waves of 10, 5, 5.
fn schedule() -> WaveSchedule {
    WaveSchedule {
        initial: 10,
        wave: 5,
        max_per_algorithm: 20,
    }
}

fn comparator(seed: u64) -> BootstrapComparator {
    BootstrapComparator::with_config(
        seed,
        BootstrapConfig {
            reps: 30,
            ..Default::default()
        },
    )
}

/// `(measure, cluster)` seeds of campaign `k` of campaign tenant `t`.
fn campaign_seeds(seed: u64, epoch: u64, t: usize, k: u64) -> (u64, u64) {
    let base = stream_seed(stream_seed(seed, epoch), (t as u64) << 32 | k);
    (stream_seed(base, 0), stream_seed(base, 1))
}

fn stream_tenant_seed(seed: u64, epoch: u64, t: usize) -> u64 {
    stream_seed(stream_seed(seed ^ 0x57ea_4000, epoch), t as u64)
}

/// One campaign in flight or finished.
struct Campaign {
    session: u64,
    seeds: (u64, u64),
    rngs: Vec<StdRng>,
    drawn: usize,
    waves: usize,
    converged: bool,
    table: Option<ScoreTable>,
}

enum Tenant {
    Campaign {
        done: Vec<Campaign>,
        current: Option<Campaign>,
        next_session: u64,
    },
    Stream {
        seed: u64,
        rng: StdRng,
        batches: Vec<Vec<Vec<f64>>>,
        scored: Option<(usize, ScoreTable)>,
    },
}

/// A wave built and waiting for admission (kept across rejected
/// attempts, so a retry resubmits exactly the same ops).
struct Prepared {
    create: Option<SessionSpec>,
    session: u64,
    ops: Vec<SessionOp>,
    /// The first admission attempt: where the op's latency starts.
    started: Option<Instant>,
}

struct InFlight {
    tenant: usize,
    session: u64,
    seqs: Vec<u64>,
    started: Instant,
}

type Client = WireClient<Counted<DuplexPipe>>;

/// A live service: runtime, wire connection and the per-shard stores.
struct Live<C: ScratchThreeWayComparator + Send + Sync + 'static> {
    runtime: ServiceRuntime<C>,
    client: Client,
    server: JoinHandle<Result<(), relperf_service::WireError>>,
    stores: Vec<MemJournalStore>,
    exp: Experiment,
    tenants: Vec<Tenant>,
    after_setup: ServiceStats,
}

/// What outlives the wire connection of an epoch.
struct Ended {
    stores: Vec<MemJournalStore>,
    exp: Experiment,
    tenants: Vec<Tenant>,
    after_setup: ServiceStats,
}

fn backpressure(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Service(
            ServiceError::ShardFull { .. }
                | ServiceError::TenantBusy { .. }
                | ServiceError::QueueFull { .. }
                | ServiceError::Overloaded { .. }
        )
    )
}

fn tenant_id(t: usize) -> u64 {
    TENANT_BASE + t as u64
}

/// Builds a journaled service (with [`TracedStore`]s if `traced`), its
/// runtime (one scheduler thread) and the wire connection, opens the
/// streaming sessions and runs one untimed warm-up op on a throwaway
/// session.
fn setup<C>(cmp: C, seed: u64, epoch: u64, traced: bool) -> Result<Live<C>, String>
where
    C: ScratchThreeWayComparator + Send + Sync + 'static,
{
    let stores: Vec<MemJournalStore> = (0..SHARDS).map(|_| MemJournalStore::new()).collect();
    let boxed: Vec<Box<dyn JournalStore>> = stores
        .iter()
        .map(|s| -> Box<dyn JournalStore> {
            if traced {
                Box::new(TracedStore(s.clone()))
            } else {
                Box::new(s.clone())
            }
        })
        .collect();
    let service = SessionService::with_journal(
        cmp,
        Parallelism::serial(),
        limits(),
        JournalConfig::default(),
        boxed,
    )
    .map_err(|e| format!("with_journal: {e:?}"))?;
    let runtime = ServiceRuntime::start(
        service,
        RuntimeConfig {
            scheduler_threads: 1,
            ..RuntimeConfig::default()
        },
    );
    let (client_end, server_end) = duplex();
    let handle = runtime.handle();
    let server =
        std::thread::spawn(move || wire::serve_connection(&handle, &mut Counted(server_end)));
    let mut client = WireClient::new(Counted(client_end));
    let spec = |seed| SessionSpec {
        algorithms: STREAM_ALGS,
        config: cluster_config(),
        seed,
        criterion: ConvergenceCriterion::default(),
    };
    let mut tenants = Vec::with_capacity(2 * HALF);
    for _ in 0..HALF {
        tenants.push(Tenant::Campaign {
            done: Vec::new(),
            current: None,
            next_session: 0,
        });
    }
    for t in HALF..2 * HALF {
        let s = stream_tenant_seed(seed, epoch, t);
        client
            .create_session(tenant_id(t), 0, spec(s))
            .map_err(|e| format!("create stream session: {e:?}"))?;
        tenants.push(Tenant::Stream {
            seed: s,
            rng: StdRng::seed_from_u64(s),
            batches: Vec::new(),
            scored: None,
        });
    }
    // Warm-up: one campaign wave on a throwaway session, then close it.
    let exp = Experiment::table1(10);
    let p = exp.placements.len();
    let (measure_seed, cluster_seed) = campaign_seeds(seed, epoch, usize::MAX, 0);
    let spec = SessionSpec {
        algorithms: p,
        config: cluster_config(),
        seed: cluster_seed,
        criterion: ConvergenceCriterion::default(),
    };
    client
        .create_session(WARMUP_TENANT, 0, spec)
        .map_err(|e| format!("create warm-up session: {e:?}"))?;
    let mut rngs = placement_rngs(measure_seed, p);
    let n = schedule().next_wave(0);
    let mut ops: Vec<SessionOp> = draw_wave(&exp, &mut rngs, n, Parallelism::serial())
        .into_iter()
        .enumerate()
        .map(|(alg, values)| SessionOp::Extend { alg, values })
        .collect();
    ops.push(SessionOp::Score);
    ops.push(SessionOp::Close);
    let seqs = client
        .submit(WARMUP_TENANT, 0, ops)
        .map_err(|e| format!("warm-up submit: {e:?}"))?;
    client
        .await_responses(WARMUP_TENANT, &seqs, AWAIT_TIMEOUT)
        .map_err(|e| format!("warm-up await: {e:?}"))?;
    let after_setup = client.stats().map_err(|e| format!("stats: {e:?}"))?;
    Ok(Live {
        runtime,
        client,
        server,
        stores,
        exp,
        tenants,
        after_setup,
    })
}

impl<C: ScratchThreeWayComparator + Send + Sync + 'static> Live<C> {
    /// Builds tenant `t`'s next wave (drawing campaign measurements or
    /// streaming batches). The client does this work between waves, so it
    /// counts in the timed phase but not in the op's latency.
    fn prepare(&mut self, t: usize, seed: u64, epoch: u64) -> Prepared {
        let exp = &self.exp;
        match &mut self.tenants[t] {
            Tenant::Campaign {
                done,
                current,
                next_session,
            } => {
                let finished = current
                    .as_ref()
                    .is_some_and(|c| c.converged || schedule().next_wave(c.drawn) == 0);
                if finished {
                    done.push(current.take().expect("checked above"));
                }
                let mut create = None;
                if current.is_none() {
                    let k = *next_session;
                    *next_session += 1;
                    let seeds = campaign_seeds(seed, epoch, t, k);
                    create = Some(SessionSpec {
                        algorithms: exp.placements.len(),
                        config: cluster_config(),
                        seed: seeds.1,
                        criterion: ConvergenceCriterion::default(),
                    });
                    *current = Some(Campaign {
                        session: k,
                        seeds,
                        rngs: placement_rngs(seeds.0, exp.placements.len()),
                        drawn: 0,
                        waves: 0,
                        converged: false,
                        table: None,
                    });
                }
                let c = current.as_mut().expect("set above");
                let n = schedule().next_wave(c.drawn);
                let values = trace::span(Layer::DrawWave, 0, || {
                    draw_wave(exp, &mut c.rngs, n, Parallelism::serial())
                });
                c.drawn += n;
                let mut ops: Vec<SessionOp> = values
                    .into_iter()
                    .enumerate()
                    .map(|(alg, values)| SessionOp::Extend { alg, values })
                    .collect();
                ops.push(SessionOp::Score);
                Prepared {
                    create,
                    session: c.session,
                    ops,
                    started: None,
                }
            }
            Tenant::Stream { rng, batches, .. } => {
                let batch: Vec<Vec<f64>> = STREAM_BASE
                    .iter()
                    .map(|&base| {
                        let len = rng.random_range(1..=8usize);
                        (0..len)
                            .map(|_| base * (1.0 + 0.25 * rng.random_range(0.0..1.0)))
                            .collect()
                    })
                    .collect();
                let mut ops: Vec<SessionOp> = batch
                    .iter()
                    .enumerate()
                    .map(|(alg, values)| SessionOp::Extend {
                        alg,
                        values: values.clone(),
                    })
                    .collect();
                batches.push(batch);
                if batches.len() % SCORE_EVERY == 0 {
                    ops.push(SessionOp::Score);
                }
                Prepared {
                    create: None,
                    session: 0,
                    ops,
                    started: None,
                }
            }
        }
    }

    /// One admission attempt: create the session if the wave opens one,
    /// then submit the wave.
    fn try_submit(&mut self, t: usize, p: &mut Prepared) -> Result<Vec<u64>, ClientError> {
        let tenant = tenant_id(t);
        if let Some(spec) = p.create {
            trace::span(Layer::Submit, 0, || {
                self.client.create_session(tenant, p.session, spec)
            })?;
            p.create = None;
        }
        trace::span(Layer::Submit, 0, || {
            self.client.submit(tenant, p.session, p.ops.clone())
        })
    }

    /// Records the responses of tenant `t`'s wave.
    fn absorb(
        &mut self,
        t: usize,
        responses: Vec<relperf_service::OpResponse>,
    ) -> Result<(), String> {
        for r in responses {
            let outcome = r
                .result
                .map_err(|e| format!("tenant {t} op {}: {e:?}", r.seq))?;
            if let OpOutcome::Scored(wave) = outcome {
                match &mut self.tenants[t] {
                    Tenant::Campaign { current, .. } => {
                        let c = current.as_mut().expect("a campaign is in flight");
                        c.waves += 1;
                        c.converged = wave.converged;
                        c.table = Some(wave.table);
                    }
                    Tenant::Stream {
                        batches, scored, ..
                    } => *scored = Some((batches.len(), wave.table)),
                }
            }
        }
        Ok(())
    }

    /// The closed loop: every tenant sends its next wave only after its
    /// previous one was answered, until each has sent [`ROUNDS`] waves.
    /// Returns the per-wave latencies and the backpressure retries.
    fn drive(&mut self, seed: u64, epoch: u64) -> Result<(Vec<f64>, u64), String> {
        let n = self.tenants.len();
        let mut sent = vec![0usize; n];
        let mut ready: VecDeque<usize> = (0..n).collect();
        let mut prepared: Vec<Option<Prepared>> = (0..n).map(|_| None).collect();
        let mut inflight: VecDeque<InFlight> = VecDeque::new();
        let mut latencies = Vec::with_capacity(n * ROUNDS);
        let mut retries = 0u64;
        loop {
            if let Some(&t) = ready.front() {
                let mut p = match prepared[t].take() {
                    Some(p) => p,
                    None => self.prepare(t, seed, epoch),
                };
                let started = *p.started.get_or_insert_with(Instant::now);
                match self.try_submit(t, &mut p) {
                    Ok(seqs) => {
                        ready.pop_front();
                        sent[t] += 1;
                        inflight.push_back(InFlight {
                            tenant: t,
                            session: p.session,
                            seqs,
                            started,
                        });
                        continue;
                    }
                    Err(e) if backpressure(&e) && !inflight.is_empty() => {
                        retries += 1;
                        prepared[t] = Some(p);
                    }
                    Err(e) => return Err(format!("tenant {t} session {}: {e:?}", p.session)),
                }
            }
            let Some(f) = inflight.pop_front() else { break };
            let tenant = tenant_id(f.tenant);
            let responses = trace::span(Layer::Await, 0, || {
                self.client.await_responses(tenant, &f.seqs, AWAIT_TIMEOUT)
            })
            .map_err(|e| format!("await tenant {} session {}: {e:?}", f.tenant, f.session))?;
            latencies.push(f.started.elapsed().as_secs_f64() * 1e3);
            self.absorb(f.tenant, responses)?;
            if sent[f.tenant] < ROUNDS {
                ready.push_back(f.tenant);
            }
        }
        Ok((latencies, retries))
    }

    /// Says goodbye on the wire and joins the server thread, handing back
    /// the runtime and what the epoch's checks need.
    fn hang_up(self) -> Result<(ServiceRuntime<C>, Ended), String> {
        self.client
            .goodbye()
            .map_err(|e| format!("goodbye: {e:?}"))?;
        self.server
            .join()
            .map_err(|_| "wire server thread panicked".to_string())?
            .map_err(|e| format!("wire server: {e:?}"))?;
        Ok((
            self.runtime,
            Ended {
                stores: self.stores,
                exp: self.exp,
                tenants: self.tenants,
                after_setup: self.after_setup,
            },
        ))
    }

    /// Every session key this epoch created.
    fn keys(&self) -> Vec<(u64, u64)> {
        let mut keys = Vec::new();
        for (t, tenant) in self.tenants.iter().enumerate() {
            match tenant {
                Tenant::Campaign { next_session, .. } => {
                    keys.extend((0..*next_session).map(|k| (tenant_id(t), k)));
                }
                Tenant::Stream { .. } => keys.push((tenant_id(t), 0)),
            }
        }
        keys
    }
}

/// The comparable part of a session status (residency and queue depth
/// legitimately differ after a restart).
fn status_key(s: &SessionStatus) -> (usize, usize, usize, bool) {
    (s.algorithms, s.total_measurements, s.waves, s.converged)
}

fn bits(t: &ScoreTable) -> Vec<Vec<u64>> {
    t.score_rows()
        .iter()
        .map(|row| row.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// A table served to a tenant and the reference for it.
type Pair = (ScoreTable, ScoreTable);

/// Reference tables computed apart from the service: a private
/// `ClusterSession` per streaming tenant and an `AdaptiveExperiment` per
/// campaign with the same seeds. Per session key: the table the service
/// last served paired with its reference, and the reference over all
/// ingested data (what a re-`Score` after recovery must produce).
fn references(
    tenants: &[Tenant],
    exp: &Experiment,
    cmp: &BootstrapComparator,
) -> BTreeMap<(u64, u64), (Option<Pair>, ScoreTable)> {
    let private = |seed: u64, batches: &[Vec<Vec<f64>>]| {
        let mut session = ClusterSession::new(STREAM_ALGS, cmp, cluster_config(), seed);
        for batch in batches {
            for (alg, values) in batch.iter().enumerate() {
                session.extend(alg, values).expect("finite batches");
            }
        }
        session.score().clone()
    };
    let mut out = BTreeMap::new();
    for (t, tenant) in tenants.iter().enumerate() {
        match tenant {
            Tenant::Campaign { done, current, .. } => {
                for c in done.iter().chain(current.iter()) {
                    let mut adaptive = AdaptiveExperiment::new(
                        exp,
                        cmp,
                        cluster_config(),
                        ConvergenceCriterion::default(),
                        schedule(),
                        c.seeds.0,
                        c.seeds.1,
                    );
                    for _ in 0..c.waves {
                        adaptive.wave();
                    }
                    let Some(reference) = adaptive.session().table().cloned() else {
                        continue;
                    };
                    let served = c.table.clone().map(|s| (s, reference.clone()));
                    out.insert((tenant_id(t), c.session), (served, reference));
                }
            }
            Tenant::Stream {
                seed,
                batches,
                scored,
                ..
            } => {
                let served = scored
                    .as_ref()
                    .map(|(n, table)| (table.clone(), private(*seed, &batches[..*n])));
                out.insert((tenant_id(t), 0), (served, private(*seed, batches)));
            }
        }
    }
    out
}

/// Per-phase service counters, summed over epochs.
#[derive(Default)]
struct Counters {
    retries: u64,
    spills: u64,
    rehydrations: u64,
    hard_evictions: u64,
    compactions: u64,
    replayed_ops: Vec<f64>,
    fidelity: Vec<String>,
}

/// One epoch: set up, drive the closed loop (timed), crash, recover
/// (timed), then the recovery-fidelity op and the reference checks.
/// `cmp(layer)` builds the comparator whose work counts in `layer`. Call
/// it with span recording off: with `traced`, it records the closed loop
/// and the recovery only.
#[allow(clippy::too_many_arguments)]
fn epoch<C>(
    cmp: &impl Fn(Layer) -> C,
    traced: bool,
    plain: &BootstrapComparator,
    seed: u64,
    index: u64,
    phase: &mut Phase,
    counters: &mut Counters,
    problems: &mut Vec<String>,
) -> Result<(), String>
where
    C: ScratchThreeWayComparator + Send + Sync + 'static,
{
    let mut live = setup(cmp(Layer::Compare), seed, index, traced)?;
    let start = Instant::now();
    let (latencies, retries) = trace::during(traced, || live.drive(seed, index))?;
    phase.busy_s += start.elapsed().as_secs_f64();
    phase.attempted += latencies.len() as u64;
    phase.op_ms.extend(latencies);

    // The live state at the crash, read over the wire.
    let keys = live.keys();
    let mut live_status = BTreeMap::new();
    for &(t, s) in &keys {
        let st = live
            .client
            .session_status(t, s)
            .map_err(|e| format!("status: {e:?}"))?;
        if let Some(st) = st {
            live_status.insert((t, s), st);
        }
    }
    let stats = live.client.stats().map_err(|e| format!("stats: {e:?}"))?;
    let (
        runtime,
        Ended {
            stores,
            exp,
            tenants,
            after_setup,
        },
    ) = live.hang_up()?;
    // Crash: the runtime goes away without a shutdown, compaction or flush.
    drop(runtime);
    counters.retries += retries;
    counters.spills += stats.spills - after_setup.spills;
    counters.rehydrations += stats.rehydrations - after_setup.rehydrations;
    counters.hard_evictions += stats.evictions - after_setup.evictions;
    counters.compactions += stats.journal_compactions - after_setup.journal_compactions;

    let boxed: Vec<Box<dyn JournalStore>> = stores
        .iter()
        .map(|s| -> Box<dyn JournalStore> { Box::new(s.clone()) })
        .collect();
    let (recovered, d) = stopwatch(|| {
        trace::during(traced, || {
            SessionService::recover(
                cmp(Layer::ReplayCompare),
                Parallelism::serial(),
                limits(),
                JournalConfig::default(),
                boxed,
            )
        })
    });
    let (recovered, report) = recovered.map_err(|e| format!("recover: {e:?}"))?;
    phase.recover_s.push(d.as_secs_f64());
    counters.replayed_ops.push(report.replayed_ops as f64);

    // The recovery-fidelity op: the recovered sessions are exactly the
    // live ones, with the same status.
    phase.attempted += 1;
    let mut rec_status = BTreeMap::new();
    for &(t, s) in &keys {
        if let Some(st) = recovered.session_status(t, s) {
            rec_status.insert((t, s), st);
        }
    }
    let resurrected = rec_status
        .keys()
        .filter(|k| !live_status.contains_key(k))
        .count();
    let lost = live_status
        .keys()
        .filter(|k| !rec_status.contains_key(k))
        .count();
    let changed = live_status
        .iter()
        .filter(|(k, st)| {
            rec_status
                .get(k)
                .is_some_and(|r| status_key(r) != status_key(st))
        })
        .count();
    if resurrected + lost + changed > 0 {
        phase.failed += 1;
        counters.fidelity.push(format!(
            "live {} recovered {}: resurrected {resurrected} lost {lost} changed {changed}",
            live_status.len(),
            rec_status.len()
        ));
    }

    // Reference checks, outside every timed span.
    let refs = references(&tenants, &exp, plain);
    for (key, (served, _)) in &refs {
        if let Some((got, want)) = served {
            if bits(got) != bits(want) {
                problems.push(format!(
                    "session {key:?}: served table differs from its private reference"
                ));
            }
        }
    }
    for key in live_status.keys().filter(|k| rec_status.contains_key(k)) {
        let Some((_, want)) = refs.get(key) else {
            continue;
        };
        let seq = recovered
            .submit(key.0, key.1, SessionOp::Score)
            .map_err(|e| format!("re-score {key:?}: {e:?}"))?;
        let table = recovered
            .run_batch()
            .into_iter()
            .find(|r| r.seq == seq)
            .and_then(|r| match r.result {
                Ok(OpOutcome::Scored(w)) => Some(w.table),
                _ => None,
            });
        if table.as_ref().map(bits) != Some(bits(want)) {
            problems.push(format!(
                "session {key:?}: re-score after recovery differs from its reference"
            ));
        }
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, trace_mode: bool) -> Result<Outcome, String> {
    let plain = comparator(seed);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let (live, d) = stopwatch(|| setup(comparator(seed), seed, u64::MAX, false));
        setup_s.push(d.as_secs_f64());
        let (runtime, _) = live?.hang_up()?;
        runtime.shutdown();
    }
    let mut problems = Vec::new();
    let mut counters = [Counters::default(), Counters::default()];
    let mut next_epoch = 0u64;
    let (untraced, traced) = run_phases(seconds, trace_mode, |secs, traced| {
        let mut phase = Phase::default();
        while phase.busy_s < secs {
            let c = &mut counters[usize::from(traced)];
            trace::during(false, || {
                if traced {
                    epoch(
                        &|layer| Traced(comparator(seed), layer),
                        true,
                        &plain,
                        seed,
                        next_epoch,
                        &mut phase,
                        c,
                        &mut problems,
                    )
                } else {
                    epoch(
                        &|_| comparator(seed),
                        false,
                        &plain,
                        seed,
                        next_epoch,
                        &mut phase,
                        c,
                        &mut problems,
                    )
                }
            })?;
            next_epoch += 1;
        }
        Ok(phase)
    })?;
    for (label, c) in ["untraced", "traced"].iter().zip(&counters) {
        for f in &c.fidelity {
            println!("{label} recovery fidelity failed: {f}");
        }
    }
    let c = &counters[usize::from(trace_mode)];
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let replay_compare_ms = traced.as_ref().map_or(0.0, |(_, s)| {
        s[Layer::ReplayCompare].ms() / c.replayed_ops.len().max(1) as f64
    });
    let layers = vec![
        ("service.retries", c.retries as f64),
        ("service.spills", c.spills as f64),
        ("service.rehydrations", c.rehydrations as f64),
        ("service.hard_evictions", c.hard_evictions as f64),
        ("service.compactions", c.compactions as f64),
        ("service.replayed_ops", mean(&c.replayed_ops)),
        ("service.replay_compare_ms", replay_compare_ms),
    ];
    Ok(Outcome {
        setup_s,
        untraced,
        traced,
        layers,
        problems,
    })
}
