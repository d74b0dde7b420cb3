//! Tracing from outside the program: spans around calls into each layer
//! and counting wrappers under the comparator, the journal stores and
//! the wire connection.
//!
//! Spans only record while [`enable`] is on; the untraced phase that
//! yields the end-to-end metrics calls the layers directly. Every
//! wrapper delegates without touching results, so traced and untraced
//! runs compute the same tables.

use relperf_measure::{
    Outcome, Sample, ScratchThreeWayComparator, SeededThreeWayComparator, ThreeWayComparator,
};
use relperf_service::{JournalIoError, JournalStore, MemJournalStore, StoredShard};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

static ON: AtomicBool = AtomicBool::new(false);

/// Turns span recording on or off.
pub fn enable(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Whether span recording is on.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Accumulated calls, busy time and a byte-or-item count of one layer
/// entry point.
struct Span {
    calls: AtomicU64,
    nanos: AtomicU64,
    units: AtomicU64,
}

impl Span {
    const fn new() -> Self {
        Span {
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            units: AtomicU64::new(0),
        }
    }

    fn add(&self, d: Duration, units: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.units.fetch_add(units, Ordering::Relaxed);
    }

    fn read(&self) -> Totals {
        Totals {
            calls: self.calls.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
            units: self.units.load(Ordering::Relaxed),
        }
    }
}

/// A reading of one span; subtract two readings for a delta.
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub nanos: u64,
    pub units: u64,
}

impl Totals {
    /// Busy time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

impl std::ops::Sub for Totals {
    type Output = Totals;
    fn sub(self, o: Totals) -> Totals {
        Totals {
            calls: self.calls - o.calls,
            nanos: self.nanos - o.nanos,
            units: self.units - o.units,
        }
    }
}

/// The layer entry points the traced run times or counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `compare_seeded_scratch` invocations (the bootstrap comparator)
    /// while the program serves its workload.
    Compare,
    /// The same comparator inside `SessionService::recover`'s replay.
    ReplayCompare,
    /// `measure_all_seeded` (simulated measurement).
    Measure,
    /// `ClusterSession::score` / `cluster_measurements_seeded`.
    Score,
    /// `ClusterSession::extend`; units are values ingested.
    Ingest,
    /// `adaptive::draw_wave`.
    DrawWave,
    /// `WireClient::submit` round trips, rejected attempts included.
    Submit,
    /// `WireClient::await_responses` round trips.
    Await,
    /// `JournalStore::append` + `sync`; units are bytes appended.
    Journal,
    /// `solve_rls_with` + `rls_penalty_with` at each Procedure-5 size.
    Rls128,
    Rls256,
    Rls512,
    /// `KernelEngine::gemm` inside the penalty at each size.
    Gemm128,
    Gemm256,
    Gemm512,
    /// `FemScenario::assemble_with`.
    Assembly,
    /// `CsrMatrix::cg_fixed`.
    Cg,
    /// `CsrMatrix::spmv` probe on the assembled operator; units are
    /// computed bytes (`flops::spmv_bytes`).
    Spmv,
    /// Wire frames written by either end; units are bytes.
    Wire,
}

const LAYERS: usize = Layer::Wire as usize + 1;

impl Layer {
    /// The RLS spans, in Procedure-5 size order.
    pub const RLS: [Layer; 3] = [Layer::Rls128, Layer::Rls256, Layer::Rls512];
    /// The GEMM spans, in Procedure-5 size order.
    pub const GEMM: [Layer; 3] = [Layer::Gemm128, Layer::Gemm256, Layer::Gemm512];
}

static SPANS: [Span; LAYERS] = [const { Span::new() }; LAYERS];

/// Runs `f`, recording it in `layer`'s span with `units` of work while
/// tracing.
pub fn span<T>(layer: Layer, units: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let t = Instant::now();
    let r = f();
    SPANS[layer as usize].add(t.elapsed(), units);
    r
}

/// Runs `f` with span recording set to `on`, restoring the previous
/// state after.
pub fn during<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let was = enabled();
    enable(on);
    let r = f();
    enable(was);
    r
}

/// A reading of every span at one moment; subtract two for a delta.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot([Totals; LAYERS]);

impl Snapshot {
    /// Reads every span.
    pub fn take() -> Self {
        Snapshot(std::array::from_fn(|i| SPANS[i].read()))
    }

    /// The totals recorded between `start` and this snapshot.
    pub fn since(&self, start: &Snapshot) -> Snapshot {
        Snapshot(std::array::from_fn(|i| self.0[i] - start.0[i]))
    }
}

impl std::ops::Index<Layer> for Snapshot {
    type Output = Totals;
    fn index(&self, layer: Layer) -> &Totals {
        &self.0[layer as usize]
    }
}

/// A comparator that counts and times every scratch comparison of the
/// comparator it wraps in the span of `.1` ([`Layer::Compare`] or
/// [`Layer::ReplayCompare`]). Sessions, clustering and the service are
/// generic over the comparator, so the wrapper reaches inside all of them.
#[derive(Debug, Clone)]
pub struct Traced<C>(pub C, pub Layer);

impl<C: ThreeWayComparator> ThreeWayComparator for Traced<C> {
    fn compare(&self, a: &Sample, b: &Sample) -> Outcome {
        self.0.compare(a, b)
    }
}

impl<C: SeededThreeWayComparator> SeededThreeWayComparator for Traced<C> {
    fn compare_seeded(&self, a: &Sample, b: &Sample, stream: u64) -> Outcome {
        self.0.compare_seeded(a, b, stream)
    }
}

impl<C: ScratchThreeWayComparator> ScratchThreeWayComparator for Traced<C> {
    type Scratch = C::Scratch;

    fn new_scratch(&self) -> C::Scratch {
        self.0.new_scratch()
    }

    fn compare_seeded_scratch(
        &self,
        scratch: &mut C::Scratch,
        a: &Sample,
        b: &Sample,
        stream: u64,
    ) -> Outcome {
        span(self.1, 1, || {
            self.0.compare_seeded_scratch(scratch, a, b, stream)
        })
    }
}

/// A shard journal store that times `append` and `sync` and counts the
/// bytes appended.
pub struct TracedStore(pub MemJournalStore);

impl JournalStore for TracedStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalIoError> {
        span(Layer::Journal, bytes.len() as u64, || self.0.append(bytes))
    }

    fn sync(&mut self) -> Result<(), JournalIoError> {
        span(Layer::Journal, 0, || self.0.sync())
    }

    fn install_checkpoint(&mut self, base: &[u8], journal: &[u8]) -> Result<(), JournalIoError> {
        self.0.install_checkpoint(base, journal)
    }

    fn load(&mut self) -> Result<StoredShard, JournalIoError> {
        self.0.load()
    }
}

/// A byte stream that counts the frames (one `write` per frame) and bytes
/// written through it.
pub struct Counted<S>(pub S);

impl<S: Read> Read for Counted<S> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.0.read(out)
    }
}

impl<S: Write> Write for Counted<S> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let n = self.0.write(bytes)?;
        if enabled() {
            SPANS[Layer::Wire as usize].add(Duration::ZERO, n as u64);
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}
