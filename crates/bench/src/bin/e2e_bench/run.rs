//! One workload from set-up to verdict: preload and recovery, the
//! correctness oracle, the closed-loop client over the socket, the measured
//! rounds, the traced round with its span ledger, and the counter deltas.

use crate::gen::{Generator, Op};
use crate::ledger::Ledger;
use crate::spec::{Scale, Workload, MIX_RECENT_SEGMENTS, SEGMENT_SECONDS, WINDOW_SEGMENTS};
use crate::{host, stats};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vstore::datasets::{Dataset, VideoSource};
use vstore::{
    BackendOptions, Configuration, IngestRequest, MetricValue, MetricsSnapshot, NetClient,
    NetOptions, QueryRequest, QueryResult, QuerySpec, Result, ServeOptions, ServeRequest,
    ServeResponse, TraceDump, TraceOptions, VStore, VStoreError, VStoreOptions,
};

/// Closed-loop clients, each one connection and one thread. One, on this
/// process's main thread: the server side already runs two event loops,
/// two workers and the query engine's prefetch threads, and on the few
/// cores of a shared sandbox every further runnable thread makes the
/// numbers the scheduler's instead of the store's.
pub const CLIENTS: usize = 1;

/// Per-shard trace ring bound, sized so that a traced round never evicts.
const TRACE_RING_SPANS: usize = 1 << 20;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    /// Also run the traced round and report the ledger and the counters.
    pub trace: bool,
    /// Scratch directory for stores and trace files; the stores are removed
    /// when the run ends.
    pub work_dir: PathBuf,
    /// Test hook: perturb one reference result, which must fail the run.
    pub corrupt_reference: bool,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub end_to_end: BTreeMap<String, f64>,
    /// First and third quartile of the per-round (or per-set-up) values of
    /// the metrics that have them.
    pub spread: BTreeMap<String, (f64, f64)>,
    /// Empty unless the run traced.
    pub per_layer: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// A store directory removed on drop, also when a run fails half way.
struct TempDir(PathBuf);

impl TempDir {
    fn create(parent: &Path, tag: &str) -> Result<TempDir> {
        let path = parent.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn store_options(workload: Workload, trace: bool) -> VStoreOptions {
    let mut options = VStoreOptions::fast().with_backend(BackendOptions::Fs);
    if let Some((cache_bytes, decoded_entries)) = workload.cache() {
        options = options.with_cache(cache_bytes, decoded_entries);
    }
    if trace {
        options = options.with_trace(
            TraceOptions::enabled()
                .with_sample_per_1k(1000)
                .with_ring_spans(TRACE_RING_SPANS),
        );
    }
    options
}

/// The stream of a workload: the scans read `jackson`; the mix ingests
/// into and reads from a camera with the same content profile.
fn stream(workload: Workload) -> VideoSource {
    match workload {
        Workload::IngestQueryMix => VideoSource::from_profile("cam0", Dataset::Jackson.profile()),
        _ => VideoSource::new(Dataset::Jackson),
    }
}

/// A store that went through the whole set-up sequence.
struct SetUp {
    /// Declared before `dir`, so that the store closes before its
    /// directory goes.
    store: VStore,
    dir: TempDir,
    config: Configuration,
    seconds: f64,
    /// Latency of each 1-segment preload ingest.
    ingest_ms: Vec<f64>,
    /// Preloaded video seconds per wall second.
    ingest_rate: f64,
    bytes_written: u64,
    segments_written: u64,
}

/// Open, derive the configuration, preload, then drop the store, reopen
/// the directory and check that recovery found every acknowledged segment.
/// The facade exposes no `sync`; the store flushes by its own policy.
fn set_up(dir: TempDir, workload: Workload, source: &VideoSource, preload: u64) -> Result<SetUp> {
    let started = Instant::now();
    let options = store_options(workload, false);
    let store = VStore::open(&dir.0, options.clone())?;
    let config = (*store.configure(&QuerySpec::query_a(0.8).consumers())?).clone();
    let formats = config.storage_formats.len();

    let mut ingest_ms = Vec::new();
    let (mut bytes_written, mut segments_written) = (0u64, 0u64);
    let preload_started = Instant::now();
    for segment in 0..preload {
        let sent = Instant::now();
        let report = store.ingest(IngestRequest::new(source).starting_at(segment).segments(1))?;
        ingest_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        if report.segments_written != formats {
            return Err(VStoreError::InvalidState(format!(
                "preload of segment {segment} wrote {} of {formats} formats",
                report.segments_written
            )));
        }
        bytes_written += report.actual_bytes.0;
        segments_written += report.segments_written as u64;
    }
    let preload_secs = preload_started.elapsed().as_secs_f64();
    drop(store);

    let store = VStore::open(&dir.0, options)?;
    store.install_configuration(config.clone());
    check_recovered(&store, preload, formats)?;
    Ok(SetUp {
        store,
        dir,
        config,
        seconds: started.elapsed().as_secs_f64(),
        ingest_ms,
        ingest_rate: preload as f64 * SEGMENT_SECONDS / preload_secs,
        bytes_written,
        segments_written,
    })
}

/// The durability check: a freshly reopened store must hold exactly the
/// acknowledged segments in every format. Keys are unique per
/// `(stream, format, segment)`, so an exact count leaves none missing.
fn check_recovered(store: &VStore, acknowledged: u64, formats: usize) -> Result<()> {
    let expected = acknowledged * formats as u64;
    let live = store.store_stats().live_segments as u64;
    if live != expected {
        return Err(VStoreError::corruption(format!(
            "recovery found {live} stored segments, {expected} were acknowledged"
        )));
    }
    Ok(())
}

/// The fields of a query result the oracle compares.
#[derive(Debug, Clone, PartialEq)]
struct Reference {
    positive_frames: Vec<u64>,
    /// Per stage: segments processed, segments passed, frames consumed.
    stages: Vec<(usize, usize, usize)>,
    bytes_read: u64,
}

impl Reference {
    fn of(result: &QueryResult) -> Reference {
        Reference {
            positive_frames: result.positive_frames.clone(),
            stages: result
                .stages
                .iter()
                .map(|s| (s.segments_processed, s.segments_passed, s.frames_consumed))
                .collect(),
            bytes_read: result.bytes_read.0,
        }
    }
}

/// Reference results by window start, computed by direct `store.query`.
/// Windows past the preload (the mix ingests them) take the first served
/// answer as reference, which every later read of that window, cached or
/// not, must then repeat.
struct Oracle {
    references: BTreeMap<u64, Reference>,
}

impl Oracle {
    fn build(store: &VStore, stream: &str, spec: &QuerySpec, starts: u64) -> Result<Oracle> {
        let mut references = BTreeMap::new();
        for first_segment in 0..starts {
            let result = store.query(
                QueryRequest::new(stream, spec)
                    .starting_at(first_segment)
                    .segments(WINDOW_SEGMENTS),
            )?;
            references.insert(first_segment, Reference::of(&result));
        }
        Ok(Oracle { references })
    }

    /// Why a served result is wrong, if it is.
    fn check(&mut self, first_segment: u64, result: &QueryResult) -> Option<String> {
        let scanned = result.stages.first().map_or(0, |s| s.segments_processed);
        let fallbacks: usize = result.stages.iter().map(|s| s.fallback_segments).sum();
        if scanned as u64 != WINDOW_SEGMENTS || fallbacks != 0 {
            return Some(format!(
                "window {first_segment}: first stage scanned {scanned} segments, \
                 {fallbacks} fallbacks"
            ));
        }
        let served = Reference::of(result);
        let reference = self
            .references
            .entry(first_segment)
            .or_insert_with(|| served.clone());
        (*reference != served)
            .then(|| format!("window {first_segment}: served result differs from its reference"))
    }
}

/// What the client counted against one server.
#[derive(Debug, Default)]
struct Tally {
    /// Operations sent in any phase, warm-up included, and how many failed.
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// The measured rounds, in order.
    rounds: Vec<Round>,
    bytes_read: u64,
    segments_processed: u64,
    frames_consumed: u64,
    ingest_bytes: u64,
    ingest_segments: u64,
}

/// One measured round: the latency of every operation completed in it,
/// and how long it took.
#[derive(Debug, Default)]
struct Round {
    query_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    secs: f64,
}

impl Round {
    fn operations(&self) -> usize {
        self.query_ms.len() + self.ingest_ms.len()
    }
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// The closed-loop client: it sends its next request only after the
/// previous one was answered.
struct Client<'a> {
    addr: SocketAddr,
    workload: Workload,
    spec: &'a QuerySpec,
    source: &'a VideoSource,
    formats: usize,
    oracle: Oracle,
    generator: Generator,
    net: Option<NetClient>,
    tally: Tally,
}

impl Client<'_> {
    fn request(&self, op: Op) -> ServeRequest {
        match op {
            Op::Query { first_segment } => ServeRequest::Query {
                stream: self.source.name().to_owned(),
                spec: self.spec.clone(),
                first_segment,
                count: WINDOW_SEGMENTS,
            },
            Op::Ingest { segment } => ServeRequest::Ingest {
                source: self.source.clone(),
                first_segment: segment,
                count: 1,
            },
        }
    }

    /// Send one operation, wait for its reply, check it. A measured round
    /// keeps the latency; failures count in every phase.
    fn send(&mut self, op: Op, round: Option<&mut Round>) {
        self.tally.attempted += 1;
        if self.net.is_none() {
            match NetClient::connect(self.addr) {
                Ok(net) => self.net = Some(net),
                Err(err) => {
                    self.tally.fail(format!("connect refused: {err}"));
                    std::thread::sleep(Duration::from_millis(10));
                    return;
                }
            }
        }
        let request = self.request(op);
        let sent = Instant::now();
        let reply = self.net.as_mut().expect("connected above").call(&request);
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        match (op, reply) {
            (Op::Query { first_segment }, Ok(ServeResponse::Query(result))) => {
                if let Some(why) = self.oracle.check(first_segment, &result) {
                    self.tally.fail(why);
                }
                if let Some(round) = round {
                    round.query_ms.push(ms);
                    self.tally.bytes_read += result.bytes_read.0;
                    for stage in &result.stages {
                        self.tally.segments_processed += stage.segments_processed as u64;
                        self.tally.frames_consumed += stage.frames_consumed as u64;
                    }
                }
            }
            (Op::Ingest { segment }, Ok(ServeResponse::Ingest(report))) => {
                if report.segments_written != self.formats {
                    self.tally.fail(format!(
                        "ingest of segment {segment} wrote {} of {} formats",
                        report.segments_written, self.formats
                    ));
                }
                if let Some(round) = round {
                    round.ingest_ms.push(ms);
                    self.tally.ingest_bytes += report.actual_bytes.0;
                    self.tally.ingest_segments += report.segments_written as u64;
                }
            }
            (_, Ok(ServeResponse::Error(err))) => self.tally.fail(format!("{op:?}: {err:?}")),
            (_, Ok(other)) => self
                .tally
                .fail(format!("{op:?}: unexpected reply {other:?}")),
            (_, Err(err)) => {
                self.tally.fail(format!("{op:?}: {err}"));
                self.net = None;
            }
        }
    }

    /// Generate and send operations for `secs` seconds.
    fn run_for(&mut self, secs: f64, measuring: bool) -> Round {
        let mut round = Round::default();
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < secs {
            let op = self.generator.next_op();
            self.send(op, measuring.then_some(&mut round));
        }
        round.secs = started.elapsed().as_secs_f64();
        round
    }

    /// One deterministic pass over the windows the workload will touch, so
    /// that every cache starts in its steady state, then `secs` of traffic.
    fn warm(&mut self, secs: f64) {
        let head = self.generator.head();
        let oldest = match self.workload {
            Workload::IngestQueryMix => head - head.min(MIX_RECENT_SEGMENTS),
            _ => 0,
        };
        for first_segment in oldest..=head - WINDOW_SEGMENTS {
            self.send(Op::Query { first_segment }, None);
        }
        self.run_for(secs, false);
    }

    /// Talk to another server from here on.
    fn retarget(&mut self, addr: SocketAddr) {
        self.addr = addr;
        self.net = None;
    }
}

/// Counter and gauge values by name (labelled rows summed), histograms as
/// `<name>.sum` and `<name>.count`.
fn metric_values(snapshot: &MetricsSnapshot) -> BTreeMap<String, f64> {
    let mut values = BTreeMap::new();
    for metric in &snapshot.metrics {
        match &metric.value {
            MetricValue::Counter(v) => *values.entry(metric.name.clone()).or_default() += *v as f64,
            MetricValue::Gauge(v) => *values.entry(metric.name.clone()).or_default() += v,
            MetricValue::Histogram(h) => {
                *values.entry(format!("{}.sum", metric.name)).or_default() += h.sum as f64;
                *values.entry(format!("{}.count", metric.name)).or_default() += h.count as f64;
            }
        }
    }
    values
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The counter rows: deltas of the metrics registry across the measured
/// rounds, plus what the client summed from the replies.
fn counter_rows(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    tally: &Tally,
    set_up: &SetUp,
    rows: &mut BTreeMap<String, f64>,
) {
    let gauge = |name: &str| after.get(name).copied().unwrap_or(0.0);
    let delta = |name: &str| gauge(name) - before.get(name).copied().unwrap_or(0.0);

    let (raw_hits, raw_misses) = (
        delta("vstore_cache_raw_hits_total"),
        delta("vstore_cache_raw_misses_total"),
    );
    let (decoded_hits, decoded_misses) = (
        delta("vstore_cache_decoded_hits_total"),
        delta("vstore_cache_decoded_misses_total"),
    );
    let (pool_hits, pool_misses) = (
        delta("vstore_net_pool_hits_total"),
        delta("vstore_net_pool_misses_total"),
    );
    let queries = tally.rounds.iter().map(|r| r.query_ms.len()).sum::<usize>() as f64;
    // Scan workloads ingest only while preloading; their row comes from there.
    let (ingest_bytes, ingest_segments) = match tally.ingest_segments {
        0 => (set_up.bytes_written, set_up.segments_written),
        segments => (tally.ingest_bytes, segments),
    };
    let mut put = |name: &str, value: f64| {
        rows.insert(name.to_owned(), value);
    };
    put(
        "storage.cache_raw_hit_rate",
        ratio(raw_hits, raw_hits + raw_misses),
    );
    put(
        "storage.cache_decoded_hit_rate",
        ratio(decoded_hits, decoded_hits + decoded_misses),
    );
    put(
        "storage.cache_raw_evictions",
        delta("vstore_cache_raw_evictions_total"),
    );
    put(
        "storage.cache_decoded_evictions",
        delta("vstore_cache_decoded_evictions_total"),
    );
    put(
        "storage.cache_invalidations",
        delta("vstore_cache_invalidations_total"),
    );
    put("storage.store_reads", delta("vstore_store_reads_total"));
    put("storage.store_writes", delta("vstore_store_writes_total"));
    put(
        "storage.bytes_read_per_query",
        ratio(tally.bytes_read as f64, queries),
    );
    put("storage.disk_bytes", gauge("vstore_store_disk_bytes"));
    put("storage.live_bytes", gauge("vstore_store_live_bytes"));
    put(
        "query.segments_processed_per_query",
        ratio(tally.segments_processed as f64, queries),
    );
    put(
        "query.frames_consumed_per_query",
        ratio(tally.frames_consumed as f64, queries),
    );
    put(
        "ingest.bytes_written_per_segment",
        ratio(ingest_bytes as f64, ingest_segments as f64),
    );
    put(
        "serve.mean_batch",
        ratio(
            delta("vstore_net_batch_sizes.sum"),
            delta("vstore_net_batch_sizes.count"),
        ),
    );
    put(
        "serve.writes_per_response",
        ratio(
            delta("vstore_net_write_syscalls_total"),
            delta("vstore_net_frames_out_total"),
        ),
    );
    put(
        "serve.pool_hit_rate",
        ratio(pool_hits, pool_hits + pool_misses),
    );
    put(
        "serve.rejected_busy",
        delta("vstore_serve_rejected_busy_total"),
    );
}

/// Which latencies of a round a statistic is about.
type Samples = fn(&Round) -> &Vec<f64>;

/// Samples of all rounds, ascending.
fn pooled(rounds: &[Round], samples: Samples) -> Vec<f64> {
    stats::sorted(
        rounds
            .iter()
            .flat_map(|r| samples(r).iter().copied())
            .collect(),
    )
}

/// `(rate in video seconds per second, p50 in ms)` of every round that
/// completed an operation of the kind.
fn per_round(rounds: &[Round], samples: Samples, video_per_op: f64) -> (Vec<f64>, Vec<f64>) {
    rounds
        .iter()
        .map(samples)
        .zip(rounds)
        .filter(|(samples, _)| !samples.is_empty())
        .map(|(samples, round)| {
            (
                samples.len() as f64 * video_per_op / round.secs,
                stats::median(samples),
            )
        })
        .unzip()
}

/// Requests per second of each measured round, all kinds.
fn request_rates(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .map(|round| round.operations() as f64 / round.secs)
        .collect()
}

/// Wait until every trace begun so far has committed: a worker drops its
/// job, and with it the trace, just after the reply is on its way.
fn settle_traces(store: &VStore) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let stats = store.tracer().stats();
        if stats.committed >= stats.begun || Instant::now() > deadline {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Every set-up of a run: the store of the last one, and per set-up its
/// seconds, its preload ingest p50 and its preload ingest rate.
struct SetUps {
    ready: SetUp,
    seconds: Vec<f64>,
    ingest_p50s: Vec<f64>,
    ingest_rates: Vec<f64>,
}

/// Run the set-up sequence `scale.setups` times, one directory after the
/// other, and keep the last store.
fn set_up_repeatedly(config: &RunConfig, source: &VideoSource) -> Result<SetUps> {
    let (mut seconds, mut ingest_p50s, mut ingest_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..config.scale.setups.max(1) {
        // The previous store and its directory go first: the path is the same.
        drop(last.take());
        let dir = TempDir::create(&config.work_dir, config.workload.name())?;
        let ready = set_up(dir, config.workload, source, config.scale.preload)?;
        seconds.push(ready.seconds);
        ingest_p50s.push(stats::median(&ready.ingest_ms));
        ingest_rates.push(ready.ingest_rate);
        last = Some(ready);
    }
    Ok(SetUps {
        ready: last.expect("at least one set-up ran"),
        seconds,
        ingest_p50s,
        ingest_rates,
    })
}

/// Run one workload.
pub fn run_workload(config: &RunConfig) -> Result<Outcome> {
    let RunConfig {
        workload,
        seed,
        scale,
        ..
    } = *config;
    let source = stream(workload);
    let spec = QuerySpec::query_a(0.8);
    std::fs::create_dir_all(&config.work_dir)?;

    let SetUps {
        mut ready,
        seconds: setup_secs,
        ingest_p50s: setup_ingest_p50s,
        ingest_rates: setup_ingest_rates,
    } = set_up_repeatedly(config, &source)?;
    let formats = ready.config.storage_formats.len();

    let mut oracle = Oracle::build(&ready.store, source.name(), &spec, scale.window_starts())?;
    if config.corrupt_reference {
        if let Some(reference) = oracle.references.values_mut().next() {
            reference.bytes_read += 1;
        }
    }

    // The measured rounds, tracing off.
    let mut outcome = Outcome::default();
    let server = ready.store.serve_net(
        "127.0.0.1:0",
        NetOptions::default(),
        ServeOptions::default(),
    )?;
    let mut client = Client {
        addr: server.local_addr(),
        workload,
        spec: &spec,
        source: &source,
        formats,
        oracle,
        generator: Generator::new(workload, seed, scale.preload),
        net: None,
        tally: Tally::default(),
    };
    client.warm(scale.warmup_secs);
    let counters_before = metric_values(&ready.store.metrics_snapshot());
    for _ in 0..scale.rounds {
        let round = client.run_for(scale.round_secs, true);
        client.tally.rounds.push(round);
    }
    let counters_after = metric_values(&ready.store.metrics_snapshot());
    let peak_rss = host::peak_rss_mib();
    drop(server);

    // End-to-end metrics. A timing is the quiet value of its per-round
    // values (`stats::quiet`); the spread rows carry their quartiles.
    let rounds = &client.tally.rounds;
    let window_video = WINDOW_SEGMENTS as f64 * SEGMENT_SECONDS;
    let (query_rates, query_p50s) = per_round(rounds, |r| &r.query_ms, window_video);
    let (mut ingest_rates, mut ingest_p50s) = per_round(rounds, |r| &r.ingest_ms, SEGMENT_SECONDS);
    if ingest_rates.is_empty() {
        // A scan ingests only while preloading. The contract wants every
        // end-to-end metric from every workload, so a scan reports those
        // ingests, one value per set-up: in-process and serial, not the
        // mix's socket ingests beside queries.
        ingest_rates = setup_ingest_rates;
        ingest_p50s = setup_ingest_p50s;
    }
    let stored_video = counters_after
        .get("vstore_store_live_segments")
        .copied()
        .unwrap_or(0.0)
        / formats as f64
        * SEGMENT_SECONDS;
    let mut quiet = |name: &str, values: &[f64], higher_is_better: bool| {
        outcome
            .end_to_end
            .insert(name.to_owned(), stats::quiet(values, higher_is_better));
        if values.len() > 1 {
            outcome
                .spread
                .insert(name.to_owned(), stats::quartiles(values));
        }
    };
    quiet("query_p50_ms", &query_p50s, false);
    quiet("query_video_x_realtime", &query_rates, true);
    quiet("ingest_p50_ms", &ingest_p50s, false);
    quiet("ingest_video_x_realtime", &ingest_rates, true);
    let mut e2e = |name: &str, value: f64| outcome.end_to_end.insert(name.to_owned(), value);
    e2e(
        "stored_bytes_per_video_s",
        ratio(
            counters_after
                .get("vstore_store_disk_bytes")
                .copied()
                .unwrap_or(0.0),
            stored_video,
        ),
    );
    e2e("peak_rss_mib", peak_rss);
    e2e("setup_s", stats::median(&setup_secs));

    // The traced round and the counters. From here on the client counts
    // into a fresh tally.
    let tally = std::mem::take(&mut client.tally);
    if config.trace {
        let rows = &mut outcome.per_layer;
        counter_rows(&counters_before, &counters_after, &tally, &ready, rows);
        let queries = pooled(&tally.rounds, |r| &r.query_ms);
        let (tail, pct) = stats::tail(&queries);
        rows.insert("client.query_tail_ms".into(), tail);
        rows.insert("client.query_tail_pct".into(), pct);
        rows.insert("client.query_samples".into(), queries.len() as f64);
        let ingests = pooled(&tally.rounds, |r| &r.ingest_ms);
        let (tail, pct) = stats::tail(&ingests);
        rows.insert("client.ingest_tail_ms".into(), tail);
        rows.insert("client.ingest_tail_pct".into(), pct);
        rows.insert("client.ingest_samples".into(), ingests.len() as f64);

        // Reopen the same directory with every request traced.
        let config_to_install = ready.config.clone();
        drop(ready.store);
        ready.store = VStore::open(&ready.dir.0, store_options(workload, true))?;
        ready.store.install_configuration(config_to_install);
        let server = ready.store.serve_net(
            "127.0.0.1:0",
            NetOptions::default(),
            ServeOptions::default(),
        )?;
        client.retarget(server.local_addr());
        client.warm(scale.warmup_secs);
        settle_traces(&ready.store);
        let first_trace = ready.store.tracer().stats().begun + 1;
        let round = client.run_for(scale.traced_secs, true);
        settle_traces(&ready.store);
        drop(server);

        let dump = ready.store.trace_dump(0);
        let mut ledger = Ledger::default();
        let mut slowest = None;
        for record in dump.records.iter().filter(|r| r.trace_id >= first_trace) {
            ledger.add(record);
            if slowest.is_none_or(|s: &vstore::obs::TraceRecord| s.dur_us < record.dur_us) {
                slowest = Some(record);
            }
        }
        let client_ms: f64 = round.query_ms.iter().chain(&round.ingest_ms).sum();
        let answered = round.operations() as u64;
        if ledger.requests != answered {
            outcome.failed += 1;
            outcome.failures.push(format!(
                "traced round: {} traces for {answered} answered requests",
                ledger.requests
            ));
        }
        rows.extend(ledger.rows(client_ms * 1e3));
        rows.insert("obs.spans_dropped".into(), dump.dropped_spans as f64);
        let untraced_rate = stats::median(&request_rates(&tally.rounds));
        let traced_rate = round.operations() as f64 / round.secs;
        rows.insert(
            "obs.trace_overhead_pct".into(),
            100.0 * ratio(untraced_rate - traced_rate, untraced_rate),
        );
        if let Some(record) = slowest {
            let chrome = TraceDump {
                records: vec![record.clone()],
                dropped_spans: 0,
            }
            .to_chrome_json();
            let path = config
                .work_dir
                .join(format!("{}.slowest.trace.json", workload.name()));
            std::fs::write(path, chrome)?;
        }
    }

    // After an ingesting workload: every acknowledged segment must survive
    // a reopen and be readable.
    if workload == Workload::IngestQueryMix {
        let config_to_install = ready.config.clone();
        drop(ready.store);
        let store = VStore::open(&ready.dir.0, store_options(workload, false))?;
        store.install_configuration(config_to_install);
        let head = client.generator.head();
        let mut problems = Vec::new();
        if let Err(err) = check_recovered(&store, head, formats) {
            problems.push(err.to_string());
        }
        let count = head - scale.preload;
        if count > 0 {
            let result = store.query(
                QueryRequest::new(source.name(), &spec)
                    .starting_at(scale.preload)
                    .segments(count),
            )?;
            let scanned = result.stages.first().map_or(0, |s| s.segments_processed) as u64;
            if scanned != count {
                problems.push(format!(
                    "{scanned} of {count} ingested segments readable after reopen"
                ));
            }
        }
        outcome.failed += problems.len() as u64;
        outcome.failures.extend(problems);
    } else {
        drop(ready.store);
    }
    drop(ready.dir);

    for tally in [tally, client.tally] {
        outcome.attempted += tally.attempted;
        outcome.failed += tally.failed;
        outcome.failures.extend(tally.failures);
    }
    if config.trace {
        outcome.per_layer.insert(
            "client.failed_share".into(),
            ratio(outcome.failed as f64, outcome.attempted as f64),
        );
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER};

    /// A smoke-scale run in a scratch directory of its own (tests share a
    /// process id, which is all that tells two stores of one workload apart).
    fn smoke(workload: Workload, test: &str, corrupt_reference: bool) -> Outcome {
        let work_dir =
            std::env::temp_dir().join(format!("e2e_bench-{test}-{}", std::process::id()));
        let outcome = run_workload(&RunConfig {
            workload,
            seed: 3,
            scale: Scale::smoke(),
            trace: !corrupt_reference,
            work_dir: work_dir.clone(),
            corrupt_reference,
        })
        .expect("the run completes");
        let _ = std::fs::remove_dir_all(work_dir);
        outcome
    }

    /// `--smoke` in one process: the workload runs end to end, passes its
    /// own checks, and reports every metric the tables name for it.
    fn smoke_reports_every_metric(workload: Workload) {
        // The walk's rows are the walk test's business.
        let walk_rows = PER_LAYER
            .iter()
            .position(|m| m.name == "datasets.segment_us")
            .expect("the walk rows start at the datasets row");
        let outcome = smoke(workload, workload.name(), false);
        assert!(outcome.correct(), "{:?}", outcome.failures);
        assert!(outcome.attempted > 0);
        for (metric, _) in END_TO_END {
            let value = outcome.end_to_end.get(metric.name).copied();
            assert!(
                value.is_some_and(|v| v > 0.0 && v.is_finite()),
                "{}: {value:?}",
                metric.name
            );
        }
        for metric in &PER_LAYER[..walk_rows] {
            assert!(
                outcome.per_layer.contains_key(metric.name),
                "no {}",
                metric.name
            );
        }
        assert_eq!(outcome.per_layer["obs.spans_dropped"], 0.0);
        // What the spans explain of the client's time is a measurement (the
        // README records it); that they never explain more is an invariant.
        let reconciled = outcome.per_layer["ledger.reconcile_pct"];
        assert!(reconciled > 0.0 && reconciled <= 100.5, "{reconciled}");
        assert!(outcome.per_layer["client.unattributed_us"] >= 0.0);
        let ingested = outcome.per_layer["client.ingest_samples"] > 0.0;
        assert_eq!(ingested, workload == Workload::IngestQueryMix);
    }

    #[test]
    fn smoke_scan_uncached() {
        smoke_reports_every_metric(Workload::ScanUncached);
    }

    #[test]
    fn smoke_scan_cached() {
        smoke_reports_every_metric(Workload::ScanCached);
    }

    #[test]
    fn smoke_scan_thrash() {
        smoke_reports_every_metric(Workload::ScanThrash);
    }

    #[test]
    fn smoke_ingest_query_mix() {
        smoke_reports_every_metric(Workload::IngestQueryMix);
    }

    /// The oracle has teeth: one wrong reference fails the run, which is
    /// what turns into a non-zero exit code.
    #[test]
    fn a_corrupted_reference_fails_the_run() {
        let outcome = smoke(Workload::ScanCached, "corrupt", true);
        assert!(!outcome.correct());
        assert!(outcome.failed > 0 && outcome.failed <= outcome.attempted);
        assert!(
            outcome
                .failures
                .iter()
                .any(|f| f.contains("differs from its reference")),
            "{:?}",
            outcome.failures
        );
    }
}
