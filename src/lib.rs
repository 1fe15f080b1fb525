//! # vstore
//!
//! The top-level facade over the VStore system: a data store for analytics
//! on large videos (EuroSys '19), reproduced in Rust.
//!
//! This crate re-exports every component crate and provides [`VStore`], a
//! cheaply-cloneable **service handle** that ties them together the way the
//! paper's prototype does. The handle is `Clone + Send + Sync`: clone it
//! freely and hand the clones to ingest, query and control threads — every
//! clone shares the same store, pipelines and counters, and every method
//! takes `&self`.
//!
//! * **configure** — run backward derivation for a set of
//!   `<operator, accuracy>` consumers (§4), producing the global set of
//!   consumption and storage formats plus the erosion plan. Installing a
//!   configuration is an atomic epoch swap: requests already in flight keep
//!   the configuration they started with;
//! * **ingest** — transcode incoming video into every storage format and
//!   persist 8-second segments (§2.2), via [`IngestRequest`];
//! * **query** — execute operator cascades over the stored video at a chosen
//!   accuracy, streaming segments from the store through the decoder to the
//!   operators (§6.2), via [`QueryRequest`];
//! * **erode** — apply the age-based erosion plan to keep storage under
//!   budget (§4.4), via [`ErodeRequest`].
//!
//! Storage I/O flows through a pluggable [`StorageBackend`]: the local
//! filesystem by default, or an in-memory backend for tests and benchmarks,
//! selected with [`VStoreOptions::with_backend`].
//!
//! ```no_run
//! use vstore::{IngestRequest, QueryRequest, QuerySpec, VStore, VStoreOptions};
//! use vstore::datasets::{Dataset, VideoSource};
//!
//! let store = VStore::open_temp("quickstart", VStoreOptions::default()).unwrap();
//! let query = QuerySpec::query_a(0.9);
//! store.configure(&query.consumers()).unwrap();
//!
//! let source = VideoSource::new(Dataset::Jackson);
//! store.ingest(IngestRequest::new(&source).segments(4)).unwrap();
//!
//! // Clones serve requests concurrently against the same store.
//! let handle = store.clone();
//! let result = handle
//!     .query(QueryRequest::new("jackson", &query).segments(4))
//!     .unwrap();
//! println!("query A ran at {}", result.speed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

mod metrics;
mod requests;

pub use vstore_codec as codec;
pub use vstore_core as core;
pub use vstore_core::profiler;
pub use vstore_datasets as datasets;
pub use vstore_ingest as ingest;
pub use vstore_obs as obs;
pub use vstore_ops as ops;
pub use vstore_query as query;
pub use vstore_serve as serve;
pub use vstore_sim as sim;
pub use vstore_storage as storage;
pub use vstore_types as types;

pub use requests::{ErodeRequest, IngestRequest, QueryRequest};
pub use vstore_core::{Alternative, ConfigurationEngine, EngineOptions};
pub use vstore_datasets::{LiveSource, LoadProfile};
pub use vstore_ingest::{
    DegradationLadder, ErodeReport, LiveIngestHandle, LiveProbe, LiveStats, OfferOutcome,
};
pub use vstore_obs::{
    Metric, MetricValue, MetricsRegistry, MetricsSnapshot, TraceContext, TraceDump, TraceOptions,
    TraceStats, Tracer,
};
pub use vstore_query::{PlanOptions, QueryResult, QuerySpec, StageReport};
pub use vstore_serve::{
    Connection, NetClient, NetProbe, NetServer, NetServerHandle, NetStats, RemoteError,
    RequestKind, ServeRequest, ServeResponse, ServeStats, ServerHandle, VideoService,
};
pub use vstore_storage::{
    BackendOptions, CacheStats, ColdStore, FsBackend, MemBackend, ReadSource, SegmentReader,
    StorageBackend, TierEngine, TierOptions, TierStats,
};
pub use vstore_types::{
    Configuration, Consumer, LiveIngestOptions, NetOptions, OperatorKind, QueueFullPolicy, Result,
    RuntimeOptions, ServeOptions, VStoreError,
};

use std::path::Path;
use std::sync::{Arc, RwLock};
use vstore_codec::Transcoder;
use vstore_core::profiler::{Profiler, ProfilerConfig};
use vstore_ingest::{IngestReport, IngestionPipeline, LiveIngestor};
use vstore_ops::OperatorLibrary;
use vstore_query::QueryEngine;
use vstore_sim::CodingCostModel;
use vstore_storage::{SegmentStore, StoreStats};
use vstore_types::sync::{read_unpoisoned, write_unpoisoned};

/// Options controlling a [`VStore`] instance.
#[derive(Debug, Clone)]
pub struct VStoreOptions {
    /// Configuration-engine options (spaces, strategy, budgets, lifespan).
    pub engine: EngineOptions,
    /// Profiler configuration (clip length, per-operator datasets).
    pub profiler: ProfilerConfig,
    /// Runtime parallelism: store shards, ingest workers, query prefetch.
    /// Defaults to `shards = 8` and worker counts sized to the host's cores;
    /// [`RuntimeOptions::sequential`] reproduces the serial runtime exactly.
    /// Validated at [`VStore::open`] — zeroed knobs are rejected.
    pub runtime: RuntimeOptions,
    /// Which storage backend the segment store runs on: the local
    /// filesystem (default) or an in-memory backend for tests and benches.
    pub backend: BackendOptions,
    /// The cold-storage tier: disabled by default (erosion deletes, byte-
    /// identical to the untiered store). With a cold backend configured,
    /// erosion **demotes** segments to an object-store-style cold tier and
    /// queries promote them back on access. Validated at [`VStore::open`].
    pub tier: TierOptions,
    /// Request tracing: off by default (one relaxed atomic load per span
    /// site). [`TraceOptions::enabled`] turns on head-sampled tracing with
    /// always-capture for slow requests. Validated at [`VStore::open`].
    pub trace: TraceOptions,
}

impl Default for VStoreOptions {
    fn default() -> Self {
        VStoreOptions {
            engine: EngineOptions::default(),
            profiler: ProfilerConfig::paper_evaluation(),
            runtime: RuntimeOptions::default(),
            backend: BackendOptions::default(),
            tier: TierOptions::default(),
            trace: TraceOptions::default(),
        }
    }
}

impl VStoreOptions {
    /// Options sized for fast tests and examples: the reduced fidelity space
    /// and 3-second profiling clips.
    pub fn fast() -> Self {
        VStoreOptions {
            engine: EngineOptions {
                fidelity_space: vstore_types::FidelitySpace::reduced(),
                ..EngineOptions::default()
            },
            profiler: ProfilerConfig::fast_test(),
            runtime: RuntimeOptions::default(),
            backend: BackendOptions::default(),
            tier: TierOptions::default(),
            trace: TraceOptions::default(),
        }
    }

    /// Replace the runtime parallelism options.
    pub fn with_runtime(mut self, runtime: RuntimeOptions) -> Self {
        self.runtime = runtime;
        self
    }

    /// Enable the view cache on the read path: at most `cache_bytes` of
    /// frame planes and `decoded_entries` views, each bound split across
    /// the store's shards. Both default to 0 (disabled); `VStore::open`
    /// rejects a cache with one bound set and the other 0.
    pub fn with_cache(mut self, cache_bytes: u64, decoded_entries: usize) -> Self {
        self.runtime = self.runtime.with_cache(cache_bytes, decoded_entries);
        self
    }

    /// Replace the storage backend selection.
    pub fn with_backend(mut self, backend: BackendOptions) -> Self {
        self.backend = backend;
        self
    }

    /// Replace the tiering options (see [`TierOptions`]). With a cold
    /// backend configured, erosion demotes instead of deleting.
    pub fn with_tier(mut self, tier: TierOptions) -> Self {
        self.tier = tier;
        self
    }

    /// Enable the cold tier on the chosen backend with default tiering
    /// knobs (shorthand for `with_tier(TierOptions::cold(backend))`).
    pub fn with_cold_backend(self, backend: BackendOptions) -> Self {
        self.with_tier(TierOptions::cold(backend))
    }

    /// Replace the tracing options (see [`TraceOptions`]);
    /// `with_trace(TraceOptions::enabled())` turns request tracing on with
    /// the default sampling knobs.
    pub fn with_trace(mut self, trace: TraceOptions) -> Self {
        self.trace = trace;
        self
    }
}

/// The active configuration slot: an epoch counter plus the configuration
/// shared (via `Arc`) with every request that started under it.
#[derive(Debug, Default)]
struct ConfigSlot {
    epoch: u64,
    config: Option<Arc<Configuration>>,
}

/// Everything a [`VStore`] handle points at. One instance exists per opened
/// store, shared by every clone of the handle.
struct VStoreInner {
    profiler: Arc<Profiler>,
    engine: ConfigurationEngine,
    store: Arc<SegmentStore>,
    /// The unified read path: one shard-aware view cache shared by the
    /// query engine (reads) and the ingestion pipeline (invalidating
    /// writes, including erosion).
    reader: Arc<SegmentReader>,
    /// The cold-storage tiering engine, when a cold backend is configured
    /// (the one attached to `reader`): erosion demotes through it and cold
    /// read hits promote through the shared reader.
    tier: Option<Arc<TierEngine>>,
    /// Shared with live-ingest worker threads, which outlive any one
    /// `&self` borrow.
    ingest: Arc<IngestionPipeline>,
    queries: QueryEngine,
    /// Session default for the query planner; individual requests override
    /// it with [`QueryRequest::with_planner`].
    query_planner: bool,
    active: RwLock<ConfigSlot>,
    /// Serving front ends started through [`VStore::serve`]; the metrics
    /// snapshot aggregates them.
    serving: RwLock<ProbeRegistry<vstore_serve::ServeProbe>>,
    /// Live ingestors started through [`VStore::live_ingest`]; the metrics
    /// snapshot aggregates them.
    live: RwLock<ProbeRegistry<LiveProbe>>,
    /// Socket front ends started through [`VStore::serve_net`]; the
    /// metrics snapshot aggregates them (the inner request-layer probes
    /// live in `serving`).
    net: RwLock<ProbeRegistry<NetProbe>>,
    /// The request tracer: hands out trace contexts to serve front ends
    /// and in-process request builders, and owns the bounded trace rings.
    /// Off by default — `begin` is one relaxed atomic load.
    tracer: Arc<Tracer>,
    /// The unified metrics registry. Every stats source registers a
    /// collector at assembly ([`crate::metrics::register_collectors`]);
    /// snapshots travel over the serve wire as
    /// [`ServeResponse::Metrics`].
    metrics: MetricsRegistry,
}

/// What [`ProbeRegistry`] needs from one kind of front-end probe (serve,
/// net, live ingest): liveness, a stats snapshot, how snapshots merge, and
/// which fields describe provisioned capacity rather than history.
trait Probe {
    type Stats: Clone + Default;
    fn live(&self) -> bool;
    fn snapshot(&self) -> Self::Stats;
    fn accumulate(total: &mut Self::Stats, other: &Self::Stats);
    /// Zero what a shut-down front end no longer provisions, so only its
    /// history accumulates.
    fn zero_capacity(finals: &mut Self::Stats);
}

impl Probe for vstore_serve::ServeProbe {
    type Stats = ServeStats;
    fn live(&self) -> bool {
        self.is_live()
    }
    fn snapshot(&self) -> ServeStats {
        self.stats()
    }
    fn accumulate(total: &mut ServeStats, other: &ServeStats) {
        total.accumulate(other);
    }
    fn zero_capacity(finals: &mut ServeStats) {
        finals.workers = 0;
        finals.queue_capacity = 0;
        finals.queue_depth = 0;
    }
}

impl Probe for NetProbe {
    type Stats = NetStats;
    fn live(&self) -> bool {
        self.is_live()
    }
    fn snapshot(&self) -> NetStats {
        self.stats()
    }
    fn accumulate(total: &mut NetStats, other: &NetStats) {
        total.accumulate(other);
    }
    fn zero_capacity(finals: &mut NetStats) {
        finals.active_connections = 0;
    }
}

impl Probe for LiveProbe {
    type Stats = LiveStats;
    fn live(&self) -> bool {
        self.is_live()
    }
    fn snapshot(&self) -> LiveStats {
        self.stats()
    }
    fn accumulate(total: &mut LiveStats, other: &LiveStats) {
        total.accumulate(other);
    }
    fn zero_capacity(finals: &mut LiveStats) {
        finals.workers = 0;
        finals.queue_capacity = 0;
        finals.queue_depth = 0;
        finals.current_level = 0;
    }
}

/// The store's view of one kind of front end: live probes plus the folded
/// final counters of front ends that have shut down. Retiring dead probes
/// keeps the registry bounded no matter how many `serve` / `serve_net` /
/// `live_ingest` calls the store's lifetime sees, while their request
/// history stays in the report; only live front ends contribute capacity.
struct ProbeRegistry<P: Probe> {
    probes: Vec<P>,
    retired: Option<P::Stats>,
}

impl<P: Probe> Default for ProbeRegistry<P> {
    fn default() -> Self {
        ProbeRegistry {
            probes: Vec::new(),
            retired: None,
        }
    }
}

impl<P: Probe> ProbeRegistry<P> {
    /// Fold every live probe plus the retired history into one aggregate
    /// (`None` before the first front end of this kind), dropping probes
    /// of front ends that have shut down.
    fn aggregate(&mut self) -> Option<P::Stats> {
        self.probes.retain(|probe| {
            if probe.live() {
                return true;
            }
            let mut finals = probe.snapshot();
            P::zero_capacity(&mut finals);
            P::accumulate(self.retired.get_or_insert_with(P::Stats::default), &finals);
            false
        });
        if self.probes.is_empty() && self.retired.is_none() {
            return None;
        }
        let mut total = self.retired.clone().unwrap_or_default();
        for probe in &self.probes {
            P::accumulate(&mut total, &probe.snapshot());
        }
        Some(total)
    }
}

/// The VStore service handle.
///
/// Cloning is an `Arc` bump: all clones share one store, one ingestion
/// pipeline, one query engine and one set of counters, and every method
/// takes `&self` — the handle is made to be cloned into however many ingest
/// and query threads the deployment needs. Configuration changes are atomic
/// epoch swaps ([`configure`](Self::configure) /
/// [`install_configuration`](Self::install_configuration)); requests in
/// flight keep the configuration they started with.
#[derive(Clone)]
pub struct VStore {
    inner: Arc<VStoreInner>,
}

impl std::fmt::Debug for VStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VStore")
            .field("store_dir", &self.inner.store.dir())
            .field("shards", &self.inner.store.shard_count())
            .field("epoch", &read_unpoisoned(&self.inner.active).epoch)
            .field("handles", &Arc::strong_count(&self.inner))
            .finish()
    }
}

impl VStore {
    /// Open a store rooted at `dir` (ignored by the in-memory backend).
    ///
    /// Validates `options.runtime` first: zeroed knobs are rejected with
    /// [`VStoreError::InvalidArgument`] instead of panicking deep inside the
    /// store.
    pub fn open(dir: impl AsRef<Path>, options: VStoreOptions) -> Result<VStore> {
        options.runtime.validate()?;
        let store = Arc::new(SegmentStore::open_with_options(
            dir,
            options.backend,
            options.runtime.shards,
        )?);
        Self::assemble(store, options)
    }

    /// Open a store in a fresh temporary directory (tests and examples).
    pub fn open_temp(tag: &str, options: VStoreOptions) -> Result<VStore> {
        Self::open(SegmentStore::temp_dir(tag), options)
    }

    /// Open a store over an externally constructed [`StorageBackend`]
    /// (`options.backend` is ignored). This is how a store is reopened on a
    /// backend that outlives the handle, and how custom backends plug in.
    pub fn open_with_backend(
        backend: Arc<dyn StorageBackend>,
        options: VStoreOptions,
    ) -> Result<VStore> {
        options.runtime.validate()?;
        let store = Arc::new(SegmentStore::open_with_backend(
            backend,
            options.runtime.shards,
        )?);
        Self::assemble(store, options)
    }

    fn assemble(store: Arc<SegmentStore>, options: VStoreOptions) -> Result<VStore> {
        options.trace.validate()?;
        let tracer = Tracer::new(options.trace);
        let runtime = options.runtime;
        let library = OperatorLibrary::paper_testbed();
        let coding = CodingCostModel::paper_testbed();
        let profiler = Arc::new(Profiler::new(library.clone(), coding, options.profiler));
        // One reader shared by ingest and query: queries read through its
        // view cache, and every ingest put / erosion delete invalidates it,
        // so a cached read can never observe stale frames.
        let reader = Arc::new(SegmentReader::new(
            Arc::clone(&store),
            runtime.cache_bytes,
            runtime.decoded_cache_entries,
        ));
        // The cold tier, when configured: a ColdStore (one object per
        // segment) on its own device, rooted under `<store dir>/cold-tier`
        // for the fs backend. Erosion demotes into it; cold read hits
        // promote back through the shared reader, epoch-invalidating the
        // view cache.
        let tier = match options.tier.cold_backend {
            Some(cold_options) => {
                let root = match store.dir() {
                    dir if dir == std::path::Path::new("<mem>") => {
                        SegmentStore::temp_dir("cold-tier")
                    }
                    dir => dir.join("cold-tier"),
                };
                let cold = ColdStore::open(cold_options.create(&root)?)?;
                let engine = TierEngine::new(Arc::clone(&store), cold, options.tier);
                reader.attach_tier(&engine);
                Some(engine)
            }
            None => None,
        };
        let ingest = Arc::new(
            IngestionPipeline::new(Arc::clone(&reader), Transcoder::new(coding))
                .with_workers(runtime.ingest_workers)
                .with_ingest_budget(options.engine.ingest_budget_cores),
        );
        let engine = ConfigurationEngine::new(Arc::clone(&profiler), options.engine);
        let queries = QueryEngine::new(Arc::clone(&reader), library, Transcoder::new(coding))
            .with_prefetch(runtime.query_prefetch);
        let handle = VStore {
            inner: Arc::new(VStoreInner {
                profiler,
                engine,
                store,
                reader,
                tier,
                ingest,
                queries,
                query_planner: runtime.query_planner,
                active: RwLock::new(ConfigSlot::default()),
                serving: RwLock::default(),
                live: RwLock::default(),
                net: RwLock::default(),
                tracer,
                metrics: MetricsRegistry::new(),
            }),
        };
        metrics::register_collectors(&handle);
        Ok(handle)
    }

    /// The profiler (exposed for experiments that report profiling cost).
    pub fn profiler(&self) -> &Profiler {
        &self.inner.profiler
    }

    /// The configuration engine.
    pub fn engine(&self) -> &ConfigurationEngine {
        &self.inner.engine
    }

    /// The segment store statistics (aggregated across shards).
    #[must_use]
    pub fn store_stats(&self) -> StoreStats {
        self.inner.store.stats()
    }

    /// Per-shard segment store statistics, in shard order.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<StoreStats> {
        self.inner.store.shard_stats()
    }

    /// Aggregate segment-cache statistics across every shard (all zeros
    /// when the cache is disabled).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.reader.cache_stats()
    }

    /// Per-shard segment-cache statistics, in shard order (empty when the
    /// cache is disabled).
    #[must_use]
    pub fn shard_cache_stats(&self) -> Vec<CacheStats> {
        self.inner.reader.shard_cache_stats()
    }

    /// Tiering statistics (`None` when no cold tier is configured).
    #[must_use]
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.inner.tier.as_ref().map(|tier| tier.stats())
    }

    /// Aggregate live-ingest statistics across every ingestor started with
    /// [`live_ingest`](Self::live_ingest) (`None` when none has been
    /// started). The same aggregate answers the serve wire's
    /// [`ServeRequest::LiveStats`] and shows as the `vstore_live_*` rows of
    /// [`metrics_snapshot`](Self::metrics_snapshot).
    #[must_use]
    pub fn live_stats(&self) -> Option<LiveStats> {
        write_unpoisoned(&self.inner.live).aggregate()
    }

    /// A snapshot of every registered metric family — store, cache, tier,
    /// profiler, tracer, plus the serving/network/live aggregates once
    /// those front ends exist. Its `Display` is the operator report, one
    /// `name{labels} value` line per row; render it for tools with
    /// [`MetricsSnapshot::to_prometheus`] or [`MetricsSnapshot::to_json`].
    /// The same snapshot travels over the serve wire
    /// ([`ServeRequest::MetricsSnapshot`]). Per-shard numbers come from
    /// [`shard_stats`](Self::shard_stats) and
    /// [`shard_cache_stats`](Self::shard_cache_stats).
    ///
    /// ```no_run
    /// # use vstore::{VStore, VStoreOptions};
    /// # let store = VStore::open_temp("report", VStoreOptions::default()).unwrap();
    /// println!("{}", store.metrics_snapshot());
    /// ```
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// The metrics registry, for registering deployment-specific
    /// collectors alongside the built-in ones.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The request tracer. Shared with every serve front end started from
    /// this store; [`Tracer::stats`] reports sampling behaviour.
    #[must_use]
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.inner.tracer)
    }

    /// Drain up to `max_traces` committed traces from the rings
    /// (`0` = all), most recent first per shard. The dump renders as
    /// Chrome trace-event JSON ([`TraceDump::to_chrome_json`]) or a
    /// human span-tree report ([`TraceDump::report`]).
    #[must_use]
    pub fn trace_dump(&self, max_traces: usize) -> TraceDump {
        self.inner.tracer.dump(max_traces)
    }

    /// The trace context for one facade-level request: the caller's
    /// installed context when one is active (a serve worker installed the
    /// trace begun at frame decode), else a fresh trace begun here — so
    /// direct `store.query(..)` calls trace too.
    fn request_trace(&self, root: &'static str) -> TraceContext {
        let current = vstore_obs::current();
        if current.is_active() {
            current
        } else {
            self.inner.tracer.begin(root)
        }
    }

    /// The root directory of the segment store (`<mem>` for the in-memory
    /// backend).
    pub fn store_dir(&self) -> std::path::PathBuf {
        self.inner.store.dir()
    }

    /// The active configuration, if one has been installed. The returned
    /// `Arc` is a stable snapshot: a concurrent
    /// [`configure`](Self::configure) swaps the slot but never mutates a
    /// configuration already handed out.
    pub fn configuration(&self) -> Option<Arc<Configuration>> {
        read_unpoisoned(&self.inner.active).config.clone()
    }

    /// The configuration epoch: 0 before any configuration is installed,
    /// then incremented by every [`configure`](Self::configure) /
    /// [`install_configuration`](Self::install_configuration).
    pub fn configuration_epoch(&self) -> u64 {
        read_unpoisoned(&self.inner.active).epoch
    }

    /// Derive (or re-derive) the video format configuration for a consumer
    /// set via backward derivation, and make it the active configuration.
    ///
    /// Derivation runs outside the configuration lock — concurrent requests
    /// keep serving the previous epoch until the atomic swap at the end.
    pub fn configure(&self, consumers: &[Consumer]) -> Result<Arc<Configuration>> {
        let config = self.inner.engine.derive(consumers)?;
        Ok(self.install_configuration(config))
    }

    /// Install an externally derived configuration (e.g. one of the §6.2
    /// baselines) as the active configuration, atomically advancing the
    /// epoch. Requests in flight keep the configuration they started with.
    pub fn install_configuration(&self, configuration: Configuration) -> Arc<Configuration> {
        let config = Arc::new(configuration);
        let mut slot = write_unpoisoned(&self.inner.active);
        slot.epoch += 1;
        slot.config = Some(Arc::clone(&config));
        config
    }

    /// Snapshot the active configuration for one request.
    fn active(&self) -> Result<Arc<Configuration>> {
        read_unpoisoned(&self.inner.active)
            .config
            .clone()
            .ok_or_else(|| {
                VStoreError::InvalidState("no configuration derived yet; call configure()".into())
            })
    }

    /// Ingest a contiguous range of 8-second segments of a stream into
    /// every storage format of the active configuration.
    pub fn ingest(&self, request: IngestRequest) -> Result<IngestReport> {
        request.validate()?;
        let config = self.active()?;
        let trace = self.request_trace("ingest");
        let _installed = vstore_obs::install(&trace);
        let _span = trace.span("ingest.execute");
        self.inner.ingest.ingest_segments(
            &request.source,
            request.first_segment,
            request.count,
            &config,
        )
    }

    /// Execute a query over stored segments of a stream. The query planner
    /// runs when the request asks for it ([`QueryRequest::with_planner`]) or,
    /// absent a per-request override, when the session's
    /// `RuntimeOptions::query_planner` default is on; otherwise the query is
    /// an exact scan.
    pub fn query(&self, request: QueryRequest) -> Result<QueryResult> {
        request.validate()?;
        let config = self.active()?;
        let plan = vstore_query::PlanOptions {
            enabled: request.planner.unwrap_or(self.inner.query_planner),
            skip_threshold: request.skip_threshold,
        };
        let trace = self.request_trace("query");
        let _installed = vstore_obs::install(&trace);
        let _span = trace.span("query.execute");
        self.inner.queries.execute_planned(
            &request.stream,
            &request.spec,
            &config,
            request.first_segment,
            request.count,
            &plan,
        )
    }

    /// Apply the erosion plan of the active configuration to a stream at a
    /// given video age. With no cold tier configured the planned fraction
    /// of segments is **deleted** (the pre-tiering behaviour); with one
    /// ([`VStoreOptions::with_cold_backend`]) it is **demoted** to cold
    /// storage instead and stays queryable. The report says which happened,
    /// in segments and bytes; the golden format is never touched.
    pub fn erode(&self, request: ErodeRequest) -> Result<ErodeReport> {
        request.validate()?;
        let config = self.active()?;
        let trace = self.request_trace("erode");
        let _installed = vstore_obs::install(&trace);
        let _span = trace.span("erode.execute");
        self.inner
            .ingest
            .apply_erosion(&request.stream, &config, request.age_days)
    }

    /// Start a connection-serving front end over this store: a bounded
    /// request queue with back-pressure (`Busy` or blocking, per
    /// [`ServeOptions`]) drained by a thread-per-core worker pool of cloned
    /// handles. The returned [`ServerHandle`] accepts client
    /// [`Connection`]s; its statistics show as the `vstore_serve_*` rows of
    /// [`metrics_snapshot`](Self::metrics_snapshot) for as long as the
    /// store lives.
    ///
    /// ```no_run
    /// # use vstore::{ServeOptions, ServeRequest, QuerySpec, VStore, VStoreOptions};
    /// # let store = VStore::open_temp("serve", VStoreOptions::default()).unwrap();
    /// let server = store.serve(ServeOptions::default()).unwrap();
    /// let mut client = server.connect();
    /// let response = client.call(ServeRequest::Query {
    ///     stream: "jackson".into(),
    ///     spec: QuerySpec::query_a(0.9),
    ///     first_segment: 0,
    ///     count: 4,
    /// }).unwrap();
    /// println!("{response:?}\n{}", store.metrics_snapshot());
    /// ```
    pub fn serve(&self, options: ServeOptions) -> Result<ServerHandle> {
        let server = vstore_serve::Server::start(self.clone(), options)?;
        write_unpoisoned(&self.inner.serving)
            .probes
            .push(server.probe());
        Ok(server)
    }

    /// Start a **socket** front end over this store: a TCP listener that
    /// serves each connection's pipelined frames (length-prefixed transport
    /// envelope, per-frame correlation ids) with a blocking reader thread
    /// and a blocking writer thread over the same bounded queue and worker
    /// pool as [`serve`](Self::serve); responses that have completed
    /// together leave in one write from a pooled buffer. Bind to port 0 to
    /// let the OS pick ([`NetServerHandle::local_addr`]).
    ///
    /// Both layers show in [`metrics_snapshot`](Self::metrics_snapshot):
    /// the request-layer [`ServeStats`] as the `vstore_serve_*` rows
    /// alongside in-process servers, and the network-layer [`NetStats`]
    /// (connections, frames, batch sizes, write syscalls, buffer-pool
    /// hits and misses) as the `vstore_net_*` rows.
    ///
    /// ```no_run
    /// # use vstore::{NetClient, NetOptions, ServeOptions, ServeRequest, VStore, VStoreOptions};
    /// # let store = VStore::open_temp("serve-net", VStoreOptions::default()).unwrap();
    /// let server = store
    ///     .serve_net("127.0.0.1:0", NetOptions::default(), ServeOptions::default())
    ///     .unwrap();
    /// let mut client = NetClient::connect(server.local_addr()).unwrap();
    /// let response = client.call(&ServeRequest::LiveStats).unwrap();
    /// println!("{response:?}\n{}", store.metrics_snapshot());
    /// ```
    pub fn serve_net(
        &self,
        addr: impl std::net::ToSocketAddrs,
        net: NetOptions,
        serve: ServeOptions,
    ) -> Result<NetServerHandle> {
        let server = NetServer::start(self.clone(), addr, net, serve)?;
        write_unpoisoned(&self.inner.serving)
            .probes
            .push(server.serve_probe());
        write_unpoisoned(&self.inner.net)
            .probes
            .push(server.probe());
        Ok(server)
    }

    /// Start a live ingestor for `source` under the active configuration: a
    /// bounded, back-pressured queue of camera segments drained by
    /// background transcode workers through the shared ingestion pipeline.
    ///
    /// When transcoding cannot keep up, the ingestor **degrades instead of
    /// stalling**: a lag controller steps fidelity/coverage down a declared
    /// [`DegradationLadder`] (coarser frame sampling on non-golden formats,
    /// then golden-only) as the backlog grows, and steps back up as it
    /// drains. Offers beyond the queue depth are shed
    /// ([`QueueFullPolicy::Reject`]) or block the caller
    /// ([`QueueFullPolicy::Block`]), per [`LiveIngestOptions::on_full`] —
    /// the store itself never stalls. The ingestor's [`LiveStats`] show as
    /// the `vstore_live_*` rows of [`metrics_snapshot`](Self::metrics_snapshot)
    /// for as long as the store lives; dropping (or [`shutdown`](LiveIngestHandle::shutdown)-ing)
    /// the handle drains every accepted segment first.
    ///
    /// The ladder is built from the configuration active **now**; a later
    /// [`configure`](Self::configure) does not retroactively change a
    /// running ingestor.
    ///
    /// ```no_run
    /// # use vstore::{LiveIngestOptions, QuerySpec, VStore, VStoreOptions};
    /// # use vstore::datasets::{Dataset, LiveSource, LoadProfile, VideoSource};
    /// # let store = VStore::open_temp("live", VStoreOptions::default()).unwrap();
    /// # store.configure(&QuerySpec::query_a(0.9).consumers()).unwrap();
    /// let mut camera = LiveSource::new(
    ///     VideoSource::new(Dataset::Jackson),
    ///     LoadProfile::Steady { segments_per_sec: 0.5 },
    /// ).unwrap();
    /// let live = store.live_ingest(
    ///     camera.source().clone(),
    ///     LiveIngestOptions::default(),
    /// ).unwrap();
    /// live.offer_range(camera.poll(8.0)).unwrap();
    /// live.shutdown();
    /// let report = store.metrics_snapshot().to_string();
    /// for line in report.lines().filter(|l| l.starts_with("vstore_live_")) {
    ///     println!("{line}");
    /// }
    /// ```
    pub fn live_ingest(
        &self,
        source: datasets::VideoSource,
        options: LiveIngestOptions,
    ) -> Result<LiveIngestHandle> {
        let config = self.active()?;
        let handle = LiveIngestor::start(Arc::clone(&self.inner.ingest), source, &config, options)?;
        write_unpoisoned(&self.inner.live)
            .probes
            .push(handle.probe());
        Ok(handle)
    }
}

/// The serving front end drives `VStore` through this impl: each wire
/// request is rebuilt into the corresponding validating request builder, so
/// a request served through [`VStore::serve`] takes exactly the same path —
/// validation included — as one issued directly on the handle.
impl VideoService for VStore {
    fn ingest(
        &self,
        source: &datasets::VideoSource,
        first_segment: u64,
        count: u64,
    ) -> Result<IngestReport> {
        VStore::ingest(
            self,
            IngestRequest::new(source)
                .starting_at(first_segment)
                .segments(count),
        )
    }

    fn query(
        &self,
        stream: &str,
        spec: &QuerySpec,
        first_segment: u64,
        count: u64,
    ) -> Result<QueryResult> {
        VStore::query(
            self,
            QueryRequest::new(stream, spec)
                .starting_at(first_segment)
                .segments(count),
        )
    }

    fn erode(&self, stream: &str, age_days: u32) -> Result<ErodeReport> {
        VStore::erode(self, ErodeRequest::new(stream).at_age_days(age_days))
    }

    fn live_stats(&self) -> Result<LiveStats> {
        Ok(VStore::live_stats(self).unwrap_or_default())
    }

    fn metrics(&self) -> Result<MetricsSnapshot> {
        Ok(self.metrics_snapshot())
    }

    fn trace_dump(&self, max_traces: u64) -> Result<TraceDump> {
        Ok(VStore::trace_dump(
            self,
            usize::try_from(max_traces).unwrap_or(usize::MAX),
        ))
    }

    fn tracer(&self) -> Arc<Tracer> {
        VStore::tracer(self)
    }
}

#[cfg(test)]
mod tests {
    #![expect(clippy::disallowed_methods, reason = "removes its scratch stores")]
    use super::*;
    use vstore_datasets::{Dataset, VideoSource};

    /// The service-handle contract of this redesign, checked at compile
    /// time.
    #[test]
    fn handle_is_clone_send_sync() {
        fn assert_service_handle<T: Clone + Send + Sync + 'static>() {}
        assert_service_handle::<VStore>();
    }

    #[test]
    fn facade_lifecycle() {
        let store = VStore::open_temp("facade", VStoreOptions::fast()).unwrap();
        assert!(store.configuration().is_none());
        assert_eq!(store.configuration_epoch(), 0);
        let source = VideoSource::new(Dataset::Jackson);
        assert!(store.ingest(IngestRequest::new(&source)).is_err());

        let query = QuerySpec::query_a(0.8);
        store.configure(&query.consumers()).unwrap();
        assert!(store.configuration().is_some());
        assert_eq!(store.configuration_epoch(), 1);

        let report = store.ingest(IngestRequest::new(&source)).unwrap();
        assert!(report.segments_written >= 1);
        assert!(store.store_stats().live_segments >= 1);

        let result = store.query(QueryRequest::new("jackson", &query)).unwrap();
        assert!(result.speed.factor() > 0.0);
        std::fs::remove_dir_all(store.store_dir()).ok();
    }

    #[test]
    fn open_rejects_zeroed_runtime_knobs() {
        let options = VStoreOptions::fast().with_runtime(RuntimeOptions {
            shards: 0,
            ingest_workers: 1,
            query_prefetch: 1,
            ..RuntimeOptions::sequential()
        });
        let err = VStore::open_temp("zero-shards", options).unwrap_err();
        assert!(matches!(err, VStoreError::InvalidArgument(_)), "{err}");

        let options = VStoreOptions::fast().with_runtime(RuntimeOptions {
            shards: 1,
            ingest_workers: 1,
            query_prefetch: 0,
            ..RuntimeOptions::sequential()
        });
        let err = VStore::open_temp("zero-prefetch", options).unwrap_err();
        assert!(matches!(err, VStoreError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn invalid_requests_are_rejected_before_the_runtime() {
        let store = VStore::open_temp(
            "bad-requests",
            VStoreOptions::fast().with_backend(BackendOptions::Mem),
        )
        .unwrap();
        let query = QuerySpec::query_a(0.8);
        // Even with no configuration installed, validation fires first.
        let source = VideoSource::new(Dataset::Jackson);
        let err = store
            .ingest(IngestRequest::new(&source).segments(0))
            .unwrap_err();
        assert!(matches!(err, VStoreError::InvalidArgument(_)), "{err}");
        let err = store.query(QueryRequest::new("", &query)).unwrap_err();
        assert!(matches!(err, VStoreError::InvalidArgument(_)), "{err}");
        let err = store.erode(ErodeRequest::new("")).unwrap_err();
        assert!(matches!(err, VStoreError::InvalidArgument(_)), "{err}");
    }

    /// The empty and saturated cases of the operator report: an empty
    /// store's snapshot renders zero rates and no NaN; rows of saturated
    /// counters render in full, without overflowing.
    #[test]
    fn stats_report_renders_zero_rates_on_an_empty_store_and_survives_saturation() {
        let store = VStore::open_temp(
            "empty-report",
            VStoreOptions::fast()
                .with_backend(BackendOptions::Mem)
                .with_cache(64 << 20, 16),
        )
        .unwrap();
        let snapshot = store.metrics_snapshot();
        let rendered = snapshot.to_string();
        assert_eq!(rendered.lines().count(), snapshot.metrics.len());
        assert!(!rendered.contains("NaN"), "{rendered}");
        for line in [
            "vstore_store_live_bytes 0",
            "vstore_store_disk_bytes 0",
            "vstore_cache_decoded_hits_total 0",
            "vstore_cache_decoded_misses_total 0",
        ] {
            assert!(rendered.lines().any(|l| l == line), "{line} in\n{rendered}");
        }
        assert!(!rendered.contains("vstore_serve_"), "no server started yet");
        assert_eq!(store.cache_stats().decoded_hit_rate(), 0.0);
        assert_eq!(store.store_stats().garbage_ratio(), 0.0);

        // Saturated counters: the rows and the rates derived from them
        // saturate instead of panicking in debug builds.
        let mut stats = store.store_stats();
        stats.live_bytes = u64::MAX;
        stats.disk_bytes = u64::MAX;
        stats.writes = u64::MAX;
        let mut cache = store.cache_stats();
        cache.decoded_hits = u64::MAX;
        cache.decoded_misses = u64::MAX;
        let serve = ServeStats {
            submitted: u64::MAX,
            rejected_busy: u64::MAX,
            ..ServeStats::default()
        };
        let mut metrics = Vec::new();
        metrics::collect_store(&stats, &mut metrics);
        metrics::collect_cache(&cache, &mut metrics);
        serve.collect_metrics(&mut metrics);
        let rendered = MetricsSnapshot { metrics }.to_string();
        assert!(
            !rendered.contains("NaN") && !rendered.contains(" inf"),
            "{rendered}"
        );
        for line in [
            "vstore_store_writes_total 18446744073709551615",
            "vstore_cache_decoded_hits_total 18446744073709551615",
            "vstore_serve_submitted_total 18446744073709551615",
            "vstore_serve_rejected_busy_total 18446744073709551615",
        ] {
            assert!(rendered.lines().any(|l| l == line), "{line} in\n{rendered}");
        }
        let hit_rate = cache.decoded_hit_rate();
        assert!(hit_rate > 0.0 && hit_rate <= 1.0, "{hit_rate}");
        assert!(stats.garbage_ratio().is_finite());
        std::fs::remove_dir_all(store.store_dir()).ok();
    }

    /// The serving front end smoke test: serve a query through the bounded
    /// queue and see the `vstore_serve_*` rows appear in the snapshot.
    #[test]
    fn serve_front_end_answers_requests_and_reports_into_stats() {
        let store = VStore::open_temp(
            "serve-smoke",
            VStoreOptions::fast().with_backend(BackendOptions::Mem),
        )
        .unwrap();
        let query = QuerySpec::query_a(0.8);
        store.configure(&query.consumers()).unwrap();
        let source = VideoSource::new(Dataset::Jackson);
        store
            .ingest(IngestRequest::new(&source).segments(2))
            .unwrap();

        let server = store
            .serve(ServeOptions::default().with_workers(2).with_queue_depth(8))
            .unwrap();
        let mut client = server.connect();
        let direct = store
            .query(QueryRequest::new("jackson", &query).segments(2))
            .unwrap();
        let served = client
            .call(ServeRequest::Query {
                stream: "jackson".into(),
                spec: query.clone(),
                first_segment: 0,
                count: 2,
            })
            .unwrap();
        assert_eq!(served, ServeResponse::Query(direct));

        let snapshot = store.metrics_snapshot();
        assert_eq!(snapshot.value("vstore_serve_completed_total"), Some(1.0));
        assert_eq!(
            snapshot.value("vstore_serve_latency_us{kind=\"query\"}"),
            Some(1.0)
        );
        assert_eq!(snapshot.value("vstore_serve_workers"), Some(2.0));
        drop(server);
        // A shut-down server is retired: its request history stays in the
        // snapshot, but it no longer contributes provisioned capacity, and
        // repeated snapshots don't re-count it.
        let retired = store.metrics_snapshot();
        assert_eq!(retired.value("vstore_serve_completed_total"), Some(1.0));
        assert_eq!(retired.value("vstore_serve_workers"), Some(0.0));
        assert_eq!(retired.value("vstore_serve_queue_capacity"), Some(0.0));
        assert_eq!(store.metrics_snapshot(), retired);
        std::fs::remove_dir_all(store.store_dir()).ok();
    }

    /// One `ProbeRegistry` backs all three front-end kinds: two of each,
    /// started and shut down, leave their summed history in the snapshot
    /// with zeroed capacity, and the probe lists do not grow.
    #[test]
    fn shut_down_front_ends_of_every_kind_retire_into_summed_history() {
        let store = VStore::open_temp(
            "registry",
            VStoreOptions::fast().with_backend(BackendOptions::Mem),
        )
        .unwrap();
        store
            .configure(&QuerySpec::query_a(0.8).consumers())
            .unwrap();
        let fresh = store.metrics_snapshot();
        for family in [
            "vstore_serve_workers",
            "vstore_net_accepted_total",
            "vstore_live_workers",
        ] {
            assert!(fresh.get(family).is_none(), "{family} before any front end");
        }

        let source = VideoSource::new(Dataset::Jackson);
        for round in 0..2u64 {
            let server = store
                .serve(ServeOptions::default().with_workers(2))
                .unwrap();
            server.connect().call(ServeRequest::LiveStats).unwrap();
            let net = store
                .serve_net(
                    "127.0.0.1:0",
                    NetOptions::default(),
                    ServeOptions::default().with_workers(1),
                )
                .unwrap();
            let mut client = NetClient::connect(net.local_addr()).unwrap();
            client.call(&ServeRequest::LiveStats).unwrap();
            let live = store
                .live_ingest(source.clone(), LiveIngestOptions::default())
                .unwrap();
            live.offer_range(round..round + 1).unwrap();

            // While up, each front end contributes its capacity and holds
            // exactly one probe (the socket front end also a serve probe).
            let up = store.metrics_snapshot();
            assert_eq!(up.value("vstore_serve_workers"), Some(3.0));
            assert_eq!(up.value("vstore_net_active_connections"), Some(1.0));
            assert!(up.value("vstore_live_workers") >= Some(1.0));
            assert_eq!(read_unpoisoned(&store.inner.serving).probes.len(), 2);
            assert_eq!(read_unpoisoned(&store.inner.net).probes.len(), 1);
            assert_eq!(read_unpoisoned(&store.inner.live).probes.len(), 1);

            server.shutdown();
            net.shutdown();
            live.shutdown();
        }

        let snapshot = store.metrics_snapshot();
        let rows = |keys: &[&str]| -> Vec<Option<f64>> {
            keys.iter().map(|key| snapshot.value(key)).collect()
        };
        assert_eq!(
            snapshot.value("vstore_serve_completed_total"),
            Some(4.0),
            "two in-process + two socket pings"
        );
        assert_eq!(
            snapshot.value("vstore_serve_latency_us{kind=\"live-stats\"}"),
            Some(4.0)
        );
        assert_eq!(
            rows(&[
                "vstore_serve_workers",
                "vstore_serve_queue_capacity",
                "vstore_serve_queue_depth"
            ]),
            [Some(0.0); 3]
        );
        assert_eq!(
            rows(&[
                "vstore_net_accepted_total",
                "vstore_net_frames_in_total",
                "vstore_net_frames_out_total"
            ]),
            [Some(2.0); 3]
        );
        assert_eq!(snapshot.value("vstore_net_active_connections"), Some(0.0));
        assert_eq!(
            rows(&["vstore_live_accepted_total", "vstore_live_completed_total"]),
            [Some(2.0); 2]
        );
        assert_eq!(
            rows(&[
                "vstore_live_workers",
                "vstore_live_queue_capacity",
                "vstore_live_queue_depth",
                "vstore_live_current_level"
            ]),
            [Some(0.0); 4]
        );
        // Every probe was folded into `retired` exactly once.
        assert!(read_unpoisoned(&store.inner.serving).probes.is_empty());
        assert!(read_unpoisoned(&store.inner.net).probes.is_empty());
        assert!(read_unpoisoned(&store.inner.live).probes.is_empty());
        assert_eq!(store.metrics_snapshot(), snapshot);
    }

    #[test]
    fn cloned_handles_share_state_and_epochs_advance() {
        let store = VStore::open_temp(
            "clone-share",
            VStoreOptions::fast().with_backend(BackendOptions::Mem),
        )
        .unwrap();
        let clone = store.clone();
        let query = QuerySpec::query_a(0.8);
        let config = store.configure(&query.consumers()).unwrap();
        // The clone sees the configuration installed through the original.
        assert_eq!(clone.configuration_epoch(), 1);
        assert_eq!(clone.configuration().as_deref(), Some(&*config));

        let source = VideoSource::new(Dataset::Jackson);
        clone.ingest(IngestRequest::new(&source)).unwrap();
        assert_eq!(
            store.store_stats().live_segments,
            clone.store_stats().live_segments
        );

        // Reinstalling advances the epoch on every handle.
        clone.install_configuration((*config).clone());
        assert_eq!(store.configuration_epoch(), 2);
    }
}
