//! Canonical series names for every metric the DSI pipeline emits.
//!
//! Instrumented crates and the [`crate::report::PipelineReport`] share
//! these constants so the catalog in `DESIGN.md` stays the single source
//! of truth. Suffix conventions follow Prometheus: `_total` for
//! counters, `_seconds`/`_bytes` units, bare names for gauges. A `job`
//! label is the id of the session the series was written by or for
//! (`sess<N>`); a writer outside any session leaves it off.

// ---- scribe: message bus + streaming ETL ----------------------------------

/// Counter, labels `{topic}`: messages published to the bus.
pub const SCRIBE_PUBLISHED_TOTAL: &str = "dsi_scribe_published_total";
/// Gauge, labels `{topic}`: messages retained in the bus log (backlog).
pub const SCRIBE_BUS_BACKLOG: &str = "dsi_scribe_bus_backlog";
/// Counter: feature/event pairs joined by the streaming ETL.
pub const ETL_JOINED_TOTAL: &str = "dsi_etl_joined_total";
/// Counter: events arriving with no pending feature row.
pub const ETL_ORPHAN_EVENTS_TOTAL: &str = "dsi_etl_orphan_events_total";
/// Counter: feature rows expired into negative samples.
pub const ETL_EXPIRED_NEGATIVE_TOTAL: &str = "dsi_etl_expired_negative_total";
/// Gauge: feature rows currently waiting in the join window.
pub const ETL_PENDING_JOINS: &str = "dsi_etl_pending_joins";
/// Histogram (seconds): feature→event arrival lag of successful joins.
pub const ETL_JOIN_LAG_SECONDS: &str = "dsi_etl_join_lag_seconds";

// ---- tectonic: distributed FS + SSD cache ---------------------------------

/// Counter: SSD-cache page hits.
pub const CACHE_HITS_TOTAL: &str = "dsi_cache_hits_total";
/// Counter: SSD-cache page misses.
pub const CACHE_MISSES_TOTAL: &str = "dsi_cache_misses_total";
/// Counter: SSD-cache evictions.
pub const CACHE_EVICTIONS_TOTAL: &str = "dsi_cache_evictions_total";
/// Gauge in `[0,1]`: cache hit rate since start.
pub const CACHE_HIT_RATE: &str = "dsi_cache_hit_rate";
/// Gauge: pages resident in the SSD cache.
pub const CACHE_RESIDENT_PAGES: &str = "dsi_cache_resident_pages";
/// Counter, labels `{node}`: I/O operations served per storage node.
pub const STORAGE_NODE_IOS_TOTAL: &str = "dsi_storage_node_ios_total";
/// Counter, labels `{node}`: bytes served per storage node.
pub const STORAGE_NODE_BYTES_TOTAL: &str = "dsi_storage_node_bytes_total";
/// Counter: per-page checksum verification failures detected on reads.
pub const TECTONIC_CHECKSUM_FAILURES_TOTAL: &str = "dsi_tectonic_checksum_failures_total";
/// Counter: bad replicas repaired in place after a verified read.
pub const TECTONIC_READ_REPAIRS_TOTAL: &str = "dsi_tectonic_read_repairs_total";
/// Counter: reads served by a non-first-choice replica.
pub const TECTONIC_FAILOVERS_TOTAL: &str = "dsi_tectonic_read_failovers_total";
/// Counter: chunks re-replicated by the rebuild worker.
pub const TECTONIC_REBUILT_CHUNKS_TOTAL: &str = "dsi_tectonic_rebuilt_chunks_total";
/// Counter: disk IOs charged to rebuild traffic (reads + writes).
pub const TECTONIC_REBUILD_IOS_TOTAL: &str = "dsi_tectonic_rebuild_ios_total";
/// Gauge: nodes currently declared dead by the heartbeat detector.
pub const TECTONIC_DEAD_NODES: &str = "dsi_tectonic_dead_nodes";
/// Gauge: chunks currently below their target live replica count.
pub const TECTONIC_UNDER_REPLICATED_CHUNKS: &str = "dsi_tectonic_under_replicated_chunks";

// ---- dwrf: columnar format reader -----------------------------------------

/// Counter, labels `{job}`: stripes decoded by DWRF readers.
pub const DWRF_STRIPES_DECODED_TOTAL: &str = "dsi_dwrf_stripes_decoded_total";
/// Counter, labels `{job}`: bytes physically read (after coalescing over-read).
pub const DWRF_READ_BYTES_TOTAL: &str = "dsi_dwrf_read_bytes_total";
/// Counter, labels `{job}`: bytes actually wanted by the projected columns.
pub const DWRF_WANTED_BYTES_TOTAL: &str = "dsi_dwrf_wanted_bytes_total";

// ---- dpp: master / workers / clients --------------------------------------

/// Gauge, labels `{job}`: splits waiting in the master queue.
pub const MASTER_QUEUE_DEPTH: &str = "dsi_master_queue_depth";
/// Counter, labels `{job}`: splits enqueued over the session.
pub const MASTER_SPLITS_TOTAL: &str = "dsi_master_splits_total";
/// Counter, labels `{job}`: splits completed by workers.
pub const MASTER_SPLITS_COMPLETED_TOTAL: &str = "dsi_master_splits_completed_total";
/// Counter, labels `{job}`: master checkpoints taken.
pub const MASTER_CHECKPOINTS_TOTAL: &str = "dsi_master_checkpoints_total";
/// Gauge, labels `{job}`: workers currently registered with the master.
pub const MASTER_WORKERS: &str = "dsi_master_workers";
/// Counter, labels `{job}`: samples produced by DPP workers.
pub const WORKER_SAMPLES_TOTAL: &str = "dsi_worker_samples_total";
/// Counter, labels `{job}`: batches produced by DPP workers.
pub const WORKER_BATCHES_TOTAL: &str = "dsi_worker_batches_total";
/// Counter, labels `{job}`: compressed bytes received from storage by workers.
pub const WORKER_STORAGE_RX_BYTES_TOTAL: &str = "dsi_worker_storage_rx_bytes_total";
/// Counter, labels `{job}`: bytes the workers' column projection actually wanted.
pub const WORKER_STORAGE_WANTED_BYTES_TOTAL: &str = "dsi_worker_storage_wanted_bytes_total";
/// Counter, labels `{job}`: memory-bandwidth bytes moved during preprocessing.
pub const WORKER_MEMBW_BYTES_TOTAL: &str = "dsi_worker_membw_bytes_total";
/// Histogram (seconds), labels `{job}`: trainer-client batch fetch latency.
pub const CLIENT_FETCH_SECONDS: &str = "dsi_client_fetch_seconds";
/// Counter, labels `{job}`: client polls that returned no batch (fan-out starvation).
pub const CLIENT_STARVED_POLLS_TOTAL: &str = "dsi_client_starved_polls_total";
/// Counter, labels `{job}`: batches accepted by clients.
pub const CLIENT_BATCHES_TOTAL: &str = "dsi_client_batches_total";

// ---- dedup: RecD-style deduplication --------------------------------------

/// Counter: DedupSets formed (canonical payloads kept) across storage
/// writes and worker transforms.
pub const DEDUP_SETS_TOTAL: &str = "dsi_dedup_sets_total";
/// Counter: logical rows covered by DedupSets.
pub const DEDUP_ROWS_TOTAL: &str = "dsi_dedup_rows_total";
/// Counter: storage bytes duplicate rows did not re-store.
pub const DEDUP_BYTES_SAVED_TOTAL: &str = "dsi_dedup_bytes_saved_total";
/// Counter, labels `{job}`: transform op applications replaced by canonical-result fan-out.
pub const DEDUP_TRANSFORM_REUSE_HITS_TOTAL: &str = "dsi_dedup_transform_reuse_hits_total";
/// Gauge: observed logical rows per canonical payload (1.0 = no duplication).
pub const DEDUP_RATIO: &str = "dsi_dedup_ratio";

// ---- fastpath: zero-copy decode + pipelined prefetch -----------------------

/// Counter, labels `{job}`: bytes physically memcpy'd on the storage→decode path
/// (zero-copy slicing and in-place decode work are not counted).
pub const FASTPATH_BYTES_COPIED_TOTAL: &str = "dsi_fastpath_bytes_copied_total";
/// Gauge, labels `{job}`: splits the fetch thread has read ahead of the one the
/// worker thread just took. A worker's first split is fetched on the
/// worker thread itself, before the fetch thread starts, so it is not sampled.
pub const FASTPATH_PREFETCH_DEPTH: &str = "dsi_fastpath_prefetch_depth";
/// Counter, labels `{job}`: splits the fetch thread decoded itself because its
/// hand-off to the worker thread was full (a decode that failed counts too).
pub const FASTPATH_FETCH_DECODED_SPLITS_TOTAL: &str = "dsi_fastpath_fetch_decoded_splits_total";
/// Histogram (seconds), labels `{job}`: how long each prefetched split sat ready
/// (read, and decoded if the fetch thread decoded it) before the worker thread
/// took it (work overlapped by the worker pipeline's two threads).
pub const FASTPATH_STAGE_OVERLAP_SECONDS: &str = "dsi_fastpath_stage_overlap_seconds";

// ---- wire: framed TCP data plane -------------------------------------------

/// Counter, labels `{job}`: data frames written to the wire by worker-side senders
/// (replays after a reconnect count again — they are re-sent bytes).
pub const WIRE_FRAMES_TOTAL: &str = "dsi_wire_frames_total";
/// Counter, labels `{job}`: serialized envelope payload bytes before compression and
/// encryption (the logical tensor volume crossing the boundary).
pub const WIRE_PAYLOAD_BYTES_TOTAL: &str = "dsi_wire_payload_bytes_total";
/// Counter, labels `{job}`: bytes actually written to the socket (frame headers plus the
/// post-compression, post-encryption payload).
pub const WIRE_TX_BYTES_TOTAL: &str = "dsi_wire_tx_bytes_total";
/// Counter (nanoseconds), labels `{job}`: time spent serializing envelopes into frames.
pub const WIRE_SERIALIZE_NANOS_TOTAL: &str = "dsi_wire_serialize_nanos_total";
/// Counter (nanoseconds), labels `{job}`: time spent in the stream cipher, both encrypting
/// on send and decrypting on receive (the TLS stand-in).
pub const WIRE_ENCRYPT_NANOS_TOTAL: &str = "dsi_wire_encrypt_nanos_total";
/// Counter (nanoseconds), labels `{job}`: time spent checksum-verifying, decompressing,
/// and deserializing received frames back into envelopes.
pub const WIRE_DESERIALIZE_NANOS_TOTAL: &str = "dsi_wire_deserialize_nanos_total";
/// Counter (nanoseconds), labels `{job}`: time spent compressing payloads on send and
/// never mixed into [`WIRE_SERIALIZE_NANOS_TOTAL`].
pub const WIRE_COMPRESS_NANOS_TOTAL: &str = "dsi_wire_compress_nanos_total";
/// Counter, labels `{job}`: client-side reconnects to a worker's wire server (each one
/// triggers a replay of that worker's unacked envelopes).
pub const WIRE_RECONNECTS_TOTAL: &str = "dsi_wire_reconnects_total";
/// Counter (nanoseconds), labels `{job, op}`: wall time spent in each columnar
/// transform kernel (`op` is the kernel name, e.g. `sigrid_hash`) when the
/// load stage routes eligible ops over materialized tensors.
pub const TRANSFORM_KERNEL_NANOS_TOTAL: &str = "dsi_transform_kernel_nanos_total";

// ---- chaos: deterministic fault injection ----------------------------------

/// Counter, labels `{fault}`: faults injected by the chaos harness, by
/// stable fault-kind label (`io_error`, `worker_crash`, ...).
pub const CHAOS_INJECTED_TOTAL: &str = "dsi_chaos_injected_total";
/// Gauge, labels `{hook}`: operations observed at each chaos hook point
/// (the injector's virtual clock).
pub const CHAOS_HOOK_OPS: &str = "dsi_chaos_hook_ops";

// ---- fleet: multi-tenant reconciler control plane --------------------------

/// Gauge, labels `{job, tenant}`: live (non-draining) workers currently
/// assigned to a job by the fleet reconciler.
pub const FLEET_ALLOCATED_WORKERS: &str = "dsi_fleet_allocated_workers";
/// Gauge, labels `{job, tenant}`: the job's fair-share worker target from
/// the latest reconcile tick.
pub const FLEET_DESIRED_WORKERS: &str = "dsi_fleet_desired_workers";
/// Gauge, labels `{job, tenant}`: workers short of the job's full demand
/// (`max_workers`) under the current allocation — the fleet's contention
/// signal.
pub const FLEET_FAIR_SHARE_DEFICIT: &str = "dsi_fleet_fair_share_deficit";
/// Counter, labels `{job, tenant}`: workers taken from this job to serve
/// a strictly higher-priority tenant.
pub const FLEET_PREEMPTIONS_TOTAL: &str = "dsi_fleet_preemptions_total";
/// Counter, labels `{action}`: reconcile actions executed, by stable kind
/// label (`spawn`, `drain`, `preempt`, `reassign`).
pub const FLEET_ACTIONS_TOTAL: &str = "dsi_fleet_actions_total";
/// Histogram (seconds): wall time of each reconcile tick (observe → plan
/// → execute → publish).
pub const FLEET_RECONCILE_SECONDS: &str = "dsi_fleet_reconcile_seconds";
/// Gauge: jobs currently registered with the fleet control plane.
pub const FLEET_JOBS: &str = "dsi_fleet_jobs";

// ---- trainer ---------------------------------------------------------------

/// Gauge in `[0,1]`, labels `{job}`: fraction of trainer wall time spent data-stalled.
pub const TRAINER_STALL_FRACTION: &str = "dsi_trainer_stall_fraction";
/// Counter, labels `{job}`: batches consumed by the trainer.
pub const TRAINER_BATCHES_TOTAL: &str = "dsi_trainer_batches_total";
/// Counter, labels `{job}`: samples consumed by the trainer.
pub const TRAINER_SAMPLES_TOTAL: &str = "dsi_trainer_samples_total";
/// Gauge (seconds, accumulating), labels `{job}`: trainer time spent waiting on data.
pub const TRAINER_STALLED_SECONDS: &str = "dsi_trainer_stalled_seconds";
/// Gauge (seconds, accumulating), labels `{job}`: trainer wall time observed.
pub const TRAINER_ELAPSED_SECONDS: &str = "dsi_trainer_elapsed_seconds";
