//! An SSD-backed byte-range cache in front of the HDD cluster.
//!
//! §VII: training jobs for a model collectively favor popular bytes
//! (Fig. 7 — ~40% of bytes absorb 80% of traffic), so "a system that
//! places popular features on an SSD-based cache" can serve most IOPS from
//! flash while HDDs provide capacity. This module implements that system:
//! a page-granular LRU cache whose hits are charged to a simulated SSD and
//! whose misses fall through to the HDD cluster (and fill the cache).

use crate::block::hash_path;
use crate::cluster::TectonicCluster;
use dsi_types::{ByteSize, Result};
use dwrf::SourceChunk;
use hwsim::{DeviceStats, DiskModel, IoRequest};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache page size: 64 KiB.
pub const PAGE_SIZE: u64 = 64 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PageKey {
    file: u64,
    page: u64,
}

#[derive(Debug)]
struct PageEntry {
    /// Offset of this page's copy on the SSD's address space.
    ssd_offset: u64,
    last_used: u64,
}

/// Cumulative cache telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Page lookups that hit.
    pub hits: u64,
    /// Page lookups that missed.
    pub misses: u64,
    /// Pages evicted.
    pub evictions: u64,
    /// SSD device statistics.
    pub ssd: DeviceStats,
}

impl CacheStats {
    /// Hit fraction of all lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CacheInner {
    ssd: DiskModel,
    pages: HashMap<PageKey, PageEntry>,
    capacity_pages: usize,
    clockhand: u64,
    next_ssd_offset: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A shared SSD cache over page-granular byte ranges.
#[derive(Clone)]
pub struct SsdCache {
    inner: Arc<Mutex<CacheInner>>,
}

impl std::fmt::Debug for SsdCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SsdCache")
            .field("pages", &inner.pages.len())
            .field("capacity_pages", &inner.capacity_pages)
            .finish()
    }
}

impl SsdCache {
    /// Creates a cache of the given byte capacity on a simulated SSD.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is smaller than one page.
    pub fn new(capacity: ByteSize) -> Self {
        assert!(
            capacity.bytes() >= PAGE_SIZE,
            "cache must hold at least one page"
        );
        Self {
            inner: Arc::new(Mutex::new(CacheInner {
                ssd: DiskModel::ssd(),
                pages: HashMap::new(),
                capacity_pages: (capacity.bytes() / PAGE_SIZE) as usize,
                clockhand: 0,
                next_ssd_offset: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            })),
        }
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            ssd: inner.ssd.stats(),
        }
    }

    /// Publishes cache telemetry into `registry`: hit/miss/eviction
    /// counters, the `[0,1]` hit-rate gauge, and resident pages.
    pub fn publish_metrics(&self, registry: &dsi_obs::Registry) {
        use dsi_obs::names;
        let stats = self.stats();
        registry
            .counter(names::CACHE_HITS_TOTAL, &[])
            .advance_to(stats.hits);
        registry
            .counter(names::CACHE_MISSES_TOTAL, &[])
            .advance_to(stats.misses);
        registry
            .counter(names::CACHE_EVICTIONS_TOTAL, &[])
            .advance_to(stats.evictions);
        registry
            .gauge(names::CACHE_HIT_RATE, &[])
            .set(stats.hit_rate());
        registry
            .gauge(names::CACHE_RESIDENT_PAGES, &[])
            .set(self.len() as f64);
    }

    /// Resident pages.
    pub fn len(&self) -> usize {
        self.inner.lock().pages.len()
    }

    /// Whether the cache holds no pages.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().pages.is_empty()
    }

    /// Looks up one page; on hit, charges an SSD read and returns true.
    fn touch_page(&self, key: PageKey) -> bool {
        let mut inner = self.inner.lock();
        inner.clockhand += 1;
        let now = inner.clockhand;
        if let Some(entry) = inner.pages.get_mut(&key) {
            entry.last_used = now;
            let off = entry.ssd_offset;
            inner.ssd.serve(IoRequest::new(off, PAGE_SIZE));
            inner.hits += 1;
            true
        } else {
            inner.misses += 1;
            false
        }
    }

    /// Inserts a page after a miss, evicting the least-recently-used page
    /// when full. Charges an SSD write-sized access.
    fn fill_page(&self, key: PageKey) {
        let mut inner = self.inner.lock();
        if inner.pages.contains_key(&key) {
            return; // racing fill
        }
        if inner.pages.len() >= inner.capacity_pages {
            if let Some((&victim, _)) = inner.pages.iter().min_by_key(|(_, e)| e.last_used) {
                inner.pages.remove(&victim);
                inner.evictions += 1;
            }
        }
        inner.clockhand += 1;
        let now = inner.clockhand;
        let off = inner.next_ssd_offset;
        inner.next_ssd_offset = (inner.next_ssd_offset + PAGE_SIZE) % inner.ssd.capacity().bytes();
        inner.ssd.serve(IoRequest::new(off, PAGE_SIZE));
        inner.pages.insert(
            key,
            PageEntry {
                ssd_offset: off,
                last_used: now,
            },
        );
    }

    /// Drops every resident page at once (a chaos "eviction storm"):
    /// subsequent reads all miss and fall through to the HDD cluster.
    /// Returns the number of pages evicted.
    pub fn evict_all(&self) -> u64 {
        let mut inner = self.inner.lock();
        let dropped = inner.pages.len() as u64;
        inner.pages.clear();
        inner.evictions += dropped;
        dropped
    }

    /// Reads `len` bytes of `path` at `offset` for a cached
    /// [`TectonicSource`](crate::TectonicSource). Data bytes always come
    /// from the cluster's name-space (contents are authoritative there);
    /// the cache decides which *device* is charged. Every page of the range
    /// is touched; when all of them hit, the read is served uncharged (no
    /// HDD time, no chaos hook). Otherwise the misses pay the HDD path and
    /// are filled only after the cluster read succeeds: filling first would
    /// leave pages resident after a failed read, so the retry would count a
    /// bogus hit and the hit rate would double-count the same fetch.
    pub(crate) fn read_through(
        &self,
        cluster: &TectonicCluster,
        path: &str,
        offset: u64,
        len: u64,
    ) -> Result<SourceChunk> {
        let file = hash_path(path);
        let first = offset / PAGE_SIZE;
        let last = (offset + len.max(1) - 1) / PAGE_SIZE;
        let missed: Vec<PageKey> = (first..=last)
            .map(|page| PageKey { file, page })
            .filter(|&key| !self.touch_page(key))
            .collect();
        if missed.is_empty() {
            return cluster.read_view_uncharged(path, offset, len);
        }
        let chunk = cluster.read_view(path, offset, len)?;
        for key in missed {
            self.fill_page(key);
        }
        Ok(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::TectonicSource;
    use bytes::Bytes;
    use dwrf::ChunkSource;

    fn setup(capacity: ByteSize) -> (TectonicCluster, SsdCache) {
        let cluster = TectonicCluster::new(ClusterConfig::small());
        let data: Vec<u8> = (0..2_000_000u32).map(|i| (i % 251) as u8).collect();
        cluster.append("hot/file", Bytes::from(data)).unwrap();
        (cluster, SsdCache::new(capacity))
    }

    #[test]
    fn repeat_reads_hit_the_cache_and_spare_hdds() {
        let (cluster, cache) = setup(ByteSize::mib(8));
        let mut src = TectonicSource::new(cluster.clone(), "hot/file").with_cache(cache.clone());
        let a = src.read(100_000, 5_000).unwrap().view;
        cluster.reset_stats();
        let b = src.read(100_000, 5_000).unwrap().view;
        assert_eq!(a, b);
        // The repeat read touched no HDD.
        assert_eq!(cluster.total_stats().ios, 0);
        let stats = cache.stats();
        assert!(stats.hits >= 1);
        assert!(stats.ssd.ios > 0);
    }

    #[test]
    fn correctness_preserved_through_cache() {
        let (cluster, cache) = setup(ByteSize::mib(4));
        let mut cached = TectonicSource::new(cluster.clone(), "hot/file").with_cache(cache);
        for (off, len) in [(0u64, 100u64), (64 * 1024 - 10, 50), (1_500_000, 4_000)] {
            let direct = cluster.read_view("hot/file", off, len).unwrap().view;
            let through = cached.read(off, len).unwrap().view;
            assert_eq!(direct, through, "range ({off}, {len})");
            // Read again from cache.
            assert_eq!(cached.read(off, len).unwrap().view, direct);
        }
    }

    #[test]
    fn lru_evicts_cold_pages() {
        // A 2-page cache cycling over 4 pages evicts constantly.
        let (cluster, cache) = setup(ByteSize(2 * PAGE_SIZE));
        let mut src = TectonicSource::new(cluster, "hot/file").with_cache(cache.clone());
        for round in 0..3 {
            for page in 0..4u64 {
                src.read(page * PAGE_SIZE, 16).unwrap();
            }
            let _ = round;
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0);
        assert!(cache.len() <= 2);
        // But a hot page re-read immediately hits.
        src.read(0, 16).unwrap();
        let before = cache.stats().hits;
        src.read(0, 16).unwrap();
        assert_eq!(cache.stats().hits, before + 1);
    }

    #[test]
    fn hit_rate_stays_within_unit_interval() {
        // Zero lookups must not divide by zero.
        let fresh = CacheStats::default();
        assert_eq!(fresh.hit_rate(), 0.0);
        let cache = SsdCache::new(ByteSize::mib(1));
        assert_eq!(cache.stats().hit_rate(), 0.0);

        // After arbitrary traffic the rate is still in [0, 1].
        let (cluster, cache) = setup(ByteSize(2 * PAGE_SIZE));
        let mut src = TectonicSource::new(cluster, "hot/file").with_cache(cache.clone());
        for i in 0..200u64 {
            src.read((i % 7) * PAGE_SIZE, 32).unwrap();
        }
        let rate = cache.stats().hit_rate();
        assert!((0.0..=1.0).contains(&rate), "hit rate {rate}");
        // All-miss and all-hit extremes are representable.
        let all_hits = CacheStats {
            hits: 10,
            ..Default::default()
        };
        assert_eq!(all_hits.hit_rate(), 1.0);
        let all_misses = CacheStats {
            misses: 10,
            ..Default::default()
        };
        assert_eq!(all_misses.hit_rate(), 0.0);
    }

    #[test]
    fn publish_metrics_bridges_stats_idempotently() {
        let (cluster, cache) = setup(ByteSize::mib(8));
        let mut src = TectonicSource::new(cluster.clone(), "hot/file").with_cache(cache.clone());
        src.read(0, 5_000).unwrap();
        src.read(0, 5_000).unwrap();
        let reg = dsi_obs::Registry::new();
        cache.publish_metrics(&reg);
        cluster.publish_metrics(&reg);
        let stats = cache.stats();
        use dsi_obs::names;
        assert_eq!(reg.counter_value(names::CACHE_HITS_TOTAL, &[]), stats.hits);
        assert_eq!(
            reg.counter_value(names::CACHE_MISSES_TOTAL, &[]),
            stats.misses
        );
        let rate = reg.gauge_value(names::CACHE_HIT_RATE, &[]);
        assert!((0.0..=1.0).contains(&rate));
        assert!((rate - stats.hit_rate()).abs() < 1e-12);
        // Publishing a snapshot twice must not double-count.
        cache.publish_metrics(&reg);
        assert_eq!(reg.counter_value(names::CACHE_HITS_TOTAL, &[]), stats.hits);
        // Node IOPS landed per-node and sum to the cluster total.
        let total: u64 = (0..cluster.node_count())
            .map(|i| reg.counter_value(names::STORAGE_NODE_IOS_TOTAL, &[("node", &i.to_string())]))
            .sum();
        assert_eq!(total, cluster.total_stats().ios);
    }

    #[test]
    fn failed_cluster_read_leaves_no_resident_pages() {
        // Regression: fills used to happen before the cluster read, so an
        // injected IoError left the pages resident and the retry counted a
        // bogus hit — inflating the hit rate for bytes never fetched.
        let (cluster, cache) = setup(ByteSize::mib(8));
        let plan = chaos::FaultPlan::named(vec![chaos::FaultEvent::new(
            chaos::HookPoint::TectonicRead,
            1,
            chaos::FaultKind::IoError,
        )]);
        cluster.attach_chaos(chaos::FaultInjector::new(plan));
        let mut src = TectonicSource::new(cluster, "hot/file").with_cache(cache.clone());
        assert!(src
            .read(0, 5_000)
            .unwrap_err()
            .to_string()
            .contains("injected IO error"));
        assert_eq!(cache.len(), 0, "failed read must not fill the cache");
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert!(stats.misses >= 1);

        // The retry is a genuine miss (not a phantom hit) and fills pages.
        let chunk = src.read(0, 5_000).unwrap();
        assert_eq!(chunk.view.len(), 5_000);
        assert!(!cache.is_empty());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn cached_path_fails_over_to_live_replica() {
        // A dead primary replica is transparent to the cached source: the
        // miss path fails over inside the cluster and hit accounting stays
        // exact (one miss per page, then pure hits).
        let (cluster, cache) = setup(ByteSize::mib(8));
        let primary = cluster.stat("hot/file").unwrap().blocks[0][0];
        cluster.fail_node(primary);
        let mut src = TectonicSource::new(cluster.clone(), "hot/file").with_cache(cache.clone());
        let direct = cluster.read_view("hot/file", 100, 3_000).unwrap().view;
        let through = src.read(100, 3_000).unwrap().view;
        assert_eq!(direct, through);
        let after_miss = cache.stats();
        let again = src.read(100, 3_000).unwrap().view;
        assert_eq!(again, direct);
        let after_hit = cache.stats();
        assert_eq!(
            after_hit.misses, after_miss.misses,
            "repeat read is all hits"
        );
        assert!(after_hit.hits > after_miss.hits);
        // The dead primary is skipped silently (not a checksum failure).
        assert_eq!(cluster.durability().checksum_failures, 0);
    }

    #[test]
    fn zipf_traffic_yields_high_hit_rate() {
        // Popular-byte traffic (Fig. 7): a cache holding the hot set
        // absorbs most IO.
        let (cluster, cache) = setup(ByteSize::mib(1)); // 16 pages hot set
        let mut src = TectonicSource::new(cluster, "hot/file").with_cache(cache.clone());
        let mut rng = dsi_types::rng::SplitMix64::new(5);
        for _ in 0..2_000 {
            // 90% of reads to the 1 MiB hot prefix, 10% uniform cold.
            let off = if rng.chance(0.9) {
                rng.next_below(1_000_000)
            } else {
                1_000_000 + rng.next_below(900_000)
            };
            src.read(off, 512).unwrap();
        }
        let rate = cache.stats().hit_rate();
        assert!(rate > 0.6, "hit rate {rate:.2}");
    }
}
