//! A storage node: one simulated disk plus its resident blocks and
//! telemetry.

use crate::block::BlockId;
use bytes::Bytes;
use dsi_types::rng::checksum64;
use dsi_types::{DsiError, Result};
use hwsim::{DeviceStats, DiskModel, IoRequest};
use std::collections::HashMap;
use std::sync::Arc;

/// Checksum granularity: sums are kept per 64 KiB page so read-time
/// verification costs are proportional to bytes actually read.
pub const CHECKSUM_PAGE: usize = 64 * 1024;

/// A chunk payload with its per-page checksums, computed once when the
/// chunk is written and shared by every replica that stores it: cloning
/// one is two reference-count bumps.
#[derive(Debug, Clone)]
pub struct PagedChunk {
    data: Bytes,
    page_sums: Arc<[u64]>,
}

impl PagedChunk {
    /// Sums every [`CHECKSUM_PAGE`] of `data`.
    pub fn new(data: Bytes) -> Self {
        let page_sums = data.chunks(CHECKSUM_PAGE).map(checksum64).collect();
        Self { data, page_sums }
    }

    /// The payload.
    pub fn data(&self) -> &Bytes {
        &self.data
    }
}

/// A resident replica: its disk offset and its chunk, whose page sums
/// are verified on every read.
#[derive(Debug)]
struct StoredBlock {
    offset: u64,
    chunk: PagedChunk,
}

impl StoredBlock {
    /// Verifies the checksums of every page overlapping `[offset, end)`.
    fn verify_range(&self, id: BlockId, offset: u64, end: u64) -> Result<()> {
        if end == offset {
            return Ok(());
        }
        let first = offset as usize / CHECKSUM_PAGE;
        let last = (end as usize - 1) / CHECKSUM_PAGE;
        for page in first..=last {
            let lo = page * CHECKSUM_PAGE;
            let hi = (lo + CHECKSUM_PAGE).min(self.chunk.data.len());
            if checksum64(&self.chunk.data[lo..hi]) != self.chunk.page_sums[page] {
                return Err(DsiError::corrupt(format!(
                    "checksum mismatch in block {id:?} page {page}"
                )));
            }
        }
        Ok(())
    }
}

/// Cumulative node telemetry (device stats plus IO size distribution).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeStats {
    /// Underlying device statistics.
    pub device: DeviceStats,
    /// Every served IO size in bytes (for distribution analysis, Table VI).
    pub io_sizes: Vec<u64>,
}

/// One storage node holding replicated blocks on a simulated disk.
#[derive(Debug)]
pub struct StorageNode {
    disk: DiskModel,
    blocks: HashMap<BlockId, StoredBlock>,
    next_offset: u64,
    io_sizes: Vec<u64>,
    record_io_sizes: bool,
}

impl StorageNode {
    /// Creates a node over the given disk model.
    pub fn new(disk: DiskModel) -> Self {
        Self {
            disk,
            blocks: HashMap::new(),
            next_offset: 0,
            io_sizes: Vec::new(),
            record_io_sizes: false,
        }
    }

    /// Enables per-IO size recording (used by the Table VI experiment).
    pub fn set_record_io_sizes(&mut self, on: bool) {
        self.record_io_sizes = on;
    }

    /// Stores a block replica (append-only: sequential placement on disk).
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::Exhausted`] if the disk is out of capacity.
    pub fn store(&mut self, id: BlockId, chunk: PagedChunk) -> Result<()> {
        let len = chunk.data.len() as u64;
        if self.next_offset + len > self.disk.capacity().bytes() {
            return Err(DsiError::Exhausted(format!(
                "storage node disk full at {} bytes",
                self.next_offset
            )));
        }
        let offset = self.next_offset;
        self.next_offset += len;
        self.blocks.insert(id, StoredBlock { offset, chunk });
        Ok(())
    }

    /// Stores a block replica like [`StorageNode::store`] but also charges
    /// one write IO to the disk (rebuild traffic that contends with
    /// foreground reads on the same device).
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::Exhausted`] if the disk is out of capacity.
    pub fn store_charged(&mut self, id: BlockId, chunk: PagedChunk) -> Result<()> {
        let len = chunk.data.len() as u64;
        self.store(id, chunk)?;
        self.charge(self.next_offset - len, len);
        Ok(())
    }

    /// Charges one IO of `len` bytes at disk offset `offset`.
    fn charge(&mut self, offset: u64, len: u64) {
        self.disk.serve(IoRequest::new(offset, len));
        if self.record_io_sizes {
            self.io_sizes.push(len);
        }
    }

    /// Flips bits in a resident replica *without* refreshing its page
    /// checksums — simulates at-rest media corruption that the next
    /// verifying read must detect. Returns false if the block is absent.
    pub fn corrupt(&mut self, id: BlockId, xor: u8) -> bool {
        match self.blocks.get_mut(&id) {
            Some(block) if !block.chunk.data.is_empty() => {
                let mut bytes = block.chunk.data.to_vec();
                bytes[0] ^= xor;
                block.chunk.data = Bytes::from(bytes);
                true
            }
            _ => false,
        }
    }

    /// Bytes of resident block data.
    pub fn stored_bytes(&self) -> u64 {
        self.next_offset
    }

    /// [`StorageNode::peek`]s `len` bytes at `offset` within block `id`,
    /// then charges the read as one disk IO.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::NotFound`] / [`DsiError::Corrupt`] like
    /// [`StorageNode::peek`]; a failed read charges nothing.
    pub fn read(&mut self, id: BlockId, offset: u64, len: u64) -> Result<Bytes> {
        let bytes = self.peek(id, offset, len)?;
        self.charge(self.blocks[&id].offset + offset, len);
        Ok(bytes)
    }

    /// Reads `len` bytes at `offset` within block `id` without charging the
    /// device (cache-served data whose IO was accounted elsewhere),
    /// verifying the checksums of every touched page.
    ///
    /// # Errors
    ///
    /// Returns [`DsiError::NotFound`] if the block is absent, or
    /// [`DsiError::Corrupt`] if the range exceeds the block or a touched
    /// page fails checksum verification.
    pub fn peek(&self, id: BlockId, offset: u64, len: u64) -> Result<Bytes> {
        let block = self
            .blocks
            .get(&id)
            .ok_or_else(|| DsiError::not_found(format!("block {id:?}")))?;
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= block.chunk.data.len() as u64)
            .ok_or_else(|| DsiError::corrupt("read beyond block"))?;
        block.verify_range(id, offset, end)?;
        Ok(block.chunk.data.slice(offset as usize..end as usize))
    }

    /// Removes a block replica (retention/reaping). The disk space is
    /// reclaimed logically; the append-only offset is not compacted.
    pub fn remove(&mut self, id: BlockId) -> bool {
        self.blocks.remove(&id).is_some()
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> NodeStats {
        NodeStats {
            device: self.disk.stats(),
            io_sizes: self.io_sizes.clone(),
        }
    }

    /// Clears telemetry.
    pub fn reset_stats(&mut self) {
        self.disk.reset_stats();
        self.io_sizes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_types::ByteSize;

    fn node() -> StorageNode {
        StorageNode::new(DiskModel::hdd())
    }

    fn paged(bytes: Vec<u8>) -> PagedChunk {
        PagedChunk::new(Bytes::from(bytes))
    }

    #[test]
    fn store_and_read_round_trip() {
        let mut n = node();
        let id = BlockId::new("f", 0);
        n.store(id, paged(vec![9u8; 1000])).unwrap();
        let data = n.read(id, 100, 50).unwrap();
        assert_eq!(data.as_ref(), &[9u8; 50][..]);
        assert!(n.stats().device.busy_ns > 0);
        assert_eq!(n.stored_bytes(), 1000);
    }

    #[test]
    fn missing_block_is_not_found() {
        let mut n = node();
        assert!(matches!(
            n.read(BlockId::new("f", 0), 0, 1),
            Err(DsiError::NotFound(_))
        ));
    }

    #[test]
    fn read_beyond_block_is_corrupt() {
        let mut n = node();
        let id = BlockId::new("f", 0);
        n.store(id, paged(vec![0u8; 10])).unwrap();
        assert!(n.read(id, 5, 10).is_err());
        assert!(n.read(id, u64::MAX, 1).is_err());
    }

    #[test]
    fn capacity_enforced() {
        let small = DiskModel::custom(ByteSize(100), 1000, 0, 1_000_000);
        let mut n = StorageNode::new(small);
        assert!(n.store(BlockId::new("f", 0), paged(vec![0u8; 60])).is_ok());
        assert!(n.store(BlockId::new("f", 1), paged(vec![0u8; 60])).is_err());
    }

    #[test]
    fn corrupted_replica_fails_checksum_on_read() {
        let mut n = node();
        let id = BlockId::new("f", 0);
        n.store(id, paged(vec![7u8; 1000])).unwrap();
        assert!(n.corrupt(id, 0x01));
        let err = n.read(id, 0, 100).unwrap_err();
        assert!(matches!(err, DsiError::Corrupt(_)), "got {err:?}");
        assert!(matches!(n.peek(id, 0, 100), Err(DsiError::Corrupt(_))));
        // XOR back restores the original byte and the stored sums match again.
        assert!(n.corrupt(id, 0x01));
        assert!(n.read(id, 0, 100).is_ok());
        // Corrupting a missing block reports false.
        assert!(!n.corrupt(BlockId::new("f", 9), 0x01));
    }

    #[test]
    fn replicas_of_one_chunk_share_sums_but_not_corruption() {
        let chunk = paged(vec![5u8; 2 * CHECKSUM_PAGE + 7]);
        let (mut a, mut b) = (node(), node());
        let id = BlockId::new("f", 0);
        a.store(id, chunk.clone()).unwrap();
        b.store(id, chunk).unwrap();
        // Flipping one replica's data leaves the shared sums, and the
        // other replica, as they were.
        assert!(a.corrupt(id, 0x10));
        assert!(matches!(a.read(id, 0, 10), Err(DsiError::Corrupt(_))));
        let data = b.read(id, 0, 2 * CHECKSUM_PAGE as u64 + 7).unwrap();
        assert!(data.iter().all(|&byte| byte == 5));
    }

    #[test]
    fn checksum_verification_is_per_page() {
        let mut n = node();
        let id = BlockId::new("f", 0);
        // Two checksum pages; corrupt byte 0 (first page only).
        n.store(id, paged(vec![3u8; CHECKSUM_PAGE + 100])).unwrap();
        assert!(n.corrupt(id, 0xFF));
        assert!(n.read(id, 0, 10).is_err(), "touched corrupt page");
        // A read confined to the clean second page still succeeds.
        let data = n.read(id, CHECKSUM_PAGE as u64, 50).unwrap();
        assert_eq!(data.as_ref(), &[3u8; 50][..]);
    }

    #[test]
    fn io_sizes_recorded_when_enabled() {
        let mut n = node();
        let id = BlockId::new("f", 0);
        n.store(id, paged(vec![0u8; 1000])).unwrap();
        n.read(id, 0, 10).unwrap();
        assert!(n.stats().io_sizes.is_empty());
        n.set_record_io_sizes(true);
        n.read(id, 0, 10).unwrap();
        n.read(id, 20, 30).unwrap();
        assert_eq!(n.stats().io_sizes, vec![10, 30]);
        n.reset_stats();
        assert!(n.stats().io_sizes.is_empty());
        assert_eq!(n.stats().device.ios, 0);
    }
}
