//! Durable storage: write-ahead log + snapshot persistence for the tuple
//! store (ROADMAP open item 3).
//!
//! The paper's registries are pure soft-state caches; a production overlay
//! cannot lose every tuple and lease on a process restart. This module adds
//! a pluggable [`DurableBackend`] behind [`TupleStore`](crate::store::TupleStore) — the in-memory
//! default (no backend attached) is completely unchanged — plus one
//! concrete implementation, [`WalBackend`]:
//!
//! * **WAL**: every mutation (`upsert`/`set_content`/`clear_content`/
//!   `remove`/`sweep`) appends one CRC-framed record to `wal.log`. Records
//!   carry *absolute* virtual times, which makes replay idempotent — a
//!   record applied twice (possible after a crash between snapshot rename
//!   and log truncation) lands in the same state.
//! * **Snapshots**: `snapshot.bin` holds a full store image (written to a
//!   temp file, fsynced, then atomically renamed); the WAL is truncated
//!   immediately after. A crash between the two steps only causes benign
//!   double-replay (see above).
//! * **Recovery**: load the snapshot (if valid), replay the WAL's longest
//!   valid prefix (a torn or bit-flipped tail record ends replay — CRC
//!   framing makes the cut explicit), restore the registry-wide ordinal
//!   counter, then sweep at the resumed clock so tuples that expired while
//!   the process was down are dropped instead of resurrected.
//!
//! **Clock restoration.** `Time` is milliseconds since an arbitrary epoch,
//! so a freshly constructed [`SystemClock`](crate::clock::SystemClock) after restart would restart at
//! zero and resurrect every expired lease. The WAL therefore interleaves
//! `Stamp` records pairing virtual time with Unix wall-clock time; recovery
//! with [`RecoverNow::WallClock`] projects the downtime window through the
//! last stamp (`resume = stamp.virtual + (unix_now - stamp.unix)`), while
//! [`RecoverNow::At`] lets simulations and live networks with a shared,
//! still-running clock supply `now` directly.
//!
//! Lock order (consistent with [`crate::shard`]): shard lock(s) first, WAL
//! file mutex last. Appends hold one shard write lock then the file mutex;
//! snapshots hold *all* shard read locks (ascending) then the file mutex.

use crate::clock::Time;
use crate::shard::ShardedStore;
use crate::tuple::Tuple;
use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use wsda_obs::{Counter, Gauge, MetricsRegistry};
use wsda_xml::parse_fragment;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time so
/// the WAL needs no external checksum crate.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 checksum of `data` (IEEE polynomial).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// When the WAL file is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync explicitly (the OS flushes eventually; fastest, loses
    /// the most on power failure — process crashes still lose nothing).
    Never,
    /// Fsync after every append (slowest, loses nothing).
    Always,
    /// Fsync once every `n` appends (bounded loss window).
    EveryN(u64),
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(64)
    }
}

/// Where and how a registry persists.
#[derive(Debug, Clone)]
pub struct PersistenceConfig {
    /// Directory holding `wal.log` and `snapshot.bin` (created on open).
    pub dir: PathBuf,
    /// Fsync cadence for WAL appends.
    pub fsync: FsyncPolicy,
    /// Appends since the last snapshot that arm
    /// [`WalBackend::wants_snapshot`]; `0` disables automatic snapshots
    /// (explicit [`WalBackend::snapshot_sharded`] still works).
    pub snapshot_every: u64,
}

impl PersistenceConfig {
    /// Persistence rooted at `dir` with default fsync/snapshot cadence.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistenceConfig { dir: dir.into(), fsync: FsyncPolicy::default(), snapshot_every: 4096 }
    }
}

/// A sink for tuple-store mutations. The in-memory default is "no backend";
/// [`WalBackend`] appends each operation to a crash-safe log.
///
/// Implementations must be cheap to call under a shard write lock and must
/// never call back into the store (the shard lock is held).
pub trait DurableBackend: Send + Sync + std::fmt::Debug {
    /// Record one mutation.
    fn record(&self, op: &WalOp<'_>);
}

/// One logged mutation. Borrowed (`Cow::Borrowed`) on the append path,
/// owned (`Cow::Owned`) when decoded during replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp<'a> {
    /// Insert-or-refresh (`TupleStore::upsert_with_ordinal` arguments).
    Upsert {
        /// Content link (primary key).
        link: Cow<'a, str>,
        /// Tuple type.
        type_: Cow<'a, str>,
        /// Context attribute.
        context: Cow<'a, str>,
        /// Publication time.
        now: Time,
        /// Lease length.
        ttl_ms: u64,
        /// Ordinal for a brand-new tuple (ignored on refresh).
        ordinal: u64,
    },
    /// Content installed for a link (content as compact XML).
    SetContent {
        /// Content link.
        link: Cow<'a, str>,
        /// Install time (TC).
        now: Time,
        /// The content serialized with `Element::to_compact_string`.
        xml: Cow<'a, str>,
    },
    /// Cached content dropped for a link.
    ClearContent {
        /// Content link.
        link: Cow<'a, str>,
    },
    /// Explicit unpublish of a link.
    Remove {
        /// Content link.
        link: Cow<'a, str>,
    },
    /// A sweep that evicted at least one expired tuple.
    Sweep {
        /// Sweep time.
        now: Time,
    },
    /// Virtual-time ↔ wall-clock anchor, interleaved so recovery can
    /// project the downtime window (see module docs).
    Stamp {
        /// Virtual time at the stamp.
        virtual_now: Time,
        /// Unix wall-clock milliseconds at the stamp.
        unix_ms: u64,
    },
}

const TAG_UPSERT: u8 = 0x01;
const TAG_SET_CONTENT: u8 = 0x02;
const TAG_CLEAR_CONTENT: u8 = 0x03;
const TAG_REMOVE: u8 = 0x04;
const TAG_SWEEP: u8 = 0x05;
const TAG_STAMP: u8 = 0x06;
const TAG_SNAP_HEADER: u8 = 0x10;
const TAG_SNAP_TUPLE: u8 = 0x11;
const TAG_SNAP_END: u8 = 0x12;

/// Sanity bound on one record's payload (a tuple with large cached
/// content); anything bigger is treated as corruption.
const MAX_RECORD: u32 = 64 * 1024 * 1024;

const SNAPSHOT_MAGIC: u64 = 0x5753_4441_534e_5031; // "WSDASNP1"

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn get_u8(buf: &mut &[u8]) -> Option<u8> {
    let (&b, rest) = buf.split_first()?;
    *buf = rest;
    Some(b)
}

fn get_u32(buf: &mut &[u8]) -> Option<u32> {
    if buf.len() < 4 {
        return None;
    }
    let (head, rest) = buf.split_at(4);
    *buf = rest;
    Some(u32::from_le_bytes(head.try_into().unwrap()))
}

fn get_u64(buf: &mut &[u8]) -> Option<u64> {
    if buf.len() < 8 {
        return None;
    }
    let (head, rest) = buf.split_at(8);
    *buf = rest;
    Some(u64::from_le_bytes(head.try_into().unwrap()))
}

fn get_str(buf: &mut &[u8]) -> Option<String> {
    let len = get_u32(buf)? as usize;
    if buf.len() < len {
        return None;
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    String::from_utf8(head.to_vec()).ok()
}

impl WalOp<'_> {
    /// Encode the payload (without framing).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            WalOp::Upsert { link, type_, context, now, ttl_ms, ordinal } => {
                buf.push(TAG_UPSERT);
                put_str(&mut buf, link);
                put_str(&mut buf, type_);
                put_str(&mut buf, context);
                put_u64(&mut buf, now.0);
                put_u64(&mut buf, *ttl_ms);
                put_u64(&mut buf, *ordinal);
            }
            WalOp::SetContent { link, now, xml } => {
                buf.push(TAG_SET_CONTENT);
                put_str(&mut buf, link);
                put_u64(&mut buf, now.0);
                put_str(&mut buf, xml);
            }
            WalOp::ClearContent { link } => {
                buf.push(TAG_CLEAR_CONTENT);
                put_str(&mut buf, link);
            }
            WalOp::Remove { link } => {
                buf.push(TAG_REMOVE);
                put_str(&mut buf, link);
            }
            WalOp::Sweep { now } => {
                buf.push(TAG_SWEEP);
                put_u64(&mut buf, now.0);
            }
            WalOp::Stamp { virtual_now, unix_ms } => {
                buf.push(TAG_STAMP);
                put_u64(&mut buf, virtual_now.0);
                put_u64(&mut buf, *unix_ms);
            }
        }
        buf
    }

    /// Decode a payload produced by [`WalOp::encode_payload`]; `None` on
    /// any structural mismatch (reference replays in tests use this too).
    pub fn decode_payload(mut payload: &[u8]) -> Option<WalOp<'static>> {
        let buf = &mut payload;
        let op = match get_u8(buf)? {
            TAG_UPSERT => WalOp::Upsert {
                link: Cow::Owned(get_str(buf)?),
                type_: Cow::Owned(get_str(buf)?),
                context: Cow::Owned(get_str(buf)?),
                now: Time(get_u64(buf)?),
                ttl_ms: get_u64(buf)?,
                ordinal: get_u64(buf)?,
            },
            TAG_SET_CONTENT => WalOp::SetContent {
                link: Cow::Owned(get_str(buf)?),
                now: Time(get_u64(buf)?),
                xml: Cow::Owned(get_str(buf)?),
            },
            TAG_CLEAR_CONTENT => WalOp::ClearContent { link: Cow::Owned(get_str(buf)?) },
            TAG_REMOVE => WalOp::Remove { link: Cow::Owned(get_str(buf)?) },
            TAG_SWEEP => WalOp::Sweep { now: Time(get_u64(buf)?) },
            TAG_STAMP => WalOp::Stamp { virtual_now: Time(get_u64(buf)?), unix_ms: get_u64(buf)? },
            _ => return None,
        };
        buf.is_empty().then_some(op)
    }

    /// The latest virtual time this op mentions, if any.
    fn time(&self) -> Option<Time> {
        match self {
            WalOp::Upsert { now, .. }
            | WalOp::SetContent { now, .. }
            | WalOp::Sweep { now }
            | WalOp::Stamp { virtual_now: now, .. } => Some(*now),
            WalOp::ClearContent { .. } | WalOp::Remove { .. } => None,
        }
    }
}

/// Frame a payload as `[u32 len][u32 crc32][payload]` (both little-endian).
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Iterate the valid record prefix of `bytes`: yields payload slices until
/// the first truncated, oversized, or CRC-failing record. Returns the
/// payloads and how many tail bytes were *not* consumed (0 = clean log).
pub fn scan_records(bytes: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut payloads = Vec::new();
    let mut off = 0usize;
    while bytes.len() - off >= 8 {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
        if len > MAX_RECORD || bytes.len() - off - 8 < len as usize {
            break;
        }
        let payload = &bytes[off + 8..off + 8 + len as usize];
        if crc32(payload) != crc {
            break;
        }
        payloads.push(payload);
        off += 8 + len as usize;
    }
    (payloads, bytes.len() - off)
}

/// Counters and gauges published by a [`WalBackend`]. Shared handles, so
/// adopting them into a [`MetricsRegistry`] mirrors live state.
#[derive(Debug, Default)]
pub struct WalMetrics {
    /// WAL records appended.
    pub wal_appends: Counter,
    /// WAL bytes appended (framing included).
    pub wal_bytes: Counter,
    /// Explicit fsyncs issued.
    pub wal_fsyncs: Counter,
    /// Append/sync failures (the backend goes read-only after the first).
    pub wal_io_errors: Counter,
    /// Snapshots written.
    pub snapshots: Counter,
    /// Duration of the most recent snapshot, in milliseconds.
    pub snapshot_duration_ms: Gauge,
    /// WAL records replayed by the last recovery.
    pub recovery_replayed: Counter,
    /// Tuples swept on recovery because they expired while down.
    pub recovery_swept: Counter,
}

impl WalMetrics {
    /// Register every handle with `metrics` as `wsda_<name>{node="…"}`
    /// (unlabelled when `node` is empty), mirroring
    /// [`crate::RegistryStats::export_into`].
    pub fn export_into(&self, metrics: &MetricsRegistry, node: &str) {
        let label = |name: &str| {
            if node.is_empty() {
                name.to_string()
            } else {
                format!("{name}{{node=\"{node}\"}}")
            }
        };
        metrics.register_counter(&label("wal_appends_total"), &self.wal_appends);
        metrics.register_counter(&label("wal_bytes_total"), &self.wal_bytes);
        metrics.register_counter(&label("wal_fsyncs_total"), &self.wal_fsyncs);
        metrics.register_counter(&label("wal_io_errors_total"), &self.wal_io_errors);
        metrics.register_counter(&label("wal_snapshots_total"), &self.snapshots);
        metrics.register_gauge(&label("wal_snapshot_duration_ms"), &self.snapshot_duration_ms);
        metrics.register_counter(&label("recovery_replayed_total"), &self.recovery_replayed);
        metrics.register_counter(&label("recovery_swept_total"), &self.recovery_swept);
    }
}

#[derive(Debug)]
struct WalFile {
    file: Option<File>,
    /// Appends since the last fsync (drives [`FsyncPolicy::EveryN`]).
    unsynced: u64,
}

/// The WAL + snapshot backend. Create via [`open_store`] (recovery) or
/// [`WalBackend::create`] (fresh directory); attach to a store with
/// [`ShardedStore::attach_backend`] /
/// [`TupleStore::attach_backend`](crate::store::TupleStore::attach_backend).
#[derive(Debug)]
pub struct WalBackend {
    dir: PathBuf,
    policy: FsyncPolicy,
    snapshot_every: u64,
    wal: Mutex<WalFile>,
    /// First append/sync error poisons the backend: later appends are
    /// dropped (and counted) instead of silently diverging the log.
    failed: AtomicBool,
    appends_since_snapshot: AtomicU64,
    appends_since_stamp: AtomicU64,
    /// Latest virtual time seen in any logged op.
    max_time: AtomicU64,
    /// Shared metric handles.
    pub metrics: Arc<WalMetrics>,
}

/// Stamp cadence: one `Stamp` record per this many appends keeps the
/// wall-clock anchor fresh at negligible cost (25 bytes each).
const STAMP_EVERY: u64 = 64;

impl WalBackend {
    /// Open (creating if necessary) the WAL in `cfg.dir` for appending.
    /// Existing files are appended to, not replayed — use [`open_store`]
    /// for recovery.
    pub fn create(cfg: &PersistenceConfig) -> io::Result<Arc<WalBackend>> {
        std::fs::create_dir_all(&cfg.dir)?;
        let file = OpenOptions::new().create(true).append(true).open(cfg.dir.join("wal.log"))?;
        let backend = Arc::new(WalBackend {
            dir: cfg.dir.clone(),
            policy: cfg.fsync,
            snapshot_every: cfg.snapshot_every,
            wal: Mutex::new(WalFile { file: Some(file), unsynced: 0 }),
            failed: AtomicBool::new(false),
            appends_since_snapshot: AtomicU64::new(0),
            appends_since_stamp: AtomicU64::new(0),
            max_time: AtomicU64::new(0),
            metrics: Arc::new(WalMetrics::default()),
        });
        backend.record(&WalOp::Stamp {
            virtual_now: Time(backend.max_time.load(Ordering::Relaxed)),
            unix_ms: unix_now_ms(),
        });
        Ok(backend)
    }

    /// The directory this backend persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True once automatic-snapshot cadence has been reached. Callers
    /// (e.g. the registry's publish path) should then invoke
    /// [`WalBackend::snapshot_sharded`] *after* dropping any shard lock.
    pub fn wants_snapshot(&self) -> bool {
        self.snapshot_every > 0
            && self.appends_since_snapshot.load(Ordering::Relaxed) >= self.snapshot_every
    }

    /// Force an fsync of the WAL (e.g. before a deliberate process exit).
    pub fn sync(&self) -> io::Result<()> {
        let mut wal = self.wal.lock().unwrap();
        if let Some(f) = wal.file.as_mut() {
            f.sync_data()?;
            wal.unsynced = 0;
            self.metrics.wal_fsyncs.inc();
        }
        Ok(())
    }

    fn append_frame(&self, framed: &[u8]) -> io::Result<()> {
        let mut wal = self.wal.lock().unwrap();
        let Some(f) = wal.file.as_mut() else {
            return Err(io::Error::other("wal closed"));
        };
        f.write_all(framed)?;
        wal.unsynced += 1;
        let due = match self.policy {
            FsyncPolicy::Never => false,
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => wal.unsynced >= n.max(1),
        };
        if due {
            let f = wal.file.as_mut().expect("checked above");
            f.sync_data()?;
            wal.unsynced = 0;
            self.metrics.wal_fsyncs.inc();
        }
        Ok(())
    }

    /// Write a full snapshot of `store` and truncate the WAL. Takes all
    /// shard read locks (ascending) and then the WAL mutex — callers must
    /// not hold any shard lock.
    pub fn snapshot_sharded(&self, store: &ShardedStore) -> io::Result<usize> {
        let started = std::time::Instant::now();
        let guards = store.read_all_shards();
        let count: usize = guards.iter().map(|g| g.len()).sum();

        let mut body = Vec::with_capacity(64 + count * 128);
        let mut header = Vec::with_capacity(48);
        header.push(TAG_SNAP_HEADER);
        put_u64(&mut header, SNAPSHOT_MAGIC);
        put_u64(&mut header, store.load_next_ordinal());
        put_u64(&mut header, self.max_time.load(Ordering::Relaxed));
        put_u64(&mut header, unix_now_ms());
        put_u64(&mut header, count as u64);
        body.extend_from_slice(&frame(&header));
        for guard in &guards {
            for t in guard.iter() {
                let mut p = Vec::with_capacity(96);
                p.push(TAG_SNAP_TUPLE);
                put_str(&mut p, &t.link);
                put_str(&mut p, &t.type_);
                put_str(&mut p, &t.context);
                put_u64(&mut p, t.inserted.0);
                put_u64(&mut p, t.refreshed.0);
                put_u64(&mut p, t.ttl_ms);
                put_u64(&mut p, t.ordinal);
                match (t.content(), t.content_cached) {
                    (Some(c), Some(tc)) => {
                        p.push(1);
                        put_u64(&mut p, tc.0);
                        put_str(&mut p, &c.to_compact_string());
                    }
                    _ => p.push(0),
                }
                body.extend_from_slice(&frame(&p));
            }
        }
        body.extend_from_slice(&frame(&[TAG_SNAP_END]));

        let tmp = self.dir.join("snapshot.tmp");
        let final_path = self.dir.join("snapshot.bin");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&body)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &final_path)?;
        // Directory fsync is best-effort (not all platforms support it).
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }

        // Truncate the WAL and re-anchor the wall clock. Shard read locks
        // are still held, so no append can interleave.
        {
            let mut wal = self.wal.lock().unwrap();
            let f = File::create(self.dir.join("wal.log"))?;
            wal.file = Some(f);
            wal.unsynced = 0;
        }
        drop(guards);
        self.appends_since_snapshot.store(0, Ordering::Relaxed);
        self.record(&WalOp::Stamp {
            virtual_now: Time(self.max_time.load(Ordering::Relaxed)),
            unix_ms: unix_now_ms(),
        });
        self.metrics.snapshots.inc();
        self.metrics.snapshot_duration_ms.set(started.elapsed().as_millis() as u64);
        Ok(count)
    }
}

impl DurableBackend for WalBackend {
    fn record(&self, op: &WalOp<'_>) {
        if self.failed.load(Ordering::Relaxed) {
            self.metrics.wal_io_errors.inc();
            return;
        }
        if let Some(t) = op.time() {
            self.max_time.fetch_max(t.0, Ordering::Relaxed);
        }
        let framed = frame(&op.encode_payload());
        match self.append_frame(&framed) {
            Ok(()) => {
                self.metrics.wal_appends.inc();
                self.metrics.wal_bytes.add(framed.len() as u64);
                self.appends_since_snapshot.fetch_add(1, Ordering::Relaxed);
                // Interleave a wall-clock stamp every STAMP_EVERY appends
                // (stamps themselves don't count, or they'd self-trigger).
                if !matches!(op, WalOp::Stamp { .. })
                    && self.appends_since_stamp.fetch_add(1, Ordering::Relaxed) + 1 >= STAMP_EVERY
                {
                    self.appends_since_stamp.store(0, Ordering::Relaxed);
                    self.record(&WalOp::Stamp {
                        virtual_now: Time(self.max_time.load(Ordering::Relaxed)),
                        unix_ms: unix_now_ms(),
                    });
                }
            }
            Err(_) => {
                self.failed.store(true, Ordering::Relaxed);
                self.metrics.wal_io_errors.inc();
            }
        }
    }
}

fn unix_now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// How recovery determines "now" for the expired-in-the-gap sweep.
#[derive(Debug, Clone, Copy)]
pub enum RecoverNow {
    /// Caller-supplied time: a shared still-running clock (live network)
    /// or the simulator's virtual clock.
    At(Time),
    /// Derive from the latest WAL/snapshot wall-clock stamp: the resumed
    /// virtual time is `stamp.virtual + (unix_now - stamp.unix)`, so real
    /// downtime elapses on the soft-state clock.
    WallClock,
}

/// What recovery found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Tuples loaded from the snapshot (0 when absent/invalid).
    pub snapshot_tuples: usize,
    /// WAL records replayed (valid prefix; stamps included).
    pub replayed: usize,
    /// WAL tail bytes discarded as torn/corrupt (0 = clean log).
    pub tail_lost_bytes: usize,
    /// Tuples swept on recovery because their lease expired while down.
    pub swept: usize,
    /// Tuples live after recovery and the gap sweep.
    pub recovered_tuples: usize,
    /// The resumed soft-state clock value; restart clocks from here (e.g.
    /// [`crate::clock::SystemClock::starting_at`]) so time never rewinds.
    pub resume_now: Time,
}

/// Recover a [`ShardedStore`] from `cfg.dir`, returning the store (backend
/// already attached), the backend, and a [`RecoveryReport`].
///
/// Sequence: load `snapshot.bin` if valid (an invalid snapshot recovers as
/// empty — the rename protocol makes that unreachable short of disk-level
/// corruption), replay the longest valid WAL prefix, restore the ordinal
/// allocator, sweep at the resumed clock, then write a *fresh* snapshot
/// (compacting the log and clearing any corrupt tail) before attaching the
/// backend for new appends.
pub fn open_store(
    cfg: &PersistenceConfig,
    shards: usize,
    content_index: bool,
) -> io::Result<(ShardedStore, Arc<WalBackend>, RecoveryReport)> {
    open_store_at(cfg, shards, content_index, RecoverNow::WallClock)
}

/// [`open_store`] with an explicit recovery-time policy.
pub fn open_store_at(
    cfg: &PersistenceConfig,
    shards: usize,
    content_index: bool,
    now: RecoverNow,
) -> io::Result<(ShardedStore, Arc<WalBackend>, RecoveryReport)> {
    std::fs::create_dir_all(&cfg.dir)?;
    let store = ShardedStore::with_content_index(shards, content_index);
    let mut report = RecoveryReport::default();
    let mut max_time = Time::ZERO;
    let mut max_ordinal: Option<u64> = None;
    let mut last_stamp: Option<(Time, u64)> = None;

    // 1. Snapshot.
    let snap_bytes = std::fs::read(cfg.dir.join("snapshot.bin")).unwrap_or_default();
    if !snap_bytes.is_empty() {
        if let Some((tuples, next_ordinal, snap_time, snap_unix)) = decode_snapshot(&snap_bytes) {
            report.snapshot_tuples = tuples.len();
            max_ordinal = next_ordinal.checked_sub(1);
            max_time = max_time.max(snap_time);
            last_stamp = Some((snap_time, snap_unix));
            for t in tuples {
                max_time = max_time.max(t.refreshed).max(t.content_cached.unwrap_or(Time::ZERO));
                store.write_shard(store.shard_of(&t.link)).insert_recovered(t);
            }
        }
    }

    // 2. WAL valid prefix.
    let wal_bytes = std::fs::read(cfg.dir.join("wal.log")).unwrap_or_default();
    let (payloads, tail_lost) = scan_records(&wal_bytes);
    report.tail_lost_bytes = tail_lost;
    for payload in payloads {
        let Some(op) = WalOp::decode_payload(payload) else {
            // Framing was valid but the payload is foreign; treat like a
            // corrupt tail and stop (everything after is suspect).
            break;
        };
        if let Some(t) = op.time() {
            max_time = max_time.max(t);
        }
        match &op {
            WalOp::Upsert { link, type_, context, now, ttl_ms, ordinal } => {
                let mut shard = store.write_shard(store.shard_of(link));
                if shard.upsert_with_ordinal(link, type_, context, *now, *ttl_ms, *ordinal) {
                    max_ordinal = Some(max_ordinal.map_or(*ordinal, |m| m.max(*ordinal)));
                }
            }
            WalOp::SetContent { link, now, xml } => {
                if let Ok(content) = parse_fragment(xml) {
                    store.write_shard(store.shard_of(link)).set_content(link, &content, *now);
                }
            }
            WalOp::ClearContent { link } => {
                store.write_shard(store.shard_of(link)).clear_content(link);
            }
            WalOp::Remove { link } => {
                store.write_shard(store.shard_of(link)).remove(link);
            }
            WalOp::Sweep { now } => {
                store.sweep(*now);
            }
            WalOp::Stamp { virtual_now, unix_ms } => {
                last_stamp = Some((*virtual_now, *unix_ms));
            }
        }
        report.replayed += 1;
    }

    // 3. Ordinal allocator: past every ordinal ever issued.
    store.store_next_ordinal(max_ordinal.map_or(0, |m| m + 1));

    // 4. Resume the soft-state clock and sweep the downtime gap.
    let resume = match now {
        RecoverNow::At(t) => t.max(max_time),
        RecoverNow::WallClock => {
            let projected = last_stamp
                .map(|(virt, unix)| virt.plus(unix_now_ms().saturating_sub(unix)))
                .unwrap_or(max_time);
            projected.max(max_time)
        }
    };
    report.resume_now = resume;
    report.swept = store.sweep(resume);
    report.recovered_tuples = store.len();

    // 5. Fresh backend + compacting snapshot, then attach for new appends.
    let backend = WalBackend::create(cfg)?;
    backend.max_time.fetch_max(resume.0, Ordering::Relaxed);
    backend.metrics.recovery_replayed.add(report.replayed as u64);
    backend.metrics.recovery_swept.add(report.swept as u64);
    backend.snapshot_sharded(&store)?;
    store.attach_backend(backend.clone());
    Ok((store, backend, report))
}

/// Decode a snapshot body: `Some((tuples, next_ordinal, last_time,
/// unix_ms))`, or `None` when framing, magic, or structure is invalid.
fn decode_snapshot(bytes: &[u8]) -> Option<(Vec<Tuple>, u64, Time, u64)> {
    let (payloads, _tail) = scan_records(bytes);
    let mut iter = payloads.into_iter();
    let mut header = iter.next()?;
    let buf = &mut header;
    if get_u8(buf)? != TAG_SNAP_HEADER || get_u64(buf)? != SNAPSHOT_MAGIC {
        return None;
    }
    let next_ordinal = get_u64(buf)?;
    let last_time = Time(get_u64(buf)?);
    let unix_ms = get_u64(buf)?;
    let count = get_u64(buf)? as usize;
    let mut tuples = Vec::with_capacity(count.min(1 << 20));
    let mut complete = false;
    for mut payload in iter {
        let buf = &mut payload;
        match get_u8(buf)? {
            TAG_SNAP_TUPLE => {
                let link = get_str(buf)?;
                let type_ = get_str(buf)?;
                let context = get_str(buf)?;
                let inserted = Time(get_u64(buf)?);
                let refreshed = Time(get_u64(buf)?);
                let ttl_ms = get_u64(buf)?;
                let ordinal = get_u64(buf)?;
                let mut t = Tuple::new(&link, &type_, &context, inserted, ttl_ms, ordinal);
                t.refresh(refreshed, ttl_ms);
                if get_u8(buf)? == 1 {
                    let tc = Time(get_u64(buf)?);
                    let xml = get_str(buf)?;
                    t.set_content(&parse_fragment(&xml).ok()?, tc);
                }
                tuples.push(t);
            }
            TAG_SNAP_END => {
                complete = true;
                break;
            }
            _ => return None,
        }
    }
    // A snapshot without its end marker (torn write) is invalid outright —
    // the rename protocol means this never happens in normal operation.
    (complete && tuples.len() == count).then_some((tuples, next_ordinal, last_time, unix_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "wsda-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn wal_op_roundtrip() {
        let ops = vec![
            WalOp::Upsert {
                link: "http://x/1".into(),
                type_: "service".into(),
                context: "cms.cern.ch".into(),
                now: Time(42),
                ttl_ms: 1000,
                ordinal: 7,
            },
            WalOp::SetContent {
                link: "http://x/1".into(),
                now: Time(50),
                xml: "<a b=\"c\"/>".into(),
            },
            WalOp::ClearContent { link: "http://x/1".into() },
            WalOp::Remove { link: "http://x/1".into() },
            WalOp::Sweep { now: Time(99) },
            WalOp::Stamp { virtual_now: Time(99), unix_ms: 1_700_000_000_000 },
        ];
        for op in ops {
            let payload = op.encode_payload();
            assert_eq!(WalOp::decode_payload(&payload), Some(op.clone()), "{op:?}");
        }
    }

    #[test]
    fn scan_stops_at_corrupt_tail() {
        let a = frame(&WalOp::Sweep { now: Time(1) }.encode_payload());
        let b = frame(&WalOp::Sweep { now: Time(2) }.encode_payload());
        let mut log = a.clone();
        log.extend_from_slice(&b);
        // Clean log.
        let (p, lost) = scan_records(&log);
        assert_eq!((p.len(), lost), (2, 0));
        // Torn tail.
        let torn = &log[..log.len() - 3];
        let (p, lost) = scan_records(torn);
        assert_eq!(p.len(), 1);
        assert!(lost > 0);
        // Bit flip in the second record's payload.
        let mut flipped = log.clone();
        let n = flipped.len();
        flipped[n - 1] ^= 0x40;
        let (p, lost) = scan_records(&flipped);
        assert_eq!(p.len(), 1);
        assert!(lost > 0);
    }

    #[test]
    fn recover_empty_dir_is_empty_store() {
        let dir = tmp_dir("empty");
        let cfg = PersistenceConfig::new(&dir);
        let (store, _backend, report) = open_store(&cfg, 4, true).unwrap();
        assert!(store.is_empty());
        assert_eq!(report.recovered_tuples, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_roundtrip_with_snapshot_and_restart() {
        let dir = tmp_dir("roundtrip");
        let cfg =
            PersistenceConfig { dir: dir.clone(), fsync: FsyncPolicy::Never, snapshot_every: 0 };
        {
            let (store, backend, _) =
                open_store_at(&cfg, 4, true, RecoverNow::At(Time(0))).unwrap();
            for i in 0..20 {
                store.upsert(&format!("http://svc{i}"), "service", "cern.ch", Time(10), 10_000);
            }
            store.install_content(
                "http://svc3",
                &parse_fragment("<x><y>z</y></x>").unwrap(),
                Time(20),
            );
            store.remove("http://svc5");
            backend.snapshot_sharded(&store).unwrap();
            // Post-snapshot ops live only in the WAL.
            store.upsert("http://extra", "monitor", "fnal.gov", Time(30), 10_000);
            store.drop_content("http://svc3");
            backend.sync().unwrap();
        }
        let (store, _backend, report) =
            open_store_at(&cfg, 4, true, RecoverNow::At(Time(100))).unwrap();
        assert_eq!(report.snapshot_tuples, 19);
        assert!(report.replayed >= 2, "post-snapshot ops replayed: {report:?}");
        assert_eq!(report.swept, 0);
        assert_eq!(store.len(), 20);
        assert!(store.contains("http://extra"));
        assert!(!store.contains("http://svc5"));
        assert!(store.with_tuple("http://svc3", |t| t.content().is_none()).unwrap());
        // Ordinals continue past everything ever issued.
        store.upsert("http://new", "service", "c", Time(100), 1000);
        let new_ord = store.with_tuple("http://new", |t| t.ordinal).unwrap();
        let max_old = store
            .links()
            .iter()
            .filter(|l| *l != "http://new")
            .map(|l| store.with_tuple(l, |t| t.ordinal).unwrap())
            .max()
            .unwrap();
        assert!(new_ord > max_old, "ordinal allocator restored past {max_old}, got {new_ord}");
        store.check_consistent();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_in_the_gap_swept_on_recovery() {
        let dir = tmp_dir("gap");
        let cfg =
            PersistenceConfig { dir: dir.clone(), fsync: FsyncPolicy::Always, snapshot_every: 0 };
        {
            let (store, _backend, _) =
                open_store_at(&cfg, 2, true, RecoverNow::At(Time(0))).unwrap();
            store.upsert("http://short", "service", "c", Time(0), 100);
            store.upsert("http://long", "service", "c", Time(0), 1_000_000);
        }
        // Restart "later": the short lease expired during the gap.
        let (store, _backend, report) =
            open_store_at(&cfg, 2, true, RecoverNow::At(Time(5000))).unwrap();
        assert_eq!(report.swept, 1);
        assert!(!store.contains("http://short"), "expired tuple must not resurrect");
        assert!(store.contains("http://long"));
        assert_eq!(report.recovered_tuples, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_record_is_dropped() {
        let dir = tmp_dir("torn");
        let cfg =
            PersistenceConfig { dir: dir.clone(), fsync: FsyncPolicy::Always, snapshot_every: 0 };
        {
            let (store, _backend, _) =
                open_store_at(&cfg, 2, true, RecoverNow::At(Time(0))).unwrap();
            for i in 0..10 {
                store.upsert(&format!("http://svc{i}"), "service", "c", Time(0), 1_000_000);
            }
        }
        // Tear the last few bytes off the log, as a crash mid-write would.
        let wal = dir.join("wal.log");
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();
        let (store, _backend, report) =
            open_store_at(&cfg, 2, true, RecoverNow::At(Time(1))).unwrap();
        assert!(report.tail_lost_bytes > 0);
        assert_eq!(store.len(), 9, "only the torn record is lost");
        store.check_consistent();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wallclock_recovery_projects_downtime() {
        let dir = tmp_dir("wallclock");
        let cfg =
            PersistenceConfig { dir: dir.clone(), fsync: FsyncPolicy::Always, snapshot_every: 0 };
        {
            let (store, _backend, _) =
                open_store_at(&cfg, 2, true, RecoverNow::At(Time(500))).unwrap();
            store.upsert("http://a", "service", "c", Time(500), 1_000_000);
        }
        let (_store, _backend, report) = open_store(&cfg, 2, true).unwrap();
        // Resumed clock must be at or past the last logged virtual time.
        assert!(report.resume_now >= Time(500), "clock must not rewind: {report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
