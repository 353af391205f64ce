//! Crash-consistent checkpoint/restore: the durability layer under the
//! runtime.
//!
//! The engines already survive shard panics, wedged workers, and
//! flapping devices — but nothing survives the *process*. This module
//! adds that layer: a versioned, hand-rolled binary checkpoint format
//! (no serde, matching the profile JSON discipline in `click-opt`)
//! capturing per-element [`ElementState`] via a **non-destructive**
//! snapshot over the hot-swap state surface, the router-level drop
//! ledgers, the device bank's pending RX/TX, and the currently-installed
//! configuration text — so a restarted router resumes on the *optimized*
//! config with monotonic counters and an exact cross-incarnation ledger:
//!
//! ```text
//! injected == tx + drops + loss_since_checkpoint
//! ```
//!
//! with the loss bounded by the packets fed since the last snapshot.
//!
//! ## On-disk format
//!
//! ```text
//! magic   8 bytes   "CLKCKPT1"
//! version u32 LE    CHECKPOINT_VERSION
//! length  u64 LE    payload byte count
//! crc     u32 LE    CRC-32 (IEEE) over the payload
//! payload ...       length-prefixed fields, all integers LE
//! ```
//!
//! Every field of the payload is length-prefixed or fixed-width, and the
//! decoder ([`Checkpoint::decode`]) returns `Err` — never panics — on
//! truncated, bit-flipped, wrong-version, or wrong-CRC input. Torn files
//! are the *expected* failure mode (a crash mid-`write` before the
//! atomic rename, a half-synced disk): [`CheckpointStore::latest_valid`]
//! skips them, counts them, and falls back to the previous generation.
//!
//! ## Write discipline
//!
//! [`CheckpointStore::save`] writes to a temporary file in the same
//! directory, syncs, then renames into place — so a reader never
//! observes a partially-written generation under its final name — and
//! prunes generations beyond the retention bound.

use crate::engine::Engine;
use crate::packet::Packet;
use crate::swap::ElementState;
use click_core::error::{Error, Result};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Current checkpoint format version. Readers reject other versions
/// (forward-compatibility is handled by falling back to an older
/// generation written by the older binary, not by guessing at fields).
pub const CHECKPOINT_VERSION: u32 = 1;

/// File magic: identifies a checkpoint regardless of extension.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"CLKCKPT1";

const HEADER_LEN: usize = 8 + 4 + 8 + 4;

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`. Hand-rolled
/// bitwise form — checkpoints are control-plane sized, so table-free
/// simplicity beats throughput here.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a 64-bit hash of a configuration text: the installed-config
/// fingerprint carried in every checkpoint, so a warm restart can prove
/// it resumed on the same (optimized) configuration it checkpointed.
pub fn config_hash(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Records: the plain-data mirror of runtime state. Everything here is
// `Send + Clone` bytes-and-integers, so records cross the sharded
// runtime's control channels and serialize without touching the
// elements again.
// ---------------------------------------------------------------------

/// A serialized packet: contents plus the annotations that survive a
/// restart. (Opaque runtime annotations — arrival device, timestamps —
/// are carried too; a restored packet is indistinguishable to the
/// elements that inspect it.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PacketRecord {
    /// Packet contents.
    pub data: Vec<u8>,
    /// Paint annotation.
    pub paint: u8,
    /// Destination-IP annotation.
    pub dst_ip: Option<u32>,
    /// Arrival-device annotation.
    pub device: Option<u16>,
    /// Link-broadcast annotation.
    pub link_broadcast: bool,
    /// `FixIPSrc` annotation.
    pub fix_ip_src: bool,
    /// Arrival timestamp (simulated nanoseconds).
    pub timestamp: u64,
}

impl PacketRecord {
    /// Captures a packet without consuming it.
    pub fn from_packet(p: &Packet) -> PacketRecord {
        PacketRecord {
            data: p.data().to_vec(),
            paint: p.anno.paint,
            dst_ip: p.anno.dst_ip,
            device: p.anno.device,
            link_broadcast: p.anno.link_broadcast,
            fix_ip_src: p.anno.fix_ip_src,
            timestamp: p.anno.timestamp,
        }
    }

    /// Rebuilds the packet, annotations included.
    pub fn to_packet(&self) -> Packet {
        let mut p = Packet::from_data(&self.data);
        p.anno.paint = self.paint;
        p.anno.dst_ip = self.dst_ip;
        p.anno.device = self.device;
        p.anno.link_broadcast = self.link_broadcast;
        p.anno.fix_ip_src = self.fix_ip_src;
        p.anno.timestamp = self.timestamp;
        p
    }
}

/// One element's checkpointed state: the counters and queued packets of
/// its [`ElementState`]. Opaque payloads (e.g. a routing trie carried
/// across a hot swap) are *not* persisted — they are rebuildable from
/// the configuration text, and the snapshot path hands them straight
/// back to the live element.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElementRecord {
    /// Element name in the configuration.
    pub name: String,
    /// Element class (devirtualized names normalize at restore time,
    /// exactly as in a hot-swap transfer plan).
    pub class: String,
    /// Named counters.
    pub counters: Vec<(String, u64)>,
    /// Queued packets, in FIFO order.
    pub packets: Vec<PacketRecord>,
}

impl ElementRecord {
    /// Captures a record from a taken [`ElementState`] without consuming
    /// the state's packets (they are copied, so the caller can hand the
    /// state back to the element).
    pub fn from_state(name: &str, class: &str, state: &ElementState) -> ElementRecord {
        ElementRecord {
            name: name.to_owned(),
            class: class.to_owned(),
            counters: state.counters.clone(),
            packets: state
                .packets
                .iter()
                .map(PacketRecord::from_packet)
                .collect(),
        }
    }

    /// Rebuilds an [`ElementState`] suitable for
    /// [`crate::element::Element::restore_state`].
    pub fn to_state(&self) -> ElementState {
        let mut state = ElementState::new(&self.class);
        state.counters = self.counters.clone();
        state.packets = self.packets.iter().map(PacketRecord::to_packet).collect();
        state
    }

    /// Sums the counters of several shard-local records of the same
    /// element into this one and appends their packets (FIFO by shard
    /// order). Used by the sharded runtime to merge per-shard snapshots.
    pub fn absorb(&mut self, other: &ElementRecord) {
        for (name, value) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v += value,
                None => self.counters.push((name.clone(), *value)),
            }
        }
        self.packets.extend(other.packets.iter().cloned());
    }
}

/// One device's pending traffic at snapshot time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceRecord {
    /// Device name.
    pub name: String,
    /// Packets received but not yet pulled by the router.
    pub rx: Vec<PacketRecord>,
    /// Packets transmitted but not yet drained by the harness.
    pub tx: Vec<PacketRecord>,
}

/// The cross-incarnation traffic ledger at snapshot time, as counted by
/// whatever harness drives the engine (a pcap replay, the reopt daemon).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointLedger {
    /// Packets injected since the beginning of time (all incarnations).
    pub injected: u64,
    /// Packets transmitted and durably accounted (all incarnations).
    pub tx: u64,
    /// The engine's total drop gauge at snapshot time.
    pub drops: u64,
}

/// A complete, consistent snapshot of a running router.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Monotonic generation number (also encoded in the file name).
    pub generation: u64,
    /// The currently-installed configuration text — the *optimized*
    /// config if the reopt daemon has swapped one in, so a warm restart
    /// resumes on it rather than booting cold on the source config.
    pub config: String,
    /// [`config_hash`] of `config`.
    pub config_hash: u64,
    /// Traffic ledger at snapshot time.
    pub ledger: CheckpointLedger,
    /// How long the data plane was paused to cut this snapshot, in
    /// nanoseconds (quiesce wait plus state walk).
    pub quiesce_ns: u64,
    /// Per-element state.
    pub elements: Vec<ElementRecord>,
    /// Per-device pending traffic.
    pub devices: Vec<DeviceRecord>,
}

impl Checkpoint {
    /// Packets captured in this checkpoint (element queues plus device
    /// queues).
    pub fn packet_count(&self) -> u64 {
        let e: usize = self.elements.iter().map(|r| r.packets.len()).sum();
        let d: usize = self.devices.iter().map(|r| r.rx.len() + r.tx.len()).sum();
        (e + d) as u64
    }

    /// Serializes to the on-disk format (header, CRC, payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(256);
        put_u64(&mut p, self.generation);
        put_str(&mut p, &self.config);
        put_u64(&mut p, self.config_hash);
        put_u64(&mut p, self.ledger.injected);
        put_u64(&mut p, self.ledger.tx);
        put_u64(&mut p, self.ledger.drops);
        put_u64(&mut p, self.quiesce_ns);
        put_u32(&mut p, self.elements.len() as u32);
        for e in &self.elements {
            put_str(&mut p, &e.name);
            put_str(&mut p, &e.class);
            put_u32(&mut p, e.counters.len() as u32);
            for (name, value) in &e.counters {
                put_str(&mut p, name);
                put_u64(&mut p, *value);
            }
            put_packets(&mut p, &e.packets);
        }
        put_u32(&mut p, self.devices.len() as u32);
        for d in &self.devices {
            put_str(&mut p, &d.name);
            put_packets(&mut p, &d.rx);
            put_packets(&mut p, &d.tx);
        }

        let mut out = Vec::with_capacity(HEADER_LEN + p.len());
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(&p).to_le_bytes());
        out.extend_from_slice(&p);
        out
    }

    /// Parses the on-disk format.
    ///
    /// # Errors
    ///
    /// [`Error::Archive`] on any malformed input — wrong magic, wrong
    /// version, truncation anywhere, CRC mismatch, bad UTF-8, or
    /// impossible counts. Never panics: every byte is bounds-checked,
    /// so arbitrary (fuzzed) input is safe to feed here.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint> {
        if bytes.len() < HEADER_LEN {
            return Err(torn("file shorter than header"));
        }
        if bytes[..8] != CHECKPOINT_MAGIC {
            return Err(torn("bad magic"));
        }
        let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if version != CHECKPOINT_VERSION {
            return Err(torn(format!(
                "version {version} (this build reads {CHECKPOINT_VERSION})"
            )));
        }
        let len = u64::from_le_bytes([
            bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
        ]) as usize;
        let crc = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]);
        let payload = &bytes[HEADER_LEN..];
        if payload.len() != len {
            return Err(torn(format!(
                "payload length {} != header's {len}",
                payload.len()
            )));
        }
        if crc32(payload) != crc {
            return Err(torn("CRC mismatch"));
        }

        let mut r = Reader::new(payload);
        let generation = r.u64()?;
        let config = r.string()?;
        let cfg_hash = r.u64()?;
        let ledger = CheckpointLedger {
            injected: r.u64()?,
            tx: r.u64()?,
            drops: r.u64()?,
        };
        let quiesce_ns = r.u64()?;
        let n_elem = r.count(12)?;
        let mut elements = Vec::with_capacity(n_elem);
        for _ in 0..n_elem {
            let name = r.string()?;
            let class = r.string()?;
            let n_ctr = r.count(12)?;
            let mut counters = Vec::with_capacity(n_ctr);
            for _ in 0..n_ctr {
                let k = r.string()?;
                let v = r.u64()?;
                counters.push((k, v));
            }
            let packets = r.packets()?;
            elements.push(ElementRecord {
                name,
                class,
                counters,
                packets,
            });
        }
        let n_dev = r.count(12)?;
        let mut devices = Vec::with_capacity(n_dev);
        for _ in 0..n_dev {
            let name = r.string()?;
            let rx = r.packets()?;
            let tx = r.packets()?;
            devices.push(DeviceRecord { name, rx, tx });
        }
        if !r.done() {
            return Err(torn("trailing bytes after payload"));
        }
        Ok(Checkpoint {
            generation,
            config,
            config_hash: cfg_hash,
            ledger,
            quiesce_ns,
            elements,
            devices,
        })
    }
}

fn torn(message: impl std::fmt::Display) -> Error {
    Error::Archive {
        message: format!("checkpoint: {message}"),
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_packets(out: &mut Vec<u8>, packets: &[PacketRecord]) {
    put_u32(out, packets.len() as u32);
    for p in packets {
        put_u32(out, p.data.len() as u32);
        out.extend_from_slice(&p.data);
        out.push(p.paint);
        let mut flags = 0u8;
        if p.dst_ip.is_some() {
            flags |= 1;
        }
        if p.device.is_some() {
            flags |= 2;
        }
        if p.link_broadcast {
            flags |= 4;
        }
        if p.fix_ip_src {
            flags |= 8;
        }
        out.push(flags);
        put_u32(out, p.dst_ip.unwrap_or(0));
        put_u32(out, p.device.unwrap_or(0) as u32);
        put_u64(out, p.timestamp);
    }
}

/// Bounds-checked little-endian reader over the payload; every method
/// returns `Err` instead of slicing out of range.
struct Reader<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(b: &'a [u8]) -> Reader<'a> {
        Reader { b, at: 0 }
    }

    fn done(&self) -> bool {
        self.at == self.b.len()
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.at
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(torn(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.at,
                self.remaining()
            )));
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A count of items each at least `min_size` bytes: bounded by the
    /// remaining payload, so a bit-flipped length can never drive a
    /// multi-gigabyte allocation.
    fn count(&mut self, min_size: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_size.max(1)) > self.remaining() {
            return Err(torn(format!(
                "impossible count {n} (min item {min_size}B, {}B remain)",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let b = self.bytes(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| torn("string is not UTF-8"))
    }

    fn packets(&mut self) -> Result<Vec<PacketRecord>> {
        let n = self.count(22)?; // data-len + paint + flags + dst + dev + ts
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let dlen = self.u32()? as usize;
            let data = self.bytes(dlen)?.to_vec();
            let paint = self.u8()?;
            let flags = self.u8()?;
            let dst = self.u32()?;
            let dev = self.u32()?;
            let timestamp = self.u64()?;
            out.push(PacketRecord {
                data,
                paint,
                dst_ip: (flags & 1 != 0).then_some(dst),
                device: (flags & 2 != 0).then_some(dev as u16),
                link_broadcast: flags & 4 != 0,
                fix_ip_src: flags & 8 != 0,
                timestamp,
            });
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Engine surface
// ---------------------------------------------------------------------

/// Everything an engine hands the checkpoint daemon: the element and
/// device records, its aggregate drop gauge, and how long the data plane
/// stood still for the cut.
#[derive(Debug, Default)]
pub struct EngineSnapshot {
    /// Per-element records.
    pub elements: Vec<ElementRecord>,
    /// Per-device pending traffic.
    pub devices: Vec<DeviceRecord>,
    /// The engine's total drop gauge at snapshot time.
    pub total_drops: u64,
    /// Data-plane pause for this cut, in nanoseconds.
    pub quiesce_ns: u64,
}

/// What a restore accomplished. The restored engine's drop gauge is
/// topped up to the checkpoint's value, so counters stay monotonic
/// across incarnations even when per-element restore is partial.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Element records applied to a matching element.
    pub matched: u64,
    /// Element records with no matching element (config drift).
    pub unmatched: u64,
    /// Packets re-materialized into elements and device queues.
    pub packets_restored: u64,
    /// Packets whose home no longer exists; counted as retired drops so
    /// the ledger stays exact.
    pub packets_orphaned: u64,
    /// How much the drop gauge was advanced to match the checkpoint.
    pub drops_topped_up: u64,
}

// ---------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------

/// A directory of checkpoint generations with atomic writes and bounded
/// retention.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory keeping at most
    /// `retain` generations (minimum 1).
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<CheckpointStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| Error::runtime(format!("checkpoint dir {}: {e}", dir.display())))?;
        Ok(CheckpointStore {
            dir,
            retain: retain.max(1),
        })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File path of a generation.
    pub fn path_of(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{generation:020}.ckpt"))
    }

    /// Generations present on disk (valid or not), ascending.
    pub fn generations(&self) -> Vec<u64> {
        let mut gens: Vec<u64> = match fs::read_dir(&self.dir) {
            Ok(rd) => rd
                .filter_map(|e| {
                    let name = e.ok()?.file_name().into_string().ok()?;
                    let gen = name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?;
                    gen.parse().ok()
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        gens.sort_unstable();
        gens
    }

    /// The generation number a new checkpoint should use: one past the
    /// newest on disk.
    pub fn next_generation(&self) -> u64 {
        self.generations().last().map_or(1, |g| g + 1)
    }

    /// Atomically writes a checkpoint: temporary file, sync, rename, and
    /// retention pruning (oldest generations beyond the bound removed).
    ///
    /// # Errors
    ///
    /// [`Error::Runtime`] on any I/O failure; a failed write leaves at
    /// most a stray `.tmp` file, never a torn generation under its
    /// final name.
    pub fn save(&self, ckpt: &Checkpoint) -> Result<PathBuf> {
        let bytes = ckpt.encode();
        let path = self.path_of(ckpt.generation);
        let tmp = self.dir.join(format!("ckpt-{:020}.tmp", ckpt.generation));
        let io = |what: &str, e: std::io::Error| {
            Error::runtime(format!("checkpoint {what} {}: {e}", tmp.display()))
        };
        let mut f = fs::File::create(&tmp).map_err(|e| io("create", e))?;
        f.write_all(&bytes).map_err(|e| io("write", e))?;
        // Durability is best-effort on filesystems without fsync; the
        // CRC catches whatever a crash tears.
        let _ = f.sync_all();
        drop(f);
        fs::rename(&tmp, &path)
            .map_err(|e| Error::runtime(format!("checkpoint rename {}: {e}", path.display())))?;
        let gens = self.generations();
        if gens.len() > self.retain {
            for old in &gens[..gens.len() - self.retain] {
                let _ = fs::remove_file(self.path_of(*old));
            }
        }
        Ok(path)
    }

    /// Loads and decodes one generation.
    ///
    /// # Errors
    ///
    /// [`Error::Archive`] for a torn/corrupt file, [`Error::Runtime`]
    /// for an unreadable one.
    pub fn load(&self, generation: u64) -> Result<Checkpoint> {
        let path = self.path_of(generation);
        let bytes = fs::read(&path)
            .map_err(|e| Error::runtime(format!("checkpoint read {}: {e}", path.display())))?;
        Checkpoint::decode(&bytes)
    }

    /// The newest checkpoint that decodes cleanly, scanning generations
    /// newest-first and skipping (counting) torn or corrupt files.
    /// Returns the checkpoint (if any) and how many newer files were
    /// discarded on the way to it.
    pub fn latest_valid(&self) -> (Option<Checkpoint>, u64) {
        let mut torn = 0;
        for generation in self.generations().into_iter().rev() {
            match self.load(generation) {
                Ok(ckpt) => return (Some(ckpt), torn),
                Err(_) => torn += 1,
            }
        }
        (None, torn)
    }
}

// ---------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------

/// The checkpoint daemon: owns a [`CheckpointStore`], the
/// currently-installed configuration text, an interval policy, and the
/// always-live [`CheckpointGauges`]. Drive it from whatever loop owns
/// the engine — a pcap replay window, the reopt daemon between traffic
/// windows — via [`CheckpointDaemon::note_traffic`] and
/// [`CheckpointDaemon::checkpoint_now`].
///
/// [`CheckpointGauges`]: crate::telemetry::CheckpointGauges
#[derive(Debug)]
pub struct CheckpointDaemon {
    store: CheckpointStore,
    /// Packets between interval checkpoints (0 disables the interval;
    /// explicit cuts still work).
    interval: u64,
    since: u64,
    config: String,
    gauges: crate::telemetry::CheckpointGauges,
}

impl CheckpointDaemon {
    /// Creates a daemon cutting a checkpoint every `interval` packets
    /// (0 = explicit cuts only), stamping each with `config` as the
    /// installed configuration.
    pub fn new(store: CheckpointStore, interval: u64, config: String) -> CheckpointDaemon {
        CheckpointDaemon {
            store,
            interval,
            since: 0,
            config,
            gauges: Default::default(),
        }
    }

    /// The store this daemon writes to.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// The configuration text the next checkpoint will carry.
    pub fn config(&self) -> &str {
        &self.config
    }

    /// Replaces the installed-configuration text (call after a kept hot
    /// swap, so the next checkpoint resumes the *optimized* config).
    pub fn set_config(&mut self, config: String) {
        self.config = config;
    }

    /// Gauge snapshot.
    pub fn gauges(&self) -> crate::telemetry::CheckpointGauges {
        self.gauges
    }

    /// Records `packets` of traffic since the last cut; returns true
    /// when the interval policy says a checkpoint is due.
    pub fn note_traffic(&mut self, packets: u64) -> bool {
        if self.interval == 0 {
            return false;
        }
        self.since += packets;
        self.since >= self.interval
    }

    /// Cuts and persists a checkpoint now, with the harness's ledger
    /// (`injected`, `tx`) as of this instant. Returns the generation
    /// written.
    ///
    /// # Errors
    ///
    /// Snapshot or I/O failures (counted in the failure gauge); the
    /// engine keeps running either way.
    pub fn checkpoint_now<E: Engine + ?Sized>(
        &mut self,
        engine: &mut E,
        injected: u64,
        tx: u64,
    ) -> Result<u64> {
        self.since = 0;
        let snap = match engine.snapshot() {
            Ok(s) => s,
            Err(e) => {
                self.gauges.checkpoint_failures += 1;
                return Err(e);
            }
        };
        let ckpt = Checkpoint {
            generation: self.store.next_generation(),
            config_hash: config_hash(&self.config),
            config: self.config.clone(),
            ledger: CheckpointLedger {
                injected,
                tx,
                drops: snap.total_drops,
            },
            quiesce_ns: snap.quiesce_ns,
            elements: snap.elements,
            devices: snap.devices,
        };
        match self.store.save(&ckpt) {
            Ok(_) => {
                self.gauges.checkpoints_written += 1;
                self.gauges.last_generation = ckpt.generation;
                self.gauges.quiesce_ns_last = ckpt.quiesce_ns;
                self.gauges.quiesce_ns_total += ckpt.quiesce_ns;
                self.gauges.packets_persisted += ckpt.packet_count();
                Ok(ckpt.generation)
            }
            Err(e) => {
                self.gauges.checkpoint_failures += 1;
                Err(e)
            }
        }
    }

    /// Finds the newest valid checkpoint for a warm restart, counting
    /// every newer torn/corrupt file it had to skip. `None` means cold
    /// start (also counted).
    pub fn recover(&mut self) -> Option<Checkpoint> {
        let (ckpt, torn) = self.store.latest_valid();
        self.gauges.torn_discarded += torn;
        if ckpt.is_none() {
            self.gauges.cold_starts += 1;
        }
        ckpt
    }

    /// Records a completed warm restart from `generation`. The restored
    /// config should also be installed via
    /// [`CheckpointDaemon::set_config`].
    pub fn note_restored(&mut self, generation: u64) {
        self.gauges.restores += 1;
        self.gauges.last_generation = self.gauges.last_generation.max(generation);
    }

    /// Records a restore attempt that fell back to a cold start (e.g. a
    /// checkpoint whose config no longer parses).
    pub fn note_cold_start(&mut self) {
        self.gauges.cold_starts += 1;
    }
}
