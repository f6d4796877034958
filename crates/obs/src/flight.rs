//! Black-box flight recorder: bounded rings of recent runtime events.
//!
//! The telemetry hub ([`crate::telemetry`]) counts *how much* work the
//! scheduler did; the stall report says *who* is stuck. Neither can say
//! *what happened last* — when the PR-5 lost-wakeup race tripped the
//! watchdog, there was no recent-event history to read. This module is
//! the missing black box: every worker owns a fixed-capacity ring of
//! compact fixed-size records (kind, rank, aux payload, logical step,
//! wall-clock µs, plus a wrap-detecting sequence number). Writers
//! overwrite the oldest slot, so memory stays bounded no matter how
//! long the run is. Each shard has exactly one writer (its worker
//! thread), so the hot path has no RMW, CAS loop, lock or division:
//! one flag load, two cursor loads, seven plain stores (five record
//! words into one or two cache lines of the ring, the two cursors) —
//! 3–4 ns a record while the ring stays in cache. The shard headers
//! are aligned like the telemetry hub's
//! ([`crate::telemetry::SHARD_ALIGN`]), so the cursor a worker stores
//! on every record shares no cache line with its neighbour's. The
//! recorder is attached via the same `Option` discipline as the
//! telemetry hub and costs nothing when absent.
//!
//! On a watchdog stall, worker panic or monitor violation the runtime
//! calls [`FlightRecorder::freeze`] — recording stops, the rings keep
//! their final contents — and [`FlightRecorder::dump`] extracts a
//! [`FlightDump`]: per-shard tails in write order plus merge/filter
//! helpers used to build the `ct-postmortem-v1` bundle.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::json::{JsonObject, Value};
use crate::telemetry::SHARD_ALIGN;

/// Sentinel for records that concern no particular rank (for example
/// iteration markers and coordinator batches); rendered as JSON `null`.
pub const NO_RANK: u32 = u32::MAX;

/// Words of ring storage per record: sequence number, packed
/// kind/rank, aux payload, logical step, wall-clock µs.
const RECORD_WORDS: usize = 5;

/// What a flight record describes. One schema is shared by the cluster
/// runtime and the LogP simulator so post-mortem tooling reads both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlightKind {
    /// A broadcast iteration was installed (`aux` = broadcast id on the
    /// cluster, seed in the simulator).
    IterStart,
    /// A broadcast iteration finished (`aux` = 1 if every live rank was
    /// colored, 0 otherwise; `step` = latency in µs / LogP steps).
    IterEnd,
    /// A worker began a scheduling quantum for `rank` (`aux` =
    /// broadcast id — or 0 when the quantum served several concurrent
    /// broadcasts — `step` = µs into the iteration).
    QuantumStart,
    /// A worker finished a scheduling quantum for `rank`.
    QuantumEnd,
    /// A quantum found no installed iteration for `rank` and was
    /// discarded as stale.
    StaleQuantum,
    /// A message was pushed into `rank`'s mailbox; `aux` packs
    /// `broadcast_id << 32 | pushing_rank` so a stall can be attributed
    /// to the topic that caused it (decode with
    /// [`FlightRecord::push_peer`] / [`FlightRecord::push_bcast`]).
    MailboxPush,
    /// `rank` drained its mailbox (`aux` = messages taken).
    MailboxDrain,
    /// `rank` armed a timer (`aux` = absolute deadline in µs on the
    /// cluster timeline, `step` = requested wake time).
    TimerArm,
    /// A timer fired and re-enqueued `rank`.
    TimerFire,
    /// `rank` was woken (made runnable); `aux` names the waking rank.
    Wake,
    /// The end-of-quantum recheck re-armed `rank` (lost-wakeup guard).
    Recheck,
    /// A worker flushed a coordinator batch (`aux` = ranks in the
    /// batch).
    CoordBatch,
}

impl FlightKind {
    /// Every kind, in code order.
    pub const ALL: [FlightKind; 12] = [
        FlightKind::IterStart,
        FlightKind::IterEnd,
        FlightKind::QuantumStart,
        FlightKind::QuantumEnd,
        FlightKind::StaleQuantum,
        FlightKind::MailboxPush,
        FlightKind::MailboxDrain,
        FlightKind::TimerArm,
        FlightKind::TimerFire,
        FlightKind::Wake,
        FlightKind::Recheck,
        FlightKind::CoordBatch,
    ];

    /// Stable wire name used in dumps.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::IterStart => "iter_start",
            FlightKind::IterEnd => "iter_end",
            FlightKind::QuantumStart => "quantum_start",
            FlightKind::QuantumEnd => "quantum_end",
            FlightKind::StaleQuantum => "stale_quantum",
            FlightKind::MailboxPush => "mailbox_push",
            FlightKind::MailboxDrain => "mailbox_drain",
            FlightKind::TimerArm => "timer_arm",
            FlightKind::TimerFire => "timer_fire",
            FlightKind::Wake => "wake",
            FlightKind::Recheck => "recheck",
            FlightKind::CoordBatch => "coord_batch",
        }
    }

    /// Parse the stable wire name back; `None` for anything else.
    pub fn parse(name: &str) -> Option<FlightKind> {
        FlightKind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn code(self) -> u32 {
        self as u32
    }

    fn from_code(code: u32) -> Option<FlightKind> {
        FlightKind::ALL.get(code as usize).copied()
    }
}

/// One decoded flight-recorder entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Per-shard sequence number (0-based write index). Gaps between
    /// `written - records.len()` and the first retained `seq` are
    /// records lost to ring wrap.
    pub seq: u64,
    /// What happened.
    pub kind: FlightKind,
    /// The rank concerned, or [`NO_RANK`].
    pub rank: u32,
    /// Kind-specific payload (pusher/waker rank, drain count, deadline,
    /// batch size, broadcast id, completion flag — see [`FlightKind`]).
    pub aux: u64,
    /// Logical step: µs into the iteration on the cluster, LogP steps
    /// in the simulator.
    pub step: u64,
    /// Wall-clock µs since the cluster base (0 in the simulator, which
    /// has no wall clock).
    pub wall_us: u64,
}

impl FlightRecord {
    /// The pushing rank of a [`FlightKind::MailboxPush`] record (the
    /// low half of its packed `aux`).
    pub fn push_peer(&self) -> u32 {
        self.aux as u32
    }

    /// The broadcast id of a [`FlightKind::MailboxPush`] record (the
    /// high half of its packed `aux`); 0 on records written before the
    /// id was threaded through.
    pub fn push_bcast(&self) -> u64 {
        self.aux >> 32
    }

    /// Whether this record concerns `rank` — as the subject, or as the
    /// named peer of a push/wake.
    pub fn involves(&self, rank: u32) -> bool {
        if self.rank == rank {
            return true;
        }
        match self.kind {
            // The push peer shares the aux word with the broadcast id.
            FlightKind::MailboxPush => self.push_peer() == rank,
            FlightKind::Wake => self.aux == u64::from(rank),
            _ => false,
        }
    }

    /// Render as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        self.write_fields(&mut obj);
        obj.finish()
    }

    /// Append the record's fields to `obj` (a postmortem's merged views
    /// lead them with the shard index).
    pub(crate) fn write_fields(&self, obj: &mut JsonObject) {
        obj.field_u64("seq", self.seq);
        obj.field_str("kind", self.kind.name());
        obj.field_opt_u64(
            "rank",
            (self.rank != NO_RANK).then_some(u64::from(self.rank)),
        );
        obj.field_u64("aux", self.aux);
        obj.field_u64("step", self.step);
        obj.field_u64("wall_us", self.wall_us);
    }

    /// Read a record written by [`FlightRecord::to_json`].
    pub fn from_value(v: &Value) -> Result<FlightRecord, String> {
        let kind = v.str_field("kind")?;
        Ok(FlightRecord {
            seq: v.int_field("seq")?,
            kind: FlightKind::parse(kind).ok_or_else(|| format!("kind: unknown kind {kind:?}"))?,
            rank: v.opt_int_field("rank")?.unwrap_or(NO_RANK),
            aux: v.int_field("aux")?,
            step: v.int_field("step")?,
            wall_us: v.int_field("wall_us")?,
        })
    }
}

/// One writer shard: a ring of `cap` record slots, the count of
/// records ever written (which doubles as the next sequence number)
/// and the ring slot the next record goes to. The header is
/// [`SHARD_ALIGN`]-aligned, `written` first: the writer stores both
/// cursors on every record, and unaligned 32-byte shards put two
/// workers' cursors on one cache line.
#[repr(C, align(128))]
struct Shard {
    written: AtomicU64,
    /// `written % cap`: the writer steps it and wraps it with a
    /// comparison, so that a record costs no division.
    next: AtomicU64,
    slots: Vec<AtomicU64>,
}

const _: () = assert!(std::mem::align_of::<Shard>() == SHARD_ALIGN);

impl Shard {
    fn new(cap: usize) -> Shard {
        let mut slots = Vec::with_capacity(cap * RECORD_WORDS);
        slots.resize_with(cap * RECORD_WORDS, || AtomicU64::new(0));
        Shard {
            written: AtomicU64::new(0),
            next: AtomicU64::new(0),
            slots,
        }
    }
}

/// The recorder: one single-writer ring per worker (plus one extra
/// shard for the coordinator thread), shared read-only with the dump
/// path. See the module docs for the design.
pub struct FlightRecorder {
    shards: Vec<Shard>,
    cap: usize,
    frozen: AtomicBool,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("shards", &self.shards.len())
            .field("cap", &self.cap)
            .field("frozen", &self.is_frozen())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder with `shards` independent rings of `cap` records
    /// each. Both are clamped to at least 1.
    pub fn new(shards: usize, cap: usize) -> FlightRecorder {
        let cap = cap.max(1);
        let shards = (0..shards.max(1)).map(|_| Shard::new(cap)).collect();
        FlightRecorder {
            shards,
            cap,
            frozen: AtomicBool::new(false),
        }
    }

    /// Ring capacity per shard, in records.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Number of writer shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Append one record to `shard`'s ring (an index past the last
    /// shard wraps; the oldest slot is overwritten). The caller must be
    /// the shard's only writer; the hot path is then three relaxed
    /// loads and seven stores. No-op once frozen.
    pub fn record(
        &self,
        shard: usize,
        kind: FlightKind,
        rank: u32,
        aux: u64,
        step: u64,
        wall_us: u64,
    ) {
        if self.frozen.load(Ordering::Relaxed) {
            return;
        }
        let sh = match self.shards.get(shard) {
            Some(sh) => sh,
            None => &self.shards[shard % self.shards.len()],
        };
        let seq = sh.written.load(Ordering::Relaxed);
        let slot = sh.next.load(Ordering::Relaxed) as usize;
        let base = slot * RECORD_WORDS;
        let words = &sh.slots[base..base + RECORD_WORDS];
        words[0].store(seq, Ordering::Relaxed);
        words[1].store(
            (u64::from(kind.code()) << 32) | u64::from(rank),
            Ordering::Relaxed,
        );
        words[2].store(aux, Ordering::Relaxed);
        words[3].store(step, Ordering::Relaxed);
        words[4].store(wall_us, Ordering::Relaxed);
        let next = if slot + 1 == self.cap { 0 } else { slot + 1 };
        sh.next.store(next as u64, Ordering::Relaxed);
        sh.written.store(seq + 1, Ordering::Release);
    }

    /// Stop all recording permanently; the rings keep their final
    /// contents for [`FlightRecorder::dump`].
    pub fn freeze(&self) {
        self.frozen.store(true, Ordering::SeqCst);
    }

    /// Whether [`FlightRecorder::freeze`] has been called.
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::SeqCst)
    }

    /// Decode every shard's retained tail, oldest first. Slots whose
    /// embedded sequence number does not match the expected one (a
    /// writer racing the dump mid-record) are skipped; after `freeze`
    /// plus worker teardown the decode is exact.
    pub fn dump(&self) -> FlightDump {
        let mut shards = Vec::with_capacity(self.shards.len());
        for (i, sh) in self.shards.iter().enumerate() {
            let written = sh.written.load(Ordering::Acquire);
            let first = written.saturating_sub(self.cap as u64);
            let mut records = Vec::with_capacity((written - first) as usize);
            for seq in first..written {
                let base = (seq as usize % self.cap) * RECORD_WORDS;
                if sh.slots[base].load(Ordering::Relaxed) != seq {
                    continue;
                }
                let packed = sh.slots[base + 1].load(Ordering::Relaxed);
                let Some(kind) = FlightKind::from_code((packed >> 32) as u32) else {
                    continue;
                };
                records.push(FlightRecord {
                    seq,
                    kind,
                    rank: packed as u32,
                    aux: sh.slots[base + 2].load(Ordering::Relaxed),
                    step: sh.slots[base + 3].load(Ordering::Relaxed),
                    wall_us: sh.slots[base + 4].load(Ordering::Relaxed),
                });
            }
            shards.push(ShardTail {
                shard: i,
                written,
                lost: first,
                records,
            });
        }
        FlightDump {
            cap: self.cap as u64,
            shards,
        }
    }
}

/// The retained tail of one writer shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardTail {
    /// Shard index (worker index; the last shard is the coordinator).
    pub shard: usize,
    /// Records ever written to this shard.
    pub written: u64,
    /// Records lost to ring wrap (`written - records retained`).
    pub lost: u64,
    /// The retained records, oldest first.
    pub records: Vec<FlightRecord>,
}

impl ShardTail {
    fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("shard", self.shard as u64);
        obj.field_u64("written", self.written);
        obj.field_u64("lost", self.lost);
        obj.field_array("records", self.records.iter().map(FlightRecord::to_json));
        obj.finish()
    }

    fn from_value(v: &Value) -> Result<ShardTail, String> {
        Ok(ShardTail {
            shard: v.int_field("shard")?,
            written: v.int_field("written")?,
            lost: v.int_field("lost")?,
            records: v.items("records", FlightRecord::from_value)?,
        })
    }
}

/// Frozen recorder contents: every shard's tail plus merge/filter
/// helpers for post-mortem assembly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightDump {
    /// Ring capacity per shard, in records.
    pub cap: u64,
    /// Per-shard tails, shard index ascending.
    pub shards: Vec<ShardTail>,
}

impl FlightDump {
    /// All retained records across shards merged into one timeline,
    /// ordered by (wall-µs, shard, seq) — deterministic for any fixed
    /// ring contents. Each entry carries its shard index.
    pub fn merged(&self) -> Vec<(usize, FlightRecord)> {
        let mut all: Vec<(usize, FlightRecord)> = Vec::new();
        for tail in &self.shards {
            all.extend(tail.records.iter().map(|r| (tail.shard, *r)));
        }
        all.sort_by_key(|(shard, r)| (r.wall_us, *shard, r.seq));
        all
    }

    /// The last `n` entries of [`FlightDump::merged`].
    pub fn merged_tail(&self, n: usize) -> Vec<(usize, FlightRecord)> {
        let mut all = self.merged();
        let keep = all.len().saturating_sub(n);
        all.drain(..keep);
        all
    }

    /// The last `k` merged records involving `rank` (as subject or as
    /// push/wake peer), oldest first.
    pub fn rank_tail(&self, rank: u32, k: usize) -> Vec<(usize, FlightRecord)> {
        let mut hits: Vec<(usize, FlightRecord)> = self
            .merged()
            .into_iter()
            .filter(|(_, r)| r.involves(rank))
            .collect();
        let keep = hits.len().saturating_sub(k);
        hits.drain(..keep);
        hits
    }

    /// Records ever written across all shards.
    pub fn total_written(&self) -> u64 {
        self.shards.iter().map(|s| s.written).sum()
    }

    /// Records lost to ring wrap across all shards.
    pub fn total_lost(&self) -> u64 {
        self.shards.iter().map(|s| s.lost).sum()
    }

    /// Render as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("cap", self.cap);
        obj.field_array("shards", self.shards.iter().map(ShardTail::to_json));
        obj.finish()
    }

    /// Read a dump written by [`FlightDump::to_json`].
    pub fn from_value(v: &Value) -> Result<FlightDump, String> {
        Ok(FlightDump {
            cap: v.int_field("cap")?,
            shards: v.items("shards", ShardTail::from_value)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression test for the false sharing that made
    /// `cluster_p1024_observed` bimodal: the cursor stored on every
    /// record must not share a cache line with the next shard's.
    #[test]
    fn neighbouring_shards_share_no_cache_line() {
        for shards in 1..=4 {
            let rec = FlightRecorder::new(shards, 8);
            let hot: Vec<usize> = rec
                .shards
                .iter()
                .map(|s| std::ptr::from_ref(&s.written) as usize)
                .collect();
            for addr in &hot {
                assert_eq!(addr % SHARD_ALIGN, 0, "{shards} shards: {hot:x?}");
            }
            for pair in hot.windows(2) {
                assert!(
                    pair[1] - pair[0] >= SHARD_ALIGN,
                    "{shards} shards: {hot:x?}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_shard_index_wraps() {
        let rec = FlightRecorder::new(2, 4);
        rec.record(3, FlightKind::Wake, 7, 0, 0, 0); // 3 % 2 == shard 1
        let dump = rec.dump();
        assert_eq!(dump.shards[0].written, 0);
        assert_eq!(dump.shards[1].records[0].rank, 7);
    }

    #[test]
    fn retains_exactly_the_most_recent_cap_records() {
        let rec = FlightRecorder::new(1, 4);
        for i in 0..10u64 {
            rec.record(0, FlightKind::Wake, i as u32, i, i, 100 + i);
        }
        let dump = rec.dump();
        let tail = &dump.shards[0];
        assert_eq!(tail.written, 10);
        assert_eq!(tail.lost, 6);
        let seqs: Vec<u64> = tail.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(tail.records[0].rank, 6);
        assert_eq!(tail.records[3].wall_us, 109);
    }

    #[test]
    fn freeze_stops_recording() {
        let rec = FlightRecorder::new(2, 8);
        rec.record(0, FlightKind::IterStart, NO_RANK, 1, 0, 0);
        rec.freeze();
        rec.record(0, FlightKind::IterEnd, NO_RANK, 1, 0, 0);
        assert!(rec.is_frozen());
        let dump = rec.dump();
        assert_eq!(dump.shards[0].written, 1);
        assert_eq!(dump.shards[0].records[0].kind, FlightKind::IterStart);
        assert_eq!(dump.shards[1].written, 0);
    }

    #[test]
    fn merged_orders_by_wall_then_shard() {
        let rec = FlightRecorder::new(2, 8);
        rec.record(1, FlightKind::QuantumStart, 2, 0, 0, 50);
        rec.record(0, FlightKind::QuantumStart, 1, 0, 0, 40);
        rec.record(0, FlightKind::MailboxPush, 3, 1, 0, 60);
        let merged = rec.dump().merged();
        let order: Vec<(u64, usize)> = merged.iter().map(|(s, r)| (r.wall_us, *s)).collect();
        assert_eq!(order, vec![(40, 0), (50, 1), (60, 0)]);
    }

    #[test]
    fn rank_tail_sees_pushes_to_and_from_the_rank() {
        let rec = FlightRecorder::new(1, 16);
        rec.record(0, FlightKind::MailboxPush, 3, 1, 0, 10); // 1 -> 3
        rec.record(0, FlightKind::MailboxPush, 5, 3, 0, 20); // 3 -> 5
        rec.record(0, FlightKind::MailboxPush, 2, 0, 0, 30); // 0 -> 2
        let tail = rec.dump().rank_tail(3, 8);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].1.wall_us, 10);
        assert_eq!(tail[1].1.wall_us, 20);
    }

    #[test]
    fn json_is_deterministic_and_marks_no_rank_as_null() {
        let rec = FlightRecorder::new(1, 4);
        rec.record(0, FlightKind::IterStart, NO_RANK, 7, 0, 1_000);
        rec.record(0, FlightKind::MailboxPush, 3, 1, 12, 1_010);
        let json = rec.dump().to_json();
        assert!(
            json.starts_with("{\"cap\":4,\"shards\":[{\"shard\":0"),
            "{json}"
        );
        assert!(
            json.contains("{\"seq\":0,\"kind\":\"iter_start\",\"rank\":null,\"aux\":7,\"step\":0,\"wall_us\":1000}"),
            "{json}"
        );
        assert!(
            json.contains("{\"seq\":1,\"kind\":\"mailbox_push\",\"rank\":3,\"aux\":1,\"step\":12,\"wall_us\":1010}"),
            "{json}"
        );
        assert_eq!(json, rec.dump().to_json());
    }

    #[test]
    fn kind_codes_and_names_round_trip() {
        for kind in FlightKind::ALL {
            assert_eq!(FlightKind::from_code(kind.code()), Some(kind));
            assert_eq!(FlightKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(FlightKind::parse("warp"), None);
        assert_eq!(FlightKind::from_code(FlightKind::ALL.len() as u32), None);
    }
}
