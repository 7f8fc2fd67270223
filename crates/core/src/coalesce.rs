//! Write coalescer: merges small tensor stores into large sequential
//! segments before they reach the [`crate::IoEngine`] queues.
//!
//! The paper's SSD write path stays dense because activations leave the
//! GPU as large sequential writes; a store job per tensor re-introduces
//! exactly the per-operation overheads (submission cost, FTL mapping
//! churn, partial erase-block programs) the design engineers away. The
//! coalescer sits between the cache's store entry points (`pack` for
//! activations, `offload_state` for gradients and optimizer state) and
//! the per-tier store queues: tensors are *staged* into the open segment
//! of their (placement tier, [`OffloadClass`]), and when the segment
//! reaches the configured size it *seals* — one I/O job, one device
//! write operation ([`crate::OffloadTarget::write_batch`]) — while the
//! per-segment index keeps every member's identity for loads, recovery
//! and tier accounting. A segment never mixes classes, so recovery and
//! the per-class counters charge each segment to exactly one class.
//!
//! Invariants (pinned by the proptest suite), per tier and per
//! [`OffloadClass`]:
//!
//! * **conservation** — `staged == sealed + evicted + open`: every
//!   staged byte is in exactly one of the sealed segments, the evicted
//!   set (members consumed before their segment filled, served from
//!   memory like a forwarding hit), or the still-open segments — which
//!   include *held* ones (see below).
//! * **identity** — a sealed segment's entries sum to its byte total,
//!   every entry carries the segment's class, and a record id appears
//!   in at most one open or sealed segment.
//!
//! A sealed segment the cache decides not to submit yet is handed back
//! with [`WriteCoalescer::hold`]: it takes no new members, its bytes
//! count as open again, its members can still be evicted, and the next
//! [`WriteCoalescer::seal_tier`] / [`WriteCoalescer::seal_all`] seals it
//! (under a fresh id) ahead of the tier's open segments.
//!
//! The coalescer is a passive data structure: the cache drives staging,
//! eviction, holding and sealing, owns the sealed-segment lifecycle
//! (submit → commit / recover), and holds the lock. Disabled
//! (`segment_bytes == 0`) it stages nothing and the cache takes the
//! classic one-job-per-tensor path.

use crate::placement::OffloadClass;
use crate::tier::TierId;
use std::collections::HashMap;

/// One member of a segment: a staged record and its payload size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEntry {
    /// The cache-internal record id of the staged tensor.
    pub record: u64,
    /// Payload bytes the record contributes to the segment.
    pub bytes: u64,
    /// Traffic class the bytes are accounted under.
    pub class: OffloadClass,
}

/// A sealed segment, ready for one batched store: the per-segment index
/// that keeps member identity through the coalesced path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedSegment {
    /// Monotonic segment id (unique per coalescer).
    pub id: u64,
    /// The tier the whole segment lands on.
    pub tier: TierId,
    /// The traffic class of every member.
    pub class: OffloadClass,
    /// Members in staging order.
    pub entries: Vec<SegmentEntry>,
}

impl SealedSegment {
    /// Sum of the members' payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }
}

/// Byte and segment counters kept per tier, per class, and globally.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CoalesceCounts {
    /// Bytes ever staged into segments.
    pub staged_bytes: u64,
    /// Bytes sealed into submitted segments.
    pub sealed_bytes: u64,
    /// Bytes evicted from open segments before sealing.
    pub evicted_bytes: u64,
    /// Segments sealed.
    pub segments: u64,
    /// Members carried by sealed segments.
    pub entries_sealed: u64,
}

#[derive(Debug, Default)]
struct OpenSegment {
    entries: Vec<SegmentEntry>,
    bytes: u64,
}

/// The staging buffer between the cache and the store queues (see
/// module docs). One open segment per (tier, class); sealing is driven
/// by the cache at the size threshold, at stage-exit drains, at flush,
/// and before a staged state tensor is read back.
#[derive(Debug)]
pub struct WriteCoalescer {
    segment_bytes: u64,
    next_id: u64,
    open: HashMap<(TierId, OffloadClass), OpenSegment>,
    /// Segments sealed and then held back unsubmitted, in hold order.
    held: Vec<SealedSegment>,
    total: CoalesceCounts,
    by_tier: HashMap<TierId, CoalesceCounts>,
    by_class: HashMap<usize, CoalesceCounts>,
}

impl WriteCoalescer {
    /// A coalescer sealing segments at `segment_bytes` (0 = disabled).
    pub fn new(segment_bytes: u64) -> WriteCoalescer {
        WriteCoalescer {
            segment_bytes,
            next_id: 0,
            open: HashMap::new(),
            held: Vec::new(),
            total: CoalesceCounts::default(),
            by_tier: HashMap::new(),
            by_class: HashMap::new(),
        }
    }

    /// Whether staging is active (`segment_bytes > 0`).
    pub fn enabled(&self) -> bool {
        self.segment_bytes > 0
    }

    /// The configured segment size in bytes.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Stages a record into the open segment of its (tier, class).
    /// Returns the sealed segment when this staging filled it to the
    /// threshold.
    /// Disabled coalescers stage nothing and return `None` — the caller
    /// must check [`WriteCoalescer::enabled`] and fall back to the
    /// per-tensor path.
    pub fn stage(
        &mut self,
        tier: TierId,
        record: u64,
        bytes: u64,
        class: OffloadClass,
    ) -> Option<SealedSegment> {
        if !self.enabled() {
            return None;
        }
        let open = self.open.entry((tier, class)).or_default();
        open.entries.push(SegmentEntry {
            record,
            bytes,
            class,
        });
        open.bytes += bytes;
        self.total.staged_bytes += bytes;
        self.by_tier.entry(tier).or_default().staged_bytes += bytes;
        self.by_class.entry(class.index()).or_default().staged_bytes += bytes;
        if open.bytes >= self.segment_bytes {
            self.seal(tier, class)
        } else {
            None
        }
    }

    /// Removes a staged record from its tier's open or held segments (the
    /// record was consumed, forwarded or released before its segment was
    /// submitted). Returns its entry, or `None` when the record is not
    /// staged there.
    pub fn evict(&mut self, tier: TierId, record: u64) -> Option<SegmentEntry> {
        let open = self
            .open
            .iter_mut()
            .filter(|((t, _), _)| *t == tier)
            .find_map(|(_, o)| {
                let pos = o.entries.iter().position(|e| e.record == record)?;
                let entry = o.entries.remove(pos);
                o.bytes -= entry.bytes;
                Some(entry)
            });
        let entry = match open {
            Some(entry) => entry,
            None => self.evict_held(tier, record)?,
        };
        self.total.evicted_bytes += entry.bytes;
        self.by_tier.entry(tier).or_default().evicted_bytes += entry.bytes;
        self.by_class
            .entry(entry.class.index())
            .or_default()
            .evicted_bytes += entry.bytes;
        Some(entry)
    }

    /// Removes `record` from the tier's held segments, dropping a held
    /// segment it leaves empty.
    fn evict_held(&mut self, tier: TierId, record: u64) -> Option<SegmentEntry> {
        let (i, pos) = self.held.iter().enumerate().find_map(|(i, h)| {
            let pos = h.entries.iter().position(|e| e.record == record)?;
            (h.tier == tier).then_some((i, pos))
        })?;
        let entry = self.held[i].entries.remove(pos);
        if self.held[i].entries.is_empty() {
            self.held.remove(i);
        }
        Some(entry)
    }

    /// Seals the open segment of one (tier, class) regardless of fill
    /// level (stage exits and flushes submit partial segments so no
    /// staged byte outlives its stage). `None` when nothing is staged
    /// there.
    pub fn seal(&mut self, tier: TierId, class: OffloadClass) -> Option<SealedSegment> {
        let open = self.open.get_mut(&(tier, class))?;
        if open.entries.is_empty() {
            return None;
        }
        let entries = std::mem::take(&mut open.entries);
        open.bytes = 0;
        let id = self.next_id;
        self.next_id += 1;
        let seg = SealedSegment {
            id,
            tier,
            class,
            entries,
        };
        self.count_sealed(&seg, false);
        Some(seg)
    }

    /// Hands a segment [`WriteCoalescer::seal`] returned back unsubmitted:
    /// its seal is uncounted and it waits, closed to new members, for
    /// eviction or the tier's next [`WriteCoalescer::seal_tier`].
    pub fn hold(&mut self, seg: SealedSegment) {
        self.count_sealed(&seg, true);
        self.held.push(seg);
    }

    /// Books `seg` into the sealed counters, or back out with `undo`.
    fn count_sealed(&mut self, seg: &SealedSegment, undo: bool) {
        let book = |counts: &mut CoalesceCounts, bytes: u64, entries: u64, segments: u64| {
            if undo {
                counts.sealed_bytes -= bytes;
                counts.entries_sealed -= entries;
                counts.segments -= segments;
            } else {
                counts.sealed_bytes += bytes;
                counts.entries_sealed += entries;
                counts.segments += segments;
            }
        };
        let (bytes, entries) = (seg.total_bytes(), seg.entries.len() as u64);
        book(&mut self.total, bytes, entries, 1);
        book(self.by_tier.entry(seg.tier).or_default(), bytes, entries, 1);
        for e in &seg.entries {
            book(
                self.by_class.entry(e.class.index()).or_default(),
                e.bytes,
                1,
                0,
            );
        }
    }

    /// Seals every held segment of one tier (in hold order, each under a
    /// fresh id), then every non-empty open one, in class order.
    pub fn seal_tier(&mut self, tier: TierId) -> Vec<SealedSegment> {
        let (held, kept): (Vec<SealedSegment>, _) = std::mem::take(&mut self.held)
            .into_iter()
            .partition(|h| h.tier == tier);
        self.held = kept;
        let mut sealed: Vec<SealedSegment> = held
            .into_iter()
            .map(|mut seg| {
                seg.id = self.next_id;
                self.next_id += 1;
                self.count_sealed(&seg, false);
                seg
            })
            .collect();
        sealed.extend(OffloadClass::ALL.iter().filter_map(|c| self.seal(tier, *c)));
        sealed
    }

    /// Seals every held and non-empty open segment, in (tier, class)
    /// order.
    pub fn seal_all(&mut self) -> Vec<SealedSegment> {
        let mut tiers: Vec<TierId> = self
            .open
            .iter()
            .filter(|(_, o)| !o.entries.is_empty())
            .map(|((t, _), _)| *t)
            .chain(self.held.iter().map(|h| h.tier))
            .collect();
        tiers.sort();
        tiers.dedup();
        tiers.into_iter().flat_map(|t| self.seal_tier(t)).collect()
    }

    /// Bytes currently staged in the tier's open and held segments.
    pub fn open_bytes(&self, tier: TierId) -> u64 {
        let open: u64 = self
            .open
            .iter()
            .filter(|((t, _), _)| *t == tier)
            .map(|(_, o)| o.bytes)
            .sum();
        let held: u64 = self
            .held
            .iter()
            .filter(|h| h.tier == tier)
            .map(SealedSegment::total_bytes)
            .sum();
        open + held
    }

    /// Bytes staged across every open and held segment.
    pub fn total_open_bytes(&self) -> u64 {
        let held: u64 = self.held.iter().map(SealedSegment::total_bytes).sum();
        self.open.values().map(|o| o.bytes).sum::<u64>() + held
    }

    /// The members of the open segment of one (tier, class), in staging
    /// order.
    pub fn open_entries(&self, tier: TierId, class: OffloadClass) -> &[SegmentEntry] {
        self.open
            .get(&(tier, class))
            .map_or(&[], |o| o.entries.as_slice())
    }

    /// Whether `record` is staged in one of the tier's open or held
    /// segments.
    pub fn is_staged(&self, tier: TierId, record: u64) -> bool {
        let member = |entries: &[SegmentEntry]| entries.iter().any(|e| e.record == record);
        self.open
            .iter()
            .any(|((t, _), o)| *t == tier && member(&o.entries))
            || self
                .held
                .iter()
                .any(|h| h.tier == tier && member(&h.entries))
    }

    /// Global conservation counters.
    pub fn counts(&self) -> CoalesceCounts {
        self.total
    }

    /// Conservation counters for one tier.
    pub fn tier_counts(&self, tier: TierId) -> CoalesceCounts {
        self.by_tier.get(&tier).copied().unwrap_or_default()
    }

    /// Conservation counters for one class.
    pub fn class_counts(&self, class: OffloadClass) -> CoalesceCounts {
        self.by_class
            .get(&class.index())
            .copied()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::CpuTarget;
    use crate::tier::TierStack;
    use std::sync::Arc;

    fn tier0() -> TierId {
        TierStack::single(Arc::new(CpuTarget::new(1 << 20))).tier_ids()[0]
    }

    fn two_tiers() -> (TierId, TierId) {
        let stack = TierStack::new(vec![
            crate::tier::Tier::new("a", Arc::new(CpuTarget::new(1 << 20)), 0),
            crate::tier::Tier::new("b", Arc::new(CpuTarget::new(1 << 20)), 1),
        ]);
        let ids = stack.tier_ids();
        (ids[0], ids[1])
    }

    #[test]
    fn disabled_coalescer_stages_nothing() {
        let mut c = WriteCoalescer::new(0);
        assert!(!c.enabled());
        assert!(c.stage(tier0(), 1, 100, OffloadClass::Activation).is_none());
        assert_eq!(c.total_open_bytes(), 0);
        assert_eq!(c.counts(), CoalesceCounts::default());
    }

    #[test]
    fn segment_seals_at_the_size_threshold() {
        let t = tier0();
        let mut c = WriteCoalescer::new(100);
        assert!(c.stage(t, 1, 40, OffloadClass::Activation).is_none());
        assert!(c.stage(t, 2, 40, OffloadClass::Activation).is_none());
        assert_eq!(c.open_bytes(t), 80);
        let seg = c.stage(t, 3, 40, OffloadClass::Activation).expect("seal");
        assert_eq!(seg.total_bytes(), 120);
        assert_eq!(seg.entries.len(), 3);
        assert_eq!(seg.entries[2].record, 3);
        assert_eq!(c.open_bytes(t), 0);
        let counts = c.counts();
        assert_eq!(counts.staged_bytes, 120);
        assert_eq!(counts.sealed_bytes, 120);
        assert_eq!(counts.segments, 1);
    }

    #[test]
    fn tiers_keep_separate_open_segments() {
        let (a, b) = two_tiers();
        let mut c = WriteCoalescer::new(1000);
        c.stage(a, 1, 100, OffloadClass::Activation);
        c.stage(b, 2, 200, OffloadClass::Gradient);
        assert_eq!(c.open_bytes(a), 100);
        assert_eq!(c.open_bytes(b), 200);
        let sealed = c.seal_all();
        assert_eq!(sealed.len(), 2);
        assert_eq!(sealed[0].tier, a, "seal_all is tier-ordered");
        assert_eq!(sealed[1].class, OffloadClass::Gradient);
        assert_eq!(c.tier_counts(a).sealed_bytes, 100);
        assert_eq!(c.tier_counts(b).sealed_bytes, 200);
        assert_eq!(c.class_counts(OffloadClass::Gradient).sealed_bytes, 200);
    }

    #[test]
    fn eviction_keeps_conservation() {
        let t = tier0();
        let mut c = WriteCoalescer::new(1000);
        c.stage(t, 1, 100, OffloadClass::Activation);
        c.stage(t, 2, 50, OffloadClass::Activation);
        assert!(c.is_staged(t, 2));
        let e = c.evict(t, 2).expect("staged");
        assert_eq!(e.bytes, 50);
        assert!(!c.is_staged(t, 2));
        assert!(c.evict(t, 2).is_none(), "double eviction is inert");
        let seg = c
            .seal(t, OffloadClass::Activation)
            .expect("one member left");
        assert_eq!(seg.total_bytes(), 100);
        let counts = c.counts();
        assert_eq!(
            counts.staged_bytes,
            counts.sealed_bytes + counts.evicted_bytes + c.total_open_bytes()
        );
    }

    #[test]
    fn segment_ids_are_unique_and_monotonic() {
        let t = tier0();
        let mut c = WriteCoalescer::new(10);
        let a = c.stage(t, 1, 10, OffloadClass::Activation).expect("seal");
        let b = c.stage(t, 2, 10, OffloadClass::Activation).expect("seal");
        assert!(b.id > a.id);
    }

    #[test]
    fn sealing_an_empty_tier_returns_none() {
        let t = tier0();
        let mut c = WriteCoalescer::new(10);
        assert!(c.seal(t, OffloadClass::Activation).is_none());
        assert!(c.seal_tier(t).is_empty());
        assert!(c.seal_all().is_empty());
    }

    #[test]
    fn a_held_segment_stays_open_until_evicted_or_resealed() {
        let t = tier0();
        let mut c = WriteCoalescer::new(100);
        assert!(c.stage(t, 1, 60, OffloadClass::Activation).is_none());
        let seg = c.stage(t, 2, 60, OffloadClass::Activation).expect("seal");
        c.hold(seg);
        assert_eq!(c.counts().segments, 0, "a held segment is not sealed");
        assert_eq!(c.open_bytes(t), 120);
        assert!(c.is_staged(t, 2));
        assert!(c.open_entries(t, OffloadClass::Activation).is_empty());
        c.stage(t, 3, 10, OffloadClass::Activation);
        assert_eq!(c.evict(t, 1).map(|e| e.bytes), Some(60));
        let sealed = c.seal_all();
        assert_eq!(sealed.len(), 2, "the held remainder, then the open segment");
        assert_eq!(sealed[0].entries.len(), 1);
        assert_eq!(sealed[0].entries[0].record, 2);
        assert!(sealed[0].id > 0 && sealed[1].id > sealed[0].id);
        assert_eq!(c.total_open_bytes(), 0);
        let counts = c.counts();
        assert_eq!(counts.segments, 2);
        assert_eq!(
            counts.staged_bytes,
            counts.sealed_bytes + counts.evicted_bytes
        );
        assert_eq!(counts.entries_sealed, 2);
    }

    #[test]
    fn classes_on_one_tier_never_share_a_segment() {
        let t = tier0();
        let mut c = WriteCoalescer::new(100);
        c.stage(t, 1, 60, OffloadClass::Activation);
        c.stage(t, 2, 60, OffloadClass::OptimizerState);
        assert_eq!(c.open_bytes(t), 120, "neither class reached the threshold");
        let seg = c
            .stage(t, 3, 60, OffloadClass::OptimizerState)
            .expect("the state segment fills on its own");
        assert_eq!(seg.class, OffloadClass::OptimizerState);
        assert!(seg.entries.iter().all(|e| e.class == seg.class));
        assert!(c.is_staged(t, 1), "the activation member stays open");
        assert_eq!(c.evict(t, 1).map(|e| e.bytes), Some(60));
        assert!(c.seal_tier(t).is_empty());
    }
}
