//! Simulated GPU memory: allocation tracking and footprint timelines.

use crate::time::{SimClock, SimTime};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use ssdtrain_tensor::{MemClass, MemTracker};
use std::sync::{Arc, Weak};

/// One point of the memory-footprint timeline (Figure 7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FootprintPoint {
    /// Simulated time of the allocator event.
    pub time: SimTime,
    /// Total resident bytes after the event.
    pub total: u64,
    /// Resident activation bytes after the event.
    pub activations: u64,
}

/// Summary of a step's memory behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryReport {
    /// Peak total resident bytes.
    pub peak_total: u64,
    /// Peak resident activation bytes (the paper's headline metric).
    pub peak_activations: u64,
    /// Resident bytes by class at the time of the report.
    pub final_by_class: Vec<(String, u64)>,
    /// Number of allocator events (Figure 7 notes offloading runs incur
    /// more of these).
    pub events: u64,
}

/// Observes new footprint peaks as they are recorded.
///
/// Implemented by higher layers (e.g. the trace crate's memory bridge)
/// that want live allocator-peak updates without this crate depending on
/// them. Called outside the tracker's internal lock, in event-commit
/// order — future-stamped events (see [`GpuMemory::with_time`]) are
/// observed when recorded, so the notified peak is the *running* one;
/// [`GpuMemory::peak_total`] remains the authoritative sorted-timeline
/// value.
pub trait PeakObserver: Send + Sync {
    /// A new peak of `total` resident bytes (of which `activations` are
    /// activation-class) was recorded at simulated time `time`.
    fn on_peak(&self, time: SimTime, total: u64, activations: u64);
}

/// Asked before an allocation is recorded, so a higher layer can delay
/// it in simulated time — the tensor cache waits for in-flight stores to
/// land rather than lift the step's high-water.
///
/// Called only while the tracker runs a cursor
/// ([`GpuMemory::start_cursor`]), outside the tracker's internal lock,
/// and never for an allocation stamped by [`GpuMemory::with_time`]: a
/// future-stamped allocation is a transfer's landing, not compute the
/// clock could hold back.
pub trait AllocGate: Send + Sync {
    /// `bytes` are about to be allocated at the current simulated time.
    fn before_alloc(&self, bytes: u64);
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: SimTime,
    delta: i64,
    class: MemClass,
}

/// The timeline read forward in time from one sort: the level at `at`,
/// the high-water up to `at`, and the events stamped later, latest
/// first (the next one to apply is last).
#[derive(Debug)]
struct Cursor {
    at: SimTime,
    level: i64,
    high_water: i64,
    pending: Vec<Event>,
}

impl Cursor {
    fn apply(&mut self, e: &Event) {
        self.level += e.delta;
        self.high_water = self.high_water.max(self.level);
    }

    /// Takes in an event recorded while the cursor runs: applied now when
    /// it is not later than the cursor, queued in time order otherwise
    /// (equal times keep their recording order).
    fn record(&mut self, e: Event) {
        if e.time <= self.at {
            self.apply(&e);
        } else {
            let pos = self.pending.partition_point(|p| p.time > e.time);
            self.pending.insert(pos, e);
        }
    }

    fn advance_to(&mut self, t: SimTime) {
        while let Some(e) = self.pending.last().copied().filter(|e| e.time <= t) {
            self.pending.pop();
            self.apply(&e);
        }
        self.at = self.at.max(t);
    }
}

#[derive(Debug, Default)]
struct State {
    current: [i64; 5],
    events: Vec<Event>,
    time_override: Option<SimTime>,
    live_peak: i64,
    cursor: Option<Cursor>,
}

/// A GPU memory tracker.
///
/// Registered on a [`ssdtrain_tensor::Device`]; every storage allocation
/// and free is recorded with the simulated time at which it happens. The
/// tensor cache releases offloaded storages *at the store job's modelled
/// completion time* using [`GpuMemory::with_time`], so the reconstructed
/// footprint curve reflects the true overlap of transfers with compute.
///
/// ```
/// use ssdtrain_simhw::{GpuMemory, SimClock};
/// use ssdtrain_tensor::{Device, Tensor};
/// use std::sync::Arc;
///
/// let clock = SimClock::new();
/// let mem = Arc::new(GpuMemory::new(clock.clone(), 40 << 30));
/// let dev = Device::cpu();
/// dev.set_tracker(mem.clone());
/// {
///     let _t = Tensor::zeros([1024], &dev); // 4 KiB of F32
///     clock.advance_by(0.5);
/// }
/// assert_eq!(mem.peak_total(), 4096);
/// assert_eq!(mem.resident_total(), 0);
/// ```
#[derive(Clone)]
pub struct GpuMemory {
    clock: SimClock,
    capacity: u64,
    state: Arc<Mutex<State>>,
    observer: Arc<Mutex<Option<Arc<dyn PeakObserver>>>>,
    gate: Arc<Mutex<Option<Weak<dyn AllocGate>>>>,
}

fn class_index(c: MemClass) -> usize {
    match c {
        MemClass::Parameter => 0,
        MemClass::Gradient => 1,
        MemClass::OptimizerState => 2,
        MemClass::Activation => 3,
        MemClass::Workspace => 4,
    }
}

impl GpuMemory {
    /// Creates a tracker tied to `clock` with a device capacity (used for
    /// out-of-memory detection in reports).
    pub fn new(clock: SimClock, capacity: u64) -> GpuMemory {
        GpuMemory {
            clock,
            capacity,
            state: Arc::new(Mutex::new(State::default())),
            observer: Arc::new(Mutex::new(None)),
            gate: Arc::new(Mutex::new(None)),
        }
    }

    /// Installs (or replaces) the allocation gate. The tracker holds it
    /// weakly, so a gate that owns this tracker forms no cycle; clones of
    /// this tracker share it.
    pub fn set_alloc_gate(&self, gate: Weak<dyn AllocGate>) {
        *self.gate.lock() = Some(gate);
    }

    /// Starts reading the timeline forward from now: sorts the events
    /// recorded so far once and keeps the level and the high-water as
    /// running values from then on (see [`GpuMemory::fits_at`]). Every
    /// allocation stamped at the current time passes the
    /// [`AllocGate`] first until [`GpuMemory::stop_cursor`] or
    /// [`GpuMemory::reset`].
    pub fn start_cursor(&self) {
        let at = self.clock.now();
        let mut s = self.state.lock();
        let mut evs = s.events.clone();
        evs.sort_by(|a, b| a.time.as_secs().total_cmp(&b.time.as_secs()));
        let split = evs.partition_point(|e| e.time <= at);
        let mut cursor = Cursor {
            at,
            level: 0,
            high_water: 0,
            pending: evs.split_off(split),
        };
        cursor.pending.reverse();
        for e in &evs {
            cursor.apply(e);
        }
        s.cursor = Some(cursor);
    }

    /// Stops the running cursor; allocations are no longer gated.
    pub fn stop_cursor(&self) {
        self.state.lock().cursor = None;
    }

    /// Whether `bytes` more, allocated at `t`, stay within the high-water
    /// the timeline reached up to `t` — the running cursor first applies
    /// every event stamped up to `t`, in time order. Always true without
    /// a running cursor.
    pub fn fits_at(&self, bytes: u64, t: SimTime) -> bool {
        let mut s = self.state.lock();
        let Some(cursor) = s.cursor.as_mut() else {
            return true;
        };
        cursor.advance_to(t);
        cursor.level.saturating_add(bytes as i64) <= cursor.high_water
    }

    /// Installs (or replaces) the live peak observer. Clones of this
    /// tracker share the observer.
    pub fn set_peak_observer(&self, observer: Arc<dyn PeakObserver>) {
        *self.observer.lock() = Some(observer);
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Runs `f` with allocator events stamped at `t` instead of the
    /// current clock time (for frees that complete in the simulated
    /// future, e.g. at a store job's end).
    pub fn with_time<R>(&self, t: SimTime, f: impl FnOnce() -> R) -> R {
        let prev = {
            let mut s = self.state.lock();
            s.time_override.replace(t)
        };
        let r = f();
        self.state.lock().time_override = prev;
        r
    }

    fn record(&self, delta: i64, class: MemClass) {
        let new_peak = {
            let mut s = self.state.lock();
            let time = s.time_override.unwrap_or_else(|| self.clock.now());
            s.current[class_index(class)] += delta;
            let event = Event { time, delta, class };
            s.events.push(event);
            if let Some(cursor) = s.cursor.as_mut() {
                cursor.record(event);
            }
            let total: i64 = s.current.iter().map(|v| *v.max(&0)).sum();
            if total > s.live_peak {
                s.live_peak = total;
                let act = s.current[class_index(MemClass::Activation)].max(0) as u64;
                Some((time, total as u64, act))
            } else {
                None
            }
        };
        // Notify outside the state lock: the observer may take its own
        // locks (e.g. a trace sink) and must not deadlock against
        // re-entrant allocator calls.
        if let Some((time, total, act)) = new_peak {
            let obs = self.observer.lock().clone();
            if let Some(obs) = obs {
                obs.on_peak(time, total, act);
            }
        }
    }

    /// Currently resident bytes of one class.
    pub fn resident(&self, class: MemClass) -> u64 {
        self.state.lock().current[class_index(class)].max(0) as u64
    }

    /// Currently resident bytes across all classes.
    pub fn resident_total(&self) -> u64 {
        self.state
            .lock()
            .current
            .iter()
            .map(|v| v.max(&0))
            .sum::<i64>() as u64
    }

    /// The footprint timeline, sorted by event time: total and
    /// activation-class bytes after each allocator event.
    ///
    /// Events may be recorded out of chronological order (future-stamped
    /// frees), so the timeline is rebuilt by sorting.
    pub fn timeline(&self) -> Vec<FootprintPoint> {
        let s = self.state.lock();
        let mut evs: Vec<Event> = s.events.clone();
        drop(s);
        evs.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite times"));
        let mut total = 0i64;
        let mut act = 0i64;
        evs.iter()
            .map(|e| {
                total += e.delta;
                if e.class == MemClass::Activation {
                    act += e.delta;
                }
                FootprintPoint {
                    time: e.time,
                    total: total.max(0) as u64,
                    activations: act.max(0) as u64,
                }
            })
            .collect()
    }

    /// Peak total resident bytes over the timeline.
    pub fn peak_total(&self) -> u64 {
        self.timeline().iter().map(|p| p.total).max().unwrap_or(0)
    }

    /// Peak resident activation bytes over the timeline.
    pub fn peak_activations(&self) -> u64 {
        self.timeline()
            .iter()
            .map(|p| p.activations)
            .max()
            .unwrap_or(0)
    }

    /// Peak activation bytes within a time window `[from, to]` — used to
    /// read the "memory at the beginning of backward propagation" point
    /// of Figure 7.
    pub fn peak_activations_between(&self, from: SimTime, to: SimTime) -> u64 {
        self.timeline()
            .iter()
            .filter(|p| p.time >= from && p.time <= to)
            .map(|p| p.activations)
            .max()
            .unwrap_or(0)
    }

    /// Whether the peak exceeded device capacity (the run would have hit
    /// a CUDA out-of-memory error on the real machine).
    pub fn oom(&self) -> bool {
        self.peak_total() > self.capacity
    }

    /// Full report.
    pub fn report(&self) -> MemoryReport {
        let s = self.state.lock();
        let final_by_class = MemClass::ALL
            .iter()
            .map(|c| {
                (
                    c.label().to_owned(),
                    s.current[class_index(*c)].max(0) as u64,
                )
            })
            .collect();
        let events = s.events.len() as u64;
        drop(s);
        MemoryReport {
            peak_total: self.peak_total(),
            peak_activations: self.peak_activations(),
            final_by_class,
            events,
        }
    }

    /// Replays this step's allocator events (in simulated-time order)
    /// through the caching-allocator model and returns its statistics —
    /// the *reserved* footprint a real PyTorch run would report on top
    /// of the allocated curve.
    pub fn allocator_stats(&self) -> crate::allocator::AllocatorStats {
        let s = self.state.lock();
        let mut evs: Vec<Event> = s.events.clone();
        drop(s);
        evs.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite times"));
        crate::allocator::CachingAllocator::replay(
            evs.iter().map(|e| (e.delta.unsigned_abs(), e.delta < 0)),
        )
    }

    /// Clears the event log and counters (new measured step).
    pub fn reset(&self) {
        let mut s = self.state.lock();
        s.current = [0; 5];
        s.events.clear();
        s.live_peak = 0;
        s.cursor = None;
    }
}

impl MemTracker for GpuMemory {
    fn on_alloc(&self, bytes: u64, class: MemClass) {
        let gated = {
            let s = self.state.lock();
            s.cursor.is_some() && s.time_override.is_none()
        };
        if gated {
            // Outside the state lock: the gate advances the clock and
            // commits stores whose frees land here.
            let gate = self.gate.lock().as_ref().and_then(Weak::upgrade);
            if let Some(gate) = gate {
                gate.before_alloc(bytes);
            }
        }
        self.record(bytes as i64, class);
    }
    fn on_free(&self, bytes: u64, class: MemClass) {
        self.record(-(bytes as i64), class);
    }
}

impl std::fmt::Debug for GpuMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuMemory")
            .field("capacity", &self.capacity)
            .field("resident_total", &self.resident_total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gm() -> (SimClock, GpuMemory) {
        let clock = SimClock::new();
        let mem = GpuMemory::new(clock.clone(), 1 << 30);
        (clock, mem)
    }

    #[test]
    fn peak_reflects_alloc_free_ordering() {
        let (clock, mem) = gm();
        mem.on_alloc(100, MemClass::Activation);
        clock.advance_by(1.0);
        mem.on_alloc(200, MemClass::Activation);
        clock.advance_by(1.0);
        mem.on_free(100, MemClass::Activation);
        assert_eq!(mem.peak_activations(), 300);
        assert_eq!(mem.resident(MemClass::Activation), 200);
    }

    #[test]
    fn future_stamped_free_lowers_the_curve_later() {
        let (clock, mem) = gm();
        mem.on_alloc(100, MemClass::Activation);
        // Free completes at t=5 although recorded now (t=0).
        mem.with_time(SimTime::from_secs(5.0), || {
            mem.on_free(100, MemClass::Activation)
        });
        clock.advance_by(1.0);
        mem.on_alloc(50, MemClass::Activation);
        let tl = mem.timeline();
        // Timeline order: alloc@0, alloc@1, free@5.
        assert_eq!(tl.len(), 3);
        assert_eq!(tl[1].total, 150);
        assert_eq!(tl[2].total, 50);
        assert_eq!(mem.peak_total(), 150);
    }

    #[test]
    fn classes_are_tracked_separately() {
        let (_c, mem) = gm();
        mem.on_alloc(10, MemClass::Parameter);
        mem.on_alloc(20, MemClass::Activation);
        assert_eq!(mem.resident(MemClass::Parameter), 10);
        assert_eq!(mem.resident(MemClass::Activation), 20);
        assert_eq!(mem.resident_total(), 30);
        assert_eq!(mem.peak_activations(), 20);
    }

    #[test]
    fn windowed_peak() {
        let (clock, mem) = gm();
        mem.on_alloc(100, MemClass::Activation);
        clock.advance_by(2.0);
        mem.on_alloc(100, MemClass::Activation);
        clock.advance_by(2.0);
        mem.on_free(150, MemClass::Activation);
        let w = mem.peak_activations_between(SimTime::from_secs(1.0), SimTime::from_secs(3.0));
        assert_eq!(w, 200);
    }

    #[test]
    fn oom_detection() {
        let clock = SimClock::new();
        let mem = GpuMemory::new(clock, 100);
        mem.on_alloc(150, MemClass::Activation);
        assert!(mem.oom());
        mem.reset();
        assert!(!mem.oom());
    }

    #[test]
    fn peak_observer_sees_each_new_running_peak() {
        #[derive(Default)]
        struct Rec(Mutex<Vec<(u64, u64)>>);
        impl PeakObserver for Rec {
            fn on_peak(&self, _time: SimTime, total: u64, activations: u64) {
                self.0.lock().push((total, activations));
            }
        }
        let (_c, mem) = gm();
        let rec = Arc::new(Rec::default());
        mem.set_peak_observer(rec.clone());
        mem.on_alloc(100, MemClass::Parameter);
        mem.on_alloc(50, MemClass::Activation);
        mem.on_free(50, MemClass::Activation); // not a peak
        mem.on_alloc(200, MemClass::Activation);
        assert_eq!(
            *rec.0.lock(),
            vec![(100, 0), (150, 50), (300, 200)],
            "only strictly increasing totals are reported"
        );
        mem.reset();
        mem.on_alloc(1, MemClass::Workspace);
        assert_eq!(rec.0.lock().len(), 4, "reset restarts peak tracking");
    }

    #[test]
    fn the_cursor_reads_the_timeline_forward_in_time_order() {
        let (clock, mem) = gm();
        mem.on_alloc(100, MemClass::Activation);
        clock.advance_by(1.0);
        mem.on_alloc(50, MemClass::Activation);
        // A store landing at 3 s frees the first tensor.
        mem.with_time(SimTime::from_secs(3.0), || {
            mem.on_free(100, MemClass::Activation)
        });
        mem.start_cursor();
        // Level 150 at t = 1 is also the high-water.
        assert!(mem.fits_at(0, clock.now()));
        assert!(!mem.fits_at(1, clock.now()));
        // A free recorded while the cursor runs waits for its time.
        mem.with_time(SimTime::from_secs(2.0), || {
            mem.on_free(50, MemClass::Activation)
        });
        assert!(!mem.fits_at(1, SimTime::from_secs(1.5)));
        assert!(mem.fits_at(50, SimTime::from_secs(2.0)));
        assert!(mem.fits_at(150, SimTime::from_secs(3.0)));
        assert!(!mem.fits_at(151, SimTime::from_secs(3.0)));
        mem.stop_cursor();
        assert!(mem.fits_at(u64::MAX, clock.now()));
    }

    #[test]
    fn the_gate_sees_allocations_only_while_the_cursor_runs() {
        #[derive(Default)]
        struct Count(Mutex<Vec<u64>>);
        impl AllocGate for Count {
            fn before_alloc(&self, bytes: u64) {
                self.0.lock().push(bytes);
            }
        }
        let (_c, mem) = gm();
        let gate = Arc::new(Count::default());
        let weak: Weak<dyn AllocGate> = Arc::downgrade(&gate) as Weak<dyn AllocGate>;
        mem.set_alloc_gate(weak);
        mem.on_alloc(1, MemClass::Activation);
        mem.start_cursor();
        mem.on_alloc(2, MemClass::Activation);
        mem.with_time(SimTime::from_secs(5.0), || {
            mem.on_alloc(3, MemClass::Activation)
        });
        mem.reset();
        mem.on_alloc(4, MemClass::Activation);
        assert_eq!(*gate.0.lock(), vec![2]);
    }

    #[test]
    fn integrates_with_device_storage_lifecycle() {
        use ssdtrain_tensor::{Device, Tensor};
        let clock = SimClock::new();
        let mem = GpuMemory::new(clock.clone(), 1 << 30);
        let dev = Device::cpu();
        dev.set_tracker(Arc::new(mem.clone()));
        {
            let _t = Tensor::zeros([256], &dev); // 256 * 4 bytes (F32)
            assert_eq!(mem.resident_total(), 1024);
        }
        assert_eq!(mem.resident_total(), 0);
        assert_eq!(mem.peak_total(), 1024);
    }
}
