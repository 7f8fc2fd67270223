//! Store/load job engine — the paper's two I/O thread pools
//! (Section 3.3.2), one pair per offload tier.
//!
//! Jobs execute in FIFO order per direction *per tier link*, exactly
//! like the paper's store and load pools. Timing is modelled on the
//! simulated clock: a job submitted at `t` starts when the link
//! direction's previous job finished and occupies it for
//! `bytes / bandwidth`. Queued (not yet started) store jobs can be
//! *cancelled* when their tensor was forwarded (adaptive offloading
//! feature 1), which reflows that link's queue.
//!
//! A tiered engine ([`IoEngine::tiered`]) prices each tier's transfers
//! against its own simulated link — PCIe-to-DRAM for a host pool tier,
//! PCIe-to-SSD for the array — full duplex each. The single-link
//! constructor ([`IoEngine::new`]) reproduces the flat pre-tier engine.
//!
//! On a real node every offload write leaves the GPU over *one* PCIe
//! link, whatever tier it lands on; [`IoEngine::tiered_with_bus`]
//! models that by serialising all store jobs FIFO across links on a
//! shared write bus (each job still pays its own link's rate, capped by
//! the bus). Loads stay independent per link — PCIe is full duplex and
//! the read path is not the paper's bottleneck.

use parking_lot::Mutex;
use ssdtrain_simhw::{Channel, SimClock, SimTime};
use ssdtrain_trace::{LinkTraceBridge, TraceCategory, TraceSink};
use std::sync::Arc;

/// Handle to a submitted store job (identifies the link it queues on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId {
    link: usize,
    idx: usize,
}

/// The simulated write/read bandwidths of one tier's link.
#[derive(Debug, Clone, PartialEq)]
pub struct TierLink {
    /// Link name; the read channel is traced as `"<name>-read"`.
    pub name: String,
    /// Store-direction bandwidth, bytes/s.
    pub write_bps: f64,
    /// Load-direction bandwidth, bytes/s.
    pub read_bps: f64,
}

impl TierLink {
    /// A full-duplex link with the given per-direction bandwidths.
    pub fn new(name: impl Into<String>, write_bps: f64, read_bps: f64) -> TierLink {
        TierLink {
            name: name.into(),
            write_bps,
            read_bps,
        }
    }
}

#[derive(Debug, Clone)]
struct WriteJob {
    bytes: u64,
    submit: SimTime,
    start: SimTime,
    end: SimTime,
    // Transfer duration at the bandwidth in effect when the job was
    // (re)priced; reflow reuses it so cancellations never re-price
    // history.
    dur_secs: f64,
    cancelled: bool,
}

#[derive(Debug)]
struct WriteQueue {
    jobs: Vec<WriteJob>,
    slowdown: f64,
}

impl Default for WriteQueue {
    fn default() -> WriteQueue {
        WriteQueue {
            jobs: Vec::new(),
            slowdown: 1.0,
        }
    }
}

impl WriteQueue {
    fn reflow(&mut self) {
        let mut prev_end = SimTime::ZERO;
        for j in self.jobs.iter_mut().filter(|j| !j.cancelled) {
            j.start = j.submit.max(prev_end);
            j.end = j.start.plus_secs(j.dur_secs);
            prev_end = j.end;
        }
    }

    /// Applies a slowdown at `now` without rescheduling: queued jobs
    /// stretch fully, a job in flight stretches only its remaining
    /// portion, finished jobs keep their history. The caller reflows
    /// (per-queue or bus-wide). FIFO order is untouched.
    fn stretch(&mut self, factor: f64, now: SimTime) {
        self.slowdown *= factor;
        for j in self.jobs.iter_mut().filter(|j| !j.cancelled) {
            if j.end <= now {
                continue;
            }
            if j.start >= now {
                j.dur_secs *= factor;
            } else {
                let done = now.as_secs() - j.start.as_secs();
                let remaining = j.end.as_secs() - now.as_secs();
                j.dur_secs = done + remaining * factor;
            }
        }
    }

    fn throttle(&mut self, factor: f64, now: SimTime) {
        self.stretch(factor, now);
        self.reflow();
    }
}

/// One tier link's queue pair: a FIFO write queue plus a read channel.
struct LinkQueues {
    name: String,
    write_bps: f64,
    writes: Mutex<WriteQueue>,
    reads: Channel,
    /// Seconds the read direction was busy this step (sum of transfer
    /// durations booked on the read channel; cleared by `reset`).
    read_busy_secs: Mutex<f64>,
}

/// Shared write-bus state: the global FIFO submission order every
/// non-cancelled store serialises through when a bus is configured.
struct BusState {
    write_bps: f64,
    order: Mutex<Vec<JobId>>,
}

/// The simulated store/load engine shared by a tensor cache.
///
/// ```
/// use ssdtrain::IoEngine;
/// use ssdtrain_simhw::SimClock;
/// let io = IoEngine::new(SimClock::new(), 1e9, 2e9);
/// let job = io.submit_store(500_000_000); // 0.5 s at 1 GB/s
/// assert_eq!(io.store_end(job).as_secs(), 0.5);
/// let ready = io.submit_load(1_000_000_000); // full duplex
/// assert_eq!(ready.as_secs(), 0.5);
/// ```
///
/// Tiered pricing without a bus ([`IoEngine::tiered`]) treats each link
/// as an independent full-duplex resource — the right model when tiers
/// sit behind genuinely separate interconnects:
///
/// ```
/// use ssdtrain::{IoEngine, TierLink};
/// use ssdtrain_simhw::SimClock;
/// let io = IoEngine::tiered(
///     SimClock::new(),
///     vec![TierLink::new("dram", 2e9, 2e9), TierLink::new("ssd", 1e9, 1e9)],
/// );
/// let a = io.submit_store_to(0, 2_000_000_000); // 1 s on the DRAM link
/// let b = io.submit_store_to(1, 1_000_000_000); // 1 s on the SSD link
/// assert_eq!(io.store_end(a).as_secs(), 1.0);
/// assert_eq!(io.store_end(b).as_secs(), 1.0); // no cross-tier queueing
/// ```
///
/// With a shared write bus ([`IoEngine::tiered_with_bus`]) — the model a
/// [`TrainSession`](../ssdtrain_train/index.html) uses, because both
/// tiers sit behind the same GPU PCIe link — stores serialise FIFO
/// across links and the second store waits for the first:
///
/// ```
/// use ssdtrain::{IoEngine, TierLink};
/// use ssdtrain_simhw::SimClock;
/// let io = IoEngine::tiered_with_bus(
///     SimClock::new(),
///     vec![TierLink::new("dram", 2e9, 2e9), TierLink::new("ssd", 1e9, 1e9)],
///     2e9, // one PCIe write bus shared by both tiers
/// );
/// let a = io.submit_store_to(0, 2_000_000_000); // 0..1 s, dram at bus rate
/// let b = io.submit_store_to(1, 1_000_000_000); // bus busy until 1 s
/// assert_eq!(io.store_end(a).as_secs(), 1.0);
/// assert_eq!(io.store_end(b).as_secs(), 2.0); // cross-tier queueing
/// ```
#[derive(Clone)]
pub struct IoEngine {
    clock: SimClock,
    links: Arc<Vec<LinkQueues>>,
    bus: Option<Arc<BusState>>,
    trace: Arc<Mutex<TraceSink>>,
    /// Fixed seconds added to every store job's duration at submit time
    /// (driver ioctl + DMA descriptor setup). Shared by clones; reflows
    /// reuse `dur_secs`, so the overhead sticks to a job for life.
    store_overhead: Arc<Mutex<f64>>,
}

impl IoEngine {
    /// Creates a single-link engine over one offload target's
    /// write/read bandwidths — the flat pre-tier shape.
    ///
    /// # Panics
    /// Panics if a bandwidth is not positive.
    pub fn new(clock: SimClock, write_bps: f64, read_bps: f64) -> IoEngine {
        IoEngine::tiered(clock, vec![TierLink::new("offload", write_bps, read_bps)])
    }

    /// Creates an engine with one queue pair per tier link, each priced
    /// independently.
    ///
    /// # Panics
    /// Panics if `links` is empty or any bandwidth is not positive —
    /// both are construction-time configuration bugs.
    pub fn tiered(clock: SimClock, links: Vec<TierLink>) -> IoEngine {
        IoEngine::build(clock, links, None)
    }

    /// Creates an engine whose store jobs all serialise FIFO through one
    /// shared write bus of `bus_write_bps` bytes/s, whatever link they
    /// target — the single-PCIe-link reality of the paper's testbed. A
    /// job transfers at `min(link write bps, bus bps)` (after any
    /// slowdown); loads stay independent per link (full duplex).
    ///
    /// # Panics
    /// Panics if `links` is empty or any bandwidth (including the bus)
    /// is not positive — construction-time configuration bugs.
    pub fn tiered_with_bus(clock: SimClock, links: Vec<TierLink>, bus_write_bps: f64) -> IoEngine {
        assert!(bus_write_bps > 0.0, "bus bandwidth must be positive");
        IoEngine::build(clock, links, Some(bus_write_bps))
    }

    fn build(clock: SimClock, links: Vec<TierLink>, bus_write_bps: Option<f64>) -> IoEngine {
        assert!(!links.is_empty(), "an IoEngine needs at least one link");
        let links = links
            .into_iter()
            .map(|l| {
                assert!(
                    l.write_bps > 0.0 && l.read_bps > 0.0,
                    "bandwidth must be positive"
                );
                LinkQueues {
                    reads: Channel::new(&format!("{}-read", l.name), l.read_bps),
                    name: l.name,
                    write_bps: l.write_bps,
                    writes: Mutex::new(WriteQueue::default()),
                    read_busy_secs: Mutex::new(0.0),
                }
            })
            .collect();
        IoEngine {
            clock,
            links: Arc::new(links),
            bus: bus_write_bps.map(|write_bps| {
                Arc::new(BusState {
                    write_bps,
                    order: Mutex::new(Vec::new()),
                })
            }),
            trace: Arc::new(Mutex::new(TraceSink::disabled())),
            store_overhead: Arc::new(Mutex::new(0.0)),
        }
    }

    /// Sets the fixed per-store-job submission overhead in seconds
    /// (negative values clamp to zero). Applies to stores submitted from
    /// now on; already-queued jobs keep their pricing.
    pub fn set_store_job_overhead(&self, secs: f64) {
        *self.store_overhead.lock() = secs.max(0.0);
    }

    /// The configured per-store-job submission overhead, seconds.
    pub fn store_job_overhead_secs(&self) -> f64 {
        *self.store_overhead.lock()
    }

    /// Routes this engine's events into `sink`: load spans (category
    /// `load`) directly, and raw read-channel bookings (category `link`)
    /// via a [`LinkTraceBridge`] per tier. Clones of this engine share
    /// the sink.
    pub fn set_trace(&self, sink: TraceSink) {
        for link in self.links.iter() {
            link.reads.set_observer(LinkTraceBridge::new(sink.clone()));
        }
        *self.trace.lock() = sink;
    }

    fn trace(&self) -> TraceSink {
        self.trace.lock().clone()
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Number of tier links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Configured aggregate write bandwidth across every link, bytes/s
    /// (the adaptive planner's budget).
    pub fn write_bps(&self) -> f64 {
        self.links.iter().map(|l| l.write_bps).sum()
    }

    /// Configured aggregate read bandwidth, bytes/s.
    pub fn read_bps(&self) -> f64 {
        self.links.iter().map(|l| l.reads.bandwidth()).sum()
    }

    /// Configured write bandwidth of one link, bytes/s.
    pub fn write_bps_of(&self, link: usize) -> f64 {
        self.links.get(link).map(|l| l.write_bps).unwrap_or(0.0)
    }

    /// Configured read bandwidth of one link, bytes/s.
    pub fn read_bps_of(&self, link: usize) -> f64 {
        self.links
            .get(link)
            .map(|l| l.reads.bandwidth())
            .unwrap_or(0.0)
    }

    /// Aggregate write bandwidth currently delivered, after any injected
    /// slowdown.
    pub fn effective_write_bps(&self) -> f64 {
        self.links
            .iter()
            .map(|l| l.write_bps / l.writes.lock().slowdown)
            .sum()
    }

    /// Aggregate read bandwidth currently delivered, after any injected
    /// slowdown.
    pub fn effective_read_bps(&self) -> f64 {
        self.links
            .iter()
            .map(|l| l.reads.effective_bandwidth())
            .sum()
    }

    /// Degrades both directions of *every* link by `factor` from the
    /// current simulated time: queued and in-flight writes are
    /// rescheduled (remaining bytes at the slower rate, FIFO order
    /// preserved) and future reads take `factor` times longer. Factors
    /// compose multiplicatively and persist across [`IoEngine::reset`] —
    /// injected hardware degradation does not heal between steps.
    ///
    /// # Panics
    /// Panics if `factor` is not positive.
    pub fn throttle(&self, factor: f64) {
        assert!(factor > 0.0, "slowdown factor must be positive");
        let now = self.clock.now();
        for link in self.links.iter() {
            match &self.bus {
                Some(_) => link.writes.lock().stretch(factor, now),
                None => link.writes.lock().throttle(factor, now),
            }
            link.reads.throttle(factor);
        }
        if let Some(bus) = &self.bus {
            self.reflow_bus(bus);
        }
    }

    /// Submits a store of `bytes` on link 0 at the current time.
    pub fn submit_store(&self, bytes: u64) -> JobId {
        self.submit_store_to(0, bytes)
    }

    /// Submits a store of `bytes` on the tier link `link` at the
    /// current time; returns its id. An out-of-range link is clamped to
    /// the last one (a misrouted job still makes progress; tier wiring
    /// bugs surface in tests, not as a training crash).
    pub fn submit_store_to(&self, link: usize, bytes: u64) -> JobId {
        let link = link.min(self.links.len() - 1);
        let l = &self.links[link];
        let now = self.clock.now();
        let dur_secs = self.store_secs(link, bytes);
        let id = {
            let mut q = l.writes.lock();
            let prev_end = q
                .jobs
                .iter()
                .rev()
                .find(|j| !j.cancelled)
                .map(|j| j.end)
                .unwrap_or(SimTime::ZERO);
            let start = now.max(prev_end);
            let end = start.plus_secs(dur_secs);
            q.jobs.push(WriteJob {
                bytes,
                submit: now,
                start,
                end,
                dur_secs,
                cancelled: false,
            });
            JobId {
                link,
                idx: q.jobs.len() - 1,
            }
        };
        if let Some(bus) = &self.bus {
            bus.order.lock().push(id);
            self.reflow_bus(bus);
        }
        id
    }

    /// When a store of `bytes` submitted on `link` now would end, without
    /// submitting it: the same FIFO pricing [`IoEngine::submit_store_to`]
    /// applies (behind the link's queue, or behind every link's under a
    /// shared write bus).
    pub fn store_end_if_submitted(&self, link: usize, bytes: u64) -> SimTime {
        let link = link.min(self.links.len() - 1);
        let queued_until = match &self.bus {
            Some(_) => self.writes_drain_at(),
            None => self.writes_drain_at_on(link),
        };
        self.clock
            .now()
            .max(queued_until)
            .plus_secs(self.store_secs(link, bytes))
    }

    /// Transfer seconds of a `bytes` store on `link` at the current
    /// slowdown, per-job overhead included.
    fn store_secs(&self, link: usize, bytes: u64) -> f64 {
        let l = &self.links[link];
        let eff_bps = match &self.bus {
            Some(bus) => l.write_bps.min(bus.write_bps),
            None => l.write_bps,
        };
        let slowdown = l.writes.lock().slowdown;
        *self.store_overhead.lock() + bytes as f64 * slowdown / eff_bps
    }

    /// Reschedules every live store across every link in global
    /// submission order: each job starts when the shared bus frees up
    /// (which also covers its own link — the bus serialises everything).
    fn reflow_bus(&self, bus: &BusState) {
        let order = bus.order.lock();
        // ssdtrain-lint: allow(no-alloc-hot-loop): guard vector bounded by
        // the link count (a handful), rebuilt once per bus reflow
        let mut queues: Vec<_> = self.links.iter().map(|l| l.writes.lock()).collect();
        let mut prev_end = SimTime::ZERO;
        for id in order.iter() {
            let j = &mut queues[id.link].jobs[id.idx];
            if j.cancelled {
                continue;
            }
            j.start = j.submit.max(prev_end);
            j.end = j.start.plus_secs(j.dur_secs);
            prev_end = j.end;
        }
    }

    /// Current scheduled completion time of a store (may move earlier if
    /// queued jobs ahead of it on the same link are cancelled).
    ///
    /// # Panics
    /// Panics on an unknown or cancelled job.
    pub fn store_end(&self, job: JobId) -> SimTime {
        self.store_span(job).1
    }

    /// Current scheduled `(start, end)` interval of a store — the span a
    /// trace records when the store commits.
    ///
    /// # Panics
    /// Panics on an unknown or cancelled job.
    pub fn store_span(&self, job: JobId) -> (SimTime, SimTime) {
        let q = self.links[job.link].writes.lock();
        let j = &q.jobs[job.idx];
        assert!(!j.cancelled, "store_span of a cancelled job");
        (j.start, j.end)
    }

    /// Whether the store has started transferring by `now`.
    pub fn store_started(&self, job: JobId, now: SimTime) -> bool {
        let q = self.links[job.link].writes.lock();
        let j = &q.jobs[job.idx];
        !j.cancelled && j.start <= now
    }

    /// Cancels a store if it has not started by `now`; returns `true` on
    /// success (the adaptive-offloading check a store worker performs
    /// before writing a forwarded tensor).
    pub fn try_cancel_store(&self, job: JobId, now: SimTime) -> bool {
        {
            let mut q = self.links[job.link].writes.lock();
            let j = &mut q.jobs[job.idx];
            if j.cancelled || j.start <= now {
                return false;
            }
            j.cancelled = true;
            if self.bus.is_none() {
                q.reflow();
            }
        }
        if let Some(bus) = &self.bus {
            self.reflow_bus(bus);
        }
        true
    }

    /// Submits a load of `bytes` on link 0 at the current time.
    pub fn submit_load(&self, bytes: u64) -> SimTime {
        self.submit_load_from(0, bytes)
    }

    /// Submits a load of `bytes` on the tier link `link` at the current
    /// time; returns the time the data is resident in GPU memory. An
    /// out-of-range link is clamped to the last one.
    pub fn submit_load_from(&self, link: usize, bytes: u64) -> SimTime {
        self.submit_load_from_at(link, bytes, SimTime::ZERO)
    }

    /// Submits a load of `bytes` on `link` that starts no earlier than
    /// `not_before` (the bytes' store landing) nor before now; returns
    /// the read's own end. Reads stay FIFO per link, so later reads queue
    /// behind this one.
    ///
    /// ```
    /// use ssdtrain::IoEngine;
    /// use ssdtrain_simhw::{SimClock, SimTime};
    /// let io = IoEngine::new(SimClock::new(), 1e9, 1e9);
    /// // The store lands at 2 s; the 1 s read runs after it.
    /// let ready = io.submit_load_from_at(0, 1_000_000_000, SimTime::from_secs(2.0));
    /// assert_eq!(ready.as_secs(), 3.0);
    /// ```
    pub fn submit_load_from_at(&self, link: usize, bytes: u64, not_before: SimTime) -> SimTime {
        let link = link.min(self.links.len() - 1);
        let at = self.clock.now().max(not_before);
        let (start, end) = self.links[link].reads.submit(at, bytes);
        *self.links[link].read_busy_secs.lock() += end.as_secs() - start.as_secs();
        self.trace()
            .span_bytes(TraceCategory::Load, "load", start, end, bytes);
        end
    }

    /// Transfer seconds of a `bytes` read on `link` at the current
    /// slowdown, queueing excluded (out-of-range links clamp to the last).
    pub fn load_secs_on(&self, link: usize, bytes: u64) -> f64 {
        let link = link.min(self.links.len() - 1);
        bytes as f64 / self.links[link].reads.effective_bandwidth()
    }

    /// When the last scheduled write across every link finishes.
    pub fn writes_drain_at(&self) -> SimTime {
        (0..self.links.len())
            .map(|l| self.writes_drain_at_on(l))
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// When the last scheduled write on one tier link finishes
    /// ([`SimTime::ZERO`] when the queue is empty or out of range).
    pub fn writes_drain_at_on(&self, link: usize) -> SimTime {
        self.links
            .get(link)
            .map(|l| {
                l.writes
                    .lock()
                    .jobs
                    .iter()
                    .filter(|j| !j.cancelled)
                    .map(|j| j.end)
                    .fold(SimTime::ZERO, SimTime::max)
            })
            .unwrap_or(SimTime::ZERO)
    }

    /// The name of one tier link (empty when out of range).
    pub fn link_name(&self, link: usize) -> &str {
        self.links.get(link).map(|l| l.name.as_str()).unwrap_or("")
    }

    /// The shared write bus bandwidth, if one is configured.
    pub fn bus_write_bps(&self) -> Option<f64> {
        self.bus.as_ref().map(|b| b.write_bps)
    }

    /// Total bytes actually written across every link (cancelled jobs
    /// excluded).
    pub fn bytes_written(&self) -> u64 {
        (0..self.links.len())
            .map(|l| self.bytes_written_on(l))
            .sum()
    }

    /// Bytes written on one tier link (cancelled jobs excluded).
    pub fn bytes_written_on(&self, link: usize) -> u64 {
        self.links
            .get(link)
            .map(|l| {
                l.writes
                    .lock()
                    .jobs
                    .iter()
                    .filter(|j| !j.cancelled)
                    .map(|j| j.bytes)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Total bytes read back across every link.
    pub fn bytes_read(&self) -> u64 {
        (0..self.links.len()).map(|l| self.bytes_read_on(l)).sum()
    }

    /// Bytes read back on one tier link.
    pub fn bytes_read_on(&self, link: usize) -> u64 {
        self.links
            .get(link)
            .map(|l| l.reads.bytes_total())
            .unwrap_or(0)
    }

    /// Seconds the write directions were busy, summed over links.
    pub fn write_busy_secs(&self) -> f64 {
        (0..self.links.len())
            .map(|l| self.write_busy_secs_on(l))
            .sum()
    }

    /// Seconds one tier link's write direction was busy this step
    /// (cancelled jobs excluded).
    pub fn write_busy_secs_on(&self, link: usize) -> f64 {
        self.links
            .get(link)
            .map(|l| {
                l.writes
                    .lock()
                    .jobs
                    .iter()
                    .filter(|j| !j.cancelled)
                    .map(|j| j.dur_secs)
                    .sum::<f64>()
            })
            .unwrap_or(0.0)
    }

    /// Seconds one tier link's read direction was busy this step.
    pub fn read_busy_secs_on(&self, link: usize) -> f64 {
        self.links
            .get(link)
            .map(|l| *l.read_busy_secs.lock())
            .unwrap_or(0.0)
    }

    /// Clears all job state on every link (new measured step). An
    /// injected slowdown persists; see [`IoEngine::throttle`].
    pub fn reset(&self) {
        for link in self.links.iter() {
            link.writes.lock().jobs.clear();
            link.reads.reset();
            *link.read_busy_secs.lock() = 0.0;
        }
        if let Some(bus) = &self.bus {
            bus.order.lock().clear();
        }
    }
}

impl std::fmt::Debug for IoEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoEngine")
            .field("links", &self.links.len())
            .field("write_gbps", &(self.write_bps() / 1e9))
            .field("read_gbps", &(self.read_bps() / 1e9))
            .field("bytes_written", &self.bytes_written())
            .field("bytes_read", &self.bytes_read())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> (SimClock, IoEngine) {
        let clock = SimClock::new();
        let io = IoEngine::new(clock.clone(), 1e9, 2e9);
        (clock, io)
    }

    #[test]
    fn stores_run_fifo() {
        let (_c, io) = engine();
        let a = io.submit_store(1_000_000_000); // 1 s
        let b = io.submit_store(500_000_000); // queued behind
        assert_eq!(io.store_end(a).as_secs(), 1.0);
        assert_eq!(io.store_end(b).as_secs(), 1.5);
    }

    #[test]
    fn cancelling_a_queued_store_reflows_the_queue() {
        let (_c, io) = engine();
        let _a = io.submit_store(1_000_000_000);
        let b = io.submit_store(1_000_000_000);
        let c = io.submit_store(1_000_000_000);
        assert_eq!(io.store_end(c).as_secs(), 3.0);
        // b has not started at t=0.5.
        assert!(io.try_cancel_store(b, SimTime::from_secs(0.5)));
        assert_eq!(io.store_end(c).as_secs(), 2.0);
        assert_eq!(io.bytes_written(), 2_000_000_000);
    }

    #[test]
    fn started_stores_cannot_be_cancelled() {
        let (_c, io) = engine();
        let a = io.submit_store(1_000_000_000);
        assert!(io.store_started(a, SimTime::from_secs(0.1)));
        assert!(!io.try_cancel_store(a, SimTime::from_secs(0.1)));
        assert_eq!(io.bytes_written(), 1_000_000_000);
    }

    #[test]
    fn loads_use_the_read_channel() {
        let (clock, io) = engine();
        clock.advance_by(1.0);
        let ready = io.submit_load(2_000_000_000); // 1 s at 2 GB/s
        assert_eq!(ready.as_secs(), 2.0);
        assert_eq!(io.bytes_read(), 2_000_000_000);
    }

    #[test]
    fn a_read_never_starts_before_its_store_lands() {
        let (clock, io) = engine();
        let store = io.submit_store(1_000_000_000); // lands at 1 s
        clock.advance_by(0.25);
        // 1 GB at 2 GB/s: 0.5 s of read after the landing, not from now.
        let ready = io.submit_load_from_at(0, 1_000_000_000, io.store_end(store));
        assert_eq!(ready.as_secs(), 1.5);
        assert_eq!(io.read_busy_secs_on(0), 0.5);
        // A landing already in the past starts the read now, FIFO behind
        // the first one.
        let next = io.submit_load_from_at(0, 1_000_000_000, SimTime::from_secs(0.1));
        assert_eq!(next.as_secs(), 2.0);
        assert_eq!(io.load_secs_on(0, 1_000_000_000), 0.5);
    }

    #[test]
    fn writes_overlap_reads_full_duplex() {
        let (_c, io) = engine();
        io.submit_store(1_000_000_000);
        let ready = io.submit_load(2_000_000_000);
        // Read finishes at 1 s even though a write occupies 0..1 s.
        assert_eq!(ready.as_secs(), 1.0);
    }

    #[test]
    fn drain_time_tracks_last_live_job() {
        let (_c, io) = engine();
        let _a = io.submit_store(1_000_000_000);
        let b = io.submit_store(1_000_000_000);
        assert_eq!(io.writes_drain_at().as_secs(), 2.0);
        io.try_cancel_store(b, SimTime::ZERO);
        assert_eq!(io.writes_drain_at().as_secs(), 1.0);
    }

    #[test]
    fn throttle_stretches_queued_and_inflight_writes() {
        let (clock, io) = engine();
        let a = io.submit_store(1_000_000_000); // scheduled 0..1 s
        let b = io.submit_store(1_000_000_000); // scheduled 1..2 s
        clock.advance_by(0.5);
        io.throttle(2.0);
        // a: 0.5 s done + 0.5 s remaining at half speed = ends at 1.5 s.
        assert_eq!(io.store_end(a).as_secs(), 1.5);
        // b: not started, takes 2 s, queued behind a.
        assert_eq!(io.store_end(b).as_secs(), 3.5);
        assert_eq!(io.effective_write_bps(), 0.5e9);
        // Future reads also slow: 2 GB at an effective 1 GB/s.
        let ready = io.submit_load(2_000_000_000);
        assert_eq!(ready.as_secs(), 2.5);
    }

    #[test]
    fn cancellation_after_throttle_keeps_fifo_and_pricing() {
        let (clock, io) = engine();
        let _a = io.submit_store(1_000_000_000);
        let b = io.submit_store(1_000_000_000);
        let c = io.submit_store(1_000_000_000);
        clock.advance_by(0.5);
        io.throttle(2.0);
        assert_eq!(io.store_end(c).as_secs(), 5.5);
        // Cancelling b pulls c forward without re-pricing a's history.
        assert!(io.try_cancel_store(b, clock.now()));
        assert_eq!(io.store_end(c).as_secs(), 3.5);
        let busy = io.write_busy_secs();
        assert!((busy - 3.5).abs() < 1e-9, "busy {busy}");
    }

    #[test]
    fn idle_write_queue_starts_at_submit_time() {
        let (clock, io) = engine();
        clock.advance_by(3.0);
        let a = io.submit_store(1_000_000_000);
        assert_eq!(io.store_end(a).as_secs(), 4.0);
    }

    fn tiered_engine() -> (SimClock, IoEngine) {
        let clock = SimClock::new();
        let io = IoEngine::tiered(
            clock.clone(),
            vec![
                TierLink::new("dram", 2e9, 2e9),
                TierLink::new("ssd", 1e9, 1e9),
            ],
        );
        (clock, io)
    }

    #[test]
    fn tier_links_queue_independently() {
        let (_c, io) = tiered_engine();
        let a = io.submit_store_to(0, 2_000_000_000); // 1 s on dram
        let b = io.submit_store_to(1, 1_000_000_000); // 1 s on ssd
        let c = io.submit_store_to(0, 2_000_000_000); // queues behind a only
        assert_eq!(io.store_end(a).as_secs(), 1.0);
        assert_eq!(io.store_end(b).as_secs(), 1.0);
        assert_eq!(io.store_end(c).as_secs(), 2.0);
        assert_eq!(io.bytes_written_on(0), 4_000_000_000);
        assert_eq!(io.bytes_written_on(1), 1_000_000_000);
        assert_eq!(io.bytes_written(), 5_000_000_000);
    }

    #[test]
    fn tier_loads_price_on_their_own_link() {
        let (_c, io) = tiered_engine();
        let dram_ready = io.submit_load_from(0, 2_000_000_000); // 1 s at 2 GB/s
        let ssd_ready = io.submit_load_from(1, 2_000_000_000); // 2 s at 1 GB/s
        assert_eq!(dram_ready.as_secs(), 1.0);
        assert_eq!(ssd_ready.as_secs(), 2.0);
        assert_eq!(io.bytes_read_on(0), 2_000_000_000);
        assert_eq!(io.bytes_read_on(1), 2_000_000_000);
    }

    #[test]
    fn aggregates_sum_over_links() {
        let (_c, io) = tiered_engine();
        assert_eq!(io.link_count(), 2);
        assert_eq!(io.write_bps(), 3e9);
        assert_eq!(io.read_bps(), 3e9);
        assert_eq!(io.write_bps_of(1), 1e9);
        assert_eq!(io.read_bps_of(0), 2e9);
        io.submit_store_to(0, 2_000_000_000);
        io.submit_store_to(1, 1_000_000_000);
        assert_eq!(io.write_busy_secs(), 2.0);
        io.reset();
        assert_eq!(io.bytes_written(), 0);
    }

    #[test]
    fn throttle_degrades_every_link() {
        let (_c, io) = tiered_engine();
        io.throttle(2.0);
        assert_eq!(io.effective_write_bps(), 1.5e9);
        let a = io.submit_store_to(1, 1_000_000_000); // 2 s at slowed 0.5 GB/s
        assert_eq!(io.store_end(a).as_secs(), 2.0);
    }

    #[test]
    fn out_of_range_link_clamps_to_last() {
        let (_c, io) = tiered_engine();
        let a = io.submit_store_to(99, 1_000_000_000);
        assert_eq!(io.store_end(a).as_secs(), 1.0); // priced on the ssd link
        assert_eq!(io.bytes_written_on(1), 1_000_000_000);
    }

    fn bus_engine() -> (SimClock, IoEngine) {
        let clock = SimClock::new();
        let io = IoEngine::tiered_with_bus(
            clock.clone(),
            vec![
                TierLink::new("dram", 2e9, 2e9),
                TierLink::new("ssd", 1e9, 1e9),
            ],
            2e9,
        );
        (clock, io)
    }

    #[test]
    fn bus_serialises_stores_across_links() {
        let (_c, io) = bus_engine();
        let a = io.submit_store_to(0, 2_000_000_000); // 0..1 s at the bus rate
        let b = io.submit_store_to(1, 1_000_000_000); // bus busy until 1 s
        let c = io.submit_store_to(0, 2_000_000_000); // behind b on the bus
        assert_eq!(io.store_end(a).as_secs(), 1.0);
        assert_eq!(io.store_end(b).as_secs(), 2.0);
        assert_eq!(io.store_end(c).as_secs(), 3.0);
        // Per-link drain reflects the bus schedule, not link-local FIFO.
        assert_eq!(io.writes_drain_at_on(0).as_secs(), 3.0);
        assert_eq!(io.writes_drain_at_on(1).as_secs(), 2.0);
        assert_eq!(io.bus_write_bps(), Some(2e9));
    }

    #[test]
    fn bus_jobs_pay_the_slower_of_link_and_bus() {
        let (_c, io) = bus_engine();
        // The ssd link (1 GB/s) is slower than the bus (2 GB/s).
        let a = io.submit_store_to(1, 1_000_000_000);
        assert_eq!(io.store_end(a).as_secs(), 1.0);
        assert_eq!(io.write_busy_secs_on(1), 1.0);
    }

    #[test]
    fn bus_cancellation_reflows_the_global_order() {
        let (_c, io) = bus_engine();
        let _a = io.submit_store_to(0, 2_000_000_000); // 0..1 s
        let b = io.submit_store_to(1, 1_000_000_000); // 1..2 s
        let c = io.submit_store_to(0, 2_000_000_000); // 2..3 s
        assert!(io.try_cancel_store(b, SimTime::from_secs(0.5)));
        // c pulls forward across the freed bus slot.
        assert_eq!(io.store_end(c).as_secs(), 2.0);
        assert_eq!(io.bytes_written(), 4_000_000_000);
    }

    #[test]
    fn bus_throttle_stretches_the_serialised_schedule() {
        let (clock, io) = bus_engine();
        let a = io.submit_store_to(0, 2_000_000_000); // 0..1 s
        let b = io.submit_store_to(1, 1_000_000_000); // 1..2 s
        clock.advance_by(0.5);
        io.throttle(2.0);
        // a: half done, remaining half at half speed → ends at 1.5 s.
        assert_eq!(io.store_end(a).as_secs(), 1.5);
        // b: not started, 2 s at the slowed rate, behind a on the bus.
        assert_eq!(io.store_end(b).as_secs(), 3.5);
    }

    #[test]
    fn single_link_bus_matches_the_flat_engine() {
        let clock = SimClock::new();
        let flat = IoEngine::new(clock.clone(), 1e9, 2e9);
        let bus = IoEngine::tiered_with_bus(
            clock.clone(),
            vec![TierLink::new("offload", 1e9, 2e9)],
            25e9,
        );
        for io in [&flat, &bus] {
            let a = io.submit_store(1_000_000_000);
            let b = io.submit_store(500_000_000);
            io.try_cancel_store(b, SimTime::from_secs(0.5));
            assert_eq!(io.store_end(a).as_secs(), 1.0);
            assert_eq!(io.writes_drain_at().as_secs(), 1.0);
            assert_eq!(io.bytes_written(), 1_000_000_000);
        }
    }

    #[test]
    fn store_job_overhead_prices_per_job_not_per_byte() {
        let (_c, io) = engine();
        io.set_store_job_overhead(0.25);
        let a = io.submit_store(1_000_000_000); // 0.25 + 1.0 s
        let b = io.submit_store(1_000_000_000); // queued, same cost
        assert_eq!(io.store_end(a).as_secs(), 1.25);
        assert_eq!(io.store_end(b).as_secs(), 2.5);
        // One coalesced job moves the same bytes for one overhead.
        io.reset();
        let c = io.submit_store(2_000_000_000);
        assert_eq!(io.store_end(c).as_secs(), 2.25);
        assert_eq!(io.store_job_overhead_secs(), 0.25);
    }

    #[test]
    fn store_job_overhead_survives_cancellation_reflow() {
        let (_c, io) = engine();
        io.set_store_job_overhead(0.5);
        let _a = io.submit_store(1_000_000_000); // 0 .. 1.5 s
        let b = io.submit_store(1_000_000_000); // 1.5 .. 3.0 s
        let c = io.submit_store(1_000_000_000); // 3.0 .. 4.5 s
        assert!(io.try_cancel_store(b, SimTime::from_secs(0.5)));
        // c keeps its 0.5 s overhead after pulling forward.
        assert_eq!(io.store_end(c).as_secs(), 3.0);
    }

    #[test]
    fn a_forecast_store_end_matches_the_submitted_job() {
        let (clock, io) = bus_engine();
        io.set_store_job_overhead(0.25);
        io.submit_store_to(0, 1_000_000_000);
        clock.advance_by(0.5);
        for link in 0..2 {
            let forecast = io.store_end_if_submitted(link, 500_000_000);
            let job = io.submit_store_to(link, 500_000_000);
            assert_eq!(forecast, io.store_end(job));
        }
        let (clock, io) = tiered_engine();
        io.submit_store_to(1, 1_000_000_000);
        clock.advance_by(0.25);
        let forecast = io.store_end_if_submitted(0, 1_000_000_000);
        assert_eq!(forecast, io.store_end(io.submit_store_to(0, 1_000_000_000)));
    }

    #[test]
    fn per_link_busy_accounting_tracks_reads() {
        let (_c, io) = tiered_engine();
        io.submit_load_from(0, 2_000_000_000); // 1 s at 2 GB/s
        io.submit_load_from(1, 1_000_000_000); // 1 s at 1 GB/s
        assert_eq!(io.read_busy_secs_on(0), 1.0);
        assert_eq!(io.read_busy_secs_on(1), 1.0);
        assert_eq!(io.link_name(0), "dram");
        assert_eq!(io.link_name(1), "ssd");
        io.reset();
        assert_eq!(io.read_busy_secs_on(0), 0.0);
    }
}
