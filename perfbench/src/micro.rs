//! Host cost per call of single layers' public functions, measured on
//! standalone instances fed the sizes a workload's traced step stored
//! and loaded.

use ssdtrain::coalesce::WriteCoalescer;
use ssdtrain::id::TensorKey;
use ssdtrain::trace::{EventKind, TraceEvent};
use ssdtrain::{
    CpuTarget, IoEngine, OffloadClass, OffloadTarget, SsdTarget, TensorCache, TensorCacheConfig,
    Tier, TierStack, TraceCategory,
};
use ssdtrain_autograd::SavedTensorHooks;
use ssdtrain_simhw::{BufferArena, GpuMemory, SimClock, WearMeter};
use ssdtrain_tensor::{Device, Tensor};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Payload sizes one traced step moved, in event order.
#[derive(Debug, Clone, Default)]
pub struct Stream {
    /// Bytes of every tensor-level store (`store.enqueue` instants).
    pub stores: Vec<u64>,
    /// Bytes of every reload (`load` spans).
    pub loads: Vec<u64>,
}

impl Stream {
    /// The store and load sizes recorded in `events`.
    pub fn from_events(events: &[TraceEvent]) -> Stream {
        let mut s = Stream::default();
        for e in events {
            match (e.cat, e.name.as_str(), e.kind) {
                (TraceCategory::Store, "store.enqueue", EventKind::Instant) => {
                    s.stores.extend(e.bytes().filter(|b| *b > 0));
                }
                (TraceCategory::Load, "load", EventKind::Span { .. }) => {
                    s.loads.extend(e.bytes().filter(|b| *b > 0));
                }
                _ => {}
            }
        }
        s
    }
}

/// Repeats `pass` until `budget` has elapsed (at least three times)
/// and returns, per timed quantity the pass reports, the median over
/// passes of nanoseconds per operation.
fn median_ns_per_op<const K: usize>(
    budget: Duration,
    mut pass: impl FnMut() -> [(Duration, usize); K],
) -> [f64; K] {
    let start = Instant::now();
    let mut samples: [Vec<f64>; K] = std::array::from_fn(|_| Vec::new());
    while samples[0].len() < 3 || start.elapsed() < budget {
        for (k, (d, ops)) in pass().into_iter().enumerate() {
            if ops > 0 {
                samples[k].push(d.as_nanos() as f64 / ops as f64);
            }
        }
        if samples[0].is_empty() && start.elapsed() > budget {
            break;
        }
    }
    std::array::from_fn(|k| crate::stats::median(&samples[k]))
}

/// Times `f` over every element of `items`: (elapsed, count).
fn timed<T>(items: impl IntoIterator<Item = T>, mut f: impl FnMut(T)) -> (Duration, usize) {
    let start = Instant::now();
    let mut n = 0;
    for item in items {
        f(item);
        n += 1;
    }
    (start.elapsed(), n)
}

/// What the microbenchmarks need to know about the workload.
pub struct Target<'a> {
    /// Shape-only tensors (no payload bytes move).
    pub symbolic: bool,
    /// The workload's cache configuration.
    pub cache: TensorCacheConfig,
    /// Offload link write and read bandwidth, bytes/s.
    pub link_bps: (f64, f64),
    /// Segment size sealed by the coalescer benchmark.
    pub segment_bytes: u64,
    /// Directory for the SSD target's spill files.
    pub spill_dir: &'a Path,
}

fn device(symbolic: bool, mem: &Arc<GpuMemory>) -> Device {
    let dev = if symbolic {
        Device::symbolic()
    } else {
        Device::cpu()
    };
    dev.set_tracker(mem.clone());
    dev
}

fn tensor_of(bytes: u64, dev: &Device) -> Tensor {
    let numel = (bytes / dev.default_dtype().byte_size()).max(1) as usize;
    if dev.is_symbolic() {
        Tensor::symbolic([numel], dev)
    } else {
        Tensor::zeros([numel], dev)
    }
}

/// A cache over a host-memory target, its clock, and a device whose
/// allocations it tracks.
fn standalone_cache(t: &Target) -> (Arc<TensorCache>, SimClock, Device) {
    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), u64::MAX / 4));
    let dev = device(t.symbolic, &mem);
    let io = IoEngine::new(clock.clone(), t.link_bps.0, t.link_bps.1);
    let target = Arc::new(CpuTarget::new(u64::MAX / 4));
    (
        TensorCache::new(t.cache.clone(), target, io, mem),
        clock,
        dev,
    )
}

/// One step's worth of saves: pack every store, let every store
/// finish, unpack everything. Returns the pack and unpack timings.
fn pack_unpack_pass(
    cache: &TensorCache,
    clock: &SimClock,
    dev: &Device,
    sizes: &[u64],
) -> [(Duration, usize); 2] {
    cache.begin_step();
    let tensors: Vec<Tensor> = sizes.iter().map(|b| tensor_of(*b, dev)).collect();
    let mut packed = Vec::with_capacity(tensors.len());
    let pack = timed(&tensors, |x| packed.push(cache.pack(x)));
    // As in training, the graph lets go of a tensor once it is saved,
    // so the store commits (serialises) and unpack reloads.
    drop(tensors);
    clock.advance_by(1.0);
    let unpack = timed(&packed, |p| {
        black_box(cache.unpack(p));
    });
    drop(packed);
    cache.flush();
    [pack, unpack]
}

/// `cache.pack` and `cache.unpack` ns/op. Unpack runs after every
/// store finished, so it pays the store's commit and a synchronous
/// reload.
pub fn cache_pack_unpack(t: &Target, stream: &Stream, budget: Duration) -> [f64; 2] {
    let (cache, clock, dev) = standalone_cache(t);
    median_ns_per_op(budget, || {
        pack_unpack_pass(&cache, &clock, &dev, &stream.stores)
    })
}

/// `io.submit_store` and `io.submit_load` ns/op on a fresh engine per
/// pass.
pub fn io_submit(t: &Target, stream: &Stream, budget: Duration) -> [f64; 2] {
    median_ns_per_op(budget, || {
        let io = IoEngine::new(SimClock::new(), t.link_bps.0, t.link_bps.1);
        let store = timed(&stream.stores, |b| {
            black_box(io.submit_store(*b));
        });
        let load = timed(&stream.loads, |b| {
            black_box(io.submit_load(*b));
        });
        [store, load]
    })
}

/// `coalesce.stage` and `coalesce.seal` ns/op: every store is staged,
/// and the open segment is sealed whenever it reaches the segment size
/// (and once at the end of the pass).
pub fn coalesce(t: &Target, stream: &Stream, budget: Duration) -> [f64; 2] {
    let stack = TierStack::new(vec![Tier::new(
        "bench",
        Arc::new(CpuTarget::new(u64::MAX / 4)),
        0,
    )]);
    let tier = stack.tier_ids()[0];
    median_ns_per_op(budget, || {
        // Sealing is driven below, never by the size threshold inside
        // `stage`, so the two calls are timed apart.
        let mut c = WriteCoalescer::new(u64::MAX);
        let (mut stage, mut seal) = ((Duration::ZERO, 0), (Duration::ZERO, 0));
        for (i, b) in stream.stores.iter().enumerate() {
            let start = Instant::now();
            black_box(c.stage(tier, i as u64, *b, OffloadClass::Activation));
            stage.0 += start.elapsed();
            stage.1 += 1;
            let last = i + 1 == stream.stores.len();
            if last || c.open_bytes(tier) >= t.segment_bytes {
                let start = Instant::now();
                black_box(c.seal_tier(tier));
                seal.0 += start.elapsed();
                seal.1 += 1;
            }
        }
        [stage, seal]
    })
}

/// `arena.acquire` and `arena.release` ns/op on one arena that reaches
/// steady-state slab reuse after its first pass.
pub fn arena(stream: &Stream, budget: Duration) -> [f64; 2] {
    let arena = BufferArena::new();
    median_ns_per_op(budget, || {
        arena.begin_step();
        let mut slabs = Vec::with_capacity(stream.stores.len());
        let acquire = timed(&stream.stores, |b| slabs.extend(arena.acquire(*b)));
        let release = timed(slabs, |s| {
            black_box(arena.release(s));
        });
        [acquire, release]
    })
}

/// `target.write` and `target.read` ns/op on an SSD target: real spill
/// files for functional workloads, metered shape-only entries for
/// symbolic ones.
///
/// # Panics
/// Panics if the spill directory cannot be used.
pub fn target(t: &Target, stream: &Stream, budget: Duration) -> [f64; 2] {
    let ssd = SsdTarget::new(t.spill_dir, WearMeter::new(f64::MAX, 1.0)).expect("spill dir");
    let payload = if t.symbolic {
        Vec::new()
    } else {
        vec![0x5au8; stream.stores.iter().copied().max().unwrap_or(0) as usize]
    };
    let mut next = 0u64;
    median_ns_per_op(budget, || {
        let keys: Vec<(TensorKey, u64)> = stream
            .stores
            .iter()
            .map(|b| {
                next += 1;
                let shape = vec![usize::try_from(*b).expect("size fits in memory")];
                (TensorKey { stamp: next, shape }, *b)
            })
            .collect();
        let write = timed(&keys, |(k, b)| {
            let data = (!t.symbolic).then(|| &payload[..*b as usize]);
            ssd.write(k, data, *b).expect("spill write");
        });
        let read = timed(&keys, |(k, _)| {
            black_box(ssd.read(k).expect("spill read"));
        });
        for (k, _) in &keys {
            ssd.remove(k);
        }
        [write, read]
    })
}

/// `Tensor::matmul` ns/call at the functional GPT's MLP up-projection
/// shape: `[batch·seq, hidden] × [hidden, 4·hidden]`.
pub fn matmul(rows: usize, hidden: usize, budget: Duration) -> f64 {
    let dev = Device::cpu();
    let fill = |n: usize, salt: usize| -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 7919 + salt) % 1000) as f32 / 1000.0 - 0.5)
            .collect()
    };
    let a = Tensor::from_vec(fill(rows * hidden, 1), [rows, hidden], &dev);
    let w = Tensor::from_vec(fill(hidden * 4 * hidden, 2), [hidden, 4 * hidden], &dev);
    let [ns] = median_ns_per_op(budget, || {
        [timed(0..8, |_| {
            black_box(a.matmul(black_box(&w)));
        })]
    });
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target_in(dir: &Path, symbolic: bool) -> Target<'_> {
        Target {
            symbolic,
            cache: TensorCacheConfig::offload_everything(),
            link_bps: (1e10, 1e10),
            segment_bytes: 1 << 20,
            spill_dir: dir,
        }
    }

    #[test]
    fn every_microbenchmark_reports_a_cost() {
        let dir = std::env::temp_dir().join(format!("perfbench-micro-{}", std::process::id()));
        let stream = Stream {
            stores: vec![4096, 1 << 20, 300_000],
            loads: vec![4096, 1 << 20],
        };
        let budget = Duration::from_millis(5);
        for symbolic in [true, false] {
            let t = target_in(&dir, symbolic);
            let results = [
                cache_pack_unpack(&t, &stream, budget),
                io_submit(&t, &stream, budget),
                coalesce(&t, &stream, budget),
                arena(&stream, budget),
                target(&t, &stream, budget),
            ];
            for pair in results {
                assert!(pair.iter().all(|ns| *ns > 0.0), "{pair:?}");
            }
        }
        assert!(matmul(8, 16, budget) > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unpack_reloads_what_pack_stored() {
        let dir = std::env::temp_dir();
        for symbolic in [true, false] {
            let (cache, clock, dev) = standalone_cache(&target_in(&dir, symbolic));
            pack_unpack_pass(&cache, &clock, &dev, &[1 << 20, 4096]);
            let s = cache.stats();
            assert_eq!(s.reloaded_bytes, s.offloaded_bytes);
            assert!(s.reloaded_bytes > 0);
        }
    }

    #[test]
    fn stream_reads_store_and_load_sizes() {
        use ssdtrain::TraceSink;
        use ssdtrain_simhw::SimTime;
        let sink = TraceSink::enabled();
        sink.instant_bytes(TraceCategory::Store, "store.enqueue", SimTime::ZERO, 10);
        sink.span_bytes(
            TraceCategory::Load,
            "load",
            SimTime::ZERO,
            SimTime::from_secs(1.0),
            7,
        );
        sink.span_bytes(
            TraceCategory::Store,
            "store",
            SimTime::ZERO,
            SimTime::from_secs(1.0),
            99,
        );
        let s = Stream::from_events(&sink.events());
        assert_eq!(s.stores, vec![10]);
        assert_eq!(s.loads, vec![7]);
    }
}
