//! Discrete-event simulation platform throughput: events per second on
//! PIC-shaped schedules (the coarse-grained-simulation speed that lets
//! BE-SST-style studies sweep large design spaces).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pic_des::{simulate, MachineSpec, StepWorkload, SyncMode};
use pic_types::rng::SplitMix64;

/// A synthetic bulk-synchronous schedule with neighbour messages.
fn schedule(ranks: usize, steps: usize, msgs_per_rank: usize, seed: u64) -> Vec<StepWorkload> {
    let mut rng = SplitMix64::new(seed);
    (0..steps)
        .map(|_| {
            let compute_seconds: Vec<f64> =
                (0..ranks).map(|_| rng.next_range(1e-4, 5e-3)).collect();
            let mut messages = Vec::with_capacity(ranks * msgs_per_rank);
            for from in 0..ranks as u32 {
                for _ in 0..msgs_per_rank {
                    let to = rng.next_below(ranks as u64) as u32;
                    messages.push((from, to, 800));
                }
            }
            StepWorkload {
                compute_seconds,
                messages,
            }
        })
        .collect()
}

fn des_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_simulate");
    group.sample_size(10);
    for &(ranks, steps, msgs) in &[(64usize, 50usize, 2usize), (256, 50, 2), (1024, 20, 1)] {
        let sched = schedule(ranks, steps, msgs, 3);
        // events ≈ ranks*steps compute-done + total messages
        let events = (ranks * steps + ranks * msgs * steps) as u64;
        group.throughput(Throughput::Elements(events));
        for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
            group.bench_with_input(
                BenchmarkId::new(format!("{mode:?}"), format!("r{ranks}_s{steps}")),
                &sched,
                |b, sched| {
                    let machine = MachineSpec::quartz_like();
                    b.iter(|| simulate(sched, &machine, mode).unwrap());
                },
            );
        }
    }
    group.finish();
}

/// Event-queue pressure: the engine's calendar-queue event loop under
/// deep queues.
///
/// High fan-out schedules keep many in-flight messages resident at once,
/// so this group measures the push/pop and inline-delivery cost of
/// `simulate`'s event loop rather than the bookkeeping around it.
/// Neighbor sync is the mode that runs the queue (bulk-synchronous
/// schedules take the queue-free barrier fast path).
fn des_heap_pressure(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_event_queue");
    group.sample_size(10);
    for &(ranks, steps, msgs) in &[
        (128usize, 20usize, 4usize),
        (128, 20, 16),
        (128, 20, 64),
        (256, 40, 16),
        (1024, 20, 32),
    ] {
        let sched = schedule(ranks, steps, msgs, 11);
        let events = (ranks * steps * (1 + msgs)) as u64;
        group.throughput(Throughput::Elements(events));
        group.bench_with_input(
            BenchmarkId::new("neighbor_sync", format!("r{ranks}_fanout{msgs}")),
            &sched,
            |b, sched| {
                let machine = MachineSpec::quartz_like();
                b.iter(|| simulate(sched, &machine, SyncMode::NeighborSync).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, des_events, des_heap_pressure);
criterion_main!(benches);
