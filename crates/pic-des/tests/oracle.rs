//! Exact equality between `pic_des::simulate` and the dense reference
//! engine in `pic-oracle` on hand-built edge-case schedules: ties, zero
//! compute, self-messages, fan-in/fan-out, senders running ahead,
//! collective latency and torus distances. The random-schedule version of
//! this check is `all_engines_bit_identical` in `tests/props.rs`.

use pic_des::{simulate, MachineSpec, StepWorkload, SyncMode, Topology};
use pic_oracle::simulate_reference;

fn machine() -> MachineSpec {
    MachineSpec {
        name: "test".into(),
        nodes: 1,
        cores_per_node: 4,
        compute_scale: 1.0,
        link_latency: 0.5,
        link_bandwidth: 10.0,
        topology: Default::default(),
        collective_latency: 0.0,
    }
}

fn step(compute_seconds: Vec<f64>, messages: Vec<(u32, u32, u64)>) -> StepWorkload {
    StepWorkload {
        compute_seconds,
        messages,
    }
}

fn assert_matches_reference(steps: &[StepWorkload], m: &MachineSpec) {
    for mode in [SyncMode::BulkSynchronous, SyncMode::NeighborSync] {
        let oracle = simulate_reference(steps, m, mode).expect("reference");
        let t = simulate(steps, m, mode).expect("simulate");
        assert_eq!(t, oracle, "diverged from the reference ({mode:?})");
    }
}

#[test]
fn engines_agree_on_irregular_schedule() {
    let mut m = machine();
    m.collective_latency = 0.25;
    m.topology = Topology::Torus3D { x: 2, y: 2, z: 2 };
    let steps = vec![
        step(
            vec![1.0, 1.0, 0.0, 2.5, 1.0, 1.0, 0.5, 3.0],
            vec![(0, 1, 10), (0, 7, 5), (3, 3, 1), (7, 0, 100), (2, 4, 0)],
        ),
        step(
            vec![0.0; 8],
            vec![(1, 2, 7), (2, 1, 7), (5, 6, 9), (6, 5, 9)],
        ),
        step(
            vec![2.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
            vec![(0, 1, 1), (0, 2, 1), (0, 3, 1), (4, 0, 1)],
        ),
    ];
    assert_matches_reference(&steps, &m);
}

#[test]
fn engines_agree_on_small_edge_schedules() {
    let schedules = vec![
        // uniform compute, no messages
        vec![step(vec![2.0; 4], vec![]); 3],
        // alternating per-step maxima
        vec![step(vec![3.0, 1.0], vec![]), step(vec![1.0, 3.0], vec![])],
        // a message delays its receiver
        vec![
            step(vec![2.0, 0.5], vec![(0, 1, 10)]),
            step(vec![0.1, 0.1], vec![]),
        ],
        // a fast sender runs ahead of a slow receiver
        vec![step(vec![0.1, 10.0], vec![(0, 1, 1)]); 4],
        // a self-message
        vec![step(vec![1.0], vec![(0, 0, 10)]), step(vec![1.0], vec![])],
        // one hot rank
        vec![step(vec![10.0, 1.0, 1.0, 1.0], vec![]); 3],
    ];
    let mut collective = machine();
    collective.collective_latency = 0.5;
    let mut scaled = machine();
    scaled.compute_scale = 3.0;
    for m in [machine(), collective, scaled] {
        for steps in &schedules {
            assert_matches_reference(steps, &m);
        }
    }
}
