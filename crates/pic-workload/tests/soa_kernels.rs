//! Property tests for the SoA matrix ghost kernels: the transpose is a bit
//! copy, and the grouped lane kernels are bit-identical to the scalar
//! reference kernels for any radii, any rank layout, and every lane-padding
//! boundary.

use pic_mapping::{BinMapper, ParticleMapper, RegionIndex};
use pic_oracle::{ghost_counts_chunked, multi_ghost_chunked};
use pic_types::{Rank, Vec3};
use pic_workload::soa::{ghost_counts_soa, multi_ghost_soa, SoAPositions, LANE};
use proptest::prelude::*;

/// Particle counts that exercise every lane-boundary case: exact multiples
/// of `LANE`, one over, one under, plus arbitrary small sizes.
fn boundary_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(LANE),
        Just(LANE + 1),
        Just(2 * LANE - 1),
        Just(3 * LANE),
        1usize..130,
    ]
}

/// An assignment fixture: owners plus the region index the ghost kernels
/// query, derived from a bin mapping of the positions.
fn fixture(positions: &[Vec3], ranks: usize) -> (Vec<Rank>, RegionIndex) {
    let mapper = BinMapper::new(ranks, 1e-4).unwrap();
    let out = mapper.assign(positions);
    let index = RegionIndex::build(&out.rank_regions);
    (out.ranks, index)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn soa_transpose_roundtrips_arbitrary_bit_patterns(
        bits in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..40)
    ) {
        // Raw u64 bit patterns cover NaNs with payloads, ±0.0, subnormals,
        // and infinities; the transpose must preserve every one exactly.
        let positions: Vec<Vec3> = bits
            .iter()
            .map(|&(x, y, z)| {
                Vec3::new(f64::from_bits(x), f64::from_bits(y), f64::from_bits(z))
            })
            .collect();
        let soa = SoAPositions::from_positions(&positions);
        prop_assert_eq!(soa.len(), positions.len());
        let back = soa.to_positions();
        for (a, b) in positions.iter().zip(&back) {
            prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
            prop_assert_eq!(a.y.to_bits(), b.y.to_bits());
            prop_assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
    }

    #[test]
    fn lane_kernel_matches_scalar_kernel(
        n in boundary_len(),
        seed in 0u64..1000,
        ranks in 2usize..24,
        radius in prop_oneof![0.005..0.4f64, Just(0.0), Just(f64::INFINITY)],
    ) {
        // Pin the length to the boundary case and draw coordinates from a
        // seeded generator, so `n % LANE` stays the interesting dimension.
        let mut rng = pic_types::rng::SplitMix64::new(seed);
        let positions: Vec<Vec3> = (0..n)
            .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
            .collect();
        let (owners, index) = fixture(&positions, ranks);
        let soa = SoAPositions::from_positions(&positions);
        let scalar = ghost_counts_chunked(&positions, &owners, &index, radius, ranks);
        let lane = ghost_counts_soa(&soa, &owners, &index, radius, ranks);
        prop_assert_eq!(scalar, lane);
    }

    #[test]
    fn lane_kernel_matches_scalar_on_random_clouds(
        positions in proptest::collection::vec(
            (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
            1..150,
        ),
        ranks in 2usize..24,
        radius in 0.005..0.4f64,
    ) {
        let (owners, index) = fixture(&positions, ranks);
        let soa = SoAPositions::from_positions(&positions);
        let scalar = ghost_counts_chunked(&positions, &owners, &index, radius, ranks);
        let lane = ghost_counts_soa(&soa, &owners, &index, radius, ranks);
        prop_assert_eq!(scalar, lane);
    }

    #[test]
    fn multi_radius_lane_kernel_matches_scalar(
        positions in proptest::collection::vec(
            (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
            1..120,
        ),
        ranks in 2usize..20,
        radii in proptest::collection::vec(0.005..0.4f64, 2..5),
    ) {
        let (owners, index) = fixture(&positions, ranks);
        let soa = SoAPositions::from_positions(&positions);
        let r_max = radii.iter().cloned().fold(0.0f64, f64::max);
        let rr: Vec<f64> = radii.iter().map(|&r| r * r).collect();
        let scalar = multi_ghost_chunked(&positions, &owners, &index, r_max, &rr, ranks);
        let lane = multi_ghost_soa(&soa, &owners, &index, r_max, &rr, ranks);
        prop_assert_eq!(&scalar, &lane);
        // And the shared pass agrees with running every radius standalone.
        for (k, &r) in radii.iter().enumerate() {
            let single = ghost_counts_chunked(&positions, &owners, &index, r, ranks);
            prop_assert_eq!(&scalar[k], &single);
        }
    }
}

/// Four x-slab regions over the unit cube with round-robin owners: the
/// bin mapper cannot partition non-finite positions, but the ghost
/// kernels must still agree on them, so the fixture is hand-built.
fn slab_fixture(particles: usize, ranks: usize) -> (Vec<Rank>, RegionIndex) {
    let regions: Vec<pic_types::Aabb> = (0..ranks)
        .map(|r| {
            let lo = r as f64 / ranks as f64;
            pic_types::Aabb::new(
                Vec3::new(lo, 0.0, 0.0),
                Vec3::new(lo + 1.0 / ranks as f64, 1.0, 1.0),
            )
        })
        .collect();
    let owners = (0..particles)
        .map(|i| Rank::from_index(i % ranks))
        .collect();
    (owners, RegionIndex::build(&regions))
}

#[test]
fn lane_kernel_handles_degenerate_inputs_like_scalar() {
    // Finite-but-extreme coordinates (far outside the region bounds) and
    // edge radii are well-defined in every build profile: the SoA path
    // must take the exact same early-outs as the scalar kernel.
    let positions = vec![
        Vec3::new(1e300, 0.5, 0.5),
        Vec3::new(0.2, 0.2, 0.2),
        Vec3::new(-1e300, 0.1, 0.9),
        Vec3::new(0.8, 0.8, 0.8),
        Vec3::new(0.2, -40.0, 0.3),
    ];
    let ranks = 4;
    let (owners, index) = slab_fixture(positions.len(), ranks);
    let soa = SoAPositions::from_positions(&positions);
    for radius in [0.1, 0.0, f64::INFINITY] {
        let scalar = ghost_counts_chunked(&positions, &owners, &index, radius, ranks);
        let lane = ghost_counts_soa(&soa, &owners, &index, radius, ranks);
        assert_eq!(scalar, lane, "radius {radius}");
    }
    let empty = SoAPositions::from_positions(&[]);
    let (r, s) = ghost_counts_soa(&empty, &[], &index, 0.1, ranks);
    assert_eq!(r, vec![0; ranks]);
    assert_eq!(s, vec![0; ranks]);
}

#[test]
fn lane_kernel_handles_non_finite_inputs_like_scalar() {
    // NaN/±inf coordinates and negative/NaN radii build malformed query
    // boxes that `Aabb::new` rejects in debug builds — a contract both
    // kernels share, so there is nothing to compare there. In release
    // (the profile the CI thread-matrix job runs this suite under) the
    // assert compiles out and both kernels must take identical early-outs.
    if cfg!(debug_assertions) {
        return;
    }
    let positions = vec![
        Vec3::new(f64::NAN, 0.5, 0.5),
        Vec3::new(0.2, 0.2, 0.2),
        Vec3::new(f64::INFINITY, 0.1, 0.9),
        Vec3::new(0.8, 0.8, 0.8),
        Vec3::new(0.2, f64::NEG_INFINITY, 0.3),
    ];
    let ranks = 4;
    let (owners, index) = slab_fixture(positions.len(), ranks);
    let soa = SoAPositions::from_positions(&positions);
    for radius in [0.1, 0.0, -1.0, f64::NAN, f64::INFINITY] {
        let scalar = ghost_counts_chunked(&positions, &owners, &index, radius, ranks);
        let lane = ghost_counts_soa(&soa, &owners, &index, radius, ranks);
        assert_eq!(scalar, lane, "radius {radius}");
    }
}
