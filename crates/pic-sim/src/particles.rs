//! Particle storage and neighbour search.
//!
//! [`ParticleSet`] is a structure-of-arrays: positions and velocities in
//! separate contiguous buffers, the layout the interpolation/pusher kernels
//! stream through. [`CellList`] provides the O(N) neighbour search the
//! collision-force part of the equation-solver kernel needs.

use pic_types::{Aabb, Vec3};

/// Structure-of-arrays particle population.
#[derive(Debug, Clone, Default)]
pub struct ParticleSet {
    /// Particle positions.
    pub position: Vec<Vec3>,
    /// Particle velocities.
    pub velocity: Vec<Vec3>,
}

impl ParticleSet {
    /// An empty set with reserved capacity.
    pub fn with_capacity(n: usize) -> ParticleSet {
        ParticleSet {
            position: Vec::with_capacity(n),
            velocity: Vec::with_capacity(n),
        }
    }

    /// Append a particle at rest.
    pub fn push_at_rest(&mut self, p: Vec3) {
        self.position.push(p);
        self.velocity.push(Vec3::ZERO);
    }

    /// Append a particle with velocity.
    pub fn push(&mut self, p: Vec3, v: Vec3) {
        self.position.push(p);
        self.velocity.push(v);
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.position.len()
    }

    /// True if the set holds no particles.
    pub fn is_empty(&self) -> bool {
        self.position.is_empty()
    }

    /// Tight bounding box of all particles (the *particle boundary* of the
    /// bin-based mapping algorithm).
    pub fn boundary(&self) -> Aabb {
        Aabb::from_points(self.position.iter().copied())
    }
}

/// Uniform-cell neighbour search over particle positions.
///
/// Built once per step from the current positions; `for_neighbors` visits
/// every particle within `radius` of a query point (superset pruned by
/// exact distance check).
#[derive(Debug)]
pub struct CellList {
    bounds: Aabb,
    dims: [usize; 3],
    cell_size: f64,
    /// CSR layout: `starts[c]..starts[c+1]` indexes into `entries`.
    starts: Vec<u32>,
    entries: Vec<u32>,
}

impl CellList {
    /// A cell list holding no particles: every neighbour query visits
    /// nothing.
    pub fn empty() -> CellList {
        CellList::build(&[], 1.0)
    }

    /// Build a cell list with cells of edge `cell_size` (must be positive).
    pub fn build(positions: &[Vec3], cell_size: f64) -> CellList {
        assert!(cell_size > 0.0, "cell size must be positive");
        let bounds = Aabb::from_points(positions.iter().copied());
        if positions.is_empty() || bounds.is_empty() {
            return CellList {
                bounds,
                dims: [1, 1, 1],
                cell_size,
                starts: vec![0, 0],
                entries: vec![],
            };
        }
        let ext = bounds.extent();
        let dim = |e: f64| ((e / cell_size).ceil() as usize).clamp(1, 128);
        let dims = [dim(ext.x), dim(ext.y), dim(ext.z)];
        let n_cells = dims[0] * dims[1] * dims[2];

        // Counting sort into CSR buckets.
        let cell_of = |p: Vec3| -> usize {
            let rel = p - bounds.min;
            let idx =
                |v: f64, d: usize| (((v / cell_size) as isize).clamp(0, d as isize - 1)) as usize;
            let cx = idx(rel.x, dims[0]);
            let cy = idx(rel.y, dims[1]);
            let cz = idx(rel.z, dims[2]);
            cx + dims[0] * (cy + dims[1] * cz)
        };
        let mut counts = vec![0u32; n_cells + 1];
        for &p in positions {
            counts[cell_of(p) + 1] += 1;
        }
        for c in 0..n_cells {
            counts[c + 1] += counts[c];
        }
        let starts = counts.clone();
        let mut cursor = counts;
        let mut entries = vec![0u32; positions.len()];
        for (i, &p) in positions.iter().enumerate() {
            let c = cell_of(p);
            entries[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        CellList {
            bounds,
            dims,
            cell_size,
            starts,
            entries,
        }
    }

    /// Visit the indices of all particles within `radius` of `query`
    /// (includes the query particle itself if its position matches).
    pub fn for_neighbors(
        &self,
        positions: &[Vec3],
        query: Vec3,
        radius: f64,
        mut visit: impl FnMut(u32),
    ) {
        if self.entries.is_empty() {
            return;
        }
        let rel_lo = query - Vec3::splat(radius) - self.bounds.min;
        let rel_hi = query + Vec3::splat(radius) - self.bounds.min;
        let range = |lo: f64, hi: f64, d: usize| -> (usize, usize) {
            let a = ((lo / self.cell_size).floor() as isize).clamp(0, d as isize - 1) as usize;
            let b = ((hi / self.cell_size).floor() as isize).clamp(0, d as isize - 1) as usize;
            (a, b)
        };
        let (x0, x1) = range(rel_lo.x, rel_hi.x, self.dims[0]);
        let (y0, y1) = range(rel_lo.y, rel_hi.y, self.dims[1]);
        let (z0, z1) = range(rel_lo.z, rel_hi.z, self.dims[2]);
        let r2 = radius * radius;
        for cz in z0..=z1 {
            for cy in y0..=y1 {
                for cx in x0..=x1 {
                    let c = cx + self.dims[0] * (cy + self.dims[1] * cz);
                    let lo = self.starts[c] as usize;
                    let hi = self.starts[c + 1] as usize;
                    for &i in &self.entries[lo..hi] {
                        if positions[i as usize].distance_sq(query) <= r2 {
                            visit(i);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_types::rng::SplitMix64;

    #[test]
    fn particle_set_basics() {
        let mut s = ParticleSet::with_capacity(4);
        assert!(s.is_empty());
        s.push_at_rest(Vec3::splat(0.5));
        s.push(Vec3::ONE, Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.velocity[0], Vec3::ZERO);
        assert_eq!(s.boundary(), Aabb::new(Vec3::splat(0.5), Vec3::ONE));
    }

    fn random_positions(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
            .collect()
    }

    fn brute_neighbors(positions: &[Vec3], q: Vec3, r: f64) -> Vec<u32> {
        let r2 = r * r;
        let mut v: Vec<u32> = positions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_sq(q) <= r2)
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn cell_list_matches_brute_force() {
        let positions = random_positions(500, 11);
        let cl = CellList::build(&positions, 0.1);
        let mut rng = SplitMix64::new(12);
        for _ in 0..200 {
            let q = Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64());
            let r = rng.next_range(0.02, 0.25);
            let mut found = Vec::new();
            cl.for_neighbors(&positions, q, r, |i| found.push(i));
            found.sort_unstable();
            assert_eq!(found, brute_neighbors(&positions, q, r));
        }
    }

    #[test]
    fn cell_list_empty_positions() {
        let cl = CellList::build(&[], 0.1);
        let mut called = false;
        cl.for_neighbors(&[], Vec3::ZERO, 1.0, |_| called = true);
        assert!(!called);
    }

    #[test]
    fn cell_list_single_particle() {
        let positions = vec![Vec3::splat(0.3)];
        let cl = CellList::build(&positions, 0.5);
        let mut found = Vec::new();
        cl.for_neighbors(&positions, Vec3::splat(0.3), 0.01, |i| found.push(i));
        assert_eq!(found, vec![0]);
        found.clear();
        cl.for_neighbors(&positions, Vec3::splat(0.9), 0.01, |i| found.push(i));
        assert!(found.is_empty());
    }

    #[test]
    fn cell_list_query_outside_bounds() {
        let positions = random_positions(50, 13);
        let cl = CellList::build(&positions, 0.2);
        let mut found = Vec::new();
        // far outside: nothing
        cl.for_neighbors(&positions, Vec3::splat(50.0), 0.1, |i| found.push(i));
        assert!(found.is_empty());
        // just outside but radius reaches in: must still find edge particles
        let q = Vec3::new(1.05, 0.5, 0.5);
        cl.for_neighbors(&positions, q, 0.2, |i| found.push(i));
        found.sort_unstable();
        assert_eq!(found, brute_neighbors(&positions, q, 0.2));
    }

    #[test]
    #[should_panic]
    fn cell_list_zero_cell_size_panics() {
        CellList::build(&[Vec3::ZERO], 0.0);
    }

    #[test]
    fn coincident_particles_all_found() {
        let positions = vec![Vec3::splat(0.5); 20];
        let cl = CellList::build(&positions, 0.1);
        let mut found = Vec::new();
        cl.for_neighbors(&positions, Vec3::splat(0.5), 1e-9, |i| found.push(i));
        assert_eq!(found.len(), 20);
    }
}
