//! The replay engine: one trace replay, many workloads.
//!
//! Every replay front-end in this crate — [`generator::generate`], the
//! streaming and reduced paths, and the sweeps here — runs on the same
//! three parts: the sweep plan (`build_plan`), one per-(group, sample)
//! kernel (`process_group_sample`), and one in-order accumulator that
//! folds sample outcomes into a [`DynamicWorkload`]. A per-configuration
//! call is a one-point sweep.
//!
//! The paper's parameter studies (Figs 6, 9, 10) regenerate workload
//! matrices across processor counts, mapping algorithms, projection-filter
//! radii, and sampling strides. Evaluating each grid point on its own
//! repeats work the points share: the mapper construction, the per-sample
//! particle assignment, the [`RegionIndex`] build, and — for filter
//! sweeps — the sphere queries themselves. The plan amortizes all of it:
//!
//! * **Grouping.** Sweep points whose assignment is provably identical are
//!   grouped: mesh-based mappings (`element-based`, `hilbert-ordered`,
//!   `load-balanced`) assign from `(mesh, ranks)` alone, so they group by
//!   `(mapping, ranks)`; `bin-based` partitions depend on the bin-size
//!   threshold too, so its key also carries the filter bits. Each group
//!   builds its mapper once and runs the assignment + index pass once per
//!   sample, no matter how many filters, ghost toggles, or strides ride
//!   on it.
//! * **Radius monotonicity.** Sphere–box overlap is monotone in the
//!   radius: a region touches the radius-`r` sphere iff its squared
//!   distance to the center is `≤ r²`. One candidate query per particle at
//!   the group's **maximum** filter radius therefore yields, by filtering
//!   the retained distances, results bit-identical to a dedicated query at
//!   every smaller radius. A six-filter sweep pays for one traversal, not
//!   six.
//! * **Strides.** A member with stride `s` consumes every `s`-th shared
//!   sample outcome, producing exactly the workload of
//!   `generate(&trace.subsample(s), cfg)`.
//!
//! Outputs are **bit-identical** to the sequential
//! [`generator::generate_reference`] oracle (re-exported by the dev-only
//! `pic-oracle` crate); `tests/frontends.rs` checks every front-end
//! against it, and `sweep_bench` checks at runtime.
//!
//! Two drivers run the engine: the in-memory one behind [`sweep`],
//! [`sweep_with_stats`] and [`sweep_with_cache`], and the streaming one,
//! [`sweep_streaming`], which reads frames from a
//! [`pic_trace::SampleSource`] and holds only a bounded number of frames
//! in memory — one sample × configurations, never trace length ×
//! configurations.

use crate::generator::{self, DynamicWorkload, WorkloadConfig};
use crate::matrices::{migration_pairs, CommMatrix, CompMatrix};
use crate::soa::{self, SoAPositions};
use pic_grid::ElementMesh;
use pic_mapping::{MappingAlgorithm, MappingOutcome, ParticleMapper, RegionIndex};
use pic_trace::ParticleTrace;
use pic_types::sync::TrackedMutex;
use pic_types::{Rank, Result, Vec3};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One grid point of a sweep: a generator configuration plus a sampling
/// stride (`1` = every trace sample; `s` = the workload of
/// `trace.subsample(s)`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The generator configuration to evaluate.
    pub config: WorkloadConfig,
    /// Sampling stride over the trace (`0` is treated as `1`).
    pub stride: usize,
}

impl SweepPoint {
    /// A stride-1 point (every sample).
    pub fn new(config: WorkloadConfig) -> SweepPoint {
        SweepPoint { config, stride: 1 }
    }

    /// A point that consumes every `stride`-th sample.
    pub fn with_stride(config: WorkloadConfig, stride: usize) -> SweepPoint {
        SweepPoint { config, stride }
    }
}

/// Sharing accounting from one sweep run: how much replay the grouping
/// actually avoided.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Grid points evaluated.
    pub points: usize,
    /// Assignment groups the points collapsed into.
    pub groups: usize,
    /// Trace samples replayed.
    pub samples: usize,
    /// Assignment + index passes executed (`groups × samples`).
    pub assign_passes: usize,
    /// Passes the per-configuration loop would have run
    /// (`points × samples`).
    pub naive_assign_passes: usize,
    /// Distinct ghost radii evaluated across all groups.
    pub ghost_radii: usize,
    /// Groups whose ghost radii were served by a single shared
    /// maximum-radius candidate query per particle.
    pub shared_query_groups: usize,
    /// Groups whose assignment artifacts were served from an
    /// [`AssignmentCache`] instead of being recomputed (always `0` on the
    /// cacheless paths).
    #[serde(default)]
    pub cached_groups: usize,
}

/// One ghost-radius slot of a group: the radius and whether it joins the
/// shared maximum-radius candidate pass. Radii that are not `≥ 0` (NaN or
/// negative) stay outside the sharing argument and are evaluated through
/// the single-radius kernel [`soa::ghost_counts_soa`], the one `generate`
/// has always used for every radius.
pub(crate) struct GhostSlot {
    pub(crate) radius: f64,
    pub(crate) shared: bool,
}

/// One assignment group: a mapper built once, plus every ghost radius its
/// members need.
pub(crate) struct GroupPlan {
    pub(crate) mapper: Box<dyn ParticleMapper>,
    pub(crate) ranks: usize,
    /// The grouping key the plan built this group under (assignment
    /// identity: mapping, ranks, filter bits iff bin-based). Combined
    /// with a mesh fingerprint it addresses cached assignment artifacts.
    pub(crate) key: (MappingAlgorithm, usize, Option<u64>),
    pub(crate) slots: Vec<GhostSlot>,
    /// Maximum radius among shared slots (meaningless when none are).
    pub(crate) shared_max: f64,
}

impl GroupPlan {
    fn shared_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.shared).count()
    }
}

/// One sweep point resolved against the plan.
pub(crate) struct MemberPlan {
    pub(crate) group: usize,
    pub(crate) stride: usize,
    /// Index into the group's ghost slots; `None` when ghosts are off.
    pub(crate) ghost_slot: Option<usize>,
}

pub(crate) struct SweepPlan {
    pub(crate) groups: Vec<GroupPlan>,
    pub(crate) members: Vec<MemberPlan>,
}

/// Key under which two points share assignment outcomes. Mesh-based
/// mappings ignore the projection filter during assignment; the bin-based
/// partition cuts at the bin-size threshold, so its key carries the filter
/// bits.
fn group_key(cfg: &WorkloadConfig) -> (MappingAlgorithm, usize, Option<u64>) {
    let filter_bits =
        (cfg.mapping == MappingAlgorithm::BinBased).then(|| cfg.projection_filter.to_bits());
    (cfg.mapping, cfg.ranks, filter_bits)
}

/// The sweep plan: group the points by assignment identity, building
/// each group's mapper once and collecting its distinct ghost radii.
pub(crate) fn build_plan(points: &[SweepPoint], mesh: Option<&ElementMesh>) -> Result<SweepPlan> {
    let mut keys: Vec<(MappingAlgorithm, usize, Option<u64>)> = Vec::new();
    let mut groups: Vec<GroupPlan> = Vec::new();
    let mut members = Vec::with_capacity(points.len());
    for p in points {
        let key = group_key(&p.config);
        let g = match keys.iter().position(|k| *k == key) {
            Some(i) => i,
            None => {
                // Mapper construction (mesh validation, decomposition)
                // happens here, once per group — not once per grid point.
                keys.push(key);
                groups.push(GroupPlan {
                    mapper: generator::build_mapper(&p.config, mesh)?,
                    ranks: p.config.ranks,
                    key,
                    slots: Vec::new(),
                    shared_max: f64::NEG_INFINITY,
                });
                groups.len() - 1
            }
        };
        let group = &mut groups[g];
        let ghost_slot = if p.config.compute_ghosts {
            let radius = p.config.projection_filter;
            let existing = group
                .slots
                .iter()
                .position(|s| s.radius.to_bits() == radius.to_bits());
            Some(match existing {
                Some(k) => k,
                None => {
                    let shared = radius >= 0.0;
                    if shared {
                        group.shared_max = group.shared_max.max(radius);
                    }
                    group.slots.push(GhostSlot { radius, shared });
                    group.slots.len() - 1
                }
            })
        } else {
            None
        };
        members.push(MemberPlan {
            group: g,
            stride: p.stride.max(1),
            ghost_slot,
        });
    }
    Ok(SweepPlan { groups, members })
}

/// The radius-independent artifact of one (group, sample) assignment
/// pass: per-rank real counts, bin count, particle owners, and the
/// spatial [`RegionIndex`] built from the rank regions. Everything a
/// ghost query at *any* radius needs, which is what makes it the unit of
/// sharing for [`AssignmentCache`] — the resident prediction service
/// keeps these as registry artifacts keyed by (mesh, binning) and replays
/// filters/strides off them without re-running the assignment.
#[derive(Debug, Clone)]
pub struct SampleAssignment {
    pub(crate) real: Vec<u32>,
    pub(crate) bin_count: Option<usize>,
    pub(crate) owners: Vec<Rank>,
    /// Present in every cached artifact; dropped after the ghost phase
    /// when nothing will query it again.
    pub(crate) index: Option<RegionIndex>,
}

impl SampleAssignment {
    /// Approximate resident bytes, for cache budget accounting.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.real.capacity() * std::mem::size_of::<u32>()
            + self.owners.capacity() * std::mem::size_of::<Rank>()
            + self.index.as_ref().map_or(0, RegionIndex::approx_bytes)
    }
}

/// One sample's ghost histograms: a `(recv, sent)` pair per radius slot.
pub(crate) type GhostSlots = Vec<(Vec<u32>, Vec<u32>)>;

/// The assignment half of the group kernel: the mapper pass alone.
/// Owner-only passes (reduced replay's predecessors) stop here.
pub(crate) fn assign(positions: &[Vec3], soa: &SoAPositions, group: &GroupPlan) -> MappingOutcome {
    if group.mapper.supports_soa() {
        group.mapper.assign_soa(soa.xs(), soa.ys(), soa.zs())
    } else {
        group.mapper.assign(positions)
    }
}

/// The per-(group, sample) kernel: the assignment half, per-rank
/// counting, the region-index build, and every ghost radius slot of the
/// group. One SoA transpose serves the mapper and the ghost kernels.
/// `keep_index` keeps the index in the artifact (for an
/// [`AssignmentCache`]); otherwise it is dropped here, and not built at
/// all when the group has no ghost slots.
pub(crate) fn process_group_sample(
    positions: &[Vec3],
    group: &GroupPlan,
    keep_index: bool,
) -> (SampleAssignment, GhostSlots) {
    let soa = SoAPositions::from_positions(positions);
    let outcome = assign(positions, &soa, group);
    let mut real = vec![0u32; group.ranks];
    for r in &outcome.ranks {
        real[r.index()] += 1;
    }
    let index =
        (keep_index || !group.slots.is_empty()).then(|| RegionIndex::build(&outcome.rank_regions));
    let ghosts = match &index {
        Some(index) => ghost_slots(&soa, &outcome.ranks, index, group),
        None => Vec::new(),
    };
    let assignment = SampleAssignment {
        real,
        bin_count: outcome.bin_count,
        owners: outcome.ranks,
        index: index.filter(|_| keep_index),
    };
    (assignment, ghosts)
}

/// Ghost histograms for every radius slot of a group, from one assignment.
///
/// When two or more slots are shared (`radius ≥ 0`), one candidate query
/// per particle at the group's maximum shared radius serves them all: a
/// region touches the radius-`r` sphere iff its retained squared distance
/// is `≤ r²`, the same closed comparison the single-radius kernel
/// performs, so the per-slot filter is bit-exact — see DESIGN.md §11.
/// Every other slot, including NaN and negative radii, goes through the
/// single-radius [`soa::ghost_counts_soa`].
fn ghost_slots(
    soa: &SoAPositions,
    owners: &[Rank],
    index: &RegionIndex,
    group: &GroupPlan,
) -> GhostSlots {
    let ranks = group.ranks;
    let multi_pass = group.shared_slots() > 1;
    let mut multi = if multi_pass {
        let rr: Vec<f64> = group
            .slots
            .iter()
            .filter(|s| s.shared)
            .map(|s| s.radius * s.radius)
            .collect();
        soa::multi_ghost_soa(soa, owners, index, group.shared_max, &rr, ranks)
    } else {
        Vec::new()
    }
    .into_iter();
    group
        .slots
        .iter()
        .map(|slot| {
            if multi_pass && slot.shared {
                multi.next().expect("one histogram pair per shared slot")
            } else {
                soa::ghost_counts_soa(soa, owners, index, slot.radius, ranks)
            }
        })
        .collect()
}

/// The in-order accumulator: folds one sweep point's retained samples,
/// in trace order, into its [`DynamicWorkload`].
pub(crate) struct Accumulator {
    ghost_slot: Option<usize>,
    zeros: Vec<u32>,
    prev_owners: Option<Vec<Rank>>,
    pub(crate) workload: DynamicWorkload,
}

impl Accumulator {
    pub(crate) fn new(member: &MemberPlan, ranks: usize) -> Accumulator {
        Accumulator {
            ghost_slot: member.ghost_slot,
            zeros: vec![0u32; ranks],
            prev_owners: None,
            workload: DynamicWorkload {
                ranks,
                iterations: Vec::new(),
                real: CompMatrix::new(ranks),
                ghost_recv: CompMatrix::new(ranks),
                ghost_sent: CompMatrix::new(ranks),
                comm: CommMatrix::default(),
                bin_counts: Vec::new(),
            },
        }
    }

    /// Fold one sample; its migrations are the ownership diff against the
    /// previously folded sample (none for the first).
    fn push(&mut self, iteration: u64, a: &SampleAssignment, ghosts: &GhostSlots) {
        let comm = match &self.prev_owners {
            Some(prev) => migration_pairs(prev, &a.owners),
            None => Vec::new(),
        };
        self.push_with_comm(iteration, a, ghosts, comm);
        let prev = self.prev_owners.get_or_insert_with(Vec::new);
        prev.clear();
        prev.extend_from_slice(&a.owners);
    }

    /// Fold one sample with explicitly given migrations (reduced replay
    /// broadcasts its representatives' one-step diffs).
    pub(crate) fn push_with_comm(
        &mut self,
        iteration: u64,
        a: &SampleAssignment,
        ghosts: &GhostSlots,
        comm: Vec<(u32, u32, u32)>,
    ) {
        let w = &mut self.workload;
        let (recv, sent) = match self.ghost_slot {
            Some(k) => (&ghosts[k].0, &ghosts[k].1),
            None => (&self.zeros, &self.zeros),
        };
        w.real.push_sample(&a.real);
        w.ghost_recv.push_sample(recv);
        w.ghost_sent.push_sample(sent);
        w.bin_counts.push(a.bin_count);
        w.iterations.push(iteration);
        w.comm.entries.push(comm);
    }
}

fn stats_for(plan: &SweepPlan, samples: usize) -> SweepStats {
    SweepStats {
        points: plan.members.len(),
        groups: plan.groups.len(),
        samples,
        assign_passes: plan.groups.len() * samples,
        naive_assign_passes: plan.members.len() * samples,
        ghost_radii: plan.groups.iter().map(|g| g.slots.len()).sum(),
        shared_query_groups: plan.groups.iter().filter(|g| g.shared_slots() > 1).count(),
        cached_groups: 0,
    }
}

/// Replay `trace` once and produce one [`DynamicWorkload`] per sweep
/// point, in point order, each bit-identical to what
/// [`generator::generate_with_mesh`] (over `trace.subsample(stride)`)
/// would return for that point.
///
/// Errors mirror the per-configuration path: a point whose configuration
/// would fail there (zero ranks, mesh-requiring mapping without a mesh,
/// invalid bin threshold) fails the sweep.
pub fn sweep(
    trace: &ParticleTrace,
    points: &[SweepPoint],
    mesh: Option<&ElementMesh>,
) -> Result<Vec<DynamicWorkload>> {
    sweep_in_memory(trace, points, mesh, None).map(|(w, _)| w)
}

/// [`sweep`], additionally returning the sharing accounting.
pub fn sweep_with_stats(
    trace: &ParticleTrace,
    points: &[SweepPoint],
    mesh: Option<&ElementMesh>,
) -> Result<(Vec<DynamicWorkload>, SweepStats)> {
    sweep_in_memory(trace, points, mesh, None)
}

/// [`sweep_with_stats`] backed by an [`AssignmentCache`]: assignment
/// groups whose artifacts are resident skip the mapper / counting / index
/// replay entirely and run only the ghost phase; missing groups run the
/// full kernel and publish their artifacts for the next caller. Outputs
/// are bit-identical to [`sweep`] — artifacts are plain data produced by
/// the same kernels, so serving them from memory cannot perturb a bit —
/// and `stats.assign_passes` reports the passes actually executed, with
/// `stats.cached_groups` counting the groups served from cache.
pub fn sweep_with_cache(
    trace: &ParticleTrace,
    points: &[SweepPoint],
    mesh: Option<&ElementMesh>,
    cache: &AssignmentCache,
) -> Result<(Vec<DynamicWorkload>, SweepStats)> {
    sweep_in_memory(trace, points, mesh, Some(cache))
}

/// The in-memory driver: one flattened (group, sample) fan-out of the
/// kernel — parallelism across configurations composed with the kernels'
/// intra-sample spans — then every member assembled in parallel. Without
/// a cache each sample's [`RegionIndex`] is dropped after its ghost phase.
fn sweep_in_memory(
    trace: &ParticleTrace,
    points: &[SweepPoint],
    mesh: Option<&ElementMesh>,
    cache: Option<&AssignmentCache>,
) -> Result<(Vec<DynamicWorkload>, SweepStats)> {
    let plan = build_plan(points, mesh)?;
    let samples: Vec<&[Vec3]> = trace.samples().map(|s| &s.positions[..]).collect();
    let t_count = samples.len();
    let mesh_fp = mesh.map(mesh_fingerprint);
    let keys: Vec<AssignmentKey> = plan
        .groups
        .iter()
        .map(|g| AssignmentKey::for_group(g.key, mesh_fp))
        .collect();
    let hits: Vec<Option<Arc<Vec<SampleAssignment>>>> =
        keys.iter().map(|k| cache.and_then(|c| c.get(k))).collect();

    // Cache-hit groups owe only their ghost phase (radii are not part of
    // the artifact); every other group runs the full kernel.
    let outcomes: Vec<(Option<SampleAssignment>, GhostSlots)> = pic_types::pool::install(|| {
        (0..plan.groups.len() * t_count)
            .into_par_iter()
            .map(|i| {
                let (group, positions) = (&plan.groups[i / t_count], samples[i % t_count]);
                match &hits[i / t_count] {
                    Some(_) if group.slots.is_empty() => (None, Vec::new()),
                    Some(arts) => {
                        let a = &arts[i % t_count];
                        let index = a.index.as_ref().expect("cached artifacts keep their index");
                        let soa = SoAPositions::from_positions(positions);
                        (None, ghost_slots(&soa, &a.owners, index, group))
                    }
                    None => {
                        let (a, ghosts) = process_group_sample(positions, group, cache.is_some());
                        (Some(a), ghosts)
                    }
                }
            })
            .collect()
    });

    let mut outcomes = outcomes.into_iter();
    let mut stats = stats_for(&plan, t_count);
    let per_group: Vec<(Arc<Vec<SampleAssignment>>, Vec<GhostSlots>)> = hits
        .into_iter()
        .zip(keys)
        .map(|(hit, key)| {
            let (fresh, ghosts): (Vec<_>, Vec<_>) = outcomes.by_ref().take(t_count).unzip();
            let arts = match hit {
                Some(arts) => {
                    stats.cached_groups += 1;
                    stats.assign_passes -= t_count;
                    arts
                }
                None => {
                    let arts = Arc::new(fresh.into_iter().flatten().collect::<Vec<_>>());
                    if let Some(cache) = cache {
                        cache.insert(key, Arc::clone(&arts));
                    }
                    arts
                }
            };
            (arts, ghosts)
        })
        .collect();

    let iterations = trace.iterations();
    let workloads: Vec<DynamicWorkload> = pic_types::pool::install(|| {
        plan.members
            .par_iter()
            .map(|m| {
                let (arts, ghosts) = &per_group[m.group];
                let mut acc = Accumulator::new(m, plan.groups[m.group].ranks);
                for t in (0..t_count).step_by(m.stride) {
                    acc.push(iterations[t], &arts[t], &ghosts[t]);
                }
                acc.workload
            })
            .collect()
    });
    Ok((workloads, stats))
}

/// Structural fingerprint of a mesh specification: two meshes with the
/// same domain bits, dimensions, and order assign identically under every
/// mesh-based mapping, so their fingerprints may (and do) collide — that
/// collision is exactly the sharing the [`AssignmentCache`] wants.
pub fn mesh_fingerprint(mesh: &ElementMesh) -> u64 {
    let mut bytes = Vec::with_capacity(6 * 8 + 4 * 8);
    let d = mesh.domain();
    for v in [d.min, d.max] {
        for c in [v.x, v.y, v.z] {
            bytes.extend_from_slice(&c.to_bits().to_le_bytes());
        }
    }
    for n in mesh.dims().to_array() {
        bytes.extend_from_slice(&(n as u64).to_le_bytes());
    }
    bytes.extend_from_slice(&(mesh.order() as u64).to_le_bytes());
    pic_types::hash::fnv1a_64(&bytes)
}

/// Cache key for one group's assignment artifacts **within one trace**:
/// the assignment-identity group key plus a mesh fingerprint. Bin-based
/// partitions ignore the mesh entirely, so their keys carry no mesh
/// component and survive mesh changes. The key deliberately does *not*
/// identify the trace — an [`AssignmentCache`] is scoped to the trace it
/// was populated from (the serve registry keeps one per resident trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AssignmentKey {
    mapping: MappingAlgorithm,
    ranks: usize,
    filter_bits: Option<u64>,
    mesh_fp: Option<u64>,
}

impl AssignmentKey {
    fn for_group(
        key: (MappingAlgorithm, usize, Option<u64>),
        mesh_fp: Option<u64>,
    ) -> AssignmentKey {
        let (mapping, ranks, filter_bits) = key;
        AssignmentKey {
            mapping,
            ranks,
            filter_bits,
            // Bin-based assignment never consults the mesh.
            mesh_fp: (mapping != MappingAlgorithm::BinBased)
                .then_some(mesh_fp)
                .flatten(),
        }
    }

    /// The key a sweep point's assignment artifacts live under, given the
    /// mesh (if any) the sweep runs against.
    pub fn for_config(cfg: &WorkloadConfig, mesh: Option<&ElementMesh>) -> AssignmentKey {
        AssignmentKey::for_group(group_key(cfg), mesh.map(mesh_fingerprint))
    }
}

/// Counters exposed by [`AssignmentCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssignmentCacheStats {
    /// Lookups served from resident artifacts.
    pub hits: u64,
    /// Lookups that required an assignment replay.
    pub misses: u64,
    /// Entries dropped to stay within the byte budget.
    pub evictions: u64,
    /// Approximate bytes currently resident.
    pub resident_bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
}

struct CacheEntry {
    artifacts: Arc<Vec<SampleAssignment>>,
    bytes: usize,
    last_used: u64,
}

struct CacheInner {
    entries: HashMap<AssignmentKey, CacheEntry>,
    resident_bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Lock-order level of the assignment-cache mutex. The serve layer
/// (`pic-predict::serve::lock_order`) tops out at 50; the registry's
/// `entry_bytes` calls [`AssignmentCache::stats`] *while holding* the
/// registry lock, so this class must sit strictly above every serve
/// class in the declared hierarchy (see DESIGN.md §14).
const ASSIGNMENT_CACHE_LOCK_LEVEL: u32 = 100;

/// Byte-budgeted LRU cache of per-sample assignment artifacts, shared
/// across concurrent sweeps of **one** trace (`Send + Sync`; interior
/// mutability behind a mutex — lookups move `Arc`s, never artifact data).
///
/// [`sweep_with_cache`] consults it per assignment group: a hit skips the
/// group's entire assignment + index replay and goes straight to the
/// ghost phase, which is why the resident prediction service answers
/// repeat sweeps at a different filter radius or stride without touching
/// the mapper at all. Eviction is strict LRU by lookup/insert tick; an
/// entry larger than the whole budget is admitted alone (the cache never
/// refuses to serve the request it was asked to back).
pub struct AssignmentCache {
    budget_bytes: usize,
    inner: TrackedMutex<CacheInner>,
}

impl std::fmt::Debug for AssignmentCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("AssignmentCache")
            .field("budget_bytes", &self.budget_bytes)
            .field("stats", &s)
            .finish()
    }
}

impl AssignmentCache {
    /// A cache that holds at most ~`budget_bytes` of artifacts.
    pub fn new(budget_bytes: usize) -> AssignmentCache {
        AssignmentCache {
            budget_bytes,
            inner: TrackedMutex::new(
                "workload.assignment_cache",
                ASSIGNMENT_CACHE_LOCK_LEVEL,
                CacheInner {
                    entries: HashMap::new(),
                    resident_bytes: 0,
                    tick: 0,
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                },
            ),
        }
    }

    /// Look up the artifacts for `key`, bumping its recency on a hit.
    pub fn get(&self, key: &AssignmentKey) -> Option<Arc<Vec<SampleAssignment>>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(e) => {
                e.last_used = tick;
                let out = Arc::clone(&e.artifacts);
                inner.hits += 1;
                Some(out)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert (or replace) the artifacts for `key`, then evict
    /// least-recently-used entries until the budget holds. The entry just
    /// inserted is never evicted by its own insertion.
    pub fn insert(&self, key: AssignmentKey, artifacts: Arc<Vec<SampleAssignment>>) {
        let bytes = artifacts.iter().map(|a| a.approx_bytes()).sum::<usize>()
            + artifacts.capacity() * std::mem::size_of::<SampleAssignment>();
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.entries.insert(
            key,
            CacheEntry {
                artifacts,
                bytes,
                last_used: tick,
            },
        ) {
            inner.resident_bytes -= old.bytes;
        }
        inner.resident_bytes += bytes;
        while inner.resident_bytes > self.budget_bytes && inner.entries.len() > 1 {
            let victim = inner
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(v) => {
                    let e = inner.entries.remove(&v).expect("victim vanished");
                    inner.resident_bytes -= e.bytes;
                    inner.evictions += 1;
                }
                None => break,
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> AssignmentCacheStats {
        let inner = self.inner.lock();
        AssignmentCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            resident_bytes: inner.resident_bytes,
            entries: inner.entries.len(),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }
}

/// Decoded frames in flight between pipeline stages. Bounds resident
/// memory to `O(PIPELINE_DEPTH + workers)` samples regardless of trace
/// length, preserving the streaming path's reason to exist.
const PIPELINE_DEPTH: usize = 4;

/// Observability counters from one [`sweep_streaming`] run: how much
/// was ingested and where the pipeline's time went. Exposed because a
/// full-scale ingest runs for hours over hundreds of gigabytes (§II-D) —
/// "is it the disk, the decode, or the ghost kernel?" must be answerable
/// from the stats block alone.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IngestStats {
    /// Frames successfully decoded and folded into the workload.
    pub frames_decoded: usize,
    /// Bytes consumed from the trace stream, header included.
    pub bytes_read: u64,
    /// Wall-clock seconds the decoder thread spent inside `read_sample`.
    pub decode_seconds: f64,
    /// Summed busy seconds across workers in the mapping + ghost kernel.
    pub ghost_seconds: f64,
    /// Wall-clock seconds the consumer spent merging outcomes in order
    /// (including the sequential migration diff).
    pub merge_seconds: f64,
}

/// Terminal state handed back by the decoder thread: its status plus the
/// ingestion counters only it can observe.
struct DecoderReport {
    status: Result<()>,
    frames: usize,
    bytes: u64,
    seconds: f64,
}

/// Streaming sweep: drive every sweep point sample-by-sample off one
/// [`pic_trace::SampleSource`] pass (raw or compact on-disk format),
/// bit-identical to [`sweep`], with the [`IngestStats`] block.
///
/// A decoder thread pulls frames off the reader via
/// [`pic_trace::SampleSource::read_sample`] and feeds a bounded channel; a
/// pool of workers runs the group kernel on each frame, once per group;
/// the caller's thread merges worker results back into trace order and
/// folds them into one accumulator per member (frame `t`'s migration diff
/// needs frame `t-1`'s ownership, so the merge is the one inherently
/// serial stage). Resident memory is `O(PIPELINE_DEPTH + workers)` frames
/// plus the accumulated output rows.
///
/// On a malformed or failing stream the decoder thread stops at the first
/// error, the workers drain whatever was already queued and exit, the
/// merge completes over the cleanly decoded prefix, and the decoder's
/// *positioned* error is returned. Every pipeline thread is joined before
/// this function returns: a corrupt trace fails the run, it cannot hang
/// it.
pub fn sweep_streaming<S: pic_trace::SampleSource + Send>(
    mut reader: S,
    points: &[SweepPoint],
    mesh: Option<&ElementMesh>,
) -> Result<(Vec<DynamicWorkload>, IngestStats)> {
    let plan = build_plan(points, mesh)?;
    let plan = &plan;
    // Worker count follows the shared-pool policy: an ambient install (a
    // bench's `--threads` override) wins, otherwise the shared pool's
    // `RAYON_NUM_THREADS`-aware size applies.
    let workers = pic_types::pool::install(rayon::current_num_threads).max(1);
    let ghost_nanos = AtomicU64::new(0);
    let ghost_nanos = &ghost_nanos;

    std::thread::scope(|scope| -> Result<(Vec<DynamicWorkload>, IngestStats)> {
        let (frame_tx, frame_rx) =
            crossbeam::channel::bounded::<(usize, pic_trace::TraceSample)>(PIPELINE_DEPTH);
        type Outcomes = Vec<(SampleAssignment, GhostSlots)>;
        let (out_tx, out_rx) =
            crossbeam::channel::bounded::<(usize, u64, Outcomes)>(PIPELINE_DEPTH + workers);

        let decoder = scope.spawn(move || -> DecoderReport {
            let mut seconds = 0.0;
            let mut frames = 0usize;
            let status = loop {
                let t0 = std::time::Instant::now();
                let next = reader.read_sample();
                seconds += t0.elapsed().as_secs_f64();
                match next {
                    Ok(Some(frame)) => {
                        // A send error means every worker hung up; stop.
                        if frame_tx.send((frames, frame)).is_err() {
                            break Ok(());
                        }
                        frames += 1;
                    }
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            DecoderReport {
                status,
                frames,
                bytes: reader.bytes_read(),
                seconds,
            }
        });

        for _ in 0..workers {
            let rx = frame_rx.clone();
            let tx = out_tx.clone();
            scope.spawn(move || {
                // Sample-level fan-out is the parallelism here; pin each
                // worker's intra-sample ghost kernel to one thread so the
                // stages don't oversubscribe each other.
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(1)
                    .build()
                    .unwrap();
                while let Ok((i, frame)) = rx.recv() {
                    let t0 = std::time::Instant::now();
                    let outcomes: Outcomes = pool.install(|| {
                        plan.groups
                            .iter()
                            .map(|g| process_group_sample(&frame.positions, g, false))
                            .collect()
                    });
                    ghost_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    if tx.send((i, frame.iteration, outcomes)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(frame_rx);
        drop(out_tx);

        let mut accums: Vec<Accumulator> = plan
            .members
            .iter()
            .map(|m| Accumulator::new(m, plan.groups[m.group].ranks))
            .collect();
        let mut merge_seconds = 0.0;
        // Reorder buffer: results stall here until their predecessors
        // land. Its size is bounded by the channel capacities above.
        let mut pending: std::collections::BTreeMap<usize, (u64, Outcomes)> =
            std::collections::BTreeMap::new();
        let mut next = 0usize;
        while let Ok((i, iteration, outcomes)) = out_rx.recv() {
            let t0 = std::time::Instant::now();
            pending.insert(i, (iteration, outcomes));
            while let Some((iteration, outcomes)) = pending.remove(&next) {
                for (m, acc) in plan.members.iter().zip(&mut accums) {
                    if next.is_multiple_of(m.stride) {
                        let (a, ghosts) = &outcomes[m.group];
                        acc.push(iteration, a, ghosts);
                    }
                }
                next += 1;
            }
            merge_seconds += t0.elapsed().as_secs_f64();
        }
        // out_rx closed ⇒ every worker has already exited; the decoder is
        // done too (its channel has no readers left). Joining here cannot
        // block on a stalled stream, so surfacing the decode error
        // (truncated frame, I/O failure) is hang-free by construction.
        let report = decoder.join().expect("trace decoder thread panicked");
        report.status?;

        let stats = IngestStats {
            frames_decoded: report.frames,
            bytes_read: report.bytes,
            decode_seconds: report.seconds,
            ghost_seconds: ghost_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            merge_seconds,
        };
        Ok((accums.into_iter().map(|a| a.workload).collect(), stats))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_grid::MeshDims;
    use pic_trace::TraceMeta;
    use pic_types::rng::SplitMix64;
    use pic_types::Aabb;

    fn make_trace(np: usize, t: usize, seed: u64) -> ParticleTrace {
        let mut rng = SplitMix64::new(seed);
        let dirs: Vec<Vec3> = (0..np)
            .map(|_| {
                Vec3::new(
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                    rng.next_range(-1.0, 1.0),
                )
            })
            .collect();
        let meta = TraceMeta::new(np, 100, Aabb::unit(), "sweep-test");
        let mut tr = ParticleTrace::new(meta);
        for k in 0..t {
            let scale = 0.05 + 0.05 * k as f64;
            let drift = Vec3::new(0.03 * k as f64, 0.0, 0.0);
            let positions: Vec<Vec3> = dirs
                .iter()
                .map(|d| (Vec3::splat(0.5) + *d * scale + drift).clamp(Vec3::ZERO, Vec3::ONE))
                .collect();
            tr.push_positions(positions).unwrap();
        }
        tr
    }

    fn mesh() -> ElementMesh {
        ElementMesh::new(Aabb::unit(), MeshDims::cube(4), 5).unwrap()
    }

    /// The oracle: what the per-config sequential reference produces for
    /// one sweep point (subsampling the trace for stride > 1).
    fn reference_for(
        trace: &ParticleTrace,
        point: &SweepPoint,
        mesh: Option<&ElementMesh>,
    ) -> DynamicWorkload {
        let sub;
        let tr = if point.stride.max(1) == 1 {
            trace
        } else {
            sub = trace.subsample(point.stride);
            &sub
        };
        generator::generate_reference(tr, &point.config, mesh).unwrap()
    }

    fn assert_matches_reference(
        trace: &ParticleTrace,
        points: &[SweepPoint],
        mesh: Option<&ElementMesh>,
    ) {
        let swept = sweep(trace, points, mesh).unwrap();
        assert_eq!(swept.len(), points.len());
        for (i, (w, p)) in swept.iter().zip(points).enumerate() {
            let reference = reference_for(trace, p, mesh);
            assert_eq!(*w, reference, "point {i} diverged: {p:?}");
        }
    }

    #[test]
    fn filter_sweep_matches_per_config_reference() {
        let tr = make_trace(400, 5, 1);
        let m = mesh();
        let points: Vec<SweepPoint> = [0.01, 0.03, 0.08, 0.15]
            .iter()
            .map(|&f| SweepPoint::new(WorkloadConfig::new(16, MappingAlgorithm::ElementBased, f)))
            .collect();
        assert_matches_reference(&tr, &points, Some(&m));
    }

    #[test]
    fn mixed_grid_matches_reference_for_all_mappings() {
        let tr = make_trace(300, 4, 2);
        let m = mesh();
        let mut points = Vec::new();
        for mapping in [
            MappingAlgorithm::BinBased,
            MappingAlgorithm::ElementBased,
            MappingAlgorithm::HilbertOrdered,
            MappingAlgorithm::LoadBalanced,
        ] {
            for ranks in [4, 16] {
                for filter in [0.02, 0.06] {
                    points.push(SweepPoint::new(WorkloadConfig::new(ranks, mapping, filter)));
                }
            }
        }
        assert_matches_reference(&tr, &points, Some(&m));
    }

    #[test]
    fn strides_match_subsampled_reference() {
        let tr = make_trace(250, 9, 3);
        let cfg = WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.04);
        let points = vec![
            SweepPoint::new(cfg.clone()),
            SweepPoint::with_stride(cfg.clone(), 2),
            SweepPoint::with_stride(cfg.clone(), 4),
            SweepPoint::with_stride(cfg, 0), // treated as 1
        ];
        assert_matches_reference(&tr, &points, None);
        let swept = sweep(&tr, &points, None).unwrap();
        assert_eq!(swept[0], swept[3]);
    }

    #[test]
    fn ghost_toggle_and_weird_radii_match_reference() {
        let tr = make_trace(200, 3, 4);
        let m = mesh();
        let mut off = WorkloadConfig::new(8, MappingAlgorithm::ElementBased, 0.05);
        off.compute_ghosts = false;
        let points = vec![
            SweepPoint::new(WorkloadConfig::new(8, MappingAlgorithm::ElementBased, 0.05)),
            SweepPoint::new(off),
            SweepPoint::new(WorkloadConfig::new(8, MappingAlgorithm::ElementBased, 0.0)),
            SweepPoint::new(WorkloadConfig::new(8, MappingAlgorithm::ElementBased, -0.3)),
            SweepPoint::new(WorkloadConfig::new(
                8,
                MappingAlgorithm::ElementBased,
                f64::NAN,
            )),
        ];
        assert_matches_reference(&tr, &points, Some(&m));
    }

    #[test]
    fn grouping_collapses_shared_assignments() {
        let tr = make_trace(150, 3, 5);
        let m = mesh();
        let mut points = Vec::new();
        for filter in [0.01, 0.02, 0.04, 0.08] {
            points.push(SweepPoint::new(WorkloadConfig::new(
                16,
                MappingAlgorithm::ElementBased,
                filter,
            )));
            // bin-based groups carry the filter in their key: no collapse
            points.push(SweepPoint::new(WorkloadConfig::new(
                16,
                MappingAlgorithm::BinBased,
                filter,
            )));
        }
        let (_, stats) = sweep_with_stats(&tr, &points, Some(&m)).unwrap();
        assert_eq!(stats.points, 8);
        // 1 element-based group (4 radii shared) + 4 bin-based groups
        assert_eq!(stats.groups, 5);
        assert_eq!(stats.samples, 3);
        assert_eq!(stats.assign_passes, 15);
        assert_eq!(stats.naive_assign_passes, 24);
        assert_eq!(stats.ghost_radii, 4 + 4);
        assert_eq!(stats.shared_query_groups, 1);
    }

    #[test]
    fn streaming_sweep_matches_in_memory() {
        use pic_trace::codec::{encode_trace, Precision};
        let tr = make_trace(300, 5, 6);
        let m = mesh();
        let mut no_ghosts = WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.03);
        no_ghosts.compute_ghosts = false;
        let points = vec![
            SweepPoint::new(WorkloadConfig::new(
                16,
                MappingAlgorithm::ElementBased,
                0.02,
            )),
            SweepPoint::new(WorkloadConfig::new(
                16,
                MappingAlgorithm::ElementBased,
                0.07,
            )),
            SweepPoint::new(WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.03)),
            SweepPoint::with_stride(
                WorkloadConfig::new(16, MappingAlgorithm::HilbertOrdered, 0.05),
                2,
            ),
            SweepPoint::new(no_ghosts),
        ];
        let in_memory = sweep(&tr, &points, Some(&m)).unwrap();
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let reader = pic_trace::TraceReader::new(&bytes[..]).unwrap();
        let (streamed, _) = sweep_streaming(reader, &points, Some(&m)).unwrap();
        assert_eq!(streamed, in_memory);
    }

    #[test]
    fn streaming_sweep_surfaces_decode_errors() {
        use pic_trace::codec::{encode_trace, Precision};
        let tr = make_trace(100, 4, 7);
        let bytes = encode_trace(&tr, Precision::F64).unwrap();
        let truncated = &bytes[..bytes.len() - 7];
        let reader = pic_trace::TraceReader::new(truncated).unwrap();
        let points = vec![SweepPoint::new(WorkloadConfig::new(
            8,
            MappingAlgorithm::BinBased,
            0.05,
        ))];
        assert!(sweep_streaming(reader, &points, None).is_err());
    }

    #[test]
    fn config_errors_mirror_per_config_path() {
        let tr = make_trace(50, 2, 8);
        // mesh-requiring mapping without a mesh
        let points = vec![SweepPoint::new(WorkloadConfig::new(
            4,
            MappingAlgorithm::ElementBased,
            0.05,
        ))];
        assert!(sweep(&tr, &points, None).is_err());
        // zero ranks
        let bad = WorkloadConfig {
            ranks: 0,
            mapping: MappingAlgorithm::BinBased,
            projection_filter: 0.1,
            compute_ghosts: false,
        };
        assert!(sweep(&tr, &[SweepPoint::new(bad)], None).is_err());
    }

    #[test]
    fn empty_point_list_and_empty_trace() {
        let tr = make_trace(50, 2, 9);
        assert!(sweep(&tr, &[], None).unwrap().is_empty());
        let empty = ParticleTrace::new(TraceMeta::new(5, 100, Aabb::unit(), "empty"));
        let points = vec![SweepPoint::new(WorkloadConfig::new(
            4,
            MappingAlgorithm::BinBased,
            0.1,
        ))];
        let w = sweep(&empty, &points, None).unwrap();
        assert_eq!(w[0].samples(), 0);
    }

    #[test]
    fn cached_sweep_is_bit_identical_and_skips_assignment() {
        let tr = make_trace(300, 4, 11);
        let m = mesh();
        let mut points = Vec::new();
        for mapping in [
            MappingAlgorithm::BinBased,
            MappingAlgorithm::ElementBased,
            MappingAlgorithm::HilbertOrdered,
        ] {
            for filter in [0.02, 0.06] {
                points.push(SweepPoint::new(WorkloadConfig::new(8, mapping, filter)));
            }
        }
        points.push(SweepPoint::with_stride(
            WorkloadConfig::new(8, MappingAlgorithm::ElementBased, 0.06),
            2,
        ));
        let baseline = sweep(&tr, &points, Some(&m)).unwrap();

        let cache = AssignmentCache::new(64 << 20);
        let (cold, cold_stats) = sweep_with_cache(&tr, &points, Some(&m), &cache).unwrap();
        assert_eq!(cold, baseline);
        assert_eq!(cold_stats.cached_groups, 0);
        assert_eq!(cold_stats.assign_passes, cold_stats.groups * 4);

        let (warm, warm_stats) = sweep_with_cache(&tr, &points, Some(&m), &cache).unwrap();
        assert_eq!(warm, baseline);
        assert_eq!(warm_stats.cached_groups, warm_stats.groups);
        assert_eq!(warm_stats.assign_passes, 0);

        // A new filter radius on a resident mesh-based group is still a
        // full hit: radii are outside the artifact.
        let fresh = vec![SweepPoint::new(WorkloadConfig::new(
            8,
            MappingAlgorithm::ElementBased,
            0.11,
        ))];
        let (w, s) = sweep_with_cache(&tr, &fresh, Some(&m), &cache).unwrap();
        assert_eq!(w[0], reference_for(&tr, &fresh[0], Some(&m)));
        assert_eq!(s.cached_groups, 1);
        assert_eq!(s.assign_passes, 0);

        let cs = cache.stats();
        assert!(cs.hits > warm_stats.groups as u64);
        assert!(cs.resident_bytes > 0 && cs.entries > 0);
    }

    #[test]
    fn cache_eviction_recomputes_identically() {
        let tr = make_trace(200, 3, 12);
        let m = mesh();
        let mk = |ranks| {
            vec![SweepPoint::new(WorkloadConfig::new(
                ranks,
                MappingAlgorithm::ElementBased,
                0.05,
            ))]
        };
        // A budget of one entry: every new rank count evicts the previous.
        let one = {
            let probe = AssignmentCache::new(usize::MAX);
            sweep_with_cache(&tr, &mk(4), Some(&m), &probe).unwrap();
            probe.stats().resident_bytes
        };
        let cache = AssignmentCache::new(one + one / 2);
        let (a1, _) = sweep_with_cache(&tr, &mk(4), Some(&m), &cache).unwrap();
        for ranks in [8, 16, 32] {
            sweep_with_cache(&tr, &mk(ranks), Some(&m), &cache).unwrap();
        }
        assert!(cache.stats().evictions > 0, "budget never forced eviction");
        // Re-ingesting the evicted key replays to bit-identical artifacts
        // and output (content-address stability of the sweep kernels).
        let (a2, s2) = sweep_with_cache(&tr, &mk(4), Some(&m), &cache).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(s2.cached_groups, 0);
        let (a3, s3) = sweep_with_cache(&tr, &mk(4), Some(&m), &cache).unwrap();
        assert_eq!(a1, a3);
        assert_eq!(s3.cached_groups, 1);
    }

    #[test]
    fn assignment_keys_separate_meshes_but_not_for_bin_based() {
        let m1 = mesh();
        let m2 = ElementMesh::new(Aabb::unit(), MeshDims::cube(8), 5).unwrap();
        let eb = WorkloadConfig::new(8, MappingAlgorithm::ElementBased, 0.05);
        let bb = WorkloadConfig::new(8, MappingAlgorithm::BinBased, 0.05);
        assert_ne!(
            AssignmentKey::for_config(&eb, Some(&m1)),
            AssignmentKey::for_config(&eb, Some(&m2))
        );
        assert_eq!(
            AssignmentKey::for_config(&bb, Some(&m1)),
            AssignmentKey::for_config(&bb, Some(&m2))
        );
        assert_eq!(
            AssignmentKey::for_config(&bb, Some(&m1)),
            AssignmentKey::for_config(&bb, None)
        );
        assert_eq!(mesh_fingerprint(&m1), mesh_fingerprint(&mesh()));
    }

    #[test]
    fn concurrent_cached_sweeps_are_bit_identical() {
        let tr = make_trace(250, 3, 13);
        let m = mesh();
        let points: Vec<SweepPoint> = [0.02, 0.05, 0.09]
            .iter()
            .map(|&f| SweepPoint::new(WorkloadConfig::new(12, MappingAlgorithm::ElementBased, f)))
            .collect();
        let baseline = sweep(&tr, &points, Some(&m)).unwrap();
        let cache = AssignmentCache::new(64 << 20);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| sweep_with_cache(&tr, &points, Some(&m), &cache).unwrap().0)
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), baseline);
            }
        });
    }

    #[test]
    fn large_sample_exercises_chunked_multi_radius_kernel() {
        // Two chunks' worth of particles so the parallel partial merge of
        // the multi-radius kernel actually runs.
        let tr = make_trace(crate::soa::GHOST_CHUNK * 2 + 57, 2, 10);
        let m = mesh();
        let points: Vec<SweepPoint> = [0.02, 0.05, 0.09]
            .iter()
            .map(|&f| SweepPoint::new(WorkloadConfig::new(24, MappingAlgorithm::ElementBased, f)))
            .collect();
        assert_matches_reference(&tr, &points, Some(&m));
    }
}
