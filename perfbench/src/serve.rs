//! `serve`: an in-process `picpredict serve` under mixed traffic.
//!
//! The traffic comes in periods of [`PERIOD`] requests, in a fixed
//! proportion per period:
//!
//! * repeated `/sweep` bodies against a resident "hot" trace — warmed in
//!   set-up, so every one reuses cached assignment artifacts;
//! * fresh `/sweep` and `/predict` bodies against the period's newly
//!   ingested trace — nothing is cached for it yet, so they miss;
//! * one `/traces` ingest per period of a new trace, under a registry
//!   budget that holds the hot trace, one recent trace and the new one,
//!   so every ingest from the third period on evicts the oldest.
//!
//! At most [`CONNECTIONS`] connections are in flight. The untraced run
//! serves periods back to back (closed loop) and times each period: the
//! end-to-end operation. The traced run releases requests on a fixed
//! open-loop schedule, whatever the server's state, and times each from
//! when it was due: the per-route latencies.
//!
//! Every response is checked against the offline computation of the same
//! body: sweep bytes against the `gridspec` serialization, predictions
//! against the offline pipeline, ingest addresses against the digest of
//! the bytes sent.

use crate::run::{digest, median, percentile, Run};
use pic_des::{MachineSpec, SyncMode};
use pic_mapping::MappingAlgorithm;
use pic_predict::{gridspec, pipeline, KernelModels, ServeConfig, Server, SweepGridSpec};
use pic_trace::codec::{self, Precision};
use pic_trace::ParticleTrace;
use pic_types::rng::SplitMix64;
use pic_workload::{generator, AssignmentCache, WorkloadConfig};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Client connections in flight at most: the machine's core count.
pub const CONNECTIONS: usize = 2;

/// Slots per traffic period; each period holds one ingest.
pub const PERIOD: usize = 20;

/// Distinct period orders in a schedule.
const PERIODS: usize = 128;

/// Latency limit: a failed request counts as taking at least this long.
pub const LIMIT_MS: f64 = 250.0;

/// Rank counts of a period's fresh sweep bodies; its fresh predictions
/// use these plus eight.
const MISS_RANKS: [usize; 2] = [40, 72];

/// One request of the schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// Repeated sweep body `i` against the hot trace.
    Hit(usize),
    /// Fresh sweep at this rank count against the period's new trace.
    SweepMiss(usize),
    /// Fresh prediction at this rank count against the period's new trace.
    Predict(usize, SyncMode),
    /// Ingest of the period's new trace.
    Ingest,
}

impl Kind {
    fn path(&self) -> &'static str {
        match self {
            Kind::Hit(_) | Kind::SweepMiss(_) => "/sweep",
            Kind::Predict(..) => "/predict",
            Kind::Ingest => "/traces",
        }
    }
}

/// The generated input.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Trace every hit reads.
    pub hot: ParticleTrace,
    /// Traces ingested in turn, one per period; the period's fresh
    /// bodies read it.
    pub colds: Vec<ParticleTrace>,
    /// Offered rate of the traced run's open loop, requests per second.
    pub rate: f64,
    /// The request of each slot: [`PERIODS`] periods, each in its own
    /// order, repeated if the run is longer.
    pub schedule: Vec<Kind>,
    /// Seed for the model-fitting records.
    pub model_seed: u64,
}

/// A bin-based sweep grid as a request body carries it.
#[derive(Debug, Clone, PartialEq)]
struct Grid {
    ranks: Vec<usize>,
    filters: Vec<f64>,
}

impl Grid {
    fn body(&self, trace: &str) -> String {
        let list = |v: Vec<String>| v.join(",");
        format!(
            "{{\"trace\":\"{trace}\",\"ranks\":[{}],\"mappings\":[\"bin-based\"],\"filters\":[{}]}}",
            list(self.ranks.iter().map(usize::to_string).collect()),
            list(self.filters.iter().map(|f| format!("{f:?}")).collect()),
        )
    }

    fn points(&self) -> Vec<pic_workload::SweepPoint> {
        SweepGridSpec {
            mappings: vec![MappingAlgorithm::BinBased],
            ranks: self.ranks.clone(),
            filters: self.filters.clone(),
            strides: vec![1],
            compute_ghosts: true,
        }
        .points()
    }
}

/// The repeated sweep bodies against the hot trace: one point each, of
/// similar cost, so the hits form one latency mode. (Bin-based groups are
/// keyed by filter, so each body has its own cached artifacts.)
fn hot_grids() -> [Grid; 3] {
    [0.02, 0.03, 0.04].map(|f| Grid {
        ranks: vec![64],
        filters: vec![f],
    })
}

/// Filter of every fresh body.
const MISS_FILTER: f64 = 0.03;

/// Inputs for `seed`. `small` shrinks the case for tests.
pub fn inputs(seed: u64, small: bool) -> Inputs {
    // Requests carry tens of milliseconds of replay each, so scheduling
    // jitter on a shared machine stays small beside the work measured.
    let (hot_np, cold_np, samples) = if small {
        (500, 1_000, 3)
    } else {
        (10_000, 10_000, 8)
    };
    let mut rng = SplitMix64::new(seed);
    // Per period: one ingest, 15 hits, 2 sweep misses, 2 predictions.
    // Hits are three quarters of the traffic, so the median latency sits
    // inside the hit mode rather than on its edge with the slower misses.
    let mut period = vec![Kind::Ingest];
    period.extend((0..15).map(|i| Kind::Hit(i % hot_grids().len())));
    period.extend(MISS_RANKS.iter().map(|&r| Kind::SweepMiss(r)));
    period.push(Kind::Predict(MISS_RANKS[0] + 8, SyncMode::BulkSynchronous));
    period.push(Kind::Predict(MISS_RANKS[1] + 8, SyncMode::NeighborSync));
    debug_assert_eq!(period.len(), PERIOD);
    // Each period in its own order, with the ingest first so a period's
    // misses follow its ingest. Many orders per run keep one unlucky
    // order from setting a run's tail.
    let mut schedule = Vec::with_capacity(PERIODS * PERIOD);
    for _ in 0..PERIODS {
        for i in 1..PERIOD {
            let j = i + rng.next_below((PERIOD - i) as u64) as usize;
            period.swap(i, j);
        }
        schedule.extend_from_slice(&period);
    }
    Inputs {
        hot: pic_bench::synthetic_expanding_trace(hot_np, samples, rng.next_u64()),
        colds: (0..4)
            .map(|_| pic_bench::synthetic_expanding_trace(cold_np, samples, rng.next_u64()))
            .collect(),
        rate: if small { 40.0 } else { 12.0 },
        schedule,
        model_seed: seed,
    }
}

// ------------------------------------------------------------------ http

/// One HTTP/1.1 exchange on a fresh connection: `(status, body)`.
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    // Nagle off: otherwise the body can wait for the peer to acknowledge
    // the head before it leaves.
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    s.write_all(body).map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without a header terminator")?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or("unparseable status line")?;
    Ok((status, raw[split + 4..].to_vec()))
}

fn post_ok(addr: SocketAddr, path: &str, body: &[u8]) -> Result<Vec<u8>, String> {
    match http(addr, "POST", path, body)? {
        (200, b) => Ok(b),
        (s, b) => Err(format!("{path} -> {s}: {}", String::from_utf8_lossy(&b))),
    }
}

/// A parsed JSON document (the vendored serde has no `Value` impl).
struct Json(serde::Value);

impl serde::Deserialize for Json {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

fn parse(body: &[u8]) -> Result<serde::Value, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| format!("bad JSON response: {e}"))
}

fn get<'a>(v: &'a serde::Value, path: &[&str]) -> Result<&'a serde::Value, String> {
    path.iter().try_fold(v, |v, key| {
        v.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .ok_or_else(|| format!("response has no field {}", path.join(".")))
    })
}

fn get_f64(v: &serde::Value, path: &[&str]) -> Result<f64, String> {
    get(v, path)?
        .as_f64()
        .ok_or_else(|| format!("field {} is not a number", path.join(".")))
}

fn address(body: &[u8]) -> Result<String, String> {
    get(&parse(body)?, &["address"])?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| "address is not a string".to_string())
}

/// The `/stats` counters the run reports as deltas.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Counters {
    batched: f64,
    cache_hits: f64,
    cache_misses: f64,
    evictions: f64,
}

fn counters(addr: SocketAddr) -> Result<Counters, String> {
    let (status, body) = http(addr, "GET", "/stats", b"")?;
    if status != 200 {
        return Err(format!("/stats -> {status}"));
    }
    let v = parse(&body)?;
    Ok(Counters {
        batched: get_f64(&v, &["batched"])?,
        cache_hits: get_f64(&v, &["sweep_cache", "hits"])?,
        cache_misses: get_f64(&v, &["sweep_cache", "misses"])?,
        evictions: get_f64(&v, &["registry", "trace_evictions"])?,
    })
}

// ----------------------------------------------------------------- bodies

fn predict_body(trace: &str, models: &str, ranks: usize, sync: SyncMode) -> String {
    let sync = match sync {
        SyncMode::BulkSynchronous => "barrier",
        SyncMode::NeighborSync => "neighbor",
    };
    format!(
        "{{\"trace\":\"{trace}\",\"models\":\"{models}\",\"ranks\":{ranks},\
         \"mapping\":\"bin-based\",\"filters\":[{MISS_FILTER:?}],\"sync\":\"{sync}\"}}"
    )
}

// ---------------------------------------------------------------- offline

/// The offline answer to a sweep body: the `gridspec` serialization of
/// the same grid, as `picpredict sweep --out` writes it.
fn offline_sweep(trace: &ParticleTrace, grid: &Grid) -> Result<String, String> {
    let points = grid.points();
    let workloads = pic_workload::sweep::sweep(trace, &points, None).map_err(|e| e.to_string())?;
    gridspec::grid_to_json(&gridspec::grid_entries(&points, workloads)).map_err(|e| e.to_string())
}

/// The offline answer to a prediction: `(predicted_seconds,
/// events_processed)`, as the service's handler computes them.
fn offline_predict(
    trace: &ParticleTrace,
    models: &KernelModels,
    ranks: usize,
    sync: SyncMode,
) -> Result<(f64, u64), String> {
    let e = |e: pic_types::PicError| e.to_string();
    let filter = MISS_FILTER;
    let cfg = WorkloadConfig::new(ranks, MappingAlgorithm::BinBased, filter);
    let w = generator::generate(trace, &cfg).map_err(e)?;
    // The service's default element order; no mesh, so no elements.
    let predicted = pipeline::predict_kernel_seconds(&w, models, &vec![0; ranks], 3, filter);
    let schedule = pipeline::build_schedule(
        &w,
        &predicted,
        trace.meta().sample_interval,
        pipeline::bytes_per_particle(),
    );
    let t =
        pipeline::predict_application(&schedule, &MachineSpec::quartz_like(), sync).map_err(e)?;
    Ok((t.total_seconds, t.events_processed))
}

/// Resident bytes the registry charges for `trace` after sweeping
/// `grids` against it: decoded positions plus cached artifacts.
fn resident_weight(trace: &ParticleTrace, grids: &[Grid]) -> Result<(usize, usize), String> {
    let cache = AssignmentCache::new(usize::MAX);
    for g in grids {
        pic_workload::sweep_with_cache(trace, &g.points(), None, &cache)
            .map_err(|e| e.to_string())?;
    }
    // Positions as the registry charges them: 24 bytes per particle per
    // sample plus 64 per sample.
    let positions = trace.sample_count() * (trace.particle_count() * 24 + 64);
    Ok((positions, positions + cache.stats().resident_bytes))
}

// -------------------------------------------------------------------- run

struct Live {
    server: Server,
    hot: String,
    models: String,
}

/// What a client connection records for one request.
struct Done {
    slot: usize,
    due: Instant,
    dispatched: Instant,
    sent: Instant,
    done: Instant,
    /// Status and body; a sweep grid's body is kept as its digest.
    result: Result<(u16, Vec<u8>), String>,
    /// `/stats` just before and just after an ingest, in the traced run.
    around: Option<Result<(Counters, Counters), String>>,
}

/// Release requests at `rate` for whole periods filling `seconds` (at
/// least three, so that ingests evict), whatever the server's state, over
/// [`CONNECTIONS`] connections. Each request is due on the schedule.
fn open_loop(
    rate: f64,
    seconds: f64,
    exchange: &(impl Fn(usize, Instant, Instant) -> Done + Sync),
) -> Vec<Done> {
    let slots = ((seconds * rate).ceil() as usize).div_ceil(PERIOD).max(3) * PERIOD;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant)>();
    let rx = Mutex::new(rx);
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while let Ok((slot, due, dispatched)) =
                        rx.lock().expect("job queue lock").recv()
                    {
                        out.push(exchange(slot, due, dispatched));
                    }
                    out
                })
            })
            .collect();
        for slot in 0..slots {
            let due = start + interval * slot as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            tx.send((slot, due, Instant::now()))
                .expect("clients outlive the schedule");
        }
        drop(tx);
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    })
}

/// Serve whole periods back to back until `seconds` have passed (at
/// least three periods): all of a period's requests are due at its start
/// and run over [`CONNECTIONS`] connections, each taking the next
/// request as soon as it is free. Returns the requests and each
/// period's wall time, ms.
fn closed_loop(
    seconds: f64,
    exchange: &(impl Fn(usize, Instant, Instant) -> Done + Sync),
) -> (Vec<Done>, Vec<f64>) {
    let start = Instant::now();
    let (mut results, mut period_ms) = (Vec::new(), Vec::new());
    let mut period = 0;
    while period < 3 || start.elapsed().as_secs_f64() < seconds {
        let due = Instant::now();
        let next = AtomicUsize::new(0);
        let done: Vec<Done> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CONNECTIONS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= PERIOD {
                                break out;
                            }
                            out.push(exchange(period * PERIOD + i, due, due));
                        }
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        period_ms.push(due.elapsed().as_secs_f64() * 1e3);
        results.extend(done);
        period += 1;
    }
    (results, period_ms)
}

/// Run the workload.
pub fn run(inputs: &Inputs, run: &mut Run) -> Result<(), String> {
    let models = pic_bench::oracle_models(inputs.model_seed);
    let models_json = models.to_json();
    // The service admits models through `from_json`; predict offline with
    // the same admitted models.
    let models = KernelModels::from_json(&models_json).map_err(|e| e.to_string())?;
    let encode =
        |t: &ParticleTrace| codec::encode_trace(t, Precision::F64).map_err(|e| e.to_string());
    let hot_bytes = encode(&inputs.hot)?;
    let cold_bytes: Vec<Vec<u8>> = inputs.colds.iter().map(encode).collect::<Result<_, _>>()?;
    let cold_addrs: Vec<String> = cold_bytes.iter().map(|b| digest(b)).collect();

    // Budget: the hot trace with its warm artifacts, one recent trace
    // with a period's miss artifacts, the new trace's positions, and half
    // a recent trace of slack. Each ingest from the third period on then
    // evicts exactly the oldest recent trace, and never the hot one,
    // which every period reads.
    let hot_grids = hot_grids();
    let miss_grid = |r: usize| Grid {
        ranks: vec![r],
        filters: vec![MISS_FILTER],
    };
    let miss_grids: Vec<Grid> = inputs.schedule[..PERIOD]
        .iter()
        .filter_map(|k| match k {
            Kind::SweepMiss(r) | Kind::Predict(r, _) => Some(miss_grid(*r)),
            _ => None,
        })
        .collect();
    let (mut cold_positions, mut cold_weight) = (0, 0);
    for c in &inputs.colds {
        let (p, w) = resident_weight(c, &miss_grids)?;
        cold_positions = cold_positions.max(p);
        cold_weight = cold_weight.max(w);
    }
    let budget = resident_weight(&inputs.hot, &hot_grids)?.1 + cold_positions + cold_weight * 3 / 2;

    let live = run.setup(|tr| {
        let server = tr.span("pic-predict.serve.start", |_| {
            Server::start(ServeConfig {
                budget_bytes: budget,
                ..ServeConfig::default()
            })
        });
        let server = server.map_err(|e| e.to_string())?;
        let addr = server.addr();
        let hot = tr.span("pic-predict.serve.ingest", |_| {
            post_ok(addr, "/traces", &hot_bytes).and_then(|b| address(&b))
        })?;
        let models = tr.span("pic-predict.serve.ingest", |_| {
            post_ok(addr, "/models", models_json.as_bytes()).and_then(|b| address(&b))
        })?;
        tr.span("pic-predict.serve.warm", |_| {
            hot_grids
                .iter()
                .try_for_each(|g| post_ok(addr, "/sweep", g.body(&hot).as_bytes()).map(drop))
        })?;
        Ok(Live {
            server,
            hot,
            models,
        })
    })?;
    let addr = live.server.addr();

    let kind_of = |slot: usize| &inputs.schedule[slot % inputs.schedule.len()];
    // Period `p` ingests cold trace `p mod 4`; its fresh bodies read it.
    let body = |slot: usize| -> Cow<'_, [u8]> {
        let cold = slot / PERIOD % inputs.colds.len();
        let text = |s: String| Cow::Owned(s.into_bytes());
        match kind_of(slot) {
            Kind::Hit(i) => text(hot_grids[*i].body(&live.hot)),
            Kind::SweepMiss(r) => text(miss_grid(*r).body(&cold_addrs[cold])),
            Kind::Predict(r, sync) => {
                text(predict_body(&cold_addrs[cold], &live.models, *r, *sync))
            }
            Kind::Ingest => Cow::Borrowed(cold_bytes[cold].as_slice()),
        }
    };
    // A period's fresh bodies read the trace its ingest uploads, so they
    // wait for that ingest to finish, as a client that just uploaded a
    // trace would. The wait counts in their latency.
    let ingested = Mutex::new(HashSet::new());
    let ingest_done = Condvar::new();
    // One request on its own connection. The traced run also reads
    // `/stats` around each ingest.
    let exchange = |slot: usize, due: Instant, dispatched: Instant| -> Done {
        let period = slot / PERIOD;
        let kind = kind_of(slot);
        if matches!(kind, Kind::SweepMiss(_) | Kind::Predict(..)) {
            let done = ingested.lock().expect("ingest flags lock");
            let ready = ingest_done.wait_while(done, |d| !d.contains(&period));
            drop(ready.expect("ingest flags lock"));
        }
        let ingest = matches!(kind, Kind::Ingest);
        let pre = (ingest && run.trace).then(|| counters(addr));
        let sent = Instant::now();
        let result = http(addr, "POST", kind.path(), &body(slot));
        let done = Instant::now();
        // Keep a digest of each sweep grid, not the grid itself.
        let sweep = matches!(kind, Kind::Hit(_) | Kind::SweepMiss(_));
        let result = result.map(|(status, got)| match status {
            200 if sweep => (status, digest(&got).into_bytes()),
            _ => (status, got),
        });
        let around = pre.map(|pre| Ok((pre?, counters(addr)?)));
        if ingest {
            ingested.lock().expect("ingest flags lock").insert(period);
            ingest_done.notify_all();
        }
        Done {
            slot,
            due,
            dispatched,
            sent,
            done,
            result,
            around,
        }
    };

    let before = counters(addr)?;
    let (results, period_ms) = if run.trace {
        (open_loop(inputs.rate, run.seconds, &exchange), Vec::new())
    } else {
        closed_loop(run.seconds, &exchange)
    };
    let slots = results.len();
    run.op_ms.extend(&period_ms);
    let after = counters(addr)?;
    live.server.shutdown();

    // Latencies, by kind and overall, and the output checks.
    // Offline answers by request kind and trace; hits all read the hot
    // trace.
    let mut expected: HashMap<(String, usize), Result<Vec<u8>, String>> = HashMap::new();
    let mut by_kind: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut lags = Vec::new();
    let mut results = results;
    results.sort_by_key(|d| d.slot);
    for d in &results {
        run.attempted += 1;
        let slot = d.slot;
        let cold = slot / PERIOD % inputs.colds.len();
        let kind = &inputs.schedule[slot % inputs.schedule.len()];
        let path = kind.path();
        let key = (
            format!("{kind:?}"),
            if matches!(kind, Kind::Hit(_)) {
                0
            } else {
                cold
            },
        );
        let outcome: Result<(), String> = (|| {
            let (status, got) = d.result.as_ref().map_err(Clone::clone)?;
            if *status != 200 {
                return Err(format!(
                    "{path} -> {status}: {}",
                    String::from_utf8_lossy(got)
                ));
            }
            let want = expected.entry(key).or_insert_with(|| match kind {
                Kind::Hit(i) => offline_sweep(&inputs.hot, &hot_grids[*i])
                    .map(|s| digest(s.as_bytes()).into_bytes()),
                Kind::SweepMiss(r) => offline_sweep(&inputs.colds[cold], &miss_grid(*r))
                    .map(|s| digest(s.as_bytes()).into_bytes()),
                Kind::Predict(r, sync) => offline_predict(&inputs.colds[cold], &models, *r, *sync)
                    .map(|(t, ev)| format!("{:?}/{ev}", t).into_bytes()),
                Kind::Ingest => Ok(cold_addrs[cold].clone().into_bytes()),
            });
            let want = want.as_ref().map_err(Clone::clone)?;
            let have = match kind {
                Kind::Hit(_) | Kind::SweepMiss(_) => got.clone(),
                Kind::Predict(..) => {
                    let v = parse(got)?;
                    format!(
                        "{:?}/{}",
                        get_f64(&v, &["predicted_seconds"])?,
                        get_f64(&v, &["events_processed"])? as u64
                    )
                    .into_bytes()
                }
                Kind::Ingest => address(got)?.into_bytes(),
            };
            if &have != want {
                return Err(format!(
                    "{path} response differs from the offline answer: {} vs {}",
                    String::from_utf8_lossy(&have),
                    String::from_utf8_lossy(want)
                ));
            }
            Ok(())
        })();
        let mut ms = (d.done - d.due).as_secs_f64() * 1e3;
        if let Err(e) = outcome {
            run.fail(format!("slot {slot}: {e}"));
            ms = ms.max(LIMIT_MS);
        }
        let server_ms = (d.done - d.sent).as_secs_f64() * 1e3;
        let route = match kind {
            Kind::Hit(_) => "sweep_hit",
            Kind::SweepMiss(_) => "sweep_miss",
            Kind::Predict(..) => "predict",
            Kind::Ingest => "ingest",
        };
        by_kind.entry(route).or_default().push(server_ms);
        lags.push((d.dispatched - d.due).as_secs_f64() * 1e3);
        // Whole periods alternate, so both halves carry the same mix.
        let traced = run.trace && (slot / PERIOD) % 2 == 1;
        if traced {
            run.traced_op_ms.push(ms);
            let root = run.tracer.record("request", d.due, d.done, None);
            run.tracer
                .record("pic-predict.serve.queue", d.due, d.sent, Some(root));
            let stage = match kind {
                Kind::Hit(_) | Kind::SweepMiss(_) => "pic-predict.serve.sweep",
                Kind::Predict(..) => "pic-predict.serve.predict",
                Kind::Ingest => "pic-predict.serve.ingest",
            };
            run.tracer.record(stage, d.sent, d.done, Some(root));
        } else if run.trace {
            run.op_ms.push(ms);
        }
    }

    // The cache counters of an evicted trace leave the `/stats`
    // aggregate, and traces are evicted only while an ingest runs; so
    // sum the counter deltas over the stretches between ingests.
    let mut edges = vec![before];
    for d in &results {
        match &d.around {
            Some(Ok((pre, post))) => edges.extend([*pre, *post]),
            Some(Err(e)) => run.check(false, || format!("/stats around slot {}: {e}", d.slot)),
            None => {}
        }
    }
    edges.push(after);
    let (mut hits, mut misses) = (0.0, 0.0);
    for pair in edges.chunks(2) {
        if let [a, b] = pair {
            hits += b.cache_hits - a.cache_hits;
            misses += b.cache_misses - a.cache_misses;
        }
    }
    run.set(
        "pic-predict.serve.cache_hit_rate",
        hits / (hits + misses).max(1.0),
    );
    let evictions = after.evictions - before.evictions;
    run.check(evictions > 0.0, || "no trace was evicted".to_string());
    run.set(
        "pic-predict.serve.batched_frac",
        (after.batched - before.batched) / slots as f64,
    );
    run.set("pic-predict.serve.evictions", evictions);
    for (route, lat) in &by_kind {
        let (p50, p99) = match *route {
            "sweep_hit" => (
                "pic-predict.serve.sweep_hit_p50_ms",
                "pic-predict.serve.sweep_hit_p99_ms",
            ),
            "sweep_miss" => (
                "pic-predict.serve.sweep_miss_p50_ms",
                "pic-predict.serve.sweep_miss_p99_ms",
            ),
            "predict" => (
                "pic-predict.serve.predict_p50_ms",
                "pic-predict.serve.predict_p99_ms",
            ),
            _ => (
                "pic-predict.serve.ingest_p50_ms",
                "pic-predict.serve.ingest_p99_ms",
            ),
        };
        run.set(p50, median(lat));
        run.set(p99, percentile(lat, 99.0));
    }
    run.set("pic-predict.serve.send_lag_p50_ms", median(&lags));
    run.set("pic-predict.serve.send_lag_p99_ms", percentile(&lags, 99.0));
    run.set("pic-trace.bytes", hot_bytes.len() as f64);
    let all: Vec<f64> = run.op_ms.iter().chain(&run.traced_op_ms).copied().collect();
    eprintln!(
        "perfbench: serve {slots} requests at {} q/s, {CONNECTIONS} connections, budget \
         {budget} B, {evictions} evictions; latency p50 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} ms; \
         send lag p99 {:.3} ms",
        inputs.rate,
        median(&all),
        percentile(&all, 90.0),
        percentile(&all, 95.0),
        percentile(&all, 99.0),
        percentile(&lags, 99.0)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_the_inputs() {
        assert_eq!(inputs(1, true), inputs(1, true));
        let (a, b) = (inputs(1, true), inputs(2, true));
        assert_ne!(a.hot, b.hot);
        assert_ne!(a.schedule, b.schedule);
    }

    #[test]
    fn every_period_starts_with_its_ingest() {
        let i = inputs(7, false);
        assert_eq!(i.schedule.len(), PERIODS * PERIOD);
        for period in i.schedule.chunks(PERIOD) {
            assert_eq!(period[0], Kind::Ingest);
            assert_eq!(
                period.iter().filter(|k| matches!(k, Kind::Ingest)).count(),
                1
            );
        }
    }
}
