//! `serve-mix`: the seeded `models` request stream, its reference
//! verdicts, the closed-loop load client, and the socket-free traced
//! replay of the same stream through the server's layers.
//!
//! About four in five requests are *hot*: a shape from a fixed pool of
//! ≤ 8-node pairs (the litmus tests plus seeded random ones), re-sent
//! under a fresh node relabelling, so the server canonicalises it and
//! answers from its verdict cache. The rest are *cold*: never-repeated
//! 9–12-node pairs above `CANON_NODE_CAP`, which key literally, miss the
//! cache and run all six checkers, the SC search included.

use crate::trace::{quantile, Metrics, Tracer};
use ccmm::client::Connection;
use ccmm::conformance::sources::{random_computation, random_observer};
use ccmm::core::last_writer::last_writer_function;
use ccmm::core::model::CheckScratch;
use ccmm::core::serve::{
    encode_frame, parse_request, render_request, verdict_key, verdict_line, FrameDecoder,
    FrameEvent, Handler, Reply, Request, Verb, VerdictCache, SERVED_MODELS,
};
use ccmm::core::{Computation, MemoryModel, ObserverFunction};
use ccmm::dag::topo::random_topo_sort;
use ccmm::dag::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Instant;

/// Hot shapes in the pool: with six models each, 6 × 48 cache entries
/// stay well inside the server's default 4096-entry cache.
const HOT_POOL: usize = 48;
/// The pool is the same for every run seed: canonicalisation cost grows
/// with a shape's linear extensions (an 8-node antichain has 40,320), so
/// a per-seed pool would make run-to-run cost depend on which shapes the
/// seed happened to draw. The run seed picks the request order, every
/// relabelling and every cold pair.
const POOL_SEED: u64 = 0;
/// Share of hot requests, in percent.
const HOT_PERCENT: u32 = 80;
/// Shard count and capacity of the daemon's default verdict cache.
const CACHE_SHARDS: usize = 8;
const CACHE_CAPACITY: usize = 4096;

/// One request of the stream: its payload and the six reference verdict
/// lines a correct server returns.
pub struct Item {
    pub payload: Vec<u8>,
    pub expected: Vec<String>,
    pub hot: bool,
}

/// A seeded observer: half the time the last-writer function of a
/// random topological order (an SC witness), otherwise a uniformly
/// random valid observer, so verdicts mix members and non-members.
fn observer_for(rng: &mut StdRng, c: &Computation) -> ObserverFunction {
    if rng.gen_range(0..2u32) == 0 {
        last_writer_function(c, &random_topo_sort(c.dag(), rng))
    } else {
        random_observer(rng, c)
    }
}

/// The pair relabelled along a random topological order `t` (new node
/// `i` is old node `t[i]`), so it stays naturally labelled.
fn relabel(
    rng: &mut StdRng,
    c: &Computation,
    phi: &ObserverFunction,
) -> (Computation, ObserverFunction) {
    let t = random_topo_sort(c.dag(), rng);
    let mut pos = vec![0usize; t.len()];
    for (i, u) in t.iter().enumerate() {
        pos[u.index()] = i;
    }
    let edges: Vec<(usize, usize)> =
        c.dag().edges().map(|(u, v)| (pos[u.index()], pos[v.index()])).collect();
    let ops = t.iter().map(|&u| c.op(u)).collect();
    let c2 = Computation::from_edges(t.len(), &edges, ops);
    let phi2 = ObserverFunction::from_fn(&c2, |l, i| {
        phi.get(l, t[i.index()]).map(|w| NodeId::new(pos[w.index()]))
    });
    (c2, phi2)
}

fn reference(c: &Computation, phi: &ObserverFunction, scratch: &mut CheckScratch) -> Vec<String> {
    SERVED_MODELS.iter().map(|m| verdict_line(*m, m.contains_with(c, phi, scratch))).collect()
}

fn render(c: Computation, phi: ObserverFunction) -> Vec<u8> {
    render_request(&Request { verb: Verb::Models { c, phi }, deadline_ms: None }).into_bytes()
}

/// The seeded stream of `n` requests with reference verdicts computed
/// here, outside any server, before anything is timed. Hot references
/// come from the pool's original labelling, so a correct reply also
/// shows the server's canonical cache is isomorphism-invariant.
pub fn stream(seed: u64, n: usize) -> Vec<Item> {
    let mut pool_rng = StdRng::seed_from_u64(POOL_SEED);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = CheckScratch::new();
    let mut pool: Vec<(Computation, ObserverFunction)> = ccmm::core::litmus::standard_tests()
        .into_iter()
        .map(|t| t.computation)
        .filter(|c| c.node_count() <= 8)
        .map(|c| {
            let phi = observer_for(&mut pool_rng, &c);
            (c, phi)
        })
        .collect();
    while pool.len() < HOT_POOL {
        let c = random_computation(&mut pool_rng, 8, 2);
        let phi = observer_for(&mut pool_rng, &c);
        pool.push((c, phi));
    }
    let pool_refs: Vec<Vec<String>> =
        pool.iter().map(|(c, phi)| reference(c, phi, &mut scratch)).collect();
    // Hot requests walk the pool in seeded shuffled rounds, so every
    // shape is sent equally often whatever the seed.
    let mut order: Vec<usize> = Vec::new();
    (0..n)
        .map(|_| {
            if rng.gen_range(0..100u32) < HOT_PERCENT {
                if order.is_empty() {
                    order = (0..pool.len()).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.gen_range(0..=i));
                    }
                }
                let k = order.pop().expect("refilled above");
                let (c, phi) = relabel(&mut rng, &pool[k].0, &pool[k].1);
                Item { payload: render(c, phi), expected: pool_refs[k].clone(), hot: true }
            } else {
                let c = loop {
                    let c = random_computation(&mut rng, 12, 3);
                    if c.node_count() >= 9 {
                        break c;
                    }
                };
                let phi = observer_for(&mut rng, &c);
                let expected = reference(&c, &phi, &mut scratch);
                Item { payload: render(c, phi), expected, hot: false }
            }
        })
        .collect()
}

struct Outcome {
    rt_ns: u64,
    hot: bool,
    ok: bool,
    wrong: bool,
}

fn drive(
    addr: &str,
    items: &[Item],
    conn_idx: usize,
    conns: usize,
) -> (Vec<Outcome>, Instant, Instant) {
    let mut conn = Connection::connect(addr, 10_000).ok();
    let mut out = Vec::new();
    let first = Instant::now();
    for item in items.iter().skip(conn_idx).step_by(conns) {
        if conn.is_none() {
            conn = Connection::connect(addr, 10_000).ok();
        }
        let t0 = Instant::now();
        let reply = conn.as_mut().map(|c| c.roundtrip(&item.payload));
        let rt_ns = t0.elapsed().as_nanos() as u64;
        let (ok, wrong) = match reply {
            Some(Ok(Reply::Ok { body, .. })) => (true, body != item.expected),
            Some(Ok(_)) => (false, false),
            Some(Err(_)) | None => {
                conn = None; // reconnect for the next request
                (false, false)
            }
        };
        out.push(Outcome { rt_ns, hot: item.hot, ok, wrong });
    }
    (out, first, Instant::now())
}

fn pct_us(v: &[f64], q: f64) -> f64 {
    quantile(&mut v.to_vec(), q) / 1e3
}

/// The closed-loop load client: builds the stream and references, prints
/// `ready`, reads the server address from stdin, drives `conns`
/// connections (request `i` on connection `i mod conns`, each waiting
/// for its reply before sending the next), prints `done` as soon as the
/// last reply is checked, then one JSON summary line.
pub fn client(seed: u64, n: usize, conns: usize, flip_reference: bool) -> Result<(), String> {
    let mut items = stream(seed, n);
    if flip_reference {
        // Negative self-test: a wrong reference must fail the run.
        let line = &mut items[0].expected[0];
        *line = if line.ends_with(": in") {
            line.replace(": in", ": out")
        } else {
            line.replace(": out", ": in")
        };
    }
    let mut stdout = std::io::stdout();
    writeln!(stdout, "ready").and_then(|_| stdout.flush()).map_err(|e| e.to_string())?;
    let mut addr = String::new();
    std::io::stdin().lock().read_line(&mut addr).map_err(|e| e.to_string())?;
    let addr = addr.trim().to_string();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|k| {
                s.spawn({
                    let (addr, items) = (&addr, &items);
                    move || drive(addr, items, k, conns)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    writeln!(stdout, "done").and_then(|_| stdout.flush()).map_err(|e| e.to_string())?;

    let start = results.iter().map(|r| r.1).min().expect("at least one connection");
    let end = results.iter().map(|r| r.2).max().expect("at least one connection");
    let all: Vec<&Outcome> = results.iter().flat_map(|r| &r.0).collect();
    let rts: Vec<f64> = all.iter().map(|o| o.rt_ns as f64).collect();
    let hot: Vec<f64> = all.iter().filter(|o| o.hot).map(|o| o.rt_ns as f64).collect();
    let cold: Vec<f64> = all.iter().filter(|o| !o.hot).map(|o| o.rt_ns as f64).collect();
    let failed = all.iter().filter(|o| !o.ok).count();
    let wrong = all.iter().filter(|o| o.wrong).count();
    let p99 = pct_us(&rts, 0.99);
    let beyond = rts.iter().filter(|&&x| x / 1e3 > p99).count();
    let load_s = end.duration_since(start).as_secs_f64();
    println!(
        "{{\"attempted\":{},\"failed\":{failed},\"wrong\":{wrong},\"load_s\":{load_s},\
         \"req_per_s\":{},\"p50_us\":{},\"p99_us\":{p99},\"samples\":{},\"beyond_p99\":{beyond},\
         \"hot_samples\":{},\"hot_p50_us\":{},\"cold_samples\":{},\"cold_p50_us\":{},\"cold_p99_us\":{}}}",
        all.len(),
        all.len() as f64 / load_s.max(1e-9),
        pct_us(&rts, 0.5),
        rts.len(),
        hot.len(),
        pct_us(&hot, 0.5),
        cold.len(),
        pct_us(&cold, 0.5),
        pct_us(&cold, 0.99),
    );
    Ok(())
}

/// Per-request layer times of one replayed request, in nanoseconds.
#[derive(Default, Clone, Copy)]
struct Layers {
    decode: u64,
    parse: u64,
    canon: u64,
    cache: u64,
    check: u64,
    reply: u64,
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// Socket-free replay of the stream: first untraced through the server's
/// own `Handler` (the overhead reference), then traced layer by layer
/// through `FrameDecoder`, `parse_request`, `verdict_key`, `VerdictCache`,
/// `contains_with` and `Reply::encode`, each with a fresh default-sized
/// cache. Returns `(metrics, answers JSON)`.
pub fn traced(seed: u64, n: usize, tr: &mut Tracer) -> (Metrics, String) {
    let items = stream(seed, n);
    let decode = |bytes: &[u8]| -> Vec<u8> {
        let mut d = FrameDecoder::new();
        d.push(&encode_frame(bytes));
        match d.next_event() {
            Some(FrameEvent::Frame(p)) => p,
            other => panic!("replayed frame did not decode: {other:?}"),
        }
    };

    let t0 = Instant::now();
    let mut handler = Handler::new(Arc::new(VerdictCache::new(CACHE_SHARDS, CACHE_CAPACITY)), None);
    let mut untraced_wrong = 0usize;
    for item in &items {
        let reply = handler.handle(&decode(&item.payload), false);
        std::hint::black_box(encode_frame(&reply.encode()));
        untraced_wrong +=
            usize::from(!matches!(&reply, Reply::Ok { body, .. } if *body == item.expected));
    }
    let untraced_s = t0.elapsed().as_secs_f64();
    drop(handler);

    let cache = VerdictCache::new(CACHE_SHARDS, CACHE_CAPACITY);
    let mut scratch = CheckScratch::new();
    let mut per_req: Vec<Layers> = Vec::with_capacity(items.len());
    let mut checks: Vec<f64> = Vec::new();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let (mut repeats, mut wrong) = (0usize, 0usize);
    tr.begin("bench.job", 0);
    let acc: Vec<_> =
        ["serve.decode", "serve.parse", "serve.canon", "serve.cache", "serve.check", "serve.reply"]
            .into_iter()
            .map(|name| tr.accum(name))
            .collect();
    for item in &items {
        let mut l = Layers::default();
        let a = Instant::now();
        let payload = decode(&item.payload);
        let b = Instant::now();
        let req = parse_request(&payload).expect("generated requests parse");
        let c_ = Instant::now();
        l.decode = ns(a, b);
        l.parse = ns(b, c_);
        let Verb::Models { c, phi } = &req.verb else {
            unreachable!("the stream sends models requests")
        };
        let mut body = Vec::with_capacity(SERVED_MODELS.len());
        let mut first_key = None;
        for m in SERVED_MODELS {
            let t0 = Instant::now();
            let key = verdict_key(m, c, phi);
            let t1 = Instant::now();
            let hit = cache.lookup(&key);
            let t2 = Instant::now();
            l.canon += ns(t0, t1);
            l.cache += ns(t1, t2);
            if first_key.is_none() {
                first_key = Some(key.clone());
            }
            let member = match hit {
                Some(v) => v,
                None => {
                    let v = m.contains_with(c, phi, &mut scratch);
                    let t3 = Instant::now();
                    cache.insert(key, v);
                    l.check += ns(t2, t3);
                    l.cache += ns(t3, Instant::now());
                    checks.push(ns(t2, t3) as f64);
                    v
                }
            };
            body.push(verdict_line(m, member));
        }
        let d = Instant::now();
        let reply = Reply::Ok { body, cached: false };
        let frame = encode_frame(&reply.encode());
        l.reply = ns(d, Instant::now());
        std::hint::black_box(frame);
        // Bookkeeping outside the timed windows: verdicts against the
        // references, and whether this request's key was seen before.
        wrong += usize::from(!matches!(&reply, Reply::Ok { body, .. } if *body == item.expected));
        repeats += usize::from(!seen.insert(first_key.expect("six models were keyed")));
        per_req.push(l);
    }
    // Accumulators take whole per-request sums; the chunk is one request.
    for l in &per_req {
        for (id, v) in acc.iter().zip([l.decode, l.parse, l.canon, l.cache, l.check, l.reply]) {
            tr.add_ns(*id, v);
        }
    }
    tr.end("bench.job");

    let mut m = Metrics::default();
    let col = |f: fn(&Layers) -> u64| -> Vec<f64> { per_req.iter().map(|l| f(l) as f64).collect() };
    let med = |v: Vec<f64>| pct_us(&v, 0.5);
    m.set("serve.decode_us", med(col(|l| l.decode)));
    m.set("serve.parse_us", med(col(|l| l.parse)));
    m.set("serve.canon_us", med(col(|l| l.canon)));
    m.set("serve.canon_us.p99", pct_us(&col(|l| l.canon), 0.99));
    m.set("serve.cache_us", med(col(|l| l.cache)));
    m.set("serve.reply_us", med(col(|l| l.reply)));
    m.set("serve.check_us", pct_us(&checks, 0.5));
    m.set("serve.check_us.p99", pct_us(&checks, 0.99));
    let stats = cache.stats();
    let lookups = stats.hits + stats.misses;
    m.set("serve.cache_hit_ratio", stats.hits as f64 / lookups.max(1) as f64);
    m.set("serve.repeat_share", repeats as f64 / items.len().max(1) as f64);
    let handler_us = med(col(|l| l.decode + l.parse + l.canon + l.cache + l.check + l.reply));
    let answers = format!(
        "{{\"requests\":{},\"wrong\":{wrong},\"untraced_wrong\":{untraced_wrong},\"untraced_s\":{untraced_s},\
         \"handler_p50_us\":{handler_us},\"lookups\":{lookups},\"checks\":{},\"check_max_us\":{},\"canon_max_us\":{},\"repeats\":{repeats}}}",
        items.len(),
        checks.len(),
        pct_us(&checks, 1.0),
        pct_us(&col(|l| l.canon), 1.0)
    );
    (m, answers)
}
