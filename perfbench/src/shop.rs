//! `shop`: a `ShopService` runs in-process with one worker and its data
//! directory under the run's state directory; one `ShopClient` drives
//! it over loopback TCP in a closed loop on one connection — the next
//! request goes out only after the previous reply arrived, as a caller
//! waiting for each quote would send it. One op is one round of
//! [`ROUND_REQUESTS`] requests with a fixed mix (see
//! [`crate::inputs::ShopSequence`]).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use printed_microprocessors::obs::{self, json};
use printed_microprocessors::shop::client::{Response, ShopClient};
use printed_microprocessors::shop::proto::{fnv64, parse_request};
use printed_microprocessors::shop::quote::{self, BuiltCore};
use printed_microprocessors::shop::{
    CacheLookup, JobQueue, Journal, QuoteCache, QuoteReply, Request, Served, ShopConfig, ShopQuery,
    ShopService, Submit,
};

use crate::inputs::{ShopSequence, ROUND_REQUESTS};
use crate::layers::{self, Layers};
use crate::reproduce::replay_per_core;
use crate::spans::{Tracer, TILING_TOLERANCE};
use crate::stats::{end_to_end, median, Report};
use crate::{clock, Args, StateDir};

const SETUP_REPS: usize = 9;
const MIN_ROUNDS: usize = 40;

/// The request line for a query.
fn wire(query: &ShopQuery) -> String {
    format!("{{\"op\":\"quote\",\"query\":{}}}", query.canonical())
}

/// A running service and its one client. The client closes first, so
/// the service's connection thread sees EOF before the service drains.
struct Shop {
    client: ShopClient,
    _service: ShopService,
    dir: PathBuf,
}

impl Shop {
    /// Starts a service on a fresh directory: one worker and one
    /// campaign thread, so server and client never have more busy
    /// threads than the two cores the benchmark assumes.
    fn start(dir: PathBuf) -> Shop {
        let config = ShopConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            queue_capacity: 8,
            deadline_ms: 60_000,
            workers: 1,
            max_retries: 2,
            campaign_threads: 1,
        };
        let service = ShopService::start(config).expect("shop service starts");
        let client = ShopClient::connect(&service.addr().to_string()).expect("client connects");
        Shop { client, _service: service, dir }
    }

    fn stats(&mut self) -> HashMap<String, f64> {
        let response = self.client.request("{\"op\":\"stats\"}").expect("stats op answers");
        let mut out = HashMap::new();
        if let Some(json::Value::Object(fields)) =
            response.envelope_json().as_ref().and_then(|v| v.get("stats")).cloned()
        {
            for (k, v) in fields {
                if let Some(n) = v.as_f64() {
                    out.insert(k, n);
                }
            }
        }
        out
    }
}

/// Checks every reply: a query's first reply must equal in-process
/// `quote::price` for the same query, and every repeat must be
/// byte-identical to that first reply (kept as a hash, so a long run's
/// bookkeeping stays small).
#[derive(Default)]
struct Checker {
    first: HashMap<u64, u64>,
    built: HashMap<(usize, usize, u8), BuiltCore>,
}

impl Checker {
    fn check(&mut self, query: &ShopQuery, response: &Response) -> bool {
        let Some(quote) = response.quote.as_ref().filter(|_| response.is_ok()) else {
            println!("shop: failed reply {}", response.envelope);
            return false;
        };
        let hash = fnv64(quote.as_bytes());
        if let Some(&first) = self.first.get(&query.query_key()) {
            return first == hash;
        }
        self.first.insert(query.query_key(), hash);
        let core = self
            .built
            .entry((query.width, query.pipeline, query.bars))
            .or_insert_with(|| quote::build(query).expect("generated queries build"));
        let priced = quote::price(query, core, None, 1, None).expect("in-process price");
        quote_matches(&priced.json, quote)
    }

    /// Whether `quote` is what the service served first for `query`.
    fn served(&self, query: &ShopQuery, quote: &str) -> bool {
        self.first.get(&query.query_key()) == Some(&fnv64(quote.as_bytes()))
    }
}

/// The oracle check: the served quote is byte-identical to in-process
/// pricing.
pub fn quote_matches(in_process: &str, served: &str) -> bool {
    in_process == served
}

/// Sends one round over the client; returns its time in ms — the CPU
/// time of client and service threads together — and the number of
/// requests that failed their checks. The checks run after the round's
/// clock stops.
fn send_round(
    shop: &mut Shop,
    round: &[ShopQuery],
    index: usize,
    checker: &mut Checker,
) -> (f64, usize) {
    let lines: Vec<String> = round.iter().map(wire).collect();
    let started = clock::cpu_ns();
    let responses: Vec<std::io::Result<Response>> =
        lines.iter().map(|l| shop.client.request(l)).collect();
    let ms = (clock::cpu_ns() - started) as f64 / 1e6;
    let mut failed = 0;
    for (query, response) in round.iter().zip(&responses) {
        let ok = match response {
            Ok(r) => checker.check(query, r),
            Err(e) => {
                println!("shop: round {index}: {e}");
                false
            }
        };
        failed += usize::from(!ok);
    }
    (ms, failed)
}

/// Closed-loop rounds for `seconds`; `after` sees each round once its
/// clock has stopped. Returns each round's time and how many rounds
/// failed a check.
fn phase(
    shop: &mut Shop,
    seq: &mut ShopSequence,
    seconds: f64,
    min_rounds: usize,
    checker: &mut Checker,
    mut after: impl FnMut(&[ShopQuery], &Checker),
) -> (Vec<f64>, u64) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut failed_rounds = 0;
    while times.len() < min_rounds || started.elapsed().as_secs_f64() < seconds {
        let round = seq.next_round();
        let (ms, failed) = send_round(shop, &round, times.len(), checker);
        failed_rounds += u64::from(failed > 0);
        times.push(ms);
        after(&round, checker);
    }
    (times, failed_rounds)
}

/// Set-up: returns `setup_s`, the replies that failed their checks, the
/// primed service, the request sequence and the checker.
fn set_up(args: &Args, state: &StateDir) -> (f64, usize, Shop, ShopSequence, Checker) {
    let (seq, primer) = ShopSequence::new(args.seed);
    let mut shop = None;
    let mut checker = Checker::default();
    let mut failed = 0;
    let mut secs = Vec::with_capacity(SETUP_REPS);
    // Set-up starts the service on a fresh directory and primes it with
    // one quote per design point (a cold first pass); repeated, with
    // the previous service shut down first, outside the clock.
    for i in 0..SETUP_REPS {
        drop(shop.take());
        let dir = state.fresh(&format!("shop{i}"));
        let started = clock::cpu_ns();
        let mut s = Shop::start(dir);
        failed += send_round(&mut s, &primer, 0, &mut checker).1;
        secs.push((clock::cpu_ns() - started) as f64 / 1e9);
        shop = Some(s);
    }
    (median(&secs), failed, shop.expect("set-up ran"), seq, checker)
}

pub fn run(args: &Args, state: &StateDir) -> Report {
    let mut report = Report::default();
    let (setup_s, setup_failed, mut shop, mut seq, mut checker) = set_up(args, state);
    if setup_failed > 0 {
        report.problem(format!("{setup_failed} set-up replies failed their checks"));
    }
    let before = shop.stats();

    if !args.trace {
        let (times, failed) =
            phase(&mut shop, &mut seq, args.seconds, MIN_ROUNDS, &mut checker, |_, _| {});
        let after = shop.stats();
        check_rounds(&mut report, times.len(), failed, &after);
        let requests = (times.len() * ROUND_REQUESTS) as f64;
        println!(
            "shop: closed loop, 1 client, 1 connection, 1 worker; {}",
            end_to_end(&mut report, setup_s, &times, requests)
        );
        println!("shop: cache hit fraction {:.4}", hit_frac(&before, &after));
        return report;
    }

    let half = args.seconds / 2.0;
    let (plain, failed_a) =
        phase(&mut shop, &mut seq, half, MIN_ROUNDS / 2, &mut checker, |_, _| {});
    // Each traced round is replayed in-process right after the client
    // sent it, on a copy of the server's cache taken now, so the replay
    // sees the same hits and misses and the same machine as the round.
    let mut replay = Replay::open(&state.fresh("replay"), &shop.dir.join("cache"));
    obs::global().reset();
    obs::set_level(obs::Level::Summary);
    let (traced, failed_b) =
        phase(&mut shop, &mut seq, half, MIN_ROUNDS / 2, &mut checker, |round, checker| {
            replay.round(round, checker)
        });
    obs::set_level(obs::Level::Off);
    let after = shop.stats();
    check_rounds(&mut report, plain.len() + traced.len(), failed_a + failed_b, &after);
    for problem in replay.problems.drain(..) {
        report.problem(problem);
    }

    let n = traced.len() as f64;
    let replay_mean = replay.times.iter().sum::<f64>() / n;
    let client_mean = traced.iter().sum::<f64>() / n;
    let tr = &replay.tracer;
    let gap = tr.tiling_error((replay.times.iter().sum::<f64>() * 1e6) as u64);
    let transport = client_mean - replay_mean;
    println!(
        "shop: replayed layers tile the replay within {:.4}%; client round {client_mean:.3} ms = \
         replay {replay_mean:.3} ms + transport {transport:.3} ms",
        gap * 100.0
    );
    if gap > TILING_TOLERANCE {
        report.problem(format!("replay spans miss the replay time by {:.2}%", gap * 100.0));
    }
    // Transport is the residual of the tiling; it may read slightly
    // negative only by as much as the tiling tolerance allows.
    if transport < -TILING_TOLERANCE * client_mean {
        report.problem("the in-process replay took longer than the client's rounds");
    }

    let mut measured = Layers::new();
    for name in [
        "shop.proto.parse",
        "shop.quote.build",
        "shop.quote.content_key",
        "shop.cache.lookup",
        "shop.cache.store",
        "shop.quote.price",
        "shop.journal",
        "shop.queue",
    ] {
        measured.insert(layers::key(&format!("{name}_ms")), tr.self_ns(name) as f64 / 1e6 / n);
    }
    measured.insert("shop.transport_ms", transport);
    measured.insert("shop.cache_hit_frac", hit_frac(&before, &after));
    measured.insert("shop.coalesced", after.get("coalesced").copied().unwrap_or(0.0));
    measured.insert("shop.rejected", after.get("rejected").copied().unwrap_or(0.0));
    measured.insert("obs.trace_overhead_frac", layers::trace_overhead(&traced, &plain));
    replay_per_core(&mut measured);
    layers::emit("shop", &mut report, &measured);
    report
}

/// Counts rounds and their failures, then the whole-run check that
/// nothing was load-shed.
fn check_rounds(report: &mut Report, rounds: usize, failed: u64, stats: &HashMap<String, f64>) {
    report.tally(rounds as u64, failed);
    let rejected = stats.get("rejected").copied().unwrap_or(-1.0);
    if rejected != 0.0 {
        report.problem(format!("shop rejected {rejected} requests"));
    }
}

fn hit_frac(before: &HashMap<String, f64>, after: &HashMap<String, f64>) -> f64 {
    let delta = |k: &str| after.get(k).unwrap_or(&0.0) - before.get(k).unwrap_or(&0.0);
    let hits = delta("cache_hits");
    hits / (hits + delta("computed")).max(1.0)
}

/// The in-process replay of the traced rounds: the public `proto`,
/// `JobQueue`, `Journal`, `quote` and `QuoteCache` calls a worker makes,
/// one span per call.
struct Replay {
    queue: JobQueue,
    journal: Journal,
    cache: QuoteCache,
    ckpt: PathBuf,
    tracer: Tracer,
    /// Each replayed round's time, ms.
    times: Vec<f64>,
    problems: Vec<String>,
}

impl Replay {
    /// Opens the replay's state in `dir`, its cache a copy of `cache`.
    fn open(dir: &Path, cache: &Path) -> Replay {
        let copy = dir.join("cache");
        std::fs::create_dir_all(&copy).expect("replay cache directory");
        for entry in std::fs::read_dir(cache).expect("server cache directory").flatten() {
            std::fs::copy(entry.path(), copy.join(entry.file_name())).expect("copy cache entry");
        }
        Replay {
            queue: JobQueue::new(8),
            journal: Journal::open(dir).expect("replay journal opens").0,
            cache: QuoteCache::open(copy).expect("replay cache opens"),
            ckpt: dir.join("ckpt"),
            tracer: Tracer::new(true),
            times: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn round(&mut self, round: &[ShopQuery], checker: &Checker) {
        let lines: Vec<String> = round.iter().map(wire).collect();
        let started = clock::cpu_ns();
        for line in &lines {
            let Replay { queue, journal, cache, ckpt, tracer, problems, .. } = self;
            tracer.span("shop.replay", |tr| {
                match replay_one(line, queue, journal, cache, ckpt, tr) {
                    Ok((query, quote)) if !checker.served(&query, &quote) => {
                        problems.push("a replayed quote differs from the served one".into());
                    }
                    Ok(_) => {}
                    Err(e) => problems.push(format!("replay: {e}")),
                }
            });
        }
        self.times.push((clock::cpu_ns() - started) as f64 / 1e6);
    }
}

fn replay_one(
    line: &str,
    queue: &JobQueue,
    journal: &mut Journal,
    cache: &QuoteCache,
    ckpt: &Path,
    tr: &mut Tracer,
) -> Result<(ShopQuery, String), String> {
    let Ok(Request::Quote(query)) = tr.span("shop.proto.parse", |_| parse_request(line)) else {
        return Err("request did not parse as a quote".into());
    };
    let submitted = tr.span("shop.queue", |tr| {
        queue.submit(*query, &mut |k, c| tr.span("shop.journal", |_| journal.accept(k, c)))
    });
    let Submit::Queued(rx) = submitted else { return Err("queue refused the job".into()) };
    let (key, query, _) = tr.span("shop.queue", |_| queue.claim()).ok_or("queue drained")?;
    let built = tr.span("shop.quote.build", |_| quote::build(&query)).map_err(|e| e.to_string())?;
    let content = tr
        .span("shop.quote.content_key", |_| quote::content_key(&query, &built))
        .map_err(|e| e.to_string())?;
    let quote = match tr.span("shop.cache.lookup", |_| cache.lookup(content)) {
        CacheLookup::Hit(bytes) => bytes,
        CacheLookup::Miss | CacheLookup::Evicted => {
            let priced = tr
                .span("shop.quote.price", |_| quote::price(&query, &built, Some(ckpt), 1, None))
                .map_err(|e| e.to_string())?;
            tr.span("shop.cache.store", |_| cache.store(content, &priced.json))
                .map_err(|e| e.to_string())?;
            priced.json
        }
    };
    tr.span("shop.journal", |_| journal.done(key)).map_err(|e| e.to_string())?;
    let reply = Ok(QuoteReply {
        served: Served::Computed,
        fingerprint: Some(content),
        resumed_slots: 0,
        wall_ms: 0,
        quote: quote.clone(),
    });
    tr.span("shop.queue", |_| queue.complete(key, &reply));
    rx.recv().map_err(|e| e.to_string())?.map_err(|e| e.to_string())?;
    Ok((query, quote))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_quote_is_counted_as_a_failure() {
        let q = ShopQuery::default();
        let built = quote::build(&q).unwrap();
        let good = quote::price(&q, &built, None, 1, None).unwrap().json;
        assert!(quote_matches(&good, &good));
        let corrupted = good.replacen("\"gates\":", "\"gates\":1", 1);
        assert!(!quote_matches(&good, &corrupted));

        let ok = Response {
            envelope: "{\"ok\":true,\"served\":\"computed\"}".into(),
            quote: Some(good.clone()),
        };
        let bad = Response { quote: Some(corrupted), ..ok.clone() };
        let mut checker = Checker::default();
        assert!(checker.check(&q, &ok));
        assert!(checker.served(&q, &good));
        assert!(!checker.check(&q, &bad), "a repeat with other bytes fails");
        assert!(!Checker::default().check(&q, &bad), "a mispriced first reply fails");
        let refused = Response { envelope: "{\"ok\":false}".into(), quote: None };
        assert!(!checker.check(&q, &refused), "a failed reply fails");
    }
}
