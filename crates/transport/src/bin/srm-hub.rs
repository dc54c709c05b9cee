//! `srm-hub` — host many SRM sessions in one process over one socket.
//!
//! ```text
//! srm-hub --bind 127.0.0.1:7500 --control 127.0.0.1:7600 --shards 4
//! echo '{"cmd":"create","group":1,"peers":["127.0.0.1:7401"]}' | srm-hub --bind 127.0.0.1:7500
//! ```
//!
//! The hub binds one UDP socket and demultiplexes inbound frames by group
//! id onto a fixed pool of shard reactors, each hosting many SRM agents —
//! the paper's light-weight sessions (§I) made literal: adding a session
//! adds an agent, a timer wheel, and an RNG, never a socket or a thread.
//!
//! Control is line-JSON (see `srm_transport::control`): one command per
//! line on **stdin** and/or a local **TCP listener** (`--control`), one
//! reply line each. `bash` can drive the TCP surface with `/dev/tcp`
//! redirection — no client required:
//!
//! ```text
//! exec 3<>/dev/tcp/127.0.0.1/7600
//! echo '{"cmd":"create","group":3,"peers":["127.0.0.1:7401"],"rate":65536}' >&3
//! read -r reply <&3
//! ```
//!
//! `{"cmd":"stop"}` drains every group (final session message, WAL flush)
//! and exits the process; `--duration` bounds the run for scripts.

mod common;

use common::{apply_batch, at_least_one, next, positive_secs, value};
use srm_transport::hub::{Hub, HubOptions};
use srm_transport::{handle_line, parse_command, Command, HubHandle};
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: srm-hub --bind ADDR [--control ADDR] [--shards N] [--seed N]
               [--store DIR] [--batch N] [--pool N]
               [--stats-file FILE] [--stats-interval F]
               [--duration SECS] [--quiet]

  --bind A          the shared UDP socket every hosted group sends and
                    receives on (required)
  --control A       local TCP address for the line-JSON control plane;
                    stdin always accepts the same commands
  --shards N        shard reactor threads; groups hash onto them (default 4)
  --seed N          hub seed; each group's RNG derives from it (default 1)
  --store DIR       durable ADU stores: group G logs under DIR/G/
  --batch N         frames per recv/send syscall (default 32; 0 forces the
                    portable one-at-a-time backend)
  --pool N          receive/send buffer-pool slabs (default 64)
  --stats-file F    append a metrics-snapshot JSONL line to F every
                    --stats-interval seconds (flushed per line)
  --stats-interval  seconds between snapshots (default 1)
  --duration SECS   exit after this long (default: run until stop/EOF)
  --quiet           do not echo control replies to stderr

commands (one JSON object per line, one reply line each):
  {\"cmd\":\"create\",\"group\":G,\"peers\":[\"IP:PORT\",..],\"id\":N,\"members\":N,
   \"rate\":BYTES_PER_SEC,\"burst\":BYTES,\"dist_ms\":MS}
  {\"cmd\":\"join\", ...}    idempotent create
  {\"cmd\":\"send\",\"group\":G,\"text\":\"...\",\"count\":N}
  {\"cmd\":\"drain\",\"group\":G}
  {\"cmd\":\"stats\"}
  {\"cmd\":\"stop\"}         drain all groups and exit";

fn die(msg: &str) -> ! {
    eprintln!("srm-hub: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Args {
    bind: SocketAddr,
    control: Option<SocketAddr>,
    shards: usize,
    seed: u64,
    store: Option<PathBuf>,
    batch: Option<usize>,
    pool: Option<usize>,
    stats_file: Option<String>,
    stats_interval: f64,
    duration: Option<f64>,
    quiet: bool,
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let mut bind = None;
    let mut control = None;
    let mut shards = 4usize;
    let mut seed = 1u64;
    let mut store = None;
    let mut batch = None;
    let mut pool = None;
    let mut stats_file = None;
    let mut stats_interval = 1.0f64;
    let mut duration = None;
    let mut quiet = false;
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--bind" => bind = Some(value(&mut argv, "--bind", "host:port")),
            "--control" => control = Some(value(&mut argv, "--control", "host:port")),
            "--shards" => {
                let n: usize = value(&mut argv, "--shards", "an integer");
                if !(1..=64).contains(&n) {
                    die("--shards must be in 1..=64");
                }
                shards = n;
            }
            "--seed" => seed = value(&mut argv, "--seed", "an integer"),
            "--store" => store = Some(PathBuf::from(next(&mut argv, "--store"))),
            "--batch" => batch = Some(value(&mut argv, "--batch", "an integer")),
            "--pool" => pool = Some(at_least_one(&mut argv, "--pool")),
            "--stats-file" => stats_file = Some(next(&mut argv, "--stats-file")),
            "--stats-interval" => stats_interval = positive_secs(&mut argv, "--stats-interval"),
            "--duration" => duration = Some(value(&mut argv, "--duration", "seconds")),
            "--quiet" => quiet = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    Args {
        bind: bind.unwrap_or_else(|| die("--bind is required")),
        control,
        shards,
        seed,
        store,
        batch,
        pool,
        stats_file,
        stats_interval,
        duration,
        quiet,
    }
}

/// Execute one control line, echo the reply to its writer, and flag a
/// `stop` so the main loop can exit after the drain.
fn serve_line(hub: &HubHandle, line: &str, out: &mut dyn std::io::Write, quit: &AtomicBool, quiet: bool) {
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    let is_stop = matches!(parse_command(line), Ok(Command::Stop));
    let reply = handle_line(hub, line);
    let _ = writeln!(out, "{reply}").and_then(|()| out.flush());
    if !quiet {
        eprintln!("srm-hub: {reply}");
    }
    if is_stop {
        quit.store(true, Ordering::Relaxed);
    }
}

/// One TCP control connection: read command lines, write reply lines.
fn serve_conn(hub: HubHandle, stream: TcpStream, quit: Arc<AtomicBool>, quiet: bool) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        serve_line(&hub, &line, &mut writer, &quit, quiet);
        if quit.load(Ordering::Relaxed) {
            break;
        }
    }
}

fn main() {
    let args = parse_args();
    let registry = args.stats_file.is_some().then(obs::MetricsRegistry::new);
    let mut opts = HubOptions {
        shards: args.shards,
        seed: args.seed,
        metrics: registry.clone(),
        store_root: args.store.clone(),
        ..HubOptions::default()
    };
    apply_batch(&mut opts.batch, args.batch, args.pool);

    let hub = match Hub::spawn(args.bind, opts) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("srm-hub: cannot start on {}: {e}", args.bind);
            std::process::exit(1);
        }
    };
    eprintln!(
        "srm-hub: {} shards on {}{}",
        hub.shards(),
        hub.local_addr(),
        match args.control {
            Some(c) => format!(", control on {c}"),
            None => ", control on stdin".to_string(),
        }
    );

    let quit = Arc::new(AtomicBool::new(false));

    // Stats emitter: one flushed JSONL line per interval (same contract as
    // srm-node's --stats-file: interruption loses at most one interval).
    let stats_stop = Arc::new(AtomicBool::new(false));
    let stats_thread = registry.map(|reg| {
        let stop = Arc::clone(&stats_stop);
        let path = args.stats_file.clone().expect("stats file set with registry");
        let interval = Duration::from_secs_f64(args.stats_interval);
        let stats_hub = hub.clone();
        std::thread::spawn(move || {
            let mut file = match std::fs::File::create(&path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("srm-hub: {path}: {e}");
                    return;
                }
            };
            loop {
                let stopping = stop.load(Ordering::Relaxed);
                // stats() refreshes the hub-level registry mirrors before
                // the snapshot is taken.
                let _ = stats_hub.stats();
                let snap = reg.snapshot();
                let _ = writeln!(file, "{}", snap.to_json_line()).and_then(|()| file.flush());
                if stopping {
                    return;
                }
                let until = Instant::now() + interval;
                while Instant::now() < until && !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        })
    });

    // TCP control surface: non-blocking accept loop so it can notice quit;
    // each connection gets its own serving thread.
    let tcp_thread = args.control.map(|addr| {
        let listener = TcpListener::bind(addr)
            .unwrap_or_else(|e| die(&format!("cannot bind control {addr}: {e}")));
        listener
            .set_nonblocking(true)
            .expect("nonblocking accept is settable");
        let hub = hub.clone();
        let quit = Arc::clone(&quit);
        let quiet = args.quiet;
        std::thread::spawn(move || {
            while !quit.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let hub = hub.clone();
                        let quit = Arc::clone(&quit);
                        std::thread::spawn(move || serve_conn(hub, stream, quit, quiet));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(50)),
                }
            }
        })
    });

    // Stdin control surface. EOF does NOT quit (scripts often run the hub
    // with stdin closed); only `stop`, `--duration`, or a signal end it.
    {
        let hub = hub.clone();
        let quit = Arc::clone(&quit);
        let quiet = args.quiet;
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            let mut line = String::new();
            let mut out = std::io::stdout();
            loop {
                line.clear();
                match stdin.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => serve_line(&hub, &line, &mut out, &quit, quiet),
                }
            }
        });
    }

    let deadline = args
        .duration
        .map(|d| Instant::now() + Duration::from_secs_f64(d.max(0.0)));
    while !quit.load(Ordering::Relaxed) {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // Orderly exit: drain every still-hosted group (stop already did this;
    // drains are idempotent on an empty hub), then join the threads.
    let drained = hub.drain_all();
    let st = hub.stats();
    hub.shutdown();
    if let Some(t) = tcp_thread {
        quit.store(true, Ordering::Relaxed);
        let _ = t.join();
    }
    if let Some(t) = stats_thread {
        stats_stop.store(true, Ordering::Relaxed);
        let _ = t.join();
    }
    eprintln!(
        "srm-hub: done — groups_drained={} frames_attempted={} frames_sent={} send_errors={} \
         rx_frames={} unjoined={} overflow={}",
        drained.groups,
        st.frames_attempted,
        st.frames_sent,
        st.send_errors,
        st.rx_frames,
        st.rx_unjoined_group,
        st.inbound_overflow
    );
}
