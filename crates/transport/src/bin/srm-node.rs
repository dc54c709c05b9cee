//! `srm-node` — run one SRM session member over live UDP sockets.
//!
//! ```text
//! srm-node join --id 2 --bind 127.0.0.1:7402 --peers 127.0.0.1:7401,127.0.0.1:7403
//! srm-node send --id 1 --bind 127.0.0.1:7401 --peers ... --text "draw a blue line"
//! srm-node join --id 3 --bind 0.0.0.0:7400 --mcast 239.66.66.0:7400
//! srm-node soak --nodes 4 --secs 6 --chaos "loss=0.15,burst=0.9@1s+2s"
//! ```
//!
//! `join` participates (receives, answers requests, repairs); `send`
//! additionally multicasts each `--text` as one ADU. Both run for
//! `--duration` seconds, print delivered ADUs, and with `--trace FILE`
//! write the node's obs timeline as JSONL. `--chaos SPEC` applies a
//! scripted chaos plan to the node's send path.
//!
//! `monitor` joins the group **read-only**: it never sends a frame, and
//! reconstructs per-member health — highest-seq lag, RTT from timestamp
//! echoes, alive/suspect/dead, loss — purely from the session messages it
//! receives (Section III-A is the observability substrate). On a unicast
//! mesh the senders must list the monitor's address among their `--peers`;
//! with `--mcast` it simply joins the group address.
//!
//! `soak` runs the whole chaos-soak harness in-process: a 3–5 node
//! loopback mesh under a scripted chaos plan, asserting eventual delivery
//! after heal, zero reactor deaths, bounded queue growth, and full frame
//! accounting. Exit status 1 means an invariant was violated.
//!
//! ## Output files survive interruption
//!
//! std-only Rust has no signal handling, so instead of buffering output
//! until a clean exit, every sink is **incremental**: `--stats-file` lines
//! are flushed per interval, `--trace` chunks are drained from the reactor
//! and appended roughly once a second, and `monitor --out` flushes per
//! refresh. Killing the process (SIGINT included) loses at most the last
//! partial interval. For an *orderly* early exit, type `quit` on stdin:
//! the node leaves the session before `--duration`, drains every sink,
//! and flushes the WAL, losing nothing at all.
//!
//! ## Durability
//!
//! `--store DIR` appends every ADU this node holds to a CRC-framed
//! write-ahead log under DIR and replays it on the next start, so a
//! killed member restarts repair-capable instead of blank. Repairs for
//! payloads evicted from the in-memory cache (`--store-cache`) are
//! served from the log.

mod common;

use common::{apply_batch, at_least_one, next, positive_secs, value};
use bytes::Bytes;
use netsim::GroupId;
use srm_transport::{
    Envelope, GroupMonitor, Mode, Node, NodeOptions, SoakOptions, StoreOptions, WallClock,
};
use srm::{LivenessConfig, PageId, SourceId, SrmConfig};
use std::io::Write as _;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: srm-node <join|send> --id N --bind ADDR (--peers A,B,.. | --mcast ADDR)
                [--group N] [--members N] [--text STRING]... [--duration SECS]
                [--trace FILE] [--trace-cap N] [--seed N] [--chaos SPEC]
                [--stats-file FILE] [--stats-addr ADDR] [--stats-interval F]
                [--store DIR] [--fsync always|never|every=N]
                [--store-cache N] [--snapshot-every N]
                [--batch N] [--pool N] [--quiet]
       srm-node monitor --bind ADDR [--mcast ADDR] [--group N] [--members N]
                [--duration SECS] [--refresh F] [--out FILE]
                [--suspect F] [--dead F] [--quiet]
       srm-node soak [--nodes N] [--secs F] [--adus N] [--chaos SPEC]
                [--seed N] [--settle F] [--group N] [--trace FILE]

  join        participate in the session (receive, request, repair)
  send        also multicast each --text as one ADU
  monitor     passively observe the group: derive per-member health from
              received session messages; never transmits a frame
  soak        run an in-process multi-node chaos soak and report invariants
  --id N      this member's source id (unique small integer, required)
  --bind A    local socket address, e.g. 127.0.0.1:7401 (required)
  --peers L   comma-separated peer addresses: loopback/unicast mesh mode
  --mcast A   base multicast group address, e.g. 239.66.66.0:7400
  --group N   SRM group id (default 1)
  --members N expected session size, sets timer constants (default 3)
  --duration  seconds to stay in the session (default 10)
  --trace F   write the obs timeline to F as JSONL on exit
  --seed N    timer + chaos RNG seed (default derived from --id)
  --drop-data N  force-drop this node's Nth outgoing DATA frame (0-based),
              to demo loss recovery on a clean network
  --chaos S   scripted chaos spec, e.g.
              loss=0.1,dup=0.05,reorder=0.2:40ms,burst=0.9@1s+2s,blackhole=2@1s+3s
              (blackhole peer indexes are 1-based into --peers)
  --quiet     do not print delivered ADUs (monitor: no health table)
  --trace-cap N     bound the in-memory trace ring to N events (default
              65536 when tracing; 0 = unbounded, the simulator's mode)
  --stats-file F    append a versioned metrics-snapshot JSONL line to F
              every --stats-interval seconds (flushed per line)
  --stats-addr A    send a Prometheus-style text exposition to UDP A
              every --stats-interval seconds
  --stats-interval  seconds between metric snapshots (default 1)
  --store DIR durable ADU store: log every ADU to a write-ahead log under
              DIR and rehydrate it on the next start, so a killed member
              restarts repair-capable (off by default)
  --fsync P   WAL fsync policy: always, never, or every=N (default every=8)
  --store-cache N   keep at most N payloads per stream in RAM; older
              repairs are served from the log (default: keep all resident)
  --snapshot-every N  compact the log every N appends (0 = never)
  --batch N   frames per recv/send syscall on the batched datapath
              (default 32; 0 forces the portable one-at-a-time backend)
  --pool N    receive/send buffer-pool slabs (default 64); more slabs
              absorb bigger floods before falling back to heap buffers
  Typing `quit` on stdin leaves the session early but cleanly: sinks
  drain and the WAL flushes before exit.
  monitor only:
  --refresh F render the group-health table (and append an --out line)
              every F seconds (default 1)
  --out F     append one monitor JSONL line per refresh to F
  --suspect F silence (in nominal session intervals) before a member is
              suspect (default 3)
  --dead F    silence before a member is dead (default 8)
  soak only:
  --nodes N   mesh size (default 3)
  --secs F    scripted phase seconds (default 6)
  --adus N    ADUs each member publishes (default 4)
  --settle F  post-heal recovery budget in seconds (default 30)
  --group N   multicast group the mesh runs on (default 1)";

struct Args {
    send_mode: bool,
    id: u64,
    bind: SocketAddr,
    mode: Mode,
    group: u32,
    members: usize,
    texts: Vec<String>,
    duration: f64,
    trace: Option<String>,
    trace_cap: Option<usize>,
    seed: Option<u64>,
    drop_data: Option<u64>,
    chaos: Option<String>,
    stats_file: Option<String>,
    stats_addr: Option<SocketAddr>,
    stats_interval: f64,
    store: Option<StoreOptions>,
    batch: Option<usize>,
    pool: Option<usize>,
    quiet: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("srm-node: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let send_mode = match cmd.as_str() {
        "join" => false,
        "send" => true,
        "monitor" => run_monitor(argv),
        "soak" => run_soak(argv),
        "-h" | "--help" => {
            println!("{USAGE}");
            std::process::exit(0);
        }
        other => die(&format!("unknown command {other:?}")),
    };
    let mut id = None;
    let mut bind = None;
    let mut peers: Option<Vec<SocketAddr>> = None;
    let mut mcast: Option<SocketAddr> = None;
    let mut group = 1u32;
    let mut members = 3usize;
    let mut texts = Vec::new();
    let mut duration = 10.0f64;
    let mut trace = None;
    let mut trace_cap = None;
    let mut seed = None;
    let mut drop_data = None;
    let mut chaos = None;
    let mut stats_file = None;
    let mut stats_addr = None;
    let mut stats_interval = 1.0f64;
    let mut store_dir: Option<String> = None;
    let mut fsync: Option<String> = None;
    let mut store_cache: Option<usize> = None;
    let mut snapshot_every: Option<u64> = None;
    let mut batch: Option<usize> = None;
    let mut pool: Option<usize> = None;
    let mut quiet = false;
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--id" => id = Some(value(&mut argv, "--id", "an integer")),
            "--bind" => bind = Some(value(&mut argv, "--bind", "host:port")),
            "--peers" => {
                let list = next(&mut argv, "--peers");
                let parsed: Result<Vec<SocketAddr>, _> =
                    list.split(',').map(|p| p.trim().parse()).collect();
                peers = Some(parsed.unwrap_or_else(|_| die("--peers must be host:port,host:port")));
            }
            "--mcast" => mcast = Some(value(&mut argv, "--mcast", "group-ip:port")),
            "--group" => group = value(&mut argv, "--group", "an integer"),
            "--members" => members = value(&mut argv, "--members", "an integer"),
            "--text" => texts.push(next(&mut argv, "--text")),
            "--duration" => duration = value(&mut argv, "--duration", "seconds"),
            "--trace" => trace = Some(next(&mut argv, "--trace")),
            "--trace-cap" => trace_cap = Some(value(&mut argv, "--trace-cap", "an integer")),
            "--stats-file" => stats_file = Some(next(&mut argv, "--stats-file")),
            "--stats-addr" => stats_addr = Some(value(&mut argv, "--stats-addr", "host:port")),
            "--stats-interval" => stats_interval = positive_secs(&mut argv, "--stats-interval"),
            "--seed" => seed = Some(value(&mut argv, "--seed", "an integer")),
            "--drop-data" => drop_data = Some(value(&mut argv, "--drop-data", "an integer")),
            "--chaos" => chaos = Some(next(&mut argv, "--chaos")),
            "--store" => store_dir = Some(next(&mut argv, "--store")),
            "--fsync" => fsync = Some(next(&mut argv, "--fsync")),
            "--store-cache" => store_cache = Some(at_least_one(&mut argv, "--store-cache")),
            "--snapshot-every" => snapshot_every = Some(value(&mut argv, "--snapshot-every", "an integer")),
            "--batch" => batch = Some(value(&mut argv, "--batch", "an integer")),
            "--pool" => pool = Some(at_least_one(&mut argv, "--pool")),
            "--quiet" => quiet = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    let id = id.unwrap_or_else(|| die("--id is required"));
    let bind = bind.unwrap_or_else(|| die("--bind is required"));
    let mode = match (peers, mcast) {
        (Some(p), None) => Mode::Mesh { peers: p },
        (None, Some(SocketAddr::V4(base))) => Mode::Multicast { base },
        (None, Some(_)) => die("--mcast must be an IPv4 group address"),
        (Some(_), Some(_)) => die("--peers and --mcast are mutually exclusive"),
        (None, None) => die("one of --peers or --mcast is required"),
    };
    if send_mode && texts.is_empty() {
        die("send needs at least one --text");
    }
    let store = match store_dir {
        Some(dir) => {
            let mut so = StoreOptions::new(dir);
            if let Some(p) = &fsync {
                so.config.fsync =
                    srm_store::FsyncPolicy::parse(p).unwrap_or_else(|e| die(&format!("--fsync: {e}")));
            }
            if let Some(n) = snapshot_every {
                // 0 disables snapshot-triggered compaction entirely.
                so.config.snapshot_every = (n > 0).then_some(n);
            }
            so.cache_per_stream = store_cache;
            Some(so)
        }
        None => {
            if fsync.is_some() || store_cache.is_some() || snapshot_every.is_some() {
                die("--fsync/--store-cache/--snapshot-every require --store DIR");
            }
            None
        }
    };
    Args {
        send_mode,
        id,
        bind,
        mode,
        group,
        members,
        texts,
        duration,
        trace,
        trace_cap,
        seed,
        drop_data,
        chaos,
        stats_file,
        stats_addr,
        stats_interval,
        store,
        batch,
        pool,
        quiet,
    }
}

/// Open `path` truncated for incremental appends, or die.
fn create_sink(path: &str) -> std::fs::File {
    std::fs::File::create(path).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

/// Parse the `monitor` subcommand's flags and run the passive observer:
/// receive, decode, feed the [`GroupMonitor`], never send.  Exits 0 after
/// `--duration` seconds (0 = run until killed).
fn run_monitor(mut argv: impl Iterator<Item = String>) -> ! {
    let mut bind: Option<SocketAddr> = None;
    let mut mcast: Option<SocketAddr> = None;
    let mut group = 1u32;
    let mut members = 3usize;
    let mut duration = 0.0f64;
    let mut refresh = 1.0f64;
    let mut out_path: Option<String> = None;
    let mut liveness = LivenessConfig::default();
    let mut quiet = false;
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--bind" => bind = Some(value(&mut argv, "--bind", "host:port")),
            "--mcast" => mcast = Some(value(&mut argv, "--mcast", "group-ip:port")),
            "--group" => group = value(&mut argv, "--group", "an integer"),
            "--members" => members = value(&mut argv, "--members", "an integer"),
            "--duration" => duration = value(&mut argv, "--duration", "seconds"),
            "--refresh" => refresh = positive_secs(&mut argv, "--refresh"),
            "--out" => out_path = Some(next(&mut argv, "--out")),
            "--suspect" => liveness.suspect_after = value(&mut argv, "--suspect", "a number"),
            "--dead" => liveness.dead_after = value(&mut argv, "--dead", "a number"),
            "--quiet" => quiet = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => die(&format!("unknown monitor flag {other:?}")),
        }
    }
    let bind = bind.unwrap_or_else(|| die("--bind is required"));
    let socket = UdpSocket::bind(bind).unwrap_or_else(|e| die(&format!("cannot bind {bind}: {e}")));
    if let Some(base) = mcast {
        let SocketAddr::V4(base) = base else { die("--mcast must be an IPv4 group address") };
        // Same group-id → group-address mapping the runtime uses.
        let ip = Ipv4Addr::from(u32::from(*base.ip()).wrapping_add(group));
        socket
            .join_multicast_v4(&ip, &Ipv4Addr::UNSPECIFIED)
            .unwrap_or_else(|e| die(&format!("cannot join {ip}: {e}")));
    }
    socket
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout is settable");

    let clock = WallClock::new();
    let cfg = SrmConfig::fixed(members);
    let mut mon = GroupMonitor::new(&cfg, liveness);
    let mut out = out_path.as_deref().map(create_sink);
    eprintln!(
        "srm-node: monitor on {bind} (group {group}), refresh {refresh:.1}s{}",
        if duration > 0.0 { format!(", running {duration:.1}s") } else { String::new() }
    );

    let started = Instant::now();
    let mut next_refresh = started + Duration::from_secs_f64(refresh);
    let mut buf = [0u8; 65_535];
    let mut decode_errors = 0u64;
    loop {
        match socket.recv_from(&mut buf) {
            Ok((n, _)) => match Envelope::decode(&buf[..n]) {
                Ok(env) if env.group == group => {
                    match srm::Message::decode(env.payload.clone()) {
                        Ok(msg) => {
                            if let Some(tr) = mon.observe(clock.now(), &msg) {
                                eprintln!("srm-node: monitor: m{} revived", tr.peer.0);
                            }
                        }
                        Err(_) => decode_errors += 1,
                    }
                }
                Ok(_) => {} // another group's traffic, not ours to judge
                Err(_) => decode_errors += 1,
            },
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => die(&format!("recv: {e}")),
        }
        if Instant::now() >= next_refresh {
            next_refresh += Duration::from_secs_f64(refresh);
            let now = clock.now();
            for tr in mon.sweep(now) {
                let state = match tr.to {
                    srm::PeerState::Alive => "alive",
                    srm::PeerState::Suspect => "suspect",
                    srm::PeerState::Dead => "dead",
                };
                eprintln!("srm-node: monitor: m{} -> {state}", tr.peer.0);
            }
            if !quiet {
                print!("{}", mon.render_table(now));
            }
            if let Some(f) = &mut out {
                // Append-and-flush per refresh so a kill loses at most one
                // interval.
                let line = mon.to_json_line(now);
                if writeln!(f, "{line}").and_then(|()| f.flush()).is_err() {
                    die("monitor --out: write failed");
                }
            }
        }
        if duration > 0.0 && started.elapsed() >= Duration::from_secs_f64(duration) {
            break;
        }
    }
    if decode_errors > 0 {
        eprintln!("srm-node: monitor: {decode_errors} undecodable datagram(s) ignored");
    }
    std::process::exit(0);
}

/// Parse the `soak` subcommand's flags, run the harness, print the report,
/// and exit (status 1 on any invariant violation).
fn run_soak(mut argv: impl Iterator<Item = String>) -> ! {
    let mut opts = SoakOptions::default();
    let mut trace_path: Option<String> = None;
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--nodes" => {
                opts.nodes = value(&mut argv, "--nodes", "an integer");
                if !(2..=16).contains(&opts.nodes) {
                    die("--nodes must be in 2..=16");
                }
            }
            "--secs" => {
                let secs: f64 = value(&mut argv, "--secs", "seconds");
                opts.duration = Duration::from_secs_f64(secs.max(0.1));
            }
            "--adus" => opts.adus_per_node = value(&mut argv, "--adus", "an integer"),
            "--chaos" => opts.chaos = next(&mut argv, "--chaos"),
            "--seed" => opts.seed = value(&mut argv, "--seed", "an integer"),
            "--settle" => {
                let secs: f64 = value(&mut argv, "--settle", "seconds");
                opts.settle = Duration::from_secs_f64(secs.max(0.0));
            }
            "--group" => opts.group = value(&mut argv, "--group", "a group id"),
            "--trace" => {
                trace_path = Some(next(&mut argv, "--trace"));
                opts.trace = true;
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => die(&format!("unknown soak flag {other:?}")),
        }
    }
    eprintln!(
        "srm-node: soak — {} nodes, {:.1}s scripted, chaos `{}`, seed {}",
        opts.nodes,
        opts.duration.as_secs_f64(),
        opts.chaos,
        opts.seed
    );
    let report = match srm_transport::soak::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("srm-node: soak failed to run: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.render());
    print!("{}", report.summary.render("chaos soak"));
    if let (Some(path), Some(tl)) = (trace_path, &report.timeline) {
        match std::fs::write(&path, tl.to_jsonl()) {
            Ok(()) => eprintln!("srm-node: trace: wrote {} events to {path}", tl.len()),
            Err(e) => {
                eprintln!("srm-node: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    std::process::exit(if report.violations().is_empty() { 0 } else { 1 });
}

/// Default in-memory trace ring when `--trace` is on and `--trace-cap` is
/// not given: enough for minutes of traffic, bounded against soaks.
const DEFAULT_TRACE_CAP: usize = 65_536;

fn main() {
    let args = parse_args();
    let source = SourceId(args.id);
    let cfg = SrmConfig::fixed(args.members);
    let mut opts = NodeOptions::new(source, GroupId(args.group), cfg);
    opts.trace = args.trace.is_some();
    if opts.trace {
        // 0 means unbounded — the simulator/golden mode.
        opts.trace_capacity = match args.trace_cap {
            Some(0) => None,
            Some(n) => Some(n),
            None => Some(DEFAULT_TRACE_CAP),
        };
    }
    let registry = (args.stats_file.is_some() || args.stats_addr.is_some())
        .then(obs::MetricsRegistry::new);
    opts.metrics = registry.clone();
    if let Some(s) = args.seed {
        opts.seed = s;
    }
    if let Some(spec) = &args.chaos {
        let peers = match &args.mode {
            Mode::Mesh { peers } => peers.clone(),
            Mode::Multicast { .. } => Vec::new(),
        };
        match srm_transport::parse_spec(spec, &peers) {
            Ok(plan) => opts.chaos = Some(plan),
            Err(e) => die(&format!("--chaos: {e}")),
        }
        // Chaos without liveness tracking hides half the story.
        opts.liveness = Some(srm::LivenessConfig::default());
    }
    if let Some(n) = args.drop_data {
        let plan = opts.chaos.take().unwrap_or_default();
        opts.chaos = Some(plan.drop_nth(netsim::flow::DATA, n));
    }
    opts.store = args.store.clone();
    apply_batch(&mut opts.batch, args.batch, args.pool);

    let node = match Node::spawn(args.bind, args.mode, opts) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("srm-node: cannot start on {}: {e}", args.bind);
            std::process::exit(1);
        }
    };
    eprintln!(
        "srm-node: member {} on {} (group {}), running {:.1}s",
        args.id, args.bind, args.group, args.duration
    );

    if args.send_mode {
        let page = PageId::new(source, 0);
        for t in &args.texts {
            let name = node.send_data(page, Bytes::from(t.clone().into_bytes()));
            eprintln!("srm-node: sent {name}");
        }
    }

    // Stats emitter: one line (and/or one UDP exposition) per interval,
    // flushed immediately so interruption loses at most one interval.
    let stats_stop = Arc::new(AtomicBool::new(false));
    let stats_thread = registry.clone().map(|reg| {
        let stop = Arc::clone(&stats_stop);
        let file_path = args.stats_file.clone();
        let sink_addr = args.stats_addr;
        let interval = Duration::from_secs_f64(args.stats_interval);
        std::thread::spawn(move || {
            let mut file = file_path.as_deref().map(create_sink);
            let sock = sink_addr.map(|_| {
                UdpSocket::bind("0.0.0.0:0").expect("ephemeral stats socket binds")
            });
            loop {
                let stopping = stop.load(Ordering::Relaxed);
                let snap = reg.snapshot();
                if let Some(f) = &mut file {
                    let _ = writeln!(f, "{}", snap.to_json_line()).and_then(|()| f.flush());
                }
                if let (Some(s), Some(addr)) = (&sock, sink_addr) {
                    let _ = s.send_to(snap.render_prometheus("srm").as_bytes(), addr);
                }
                if stopping {
                    // That snapshot was the final, post-shutdown one.
                    return;
                }
                // Sleep in short slices so shutdown emits promptly.
                let until = Instant::now() + interval;
                while Instant::now() < until && !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        })
    });

    let mut trace_sink = args.trace.as_deref().map(create_sink);
    let mut trace_events = 0usize;
    // Drain the reactor's trace rings into the file roughly once a second:
    // recovery events and transport events (the exec hands the agent the
    // reactor's, so chaos actions and errors are on disk mid-run too).
    let drain_trace = |node: &srm_transport::NodeHandle,
                           sink: &mut Option<std::fs::File>,
                           total: &mut usize| {
        let Some(f) = sink.as_mut() else { return };
        let (member, events, transport) =
            node.exec(|a, _| (a.id.0, a.obs.take_events(), a.transport_obs.take_events()));
        let mut tl = obs::Timeline::new();
        tl.add_member(member, events);
        tl.add_transport(member, transport);
        let jsonl = tl.to_jsonl();
        if jsonl.is_empty() {
            return;
        }
        *total += jsonl.lines().count();
        if write!(f, "{jsonl}").and_then(|()| f.flush()).is_err() {
            eprintln!("srm-node: trace write failed");
        }
    };

    // `quit` on stdin requests an orderly early exit: the main loop ends,
    // sinks drain, and shutdown flushes the WAL — nothing is lost. EOF
    // alone does NOT quit (scripts often run nodes with stdin closed), so
    // the reader thread just parks until the process exits.
    let quit = Arc::new(AtomicBool::new(false));
    {
        let quit = Arc::clone(&quit);
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            let mut line = String::new();
            loop {
                line.clear();
                match stdin.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        let cmd = line.trim();
                        if cmd.eq_ignore_ascii_case("quit") || cmd.eq_ignore_ascii_case("q") {
                            quit.store(true, Ordering::Relaxed);
                            return;
                        }
                        if !cmd.is_empty() {
                            eprintln!("srm-node: unknown stdin command {cmd:?} (try `quit`)");
                        }
                    }
                }
            }
        });
    }

    let deadline = Instant::now() + Duration::from_secs_f64(args.duration.max(0.0));
    let mut next_drain = Instant::now() + Duration::from_secs(1);
    // Joiners follow the first page they see (the whiteboard model): their
    // session messages then report that page's state, which both drives
    // the group's gap detection and gives a passive monitor its lag signal.
    let mut following = args.send_mode;
    while Instant::now() < deadline && !quit.load(Ordering::Relaxed) {
        for d in node.take_delivered() {
            if !following {
                following = true;
                let page = d.name.page;
                node.exec(move |a, _| a.set_current_page(page));
            }
            if !args.quiet {
                let text = String::from_utf8_lossy(&d.payload);
                let how = if d.via_repair { "repair" } else { "data" };
                println!("{} [{how}] {text}", d.name);
            }
        }
        if Instant::now() >= next_drain {
            next_drain += Duration::from_secs(1);
            drain_trace(&node, &mut trace_sink, &mut trace_events);
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    if quit.load(Ordering::Relaxed) {
        eprintln!("srm-node: quit — leaving the session cleanly");
    }
    // Final trace drain while the reactor still answers exec.
    drain_trace(&node, &mut trace_sink, &mut trace_events);
    let mut agent = node.shutdown();
    let m = &agent.metrics;
    eprintln!(
        "srm-node: done — data_sent={} requests_sent={} repairs_sent={} session_sent={}",
        m.data_sent, m.requests_sent, m.repairs_sent, m.session_sent
    );
    if let Some(ps) = agent.store().persistence_stats() {
        eprintln!(
            "srm-node: store — appends={} bytes={} fsyncs={} snapshots={} disk_reads={} segments={} live={}",
            ps.appends, ps.bytes_appended, ps.fsyncs, ps.snapshots, ps.reads, ps.segments, ps.live_records
        );
    }
    if let Some(f) = &mut trace_sink {
        // Whatever accumulated between the last drain and shutdown.
        let jsonl = srm_transport::harvest_timeline(std::slice::from_mut(&mut agent)).to_jsonl();
        trace_events += jsonl.lines().count();
        if write!(f, "{jsonl}").and_then(|()| f.flush()).is_err() {
            eprintln!("srm-node: trace write failed");
            std::process::exit(1);
        }
        eprintln!(
            "srm-node: trace: wrote {} events to {}",
            trace_events,
            args.trace.as_deref().unwrap_or("-")
        );
    }
    if let Some(t) = stats_thread {
        stats_stop.store(true, Ordering::Relaxed);
        let _ = t.join();
        eprintln!("srm-node: stats: final snapshot flushed");
    }
}
