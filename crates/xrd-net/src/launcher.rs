//! Launch real `xrd-netd` processes from a deployment manifest.
//!
//! [`launch_manifest`] turns a validated [`Manifest`] into a running
//! multi-process deployment: it runs the §6.1 key ceremony in-process,
//! writes each mix server's config (secrets + public bundle) to a
//! private scratch directory, spawns one OS process per declared
//! daemon, and collects the actual bound addresses from the daemons'
//! `LISTENING <addr>` lines — so `port 0` manifests work on any
//! machine.
//!
//! The result, a [`LaunchedCluster`], is the multi-process analogue of
//! [`crate::remote::LocalCluster`]: connect a coordinator with
//! [`LaunchedCluster::connect`], tear everything down with
//! [`LaunchedCluster::shutdown`] (a wire [`Frame::Shutdown`] per
//! daemon, escalating to SIGKILL only for processes that ignore it).
//!
//! # Supervision
//!
//! A manifest with `restart N` (N > 0) launches a **supervised**
//! cluster: every daemon gets durable on-disk state (a `--journal`
//! file per mix hop, a `--dir` store per mailbox shard) and a
//! supervisor thread watches the children.  A child that exits with a
//! failure status — a crash, a `kill -9` — is respawned from its
//! config + journal with exponential backoff, up to N times; a child
//! that exits cleanly (wire [`Frame::Shutdown`]) is left down.  The
//! supervisor publishes `supervisor.restarts` / `supervisor.crashes`
//! counters, scrapeable over the wire from a loopback stats listener
//! ([`LaunchedCluster::stats_addr`]) that serves the launcher
//! process's own metric registry.
//!
//! The scratch directory is created mode `0o700` (it holds server
//! secrets).  A clean [`LaunchedCluster::shutdown`] of a supervised
//! cluster scrubs the secret `*.cfg` files but keeps journals and
//! mailbox stores on disk for post-mortems; an unsupervised shutdown
//! (and `Drop` in every case) removes the whole directory.
//!
//! The launcher always spawns locally — for a multi-host manifest it
//! is run once per host, and each invocation can be restricted to
//! that host's processes.  See `docs/DEPLOYMENT.md` for the operator
//! walkthrough.

use std::collections::HashMap;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::RngCore;

use xrd_mixnet::chain_keys::{generate_chain_keys, rotate_inner_keys, ChainPublicKeys};
use xrd_topology::Topology;

use crate::codec::{encode_server_config, error_code, Frame};
use crate::conn::{Conn, NetError};
use crate::daemon::DaemonHandle;
use crate::manifest::{Manifest, ProcessSpec, Role};
use crate::remote::RemoteDeployment;

/// One spawned daemon process, where it is actually listening, and
/// everything the supervisor needs to respawn it in place.
struct ManagedProcess {
    child: Child,
    addr: SocketAddr,
    label: String,
    /// The `xrd-netd` binary this child was spawned from.
    program: PathBuf,
    /// Full argv (minus argv\[0\]), with `--listen` pinned to the
    /// actual bound address so a respawn rebinds the same port.
    args: Vec<String>,
    /// Times this process has been respawned after a crash.
    restarts: u32,
    /// Exited cleanly (wire `Shutdown`); the supervisor leaves it down.
    done: bool,
    /// Crashed with its restart budget exhausted; permanently down.
    dead: bool,
}

/// A running multi-process deployment spawned by [`launch_manifest`]:
/// every declared daemon as its own OS process, addresses resolved,
/// keys generated.  Dropping the cluster kills any process still
/// running; prefer [`LaunchedCluster::shutdown`] for a clean wire-level
/// stop.
pub struct LaunchedCluster {
    processes: Arc<Mutex<Vec<ManagedProcess>>>,
    /// Actual daemon addresses per chain, hop order.
    chain_addrs: Vec<Vec<SocketAddr>>,
    /// Every chain's public key bundle (round-0 inner keys active).
    chain_keys: Vec<ChainPublicKeys>,
    /// Actual mailbox shard addresses, shard order.
    mailbox_addrs: Vec<SocketAddr>,
    topo: Topology,
    config_dir: PathBuf,
    /// Per-process crash-restart budget (the manifest's `restart N`).
    restart_budget: u32,
    supervisor: Option<std::thread::JoinHandle<()>>,
    supervisor_stop: Arc<AtomicBool>,
    /// Loopback reactor serving this process's metric registry (so
    /// `supervisor.*` counters are wire-scrapeable like daemon stats).
    stats_daemon: Option<DaemonHandle>,
}

impl LaunchedCluster {
    /// Daemon processes running (mix hops + mailbox shards).
    pub fn n_processes(&self) -> usize {
        self.processes.lock().expect("launcher lock").len()
    }

    /// The deployment's topology (derived from the manifest seed).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Actual daemon addresses per chain, hop order.
    pub fn chain_addrs(&self) -> &[Vec<SocketAddr>] {
        &self.chain_addrs
    }

    /// Actual mailbox shard addresses, shard order.
    pub fn mailbox_addrs(&self) -> &[SocketAddr] {
        &self.mailbox_addrs
    }

    /// Labels of every managed process, spawn order (chaos harness
    /// hook: pick a victim by index).
    pub fn process_labels(&self) -> Vec<String> {
        self.processes
            .lock()
            .expect("launcher lock")
            .iter()
            .map(|p| p.label.clone())
            .collect()
    }

    /// Address of the launcher's loopback stats listener, if the
    /// cluster is supervised.  A wire [`Frame::StatsRequest`] here
    /// returns the launcher process's counters — including
    /// `supervisor.restarts` and `supervisor.crashes`.
    pub fn stats_addr(&self) -> Option<SocketAddr> {
        self.stats_daemon.as_ref().map(|d| d.addr())
    }

    /// Kill process `index` with SIGKILL — the chaos harness's crash
    /// injector.  The supervisor (if any) will observe the failure
    /// exit and respawn it from its on-disk config + journal.
    pub fn kill_process(&self, index: usize) {
        let mut procs = self.processes.lock().expect("launcher lock");
        let p = &mut procs[index];
        xrd_obs::warn!("launcher: killing {} (crash injection)", p.label);
        let _ = p.child.kill();
        // Reap it here (the supervisor still sees the cached status):
        // once this returns the process is gone, so an `await_live`
        // that follows can only be answered by its replacement.
        let _ = p.child.wait();
    }

    /// Wait until process `index` answers a wire [`Frame::Ping`]
    /// again, up to `timeout`.  Returns the time it took — the
    /// kill-to-liveness recovery latency — or `None` on timeout.
    ///
    /// Only the process the launcher has recorded counts: a
    /// replacement answers pings before the supervisor records it, and
    /// until then a [`LaunchedCluster::kill_process`] would still hit
    /// the one it replaced.
    pub fn await_live(&self, index: usize, timeout: Duration) -> Option<Duration> {
        let start = Instant::now();
        while start.elapsed() < timeout {
            let recorded = {
                let mut procs = self.processes.lock().expect("launcher lock");
                let p = &mut procs[index];
                matches!(p.child.try_wait(), Ok(None)).then_some(p.addr)
            };
            if let Some(mut conn) = recorded.and_then(|addr| Conn::connect(addr).ok()) {
                if conn.ping().is_ok() {
                    return Some(start.elapsed());
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        None
    }

    /// Connect a coordinator to the running cluster.  Supervised
    /// clusters get the crash-recovery retry policy: a refused
    /// connection during a round is a daemon mid-reincarnation, not a
    /// dead deployment.
    pub fn connect(&self) -> Result<RemoteDeployment, NetError> {
        let retry = if self.restart_budget > 0 {
            crate::coordinator::RetryPolicy::crash_recovery()
        } else {
            crate::coordinator::RetryPolicy::default()
        };
        self.connect_timeouts(crate::conn::ConnTimeouts::default(), retry)
    }

    /// Connect a coordinator with explicit deadlines.  Scale runs size
    /// the read ceiling to the population: a loaded mix hop stays
    /// legitimately silent for however long decrypting its whole batch
    /// takes, and on an oversubscribed host that can be minutes.
    pub fn connect_timeouts(
        &self,
        timeouts: crate::conn::ConnTimeouts,
        retry: crate::coordinator::RetryPolicy,
    ) -> Result<RemoteDeployment, NetError> {
        RemoteDeployment::connect_with(
            self.topo.clone(),
            self.chain_addrs.clone(),
            self.chain_keys.clone(),
            self.mailbox_addrs.clone(),
            timeouts,
            retry,
        )
    }

    /// Stop every daemon: a [`Frame::Shutdown`] over the wire, then up
    /// to five seconds for each process to exit on its own before it
    /// is killed.  Returns the number of processes that needed the
    /// kill.
    ///
    /// The supervisor (if any) is stopped *first*, so a shutting-down
    /// daemon is never mistaken for a crash and respawned.  On a
    /// supervised cluster the scratch directory's secret `*.cfg` files
    /// are scrubbed but journals and mailbox stores are retained; an
    /// unsupervised cluster removes the whole directory.
    pub fn shutdown(&mut self) -> usize {
        self.stop_supervisor();
        let mut procs = self.processes.lock().expect("launcher lock");
        for p in procs.iter_mut() {
            if p.done || p.dead {
                continue;
            }
            if let Ok(mut conn) = Conn::connect(p.addr) {
                let _ = conn.send(&Frame::Shutdown);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut killed = 0;
        for p in procs.iter_mut() {
            if p.done || p.dead {
                continue;
            }
            loop {
                match p.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        xrd_obs::warn!("launcher: {} ignored Shutdown; killing", p.label);
                        let _ = p.child.kill();
                        let _ = p.child.wait();
                        killed += 1;
                        break;
                    }
                }
            }
        }
        drop(procs);
        if let Some(mut stats) = self.stats_daemon.take() {
            stats.shutdown();
        }
        if self.restart_budget > 0 {
            scrub_configs(&self.config_dir);
        } else {
            let _ = std::fs::remove_dir_all(&self.config_dir);
        }
        killed
    }

    fn stop_supervisor(&mut self) {
        self.supervisor_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for LaunchedCluster {
    fn drop(&mut self) {
        self.stop_supervisor();
        let mut procs = self.processes.lock().expect("launcher lock");
        for p in procs.iter_mut() {
            if let Ok(None) = p.child.try_wait() {
                let _ = p.child.kill();
                let _ = p.child.wait();
            }
        }
        drop(procs);
        // Unconditional: journals only matter while the cluster could
        // still be revived, and leaking scratch dirs into /tmp is
        // worse than losing a post-mortem on an unclean drop.
        let _ = std::fs::remove_dir_all(&self.config_dir);
    }
}

/// Remove the secret config files (`*.cfg`) from the scratch
/// directory, leaving journals and mailbox stores in place.
fn scrub_configs(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "cfg") {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Spawn the deployment a manifest describes, using the `xrd-netd`
/// binary at `netd`.  `rng` seeds the key ceremony (every chain's
/// keys are generated here and written, per server, to a scratch
/// directory the cluster owns).
///
/// Mix daemons are spawned chain by chain in hop order.  Every spawn
/// blocks until the daemon announces `LISTENING <addr>`; a child that
/// exits without announcing aborts the launch (and tears down
/// everything already spawned).
///
/// A manifest with `restart N` (N > 0) additionally provisions durable
/// state (`--journal` per mix hop, `--dir` per mailbox shard) and
/// starts the supervisor thread described in the module docs.
pub fn launch_manifest<R: RngCore + ?Sized>(
    rng: &mut R,
    manifest: &Manifest,
    netd: &Path,
) -> std::io::Result<LaunchedCluster> {
    manifest
        .validate()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
    let topo = manifest.topology();
    let k = manifest.chain_len;
    let supervised = manifest.restart > 0;

    static LAUNCH_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let config_dir = std::env::temp_dir().join(format!(
        "xrd-launch-{}-{}",
        std::process::id(),
        LAUNCH_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    // The directory holds server secrets: owner-only from birth.
    #[cfg(unix)]
    {
        use std::os::unix::fs::DirBuilderExt;
        std::fs::DirBuilder::new()
            .recursive(true)
            .mode(0o700)
            .create(&config_dir)?;
    }
    #[cfg(not(unix))]
    std::fs::create_dir_all(&config_dir)?;

    // Index the manifest's processes by role coordinates.
    let mut mix_specs: HashMap<(usize, usize), &ProcessSpec> = HashMap::new();
    let mut shard_specs: HashMap<usize, &ProcessSpec> = HashMap::new();
    for p in &manifest.processes {
        match p.role {
            Role::Mix { chain, hop } => {
                mix_specs.insert((chain, hop), p);
            }
            Role::Mailbox { shard } => {
                shard_specs.insert(shard, p);
            }
        }
    }

    let mut cluster = LaunchedCluster {
        processes: Arc::new(Mutex::new(Vec::new())),
        chain_addrs: Vec::new(),
        chain_keys: Vec::new(),
        mailbox_addrs: Vec::new(),
        topo,
        config_dir: config_dir.clone(),
        restart_budget: manifest.restart,
        supervisor: None,
        supervisor_stop: Arc::new(AtomicBool::new(false)),
        stats_daemon: None,
    };

    // Key ceremony + mix daemons, chain by chain.
    for chain in 0..cluster.topo.n_chains() {
        let (mut secrets, mut public) = generate_chain_keys(rng, k, chain as u64);
        rotate_inner_keys(rng, &mut secrets, &mut public, 0);

        let mut addrs: Vec<SocketAddr> = Vec::with_capacity(k);
        for (hop, server_secrets) in secrets.into_iter().enumerate() {
            let spec = mix_specs[&(chain, hop)];
            let listen = manifest.addr_of(spec).expect("validated");
            let config_path = config_dir.join(format!("chain-{chain}-hop-{hop}.cfg"));
            std::fs::write(&config_path, encode_server_config(&server_secrets, &public))?;

            let label = format!("mix chain={chain} hop={hop}");
            let mut args = vec![
                "mix".to_string(),
                "--config".to_string(),
                config_path.display().to_string(),
                "--listen".to_string(),
                listen.to_string(),
            ];
            if supervised {
                args.push("--journal".to_string());
                args.push(
                    config_dir
                        .join(format!("chain-{chain}-hop-{hop}.journal"))
                        .display()
                        .to_string(),
                );
            }
            addrs.push(spawn_announced(&mut cluster, netd, args, &label)?);
        }
        cluster.chain_addrs.push(addrs);
        cluster.chain_keys.push(public);
    }

    // Mailbox shards.
    for shard in 0..manifest.n_shards {
        let spec = shard_specs[&shard];
        let listen = manifest.addr_of(spec).expect("validated");
        let label = format!("mailbox shard={shard}");
        let mut args = vec![
            "mailbox".to_string(),
            "--shard".to_string(),
            shard.to_string(),
            "--shards".to_string(),
            manifest.n_shards.to_string(),
            "--listen".to_string(),
            listen.to_string(),
        ];
        if supervised {
            let dir = config_dir.join(format!("mailbox-shard-{shard}"));
            std::fs::create_dir_all(&dir)?;
            args.push("--dir".to_string());
            args.push(dir.display().to_string());
        }
        let addr = spawn_announced(&mut cluster, netd, args, &label)?;
        cluster.mailbox_addrs.push(addr);
    }

    if supervised {
        cluster.stats_daemon = Some(crate::daemon::spawn_daemon(
            "127.0.0.1:0",
            crate::reactor::service_fn(|frame| {
                // Ping, StatsRequest and Shutdown are answered by the
                // reactor itself; nothing else is served here.
                crate::daemon::err(
                    error_code::UNSUPPORTED,
                    format!(
                        "launcher stats listener does not serve {}",
                        Frame::tag_name(frame.tag()).unwrap_or("unknown frame")
                    ),
                )
            }),
        )?);
        cluster.supervisor = Some(spawn_supervisor(
            Arc::clone(&cluster.processes),
            Arc::clone(&cluster.supervisor_stop),
            manifest.restart,
        ));
    }

    Ok(cluster)
}

/// Start the supervisor thread: reap exited children, leave clean
/// exits down, respawn crashes from their on-disk config + journal
/// with exponential backoff until the per-process budget runs out.
fn spawn_supervisor(
    processes: Arc<Mutex<Vec<ManagedProcess>>>,
    stop: Arc<AtomicBool>,
    budget: u32,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("xrd-supervisor".into())
        .spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                // Find one crashed child per sweep; the respawn (which
                // blocks on the announcement) runs outside the lock.
                let mut respawn: Option<(usize, PathBuf, Vec<String>, String, u32)> = None;
                {
                    let mut procs = processes.lock().expect("launcher lock");
                    for (i, p) in procs.iter_mut().enumerate() {
                        if p.done || p.dead {
                            continue;
                        }
                        let status = match p.child.try_wait() {
                            Ok(Some(status)) => status,
                            Ok(None) => continue,
                            Err(e) => {
                                xrd_obs::warn!("supervisor: wait({}) failed: {e}", p.label);
                                continue;
                            }
                        };
                        if status.success() {
                            // Wire Shutdown: deliberate, stays down.
                            p.done = true;
                            continue;
                        }
                        xrd_obs::counter!("supervisor.crashes").incr();
                        if p.restarts >= budget {
                            xrd_obs::warn!(
                                "supervisor: {} crashed ({status}); restart budget ({budget}) exhausted",
                                p.label
                            );
                            p.dead = true;
                            continue;
                        }
                        xrd_obs::warn!(
                            "supervisor: {} crashed ({status}); respawning (attempt {}/{budget})",
                            p.label,
                            p.restarts + 1
                        );
                        respawn = Some((
                            i,
                            p.program.clone(),
                            p.args.clone(),
                            p.label.clone(),
                            p.restarts,
                        ));
                        break;
                    }
                }
                let Some((i, program, args, label, prior)) = respawn else {
                    std::thread::sleep(Duration::from_millis(25));
                    continue;
                };
                // Exponential backoff: 50ms · 2^attempt, capped.
                let backoff = Duration::from_millis(50u64 << prior.min(6));
                std::thread::sleep(backoff);
                match spawn_process(&program, &args, &label) {
                    Ok((child, addr)) => {
                        xrd_obs::counter!("supervisor.restarts").incr();
                        let mut procs = processes.lock().expect("launcher lock");
                        let p = &mut procs[i];
                        p.child = child;
                        p.addr = addr;
                        p.restarts = prior + 1;
                    }
                    Err(e) => {
                        xrd_obs::warn!("supervisor: respawn of {label} failed: {e}");
                        let mut procs = processes.lock().expect("launcher lock");
                        procs[i].dead = true;
                    }
                }
            }
        })
        .expect("spawn supervisor thread")
}

/// Spawn one daemon process, register it with the cluster, and pin its
/// `--listen` argument to the actual bound address so a supervisor
/// respawn rebinds the same port.
fn spawn_announced(
    cluster: &mut LaunchedCluster,
    netd: &Path,
    mut args: Vec<String>,
    label: &str,
) -> std::io::Result<SocketAddr> {
    let (child, addr) = spawn_process(netd, &args, label)?;
    if let Some(pos) = args.iter().position(|a| a == "--listen") {
        args[pos + 1] = addr.to_string();
    }
    cluster
        .processes
        .lock()
        .expect("launcher lock")
        .push(ManagedProcess {
            child,
            addr,
            label: label.to_string(),
            program: netd.to_path_buf(),
            args,
            restarts: 0,
            done: false,
            dead: false,
        });
    Ok(addr)
}

/// Spawn one daemon process and block until it prints `LISTENING
/// <addr>`.  On any failure the already-running cluster is left to the
/// caller's `Drop` (which kills it).
fn spawn_process(
    program: &Path,
    args: &[String],
    label: &str,
) -> std::io::Result<(Child, SocketAddr)> {
    let mut child = Command::new(program)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .stdin(Stdio::null())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(rest) = line.strip_prefix("LISTENING ") {
                    match rest.trim().parse::<SocketAddr>() {
                        Ok(addr) => break addr,
                        Err(e) => {
                            let _ = child.kill();
                            let _ = child.wait();
                            return Err(std::io::Error::other(format!(
                                "{label}: unparseable announcement `{line}`: {e}"
                            )));
                        }
                    }
                }
            }
            Some(Err(e)) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other(format!(
                    "{label}: reading announcement: {e}"
                )));
            }
            None => {
                let status = child.wait();
                return Err(std::io::Error::other(format!(
                    "{label}: exited before announcing its address ({status:?})"
                )));
            }
        }
    };
    // Keep draining the child's stdout so it never blocks on a full
    // pipe (daemons are quiet after the announcement, but stay safe).
    std::thread::spawn(move || for _line in lines {});
    Ok((child, addr))
}
