//! Deployment manifests: a parsed, validated description of where
//! every daemon of an XRD deployment runs — hosts, processes, chain
//! and hop placement, mailbox shards and listen ports — in a
//! line-based text format an operator can write by hand and a launcher
//! ([`crate::launcher::launch_manifest`]) can spawn real processes
//! from.
//!
//! # Format
//!
//! One directive per line; `#` starts a comment; blank lines are
//! ignored.
//!
//! ```text
//! # header — deployment shape (must come first)
//! seed 42
//! servers 4
//! faults 0.2
//! chain-len 3
//! shards 2
//!
//! # hosts — a name and an IP address each
//! host alpha 127.0.0.1
//! host beta  127.0.0.1
//!
//! # processes — one daemon each
//! process mix chain=0 hop=0 host=alpha port=7100
//! process mix chain=0 hop=1 host=alpha port=7101
//! process mix chain=0 hop=2 host=beta  port=7102
//! process mailbox shard=0 host=alpha port=7200
//! ```
//!
//! The *placement* is not free-form: chain membership is derived from
//! the `seed` through the same beacon-driven [`Topology`] every
//! deployment uses (§4), so validation rejects any manifest whose
//! process list does not cover exactly the chains/hops/shards the
//! header implies.  `port 0` asks the launcher for an OS-assigned
//! port (the daemon announces the real one); fixed ports are checked
//! for duplicates per host address.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::net::{IpAddr, SocketAddr};

use xrd_topology::{Beacon, Topology};

/// A named machine in the deployment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Host {
    /// The manifest-local name processes refer to.
    pub name: String,
    /// The address daemons on this host bind (and are dialed at).
    pub addr: IpAddr,
}

/// What one process serves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Role {
    /// One mix hop of one chain.
    Mix {
        /// Chain index (into the seed-derived topology's chains).
        chain: usize,
        /// Hop position within the chain, `0..chain_len`.
        hop: usize,
    },
    /// One mailbox shard.
    Mailbox {
        /// Shard index, `0..shards`.
        shard: usize,
    },
}

/// One daemon process: a role pinned to a host and port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessSpec {
    /// What the process serves.
    pub role: Role,
    /// Name of the declared [`Host`] it runs on.
    pub host: String,
    /// Listen port; `0` asks the launcher for an OS-assigned port.
    pub port: u16,
}

/// A parsed, validated deployment manifest.
///
/// Construct with [`Manifest::parse`] (which validates) or
/// [`Manifest::single_host`] (which generates a valid one); mutate
/// freely and re-check with [`Manifest::validate`].  [`fmt::Display`]
/// serializes back to the text format, and
/// `Manifest::parse(&m.to_string())` round-trips exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Beacon seed the topology (chain membership) derives from.
    pub seed: u64,
    /// Mix servers in the deployment (the topology draws chains from
    /// these).
    pub n_servers: usize,
    /// Assumed malicious-server fraction `f` (sizes the chains'
    /// honesty guarantee, §4).
    pub f: f64,
    /// Hops per chain, `k`.
    pub chain_len: usize,
    /// Mailbox shards.
    pub n_shards: usize,
    /// Crash-restart budget per daemon process: how many times the
    /// launcher's supervisor will respawn a crashed daemon before
    /// declaring it dead.  `0` (the default) disables supervision —
    /// daemons run unjournaled and a crash is permanent, the
    /// pre-supervision behavior.
    pub restart: u32,
    /// Declared machines.
    pub hosts: Vec<Host>,
    /// Declared daemon processes.
    pub processes: Vec<ProcessSpec>,
}

/// Why a manifest failed to parse or validate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based source line, when the failure is tied to one.
    pub line: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl ManifestError {
    fn at(line: usize, message: impl Into<String>) -> ManifestError {
        ManifestError {
            line: Some(line),
            message: message.into(),
        }
    }

    fn global(message: impl Into<String>) -> ManifestError {
        ManifestError {
            line: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for ManifestError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(out, "manifest line {n}: {}", self.message),
            None => write!(out, "manifest: {}", self.message),
        }
    }
}

impl std::error::Error for ManifestError {}

impl Manifest {
    /// Parse and validate a manifest from its text form.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let mut seed: Option<u64> = None;
        let mut n_servers: Option<usize> = None;
        let mut f: Option<f64> = None;
        let mut chain_len: Option<usize> = None;
        let mut n_shards: Option<usize> = None;
        let mut restart: u32 = 0;
        let mut hosts: Vec<Host> = Vec::new();
        let mut processes: Vec<ProcessSpec> = Vec::new();

        for (i, raw) in text.lines().enumerate() {
            let n = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let directive = words.next().expect("non-empty line has a first word");
            match directive {
                "seed" => seed = Some(parse_value(n, "seed", words.next())?),
                "servers" => n_servers = Some(parse_value(n, "servers", words.next())?),
                "faults" => f = Some(parse_value(n, "faults", words.next())?),
                "chain-len" => chain_len = Some(parse_value(n, "chain-len", words.next())?),
                "shards" => n_shards = Some(parse_value(n, "shards", words.next())?),
                "restart" => restart = parse_value(n, "restart", words.next())?,
                "host" => {
                    let name = words
                        .next()
                        .ok_or_else(|| ManifestError::at(n, "host needs a name"))?;
                    let addr: IpAddr = parse_value(n, "host address", words.next())?;
                    hosts.push(Host {
                        name: name.to_string(),
                        addr,
                    });
                }
                "process" => processes.push(parse_process(n, &mut words)?),
                other => {
                    return Err(ManifestError::at(n, format!("unknown directive `{other}`")));
                }
            }
            if let Some(extra) = words.next() {
                return Err(ManifestError::at(n, format!("trailing `{extra}`")));
            }
        }

        let manifest = Manifest {
            seed: seed.ok_or_else(|| ManifestError::global("missing `seed`"))?,
            n_servers: n_servers.ok_or_else(|| ManifestError::global("missing `servers`"))?,
            f: f.ok_or_else(|| ManifestError::global("missing `faults`"))?,
            chain_len: chain_len.ok_or_else(|| ManifestError::global("missing `chain-len`"))?,
            n_shards: n_shards.ok_or_else(|| ManifestError::global("missing `shards`"))?,
            restart,
            hosts,
            processes,
        };
        manifest.validate()?;
        Ok(manifest)
    }

    /// Generate the manifest of a complete single-host deployment:
    /// every daemon the header implies on `addr`, mix hops at
    /// `base_port`, `base_port + 1`, … then mailbox shards (all ports
    /// `0` — OS-assigned — when `base_port` is `0`).
    // One parameter per manifest header field, deliberately.
    #[allow(clippy::too_many_arguments)]
    pub fn single_host(
        name: &str,
        addr: IpAddr,
        seed: u64,
        n_servers: usize,
        f: f64,
        chain_len: usize,
        n_shards: usize,
        base_port: u16,
    ) -> Manifest {
        let beacon = Beacon::from_u64(seed);
        let topo = Topology::build_with(&beacon, 0, n_servers, n_servers, chain_len, f);
        let mut next_port = base_port;
        let mut port = move || {
            if base_port == 0 {
                0
            } else {
                let p = next_port;
                next_port += 1;
                p
            }
        };
        let mut processes = Vec::new();
        for chain in 0..topo.n_chains() {
            for hop in 0..chain_len {
                processes.push(ProcessSpec {
                    role: Role::Mix { chain, hop },
                    host: name.to_string(),
                    port: port(),
                });
            }
        }
        for shard in 0..n_shards {
            processes.push(ProcessSpec {
                role: Role::Mailbox { shard },
                host: name.to_string(),
                port: port(),
            });
        }
        Manifest {
            seed,
            n_servers,
            f,
            chain_len,
            n_shards,
            restart: 0,
            hosts: vec![Host {
                name: name.to_string(),
                addr,
            }],
            processes,
        }
    }

    /// The topology the header implies — the same beacon-driven chain
    /// formation every deployment runs, so a manifest-launched cluster
    /// and `Deployment::new` agree on who serves which chain.
    pub fn topology(&self) -> Topology {
        let beacon = Beacon::from_u64(self.seed);
        Topology::build_with(
            &beacon,
            0,
            self.n_servers,
            self.n_servers,
            self.chain_len,
            self.f,
        )
    }

    /// The declared address of the host `name`, if declared.
    pub fn host_addr(&self, name: &str) -> Option<IpAddr> {
        self.hosts.iter().find(|h| h.name == name).map(|h| h.addr)
    }

    /// The declared listen address of a process (port may be `0`).
    pub fn addr_of(&self, process: &ProcessSpec) -> Option<SocketAddr> {
        self.host_addr(&process.host)
            .map(|ip| SocketAddr::new(ip, process.port))
    }

    /// Declared daemon addresses per chain, hop order.  Only
    /// meaningful on a validated manifest with fixed (nonzero) ports.
    pub fn chain_addrs(&self) -> Vec<Vec<SocketAddr>> {
        let topo = self.topology();
        let mut addrs = vec![vec![None; self.chain_len]; topo.n_chains()];
        for p in &self.processes {
            if let Role::Mix { chain, hop } = p.role {
                addrs[chain][hop] = self.addr_of(p);
            }
        }
        addrs
            .into_iter()
            .map(|chain| chain.into_iter().map(|a| a.expect("validated")).collect())
            .collect()
    }

    /// Declared mailbox shard addresses, shard order.  Only meaningful
    /// on a validated manifest with fixed (nonzero) ports.
    pub fn mailbox_addrs(&self) -> Vec<SocketAddr> {
        let mut addrs = vec![None; self.n_shards];
        for p in &self.processes {
            if let Role::Mailbox { shard } = p.role {
                addrs[shard] = self.addr_of(p);
            }
        }
        addrs.into_iter().map(|a| a.expect("validated")).collect()
    }

    /// Check every invariant the launcher (and the protocol) relies
    /// on; [`Manifest::parse`] calls this, so a parsed manifest is
    /// always valid.
    ///
    /// * header sanity: at least one server, `chain_len ≥ 1` and
    ///   `≤ servers`, at least one shard, `f` in `[0, 1)`;
    /// * hosts: names unique and non-empty;
    /// * processes: every referenced host declared; no two processes
    ///   on the same declared address (fixed ports only — port `0` is
    ///   OS-assigned and cannot collide);
    /// * placement: every chain of the seed-derived topology has
    ///   exactly one process per hop `0..chain_len`, every shard
    ///   exactly one owner, and nothing outside those ranges.
    pub fn validate(&self) -> Result<(), ManifestError> {
        if self.n_servers == 0 {
            return Err(ManifestError::global("needs at least one server"));
        }
        if self.chain_len == 0 || self.chain_len > self.n_servers {
            return Err(ManifestError::global(format!(
                "chain-len {} must be in 1..={} (servers)",
                self.chain_len, self.n_servers
            )));
        }
        if self.n_shards == 0 {
            return Err(ManifestError::global("needs at least one mailbox shard"));
        }
        if !(0.0..1.0).contains(&self.f) {
            return Err(ManifestError::global(format!(
                "faults {} must be in [0, 1)",
                self.f
            )));
        }

        let mut names = HashSet::new();
        for host in &self.hosts {
            if host.name.is_empty() {
                return Err(ManifestError::global("empty host name"));
            }
            if !names.insert(host.name.as_str()) {
                return Err(ManifestError::global(format!(
                    "duplicate host `{}`",
                    host.name
                )));
            }
        }

        let mut bound: HashMap<SocketAddr, String> = HashMap::new();
        for p in &self.processes {
            let Some(addr) = self.addr_of(p) else {
                return Err(ManifestError::global(format!(
                    "process references undeclared host `{}`",
                    p.host
                )));
            };
            if p.port != 0 {
                if let Some(prev) = bound.insert(addr, describe(p)) {
                    return Err(ManifestError::global(format!(
                        "{} and {} both bind {addr}",
                        prev,
                        describe(p)
                    )));
                }
            }
        }

        // Placement: exactly the topology's chains × hops and the
        // header's shards, each exactly once.
        let topo = self.topology();
        let mut hops: HashMap<(usize, usize), usize> = HashMap::new();
        let mut shards: HashMap<usize, usize> = HashMap::new();
        for p in &self.processes {
            match p.role {
                Role::Mix { chain, hop } => *hops.entry((chain, hop)).or_default() += 1,
                Role::Mailbox { shard } => *shards.entry(shard).or_default() += 1,
            }
        }
        for chain in 0..topo.n_chains() {
            for hop in 0..self.chain_len {
                match hops.remove(&(chain, hop)) {
                    Some(1) => {}
                    Some(n) => {
                        return Err(ManifestError::global(format!(
                            "chain {chain} hop {hop} declared {n} times"
                        )));
                    }
                    None => {
                        return Err(ManifestError::global(format!(
                            "chain {chain} hop {hop} has no process"
                        )));
                    }
                }
            }
        }
        if let Some(((chain, hop), _)) = hops.into_iter().next() {
            return Err(ManifestError::global(format!(
                "process for chain {chain} hop {hop} outside the topology \
                 ({} chains × {} hops)",
                topo.n_chains(),
                self.chain_len
            )));
        }
        for shard in 0..self.n_shards {
            match shards.remove(&shard) {
                Some(1) => {}
                Some(n) => {
                    return Err(ManifestError::global(format!(
                        "shard {shard} declared {n} times"
                    )));
                }
                None => {
                    return Err(ManifestError::global(format!("shard {shard} has no owner")));
                }
            }
        }
        if let Some((shard, _)) = shards.into_iter().next() {
            return Err(ManifestError::global(format!(
                "shard {shard} outside 0..{}",
                self.n_shards
            )));
        }

        Ok(())
    }
}

/// Short human label for a process, for error messages.
fn describe(p: &ProcessSpec) -> String {
    match p.role {
        Role::Mix { chain, hop } => format!("mix chain={chain} hop={hop}"),
        Role::Mailbox { shard } => format!("mailbox shard={shard}"),
    }
}

/// Parse one `key value` header word.
fn parse_value<T: std::str::FromStr>(
    line: usize,
    what: &str,
    word: Option<&str>,
) -> Result<T, ManifestError> {
    let word = word.ok_or_else(|| ManifestError::at(line, format!("{what} needs a value")))?;
    word.parse()
        .map_err(|_| ManifestError::at(line, format!("bad {what} `{word}`")))
}

/// Parse the `key=value` tail of a `process` line.
fn parse_process<'a>(
    line: usize,
    words: impl Iterator<Item = &'a str>,
) -> Result<ProcessSpec, ManifestError> {
    let mut words = words;
    let kind = words
        .next()
        .ok_or_else(|| ManifestError::at(line, "process needs a kind (mix | mailbox)"))?;
    let mut fields: HashMap<&str, &str> = HashMap::new();
    for word in words {
        let (key, value) = word
            .split_once('=')
            .ok_or_else(|| ManifestError::at(line, format!("expected key=value, got `{word}`")))?;
        if fields.insert(key, value).is_some() {
            return Err(ManifestError::at(line, format!("duplicate `{key}=`")));
        }
    }
    let mut take = |key: &str| fields.remove(key);
    let host = take("host")
        .ok_or_else(|| ManifestError::at(line, "process needs host="))?
        .to_string();
    let port: u16 = parse_value(line, "port", take("port"))?;
    let role = match kind {
        "mix" => Role::Mix {
            chain: parse_value(line, "chain", take("chain"))?,
            hop: parse_value(line, "hop", take("hop"))?,
        },
        "mailbox" => Role::Mailbox {
            shard: parse_value(line, "shard", take("shard"))?,
        },
        other => {
            return Err(ManifestError::at(
                line,
                format!("unknown process kind `{other}`"),
            ));
        }
    };
    if let Some(key) = fields.into_keys().next() {
        return Err(ManifestError::at(line, format!("unknown field `{key}=`")));
    }
    Ok(ProcessSpec { role, host, port })
}

impl fmt::Display for Manifest {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(out, "seed {}", self.seed)?;
        writeln!(out, "servers {}", self.n_servers)?;
        writeln!(out, "faults {}", self.f)?;
        writeln!(out, "chain-len {}", self.chain_len)?;
        writeln!(out, "shards {}", self.n_shards)?;
        if self.restart > 0 {
            writeln!(out, "restart {}", self.restart)?;
        }
        for host in &self.hosts {
            writeln!(out, "host {} {}", host.name, host.addr)?;
        }
        for p in &self.processes {
            match &p.role {
                Role::Mix { chain, hop } => {
                    writeln!(
                        out,
                        "process mix chain={chain} hop={hop} host={} port={}",
                        p.host, p.port
                    )?;
                }
                Role::Mailbox { shard } => {
                    writeln!(
                        out,
                        "process mailbox shard={shard} host={} port={}",
                        p.host, p.port
                    )?;
                }
            }
        }
        Ok(())
    }
}
