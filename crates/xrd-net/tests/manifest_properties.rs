//! Deployment-manifest property tests: the text format round-trips
//! exactly, and validation rejects the misconfigurations that would
//! otherwise surface as a mis-wired cluster at launch time —
//! duplicate bindings, placement holes, unknown fields.

use proptest::prelude::*;

use std::net::IpAddr;

use xrd_net::Manifest;

/// A generated single-host manifest, every knob derived from one
/// 64-bit generator seed (the vendored proptest has no tuple
/// strategies).
fn arb(x: u64) -> Manifest {
    let mut s = x;
    let mut next = move || {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let seed = next();
    let n_servers = 1 + (next() % 6) as usize;
    let chain_len = (1 + (next() % 4) as usize).min(n_servers);
    let n_shards = 1 + (next() % 3) as usize;
    // A third of the manifests use OS-assigned ports (0), the rest a
    // fixed ladder from 7100 up.
    let base_port = if next() % 3 == 0 {
        0
    } else {
        7100 + (next() % 50_000) as u16
    };
    let f = (next() % 1000) as f64 / 1000.0;
    let mut m = Manifest::single_host(
        "alpha",
        IpAddr::from([127, 0, 0, 1]),
        seed,
        n_servers,
        f,
        chain_len,
        n_shards,
        base_port,
    );
    // A third of the manifests enable supervision (the `restart`
    // directive); 0 is the implicit default and stays off the wire.
    m.restart = (next() % 3) as u32;
    m
}

/// `m`'s text with `successor=ADDR` appended to one mix line — a last
/// hop's or another's, as `last_hop` says, `pick` choosing which — and
/// that line's number.
fn with_successor(m: &Manifest, last_hop: bool, pick: u64, addr: &str) -> (String, usize) {
    let mut lines: Vec<String> = m.to_string().lines().map(str::to_string).collect();
    let hop_of = |line: &str| -> Option<usize> {
        let fields = line.strip_prefix("process mix ")?;
        fields
            .split(' ')
            .find_map(|w| w.strip_prefix("hop="))?
            .parse()
            .ok()
    };
    let candidates: Vec<usize> = (0..lines.len())
        .filter(|&i| hop_of(&lines[i]).is_some_and(|hop| (hop + 1 == m.chain_len) == last_hop))
        .collect();
    let at = candidates[pick as usize % candidates.len()];
    lines[at].push_str(&format!(" successor={addr}"));
    (lines.join("\n"), at + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Display` then `parse` reproduces the manifest exactly.
    #[test]
    fn display_parse_roundtrips(gen in any::<u64>()) {
        let m = arb(gen);
        prop_assert!(m.validate().is_ok());

        let text = m.to_string();
        let parsed = Manifest::parse(&text).expect("generated manifest parses");
        prop_assert_eq!(parsed, m);
    }

    /// Comments, blank lines and stray horizontal whitespace never
    /// change what a manifest means.
    #[test]
    fn comments_and_whitespace_are_ignored(gen in any::<u64>(), salt in any::<u64>()) {
        let m = arb(gen);
        let mut text = String::from("# generated by a test\n\n");
        for (i, line) in m.to_string().lines().enumerate() {
            if (salt >> (i % 60)) & 1 == 1 {
                text.push_str(&format!("  {line}   # trailing note {i}\n\n"));
            } else {
                text.push_str(line);
                text.push('\n');
            }
        }
        let parsed = Manifest::parse(&text).expect("decorated manifest parses");
        prop_assert_eq!(parsed, m);
    }

    /// Two processes declaring the same fixed host:port are rejected.
    /// (Port 0 is OS-assigned and can never collide.)
    #[test]
    fn duplicate_fixed_ports_rejected(gen in any::<u64>(), pick_a in any::<u64>(), pick_b in any::<u64>()) {
        let mut m = arb(gen);
        prop_assume!(m.processes.len() >= 2);
        // Force fixed, colliding ports on two distinct processes.
        let a = pick_a as usize % m.processes.len();
        let b = {
            let step = 1 + pick_b as usize % (m.processes.len() - 1);
            (a + step) % m.processes.len()
        };
        m.processes[a].port = 7777;
        m.processes[b].port = 7777;
        let err = m.validate().expect_err("duplicate binding must fail");
        prop_assert!(err.message.contains("both bind"), "got: {}", err.message);
    }

    /// A `successor=` naming an address nothing declares is refused at
    /// its line — as every `successor=` is: hops do not send batches to
    /// each other, so the key is unknown.
    #[test]
    fn dangling_successor_rejected(gen in any::<u64>(), pick in any::<u64>()) {
        let m = arb(gen);
        prop_assume!(m.chain_len >= 2);
        let (text, line) = with_successor(&m, false, pick, "203.0.113.9:19");
        let err = Manifest::parse(&text).expect_err("a successor= line must fail");
        prop_assert_eq!(err.line, Some(line));
        prop_assert_eq!(err.message, "unknown field `successor=`");
    }

    /// A `successor=` on a chain's last hop is refused at its line the
    /// same way.
    #[test]
    fn successor_on_last_hop_rejected(gen in any::<u64>(), pick in any::<u64>()) {
        let m = arb(gen);
        let (text, line) = with_successor(&m, true, pick, "127.0.0.1:7100");
        let err = Manifest::parse(&text).expect_err("a successor= line must fail");
        prop_assert_eq!(err.line, Some(line));
        prop_assert_eq!(err.message, "unknown field `successor=`");
    }

    /// Placement is exact: removing any process leaves a hole
    /// (un-served hop or ownerless shard), duplicating any process
    /// double-declares it — both rejected.
    #[test]
    fn placement_must_cover_exactly(gen in any::<u64>(), pick in any::<u64>()) {
        let m = arb(gen);
        let i = pick as usize % m.processes.len();

        let mut holed = m.clone();
        holed.processes.remove(i);
        let err = holed.validate().expect_err("hole must fail");
        prop_assert!(
            err.message.contains("has no process") || err.message.contains("has no owner"),
            "got: {}",
            err.message
        );

        let mut doubled = m.clone();
        let mut dup = doubled.processes[i].clone();
        dup.port = 0; // avoid a duplicate *binding* masking the placement error
        doubled.processes.push(dup);
        if doubled.processes[i].port != 0 {
            doubled.processes[i].port = 0;
        }
        let err = doubled.validate().expect_err("double declaration must fail");
        prop_assert!(err.message.contains("declared 2 times"), "got: {}", err.message);
    }
}

#[test]
fn missing_header_fields_rejected() {
    let err = Manifest::parse("servers 4\nchain-len 3\nshards 1\nfaults 0.2\n")
        .expect_err("missing seed");
    assert!(err.message.contains("seed"), "got: {}", err.message);
}

#[test]
fn undeclared_host_rejected() {
    let m = Manifest::single_host("alpha", IpAddr::from([127, 0, 0, 1]), 1, 1, 0.0, 1, 1, 7100);
    let mut broken = m;
    broken.processes[0].host = "ghost".into();
    let err = broken.validate().expect_err("undeclared host");
    assert!(
        err.message.contains("undeclared host"),
        "got: {}",
        err.message
    );
}

#[test]
fn trailing_words_and_unknown_directives_rejected() {
    assert!(Manifest::parse("seed 1 extra\n").is_err());
    assert!(Manifest::parse("warp-drive on\n").is_err());
    assert!(Manifest::parse("process mix chain=0 hop=0 host=a port=1 warp=9\n").is_err());

    // A mix process naming its successor — a manifest written when hops
    // could forward to each other — is refused at its line, not read
    // as something else.
    let m = Manifest::single_host("alpha", IpAddr::from([127, 0, 0, 1]), 1, 3, 0.2, 3, 1, 7100);
    let next_hop = m.chain_addrs()[0][1];
    let mut lines: Vec<String> = m.to_string().lines().map(str::to_string).collect();
    let at = (lines.iter())
        .position(|l| l.starts_with("process mix chain=0 hop=0 "))
        .expect("hop 0 of chain 0 is declared");
    lines[at].push_str(&format!(" successor={next_hop}"));
    let err = Manifest::parse(&lines.join("\n")).expect_err("successor= is no field");
    assert_eq!(err.line, Some(at + 1));
    assert_eq!(err.message, "unknown field `successor=`");
}
