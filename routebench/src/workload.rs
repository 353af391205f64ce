//! The three workloads: configuration text and frames, all derived from
//! the seed. The program under test only ever sees the generated inputs.
//!
//! Why each workload exists and which layer it loads is recorded in
//! `README.md` next to this crate.

use click_bench::harness::{destination_stream, Lcg};
use click_bench::tables_bench::synthetic_bgp_prefixes;
use click_elements::headers::{ip_to_string, ipv4};
use click_elements::ip_router::{test_packet_flow, IpRouterSpec};

/// Interfaces of the Figure-1 router every workload runs.
pub const N_IFACES: usize = 4;
/// The one ingress device; every frame enters here.
pub const RX_DEV: &str = "eth0";
/// Byte offset of the sequence number stamped into each frame: the
/// first UDP payload byte (Ethernet 14 + IPv4 20 + UDP 8).
pub const SEQ_OFFSET: usize = 42;
/// Bytes a frame occupies on the wire beyond its buffer (the FCS).
const FCS: usize = 4;

/// Which of the three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Figure-1 router, serial compiled engine, pcap RX.
    Fig1Pcap,
    /// Figure-1 router plus a 1,000-rule ACL and a 100k-route table,
    /// serial compiled engine, memory RX.
    AclBgp,
    /// Figure-1 router on one worker shard, with hot swaps and
    /// checkpoint cuts on a fixed schedule, memory RX.
    ShardedChurn,
}

impl Kind {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "fig1-pcap" => Some(Kind::Fig1Pcap),
            "acl-bgp" => Some(Kind::AclBgp),
            "fig1-sharded-churn" => Some(Kind::ShardedChurn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig1Pcap => "fig1-pcap",
            Kind::AclBgp => "acl-bgp",
            Kind::ShardedChurn => "fig1-sharded-churn",
        }
    }
}

/// Where the ingress frames come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A pcap file generated into the run's scratch directory.
    Pcap,
    /// Frames queued into the repository's in-memory backend.
    Mem,
}

/// The control-plane schedule of `fig1-sharded-churn`, in frames offered.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// A hot swap every this many frames.
    pub swap_every: u64,
    /// A checkpoint cut every this many frames.
    pub ckpt_every: u64,
}

/// Everything one workload needs, generated from the seed.
pub struct Workload {
    /// The unoptimized configuration text (also the reference config).
    pub base: String,
    /// One pass of frames, sequence numbers `0..frames.len()`.
    pub frames: Vec<Vec<u8>>,
    /// How many leading frames the unoptimized reference run covers.
    pub reference_frames: usize,
    /// Ingress source.
    pub source: Source,
    /// Offered rate of the paced phase, frames per second. About half
    /// the saturation rate measured on a 2-CPU host at the commit that
    /// introduced the benchmark, so a healthy router keeps up.
    pub paced_pps: f64,
    /// Control-plane schedule (`fig1-sharded-churn` only).
    pub churn: Option<Churn>,
    /// The route table's prefixes, for the standalone lookup probe.
    pub routes: Vec<(u32, u8)>,
}

impl Workload {
    /// Generates the workload from its seed.
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let spec = IpRouterSpec::standard(N_IFACES);
        let connected: Vec<(u32, u8)> = spec
            .interfaces
            .iter()
            .map(|i| (i.network, i.prefix_len))
            .collect();
        match kind {
            Kind::Fig1Pcap | Kind::ShardedChurn => Workload {
                base: spec.config(),
                frames: fig1_frames(&spec, seed, 32_768),
                reference_frames: 32_768,
                source: if kind == Kind::Fig1Pcap {
                    Source::Pcap
                } else {
                    Source::Mem
                },
                paced_pps: if kind == Kind::Fig1Pcap {
                    250_000.0
                } else {
                    400_000.0
                },
                churn: (kind == Kind::ShardedChurn).then_some(Churn {
                    swap_every: 262_144,
                    ckpt_every: 262_144,
                }),
                routes: connected,
            },
            Kind::AclBgp => acl_bgp(&spec, seed, connected),
        }
    }
}

/// Writes the sequence number into a frame's UDP payload.
pub fn stamp_seq(frame: &mut [u8], seq: u32) {
    frame[SEQ_OFFSET..SEQ_OFFSET + 4].copy_from_slice(&seq.to_le_bytes());
}

/// Reads the sequence number back out of a (forwarded) frame.
pub fn read_seq(frame: &[u8]) -> Option<u32> {
    let b = frame.get(SEQ_OFFSET..SEQ_OFFSET + 4)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// 64-byte UDP frames from eth0's neighbor across 64 flows to the
/// neighbors behind eth1–eth3, in seeded random order.
fn fig1_frames(spec: &IpRouterSpec, seed: u64, n: usize) -> Vec<Vec<u8>> {
    let mut lcg = Lcg::new(seed ^ 0xF161);
    (0..n)
        .map(|i| {
            let flow = lcg.below(64) as usize;
            let dst = 1 + flow % (N_IFACES - 1);
            let sport = 2000 + flow as u16;
            let mut f = test_packet_flow(spec, 0, dst, sport, 7000).data().to_vec();
            stamp_seq(&mut f, i as u32);
            f
        })
        .collect()
}

/// Number of ACL rules (before the trailing `allow all`). Compile time
/// of the rule set grows steeply with this; see `README.md`.
const ACL_RULES: usize = 1_000;
/// Number of synthetic-BGP prefixes in the route table.
const BGP_ROUTES: usize = 100_000;
/// Frames in one pass of `acl-bgp`.
const ACL_FRAMES: usize = 16_384;
/// Bounded value pools of the ACL fields (like real ACLs reusing the
/// same nets and ports, and like `tables_bench::synthetic_acl`).
const SRC_NETS: u32 = 48;
const DST_NETS: u32 = 48;
const DST_PORTS: u32 = 256;
/// Source of frame 0, outside every rule's source net: only `allow all`
/// matches it, so the warm-up frame of set-up reaches `rt` and builds its
/// table.
const WARM_UP_SRC: u32 = 0xC612_0001; // 198.18.0.1

/// One generated ACL rule.
struct AclRule {
    allow: bool,
    src_net: u32,
    dst_net: u32,
    proto: u8,
    dst_port: u16,
}

impl AclRule {
    fn text(&self) -> String {
        format!(
            "{} src net {}/24 && dst net {}/24 && {} dst port {}",
            if self.allow { "allow" } else { "deny" },
            ip_to_string(self.src_net),
            ip_to_string(self.dst_net),
            if self.proto == ipv4::PROTO_TCP {
                "tcp"
            } else {
                "udp"
            },
            self.dst_port
        )
    }
}

/// True for destinations the Figure-1 router must not see as transit
/// traffic: its own subnets, and non-unicast space.
fn reserved(addr: u32) -> bool {
    let top = addr >> 24;
    addr >> 16 == 0x0A00 || top == 0 || top == 127 || top >= 224
}

fn acl_bgp(spec: &IpRouterSpec, seed: u64, connected: Vec<(u32, u8)>) -> Workload {
    let mut lcg = Lcg::new(seed ^ 0xAC1B);
    // The route table: synthetic-BGP prefixes, each routed to one of the
    // transit interfaces through that interface's neighbor, then the
    // connected subnets last so they win any duplicate.
    let prefixes: Vec<(u32, u8)> = synthetic_bgp_prefixes(seed ^ 0xB6D0, BGP_ROUTES)
        .into_iter()
        .filter(|p| !connected.contains(p))
        .collect();
    let mut routes_text = Vec::with_capacity(prefixes.len() + N_IFACES);
    for &(addr, plen) in &prefixes {
        let port = 1 + (addr.rotate_left(u32::from(plen)) ^ u32::from(plen)) as usize % 3;
        let gw = spec.interfaces[port].neighbor_ip;
        routes_text.push(format!(
            "{}/{} {} {}",
            ip_to_string(addr),
            plen,
            ip_to_string(gw),
            port
        ));
    }
    for (i, &(net, plen)) in connected.iter().enumerate() {
        routes_text.push(format!("{}/{} {}", ip_to_string(net), plen, i));
    }

    // Destinations: host addresses covered by the table, sampled over
    // the whole table.
    let mut pool = Vec::with_capacity(prefixes.len());
    while pool.len() < prefixes.len() {
        let (addr, plen) = prefixes[lcg.below(prefixes.len() as u32) as usize];
        let host = if plen >= 32 {
            addr
        } else {
            addr | (lcg.next_u32() & (u32::MAX >> plen))
        };
        if !reserved(host) {
            pool.push(host);
        }
    }
    let dests = destination_stream(&mut lcg, &pool, pool.len(), ACL_FRAMES);

    // The ACL's field pools: source nets in 100.64/10, destination nets
    // around table destinations, TCP or UDP, 256 destination ports.
    let src_nets: Vec<u32> = (0..SRC_NETS)
        .map(|_| 0x6440_0000 | (lcg.below(1 << 14) << 8))
        .collect();
    let dst_nets: Vec<u32> = (0..DST_NETS)
        .map(|_| pool[lcg.below(pool.len() as u32) as usize] & 0xFFFF_FF00)
        .collect();
    let ports: Vec<u16> = (0..DST_PORTS).map(|i| 1024 + 7 * i as u16).collect();
    let rules: Vec<AclRule> = (0..ACL_RULES)
        .map(|_| AclRule {
            src_net: src_nets[lcg.below(SRC_NETS) as usize],
            dst_net: dst_nets[lcg.below(DST_NETS) as usize],
            proto: if lcg.below(2) == 0 {
                ipv4::PROTO_UDP
            } else {
                ipv4::PROTO_TCP
            },
            dst_port: ports[lcg.below(DST_PORTS) as usize],
            allow: lcg.below(4) != 0,
        })
        .collect();
    let mut acl: Vec<String> = rules.iter().map(AclRule::text).collect();
    acl.push("allow all".to_string());

    // The Figure-1 router with the route table replaced and the ACL
    // placed in front of `rt`.
    let mut base = String::new();
    for line in spec.config().lines() {
        if line.starts_with("rt :: StaticIPLookup(") {
            base.push_str(&format!(
                "rt :: StaticIPLookup({});\nacl :: IPFilter({});\nacl -> rt;\n",
                routes_text.join(", "),
                acl.join(", ")
            ));
        } else {
            base.push_str(&line.replace("GetIPAddress(16) -> rt;", "GetIPAddress(16) -> acl;"));
            base.push('\n');
        }
    }

    // Frames: an IMIX-like 7:4:1 mix of 64/594/1518-byte frames; half
    // planted to hit a random rule, half to table destinations; frame 0
    // (the warm-up frame) allowed through to the table.
    let eth0 = &spec.interfaces[0];
    let frames = (0..ACL_FRAMES)
        .map(|i| {
            let wire = match lcg.below(12) {
                0..=6 => 64,
                7..=10 => 594,
                _ => 1518,
            };
            let (src, dst, proto, dport) = if i == 0 {
                (WARM_UP_SRC, dests[0], ipv4::PROTO_UDP, ports[0])
            } else if lcg.below(2) == 0 {
                let r = &rules[lcg.below(ACL_RULES as u32) as usize];
                (
                    r.src_net | (1 + lcg.below(254)),
                    r.dst_net | (1 + lcg.below(254)),
                    r.proto,
                    r.dst_port,
                )
            } else {
                (
                    src_nets[lcg.below(SRC_NETS) as usize] | (1 + lcg.below(254)),
                    dests[i],
                    ipv4::PROTO_UDP,
                    ports[lcg.below(DST_PORTS) as usize],
                )
            };
            let sport = 1024 + lcg.below(60_000) as u16;
            let payload = wire - FCS - SEQ_OFFSET;
            let mut p = click_elements::headers::build_udp_packet(
                eth0.neighbor_mac,
                eth0.mac,
                src,
                dst,
                sport,
                dport,
                payload,
                64,
            );
            let d = p.data_mut();
            if proto != ipv4::PROTO_UDP {
                d[14 + 9] = proto;
                ipv4::set_checksum(&mut d[14..]);
            }
            let mut f = d.to_vec();
            stamp_seq(&mut f, i as u32);
            f
        })
        .collect();

    let mut routes = prefixes;
    routes.extend(connected);
    Workload {
        base,
        frames,
        reference_frames: 4_096,
        source: Source::Mem,
        paced_pps: 300_000.0,
        churn: None,
        routes,
    }
}
