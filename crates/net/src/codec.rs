//! A self-contained binary codec for model descriptions.
//!
//! The serve engine's durability layer (`mcnetkat-serve`) journals model
//! deltas and snapshots model descriptions to disk. The build environment
//! is offline — no `serde` — so this module implements the little that is
//! actually needed: a length-checked byte [`Reader`], a [`Codec`] trait
//! with implementations for the model-description types (topologies,
//! routing schemes, failure specs, shared-risk groups, exact rationals),
//! and [`ModelDescription`] — the compact, compile-free value that fully
//! determines a [`NetworkModel`] (the diagrams themselves are *not*
//! serialised: recompilation is the source of truth).
//!
//! Encoding is deliberately dumb and explicit: fixed-width little-endian
//! integers, length-prefixed sequences, one tag byte per enum variant.
//! [`BigInt`] magnitudes ride as decimal strings
//! (probabilities are small; simplicity beats compactness here). The
//! format carries no version byte of its own — the journal and snapshot
//! containers in `mcnetkat-serve` version their headers.
//!
//! Round-tripping a [`Topology`] preserves **everything** observable:
//! node ids (insertion order), names, levels, pod metadata, port numbers,
//! and the order of each node's adjacency list (see `link_order`) — so
//! a decoded model compiles to a diagram structurally identical to the
//! original's, not merely an equivalent one.

use crate::{FailureSpec, NetworkModel, RoutingScheme, Srlg};
use mcnetkat_num::{BigInt, Ratio};
use mcnetkat_topo::{Level, NodeId, NodeInfo, PodType, Topology};
use std::collections::BTreeMap;

/// Why a decode failed. The byte stream is untrusted (it came from disk),
/// so every length, tag, index, and invariant is checked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value did.
    Eof,
    /// An enum tag byte had no matching variant.
    BadTag {
        /// Which type was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A decoded value violated a structural invariant (bad UTF-8, a node
    /// index out of range, a zero denominator, a port wired twice, …).
    Invalid(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Eof => write!(f, "unexpected end of input"),
            CodecError::BadTag { what, tag } => write!(f, "bad tag {tag} for {what}"),
            CodecError::Invalid(why) => write!(f, "invalid encoding: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A checked cursor over an encoded byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed — decoders of containers
    /// should end exactly at the end.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A length prefix, sanity-capped against the remaining input so a
    /// corrupt length can't drive a huge allocation.
    fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| CodecError::Invalid("length overflow".into()))?;
        if n > self.remaining() {
            return Err(CodecError::Eof);
        }
        Ok(n)
    }
}

/// Binary encode/decode. `decode` must accept exactly what `encode`
/// produced and reject everything else with a typed [`CodecError`].
pub trait Codec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader, advancing it.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated, mistagged, or invalid input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Convenience: decode a value that must span the whole slice.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated, mistagged, invalid, or oversized
    /// input (trailing bytes are an error).
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes after value",
                r.remaining()
            )));
        }
        Ok(v)
    }
}

impl Codec for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<u8, CodecError> {
        r.u8()
    }
}

impl Codec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<u32, CodecError> {
        r.u32()
    }
}

impl Codec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<u64, CodecError> {
        r.u64()
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<bool, CodecError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<String, CodecError> {
        let n = r.len()?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::Invalid("non-UTF-8 string".into()))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Option<T>, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Vec<T>, CodecError> {
        // Cap the reservation at what the input could possibly hold (each
        // element is ≥ 1 byte), so a corrupt count can't blow the heap.
        let n = r.u64()?;
        let n = usize::try_from(n).map_err(|_| CodecError::Invalid("length overflow".into()))?;
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<(A, B), CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<BTreeMap<K, V>, CodecError> {
        let n = r.u64()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            if out.insert(k, v).is_some() {
                return Err(CodecError::Invalid("duplicate map key".into()));
            }
        }
        Ok(out)
    }
}

impl Codec for Ratio {
    /// Numerator and denominator as decimal strings — exact at any
    /// magnitude, trivially debuggable in a hex dump.
    fn encode(&self, out: &mut Vec<u8>) {
        self.numer().to_string().encode(out);
        self.denom().to_string().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Ratio, CodecError> {
        let parse = |s: String| {
            BigInt::parse(&s).ok_or_else(|| CodecError::Invalid(format!("bad integer {s:?}")))
        };
        let num = parse(String::decode(r)?)?;
        let den = parse(String::decode(r)?)?;
        if den.is_zero() {
            return Err(CodecError::Invalid("zero denominator".into()));
        }
        Ok(Ratio::from_bigints(num, den))
    }
}

impl Codec for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.0 as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<NodeId, CodecError> {
        let i = r.u64()?;
        let i =
            usize::try_from(i).map_err(|_| CodecError::Invalid("node index overflow".into()))?;
        Ok(NodeId(i))
    }
}

impl Codec for RoutingScheme {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            RoutingScheme::Ecmp => 0,
            RoutingScheme::F10_3 => 1,
            RoutingScheme::F10_3_5 => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<RoutingScheme, CodecError> {
        match r.u8()? {
            0 => Ok(RoutingScheme::Ecmp),
            1 => Ok(RoutingScheme::F10_3),
            2 => Ok(RoutingScheme::F10_3_5),
            tag => Err(CodecError::BadTag {
                what: "RoutingScheme",
                tag,
            }),
        }
    }
}

impl Codec for Level {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Level::Host => 0,
            Level::Edge => 1,
            Level::Agg => 2,
            Level::Core => 3,
            Level::Plain => 4,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Level, CodecError> {
        match r.u8()? {
            0 => Ok(Level::Host),
            1 => Ok(Level::Edge),
            2 => Ok(Level::Agg),
            3 => Ok(Level::Core),
            4 => Ok(Level::Plain),
            tag => Err(CodecError::BadTag { what: "Level", tag }),
        }
    }
}

impl Codec for PodType {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            PodType::A => 0,
            PodType::B => 1,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<PodType, CodecError> {
        match r.u8()? {
            0 => Ok(PodType::A),
            1 => Ok(PodType::B),
            tag => Err(CodecError::BadTag {
                what: "PodType",
                tag,
            }),
        }
    }
}

impl Codec for Srlg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.pr.encode(out);
        self.members.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Srlg, CodecError> {
        Ok(Srlg {
            name: String::decode(r)?,
            pr: Ratio::decode(r)?,
            members: Vec::<(u32, u32)>::decode(r)?,
        })
    }
}

impl Codec for FailureSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pr.encode(out);
        self.k.encode(out);
        self.link_pr.encode(out);
        self.groups.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<FailureSpec, CodecError> {
        Ok(FailureSpec {
            pr: Ratio::decode(r)?,
            k: Option::<u32>::decode(r)?,
            link_pr: BTreeMap::<u32, Ratio>::decode(r)?,
            groups: Vec::<Srlg>::decode(r)?,
        })
    }
}

/// The topology's links in an order that reproduces every node's
/// adjacency-list order on replay.
///
/// A link appears in *both* endpoints' adjacency lists; replaying a
/// global link sequence through [`Topology::link_ports`] appends to both
/// lists, so the sequence must interleave consistently with every
/// per-node order. Any topology built through `link`/`link_ports` has
/// such an order (links are appended to both lists atomically), and the
/// greedy below finds one: repeatedly emit a link that currently heads
/// **both** of its endpoints' remaining lists — the earliest-inserted
/// remaining link always qualifies, so the scan makes progress.
fn link_order(t: &Topology) -> Result<Vec<(NodeId, u32, NodeId, u32)>, CodecError> {
    let n = t.len();
    let mut cursor = vec![0usize; n];
    let total: usize = (0..n).map(|i| t.ports(NodeId(i)).len()).sum::<usize>() / 2;
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let before = out.len();
        for i in 0..n {
            loop {
                let node = NodeId(i);
                let Some(pp) = t.ports(node).get(cursor[i]).copied() else {
                    break;
                };
                if pp.peer == node {
                    // A self-loop occupies two consecutive slots of the
                    // same list; it is always emittable.
                    out.push((node, pp.port, node, pp.peer_port));
                    cursor[i] += 2;
                    continue;
                }
                let peer_head = t.ports(pp.peer).get(cursor[pp.peer.0]).copied();
                let mirrored = peer_head.is_some_and(|ph| {
                    ph.peer == node && ph.port == pp.peer_port && ph.peer_port == pp.port
                });
                if !mirrored {
                    break;
                }
                out.push((node, pp.port, pp.peer, pp.peer_port));
                cursor[i] += 1;
                cursor[pp.peer.0] += 1;
            }
        }
        if out.len() == before {
            // No consistent interleaving — the adjacency lists were not
            // produced by pairwise appends. No constructor in this
            // workspace can create this.
            return Err(CodecError::Invalid(
                "adjacency lists admit no consistent link order".into(),
            ));
        }
    }
    Ok(out)
}

impl Codec for Topology {
    fn encode(&self, out: &mut Vec<u8>) {
        let nodes: Vec<NodeId> = self.nodes().collect();
        (nodes.len() as u64).encode(out);
        for n in nodes {
            let info = self.info(n);
            info.name.encode(out);
            info.level.encode(out);
            info.pod.map(|p| p as u64).encode(out);
            info.pod_type.encode(out);
        }
        let links = link_order(self).expect("constructed topologies always have a link order");
        (links.len() as u64).encode(out);
        for (a, pa, b, pb) in links {
            a.encode(out);
            pa.encode(out);
            b.encode(out);
            pb.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Topology, CodecError> {
        let mut topo = Topology::new();
        let nodes = r.u64()?;
        for _ in 0..nodes {
            let name = String::decode(r)?;
            let level = Level::decode(r)?;
            let pod = Option::<u64>::decode(r)?
                .map(|p| usize::try_from(p).map_err(|_| CodecError::Invalid("pod overflow".into())))
                .transpose()?;
            let pod_type = Option::<PodType>::decode(r)?;
            topo.add_node(NodeInfo {
                name,
                level,
                pod,
                pod_type,
            });
        }
        let links = r.u64()?;
        for _ in 0..links {
            let a = NodeId::decode(r)?;
            let pa = r.u32()?;
            let b = NodeId::decode(r)?;
            let pb = r.u32()?;
            for (end, port) in [(a, pa), (b, pb)] {
                if end.0 >= topo.len() {
                    return Err(CodecError::Invalid(format!(
                        "link endpoint {end:?} out of range"
                    )));
                }
                // `link_ports` panics on a doubly-wired port; the input
                // is untrusted, so check first. A self-loop uses the same
                // node twice with two distinct ports — the pairwise check
                // below still catches reuse.
                if topo.neighbor(end, port).is_some() {
                    return Err(CodecError::Invalid(format!(
                        "port {port} on node {} wired twice",
                        end.0
                    )));
                }
            }
            if a == b && pa == pb {
                return Err(CodecError::Invalid(format!(
                    "self-link on node {} reuses port {pa}",
                    a.0
                )));
            }
            topo.link_ports(a, pa, b, pb);
        }
        Ok(topo)
    }
}

/// Everything that determines a [`NetworkModel`], minus the compiled
/// diagrams: the value the serve engine snapshots and journals. Building
/// the model back ([`ModelDescription::build`]) revalidates the spec and
/// re-derives field handles through the process-wide interner, so a
/// description is portable across processes (diagrams are not — they are
/// recompiled, which is the durability design's source of truth).
#[derive(Clone, Debug)]
pub struct ModelDescription {
    /// The fabric (round-trips exactly — see [`Codec` for `Topology`](Topology)).
    pub topo: Topology,
    /// Destination switch.
    pub dst: NodeId,
    /// Model-wide default routing scheme.
    pub scheme: RoutingScheme,
    /// Per-switch scheme overrides.
    pub scheme_overrides: BTreeMap<NodeId, RoutingScheme>,
    /// Failure specification.
    pub failure: FailureSpec,
    /// Hop-counter cap, if threaded.
    pub hop_cap: Option<u32>,
}

impl ModelDescription {
    /// Captures a model's description. Only the default
    /// [`crate::FieldOrder`] survives a round-trip — models built over a
    /// custom field order rebuild with standard handles (the serve
    /// engine, the only producer of descriptions, is pinned to the
    /// default order already).
    pub fn of(model: &NetworkModel) -> ModelDescription {
        ModelDescription {
            topo: model.topo.clone(),
            dst: model.dst,
            scheme: model.scheme,
            scheme_overrides: model.scheme_overrides.clone(),
            failure: model.failure.clone(),
            hop_cap: model.hop_cap,
        }
    }

    /// Reconstructs the model, revalidating everything
    /// [`NetworkModel::new`] would assert: the destination must be a
    /// switch of the topology, every override must name a switch, and the
    /// failure spec must validate.
    ///
    /// # Errors
    ///
    /// A human-readable reason; descriptions produced by
    /// [`ModelDescription::of`] from a live model never fail.
    pub fn build(&self) -> Result<NetworkModel, String> {
        if !self.topo.switches().contains(&self.dst) {
            return Err(format!("destination {:?} is not a switch", self.dst));
        }
        for s in self.scheme_overrides.keys() {
            if !self.topo.switches().contains(s) {
                return Err(format!("scheme override on non-switch {s:?}"));
            }
        }
        let mut model = NetworkModel::try_new(
            self.topo.clone(),
            self.dst,
            self.scheme,
            self.failure.clone(),
        )?;
        model.scheme_overrides = self.scheme_overrides.clone();
        model.hop_cap = self.hop_cap;
        Ok(model)
    }
}

impl Codec for ModelDescription {
    fn encode(&self, out: &mut Vec<u8>) {
        self.topo.encode(out);
        self.dst.encode(out);
        self.scheme.encode(out);
        self.scheme_overrides.encode(out);
        self.failure.encode(out);
        self.hop_cap.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<ModelDescription, CodecError> {
        Ok(ModelDescription {
            topo: Topology::decode(r)?,
            dst: NodeId::decode(r)?,
            scheme: RoutingScheme::decode(r)?,
            scheme_overrides: BTreeMap::<NodeId, RoutingScheme>::decode(r)?,
            failure: FailureSpec::decode(r)?,
            hop_cap: Option::<u32>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailureModel;
    use mcnetkat_topo::{ab_fattree, chain, fattree};

    fn assert_topo_identical(a: &Topology, b: &Topology) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.switches(), b.switches());
        assert_eq!(a.hosts(), b.hosts());
        for n in a.nodes() {
            let (ia, ib) = (a.info(n), b.info(n));
            assert_eq!(ia.name, ib.name);
            assert_eq!(ia.level, ib.level);
            assert_eq!(ia.pod, ib.pod);
            assert_eq!(ia.pod_type, ib.pod_type);
            // Same entries in the same order — PortPeer is PartialEq.
            assert_eq!(a.ports(n), b.ports(n), "adjacency of {}", ia.name);
        }
    }

    #[test]
    fn topology_roundtrip_preserves_adjacency_order() {
        for topo in [fattree(4), fattree(6), ab_fattree(4), chain(5)] {
            let decoded = Topology::from_bytes(&topo.to_bytes()).unwrap();
            assert_topo_identical(&topo, &decoded);
            // Re-encoding the decoded topology is byte-identical.
            assert_eq!(topo.to_bytes(), decoded.to_bytes());
        }
    }

    #[test]
    fn ratio_roundtrip_exact() {
        for r in [
            Ratio::zero(),
            Ratio::one(),
            Ratio::new(1, 3),
            Ratio::new(-7, 24),
            Ratio::new(1, 1_000_000),
            Ratio::new(i64::MAX, 2).pow(3), // forces the BigInt path
        ] {
            assert_eq!(Ratio::from_bytes(&r.to_bytes()).unwrap(), r);
        }
    }

    #[test]
    fn model_description_roundtrip() {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let core = topo.find("core0").unwrap();
        let core_sw = topo.sw_value(core);
        let prone = down_ports_of(&topo, core);
        let spec = FailureSpec::bounded(Ratio::new(1, 100), 2)
            .with_link_pr(prone[0], Ratio::new(1, 10))
            .with_group(Srlg::new(
                "card",
                Ratio::new(1, 50),
                prone.iter().map(|&p| (core_sw, p)).collect(),
            ));
        let mut model = NetworkModel::new(topo, dst, RoutingScheme::Ecmp, spec);
        model.scheme_overrides.insert(core, RoutingScheme::F10_3);
        model.hop_cap = Some(8);

        let desc = ModelDescription::of(&model);
        let bytes = desc.to_bytes();
        let back = ModelDescription::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes, "re-encode is byte-identical");

        let rebuilt = back.build().unwrap();
        assert_eq!(rebuilt.dst, model.dst);
        assert_eq!(rebuilt.scheme, model.scheme);
        assert_eq!(rebuilt.scheme_overrides, model.scheme_overrides);
        assert_eq!(rebuilt.failure, model.failure);
        assert_eq!(rebuilt.hop_cap, model.hop_cap);
        assert_topo_identical(&model.topo, &rebuilt.topo);
    }

    #[test]
    fn rebuilt_model_compiles_identically() {
        use mcnetkat_fdd::Manager;
        let topo = fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let model = NetworkModel::new(
            topo,
            dst,
            RoutingScheme::F10_3,
            FailureModel::independent(Ratio::new(1, 64)),
        );
        let desc = ModelDescription::from_bytes(&ModelDescription::of(&model).to_bytes()).unwrap();
        let rebuilt = desc.build().unwrap();
        let mgr = Manager::new();
        let a = model.compile(&mgr).unwrap();
        let b = rebuilt.compile(&mgr).unwrap();
        // Adjacency order round-trips exactly, so the programs are
        // structurally identical — the diagrams are the *same* node.
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_input_is_eof_not_panic() {
        let bytes = ModelDescription::of(&NetworkModel::new(
            fattree(4),
            fattree(4).find("edge0_0").unwrap(),
            RoutingScheme::Ecmp,
            FailureModel::none(),
        ))
        .to_bytes();
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            let err = ModelDescription::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Eof | CodecError::Invalid(_)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn hostile_inputs_are_rejected() {
        // Bad enum tag.
        assert!(matches!(
            RoutingScheme::from_bytes(&[9]),
            Err(CodecError::BadTag { .. })
        ));
        // Zero denominator.
        let mut out = Vec::new();
        "1".to_string().encode(&mut out);
        "0".to_string().encode(&mut out);
        assert!(matches!(
            Ratio::from_bytes(&out),
            Err(CodecError::Invalid(_))
        ));
        // A length prefix far past the end of input.
        let mut out = Vec::new();
        u64::MAX.encode(&mut out);
        assert!(matches!(String::from_bytes(&out), Err(CodecError::Eof)));
        // Link endpoint out of range.
        let mut topo = Topology::new();
        topo.add_switch("a", Level::Plain);
        let mut bytes = topo.to_bytes();
        // Append a bogus link count of 1 with an out-of-range endpoint.
        bytes.truncate(bytes.len() - 8); // drop the 0 link count
        1u64.encode(&mut bytes);
        NodeId(7).encode(&mut bytes);
        1u32.encode(&mut bytes);
        NodeId(0).encode(&mut bytes);
        1u32.encode(&mut bytes);
        assert!(matches!(
            Topology::from_bytes(&bytes),
            Err(CodecError::Invalid(_))
        ));
        // Trailing garbage.
        let mut bytes = Ratio::one().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Ratio::from_bytes(&bytes),
            Err(CodecError::Invalid(_))
        ));
    }

    fn down_ports_of(topo: &Topology, s: NodeId) -> Vec<u32> {
        crate::down_ports(topo, s)
    }
}
